"""Every name a package module imports is used in that module, and every
module but the entry points is imported by another one."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tdoa_dtb"


def unused_imports(source: str) -> list[str]:
    """The names bound by the import statements of source that no expression reads;
    `from __future__` imports are directives, not names."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import math\nimport os.path\nfrom json import dumps as d, loads\nos.path.join(d)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: loads"]


def unimported_modules(sources: dict[str, str]) -> list[str]:
    """The modules, given as name -> source, that no other module's relative import
    (`from .x import y`, `from . import x`) names, leaving out `__init__` and `cli`."""
    imported = {}
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
                for target in targets:
                    imported.setdefault(target.split(".")[0], set()).add(name)
    return [name for name in sorted(sources) if name not in ("__init__", "cli")
            and not imported.get(name, set()) - {name}]


def test_every_module_is_imported_by_another():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unimported_modules(sources) == []


def test_a_module_without_importer_is_found():
    sources = {"__init__": "", "cli": "from .a import f\n", "a": "from .c import g\n",
               "b": "from . import a\nfrom .b import h\n", "c": ""}
    assert unimported_modules(sources) == ["b"]
