"""Per-layer spans recorded from outside the package.

The tracer replaces public functions of the ``tdoa_dtb`` modules with
wrappers at run time and puts the originals back afterwards; no file under
``src/`` changes. A function is replaced in every ``tdoa_dtb`` namespace that
holds it, so ``from .x import y`` call sites are traced too. A name the
package no longer has is skipped: it yields no span rather than a failure.

A span's self time is its duration minus the durations of the spans it
called. Functions too hot to time are only counted.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Called per observation or per row: a timed wrapper would distort them.
COUNT_ONLY = frozenset({
    "geometry.range_between", "geometry.sd_range", "geometry.node_sort_key",
    "noise.sigma_for",
})
# Public helpers that hold no work of their own worth a span.
SKIP = frozenset({"cli.build_parser"})


def public_functions(package) -> dict[str, object]:
    """``module.function`` -> function, for every public function the package defines."""
    prefix = package.__name__ + "."
    found = {}
    for mod_name, module in sorted(sys.modules.items()):
        if not mod_name.startswith(prefix):
            continue
        short = mod_name[len(prefix):]
        for attr, value in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != mod_name):
                continue
            name = f"{short}.{attr}"
            if name not in SKIP:
                found[name] = value
    return found


class Tracer:
    """Accumulates calls and self time per function while installed."""

    def __init__(self, package):
        self._package = package
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.top_s = 0.0        # summed duration of outermost spans
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        originals = public_functions(self._package)
        wrappers = {id(fn): (self._counted(name, fn) if name in COUNT_ONLY
                             else self._timed(name, fn))
                    for name, fn in originals.items()}
        prefix = self._package.__name__
        for mod_name, module in list(sys.modules.items()):
            if mod_name != prefix and not mod_name.startswith(prefix + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is wrapper.__wrapped__:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _counted(self, name, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                children = stack.pop()
                calls[name] += 1
                self_s[name] += span - children
                if stack:
                    stack[-1] += span
                else:
                    self.top_s += span
            return result
        return wrapper
