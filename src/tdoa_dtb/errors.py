"""Exception hierarchy shared by all modules.

A TdoaDtbError is a problem with data a command read, and maps to exit code 2.
The subclasses below are the problems with a class of their own; every other
data error is a plain TdoaDtbError whose message says what went wrong. A bad
argument from a library caller is a ValueError instead, and the CLI reports a
bad flag itself.
"""


class TdoaDtbError(Exception):
    """Base class for all data-level errors raised by this package."""


class ParseError(TdoaDtbError):
    """Malformed input file. Carries file path and 1-based line number."""

    def __init__(self, path, line, message):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


class UnknownNode(TdoaDtbError):
    """An observation or lookup references a node id that is not known."""


class FitError(TdoaDtbError):
    """Noise-model fit is degenerate or violates model constraints."""


class InvalidScenario(TdoaDtbError):
    """Synthetic scenario configuration is inconsistent."""
