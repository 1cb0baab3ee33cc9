"""Exception types shared across the package."""

from __future__ import annotations


class PolybinomError(Exception):
    """Base class for all package-specific errors."""


class InputFormatError(PolybinomError):
    """A graph or poset file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CapExceeded(PolybinomError):
    """An enumeration or recursion cap was exceeded."""


class NotApplicable(PolybinomError):
    """The requested analysis does not apply to this instance (loop, bridge, ...).

    ``reason`` is machine-readable and surfaces in survey reports and CLI
    exit diagnostics.
    """

    def __init__(self, reason: str, message: str | None = None):
        self.reason = reason
        super().__init__(message or reason)
