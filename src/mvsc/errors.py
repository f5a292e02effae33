"""Exception hierarchy shared across the package.

The CLI maps these onto stable exit codes: validation problems exit 2,
numerical failures exit 3, i/o problems exit 4.
"""


class ValidationError(ValueError):
    """Invalid argument, malformed dataset, or inconsistent configuration."""


class DegenerateInputError(ValidationError):
    """Input is structurally valid but degenerate (e.g. all points identical)."""


class NumericalError(RuntimeError):
    """A numerical routine failed to produce a usable result."""


class DataIOError(OSError):
    """A dataset file is missing or unreadable."""
