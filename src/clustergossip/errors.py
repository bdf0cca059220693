"""Exception types shared across the package, and the one rule for what counts as a number."""

import sys


class ConfigurationError(ValueError):
    """Raised when a configuration value or precondition is invalid."""


class NumericalError(RuntimeError):
    """Raised when a numerical routine produces a non-finite result."""


def is_finite_number(value: object) -> bool:
    """True for an int (not a bool) or a float no larger in size than the largest float."""
    # abs() compares exactly, so an int too large for a float is rejected, not raised on.
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max
