"""Shared by the package, and free of numpy: exception types, number checks, how values print,
the JSON file reader, and the input rules that the config and the pipeline both apply."""

import json
import math
import os
import sys

__all__ = [
    "ConfigurationError",
    "NumericalError",
]


class ConfigurationError(ValueError):
    """Raised when a configuration value or precondition is invalid."""


class NumericalError(RuntimeError):
    """Raised when a numerical routine produces a non-finite result."""


def is_finite_number(value: object) -> bool:
    """True for an int (not a bool) or a float no larger in size than the largest float."""
    # abs() compares exactly, so an int too large for a float is rejected, not raised on.
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


def show(value: object) -> str:
    """repr(value), except that an int of over 1000 bits, which str() may refuse, is sized."""
    if isinstance(value, int) and value.bit_length() > 1000:
        return f"an integer of {value.bit_length()} bits"
    return f"[{', '.join(map(show, value))}]" if isinstance(value, tuple) else repr(value)


def read_json_object(path: str | os.PathLike[str], kind: str) -> dict:
    """The JSON object in the file at ``path``; anything else is an error naming the file kind."""
    if not os.path.exists(path):
        raise ConfigurationError(f"{kind} file not found: {path}")
    if not os.path.isfile(path):
        raise ConfigurationError(f"{kind} file {path} is not a file")
    try:
        with open(path, encoding="utf-8") as file:
            data = json.load(file)
    except (ValueError, RecursionError) as exc:  # bad JSON, too long an integer, too deep
        raise ConfigurationError(f"{kind} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{kind} file {path} must contain a JSON object")
    return data


# The smallest connectivity margin: a mixture that leaves a node fixed has xi = 1 exactly, but its
# computed xi can read up to a few units of 1e-15 below 1, which a smaller margin would admit.
MIN_EPSILON = 1e-12


def check_count(name: str, value: object, least: int) -> None:
    """ConfigurationError naming ``name`` unless ``value`` is an int >= ``least``, not a bool."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {show(value)}")


def check_sizes(n: int, size_min: int, size_max: int | None) -> int:
    """Reject sizes below 2, above n, or an empty range; return the largest size (n if None)."""
    if size_min < 2:
        raise ConfigurationError(f"cluster_size_min must be >= 2, got {show(size_min)}")
    limit = f"cluster_size_max {show(size_max)}"
    if size_max is None:
        size_max, limit = n, f"the number of nodes ({show(n)})"
    elif size_max > n:
        raise ConfigurationError(
            f"cluster_size_max must be <= number of nodes ({show(n)}), got {show(size_max)}"
        )
    if size_min > size_max:
        raise ConfigurationError(f"cluster_size_min {show(size_min)} exceeds {limit}")
    return size_max


def check_init_range(low: float, high: float) -> None:
    """Refuse, naming init_low and init_high, a range from which no draw of n >= 2 readings starts.

    The relative error divides by the readings' squared norm, so that norm must be positive and
    finite. It cannot be when the range is empty or its width overflows a float, when every
    square underflows to 0, or when 0 lies outside the range and two squares already overflow.
    """
    low, high = float(low), float(high)
    nearest = max(low, -high, 0.0)  # the smallest |reading| in the range
    if not low <= high:
        raise ConfigurationError(f"init_low={low}, init_high={high}: the range is empty")
    if not math.isfinite(high - low):
        raise ConfigurationError(f"init_low={low}, init_high={high}: its width overflows a float")
    if max(low * low, high * high) == 0 or 2 * (nearest * nearest) == math.inf:
        raise ConfigurationError(
            f"init_low={low}, init_high={high}: every draw's squared norm is 0 or overflows"
        )
