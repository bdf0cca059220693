"""Shared by the package: exception types, number checks, how values print, the JSON file reader."""

import json
import sys
from pathlib import Path

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


def read_json_object(path: str | Path, kind: str) -> dict:
    """The JSON object in the file at ``path``; anything else is an error naming the file kind."""
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"{kind} file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON, too long an integer, too deep
        raise ConfigurationError(f"{kind} file {p} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{kind} file {p} must contain a JSON object")
    return data
