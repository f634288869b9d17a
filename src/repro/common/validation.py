"""Small argument-validation helpers shared across subsystems."""

from __future__ import annotations

import numbers
from typing import Any

import numpy as np

from .errors import ConfigurationError

__all__ = ["require", "check_positive", "check_probability", "check_int_array"]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ConfigurationError(message)


def check_positive(name: str, value: Any, *, strict: bool = True) -> int:
    """Validate that ``value`` is a (strictly) positive integer and return it.

    Booleans are refused: ``True`` is an ``int`` to Python, not a count.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if strict and value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(name: str, value: Any, *, allow_zero: bool = False) -> float:
    """Validate that ``value`` is a probability in ``(0, 1]`` (or ``[0, 1]``).

    Only real numbers are accepted: booleans (``True`` is a number to Python,
    not a probability) and numeric strings are refused.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a float, got {type(value).__name__}")
    value = float(value)
    lo_ok = value >= 0.0 if allow_zero else value > 0.0
    if not (lo_ok and value <= 1.0):
        bound = "[0, 1]" if allow_zero else "(0, 1]"
        raise ConfigurationError(f"{name} must be in {bound}, got {value}")
    return value


def check_int_array(name: str, arr: Any, *, ndim: int = 1) -> np.ndarray:
    """Coerce ``arr`` to an integer ndarray of the given rank, validating dtype.

    Integral floats are converted; fractional floats and booleans are refused.
    """
    out = np.asarray(arr)
    if out.ndim != ndim:
        raise ConfigurationError(f"{name} must be {ndim}-D, got shape {out.shape}")
    if out.dtype == np.bool_:
        raise ConfigurationError(f"{name} must contain integers")
    if not np.issubdtype(out.dtype, np.integer):
        if out.size and not np.all(np.equal(np.mod(out, 1), 0)):
            raise ConfigurationError(f"{name} must contain integers")
        out = out.astype(np.int64)
    return out
