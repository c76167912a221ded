"""The one rule for numeric arguments, shared by every module that takes them.

A number is a real, finite value other than a boolean; strings are not
numbers.  Where an integer is asked for, an integer-valued float or numpy
integer is taken as an int and a fractional value is refused.  Python ints
taken as integers never pass through float(), and one too large for a float
parameter is refused, not an OverflowError.  Every refusal is a ValueError
that names the argument.
"""

import math
import numbers

import numpy as np


def number(value, what: str, *, integer: bool = False):
    """`value` as an int (with `integer`) or a float, or ValueError."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be {'an integer' if integer else 'numeric'}, got {value!r}")
    if integer and isinstance(value, (int, np.integer)):
        return int(value)
    try:
        val = float(value)
    except OverflowError:
        val = math.inf
    if integer and not val.is_integer():  # also false for nan and inf
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if not math.isfinite(val):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return int(val) if integer else val


def number_array(values, what: str, *, integer: bool = False) -> np.ndarray:
    """`number` for each entry of an array or sequence, in one vectorized pass.

    An ndarray is judged by its dtype and values.  A sequence is first
    searched for booleans, which numpy would turn into 0 and 1; strings and
    ints too large for numpy give dtypes that are refused.
    """
    arr = np.asarray(values)
    ok = arr.dtype.kind in "iuf" and (isinstance(values, np.ndarray) or not any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat))
    if ok and arr.dtype.kind == "f":  # finite, and castable to int64 where asked
        ok = np.isfinite(arr).all() and not (integer and (np.abs(arr) >= 2.0**63).any())
    out = arr.astype(int if integer else float) if ok else None
    if not ok or integer and not np.array_equal(out, arr):
        raise ValueError(f"{what} must be {'integers' if integer else 'finite numbers'}, "
                         f"got {values!r}")
    return out
