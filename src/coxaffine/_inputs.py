"""The rules for what the package takes in: numbers, sizes, choices, flags, arrays.

Each rule has one reader here, so a model, an event log, a series and a
simulated path check their input alike.  This module imports only numpy.
"""

import numpy as np


def is_real(value) -> bool:
    """An int or float, numpy scalars included, but not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_real(name: str, value, least=None, above=None) -> None:
    """A horizon, rate, step or tolerance: a finite number (``is_real``, not
    called for a float), at least ``least`` or above ``above``, else ValueError."""
    if not (type(value) is float or is_real(value)) or not -np.inf < value < np.inf or (
        least is not None and value < least or above is not None and value <= above
    ):
        bound = f" >= {least}" if least is not None else f" > {above}" if above is not None else ""
        raise ValueError(f"{name} must be a finite number{bound}, got {value!r}")


def check_size(name: str, value, least: int = 1) -> None:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_choice(name: str, value, choices: tuple) -> None:
    """A mapping or start: one of the strings ``choices``, else ValueError."""
    if not (isinstance(value, str) and value in choices):
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def check_flag(name: str, value) -> None:
    """A switch: True or False, else ValueError; 0 and 1 are not flags."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")


def frozen(name: str, values, dtype) -> np.ndarray:
    """``values`` as a read-only C-contiguous array of ``dtype``.

    Only int, unsigned and float input is taken: strings, bools and objects
    raise ValueError naming the field ``name``, as do a list that holds a
    bool among its numbers and a fraction bound for an integer ``dtype``.  A
    writable array is copied, so the caller's stays writable; a read-only one
    that already fits, as the loader and ``aggregate`` pass, is kept.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf" or isinstance(values, (list, tuple)) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat
    ):
        raise ValueError(f"{name} must hold numbers, not bools, strings or objects")
    if arr.dtype.kind == "f" and np.dtype(dtype).kind in "iu":
        whole = np.isfinite(arr) & (np.floor(arr) == arr)
        if not whole.all():
            i = int(np.argmin(whole))
            raise ValueError(f"{name} must hold whole numbers, got {arr.flat[i]} at index {i}")
    if isinstance(values, np.ndarray) and values.flags.writeable:
        arr = np.array(values, dtype=dtype, order="C")
    else:
        arr = np.ascontiguousarray(arr, dtype=dtype)
    arr.setflags(write=False)
    return arr
