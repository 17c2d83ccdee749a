"""The rules for what the package takes in: numbers, sizes and arrays.

Each rule has one reader here, so a model, an event log, a series and a
simulated path check their input alike.  This module imports only numpy.
"""

import numpy as np


def is_real(value) -> bool:
    """An int or float, numpy scalars included, but not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_size(name: str, value, least: int = 1) -> None:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def frozen(name: str, values, dtype) -> np.ndarray:
    """``values`` as a read-only C-contiguous array of ``dtype``.

    Only int, unsigned and float input is taken: strings, bools and objects
    raise ValueError naming the field ``name``.  A writable array is copied,
    so the caller's stays writable; a read-only one that already fits, as
    the loader and ``aggregate`` pass, is kept.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold numbers, got dtype {arr.dtype}")
    if isinstance(values, np.ndarray) and values.flags.writeable:
        arr = np.array(values, dtype=dtype, order="C")
    else:
        arr = np.ascontiguousarray(arr, dtype=dtype)
    arr.setflags(write=False)
    return arr
