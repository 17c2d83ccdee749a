"""Filter kernel selection.

The compiled kernel is used when the extension imports; otherwise the
pure-Python reference kernel runs instead.  Both produce identical numbers.

``bind_loglik(y)`` binds one observation series, held in the form the kernel
runs fastest on, and returns ``loglik(a, b, q0, q1, d, c, r2, m0, p0)`` ->
``(loglik, err_index)`` with the bits of a full ``filter_kernel`` pass.  The
pure-Python backend runs the loglik-only ``filter_loglik`` over ``y.tolist()``;
the compiled backend runs ``filter_kernel`` into six scratch arrays allocated
once per series.
"""

import numpy as np

try:
    from ._filter_core import BACKEND, filter_kernel
except ImportError:
    from ._filter_py import BACKEND, filter_kernel

if BACKEND == "python":
    from ._filter_py import filter_loglik

    def bind_loglik(y):
        ys = np.asarray(y, dtype=float).tolist()
        return lambda *coeffs: filter_loglik(ys, *coeffs)

else:

    def bind_loglik(y):
        y = np.ascontiguousarray(y, dtype=float)
        scratch = tuple(np.empty(y.shape[0]) for _ in range(6))
        return lambda *coeffs: filter_kernel(y, *coeffs, *scratch)


__all__ = ["filter_kernel", "bind_loglik", "BACKEND"]
