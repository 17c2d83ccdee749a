# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
"""Compiled scalar Kalman recursion.

Statement-for-statement twin of ``_filter_py.filter_kernel``; keep the two
in sync, including the order of arithmetic operations.  The compiled backend
has no loglik-only twin: ``_backend.bind_loglik`` runs this kernel into six
scratch arrays allocated once per series, so the QML objective gets the
loglik and err_index of ``_filter_py.filter_loglik`` bit for bit.
"""

from libc.math cimport log, isnan, M_PI

cdef double _LOG_2PI = log(2.0 * M_PI)

BACKEND = "cython"


def filter_kernel(
    const double[::1] y,
    double a,
    double b,
    double q0,
    double q1,
    double d,
    double c,
    double r2,
    double m0,
    double p0,
    double[::1] pred_mean,
    double[::1] pred_var,
    double[::1] filt_mean,
    double[::1] filt_var,
    double[::1] innov,
    double[::1] innov_var,
):
    """See ``_filter_py.filter_kernel`` for the contract."""
    cdef Py_ssize_t t_count = y.shape[0]
    cdef double ll = 0.0
    cdef double m = m0
    cdef double p = p0
    cdef double q, mp, pp, v, s, k
    cdef Py_ssize_t t
    for t in range(t_count):
        if t > 0:
            q = q0 + q1 * m
            mp = a * m + b
            pp = a * a * p + q
        else:
            mp = m0
            pp = p0
        v = y[t] - (d + c * mp)
        s = c * c * pp + r2
        if not (s > 0.0) or isnan(s):
            return float("nan"), t
        k = pp * c / s
        m = mp + k * v
        if m < 0.0:
            m = 0.0
        p = (1.0 - k * c) * pp
        pred_mean[t] = mp
        pred_var[t] = pp
        filt_mean[t] = m
        filt_var[t] = p
        innov[t] = v
        innov_var[t] = s
        ll += -0.5 * (_LOG_2PI + log(s) + v * v / s)
    return ll, -1
