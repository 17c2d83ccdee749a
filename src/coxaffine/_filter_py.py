"""Pure-Python scalar Kalman recursion (reference kernel).

Mirrors the compiled kernel in ``_filter_core.pyx`` statement for statement;
keep the two in sync, including the order of arithmetic operations.
``filter_loglik`` is the loglik-only twin of ``filter_kernel`` that the QML
objective runs: the same statements in the same order, with the per-step
stores left out, so its loglik and err_index equal the full pass bit for bit.
"""

import math

_LOG_2PI = math.log(2.0 * math.pi)

BACKEND = "python"


def filter_kernel(
    y,
    a,
    b,
    q0,
    q1,
    d,
    c,
    r2,
    m0,
    p0,
    pred_mean,
    pred_var,
    filt_mean,
    filt_var,
    innov,
    innov_var,
):
    """One filtering pass of the linear state space

        state:       lam_t = a lam_{t-1} + b + w_t,  Var(w_t) = q0 + q1 * filtered_{t-1}
        measurement: y_t   = d + c lam_t + v_t,      Var(v_t) = r2

    with the filtered mean floored at zero (the state is an intensity).
    The first observation is filtered against the prior (m0, p0) directly.
    Fills the six output arrays and returns (loglik, err_index); err_index
    is -1 on success or the first index where the innovation variance was
    not positive.
    """
    t_count = len(y)
    ll = 0.0
    m = m0
    p = p0
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
        if not (s > 0.0) or s != s:
            return math.nan, t
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
        ll += -0.5 * (_LOG_2PI + math.log(s) + v * v / s)
    return ll, -1


def filter_loglik(y, a, b, q0, q1, d, c, r2, m0, p0):
    """``filter_kernel`` without the six output arrays: returns only
    (loglik, err_index), bitwise equal to the full pass on the same inputs.

    Fastest over a list of Python floats (``y.tolist()``), where every step is
    plain float arithmetic; any sequence of floats gives the same bits.
    """
    log = math.log
    ll = 0.0
    m = m0
    p = p0
    for t, yt in enumerate(y):
        if t > 0:
            q = q0 + q1 * m
            mp = a * m + b
            pp = a * a * p + q
        else:
            mp = m0
            pp = p0
        v = yt - (d + c * mp)
        s = c * c * pp + r2
        if not (s > 0.0) or s != s:
            return math.nan, t
        k = pp * c / s
        m = mp + k * v
        if m < 0.0:
            m = 0.0
        p = (1.0 - k * c) * pp
        ll += -0.5 * (_LOG_2PI + log(s) + v * v / s)
    return ll, -1
