"""The scalar Kalman recursion: the one filter kernel of the package.

``filter_kernel`` runs over a sequence of Python floats (``y.tolist()``),
where every step is plain float arithmetic.  The QML objective calls it
without ``steps`` for the loglik alone; ``kalman_filter`` passes a list to
collect the per-step quantities.  Both get the same loglik bits.  A compiled
twin would have to honour the same contract, operation order included.
"""

import math

_LOG_2PI = math.log(2.0 * math.pi)

BACKEND = "python"


def filter_kernel(y, a, b, q0, q1, d, c, r2, m0, p0, steps=None):
    """One filtering pass of the linear state space

        state:       lam_t = a lam_{t-1} + b + w_t,  Var(w_t) = q0 + q1 * filtered_{t-1}
        measurement: y_t   = d + c lam_t + v_t,      Var(v_t) = r2

    with the filtered mean floored at zero (the state is an intensity).
    The first observation is filtered against the prior (m0, p0) directly.
    Returns (loglik, err_index); err_index is -1 on success or the first
    index where the innovation variance was not positive, and loglik is then
    NaN.  When ``steps`` is a list, each completed step appends
    ``(predicted_mean, predicted_var, filtered_mean, filtered_var,
    innovation, innovation_var)`` to it.
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
        if steps is not None:
            steps.append((mp, pp, m, p, v, s))
        ll += -0.5 * (_LOG_2PI + log(s) + v * v / s)
    return ll, -1


__all__ = ["filter_kernel", "BACKEND"]
