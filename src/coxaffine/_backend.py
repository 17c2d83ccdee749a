"""The scalar Kalman recursion: the one filter kernel of the package.

``filter_kernel`` runs over a sequence of Python floats (``y.tolist()``),
where every step is plain float arithmetic.  The QML objective calls it
without ``steps`` for the loglik alone; ``kalman_filter`` passes a list to
collect the per-step quantities.  Both get the same loglik bits.  A compiled
twin would have to honour the same contract, operation order included.

The loglik of a pass over n observations, with innovations v_t and
innovation variances s_t, is

    loglik = -0.5 * (n log(2 pi) + log(prod_t s_t) + sum_t v_t^2 / s_t)

taken with one ``math.log`` per pass.  The product is kept as a float
``prod`` times 2**E with E an int: an s_t outside [2**-400, 2**400] is
multiplied in as its ``math.frexp`` mantissa, its exponent going to E, and
``prod`` is renormalised by ``math.frexp`` whenever it leaves that range.
So the product never overflows or underflows, and log(prod_t s_t) is
``log(prod) + E * ln 2``.
"""

import math

_LOG_2PI = math.log(2.0 * math.pi)
_LN2 = math.log(2.0)
_LO = 2.0**-400
_HI = 2.0**400

BACKEND = "python"


def filter_kernel(y, a, b, q0, q1, d, c, r2, m0, p0, steps=None):
    """One filtering pass of the linear state space

        state:       lam_t = a lam_{t-1} + b + w_t,  Var(w_t) = q0 + q1 * filtered_{t-1}
        measurement: y_t   = d + c lam_t + v_t,      Var(v_t) = r2

    with the filtered mean floored at zero (the state is an intensity).
    The first observation is filtered against the prior (m0, p0) directly.
    Returns (loglik, err_index); err_index is -1 on success or the first
    index where the innovation variance was not positive, and loglik is then
    NaN.  The loglik is -0.5 (n log 2pi + log prod s_t + sum v_t^2/s_t), with
    the product carried as a mantissa and a binary exponent (module
    docstring) and one ``math.log`` at the end.  When ``steps`` is a list,
    each completed step appends ``(predicted_mean, predicted_var,
    filtered_mean, filtered_var, innovation, innovation_var)`` to it.
    """
    frexp = math.frexp
    lo, hi = _LO, _HI
    aa = a * a
    cc = c * c
    prod, exp2, quad = 1.0, 0, 0.0
    mp, pp = m0, p0
    for t, yt in enumerate(y):
        v = yt - (d + c * mp)
        s = cc * pp + r2
        if lo <= s <= hi:
            prod *= s
        elif s > 0.0:
            f, e = frexp(s)
            prod *= f
            exp2 += e
        else:
            return math.nan, t
        k = pp * c / s
        m = mp + k * v
        if m < 0.0:
            m = 0.0
        p = (1.0 - k * c) * pp
        if steps is not None:
            steps.append((mp, pp, m, p, v, s))
        quad += v * v / s
        if prod > hi or prod < lo:
            prod, e = frexp(prod)
            exp2 += e
        mp = a * m + b
        pp = aa * p + (q0 + q1 * m)
    return -0.5 * (len(y) * _LOG_2PI + (math.log(prod) + exp2 * _LN2) + quad), -1


__all__ = ["filter_kernel", "BACKEND"]
