"""Benchmark the filter passes: the full kernel of each backend and the
loglik-only pass that the QML objective runs.

Run:  python3 benchmarks/bench_filter.py

Every row must give the same loglik bits; the script stops if they differ.
"""

import time

import numpy as np

from coxaffine import FellerModel, RngStream, StateSpaceSpec
from coxaffine import estimate
from coxaffine import _filter_py

try:
    from coxaffine import _filter_core
except ImportError:
    _filter_core = None

MODEL = FellerModel(kappa=0.2, theta=0.04, sigma=0.05, lambda0=0.04)
SPEC = StateSpaceSpec()


def time_pass(run, n_calls):
    run()  # warm up
    t0 = time.perf_counter()
    for _ in range(n_calls):
        ll, err = run()
    dt = (time.perf_counter() - t0) / n_calls
    assert err < 0
    return dt, ll


def main():
    coeffs = estimate._filter_coeffs(MODEL.kappa, MODEL.theta, MODEL.sigma, 1e-3, SPEC)
    print(f"{'T':>6} {'pass':<16} {'time':>12} {'vs python full':>15}")
    for T, n_calls in ((500, 200), (5000, 40)):
        y = estimate.simulate_observations(MODEL, 1e-3, SPEC, T, RngStream(7))
        out = tuple(np.empty(T) for _ in range(6))
        ys = y.tolist()
        passes = [
            ("python full", lambda: _filter_py.filter_kernel(y, *coeffs, *out)),
            ("python loglik", lambda: _filter_py.filter_loglik(ys, *coeffs)),
        ]
        if _filter_core is not None:
            passes.append(("cython full", lambda: _filter_core.filter_kernel(y, *coeffs, *out)))
        base = None
        for name, run in passes:
            dt, ll = time_pass(run, n_calls)
            if base is None:
                base, ll_ref = dt, ll
            assert ll.hex() == ll_ref.hex(), f"{name} loglik differs from python full"
            print(f"{T:>6} {name:<16} {dt * 1e3:>10.3f}ms {base / dt:>14.1f}x")
    if _filter_core is None:
        print("compiled kernel unavailable; pure-Python passes only")


if __name__ == "__main__":
    main()
