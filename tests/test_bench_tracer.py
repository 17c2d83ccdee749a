"""The benchmark tracer still installs over the package.

``perfbench/tracer.py`` patches the package by name: every function in a
layer's ``__all__``, ``_backend.filter_kernel`` and the arithmetic methods of
``Jet`` (``log`` among them, which only tests call).  Deleting or renaming
one of those names breaks every traced benchmark run, and the benchmark's
own tests are not part of this suite, so this test installs the tracer, runs
a small pmf and filter pass under it, and checks what they record.
"""

import importlib
from pathlib import Path

import numpy as np

from coxaffine import FellerModel, cox_dist, estimate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_records_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    run = tracer.Tracer(run_id=1)
    run.install()
    try:
        model = FellerModel(kappa=1.0, theta=1.0, sigma=0.5, lambda0=1.0)
        cox_dist.pmf(model, 1.0, k_max=10)
        estimate.kalman_filter(model, 0.1, np.full(30, -0.5))
    finally:
        run.uninstall()
    names = [s.name for s in run.spans]
    assert {"cox_dist.pmf", "estimate.kalman_filter", "estimate.filter_kernel"} <= set(names)
    assert all(s.ok and s.run_id == 1 for s in run.spans)
    assert run.counts["jets.ops"] > 0
    for fn in (cox_dist.pmf, estimate.kalman_filter, estimate.filter_kernel):
        assert not hasattr(fn, "__wrapped__"), fn.__name__
