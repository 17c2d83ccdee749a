"""What the package takes in: one contract per rule.

``coxaffine._inputs`` owns the rules, and every type and function that
takes arrays or sizes follows them alike:

* an array field holds numbers only: strings, bools and objects raise
  ValueError naming the field; a writable array passed in is copied, so the
  caller's stays writable, and a read-only one of the right dtype is kept;
* a size is an integer, numpy's included, and not a bool: a fraction, a bool
  or a value below its least raises ValueError naming the argument.
"""

import numpy as np
import pytest

from coxaffine import (
    AffineModel,
    EventLog,
    FellerModel,
    ObservationSeries,
    PathSample,
    RngStream,
    StateSpaceSpec,
    distance_to_stationary,
    euler_affine_path,
    monte_carlo_pmf,
    pmf,
    replication_study,
    simulate_observations,
    simulate_path,
    to_observable,
)

MODEL = FellerModel(kappa=1.0, theta=1.0, sigma=0.5, lambda0=1.0)
DESK = FellerModel(kappa=0.2, theta=0.04, sigma=0.05, lambda0=0.04)

# each type with a valid set of array fields, and the dtype it holds them in
ARRAY_FIELDS = {
    EventLog: (
        {"timestamps_ms": np.array([1, 2], dtype=np.int64), "side": np.array([1, 2], dtype=np.int8)},
        {"timestamps_ms": np.int64, "side": np.int8},
    ),
    ObservationSeries: (
        {
            "interval_start_ms": np.array([0, 60_000], dtype=np.int64),
            "counts": np.array([3.0, 4.0]),
            "observable": np.array([0.5, 0.25]),
        },
        {"interval_start_ms": np.int64, "counts": float, "observable": float},
    ),
    PathSample: (
        {
            "grid": np.array([0.0, 1.0]),
            "intensity": np.array([1.0, 1.0]),
            "cum_hazard": np.array([0.0, 1.0]),
            "arrivals": np.array([0.5]),
        },
        dict.fromkeys(("grid", "intensity", "cum_hazard", "arrivals"), float),
    ),
    AffineModel: (
        {
            "kappa": np.array([[0.5]]),
            "theta": np.array([1.0]),
            "sigma_mat": np.array([[0.3]]),
            "a": np.array([0.0]),
            "b": np.array([[1.0]]),
            "rho1": np.array([1.0]),
        },
        dict.fromkeys(("kappa", "theta", "sigma_mat", "a", "b", "rho1"), float),
    ),
}
EXTRA = {AffineModel: {"dim": 1}}
CASES = [(cls, name) for cls, (_, dtypes) in ARRAY_FIELDS.items() for name in dtypes]


def build(cls, name, value):
    """``cls`` from its valid fields, with field ``name`` set to ``value``."""
    fields = {k: v.copy() for k, v in ARRAY_FIELDS[cls][0].items()}
    return cls(**EXTRA.get(cls, {}), **{**fields, name: value})


@pytest.mark.parametrize("cls, name", CASES, ids=[f"{c.__name__}.{n}" for c, n in CASES])
class TestArrayFields:
    def test_writable_array_is_copied(self, cls, name):
        given = ARRAY_FIELDS[cls][0][name].copy()
        held = getattr(build(cls, name, given), name)
        assert given.flags.writeable
        assert not held.flags.writeable
        assert not np.shares_memory(held, given)
        assert held.tobytes() == given.tobytes()

    def test_read_only_array_is_kept(self, cls, name):
        given = ARRAY_FIELDS[cls][0][name].copy()
        given.setflags(write=False)
        held = getattr(build(cls, name, given), name)
        assert np.shares_memory(held, given)

    def test_strings_and_bools_raise_naming_the_field(self, cls, name):
        good = ARRAY_FIELDS[cls][0][name]
        for bad in (good.astype(str), good.astype(str).tolist(), np.ones_like(good, dtype=bool),
                    np.ones_like(good, dtype=bool).tolist(), np.full(good.shape, None)):
            with pytest.raises(ValueError, match=rf"^{name} "):
                build(cls, name, bad)

    def test_nested_int_lists_and_arrays_are_numbers(self, cls, name):
        good = ARRAY_FIELDS[cls][0][name]
        dtype = ARRAY_FIELDS[cls][1][name]
        whole = np.floor(good).astype(np.int64)
        given_forms = [whole.tolist(), whole]
        if dtype is float:  # side codes are integers only
            given_forms += [good.tolist(), good.astype(np.float32)]
        for given in given_forms:
            held = getattr(build(cls, name, given), name)
            assert held.dtype == dtype and held.shape == good.shape
            assert held.tolist() == np.asarray(given, dtype=dtype).tolist()


def _series(M=6000):
    return ObservationSeries(interval_start_ms=[0, 60_000], counts=[3.0, 4.0], M=M)


def _affine(dim, rho0=0.0):
    return AffineModel(dim=dim, kappa=[[0.5]], theta=[1.0], sigma_mat=[[0.3]], a=[0.0], b=[[1.0]],
                       rho0=rho0)


def test_affine_rho0_is_a_number():
    for bad in ("0.1", True, None):
        with pytest.raises(ValueError, match="^rho0 "):
            _affine(1, rho0=bad)
    assert _affine(1, rho0=np.float32(0.5)).rho0 == 0.5
    assert type(_affine(1, rho0=1).rho0) is float


def size(where, name, call, valid, least, marks=()):
    """A size argument: the call taking its value, a valid value and the least one."""
    return pytest.param(name, call, valid, least, id=f"{where}.{name}", marks=marks)


SPEC = StateSpaceSpec()
SIZES = [
    size("ObservationSeries", "M", _series, 6000, 1),
    size("to_observable", "M", lambda v: to_observable(_series(), M=v), 6000, 1),
    size("simulate_observations", "n_obs",
         lambda v: simulate_observations(DESK, 1e-3, SPEC, v, RngStream(1)), 30, 1),
    size("replication_study", "n_reps", lambda v: replication_study(DESK, v, 20, RngStream(1)), 1, 1),
    size("replication_study", "jobs",
         lambda v: replication_study(DESK, 1, 20, RngStream(1), jobs=v), 1, 1),
    size("replication_study", "series_len",
         lambda v: replication_study(DESK, 1, v, RngStream(1)), 20, 20),
    size("AffineModel", "dim", _affine, 1, 1),
    size("pmf", "k_max", lambda v: pmf(MODEL, 1.0, v), 5, 0),
    size("monte_carlo_pmf", "k_max",
         lambda v: monte_carlo_pmf(MODEL, 1.0, 64, v, RngStream(1), n_steps=4), 5, 0),
    size("monte_carlo_pmf", "n_paths",
         lambda v: monte_carlo_pmf(MODEL, 1.0, v, 5, RngStream(1), n_steps=4), 64, 1),
    size("distance_to_stationary", "n_paths",
         lambda v: distance_to_stationary(MODEL, [1.0], v, RngStream(1)), 64, 1,
         marks=pytest.mark.filterwarnings("ignore:all distances within Monte Carlo noise")),
    size("simulate_path", "n_steps",
         lambda v: simulate_path(MODEL, 1.0, n_steps=v, rng=RngStream(1)), 4, 1),
    size("monte_carlo_pmf", "n_steps",
         lambda v: monte_carlo_pmf(MODEL, 1.0, 64, 5, RngStream(1), n_steps=v), 4, 1),
    size("euler_affine_path", "n_steps",
         lambda v: euler_affine_path(MODEL.as_affine(), 1.0, 1.0, v, RngStream(1)), 4, 1),
]


@pytest.mark.parametrize("name, call, valid, least", SIZES)
class TestSizes:
    def test_fraction_bool_and_below_least_raise_naming_the_argument(self, name, call, valid, least):
        # 0 is the least k_max, so -1 stands in for it there
        for bad in (2.5, True, min(0, least - 1), float(valid)):
            with pytest.raises(ValueError, match=rf"^{name} "):
                call(bad)

    def test_numpy_ints_are_sizes(self, name, call, valid, least):
        call(np.int64(valid))
        call(np.int32(least))
