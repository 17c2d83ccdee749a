"""What the package takes in: one contract per rule.

``coxaffine._inputs`` owns the rules, and every type and function that
takes arrays or sizes follows them alike:

* an array field holds numbers only: strings, bools and objects raise
  ValueError naming the field; a writable array passed in is copied, so the
  caller's stays writable, and a read-only one of the right dtype is kept;
* a size is an integer, numpy's included, and not a bool: a fraction, a bool
  or a value below its least raises ValueError naming the argument;
* a horizon, rate, step or tolerance is a finite number, numpy's included,
  and not a bool or a string: NaN, an infinity, a bool, a numeric string or a
  value past its bound (>= 0 or > 0) raises ValueError naming the argument;
* a start state ``x0`` is such a number, >= 0, for a square-root model and
  an array field of ``dim`` finite entries for an affine one;
  ``TransformCoeffs.laplace`` owns the finite rule and sets no sign.
"""

import math

import numpy as np
import pytest

from coxaffine import (
    AffineModel,
    EventLog,
    FellerModel,
    FitOptions,
    GammaLaw,
    Jet,
    NegBinLaw,
    ObservationSeries,
    PathSample,
    RngStream,
    StateSpaceSpec,
    aggregate,
    cir_transform_closed_form,
    default_n_steps,
    distance_to_stationary,
    euler_affine_path,
    fit,
    hazard_moments,
    kalman_filter,
    mean_count,
    monte_carlo_pmf,
    pmf,
    prob_no_arrival,
    replication_study,
    sample_cir_transition,
    simulate_observations,
    simulate_path,
    solve_transform_ode,
    stationary_count,
    to_observable,
)
from coxaffine.data_io import _config_value

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


def test_a_bool_among_numbers_raises_naming_the_field():
    for bool_ in (True, np.True_):
        with pytest.raises(ValueError, match="^theta "):
            AffineModel(dim=2, kappa=np.eye(2), theta=[1.0, bool_], sigma_mat=np.eye(2),
                        a=[0.0, 0.0], b=np.eye(2))
        with pytest.raises(ValueError, match="^kappa "):
            AffineModel(dim=2, kappa=[[1.0, 0.0], (bool_, 1.0)], theta=[1.0, 1.0],
                        sigma_mat=np.eye(2), a=[0.0, 0.0], b=np.eye(2))
        with pytest.raises(ValueError, match="^timestamps_ms "):
            EventLog(timestamps_ms=[1, bool_])
    held = AffineModel(dim=2, kappa=np.eye(2), theta=[1, 2.5], sigma_mat=np.eye(2),
                       a=[0.0, 0.0], b=np.eye(2)).theta
    assert held.dtype == float and held.tolist() == [1.0, 2.5]


def test_an_integer_field_takes_only_whole_floats():
    for bad, at in (([1.7, 2.2], "1.7 at index 0"), ([1.0, 2.5], "2.5 at index 1"),
                    ([1.0, np.nan], "nan at index 1"), ([np.inf], "inf at index 0")):
        with pytest.raises(ValueError, match=rf"^timestamps_ms must hold whole numbers, got {at}"):
            EventLog(timestamps_ms=np.array(bad))
        with pytest.raises(ValueError, match="^interval_start_ms "):
            ObservationSeries(interval_start_ms=bad, counts=np.ones(len(bad)))
    held = EventLog(timestamps_ms=np.array([-3e12, 1.0, 2.0])).timestamps_ms
    assert held.dtype == np.int64 and held.tolist() == [-3_000_000_000_000, 1, 2]


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


def test_an_affine_start_state_is_a_vector_of_finite_numbers():
    two = AffineModel(dim=2, kappa=np.eye(2), theta=[1.0, 0.5], sigma_mat=0.3 * np.eye(2),
                      a=[0.0, 0.0], b=np.eye(2))
    for bad in ([1.0], [1.0, 0.5, 0.2], [[1.0, 0.5]], [1.0, math.nan], [math.inf, 0.5]):
        with pytest.raises(ValueError, match="^x0 must be a vector of 2 finite numbers"):
            prob_no_arrival(two, 1.0, x0=bad)
    for bad in (["1", "0.5"], [1.0, True], "1"):
        with pytest.raises(ValueError, match="^x0 must hold numbers"):
            pmf(two, 1.0, 3, x0=bad)
    at_theta = prob_no_arrival(two, 1.0)
    for good in ([1.0, 0.5], np.array([1.0, 0.5]), (1, np.float32(0.5))):
        assert prob_no_arrival(two, 1.0, x0=good) == at_theta


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
    size("FitOptions", "n_restarts", lambda v: FitOptions(n_restarts=v), 5, 0),
    size("FitOptions", "maxiter", lambda v: FitOptions(maxiter=v), 2000, 1),
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


def scalar(where, name, call, least=None, above=None, marks=()):
    """A scalar argument: the call taking its value and its bound, closed
    (``least``) or open (``above``), if it has one.  1 is a valid value of
    every argument."""
    return pytest.param(name, call, least, above, id=f"{where}.{name}", marks=marks)


def _feller(name):
    return lambda v: FellerModel(**{**{"kappa": 1.0, "theta": 1.0, "sigma": 0.5, "lambda0": 1.0},
                                    name: v})


QUIET_DISTANCE = pytest.mark.filterwarnings("ignore:all distances within Monte Carlo noise")
IN_SESSION = EventLog(timestamps_ms=[37_800_000])  # 10:30 on the first day
Y = np.linspace(-0.01, -0.02, 20)
SCALARS = [
    *(scalar("FellerModel", name, _feller(name), above=0) for name in ("kappa", "theta", "sigma")),
    scalar("FellerModel", "lambda0", _feller("lambda0"), least=0),
    scalar("AffineModel", "rho0", lambda v: _affine(1, rho0=v)),
    scalar("cir_transform_closed_form", "horizon",
           lambda v: cir_transform_closed_form(MODEL, 1.0, v), least=0),
    scalar("cir_transform_closed_form", "mu",
           lambda v: cir_transform_closed_form(MODEL, v, 1.0), least=0),
    scalar("solve_transform_ode", "horizon", lambda v: solve_transform_ode(MODEL, 1.0, v), least=0),
    scalar("solve_transform_ode", "mu", lambda v: solve_transform_ode(MODEL, v, 1.0)),
    scalar("solve_transform_ode", "tol", lambda v: solve_transform_ode(MODEL, 1.0, 1.0, tol=v),
           above=0),
    scalar("simulate_path", "horizon",
           lambda v: simulate_path(MODEL, v, n_steps=4, rng=RngStream(1)), least=0),
    scalar("monte_carlo_pmf", "horizon",
           lambda v: monte_carlo_pmf(MODEL, v, 64, 5, RngStream(1), n_steps=4), least=0),
    scalar("euler_affine_path", "horizon",
           lambda v: euler_affine_path(MODEL.as_affine(), 1.0, v, 4, RngStream(1)), least=0),
    scalar("default_n_steps", "horizon", lambda v: default_n_steps(MODEL, v), least=0),
    scalar("prob_no_arrival", "x0", lambda v: prob_no_arrival(MODEL, 1.0, x0=v), least=0),
    scalar("pmf", "x0", lambda v: pmf(MODEL, 1.0, 5, x0=v), least=0),
    scalar("hazard_moments", "t", lambda v: hazard_moments(MODEL, v), least=0),
    scalar("mean_count", "t", lambda v: mean_count(MODEL, v), least=0),
    scalar("GammaLaw", "shape", lambda v: GammaLaw(v, 1.0), above=0),
    scalar("GammaLaw", "rate", lambda v: GammaLaw(1.0, v), above=0),
    scalar("NegBinLaw", "size", lambda v: NegBinLaw(v, 0.5), above=0),
    scalar("stationary_count", "window", lambda v: stationary_count(MODEL, v), above=0),
    scalar("distance_to_stationary", "t_grid",
           lambda v: distance_to_stationary(MODEL, [0.0, v], 64, RngStream(1)), least=0,
           marks=QUIET_DISTANCE),
    scalar("sample_cir_transition", "dt",
           lambda v: sample_cir_transition(MODEL, 1.0, v, RngStream(1)), above=0),
    scalar("StateSpaceSpec", "delta", lambda v: StateSpaceSpec(delta=v), above=0),
    scalar("StateSpaceSpec", "window", lambda v: StateSpaceSpec(window=v), above=0),
    scalar("kalman_filter", "R", lambda v: kalman_filter(DESK, v, Y), least=0),
    scalar("simulate_observations", "R",
           lambda v: simulate_observations(DESK, v, SPEC, 30, RngStream(1)), least=0),
    scalar("fit", "R_init",
           lambda v: fit(Y, R_init=v, options=FitOptions(n_restarts=0, maxiter=5)), least=0),
    scalar("ObservationSeries", "interval_seconds",
           lambda v: ObservationSeries(interval_start_ms=[0], counts=[1.0], interval_seconds=v),
           above=0),
    scalar("aggregate", "interval", lambda v: aggregate(IN_SESSION, interval=v), above=0),
    scalar("PipelineConfig", "interval_seconds",
           lambda v: _config_value("interval_seconds", v), above=0),
]


@pytest.mark.parametrize("name, call, least, above", SCALARS)
class TestScalars:
    def test_non_finite_bool_string_and_past_bound_raise_naming_the_argument(
        self, name, call, least, above
    ):
        bad = [math.nan, math.inf, -math.inf, True, "1"]
        if least is not None:
            bad.append(math.nextafter(least, -math.inf))
        if above is not None:
            bad.append(above)
        for value in bad:
            # a grid's time is named with its index, as t_grid[1]
            with pytest.raises(ValueError, match=rf"^{name}(\[1\])? must be a finite number"):
                call(value)

    def test_numpy_floats_and_ints_are_numbers(self, name, call, least, above):
        for value in (np.float32(1.0), np.float64(1.0), 1, np.int64(1)):
            call(value)


def test_a_jet_mu_is_read_by_its_value():
    for value in (math.nan, math.inf, -1e-300):
        with pytest.raises(ValueError, match="^mu must be a finite number"):
            cir_transform_closed_form(MODEL, Jet.variable(value, 2), 1.0)
    for value in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="^mu must be a finite number"):
            solve_transform_ode(MODEL, Jet.variable(value, 2), 1.0)


def test_each_time_of_the_grid_is_named_by_its_index():
    with pytest.raises(ValueError, match=r"^t_grid\[2\] must be a finite number >= 0, got -1.0"):
        distance_to_stationary(MODEL, [0.0, 1.0, -1.0], 64, RngStream(1))


def test_a_float32_model_runs_the_filter_in_double_precision():
    model = FellerModel(*np.float32([0.2, 0.04, 0.05, 0.04]))
    assert all(type(getattr(model, name)) is float for name in ("kappa", "theta", "sigma", "lambda0"))
    out = kalman_filter(model, np.float32(1e-3), Y)  # warnings are errors in this suite
    assert out.loglik == kalman_filter(FellerModel(*np.float32([0.2, 0.04, 0.05, 0.04]).tolist()),
                                       float(np.float32(1e-3)), Y).loglik
