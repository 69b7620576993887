"""Every public callable that takes a number, fed the edges of the float
range and values that are not floats.

Each call must end in one of two ways: a ``BusyCycleError``, or a result
whose every float is a finite Python float.  A bare ``OverflowError``,
``TypeError`` or ``ValueError``, a float32 result or a silent inf or nan
fails the test, and tier-1 turns RuntimeWarnings into errors.  The values
are fixed here, and hypothesis runs derandomized over their combinations.
"""

import dataclasses
import enum
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import busycycle as bc
from busycycle import errors
from busycycle.errors import BusyCycleError, DomainError

VALUES = (0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf,
          math.nan, np.float32(0.5), np.int64(3), True, False, 10**400,
          -10**400, "abc", None)

EXP = bc.exponential(1.0)
QUEUE = bc.QueueParameters(1.0, EXP)


def _exp_cdf(t):
    return -np.expm1(-np.maximum(t, 0.0))


# public name: (a call taking the fuzzed parameters by name, a valid value
# for each of them)
FUZZ = {
    "QueueParameters": (lambda arrival_rate: bc.QueueParameters(arrival_rate, EXP),
                        {"arrival_rate": 1.0}),
    "beta_c": (lambda **kw: bc.beta_c(QUEUE, **kw),
               {"strategy": "auto", "quad_tol": 1e-9}),
    "beta_quadrature": (lambda tol: bc.beta_quadrature(QUEUE, tol), {"tol": 1e-9}),
    "exp_series": (bc.exp_series, {"rho": 1.0}),
    "power_double_series": (bc.power_double_series,
                            {"arrival_rate": 1.0, "c": 2.0}),
    "sathe_interval": (bc.sathe_interval,
                       {"arrival_rate": 1.0, "mean_service": 1.0, "scv": 1.0}),
    "proposition1": (bc.proposition1, {"rho": 1.0, "scv": 1.0}),
    "gap_ratio": (bc.gap_ratio, {"lower": 1.0, "upper": 2.0, "reference": 1.5}),
    "build_report": (lambda reference: bc.build_report(QUEUE, reference),
                     {"reference": 2.0}),
    "exponential": (bc.exponential, {"mean": 1.0}),
    "deterministic": (bc.deterministic, {"mean": 1.0}),
    "special_a": (bc.special_a, {"arrival_rate": 1.0, "rho": 1.0}),
    "special_b": (bc.special_b, {"arrival_rate": 1.0, "rho": 1.0}),
    "power_function": (bc.power_function, {"c": 2.0}),
    "scale": (lambda factor: bc.scale(EXP, factor), {"factor": 2.0}),
    "make_distribution": (lambda **kw: bc.make_distribution(_exp_cdf, **kw),
                          {"mean": 1.0, "moment2": 2.0, "moment3": 6.0,
                           "support_end": math.inf}),
    # a spec value and the queue's arrival rate
    "from_spec": (lambda rho, arrival_rate: bc.from_spec(
        {"type": "special_b", "rho": rho}, arrival_rate),
        {"rho": 1.0, "arrival_rate": 1.0}),
    "residual_tail": (lambda t: bc.residual_tail(EXP, t), {"t": 1.0}),
    "integrated_tail": (lambda t: bc.integrated_tail(EXP, t), {"t": 1.0}),
    "time_average_age": (lambda z: bc.time_average_age([z, 1.0]), {"z": 2.0}),
    "estimate_beta_c": (lambda **kw: bc.estimate_beta_c(QUEUE, **kw),
                        {"n_cycles": 1000, "seed": 0, "replications": 1}),
}
# public callables with no numeric parameter: they take a queue or a name
NO_NUMBER = {"mean_cycle", "mean_busy_period", "class_lower_bound",
             "class_upper_bound", "uniform01"}
# records and an enum: the package's results, stored as given
RECORDS = {"BusyCycleMetrics", "BoundsReport", "SimulationEstimate",
           "ServiceDistribution", "Comparison"}


def _numeric(annotation) -> bool:
    return any(word in str(annotation) for word in ("float", "int"))


def test_every_public_numeric_callable_is_fuzzed():
    public = {name for name in bc.__all__ if callable(getattr(bc, name))
              and not (isinstance(getattr(bc, name), type)
                       and issubclass(getattr(bc, name), Exception))}
    assert public == set(FUZZ) | NO_NUMBER | RECORDS
    for name in public - RECORDS:
        numeric = {p.name for p in inspect.signature(getattr(bc, name)).parameters.values()
                   if _numeric(p.annotation)}
        assert numeric <= set(FUZZ.get(name, ({}, {}))[1]), (name, numeric)


def test_the_package_exports_every_error_class():
    exported = {name for name in bc.__all__ if isinstance(getattr(bc, name), type)
                and issubclass(getattr(bc, name), Exception)}
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, BusyCycleError)
               and value.__module__ == errors.__name__}
    assert "BusyCycleError" in defined
    assert exported == defined


def _check(result, where):
    """Every float ``result`` carries is a finite Python float."""
    if isinstance(result, (float, np.floating)):
        assert type(result) is float and math.isfinite(result), (where, result)
    elif isinstance(result, np.ndarray):
        assert result.dtype == np.float64 and np.all(np.isfinite(result)), where
    elif isinstance(result, (tuple, list)):
        for item in result:
            _check(item, where)
    elif isinstance(result, dict):
        for item in result.values():
            _check(item, where)
    elif dataclasses.is_dataclass(result):
        for f in dataclasses.fields(result):
            value = getattr(result, f.name)
            # an unbounded support ends at +inf by definition
            if not (f.name == "support_end" and value == math.inf):
                _check(value, (where, f.name))
    else:
        assert result is None or isinstance(result, (str, int, enum.Enum, frozenset)) \
            or callable(result), (where, result)


def _call(name, kwargs):
    call, _valid = FUZZ[name]
    try:
        result = call(**kwargs)
    except BusyCycleError:
        return
    _check(result, (name, kwargs))


@pytest.mark.parametrize("name", sorted(FUZZ))
def test_every_value_in_every_slot(name):
    # each value in each parameter, the others at a valid value
    valid = FUZZ[name][1]
    _call(name, valid)
    for key in valid:
        for value in VALUES:
            _call(name, {**valid, key: value})


@pytest.mark.parametrize("name", sorted(n for n in FUZZ if len(FUZZ[n][1]) > 1))
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_value_combinations(name, data):
    valid = FUZZ[name][1]
    _call(name, {key: data.draw(st.sampled_from(VALUES + (value,)), label=key)
                 for key, value in valid.items()})


class CdfError(Exception):
    """An error a user's cdf raises on its own."""


# cdf outputs that are not real numbers: each is a DomainError naming the
# law, never a bare ValueError or TypeError or a dropped imaginary part
UNREADABLE_CDFS = {
    "text": lambda t: np.full(np.shape(t), "x"),
    "numbers as text": lambda t: _exp_cdf(t).astype(str),
    "objects": lambda t: np.array([object() for _ in np.ravel(t)]),
    "complex": lambda t: _exp_cdf(t) + 1e-3j,
    "complex, zero imaginary part": lambda t: _exp_cdf(t).astype(complex),
    "complex objects": lambda t: np.array([complex(g) for g in _exp_cdf(t)],
                                          dtype=object),
}


@pytest.mark.parametrize("label", sorted(UNREADABLE_CDFS))
def test_cdf_outputs_that_are_not_real_numbers_are_domain_errors(label):
    with pytest.raises(DomainError, match="^probe: cdf returned .*not real"):
        bc.make_distribution(UNREADABLE_CDFS[label], mean=1.0, name="probe")
    # a cdf that turns unreadable after construction fails the same way in
    # the engines that call it
    broken = []

    def cdf(t):
        return UNREADABLE_CDFS[label](t) if broken else _exp_cdf(t)

    dist = bc.make_distribution(cdf, mean=1.0, name="probe")
    broken.append(True)
    for call in (lambda: dist.quantile_fn(np.array([0.3, 0.9])),
                 lambda: bc.residual_tail(dist, 0.5),
                 lambda: bc.estimate_beta_c(bc.QueueParameters(1.0, dist),
                                            1000, seed=1)):
        with pytest.raises(DomainError, match="^probe: cdf returned"):
            call()


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_cdf_outputs_narrower_than_float64_are_domain_errors(dtype):
    # a float32 cdf once ended in "quadrature did not converge within
    # 4096 panels", which did not name the cause
    with pytest.raises(DomainError, match=(
            rf"^probe: cdf returned {np.dtype(dtype).name} values, whose "
            r"resolution .* is coarser than the table tolerance 1e-13")):
        bc.make_distribution(lambda t: _exp_cdf(t).astype(dtype), mean=1.0,
                             name="probe")


def test_cdf_outputs_float_reads_keep_working():
    # numeric lists, object arrays of floats and ints give the float
    # cdf's law bit for bit; an error the cdf raises passes through
    want = bc.beta_c(bc.QueueParameters(1.0, bc.make_distribution(
        _exp_cdf, mean=1.0))).beta_c
    for cdf in (lambda t: _exp_cdf(t).tolist(),
                lambda t: _exp_cdf(t).astype(object)):
        got = bc.beta_c(bc.QueueParameters(1.0, bc.make_distribution(
            cdf, mean=1.0)))
        assert got.beta_c == want
    step = bc.make_distribution(lambda t: np.where(t >= 1.0, 1, 0), mean=1.0,
                                support_end=1.0)
    assert step.quantile_fn(np.array([0.5])).tolist() == [1.0]

    def raising(t):
        raise CdfError("the cdf's own error")

    with pytest.raises(CdfError, match="the cdf's own error"):
        bc.make_distribution(raising, mean=1.0)
