"""Monte Carlo engine: determinism, trivial laws, and oracle agreement."""

import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

import busycycle as bc
from busycycle.errors import DomainError
from busycycle.simulator import _rng_for, _simulate_batch


def _params_exp():
    return bc.QueueParameters(1.0, bc.exponential(1.0))


def test_single_cycle_is_reproducible_and_pinned():
    # value pinned after the first implementation run; Philox key (42, 0).
    # A batch of one draws idle, first service, then gap and service
    # uniforms in turn, the order a single cycle is drawn in.
    rng = Generator(Philox(key=np.array([42, 0], dtype=np.uint64)))
    (idle,), (busy,) = _simulate_batch(_params_exp(), 1, rng)
    assert idle == pytest.approx(1.715899855890263, rel=1e-15)
    assert busy == pytest.approx(0.20979013644443417, rel=1e-15)
    rng2 = Generator(Philox(key=np.array([42, 0], dtype=np.uint64)))
    (idle2,), (busy2,) = _simulate_batch(_params_exp(), 1, rng2)
    assert (idle2, busy2) == (idle, busy)


def test_single_cycle_zero_service():
    params = bc.QueueParameters(2.0, bc.deterministic(0.0))
    rng = _rng_for(5, 0)
    (idle,), (busy,) = _simulate_batch(params, 1, rng)
    assert busy == 0.0
    assert idle > 0.0


def test_single_customer_busy_period_equals_service():
    # tiny arrival rate: the first inter-arrival gap exceeds the service
    # almost surely, so the busy period is exactly one service long
    params = bc.QueueParameters(0.001, bc.deterministic(2.0))
    for rep in range(5):
        (idle,), (busy,) = _simulate_batch(params, 1, _rng_for(100 + rep, 0))
        assert busy == 2.0


def test_estimate_determinism_bit_identical():
    params = _params_exp()
    a = bc.estimate_beta_c(params, 50_000, seed=7, replications=2)
    b = bc.estimate_beta_c(params, 50_000, seed=7, replications=2)
    assert a == b
    c = bc.estimate_beta_c(params, 50_000, seed=8, replications=2)
    assert c.beta_c_hat != a.beta_c_hat


def test_estimate_structure_invariants():
    est = bc.estimate_beta_c(_params_exp(), 20_000, seed=3, replications=3)
    assert est.beta_c_hat == est.e_z2_hat / (2.0 * est.e_z_hat)
    lo, hi = est.ci95
    assert lo <= est.beta_c_hat <= hi
    assert hi - lo == pytest.approx(2.0 * 1.959963984540054 * est.std_error, rel=1e-12)
    assert est.n_cycles == 20_000
    assert est.replications == 3
    assert len(est.per_replication) == 3


def test_estimate_rejects_tiny_runs():
    with pytest.raises(DomainError):
        bc.estimate_beta_c(_params_exp(), 999, seed=1)
    with pytest.raises(DomainError):
        bc.estimate_beta_c(_params_exp(), 2000, seed=1, replications=0)
    with pytest.raises(DomainError):
        bc.estimate_beta_c(_params_exp(), 2000, seed=-3)
    with pytest.raises(DomainError):
        bc.estimate_beta_c(_params_exp(), 2000, seed=2**64)


def test_estimate_refuses_non_integer_counts_and_seeds():
    # seed=1.5 once ran seed 1's stream but reported 1.5, and seed=True ran
    # seed 1; fractional counts raised a bare TypeError
    for kwargs in ({"seed": 1.5}, {"seed": True}, {"seed": "1"},
                   {"replications": 1.5}, {"replications": True},
                   {"n_cycles": 2000.5}, {"n_cycles": True},
                   {"n_cycles": 2000.0}):
        args = {"n_cycles": 2000, "seed": 1, **kwargs}
        with pytest.raises(DomainError, match="must be an integer"):
            bc.estimate_beta_c(_params_exp(), **args)
    # numpy integers are integers
    est = bc.estimate_beta_c(_params_exp(), np.int64(1000), seed=np.uint64(3),
                             replications=np.int32(1))
    assert est.seed == 3
    assert est.beta_c_hat == bc.estimate_beta_c(_params_exp(), 1000, seed=3).beta_c_hat


def test_estimate_refuses_work_past_the_event_cap():
    # 1000 cycles at rho = 30 expect 1000 e^30 ~ 1e16 arrivals; the check
    # runs before any draw, so this returns at once
    params = bc.QueueParameters(1.0, bc.exponential(30.0))
    with pytest.raises(DomainError, match="arrivals expected"):
        bc.estimate_beta_c(params, 1000, seed=1)
    with pytest.raises(DomainError):
        bc.estimate_beta_c(_params_exp(), 10**9, seed=1)
    with pytest.raises(DomainError):
        bc.estimate_beta_c(bc.QueueParameters(1.0, bc.exponential(15.0)), 1000,
                           seed=1, replications=4)
    # counts whose product is too large for a float are refused, not an
    # OverflowError
    for n_cycles, replications in ((10**400, 1), (1000, 10**400)):
        with pytest.raises(DomainError):
            bc.estimate_beta_c(_params_exp(), n_cycles, seed=1,
                               replications=replications)


def test_zero_service_estimate_hits_idle_mean():
    # Z is exponential(lam): the age/excess mean is exactly 1/lam
    params = bc.QueueParameters(2.0, bc.deterministic(0.0))
    est = bc.estimate_beta_c(params, 100_000, seed=11)
    assert abs(est.beta_c_hat - 0.5) <= 4.0 * est.std_error


def test_oracle_agreement_spot():
    params = bc.QueueParameters(2.0, bc.exponential(0.5))
    analytic = bc.beta_c(params).beta_c
    est = bc.estimate_beta_c(params, 200_000, seed=2024)
    assert abs(est.beta_c_hat - analytic) <= max(3.0 * est.std_error, 0.005 * analytic)


def test_busy_and_idle_means_match_theory():
    params = bc.QueueParameters(1.0, bc.exponential(1.0))
    idle, busy = _simulate_batch(params, 200_000, _rng_for(31, 0))
    n = 200_000
    busy_mean = busy.sum() / n
    busy_se = math.sqrt(max((busy * busy).sum() / n - busy_mean**2, 0.0) / n)
    idle_mean = idle.sum() / n
    idle_se = math.sqrt(max((idle * idle).sum() / n - idle_mean**2, 0.0) / n)
    assert abs(busy_mean - bc.mean_busy_period(params)) <= 3.0 * busy_se
    assert abs(idle_mean - 1.0) <= 3.0 * idle_se


def test_time_average_age_examples():
    assert bc.time_average_age([2.0]) == 1.0            # triangle 2^2/2 over 2
    assert bc.time_average_age([1.0] * 9) == 0.5
    with pytest.raises(DomainError):
        bc.time_average_age([])
    with pytest.raises(DomainError):
        bc.time_average_age([1.0, -2.0])


def test_time_average_age_equals_ratio_estimator():
    rng = np.random.default_rng(5)
    z = rng.exponential(1.7, size=2000)
    assert bc.time_average_age(z) == pytest.approx(
        float((z * z).sum() / (2 * z.sum())), rel=1e-15
    )


def test_age_excess_symmetry_per_cycle():
    # elapsed-time integral int_0^Z t dt and remaining-time integral
    # int_0^Z (Z - t) dt are both Z^2/2, so the two estimators coincide
    rng = np.random.default_rng(9)
    z = rng.exponential(2.0, size=500)
    age = z * z / 2.0
    excess = z * z - z * z / 2.0
    assert np.array_equal(age, excess)
    assert bc.time_average_age(z) == pytest.approx(
        float(excess.sum() / z.sum()), rel=1e-15
    )


def test_replications_pool_by_ratio_of_sums():
    params = _params_exp()
    pooled = bc.estimate_beta_c(params, 20_000, seed=17, replications=2)
    singles = [bc.estimate_beta_c(params, 20_000, seed=17, replications=1)]
    # replication 1 alone is reachable through the same keying scheme
    from busycycle.simulator import _accumulate
    s0 = _accumulate(params, 20_000, 17, 0)
    s1 = _accumulate(params, 20_000, 17, 1)
    expected = (s0[1] + s1[1]) / (2.0 * (s0[0] + s1[0]))
    assert pooled.beta_c_hat == pytest.approx(expected, rel=1e-15)
    assert pooled.per_replication[0] == pytest.approx(
        singles[0].beta_c_hat, rel=1e-15
    )


def test_simulated_second_moment_matches_product_form():
    # E[Z^2] = 2 E[Z] beta_c for the constant-service member (frozen 3.7878424)
    params = bc.QueueParameters(1.0, bc.deterministic(0.5))
    analytic = bc.beta_c(params).z_second_moment
    assert analytic == pytest.approx(3.78784238621796, rel=1e-10)
    from busycycle.simulator import _accumulate
    n = 400_000
    sums = _accumulate(params, n, seed=77, replication=0)
    m2 = sums[1] / n
    m4 = sums[3] / n
    se = math.sqrt(max(m4 - m2 * m2, 0.0) / n)
    assert abs(m2 - analytic) <= 4.0 * se


def test_constant_service_estimate_hits_published_cell():
    # beta_c for constant service, mean 0.5 at unit arrival rate: 1.1487213
    params = bc.QueueParameters(1.0, bc.deterministic(0.5))
    est = bc.estimate_beta_c(params, 1_000_000, seed=404)
    target = 1.1487212707001282
    assert abs(est.beta_c_hat - target) <= max(3.0 * est.std_error, 0.005 * target)


def test_delta_method_error_tracks_observed_spread():
    # 24 independent replications: the reported SE should match the
    # empirical spread of the estimator within a loose factor
    params = bc.QueueParameters(2.0, bc.exponential(0.5))
    ests = [bc.estimate_beta_c(params, 20_000, seed=s) for s in range(24)]
    values = np.array([e.beta_c_hat for e in ests])
    typical_se = float(np.mean([e.std_error for e in ests]))
    observed = float(values.std(ddof=1))
    assert 0.4 * typical_se <= observed <= 2.5 * typical_se
