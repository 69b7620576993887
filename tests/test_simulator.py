"""Monte Carlo engine: determinism, trivial laws, and oracle agreement."""

import dataclasses
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator, Philox

import busycycle as bc
from busycycle import simulator
from busycycle.errors import DomainError, RunawayCycleError
from busycycle.simulator import _Draws, _batches, _rng_for, _simulate_batch


def _params_exp():
    return bc.QueueParameters(1.0, bc.exponential(1.0))


def _idle(seed, replication, n, lam):
    """The idle periods a batch of n cycles starts its stream with."""
    return -np.log1p(-_rng_for(seed, replication).random(n)) / lam


def _substreams(seed, replication):
    """The gap and service generators of key (seed, replication), built
    from Philox alone: gaps from counter 0, services from its jumped()
    copy."""
    key = np.array([seed, replication], dtype=np.uint64)
    return Generator(Philox(key=key)), Generator(Philox(key=key).jumped())


def test_single_cycle_is_reproducible_and_pinned():
    # Philox key (42, 0).  A batch of one draws its idle period and then
    # its gaps from the key's stream, its services from the jumped stream;
    # the recursion below follows one cycle by hand in scalar arithmetic.
    # Its gap uniforms are 0.820, 0.189, 0.868, ... and its service
    # uniforms 0.976, 0.252, 0.274, ...: the first service, 3.715, outlasts
    # seven arrivals, and the busy period ends at 4.9175 after 8 services.
    gap_rng, service_rng = _substreams(42, 0)
    idle = -math.log1p(-gap_rng.random())
    end = -math.log1p(-service_rng.random())
    arrival, services = 0.0, 1
    while True:
        arrival += -math.log1p(-gap_rng.random())
        if arrival >= end:
            break
        end = max(end, arrival - math.log1p(-service_rng.random()))
        services += 1
    assert services == 8
    assert idle == pytest.approx(1.715899855890263, rel=1e-15)
    assert end == pytest.approx(4.917477744536273, rel=1e-13)

    (z,) = _simulate_batch(_Draws(_params_exp(), _rng_for(42, 0)), 1)
    (idle_drawn,) = _idle(42, 0, 1, 1.0)
    assert idle_drawn == pytest.approx(idle, rel=1e-15)
    assert z - idle_drawn == pytest.approx(4.917477744536273, rel=1e-13)
    assert z == pytest.approx(1.715899855890263 + 4.917477744536273,
                              rel=1e-15)
    (z2,) = _simulate_batch(_Draws(_params_exp(), _rng_for(42, 0)), 1)
    assert z2 == z


def test_single_cycle_zero_service():
    params = bc.QueueParameters(2.0, bc.deterministic(0.0))
    rng = _rng_for(5, 0)
    (z,) = _simulate_batch(_Draws(params, rng), 1)
    assert z == _idle(5, 0, 1, 2.0)[0]  # no busy time
    assert z > 0.0


def test_single_customer_busy_period_equals_service():
    # tiny arrival rate: the first inter-arrival gap exceeds the service
    # almost surely, so the busy period is exactly one service long
    params = bc.QueueParameters(0.001, bc.deterministic(2.0))
    for rep in range(5):
        draws = _Draws(params, _rng_for(100 + rep, 0))
        (z,) = _simulate_batch(draws, 1)
        assert z == _idle(100 + rep, 0, 1, 0.001)[0] + 2.0


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
    n = 200_000
    z = _simulate_batch(_Draws(params, _rng_for(31, 0)), n)
    idle, busy = _reference_batch(params, n, *_substreams(31, 0))
    assert np.array_equal(z, idle + busy)
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


def _reference_batch(params, n, gap_rng, service_rng, quiet=None):
    """The round loop with no uniforms drawn ahead: every gap straight
    from ``gap_rng`` and every service from ``service_rng``, one quantile
    call per round.  ``quiet``, a one-element list, counts the rounds in
    which no cycle ends."""
    lam = params.arrival_rate
    q = params.service.quantile_fn
    idle = -np.log1p(-gap_rng.random(n)) / lam
    end = np.asarray(q(service_rng.random(n)), dtype=float).copy()
    arrival = np.zeros(n)
    active = np.arange(n)
    while active.size:
        arrival[active] += -np.log1p(-gap_rng.random(active.size)) / lam
        m = active.size
        active = active[arrival[active] < end[active]]
        if quiet is not None and active.size == m:
            quiet[0] += 1
        if active.size:
            svc = np.asarray(q(service_rng.random(active.size)), dtype=float)
            end[active] = np.maximum(end[active], arrival[active] + svc)
    return idle, end


def _reference_batches(params, n_cycles, seed, replication, quiet=None):
    rngs = _substreams(seed, replication)
    out = []
    for first in range(0, n_cycles, simulator.BATCH):
        out.append(_reference_batch(
            params, min(simulator.BATCH, n_cycles - first), *rngs, quiet))
    return out


def _counted(params):
    """params with a quantile that counts its calls, and the counts: of
    calls, then of the uniforms they transformed."""
    calls = [0, 0]
    q = params.service.quantile_fn

    def quantile(u):
        calls[0] += 1
        calls[1] += np.size(u)
        return q(u)

    service = dataclasses.replace(params.service, quantile_fn=quantile)
    return bc.QueueParameters(params.arrival_rate, service), calls


def _script(t):
    """Requests of a stream whose window rule takes at most t draws: under,
    at and over t, some served from a window's rest though over t, some
    turning a window over with a remainder, and larger ones taking the
    window's leftover straight from the generator."""
    return [("gaps", 3), ("services", t), ("gaps", t), ("services", t + 1),
            ("gaps", 1), ("services", 2), ("gaps", 7 * t), ("services", 0),
            ("gaps", t // 2), ("services", 2 * t + 3), ("gaps", t),
            ("services", t), ("gaps", t), ("services", t - 1), ("gaps", 5),
            ("services", 3 * t), ("gaps", t), ("services", 1),
            ("gaps", 2 * t), ("services", t), ("gaps", t), ("services", 7)]


STREAM_LAWS = [
    ("exponential", lambda: bc.QueueParameters(1.5, bc.exponential(2.0))),
    # a quantile that hands back its input: the stream keeps the services
    # the quantile wrote over its own uniforms
    ("identity", lambda: bc.QueueParameters(0.7, dataclasses.replace(
        bc.uniform01(), quantile_fn=lambda u: u))),
]


def test_uniform_stream_serves_the_generator_sequence(monkeypatch):
    # the draw object's gaps, in the order asked for, are the transforms
    # of the key's uniforms in order, and its services those of the
    # jumped stream's, with a small block and window and at their defaults
    for block, window in ((63, 16), (simulator._BLOCK, simulator._WINDOW)):
        monkeypatch.setattr(simulator, "_BLOCK", block)
        monkeypatch.setattr(simulator, "_WINDOW", window)
        for label, make in STREAM_LAWS:
            params = make()
            draws = _Draws(params, _rng_for(9, 1))
            served = {"gaps": [], "services": []}
            for kind, n in _script(block // (simulator._AHEAD + 1)):
                values = getattr(draws, kind)(n)
                assert values.shape == (n,), (kind, n)
                served[kind].append(values.copy())
                values[:] = -1.0  # the caller may overwrite what it got
            gap_rng, service_rng = _substreams(9, 1)
            gaps = np.concatenate(served["gaps"])
            want = -np.log1p(-gap_rng.random(gaps.size)) / params.arrival_rate
            assert np.array_equal(gaps, want), (label, block)
            services = np.concatenate(served["services"])
            q = params.service.quantile_fn
            want = np.asarray(q(service_rng.random(services.size)),
                              dtype=float)
            assert np.array_equal(services, want), (label, block)


def _weibull_half_cdf(t):
    return -np.expm1(-np.sqrt(np.maximum(t, 0.0) / 0.25))


WINDOW_LAWS = [
    ("exponential", lambda: bc.QueueParameters(1.0, bc.exponential(1.0))),
    ("deterministic0", lambda: bc.QueueParameters(2.0, bc.deterministic(0.0))),
    ("deterministic2", lambda: bc.QueueParameters(0.5, bc.deterministic(2.0))),
    ("special_a", lambda: bc.QueueParameters(1.0, bc.special_a(1.0, 1.5))),
    ("power_c25", lambda: bc.QueueParameters(1.4, bc.power_function(2.5))),
    ("user_power_c05", lambda: bc.QueueParameters(3.0, bc.make_distribution(
        lambda t: np.clip(t, 0.0, 1.0) ** 0.5, mean=1.0 / 3.0,
        support_end=1.0))),
    ("user_weibull_half", lambda: bc.QueueParameters(1.0, bc.make_distribution(
        _weibull_half_cdf, mean=0.5))),
]


@pytest.mark.parametrize("label,make", WINDOW_LAWS)
def test_quantile_windows_draw_what_the_round_loop_draws(label, make,
                                                         monkeypatch):
    # 700-cycle batches: 1000 and 3000 cycles span 2 and 5 batches, and the
    # uniforms drawn ahead carry from each batch into the next.  With a
    # block of 64, rounds of more than 9 services take the direct path and
    # windows of at most 64 uniforms turn over every few rounds.
    monkeypatch.setattr(simulator, "BATCH", 700)
    for block, window in ((simulator._BLOCK, simulator._WINDOW), (64, 16)):
        monkeypatch.setattr(simulator, "_BLOCK", block)
        monkeypatch.setattr(simulator, "_WINDOW", window)
        params, calls = _counted(make())
        ref_params, ref_calls = _counted(make())
        for n in (1, 1000, 3000):
            for replication in range(2):
                got = list(_batches(params, n, 2024 + n, replication))
                want = _reference_batches(ref_params, n, 2024 + n,
                                          replication)
                assert len(got) == len(want) == -(-n // 700), (label, n)
                for z, (ref_idle, ref_busy) in zip(got, want):
                    assert np.array_equal(z, ref_idle + ref_busy), (
                        label, block, n, replication)
        if block == 64:
            continue
        assert calls[0] <= ref_calls[0], label
        if label != "deterministic0":  # zero services end every cycle at once
            assert calls[0] < ref_calls[0] / 2, (label, calls[0], ref_calls[0])


def test_rounds_where_no_cycle_ends_keep_every_bit(monkeypatch):
    # at rho = 5 many rounds end no busy period, and the round loop skips
    # their compaction; 3000 cycles span 5 batches of 700, at the default
    # block and window and at a block of 64 with windows of 16
    monkeypatch.setattr(simulator, "BATCH", 700)
    params = bc.QueueParameters(1.0, bc.exponential(5.0))
    for block, window in ((simulator._BLOCK, simulator._WINDOW), (64, 16)):
        monkeypatch.setattr(simulator, "_BLOCK", block)
        monkeypatch.setattr(simulator, "_WINDOW", window)
        for replication in range(2):
            quiet = [0]
            got = list(_batches(params, 3000, 77, replication))
            want = _reference_batches(params, 3000, 77, replication, quiet)
            assert len(got) == len(want) == 5
            for z, (idle, busy) in zip(got, want):
                assert np.array_equal(z, idle + busy), (block, replication)
            assert quiet[0] > 0, (block, replication)


WINDOW_SIZES = [
    # (_BLOCK, _WINDOW, _AHEAD): the defaults, tiny windows, windows as
    # long as their request, and no window at all (every request direct)
    (simulator._BLOCK, simulator._WINDOW, simulator._AHEAD),
    (64, 16, 1),
    (64, 1, 0),
    (0, simulator._WINDOW, simulator._AHEAD),
]


@pytest.mark.parametrize("label,make", [
    law for law in WINDOW_LAWS if law[0] in ("special_a", "user_weibull_half")])
def test_window_sizes_move_no_bit_of_an_estimate(label, make, monkeypatch):
    # 2000 cycles in batches of 700 carry each stream's window across
    # batches; the estimate is compared whole, per replication included
    monkeypatch.setattr(simulator, "BATCH", 700)
    params = make()
    got = {}
    for sizes in WINDOW_SIZES:
        for name, value in zip(("_BLOCK", "_WINDOW", "_AHEAD"), sizes):
            monkeypatch.setattr(simulator, name, value)
        for replications in (1, 2):
            got[sizes, replications] = bc.estimate_beta_c(
                params, 2000, seed=31, replications=replications)
    for (sizes, replications), est in got.items():
        assert est == got[WINDOW_SIZES[0], replications], (
            label, sizes, replications)


def test_user_quantile_runs_on_little_more_than_the_services_used():
    # Weibull(1/2) at rho = 1: a run transforms the uniforms of the
    # windows it opens, the round loop only the services it uses.  When
    # gaps and services shared their windows, each window's quantile also
    # ran on the uniforms that became gaps, about 1.8 times the services.
    ratio_cap = 1.25
    make = lambda: bc.QueueParameters(2.0, bc.make_distribution(
        _weibull_half_cdf, mean=0.5))
    for n, replications in ((1000, 1), (1000, 2), (5000, 2)):
        params, drawn = _counted(make())
        bc.estimate_beta_c(params, n, seed=n + 1, replications=replications)
        ref_params, used = _counted(make())
        for r in range(replications):
            _reference_batches(ref_params, n, n + 1, r)
        assert used[1] > 2 * n * replications
        assert drawn[1] <= ratio_cap * used[1], (n, drawn[1], used[1])


def test_estimate_pools_the_batches_of_one_stream(monkeypatch):
    monkeypatch.setattr(simulator, "BATCH", 700)
    params = bc.QueueParameters(1.0, bc.exponential(1.0))
    est = bc.estimate_beta_c(params, 3000, seed=5, replications=2)
    want = []
    for r in range(2):
        s1 = s2 = 0.0
        for idle, busy in _reference_batches(params, 3000, 5, r):
            z = idle + busy
            s1 += z.sum()
            s2 += (z * z).sum()
        want.append(float(s2 / (2.0 * s1)))
    assert est.per_replication == tuple(want)


def test_runaway_rounds_raise_inside_a_quantile_window(monkeypatch):
    # a single cycle at rho = 3 runs about e^3 rounds, each of one service,
    # all inside windows; a cap of 3 rounds stops it without a huge run
    monkeypatch.setattr(simulator, "EVENT_CAP", 3)
    params = bc.QueueParameters(1.0, bc.exponential(3.0))
    with pytest.raises(RunawayCycleError):
        for seed in range(20):
            _simulate_batch(_Draws(params, _rng_for(seed, 0)), 1)


CONCURRENT_LAWS = [
    ("exponential", lambda: bc.QueueParameters(1.0, bc.exponential(1.0))),
    ("deterministic", lambda: bc.QueueParameters(0.5, bc.deterministic(2.0))),
    ("user_weibull_half", lambda: bc.QueueParameters(1.0, bc.make_distribution(
        _weibull_half_cdf, mean=0.5))),
]


def _threads_of(monkeypatch):
    """Names of the threads each replication's ``_accumulate`` ran on."""
    names = {}
    accumulate = simulator._accumulate

    def spy(params, n_cycles, seed, replication):
        names[replication] = threading.current_thread().name
        time.sleep(0.005)  # let a helper thread claim the next replication
        return accumulate(params, n_cycles, seed, replication)

    monkeypatch.setattr(simulator, "_accumulate", spy)
    return names


@pytest.mark.parametrize("batch", [None, 700])
@pytest.mark.parametrize("label,make", CONCURRENT_LAWS)
def test_concurrent_replications_keep_every_bit(label, make, batch,
                                                monkeypatch):
    # 2000 cycles a replication: batches of 700 carry the uniforms drawn
    # ahead across three batches; the user law's small rounds take their
    # services from quantile windows
    if batch:
        monkeypatch.setattr(simulator, "BATCH", batch)
    monkeypatch.setattr(simulator, "_THREADED_CYCLES", 0)
    names = _threads_of(monkeypatch)
    params = make()
    for replications in (2, 3, 4):
        got = {}
        for cpus in (1, 2):
            monkeypatch.setattr(simulator, "_usable_cpus", lambda c=cpus: c)
            names.clear()
            got[cpus] = bc.estimate_beta_c(params, 2000, seed=99,
                                           replications=replications)
            assert sorted(names) == list(range(replications))
            helped = set(names.values()) != {threading.main_thread().name}
            assert helped == (cpus == 2), (label, cpus, names)
        assert got[1] == got[2], (label, replications)
        singles = [simulator._accumulate(params, 2000, 99, r)
                   for r in range(replications)]
        assert got[2].per_replication == tuple(
            float(s[1] / (2.0 * s[0])) for s in singles)


def test_small_batches_keep_replications_on_the_calling_thread(monkeypatch):
    names = _threads_of(monkeypatch)
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)
    bc.estimate_beta_c(_params_exp(), simulator._THREADED_CYCLES - 1, seed=4,
                       replications=2)
    assert set(names.values()) == {threading.main_thread().name}
    names.clear()
    bc.estimate_beta_c(_params_exp(), simulator._THREADED_CYCLES, seed=4,
                       replications=2)
    assert set(names.values()) != {threading.main_thread().name}


def test_concurrent_errors_match_the_serial_run_and_leave_no_thread(
        monkeypatch):
    monkeypatch.setattr(simulator, "_THREADED_CYCLES", 0)
    monkeypatch.setattr(simulator, "EVENT_CAP", 3)
    params = bc.QueueParameters(1.0, bc.exponential(3.0))
    before = threading.active_count()
    errors = {}
    for cpus in (1, 2):
        monkeypatch.setattr(simulator, "_usable_cpus", lambda c=cpus: c)
        # estimate_beta_c refuses a cap of 3 before any draw, so this calls
        # the replication runner beneath it
        with pytest.raises(RunawayCycleError) as info:
            simulator._replication_sums(params, 1000, 1, 4)
        errors[cpus] = str(info.value)
        assert threading.active_count() == before
    assert errors[1] == errors[2]

    # replication 2 fails at once and replication 1 later: the error raised
    # is replication 1's, as when they run one at a time
    accumulate = simulator._accumulate

    def failing(params, n_cycles, seed, replication):
        if replication == 1:
            time.sleep(0.05)
        if replication in (1, 2):
            raise RunawayCycleError(f"replication {replication}")
        return accumulate(params, n_cycles, seed, replication)

    monkeypatch.setattr(simulator, "_accumulate", failing)
    monkeypatch.setattr(simulator, "EVENT_CAP", 10**9)
    for cpus in (1, 2):
        monkeypatch.setattr(simulator, "_usable_cpus", lambda c=cpus: c)
        with pytest.raises(RunawayCycleError, match="replication 1"):
            bc.estimate_beta_c(_params_exp(), 1000, seed=1, replications=4)
        assert threading.active_count() == before
    monkeypatch.setattr(simulator, "_accumulate", accumulate)
    bc.estimate_beta_c(_params_exp(), 1000, seed=1, replications=4)
    assert threading.active_count() == before


def test_a_helper_paused_around_its_claim_still_runs_what_it_claims(
        monkeypatch):
    # a helper that loses the interpreter in its check for an error, while
    # the calling thread runs out of replications and sets the stop flag,
    # must still run every replication it claims
    monkeypatch.setattr(simulator, "_THREADED_CYCLES", 0)
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)
    serial = [simulator._accumulate(_params_exp(), 1000, 3, r)
              for r in range(3)]

    class PausingEvent(threading.Event):
        def is_set(self):
            if threading.current_thread().name.startswith("busycycle-sim"):
                time.sleep(0.05)
            return super().is_set()

    before = threading.active_count()
    monkeypatch.setattr(simulator.threading, "Event", PausingEvent)
    got = simulator._replication_sums(_params_exp(), 1000, 3, 3)
    monkeypatch.undo()
    assert threading.active_count() == before
    assert [s.tobytes() for s in got] == [s.tobytes() for s in serial]


def test_replications_run_on_at_most_two_threads(monkeypatch):
    monkeypatch.setattr(simulator, "_THREADED_CYCLES", 0)
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 8)
    names = _threads_of(monkeypatch)
    bc.estimate_beta_c(_params_exp(), 1000, seed=2, replications=8)
    assert len(set(names.values())) <= simulator._MAX_WORKERS == 2


def test_a_replication_works_in_about_four_arrays_of_its_cycles():
    # the idle times become Z in place and only the active cycles' index,
    # arrival and end are kept; a loop over full-length arrays keeps about
    # 7 arrays of n floats.  More cycles are still busy at the first
    # arrival at rho = 5, and its large rounds' services are drawn whole.
    n = 1 << 17
    for rho, bound in ((1.0, 4.0), (5.0, 6.5)):
        params = bc.QueueParameters(1.0, bc.exponential(rho))
        simulator._accumulate(params, 1000, 8, 0)
        tracemalloc.start()
        try:
            simulator._accumulate(params, n, 8, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * n, (rho, peak / (8 * n))


def test_each_replication_runs_once_under_thread_switching(monkeypatch):
    # more threads than cores and a tiny switch interval: a replication
    # claimed twice or never would move the bits or the count
    monkeypatch.setattr(simulator, "_THREADED_CYCLES", 0)
    runs = []
    accumulate = simulator._accumulate

    def counted(params, n_cycles, seed, replication):
        runs.append(replication)
        return accumulate(params, n_cycles, seed, replication)

    monkeypatch.setattr(simulator, "_accumulate", counted)
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 1)
    serial = bc.estimate_beta_c(_params_exp(), 1000, seed=6, replications=16)
    runs.clear()
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(simulator, "_MAX_WORKERS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        concurrent = bc.estimate_beta_c(_params_exp(), 1000, seed=6,
                                        replications=16)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(runs) == list(range(16))
    assert concurrent == serial
