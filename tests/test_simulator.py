"""Monte Carlo engine: determinism, trivial laws, and oracle agreement."""

import dataclasses
import math
import os
import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.random import Generator, Philox

import busycycle as bc
from busycycle import simulator
from busycycle.errors import DomainError, RunawayCycleError
from busycycle.simulator import _accumulate, _cycle_lengths


def _params_exp():
    return bc.QueueParameters(1.0, bc.exponential(1.0))


def _substreams(seed, replication):
    """The gap and service generators of key (seed, replication), built
    from Philox alone: gaps from counter 0, services from its jumped()
    copy."""
    key = np.array([seed, replication], dtype=np.uint64)
    return Generator(Philox(key=key)), Generator(Philox(key=key).jumped())


@dataclasses.dataclass
class _Path:
    """What ``_scalar_path`` saw: the cycle lengths that ended in each
    chunk, and per cycle its busy period, idle period and arrivals."""
    chunks: list
    busy: list
    idle: list
    arrivals: list


def _scalar_path(params, n, seed, replication, chunk=None):
    """The first n cycles of one replication, one arrival at a time.

    Times start at 0.  Arrival i comes one gap after arrival i - 1 and
    stays one service; it starts a cycle when it comes after every
    departure so far (top), and a cycle lasts from one start to the next.
    The i-th gap and the i-th service are the i-th values of the key's two
    substreams.  They are drawn in chunks of
    min(chunk, ceil((m + 2 sqrt(m)) e^rho)) arrivals, m the cycles still
    needed; after a chunk in which a cycle started, the times are rebased
    on its last start.
    """
    chunk = simulator._CHUNK if chunk is None else chunk
    gap_rng, service_rng = _substreams(seed, replication)
    lam = params.arrival_rate
    quantile = params.service.quantile_fn
    per_cycle = math.exp(params.traffic_intensity)
    path = _Path([], [], [], [])
    t = top = 0.0
    start = None  # the time of the last start
    run = 0  # arrivals since then
    while len(path.busy) < n:
        m = n - len(path.busy)
        k = min(chunk, math.ceil((m + 2.0 * math.sqrt(m)) * per_cycle))
        gaps = -np.log1p(-gap_rng.random(k)) / lam
        services = np.asarray(quantile(service_rng.random(k)), dtype=float)
        ended = []
        started = False
        for gap, service in zip(gaps.tolist(), services.tolist()):
            t = t + gap
            if t > top:
                if start is not None:
                    ended.append(t - start)
                    path.busy.append(top - start)
                    path.idle.append(t - top)
                    path.arrivals.append(run)
                    if len(path.busy) == n:
                        break
                start, run, started = t, 0, True
            run += 1
            top = max(top, t + service)
        path.chunks.append(np.array(ended))
        if started:
            t, top, start = t - start, top - start, 0.0
    return path


def _sums(chunks):
    """The power sums of Z, Z^2, Z^3 and Z^4, added a chunk at a time."""
    sums = np.zeros(4)
    for z in chunks:
        z2 = z * z
        sums += [z.sum(), z2.sum(), (z * z2).sum(), (z2 * z2).sum()]
    return sums


# (seed, replication) keys at the edges of Philox's two 64-bit key words
EDGE_KEYS = [(0, 0), (42, 0), (9, 1), (2**64 - 1, 0), (2**64 - 1, 3),
             (12345, 2**63)]


@pytest.mark.parametrize("seed,replication", EDGE_KEYS)
def test_service_substream_starts_where_jumped_would(seed, replication):
    # the simulator sets the service stream's Philox counter to 2^128; the
    # reference reaches the same place through jumped()
    want = _substreams(seed, replication)[1].random(10_000)
    got = simulator._rng_for(seed, replication, simulator._SERVICES)
    assert np.array_equal(got.random(10_000), want)


def _same_state(a, b):
    """Whether two bit generator state dicts hold equal values, arrays of
    equal dtype included."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("counter", [None, simulator._SERVICES])
@pytest.mark.parametrize("seed,replication", EDGE_KEYS)
def test_keyed_substreams_are_those_of_philox_keyed_directly(seed, replication,
                                                             counter):
    # _rng_for builds the key from its two words, not through Philox's key
    # argument; the generator must be the one that argument gives
    key = np.array([seed, replication], dtype=np.uint64)
    want = Generator(Philox(key=key, counter=counter))
    got = simulator._rng_for(seed, replication, counter)
    assert _same_state(got.bit_generator.state, want.bit_generator.state)
    assert got.random(10_000).tobytes() == want.random(10_000).tobytes()


def test_single_cycle_is_reproducible_and_pinned():
    # Philox key (42, 0), followed by hand in scalar arithmetic.  Its gap
    # uniforms are 0.820, 0.189, 0.868, ... and its service uniforms
    # 0.976, 0.252, 0.274, ...: the first arrival, at 1.716, starts the
    # first cycle, and its service, 3.715, outlasts seven arrivals.  The
    # busy period ends 4.9175 after the start, after 8 services, and the
    # ninth arrival (gap uniform 0.877) comes 1.2202 later and starts the
    # second cycle.
    gap_rng, service_rng = _substreams(42, 0)
    start = -math.log1p(-gap_rng.random())
    end = start - math.log1p(-service_rng.random())
    arrival, services = start, 1
    while True:
        arrival += -math.log1p(-gap_rng.random())
        if arrival > end:
            break
        end = max(end, arrival - math.log1p(-service_rng.random()))
        services += 1
    assert services == 8
    assert start == pytest.approx(1.715899855890263, rel=1e-15)
    assert end - start == pytest.approx(4.917477744536273, rel=1e-13)
    assert arrival - end == pytest.approx(1.220213842692188, rel=1e-13)
    assert arrival - start == pytest.approx(6.137691587228461, rel=1e-15)

    z = _accumulate(_params_exp(), 1, 42, 0)
    assert z[0] == pytest.approx(6.137691587228461, rel=1e-15)
    assert z[1] == z[0] * z[0]
    assert np.array_equal(_accumulate(_params_exp(), 1, 42, 0), z)


def test_single_cycle_zero_service():
    # every arrival finds the system empty: a cycle is one gap, the time
    # from the first arrival to the second
    params = bc.QueueParameters(2.0, bc.deterministic(0.0))
    gaps = -np.log1p(-_substreams(5, 0)[0].random(2)) / 2.0
    (z,) = np.concatenate(list(_cycle_lengths(params, 1, 5, 0)))
    assert z == (gaps[0] + gaps[1]) - gaps[0]
    assert z == pytest.approx(gaps[1], rel=1e-15)
    assert z > 0.0


def test_single_customer_busy_period_equals_service():
    # tiny arrival rate: the second arrival comes after the first one's
    # service almost surely, so the busy period is exactly one service long
    # and the cycle is that service and the idle time after it
    params = bc.QueueParameters(0.001, bc.deterministic(2.0))
    for rep in range(5):
        gaps = -np.log1p(-_substreams(100 + rep, 0)[0].random(2)) / 0.001
        assert gaps[1] > 2.0
        (z,) = np.concatenate(list(_cycle_lengths(params, 1, 100 + rep, 0)))
        assert z == (gaps[0] + gaps[1]) - gaps[0]
        path = _scalar_path(params, 1, 100 + rep, 0)
        assert path.busy == [(gaps[0] + 2.0) - gaps[0]]
        assert path.arrivals == [1]


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
    path = _scalar_path(params, n, 31, 0)
    _same_chunks(_cycle_lengths(params, n, 31, 0), path, "exponential")
    busy, idle = np.array(path.busy), np.array(path.idle)
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


def test_time_average_age_of_subnormal_lengths():
    # Z^2 underflowed to 0, and 0.0 was returned
    assert bc.time_average_age([1e-320, 1e-320]) == 5e-321


def test_time_average_age_across_the_subnormal_boundary():
    # 0.0 was returned; the exact value is about 4.19e-310
    a, b = 3e-310, 1e-309
    exact = (Fraction(a) ** 2 + Fraction(b) ** 2) / (2 * (Fraction(a) + Fraction(b)))
    got = bc.time_average_age([a, b])
    assert abs(Fraction(got) - exact) <= math.ulp(float(exact))


def test_time_average_age_of_lengths_whose_squares_overflow():
    # Z^2 overflowed, and a DomainError was raised for a finite answer
    assert bc.time_average_age([1e200, 1e200]) == 5e199
    with pytest.raises(DomainError, match="finite and not all zero"):
        bc.time_average_age([math.inf, 1.0])


def test_estimate_at_a_tiny_rate_whose_pooled_fourth_power_sum_overflows():
    # E[Z^4] = 24 / lambda^4 = 2.4e305 is in range, but 1000 Z^4 pooled
    # overflowed and the run ended in the moments DomainError; as rho -> 0,
    # beta_c -> 1 / lambda
    est = bc.estimate_beta_c(bc.QueueParameters(1e-76, bc.uniform01()), 1000,
                             seed=3)
    values = (est.beta_c_hat, est.std_error, est.e_z_hat, est.e_z2_hat,
              *est.per_replication)
    assert all(math.isfinite(v) for v in values)
    assert abs(est.beta_c_hat - 1e76) <= 6.0 * est.std_error
    # just above the pre-draw refusal, a sampled E[Z^4] past the float
    # range is still the moments DomainError
    with pytest.raises(DomainError, match="leave the float range"):
        bc.estimate_beta_c(bc.QueueParameters(2e-77, bc.uniform01()), 1000,
                           seed=0)


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


def _same_chunks(got, path, label):
    """The simulator's chunks hold the scalar path's cycle lengths."""
    got = list(got)
    assert len(got) == len(path.chunks), label
    for z, want in zip(got, path.chunks):
        assert np.array_equal(z, want), label


STREAM_LAWS = [
    ("exponential", lambda: bc.QueueParameters(1.5, bc.exponential(2.0))),
    # a quantile that hands back its input: the simulator keeps the
    # services the quantile wrote over its own uniforms
    ("identity", lambda: bc.QueueParameters(0.7, dataclasses.replace(
        bc.uniform01(), quantile_fn=lambda u: u))),
]


def test_uniform_stream_serves_the_generator_sequence(monkeypatch):
    # the uniforms the quantile transforms, chunk after chunk, are the
    # jumped stream's in order, a chunk's worth at a time, with a small
    # chunk and at the default
    for chunk in (63, simulator._CHUNK):
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        for label, make in STREAM_LAWS:
            params = make()
            seen = []
            q = params.service.quantile_fn

            def quantile(u, q=q):
                seen.append(u.copy())
                return q(u)

            spied = bc.QueueParameters(params.arrival_rate, dataclasses.replace(
                params.service, quantile_fn=quantile))
            got = list(_cycle_lengths(spied, 500, 9, 1))
            path = _scalar_path(params, 500, 9, 1, chunk)
            _same_chunks(got, path, (label, chunk))
            assert len(seen) == len(path.chunks), (label, chunk)
            assert max(u.size for u in seen) <= chunk
            uniforms = np.concatenate(seen)
            want = _substreams(9, 1)[1].random(uniforms.size)
            assert np.array_equal(uniforms, want), (label, chunk)


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
    # A chunk's services are one quantile call.  Every chunk holds the
    # cycle lengths the scalar path computes one arrival at a time, at the
    # default chunk and with chunks of 64 arrivals, which carry cycles
    # across many boundaries; the quantile runs once a chunk, on as many
    # uniforms as the scalar path draws.
    for chunk in (simulator._CHUNK, 64):
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        params, calls = _counted(make())
        ref_params, ref_calls = _counted(make())
        for n in (1, 1000, 3000):
            for replication in range(2):
                path = _scalar_path(ref_params, n, 2024 + n, replication)
                _same_chunks(_cycle_lengths(params, n, 2024 + n, replication),
                             path, (label, chunk, n, replication))
        assert calls == ref_calls, label


def test_rounds_where_no_cycle_ends_keep_every_bit(monkeypatch):
    # at rho = 5 a busy period serves about 148 customers, so chunks of 64
    # arrivals often end no cycle and carry the cycle in progress on, in
    # the same frame, to the next; the default chunk too
    params = bc.QueueParameters(1.0, bc.exponential(5.0))
    for chunk in (simulator._CHUNK, 64):
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        for replication in range(2):
            path = _scalar_path(params, 300, 77, replication)
            _same_chunks(_cycle_lengths(params, 300, 77, replication), path,
                         (chunk, replication))
            quiet = sum(z.size == 0 for z in path.chunks)
            assert (quiet > 0) == (chunk == 64), (chunk, replication)


@pytest.mark.parametrize("label,make", [
    law for law in WINDOW_LAWS if law[0] in ("special_a", "user_weibull_half")])
def test_chunked_estimates_match_the_scalar_loop(label, make, monkeypatch):
    # whole estimates, per replication included, at the default chunk and
    # at chunks of 64 and 1 arrivals: the chunk size moves where the times
    # are rebased, and the sums are those of the scalar path at that size
    params = make()
    for chunk in (simulator._CHUNK, 64, 1):
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
        sums = [_sums(_scalar_path(params, 1000, 31, r, chunk).chunks)
                for r in range(2)]
        for replications in (1, 2):
            est = bc.estimate_beta_c(params, 1000, seed=31,
                                     replications=replications)
            total = sum(sums[:replications])
            n = 1000 * replications
            assert est.e_z_hat == float(total[0]) / n, (label, chunk)
            assert est.e_z2_hat == float(total[1]) / n, (label, chunk)
            assert est.per_replication == tuple(
                float(s[1] / (2.0 * s[0])) for s in sums[:replications])
        for r in range(2):
            assert np.array_equal(_accumulate(params, 1000, 31, r), sums[r])


def test_user_quantile_runs_on_little_more_than_the_services_used():
    # Weibull(1/2) at rho = 1: a run transforms the uniforms of the
    # chunks it draws, the scalar path uses the services of the arrivals
    # in its cycles.  When gaps and services shared their windows, each
    # window's quantile also ran on the uniforms that became gaps, about
    # 1.8 times the services.
    ratio_cap = 1.25
    make = lambda: bc.QueueParameters(2.0, bc.make_distribution(
        _weibull_half_cdf, mean=0.5))
    for n, replications in ((1000, 1), (1000, 2), (5000, 2)):
        params, drawn = _counted(make())
        bc.estimate_beta_c(params, n, seed=n + 1, replications=replications)
        used = sum(sum(_scalar_path(make(), n, n + 1, r).arrivals)
                   for r in range(replications))
        assert used > 2 * n * replications
        assert drawn[1] <= ratio_cap * used, (n, drawn[1], used)


def test_estimate_pools_the_batches_of_one_stream(monkeypatch):
    # chunks of 700 arrivals: 3000 cycles at rho = 1 span a dozen
    monkeypatch.setattr(simulator, "_CHUNK", 700)
    params = bc.QueueParameters(1.0, bc.exponential(1.0))
    est = bc.estimate_beta_c(params, 3000, seed=5, replications=2)
    want = []
    for r in range(2):
        path = _scalar_path(params, 3000, 5, r, 700)
        assert len(path.chunks) >= 12
        s = _sums(path.chunks)
        want.append(float(s[1] / (2.0 * s[0])))
    assert est.per_replication == tuple(want)


def test_runaway_rounds_raise_inside_a_quantile_window(monkeypatch):
    # a single cycle at rho = 3 serves about e^3 customers, all inside its
    # first chunk's quantile call; a cap of 3 arrivals stops it without a
    # huge run
    monkeypatch.setattr(simulator, "EVENT_CAP", 3)
    params = bc.QueueParameters(1.0, bc.exponential(3.0))
    with pytest.raises(RunawayCycleError):
        for seed in range(20):
            _accumulate(params, 1, seed, 0)


def test_runaway_busy_period_raises_inside_one_chunk(monkeypatch):
    # 40 cycles at rho = 3 fit one chunk; the cap is passed by the longest
    # busy period of the 40, in a chunk in which other cycles start
    params = bc.QueueParameters(1.0, bc.exponential(3.0))
    path = _scalar_path(params, 40, 12, 0)
    longest = max(path.arrivals)
    assert len(path.chunks) == 1 and len(path.chunks[0]) == 40
    assert 10 < longest < sum(path.arrivals) // 4
    monkeypatch.setattr(simulator, "EVENT_CAP", longest)
    _accumulate(params, 40, 12, 0)
    monkeypatch.setattr(simulator, "EVENT_CAP", longest - 1)
    with pytest.raises(RunawayCycleError, match="event cap"):
        _accumulate(params, 40, 12, 0)


def test_runaway_busy_period_raises_across_a_chunk_boundary(monkeypatch):
    # chunks of 40 arrivals at rho = 3: the cap is passed only by a busy
    # period that starts in one chunk and ends in the next, so each of the
    # two chunks starts a cycle and no chunk lies wholly inside the period
    monkeypatch.setattr(simulator, "_CHUNK", 40)
    params = bc.QueueParameters(1.0, bc.exponential(3.0))
    path = _scalar_path(params, 40, 15, 0, 40)
    longest = max(path.arrivals)
    assert path.arrivals.count(longest) == 1
    cycle = path.arrivals.index(longest)
    ended = np.cumsum([z.size for z in path.chunks])

    def chunk_where_ends(i):
        return int(np.searchsorted(ended, i, side="right"))

    # the cycle starts where the one before it ends
    assert cycle > 0
    assert chunk_where_ends(cycle) == chunk_where_ends(cycle - 1) + 1
    monkeypatch.setattr(simulator, "EVENT_CAP", longest)
    _accumulate(params, 40, 15, 0)
    monkeypatch.setattr(simulator, "EVENT_CAP", longest - 1)
    with pytest.raises(RunawayCycleError, match="event cap"):
        _accumulate(params, 40, 15, 0)


def test_a_busy_period_past_the_cap_raises_before_it_ends(monkeypatch):
    # at rho = 30 a busy period serves about 1e13 customers: the cap stops
    # the one in progress once it passes 1000 arrivals, in the 16th chunk
    # of 64, without waiting for its end
    monkeypatch.setattr(simulator, "_CHUNK", 64)
    monkeypatch.setattr(simulator, "EVENT_CAP", 1000)
    law = bc.deterministic(30.0)
    chunks = []

    def quantile(u):
        chunks.append(u.size)
        assert len(chunks) <= 100, "the cap did not stop the busy period"
        return law.quantile_fn(u)

    params = bc.QueueParameters(1.0, dataclasses.replace(
        law, quantile_fn=quantile))
    with pytest.raises(RunawayCycleError, match="event cap"):
        _accumulate(params, 2, 1, 0)
    assert len(chunks) == 16


def test_a_nan_service_is_a_domain_error():
    # a NaN departure is refused before the chunk's running maximum, which
    # np.fmax would take past it as if the service were not there
    law = bc.exponential(1.0)
    q = law.quantile_fn
    broken = dataclasses.replace(
        law, quantile_fn=lambda u: np.where(u > 0.999, np.nan, q(u)))
    with pytest.raises(DomainError, match="quantile returned NaN"):
        bc.estimate_beta_c(bc.QueueParameters(1.0, broken), 5000, seed=1)


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

    def spy(params, n_cycles, seed, replication, *scaling):
        names[replication] = threading.current_thread().name
        time.sleep(0.005)  # let a helper thread claim the next replication
        return accumulate(params, n_cycles, seed, replication, *scaling)

    monkeypatch.setattr(simulator, "_accumulate", spy)
    return names


@pytest.mark.parametrize("chunk", [None, 700])
@pytest.mark.parametrize("label,make", CONCURRENT_LAWS)
def test_concurrent_replications_keep_every_bit(label, make, chunk,
                                                monkeypatch):
    # 2000 cycles a replication: chunks of 700 arrivals carry the cycle in
    # progress across several chunk boundaries
    if chunk:
        monkeypatch.setattr(simulator, "_CHUNK", chunk)
    monkeypatch.setattr(simulator, "_THREADED_ARRIVALS", 0)
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


@pytest.mark.parametrize("label,make", [
    ("exponential", lambda: bc.exponential(0.5)),
    ("user_exponential", lambda: bc.make_distribution(
        lambda t: -np.expm1(-np.maximum(t, 0.0) / 0.5), mean=0.5))])
def test_seeded_estimates_read_no_os_entropy(label, make, monkeypatch):
    # a keyed Philox reads no entropy, yet Philox(key=...) once gathered
    # OS entropy for a SeedSequence it never used, two per replication.
    # numpy's SeedSequence() reaches the OS through secrets.randbits and
    # random._urandom, spied on here after numpy.random's import has
    # seeded its legacy RandomState.
    params = bc.QueueParameters(2.0, make())
    reads = []

    def urandom(n):
        reads.append(threading.current_thread().name)
        return os.urandom(n)

    monkeypatch.setattr(random, "_urandom", urandom)
    np.random.SeedSequence()
    assert len(reads) == 1, "the spy misses SeedSequence's entropy"
    reads.clear()
    bc.estimate_beta_c(params, 1000, seed=3)
    assert reads == [], label
    monkeypatch.setattr(simulator, "_THREADED_ARRIVALS", 0)
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)
    names = _threads_of(monkeypatch)
    bc.estimate_beta_c(params, 1000, seed=3, replications=2)
    assert set(names.values()) != {threading.main_thread().name}, label
    assert reads == [], label


def test_small_batches_keep_replications_on_the_calling_thread(monkeypatch):
    # threads are chosen by expected arrivals, n_cycles e^rho: the same
    # 4000 cycles are about 4200 arrivals at rho = 0.05 and 594 000 at 5
    names = _threads_of(monkeypatch)
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 2)
    assert 4000 * math.exp(0.05) < simulator._THREADED_ARRIVALS <= 4000 * math.exp(5.0)
    bc.estimate_beta_c(bc.QueueParameters(1.0, bc.exponential(0.05)), 4000,
                       seed=4, replications=2)
    assert set(names.values()) == {threading.main_thread().name}
    names.clear()
    bc.estimate_beta_c(bc.QueueParameters(1.0, bc.exponential(5.0)), 4000,
                       seed=4, replications=2)
    assert set(names.values()) != {threading.main_thread().name}


def test_concurrent_errors_match_the_serial_run_and_leave_no_thread(
        monkeypatch):
    monkeypatch.setattr(simulator, "_THREADED_ARRIVALS", 0)
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

    def failing(params, n_cycles, seed, replication, *scaling):
        if replication == 1:
            time.sleep(0.05)
        if replication in (1, 2):
            raise RunawayCycleError(f"replication {replication}")
        return accumulate(params, n_cycles, seed, replication, *scaling)

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
    monkeypatch.setattr(simulator, "_THREADED_ARRIVALS", 0)
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
    monkeypatch.setattr(simulator, "_THREADED_ARRIVALS", 0)
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: 8)
    names = _threads_of(monkeypatch)
    bc.estimate_beta_c(_params_exp(), 1000, seed=2, replications=8)
    assert len(set(names.values())) <= simulator._MAX_WORKERS == 2


def test_a_replication_works_in_about_four_arrays_of_its_cycles():
    # a replication works in a few arrays of one chunk, so the peak is
    # under the bounds a loop over all its cycles at once would need (about
    # 7 arrays of n floats), and four times the cycles peak no higher
    for rho, bound in ((1.0, 4.0), (5.0, 6.5)):
        params = bc.QueueParameters(1.0, bc.exponential(rho))
        simulator._accumulate(params, 1000, 8, 0)
        peaks = {}
        for n in (1 << 17, 1 << 19):
            tracemalloc.start()
            try:
                simulator._accumulate(params, n, 8, 0)
                _, peaks[n] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        n = 1 << 17
        assert peaks[n] <= bound * 8 * n, (rho, peaks[n] / (8 * n))
        assert peaks[1 << 19] <= peaks[n], (rho, peaks)


def test_each_replication_runs_once_under_thread_switching(monkeypatch):
    # more threads than cores and a tiny switch interval: a replication
    # claimed twice or never would move the bits or the count
    monkeypatch.setattr(simulator, "_THREADED_ARRIVALS", 0)
    runs = []
    accumulate = simulator._accumulate

    def counted(params, n_cycles, seed, replication, *scaling):
        runs.append(replication)
        return accumulate(params, n_cycles, seed, replication, *scaling)

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
