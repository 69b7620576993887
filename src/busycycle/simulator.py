"""Monte Carlo oracle for busy-cycle statistics.

With infinitely many servers customers never queue, so one time-ordered
sample path of the M/G/inf queue holds every busy cycle.  Arrival i comes
at a_i and leaves at a_i + S_i, and the system stays busy up to the running
maximum M_i = max(M_(i-1), a_i + S_i) of the departures so far.  Arrival i
starts a busy cycle when it finds the system empty, a_i > M_(i-1).  A cycle
runs from one start to the next: its busy period M - a_start, then its idle
period a_next - M.  Busy then idle has the law of idle then busy, so the
cycle lengths Z are those of the paper.  A replication runs one path and
keeps its first n cycles.

The path is drawn in chunks of k arrivals: k gaps and k services, the
arrival times by a cumulative sum, the departures' running maximum by
``np.fmax.accumulate`` and the cycle starts by one comparison, with no
Python loop per arrival or per cycle.  A chunk holds the expected arrivals
of the cycles still needed and a margin, k = min(_CHUNK,
ceil((m + 2 sqrt(m)) e^rho)) for m cycles (a busy period serves e^rho
customers on average).  A cycle in progress carries two values into the
next chunk, the last arrival time and M, both rebased on the chunk's last
cycle start, so times stay within the span of a chunk and the cycle in
progress.  Each Z is the difference of two starts' times in the frame of
the chunk where the later start lies, and the power sums add one chunk's
cycles at a time.

Randomness comes from the counter-based Philox generator.  Replication r of
a run seeded with s uses key (s, r), and each kind of draw has its own
substream of that key: the gaps are the inverse transforms of the
generator's uniforms from counter 0, and the services those of its
uniforms from counter 2^128 (``_SERVICES``, word 2 of Philox's 256-bit
counter set to 1), the stream its ``jumped()`` copy would give.  Arrival
i takes the i-th value of each kind whatever the chunks.  A result's bits
are fixed by the key, the two transforms and the chunk rule, which places
the rebasing and groups the sums; the rounding of a Z from chunk-relative
times, about 1e-16 of that span, is far below its sampling error.  Results
are bit-identical across runs and do not depend on execution parallelism.

A replication holds a few arrays of one chunk's floats, whatever its number
of cycles.  Replications run concurrently, one thread per usable CPU and at
most ``_MAX_WORKERS``, once they are long enough for their array work to
outweigh the interpreter's share (see ``_THREADED_ARRIVALS``).  Each
replication owns its streams and its sums are pooled in replication order,
so a concurrent run gives the same bits as a run one at a time.  A service
law's quantile, and so a user's cdf, may then be called from two threads at
once.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .distributions import QueueParameters, _floats
from .errors import DomainError, RunawayCycleError

__all__ = [
    "SimulationEstimate",
    "estimate_beta_c",
    "time_average_age",
]

# hard cap on the arrivals of one busy period and on the expected arrivals
# of one estimate; termination is a.s. anyway
EVENT_CAP = 10**9
Z95 = 1.959963984540054  # two-sided 95% normal quantile
# Most arrivals of a chunk (see the module docstring); with the chunk rule
# part of the fixed draw order.  A replication's working set is a few
# arrays of this many floats.
_CHUNK = 1 << 16
# Fewest expected arrivals per replication, n_cycles e^rho, for which
# replications run on threads.  A helper thread costs 0.1-0.25 ms.  Two
# replications of the exponential law at rho = 1 and 3 (2-core Xeon, 40
# interleaved pairs each) ran on threads in a median 1.17 times the serial
# time at 10 900 arrivals each, 0.89 times at 21 700 and 0.70-0.79 times
# from 40 000 to 87 000.
_THREADED_ARRIVALS = 20_000
# The Philox counter where a replication's service substream starts,
# 2^128 (word 2 of the 256-bit counter is 1), where jumped() would put it;
# its gaps start at counter 0.
_SERVICES = (0, 0, 1, 0)
# Most replications run at once.  Each holds its own chunk's arrays; only
# two threads, on 2 CPUs, have been measured.
_MAX_WORKERS = 2


@dataclass(frozen=True)
class SimulationEstimate:
    """Point estimate of the cycle age/excess mean with its uncertainty.

    beta_c_hat = e_z2_hat / (2 e_z_hat) holds exactly by construction (ratio
    of pooled sums, never a mean of per-cycle ratios); std_error comes from
    the delta method applied to the joint moments of (Z, Z^2).
    """

    beta_c_hat: float
    e_z_hat: float
    e_z2_hat: float
    std_error: float
    ci95: tuple
    n_cycles: int
    seed: int
    replications: int
    per_replication: tuple  # per-replication beta_c_hat values


def _integer(value, name: str) -> int:
    """``value`` as an int, or DomainError for a bool or a non-integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _rng_for(seed: int, replication: int, counter=None) -> Generator:
    """Counter-based stream: replication r of seed s uses Philox key (s, r),
    from ``counter`` on (from 0 by default)."""
    if not (0 <= seed < 2**64):
        raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed}")
    key = np.array([seed, replication], dtype=np.uint64)
    return Generator(Philox(key=key, counter=counter))


def _chunk_size(cycles: int, per_cycle: float) -> int:
    """Arrivals drawn for the next ``cycles`` cycles: their expected
    arrivals and those of 2 sqrt(cycles) more, so that one chunk usually
    ends them all, at most ``_CHUNK``."""
    return min(_CHUNK, math.ceil((cycles + 2.0 * math.sqrt(cycles))
                                 * per_cycle))


def _cycle_lengths(params: QueueParameters, n_cycles: int, seed: int,
                   replication: int):
    """The first n_cycles cycle lengths of one replication's sample path,
    an array per chunk (see the module docstring).

    RunawayCycleError when one of these cycles' busy periods has more than
    EVENT_CAP arrivals, raised once the period in progress passes the cap,
    wherever the chunk boundaries fall.
    """
    lam = params.arrival_rate
    quantile = params.service.quantile_fn
    per_cycle = math.exp(params.traffic_intensity)  # arrivals, on average
    gap_rng = _rng_for(seed, replication)
    service_rng = _rng_for(seed, replication, _SERVICES)
    last = top = 0.0  # the last arrival and M, in the current frame
    started = False   # a cycle is in progress, started at 0 in the frame
    run = 0           # arrivals since the last start
    left = n_cycles
    # buffers reused by every chunk, sized for the first: chunks only
    # shrink.  With fresh arrays each chunk, a replication of 4043 cycles
    # at rho = 5 took 3168 minor page faults; with these, 256.
    k = _chunk_size(left, per_cycle)
    gaps, uniforms, empty = np.empty(k), np.empty(k), np.empty(k, dtype=bool)
    while left:
        k = _chunk_size(left, per_cycle)
        a = gap_rng.random(out=gaps[:k])  # the gaps, then the arrival times
        np.negative(a, out=a)
        np.log1p(a, out=a)
        a /= -lam  # log1p(-u) / -lam is -log1p(-u) / lam bit for bit
        a[0] += last
        np.add.accumulate(a, out=a)
        m = np.asarray(quantile(service_rng.random(out=uniforms[:k])),
                       dtype=float)
        m += a  # the departures, then their running maximum M, in place
        if np.isnan(m).any():  # which np.fmax would pass over
            raise DomainError(f"{params.service.name}: the service quantile "
                              f"returned NaN")
        m[0] = max(m[0], top)
        np.fmax.accumulate(m, out=m)
        new = empty[:k]  # arrival i finds the system empty
        new[0] = a[0] > top
        np.greater(a[1:], m[:-1], out=new[1:])
        top = m[-1]
        del m
        starts = np.flatnonzero(new)
        if run + k > EVENT_CAP:  # a busy period here may pass the cap
            runs = np.diff(starts, prepend=-run) if started else np.diff(starts)
            if runs[:left].max(initial=0) > EVENT_CAP:
                raise RunawayCycleError("busy period exceeded the event cap")
        run = k - starts[-1] if starts.size else run + k
        times = a[starts]
        del starts
        z = times.copy()  # the cycle lengths, each in its end's frame
        z[1:] -= times[:-1]
        if not started:  # the first start ends no cycle
            z = z[1:]
        z = z[:left]
        left -= z.size
        last = a[-1]
        if times.size:  # rebase on the last start
            started = True
            last -= times[-1]
            top -= times[-1]
        del times
        if left and run > EVENT_CAP:
            raise RunawayCycleError("busy period exceeded the event cap")
        yield z
        del z  # free it before the next chunk is drawn


def _accumulate(params: QueueParameters, n_cycles: int, seed: int,
                replication: int, exponent: int = 0):
    """Pooled power sums Z, Z^2, Z^3, Z^4 for one replication, added one
    chunk's cycles at a time, of the lengths Z 2^-exponent."""
    # a float multiply by a power of 2 rounds as np.ldexp does, in under
    # half its time (4.8 against 11 us on 24 000 cycles)
    scale = math.ldexp(1.0, -exponent)
    sums = np.zeros(4)
    for z in _cycle_lengths(params, n_cycles, seed, replication):
        with np.errstate(over="ignore"):  # estimate_beta_c checks the range
            z *= scale
            sums[0] += z.sum()
            z2 = z * z
            sums[1] += z2.sum()
            z *= z2
            sums[2] += z.sum()
            z2 *= z2
            sums[3] += z2.sum()
        del z, z2  # free this chunk's cycles before the next is drawn
    return sums


def _usable_cpus() -> int:
    """How many CPUs this process may run on (a cgroup's CPU quota is not
    read)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _replication_sums(params: QueueParameters, n_cycles: int, seed: int,
                      replications: int, exponent: int = 0) -> list:
    """``_accumulate`` of each replication, in replication order, of the
    lengths Z 2^-exponent.

    Replications run on up to _MAX_WORKERS threads, one per usable CPU,
    when each expects at least _THREADED_ARRIVALS arrivals (n_cycles
    e^rho), and on the calling thread alone otherwise.  The calling thread
    works too, and helpers each run under a copy of the caller's context,
    all joined before this returns.  (Looping over the oracle benchmark's
    configurations, an idle caller with two pool threads kept one
    allocator arena more and peaked about 2 MB higher.)  A thread claims a
    replication only while no replication has raised, and runs every
    replication it claims, so the error of the lowest replication that
    raised is raised, as a run one at a time would.
    """
    workers = min(replications, _usable_cpus(), _MAX_WORKERS)
    if n_cycles * math.exp(params.traffic_intensity) < _THREADED_ARRIVALS:
        workers = 1
    results = [None] * replications
    claims = itertools.count()
    stop = threading.Event()

    def work():
        while not stop.is_set():
            r = next(claims)
            if r >= replications:
                return
            try:
                results[r] = _accumulate(params, n_cycles, seed, r, exponent)
            except BaseException as exc:  # re-raised in replication order
                results[r] = exc
                stop.set()

    helpers = []
    try:
        for k in range(workers - 1):
            helper = threading.Thread(target=contextvars.copy_context().run,
                                      args=(work,), name=f"busycycle-sim-{k}")
            helper.start()
            helpers.append(helper)
        work()
    finally:
        stop.set()  # after an error or an interrupt, claim no more
        for helper in helpers:
            helper.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


def _moments_overflow(lam: float) -> DomainError:
    return DomainError(f"lambda = {lam:g}: the simulated cycle moments "
                       f"E[Z^k], k <= 4, leave the float range")


def estimate_beta_c(params: QueueParameters, n_cycles: int, seed: int,
                    replications: int = 1) -> SimulationEstimate:
    """Estimate beta_c = E[Z^2] / (2 E[Z]) from simulated busy cycles.

    ``n_cycles`` cycles are generated per replication; replications use
    independently keyed streams and their sums are pooled in replication
    order before the single ratio is formed.  Replications that expect at
    least ``_THREADED_ARRIVALS`` arrivals (n_cycles e^rho) run on up to one
    thread per usable CPU, at most ``_MAX_WORKERS`` (2), each holding a few
    arrays of at most ``_CHUNK`` floats, whatever ``n_cycles`` is.
    The result has the same bits as a run one at a time, but the service
    quantile (and a user's cdf) may be called from two threads at once.
    An error in a replication is raised once every thread has stopped, the
    lowest replication's first.  ``n_cycles``, ``seed`` and ``replications``
    must be integers.  DomainError is raised before any draw when the expected
    number of arrivals exceeds ``EVENT_CAP``, or when E[I^4] of the idle
    periods leaves the float range, and after the draws when an estimated
    E[Z^k], k <= 4, does.  The power sums are pooled in units of the power
    of 2 nearest the mean cycle length, so they do not overflow first.
    """
    n_cycles = _integer(n_cycles, "n_cycles")
    seed = _integer(seed, "seed")
    replications = _integer(replications, "replications")
    if n_cycles < 1000:
        raise DomainError(f"n_cycles must be >= 1000, got {n_cycles}")
    if replications < 1:
        raise DomainError(f"replications must be >= 1, got {replications}")
    # a busy period serves e^rho customers on average; the integer count of
    # cycles is capped first, as it may be too large for a float
    n = n_cycles * replications
    if n > EVENT_CAP:
        raise DomainError(f"n_cycles * replications exceeds the cap of "
                          f"{EVENT_CAP:.0e} arrivals")
    events = n * math.exp(params.traffic_intensity)
    if events > EVENT_CAP:
        raise DomainError(f"about {events:.3g} arrivals expected "
                          f"(n_cycles * replications * e^rho) exceed the cap "
                          f"of {EVENT_CAP:.0e}")
    # every cycle holds an idle period I with E[I^4] = 24 / lambda^4, which
    # the moments below cannot hold once it leaves the float range; in logs,
    # as lambda^4 underflows first
    lam = params.arrival_rate
    if math.log(24.0) - 4.0 * math.log(lam) > math.log(sys.float_info.max):
        raise _moments_overflow(lam)

    # the sums are of Z 2^-e, 2^e near the mean cycle length e^rho / lambda,
    # so that the sum of n Z^4 stays in range wherever E[Z^4] does; a power
    # of 2 scales exactly, away from subnormals
    e = math.frexp(math.exp(params.traffic_intensity) / lam)[1]
    total = np.zeros(4)
    ratios = []
    for s in _replication_sums(params, n_cycles, seed, replications, e):
        ratios.append(float(s[1] / (2.0 * s[0])))
        total += s
    try:
        per_rep = [math.ldexp(r, e) for r in ratios]
        m1, m2, m3, m4 = (math.ldexp(float(total[k]) / n, (k + 1) * e)
                          for k in range(4))
    except OverflowError:  # math.ldexp past the float range
        raise _moments_overflow(lam) from None
    if not all(sys.float_info.min <= m < math.inf for m in (m1, m2, m3, m4)):
        raise _moments_overflow(lam)
    ratio = m2 / (2.0 * m1)

    # delta method on R = m2 / (2 m1):
    # dR/dm1 = -R/m1, dR/dm2 = 1/(2 m1)
    var_z = max(m2 - m1 * m1, 0.0)
    var_z2 = max(m4 - m2 * m2, 0.0)
    cov = m3 - m1 * m2
    g1 = -ratio / m1
    g2 = 1.0 / (2.0 * m1)
    var_r = (g1 * g1 * var_z + g2 * g2 * var_z2 + 2.0 * g1 * g2 * cov) / n
    se = math.sqrt(max(var_r, 0.0))

    return SimulationEstimate(
        beta_c_hat=ratio,
        e_z_hat=m1,
        e_z2_hat=m2,
        std_error=se,
        ci95=(ratio - Z95 * se, ratio + Z95 * se),
        n_cycles=n_cycles,
        seed=seed,
        replications=replications,
        per_replication=tuple(per_rep),
    )


def time_average_age(cycles) -> float:
    """Long-run time average of the cycle age (equivalently excess).

    Within one cycle of length Z the age ramps 0 -> Z, so its time integral
    is Z^2/2 and the trajectory average over the cycles equals the ratio
    estimator sum(Z^2) / (2 sum(Z)) identically.
    """
    z = _floats(cycles, "cycle lengths")
    if z.size == 0:
        raise DomainError("need at least one cycle length")
    # scaled by the power of 2 that brings the largest length into
    # [1/2, 1), so its square neither overflows nor underflows; the scaling
    # is exact but for lengths some 2^1022 below the largest
    e = math.frexp(float(z.max()))[1]
    z = np.ldexp(z, -e)
    with np.errstate(invalid="ignore"):
        value = float((z * z).sum() / (2.0 * z.sum()))
    if not math.isfinite(value):  # all zero or infinite
        raise DomainError("cycle lengths must be finite and not all zero")
    return math.ldexp(value, e)
