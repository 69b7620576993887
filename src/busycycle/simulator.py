"""Monte Carlo oracle for busy-cycle statistics.

A busy cycle is an idle period (exponential, rate lam) followed by a busy
period.  With infinitely many servers a busy period is a coverage process:
it ends at the largest departure epoch among the initiating customer and
every customer arriving before the current end.  The recursion

    end <- first service duration
    repeat: draw the next inter-arrival gap; if the arrival falls past end,
            stop; otherwise end <- max(end, arrival + fresh service)

is exact here because customers never queue, and costs O(arrivals/cycle).

Randomness comes from the counter-based Philox generator.  Replication r of
a run seeded with s uses key (s, r), and all draws are inverse transforms of
the generator's uniforms in a fixed batch order (documented at
``_simulate_batch``), so results are bit-identical across runs and do not
depend on execution parallelism.

The uniforms come from a block drawn ahead of the replication's generator,
carried across its batches; Philox's uniforms do not depend on how the
draws are split, so the block changes no value.  Once a round has few
services left, their quantiles are evaluated once per window of the
uniforms ahead, and the next rounds take their services from that window:
one quantile call then serves many small rounds.  Every quantile the
package builds is elementwise, so the draw order and the bytes do not
change.

A batch keeps only its active cycles' index, arrival and end, and adds
each busy period to its cycle's idle time when it ends, so one replication
needs about 3.2 arrays of 8-byte floats per cycle of a batch at rho = 1.
Replications run concurrently, one thread per usable CPU and at most
``_MAX_WORKERS``, once a batch is large enough for its array work to
outweigh the interpreter's share (see ``_THREADED_CYCLES``).  Memory grows
with the replications that run at once: two hold about 6.4 arrays a
cycle, against 7 for one replication before its working set was cut.
Each replication owns its stream and its sums are pooled in replication
order, so a concurrent run gives the same bits as a run one at a time.  A
service law's quantile, and so a user's cdf, may then be called from two
threads at once.
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

from .distributions import QueueParameters
from .errors import DomainError, RunawayCycleError

__all__ = [
    "SimulationEstimate",
    "estimate_beta_c",
    "time_average_age",
]

# cycles processed per vectorized batch; part of the fixed draw order
BATCH = 1 << 19
# hard cap on the arrivals of one busy period and on the expected arrivals
# of one estimate; termination is a.s. anyway
EVENT_CAP = 10**9
Z95 = 1.959963984540054  # two-sided 95% normal quantile
# Uniforms drawn ahead per block, the shortest quantile window, and the
# rounds a window covers at least: a round with m services, 7m <= _BLOCK,
# evaluates the quantile on the next max(_WINDOW, 7m) uniforms.  A user-CDF
# quantile call makes about five cdf calls and some seventy array
# operations whatever its size, and most rounds carry 1-200 draws.  On the
# general_g benchmark (2-core Xeon) these sizes cut quantile calls from 95
# to 13 a pass, for 26 468 draws in place of 14 902, and its estimates ran
# about 35% faster than with no windows; windows 5m long, _WINDOW 128 and
# _BLOCK 8192 ran them within 3% of these sizes.
_BLOCK = 4096
_WINDOW = 512
_AHEAD = 3
# Fewest cycles per batch for which replications run on threads.  Smaller
# batches spend their time in short rounds that hold the GIL.  On a 2-core
# Xeon, two threads ran 2 replications of 4 043 cycles 10-27% slower than
# one at a time (rho 1 and 5), of 8 000-11 000 cycles 2-10% faster (rho 1
# to 4.5), and of 16 000-220 728 cycles 13-48% faster (rho 1 to 4).
_THREADED_CYCLES = 1 << 14
# Most replications run at once.  Each holds its own working set (above),
# so k at once hold about 3.2k arrays of a batch's floats against the 7 of
# one replication before that set was cut; only two threads, on 2 CPUs,
# have been measured.
_MAX_WORKERS = 2
# Cycles whose first gaps, or whose services in a round too large for a
# quantile window, are drawn at a time.  Drawn whole, they raised a batch's
# peak from 3.2 to 3.6 arrays of n floats (2^17 cycles, exponential at
# rho = 1); drawn this many at a time, they ran the oracle benchmark's
# configurations within 3% of the time drawn whole.
_CHUNK = 1 << 14


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


def _rng_for(seed: int, replication: int) -> Generator:
    """Counter-based stream: replication r of seed s uses Philox key (s, r)."""
    if not (0 <= seed < 2**64):
        raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed}")
    key = np.array([seed, replication], dtype=np.uint64)
    return Generator(Philox(key=key))


class _Uniforms:
    """The uniforms of one generator in order, served from a block drawn
    ahead.  ``count`` is how many have been taken."""

    def __init__(self, rng: Generator):
        self._rng = rng
        self._block = np.empty(0)
        self._pos = 0
        self.count = 0

    def peek(self, n: int) -> np.ndarray:
        """The next n <= _BLOCK uniforms, left in the stream."""
        if self._pos + n > self._block.size:
            self._block = np.concatenate((self._block[self._pos:],
                                          self._rng.random(_BLOCK)))
            self._pos = 0
        return self._block[self._pos:self._pos + n]

    def fresh(self, n: int) -> np.ndarray:
        """The next n uniforms in an array the caller may overwrite."""
        u = self.take(n)
        return u if u.base is None else u.copy()

    def skip(self, n: int) -> None:
        """Pass over the next n uniforms, all inside the last peek."""
        self._pos += n
        self.count += n

    def take(self, n: int) -> np.ndarray:
        """The next n uniforms."""
        if n <= _BLOCK or self._pos + n <= self._block.size:
            u = self.peek(n)
            self._pos += n
        else:  # the rest of the block, then straight from the generator
            rest = self._block[self._pos:]
            u = np.empty(n)
            u[:rest.size] = rest
            self._rng.random(out=u[rest.size:])
            self._block, self._pos = np.empty(0), 0
        self.count += n
        return u


def _exponential_gaps(u: np.ndarray, lam: float) -> np.ndarray:
    """-log1p(-u) / lam, computed in place in ``u``."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u /= -lam  # log1p(-u) / -lam is -log1p(-u) / lam bit for bit
    return u


def _first_arrivals(draws: _Uniforms, end: np.ndarray, lam: float):
    """Round 1: the mask of the cycles whose first gap ends before their
    first service, and those gaps.  The gaps are drawn _CHUNK at a time,
    so only the ones kept take memory."""
    still = np.empty(end.size, dtype=bool)
    kept = []
    for first in range(0, end.size, _CHUNK):
        gap = _exponential_gaps(draws.fresh(min(_CHUNK, end.size - first)),
                                lam)
        busy = still[first:first + _CHUNK]
        np.less(gap, end[first:first + _CHUNK], out=busy)
        kept.append(gap[busy])
    return still, np.concatenate(kept)


def _serve(q, draws: _Uniforms, arrival: np.ndarray, end: np.ndarray):
    """end = max(end, arrival + service), with the services drawn _CHUNK
    at a time."""
    for first in range(0, end.size, _CHUNK):
        part = end[first:first + _CHUNK]
        svc = np.asarray(q(draws.take(part.size)), dtype=float)
        np.maximum(part, arrival[first:first + _CHUNK] + svc, out=part)


def _simulate_batch(params: QueueParameters, n: int, draws: _Uniforms):
    """Cycle lengths Z = idle + busy for n cycles, batched across cycles.

    Fixed draw order per batch: n idle uniforms, n first-service uniforms,
    then per round over the still-active cycles (in ascending cycle index):
    one gap uniform each, followed by one service uniform for each cycle
    whose arrival landed inside its current busy period.

    ``draws`` is the replication's ``_Uniforms`` stream.  A round with m
    services, (2 _AHEAD + 1) m <= _BLOCK, evaluates the quantile on the
    next max(_WINDOW, (2 _AHEAD + 1) m) uniforms.  The active set never
    grows, so each later round takes at most m gap and m service uniforms,
    and the next _AHEAD rounds' services lie inside the window; every later
    round whose services do takes them from it.

    Only the active cycles' index, arrival and end are kept, compacted
    each round, and a busy period is added to its cycle's idle time when
    it ends.  The exponential transforms work in place, and a window's
    gaps are transformed with its services.  The peak grows with the share
    p of cycles still busy at the first arrival (p = rho / (1 + rho) for
    exponential service): about 3.2 arrays of n floats at rho = 1 and 5.2
    at rho = 5, where a loop over full-length arrays keeps about 7.
    """
    lam = params.arrival_rate
    q = params.service.quantile_fn
    z = _exponential_gaps(draws.fresh(n), lam)
    end = np.asarray(q(draws.take(n)), dtype=float)
    # round 1: every cycle is active and its arrival is its first gap
    still, arrival = _first_arrivals(draws, end, lam)
    np.add(z, end, out=z, where=~still)
    end = end[still]
    index = still.nonzero()[0]
    # service quantiles and gaps of the uniforms from `start` on
    window = gaps = np.empty(0)
    start = 0
    rounds = 1
    while index.size:
        m = index.size
        at = draws.count - start
        span = (2 * _AHEAD + 1) * m
        if at + m > window.size and span <= _BLOCK:
            start, at = draws.count, 0
            u = draws.peek(max(_WINDOW, span))
            window = np.asarray(q(u), dtype=float)
            gaps = _exponential_gaps(u.copy(), lam)
        if at + m <= window.size:
            draws.skip(m)
            np.maximum(end, arrival + window[at:at + m], out=end)
        else:
            _serve(q, draws, arrival, end)
        rounds += 1
        if rounds > EVENT_CAP:
            raise RunawayCycleError("busy period exceeded the event cap")
        at = draws.count - start
        if at + m <= gaps.size:
            draws.skip(m)
            arrival += gaps[at:at + m]
        else:
            arrival += _exponential_gaps(draws.fresh(m), lam)
        still = arrival < end
        ended = z[index]  # the busy periods that end here join their idle
        np.add(ended, end, out=ended, where=~still)
        z[index] = ended
        del ended
        keep = still.nonzero()[0]
        index = index[keep]
        arrival = arrival[keep]
        end = end[keep]
    return z


def _batches(params: QueueParameters, n_cycles: int, seed: int,
             replication: int):
    """Cycle-length arrays of one replication, BATCH cycles at a time, all
    drawn from one stream of its generator."""
    draws = _Uniforms(_rng_for(seed, replication))
    remaining = n_cycles
    while remaining > 0:
        m = min(BATCH, remaining)
        yield _simulate_batch(params, m, draws)
        remaining -= m


def _accumulate(params: QueueParameters, n_cycles: int, seed: int,
                replication: int):
    """Pooled power sums Z, Z^2, Z^3, Z^4 for one replication."""
    sums = np.zeros(4)
    for z in _batches(params, n_cycles, seed, replication):
        with np.errstate(over="ignore"):  # estimate_beta_c checks the range
            sums[0] += z.sum()
            z2 = z * z
            sums[1] += z2.sum()
            z *= z2
            sums[2] += z.sum()
            z2 *= z2
            sums[3] += z2.sum()
        del z, z2  # free this batch before the next one is drawn
    return sums


def _usable_cpus() -> int:
    """How many CPUs this process may run on (a cgroup's CPU quota is not
    read)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _replication_sums(params: QueueParameters, n_cycles: int, seed: int,
                      replications: int) -> list:
    """``_accumulate`` of each replication, in replication order.

    When a batch has at least _THREADED_CYCLES cycles, replications run on
    up to _MAX_WORKERS threads, one per usable CPU: the calling thread and
    helpers, each helper under a copy of the caller's context, all joined
    before this returns.  (The calling thread works too: looping over the
    oracle benchmark's configurations, an idle caller with two pool threads
    kept one allocator arena more and peaked about 2 MB higher.)
    A thread claims a replication only while no replication has raised,
    and runs every replication it claims, so the error of the lowest
    replication that raised is raised, as a run one at a time would.
    """
    workers = min(replications, _usable_cpus(), _MAX_WORKERS)
    if workers < 2 or min(n_cycles, BATCH) < _THREADED_CYCLES:
        return [_accumulate(params, n_cycles, seed, r)
                for r in range(replications)]
    results = [None] * replications
    claims = itertools.count()
    stop = threading.Event()

    def work():
        while not stop.is_set():
            r = next(claims)
            if r >= replications:
                return
            try:
                results[r] = _accumulate(params, n_cycles, seed, r)
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


def estimate_beta_c(params: QueueParameters, n_cycles: int, seed: int,
                    replications: int = 1) -> SimulationEstimate:
    """Estimate beta_c = E[Z^2] / (2 E[Z]) from simulated busy cycles.

    ``n_cycles`` cycles are generated per replication; replications use
    independently keyed streams and their sums are pooled in replication
    order before the single ratio is formed.  Replications of at least
    ``_THREADED_CYCLES`` cycles run on up to one thread per usable CPU, at
    most ``_MAX_WORKERS`` (2), each holding about 3.2 arrays of
    ``min(n_cycles, BATCH)`` floats at rho = 1.
    The result has the same bits as a run one at a time, but the service
    quantile (and a user's cdf) may be called from two threads at once.
    An error in a replication is raised once every thread has stopped, the
    lowest replication's first.  ``n_cycles``, ``seed`` and ``replications``
    must be integers.  DomainError is raised before any draw when the expected
    number of arrivals exceeds ``EVENT_CAP``.
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

    total = np.zeros(4)
    per_rep = []
    for s in _replication_sums(params, n_cycles, seed, replications):
        per_rep.append(float(s[1] / (2.0 * s[0])))
        total += s

    m1 = float(total[0]) / n
    m2 = float(total[1]) / n
    m3 = float(total[2]) / n
    m4 = float(total[3]) / n
    if not all(sys.float_info.min <= m < math.inf for m in (m1, m2, m3, m4)):
        raise DomainError(f"lambda = {params.arrival_rate:g}: the simulated "
                          f"cycle moments E[Z^k], k <= 4, leave the float range")
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
    z = np.asarray(cycles, dtype=float)
    if z.size == 0:
        raise DomainError("need at least one cycle length")
    if not np.all(z >= 0.0):  # nan fails too
        raise DomainError("cycle lengths must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        value = float((z * z).sum() / (2.0 * z.sum()))
    if not math.isfinite(value):  # all zero, infinite, or Z^2 overflows
        raise DomainError("cycle lengths must be finite and not all zero, "
                          "and their squares must sum to a float")
    return value
