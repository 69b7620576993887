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

A replication's gaps and services come from one draw object (``_Draws``),
carried across its batches, which alone decides where each value comes
from.  Small requests are sliced from a window of uniforms drawn ahead,
whose gaps and service quantiles are computed once for the whole window:
one quantile call then serves many small rounds.  Larger requests are
drawn and transformed on their own.  Philox's uniforms do not depend on
how the draws are split and every quantile the package builds is
elementwise, so the draw order and the bytes do not change.

A batch keeps only its active cycles' index, arrival and end, so one
replication needs about 3.6 arrays of 8-byte floats per cycle of a batch
at rho = 1.  A round adds only the busy periods that end in it to their
cycles' idle times, and compacts the active set only when some ended:
at rho = 5 more than half the rounds end no cycle.
Replications run concurrently, one thread per usable CPU and at most
``_MAX_WORKERS``, once a batch is large enough for its array work to
outweigh the interpreter's share (see ``_THREADED_CYCLES``).  Memory grows
with the replications that run at once: two hold about 7.2 arrays a
cycle at rho = 1, against 7 for one replication before its working set
was cut.  Each replication owns its stream and its sums are pooled in
replication order, so a concurrent run gives the same bits as a run one
at a time.  A service law's quantile, and so a user's cdf, may then be
called from two threads at once.
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
# The window sizes of ``_Draws`` (see its docstring).  The active set
# never grows, so a window opened for a round's m services, at least
# (2 _AHEAD + 1) m long, also holds the services of the next _AHEAD
# rounds.  A user-CDF quantile call makes about five cdf calls and some
# seventy array operations whatever its size, and most rounds carry 1-200
# draws.  On the general_g benchmark (2-core Xeon) these sizes cut
# quantile calls from 95 to 13 a pass, for 26 468 draws in place of
# 14 902, and its estimates ran about 35% faster than with no windows;
# windows 5m long, _WINDOW 128 and _BLOCK 8192 ran them within 3% of
# these sizes.
_BLOCK = 4096
_WINDOW = 512
_AHEAD = 3
# Fewest cycles per batch for which replications run on threads.  Smaller
# batches spend their time in short rounds that hold the GIL.  On a 2-core
# Xeon, two threads ran 2 replications of 4 043 cycles 10-27% slower than
# one at a time (rho 1 and 5), of 8 000-11 000 cycles 2-10% faster (rho 1
# to 4.5), and of 16 000-220 728 cycles 13-48% faster (rho 1 to 4).
_THREADED_CYCLES = 1 << 14
# Most replications run at once.  Each holds its own working set
# (``_simulate_batch``), so k at once hold about 3.6k arrays of a batch's
# floats at rho = 1 against the 7 of one replication before that set was
# cut; only two threads, on 2 CPUs, have been measured.
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


def _rng_for(seed: int, replication: int) -> Generator:
    """Counter-based stream: replication r of seed s uses Philox key (s, r)."""
    if not (0 <= seed < 2**64):
        raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed}")
    key = np.array([seed, replication], dtype=np.uint64)
    return Generator(Philox(key=key))


class _Draws:
    """One replication's inter-arrival gaps and service times, in the order
    its generator's uniforms come: ``gaps(n)`` and ``services(n)`` each
    transform the next n uniforms, by -log1p(-u) / lam and by the service
    quantile.

    A request is sliced from the window of uniforms drawn ahead when the
    window holds it.  Otherwise, if (2 _AHEAD + 1) n <= _BLOCK, the window's
    leftover uniforms and the generator's next ones form a new window of
    max(_WINDOW, (2 _AHEAD + 1) n), and the request is sliced from that; a
    window's gaps and its quantiles are each computed once, for the whole
    window, when first asked for.  A larger request takes the window's
    leftover uniforms, then the generator's, and is transformed on its own.
    Both transforms are elementwise and Philox's uniforms do not depend on
    how the draws are split, so every value is the one a request
    transformed on its own would get.  A returned array may be a view of
    the window's values; the caller may overwrite it, as no value is
    handed out twice and the window keeps its uniforms apart.
    """

    def __init__(self, params: QueueParameters, rng: Generator):
        self._lam = params.arrival_rate
        self._quantile = params.service.quantile_fn
        self._rng = rng
        self._window = np.empty(0)
        self._pos = 0  # uniforms of the window handed out
        self._made = {}  # the window's gaps and services, once asked for

    def gaps(self, n: int) -> np.ndarray:
        """The next n inter-arrival gaps."""
        return self._draw(n, "gaps")

    def services(self, n: int) -> np.ndarray:
        """The next n service times."""
        return self._draw(n, "services")

    def _transform(self, u: np.ndarray, kind: str) -> np.ndarray:
        if kind == "services":
            return np.asarray(self._quantile(u), dtype=float)
        np.negative(u, out=u)  # the gaps in place in u
        np.log1p(u, out=u)
        u /= -self._lam  # log1p(-u) / -lam is -log1p(-u) / lam bit for bit
        return u

    def _draw(self, n: int, kind: str) -> np.ndarray:
        rest = self._window.size - self._pos
        if n > rest:
            span = (2 * _AHEAD + 1) * n
            if span > _BLOCK:
                u = np.empty(n)
                u[:rest] = self._window[self._pos:]
                self._rng.random(out=u[rest:])
                self._pos = self._window.size
                return self._transform(u, kind)
            self._window = np.concatenate((
                self._window[self._pos:],
                self._rng.random(max(_WINDOW, span) - rest)))
            self._pos = 0
            self._made = {}
        if kind not in self._made:
            self._made[kind] = self._transform(self._window.copy(), kind)
        self._pos += n
        return self._made[kind][self._pos - n:self._pos]


def _simulate_batch(draws: _Draws, n: int) -> np.ndarray:
    """Cycle lengths Z = idle + busy for n cycles, batched across cycles.

    Fixed draw order per batch: n idle gaps, n first services, n first
    gaps, then per round over the cycles whose arrival landed inside their
    current busy period (in ascending cycle index): one service each, then
    one gap each.  ``draws`` decides where each draw's value comes from.

    Only the active cycles' index, arrival and end are kept.  A round
    adds the busy periods that end in it, and only those, to their
    cycles' idle times, then compacts the three arrays; a round in which
    no cycle ends skips both.  The peak grows with the share p of cycles
    still busy at the first arrival (p = rho / (1 + rho) for exponential
    service): about 3.6 arrays of n floats at rho = 1 and 5.9 at rho = 5,
    where a loop over full-length arrays keeps about 7.
    """
    z = draws.gaps(n)  # the idle periods, then the cycle lengths
    end = draws.services(n)
    arrival = draws.gaps(n)
    # round 1: every cycle is active
    still = arrival < end
    np.add(z, end, out=z, where=~still)
    arrival = arrival[still]
    end = end[still]
    index = still.nonzero()[0]
    del still
    rounds = 1
    while index.size:
        m = index.size
        svc = draws.services(m)
        svc += arrival
        np.maximum(end, svc, out=end)
        del svc
        rounds += 1
        if rounds > EVENT_CAP:
            raise RunawayCycleError("busy period exceeded the event cap")
        arrival += draws.gaps(m)
        still = arrival < end
        keep = still.nonzero()[0]
        if keep.size == m:  # no busy period ended: nothing to add or drop
            continue
        done = (~still).nonzero()[0]  # these busy periods join their idle
        z[index[done]] += end[done]
        index = index[keep]
        arrival = arrival[keep]
        end = end[keep]
    return z


def _batches(params: QueueParameters, n_cycles: int, seed: int,
             replication: int):
    """Cycle-length arrays of one replication, BATCH cycles at a time, all
    drawn from one stream of its generator."""
    draws = _Draws(params, _rng_for(seed, replication))
    remaining = n_cycles
    while remaining > 0:
        m = min(BATCH, remaining)
        yield _simulate_batch(draws, m)
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
    most ``_MAX_WORKERS`` (2), each holding about 3.6 arrays of
    ``min(n_cycles, BATCH)`` floats at rho = 1 (5.9 at rho = 5).
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
