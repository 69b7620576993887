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
"""

from __future__ import annotations

import math
import sys
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
# quantile call runs 42-47 bisection steps whatever its size, and most
# rounds carry 1-200 draws.  On the general_g benchmark (2 cores) these
# sizes cut quantile calls from 95 to 13 a pass; windows 3m long ran its
# estimates about 20% slower, and 9m long about 10% slower.
_BLOCK = 4096
_WINDOW = 512
_AHEAD = 3


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


def _simulate_batch(params: QueueParameters, n: int, draws: _Uniforms):
    """(idle, busy) arrays for n cycles, batched across cycles.

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
    """
    lam = params.arrival_rate
    q = params.service.quantile_fn
    idle = -np.log1p(-draws.take(n)) / lam
    end = np.asarray(q(draws.take(n)), dtype=float).copy()
    arrival = np.zeros(n)
    active = np.arange(n)
    window = np.empty(0)  # quantiles of the uniforms from `start` on
    start = 0
    rounds = 0
    while active.size:
        rounds += 1
        if rounds > EVENT_CAP:
            raise RunawayCycleError("busy period exceeded the event cap")
        arrival[active] += -np.log1p(-draws.take(active.size)) / lam
        still = arrival[active] < end[active]
        active = active[still]
        m = active.size
        if not m:
            break
        at = draws.count - start
        span = (2 * _AHEAD + 1) * m
        if at + m > window.size and span <= _BLOCK:
            start, at = draws.count, 0
            window = np.asarray(q(draws.peek(max(_WINDOW, span))), dtype=float)
        if at + m <= window.size:
            draws.take(m)
            svc = window[at:at + m]
        else:
            svc = np.asarray(q(draws.take(m)), dtype=float)
        end[active] = np.maximum(end[active], arrival[active] + svc)
    return idle, end


def _batches(params: QueueParameters, n_cycles: int, seed: int,
             replication: int):
    """(idle, busy) arrays of one replication, BATCH cycles at a time, all
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
    for idle, busy in _batches(params, n_cycles, seed, replication):
        z = idle + busy
        with np.errstate(over="ignore"):  # estimate_beta_c checks the range
            z2 = z * z
            sums[0] += z.sum()
            sums[1] += z2.sum()
            sums[2] += (z2 * z).sum()
            sums[3] += (z2 * z2).sum()
    return sums


def estimate_beta_c(params: QueueParameters, n_cycles: int, seed: int,
                    replications: int = 1) -> SimulationEstimate:
    """Estimate beta_c = E[Z^2] / (2 E[Z]) from simulated busy cycles.

    ``n_cycles`` cycles are generated per replication; replications use
    independently keyed streams and their sums are pooled in replication
    order before the single ratio is formed.  ``n_cycles``, ``seed`` and
    ``replications`` must be integers.  DomainError is raised before any
    draw when the expected number of arrivals exceeds ``EVENT_CAP``.
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
    for r in range(replications):
        s = _accumulate(params, n_cycles, seed, r)
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
