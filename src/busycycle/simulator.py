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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .distributions import QueueParameters
from .errors import DomainError, RunawayCycleError

__all__ = [
    "SimulationEstimate",
    "simulate_one_cycle",
    "estimate_beta_c",
    "time_average_age",
]

# cycles processed per vectorized batch; part of the fixed draw order
BATCH = 1 << 19
# hard cap on the arrivals of one busy period and on the expected arrivals
# of one estimate; termination is a.s. anyway
EVENT_CAP = 10**9
Z95 = 1.959963984540054  # two-sided 95% normal quantile


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


def _rng_for(seed: int, replication: int) -> Generator:
    """Counter-based stream: replication r of seed s uses Philox key (s, r)."""
    if not (0 <= seed < 2**64):
        raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed}")
    key = np.array([seed, replication], dtype=np.uint64)
    return Generator(Philox(key=key))


def simulate_one_cycle(params: QueueParameters, rng: Generator):
    """One (idle, busy) pair drawn sequentially from ``rng``."""
    lam = params.arrival_rate
    q = params.service.quantile_fn
    idle = -math.log1p(-rng.random()) / lam
    end = float(q(rng.random()))
    arrival = 0.0
    for _ in range(EVENT_CAP):
        arrival += -math.log1p(-rng.random()) / lam
        if arrival >= end:
            return idle, end
        end = max(end, arrival + float(q(rng.random())))
    raise RunawayCycleError("busy period exceeded the event cap")


def _simulate_batch(params: QueueParameters, n: int, rng: Generator):
    """(idle, busy) arrays for n cycles, batched across cycles.

    Fixed draw order per batch: n idle uniforms, n first-service uniforms,
    then per round over the still-active cycles (in ascending cycle index):
    one gap uniform each, followed by one service uniform for each cycle
    whose arrival landed inside its current busy period.
    """
    lam = params.arrival_rate
    q = params.service.quantile_fn
    idle = -np.log1p(-rng.random(n)) / lam
    end = np.asarray(q(rng.random(n)), dtype=float).copy()
    arrival = np.zeros(n)
    active = np.arange(n)
    rounds = 0
    while active.size:
        rounds += 1
        if rounds > EVENT_CAP:
            raise RunawayCycleError("busy period exceeded the event cap")
        arrival[active] += -np.log1p(-rng.random(active.size)) / lam
        still = arrival[active] < end[active]
        active = active[still]
        if active.size:
            svc = np.asarray(q(rng.random(active.size)), dtype=float)
            end[active] = np.maximum(end[active], arrival[active] + svc)
    return idle, end


def _accumulate(params: QueueParameters, n_cycles: int, seed: int,
                replication: int):
    """Pooled power sums Z, Z^2, Z^3, Z^4 for one replication."""
    rng = _rng_for(seed, replication)
    sums = np.zeros(4)
    remaining = n_cycles
    while remaining > 0:
        m = min(BATCH, remaining)
        idle, busy = _simulate_batch(params, m, rng)
        z = idle + busy
        z2 = z * z
        sums[0] += z.sum()
        sums[1] += z2.sum()
        sums[2] += (z2 * z).sum()
        sums[3] += (z2 * z2).sum()
        remaining -= m
    return sums


def estimate_beta_c(params: QueueParameters, n_cycles: int, seed: int,
                    replications: int = 1) -> SimulationEstimate:
    """Estimate beta_c = E[Z^2] / (2 E[Z]) from simulated busy cycles.

    ``n_cycles`` cycles are generated per replication; replications use
    independently keyed streams and their sums are pooled in replication
    order before the single ratio is formed.  DomainError is raised before
    any draw when the expected number of arrivals exceeds ``EVENT_CAP``.
    """
    if n_cycles < 1000:
        raise DomainError(f"n_cycles must be >= 1000, got {n_cycles}")
    if replications < 1:
        raise DomainError(f"replications must be >= 1, got {replications}")
    # a busy period serves e^rho customers on average
    events = n_cycles * replications * math.exp(params.traffic_intensity)
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

    n = n_cycles * replications
    m1 = float(total[0]) / n
    m2 = float(total[1]) / n
    m3 = float(total[2]) / n
    m4 = float(total[3]) / n
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
    if np.any(z < 0.0):
        raise DomainError("cycle lengths must be nonnegative")
    return float((z * z).sum() / (2.0 * z.sum()))
