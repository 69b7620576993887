"""Adaptive Gauss-Kronrod quadrature used by the analytic engines.

A 7-point Gauss / 15-point Kronrod pair is applied per panel; the panel with
the largest error estimate is bisected until the summed estimate meets the
requested relative tolerance.  Integrand kinks (distribution atoms, support
edges) are handled by seeding panel breakpoints there.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import AccuracyError, DomainError

# Gauss-Kronrod 7/15 nodes on [-1, 1] and the matching weights.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_K_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_G_WEIGHTS = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])


def _gk_panel(f, a: float, b: float):
    """Kronrod value and error estimate for one panel."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _GK_NODES
    y = np.asarray(f(x), dtype=float)
    k15 = half * float(np.dot(_K_WEIGHTS, y))
    g7 = half * float(np.dot(_G_WEIGHTS, y))
    diff = abs(k15 - g7)
    # QUADPACK-style sharpening of the raw difference, floored at roundoff.
    err = min(diff, (200.0 * diff) ** 1.5 if diff > 0 else 0.0)
    err = max(err, abs(k15) * 1e-16)
    return k15, err


def _kronrod(f, a, b):
    """15-point Kronrod value of ``f`` on each [a, b] of two equal-shape
    arrays of end points, from one call of ``f`` on all the nodes."""
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[..., None] + half[..., None] * _GK_NODES
    return half * (np.asarray(f(x), dtype=float) @ _K_WEIGHTS)


def integrate_adaptive(f, breakpoints, rel_tol: float = 1e-9,
                       max_panels: int = 4096):
    """Integrate ``f`` over the union of [b0,b1],[b1,b2],... adaptively.

    Returns (value, error_estimate, panels_used).  Raises AccuracyError,
    carrying the best estimate, if the panel budget is exhausted first.
    """
    total, total_err, count, _heap = _refine(f, breakpoints, rel_tol, max_panels)
    return total, total_err, count


def _refine(f, breakpoints, rel_tol: float, max_panels: int):
    """The refinement loop of ``integrate_adaptive``.

    Returns (value, error_estimate, panels_used, heap); the heap holds the
    converged panels as (-err, a, b, value, err) entries in heap order.
    """
    pts = sorted(set(float(b) for b in breakpoints))
    if len(pts) < 2:
        raise DomainError("need at least two distinct breakpoints")
    if not (rel_tol > 0.0):
        raise DomainError(f"rel_tol must be positive, got {rel_tol}")

    heap = []  # (-err, a, b, value, err)
    total = 0.0
    total_err = 0.0
    count = 0
    for a, b in zip(pts[:-1], pts[1:]):
        val, err = _gk_panel(f, a, b)
        heapq.heappush(heap, (-err, a, b, val, err))
        total += val
        total_err += err
        count += 1

    while total_err > rel_tol * max(abs(total), 1e-300) and total_err > 1e-300:
        if count >= max_panels:
            raise AccuracyError(
                f"quadrature did not converge within {max_panels} panels "
                f"(achieved {total_err:.3e}, value {total:.6e})",
                best_estimate=total,
                error_estimate=total_err,
            )
        _, a, b, val, err = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:  # panel width at floating-point resolution
            heapq.heappush(heap, (-0.0, a, b, val, 0.0))
            total_err -= err
            continue
        lv, le = _gk_panel(f, a, mid)
        rv, re = _gk_panel(f, mid, b)
        total += lv + rv - val
        total_err += le + re - err
        heapq.heappush(heap, (-le, a, mid, lv, le))
        heapq.heappush(heap, (-re, mid, b, rv, re))
        count += 1

    return total, total_err, count, heap
