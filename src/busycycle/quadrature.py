"""Adaptive Gauss-Kronrod quadrature, the one integration layer of the package.

A 7-point Gauss / 15-point Kronrod pair (QUADPACK qk15) is applied per
panel; the panel with the largest error estimate is bisected until the
summed estimate meets the requested relative tolerance.  It fails one
way: when ``_MAX_PANELS`` panels are spent or the worst panel is too narrow
to split, AccuracyError carries the value and every panel's error reached.
Callers share three pieces: ``_gauss_kronrod`` evaluates an array of
panels from one call of the integrand, ``_refine`` returns the converged
panels as a table sorted by position (``_kronrod_nodes`` turns it into
nodes and weights), and ``_support_breaks`` seeds breakpoints at 0,
mean * 2^k and the support end, so rescaling time rescales the panels
with it.  The user-CDF table also asks it for seeds at mean * 2^-k below
the mean: its first refinement call then spans the octaves near 0, where
a density singular at 0 puts its error, which splitting one panel per
call would otherwise reach one call at a time.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import AccuracyError, DomainError

# the panel budget of every integral in the package
_MAX_PANELS = 4096

# QUADPACK qk15 on [-1, 1]: the Kronrod nodes from the right end inwards,
# their weights, and the Gauss weights of every second node.
_X = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
      0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
      0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
      0.207784955007898467600689403773245, 0.0)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_GK_NODES = np.array([-x for x in _X[:-1]] + list(_X[::-1]))
_K_WEIGHTS = np.array(_WK + _WK[-2::-1])
_G_WEIGHTS = np.zeros(15)
_G_WEIGHTS[1::2] = _WG + _WG[-2::-1]
# (Kronrod weight) f summed against these columns gives K15 and K15 - G7
_SUM_AND_DEFECT = np.stack([np.ones(15), 1.0 - _G_WEIGHTS / _K_WEIGHTS], axis=1)


def _kronrod_nodes(a, b):
    """(nodes, weights): the 15 Kronrod nodes of each panel [a, b] of two
    equal-shape arrays, along a new last axis, and their weights."""
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[..., None] + half[..., None] * _GK_NODES
    return x, half[..., None] * _K_WEIGHTS


def _gauss_kronrod(f, a, b):
    """(Kronrod value, error estimate) of ``f`` on each panel [a, b] of two
    equal-shape arrays, from one call of ``f`` on the flat array of all
    nodes."""
    x, w = _kronrod_nodes(a, b)
    fw = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape) * w
    sums = fw @ _SUM_AND_DEFECT
    value = sums[..., 0]
    # QUADPACK-style sharpening of |K15 - G7|, (200 diff)^1.5 while that is
    # the smaller, floored at roundoff
    diff = np.abs(sums[..., 1])
    err = diff * np.minimum(1.0, 200.0 ** 1.5 * np.sqrt(diff))
    return value, np.maximum(err, 1e-16 * np.abs(value))


def _support_breaks(mean: float, end: float, negligible, what: str,
                    below: int = 0) -> list:
    """Panel breakpoints over [0, end]: 0, then mean * 2^-k for k = below,
    ..., 1 (none by default), then mean * 2^k below ``end`` (k < 200), then
    ``end``.  The seeds below the mean put the first refinement's panels
    on ``below`` octaves near 0, where a density singular at 0 needs
    them.  An unbounded support ends at the first mean * 2^k where
    ``negligible(t)`` holds; AccuracyError, saying ``what`` stays true,
    when there is none."""
    low = (math.ldexp(mean, -k) for k in range(below, 0, -1))
    breaks = [0.0] + [t for t in low if t < end]
    up = []
    t = mean
    while t < end and len(up) < 200:
        up.append(t)
        if math.isinf(end) and negligible(t):
            return breaks + up
        t *= 2.0
    if math.isinf(end):
        raise AccuracyError(
            f"{what} up to t = {up[-1]:.3g}; the support cannot be truncated",
            best_estimate=math.inf, error_estimate=math.inf,
        )
    return breaks + up + [end]


def integrate_adaptive(f, breakpoints, rel_tol: float):
    """Integrate ``f`` over the union of [b0,b1],[b1,b2],... adaptively.

    Returns (value, error_estimate, panels_used).  Raises AccuracyError,
    carrying the best estimate, when ``_refine`` does.
    """
    total, total_err, a = _refine(f, breakpoints, rel_tol)[:3]
    return total, total_err, len(a)


def _refine(f, breakpoints, rel_tol: float):
    """The refinement loop of ``integrate_adaptive``: (value,
    error_estimate, a, b, values), the converged panels [a, b] and their
    Kronrod values as arrays sorted by ``a``.  One call of ``f`` evaluates
    the seed panels, and one the two halves of each split; AccuracyError
    by the module's failure rule."""
    pts = np.array(sorted(set(float(b) for b in breakpoints)))
    if len(pts) < 2:
        raise DomainError("need at least two distinct breakpoints")
    if not (rel_tol > 0.0):
        raise DomainError(f"rel_tol must be positive, got {rel_tol}")

    vals, errs = _gauss_kronrod(f, pts[:-1], pts[1:])
    heap = list(zip((-errs).tolist(), pts[:-1].tolist(), pts[1:].tolist(),
                    vals.tolist(), errs.tolist()))
    heapq.heapify(heap)
    total, total_err = float(vals.sum()), float(errs.sum())

    while total_err > rel_tol * max(abs(total), 1e-300) and total_err > 1e-300:
        _, a, b, val, err = heap[0]
        mid = 0.5 * (a + b)
        if len(heap) >= _MAX_PANELS or not a < mid < b:
            where = (f"within {_MAX_PANELS} panels" if len(heap) >= _MAX_PANELS
                     else f"before [{a!r}, {b!r}] became too narrow to split")
            raise AccuracyError(f"quadrature did not converge {where} (achieved "
                                f"{total_err:.3e}, value {total:.6e})",
                                total, total_err)
        heapq.heappop(heap)
        ends = np.array([a, mid, b])
        (lv, rv), (le, re) = (v.tolist() for v in _gauss_kronrod(
            f, ends[:-1], ends[1:]))
        total += lv + rv - val
        total_err += le + re - err
        heapq.heappush(heap, (-le, a, mid, lv, le))
        heapq.heappush(heap, (-re, mid, b, rv, re))

    _, a, b, values, _ = np.array(sorted(heap, key=lambda p: p[1])).T
    return total, total_err, a, b, values
