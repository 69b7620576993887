"""Recompute the published reference tables and annotate every cell.

The registry (data/paper_cells.json) carries the published digits, the
status each cell is expected to earn against the computation engines, and
replacement values for cells the source got wrong.  Statuses:

    PASS     relative agreement <= 1e-6
    APPROX   <= 1e-3 (the source used coarser numerics)
    ERRATUM  worse, or internally inconsistent across tables; the computed
             value is authoritative

Ratio cells may also carry ``paper_reference``, the beta_c value the
published ratio was evidently formed with; both the authoritative ratio and
the one using that reference are reported.

Nothing a cell's engine values depend on can change within a process, so
the registry file is read once and each cell's computed value (and its
ratio with the paper reference) is computed once per process, on the first
table call that needs it.  Every call still parses the registry afresh and
takes the published value, the statuses, the replacement and the note from
it, so a registry whose expectation no longer holds still shows the drift.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from . import analytics, bounds
from .distributions import QueueParameters, from_spec
from .errors import DomainError

__all__ = ["CellResult", "load_registry", "compute_table", "classify"]

PASS_TOL = 1e-6
APPROX_TOL = 1e-3


@dataclass(frozen=True)
class CellResult:
    table: int
    distribution: str
    arrival_rate: float
    mean_service: float
    rho: float
    quantity: str
    paper_value: float
    computed: float
    rel_delta: float
    status: str
    expected_status: str
    replacement: Optional[float]
    note: Optional[str]
    ratio_with_paper_reference: Optional[float] = None
    paper_reference: Optional[float] = None


@functools.cache
def _registry_text() -> str:
    return resources.files("busycycle.data").joinpath("paper_cells.json").read_text()


def load_registry() -> dict:
    """The registry, freshly parsed: callers may change what they get."""
    return json.loads(_registry_text())


def classify(paper_value: float, computed: float) -> str:
    """Status of a published cell against the authoritative computed value."""
    rel = abs(paper_value - computed) / abs(computed)
    if rel <= PASS_TOL:
        return "PASS"
    if rel <= APPROX_TOL:
        return "APPROX"
    return "ERRATUM"


def _service_for(row: str, lam: float, alpha: float):
    spec = {"exponential": {"type": "exponential", "mean": alpha},
            "constant": {"type": "deterministic", "mean": alpha},
            "special_a": {"type": "special_a", "rho": lam * alpha},
            "special_b": {"type": "special_b", "rho": lam * alpha},
            # mean 0.5, matching the table's alpha
            "power": {"type": "power", "c": 1.0}}.get(row)
    if spec is None:
        raise DomainError(f"unknown table row {row!r}")
    return from_spec(spec, lam)


def _ratio_bounds(row: str, params: QueueParameters):
    """The class-bound pair each ratio row is built from."""
    if row == "exponential":
        lo = bounds.class_lower_bound("m-nwue", params)
        up = bounds.class_upper_bound("m-nbue", params)
    else:
        lo = bounds.class_lower_bound("power", params)
        up = bounds.class_upper_bound("power", params)
    return lo, up


@functools.cache
def _engine_values(row: str, lam: float, alpha: float, ratio: bool,
                   paper_reference: Optional[float]):
    """(computed, ratio with the paper reference or None) of one cell; a
    ratio cell holds the gap ratio of its class bounds around beta_c."""
    params = QueueParameters(lam, _service_for(row, lam, alpha))
    computed = analytics.beta_c(params, "auto").beta_c
    if not ratio:
        return computed, None
    lo, up = _ratio_bounds(row, params)
    ratio_ref = (None if paper_reference is None
                 else bounds.gap_ratio(lo, up, paper_reference))
    return bounds.gap_ratio(lo, up, computed), ratio_ref


def compute_table(which: int) -> list:
    """All annotated cells of table 1, 2 or 3, in row-major registry order."""
    if type(which) is not int or which not in (1, 2, 3):
        raise DomainError(f"table number must be 1, 2 or 3, got {which!r}")
    reg = load_registry()[f"table{which}"]
    quantity = reg["quantity"]
    ratio = quantity != "beta_c"
    results = []
    for row, data in reg["rows"].items():
        for i, col in enumerate(reg["columns"]):
            if reg["column_key"] == "mean_service":
                lam, alpha = reg["arrival_rate"], col
            else:
                lam, alpha = col, reg["mean_service"]
            paper = float(data["paper"][i])
            paper_ref = None
            if ratio:
                ref = data.get("paper_reference", [None] * len(reg["columns"]))[i]
                if ref is not None:
                    paper_ref = float(ref)
            computed, ratio_ref = _engine_values(row, lam, alpha, ratio, paper_ref)
            repl = data["replacement"][i]
            results.append(CellResult(
                table=which,
                distribution=row,
                arrival_rate=lam,
                mean_service=alpha,
                rho=lam * alpha,
                quantity=quantity,
                paper_value=paper,
                computed=computed,
                rel_delta=abs(paper - computed) / abs(computed),
                status=classify(paper, computed),
                expected_status=data["expected_status"][i],
                replacement=None if repl is None else float(repl),
                note=data["notes"][i],
                ratio_with_paper_reference=ratio_ref,
                paper_reference=paper_ref,
            ))
    return results
