"""Epsilon sweeps, tail statistics, limit extrapolation, and chain verdicts.

Tail minima/maxima are window statistics over the smallest-eps rows, never
claimed to be true liminf/limsup values.  Three extrapolation models are
supported: a weighted constant tail, an affine fit against 1/|ln eps| (the
controlling small parameter of the mollified-seminorm sweeps), and an affine
fit against eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import BesovLabError, FitError, InputError, SweepError

__all__ = [
    "EpsilonGrid",
    "SweepRow",
    "Extrapolation",
    "EpsilonSweepResult",
    "epsilon_sweep",
    "extrapolate",
    "chain_check",
    "verdict",
]


@dataclass(frozen=True)
class EpsilonGrid:
    eps0: float
    ratio: float
    count: int

    def __post_init__(self):
        if not (0.0 < self.ratio < 1.0):
            raise InputError("ratio: must lie in (0, 1)")
        if self.count < 4:
            raise InputError("count: must be >= 4")
        if not (self.eps0 > 0.0 and math.isfinite(self.eps0)):
            raise InputError("eps0: must be positive and finite")

    def values(self) -> np.ndarray:
        return self.eps0 * self.ratio ** np.arange(self.count)


@dataclass(frozen=True)
class SweepRow:
    eps: float
    value: float
    error: float
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class Extrapolation:
    model: str
    limit: float
    uncertainty: float


@dataclass(frozen=True)
class EpsilonSweepResult:
    functional_id: str
    rows: tuple
    tail_window: int
    tail_min: float
    tail_max: float
    extrapolated: Extrapolation

    def valid_rows(self):
        return [r for r in self.rows if r.ok]


def _eval_row(functional: Callable, eps: float) -> SweepRow:
    try:
        out = functional(eps)
    except BesovLabError as exc:
        return SweepRow(eps=eps, value=math.nan, error=math.nan, ok=False,
                        note=f"{type(exc).__name__}: {exc}")
    if hasattr(out, "value"):
        return SweepRow(eps=eps, value=float(out.value),
                        error=float(out.error_estimate), ok=True)
    return SweepRow(eps=eps, value=float(out), error=0.0, ok=True)


def epsilon_sweep(functional: Callable, grid: EpsilonGrid,
                  model: str = "constant-tail",
                  functional_id: str = "") -> EpsilonSweepResult:
    """Evaluate functional(eps) on a geometric grid (eps strictly decreasing)
    and extrapolate the eps -> 0 limit.

    Rows that raise a package error are flagged and skipped by the tail
    statistics; if every row fails the sweep fails.  Rows run in grid order
    on the calling thread.
    """
    rows = [_eval_row(functional, float(e)) for e in grid.values()]
    valid = [r for r in rows if r.ok]
    if not valid:
        raise SweepError(f"every row of sweep {functional_id!r} failed")
    window = min(math.ceil(grid.count / 3), len(valid))
    tail = valid[-window:]
    tail_min = min(r.value for r in tail)
    tail_max = max(r.value for r in tail)
    result = EpsilonSweepResult(functional_id=functional_id, rows=tuple(rows),
                                tail_window=window, tail_min=tail_min,
                                tail_max=tail_max,
                                extrapolated=Extrapolation(model, math.nan, math.nan))
    return replace(result, extrapolated=extrapolate(result, model))


def _affine_fit(x: np.ndarray, y: np.ndarray):
    """Least squares y ~ a + b x; returns (a, sigma_a)."""
    design = np.stack([np.ones_like(x), x], axis=-1)
    if np.linalg.matrix_rank(design) < 2:
        raise FitError("degenerate extrapolation design (identical abscissae)")
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dof = max(len(x) - 2, 1)
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(design.T @ design)
    return float(coef[0]), math.sqrt(max(cov[0, 0], 0.0))


def extrapolate(sweep: EpsilonSweepResult, model: str) -> Extrapolation:
    valid = sweep.valid_rows()
    tail = valid[-sweep.tail_window:]
    if model == "constant-tail":
        if not tail:
            raise FitError("constant-tail extrapolation needs valid rows")
        w = np.array([1.0 / (r.error ** 2 + 1e-300) for r in tail])
        # exact rows (error 0) weigh 1e300: rescale before w @ v overflows
        w = w / np.max(w)
        v = np.array([r.value for r in tail])
        limit = float(w @ v / np.sum(w))
        spread = max(r.value for r in tail) - min(r.value for r in tail)
        uncertainty = spread + float(np.mean([r.error for r in tail]))
        return Extrapolation(model, limit, uncertainty)
    # affine models fit the tail rows (at least 3): the model only holds
    # asymptotically, and the largest-eps rows bias the intercept
    fit_rows = valid[-max(sweep.tail_window, 3):]
    if len(fit_rows) < 3:
        raise FitError("extrapolation needs at least 3 valid tail rows")
    v = np.array([r.value for r in fit_rows])
    err_mean = float(np.mean([r.error for r in fit_rows]))
    if model == "affine-in-inverse-log":
        x = np.array([1.0 / abs(math.log(r.eps)) for r in fit_rows])
    elif model == "affine-in-power":
        x = np.array([r.eps for r in fit_rows])
    else:
        raise InputError(f"unknown extrapolation model {model!r}")
    limit, sigma = _affine_fit(x, v)
    return Extrapolation(model if model != "affine-in-power" else "affine-in-power(1)",
                         limit, sigma + err_mean)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def verdict(name: str, violation: float, tolerance: float, terms: dict) -> dict:
    """The pass/fail record of one check: it passes when the violation is
    within the tolerance."""
    return {"chain": name, "terms": terms, "tolerance": tolerance,
            "pass": bool(violation <= tolerance), "worst_violation": violation}


def chain_check(name: str, terms: dict, tolerance: float) -> dict:
    """Verdict that the named terms agree pairwise within the absolute
    tolerance; experiment runners convert relative tolerances using the
    chain's reference scale."""
    if tolerance < 0.0:
        raise InputError("tolerance must be nonnegative")
    if len(terms) < 2:
        raise InputError("equivalence verdict needs at least two terms")
    vals = list(terms.values())
    gap = max(abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1:])
    return verdict(name, float(gap), float(tolerance),
                   {k: float(v) for k, v in terms.items()})
