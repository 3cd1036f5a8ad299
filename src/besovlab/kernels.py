"""The three radial kernel families and the audits the limit identities need.

All families are normalized so their profile integrates to one over R^N.
Internally every quantity is computed from L = |ln eps|, which keeps the
logarithmic family usable far below the float64 underflow point of eps
itself (needed to watch its support |ln eps|^-omega shrink through a fixed
delta); `NegLogEps` carries such parameters explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DivergenceError, InputError
from .fields import sphere_measure, unit_ball_volume
from .quadrature import PiecewisePower, QuadResult

__all__ = [
    "NegLogEps",
    "RadialKernelFamily",
    "kernel_profile",
    "kernel_mass",
    "support_tail",
    "log_kernel_moment",
    "kernel_window",
    "audit_rows",
]

# float eps range for the logarithmic family; the lower clamp avoids
# denormal-driven loss in |ln eps|
LOG_EPS_MIN = 1e-300
LOG_EPS_MAX = 1.0 / math.e - 1e-12


@dataclass(frozen=True)
class NegLogEps:
    """A scale parameter given as L = |ln eps|, for eps below float range."""

    neg_log: float

    def __post_init__(self):
        if not (self.neg_log > 0.0):
            raise InputError("neg_log must be positive")


EpsLike = Union[float, NegLogEps]


def _neg_log(eps: EpsLike) -> float:
    if isinstance(eps, NegLogEps):
        return eps.neg_log
    eps = float(eps)
    if not (eps > 0.0) or not math.isfinite(eps):
        raise InputError(f"epsilon must be positive and finite, got {eps}")
    return -math.log(eps)


def _as_float_eps(eps: EpsLike) -> float:
    if isinstance(eps, NegLogEps):
        return math.exp(-eps.neg_log)
    return float(eps)


@dataclass(frozen=True)
class RadialKernelFamily:
    """kind "trivial", "logarithmic" (with omega) or "sigma_approx" (with a
    sigma rule sigma_eps = sigma_ratio * eps in (0, eps))."""

    kind: str
    dim: int
    omega: float = 0.0
    sigma_ratio: float = 0.5

    def __post_init__(self):
        if self.kind not in ("trivial", "logarithmic", "sigma_approx"):
            raise InputError(f"kind: unknown kernel kind {self.kind!r}")
        if self.dim not in (1, 2, 3):
            raise InputError("dim: must be 1, 2 or 3")
        if self.kind == "logarithmic" and not (0.0 < self.omega < 1.0):
            raise InputError("omega: must lie in (0, 1)")
        if self.kind == "sigma_approx" and not (0.0 < self.sigma_ratio < 1.0):
            raise InputError("sigma_ratio: must lie in (0, 1), so that sigma lies in (0, eps)")

    def label(self) -> str:
        if self.kind == "logarithmic":
            return f"logarithmic(omega={self.omega:g})"
        if self.kind == "sigma_approx":
            return f"sigma_approx(ratio={self.sigma_ratio:g})"
        return "trivial"

    def check_eps(self, eps: EpsLike) -> float:
        """Validate eps and return L = |ln eps|."""
        L = _neg_log(eps)
        if self.kind == "logarithmic":
            if not isinstance(eps, NegLogEps):
                e = float(eps)
                if not (LOG_EPS_MIN < e <= LOG_EPS_MAX):
                    raise InputError(
                        f"logarithmic kernel needs eps in ({LOG_EPS_MIN:g}, 1/e]; got {e:g}")
            elif L <= 1.0:
                raise InputError("logarithmic kernel needs |ln eps| > 1")
        return L


def _log_norm_denominator(L: float, omega: float) -> float:
    # |ln eps| - |ln R_{eps,omega}| = L - omega*ln(L), positive for L > 1
    return L - omega * math.log(L)


def kernel_window(k: RadialKernelFamily, eps: EpsLike):
    """Support [lo, hi] of the radial profile at scale eps."""
    L = k.check_eps(eps)
    if k.kind == "trivial":
        e = _as_float_eps(eps)
        return 0.0, e
    if k.kind == "logarithmic":
        return _as_float_eps(eps), L ** (-k.omega)
    e = _as_float_eps(eps)
    sig = k.sigma_ratio * e
    return e - sig, e + sig


def kernel_profile(k: RadialKernelFamily, eps: EpsLike) -> PiecewisePower:
    """Density rho_eps as a piecewise power law; kernel_profile(k, eps)(r)
    evaluates it at radii r > 0.  Needs eps in float range; the audits reach
    smaller eps through their |ln eps| closed forms."""
    L = k.check_eps(eps)
    e = _as_float_eps(eps)
    if e == 0.0:
        raise InputError("eps underflows float64; use the |ln eps| audit paths")
    n = k.dim
    if k.kind == "trivial":
        # density 1 / (eps^N V_N) = exp(N L - ln V_N), assembled in log space;
        # np.exp overflows to inf, which the engines' overflow guard reports
        coef = float(np.exp(n * L - math.log(unit_ball_volume(n))))
        return PiecewisePower(pieces=((0.0, e, coef, 0.0),))
    if k.kind == "logarithmic":
        r_hi = L ** (-k.omega)
        coef = 1.0 / (sphere_measure(n) * _log_norm_denominator(L, k.omega))
        return PiecewisePower(pieces=((e, r_hi, coef, -float(n)),))
    sig = k.sigma_ratio * e
    coef = 1.0 / (2.0 * sig * sphere_measure(n))
    return PiecewisePower(pieces=((e - sig, e + sig, coef, -(n - 1.0)),))


def kernel_mass(k: RadialKernelFamily, eps: EpsLike) -> QuadResult:
    """Mass of the kernel over R^N via the analytic radial path; expected 1."""
    L = k.check_eps(eps)
    n = k.dim
    if k.kind == "trivial":
        # H * eps^N / (N * eps^N * V_N) = 1 since V_N = H / N
        value = sphere_measure(n) / (n * unit_ball_volume(n))
    elif k.kind == "logarithmic":
        value = (L - k.omega * math.log(L)) / _log_norm_denominator(L, k.omega)
    else:
        # int of r^{1-N} r^{N-1} over an interval of length 2 sigma
        value = 1.0
    return QuadResult(value=float(value), error_estimate=4.0 * np.finfo(float).eps,
                      evaluations_used=0)


def support_tail(k: RadialKernelFamily, eps: EpsLike, delta: float) -> float:
    """int_delta^inf rho_eps(r) r^{N-1} dr (no sphere factor); full value is
    1 / H^{N-1}(S^{N-1}), and the tail must vanish along eps -> 0."""
    if delta <= 0.0:
        raise InputError("delta must be positive")
    L = k.check_eps(eps)
    n = k.dim
    h = sphere_measure(n)
    log_delta = math.log(delta)
    if k.kind == "trivial":
        if log_delta >= -L:
            return 0.0
        e = _as_float_eps(eps)
        return (e ** n - delta ** n) / (n * e ** n * unit_ball_volume(n))
    if k.kind == "logarithmic":
        log_rhi = -k.omega * math.log(L)
        if log_delta >= log_rhi:
            return 0.0
        lo = max(log_delta, -L)
        return (log_rhi - lo) / (h * _log_norm_denominator(L, k.omega))
    e = _as_float_eps(eps)
    sig = k.sigma_ratio * e
    lo = max(delta, e - sig)
    hi = e + sig
    if lo >= hi:
        return 0.0
    return (hi - lo) / (2.0 * sig * h)


def log_kernel_moment(eps: EpsLike, omega: float, alpha: float, n: int) -> float:
    """eps^alpha * int rho_{eps,omega}(|z|) |z|^-alpha dz via the closed form
    (1/alpha) (1 - eps^alpha |ln eps|^{alpha omega}) / (|ln eps| - omega ln|ln eps|)."""
    if alpha <= 0.0:
        raise InputError("alpha must be positive")
    k = RadialKernelFamily("logarithmic", dim=n, omega=omega)
    L = k.check_eps(eps)
    # eps^alpha |ln eps|^{alpha omega} = exp(-alpha L + alpha omega ln L)
    tail = math.exp(-alpha * L + alpha * omega * math.log(L))
    return (1.0 - tail) / (alpha * _log_norm_denominator(L, omega))


def generic_moment(k: RadialKernelFamily, eps: float, alpha: float) -> float:
    """eps^alpha * int rho_eps(|z|)|z|^-alpha dz for float-range eps, exact."""
    if alpha <= 0.0:
        raise InputError("alpha must be positive")
    prof = kernel_profile(k, eps)
    e = _as_float_eps(eps)
    return e ** alpha * sphere_measure(k.dim) * prof.moment(0.0, math.inf,
                                                            k.dim - 1.0 - alpha)


def audit_rows(k: RadialKernelFamily, eps_list, deltas=(0.1, 0.01),
               alphas=(1.0,)) -> list[dict]:
    """Rows for the kernel-check CSV: per eps, mass, tails and moments."""
    rows = []
    for eps in eps_list:
        L = k.check_eps(eps)
        mass = kernel_mass(k, eps)
        row = {"neg_log_eps": L, "epsilon": _as_float_eps(eps),
               "mass": mass.value, "mass_err": mass.error_estimate}
        for d in deltas:
            row[f"tail_{d:g}"] = support_tail(k, eps, d)
        for a in alphas:
            if k.kind == "logarithmic":
                row[f"moment_{a:g}"] = log_kernel_moment(eps, k.omega, a, k.dim)
            elif not isinstance(eps, NegLogEps):
                try:
                    row[f"moment_{a:g}"] = generic_moment(k, float(eps), a)
                except DivergenceError:
                    row[f"moment_{a:g}"] = math.inf
            else:
                row[f"moment_{a:g}"] = float("nan")
        rows.append(row)
    return rows
