"""Exact jump-side functionals and the dimensional constants of the limits.

Everything here is closed form: patch measures come from the geometry
whitelist, sphere moments from Wallis products and Gamma-function formulas,
and the only quadrature is the independent cross-check residual for the
first moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapabilityError, InputError
from .fields import JumpPatch, JumpSetSpec, RegionSpec, sphere_measure
from .quadrature import _panel_nodes

__all__ = [
    "ConstantsTable",
    "jump_variation",
    "directional_jump_variation",
    "dimensional_constants",
    "sphere_moment",
]


def sphere_moment(n: int, q: float) -> float:
    """int_{S^{N-1}} |z_1|^q dH^{N-1}(z), closed form for N = 1, 2, 3."""
    if q < 0:
        raise InputError("moment order must be nonnegative")
    if n == 1:
        return 2.0
    if n == 2:
        if float(q).is_integer():
            # Wallis: M(q) = M(q - 2) (q - 1) / q, exact to rounding where a
            # Gamma ratio is not (math.gamma(1.5) is 1 ulp off)
            m = 2.0 * math.pi if q % 2 == 0 else 4.0
            for k in range(int(q) % 2 + 2, int(q) + 1, 2):
                m *= (k - 1.0) / k
            return m
        return 2.0 * math.sqrt(math.pi) * math.gamma((q + 1.0) / 2.0) / math.gamma((q + 2.0) / 2.0)
    if n == 3:
        return 4.0 * math.pi / (q + 1.0)
    raise CapabilityError(f"unsupported dimension {n}")


@dataclass(frozen=True)
class ConstantsTable:
    """Sphere moments in both conventions: unnormalized integrals (dH) and
    sphere averages; reports must label which one they print."""

    n: int
    sphere_measure: float
    moment1: float
    c_n: float                    # moment1 / N
    moment_q: dict
    hat_c_q: dict                 # moment_q / sphere_measure
    nc_residual: Optional[float]  # |flat-integral cross-check - moment1|

    def to_dict(self) -> dict:
        return {
            "N": self.n,
            "sphere_measure": self.sphere_measure,
            "moment1": self.moment1,
            "C_N": self.c_n,
            "moment_q": {str(k): v for k, v in self.moment_q.items()},
            "hatC_qN": {str(k): v for k, v in self.hat_c_q.items()},
            "nc_residual": self.nc_residual,
        }


def _flat_moment_integral(n: int) -> float:
    """int over R^{N-1} of 2 (1 + |v|^2)^{-(N+1)/2} dv by direct quadrature:
    in the radius r = |v| (flat polar coordinates for N = 3), with
    r = u / (1 - u) and 32 Gauss-Legendre nodes in u on (0, 1)."""
    if n not in (2, 3):
        raise CapabilityError("flat moment cross-check defined for N = 2, 3")
    u, w = _panel_nodes(np.array([0.0]), np.array([1.0]), 32)
    r = u / (1.0 - u)
    # dv = |S^(N-2)| r^(N-2) dr, dr = du / (1 - u)^2, |S^0| = 2, |S^1| = 2 pi
    dv = sphere_measure(n - 1) * r ** (n - 2) / (1.0 - u) ** 2
    return float(w @ (2.0 * (1.0 + r * r) ** (-(n + 1) / 2.0) * dv))


def dimensional_constants(n: int, q_list=(1.0, 2.0)) -> ConstantsTable:
    if n not in (1, 2, 3):
        raise CapabilityError(f"unsupported dimension {n}")
    h = sphere_measure(n)
    m1 = sphere_moment(n, 1.0)
    mq = {float(q): sphere_moment(n, float(q)) for q in q_list}
    hat = {q: v / h for q, v in mq.items()}
    residual = None if n == 1 else abs(_flat_moment_integral(n) - m1)
    return ConstantsTable(n=n, sphere_measure=h, moment1=m1, c_n=m1 / n,
                          moment_q=mq, hat_c_q=hat, nc_residual=residual)


# ---------------------------------------------------------------------------
# Jump variations
# ---------------------------------------------------------------------------

def _patch_clip_fraction(patch: JumpPatch, s: Optional[RegionSpec]) -> float:
    """Fraction of the patch measure inside S; CapabilityError when the
    clipping is not closed form."""
    if s is None:
        return 1.0
    pts = _patch_probe_points(patch)
    inside = s.contains(pts)
    if np.all(inside):
        return 1.0
    if not np.any(inside):
        return 0.0
    if patch.geometry == "point":
        # single point: all() and any() disagree only with several probes
        return 1.0 if inside[0] else 0.0
    raise CapabilityError(
        f"region clipping of a {patch.geometry} patch is not closed form")


def _patch_probe_points(patch: JumpPatch) -> np.ndarray:
    g = patch.geometry
    p = patch.params
    if g == "point":
        return np.asarray(p["location"], dtype=float).reshape(1, -1)
    if g in ("segment", "rect"):
        center = np.asarray(p["center"], dtype=float)
        n = center.shape[0]
        axis = p["axis"]
        others = [k for k in range(n) if k != axis]
        half = np.asarray(p["half_extents"], dtype=float)
        corners = [center.copy()]
        for signs in np.ndindex(*(2,) * len(others)):
            c = center.copy()
            for k, sgn in zip(others, signs):
                c[k] += (1.0 if sgn else -1.0) * half[others.index(k)]
            corners.append(c)
        return np.stack(corners)
    if g in ("circle", "sphere"):
        c = np.asarray(p["center"], dtype=float)
        r = p["radius"]
        n = c.shape[0]
        pts = [c]
        for k in range(n):
            for sgn in (-1.0, 1.0):
                e = c.copy()
                e[k] += sgn * r
                pts.append(e)
        return np.stack(pts)
    raise CapabilityError(f"unknown patch geometry {g!r}")


def jump_variation(js: JumpSetSpec, q: float, s: Optional[RegionSpec] = None) -> float:
    """Sum over patches of int_{patch and S} |u+ - u-|^q dH^{N-1}."""
    total = 0.0
    for patch in js.patches:
        frac = _patch_clip_fraction(patch, s)
        if frac == 0.0:
            continue
        total += patch.jump_size ** q * patch.measure * frac
    return total


def directional_jump_variation(js: JumpSetSpec, q: float, n,
                               s: Optional[RegionSpec] = None) -> float:
    """Sum over patches of int |u+ - u-|^q |nu . n| dH^{N-1}; closed form for
    flat patches (constant normal) and circles/spheres (|cos| arc integrals)."""
    n = np.atleast_1d(np.asarray(n, dtype=float))
    total = 0.0
    for patch in js.patches:
        frac = _patch_clip_fraction(patch, s)
        if frac == 0.0:
            continue
        amp = patch.jump_size ** q
        if patch.normal is not None:
            if patch.normal.shape != n.shape:
                raise InputError("direction dimension does not match the patch")
            total += amp * abs(float(patch.normal @ n)) * patch.measure * frac
        elif patch.geometry == "circle":
            if frac != 1.0:
                raise CapabilityError("clipped circular patches are not closed form")
            total += amp * 4.0 * patch.params["radius"] * float(np.linalg.norm(n))
        elif patch.geometry == "sphere":
            if frac != 1.0:
                raise CapabilityError("clipped spherical patches are not closed form")
            r = patch.params["radius"]
            total += amp * sphere_moment(3, 1.0) * r * r * float(np.linalg.norm(n))
        else:
            raise CapabilityError(f"unknown patch geometry {patch.geometry!r}")
    return total
