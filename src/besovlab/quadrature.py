"""Deterministic and stratified-Monte-Carlo integration engines.

Everything singular here is reduced through the substitution z = y - x and
polar coordinates z = t*n, so a double integral with a radial weight w(|x-y|)
becomes

    I = int_a^b t^(N-1) w(t) S(t) dt,
    S(t) = int_{S^{N-1}} F(t n) dH^{N-1}(n),
    F(h) = int chi_E(x) chi_E(x+h) |u(x+h)-u(x)|^q dx.

The radial weight w is always a `PiecewisePower`.  For piecewise-constant 1D
fields F is piecewise linear in t, so I is exact: F at its breakpoints times
closed-form moments of w.  Other 1D fields and indicator fields in 2D/3D use
closed-form or panel shift integrals plus panel Gauss-Legendre in t;
otherwise the (x, t, n) triple is sampled with log-radial strata and a
counter-based RNG stream per stratum, so parallel and serial runs reduce
identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import CapabilityError, DivergenceError, InputError
from .fields import Field, RegionSpec, eval_field, knots_1d, support_bbox

__all__ = [
    "QuadBudget",
    "QuadResult",
    "sphere_measure",
    "sphere_rule",
    "integrate_sphere",
    "PiecewisePower",
    "radial_integral",
    "shift_integral",
    "pair_integral",
    "double_integral_singular",
    "OVERFLOW_GUARD",
]

OVERFLOW_GUARD = 1e12


@dataclass(frozen=True)
class QuadBudget:
    max_evaluations: int = 200_000
    target_rel_error: float = 1e-3
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_evaluations < 1:
            raise InputError("max_evaluations must be >= 1")
        if not (0.0 < self.target_rel_error < 1.0):
            raise InputError("target_rel_error must lie in (0, 1)")


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations_used: int
    low_confidence: bool = False


def sphere_measure(n: int) -> float:
    """H^{N-1}(S^{N-1}) for N = 1, 2, 3 (2, 2*pi, 4*pi)."""
    if n == 1:
        return 2.0
    if n == 2:
        return 2.0 * math.pi
    if n == 3:
        return 4.0 * math.pi
    raise CapabilityError(f"unsupported dimension {n}")


# ---------------------------------------------------------------------------
# Sphere rules
# ---------------------------------------------------------------------------

def sphere_rule(n: int, rule: str):
    """Nodes (M, N) and weights (M,) for the unnormalized H^{N-1} integral."""
    if rule == "exact-2pt":
        if n != 1:
            raise InputError("exact-2pt applies to N=1 only")
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if rule.startswith("trapezoid-"):
        if n != 2:
            raise InputError("trapezoid rules apply to N=2 only")
        m = int(rule.split("-")[-1])
        theta = 2.0 * math.pi * np.arange(m) / m
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        return nodes, np.full(m, 2.0 * math.pi / m)
    if rule.startswith("product-lat-long-"):
        if n != 3:
            raise InputError("product-lat-long rules apply to N=3 only")
        m = int(rule.split("-")[-1])
        klat = max(m // 2, 2)
        c, wlat = leggauss(klat)          # cos(phi) in [-1, 1]
        theta = 2.0 * math.pi * np.arange(m) / m
        s = np.sqrt(1.0 - c ** 2)
        nodes = np.stack([
            np.outer(s, np.cos(theta)).ravel(),
            np.outer(s, np.sin(theta)).ravel(),
            np.outer(c, np.ones(m)).ravel(),
        ], axis=-1)
        weights = np.outer(wlat, np.full(m, 2.0 * math.pi / m)).ravel()
        return nodes, weights
    raise InputError(f"unknown sphere rule {rule!r}")


def default_sphere_rule(n: int, m: int = 64) -> str:
    return {1: "exact-2pt", 2: f"trapezoid-{m}", 3: f"product-lat-long-{m}"}[n]


def _halve_rule(rule: str) -> Optional[str]:
    if rule == "exact-2pt":
        return None
    head, m = rule.rsplit("-", 1)
    m = int(m)
    if m < 8:
        return None
    return f"{head}-{m // 2}"


def integrate_sphere(g: Callable, n: int, rule: str) -> QuadResult:
    """Unnormalized integral of g over S^{N-1}; divide by sphere_measure(N)
    for the averaged form."""
    nodes, weights = sphere_rule(n, rule)
    vals = np.asarray(g(nodes), dtype=float)
    value = float(weights @ vals)
    evals = len(weights)
    coarse = _halve_rule(rule)
    if coarse is None:
        return QuadResult(value, 0.0, evals)
    cn, cw = sphere_rule(n, coarse)
    cvals = np.asarray(g(cn), dtype=float)
    err = abs(value - float(cw @ cvals))
    return QuadResult(value, err, evals + len(cw))


# ---------------------------------------------------------------------------
# Radial integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewisePower:
    """Profile of the form sum_i coef_i * r^power_i on [lo_i, hi_i).

    Every radial weight of the pair-integral engine is one: t^-s, and each
    kernel profile times t^-rq."""

    pieces: tuple  # of (lo, hi, coef, power)

    @staticmethod
    def power_law(s: float) -> "PiecewisePower":
        """The weight t^-s on (0, inf)."""
        return PiecewisePower(pieces=((0.0, math.inf, 1.0, -float(s)),))

    def times_power(self, e: float) -> "PiecewisePower":
        """This profile multiplied by r^e."""
        return PiecewisePower(pieces=tuple((lo, hi, coef, power + e)
                                           for lo, hi, coef, power in self.pieces))

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise InputError("profile radius must be positive")
        out = np.zeros_like(r)
        for lo, hi, coef, power in self.pieces:
            mask = (r >= lo) & (r < hi)
            if np.any(mask):
                # evaluate in log space; r^power can overflow for power < -1
                out[mask] += coef * np.exp(power * np.log(r[mask]))
        return out

    def moment(self, a: float, b: float, extra_power: float) -> float:
        """Exact integral of profile(r) * r^extra_power over [a, b]."""
        total = 0.0
        for lo, hi, coef, power in self.pieces:
            p0 = max(a, lo)
            p1 = min(b, hi)
            if p1 <= p0:
                continue
            p = power + extra_power
            if p1 == math.inf:
                if coef != 0.0 and p >= -1.0:
                    raise DivergenceError("divergent tail in radial integral")
                total += -coef * p0 ** (p + 1.0) / (p + 1.0)
            elif abs(p + 1.0) < 1e-14:
                if p0 == 0.0 and coef != 0.0:
                    raise DivergenceError("divergent core in radial integral")
                total += coef * (math.log(p1) - math.log(p0))
            else:
                if p0 == 0.0 and p < -1.0 and coef != 0.0:
                    raise DivergenceError("divergent core in radial integral")
                total += coef * (p1 ** (p + 1.0) - p0 ** (p + 1.0)) / (p + 1.0)
        return total


def radial_integral(profile: PiecewisePower, n: int,
                    bounds=(0.0, math.inf)) -> float:
    """H^{N-1}(S^{N-1}) * int_a^b profile(r) r^(N-1) dr = integral of
    profile(|z|) over the annulus a <= |z| <= b in R^N."""
    a, b = float(bounds[0]), float(bounds[1])
    if not (0.0 <= a < b):
        raise InputError(f"bad radial bounds [{a}, {b}]")
    value = sphere_measure(n) * profile.moment(a, b, n - 1.0)
    if not math.isfinite(value) or abs(value) > OVERFLOW_GUARD:
        raise DivergenceError("radial integral exceeded the overflow guard")
    return value


# ---------------------------------------------------------------------------
# Shift integrals  F(h) = int chi_E(x) chi_E(x+h) |u(x+h)-u(x)|^q dx
# ---------------------------------------------------------------------------

_GL_CACHE: dict = {}


def _gl(npts: int):
    if npts not in _GL_CACHE:
        x, w = leggauss(npts)
        _GL_CACHE[npts] = (x, w)
    return _GL_CACHE[npts]


def _panel_nodes(left: np.ndarray, right: np.ndarray, npts: int):
    """GL nodes/weights for the panels [left_i, right_i], panel by panel."""
    x, w = _gl(npts)
    mid = 0.5 * (right + left)
    half = 0.5 * (right - left)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _field_is_indicator(f: Field):
    """(region, amplitude) when f is a single-piece indicator, else None."""
    if f.kind != "piecewise" or len(f.payload["pieces"]) != 1:
        return None
    return f.payload["pieces"][0]


def _symdiff_measure(region: RegionSpec, h: np.ndarray) -> np.ndarray:
    """Lebesgue measure of A symmetric-difference (A - h), closed form;
    vectorized over shifts h of shape (..., N)."""
    n = region.dim
    if region.kind == "ball":
        r = region.radius
        # past |h| = 2r the shifted balls are disjoint; each formula is 0 there
        d = np.minimum(np.linalg.norm(h, axis=-1), 2.0 * r)
        if n == 1:
            overlap = 2.0 * r - d
        elif n == 2:
            # math.acos: numpy's SIMD arccos can differ from it in the last bit
            acos = np.vectorize(math.acos, otypes=[float])
            overlap = 2.0 * r * r * acos(d / (2.0 * r)) \
                - 0.5 * d * np.sqrt(4.0 * r * r - d * d)
        elif n == 3:
            overlap = math.pi * (4.0 * r + d) * (2.0 * r - d) ** 2 / 12.0
        else:
            raise CapabilityError("symmetric difference only for N <= 3")
        return 2.0 * (region.measure() - overlap)
    if region.kind == "box":
        side = np.asarray(region.hi) - np.asarray(region.lo)
        overlap = np.prod(np.maximum(0.0, side - np.abs(h)), axis=-1)
        return 2.0 * (region.measure() - overlap)
    raise CapabilityError(f"no symmetric-difference formula for {region.kind!r}")


def _region_1d_edges(region: Optional[RegionSpec]):
    if region is None:
        return []
    if region.kind == "box":
        return [region.lo[0], region.hi[0]]
    if region.kind == "half_space":
        return [region.offset / region.normal[0]]
    if region.kind == "union":
        out = []
        for p in region.parts:
            out.extend(_region_1d_edges(p))
        return out
    if region.kind == "complement":
        return _region_1d_edges(region.inner)
    raise CapabilityError(f"1D shift integral unsupported for region {region.kind!r}")


def _region_inactive(f: Field, region: Optional[RegionSpec], reach: float) -> bool:
    """True when chi_E factors cannot clip the integrand for |h| <= reach.

    The corner test is sound only for convex regions (box, ball); any other
    kind conservatively reports active."""
    if region is None:
        return True
    if region.kind not in ("box", "ball"):
        return False
    lo, hi = support_bbox(f)
    corners = np.stack(np.meshgrid(*zip(lo - reach, hi + reach), indexing="ij"),
                       axis=-1).reshape(-1, f.dim_in)
    return bool(np.all(region.contains(corners)))


def shift_integral(f: Field, region: Optional[RegionSpec], h, q: float,
                   budget: Optional[QuadBudget] = None, stream: int = 0):
    """F(h) with one-sigma-free deterministic paths where available.

    Returns (value, error_estimate).  region=None integrates over R^N.
    """
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if h.shape != (f.dim_in,):
        raise InputError("shift vector dimension mismatch")
    hnorm = float(np.linalg.norm(h))
    if hnorm == 0.0:
        return 0.0, 0.0
    ind = _field_is_indicator(f)
    if ind is not None and f.dim_in >= 2 and ind[0].kind in ("ball", "box") \
            and _region_inactive(f, region, hnorm):
        amp = float(np.linalg.norm(np.asarray(ind[1], dtype=float)))
        return amp ** q * float(_symdiff_measure(ind[0], h)), 0.0
    if f.dim_in == 1:
        return _shift_integral_1d(f, region, float(h[0]), q)
    return _shift_integral_mc(f, region, h, q, budget or QuadBudget(), stream)


def _edge_points_1d(f: Field, region) -> np.ndarray:
    """The knots of a 1D field and the edges of its region."""
    ks = knots_1d(f)
    return np.concatenate([[] if ks is None else ks, _region_1d_edges(region)])


def _merged_edges_1d(f: Field, region, ts: np.ndarray):
    """Candidate x-edges of F(t)'s integrand, one sorted row per radius t.

    A row holds the knots and region edges, as they are and shifted by -t,
    and the ends lo, hi of the x-range; a candidate outside [lo, hi] reads
    +inf and a value may repeat.  Returns (rows, lo, hi)."""
    pts = _edge_points_1d(f, region)
    lo_s, hi_s = support_bbox(f)
    lo = np.minimum(lo_s[0], lo_s[0] - ts)
    hi = np.maximum(hi_s[0], hi_s[0] - ts)
    if region is not None and region.kind == "box":
        lo = np.maximum(lo, region.lo[0] - np.abs(ts))
        hi = np.minimum(hi, region.hi[0] + np.abs(ts))
    rows = np.concatenate([np.broadcast_to(pts, (len(ts), len(pts))),
                           pts - ts[:, None], lo[:, None], hi[:, None]], axis=1)
    rows[(rows < lo[:, None]) | (rows > hi[:, None])] = np.inf
    rows.sort(axis=1)
    return rows, lo, hi


def _quality_1d(f: Field) -> dict:
    """Panel counts/orders per field cost class: closed-form fields get the
    dense settings, nested-quadrature fields the cheap ones."""
    if f.kind == "smooth" and f.payload.get("formula") == "callable_1d":
        return {"t_panels": 28, "t_order": 8, "x_div": 40, "x_order": 8}
    if f.kind == "grid":
        return {"t_panels": 36, "t_order": 8, "x_div": 64, "x_order": 6}
    return {"t_panels": 48, "t_order": 12, "x_div": 64, "x_order": 12}


def _shift_integral_1d(f: Field, region, t: float, q: float):
    """F(t) with an error estimate: exact for piecewise-constant fields,
    else panel Gauss-Legendre of orders 12 and 6 with the error their
    difference."""
    if f.kind != "piecewise":
        vhi, vlo = _smooth_shift_integrals_1d(f, region, np.array([t]), q, 64, (12, 6))[0]
        return float(vhi), abs(float(vhi) - float(vlo))
    pts = _edge_points_1d(f, region)
    if t != 0.0 and np.any(pts - t == pts):
        # |t| is below half an ulp of an edge e, so e - t rounds to e and
        # [e - t, e] would vanish.  Sum over pairs of the intervals I_i the
        # edges cut the line into: the integrand is constant, c_ij, for
        # x in I_i and x + t in I_j, over a length formed from differences
        # of edges before t is added, so no edge - t is ever rounded
        t = abs(t)
        p = np.unique(pts)
        a = np.concatenate([[-np.inf], p])
        b = np.concatenate([p, [np.inf]])
        pad = 1.0 + np.abs(p[[0, -1]])
        mid = np.concatenate([[p[0] - pad[0]], 0.5 * (p[1:] + p[:-1]),
                              [p[-1] + pad[1]]])[:, None]
        u = eval_field(f, mid)
        c = np.linalg.norm(u[None, :, :] - u[:, None, :], axis=-1) ** q
        if region is not None:
            inside = region.contains(mid)
            c = c * inside[:, None] * inside[None, :]
        length = np.minimum(np.minimum(b - a, (b - a)[:, None]),
                            np.minimum(b[:, None] - a[None, :] + t,
                                       b[None, :] - a[:, None] - t))
        hit = c > 0.0
        return float(np.sum(c[hit] * np.maximum(length[hit], 0.0))), 0.0
    rows, lo, hi = _merged_edges_1d(f, region, np.array([t]))
    edges = np.unique(rows[0][np.isfinite(rows[0])])
    if hi[0] <= lo[0] or len(edges) < 2:
        return 0.0, 0.0
    # integrand is constant on every merged interval: exact
    mids = 0.5 * (edges[1:] + edges[:-1])
    lens = np.diff(edges)
    vals = _pair_values(f, region, mids, t, q)
    return float(lens @ vals), 0.0


# x-nodes per field evaluation when shift integrals are batched over radii;
# it bounds the size of the evaluation's temporaries
_BLOCK_POINTS = 1 << 13


def _smooth_shift_integrals_1d(f: Field, region, ts: np.ndarray, q: float,
                               x_div: int, x_orders) -> np.ndarray:
    """F(t) for each radius t in ts by panel Gauss-Legendre in x, once per
    order in x_orders: an array of shape (len(ts), len(x_orders)).

    Each merged interval is split into equal panels no longer than
    (hi - lo) / x_div.  Consecutive radii share one field evaluation at x and
    one at x + t per block of about _BLOCK_POINTS nodes, and each value is
    still its own radius's weights @ integrand values."""
    out = np.zeros((len(ts), len(x_orders)))
    rows, lo, hi = _merged_edges_1d(f, region, ts)
    # merged intervals in radius order, each split into k equal panels
    row, col = np.nonzero((rows[:, 1:] > rows[:, :-1]) & np.isfinite(rows[:, 1:]))
    left = rows[row, col]
    width = rows[row, col + 1] - left
    k = np.maximum(1, np.ceil(width / ((hi - lo) / x_div)[row])).astype(np.int64)
    npan = np.bincount(row, weights=k, minlength=len(ts)).astype(np.int64)
    npts = npan * sum(x_orders)
    block = (np.cumsum(npts) - npts) // _BLOCK_POINTS
    cuts = np.concatenate([[0], np.flatnonzero(np.diff(block)) + 1, [len(ts)]])
    for r0, r1 in zip(cuts[:-1], cuts[1:]):
        i0, i1 = np.searchsorted(row, [r0, r1])
        if i0 == i1:
            continue
        # each panel's right end; a radius's first panel starts at its lo
        kb = k[i0:i1]
        iv = np.repeat(np.arange(i0, i1), kb)
        j = np.arange(len(iv)) - np.repeat(np.cumsum(kb) - kb, kb) + 1
        right = left[iv] + width[iv] * j / k[iv]
        prow = row[iv]
        pleft = np.concatenate([[0.0], right[:-1]])
        first = np.concatenate([[True], prow[1:] != prow[:-1]])
        pleft[first] = rows[prow[first], 0]
        xs, shifts, weights = [], [], []
        for order in x_orders:
            nodes, w = _panel_nodes(pleft, right, order)
            xs.append(nodes)
            weights.append(w)
            shifts.append(np.repeat(ts[prow], order))
        vals = _pair_values(f, region, np.concatenate(xs),
                            np.concatenate(shifts)[:, None], q)
        p1 = np.cumsum(npan[r0:r1])
        off = 0
        for c, (order, w) in enumerate(zip(x_orders, weights)):
            for r, e in zip(range(r0, r1), p1 * order):
                s = e - npan[r] * order
                out[r, c] = w[s:e] @ vals[off + s:off + e]
            off += len(w)
    return out


def _pair_values(f: Field, region, xs: np.ndarray, t, q: float):
    """|u(x+t)-u(x)|^q chi_E(x) chi_E(x+t) at the points xs; t is a scalar or
    a column of one shift per point."""
    pts = xs[:, None]
    du = eval_field(f, pts + t) - eval_field(f, pts)
    vals = np.linalg.norm(du, axis=-1) ** q
    if region is not None:
        vals = vals * region.contains(pts) * region.contains(pts + t)
    return vals


def _stream_rng(seed: int, stream: int, stratum: int):
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(((stream & 0xFFFFFFFFF) << 24) | (stratum & 0xFFFFFF))],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sample_box(f: Field, region, reach: float):
    lo_s, hi_s = support_bbox(f)
    lo, hi = lo_s - reach, hi_s + reach
    if region is not None:
        bb = region.bbox()
        if bb is not None:
            lo = np.maximum(lo, bb[0])
            hi = np.minimum(hi, bb[1])
    return lo, hi


def _shift_integral_mc(f: Field, region, h: np.ndarray, q: float,
                       budget: QuadBudget, stream: int):
    lo, hi = _sample_box(f, region, float(np.linalg.norm(h)))
    if np.any(hi <= lo):
        return 0.0, 0.0
    vol = float(np.prod(hi - lo))
    m = min(budget.max_evaluations, 200_000)
    rng = _stream_rng(budget.rng_seed, stream, 0)
    x = lo + (hi - lo) * rng.random((m, f.dim_in))
    du = eval_field(f, x + h) - eval_field(f, x)
    vals = np.linalg.norm(du, axis=-1) ** q
    if region is not None:
        vals = vals * region.contains(x) * region.contains(x + h)
    value = vol * float(np.mean(vals))
    err = 2.0 * vol * float(np.std(vals)) / math.sqrt(m)
    return value, err


# ---------------------------------------------------------------------------
# The radially-weighted pair integral engine
# ---------------------------------------------------------------------------

def _t_integral(tfunc: Callable, a: float, b: float, kinks: Sequence[float] = (),
                n_panels: int = 48, order: int = 12, truncated_at: float = 0.0):
    """Panel Gauss-Legendre of tfunc over log-spaced panels of [a, b].

    tfunc maps an array of radii to integrand values.  Returns (value, err)
    with err from an embedded lower-order rule; when the window was clipped
    at a > truncated_at, the clipped mass estimate a * |tfunc(a)| joins err.
    """
    if b <= a:
        return 0.0, 0.0
    edges = np.geomspace(a, b, n_panels + 1)
    inner = [k for k in kinks if a < k < b]
    if inner and len(inner) <= 64:
        edges = np.unique(np.concatenate([edges, np.asarray(inner, dtype=float)]))
    nhi, whi = _panel_nodes(edges[:-1], edges[1:], order)
    nlo, wlo = _panel_nodes(edges[:-1], edges[1:], max(order // 2, 2))
    vhi = float(whi @ np.asarray(tfunc(nhi), dtype=float))
    vlo = float(wlo @ np.asarray(tfunc(nlo), dtype=float))
    err = abs(vhi - vlo)
    if a > truncated_at:
        err += 2.0 * a * abs(float(np.asarray(tfunc(np.array([a])), dtype=float)[0]))
    return vhi, err


def _pair_kinks(f: Field, b: float):
    ks = knots_1d(f)
    if ks is not None and len(ks) <= 32:
        diffs = np.abs(ks[:, None] - ks[None, :]).ravel()
        return sorted(set(float(d) for d in diffs if 0.0 < d < b))
    ind = _field_is_indicator(f)
    if ind is not None:
        region = ind[0]
        if region.kind == "ball":
            return [2.0 * region.radius] if 2.0 * region.radius < b else []
        if region.kind == "box":
            side = np.asarray(region.hi) - np.asarray(region.lo)
            ks = list(side) + [float(np.linalg.norm(side))]
            return sorted(set(k for k in ks if k < b))
    return []


def _has_jumps(f: Field) -> bool:
    if f.kind != "piecewise":
        return False
    return any(np.linalg.norm(np.asarray(a, dtype=float)) > 0.0
               for _, a in f.payload["pieces"])


def _pair_integral_piecewise_1d(f: Field, region, weight: PiecewisePower,
                                a: float, b: float, q: float) -> float:
    """Exact 2 int_a^b w(t) F(t) dt.  F can change slope only where t is a
    difference of two knots or region edges; between those breakpoints it is
    linear, so each segment is F's end values against moments of w."""
    pts = _edge_points_1d(f, region)
    br = np.unique(np.abs(pts[:, None] - pts[None, :]))
    ts = [a] + br[(br > a) & (br < b)].tolist() + [b]
    fs = [_shift_integral_1d(f, region, t, q)[0] for t in ts]
    total = 0.0
    for t0, t1, f0, f1 in zip(ts[:-1], ts[1:], fs[:-1], fs[1:]):
        slope = (f1 - f0) / (t1 - t0)
        total += slope * weight.moment(t0, t1, 1.0)
        # F(0) = 0, so a segment from t = 0 has no constant part; skipping
        # it leaves the divergence of a t^-s weight, s >= 2, to moment(., ., 1)
        const = f0 - slope * t0
        if const != 0.0:
            total += const * weight.moment(t0, t1, 0.0)
    return 2.0 * total


def pair_integral(f: Field, region: Optional[RegionSpec], weight: PiecewisePower,
                  window, q: float, budget: Optional[QuadBudget] = None,
                  stream: int = 0) -> QuadResult:
    """integral over E x E of  weight(|x-y|) |u(x)-u(y)|^q  dy dx.

    window = (a, b) limits |x - y|.  With a = 0, the weight's piece starting
    at 0, ~ t^-s, diverges on a field with jumps once s >= N+1."""
    budget = budget or QuadBudget()
    n = f.dim_in
    a, b = float(window[0]), float(window[1])
    if not (0.0 <= a < b) or not math.isfinite(b):
        raise InputError(f"bad pair-integral window [{a}, {b}]")
    core = [-power for lo, _, coef, power in weight.pieces if lo == 0.0 and coef != 0.0]
    if a == 0.0 and core and core[0] >= n + 1.0 and _has_jumps(f):
        raise DivergenceError(
            f"weight exponent {core[0]} >= N+1 diverges on a jump field")

    if n == 1 and f.kind == "piecewise":
        try:
            value = _pair_integral_piecewise_1d(f, region, weight, a, b, q)
        except OverflowError:   # a moment of the weight beyond float range
            value = math.inf
        _guard(value)
        return QuadResult(value, 0.0, 0)

    kinks = _pair_kinks(f, b)
    t0 = a if a > 0.0 else b * 1e-9
    if n == 1:
        quality = _quality_1d(f)

        def tfunc(ts):
            fs = _smooth_shift_integrals_1d(f, region, ts, q, quality["x_div"],
                                            (quality["x_order"],))[:, 0]
            return 2.0 * fs * weight(ts)
        value, err = _t_integral(tfunc, t0, b, kinks,
                                 n_panels=quality["t_panels"],
                                 order=quality["t_order"], truncated_at=a)
        _guard(value)
        return QuadResult(value, err, 0)

    ind = _field_is_indicator(f)
    if ind is not None and ind[0].kind in ("ball", "box") \
            and _region_inactive(f, region, b):
        amp = float(np.linalg.norm(np.asarray(ind[1], dtype=float))) ** q
        if ind[0].kind == "ball":
            # |B sym-diff (B - t n)| is the same for every direction n
            def sphere_sum(ts):
                return sphere_measure(n) * _symdiff_measure(ind[0], ts[:, None] * np.eye(n)[0])
        else:
            nodes, wts = sphere_rule(n, default_sphere_rule(n))

            def sphere_sum(ts):
                return _symdiff_measure(ind[0], ts[:, None, None] * nodes[None, :, :]) @ wts

        def tfunc(ts):
            return ts ** (n - 1) * weight(ts) * amp * sphere_sum(ts)
        value, err = _t_integral(tfunc, t0, b, kinks, truncated_at=a)
        _guard(value)
        return QuadResult(value, err, 0)

    return _pair_integral_mc(f, region, weight, (a, b), q, budget, stream)


def _guard(value: float):
    if not math.isfinite(value) or abs(value) > OVERFLOW_GUARD:
        raise DivergenceError("pair integral exceeded the overflow guard")


def _unit_directions(rng, m: int, n: int) -> np.ndarray:
    if n == 2:
        theta = 2.0 * math.pi * rng.random(m)
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    v = rng.standard_normal((m, n))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _pair_integral_mc(f: Field, region, weight: PiecewisePower, window, q,
                      budget: QuadBudget, stream: int) -> QuadResult:
    n = f.dim_in
    a, b = window
    t_lo = a if a > 0.0 else b * 1e-6
    # keep the sample count within the budget: evaluations_used counts
    # integrand samples, never more than max_evaluations
    n_strata = min(32, max(1, budget.max_evaluations // 64))
    edges = np.geomspace(t_lo, b, n_strata + 1)
    lo_x, hi_x = _sample_box(f, region, b)
    if np.any(hi_x <= lo_x):
        return QuadResult(0.0, 0.0, 0)
    vol = float(np.prod(hi_x - lo_x))
    h_meas = sphere_measure(n)
    per = max(budget.max_evaluations // n_strata, 1)
    total = 0.0
    var_sum = 0.0
    evals = 0
    for i in range(n_strata):
        lo_t, hi_t = float(edges[i]), float(edges[i + 1])
        ln_ratio = math.log(hi_t / lo_t)
        rng = _stream_rng(budget.rng_seed, stream, i)
        t = lo_t * np.exp(ln_ratio * rng.random(per))
        dirs = _unit_directions(rng, per, n)
        x = lo_x + (hi_x - lo_x) * rng.random((per, n))
        shift = t[:, None] * dirs
        du = eval_field(f, x + shift) - eval_field(f, x)
        vals = np.linalg.norm(du, axis=-1) ** q
        if region is not None:
            vals = vals * region.contains(x) * region.contains(x + shift)
        # 1/p(t) = t * ln_ratio for the log-uniform radial draw
        vals = vals * weight(t) * t ** (n - 1) \
            * (t * ln_ratio) * h_meas * vol
        mean = float(np.mean(vals))
        se = float(np.std(vals)) / math.sqrt(per)
        total += mean
        var_sum += se * se
        evals += per
        _guard(total)
    err = 2.0 * math.sqrt(var_sum)
    low = err > budget.target_rel_error * max(abs(total), 1e-300)
    return QuadResult(total, err, evals, low_confidence=low)


# ---------------------------------------------------------------------------
# Public singular double integral
# ---------------------------------------------------------------------------

def _window_bounds(window, region: Optional[RegionSpec], f: Field):
    if region is not None:
        bb = region.bbox()
        if bb is None:
            raise InputError("double_integral_singular needs a bounded region")
        diam = float(np.linalg.norm(bb[1] - bb[0]))
    else:
        lo, hi = support_bbox(f)
        diam = 2.0 * float(np.linalg.norm(hi - lo))
    if window is None or window == "full" or (isinstance(window, tuple) and window[0] == "full"):
        return 0.0, diam
    if isinstance(window, tuple) and window[0] == "ball":
        return 0.0, float(window[1])
    if isinstance(window, tuple) and window[0] == "annulus":
        return float(window[1]), min(float(window[2]), diam)
    raise InputError(f"unknown window spec {window!r}")


def double_integral_singular(f: Field, region: Optional[RegionSpec], s: float,
                             q: float, window, budget: Optional[QuadBudget] = None,
                             stream: int = 0) -> QuadResult:
    """Estimate the double integral of |u(x)-u(y)|^q / |x-y|^s over E x E
    restricted to |x-y| inside the window ("full", ("ball", eps) or
    ("annulus", beta, gamma))."""
    return pair_integral(f, region, PiecewisePower.power_law(s),
                         _window_bounds(window, region, f), q, budget=budget,
                         stream=stream)
