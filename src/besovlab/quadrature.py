"""Deterministic and stratified-Monte-Carlo integration engines.

Everything singular here is reduced through the substitution z = y - x and
polar coordinates z = t*n, so a double integral with a radial weight w(|x-y|)
becomes

    I = int_a^b t^(N-1) w(t) S(t) dt,
    S(t) = int_{S^{N-1}} F(t n) dH^{N-1}(n),
    F(h) = int chi_E(x) chi_E(x+h) |u(x+h)-u(x)|^q dx.

The radial weight w is always a `PiecewisePower`.  `pair_integral` runs the
first row of the table `_ENGINES` whose predicate holds, and its result names
that row in `QuadResult.path`:

- `lattice`: grid fields in 2D/3D with q = 2, the weight t^-s from 0 with
  N < s < N+2, a window (0, b) with b at least the support's diameter, and no
  region or a box around the support; exact for the multilinear field up to
  its kernel table's tolerance (see its section);
- `piecewise_1d`: piecewise-constant 1D fields; F is piecewise linear in t,
  so I is exact, F at its breakpoints times closed-form moments of w;
- `steps`: 1D step sums mollified by the tent, with q = 2 and no region or an
  interval around the support; exact up to roundoff, F from the unmollified F
  and the mollifier's autocorrelation (see its section);
- `smooth_1d`: other 1D fields; panel Gauss-Legendre in x for F, batched over
  the radii of a panel Gauss-Legendre rule in t;
- `indicator`: ball and box indicators in 2D/3D that the region does not clip
  within the window; closed-form symmetric differences and panel
  Gauss-Legendre in t;
- `mc`: everything else; stratified Monte Carlo over (x, t, n), with
  log-radial strata and a counter-based RNG stream per stratum, so parallel
  and serial runs reduce identically.

Every engine takes (f, region, weight, a, b, q, budget, stream) and returns a
`QuadResult`; `pair_integral` alone applies the overflow guard and the
low-confidence rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import CapabilityError, DivergenceError, InputError
from .fields import Field, RegionSpec, eval_field, knots_1d, sample_rows, support_bbox

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
    # the `_ENGINES` row that produced a pair integral; None elsewhere
    path: Optional[str] = None


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


def _indicator(f: Field, region: Optional[RegionSpec], reach: float):
    """(shape, |amplitude|) when f is the indicator of one ball or box in 2D
    or 3D and the chi_E factors cannot clip the integrand for |h| <= reach,
    else None.

    The corner test is sound only for convex regions (box, ball); any other
    kind conservatively counts as clipping."""
    if f.kind != "piecewise" or f.dim_in < 2 or len(f.payload["pieces"]) != 1:
        return None
    shape, amp = f.payload["pieces"][0]
    if shape.kind not in ("ball", "box"):
        return None
    if region is not None:
        if region.kind not in ("box", "ball"):
            return None
        lo, hi = support_bbox(f)
        corners = np.stack(np.meshgrid(*zip(lo - reach, hi + reach), indexing="ij"),
                           axis=-1).reshape(-1, f.dim_in)
        if not np.all(region.contains(corners)):
            return None
    return shape, float(np.linalg.norm(np.asarray(amp, dtype=float)))


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
    ind = _indicator(f, region, hnorm)
    if ind is not None:
        return ind[1] ** q * float(_symdiff_measure(ind[0], h)), 0.0
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
    if f.kind == "piecewise":
        return float(_piecewise_shifts_1d(f, region, np.array([t]), q)[0]), 0.0
    vhi, vlo = _smooth_shift_integrals_1d(f, region, np.array([t]), q, 64, (12, 6))[0]
    return float(vhi), abs(float(vhi) - float(vlo))


def _piecewise_shifts_1d(f: Field, region, ts: np.ndarray, q: float) -> np.ndarray:
    """F(t) for each radius t in ts, exact for a piecewise-constant 1D field.

    The knots and region edges cut the line into intervals I_i = [a_i, b_i].
    The integrand is constant, c_ij, for x in I_i and x + |t| in I_j, over a
    length formed from differences of edges before |t| is added, so no
    edge - t is ever rounded: F(t) = sum_ij c_ij |I_i intersect (I_j - |t|)|."""
    t = np.abs(ts)[:, None]
    p = np.unique(_edge_points_1d(f, region))
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
    i, j = np.nonzero(c > 0.0)
    length = np.minimum(np.minimum(b[j] - a[j], b[i] - a[i]),
                        np.minimum(b[i] - a[j] + t, b[j] - a[i] - t))
    return np.sum(c[i, j] * np.maximum(length, 0.0), axis=1)


# x-nodes per field evaluation when shift integrals are batched over radii;
# it bounds the size of the evaluation's temporaries
_BLOCK_POINTS = 1 << 13


def _smooth_shift_integrals_1d(f: Field, region, ts: np.ndarray, q: float,
                               x_div: int, x_orders,
                               nodes: Optional[list] = None) -> np.ndarray:
    """F(t) for each radius t in ts by panel Gauss-Legendre in x, once per
    order in x_orders: an array of shape (len(ts), len(x_orders)).

    Each merged interval is split into equal panels no longer than
    (hi - lo) / x_div.  Consecutive radii share one field evaluation at x and
    one at x + t per block of about _BLOCK_POINTS nodes, and each value is
    still its own radius's weights @ integrand values.  When a list is
    given as nodes, the number of x-nodes is appended to it."""
    out = np.zeros((len(ts), len(x_orders)))
    rows, lo, hi = _merged_edges_1d(f, region, ts)
    # merged intervals in radius order, each split into k equal panels
    row, col = np.nonzero((rows[:, 1:] > rows[:, :-1]) & np.isfinite(rows[:, 1:]))
    left = rows[row, col]
    width = rows[row, col + 1] - left
    k = np.maximum(1, np.ceil(width / ((hi - lo) / x_div)[row])).astype(np.int64)
    npan = np.bincount(row, weights=k, minlength=len(ts)).astype(np.int64)
    npts = npan * sum(x_orders)
    if nodes is not None:
        nodes.append(int(np.sum(npts)))
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


_SHIFT_CHUNK = 200_000


def _shift_integral_mc(f: Field, region, h: np.ndarray, q: float,
                       budget: QuadBudget, stream: int):
    lo, hi = _sample_box(f, region, float(np.linalg.norm(h)))
    if np.any(hi <= lo):
        return 0.0, 0.0
    vol = float(np.prod(hi - lo))
    # the whole budget, in chunks of at most _SHIFT_CHUNK points; chunk k
    # draws from stratum k of the stream
    chunks = []
    for k, start in enumerate(range(0, budget.max_evaluations, _SHIFT_CHUNK)):
        m = min(_SHIFT_CHUNK, budget.max_evaluations - start)
        rng = _stream_rng(budget.rng_seed, stream, k)
        x = lo + (hi - lo) * rng.random((m, f.dim_in))
        du = eval_field(f, x + h) - eval_field(f, x)
        vals = np.linalg.norm(du, axis=-1) ** q
        if region is not None:
            vals = vals * region.contains(x) * region.contains(x + h)
        chunks.append(vals)
    vals = np.concatenate(chunks)
    value = vol * float(np.mean(vals))
    err = 2.0 * vol * float(np.std(vals)) / math.sqrt(len(vals))
    return value, err


# ---------------------------------------------------------------------------
# The radially-weighted pair integral engine
# ---------------------------------------------------------------------------

def _t_integral(tfunc: Callable, a: float, b: float, kinks: Sequence[float] = (),
                n_panels: int = 48, order: int = 12):
    """Panel Gauss-Legendre of tfunc over log-spaced panels of [a, b].

    tfunc maps an array of radii to integrand values.  Returns (value, err)
    with err from an embedded lower-order rule."""
    if b <= a:
        return 0.0, 0.0
    edges = np.geomspace(a, b, n_panels + 1)
    inner = [k for k in kinks if a < k < b]
    if inner:
        edges = np.unique(np.concatenate([edges, np.asarray(inner, dtype=float)]))
    nhi, whi = _panel_nodes(edges[:-1], edges[1:], order)
    nlo, wlo = _panel_nodes(edges[:-1], edges[1:], max(order // 2, 2))
    vhi = float(whi @ np.asarray(tfunc(nhi), dtype=float))
    vlo = float(wlo @ np.asarray(tfunc(nlo), dtype=float))
    return vhi, abs(vhi - vlo)


def _core(g: Callable, weight: PiecewisePower, a: float, t0: float, p: float):
    """(value, err) of int_a^t0 w(t) g(t) dt when g(t) ~ c t^p on the core
    (a, t0): c is read at t0, and its change to 2 t0 is the core's error."""
    ts = np.array([t0, 2.0 * t0])
    c = g(ts) / ts ** p
    moment = weight.moment(a, t0, p)
    return float(c[0] * moment), float(abs((c[0] - c[1]) * moment))


def _shift_breaks_1d(f: Field, region) -> np.ndarray:
    """The radii, 0 among them, where a 1D F(t) can kink: the differences of
    two knots or region edges."""
    pts = _edge_points_1d(f, region)
    return np.unique(np.abs(pts[:, None] - pts[None, :]))


def _has_jumps(f: Field) -> bool:
    if f.kind != "piecewise":
        return False
    return any(np.linalg.norm(np.asarray(a, dtype=float)) > 0.0
               for _, a in f.payload["pieces"])


def _pair_integral_piecewise_1d(f: Field, region, weight: PiecewisePower, a: float,
                                b: float, q: float, budget, stream) -> QuadResult:
    """Exact 2 int_a^b w(t) F(t) dt.  F can change slope only where t is a
    difference of two knots or region edges; between those breakpoints it is
    linear, so each segment is F's end values against moments of w."""
    br = _shift_breaks_1d(f, region)
    ts = [a] + br[(br > a) & (br < b)].tolist() + [b]
    fs = _piecewise_shifts_1d(f, region, np.array(ts), q)
    total = 0.0
    for t0, t1, f0, f1 in zip(ts[:-1], ts[1:], fs[:-1], fs[1:]):
        slope = (f1 - f0) / (t1 - t0)
        total += slope * weight.moment(t0, t1, 1.0)
        # F(0) = 0, so a segment from t = 0 has no constant part; skipping
        # it leaves the divergence of a t^-s weight, s >= 2, to moment(., ., 1)
        const = f0 - slope * t0
        if const != 0.0:
            total += const * weight.moment(t0, t1, 0.0)
    return QuadResult(float(2.0 * total), 0.0, 0)


def _pair_integral_smooth_1d(f: Field, region, weight: PiecewisePower, a: float,
                             b: float, q: float, budget, stream) -> QuadResult:
    """2 int_a^b w(t) F(t) dt for a continuous 1D field: panel Gauss-Legendre
    in t over [t0, b], t0 = max(a, b 1e-9), with the error from a lower-order
    t-rule, over F(t) from the batched x-rule of _smooth_shift_integrals_1d.
    When a < t0, F(t) ~ c t^q on the core (a, t0), integrated by _core.
    evaluations_used counts x-nodes.

    A rounded x + t shifts F(t) by up to ulp(x) / t relative, which grows
    without bound as t -> 0.  So F is evaluated at t rounded to a multiple of
    the ulp of twice the support's reach, where x + t is exact for every x of
    the same binade, and rescaled by F(t) ~ c t^q."""
    quality = _quality_1d(f)
    nodes = []
    ulp = np.spacing(2.0 * float(np.max(np.abs(support_bbox(f)))))

    def pair_sums(ts):
        snapped = np.maximum(np.round(ts / ulp), 1.0) * ulp
        return 2.0 * (_smooth_shift_integrals_1d(f, region, snapped, q, quality["x_div"],
                                                 (quality["x_order"],), nodes)[:, 0]
                      * (ts / snapped) ** q)
    t0 = max(a, b * 1e-9)
    value, err = _t_integral(lambda ts: pair_sums(ts) * weight(ts), t0, b,
                             _shift_breaks_1d(f, region), n_panels=quality["t_panels"],
                             order=quality["t_order"])
    if a < t0:
        core, core_err = _core(pair_sums, weight, a, t0, q)
        value += core
        err += core_err
    return QuadResult(value, float(err + 16.0 * np.finfo(float).eps * abs(value)), sum(nodes))


def _pair_integral_indicator(f: Field, region, weight: PiecewisePower, a: float,
                             b: float, q: float, budget, stream) -> QuadResult:
    """A 2D/3D ball or box indicator: int_a^b t^(N-1) w(t) |amp|^q S(t) dt,
    S(t) the sphere integral of the closed-form symmetric difference, by
    panel Gauss-Legendre in t over [t0, b], t0 = max(a, b 1e-9), split where
    S kinks.  The symmetric difference grows like t, so the core (a, t0) is
    _core with p = N."""
    n = f.dim_in
    shape, amp = _indicator(f, region, b)
    if shape.kind == "ball":
        kinks = [2.0 * shape.radius]

        # |B sym-diff (B - t n)| is the same for every direction n
        def sphere_sum(ts):
            return sphere_measure(n) * _symdiff_measure(shape, ts[:, None] * np.eye(n)[0])
    else:
        side = np.asarray(shape.hi) - np.asarray(shape.lo)
        kinks = list(side) + [float(np.linalg.norm(side))]
        nodes, wts = sphere_rule(n, default_sphere_rule(n))

        def sphere_sum(ts):
            return _symdiff_measure(shape, ts[:, None, None] * nodes[None, :, :]) @ wts

    def g(ts):
        return ts ** (n - 1) * amp ** q * sphere_sum(ts)
    t0 = max(a, b * 1e-9)
    value, err = _t_integral(lambda ts: g(ts) * weight(ts), t0, b, kinks)
    if a < t0:
        core, core_err = _core(g, weight, a, t0, n)
        value += core
        err += core_err
    return QuadResult(value, float(err + 16.0 * np.finfo(float).eps * abs(value)), 0)


# ---------------------------------------------------------------------------
# The q = 2 engine for mollified 1D step sums
# ---------------------------------------------------------------------------
#
# For u_eps = u * eta_eps, u a 1D step sum, Wiener-Khinchin gives the q = 2
# shift integral over R as
#
#   F_eps(t) = int [F_u(t - tau) - F_u(tau)] A_eps(tau) dtau,
#
# F_u the shift integral of u, piecewise linear with kinks at the knot
# differences d, and A_eps(tau) = A(tau / eps) / eps the autocorrelation of
# eta_eps, which the steps_cdf payload carries as (A, kinks): A piecewise
# cubic, its kinks at +-kinks.  So Gauss-Legendre of order 3 between the kinks
# of both factors is exact in tau, and F_eps is a quintic in t between the
# points |d +- eps k|.  F_eps is even and C^4 (A is C^2), so on [0, t1], t1
# the least of those points, F_eps / t^2 is a cubic, integrated against t^2 w
# by moments.
# An interval E strictly around the support subtracts 2 int |u_eps|^2 Phi_E,
# Phi_E(x) the weight's mass over the window beyond either edge of E.

# Gauss-Legendre orders of the t- and x-panels; the error is their difference
_STEPS_ORDERS = (12, 8)
# t-breaks below b times this are dropped
_STEPS_FLOOR = 1e-9
# where F_eps / t^2 is fitted on [0, t1], in units of t1, and checked
_CORE_FIT = np.array([0.25, 0.5, 0.75, 1.0])
_CORE_CHECK = 0.625


def _steps_form(f: Field, region, q: float) -> bool:
    """True when the mollified-step engine serves these inputs."""
    if f.kind != "smooth" or f.payload.get("formula") != "steps_cdf" \
            or "autocorr" not in f.payload or q != 2.0:
        return False
    if region is None:
        return True
    lo, hi = support_bbox(f)
    return region.kind == "box" and region.lo[0] < lo[0] and hi[0] < region.hi[0]


def _step_shift_table(f: Field):
    """(d, F_u at d, scale): the knot differences d of the unmollified step
    sum, from 0 up, and its shift integral F_u (q = 2, E = R) with every
    amplitude divided by scale, the least power of 2 above the largest one.
    So F_u neither underflows nor overflows, and multiplying by scale^2 is
    exact.  The steps come from the disjoint pieces of a piecewise field."""
    steps = f.payload["params"]["steps"]
    knots = np.array([e for a, b, _ in steps for e in (a, b)])
    scale = 2.0 ** math.frexp(max(float(np.linalg.norm(amp)) for *_, amp in steps))[1]
    src = Field(1, f.dim_out, "piecewise",
                {"pieces": tuple((RegionSpec.interval(a, b), np.asarray(amp) / scale)
                                 for a, b, amp in steps)},
                support_radius=float(np.max(np.abs(knots))))
    d = _shift_breaks_1d(src, None)
    return d, _piecewise_shifts_1d(src, None, d, 2.0), scale


def _steps_conv(ts: np.ndarray, d: np.ndarray, fd: np.ndarray, eps: float,
                autocorr) -> tuple:
    """(int F_u(t - tau) A_eps(tau) dtau for each t in ts, the number of tau
    nodes), by Gauss-Legendre of order 3 between the kinks of both factors."""
    a_fn, kinks = autocorr
    ak = eps * np.concatenate([-np.asarray(kinks)[::-1], kinks])
    reach = ak[-1]
    cand = np.concatenate([np.broadcast_to(ak, (len(ts), len(ak))),
                           np.clip(ts[:, None] - d, -reach, reach),
                           np.clip(ts[:, None] + d, -reach, reach)], axis=1)
    cand.sort(axis=1)
    x, w = _gl(3)
    mid = 0.5 * (cand[:, 1:] + cand[:, :-1])[..., None]
    half = 0.5 * (cand[:, 1:] - cand[:, :-1])[..., None]
    tau = mid + half * x
    vals = np.interp(np.abs(ts[:, None, None] - tau), d, fd) * a_fn(tau / eps) / eps
    return np.sum(half * w * vals, axis=(1, 2)), tau.size


def _escape_mass(weight: PiecewisePower, a: float, b: float, lo: float, hi: float,
                 x: np.ndarray) -> np.ndarray:
    """Phi_E(x) for E = [lo, hi]: over both sides, the weight's mass on
    [max(a, distance to the side), b]."""
    return np.array([sum(weight.moment(max(a, dist), b, 0.0) if max(a, dist) < b else 0.0
                         for dist in (hi - xi, xi - lo)) for xi in x])


def _steps_region_term(f: Field, region: RegionSpec, weight: PiecewisePower,
                       a: float, b: float, scale: float) -> tuple:
    """(int |u_eps / scale|^2 Phi_E, its error, the nodes used): Gauss-Legendre on
    panels split at u_eps's knots, where the distance to an edge of E is a, b
    or an end of a weight piece, and geometrically toward E's edges, so no
    panel is wider than its distance to them."""
    lo_e, hi_e = region.lo[0], region.hi[0]
    (s0,), (s1,) = support_bbox(f)
    cuts = [c for c in [a, b] + [e for piece in weight.pieces for e in piece[:2]]
            if math.isfinite(c)]
    grades = 2.0 ** np.arange(1, math.ceil(math.log2((s1 - s0) / min(s0 - lo_e, hi_e - s1))) + 2)
    pts = np.concatenate([knots_1d(f), [s0, s1], hi_e - np.asarray(cuts), lo_e + np.asarray(cuts),
                          hi_e - (hi_e - s1) * grades, lo_e + (s0 - lo_e) * grades])
    pts = np.unique(pts[(pts >= s0) & (pts <= s1)])
    rules = [_panel_nodes(pts[:-1], pts[1:], order) for order in _STEPS_ORDERS]
    x = np.concatenate([r[0] for r in rules])
    vals = np.sum((eval_field(f, x[:, None]) / scale) ** 2, axis=-1) \
        * _escape_mass(weight, a, b, lo_e, hi_e, x)
    hi_rule = rules[0][1] @ vals[:len(rules[0][0])]
    lo_rule = rules[1][1] @ vals[len(rules[0][0]):]
    return float(hi_rule), abs(float(hi_rule - lo_rule)), len(x)


def _pair_integral_steps(f: Field, region, weight: PiecewisePower, a: float,
                         b: float, q: float, budget, stream) -> QuadResult:
    """The q = 2 engine for mollified 1D step sums; see the section comment.
    The t-panels split at a, b, the ends of the weight's pieces, the points
    |d +- eps k| and geometric points, so that no panel past t1 spans a ratio
    above sqrt(2); each reports |order 12 - order 8| as its error.  (At
    ratio 2 the order-8 rule misses t^-2 by about 1e-12 of a panel, which
    would dominate the error.)"""
    eps = float(f.payload["params"]["eps"])
    autocorr = f.payload["autocorr"]
    d, fd, scale = _step_shift_table(f)
    k = eps * np.asarray(autocorr[1])
    breaks = np.abs(d[:, None] + np.concatenate([-k, k])).ravel()
    # F_eps is C^4, so a break d below b * _STEPS_FLOOR changes F_eps on
    # [0, d] by a share of order (d / eps)^3: it is dropped, which keeps the
    # weight finite on the t-panels.  The core's check catches the rest
    breaks = breaks[breaks > b * _STEPS_FLOOR]
    t1 = float(np.min(breaks, initial=b))
    ends = [e for piece in weight.pieces for e in piece[:2]]
    geo = t1 * 2.0 ** (0.5 * np.arange(max(0, math.ceil(2.0 * math.log2(b / t1))) + 1))
    pts = np.unique(np.concatenate([[a, b], breaks, ends, geo]))
    pts = pts[(pts >= max(a, t1)) & (pts <= b)]
    rules = [_panel_nodes(pts[:-1], pts[1:], order) for order in _STEPS_ORDERS]
    core = (a, min(b, t1)) if a < t1 else None
    ts = np.concatenate([[0.0], t1 * _CORE_FIT, [t1 * _CORE_CHECK]]
                        + [r[0] for r in rules])
    conv, n_tau = _steps_conv(ts, d, fd, eps, autocorr)
    fs = conv[1:] - conv[0]
    value = err = 0.0
    if core is not None:
        # F_eps / t^2 = sum_j c_j (t / t1)^j on [0, t1], so the core is
        # g @ (F_eps / t^2 at the fit nodes), g the moments through the fit;
        # each F_eps there carries the roundoff of conv(t) - conv(0)
        vander = np.vander(_CORE_FIT, 4, increasing=True)
        fit_t = t1 * _CORE_FIT
        moments = np.array([weight.moment(*core, 2.0 + j) / t1 ** j for j in range(4)])
        g = np.linalg.solve(vander.T, moments)
        value += float(g @ (fs[:4] / fit_t ** 2))
        c = np.linalg.solve(vander, fs[:4] / fit_t ** 2)
        resid = np.polyval(c[::-1], _CORE_CHECK) - fs[4] / (t1 * _CORE_CHECK) ** 2
        err += abs(resid * moments[0]) + float(np.abs(g) @ (
            8.0 * np.finfo(float).eps * (np.abs(conv[1:5]) + abs(conv[0])) / fit_t ** 2))
    # per panel and order: weights @ w(t) F_eps(t)
    off, sums = 5, []
    for (nodes, w), order in zip(rules, _STEPS_ORDERS):
        terms = w * weight(nodes) * fs[off:off + len(nodes)]
        sums.append(np.sum(terms.reshape(-1, order), axis=1))
        off += len(nodes)
    value += float(np.sum(sums[0]))
    err += float(np.sum(np.abs(sums[0] - sums[1])))
    evals = len(d) - 1 + 2 * n_tau
    j_value = j_err = 0.0
    if region is not None:
        j_value, j_err, n_x = _steps_region_term(f, region, weight, a, b, scale)
        evals += n_x
    total = 2.0 * (value - j_value) * scale * scale
    err = (2.0 * (err + j_err) + 64.0 * np.finfo(float).eps * (abs(value) + abs(j_value))) \
        * scale * scale
    return QuadResult(float(total), float(err), evals)


def _unit_directions(rng, m: int, n: int) -> np.ndarray:
    if n == 2:
        theta = 2.0 * math.pi * rng.random(m)
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    v = rng.standard_normal((m, n))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _clipped_core(lowest) -> float:
    """Mass of the unsampled core (0, t_lo) from the two lowest strata.  The
    strata have equal widths in ln t, so a power law in t makes their masses
    a geometric sequence, ratio r = I_1 / I_0, and the strata below t_lo
    would hold I_0 / (r - 1).  When r <= 1 the core need not converge: inf."""
    if lowest[0] == 0.0:
        return 0.0
    if len(lowest) < 2 or not lowest[1] > lowest[0] > 0.0:
        return math.inf
    return lowest[0] / (lowest[1] / lowest[0] - 1.0)


def _pair_integral_mc(f: Field, region, weight: PiecewisePower, a: float, b: float,
                      q: float, budget: QuadBudget, stream: int) -> QuadResult:
    n = f.dim_in
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
    lowest = []
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
        if i < 2:
            lowest.append(mean)
    err = 2.0 * math.sqrt(var_sum)
    if a == 0.0:
        err += _clipped_core(lowest)
    return QuadResult(total, err, evals)


# ---------------------------------------------------------------------------
# The q = 2 lattice engine for grid fields
# ---------------------------------------------------------------------------
#
# A grid field with spacing h is u = sum_k c_k Lam(x/h - k) over its cell
# centers, Lam the tensor hat, so its autocorrelation is
# A(z) = int u(x).u(x+z) dx = h^N sum_m R(m) B(z/h - m) with
# R(m) = sum_k c_k.c_(k+m) and B = Lam * Lam the tensor centered cubic
# B-spline.  For q = 2, the weight t^-s with N < s < N+2, a window (0, b)
# with b at least the support's diameter and E a box around the support,
#
#   I = 2 h^(2N-s) sum_m R(m) K(m) - 2 A(0) |S^(N-1)| b^(N-s) / (s-N)
#       - 2 int |u|^2 Phi_E,
#   K(m) = p.v. int [B(-m) - B(y-m)] |y|^-s dy,
#   Phi_E(x) = int_(S^(N-1)) [rho_E(x,n)^(N-s) - b^(N-s)]_+ / (s-N) dn,
#
# rho_E(x, n) the distance from x to the edge of E along n.  K depends on
# (N, s) only: its entries with |m|_inf <= _KERNEL_NEAR are a cached table,
# the rest an asymptotic series in |m|^-2.

_KERNEL_NEAR = 32
_KERNEL_CACHE: dict = {}
# frequency columns per axis-0 transform and lag rows per kernel dot; they
# bound the engine's temporaries
_LATTICE_COLS = 64
_LATTICE_ROWS = 64
# Chebyshev degree per axis of the Phi_E interpolant, Gauss-Legendre order of
# its face integrals (the error is the difference from half the order)
_PHI_DEGREE = {2: 24, 3: 12}
_PHI_ORDER = {2: 24, 3: 16}

# b(x - k) for x near 0 is one cubic on each side, so for large tau
# beta(k, tau) = int b(x - k) exp(-tau x^2) dx = sum_j _BETA_TAIL[k, j]
# tau^-(j+1)/2 up to O(exp(-tau)); rows k = 0, 1, 2, zero for k >= 3
_SQRT_PI = math.sqrt(math.pi)
_BETA_TAIL = np.array([[2.0 * _SQRT_PI / 3.0, 0.0, -_SQRT_PI / 2.0, 0.5],
                       [_SQRT_PI / 6.0, 0.0, _SQRT_PI / 4.0, -1.0 / 3.0],
                       [0.0, 0.0, 0.0, 1.0 / 12.0]])


def _bspline(y):
    """The centered cubic B-spline hat * hat, supported on [-2, 2]."""
    y = np.minimum(np.abs(y), 2.0)
    return np.where(y < 1.0, 2.0 / 3.0 - y * y + 0.5 * y ** 3, (2.0 - y) ** 3 / 6.0)


def _kernel_values(n: int, s: float, ms: np.ndarray, order: int) -> np.ndarray:
    """K(m) for the rows of ms (nonnegative integers), from
    |y|^-s = int_0^inf tau^(s/2-1) exp(-tau |y|^2) dtau / Gamma(s/2): the
    Gaussian factorizes over axes, so K(m) = int_0^inf tau^(s/2-1)
    [B(-m) (pi/tau)^(N/2) - prod_i beta(m_i, tau)] dtau / Gamma(s/2).

    Gauss-Legendre of the given order on unit panels in ln(tau) over
    [tau_lo, tau_hi]; the two ends are closed forms, the upper one from the
    _BETA_TAIL expansion, the lower one from beta = 1 - tau (k^2 + 1/3)."""
    tau_lo, tau_hi = 1e-12, 36.0
    u_lo, u_hi = math.log(tau_lo), math.log(tau_hi)
    edges = np.linspace(u_lo, u_hi, int(math.ceil(u_hi - u_lo)) + 1)
    u, wu = _panel_nodes(edges[:-1], edges[1:], order)
    tau = np.exp(u)
    # beta(k, tau) by Gauss-Legendre on the four unit pieces of b
    gx, gw = _gl(32)
    y = np.concatenate([j + 0.5 + 0.5 * gx for j in range(-2, 2)])
    wy = np.tile(0.5 * gw, 4) * _bspline(y)
    k = np.arange(int(ms.max()) + 1)
    beta = np.stack([wy @ np.exp(-np.outer((y + kk) ** 2, tau)) for kk in k])
    bm = np.prod(_bspline(ms), axis=1)
    out = np.empty(len(ms))
    for i0 in range(0, len(ms), 2048):
        sl = slice(i0, i0 + 2048)
        d = bm[sl, None] * (math.pi / tau) ** (n / 2.0) - np.prod(beta[ms[sl]], axis=1)
        out[sl] = d @ (wu * tau ** (s / 2.0))
    m2 = np.sum(ms.astype(float) ** 2, axis=1)
    out += bm * math.pi ** (n / 2.0) * tau_lo ** ((s - n) / 2.0) / ((s - n) / 2.0) \
        - tau_lo ** (s / 2.0) / (s / 2.0) + (m2 + n / 3.0) * tau_lo ** (s / 2.0 + 1.0) / (s / 2.0 + 1.0)
    tail = np.where(ms[:, :, None] <= 2, _BETA_TAIL[np.minimum(ms, 2)], 0.0)
    for js in itertools.product(range(4), repeat=n):
        j = sum(js)
        if j >= 2:  # j = 0 cancels B(-m) (pi/tau)^(N/2); j = 1 has coefficient 0
            c = np.prod([tail[:, i, ji] for i, ji in enumerate(js)], axis=0)
            out -= c * tau_hi ** ((s - n - j) / 2.0) / ((n + j - s) / 2.0)
    return out / math.gamma(s / 2.0)


def _kernel_far(m2: np.ndarray, m4: np.ndarray, n: int, s: float) -> np.ndarray:
    """K(m) = -E|m + Y|^-s for B-distributed Y, to O(|m|^-(s+6)): the
    Taylor series in Y with Var Y_i = 1/3 and fourth cumulant -1/30.
    m2 = |m|^2 and m4 = sum_i m_i^4."""
    p = -s
    v, k4 = 1.0 / 3.0, -1.0 / 30.0
    a2 = 0.5 * v * p * (p + n - 2.0)
    a4 = (3.0 * v * v * p * (p + n - 2.0) * (p - 2.0) * (p + n - 4.0)
          + k4 * (3.0 * n * p * (p - 2.0) + 6.0 * p * (p - 2.0) * (p - 4.0))) / 24.0
    a8 = k4 * p * (p - 2.0) * (p - 4.0) * (p - 6.0) / 24.0
    inv = 1.0 / m2
    return -(m2 ** (0.5 * p)) * (1.0 + inv * (a2 + inv * (a4 + a8 * m4 * inv * inv)))


def _kernel_table(n: int, s: float):
    """(table, near_err, far_rel): K(m) for 0 <= m_i <= _KERNEL_NEAR (K is
    even in every coordinate and symmetric under their permutations), the
    table's absolute error bound (the order-10 rule against order 5), and a
    relative error bound for _kernel_far beyond the table (twice its largest
    relative miss on the table's outer shell)."""
    key = (n, float(s))
    if key not in _KERNEL_CACHE:
        m = _KERNEL_NEAR
        ms = np.array([c for c in itertools.combinations_with_replacement(range(m + 1), n)])
        hi = _kernel_values(n, s, ms, 10)
        lo = _kernel_values(n, s, ms, 5)
        table = np.empty((m + 1,) * n)
        for perm in itertools.permutations(range(n)):
            table[tuple(ms[:, perm].T)] = hi
        shell = ms[:, -1] == m
        msf = ms[shell].astype(float)
        far = _kernel_far(np.sum(msf ** 2, axis=1), np.sum(msf ** 4, axis=1), n, s)
        far_rel = 2.0 * float(np.max(np.abs(far - hi[shell]) / np.abs(hi[shell])))
        _KERNEL_CACHE[key] = (table, float(np.max(np.abs(hi - lo))), far_rel)
    return _KERNEL_CACHE[key]


def _lattice_form(f: Field, region, weight: PiecewisePower, a: float, b: float,
                  q: float) -> bool:
    """True when the lattice engine serves these inputs."""
    n = f.dim_in
    if f.kind != "grid" or n not in (2, 3) or q != 2.0 or a != 0.0:
        return False
    if len(weight.pieces) != 1:
        return False
    lo_p, hi_p, _, power = weight.pieces[0]
    if lo_p != 0.0 or hi_p != math.inf or not (n < -power < n + 2.0):
        return False
    if len(set(f.payload["spec"].spacing)) != 1:
        return False
    lo, hi = support_bbox(f)
    if b < float(np.linalg.norm(hi - lo)):
        return False
    return region is None or (region.kind == "box" and np.all(np.asarray(region.lo) < lo)
                              and np.all(hi < np.asarray(region.hi)))


def _fast_len(n: int) -> int:
    """The smallest 5-smooth integer >= n: a length the FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    p35 = 1
    while p35 < best:
        m = p35
        while m < best:
            p = m
            while p < n:
                p *= 2
            best = min(best, p)
            m *= 3
        p35 *= 5
    return best


def _lattice_sums(spec: np.ndarray, length, s: float):
    """Sums over the lags m of R(m) K(m), |R(m) K(m)|, |K(m)|, and of |R(m)|
    over the table's lags; and R at the lags with |m|_inf <= 1, as
    {m: R(m)} for m_0 in (0, 1).

    R comes from a blocked transform of the row spectra: per block of
    frequency columns, copied so that axis 0 is contiguous, an fft along
    axis 0 and |.|^2 summed over components; the inverse of that real power
    is the conjugate of its rfft over the transform length, and its lags
    m_0 = 0 .. n_0 - 1 are written back into spec[0] in place.  The irfft of
    a block of rows is dotted with K, rows m_0 > 0 counted twice since
    R(-m) = R(m).  K is even in every lag, so _kernel_far is evaluated on
    the trailing lags m_i >= 0 and gathered for +-m_i."""
    n, near = len(length), _KERNEL_NEAR
    table, _, _ = _kernel_table(n, s)
    n0, l0 = spec.shape[1], length[0]
    trail = tuple(range(1, n))
    fshape = tuple(length[1:-1]) + (length[-1] // 2 + 1,)
    for j0 in range(0, spec.shape[2], _LATTICE_COLS):
        cols = slice(j0, j0 + _LATTICE_COLS)
        z = np.fft.fft(np.ascontiguousarray(spec[:, :, cols].swapaxes(1, 2)), n=l0, axis=-1)
        power = np.sum(z.real ** 2 + z.imag ** 2, axis=0)
        spec[0, :, cols] = np.conj(np.fft.rfft(power, axis=-1)[:, :n0]).T / l0
    spec = spec[0]
    # lags on the torus of the trailing axes, their absolute values, and
    # the table's part of them
    lags = [(np.arange(ell) + ell // 2) % ell - ell // 2 for ell in length[1:]]
    gather = np.ix_(*[np.abs(g) for g in lags])
    half = np.meshgrid(*[np.arange(ell // 2 + 1) for ell in length[1:]], indexing="ij")
    t2 = sum(g.astype(float) ** 2 for g in half)
    t4 = sum(g.astype(float) ** 4 for g in half)
    near_half = tuple(slice(0, near + 1) for _ in trail)
    tab = table[(slice(None),) + tuple(slice(0, ell // 2 + 1) for ell in length[1:])]
    idx = np.ix_(*[np.flatnonzero(np.abs(g) <= near) for g in lags])
    axes_t = tuple(range(1, n))
    sums = np.zeros(4)
    for r0 in range(0, n0, _LATTICE_ROWS):
        r = np.arange(r0, min(r0 + _LATTICE_ROWS, n0), dtype=float)
        rr = r.reshape((-1,) + (1,) * (n - 1))
        rows = np.fft.irfftn(spec[r0:r0 + len(r)].reshape((len(r),) + fshape),
                             s=length[1:], axes=trail)
        if r0 == 0:
            unit = {m: float(rows[(m[0],) + tuple(mi % ell for mi, ell in zip(m[1:], length[1:]))])
                    for m in itertools.product((0, 1), *[(-1, 0, 1)] * (n - 1))}
        k = _kernel_far(np.maximum(rr ** 2 + t2, 1.0), rr ** 4 + t4, n, s)
        kn = int(np.clip(near + 1 - r0, 0, len(r)))
        if kn:
            k[(slice(0, kn),) + near_half] = tab[r0:r0 + kn]
        k = k[(slice(None),) + gather]
        wrow = np.where(r > 0, 2.0, 1.0)
        rk = rows * k
        sums[0] += wrow @ np.sum(rk, axis=axes_t)
        sums[1] += wrow @ np.sum(np.abs(rk), axis=axes_t)
        sums[2] += wrow @ np.sum(np.abs(k), axis=axes_t)
        if kn:
            sums[3] += wrow[:kn] @ np.sum(np.abs(rows[(slice(0, kn),) + idx]), axis=axes_t)
    return sums, unit


def _lobatto(degree: int) -> np.ndarray:
    return np.cos(math.pi * np.arange(degree + 1) / degree)


def _cheb_interp(degree: int, t: np.ndarray) -> np.ndarray:
    """Barycentric interpolation matrix from the Chebyshev-Lobatto nodes of
    the given degree on [-1, 1] to the points t."""
    nodes = _lobatto(degree)
    w = (-1.0) ** np.arange(degree + 1)
    w[[0, -1]] *= 0.5
    diff = t[:, None] - nodes[None, :]
    hit = diff == 0.0
    diff[hit] = 1.0
    mat = w / diff
    mat /= mat.sum(axis=1, keepdims=True)
    rows = hit.any(axis=1)
    mat[rows] = hit[rows]
    return mat


def _along(mat: np.ndarray, arr: np.ndarray, axis: int) -> np.ndarray:
    """mat applied along one axis of arr."""
    return np.moveaxis(np.moveaxis(arr, axis, -1) @ mat.T, -1, axis)


def _box_phi(x: np.ndarray, lo, hi, s: float, b: float, order: int) -> np.ndarray:
    """Phi_E at the points x (P, N) inside the box E = [lo, hi], as a sum over
    the faces: int_face d G(r) r^-N dA with d the distance to the face, r to
    the point of the face and G(r) = [r^(N-s) - b^(N-s)]_+ / (s-N).  Each
    face splits at the foot of x into one part per quadrant, and each
    in-face offset is d sinh(v), so the integrand is smooth in v; past
    cosh(v) = b / d, G vanishes."""
    n = x.shape[1]
    gx, gw = _gl(order)
    col = (-1,) + (1,) * (n - 1)
    total = np.zeros(len(x))
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for d in (hi[i] - x[:, i], x[:, i] - lo[i]):
            vcap = np.arccosh(np.maximum(b / d, 1.0))
            for sides in itertools.product((0, 1), repeat=n - 1):
                weight, sinh2, cosh = np.ones((len(x),) + col[1:]), 0.0, 1.0
                for axis, (j, side) in enumerate(zip(others, sides)):
                    ell = hi[j] - x[:, j] if side else x[:, j] - lo[j]
                    vmax = np.minimum(np.arcsinh(ell / d), vcap)[:, None]
                    shape = [len(x)] + [1] * (n - 1)
                    shape[axis + 1] = order
                    v = (0.5 * vmax * (1.0 + gx)).reshape(shape)
                    weight = weight * (0.5 * vmax * gw).reshape(shape)
                    sinh2 = sinh2 + np.sinh(v) ** 2
                    cosh = cosh * np.cosh(v)
                dd = d.reshape(col)
                r = dd * np.sqrt(1.0 + sinh2)
                g = np.maximum(r ** (n - s) - b ** (n - s), 0.0) / (s - n)
                total += np.sum(weight * g * dd ** n * cosh / r ** n,
                                axis=tuple(range(1, n)))
    return total


def _region_weights(f: Field, region: RegionSpec, s: float, b: float):
    """Phi_E as (phi, moments, err_phi): phi its values at the tensor
    Chebyshev-Lobatto nodes of the support box, so its interpolant is
    sum_a phi_a prod_i l_a_i(x_i); moments[i][d][k, a] =
    int lam_k lam_(k+d) l_a / int lam_k lam_(k+d) over axis i, for the 1D
    hats lam of cells k and k + d, d in (-1, 0, 1); err_phi bounds the
    interpolant's and the face rule's error."""
    spec = f.payload["spec"]
    lo_s, hi_s = support_bbox(f)
    n, h = len(lo_s), float(spec.spacing[0])
    degree, order = _PHI_DEGREE[n], _PHI_ORDER[n]
    mid, half = 0.5 * (hi_s + lo_s), 0.5 * (hi_s - lo_s)
    t = _lobatto(degree)
    nodes = np.stack([g.ravel() for g in np.meshgrid(
        *[mid[i] + half[i] * t for i in range(n)], indexing="ij")], axis=-1)
    rlo, rhi = np.asarray(region.lo, dtype=float), np.asarray(region.hi, dtype=float)
    phi = _box_phi(nodes, rlo, rhi, s, b, order).reshape((degree + 1,) * n)
    phi_lo = _box_phi(nodes, rlo, rhi, s, b, order // 2).reshape(phi.shape)
    coarse = phi[(slice(None, None, 2),) * n]
    half_interp = _cheb_interp(degree // 2, t)
    for axis in range(n):
        coarse = _along(half_interp, coarse, axis)
    err_phi = float(np.max(np.abs(phi - phi_lo)) + np.max(np.abs(phi - coarse)))
    # lam_k lam_(k+d) is a quadratic on each cell between centers and l_a
    # has degree `degree`: Gauss-Legendre of this order is exact
    gx, gw = _gl(degree // 2 + 2)
    u, wu = 0.5 * (1.0 + gx), 0.5 * gw
    pieces = {-1: [(-1.0, 6.0 * u * (1.0 - u))], 1: [(1.0, 6.0 * u * (1.0 - u))],
              0: [(1.0, 1.5 * (1.0 - u) ** 2), (-1.0, 1.5 * (1.0 - u) ** 2)]}
    moments = []
    for i in range(n):
        centers = lo_s[i] + h * (np.arange(spec.extent[i]) + 1.0)
        per = {}
        for d, parts in pieces.items():
            per[d] = sum(np.einsum("j,kja->ka", wu * shape, _cheb_interp(
                degree, ((centers[:, None] + sign * h * u - mid[i]) / half[i]).ravel()
            ).reshape(len(centers), len(u), -1)) for sign, shape in parts)
        moments.append(per)
    return phi, moments, err_phi


def _half_lags(n: int):
    """The lags d in {-1, 0, 1}^N whose first nonzero entry is positive, and
    d = 0: one of each pair d, -d."""
    return [d for d in itertools.product((0, 1, -1), repeat=n)
            if next((x for x in d if x), 1) > 0]


def _j_block(c: np.ndarray, r0: int, new: int, phi: np.ndarray, moments) -> float:
    """This block's share of int |u|^2 Phi / h^N = sum_(k,j) B(k-j) c_k.c_j
    (int Lam_k Lam_j Phi / int Lam_k Lam_j), Phi the interpolant of Phi_E.
    c holds the cell values of axis-0 rows r0 - new onward, where the first
    `new` rows belong to the previous block: a pair of cells counts in the
    block of its later row."""
    n = c.ndim - 1
    total = 0.0
    for d in _half_lags(n):
        first = new if d[0] == 0 else 0
        rows = c.shape[1] - first - d[0]
        if rows <= 0:
            continue
        k_sl = [slice(first, first + rows)] + [slice(max(0, -x), e - max(0, x))
                                               for x, e in zip(d[1:], c.shape[2:])]
        j_sl = [slice(k.start + x, k.stop + x) for k, x in zip(k_sl, d)]
        prod = np.sum(c[(slice(None),) + tuple(k_sl)] * c[(slice(None),) + tuple(j_sl)], axis=0)
        start = r0 - new + first
        mats = [moments[0][d[0]][start:start + rows]] + \
            [moments[i][x][k_sl[i]] for i, x in enumerate(d) if i > 0]
        w = phi
        for axis, m in enumerate(mats):
            w = _along(m, w, axis)
        weight = float(np.prod(_bspline(np.array(d, dtype=float))))
        total += (1.0 if not any(d) else 2.0) * weight * float(np.sum(w * prod))
    return total


def _pair_integral_lattice(f: Field, region, weight: PiecewisePower, a: float,
                           b: float, q: float, budget, stream) -> QuadResult:
    """The q = 2 lattice engine: the integral of the multilinear grid field
    itself, with an error bound from the kernel table, roundoff and the
    Phi_E term; see the section comment.  The cell values are read, weighted
    by Phi_E and transformed a block of rows at a time, so no full copy of
    them is held."""
    n = f.dim_in
    _, _, coef, power = weight.pieces[0]
    s = -power
    grid = f.payload["spec"]
    h = float(grid.spacing[0])
    ext = tuple(grid.extent)
    length = [_fast_len(2 * e - 1) for e in ext]
    spec = np.empty((f.dim_out, ext[0], math.prod(length[1:-1]) * (length[-1] // 2 + 1)),
                    dtype=complex)
    j_term = err_phi = 0.0
    if region is not None:
        phi, moments, err_phi = _region_weights(f, region, s, b)
    for r0, block in sample_rows(f, grid):
        block = np.moveaxis(block, -1, 0)
        r1 = r0 + block.shape[1]
        spec[:, r0:r1] = np.fft.rfftn(block, s=length[1:], axes=tuple(range(2, n + 1))
                                      ).reshape(f.dim_out, r1 - r0, -1)
        if region is not None:
            # the previous block's last row pairs with this block's first
            rows = block if r0 == 0 else np.concatenate([last, block], axis=1)
            j_term += h ** n * _j_block(rows, r0, min(r0, 1), phi, moments)
            last = block[:, -1:]
    sums, unit = _lattice_sums(spec, length, s)
    del spec
    _, near_err, far_rel = _kernel_table(n, s)
    # A(0) = h^N sum_m R(m) B(m), over |m|_inf <= 1; rows m_0 = 1 stand for -1
    a_zero = h ** n * sum((1.0 + m[0]) * value * float(np.prod(_bspline(np.array(m))))
                          for m, value in unit.items())
    r_zero = unit[(0,) * n]
    scale = 2.0 * h ** (2 * n - s)
    tail = 2.0 * a_zero * sphere_measure(n) * b ** (n - s) / (s - n)
    eps = np.finfo(float).eps
    roundoff = 8.0 * eps * math.log2(math.prod(length)) * r_zero * sums[2]
    value = coef * (scale * sums[0] - tail - 2.0 * j_term)
    err = abs(coef) * (scale * (far_rel * sums[1] + near_err * sums[3] + roundoff)
                       + 2.0 * err_phi * a_zero
                       + 8.0 * eps * (scale * sums[1] + tail + 2.0 * abs(j_term)))
    return QuadResult(value, err, math.prod(ext))


# ---------------------------------------------------------------------------
# The pair-integral dispatch
# ---------------------------------------------------------------------------

# (path id, predicate, engine): pair_integral runs the first row whose
# predicate holds for (f, region, weight, a, b, q)
_ENGINES = (
    ("lattice", _lattice_form, _pair_integral_lattice),
    ("piecewise_1d", lambda f, *_: f.dim_in == 1 and f.kind == "piecewise",
     _pair_integral_piecewise_1d),
    ("steps", lambda f, region, weight, a, b, q: _steps_form(f, region, q),
     _pair_integral_steps),
    ("smooth_1d", lambda f, *_: f.dim_in == 1, _pair_integral_smooth_1d),
    ("indicator", lambda f, region, weight, a, b, q: _indicator(f, region, b) is not None,
     _pair_integral_indicator),
    ("mc", lambda *_: True, _pair_integral_mc),
)


def pair_integral(f: Field, region: Optional[RegionSpec], weight: PiecewisePower,
                  window, q: float, budget: Optional[QuadBudget] = None,
                  stream: int = 0) -> QuadResult:
    """integral over E x E of  weight(|x-y|) |u(x)-u(y)|^q  dy dx.

    window = (a, b) limits |x - y|.  With a = 0, the weight's piece starting
    at 0, ~ t^-s, diverges on a field with jumps once s >= N+1.  The result
    is low-confidence when its error exceeds budget.target_rel_error of its
    value, and its path names the engine that ran."""
    budget = budget or QuadBudget()
    a, b = float(window[0]), float(window[1])
    if not (0.0 <= a < b) or not math.isfinite(b):
        raise InputError(f"bad pair-integral window [{a}, {b}]")
    core = [-power for lo, _, coef, power in weight.pieces if lo == 0.0 and coef != 0.0]
    if a == 0.0 and core and core[0] >= f.dim_in + 1.0 and _has_jumps(f):
        raise DivergenceError(
            f"weight exponent {core[0]} >= N+1 diverges on a jump field")
    path, engine = next((path, engine) for path, serves, engine in _ENGINES
                        if serves(f, region, weight, a, b, q))
    try:
        r = engine(f, region, weight, a, b, q, budget, stream)
    except OverflowError:   # a moment of the weight beyond float range
        r = QuadResult(math.inf, math.inf, 0)
    if not abs(r.value) <= OVERFLOW_GUARD:   # inf and nan fail it too
        raise DivergenceError("pair integral exceeded the overflow guard")
    low = not r.error_estimate <= budget.target_rel_error * max(abs(r.value), 1e-300)
    return replace(r, low_confidence=low, path=path)


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
