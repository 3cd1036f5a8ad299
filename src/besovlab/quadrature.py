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
- `steps`: q = 2 on u * eta_eps, u's `ShiftFunction` (1D step sums) against
  eta's `Autocorrelation` (the tent), with no region or an interval around
  the support; exact up to roundoff (see its section);
- `smooth_1d`: other 1D fields; panel Gauss-Legendre in x for F, batched over
  the radii of a panel Gauss-Legendre rule in t;
- `indicator`: ball and box indicators in 2D/3D that the region does not clip
  within the window; their `ShiftFunction`'s sphere sum and panel
  Gauss-Legendre in t, graded at the sphere sum's square-root edges;
- `mc`: everything else; stratified Monte Carlo over (x, t, n), with
  log-radial strata and a counter-based RNG stream per stratum, so a
  stratum's draws depend only on the seed, the stream and the stratum.

Every engine takes (f, region, weight, a, b, q, budget, stream) and returns a
`QuadResult`; `pair_integral` alone applies the overflow guard.  `_rated`
builds every pair- and shift-integral record, with the one low-confidence rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import CapabilityError, DivergenceError, InputError
from .fields import (_BLOCK_POINTS, _SAMPLE_POINTS, Field, RegionSpec, eval_field, knots_1d,
                     mollified_source, sample_rows, scale_field, sphere_measure, step_intervals,
                     sup_amplitude, support_bbox)

__all__ = [
    "QuadBudget",
    "QuadResult",
    "PiecewisePower",
    "radial_integral",
    "shift_integral",
    "pair_integral",
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
            raise InputError("max_evaluations: must be >= 1")
        if not (0.0 < self.target_rel_error < 1.0):
            raise InputError("target_rel_error: must lie in (0, 1)")


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations_used: int
    low_confidence: bool = False
    # the `_ENGINES` row or shift rule that produced the value; None elsewhere
    path: Optional[str] = None
    # the functional and its arguments, set by the seminorms functionals
    provenance: str = ""

    def scaled(self, factor: float, provenance: str = "") -> "QuadResult":
        """This record with value and error times factor, named provenance."""
        return replace(self, value=self.value * factor,
                       error_estimate=self.error_estimate * factor, provenance=provenance)


def _rated(path: str, budget: QuadBudget, value: float, error: float = 0.0,
           evaluations: int = 0) -> QuadResult:
    """The record of what path computed, low-confidence when the error
    exceeds budget.target_rel_error of the value."""
    low = not error <= budget.target_rel_error * max(abs(value), 1e-300)
    return QuadResult(value, error, evaluations, low, path)


@dataclass(frozen=True)
class ShiftFunction:
    """A field's shift function F(h) = int |u(x+h) - u(x)|^q dx over R^N at
    one q, as scale^q times `unit`, that of u / scale: unit takes shifts of
    shape (..., N), is `far` (2 ||u / scale||_q^q) past the support's
    diameter and in 1D is linear between the radii `kinks`.  Its sphere
    integral S(t) has square-root edges at the radii `roots`; sphere(ts,
    order) is S by each rule of `orders` (the value's, then one whose change
    is its error), None when F(t n) is one value for every direction n."""

    scale: float
    unit: Callable
    far: float
    kinks: np.ndarray = ()
    roots: tuple = ()
    sphere: Optional[Callable] = None
    orders: tuple = (None,)


@dataclass(frozen=True)
class Autocorrelation:
    """A mollifier's autocorrelation A = eta * eta(-.) at unit scale: `at`
    evaluates it, even and a cubic between its kinks +-kinks, within
    `error` of A everywhere."""

    at: Callable
    kinks: tuple
    error: float = 0.0


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

    def moment(self, a, b: float, extra_power: float):
        """Exact integral of profile(r) * r^extra_power over [a, b], b finite
        or inf.  A scalar a gives a float; an array of lower bounds gives one
        integral per bound, 0 where the bound is at or past b."""
        lows = np.asarray(a, dtype=float)
        flat = lows.ravel()
        total = np.zeros(flat.size)
        for lo, hi, coef, power in self.pieces:
            p0 = np.maximum(flat, lo)
            p1 = min(b, hi)
            live = p0 < p1
            # Python's log and pow per bound: numpy's differ from them in the
            # last bit for some bounds
            xs = p0[live].tolist()
            if coef == 0.0 or not xs:
                continue
            p = power + extra_power
            if (p < -1.0 or abs(p + 1.0) < 1e-14) and 0.0 in xs:
                raise DivergenceError("divergent core in radial integral")
            if p1 == math.inf:
                if p >= -1.0:
                    raise DivergenceError("divergent tail in radial integral")
                total[live] += -coef * np.array([x ** (p + 1.0) for x in xs]) / (p + 1.0)
            elif abs(p + 1.0) < 1e-14:
                total[live] += coef * np.array([math.log(p1) - math.log(x) for x in xs])
            else:
                total[live] += coef * np.array([p1 ** (p + 1.0) - x ** (p + 1.0)
                                                for x in xs]) / (p + 1.0)
        return total.reshape(lows.shape) if lows.ndim else float(total[0])


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


def _distinct(x) -> np.ndarray:
    """The sorted distinct values of a NaN-free array, as np.unique gives
    them: np.unique's first call in a process imports numpy.ma."""
    x = np.sort(x, axis=None)
    keep = np.ones(x.size, dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


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
        # 2 (|B| - lens), written without the difference: the lens is |B|
        # less a term of order |h|, so the difference loses digits as |h| -> 0
        # (1e-7 of the value at |h| = 1e-9).  Past |h| = 2r the shifted balls
        # are disjoint, and each form is 2 |B| there
        d = np.minimum(np.linalg.norm(h, axis=-1), 2.0 * r)
        if n == 2:
            # math.asin: numpy's SIMD arcsin can differ from it in the last bit
            x = d / (2.0 * r)
            asin = np.vectorize(math.asin, otypes=[float])
            return 4.0 * r * r * (asin(x) + x * np.sqrt(1.0 - x * x))
        if n == 3:
            return 2.0 * math.pi * d * (r * r - d * d / 12.0)
        raise CapabilityError("symmetric difference of balls only for N = 2, 3")
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
    if region.kind == "ball":
        return [region.center[0] - region.radius, region.center[0] + region.radius]
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
    """The ShiftFunction of f when f is the indicator of one ball or box in 2D
    or 3D times an amplitude, and the chi_E factors cannot clip the
    integrand for |h| <= reach, else None.  u / scale is an indicator, so
    the record serves every q.

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
    scale = float(np.linalg.norm(np.asarray(amp, dtype=float)))
    if shape.kind == "ball":
        # |B sym-diff (B - t n)| is the same for every direction n
        return ShiftFunction(scale, lambda h: _symdiff_measure(shape, h), 2.0 * shape.measure(),
                             roots=(2.0 * shape.radius,))
    # S kinks where t passes the length of a side or of a diagonal of a face
    # or of the box; a 3D box's S is on polar panels of Gauss-Legendre orders
    # 24 and 16
    n, side = f.dim_in, np.asarray(shape.hi) - np.asarray(shape.lo)
    roots = tuple(float(np.linalg.norm(side[list(axes)])) for k in range(1, n + 1)
                  for axes in itertools.combinations(range(n), k))
    return ShiftFunction(scale, lambda h: _symdiff_measure(shape, h), 2.0 * shape.measure(),
                         roots=roots, sphere=lambda ts, order: _box_sphere_sum(side, ts, order),
                         orders=(24, 16) if n == 3 else (None,))


def shift_integral(f: Field, region: Optional[RegionSpec], h, q: float,
                   budget: Optional[QuadBudget] = None, stream: int = 0) -> QuadResult:
    """F(h); region=None integrates over R^N.

    Exact, error 0, for indicators of one ball or box that the region does
    not clip (path `indicator`) and for piecewise-constant 1D fields
    (`piecewise_1d`); panel Gauss-Legendre for other 1D fields, the error the
    change on the lower order (`smooth_1d`); else Monte Carlo over the budget,
    two standard errors (`mc`).  evaluations_used counts x-nodes or samples."""
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if h.shape != (f.dim_in,):
        raise InputError("shift vector dimension mismatch")
    budget = budget or QuadBudget()
    hnorm = float(np.linalg.norm(h))
    if hnorm == 0.0:
        return QuadResult(0.0, 0.0, 0)
    shift = _indicator(f, region, hnorm)
    if shift is not None:
        return _rated("indicator", budget, shift.scale ** q * float(shift.unit(h)))
    if f.dim_in > 1:
        return _shift_integral_mc(f, region, h, q, budget, stream)
    # 1D: exact for piecewise-constant fields, else panel Gauss-Legendre of
    # orders 12 and 6 with the error their difference
    if f.kind == "piecewise":
        return _rated("piecewise_1d", budget, float(_piecewise_shifts_1d(f, region, h, q)[0]))
    vals, nodes = _smooth_shift_integrals_1d(f, region, h, q, 64, (12, 6))
    vhi, vlo = vals[0]
    return _rated("smooth_1d", budget, float(vhi), abs(float(vhi) - float(vlo)), nodes)


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
    u = mollified_source(f)
    if u is not None and u.kind == "smooth":
        return {"t_panels": 28, "t_order": 8, "x_div": 40, "x_order": 8}
    if f.kind == "grid":
        return {"t_panels": 36, "t_order": 8, "x_div": 64, "x_order": 6}
    return {"t_panels": 48, "t_order": 12, "x_div": 64, "x_order": 12}


# (steps, region, q) -> the t-free part of _piecewise_shifts_1d's pair table
_PAIR_CACHE: dict = {}


def _piecewise_shifts_1d(f: Field, region, ts: np.ndarray, q: float) -> np.ndarray:
    """F(t) for each radius t in ts, exact for a piecewise-constant 1D field.

    The knots and region edges cut the line into intervals I_i = [a_i, b_i].
    The integrand is constant, c_ij, for x in I_i and x + |t| in I_j, over a
    length formed from differences of edges before |t| is added, so no
    edge - t is ever rounded: F(t) = sum_ij c_ij |I_i intersect (I_j - |t|)|.
    The pairs with c_ij > 0, their c_ij and their t-free lengths are built
    once per step sum, region and q, and kept in _PAIR_CACHE."""
    key = (tuple((lo, hi, tuple(amp.ravel().tolist())) for lo, hi, amp in step_intervals(f)),
           region, q)
    if key not in _PAIR_CACHE:
        p = _distinct(_edge_points_1d(f, region))
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
        _PAIR_CACHE[key] = (c[i, j], np.minimum(b[j] - a[j], b[i] - a[i]), b[i] - a[j], b[j] - a[i])
    c, span, lead, lag = _PAIR_CACHE[key]
    t = np.abs(ts)[:, None]
    return np.sum(c * np.maximum(np.minimum(span, np.minimum(lead + t, lag - t)), 0.0), axis=1)


def _smooth_shift_integrals_1d(f: Field, region, ts: np.ndarray, q: float,
                               x_div: int, x_orders) -> tuple:
    """(F(t) for each radius t in ts, by panel Gauss-Legendre in x once per
    order in x_orders, as an array (len(ts), len(x_orders)); the x-nodes used).

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
        vals = _pair_values(f, region, np.concatenate(xs)[:, None],
                            np.concatenate(shifts)[:, None], q)
        p1 = np.cumsum(npan[r0:r1])
        off = 0
        for c, (order, w) in enumerate(zip(x_orders, weights)):
            for r, e in zip(range(r0, r1), p1 * order):
                s = e - npan[r] * order
                out[r, c] = w[s:e] @ vals[off + s:off + e]
            off += len(w)
    return out, int(np.sum(npts))


def _pair_values(f: Field, region, x: np.ndarray, shift: np.ndarray, q: float):
    """|u(x+h)-u(x)|^q chi_E(x) chi_E(x+h) at the points x (M, N), for one
    shift h (N,) or one per point (M, N)."""
    du = eval_field(f, x + shift) - eval_field(f, x)
    vals = np.linalg.norm(du, axis=-1) ** q
    if region is not None:
        vals = vals * region.contains(x) * region.contains(x + shift)
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
                       budget: QuadBudget, stream: int, sphere: bool = False) -> QuadResult:
    """F(h) by Monte Carlo over x; with sphere, each x takes its own uniform
    direction n, drawn after it, and the shift |h| n, so the value is the
    mean of F over the sphere of radius |h|."""
    reach = float(np.linalg.norm(h))
    lo, hi = _sample_box(f, region, reach)
    if np.any(hi <= lo):
        return _rated("mc", budget, 0.0)
    vol = float(np.prod(hi - lo))
    # the whole budget, in chunks of at most _SHIFT_CHUNK points; chunk k
    # draws from stratum k of the stream
    chunks = []
    for k, start in enumerate(range(0, budget.max_evaluations, _SHIFT_CHUNK)):
        m = min(_SHIFT_CHUNK, budget.max_evaluations - start)
        rng = _stream_rng(budget.rng_seed, stream, k)
        x = lo + (hi - lo) * rng.random((m, f.dim_in))
        shift = reach * _unit_directions(rng, m, f.dim_in) if sphere else h
        chunks.append(_pair_values(f, region, x, shift, q))
    vals = np.concatenate(chunks)
    value = vol * float(np.mean(vals))
    err = 2.0 * vol * float(np.std(vals)) / math.sqrt(len(vals))
    return _rated("mc", budget, value, err, len(vals))


# ---------------------------------------------------------------------------
# The radially-weighted pair integral engine
# ---------------------------------------------------------------------------

def _graded_nodes(lo: np.ndarray, span: np.ndarray, npts: int):
    """Gauss-Legendre nodes and weights of order npts on the panels [lo, lo +
    span] (arrays ending in an axis of 1), mapped by lo + span (3u^2 - 2u^3),
    u in [0, 1], which makes a square-root edge at either end smooth."""
    x, w = _gl(npts)
    u = 0.5 * (x + 1.0)
    return lo + span * u * u * (3.0 - 2.0 * u), span * 3.0 * u * (1.0 - u) * w


def _t_panels(edges: np.ndarray, graded: np.ndarray, npts: int):
    """_panel_nodes on the panels between edges, except that a graded panel
    takes _graded_nodes."""
    nodes, weights = _panel_nodes(edges[:-1], edges[1:], npts)
    if np.any(graded):
        nodes.reshape(-1, npts)[graded], weights.reshape(-1, npts)[graded] = _graded_nodes(
            edges[:-1][graded, None], np.diff(edges)[graded, None], npts)
    return nodes, weights


def _t_integral(g: Callable, weight: PiecewisePower, a: float, b: float, p: float,
                kinks: Sequence[float] = (), roots: Sequence[float] = (),
                n_panels: int = 48, order: int = 12):
    """(value, err) of int_a^b w(t) g(t) dt.

    Panel Gauss-Legendre over log-spaced panels of [t0, b], t0 =
    max(a, b 1e-9), split at the kinks of g, at its square-root edges roots
    and at the ends of w's pieces, with err from an embedded lower-order
    rule.  A panel beside a root runs through t = lo + span (3u^2 - 2u^3),
    which makes the edge smooth.  When a < t0, g(t) ~ c t^p on the core
    (a, t0): c is read at t0, the core is c times a moment of w, and the
    change of c to 2 t0 is its error."""
    t0 = max(a, b * 1e-9)
    edges = np.geomspace(t0, b, n_panels + 1)
    roots = np.asarray([r for r in roots if t0 <= r <= b], dtype=float)
    # a log-spaced edge within half a panel of a root goes, so that no panel
    # beside one is narrow next to a wide neighbour
    near = np.abs(np.log(edges[1:-1, None] / roots)) < 0.5 * math.log(b / t0) / n_panels
    edges = np.concatenate([edges[:1], edges[1:-1][~np.any(near, axis=1)], edges[-1:]])
    ends = [e for piece in weight.pieces for e in piece[:2]]
    inner = [k for k in [*kinks, *roots, *ends] if t0 < k < b]
    if inner:
        edges = _distinct(np.concatenate([edges, np.asarray(inner, dtype=float)]))

    def graded(edges):
        at_root = np.any(edges[:, None] == roots, axis=1)
        return at_root[:-1] | at_root[1:]
    # halve the panels beside a root twice: then no other panel is wider
    # than its distance to the root
    for _ in range(2):
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])[graded(edges)]]))
    nhi, whi = _t_panels(edges, graded(edges), order)
    nlo, wlo = _t_panels(edges, graded(edges), max(order // 2, 2))
    value = float(whi @ np.asarray(g(nhi) * weight(nhi), dtype=float))
    err = abs(value - float(wlo @ np.asarray(g(nlo) * weight(nlo), dtype=float)))
    if a < t0:
        ts = np.array([t0, 2.0 * t0])
        c = g(ts) / ts ** p
        moment = weight.moment(a, t0, p)
        value += float(c[0] * moment)
        err += float(abs((c[0] - c[1]) * moment))
    return value, err


def _shift_breaks_1d(f: Field, region) -> np.ndarray:
    """The radii, 0 among them, where a 1D F(t) can kink: the differences of
    two knots or region edges."""
    pts = _edge_points_1d(f, region)
    return _distinct(np.abs(pts[:, None] - pts[None, :]))


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


def _amplitude(f: Field) -> Optional[float]:
    """The largest amplitude of a field that fields.scale_field can scale:
    of its steps for a mollified step sum, else fields.sup_amplitude; None
    for any other field."""
    u = mollified_source(f)
    if u is not None and u.kind == "piecewise":
        return max(float(np.linalg.norm(amp)) for _, amp in u.payload["pieces"])
    try:
        return sup_amplitude(f)
    except CapabilityError:
        return None


def _pair_integral_smooth_1d(f: Field, region, weight: PiecewisePower, a: float,
                             b: float, q: float, budget, stream) -> QuadResult:
    """2 int_a^b w(t) F(t) dt for a continuous 1D field: _t_integral, split
    where F kinks and with F(t) ~ c t^q on the core, over F(t) from the
    batched x-rule of _smooth_shift_integrals_1d.  evaluations_used counts
    x-nodes.

    A rounded x + t shifts F(t) by up to ulp(x) / t relative, which grows
    without bound as t -> 0.  So F is evaluated at t rounded to a multiple of
    the ulp of twice the support's reach, where x + t is exact for every x of
    the same binade, and rescaled by F(t) ~ c t^q."""
    amp = _amplitude(f)
    if amp is not None and np.finfo(float).tiny <= amp < math.inf \
            and not -1022.0 <= q * math.log2(amp) < 1024.0:
        # |u|^q leaves the normal range: integrate u / scale, scale the least
        # power of 2 above amp, and multiply back by scale^q in two halves
        scale = 2.0 ** math.frexp(amp)[1]
        r = _pair_integral_smooth_1d(scale_field(f, 1.0 / scale), region, weight, a, b, q,
                                     budget, stream)
        half = scale ** (q / 2.0)
        return r.scaled(half).scaled(half)
    quality = _quality_1d(f)
    nodes = []
    ulp = np.spacing(2.0 * float(np.max(np.abs(support_bbox(f)))))

    def pair_sums(ts):
        snapped = np.maximum(np.round(ts / ulp), 1.0) * ulp
        vals, n = _smooth_shift_integrals_1d(f, region, snapped, q, quality["x_div"],
                                             (quality["x_order"],))
        nodes.append(n)
        return 2.0 * (vals[:, 0] * (ts / snapped) ** q)
    value, err = _t_integral(pair_sums, weight, a, b, q, _shift_breaks_1d(f, region),
                             n_panels=quality["t_panels"], order=quality["t_order"])
    return QuadResult(value, float(err + 16.0 * np.finfo(float).eps * abs(value)), sum(nodes))


def _box_deficit(s1: float, s2: float, tau: np.ndarray) -> np.ndarray:
    """pi s1 s2 / 2 less int_0^(pi/2) (s1 - tau cos p)_+ (s2 - tau sin p)_+ dp:
    over a quarter circle of directions, the overlap a 2D box of sides s1, s2
    loses when shifted by tau.  The integrand is positive on (acos x, asin y),
    x = min(1, s1 / tau) and y = min(1, s2 / tau), an empty interval once
    tau^2 >= s1^2 + s2^2.  The closed form has no difference of the two
    integrals, which would lose digits as tau -> 0: it is
    (s1 + s2) tau - tau^2 / 2 for tau <= min(s1, s2)."""
    u1, u2 = np.minimum(tau, s1), np.minimum(tau, s2)
    v1, v2 = np.sqrt(tau * tau - u1 * u1), np.sqrt(tau * tau - u2 * u2)
    # math.acos: numpy's SIMD arccos can differ from it in the last bit
    acos = np.vectorize(math.acos, otypes=[float])

    def angle(u):
        return acos(np.divide(u, tau, out=np.ones_like(tau), where=tau > 0.0))
    d = s1 * s2 * (angle(u1) + angle(u2)) + s1 * (u1 - v2) + s2 * (u2 - v1) \
        + 0.5 * (v1 * v1 - u2 * u2)
    return np.where(tau * tau < s1 * s1 + s2 * s2, d, 0.5 * math.pi * s1 * s2)


def _box_sphere_sum(side: np.ndarray, ts: np.ndarray, order: int) -> np.ndarray:
    """S(t) = int_{S^(N-1)} |A sym-diff (A - t n)| dn for a box A of the given
    sides, N = 2 or 3, at each t of ts.  Per direction the symmetric
    difference is 2 (|A| - prod_i (side_i - t |n_i|)_+), and the box is
    symmetric in each axis, so in 2D S = 8 _box_deficit.  In 3D, with
    c = cos psi, rho = sin psi and h = pi s1 s2 / 2,

        S = 16 int_0^(pi/2) [s3 h - (s3 - t c)_+ (h - D(t rho))] rho dpsi,

    D = _box_deficit(s1, s2, .), whose bracket is s3 D + t c (h - D) while
    t c < s3.  The integrand kinks where t c = s3 or t rho is s1, s2 or
    hypot(s1, s2), with square-root edges; between those angles psi runs on
    _graded_nodes of the order."""
    if len(side) == 2:
        return 8.0 * _box_deficit(side[0], side[1], ts)
    s1, s2, s3 = side
    h = 0.5 * math.pi * s1 * s2
    acos, asin = (np.vectorize(g, otypes=[float]) for g in (math.acos, math.asin))
    cuts = [acos(np.minimum(1.0, s3 / ts))] + \
        [asin(np.minimum(1.0, s / ts)) for s in (s1, s2, math.hypot(s1, s2))]
    edges = np.sort(np.stack([np.zeros_like(ts), *cuts, np.full_like(ts, 0.5 * math.pi)],
                             axis=-1), axis=-1)
    psi, wts = _graded_nodes(edges[:, :-1, None], np.diff(edges, axis=-1)[..., None], order)
    t, c, rho = ts[:, None, None], np.cos(psi), np.sin(psi)
    d = _box_deficit(s1, s2, t * rho)
    g = np.where(t * c < s3, s3 * d + t * c * (h - d), s3 * h)
    return 16.0 * np.sum(wts * g * rho, axis=(1, 2))


def _pair_integral_indicator(f: Field, region, weight: PiecewisePower, a: float,
                             b: float, q: float, budget, stream) -> QuadResult:
    """A 2D/3D ball or box indicator: int_a^b t^(N-1) w(t) scale^q S(t) dt,
    S(t) the sphere sum of its ShiftFunction, by _t_integral with S's
    square-root edges.  The symmetric difference grows like t, so the core's
    power is p = N.  When S is not exact, the integral's change on S's lower
    order joins the error."""
    n = f.dim_in
    shift = _indicator(f, region, b)
    # when F(t n) is one value for every n, S(t) = |S^(N-1)| F(t e_1)
    sphere = shift.sphere or (lambda ts, order: sphere_measure(n) * shift.unit(
        ts[:, None] * np.eye(n)[0]))

    def integral(order):
        return _t_integral(lambda ts: ts ** (n - 1) * shift.scale ** q * sphere(ts, order),
                           weight, a, b, n, roots=shift.roots)
    value, err = integral(shift.orders[0])
    for order in shift.orders[1:]:
        err += abs(value - integral(order)[0])
    return QuadResult(value, float(err + 16.0 * np.finfo(float).eps * abs(value)), 0)


# ---------------------------------------------------------------------------
# The q = 2 engine: a shift function against an autocorrelation
# ---------------------------------------------------------------------------
#
# For u_eps = u * eta_eps, Wiener-Khinchin gives the q = 2 shift integral over
# R as
#
#   F_eps(t) = int [F_u(t - tau) - F_u(tau)] A_eps(tau) dtau,
#
# F_u the ShiftFunction of u, and A_eps(tau) = A(tau / eps) / eps the
# Autocorrelation of eta_eps, which the payload's MollifierSpec carries.  For
# a 1D step sum F_u is linear between the knot differences d, and A is a
# cubic between its kinks, so Gauss-Legendre of order 3 between the kinks of
# both factors is exact in tau, and F_eps is a quintic in t between the
# points |d +- eps k|.  That rule runs only within reach = eps k_max of some
# d: elsewhere F_u is linear on A_eps's support and A is even, so the
# integral is (int A) F_u(t), int A = (int eta)^2.  F_eps is even and C^4
# when A is C^2, as the tent's is, so on [0, t1], t1 the least of those
# points, F_eps / t^2 is a cubic, integrated against t^2 w by moments.
# An interval E strictly around the support subtracts 2 int |u_eps|^2 Phi_E,
# Phi_E(x) the weight's mass over the window beyond either edge of E.

# Gauss-Legendre orders of the t- and x-panels; the error is their difference
_STEPS_ORDERS = (12, 8)
# t-breaks below b times this are dropped
_STEPS_FLOOR = 1e-9
# where F_eps / t^2 is fitted on [0, t1], in units of t1, and checked
_CORE_FIT = np.array([0.25, 0.5, 0.75, 1.0])
_CORE_CHECK = 0.625


def _paired_form(f: Field, region, q: float) -> bool:
    """True when the q = 2 engine serves these inputs: u has a ShiftFunction
    and eta an Autocorrelation, exact, as the engine counts no table error,
    and E is R or an interval around the support."""
    u = mollified_source(f)
    if u is None or u.kind != "piecewise" or q != 2.0 \
            or getattr(f.payload["mollifier"].autocorr, "error", None) != 0.0:
        return False
    if region is None:
        return True
    lo, hi = support_bbox(f)
    return region.kind == "box" and region.lo[0] < lo[0] and hi[0] < region.hi[0]


def _step_shifts(f: Field) -> ShiftFunction:
    """The q = 2 ShiftFunction of the step sum u of f = u * eta_eps over R:
    scale the least power of 2 above u's largest amplitude, so that
    multiplying by scale^2 is exact, as is dividing by it, and unit the
    interpolant of its values at the knot differences d of u, from 0 up."""
    scale = 2.0 ** math.frexp(_amplitude(f))[1]
    src = scale_field(f.payload["field"], 1.0 / scale)
    d = _shift_breaks_1d(src, None)
    fd = _piecewise_shifts_1d(src, None, d, 2.0)
    return ShiftFunction(scale, lambda h: np.interp(np.abs(h[..., 0]), d, fd), float(fd[-1]), d)


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
    pts = _distinct(pts[(pts >= s0) & (pts <= s1)])
    rules = [_panel_nodes(pts[:-1], pts[1:], order) for order in _STEPS_ORDERS]
    x = np.concatenate([r[0] for r in rules])
    vals = np.sum((eval_field(f, x[:, None]) / scale) ** 2, axis=-1) \
        * sum(weight.moment(np.maximum(a, dist), b, 0.0) for dist in (hi_e - x, x - lo_e))
    hi_rule = rules[0][1] @ vals[:len(rules[0][0])]
    lo_rule = rules[1][1] @ vals[len(rules[0][0]):]
    return float(hi_rule), abs(float(hi_rule - lo_rule)), len(x)


def _pair_integral_steps(f: Field, region, weight: PiecewisePower, a: float,
                         b: float, q: float, budget, stream) -> QuadResult:
    """The q = 2 engine, F_u of _step_shifts against A; see the section
    comment.  The t-panels split at a, b, the ends of the weight's pieces,
    the points |d +- eps k| and geometric points, so that no panel past t1
    spans a ratio above sqrt(2); each reports |order 12 - order 8| as its
    error.  (At ratio 2 the order-8 rule misses t^-2 by about 1e-12 of a
    panel, which would dominate the error.)  evaluations_used counts the F_u
    and A reads, one F_u read per node past reach of every d, and x-nodes."""
    eps = f.payload["eps"]
    acf = f.payload["mollifier"].autocorr
    shift = _step_shifts(f)
    d, scale = shift.kinks, shift.scale
    k = eps * np.asarray(acf.kinks)
    breaks = np.abs(d[:, None] + np.concatenate([-k, k])).ravel()
    # F_eps is C^4, so a break d below b * _STEPS_FLOOR changes F_eps on
    # [0, d] by a share of order (d / eps)^3: it is dropped, which keeps the
    # weight finite on the t-panels.  The core's check catches the rest
    breaks = breaks[breaks > b * _STEPS_FLOOR]
    t1 = float(np.min(breaks, initial=b))
    ends = [e for piece in weight.pieces for e in piece[:2]]
    geo = t1 * 2.0 ** (0.5 * np.arange(max(0, math.ceil(2.0 * math.log2(b / t1))) + 1))
    pts = _distinct(np.concatenate([[a, b], breaks, ends, geo]))
    pts = pts[(pts >= max(a, t1)) & (pts <= b)]
    rules = [_panel_nodes(pts[:-1], pts[1:], order) for order in _STEPS_ORDERS]
    core = (a, min(b, t1)) if a < t1 else None
    ts = np.concatenate([[0.0], t1 * _CORE_FIT, [t1 * _CORE_CHECK]]
                        + [r[0] for r in rules])
    # int F_u(t - tau) A_eps(tau) dtau: at each t with a kink d within reach,
    # Gauss-Legendre of order 3 between the kinks of both factors
    reach = k[-1]
    near = np.searchsorted(d, ts + reach) > np.searchsorted(d, ts - reach, side="right")
    tn = ts[near]
    cand = np.concatenate([np.broadcast_to(np.concatenate([-k[::-1], k]), (len(tn), 2 * len(k))),
                           np.clip(tn[:, None] - d, -reach, reach),
                           np.clip(tn[:, None] + d, -reach, reach)], axis=1)
    cand.sort(axis=1)
    x, w = _gl(3)
    mid = 0.5 * (cand[:, 1:] + cand[:, :-1])[..., None]
    half = 0.5 * (cand[:, 1:] - cand[:, :-1])[..., None]
    tau = mid + half * x
    vals = shift.unit((tn[:, None, None] - tau)[..., None]) * acf.at(tau / eps) / eps
    conv = np.empty(len(ts))
    conv[near] = np.sum(half * w * vals, axis=(1, 2))
    conv[~near] = f.payload["mollifier"].total ** 2 * shift.unit(ts[~near, None])
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
    evals = len(d) - 1 + 2 * tau.size + np.count_nonzero(~near)
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


# strata whose masses estimate the geometric ratio of the unsampled core
_CORE_STRATA = 8


def _clipped_core(lowest) -> float:
    """Mass of the unsampled core (0, t_lo) from the lowest strata I_0 ..
    I_k.  The strata have equal widths in ln t, so a power law in t makes
    their masses a geometric sequence, ratio r = (I_1 + .. + I_k) /
    (I_0 + .. + I_(k-1)), and the strata below t_lo would hold I_0 / (r - 1).
    When r <= 1 the core need not converge: inf."""
    if lowest[0] == 0.0:
        return 0.0
    below, above = sum(lowest[:-1]), sum(lowest[1:])
    if len(lowest) < 2 or not above > below > 0.0:
        return math.inf
    return lowest[0] / (above / below - 1.0)


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
        vals = _pair_values(f, region, x, t[:, None] * dirs, q)
        # 1/p(t) = t * ln_ratio for the log-uniform radial draw
        vals = vals * weight(t) * t ** (n - 1) \
            * (t * ln_ratio) * h_meas * vol
        mean = float(np.mean(vals))
        se = float(np.std(vals)) / math.sqrt(per)
        total += mean
        var_sum += se * se
        evals += per
        if i <= _CORE_STRATA:
            lowest.append(mean)
    # four standard errors, and the clipped core counted in the value and
    # again in the error.  Against the lattice engine on 1,100 random 2D grid
    # fields the worst miss was 0.97 of this error; two standard errors with
    # the core in the error alone, from two strata, missed 15% of them
    err = 4.0 * math.sqrt(var_sum)
    if a == 0.0:
        core = _clipped_core(lowest)
        total += core if math.isfinite(core) else 0.0
        err += core
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
#
# The sum over m comes from one blocked FFT autocorrelation whose axis-0
# inverse is a plain rfft: it yields R(m_0, -m'), which serves since K is even
# (_lattice_sums).  int |u|^2 Phi_E uses Phi_E's tensor Chebyshev interpolant:
# per axis, one interpolation matrix at the Gauss-Legendre nodes of every gap
# between centers serves the cells on both sides of it (_region_weights), and
# each block of rows contracts its cell products with the trailing axes'
# moments before the leading axis's (_j_block).

_KERNEL_NEAR = 32
_KERNEL_CACHE: dict = {}
# columns and rows per block of mollifiers._convolve's transforms; the lattice
# sums reduce their per-row parts a block of _LATTICE_ROWS rows per dot, and
# bound their own scratch by fields._SAMPLE_POINTS values per block
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


def _lattice_power(spec: np.ndarray, length) -> None:
    """Replace spec[0] by the rfft along axis 0 of the power summed over
    components, its lags m_0 = 0 .. n_0 - 1, a block of frequency columns at
    a time: each component's columns are copied transposed into one
    zero-padded buffer and transformed in place, and |.|^2 accumulates into
    one power buffer.  The blocks hold about _SAMPLE_POINTS values, and the
    columns are independent, so the width changes no bit."""
    n0, l0 = spec.shape[1], length[0]
    width = max(1, _SAMPLE_POINTS // l0)
    buf = np.empty((width, l0), dtype=complex)
    power = np.empty((width, l0))
    out = np.empty((width, l0 // 2 + 1), dtype=complex)
    for j0 in range(0, spec.shape[2], width):
        w = min(width, spec.shape[2] - j0)
        cols, z = slice(j0, j0 + w), buf[:w]
        power[:w] = 0.0
        for comp in spec:
            z[:, :n0] = comp[:, cols].T
            z[:, n0:] = 0.0
            np.fft.fft(z, axis=-1, out=z)
            power[:w] += z.real ** 2
            power[:w] += z.imag ** 2
        np.fft.rfft(power[:w], axis=-1, out=out[:w])
        spec[0, :, cols] = out[:w, :n0].T


def _lattice_sums(spec: np.ndarray, length, s: float):
    """Sums over the lags m of R(m) K(m), |R(m) K(m)|, |K(m)|, and of |R(m)|
    over the table's lags; and R at the lags with |m|_inf <= 1, as
    {m: R(m)} for m_0 in (0, 1).

    R comes from a blocked transform of the row spectra (_lattice_power).
    The rfft of the real power over the transform length is l_0 times its
    inverse at -m_0, and its lags m_0 = 0 .. n_0 - 1 are written back into
    spec[0] in place, so the irfft of a block of rows holds
    l_0 R(-m_0, m') = l_0 R(m_0, -m'), m' the trailing lags: no conjugate
    and no division per block.  K, the table's window and B are even in
    every lag, so each sum reads that array as R and is divided by l_0 once
    at the end.  A few rows at a time (about _SAMPLE_POINTS lags) are
    transformed and multiplied with K, and their sums over the trailing lags
    kept per row; each block of _LATTICE_ROWS rows is then dotted with its
    weights, rows m_0 > 0 counted twice since R(-m) = R(m).  _kernel_far is
    evaluated on the trailing lags m_i >= 0 and gathered for +-m_i."""
    n, near = len(length), _KERNEL_NEAR
    table, _, _ = _kernel_table(n, s)
    n0, l0 = spec.shape[1], length[0]
    trail = tuple(range(1, n))
    fshape = tuple(length[1:-1]) + (length[-1] // 2 + 1,)
    _lattice_power(spec, length)
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
    # per row m_0, the sums over the trailing lags of R K, |R K|, |K| and
    # of |R| on the table; rows 0 and 1 come in the first step
    part = np.zeros((4, n0))
    step = max(2, _SAMPLE_POINTS // math.prod(length[1:]))
    for r0 in range(0, n0, step):
        r = np.arange(r0, min(r0 + step, n0), dtype=float)
        rr = r.reshape((-1,) + (1,) * (n - 1))
        rows = np.fft.irfftn(spec[r0:r0 + len(r)].reshape((len(r),) + fshape),
                             s=length[1:], axes=trail)
        if r0 == 0:
            unit = {m: float(rows[(m[0],) + tuple(-mi % ell for mi, ell in zip(m[1:], length[1:]))])
                    / l0 for m in itertools.product((0, 1), *[(-1, 0, 1)] * (n - 1))}
        k = _kernel_far(np.maximum(rr ** 2 + t2, 1.0), rr ** 4 + t4, n, s)
        kn = int(np.clip(near + 1 - r0, 0, len(r)))
        if kn:
            k[(slice(0, kn),) + near_half] = tab[r0:r0 + kn]
        k = k[(slice(None),) + gather]
        rk = rows * k
        sl = slice(r0, r0 + len(r))
        part[0, sl] = np.sum(rk, axis=trail)
        part[1, sl] = np.sum(np.abs(rk), axis=trail)
        part[2, sl] = np.sum(np.abs(k), axis=trail)
        if kn:
            part[3, r0:r0 + kn] = np.sum(np.abs(rows[(slice(0, kn),) + idx]), axis=trail)
    wrow = np.where(np.arange(n0) > 0, 2.0, 1.0)
    sums = np.zeros(4)
    for r0 in range(0, n0, _LATTICE_ROWS):
        r1 = min(r0 + _LATTICE_ROWS, n0)
        for i, stop in enumerate((r1, r1, r1, min(r1, near + 1))):
            if stop > r0:
                sums[i] += wrow[r0:stop] @ part[i, r0:stop]
    sums[[0, 1, 3]] /= l0
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
    mat = np.divide(w, diff, out=diff)
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
    interpolant's and the face rule's error.  Per axis the l_a are taken
    once, at the Gauss-Legendre nodes of the ext + 1 gaps between
    consecutive centers (the support's edges included); a cell's right
    moments read the gap after it, its left ones the gap before it."""
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
    # has degree `degree`: Gauss-Legendre of this order is exact.  The
    # nodes are symmetric, so c_k - h u_j = c_(k-1) + h u_(J-1-j): one matrix
    # at c_k + h u_j, k = -1 .. ext - 1, serves the cells on both sides, its
    # rows k - 1 with the shapes reversed in j
    gx, gw = _gl(degree // 2 + 2)
    u, wu = 0.5 * (1.0 + gx), 0.5 * gw
    pair, own = wu * 6.0 * u * (1.0 - u), wu * 1.5 * (1.0 - u) ** 2
    moments = []
    for i in range(n):
        edges = lo_s[i] + h * np.arange(spec.extent[i] + 1)
        mat = _cheb_interp(degree, ((edges[:, None] + h * u - mid[i]) / half[i]).ravel()
                           ).reshape(len(edges), len(u), -1)
        right, left = mat[1:], mat[:-1]
        moments.append({-1: np.einsum("j,kja->ka", pair[::-1], left),
                        0: np.einsum("j,kja->ka", own, right)
                        + np.einsum("j,kja->ka", own[::-1], left),
                        1: np.einsum("j,kja->ka", pair, right)})
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
    block of its later row.  Per lag d, the products c_k.c_(k+d) are
    contracted with the trailing axes' moments first, then dotted once
    with the leading axis's moments applied to phi."""
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
        # the trailing axes' moments first, so no (rows, cols) weight is built
        for axis in range(n - 1, 0, -1):
            prod = _along(moments[axis][d[axis]][k_sl[axis]].T, prod, axis)
        start = r0 - new + first
        w = _along(moments[0][d[0]][start:start + rows], phi, 0)
        weight = float(np.prod(_bspline(np.array(d, dtype=float))))
        total += (1.0 if not any(d) else 2.0) * weight * float(np.vdot(w, prod))
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
    fshape = tuple(length[1:-1]) + (length[-1] // 2 + 1,)
    j_term = err_phi = 0.0
    if region is not None:    # before the spectra, so its matrices never sit on them
        phi, moments, err_phi = _region_weights(f, region, s, b)
    spec = np.empty((f.dim_out, ext[0], math.prod(fshape)), dtype=complex)
    for r0, block in sample_rows(f, grid):
        block = np.moveaxis(block, -1, 0)
        r1 = r0 + block.shape[1]
        # rfftn's steps (the last axis first), the final one written into spec
        out = spec[:, r0:r1].reshape(block.shape[:2] + fshape)
        if n == 2:
            np.fft.rfft(block, n=length[1], axis=2, out=out)
        else:
            np.fft.fft(np.fft.rfft(block, n=length[2], axis=3), n=length[1], axis=2, out=out)
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
    ("steps", lambda f, region, weight, a, b, q: _paired_form(f, region, q),
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
    is rated by _rated, and its path names the engine that ran."""
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
    return _rated(path, budget, r.value, r.error_estimate, r.evaluations_used)

