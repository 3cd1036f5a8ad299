"""Test functions u: R^N -> R^d, their regions, and ground-truth jump data.

Fields are immutable; evaluation is pure and vectorized over points of
shape (M, N).  Three kinds are supported: piecewise-constant over a
whitelisted geometry set (intervals/boxes, balls, finite disjoint unions),
smooth closed forms, and grid samples that extend by zero outside the grid.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import CapabilityError, InputError, built_kind

__all__ = [
    "RegionSpec",
    "REGIONS",
    "GridSpec",
    "Field",
    "JumpPatch",
    "JumpSetSpec",
    "eval_field",
    "truncate",
    "jump_set_of",
    "sample",
    "make_field",
    "FIELDS",
    "default_region",
    "support_bbox",
    "knots_1d",
    "sphere_measure",
    "unit_ball_volume",
]


def sphere_measure(n: int) -> float:
    """H^{N-1}(S^{N-1}) for N = 1, 2, 3 (2, 2*pi, 4*pi)."""
    if n == 1:
        return 2.0
    if n == 2:
        return 2.0 * math.pi
    if n == 3:
        return 4.0 * math.pi
    raise CapabilityError(f"unsupported dimension {n}")


def unit_ball_volume(n: int) -> float:
    """Lebesgue measure of the unit ball in R^n (n = 1, 2, 3)."""
    return sphere_measure(n) / n


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionSpec:
    """A subset of R^N from the closed-form geometry whitelist.

    kinds and parameters:
      box        -- lo, hi (componentwise, lo < hi); 1D boxes are intervals
      ball       -- center, radius
      half_space -- normal, offset; membership is x . normal <= offset
      complement -- inner (another RegionSpec)
      union      -- parts (tuple of RegionSpec)
    """

    kind: str
    lo: tuple = ()
    hi: tuple = ()
    center: tuple = ()
    radius: float = 0.0
    normal: tuple = ()
    offset: float = 0.0
    inner: Optional["RegionSpec"] = None
    parts: tuple = ()

    @staticmethod
    def box(lo, hi) -> "RegionSpec":
        lo = tuple(float(v) for v in np.atleast_1d(lo))
        hi = tuple(float(v) for v in np.atleast_1d(hi))
        if len(lo) != len(hi) or any(a >= b for a, b in zip(lo, hi)):
            raise InputError(f"hi: must exceed lo in each of its coordinates, got {lo}..{hi}")
        return RegionSpec("box", lo=lo, hi=hi)

    @staticmethod
    def interval(a: float, b: float) -> "RegionSpec":
        return RegionSpec.box([a], [b])

    @staticmethod
    def ball(center, radius: float) -> "RegionSpec":
        if radius <= 0:
            raise InputError("radius: must be positive")
        return RegionSpec("ball", center=tuple(float(v) for v in np.atleast_1d(center)),
                          radius=float(radius))

    @staticmethod
    def half_space(normal, offset: float) -> "RegionSpec":
        n = np.atleast_1d(np.asarray(normal, dtype=float))
        if not np.all(np.isfinite(n)) or np.linalg.norm(n) == 0:
            raise InputError("normal: must be a nonzero finite vector")
        return RegionSpec("half_space", normal=tuple(n), offset=float(offset))

    @staticmethod
    def complement_of(inner: "RegionSpec") -> "RegionSpec":
        return RegionSpec("complement", inner=inner)

    @staticmethod
    def union_of(*parts: "RegionSpec") -> "RegionSpec":
        if not parts:
            raise InputError("parts: a union needs at least one")
        return RegionSpec("union", parts=tuple(parts))

    @property
    def dim(self) -> int:
        if self.kind == "box":
            return len(self.lo)
        if self.kind == "ball":
            return len(self.center)
        if self.kind == "half_space":
            return len(self.normal)
        if self.kind == "complement":
            return self.inner.dim
        return self.parts[0].dim

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Exact membership test for points of shape (M, N) -> bool (M,).

        Boxes and half-spaces are closed; balls are closed.  The test uses
        exact comparisons, no floating fuzz.  Boxes and balls are worked one
        coordinate column at a time; a ball sums its squares in the order of
        the axes, as a sum over the last axis of x would.
        """
        x = np.asarray(x, dtype=float)
        if self.kind == "box":
            out = (x[..., 0] >= self.lo[0]) & (x[..., 0] <= self.hi[0])
            for k in range(1, len(self.lo)):
                out &= (x[..., k] >= self.lo[k]) & (x[..., k] <= self.hi[k])
            return out
        if self.kind == "ball":
            r2 = (x[..., 0] - self.center[0]) ** 2
            for k in range(1, len(self.center)):
                r2 += (x[..., k] - self.center[k]) ** 2
            return r2 <= self.radius ** 2
        if self.kind == "half_space":
            return x @ np.asarray(self.normal) <= self.offset
        if self.kind == "complement":
            return ~self.inner.contains(x)
        out = self.parts[0].contains(x)
        for p in self.parts[1:]:
            out = out | p.contains(x)
        return out

    def bbox(self):
        """Bounding box (lo, hi) as arrays, or None when unbounded."""
        if self.kind == "box":
            return np.asarray(self.lo), np.asarray(self.hi)
        if self.kind == "ball":
            c = np.asarray(self.center)
            return c - self.radius, c + self.radius
        if self.kind in ("half_space", "complement"):
            return None
        boxes = [p.bbox() for p in self.parts]
        if any(b is None for b in boxes):
            return None
        los = np.min([b[0] for b in boxes], axis=0)
        his = np.max([b[1] for b in boxes], axis=0)
        return los, his

    def measure(self) -> float:
        """Lebesgue measure; CapabilityError for unbounded regions."""
        if self.kind == "box":
            return float(np.prod(np.asarray(self.hi) - np.asarray(self.lo)))
        if self.kind == "ball":
            return unit_ball_volume(self.dim) * self.radius ** self.dim
        if self.kind == "union":
            return sum(p.measure() for p in self.parts)
        raise CapabilityError(f"no closed-form measure for region kind {self.kind!r}")

    def to_dict(self) -> dict:
        """The config object of the region: its kind and its builder's keys."""
        def plain(v):
            if isinstance(v, RegionSpec):
                return v.to_dict()
            return [plain(x) for x in v] if isinstance(v, tuple) else v
        keys = inspect.signature(REGIONS[self.kind]).parameters
        return {"kind": self.kind, **{k: plain(getattr(self, k)) for k in keys}}

    @staticmethod
    def from_dict(d: dict) -> "RegionSpec":
        """The region of the config object d: its kind and the keys of the
        kind's builder in REGIONS."""
        return _region("region", d)


def _region(path: str, d) -> RegionSpec:
    return built_kind(path, REGIONS, "kind", "region kind", d)


# region kind -> its builder, whose parameters are its config keys; a nested
# region is a config object too
REGIONS = {
    "box": RegionSpec.box, "ball": RegionSpec.ball, "half_space": RegionSpec.half_space,
    "complement": lambda inner: RegionSpec.complement_of(_region("inner", inner)),
    "union": lambda parts: RegionSpec.union_of(*(_region(f"parts[{i}]", p)
                                                 for i, p in enumerate(parts))),
}


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

# cell centers per eval_field call when a grid is sampled a block of rows at
# a time; it bounds the temporaries of sampling
_SAMPLE_POINTS = 1 << 16
# points per block of a grid evaluation (and x-nodes per field evaluation of
# quadrature's batched 1D shift integrals); it bounds their temporaries
_BLOCK_POINTS = 1 << 13


@dataclass(frozen=True)
class GridSpec:
    """Regular grid: cells per axis, samples live at cell centers."""

    origin: tuple
    spacing: tuple
    extent: tuple

    def __post_init__(self):
        if any(s <= 0 for s in self.spacing):
            raise InputError("grid spacing must be positive")
        if any(e < 2 for e in self.extent):
            raise InputError("grid extent must be at least 2 cells per axis")

    @property
    def dim(self) -> int:
        return len(self.origin)

    def centers(self):
        """1D arrays of cell-center coordinates per axis."""
        return [np.asarray(self.origin[k]) + (np.arange(self.extent[k]) + 0.5) * self.spacing[k]
                for k in range(self.dim)]


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Field:
    """A function u: R^N -> R^d.

    kind "piecewise": payload["pieces"] is a tuple of (RegionSpec, amplitude)
    with pairwise disjoint regions; the value is the amplitude of the region
    containing x, zero outside every region.
    kind "smooth": payload["formula"] names a closed form, payload["params"]
    holds its parameters; formula "mollified" is u * eta_eps of a 1D step sum
    or smooth field u, held as payload["field"], ["mollifier"] and ["eps"].
    kind "grid": payload holds a GridSpec and a value array; evaluation is
    multilinear interpolation over cell centers, zero outside the grid.
    """

    dim_in: int
    dim_out: int
    kind: str
    payload: dict = field(repr=False)
    support_radius: float
    name: str = ""


def _as_points(f: Field, x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InputError("non-finite evaluation point")
    single = False
    if x.ndim == 0:
        if f.dim_in != 1:
            raise InputError("scalar point for a multi-dimensional field")
        x = x.reshape(1, 1)
        single = True
    elif x.ndim == 1:
        if x.shape[0] == f.dim_in:
            x = x.reshape(1, f.dim_in)
            single = True
        elif f.dim_in == 1:
            x = x.reshape(-1, 1)
        else:
            raise InputError(f"point shape {x.shape} does not match dim_in={f.dim_in}")
    if x.shape[-1] != f.dim_in:
        raise InputError(f"point shape {x.shape} does not match dim_in={f.dim_in}")
    return x, single


def _grid_eval(spec: GridSpec, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Multilinear interpolation over cell centers with a zero ring outside.

    Per axis, a point lies between the cells i and i + 1, i = floor(u); a
    cell outside the grid keeps a clipped index and weight 0, so the value
    falls linearly to zero over the ring one cell wide around the grid.
    The points are taken _BLOCK_POINTS at a time, each block's corners
    summed into its rows of the output, so the per-point indices and
    weights never span more than one block."""
    ext = values.shape[:-1]
    flat = values.reshape(-1, values.shape[-1])
    out = np.zeros((len(x), flat.shape[1]))
    for p0 in range(0, len(x), _BLOCK_POINTS):
        xb = x[p0:p0 + _BLOCK_POINTS]
        stride = 1
        axes = []       # per axis, the two neighbouring cells as (flat index, weight)
        for k in reversed(range(len(ext))):
            u = (xb[:, k] - spec.origin[k]) / spec.spacing[k] - 0.5
            lo = np.floor(u)
            frac = u - lo
            pair = []
            for i, w in ((lo, 1.0 - frac), (lo + 1.0, frac)):
                inside = (i >= 0.0) & (i <= ext[k] - 1.0)
                index = np.clip(i, 0.0, ext[k] - 1.0).astype(np.intp) * stride
                pair.append((index, np.where(inside, w, 0.0)))
            axes.insert(0, pair)
            stride *= ext[k]
        acc = out[p0:p0 + len(xb)]
        for corner in itertools.product(*axes):
            index, weight = corner[0]
            for i, w in corner[1:]:
                index, weight = index + i, weight * w
            acc += weight[:, None] * flat.take(index, axis=0)
    return out


def eval_field(f: Field, x) -> np.ndarray:
    """Evaluate u(x); vectorized over points of shape (M, N)."""
    pts, single = _as_points(f, x)
    if f.kind == "piecewise":
        out = np.zeros((pts.shape[0], f.dim_out))
        for region, amp in f.payload["pieces"]:
            mask = region.contains(pts)
            out[mask] = np.asarray(amp, dtype=float)
    elif f.kind == "smooth":
        out = _eval_smooth(f, pts)
    elif f.kind == "grid":
        out = _grid_eval(f.payload["spec"], f.payload["values"], pts)
    else:
        raise InputError(f"unknown field kind {f.kind!r}")
    return out[0] if single else out


def _eval_smooth(f: Field, pts: np.ndarray) -> np.ndarray:
    formula = f.payload["formula"]
    p = f.payload.get("params", {})
    m = pts.shape[0]
    if formula == "constant":
        return np.broadcast_to(np.asarray(p["value"], dtype=float), (m, f.dim_out)).copy()
    if formula == "gaussian_bump":
        c = np.asarray(p["center"], dtype=float)
        w = float(p["width"])
        amp = np.asarray(p["amplitude"], dtype=float)
        r2 = np.sum((pts - c) ** 2, axis=-1)
        return np.exp(-r2 / (2.0 * w * w))[:, None] * amp
    if formula == "mollified":
        u, mol, eps = f.payload["field"], f.payload["mollifier"], f.payload["eps"]
        xs = pts[:, 0]
        if u.kind == "piecewise":
            # a step sum: sum_j amp_j (H((x-a_j)/eps) - H((x-b_j)/eps)), H the
            # mollifier's CDF
            out = np.zeros((m, f.dim_out))
            for a, b, amp in step_intervals(u):
                out += (mol.cdf((xs - a) / eps) - mol.cdf((xs - b) / eps))[:, None] * amp
            return out
        # a smooth field: int eta(z) u(x - eps z) dz by the mollifier's fixed rule
        z, w = mol.smoothing_rule
        vals = eval_field(u, (xs[:, None] - eps * z[None, :]).reshape(-1, 1))
        return np.einsum("k,mkd->md", w, vals.reshape(m, z.size, u.dim_out))
    raise InputError(f"unknown smooth formula {formula!r}")


# ---------------------------------------------------------------------------
# Jump data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpPatch:
    """One interface patch of a jump set.

    geometry: "point" (1D), "segment" (2D), "circle" (2D),
              "rect" (3D box face), "sphere" (3D).
    For flat patches `normal` is the constant unit normal; for circles and
    spheres it is outward along the patch and `normal` stores None.
    """

    geometry: str
    params: dict
    trace_plus: np.ndarray
    trace_minus: np.ndarray
    normal: Optional[np.ndarray]
    measure: float

    @property
    def jump_size(self) -> float:
        return float(np.linalg.norm(self.trace_plus - self.trace_minus))


@dataclass(frozen=True)
class JumpSetSpec:
    patches: tuple

    def total_measure(self) -> float:
        return sum(p.measure for p in self.patches)


def step_intervals(f: Field):
    """Yield the steps (a, b, amp) of a 1D piecewise field, piece by piece
    and a union part by part; CapabilityError for a region that is neither an
    interval nor a union of intervals."""
    for region, amp in f.payload["pieces"]:
        amp = np.asarray(amp, dtype=float)
        for r in (region.parts if region.kind == "union" else (region,)):
            if r.kind != "box":
                raise CapabilityError("a 1D piecewise field needs interval regions")
            yield r.lo[0], r.hi[0], amp


def jump_set_of(f: Field) -> JumpSetSpec:
    """Extract the ground-truth jump set of a piecewise-constant field."""
    if f.kind == "smooth" and f.payload.get("formula") == "constant":
        return JumpSetSpec(patches=())
    if f.kind != "piecewise":
        raise InputError("jump_set_of requires a piecewise-constant field")
    if f.dim_in == 1:
        return _jump_set_1d(f)
    return _jump_set_nd(f, f.payload["pieces"])


def _jump_set_1d(f: Field) -> JumpSetSpec:
    bps = knots_1d(f)
    patches = []
    for b in bps:
        # open-interval values adjacent to the breakpoint; adjacent regions
        # from the whitelist have positive length so a small probe is exact
        gap = min(np.diff(bps).min() if len(bps) > 1 else 1.0, 1.0) / 4.0
        left = eval_field(f, np.array([[b - gap]]))[0]
        right = eval_field(f, np.array([[b + gap]]))[0]
        if np.array_equal(left, right):
            continue
        patches.append(JumpPatch(
            geometry="point", params={"location": np.array([b])},
            trace_plus=right, trace_minus=left,
            normal=np.array([1.0]), measure=1.0))
    return JumpSetSpec(patches=tuple(patches))


def _jump_set_nd(f: Field, pieces) -> JumpSetSpec:
    # closures must be pairwise disjoint so traces are amplitude vs background
    boxes = []
    for region, _ in pieces:
        bb = region.bbox()
        if bb is None:
            raise CapabilityError("jump extraction needs bounded regions")
        boxes.append(bb)
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            lo = np.maximum(boxes[i][0], boxes[j][0])
            hi = np.minimum(boxes[i][1], boxes[j][1])
            if np.all(lo < hi):
                raise CapabilityError("adjacent pieces are not supported in 2D/3D")
    patches = []
    zero = np.zeros(f.dim_out)
    for region, amp in pieces:
        amp = np.asarray(amp, dtype=float)
        if np.array_equal(amp, zero):
            continue
        patches.extend(_region_boundary_patches(region, amp, zero, f.dim_in))
    return JumpSetSpec(patches=tuple(patches))


def _region_boundary_patches(region: RegionSpec, inside, outside, n: int):
    if region.kind == "union":
        out = []
        for p in region.parts:
            out.extend(_region_boundary_patches(p, inside, outside, n))
        return out
    if region.kind == "ball":
        c = np.asarray(region.center)
        r = region.radius
        if n == 2:
            return [JumpPatch("circle", {"center": c, "radius": r},
                              trace_plus=np.asarray(outside), trace_minus=np.asarray(inside),
                              normal=None, measure=2.0 * math.pi * r)]
        if n == 3:
            return [JumpPatch("sphere", {"center": c, "radius": r},
                              trace_plus=np.asarray(outside), trace_minus=np.asarray(inside),
                              normal=None, measure=4.0 * math.pi * r * r)]
        raise CapabilityError("ball boundary patches only in 2D/3D")
    if region.kind == "box":
        lo = np.asarray(region.lo)
        hi = np.asarray(region.hi)
        side = hi - lo
        out = []
        for axis in range(n):
            for sign, coord in ((-1.0, lo[axis]), (1.0, hi[axis])):
                normal = np.zeros(n)
                normal[axis] = sign
                area = float(np.prod(np.delete(side, axis)))
                center = (lo + hi) / 2.0
                center[axis] = coord
                geometry = "segment" if n == 2 else "rect"
                params = {"center": center, "axis": axis,
                          "half_extents": np.delete(side, axis) / 2.0}
                out.append(JumpPatch(geometry, params,
                                     trace_plus=np.asarray(outside),
                                     trace_minus=np.asarray(inside),
                                     normal=normal, measure=area))
        return out
    raise CapabilityError(f"jump extraction unsupported for region kind {region.kind!r}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def truncate(f: Field, l: float) -> Field:
    """Componentwise clamp of the field to [-l, l]."""
    if l < 0:
        raise InputError("truncation level must be nonnegative")
    if f.kind == "piecewise":
        pieces = tuple((region, np.clip(np.asarray(amp, dtype=float), -l, l))
                       for region, amp in f.payload["pieces"])
        return replace(f, payload={"pieces": pieces}, name=f"{f.name}|trunc{l:g}")
    if f.kind == "grid":
        payload = dict(f.payload)
        payload["values"] = np.clip(f.payload["values"], -l, l)
        return replace(f, payload=payload, name=f"{f.name}|trunc{l:g}")
    if f.kind == "smooth" and f.payload.get("formula") == "constant":
        value = np.clip(np.asarray(f.payload["params"]["value"], dtype=float), -l, l)
        payload = {"formula": "constant", "params": {"value": value}}
        return replace(f, payload=payload, name=f"{f.name}|trunc{l:g}")
    # no closed form under clamping: fall back to a grid sample
    lo, hi = support_bbox(f)
    margin = 0.05 * float(np.max(hi - lo))
    lo, hi = lo - margin, hi + margin
    cells = 512 if f.dim_in == 1 else 256
    spacing = (hi - lo) / cells
    g = GridSpec(origin=tuple(lo), spacing=tuple(spacing), extent=(cells,) * f.dim_in)
    sampled = sample(f, g)
    return truncate(sampled, l)


def sample_rows(f: Field, g: GridSpec):
    """The field at the grid's cell centers, read through eval_field a block
    of axis-0 rows (about _SAMPLE_POINTS points) at a time: yields
    (r0, values), values of shape (rows,) + extent[1:] + (dim_out,)."""
    if g.dim != f.dim_in:
        raise InputError("grid dimension does not match field")
    axes = g.centers()
    ext, n = tuple(g.extent), g.dim
    rows = max(1, _SAMPLE_POINTS // math.prod(ext[1:]))
    for r0 in range(0, ext[0], rows):
        block = [axes[0][r0:r0 + rows]] + axes[1:]
        # one (rows, ..., N) array of centers, each axis broadcast into its column
        pts = np.empty(tuple(len(a) for a in block) + (n,))
        for i, a in enumerate(block):
            pts[..., i] = a.reshape((-1,) + (1,) * (n - 1 - i))
        yield r0, eval_field(f, pts.reshape(-1, n)).reshape(pts.shape[:-1] + (f.dim_out,))


def sample(f: Field, g: GridSpec) -> Field:
    """Sample a field at cell centers onto a grid field, a block of rows at a
    time, so no array of all the centers is built."""
    vals = np.empty(tuple(g.extent) + (f.dim_out,))
    for r0, block in sample_rows(f, g):
        vals[r0:r0 + block.shape[0]] = block
    payload = {"spec": g, "values": vals, "source": f.name}
    return Field(dim_in=f.dim_in, dim_out=f.dim_out, kind="grid", payload=payload,
                 support_radius=f.support_radius, name=f"{f.name}|grid")


def support_bbox(f: Field):
    """Axis-aligned box containing the support (declared radius fallback)."""
    if f.kind == "piecewise":
        boxes = [region.bbox() for region, _ in f.payload["pieces"]]
        if all(b is not None for b in boxes):
            lo = np.min([b[0] for b in boxes], axis=0)
            hi = np.max([b[1] for b in boxes], axis=0)
            return lo, hi
    if f.kind == "grid":
        # the hats of the edge cells reach half a cell past the grid
        spec = f.payload["spec"]
        h = np.asarray(spec.spacing)
        lo = np.asarray(spec.origin) - 0.5 * h
        return lo, lo + h * (np.asarray(spec.extent) + 1.0)
    u = mollified_source(f)
    if u is not None and u.kind == "piecewise":
        reach = f.payload["eps"] * f.payload["mollifier"].halfwidth
        lo, hi = support_bbox(u)
        return lo - reach, hi + reach
    r = f.support_radius
    return -r * np.ones(f.dim_in), r * np.ones(f.dim_in)


def default_region(f: Field) -> RegionSpec:
    """Box strictly containing the support with one unit of margin."""
    lo, hi = support_bbox(f)
    return RegionSpec.box(lo - 1.0, hi + 1.0)


def knots_1d(f: Field):
    """Breakpoints where a 1D field loses smoothness, or None if smooth."""
    if f.dim_in != 1:
        return None
    if f.kind == "piecewise":
        return np.array(sorted({e for a, b, _ in step_intervals(f) for e in (a, b)}))
    u = mollified_source(f)
    if u is not None and u.kind == "piecewise":
        # a pdf may have a kink at 0 (the tent's does), so the steps
        # themselves are knots too
        reach = f.payload["mollifier"].halfwidth * f.payload["eps"]
        return np.array(sorted({k + s for k in knots_1d(u) for s in (-reach, 0.0, reach)}))
    if f.kind == "grid":
        # the cell centers and the outer ends of the zero ring
        spec = f.payload["spec"]
        c = spec.centers()[0]
        return np.concatenate([[c[0] - spec.spacing[0]], c, [c[-1] + spec.spacing[0]]])
    return None


def mollified_source(f: Field) -> Optional[Field]:
    """The field u of a mollified field u * eta_eps of formula "mollified",
    else None."""
    if f.kind == "smooth" and f.payload["formula"] == "mollified":
        return f.payload["field"]
    return None


def scale_field(f: Field, lam: float) -> Field:
    """The field lam * u, preserving kind."""
    if f.kind == "piecewise":
        pieces = tuple((region, lam * np.asarray(amp, dtype=float))
                       for region, amp in f.payload["pieces"])
        return replace(f, payload={"pieces": pieces}, name=f"{lam:g}*{f.name}")
    if f.kind == "grid":
        payload = dict(f.payload)
        payload["values"] = lam * f.payload["values"]
        return replace(f, payload=payload, name=f"{lam:g}*{f.name}")
    if f.kind == "smooth":
        formula = f.payload["formula"]
        if formula == "mollified":
            payload = dict(f.payload, field=scale_field(f.payload["field"], lam))
        else:
            params = dict(f.payload["params"])
            if formula == "constant":
                params["value"] = lam * np.asarray(params["value"], dtype=float)
            elif formula == "gaussian_bump":
                params["amplitude"] = lam * np.asarray(params["amplitude"], dtype=float)
            else:
                raise CapabilityError(f"cannot scale smooth formula {formula!r}")
            payload = dict(f.payload, params=params)
        return replace(f, payload=payload, name=f"{lam:g}*{f.name}")
    raise CapabilityError(f"cannot scale field kind {f.kind!r}")


def sup_amplitude(f: Field) -> float:
    """Componentwise sup |u^i|; used to decide when truncation is inactive."""
    if f.kind == "piecewise":
        amps = [np.max(np.abs(np.asarray(a))) for _, a in f.payload["pieces"]]
        return float(max(amps, default=0.0))
    if f.kind == "grid":
        return float(np.max(np.abs(f.payload["values"])))
    if f.kind == "smooth":
        p = f.payload.get("params", {})
        if f.payload["formula"] == "constant":
            return float(np.max(np.abs(np.asarray(p["value"]))))
        if f.payload["formula"] == "gaussian_bump":
            return float(np.max(np.abs(np.asarray(p["amplitude"]))))
    raise CapabilityError(f"no amplitude bound for field {f.name!r}")


# ---------------------------------------------------------------------------
# Shipped field library
# ---------------------------------------------------------------------------

def _step_1d(amplitude: float = 1.0, a: float = 0.0, b: float = 1.0) -> Field:
    pieces = ((RegionSpec.interval(a, b), np.array([amplitude])),)
    return Field(1, 1, "piecewise", {"pieces": pieces},
                 support_radius=max(abs(a), abs(b)), name="step_1d")


def _two_steps_1d(amp1: float = 1.0, amp2: float = -2.0) -> Field:
    pieces = ((RegionSpec.interval(0.0, 1.0), np.array([amp1])),
              (RegionSpec.interval(1.5, 2.0), np.array([amp2])))
    return Field(1, 1, "piecewise", {"pieces": pieces}, support_radius=2.0, name="two_steps_1d")


def _vector_step_1d(angle: float = math.pi / 3.0, amplitude: float = 1.0) -> Field:
    # two-component rotated step, exercises the euclidean |.| on values
    vec = amplitude * np.array([math.cos(angle), math.sin(angle)])
    pieces = ((RegionSpec.interval(0.0, 1.0), vec),)
    return Field(1, 2, "piecewise", {"pieces": pieces}, support_radius=1.0,
                 name="vector_step_1d")


def _disk_2d(radius: float = 0.5, amplitude: float = 1.0, center=(0.0, 0.0)) -> Field:
    pieces = ((RegionSpec.ball(center, radius), np.array([amplitude])),)
    rad = float(np.linalg.norm(center)) + radius
    return Field(2, 1, "piecewise", {"pieces": pieces}, support_radius=rad, name="disk_2d")


def _box_2d(lo=(-0.5, -0.5), hi=(0.5, 0.5), amplitude: float = 1.0) -> Field:
    pieces = ((RegionSpec.box(lo, hi), np.array([amplitude])),)
    rad = float(np.max(np.abs(np.array([lo, hi]))))
    return Field(2, 1, "piecewise", {"pieces": pieces}, support_radius=rad, name="box_2d")


def _ball_3d(radius: float = 0.5, amplitude: float = 1.0) -> Field:
    pieces = ((RegionSpec.ball((0.0, 0.0, 0.0), radius), np.array([amplitude])),)
    return Field(3, 1, "piecewise", {"pieces": pieces}, support_radius=radius, name="ball_3d")


def _gaussian_bump_1d(width: float = 0.35, amplitude: float = 1.0, center=(0.5,)) -> Field:
    payload = {"formula": "gaussian_bump",
               "params": {"center": center, "width": width, "amplitude": np.array([amplitude])}}
    rad = abs(float(np.atleast_1d(center)[0])) + 9.0 * width
    return Field(1, 1, "smooth", payload, support_radius=rad, name="gaussian_bump_1d")


def _constant(value=1.0, dim: int = 1, support_radius: float = 1.0) -> Field:
    value = np.atleast_1d(np.asarray(value, dtype=float))
    payload = {"formula": "constant", "params": {"value": value}}
    return Field(dim, len(value), "smooth", payload, support_radius=support_radius,
                 name="constant")


# field name -> its builder, whose parameters are its config keys
FIELDS = {"step_1d": _step_1d, "two_steps_1d": _two_steps_1d,
          "vector_step_1d": _vector_step_1d, "disk_2d": _disk_2d, "box_2d": _box_2d,
          "ball_3d": _ball_3d, "gaussian_bump_1d": _gaussian_bump_1d, "constant": _constant}


def make_field(name: str, **params) -> Field:
    """The named test field, built from its parameters as a config object
    is; a parameter the named field does not read is an error."""
    return built_kind("field", FIELDS, "name", "field name", {"name": name, **params})
