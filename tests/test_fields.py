import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovlab import fields
from besovlab.errors import CapabilityError, InputError
from besovlab.fields import (Field, GridSpec, RegionSpec, default_region,
                             eval_field, jump_set_of, knots_1d, make_field, sample,
                             scale_field, support_bbox, truncate)
from besovlab.mollifiers import make_mollifier, mollify
from besovlab.quadrature import shift_integral

from oracles import circle_arc_length, grid_eval_rowmajor, region_contains_rowmajor

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def test_indicator_evaluation(step):
    assert eval_field(step, 0.5)[0] == 1.0
    assert eval_field(step, 2.0)[0] == 0.0
    assert eval_field(step, np.array([[0.25], [1.25]])).ravel().tolist() == [1.0, 0.0]


def test_disk_membership(disk):
    # |(0.3, 0.3)| ~ 0.424 < 0.5
    assert eval_field(disk, np.array([0.3, 0.3]))[0] == 1.0
    assert eval_field(disk, np.array([0.5, 0.5]))[0] == 0.0


def test_nonfinite_point_rejected(step):
    with pytest.raises(InputError):
        eval_field(step, np.array([math.nan]))


def test_region_membership_is_exact():
    box = RegionSpec.box([0.0], [1.0])
    assert box.contains(np.array([[0.0], [1.0], [1.0 + 1e-12]])).tolist() == [True, True, False]


def test_truncate_clamps_amplitude(step3):
    t = truncate(step3, 1.0)
    assert eval_field(t, 0.5)[0] == 1.0
    assert eval_field(t, -0.5)[0] == 0.0


def test_truncate_inactive_and_zero(step3):
    same = truncate(step3, 5.0)
    xs = np.linspace(-1, 2, 37)[:, None]
    assert np.array_equal(eval_field(same, xs), eval_field(step3, xs))
    const = make_field("constant", value=-2.0)
    zero = truncate(const, 0.0)
    assert eval_field(zero, 0.3)[0] == 0.0


def test_truncate_smooth_field_clips_a_grid_sample(bump):
    # no closed form under clamping: 512 cells over the support and 5% margins
    t = truncate(bump, 0.5)
    spec = t.payload["spec"]
    lo, hi = support_bbox(bump)
    margin = 0.05 * float(hi[0] - lo[0])
    assert t.kind == "grid" and spec.extent == (512,)
    assert spec.origin[0] == lo[0] - margin
    assert spec.spacing[0] == pytest.approx((hi[0] - lo[0] + 2.0 * margin) / 512, rel=1e-15)
    samples = sample(bump, spec).payload["values"]
    assert samples.max() > 0.9
    assert np.array_equal(t.payload["values"], np.clip(samples, -0.5, 0.5))


def test_truncate_grid_field_clips_its_values():
    values = np.random.default_rng(5).standard_normal((6, 4, 2))
    spec = GridSpec(origin=(0.0, -1.0), spacing=(0.25, 0.5), extent=(6, 4))
    f = Field(2, 2, "grid", {"spec": spec, "values": values, "source": "noise"},
              support_radius=3.0, name="noise")
    t = truncate(f, 0.7)
    assert t.kind == "grid" and t.payload["spec"] is spec and t.payload["source"] == "noise"
    assert np.array_equal(t.payload["values"], np.clip(values, -0.7, 0.7))
    assert np.array_equal(f.payload["values"], values)


def test_truncate_rejects_negative(step):
    with pytest.raises(InputError):
        truncate(step, -0.5)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_truncation_pointwise_monotone(step3, vstep, seed):
    # |u_l(x) - u_l(y)| <= |u_m(x) - u_m(y)| <= |u(x) - u(y)| for l <= m
    rng = np.random.default_rng(seed)
    for f in (step3, vstep):
        xs = rng.uniform(-1.5, 2.5, (64, 1))
        ys = rng.uniform(-1.5, 2.5, (64, 1))
        prev = None
        for l in (0.25, 0.75, 1.5, 4.0):
            fl = truncate(f, l)
            d = np.linalg.norm(eval_field(fl, xs) - eval_field(fl, ys), axis=-1)
            if prev is not None:
                assert np.all(d >= prev - 1e-14)
            prev = d
        full = np.linalg.norm(eval_field(f, xs) - eval_field(f, ys), axis=-1)
        assert np.all(prev <= full + 1e-14)


def test_truncation_converges_pointwise(step3):
    xs = np.linspace(-1, 2, 31)[:, None]
    target = eval_field(step3, xs)
    for l in (10.0, 100.0):
        assert np.allclose(eval_field(truncate(step3, l), xs), target)


def test_jump_set_of_step(step):
    js = jump_set_of(step)
    locs = sorted(p.params["location"][0] for p in js.patches)
    assert locs == [0.0, 1.0]
    for p in js.patches:
        assert p.measure == 1.0
        assert p.jump_size == 1.0
    # interface measure reproduces the closed form to 1e-12
    assert abs(js.total_measure() - 2.0) <= 1e-12


def test_jump_set_of_disk(disk):
    js = jump_set_of(disk)
    assert len(js.patches) == 1
    patch = js.patches[0]
    assert patch.geometry == "circle"
    # circumference against the arc-length quadrature oracle
    assert abs(patch.measure - circle_arc_length(0.5)) <= 1e-9
    assert abs(patch.measure - 2.0 * math.pi * 0.5) <= 1e-12
    assert patch.jump_size == 1.0


def test_jump_set_of_box_measures():
    box = make_field("box_2d")
    js = jump_set_of(box)
    assert len(js.patches) == 4
    assert abs(js.total_measure() - 4.0) <= 1e-12


def test_jump_set_constant_empty():
    assert jump_set_of(make_field("constant", value=3.0)).patches == ()


def test_jump_set_requires_piecewise(bump):
    with pytest.raises(InputError):
        jump_set_of(bump)


def test_jump_set_adjacent_regions_unsupported():
    pieces = ((RegionSpec.box([0, 0], [1, 1]), np.array([1.0])),
              (RegionSpec.box([0.5, 0.5], [2, 2]), np.array([2.0])),)
    f = Field(2, 1, "piecewise", {"pieces": pieces}, support_radius=3.0)
    with pytest.raises(CapabilityError):
        jump_set_of(f)


def test_sample_constant_and_indicator(step):
    g = GridSpec(origin=(-1.0,), spacing=(0.25,), extent=(12,))
    const = make_field("constant", value=1.0)
    sc = sample(const, g)
    assert np.all(sc.payload["values"] == 1.0)
    ss = sample(step, g)
    centers = g.centers()[0]
    expect = ((centers >= 0.0) & (centers <= 1.0)).astype(float)
    assert np.array_equal(ss.payload["values"][:, 0], expect)
    assert ss.payload["source"] == step.name


@pytest.mark.parametrize("name,extent", [("disk_2d", (300, 250)), ("ball_3d", (50, 40, 41))])
def test_sample_in_row_blocks_matches_pointwise_eval(name, extent):
    # more than one block of rows: the values are those of one eval_field
    # call over every cell center, bit for bit
    f = make_field(name)
    n = len(extent)
    g = GridSpec(origin=(-0.6,) * n, spacing=tuple(1.2 / e for e in extent), extent=extent)
    mesh = np.meshgrid(*g.centers(), indexing="ij")
    whole = eval_field(f, np.stack([m.ravel() for m in mesh], axis=-1))
    values = sample(f, g).payload["values"]
    assert values.shape == extent + (1,)
    assert np.array_equal(values, whole.reshape(values.shape))
    assert 0.0 < values.mean() < 1.0


def test_sample_exact_at_nodes(bump):
    g = GridSpec(origin=(-2.0,), spacing=(0.125,), extent=(64,))
    sb = sample(bump, g)
    node = g.centers()[0][17]
    assert abs(eval_field(sb, node)[0] - eval_field(bump, node)[0]) <= 1e-14


def test_grid_extends_by_zero(step):
    g = GridSpec(origin=(-1.0,), spacing=(0.1,), extent=(30,))
    sg = sample(step, g)
    assert eval_field(sg, 5.0)[0] == 0.0
    assert eval_field(sg, -5.0)[0] == 0.0


@pytest.mark.parametrize("extent,dim_out", [((7,), 1), ((6, 5), 1), ((6, 5), 3),
                                              ((4, 5, 3), 2)])
def test_grid_eval_matches_zero_padded_interpolator(extent, dim_out):
    from scipy.interpolate import RegularGridInterpolator
    rng = np.random.default_rng(len(extent) * 10 + dim_out)
    n = len(extent)
    origin = tuple(rng.uniform(-1.0, 1.0, n))
    spacing = tuple(rng.uniform(0.1, 0.4, n))
    g = GridSpec(origin=origin, spacing=spacing, extent=extent)
    values = rng.standard_normal(extent + (dim_out,))
    f = Field(n, dim_out, "grid", {"spec": g, "values": values}, support_radius=5.0)
    # oracle: the grid with one explicit ring of zero-valued centers added
    axes = [np.concatenate([[c[0] - s], c, [c[-1] + s]])
            for c, s in zip(g.centers(), spacing)]
    padded = np.pad(values, [(1, 1)] * n + [(0, 0)])
    oracle = RegularGridInterpolator(axes, padded, method="linear",
                                     bounds_error=False, fill_value=0.0)
    lo = np.asarray(origin)
    hi = lo + np.asarray(spacing) * np.asarray(extent)
    cell = np.asarray(spacing)
    inside = rng.uniform(lo + 0.5 * cell, hi - 0.5 * cell, (200, n))
    # the zero ring: one coordinate between an outermost center and one
    # spacing beyond it, where values fall linearly to zero
    ring = rng.uniform(lo + 0.5 * cell, hi - 0.5 * cell, (400, n))
    axis = rng.integers(0, n, 400)
    depth = rng.uniform(0.0, 1.0, 400) * cell[axis]
    upper = rng.random(400) < 0.5
    ring[np.arange(400), axis] = np.where(upper, hi[axis] - 0.5 * cell[axis] + depth,
                                          lo[axis] + 0.5 * cell[axis] - depth)
    far = rng.uniform(lo - 10.0, hi + 10.0, (200, n))
    for pts in (inside, ring, far):
        np.testing.assert_allclose(eval_field(f, pts), oracle(pts), rtol=0, atol=1e-13)
    assert np.all(eval_field(f, hi + 0.5 * cell + 1e-9) == 0.0)
    assert np.all(eval_field(f, lo - 3.0) == 0.0)


def test_grid_spec_validation():
    with pytest.raises(InputError):
        GridSpec(origin=(0.0,), spacing=(0.0,), extent=(4,))
    with pytest.raises(InputError):
        GridSpec(origin=(0.0,), spacing=(0.1,), extent=(1,))


def _ones_grid(n):
    spec = GridSpec(origin=(0.0,) * n, spacing=(0.25,) * n, extent=(4,) * n)
    return Field(n, 1, "grid", {"spec": spec, "values": np.ones((4,) * n + (1,))},
                 support_radius=2.0, name="ones")


def test_grid_support_bbox_holds_the_zero_ring():
    # the hats of the edge cells reach half a cell past the grid
    f = _ones_grid(2)
    lo, hi = support_bbox(f)
    x = np.array([[-0.1, 0.5], [1.1, 0.5]])
    assert np.all(eval_field(f, x) > 0.0)
    assert np.all((x > lo) & (x < hi))
    assert np.all(eval_field(f, np.array([lo - 1e-12, hi + 1e-12])) == 0.0)


def test_grid_shift_integral_past_the_support():
    # four ones at h = 1/4: ||u||^2 = h (4 * 2/3 + 6 * 1/6) = 11/12, and
    # once the shift passes the support F = 2 ||u||^2
    r = shift_integral(_ones_grid(1), None, [3.0], 2.0)
    val, err = r.value, r.error_estimate
    assert val == pytest.approx(11.0 / 6.0, rel=1e-12)
    assert err <= 1e-12


def test_mollified_step_knots_hold_the_steps(step, tent):
    # the tent's pdf kinks at 0, so u_eps'' jumps at the steps themselves
    eps = 0.1
    ks = knots_1d(mollify(step, tent, eps))
    assert np.allclose(ks, [-eps, 0.0, eps, 1.0 - eps, 1.0, 1.0 + eps], rtol=0, atol=1e-15)
    gauss = mollify(step, make_mollifier("truncated-gaussian"), eps)
    assert {0.0, 1.0} <= set(knots_1d(gauss).tolist())


def test_default_region_margin(step):
    region = default_region(step)
    assert region.contains(np.array([[-0.99], [1.99]])).all()
    assert not region.contains(np.array([[2.01]]))[0]


def test_scale_field(vstep):
    doubled = scale_field(vstep, 2.0)
    x = np.array([[0.5]])
    assert np.allclose(eval_field(doubled, x), 2.0 * eval_field(vstep, x))


def test_region_roundtrip():
    r = RegionSpec.union_of(RegionSpec.ball((0.0, 0.0), 1.0),
                            RegionSpec.box([2.0, 2.0], [3.0, 3.0]))
    r2 = RegionSpec.from_dict(r.to_dict())
    pts = np.array([[0.5, 0.5], [2.5, 2.5], [1.5, 1.5]])
    assert np.array_equal(r.contains(pts), r2.contains(pts))


@pytest.mark.parametrize("region, dim, box, measure", [
    (RegionSpec.union_of(RegionSpec.interval(-0.5, 0.6), RegionSpec.interval(1.2, 2.5)), 1,
     ([-0.5], [2.5]), 2.4),
    (RegionSpec.union_of(RegionSpec.ball((0.0, 0.0), 1.0), RegionSpec.box([2.0, 2.0], [3.0, 3.0])),
     2, ([-1.0, -1.0], [3.0, 3.0]), math.pi + 1.0),
    (RegionSpec.union_of(RegionSpec.interval(0.0, 1.0), RegionSpec.half_space([1.0], -3.0)), 1,
     None, None),
    (RegionSpec.complement_of(RegionSpec.interval(0.3, 0.8)), 1, None, None),
    (RegionSpec.half_space([-1.0], -0.4), 1, None, None),
    (RegionSpec.half_space([0.6, 0.8], 0.2), 2, None, None),
], ids=["union_1d", "union_2d", "unbounded_union", "complement", "half_space_1d",
        "half_space_2d"])
def test_union_complement_half_space_regions(region, dim, box, measure):
    assert RegionSpec.from_dict(region.to_dict()) == region
    assert region.dim == dim
    if box is None:
        assert region.bbox() is None
        with pytest.raises(CapabilityError):
            region.measure()
    else:
        assert tuple(b.tolist() for b in region.bbox()) == box
        assert region.measure() == pytest.approx(measure, rel=1e-15)


def test_jump_patch_invariants(step3, disk):
    for f in (step3, disk):
        js = jump_set_of(f)
        for p in js.patches:
            assert p.jump_size > 0.0
            assert 0.0 <= p.measure < math.inf
            if p.normal is not None:
                assert np.linalg.norm(p.normal) == pytest.approx(1.0, abs=1e-14)


def test_jump_set_half_space_piece_unsupported():
    pieces = ((RegionSpec.half_space([1.0, 0.0], 0.0), np.array([1.0])),)
    f = Field(2, 1, "piecewise", {"pieces": pieces}, support_radius=1.0)
    with pytest.raises(CapabilityError):
        jump_set_of(f)


@PROPERTY
@given(n=st.integers(1, 3), dim_out=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1),
       h=st.floats(0.01, 2.0), spread=st.floats(0.0, 3.0))
def test_grid_eval_matches_rowmajor_reference(n, dim_out, seed, h, spread):
    # per axis, the points fill the grid, its zero ring and beyond; a third
    # sit on the half-cell lattice of centers and cell edges
    rng = np.random.default_rng(seed)
    ext = tuple(int(e) for e in rng.integers(2, 7, n))
    spec = GridSpec(origin=tuple(rng.uniform(-3.0, 3.0, n)), spacing=(h,) * n, extent=ext)
    values = rng.standard_normal(ext + (dim_out,))
    cells = rng.uniform(-1.0 - spread, np.asarray(ext) + 1.0 + spread, (300, n))
    cells[::3] = np.round(2.0 * cells[::3]) / 2.0
    x = np.asarray(spec.origin) + h * cells
    f = Field(n, dim_out, "grid", {"spec": spec, "values": values}, support_radius=10.0)
    assert np.array_equal(eval_field(f, x), grid_eval_rowmajor(spec, values, x))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("dim_out", [1, 2])
def test_blocked_grid_eval_matches_single_pass(n, dim_out):
    # eval_field takes a grid's points fields._BLOCK_POINTS at a time; the
    # counts fall short of, just past and well past a block.  In cell units
    # the centers span [0.5, ext - 0.5]; every third point sits inside, in
    # the one-cell zero ring along one axis, or beyond it
    rng = np.random.default_rng(10 * n + dim_out)
    ext = np.array([int(e) for e in rng.integers(2, 9, n)])
    h = 0.3
    spec = GridSpec(origin=tuple(rng.uniform(-2.0, 2.0, n)), spacing=(h,) * n,
                    extent=tuple(int(e) for e in ext))
    values = rng.standard_normal(tuple(ext) + (dim_out,))
    f = Field(n, dim_out, "grid", {"spec": spec, "values": values}, support_radius=10.0)
    block = fields._BLOCK_POINTS
    for count in (0, 1, block - 1, block + 1, 3 * block + 5):
        cells = rng.uniform(0.5, ext - 0.5, (count, n))
        axis = rng.integers(0, n, count)
        depth = np.where(np.arange(count) % 3 == 1, rng.uniform(0.0, 1.0, count),
                         rng.uniform(1.0, 3.0, count))
        upper = rng.random(count) < 0.5
        edge = np.where(upper, ext[axis] - 0.5 + depth, 0.5 - depth)
        moved = np.arange(count) % 3 != 0
        cells[moved, axis[moved]] = edge[moved]
        x = np.asarray(spec.origin) + h * cells
        got = eval_field(f, x)
        assert got.shape == (count, dim_out)
        assert np.array_equal(got, grid_eval_rowmajor(spec, values, x))


@st.composite
def regions(draw, n, depth=2):
    kinds = ["box", "ball", "half_space"] + (["union", "complement"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    coords = st.floats(-2.0, 2.0)
    if kind == "box":
        lo = draw(st.lists(coords, min_size=n, max_size=n))
        widths = draw(st.lists(st.floats(0.01, 3.0), min_size=n, max_size=n))
        return RegionSpec.box(lo, [a + w for a, w in zip(lo, widths)])
    if kind == "ball":
        return RegionSpec.ball(draw(st.lists(coords, min_size=n, max_size=n)),
                               draw(st.floats(0.01, 2.0)))
    if kind == "half_space":
        normal = draw(st.lists(coords, min_size=n, max_size=n).filter(
            lambda v: any(abs(c) > 1e-3 for c in v)))
        return RegionSpec.half_space(normal, draw(coords))
    if kind == "complement":
        return RegionSpec.complement_of(draw(regions(n, depth - 1)))
    return RegionSpec.union_of(*draw(st.lists(regions(n, depth - 1), min_size=1, max_size=3)))


def _boundary(region):
    """Coordinates where the region's boundaries lie (box faces, ball
    extremes and centers, half-space offsets) and its balls."""
    if region.kind in ("complement", "union"):
        parts = [region.inner] if region.kind == "complement" else region.parts
        found = [_boundary(p) for p in parts]
        return [c for f in found for c in f[0]], [b for f in found for b in f[1]]
    if region.kind == "box":
        return list(region.lo) + list(region.hi), []
    if region.kind == "ball":
        return [c + d for c in region.center for d in (-region.radius, 0.0, region.radius)], \
            [region]
    return [region.offset], []


@PROPERTY
@given(data=st.data(), n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_region_contains_matches_rowmajor_reference(data, n, seed):
    # random points, about half their coordinates set to the region's
    # boundary values, a quarter of the points on the spheres of its balls
    # (where the rounding of |x - c|^2 decides), as (M, N) and (M / 2, 2, N)
    region = data.draw(regions(n))
    rng = np.random.default_rng(seed)
    x = rng.uniform(-4.0, 4.0, (400, n))
    coords, balls = _boundary(region)
    special = np.asarray(coords + [0.0])
    on = rng.random(x.shape) < 0.5
    x[on] = special[rng.integers(0, len(special), int(on.sum()))]
    if balls:
        pick = rng.integers(0, len(balls), 100)
        d = rng.standard_normal((100, n))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        x[300:] = np.array([b.center for b in balls])[pick] \
            + np.array([b.radius for b in balls])[pick, None] * d
    for pts in (x, x.reshape(200, 2, n)):
        assert np.array_equal(region.contains(pts), region_contains_rowmajor(region, pts))
