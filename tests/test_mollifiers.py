import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate as sciint

from besovlab.errors import InputError, ResolutionError
from besovlab.fields import (Field, GridSpec, RegionSpec, eval_field, jump_set_of, knots_1d,
                             make_field, sample, scale_field, support_bbox)
from besovlab import mollifiers
from besovlab.mollifiers import (_convolve, _mollify_grid, _taps, make_mollifier,
                                 mollifier_bound_check, mollify)
from besovlab.quadrature import PiecewisePower, _fast_len, pair_integral
from besovlab.seminorms import (FunctionalParams, besov_seminorm_q, gagliardo_constant_at,
                                lq_norm_q)

from oracles import convolve_full_fft, direct_convolution_1d


def test_tent_moments(tent):
    assert tent.total == 1.0
    assert tent.abs_mass == 1.0
    assert tent.grad_mass == 2.0
    # int |eta'|(|v|+2)^{rq} dv = 2 int_0^1 (v+2)^{rq} dv, closed form at rq=1
    assert tent.weighted_grad(1.0) == pytest.approx(5.0, rel=1e-10)
    assert tent.abs_weighted_moment(1.0) == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_gauss_moments():
    g = make_mollifier("truncated-gaussian")
    assert g.total == 1.0
    val, _ = sciint.quad(lambda v: float(g.pdf(v)), -6.0, 6.0, limit=200)
    assert val == pytest.approx(1.0, abs=1e-10)
    # the 6-sigma cut + renormalization perturbs the gradient mass by ~1e-8
    assert abs(g.grad_mass - 2.0 / math.sqrt(2.0 * math.pi)) <= 2e-8


def test_bump_and_signed_moments():
    b = make_mollifier("smooth-bump")
    val, _ = sciint.quad(lambda v: float(b.pdf(v)), -1.0, 1.0, limit=200)
    assert val == pytest.approx(1.0, abs=1e-9)
    s = make_mollifier("signed-test")
    assert s.total == 0.0
    val, _ = sciint.quad(lambda v: float(np.atleast_1d(s.pdf(v))[0]), -1.0, 1.0,
                         limit=200)
    assert abs(val) <= 1e-12
    # CDF of the derivative field is the bump itself
    assert s.cdf(0.0) == pytest.approx(float(b.pdf(0.0)), rel=1e-12)
    assert s.cdf(2.0) == 0.0


def test_bump_cdf_table_is_exact_to_rounding(monkeypatch):
    """The bump's CDF table against quad, and the smooth-bump Gagliardo rows
    of the step at e^-2 and e^-5 against the same rows on a table 16 times
    finer: each moves by less than its reported error."""
    b = make_mollifier("smooth-bump")
    ws = np.linspace(-1.0, 1.0, 41)
    ref = [sciint.quad(lambda v: float(b.pdf(v)), -1.0, w, epsabs=1e-15, epsrel=1e-13,
                       limit=200)[0] for w in ws]
    assert np.max(np.abs(b.cdf(ws) - ref)) <= 1e-13
    assert b.cdf(-1.5) == 0.0 and b.cdf(1.5) == b.cdf(1.0)
    step, params = make_field("step_1d"), FunctionalParams.jump_regime(2.0)
    monkeypatch.setattr(mollifiers, "_CDF_CELLS", 16 * mollifiers._CDF_CELLS)
    fine = make_mollifier("smooth-bump")
    for eps in (math.exp(-2.0), math.exp(-5.0)):
        row = gagliardo_constant_at(step, b, params, eps)
        assert abs(gagliardo_constant_at(step, fine, params, eps).value - row.value) \
            < row.error_estimate


def test_mollify_constant(tent):
    const = make_field("constant", value=3.0)
    out = mollify(const, tent, 0.3)
    assert eval_field(out, 0.7)[0] == pytest.approx(3.0)
    signed = make_mollifier("signed-test")
    zero = mollify(const, signed, 0.3)
    assert eval_field(zero, 0.7)[0] == pytest.approx(0.0, abs=1e-15)


def test_mollify_step_closed_form(step, tent):
    u = mollify(step, tent, 0.2)
    assert eval_field(u, 0.0)[0] == pytest.approx(0.5, abs=1e-14)
    # against a dense direct-convolution oracle at several points
    for x in (-0.1, 0.05, 0.5, 0.93, 1.18):
        oracle = direct_convolution_1d(step, tent.pdf, 1.0, 0.2, x)
        assert eval_field(u, x)[0] == pytest.approx(oracle, abs=1e-7)


def test_mollify_step_gauss_and_signed(step):
    g = make_mollifier("truncated-gaussian")
    u = mollify(step, g, 0.1)
    for x in (0.0, 0.25, 1.0):
        oracle = direct_convolution_1d(step, g.pdf, 6.0, 0.1, x, n=60_001)
        assert eval_field(u, x)[0] == pytest.approx(oracle, abs=1e-7)
    s = make_mollifier("signed-test")
    u = mollify(step, s, 0.1)
    oracle = direct_convolution_1d(step, lambda v: np.atleast_1d(s.pdf(v)),
                                   1.0, 0.1, 0.05)
    assert eval_field(u, 0.05)[0] == pytest.approx(oracle, abs=1e-6)


def test_mollify_grid_2d(disk, tent2):
    eps = 0.25
    u = mollify(disk, tent2, eps)
    assert u.kind == "grid"
    assert eval_field(u, np.array([0.0, 0.0]))[0] == pytest.approx(1.0, abs=1e-6)
    assert eval_field(u, np.array([1.2, 0.0]))[0] == 0.0
    # unit-mass mollification conserves the integral up to the O(cell)
    # indicator-sampling bias of the grid path
    assert lq_norm_q(u, 1.0) == pytest.approx(math.pi * 0.25, rel=2e-2)


def _direct_convolution(values, taps):
    """Reference: the sum over the taps of each tap times the values shifted
    by its offset from the center, zero outside the grid."""
    ext = values.shape[:-1]
    out = np.zeros_like(values)
    for o in np.ndindex(*taps.shape):
        d = [oi - t // 2 for oi, t in zip(o, taps.shape)]
        dst = tuple(slice(max(0, x), e + min(0, x)) for x, e in zip(d, ext))
        src = tuple(slice(max(0, -x), e - max(0, x)) for x, e in zip(d, ext))
        out[dst] += taps[o] * values[src]
    return out


def _two_component_2d():
    pieces = ((RegionSpec.ball((0.0, 0.0), 0.5), np.array([1.0, -2.0])),
              (RegionSpec.box((0.6, -0.2), (0.9, 0.4)), np.array([0.5, 3.0])))
    return Field(2, 2, "piecewise", {"pieces": pieces}, support_radius=1.0, name="pair")


@pytest.mark.parametrize("case", ["signed_1d", "tent_2d_vector", "tent_3d"])
def test_grid_mollification_matches_direct_summation(step, case):
    if case == "signed_1d":    # total mass 0; mollify itself takes the CDF path
        f, m, eps = step, make_mollifier("signed-test"), 0.05
        u = _mollify_grid(f, m, eps)
    else:
        f = _two_component_2d() if case == "tent_2d_vector" else make_field("ball_3d")
        m, eps = make_mollifier("tent", dim=f.dim_in), 0.2 if f.dim_in == 2 else 0.5
        u = mollify(f, m, eps)
    spec = u.payload["spec"]
    values = sample(f, spec).payload["values"]
    taps = _taps(m, eps, spec.spacing[0], f.dim_in)
    assert taps.shape == (17,) * f.dim_in
    reference = _direct_convolution(values, taps)
    np.testing.assert_allclose(u.payload["values"], reference, rtol=0,
                               atol=1e-12 * np.abs(values).max())
    assert np.abs(reference).max() > 0.1


@pytest.mark.parametrize("extent", [(200,), (70, 130), (5, 9, 70)])
@pytest.mark.parametrize("taps_per_axis", [1, 3, 17])
@pytest.mark.parametrize("dim_out", [1, 2])
def test_blocked_convolution_is_the_full_fft_bit_for_bit(extent, taps_per_axis, dim_out):
    # extents that split the row and column blocks unevenly
    rng = np.random.default_rng(len(extent) * 100 + taps_per_axis * 10 + dim_out)
    values = rng.standard_normal(extent + (dim_out,))
    taps = rng.random((taps_per_axis,) * len(extent))
    reference = convolve_full_fft(values, taps)
    out = _convolve(values, taps)
    assert out is values
    assert np.array_equal(out, reference)


def test_grid_mollification_peak_memory(disk, tent2, monkeypatch):
    # The convolution holds the samples, one (ext_0, F) complex buffer and
    # its blocks.  Sampling ends before it starts; its own temporaries
    # (fields._SAMPLE_POINTS centers at a time) are left out of the peak.
    def sample_then_reset(f, spec):
        out = sample(f, spec)
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(mollifiers, "sample", sample_then_reset)
    tracemalloc.start()
    try:
        u = mollify(disk, tent2, math.exp(-4.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    values = u.payload["values"]
    ext = values.shape[:-1]
    assert ext == (457, 457)
    # per axis-0 row, F complex values: the rfft at the length that holds
    # ext_1 + 17 - 1 points (17 taps)
    buffer = ext[0] * (_fast_len(ext[1] + 16) // 2 + 1) * 16
    assert peak <= 1.25 * (values.nbytes + buffer)


def test_grid_sampling_peak_memory(disk, tent2, monkeypatch):
    # sampling mollify's e^-4 grid (457^2, values 1.67 MB) holds one block of
    # fields._SAMPLE_POINTS centers, filled in place, and eval_field's work
    specs = []

    def record(f, spec):
        specs.append(spec)
        return sample(f, spec)

    monkeypatch.setattr(mollifiers, "sample", record)
    mollify(disk, tent2, math.exp(-4.0))
    assert tuple(specs[0].extent) == (457, 457)
    tracemalloc.start()
    try:
        sample(disk, specs[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.0e6


def test_mollify_resolution_error(step, tent):
    g = GridSpec(origin=(-1.0,), spacing=(0.05,), extent=(60,))
    coarse = sample(step, g)
    with pytest.raises(ResolutionError):
        mollify(coarse, tent, 0.2)   # eps < 8 * spacing
    with pytest.raises(InputError):
        mollify(step, tent, 0.0)


def test_mollifier_bound_check_cases(step, tent):
    const = make_field("constant", value=1.5)
    lhs, rhs = mollifier_bound_check(const, tent, 0.1, 2.0, [0.2])
    assert lhs == pytest.approx(0.0, abs=1e-12) and rhs == pytest.approx(0.0, abs=1e-12)
    lhs, rhs = mollifier_bound_check(step, tent, 0.1, 2.0, [0.05])
    assert rhs == pytest.approx(0.1, abs=1e-12)   # 1^q * 2 min(|h|, 1)
    assert lhs <= rhs + 1e-12


def test_mollifier_bound_scaling_homogeneity(step, tent):
    # doubling eta scales both sides by 2^q
    double = make_mollifier("mix", components=[(2.0, tent)])
    l1, r1 = mollifier_bound_check(step, tent, 0.1, 2.0, [0.05])
    l2, r2 = mollifier_bound_check(step, double, 0.1, 2.0, [0.05])
    assert l2 == pytest.approx(4.0 * l1, rel=1e-9)
    assert r2 == pytest.approx(4.0 * r1, rel=1e-9)


@pytest.mark.parametrize("kind", ["tent", "truncated-gaussian"])
@pytest.mark.parametrize("eps", [0.3, 0.05])
def test_besov_contraction_under_mollification(step, kind, eps):
    # [u_eps]_B^q <= abs_mass^q [u]_B^q on a shared shift grid
    m = make_mollifier(kind)
    params = FunctionalParams.jump_regime(2.0)
    grid = [np.array([h]) for h in (0.05, 0.2, 0.7, 1.0)]
    u_eps = mollify(step, m, eps)
    lhs = besov_seminorm_q(u_eps, params, h_grid=grid)
    rhs = besov_seminorm_q(step, params, h_grid=grid)
    assert lhs.value <= m.abs_mass ** 2 * rhs.value + 3.0 * (lhs.error_estimate + 1e-12)


def test_lq_convergence_rate(step, tent):
    # ||u - u_eps||_q^q <= eps^{rq} abs_mass^{q-1} [u]_B^q int |eta||v|^{rq} dv
    q, rq = 2.0, 1.0
    params = FunctionalParams.jump_regime(q)
    besov = besov_seminorm_q(step, params).value
    moment = tent.abs_weighted_moment(rq)
    bound_coef = tent.abs_mass ** (q - 1.0) * besov * moment
    for eps in (0.2, 0.05, 0.01):
        u_eps = mollify(step, tent, eps)
        # dense quadrature of ||u - u_eps||_q^q
        xs = np.linspace(-0.5, 1.5, 40_001)
        mid = 0.5 * (xs[1:] + xs[:-1])
        du = eval_field(step, mid[:, None]) - eval_field(u_eps, mid[:, None])
        lq = float(np.sum(np.linalg.norm(du, axis=-1) ** q) * (xs[1] - xs[0]))
        assert lq / eps ** rq <= bound_coef * 1.0001


def test_mix_mollifier_cdf(step, tent):
    bumpm = make_mollifier("smooth-bump")
    mix = make_mollifier("mix", components=[(0.95, tent), (0.05, bumpm)])
    assert mix.total == pytest.approx(1.0, rel=1e-12)
    u = mollify(step, mix, 0.1)
    oracle = direct_convolution_1d(step, mix.pdf, 1.0, 0.1, 0.07)
    assert eval_field(u, 0.07)[0] == pytest.approx(oracle, abs=1e-5)


def test_nested_mix_has_a_gradient(tent):
    # a mix reads each component's signed derivative, mixes included
    inner = make_mollifier("mix", components=[(0.5, tent), (0.5, tent)])
    nested = make_mollifier("mix", components=[(1.0, inner)])
    assert nested.grad_mass == pytest.approx(2.0, abs=1e-12)
    assert nested.weighted_grad(1.0) == pytest.approx(tent.weighted_grad(1.0), rel=1e-12)
    assert nested.grad(0.5) == tent.grad(0.5) == -1.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_one_component_mix_has_its_components_masses(dim):
    # the 2D/3D masses are H^(N-1) int_0^1 |.| r^(N-1) dr of the radial
    # profiles: the tent reads 1 and N + 1 there
    tent = make_mollifier("tent", dim=dim)
    mix = make_mollifier("mix", dim=dim, components=[(1.0, tent)])
    assert (tent.total, tent.abs_mass, tent.grad_mass) == \
        pytest.approx((1.0, 1.0, 2.0 if dim == 1 else dim + 1.0), rel=1e-14)
    for name in ("total", "abs_mass", "grad_mass"):
        assert getattr(mix, name) == pytest.approx(getattr(tent, name), rel=1e-8), name


@pytest.mark.parametrize("kind", ["tent", "truncated-gaussian", "smooth-bump", "signed-test"])
def test_one_component_mix_mollifies_as_its_component(step, bump, kind):
    # a 1D kernel is read at signed offsets on every path, so a mix with an
    # odd part (the signed-test) is not mirrored: taps, the quadrature path
    # of a smooth field, the grid path and the closed form of a step sum
    m = make_mollifier(kind)
    mix = make_mollifier("mix", components=[(1.0, m)])
    eps = 0.1
    np.testing.assert_array_equal(_taps(mix, eps, eps / 8.0, 1), _taps(m, eps, eps / 8.0, 1))
    grid = sample(bump, GridSpec(origin=(-3.0,), spacing=(0.01,), extent=(700,)))
    xs = np.linspace(-0.5, 1.5, 41)[:, None]
    for f in (bump, grid, step):
        np.testing.assert_array_equal(eval_field(mollify(f, mix, eps), xs),
                                      eval_field(mollify(f, m, eps), xs))


def test_mix_with_an_odd_part_reads_signed_offsets(tent):
    signed = make_mollifier("signed-test")
    mix = make_mollifier("mix", components=[(0.5, tent), (0.5, signed)])
    # the midpoint rule on 2e5 cells, whose edges hold the kinks at 0 and
    # +-1: its O(h^2) error is about 1e-9 of either moment
    n = 200_000
    v = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    grad = np.abs(0.5 * tent.grad(v) + 0.5 * signed.grad(v))
    pdf = np.abs(0.5 * tent.pdf(v) + 0.5 * signed.pdf(v))
    assert mix.weighted_grad(1.0) == pytest.approx(np.sum(grad * (np.abs(v) + 2.0)) * 2.0 / n,
                                                   rel=1e-8)
    assert mix.abs_weighted_moment(1.0) == pytest.approx(np.sum(pdf * np.abs(v)) * 2.0 / n,
                                                         rel=1e-8)


def test_mollified_step_sum_carries_its_mollifier(step, tent):
    u = mollify(step, tent, 0.2)
    assert u.payload["mollifier"] is tent
    assert u.payload["field"] is step
    assert set(u.payload) == {"formula", "field", "mollifier", "eps"}


def test_union_piece_mollifies_like_its_intervals(tent):
    parts = (RegionSpec.interval(0.0, 1.0), RegionSpec.interval(1.5, 2.0))
    union = Field(1, 1, "piecewise", {"pieces": ((RegionSpec.union_of(*parts), np.array([2.0])),)},
                  support_radius=2.0, name="union")
    apart = Field(1, 1, "piecewise", {"pieces": tuple((r, np.array([2.0])) for r in parts)},
                  support_radius=2.0, name="apart")
    u, v = mollify(union, tent, 0.1), mollify(apart, tent, 0.1)
    assert u.payload["field"] is union
    xs = np.linspace(-0.5, 2.5, 301)
    assert eval_field(u, xs).tobytes() == eval_field(v, xs).tobytes()
    rows = [pair_integral(w, None, PiecewisePower.power_law(2.0), (0.0, 1.0), 2.0)
            for w in (u, v)]
    assert rows[0].path == "steps"
    assert rows[0] == rows[1]


def test_scaled_mollified_smooth_field(bump, tent):
    u = mollify(bump, tent, 0.1)
    half = scale_field(u, 0.5)
    assert half.payload["field"].payload["params"]["amplitude"] == 0.5
    xs = np.linspace(-1.0, 2.0, 101)
    assert eval_field(half, xs).tobytes() == (0.5 * eval_field(u, xs)).tobytes()


def test_mollified_twice_keeps_the_declared_box(step, tent):
    u = mollify(step, tent, 0.2)
    v = mollify(u, make_mollifier("truncated-gaussian"), 0.05)
    assert v.payload["field"] is u
    lo, hi = support_bbox(v)
    assert lo.tolist() == [-v.support_radius] and hi.tolist() == [v.support_radius]
    assert knots_1d(v) is None


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_mollify_rejects_a_non_finite_scale(step, disk, tent, tent2, eps):
    for f, m in ((step, tent), (disk, tent2)):
        with pytest.raises(InputError, match="positive and finite"):
            mollify(f, m, eps)


def _taps_cdf_error(m, delta):
    """max_k |sum_{j <= k} taps_j - H((k + 1/2) delta)|, the error of the
    taps at spacing delta (in units of eps), rescaled to the total mass when
    it is nonzero, as a midpoint rule for the mollifier's CDF H."""
    reach = math.ceil(m.halfwidth / delta)
    v = np.arange(-reach, reach + 1) * delta
    taps = m.pdf(v) * delta
    if m.total != 0.0:
        taps = taps * (m.total / taps.sum())
    return float(np.max(np.abs(np.cumsum(taps) - m.cdf(v + 0.5 * delta))))


@pytest.mark.parametrize("kind", ["tent", "truncated-gaussian", "smooth-bump", "signed-test"])
@pytest.mark.parametrize("eps", [0.2, 0.05])
@pytest.mark.parametrize("name", ["step_1d", "two_steps_1d"])
def test_grid_mollification_of_steps_within_its_resolution_bound(name, eps, kind):
    """The grid path against the lazy closed form on a 1D step sum.  At the
    resolution h = eps/8 every jump lies on a cell edge, so a cell center
    holds the midpoint rule of the mollifier's CDF at spacing delta = h/eps,
    and linear interpolation between centers misses u_eps by at most
    h^2/8 max|u_eps''|, delta^2/8 max|eta'| a unit jump.  So the gap at x is
    at most the sum of |jump| over the jumps within eps*halfwidth + h of x,
    times the taps' CDF error plus delta^2/8 max|eta'|.  At spacing eps/4
    the tent, truncated-Gaussian and bump gaps exceed this bound; the
    signed test's gap is as large at eps/8 as at eps/4 (3.1e-2 a unit jump)."""
    m, f = make_mollifier(kind), make_field(name)
    delta = 1.0 / 8.0
    v = np.linspace(-m.halfwidth, m.halfwidth, 20_001)
    per_jump = _taps_cdf_error(m, delta) + delta ** 2 / 8.0 * float(np.max(np.abs(m.grad(v))))
    grid = _mollify_grid(f, m, eps)
    spec = grid.payload["spec"]
    xs = (spec.centers()[0][:, None] + spec.spacing[0] * np.array([0.0, 0.25, 0.5, 0.75])).ravel()
    gap = np.abs(eval_field(grid, xs) - eval_field(mollify(f, m, eps), xs))[:, 0]
    near = sum(p.jump_size * (np.abs(xs - p.params["location"][0]) <= eps * (m.halfwidth + delta))
               for p in jump_set_of(f).patches)
    # 1e-12 covers the rounding of the transforms, where no jump is near
    assert np.all(gap <= near * per_jump + 1e-12)


def test_smooth_field_mollification(bump, tent):
    u = mollify(bump, tent, 0.1)
    for x in (0.2, 0.5, 1.1):
        oracle = direct_convolution_1d(bump, tent.pdf, 1.0, 0.1, x)
        assert eval_field(u, np.array([x]))[0] == pytest.approx(oracle, abs=1e-8)


def test_mollify_grid_cell_cap(disk, tent2):
    from besovlab.errors import CapabilityError
    with pytest.raises(CapabilityError):
        mollify(disk, tent2, 1e-6)


def test_oversized_gagliardo_rows_flagged_not_fatal(disk, tent2):
    # a 2D sweep reaching grid-infeasible eps flags those rows and continues
    from besovlab.limits import EpsilonGrid, epsilon_sweep
    from besovlab.quadrature import QuadBudget
    from besovlab.seminorms import FunctionalParams, gagliardo_constant_at
    params = FunctionalParams.jump_regime(2.0)
    budget = QuadBudget(max_evaluations=100_000, rng_seed=2)
    grid = EpsilonGrid(math.exp(-2.0), math.exp(-2.0), 4)   # e^-2 .. e^-8
    sweep = epsilon_sweep(
        lambda e: gagliardo_constant_at(disk, tent2, params, e, budget=budget),
        grid, model="constant-tail")
    flagged = [r for r in sweep.rows if not r.ok]
    assert flagged and all("CapabilityError" in r.note for r in flagged)
    assert sweep.valid_rows()
