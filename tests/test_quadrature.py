import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy import integrate as sciint

from besovlab import quadrature
from besovlab.errors import CapabilityError, DivergenceError, InputError
from besovlab.experiments import run
from besovlab.fields import (Field, GridSpec, RegionSpec, eval_field, knots_1d,
                             make_field, sample, scale_field, support_bbox)
from besovlab.kernels import RadialKernelFamily, kernel_profile, kernel_window
from besovlab.mollifiers import make_mollifier, mollify
from besovlab.quadrature import (PiecewisePower, QuadBudget, _merged_edges_1d,
                                 _region_1d_edges, _shift_integral_1d,
                                 _smooth_shift_integrals_1d, _symdiff_measure,
                                 _t_integral, default_sphere_rule,
                                 double_integral_singular, integrate_sphere,
                                 pair_integral, radial_integral,
                                 shift_integral, sphere_measure, sphere_rule)

from oracles import mc_symdiff, riemann_pair_1d, riemann_shift_1d


def test_sphere_measure_values():
    assert sphere_measure(1) == 2.0
    assert sphere_measure(2) == pytest.approx(2.0 * math.pi, abs=0)
    assert sphere_measure(3) == pytest.approx(4.0 * math.pi, abs=0)
    with pytest.raises(CapabilityError):
        sphere_measure(4)


def test_integrate_sphere_constant():
    r = integrate_sphere(lambda n: np.ones(n.shape[0]), 2, "trapezoid-64")
    assert abs(r.value - 2.0 * math.pi) <= 1e-12
    r3 = integrate_sphere(lambda n: np.ones(n.shape[0]), 3, "product-lat-long-32")
    assert abs(r3.value - 4.0 * math.pi) <= 1e-10


def test_integrate_sphere_abs_first_coordinate():
    # int_0^{2pi} |cos theta| d theta = 4
    r = integrate_sphere(lambda n: np.abs(n[:, 0]), 2, "trapezoid-16384")
    assert abs(r.value - 4.0) <= 1e-6
    # N=3: int |z1| dH^2 = 2 pi
    r3 = integrate_sphere(lambda n: np.abs(n[:, 0]), 3, "product-lat-long-2048")
    assert abs(r3.value - 2.0 * math.pi) <= 5e-6


def test_integrate_sphere_odd_vanishes():
    for n_dim, rule in ((1, "exact-2pt"), (2, "trapezoid-64"), (3, "product-lat-long-16")):
        r = integrate_sphere(lambda n: n[:, 0], n_dim, rule)
        assert abs(r.value) <= 1e-12


def test_integrate_sphere_rule_mismatch():
    with pytest.raises(InputError):
        integrate_sphere(lambda n: np.ones(n.shape[0]), 2, "exact-2pt")
    with pytest.raises(InputError):
        integrate_sphere(lambda n: np.ones(n.shape[0]), 1, "trapezoid-8")


def test_radial_integral_kernel_mass():
    for n in (1, 2, 3):
        prof = kernel_profile(RadialKernelFamily("trivial", n), 0.3)
        assert abs(radial_integral(prof, n) - 1.0) <= 1e-12


def test_radial_integral_log_profile_exact():
    # rho = r^-N on [eps, R]: H * (ln R - ln eps)
    eps, r_hi, n = 1e-3, 0.5, 2
    prof = PiecewisePower(pieces=((eps, r_hi, 1.0, -float(n)),))
    expect = sphere_measure(n) * (math.log(r_hi) - math.log(eps))
    assert radial_integral(prof, n) == pytest.approx(expect, rel=1e-14)


def test_radial_integral_zero_and_divergent():
    zero = PiecewisePower(pieces=((0.0, math.inf, 0.0, 0.0),))
    assert radial_integral(zero, 1, (0.0, 5.0)) == 0.0
    with pytest.raises(DivergenceError):
        radial_integral(PiecewisePower(pieces=((0.0, 1.0, 1.0, -2.0),)), 1, (0.0, 1.0))
    with pytest.raises(InputError):
        radial_integral(PiecewisePower.power_law(-1.0), 1, (2.0, 1.0))


# ---------------------------------------------------------------------------
# shift integrals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("h", [0.05, 0.37, 1.3, -0.6])
def test_shift_integral_matches_oracle_step(step, h):
    val, err = shift_integral(step, None, [h], 2.0)
    assert val == pytest.approx(2.0 * min(abs(h), 1.0), abs=1e-12)
    oracle = riemann_shift_1d(step, None, h, 2.0)
    assert val == pytest.approx(oracle, abs=5e-4)


def test_shift_integral_two_steps_vs_oracle():
    f = make_field("two_steps_1d")
    for h in (0.2, 0.6, -1.1):
        val, _ = shift_integral(f, None, [h], 2.0)
        oracle = riemann_shift_1d(f, None, h, 2.0)
        assert val == pytest.approx(oracle, abs=5e-3)


def test_shift_integral_vector_field(vstep):
    # |amp| = 1 for the rotated step, so totals match the scalar step
    val, _ = shift_integral(vstep, None, [0.3], 2.0)
    assert val == pytest.approx(0.6, abs=1e-12)


def test_shift_integral_region_restriction(step):
    region = RegionSpec.interval(0.25, 0.75)
    val, _ = shift_integral(step, region, [0.3], 2.0)
    # u(x+0.3) != u(x) only near the jumps, outside [0.25, 0.45]
    oracle = riemann_shift_1d(step, region, 0.3, 2.0)
    assert val == pytest.approx(oracle, abs=5e-4)


def test_shift_integral_smooth_path(bump, tent):
    from besovlab.mollifiers import mollify
    u_eps = mollify(make_field("step_1d"), tent, 0.15)
    for h in (0.05, 0.4):
        val, err = shift_integral(u_eps, None, [h], 2.0)
        oracle = riemann_shift_1d(u_eps, None, h, 2.0)
        assert val == pytest.approx(oracle, abs=5e-4)
    vb, _ = shift_integral(bump, None, [0.2], 2.0)
    assert vb == pytest.approx(riemann_shift_1d(bump, None, 0.2, 2.0), rel=1e-4)


def test_shift_integral_zero_shift(step):
    assert shift_integral(step, None, [0.0], 2.0) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# symmetric differences (2D/3D indicator fast path)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("h", [(0.01, 0.0), (0.2, 0.1), (0.9, 0.4)])
def test_symdiff_ball_2d_vs_mc(h):
    region = RegionSpec.ball((0.0, 0.0), 0.5)
    closed = _symdiff_measure(region, np.asarray(h))
    est, tol = mc_symdiff(region.contains, h, [-1.6, -1.6], [1.6, 1.6])
    assert closed == pytest.approx(est, abs=3.0 * tol)


def test_symdiff_ball_3d_and_box():
    ball = RegionSpec.ball((0.0, 0.0, 0.0), 0.5)
    closed = _symdiff_measure(ball, np.array([0.3, 0.0, 0.0]))
    est, tol = mc_symdiff(ball.contains, [0.3, 0.0, 0.0],
                          [-0.9] * 3, [0.9] * 3, n=4_000_000)
    assert closed == pytest.approx(est, abs=3.0 * tol)
    box = RegionSpec.box([0.0, 0.0], [1.0, 2.0])
    assert _symdiff_measure(box, np.array([0.25, 0.5])) == \
        pytest.approx(2.0 * (2.0 - 0.75 * 1.5), abs=1e-14)


# ---------------------------------------------------------------------------
# double integrals
# ---------------------------------------------------------------------------

def test_double_integral_constant_field():
    const = make_field("constant", value=2.0)
    r = double_integral_singular(const, RegionSpec.interval(-1, 1), 1.0, 2.0,
                                 ("ball", 0.1))
    assert r.value == 0.0


def test_double_integral_step_ball_window(step):
    # per jump the |z| < eps window contributes 2 eps: total 2*2*eps = 0.4
    r = double_integral_singular(step, RegionSpec.interval(-1, 2), 1.0, 2.0,
                                 ("ball", 0.1))
    assert r.value == pytest.approx(0.4, rel=0.02)


def test_double_integral_step_annulus(step):
    beta, gamma = 0.02, 0.7
    r = double_integral_singular(step, RegionSpec.interval(-1, 2), 2.0, 2.0,
                                 ("annulus", beta, gamma))
    expect = 4.0 * (math.log(gamma) - math.log(beta))
    assert r.value == pytest.approx(expect, rel=0.02)
    oracle = riemann_pair_1d(step, RegionSpec.interval(-1, 2),
                             lambda t: t ** -2.0, (beta, gamma), 2.0)
    assert r.value == pytest.approx(oracle, rel=5e-3)


def test_double_integral_divergence_guard(step):
    with pytest.raises(DivergenceError):
        double_integral_singular(step, RegionSpec.interval(-1, 2), 2.0, 2.0, "full")


def test_double_integral_unbounded_region(step):
    with pytest.raises(InputError):
        double_integral_singular(step, RegionSpec.half_space([1.0], 0.0), 1.0,
                                 2.0, ("ball", 0.1))


def test_mc_seeded_determinism(disk, tent2):
    from besovlab.mollifiers import mollify
    u = mollify(disk, tent2, math.exp(-2))
    budget = QuadBudget(max_evaluations=50_000, rng_seed=42)
    r1 = double_integral_singular(u, RegionSpec.box([-1.5, -1.5], [1.5, 1.5]),
                                  3.0, 2.0, ("annulus", 0.05, 0.5), budget)
    r2 = double_integral_singular(u, RegionSpec.box([-1.5, -1.5], [1.5, 1.5]),
                                  3.0, 2.0, ("annulus", 0.05, 0.5), budget)
    assert r1.value == r2.value and r1.error_estimate == r2.error_estimate


def test_mc_low_confidence_flag(disk, tent2):
    from besovlab.mollifiers import mollify
    u = mollify(disk, tent2, math.exp(-2))
    tiny = QuadBudget(max_evaluations=2_048, target_rel_error=1e-6, rng_seed=1)
    r = double_integral_singular(u, RegionSpec.box([-1.5, -1.5], [1.5, 1.5]),
                                 3.0, 2.0, ("annulus", 0.05, 0.5), tiny)
    assert r.low_confidence


def test_polar_consistency():
    # the shared t-integrator against radial_integral on a radial weight
    for n in (1, 2, 3):
        def tfunc(ts, _n=n):
            return ts ** (_n - 1) * ts ** -0.5 * sphere_measure(_n)
        val, err = _t_integral(tfunc, 1e-6, 2.0)
        ref = radial_integral(PiecewisePower.power_law(0.5), n, (1e-6, 2.0))
        assert abs(val - ref) <= max(3.0 * err, 1e-9 * abs(ref))


def test_error_estimate_honesty_randomized():
    # the exact 1D engine: every case of a 100-case randomized suite matches
    # the closed form to 1e-12 and reports error 0
    rng = np.random.default_rng(2024)
    for case in range(100):
        a = float(rng.uniform(-1.0, 0.5))
        length = float(rng.uniform(0.5, 2.0))
        amp = float(rng.uniform(0.2, 3.0))
        eps = float(rng.uniform(0.01, 0.4 * length))
        f = make_field("step_1d", a=a, b=a + length, amplitude=amp)
        region = RegionSpec.interval(a - 1.5, a + length + 1.5)
        r = double_integral_singular(f, region, 1.0, 2.0, ("ball", eps))
        closed = 4.0 * amp * amp * eps
        assert abs(r.value - closed) <= 1e-12 and r.error_estimate == 0.0


def test_pair_integral_box_field_path():
    # box indicator in 2D exercises the sphere-rule deterministic branch
    box = make_field("box_2d")
    weight = PiecewisePower.power_law(1.0)
    r = pair_integral(box, None, weight, (1e-6, 0.05), 2.0)
    assert r.path == "indicator"
    # per unit boundary length the small-|z| window contributes like the 1D
    # case; compare against the stratified MC estimate of the same integral
    budget = QuadBudget(max_evaluations=400_000, rng_seed=3)
    mc = quadrature._pair_integral_mc(box, None, weight, 1e-6, 0.05, 2.0, budget, 5)
    assert r.value == pytest.approx(mc.value, rel=0.05)


def test_quad_budget_validation():
    with pytest.raises(InputError):
        QuadBudget(max_evaluations=0)
    with pytest.raises(InputError):
        QuadBudget(target_rel_error=1.5)
    b = QuadBudget()
    assert b.max_evaluations >= 1 and 0.0 < b.target_rel_error < 1.0


def test_mc_respects_evaluation_budget(disk, tent2):
    from besovlab.mollifiers import mollify
    u = mollify(disk, tent2, math.exp(-2))
    region = RegionSpec.box([-1.5, -1.5], [1.5, 1.5])
    for cap in (100, 2_048, 70_000):
        budget = QuadBudget(max_evaluations=cap, rng_seed=1)
        r = double_integral_singular(u, region, 3.0, 2.0,
                                     ("annulus", 0.05, 0.5), budget)
        assert r.evaluations_used <= cap


# ---------------------------------------------------------------------------
# the exact 1D piecewise engine: property tests
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def steps_in_interval(draw):
    """1-3 adjacent steps with random amplitudes inside a random interval."""
    k = draw(st.integers(1, 3))
    grid = draw(st.lists(st.integers(-20, 20), min_size=k + 1, max_size=k + 1,
                         unique=True))
    shift = draw(st.floats(-1.0, 1.0))
    xs = [shift + 0.1 * i for i in sorted(grid)]
    amps = draw(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=k, max_size=k))
    pieces = tuple((RegionSpec.interval(a, b), np.array([sg * amp]))
                   for a, b, amp, sg in zip(xs, xs[1:], amps, signs))
    f = Field(1, 1, "piecewise", {"pieces": pieces},
              support_radius=max(abs(xs[0]), abs(xs[-1])), name="random_steps")
    region = RegionSpec.interval(xs[0] - draw(st.floats(0.0, 1.5)),
                                 xs[-1] + draw(st.floats(0.0, 1.5)))
    return f, region, xs + [region.lo[0], region.hi[0]]


@PROPERTY
@given(field=steps_in_interval(), s=st.floats(0.0, 1.89),
       a=st.one_of(st.just(0.0), st.floats(0.01, 2.0)), width=st.floats(0.01, 3.0),
       q=st.floats(1.0, 3.0))
def test_exact_1d_engine_matches_scipy_quad(field, s, a, width, q):
    f, region, pts = field
    b = a + width
    got = pair_integral(f, region, PiecewisePower.power_law(s), (a, b), q)
    breaks = sorted({abs(x - y) for x in pts for y in pts} - {0.0})
    inner = [t for t in breaks if a < t < b]
    ref, _ = sciint.quad(
        lambda t: 2.0 * t ** -s * shift_integral(f, region, [t], q)[0], a, b,
        points=inner or None, limit=400, epsabs=0.0, epsrel=1e-11)
    assert got.error_estimate == 0.0
    assert got.value == pytest.approx(ref, rel=1e-9, abs=1e-13)


@PROPERTY
@given(field=steps_in_interval(), t=st.floats(0.001, 5.0), q=st.floats(1.0, 3.0))
def test_shift_integral_even_in_t(field, t, q):
    f, region, _ = field
    fwd, _ = shift_integral(f, region, [t], q)
    back, _ = shift_integral(f, region, [-t], q)
    assert fwd == pytest.approx(back, rel=1e-12, abs=1e-14)


@PROPERTY
@given(field=steps_in_interval(), s=st.floats(2.0, 4.0), b=st.floats(0.01, 3.0))
def test_exact_1d_engine_divergent_core(field, s, b):
    f, region, _ = field
    with pytest.raises(DivergenceError):
        pair_integral(f, region, PiecewisePower.power_law(s), (0.0, b), 2.0)


# ---------------------------------------------------------------------------
# the smooth 1D engine, batched over radii
# ---------------------------------------------------------------------------

def _loop_shift_integral(f, region, t, q, x_div, order):
    """One radius at a time, as the engine did before it was batched: the
    reference the batched engine must reproduce bit for bit."""
    ks = knots_1d(f)
    base = [] if ks is None else list(ks)
    redges = _region_1d_edges(region)
    edges = set(base) | {k - t for k in base} | set(redges) | {e - t for e in redges}
    lo_s, hi_s = support_bbox(f)
    lo = min(lo_s[0], lo_s[0] - t)
    hi = max(hi_s[0], hi_s[0] - t)
    if region is not None and region.kind == "box":
        lo = max(lo, region.lo[0] - abs(t))
        hi = min(hi, region.hi[0] + abs(t))
    edges |= {lo, hi}
    edges = np.array(sorted(e for e in edges if lo <= e <= hi))
    if hi <= lo or len(edges) < 2:
        return 0.0
    pmax = (hi - lo) / x_div
    refined = [edges[0]]
    for a, b in zip(edges[:-1], edges[1:]):
        k = max(1, int(math.ceil((b - a) / pmax)))
        refined.extend(a + (b - a) * np.arange(1, k + 1) / k)
    r = np.array(refined)
    xg, wg = leggauss(order)
    mid = 0.5 * (r[1:] + r[:-1])
    half = 0.5 * (r[1:] - r[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    pts = nodes[:, None]
    vals = np.linalg.norm(eval_field(f, pts + t) - eval_field(f, pts), axis=-1) ** q
    if region is not None:
        vals = vals * region.contains(pts) * region.contains(pts + t)
    return float(weights @ vals)


def _smooth_field(kind, eps):
    step = make_field("two_steps_1d")
    if kind == "tent":
        return mollify(step, make_mollifier("tent"), eps)
    if kind == "gauss":
        return mollify(step, make_mollifier("truncated-gaussian"), eps)
    if kind == "bump":
        return make_field("gaussian_bump_1d", width=eps + 0.1)
    return sample(step, GridSpec(origin=(-0.3,), spacing=(0.1,), extent=(27,)))


@PROPERTY
@given(kind=st.sampled_from(("tent", "gauss", "bump", "grid")), eps=st.floats(0.01, 0.3),
       box=st.one_of(st.none(), st.tuples(st.floats(-1.0, 1.0), st.floats(0.2, 3.0))),
       ts=st.lists(st.floats(0.001, 3.0) | st.floats(-3.0, -0.001), min_size=1, max_size=6),
       q=st.floats(1.0, 3.0), x_div=st.sampled_from((40, 64)),
       order=st.sampled_from((6, 8, 12)))
def test_batched_smooth_engine_is_the_per_radius_rule(kind, eps, box, ts, q, x_div, order):
    f = _smooth_field(kind, eps)
    region = None if box is None else RegionSpec.interval(box[0], box[0] + box[1])
    ts = np.array(ts)
    got = _smooth_shift_integrals_1d(f, region, ts, q, x_div, (order,))[:, 0]
    ref = [_loop_shift_integral(f, region, float(t), q, x_div, order) for t in ts]
    assert got.tolist() == ref
    both = _smooth_shift_integrals_1d(f, region, ts, q, 64, (12, 6))
    for t, (vhi, vlo) in zip(ts, both):
        assert _shift_integral_1d(f, region, float(t), q) == (vhi, abs(vhi - vlo))
        assert vhi == _loop_shift_integral(f, region, float(t), q, 64, 12)


@pytest.mark.parametrize("cap", [1, 10 ** 9])
def test_batched_smooth_engine_block_cap(monkeypatch, cap):
    f = _smooth_field("tent", 0.1)
    ts = np.concatenate([np.geomspace(1e-4, 2.5, 40), -np.geomspace(1e-3, 1.0, 7)])
    for region in (None, RegionSpec.interval(-0.5, 2.5)):
        expect = _smooth_shift_integrals_1d(f, region, ts, 2.0, 64, (12, 6))
        calls = []

        def counting(field, x):
            calls.append(len(x))
            return eval_field(field, x)
        monkeypatch.setattr(quadrature, "_BLOCK_POINTS", cap)
        monkeypatch.setattr(quadrature, "eval_field", counting)
        got = _smooth_shift_integrals_1d(f, region, ts, 2.0, 64, (12, 6))
        monkeypatch.undo()
        assert np.array_equal(got, expect)
        # one evaluation at x and one at x + t per block
        assert len(calls) == (2 * len(ts) if cap == 1 else 2)


def test_batched_smooth_engine_empty_support():
    # the region [0, 1] lies 2.9 below the support [3.9, 5.1]: the merged
    # x-range is empty (hi <= lo) for 0 < t <= 1.45 and -2.9 <= t < 0
    f = mollify(make_field("step_1d", a=4.0, b=5.0), make_mollifier("tent"), 0.1)
    region = RegionSpec.interval(0.0, 1.0)
    ts = np.array([0.5, 3.0, 4.5, -0.2])
    _, lo, hi = _merged_edges_1d(f, region, ts)
    assert (hi <= lo).tolist() == [True, False, False, True]
    out = _smooth_shift_integrals_1d(f, region, ts, 2.0, 64, (12, 6))
    assert np.array_equal(out, np.zeros((4, 2)))
    assert _shift_integral_1d(f, region, 0.5, 2.0) == (0.0, 0.0)
    empty = _smooth_shift_integrals_1d(f, region, np.array([0.5, 1.0]), 2.0, 64, (12,))
    assert np.array_equal(empty, np.zeros((2, 1)))


# ---------------------------------------------------------------------------
# ball indicators: one symmetric difference per radius
# ---------------------------------------------------------------------------

def _sphere_rule_pair_integral(f, weight, a, b):
    """The indicator pair integral with the symmetric difference at every
    node of the default sphere rule, as for boxes."""
    n = f.dim_in
    ball = f.payload["pieces"][0][0]
    nodes, wts = sphere_rule(n, default_sphere_rule(n))

    def tfunc(ts):
        sym = _symdiff_measure(ball, ts[:, None, None] * nodes[None, :, :])
        return ts ** (n - 1) * weight(ts) * (sym @ wts)
    return _t_integral(tfunc, a if a > 0.0 else b * 1e-9, b, [2.0 * ball.radius])[0]


@pytest.mark.parametrize("name", ["disk_2d", "ball_3d"])
@pytest.mark.parametrize("eps", [0.3, 0.05, 0.004])
def test_ball_indicator_radial_branch_matches_sphere_rule(name, eps):
    f = make_field(name)
    n = f.dim_in
    for k in (RadialKernelFamily("trivial", n), RadialKernelFamily("logarithmic", n, omega=0.5)):
        weight = kernel_profile(k, eps).times_power(-1.0)
        a, b = kernel_window(k, eps)
        got = pair_integral(f, None, weight, (a, b), 2.0)
        ref = _sphere_rule_pair_integral(f, weight, a, b)
        assert got.value == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("name", ["disk_2d", "ball_3d"])
@pytest.mark.parametrize("rq", [0.3, 0.6, 0.9, 0.97])
def test_indicator_engine_counts_its_core(name, rq):
    # the W^(r,1) integral of a ball indicator over the window (0, 2), weight
    # t^-(N + rq).  As rq -> 1 the core (0, b 1e-9) holds a growing share of
    # it (over half at rq = 0.97).  Reference: |S^(N-1)| times the integral
    # of t^(-1-rq) |B sym-diff (B + t e_1)|, whose linear part L t (L twice
    # the ball's cross-section) is integrated in closed form, the rest by
    # adaptive quadrature
    f = make_field(name)
    n = f.dim_in
    ball = f.payload["pieces"][0][0]
    b = 2.0
    lin = 2.0 * (2.0 * ball.radius if n == 2 else math.pi * ball.radius ** 2)

    def rest(t):
        sym = float(_symdiff_measure(ball, np.array([t] + [0.0] * (n - 1))))
        return t ** (-1.0 - rq) * (sym - lin * t)
    kinks = [2.0 * ball.radius] if 2.0 * ball.radius < b else None
    rest_integral = sciint.quad(rest, 0.0, b, points=kinks, epsabs=0.0, epsrel=1e-11,
                                limit=200)[0]
    ref = sphere_measure(n) * (lin * b ** (1.0 - rq) / (1.0 - rq) + rest_integral)
    got = pair_integral(f, None, PiecewisePower.power_law(n + rq), (0.0, b), 1.0)
    assert got.path == "indicator"
    assert abs(got.value - ref) <= got.error_estimate <= 1e-6 * got.value


def test_chain1d_exact_rows_hit_their_closed_forms(tmp_path):
    # the default 1D jump chain's kernel-constant and variation rows are
    # exact sums of interval lengths; each lands within 1e-15 of 2, 2 and 4
    run({"kind": "jump_chain", "seed": 11}, str(tmp_path), threads=1)
    for sweep, closed in (("besov_constant_trivial", 2.0),
                          ("besov_constant_logarithmic_w0.5", 2.0),
                          ("spherical_variation", 4.0)):
        with open(tmp_path / f"sweep_{sweep}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            assert abs(float(row["value"]) / closed - 1.0) <= 1e-15, (sweep, row)


# ---------------------------------------------------------------------------
# Every engine path: homogeneity and translation invariance
# ---------------------------------------------------------------------------

def _moved(region, v):
    """A box or ball region translated by v."""
    if region is None:
        return None
    if region.kind == "box":
        return RegionSpec.box(np.add(region.lo, v), np.add(region.hi, v))
    return RegionSpec.ball(np.add(region.center, v), region.radius)


def _translated(f, v):
    """The field u(. - v), for piecewise, grid and steps_cdf fields."""
    if f.kind == "piecewise":
        payload = {"pieces": tuple((_moved(r, v), amp) for r, amp in f.payload["pieces"])}
    elif f.kind == "grid":
        spec = f.payload["spec"]
        payload = dict(f.payload, spec=replace(spec, origin=tuple(np.add(spec.origin, v))))
    else:
        params = dict(f.payload["params"])
        params["steps"] = tuple((a + v[0], b + v[0], amp) for a, b, amp in params["steps"])
        payload = dict(f.payload, params=params)
    return replace(f, payload=payload, support_radius=f.support_radius + float(np.linalg.norm(v)))


def _path_case(path):
    """(field, region, weight, window, q, grid-aligned shift) reaching path."""
    tent_step = mollify(make_field("step_1d"), make_mollifier("tent"), 0.05)
    if path == "lattice":
        values = np.random.default_rng(3).standard_normal((9, 7, 1))
        spec = GridSpec(origin=(0.125, 0.25), spacing=(0.125, 0.125), extent=(9, 7))
        grid = Field(2, 1, "grid", {"spec": spec, "values": values}, support_radius=2.0)
        return (grid, RegionSpec.box([-0.5, -0.5], [2.0, 2.0]), PiecewisePower.power_law(2.6),
                (0.0, 3.0), 2.0, (0.375, -0.25))
    if path == "piecewise_1d":
        return (make_field("step_1d"), RegionSpec.interval(-1.0, 2.0),
                PiecewisePower.power_law(1.5), (0.0, 2.0), 2.0, (0.25,))
    if path in ("steps", "smooth_1d"):
        return (tent_step, RegionSpec.interval(-0.5, 1.5), PiecewisePower.power_law(2.0),
                (0.0, 2.0), 2.0 if path == "steps" else 1.5, (0.25,))
    # a box around the disk leaves it to the indicator engine; one that
    # clips it sends it to Monte Carlo
    region = RegionSpec.box([-2.0, -2.0], [2.0, 2.0]) if path == "indicator" \
        else RegionSpec.box([-0.3, -0.3], [0.3, 0.3])
    return (make_field("disk_2d"), region, PiecewisePower.power_law(2.5), (0.0, 0.5), 1.0,
            (0.25, -0.5))


_PATHS = ("lattice", "piecewise_1d", "steps", "smooth_1d", "indicator", "mc")


@pytest.mark.parametrize("path", _PATHS)
def test_every_path_is_homogeneous_and_translation_invariant(path):
    assert set(_PATHS) == {row[0] for row in quadrature._ENGINES}
    f, region, weight, window, q, v = _path_case(path)
    budget = QuadBudget(max_evaluations=20_000, rng_seed=4)
    r = pair_integral(f, region, weight, window, q, budget)
    assert r.path == path
    scaled = pair_integral(scale_field(f, 3.0), region, weight, window, q, budget)
    assert scaled.path == path
    assert abs(scaled.value - 3.0 ** q * r.value) <= \
        scaled.error_estimate + 3.0 ** q * r.error_estimate
    moved = pair_integral(_translated(f, v), _moved(region, v), weight, window, q, budget)
    assert moved.path == path
    assert abs(moved.value - r.value) <= moved.error_estimate + r.error_estimate


# ---------------------------------------------------------------------------
# Monte Carlo: the clipped core and the shift-integral budget
# ---------------------------------------------------------------------------

def test_mc_clipped_core_joins_the_error(disk, tent2):
    # q = 1.5 on a Lipschitz field: near t = 0 the integrand goes like
    # t^(N + q - s - 1), so with s = N + q - 0.15 the core below b * 1e-6
    # holds about (1e-6)^0.15 = 13% of the integral
    u = mollify(disk, tent2, math.exp(-2))
    b, q = 1.0, 1.5
    budget = QuadBudget(max_evaluations=1_500_000, rng_seed=5)
    weight = PiecewisePower.power_law(2.0 + q - 0.15)
    full = pair_integral(u, None, weight, (0.0, b), q, budget, stream=3)
    # the six decades of the core below b * 1e-6, sampled on their own
    core = pair_integral(u, None, weight, (b * 1e-12, b * 1e-6), q, budget, stream=4)
    assert full.path == core.path == "mc"
    assert core.value > 0.05 * full.value
    assert full.error_estimate >= 0.5 * core.value and full.low_confidence
    # with s >= N + q the core diverges; no finite error covers it
    div = pair_integral(u, None, PiecewisePower.power_law(2.0 + 1.9), (0.0, b), q,
                        budget, stream=3)
    assert div.error_estimate == math.inf and div.low_confidence


def test_shift_mc_uses_the_whole_budget(disk, tent2):
    from besovlab.quadrature import _shift_integral_mc, _stream_rng
    u = mollify(disk, tent2, math.exp(-2))
    h = np.array([0.05, 0.02])
    errs = []
    for cap in (200_000, 800_000):
        budget = QuadBudget(max_evaluations=cap, rng_seed=3)
        errs.append(_shift_integral_mc(u, None, h, 2.0, budget, stream=9)[1])
    assert errs[1] == pytest.approx(0.5 * errs[0], rel=0.1)
    # a budget of at most 200k samples is one chunk, drawn from stratum 0
    lo, hi = quadrature._sample_box(u, None, float(np.linalg.norm(h)))
    x = lo + (hi - lo) * _stream_rng(3, 9, 0).random((70_000, 2))
    vals = np.linalg.norm(eval_field(u, x + h) - eval_field(u, x), axis=-1) ** 2.0
    vol = float(np.prod(hi - lo))
    assert _shift_integral_mc(u, None, h, 2.0, QuadBudget(max_evaluations=70_000, rng_seed=3),
                              stream=9) == (vol * float(np.mean(vals)),
                                            2.0 * vol * float(np.std(vals)) / math.sqrt(70_000))
