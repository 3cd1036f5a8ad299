import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from besovlab.quadrature import (PiecewisePower, QuadBudget, QuadResult, _distinct,
                                 _merged_edges_1d, _region_1d_edges, _shift_breaks_1d,
                                 _smooth_shift_integrals_1d, _symdiff_measure,
                                 _t_integral, pair_integral, radial_integral,
                                 shift_integral, sphere_measure)

from oracles import (indicator_pair_integral, linear_pair_1d, mc_symdiff, riemann_pair_1d,
                     riemann_shift_1d, sphere_rule)

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def test_sphere_measure_values():
    assert sphere_measure(1) == 2.0
    assert sphere_measure(2) == pytest.approx(2.0 * math.pi, abs=0)
    assert sphere_measure(3) == pytest.approx(4.0 * math.pi, abs=0)
    with pytest.raises(CapabilityError):
        sphere_measure(4)


@PROPERTY
@given(m=st.integers(1, 512), data=st.data())
def test_circle_rule_integrates_cosines_exactly(m, data):
    # the m-point trapezoid rule is exact for cos(k theta), k < m
    k = data.draw(st.integers(0, m - 1))
    nodes, weights = sphere_rule(2, m)
    got = weights @ np.cos(k * np.arctan2(nodes[:, 1], nodes[:, 0]))
    assert got == pytest.approx(2.0 * math.pi if k == 0 else 0.0, abs=1e-12)


@PROPERTY
@given(half=st.integers(1, 128), data=st.data())
def test_sphere_rule_integrates_even_powers_of_z3_exactly(half, data):
    # m // 2 Gauss-Legendre latitudes are exact in z3 through degree m - 1 for
    # even m: int z3^(2j) dH^2 = 4 pi / (2j + 1) for 2j < m
    m = 2 * half
    j = data.draw(st.integers(0, half - 1))
    nodes, weights = sphere_rule(3, m)
    assert weights @ nodes[:, 2] ** (2 * j) == pytest.approx(4.0 * math.pi / (2 * j + 1),
                                                            rel=1e-12)


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


def test_divergent_core_is_checked_before_the_tail():
    # t^-3 t^1 on (0, inf) diverges at 0 before the tail's 0.0 ** -1 is taken
    with pytest.raises(DivergenceError, match="core"):
        PiecewisePower.power_law(3.0).moment(0.0, math.inf, 1.0)
    with pytest.raises(DivergenceError, match="core"):
        radial_integral(PiecewisePower.power_law(3), 2, (0.0, math.inf))
    assert isinstance(PiecewisePower.power_law(3.0).moment(0.5, math.inf, 1.0), float)


# powers at, near and away from the log case -1, before extra_power is added
_POWERS = st.sampled_from([-1.0, -1.0 + 1e-15, -1.0 - 1e-15, -1.0 + 1e-13, -2.0, 0.0]) \
    | st.floats(-3.0, 2.0)


@st.composite
def piecewise_powers(draw):
    k = draw(st.integers(1, 3))
    cuts = sorted(draw(st.lists(st.floats(0.01, 4.0), min_size=k, max_size=k, unique=True)))
    edges = [draw(st.sampled_from([0.0, cuts[0] / 2.0]))] + cuts
    if draw(st.booleans()):
        edges[-1] = math.inf
    coefs = st.just(0.0) | st.floats(-3.0, 3.0)
    return PiecewisePower(tuple((lo, hi, draw(coefs), draw(_POWERS))
                                for lo, hi in zip(edges[:-1], edges[1:])))


# the weights the 1D engines integrate: power laws at and past the core's
# divergence, the three kernel profiles, and a two-piece weight
_ENGINE_WEIGHTS = st.sampled_from([
    PiecewisePower.power_law(2.0), PiecewisePower.power_law(1.0),
    kernel_profile(RadialKernelFamily("trivial", 1), 0.05),
    kernel_profile(RadialKernelFamily("logarithmic", 1, omega=0.5), 0.05),
    kernel_profile(RadialKernelFamily("sigma_approx", 1), 0.05),
    PiecewisePower(((0.0, 0.3, 2.0, -0.5), (0.3, 2.0, -1.0, 1.5)))])


# enough examples that each fixed weight meets several bounds and powers
@settings(PROPERTY, max_examples=300)
@given(weight=_ENGINE_WEIGHTS | piecewise_powers(),
       b=st.just(math.inf) | st.floats(0.05, 5.0),
       extra=st.sampled_from([0.0, 1.0, 2.0, -0.5]), data=st.data())
def test_array_moments_are_the_per_bound_moments(weight, b, extra, data):
    # one routine serves scalar and array bounds: each bound of an array
    # gives the scalar value bit for bit (0 at and past b), and the array
    # raises DivergenceError exactly when some bound does
    past = min(b, 6.0) * 1.5
    lows = data.draw(st.lists(st.just(0.0) | st.floats(1e-6, past) | st.just(min(b, 6.0)),
                              min_size=1, max_size=8))

    def scalar(x):
        try:
            return weight.moment(x, b, extra)
        except DivergenceError:
            return None
    want = [scalar(x) for x in lows]
    if None in want:
        with pytest.raises(DivergenceError):
            weight.moment(np.array(lows), b, extra)
        return
    got = weight.moment(np.array(lows), b, extra)
    assert got.tolist() == want


# ---------------------------------------------------------------------------
# shift integrals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("h", [0.05, 0.37, 1.3, -0.6])
def test_shift_integral_matches_oracle_step(step, h):
    val = shift_integral(step, None, [h], 2.0).value
    assert val == pytest.approx(2.0 * min(abs(h), 1.0), abs=1e-12)
    oracle = riemann_shift_1d(step, None, h, 2.0)
    assert val == pytest.approx(oracle, abs=5e-4)


def test_shift_integral_two_steps_vs_oracle():
    f = make_field("two_steps_1d")
    for h in (0.2, 0.6, -1.1):
        val = shift_integral(f, None, [h], 2.0).value
        oracle = riemann_shift_1d(f, None, h, 2.0)
        assert val == pytest.approx(oracle, abs=5e-3)


def test_shift_integral_vector_field(vstep):
    # |amp| = 1 for the rotated step, so totals match the scalar step
    val = shift_integral(vstep, None, [0.3], 2.0).value
    assert val == pytest.approx(0.6, abs=1e-12)


def test_shift_integral_region_restriction(step):
    region = RegionSpec.interval(0.25, 0.75)
    val = shift_integral(step, region, [0.3], 2.0).value
    # u(x+0.3) != u(x) only near the jumps, outside [0.25, 0.45]
    oracle = riemann_shift_1d(step, region, 0.3, 2.0)
    assert val == pytest.approx(oracle, abs=5e-4)


def test_shift_integral_smooth_path(bump, tent):
    from besovlab.mollifiers import mollify
    u_eps = mollify(make_field("step_1d"), tent, 0.15)
    for h in (0.05, 0.4):
        val = shift_integral(u_eps, None, [h], 2.0).value
        oracle = riemann_shift_1d(u_eps, None, h, 2.0)
        assert val == pytest.approx(oracle, abs=5e-4)
    vb = shift_integral(bump, None, [0.2], 2.0).value
    assert vb == pytest.approx(riemann_shift_1d(bump, None, 0.2, 2.0), rel=1e-4)


# (region, its edges): every kind a 1D config's region section can name
_REGION_KINDS = {
    "union": (RegionSpec.union_of(RegionSpec.interval(-0.5, 0.6), RegionSpec.interval(1.2, 2.5)),
              [-0.5, 0.6, 1.2, 2.5]),
    "ball": (RegionSpec.ball([0.4], 0.9), [-0.5, 1.3]),
    "complement": (RegionSpec.complement_of(RegionSpec.interval(0.3, 0.8)), [0.3, 0.8]),
    "half_space+": (RegionSpec.half_space([1.0], 0.7), [0.7]),
    "half_space-": (RegionSpec.half_space([-1.0], -0.4), [0.4]),
}


@pytest.mark.parametrize("kind", sorted(_REGION_KINDS))
@pytest.mark.parametrize("eps", [None, 0.1])
@pytest.mark.parametrize("t", [0.05, 0.7])
def test_shift_integral_over_region_kinds(kind, eps, t):
    f = make_field("two_steps_1d")
    if eps is not None:
        f = mollify(f, make_mollifier("tent"), eps)
    region, edges = _REGION_KINDS[kind]

    def integrand(x):
        pts = np.array([[x], [x + t]])
        u = eval_field(f, pts)[:, 0]
        return (u[1] - u[0]) ** 2 * float(np.all(region.contains(pts)))
    # x or x + t lies in the support; split at the knots and edges, as they
    # are and less t
    (lo,), (hi,) = support_bbox(f)
    cuts = np.concatenate([knots_1d(f), edges])
    xs = sorted({lo - t, hi, *(c for c in np.concatenate([cuts, cuts - t]) if lo - t < c < hi)})
    ref = sum(sciint.quad(integrand, x0, x1, epsabs=1e-15, epsrel=1e-13)[0]
              for x0, x1 in zip(xs[:-1], xs[1:]))
    got = shift_integral(f, region, [t], 2.0)
    assert got.path == ("piecewise_1d" if eps is None else "smooth_1d")
    assert abs(got.value - ref) <= 1e-12


def test_shift_integral_zero_shift(step):
    assert shift_integral(step, None, [0.0], 2.0) == QuadResult(0.0, 0.0, 0)


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
    r = pair_integral(const, RegionSpec.interval(-1, 1), PiecewisePower.power_law(1.0),
                      (0.0, 0.1), 2.0)
    assert r.value == 0.0


def test_double_integral_step_ball_window(step):
    # per jump the |z| < eps window contributes 2 eps: total 2*2*eps = 0.4
    r = pair_integral(step, RegionSpec.interval(-1, 2), PiecewisePower.power_law(1.0),
                      (0.0, 0.1), 2.0)
    assert r.value == pytest.approx(0.4, rel=0.02)


def test_double_integral_step_annulus(step):
    beta, gamma = 0.02, 0.7
    r = pair_integral(step, RegionSpec.interval(-1, 2), PiecewisePower.power_law(2.0),
                      (beta, gamma), 2.0)
    expect = 4.0 * (math.log(gamma) - math.log(beta))
    assert r.value == pytest.approx(expect, rel=0.02)
    oracle = riemann_pair_1d(step, RegionSpec.interval(-1, 2),
                             lambda t: t ** -2.0, (beta, gamma), 2.0)
    assert r.value == pytest.approx(oracle, rel=5e-3)


def test_double_integral_divergence_guard(step):
    with pytest.raises(DivergenceError):
        pair_integral(step, RegionSpec.interval(-1, 2), PiecewisePower.power_law(2.0),
                      (0.0, 3.0), 2.0)


def test_mc_seeded_determinism(disk, tent2):
    from besovlab.mollifiers import mollify
    u = mollify(disk, tent2, math.exp(-2))
    budget = QuadBudget(max_evaluations=50_000, rng_seed=42)
    region = RegionSpec.box([-1.5, -1.5], [1.5, 1.5])
    weight = PiecewisePower.power_law(3.0)
    r1 = pair_integral(u, region, weight, (0.05, 0.5), 2.0, budget)
    r2 = pair_integral(u, region, weight, (0.05, 0.5), 2.0, budget)
    assert r1.value == r2.value and r1.error_estimate == r2.error_estimate


def test_mc_low_confidence_flag(disk, tent2):
    from besovlab.mollifiers import mollify
    u = mollify(disk, tent2, math.exp(-2))
    tiny = QuadBudget(max_evaluations=2_048, target_rel_error=1e-6, rng_seed=1)
    r = pair_integral(u, RegionSpec.box([-1.5, -1.5], [1.5, 1.5]),
                      PiecewisePower.power_law(3.0), (0.05, 0.5), 2.0, tiny)
    assert r.low_confidence


def test_polar_consistency():
    # the shared t-integrator against radial_integral on a radial weight,
    # with the window's lower end above the core and at 0
    weight = PiecewisePower.power_law(0.5)
    for n in (1, 2, 3):
        def g(ts, _n=n):
            return ts ** (_n - 1) * sphere_measure(_n)
        for a in (1e-6, 0.0):
            val, err = _t_integral(g, weight, a, 2.0, n - 1.0)
            ref = radial_integral(weight, n, (a, 2.0))
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
        r = pair_integral(f, region, PiecewisePower.power_law(1.0), (0.0, eps), 2.0)
        closed = 4.0 * amp * amp * eps
        assert abs(r.value - closed) <= 1e-12 and r.error_estimate == 0.0


def test_pair_integral_box_field_path():
    # box indicator in 2D exercises the closed-form deterministic branch
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
        r = pair_integral(u, region, PiecewisePower.power_law(3.0), (0.05, 0.5), 2.0,
                          budget)
        assert r.evaluations_used <= cap


# ---------------------------------------------------------------------------
# the exact 1D piecewise engine: property tests
# ---------------------------------------------------------------------------


@PROPERTY
@given(st.lists(st.one_of(st.floats(allow_nan=False),
                          st.sampled_from((0.0, -0.0, 1.0, math.inf, -math.inf))),
                max_size=40))
@example([])
@example([2.5])
@example([-0.0, 0.0, -0.0])
@example([math.inf, -math.inf, math.inf, 1.0])
def test_distinct_matches_np_unique(values):
    # the sampled pool makes heavy repeats; signed zeros compare equal
    x = np.array(values, dtype=float)
    got, want = _distinct(x), np.unique(x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_shift_breaks_of_a_knot_free_field_are_empty(bump):
    assert knots_1d(bump) is None
    assert _shift_breaks_1d(bump, None).shape == (0,)


def test_smooth_engine_splits_at_the_weights_piece_ends(bump):
    # a window across a weight's break: the t-panels split there, so the
    # whole window is its two parts; unsplit it read 5.69672 +- 2.9e-4
    w = PiecewisePower(((0.0, 0.3, 5.0, -1.5), (0.3, 2.0, 1.0, -1.0)))
    whole = pair_integral(bump, None, w, (0.0, 2.0), 2.0)
    parts = [pair_integral(bump, None, w, window, 2.0) for window in ((0.0, 0.3), (0.3, 2.0))]
    assert abs(whole.value - sum(p.value for p in parts)) <= whole.error_estimate \
        + sum(p.error_estimate for p in parts) <= 1e-10 * whole.value


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


def _step_and_interval(x0, x1, amp, lo, hi):
    """One step of amplitude amp on [x0, x1] in the interval [lo, hi], in the
    form steps_in_interval draws."""
    f = Field(1, 1, "piecewise", {"pieces": ((RegionSpec.interval(x0, x1), np.array([amp])),)},
              support_radius=max(abs(x0), abs(x1)), name="random_steps")
    return f, RegionSpec.interval(lo, hi), [x0, x1, lo, hi]


@PROPERTY
@given(field=steps_in_interval(), s=st.floats(0.0, 1.89),
       a=st.one_of(st.just(0.0), st.floats(0.01, 2.0)), width=st.floats(0.01, 3.0),
       q=st.floats(1.0, 3.0))
# the region overhangs the step by d = 4.87e-12: the integral is 8 sqrt(d),
# half of it on (d, 0.1), where quad in t reads -6.2e-11 with an error of
# 2e-22, so one quad over the window read half the value
@example(field=_step_and_interval(0.0, 0.1, -1.0, 0.0, 0.1000000000048713), s=1.5, a=0.0,
         width=1.0, q=1.0)
def test_exact_1d_engine_matches_scipy_quad(field, s, a, width, q):
    f, region, pts = field
    b = a + width
    got = pair_integral(f, region, PiecewisePower.power_law(s), (a, b), q)
    breaks = sorted({abs(x - y) for x in pts for y in pts} - {0.0})
    ends = [a] + [t for t in breaks if a < t < b] + [b]

    def g(t):
        return 2.0 * t ** -s * shift_integral(f, region, [t], q).value
    # one quad per segment between breaks; past the first, in u = ln t, so a
    # segment far shorter than its distance from 0 is resolved
    ref = sciint.quad(g, ends[0], ends[1], limit=400, epsabs=0.0, epsrel=1e-11)[0]
    for t0, t1 in zip(ends[1:-1], ends[2:]):
        ref += sciint.quad(lambda u: g(math.exp(u)) * math.exp(u), math.log(t0), math.log(t1),
                           limit=400, epsabs=1e-16, epsrel=1e-11)[0]
    assert got.error_estimate == 0.0
    assert got.value == pytest.approx(ref, rel=1e-9, abs=1e-13)


@PROPERTY
@given(field=steps_in_interval(), t=st.floats(0.001, 5.0), q=st.floats(1.0, 3.0))
def test_shift_integral_even_in_t(field, t, q):
    f, region, _ = field
    fwd = shift_integral(f, region, [t], q).value
    back = shift_integral(f, region, [-t], q).value
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
    got = _smooth_shift_integrals_1d(f, region, ts, q, x_div, (order,))[0][:, 0]
    ref = [_loop_shift_integral(f, region, float(t), q, x_div, order) for t in ts]
    assert got.tolist() == ref
    both, _ = _smooth_shift_integrals_1d(f, region, ts, q, 64, (12, 6))
    for t, (vhi, vlo) in zip(ts, both):
        r = shift_integral(f, region, float(t), q)
        assert (r.value, r.error_estimate) == (vhi, abs(vhi - vlo))
        assert vhi == _loop_shift_integral(f, region, float(t), q, 64, 12)


@pytest.mark.parametrize("s", [1.5, 2.5])
@pytest.mark.parametrize("box", [None, (-0.5, 2.0)])
def test_smooth_1d_engine_on_a_grid_field(s, box):
    # a 1D grid field takes the grid settings of the smooth_1d engine; it is
    # the linear interpolant of its cell values, zero one cell past either end
    f = sample(make_field("two_steps_1d"), GridSpec(origin=(-0.3,), spacing=(0.1,), extent=(27,)))
    c = f.payload["spec"].centers()[0]
    nodes = np.concatenate([[c[0] - 0.1], c, [c[-1] + 0.1]])
    vals = np.concatenate([[0.0], f.payload["values"][:, 0], [0.0]])
    xs = np.linspace(-1.0, 3.5, 1001)
    np.testing.assert_allclose(eval_field(f, xs[:, None])[:, 0], np.interp(xs, nodes, vals),
                               rtol=0, atol=1e-14)
    region = None if box is None else RegionSpec.interval(*box)
    r = pair_integral(f, region, PiecewisePower.power_law(s), (0.0, 2.0), 2.0)
    assert r.path == "smooth_1d"
    # the reference is exact up to roundoff (about 1e-13 of the value), so
    # the engine's own error estimate must cover the difference; with no
    # region, (-5, 8) reaches past the support by more than the window
    ref = linear_pair_1d(nodes, vals, *(box or (-5.0, 8.0)), 2.0, s)
    assert abs(r.value - ref) <= r.error_estimate <= 1e-7 * ref


@pytest.mark.parametrize("cap", [1, 10 ** 9])
def test_batched_smooth_engine_block_cap(monkeypatch, cap):
    f = _smooth_field("tent", 0.1)
    ts = np.concatenate([np.geomspace(1e-4, 2.5, 40), -np.geomspace(1e-3, 1.0, 7)])
    for region in (None, RegionSpec.interval(-0.5, 2.5)):
        expect = _smooth_shift_integrals_1d(f, region, ts, 2.0, 64, (12, 6))[0]
        calls = []

        def counting(field, x):
            calls.append(len(x))
            return eval_field(field, x)
        monkeypatch.setattr(quadrature, "_BLOCK_POINTS", cap)
        monkeypatch.setattr(quadrature, "eval_field", counting)
        got = _smooth_shift_integrals_1d(f, region, ts, 2.0, 64, (12, 6))[0]
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
    out, _ = _smooth_shift_integrals_1d(f, region, ts, 2.0, 64, (12, 6))
    assert np.array_equal(out, np.zeros((4, 2)))
    r = shift_integral(f, region, 0.5, 2.0)
    assert (r.value, r.error_estimate) == (0.0, 0.0)
    empty, _ = _smooth_shift_integrals_1d(f, region, np.array([0.5, 1.0]), 2.0, 64, (12,))
    assert np.array_equal(empty, np.zeros((2, 1)))


# ---------------------------------------------------------------------------
# ball indicators: one symmetric difference per radius
# ---------------------------------------------------------------------------

def _sphere_rule_pair_integral(f, weight, a, b):
    """The indicator pair integral with the symmetric difference at every
    node of the 64-node sphere rule."""
    n = f.dim_in
    ball = f.payload["pieces"][0][0]
    nodes, wts = sphere_rule(n, 64)

    def g(ts):
        sym = _symdiff_measure(ball, ts[:, None, None] * nodes[None, :, :])
        return ts ** (n - 1) * (sym @ wts)
    return _t_integral(g, weight, a, b, n, roots=[2.0 * ball.radius])[0]


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
    # it (over half at rq = 0.97)
    f = make_field(name)
    ball, amp = f.payload["pieces"][0]
    weight = PiecewisePower.power_law(f.dim_in + rq)
    ref = indicator_pair_integral(ball, float(amp[0]), 1.0, weight, 0.0, 2.0)
    got = pair_integral(f, None, weight, (0.0, 2.0), 1.0)
    assert got.path == "indicator"
    assert abs(got.value - ref) <= got.error_estimate <= 1e-6 * got.value


@pytest.mark.parametrize("sides", [(1.0, 1.0), (2.0, 0.3), (0.4, 1.7)])
def test_box_deficit_is_its_quarter_circle_integral(sides):
    # the closed form against quad of its integrand, split where a factor
    # reaches 0, from tau -> 0 to past the diagonal
    s1, s2 = sides
    taus = np.concatenate([[1e-9, 1e-4], np.linspace(0.01, 1.3, 60) * math.hypot(s1, s2)])
    got = quadrature._box_deficit(s1, s2, taus)
    for tau, d in zip(taus, got):
        cuts = [p for p in (math.acos(min(1.0, s1 / tau)), math.asin(min(1.0, s2 / tau)))
                if 0.0 < p < 0.5 * math.pi]
        kept = sciint.quad(lambda p: max(s1 - tau * math.cos(p), 0.0)
                           * max(s2 - tau * math.sin(p), 0.0), 0.0, 0.5 * math.pi,
                           points=cuts or None, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        # the difference quad's result is read against loses digits as tau -> 0
        assert abs(d - (0.5 * math.pi * s1 * s2 - kept)) <= 1e-13 * s1 * s2 + 1e-15 * d


@pytest.mark.parametrize("rq", [0.1, 0.3, 0.9])
def test_box_indicator_counts_its_sphere_rule_error(rq):
    # the W^(r,1) integral of the box indicator over the window (0, 2),
    # weight t^-(2 + rq), against quad on the box's closed-form sphere sum,
    # split at the sides and the diagonal; the reported error covers the
    # miss and is within 100x of it or below 1e-8 of the value, the floor of
    # the indicator calibration row (graded panels at the kinks took the
    # miss from 2e-7 to roundoff and the error from 5.4e-6 to 4e-9)
    box = make_field("box_2d")
    shape, amp = box.payload["pieces"][0]
    weight = PiecewisePower.power_law(2.0 + rq)
    got = pair_integral(box, None, weight, (0.0, 2.0), 1.0)
    assert got.path == "indicator"
    miss = abs(got.value - indicator_pair_integral(shape, float(amp[0]), 1.0, weight, 0.0, 2.0))
    assert miss <= got.error_estimate <= max(100.0 * miss, 1e-8 * got.value)


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
    """The field u(. - v), for piecewise, grid and mollified step-sum fields."""
    if f.kind == "piecewise":
        payload = {"pieces": tuple((_moved(r, v), amp) for r, amp in f.payload["pieces"])}
    elif f.kind == "grid":
        spec = f.payload["spec"]
        payload = dict(f.payload, spec=replace(spec, origin=tuple(np.add(spec.origin, v))))
    else:
        payload = dict(f.payload, field=_translated(f.payload["field"], v))
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
        errs.append(_shift_integral_mc(u, None, h, 2.0, budget, stream=9).error_estimate)
    assert errs[1] == pytest.approx(0.5 * errs[0], rel=0.1)
    # a budget of at most 200k samples is one chunk, drawn from stratum 0
    lo, hi = quadrature._sample_box(u, None, float(np.linalg.norm(h)))
    x = lo + (hi - lo) * _stream_rng(3, 9, 0).random((70_000, 2))
    vals = np.linalg.norm(eval_field(u, x + h) - eval_field(u, x), axis=-1) ** 2.0
    vol = float(np.prod(hi - lo))
    r = _shift_integral_mc(u, None, h, 2.0, QuadBudget(max_evaluations=70_000, rng_seed=3),
                           stream=9)
    assert (r.value, r.error_estimate) == (vol * float(np.mean(vals)),
                                           2.0 * vol * float(np.std(vals)) / math.sqrt(70_000))
