"""The q = 2 engine for mollified 1D step sums: against the 1D Fourier
oracle and adaptive-quadrature references, which inputs reach it, its
evaluation counts, and the smooth 1D engine's agreement with it."""

import math

import numpy as np
import pytest

from besovlab import quadrature
from besovlab.errors import DivergenceError
from besovlab.fields import RegionSpec, make_field, support_bbox
from besovlab.kernels import RadialKernelFamily, kernel_profile, kernel_window
from besovlab.mollifiers import make_mollifier, mollify
from besovlab.quadrature import PiecewisePower, pair_integral

from oracles import fourier_seminorm_steps, step_sum


def _smooth(f, region, weight, window, q=2.0):
    return quadrature._pair_integral_smooth_1d(f, region, weight, *window, q, None, 0)


# adaptive-quadrature references: step_1d mollified by the tent, q = 2, the
# weight t^-2, window (0, 3), E = R
_REFERENCES = {3: 15.332539308494, 6: 27.304753275548, 9: 39.303291815183}


@pytest.mark.parametrize("k", sorted(_REFERENCES))
def test_steps_engine_matches_adaptive_references(step, tent, k):
    u = mollify(step, tent, math.exp(-k))
    r = pair_integral(u, None, PiecewisePower.power_law(2.0), (0.0, 3.0), 2.0)
    assert r.value == pytest.approx(_REFERENCES[k], rel=1e-12)
    assert r.error_estimate <= 1e-12 * r.value


@pytest.mark.parametrize("steps,eps,s", [
    ([(0.0, 1.0, 1.0)], math.exp(-3.0), 0.5),
    ([(0.0, 1.0, 1.0)], math.exp(-9.0), 0.5),
    ([(0.0, 1.0, (0.6, -0.8)), (1.5, 2.0, (-1.0, 2.0))], 0.05, 0.3),
    ([(-0.4, 0.1, 2.0), (0.3, 0.35, -1.5), (0.9, 1.7, 0.5)], 1e-3, 0.8),
    ([(0.0, 0.02, 1.0), (0.05, 1.0, -1.0)], 0.2, 0.6),
    # steps closer than 4 eps: the tau-rule windows d +- 2 eps overlap
    ([(0.0, 1.0, 1.0), (1.03, 1.5, -2.0)], 0.01, 0.5),
])
def test_steps_engine_matches_fourier_oracle(tent, steps, eps, s):
    # Di Nezza-Palatucci-Valdinoci (2012), Prop. 3.4 in 1D: the window
    # (0, b), b past the support's diameter, plus its closed tail
    # 2 int_b^inf 2 ||u_eps||^2 t^-(1+2s) dt
    dim_out = len(np.atleast_1d(steps[0][2]))
    u = mollify(step_sum(steps, dim_out), tent, eps)
    lo, hi = support_bbox(u)
    b = 1.5 * float(hi[0] - lo[0])
    semi, l2 = fourier_seminorm_steps(steps, eps, s)
    r = pair_integral(u, None, PiecewisePower.power_law(1.0 + 2.0 * s), (0.0, b), 2.0)
    full = r.value + 4.0 * l2 * b ** (-2.0 * s) / (2.0 * s)
    assert full == pytest.approx(semi, rel=1e-10)
    assert r.error_estimate <= 1e-12 * r.value


def test_chain_rows_report_exact_errors(step, tent):
    # the chain's Gagliardo rows: E = [-1, 2], window (0, 3); each row within
    # its error of the e^-4 reference, every error below 1e-12 relative.  The
    # tau-rule runs only at t-nodes within 2 eps of a kink of F_u, so a row
    # reads at most 10,000 values (15,585 at e^-2 to 38,265 at e^-9 when
    # every node ran it)
    region = RegionSpec.interval(-1.0, 2.0)
    for k in range(2, 10):
        r = pair_integral(mollify(step, tent, math.exp(-k)), region,
                          PiecewisePower.power_law(2.0), (0.0, 3.0), 2.0)
        assert r.error_estimate <= 1e-12 * r.value
        assert r.path == "steps" and 0 < r.evaluations_used <= 10_000
        if k == 4:
            assert abs(r.value / 4.0 - 4.472323696095) <= 1e-11


# a t-node farther than 2 eps from every kink d of F_u reads F_u(t) in place
# of the tau-rule; these put the windows d +- 2 eps where that switch happens
# next to each other, a window's ends and a weight piece's end
@pytest.mark.parametrize("steps,eps,weight,window", [
    ([(0.0, 1.0, 1.0), (1.03, 1.5, -2.0)], 0.01, PiecewisePower.power_law(2.0), (0.0, 2.0)),
    ([(0.0, 1.0, 1.0), (1.2, 1.7, 0.5)], 0.02, PiecewisePower.power_law(1.6), (0.21, 0.97)),
    ([(0.0, 1.0, 1.0)], 0.01, PiecewisePower.power_law(2.0), (0.0, 0.8)),
    ([(0.0, 1.0, 1.0), (1.2, 1.7, 0.5)], 0.02,
     PiecewisePower(((0.0, 0.49, 1.0, -2.0), (0.49, math.inf, 0.5, -1.5))), (0.0, 2.0)),
], ids=["overlapping_windows", "a_and_b_in_windows", "kink_past_b", "weight_end_in_window"])
def test_steps_engine_at_the_kink_windows(tent, steps, eps, weight, window):
    u = mollify(step_sum(steps), tent, eps)
    for region in (None, RegionSpec.interval(-0.5, 2.2)):
        got = pair_integral(u, region, weight, window, 2.0)
        ref = _smooth(u, region, weight, window)
        assert got.path == "steps"
        assert abs(got.value - ref.value) <= got.error_estimate + ref.error_estimate
        assert got.error_estimate <= 1e-12 * got.value


def test_pair_table_is_built_once_per_step_sum_region_and_q(monkeypatch):
    # the key tells apart steps, region, q and 2-vector amplitudes: a value
    # read through a full table is the one a fresh table gives.  Equal step
    # sums built as two Fields share one entry, and evaluate u once
    calls = []
    original = quadrature.eval_field

    def counting(field, x):
        calls.append(field)
        return original(field, x)
    monkeypatch.setattr(quadrature, "eval_field", counting)
    monkeypatch.setattr(quadrature, "_PAIR_CACHE", {})
    ts = np.array([0.0, 0.3, 0.95, 1.4, 2.5])
    one = [(0.0, 1.0, (0.6, 0.8)), (1.0, 1.5, (0.8, 0.6))]
    cases = [(one, None, 2.0), ([(0.0, 1.1, (0.6, 0.8)), (1.1, 1.5, (0.8, 0.6))], None, 2.0),
             ([(0.0, 1.0, (0.6, 0.8)), (1.0, 1.5, (0.6, 0.8))], None, 2.0),
             (one, RegionSpec.interval(0.2, 1.2), 2.0), (one, None, 1.0)]
    warm = [quadrature._piecewise_shifts_1d(step_sum(st, 2), reg, ts, q) for st, reg, q in cases]
    assert len(quadrature._PAIR_CACHE) == len(cases) == len(calls)
    for (st, reg, q), value in zip(cases, warm):
        monkeypatch.setattr(quadrature, "_PAIR_CACHE", {})
        assert np.array_equal(quadrature._piecewise_shifts_1d(step_sum(st, 2), reg, ts, q), value)
    monkeypatch.setattr(quadrature, "_PAIR_CACHE", {})
    calls.clear()
    pair = [quadrature._piecewise_shifts_1d(step_sum(one, 2), None, ts, 2.0) for _ in range(2)]
    assert len(calls) == 1 and len(quadrature._PAIR_CACHE) == 1
    assert np.array_equal(pair[0], pair[1]) and np.array_equal(pair[1], warm[0])


def test_smooth_engine_covers_the_missing_knot_reference(step, tent):
    # without the steps among the knots, a Gauss-Legendre panel straddled
    # the tent's kink at 0 and this read 27.299580 +- 2.1e-5
    u = mollify(step, tent, math.exp(-6.0))
    r = _smooth(u, None, PiecewisePower.power_law(2.0), (0.0, 3.0))
    assert abs(r.value - _REFERENCES[6]) <= r.error_estimate


def test_smooth_engine_covers_the_region_edge_kinks(step, tent):
    # F_E(t) kinks where t is a knot's distance to an edge of E; without
    # those t-panel breaks the e^-4 chain row read 4.472290 +- 1.3e-5
    u = mollify(step, tent, math.exp(-4.0))
    r = _smooth(u, RegionSpec.interval(-1.0, 2.0), PiecewisePower.power_law(2.0), (0.0, 3.0))
    assert abs(r.value / 4.0 - 4.472323696095) <= r.error_estimate / 4.0


def test_smooth_engine_small_shifts(tent):
    # with s = 2.69 the shifts below 1e-9 carry about 1% of the integral;
    # rounded x + t moved them by up to ulp(x) / t relative, and the error,
    # 4e-6, was twice the reported one
    steps = [(-0.715, 0.0, (0.46151008, 1.05722171)), (0.189, 0.2, (0.06327934, 1.86249837)),
             (0.277, 1.102, (0.5621232, -0.95486044))]
    u = mollify(step_sum(steps, 2), tent, 1e-4)
    weight = PiecewisePower.power_law(2.69)
    exact = pair_integral(u, None, weight, (0.0, 0.05), 2.0)
    smooth = _smooth(u, None, weight, (0.0, 0.05))
    assert abs(smooth.value - exact.value) <= smooth.error_estimate + exact.error_estimate


@pytest.mark.parametrize("s", [3.0, 3.5])
def test_mollified_core_diverges_at_q_plus_one(step, tent, s):
    # F_eps(t) ~ c t^2 near 0, so the weight t^-s is integrable only for s < 3
    u = mollify(step, tent, 0.01)
    weight = PiecewisePower.power_law(s)
    with pytest.raises(DivergenceError):
        pair_integral(u, None, weight, (0.0, 1.0), 2.0)
    with pytest.raises(DivergenceError):
        _smooth(u, None, weight, (0.0, 1.0))


def test_steps_engine_dispatch(step, tent):
    u = mollify(step, tent, 0.05)
    w = PiecewisePower.power_law(2.0)
    around = RegionSpec.interval(-0.1, 1.1)
    cases = [
        (u, None, w, (0.0, 2.0), 2.0, "steps"),
        (u, around, w, (0.0, 2.0), 2.0, "steps"),
        (u, around, w, (0.3, 0.7), 2.0, "steps"),
        # the interval clips the support
        (u, RegionSpec.interval(0.0, 1.1), w, (0.0, 2.0), 2.0, "smooth_1d"),
        (u, around, w, (0.0, 2.0), 1.5, "smooth_1d"),
        (mollify(step, make_mollifier("truncated-gaussian"), 0.05), None, w, (0.0, 2.0), 2.0,
         "smooth_1d"),
        (make_field("gaussian_bump_1d"), None, w, (0.0, 2.0), 2.0, "smooth_1d"),
    ]
    for f, region, weight, window, q, path in cases:
        assert pair_integral(f, region, weight, window, q).path == path


def test_steps_engine_scales_out_tiny_amplitudes(tent):
    # at amplitude 9e-159, |u_eps|^2 is subnormal and the engine's sums lost
    # all precision (the integral read -2.1e-319).  It works on the steps
    # over a power of 2 and multiplies back, so the integral is amp^2 times
    # the one at amplitude 1, to the ~1e-4 precision of its subnormal result
    amp = 9.01877906e-159
    w = PiecewisePower.power_law(2.0)
    for region in (None, RegionSpec.interval(-0.5, 1.0)):
        one = pair_integral(mollify(step_sum([(0.0, 1e-3, 1.0)]), tent, 0.1), region, w,
                            (0.0, 1.0), 2.0)
        tiny = pair_integral(mollify(step_sum([(0.0, 1e-3, amp)]), tent, 0.1), region, w,
                             (0.0, 1.0), 2.0)
        assert tiny.path == "steps"
        assert tiny.value == pytest.approx(amp * amp * one.value, rel=1e-3)


@pytest.mark.parametrize("kind", ["trivial", "logarithmic"])
@pytest.mark.parametrize("eps", [0.1, 0.004])
def test_steps_engine_piecewise_weights(step, tent, kind, eps):
    # a kernel profile has several pieces and an annulus window: its ends
    # are t-panel breaks; the smooth engine must agree within its error
    k = RadialKernelFamily(kind, 1, omega=0.5) if kind == "logarithmic" \
        else RadialKernelFamily(kind, 1)
    weight = kernel_profile(k, eps).times_power(-1.0)
    window = kernel_window(k, eps)
    u = mollify(step_sum([(0.0, 1.0, 1.0), (1.2, 1.5, -2.0)]), tent, 0.03)
    region = RegionSpec.interval(-0.5, 2.0)
    for reg in (None, region):
        got = pair_integral(u, reg, weight, window, 2.0)
        ref = _smooth(u, reg, weight, window)
        assert abs(got.value - ref.value) <= ref.error_estimate + got.error_estimate
        assert got.error_estimate <= 1e-12 * abs(got.value)


def test_evaluation_counts(monkeypatch, step, tent):
    points = []
    original = quadrature.eval_field

    def counting(field, x):
        points.append((field.kind, len(x)))
        return original(field, x)
    monkeypatch.setattr(quadrature, "eval_field", counting)
    u = mollify(step, tent, 0.05)
    w = PiecewisePower.power_law(2.0)
    region = RegionSpec.interval(-1.0, 2.0)
    # the smooth engine: one x-node is one evaluation at x and one at x + t
    r = _smooth(u, region, w, (0.0, 3.0))
    assert r.evaluations_used > 0 and 2 * r.evaluations_used == sum(n for _, n in points)
    # the steps engine reads u_eps once per region-term node, and counts its
    # F_u and A evaluations on top
    points.clear()
    r = pair_integral(u, region, w, (0.0, 3.0), 2.0)
    u_reads = sum(n for kind, n in points if kind == "smooth")
    assert 0 < u_reads < r.evaluations_used


def test_smooth_engine_subnormal_integrand(tent):
    # amp^2 ~ 8e-317 is subnormal: the smooth engine integrates u / 2^-525
    # and multiplies back, so it loses no digits to underflow and agrees
    # with the exact engine, 4.293e-320 = amp^2 5.27787e-4
    amp = 9.01877906e-159
    u = mollify(step_sum([(0.0, 1e-3, amp)]), tent, 0.1)
    weight = PiecewisePower.power_law(2.0)
    exact = pair_integral(u, None, weight, (0.0, 1.0), 2.0)
    smooth = _smooth(u, None, weight, (0.0, 1.0))
    assert exact.value == pytest.approx(amp ** 2 * 5.27787e-4, rel=1e-5)
    tiny = 4.0 * np.finfo(float).smallest_subnormal
    assert abs(smooth.value - exact.value) <= smooth.error_estimate + exact.error_estimate + tiny


def test_smooth_engine_tiny_window_start(step, tent):
    # a window start far below b 1e-9 joins the core (a, b 1e-9) instead of
    # starting the t-panels there, where t^-1.5 overflows
    u = mollify(step, tent, 0.05)
    weight = PiecewisePower.power_law(1.5)
    tiny = _smooth(u, None, weight, (5e-314, 0.237))
    full = _smooth(u, None, weight, (0.0, 0.237))
    assert math.isfinite(tiny.value) and math.isfinite(tiny.error_estimate)
    assert abs(tiny.value - full.value) <= tiny.error_estimate + full.error_estimate


@pytest.mark.parametrize("weight", [PiecewisePower.power_law(2.0),
                                    PiecewisePower.power_law(1.0),
                                    kernel_profile(RadialKernelFamily("trivial", 1), 0.05),
                                    kernel_profile(RadialKernelFamily("logarithmic", 1, omega=0.5),
                                                   0.05),
                                    kernel_profile(RadialKernelFamily("sigma_approx", 1), 0.05),
                                    PiecewisePower(((0.0, 0.3, 2.0, -0.5), (0.3, 2.0, -1.0, 1.5)))])
def test_array_moments_are_the_scalar_moments(weight):
    # the region term's escape mass takes one call per side: each bound must
    # give the scalar path's value bit for bit, 0 at and past b
    b = 1.7
    lows = np.concatenate([np.geomspace(1e-6, 2.5, 200), [b, 0.05, 0.3, 2.0]])
    for power in (0.0, 1.0, -0.5):
        got = weight.moment(lows, b, power)
        want = [weight.moment(x, b, power) if x < b else 0.0 for x in lows]
        assert np.array_equal(got, want)


def test_array_moments_keep_the_divergence_checks():
    w = PiecewisePower.power_law(2.0)
    with pytest.raises(DivergenceError):
        w.moment(np.array([0.5, 0.0]), 1.0, 0.0)
    with pytest.raises(DivergenceError):
        PiecewisePower.power_law(1.0).moment(np.array([0.0]), 1.0, 0.0)
    assert np.array_equal(w.moment(np.array([0.0]), 1.0, 2.0), [w.moment(0.0, 1.0, 2.0)])
