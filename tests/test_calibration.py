"""One calibration harness for every pair-integral engine.

Each row of ROWS is (engine path, strategy of the engine's arguments
(f, region, weight, a, b, q, budget), reference, floor, examples).  The
reference gives a value and its own error.  Coverage: the engine's miss is
at most its reported error plus the reference's.  Tightness: the reported
error is at most 100x the miss, or below floor x the value; one Monte Carlo
miss can be near zero by chance, so with no floor (`mc`) the mean miss must
be 0.01 of the error or more.  The 1D and indicator weights have one to
three pieces whose ends the window crosses."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besovlab import quadrature
from besovlab.fields import Field, RegionSpec, support_bbox
from besovlab.mollifiers import make_mollifier, mollify
from besovlab.quadrature import PiecewisePower, QuadBudget, pair_integral

from oracles import (fourier_pair_integral, grid_field, indicator_pair_integral, step_sum,
                     steps_pair_integral_mp, weighted_quad)

_A_FRAC = st.one_of(st.just(0.0), st.floats(0.0, 0.95))


@st.composite
def _weights(draw, b, s_lo, s_hi):
    """c t^-s, c in [0.2, 5] and s in [s_lo, s_hi], on each of one to three
    pieces from 0 to inf, the inner ends in [0.05 b, 0.95 b]."""
    ends = [0.0] + sorted(b * c for c in draw(st.lists(st.floats(0.05, 0.95), max_size=2,
                                                        unique=True))) + [math.inf]
    return PiecewisePower(tuple((lo, hi, draw(st.floats(0.2, 5.0)), -draw(st.floats(s_lo, s_hi)))
                                for lo, hi in zip(ends[:-1], ends[1:])))


@st.composite
def _mollified_steps(draw, eps_lo):
    """1-3 disjoint steps with ends on the multiples of 1e-3 in [-1, 2],
    scalar or 2-vector amplitudes, under the tent at eps in [eps_lo, 0.2]."""
    k, dim_out = draw(st.integers(1, 3)), draw(st.sampled_from((1, 2)))
    ends = sorted(1e-3 * e for e in draw(st.lists(st.integers(-1000, 2000), min_size=2 * k,
                                                  max_size=2 * k, unique=True)))
    amps = [draw(st.lists(st.floats(-2.0, 2.0), min_size=dim_out, max_size=dim_out))
            for _ in range(k)]
    eps = 10.0 ** draw(st.floats(math.log10(eps_lo), math.log10(0.2)))
    return mollify(step_sum([(ends[2 * j], ends[2 * j + 1], amps[j]) for j in range(k)], dim_out),
                   make_mollifier("tent"), eps)


@st.composite
def _lattice_cases(draw):
    """2-5 cells per axis in 2D or 3D, t^-(N + 2s) over (0, b) past the support."""
    n, s = draw(st.sampled_from((2, 3))), draw(st.floats(0.1, 0.9))
    ext = tuple(draw(st.lists(st.integers(2, 5), min_size=n, max_size=n)))
    values = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal(
        ext + (draw(st.integers(1, 2)),))
    h = draw(st.floats(0.1, 0.5))
    return grid_field(values, h), None, PiecewisePower.power_law(n + 2.0 * s), 0.0, \
        max(50.0, 2.0 * h * math.hypot(*ext)), 2.0, None


def _lattice_case(ext, dim_out, s):
    """Seeded cell values, spacing 0.37, t^-(N + 2s) over (0, b) past the support."""
    values = np.random.default_rng(sum(ext) + dim_out).standard_normal(ext + (dim_out,))
    return grid_field(values, 0.37), None, PiecewisePower.power_law(len(ext) + 2.0 * s), 0.0, \
        max(50.0, 2.0 * 0.37 * math.hypot(*ext)), 2.0, None


def _lattice_reference(f, region, weight, a, b, q, budget):
    # the oracle is good to about 1e-8
    ref = fourier_pair_integral(f.payload["values"], f.payload["spec"].spacing[0],
                                0.5 * (-weight.pieces[0][3] - f.dim_in), b)
    return ref, 1e-8 * abs(ref)


@st.composite
def _step_cases(draw):
    """One step over R or an interval b or more beyond it."""
    x0, length = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.1, 2.0))
    amp = draw(st.floats(0.2, 3.0)) * draw(st.sampled_from((-1.0, 1.0)))
    b, margin = length * draw(st.floats(0.2, 2.0)), draw(st.floats(1.0, 2.0))
    region = RegionSpec.interval(x0 - margin * b, x0 + length + margin * b) \
        if draw(st.booleans()) else None
    return step_sum([(x0, x0 + length, amp)]), region, draw(_weights(b, 0.5, 1.95)), \
        draw(_A_FRAC) * b, b, draw(st.sampled_from((1.0, 2.0))), None


def _step_reference(f, region, weight, a, b, q, budget):
    # F(t) = 2 |A|^q min(t, L), and the pair integral is 2 int w F
    (piece, amp), = f.payload["pieces"]
    length = piece.hi[0] - piece.lo[0]
    ref = 4.0 * abs(amp[0]) ** q * weighted_quad(lambda t: 1.0 if t <= length else length / t,
                                                  weight, a, b, 1.0, [length])
    return ref, 1e-12 * ref


@st.composite
def _steps_cases(draw):
    """t^-(1 + 2s) over (0, b), b past the support."""
    u = draw(_mollified_steps(1e-3))
    lo, hi = support_bbox(u)
    return u, None, PiecewisePower.power_law(1.0 + 2.0 * draw(st.floats(0.1, 0.9))), 0.0, \
        float(hi[0] - lo[0]) * draw(st.floats(1.0, 2.0)), 2.0, None


def _steps_case(steps, dim_out, eps, s):
    """The steps under the tent at eps, t^-(1 + 2s) over (0, b), b 1.5 times
    the support's width."""
    u = mollify(step_sum(steps, dim_out), make_mollifier("tent"), eps)
    lo, hi = support_bbox(u)
    return u, None, PiecewisePower.power_law(1.0 + 2.0 * s), 0.0, 1.5 * float(hi[0] - lo[0]), \
        2.0, None


def _steps_reference(f, region, weight, a, b, q, budget):
    # the 50-digit closed form, whose one error is its rounding to a float
    steps = [(p.lo[0], p.hi[0], amp) for p, amp in f.payload["field"].payload["pieces"]]
    ref = float(steps_pair_integral_mp(steps, f.payload["eps"], -weight.pieces[0][3], (a, b)))
    return ref, 0.5 * math.ulp(ref)


@st.composite
def _smooth_cases(draw):
    """Over R or an interval around the support, b in [0.05, 4]."""
    u = draw(_mollified_steps(1e-4))
    lo, hi = support_bbox(u)
    margins = draw(st.one_of(st.none(), st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0))))
    region = None if margins is None else \
        RegionSpec.interval(lo[0] - margins[0], hi[0] + margins[1])
    b = draw(st.floats(0.05, 4.0))
    return u, region, draw(_weights(b, 1.2, 2.8)), draw(_A_FRAC) * b, b, 2.0, None


def _engine_reference(path, roundoff=0.0):
    """The engine that pair_integral runs, which must be path's, with its
    error plus roundoff times the value over E = R, an upper bound of the
    value over any E."""
    def reference(f, region, weight, a, b, q, budget):
        r = pair_integral(f, region, weight, (a, b), q)
        assert r.path == path
        return r.value, r.error_estimate + (
            roundoff * pair_integral(f, None, weight, (a, b), q).value if roundoff else 0.0)
    return reference


def _indicator(shape, amp):
    return Field(shape.dim, 1, "piecewise", {"pieces": ((shape, np.array([amp])),)},
                 support_radius=10.0, name="indicator")


@st.composite
def _indicator_cases(draw):
    """A ball or box in 2D or 3D, b up to twice its diameter."""
    n = draw(st.sampled_from((2, 3)))
    corner = np.array(draw(st.lists(st.floats(-1.0, 0.0), min_size=n, max_size=n)))
    if draw(st.booleans()):
        radius = draw(st.floats(0.1, 1.5))
        shape, diameter = RegionSpec.ball(corner + radius, radius), 2.0 * radius
    else:
        side = np.array(draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n)))
        shape, diameter = RegionSpec.box(corner, corner + side), float(np.linalg.norm(side))
    b = draw(st.floats(0.05, 2.0)) * diameter
    return _indicator(shape, draw(st.floats(0.2, 3.0))), None, \
        draw(_weights(b, n + 0.02, n + 0.98)), draw(_A_FRAC) * b, b, \
        draw(st.sampled_from((1.0, 2.0))), None


def _indicator_reference(f, region, weight, a, b, q, budget):
    # quad's own rounding: 1e-13 of the value
    shape, amp = f.payload["pieces"][0]
    ref = indicator_pair_integral(shape, float(amp[0]), q, weight, a, b)
    return ref, 1e-13 * abs(ref)


@st.composite
def _mc_cases(draw):
    """6-24 cells per axis in 2D, t^-s over (0, b) past the support."""
    ext = tuple(draw(st.lists(st.integers(6, 24), min_size=2, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.standard_normal(ext + (draw(st.integers(1, 2)),))
    h, origin = draw(st.floats(0.05, 0.3)), rng.uniform(-1.0, 1.0, 2)
    lo, hi = origin - h, origin + h * (np.asarray(ext) + 1.0)
    region = RegionSpec.box(lo - 0.3, hi + 0.3) if draw(st.booleans()) else None
    return grid_field(values, h, origin), region, \
        PiecewisePower.power_law(draw(st.floats(2.2, 3.8))), 0.0, \
        float(np.linalg.norm(hi - lo)) + 0.5, 2.0, \
        QuadBudget(max_evaluations=100_000, rng_seed=draw(st.integers(0, 2 ** 32 - 1)))


# (path, cases, reference, floor or None, examples); CHANGES.md says why
# each floor is where it is
ROWS = [
    ("lattice", _lattice_cases(), _lattice_reference, 5e-8, 6),
    ("piecewise_1d", _step_cases(), _step_reference, 0.0, 20),
    ("steps", _steps_cases(), _steps_reference, 1.3e-13, 6),
    # both engines' roundoff: 1e-13
    ("smooth_1d", _smooth_cases(), _engine_reference("steps", 1e-13), 1e-9, 30),
    ("indicator", _indicator_cases(), _indicator_reference, 1e-8, 40),
    ("mc", _mc_cases(), _engine_reference("lattice"), None, 24),
]


def _power_case(shape, amp, s, q, a, b):
    return _indicator(shape, amp), None, PiecewisePower.power_law(s), a, b, q, None


# steps: two-vector amplitudes; steps closer than 4 eps; knots closer than
# 2 eps, whose H_d pieces reach t = 0; a knot difference just above 2 eps,
# whose piece [d - 2 eps, d - eps] starts 1e-12 above 0; one just above eps,
# whose piece [d - eps, d] starts 2e-11 above 0, where t^-2.8 H_d ~ t^-0.8.
# lattice: (70, 130) splits both the 64 frequency columns (136 of them) and
# the 64 lag rows (70) unevenly, (5, 9, 70) the columns (1314) in 3D.
# indicator, cases that once failed: the ball's symmetric difference lost
# digits as t -> 0, which the core read (2D and 3D); the box's 64-node
# sphere rule missed features narrower than its node spacing (2D and 3D)
EXAMPLES = {
    "lattice": [_lattice_case(*c) for c in [
        ((3, 4), 1, 0.5), ((4, 3), 2, 0.3), ((5, 5), 1, 0.9), ((2, 3, 2), 1, 0.5),
        ((3, 2, 2), 2, 0.8), ((70, 130), 2, 0.5), ((5, 9, 70), 1, 0.5)]],
    "steps": [
        _steps_case([(0.0, 1.0, (0.6, -0.8)), (1.5, 2.0, (-1.0, 2.0))], 2, 0.05, 0.3),
        _steps_case([(0.0, 1.0, 1.0), (1.03, 1.5, -2.0)], 1, 0.01, 0.5),
        _steps_case([(0.0, 1.0, 1.0), (1.03, 1.5, -2.0)], 1, 0.02, 0.5),
        _steps_case([(0.0, 1.0, 1.0), (1.040000000001, 1.5, -2.0)], 1, 0.02, 0.8),
        _steps_case([(0.0, 1.0, 1.0), (1.02000000002, 1.5, -2.0)], 1, 0.02, 0.9)],
    "indicator": [
        _power_case(RegionSpec.ball([0.0, 0.0], 0.32), 1.54, 2.73, 1.0, 0.0, 0.17),
        _power_case(RegionSpec.ball([0.0, 0.0, 0.0], 1.01), 1.0, 3.69, 2.0, 0.0, 1.25),
        _power_case(RegionSpec.box([-0.665, -0.54], [0.665, 0.54]), 2.49, 2.5, 2.0, 1.37, 3.4),
        _power_case(RegionSpec.box([-0.625, -0.555, -0.885], [0.625, 0.555, 0.885]), 1.59,
                    3.67, 1.0, 1.51, 3.15)]}


def test_every_engine_has_a_row():
    assert [row[0] for row in ROWS] == [path for path, *_ in quadrature._ENGINES]


@pytest.mark.parametrize("path,cases,reference,floor,count", ROWS, ids=[r[0] for r in ROWS])
def test_engine_error_is_calibrated(path, cases, reference, floor, count):
    serves, engine = next((s, e) for p, s, e in quadrature._ENGINES if p == path)
    ratios = []

    def check(case):
        assert serves(*case[:6])
        got = engine(*case, 0)
        ref, ref_err = reference(*case)
        miss = abs(got.value - ref)
        assert miss <= got.error_estimate + ref_err
        if floor is None:
            ratios.append(miss / got.error_estimate)
        else:
            assert got.error_estimate <= max(100.0 * miss, floor * abs(ref))

    test = given(case=cases)(check)
    for case in EXAMPLES.get(path, ()):
        test = example(case=case)(test)
    settings(max_examples=count, deadline=None, derandomize=True, database=None)(test)()
    assert floor is not None or np.mean(ratios) >= 0.01
