"""The records the q = 2 and indicator engines read: each listed kink or
square-root edge of a shift function F, its sphere sum S or an
autocorrelation A sits where their finite differences change, they are
smooth between those points, and F is its far constant past the support's
diameter."""

import math
from dataclasses import replace

import numpy as np
import pytest

from besovlab.fields import Field, RegionSpec, sphere_measure
from besovlab.mollifiers import make_mollifier, mollify
from besovlab.quadrature import (Autocorrelation, PiecewisePower, _bspline, _indicator,
                                 _step_shifts, pair_integral)
from besovlab.seminorms import lq_norm_q

from oracles import step_sum


def _jump(g, r, h, p):
    """The change across r of g's p-th derivative, each side's from its
    one-sided p-th difference of step h."""
    left = np.diff(g(r - h * np.arange(p + 1)[::-1]), p)[0] / h ** p
    right = np.diff(g(r + h * np.arange(p + 1)), p)[0] / h ** p
    return abs(right - left)


def _random_steps(seed, dim_out):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(-1.0, 1.0, 6))
    return step_sum([(xs[2 * i], xs[2 * i + 1], rng.uniform(-2.0, 2.0, dim_out))
                     for i in range(3)], dim_out)


def _indicator_of(shape):
    f = Field(shape.dim, 1, "piecewise", {"pieces": ((shape, np.array([1.7])),)},
              support_radius=3.0, name="indicator")
    return _indicator(f, None, 10.0)


# (record, the function its points describe, those points, the derivative
# order that jumps there, the step, the dimension)
def _case(name):
    if name.startswith("steps"):
        u = _random_steps(int(name[-1]), int(name[-2]))
        shift = _step_shifts(mollify(u, make_mollifier("tent"), 0.01))
        assert shift.far == pytest.approx(2.0 * lq_norm_q(u, 2.0) / shift.scale ** 2, rel=1e-13)
        return shift, lambda t: shift.unit(t[..., None]), shift.kinks, 1, 1e-6, 1
    if name == "tent":
        acf = make_mollifier("tent").autocorr
        assert np.all(acf.at(np.array([2.0, 2.5, -3.0])) == 0.0)
        return None, acf.at, np.asarray(acf.kinks), 3, 1e-3, 1
    shape = {"ball2": RegionSpec.ball([0.1, -0.2], 0.4),
             "ball3": RegionSpec.ball([0.0, 0.1, 0.2], 0.3),
             "box2": RegionSpec.box([-0.3, -0.2], [0.4, 0.6]),
             "box3": RegionSpec.box([-0.3, -0.2, 0.0], [0.3, 0.4, 0.6])}[name]
    shift = _indicator_of(shape)
    assert shift.far == pytest.approx(2.0 * shape.measure(), rel=1e-14)
    assert (shift.sphere is None) == (shape.kind == "ball")

    def sphere(t):
        # a ball's F is one value on each sphere, so its S is |S^(N-1)| F
        t = np.atleast_1d(t)
        if shift.sphere is None:
            return sphere_measure(shape.dim) * shift.unit(t[:, None] * np.eye(shape.dim)[0])
        return shift.sphere(t, shift.orders[0])
    return shift, sphere, np.sort(shift.roots), 3, 1e-4, shape.dim


@pytest.mark.parametrize("name", ["steps11", "steps12", "steps21", "steps22", "tent",
                                  "ball2", "ball3", "box2", "box3"])
def test_listed_kinks_and_edges_are_where_the_record_changes(name):
    shift, g, points, p, h, n = _case(name)
    points = np.unique(np.round(points, 12))
    # a sphere sum's last edge is where it turns constant: the far check
    # below covers it
    edges = points if n == 1 else points[:-1]
    ends = np.unique(np.concatenate([[0.0], points]))
    mids = 0.5 * (ends[1:] + ends[:-1])
    at = [_jump(g, r, h, p) for r in edges]
    between = [_jump(g, t, h, p) for t in mids]
    assert min(at, default=math.inf) > 5.0 * max(between), (at, between)
    # between two points: second differences small on a grid of 40 steps,
    # and for F linear (A cubic) its second (fourth) differences roundoff,
    # so no kink is missing from the list
    for lo, hi in zip(ends[:-1], ends[1:]):
        grid = np.linspace(lo, hi, 43)[1:-1]
        assert np.max(np.abs(np.diff(g(grid), 2))) <= 1e3 * (grid[1] - grid[0]) ** 2
        if n == 1:
            assert np.max(np.abs(np.diff(g(grid), p + 1))) <= 1e-13
    if shift is None:
        return
    # F, and so S, is constant past the support's diameter, and not below it
    diameter = points[-1]
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((20, n))
    past = diameter * rng.uniform(1.0, 2.0, (20, 1)) * dirs / np.linalg.norm(dirs, axis=1,
                                                                               keepdims=True)
    assert np.allclose(shift.unit(past), shift.far, rtol=1e-14, atol=0.0)
    if n > 1:
        s = g(diameter * np.array([1.0 - h, 1.0, 1.5]))
        assert s[0] < s[1] == pytest.approx(sphere_measure(n) * shift.far, rel=1e-13) == s[2]


def test_the_q2_engine_pairs_exact_autocorrelations_only(step, tent):
    # its error terms count no table error, so a table with one goes elsewhere
    u = mollify(step, tent, 0.05)
    inexact = replace(tent, autocorr=replace(tent.autocorr, error=1e-15))
    weight = PiecewisePower.power_law(2.0)
    assert pair_integral(u, None, weight, (0.0, 3.0), 2.0).path == "steps"
    assert pair_integral(mollify(step, inexact, 0.05), None, weight, (0.0, 3.0), 2.0).path \
        == "smooth_1d"
    assert tent.autocorr == Autocorrelation(_bspline, (0.0, 1.0, 2.0))
