import math

import numpy as np
import pytest
from scipy import integrate as sciint

from besovlab.errors import CapabilityError, InputError
from besovlab.fields import Field, RegionSpec, jump_set_of, make_field, truncate
from besovlab.jumps import (dimensional_constants, directional_jump_variation,
                            jump_variation, sphere_moment)

from oracles import sphere_rule


def test_jump_variation_step(step, step3):
    js = jump_set_of(step)
    assert jump_variation(js, 2.0) == pytest.approx(2.0, abs=0)
    js3 = jump_set_of(step3)
    assert jump_variation(js3, 2.0) == pytest.approx(18.0, abs=1e-12)


def test_jump_variation_disk(disk):
    js = jump_set_of(disk)
    assert jump_variation(js, 2.0) == pytest.approx(math.pi, rel=1e-14)


def test_jump_variation_region_clip(step):
    js = jump_set_of(step)
    assert jump_variation(js, 2.0, RegionSpec.interval(-0.5, 0.5)) == 1.0
    assert jump_variation(js, 2.0, RegionSpec.interval(5.0, 6.0)) == 0.0
    # partial clip of a circle is not closed form
    jsd = jump_set_of(make_field("disk_2d"))
    with pytest.raises(CapabilityError):
        jump_variation(jsd, 2.0, RegionSpec.box([0.0, 0.0], [2.0, 2.0]))


def _two_boxes(n):
    """Two disjoint boxes in R^n: the unit cube at the origin with amplitude
    1, and its copy moved by 2 along axis 0 with amplitude 2."""
    lo = np.zeros(n)
    shift = np.eye(n)[0] * 2.0
    pieces = ((RegionSpec.box(lo, lo + 1.0), np.array([1.0])),
              (RegionSpec.box(lo + shift, lo + shift + 1.0), np.array([2.0])))
    return Field(n, 1, "piecewise", {"pieces": pieces}, support_radius=4.0, name="boxes")


@pytest.mark.parametrize("n, geometry", [(2, "segment"), (3, "rect")])
def test_jump_variation_box_patches_clipped_by_a_region(n, geometry):
    js = jump_set_of(_two_boxes(n))
    assert {p.geometry for p in js.patches} == {geometry}
    faces = 2 * n   # of unit measure each; jumps 1 and 2
    assert jump_variation(js, 2.0) == faces * (1.0 + 4.0)
    # a region holding the first box's faces and none of the second's
    lo, hi, shift = np.full(n, -0.5), np.full(n, 1.5), 2.0 * np.eye(n)[0]
    assert jump_variation(js, 2.0, RegionSpec.box(lo, hi)) == faces * 1.0
    second = RegionSpec.box(lo + shift, hi + shift)
    assert jump_variation(js, 2.0, second) == faces * 4.0
    assert jump_variation(js, 2.0, RegionSpec.box(np.full(n, 5.0), np.full(n, 6.0))) == 0.0
    # a region through the middle of the first box cuts faces in part
    with pytest.raises(CapabilityError):
        jump_variation(js, 2.0, RegionSpec.box(-np.ones(n), 0.5 * np.ones(n)))


def test_directional_jump_variation_step(step):
    js = jump_set_of(step)
    assert directional_jump_variation(js, 2.0, [1.0]) == 2.0
    assert directional_jump_variation(js, 2.0, [2.0]) == 4.0


def test_directional_jump_variation_disk(disk):
    js = jump_set_of(disk)
    # int_0^{2pi} |cos| * R dtheta = 4R = 2 for R = 1/2
    assert directional_jump_variation(js, 2.0, [1.0, 0.0]) == pytest.approx(2.0)
    assert directional_jump_variation(js, 2.0, [0.0, 1.0]) == pytest.approx(2.0)
    n = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert directional_jump_variation(js, 2.0, n) == pytest.approx(2.0)


def test_constants_n1():
    t = dimensional_constants(1, (1.0, 2.0))
    assert t.moment1 == 2.0
    assert t.c_n == 2.0
    assert t.hat_c_q[1.0] == 1.0
    assert t.nc_residual is None


def test_constants_n2():
    t = dimensional_constants(2, (0.0, 1.0, 2.0))
    assert t.moment1 == pytest.approx(4.0, abs=1e-12)
    assert t.nc_residual <= 1e-8
    assert t.hat_c_q[0.0] == pytest.approx(1.0, rel=1e-12)
    assert t.moment_q[2.0] == pytest.approx(math.pi, rel=1e-12)


def test_constants_n3():
    t = dimensional_constants(3, (0.0, 1.0, 2.0))
    assert abs(t.moment1 - 2.0 * math.pi) <= 1e-9
    assert t.nc_residual <= 1e-6
    assert t.hat_c_q[0.0] == 1.0
    assert t.moment_q[2.0] == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)


def test_sphere_moment_integer_orders_2d():
    # the Wallis products, exact to rounding
    assert [sphere_moment(2, q) for q in (0, 1.0, 2, 3.0, 4)] == \
        [2.0 * math.pi, 4.0, math.pi, 8.0 / 3.0, 3.0 * math.pi / 4.0]


@pytest.mark.parametrize("n,q", [(2, 1.5), (2, 3.0), (3, 2.5)])
def test_sphere_moment_vs_quadrature(n, q):
    if n == 2:
        val, _ = sciint.quad(lambda t: abs(math.cos(t)) ** q, 0.0, 2.0 * math.pi,
                             limit=400)
    else:
        val, _ = sciint.quad(lambda c: 2.0 * math.pi * abs(c) ** q, -1.0, 1.0,
                             limit=400)
    assert sphere_moment(n, q) == pytest.approx(val, rel=1e-9)


def test_directional_bounded_by_norm_times_jv(step3, disk):
    rng = np.random.default_rng(5)
    for f in (step3, disk):
        js = jump_set_of(f)
        jv = jump_variation(js, 2.0)
        for _ in range(20):
            n = rng.normal(size=f.dim_in)
            djv = directional_jump_variation(js, 2.0, n)
            assert djv <= np.linalg.norm(n) * jv + 1e-12


def test_sphere_integrated_identity_flat(step):
    # integral over directions of the directional jump variation equals
    # moment1 * JV; exact for flat patches.  S^0 is the two directions +-1
    js = jump_set_of(step)
    total = sum(directional_jump_variation(js, 2.0, [d]) for d in (1.0, -1.0))
    assert abs(total - sphere_moment(1, 1.0) * jump_variation(js, 2.0)) <= 1e-8


def _sphere_integral(js, m):
    nodes, weights = sphere_rule(2, m)
    return weights @ np.array([directional_jump_variation(js, 2.0, nd) for nd in nodes])


def test_sphere_integrated_identity_box_segments():
    js = jump_set_of(make_field("box_2d"))
    target = sphere_moment(2, 1.0) * jump_variation(js, 2.0)
    assert abs(_sphere_integral(js, 4096) - target) <= 1e-6 * max(1.0, target)


def test_sphere_integrated_identity_circle(disk):
    js = jump_set_of(disk)
    target = sphere_moment(2, 1.0) * jump_variation(js, 2.0)
    assert abs(_sphere_integral(js, 256) - target) <= 1e-6 * target


def test_truncation_monotone_jump_variation(step3):
    values = []
    for l in (0.5, 1.0, 2.0, 3.0, 4.0):
        js = jump_set_of(truncate(step3, l))
        values.append(jump_variation(js, 2.0))
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
    full = jump_variation(jump_set_of(step3), 2.0)
    assert values[-2] == full and values[-1] == full


def test_unsupported_dimension():
    with pytest.raises(CapabilityError):
        dimensional_constants(4)
    with pytest.raises(InputError):
        sphere_moment(2, -1.0)
