import math

import numpy as np
import pytest

from besovlab import quadrature
from besovlab.errors import DivergenceError, InputError
from besovlab.experiments import run
from besovlab.fields import (Field, RegionSpec, default_region, make_field, scale_field,
                             truncate)
from besovlab.kernels import RadialKernelFamily
from besovlab.mollifiers import make_mollifier, mollify
from besovlab.quadrature import QuadBudget, _symdiff_measure, shift_integral, sphere_measure
from besovlab.seminorms import (FunctionalParams, besov_constant_at,
                                besov_seminorm_q, brq_double_integral,
                                directional_variation, gagliardo_constant_at,
                                gagliardo_region_integrals,
                                gagliardo_seminorm_q, gagliardo_split_bounds,
                                default_shift_grid, interpolation_check,
                                lq_norm_q, spherical_variation,
                                variation_inequality_check)

from oracles import sphere_rule

P2 = FunctionalParams.jump_regime(2.0)
CONST = make_field("constant", value=2.5)


def test_params_validation():
    with pytest.raises(InputError):
        FunctionalParams.make(0.5, 0.5)
    with pytest.raises(InputError):
        FunctionalParams.make(2.0, 1.5)
    with pytest.raises(InputError):
        FunctionalParams.make(2.0, 0.5, p=1.5)
    p = FunctionalParams.jump_regime(3.0)
    assert p.rq == 1.0


def test_gagliardo_constant_field_zero():
    v = gagliardo_seminorm_q(CONST, FunctionalParams.make(2.0, 0.5,
                             region=RegionSpec.interval(-1, 1)))
    assert abs(v.value) <= 1e-12


def test_gagliardo_smooth_and_mollified_contraction(bump, tent):
    raw = gagliardo_seminorm_q(bump, P2)
    assert raw.value > 0.0 and math.isfinite(raw.value)
    u_eps = mollify(bump, tent, 0.1)
    mol = gagliardo_seminorm_q(u_eps, P2)
    bound = tent.abs_mass ** 2 * raw.value
    assert mol.value <= bound + 3.0 * (mol.error_estimate + raw.error_estimate) + 1e-6


def test_gagliardo_raw_step_diverges(step):
    with pytest.raises(DivergenceError):
        gagliardo_seminorm_q(step, P2)


def test_besov_seminorm_step(step):
    assert besov_seminorm_q(step, P2).value == pytest.approx(2.0, abs=1e-12)
    v = besov_seminorm_q(CONST, FunctionalParams.make(
        2.0, 0.5, region=RegionSpec.interval(-1, 1)))
    assert v.value == 0.0
    with pytest.raises(InputError):
        besov_seminorm_q(step, P2, h_grid=[])
    with pytest.raises(InputError):
        besov_seminorm_q(step, P2, h_grid=[np.array([0.0])])


def test_besov_seminorm_runs_on_its_budget_and_seed(monkeypatch):
    # the region clips the disk, so every shift takes Monte Carlo: on the
    # whole budget, a stream of its own per shift, and the budget's seed;
    # the chosen shift is drawn once more, on one more stream
    values, rng = quadrature._pair_values, quadrature._stream_rng
    pairs, streams = [], set()

    def count_pairs(f, region, x, shift, q):
        pairs.append(len(x))
        return values(f, region, x, shift, q)

    def note_stream(seed, stream, stratum):
        streams.add(stream)
        return rng(seed, stream, stratum)

    monkeypatch.setattr(quadrature, "_pair_values", count_pairs)
    monkeypatch.setattr(quadrature, "_stream_rng", note_stream)
    params = FunctionalParams.jump_regime(2.0, region=RegionSpec.box([-0.52, -0.52],
                                                                     [0.52, 0.52]))
    grid = [t * np.array([math.cos(a), math.sin(a)]) for t in (0.05, 0.2) for a in (0.0, 1.0)]
    runs = [besov_seminorm_q(make_field("disk_2d"), params, grid,
                             budget=QuadBudget(max_evaluations=3_000, rng_seed=seed))
            for seed in (1, 2)]
    assert runs[0].value != runs[1].value
    assert sum(pairs) == 2 * (len(grid) + 1) * 3_000 and len(streams) == len(grid) + 1
    assert [r.evaluations_used for r in runs] == [(len(grid) + 1) * 3_000] * 2


def test_besov_seminorm_is_not_biased_by_its_choice(disk):
    # at the parent, the largest of 100 noisy shifts sat above the grid's
    # exact 1.9999997 in all 20 seeds, by a mean of 0.55 of its error here;
    # a fresh estimate of the chosen shift reads -0.05
    params = FunctionalParams.jump_regime(2.0, region=RegionSpec.box([-0.52, -0.52],
                                                                     [0.52, 0.52]))
    z = []
    for seed in range(1, 21):
        r = besov_seminorm_q(disk, params, budget=QuadBudget(max_evaluations=5_000,
                                                             rng_seed=seed))
        assert r.path == "mc"
        z.append((r.value - 2.0) / r.error_estimate)
    assert -0.5 <= sum(z) / len(z) <= 0.2


def _confidence(r, budget=QuadBudget()):
    return r.error_estimate > budget.target_rel_error * abs(r.value)


def test_records_name_their_rule_evaluations_and_confidence(step, disk, tent2):
    # exact rules: a 1D step, and a disk that the region never clips
    wide = FunctionalParams.jump_regime(2.0, region=RegionSpec.box([-5.0, -5.0], [5.0, 5.0]))
    for f, params, path in ((step, P2, "piecewise_1d"), (disk, wide, "indicator")):
        h = [0.1] + [0.0] * (f.dim_in - 1)
        for r in (shift_integral(f, params.region, h, 2.0), spherical_variation(f, params, 0.1),
                  besov_seminorm_q(f, params)):
            assert (r.path, r.evaluations_used, r.low_confidence) == (path, 0, False)
    # Monte Carlo on a grid field: every record counts its samples
    u = mollify(disk, tent2, math.exp(-2.0))
    budget = QuadBudget(max_evaluations=5_000, rng_seed=1)
    r = shift_integral(u, None, [0.1, 0.0], 2.0, budget)
    assert (r.path, r.evaluations_used) == ("mc", budget.max_evaluations)
    assert r.low_confidence == _confidence(r, budget)
    v = spherical_variation(u, P2, 0.1, budget)
    assert (v.path, v.evaluations_used) == ("mc", budget.max_evaluations)
    assert v.low_confidence == _confidence(v, budget)
    grid = [[0.05, 0.0], [0.1, 0.0]]
    b = besov_seminorm_q(u, P2, grid, budget)
    # both shifts, and the chosen one once more
    assert (b.path, b.evaluations_used) == ("mc", 3 * budget.max_evaluations)
    assert b.low_confidence == _confidence(b, budget)


@pytest.fixture
def pair_batches(monkeypatch):
    """The size of every Monte Carlo batch that _pair_values evaluates."""
    values, sizes = quadrature._pair_values, []

    def count(f, region, x, shift, q):
        sizes.append(len(x))
        return values(f, region, x, shift, q)
    monkeypatch.setattr(quadrature, "_pair_values", count)
    return sizes


def test_audit_seminorms_run_on_the_budget(disk, tent2, pair_batches):
    # the Besov seminorms behind the split bounds and the interpolation check
    # draw every Monte Carlo batch from the budget passed in
    budget = QuadBudget(max_evaluations=3_000)
    params = FunctionalParams.make(2.0, 0.3, region=RegionSpec.box([-0.52, -0.52],
                                                                   [0.52, 0.52]))
    gagliardo_split_bounds(disk, tent2, params, 0.05, 0.1, 0.5, budget=budget)
    assert pair_batches and set(pair_batches) == {3_000}
    pair_batches.clear()
    interpolation_check(disk, 2.0, 3.0, budget=budget)
    assert pair_batches and set(pair_batches) == {3_000}


def test_interpolation_run_uses_the_config_budget(tmp_path, pair_batches):
    run({"kind": "interpolation", "field": {"name": "disk_2d"},
         "budget": {"max_evaluations": 2_000}}, str(tmp_path))
    assert pair_batches and set(pair_batches) == {2_000}


def test_shift_grid_holds_each_pair_once(step):
    # F(-h) = F(h), so the grid keeps one shift of each pair h, -h
    for f in (step, make_field("disk_2d"), make_field("ball_3d")):
        grid = np.array(default_shift_grid(f))
        assert not any(np.allclose(a, -b) for i, a in enumerate(grid) for b in grid[i:])
    two = make_field("two_steps_1d")
    both = [s * h for h in default_shift_grid(two) for s in (1.0, -1.0)]
    assert besov_seminorm_q(two, P2).value == besov_seminorm_q(two, P2, h_grid=both).value


def test_besov_homogeneity(step):
    doubled = scale_field(step, 2.0)
    assert besov_seminorm_q(doubled, P2).value == \
        pytest.approx(4.0 * besov_seminorm_q(step, P2).value, rel=1e-12)


def test_brq_step_limit(step):
    # limit 2 C_1 = 4; at eps = 0.05 the value is within 3%
    v = brq_double_integral(step, P2, 0.05)
    assert v.value == pytest.approx(4.0, rel=0.03)
    assert brq_double_integral(CONST, FunctionalParams.make(
        2.0, 0.5, region=RegionSpec.interval(-1, 1)), 0.1).value == 0.0


def test_brq_equals_scaled_trivial_besov_constant(step, disk):
    # algebraic identity: brq = L^N(B_1) x besov_constant(trivial kernel)
    from besovlab.fields import unit_ball_volume
    for f in (step, disk):
        n = f.dim_in
        k = RadialKernelFamily("trivial", n)
        eps = 0.07
        a = brq_double_integral(f, P2, eps)
        b = besov_constant_at(f, P2, k, eps)
        assert a.value == pytest.approx(unit_ball_volume(n) * b.value,
                                        rel=1e-9, abs=1e-12)


def test_directional_variation_cases(step):
    assert directional_variation(step, P2, [0.0], 0.01).value == 0.0
    assert directional_variation(step, P2, [1.0], 0.01).value == \
        pytest.approx(2.0, rel=1e-12)
    assert directional_variation(step, P2, [2.0], 0.01).value == \
        pytest.approx(4.0, rel=1e-12)


def test_spherical_variation_step_and_disk(step, disk):
    assert spherical_variation(step, P2, 1e-3).value == pytest.approx(4.0, rel=1e-9)
    v = spherical_variation(disk, P2, 1e-3)
    assert v.value == pytest.approx(4.0 * math.pi, rel=0.05)
    c = spherical_variation(CONST, FunctionalParams.make(
        2.0, 0.5, region=RegionSpec.interval(-1, 1)), 0.1)
    assert c.value == 0.0


def test_besov_constants_step(step):
    ktriv = RadialKernelFamily("trivial", 1)
    klog = RadialKernelFamily("logarithmic", 1, omega=0.5)
    vt = besov_constant_at(step, P2, ktriv, 0.05)
    vl = besov_constant_at(step, P2, klog, math.exp(-4.0))
    assert vt.value == pytest.approx(2.0, rel=1e-6)
    assert vl.value == pytest.approx(2.0, rel=1e-9)
    # kernel independence: the two routes agree within 5%
    assert vt.value == pytest.approx(vl.value, rel=0.05)


def test_besov_constant_sigma_kernel(step):
    ksig = RadialKernelFamily("sigma_approx", 1, sigma_ratio=0.5)
    v = besov_constant_at(step, P2, ksig, 0.05)
    assert v.value == pytest.approx(2.0, rel=1e-9)


def test_besov_constant_bounded_by_seminorm(step, disk):
    # upper-limit bound: kernel-weighted integral <= [u]_B^q
    for f in (step, disk):
        n = f.dim_in
        bnorm = besov_seminorm_q(f, P2).value
        for k in (RadialKernelFamily("trivial", n),
                  RadialKernelFamily("logarithmic", n, omega=0.5),
                  RadialKernelFamily("sigma_approx", n)):
            for eps in (0.1, 0.02):
                v = besov_constant_at(f, P2, k, eps)
                assert v.value <= bnorm + 3.0 * v.error_estimate + 1e-9


def test_gagliardo_constant_validation(step, tent):
    with pytest.raises(InputError):
        gagliardo_constant_at(step, tent, P2, 0.5)   # eps >= 1/e


def test_gagliardo_constant_constant_field(tent):
    params = FunctionalParams.make(2.0, 0.5, region=RegionSpec.interval(-1, 1))
    v = gagliardo_constant_at(CONST, tent, params, 0.05)
    assert abs(v.value) <= 1e-12


def test_vector_field_functionals(vstep):
    # |amp| = 1: totals match the scalar step
    assert besov_seminorm_q(vstep, P2).value == pytest.approx(2.0, abs=1e-12)
    assert directional_variation(vstep, P2, [1.0], 1e-2).value == \
        pytest.approx(2.0, rel=1e-12)
    neg = scale_field(vstep, -1.0)
    assert besov_seminorm_q(neg, P2).value == \
        pytest.approx(besov_seminorm_q(vstep, P2).value, rel=1e-12)


@pytest.mark.parametrize("lam", [-1.0, 2.0])
def test_homogeneity_every_functional(step, lam):
    scaled = scale_field(step, lam)
    factor = abs(lam) ** 2
    pairs = [
        (besov_seminorm_q(step, P2).value, besov_seminorm_q(scaled, P2).value),
        (brq_double_integral(step, P2, 0.05).value,
         brq_double_integral(scaled, P2, 0.05).value),
        (spherical_variation(step, P2, 0.01).value,
         spherical_variation(scaled, P2, 0.01).value),
        (besov_constant_at(step, P2, RadialKernelFamily("trivial", 1), 0.05).value,
         besov_constant_at(scaled, P2, RadialKernelFamily("trivial", 1), 0.05).value),
    ]
    for base, got in pairs:
        assert got == pytest.approx(factor * base, rel=1e-9)


def _two_steps(shift: float = 0.0) -> Field:
    pieces = tuple((RegionSpec.interval(a + shift, b + shift), np.array([amp]))
                   for a, b, amp in ((0.0, 1.0, 1.0), (1.5, 2.25, -2.0)))
    return Field(1, 1, "piecewise", {"pieces": pieces}, support_radius=abs(shift) + 2.25,
                 name="two_steps")


def _within(a, b) -> bool:
    """a and b agree within their reported errors plus rounding."""
    tol = a.error_estimate + b.error_estimate + 1e-14 * max(abs(a.value), abs(b.value))
    return abs(a.value - b.value) <= tol


# dyadic shifts move the knots and the region's edges without rounding
@pytest.mark.parametrize("shift", [0.375, -1.5, 3.25])
def test_gagliardo_constant_translation_invariant(shift, tent):
    for eps in (math.exp(-2.0), math.exp(-4.0)):
        base, moved = (gagliardo_constant_at(
            _two_steps(d), tent,
            FunctionalParams.jump_regime(2.0, region=RegionSpec.interval(d - 1.0, d + 3.5)), eps)
            for d in (0.0, shift))
        assert _within(base, moved)


@pytest.mark.parametrize("lam", [-1.0, 2.0, -0.3, 3.0])
def test_gagliardo_constant_homogeneous(lam, tent):
    params = FunctionalParams.jump_regime(2.0, region=RegionSpec.interval(-1.0, 3.5))
    base = gagliardo_constant_at(_two_steps(), tent, params, math.exp(-3.0))
    scaled = gagliardo_constant_at(scale_field(_two_steps(), lam), tent, params,
                                   math.exp(-3.0))
    factor = abs(lam) ** 2
    assert abs(scaled.value - factor * base.value) <= scaled.error_estimate \
        + factor * base.error_estimate + 1e-14 * abs(scaled.value)


def test_constants_of_truncations_do_not_decrease(step3, tent):
    levels = (0.0, 0.5, 1.0, 2.0, 2.9, 3.0, 4.0)
    for value_at in (lambda u: gagliardo_constant_at(u, tent, P2, math.exp(-3.0)),
                     lambda u: besov_constant_at(u, P2, RadialKernelFamily("trivial", 1),
                                                 0.05)):
        vals = [value_at(truncate(step3, l)) for l in levels]
        assert vals[-1].value > 0.0
        for lo, hi in zip(vals, vals[1:]):
            assert hi.value >= lo.value or _within(lo, hi)


def _add_disjoint(u: Field, v: Field) -> Field:
    pieces = u.payload["pieces"] + v.payload["pieces"]
    rad = max(u.support_radius, v.support_radius)
    return Field(1, 1, "piecewise", {"pieces": pieces}, support_radius=rad,
                 name="sum")


def test_brq_triangle_inequality(step):
    other = make_field("step_1d", a=1.5, b=2.0, amplitude=2.0)
    combined = _add_disjoint(step, other)
    eps = 0.05
    region = RegionSpec.interval(-1.0, 3.0)
    params = FunctionalParams.jump_regime(2.0, region=region)
    fu = brq_double_integral(step, params, eps).value ** 0.5
    fv = brq_double_integral(other, params, eps).value ** 0.5
    fuv = brq_double_integral(combined, params, eps).value ** 0.5
    assert fuv <= fu + fv + 1e-9


def test_sandwich_at_the_limit(step, disk):
    # extrapolated averaged spherical variation sandwiches the extrapolated
    # kernel-weighted integral, and the two coincide for these jump fields
    from besovlab.limits import EpsilonGrid, epsilon_sweep
    grid = EpsilonGrid(0.2, 0.5, 8)
    for f in (step, disk):
        n = f.dim_in
        var = epsilon_sweep(lambda e: spherical_variation(f, P2, e), grid,
                            model="affine-in-power")
        for k in (RadialKernelFamily("trivial", n),
                  RadialKernelFamily("logarithmic", n, omega=0.5),
                  RadialKernelFamily("sigma_approx", n)):
            bc = epsilon_sweep(lambda e, _k=k: besov_constant_at(f, P2, _k, e),
                               grid, model="affine-in-power")
            avg_var = var.extrapolated.limit / sphere_measure(n)
            assert bc.extrapolated.limit <= avg_var + 1e-3
            assert bc.extrapolated.limit == pytest.approx(avg_var, rel=5e-3)


def test_split_bounds_cases(step, tent):
    with pytest.raises(InputError):
        gagliardo_split_bounds(step, tent, P2, 0.05, 1.0, 1.0)
    tail1, _, _ = gagliardo_split_bounds(step, tent, P2, 0.05, 0.01, 1.0)
    tail2, _, _ = gagliardo_split_bounds(step, tent, P2, 0.05, 0.01, 100.0)
    assert tail2 < tail1  # gamma^{-rq} decay
    eps = 0.05
    beta, gamma = eps ** 2.0, 1.0
    bounds = gagliardo_split_bounds(step, tent, P2, eps, beta, gamma)
    measured = gagliardo_region_integrals(step, tent, P2, eps, beta, gamma)
    for bound, r in zip(bounds, measured):
        assert r.value <= bound + 3.0 * r.error_estimate + 1e-9


def test_uniform_bound_eq74(step, tent):
    q, rq = 2.0, 1.0
    h = sphere_measure(1)
    unorm = lq_norm_q(step, q)
    bnorm = besov_seminorm_q(step, P2).value
    rhs = (tent.abs_mass ** q * 2.0 ** q * unorm * h / rq
           + tent.abs_mass ** q * bnorm * h * q / (q - rq)
           + tent.grad_mass ** q * 2.0 ** q * unorm * h / (q - rq))
    for k in (2, 5, 9):
        g = gagliardo_constant_at(step, tent, P2, math.exp(-float(k)))
        assert g.value <= rhs


def test_interpolation_step_saturates(step):
    lhs, rhs = interpolation_check(step, 2.0, 3.0)
    assert abs(lhs - rhs) <= 1e-6
    assert lhs == pytest.approx(2.0, abs=1e-9)
    doubled = scale_field(step, 2.0)
    lhs2, rhs2 = interpolation_check(doubled, 2.0, 3.0)
    assert lhs2 <= rhs2 + 1e-9
    with pytest.raises(InputError):
        interpolation_check(step, 3.0, 2.0)
    czero = make_field("constant", value=1.0)
    l0, r0 = interpolation_check(czero, 2.0, 3.0)
    assert l0 == 0.0 and r0 == 0.0


def test_variation_inequality_cases(step):
    lhs, tv = variation_inequality_check(step, [0.5])
    assert lhs == pytest.approx(2.0, abs=1e-12) and tv == 2.0
    lhs, tv = variation_inequality_check(step, [4.0])
    assert lhs == pytest.approx(0.5, abs=1e-12)
    assert lhs <= tv
    czero = make_field("constant", value=1.0)
    lhs, tv = variation_inequality_check(czero, [0.3])
    assert lhs == 0.0 and tv == 0.0
    with pytest.raises(InputError):
        variation_inequality_check(step, [0.0])


def test_lq_norm_paths(step3, bump, disk):
    assert lq_norm_q(step3, 2.0) == pytest.approx(9.0, abs=1e-12)
    # gaussian: int (A e^{-x^2/2w^2})^2 = A^2 w sqrt(pi)
    w = 0.35
    assert lq_norm_q(bump, 2.0) == pytest.approx(w * math.sqrt(math.pi), rel=1e-9)
    assert lq_norm_q(disk, 2.0) == pytest.approx(math.pi * 0.25, rel=1e-12)


@pytest.mark.parametrize("eps", [1e-4, 0.05])
def test_lq_norm_of_mollified_step_is_exact(step, tent, eps):
    # |u_eps|^2 is a polynomial between the knots; each ramp of width 2 eps
    # holds 23 eps / 30 of it, where the step holds eps
    assert lq_norm_q(mollify(step, tent, eps), 2.0) == pytest.approx(1.0 - 7.0 * eps / 15.0,
                                                                    rel=1e-12)


def test_provenance_recorded(step):
    v = besov_seminorm_q(step, P2)
    assert "besov_seminorm_q" in v.provenance and "shifts" in v.provenance
    d = directional_variation(step, P2, [1.0], 0.05)
    assert "directional_variation" in d.provenance


def test_multi_jump_field_variation():
    # four jumps of sizes 1,1,2,2: directional variation sums |jump|^q
    f = make_field("two_steps_1d")
    from besovlab.fields import jump_set_of
    from besovlab.jumps import directional_jump_variation, jump_variation
    js = jump_set_of(f)
    assert jump_variation(js, 2.0) == pytest.approx(10.0, abs=1e-12)
    v = directional_variation(f, P2, [1.0], 1e-4)
    assert v.value == pytest.approx(10.0, rel=1e-9)
    assert directional_jump_variation(js, 2.0, [1.0]) == pytest.approx(10.0)


def test_box_field_chain_quantities():
    # 2D box: perimeter 4 and unit jumps give moment1*JV = 16
    from besovlab.fields import jump_set_of
    from besovlab.jumps import jump_variation, sphere_moment
    from besovlab.limits import EpsilonGrid, epsilon_sweep
    box = make_field("box_2d")
    js = jump_set_of(box)
    assert jump_variation(js, 2.0) == pytest.approx(4.0, abs=1e-12)
    target = sphere_moment(2, 1.0) * 4.0
    sweep = epsilon_sweep(lambda e: spherical_variation(box, P2, e),
                          EpsilonGrid(0.1, 0.5, 8),
                          model="affine-in-power")
    assert sweep.extrapolated.limit == pytest.approx(target, rel=2e-3)
    bc = besov_constant_at(box, P2, RadialKernelFamily("trivial", 2), 0.01)
    assert bc.value == pytest.approx(target / (2.0 * math.pi), rel=0.01)


def test_ball_3d_chain_quantities():
    from besovlab.fields import jump_set_of
    from besovlab.jumps import (directional_jump_variation, jump_variation,
                                sphere_moment)
    ball = make_field("ball_3d")
    js = jump_set_of(ball)
    assert jump_variation(js, 2.0) == pytest.approx(math.pi, rel=1e-14)
    target = sphere_moment(3, 1.0) * math.pi   # 2 pi^2
    sv = spherical_variation(ball, P2, 1e-3)
    assert sv.value == pytest.approx(target, rel=1e-4)
    bc = besov_constant_at(ball, P2, RadialKernelFamily("trivial", 3), 0.05)
    assert bc.value == pytest.approx(target / (4.0 * math.pi), rel=1e-3)
    dv = directional_variation(ball, P2, [0.0, 0.0, 1.0], 1e-3)
    assert dv.value == pytest.approx(
        directional_jump_variation(js, 2.0, [0.0, 0.0, 1.0]), rel=1e-4)


def test_gagliardo_limit_mollifier_independent(step):
    # the extrapolated mollified-seminorm limit does not depend on which
    # unit-mass mollifier produced it
    from besovlab.limits import EpsilonGrid, epsilon_sweep
    gauss = make_mollifier("truncated-gaussian")
    sweep = epsilon_sweep(
        lambda e: gagliardo_constant_at(step, gauss, P2, e),
        EpsilonGrid(math.exp(-2.0), math.exp(-1.0), 8),
        model="affine-in-inverse-log")
    assert sweep.extrapolated.limit == pytest.approx(4.0, rel=0.02)


def test_vector_step_kernel_constant(vstep):
    from besovlab.fields import jump_set_of
    from besovlab.jumps import jump_variation
    bc = besov_constant_at(vstep, P2, RadialKernelFamily("trivial", 1), 0.05)
    assert bc.value == pytest.approx(2.0, rel=1e-6)
    assert jump_variation(jump_set_of(vstep), 2.0) == pytest.approx(2.0, abs=1e-12)


def test_interpolation_strict_on_multi_jump_field():
    two = make_field("two_steps_1d")
    lhs, rhs = interpolation_check(two, 2.0, 3.0)
    assert lhs == pytest.approx(10.0, rel=1e-9)
    assert lhs < rhs


def _two_boxes(n):
    """Two disjoint unit-amplitude boxes 0.2 apart along the first axis."""
    lo1, hi1 = np.zeros(n), np.array([1.0, 0.6, 0.8][:n])
    lo2, hi2 = np.array([1.2, -0.4, 0.1][:n]), np.array([1.9, 0.5, 0.7][:n])
    boxes = [(lo1, hi1), (lo2, hi2)]
    pieces = tuple((RegionSpec.box(lo, hi), np.ones(1)) for lo, hi in boxes)
    return Field(n, 1, "piecewise", {"pieces": pieces}, support_radius=3.0,
                 name="two_boxes"), boxes


def _two_boxes_variation(boxes, eps, m):
    """eps^-1 int_(S^(N-1)) F(eps n) dn on the m-node sphere rule, with
    F(h) = 2 |U| - 2 sum_(j,k) |B_j cap (B_k - h)| in closed form."""
    nodes, weights = sphere_rule(len(boxes[0][0]), m)
    h = eps * nodes
    overlap = sum(np.prod(np.clip(np.minimum(hi_j, hi_k - h) - np.maximum(lo_j, lo_k - h),
                                  0.0, None), axis=-1)
                  for lo_j, hi_j in boxes for lo_k, hi_k in boxes)
    volume = sum(float(np.prod(hi - lo)) for lo, hi in boxes)
    return float(weights @ (2.0 * volume - 2.0 * overlap)) / eps


@pytest.mark.parametrize("n, m", [(2, 4096), (3, 256)])
@pytest.mark.parametrize("eps", [0.05, 0.3])
def test_joint_spherical_variation_is_calibrated(n, m, eps):
    # two standard errors cover the miss in at least 90% of 200 seeds (about
    # 95% is expected; 20 seeds are too few: seeds 0-19 of the 2D case at
    # eps = 0.3 hold 4 misses), and the error is not inflated: the mean miss
    # is at least 0.1 of it
    f, boxes = _two_boxes(n)
    ref = _two_boxes_variation(boxes, eps, m)
    ratios = []
    for seed in range(200):
        got = spherical_variation(f, P2, eps,
                                  budget=QuadBudget(max_evaluations=20_000, rng_seed=seed))
        ratios.append(abs(got.value - ref) / got.error_estimate)
    assert sum(r <= 1.0 for r in ratios) >= 180
    assert np.mean(ratios) >= 0.1


def test_joint_spherical_variation_draws_its_budget(monkeypatch, tent2):
    # one Monte Carlo over (x, n): a seed fixes the value, and the field is
    # read at exactly max_evaluations pairs, across chunks
    u = mollify(make_field("disk_2d"), tent2, 0.3)
    params = FunctionalParams.jump_regime(2.0, region=RegionSpec.box([-1.5, -1.5], [1.5, 1.5]))
    values = quadrature._pair_values
    pairs = []

    def spy(f, region, x, shift, q):
        pairs.append(len(x))
        return values(f, region, x, shift, q)

    monkeypatch.setattr(quadrature, "_pair_values", spy)
    monkeypatch.setattr(quadrature, "_SHIFT_CHUNK", 2_000)
    runs = [spherical_variation(u, params, 0.05,
                                budget=QuadBudget(max_evaluations=5_000, rng_seed=seed))
            for seed in (3, 3, 4)]
    assert pairs == [2_000, 2_000, 1_000] * 3
    assert runs[0] == runs[1] and runs[0].value != runs[2].value
    assert runs[0].error_estimate > 0.0


@pytest.mark.parametrize("name, m", [("disk_2d", 4096), ("ball_3d", 512)])
@pytest.mark.parametrize("eps", [0.3, 0.05, 0.004])
def test_ball_spherical_variation_matches_a_fine_sphere_rule(name, m, eps):
    # an unclipped ball's variation is |S^(N-1)| times one direction's; the
    # closed-form symmetric difference at every node of a fine rule agrees
    f = make_field(name)
    ball, amp = f.payload["pieces"][0]
    nodes, weights = sphere_rule(f.dim_in, m)
    ref = float(np.linalg.norm(amp)) ** 2 * float(weights @ _symdiff_measure(ball, eps * nodes))
    got = spherical_variation(f, P2, eps)
    assert got.value == pytest.approx(ref * eps ** -P2.rq, rel=1e-10)


@pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
def test_box_spherical_variation_is_its_closed_form(eps):
    # for eps below every side, |A sym-diff (A - eps n)| = 2 (|A| -
    # prod_i (s_i - eps |n_i|)) is a polynomial in eps: the unit square's
    # variation is 16 - 4 eps; a 3D box's is 2 (2 pi sum_(i<j) s_i s_j -
    # (8/3) eps sum_i s_i + eps^2), from int_(S^2) |n_1| = 2 pi,
    # |n_1 n_2| = 8/3 and |n_1 n_2 n_3| = 1
    got = spherical_variation(make_field("box_2d"), P2, eps)
    assert got.value == pytest.approx(16.0 - 4.0 * eps, rel=1e-13, abs=0.0)
    assert got.error_estimate <= 1e-13
    box = RegionSpec.box([0.0, 0.0, 0.0], [1.0, 1.2, 0.7])
    f = Field(3, 1, "piecewise", {"pieces": ((box, np.ones(1)),)}, support_radius=3.0,
              name="box_3d")
    got = spherical_variation(f, P2, eps)
    ref = 2.0 * (2.0 * math.pi * 2.74 - 8.0 / 3.0 * eps * 2.9 + eps * eps)
    assert abs(got.value - ref) <= got.error_estimate <= 1e-13 * ref


@pytest.mark.parametrize("kind", ["gauss", "bump", "signed-test"])
@pytest.mark.parametrize("eps", [0.3, 0.05, 0.004])
def test_1d_spherical_variation_is_twice_one_direction(step, kind, eps):
    # S^0 = {+1, -1} and F(h) = F(-h): the one-direction value agrees with
    # the sum over both directions up to rounding
    u = mollify(step, make_mollifier(kind), 0.1)
    region = default_region(u)
    f_plus = shift_integral(u, region, [eps], 2.0).value
    f_minus = shift_integral(u, region, [-eps], 2.0).value
    got = spherical_variation(u, P2, eps)
    assert got.value == pytest.approx((f_plus + f_minus) * eps ** -P2.rq, rel=1e-14, abs=0)


def test_besov_constant_beyond_float_range_is_a_divergence(step):
    # a kernel density or weight moment past float range must end in the
    # overflow guard (a flagged sweep row), not a bare OverflowError
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
        besov_constant_at(make_field("ball_3d"), P2, RadialKernelFamily("trivial", 3),
                          1e-151)
    with pytest.raises(DivergenceError):
        besov_constant_at(step, FunctionalParams.make(5.0, 0.9),
                          RadialKernelFamily("logarithmic", 1, omega=0.5), 1e-100)


def test_sub_ulp_shift_keeps_the_far_jump(step):
    # 1 - 1e-17 rounds to 1, so the interval [1 - t, 1] where the jump at 1
    # counts vanished and the variation read 1
    v = directional_variation(step, P2, [1.0], 1e-17)
    assert v.value == pytest.approx(2.0, rel=1e-12)


def test_sub_ulp_window_besov_constant(step):
    v = besov_constant_at(step, P2, RadialKernelFamily("trivial", 1), 1e-200)
    assert v.value == pytest.approx(2.0, rel=1e-12)
    assert v.error_estimate == 0.0


def test_sub_ulp_shift_at_every_scale():
    # jumps at 0, 1e-20, 50 and 100 of size 1: F(t) = 4|t| for |t| <= 1e-20,
    # though 100 - 1e-20 rounds to 100 as well
    pieces = ((RegionSpec.interval(0.0, 1e-20), np.array([1.0])),
              (RegionSpec.interval(50.0, 100.0), np.array([1.0])))
    f = Field(1, 1, "piecewise", {"pieces": pieces}, support_radius=100.0)
    for region in (None, RegionSpec.interval(-1.0, 200.0)):
        for t in (1e-30, -5e-21, 1e-20):
            r = shift_integral(f, region, [t], 2.0)
            val, err = r.value, r.error_estimate
            assert val / abs(t) == pytest.approx(4.0, rel=1e-12)
            assert err == 0.0
        # past the gap of 1e-20 the thin piece adds twice its length
        val = shift_integral(f, region, [3e-15], 2.0).value
        assert (val - 2e-20) / 3e-15 == pytest.approx(2.0, rel=1e-9)
    # a region edge at 75 cuts the piece [50, 100]: its jump at 100 drops
    # out, and x + t leaving the region adds none
    cut = RegionSpec.interval(-1.0, 75.0)
    assert shift_integral(f, cut, [1e-30], 2.0).value / 1e-30 == pytest.approx(3.0, rel=1e-12)
