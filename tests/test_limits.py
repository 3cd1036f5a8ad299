import math

import numpy as np
import pytest

from besovlab.errors import FitError, InputError, SweepError
from besovlab.experiments import run
from besovlab.kernels import RadialKernelFamily, log_kernel_moment
from besovlab.limits import (EpsilonGrid, chain_check, epsilon_sweep,
                             extrapolate, verdict)
from besovlab.mollifiers import make_mollifier
from besovlab.seminorms import (FunctionalParams, besov_constant_at,
                                besov_seminorm_q, gagliardo_constant_at,
                                lq_norm_q)
from besovlab.quadrature import sphere_measure


def test_grid_validation():
    with pytest.raises(InputError):
        EpsilonGrid(0.2, 1.5, 8)
    with pytest.raises(InputError):
        EpsilonGrid(0.2, 0.5, 3)
    g = EpsilonGrid(0.2, 0.5, 5)
    vals = g.values()
    assert np.all(np.diff(vals) < 0)


def test_sweep_constant_functional():
    sweep = epsilon_sweep(lambda e: 3.25, EpsilonGrid(0.2, 0.5, 9))
    assert sweep.tail_min == sweep.tail_max == 3.25
    assert sweep.extrapolated.limit == 3.25
    assert sweep.extrapolated.uncertainty <= 1e-12


def test_sweep_flags_failed_rows():
    def flaky(eps):
        if eps < 0.05:
            raise InputError("synthetic failure")
        return eps

    sweep = epsilon_sweep(flaky, EpsilonGrid(0.2, 0.5, 6))
    assert sum(1 for r in sweep.rows if not r.ok) == 3
    assert all("InputError" in r.note for r in sweep.rows if not r.ok)

    def always_bad(eps):
        raise InputError("nope")

    with pytest.raises(SweepError):
        epsilon_sweep(always_bad, EpsilonGrid(0.2, 0.5, 4))


def test_exact_affine_inverse_log_recovery():
    a, b = 1.7, -0.9
    sweep = epsilon_sweep(lambda e: a + b / abs(math.log(e)),
                          EpsilonGrid(0.1, 0.5, 10), model="affine-in-inverse-log")
    assert abs(sweep.extrapolated.limit - a) <= 1e-12


def test_exact_power_recovery_and_constant_agreement():
    a, b = 2.0, 3.0
    sweep = epsilon_sweep(lambda e: a + b * e, EpsilonGrid(0.1, 0.5, 10),
                          model="affine-in-power")
    assert abs(sweep.extrapolated.limit - a) <= 1e-12
    const = epsilon_sweep(lambda e: 5.0, EpsilonGrid(0.1, 0.5, 8))
    for model in ("constant-tail", "affine-in-inverse-log", "affine-in-power"):
        ext = extrapolate(const, model)
        assert ext.limit == pytest.approx(5.0, abs=1e-12)


def test_fit_errors():
    sweep = epsilon_sweep(lambda e: 1.0, EpsilonGrid(0.1, 0.5, 4))
    short = type(sweep)(functional_id="x", rows=sweep.rows[:2], tail_window=2,
                        tail_min=1.0, tail_max=1.0, extrapolated=sweep.extrapolated)
    with pytest.raises(FitError):
        extrapolate(short, "affine-in-power")
    with pytest.raises(InputError):
        extrapolate(sweep, "no-such-model")


def test_step_besov_constant_power_intercept(step):
    # rows at eps in {1e-1 .. 1e-4}: intercept within 1% of 2
    params = FunctionalParams.jump_regime(2.0)
    k = RadialKernelFamily("trivial", 1)
    grid = EpsilonGrid(0.1, 10.0 ** (-3.0 / 9.0), 10)   # 1e-1 .. 1e-4
    sweep = epsilon_sweep(lambda e: besov_constant_at(step, params, k, e), grid,
                          model="affine-in-power")
    assert sweep.extrapolated.limit == pytest.approx(2.0, rel=0.01)


def test_log_moment_rows_decrease_monotonically():
    # the limit is 0; at finite eps the decay is ~1/|ln eps|, so the claim
    # is asserted as strict monotone decay along the whole tail
    grid = EpsilonGrid(math.exp(-2.0), math.exp(-1.5), 10)
    sweep = epsilon_sweep(lambda e: log_kernel_moment(e, 0.5, 1.0, 1), grid,
                          model="constant-tail")
    vals = [r.value for r in sweep.valid_rows()]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert sweep.extrapolated.limit < vals[0]


def test_gagliardo_sweep_monotone_to_four(step, tent):
    params = FunctionalParams.jump_regime(2.0)
    grid = EpsilonGrid(math.exp(-2.0), math.exp(-1.0), 8)
    sweep = epsilon_sweep(lambda e: gagliardo_constant_at(step, tent, params, e),
                          grid, model="affine-in-inverse-log")
    vals = [r.value for r in sweep.valid_rows()]
    # rows approach the limit 4 monotonically (from above for this pair)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 4.0 for v in vals)
    assert sweep.extrapolated.limit == pytest.approx(4.0, rel=0.10)


def test_tail_estimator_stability():
    # rows differing by at most delta => tail stats differ by at most delta
    rng = np.random.default_rng(17)
    delta = 0.01
    base = {round(e, 12): rng.uniform(1.0, 2.0)
            for e in EpsilonGrid(0.2, 0.5, 9).values()}
    bumps = {k: v + rng.uniform(-delta, delta) for k, v in base.items()}
    s1 = epsilon_sweep(lambda e: base[round(e, 12)], EpsilonGrid(0.2, 0.5, 9))
    s2 = epsilon_sweep(lambda e: bumps[round(e, 12)], EpsilonGrid(0.2, 0.5, 9))
    assert abs(s1.tail_min - s2.tail_min) <= delta
    assert abs(s1.tail_max - s2.tail_max) <= delta


def test_chain_check_jump_chain_pass_and_fail():
    # the verdict record of the largest pairwise gap, with float terms
    good = chain_check("jump-chain", {"a": 4.0, "b": 4.0, "c": 4.0}, 0.4)
    assert good["pass"] and good["worst_violation"] == 0.0
    v = chain_check("jump-chain", {"a": 4, "b": 4.0, "c": 4.0, "d": 6.0}, 0.4)
    assert v == {"chain": "jump-chain", "terms": {"a": 4.0, "b": 4.0, "c": 4.0, "d": 6.0},
                 "tolerance": 0.4, "pass": False, "worst_violation": 2.0}
    assert all(type(t) is float for t in v["terms"].values())
    with pytest.raises(InputError):
        chain_check("jump-chain", {"a": 1.0, "b": 1.0}, -0.1)
    with pytest.raises(InputError):
        chain_check("jump-chain", {"a": 1.0}, 0.1)


@pytest.mark.parametrize("seed", range(5))
def test_chain_verdict_invariant(seed):
    # pass <=> worst_violation <= tolerance, zero terms included
    rng = np.random.default_rng(seed)
    terms = {f"t{i}": float(rng.normal(4.0, 0.5)) for i in range(4)}
    tol = float(rng.uniform(0.0, 2.0))
    v = chain_check("kernel-equivalence", terms, tol)
    assert v["pass"] == (v["worst_violation"] <= tol)
    zero = chain_check("jump-chain", {"a": 0.0, "b": 0.0}, 0.0)
    assert zero["pass"] and zero["worst_violation"] == 0.0


def test_verdict_passes_up_to_its_tolerance():
    assert verdict("x", 0.5, 0.5, {})["pass"]
    assert not verdict("x", math.nextafter(0.5, 1.0), 0.5, {})["pass"]


def test_sandwich_run_verdict_is_how_far_mid_escapes(tmp_path):
    # mid is the Gagliardo term, [lower, upper] the variation term +- its error
    report = run({"kind": "sandwich", "tolerance": 0.0}, str(tmp_path))
    (v,) = report.verdicts
    t = v["terms"]
    assert v["chain"] == "sandwich" and not v["pass"]
    assert v["worst_violation"] == max(0.0, t["lower"] - t["mid"], t["mid"] - t["upper"])
    assert v["worst_violation"] > 0.0


def test_eta_continuity_bound(step, tent):
    # replacing eta by a nearby eta' moves the extrapolated mollified-seminorm
    # constant by at most the closed-form continuity bound
    bump_m = make_mollifier("smooth-bump")
    delta = 0.05
    perturbed = make_mollifier("mix", components=[(1.0 - delta, tent),
                                                  (delta, bump_m)])
    diff = make_mollifier("mix", components=[(delta, bump_m), (-delta, tent)])
    params = FunctionalParams.jump_regime(2.0)
    q, rq = 2.0, 1.0
    h = sphere_measure(1)
    unorm = lq_norm_q(step, q)
    bnorm = besov_seminorm_q(step, params).value
    bound = (diff.abs_mass ** q * 2.0 ** q * unorm * h / rq
             + diff.abs_mass ** q * bnorm * h * q / (q - rq)
             + diff.grad_mass ** q * 2.0 ** q * unorm * h / (q - rq))
    grid = EpsilonGrid(math.exp(-2.0), math.exp(-1.0), 8)
    g1 = epsilon_sweep(lambda e: gagliardo_constant_at(step, tent, params, e),
                       grid, model="affine-in-inverse-log")
    g2 = epsilon_sweep(lambda e: gagliardo_constant_at(step, perturbed, params, e),
                       grid, model="affine-in-inverse-log")
    assert abs(g1.extrapolated.limit - g2.extrapolated.limit) <= bound


def test_constant_tail_exact_rows_do_not_overflow():
    # exact rows (error 0) of 8e8 used to overflow the inverse-variance sum
    from besovlab.fields import make_field
    from besovlab.seminorms import directional_variation
    f = make_field("step_1d", amplitude=2e4)
    params = FunctionalParams.jump_regime(2.0)
    sweep = epsilon_sweep(lambda e: directional_variation(f, params, [1.0], e),
                          EpsilonGrid(0.2, 0.5, 6))
    assert all(r.error == 0.0 for r in sweep.rows)
    assert sweep.extrapolated.limit == pytest.approx(8e8, rel=1e-12)
