"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line and enforcing its stated tolerance and runtime budget."""

import filecmp
import json
import math
import time

import numpy as np
import pytest

from besovlab.cli import main as cli_main
from besovlab.experiments import run
from besovlab.fields import jump_set_of, make_field
from besovlab.jumps import (dimensional_constants, directional_jump_variation,
                            jump_variation)
from besovlab.kernels import (NegLogEps, RadialKernelFamily, audit_rows,
                              kernel_profile, kernel_window, log_kernel_moment)
from besovlab.limits import EpsilonGrid, epsilon_sweep
from besovlab.mollifiers import make_mollifier
from besovlab.quadrature import sphere_measure
from besovlab.seminorms import (FunctionalParams, directional_variation,
                                gagliardo_constant_at, interpolation_check)

from scipy import integrate as sciint


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}" + (f"  [{detail}]" if detail else ""))


CFG_2D = {
    "kind": "jump_chain",
    "field": {"name": "disk_2d"},
    "params": {"q": 2.0},
    "gagliardo_grid": {"eps0": math.exp(-2.0), "ratio": math.exp(-1.0), "count": 4},
    "budget": {"max_evaluations": 1_500_000, "target_rel_error": 0.02},
    "tolerance": 0.15,
    "seed": 11,
}


def test_criterion_1_kernel_audits():
    t0 = time.monotonic()
    ok = True
    families = [RadialKernelFamily("trivial", n) for n in (1, 2, 3)]
    families += [RadialKernelFamily("logarithmic", n, omega=w)
                 for n in (1, 2, 3) for w in (0.3, 0.5, 0.9)]
    families += [RadialKernelFamily("sigma_approx", n, sigma_ratio=0.5)
                 for n in (1, 2, 3)]
    for k in families:
        if k.kind == "logarithmic":
            l_end = 1.2 * 10.0 ** (1.0 / k.omega)
            eps_list = [NegLogEps(L) for L in np.geomspace(2.0, l_end, 10)]
        else:
            eps_list = list(np.geomspace(0.2, 1e-4, 10))
        rows = audit_rows(k, eps_list, deltas=(0.1,), alphas=(1.0,))
        ok &= max(abs(r["mass"] - 1.0) for r in rows) <= 1e-9
        ok &= rows[-1]["tail_0.1"] == 0.0
        if k.kind == "logarithmic":
            moments = [r["moment_1"] for r in rows]
            ok &= all(a > b for a, b in zip(moments[-4:], moments[-3:]))
    # closed-form moment against independent quadrature
    k = RadialKernelFamily("logarithmic", 2, omega=0.5)
    eps = math.exp(-5.0)
    closed = log_kernel_moment(eps, 0.5, 1.0, 2)
    lo, hi = kernel_window(k, eps)
    val, _ = sciint.quad(lambda r: float(kernel_profile(k, eps)(r)), lo, hi,
                         limit=400)
    quad = eps * sphere_measure(2) * val
    ok &= abs(closed - quad) <= 1e-8
    elapsed = time.monotonic() - t0
    ok &= elapsed <= 10.0
    _report(1, "kernel audits", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_2_constants():
    t0 = time.monotonic()
    t1 = dimensional_constants(1)
    t2 = dimensional_constants(2)
    t3 = dimensional_constants(3)
    ok = t1.moment1 == 2.0
    ok &= t2.moment1 == pytest.approx(4.0, abs=1e-12) and t2.nc_residual <= 1e-8
    ok &= abs(t3.moment1 - 2.0 * math.pi) <= 1e-9 and t3.nc_residual <= 1e-6
    elapsed = time.monotonic() - t0
    ok &= elapsed <= 5.0
    _report(2, "dimensional constants", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_3_jump_chain_1d(tmp_path):
    t0 = time.monotonic()
    report = run({"kind": "jump_chain"}, str(tmp_path), threads=1)
    terms = {k: v["value"] for k, v in report.terms.items()}
    ok = all(abs(v - 4.0) <= 0.10 * 4.0 for v in terms.values())
    bc = [v for k, v in terms.items() if k.startswith("besov_constant")]
    ok &= abs(bc[0] - bc[1]) <= 0.05 * 0.5 * (abs(bc[0]) + abs(bc[1]))
    ok &= report.passed
    elapsed = time.monotonic() - t0
    ok &= elapsed <= 120.0
    _report(3, "1D jump chain", ok,
            f"{elapsed:.1f}s terms=" + ",".join(f"{v:.3f}" for v in terms.values()))
    assert ok


def test_criterion_4_jump_chain_2d(tmp_path):
    t0 = time.monotonic()
    report = run(dict(CFG_2D), str(tmp_path), threads=1)
    target = 4.0 * math.pi
    sv = report.terms["variation"]["value"]
    bc_raw = report.sweeps["besov_constant_trivial"]["extrapolated"]["limit"]
    gag = report.terms["gagliardo"]["value"]
    ok = abs(sv - target) <= 0.05 * target
    ok &= abs(bc_raw - 2.0) <= 0.05 * 2.0
    ok &= abs(gag - target) <= 0.15 * target
    ok &= report.passed
    elapsed = time.monotonic() - t0
    ok &= elapsed <= 600.0
    _report(4, "2D jump chain", ok,
            f"{elapsed:.1f}s sv={sv:.3f} bc={bc_raw:.4f} gag={gag:.3f}")
    assert ok


def test_criterion_5_directional_formula(step, disk):
    t0 = time.monotonic()
    params = FunctionalParams.jump_regime(2.0)
    ok = True
    js1 = jump_set_of(step)
    for n in (0.5, 1.0, 2.0):
        measured = directional_variation(step, params, [n], 1e-3).value
        target = directional_jump_variation(js1, 2.0, [n])
        ok &= abs(measured - target) <= 0.05 * target
    js2 = jump_set_of(disk)
    for n in ([1.0, 0.0], [0.0, 1.0],
              [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)]):
        measured = directional_variation(disk, params, n, 1e-3).value
        target = directional_jump_variation(js2, 2.0, n)
        ok &= abs(measured - target) <= 0.05 * target
    elapsed = time.monotonic() - t0
    _report(5, "directional jump formula", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_6_sandwich(tmp_path):
    t0 = time.monotonic()
    rep_step = run({"kind": "sandwich", "tolerance": 0.10},
                   str(tmp_path / "step"), threads=1)
    rep_bump = run({"kind": "sandwich", "field": {"name": "gaussian_bump_1d"},
                    "tolerance": 0.10}, str(tmp_path / "bump"), threads=1)
    ok = rep_step.passed and rep_bump.passed
    # signed-test mollifier collapses the mollified-seminorm limit
    signed = make_mollifier("signed-test")
    params = FunctionalParams.jump_regime(2.0)
    step = make_field("step_1d")
    sweep = epsilon_sweep(
        lambda e: gagliardo_constant_at(step, signed, params, e),
        EpsilonGrid(math.exp(-2.0), math.exp(-1.0), 8),
        model="affine-in-inverse-log")
    ok &= abs(sweep.extrapolated.limit) < 0.05
    elapsed = time.monotonic() - t0
    _report(6, "sandwich", ok,
            f"{elapsed:.1f}s signed_mid={sweep.extrapolated.limit:.4f}")
    assert ok


def test_criterion_7_bounds_audits(tmp_path, step):
    t0 = time.monotonic()
    report = run({"kind": "bounds_audit"}, str(tmp_path), threads=1)
    ok = report.passed
    split = [v for v in report.verdicts if v["chain"].startswith("split_")]
    ok &= len(split) == 15  # 5 combos x 3 region pieces
    ok &= any(v["chain"] == "uniform_bound" for v in report.verdicts)
    shifts = [v for v in report.verdicts
              if v["chain"].startswith("variation_inequality")]
    ok &= len(shifts) == 3
    lhs, rhs = interpolation_check(step, 2.0, 3.0)
    ok &= abs(lhs - rhs) <= 1e-6
    elapsed = time.monotonic() - t0
    _report(7, "bounds audits", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_8_truncation_convergence(tmp_path):
    t0 = time.monotonic()
    report = run({"kind": "truncation_convergence"}, str(tmp_path), threads=1)
    ok = report.passed
    verdict_names = {v["chain"] for v in report.verdicts}
    ok &= {"truncation_monotone", "truncation_equality"} <= verdict_names
    for v in report.verdicts:
        ok &= v["worst_violation"] <= 1e-9
    elapsed = time.monotonic() - t0
    _report(8, "truncation convergence", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_9_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    ok = True
    # criterion 3 and 4 experiments: identical seeds => byte-identical files;
    # thread count must not matter
    for tag, cfg in (("jc1d", {"kind": "jump_chain", "seed": 5}),
                     ("jc2d", dict(CFG_2D))):
        dirs = []
        for run_tag, threads in (("a", 1), ("b", 1), ("c", 4)):
            out = tmp_path / f"{tag}_{run_tag}"
            run(json.loads(json.dumps(cfg)), str(out), threads=threads)
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        for other in dirs[1:]:
            match, mismatch, errors = filecmp.cmpfiles(dirs[0], other, names,
                                                       shallow=False)
            ok &= not mismatch and not errors
    # criterion 5 functional through the CLI record path, twice
    outs = []
    for _ in range(2):
        cli_main(["--seed", "3", "seminorm", "--functional",
                  "directional-variation", "--epsilon", "0.001"])
        outs.append(capsys.readouterr().out)
    ok &= outs[0] == outs[1]
    elapsed = time.monotonic() - t0
    _report(9, "determinism", ok, f"{elapsed:.1f}s")
    assert ok
