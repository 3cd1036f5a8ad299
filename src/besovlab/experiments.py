"""Experiment configuration, orchestration and reporting.

An experiment is described by one JSON config (printable via the
`print-defaults` CLI subcommand), runs a set of epsilon sweeps, converts
relative tolerances into absolute ones through the chain's reference scale,
and writes: one CSV per sweep (epsilon,value,error,flag), plot-data CSVs
(x,y,label) and a summary.json with every verdict, each number carrying its
error estimate and provenance.  Outputs are byte-identical for identical
configs (seed included) regardless of the thread count.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import InputError
from .fields import (Field, RegionSpec, jump_set_of, make_field,
                     sup_amplitude, truncate)
from .jumps import dimensional_constants, jump_variation, sphere_moment
from .kernels import NegLogEps, RadialKernelFamily, audit_rows
from .limits import EpsilonGrid, chain_check, epsilon_sweep
from .mollifiers import MollifierSpec, make_mollifier
from .quadrature import QuadBudget, sphere_measure
from .seminorms import (FunctionalParams, besov_constant_at, besov_seminorm_q,
                        brq_double_integral, directional_variation,
                        gagliardo_constant_at, gagliardo_region_integrals,
                        gagliardo_seminorm_q, gagliardo_split_bounds,
                        interpolation_check, lq_norm_q, spherical_variation,
                        variation_inequality_check)

__all__ = ["ExperimentConfig", "default_config", "run", "EXPERIMENT_KINDS"]

EXPERIMENT_KINDS = ("kernel_audit", "constants", "sandwich", "kernel_equivalence",
                    "jump_chain", "interpolation", "truncation_convergence",
                    "bounds_audit")


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    kind: str
    field_spec: dict
    params: dict
    region: Optional[dict] = None
    mollifier: dict = field(default_factory=lambda: {"kind": "tent"})
    kernels: list = field(default_factory=lambda: [{"kind": "trivial"},
                                                   {"kind": "logarithmic", "omega": 0.5}])
    eps_grid: dict = field(default_factory=lambda: {"eps0": 0.2, "ratio": 0.5, "count": 10})
    gagliardo_grid: dict = field(default_factory=lambda: {
        "eps0": math.exp(-2.0), "ratio": math.exp(-1.0), "count": 8})
    budget: dict = field(default_factory=lambda: {
        "max_evaluations": 200_000, "target_rel_error": 1e-3})
    seed: int = 0
    tolerance: float = 0.10
    pair_tolerance: float = 0.05
    sphere_rule: Optional[str] = None
    dims: list = field(default_factory=lambda: [1, 2, 3])
    q_list: list = field(default_factory=lambda: [1.0, 2.0])
    deltas: list = field(default_factory=lambda: [0.1, 0.01])
    alphas: list = field(default_factory=lambda: [1.0])
    truncation_levels: list = field(default_factory=lambda: [0.5, 1.0, 2.0, 3.0, 4.0])
    shifts: list = field(default_factory=lambda: [0.05, 0.5, 4.0])
    split_combos: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """The JSON config form: every field, with field_spec under "field"."""
        d = {fd.name: getattr(self, fd.name) for fd in fields(self)}
        d["field"] = d.pop("field_spec")
        return d

    # -- construction helpers -------------------------------------------------

    def build_field(self) -> Field:
        spec = dict(self.field_spec)
        name = spec.pop("name", None)
        if name is None:
            raise InputError("field.name is required")
        return make_field(name, **spec)

    def build_region(self, f: Field) -> Optional[RegionSpec]:
        if self.region is None:
            return None
        return RegionSpec.from_dict(self.region)

    def build_params(self, region=None) -> FunctionalParams:
        q = float(self.params.get("q", 2.0))
        p = self.params.get("p")
        p = float(p) if p is not None else None
        if self.kind in ("jump_chain", "sandwich", "kernel_equivalence",
                         "truncation_convergence"):
            return FunctionalParams.jump_regime(q, p=p, region=region)
        r = float(self.params.get("r", 0.5))
        return FunctionalParams.make(q, r, p=p, region=region)

    def build_mollifier(self, dim: int) -> MollifierSpec:
        spec = dict(self.mollifier)
        kind = spec.pop("kind")
        return make_mollifier(kind, dim=dim, **spec)

    def build_kernels(self, dim: int) -> list:
        out = []
        for kspec in self.kernels:
            kspec = dict(kspec)
            kind = kspec.pop("kind")
            out.append(RadialKernelFamily(kind, dim, **kspec))
        return out

    def build_budget(self) -> QuadBudget:
        return QuadBudget(max_evaluations=int(self.budget.get("max_evaluations", 200_000)),
                          target_rel_error=float(self.budget.get("target_rel_error", 1e-3)),
                          rng_seed=int(self.seed))

    def build_eps_grid(self, which: str = "eps_grid") -> EpsilonGrid:
        g = self.eps_grid if which == "eps_grid" else self.gagliardo_grid
        return EpsilonGrid(eps0=float(g["eps0"]), ratio=float(g["ratio"]),
                           count=int(g["count"]))


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise InputError(f"{path}: {message}")


def validate_config(d: dict) -> ExperimentConfig:
    """Build a config from a dict, naming the offending field path on error."""
    kind = d.get("kind")
    _require(kind in EXPERIMENT_KINDS, "kind",
             f"must be one of {EXPERIMENT_KINDS}, got {kind!r}")
    base = default_config(kind)
    merged = base.to_dict()
    for key, value in d.items():
        if key not in merged:
            raise InputError(f"{key}: unknown config key")
        merged[key] = value
    params = merged["params"]
    q = params.get("q", 2.0)
    _require(isinstance(q, (int, float)) and q >= 1.0, "params.q", "must be >= 1")
    r = params.get("r")
    if r is not None:
        _require(0.0 < float(r) < 1.0, "params.r", "must lie in (0, 1)")
    p = params.get("p")
    if p is not None:
        _require(float(p) > float(q), "params.p", "must exceed params.q")
    if kind in ("jump_chain", "truncation_convergence") and r is not None:
        _require(abs(float(r) * float(q) - 1.0) < 1e-12, "params.r",
                 "jump-regime experiments need r = 1/q exactly")
    if kind == "interpolation":
        _require(p is not None, "params.p", "interpolation needs p > q")
    grid = merged["eps_grid"]
    _require(0.0 < float(grid["ratio"]) < 1.0, "eps_grid.ratio", "must lie in (0, 1)")
    _require(int(grid["count"]) >= 4, "eps_grid.count", "must be >= 4")
    merged["field_spec"] = merged.pop("field")
    merged.update(seed=int(merged["seed"]), tolerance=float(merged["tolerance"]),
                  pair_tolerance=float(merged["pair_tolerance"]))
    return ExperimentConfig(**merged)


def default_config(kind: str) -> ExperimentConfig:
    if kind not in EXPERIMENT_KINDS:
        raise InputError(f"kind: must be one of {EXPERIMENT_KINDS}, got {kind!r}")
    cfg = ExperimentConfig(kind=kind, field_spec={"name": "step_1d"},
                           params={"q": 2.0, "r": 0.5})
    if kind == "interpolation":
        cfg.params = {"q": 2.0, "r": 0.5, "p": 3.0}
    if kind == "truncation_convergence":
        cfg.field_spec = {"name": "step_1d", "amplitude": 3.0}
    if kind == "bounds_audit":
        cfg.split_combos = [[0.05, 0.0025, 1.0], [0.05, 0.01, 0.5],
                            [0.1, 0.01, 1.0], [0.02, 0.0004, 1.0],
                            [0.05, 0.0025, 2.0]]
    return cfg


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    kind: str
    verdicts: list
    terms: dict
    sweeps: dict
    files: list
    passed: bool

    def to_dict(self) -> dict:
        return {"kind": self.kind, "pass": self.passed,
                "verdicts": self.verdicts, "terms": self.terms,
                "sweeps": self.sweeps,
                "files": sorted(os.path.basename(f) for f in self.files)}


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _write_csv(path: str, header: list, rows: list):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _sweep_files(out_dir: str, sid: str, sweep) -> list:
    rows = [(r.eps, r.value, r.error, "" if r.ok else r.note) for r in sweep.rows]
    p1 = os.path.join(out_dir, f"sweep_{sid}.csv")
    _write_csv(p1, ["epsilon", "value", "error", "flag"], rows)
    p2 = os.path.join(out_dir, f"plot_{sid}.csv")
    _write_csv(p2, ["x", "y", "label"],
               [(r.eps, r.value, sid) for r in sweep.rows if r.ok])
    return [p1, p2]


def _sweep_summary(sweep) -> dict:
    return {"tail_min": sweep.tail_min, "tail_max": sweep.tail_max,
            "tail_window": sweep.tail_window,
            "extrapolated": {"model": sweep.extrapolated.model,
                             "limit": sweep.extrapolated.limit,
                             "uncertainty": sweep.extrapolated.uncertainty},
            "rows_total": len(sweep.rows),
            "rows_failed": sum(1 for r in sweep.rows if not r.ok)}


def _term(value: float, error: float, provenance: str) -> dict:
    return {"value": value, "error": error, "provenance": provenance}


def _audit_verdict(name: str, violation: float, tolerance: float,
                   terms: dict) -> dict:
    return {"chain": name, "terms": terms, "tolerance": tolerance,
            "pass": bool(violation <= tolerance), "worst_violation": violation}


# ---------------------------------------------------------------------------
# Experiment bodies
# ---------------------------------------------------------------------------

def _region_clears_jumps(region: RegionSpec, f: Field, gap: float = 1e-9) -> bool:
    """True when the region boundary stays clear of the jump set (the
    chain-limit precondition); checked for piecewise fields on box regions."""
    if f.kind != "piecewise" or region.kind != "box":
        return True
    from .jumps import _patch_probe_points
    lo = np.asarray(region.lo)
    hi = np.asarray(region.hi)
    for patch in jump_set_of(f).patches:
        pts = _patch_probe_points(patch)
        near_face = np.any((np.abs(pts - lo) < gap) | (np.abs(pts - hi) < gap))
        if near_face:
            return False
    return True


def _chain_sweeps(cfg: ExperimentConfig, out_dir: str, threads: int):
    f = cfg.build_field()
    region = cfg.build_region(f)
    if region is not None and not _region_clears_jumps(region, f):
        raise InputError("region: boundary touches the jump set; chain limits "
                         "need H^(N-1)(boundary of E cap J_u) = 0")
    params = cfg.build_params(region)
    m = cfg.build_mollifier(f.dim_in)
    kernels = cfg.build_kernels(f.dim_in)
    budget = cfg.build_budget()
    eta_factor = abs(m.total) ** params.q
    h_meas = sphere_measure(f.dim_in)

    files, sweeps, terms = [], {}, {}

    var_sweep = epsilon_sweep(
        lambda e: spherical_variation(f, params, e, rule=cfg.sphere_rule, budget=budget),
        cfg.build_eps_grid(), model="affine-in-power", power_s=1.0,
        threads=threads, functional_id="spherical_variation")
    sweeps["spherical_variation"] = var_sweep
    files += _sweep_files(out_dir, "spherical_variation", var_sweep)
    terms["variation"] = _term(eta_factor * var_sweep.extrapolated.limit,
                               eta_factor * var_sweep.extrapolated.uncertainty,
                               f"|int eta|^q x {var_sweep.functional_id} extrapolation")

    for k in kernels:
        sid = f"besov_constant_{k.kind}" + (f"_w{k.omega:g}" if k.kind == "logarithmic" else "")
        sw = epsilon_sweep(lambda e, _k=k: besov_constant_at(f, params, _k, e, budget=budget),
                           cfg.build_eps_grid(), model="affine-in-power", power_s=1.0,
                           threads=threads, functional_id=sid)
        sweeps[sid] = sw
        files += _sweep_files(out_dir, sid, sw)
        terms[sid] = _term(eta_factor * h_meas * sw.extrapolated.limit,
                           eta_factor * h_meas * sw.extrapolated.uncertainty,
                           f"|int eta|^q H(S^(N-1)) x {sid} extrapolation")

    gag_sweep = epsilon_sweep(
        lambda e: gagliardo_constant_at(f, m, params, e, budget=budget),
        cfg.build_eps_grid("gagliardo_grid"), model="affine-in-inverse-log",
        threads=threads, functional_id="gagliardo_constant")
    sweeps["gagliardo_constant"] = gag_sweep
    files += _sweep_files(out_dir, "gagliardo_constant", gag_sweep)
    terms["gagliardo"] = _term(gag_sweep.extrapolated.limit,
                               gag_sweep.extrapolated.uncertainty,
                               "gagliardo_constant extrapolation")
    return f, region, params, m, eta_factor, files, sweeps, terms


def _run_chain(cfg: ExperimentConfig, out_dir: str, threads: int) -> ExperimentReport:
    f, region, params, m, eta_factor, files, sweeps, terms = \
        _chain_sweeps(cfg, out_dir, threads)
    verdicts = []
    if cfg.kind == "sandwich":
        limit = terms["variation"]["value"]
        unc = terms["variation"]["error"]
        lower, upper = limit - unc, limit + unc
        mid = terms["gagliardo"]["value"]
        scale = max(abs(upper), abs(mid), 1e-2)
        verdict = chain_check("sandwich", {"lower": lower, "mid": mid, "upper": upper},
                              cfg.tolerance * scale)
        verdicts.append(verdict.to_dict())
    else:
        chain_terms = {name: t["value"] for name, t in terms.items()
                       if name != "variation"} | {"variation": terms["variation"]["value"]}
        if cfg.kind == "jump_chain":
            js = jump_set_of(f)
            jv = jump_variation(js, params.q, region)
            jump_term = eta_factor * sphere_moment(f.dim_in, 1.0) * jv
            terms["jump"] = _term(jump_term, 0.0,
                                  "|int eta|^q moment1 x jump_variation (closed form)")
            chain_terms["jump"] = jump_term
            ref = abs(jump_term)
        else:
            ref = float(np.median([abs(v) for v in chain_terms.values()]))
        scale = max(ref, 1e-2)
        kind = "jump-chain" if cfg.kind == "jump_chain" else "kernel-equivalence"
        verdicts.append(chain_check(kind, chain_terms, cfg.tolerance * scale).to_dict())
        kernel_terms = {k: v for k, v in chain_terms.items()
                        if k.startswith("besov_constant")}
        if len(kernel_terms) >= 2:
            verdicts.append(chain_check("kernel-equivalence", kernel_terms,
                                        cfg.pair_tolerance * scale).to_dict())
    passed = all(v["pass"] for v in verdicts)
    return ExperimentReport(cfg.kind, verdicts, terms,
                            {k: _sweep_summary(s) for k, s in sweeps.items()},
                            files, passed)


def _run_constants(cfg: ExperimentConfig, out_dir: str) -> ExperimentReport:
    verdicts, terms, files = [], {}, []
    rows = []
    for n in cfg.dims:
        table = dimensional_constants(n, tuple(cfg.q_list))
        terms[f"N{n}"] = {"value": table.moment1, "error": 0.0,
                          "provenance": f"dimensional_constants(N={n}) closed form",
                          "table": table.to_dict()}
        rows.append((n, table.sphere_measure, table.moment1, table.c_n,
                     table.nc_residual if table.nc_residual is not None else ""))
        if table.nc_residual is not None:
            tol = 1e-8 if n == 2 else 1e-6
            verdicts.append(_audit_verdict(
                f"nc_residual_N{n}", table.nc_residual, tol,
                {"moment1": table.moment1, "residual": table.nc_residual}))
    path = os.path.join(out_dir, "constants.csv")
    _write_csv(path, ["N", "sphere_measure", "moment1", "C_N", "nc_residual"], rows)
    files.append(path)
    passed = all(v["pass"] for v in verdicts)
    return ExperimentReport("constants", verdicts, terms, {}, files, passed)


def _kernel_eps_list(k: RadialKernelFamily, grid: EpsilonGrid):
    if k.kind != "logarithmic":
        return list(grid.values())
    # sweep L = |ln eps| geometrically far enough for the support to pass
    # delta = 0.1 exactly; for small omega this goes beyond float64 eps
    l_end = 1.2 * 10.0 ** (1.0 / k.omega)
    return [NegLogEps(L) for L in np.geomspace(2.0, l_end, grid.count)]


def _run_kernel_audit(cfg: ExperimentConfig, out_dir: str) -> ExperimentReport:
    verdicts, files, terms = [], [], {}
    grid = cfg.build_eps_grid()
    for n in cfg.dims:
        for k in cfg.build_kernels(n):
            label = f"N{n}_{k.kind}" + (f"_w{k.omega:g}" if k.kind == "logarithmic" else "")
            eps_list = _kernel_eps_list(k, grid)
            rows = audit_rows(k, eps_list, deltas=tuple(cfg.deltas),
                              alphas=tuple(cfg.alphas))
            header = list(rows[0].keys())
            path = os.path.join(out_dir, f"kernel_audit_{label}.csv")
            _write_csv(path, header, [[r[h] for h in header] for r in rows])
            files.append(path)
            mass_dev = max(abs(r["mass"] - 1.0) for r in rows)
            verdicts.append(_audit_verdict(f"mass_{label}", mass_dev, 1e-9,
                                           {"worst |mass-1|": mass_dev}))
            tail_end = rows[-1][f"tail_{cfg.deltas[0]:g}"]
            verdicts.append(_audit_verdict(f"tail_{label}", abs(tail_end), 0.0,
                                           {"final tail": tail_end}))
            if k.kind == "logarithmic":
                moms = [r[f"moment_{cfg.alphas[0]:g}"] for r in rows]
                tail = moms[-max(3, math.ceil(len(moms) / 3)):]
                mono = all(a > b for a, b in zip(tail, tail[1:]))
                verdicts.append(_audit_verdict(f"moment_monotone_{label}",
                                               0.0 if mono else 1.0, 0.0,
                                               {"monotone": 1.0 if mono else 0.0}))
    passed = all(v["pass"] for v in verdicts)
    return ExperimentReport("kernel_audit", verdicts, terms, {}, files, passed)


def _run_interpolation(cfg: ExperimentConfig, out_dir: str) -> ExperimentReport:
    f = cfg.build_field()
    q = float(cfg.params["q"])
    p = float(cfg.params["p"])
    lhs, rhs = interpolation_check(f, q, p)
    violation = max(0.0, lhs - rhs)
    verdict = _audit_verdict("interpolation", violation, cfg.tolerance,
                             {"lhs": lhs, "rhs": rhs})
    terms = {"lhs": _term(lhs, 0.0, f"besov_seminorm_q(r=1/{q:g})"),
             "rhs": _term(rhs, 0.0, "||Du||^alpha [u]_p^(p(1-alpha)) closed form")}
    return ExperimentReport("interpolation", [verdict], terms, {}, [],
                            verdict["pass"])


def _run_truncation(cfg: ExperimentConfig, out_dir: str, threads: int) -> ExperimentReport:
    f = cfg.build_field()
    region = cfg.build_region(f)
    params = cfg.build_params(region)
    m = cfg.build_mollifier(f.dim_in)
    kernels = cfg.build_kernels(f.dim_in)
    budget = cfg.build_budget()
    eta_factor = abs(m.total) ** params.q
    h_meas = sphere_measure(f.dim_in)
    sup_amp = sup_amplitude(f)
    levels = list(cfg.truncation_levels) + [None]   # None = untruncated
    eps_var = cfg.build_eps_grid().values()[-1]

    rows = []
    for l in levels:
        g = f if l is None else truncate(f, l)
        jv = jump_variation(jump_set_of(g), params.q, region)
        var = spherical_variation(g, params, float(eps_var), budget=budget).value
        bc = besov_constant_at(g, params, kernels[0], float(eps_var), budget=budget).value
        gag = gagliardo_constant_at(g, m, params, math.exp(-7.0), budget=budget).value
        rows.append(("inf" if l is None else l,
                     eta_factor * sphere_moment(f.dim_in, 1.0) * jv,
                     eta_factor * var, eta_factor * h_meas * bc, gag))
    path = os.path.join(out_dir, "truncation_terms.csv")
    _write_csv(path, ["level", "jump_term", "variation_term",
                      "besov_constant_term", "gagliardo_term"], rows)

    names = ["jump_term", "variation_term", "besov_constant_term", "gagliardo_term"]
    verdicts = []
    worst_mono = 0.0
    worst_eq = 0.0
    for col in range(1, 5):
        series = [r[col] for r in rows]
        for a, b in zip(series[:-1], series[1:]):
            worst_mono = max(worst_mono, a - b)
        final = series[-1]
        for lvl, val in zip(levels[:-1], series[:-1]):
            if lvl is not None and lvl >= sup_amp:
                worst_eq = max(worst_eq, abs(val - final))
    verdicts.append(_audit_verdict("truncation_monotone", worst_mono, 1e-9,
                                   {n: rows[-1][i + 1] for i, n in enumerate(names)}))
    verdicts.append(_audit_verdict("truncation_equality", worst_eq, 1e-9,
                                   {"sup_amplitude": sup_amp}))
    passed = all(v["pass"] for v in verdicts)
    terms = {f"level_{r[0]}": _term(r[1], 0.0, "jump term at this level") for r in rows}
    return ExperimentReport("truncation_convergence", verdicts, terms, {},
                            [path], passed)


def _run_bounds_audit(cfg: ExperimentConfig, out_dir: str, threads: int) -> ExperimentReport:
    f = cfg.build_field()
    region = cfg.build_region(f)
    params = cfg.build_params(region)
    m = cfg.build_mollifier(f.dim_in)
    budget = cfg.build_budget()
    verdicts, terms = [], {}

    combo_rows = []
    for eps, beta, gamma in cfg.split_combos:
        bounds = gagliardo_split_bounds(f, m, params, eps, beta, gamma)
        measured = gagliardo_region_integrals(f, m, params, eps, beta, gamma,
                                              budget=budget)
        for name, bd, (mv, me) in zip(("tail", "annulus", "core"), bounds, measured):
            violation = max(0.0, mv - bd - 3.0 * me)
            verdicts.append(_audit_verdict(
                f"split_{name}_eps{eps:g}_b{beta:g}_g{gamma:g}", violation, 0.0,
                {"measured": mv, "bound": bd, "error": me}))
            combo_rows.append((eps, beta, gamma, name, mv, me, bd))
    path = os.path.join(out_dir, "split_bounds.csv")
    _write_csv(path, ["eps", "beta", "gamma", "regionpiece", "measured",
                      "error", "bound"], combo_rows)

    # uniform bound over the gagliardo sweep rows
    q, rq = params.q, params.rq
    h = sphere_measure(f.dim_in)
    unorm = lq_norm_q(f, q)
    bnorm = besov_seminorm_q(f, params).value
    rhs74 = (m.abs_mass ** q * 2.0 ** q * unorm * h / rq
             + m.abs_mass ** q * bnorm * h * q / (q - rq)
             + m.grad_mass ** q * 2.0 ** q * unorm * h / (q - rq))
    terms["uniform_bound_rhs"] = _term(rhs74, 0.0,
                                       "closed form from mollifier moments and field norms")
    gag = epsilon_sweep(lambda e: gagliardo_constant_at(f, m, params, e, budget=budget),
                        cfg.build_eps_grid("gagliardo_grid"),
                        model="affine-in-inverse-log", threads=threads,
                        functional_id="gagliardo_constant")
    worst = max(max(r.value - rhs74 for r in gag.valid_rows()), 0.0)
    verdicts.append(_audit_verdict("uniform_bound", worst, 0.0,
                                   {"rhs": rhs74,
                                    "max_row": max(r.value for r in gag.valid_rows())}))

    for hshift in cfg.shifts:
        lhs, tv = variation_inequality_check(f, [float(hshift)] + [0.0] * (f.dim_in - 1))
        violation = max(0.0, lhs - tv)
        verdicts.append(_audit_verdict(f"variation_inequality_h{hshift:g}",
                                       violation, 1e-9, {"lhs": lhs, "tv": tv}))
    passed = all(v["pass"] for v in verdicts)
    return ExperimentReport("bounds_audit", verdicts, terms,
                            {"gagliardo_constant": _sweep_summary(gag)},
                            [path], passed)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run(config, out_dir: str, threads: int = 1) -> ExperimentReport:
    """Execute the experiment named by the config; write CSV sweeps, plot
    data and summary.json under out_dir.  Returns the report; the CLI maps
    report.passed to the process exit status."""
    if isinstance(config, dict):
        config = validate_config(config)
    os.makedirs(out_dir, exist_ok=True)
    if config.kind in ("sandwich", "kernel_equivalence", "jump_chain"):
        report = _run_chain(config, out_dir, threads)
    elif config.kind == "constants":
        report = _run_constants(config, out_dir)
    elif config.kind == "kernel_audit":
        report = _run_kernel_audit(config, out_dir)
    elif config.kind == "interpolation":
        report = _run_interpolation(config, out_dir)
    elif config.kind == "truncation_convergence":
        report = _run_truncation(config, out_dir, threads)
    elif config.kind == "bounds_audit":
        report = _run_bounds_audit(config, out_dir, threads)
    else:
        raise InputError(f"kind: unhandled experiment {config.kind!r}")
    summary = {"config": config.to_dict()} | report.to_dict()
    spath = os.path.join(out_dir, "summary.json")
    with open(spath, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")
    report.files.append(spath)
    return report


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")
