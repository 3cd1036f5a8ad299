"""Experiment configuration, orchestration and reporting.

An experiment is described by one JSON config (printable via the
`print-defaults` CLI subcommand), runs a set of epsilon sweeps, converts
relative tolerances into absolute ones through the chain's reference scale,
and writes: one CSV per sweep (epsilon,value,error,flag), plot-data CSVs
(x,y,label) and a summary.json with every verdict, each number carrying its
error estimate and provenance.  Outputs are byte-identical for identical
configs (seed included).
"""

from __future__ import annotations

import json
import math
import os
import statistics
import typing
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import InputError, built, built_kind, require, typed
from .fields import (FIELDS, Field, RegionSpec, jump_set_of, sphere_measure, sup_amplitude,
                     truncate)
from .jumps import dimensional_constants, jump_variation, sphere_moment
from .kernels import KERNELS, NegLogEps, RadialKernelFamily, audit_rows
from .limits import EpsilonGrid, chain_check, epsilon_sweep, verdict
from .mollifiers import MOLLIFIERS, MollifierSpec
from .quadrature import QuadBudget
from .seminorms import (FunctionalParams, besov_constant_at, besov_seminorm_q,
                        gagliardo_constant_at, gagliardo_region_integrals,
                        gagliardo_split_bounds, interpolation_check, lq_norm_q,
                        spherical_variation, variation_inequality_check)

__all__ = ["ExperimentConfig", "Setup", "default_config", "validate_config", "run",
           "EXPERIMENT_KINDS", "write_csv", "csv_text", "sweep_table",
           "kernel_audit_table", "json_text"]


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

class Setup(NamedTuple):
    """The objects a limit identity is stated for: one field u, its region
    E, the exponents (r, q), one mollifier eta, the kernel families and the
    quadrature budget."""
    field: Field
    region: Optional[RegionSpec]
    params: FunctionalParams
    mollifier: MollifierSpec
    kernels: list
    budget: QuadBudget


def _by_key(**defaults):
    """A config section whose omitted keys take the kind's defaults; the
    other sections are replaced whole."""
    return field(default_factory=lambda: dict(defaults), metadata={"by_key": True})


# the keys of params: FunctionalParams reads q, r and p, CLI functionals the rest
_PARAMS_KEYS = ("q", "r", "p", "kernel_index", "direction")


@dataclass
class ExperimentConfig:
    kind: str
    field_spec: dict
    params: dict
    region: Optional[dict] = None
    mollifier: dict = field(default_factory=lambda: {"kind": "tent"})
    kernels: list = field(default_factory=lambda: [{"kind": "trivial"},
                                                   {"kind": "logarithmic", "omega": 0.5}])
    eps_grid: dict = _by_key(eps0=0.2, ratio=0.5, count=10)
    gagliardo_grid: dict = _by_key(eps0=math.exp(-2.0), ratio=math.exp(-1.0), count=8)
    budget: dict = _by_key(max_evaluations=200_000, target_rel_error=1e-3)
    seed: int = 0
    tolerance: float = 0.10
    pair_tolerance: float = 0.05
    dims: list[int] = field(default_factory=lambda: [1, 2, 3])
    q_list: list[float] = field(default_factory=lambda: [1.0, 2.0])
    deltas: list[float] = field(default_factory=lambda: [0.1, 0.01])
    alphas: list[float] = field(default_factory=lambda: [1.0])
    truncation_levels: list[float] = field(default_factory=lambda: [0.5, 1.0, 2.0, 3.0, 4.0])
    shifts: list[float] = field(default_factory=lambda: [0.05, 0.5, 4.0])
    split_combos: list[list[float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        """The JSON config form: every field, with field_spec under "field"."""
        d = {fd.name: getattr(self, fd.name) for fd in fields(self)}
        d["field"] = d.pop("field_spec")
        return d

    def setup(self) -> Setup:
        """Build the field, region, exponents, mollifier, kernels and budget;
        an error names its config path.  Kinds whose table row pins r take
        r = 1/q exactly."""
        f = built_kind("field", FIELDS, "name", "field name", self.field_spec)
        region = None if self.region is None else RegionSpec.from_dict(self.region)
        require(region is None or region.dim == f.dim_in, "region",
                f"must have the field's dimension, {f.dim_in}")
        require(region is None or region.bbox() is not None or not _KINDS[self.kind][2],
                "region", "must be bounded: the Gagliardo term integrates over it")
        q, p = self.params.get("q", 2.0), self.params.get("p")
        if _KINDS[self.kind][1]:
            params = built("params", FunctionalParams.jump_regime, {}, q=q, p=p, region=region)
        else:
            params = built("params", FunctionalParams.make, {}, q=q, r=self.params.get("r", 0.5),
                           p=p, region=region)
        m = built_kind("mollifier", MOLLIFIERS, "kind", "mollifier kind", self.mollifier,
                       dim=f.dim_in)
        return Setup(f, region, params, m, self.build_kernels(f.dim_in),
                     built("budget", QuadBudget, self.budget, rng_seed=self.seed))

    def build_kernels(self, dim: int) -> list:
        return [built_kind(f"kernels[{i}]", KERNELS, "kind", "kernel kind", k, dim=dim)
                for i, k in enumerate(self.kernels)]

    def build_eps_grid(self, which: str = "eps_grid") -> EpsilonGrid:
        return built(which, EpsilonGrid, getattr(self, which))


def validate_config(d: dict) -> ExperimentConfig:
    """Build a config from a dict, and every section from the config, naming
    the offending field path on error; a section's keys are those its
    builder reads.  Numbers and number lists take their annotated types."""
    require(isinstance(d, dict), "config", "must be an object")
    kind = d.get("kind")
    merged = default_config(kind).to_dict()
    by_key = {fd.name for fd in fields(ExperimentConfig) if fd.metadata.get("by_key")}
    for key, value in d.items():
        require(key in merged, key, "unknown config key")
        if key in by_key and isinstance(value, dict):
            value = {**merged[key], **value}
        merged[key] = value
    require(isinstance(merged["params"], dict), "params", "must be an object")
    for sub in merged["params"]:
        require(sub in _PARAMS_KEYS, f"params.{sub}",
                f"not a parameter (takes {', '.join(_PARAMS_KEYS)})")
    kernels = merged["kernels"]
    require(isinstance(kernels, list) and len(kernels) > 0, "kernels",
            "must be a non-empty list of kernel specs")
    hints = typing.get_type_hints(ExperimentConfig)
    merged = {key: typed(value, key, hints.get(key)) for key, value in merged.items()}
    for i, c in enumerate(merged["split_combos"]):
        require(len(c) == 3, f"split_combos[{i}]", "must be three numbers")
    merged["field_spec"] = merged.pop("field")
    cfg = ExperimentConfig(**merged)
    # every section is built before anything runs
    cfg.build_eps_grid("eps_grid")
    cfg.build_eps_grid("gagliardo_grid")
    params = cfg.setup().params
    r = cfg.params.get("r")
    if _KINDS[kind][1] and r is not None:
        require(abs(typed(r, "params.r") * params.q - 1.0) < 1e-12, "params.r",
                "jump-regime experiments need r = 1/q exactly")
    if kind == "interpolation":
        require(params.p is not None, "params.p", "interpolation needs p > q")
    idx = cfg.params.get("kernel_index")
    if idx is not None:
        require(type(idx) is int and 0 <= idx < len(kernels),
                "params.kernel_index", "must be an integer index into kernels")
    return cfg


def default_config(kind: str) -> ExperimentConfig:
    require(isinstance(kind, str) and kind in _KINDS, "kind",
            f"must be one of {EXPERIMENT_KINDS}, got {kind!r}")
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

    @property
    def passed(self) -> bool:
        return all(v["pass"] for v in self.verdicts)

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


def csv_text(header: list, rows: list) -> str:
    """The CSV form of a table: floats by repr, one line per row."""
    return "".join(",".join(_fmt(v) for v in line) + "\n" for line in [header, *rows])


def write_csv(path: str, header: list, rows: list):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text(header, rows))


def sweep_table(sweep) -> tuple:
    """(header, rows) of a sweep CSV; a failed row's flag is its note."""
    return (["epsilon", "value", "error", "flag"],
            [(r.eps, r.value, r.error, "" if r.ok else r.note) for r in sweep.rows])


def _sweep_files(out_dir: str, sid: str, sweep) -> list:
    p1 = os.path.join(out_dir, f"sweep_{sid}.csv")
    write_csv(p1, *sweep_table(sweep))
    p2 = os.path.join(out_dir, f"plot_{sid}.csv")
    write_csv(p2, ["x", "y", "label"],
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


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def json_text(obj, indent: Optional[int] = None) -> str:
    """JSON with sorted keys; numpy scalars and arrays become plain values."""
    return json.dumps(obj, sort_keys=True, indent=indent, default=_json_default)


# ---------------------------------------------------------------------------
# Chain terms
# ---------------------------------------------------------------------------

class _ChainTerm(NamedTuple):
    """One chain term: factor times the eps -> 0 limit of the functional."""
    sweep_id: str
    term: str
    functional: Callable
    grid: str          # the config's eps grid the sweep runs on
    model: str         # the sweep's extrapolation model
    factor: float
    factor_label: str  # the factor in the term's provenance

    def sweep(self, cfg: ExperimentConfig):
        return epsilon_sweep(self.functional, cfg.build_eps_grid(self.grid),
                             model=self.model, functional_id=self.sweep_id)


def _chain_terms(s: Setup, f: Field) -> list:
    """The chain terms of field f: the spherical variation, one Besov
    constant per kernel, then the Gagliardo constant."""
    params, budget = s.params, s.budget
    eta = abs(s.mollifier.total) ** params.q
    eta_h = eta * sphere_measure(f.dim_in)
    rows = [_ChainTerm("spherical_variation", "variation",
                       lambda e: spherical_variation(f, params, e, budget=budget),
                       "eps_grid", "affine-in-power", eta, "|int eta|^q x ")]
    for k in s.kernels:
        sid = f"besov_constant_{k.kind}" + (f"_w{k.omega:g}" if k.kind == "logarithmic" else "")
        rows.append(_ChainTerm(
            sid, sid, lambda e, _k=k: besov_constant_at(f, params, _k, e, budget=budget),
            "eps_grid", "affine-in-power", eta_h, "|int eta|^q H(S^(N-1)) x "))
    rows.append(_ChainTerm(
        "gagliardo_constant", "gagliardo",
        lambda e: gagliardo_constant_at(f, s.mollifier, params, e, budget=budget),
        "gagliardo_grid", "affine-in-inverse-log", 1.0, ""))
    return rows


def _jump_term(s: Setup, f: Field) -> float:
    """|int eta|^q moment1 ||D^j u||_q, the closed-form end of the chain."""
    jv = jump_variation(jump_set_of(f), s.params.q, s.region)
    return abs(s.mollifier.total) ** s.params.q * sphere_moment(f.dim_in, 1.0) * jv


# ---------------------------------------------------------------------------
# Experiment bodies
# ---------------------------------------------------------------------------

# closest a jump may come to a face of the region
_FACE_GAP = 1e-9


def _region_clears_jumps(region: RegionSpec, f: Field) -> bool:
    """True when the region boundary stays clear of the jump set (the
    chain-limit precondition); checked for piecewise fields on box regions."""
    if f.kind != "piecewise" or region.kind != "box":
        return True
    from .jumps import _patch_probe_points
    lo = np.asarray(region.lo)
    hi = np.asarray(region.hi)
    for patch in jump_set_of(f).patches:
        pts = _patch_probe_points(patch)
        near_face = np.any((np.abs(pts - lo) < _FACE_GAP) | (np.abs(pts - hi) < _FACE_GAP))
        if near_face:
            return False
    return True


def _run_chain(cfg: ExperimentConfig, out_dir: str) -> ExperimentReport:
    s = cfg.setup()
    f = s.field
    if s.region is not None and not _region_clears_jumps(s.region, f):
        raise InputError("region: boundary touches the jump set; chain limits "
                         "need H^(N-1)(boundary of E cap J_u) = 0")
    files, sweeps, terms = [], {}, {}
    for row in _chain_terms(s, f):
        sw = row.sweep(cfg)
        sweeps[row.sweep_id] = sw
        files += _sweep_files(out_dir, row.sweep_id, sw)
        terms[row.term] = _term(row.factor * sw.extrapolated.limit,
                                row.factor * sw.extrapolated.uncertainty,
                                f"{row.factor_label}{row.sweep_id} extrapolation")
    if cfg.kind == "sandwich":
        limit = terms["variation"]["value"]
        unc = terms["variation"]["error"]
        lower, upper = limit - unc, limit + unc
        mid = terms["gagliardo"]["value"]
        scale = max(abs(upper), abs(mid), 1e-2)
        verdicts = [verdict("sandwich", max(0.0, lower - mid, mid - upper),
                            cfg.tolerance * scale,
                            {"lower": lower, "mid": mid, "upper": upper})]
    else:
        chain_terms = {name: t["value"] for name, t in terms.items()}
        if cfg.kind == "jump_chain":
            jump_term = _jump_term(s, f)
            terms["jump"] = _term(jump_term, 0.0,
                                  "|int eta|^q moment1 x jump_variation (closed form)")
            chain_terms["jump"] = jump_term
            ref = abs(jump_term)
        else:
            # not np.median: its first call in a process imports numpy.ma
            ref = statistics.median(abs(v) for v in chain_terms.values())
        scale = max(ref, 1e-2)
        kind = "jump-chain" if cfg.kind == "jump_chain" else "kernel-equivalence"
        verdicts = [chain_check(kind, chain_terms, cfg.tolerance * scale)]
        kernel_terms = {k: v for k, v in chain_terms.items()
                        if k.startswith("besov_constant")}
        if len(kernel_terms) >= 2:
            verdicts.append(chain_check("kernel-equivalence", kernel_terms,
                                        cfg.pair_tolerance * scale))
    return ExperimentReport(cfg.kind, verdicts, terms,
                            {k: _sweep_summary(sw) for k, sw in sweeps.items()}, files)


def _run_constants(cfg: ExperimentConfig, out_dir: str) -> ExperimentReport:
    verdicts, terms, rows = [], {}, []
    for n in cfg.dims:
        table = dimensional_constants(n, tuple(cfg.q_list))
        terms[f"N{n}"] = {"value": table.moment1, "error": 0.0,
                          "provenance": f"dimensional_constants(N={n}) closed form",
                          "table": table.to_dict()}
        rows.append((n, table.sphere_measure, table.moment1, table.c_n,
                     table.nc_residual if table.nc_residual is not None else ""))
        if table.nc_residual is not None:
            tol = 1e-8 if n == 2 else 1e-6
            verdicts.append(verdict(
                f"nc_residual_N{n}", table.nc_residual, tol,
                {"moment1": table.moment1, "residual": table.nc_residual}))
    path = os.path.join(out_dir, "constants.csv")
    write_csv(path, ["N", "sphere_measure", "moment1", "C_N", "nc_residual"], rows)
    return ExperimentReport("constants", verdicts, terms, {}, [path])


def kernel_audit_table(k: RadialKernelFamily, cfg: ExperimentConfig) -> tuple:
    """(header, rows) of the audit CSV of kernel family k over the config's
    eps grid, deltas and alphas.  A logarithmic family sweeps L = |ln eps|
    geometrically far enough for its support to pass delta = 0.1 exactly;
    for small omega this goes beyond float64 eps."""
    grid = cfg.build_eps_grid()
    if k.kind == "logarithmic":
        eps_list = [NegLogEps(L) for L in np.geomspace(2.0, 1.2 * 10.0 ** (1.0 / k.omega),
                                                       grid.count)]
    else:
        eps_list = list(grid.values())
    rows = audit_rows(k, eps_list, deltas=tuple(cfg.deltas), alphas=tuple(cfg.alphas))
    header = list(rows[0].keys())
    return header, [[r[h] for h in header] for r in rows]


def _run_kernel_audit(cfg: ExperimentConfig, out_dir: str) -> ExperimentReport:
    verdicts, files, terms = [], [], {}
    for n in cfg.dims:
        for k in cfg.build_kernels(n):
            label = f"N{n}_{k.kind}" + (f"_w{k.omega:g}" if k.kind == "logarithmic" else "")
            header, rows = kernel_audit_table(k, cfg)
            path = os.path.join(out_dir, f"kernel_audit_{label}.csv")
            write_csv(path, header, rows)
            files.append(path)
            col = dict(zip(header, zip(*rows)))
            mass_dev = max(abs(m - 1.0) for m in col["mass"])
            verdicts.append(verdict(f"mass_{label}", mass_dev, 1e-9,
                                    {"worst |mass-1|": mass_dev}))
            tail_end = col[f"tail_{cfg.deltas[0]:g}"][-1]
            verdicts.append(verdict(f"tail_{label}", abs(tail_end), 0.0,
                                    {"final tail": tail_end}))
            if k.kind == "logarithmic":
                moms = col[f"moment_{cfg.alphas[0]:g}"]
                tail = moms[-max(3, math.ceil(len(moms) / 3)):]
                mono = all(a > b for a, b in zip(tail, tail[1:]))
                verdicts.append(verdict(f"moment_monotone_{label}",
                                        0.0 if mono else 1.0, 0.0,
                                        {"monotone": 1.0 if mono else 0.0}))
    return ExperimentReport("kernel_audit", verdicts, terms, {}, files)


def _run_interpolation(cfg: ExperimentConfig, out_dir: str) -> ExperimentReport:
    s = cfg.setup()
    q = s.params.q
    lhs, rhs = interpolation_check(s.field, q, s.params.p, budget=s.budget)
    verdicts = [verdict("interpolation", max(0.0, lhs - rhs), cfg.tolerance,
                        {"lhs": lhs, "rhs": rhs})]
    terms = {"lhs": _term(lhs, 0.0, f"besov_seminorm_q(r=1/{q:g})"),
             "rhs": _term(rhs, 0.0, "||Du||^alpha [u]_p^(p(1-alpha)) closed form")}
    return ExperimentReport("interpolation", verdicts, terms, {}, [])


def _run_truncation(cfg: ExperimentConfig, out_dir: str) -> ExperimentReport:
    s = cfg.setup()
    sup_amp = sup_amplitude(s.field)
    levels = list(cfg.truncation_levels) + [None]   # None = untruncated
    # each chain term at one eps: the eps grid's last, and e^-7 for Gagliardo
    at = {"eps_grid": float(cfg.build_eps_grid().values()[-1]),
          "gagliardo_grid": math.exp(-7.0)}

    rows = []
    for l in levels:
        g = s.field if l is None else truncate(s.field, l)
        # the variation, the first kernel's Besov constant, the Gagliardo constant
        chain = _chain_terms(s._replace(kernels=s.kernels[:1]), g)
        rows.append(("inf" if l is None else l, _jump_term(s, g),
                     *(row.factor * row.functional(at[row.grid]).value for row in chain)))
    path = os.path.join(out_dir, "truncation_terms.csv")
    write_csv(path, ["level", "jump_term", "variation_term",
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
    verdicts.append(verdict("truncation_monotone", worst_mono, 1e-9,
                            {n: rows[-1][i + 1] for i, n in enumerate(names)}))
    verdicts.append(verdict("truncation_equality", worst_eq, 1e-9,
                            {"sup_amplitude": sup_amp}))
    terms = {f"level_{r[0]}": _term(r[1], 0.0, "jump term at this level") for r in rows}
    return ExperimentReport("truncation_convergence", verdicts, terms, {}, [path])


def _run_bounds_audit(cfg: ExperimentConfig, out_dir: str) -> ExperimentReport:
    s = cfg.setup()
    f, params, m = s.field, s.params, s.mollifier
    verdicts, terms = [], {}

    combo_rows = []
    for eps, beta, gamma in cfg.split_combos:
        bounds = gagliardo_split_bounds(f, m, params, eps, beta, gamma, budget=s.budget)
        measured = gagliardo_region_integrals(f, m, params, eps, beta, gamma,
                                              budget=s.budget)
        for name, bd, r in zip(("tail", "annulus", "core"), bounds, measured):
            mv, me = r.value, r.error_estimate
            violation = max(0.0, mv - bd - 3.0 * me)
            verdicts.append(verdict(
                f"split_{name}_eps{eps:g}_b{beta:g}_g{gamma:g}", violation, 0.0,
                {"measured": mv, "bound": bd, "error": me}))
            combo_rows.append((eps, beta, gamma, name, mv, me, bd))
    path = os.path.join(out_dir, "split_bounds.csv")
    write_csv(path, ["eps", "beta", "gamma", "regionpiece", "measured",
                     "error", "bound"], combo_rows)

    # uniform bound over the gagliardo sweep rows
    q, rq = params.q, params.rq
    h = sphere_measure(f.dim_in)
    unorm = lq_norm_q(f, q)
    bnorm = besov_seminorm_q(f, params, budget=s.budget).value
    rhs74 = (m.abs_mass ** q * 2.0 ** q * unorm * h / rq
             + m.abs_mass ** q * bnorm * h * q / (q - rq)
             + m.grad_mass ** q * 2.0 ** q * unorm * h / (q - rq))
    terms["uniform_bound_rhs"] = _term(rhs74, 0.0,
                                       "closed form from mollifier moments and field norms")
    gag = _chain_terms(s, f)[-1].sweep(cfg)
    worst = max(max(r.value - rhs74 for r in gag.valid_rows()), 0.0)
    verdicts.append(verdict("uniform_bound", worst, 0.0,
                            {"rhs": rhs74, "max_row": max(r.value for r in gag.valid_rows())}))

    for hshift in cfg.shifts:
        lhs, tv = variation_inequality_check(f, [float(hshift)] + [0.0] * (f.dim_in - 1))
        violation = max(0.0, lhs - tv)
        verdicts.append(verdict(f"variation_inequality_h{hshift:g}",
                                violation, 1e-9, {"lhs": lhs, "tv": tv}))
    return ExperimentReport("bounds_audit", verdicts, terms,
                            {"gagliardo_constant": _sweep_summary(gag)},
                            [path])


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# kind -> (body, r pinned to 1/q (the jump regime), a Gagliardo term over E)
_KINDS = {
    "kernel_audit": (_run_kernel_audit, False, False),
    "constants": (_run_constants, False, False),
    "sandwich": (_run_chain, True, True),
    "kernel_equivalence": (_run_chain, True, True),
    "jump_chain": (_run_chain, True, True),
    "interpolation": (_run_interpolation, False, False),
    "truncation_convergence": (_run_truncation, True, True),
    "bounds_audit": (_run_bounds_audit, False, True),
}
EXPERIMENT_KINDS = tuple(_KINDS)


def run(config, out_dir: str, threads: int = 1) -> ExperimentReport:
    """Execute the experiment named by the config; write CSV sweeps, plot
    data and summary.json under out_dir.  Returns the report; the CLI maps
    report.passed to the process exit status.  Sweep rows run in grid order
    on the calling thread; threads is accepted and ignored."""
    if isinstance(config, dict):
        config = validate_config(config)
    os.makedirs(out_dir, exist_ok=True)
    report = _KINDS[config.kind][0](config, out_dir)
    summary = {"config": config.to_dict()} | report.to_dict()
    spath = os.path.join(out_dir, "summary.json")
    with open(spath, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json_text(summary, indent=2) + "\n")
    report.files.append(spath)
    return report
