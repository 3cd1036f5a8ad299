"""Command-line surface: kernel-check, constants, seminorm, sweep,
experiment and print-defaults subcommands."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BesovLabError
from .experiments import (EXPERIMENT_KINDS, ExperimentConfig, csv_text,
                          default_config, json_text, kernel_audit_table, run,
                          sweep_table, validate_config, write_csv)
from .jumps import dimensional_constants
from .kernels import KERNELS, RadialKernelFamily
from .limits import epsilon_sweep
from .seminorms import (besov_constant_at, besov_seminorm_q,
                        brq_double_integral, directional_variation,
                        gagliardo_constant_at, gagliardo_seminorm_q,
                        spherical_variation)

# name -> functional(setup, config params, eps); the functionals that need
# no eps ignore it
FUNCTIONALS = {
    "gagliardo-seminorm": lambda s, p, eps: gagliardo_seminorm_q(
        s.field, s.params, budget=s.budget),
    "besov-seminorm": lambda s, p, eps: besov_seminorm_q(s.field, s.params,
                                                         budget=s.budget),
    "brq": lambda s, p, eps: brq_double_integral(s.field, s.params, eps, budget=s.budget),
    "directional-variation": lambda s, p, eps: directional_variation(
        s.field, s.params, p.get("direction", [1.0] + [0.0] * (s.field.dim_in - 1)),
        eps, budget=s.budget),
    "spherical-variation": lambda s, p, eps: spherical_variation(
        s.field, s.params, eps, budget=s.budget),
    "besov-constant": lambda s, p, eps: besov_constant_at(
        s.field, s.params, s.kernels[p.get("kernel_index", 0)], eps, budget=s.budget),
    "gagliardo-constant": lambda s, p, eps: gagliardo_constant_at(
        s.field, s.mollifier, s.params, eps, budget=s.budget),
}


def _load_config(args) -> ExperimentConfig:
    """The --config file (default: the jump_chain defaults) with --seed,
    validated as one dict."""
    if args.config is None:
        d = {"kind": "jump_chain"}
    else:
        with open(args.config, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    if args.seed is not None:
        d["seed"] = args.seed
    return validate_config(d)


def _functional(name: str, cfg: ExperimentConfig):
    """The named functional as a function of eps over the config's set-up."""
    s = cfg.setup()
    fn = FUNCTIONALS[name]
    return lambda eps: fn(s, cfg.params, eps)


def _emit_csv(out, name: str, header: list, rows: list):
    """Write the table to out/name and print its path, or print it."""
    if out:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, name)
        write_csv(path, header, rows)
        print(path)
    else:
        sys.stdout.write(csv_text(header, rows))


def _cmd_print_defaults(args) -> int:
    kinds = [args.kind] if args.kind else list(EXPERIMENT_KINDS)
    out = {k: default_config(k).to_dict() for k in kinds}
    print(json.dumps(out if args.kind is None else out[args.kind],
                     sort_keys=True, indent=2))
    return 0


def _cmd_constants(args) -> int:
    dims = args.dim if args.dim else [1, 2, 3]
    q_list = args.q if args.q else [1.0, 2.0]
    tables = [dimensional_constants(n, tuple(q_list)) for n in dims]
    header = f"{'N':>2} {'sphere':>12} {'moment1':>14} {'C_N':>14} {'nc_residual':>12}"
    print(header)
    for t in tables:
        res = f"{t.nc_residual:.3e}" if t.nc_residual is not None else "-"
        print(f"{t.n:>2} {t.sphere_measure:>12.8f} {t.moment1:>14.10f} "
              f"{t.c_n:>14.10f} {res:>12}")
    payload = json_text([t.to_dict() for t in tables], indent=2)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "constants.json"), "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


def _cmd_kernel_check(args) -> int:
    # each family reads only its own parameter
    k = RadialKernelFamily(args.family, args.dim, omega=args.omega, sigma_ratio=args.sigma_ratio)
    _emit_csv(args.out, f"kernel_audit_{k.kind}_N{args.dim}.csv",
              *kernel_audit_table(k, _load_config(args)))
    return 0


def _cmd_seminorm(args) -> int:
    cfg = _load_config(args)
    out = _functional(args.functional, cfg)(args.epsilon)
    record = {"functional": args.functional, "params": cfg.params,
              "epsilon": args.epsilon, "value": out.value,
              "error": out.error_estimate, "provenance": out.provenance}
    print(json_text(record))
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    which = "gagliardo_grid" if args.functional == "gagliardo-constant" else "eps_grid"
    sweep = epsilon_sweep(_functional(args.functional, cfg), cfg.build_eps_grid(which),
                          functional_id=args.functional)
    _emit_csv(args.out, f"sweep_{args.functional}.csv", *sweep_table(sweep))
    return 0


def _cmd_experiment(args) -> int:
    cfg = _load_config(args)
    out_dir = args.out or "out"
    report = run(cfg, out_dir)
    for verdict in report.verdicts:
        status = "PASS" if verdict["pass"] else "FAIL"
        print(f"{status} {verdict['chain']}: worst_violation="
              f"{verdict['worst_violation']:.6g} tolerance={verdict['tolerance']:.6g}")
    print(f"summary: {os.path.join(out_dir, 'summary.json')}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="besovlab",
                                 description="nonlocal-seminorm limit laboratory")
    ap.add_argument("--seed", type=int, default=None, help="override config seed")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("print-defaults", help="print default experiment configs")
    p.add_argument("--kind", choices=EXPERIMENT_KINDS, default=None)
    p.set_defaults(fn=_cmd_print_defaults)

    p = sub.add_parser("constants", help="dimensional constants table")
    p.add_argument("--dim", type=int, action="append", choices=(1, 2, 3))
    p.add_argument("--q", type=float, action="append")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_constants)

    p = sub.add_parser("kernel-check", help="CSV audit of one kernel family")
    p.add_argument("--family", required=True, choices=tuple(KERNELS))
    p.add_argument("--dim", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--omega", type=float, default=0.5)
    p.add_argument("--sigma-ratio", dest="sigma_ratio", type=float, default=0.5)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_kernel_check)

    p = sub.add_parser("seminorm", help="evaluate one functional at one epsilon")
    p.add_argument("--functional", required=True, choices=FUNCTIONALS)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(fn=_cmd_seminorm)

    p = sub.add_parser("sweep", help="epsilon sweep of one functional (CSV)")
    p.add_argument("--functional", required=True, choices=FUNCTIONALS)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_experiment)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BesovLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed the pipe (`besovlab ... | head`): point stdout at
        # the null device, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


if __name__ == "__main__":
    sys.exit(main())
