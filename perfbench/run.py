#!/usr/bin/env python3
"""besovlab benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload chain1d --seed 11 --seconds 30 --trace 0

Run from the root of a besovlab checkout.  Each sample is one fresh process
(perfbench/sample.py) that imports besovlab from ``src/``, validates the
workload's config and runs ``experiments.run`` once, with the BLAS/OpenMP
thread variables pinned to 1 so the workload's ``threads`` is the only
parallelism.  Samples repeat until ``--seconds`` have passed.  Every sample
is checked: verdicts, sweep rows, each chain term against its acceptance
tolerance, and byte-identical output files across samples and, for
``chain2d_t2``, against a ``chain2d`` run of the same seed.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics (medians over the samples); with ``--trace 1`` untraced
and traced samples alternate and it carries the per-layer metrics.  The
lines before it print every metric with its unit, the sample counts and the
machine.  README.md lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

# name -> unit, for the end-to-end metrics in the JSON line with --trace 0
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "row_err_rel_max": "ratio"}
# printed with the end-to-end metrics but left out of the JSON line: they
# vary with the Monte Carlo seed, or are zero on a correct run
REPORTED = {"rel_err_max": "ratio", "unc_rel_max": "ratio", "failed_share": "ratio"}

# no sample starts after this many seconds, so a run ends within 180 s
HARD_LIMIT_S = 150.0
# a row error estimate below this share of the row value counts as exact
ROW_ERR_FLOOR = 1e-12


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


class TraceFailure(RuntimeError):
    """A sample exited 3: its trace missed a layer or held a stray span."""


def run_child(workload: str, seed: int, trace: bool, workdir: str, index: int,
              timeout: float) -> dict:
    """One sample process; returns its record, or a failed record when the
    process crashed or timed out."""
    out = os.path.join(workdir, f"out{index}")
    result = os.path.join(workdir, f"result{index}.json")
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--out", out,
           "--result", result]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"workload": workload, "trace": trace, "attempted": 1,
                "failures": [f"sample timed out after {timeout:.0f} s"]}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode == 3:
        raise TraceFailure(proc.stderr.strip())
    if proc.returncode != 0:
        return {"workload": workload, "trace": trace, "attempted": 1,
                "failures": [f"sample exited {proc.returncode}: {proc.stderr[-2000:]}"]}
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def tail_percentile(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return f"max {v[-1]:.6g} (n={n}: no percentile has 10 samples beyond it)"
    return f"p{100 * (n - 10) // n} {v[n - 11]:.6g} (n={n})"


def collect(args, workdir: str):
    """Samples of the run, plus the reference sample when there is one."""
    w = WORKLOADS[args.workload]
    start = time.monotonic()
    reference = None
    if w.reference:
        reference = run_child(w.reference, args.seed, False, workdir, 0, HARD_LIMIT_S)
    t0 = time.monotonic()
    samples, last = [], 0.0
    while True:
        kinds = {s["trace"] for s in samples}
        want_trace = bool(args.trace) and len(samples) % 2 == 0
        done = time.monotonic() - t0 >= args.seconds and (
            len(kinds) == 2 if args.trace else bool(samples))
        if done or time.monotonic() - start + last > HARD_LIMIT_S:
            break
        s0 = time.monotonic()
        samples.append(run_child(args.workload, args.seed, want_trace, workdir,
                                 len(samples) + 1,
                                 max(170.0 - (s0 - start), 1.0)))
        last = time.monotonic() - s0
    return reference, samples


def summarize(args, reference, samples):
    ok = [s for s in samples if "digests" in s]
    plain = [s for s in ok if not s["trace"]]
    traced = [s for s in ok if s["trace"]]
    if not plain or (args.trace and not traced):
        return None

    # correctness: every sample's gate plus byte-identity with the reference
    ref = reference if reference is not None else ok[0]
    attempted = sum(s["attempted"] for s in samples)
    failures = [f for s in samples for f in s["failures"]]
    if reference is not None:
        attempted += reference["attempted"]
        failures += [f"reference: {f}" for f in reference["failures"]]
    against = f"the {reference['workload']} run" if reference else "sample 0"
    for i, s in enumerate(ok):
        attempted += 1
        if s["digests"] != ref.get("digests"):
            failures.append(f"sample {i}: output files differ from {against}")

    per_sample = {name: [s[name] for s in plain] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    per_sample["setup_s"] = [s["setup_s"] for s in ok]
    values = {name: statistics.median(v) for name, v in per_sample.items()}
    values["row_err_rel_max"] = max(statistics.median(s["row_err_rel_max"] for s in ok),
                                    ROW_ERR_FLOOR)
    values["rel_err_max"] = statistics.median(s["rel_err_max"] for s in ok)
    values["unc_rel_max"] = statistics.median(s["unc_rel_max"] for s in ok)
    values["failed_share"] = len(failures) / attempted

    per_layer = {}
    if traced:
        for name in traced[0]["layers"]:
            per_layer[name] = statistics.median(s["layers"][name] for s in traced)
        per_layer["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                                         - statistics.median(s["wall_s"] for s in plain))
        for name in REPORTED:
            per_layer[name] = values[name]

    return {"values": values, "per_sample": per_sample, "per_layer": per_layer,
            "attempted": attempted, "failures": failures,
            "counts": (len(plain), len(traced))}


def report(args, summary, samples) -> dict:
    w = WORKLOADS[args.workload]
    m = machine()
    versions = next(s["versions"] for s in samples if "versions" in s)
    print(f"besovlab benchmark: workload={w.name} seed={args.seed} threads={w.threads} "
          f"trace={args.trace} seconds={args.seconds}")
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={versions['python']} "
          f"numpy={versions['numpy']} scipy={versions['scipy']} "
          f"{'/'.join(THREAD_VARS)}=1")
    n_plain, n_traced = summary["counts"]
    print(f"samples: {n_plain} untraced, {n_traced} traced"
          + (f", plus one {w.reference} reference run" if w.reference else ""))
    units = END_TO_END | REPORTED
    for name, unit in units.items():
        line = f"  {name:<16} median {summary['values'][name]:.6g} {unit}"
        if name in summary["per_sample"]:
            line += f"  {tail_percentile(summary['per_sample'][name])}"
        print(line)
    for f in summary["failures"]:
        print(f"FAILED: {f}")
    if args.trace:
        chosen = dict(layers.PER_LAYER)
        values = summary["per_layer"]
        for name, unit in chosen.items():
            print(f"  {name:<48} {values[name]:.6g} {unit}")
    else:
        chosen = END_TO_END
        values = summary["values"]
    return {"correct": not summary["failures"], "attempted": summary["attempted"],
            "failed": len(summary["failures"]),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in chosen.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "besovlab" / "__init__.py").is_file():
        print(f"no besovlab sources under {ROOT / 'src'}; run from a besovlab "
              "checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        reference, samples = collect(args, workdir)
        summary = summarize(args, reference, samples)
        if summary is None:
            for s in samples:
                for f in s["failures"]:
                    print(f"FAILED: {f}", file=sys.stderr)
            print("no sample completed; no metrics to report", file=sys.stderr)
            return 1
        result = report(args, summary, samples)
    except TraceFailure as exc:
        print(exc, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
