"""One sample of a benchmark workload, in a process of its own.

    PYTHONPATH=src python3 perfbench/sample.py --workload chain1d --seed 11 \\
        --trace 0 --out OUT_DIR --result RESULT.json

Times the import of besovlab plus config validation (set-up), then one
``experiments.run``; checks the outputs against the closed forms and writes
one JSON record to RESULT.json.  With ``--trace 1`` the besovlab layers are
wrapped by the span recorder after set-up, and the record carries the
per-layer metrics.  Exits 3 when the trace misses a layer or holds a
span outside the run's tree.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import layers
from spans import BindingError, Recorder
from workloads import WORKLOADS


class Gate:
    """Counts checked items and keeps a line per failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str):
        self.add(1, 0 if ok else 1, what)

    def add(self, attempted: int, failed: int, what: str):
        self.attempted += attempted
        self.failures += [what] * failed


def check_report(workload, report, gate: Gate) -> dict:
    """Verdicts, sweep rows and each chain term against its tolerance;
    returns the accuracy figures of the chain terms."""
    for v in report.verdicts:
        gate.check(bool(v["pass"]), f"verdict {v['chain']} failed")
    for sid, sweep in report.sweeps.items():
        gate.add(sweep["rows_total"], sweep["rows_failed"], f"sweep {sid}: row failed")
    jump = report.terms["jump"]["value"]
    rel_err, unc_rel = {}, {}
    for name, term in report.terms.items():
        if name == "jump":
            continue
        rel_err[name] = abs(term["value"] - jump) / abs(jump)
        unc_rel[name] = term["error"] / abs(jump)
        tol = workload.tolerance(name)
        gate.check(rel_err[name] <= tol,
                   f"term {name}: relative error {rel_err[name]:.4g} > {tol:g}")
    return {"rel_err_max": max(rel_err.values()), "unc_rel_max": max(unc_rel.values())}


def row_err_rel_max(out_dir: str) -> float:
    """Largest reported row error relative to its row value, over every
    sweep CSV; rows flagged as failed are skipped."""
    worst = 0.0
    for name in sorted(os.listdir(out_dir)):
        if not (name.startswith("sweep_") and name.endswith(".csv")):
            continue
        with open(os.path.join(out_dir, name), newline="") as fh:
            for row in csv.DictReader(fh):
                if not row["flag"]:
                    worst = max(worst, float(row["error"]) / abs(float(row["value"])))
    return worst


def file_digests(out_dir: str) -> tuple[dict, int]:
    digests, size = {}, 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        digests[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return digests, size


def run_sample(workload, seed: int, trace: bool, out_dir: str) -> dict:
    t0 = time.perf_counter()
    from besovlab import experiments
    cfg = experiments.validate_config(workload.config(seed))
    setup_s = time.perf_counter() - t0

    rec = Recorder() if trace else None
    if rec is not None:
        rec.install(layers.PACKAGE, layers.targets(rec))
    gate = Gate()
    record = {"workload": workload.name, "seed": seed, "threads": workload.threads,
              "trace": trace, "setup_s": setup_s}
    c0, w0 = time.process_time(), time.perf_counter()
    try:
        report = experiments.run(cfg, out_dir, threads=workload.threads)
    except Exception:  # a run that raises is a failed item, not a crash
        report = None
        gate.check(False, "experiments.run raised:\n" + traceback.format_exc())
    record["wall_s"] = time.perf_counter() - w0
    record["cpu_s"] = time.process_time() - c0
    if rec is not None:
        rec.uninstall()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if report is not None:
        gate.check(True, "experiments.run")
        record.update(check_report(workload, report, gate))
        record["row_err_rel_max"] = row_err_rel_max(out_dir)
        record["digests"], record["bytes_written"] = file_digests(out_dir)
        if rec is not None:
            metrics = layers.span_metrics(rec.spans, workload.threads)
            layers.check_expected(metrics, workload.expected)
            layers.check_tree(rec.spans)
            metrics["experiments.bytes_written"] = record["bytes_written"]
            record["layers"] = metrics
    record["attempted"] = gate.attempted
    record["failures"] = gate.failures
    record["versions"] = {"python": sys.version.split()[0],
                          "numpy": sys.modules["numpy"].__version__,
                          "scipy": sys.modules["scipy"].__version__}
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    try:
        record = run_sample(WORKLOADS[args.workload], args.seed, bool(args.trace),
                            args.out)
    except (BindingError, layers.TraceError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 3
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
