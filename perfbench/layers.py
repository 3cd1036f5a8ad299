"""The besovlab layers the traced run wraps, and the per-layer metrics it
derives from their spans.

Labels come from what a caller can see: the input field's ``kind`` and
``dim_in`` (``smooth1``, ``grid2``), and for ``mollify`` the kind of the
field it returns.  README.md maps each metric to the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

import math
import statistics

from spans import Recorder, aggregate

PACKAGE = "besovlab"


def field_label(f) -> str:
    return f"{f.kind}{f.dim_in}"


def _first_field(args, result):
    return field_label(args[0]), None


def _eval_field(args, result):
    points = result.shape[0] if result.ndim == 2 else 1
    return field_label(args[0]), {"points": points}


def _pair_integral(args, result):
    return field_label(args[0]), {"evals": int(result.evaluations_used),
                                  "low_conf": int(bool(result.low_confidence))}


def _mollify(args, result):
    spec = result.payload.get("spec") if result.kind == "grid" else None
    return field_label(result), {"cells": math.prod(spec.extent) if spec else 0}


def _sweep_factory(rec: Recorder):
    """epsilon_sweep wrapper: one span per sweep and one per row.  A row may
    run on a pool thread, so it names the sweep span as its parent."""
    def factory(original):
        def epsilon_sweep(functional, *args, **kwargs):
            with rec.span("limits.epsilon_sweep") as sweep:
                def row(eps):
                    with rec.span("limits.row", parent=sweep.id):
                        return functional(eps)
                result = original(row, *args, **kwargs)
                sweep.counts = {"rows": len(result.rows),
                                "rows_failed": sum(not r.ok for r in result.rows)}
                return result
        return epsilon_sweep
    return factory


def targets(rec: Recorder) -> dict:
    """"module.function" -> wrapper factory, for Recorder.install."""
    def plain(name, describe=None):
        return lambda original: rec.wrap(name, original, describe)
    return {
        "experiments.run": plain("experiments.run"),
        "limits.epsilon_sweep": _sweep_factory(rec),
        "seminorms.spherical_variation": plain("seminorms.spherical_variation"),
        "seminorms.besov_constant_at": plain("seminorms.besov_constant_at"),
        "seminorms.gagliardo_constant_at": plain("seminorms.gagliardo_constant_at"),
        "quadrature.pair_integral": plain("quadrature.pair_integral", _pair_integral),
        "quadrature.shift_integral": plain("quadrature.shift_integral", _first_field),
        "mollifiers.mollify": plain("mollifiers.mollify", _mollify),
        "fields.eval_field": plain("fields.eval_field", _eval_field),
        "kernels.kernel_profile": plain("kernels.kernel_profile"),
        "jumps.jump_variation": plain("jumps.jump_variation"),
    }


# (span key, statistics) pairs reported as "<key>.<stat>"
_SPAN_METRICS = [
    ("quadrature.pair_integral.piecewise1", ("calls", "s", "self_s")),
    ("quadrature.pair_integral.smooth1", ("calls", "s", "self_s")),
    ("fields.eval_field.piecewise1", ("calls", "points", "s")),
    ("fields.eval_field.smooth1", ("calls", "points", "s")),
    ("quadrature.pair_integral.grid2", ("calls", "s", "self_s", "evals", "low_conf")),
    ("fields.eval_field.grid2", ("calls", "points", "s")),
    ("mollifiers.mollify.smooth1", ("calls", "s", "cells")),
    ("mollifiers.mollify.grid2", ("calls", "s", "cells")),
    ("quadrature.pair_integral.piecewise2", ("calls", "s")),
    ("quadrature.shift_integral.piecewise1", ("calls", "s")),
    ("quadrature.shift_integral.piecewise2", ("calls", "s")),
    ("seminorms.spherical_variation", ("calls", "s")),
    ("seminorms.besov_constant_at", ("calls", "s")),
    ("seminorms.gagliardo_constant_at", ("calls", "s")),
    ("kernels.kernel_profile", ("calls", "s")),
    ("jumps.jump_variation", ("calls", "s")),
]

_UNITS = {"calls": "count", "points": "count", "evals": "count",
          "low_conf": "count", "cells": "count", "s": "s", "self_s": "s"}

# metrics computed from whole-run spans, the sample and the run of samples
_OTHER_METRICS = [
    ("limits.rows", "count"), ("limits.rows_failed", "count"),
    ("limits.row_s.p50", "s"), ("limits.row_s.max", "s"),
    ("limits.sweep_s", "s"), ("limits.parallel_eff", "ratio"),
    ("experiments.run.s", "s"), ("experiments.run.self_s", "s"),
    ("experiments.bytes_written", "bytes"), ("trace.overhead_s", "s"),
    ("rel_err_max", "ratio"), ("unc_rel_max", "ratio"),
    ("failed_share", "ratio"),
]

PER_LAYER = [(f"{key}.{stat}", _UNITS[stat])
             for key, stats in _SPAN_METRICS for stat in stats] + _OTHER_METRICS


class TraceError(RuntimeError):
    """A layer the workload must reach recorded nothing, or a span lies
    outside the run's tree."""


def span_metrics(spans, threads: int) -> dict:
    """Per-layer metrics of one traced sample, from its spans."""
    agg = aggregate(spans)
    out = {}
    for key, stats in _SPAN_METRICS:
        row = agg.get(key, {})
        for stat in stats:
            out[f"{key}.{stat}"] = row.get(stat, 0)
    rows = [sp.duration for sp in spans if sp.name == "limits.row"]
    sweeps = [sp for sp in spans if sp.name == "limits.epsilon_sweep"]
    sweep_s = sum(sp.duration for sp in sweeps)
    out["limits.rows"] = sum(sp.counts["rows"] for sp in sweeps)
    out["limits.rows_failed"] = sum(sp.counts["rows_failed"] for sp in sweeps)
    out["limits.row_s.p50"] = statistics.median(rows) if rows else 0.0
    out["limits.row_s.max"] = max(rows, default=0.0)
    out["limits.sweep_s"] = sweep_s
    out["limits.parallel_eff"] = sum(rows) / (threads * sweep_s) if sweep_s else 0.0
    run = agg["experiments.run"]
    out["experiments.run.s"] = run["s"]
    out["experiments.run.self_s"] = run["self_s"]
    return out


def check_tree(spans):
    """Every span but the one ``experiments.run`` span must have a parent.
    A span opened on a thread the recorder does not know about has none:
    its time would count in its layer but in no parent's children, so the
    layers under the run would no longer add up to it."""
    roots = sorted(sp.key for sp in spans if sp.parent is None)
    if roots != ["experiments.run"]:
        raise TraceError(f"expected experiments.run as the only root span, got {roots}")


def check_expected(metrics: dict, expected):
    """Fail loudly when a count the workload must raise stayed at zero."""
    missing = [name for name in expected if not metrics.get(name)]
    if missing:
        raise TraceError("nothing recorded for " + ", ".join(missing))
