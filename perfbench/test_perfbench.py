"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import sample  # noqa: E402
from spans import BindingError, Recorder, Span, aggregate, self_times, union_length  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- self-time arithmetic ----------------------------------------------------

def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0
    assert union_length([(3.0, 4.0), (1.0, 2.0)]) == 2.0


def test_self_time_subtracts_union_of_children():
    spans = [Span(1, None, "run", start=0.0, end=10.0),
             Span(2, 1, "a", start=1.0, end=3.0),
             Span(3, 1, "a", start=2.0, end=5.0),   # overlaps its sibling
             Span(4, 1, "b", start=9.0, end=12.0),  # clipped to the parent
             Span(5, 2, "c", start=1.5, end=2.5)]   # grandchild: not subtracted from run
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(3.0)
    assert st[5] == pytest.approx(1.0)
    agg = aggregate(spans)
    assert agg["a"] == {"calls": 2, "s": pytest.approx(5.0), "self_s": pytest.approx(4.0)}


def test_rows_on_pool_threads_nest_under_the_submitting_span():
    rec = Recorder()
    with rec.span("sweep") as sweep:
        def row():
            with rec.span("row", parent=sweep.id):
                with rec.span("inner"):
                    pass
        workers = [threading.Thread(target=row) for _ in range(2)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in workers)
    by_name = {}
    for sp in rec.spans:
        by_name.setdefault(sp.name, []).append(sp)
    rows = by_name["row"]
    assert [r.parent for r in rows] == [sweep.id, sweep.id]
    assert sorted(sp.parent for sp in by_name["inner"]) == sorted(r.id for r in rows)


def test_install_wraps_every_binding_and_uninstall_restores(monkeypatch):
    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1
    home.work = work
    user.work = work
    user.alias = work
    for mod in (types.ModuleType("fakepkg"), home, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    rec = Recorder()
    rec.install("fakepkg", {"home.work": lambda f: rec.wrap("home.work", f)})
    assert home.work is not work and user.work is home.work and user.alias is home.work
    assert user.alias(1) == 2
    assert [sp.key for sp in rec.spans] == ["home.work"]
    rec.uninstall()
    assert home.work is work and user.work is work and user.alias is work

    with pytest.raises(BindingError):
        rec.install("fakepkg", {"home.missing": lambda f: f})


def test_trace_checks_fail_loudly():
    spans = [Span(1, None, "experiments.run", start=0.0, end=2.0),
             Span(2, 1, "limits.epsilon_sweep", start=0.0, end=1.5)]
    layers.check_tree(spans)
    # a span opened on a thread the recorder does not track has no parent
    with pytest.raises(layers.TraceError, match="fields.eval_field"):
        layers.check_tree(spans + [Span(3, None, "fields.eval_field", start=0.5, end=0.6)])
    with pytest.raises(layers.TraceError):
        layers.check_tree(spans[1:])
    with pytest.raises(layers.TraceError):
        layers.check_expected({"fields.eval_field.grid2.calls": 0},
                              ["fields.eval_field.grid2.calls"])


def test_span_on_an_untracked_thread_has_no_parent():
    rec = Recorder()
    def stray():
        with rec.span("fields.eval_field"):
            pass
    with rec.span("experiments.run"):
        worker = threading.Thread(target=stray)
        worker.start()
        worker.join(timeout=10)
    assert [sp.parent for sp in rec.spans if sp.name == "fields.eval_field"] == [None]
    with pytest.raises(layers.TraceError):
        layers.check_tree(rec.spans)


# -- metric names and BENCHMARK.json -------------------------------------------

def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_follow_the_grammar():
    bench = _bench()
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"]]
             + [m["name"] for m in bench["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m


def test_benchmark_json_matches_the_code():
    bench = _bench()
    assert list(bench) == ["command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers.PER_LAYER
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


# -- reporting -------------------------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([3.0, 1.0, 2.0]).startswith("max 3 ")
    assert run.tail_percentile(list(range(20))) == "p50 9 (n=20)"
    assert run.tail_percentile(list(range(11))) == "p9 0 (n=11)"


def _record(trace=False, digests="a", wall=1.0):
    return {"workload": "chain2d", "trace": trace, "setup_s": 0.5, "wall_s": wall,
            "cpu_s": wall, "peak_rss_mb": 100.0, "row_err_rel_max": 0.02,
            "rel_err_max": 0.05, "unc_rel_max": 0.03, "digests": {"x": digests},
            "attempted": 10, "failures": [], "layers": {"limits.rows": 34}}


def test_summary_counts_byte_differences_as_failures():
    args = types.SimpleNamespace(trace=1)
    samples = [_record(True, wall=1.5), _record(wall=1.0), _record(digests="b")]
    summary = run.summarize(args, _record(), samples)
    assert summary["attempted"] == 4 * 10 + 3
    assert len(summary["failures"]) == 1
    assert summary["values"]["failed_share"] == pytest.approx(1 / 43)
    assert summary["per_layer"]["trace.overhead_s"] == pytest.approx(0.5)
    assert summary["counts"] == (2, 1)


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "chain1d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- smoke runs of each workload's code path ------------------------------------

@dataclasses.dataclass(frozen=True)
class _Smoke(Workload):
    """The workload with shorter sweeps and a smaller Monte Carlo budget."""

    def config(self, seed):
        cfg = super().config(seed)
        cfg["eps_grid"] = {"eps0": 0.2, "ratio": 0.5, "count": 4}
        cfg["gagliardo_grid"] = {"eps0": 0.1353, "ratio": 0.3679, "count": 4}
        cfg["budget"] = {"max_evaluations": 40_000, "target_rel_error": 0.02}
        return cfg


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_of_each_workload(name, tmp_path):
    w = WORKLOADS[name]
    smoke = _Smoke(**{f.name: getattr(w, f.name) for f in dataclasses.fields(w)})
    # run_sample raises TraceError when an expected count stays at zero
    record = sample.run_sample(smoke, 11, True, str(tmp_path))
    assert record["attempted"] > 1 and "digests" in record
    assert set(record["layers"]) | {"trace.overhead_s"} \
        == {n for n, _ in layers.PER_LAYER} - set(run.REPORTED)
