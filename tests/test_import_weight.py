"""Importing besovlab and running a chain's grid path load no scipy
submodule: they cost most of the package's start-up time.  Once its config
is validated, a chain run loads no module but numpy.fft, and a default
experiment none: an import inside the run is paid in every run's wall
time.  Sweep rows run on the calling thread, so neither loads a thread pool
nor starts a thread."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import besovlab
from besovlab.experiments import EXPERIMENT_KINDS

HEAVY = ("integrate", "ndimage", "fft", "special", "optimize", "sparse", "linalg")

SCRIPT = """
import sys
import besovlab
from besovlab import experiments
from besovlab.fields import make_field
from besovlab.mollifiers import make_mollifier, mollify
from besovlab.quadrature import PiecewisePower, pair_integral
experiments.validate_config(experiments.default_config("jump_chain").to_dict())
u = mollify(make_field("disk_2d"), make_mollifier("tent", dim=2), 0.2)
res = pair_integral(u, None, PiecewisePower.power_law(3.0), (0.0, 5.0), 2.0)
assert res.evaluations_used == u.payload["values"].size, res
print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


# a small 2D chain on the grid path, as the source of a script
CHAIN_2D = """experiments.validate_config({
    "kind": "jump_chain", "field": {"name": "disk_2d"}, "params": {"q": 2.0},
    "gagliardo_grid": {"eps0": math.exp(-1.0), "ratio": math.exp(-0.5), "count": 4},
    "budget": {"max_evaluations": 20_000, "target_rel_error": 0.2}})"""


RUN_SCRIPT = f"""
import math, sys, tempfile
from besovlab import experiments
chain_1d = experiments.validate_config(experiments.default_config("jump_chain").to_dict())
chain_2d = {CHAIN_2D}
for cfg in (chain_1d, chain_2d):
    before = set(sys.modules)
    with tempfile.TemporaryDirectory() as out:
        experiments.run(cfg, out)
    print(" ".join(sorted(set(sys.modules) - before)))
"""


KIND_SCRIPT = """
import sys, tempfile
from besovlab import experiments
cfg = experiments.validate_config(experiments.default_config(sys.argv[1]).to_dict())
before = set(sys.modules)
with tempfile.TemporaryDirectory() as out:
    experiments.run(cfg, out)
print(" ".join(sorted(set(sys.modules) - before)))
"""


# sweep rows run on the calling thread, whatever threads says
SERIAL_SCRIPT = f"""
import math, sys, tempfile, threading
from besovlab import experiments
print("concurrent.futures" in sys.modules)
chain_2d = {CHAIN_2D}

def refuse(self):
    raise RuntimeError("a run started a thread")

threading.Thread.start = refuse
with tempfile.TemporaryDirectory() as out:
    experiments.run(chain_2d, out, threads=2)
"""


def _run(script: str, *args: str) -> str:
    env = dict(os.environ)
    src = str(Path(besovlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_chain_grid_path_loads_no_scipy_submodule():
    loaded = set(_run(SCRIPT).split())
    assert "scipy" in loaded
    assert not {f"scipy.{name}" for name in HEAVY} & loaded


def test_chain_runs_load_no_module_but_numpy_fft():
    new_1d, new_2d = _run(RUN_SCRIPT).split("\n")[:2]
    assert new_1d == ""
    assert all(m == "numpy.fft" or m.startswith("numpy.fft.") for m in new_2d.split()), new_2d


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_default_experiment_runs_load_no_module(kind):
    assert _run(KIND_SCRIPT, kind).strip() == ""


def test_runs_load_no_pool_and_start_no_thread():
    assert _run(SERIAL_SCRIPT).split() == ["False"]
