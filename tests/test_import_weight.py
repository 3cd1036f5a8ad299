"""Importing besovlab and running a chain's grid path load no scipy
submodule: they cost most of the package's start-up time."""

import os
import subprocess
import sys
from pathlib import Path

import besovlab

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


def test_chain_grid_path_loads_no_scipy_submodule():
    env = dict(os.environ)
    src = str(Path(besovlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "scipy" in loaded
    assert not {f"scipy.{name}" for name in HEAVY} & loaded
