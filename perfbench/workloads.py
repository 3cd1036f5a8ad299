"""The benchmark's workloads: the experiment each one runs, its thread
count, the acceptance tolerance of each chain term, and the per-layer counts
a traced run of it must raise.  README.md says why each was chosen."""

from __future__ import annotations

import math
from dataclasses import dataclass

# counts every jump-chain run raises
_COMMON = ("seminorms.spherical_variation.calls", "seminorms.besov_constant_at.calls",
           "seminorms.gagliardo_constant_at.calls", "kernels.kernel_profile.calls",
           "jumps.jump_variation.calls", "limits.rows")

_EXPECTED_1D = _COMMON + (
    "quadrature.pair_integral.piecewise1.calls", "quadrature.pair_integral.smooth1.calls",
    "fields.eval_field.piecewise1.calls", "fields.eval_field.smooth1.calls",
    "quadrature.shift_integral.piecewise1.calls", "mollifiers.mollify.smooth1.calls")

_EXPECTED_2D = _COMMON + (
    "quadrature.pair_integral.grid2.calls", "fields.eval_field.grid2.calls",
    "mollifiers.mollify.grid2.calls", "quadrature.pair_integral.piecewise2.calls",
    "quadrature.shift_integral.piecewise2.calls")


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    threads: int
    # chain term -> relative tolerance against the closed-form jump term;
    # "*" covers the terms not named
    tolerances: dict
    expected: tuple
    # workload whose output files this one must reproduce byte for byte
    reference: str | None = None

    def config(self, seed: int) -> dict:
        if self.dim == 1:
            return {"kind": "jump_chain", "seed": seed}
        # the 2D acceptance criterion's config
        return {"kind": "jump_chain", "field": {"name": "disk_2d"},
                "params": {"q": 2.0},
                "gagliardo_grid": {"eps0": math.exp(-2.0), "ratio": math.exp(-1.0),
                                   "count": 4},
                "budget": {"max_evaluations": 1_500_000, "target_rel_error": 0.02},
                "tolerance": 0.15, "seed": seed}

    def tolerance(self, term: str) -> float:
        return self.tolerances.get(term, self.tolerances["*"])


_TOL_2D = {"variation": 0.05, "besov_constant_trivial": 0.05, "gagliardo": 0.15,
           "*": 0.15}

WORKLOADS = {w.name: w for w in (
    Workload("chain1d", 1, 1, {"*": 0.10}, _EXPECTED_1D),
    Workload("chain2d", 2, 1, _TOL_2D, _EXPECTED_2D),
    Workload("chain2d_t2", 2, 2, _TOL_2D, _EXPECTED_2D, reference="chain2d"),
)}
