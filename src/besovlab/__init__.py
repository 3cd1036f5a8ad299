"""Numerical laboratory for nonlocal seminorms, kernels, mollifiers,
shift variations and jump-variation functionals, with eps -> 0 sweeps
against analytic ground truth on functions of bounded variation."""

from .errors import (BesovLabError, CapabilityError, DivergenceError, FitError,
                     InputError, ResolutionError, SweepError)
from .fields import (Field, GridSpec, JumpPatch, JumpSetSpec, RegionSpec,
                     default_region, eval_field, jump_set_of, make_field,
                     sample, scale_field, sphere_measure, truncate)
from .jumps import (ConstantsTable, dimensional_constants,
                    directional_jump_variation, jump_variation, sphere_moment)
from .kernels import (NegLogEps, RadialKernelFamily, kernel_mass,
                      kernel_profile, kernel_window, log_kernel_moment,
                      support_tail)
from .limits import (EpsilonGrid, EpsilonSweepResult, chain_check,
                     epsilon_sweep, extrapolate, verdict)
from .mollifiers import MollifierSpec, make_mollifier, mollifier_bound_check, mollify
from .quadrature import (PiecewisePower, QuadBudget, QuadResult, pair_integral,
                         radial_integral, shift_integral)
from .seminorms import (FunctionalParams, besov_constant_at,
                        besov_seminorm_q, brq_double_integral,
                        directional_variation, gagliardo_constant_at,
                        gagliardo_seminorm_q, gagliardo_split_bounds,
                        interpolation_check, spherical_variation,
                        variation_inequality_check)

__version__ = "0.1.0"
