"""The nonlocal functionals: Gagliardo and Besov seminorms, the scaled
ball-window double integral, directional and spherical shift variations,
kernel-weighted constants, mollified-seminorm constants, and the
three-region bound decomposition used by the bounds audits.

Every functional returns its q-th power, as the scaled `QuadResult` of its
integral with `provenance` set; the limit identities are stated in the q-th
power and taking roots only amplifies error.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import CapabilityError, InputError
from .fields import (Field, RegionSpec, default_region, eval_field,
                     jump_set_of, knots_1d, sphere_measure, support_bbox,
                     unit_ball_volume)
from .jumps import jump_variation
from .kernels import RadialKernelFamily, kernel_profile, kernel_window
from .mollifiers import MollifierSpec, mollify
from .quadrature import (PiecewisePower, QuadBudget, QuadResult, _distinct, _indicator,
                         _panel_nodes, _rated, _shift_integral_mc, pair_integral, shift_integral)

__all__ = [
    "FunctionalParams",
    "gagliardo_seminorm_q",
    "besov_seminorm_q",
    "brq_double_integral",
    "directional_variation",
    "spherical_variation",
    "besov_constant_at",
    "gagliardo_constant_at",
    "gagliardo_split_bounds",
    "gagliardo_region_integrals",
    "interpolation_check",
    "variation_inequality_check",
    "lq_norm_q",
    "default_shift_grid",
]


@dataclass(frozen=True)
class FunctionalParams:
    """Exponents (r, q), optional interpolation exponent p, and the region E.

    region=None resolves per field to a box holding the support plus one
    unit of margin.  `rq` is stored explicitly so the jump regime r = 1/q
    can be encoded exactly (rq == 1.0) regardless of rounding in r.
    """

    q: float
    r: float
    rq: float
    p: Optional[float] = None
    region: Optional[RegionSpec] = None

    def __post_init__(self):
        if not (self.q >= 1.0):
            raise InputError("q: must be >= 1")
        if not (0.0 < self.r < 1.0):
            raise InputError("r: must lie in (0, 1)")
        if self.p is not None and not (self.p > self.q):
            raise InputError("p: must exceed q")

    @staticmethod
    def make(q: float, r: float, p: Optional[float] = None,
             region: Optional[RegionSpec] = None) -> "FunctionalParams":
        return FunctionalParams(q=float(q), r=float(r), rq=float(r) * float(q),
                                p=None if p is None else float(p), region=region)

    @staticmethod
    def jump_regime(q: float, p: Optional[float] = None,
                    region: Optional[RegionSpec] = None) -> "FunctionalParams":
        # q = 0 takes r = inf, so that the q check, which comes first, refuses it
        return FunctionalParams(q=float(q), r=1.0 / float(q) if float(q) else math.inf,
                                rq=1.0, p=None if p is None else float(p), region=region)


def _stream_of(tag: str) -> int:
    return zlib.crc32(tag.encode("utf-8"))


def _resolve_region(f: Field, params: FunctionalParams) -> RegionSpec:
    return params.region if params.region is not None else default_region(f)


def lq_norm_q(f: Field, q: float) -> float:
    """||u||_{L^q}^q, closed form for piecewise fields, quadrature otherwise."""
    if f.kind == "piecewise":
        return sum(float(np.linalg.norm(np.asarray(amp, dtype=float))) ** q
                   * region.measure()
                   for region, amp in f.payload["pieces"])
    if f.kind == "grid":
        spec = f.payload["spec"]
        cell = float(np.prod(spec.spacing))
        vals = np.linalg.norm(f.payload["values"], axis=-1)
        return float(np.sum(vals ** q) * cell)
    if f.dim_in == 1:
        # 256 equal panels, split at the knots so each panel lies on one
        # smooth piece of u
        lo, hi = support_bbox(f)
        edges = np.linspace(lo[0], hi[0], 257)
        knots = knots_1d(f)
        if knots is not None:
            edges = _distinct(np.concatenate([edges, knots[(knots > lo[0]) & (knots < hi[0])]]))
        nodes, weights = _panel_nodes(edges[:-1], edges[1:], 16)
        vals = np.linalg.norm(eval_field(f, nodes[:, None]), axis=-1) ** q
        return float(weights @ vals)
    raise CapabilityError(f"no L^q norm path for field {f.name!r}")


# ---------------------------------------------------------------------------
# Core functionals
# ---------------------------------------------------------------------------

def gagliardo_seminorm_q(f: Field, params: FunctionalParams,
                         budget: Optional[QuadBudget] = None) -> QuadResult:
    """[u]^q_{W^{r,q}(E)}: double integral with weight |x-y|^{-(N+rq)}.

    Raises DivergenceError for piecewise-constant fields with jumps once
    N + rq >= N + 1, where the seminorm is infinite."""
    region = _resolve_region(f, params)
    tag = f"gagliardo_seminorm_q[f={f.name},q={params.q:g},rq={params.rq:g}]"
    bb = region.bbox()
    if bb is None:
        raise InputError("gagliardo seminorm needs a bounded region")
    diam = float(np.linalg.norm(bb[1] - bb[0]))
    qr = pair_integral(f, region, PiecewisePower.power_law(f.dim_in + params.rq),
                       (0.0, diam), params.q, budget=budget, stream=_stream_of(tag))
    return replace(qr, provenance=tag)


def default_shift_grid(f: Field):
    """Log-spaced |h| times a direction set; the documented lower-bound grid.
    It holds one shift of each pair h, -h: F(-h) = F(h) (substitute x -> x - h)."""
    n = f.dim_in
    lo, hi = support_bbox(f)
    scale = max(1.0, float(np.max(hi - lo)))
    magnitudes = np.geomspace(1e-3 * scale, 2.0 * scale, 25)
    if n == 1:
        dirs = [np.array([1.0])]
    elif n == 2:
        ang = np.pi * np.arange(4) / 4.0
        dirs = [np.array([math.cos(a), math.sin(a)]) for a in ang]
    else:
        dirs = list(np.eye(3))
    return [m * d for m in magnitudes for d in dirs]


def besov_seminorm_q(f: Field, params: FunctionalParams,
                     h_grid: Optional[Sequence] = None,
                     budget: Optional[QuadBudget] = None) -> QuadResult:
    """Max over the shift grid of int |u(x+h)-u(x)|^q chi_E chi_E / |h|^{rq} dx,
    a lower bound for the sup; provenance records the grid size.

    Each shift has its own stream, and a Monte Carlo shift runs on the whole
    budget.  The largest of noisy estimates is biased upward, so a Monte Carlo
    choice is reported as a fresh, unbiased estimate of the chosen shift, on
    the next stream; evaluations_used counts every shift's."""
    region = _resolve_region(f, params)
    if h_grid is None:
        h_grid = default_shift_grid(f)
    if len(h_grid) == 0:
        raise InputError("shift grid must be nonempty")
    tag = (f"besov_seminorm_q[f={f.name},q={params.q:g},rq={params.rq:g},"
           f"grid={len(h_grid)} shifts]")
    best, evals = None, 0
    for i, h in enumerate(h_grid):
        h = np.atleast_1d(np.asarray(h, dtype=float))
        hn = float(np.linalg.norm(h))
        if hn == 0.0:
            raise InputError("shift grid must exclude h = 0")
        r = shift_integral(f, region, h, params.q, budget=budget, stream=_stream_of(tag) + i)
        evals += r.evaluations_used
        if best is None or r.value / hn ** params.rq > best[0]:
            best = (r.value / hn ** params.rq, h, hn, r)
    _, h, hn, r = best
    if r.path == "mc":
        r = shift_integral(f, region, h, params.q, budget=budget,
                           stream=_stream_of(tag) + len(h_grid))
        evals += r.evaluations_used
    return replace(r, value=r.value / hn ** params.rq,
                   error_estimate=r.error_estimate / hn ** params.rq,
                   evaluations_used=evals, provenance=tag)


def brq_double_integral(f: Field, params: FunctionalParams, eps: float,
                        budget: Optional[QuadBudget] = None) -> QuadResult:
    """int_E eps^-N int_{E cap B_eps(x)} |u(x)-u(y)|^q / |x-y|^{rq} dy dx
    (no unit-ball volume factor): L^N(B_1) times the trivial-kernel
    besov_constant_at."""
    if eps <= 0.0:
        raise InputError("eps must be positive")
    n = f.dim_in
    tag = f"brq_double_integral[f={f.name},q={params.q:g},rq={params.rq:g},eps={eps:g}]"
    bc = besov_constant_at(f, params, RadialKernelFamily("trivial", n), eps,
                           budget=budget)
    return bc.scaled(unit_ball_volume(n), tag)


def directional_variation(f: Field, params: FunctionalParams, n_vec, eps: float,
                          budget: Optional[QuadBudget] = None) -> QuadResult:
    """int_E chi_E(x + eps n) |u(x + eps n) - u(x)|^q / eps^{rq} dx."""
    if eps <= 0.0:
        raise InputError("eps must be positive")
    region = _resolve_region(f, params)
    n_vec = np.atleast_1d(np.asarray(n_vec, dtype=float))
    tag = (f"directional_variation[f={f.name},q={params.q:g},rq={params.rq:g},"
           f"eps={eps:g},n={n_vec.tolist()}]")
    if float(np.linalg.norm(n_vec)) == 0.0:
        return QuadResult(0.0, 0.0, 0, provenance=tag)
    r = shift_integral(f, region, eps * n_vec, params.q, budget=budget, stream=_stream_of(tag))
    return r.scaled(eps ** -params.rq, tag)


def spherical_variation(f: Field, params: FunctionalParams, eps: float,
                        budget: Optional[QuadBudget] = None) -> QuadResult:
    """Sphere-integrated (unnormalized) directional variation; divide by
    sphere_measure(N) for the averaged form."""
    if eps <= 0.0:
        raise InputError("eps must be positive")
    region = _resolve_region(f, params)
    n = f.dim_in
    tag = (f"spherical_variation[f={f.name},q={params.q:g},rq={params.rq:g},"
           f"eps={eps:g}]")
    scale = eps ** -params.rq
    shift = _indicator(f, region, eps)
    if n == 1 or shift is not None and shift.sphere is None:
        # S^0 = {+1, -1} and F(h) = F(-h); an unclipped ball indicator varies
        # alike in every direction.  Either way F is one value on the sphere
        r = shift_integral(f, region, eps * np.eye(n)[0], params.q,
                           budget=budget, stream=_stream_of(tag))
    elif shift is not None:
        # another unclipped indicator: its sphere sum, with the change on the
        # lower order as error
        val, *low = (shift.scale ** params.q * float(shift.sphere(np.array([eps]), order)[0])
                     for order in shift.orders)
        err = sum(abs(val - v) for v in low) + 16.0 * np.finfo(float).eps * abs(val)
        return _rated("indicator", budget or QuadBudget(), val, err).scaled(scale, tag)
    else:
        # region-clipped indicators and other fields: one Monte Carlo over x
        # and the direction together, the mean of F on the sphere of radius eps
        r = _shift_integral_mc(f, region, eps * np.eye(n)[0], params.q,
                               budget or QuadBudget(), _stream_of(tag), sphere=True)
    return r.scaled(scale, tag).scaled(sphere_measure(n), tag)


def besov_constant_at(f: Field, params: FunctionalParams, k: RadialKernelFamily,
                      eps, budget: Optional[QuadBudget] = None) -> QuadResult:
    """Kernel-weighted double integral
    int int rho_eps(|x-y|) |u(x)-u(y)|^q / |x-y|^{rq} dy dx."""
    if k.dim != f.dim_in:
        raise InputError("kernel dimension does not match the field")
    region = _resolve_region(f, params)
    lo, hi = kernel_window(k, eps)
    eps_tag = getattr(eps, "neg_log", eps)
    tag = (f"besov_constant_at[f={f.name},q={params.q:g},rq={params.rq:g},"
           f"kernel={k.label()},eps={float(eps_tag):g}]")

    weight = kernel_profile(k, eps).times_power(-params.rq)
    qr = pair_integral(f, region, weight, (lo, hi), params.q, budget=budget,
                       stream=_stream_of(tag))
    return replace(qr, provenance=tag)


def gagliardo_constant_at(f: Field, m: MollifierSpec, params: FunctionalParams,
                          eps: float,
                          budget: Optional[QuadBudget] = None) -> QuadResult:
    """(1 / |ln eps|) [u * eta_(eps)]^q_{W^{r,q}(E)}."""
    if not (0.0 < eps < 1.0 / math.e):
        raise InputError("gagliardo constants need eps in (0, 1/e)")
    region = _resolve_region(f, params)
    u_eps = mollify(f, m, eps)
    inner = FunctionalParams(q=params.q, r=params.r, rq=params.rq, region=region)
    gl = gagliardo_seminorm_q(u_eps, inner, budget=budget)
    tag = (f"gagliardo_constant_at[f={f.name},m={m.kind},q={params.q:g},"
           f"rq={params.rq:g},eps={eps:g}]")
    return gl.scaled(1.0 / abs(math.log(eps)), tag)


# ---------------------------------------------------------------------------
# Bounds and inequality checks
# ---------------------------------------------------------------------------

def gagliardo_split_bounds(f: Field, m: MollifierSpec, params: FunctionalParams,
                           eps: float, beta: float, gamma: float,
                           budget: Optional[QuadBudget] = None):
    """The three closed-form right-hand-side bounds for the tail, annulus and
    core pieces of the mollified Gagliardo integrand; the Besov seminorm in
    the annulus bound runs on the budget."""
    if not (0.0 < beta < gamma):
        raise InputError("need 0 < beta < gamma")
    n = f.dim_in
    h = sphere_measure(n)
    q, rq = params.q, params.rq
    unorm = lq_norm_q(f, q)
    bnorm = besov_seminorm_q(f, params, budget=budget).value
    tail = m.abs_mass ** q * 2.0 ** q * unorm * h / (rq * gamma ** rq)
    annulus = m.abs_mass ** q * bnorm * h * (math.log(gamma) - math.log(beta))
    core = m.grad_mass ** q * 2.0 ** q * unorm * h / (q - rq) \
        * beta ** (q - rq) / eps ** q
    return tail, annulus, core


def gagliardo_region_integrals(f: Field, m: MollifierSpec,
                               params: FunctionalParams, eps: float,
                               beta: float, gamma: float,
                               budget: Optional[QuadBudget] = None):
    """Measured integrals of g^eps(z) over |z| > gamma, beta < |z| < gamma and
    |z| < beta (over all of R^N, matching the three bounds), as QuadResults."""
    if not (0.0 < beta < gamma):
        raise InputError("need 0 < beta < gamma")
    n = f.dim_in
    q, rq = params.q, params.rq
    weight = PiecewisePower.power_law(n + rq)
    u_eps = mollify(f, m, eps)
    lo, hi = support_bbox(u_eps)
    sep = 1.01 * float(np.linalg.norm(hi - lo))

    def piece(a, b):
        if b <= a:
            return QuadResult(0.0, 0.0, 0)
        return pair_integral(u_eps, None, weight, (a, b), q, budget=budget,
                             stream=_stream_of(f"split[{a:g},{b:g},eps={eps:g}]"))

    core = piece(0.0, beta)
    annulus = piece(beta, gamma)
    body = piece(gamma, max(sep, gamma * (1.0 + 1e-9)))
    # beyond separation the shifted supports are disjoint and the integrand
    # is exactly 2 ||u_eps||_q^q with an elementary radial tail
    h = sphere_measure(n)
    tail_far = 2.0 * lq_norm_q(u_eps, q) * h * max(sep, gamma) ** (-rq) / rq
    return replace(body, value=body.value + tail_far), annulus, core


def interpolation_check(f: Field, q: float, p: float,
                        budget: Optional[QuadBudget] = None):
    """lhs = [u]^q_{B^{1/q}} (shift-grid max); rhs via ||Du|| and [u]^p_{B^{1/p}}
    with alpha = (p - q)/(p - 1); the contract is lhs <= rhs.  Both seminorms
    run on the budget."""
    if not (1.0 < q < p):
        raise InputError("need 1 < q < p")
    pq = FunctionalParams.jump_regime(q)
    pp = FunctionalParams.jump_regime(p)
    lhs = besov_seminorm_q(f, pq, budget=budget).value
    bp = besov_seminorm_q(f, pp, budget=budget).value
    tv = jump_variation(jump_set_of(f), 1.0)
    alpha = (p - q) / (p - 1.0)
    rhs = tv ** alpha * bp ** (1.0 - alpha)
    return lhs, rhs


def variation_inequality_check(f: Field, h):
    """lhs = int |u(x+h)-u(x)| / |h| dx over the support box; tv = ||Du||."""
    h = np.atleast_1d(np.asarray(h, dtype=float))
    hn = float(np.linalg.norm(h))
    if hn == 0.0:
        raise InputError("shift must be nonzero")
    tv = jump_variation(jump_set_of(f), 1.0)
    return shift_integral(f, None, h, 1.0).value / hn, tv
