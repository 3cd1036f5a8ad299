"""W^{1,1} mollifier families, their scalings, and convolution with fields.

Shipped kinds: "tent", "truncated-gaussian" (cut at 6 sigma, renormalized to
unit mass), "smooth-bump", "signed-test" (derivative of the bump, zero total
mass), and "mix" (an affine combination, used to perturb a mollifier).  All
kinds carry closed-form or precomputed CDFs in 1D.  Mollifying a 1D step sum
or a 1D smooth field gives the lazy form u * eta_eps, which fields evaluates:
a sum of CDFs for the steps, a fixed quadrature rule for a smooth field.
Every other field is sampled at resolution eps/8 and convolved with the
mollifier's taps through a zero-padded FFT.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
import scipy  # its submodules load on first use, on the paths that need them

from .errors import CapabilityError, InputError, ResolutionError, built_kind, require
from .fields import Field, GridSpec, sample, sphere_measure, step_intervals, support_bbox
from .quadrature import (_LATTICE_COLS, _LATTICE_ROWS, Autocorrelation, _bspline, _fast_len,
                         _panel_nodes, shift_integral)

__all__ = ["MollifierSpec", "MOLLIFIERS", "make_mollifier", "mollify", "mollifier_bound_check"]


@dataclass(frozen=True)
class MollifierSpec:
    kind: str
    dim: int
    halfwidth: float              # support radius of eta
    total: float                  # int eta
    abs_mass: float               # int |eta|
    grad_mass: float              # int |grad eta|
    pdf: Callable = field(repr=False)          # eta(v) at signed v (1D), eta(r) (2D/3D)
    grad: Callable = field(repr=False)         # eta'(v) (1D) or d/dr of the profile
    cdf: Optional[Callable] = field(repr=False, default=None)  # 1D only
    # 1D only: the autocorrelation eta * eta(-.), which the q = 2 engine reads
    autocorr: Optional[Autocorrelation] = field(repr=False, default=None)

    @functools.cached_property
    def smoothing_rule(self) -> tuple:
        """(z, w): 8 panels of 12 Gauss-Legendre nodes on [-halfwidth,
        halfwidth], the weights times eta(z), so that w @ g(z) is the rule's
        int eta(z) g(z) dz."""
        panels = np.linspace(-self.halfwidth, self.halfwidth, 9)
        z, w = _panel_nodes(panels[:-1], panels[1:], 12)
        return z, w * np.asarray(self.pdf(z), dtype=float)

    def weighted_grad(self, rq: float) -> float:
        """int |grad eta(v)| (|v| + 2)^{rq} dv."""
        return self._radial_moment(lambda r: np.abs(self.grad(r)), lambda r: (r + 2.0) ** rq)

    def abs_weighted_moment(self, rq: float) -> float:
        """int |eta(v)| |v|^{rq} dv."""
        return self._radial_moment(lambda r: np.abs(self.pdf(r)), lambda r: r ** rq)

    def _radial_moment(self, g: Callable, w: Callable) -> float:
        if self.dim == 1:
            val, _ = scipy.integrate.quad(lambda v: g(v) * w(abs(v)),
                                          -self.halfwidth, self.halfwidth,
                                          points=[0.0], limit=200)
            return float(val)
        h = sphere_measure(self.dim)
        val, _ = scipy.integrate.quad(lambda r: g(r) * w(r) * r ** (self.dim - 1),
                                      0.0, self.halfwidth, limit=200)
        return float(h * val)


# ---------------------------------------------------------------------------
# 1D profiles
# ---------------------------------------------------------------------------

def _tent_pdf(v):
    v = np.abs(np.asarray(v, dtype=float))
    return np.maximum(0.0, 1.0 - v)


def _tent_grad(v):
    v = np.asarray(v, dtype=float)
    return -np.sign(v) * (np.abs(v) < 1.0)


def _tent_cdf(w):
    w = np.asarray(w, dtype=float)
    out = np.where(w <= 0.0, 0.5 * (1.0 + np.clip(w, -1.0, 0.0)) ** 2,
                   1.0 - 0.5 * (1.0 - np.clip(w, 0.0, 1.0)) ** 2)
    return out


_GAUSS_CUT = 6.0
_GAUSS_Z = math.erf(_GAUSS_CUT / math.sqrt(2.0))


def _gauss_pdf(v):
    v = np.asarray(v, dtype=float)
    out = np.exp(-0.5 * v * v) / (math.sqrt(2.0 * math.pi) * _GAUSS_Z)
    return np.where(np.abs(v) <= _GAUSS_CUT, out, 0.0)


def _gauss_cdf(w):
    w = np.clip(np.asarray(w, dtype=float), -_GAUSS_CUT, _GAUSS_CUT)
    erf = scipy.special.erf
    return (erf(w / math.sqrt(2.0)) - erf(-_GAUSS_CUT / math.sqrt(2.0))) / (2.0 * _GAUSS_Z)


def _bump_raw(v):
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    inside = np.abs(v) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - v[inside] ** 2))
    return out


@functools.cache
def _bump_norm() -> float:
    """1 / int exp(-1/(1-v^2)) dv, by quadrature on first use."""
    return 1.0 / scipy.integrate.quad(lambda v: float(_bump_raw(v)), -1.0, 1.0, limit=200)[0]


def _bump_pdf(v):
    return _bump_norm() * _bump_raw(v)


def _bump_grad(v):
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    inside = np.abs(v) < 1.0
    vi = v[inside]
    out[inside] = _bump_norm() * np.exp(-1.0 / (1.0 - vi ** 2)) \
        * (-2.0 * vi) / (1.0 - vi ** 2) ** 2
    return out


_CDF_CELLS = 8192


class _TableCDF:
    """Cumulative integral of a pdf on [-hw, hw], tabulated once at the ends
    of _CDF_CELLS cells, each cell's integral by 8-point Gauss-Legendre; read
    by the cubic Hermite interpolant of the table with the pdf as slope."""

    def __init__(self, pdf: Callable, hw: float):
        self.xs = np.linspace(-hw, hw, _CDF_CELLS + 1)
        z, w = _panel_nodes(self.xs[:-1], self.xs[1:], 8)
        cells = (w * pdf(z)).reshape(_CDF_CELLS, 8).sum(axis=1)
        self.cum = np.concatenate([[0.0], np.cumsum(cells)])
        self.h = 2.0 * hw / _CDF_CELLS
        self.slope = self.h * pdf(self.xs)    # d cum / dt, t the offset in cells

    def __call__(self, w):
        w = np.clip(np.asarray(w, dtype=float), self.xs[0], self.xs[-1])
        i = np.minimum(((w - self.xs[0]) / self.h).astype(int), self.cum.size - 2)
        t = (w - self.xs[i]) / self.h
        c0, d = self.cum[i], self.cum[i + 1] - self.cum[i]
        m0, m1 = self.slope[i], self.slope[i + 1]
        return c0 + t * (m0 + t * (3.0 * d - 2.0 * m0 - m1 + t * (m0 + m1 - 2.0 * d)))


def _tent(dim: int) -> MollifierSpec:
    if dim == 1:
        return MollifierSpec("tent", 1, 1.0, 1.0, 1.0, 2.0,
                             pdf=_tent_pdf, grad=_tent_grad,
                             cdf=_tent_cdf, autocorr=Autocorrelation(_bspline, (0.0, 1.0, 2.0)))
    # radial tent c (1 - r)+ normalized to unit mass:
    # int_0^1 (1 - r) r^(N-1) dr = 1 / (N (N + 1))
    h = sphere_measure(dim)
    c = dim * (dim + 1.0) / h
    return MollifierSpec("tent", dim, 1.0, 1.0, 1.0, c * h / dim,
                         pdf=lambda r: c * np.maximum(0.0, 1.0 - np.asarray(r, dtype=float)),
                         grad=lambda r: -c * (np.asarray(r) < 1.0))


def _truncated_gaussian(dim: int) -> MollifierSpec:
    if dim != 1:
        raise CapabilityError("truncated gaussian is shipped in 1D only")
    phi0 = math.exp(0.0) / (math.sqrt(2.0 * math.pi) * _GAUSS_Z)
    phic = math.exp(-0.5 * _GAUSS_CUT ** 2) / (math.sqrt(2.0 * math.pi) * _GAUSS_Z)
    grad = 2.0 * (phi0 - phic)
    return MollifierSpec("truncated-gaussian", 1, _GAUSS_CUT, 1.0, 1.0, grad,
                         pdf=_gauss_pdf,
                         grad=lambda v: -np.asarray(v, dtype=float) * _gauss_pdf(v),
                         cdf=_gauss_cdf)


def _smooth_bump(dim: int) -> MollifierSpec:
    if dim != 1:
        raise CapabilityError("smooth bump is shipped in 1D only")
    grad = 2.0 * float(_bump_pdf(0.0))
    return MollifierSpec("smooth-bump", 1, 1.0, 1.0, 1.0, grad,
                         pdf=_bump_pdf, grad=_bump_grad,
                         cdf=_TableCDF(_bump_pdf, 1.0))


def _signed_test(dim: int) -> MollifierSpec:
    if dim != 1:
        raise CapabilityError("the signed-test mollifier is shipped in 1D only")
    abs_mass = 2.0 * float(_bump_pdf(0.0))
    grad_mass, _ = scipy.integrate.quad(lambda v: abs(_d_bump_grad(v)), -1.0, 1.0,
                                        points=[0.0], limit=200)
    return MollifierSpec("signed-test", 1, 1.0, 0.0, abs_mass, float(grad_mass),
                         pdf=_bump_grad, grad=np.vectorize(_d_bump_grad),
                         cdf=_bump_pdf)


def _mix(dim: int, components) -> MollifierSpec:
    """The affine combination of components, (weight, MollifierSpec) pairs."""
    require(isinstance(components, (list, tuple)) and all(
        isinstance(c, (list, tuple)) and len(c) == 2 and isinstance(c[0], numbers.Real)
        and isinstance(c[1], MollifierSpec) and c[1].dim == dim for c in components),
        "components", f"must be (number, MollifierSpec) pairs, each of dimension {dim}")
    hw = max(c.halfwidth for _, c in components)
    total = sum(w * c.total for w, c in components)

    def pdf(v):
        return sum(w * c.pdf(v) for w, c in components)

    def grad(v):
        return sum(w * c.grad(v) for w, c in components)

    cdf = None
    if all(c.cdf is not None for _, c in components):
        def cdf(w, _comps=tuple(components)):
            return sum(wt * c.cdf(w) for wt, c in _comps)
    spec = MollifierSpec("mix", dim, hw, float(total), math.nan, math.nan,
                         pdf=pdf, grad=grad, cdf=cdf)
    if dim == 1:
        abs_mass, _ = scipy.integrate.quad(lambda v: abs(float(pdf(v))), -hw, hw,
                                           points=[0.0], limit=400)
        grad_mass, _ = scipy.integrate.quad(lambda v: abs(float(grad(v))), -hw, hw,
                                            points=[-1.0, 0.0, 1.0], limit=400)
    else:
        # H^(N-1) int_0^hw |.| r^(N-1) dr of the radial profiles
        abs_mass = spec._radial_moment(lambda r: np.abs(pdf(r)), lambda r: 1.0)
        grad_mass = spec._radial_moment(lambda r: np.abs(grad(r)), lambda r: 1.0)
    return replace(spec, abs_mass=float(abs_mass), grad_mass=float(grad_mass))


# mollifier kind (or alias) -> its builder, whose parameters besides dim are
# its config keys
MOLLIFIERS = {"tent": _tent, "truncated-gaussian": _truncated_gaussian,
              "gauss": _truncated_gaussian, "smooth-bump": _smooth_bump, "bump": _smooth_bump,
              "signed-test": _signed_test, "signed_bump": _signed_test, "mix": _mix}


def make_mollifier(kind: str, dim: int = 1, **params) -> MollifierSpec:
    """The mollifier of the kind in dimension dim; only "mix" takes a
    parameter, its components."""
    if dim not in (1, 2, 3):
        raise InputError("dim: must be 1, 2 or 3")
    return built_kind("mollifier", MOLLIFIERS, "kind", "mollifier kind",
                      {"kind": kind, **params}, dim=dim)


def _d_bump_grad(v):
    """Second derivative of the normalized bump (for grad mass of signed-test)."""
    v = float(v)
    if abs(v) >= 1.0:
        return 0.0
    s = 1.0 - v * v
    e = math.exp(-1.0 / s)
    # d/dv [ -2v / s^2 * e ] = e * ( (-2/s^2 - 8v^2/s^3) + (4 v^2 / s^4) )
    return _bump_norm() * e * (-2.0 / s ** 2 - 8.0 * v * v / s ** 3 + 4.0 * v * v / s ** 4)


# ---------------------------------------------------------------------------
# Mollification
# ---------------------------------------------------------------------------

def _is_step_sum(f: Field) -> bool:
    """True for a 1D piecewise field of intervals and unions of them."""
    if f.kind != "piecewise":
        return False
    try:
        list(step_intervals(f))
    except CapabilityError:
        return False
    return True


def mollify(f: Field, m: MollifierSpec, eps: float) -> Field:
    """u_eps = u * eta_(eps).  A 1D step sum (when m has a CDF) or a 1D
    smooth field gives the lazy form {"formula": "mollified", "field": u,
    "mollifier": m, "eps": eps}; any other field is sampled at resolution
    eps/8 and convolved in place with the taps, through a zero-padded FFT
    taken in blocks, so that besides the samples it holds one complex array
    of about their size."""
    if not (eps > 0.0 and math.isfinite(eps)):
        raise InputError(f"mollification scale must be positive and finite, got {eps!r}")
    if m.dim != f.dim_in:
        raise InputError("mollifier dimension does not match the field")
    if f.kind == "smooth" and f.payload.get("formula") == "constant":
        value = np.asarray(f.payload["params"]["value"], dtype=float) * m.total
        payload = {"formula": "constant", "params": {"value": value}}
        return Field(f.dim_in, f.dim_out, "smooth", payload,
                     support_radius=f.support_radius, name=f"{f.name}*[{m.kind}]")
    if f.dim_in == 1 and (f.kind == "smooth" or m.cdf is not None and _is_step_sum(f)):
        payload = {"formula": "mollified", "field": f, "mollifier": m, "eps": float(eps)}
        return Field(1, f.dim_out, "smooth", payload,
                     support_radius=f.support_radius + eps * m.halfwidth,
                     name=f"{f.name}*[{m.kind}@{eps:g}]")
    return _mollify_grid(f, m, eps)


def _mollify_grid(f: Field, m: MollifierSpec, eps: float) -> Field:
    n = f.dim_in
    h = eps / 8.0
    if f.kind == "grid":
        src = max(f.payload["spec"].spacing)
        if eps < 8.0 * src:
            raise ResolutionError(
                f"eps={eps:g} below 8x source grid spacing {src:g}")
    lo, hi = support_bbox(f)
    pad = eps * m.halfwidth + 2.0 * h
    lo, hi = lo - pad, hi + pad
    extent = tuple(int(math.ceil((hi[k] - lo[k]) / h)) for k in range(n))
    cells = float(np.prod(np.asarray(extent, dtype=float)))
    if cells > 3.2e7:
        raise CapabilityError(
            f"mollification at eps={eps:g} needs a {extent} grid "
            f"({cells:.2e} cells) at resolution eps/8; raise eps or shrink the sweep")
    spec = GridSpec(origin=tuple(lo), spacing=(h,) * n, extent=extent)
    values = sample(f, spec).payload["values"]
    payload = {"spec": spec, "values": _convolve(values, _taps(m, eps, h, n)),
               "source": f.name}
    rad = f.support_radius + eps * m.halfwidth
    return Field(n, f.dim_out, "grid", payload, support_radius=rad,
                 name=f"{f.name}*[{m.kind}@{eps:g}]")


def _taps(m: MollifierSpec, eps: float, h: float, n: int) -> np.ndarray:
    """eta_eps at the offsets of a grid of spacing h times the cell volume,
    rescaled to the mollifier's total mass when that is nonzero."""
    reach = int(math.ceil(eps * m.halfwidth / h))
    axes = [np.arange(-reach, reach + 1) * h for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    offsets = mesh[0] if n == 1 else np.sqrt(sum(mm ** 2 for mm in mesh))
    taps = m.pdf(offsets / eps) / eps ** n * h ** n
    if m.total != 0.0:
        taps = taps * (m.total / taps.sum())
    return taps


def _convolve(values: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Convolve each component of values (shape extent + (dim_out,)) in
    place with the odd-sized taps, zero outside the grid, cut back to the
    grid; returns values.  These are the 1D transforms of one rfftn/irfftn
    at a 5-smooth length, in the same order, so the result is that one's bit
    for bit, taken in blocks through one (ext_0, F) complex buffer: the
    trailing rfftn per block of rows; the axis-0 fft, the product with the
    taps' spectrum and the axis-0 ifft per block of columns; the trailing
    irfftn per block of rows.  A 1D grid takes a leading axis of length 1,
    whose fft is exact."""
    if values.ndim == 2:
        _convolve(values[None], taps[None])
        return values
    ext = values.shape[:-1]
    reach = [t // 2 for t in taps.shape]
    length = [_fast_len(e + t - 1) for e, t in zip(ext, taps.shape)]
    trail = tuple(range(1, len(ext)))
    fshape = tuple(length[1:-1]) + (length[-1] // 2 + 1,)
    keep = (slice(None),) + tuple(slice(r, r + e) for r, e in zip(reach[1:], ext[1:]))
    kernel = np.fft.rfftn(taps, s=length[1:], axes=trail).reshape(taps.shape[0], -1)
    buf = np.empty((ext[0], kernel.shape[1]), dtype=complex)
    # the data's and the taps' axis-0 spectra of a block of columns, two
    # (length_0, width) arrays, take what one block of _LATTICE_COLS takes
    width = _LATTICE_COLS // 2
    for di in range(values.shape[-1]):
        comp = values[..., di]
        for r0 in range(0, ext[0], _LATTICE_ROWS):
            rows = slice(r0, r0 + _LATTICE_ROWS)
            spectrum = np.fft.rfftn(comp[rows], s=length[1:], axes=trail)
            buf[rows] = spectrum.reshape(spectrum.shape[0], -1)
        for j0 in range(0, buf.shape[1], width):
            cols = slice(j0, j0 + width)
            z = np.fft.fft(buf[:, cols], n=length[0], axis=0)
            z *= np.fft.fft(kernel[:, cols], n=length[0], axis=0)
            buf[:, cols] = np.fft.ifft(z, axis=0)[reach[0]:reach[0] + ext[0]]
        for r0 in range(0, ext[0], _LATTICE_ROWS):
            rows = slice(r0, r0 + _LATTICE_ROWS)
            comp[rows] = np.fft.irfftn(buf[rows].reshape((-1,) + fshape),
                                       s=length[1:], axes=trail)[keep]
    return values


def mollifier_bound_check(f: Field, m: MollifierSpec, eps: float,
                          q: float, h) -> tuple[float, float]:
    """Shifted L^q mass of the mollified field against the contraction bound
    abs_mass^q times the same mass of the raw field."""
    u_eps = mollify(f, m, eps)
    lhs = shift_integral(u_eps, None, h, q).value
    raw = shift_integral(f, None, h, q).value
    return lhs, m.abs_mass ** q * raw
