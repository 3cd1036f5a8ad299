"""Independent brute-force oracles for the derived expected values.

Everything here deliberately avoids the package's integration machinery:
dense midpoint/Riemann sums, plain Monte Carlo with a fixed generator,
scipy reference quadrature and mpmath only.  One exception: indicator_pair_integral
reads a box's sphere sum from the package (closed form in 2D).  Oracle values are compared against the
package paths in the tests; several frozen constants in the tests were
generated by these functions.
"""

import itertools
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
from scipy import integrate as sciint

from besovlab.fields import Field, GridSpec, RegionSpec, eval_field, sphere_measure
from besovlab.quadrature import _box_sphere_sum


def grid_field(values, h, origin=None):
    """The grid field of the cell values (extent + (dim_out,)), spacing h."""
    n = values.ndim - 1
    origin = (0.1,) * n if origin is None else tuple(origin)
    spec = GridSpec(origin=origin, spacing=(h,) * n, extent=values.shape[:-1])
    return Field(n, values.shape[-1], "grid", {"spec": spec, "values": values},
                 support_radius=10.0, name="grid")


def step_sum(steps, dim_out=1):
    """The 1D field sum_j amp_j 1_[a_j, b_j] of steps (a_j, b_j, amp_j)."""
    pieces = tuple((RegionSpec.interval(a, b), np.atleast_1d(np.asarray(amp, dtype=float)))
                   for a, b, amp in steps)
    return Field(1, dim_out, "piecewise", {"pieces": pieces}, support_radius=5.0,
                 name="steps")


def grid_eval_rowmajor(spec, values, x):
    """Multilinear interpolation over cell centers with a zero ring, worked on
    the (P, N) point array as a whole, in one pass over all points: the
    reference for fields._grid_eval, which takes the points a block at a
    time and must match it bit for bit."""
    ext = values.shape[:-1]
    u = (x - np.asarray(spec.origin)) / np.asarray(spec.spacing) - 0.5
    lo = np.floor(u)
    frac = u - lo
    stride = 1
    axes = []
    for k in reversed(range(len(ext))):
        pair = []
        for i, w in ((lo[:, k], 1.0 - frac[:, k]), (lo[:, k] + 1.0, frac[:, k])):
            inside = (i >= 0.0) & (i <= ext[k] - 1.0)
            index = np.clip(i, 0.0, ext[k] - 1.0).astype(np.intp) * stride
            pair.append((index, np.where(inside, w, 0.0)))
        axes.insert(0, pair)
        stride *= ext[k]
    flat = values.reshape(-1, values.shape[-1])
    out = 0.0
    for corner in itertools.product(*axes):
        index, weight = corner[0]
        for i, w in corner[1:]:
            index, weight = index + i, weight * w
        out = out + weight[:, None] * flat.take(index, axis=0)
    return out


def region_contains_rowmajor(region, x):
    """Region membership reduced over the last axis of the point array: the
    reference for RegionSpec.contains, which must match it exactly."""
    x = np.asarray(x, dtype=float)
    if region.kind == "box":
        return np.all((x >= np.asarray(region.lo)) & (x <= np.asarray(region.hi)), axis=-1)
    if region.kind == "ball":
        return np.sum((x - np.asarray(region.center)) ** 2, axis=-1) <= region.radius ** 2
    if region.kind == "half_space":
        return x @ np.asarray(region.normal) <= region.offset
    if region.kind == "complement":
        return ~region_contains_rowmajor(region.inner, x)
    out = region_contains_rowmajor(region.parts[0], x)
    for p in region.parts[1:]:
        out = out | region_contains_rowmajor(p, x)
    return out


def convolve_full_fft(values, taps):
    """Each component of values (shape extent + (dim_out,)) convolved with
    the odd-sized taps, zero outside the grid, cut back to the grid, by one
    rfftn/irfftn over the whole array at a 5-smooth length: the reference
    for mollifiers._convolve, which must match it bit for bit."""
    from besovlab.quadrature import _fast_len
    ext = values.shape[:-1]
    reach = [t // 2 for t in taps.shape]
    length = [_fast_len(e + t - 1) for e, t in zip(ext, taps.shape)]
    axes = tuple(range(len(ext)))
    kernel = np.fft.rfftn(taps, s=length, axes=axes)
    keep = tuple(slice(r, r + e) for r, e in zip(reach, ext))
    out = np.empty_like(values)
    for di in range(values.shape[-1]):
        spectrum = np.fft.rfftn(values[..., di], s=length, axes=axes) * kernel
        out[..., di] = np.fft.irfftn(spectrum, s=length, axes=axes)[keep]
    return out


def riemann_shift_1d(f, region, h, q, n=200_001, span=None):
    """Dense midpoint rule for int chi_E(x) chi_E(x+h) |u(x+h)-u(x)|^q dx."""
    if span is None:
        lo, hi = -8.0, 8.0
    else:
        lo, hi = span
    xs = np.linspace(lo, hi, n)
    mid = 0.5 * (xs[1:] + xs[:-1])
    dx = xs[1] - xs[0]
    du = eval_field(f, (mid + h)[:, None]) - eval_field(f, mid[:, None])
    vals = np.linalg.norm(du, axis=-1) ** q
    if region is not None:
        vals = vals * region.contains(mid[:, None]) * region.contains((mid + h)[:, None])
    return float(np.sum(vals) * dx)


def riemann_pair_1d(f, region, weight, window, q, nx=4001, nz=4001, span=(-4.0, 5.0)):
    """Dense double Riemann sum of weight(|z|)|u(x+z)-u(x)|^q chi chi dz dx."""
    a, b = window
    lo, hi = span
    xs = np.linspace(lo, hi, nx)
    xm = 0.5 * (xs[1:] + xs[:-1])
    dx = xs[1] - xs[0]
    total = 0.0
    for sign in (1.0, -1.0):
        zs = np.linspace(max(a, 1e-9), b, nz)
        zm = sign * 0.5 * (zs[1:] + zs[:-1])
        dz = zs[1] - zs[0]
        X, Z = np.meshgrid(xm, zm, indexing="ij")
        du = eval_field(f, (X + Z).reshape(-1, 1)) - eval_field(f, X.reshape(-1, 1))
        vals = np.linalg.norm(du, axis=-1) ** q
        if region is not None:
            vals = vals * region.contains((X + Z).reshape(-1, 1)) \
                * region.contains(X.reshape(-1, 1))
        w = weight(np.abs(Z.reshape(-1)))
        total += float(np.sum(vals * w)) * dx * dz
    return total


def linear_pair_1d(nodes, vals, lo, hi, b, s):
    """2 int_0^b t^-s F(t) dt, F(t) = int_lo^(hi - t) (u(x + t) - u(x))^2 dx,
    for u the linear interpolant of vals at nodes, zero outside them.  Exact
    up to roundoff in x: the integrand is a quadratic between the nodes and
    the nodes - t, each piece taken by Gauss-Legendre of order 2.  In t, F is
    a cubic between the differences of the nodes and of lo, hi, and F(t) =
    O(t^2); with t = sigma^2 the integral is 2 int sigma^(1-2s) F(sigma^2)
    dsigma, Gauss-Legendre of order 20 between the square roots of those
    differences, exact on the first panel for s = 1.5 and 2.5."""
    x2, w2 = np.polynomial.legendre.leggauss(2)
    x20, w20 = np.polynomial.legendre.leggauss(20)
    pts = np.concatenate([nodes, [lo, hi]])
    kinks = np.abs(pts[:, None] - pts[None, :]).ravel()
    edges = np.sqrt(np.unique(np.concatenate([[0.0, b], kinks[(kinks > 0) & (kinks < b)]])))
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    sigma = (mid[:, None] + half[:, None] * x20).ravel()
    total = 0.0
    for sg, ws in zip(sigma, (half[:, None] * w20).ravel()):
        t = sg * sg
        e = np.concatenate([nodes, nodes - t, [lo, hi - t]])
        e = np.unique(e[(e >= lo) & (e <= hi - t)])
        x = 0.5 * (e[1:] + e[:-1])[:, None] + 0.5 * (e[1:] - e[:-1])[:, None] * x2
        d = np.interp(x + t, nodes, vals) - np.interp(x, nodes, vals)
        f_t = np.sum(0.5 * (e[1:] - e[:-1])[:, None] * w2 * d * d)
        total += ws * 2.0 * sg ** (1.0 - 2.0 * s) * f_t
    return 2.0 * total


def sphere_rule(n, m):
    """Nodes (M, N) and weights (M,) for the unnormalized H^{N-1} integral:
    the m-point trapezoid rule in the angle for N = 2; for N = 3, m angles on
    each of m // 2 Gauss-Legendre latitudes (at least 2)."""
    theta = 2.0 * math.pi * np.arange(m) / m
    if n == 2:
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        return nodes, np.full(m, 2.0 * math.pi / m)
    if n != 3:
        raise ValueError(f"no sphere rule for dimension {n}")
    c, wlat = np.polynomial.legendre.leggauss(max(m // 2, 2))     # cos(phi) in [-1, 1]
    s = np.sqrt(1.0 - c ** 2)
    nodes = np.stack([
        np.outer(s, np.cos(theta)).ravel(),
        np.outer(s, np.sin(theta)).ravel(),
        np.outer(c, np.ones(m)).ravel(),
    ], axis=-1)
    weights = np.outer(wlat, np.full(m, 2.0 * math.pi / m)).ravel()
    return nodes, weights


def mc_symdiff(region_contains, h, box_lo, box_hi, n=2_000_000, seed=123):
    """Monte Carlo measure of A symmetric-difference (A - h)."""
    rng = np.random.default_rng(seed)
    dim = len(box_lo)
    pts = box_lo + (np.asarray(box_hi) - box_lo) * rng.random((n, dim))
    a = region_contains(pts)
    b = region_contains(pts + np.asarray(h))
    vol = float(np.prod(np.asarray(box_hi) - np.asarray(box_lo)))
    return vol * float(np.mean(a ^ b)), vol * 2.0 / math.sqrt(n)


def circle_arc_length(radius):
    """Circumference by arc-length quadrature of the parametrization."""
    val, _ = sciint.quad(
        lambda t: math.hypot(-radius * math.sin(t), radius * math.cos(t)),
        0.0, 2.0 * math.pi, limit=200)
    return val


def direct_convolution_1d(f, pdf, halfwidth, eps, x, n=20_001):
    """u_eps(x) = int eta(z) u(x - eps z) dz by dense midpoint quadrature."""
    zs = np.linspace(-halfwidth, halfwidth, n)
    zm = 0.5 * (zs[1:] + zs[:-1])
    dz = zs[1] - zs[0]
    vals = eval_field(f, (x - eps * zm)[:, None])
    w = np.asarray(pdf(zm), dtype=float)
    return float(np.sum(w[:, None] * vals, axis=0)[0] * dz)


# ---------------------------------------------------------------------------
# Fourier oracle for q = 2 seminorms of grid fields on R^N
# ---------------------------------------------------------------------------

# the cubic B-spline hat * hat and its second derivative at the integers
_BSPLINE_AT = {0: 2.0 / 3.0, 1: 1.0 / 6.0}
_BSPLINE2_AT = {0: -2.0, 1: 1.0}


def _direct_autocorrelation(c):
    """R(m) = sum_k c_k . c_(k+m) by direct summation over k; the array is
    indexed by m + extent - 1, and the lags per axis are returned with it."""
    ext = c.shape[:-1]
    out = np.zeros(tuple(2 * e - 1 for e in ext))
    for m in np.ndindex(*out.shape):
        lag = [mi - e + 1 for mi, e in zip(m, ext)]
        a = tuple(slice(max(0, -g), e - max(0, g)) for g, e in zip(lag, ext))
        b = tuple(slice(max(0, g), e - max(0, -g)) for g, e in zip(lag, ext))
        out[m] = float(np.sum(c[a] * c[b]))
    return out, [np.arange(2 * e - 1) - e + 1 for e in ext]


def _sinc4(eta):
    x = 0.5 * np.asarray(eta, dtype=float)
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, 1.0, (np.sin(safe) / safe) ** 4)


def _legendre_panels(edges, order):
    x, w = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _cos_tail(a, j, x0, epsabs=1.49e-8):
    """int_x0^inf eta^a cos(j eta) d eta, a < -1."""
    if j == 0:
        return x0 ** (a + 1.0) / (-a - 1.0)
    return sciint.quad(lambda e: e ** a, x0, np.inf, weight="cos", wvar=abs(j),
                       epsabs=epsabs)[0]


def fourier_seminorm(values, h, s, cube=128.0):
    """([u]^2, ||u||^2) for the grid field u = sum_k c_k Lam(x/h - k) on R^N,
    where [u]^2 = int int |u(x)-u(y)|^2 |x-y|^-(N+2s) dx dy, 0 < s < 1.

    Di Nezza-Palatucci-Valdinoci (2012), Prop. 3.4: [u]^2 =
    2 C (2 pi)^-N int |xi|^2s |u^(xi)|^2 d xi with C = int (1 - cos z_1)
    |z|^-(N+2s) dz = pi^(N/2) Gamma(1-s) / (s 4^s Gamma(N/2 + s)), and in
    closed form u^(xi) = h^N prod_i sinc^2(h xi_i / 2) sum_k c_k e^(-i h xi.k).
    With eta = h xi the integrand is |eta|^2s prod_i sinc^4(eta_i/2) |P(eta)|^2,
    |P|^2 = sum_m R(m) cos(eta.m).  Over the cube |eta_i| <= cube,
    |eta|^2s = s/Gamma(1-s) int_0^inf (1 - e^(-t|eta|^2)) t^(-1-s) dt splits
    the integral into 1D Gauss-Legendre integrals per axis; outside it, the
    slabs |eta_i| > cube are integrated to first order in |eta_perp|^2/eta_i^2
    with int sinc^4(eta/2) cos(k eta) = 2 pi b(k) and int eta^2 sinc^4(eta/2)
    cos(k eta) = -2 pi b''(k), b the cubic B-spline hat * hat."""
    c = np.asarray(values, dtype=float)
    n = c.ndim - 1
    r, lags = _direct_autocorrelation(c)
    absm = [np.abs(g).ravel() for g in np.meshgrid(*lags, indexing="ij")]
    rr = r.ravel()
    kmax = max(len(g) for g in lags)
    # even integrands on [0, cube]: panels graded toward 0, then of a width
    # that resolves cos(k eta) for every lag k
    width = min(0.5, 2.0 / (kmax + 2))
    edges = np.concatenate([[0.0], width * 2.0 ** -np.arange(24, 0, -1.0),
                            np.arange(width, cube + 0.5 * width, width)])
    eta, w = _legendre_panels(edges, 10)
    w = 2.0 * w
    t_lo, t_hi = 1e-12, 1e6
    v, wv = _legendre_panels(np.linspace(math.log(t_lo), math.log(t_hi), 42), 10)
    t = np.exp(v)
    # per lag k: full = int sinc^4(eta/2) cos(k eta), slope the same with
    # eta^2, and delta_k(t) = int (1 - e^(-t eta^2)) sinc^4(eta/2) cos(k eta);
    # summed over blocks of eta nodes, which bound the temporaries
    full, slope = np.zeros(kmax), np.zeros(kmax)
    delta = np.zeros((kmax, len(t)))
    for i in range(0, len(eta), 4096):
        e, we = eta[i:i + 4096], w[i:i + 4096]
        base = _sinc4(e)[None, :] * np.cos(np.outer(np.arange(kmax), e))
        full += base @ we
        slope += base @ (we * e ** 2)
        delta += base @ (we[:, None] * -np.expm1(-np.outer(e ** 2, t)))
    # D(t) = sum_m R(m) [prod_i full - prod_i (full - delta)], telescoped;
    # a block of t at a time
    d_t = np.zeros(len(t))
    d_slope = 0.0
    for i in range(n):
        right = np.prod([full[absm[j]] for j in range(i + 1, n)], axis=0) \
            if i + 1 < n else np.ones(len(rr))
        for c in range(0, len(t), 32):
            cols = slice(c, c + 32)
            left = delta[absm[i], cols]
            for j in range(i):
                left = left * (full[absm[j]][:, None] - delta[absm[j], cols])
            d_t[cols] += (rr * right) @ left
        others = np.prod([full[absm[j]] for j in range(n) if j != i], axis=0)
        d_slope += float(np.sum(rr * others * slope[absm[i]]))
    f_cube = float(np.sum(rr * np.prod([full[m] for m in absm], axis=0)))
    inner = float(np.sum(wv * t ** -s * d_t)) + d_slope * t_lo ** (1.0 - s) / (1.0 - s) \
        + f_cube * t_hi ** -s / s \
        - float(np.sum(rr)) * math.pi ** (n / 2) * t_hi ** (-s - n / 2) / (s + n / 2)
    total = s / math.gamma(1.0 - s) * inner
    bval = [np.array([2.0 * math.pi * _BSPLINE_AT.get(int(k), 0.0) for k in m]) for m in absm]
    b2val = [np.array([-2.0 * math.pi * _BSPLINE2_AT.get(int(k), 0.0) for k in m]) for m in absm]
    for i in range(n):
        rest = [j for j in range(n) if j != i]
        q0 = np.prod([bval[j] for j in rest], axis=0)
        q2 = sum(b2val[j] * np.prod([bval[l] for l in rest if l != j], axis=0)
                 for j in rest)
        for k in range(kmax):
            sel = absm[i] == k
            c0, c2 = float(np.sum(rr[sel] * q0[sel])), float(np.sum(rr[sel] * q2[sel]))
            # sin^4(eta/2) cos(k eta) as a sum of cosines
            terms = {}
            for j, coef in ((k, 3 / 8), (k - 1, -1 / 4), (k + 1, -1 / 4),
                            (k - 2, 1 / 16), (k + 2, 1 / 16)):
                terms[abs(j)] = terms.get(abs(j), 0.0) + coef
            for j, coef in terms.items():
                total += 32.0 * coef * (c0 * _cos_tail(2 * s - 4, j, cube)
                                        + s * c2 * _cos_tail(2 * s - 6, j, cube))
    const = math.pi ** (n / 2) * math.gamma(1 - s) / (s * 4 ** s * math.gamma(n / 2 + s))
    semi = 2.0 * const * (2.0 * math.pi) ** -n * h ** (n - 2 * s) * total
    l2 = h ** n * float(np.sum(rr * np.prod([bv / (2.0 * math.pi) for bv in bval], axis=0)))
    return semi, l2


def fourier_pair_integral(values, h, s, b):
    """The grid field's pair integral over R^N with the weight t^-(N+2s) on
    the window (0, b): fourier_seminorm less its part beyond b, which is
    2 ||u||^2 |S^(N-1)| b^-2s / 2s."""
    semi, l2 = fourier_seminorm(values, h, s)
    return semi - 2.0 * l2 * sphere_measure(values.ndim - 1) * b ** (-2.0 * s) / (2.0 * s)


def box_escape_2d(x, lo, hi, sigma, b):
    """Phi_E(x) = int_0^(2 pi) [rho^(2-sigma) - b^(2-sigma)]_+ / (sigma-2)
    d theta for the box E = [lo, hi] in 2D, rho the distance from x to the
    box's edge along (cos theta, sin theta), by scipy quad with the corner
    directions as breakpoints."""
    x, lo, hi = (np.asarray(v, dtype=float) for v in (x, lo, hi))

    def g(theta):
        d = np.array([math.cos(theta), math.sin(theta)])
        with np.errstate(divide="ignore"):
            dist = np.where(d > 0, (hi - x) / d, np.where(d < 0, (lo - x) / d, np.inf))
        rho = float(np.min(dist))
        return max(rho ** (2.0 - sigma) - b ** (2.0 - sigma), 0.0) / (sigma - 2.0)
    corners = sorted(math.atan2(cy - x[1], cx - x[0]) % (2.0 * math.pi)
                     for cx in (lo[0], hi[0]) for cy in (lo[1], hi[1]))
    return sciint.quad(g, 0.0, 2.0 * math.pi, points=corners, limit=200,
                       epsabs=1e-13, epsrel=1e-12)[0]


def grid_weighted_l2_2d(f, weight, order=4):
    """int |u|^2 weight(x) dx for a 2D grid field: Gauss-Legendre of the
    given order on every cell between adjacent centers, the zero ring
    included, where u is bilinear."""
    spec = f.payload["spec"]
    x, w = np.polynomial.legendre.leggauss(order)
    total = 0.0
    axes = [np.asarray(spec.origin[i]) + (np.arange(-1, spec.extent[i] + 1) + 0.5)
            * spec.spacing[i] for i in range(2)]
    for x0, x1 in zip(axes[0][:-1], axes[0][1:]):
        for y0, y1 in zip(axes[1][:-1], axes[1][1:]):
            px = 0.5 * (x0 + x1) + 0.5 * (x1 - x0) * x
            py = 0.5 * (y0 + y1) + 0.5 * (y1 - y0) * x
            pts = np.stack(np.meshgrid(px, py, indexing="ij"), axis=-1).reshape(-1, 2)
            u2 = np.sum(eval_field(f, pts) ** 2, axis=-1)
            wt = np.outer(w, w).ravel() * 0.25 * (x1 - x0) * (y1 - y0)
            total += float(np.sum(wt * u2 * np.array([weight(p) for p in pts])))
    return total


def fourier_seminorm_steps(steps, eps, s):
    """([u]^2, ||u||^2) for the step sum u = sum_j amp_j 1_[a_j, b_j] mollified
    by the tent at scale eps, on R: [u]^2 = int int |u(x)-u(y)|^2
    |x-y|^-(1+2s) dx dy, 0 < s < 1.

    The N = 1 case of fourier_seminorm's identity (Di Nezza-Palatucci-
    Valdinoci 2012, Prop. 3.4): [u]^2 = 2 C / (2 pi) int |xi|^2s |u^|^2 d xi,
    with |u^(xi)|^2 = |P(xi)|^2 sinc^4(eps xi / 2) / xi^2 and
    P(xi) = sum_j amp_j (e^(-i xi a_j) - e^(-i xi b_j)).  On [0, X], X = 2/eps,
    by panel Gauss-Legendre, with P / xi = 2i sum_j amp_j e^(-i xi m_j)
    sin(xi h_j) / xi for the midpoints m_j and half-lengths h_j.  Beyond X,
    |P|^2 = sum_m R_m cos(d_m xi) and sinc^4(eps xi / 2) = 16 (3/8 -
    cos(eps xi)/2 + cos(2 eps xi)/8) / (eps xi)^4 make the integrand a finite
    sum of c xi^a cos(w xi), each integrated by scipy's Fourier-integral
    quad."""
    freq, coef = [], []
    for aj, bj, amp_j in steps:
        for ak, bk, amp_k in steps:
            dot = float(np.dot(np.atleast_1d(amp_j), np.atleast_1d(amp_k)))
            for d, sign in ((aj - ak, 1.0), (aj - bk, -1.0), (bj - ak, -1.0), (bj - bk, 1.0)):
                freq.append(abs(d))
                coef.append(sign * dot)
    top = 2.0 / eps
    width = min(0.5, 2.0 / (max(freq) + 2.0))
    edges = np.concatenate([[0.0], width * 2.0 ** -np.arange(30, 0, -1.0),
                            np.arange(width, top, width), [top]])
    xi, w = _legendre_panels(edges, 10)
    p_over_xi = sum(np.outer(np.atleast_1d(amp), (b - a) * np.exp(-0.5j * xi * (a + b))
                             * np.sinc(0.5 * xi * (b - a) / math.pi))
                    for a, b, amp in steps)
    head = w * np.sum(np.abs(p_over_xi) ** 2, axis=0) * _sinc4(eps * xi)

    def transform(power):
        # 2 int_0^inf xi^power |P(xi) / xi|^2 sinc^4(eps xi / 2) d xi
        total = float(np.sum(head * xi ** power))
        with warnings.catch_warnings():
            # at this epsabs quad flags some cycles as roundoff-limited; its
            # own error estimates stay near 1e-13 of each term
            warnings.simplefilter("ignore", sciint.IntegrationWarning)
            for f0, c0 in zip(freq, coef):
                for k, ck in ((0, 3 / 8), (1, -1 / 2), (2, 1 / 8)):
                    for om in (f0 - k * eps, f0 + k * eps):
                        total += 8.0 * c0 * ck / eps ** 4 * _cos_tail(
                            power - 6.0, om, top, epsabs=1e-15 * top ** (power - 5.0))
        return 2.0 * total
    const = math.sqrt(math.pi) * math.gamma(1 - s) / (s * 4 ** s * math.gamma(0.5 + s))
    semi = 2.0 * const / (2.0 * math.pi) * transform(2.0 * s)
    return semi, transform(0.0) / (2.0 * math.pi)


def region_moments_four_matrix(f):
    """The lattice engine's box-term moments of a grid field, per axis
    {d: (ext, degree + 1)}, with one interpolation matrix per hat-pair part:
    the shape 6u(1 - u) at c_k -+ h u for d = -+1, and 1.5(1 - u)^2 at
    c_k + h u and at c_k - h u for d = 0, u the Gauss-Legendre nodes on
    [0, 1] and c_k the cell centers."""
    from besovlab.fields import support_bbox
    from besovlab.quadrature import _PHI_DEGREE, _cheb_interp, _gl
    spec = f.payload["spec"]
    lo_s, hi_s = support_bbox(f)
    n, h = len(lo_s), float(spec.spacing[0])
    degree = _PHI_DEGREE[n]
    mid, half = 0.5 * (hi_s + lo_s), 0.5 * (hi_s - lo_s)
    gx, gw = _gl(degree // 2 + 2)
    u, wu = 0.5 * (1.0 + gx), 0.5 * gw
    pieces = {-1: [(-1.0, 6.0 * u * (1.0 - u))], 1: [(1.0, 6.0 * u * (1.0 - u))],
              0: [(1.0, 1.5 * (1.0 - u) ** 2), (-1.0, 1.5 * (1.0 - u) ** 2)]}
    moments = []
    for i in range(n):
        centers = lo_s[i] + h * (np.arange(spec.extent[i]) + 1.0)
        per = {}
        for d, parts in pieces.items():
            per[d] = sum(np.einsum("j,kja->ka", wu * shape, _cheb_interp(
                degree, ((centers[:, None] + sign * h * u - mid[i]) / half[i]).ravel()
            ).reshape(len(centers), len(u), -1)) for sign, shape in parts)
        moments.append(per)
    return moments


def weighted_quad(h, weight, a, b, lead, kinks=()):
    """int_a^b w(t) t^lead h(t) dt by quad, w a PiecewisePower and h bounded:
    split at w's piece ends and the kinks, a part from t = 0 with QAWS's
    weight t^(power + lead), any other part in ln t."""
    total = 0.0
    for lo, hi, coef, power in weight.pieces:
        lo, hi = max(lo, a), min(hi, b)
        if lo >= hi:
            continue
        cuts = sorted({lo, hi} | {k for k in kinks if lo < k < hi})
        for t0, t1 in zip(cuts[:-1], cuts[1:]):
            if t0 == 0.0:
                part = sciint.quad(h, 0.0, t1, weight="alg", wvar=(power + lead, 0.0),
                                   epsabs=0.0, epsrel=1e-13, limit=200)[0]
            else:
                # in ln t, which keeps a part from t0 << t1 smooth
                part = sciint.quad(lambda v: math.exp((power + lead + 1.0) * v) * h(math.exp(v)),
                                   math.log(t0), math.log(t1), epsabs=0.0, epsrel=1e-13,
                                   limit=200)[0]
            total += coef * part
    return total


def indicator_pair_integral(shape, amp, q, weight, a, b):
    """int_a^b w(t) t^(N-1) |amp|^q S(t) dt by weighted_quad, split where S
    kinks, for the indicator of a ball or box.  A ball's S is
    H^(N-1)(S^(N-1)) times its symmetric difference, here in the forms
    4 r^2 (asin x + x sqrt(1 - x^2)), x = t / 2r, and 2 pi t (r^2 - t^2 / 12);
    a box's is the package's _box_sphere_sum, closed form in 2D and on polar
    panels of order 64 in 3D."""
    n = shape.dim
    if shape.kind == "ball":
        r = shape.radius
        kinks = [2.0 * r]

        def s_over_t(t):
            d = min(t, 2.0 * r)
            x = d / (2.0 * r)
            if n == 2:
                per_d = 2.0 * r * ((math.asin(x) / x if x > 0.0 else 1.0) + math.sqrt(1.0 - x * x))
            else:
                per_d = 2.0 * math.pi * (r * r - d * d / 12.0)
            return sphere_measure(n) * per_d * (d / t if t > 0.0 else 1.0)
    else:
        side = np.asarray(shape.hi) - np.asarray(shape.lo)
        kinks = [float(np.linalg.norm(side[list(c)])) for k in range(1, n + 1)
                 for c in itertools.combinations(range(n), k)]

        def s_over_t(t):
            t = max(t, 1e-200)
            return float(_box_sphere_sum(side, np.array([t]), 64)[0]) / t
    return amp ** q * weighted_quad(s_over_t, weight, a, b, n, kinks)


def _tent_g_poly(sign, near):
    """G = |.| * A for the tent's autocorrelation A, on one side (sign) of 0,
    as exact coefficients in x, lowest first: 7/15 + 2x^2/3 - x^4/6 +
    |x|^5/20 for |x| <= 1 (near 1), |x| + (2 - |x|)^5/60 for 1 <= |x| <= 2
    (near 2), |x| beyond (near 0)."""
    f = Fraction
    if near == 1:
        return [f(7, 15), 0, f(2, 3), 0, f(-1, 6), sign * f(1, 20)]
    if near == 2:
        # |x| + (2 - |x|)^5 / 60, |x| = sign x
        fifth = [f(math.comb(5, j) * 2 ** (5 - j) * (-sign) ** j, 60) for j in range(6)]
        return [fifth[0], fifth[1] + sign] + fifth[2:]
    return [0, sign]


def _poly_shift(c, scale, offset):
    """Exact coefficients in t of sum_j c_j ((t - offset) / scale)^j."""
    out = [Fraction(0)] * len(c)
    for j, cj in enumerate(c):
        for i in range(j + 1):
            out[i] += cj * math.comb(j, i) * (-offset) ** (j - i) / scale ** j
    return out


def steps_pair_integral_mp(steps, eps, s, window, region=None, dps=50):
    """int int_E |u(x) - u(y)|^2 |x - y|^-s dx dy over a <= |x - y| <= b, as an
    mpmath number good to dps digits, for the step sum u = sum_j amp_j
    1_[a_j, b_j] mollified by the tent at eps; E is R, or an interval
    region = (lo, hi) strictly around u's support.

    Over R it is 2 int_a^b t^-s F(t) dt with F(t) = sum_{i,k} c_i . c_k
    (G_eps(t - x_k + x_i) - G_eps(x_k - x_i)) for the jumps c_i of u at x_i,
    G_eps(x) = eps G(x / eps) and G of _tent_g_poly.  Between consecutive
    points x_k - x_i + eps m, m = -2..2, F is a polynomial in t: its exact
    rational coefficients are integrated term by term, in enough digits to
    absorb their cancellation.  E subtracts 2 int |u(x)|^2 Phi(x) dx, Phi(x)
    the mass of t^-s over [a, b] beyond either edge of E, by mpmath.quad on
    the pieces where the integrand is smooth."""
    f = Fraction
    jumps = {}
    for a_j, b_j, amp in steps:
        amp = [f(float(v)) for v in np.atleast_1d(amp)]
        for x, sign in ((f(a_j), 1), (f(b_j), -1)):
            jumps[x] = [u + sign * v for u, v in zip(jumps.get(x, [0] * len(amp)), amp)]
    pairs = [(xk - xi, sum(u * v for u, v in zip(ci, ck)))
             for xi, ci in jumps.items() for xk, ck in jumps.items()]
    e, (a, b) = f(eps), (f(window[0]), f(window[1]))

    def g_eps(x):
        # G_eps on the piece that holds x, as exact coefficients in t
        z = float(x / e)
        near = 1 if abs(z) < 1 else 2 if abs(z) < 2 else 0
        return [e * c for c in _poly_shift(_tent_g_poly(1 if z >= 0 else -1, near), e, 0)]

    def mp(x):
        return mpmath.mpf(x.numerator) / x.denominator

    cuts = sorted({a, b} | {d + m * e for d, _ in pairs for m in range(-2, 3) if a < d + m * e < b})
    shifts = max(abs(d) for d, _ in pairs) / e
    total = mpmath.mpf(0)
    with mpmath.workdps(dps + 10 + 5 * math.ceil(math.log10(float(shifts) + 1.0))):
        s_mp = mpmath.mpf(s)
        for t0, t1 in zip(cuts[:-1], cuts[1:]):
            mid = (t0 + t1) / 2
            poly = [f(0)] * 6
            for d, p in pairs:
                # G_eps(t - d) on this piece, less G_eps(d)
                for j, c in enumerate(_poly_shift(g_eps(mid - d), 1, d)):
                    poly[j] += p * c
                poly[0] -= p * sum(c * d ** j for j, c in enumerate(g_eps(d)))
            for j, c in enumerate(poly):
                power = 1 - s_mp + j
                if c == 0:
                    continue
                if t0 == 0 and power <= 0:
                    raise ValueError("divergent core")
                if power == 0:
                    total += mp(c) * (mpmath.log(mp(t1)) - mpmath.log(mp(t0)))
                else:
                    total += mp(c) * (mp(t1) ** power - mp(t0) ** power) / power
    if region is None:
        return 2 * total
    with mpmath.workdps(dps + 10):
        lo_e, hi_e = mpmath.mpf(region[0]), mpmath.mpf(region[1])
        a_mp, b_mp, e_mp, s_mp = mp(a), mp(b), mp(e), mpmath.mpf(s)
        amps = [[mpmath.mpf(float(v)) for v in np.atleast_1d(amp)] for _, _, amp in steps]

        def mass(lo):
            # int_lo^b t^-s dt, 0 at and past b
            if lo >= b_mp:
                return mpmath.mpf(0)
            if s_mp == 1:
                return mpmath.log(b_mp / lo)
            return (lo ** (1 - s_mp) - b_mp ** (1 - s_mp)) / (s_mp - 1)

        def cdf(v):
            v = min(max(v, -1), 1)
            return (1 + v) ** 2 / 2 if v <= 0 else 1 - (1 - v) ** 2 / 2

        def integrand(x):
            u = [0] * len(amps[0])
            for (a_j, b_j, _), amp in zip(steps, amps):
                bump = cdf((x - a_j) / e_mp) - cdf((x - b_j) / e_mp)
                u = [v + c * bump for v, c in zip(u, amp)]
            return sum(v * v for v in u) * (mass(max(a_mp, hi_e - x)) + mass(max(a_mp, x - lo_e)))

        xs = [float(x) for x in jumps]
        x_lo, x_hi = min(xs) - eps, max(xs) + eps
        pts = {x + m * eps for x in xs for m in (-1, 0, 1)} | \
            {region[1] - window[0], region[1] - window[1], region[0] + window[0],
             region[0] + window[1]}
        pts = sorted(mpmath.mpf(p) for p in pts if x_lo <= p <= x_hi)
        return 2 * (total - mpmath.quad(integrand, pts))
