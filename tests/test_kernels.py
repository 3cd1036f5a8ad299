import math

import numpy as np
import pytest
from scipy import integrate as sciint

from besovlab.errors import InputError
from besovlab.experiments import default_config, run
from besovlab.kernels import (LOG_EPS_MAX, NegLogEps, RadialKernelFamily,
                              audit_rows, generic_moment, kernel_mass,
                              kernel_profile, kernel_window,
                              log_kernel_moment, support_tail)
from besovlab.quadrature import radial_integral, sphere_measure


def test_trivial_profile_values():
    k = RadialKernelFamily("trivial", 1)
    # 1/(eps * L^1(B_1)) = 1/(0.5 * 2)
    assert kernel_profile(k, 0.5)(0.25) == pytest.approx(1.0, abs=1e-15)
    assert kernel_profile(k, 0.5)(1.0) == 0.0


def test_logarithmic_support():
    k = RadialKernelFamily("logarithmic", 1, omega=0.5)
    eps = math.exp(-10.0)
    lo, hi = kernel_window(k, eps)
    assert lo == pytest.approx(eps)
    assert hi == pytest.approx(10.0 ** -0.5)
    assert kernel_profile(k, eps)(hi * 1.001) == 0.0
    assert kernel_profile(k, eps)((lo + hi) / 2.0) > 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind,kwargs", [
    ("trivial", {}),
    ("logarithmic", {"omega": 0.3}),
    ("logarithmic", {"omega": 0.5}),
    ("logarithmic", {"omega": 0.9}),
    ("sigma_approx", {"sigma_ratio": 0.5}),
])
def test_kernel_mass_unity(n, kind, kwargs):
    k = RadialKernelFamily(kind, n, **kwargs)
    eps_values = [0.25, 0.05, 1e-3] if kind != "logarithmic" else [0.25, 0.05, 1e-3]
    for eps in eps_values:
        r = kernel_mass(k, eps)
        assert abs(r.value - 1.0) <= 1e-12


def test_kernel_mass_against_quadrature():
    # analytic mass cross-checked by actual radial quadrature of the profile
    for k in (RadialKernelFamily("trivial", 2),
              RadialKernelFamily("logarithmic", 2, omega=0.5),
              RadialKernelFamily("sigma_approx", 2, sigma_ratio=0.5)):
        eps = 0.05
        lo, hi = kernel_window(k, eps)
        prof = kernel_profile(k, eps)
        val, _ = sciint.quad(lambda r: float(prof(r)) * r, max(lo, 1e-12), hi,
                             limit=200)
        assert abs(sphere_measure(2) * val - 1.0) <= 1e-9


def test_support_tail_compact_support():
    ktriv = RadialKernelFamily("trivial", 2)
    assert support_tail(ktriv, 0.05, 0.1) == 0.0
    assert support_tail(ktriv, 0.05, 0.01) > 0.0
    klog = RadialKernelFamily("logarithmic", 1, omega=0.5)
    eps = math.exp(-200.0)
    assert support_tail(klog, eps, 0.1) == 0.0


def test_support_tail_monotone_to_zero():
    klog = RadialKernelFamily("logarithmic", 2, omega=0.5)
    tails = [support_tail(klog, NegLogEps(L), 0.1)
             for L in np.geomspace(2.0, 150.0, 12)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert tails[-1] == 0.0
    ksig = RadialKernelFamily("sigma_approx", 2, sigma_ratio=0.5)
    tails = [support_tail(ksig, e, 0.1) for e in np.geomspace(0.2, 1e-3, 8)]
    assert all(a >= b for a, b in zip(tails, tails[1:])) and tails[-1] == 0.0


def test_omega_03_tail_reaches_zero_beyond_float_eps():
    # |ln eps|^{-0.3} <= 0.1 needs |ln eps| >= 10^{10/3}, below float64 eps
    k = RadialKernelFamily("logarithmic", 1, omega=0.3)
    l_zero = 10.0 ** (1.0 / 0.3)
    assert support_tail(k, NegLogEps(1.05 * l_zero), 0.1) == 0.0
    assert support_tail(k, NegLogEps(0.95 * l_zero), 0.1) > 0.0


def test_log_moment_closed_form_vs_quadrature():
    k = RadialKernelFamily("logarithmic", 2, omega=0.5)
    eps, alpha = math.exp(-5.0), 1.0
    closed = log_kernel_moment(eps, 0.5, alpha, 2)
    lo, hi = kernel_window(k, eps)
    val, _ = sciint.quad(lambda r: float(kernel_profile(k, eps)(r))
                         * r ** (2 - 1 - alpha), lo, hi, limit=400)
    quad = eps ** alpha * sphere_measure(2) * val
    assert abs(closed - quad) <= 1e-9
    # and against the exact piecewise-power route
    assert abs(closed - generic_moment(k, eps, alpha)) <= 1e-12


def test_log_moment_monotone_tail_decay():
    moments = [log_kernel_moment(math.exp(-L), 0.5, 1.0, 1)
               for L in np.linspace(2.0, 40.0, 12)]
    tail = moments[-6:]
    assert all(a > b for a, b in zip(tail, tail[1:]))
    assert tail[-1] < 0.05


def test_log_moment_domain_edges():
    with pytest.raises(InputError):
        log_kernel_moment(1.0 / math.e, 0.5, 1.0, 1)   # eps must be < 1/e
    with pytest.raises(InputError):
        log_kernel_moment(0.05, 0.5, -1.0, 1)
    with pytest.raises(InputError):
        log_kernel_moment(0.05, 1.5, 1.0, 1)
    assert log_kernel_moment(LOG_EPS_MAX, 0.5, 1.0, 1) > 0.0


def test_sigma_rule_validity():
    with pytest.raises(InputError):
        RadialKernelFamily("sigma_approx", 1, sigma_ratio=1.0)
    k = RadialKernelFamily("sigma_approx", 1, sigma_ratio=0.5)
    lo, hi = kernel_window(k, 0.2)
    assert lo == pytest.approx(0.1) and hi == pytest.approx(0.3)


def test_eps_range_validation():
    k = RadialKernelFamily("logarithmic", 1, omega=0.5)
    with pytest.raises(InputError):
        kernel_profile(k, 0.5)            # eps > 1/e
    with pytest.raises(InputError):
        kernel_profile(k, 0.0)
    with pytest.raises(InputError):
        kernel_profile(k, 1e-310)         # below the denormal clamp
    with pytest.raises(InputError):
        kernel_profile(RadialKernelFamily("trivial", 1), 0.1)(-1.0)


def test_profile_log_space_no_overflow():
    # N=3 near r = 1e-6 must not overflow the r^-N evaluation
    k = RadialKernelFamily("logarithmic", 3, omega=0.5)
    eps = 1e-7
    val = kernel_profile(k, eps)(1e-6)
    assert np.isfinite(val) and val > 0.0


def test_audit_rows_shape():
    k = RadialKernelFamily("trivial", 2)
    rows = audit_rows(k, [0.2, 0.1, 0.05], deltas=(0.1,), alphas=(1.0,))
    assert {"epsilon", "mass", "mass_err", "tail_0.1", "moment_1"} <= set(rows[0])
    assert all(abs(r["mass"] - 1.0) <= 1e-12 for r in rows)


def test_piecewise_power_profile_matches_direct():
    # closed-form densities at eps = 0.1, N = 2
    eps, sig = 0.1, 0.05
    L = -math.log(eps)
    direct = {
        "trivial": lambda r: np.where(r < eps, 1.0 / (math.pi * eps ** 2), 0.0),
        "logarithmic": lambda r: np.where((r >= eps) & (r < L ** -0.5),
                                          r ** -2.0 / (2.0 * math.pi
                                                       * (L - 0.5 * math.log(L))), 0.0),
        "sigma_approx": lambda r: np.where(np.abs(r - eps) < sig,
                                           1.0 / (r * 2.0 * sig * 2.0 * math.pi), 0.0),
    }
    rs = np.geomspace(1e-3, 0.6, 50)
    for k in (RadialKernelFamily("trivial", 2),
              RadialKernelFamily("logarithmic", 2, omega=0.5),
              RadialKernelFamily("sigma_approx", 2, sigma_ratio=0.5)):
        assert np.allclose(kernel_profile(k, eps)(rs), direct[k.kind](rs),
                           rtol=1e-12, atol=0.0)


def test_default_kernel_audit_experiment(tmp_path):
    report = run(default_config("kernel_audit"), str(tmp_path))
    assert report.passed and len(report.verdicts) == 15
    written = sorted(p.name for p in tmp_path.glob("kernel_audit_N*.csv"))
    assert written == sorted(f"kernel_audit_N{n}_{k}.csv" for n in (1, 2, 3)
                             for k in ("trivial", "logarithmic_w0.5"))
    for name in written:
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0].startswith("neg_log_eps,epsilon,mass,") and len(lines) == 11
