"""The q = 2 lattice engine for grid fields: against the Fourier oracle and
Monte Carlo, its invariances, its region term, and which inputs reach it."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sciint

from besovlab import fields, quadrature
from besovlab.fields import RegionSpec
from besovlab.limits import EpsilonGrid, epsilon_sweep
from besovlab.mollifiers import mollify
from besovlab.quadrature import PiecewisePower, QuadBudget, pair_integral
from besovlab.seminorms import gagliardo_constant_at

from oracles import (box_escape_2d, fourier_pair_integral, grid_field, grid_weighted_l2_2d,
                     region_moments_four_matrix)

PROPERTY = settings(max_examples=15, deadline=None, derandomize=True, database=None)


# (70, 130) splits both the 64 frequency columns (136 of them) and the 64
# lag rows (70) unevenly, (5, 9, 70) the columns (1314) in 3D
@pytest.mark.parametrize("ext,dim_out,s", [((3, 4), 1, 0.5), ((4, 3), 2, 0.3),
                                           ((5, 5), 1, 0.9), ((2, 3, 2), 1, 0.5),
                                           ((3, 2, 2), 2, 0.8), ((70, 130), 2, 0.5),
                                           ((5, 9, 70), 1, 0.5)])
def test_lattice_engine_matches_fourier_oracle(ext, dim_out, s):
    values = np.random.default_rng(sum(ext) + dim_out).standard_normal(ext + (dim_out,))
    # the window must reach across the support for the lattice engine
    n, b = len(ext), max(50.0, 2.0 * 0.37 * math.hypot(*ext))
    ref = fourier_pair_integral(values, 0.37, s, b)
    r = pair_integral(grid_field(values, 0.37), None, PiecewisePower.power_law(n + 2.0 * s),
                      (0.0, b), 2.0)
    assert r.value == pytest.approx(ref, rel=1e-6)
    # the oracle itself is good to about 1e-8
    assert abs(r.value - ref) <= r.error_estimate + 1e-8 * ref
    assert r.evaluations_used == math.prod(ext) and not r.low_confidence


@pytest.mark.parametrize("near", [quadrature._KERNEL_NEAR, 6])
def test_lattice_engine_far_kernel_matches_fourier_oracle(monkeypatch, near):
    # lags up to 39 reach past the kernel table; with a 6-lag table most of
    # the sum comes from the asymptotic series, and the error must cover it
    monkeypatch.setattr(quadrature, "_KERNEL_NEAR", near)
    monkeypatch.setattr(quadrature, "_KERNEL_CACHE", {})
    values = np.random.default_rng(5).standard_normal((40, 36, 1))
    ref = fourier_pair_integral(values, 0.05, 0.5, 50.0)
    r = pair_integral(grid_field(values, 0.05), None, PiecewisePower.power_law(3.0),
                      (0.0, 50.0), 2.0)
    assert r.value == pytest.approx(ref, rel=1e-6)
    assert abs(r.value - ref) <= r.error_estimate + 1e-8 * ref


@st.composite
def grid_fields(draw):
    n = draw(st.sampled_from([2, 3]))
    ext = tuple(draw(st.lists(st.integers(2, 7 if n == 2 else 4), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.standard_normal(ext + (draw(st.integers(1, 2)),))
    h = draw(st.floats(0.05, 0.5))
    origin = rng.uniform(-1.0, 1.0, n)
    s = draw(st.sampled_from([0.3, 0.5, 0.8]))
    return values, h, origin, s


def _value(values, h, origin, s, boxed, shift=0.0):
    """The engine on the grid field, with region None or a box one unit
    around its support, both moved by shift."""
    f = grid_field(values, h, np.asarray(origin) + shift)
    n = f.dim_in
    lo = np.asarray(origin) + shift - h
    hi = lo + h * (np.asarray(values.shape[:-1]) + 2.0)
    region = RegionSpec.box(lo - 1.0, hi + 1.0) if boxed else None
    b = float(np.linalg.norm(hi - lo)) + 2.5
    return pair_integral(f, region, PiecewisePower.power_law(n + 2.0 * s), (0.0, b), 2.0)


@PROPERTY
@given(case=grid_fields(), lam=st.floats(0.05, 20.0), boxed=st.booleans())
def test_lattice_engine_homogeneous_of_degree_two(case, lam, boxed):
    values, h, origin, s = case
    base = _value(values, h, origin, s, boxed)
    scaled = _value(lam * values, h, origin, s, boxed)
    assert scaled.value == pytest.approx(lam ** 2 * base.value, rel=1e-12)
    assert scaled.error_estimate == pytest.approx(lam ** 2 * base.error_estimate, rel=1e-9)


@PROPERTY
@given(case=grid_fields(), cells=st.lists(st.integers(-40, 40), min_size=3, max_size=3),
       boxed=st.booleans())
def test_lattice_engine_invariant_under_whole_cell_shifts(case, cells, boxed):
    values, h, origin, s = case
    shift = h * np.asarray(cells[:values.ndim - 1], dtype=float)
    base = _value(values, h, origin, s, boxed)
    moved = _value(values, h, origin, s, boxed, shift)
    assert moved.value == pytest.approx(base.value, rel=1e-10)


@PROPERTY
@given(case=grid_fields(), boxed=st.booleans())
def test_lattice_engine_adds_over_components(case, boxed):
    values, h, origin, s = case
    parts = [_value(values[..., k:k + 1], h, origin, s, boxed).value
             for k in range(values.shape[-1])]
    whole = _value(values, h, origin, s, boxed).value
    assert whole == pytest.approx(sum(parts), rel=1e-12)


@pytest.mark.parametrize("margin,b", [(0.8, None), (2.0, 1.5)])
def test_lattice_engine_region_term_matches_quadrature(margin, b):
    # the box term is (value without the box - value with it) / 2 =
    # int |u|^2 Phi_E; with b below the box's reach Phi_E clips at b
    values = np.random.default_rng(8).standard_normal((4, 5, 1))
    h, sigma = 0.1, 3.3
    f = grid_field(values, h, (0.0, 0.0))
    lo = np.array([-margin, -margin])
    hi = np.array([0.6, 0.7]) + margin
    if b is None:
        b = float(np.linalg.norm(hi - lo))
    w = PiecewisePower.power_law(sigma)
    boxed = pair_integral(f, RegionSpec.box(lo, hi), w, (0.0, b), 2.0)
    free = pair_integral(f, None, w, (0.0, b), 2.0)
    got = 0.5 * (free.value - boxed.value)
    ref = grid_weighted_l2_2d(f, lambda p: box_escape_2d(p, lo, hi, sigma, b))
    assert got == pytest.approx(ref, rel=1e-6)
    assert abs(got - ref) <= 0.5 * (boxed.error_estimate + free.error_estimate)


@pytest.mark.parametrize("ext,h,origin", [((40, 57), 0.05, (0.1, -0.3)),
                                           ((120, 90), 0.02, (-1.1, 0.3)),
                                           ((9, 12, 7), 0.1, (0.2, -0.5, 0.3)),
                                           ((30, 24, 18), 0.05, (0.4, -0.9, 0.2))])
def test_region_moments_share_one_matrix_per_axis(ext, h, origin):
    # one interpolation matrix per axis serves both neighbours of a cell;
    # its moments are the four-matrix form's up to rounding in the nodes
    values = np.zeros(ext + (1,))
    f = grid_field(values, h, origin)
    lo, hi = fields.support_bbox(f)
    n = len(ext)
    _, moments, _ = quadrature._region_weights(f, RegionSpec.box(lo - 0.5, hi + 0.5), n + 1.0,
                                               float(np.linalg.norm(hi - lo)) + 1.0)
    ref = region_moments_four_matrix(f)
    for i in range(n):
        for d in (-1, 0, 1):
            assert moments[i][d].shape == (ext[i], quadrature._PHI_DEGREE[n] + 1)
            assert np.max(np.abs(moments[i][d] - ref[i][d])) <= 1e-14 * np.max(np.abs(ref[i][d]))


@pytest.mark.parametrize("x", [[0.2, 0.3, 0.4], [-0.5, 0.9, 0.1]])
def test_box_phi_matches_face_quadrature_3d(x):
    # Phi_E(x) as a sum over the faces of int d G(r) r^-3 dA, each by scipy
    # dblquad in the face's own coordinates
    lo, hi = np.array([-1.0, -0.8, -1.2]), np.array([1.1, 1.3, 0.9])
    sigma, b = 4.2, float(np.linalg.norm(hi - lo))
    ref = 0.0
    for i in range(3):
        j, k = [a for a in range(3) if a != i]
        for d in (hi[i] - x[i], x[i] - lo[i]):
            def g(v, u, d=d, j=j, k=k):
                r = math.sqrt(d * d + (u - x[j]) ** 2 + (v - x[k]) ** 2)
                return d * (r ** (3.0 - sigma) - b ** (3.0 - sigma)) / (sigma - 3.0) / r ** 3
            ref += sciint.dblquad(g, lo[j], hi[j], lo[k], hi[k], epsabs=1e-12,
                                  epsrel=1e-11)[0]
    got = quadrature._box_phi(np.array([x]), lo, hi, sigma, b, 16)[0]
    assert got == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("k", [2, 3])
def test_lattice_engine_agrees_with_monte_carlo(disk, tent2, k):
    # the 2D chain's Gagliardo integral at eps = e^-k, with its box region
    u = mollify(disk, tent2, math.exp(-k))
    region = RegionSpec.box([-1.5, -1.5], [1.5, 1.5])
    w, b = PiecewisePower.power_law(3.0), 3.0 * math.sqrt(2.0)
    exact = pair_integral(u, region, w, (0.0, b), 2.0)
    mc = quadrature._pair_integral_mc(u, region, w, 0.0, b, 2.0,
                                      QuadBudget(max_evaluations=1_500_000, rng_seed=11), 7)
    # mc's error is four standard errors plus its core: 0.75 of it allows three
    assert abs(exact.value - mc.value) <= 0.75 * mc.error_estimate
    assert exact.error_estimate <= 1e-3 * exact.value and not exact.low_confidence


def test_lattice_engine_dispatch(disk, tent2):
    budget = QuadBudget(max_evaluations=20_000, rng_seed=1)
    box = RegionSpec.box([-1.5, -1.5], [1.5, 1.5])
    w = PiecewisePower.power_law(3.0)
    for k in (2, 3, 4, 5):     # the 2D chain's Gagliardo rows
        u = mollify(disk, tent2, math.exp(-k))
        assert pair_integral(u, box, w, (0.0, 3.0 * math.sqrt(2.0)), 2.0, budget).path \
            == "lattice"
    u = mollify(disk, tent2, math.exp(-2))
    cases = [(box, PiecewisePower.power_law(2.5), (0.0, 4.3), 1.5),   # q = 1.5
             (box, w, (0.05, 0.5), 2.0),                              # an annulus window
             # a region that clips the support
             (RegionSpec.box([-0.3, -0.3], [0.3, 0.3]), w, (0.0, 1.0), 2.0)]
    for region, weight, window, q in cases:
        assert pair_integral(u, region, weight, window, q, budget).path == "mc"


def test_kernel_table_is_built_once_per_sweep(monkeypatch, disk, tent2, jump_params):
    # the 2D chain's four Gagliardo rows share one (N, s): the first row finds
    # the table cache empty, and one order-10 and one order-5 rule build it
    monkeypatch.setattr(quadrature, "_KERNEL_CACHE", {})
    orders = []
    values = quadrature._kernel_values

    def counted(n, s, ms, order):
        orders.append(order)
        return values(n, s, ms, order)

    monkeypatch.setattr(quadrature, "_kernel_values", counted)
    sweep = epsilon_sweep(lambda e: gagliardo_constant_at(disk, tent2, jump_params, e),
                          EpsilonGrid(math.exp(-2.0), math.exp(-1.0), 4))
    assert all(r.ok for r in sweep.rows)
    assert orders == [10, 5]


def test_fast_len_is_the_next_5_smooth_length():
    from scipy.fft import next_fast_len
    assert [quadrature._fast_len(n) for n in range(1, 20001)] == \
        [next_fast_len(n, real=True) for n in range(1, 20001)]


@pytest.mark.parametrize("boxed", [False, True])
def test_lattice_engine_memory_stays_near_its_spectra(monkeypatch, boxed):
    # the engine holds one array of row spectra and transforms it in place;
    # every other temporary spans a block of about fields._SAMPLE_POINTS
    # values (columns or rows of the transforms), or one read of the grid.
    # Reads of 2^12 points keep the last small next to the spectra, so a
    # second spectrum-sized array would show.
    monkeypatch.setattr(fields, "_SAMPLE_POINTS", 1 << 12)
    ext, dim_out, h = (300, 300), 2, 0.01
    f = grid_field(np.random.default_rng(3).standard_normal(ext + (dim_out,)), h)
    length = [quadrature._fast_len(2 * e - 1) for e in ext]
    spec_bytes = 16 * dim_out * ext[0] * (length[1] // 2 + 1)
    region = RegionSpec.box((-1.0, -1.0), (5.0, 5.0)) if boxed else None
    args = (f, region, PiecewisePower.power_law(3.0), (0.0, 10.0), 2.0)
    pair_integral(*args)        # fills the kernel table's cache
    tracemalloc.start()
    try:
        r = pair_integral(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.evaluations_used == math.prod(ext)
    assert peak <= 2.5 * spec_bytes


@pytest.mark.parametrize("case", ["chain_2d_e-4", "grid_3d"])
def test_lattice_scratch_is_a_fixed_block(disk, tent2, case):
    # at the default read size, what the engine holds beyond its spectra is
    # a fixed block of scratch: grid reads of fields._SAMPLE_POINTS points,
    # evaluated fields._BLOCK_POINTS at a time, and transforms of about
    # _SAMPLE_POINTS values; none of it grows with the grid
    if case == "grid_3d":
        ext = (80, 40, 40)
        f = grid_field(np.random.default_rng(5).standard_normal(ext + (1,)), 0.01)
        args = (f, None, PiecewisePower.power_law(4.0), (0.0, 10.0), 2.0)
    else:
        # the 2D chain's e^-4 Gagliardo row: its region is the disk's box
        f = mollify(disk, tent2, math.exp(-4.0))
        region = fields.default_region(disk)
        lo, hi = region.bbox()
        args = (f, region, PiecewisePower.power_law(3.0),
                (0.0, float(np.linalg.norm(hi - lo))), 2.0)
    ext = f.payload["spec"].extent
    length = [quadrature._fast_len(2 * e - 1) for e in ext]
    spec_bytes = 16 * f.dim_out * ext[0] * math.prod(length[1:-1]) * (length[-1] // 2 + 1)
    assert pair_integral(*args).path == "lattice"     # fills the kernel table's cache
    tracemalloc.start()
    try:
        pair_integral(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - spec_bytes <= 6 * 2 ** 20
