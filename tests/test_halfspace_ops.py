"""Operator calculus on the half-space through the parity extensions."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace_spectral import (
    BC_DIRICHLET,
    BC_NEUMANN,
    BoundaryTagError,
    ConfigError,
    HalfField,
    Multiplier,
    NumericalGuardError,
    OP_DIRICHLET,
    OP_NEUMANN,
    SpaceSpec,
    apply_multiplier,
    boundary_trace,
    bump,
    derivative_multiplier,
    extend_for,
    frac_power,
    fractional_laplacian,
    integrate,
    lp_norm,
    make_family,
    make_grid,
    normal_derivative,
    odd_extend,
    restrict,
    sample_half,
    semigroup,
    semigroup_symbol,
    sobolev_norm,
    tangential_derivative,
)
from halfspace_spectral.spectral import _half_multiplier


def _dirichlet_mode(grid, m):
    k = np.pi * m / grid.L
    return sample_half(grid, lambda *c: np.sin(k * c[-1]),
                       bc=BC_DIRICHLET), k


def _neumann_mode(grid, m):
    k = np.pi * m / grid.L
    return sample_half(grid, lambda *c: np.cos(k * c[-1]),
                       bc=BC_NEUMANN), k


# ---------------------------------------------------------------------------
# fractional powers

def test_sine_modes_are_dirichlet_eigenfunctions(grid1d):
    for m in (1, 4, 9):
        f, k = _dirichlet_mode(grid1d, m)
        xi_max = np.pi / grid1d.h
        for s in (0.5, 1.0, 2.0):
            out = frac_power(f, OP_DIRICHLET, s)
            err = np.max(np.abs(out.values - k ** s * f.values))
            assert err < 1e-12 * k ** s + 1e-14 * xi_max ** s
            assert out.bc == BC_DIRICHLET


def test_cosine_modes_are_neumann_eigenfunctions(grid1d):
    for m in (1, 4, 9):
        f, k = _neumann_mode(grid1d, m)
        xi_max = np.pi / grid1d.h
        for s in (0.5, 1.0, 2.0):
            out = frac_power(f, OP_NEUMANN, s)
            err = np.max(np.abs(out.values - k ** s * f.values))
            assert err < 1e-12 * k ** s + 1e-14 * xi_max ** s
            assert out.bc == BC_NEUMANN


def test_eigenfunction_relation_2d(grid2d):
    kx = 2.0 * np.pi / grid2d.L
    kn = 3.0 * np.pi / grid2d.L
    f = sample_half(grid2d, lambda x, y: np.cos(kx * x) * np.sin(kn * y),
                    bc=BC_DIRICHLET)
    lam = (kx ** 2 + kn ** 2) ** 0.6
    out = frac_power(f, OP_DIRICHLET, 1.2)
    assert np.max(np.abs(out.values - lam * f.values)) / lam < 1e-12


def test_negative_power_inverts_positive(grid1d):
    f, k = _dirichlet_mode(grid1d, 5)
    back = frac_power(frac_power(f, OP_DIRICHLET, 0.8), OP_DIRICHLET, -0.8)
    assert np.max(np.abs(back.values - f.values)) < 1e-11


def test_power_norm_identity_against_extension(grid1d):
    # || A^(s/2) f ||_p on the half-space is exactly 2^(-1/p) times the
    # box norm of the extension operator output, sample for sample
    hf = sample_half(grid1d, lambda x: x * bump(x, 4.0, 2.0),
                     bc=BC_DIRICHLET)
    p, s = 3.0, 0.5
    lhs = 2.0 ** (1.0 / p) * lp_norm(frac_power(hf, OP_DIRICHLET, s), p)
    box = fractional_laplacian(odd_extend(hf), s)
    rhs = lp_norm(box, p)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=0.0)


def test_unknown_operator_rejected(grid1d):
    hf = sample_half(grid1d, lambda x: x)
    with pytest.raises(ConfigError):
        frac_power(hf, "robin", 1.0)


@pytest.mark.parametrize("s", [3.0, 3.5, 4.0])
def test_high_order_power_on_the_finest_rung_is_not_a_guard_fault(s):
    # at N = 131072 the imaginary roundoff of the |xi|^s round trip
    # outgrows 1e-10 of the spectral peak, yet the symbol is exactly
    # Hermitian and the operator is legitimate
    g = make_grid(1, 16.0, 131072)
    f = make_family("counterexample", g, OP_DIRICHLET, 0, 1)[0]
    out = frac_power(f, OP_DIRICHLET, s)
    assert np.all(np.isfinite(out.values))


def test_dirichlet_power_refuses_neumann_tag(grid1d):
    f, _ = _neumann_mode(grid1d, 3)
    with pytest.raises(BoundaryTagError):
        frac_power(f, OP_DIRICHLET, 1.0)


# ---------------------------------------------------------------------------
# semigroups

def test_heat_flow_decays_eigenmode(grid1d):
    f, k = _dirichlet_mode(grid1d, 6)
    t = 0.4
    out = semigroup(f, OP_DIRICHLET, t)
    ref = np.exp(-t * k ** 2) * f.values
    assert np.max(np.abs(out.values - ref)) < 1e-13


def test_fractional_flow_order_one(grid1d):
    f, k = _neumann_mode(grid1d, 6)
    t = 0.4
    out = semigroup(f, OP_NEUMANN, t, s=1.0)
    ref = np.exp(-t * k) * f.values
    assert np.max(np.abs(out.values - ref)) < 1e-13


def test_heat_flow_conserves_mass_with_neumann_walls(grid1d):
    hf = sample_half(grid1d, lambda x: bump(x, 5.0, 1.5), bc=BC_NEUMANN)
    m0 = integrate(hf)
    m1 = integrate(semigroup(hf, OP_NEUMANN, 0.5))
    assert abs(m1 - m0) / m0 < 1e-13


def test_heat_flow_loses_mass_through_dirichlet_wall(grid1d):
    hf = sample_half(grid1d, lambda x: bump(x, 2.0, 1.5), bc=BC_DIRICHLET)
    m0 = integrate(hf)
    m1 = integrate(semigroup(hf, OP_DIRICHLET, 1.0))
    assert m1 < m0
    assert (m0 - m1) / m0 > 0.1    # the bump sits near the absorbing wall


def test_heat_flow_is_an_l2_contraction(grid1d):
    hf = sample_half(grid1d, lambda x: bump(x, 3.0, 1.0), bc=BC_DIRICHLET)
    before = lp_norm(hf, 2.0)
    after = lp_norm(semigroup(hf, OP_DIRICHLET, 0.2), 2.0)
    assert after < before


def test_semigroup_order_validation(grid1d):
    hf = sample_half(grid1d, lambda x: bump(x, 3.0, 1.0))
    with pytest.raises(ConfigError):
        semigroup(hf, OP_DIRICHLET, 0.1, s=2.5)
    with pytest.raises(ConfigError):
        semigroup(hf, OP_DIRICHLET, 0.1, s=0.0)
    with pytest.raises(ConfigError):
        semigroup(hf, OP_DIRICHLET, -0.1)


# ---------------------------------------------------------------------------
# derivatives and the trace

def test_normal_derivative_of_sine_swaps_tag(grid1d):
    f, k = _dirichlet_mode(grid1d, 5)
    out = normal_derivative(f)
    assert out.bc == BC_NEUMANN
    ref = sample_half(grid1d, lambda x: k * np.cos(k * x))
    assert np.max(np.abs(out.values - ref.values)) < 1e-12 * k


def test_normal_derivative_of_cosine_swaps_tag(grid1d):
    f, k = _neumann_mode(grid1d, 5)
    out = normal_derivative(f)
    assert out.bc == BC_DIRICHLET
    ref = sample_half(grid1d, lambda x: -k * np.sin(k * x))
    assert np.max(np.abs(out.values - ref.values)) < 1e-12 * k


def test_normal_derivative_needs_a_tag(grid1d):
    hf = sample_half(grid1d, lambda x: x)
    with pytest.raises(BoundaryTagError):
        normal_derivative(hf)


def test_tangential_derivative_preserves_tag(grid2d):
    kx = 2.0 * np.pi / grid2d.L
    f = sample_half(grid2d,
                    lambda x, y: np.cos(kx * x) * np.sin(np.pi * y / 8.0),
                    bc=BC_DIRICHLET)
    out = tangential_derivative(f, 1)
    assert out.bc == BC_DIRICHLET
    ref = sample_half(grid2d,
                      lambda x, y: -kx * np.sin(kx * x)
                      * np.sin(np.pi * y / 8.0))
    assert np.max(np.abs(out.values - ref.values)) < 1e-12 * kx


def test_tangential_derivative_untagged_is_fine(grid2d):
    f = sample_half(grid2d, lambda x, y: np.cos(np.pi * x / 4.0)
                    * bump(y, 3.0, 1.0))
    out = tangential_derivative(f, 1)
    assert out.bc is None


def test_tangential_axis_n_routes_to_normal(grid2d):
    f = sample_half(grid2d,
                    lambda x, y: np.cos(np.pi * x / 4.0)
                    * np.sin(np.pi * y / 8.0), bc=BC_DIRICHLET)
    a = tangential_derivative(f, 2)
    b = normal_derivative(f)
    assert a.bc == b.bc == BC_NEUMANN
    assert np.array_equal(a.values, b.values)


def test_tangential_axis_out_of_range(grid2d):
    f = sample_half(grid2d, lambda x, y: x * y)
    with pytest.raises(ConfigError):
        tangential_derivative(f, 0)
    with pytest.raises(ConfigError):
        tangential_derivative(f, 3)


def test_trace_extrapolates_to_the_wall(grid1d):
    # linear fields hit the trace exactly on the staggered layout
    assert boundary_trace(sample_half(grid1d, lambda x: x)) == 0.0
    assert boundary_trace(
        sample_half(grid1d, lambda x: np.full_like(x, 2.5))) == 2.5
    lin = sample_half(grid1d, lambda x: 3.0 * x + 1.25)
    assert boundary_trace(lin) == pytest.approx(1.25, abs=1e-13)


def test_trace_second_order_error(grid1d):
    quad_err = boundary_trace(sample_half(grid1d, lambda x: x ** 2))
    assert quad_err == pytest.approx(-0.75 * grid1d.h ** 2, rel=1e-10)


def test_trace_shape_2d(grid2d):
    f = sample_half(grid2d, lambda x, y: np.cos(x) * (1.0 + y))
    tr = boundary_trace(f)
    assert tr.shape == (grid2d.N,)
    ref = np.cos(grid2d.axis_coords())
    assert np.max(np.abs(tr - ref)) < 1e-6


# ---------------------------------------------------------------------------
# property checks

@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=30),
       st.floats(min_value=0.2, max_value=2.4,
                 allow_nan=False, allow_infinity=False),
       st.sampled_from([OP_DIRICHLET, OP_NEUMANN]))
def test_eigenfunction_property(m, s, op):
    g = make_grid(1, 16.0, 512)
    k = np.pi * m / g.L
    if op == OP_DIRICHLET:
        f = sample_half(g, lambda x: np.sin(k * x), bc=BC_DIRICHLET)
    else:
        f = sample_half(g, lambda x: np.cos(k * x), bc=BC_NEUMANN)
    out = frac_power(f, op, s)
    assert np.max(np.abs(out.values - k ** s * f.values)) < 1e-10 * k ** s


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=0.05, max_value=2.0,
                 allow_nan=False, allow_infinity=False))
def test_neumann_mass_conservation_property(t):
    g = make_grid(1, 16.0, 512)
    hf = sample_half(g, lambda x: bump(x, 4.0, 2.0), bc=BC_NEUMANN)
    m0 = integrate(hf)
    m1 = integrate(semigroup(hf, OP_NEUMANN, t))
    assert abs(m1 - m0) / m0 < 1e-12


# ---------------------------------------------------------------------------
# the half-space transform against the method of images
#
# The operators are defined by the method of images and computed by the
# half-length sine/cosine transform; the image route (extend, box
# multiplier, restrict) is the oracle.  Both round at the top of the band,
# so the honest floor is the one test_eigenmode_scaling_exact documents:
# 1e-14 * xi_max^s relative to sup|f|, with s the order of the symbol.

_ORACLE_GRIDS = {1: (16.0, 1024), 2: (8.0, 64), 3: (8.0, 32)}


def _oracle_input(n, op):
    g = make_grid(n, *_ORACLE_GRIDS[n])
    rng = np.random.default_rng(100 * n + len(op))
    # unstructured samples excite every mode, the Nyquist ones included
    return HalfField(g, rng.standard_normal((g.N,) * (n - 1) + (g.N // 2,)),
                     op)


def _oracle_cases(hf, op):
    """(name, half-space result, image-route result, symbol order)."""
    g, n = hf.grid, hf.grid.n
    ext = extend_for(hf, op)
    other = BC_NEUMANN if op == BC_DIRICHLET else BC_DIRICHLET
    orders = (-1.0, 0.5, 1.3, 2.5) if op == OP_DIRICHLET else (0.5, 1.3, 2.5)
    for s in orders:
        yield (f"frac_power s={s}", frac_power(hf, op, s),
               restrict(fractional_laplacian(ext, s), bc=op), s)
    for t, s in ((0.3, 2.0), (0.05, 0.7)):
        yield (f"semigroup t={t} s={s}", semigroup(hf, op, t, s),
               restrict(semigroup_symbol(ext, t, s), bc=op), 0.0)
    yield ("normal_derivative", normal_derivative(hf),
           restrict(apply_multiplier(ext, derivative_multiplier(g, n)),
                    bc=other), 1.0)
    for k in range(1, n):
        yield (f"tangential_derivative k={k}", tangential_derivative(hf, k),
               restrict(apply_multiplier(ext, derivative_multiplier(g, k)),
                        bc=op), 1.0)


def _bessel(s):
    return Multiplier(
        lambda *mesh: (1.0 + sum(xi ** 2 for xi in mesh)) ** (s / 2.0), 1.0)


@pytest.mark.parametrize("op", [OP_DIRICHLET, OP_NEUMANN])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_operators_agree_with_the_image_oracle(n, op):
    hf = _oracle_input(n, op)
    xi_max = np.pi / hf.grid.h
    sup = np.max(np.abs(hf.values))
    for name, half, box, s in _oracle_cases(hf, op):
        assert half.bc == box.bc, name
        err = np.max(np.abs(half.values - box.values))
        assert err <= 1e-14 * max(1.0, xi_max ** s) * sup, name
    # inhomogeneous Sobolev norms: the same floor, integrated over the
    # half-space, on top of the L^p norm's own rounding
    volume = hf.grid.h ** n * hf.values.size
    for s in (-1.0, 1.5):
        for p in (2.0, 3.0):
            value = sobolev_norm(hf, SpaceSpec("sobolev", s, p, None, False,
                                               op))
            oracle = lp_norm(restrict(apply_multiplier(
                extend_for(hf, op), _bessel(s))), p)
            floor = 1e-14 * max(1.0, (1.0 + xi_max ** 2) ** (s / 2.0)) \
                * sup * volume ** (1.0 / p)
            assert abs(value - oracle) <= floor + 1e-14 * oracle, (s, p)


def test_each_operator_call_is_one_half_size_transform_pair(monkeypatch):
    # one forward and one inverse FFT of N^(n-1) * N/2 points per call;
    # the transforms are looked up on numpy.fft at call time
    g = make_grid(3, 8.0, 32)
    f = make_family("bump_random", g, OP_DIRICHLET, 0, 1)[0]
    sizes = []
    for name in ("fftn", "ifftn"):
        def record(a, *args, _name=name, _orig=getattr(np.fft, name), **kw):
            sizes.append((_name, np.size(a)))
            return _orig(a, *args, **kw)
        monkeypatch.setattr(np.fft, name, record)
    calls = {
        "frac_power": lambda: frac_power(f, OP_DIRICHLET, 1.5),
        "semigroup": lambda: semigroup(f, OP_DIRICHLET, 0.1),
        "normal_derivative": lambda: normal_derivative(f),
        "tangential_derivative": lambda: tangential_derivative(f, 2),
        "sobolev_norm": lambda: sobolev_norm(
            f, SpaceSpec("sobolev", 1.0, 2.0, None, False, OP_DIRICHLET)),
    }
    for label, call in calls.items():
        sizes.clear()
        call()
        assert sizes == [("fftn", 32 * 32 * 16), ("ifftn", 32 * 32 * 16)], \
            label


# ---------------------------------------------------------------------------
# guards of the half-space route

def test_neumann_negative_order_needs_zero_half_space_mean(grid1d):
    # regression guard: the half-field mean is the even extension's mean,
    # so the message and the exception are the image route's
    hf = sample_half(grid1d, lambda x: bump(x, 4.0, 2.0), bc=BC_NEUMANN)
    with pytest.raises(ConfigError,
                       match="negative-order power s=-0.5 needs a zero-mean"):
        frac_power(hf, OP_NEUMANN, -0.5)
    centred = hf.with_values(hf.values - np.mean(hf.values))
    back = frac_power(frac_power(centred, OP_NEUMANN, -0.5), OP_NEUMANN, 0.5)
    assert np.max(np.abs(back.values - centred.values)) < 1e-12


def test_dirichlet_negative_order_has_no_zero_mode(grid1d):
    # regression guard: the sine modes have no zero mode, so a field with a
    # large half-space mean is a legitimate input
    hf = sample_half(grid1d, lambda x: bump(x, 4.0, 2.0), bc=BC_DIRICHLET)
    assert abs(np.mean(hf.values)) > 0.1 * np.max(hf.values)
    back = frac_power(frac_power(hf, OP_DIRICHLET, -0.5), OP_DIRICHLET, 0.5)
    assert np.max(np.abs(back.values - hf.values)) < 1e-12


@pytest.mark.parametrize("tag, op", [(BC_DIRICHLET, OP_NEUMANN),
                                     (BC_NEUMANN, OP_DIRICHLET)])
def test_contradicting_tags_raise_boundary_tag_error(grid1d, tag, op):
    # regression guard
    hf = sample_half(grid1d, lambda x: bump(x, 4.0, 2.0), bc=tag)
    with pytest.raises(BoundaryTagError):
        frac_power(hf, op, -0.5)
    with pytest.raises(BoundaryTagError):
        semigroup(hf, op, 0.1)


def test_half_space_route_needs_a_staggered_grid():
    # regression guard: the sine/cosine transform, like the reflection,
    # relies on no sample sitting on the wall
    g = make_grid(1, 8.0, 64, stagger=False)
    hf = HalfField(g, np.ones(32), BC_DIRICHLET)
    for call in (lambda: frac_power(hf, OP_DIRICHLET, 1.0),
                 lambda: semigroup(hf, OP_DIRICHLET, 0.1),
                 lambda: normal_derivative(hf)):
        with pytest.raises(ConfigError):
            call()


def test_overflowing_symbol_is_a_config_error(grid2d):
    # regression guard: the finiteness check on the half-size symbol
    f = sample_half(grid2d, lambda x, y: bump(x, 0.0, 2.0) * bump(y, 3.0, 1.5),
                    bc=BC_NEUMANN)
    # and no overflow warning escapes before the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="not finite"):
            frac_power(f, OP_NEUMANN, 400.0)
        with pytest.raises(ConfigError, match="not finite"):
            sobolev_norm(f, SpaceSpec("sobolev", 400.0, 2.0, None, False,
                                      OP_NEUMANN))


@pytest.mark.parametrize("odd", [True, False])
def test_half_size_symbol_hermitian_check_is_exact(grid2d, odd):
    f = sample_half(grid2d, lambda x, y: np.cos(np.pi * x / 4.0)
                    * bump(y, 3.0, 1.0))
    values, g = f.values, f.grid
    # i xi_1 left live on the unpaired tangential Nyquist line
    live = Multiplier(lambda *mesh: 1j * mesh[0], 0.0, "live")
    # real but not even in xi_1
    asym = Multiplier(lambda *mesh: np.where(mesh[0] >= 0, 1.0, 2.0)
                      + 0.0 * mesh[1], 1.0, "asym")
    for bad in (live, asym):
        with pytest.raises(NumericalGuardError, match="Hermitian"):
            _half_multiplier(values, g, bad, odd)
    # the Nyquist-safe derivative passes and matches the image route
    out = _half_multiplier(values, g, derivative_multiplier(g, 1), odd)
    ref = tangential_derivative(f.with_bc(BC_DIRICHLET if odd
                                          else BC_NEUMANN), 1)
    assert np.array_equal(out, ref.values)


def test_complex_symbol_is_refused_in_one_dimension(grid1d):
    # with no tangential axis the check asks for a real symbol
    f = sample_half(grid1d, lambda x: bump(x, 4.0, 2.0), bc=BC_DIRICHLET)
    spin = Multiplier(lambda xi: np.exp(1j * xi), 1.0, "spin")
    with pytest.raises(NumericalGuardError):
        _half_multiplier(f.values, f.grid, spin, True)
