"""Operator calculus on the half-space through the parity extensions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace_spectral import (
    BC_DIRICHLET,
    BC_NEUMANN,
    BoundaryTagError,
    ConfigError,
    OP_DIRICHLET,
    OP_NEUMANN,
    boundary_trace,
    bump,
    extend_for,
    frac_power,
    fractional_laplacian,
    integrate,
    lp_norm,
    make_family,
    make_grid,
    normal_derivative,
    odd_extend,
    sample_half,
    semigroup,
    tangential_derivative,
)


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


def test_tagged_field_agrees_with_extension_route(grid1d):
    hf = sample_half(grid1d, lambda x: x * bump(x, 4.0, 2.0),
                     bc=BC_DIRICHLET)
    s = 1.3
    via_half = frac_power(hf, OP_DIRICHLET, s)
    via_box = fractional_laplacian(odd_extend(hf), s)
    half = grid1d.N // 2
    assert np.array_equal(via_half.values, via_box.values[half:])


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
