"""Fourier multipliers on the periodic box.

The oracles here are closed forms: exact eigenmodes, the Gaussian
heat solution, the Poisson kernel decay and the Gamma-function
normalization of the real-space kernel.
"""

import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from halfspace_spectral import (
    ConfigError,
    Multiplier,
    NumericalGuardError,
    OP_DIRICHLET,
    OP_NEUMANN,
    SampledField,
    apply_multiplier,
    build_bank,
    bump,
    derivative_multiplier,
    dyadic_block,
    eta_profile,
    extend_for,
    frac_lap_constant,
    fractional_laplacian,
    make_grid,
    restrict,
    sample,
    semigroup_symbol,
    singular_integral_frac_lap,
    smooth_step,
)


def _mode(grid, m, kind="sin"):
    k = np.pi * m / grid.L
    fn = np.sin if kind == "sin" else np.cos
    return sample(grid, lambda x: fn(k * x)), k


# ---------------------------------------------------------------------------
# the multiplier core

def test_eigenmode_scaling_exact(grid1d):
    f, k = _mode(grid1d, 6)
    xi_max = np.pi / grid1d.h
    for s in (0.5, 1.0, 2.0, 2.5):
        out = fractional_laplacian(f, s)
        # rounding in the FFT coefficients gets amplified by the symbol at
        # the top of the band, so the honest floor is eps * xi_max^s
        tol = 1e-12 + 1e-14 * xi_max ** s
        assert np.max(np.abs(out.values - k ** s * f.values)) < tol


def test_order_zero_projects_out_the_mean(grid1d):
    f = sample(grid1d, lambda x: 3.0 + np.sin(np.pi * x / 4.0))
    out = fractional_laplacian(f, 0.0)
    ref = f.values - np.mean(f.values)
    assert np.max(np.abs(out.values - ref)) < 1e-12


def test_orders_compose(grid1d):
    f = sample(grid1d, lambda x: x * bump(x, 0.0, 2.0))
    once = fractional_laplacian(fractional_laplacian(f, 0.7), 0.8)
    direct = fractional_laplacian(f, 1.5)
    scale = np.max(np.abs(direct.values))
    assert np.max(np.abs(once.values - direct.values)) < 1e-10 * scale


def test_negative_order_inverts_on_zero_mean(grid1d):
    f = sample(grid1d, lambda x: x * bump(x, 0.0, 2.0))
    back = fractional_laplacian(fractional_laplacian(f, 0.5), -0.5)
    ref = f.values - np.mean(f.values)
    assert np.max(np.abs(back.values - ref)) < 1e-10


def test_zero_mode_value_pins_the_mean(grid1d):
    f = sample(grid1d, lambda x: 2.0 + np.sin(np.pi * x / 8.0))
    ident = Multiplier(lambda *mesh: np.ones_like(mesh[0]), 0.0, "kill-dc")
    out = apply_multiplier(f, ident)
    assert np.max(np.abs(out.values - (f.values - 2.0))) < 1e-12
    keep = Multiplier(lambda *mesh: np.ones_like(mesh[0]), 1.0, "keep-dc")
    out2 = apply_multiplier(f, keep)
    assert np.max(np.abs(out2.values - f.values)) < 1e-12


def test_multiplier_linearity(grid1d):
    f, _ = _mode(grid1d, 3)
    g, _ = _mode(grid1d, 11, "cos")
    both = SampledField(grid1d, 2.0 * f.values - 0.5 * g.values)
    out = fractional_laplacian(both, 1.3)
    sep = (2.0 * fractional_laplacian(f, 1.3).values
           - 0.5 * fractional_laplacian(g, 1.3).values)
    assert np.max(np.abs(out.values - sep)) < 1e-11


def test_non_hermitian_symbol_guard_fires(grid1d):
    f, _ = _mode(grid1d, 4, "cos")
    # real but not even in xi: the output would be genuinely complex
    bad = Multiplier(lambda *mesh: np.where(mesh[0] >= 0, 1.0, 2.0),
                     1.0, "asym")
    with pytest.raises(NumericalGuardError):
        apply_multiplier(f, bad)


def test_odd_symbol_live_on_the_nyquist_plane_is_rejected(grid1d):
    # the m = -N/2 mode is its own mirror, so an odd symbol must vanish
    # there; the guard reads the symbol, so a band-interior input that
    # never excites that mode still exposes the defect
    f, _ = _mode(grid1d, 4, "cos")
    raw = Multiplier(lambda *mesh: 1j * mesh[0], 0.0, "i xi, Nyquist kept")
    with pytest.raises(NumericalGuardError, match="Hermitian"):
        apply_multiplier(f, raw)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("n", [2, 3])
def test_hermitian_guard_is_in_place_and_exact(n, kind):
    # the guard compares each block of the symbol with its reversed view:
    # a Hermitian symbol passes with no mirrored copy (the peak traced
    # allocation stays below a quarter of the symbol's bytes for a real
    # symbol, three quarters for a complex one, whose negated imaginary
    # parts are one float temporary), and one changed element is caught
    # on the m = 0 line, at an interior pair and on the unpaired Nyquist
    # plane, where the mirror partner is the element itself or 0
    import tracemalloc

    from halfspace_spectral.spectral import _symbol

    N = 512 if n == 2 else 64
    grid = make_grid(n, 8.0, N)
    mesh = grid.freq_mesh()
    base = np.broadcast_to(sum(xi ** 2 for xi in mesh), (N,) * n).copy()
    if kind == "complex":
        base = base * derivative_multiplier(grid, 1).symbol(*mesh)
    axes = tuple(range(n))

    def check(sym):
        probe = Multiplier(lambda *_: sym, 0.0, "probe")
        return _symbol(probe, mesh, sym.shape, False, axes)

    tracemalloc.start()
    try:
        check(base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (0.25 if kind == "real" else 0.75) * base.nbytes, peak
    tail = (3, 7)[:n - 1]
    for where in [(0,) + tail, (5,) + tail, (N // 2,) + tail]:
        bad = base.copy()
        bad[where] += 0.5
        with pytest.raises(NumericalGuardError, match="Hermitian"):
            check(bad)
        # the same change at the mirror partner restores the symmetry
        bad[tuple(-i % N for i in where)] += 0.5
        check(bad)


def test_legitimate_high_order_passes_the_residue_guard(grid1d):
    # steep symbols amplify roundoff; the guard checks the symmetry of
    # the symbol itself and so never trips on benign rounding noise
    f = sample(grid1d, lambda x: x * bump(x, 0.0, 2.0))
    out = fractional_laplacian(f, 2.5)
    assert np.all(np.isfinite(out.values))


# ---------------------------------------------------------------------------
# derivatives

def test_derivative_of_cosine_mode(grid1d):
    f, k = _mode(grid1d, 5, "cos")
    out = apply_multiplier(f, derivative_multiplier(grid1d, 1))
    ref = sample(grid1d, lambda x: -k * np.sin(k * x))
    assert np.max(np.abs(out.values - ref.values)) < 1e-12 * k


def test_derivative_kills_the_nyquist_mode(grid1d):
    v = np.empty(grid1d.N)
    v[::2], v[1::2] = 1.0, -1.0
    out = apply_multiplier(SampledField(grid1d, v),
                           derivative_multiplier(grid1d, 1))
    assert np.max(np.abs(out.values)) == 0.0


def test_derivative_axis_is_one_based(grid1d):
    with pytest.raises(ConfigError):
        derivative_multiplier(grid1d, 0)
    with pytest.raises(ConfigError):
        derivative_multiplier(grid1d, 2)


# ---------------------------------------------------------------------------
# semigroup symbols

def test_gaussian_heat_closed_form(grid1d):
    a, t = 1.0, 0.3
    f = sample(grid1d, lambda x: np.exp(-x ** 2 / (2 * a ** 2)))
    out = semigroup_symbol(f, t, 2.0)
    sig2 = a ** 2 + 2.0 * t
    ref = (a / np.sqrt(sig2)) * np.exp(-grid1d.axis_coords() ** 2
                                       / (2.0 * sig2))
    assert np.max(np.abs(out.values - ref)) < 1e-12


def test_poisson_flow_decays_single_mode(grid1d):
    f, k = _mode(grid1d, 7)
    t = 0.9
    out = semigroup_symbol(f, t, 1.0)
    assert np.max(np.abs(out.values - np.exp(-t * k) * f.values)) < 1e-13


def test_semigroup_at_time_zero_is_identity(grid1d):
    f = sample(grid1d, lambda x: bump(x, 1.0, 2.0))
    out = semigroup_symbol(f, 0.0, 2.0)
    assert np.max(np.abs(out.values - f.values)) < 1e-14


def test_semigroup_property_in_time(grid1d):
    f = sample(grid1d, lambda x: bump(x, -2.0, 1.5))
    one = semigroup_symbol(f, 0.7, 2.0)
    two = semigroup_symbol(semigroup_symbol(f, 0.3, 2.0), 0.4, 2.0)
    assert np.max(np.abs(one.values - two.values)) < 1e-13


# ---------------------------------------------------------------------------
# dyadic bank

def test_partition_of_unity_is_exact(bank1d):
    lam = np.geomspace(2.0 ** bank1d.j_min, 2.0 ** bank1d.j_max, 4097)
    total = sum(bank1d.phi(j, lam) for j in bank1d.octaves)
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_inhomogeneous_partition_with_lowpass(bank1d):
    lam = np.linspace(0.0, 2.0 ** bank1d.j_max, 4097)
    total = bank1d.psi(lam) + sum(bank1d.phi(j, lam)
                                  for j in bank1d.octaves if j >= 1)
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_octave_profile_support(bank1d):
    lam = np.geomspace(1e-3, 1e3, 20001)
    vals = bank1d.phi0(lam)
    assert np.all(vals[(lam <= 0.5) | (lam >= 2.0)] == 0.0)
    assert np.all(vals[(lam > 0.6) & (lam < 1.9)] >= 0.0)
    assert float(bank1d.phi0(1.0)) > 0.4


def test_lowpass_profile_edges(bank1d):
    assert bank1d.psi(0.0) == 1.0
    assert bank1d.psi(1.0) == 1.0
    assert bank1d.psi(2.0) == 0.0
    assert bank1d.psi(5.0) == 0.0


def test_smooth_step_shape():
    t = np.linspace(-1.0, 2.0, 901)
    v = smooth_step(t)
    assert np.all(v[t <= 0.0] == 0.0)
    assert np.all(v[t >= 1.0] == 1.0)
    mid = v[(t > 0.0) & (t < 1.0)]
    assert np.all(np.diff(mid) >= 0.0)
    # the Gevrey tails flush to exactly 0/1 in float, so demand strict
    # growth only away from the edges
    core = v[(t > 0.2) & (t < 0.8)]
    assert np.all(np.diff(core) > 0.0)
    assert smooth_step(0.5) == pytest.approx(0.5)


def test_eta_profile_edges():
    assert eta_profile(0.0) == 1.0
    assert eta_profile(1.0) == 1.0
    assert eta_profile(2.0) == 0.0


def test_bank_rejects_too_few_octaves():
    with pytest.raises(ConfigError):
        build_bank(make_grid(1, 16.0, 64))


def test_octave_profile_is_the_telescoping_difference(bank1d):
    # closed form: bitwise eta(lam) - eta(2 lam), not an interpolant
    lam = np.linspace(0.0, 3.0, 300001)
    ref = eta_profile(lam) - eta_profile(2.0 * lam)
    assert np.array_equal(bank1d.phi0(lam), ref)


def test_bank_hash_pins_the_eta_knot_table(grid1d):
    # reports echo this hash; it must not move with the evaluation route
    assert build_bank(grid1d).table_hash == "20b15ff3b14a1778"


def test_bank_hash_is_stable_and_scale_sensitive(grid1d):
    a = build_bank(grid1d)
    b = build_bank(grid1d)
    assert a.table_hash == b.table_hash
    assert build_bank(grid1d, phi0_scale=1.01).table_hash != a.table_hash


def test_scaled_bank_breaks_the_partition(grid1d):
    bad = build_bank(grid1d, phi0_scale=1.01)
    lam = np.geomspace(2.0 ** bad.j_min, 2.0 ** bad.j_max, 1025)
    total = sum(bad.phi(j, lam) for j in bad.octaves)
    assert np.max(np.abs(total - 1.0)) > 1e-3


def test_blocks_reassemble_band_interior_mode(grid1d, bank1d):
    f, _ = _mode(grid1d, 4)      # |xi| = pi/4, inside the resolved band
    total = np.zeros_like(f.values)
    for j in bank1d.octaves:
        total += dyadic_block(f, j, bank1d).values
    assert np.max(np.abs(total - f.values)) < 1e-12


def test_block_outside_resolved_range_rejected(grid1d, bank1d):
    f, _ = _mode(grid1d, 4)
    with pytest.raises(ConfigError):
        dyadic_block(f, bank1d.j_max + 1, bank1d)


# ---------------------------------------------------------------------------
# Parseval on the half-space coefficients

@dataclass(frozen=True)
class _Profile:
    """A band profile: ``function`` of |xi|^2 that vanishes from |xi| =
    ``radius`` on, evaluated on every call."""

    function: Callable
    radius: float = np.inf

    def __call__(self, lam2):
        return self.function(lam2)


def _band_profiles(grid, bank, odd):
    """Octaves of ``bank`` that reach the half mesh of ``grid`` (some
    keep every row, some only the low ones), the low-pass psi, and heat
    nodes at small and large t, whose radius sqrt(cut / t) is that of
    their cut."""
    from halfspace_spectral.norms import _heat_cut, _HeatNode
    from halfspace_spectral.spectral import _half_mesh, _Octave

    top = np.sqrt(np.max(sum(xi ** 2 for xi in _half_mesh(grid, odd))))
    cut = _heat_cut(2)
    return ([_Octave(bank, j) for j in range(-1, 6) if 2.0 ** (j - 1) < top]
            + [_Octave(bank)]
            + [_HeatNode(t, 2, cut) for t in (1e-3, 0.05, 2.0, 20.0)])


@pytest.mark.parametrize("odd", [True, False], ids=["sine", "cosine"])
@pytest.mark.parametrize("n, L, N", [(1, 16.0, 512), (2, 8.0, 64),
                                     (3, 4.0, 16)], ids=["1d", "2d", "3d"])
def test_band_energy_is_the_squared_norm_of_the_band(n, L, N, odd, bank1d):
    # the energy of a band, summed over the coefficients, against the
    # midpoint-rule L^2 norm of its samples, for every band profile
    from halfspace_spectral.grid import HalfField, lp_norm
    from halfspace_spectral.spectral import _HalfSpectrum

    grid = make_grid(n, L, N)
    rng = np.random.default_rng(n + 10 * odd)
    f = HalfField(grid, rng.standard_normal((N,) * (n - 1) + (N // 2,)))
    spectrum = _HalfSpectrum(f.values, grid, odd)
    xi_t = np.abs(grid.freq_axis())
    partial = 0
    for profile in _band_profiles(grid, bank1d, odd):
        partial += n > 1 and np.count_nonzero(xi_t < profile.radius) < N
        want = lp_norm(f.with_values(spectrum.band(profile)), 2) ** 2
        got = spectrum.energy(profile)
        assert want > 0.0
        assert got == pytest.approx(want, rel=1e-13, abs=0), profile
    assert partial >= (3 if n > 1 else 0)


@pytest.mark.parametrize("op", [OP_DIRICHLET, OP_NEUMANN])
@pytest.mark.parametrize("n, L, N", [(1, 16.0, 512), (2, 8.0, 128),
                                     (3, 4.0, 32)], ids=["1d", "2d", "3d"])
def test_half_bands_are_the_box_route_of_the_extension(n, L, N, op, bank1d):
    # every band profile on the half-length pair, reaching only the disk
    # below its radius, against the box route: the profile of |xi|^2 as
    # the symbol of apply_multiplier on the parity extension, evaluated
    # on every point of the box, then restricted
    from halfspace_spectral.grid import HalfField
    from halfspace_spectral.spectral import _HalfSpectrum

    grid = make_grid(n, L, N)
    odd = op == OP_DIRICHLET
    rng = np.random.default_rng(n)
    f = HalfField(grid, rng.standard_normal((N,) * (n - 1) + (N // 2,)), op)
    spectrum = _HalfSpectrum(f.values, grid, odd)
    box = extend_for(f, op)
    for profile in _band_profiles(grid, bank1d, odd):
        symbol = Multiplier(
            lambda *mesh, pr=profile: pr(sum(xi ** 2 for xi in mesh)),
            float(profile(np.zeros(1))[0]))
        want = restrict(apply_multiplier(box, symbol), op).values
        got = spectrum.band(profile)
        sup = np.max(np.abs(want))
        assert sup > 0.0
        assert np.max(np.abs(got - want)) <= 1e-13 * sup, profile


@pytest.mark.parametrize("odd", [True, False], ids=["sine", "cosine"])
@pytest.mark.parametrize("n, N", [(1, 64), (2, 32), (3, 16)],
                         ids=["1d", "2d", "3d"])
def test_radii_formed_per_block_are_bitwise_the_full_radii(n, N, odd,
                                                            monkeypatch):
    # |xi|^2 formed a block of rows at a time, on every row and on two
    # row subsets, against |xi| on the full half mesh (its square root,
    # bitwise), with blocks of one row, of three rows and of every row;
    # and a band that reaches every row against the inverse of the
    # full-size product
    from halfspace_spectral import spectral

    grid = make_grid(n, 4.0, N)
    rng = np.random.default_rng(n + 10 * odd)
    values = rng.standard_normal((N,) * (n - 1) + (N // 2,))
    lam = np.sqrt(sum(xi ** 2 for xi in spectral._half_mesh(grid, odd)))
    halves = spectral._by_rows(lam)
    full = np.concatenate(list(halves), axis=1)
    count, h = halves.shape[1:]
    window = (slice(0, h), slice(0, h))
    subsets = [None, np.arange(0, count, 3),
               np.append(0, 1 + np.flatnonzero(rng.random(count - 1) < 0.5))]

    def profile(x):
        return np.exp(-x / 3.0)

    for rows_per_block in (1, 3, count):
        monkeypatch.setattr(spectral, "_BLOCK_BYTES",
                            rows_per_block * full[:1].nbytes)
        spectrum = spectral._HalfSpectrum(values, grid, odd)
        for rows in subsets:
            got = np.concatenate([w for *_, w in spectrum._weights(
                np.sqrt, rows, window)])
            assert np.array_equal(got, full if rows is None
                                  else full[rows]), rows
        want = spectral._half_inverse(profile(lam) * spectrum.coef, odd)
        got = spectrum.band(_Profile(lambda lam2: profile(np.sqrt(lam2))))
        assert np.array_equal(got, want)


def _count_phi(monkeypatch):
    """A list that grows by one for each call of ``DyadicBank.phi``."""
    from halfspace_spectral.spectral import DyadicBank

    calls = []

    def counting(self, j, lam, _orig=DyadicBank.phi):
        calls.append(j)
        return _orig(self, j, lam)

    monkeypatch.setattr(DyadicBank, "phi", counting)
    return calls


@pytest.mark.parametrize("first", [True, False], ids=["sine", "cosine"])
@pytest.mark.parametrize("n, L, N", [(1, 16.0, 1024), (2, 8.0, 128),
                                     (3, 4.0, 32)], ids=["1d", "2d", "3d"])
def test_tabulated_bands_are_bitwise_the_profile(n, L, N, first,
                                                 monkeypatch):
    # every octave and psi of a fresh bank, tabulated on its rows and
    # window, against the same profile evaluated on every call and
    # against the inverse of the full-size product: bands and energies
    # bitwise, in both parities, the second reading the tables that the
    # first built.  The rows and window hold every point of the disk,
    # and the window is no wider.  Once the tables are built, neither
    # parity calls DyadicBank.phi again
    from halfspace_spectral import spectral

    grid = make_grid(n, L, N)
    bank = build_bank(make_grid(1, 16.0, 1024))
    rng = np.random.default_rng(n)
    values = rng.standard_normal((N,) * (n - 1) + (N // 2,))
    octaves = [spectral._Octave(bank, j) for j in bank.octaves]
    octaves += [spectral._Octave(bank)]
    for odd in (first, not first):
        lam2 = sum(xi ** 2 for xi in spectral._half_mesh(grid, odd))
        spectrum = spectral._HalfSpectrum(values, grid, odd)
        for octave in octaves:
            per_call = _Profile(octave, octave.radius)
            inside = spectral._by_rows(np.sqrt(lam2)) < octave.radius
            rows, window = spectrum._disk(octave.radius)
            held = np.zeros_like(inside)
            for half, cols in enumerate(window):
                held[half, slice(None) if rows is None else rows, cols] = True
            assert not np.any(inside & ~held)
            assert window == tuple(spectral._slice_of(half.any(axis=0))
                                   for half in inside)
            band = spectrum.band(octave)
            assert np.array_equal(band, spectrum.band(per_call))
            assert np.array_equal(band, spectral._half_inverse(
                octave(lam2) * spectrum.coef, odd))
            assert spectrum.energy(octave) == spectrum.energy(per_call)
    assert spectral._TABLES[bank].keys() == {
        (grid, octave.j) for octave in octaves}
    calls = _count_phi(monkeypatch)
    for odd in (True, False):
        again = spectral._HalfSpectrum(values, grid, odd)
        for octave in octaves:
            again.band(octave)
            again.energy(octave)
    assert calls == []


def test_tables_go_with_their_bank(grid2d, monkeypatch):
    # a table is built through DyadicBank.phi, so a tracer of the bank
    # sees the work; it is kept with the bank that built it and freed
    # with it.  A fault-injected bank of the same grid builds its own
    # and never reads another bank's
    import gc
    import weakref

    from halfspace_spectral import spectral

    rng = np.random.default_rng(3)
    values = rng.standard_normal((grid2d.N, grid2d.N // 2))
    spectrum = spectral._HalfSpectrum(values, grid2d, True)
    bank = build_bank(grid2d)
    bad = build_bank(grid2d, phi0_scale=1.5)
    j = bank.j_max
    calls = _count_phi(monkeypatch)
    good_band = spectrum.band(spectral._Octave(bank, j))
    assert calls and set(calls) == {j}
    bad_band = spectrum.band(spectral._Octave(bad, j))
    assert np.array_equal(bad_band, spectrum.band(_Profile(
        lambda lam2: bad.phi(j, np.sqrt(lam2)), 2.0 ** (j + 1))))
    assert not np.allclose(bad_band, good_band)
    tables = [spectral._TABLES[b][grid2d, j] for b in (bank, bad)]
    assert np.array_equal(tables[1], 1.5 * tables[0])
    assert not any(t.flags.writeable for t in tables)
    refs = [weakref.ref(bank), weakref.ref(tables[0])]
    del bank, tables
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert (grid2d, j) in spectral._TABLES[bad]


# ---------------------------------------------------------------------------
# the real-space route

def test_kernel_constant_known_value():
    # 1-D, order 1: c = 1/pi
    assert frac_lap_constant(1.0) == pytest.approx(1.0 / np.pi, rel=1e-14)


def test_kernel_constant_gamma_formula():
    for s in (0.25, 0.5, 0.75, 1.3):
        ref = 2.0 ** s * gamma((1.0 + s) / 2.0) / (
            np.sqrt(np.pi) * abs(gamma(-s / 2.0)))
        assert frac_lap_constant(s) == pytest.approx(ref, rel=1e-14)
        assert frac_lap_constant(s) > 0.0


@pytest.mark.parametrize("s", [0.0, 2.0, 4.0])
def test_kernel_constant_is_zero_at_the_gamma_poles(s):
    # Gamma(-s/2) has a pole there; the constant is the limit, not an error
    assert frac_lap_constant(s) == 0.0
    for side in (-1e-9, 1e-9):
        if s + side > 0:
            assert 0.0 < frac_lap_constant(s + side) < 1e-6


def test_quadrature_route_matches_spectral_on_decaying_fields():
    # zero-mean keeps the decay-to-zero tail convention of the
    # quadrature aligned with the periodic symbol
    g = make_grid(1, 16.0, 4096)
    fields = [
        sample(g, lambda x: x * bump(x, 0.0, 1.5)),
        sample(g, lambda x: np.sin(3.0 * (x - 2.0)) * bump(x, 2.0, 1.4)),
        sample(g, lambda x: (x + 3.0) * bump(x, -3.0, 1.2)),
    ]
    for s in (0.25, 0.5, 0.75):
        for f in fields:
            v_spec = fractional_laplacian(f, s).values
            v_quad = singular_integral_frac_lap(f, s).values
            rel = np.linalg.norm(v_spec - v_quad) / np.linalg.norm(v_spec)
            assert rel < 1e-3


def test_quadrature_route_preserves_antisymmetry():
    g = make_grid(1, 16.0, 4096)
    f = sample(g, lambda x: x * bump(x, 0.0, 2.0))
    out = singular_integral_frac_lap(f, 0.5).values
    scale = np.max(np.abs(out))
    assert np.max(np.abs(out + out[::-1])) < 1e-10 * scale


def test_quadrature_route_order_range():
    g = make_grid(1, 16.0, 512)
    f = sample(g, lambda x: x * bump(x, 0.0, 2.0))
    with pytest.raises(ConfigError):
        singular_integral_frac_lap(f, 2.5)
    with pytest.raises(ConfigError):
        singular_integral_frac_lap(f, 0.0)


def test_quadrature_route_is_one_dimensional():
    f = sample(make_grid(2, 8.0, 16), lambda x, y: bump(x, 0.0, 2.0) * y)
    with pytest.raises(ConfigError, match="1-D only"):
        singular_integral_frac_lap(f, 0.5)


# ---------------------------------------------------------------------------
# property checks

@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=40),
       st.floats(min_value=0.1, max_value=2.6,
                 allow_nan=False, allow_infinity=False))
def test_eigenmode_scaling_property(m, s):
    g = make_grid(1, 16.0, 512)
    f, k = _mode(g, m)
    out = fractional_laplacian(f, s)
    # the eps * xi_max^s roundoff floor of test_eigenmode_scaling_exact
    tol = 1e-10 * k ** s + 1e-14 * (np.pi / g.h) ** s
    assert np.max(np.abs(out.values - k ** s * f.values)) < tol


# ---------------------------------------------------------------------------
# dependencies

def test_package_import_loads_no_scipy():
    # scipy serves only the quadrature oracle and the block-floor limit
    # profile, and is imported inside them
    src = os.path.dirname(os.path.dirname(
        sys.modules["halfspace_spectral"].__file__))
    probe = ("import sys, halfspace_spectral; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
