"""Deterministic field families used by the sweeps."""

import functools

import numpy as np
import pytest

from halfspace_spectral import (
    BC_DIRICHLET,
    BC_NEUMANN,
    BoundaryTagError,
    ConfigError,
    FAMILY_NAMES,
    OP_DIRICHLET,
    OP_NEUMANN,
    bump,
    cutoff_profile,
    counterexample_expr,
    derivative_mapping_sweep,
    make_family,
    make_grid,
    sample_half,
)
from halfspace_spectral import families


def test_every_advertised_family_builds(grid1d):
    for name in FAMILY_NAMES:
        # the cosine modes are the one Neumann-only family
        op = OP_NEUMANN if name == "cosine" else OP_DIRICHLET
        flds = make_family(name, grid1d, op, 1, 2, grid1d.N)
        assert len(flds) == 2
        for f in flds:
            assert f.values.shape == (grid1d.N // 2,)


def test_same_seed_reproduces_samples(grid1d):
    for name in ("band_random", "bump_random", "boundary_adversarial"):
        a = make_family(name, grid1d, OP_DIRICHLET, 7, 3, grid1d.N)
        b = make_family(name, grid1d, OP_DIRICHLET, 7, 3, grid1d.N)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.values, fb.values)


def test_different_seeds_differ(grid1d):
    a = make_family("bump_random", grid1d, OP_DIRICHLET, 7, 1)[0]
    b = make_family("bump_random", grid1d, OP_DIRICHLET, 8, 1)[0]
    assert not np.array_equal(a.values, b.values)


def test_refinement_resamples_the_same_functions():
    # the draw is pinned to the seed, not the mesh: refining the grid
    # re-evaluates the identical expressions, so the Riemann sums of
    # these smooth compactly supported fields converge spectrally
    from halfspace_spectral import lp_norm

    coarse = make_grid(1, 16.0, 1024)
    fine = make_grid(1, 16.0, 2048)
    fc = make_family("bump_random", coarse, OP_DIRICHLET, 3, 2)
    ff = make_family("bump_random", fine, OP_DIRICHLET, 3, 2,
                     ref_N=coarse.N)
    for a, b in zip(fc, ff):
        # Gevrey tails make the Riemann sums converge root-exponentially,
        # so 1e-6 is the honest agreement at N=1024
        assert lp_norm(b, 2.0) == pytest.approx(lp_norm(a, 2.0), rel=1e-6)
        assert lp_norm(b, np.inf) == pytest.approx(lp_norm(a, np.inf),
                                                   rel=1e-2)


def test_band_random_respects_the_reference_band():
    coarse = make_grid(1, 16.0, 1024)
    fine = make_grid(1, 16.0, 4096)
    from halfspace_spectral.experiments import get_bank

    coarse_bank = get_bank(coarse)
    f = make_family("band_random", fine, OP_DIRICHLET, 11, 1,
                    ref_N=coarse.N)[0]
    ext = np.concatenate([-f.values[::-1], f.values])
    power = np.abs(np.fft.fft(ext)) ** 2
    lam = np.abs(fine.freq_axis())
    outside = power[(lam > 0) & ((lam < 2.0 ** coarse_bank.j_min)
                                 | (lam > 2.0 ** coarse_bank.j_max))].sum()
    assert outside / power.sum() < 1e-20


def test_band_random_parity_follows_operator(grid1d):
    d = make_family("band_random", grid1d, OP_DIRICHLET, 5, 1, grid1d.N)[0]
    n = make_family("band_random", grid1d, OP_NEUMANN, 5, 1, grid1d.N)[0]
    assert d.bc == BC_DIRICHLET
    assert n.bc == BC_NEUMANN
    assert not np.array_equal(d.values, n.values)


def test_bump_random_supported_in_the_central_half(grid1d):
    xh = grid1d.half_coords()
    for seed in range(8):
        for op in (OP_DIRICHLET, OP_NEUMANN):
            for f in make_family("bump_random", grid1d, op, seed, 3):
                off = np.abs(f.values[(xh < 0.29) | (xh > grid1d.L / 2.0
                                                     - 0.29)])
                assert off.max() == 0.0


def test_bump_random_needs_room():
    tiny = make_grid(1, 2.0, 64)
    with pytest.raises(ConfigError):
        make_family("bump_random", tiny, OP_DIRICHLET, 1, 1)


def test_negative_seed_is_a_config_error(grid1d):
    with pytest.raises(ConfigError, match="seed -1"):
        make_family("bump_random", grid1d, OP_DIRICHLET, -1, 1)


def test_adversarial_family_is_dirichlet_only(grid1d, monkeypatch):
    flds = make_family("boundary_adversarial", grid1d, OP_DIRICHLET, 2, 2)
    assert all(f.bc == BC_DIRICHLET for f in flds)

    # the families with one boundary condition refuse the other before
    # any field is drawn, by themselves and inside a mapping sweep
    def no_draw(*args, **kwargs):
        raise AssertionError("a field was drawn")
    monkeypatch.setattr(families, "sample_half", no_draw)
    for name, op in (("boundary_adversarial", OP_NEUMANN),
                     ("sine", OP_NEUMANN), ("cosine", OP_DIRICHLET)):
        with pytest.raises(BoundaryTagError, match=f"the {name} family"):
            make_family(name, grid1d, op, 2, 2)
        with pytest.raises(BoundaryTagError, match=f"the {name} family"):
            derivative_mapping_sweep(0.3, 2.0, name, op, 0, 2, (512, 1024))


def test_adversarial_fields_are_linear_at_the_wall(grid1d):
    xh = grid1d.half_coords()
    for f in make_family("boundary_adversarial", grid1d, OP_DIRICHLET, 4, 3):
        near = xh < 0.2
        slope = f.values[near] / xh[near]
        assert np.max(np.abs(slope - slope[0])) < 1e-12


def test_counterexample_profile_values(grid1d):
    f = make_family("counterexample", grid1d, OP_DIRICHLET, 0, 1)[0]
    xh = grid1d.half_coords()
    # x phi(x) with phi = 1 on [0, 1/2] and 0 from 1 on
    assert f.values[0] == pytest.approx(grid1d.h / 2.0, rel=1e-14)
    assert np.array_equal(f.values[xh <= 0.5], xh[xh <= 0.5])
    assert np.all(f.values[xh >= 1.0] == 0.0)


def test_counterexample_tag_follows_requested_operator(grid1d):
    d = make_family("counterexample", grid1d, OP_DIRICHLET, 0, 1)[0]
    n = make_family("counterexample", grid1d, OP_NEUMANN, 0, 1)[0]
    assert d.bc == BC_DIRICHLET
    assert n.bc == BC_NEUMANN
    # identical samples, different interpretation
    assert np.array_equal(d.values, n.values)


def test_counterexample_carries_tangential_cutoffs(grid2d):
    f = make_family("counterexample", grid2d, OP_DIRICHLET, 0, 1)[0]
    x, xh = grid2d.axis_coords(), grid2d.half_coords()
    expect = np.outer(cutoff_profile(np.abs(x)), xh * cutoff_profile(xh))
    np.testing.assert_allclose(f.values, expect, rtol=1e-15, atol=0.0)


def test_adversarial_fields_carry_a_tangential_bump(grid2d):
    # each field is the wall profile times one bump in x_1 whose centre
    # lies in [-L/4, L/4] and whose half-width lies in [0.8, 1.6]
    x = grid2d.axis_coords()
    for f in make_family("boundary_adversarial", grid2d, OP_DIRICHLET, 3, 3):
        sv = np.linalg.svd(f.values, compute_uv=False)
        assert sv[1] <= 1e-12 * sv[0]
        support = x[np.any(f.values != 0.0, axis=1)]
        assert support.size > 0
        assert support.max() - support.min() <= 3.2
        assert np.all(np.abs(support) < grid2d.L / 4.0 + 1.6)


def test_counterexample_expr_matches_family(grid1d):
    via_family = make_family("counterexample", grid1d, OP_DIRICHLET, 0, 1)[0]
    direct = sample_half(grid1d, counterexample_expr())
    assert np.array_equal(via_family.values, direct.values)


def test_eigenmode_families_are_exact_modes(grid1d):
    xh = grid1d.half_coords()
    sines = make_family("sine", grid1d, OP_DIRICHLET, 0, 3)
    for i, f in enumerate(sines):
        k = np.pi * (i + 1) / grid1d.L
        assert np.array_equal(f.values, np.sin(k * xh))
        assert f.bc == BC_DIRICHLET
    cosines = make_family("cosine", grid1d, OP_NEUMANN, 0, 2)
    for i, f in enumerate(cosines):
        k = np.pi * (i + 1) / grid1d.L
        assert np.array_equal(f.values, np.cos(k * xh))
        assert f.bc == BC_NEUMANN


@pytest.mark.parametrize("op", ["Dirichlet", "foo", None])
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_unknown_operator_rejected(grid1d, name, op):
    # every family refuses an operator it does not know, rather than
    # reading it as Neumann or ignoring it
    with pytest.raises(ConfigError, match="unknown operator"):
        make_family(name, grid1d, op, 0, 1)


def test_unknown_family_rejected(grid1d):
    with pytest.raises(ConfigError):
        make_family("perlin", grid1d, OP_DIRICHLET, 0, 1)
    with pytest.raises(ConfigError):
        make_family("bump_random", grid1d, OP_DIRICHLET, 0, 0)


def test_cutoff_profile_plateau_and_support():
    x = np.linspace(0.0, 2.0, 2001)
    v = cutoff_profile(x)
    assert np.all(v[x <= 0.5] == 1.0)
    assert np.all(v[x >= 1.0] == 0.0)
    inner = v[(x > 0.5) & (x < 1.0)]
    assert np.all(np.diff(inner) <= 0.0)
    core = v[(x > 0.6) & (x < 0.9)]
    assert np.all(np.diff(core) < 0.0)


def test_bump_support_and_peak():
    x = np.linspace(-3.0, 3.0, 6001)
    v = bump(x, 0.5, 1.25)
    assert np.all(v[np.abs(x - 0.5) >= 1.25] == 0.0)
    assert float(bump(np.asarray([0.5]), 0.5, 1.25)[0]) == 1.0
    assert np.all(v <= 1.0)


def _band_random_draws(grid, rng, ref_N):
    """(mode numbers, amplitudes, phases): the draws the family makes
    from ``rng`` for one band-random field."""
    from halfspace_spectral.families import _mode_range

    m_lo, m_hi = _mode_range(grid, ref_N)
    n_modes = int(rng.integers(6, 13))
    ms = np.unique(np.round(np.exp(
        rng.uniform(np.log(m_lo), np.log(m_hi), n_modes))).astype(int))
    amps = rng.normal(0.0, 1.0, ms.size)
    phases = rng.uniform(0.0, 2.0 * np.pi, (ms.size, max(grid.n - 1, 1)))
    return ms, amps, phases


def _band_random_direct(grid, odd, rng, ref_N):
    """The band-random draw summed pointwise: sum_i a_i sin|cos(k_i x_n)
    times cos(pi m_t x_t / L + phase) per tangential axis.  It makes the
    same draws from ``rng`` as the family and returns the expression."""
    ms, amps, phases = _band_random_draws(grid, rng, ref_N)
    wave = np.sin if odd else np.cos

    def expr(*coords):
        out = 0.0
        for i, m in enumerate(ms):
            term = amps[i] * wave(np.pi * m * coords[-1] / grid.L)
            for ax, x in enumerate(coords[:-1]):
                m_t = 1 + (int(m) + ax) % 4
                term = term * np.cos(np.pi * m_t * x / grid.L
                                     + phases[i, ax])
            out = out + term
        return out

    return expr


@pytest.mark.parametrize("n, L, N, ref_N, seeds", [
    (1, 16.0, 4096, 4096, (0, 1, 2)),
    (1, 16.0, 16384, 8192, (3, 4)),
    (2, 16.0, 256, 256, (0, 1, 2)),
    (3, 8.0, 256, 256, (5,)),
], ids=["1d", "1d-refined", "2d", "3d"])
@pytest.mark.parametrize("op", [OP_DIRICHLET, OP_NEUMANN])
def test_band_random_is_one_inverse_transform_of_its_modes(
        n, L, N, ref_N, seeds, op, monkeypatch):
    # each field is one quarter-size inverse transform of its sparse
    # coefficients, in place and seen on numpy.fft, and equals the
    # pointwise sum of its modes to roundoff.  In 2-D and 3-D it runs
    # along the normal on the 9^(n-1) tangential rows |m_t| <= 4 that
    # the draw fills, then over the tangential axes on N^(n-1) N/4 points
    grid = make_grid(n, L, N)
    quarter = N ** (n - 1) * N // 4
    calls = []
    for name in ("fftn", "ifftn"):
        def record(a, *args, _name=name, _orig=getattr(np.fft, name), **kw):
            in_place = np.iscomplexobj(a) and kw.get("out") is a
            calls.append((_name, np.size(a), kw.get("axes"), in_place))
            return _orig(a, *args, **kw)
        monkeypatch.setattr(np.fft, name, record)
    if n == 1:
        synthesis = [("ifftn", quarter, None, True)]
    else:
        synthesis = [("ifftn", 9 ** (n - 1) * N // 4, (-1,), True),
                     ("ifftn", quarter, tuple(range(n - 1)), True)]
    # the 3-D check draws one field and sub-samples its tangential rows
    # to stay small
    count, rows = (2, np.arange(N)) if n < 3 else (1, np.arange(0, N, 15))
    for seed in seeds:
        calls.clear()
        fields = make_family("band_random", grid, op, seed, count, ref_N)
        assert calls == synthesis * count
        rng = np.random.default_rng(seed)
        for f in fields:
            expr = _band_random_direct(grid, op == OP_DIRICHLET, rng, ref_N)
            coords = grid.coord_mesh(half=True)
            coords = tuple(np.take(x, rows, axis=ax)
                           for ax, x in enumerate(coords[:-1])) + coords[-1:]
            direct = expr(*coords)
            got = f.values[np.ix_(*[rows] * (n - 1), np.arange(N // 2))]
            err = np.max(np.abs(got - direct)) / np.max(np.abs(direct))
            assert err <= 1e-12, (seed, err)
            assert f.bc == op


def _band_random_coefficients(grid, odd, ms, amps, phases):
    """A reference construction of a draw's sparse coefficients, with
    their flat row indices: the tangential rows |m_t| <= 4 in fft order,
    whichever modes the draw reaches, shaped (2, rows, M/2)."""
    N, M = grid.N, grid.N // 2
    low = np.abs(np.fft.fftfreq(N, 1.0 / N)) <= 4
    rows = np.flatnonzero(functools.reduce(np.logical_and.outer,
                                           [low] * (grid.n - 1), True))
    K = np.count_nonzero(low)
    coef = np.zeros((K,) * (grid.n - 1) + (M,), dtype=complex)
    for i, m in enumerate(ms):
        factors = []
        for ax in range(grid.n - 1):
            m_t = 1 + (int(m) + ax) % 4
            c = np.exp(1j * (phases[i, ax] - np.pi * m_t + np.pi * m_t / N))
            t = np.zeros(K, dtype=complex)
            t[m_t], t[-m_t] = c * N / 2, np.conjugate(c) * N / 2
            factors.append(t)
        coef[..., M - m if odd else m] = functools.reduce(
            np.multiply.outer, factors, amps[i] * M / 2)
    # the coefficients' two contiguous halves, k < M/2 and k >= M/2
    halves = coef.reshape(-1, 2, M // 2).transpose(1, 0, 2)
    return np.ascontiguousarray(halves), rows


@pytest.mark.parametrize("n, L, N, ref_N, seed", [
    (1, 16.0, 4096, 4096, 0),
    (1, 16.0, 16384, 8192, 3),
    (2, 16.0, 256, 256, 1),
    # this draw reaches only the rows |m_t| <= 2
    (2, 16.0, 512, 256, 57),
    (3, 8.0, 256, 256, 5),
], ids=["1d", "1d-refined", "2d", "2d-refined", "3d"])
@pytest.mark.parametrize("op", [OP_DIRICHLET, OP_NEUMANN])
def test_band_random_synthesis_is_bitwise_its_coefficients(n, L, N, ref_N,
                                                          seed, op):
    # the synthesis entry fills only the rows its modes reach; the zero
    # rows it leaves out change no bit of the field
    from halfspace_spectral.spectral import (_half_inverse_rows,
                                             _half_synthesis)

    grid = make_grid(n, L, N)
    odd = op == OP_DIRICHLET
    ms, amps, phases = _band_random_draws(grid, np.random.default_rng(seed),
                                          ref_N)
    coef, rows = _band_random_coefficients(grid, odd, ms, amps, phases)
    want = _half_inverse_rows(coef, rows, (N,) * (n - 1) + (N // 2,),
                              odd).tobytes()
    modes = [(m, amps[i], [(1 + (int(m) + ax) % 4, phases[i, ax])
                           for ax in range(n - 1)])
             for i, m in enumerate(ms)]
    assert _half_synthesis(grid, odd, modes).tobytes() == want
    field = make_family("band_random", grid, op, seed, 1, ref_N)[0]
    assert field.values.tobytes() == want


@pytest.mark.parametrize("width", [0.0, -1.0, np.nan, np.inf])
def test_bump_refuses_a_width_that_is_not_positive_and_finite(width):
    with pytest.raises(ConfigError, match="width"):
        bump(np.linspace(-1.0, 1.0, 9), 0.0, width)
