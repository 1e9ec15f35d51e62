"""Sobolev and Besov norms, their reports and the route cross-checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from halfspace_spectral import (
    BC_DIRICHLET,
    BC_NEUMANN,
    ConfigError,
    HalfField,
    Multiplier,
    NumericalGuardError,
    OP_DIRICHLET,
    OP_NEUMANN,
    SpaceSpec,
    apply_multiplier,
    besov_block_floor,
    besov_norm,
    besov_norm_report,
    besov_norm_semigroup,
    bump,
    dyadic_block,
    extend_for,
    extension_norm_equivalence,
    frac_power,
    get_bank,
    lp_norm,
    make_family,
    make_grid,
    norms,
    restrict,
    sample,
    sample_half,
    sobolev_norm,
)


def _band_field(grid, seed=9):
    return make_family("band_random", grid, OP_DIRICHLET, seed, 1,
                       grid.N)[0]


# ---------------------------------------------------------------------------
# SpaceSpec validation

def test_space_kind_validated():
    with pytest.raises(ConfigError):
        SpaceSpec("holder", 1.0, 2.0)


def test_space_operator_validated():
    with pytest.raises(ConfigError):
        SpaceSpec("sobolev", 1.0, 2.0, None, True, "robin")


def test_space_exponents_validated():
    with pytest.raises(ConfigError):
        SpaceSpec("sobolev", 1.0, 0.5)
    with pytest.raises(ConfigError):
        SpaceSpec("besov", 1.0, 2.0)          # q missing
    with pytest.raises(ConfigError):
        SpaceSpec("besov", 1.0, 2.0, 0.5)     # q < 1
    with pytest.raises(ConfigError):
        SpaceSpec("sobolev", 1.0, 2.0, 2.0)   # stray q
    with pytest.raises(ConfigError):
        SpaceSpec("sobolev", np.inf, 2.0)


def test_endpoint_integrability_warns():
    with pytest.warns(UserWarning):
        SpaceSpec("sobolev", 1.0, np.inf)


# ---------------------------------------------------------------------------
# Sobolev norms

def test_sobolev_norm_of_eigenmode_analytic(grid1d):
    m = 4
    k = np.pi * m / grid1d.L
    f = sample_half(grid1d, lambda x: np.sin(k * x), bc=BC_DIRICHLET)
    for s in (0.5, 1.0, 2.3):
        spec = SpaceSpec("sobolev", s, 2.0, None, True, OP_DIRICHLET)
        ref = k ** s * np.sqrt(grid1d.L / 2.0)
        assert sobolev_norm(f, spec) == pytest.approx(ref, rel=1e-12)


def test_sobolev_norm_matches_hand_rolled_plancherel(grid1d):
    f = _band_field(grid1d)
    s = 0.7
    spec = SpaceSpec("sobolev", s, 2.0, None, True, OP_DIRICHLET)
    mine = sobolev_norm(f, spec)
    # independent route: raw fft of the odd reflection, |xi|^s weights,
    # Parseval on the box, halved
    ext = np.concatenate([-f.values[::-1], f.values])
    fh = np.fft.fft(ext)
    xi = np.abs(grid1d.freq_axis())
    weighted = np.fft.ifft((xi ** s) * fh).real
    full_l2 = np.sqrt(grid1d.h * np.sum(weighted ** 2))
    assert mine == pytest.approx(full_l2 / np.sqrt(2.0), rel=1e-13)


def test_sobolev_inhomogeneous_dominates_homogeneous_low_s(grid1d):
    f = _band_field(grid1d)
    hom = sobolev_norm(f, SpaceSpec("sobolev", 0.6, 2.0, None, True,
                                    OP_DIRICHLET))
    inh = sobolev_norm(f, SpaceSpec("sobolev", 0.6, 2.0, None, False,
                                    OP_DIRICHLET))
    # (1 + |xi|^2)^(s/2) >= |xi|^s pointwise
    assert inh >= hom
    assert inh <= np.sqrt(2.0) * (hom + lp_norm(f, 2.0))


def test_sobolev_zero_order_inhomogeneous_is_lp(grid1d):
    f = _band_field(grid1d)
    inh = sobolev_norm(f, SpaceSpec("sobolev", 0.0, 2.0, None, False,
                                    OP_DIRICHLET))
    assert inh == pytest.approx(lp_norm(f, 2.0), rel=1e-12)


def test_norm_checks_the_boundary_tag(grid1d):
    f = sample_half(grid1d, lambda x: np.sin(np.pi * x / 16.0),
                    bc=BC_DIRICHLET)
    with pytest.raises(ConfigError):
        sobolev_norm(f, SpaceSpec("sobolev", 1.0, 2.0, None, True,
                                  OP_NEUMANN))


def test_untagged_field_adopts_the_spec_operator(grid1d):
    raw = sample_half(grid1d, lambda x: np.sin(np.pi * x / 4.0))
    tagged = raw.with_bc(BC_DIRICHLET)
    spec = SpaceSpec("sobolev", 1.0, 2.0, None, True, OP_DIRICHLET)
    assert sobolev_norm(raw, spec) == sobolev_norm(tagged, spec)


def test_kind_mismatch_rejected(grid1d, bank1d):
    f = _band_field(grid1d)
    with pytest.raises(ConfigError):
        sobolev_norm(f, SpaceSpec("besov", 1.0, 2.0, 2.0, True,
                                  OP_DIRICHLET))
    with pytest.raises(ConfigError):
        besov_norm(f, SpaceSpec("sobolev", 1.0, 2.0, None, True,
                                OP_DIRICHLET), bank1d)


# ---------------------------------------------------------------------------
# Besov norms

def test_besov_report_is_articulate(grid1d, bank1d):
    f = _band_field(grid1d)
    spec = SpaceSpec("besov", 0.8, 2.0, 1.0, True, OP_DIRICHLET)
    rep = besov_norm_report(f, spec, bank1d)
    assert rep["leak"] < 1e-8
    js = [b["j"] for b in rep["blocks"]]
    assert js == list(bank1d.octaves)
    for b in rep["blocks"]:
        assert b["weighted"] == pytest.approx(
            2.0 ** (spec.s * b["j"]) * b["norm"], rel=1e-13)
    # q = 1 sums the weighted blocks
    assert rep["value"] == pytest.approx(
        sum(b["weighted"] for b in rep["blocks"]), rel=1e-13)


def test_besov_summability_follows_q(grid1d, bank1d):
    f = _band_field(grid1d)
    base = dict(kind="besov", s=0.8, p=2.0, homogeneous=True,
                op=OP_DIRICHLET)
    rep = besov_norm_report(f, SpaceSpec(q=2.0, **base), bank1d)
    w = np.asarray([b["weighted"] for b in rep["blocks"]])
    assert rep["value"] == pytest.approx(np.sqrt(np.sum(w ** 2)), rel=1e-13)
    sup = besov_norm(f, SpaceSpec(q=np.inf, **base), bank1d)
    assert sup == pytest.approx(float(np.max(w)), rel=1e-13)
    one = besov_norm(f, SpaceSpec(q=1.0, **base), bank1d)
    assert sup <= rep["value"] <= one


def test_besov_inhomogeneous_adds_a_lowpass(grid1d, bank1d):
    f = _band_field(grid1d)
    hom = besov_norm_report(f, SpaceSpec("besov", 0.8, 2.0, 2.0, True,
                                         OP_DIRICHLET), bank1d)
    inh = besov_norm_report(f, SpaceSpec("besov", 0.8, 2.0, 2.0, False,
                                         OP_DIRICHLET), bank1d)
    assert "lowpass" not in hom
    assert inh["lowpass"] >= 0.0
    assert all(b["j"] >= 1 for b in inh["blocks"])


def test_besov_comparable_to_sobolev_at_p_q_two(grid1d, bank1d):
    # equivalent norms: the partition profiles are bounded above and
    # below on each octave, so the ratio stays in a fixed bracket
    for seed in (1, 5, 9):
        f = make_family("band_random", grid1d, OP_DIRICHLET, seed, 1,
                        grid1d.N)[0]
        s = 0.9
        b = besov_norm(f, SpaceSpec("besov", s, 2.0, 2.0, True,
                                    OP_DIRICHLET), bank1d)
        w = sobolev_norm(f, SpaceSpec("sobolev", s, 2.0, None, True,
                                      OP_DIRICHLET))
        assert 0.25 < b / w < 4.0


def test_leak_guard_fires_near_nyquist(grid1d, bank1d):
    N = grid1d.N
    alias = sample_half(grid1d,
                        lambda x: np.sin(np.pi * (N - 2) / 2 * x / grid1d.L),
                        bc=BC_DIRICHLET)
    with pytest.raises(NumericalGuardError):
        besov_norm(alias, SpaceSpec("besov", 0.5, 2.0, 2.0, True,
                                    OP_DIRICHLET), bank1d)


def test_homogeneous_guard_rejects_sub_band_energy(grid1d, bank1d):
    slow = sample_half(grid1d, lambda x: bump(x, 8.0, 6.0),
                       bc=BC_NEUMANN)
    with pytest.raises(NumericalGuardError):
        besov_norm(slow, SpaceSpec("besov", 0.5, 2.0, 2.0, True,
                                   OP_NEUMANN), bank1d)
    # the inhomogeneous norm holds low frequencies in its lowpass term
    val = besov_norm(slow, SpaceSpec("besov", 0.5, 2.0, 2.0, False,
                                     OP_NEUMANN), bank1d)
    assert val > 0.0


# ---------------------------------------------------------------------------
# the semigroup route

def test_semigroup_route_gamma_oracle(grid1d, bank1d):
    # single eigenmode: the t-integral of the semigroup characterization
    # collapses to a Gamma function in closed form
    m = 24
    k = np.pi * m / grid1d.L
    f = sample_half(grid1d, lambda x: np.sin(k * x), bc=BC_DIRICHLET)
    s, p, q, M = 0.8, 2.0, 2.0, 2
    spec = SpaceSpec("besov", s, p, q, True, OP_DIRICHLET)
    t_grid = np.geomspace(1e-9 / k ** 2 * 1e5, 1e5 / k ** 2, 4000)
    got = besov_norm_semigroup(f, spec, M=M, t_grid=t_grid, bank=bank1d)
    a = q * (M - s / 2.0)
    oracle = lp_norm(f, p) * k ** s * (gamma(a) / q ** a) ** (1.0 / q)
    assert got == pytest.approx(oracle, rel=1e-10)


def test_semigroup_route_is_an_equivalent_norm(grid1d, bank1d):
    spec = SpaceSpec("besov", 0.8, 2.0, 2.0, True, OP_DIRICHLET)
    for seed in (5, 6):
        f = make_family("band_random", grid1d, OP_DIRICHLET, seed, 1,
                        grid1d.N)[0]
        dy = besov_norm(f, spec, bank1d)
        sg = besov_norm_semigroup(f, spec, bank=bank1d)
        assert 0.2 < sg / dy < 2.0


def test_inhomogeneous_semigroup_without_bank_fails_before_any_transform(
        grid1d, monkeypatch):
    f = _band_field(grid1d)
    spec = SpaceSpec("besov", 0.8, 2.0, 2.0, False, OP_DIRICHLET)

    def refuse(*args, **kwargs):
        raise AssertionError("inverse FFT ran before the config check")

    monkeypatch.setattr(np.fft, "ifftn", refuse)
    with pytest.raises(ConfigError):
        besov_norm_semigroup(f, spec, t_grid=np.geomspace(1e-4, 1.0, 20))


@pytest.mark.parametrize("t_grid", [[1e-3, np.nan], [1e-3, 1e-2, np.inf],
                                    [np.nan, 1e-3]])
def test_semigroup_refuses_a_non_finite_t_grid(t_grid):
    # a NaN node passes both t <= 0 and diff <= 0, and an infinite one
    # passes both too; either would return nan or inf as a norm
    grid = make_grid(1, 16.0, 1024)
    f = _band_field(grid)
    spec = SpaceSpec("besov", 0.8, 2.0, 2.0, True, OP_DIRICHLET)
    with pytest.raises(ConfigError, match="finite positive"):
        besov_norm_semigroup(f, spec, t_grid=t_grid)


@pytest.mark.parametrize("homogeneous, kwargs, match", [
    (True, {"M": 0}, "moment count"),
    (True, {"M": 1.5}, "moment count"),
    (True, {"bank": None}, "bank or a t_grid"),
    (True, {"t_grid": [1e-2, 1e-3]}, "increasing"),
    (True, {"t_grid": [1e-2, 1e-2, 1e-1]}, "increasing"),
    (False, {"t_grid": [2.0, 4.0]}, r"\(0, 1\]"),
], ids=["M_zero", "M_float", "no_bank", "decreasing", "repeated_node",
        "nothing_in_unit_interval"])
def test_semigroup_refusals(grid1d, bank1d, homogeneous, kwargs, match):
    f = _band_field(grid1d)
    spec = SpaceSpec("besov", 0.8, 2.0, 2.0, homogeneous, OP_DIRICHLET)
    with pytest.raises(ConfigError, match=match):
        besov_norm_semigroup(f, spec, **{"bank": bank1d, **kwargs})


# ---------------------------------------------------------------------------
# extension equivalence

@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_extension_equivalence_constant_is_exact(grid1d, bank1d, p):
    f = _band_field(grid1d)
    spec = SpaceSpec("besov", 0.7, p, 2.0, True, OP_DIRICHLET)
    eq = extension_norm_equivalence(f, spec, bank1d)
    assert not eq["degenerate"]
    assert eq["ratio"] == pytest.approx(2.0 ** (-1.0 / p), rel=1e-12)
    assert eq["half_norm"] == pytest.approx(
        eq["ratio"] * eq["full_norm"], rel=1e-12)


@pytest.mark.parametrize("homogeneous", [True, False])
def test_extension_equivalence_is_one_pass(grid1d, bank1d, monkeypatch,
                                           homogeneous):
    f = _band_field(grid1d)
    spec = SpaceSpec("besov", 0.7, 3.0, 2.0, homogeneous, OP_DIRICHLET)
    expected = besov_norm(f, spec, bank1d)
    calls = []
    fftn = np.fft.fftn

    def counting(*args, **kwargs):
        calls.append(1)
        return fftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counting)
    eq = extension_norm_equivalence(f, spec, bank1d)
    assert len(calls) == 1
    assert eq["half_norm"] == expected


def test_extension_equivalence_2d():
    g = make_grid(2, 8.0, 512)
    from halfspace_spectral.experiments import get_bank

    f = make_family("band_random", g, OP_DIRICHLET, 7, 1, g.N)[0]
    spec = SpaceSpec("besov", 0.7, 2.0, 1.0, True, OP_DIRICHLET)
    eq = extension_norm_equivalence(f, spec, get_bank(g))
    assert eq["ratio"] == pytest.approx(2.0 ** (-0.5), rel=1e-12)


def test_extension_equivalence_flags_zero_field(grid1d, bank1d):
    zero = sample_half(grid1d, lambda x: 0.0 * x, bc=BC_DIRICHLET)
    spec = SpaceSpec("besov", 0.7, 2.0, 2.0, True, OP_DIRICHLET)
    eq = extension_norm_equivalence(zero, spec, bank1d)
    assert eq["degenerate"]


def test_extension_equivalence_needs_besov_spec(grid1d, bank1d):
    f = _band_field(grid1d)
    with pytest.raises(ConfigError):
        extension_norm_equivalence(
            f, SpaceSpec("sobolev", 0.7, 2.0, None, True, OP_DIRICHLET),
            bank1d)


# ---------------------------------------------------------------------------
# the sine/cosine route against the method of images
#
# The Besov passes run on the sine or cosine coefficients of the field;
# the oracle builds every quantity from public pieces: the parity
# extension, box multipliers with the phi_j, psi and semigroup symbols,
# and the restriction.

_BESOV_GRIDS = {1: (16.0, 4096), 2: (8.0, 256)}


def _image(ext, op, profile, zero):
    """profile(|xi|) applied to ``ext`` on the box, and its restriction."""
    radial = Multiplier(
        lambda *mesh: profile(np.sqrt(sum(xi ** 2 for xi in mesh))), zero)
    box = apply_multiplier(ext, radial)
    return restrict(box, bc=op), box


def _lq(values, q):
    values = np.asarray(values)
    if np.isinf(q):
        return float(np.max(values))
    return float(np.sum(values ** q) ** (1.0 / q))


def _image_leak(ext, bank, low_too):
    """Share of the extension's non-DC box power outside the band."""
    lam = np.sqrt(sum(xi ** 2 for xi in ext.grid.freq_mesh()))
    power = np.abs(np.fft.fftn(ext.values)) ** 2
    out = lam > 2.0 ** bank.j_max
    if low_too:
        out |= (lam > 0) & (lam < 2.0 ** bank.j_min)
    return float(np.sum(power[out]) / np.sum(power[lam > 0]))


@pytest.mark.parametrize("homogeneous", [True, False])
@pytest.mark.parametrize("op", [OP_DIRICHLET, OP_NEUMANN])
@pytest.mark.parametrize("n", [1, 2])
def test_besov_passes_agree_with_the_image_oracle(n, op, homogeneous,
                                                  monkeypatch):
    g = make_grid(n, *_BESOV_GRIDS[n])
    bank = get_bank(g)
    rng = np.random.default_rng(10 * n + len(op))
    # unstructured samples excite every mode, cosine mode 0 and sine
    # mode N/2 included, so the leak guard has to stand aside
    hf = HalfField(g, rng.standard_normal((g.N,) * (n - 1) + (g.N // 2,)),
                   op)
    monkeypatch.setattr(norms, "_LEAK_TOL", np.inf)
    ext = extend_for(hf, op)
    leak = _image_leak(ext, bank, low_too=homogeneous)
    s, M = 1.3, 2
    js = range(bank.j_min if homogeneous else max(bank.j_min, 1),
               bank.j_max + 1)
    blocks = [_image(ext, op, lambda lam, j=j: bank.phi(j, lam), 0.0)
              for j in js]
    low = _image(ext, op, bank.psi, 1.0)
    t_grid = np.geomspace(2.0 ** (-2 * bank.j_max), 1.0, 17)
    flows = [_image(ext, op, lambda lam, t=t: (t * lam ** 2) ** M
                    * np.exp(-t * lam ** 2), 0.0)[0] for t in t_grid]
    for p in (1.0, 2.0, np.inf):
        spec = SpaceSpec("besov", s, p, p, homogeneous, op)
        rep = besov_norm_report(hf, spec, bank)
        assert abs(rep["leak"] - leak) <= 1e-14, p
        assert [b["j"] for b in rep["blocks"]] == list(js)
        for b, (half, _) in zip(rep["blocks"], blocks):
            assert b["norm"] == pytest.approx(lp_norm(half, p),
                                              rel=1e-12), (p, b["j"])
        half_value = _lq([2.0 ** (s * j) * lp_norm(half, p)
                          for j, (half, _) in zip(js, blocks)], p)
        box_value = _lq([2.0 ** (s * j) * lp_norm(box, p)
                         for j, (_, box) in zip(js, blocks)], p)
        if not homogeneous:
            assert rep["lowpass"] == pytest.approx(lp_norm(low[0], p),
                                                   rel=1e-12), p
            half_value += lp_norm(low[0], p)
            box_value += lp_norm(low[1], p)
        assert rep["value"] == pytest.approx(half_value, rel=1e-12), p
        eq = extension_norm_equivalence(hf, spec, bank)
        assert eq["half_norm"] == pytest.approx(half_value, rel=1e-12), p
        assert eq["full_norm"] == pytest.approx(box_value, rel=1e-12), p
        # semigroup: the same log-trapezoid over t as the package
        vals = np.asarray([t ** (-s / 2.0) * lp_norm(flow, p)
                           for t, flow in zip(t_grid, flows)])
        if np.isinf(p):
            body = float(np.max(vals))
        else:
            w = vals ** p
            body = float(np.sum(0.5 * (w[1:] + w[:-1])
                                * np.diff(np.log(t_grid))) ** (1.0 / p))
        oracle = body if homogeneous else body + lp_norm(low[0], p)
        got = besov_norm_semigroup(hf, spec, M=M, t_grid=t_grid, bank=bank)
        assert got == pytest.approx(oracle, rel=1e-12), p


@pytest.mark.parametrize("homogeneous", [True, False])
@pytest.mark.parametrize("op", [OP_DIRICHLET, OP_NEUMANN])
def test_besov_passes_match_a_full_grid_loop(op, homogeneous, grid2d):
    # every block and low-pass term inverse-transformed over the whole
    # coefficient array, zero rows included
    from halfspace_spectral.spectral import (_half_forward, _half_inverse,
                                             _half_mesh)

    bank = get_bank(grid2d)
    f = make_family("band_random", grid2d, op, 4, 1, grid2d.N)[0]
    odd = op == OP_DIRICHLET
    coef = _half_forward(f.values, odd)
    lam = np.sqrt(sum(xi ** 2 for xi in _half_mesh(grid2d, odd)))
    js = range(bank.j_min if homogeneous else max(bank.j_min, 1),
               bank.j_max + 1)
    blocks = [f.with_values(_half_inverse(bank.phi(j, lam) * coef, odd))
              for j in js]
    low = f.with_values(_half_inverse(bank.psi(lam) * coef, odd))
    s, q = 1.2, 2.0
    for p in (1.0, 3.0, np.inf):
        spec = SpaceSpec("besov", s, p, q, homogeneous, op)
        half = _lq([2.0 ** (s * j) * lp_norm(b, p)
                    for j, b in zip(js, blocks)], q)
        box = _lq([2.0 ** (s * j) * lp_norm(extend_for(b, op), p)
                   for j, b in zip(js, blocks)], q)
        if not homogeneous:
            half += lp_norm(low, p)
            box += lp_norm(extend_for(low, op), p)
        rep = besov_norm_report(f, spec, bank)
        assert [b["j"] for b in rep["blocks"]] == list(js)
        for b, block in zip(rep["blocks"], blocks):
            assert b["norm"] == pytest.approx(lp_norm(block, p),
                                              rel=1e-13), (p, b["j"])
        if not homogeneous:
            assert rep["lowpass"] == pytest.approx(lp_norm(low, p),
                                                   rel=1e-13), p
        assert rep["value"] == pytest.approx(half, rel=1e-13), p
        eq = extension_norm_equivalence(f, spec, bank)
        assert eq["half_norm"] == pytest.approx(half, rel=1e-13), p
        assert eq["full_norm"] == pytest.approx(box, rel=1e-13), p


@pytest.mark.parametrize("homogeneous", [True, False])
@pytest.mark.parametrize("op", [OP_DIRICHLET, OP_NEUMANN])
@pytest.mark.parametrize("n, L, N", [(1, 16.0, 4096), (2, 8.0, 256)],
                         ids=["1d", "2d"])
def test_semigroup_is_bitwise_a_loop_over_its_nodes(n, L, N, op,
                                                    homogeneous):
    # each node is (t lam^2)^M exp(-t lam^2) times the coefficients,
    # inverse-transformed over the whole array: bitwise at p = 1 and inf,
    # where the rows the semigroup skips are exact zeros, and to roundoff
    # at p = 2, where Parseval sums the same squares in another order
    from halfspace_spectral.spectral import (_half_forward, _half_inverse,
                                             _half_mesh)

    grid = make_grid(n, L, N)
    bank = get_bank(grid)
    f = make_family("band_random", grid, op, 4, 1, N)[0]
    odd = op == OP_DIRICHLET
    coef = _half_forward(f.values, odd)
    lam = np.sqrt(sum(xi ** 2 for xi in _half_mesh(grid, odd)))
    lam2 = lam ** 2
    s, q, M = 1.2, 2.0, 2
    t_grid = np.geomspace(2.0 ** (-2 * bank.j_max), 4.0, 60)
    ts = t_grid if homogeneous else t_grid[t_grid <= 1.0]
    nodes = [f.with_values(_half_inverse(
        (t * lam2) ** M * np.exp(-t * lam2) * coef, odd)) for t in ts]
    low = f.with_values(_half_inverse(bank.psi(lam) * coef, odd))
    for p in (1.0, 2.0, np.inf):
        vals = np.asarray([t ** (-s / 2.0) * lp_norm(node, p)
                           for t, node in zip(ts, nodes)])
        want = float(np.trapezoid(vals ** q, np.log(ts)) ** (1.0 / q))
        if not homogeneous:
            want = lp_norm(low, p) + want
        spec = SpaceSpec("besov", s, p, q, homogeneous, op)
        got = besov_norm_semigroup(f, spec, M=M, t_grid=t_grid, bank=bank)
        if p == 2:
            assert got == pytest.approx(want, rel=1e-13, abs=0)
        else:
            assert got == want, p


@pytest.mark.parametrize("op", [OP_DIRICHLET, OP_NEUMANN])
def test_besov_passes_make_quarter_size_transforms(op, monkeypatch):
    # the smallest 2-D grid that builds a bank: one forward transform of
    # the 256 x 128 half-grid, packed into 256 x 64 complex points.  At
    # p = 1 each dyadic block, low-pass term and t-node then
    # inverse-transforms along the normal only the rows |xi_t| below its
    # radius, and then 256 x 64 points along the tangential axis; a
    # t-node whose radius sqrt(cut / t) lies beyond every row makes one
    # inverse of 256 x 64 points.  With M = 2 the heat profile is cut at
    # t |xi|^2 = 54.67, where it falls to 1e-20 of its peak, and two of
    # the five t-nodes reach every row.  At p = 2 every norm comes from the
    # coefficients, and the forward transform is the only one.  There is
    # never a 256 x 256 transform of an extension, and each transform
    # runs in place on a complex array (out= is the input)
    g = make_grid(2, 8.0, 256)
    bank = get_bank(g)
    f = make_family("band_random", g, op, 3, 1, g.N)[0]
    t_grid = np.geomspace(1e-3, 1.0, 5)
    sizes = []
    for name in ("fftn", "ifftn"):
        def record(a, *args, _name=name, _orig=getattr(np.fft, name), **kw):
            in_place = np.iscomplexobj(a) and kw.get("out") is a
            sizes.append((_name, np.size(a), kw.get("axes"), in_place))
            return _orig(a, *args, **kw)
        monkeypatch.setattr(np.fft, name, record)
    xi_t = np.abs(g.freq_axis())

    def band(radius):
        rows = np.count_nonzero(xi_t < radius)
        assert rows > 0
        if rows == g.N:
            return [("ifftn", 256 * 64, None, True)]
        return [("ifftn", rows * 64, (-1,), True),
                ("ifftn", 256 * 64, (0,), True)]

    fwd = ("fftn", 256 * 64, None, True)
    cut = norms._heat_cut(2)
    assert cut == pytest.approx(54.668, abs=1e-3)
    nodes = [call for t in t_grid for call in band(np.sqrt(cut / t))]
    assert nodes[:2] == band(np.inf) * 2 and len(nodes) == t_grid.size + 3
    for homogeneous in (True, False):
        spec = SpaceSpec("besov", 1.0, 1.0, 2.0, homogeneous, op)
        low = [] if homogeneous else band(2.0)
        sizes.clear()
        rep = besov_norm_report(f, spec, bank)
        assert sizes == [fwd] + [call for b in rep["blocks"]
                                 for call in band(2.0 ** (b["j"] + 1))] + low
        sizes.clear()
        besov_norm_semigroup(f, spec, t_grid=t_grid, bank=bank)
        assert sizes == [fwd] + nodes + low
        spec = SpaceSpec("besov", 1.0, 2.0, 2.0, homogeneous, op)
        for call in (lambda: besov_norm_report(f, spec, bank),
                     lambda: besov_norm_semigroup(f, spec, t_grid=t_grid,
                                                  bank=bank),
                     lambda: extension_norm_equivalence(f, spec, bank)):
            sizes.clear()
            call()
            assert sizes == [fwd]


@pytest.mark.parametrize("op", [OP_DIRICHLET, OP_NEUMANN])
@pytest.mark.parametrize("n, L, N", [(1, 16.0, 1024), (2, 8.0, 256)],
                         ids=["1d", "2d"])
def test_p2_norms_come_from_the_coefficients(n, L, N, op, monkeypatch):
    # at p = 2 Parseval gives every norm with no inverse transform:
    # Sobolev norms equal the L^2 norm of the operator's samples, and the
    # box norm of the extension is sqrt(2) times the half norm.  The
    # guards still fire: the leak guard on an alias probe, and the
    # zero-mean guard on a Neumann field of non-zero mean at s < 0
    grid = make_grid(n, L, N)
    bank = get_bank(grid)
    f = make_family("band_random", grid, op, 5, 1, grid.N)[0]
    oracles = []
    for s in (-1.2, 0.5, 2.5):
        bessel = Multiplier(
            lambda *mesh, s=s: (1.0 + sum(xi ** 2 for xi in mesh)) ** (s / 2),
            1.0)
        image = restrict(apply_multiplier(extend_for(f, op), bessel), op)
        oracles += [(SpaceSpec("sobolev", s, 2.0, None, True, op),
                     lp_norm(frac_power(f, op, s), 2.0)),
                    (SpaceSpec("sobolev", s, 2.0, None, False, op),
                     lp_norm(image, 2.0))]
    alias = sample_half(grid, lambda *c: np.sin(np.pi * (N - 2) / 2 * c[-1]
                                                / L), bc=BC_DIRICHLET)
    inverses = []

    def counting(*args, _orig=np.fft.ifftn, **kw):
        inverses.append(np.size(args[0]))
        return _orig(*args, **kw)

    monkeypatch.setattr(np.fft, "ifftn", counting)
    for spec, want in oracles:
        got = sobolev_norm(f, spec)
        assert got == pytest.approx(want, rel=1e-13, abs=0), spec
    for homogeneous in (True, False):
        spec = SpaceSpec("besov", 0.7, 2.0, 2.0, homogeneous, op)
        eq = extension_norm_equivalence(f, spec, bank)
        assert eq["ratio"] == pytest.approx(2.0 ** -0.5, rel=1e-14, abs=0)
        assert besov_norm_semigroup(f, spec, bank=bank) > 0.0
    assert inverses == []
    probe = SpaceSpec("besov", 0.5, 2.0, 2.0, True, OP_DIRICHLET)
    for route in (besov_norm_report, extension_norm_equivalence):
        with pytest.raises(NumericalGuardError, match="outside the resolved"):
            route(alias, probe, bank)
    if op == OP_NEUMANN:
        lifted = f.with_values(f.values + 1.0)
        with pytest.raises(ConfigError, match="zero-mean"):
            sobolev_norm(lifted, SpaceSpec("sobolev", -1.2, 2.0, None, True,
                                           op))


def test_power_is_formed_only_where_it_is_read(grid1d, grid2d, monkeypatch):
    # |coef|^2 serves the p = 2 energies alone: the leak guard takes its
    # sums a block of rows at a time, so the dyadic and extension passes,
    # the semigroup and the block floor at p != 2, and dyadic_block,
    # never form it
    from halfspace_spectral import spectral

    def refuse(self):
        raise AssertionError("power formed")

    monkeypatch.setattr(spectral._HalfSpectrum, "power", property(refuse))
    bank = get_bank(grid2d)
    f = make_family("band_random", grid2d, OP_NEUMANN, 3, 1, grid2d.N)[0]
    for p in (1.0, 3.0, np.inf):
        spec = SpaceSpec("besov", 1.0, p, 2.0, False, OP_NEUMANN)
        assert besov_norm_semigroup(f, spec, bank=bank) > 0.0
        for homogeneous in (True, False):
            spec = SpaceSpec("besov", 1.0, p, 2.0, homogeneous, OP_NEUMANN)
            assert besov_norm_report(f, spec, bank)["value"] > 0.0
            assert extension_norm_equivalence(f, spec, bank)["full_norm"] > 0.0
    assert besov_block_floor(3.0, grid1d)["plateau"] in (True, False)
    box = sample(grid1d, lambda x: np.sin(np.pi * 4 * x / grid1d.L))
    assert np.any(dyadic_block(box, -1, get_bank(grid1d)).values)
    for route in (besov_norm_report, besov_norm_semigroup):
        with pytest.raises(AssertionError, match="power formed"):
            route(f, SpaceSpec("besov", 1.0, 2.0, 2.0, False, OP_NEUMANN),
                  bank=bank)


@pytest.mark.parametrize("op", [OP_DIRICHLET, OP_NEUMANN])
@pytest.mark.parametrize("n, N", [(1, 4096), (2, 512)], ids=["1d", "2d"])
def test_heat_cut_moves_semigroup_values_at_roundoff(n, N, op, monkeypatch):
    # heat nodes stop where their profile falls to 1e-20 of its peak,
    # against the uncut route: every row, every normal wavenumber and
    # exp taken everywhere.  The default M, homogeneous and not, and an
    # explicit M = 6, over nine t-nodes that span the resolved octaves
    grid = make_grid(n, 16.0, N)
    bank = get_bank(grid)
    f = make_family("band_random", grid, op, 5, 1, N)[0]
    t_grid = np.geomspace(2.0 ** (-2 * bank.j_max), 2.0 ** (-2 * bank.j_min),
                          9)
    cases = [(SpaceSpec("besov", s, p, 2.0, i % 2 == 0, op), None)
             for i, s in enumerate((-0.4, 0.7, 1.9, 2.4, 3.7))
             for p in (1.0, 2.0, 3.0, np.inf)]
    cases += [(SpaceSpec("besov", s, p, 2.0, True, op), 6)
              for s in (0.7, 3.7) for p in (1.0, 2.0, 3.0, np.inf)]

    def run():
        return [besov_norm_semigroup(f, spec, M=M, t_grid=t_grid, bank=bank)
                for spec, M in cases]

    cut = run()
    monkeypatch.setattr(norms, "_heat_cut", lambda M: np.inf)
    for (spec, M), got, want in zip(cases, cut, run()):
        assert abs(got - want) <= 1e-15 * abs(want), (spec, M)


def test_p2_routes_call_no_blas(monkeypatch):
    # the Parseval sums run numpy's own loops, never BLAS, whose threads
    # stall on sums this small: with numpy.vdot and numpy.dot refusing,
    # Sobolev norms in 1-D and 3-D and the dyadic, semigroup and
    # extension routes all return at p = 2
    def refuse(*args, **kwargs):
        raise AssertionError("BLAS called")

    monkeypatch.setattr(np, "vdot", refuse)
    monkeypatch.setattr(np, "dot", refuse)
    for n, L, N in ((1, 16.0, 1024), (3, 8.0, 32)):
        grid = make_grid(n, L, N)
        f = make_family("bump_random", grid, OP_NEUMANN, 2, 1)[0]
        for homogeneous in (True, False):
            spec = SpaceSpec("sobolev", 1.5, 2.0, None, homogeneous,
                             OP_NEUMANN)
            assert sobolev_norm(f, spec) > 0.0
    grid = make_grid(2, 8.0, 256)
    bank = get_bank(grid)
    f = _band_field(grid)
    for homogeneous in (True, False):
        spec = SpaceSpec("besov", 0.7, 2.0, 2.0, homogeneous, OP_DIRICHLET)
        assert besov_norm_report(f, spec, bank)["value"] > 0.0
        assert besov_norm_semigroup(f, spec, bank=bank) > 0.0
        assert extension_norm_equivalence(f, spec, bank)["half_norm"] > 0.0


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_besov_passes_hold_few_half_fields_at_once(p):
    # peak traced allocation of one call at 2-D N = 1024, in half-field
    # float64 bytes.  The spectrum holds only its coefficients (two) and
    # forms |xi| a block of rows at a time; a band adds its work buffer
    # (two) and its samples (one), and the extension route at p != 2 the
    # box block and its moduli (two each).  At p = 2 the weighted power
    # (one) replaces the band
    g = make_grid(2, 16.0, 1024)
    bank = get_bank(g)
    f = _band_field(g)
    spec = SpaceSpec("besov", 0.7, p, 2.0, False, OP_DIRICHLET)
    t_grid = np.geomspace(2.0 ** (-2 * bank.j_max), 1.0, 9)
    calls = {
        "report": lambda: besov_norm_report(f, spec, bank),
        "semigroup": lambda: besov_norm_semigroup(f, spec, t_grid=t_grid,
                                                  bank=bank),
        "extension": lambda: extension_norm_equivalence(f, spec, bank),
    }
    calls["report"]()  # leave the one-off caches out of the peak
    for label, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.5 * f.values.nbytes, (label, peak / f.values.nbytes)


# ---------------------------------------------------------------------------
# property checks

@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=1.1, max_value=8.0,
                 allow_nan=False, allow_infinity=False))
def test_equivalence_constant_property(p):
    g = make_grid(1, 16.0, 1024)
    from halfspace_spectral.experiments import get_bank

    bank = get_bank(g)
    f = make_family("band_random", g, OP_DIRICHLET, 2, 1, g.N)[0]
    spec = SpaceSpec("besov", 0.5, p, 2.0, True, OP_DIRICHLET)
    eq = extension_norm_equivalence(f, spec, bank)
    assert eq["ratio"] == pytest.approx(2.0 ** (-1.0 / p), rel=1e-11)
