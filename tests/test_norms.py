"""Sobolev and Besov norms, their reports and the route cross-checks."""

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
    besov_norm,
    besov_norm_report,
    besov_norm_semigroup,
    bump,
    extend_for,
    extension_norm_equivalence,
    get_bank,
    lp_norm,
    make_family,
    make_grid,
    norms,
    restrict,
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


@pytest.mark.parametrize("op", [OP_DIRICHLET, OP_NEUMANN])
def test_besov_passes_transform_only_the_half_grid(op, monkeypatch):
    # the smallest 2-D grid that builds a bank: one forward transform of
    # the 256 x 128 half-grid, then one inverse per block or t-node and
    # per low-pass term, and never a 256 x 256 transform of an extension
    g = make_grid(2, 8.0, 256)
    bank = get_bank(g)
    f = make_family("band_random", g, op, 3, 1, g.N)[0]
    t_grid = np.geomspace(1e-3, 1.0, 5)
    sizes = []
    for name in ("fftn", "ifftn"):
        def record(a, *args, _name=name, _orig=getattr(np.fft, name), **kw):
            sizes.append((_name, np.size(a)))
            return _orig(a, *args, **kw)
        monkeypatch.setattr(np.fft, name, record)
    half = 256 * 128
    for homogeneous in (True, False):
        spec = SpaceSpec("besov", 1.0, 2.0, 2.0, homogeneous, op)
        sizes.clear()
        rep = besov_norm_report(f, spec, bank)
        terms = len(rep["blocks"]) + (not homogeneous)
        assert sizes == [("fftn", half)] + [("ifftn", half)] * terms
        sizes.clear()
        besov_norm_semigroup(f, spec, t_grid=t_grid, bank=bank)
        terms = t_grid.size + (not homogeneous)
        assert sizes == [("fftn", half)] + [("ifftn", half)] * terms


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
