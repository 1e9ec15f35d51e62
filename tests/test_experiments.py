"""Ratio sweeps, the growth classifier and the product decompositions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace_spectral import (
    BC_DIRICHLET,
    BC_NEUMANN,
    BilinearConfig,
    ConfigError,
    NumericalGuardError,
    OP_DIRICHLET,
    OP_NEUMANN,
    TrilinearConfig,
    besov_block_floor,
    bilinear_ratio,
    bump,
    classify_growth,
    counterexample_fields,
    cutoff_profile,
    derivative_mapping_sweep,
    dyadic_block,
    fit_line,
    fractional_laplacian,
    leibniz_decomposition,
    lp_norm,
    make_family,
    make_grid,
    odd_extend,
    paraproduct_split,
    ratio_sweep,
    restrict,
    sample,
    sample_half,
    singular_window_growth,
    singularity_profile,
    trilinear_ratio,
)
from halfspace_spectral.experiments import get_bank

INF = float("inf")


def _cfg(**kw):
    base = dict(s=1.0, p=2.0, p1=2.0, p2=INF, p3=INF, p4=2.0,
                op=OP_DIRICHLET, family="bump_random", count=2, seed=0,
                resolutions=(512, 1024), L=16.0, n=1)
    base.update(kw)
    return BilinearConfig(**base)


# ---------------------------------------------------------------------------
# configuration validation

def test_exponent_bookkeeping_enforced():
    with pytest.raises(ConfigError):
        _cfg(p1=4.0)              # 1/4 + 0 != 1/2
    with pytest.raises(ConfigError):
        _cfg(p3=2.0)              # 1/2 + 1/2 != 1/2
    _cfg(p1=4.0, p2=4.0)          # 1/4 + 1/4 == 1/2 is fine
    _cfg(p=3.0, p1=3.0, p4=6.0, p3=6.0)


def test_exponent_range_enforced():
    with pytest.raises(ConfigError):
        _cfg(p=0.5, p1=0.5)
    with pytest.raises(ConfigError):
        _cfg(count=0)
    with pytest.raises(ConfigError):
        _cfg(resolutions=())


def test_besov_sweeps_need_q():
    with pytest.raises(ConfigError):
        _cfg(kind="besov")
    _cfg(kind="besov", q=1.0)


def _tri(**kw):
    base = dict(s=1.0, p=2.0,
                exponents=((2.0, INF, INF), (INF, 2.0, INF), (INF, INF, 2.0)),
                op=OP_DIRICHLET, family="bump_random", count=2, seed=0,
                resolutions=(512,), L=16.0, n=1)
    base.update(kw)
    return TrilinearConfig(**base)


def test_sobolev_sweeps_take_no_q():
    with pytest.raises(ConfigError):
        _cfg(q=2.0)
    with pytest.raises(ConfigError):
        _tri(q=2.0)


@pytest.mark.parametrize("make", [_cfg, _tri])
@pytest.mark.parametrize("bad", [{"op": "foo"}, {"s": float("nan")},
                                 {"s": INF}], ids=["op", "s_nan", "s_inf"])
def test_sweep_configs_refuse_bad_op_or_s_at_construction(make, bad):
    with pytest.raises(ConfigError):
        make(**bad)


def test_trilinear_kind_validated():
    with pytest.raises(ConfigError):
        _tri(kind="holder")
    _tri(kind="besov", q=2.0)


def test_bilinear_exponents_pair_up_per_term():
    assert _cfg(p1=4.0, p2=4.0).exponents == ((4.0, 4.0), (INF, 2.0))


def test_resolutions_sorted_and_integer():
    cfg = _cfg(resolutions=(2048, 512, 1024))
    assert cfg.resolutions == (512, 1024, 2048)


def test_trilinear_exponents_sum_per_slot():
    TrilinearConfig(s=1.0, p=2.0,
                    exponents=((2.0, INF, INF),
                               (INF, 2.0, INF),
                               (INF, INF, 2.0)),
                    op=OP_DIRICHLET, family="bump_random", count=2,
                    seed=0, resolutions=(512,), L=16.0, n=1)
    with pytest.raises(ConfigError):
        TrilinearConfig(s=1.0, p=2.0,
                        exponents=((2.0, 2.0, INF),
                                   (INF, 2.0, INF),
                                   (INF, INF, 2.0)),
                        op=OP_DIRICHLET, family="bump_random", count=2,
                        seed=0, resolutions=(512,), L=16.0, n=1)


# ---------------------------------------------------------------------------
# single ratios

def test_ratio_of_eigenmode_pair_hand_check(grid1d):
    cfg = _cfg(resolutions=(grid1d.N,), s=1.0)
    k1 = np.pi / grid1d.L
    k2 = 2.0 * np.pi / grid1d.L
    f = sample_half(grid1d, lambda x: np.sin(k1 * x), bc=BC_DIRICHLET)
    g = sample_half(grid1d, lambda x: np.sin(k2 * x), bc=BC_DIRICHLET)
    out = bilinear_ratio(f, g, cfg)
    t1 = k1 * lp_norm(f, 2.0) * lp_norm(g, INF)
    t2 = lp_norm(f, INF) * k2 * lp_norm(g, 2.0)
    assert out["terms"][0] == pytest.approx(t1, rel=1e-11)
    assert out["terms"][1] == pytest.approx(t2, rel=1e-11)
    assert out["rhs"] == pytest.approx(t1 + t2, rel=1e-11)
    assert out["ratio"] == pytest.approx(out["lhs"] / (t1 + t2), rel=1e-12)
    assert not out["degenerate"]


def test_zero_pair_is_degenerate_not_a_crash(grid1d):
    cfg = _cfg(resolutions=(grid1d.N,))
    z = sample_half(grid1d, lambda x: 0.0 * x, bc=BC_DIRICHLET)
    out = bilinear_ratio(z, z, cfg)
    assert out["degenerate"]
    assert np.isnan(out["ratio"])


def test_trilinear_ratio_structure(grid1d):
    cfg = TrilinearConfig(s=1.0, p=2.0,
                          exponents=((2.0, INF, INF),
                                     (INF, 2.0, INF),
                                     (INF, INF, 2.0)),
                          op=OP_DIRICHLET, family="bump_random", count=1,
                          seed=4, resolutions=(grid1d.N,), L=16.0, n=1)
    f, g, h = make_family("bump_random", grid1d, OP_DIRICHLET, 4, 3)
    out = trilinear_ratio(f, g, h, cfg)
    assert len(out["terms"]) == 3
    assert out["rhs"] == pytest.approx(sum(out["terms"]), rel=1e-12)
    assert out["ratio"] > 0.0


# ---------------------------------------------------------------------------
# fits and the growth verdict

def test_fit_line_recovers_exact_lines():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    fit = fit_line(x, 2.5 * x - 1.0)
    assert fit["slope"] == pytest.approx(2.5, abs=1e-12)
    assert fit["intercept"] == pytest.approx(-1.0, abs=1e-12)
    assert fit["stderr"] == pytest.approx(0.0, abs=1e-10)
    assert fit["r2"] == pytest.approx(1.0, abs=1e-12)


def test_fit_line_two_points_has_no_error_estimate():
    fit = fit_line(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    assert np.isinf(fit["stderr"])


def test_steady_log_growth_reads_diverging():
    v, fits = classify_growth([4096, 8192, 16384, 32768],
                              [1.0, 1.2, 1.44, 1.728])
    assert v == "diverging"
    assert fits["log_vs_loglogN"]["slope"] > 0


def test_small_relative_range_reads_bounded():
    v, _ = classify_growth([4096, 8192, 16384, 32768],
                           [1.0, 1.02, 1.025, 1.026])
    assert v == "bounded"


def test_decreasing_maxima_read_bounded():
    v, _ = classify_growth([4096, 8192, 16384, 32768],
                           [2.0, 1.5, 1.2, 1.1])
    assert v == "bounded"


def test_non_monotone_large_range_is_inconclusive():
    v, _ = classify_growth([4096, 8192, 16384, 32768],
                           [1.0, 1.5, 1.6, 1.55])
    assert v == "inconclusive"


def test_two_resolutions_cannot_diverge():
    v, _ = classify_growth([4096, 8192], [1.0, 2.0])
    assert v != "diverging"


def test_roundoff_scale_growth_reads_bounded():
    v, _ = classify_growth([4096, 8192, 16384, 32768],
                           [1.0, 1.0 + 1e-9, 1.0 + 2e-9, 1.0 + 3e-9])
    assert v == "bounded"


def test_decaying_increments_with_wide_range_stay_inconclusive():
    # a convergent transient that moved a lot but is clearly levelling
    # off must not be called diverging
    v, _ = classify_growth([4096, 8192, 16384, 32768],
                           [1.0, 1.3, 1.36, 1.372])
    assert v == "inconclusive"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=10.0,
                          allow_nan=False, allow_infinity=False),
                min_size=3, max_size=6))
def test_diverging_requires_monotone_growth(maxima):
    res = [1024 * 2 ** i for i in range(len(maxima))]
    v, _ = classify_growth(res, maxima)
    if v == "diverging":
        assert all(b > a for a, b in zip(maxima, maxima[1:]))


# ---------------------------------------------------------------------------
# sweeps

def test_smooth_pair_sweep_is_bounded_and_deterministic():
    cfg = _cfg(count=2, resolutions=(512, 1024, 2048))
    rep1 = ratio_sweep(cfg)
    rep2 = ratio_sweep(cfg)
    assert rep1.verdict == "bounded"
    assert rep1.to_json_dict() == rep2.to_json_dict()
    assert rep1.meta["seed"] == 0
    assert rep1.excluded == []


def test_sweep_report_shape():
    cfg = _cfg(count=2, resolutions=(512, 1024))
    rep = ratio_sweep(cfg)
    assert len(rep.per_resolution) == 2
    assert len(rep.items) == 2 * 2
    for it in rep.items:
        assert set(it) >= {"pair", "N", "lhs", "rhs", "ratio"}
    rows = rep.csv_rows()
    assert rows[0] == ["pair", "N", "lhs", "rhs", "ratio"]
    assert len(rows) == len(rep.items) + 1
    assert rep.verdict in ("bounded", "diverging", "inconclusive")
    assert "max_ratio" in rep.meta


def test_sweep_threads_do_not_change_the_answer():
    cfg = _cfg(count=3, resolutions=(512, 1024))
    a = ratio_sweep(cfg, threads=1)
    b = ratio_sweep(cfg, threads=3)
    assert a.to_json_dict() == b.to_json_dict()


def test_wall_time_not_in_the_payload():
    cfg = _cfg(count=1, resolutions=(512,))
    rep = ratio_sweep(cfg)
    assert rep.wall_time_s > 0.0
    assert "wall_time_s" not in rep.to_json_dict()
    assert "wall_time_s" not in rep.to_json_dict()["meta"]


def test_echoed_leak_tolerance_is_the_guard_in_force(monkeypatch):
    from halfspace_spectral import norms
    cfg = _cfg(count=1, resolutions=(512,))
    assert ratio_sweep(cfg).config["tolerances"]["leak"] == 1e-8
    monkeypatch.setattr(norms, "_LEAK_TOL", 3e-7)
    assert ratio_sweep(cfg).config["tolerances"]["leak"] == 3e-7


def test_neumann_sweep_runs():
    cfg = _cfg(op=OP_NEUMANN, s=1.5, count=2, resolutions=(512, 1024))
    rep = ratio_sweep(cfg)
    assert rep.verdict == "bounded"


# ---------------------------------------------------------------------------
# paraproducts

def test_paraproduct_reconstructs_banded_products(grid1d, bank1d):
    flds = make_family("band_random", grid1d, OP_DIRICHLET, 13, 2,
                       grid1d.N)
    from halfspace_spectral import odd_extend

    F = odd_extend(flds[0])
    G = odd_extend(flds[1])
    p1, p2, info = paraproduct_split(F, G, bank1d)
    assert info["reconstruction_rel_l2"] < 1e-8
    recon = p1.values + p2.values
    prod = F.values * G.values
    assert np.linalg.norm(recon - prod) < 1e-8 * np.linalg.norm(prod)


def test_paraproduct_separates_distant_octaves(grid1d, bank1d):
    # rough factor four octaves above the smooth one: the whole
    # product must land in the high-low piece
    rough = sample(grid1d, lambda x: np.sin(64.0 * np.pi * x / 16.0))
    smooth = sample(grid1d, lambda x: np.sin(np.pi * x / 4.0))
    p1, p2, info = paraproduct_split(rough, smooth, bank1d)
    prod = rough.values * smooth.values
    assert np.linalg.norm(p1.values - prod) < 1e-8 * np.linalg.norm(prod)
    assert np.linalg.norm(p2.values) < 1e-8 * np.linalg.norm(prod)


def test_paraproduct_rejects_nonzero_mean(grid1d, bank1d):
    f = make_family("band_random", grid1d, OP_DIRICHLET, 13, 1, grid1d.N)[0]
    from halfspace_spectral import odd_extend

    F = odd_extend(f)
    shifted = F.with_values(F.values + 0.5)
    with pytest.raises(NumericalGuardError):
        paraproduct_split(shifted, F, bank1d)
    with pytest.raises(ConfigError):
        paraproduct_split(F.with_values(0.0 * F.values), F, bank1d)


def test_paraproduct_rejects_out_of_band_energy(grid1d, bank1d):
    N = grid1d.N
    alias = sample(grid1d, lambda x: np.sin(np.pi * (N - 2) / 2 * x / 16.0))
    inband = sample(grid1d, lambda x: np.sin(np.pi * x / 2.0))
    with pytest.raises(NumericalGuardError):
        paraproduct_split(alias, inband, bank1d)


# ---------------------------------------------------------------------------
# product rule through the wall

def test_product_rule_reconstructs_for_interior_pairs(grid1d):
    f = sample_half(grid1d, lambda x: bump(x, 4.0, 1.2), bc=BC_DIRICHLET)
    g = sample_half(grid1d, lambda x: bump(x, 5.0, 1.5), bc=BC_DIRICHLET)
    out = leibniz_decomposition(f, g)
    assert out["residual_rel_l2"] < 1e-8
    assert not out["boundary_active"]
    assert out["middle_trace_max"] < 1e-10
    p1, mid, p3 = out["pieces"]
    recon = p1.values - 2.0 * mid.values + p3.values
    direct = out["direct"].values
    assert np.linalg.norm(recon - direct) < 1e-8 * np.linalg.norm(direct)


def test_product_rule_flags_boundary_gradient_pairs(grid1d):
    f, g = counterexample_fields(grid1d)
    out = leibniz_decomposition(f, g)
    assert out["boundary_active"]
    # grad f . grad g extrapolates to phi(0)^2 = 1 at the wall
    assert out["middle_trace_max"] == pytest.approx(1.0, abs=1e-3)
    assert 1e-5 < out["residual_rel_l2"] < 1e-1


def test_product_rule_boundary_residual_shrinks_like_sqrt_h():
    vals = []
    for N in (2048, 8192):
        g = make_grid(1, 16.0, N)
        f, gg = counterexample_fields(g)
        vals.append(leibniz_decomposition(f, gg)["residual_rel_l2"])
    # one refinement by 4 should halve it
    assert vals[1] == pytest.approx(vals[0] / 2.0, rel=0.25)


def test_product_rule_requires_dirichlet_tags(grid1d):
    f = sample_half(grid1d, lambda x: bump(x, 4.0, 1.2))
    g = sample_half(grid1d, lambda x: bump(x, 5.0, 1.5), bc=BC_DIRICHLET)
    with pytest.raises(ConfigError):
        leibniz_decomposition(f, g)
    with pytest.raises(ConfigError):
        leibniz_decomposition(g, f.with_bc(BC_NEUMANN))


# ---------------------------------------------------------------------------
# derivative mappings

def test_cross_condition_derivative_is_an_isometry_at_p_two():
    out = derivative_mapping_sweep(0.75, 2.0, "boundary_adversarial",
                                   OP_DIRICHLET, 3, 2, (1024, 2048))
    for item in out["cross"]["items"]:
        # quadrature tails keep this from machine precision at these
        # resolutions; the exact-arithmetic value is 1
        assert item["ratio"] == pytest.approx(1.0, rel=1e-6)
    assert out["cross"]["verdict"] == "bounded"
    assert out["threshold"] == 0.5


def test_same_condition_derivative_splits_at_the_threshold():
    lo = derivative_mapping_sweep(0.25, 2.0, "boundary_adversarial",
                                  OP_DIRICHLET, 3, 3,
                                  (2048, 4096, 8192, 16384))
    hi = derivative_mapping_sweep(0.75, 2.0, "boundary_adversarial",
                                  OP_DIRICHLET, 3, 3,
                                  (2048, 4096, 8192, 16384))
    assert lo["same"]["verdict"] == "bounded"
    assert hi["same"]["verdict"] == "diverging"


# ---------------------------------------------------------------------------
# profile diagnostics (small versions; the full runs live in the
# acceptance module)

def test_profile_window_validation():
    g = make_grid(1, 16.0, 512)
    with pytest.raises(ConfigError):
        singularity_profile(2.0, g)       # window collapses at this mesh
    g2 = make_grid(1, 16.0, 8192)
    with pytest.raises(ConfigError):
        singularity_profile(INF, g2)


def test_profile_fits_the_expected_exponent_small():
    g = make_grid(1, 16.0, 8192)
    out = singularity_profile(2.0, g)
    assert out["expected_exponent"] == -0.5
    assert out["exponent_spectral"] == pytest.approx(-0.5, abs=0.08)
    assert out["engine_rel_l2_diff"] < 0.05
    assert out["antisymmetry_residual"] < 1e-12


@pytest.mark.parametrize("p", [0.0, 0.5, INF, float("nan")])
@pytest.mark.parametrize("diagnostic", [
    lambda p: singularity_profile(p, make_grid(1, 16.0, 4096)),
    lambda p: besov_block_floor(p, make_grid(1, 16.0, 4096)),
    lambda p: singular_window_growth(p, 16.0, (4096,)),
], ids=["profile", "block_floor", "window_growth"])
def test_diagnostics_refuse_exponents_outside_one_to_inf(diagnostic, p):
    # one check for the three, before any work, so that nan is not
    # reported as a symbol that is not finite
    with pytest.raises(ConfigError, match="diagnostic exponent"):
        diagnostic(p)


def test_diagnostics_transform_only_the_half_grid(monkeypatch):
    # the counterexample is the odd reflection of Phi, so the sine
    # transform of Phi on N/2 points carries it; the quadrature oracle
    # runs on scipy and is not counted
    sizes = []
    for name in ("fftn", "ifftn"):
        def record(a, *args, _orig=getattr(np.fft, name), **kw):
            sizes.append(np.size(a))
            return _orig(a, *args, **kw)
        monkeypatch.setattr(np.fft, name, record)
    g = make_grid(1, 16.0, 4096)
    # box and half sizes of the ladder are disjoint
    for run, Ns in ((lambda: singular_window_growth(2.0, 16.0, (4096, 16384)),
                     (4096, 16384)),
                    (lambda: besov_block_floor(2.0, g), (4096,)),
                    (lambda: singularity_profile(2.0, g), (4096,))):
        sizes.clear()
        run()
        assert sizes and set(sizes) <= {N // 2 for N in Ns}


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_diagnostics_agree_with_the_image_oracle(p):
    # the box route on the odd extension of Phi, built here
    g = make_grid(1, 16.0, 8192)
    phi_odd = odd_extend(sample_half(g, lambda x: cutoff_profile(x) ** 2,
                                     bc=BC_DIRICHLET))
    out = restrict(fractional_laplacian(phi_odd, 1.0 / p)).values
    x = g.half_coords()
    mask = (x > 4 * g.h) & (x < 0.25)
    window = g.h * np.sum(out[mask] ** 2)
    got = singular_window_growth(p, 16.0, (4096, 8192))["window_norms_sq"][1]
    assert got == pytest.approx(window, rel=1e-12)

    floor = besov_block_floor(p, g)
    bank = get_bank(g)
    box = [2.0 ** (j / p) * lp_norm(dyadic_block(phi_odd, j, bank), p)
           for j in floor["octaves"]]
    assert floor["blocks"] == pytest.approx(box, rel=1e-12)


def test_get_bank_caches(grid1d):
    assert get_bank(grid1d) is get_bank(grid1d)
