"""Ratio sweeps, the growth classifier and the product decompositions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace_spectral import (
    BC_DIRICHLET,
    BC_NEUMANN,
    BilinearConfig,
    BoundaryTagError,
    ConfigError,
    HalfField,
    NumericalGuardError,
    OP_DIRICHLET,
    OP_NEUMANN,
    SpaceSpec,
    TrilinearConfig,
    besov_block_floor,
    besov_norm,
    bilinear_ratio,
    boundary_trace,
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
    normal_derivative,
    odd_extend,
    ratio_sweep,
    sample,
    sample_half,
    singularity_profile,
    sobolev_norm,
    trilinear_ratio,
    wall_rate,
)
from halfspace_spectral import experiments
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


def _tri(**kw):
    base = dict(s=1.0, p=2.0,
                exponents=((2.0, INF, INF), (INF, 2.0, INF), (INF, INF, 2.0)),
                op=OP_DIRICHLET, family="bump_random", count=2, seed=0,
                resolutions=(512,), L=16.0, n=1)
    base.update(kw)
    return TrilinearConfig(**base)


@pytest.mark.parametrize("make, bad", [
    (_cfg, {"p": 0.5, "p1": 0.5}),
    (_tri, {"p": 0.5, "exponents": ((0.5, INF, INF), (INF, 0.5, INF),
                                    (INF, INF, 0.5))}),
    (_cfg, {"count": 0}),
    (_tri, {"count": 0}),
    (_cfg, {"resolutions": ()}),
    (_tri, {"resolutions": ()}),
    (_tri, {"exponents": ((2.0, INF), (INF, 2.0, INF), (INF, INF, 2.0))}),
    (_tri, {"exponents": ((2.0, INF), (INF, 2.0))}),
], ids=["bi-p", "tri-p", "bi-count", "tri-count", "bi-ladder", "tri-ladder",
        "tri-ragged", "tri-two_terms"])
def test_exponent_range_enforced(make, bad):
    with pytest.raises(ConfigError):
        make(**bad)


def test_besov_sweeps_need_q():
    with pytest.raises(ConfigError):
        _cfg(kind="besov")
    _cfg(kind="besov", q=1.0)


def test_sobolev_sweeps_take_no_q():
    with pytest.raises(ConfigError):
        _cfg(q=2.0)
    with pytest.raises(ConfigError):
        _tri(q=2.0)


def _mapping(**kw):
    base = dict(s=0.3, p=2.0, family="band_random", op=OP_DIRICHLET,
                seed=0, count=2, resolutions=(512, 1024), L=16.0, n=1)
    base.update(kw)
    return derivative_mapping_sweep(**base)


def _no_work(*args, **kwargs):
    raise AssertionError("drew or transformed before refusing the input")


@pytest.mark.parametrize("make", [_cfg, _tri, _mapping])
@pytest.mark.parametrize("bad", [
    {"op": "foo"}, {"s": float("nan")}, {"s": INF},
    {"family": "perlin"}, {"seed": -1}, {"L": -1.0}, {"n": 0},
    {"count": 1.5}, {"resolutions": (512, 1000)},
    {"family": "boundary_adversarial", "op": OP_NEUMANN},
    {"family": "sine", "op": OP_NEUMANN},
    {"family": "cosine", "op": OP_DIRICHLET},
    {"family": "bump_random", "L": 3.0},
    {"family": "band_random", "resolutions": (16, 32)},
    {"n": 1.5}, {"p": 0.5}, {"resolutions": (512.7, 1024)},
], ids=["op", "s_nan", "s_inf", "family", "seed", "L", "n", "count_float",
        "rung_1000", "adversarial_neumann", "sine_neumann",
        "cosine_dirichlet", "bump_box", "band_coarse", "n_float", "p_half",
        "rung_512_7"])
def test_sweep_configs_refuse_bad_op_or_s_at_construction(make, bad,
                                                          monkeypatch):
    # a ladder is checked whole before its first draw, the derivative
    # mapping's too
    monkeypatch.setattr(experiments, "make_family", _no_work)
    with pytest.raises(ConfigError):
        make(**bad)


@pytest.mark.parametrize("rungs, match", [
    ((512, 1000), "power of two"), ((512.7, 1024), "power of two"),
    ((), "at least one"), ((512, 512), "repeat a rung"),
    ((4096,), r"ladder \[4096\], which needs two rungs"),
], ids=["rung_1000", "rung_512_7", "empty", "repeat", "one_rung"])
def test_wall_rate_refuses_a_bad_ladder_before_any_transform(
        rungs, match, monkeypatch):
    monkeypatch.setattr(experiments, "sobolev_norm", _no_work)
    with pytest.raises(ConfigError, match=match):
        wall_rate(2.0, 16.0, rungs)


def test_ladders_take_numpy_integer_rungs_as_python_ints():
    rungs = (np.int64(1024), np.int64(512))
    cfg = _cfg(resolutions=rungs)
    assert cfg.resolutions == (512, 1024)
    assert all(type(N) is int for N in cfg.resolutions)
    out = _mapping(count=1, resolutions=rungs)
    assert out["resolutions"] == [512, 1024]
    assert all(type(N) is int for N in out["resolutions"])


def test_configs_take_the_diagonal_exponents_when_none_are_given():
    bi = BilinearConfig(s=1.0, p=3.0)
    assert bi.exponents == ((3.0, INF), (INF, 3.0))
    assert (bi.p1, bi.p2, bi.p3, bi.p4) == (3.0, INF, INF, 3.0)
    assert TrilinearConfig(s=1.0, p=3.0).exponents == (
        (3.0, INF, INF), (INF, 3.0, INF), (INF, INF, 3.0))
    # a subset of p1..p4 is not completed from the diagonal
    with pytest.raises(ConfigError, match=r"p1\.\.p4"):
        BilinearConfig(s=1.0, p=3.0, p1=3.0, p2=INF, p3=INF)


def test_counterexample_family_is_one_draw():
    # the one fixed field is drawn once, so the echoed count is the
    # number of draws each rung took
    assert TrilinearConfig(s=2.5, p=2.0, family="counterexample",
                           resolutions=(512,)).count == 1
    rep = ratio_sweep(BilinearConfig(s=2.5, p=2.0, family="counterexample",
                                     count=8, resolutions=(512, 1024)))
    assert rep.config["count"] == 1
    assert [e["pairs"] for e in rep.per_resolution] == [1, 1]


def _wall_rate(resolutions):
    return wall_rate(2.0, 16.0, resolutions)


@pytest.mark.parametrize("make", [_cfg, _tri, _mapping, _wall_rate])
@pytest.mark.parametrize("res", [(512, 512, 1024), (512, 512)])
def test_sweep_configs_refuse_a_repeated_rung(make, res):
    with pytest.raises(ConfigError, match="repeat"):
        make(resolutions=res)


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


def test_ratio_wrappers_refuse_a_wrong_factor_count_or_mixed_grids():
    # a ratio of other factors than the config's, or of factors sampled
    # on different grids, measures nothing
    grid = make_grid(1, 16.0, 1024)
    f, g, h = make_family("bump_random", grid, OP_DIRICHLET, 0, 3)
    bi = BilinearConfig(s=1.0, p=2.0, resolutions=(1024,))
    tri = TrilinearConfig(s=1.0, p=2.0, resolutions=(1024,))
    with pytest.raises(ConfigError, match="3 factors needed, 2 given"):
        bilinear_ratio(f, g, tri)
    with pytest.raises(ConfigError, match="2 factors needed, 3 given"):
        trilinear_ratio(f, g, h, bi)
    for other in (make_grid(1, 12.0, 1024), make_grid(1, 16.0, 2048)):
        o = make_family("bump_random", other, OP_DIRICHLET, 0, 1)[0]
        with pytest.raises(ConfigError, match="different grids"):
            bilinear_ratio(f, o, bi)
        with pytest.raises(ConfigError, match="different grids"):
            trilinear_ratio(f, g, o, tri)


# ---------------------------------------------------------------------------
# fits and the growth verdict

def test_fit_line_refuses_a_degenerate_abscissa():
    with pytest.raises(ConfigError, match="degenerate abscissa"):
        fit_line(np.full(3, 2.0), np.array([1.0, 2.0, 3.0]))


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


def test_sweep_sets_degenerate_pairs_aside(monkeypatch):
    # a zero first factor makes both terms of pair 0 vanish at every rung
    draw = experiments.make_family

    def zero_first(*args, **kwargs):
        fields = draw(*args, **kwargs)
        f = fields[0]
        fields[0] = HalfField(f.grid, np.zeros_like(f.values), f.bc)
        return fields

    monkeypatch.setattr(experiments, "make_family", zero_first)
    rep = ratio_sweep(_cfg(count=2, resolutions=(512, 1024)))
    assert [(r["pair"], r["N"]) for r in rep.excluded] == [(0, 512),
                                                          (0, 1024)]
    assert all(r["degenerate"] and np.isnan(r["ratio"])
               for r in rep.excluded)
    assert [(r["pair"], r["N"]) for r in rep.items] == [(1, 512), (1, 1024)]
    assert [e["pairs"] for e in rep.per_resolution] == [1, 1]
    assert rep.meta["max_ratio"] == max(r["ratio"] for r in rep.items)


def test_sweep_report_shape():
    cfg = _cfg(count=2, resolutions=(512, 1024))
    rep = ratio_sweep(cfg)
    assert len(rep.per_resolution) == 2
    assert len(rep.items) == 2 * 2
    for it in rep.items:
        assert set(it) >= {"pair", "N", "lhs", "rhs", "ratio"}
    assert rep.verdict in ("bounded", "diverging", "inconclusive")
    assert "max_ratio" in rep.meta


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


def test_besov_product_sweep_pins_its_banks_and_norms():
    # the inhomogeneous Besov sweep of a band-random pair: every rung
    # echoes its bank's hash, and a pair's numerator is the Besov norm of
    # the product on that rung's bank, as bilinear_ratio computes it with
    # no bank passed.  The homogeneous sweep of the same pair raises: the
    # product leaks below 2^j_min
    cfg = _cfg(s=1.0, kind="besov", q=2.0, homogeneous=False,
               family="band_random", count=1, resolutions=(8192, 16384))
    rep = ratio_sweep(cfg)
    assert rep.verdict == "bounded"
    assert [e["max_ratio"] for e in rep.per_resolution] == pytest.approx(
        [0.2771, 0.2771], abs=1e-4)
    for entry in rep.per_resolution:
        grid = make_grid(1, cfg.L, entry["N"])
        assert entry["bank_hash"] == get_bank(grid).table_hash
    N = rep.items[-1]["N"]
    grid = make_grid(1, cfg.L, N)
    f, g = make_family("band_random", grid, OP_DIRICHLET, cfg.seed, 2,
                       min(cfg.resolutions))
    spec = SpaceSpec("besov", cfg.s, cfg.p, cfg.q, False, OP_DIRICHLET)
    lhs = besov_norm(HalfField(grid, f.values * g.values, OP_DIRICHLET),
                     spec, get_bank(grid))
    assert rep.items[-1]["lhs"] == lhs
    assert bilinear_ratio(f, g, cfg)["ratio"] == rep.items[-1]["ratio"]
    homogeneous = _cfg(s=1.0, kind="besov", q=2.0, family="band_random",
                       count=1, resolutions=(8192, 16384))
    with pytest.raises(NumericalGuardError, match="outside the resolved"):
        ratio_sweep(homogeneous)


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


def test_product_rule_2d_middle_trace_is_the_normal_product():
    # in 2-D the middle piece adds the tangential term, which vanishes on
    # the wall with a Dirichlet pair, so its trace tends to the product
    # of the normal derivatives' traces.  A bump pair off the wall has
    # no boundary gradient
    gaps = []
    for N in (256, 512):
        grid = make_grid(2, 16.0, N)
        f, g = make_family("band_random", grid, OP_DIRICHLET, 0, 2, N)
        out = leibniz_decomposition(f, g)
        assert out["boundary_active"]
        want = (boundary_trace(normal_derivative(f))
                * boundary_trace(normal_derivative(g)))
        gaps.append(np.max(np.abs(out["middle_trace"] - want))
                    / np.max(np.abs(want)))
    assert gaps[0] < 1e-2 and gaps[1] < 1e-3
    f, g = make_family("bump_random", make_grid(2, 16.0, 256), OP_DIRICHLET,
                       0, 2)
    assert not leibniz_decomposition(f, g)["boundary_active"]


def test_product_rule_flags_a_vanishing_product(grid1d):
    # these 2-D bumps do not overlap, so fg is exactly 0 and no relative
    # residual exists; an overlapping pair is not degenerate
    f, g = make_family("bump_random", make_grid(2, 16.0, 256), OP_DIRICHLET,
                       0, 2)
    assert not np.any(f.values * g.values)
    out = leibniz_decomposition(f, g)
    assert out["degenerate"]
    assert np.isnan(out["residual_rel_l2"])
    f = sample_half(grid1d, lambda x: bump(x, 4.0, 1.2), bc=BC_DIRICHLET)
    g = sample_half(grid1d, lambda x: bump(x, 5.0, 1.5), bc=BC_DIRICHLET)
    out = leibniz_decomposition(f, g)
    assert not out["degenerate"]
    assert out["residual_rel_l2"] < 1e-8


def test_product_rule_boundary_residual_shrinks_like_sqrt_h():
    vals = []
    for N in (2048, 8192):
        g = make_grid(1, 16.0, N)
        f, gg = counterexample_fields(g)
        vals.append(leibniz_decomposition(f, gg)["residual_rel_l2"])
    # one refinement by 4 should halve it
    assert vals[1] == pytest.approx(vals[0] / 2.0, rel=0.25)


def test_product_rule_requires_dirichlet_tags(grid1d):
    # an untagged factor runs in the Dirichlet calculus, as in every
    # other entry; a Neumann tag is refused by the one guard
    f = sample_half(grid1d, lambda x: bump(x, 4.0, 1.2))
    g = sample_half(grid1d, lambda x: bump(x, 5.0, 1.5), bc=BC_DIRICHLET)
    untagged = leibniz_decomposition(f, g)
    tagged = leibniz_decomposition(f.with_bc(BC_DIRICHLET), g)
    assert untagged["residual_rel_l2"] == tagged["residual_rel_l2"]
    assert untagged["middle_trace_max"] == tagged["middle_trace_max"]
    for a, b in zip(untagged["pieces"] + (untagged["direct"],),
                    tagged["pieces"] + (tagged["direct"],)):
        assert np.array_equal(a.values, b.values)
    with pytest.raises(BoundaryTagError, match="tagged 'neumann'"):
        leibniz_decomposition(g, f.with_bc(BC_NEUMANN))


def test_product_rule_requires_one_grid(grid1d):
    f = sample_half(grid1d, lambda x: bump(x, 4.0, 1.2), bc=BC_DIRICHLET)
    g = sample_half(make_grid(1, 16.0, 2048), lambda x: bump(x, 5.0, 1.5),
                    bc=BC_DIRICHLET)
    with pytest.raises(ConfigError, match="different grids"):
        leibniz_decomposition(f, g)


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


def test_mapping_draws_the_counterexample_once_per_rung():
    # one fixed field: as in the sweeps, the count does not repeat it
    res = (1024, 2048)
    out = derivative_mapping_sweep(0.75, 2.0, "counterexample",
                                   OP_DIRICHLET, 0, 3, res)
    for side in ("cross", "same"):
        assert [(r["index"], r["N"]) for r in out[side]["items"]] == [
            (0, N) for N in res]


def test_mapping_rows_carry_their_norms():
    # lhs is the derivative's norm, rhs the field's, and each rung's max
    # is taken over the rows of that rung
    s, p, res = 0.3, 2.0, (512, 1024)
    out = derivative_mapping_sweep(s, p, "band_random", OP_DIRICHLET, 0, 2,
                                   res)
    for side in ("cross", "same"):
        rows = out[side]["items"]
        assert [(r["index"], r["N"]) for r in rows] == [
            (i, N) for N in res for i in range(2)]
        assert all(r["ratio"] == r["lhs"] / r["rhs"] for r in rows)
        assert out[side]["max"] == [max(r["ratio"] for r in rows
                                        if r["N"] == N) for N in res]
        assert out[side]["excluded"] == []
    f = make_family("band_random", make_grid(1, 16.0, 1024), OP_DIRICHLET,
                    0, 2, 512)[1]
    row = out["cross"]["items"][-1]
    assert row["lhs"] == sobolev_norm(
        normal_derivative(f),
        SpaceSpec("sobolev", s - 1.0, p, None, True, OP_NEUMANN))
    assert row["rhs"] == sobolev_norm(
        f, SpaceSpec("sobolev", s, p, None, True, OP_DIRICHLET))


@pytest.mark.parametrize("zeroed", [(512,), (512, 1024, 2048)],
                         ids=["coarsest", "every"])
def test_mapping_sets_degenerate_draws_aside(monkeypatch, zeroed):
    # a zero field has zero norms, so each of its draws is degenerate in
    # both mappings; only the finite rung maxima reach the classifier
    res = (512, 1024, 2048)
    draw, classify = experiments.make_family, experiments.classify_growth
    classified = []

    def zero_rungs(*args, **kwargs):
        return [HalfField(f.grid, np.zeros_like(f.values), f.bc)
                if f.grid.N in zeroed else f for f in draw(*args, **kwargs)]

    def spy(resolutions, maxima):
        classified.append((list(resolutions), list(maxima)))
        return classify(resolutions, maxima)

    monkeypatch.setattr(experiments, "make_family", zero_rungs)
    monkeypatch.setattr(experiments, "classify_growth", spy)
    out = derivative_mapping_sweep(0.3, 2.0, "bump_random", OP_DIRICHLET, 0,
                                   2, res)
    kept = [N for N in res if N not in zeroed]
    for side in ("cross", "same"):
        m = out[side]
        assert [(r["index"], r["N"]) for r in m["excluded"]] == [
            (i, N) for N in zeroed for i in range(2)]
        assert all(r["degenerate"] and r["rhs"] == 0.0
                   and np.isnan(r["ratio"]) for r in m["excluded"])
        assert [r["N"] for r in m["items"]] == [N for N in kept
                                               for _ in range(2)]
        assert [bool(np.isnan(v)) for v in m["max"]] == [
            N in zeroed for N in res]
    assert [r for r, _ in classified] == ([kept] * 2 if len(kept) > 1
                                          else [])
    assert all(np.all(np.isfinite(maxima)) for _, maxima in classified)
    if not kept:
        assert (out["same"]["verdict"], out["same"]["fits"]) == (
            "inconclusive", {})


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


def test_profile_diagnostics_refuse_what_they_cannot_fit():
    with pytest.raises(ConfigError, match="needs L >= 4"):
        counterexample_fields(make_grid(1, 3.0, 512))
    with pytest.raises(ConfigError, match="profile diagnostics are 1-D"):
        singularity_profile(2.0, make_grid(2, 16.0, 64))
    with pytest.raises(ConfigError, match="octaves above the support"):
        besov_block_floor(2.0, make_grid(1, 16.0, 512))
    # a box narrower than the window: the cells from 8 h on run out
    # before the window is filled
    with pytest.raises(ConfigError, match="fewer than 8 samples"):
        singularity_profile(2.0, make_grid(1, 0.05, 16))


def test_profile_refuses_its_window_before_either_engine(monkeypatch):
    monkeypatch.setattr(experiments, "frac_power", _no_work)
    monkeypatch.setattr(experiments, "singular_integral_frac_lap", _no_work)
    with pytest.raises(ConfigError, match="fit window .* is empty"):
        singularity_profile(2.0, make_grid(1, 16.0, 512))
    with pytest.raises(ConfigError, match="fewer than 8 samples"):
        singularity_profile(2.0, make_grid(1, 0.05, 16))


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
    lambda p: wall_rate(p, 16.0, (4096,)),
], ids=["profile", "block_floor", "wall_rate"])
def test_diagnostics_refuse_exponents_outside_one_to_inf(diagnostic, p):
    # one check for the three, before any work, so that nan is not
    # reported as a symbol that is not finite
    with pytest.raises(ConfigError, match="diagnostic exponent"):
        diagnostic(p)


def test_diagnostics_make_quarter_size_transforms(monkeypatch):
    # the counterexample is the odd reflection of Phi, so the sine
    # transform of Phi on N/2 points, packed into N/4 complex points and
    # transformed in place, carries it; the quadrature oracle runs on
    # scipy and is not counted
    sizes = []
    for name in ("fftn", "ifftn"):
        def record(a, *args, _orig=getattr(np.fft, name), **kw):
            in_place = np.iscomplexobj(a) and kw.get("out") is a
            sizes.append((np.size(a), in_place))
            return _orig(a, *args, **kw)
        monkeypatch.setattr(np.fft, name, record)
    g = make_grid(1, 16.0, 4096)
    # box and quarter sizes of the ladder are disjoint
    for run, Ns in ((lambda: wall_rate(2.0, 16.0, (4096, 8192)),
                     (4096, 8192)),
                    (lambda: wall_rate(3.0, 16.0, (4096, 8192)),
                     (4096, 8192)),
                    (lambda: besov_block_floor(2.0, g), (4096,)),
                    (lambda: singularity_profile(2.0, g), (4096,))):
        sizes.clear()
        run()
        assert sizes and set(sizes) <= {(N // 4, True) for N in Ns}


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_diagnostics_agree_with_the_image_oracle(p):
    # the box route on the odd extension of Phi, built here; an odd
    # field's box integral is twice its half-line one
    grids = [make_grid(1, 16.0, N) for N in (4096, 8192)]
    odd = [odd_extend(sample_half(g, lambda x: cutoff_profile(x) ** 2,
                                  bc=BC_DIRICHLET)) for g in grids]
    box = [0.5 * g.cell_volume
           * np.sum(np.abs(fractional_laplacian(f, 1.0 / p).values) ** p)
           for g, f in zip(grids, odd)]
    got = wall_rate(p, 16.0, [g.N for g in grids])["powers"]
    assert got == pytest.approx(box, rel=1e-12)

    g, phi_odd = grids[-1], odd[-1]
    floor = besov_block_floor(p, g)
    bank = get_bank(g)
    box = [2.0 ** (j / p) * lp_norm(dyadic_block(phi_odd, j, bank), p)
           for j in floor["octaves"]]
    assert floor["blocks"] == pytest.approx(box, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_wall_rate_matches_its_closed_form(p):
    # Phi_odd jumps at the wall: each doubling adds c_a^p ln 2 to the
    # p-th power of its order-1/p Sobolev norm, a = 1/p
    a = 1.0 / p
    c = 2.0 / np.pi * math.gamma(a) * np.sin(np.pi * a / 2.0)
    out = wall_rate(p, 16.0, (32768, 4096, 16384, 8192))
    assert out["resolutions"] == [4096, 8192, 16384, 32768]
    assert out["predicted"] == pytest.approx(c ** p * np.log(2.0),
                                             rel=1e-14)
    assert np.diff(out["powers"]) == pytest.approx(out["increments"],
                                                   rel=1e-14)
    assert len(out["rel_gap"]) == 3
    assert max(out["rel_gap"]) <= 1e-4
    assert out["increments"] == pytest.approx([out["predicted"]] * 3,
                                              rel=1e-4)


def test_wall_rate_reads_increments_per_doubling():
    # a gap of two octaves between rungs counts as two doublings
    out = wall_rate(2.0, 16.0, (4096, 16384))
    assert out["increments"] == pytest.approx(
        [(out["powers"][1] - out["powers"][0]) / 2.0], rel=1e-14)
    assert out["rel_gap"][0] <= 1e-4


def test_sweeps_build_each_rung_grid_once(monkeypatch):
    calls = []

    def counting(*args, _orig=experiments.make_grid):
        calls.append(args)
        return _orig(*args)
    monkeypatch.setattr(experiments, "make_grid", counting)
    cfg = _cfg(resolutions=(512, 1024, 2048))
    assert len(calls) == 3
    calls.clear()
    ratio_sweep(cfg)
    assert calls == []
    _mapping(count=1, resolutions=(512, 1024, 2048))
    assert len(calls) == 3
    assert [g.N for g in cfg.grids] == [512, 1024, 2048]
    # the grids the config keeps are no part of its value
    assert "grids" not in repr(cfg)
    assert cfg == _cfg(resolutions=(2048, 1024, 512))


def test_get_bank_caches(grid1d):
    assert get_bank(grid1d) is get_bank(grid1d)


@pytest.mark.parametrize("arity", [2, 3])
def test_recurring_factor_norms_are_taken_once(arity, monkeypatch):
    # the counterexample sweeps pass (f, f) or (f, f, f): one order-s
    # power applied for the numerator and one for f, whatever the arity,
    # from one table.  At p = 2 both norms are taken from the
    # coefficients, so the count is made where either route applies it
    from halfspace_spectral import spectral

    g = make_grid(1, 16.0, 4096)
    f = counterexample_fields(g)[0]
    if arity == 2:
        cfg = BilinearConfig(s=2.5, p=2.0, p1=2.0, p2=INF, p3=INF, p4=2.0,
                             resolutions=(g.N,))
    else:
        cfg = TrilinearConfig(s=2.5, p=2.0, exponents=((2.0, INF, INF),
                                                       (INF, 2.0, INF),
                                                       (INF, INF, 2.0)),
                              resolutions=(g.N,))
    expect = (bilinear_ratio(f, f.with_values(f.values.copy()), cfg)
              if arity == 2 else
              trilinear_ratio(f, f.with_values(f.values.copy()),
                              f.with_values(f.values.copy()), cfg))
    calls, built = [], []

    def applying(self, profile, *args, _orig=spectral._HalfSpectrum.image,
                 **kw):
        calls.append(profile)
        return _orig(self, profile, *args, **kw)

    def evaluating(self, lam2, _orig=spectral._Operator.__call__):
        built.append(self)
        return _orig(self, lam2)

    spectral._OPERATOR_TABLE.clear()
    monkeypatch.setattr(spectral._HalfSpectrum, "image", applying)
    monkeypatch.setattr(spectral._Operator, "__call__", evaluating)
    out = (bilinear_ratio(f, f, cfg) if arity == 2
           else trilinear_ratio(f, f, f, cfg))
    power = spectral._Operator("power", 2.5)
    assert calls == [power, power]
    assert built == [power]
    assert out == expect


def test_limit_kernel_is_cached_per_bank_profile():
    # the quadrature of W depends on the bank profile alone: a second
    # call at another p on another grid reuses it
    from halfspace_spectral.experiments import _limit_kernel, _limit_profile

    a, b = get_bank(make_grid(1, 16.0, 4096)), get_bank(make_grid(1, 8.0, 8192))
    assert a is not b and a.table_hash == b.table_hash
    _limit_kernel.cache_clear()
    first = _limit_profile(a, 2.0)
    second = _limit_profile(b, 3.0)
    info = _limit_kernel.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert second["W"] is first["W"] and not first["W"].flags.writeable
    assert not first["x"].flags.writeable
    assert second["lp_norm"] != first["lp_norm"]
    assert second["sup"] == first["sup"]
