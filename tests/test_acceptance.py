"""Acceptance suite: the eleven headline behaviors, one test each.

Every test prints a single PASS line with the measured figures, so a
verbose run reads as a checklist.  Configurations are frozen; the
tolerances are the contract, not aspirations, and nothing here adapts
to the data.
"""

import io
import json
import contextlib

import numpy as np
import pytest

from halfspace_spectral import (
    BC_DIRICHLET,
    BC_NEUMANN,
    BilinearConfig,
    OP_DIRICHLET,
    OP_NEUMANN,
    besov_block_floor,
    bump,
    derivative_mapping_sweep,
    fractional_laplacian,
    frac_power,
    load_field,
    lp_norm,
    make_family,
    make_grid,
    odd_extend,
    ratio_sweep,
    sample,
    sample_half,
    save_field,
    singular_integral_frac_lap,
    singularity_profile,
)
from halfspace_spectral.cli import _selftest_checks, main
from halfspace_spectral.experiments import get_bank

INF = float("inf")


def _report(num, name, detail):
    print(f"[PRIMARY {num:02d}] {name}: PASS ({detail})")


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def cex_payload():
    # one end-to-end counterexample run; criteria 6, 7 and 10 read from
    # this single report document
    rc, out = _run_cli(["counterexample", "--p", "2"])
    assert rc == 0
    return json.loads(out)


def test_criterion_01_eigenfunction_relations():
    # 20 resolved modes on each operator; N = 256 keeps the top mode at
    # bin 20 of 128 while the roundoff amplified by the symbol at the
    # band edge stays well under the 1e-10 budget
    worst = 0.0
    g = make_grid(1, 16.0, 256)
    for m in range(1, 21):
        k = np.pi * m / g.L
        sin_m = sample_half(g, lambda x: np.sin(k * x), bc=BC_DIRICHLET)
        cos_m = sample_half(g, lambda x: np.cos(k * x), bc=BC_NEUMANN)
        for s in (0.5, 1.0, 2.0, 2.5):
            d = frac_power(sin_m, OP_DIRICHLET, s)
            n = frac_power(cos_m, OP_NEUMANN, s)
            worst = max(worst,
                        float(np.max(np.abs(d.values - k ** s
                                            * sin_m.values))) / k ** s,
                        float(np.max(np.abs(n.values - k ** s
                                            * cos_m.values))) / k ** s)
    g2 = make_grid(2, 8.0, 256)
    kx, kn = 2 * np.pi / g2.L, 3 * np.pi / g2.L
    f2 = sample_half(g2, lambda x, y: np.cos(kx * x) * np.sin(kn * y),
                     bc=BC_DIRICHLET)
    lam = (kx ** 2 + kn ** 2) ** 0.6
    out2 = frac_power(f2, OP_DIRICHLET, 1.2)
    worst = max(worst,
                float(np.max(np.abs(out2.values - lam * f2.values))) / lam)
    assert worst < 1e-10
    _report(1, "eigenfunction relations", f"max rel err {worst:.2e}")


def test_criterion_02_extension_norm_identity(tmp_path):
    # ten fields, each written to disk and read back before the two
    # routes are compared, so the identity is checked end to end.
    # N = 1024 keeps the xi^2-amplified FFT noise floor, which the L^1
    # norm integrates without cancellation, an order under the budget
    g = make_grid(1, 16.0, 1024)
    corpus = [
        sample_half(g, lambda x: x * bump(x, 4.0, 2.0), bc=BC_DIRICHLET),
        sample_half(g, lambda x: bump(x, 3.0, 1.5), bc=BC_DIRICHLET),
        sample_half(g, lambda x: np.sin(np.pi * x / 16.0), bc=BC_DIRICHLET),
        sample_half(g, lambda x: np.cos(np.pi * x / 16.0), bc=BC_DIRICHLET),
        sample_half(g, lambda x: x ** 2 * bump(x, 6.0, 3.0),
                    bc=BC_DIRICHLET),
        sample_half(g, lambda x: np.sin(3.0 * x) * bump(x, 8.0, 4.0),
                    bc=BC_DIRICHLET),
        make_family("counterexample", g, OP_DIRICHLET, 0, 1)[0],
        make_family("boundary_adversarial", g, OP_DIRICHLET, 1, 1)[0],
        make_family("bump_random", g, OP_DIRICHLET, 2, 1)[0],
        make_family("band_random", g, OP_DIRICHLET, 3, 1)[0],
    ]
    worst = 0.0
    cases = 0
    for i, hf in enumerate(corpus):
        path = tmp_path / f"corpus_{i}.hsf"
        save_field(hf, path)
        hf = load_field(path)
        for p in (1.0, 2.0, 4.0):
            for s in (0.5, 1.0, 2.0):
                lhs = 2.0 ** (1.0 / p) * lp_norm(
                    frac_power(hf, OP_DIRICHLET, s), p)
                rhs = lp_norm(fractional_laplacian(odd_extend(hf), s), p)
                worst = max(worst, abs(lhs - rhs) / rhs)
                cases += 1
    assert worst < 1e-12
    _report(2, "extension norm identity",
            f"{cases} cases (10 fields, p in {{1,2,4}}, s in "
            f"{{0.5,1,2}}), max rel gap {worst:.2e}")


def test_criterion_03_partition_of_unity():
    g = make_grid(1, 16.0, 4096)
    bank = get_bank(g)
    lam = np.geomspace(2.0 ** bank.j_min, 2.0 ** bank.j_max, 8193)
    hom = sum(bank.phi(j, lam) for j in bank.octaves)
    r1 = float(np.max(np.abs(hom - 1.0)))
    lam_full = np.linspace(0.0, 2.0 ** bank.j_max, 8193)
    inh = bank.psi(lam_full) + sum(bank.phi(j, lam_full)
                                   for j in bank.octaves if j >= 1)
    r2 = float(np.max(np.abs(inh - 1.0)))
    assert r1 < 1e-8 and r2 < 1e-8
    _report(3, "partition of unity", f"residuals {r1:.2e} / {r2:.2e}")


def test_criterion_04_quadrature_vs_spectral_corpus():
    g = make_grid(1, 32.0, 16384)
    shapes = [lambda t: t,
              lambda t: t ** 3,
              lambda t: np.sin(3.0 * t),
              lambda t: t * np.cos(2.0 * t),
              lambda t: np.sin(5.0 * t)]
    params = [(0.0, 1.0), (2.0, 1.5), (-3.0, 1.6), (5.0, 1.2),
              (-6.0, 0.8), (1.0, 1.8), (-1.5, 1.0), (4.0, 0.9),
              (-5.0, 1.4), (0.5, 1.3)]
    worst = 0.0
    for i, (c, w) in enumerate(params):
        shape = shapes[i % len(shapes)]
        f = sample(g, lambda xx: bump(xx, c, w) * shape((xx - c) / w))
        for s in (0.25, 0.5, 0.75):
            v_spec = fractional_laplacian(f, s).values
            v_quad = singular_integral_frac_lap(f, s).values
            rel = float(np.linalg.norm(v_spec - v_quad)
                        / np.linalg.norm(v_spec))
            worst = max(worst, rel)
    assert worst < 1e-3
    _report(4, "independent-engine agreement",
            f"30 cases, max rel L2 {worst:.2e}")


def test_criterion_05_product_estimate_holds_in_range():
    combos = [(OP_DIRICHLET, 0.5), (OP_DIRICHLET, 1.5), (OP_DIRICHLET, 2.3),
              (OP_NEUMANN, 0.5), (OP_NEUMANN, 2.5), (OP_NEUMANN, 3.5)]
    worst_spread = 0.0
    for op, s in combos:
        cfg = BilinearConfig(s=s, p=2.0, p1=2.0, p2=INF, p3=INF, p4=2.0,
                             op=op, family="bump_random", count=20,
                             seed=11, resolutions=(4096, 8192, 16384),
                             L=16.0)
        rep = ratio_sweep(cfg)
        assert rep.verdict == "bounded", (op, s, rep.verdict, rep.fits)
        mr = [e["max_ratio"] for e in rep.per_resolution]
        spread = max(mr) / min(mr) - 1.0
        assert spread < 0.10, (op, s, spread)
        worst_spread = max(worst_spread, spread)
    _report(5, "admissible-range boundedness",
            f"six sweeps of 20 pairs x 3 resolutions all bounded, max "
            f"ratio spread {worst_spread:.1e}")


def test_criterion_06_breakdown_at_critical_order(cex_payload):
    sweep = cex_payload["sweep"]
    assert sweep["verdict"] == "diverging", sweep["fits"]
    fit = sweep["fits"]["log_vs_loglogN"]
    assert fit["slope"] > 3.0 * fit["stderr"]

    # the jump carried by the odd reflection of Phi = phi^2 makes
    # ||A_D^(1/4) Phi||_2^2 grow by c_(1/2)^2 ln 2 = (2/pi) ln 2 per
    # doubling of N
    wall = cex_payload["wall_rate"]
    assert wall["predicted"] == pytest.approx(2.0 / np.pi * np.log(2.0),
                                              rel=1e-12)
    assert len(wall["rel_gap"]) == 3
    assert max(wall["rel_gap"]) <= 1e-4

    cfg_n = BilinearConfig(s=2.5, p=2.0, p1=2.0, p2=INF, p3=INF, p4=2.0,
                           op=OP_NEUMANN, family="counterexample",
                           count=1, seed=0,
                           resolutions=(4096, 8192, 16384, 32768), L=16.0)
    rep_n = ratio_sweep(cfg_n)
    assert rep_n.verdict == "bounded"
    _report(6, "critical-order breakdown",
            f"dirichlet diverging (slope/se "
            f"{fit['slope'] / fit['stderr']:.1f}), wall rate within "
            f"{max(wall['rel_gap']):.1e} of its law, neumann reading "
            f"bounded")


def test_criterion_07_boundary_singularity_profile(cex_payload):
    details = []
    for p, out in ((2.0, cex_payload["profile"]),
                   (4.0, singularity_profile(4.0,
                                             make_grid(1, 16.0, 32768)))):
        assert out["exponent_spectral"] == pytest.approx(-1.0 / p,
                                                         abs=0.05)
        assert out["exponent_quadrature"] == pytest.approx(-1.0 / p,
                                                           abs=0.05)
        assert out["engine_rel_l2_diff"] < 5e-3
        assert out["antisymmetry_residual"] < 1e-12
        details.append(f"p={p:g}: {out['exponent_spectral']:.4f}")
    _report(7, "boundary singularity profile", "; ".join(details))


def test_criterion_08_block_floor_at_critical_order():
    g = make_grid(1, 16.0, 65536)
    details = []
    for p in (2.0, 4.0):
        out = besov_block_floor(p, g)
        assert out["plateau"]
        assert out["limit_lp_norm"] > 0.0
        assert out["limit_match_rel"] < 0.05
        e1 = out["partial_sum_fits"]["1.0"]["slope"]
        e2 = out["partial_sum_fits"]["2.0"]["slope"]
        assert e1 == pytest.approx(1.0, abs=0.15)
        assert e2 == pytest.approx(0.5, abs=0.15)
        details.append(f"p={p:g}: floor match "
                       f"{out['limit_match_rel']:.2e}, growth "
                       f"({e1:.2f}, {e2:.2f})")
    _report(8, "block floor at the critical order", "; ".join(details))


def test_criterion_09_derivative_mapping_threshold():
    lo = derivative_mapping_sweep(0.25, 2.0, "boundary_adversarial",
                                  OP_DIRICHLET, 3, 5,
                                  (2048, 4096, 8192, 16384))
    hi = derivative_mapping_sweep(0.75, 2.0, "boundary_adversarial",
                                  OP_DIRICHLET, 3, 5,
                                  (2048, 4096, 8192, 16384))
    assert lo["same"]["verdict"] == "bounded", lo["same"]["max"]
    assert hi["same"]["verdict"] == "diverging", hi["same"]["max"]
    for sweep in (lo, hi):
        for item in sweep["cross"]["items"]:
            assert item["ratio"] == pytest.approx(1.0, abs=1e-8)

    # the cross-condition mapping stays bounded on every family
    family_ops = [("band_random", OP_DIRICHLET, 2.0),
                  ("bump_random", OP_DIRICHLET, 2.0),
                  ("boundary_adversarial", OP_DIRICHLET, 2.0),
                  ("counterexample", OP_DIRICHLET, 2.0),
                  ("sine", OP_DIRICHLET, 2.0),
                  ("cosine", OP_NEUMANN, 2.0),
                  ("bump_random", OP_DIRICHLET, 3.0),
                  ("bump_random", OP_NEUMANN, 2.0)]
    for fam, op, p in family_ops:
        out = derivative_mapping_sweep(0.75, p, fam, op, 3, 3,
                                       (2048, 4096, 8192))
        assert out["cross"]["verdict"] == "bounded", (fam, op, p)
    _report(9, "derivative mapping threshold",
            f"same-condition bounded at s=0.25, diverging at s=0.75 "
            f"(max {hi['same']['max'][-1]:.3f}); cross bounded on all "
            f"families, ratio 1 at p=2")


def test_criterion_10_trilinear_contrast(cex_payload):
    # both paths live in the one report the counterexample command wrote
    bi = cex_payload["sweep"]
    tri = cex_payload["trilinear_contrast"]
    assert bi["verdict"] == "diverging"
    assert tri["verdict"] == "bounded", tri["fits"]
    assert tri["config"]["exponents"] == [[2.0, "inf", "inf"],
                                          ["inf", 2.0, "inf"],
                                          ["inf", "inf", 2.0]]
    bi_growth = [e["max_ratio"] for e in bi["per_resolution"]]
    _report(10, "trilinear contrast",
            f"same report: bilinear ratios climb "
            f"{bi_growth[0]:.3f} -> {bi_growth[-1]:.3f}, trilinear "
            f"stays bounded (max ratio {tri['meta']['max_ratio']:.4f})")


def test_criterion_11_selftest_with_fault_injection():
    checks = _selftest_checks(quick=False)
    failed = [c["name"] for c in checks if not c["ok"]]
    assert not failed, failed
    names = {c["name"] for c in checks}
    assert "fault_injection_detected" in names
    assert "leak_guard_fires" in names

    argv = ["bilinear", "--s", "1.0", "--p", "2", "--p1", "2",
            "--p2", "inf", "--p3", "inf", "--p4", "2", "--family",
            "band_random", "--count", "2", "--resolutions", "512,1024"]
    rc1, first = _run_cli(argv)
    rc2, second = _run_cli(argv)
    assert rc1 == rc2 == 0
    assert first == second
    _report(11, "determinism and guards",
            f"{len(checks)} checks green, repeated report byte-identical "
            f"({len(first)} bytes)")
