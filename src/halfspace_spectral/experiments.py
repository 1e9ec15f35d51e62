"""Experiment harness: bilinear/trilinear ratio sweeps, paraproduct and
Leibniz decompositions, and the boundary counterexample diagnostics.

The sweeps measure empirical constants only.  A ratio staying flat
under refinement is evidence of boundedness at that regularity, and a
monotone, statistically significant climb is evidence of divergence;
the verdict rules:

* ``diverging`` needs monotone growth across at least three
  resolutions, a fitted growth rate above 3x its standard error, and
  per-doubling increments that do not decay geometrically (the last
  at least half the first).  The increment condition is what tells a
  genuine slow divergence from a convergent transient: discretization
  transients of resolved fields shrink with the mesh, while a
  logarithmic divergence keeps adding roughly constant increments per
  octave of refinement.
* ``bounded`` needs the per-resolution maxima to vary by less than
  10 percent;
* anything else is ``inconclusive``.

Growth is fitted as log(ratio) against log(log N) first (the expected
shape at the critical regularity is (log N)^(1/p)) with a plain
log(N) fit reported alongside.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from . import __version__, norms
from .errors import ConfigError, NumericalGuardError
from .extension import odd_extend
from .families import cutoff_profile, make_family
from .grid import (GridSpec, HalfField, SampledField, _exponent, lp_norm,
                   make_grid, sample_half)
from .halfspace_ops import (OP_DIRICHLET, OP_NEUMANN, boundary_trace,
                            frac_power, normal_derivative,
                            tangential_derivative)
from .norms import SpaceSpec, _check_leak, besov_norm, sobolev_norm
from .spectral import (DyadicBank, _dyadic_blocks, _half_spectrum, _radial,
                       build_bank, singular_integral_frac_lap)

__all__ = [
    "BilinearConfig",
    "TrilinearConfig",
    "RatioReport",
    "get_bank",
    "bilinear_ratio",
    "trilinear_ratio",
    "ratio_sweep",
    "paraproduct_split",
    "leibniz_decomposition",
    "counterexample_fields",
    "singularity_profile",
    "besov_block_floor",
    "singular_window_growth",
    "derivative_mapping_sweep",
]

_HOLDER_TOL = 1e-12


@lru_cache(maxsize=32)
def get_bank(grid: GridSpec, phi0_scale: float = 1.0) -> DyadicBank:
    """One bank per grid; sweeps hit the same grids repeatedly."""
    return build_bank(grid, phi0_scale=phi0_scale)


def _inv(p: float) -> float:
    return 0.0 if np.isinf(p) else 1.0 / p


def _check_holder(p, parts, what):
    lhs = _inv(p)
    rhs = sum(_inv(pi) for pi in parts)
    if abs(lhs - rhs) > _HOLDER_TOL:
        raise ConfigError(
            f"{what}: 1/p = {lhs!r} but exponents {parts} sum to {rhs!r}")


def _check_sweep(cfg):
    """Checks shared by both sweep configs; sorts the resolutions.  The
    space of the target norm checks kind, op, s, p and q."""
    SpaceSpec(cfg.kind, cfg.s, cfg.p, cfg.q, cfg.homogeneous, cfg.op)
    if cfg.count < 1:
        raise ConfigError("need at least one sample per resolution")
    if len(cfg.resolutions) < 1:
        raise ConfigError("at least one resolution required")
    object.__setattr__(cfg, "resolutions",
                       tuple(sorted(int(N) for N in cfg.resolutions)))


@dataclass(frozen=True)
class BilinearConfig:
    """Product estimate  ||fg||_(s,p) <= C (||f||_(s,p1) ||g||_p2
    + ||f||_p3 ||g||_(s,p4))  probed over a family."""

    s: float
    p: float
    p1: float
    p2: float
    p3: float
    p4: float
    op: str = OP_DIRICHLET
    kind: str = "sobolev"
    q: float | None = None
    homogeneous: bool = True
    family: str = "bump_random"
    count: int = 8
    seed: int = 0
    resolutions: tuple = (4096, 8192, 16384)
    L: float = 16.0
    n: int = 1

    def __post_init__(self):
        for name in ("p", "p1", "p2", "p3", "p4"):
            object.__setattr__(self, name,
                               _exponent(getattr(self, name), name))
        _check_holder(self.p, (self.p1, self.p2), "first bilinear term")
        _check_holder(self.p, (self.p3, self.p4), "second bilinear term")
        _check_sweep(self)

    @property
    def arity(self):
        return 2

    @property
    def exponents(self):
        """Exponent pair of each term; pair i carries the regularity on
        factor i."""
        return ((self.p1, self.p2), (self.p3, self.p4))


@dataclass(frozen=True)
class TrilinearConfig:
    """Three-factor version; exponent triple i carries the regularity
    on factor i."""

    s: float
    p: float
    exponents: tuple  # ((p1,p2,p3), (p4,p5,p6), (p7,p8,p9))
    op: str = OP_DIRICHLET
    kind: str = "sobolev"
    q: float | None = None
    homogeneous: bool = True
    family: str = "bump_random"
    count: int = 4
    seed: int = 0
    resolutions: tuple = (4096, 8192, 16384)
    L: float = 16.0
    n: int = 1

    def __post_init__(self):
        if len(self.exponents) != 3 or any(len(t) != 3 for t in self.exponents):
            raise ConfigError("trilinear exponents are three triples")
        cleaned = tuple(tuple(_exponent(v, "exponent") for v in t)
                        for t in self.exponents)
        object.__setattr__(self, "exponents", cleaned)
        object.__setattr__(self, "p", _exponent(self.p, "p"))
        for i, t in enumerate(cleaned):
            _check_holder(self.p, t, f"trilinear term {i + 1}")
        _check_sweep(self)

    @property
    def arity(self):
        return 3


def _graded_norm(hf: HalfField, cfg, p: float, bank) -> float:
    spec = SpaceSpec(cfg.kind, cfg.s, p, cfg.q, cfg.homogeneous, cfg.op)
    if cfg.kind == "sobolev":
        return sobolev_norm(hf, spec)
    return besov_norm(hf, spec, bank)


def _product_ratio(fields, cfg, bank: DyadicBank | None) -> dict:
    """||prod fields|| over the sum of terms; term i puts the regularity
    on factor i and the Lebesgue exponents of ``cfg.exponents[i]`` on
    the others.  Zero denominators are flagged, not divided."""
    if bank is None and cfg.kind == "besov":
        bank = get_bank(fields[0].grid)
    values = fields[0].values
    for fld in fields[1:]:
        values = values * fld.values
    num = _graded_norm(HalfField(fields[0].grid, values, cfg.op), cfg,
                       cfg.p, bank)
    terms = []
    for slot, ps in enumerate(cfg.exponents):
        term = 1.0
        for j, fld in enumerate(fields):
            if j == slot:
                term *= _graded_norm(fld, cfg, ps[j], bank)
            else:
                term *= lp_norm(fld, ps[j])
        terms.append(term)
    den = float(sum(terms))
    degenerate = den == 0.0
    return {
        "lhs": num,
        "rhs": den,
        "terms": terms,
        "ratio": np.nan if degenerate else num / den,
        "degenerate": degenerate,
    }


def bilinear_ratio(f: HalfField, g: HalfField, cfg: BilinearConfig,
                   bank: DyadicBank | None = None) -> dict:
    """One two-factor ratio evaluation."""
    return _product_ratio((f, g), cfg, bank)


def trilinear_ratio(f: HalfField, g: HalfField, h: HalfField,
                    cfg: TrilinearConfig,
                    bank: DyadicBank | None = None) -> dict:
    """One three-factor ratio evaluation."""
    return _product_ratio((f, g, h), cfg, bank)


# ---------------------------------------------------------------------------
# sweep machinery

def fit_line(x, y) -> dict:
    """Least squares line with the slope's standard error and R^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    xbar, ybar = x.mean(), y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise ConfigError("degenerate abscissa in fit")
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = float(ybar - slope * xbar)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - ybar) ** 2))
    if n > 2:
        se = float(np.sqrt(ss_res / (n - 2) / sxx))
    else:
        se = float("inf")
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return {"slope": slope, "intercept": intercept, "stderr": se, "r2": r2}


def classify_growth(resolutions, maxima) -> tuple[str, dict]:
    """Verdict rules described in the module docstring."""
    res = np.asarray(resolutions, dtype=float)
    m = np.asarray(maxima, dtype=float)
    fits = {}
    if np.any(m <= 0) or m.size < 2:
        return "inconclusive", fits
    fits["log_vs_loglogN"] = fit_line(np.log(np.log(res)), np.log(m))
    fits["log_vs_logN"] = fit_line(np.log(res), np.log(m))
    rel_range = float((m.max() - m.min()) / m.max())
    d = np.diff(np.log(m))
    monotone = bool(np.all(d > 0))
    primary = fits["log_vs_loglogN"]
    significant = primary["slope"] > 0 and (
        primary["slope"] > 3.0 * primary["stderr"])
    # geometric decay of the increments marks a convergent transient;
    # the total-growth floor keeps pure roundoff wiggles out
    non_decaying = monotone and d.size >= 2 and d[-1] >= 0.5 * d[0]
    above_noise = float(np.log(m[-1]) - np.log(m[0])) > 1e-6
    if m.size >= 3 and monotone and significant and non_decaying \
            and above_noise:
        return "diverging", fits
    # flat is bounded, and so is a sequence that never increases: its
    # supremum is already attained at the coarsest grid
    if rel_range < 0.10 or bool(np.all(d <= 1e-9)):
        return "bounded", fits
    return "inconclusive", fits


@dataclass
class RatioReport:
    """Everything a sweep measured, in deterministic order.

    ``wall_time_s`` is kept on the object for the humans but left out
    of the JSON payload so that identical configs reproduce identical
    bytes.
    """

    config: dict
    items: list
    per_resolution: list
    fits: dict
    verdict: str
    excluded: list
    meta: dict
    wall_time_s: float = dc_field(default=0.0, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "items": self.items,
            "per_resolution": self.per_resolution,
            "fits": self.fits,
            "verdict": self.verdict,
            "excluded": self.excluded,
            "meta": self.meta,
        }

    def csv_rows(self):
        head = ["pair", "N", "lhs", "rhs", "ratio"]
        rows = [head]
        for it in self.items:
            rows.append([it["pair"], it["N"], it["lhs"], it["rhs"],
                         it["ratio"]])
        return rows


def _fmt_exponent(p: float):
    return "inf" if np.isinf(p) else p


def _config_echo(cfg) -> dict:
    out = {"s": cfg.s, "p": _fmt_exponent(cfg.p), "op": cfg.op,
           "kind": cfg.kind, "homogeneous": cfg.homogeneous,
           "family": cfg.family, "count": cfg.count, "seed": cfg.seed,
           "resolutions": list(cfg.resolutions), "L": cfg.L, "n": cfg.n,
           "tolerances": {"holder": _HOLDER_TOL, "leak": norms._LEAK_TOL}}
    if cfg.q is not None:
        out["q"] = _fmt_exponent(cfg.q)
    if isinstance(cfg, BilinearConfig):
        out.update({f"p{i}": _fmt_exponent(getattr(cfg, f"p{i}"))
                    for i in range(1, 5)})
    else:
        out["exponents"] = [[_fmt_exponent(v) for v in t]
                            for t in cfg.exponents]
    return out


def _family_tuples(cfg, grid, ref_N):
    arity = cfg.arity
    if cfg.family == "counterexample":
        f = make_family("counterexample", grid, cfg.op, cfg.seed, 1)[0]
        return [(f,) * arity]
    fields = make_family(cfg.family, grid, cfg.op, cfg.seed,
                         arity * cfg.count, ref_N)
    return [tuple(fields[arity * i + j] for j in range(arity))
            for i in range(cfg.count)]


def ratio_sweep(cfg, threads: int = 1) -> RatioReport:
    """Run the configured family over every resolution and classify."""
    t0 = time.perf_counter()
    ratio = bilinear_ratio if cfg.arity == 2 else trilinear_ratio
    ref_N = min(cfg.resolutions)
    items, excluded, per_res = [], [], []
    for N in cfg.resolutions:
        grid = make_grid(cfg.n, cfg.L, N, True)
        bank = get_bank(grid) if cfg.kind == "besov" else None
        tuples = _family_tuples(cfg, grid, ref_N)

        def one(idx_tuple):
            idx, tup = idx_tuple
            return idx, ratio(*tup, cfg, bank)

        results = _map_ordered(one, list(enumerate(tuples)), threads)
        ratios = []
        for idx, r in results:
            row = {"pair": idx, "N": N, "lhs": r["lhs"], "rhs": r["rhs"],
                   "ratio": r["ratio"]}
            if r["degenerate"]:
                row["degenerate"] = True
                excluded.append(row)
            else:
                items.append(row)
                ratios.append(r["ratio"])
        entry = {"N": N, "max_ratio": max(ratios) if ratios else np.nan,
                 "pairs": len(ratios)}
        if bank is not None:
            entry["bank_hash"] = bank.table_hash
        per_res.append(entry)

    usable = [(e["N"], e["max_ratio"]) for e in per_res
              if np.isfinite(e["max_ratio"])]
    if len(usable) >= 2:
        verdict, fits = classify_growth([u[0] for u in usable],
                                        [u[1] for u in usable])
    else:
        verdict, fits = "inconclusive", {}
    report = RatioReport(
        config=_config_echo(cfg),
        items=items,
        per_resolution=per_res,
        fits=fits,
        verdict=verdict,
        excluded=excluded,
        meta={"version": __version__, "seed": cfg.seed,
              "max_ratio": max((u[1] for u in usable), default=np.nan)},
        wall_time_s=time.perf_counter() - t0,
    )
    return report


def _map_ordered(fn, args, threads):
    if threads <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sorted(pool.map(fn, args), key=lambda t: t[0])


# ---------------------------------------------------------------------------
# decompositions

def paraproduct_split(F: SampledField, G: SampledField,
                      bank: DyadicBank) -> tuple:
    """Split FG into the high-low piece (first factor rougher by three
    octaves or more) and the rest.

    Both inputs must be zero-mean and band-resolved; the two pieces
    then reconstruct the pointwise product to the leak tolerance.
    Returns (piece_I, piece_II, info).
    """
    if F.grid != G.grid:
        raise ConfigError("paraproduct factors live on different grids")
    for name, X in (("F", F), ("G", G)):
        mean = abs(float(np.mean(X.values)))
        sup = float(np.max(np.abs(X.values)))
        if sup == 0.0:
            raise ConfigError(f"factor {name} is identically zero")
        if mean > 1e-8 * sup:
            raise NumericalGuardError(
                f"factor {name} has mean {mean:.3e}; the dyadic split "
                "ignores the zero mode")

    js = list(bank.octaves)
    lam = _radial(F.grid.freq_mesh())

    def blocks_of(X):
        xhat = np.fft.fftn(X.values)
        _check_leak(np.abs(xhat) ** 2, lam, bank, low_too=True)
        return [block for _, block in _dyadic_blocks(
            xhat, lam, bank, js, lambda a: np.fft.ifftn(a).real)]

    bF = blocks_of(F)
    bG = blocks_of(G)
    cumF = np.cumsum(np.stack(bF), axis=0)
    cumG = np.cumsum(np.stack(bG), axis=0)

    piece1 = np.zeros_like(F.values)
    for idx in range(len(js)):
        if idx >= 3:
            piece1 += bF[idx] * cumG[idx - 3]
    piece2 = np.zeros_like(F.values)
    for idx in range(len(js)):
        piece2 += bG[idx] * cumF[min(idx + 2, len(js) - 1)]

    product = F.values * G.values
    err = float(np.linalg.norm(piece1 + piece2 - product)
                / max(np.linalg.norm(product), 1e-300))
    info = {"octaves": js, "reconstruction_rel_l2": err}
    return (SampledField(F.grid, piece1), SampledField(F.grid, piece2), info)


def leibniz_decomposition(f: HalfField, g: HalfField) -> dict:
    """Pieces of A_D(fg) = (A_D f) g - 2 grad f . grad g + f (A_D g).

    Returns the three pieces (the middle one WITHOUT the factor 2), the
    relative L^2 residual of the reconstruction against the directly
    computed A_D(fg), and the boundary trace of the middle piece.  The
    residual is spectrally small only when grad f . grad g vanishes at
    the boundary; a nonzero trace is precisely the obstruction the
    counterexample exploits, and it shows up here as a residual that
    decays like N^(-1/2) instead.
    """
    if f.bc != OP_DIRICHLET or g.bc != OP_DIRICHLET:
        raise ConfigError("leibniz decomposition expects Dirichlet tags")
    if f.grid != g.grid:
        raise ConfigError("factors live on different grids")
    n = f.grid.n
    adf = frac_power(f, OP_DIRICHLET, 2.0)
    adg = frac_power(g, OP_DIRICHLET, 2.0)
    piece1 = adf.values * g.values
    piece3 = f.values * adg.values
    grad = np.zeros_like(f.values)
    for k in range(1, n + 1):
        if k < n:
            dk_f = tangential_derivative(f, k).values
            dk_g = tangential_derivative(g, k).values
        else:
            dk_f = normal_derivative(f).values
            dk_g = normal_derivative(g).values
        grad += dk_f * dk_g
    product = HalfField(f.grid, f.values * g.values, OP_DIRICHLET)
    direct = frac_power(product, OP_DIRICHLET, 2.0).values
    recon = piece1 - 2.0 * grad + piece3
    scale = float(np.linalg.norm(direct))
    resid = float(np.linalg.norm(direct - recon) / max(scale, 1e-300))
    mid = HalfField(f.grid, grad)
    trace = boundary_trace(mid)
    trace_max = float(np.max(np.abs(np.atleast_1d(trace))))
    sup = float(np.max(np.abs(grad))) if grad.size else 0.0
    return {
        "pieces": (HalfField(f.grid, piece1), mid, HalfField(f.grid, piece3)),
        "direct": HalfField(f.grid, direct, OP_DIRICHLET),
        "residual_rel_l2": resid,
        "middle_trace": trace,
        "middle_trace_max": trace_max,
        "boundary_active": bool(trace_max > 1e-3 * max(sup, 1e-300)),
    }


# ---------------------------------------------------------------------------
# the s = 2 + 1/p counterexample diagnostics

def counterexample_fields(grid: GridSpec):
    """The pair f = g = x_n phi(x_n) (times tangential cutoffs)."""
    if grid.L < 4.0:
        raise ConfigError("counterexample profile needs L >= 4")
    f = make_family("counterexample", grid, OP_DIRICHLET, 0, 1)[0]
    return f, f


def _check_diagnostic_exponent(p: float) -> None:
    if not 1 <= p < np.inf:
        raise ConfigError(f"diagnostic exponent p={p} must be finite "
                          "and >= 1")


def _phi_half(grid: GridSpec) -> HalfField:
    """Phi = phi^2, the square of the step, as a Dirichlet field on the
    half-line; its odd extension is Phi_odd = sign(x) Phi(|x|)."""
    if grid.n != 1:
        raise ConfigError("profile diagnostics are 1-D")
    return sample_half(grid, lambda x: cutoff_profile(x) ** 2, OP_DIRICHLET)


def singularity_profile(p: float, grid: GridSpec, delta: float = 0.2,
                        fit_lo_cells: int = 8) -> dict:
    """Fit |Lambda^(1/p) Phi_odd|(x) ~ c x^(-1/p) near the boundary.

    Both engines (the sine transform of the Dirichlet calculus, and the
    real-space quadrature of Phi_odd) are fitted; they must agree to 5
    percent in L^2 over the fit window or the profile is rejected as
    aliased.  ``antisymmetry_residual`` is measured on the quadrature's
    box output, which nothing forces to be odd.
    """
    _check_diagnostic_exponent(p)
    s = 1.0 / p
    field = _phi_half(grid)
    spec_vals = frac_power(field, OP_DIRICHLET, s).values
    quad_box = singular_integral_frac_lap(odd_extend(field), s).values
    quad_vals = quad_box[grid.N // 2:]

    x = grid.half_coords()
    lo = fit_lo_cells * grid.h
    if lo >= delta / 2.0:
        raise ConfigError(
            f"grid too coarse: fit window [{lo:.3g}, {delta:.3g}] is empty")
    mask = (x > lo) & (x < delta)
    if int(mask.sum()) < 8:
        raise ConfigError("fewer than 8 samples in the fit window")

    sv, qv = spec_vals[mask], quad_vals[mask]
    diff = float(np.linalg.norm(sv - qv) / np.linalg.norm(sv))
    if diff > 0.05:
        raise NumericalGuardError(
            f"engines disagree by {diff:.3%} in the fit window; "
            "aliasing suspected")

    logx = np.log(x[mask])
    fit_spec = fit_line(logx, np.log(np.abs(sv)))
    fit_quad = fit_line(logx, np.log(np.abs(qv)))

    scale = float(np.max(np.abs(quad_box)))
    anti = float(np.max(np.abs(quad_box + quad_box[::-1])))
    return {
        "p": p,
        "expected_exponent": -s,
        "exponent_spectral": fit_spec["slope"],
        "exponent_quadrature": fit_quad["slope"],
        "amplitude": float(np.exp(fit_spec["intercept"])),
        "window": [float(lo), float(delta)],
        "engine_rel_l2_diff": diff,
        "antisymmetry_residual": anti / max(scale, 1e-300),
        "fit_spectral": fit_spec,
        "fit_quadrature": fit_quad,
    }


def _limit_profile(bank: DyadicBank, p: float) -> dict:
    """The rescaled large-j limit of the blocks of Phi_odd.

    With K the kernel of phi_0(|xi|), the blocks approach
    W(x) = int_0^inf (K(x-y) - K(x+y)) dy = 2 int_0^x K, computed here
    by direct quadrature, nowhere touching the FFT path.
    """
    from scipy.integrate import cumulative_trapezoid

    eta_grid = np.linspace(0.5, 2.0, 2049)
    phi_vals = bank.phi0(eta_grid)
    x = np.arange(0.0, 64.0, 1.0 / 128.0)
    K = np.empty_like(x)
    chunk = 2048
    for i in range(0, x.size, chunk):
        xs = x[i:i + chunk, None]
        integrand = phi_vals[None, :] * np.cos(xs * eta_grid)
        K[i:i + chunk] = np.trapezoid(integrand, eta_grid, axis=1) / np.pi
    W = 2.0 * cumulative_trapezoid(K, x, initial=0.0)
    absW = np.abs(W)
    i_star = int(np.argmax(absW))
    if np.isinf(p):
        norm = float(absW.max())
    else:
        norm = float((2.0 * np.trapezoid(absW ** p, x)) ** (1.0 / p))
    return {
        "x": x, "W": W,
        "sup": float(absW.max()),
        "argmax": float(x[i_star]),
        "lp_norm": norm,
    }


def besov_block_floor(p: float, grid: GridSpec,
                      q_list=(1.0, 2.0)) -> dict:
    """Weighted block norms 2^(j/p) ||phi_j Phi_odd||_p over the octaves.

    At the critical regularity these stop decaying: the block sequence
    plateaus at a positive floor matching the limiting profile, so
    every finite-q l^q sum diverges like J^(1/q) in the octave count.
    The blocks are taken on the sine coefficients of Phi; the box norm
    of an odd block is 2^(1/p) times its half-line norm.
    """
    _check_diagnostic_exponent(p)
    bank = get_bank(grid)
    j0 = 2     # the profile has unit scale; octaves below carry its bulk
    if bank.j_max - j0 + 1 < 6:
        raise ConfigError(
            f"only {bank.j_max - j0 + 1} octaves above the support scale; "
            "increase N")
    coef, lam, _, inverse = _half_spectrum(_phi_half(grid).values, grid,
                                           True)
    js = list(range(j0, bank.j_max + 1))
    blocks_arr = np.asarray([
        2.0 ** ((j + 1) / p) * lp_norm(HalfField(grid, block), p)
        for j, block in _dyadic_blocks(coef, lam, bank, js, inverse)])

    last4 = blocks_arr[-4:]
    plateau = bool(last4.min() > 0.5 * float(np.median(last4))
                   and last4.min() > 0.0)

    partial_fits = {}
    counts = np.arange(1, blocks_arr.size + 1, dtype=float)
    for q in q_list:
        sums = np.cumsum(blocks_arr ** q) ** (1.0 / q)
        # the growth exponent is asymptotic; fit past the pre-plateau
        # transient, over the last four octave counts
        use = counts >= counts[-1] - 3
        partial_fits[str(q)] = fit_line(np.log(counts[use]),
                                        np.log(sums[use]))

    limit = _limit_profile(bank, p)
    j_star = bank.j_max - 3
    b_star = float(blocks_arr[js.index(j_star)])
    match_rel = abs(b_star - limit["lp_norm"]) / limit["lp_norm"]
    return {
        "p": p,
        "octaves": js,
        "blocks": [float(b) for b in blocks_arr],
        "plateau": plateau,
        "floor": float(last4.min()),
        "partial_sum_fits": partial_fits,
        "limit_sup": limit["sup"],
        "limit_argmax": limit["argmax"],
        "limit_lp_norm": limit["lp_norm"],
        "j_star": j_star,
        "block_at_j_star": b_star,
        "limit_match_rel": float(match_rel),
        "bank_hash": bank.table_hash,
    }


def singular_window_growth(p: float, L: float, resolutions,
                           delta: float = 0.25,
                           eps_cells: int = 4) -> dict:
    """||Lambda^(1/p) Phi_odd||_{L^2(eps, delta)}^2 against log N.

    The window floor eps = eps_cells * h shrinks with the mesh, so at
    the critical order the squared norm grows linearly in log N.
    """
    _check_diagnostic_exponent(p)
    resolutions = sorted(int(N) for N in resolutions)
    norms2 = []
    for N in resolutions:
        grid = make_grid(1, L, N, True)
        out = frac_power(_phi_half(grid), OP_DIRICHLET, 1.0 / p).values
        x = grid.half_coords()
        mask = (x > eps_cells * grid.h) & (x < delta)
        norms2.append(float(grid.h * np.sum(out[mask] ** 2)))
    fit = fit_line(np.log(np.asarray(resolutions, dtype=float)),
                   np.asarray(norms2))
    return {
        "p": p,
        "resolutions": resolutions,
        "window_norms_sq": norms2,
        "delta": delta,
        "eps_cells": eps_cells,
        "fit": fit,
    }


def derivative_mapping_sweep(s: float, p: float, family: str, op: str,
                             seed: int, count: int, resolutions,
                             L: float = 16.0, n: int = 1) -> dict:
    """Probe the two derivative mappings of the boundary calculus.

    cross:  || d_n f ||_(s-1, p, other op)  /  || f ||_(s, p, op)
            bounded for every family at every admissible s.
    same:   || A^(s/2) d_n f ||_p  /  || f ||_(s+1, p, op)
            bounded only for 0 <= s < 1/p; above that threshold the
            odd extension of d_n f carries a jump and the ratio climbs
            under refinement.
    """
    resolutions = sorted(int(N) for N in resolutions)
    ref_N = min(resolutions)
    other = OP_NEUMANN if op == OP_DIRICHLET else OP_DIRICHLET
    cross_items, same_items = [], []
    cross_max, same_max = [], []
    for N in resolutions:
        grid = make_grid(n, L, N, True)
        fields = make_family(family, grid, op, seed, count, ref_N)
        c_ratios, s_ratios = [], []
        for i, f in enumerate(fields):
            nd = normal_derivative(f)
            den_cross = sobolev_norm(
                f, SpaceSpec("sobolev", s, p, None, True, op))
            num_cross = sobolev_norm(
                nd, SpaceSpec("sobolev", s - 1.0, p, None, True, other))
            num_same = lp_norm(frac_power(nd.with_bc(None), op, s), p)
            den_same = sobolev_norm(
                f, SpaceSpec("sobolev", s + 1.0, p, None, True, op))
            if den_cross > 0:
                c_ratios.append(num_cross / den_cross)
                cross_items.append({"index": i, "N": N,
                                    "ratio": num_cross / den_cross})
            if den_same > 0:
                s_ratios.append(num_same / den_same)
                same_items.append({"index": i, "N": N,
                                   "ratio": num_same / den_same})
        cross_max.append(max(c_ratios) if c_ratios else np.nan)
        same_max.append(max(s_ratios) if s_ratios else np.nan)
    cross_verdict, cross_fits = classify_growth(resolutions, cross_max)
    same_verdict, same_fits = classify_growth(resolutions, same_max)
    return {
        "s": s, "p": p, "family": family, "op": op,
        "threshold": 1.0 / p,
        "resolutions": resolutions,
        "cross": {"items": cross_items, "max": cross_max,
                  "verdict": cross_verdict, "fits": cross_fits},
        "same": {"items": same_items, "max": same_max,
                 "verdict": same_verdict, "fits": same_fits},
    }
