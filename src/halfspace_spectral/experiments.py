"""Experiment harness: bilinear/trilinear ratio sweeps, the Leibniz
decomposition, and the boundary counterexample diagnostics.

A sweep's config is a frozen, keyword-only ``_ProductConfig``, which
owns the shared sweep fields and their defaults and checks every one
when built, the family draw and each rung's grid included;
``BilinearConfig`` and ``TrilinearConfig`` only translate their
constructors, with the diagonal exponents by default, and the
derivative mapping checks its input as the config of one factor.
Every resolution ladder, a sweep's, a mapping's or a diagnostic's, is
owned by ``_rungs``: it gives the ladder's grids, coarsest first, and
refuses a bad ladder before the first draw or transform, and a config
keeps them for its sweep.  Nothing else here builds a ladder's grids.

A ladder that ends in a verdict, a product sweep's or a derivative
mapping's, keeps one growth record, built by ``_growth``: its rows, the
degenerate rule, the rung maxima and the one ``classify_growth`` call.
A new fit of a ladder belongs there, so that every ladder reports it.

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

import math
import time
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from . import __version__, norms
from .errors import ConfigError, NumericalGuardError
from .extension import odd_extend, restrict
from .families import _check_draw, cutoff_profile, make_family
from .grid import (GridSpec, HalfField, _bc_guard, _exponent, lp_norm,
                   make_grid, sample_half)
from .halfspace_ops import (OP_DIRICHLET, boundary_trace, frac_power,
                            normal_derivative, tangential_derivative)
from .norms import SpaceSpec, _band_norms, besov_norm, sobolev_norm
from .spectral import (DyadicBank, _HalfSpectrum, _Octave, build_bank,
                       singular_integral_frac_lap)

__all__ = [
    "BilinearConfig",
    "TrilinearConfig",
    "RatioReport",
    "get_bank",
    "bilinear_ratio",
    "trilinear_ratio",
    "ratio_sweep",
    "fit_line",
    "classify_growth",
    "leibniz_decomposition",
    "counterexample_fields",
    "singularity_profile",
    "besov_block_floor",
    "wall_rate",
    "derivative_mapping_sweep",
]

_HOLDER_TOL = 1e-12


@lru_cache(maxsize=32)
def get_bank(grid: GridSpec) -> DyadicBank:
    """One bank per grid; sweeps hit the same grids repeatedly."""
    return build_bank(grid)


def _inv(p: float) -> float:
    return 0.0 if np.isinf(p) else 1.0 / p


def _check_holder(p, parts, what):
    lhs = _inv(p)
    rhs = sum(_inv(pi) for pi in parts)
    if abs(lhs - rhs) > _HOLDER_TOL:
        raise ConfigError(
            f"{what}: 1/p = {lhs!r} but exponents {parts} sum to {rhs!r}")


def _rungs(resolutions, n: int, L: float) -> tuple:
    """The grids of a resolution ladder, coarsest first; refuses an
    empty ladder, a repeated rung and any rung that GridSpec refuses."""
    grids = sorted((make_grid(n, L, N) for N in resolutions),
                   key=lambda g: g.N)
    res = tuple(g.N for g in grids)
    if not res:
        raise ConfigError("at least one resolution required")
    if len(set(res)) < len(res):
        raise ConfigError(f"resolutions {res} repeat a rung")
    return tuple(grids)


def _diagonal(p, k):
    """The default exponents of a k-factor sweep: term i takes p on
    factor i, the one carrying the regularity, and inf on the others."""
    return tuple(tuple(p if j == i else float("inf") for j in range(k))
                 for i in range(k))


@dataclass(frozen=True, kw_only=True)
class _ProductConfig:
    """Product estimate  ||prod f_i||_(s,p) <= C sum_i ||f_i||_(s,q_ii)
    prod_(j != i) ||f_j||_(q_ij)  probed over a family, with the k
    exponent k-tuples q_i = ``exponents[i]``; term i carries the
    regularity on factor i, and the arity is k."""

    s: float
    p: float
    exponents: tuple | None = None
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
    grids: tuple = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Every sweep check: each term's Hoelder sum, the target norm's
        space (kind, op, s, p, q), each rung's grid and the family draw
        on the coarsest."""
        p = _exponent(self.p, "p")
        k = len(self.exponents)
        if any(len(t) != k for t in self.exponents):
            raise ConfigError(f"{k} factors need {k} exponents per term")
        exponents = tuple(tuple(_exponent(v, f"term {i + 1} exponent")
                                for v in t)
                          for i, t in enumerate(self.exponents))
        for i, t in enumerate(exponents):
            _check_holder(p, t, f"term {i + 1}")
        SpaceSpec(self.kind, self.s, p, self.q, self.homogeneous, self.op)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "exponents", exponents)
        grids = _rungs(self.resolutions, self.n, self.L)
        object.__setattr__(self, "grids", grids)
        object.__setattr__(self, "resolutions", tuple(g.N for g in grids))
        _check_draw(self.family, grids[0], self.op, self.count, self.seed)
        if self.family == "counterexample":
            # one fixed field: a sweep draws it once, whatever the count
            object.__setattr__(self, "count", 1)

    @property
    def arity(self):
        return len(self.exponents)


@dataclass(frozen=True, kw_only=True)
class BilinearConfig(_ProductConfig):
    """Two factors,  ||fg||_(s,p) <= C (||f||_(s,p1) ||g||_p2
    + ||f||_p3 ||g||_(s,p4)):  ``exponents`` is ((p1, p2), (p3, p4)),
    the diagonal ((p, inf), (inf, p)) when none of p1..p4 is given."""

    p1: float | None = None
    p2: float | None = None
    p3: float | None = None
    p4: float | None = None
    exponents: tuple = dc_field(init=False)

    def __post_init__(self):
        given = (self.p1, self.p2, self.p3, self.p4)
        if given == (None,) * 4:
            given = sum(_diagonal(self.p, 2), ())
        elif None in given:
            raise ConfigError("give all four exponents p1..p4 or none")
        object.__setattr__(self, "exponents", (given[:2], given[2:]))
        super().__post_init__()
        for name, v in zip(("p1", "p2", "p3", "p4"), sum(self.exponents, ())):
            object.__setattr__(self, name, v)


@dataclass(frozen=True, kw_only=True)
class TrilinearConfig(_ProductConfig):
    """Three factors; ``exponents`` is three triples, diagonal if unset."""

    count: int = 4

    def __post_init__(self):
        if self.exponents is None:
            object.__setattr__(self, "exponents", _diagonal(self.p, 3))
        elif len(self.exponents) != 3:
            raise ConfigError("trilinear exponents are three triples")
        super().__post_init__()


def _graded_norm(hf: HalfField, cfg, p: float, bank) -> float:
    spec = SpaceSpec(cfg.kind, cfg.s, p, cfg.q, cfg.homogeneous, cfg.op)
    if cfg.kind == "sobolev":
        return sobolev_norm(hf, spec)
    return besov_norm(hf, spec, bank)


def _product_ratio(fields, cfg, bank: DyadicBank | None) -> dict:
    """||prod fields|| over the sum of terms; term i puts the regularity
    on factor i and the Lebesgue exponents of ``cfg.exponents[i]`` on
    the others.  Zero denominators are flagged, not divided.  A factor
    may recur, as in (f, f); each of its norms is taken once."""
    if len(fields) != cfg.arity:
        raise ConfigError(f"{cfg.arity} factors needed, {len(fields)} given")
    if any(fld.grid != fields[0].grid for fld in fields[1:]):
        raise ConfigError("factors live on different grids")
    if bank is None and cfg.kind == "besov":
        bank = get_bank(fields[0].grid)
    values = fields[0].values
    for fld in fields[1:]:
        values = values * fld.values
    num = _graded_norm(HalfField(fields[0].grid, values, cfg.op), cfg,
                       cfg.p, bank)
    factor_norms = {}
    terms = []
    for slot, ps in enumerate(cfg.exponents):
        term = 1.0
        for j, fld in enumerate(fields):
            key = (id(fld), ps[j], j == slot)
            if key not in factor_norms:
                factor_norms[key] = (_graded_norm(fld, cfg, ps[j], bank)
                                     if j == slot else lp_norm(fld, ps[j]))
            term *= factor_norms[key]
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
        return {k: v for k, v in vars(self).items() if k != "wall_time_s"}


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


def _family_tuples(cfg, grid):
    """The draws of ``cfg`` on ``grid``, one ``arity``-tuple each, kept
    in the band of the coarsest rung."""
    arity = cfg.arity
    if cfg.family == "counterexample":
        f = make_family("counterexample", grid, cfg.op, cfg.seed, 1)[0]
        return [(f,) * arity]
    fields = make_family(cfg.family, grid, cfg.op, cfg.seed,
                         arity * cfg.count, cfg.resolutions[0])
    return [tuple(fields[arity * i + j] for j in range(arity))
            for i in range(cfg.count)]


def _growth(rungs, measured, label) -> dict:
    """The growth record of a ladder; ``measured[i]`` holds the (lhs,
    rhs) of each draw at rung ``rungs[i]``, a row numbered under
    ``label``.  A draw with rhs = 0 is set aside under ``excluded``,
    ``degenerate`` with a NaN ratio.  A rung reports the max ratio of
    the others and their number ("pairs"); the finite rung maxima are
    classified when there are two or more."""
    items, excluded, per_rung = [], [], []
    for N, draws in zip(rungs, measured):
        ratios = []
        for i, (lhs, rhs) in enumerate(draws):
            row = {label: i, "N": N, "lhs": lhs, "rhs": rhs,
                   "ratio": np.nan if rhs == 0.0 else lhs / rhs}
            if rhs == 0.0:
                row["degenerate"] = True
                excluded.append(row)
            else:
                items.append(row)
                ratios.append(row["ratio"])
        per_rung.append({"N": N, "max_ratio": max(ratios, default=np.nan),
                         "pairs": len(ratios)})
    usable = [(e["N"], e["max_ratio"]) for e in per_rung
              if np.isfinite(e["max_ratio"])]
    verdict, fits = (classify_growth(*zip(*usable)) if len(usable) >= 2
                     else ("inconclusive", {}))
    return {"items": items, "per_resolution": per_rung, "fits": fits,
            "verdict": verdict, "excluded": excluded,
            "max_ratio": max((m for _, m in usable), default=np.nan)}


def ratio_sweep(cfg) -> RatioReport:
    """Run the configured family over every resolution and classify."""
    t0 = time.perf_counter()
    ratio = bilinear_ratio if cfg.arity == 2 else trilinear_ratio
    measured, banks = [], []
    for grid in cfg.grids:
        banks.append(get_bank(grid) if cfg.kind == "besov" else None)
        measured.append([])
        for tup in _family_tuples(cfg, grid):
            r = ratio(*tup, cfg, banks[-1])
            measured[-1].append((r["lhs"], r["rhs"]))
    rec = _growth(cfg.resolutions, measured, "pair")
    for entry, bank in zip(rec["per_resolution"], banks):
        if bank is not None:
            entry["bank_hash"] = bank.table_hash
    meta = {"version": __version__, "seed": cfg.seed,
            "max_ratio": rec.pop("max_ratio")}
    return RatioReport(config=_config_echo(cfg), meta=meta,
                       wall_time_s=time.perf_counter() - t0, **rec)


# ---------------------------------------------------------------------------
# the Leibniz decomposition

def leibniz_decomposition(f: HalfField, g: HalfField) -> dict:
    """Pieces of A_D(fg) = (A_D f) g - 2 grad f . grad g + f (A_D g).

    Returns the three pieces (the middle one WITHOUT the factor 2), the
    relative L^2 residual of the reconstruction against the directly
    computed A_D(fg), and the boundary trace of the middle piece.  The
    residual is spectrally small only when grad f . grad g vanishes at
    the boundary; a nonzero trace is precisely the obstruction the
    counterexample exploits, and it shows up here as a residual that
    decays like N^(-1/2) instead.  When fg vanishes, so that A_D(fg)
    is exactly 0, the report is ``degenerate`` and the residual NaN.
    Untagged factors run in the Dirichlet calculus.
    """
    f, _ = _bc_guard(OP_DIRICHLET, f)
    g, _ = _bc_guard(OP_DIRICHLET, g)
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
    degenerate = scale == 0.0
    resid = (np.nan if degenerate
             else float(np.linalg.norm(direct - recon) / scale))
    mid = HalfField(f.grid, grad)
    trace = boundary_trace(mid)
    trace_max = float(np.max(np.abs(np.atleast_1d(trace))))
    sup = float(np.max(np.abs(grad))) if grad.size else 0.0
    return {
        "pieces": (HalfField(f.grid, piece1), mid, HalfField(f.grid, piece3)),
        "direct": HalfField(f.grid, direct, OP_DIRICHLET),
        "residual_rel_l2": resid,
        "degenerate": degenerate,
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


def singularity_profile(p: float, grid: GridSpec) -> dict:
    """Fit |Lambda^(1/p) Phi_odd|(x) ~ c x^(-1/p) near the boundary.

    Both engines (the sine transform of the Dirichlet calculus, and the
    real-space quadrature of Phi_odd) are fitted over the window (8 h,
    0.2); they must agree there to 5 percent in L^2 or the profile is
    rejected as aliased.  ``antisymmetry_residual`` is measured on the
    quadrature's box output, which nothing forces to be odd.
    """
    _check_diagnostic_exponent(p)
    s = 1.0 / p
    field = _phi_half(grid)
    x = grid.half_coords()
    lo, delta = 8 * grid.h, 0.2
    if lo >= delta / 2.0:
        raise ConfigError(
            f"grid too coarse: fit window [{lo:.3g}, {delta:.3g}] is empty")
    mask = (x > lo) & (x < delta)
    # cells 8..15 lie inside; only a half-box of under 16 cells (N <= 16,
    # L < 0.1) ends before them
    if int(mask.sum()) < 8:
        raise ConfigError("fewer than 8 samples in the fit window")

    spec_vals = frac_power(field, OP_DIRICHLET, s).values
    quad = singular_integral_frac_lap(odd_extend(field), s)
    quad_box, quad_vals = quad.values, restrict(quad).values

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


@lru_cache(maxsize=4)
def _limit_kernel(table_hash: str, phi0_scale: float) -> tuple:
    """(x, W) for the bank profile named by ``table_hash``, read-only.

    With K the kernel of phi_0(|xi|), the blocks of Phi_odd approach
    W(x) = int_0^inf (K(x-y) - K(x+y)) dy = 2 int_0^x K, computed here
    by direct quadrature, nowhere touching the FFT path.  It depends on
    the profile alone, not on p or the grid.
    """
    from scipy.integrate import cumulative_trapezoid

    eta_grid = np.linspace(0.5, 2.0, 2049)
    phi_vals = DyadicBank(0, 0, table_hash, phi0_scale).phi0(eta_grid)
    x = np.arange(0.0, 64.0, 1.0 / 128.0)
    K = np.empty_like(x)
    chunk = 2048
    for i in range(0, x.size, chunk):
        xs = x[i:i + chunk, None]
        integrand = phi_vals[None, :] * np.cos(xs * eta_grid)
        K[i:i + chunk] = np.trapezoid(integrand, eta_grid, axis=1) / np.pi
    W = 2.0 * cumulative_trapezoid(K, x, initial=0.0)
    x.flags.writeable = W.flags.writeable = False
    return x, W


def _limit_profile(bank: DyadicBank, p: float) -> dict:
    """The rescaled large-j limit W of the blocks of Phi_odd, with its
    sup, argmax and L^p norm (p finite) over the whole line."""
    x, W = _limit_kernel(bank.table_hash, bank.phi0_scale)
    absW = np.abs(W)
    i_star = int(np.argmax(absW))
    return {
        "x": x, "W": W,
        "sup": float(absW.max()),
        "argmax": float(x[i_star]),
        "lp_norm": float((2.0 * np.trapezoid(absW ** p, x)) ** (1.0 / p)),
    }


def besov_block_floor(p: float, grid: GridSpec) -> dict:
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
    phi = _phi_half(grid)
    norms = _band_norms(phi, _HalfSpectrum(phi.values, grid, True), p)
    js = list(range(j0, bank.j_max + 1))
    blocks_arr = np.asarray([2.0 ** ((j + 1) / p) * norms(_Octave(bank, j))[0]
                             for j in js])

    last4 = blocks_arr[-4:]
    plateau = bool(last4.min() > 0.5 * float(np.median(last4))
                   and last4.min() > 0.0)

    partial_fits = {}
    counts = np.arange(1, blocks_arr.size + 1, dtype=float)
    for q in (1.0, 2.0):
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


def _wall_amplitude(alpha: float) -> float:
    """c_a = (2/pi) Gamma(a) sin(pi a / 2), the amplitude of
    Lambda^a sign(x) = c_a sign(x) |x|^(-a), for a = ``alpha``."""
    return 2.0 / math.pi * math.gamma(alpha) * math.sin(math.pi * alpha / 2)


def wall_rate(p: float, L: float, resolutions) -> dict:
    """P_N = ||A_D^(1/(2p)) Phi||_p^p per doubling of N, on a ladder of
    two rungs or more.  The jump of Phi_odd at the wall makes its order
    a = 1/p derivative c_a sign(x) |x|^(-a) there, so each doubling adds
    one octave of |x|^(-1) to P_N: ``predicted`` = c_a^p ln 2."""
    _check_diagnostic_exponent(p)
    grids = _rungs(resolutions, 1, L)
    resolutions = [g.N for g in grids]
    if len(grids) < 2:
        raise ConfigError(f"the wall rate reads increments over the ladder "
                          f"{resolutions}, which needs two rungs or more")
    spec = SpaceSpec("sobolev", 1.0 / p, p, None, True, OP_DIRICHLET)
    powers = [sobolev_norm(_phi_half(g), spec) ** p for g in grids]
    increments = [(b - a) / math.log2(M / N) for a, b, N, M in
                  zip(powers, powers[1:], resolutions, resolutions[1:])]
    predicted = _wall_amplitude(1.0 / p) ** p * math.log(2.0)
    return {"resolutions": resolutions, "powers": powers,
            "increments": increments, "predicted": predicted,
            "rel_gap": [abs(d - predicted) / predicted for d in increments]}


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

    The input is checked as the product config of one factor, before
    the first draw; like a sweep, it draws the fixed ``counterexample``
    field once per rung, whatever the count.
    """
    cfg = _ProductConfig(s=s, p=p, exponents=((p,),), op=op, family=family,
                         seed=seed, count=count, resolutions=resolutions,
                         L=L, n=n)
    cross, same = [], []
    for grid in cfg.grids:
        cross.append([])
        same.append([])
        for (f,) in _family_tuples(cfg, grid):
            nd = normal_derivative(f)
            den_cross = sobolev_norm(
                f, SpaceSpec("sobolev", s, p, None, True, op))
            num_cross = sobolev_norm(
                nd, SpaceSpec("sobolev", s - 1.0, p, None, True, nd.bc))
            num_same = lp_norm(frac_power(nd.with_bc(None), op, s), p)
            den_same = sobolev_norm(
                f, SpaceSpec("sobolev", s + 1.0, p, None, True, op))
            cross[-1].append((num_cross, den_cross))
            same[-1].append((num_same, den_same))
    out = {"s": s, "p": p, "family": family, "op": op,
           "threshold": 1.0 / p, "resolutions": list(cfg.resolutions)}
    for name, measured in (("cross", cross), ("same", same)):
        rec = _growth(cfg.resolutions, measured, "index")
        out[name] = {"items": rec["items"],
                     "max": [e["max_ratio"] for e in rec["per_resolution"]],
                     "verdict": rec["verdict"], "fits": rec["fits"],
                     "excluded": rec["excluded"]}
    return out
