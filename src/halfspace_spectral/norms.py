"""Sobolev and Besov norms adapted to the half-space calculi.

Homogeneous Sobolev: ||f||_{H^s_p(A)} = ||A^(s/2) f||_{L^p(half)}.
Inhomogeneous replaces the symbol by (1 + |xi|^2)^(s/2).

Besov norms run the dyadic bank, and the semigroup characterization
its heat flows, over the sine (Dirichlet) or cosine (Neumann)
coefficients of the field, the spectrum of its parity extension; each
block's half-space norm is weighted by 2^(sj) and the l^q sum taken
over the resolved octaves.  Truncating the j-sum to the resolved band
is only honest when the field actually lives there, so the spectral
leak guard raises when more than 1e-8 of the (non-DC) energy sits
outside the band.  The inhomogeneous variant adds the psi low-pass
term, which also absorbs everything below octave 1, and only the
high-frequency leak is checked.

Homogeneous norms quotient out constants: the DC mode of the extension
is invisible to every phi_j and is excluded from the leak bookkeeping.

The semigroup characterization

    ( int_0^inf ( t^(-s/2) || (tA)^M e^(-tA) f ||_p )^q  dt/t )^(1/q)

is evaluated on a log-uniform t-quadrature; M must exceed s/2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalGuardError
from .grid import HalfField, _exponent, lp_norm
from .halfspace_ops import (OP_DIRICHLET, OP_NEUMANN, _calculus, _is_odd,
                            extend_for, frac_power)
from .spectral import DyadicBank, Multiplier, _dyadic_blocks, _half_spectrum

__all__ = [
    "SpaceSpec",
    "sobolev_norm",
    "besov_norm",
    "besov_norm_report",
    "besov_norm_semigroup",
    "extension_norm_equivalence",
]

_LEAK_TOL = 1e-8


@dataclass(frozen=True)
class SpaceSpec:
    """Which norm: kind in {sobolev, besov}, regularity s, exponents."""

    kind: str
    s: float
    p: float
    q: float | None = None
    homogeneous: bool = True
    op: str = OP_DIRICHLET

    def __post_init__(self):
        if self.kind not in ("sobolev", "besov"):
            raise ConfigError(f"unknown space kind {self.kind!r}")
        if self.op not in (OP_DIRICHLET, OP_NEUMANN):
            raise ConfigError(f"unknown operator {self.op!r}")
        if not np.isfinite(self.s):
            raise ConfigError("regularity s must be finite")
        _exponent(self.p, "integrability p")
        if self.kind == "besov":
            if self.q is None:
                raise ConfigError("besov spaces need a summability q")
            _exponent(self.q, "summability q")
        elif self.q is not None:
            raise ConfigError("sobolev spaces take no q")
        if self.kind == "sobolev" and (self.p <= 1 or np.isinf(self.p)):
            warnings.warn(
                f"sobolev evaluation at p={self.p}: the estimates this "
                "package probes assume 1 < p < inf", stacklevel=3)


def _checked(hf: HalfField, spec: SpaceSpec, kind: str, what: str):
    """Kind and boundary-tag checks; returns the field tagged spec.op."""
    if spec.kind != kind:
        raise ConfigError(f"{what} needs a {kind} SpaceSpec")
    if hf.bc is not None and hf.bc != spec.op:
        raise ConfigError(
            f"field tagged {hf.bc!r} evaluated in a {spec.op!r} norm")
    return hf if hf.bc is not None else hf.with_bc(spec.op)


def sobolev_norm(hf: HalfField, spec: SpaceSpec) -> float:
    work = _checked(hf, spec, "sobolev", "sobolev_norm")
    if spec.homogeneous:
        return lp_norm(frac_power(work, spec.op, spec.s), spec.p)
    s = spec.s
    bessel = Multiplier(
        lambda *mesh: (1.0 + sum(xi ** 2 for xi in mesh)) ** (s / 2.0),
        1.0, f"(1+|xi|^2)^{s / 2}")
    return lp_norm(_calculus(work, spec.op, bessel), spec.p)


# ---------------------------------------------------------------------------
# dyadic machinery shared by the Besov evaluations

def _check_leak(power, lam, bank: DyadicBank, low_too: bool) -> float:
    """The leak guard of every dyadic split.

    Returns the share of the non-DC energy in ``power`` above 2^j_max
    and, with ``low_too``, below 2^j_min (what a truncated j-sum cannot
    see) and raises when it exceeds ``_LEAK_TOL``.
    """
    nonzero = lam > 0
    total = float(np.sum(power[nonzero]))
    out = lam > 2.0 ** bank.j_max
    if low_too:
        out |= nonzero & (lam < 2.0 ** bank.j_min)
    leak = float(np.sum(power[out])) / total if total else 0.0
    if leak > _LEAK_TOL:
        raise NumericalGuardError(
            f"{leak:.3e} of the spectral energy lies outside the resolved "
            f"band [2^{bank.j_min}, 2^{bank.j_max}]; the truncated j-sum "
            "would misreport it")
    return leak


def _lq(values, q: float) -> float:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 0.0
    if np.isinf(q):
        return float(np.max(arr))
    return float(np.sum(arr ** q) ** (1.0 / q))


def _dyadic_pass(hf: HalfField, spec: SpaceSpec, bank: DyadicBank,
                 what: str, box: bool = False):
    """One leak-checked pass of the bank over the sine or cosine
    coefficients of ``hf``.

    Returns the half-space report and, with ``box``, the same norm over
    the full box of the blocks' parity extensions (else None).
    """
    work = _checked(hf, spec, "besov", what)
    coef, lam, power, inverse = _half_spectrum(
        work.values, work.grid, _is_odd(work, spec.op))
    leak = _check_leak(power, lam, bank, low_too=spec.homogeneous)
    j_lo = bank.j_min if spec.homogeneous else max(bank.j_min, 1)
    blocks, box_weighted = [], []
    for j, block in _dyadic_blocks(coef, lam, bank,
                                   range(j_lo, bank.j_max + 1), inverse):
        part = work.with_values(block)
        b = lp_norm(part, spec.p)
        blocks.append({"j": j, "norm": b, "weighted": 2.0 ** (spec.s * j) * b})
        if box:
            box_weighted.append(2.0 ** (spec.s * j)
                                * lp_norm(extend_for(part, spec.op), spec.p))
    terms = {"blocks": blocks, "leak": leak}
    value = _lq([b["weighted"] for b in blocks], spec.q)
    full = _lq(box_weighted, spec.q) if box else None
    if not spec.homogeneous:
        low = work.with_values(inverse(bank.psi(lam) * coef))
        terms["lowpass"] = lp_norm(low, spec.p)
        value = terms["lowpass"] + value
        if box:
            full += lp_norm(extend_for(low, spec.op), spec.p)
    terms["value"] = value
    return terms, full


def besov_norm_report(hf: HalfField, spec: SpaceSpec, bank: DyadicBank) -> dict:
    """Besov norm plus the block profile and the leak estimate."""
    return _dyadic_pass(hf, spec, bank, "besov_norm")[0]


def besov_norm(hf: HalfField, spec: SpaceSpec, bank: DyadicBank) -> float:
    return besov_norm_report(hf, spec, bank)["value"]


def besov_norm_semigroup(hf: HalfField, spec: SpaceSpec, M: int | None = None,
                         t_grid: np.ndarray | None = None,
                         bank: DyadicBank | None = None) -> float:
    """Semigroup characterization of the Besov norm.

    M defaults to ceil(s/2) + 1, the smallest safe number of vanishing
    moments; the default t range covers the resolved octaves of
    ``bank`` at 16 quadrature nodes per decade.  Pass a wider custom
    ``t_grid`` when validating against closed forms.
    """
    work = _checked(hf, spec, "besov", "semigroup characterization")
    if M is None:
        M = int(np.ceil(spec.s / 2.0)) + 1
    if not (isinstance(M, (int, np.integer)) and M > spec.s / 2.0 and M >= 1):
        raise ConfigError(f"moment count M={M} must be an integer > s/2")
    if t_grid is None:
        if bank is None:
            raise ConfigError("besov_norm_semigroup needs a bank or a t_grid")
        t_lo, t_hi = 2.0 ** (-2 * bank.j_max), 2.0 ** (-2 * bank.j_min)
        npts = int(np.ceil(16 * np.log10(t_hi / t_lo))) + 1
        t_grid = np.geomspace(t_lo, t_hi, npts)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2 or np.any(t_grid <= 0):
        raise ConfigError("t_grid must be a positive 1-D array")
    if np.any(np.diff(t_grid) <= 0):
        raise ConfigError("t_grid must be increasing")
    if not spec.homogeneous:
        if bank is None:
            raise ConfigError("inhomogeneous variant needs the bank's low-pass")
        t_grid = t_grid[t_grid <= 1.0]
        if t_grid.size == 0:
            raise ConfigError("inhomogeneous variant integrates over (0, 1]")

    coef, lam, _, inverse = _half_spectrum(work.values, work.grid,
                                           _is_odd(work, spec.op))
    lam2 = lam ** 2
    vals = np.empty(t_grid.size)
    for i, t in enumerate(t_grid):
        sym = (t * lam2) ** M * np.exp(-t * lam2)
        block = work.with_values(inverse(sym * coef))
        vals[i] = t ** (-spec.s / 2.0) * lp_norm(block, spec.p)

    if np.isinf(spec.q):
        body = float(np.max(vals))
    else:
        body = float(np.trapezoid(vals ** spec.q, np.log(t_grid))
                     ** (1.0 / spec.q))
    if spec.homogeneous:
        return body
    return lp_norm(work.with_values(inverse(bank.psi(lam) * coef)),
                   spec.p) + body


def extension_norm_equivalence(hf: HalfField, spec: SpaceSpec,
                               bank: DyadicBank) -> dict:
    """Half-space Besov norm against the full-box norm of the extension.

    By construction the ratio is 2^(-1/p) for p < inf (each block of a
    parity extension has definite parity, so restriction halves its
    p-th power mass); the report keeps both values and flags the
    degenerate zero-field case instead of dividing by it.  Both norms
    come from one pass over the blocks.
    """
    terms, full = _dyadic_pass(hf, spec, bank, "extension equivalence",
                               box=True)
    half = terms["value"]
    degenerate = full == 0.0
    return {
        "half_norm": half,
        "full_norm": full,
        "ratio": np.nan if degenerate else half / full,
        "degenerate": degenerate,
    }
