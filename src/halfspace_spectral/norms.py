"""Sobolev and Besov norms adapted to the half-space calculi.

Homogeneous Sobolev: ||f||_{H^s_p(A)} = ||A^(s/2) f||_{L^p(half)}.
Inhomogeneous replaces the symbol by (1 + |xi|^2)^(s/2).

Every norm is a profile of |xi|^2 that ``spectral`` applies to the
sine (Dirichlet) or cosine (Neumann) coefficients of the field: a
Sobolev power or Bessel symbol, or the Besov bank and, for the
semigroup characterization, its heat flows; a Besov profile carries
the radius from which it vanishes.  Each block's
half-space norm is weighted by 2^(sj) and the l^q sum taken over the
resolved octaves.  Truncating the j-sum to the resolved band
is only honest when the field actually lives there, so the spectral
leak guard raises when more than 1e-8 of the (non-DC) energy sits
outside the band.  The inhomogeneous variant adds the psi low-pass
term, which also absorbs everything below octave 1, and only the
high-frequency leak is checked.

Homogeneous norms quotient out constants: the DC mode of the extension
is invisible to every phi_j and is excluded from the leak bookkeeping.

At p = 2 every norm is taken from the coefficients by Parseval: the
Sobolev norm, each block, low-pass term and heat node, with no inverse
transform (``_image_norms`` chooses the route), and the leak guard's
sums come from the same weighted |coef|^2.  Every other p forms the
samples and takes their midpoint-rule norm.

The semigroup characterization

    ( int_0^inf ( t^(-s/2) || (tA)^M e^(-tA) f ||_p )^q  dt/t )^(1/q)

is evaluated on a log-uniform t-quadrature; M must exceed s/2.  Each
heat node, ``_HeatNode``, is the profile x^M e^-x, x = t |xi|^2, cut
at the one x = ``_heat_cut(M)`` where it falls to 1e-20 of its peak:
the node reaches only the disk below its radius sqrt(cut / t), and
``exp`` is taken only below the cut, where it never underflows.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalGuardError
from .grid import HalfField, _bc_guard, _exponent, lp_norm
from .halfspace_ops import OP_DIRICHLET, _spectrum, extend_for, frac_power
from .spectral import DyadicBank, _HalfSpectrum, _Octave, _Operator

__all__ = [
    "SpaceSpec",
    "sobolev_norm",
    "besov_norm",
    "besov_norm_report",
    "besov_norm_semigroup",
    "extension_norm_equivalence",
]

_LEAK_TOL = 1e-8

#: a heat node's profile x^M e^-x, x = t |xi|^2, is cut where it falls
#: below this share of its peak M^M e^-M
_HEAT_FLOOR = 1e-20


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
        _bc_guard(self.op)
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
    """The kind check and the boundary guard: returns the field tagged
    spec.op and whether its calculus is the odd (sine) one."""
    if spec.kind != kind:
        raise ConfigError(f"{what} needs a {kind} SpaceSpec")
    return _bc_guard(spec.op, hf)


def _image_norms(p: float, image, energy, box_op: str | None = None):
    """(half, box) L^p norms of an operator's image: over the half-space
    and, for ``box_op``, over the box of its parity extension (else
    None).  The one place that chooses the route.

    At p = 2 both come from ``energy()``, the image's squared half-space
    L^2 norm by Parseval on its coefficients: a parity extension doubles
    the L^2 mass, so the box norm is sqrt(2) times the half norm.  At
    any other p, ``image()`` transforms the image to its samples.
    """
    if p == 2:
        half = math.sqrt(energy())
        return half, (math.sqrt(2.0) * half if box_op else None)
    part = image()
    return (lp_norm(part, p),
            lp_norm(extend_for(part, box_op), p) if box_op else None)


def sobolev_norm(hf: HalfField, spec: SpaceSpec) -> float:
    work = _checked(hf, spec, "sobolev", "sobolev_norm")[0]
    power = spec.s if spec.homogeneous else None
    profile = _Operator("bessel" if power is None else "power", spec.s)

    def image():
        if power is None:
            return work.with_values(_spectrum(work, spec.op).image(profile))
        return frac_power(work, spec.op, power)

    return _image_norms(spec.p, image, lambda: _spectrum(
        work, spec.op, power).image(profile, energy=True))[0]


# ---------------------------------------------------------------------------
# dyadic machinery shared by the Besov evaluations

def _check_leak(spectrum: _HalfSpectrum, bank: DyadicBank,
                spec: SpaceSpec) -> float:
    """The leak guard of every dyadic split.

    Returns the share of the non-DC energy of ``spectrum`` above
    2^j_max and, for a homogeneous ``spec``, below 2^j_min (what a
    truncated j-sum cannot see) and raises when it exceeds
    ``_LEAK_TOL``.  At p = 2 the sums come from the weighted |coef|^2
    that the pass forms for its energies anyway.
    """
    total, outside = spectrum.leak_sums(
        2.0 ** bank.j_min if spec.homogeneous else 0.0, 2.0 ** bank.j_max,
        from_power=spec.p == 2)
    leak = outside / total if total else 0.0
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


def _band_norms(work: HalfField, spectrum: _HalfSpectrum, p: float,
                box_op: str | None = None):
    """The :func:`_image_norms` of a band of ``work``, as a function of
    the profile like the spectrum's ``band``."""
    def norms(profile):
        return _image_norms(
            p, lambda: work.with_values(spectrum.band(profile)),
            lambda: spectrum.energy(profile), box_op)
    return norms


def _dyadic_pass(hf: HalfField, spec: SpaceSpec, bank: DyadicBank,
                 what: str, box: bool = False):
    """One leak-checked pass of the bank over the sine or cosine
    coefficients of ``hf``.

    Returns the half-space report and, with ``box``, the same norm over
    the full box of the blocks' parity extensions (else None).
    """
    work, odd = _checked(hf, spec, "besov", what)
    spectrum = _HalfSpectrum(work.values, work.grid, odd)
    leak = _check_leak(spectrum, bank, spec)
    norms = _band_norms(work, spectrum, spec.p, spec.op if box else None)
    j_lo = bank.j_min if spec.homogeneous else max(bank.j_min, 1)
    blocks, box_weighted = [], []
    for j in range(j_lo, bank.j_max + 1):
        b, b_box = norms(_Octave(bank, j))
        blocks.append({"j": j, "norm": b, "weighted": 2.0 ** (spec.s * j) * b})
        if box:
            box_weighted.append(2.0 ** (spec.s * j) * b_box)
    terms = {"blocks": blocks, "leak": leak}
    value = _lq([b["weighted"] for b in blocks], spec.q)
    full = _lq(box_weighted, spec.q) if box else None
    if not spec.homogeneous:
        terms["lowpass"], low_box = norms(_Octave(bank))
        value = terms["lowpass"] + value
        if box:
            full += low_box
    terms["value"] = value
    return terms, full


def besov_norm_report(hf: HalfField, spec: SpaceSpec, bank: DyadicBank) -> dict:
    """Besov norm plus the block profile and the leak estimate."""
    return _dyadic_pass(hf, spec, bank, "besov_norm")[0]


def besov_norm(hf: HalfField, spec: SpaceSpec, bank: DyadicBank) -> float:
    return besov_norm_report(hf, spec, bank)["value"]


@functools.lru_cache(maxsize=None)
def _heat_cut(M: int) -> float:
    """The x > M at which x^M e^-x falls to ``_HEAT_FLOOR`` of its peak
    M^M e^-M: the root of M ln(x/M) - (x - M) = ln(floor), the fixed
    point of x = M - ln(floor) + M ln(x/M), reached from below, where
    the map's slope M/x is under 1."""
    x = M - math.log(_HEAT_FLOOR)
    for _ in range(64):
        x = M - math.log(_HEAT_FLOOR) + M * math.log(x / M)
    return x


@dataclass(frozen=True)
class _HeatNode:
    """(t lam^2)^M exp(-t lam^2), the profile of (tA)^M e^(-tA), as a
    function of lam^2; 0 from t lam^2 = ``cut`` on, that is from lam =
    ``radius`` on, where ``exp`` is not taken, so it meets no
    underflow."""

    t: float
    M: int
    cut: float

    @property
    def radius(self) -> float:
        return math.sqrt(self.cut / self.t)

    def __call__(self, lam2):
        x = self.t * lam2
        decay = np.zeros_like(x)
        np.exp(np.negative(x), out=decay, where=x < self.cut)
        x **= self.M
        x *= decay
        return x


def besov_norm_semigroup(hf: HalfField, spec: SpaceSpec, M: int | None = None,
                         t_grid: np.ndarray | None = None,
                         bank: DyadicBank | None = None) -> float:
    """Semigroup characterization of the Besov norm.

    M defaults to ceil(s/2) + 1, the smallest safe number of vanishing
    moments; the default t range covers the resolved octaves of
    ``bank`` at 16 quadrature nodes per decade.  Pass a wider custom
    ``t_grid`` when validating against closed forms.
    """
    work, odd = _checked(hf, spec, "besov", "semigroup characterization")
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
    if (t_grid.ndim != 1 or t_grid.size < 2
            or not np.all(np.isfinite(t_grid)) or np.any(t_grid <= 0)):
        raise ConfigError("t_grid must be a finite positive 1-D array")
    if np.any(np.diff(t_grid) <= 0):
        raise ConfigError("t_grid must be increasing")
    if not spec.homogeneous:
        if bank is None:
            raise ConfigError("inhomogeneous variant needs the bank's low-pass")
        t_grid = t_grid[t_grid <= 1.0]
        if t_grid.size == 0:
            raise ConfigError("inhomogeneous variant integrates over (0, 1]")

    norms = _band_norms(work, _HalfSpectrum(work.values, work.grid, odd),
                        spec.p)
    cut = _heat_cut(M)
    vals = np.empty(t_grid.size)
    for i, t in enumerate(t_grid):
        vals[i] = t ** (-spec.s / 2.0) * norms(_HeatNode(t, M, cut))[0]

    if np.isinf(spec.q):
        body = float(np.max(vals))
    else:
        body = float(np.trapezoid(vals ** spec.q, np.log(t_grid))
                     ** (1.0 / spec.q))
    if spec.homogeneous:
        return body
    return norms(_Octave(bank))[0] + body


def extension_norm_equivalence(hf: HalfField, spec: SpaceSpec,
                               bank: DyadicBank) -> dict:
    """Half-space Besov norm against the full-box norm of the extension.

    By construction the ratio is 2^(-1/p) for p < inf (each block of a
    parity extension has definite parity, so restriction halves its
    p-th power mass); the report keeps both values and flags the
    degenerate zero-field case instead of dividing by it.  Both norms
    come from one pass over the blocks; at p = 2 from their energies.
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
