"""Fourier multipliers on the box and the half-space, and the dyadic
filter bank.

This module owns every transform of the package.  A multiplier is a
function of the resolved angular frequencies xi_i = (pi/L) m_i applied
diagonally in transform space; the zero mode is assigned explicitly
since homogeneous symbols like |xi|^s are singular or ambiguous there.

On the box, ``apply_multiplier`` acts on full-grid fields through the
complex DFT.  Composed with a parity extension and a restriction it is
the method of images, which defines the half-space operators and stays
public as their oracle.  The half-space operators themselves run on
the half-grid: the odd or even extension followed by a full DFT is
exactly a DST-II or DCT-II of length N/2 along the normal axis on the
staggered grid (Martucci 1994), whose modes sin(k x_n) and cos(k x_n),
k = pi m / L, are the Dirichlet and Neumann eigenfunctions.  The
private pair ``_half_forward``/``_half_inverse`` computes it as a
tangential DFT times a DCT-II (the DST-II is the DCT-II of the samples
with alternating signs, in reverse coefficient order), and the DCT-II
as one complex FFT of permuted samples (Makhoul 1980).  Each operator
call is one ``numpy.fft.fftn`` and one ``ifftn`` of N^(n-1) N/2
points.  A half-space symbol must be Hermitian in the tangential
frequencies, exactly, as a box symbol must be in all of them.

The dyadic bank realizes a standard smooth partition of unity: with
eta(lambda) equal to 1 on [0, 1], supported in [0, 2] and built from
the exp(-1/x) cutoff, the band profile is

    phi_0(lambda) = eta(lambda) - eta(2 lambda),  supp in [1/2, 2],

and phi_j = phi_0(2^-j .) telescopes to 1 over j in Z for lambda > 0.
Both profiles are evaluated in closed form.  Since eta(lambda) = 1 on
[0, 1] and eta(2 lambda) = 0 on [1, inf), phi_0 takes one smooth step
S = ``smooth_step`` per point: 1 - S(2 - 2 lambda) on (1/2, 1] and
S(2 - lambda) on (1, 2), bitwise equal to the difference above.  The
bank's ``table_hash`` hashes eta at 2^16 + 1 equispaced knots of [0, 2]
together with ``phi0_scale``, and is echoed into experiment reports so
that they pin the exact profiles they were produced with.

This module is the single owner of the dyadic split: the radial
frequency |xi|, the octave range a grid resolves and the loop that
inverse-transforms one block phi_j(|xi|) fhat at a time, by the box
DFT or by the half-length pair.  The half-space Besov passes take the
sine or cosine coefficients, |xi| and the Parseval-weighted power from
``_half_spectrum``.

A real-space quadrature for the fractional Laplacian at order
s in (0, 1) lives here too; it is the independent check that the
|xi|^s symbol is the operator it claims to be.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalGuardError
from .grid import GridSpec, SampledField

__all__ = [
    "Multiplier",
    "apply_multiplier",
    "fractional_laplacian",
    "directional_multiplier",
    "riesz_transform",
    "semigroup_symbol",
    "DyadicBank",
    "build_bank",
    "dyadic_block",
    "singular_integral_frac_lap",
    "smooth_step",
    "frac_lap_constant",
]

#: zero-mean requirement for negative-order and Riesz symbols
_MEAN_TOL = 1e-12


# ---------------------------------------------------------------------------
# smooth cutoff profiles

def smooth_step(t):
    """C^inf step: 0 for t <= 0, 1 for t >= 1, strictly increasing between.

    Built from rho(t) = exp(-1/t); the usual construction
    rho(t) / (rho(t) + rho(1-t)).
    """
    t = np.asarray(t, dtype=float)
    num = _rho(t)
    den = num + _rho(1.0 - t)
    # den vanishes nowhere: at least one of t, 1-t is >= 1/2
    return num / den


def _rho(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def eta_profile(lam):
    """Low-pass cutoff: 1 on [0, 1], 0 on [2, inf), smooth between."""
    lam = np.asarray(lam, dtype=float)
    return smooth_step(2.0 - lam)


# ---------------------------------------------------------------------------
# multipliers

@dataclass(frozen=True)
class Multiplier:
    """Diagonal Fourier operator.

    ``symbol`` maps the tuple of broadcastable frequency meshes to the
    symbol array; it is never evaluated at the zero mode, whose value
    is pinned by ``zero_mode_value``.
    """

    symbol: Callable[..., np.ndarray]
    zero_mode_value: complex = 0.0
    name: str = ""


def _mirror(a: np.ndarray, axes: tuple) -> np.ndarray:
    """A copy of ``a`` with frequency m moved to -m along ``axes``:
    reversing an fft-ordered axis and rolling it by one does that."""
    return np.roll(np.flip(a, axes), 1, axes) if axes else a.copy()


def _symbol_on_grid(m: Multiplier, grid: GridSpec) -> np.ndarray:
    """The full complex symbol array, fft order, after the finiteness
    and Hermitian-symmetry checks."""
    name = m.name or "<anonymous>"
    # homogeneous symbols are singular at the origin; evaluate with the
    # warnings off, then pin the zero mode to its declared value
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sym = np.asarray(m.symbol(*grid.freq_mesh()), dtype=complex)
    sym = np.broadcast_to(sym, (grid.N,) * grid.n).copy()
    sym[(0,) * grid.n] = m.zero_mode_value
    if not np.all(np.isfinite(sym)):
        raise ConfigError(f"multiplier {name} not finite "
                          "on the resolved frequency grid")
    mirror = _mirror(sym, tuple(range(grid.n)))
    if not np.array_equal(np.conjugate(mirror, out=mirror), sym):
        raise NumericalGuardError(
            f"multiplier {name} lacks Hermitian symmetry: sym(-m) != "
            "conj(sym(m)) (an odd symbol must vanish on the unpaired "
            "Nyquist plane)")
    return sym


def apply_multiplier(f: SampledField, m: Multiplier) -> SampledField:
    """Apply a multiplier and return the real part.

    The symbol must carry the Hermitian symmetry of a real-kernel
    operator, sym(-m) = conj(sym(m)) on the whole frequency grid; on the
    unpaired Nyquist plane, its own mirror, that asks for a real symbol.
    The check is exact and independent of the data, so the imaginary
    part of the round trip is pure roundoff and is discarded.
    """
    # the product is formed in place, so at most two full complex
    # arrays are alive at once
    spectral = _symbol_on_grid(m, f.grid)
    spectral *= np.fft.fftn(f.values)
    out = np.fft.ifftn(spectral)
    return SampledField(f.grid, np.ascontiguousarray(out.real))


def _radial(mesh):
    return np.sqrt(sum(xi ** 2 for xi in mesh))


def _require_zero_mean(f: SampledField, what: str) -> None:
    """Raise ConfigError unless |mean| <= 1e-12 * sup|f|."""
    mean = abs(float(np.mean(f.values)))
    sup = float(np.max(np.abs(f.values)))
    if mean > _MEAN_TOL * max(sup, 1e-300):
        raise ConfigError(
            f"{what} needs a zero-mean field; "
            f"|mean| = {mean:.3e} exceeds 1e-12 * sup = {sup:.3e}")


def fractional_laplacian(f: SampledField, s: float) -> SampledField:
    """|xi|^s multiplier; the zero mode is annihilated.

    For s < 0 the input must be zero-mean (|mean| < 1e-12 * sup|f|),
    otherwise the inverse power is meaningless on the box.
    """
    if s < 0:
        _require_zero_mean(f, f"negative-order power s={s}")
    return apply_multiplier(f, _power_multiplier(s))


def _power_multiplier(s: float) -> Multiplier:
    return Multiplier(lambda *mesh: _radial(mesh) ** s, 0.0, f"|xi|^{s}")


def directional_multiplier(f: SampledField, s: float, axis: int) -> SampledField:
    """|xi_axis|^s with zero assigned on the plane xi_axis = 0.

    ``axis`` is 1-based; axis n is the normal direction.
    """
    n = f.grid.n
    if not 1 <= axis <= n:
        raise ConfigError(f"axis {axis} outside 1..{n}")

    def sym(*mesh):
        xi = mesh[axis - 1]
        mag = np.abs(xi)
        safe = np.where(mag > 0, mag, 1.0)
        out = np.where(mag > 0, safe ** s, 0.0)
        return np.broadcast_to(out, np.broadcast_shapes(*[m.shape for m in mesh]))

    return apply_multiplier(f, Multiplier(sym, 0.0, f"|xi_{axis}|^{s}"))


def _nyquist_safe_axis(grid: GridSpec, axis: int):
    """Frequency factor i*xi_axis with the unpaired Nyquist plane zeroed.

    The m = -N/2 mode has no +N/2 partner, so any odd symbol must
    vanish there to stay a real-kernel operator.  Band-resolved fields
    carry no energy on that plane and never notice.
    """
    xi = grid.freq_axis().copy()
    xi[grid.N // 2] = 0.0
    shape = [1] * grid.n
    shape[axis - 1] = grid.N
    return xi.reshape(shape)


def derivative_multiplier(grid: GridSpec, axis: int) -> Multiplier:
    """Spectral d/dx_axis (1-based axis)."""
    if not 1 <= axis <= grid.n:
        raise ConfigError(f"axis {axis} outside 1..{grid.n}")
    ixi = 1j * _nyquist_safe_axis(grid, axis)
    return Multiplier(lambda *mesh: ixi, 0.0, f"i xi_{axis}")


def riesz_transform(f: SampledField, k: int) -> SampledField:
    """k-th Riesz transform, symbol i xi_k / |xi|.

    Sign convention: with this symbol, R[cos(k x)] = -sin(k x).  The
    composition sum_k R_k^2 is minus the identity on zero-mean fields.
    """
    n = f.grid.n
    if not 1 <= k <= n:
        raise ConfigError(f"axis {k} outside 1..{n}")
    _require_zero_mean(f, "riesz transform")
    ixi = 1j * _nyquist_safe_axis(f.grid, k)

    def sym(*mesh):
        return ixi / _radial(mesh)

    return apply_multiplier(f, Multiplier(sym, 0.0, f"i xi_{k}/|xi|"))


def semigroup_symbol(f: SampledField, t: float, s: float) -> SampledField:
    """exp(-t |xi|^s); the zero mode rides along with value 1."""
    return apply_multiplier(f, _semigroup_multiplier(t, s))


def _semigroup_multiplier(t: float, s: float) -> Multiplier:
    if t < 0:
        raise ConfigError(f"semigroup time t={t} must be >= 0")
    return Multiplier(lambda *mesh: np.exp(-t * _radial(mesh) ** s), 1.0,
                      f"exp(-{t}|xi|^{s})")


# ---------------------------------------------------------------------------
# half-space transforms

@functools.lru_cache(maxsize=None)
def _half_twiddles(M: int):
    """exp(-i pi k / 2M) / 2 and exp(i pi k / 2M), k = 0..M-1, read-only.

    The 1/2 of the first belongs to the tangential pairing.
    """
    fwd = 0.5 * np.exp(-0.5j * np.pi * np.arange(M) / M)
    inv = 2.0 * np.conjugate(fwd)
    fwd.flags.writeable = inv.flags.writeable = False
    return fwd, inv


def _half_forward(values: np.ndarray, odd: bool) -> np.ndarray:
    """Tangential DFT times normal DCT-II of real half-grid samples.

    The DCT-II of length M = N/2 is the real part of the twiddled FFT of
    the even samples followed by the reversed odd ones.  With ``odd``
    the odd samples are negated too, and since DST-II(x)_(M-1-k) =
    DCT-II((-1)^j x)_k, coefficient k holds the sine mode M - k instead
    of the cosine mode k.  The tangential axes stay complex, so the
    real part pairs (m', k) with (-m', k).
    """
    M = values.shape[-1]
    v = np.empty(values.shape)
    v[..., :M // 2] = values[..., ::2]
    if odd:
        np.negative(values[..., ::-2], out=v[..., M // 2:])
    else:
        v[..., M // 2:] = values[..., ::-2]
    coef = np.fft.fftn(v)
    coef *= _half_twiddles(M)[0]
    out = _mirror(coef, tuple(range(coef.ndim - 1)))
    np.conjugate(out, out=out)
    out += coef
    return out


def _half_inverse(coef: np.ndarray, odd: bool) -> np.ndarray:
    """Inverse of :func:`_half_forward`: the real half-grid samples.

    Along the normal, the DCT-III of real coefficients X is the inverse
    FFT of conj(twiddle) (X_k - i X_(M-k)), with X_M = 0, unpermuted.
    """
    M = coef.shape[-1]
    z = np.empty_like(coef)
    z[..., 0] = coef[..., 0]
    np.multiply(coef[..., :0:-1], -1j, out=z[..., 1:])
    z[..., 1:] += coef[..., 1:]
    z *= _half_twiddles(M)[1]
    v = np.fft.ifftn(z).real
    out = np.empty(v.shape)
    out[..., ::2] = v[..., :M // 2]
    if odd:
        np.negative(v[..., :M // 2 - 1:-1], out=out[..., 1::2])
    else:
        out[..., 1::2] = v[..., :M // 2 - 1:-1]
    return out


def _normal_wavenumbers(grid: GridSpec, odd: bool) -> np.ndarray:
    """pi m / L in coefficient order: m = M - k for sine modes, k for
    cosine ones; the same values the box grid assigns to |xi_n|."""
    M = grid.N // 2
    xi = np.abs(grid.freq_axis()[:M + 1])
    return xi[M:0:-1] if odd else xi[:M]


def _half_mesh(grid: GridSpec, odd: bool) -> tuple:
    """The tangential frequency mesh with the normal wavenumbers of the
    sine (``odd``) or cosine modes on the last axis."""
    return grid.freq_mesh()[:-1] + (_normal_wavenumbers(grid, odd).reshape(
        (1,) * (grid.n - 1) + (-1,)),)


def _half_spectrum(values: np.ndarray, grid: GridSpec, odd: bool):
    """(coefficients, |xi|, power, inverse) of a real half-grid array.

    The power weighs |coef|^2 as Parseval weighs the extension's
    spectrum: coefficient 0 holds cosine mode 0 or sine mode M, which
    is unpaired, and every other coefficient stands for +-m on the box.
    """
    coef = _half_forward(values, odd)
    power = np.abs(coef) ** 2
    power[..., 1:] *= 2.0
    return (coef, _radial(_half_mesh(grid, odd)), power,
            functools.partial(_half_inverse, odd=odd))


def _half_symbol(m: Multiplier, grid: GridSpec, odd: bool) -> np.ndarray:
    """The symbol on the tangential frequencies times the normal modes,
    broadcastable to the coefficient shape, after the finiteness and
    the exact tangential Hermitian checks.

    Only the cosine modes hold the zero mode, and the symbol is
    broadcast into a full array only when its value there has to be
    pinned.  sym(-m', k) = conj(sym(m', k)) makes the operator's
    kernel real, so the round trip's imaginary part is roundoff; in 1-D
    it asks for a real symbol.
    """
    name = m.name or "<anonymous>"
    n = grid.n
    shape = (grid.N,) * (n - 1) + (grid.N // 2,)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sym = np.asarray(m.symbol(*_half_mesh(grid, odd)))
    zero = (0,) * n
    if not odd and np.broadcast_to(sym, shape)[zero] != m.zero_mode_value:
        sym = np.broadcast_to(sym, shape).astype(
            np.result_type(sym, m.zero_mode_value))
        sym[zero] = m.zero_mode_value
    if not np.all(np.isfinite(sym)):
        raise ConfigError(f"multiplier {name} not finite "
                          "on the resolved frequency grid")
    mirror = _mirror(sym, tuple(range(n - 1)))
    if not np.array_equal(np.conjugate(mirror, out=mirror), sym):
        raise NumericalGuardError(
            f"multiplier {name} lacks Hermitian symmetry: sym(-m', k) != "
            "conj(sym(m', k)) (an odd symbol must vanish on the unpaired "
            "Nyquist plane)")
    return sym


def _half_multiplier(values: np.ndarray, grid: GridSpec, m: Multiplier,
                     odd: bool) -> np.ndarray:
    """Apply ``m`` in the sine (``odd``) or cosine calculus."""
    sym = _half_symbol(m, grid, odd)
    coef = _half_forward(values, odd)
    coef *= sym
    return _half_inverse(coef, odd)


def _half_normal_derivative(values: np.ndarray, grid: GridSpec,
                            odd: bool) -> np.ndarray:
    """d/dx_n: sin(k x_n) -> k cos(k x_n) and cos(k x_n) -> -k sin(k x_n).

    Mode m is cosine coefficient m and sine coefficient M - m, so the
    map is the index reversal k -> M - k times +-pi m / L.  The sine
    mode M has no cosine partner on the grid and is dropped, as the
    unpaired Nyquist plane is on the box.
    """
    coef = _half_forward(values, odd)
    out = np.zeros_like(coef)
    k = _normal_wavenumbers(grid, not odd)[1:]
    np.multiply(coef[..., :0:-1], k if odd else -k, out=out[..., 1:])
    return _half_inverse(out, not odd)


# ---------------------------------------------------------------------------
# dyadic bank

#: the table hash samples eta on [0, 2] at this many intervals
_TABLE_SIZE = 2 ** 16


@dataclass(frozen=True, eq=False)
class DyadicBank:
    """Littlewood-Paley profiles tied to a grid's resolved band.

    Octaves j in [j_min, j_max] have their full band [2^(j-1), 2^(j+1)]
    inside the resolved frequency range of the grid.  ``table_hash``
    identifies the eta profile (and any fault-injection scaling) so that
    reports can pin the exact bank they were produced with.
    """

    j_min: int
    j_max: int
    table_hash: str
    phi0_scale: float = 1.0

    def psi(self, lam):
        """Inhomogeneous low-pass; psi + sum_{j>=1} phi_j = 1 on lam >= 0."""
        return eta_profile(lam)

    def phi0(self, lam):
        """eta(lam) - eta(2 lam), one smooth step per point of (1/2, 2)."""
        lam = np.asarray(lam, dtype=float)
        out = np.zeros_like(lam)
        inner = (lam > 0.5) & (lam <= 1.0)
        outer = (lam > 1.0) & (lam < 2.0)
        out[inner] = 1.0 - smooth_step(2.0 - 2.0 * lam[inner])
        out[outer] = smooth_step(2.0 - lam[outer])
        return self.phi0_scale * out

    def phi(self, j: int, lam):
        return self.phi0(np.asarray(lam, dtype=float) * 2.0 ** (-j))

    @property
    def octaves(self):
        return range(self.j_min, self.j_max + 1)


def _resolved_octaves(grid: GridSpec) -> tuple[int, int]:
    """(j_min, j_max): octaves whose band [2^(j-1), 2^(j+1)] lies inside
    the grid's resolved range [pi / L, pi / h]."""
    slop = 1e-9
    j_min = int(np.ceil(np.log2(np.pi / grid.L) + 1.0 - slop))
    j_max = int(np.floor(np.log2(np.pi / grid.h) - 1.0 + slop))
    return j_min, j_max


def _dyadic_blocks(fhat, lam, bank: DyadicBank, octaves, inverse):
    """Yield (j, real block) for each octave, one ``inverse`` transform
    at a time, so that no more than one block is held in memory."""
    for j in octaves:
        yield j, inverse(bank.phi(j, lam) * fhat)


def build_bank(grid: GridSpec, phi0_scale: float = 1.0) -> DyadicBank:
    """Build the bank for a grid, deriving the resolved octave range.

    ``phi0_scale`` exists for fault injection in the self-test; any
    value other than 1 deliberately breaks the partition of unity.
    """
    j_min, j_max = _resolved_octaves(grid)
    if j_max - j_min < 4:
        raise ConfigError(
            f"resolved band spans only {j_max - j_min} octaves "
            f"(j_min={j_min}, j_max={j_max}); increase N")
    digest = hashlib.sha256()
    digest.update(eta_profile(np.linspace(0.0, 2.0, _TABLE_SIZE + 1)).tobytes())
    digest.update(np.float64(phi0_scale).tobytes())
    return DyadicBank(j_min=j_min, j_max=j_max,
                      table_hash=digest.hexdigest()[:16],
                      phi0_scale=float(phi0_scale))


def dyadic_block(f: SampledField, j: int, bank: DyadicBank) -> SampledField:
    """Band-pass f to the j-th octave: multiplier phi_0(2^-j |xi|)."""
    if not bank.j_min <= j <= bank.j_max:
        raise ConfigError(
            f"octave j={j} outside resolved range [{bank.j_min}, {bank.j_max}]")
    _, block = next(_dyadic_blocks(np.fft.fftn(f.values),
                                   _radial(f.grid.freq_mesh()), bank, (j,),
                                   lambda a: np.fft.ifftn(a).real))
    return SampledField(f.grid, block)


# ---------------------------------------------------------------------------
# real-space fractional Laplacian, the independent route

def frac_lap_constant(s: float) -> float:
    """Normalization c_{1,s} = 2^s Gamma((1+s)/2) / (sqrt(pi) |Gamma(-s/2)|).

    At s = 0, 2, 4, ... Gamma(-s/2) has a pole and the constant takes its
    limit, 0.0.
    """
    if s >= 0 and s % 2 == 0:
        return 0.0
    return (2.0 ** s * math.gamma((1.0 + s) / 2.0)
            / (math.sqrt(math.pi) * abs(math.gamma(-s / 2.0))))


#: cells on each side treated by the symmetric Taylor window
_NEAR_CELLS = 3


def singular_integral_frac_lap(f: SampledField, s: float) -> SampledField:
    """Fractional Laplacian of order s in (0, 1) by real-space quadrature.

    Evaluates c_{1,s} * int (f(x) - f(y)) / |x - y|^(1+s) dy on a 1-D
    grid.  Cells beyond the near window use product integration (the
    kernel integrated exactly over each cell, f taken at the node); the
    symmetric near window of 3 cells per side is handled by a
    second-order Taylor correction; the tail outside the box takes
    f = 0 there, which is the usage contract for compactly supported
    test functions.

    This shares no code path with the spectral symbol and is the oracle
    against which |xi|^s is validated.
    """
    from scipy.signal import fftconvolve

    if f.grid.n != 1:
        raise ConfigError("real-space quadrature is 1-D only")
    if not 0.0 < s < 1.0:
        raise ConfigError(f"quadrature order s={s} outside (0, 1)")
    if not f.grid.stagger:
        raise ConfigError("real-space quadrature expects a staggered grid")

    g = f.grid
    h, N = g.h, g.N
    v = f.values
    K = _NEAR_CELLS

    # exact kernel mass of each whole cell at lattice distance d
    d = np.arange(K + 1, N, dtype=float)
    w = ((d - 0.5) ** (-s) - (d + 0.5) ** (-s)) / (s * h ** s)

    kern = np.zeros(2 * N - 1)
    kern[N - 1 + K + 1:] = w
    kern[:N - 1 - K] = w[::-1]
    conv_f = fftconvolve(v, kern, mode="same")
    conv_1 = fftconvolve(np.ones(N), kern, mode="same")

    # symmetric near window: - f''(x) / 2 * int_{|u|<=r} u^2 |u|^(-1-s) du
    vpp = np.zeros(N)
    vpp[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h ** 2
    vpp[0] = (v[1] - 2.0 * v[0]) / h ** 2          # f = 0 outside the box
    vpp[-1] = (v[-2] - 2.0 * v[-1]) / h ** 2
    r = (K + 0.5) * h
    near = -vpp * r ** (2.0 - s) / (2.0 - s)

    # analytic tail, f = 0 beyond the box edges
    x = g.axis_coords()
    tail_w = ((x + g.L) ** (-s) + (g.L - x) ** (-s)) / s
    out = frac_lap_constant(s) * (v * conv_1 - conv_f + near + v * tail_w)
    return SampledField(g, out)
