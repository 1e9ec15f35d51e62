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
private pair ``_half_forward``/``_half_inverse`` computes it, times a
tangential DFT, by one in-place ``numpy.fft.fftn`` or ``ifftn`` of
N^(n-1) N/4 points: the DCT-II is the FFT of permuted samples (Makhoul
1980), packed two real samples to a complex point.  The coefficients
are two contiguous halves along the normal, shape (2, *T, M/2) for
M = N/2, so the packed FFT, the mixing and the tangential pairing all
run on contiguous blocks.  A symbol that is not radial must be
Hermitian, exactly; one guard, ``_symbol``, checks it for
``apply_multiplier`` and the tangential derivative, on slices of the
symbol and their reversed views, with no mirrored copy.

The derivatives act on one axis each, and transform that axis alone:
``_half_normal_derivative`` runs the sine/cosine pair along the normal
on each normal line, and ``_half_tangential_derivative`` a DFT along
its tangential axis, two normal samples packed to a complex point,
with the symbol of ``derivative_multiplier``.  Each makes as many
transform points as the full pair.

This module alone reads and writes the half-space coefficients, their
modes, packing, halves and rows (the normal lines of single tangential
frequencies).  Other modules pass samples, modes or profiles of |xi|^2:
the derivatives apply themselves, ``_half_synthesis`` samples separable
modes, and ``_HalfSpectrum`` applies every other operator: its
``image`` an ``_Operator`` (power, flow or Bessel symbol) in place to a
spectrum used once, and its ``band`` a dyadic, low-pass or heat-flow
profile of a Besov pass to the spectrum the pass reuses.  A band profile
carries the radius from which it vanishes, and a band reaches only the
disk below it, held by the rows whose tangential |xi_t| is below it
and, in each row, the window of normal wavenumbers below it; the product
buffer is zero outside.  The octave profiles phi_j and psi are
tabulated on that window once per bank and grid, shared by the sine and
cosine coefficients and kept with the bank; the last operator's table,
on every coefficient, is kept too.  A table is bitwise the profile.
Any other profile, such as a heat node, is evaluated on every call a
block of rows at a time.  Of the field's size, a spectrum holds its
coefficients and, at p = 2 in a Besov pass, their weighted squares.

At p = 2 no norm needs the samples.  By Parseval, the squared
half-space L^2 norm of an image is a weighted sum of its squared
coefficients, and this module alone knows the weights:
``_HalfSpectrum.energy`` gives it for a band and ``image`` for an
operator, with no inverse transform and no BLAS call.
``_HalfSpectrum.leak_sums`` gives the two sums of the leak guard from
one weighted |coef|^2 per block of rows, or from the one a p = 2 pass
forms for its energies; |xi| is formed only on the rows and window of
the band.

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
frequency |xi|, the octave range a grid resolves, the octave profiles
``_Octave`` with their radii, the band of ``_HalfSpectrum`` that
filters a field by a profile on the half-length pair, and the octave
tables.  phi_j vanishes from |xi| = 2^(j+1) on, and the low-pass psi
from 2 on, so on the half-length pair each block touches only the disk
its annulus reaches.  On the box, ``dyadic_block``,
``fractional_laplacian`` and ``semigroup_symbol`` are
``apply_multiplier`` with an octave, power or flow as symbol; composed
with a parity extension and a restriction, that box route is the oracle.

A real-space quadrature for the fractional Laplacian at order
s in (0, 1) lives here too; it is the independent check that the
|xi|^s symbol is the operator it claims to be.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalGuardError
from .grid import GridSpec, SampledField

__all__ = [
    "Multiplier",
    "apply_multiplier",
    "fractional_laplacian",
    "derivative_multiplier",
    "semigroup_symbol",
    "DyadicBank",
    "build_bank",
    "dyadic_block",
    "singular_integral_frac_lap",
    "smooth_step",
    "eta_profile",
    "frac_lap_constant",
]

#: zero-mean requirement for negative-order symbols
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


def _pair_with_mirror(a: np.ndarray, axes: tuple) -> None:
    """a(m) += conj(a(-m)) along ``axes``, in place.  A copy of ``a``
    with frequency m moved to -m is the fft-ordered axes reversed and
    rolled by one; it is the one temporary, freed on return."""
    mirror = np.roll(np.flip(a, axes), 1, axes)
    a += np.conjugate(mirror, out=mirror)


def _is_hermitian(sym: np.ndarray, axes: tuple) -> bool:
    """Whether sym(-m) == conj(sym(m)) along ``axes``, exactly.

    Along an fft-ordered axis, m = 0 is its own mirror and m = 1.. N-1
    is the reversed m = N-1.. 1, so the array splits into 2^len(axes)
    blocks, each compared with its reversed view: no mirrored copy is
    made.  A real symbol skips the conjugate, and its block of m = 0 on
    every axis, its own mirror, is not compared at all.  An axis of
    length one, over which the symbol is constant, is its own mirror.
    """
    real = not np.iscomplexobj(sym)
    for tails in itertools.product((False, True), repeat=len(axes)):
        if real and not any(tails):
            continue
        here, there = [slice(None)] * sym.ndim, [slice(None)] * sym.ndim
        for ax, tail in zip(axes, tails):
            here[ax] = slice(1, None) if tail else slice(0, 1)
            there[ax] = slice(None, 0, -1) if tail else slice(0, 1)
        a, b = sym[tuple(here)], sym[tuple(there)]
        if not (np.array_equal(a, b) if real else
                np.array_equal(a.real, b.real)
                and np.array_equal(a.imag, np.negative(b.imag))):
            return False
    return True


def _symbol(m: Multiplier, mesh: tuple, shape: tuple, zero_mode: bool,
            axes: tuple) -> np.ndarray:
    """The symbol on ``mesh``, broadcastable to ``shape``, after the
    finiteness and the exact Hermitian checks along ``axes``.

    Homogeneous symbols are singular at the origin, so the symbol is
    evaluated with the warnings off.  With ``zero_mode`` the origin is
    pinned to its declared value, and the symbol is broadcast into a
    full array only when that changes it.  sym(-m) = conj(sym(m)) along
    ``axes`` makes the kernel real, so the imaginary part of a round
    trip is roundoff; on an unpaired Nyquist plane, its own mirror,
    that asks for a real symbol.
    """
    name = m.name or "<anonymous>"
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sym = np.asarray(m.symbol(*mesh))
    sym = sym[(None,) * (len(shape) - sym.ndim)]
    zero = (0,) * len(shape)
    if zero_mode and np.broadcast_to(sym, shape)[zero] != m.zero_mode_value:
        sym = np.broadcast_to(sym, shape).astype(
            np.result_type(sym, m.zero_mode_value))
        sym[zero] = m.zero_mode_value
    if not np.all(np.isfinite(sym)):
        raise ConfigError(f"multiplier {name} not finite "
                          "on the resolved frequency grid")
    if not _is_hermitian(sym, axes):
        raise NumericalGuardError(
            f"multiplier {name} lacks Hermitian symmetry: sym(-m) != "
            f"conj(sym(m)) along axes {axes} (an odd symbol must vanish "
            "on the unpaired Nyquist plane)")
    return sym


def apply_multiplier(f: SampledField, m: Multiplier) -> SampledField:
    """Apply a multiplier and return the real part.

    The symbol must carry the Hermitian symmetry of a real-kernel
    operator on the whole frequency grid; the check is exact and
    independent of the data.
    """
    grid = f.grid
    spectral = np.fft.fftn(f.values)
    spectral *= _symbol(m, grid.freq_mesh(), spectral.shape, True,
                        tuple(range(grid.n)))
    np.fft.ifftn(spectral, out=spectral)
    return SampledField(grid, np.ascontiguousarray(spectral.real))


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
    power = _Operator("power", s)
    return apply_multiplier(f, Multiplier(
        lambda *mesh: power(sum(xi ** 2 for xi in mesh)), 0.0, power.name))


def derivative_multiplier(grid: GridSpec, axis: int) -> Multiplier:
    """Spectral d/dx_axis (1-based axis).

    The m = -N/2 mode has no +N/2 partner, so the odd symbol i xi_axis
    vanishes on that plane to stay a real-kernel operator; band-resolved
    fields carry no energy there.  The symbol is built from the mesh it
    is given, so it serves any layout whose mesh holds xi_axis at
    position axis - 1.
    """
    if not 1 <= axis <= grid.n:
        raise ConfigError(f"axis {axis} outside 1..{grid.n}")
    nyquist = grid.freq_axis()[grid.N // 2]

    def symbol(*mesh):
        xi = mesh[axis - 1]
        return np.where(xi == nyquist, 0.0, 1j * xi)

    return Multiplier(symbol, 0.0, f"i xi_{axis}")


def semigroup_symbol(f: SampledField, t: float, s: float) -> SampledField:
    """exp(-t |xi|^s); the zero mode rides along with value 1."""
    flow = _Operator("flow", s, t)
    return apply_multiplier(f, Multiplier(
        lambda *mesh: flow(sum(xi ** 2 for xi in mesh)), 1.0, flow.name))


@dataclass(frozen=True)
class _Operator:
    """An operator of the calculus as a profile of |xi|^2: the ``power``
    |xi|^s, 0 at the zero mode for every s, s = 0 included, so that it
    annihilates the mean of a Neumann field; the ``flow`` exp(-t
    |xi|^s), 1 there; or the ``bessel`` symbol (1 + |xi|^2)^(s/2) of
    the inhomogeneous Sobolev norm.  It vanishes nowhere, and a value
    that is not finite is a ConfigError."""

    kind: str
    s: float
    t: float = 0.0

    def __post_init__(self):
        if self.t < 0:
            raise ConfigError(f"semigroup time t={self.t} must be >= 0")

    @property
    def name(self) -> str:
        return {"power": f"|xi|^{self.s}",
                "flow": f"exp(-{self.t}|xi|^{self.s})",
                "bessel": f"(1+|xi|^2)^{self.s / 2}"}[self.kind]

    def __call__(self, lam2):
        # homogeneous symbols are singular at the origin
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self.kind == "bessel":
                out = (1.0 + lam2) ** (self.s / 2.0)
            elif self.kind == "flow":
                out = np.exp(-self.t * np.sqrt(lam2) ** self.s)
            else:
                out = np.sqrt(lam2) ** self.s
                if self.s <= 0:     # 0^s is 0 already for s > 0
                    out[lam2 == 0.0] = 0.0
        if not np.all(np.isfinite(out)):
            raise ConfigError(f"multiplier {self.name} not finite "
                              "on the resolved frequency grid")
        return out


# ---------------------------------------------------------------------------
# half-space transforms

@functools.lru_cache(maxsize=None)
def _half_twiddles(M: int):
    """The read-only constants of the length-M pair, k < h = M/2.

    With W_k = exp(-i pi k / 2M), w = exp(-2 pi i / M), e = W_h =
    exp(-i pi / 4), a = W_k (1 - i w^k) / 4 and b = W_k (1 + i w^k) / 4:
    the forward's a, e b, conj(b) and conj(e a), and the inverse's
    alpha = 2 conj(a) and beta = 2 conj(e b).  The forward's 1/4 is the
    1/2 of the even and odd split times the 1/2 of the tangential
    pairing.
    """
    h = M // 2
    W = np.exp(-0.5j * np.pi * np.arange(M) / M)
    iw = 1j * np.exp(-2j * np.pi * np.arange(h) / M)
    a, b, e = 0.25 * W[:h] * (1.0 - iw), 0.25 * W[:h] * (1.0 + iw), W[h]
    out = (a, e * b, np.conjugate(b), np.conjugate(e * a),
           2.0 * np.conjugate(a), 2.0 * np.conjugate(e * b))
    for c in out:
        c.flags.writeable = False
    return out


def _times_reversed(a: np.ndarray, c: np.ndarray, out: np.ndarray) -> None:
    """out = c a(-k) along the last axis, k taken modulo its length."""
    np.multiply(a[..., :1], c[:1], out=out[..., :1])
    np.multiply(a[..., :0:-1], c[1:], out=out[..., 1:])


def _half_forward(values: np.ndarray, odd: bool,
                  tangential: bool = True) -> np.ndarray:
    """Tangential DFT times normal DCT-II of real half-grid samples.

    The DCT-II of length M = N/2 is the real part of W_k U_k, with U the
    FFT of the even samples followed by the reversed odd ones.  With
    ``odd`` the odd samples are negated too, and since DST-II(x)_(M-1-k)
    = DCT-II((-1)^j x)_k, coefficient k holds the sine mode M - k
    instead of the cosine mode k.  The tangential axes stay complex, so
    the real part pairs (m', k) with (-m', k): X = P + conj P(-m', k).

    The permuted samples u are packed two to a complex point, z_j =
    u_2j + i u_(2j+1), so that one FFT of length h = M/2 yields Z.  Its
    even and odd parts (Z + Zc)/2 and (Z - Zc)/2i, with Zc(m) = conj
    Z(-m) over all axes, give U_k and U_(k+h) by one butterfly with w^k.
    The pairing supplies the conjugates, so P needs only Z(m', -k):
    P_k = a Z_k + conj(b) Z_-k and P_(k+h) = e b Z_k + conj(e a) Z_-k,
    with the constants of ``_half_twiddles``.  In 1-D the pairing is
    twice the real part, so the coefficients are exactly real.

    The coefficients are returned as two contiguous halves, shape
    (2, *T, h): coefficient k < h in the first, k >= h in the second at
    k - h.  The packed samples fill the first half; the FFT, the mixing
    into both halves and the pairing each run in place on contiguous
    blocks, with one temporary at a time.  Without ``tangential`` the
    tangential axes are a batch of normal lines, transformed and paired
    as in 1-D: the coefficients of the normal transform alone, real.
    """
    M = values.shape[-1]
    h = M // 2
    a, eb, b_conj, ea_conj = _half_twiddles(M)[:4]
    coef = np.empty((2,) + values.shape[:-1] + (h,), dtype=complex)
    lo, hi = coef
    u = lo.view(float)
    u[..., :h] = values[..., ::2]
    if odd:
        np.negative(values[..., ::-2], out=u[..., h:])
    else:
        u[..., h:] = values[..., ::-2]
    np.fft.fftn(lo, axes=None if tangential else (-1,), out=lo)
    tmp = np.multiply(lo, eb)
    _times_reversed(lo, ea_conj, out=hi)
    hi += tmp
    _times_reversed(lo, b_conj, out=tmp)
    lo *= a
    lo += tmp
    del tmp
    if tangential and coef.ndim > 2:
        for half in coef:
            _pair_with_mirror(half, tuple(range(half.ndim - 1)))
    else:
        coef.real *= 2.0
        coef.imag = 0.0
    return coef


def _packed_spectrum(coef: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The spectrum Z of the packed samples, formed in place in the
    first half of ``coef`` and returned as that view.

    Along the normal, the DCT-III of real coefficients X is the inverse
    FFT of U_k = conj(W_k) (X_k - i X_(M-k)), with X_M = 0, unpermuted.
    Only the spectrum of the packed samples is formed, for k < h:

        Z_k = alpha (X_k - i X_(M-k)) + beta (X_(k+h) - i X_(h-k)),

    the even part (U_k + U_(k+h))/2 plus i times the odd part (U_k -
    U_(k+h))/2w^k.  With the halves lo and hi of ``coef``, X_(k+h) is
    hi_k, X_(M-k) is hi_(h-k), and X_(h-k) is hi_0 at k = 0 and lo_(h-k)
    beyond.  The mixing acts along the normal alone, row by row.
    ``scratch``, a complex array of Z's shape, holds the beta term.
    """
    lo, hi = coef
    alpha, beta = _half_twiddles(2 * lo.shape[-1])[4:]
    r = scratch
    np.multiply(hi[..., :1], -1j, out=r[..., :1])
    np.multiply(lo[..., :0:-1], -1j, out=r[..., 1:])
    r += hi
    r *= beta
    # hi is not read again, so -i X_(M-k) is formed in place
    hi *= -1j
    lo[..., 1:] += hi[..., :0:-1]
    lo *= alpha
    lo += r
    return lo


def _unpacked(z: np.ndarray, odd: bool, out: np.ndarray) -> np.ndarray:
    """``out`` filled with the samples whose packed values are the
    inverse FFT ``z``: its interleaved real and imaginary parts are the
    permuted samples."""
    u = z.view(float)
    h = u.shape[-1] // 2
    out[..., ::2] = u[..., :h]
    if odd:
        np.negative(u[..., :h - 1:-1], out=out[..., 1::2])
    else:
        out[..., 1::2] = u[..., :h - 1:-1]
    return out


def _half_inverse(coef: np.ndarray, odd: bool,
                  tangential: bool = True) -> np.ndarray:
    """Inverse of :func:`_half_forward`: the real half-grid samples.

    ``coef`` is the work buffer and is overwritten: the packed spectrum
    is formed in its first half, where the inverse FFT runs in place.
    Callers pass a temporary, such as the product of a symbol and the
    coefficients.  The memory of the real output holds the beta term
    until the transform is done.
    """
    out = np.empty(coef.shape[1:-1] + (2 * coef.shape[-1],))
    z = _packed_spectrum(coef, out.view(complex))
    np.fft.ifftn(z, axes=None if tangential else (-1,), out=z)
    return _unpacked(z, odd, out)


def _half_inverse_rows(coef: np.ndarray, rows: np.ndarray, shape: tuple,
                       odd: bool) -> np.ndarray:
    """:func:`_half_inverse` of coefficients that vanish off some rows.

    A row is the normal line of one tangential frequency, two contiguous
    pieces, one in each half.  ``coef``, shape (2, len(rows), h), has
    one row for each of the flat indices ``rows``, ascending over the
    tangential axes of the half-grid ``shape``, and every other row is
    zero.  The mixing and the normal-axis inverse FFT run on those rows
    alone, which are then scattered into one zeroed buffer of packed
    points for the inverse FFT over the tangential axes.  numpy
    transforms the last axis first, so the split is the same transform.
    With every row, or in 1-D, it is :func:`_half_inverse`, and
    ``rows`` is not read.  ``coef`` is overwritten.
    """
    h = shape[-1] // 2
    if coef.shape[1] == math.prod(shape[:-1]):
        return _half_inverse(coef.reshape((2,) + shape[:-1] + (h,)), odd)
    out = np.empty(shape)
    z = _packed_spectrum(coef,
                         out.view(complex).reshape(-1, h)[:coef.shape[1]])
    np.fft.ifftn(z, axes=(-1,), out=z)
    buf = np.zeros(shape[:-1] + (h,), dtype=complex)
    buf.reshape(-1, h)[rows] = z
    np.fft.ifftn(buf, axes=tuple(range(len(shape) - 1)), out=buf)
    return _unpacked(buf, odd, out)


def _by_rows(a: np.ndarray) -> np.ndarray:
    """``a``, shaped as the coefficients (2, *T, M/2), viewed as
    (2, rows, M/2): row r is a[:, r], one contiguous piece per half."""
    return a.reshape(2, -1, a.shape[-1])


def _half_synthesis(grid: GridSpec, odd: bool, modes) -> np.ndarray:
    """The real half-grid samples of a sum of separable modes.

    A mode (m, amp, tangential) is amp sin|cos(pi m x_n / L), sine when
    ``odd``, times cos(pi m_t x / L + phase) for each (m_t, phase) of
    ``tangential``, one per tangential axis, 0 < m_t < N/2; no two modes
    share m.  Sine mode m is coefficient M - m (M = N/2), cosine mode m
    is coefficient m, of value amp M/2; a tangential factor is the DFT
    pair +-m_t of c N/2 and conj(c) N/2, c = exp(i (phase - pi m_t +
    pi m_t / N)) on the staggered grid.
    """
    shape = grid.shape(half=True)
    N, M = grid.N, shape[-1]
    h = M // 2
    top = max((m_t for *_, tangential in modes for m_t, _ in tangential),
              default=0)
    # only the rows |m_t| <= top are filled and transformed; in fft order
    # along each axis they are the modes 0..top and -top..-1
    low = np.abs(np.fft.fftfreq(N, 1.0 / N)) <= top
    rows = np.flatnonzero(functools.reduce(np.logical_and.outer,
                                           [low] * (grid.n - 1), True))
    K = np.count_nonzero(low)
    coef = np.zeros((2,) + (K,) * (grid.n - 1) + (h,), dtype=complex)
    for m, amp, tangential in modes:
        factors = []
        for m_t, phase in tangential:
            c = np.exp(1j * (phase - np.pi * m_t + np.pi * m_t / N))
            t = np.zeros(K, dtype=complex)
            t[m_t], t[-m_t] = c * N / 2, np.conjugate(c) * N / 2
            factors.append(t)
        half, k = divmod(M - m if odd else m, h)
        coef[half, ..., k] = functools.reduce(np.multiply.outer, factors,
                                              amp * M / 2)
    return _half_inverse_rows(_by_rows(coef), rows, shape, odd)


def _normal_wavenumbers(xi: np.ndarray, odd: bool) -> np.ndarray:
    """pi m / L in coefficient order along the last axis of the box
    frequencies ``xi``: m = M - k for sine modes, k for cosine ones;
    the same values the box grid assigns to |xi_n|."""
    M = xi.shape[-1] // 2
    xi = np.abs(xi[..., :M + 1])
    return xi[..., M:0:-1] if odd else xi[..., :M]


def _half_mesh(grid: GridSpec, odd: bool) -> tuple:
    """The tangential frequency mesh with the normal wavenumbers of the
    sine (``odd``) or cosine modes, in the two halves of the
    coefficients: shape (2, 1, ..., 1, M/2)."""
    mesh = grid.freq_mesh()
    k = _normal_wavenumbers(mesh[-1], odd)
    return mesh[:-1] + (k.reshape((2,) + k.shape[:-1] + (k.shape[-1] // 2,)),)


def _parseval_power(coef: np.ndarray) -> np.ndarray:
    """|coef|^2 weighted as Parseval weighs the extension's spectrum,
    for coefficients shaped (2, ..., M/2): coefficient 0 holds cosine
    mode 0 or sine mode M, which is unpaired, and every other
    coefficient stands for +-m on the box.  |coef|^2 is the sum of the
    squared real and imaginary parts, with no hypot."""
    power = np.square(coef.real)
    power += np.square(coef.imag)
    power[1] *= 2.0
    power[0, ..., 1:] *= 2.0
    return power


def _slice_of(mask: np.ndarray) -> slice:
    """The slice of the True entries of a mask that holds one run of
    them, or an empty slice."""
    hits = np.flatnonzero(mask)
    return slice(hits[0], hits[-1] + 1) if hits.size else slice(0, 0)


def _halves(window: tuple, weights: np.ndarray):
    """(half, slice, columns of ``weights``) for each half of the
    coefficients: the window's two slices lie side by side in
    ``weights``."""
    width = window[0].stop - window[0].start
    return zip((0, 1), window, (weights[:, :width], weights[:, width:]))


#: |xi| is formed a block of rows at a time, of about this many bytes
_BLOCK_BYTES = 2 ** 20


class _HalfSpectrum:
    """The sine (``odd``) or cosine coefficients of a real half-grid
    array, for an operator's image or a Besov pass.

    Of the field's size it holds ``coef`` and, once a p = 2 pass has
    read it, ``power``, the weighted |coef|^2 of
    :func:`_parseval_power`.

    A profile is a function of |xi|^2 that vanishes from |xi| =
    ``profile.radius`` on, so it reaches only the disk below the radius.
    Since |xi| >= |xi_t| and |xi| >= k, that disk lies in the rows whose
    tangential |xi_t| is below the radius and, within each row, in the
    window of normal wavenumbers k below it: a prefix of the cosine
    modes or a suffix of the sine modes, one slice in each half.
    ``band(profile)`` is the field of profile(|xi|^2) coef, its product
    buffer zero outside the window and transformed on those rows alone
    by :func:`_half_inverse_rows`.  ``energy(profile)`` is its squared
    half-space L^2 norm by Parseval, from ``power``, with no inverse
    transform.

    The weights of an :class:`_Octave` on the rows and the normal modes
    below its radius are tabulated once per bank and grid, shared by
    both parities and kept with the bank, and those of an operator on
    every coefficient, the last operator's kept; any other profile is
    evaluated on every call a block of rows (about ``_BLOCK_BYTES``) at
    a time.  All form |xi|^2 from the squared tangential |xi_t| of each
    row and the squared normal wavenumbers, formed on first use and
    added in the order of the box multipliers' sum, so a table is
    bitwise the profile of the full |xi|^2 on the box.

    ``leak_sums(low, high)`` are the two energies of the leak guard, by
    one weighted |coef|^2 per block of rows, or from ``power`` at p = 2.
    """

    def __init__(self, values: np.ndarray, grid: GridSpec, odd: bool):
        self.values = values
        self.grid = grid
        self.shape = values.shape
        self.odd = odd
        # the Parseval weight: the cell volume h^n over the N^(n-1) N/2
        # points of the unnormalized transform
        self.scale = grid.cell_volume / math.prod(values.shape)

    @functools.cached_property
    def coef(self) -> np.ndarray:
        return _half_forward(self.values, self.odd)

    @functools.cached_property
    def power(self) -> np.ndarray:
        return _parseval_power(self.coef)

    @functools.cached_property
    def _radii2(self) -> tuple:
        """The squared tangential |xi_t| of each row and the squared
        normal wavenumbers of the coefficients, one row per half: formed
        on first use, which an operator whose table is kept does not
        make, as are their roots."""
        *mesh, k = _half_mesh(self.grid, self.odd)
        return (np.ravel(sum((xi ** 2 for xi in mesh), np.zeros(1))),
                (k ** 2).reshape(2, -1))

    tangential2 = property(lambda self: self._radii2[0])
    normal2 = property(lambda self: self._radii2[1])
    tangential = functools.cached_property(
        lambda self: np.sqrt(self.tangential2))
    normal = functools.cached_property(lambda self: np.sqrt(self.normal2))

    def _disk(self, radius: float) -> tuple:
        """(rows, window) that hold the disk |xi| < ``radius``: the flat
        indices of the rows below it, or None for every row, and the
        slices of the two halves whose wavenumbers are below it."""
        rows = np.flatnonzero(self.tangential < radius)
        window = tuple(_slice_of(k < radius) for k in self.normal)
        return (None if rows.size == self.tangential.size else rows), window

    def _blocks(self, rows, width: int):
        """Yield (span, picked) for each block of ``rows`` (None for every
        row), ``width`` coefficients wide: ``span`` slices the block's
        positions in ``rows`` and ``picked`` indexes its rows as
        :func:`_by_rows` lays them out."""
        count = math.prod(self.shape[:-1]) if rows is None else rows.size
        step = max(1, _BLOCK_BYTES // (8 * max(width, 1)))
        for start in range(0, count, step):
            span = slice(start, min(start + step, count))
            yield span, span if rows is None else rows[span]

    def _normal2_on(self, window: tuple) -> np.ndarray:
        """The squared normal wavenumbers of ``window``, its two slices
        side by side."""
        return np.concatenate([k2[w] for k2, w in zip(self.normal2, window)])

    def _weights(self, profile, rows, window: tuple):
        """Yield (span, picked, weights) for each block of rows, the
        profile on the window, its two slices side by side."""
        normal2 = self._normal2_on(window)
        table = None
        if isinstance(profile, _Octave):
            table = self._table(profile, rows)
            # cosine coefficient m holds mode m, sine coefficient M - m
            table = table[:, :0:-1] if self.odd else table[:, :normal2.size]
        for span, picked in self._blocks(rows, normal2.size):
            yield span, picked, (
                table[span] if table is not None
                else profile(self.tangential2[picked, None] + normal2))

    def _table(self, octave, rows) -> np.ndarray:
        """The weights of ``octave`` on its rows and on the normal modes
        m = 0, 1, ... whose wavenumber is below its radius, in mode
        order and read-only, which the sine and cosine coefficients
        share: from the bank's tables, or built block by block and kept
        there."""
        tables = _TABLES.setdefault(octave.bank, {})
        key = (self.grid, octave.j)
        table = tables.get(key)
        if table is None:
            normal = self.grid.freq_mesh()[-1].ravel()
            modes2 = np.abs(normal[:self.shape[-1] + 1]) ** 2
            modes2 = modes2[np.sqrt(modes2) < octave.radius]
            count = self.tangential.size if rows is None else rows.size
            table = np.empty((count, modes2.size))
            for span, picked in self._blocks(rows, modes2.size):
                table[span] = octave(self.tangential2[picked, None] + modes2)
            table.flags.writeable = False
            tables[key] = table
        return table

    def _operator_table(self, operator) -> np.ndarray:
        """The weights of ``operator``, a profile that vanishes nowhere,
        on every coefficient, laid out as the coefficients and read-only:
        the table of the last operator, grid and parity, or one built a
        block of rows at a time in its place."""
        key = (self.grid, self.odd, operator)
        table = _OPERATOR_TABLE.get(key)
        if table is None:
            _OPERATOR_TABLE.clear()     # one operator table at most is held
            table = np.empty((2,) + self.shape[:-1] + (self.shape[-1] // 2,))
            rows = _by_rows(table)
            for span, _ in self._blocks(None, 2 * rows.shape[-1]):
                rows[:, span] = operator(self.tangential2[span, None]
                                         + self.normal2[:, None])
            table.flags.writeable = False
            _OPERATOR_TABLE[key] = table
        return table

    def image(self, operator, energy: bool = False):
        """The image of ``operator``, formed in ``coef`` itself, so that
        the spectrum serves this one image: its samples, by the inverse
        transform, which overwrites ``coef``, or with ``energy`` their
        squared half-space L^2 norm by Parseval, one
        :func:`_parseval_power` per block of rows."""
        # tabulated before the coefficients are formed: a miss then frees
        # its temporaries before the transform allocates
        table = self._operator_table(operator)
        self.coef *= table
        if not energy:
            return _half_inverse(self.coef, self.odd)
        coef = _by_rows(self.coef)
        return self.scale * sum(
            float(_parseval_power(coef[:, span]).sum())
            for span, _ in self._blocks(None, 2 * coef.shape[-1]))

    def band(self, profile) -> np.ndarray:
        rows, window = self._disk(profile.radius)
        coef = _by_rows(self.coef)
        count = coef.shape[1] if rows is None else rows.size
        product = np.zeros((2, count, coef.shape[-1]), dtype=complex)
        for span, picked, weights in self._weights(profile, rows, window):
            for half, cols, w in _halves(window, weights):
                np.multiply(w, coef[half, picked, cols],
                            out=product[half, span, cols])
        return _half_inverse_rows(product, rows, self.shape, self.odd)

    def energy(self, profile) -> float:
        rows, window = self._disk(profile.radius)
        power = _by_rows(self.power)
        total = 0.0
        for _, picked, weights in self._weights(profile, rows, window):
            for half, cols, w in _halves(window, weights):
                product = np.square(w)
                product *= power[half, picked, cols]
                total += float(np.sum(product))
        return self.scale * total

    def leak_sums(self, low: float, high: float,
                  from_power: bool = False) -> tuple:
        """(the energy at |xi| > 0, the energy at |xi| > ``high`` or 0 <
        |xi| < ``low``), with ``low`` <= ``high``, by Parseval.

        Each block of rows forms its weighted |coef|^2 once, or reads it
        from ``power`` with ``from_power``.  Every coefficient outside
        the rows and window of the closed disk |xi| <= ``high`` is out
        of band whole, so |xi| is formed only on them.  The one
        coefficient at |xi| = 0 is the cosine mode (0, ..., 0), the
        first of the first half, and is left out of both sums.
        """
        near = self.tangential <= high
        window = tuple(_slice_of(k <= high) for k in self.normal)
        normal2 = self._normal2_on(window)
        source = _by_rows(self.power if from_power else self.coef)
        total = outside = 0.0
        for span, _ in self._blocks(None, 2 * source.shape[-1]):
            block = (source[:, span] if from_power
                     else _parseval_power(source[:, span]))
            inner = near[span]
            beyond = float(np.sum(block, where=~inner[:, None]))
            lam = self.tangential2[span][inner, None] + normal2
            np.sqrt(lam, out=lam)
            for half, cols, r in _halves(window, lam):
                part = block[half][inner]
                if half == 0 and span.start == 0 and not self.odd:
                    part[0, 0] = 0.0    # the cosine mode (0, ..., 0)
                rest = (slice(cols.stop, None) if cols.start == 0
                        else slice(0, cols.start))
                beyond += float(np.sum(part[:, rest]))
                total += float(np.sum(part[:, cols]))
                outside += float(np.sum(part[:, cols],
                                        where=(r > high) | (r < low)))
            total += beyond
            outside += beyond
        return total, outside


def _half_normal_derivative(values: np.ndarray, grid: GridSpec,
                            odd: bool) -> np.ndarray:
    """d/dx_n: sin(k x_n) -> k cos(k x_n) and cos(k x_n) -> -k sin(k x_n).

    The derivative acts along the normal alone, so it runs on each
    normal line by itself: the normal transform of a batch of lines,
    with no tangential FFT or pairing.  Mode m is cosine coefficient m
    and sine coefficient M - m, so the map is the index reversal
    k -> M - k times +-pi m / L.  The sine mode M has no cosine partner
    on the grid and is dropped, as the unpaired Nyquist plane is on the
    box.  The reversal swaps the pairs k = 1..h-1 and M - k, which lie
    in the first and the second half, in place; k = 0 and h are
    unpaired.
    """
    coef = _half_forward(values, odd, tangential=False)
    lo, hi = coef
    h = lo.shape[-1]
    k = _normal_wavenumbers(grid.freq_mesh()[-1], not odd).ravel()
    if not odd:
        k = -k
    pair = hi[..., :0:-1]
    swapped = lo[..., 1:] * k[:h:-1]
    np.multiply(pair, k[1:h], out=lo[..., 1:])
    pair[...] = swapped
    del swapped
    hi[..., 0] *= k[h]
    lo[..., 0] = 0.0
    return _half_inverse(coef, not odd, tangential=False)


def _half_tangential_derivative(values: np.ndarray, grid: GridSpec,
                                axis: int) -> np.ndarray:
    """d/dx_axis along a tangential axis (1-based), in either calculus.

    The derivative acts along that axis alone, so it is a DFT of every
    line along it, times the symbol of :func:`derivative_multiplier`
    after its guard, and the inverse DFT.  The samples v are packed two
    normal neighbours to a complex point, z_j = v_2j + i v_(2j+1), so
    the pair runs on N^(n-1) N/4 points; the real kernel maps each part
    to its own derivative, and the transformed buffer, read as reals,
    is the output.
    """
    out = np.array(values, dtype=float, order="C")
    z = out.view(complex)
    axes = (axis - 1,)
    np.fft.fftn(z, axes=axes, out=z)
    z *= _symbol(derivative_multiplier(grid, axis), grid.freq_mesh(),
                 z.shape, False, axes)
    np.fft.ifftn(z, axes=axes, out=z)
    return out


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


@dataclass(frozen=True)
class _Octave:
    """phi_j of ``bank``, or its low-pass psi for j None, as a profile of
    |xi|^2 that vanishes from |xi| = ``radius`` on: 2^(j+1), or 2 for
    psi.  The half spectrum tabulates it once per bank and grid."""

    bank: DyadicBank
    j: int | None = None

    @property
    def radius(self) -> float:
        return 2.0 if self.j is None else 2.0 ** (self.j + 1)

    def __call__(self, lam2):
        lam = np.sqrt(lam2)
        if self.j is None:
            return self.bank.psi(lam)
        return self.bank.phi(self.j, lam)


#: the half spectrum's octave tables, {bank: {(grid, j): weights}},
#: dropped with their bank
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

#: the last operator's table, {(grid, odd, operator): weights}
_OPERATOR_TABLE: dict = {}


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
    octave = _Octave(bank, j)
    return apply_multiplier(f, Multiplier(
        lambda *mesh: octave(sum(xi ** 2 for xi in mesh)), 0.0, f"phi_{j}"))


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
