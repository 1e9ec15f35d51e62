"""Periodic grids, sampled fields and half-space fields.

The computational domain is the periodic box [-L, L)^n standing in for
R^n.  Axis n (the last array axis) is the distinguished "normal"
direction; the half-space is {x_n > 0}.  The grid is always staggered:
every axis is sampled at cell midpoints x = -L + (k + 1/2) h, so no
sample lies on the reflection hyperplane x_n = 0 and the map x -> -x
permutes the sample set exactly.  That choice is what makes the odd/even
extensions in :mod:`halfspace_spectral.extension` involutions rather
than approximations.

Usage contract: fields meant to model objects on R^n should be
supported in the central half of the box (|x_i| <= L/2) so that
periodization error stays below 1e-10.  Exactly band-limited fields are
native to the box and exempt.  Nothing enforces this; the spectral leak
guards downstream catch the worst offenders.

``GridSpec`` is the one check of a grid and the one owner of its
layout: every module reads a field's array shape (``shape``), its cell
volume h^n (``cell_volume``) and its coordinates and frequencies from
it, never from N, n and h.  The boundary tags and their one rule live
here too: every module reads which calculus a field runs in through
``_bc_guard``, and the tag of a normal derivative through ``_BC_SWAP``.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryTagError, ConfigError

__all__ = [
    "BC_DIRICHLET",
    "BC_NEUMANN",
    "GridSpec",
    "SampledField",
    "HalfField",
    "make_grid",
    "sample",
    "sample_half",
    "lp_norm",
    "integrate",
    "save_field",
    "load_field",
]

#: boundary-condition tags carried by half-space fields
BC_DIRICHLET = "dirichlet"
BC_NEUMANN = "neumann"
_BC_CODES = {None: 0, BC_DIRICHLET: 1, BC_NEUMANN: 2}
_BC_FROM_CODE = {v: k for k, v in _BC_CODES.items()}
#: the normal derivative maps each calculus to the other
_BC_SWAP = {BC_DIRICHLET: BC_NEUMANN, BC_NEUMANN: BC_DIRICHLET}


@dataclass(frozen=True)
class GridSpec:
    """Isotropic periodic grid on [-L, L)^n with N points per axis,
    always staggered: samples sit at cell midpoints.  Integer n and N of
    any integer type are kept as Python ints; nothing else is cast."""

    n: int
    L: float
    N: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or not 1 <= self.n <= 3:
            raise ConfigError(f"dimension n={self.n!r} not an integer in 1..3")
        if not (self.L > 0 and np.isfinite(self.L)):
            raise ConfigError(f"box half-width L={self.L} must be positive and finite")
        N = self.N
        if not isinstance(N, (int, np.integer)) or N < 8 or N & (N - 1):
            raise ConfigError(f"N={N!r} must be a power of two >= 8")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "N", int(N))

    @property
    def h(self) -> float:
        """Mesh width 2L/N."""
        return 2.0 * self.L / self.N

    @property
    def cell_volume(self) -> float:
        """h^n, the midpoint-rule weight of one sample."""
        return self.h ** self.n

    def shape(self, half: bool = False) -> tuple:
        """Array shape of a field on the box, or on the half-grid x_n > 0
        (``half``): N along every axis but the normal one of a half."""
        return (self.N,) * (self.n - 1) + (self.N // 2 if half else self.N,)

    def axis_coords(self) -> np.ndarray:
        """Sample coordinates along one axis (all axes are identical)."""
        return -self.L + (np.arange(self.N) + 0.5) * self.h

    def half_coords(self) -> np.ndarray:
        """Coordinates of the x_n > 0 samples, increasing."""
        return self.coord_mesh(half=True)[-1].ravel()

    def freq_axis(self) -> np.ndarray:
        """Angular frequencies resolved along one axis (fft order)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.h)

    def freq_mesh(self):
        """Tuple of n broadcastable frequency arrays in fft order."""
        xi = self.freq_axis()
        out = []
        for ax in range(self.n):
            shape = [1] * self.n
            shape[ax] = self.N
            out.append(xi.reshape(shape))
        return tuple(out)

    def coord_mesh(self, half: bool = False):
        """Tuple of n broadcastable coordinate arrays, on the half-grid
        when ``half``: an axis of M points keeps the last M samples."""
        x = self.axis_coords()
        out = []
        for ax, size in enumerate(self.shape(half)):
            shape = [1] * self.n
            shape[ax] = size
            out.append(x[self.N - size:].reshape(shape))
        return tuple(out)


@dataclass(frozen=True)
class SampledField:
    """Real field sampled on the full periodic box."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        expect = self.grid.shape()
        if self.values.shape != expect:
            raise ConfigError(
                f"full-grid values shape {self.values.shape}, expected {expect}")

    def with_values(self, values: np.ndarray) -> "SampledField":
        return SampledField(self.grid, values)


@dataclass(frozen=True)
class HalfField:
    """Field on the half-grid {x_n > 0}, optionally tagged with the
    boundary condition it is meant to respect (``"dirichlet"`` |
    ``"neumann"`` | None)."""

    grid: GridSpec
    values: np.ndarray
    bc: str | None = None

    def __post_init__(self):
        expect = self.grid.shape(half=True)
        if self.values.shape != expect:
            raise ConfigError(
                f"half-grid values shape {self.values.shape}, expected {expect}")
        if self.bc not in _BC_CODES:
            raise ConfigError(f"unknown boundary tag {self.bc!r}")

    def with_values(self, values: np.ndarray) -> "HalfField":
        return HalfField(self.grid, values, self.bc)

    def with_bc(self, bc: str | None) -> "HalfField":
        return HalfField(self.grid, self.values, bc)


def _bc_guard(op: str, hf: HalfField | None = None):
    """The boundary rule: ``op`` is Dirichlet or Neumann (ConfigError),
    and ``hf`` is untagged or tagged ``op`` (BoundaryTagError).  Returns
    ``hf`` tagged ``op`` (None without a field) and whether the calculus
    is the odd one, the sine modes of Dirichlet."""
    if op not in (BC_DIRICHLET, BC_NEUMANN):
        raise ConfigError(f"unknown operator {op!r}")
    if hf is not None and hf.bc != op:
        if hf.bc is not None:
            raise BoundaryTagError(
                f"field is tagged {hf.bc!r} but the calculus is {op!r}")
        hf = hf.with_bc(op)
    return hf, op == BC_DIRICHLET


def make_grid(n: int, L: float, N: int) -> GridSpec:
    """Validated grid constructor; see :class:`GridSpec`."""
    return GridSpec(n=n, L=float(L), N=N)


def _sampled(grid: GridSpec, expr, half: bool) -> np.ndarray:
    """``expr`` on the box or, when ``half``, on the half-grid; a sample
    that is not finite raises, naming its point."""
    mesh = grid.coord_mesh(half)
    vals = np.asarray(expr(*mesh), dtype=float)
    vals = np.broadcast_to(vals, grid.shape(half)).copy()
    if not np.all(np.isfinite(vals)):
        idx = np.argwhere(~np.isfinite(vals))[0]
        coords = tuple(x.ravel()[i] for x, i in zip(mesh, idx))
        raise ConfigError(f"sampled expression not finite at x = {coords}")
    return vals


def sample(grid: GridSpec, expr) -> SampledField:
    """Evaluate ``expr(x_1, ..., x_n)`` on the full grid.

    ``expr`` receives broadcastable coordinate arrays and must return a
    real array.  Non-finite samples raise, naming the offending point.
    """
    return SampledField(grid, _sampled(grid, expr, half=False))


def sample_half(grid: GridSpec, expr, bc: str | None = None) -> HalfField:
    """Evaluate ``expr`` on the half-grid {x_n > 0} and tag the result."""
    return HalfField(grid, _sampled(grid, expr, half=True), bc)


def _exponent(p, what: str) -> float:
    """The one range check of an integrability exponent: 1 <= p <= inf."""
    x = float(p)
    if not x >= 1:
        raise ConfigError(f"{what}={p} must be >= 1 or inf")
    return x


def lp_norm(field, p: float) -> float:
    """Midpoint-rule L^p norm; ``p = inf`` gives the sup of |values|.

    The quadrature weight is the cell volume h^n, so for band-limited
    fields the p = 2 value matches Parseval exactly.
    """
    _exponent(p, "exponent p")
    v = field.values
    if np.isinf(p):
        return float(np.max(np.abs(v))) if v.size else 0.0
    mass = np.abs(v)
    if p == int(p) > 2:
        # binary powering: np.power takes a slow path on zeros
        base = mass.copy()
        for bit in bin(int(p))[3:]:
            mass *= mass
            if bit == "1":
                mass *= base
    elif p != 1:
        # only the nonzero entries, for the same reason
        np.power(mass, p, out=mass, where=mass > 0)
    return float((field.grid.cell_volume * np.sum(mass)) ** (1.0 / p))


def integrate(field) -> float:
    """Plain midpoint integral of the field over its domain."""
    return float(field.grid.cell_volume * np.sum(field.values))


# ---------------------------------------------------------------------------
# serialization: small binary container
#
# layout (little-endian):
#   8s  magic  b"HSFIELD1"
#   B   kind   0 = full grid, 1 = half grid
#   B   bc     0 = none, 1 = dirichlet, 2 = neumann
#   B   stagger, always 1: every grid is staggered
#   B   reserved (0)
#   Q   n
#   Q   N
#   d   L
#   Q   value count
# followed by count IEEE-754 float64 values, row-major.

_MAGIC = b"HSFIELD1"
_HEADER = struct.Struct("<8sBBBBQQdQ")


def save_field(field, path) -> None:
    half = isinstance(field, HalfField)
    bc = _BC_CODES[field.bc] if half else 0
    g = field.grid
    vals = np.ascontiguousarray(field.values, dtype="<f8")
    header = _HEADER.pack(_MAGIC, 1 if half else 0, bc, 1, 0, g.n, g.N, g.L,
                          vals.size)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(vals.tobytes())


def load_field(path):
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    with fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ConfigError(f"{path}: truncated header")
        magic, kind, bc, stagger, _, n, N, L, count = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise ConfigError(f"{path}: not a field container")
        if kind not in (0, 1):
            raise ConfigError(f"{path}: unknown field kind {kind}")
        if bc not in _BC_FROM_CODE:
            raise ConfigError(f"{path}: unknown boundary code {bc}")
        if stagger != 1:
            raise ConfigError(f"{path}: stagger byte {stagger}, not 1")
        grid = make_grid(int(n), float(L), int(N))
        full = kind == 0
        shape = grid.shape(half=not full)
        need = math.prod(shape)
        if count != need:
            raise ConfigError(
                f"{path}: header counts {count} values, the grid needs {need}")
        # compare with the file size before allocating the payload
        if os.fstat(fh.fileno()).st_size - _HEADER.size < count * 8:
            raise ConfigError(f"{path}: truncated payload")
        payload = fh.read(count * 8)
    data = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    if full:
        return SampledField(grid, data)
    return HalfField(grid, data, _BC_FROM_CODE[bc])

