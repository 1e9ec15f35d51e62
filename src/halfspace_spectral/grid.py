"""Periodic grids, sampled fields and half-space fields.

The computational domain is the periodic box [-L, L)^n standing in for
R^n.  Axis n (the last array axis) is the distinguished "normal"
direction; the half-space is {x_n > 0}.  With ``stagger`` enabled every
axis is sampled at cell midpoints x = -L + (k + 1/2) h, so no sample
lies on the reflection hyperplane x_n = 0 and the map x -> -x permutes
the sample set exactly.  That choice is what makes the odd/even
extensions in :mod:`halfspace_spectral.extension` involutions rather
than approximations.

Usage contract: fields meant to model objects on R^n should be
supported in the central half of the box (|x_i| <= L/2) so that
periodization error stays below 1e-10.  Exactly band-limited fields are
native to the box and exempt.  Nothing enforces this; the spectral leak
guards downstream catch the worst offenders.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError

__all__ = [
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
    "export_csv",
]

#: boundary-condition tags carried by half-space fields
BC_DIRICHLET = "dirichlet"
BC_NEUMANN = "neumann"
_BC_CODES = {None: 0, BC_DIRICHLET: 1, BC_NEUMANN: 2}
_BC_FROM_CODE = {v: k for k, v in _BC_CODES.items()}


@dataclass(frozen=True)
class GridSpec:
    """Isotropic periodic grid on [-L, L)^n with N points per axis."""

    n: int
    L: float
    N: int
    stagger: bool = True

    def __post_init__(self):
        if not 1 <= self.n <= 3:
            raise ConfigError(f"dimension n={self.n} outside 1..3")
        if not (self.L > 0 and np.isfinite(self.L)):
            raise ConfigError(f"box half-width L={self.L} must be positive")
        N = self.N
        if N < 8 or (N & (N - 1)) != 0:
            raise ConfigError(f"N={N} must be a power of two >= 8")

    @property
    def h(self) -> float:
        """Mesh width 2L/N."""
        return 2.0 * self.L / self.N

    def axis_coords(self) -> np.ndarray:
        """Sample coordinates along one axis (all axes are identical)."""
        off = 0.5 if self.stagger else 0.0
        return -self.L + (np.arange(self.N) + off) * self.h

    def half_coords(self) -> np.ndarray:
        """Coordinates of the x_n > 0 samples, increasing."""
        x = self.axis_coords()
        return x[self.N // 2:]

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
        """Tuple of n broadcastable coordinate arrays."""
        x = self.axis_coords()
        out = []
        for ax in range(self.n):
            shape = [1] * self.n
            ax_x = x if (ax < self.n - 1 or not half) else x[self.N // 2:]
            shape[ax] = ax_x.size
            out.append(ax_x.reshape(shape))
        return tuple(out)


@dataclass(frozen=True)
class SampledField:
    """Real field sampled on the full periodic box."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        expect = (self.grid.N,) * self.grid.n
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
        N, n = self.grid.N, self.grid.n
        expect = (N,) * (n - 1) + (N // 2,)
        if self.values.shape != expect:
            raise ConfigError(
                f"half-grid values shape {self.values.shape}, expected {expect}")
        if self.bc not in _BC_CODES:
            raise ConfigError(f"unknown boundary tag {self.bc!r}")

    def with_values(self, values: np.ndarray) -> "HalfField":
        return HalfField(self.grid, values, self.bc)

    def with_bc(self, bc: str | None) -> "HalfField":
        return HalfField(self.grid, self.values, bc)


def make_grid(n: int, L: float, N: int, stagger: bool = True) -> GridSpec:
    """Validated grid constructor; see :class:`GridSpec`."""
    return GridSpec(n=n, L=float(L), N=int(N), stagger=bool(stagger))


def _check_finite(vals: np.ndarray, grid: GridSpec, half: bool) -> None:
    if np.all(np.isfinite(vals)):
        return
    idx = np.argwhere(~np.isfinite(vals))[0]
    x = grid.axis_coords()
    coords = []
    for ax, i in enumerate(idx):
        if half and ax == grid.n - 1:
            coords.append(grid.half_coords()[i])
        else:
            coords.append(x[i])
    raise ConfigError(f"sampled expression not finite at x = {tuple(coords)}")


def sample(grid: GridSpec, expr) -> SampledField:
    """Evaluate ``expr(x_1, ..., x_n)`` on the full grid.

    ``expr`` receives broadcastable coordinate arrays and must return a
    real array.  Non-finite samples raise, naming the offending point.
    """
    vals = np.asarray(expr(*grid.coord_mesh()), dtype=float)
    vals = np.broadcast_to(vals, (grid.N,) * grid.n).copy()
    _check_finite(vals, grid, half=False)
    return SampledField(grid, vals)


def sample_half(grid: GridSpec, expr, bc: str | None = None) -> HalfField:
    """Evaluate ``expr`` on the half-grid {x_n > 0} and tag the result."""
    if not grid.stagger:
        raise ConfigError("half-space sampling requires a staggered grid")
    vals = np.asarray(expr(*grid.coord_mesh(half=True)), dtype=float)
    shape = (grid.N,) * (grid.n - 1) + (grid.N // 2,)
    vals = np.broadcast_to(vals, shape).copy()
    _check_finite(vals, grid, half=True)
    return HalfField(grid, vals, bc)


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
    h = field.grid.h
    return float((h ** field.grid.n * np.sum(np.abs(v) ** p)) ** (1.0 / p))


def integrate(field) -> float:
    """Plain midpoint integral of the field over its domain."""
    return float(field.grid.h ** field.grid.n * np.sum(field.values))


# ---------------------------------------------------------------------------
# serialization: small binary container plus CSV export
#
# layout (little-endian):
#   8s  magic  b"HSFIELD1"
#   B   kind   0 = full grid, 1 = half grid
#   B   bc     0 = none, 1 = dirichlet, 2 = neumann
#   B   stagger
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
    header = _HEADER.pack(_MAGIC, 1 if half else 0, bc, 1 if g.stagger else 0,
                          0, g.n, g.N, g.L, vals.size)
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
        grid = make_grid(int(n), float(L), int(N), bool(stagger))
        full = kind == 0
        shape = (grid.N,) * (grid.n - 1) + (grid.N if full else grid.N // 2,)
        need = grid.N ** (grid.n - 1) * shape[-1]
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


def export_csv(field, path) -> None:
    """Write ``x_1, ..., x_n, value`` rows for plotting."""
    g = field.grid
    half = isinstance(field, HalfField)
    mesh = g.coord_mesh(half=half)
    cols = [np.broadcast_to(m, field.values.shape).ravel() for m in mesh]
    cols.append(field.values.ravel())
    header = ",".join([f"x{i + 1}" for i in range(g.n)] + ["value"])
    np.savetxt(path, np.column_stack(cols), delimiter=",", header=header,
               comments="")
