"""Seeded families of test fields used by the experiment sweeps.

Families are parameterized by continuum data (frequencies, centers,
widths) drawn once from the seed, then sampled on whatever grid a
sweep asks for, so refining the resolution re-samples the *same*
functions.  Band-limited draws snap their frequencies to exact box
modes k = pi m / L, which keeps them native to every grid in a sweep,
and :mod:`halfspace_spectral.spectral` synthesizes them from those
modes rather than summing them pointwise.

Available names:

``band_random``
    random combinations of resolved modes, odd or even in x_n, times
    low tangential cosines.
``bump_random``
    smooth compactly supported bumps well inside the half-box;
    admissible for both calculi.
``boundary_adversarial``
    a x_n step(x_n / sigma) profiles: Dirichlet-only, with a
    deliberately nonzero normal derivative at the boundary.
``counterexample``
    the fixed pair f = g = x_n phi(x_n) (times tangential cutoffs for
    n >= 2) with phi the canonical smooth step equal to 1 on
    [0, 1/2] and 0 beyond 1.
``sine`` / ``cosine``
    single eigenmodes, lowest ones first; ``sine`` is Dirichlet-only
    and ``cosine`` Neumann-only.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundaryTagError, ConfigError
from .grid import (BC_DIRICHLET, BC_NEUMANN, GridSpec, HalfField, _bc_guard,
                   sample_half)
from .spectral import _half_synthesis, _resolved_octaves, smooth_step

__all__ = ["cutoff_profile", "bump", "counterexample_expr", "make_family",
           "FAMILY_NAMES"]

FAMILY_NAMES = ("band_random", "bump_random", "boundary_adversarial",
                "counterexample", "sine", "cosine")

#: the families with one boundary condition; the rest are tagged ``op``
_FIXED_BC = {"boundary_adversarial": BC_DIRICHLET, "sine": BC_DIRICHLET,
             "cosine": BC_NEUMANN}


def cutoff_profile(x, scale: float = 1.0):
    """Smooth step in one variable: 1 on [0, scale/2], 0 from scale on."""
    u = np.asarray(x, dtype=float) / scale
    return smooth_step(2.0 - 2.0 * u)


def bump(x, center: float, width: float):
    """C^inf bump supported on [center - width, center + width], peak 1;
    the width must be positive and finite."""
    if not 0.0 < width < np.inf:
        raise ConfigError(f"bump width {width} must be positive and finite")
    u = (np.asarray(x, dtype=float) - center) / width
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui ** 2))
    return out


def counterexample_expr():
    """The boundary profile driving the s = 2 + 1/p breakdown."""

    def expr(*coords):
        xn = coords[-1]
        out = xn * cutoff_profile(xn)
        for x in coords[:-1]:
            out = out * cutoff_profile(np.abs(x))
        return out

    return expr


def _mode_range(grid: GridSpec, ref_N: int):
    """Integer mode numbers inside the resolved band of the reference
    grid, capped low enough that pairwise products stay in band too."""
    ref = GridSpec(grid.n, grid.L, ref_N)
    j_min, j_max = _resolved_octaves(ref)
    slop = 1e-9
    m_lo = int(np.ceil(2.0 ** j_min * ref.L / np.pi + slop))
    m_hi = int(np.floor(2.0 ** (j_max - 2) * ref.L / np.pi))
    if m_hi <= m_lo + 4:
        raise ConfigError("reference grid too coarse for a band-random draw")
    return m_lo, m_hi


def _band_random(grid: GridSpec, op: str, rng, ref_N: int) -> HalfField:
    m_lo, m_hi = _mode_range(grid, ref_N)
    n_modes = int(rng.integers(6, 13))
    # log-uniform spread over the usable modes; distinct, as synthesis asks
    ms = np.unique(np.round(np.exp(
        rng.uniform(np.log(m_lo), np.log(m_hi), n_modes))).astype(int))
    amps = rng.normal(0.0, 1.0, ms.size)
    phases = rng.uniform(0.0, 2.0 * np.pi, (ms.size, max(grid.n - 1, 1)))

    # each tangential factor at a low mode, random phase
    values = _half_synthesis(grid, _bc_guard(op)[1], [
        (m, amps[i], [(1 + (int(m) + ax) % 4, phases[i, ax])
                      for ax in range(grid.n - 1)])
        for i, m in enumerate(ms)])
    return HalfField(grid, values, op)


def _bump_span(grid: GridSpec):
    """The normal range of the bump centres, well inside the box."""
    lo, hi = 1.5, grid.L / 2.0 - 1.5
    if hi <= lo:
        raise ConfigError(f"box L={grid.L} too small for interior bumps")
    return lo, hi


def _bump_random(grid: GridSpec, op: str, rng) -> HalfField:
    n_bumps = int(rng.integers(1, 4))
    lo, hi = _bump_span(grid)
    centers = rng.uniform(lo, hi, (n_bumps, grid.n))
    widths = rng.uniform(0.4, 1.2, (n_bumps, grid.n))
    amps = rng.uniform(0.5, 1.5, n_bumps) * rng.choice([-1.0, 1.0], n_bumps)
    tang_centers = rng.uniform(-grid.L / 4.0, grid.L / 4.0, (n_bumps, grid.n))

    def expr(*coords):
        out = np.zeros(np.broadcast_shapes(*[c.shape for c in coords]))
        for b in range(n_bumps):
            term = amps[b] * bump(coords[-1], centers[b, -1], widths[b, -1])
            for ax, x in enumerate(coords[:-1]):
                term = term * bump(x, tang_centers[b, ax], widths[b, ax])
            out = out + term
        return out

    return sample_half(grid, expr, bc=op)


def _boundary_adversarial(grid: GridSpec, rng) -> HalfField:
    scale = float(rng.uniform(0.7, 1.6))
    amp = float(rng.uniform(0.6, 1.4))
    tang_c = rng.uniform(-grid.L / 4.0, grid.L / 4.0, max(grid.n - 1, 1))
    tang_w = rng.uniform(0.8, 1.6, max(grid.n - 1, 1))

    def expr(*coords):
        xn = coords[-1]
        out = amp * xn * cutoff_profile(xn, scale)
        for ax, x in enumerate(coords[:-1]):
            out = out * bump(x, tang_c[ax], tang_w[ax])
        return out

    return sample_half(grid, expr, bc=BC_DIRICHLET)


def _eigenmode(grid: GridSpec, op: str, index: int) -> HalfField:
    k = np.pi * (index + 1) / grid.L
    mode = np.sin if _bc_guard(op)[1] else np.cos
    return sample_half(grid, lambda *c: mode(k * c[-1]), bc=op)


def _check_draw(name: str, grid, op: str, count, seed, ref_N=None) -> None:
    """The one check of a draw: a known name and operator, one the
    family takes (``_FIXED_BC``), integers count >= 1 and seed >= 0, room
    for bumps in the box and modes in the band of ref_N (default N)."""
    if name not in FAMILY_NAMES:
        raise ConfigError(f"unknown family {name!r} (have {FAMILY_NAMES})")
    _bc_guard(op)
    if _FIXED_BC.get(name, op) != op:
        raise BoundaryTagError(
            f"the {name} family is tagged {_FIXED_BC[name]!r} by design, "
            f"not {op!r}")
    for what, v, least in (("family count", count, 1), ("seed", seed, 0)):
        if not isinstance(v, (int, np.integer)) or v < least:
            raise ConfigError(f"{what} {v!r} must be an integer >= {least}")
    if name == "bump_random":
        _bump_span(grid)
    elif name == "band_random":
        _mode_range(grid, ref_N or grid.N)


def make_family(name: str, grid: GridSpec, op: str, seed: int, count: int,
                ref_N: int | None = None) -> list[HalfField]:
    """Deterministic list of fields; same seed, same functions, any grid.

    ``ref_N`` is the coarsest resolution of the enclosing sweep; the
    band-random family keeps its frequencies inside that grid's band so
    refinement only re-samples.
    """
    ref_N = grid.N if ref_N is None else min(ref_N, grid.N)
    _check_draw(name, grid, op, count, seed, ref_N)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        if name == "band_random":
            out.append(_band_random(grid, op, rng, ref_N))
        elif name == "bump_random":
            out.append(_bump_random(grid, op, rng))
        elif name == "boundary_adversarial":
            out.append(_boundary_adversarial(grid, rng))
        elif name == "counterexample":
            # the same samples under either interpretation; the tag
            # decides which reflection the norms will use
            out.append(sample_half(grid, counterexample_expr(), bc=op))
        else:
            out.append(_eigenmode(grid, op, i))
    return out
