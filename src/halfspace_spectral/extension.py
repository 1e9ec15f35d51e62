"""Reflection extensions across the hyperplane x_n = 0.

On a staggered grid the reflection j -> N-1-j along the last axis is a
bijection of the sample set, so odd and even extension are exact and
``restrict`` inverts them with no interpolation.  Odd extension defines
the Dirichlet functional calculus, even extension the Neumann one; the
operators and the Besov passes compute it by sine and cosine transforms
on the half-grid, and the oracle of the tests goes through these
extensions.

Norm bookkeeping that tests rely on: for p < inf the full-box L^p norm
of an extension is 2^(1/p) times the half-space norm of the input; sup
norms coincide.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundaryTagError, ConfigError
from .grid import BC_DIRICHLET, BC_NEUMANN, HalfField, SampledField

__all__ = ["odd_extend", "even_extend", "restrict", "apply_sign"]


def _require_stagger(grid):
    if not grid.stagger:
        raise ConfigError("reflection extensions require a staggered grid")


def _extend(hf: HalfField, sign: float) -> SampledField:
    _require_stagger(hf.grid)
    v = hf.values
    mirrored = sign * v[..., ::-1]
    return SampledField(hf.grid, np.concatenate([mirrored, v], axis=-1))


def odd_extend(hf: HalfField) -> SampledField:
    """Extend by f(-x') = -f(x') in the normal coordinate."""
    if hf.bc == BC_NEUMANN:
        raise BoundaryTagError("odd extension of a Neumann-tagged field")
    return _extend(hf, -1.0)


def even_extend(hf: HalfField) -> SampledField:
    """Extend by f(-x') = f(x') in the normal coordinate."""
    if hf.bc == BC_DIRICHLET:
        raise BoundaryTagError("even extension of a Dirichlet-tagged field")
    return _extend(hf, +1.0)


def restrict(f: SampledField, bc: str | None = None) -> HalfField:
    """Keep the x_n > 0 samples and tag the result."""
    _require_stagger(f.grid)
    half = f.grid.N // 2
    return HalfField(f.grid, f.values[..., half:].copy(), bc)


def apply_sign(f: SampledField) -> SampledField:
    """Multiply by sign(x_n); exact on a staggered grid.

    Swaps the parity class of a field, which is how products of odd
    extensions are moved back into the odd class: (fg)_odd equals
    sign(x_n) f_odd g_odd.
    """
    _require_stagger(f.grid)
    half = f.grid.N // 2
    out = f.values.copy()
    out[..., :half] = -out[..., :half]
    return SampledField(f.grid, out)
