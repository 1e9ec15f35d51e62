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

from .grid import (BC_DIRICHLET, BC_NEUMANN, HalfField, SampledField,
                   _bc_guard)

__all__ = ["odd_extend", "even_extend", "restrict"]


def _extend(hf: HalfField, sign: float) -> SampledField:
    v = hf.values
    mirrored = sign * v[..., ::-1]
    return SampledField(hf.grid, np.concatenate([mirrored, v], axis=-1))


def odd_extend(hf: HalfField) -> SampledField:
    """Extend by f(-x') = -f(x') in the normal coordinate."""
    _bc_guard(BC_DIRICHLET, hf)
    return _extend(hf, -1.0)


def even_extend(hf: HalfField) -> SampledField:
    """Extend by f(-x') = f(x') in the normal coordinate."""
    _bc_guard(BC_NEUMANN, hf)
    return _extend(hf, +1.0)


def restrict(f: SampledField, bc: str | None = None) -> HalfField:
    """Keep the x_n > 0 samples and tag the result."""
    half = f.grid.shape(half=True)[-1]
    return HalfField(f.grid, f.values[..., -half:].copy(), bc)

