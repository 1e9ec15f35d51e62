"""Functional calculus for the Dirichlet and Neumann Laplacian.

The method of images defines the operators: extend with the parity
matching the boundary condition (odd for Dirichlet, even for Neumann),
apply the full-space multiplier, restrict back.  On the staggered grid
that is exactly the multiplier applied to the sine modes sin(k x_n)
(Dirichlet) or the cosine modes cos(k x_n) (Neumann), k = pi m / L,
times the tangential Fourier modes.  The operators here are profiles
of |xi|^2 applied that way, to the sine or cosine spectrum that
:mod:`halfspace_spectral.spectral` owns, on half the points and with no
extension.  The image route (``extend_for``, ``fractional_laplacian``
or ``apply_multiplier``, ``restrict``) stays public as the oracle that
the tests and the self-test compare against.  Radial symbols commute
with the reflection, so identities such as

    2^(1/p) || A_D^(s/2) f ||_{L^p(half)} = || Lambda^s f_odd ||_{L^p(box)}

hold to roundoff, not asymptotically.

The normal derivative anticommutes with the reflection and therefore
swaps the two calculi; its output is tagged with the opposite boundary
condition.  Tangential derivatives commute and keep the tag.  Each
derivative acts on one axis, so it transforms that axis alone: the
normal derivative is a sine/cosine pair along each normal line, and a
tangential derivative a DFT along its own axis with the symbol of
``derivative_multiplier``; neither makes the full n-D transform.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundaryTagError, ConfigError
from .extension import even_extend, odd_extend
from .grid import BC_DIRICHLET, BC_NEUMANN, HalfField, _BC_SWAP, _bc_guard
from .spectral import (_HalfSpectrum, _half_normal_derivative,
                       _half_tangential_derivative, _Operator,
                       _require_zero_mean)

__all__ = [
    "OP_DIRICHLET",
    "OP_NEUMANN",
    "extend_for",
    "frac_power",
    "semigroup",
    "normal_derivative",
    "tangential_derivative",
    "boundary_trace",
]

OP_DIRICHLET = BC_DIRICHLET
OP_NEUMANN = BC_NEUMANN


def extend_for(hf: HalfField, op: str):
    """Parity extension matching the operator's boundary condition."""
    return odd_extend(hf) if _bc_guard(op)[1] else even_extend(hf)


def _spectrum(hf: HalfField, op: str,
              power: float | None = None) -> _HalfSpectrum:
    """The sine or cosine spectrum of ``hf`` in the ``op`` calculus, for
    one operator image, after the zero-mean guard of a Neumann ``power``
    of negative order, which cannot invert the cosine zero mode."""
    odd = _bc_guard(op, hf)[1]
    if power is not None and power < 0 and not odd:
        _require_zero_mean(hf, f"negative-order power s={power}")
    return _HalfSpectrum(hf.values, hf.grid, odd)


def frac_power(hf: HalfField, op: str, s: float) -> HalfField:
    """A^(s/2) f for A the Dirichlet or Neumann Laplacian.

    s is the order in terms of |xi|^s on the extension; s = 2 is the
    operator itself; s = 0 subtracts the Neumann half-space mean.
    Negative s under Neumann requires a zero-mean field, the mean of
    its even extension; the sine modes of Dirichlet have no zero mode.
    """
    power = _Operator("power", s)
    return HalfField(hf.grid, _spectrum(hf, op, s).image(power), op)


def semigroup(hf: HalfField, op: str, t: float, s: float = 2.0) -> HalfField:
    """exp(-t A^(s/2)) f for 0 < s <= 2; s = 2 is the heat semigroup.

    Orders beyond 2 compose frac_power with the heat flow and are left
    to callers.
    """
    if not 0.0 < s <= 2.0:
        raise ConfigError(f"semigroup order s={s} outside (0, 2]")
    flow = _Operator("flow", s, t)
    return HalfField(hf.grid, _spectrum(hf, op).image(flow), op)


def normal_derivative(hf: HalfField) -> HalfField:
    """d/dx_n; swaps the boundary tag.

    The derivative of a sine mode is a cosine mode and vice versa (on
    the box: the derivative of an odd extension is even), so a
    Dirichlet-tagged input comes back Neumann-tagged and conversely.
    Untagged input is refused: the choice of calculus would be
    arbitrary and the two choices genuinely differ.
    """
    if hf.bc is None:
        raise BoundaryTagError(
            "normal derivative needs a boundary-tagged field")
    odd = _bc_guard(hf.bc)[1]
    return HalfField(hf.grid, _half_normal_derivative(hf.values, hf.grid, odd),
                     _BC_SWAP[hf.bc])


def tangential_derivative(hf: HalfField, k: int) -> HalfField:
    """d/dx_k for a tangential axis k < n; preserves the boundary tag.

    k = n is routed to :func:`normal_derivative`.  Tangential axes do
    not interact with the normal modes, so both calculi give the
    identical result and untagged fields are fine: the derivative is a
    DFT along axis k alone.
    """
    n = hf.grid.n
    if not 1 <= k <= n:
        raise ConfigError(f"axis {k} outside 1..{n}")
    if k == n:
        return normal_derivative(hf)
    return HalfField(hf.grid,
                     _half_tangential_derivative(hf.values, hf.grid, k),
                     hf.bc)


def boundary_trace(hf: HalfField) -> np.ndarray:
    """Extrapolated values at x_n = 0+ (second order in h).

    The staggered grid holds samples at h/2 and 3h/2; a linear
    extrapolant through them evaluates the trace.
    """
    v = hf.values
    return 1.5 * v[..., 0] - 0.5 * v[..., 1]
