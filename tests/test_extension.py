"""Reflection extensions: parity, roundtrips and tag discipline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace_spectral import (
    BC_DIRICHLET,
    BC_NEUMANN,
    BoundaryTagError,
    ConfigError,
    HalfField,
    even_extend,
    extend_for,
    make_grid,
    odd_extend,
    restrict,
    sample_half,
    OP_DIRICHLET,
    OP_NEUMANN,
)


def _some_field(grid, bc=None):
    return sample_half(grid, lambda x: np.exp(-x) * np.sin(x), bc=bc)


def test_odd_extension_is_odd(grid1d):
    ext = odd_extend(_some_field(grid1d))
    assert np.array_equal(ext.values[::-1], -ext.values)


def test_even_extension_is_even(grid1d):
    ext = even_extend(_some_field(grid1d))
    assert np.array_equal(ext.values[::-1], ext.values)


def test_extension_fills_the_box(grid1d):
    hf = _some_field(grid1d)
    ext = odd_extend(hf)
    assert ext.values.shape == (grid1d.N,)
    assert np.array_equal(ext.values[grid1d.N // 2:], hf.values)


def test_restrict_inverts_either_extension(grid1d):
    hf = _some_field(grid1d)
    assert np.array_equal(restrict(odd_extend(hf)).values, hf.values)
    assert np.array_equal(restrict(even_extend(hf)).values, hf.values)


def test_restrict_tags_the_result(grid1d):
    hf = _some_field(grid1d)
    assert restrict(odd_extend(hf), bc=BC_DIRICHLET).bc == BC_DIRICHLET
    assert restrict(odd_extend(hf)).bc is None


def test_parity_extensions_2d_act_on_last_axis(grid2d):
    hf = sample_half(grid2d, lambda x, y: np.cos(x) * y)
    ext = odd_extend(hf)
    assert ext.values.shape == (grid2d.N, grid2d.N)
    assert np.array_equal(ext.values[:, ::-1], -ext.values)
    evn = even_extend(hf)
    assert np.array_equal(evn.values[:, ::-1], evn.values)


def test_odd_extension_refuses_neumann_tag(grid1d):
    hf = _some_field(grid1d, bc=BC_NEUMANN)
    with pytest.raises(BoundaryTagError):
        odd_extend(hf)


def test_even_extension_refuses_dirichlet_tag(grid1d):
    hf = _some_field(grid1d, bc=BC_DIRICHLET)
    with pytest.raises(BoundaryTagError):
        even_extend(hf)


def test_extend_for_routes_by_operator(grid1d):
    hf = _some_field(grid1d)
    assert np.array_equal(extend_for(hf, OP_DIRICHLET).values,
                          odd_extend(hf).values)
    assert np.array_equal(extend_for(hf, OP_NEUMANN).values,
                          even_extend(hf).values)
    with pytest.raises(ConfigError):
        extend_for(hf, "robin")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100,
                          allow_nan=False, allow_infinity=False),
                min_size=8, max_size=8),
       st.sampled_from(["odd", "even"]))
def test_roundtrip_and_parity_property(vals, which):
    g = make_grid(1, 4.0, 16)
    hf = HalfField(g, np.asarray(vals, dtype=float))
    ext = odd_extend(hf) if which == "odd" else even_extend(hf)
    sign = -1.0 if which == "odd" else 1.0
    assert np.array_equal(ext.values[::-1], sign * ext.values)
    assert np.array_equal(restrict(ext).values, hf.values)
