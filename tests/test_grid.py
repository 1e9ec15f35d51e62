"""Grid geometry, sampling, norms, the boundary rule and the binary
field format."""

import contextlib
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace_spectral import (
    BC_DIRICHLET,
    BC_NEUMANN,
    BoundaryTagError,
    ConfigError,
    GridSpec,
    HalfField,
    SampledField,
    SpaceSpec,
    besov_norm,
    besov_norm_semigroup,
    bump,
    even_extend,
    extend_for,
    extension_norm_equivalence,
    frac_power,
    get_bank,
    integrate,
    leibniz_decomposition,
    load_field,
    lp_norm,
    make_grid,
    odd_extend,
    restrict,
    sample,
    sample_half,
    save_field,
    semigroup,
    sobolev_norm,
)
from halfspace_spectral.cli import build_parser, cmd_norm, main


# ---------------------------------------------------------------------------
# geometry

def test_staggered_coordinates_avoid_origin_and_walls(grid1d):
    x = grid1d.axis_coords()
    assert x.size == grid1d.N
    assert np.all(x != 0.0)
    assert x[0] == -grid1d.L + grid1d.h / 2.0
    assert x[-1] == grid1d.L - grid1d.h / 2.0
    steps = np.diff(x)
    assert np.allclose(steps, grid1d.h, rtol=0, atol=1e-12)


def test_reflection_index_is_exact(grid1d):
    # the staggered layout makes j <-> N-1-j an exact sign flip of x
    x = grid1d.axis_coords()
    assert np.array_equal(x[::-1], -x)


def test_half_coords_are_the_positive_samples(grid1d):
    xh = grid1d.half_coords()
    assert xh.size == grid1d.N // 2
    assert np.all(xh > 0)
    assert np.all(np.diff(xh) > 0)
    assert xh[0] == grid1d.h / 2.0


def test_mesh_width():
    g = make_grid(1, 8.0, 64)
    assert g.h == 0.25


def test_freq_axis_matches_fft_convention(grid1d):
    xi = grid1d.freq_axis()
    ref = 2.0 * np.pi * np.fft.fftfreq(grid1d.N, d=grid1d.h)
    assert np.array_equal(xi, ref)


def test_coord_mesh_shapes(grid2d):
    full = grid2d.coord_mesh()
    assert full[0].shape == (grid2d.N, 1)
    assert full[1].shape == (1, grid2d.N)
    half = grid2d.coord_mesh(half=True)
    assert half[0].shape == (grid2d.N, 1)
    assert half[1].shape == (1, grid2d.N // 2)
    assert np.all(half[1] > 0)


@pytest.mark.parametrize("n", [0, 4, -1])
def test_dimension_out_of_range_rejected(n):
    with pytest.raises(ConfigError):
        make_grid(n, 16.0, 64)


@pytest.mark.parametrize("N", [12, 100, 6, 4, 7])
def test_resolution_must_be_power_of_two_at_least_eight(N):
    with pytest.raises(ConfigError):
        make_grid(1, 16.0, N)


@pytest.mark.parametrize("n, N", [(1.5, 512), (1, 512.0),
                                  (np.float64(2.0), 64), (1, 64.5)])
def test_grid_refuses_non_integer_n_or_N(n, N):
    with pytest.raises(ConfigError):
        GridSpec(n, 16.0, N)


def test_grid_takes_numpy_integers():
    assert GridSpec(np.int64(2), 16.0, np.int64(64)).h == 0.5


def test_make_grid_casts_no_resolution():
    # GridSpec is the one check: make_grid hands N on as given
    with pytest.raises(ConfigError, match="power of two"):
        make_grid(1, 16.0, 512.7)
    with pytest.raises(ConfigError, match="power of two"):
        make_grid(1, 16.0, 512.0)
    g = make_grid(np.int64(1), 16.0, np.int64(512))
    assert type(g.n) is int and type(g.N) is int
    assert g == make_grid(1, 16.0, 512)


@pytest.mark.parametrize("L", [0.0, -2.0, float("inf"), float("nan")])
def test_bad_box_size_rejected(L):
    with pytest.raises(ConfigError):
        make_grid(1, L, 64)


@pytest.mark.parametrize("L", [float("inf"), float("nan")])
def test_box_size_must_be_finite(L):
    # inf is positive, so the message must name finiteness
    with pytest.raises(ConfigError, match="finite"):
        make_grid(1, L, 64)


# ---------------------------------------------------------------------------
# sampling and field containers

def test_sample_shapes(grid2d):
    f = sample(grid2d, lambda x, y: x + 0.0 * y)
    assert f.values.shape == (grid2d.N, grid2d.N)
    hf = sample_half(grid2d, lambda x, y: x + 0.0 * y)
    assert hf.values.shape == (grid2d.N, grid2d.N // 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_grid_owns_the_layout_of_its_fields(n):
    g = make_grid(n, 8.0, 16)
    assert g.shape() == (16,) * n
    assert g.shape(half=True) == (16,) * (n - 1) + (8,)
    assert g.cell_volume == g.h ** n
    for half in (False, True):
        mesh = g.coord_mesh(half)
        assert np.broadcast_shapes(*(x.shape for x in mesh)) == g.shape(half)
    f = sample(g, lambda *c: sum(c))
    assert f.values.shape == g.shape()
    half = restrict(f)
    assert half.values.shape == g.shape(half=True)
    assert np.array_equal(half.values, sample_half(g, lambda *c: sum(c)).values)
    assert integrate(f) == float(g.cell_volume * np.sum(f.values))


@pytest.mark.parametrize("half", [False, True])
def test_a_sample_that_is_not_finite_is_named(grid2d, half):
    # the point is read off the same coordinate mesh the sample used
    x0, y0 = grid2d.axis_coords()[3], grid2d.half_coords()[5]

    def expr(x, y):
        return np.where((x == x0) & (y == y0), np.nan, 0.0)

    draw = sample_half if half else sample
    with pytest.raises(ConfigError,
                       match=rf"not finite at x = \(.*{x0}.*{y0}.*\)$"):
        draw(grid2d, expr)


def test_sample_half_takes_positive_normal_samples(grid1d):
    hf = sample_half(grid1d, lambda x: x)
    assert np.array_equal(hf.values, grid1d.half_coords())


def test_half_field_shape_validated(grid1d):
    with pytest.raises(ConfigError):
        HalfField(grid1d, np.zeros(grid1d.N))   # full-size array


def test_full_field_shape_validated(grid1d):
    with pytest.raises(ConfigError):
        SampledField(grid1d, np.zeros(grid1d.N // 2))


def test_unknown_boundary_tag_rejected(grid1d):
    with pytest.raises(ConfigError):
        HalfField(grid1d, np.zeros(grid1d.N // 2), bc="robin")


def test_boundary_tags_attach(grid1d):
    hf = sample_half(grid1d, lambda x: x, bc=BC_DIRICHLET)
    assert hf.bc == BC_DIRICHLET
    assert hf.with_bc(BC_NEUMANN).bc == BC_NEUMANN
    assert hf.with_bc(None).bc is None


def test_non_finite_samples_rejected(grid1d):
    with pytest.raises(ConfigError, match="not finite"):
        sample(grid1d, lambda x: np.where(np.abs(x) < 1.0, np.nan, 0.0))
    with pytest.raises(ConfigError, match="not finite"):
        sample_half(grid1d, lambda x: np.where(x > 8.0, np.inf, 0.0))


# ---------------------------------------------------------------------------
# norms and integrals

def test_l2_norm_of_eigenmode_analytic(grid1d):
    # || sin(k x) ||_{L^2(0, L)} = sqrt(L / 2) for k a multiple of pi/L
    hf = sample_half(grid1d, lambda x: np.sin(np.pi * 4 * x / grid1d.L))
    assert lp_norm(hf, 2.0) == pytest.approx(np.sqrt(grid1d.L / 2.0),
                                             rel=1e-13)


def test_lp_norm_full_box_vs_half(grid1d):
    hf = sample_half(grid1d, lambda x: np.sin(np.pi * 4 * x / grid1d.L))
    full = sample(grid1d, lambda x: np.sin(np.pi * 4 * x / grid1d.L))
    assert lp_norm(full, 2.0) == pytest.approx(np.sqrt(2.0) * lp_norm(hf, 2.0),
                                               rel=1e-13)


def test_sup_norm_is_max_abs(grid1d):
    hf = sample_half(grid1d, lambda x: -bump(x, 4.0, 1.0))
    assert lp_norm(hf, float("inf")) == float(np.max(np.abs(hf.values)))


def test_lp_norm_homogeneity(grid1d):
    hf = sample_half(grid1d, lambda x: bump(x, 5.0, 2.0))
    for p in (1.0, 2.0, 3.5, float("inf")):
        assert lp_norm(hf.with_values(-2.5 * hf.values), p) == pytest.approx(
            2.5 * lp_norm(hf, p), rel=1e-13)


@pytest.mark.parametrize("p", [3.0, 4.0, 7.0])
@pytest.mark.parametrize("n, N", [(1, 4096), (2, 128)])
def test_integer_exponent_norm_matches_numpy_power(n, N, p):
    # an integer p is powered by multiplication, a few ulp per element
    # from np.power; a bump with its zeros and a random field
    grid = make_grid(n, 8.0, N)
    rng = np.random.default_rng(17)
    bumped = sample_half(grid, lambda *x: bump(x[-1], 2.0, 1.0))
    for hf in (bumped, bumped.with_values(
            rng.standard_normal(bumped.values.shape))):
        want = (grid.h ** n * np.sum(np.abs(hf.values) ** p)) ** (1.0 / p)
        assert lp_norm(hf, p) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_integrate_bump_matches_quadrature(grid1d):
    from scipy.integrate import quad

    hf = sample_half(grid1d, lambda x: bump(x, 4.0, 1.3))
    ref, aerr = quad(lambda x: float(bump(np.asarray([x]), 4.0, 1.3)[0]),
                     4.0 - 1.3, 4.0 + 1.3, limit=200)
    assert integrate(hf) == pytest.approx(ref, rel=1e-12)


def test_integrate_odd_mode_vanishes(grid1d):
    full = sample(grid1d, lambda x: np.sin(np.pi * 3 * x / grid1d.L))
    assert abs(integrate(full)) < 1e-12


# ---------------------------------------------------------------------------
# the boundary rule

def _besov(op):
    return SpaceSpec("besov", 0.5, 2.0, 2.0, True, op)


def _cli_norm(f, op, tmp_path):
    """`norm` on a saved file: the command raises, and the CLI exits 2
    with the message."""
    path = tmp_path / "field.hsf"
    save_field(f, path)
    argv = ["norm", "--field", f"file:{path}", "--N", str(f.grid.N),
            "--L", str(f.grid.L), "--op", op]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        assert main(argv) == 2
    assert f"is tagged {f.bc!r}" in err.getvalue()
    cmd_norm(build_parser().parse_args(argv))


# each entry runs a field in the calculus that its tag excludes
_TAG_FAULTS = {
    "frac_power": lambda f, op, _: frac_power(f, op, 1.0),
    "semigroup": lambda f, op, _: semigroup(f, op, 0.1),
    "extend_for": lambda f, op, _: extend_for(f, op),
    "odd_extend": lambda f, op, _: odd_extend(f.with_bc(BC_NEUMANN)),
    "even_extend": lambda f, op, _: even_extend(f),
    "sobolev_norm": lambda f, op, _: sobolev_norm(
        f, SpaceSpec("sobolev", 1.0, 2.0, None, True, op)),
    "besov_norm": lambda f, op, _: besov_norm(f, _besov(op),
                                              get_bank(f.grid)),
    "besov_norm_semigroup": lambda f, op, _: besov_norm_semigroup(
        f, _besov(op), bank=get_bank(f.grid)),
    "extension_norm_equivalence": lambda f, op, _: extension_norm_equivalence(
        f, _besov(op), get_bank(f.grid)),
    "leibniz_decomposition": lambda f, op, _: leibniz_decomposition(
        f, f.with_bc(op)),
    "cli_norm": _cli_norm,
}


@pytest.mark.parametrize("entry", list(_TAG_FAULTS.values()),
                         ids=list(_TAG_FAULTS))
def test_every_entry_refuses_a_tag_fault_alike(entry, tmp_path):
    # one guard owns the rule, so every entry raises the same error with
    # the same message
    f = sample_half(make_grid(1, 16.0, 512), lambda x: bump(x, 4.0, 1.0),
                    bc=BC_DIRICHLET)
    with pytest.raises(BoundaryTagError,
                       match=r"^field is tagged '(dirichlet|neumann)' but "
                             r"the calculus is '(dirichlet|neumann)'$"):
        entry(f, BC_NEUMANN, tmp_path)


# ---------------------------------------------------------------------------
# serialization

def test_binary_roundtrip_half_field(tmp_path, grid1d):
    hf = sample_half(grid1d, lambda x: bump(x, 3.0, 1.0), bc=BC_DIRICHLET)
    path = tmp_path / "f.hsf"
    save_field(hf, path)
    back = load_field(path)
    assert isinstance(back, HalfField)
    assert back.grid == hf.grid
    assert back.bc == BC_DIRICHLET
    assert np.array_equal(back.values, hf.values)


def test_binary_roundtrip_full_field_2d(tmp_path, grid2d):
    f = sample(grid2d, lambda x, y: np.sin(np.pi * x / 8.0) * np.cos(y))
    path = tmp_path / "f2.hsf"
    save_field(f, path)
    back = load_field(path)
    assert isinstance(back, SampledField)
    assert back.grid == grid2d
    assert np.array_equal(back.values, f.values)


def test_binary_roundtrip_untagged_half(tmp_path, grid1d):
    hf = sample_half(grid1d, lambda x: x)
    path = tmp_path / "f.hsf"
    save_field(hf, path)
    assert load_field(path).bc is None


def test_binary_header_magic(tmp_path, grid1d):
    hf = sample_half(grid1d, lambda x: x, bc=BC_NEUMANN)
    path = tmp_path / "f.hsf"
    save_field(hf, path)
    raw = path.read_bytes()
    assert raw[:8] == b"HSFIELD1"
    # header carries n, N and L; values follow as little-endian float64
    magic, ver_n, *_ = struct.unpack_from("<8sB", raw)
    assert magic == b"HSFIELD1"


def test_load_rejects_foreign_bytes(tmp_path):
    path = tmp_path / "junk.hsf"
    path.write_bytes(b"NOTAFLD0" + b"\x00" * 64)
    with pytest.raises(ConfigError):
        load_field(path)


def test_load_rejects_truncated_file(tmp_path, grid1d):
    hf = sample_half(grid1d, lambda x: x)
    path = tmp_path / "f.hsf"
    save_field(hf, path)
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) // 2])
    with pytest.raises(ConfigError):
        load_field(path)


def test_load_rejects_a_truncated_header(tmp_path):
    path = tmp_path / "f.hsf"
    path.write_bytes(b"HSFIELD1" + b"\x00" * 8)
    with pytest.raises(ConfigError, match="truncated header"):
        load_field(path)


def _write_header(path, kind=1, bc=0, n=1, N=64, L=16.0, count=32,
                  values=32, stagger=1):
    """A field container with a hand-made header and ``values`` zeros."""
    header = struct.pack("<8sBBBBQQdQ", b"HSFIELD1", kind, bc, stagger, 0,
                         n, N, L, count)
    path.write_bytes(header + b"\x00" * (8 * values))
    return path


def test_load_accepts_a_hand_made_header(tmp_path):
    back = load_field(_write_header(tmp_path / "ok.hsf"))
    assert isinstance(back, HalfField)
    assert back.values.shape == (32,)


def test_load_rejects_a_count_that_does_not_match_the_grid(tmp_path):
    path = _write_header(tmp_path / "f.hsf", count=40, values=40)
    with pytest.raises(ConfigError, match="values"):
        load_field(path)


def test_load_rejects_an_unknown_boundary_code(tmp_path):
    path = _write_header(tmp_path / "f.hsf", bc=7)
    with pytest.raises(ConfigError, match="boundary code"):
        load_field(path)


def test_load_rejects_an_unstaggered_grid(tmp_path):
    path = _write_header(tmp_path / "f.hsf", stagger=0)
    with pytest.raises(ConfigError, match="stagger"):
        load_field(path)


def test_load_rejects_an_overflowing_count(tmp_path):
    path = _write_header(tmp_path / "f.hsf", count=2 ** 61)
    with pytest.raises(ConfigError):
        load_field(path)


def test_load_rejects_an_unknown_field_kind(tmp_path):
    path = _write_header(tmp_path / "f.hsf", kind=2)
    with pytest.raises(ConfigError, match="kind"):
        load_field(path)


# ---------------------------------------------------------------------------
# property checks

@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=3, max_value=7),
       st.floats(min_value=0.5, max_value=50.0,
                 allow_nan=False, allow_infinity=False))
def test_reflection_involution_property(logN, L):
    # Reflection is the index map j -> N-1-j; coordinates mirror to
    # rounding because -L + (k + 0.5) h need not be exactly antisymmetric
    # for arbitrary float L.
    g = make_grid(1, L, 2 ** logN)
    x = g.axis_coords()
    assert np.allclose(x[::-1], -x, rtol=0.0, atol=1e-12 * L)
    assert np.all(np.abs(x) < L)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=8, max_size=8))
def test_save_load_preserves_values_exactly(tmp_path_factory, vals):
    g = make_grid(1, 4.0, 16)
    hf = HalfField(g, np.asarray(vals, dtype=float), bc=BC_DIRICHLET)
    path = tmp_path_factory.mktemp("hsf") / "v.hsf"
    save_field(hf, path)
    assert np.array_equal(load_field(path).values, hf.values)
