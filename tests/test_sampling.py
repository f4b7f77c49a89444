import math
import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapeinv import multidim, oracle, radial, sampling, spectral
from shapeinv.catalog import get_family
from shapeinv.sampling import (SampledFunction, cumulative_panel_simpson, derivative, fix_sign,
                               normalize, uniform_step, write_csv)

LENGTHS = [3, 4, 5, 6, 7, 8, 64, 65, 1000, 1001, 4096, 4097, 40000, 40001]


def _grids(n, rng):
    yield np.linspace(0.0, 1.0, n)
    yield np.linspace(-3.7, 12.1, n)                # offset
    yield 1e3 * np.linspace(0.25, 0.5, n)           # scaled
    yield np.cumsum(rng.uniform(0.5, 1.5, n)) - 7.0  # unequal steps


def _integrands(x, rng):
    n = x.size
    yield rng.uniform(-1.0, 1.0, n)
    yield np.exp(rng.uniform(np.log(1e-5), np.log(1e5), n)) * rng.choice([-1.0, 1.0], n)
    yield np.sin(3.0 * x) * np.exp(-0.1 * x * x)
    yield np.zeros(n)
    yield -np.zeros(n)
    yield np.full(n, -5e-324)  # panel integrals underflow to -0.0


@pytest.mark.parametrize("n", LENGTHS)
def test_cumulative_panel_simpson_matches_scipy(n):
    from scipy.integrate import cumulative_simpson

    rng = np.random.default_rng(n)
    for x in _grids(n, rng):
        fine = np.empty(2 * n - 1)
        fine[::2] = x
        fine[1::2] = 0.5 * (x[:-1] + x[1:])
        for y in _integrands(fine, rng):
            ours = cumulative_panel_simpson(y, x)
            ref = cumulative_simpson(y, x=fine, initial=0.0)[::2]
            assert ours.shape == (n,)
            # the same rule, summed over n - 1 panels here and 2n - 2 half
            # panels in scipy: each running sum's rounding is bounded by
            # about (3n + a few) (eps * int|y| + the smallest subnormal)
            scale = cumulative_simpson(np.abs(y), x=fine, initial=0.0)[::2]
            tol = 4 * n * (np.finfo(float).eps * scale + np.finfo(float).smallest_subnormal)
            assert np.all(np.abs(ours - ref) <= tol), (n, x[:2], y[:2])


@pytest.mark.parametrize("n", [5, 6, 64, 2001, 20001])
def test_derivative_is_bit_identical_to_its_stencil_expression(n):
    # the interior is summed in place; this is the expression it replaced
    rng = np.random.default_rng(n)
    x = np.linspace(-3.0, 5.0, n)
    h = float(x[1] - x[0])
    for v in (rng.uniform(-1.0, 1.0, n), np.exp(rng.uniform(-300.0, 300.0, n)),
              np.sin(3.0 * x), np.zeros(n), -np.zeros(n)):
        ref = (-v[4:] + 8 * v[3:-1] - 8 * v[1:-3] + v[:-4]) / (12 * h)
        np.testing.assert_array_equal(derivative(v, h)[2:-2].view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("lo,hi,n", [
    (1e-3, 1e4, 20001),
    (-1e5, 1e5, 20001),
    (0.01, 3100.0, 20001),  # a Coulomb-like grid: inner wall near 0, outer far out
    (0.01, 3100.0, 4097),
    (-8.0, 8.0, 64),
    (1e6, 1e6 + 1.0, 1001),  # spacing far below the largest |x|
])
def test_uniform_step_accepts_linspace_grids(lo, hi, n):
    x = np.linspace(lo, hi, n)
    assert uniform_step(x) == x[1] - x[0]
    SampledFunction(x, np.ones(n))


#: a sinh-stretched grid: strictly increasing, not uniform
_STRETCHED = np.sinh(np.linspace(-3.0, 3.0, 2001))


@pytest.mark.parametrize("x", [
    [0.0],
    [[0.0, 1.0], [2.0, 3.0]],
    [0.0, 1.0, 1.0],
    [0.0, 2.0, 1.0, 3.0],
    [0.0, 1.0, np.nan, 3.0],
    np.r_[np.linspace(0.0, 1.0, 100), 1.0 + 1e-9 + np.linspace(0.01, 1.0, 100)],
    _STRETCHED,
])
def test_uniform_step_refuses_other_grids(x):
    with pytest.raises(ValueError):
        uniform_step(np.asarray(x, dtype=float))


def test_every_stencil_user_refuses_a_stretched_grid():
    # on this grid the ladder's psi1 of the oscillator was off by 1.8e-2
    # (7e-10 on the uniform grid of the same ends and size), with no error,
    # when the ladder raised states by stencils that took h = x[1] - x[0]
    fam = get_family("shifted-oscillator")
    p = {"omega": 2.0, "b": 0.0}
    x = _STRETCHED
    psi = spectral.Wavefunction(x=x, values=np.exp(-x * x / 2))
    W = fam.recipe(p).W
    calls = [
        lambda: SampledFunction(x, np.ones_like(x)),
        lambda: spectral.ground_state(W, x),
        lambda: spectral.apply_A(W, psi),
        lambda: spectral.apply_Adagger(W, psi),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="uniform"):
            call()
    r = 0.5 + np.sinh(np.linspace(0.0, 3.0, 2001))
    with pytest.raises(ValueError, match="uniform"):
        radial.radial_intertwine(1, r, np.sin(r) / r)


def test_ladder_holds_on_a_stretched_grid():
    # the ladder evaluates closed forms and differentiates nothing, so a
    # stretched grid serves: the oscillator's states are the Hermite
    # functions, with unit trapezoid norm on the grid and n nodes
    fam = get_family("shifted-oscillator")
    x = _STRETCHED
    wfs = spectral.ladder_wavefunctions(fam, {"omega": 2.0, "b": 0.0}, 5, x)
    assert [w.nodes() for w in wfs] == [0, 1, 2, 3, 4]
    for n, w in enumerate(wfs):
        assert abs(np.trapezoid(w.values**2, x) - 1.0) < 1e-12
        hermite = np.polynomial.hermite.hermval(x, [0] * n + [1]) * np.exp(-x * x / 2)
        want = fix_sign(normalize(hermite, x))
        assert np.max(np.abs(w.values - want)) < 1e-12, n


def _fix_sign_loop(values):
    """The scan fix_sign replaced, kept as its reference."""
    v = np.asarray(values, dtype=float)
    a = np.abs(v)
    floor = 0.01 * a.max()
    idx = None
    for i in range(1, v.size - 1):
        if a[i] >= a[i - 1] and a[i] >= a[i + 1] and a[i] > floor:
            idx = i
            break
    if idx is None:
        idx = int(np.argmax(a))
    return -v if v[idx] < 0 else v


def _assert_fix_sign_matches_loop(values):
    try:
        want = _fix_sign_loop(values)
    except ValueError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            fix_sign(values)
        return
    got = fix_sign(values)
    # int64 views compare every bit: NaN payloads and the sign of zero too
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


# few magnitudes, either sign, so that draws repeat them into plateaus whose
# sign changes; 0.01 is exactly the 1% floor under a peak of 1
_FEW = st.builds(lambda m, s: s * m, st.sampled_from([0.0, 0.01, 1.0, 2.0, np.nan, np.inf]),
                 st.sampled_from([1.0, -1.0]))
_ENTRY = st.one_of(_FEW, st.floats(allow_nan=True, allow_infinity=True))
_ARRAYS = st.one_of(
    st.lists(_FEW, max_size=64),
    st.lists(_ENTRY, max_size=64),
    st.tuples(_ENTRY, st.integers(0, 64)).map(lambda t: [t[0]] * t[1]),  # all equal
)


@settings(max_examples=500)
@given(_ARRAYS)
def test_fix_sign_matches_the_loop(values):
    _assert_fix_sign_matches_loop(np.array(values, dtype=float))


@pytest.mark.parametrize("values", [[], [-1.0], [0.0, -3.0], [np.nan, -1.0, np.nan],
                                    [-0.0, -0.0, -0.0], [0.0, -1.0, -1.0, -1.0, 0.0],
                                    [1.0, -1.0, 0.0], [0.0, 1.0, -1.0, 0.0],
                                    [0.0, -0.01, 0.0, 1.0]])
def test_fix_sign_edge_cases_match_the_loop(values):
    _assert_fix_sign_matches_loop(np.array(values, dtype=float))


@pytest.mark.parametrize("n", [8000, 20001])
def test_fix_sign_matches_the_loop_on_eigenstates(n):
    fam = get_family("morse")
    p = fam.reference_params
    res = oracle.solve(lambda x: fam.W(p, x) ** 2 - fam.Wprime(p, x), fam.domain(p),
                       oracle.OracleConfig(n_levels=4))
    lo, hi = fam.domain(p).window
    ladder = spectral.ladder_wavefunctions(fam, p, 4, np.linspace(lo, hi, n))
    for psi in [*res.wavefunctions, *ladder]:
        for values in (psi.values, -psi.values):
            _assert_fix_sign_matches_loop(values)


def _percent_csv(path, header, columns, eol="\r\n"):
    """The writer write_csv replaced: Python's % operator, value by value."""
    table = np.column_stack([np.asarray(c, dtype=float).ravel() for c in columns])
    row = ",".join(["%.12g"] * table.shape[1]) + eol
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + eol)
        for start in range(0, len(table), 4096):
            block = table[start:start + 4096]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _assert_same_csv(tmp_path, columns, eol):
    header = [f"c{i}" for i in range(len(columns))]
    write_csv(tmp_path / "new.csv", header, columns, eol)
    _percent_csv(tmp_path / "old.csv", header, columns, eol)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _float_of_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_EDGES = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2250738585072014e-308,
          math.nextafter(2.2250738585072014e-308, 0), 1.7976931348623157e308]
_EDGES += [math.nextafter(b, t) for b in (1e-280, 1e280) for t in (0, math.inf)] + [1e-280, 1e280]

_VALUES = st.one_of(
    st.integers(0, 2**64 - 1).map(_float_of_bits),
    st.sampled_from(_EDGES),
    # powers of ten and their neighbours
    st.tuples(st.integers(-323, 308), st.sampled_from([0, math.inf, None])).map(
        lambda t: 10.0 ** t[0] if t[1] is None else math.nextafter(10.0 ** t[0], t[1])),
    # exact decimal halves, such as k/8
    st.tuples(st.integers(-2**40, 2**40), st.integers(0, 12)).map(lambda t: t[0] / 2 ** t[1]),
    # within 1e-3 of a 12-digit rounding half, at any scale; steps of 2^-13,
    # the spacing of floats near 1e11, put most of them inside the 2.3e-4
    # that scaling by a power of ten may move a value
    st.tuples(st.integers(10**11, 10**12 - 1), st.integers(-8, 8), st.integers(-320, 296)).map(
        lambda t: (t[0] + 0.5 + t[1] / 8192) * 10.0 ** t[2]),
).flatmap(lambda v: st.sampled_from([v, -v]))


@st.composite
def _tables(draw):
    ncols = draw(st.integers(1, 5))
    rows = draw(st.integers(0, 12))
    values = draw(st.lists(_VALUES, min_size=rows * ncols, max_size=rows * ncols))
    return [np.array(values[i::ncols], dtype=float) for i in range(ncols)]


@settings(max_examples=300, deadline=None)
@given(_tables(), st.sampled_from(["\r\n", "\n"]), st.sampled_from([1, 7, 8192]))
def test_write_csv_is_byte_identical_to_percent_formatting(tmp_path_factory, columns, eol, block):
    # small blocks put rows of one table through several calls
    directory = tmp_path_factory.getbasetemp() / "write_csv"
    directory.mkdir(exist_ok=True)
    with mock.patch.object(sampling, "_CSV_BLOCK_VALUES", block):
        _assert_same_csv(directory, columns, eol)


def test_write_csv_near_rounding_halves_is_byte_identical_to_percent_formatting(tmp_path):
    # values that a 12-digit mantissa rounds up or down by less than the
    # error of scaling by a power of ten: the fallback margin decides them
    rng = np.random.default_rng(12)
    halves = rng.integers(10**11, 10**12, 20000) + 0.5 + rng.integers(-2, 3, 20000) / 8192
    values = halves * 10.0 ** rng.integers(-320, 297, 20000)
    _assert_same_csv(tmp_path, [values, -values[::-1]], "\n")


def test_write_csv_fields_table_is_byte_identical_to_percent_formatting(tmp_path):
    chi = multidim.laplace_seed([(0, 2.0, 0.0), (1, 1.0, 0.0)])
    grid = multidim.make_grid2d(chi.region, 256, 256)
    vminus, vplus = multidim.partner_fields(chi, 2.0, grid, mu=1.0)[:2]
    _assert_same_csv(tmp_path, [*grid, vminus, vplus], "\r\n")
    # the 3D writer passes the axes, which the writer broadcasts to the cells
    multidim.fields_to_csv(tmp_path / "fields.csv", grid, vminus, vplus)
    assert (tmp_path / "fields.csv").read_bytes() == (tmp_path / "old.csv").read_bytes().replace(
        b"c0,c1,c2,c3", b"r,theta,Vminus,Vplus", 1)


def _every_layout_class():
    """Values of each layout class of sampling._format_slots, with both
    signs: fixed notation at e = -4..11, exponents of 2 and 3 digits,
    zero, and fallbacks -- NaN, infinities, a subnormal, |v| above 1e280,
    12-digit rounding halves and the neighbours of powers of ten."""
    fixed = [1.23456789012345 * 10.0 ** e for e in range(-4, 12)]
    fixed += [10.0 ** e for e in range(-4, 12)] + [0.5, 2.5e-3, 1e11 + 0.5]
    exponential = [2.5e-5, 6.02214076e23, 1e-99, 3.3e99, 1.5e-100, 7.77e123, 1e-280, 1e280]
    fallback = [math.nan, math.inf, 5e-324, 1e300, 123456789012.5, 1.234567890125e-7,
                math.nextafter(1e-5, 0), math.nextafter(1e23, 0), math.nextafter(1e23, math.inf)]
    values = fixed + exponential + [0.0] + fallback
    return np.array(values + [-v for v in values])


@pytest.mark.parametrize("block", [1, 7, 8192])
def test_write_csv_lays_out_every_class_in_one_block(tmp_path, block):
    # at 8192 the whole table is one block, so each full column holds every
    # class beside the broadcast axes; 1 and 7 cut it into rows and runs
    values = _every_layout_class()
    r = np.linspace(0.5, 1.5, values.size // 2)[:, None]
    theta = np.array([[-2e-3, 3e5]])
    columns = [r, theta, values.reshape(-1, 2), values[::-1].reshape(-1, 2)]
    header = ["r", "theta", "v", "reversed"]
    with mock.patch.object(sampling, "_CSV_BLOCK_VALUES", block):
        write_csv(tmp_path / "new.csv", header, columns)
    _percent_csv(tmp_path / "old.csv", header, np.broadcast_arrays(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@st.composite
def _broadcast_tables(draw):
    """Columns that broadcast to one table shape: scalars, (n,), an (n, 1)
    axis against a (1, m) one, three axes, and full columns among them.
    Each keeps some axes of a drawn shape and sets the others to 1."""
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kept = draw(st.lists(st.booleans(), min_size=len(shape), max_size=len(shape)))
        dropped = draw(st.integers(0, len(shape)))  # leading axes a column may omit
        own = tuple(n if keep else 1 for n, keep in zip(shape, kept))[dropped:]
        size = math.prod(own)
        values = draw(st.lists(_VALUES, min_size=size, max_size=size))
        columns.append(np.array(values, dtype=float).reshape(own))
    return columns


@settings(max_examples=200, deadline=None)
@given(_broadcast_tables(), st.sampled_from(["\r\n", "\n"]), st.sampled_from([1, 7, 8192]))
def test_write_csv_broadcasts_columns_to_the_table(tmp_path_factory, columns, eol, block):
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    directory = tmp_path_factory.getbasetemp() / "write_csv_broadcast"
    directory.mkdir(exist_ok=True)
    header = [f"c{i}" for i in range(len(columns))]
    explicit = [np.broadcast_to(c, shape) for c in columns]
    with mock.patch.object(sampling, "_CSV_BLOCK_VALUES", block):
        write_csv(directory / "broadcast.csv", header, columns, eol)
        write_csv(directory / "explicit.csv", header, explicit, eol)
    _percent_csv(directory / "old.csv", header, explicit, eol)
    text = (directory / "broadcast.csv").read_bytes()
    assert text == (directory / "explicit.csv").read_bytes()
    assert text == (directory / "old.csv").read_bytes()
    assert text.count(eol.encode()) == 1 + math.prod(shape)


@pytest.mark.parametrize("columns", [
    [np.zeros(3), np.zeros(4)],
    [np.zeros((2, 3)), np.zeros(6)],  # equal sizes, but the shapes do not broadcast
    [np.zeros((4, 1)), np.zeros((1, 3)), np.zeros((2, 3))],
])
def test_write_csv_refuses_columns_that_do_not_broadcast(tmp_path, columns):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", [f"c{i}" for i in range(len(columns))], columns)
    assert not (tmp_path / "t.csv").exists()


def test_write_csv_memory_stays_flat_on_a_large_table(tmp_path):
    # 1024 x 512 cells, about 15 MB of text: the writer holds blocks of it,
    # and the two axes once formatted, never the whole table
    r = np.linspace(0.5, 1.5, 1024)[:, None]
    theta = np.linspace(0.3, 2.8, 512)[None, :]
    field = np.sin(r * theta) / r
    tracemalloc.start()
    try:
        write_csv(tmp_path / "t.csv", ["r", "theta", "V"], [r, theta, field])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "t.csv").stat().st_size > 15e6
    assert peak < 4e6
