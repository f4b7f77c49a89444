"""Uniform-grid sampling utilities shared by every numerical check.

Units are fixed to hbar = 2m = 1 throughout the package, so the
Hamiltonian reads H = p^2 + V = -d^2/dx^2 + V.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

#: parameter sets are plain name -> value maps (e.g. {"omega": 2.0, "b": 0.0})
ParamSet = dict


class NonFiniteValues(ValueError):
    """Raised when a grid evaluation produces NaN/inf.

    locations holds the offending x values, or (r, theta) pairs for a
    field on a 2D grid.
    """

    def __init__(self, message, locations=()):
        super().__init__(message)
        self.locations = tuple(
            tuple(float(c) for c in v) if isinstance(v, tuple) else float(v)
            for v in locations)


@dataclass(frozen=True)
class SampledFunction:
    """A function sampled on a uniform, strictly increasing grid.

    The grid must have at least 64 points and pass uniform_step; all values
    must be finite.
    """

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", v)
        if x.ndim != 1 or x.size < 64:
            raise ValueError("grid must be 1-D with at least 64 points")
        if v.shape != x.shape:
            raise ValueError("values must match grid shape")
        uniform_step(x)
        require_finite(x, v, "sampled values")

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    def derivative(self) -> np.ndarray:
        return derivative(self.values, self.h)


#: spacing error a uniform grid may carry, in units of eps * max|x|.
#: np.linspace computes point i as i*step + start, rounded twice, so each
#: point is within 1.5 eps*max|x| of its exact place and each spacing
#: within about 3.5 (at most 2.2 seen over 20000 random grids)
_UNIFORM_ULPS = 8


def uniform_step(x) -> float:
    """The step x[1] - x[0] of a uniform, strictly increasing 1-D grid.

    Uniform means every spacing is within _UNIFORM_ULPS * eps * max|x| of
    the mean spacing (x[-1] - x[0]) / (n - 1): a bound in ulps of the grid's
    largest |x|, which every np.linspace grid meets and a stretched grid
    does not.  Raises ValueError otherwise.  The stencils that take a step
    h (derivative, second_derivative) hold only on such grids.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("grid must be 1-D with at least 2 points")
    dx = np.diff(x)
    if not np.all(dx > 0):
        raise ValueError("grid must be strictly increasing")
    dx -= (x[-1] - x[0]) / (x.size - 1)
    tol = _UNIFORM_ULPS * np.finfo(float).eps * max(abs(x[0]), abs(x[-1]))
    if not np.max(np.abs(dx, out=dx)) <= tol:
        raise ValueError(f"grid spacing must be uniform to {_UNIFORM_ULPS} ulps "
                         "of the grid's largest |x|")
    return float(x[1] - x[0])


def make_grid(lo: float, hi: float, n: int) -> np.ndarray:
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"bad interval [{lo}, {hi}]")
    return np.linspace(lo, hi, n)


def require_finite(x, values, what="values"):
    """values as a float array, or NonFiniteValues listing the grid
    locations of any NaN/inf: the package's one NaN/inf gate, whose callers
    compute values under np.errstate(all="ignore") so that it alone reports.
    x is the grid, or the pair (R, TH) of a 2D grid, whose locations are then
    (r, theta) pairs; values has the grid's shape or stacks such fields."""
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    if np.any(bad):
        grid = x if isinstance(x, tuple) else (x,)
        bad = bad.reshape(-1, *np.shape(grid[0])).any(axis=0)
        points = [np.asarray(g)[bad] for g in grid]
        raise NonFiniteValues(f"{what} contain NaN/inf on grid",
                              list(zip(*points)) if isinstance(x, tuple) else points[0])
    return values


def derivative(values: np.ndarray, h: float) -> np.ndarray:
    """First derivative on a uniform grid.

    Five-point central stencil in the interior, 4th-order one-sided
    stencils on the two points nearest each edge.  The interior is
    (-v[i+2] + 8 v[i+1] - 8 v[i-1] + v[i-2]) / 12h, summed left to right
    in place in the output.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 5:
        raise ValueError("need at least 5 samples")
    d = np.empty_like(v)
    inner = d[2:-2]
    np.multiply(v[3:-1], 8, out=inner)
    inner -= v[4:]
    inner -= 8 * v[1:-3]
    inner += v[:-4]
    inner /= 12 * h
    d[0] = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * h)
    d[1] = (-3 * v[0] - 10 * v[1] + 18 * v[2] - 6 * v[3] + v[4]) / (12 * h)
    d[-2] = (3 * v[-1] + 10 * v[-2] - 18 * v[-3] + 6 * v[-4] - v[-5]) / (12 * h)
    d[-1] = (25 * v[-1] - 48 * v[-2] + 36 * v[-3] - 16 * v[-4] + 3 * v[-5]) / (12 * h)
    return d


def second_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second derivative: 4th-order central stencil, 2nd-order near edges."""
    v = np.asarray(values, dtype=float)
    if v.size < 7:
        raise ValueError("need at least 7 samples")
    d = np.empty_like(v)
    d[2:-2] = (-v[4:] + 16 * v[3:-1] - 30 * v[2:-2] + 16 * v[1:-3] - v[:-4]) / (12 * h * h)
    d[1] = (v[2] - 2 * v[1] + v[0]) / (h * h)
    d[-2] = (v[-1] - 2 * v[-2] + v[-3]) / (h * h)
    d[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / (h * h)
    d[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / (h * h)
    return d


def cumulative_panel_simpson(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Integral from x[0] to each point of x of a function sampled as w on x
    refined by its panel midpoints (x[0], the first midpoint, x[1], ...):
    Simpson's rule (dx_i/6)(w_i + 4 w_{i+1/2} + w_{i+1}) per panel, exact
    for cubics, summed by one cumulative sum."""
    out = np.empty(x.size)
    out[0] = 0.0
    panels = out[1:]
    np.add(w[:-1:2], w[2::2], out=panels)
    panels += 4 * w[1::2]
    panels *= np.diff(x) / 6
    np.cumsum(panels, out=panels)
    return out


def l2_norm(values: np.ndarray, x: np.ndarray) -> float:
    return float(np.sqrt(np.trapezoid(np.asarray(values) ** 2, np.asarray(x))))


def normalize(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    nrm = l2_norm(values, x)
    if nrm == 0 or not np.isfinite(nrm):
        raise ValueError("cannot normalize: zero or non-finite norm")
    return np.asarray(values) / nrm


#: rows of a block, whose values are formatted one column at a time: memory
#: stays flat on any table size, and _format_slots's temporaries stay small
#: enough to be reused from cache
_CSV_BLOCK_VALUES = 8192


def _cols(a, start, stop):
    """Columns start:stop of a row-contiguous 2-D uint8 array as one void
    item per row: numpy copies these far faster than a 2-D byte slice."""
    return np.ndarray(a.shape[:1], f"V{stop - start}", a, start, a.strides[:1])


@functools.cache
def _digit_tables():
    """Lookup tables of _format_slots, built on its first call.

    chunks[k], for k < 10000, is the four digits of k as one packed uint32;
    chunks[10000 + k] is the same with its trailing zeros as NUL bytes (all
    NUL for k = 0).  pow10[k] is float(10**k), correctly rounded.
    classes[e + 300] is the layout class of decimal exponent e, and
    widths[c] the bytes a slot of class c < 19 needs, the sign included:
    18..15 for fixed notation at e = -4..-1, 14 at e = 0..10 and 13 at
    e = 11 ('-0.000123456789012', '-1.23456789012', '-123456789012'), 18
    and 19 for a 2- or 3-digit exponent ('-1.23456789012e-300'), 2 for
    zero ('-0').
    """
    k = np.arange(10000)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1)
    full = (digits + ord("0")).astype(np.uint8)
    kept = np.maximum.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    trimmed = np.where(kept, full, 0).astype(np.uint8)
    chunks = np.concatenate([full, trimmed]).view(np.uint32).ravel()
    pow10 = np.array([float(10 ** j) for j in range(293)])
    e = np.arange(-300, 301)
    classes = np.where((e >= -4) & (e <= 11), e + 4, 16 + (np.abs(e) >= 100))
    widths = (18, 17, 16, 15) + (14,) * 11 + (13, 18, 19, 2)
    return chunks, pow10, classes.astype(np.uint8), widths


def _format_slots(v):
    """The values of a 1-D float array as '%.12g' text, in slots.

    Returns (slots, order): slots is a 1-D array of void items, one per
    value, and slots[i] holds the sign of v[order[i]] ('-' or NUL), then
    its text, padded with NUL bytes.  With the NUL bytes deleted, the text
    is byte-identical to formatting the value with Python's '%.12g' % v.
    A slot is as wide as the widest layout class among the values needs
    (the widths of _digit_tables, or the longest fallback text), so a
    column of a few classes carries fewer NUL bytes into the file.
    Each value v is scaled once: with e = floor(log10|v|), possibly off by
    one at a power of ten, y = |v|*10**(11-e) by one multiply (or one divide
    for a negative power) by float(10**k), which is correctly rounded.  Two
    roundings put y within 2.3e-4 of its exact value y*.  When
    1e11 - 0.04 <= y < 1e12 - 1 and y is more than 1e-3 from a rounding
    half, the exact '%.12g' digits are M = rint(y) at decimal exponent e:
    y* then rounds to the same integer as y, and if y* < 1e11 (e one too
    high), its 13th digit rounds 10*y* up to 1e12, which is M = 1e11 again.
    Every other value is formatted by '%.12g' % v itself: NaN and
    infinities, |v| outside [1e-280, 1e280], values near a 12-digit
    rounding half, and those whose e is one too low.  Zero is '0' or '-0'.

    Values are sorted by layout class -- fixed notation at e = -4..11,
    exponential with a 2- or 3-digit exponent, zero, fallback -- and their
    12 digits come from three 4-digit lookups in that order, trailing zeros
    as NUL, so that each class fills a contiguous run of slots by slice
    copies, '.' only where a digit follows.  The scaling steps run in
    place, and the sign is one byte gather.
    """
    chunks, pow10, classes, widths = _digit_tables()
    n = v.size
    a = np.abs(v)
    clipped = np.fmax(a, 1e-280)  # NaN -> 1e-280
    np.fmin(clipped, 1e280, out=clipped)
    e = np.log10(clipped)
    e = np.floor(e, out=e).astype(np.int64)
    y = pow10[np.maximum(11 - e, 0)]
    y *= clipped
    big = e > 11
    if big.any():
        y[big] = clipped[big] / pow10[e[big] - 11]
    m = np.rint(y)
    fast = np.less(y, 1e12 - 1)
    fast &= y >= 1e11 - 0.04
    fast &= clipped == a
    y -= m
    fast &= np.abs(y, out=y) < 0.499

    # classes 0..15: fixed notation at e = c - 4; 16, 17: exponential with
    # a 2- or 3-digit exponent; 18: zero; 19: fallback
    cls = classes[e + 300]
    cls[~fast] = 19
    cls[v == 0] = 18
    order = np.argsort(cls, kind="stable")
    bounds = np.searchsorted(cls[order], np.arange(21)).tolist()  # class c: bounds[c]:bounds[c+1]
    # the digits of the values that classes 0..17 lay out, sorted; a chunk
    # index gets 10000 (the trimmed chunk) where every digit after it is 0
    m = m[order[:bounds[18]]].astype(np.int64)
    hi = m // 100000000
    m -= hi * 100000000
    hi[m == 0] += 10000
    mid = m // 10000
    m -= mid * 10000
    mid[m == 0] += 10000
    m += 10000
    packed = np.empty((m.size, 3), np.uint32)
    packed[:, 0] = chunks[hi]
    packed[:, 1] = chunks[mid]
    packed[:, 2] = chunks[m]
    digits = packed.view(np.uint8)

    present = [c for c in range(20) if bounds[c] < bounds[c + 1]]
    if 19 in present:
        text = np.array(["%.12g" % f for f in v[order[bounds[19]:]].tolist()], "S")
    width = max([1 + text.itemsize if c == 19 else widths[c] for c in present], default=1)
    buf = np.zeros((n, width), np.uint8)
    for c in present:
        start, end = bounds[c], bounds[c + 1]
        out, d = buf[start:end], digits[start:end]
        x = c - 4
        if 0 <= x <= 11:
            full = (packed[start:end] | 0x30303030).view(np.uint8)  # NUL -> '0'
            _cols(out, 1, x + 2)[...] = _cols(full, 0, x + 1)
            if x < 11:
                np.minimum(d[:, x + 1], ord("."), out=out[:, x + 2])  # '.' before a digit
                _cols(out, x + 3, 14)[...] = _cols(d, x + 1, 12)
        elif x < 0:
            _cols(out, 1, 2 - x)[...] = np.frombuffer(b"0." + b"0" * (-x - 1), f"V{1 - x}")
            _cols(out, 2 - x, 14 - x)[...] = _cols(d, 0, 12)
        elif c < 18:
            out[:, 1] = d[:, 0]
            np.minimum(d[:, 1], ord("."), out=out[:, 2])
            _cols(out, 3, 14)[...] = _cols(d, 1, 12)
            out[:, 14] = ord("e")
            ex = e[order[start:end]]
            out[:, 15] = np.where(ex < 0, ord("-"), ord("+"))
            ex = np.abs(ex)
            for col in range(c + 1, 15, -1):
                out[:, col] = ex % 10 + ord("0")
                ex //= 10
        elif c == 18:
            out[:, 1] = ord("0")
        else:
            _cols(out, 1, 1 + text.itemsize)[...] = text.view(f"V{text.itemsize}")
    # the fallback text carries its own sign
    sign = np.signbit(v).view(np.uint8)
    sign *= ord("-")
    buf[:bounds[19], 0] = sign[order[:bounds[19]]]
    return _cols(buf, 0, width), order


def _row_blocks(shape, rows):
    """Index tuples that cut a C-order table of the given shape into
    consecutive blocks of at most `rows` rows (one row at the least), each
    a slice of a single axis."""
    inner = 1
    for axis in range(len(shape) - 1, -1, -1):
        if inner * shape[axis] > rows:
            break
        inner *= shape[axis]
    else:
        yield (...,)
        return
    step = max(1, rows // inner)
    for lead in np.ndindex(shape[:axis]):
        for start in range(0, shape[axis], step):
            yield lead + (slice(start, start + step), ...)


def write_csv(path, header, columns, eol="\r\n") -> None:
    """CSV of numeric columns under a header row.

    The columns broadcast to one table shape, whose cells are the rows in
    C order: the axes r[:, None] and theta[None, :] of a tensor-product
    grid write its meshgrids, and a column that cannot broadcast raises
    ValueError.  Every value is written as %.12g, byte-identical to
    Python's '%.12g' % v (see _format_slots).  A column smaller than the
    table is formatted once, at its own shape and slot width, and its text
    is repeated into the rows; full-size columns are formatted block by
    block, so the memory a write takes does not grow with the table.  Each
    block's rows are laid out with one cell width per column, the width of
    its slots, and written with their NUL padding deleted.  The default
    line ending is the csv module's RFC-4180 one.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    if not columns:
        raise ValueError("a CSV table needs at least one column")
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    size = math.prod(shape)
    views = []
    for c in columns:
        if c.size < size:  # formatted once, at its own shape
            slots, order = _format_slots(c.ravel())
            text = np.empty(c.size, slots.dtype)
            text[order] = slots
            c = text.reshape(c.shape)
        views.append(np.broadcast_to(c, shape))
    head = (",".join(header) + eol).encode()
    eol = eol.encode()
    with open(path, "wb") as fh:
        fh.write(head)
        if not size:
            return
        for block in _row_blocks(shape, _CSV_BLOCK_VALUES):
            parts = [v[block] for v in views]
            cut, n = parts[0].shape, parts[0].size
            # a full-size column is formatted block by block
            cells = [_format_slots(p.ravel()) if p.dtype == float else (p, None) for p in parts]
            width = sum(c.itemsize for c, _ in cells) + len(cells) - 1 + len(eol)
            buf = np.empty((n, width), np.uint8)
            at = 0
            for c, order in cells:
                if at:
                    buf[:, at] = ord(",")
                    at += 1
                dest = _cols(buf, at, at + c.itemsize)
                if order is None:
                    dest.reshape(cut)[...] = c
                else:
                    dest[order] = c
                at += c.itemsize
            if eol:
                _cols(buf, at, width)[...] = np.frombuffer(eol, f"V{len(eol)}")
            fh.write(buf.tobytes().translate(None, b"\0"))


def fix_sign(values: np.ndarray) -> np.ndarray:
    """Flip sign so the leftmost interior maximum of |psi| is positive.

    The maximum is the first interior point at least as large as both
    neighbours and above 1% of the peak; without one, the peak itself.
    Makes independently computed eigenfunctions directly comparable.
    """
    v = np.asarray(values, dtype=float)
    a = np.abs(v)
    floor = 0.01 * a.max()
    mid = a[1:-1]
    # interior local maxima above the floor; a NaN compares false, as in a scan
    peaks = np.flatnonzero((mid >= a[:-2]) & (mid >= a[2:]) & (mid > floor))
    idx = peaks[0] + 1 if peaks.size else np.argmax(a)
    return -v if v[idx] < 0 else v


def count_nodes(values: np.ndarray) -> int:
    """Count interior sign changes, ignoring samples below 1e-4 of the peak."""
    v = np.asarray(values, dtype=float)
    big = v[np.abs(v) > 1e-4 * np.abs(v).max()]
    if big.size < 2:
        return 0
    return int(np.sum(np.sign(big[1:]) != np.sign(big[:-1])))
