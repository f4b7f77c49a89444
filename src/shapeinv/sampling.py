"""Uniform-grid sampling utilities shared by every numerical check.

Units are fixed to hbar = 2m = 1 throughout the package, so the
Hamiltonian reads H = p^2 + V = -d^2/dx^2 + V.
"""

from __future__ import annotations

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

    The grid must have at least 64 points and spacing uniform to a relative
    1e-12; all values must be finite.
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
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise ValueError("grid must be strictly increasing")
        h = dx[0]
        if np.max(np.abs(dx - h)) > 1e-12 * max(abs(h), 1.0):
            raise ValueError("grid spacing must be uniform to relative 1e-12")
        if not np.all(np.isfinite(v)):
            bad = x[~np.isfinite(v)]
            raise NonFiniteValues("sampled values contain NaN/inf", bad)

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    def derivative(self) -> np.ndarray:
        return derivative(self.values, self.h)


def make_grid(lo: float, hi: float, n: int) -> np.ndarray:
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"bad interval [{lo}, {hi}]")
    return np.linspace(lo, hi, n)


def require_finite(x, values, what="values"):
    """Raise NonFiniteValues listing grid locations of any NaN/inf.

    x is the grid, or the pair (R, TH) of a 2D grid, whose locations are
    then reported as (r, theta) pairs.
    """
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    if np.any(bad):
        if isinstance(x, tuple):
            locations = list(zip(*(np.asarray(g)[bad].tolist() for g in x)))
        else:
            locations = np.asarray(x)[bad]
        raise NonFiniteValues(f"{what} contain NaN/inf on grid", locations)
    return values


def derivative(values: np.ndarray, h: float) -> np.ndarray:
    """First derivative on a uniform grid.

    Five-point central stencil in the interior, 4th-order one-sided
    stencils on the two points nearest each edge.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 5:
        raise ValueError("need at least 5 samples")
    d = np.empty_like(v)
    d[2:-2] = (-v[4:] + 8 * v[3:-1] - 8 * v[1:-3] + v[:-4]) / (12 * h)
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


def _simpson_panels(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Simpson integral over the first interval of each three-point window."""
    x21 = dx[:-1]
    x32 = dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] + coeff3 * y[2:])


def cumulative_integral(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative composite-Simpson antiderivative, zero at x[0].

    A numpy port of scipy.integrate.cumulative_simpson(values, x=x,
    initial=0.0), in its operation order, so every value is bit-identical
    to it; keeping it here spares every sip command the scipy.integrate
    import.  scipy is loaded only for the oracle eigensolve (scipy.linalg)
    and for custom-seed quadrature and integration (scipy.interpolate,
    scipy.integrate).  Needs at least 3 samples on a strictly increasing
    grid.
    """
    y = np.asarray(values, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.ndim != 1 or x.shape != y.shape:
        raise ValueError("values and grid must be 1-D of equal length")
    if y.size < 3:
        raise ValueError("need at least 3 samples")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ValueError("grid must be strictly increasing")
    # intervals 0, 2, 4, ... integrate the three-point window that starts
    # at them; the others, and the last, the window that ends at them (the
    # same formula on the reversed grid)
    forward = _simpson_panels(y, dx)
    backward = _simpson_panels(y[::-1], dx[::-1])[::-1]
    panels = np.empty(y.size - 1)
    panels[:-1:2] = forward[::2]
    panels[1::2] = backward[::2]
    panels[-1] = backward[-1]
    total = np.cumsum(panels)
    total += 0.0  # as scipy adds `initial`: turns -0.0 into 0.0
    return np.concatenate(([0.0], total))


def l2_norm(values: np.ndarray, x: np.ndarray) -> float:
    return float(np.sqrt(np.trapezoid(np.asarray(values) ** 2, np.asarray(x))))


def normalize(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    nrm = l2_norm(values, x)
    if nrm == 0 or not np.isfinite(nrm):
        raise ValueError("cannot normalize: zero or non-finite norm")
    return np.asarray(values) / nrm


#: rows formatted per write: fast like one whole-file join, without its memory
_CSV_BLOCK_ROWS = 4096


def write_csv(path, header, columns, eol="\r\n") -> None:
    """CSV of equal-length numeric columns under a header row.

    Every value is written as %.12g, arrays in row-major order.  The
    default line ending is the csv module's RFC-4180 one.
    """
    table = np.column_stack([np.asarray(c, dtype=float).ravel() for c in columns])
    row = ",".join(["%.12g"] * table.shape[1]) + eol
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + eol)
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


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
