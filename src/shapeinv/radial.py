"""Factorization of measure-weighted radial operators and Bessel checks.

The operator -(1/f) d/dx (f d/dx) + V factorizes through a function Q
solving the weighted Riccati relation

    Q^2 - (1/f) d(f Q)/dx = V - E,

and partner potentials can be defined in more than one way.  Both
displayed schemes are implemented and compared:

- weighted scheme:   V_pm = Q^2 +- (1/f) d(f Q)/dx = Q^2 +- [Q' + (f'/f) Q]
- product scheme:    factor the operator as C B with
                     B = d/dx + Q and C = -d/dx - f'/f + Q, giving
                     V_minus = Q^2 - Q' - Q f'/f
                     V_plus  = Q^2 + Q' - Q f'/f - (log f)''

For f = 1 both schemes collapse to the ordinary partners W^2 -+ W'.

The flagship application is the free radial equation: f = r^2 and
Q = (ell+1)/r give V_minus = ell(ell+1)/r^2, V_plus = ell(ell-1)/r^2, and
B psi = psi' + ((ell+1)/r) psi = r^(-(ell+1)) d/dr (r^(ell+1) psi) lowers
the spherical Bessel index by one.  The module carries its own spherical
Bessel oracle: j_ell by downward (Miller) recurrence renormalized against
the closed forms j_0 = sin(r)/r or j_1, n_ell by upward recurrence, so the
intertwining claim is checked against values that share nothing with the
operator code.  It takes a scalar r or an array of r and runs one
recurrence sweep over all points, evaluating the closed forms of the point
set once per call.  spherical_bessel_j runs that sweep for the j rows of
several degrees at once, each with the bits the oracle gives it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sampling import derivative, require_finite, uniform_step, write_csv

__all__ = [
    "MeasureWeight",
    "GeneralizedFactorization",
    "r_squared_weight",
    "generalized_qhj_residual",
    "generalized_partners",
    "radial_intertwine",
    "spherical_bessel_oracle",
    "spherical_bessel_j",
    "intertwine_to_csv",
]

SCHEMES = ("weighted", "product-CB")


@dataclass(frozen=True)
class MeasureWeight:
    """Positive weight f with its log-derivative forms.

    logf_prime = f'/f and logf_second = (log f)'' must be supplied in
    closed form.
    """

    f: Callable
    logf_prime: Callable
    logf_second: Callable


def r_squared_weight() -> MeasureWeight:
    return MeasureWeight(
        f=lambda r: np.asarray(r, float) ** 2,
        logf_prime=lambda r: 2.0 / np.asarray(r, float),
        logf_second=lambda r: -2.0 / np.asarray(r, float) ** 2,
    )


@dataclass(frozen=True)
class GeneralizedFactorization:
    Q: Callable
    Qprime: Callable  # analytic derivative of Q
    weight: MeasureWeight
    scheme: str = "weighted"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")


def _sample(fac: GeneralizedFactorization, grid):
    """(x, Q, Q', f'/f) on the grid, where the weight f must be positive."""
    x = np.asarray(grid, dtype=float)
    if np.min(np.asarray(fac.weight.f(x), dtype=float)) <= 0:
        raise ValueError("weight must be positive on the grid")
    return x, *(np.asarray(g(x), dtype=float) for g in (fac.Q, fac.Qprime, fac.weight.logf_prime))


def generalized_qhj_residual(fac: GeneralizedFactorization, V, E: float, grid) -> float:
    """max |Q^2 - Q' - (f'/f) Q - V + E| over the grid (analytic derivatives).

    Raises sampling.NonFiniteValues naming the grid points where the
    residual is NaN or inf, such as a pole of Q or V on the grid.
    """
    with np.errstate(all="ignore"):  # require_finite reports a NaN/inf
        x, q, qp, lfp = _sample(fac, grid)
        res = q * q - qp - lfp * q - V(x) + E
    return float(np.max(np.abs(require_finite(x, res, "residual field"))))


def generalized_partners(fac: GeneralizedFactorization, grid):
    """Sampled (V_minus, V_plus) under the factorization's scheme."""
    x, q, qp, lfp = _sample(fac, grid)
    if fac.scheme == "weighted":
        measure_term = qp + lfp * q
        return q * q - measure_term, q * q + measure_term
    # product-CB
    vminus = q * q - qp - q * lfp
    vplus = q * q + qp - q * lfp - np.asarray(fac.weight.logf_second(x), dtype=float)
    return vminus, vplus


def radial_intertwine(ell: int, r, psi) -> np.ndarray:
    """B psi = psi' + ((ell+1)/r) psi = r^(-(ell+1)) d/dr (r^(ell+1) psi).

    psi holds the values on the grid r, and the result is B psi there, an
    array of the same shape, not normalized.  4th-order central differences
    in the interior, one-sided at the edges.  The grid must stay strictly
    positive and pass sampling.uniform_step.
    """
    if ell < 1:
        raise ValueError("intertwining down needs ell >= 1")
    r = np.asarray(r, dtype=float)
    if r[0] <= 0:
        raise ValueError("grid must not touch r = 0")
    h = uniform_step(r)
    return derivative(psi, h) + (ell + 1.0) / r * psi


# ---------------------------------------------------------------------------
# spherical Bessel oracle
# ---------------------------------------------------------------------------

def _miller_down(top, r: np.ndarray, margin: int) -> np.ndarray:
    """Unscaled rows of Miller's recurrence, a column per point: rows 0
    and 1 hold j_0 and j_1, and row 2 holds j_top for the points whose
    degree top (an array, one per point) is 2 or above.

    Each point starts at its own index top + margin + ceil(r) with
    j_start = 1e-30, j_start+1 = 0; the sweep runs down from the largest
    start and leaves a point at exactly 0 until its start is reached.  The
    rows are computed in place and only two more running rows are held,
    and a column whose value passes 1e250 is divided through on its own,
    so every column holds the same bits as a recurrence run for that point
    alone.
    """
    start = top + margin + np.ceil(r).astype(int)
    starts = set(start.tolist())
    rows = np.zeros((3, r.size))
    if not r.size:
        return rows
    tops = set(top.tolist()) if top.max() >= 2 else ()
    free = [np.zeros(r.size), np.empty(r.size), np.empty(r.size)]
    upper, cur = free[0], free[0]  # j_{l+1}, j_l
    for l in range(max(starts) + 1, 0, -1):
        # j_{l-1} = (2l+1)/r j_l - j_{l+1}, into its row or a free buffer
        low = rows[l - 1] if l - 1 < 2 else next(
            b for b in free if b is not upper and b is not cur)
        np.divide(2 * l + 1, r, out=low)
        low *= cur
        low -= upper
        if l - 1 in starts:
            low[start == l - 1] = 1e-30
        if low.max() > 1e250 or low.min() < -1e250:  # renormalize to dodge overflow
            big = np.abs(low) > 1e250
            scale = low[big]
            rows[:, big] /= scale
            for run in (cur, low):
                if run.base is not rows:
                    run[big] /= scale
        if l - 1 in tops:
            at = top == l - 1
            rows[2, at] = low[at]
        upper, cur = cur, low
    return rows


def _positive_points(r):
    """r as a flat float array of positive points, and its original shape."""
    r = np.asarray(r, dtype=float)
    shape = r.shape
    r = r.reshape(-1)
    if not np.all(r > 0):
        raise ValueError("r must be positive")
    return r, shape


def _check_degree(ell) -> int:
    """ell as an int, if it is an integral value within 0..25 (2.0 is
    degree 2; 2.5 is refused rather than truncated)."""
    if not (0 <= ell <= 25 and ell == int(ell)):
        raise ValueError(f"ell must be an integer within 0..25, got {ell}")
    return int(ell)


def _closed_forms(r):
    """sin(r), cos(r), r**2 and the closed forms j_0, j_1 at the points of a
    flat array r > 0, as (sin, cos, r2, pins).

    sin, cos and r**2 come from libm one point at a time: numpy's SIMD
    sin/cos and its r*r may round a last bit differently, and the values
    must hold the bits of the scalar closed forms on every machine.
    pins = (on_j0, pin, exact, tol) is what _miller_j renormalizes and
    checks against: whichever of j_0 = sin(r)/r and j_1 = sin(r)/r^2 -
    cos(r)/r is larger in magnitude (pinning to j_0 alone blows up at the
    zeros of sin(r)), the other one, and 1e-14 of the larger.
    """
    xs = r.tolist()
    sin = np.fromiter(map(math.sin, xs), float, r.size)
    cos = np.fromiter(map(math.cos, xs), float, r.size)
    r2 = np.fromiter(map(math.pow, xs, itertools.repeat(2.0)), float, r.size)
    j0e = sin / r
    j1e = sin / r2 - cos / r
    tol = 1e-14 * np.maximum(np.abs(j0e), np.abs(j1e))
    on_j0 = np.abs(j0e) >= np.abs(j1e)
    pin = np.where(on_j0, j0e, j1e)
    exact = np.where(on_j0, j1e, j0e)
    return sin, cos, r2, (on_j0, pin, exact, tol)


def _miller_j(ell, r, pins) -> np.ndarray:
    """j_ell at the points of a flat r, renormalized against the closed
    forms pins of _closed_forms; ell is one degree or one per point.

    Each point sweeps down from top = max(ell, 1), keeping j_0, j_1 and
    j_top, and takes the row of its own degree.  Its start index is
    top + margin + ceil(r) with margin 16; the margin doubles, up to 256
    and for the failing points only, until the recurrence reproduces the
    closed form it was not pinned to within its tolerance: a fixed margin
    loses accuracy as r grows and jumps discontinuously with ceil(r), which
    matters once the values get differentiated.
    """
    on_j0, pin, exact, tol = pins
    ell = np.broadcast_to(ell, r.shape)
    top = np.maximum(ell, 1)
    margin = 16
    j = _miller_down(top, r, margin)
    j *= pin / np.where(on_j0, j[0], j[1])
    todo = np.flatnonzero(~(np.abs(np.where(on_j0, j[1], j[0]) - exact) <= tol))
    while todo.size and margin < 256:
        margin *= 2
        rows = _miller_down(top[todo], r[todo], margin)
        pinned = on_j0[todo]
        rows *= pin[todo] / np.where(pinned, rows[0], rows[1])
        j[:, todo] = rows
        check = np.where(pinned, rows[1], rows[0])
        todo = todo[~(np.abs(check - exact[todo]) <= tol[todo])]
    return j[np.minimum(ell, 2), np.arange(r.size)]


def spherical_bessel_j(ells, r) -> np.ndarray:
    """j_ell at r > 0 for each degree of ells (each within 0..25), stacked:
    row i has shape(r) and holds j_{ells[i]}.

    The distinct degrees run as the columns of one Miller sweep, each
    column starting, renormalizing and doubling its margin as its own
    sweep would, so row i holds the bits of
    spherical_bessel_oracle(ells[i], r)[0].  Each column keeps only j_0,
    j_1 and its own row.  The closed forms are evaluated once for the
    whole call, and no n rows are built.
    """
    r, shape = _positive_points(r)
    ells = [_check_degree(ell) for ell in ells]
    degrees = list(dict.fromkeys(ells))
    k = len(degrees)
    cols = np.repeat(np.array(degrees, dtype=int), r.size)
    with np.errstate(all="ignore"):  # require_finite reports a NaN/inf
        pins = _closed_forms(r)[3]
        rows = _miller_j(cols, np.tile(r, k), tuple(np.tile(p, k) for p in pins))
    rows = require_finite(r, rows.reshape(k, r.size), "spherical Bessel values")
    return rows[[degrees.index(ell) for ell in ells]].reshape((len(ells),) + shape)


def spherical_bessel_oracle(ell: int, r):
    """(j_ell(r), n_ell(r)) for r > 0, 0 <= ell <= 25.

    Floats for a scalar r, arrays of r's shape for an array r.

    j: Miller's downward recurrence renormalized against the better
    conditioned of the closed forms j_0, j_1 and checked against the other
    (upward recurrence for j is unstable below the turning point
    ell ~ r), run for all points in one sweep (_miller_j).  n: upward
    recurrence from the closed forms n_0, n_1, the stable direction for the
    irregular solution.
    """
    r, shape = _positive_points(r)
    ell = _check_degree(ell)
    with np.errstate(all="ignore"):  # require_finite reports a NaN/inf
        sin, cos, r2, pins = _closed_forms(r)
        j = _miller_j(ell, r, pins)
        n = (-cos / r, -cos / r2 - sin / r)
        for l in range(1, ell):
            n = (n[1], (2 * l + 1) / r * n[1] - n[0])
    j, n = require_finite(r, (j, n[min(ell, 1)]), "spherical Bessel values").reshape((2,) + shape)
    if not shape:
        return float(j), float(n)
    return j, n


def intertwine_to_csv(path, r, psi, lowered, reference) -> None:
    """RFC-4180 CSV with columns r, psi, Bpsi, reference."""
    write_csv(path, ["r", "psi", "Bpsi", "reference"], [r, psi, lowered, reference])
