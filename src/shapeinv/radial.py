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
Bessel oracle: j_ell by downward (Miller) recurrence renormalized at
j_0 = sin(r)/r, n_ell by upward recurrence, so the intertwining claim is
checked against values that share nothing with the operator code.  The
oracle takes a scalar r or an array of r and runs one recurrence sweep
over all points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sampling import derivative, make_grid, write_csv
from .spectral import Wavefunction

__all__ = [
    "MeasureWeight",
    "GeneralizedFactorization",
    "unit_weight",
    "r_squared_weight",
    "generalized_qhj_residual",
    "generalized_partners",
    "radial_intertwine",
    "spherical_bessel_oracle",
    "spherical_bessel_table",
    "intertwine_to_csv",
]

SCHEMES = ("weighted", "product-CB")


@dataclass(frozen=True)
class MeasureWeight:
    """Positive weight f with its log-derivative forms.

    logf_prime = f'/f and logf_second = (log f)'' must be supplied in
    closed form; ``spot_check`` compares them against finite differences
    of f on a probe interval (tolerance 1e-6).
    """

    f: Callable
    logf_prime: Callable
    logf_second: Callable

    def spot_check(self, lo: float, hi: float, n: int = 2048) -> float:
        from .sampling import second_derivative

        x = make_grid(lo, hi, n)
        fx = np.asarray(self.f(x), dtype=float)
        if np.min(fx) <= 0:
            raise ValueError("weight must be positive on its domain")
        h = x[1] - x[0]
        logf = np.log(fx)
        d1 = derivative(logf, h)
        d2 = second_derivative(logf, h)
        err1 = np.max(np.abs(d1 - self.logf_prime(x))[2:-2])
        err2 = np.max(np.abs(d2 - self.logf_second(x))[2:-2])
        err = float(max(err1, err2))
        if err > 1e-6:
            raise ValueError(f"weight derivative forms inconsistent ({err:.2e})")
        return err


def unit_weight() -> MeasureWeight:
    return MeasureWeight(
        f=lambda x: np.ones_like(np.asarray(x, float)),
        logf_prime=lambda x: np.zeros_like(np.asarray(x, float)),
        logf_second=lambda x: np.zeros_like(np.asarray(x, float)),
    )


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


def generalized_qhj_residual(fac: GeneralizedFactorization, V, E: float, grid) -> float:
    """max |Q^2 - Q' - (f'/f) Q - V + E| over the grid (analytic derivatives)."""
    x = np.asarray(grid, dtype=float)
    fx = np.asarray(fac.weight.f(x), dtype=float)
    if np.min(fx) <= 0:
        raise ValueError("weight must be positive on the grid")
    q = np.asarray(fac.Q(x), dtype=float)
    res = q * q - fac.Qprime(x) - fac.weight.logf_prime(x) * q - V(x) + E
    return float(np.max(np.abs(res)))


def generalized_partners(fac: GeneralizedFactorization, grid):
    """Sampled (V_minus, V_plus) under the factorization's scheme."""
    x = np.asarray(grid, dtype=float)
    fx = np.asarray(fac.weight.f(x), dtype=float)
    if np.min(fx) <= 0:
        raise ValueError("weight must be positive on the grid")
    q = np.asarray(fac.Q(x), dtype=float)
    qp = np.asarray(fac.Qprime(x), dtype=float)
    lfp = np.asarray(fac.weight.logf_prime(x), dtype=float)
    if fac.scheme == "weighted":
        measure_term = qp + lfp * q
        return q * q - measure_term, q * q + measure_term
    # product-CB
    vminus = q * q - qp - q * lfp
    vplus = q * q + qp - q * lfp - np.asarray(fac.weight.logf_second(x), dtype=float)
    return vminus, vplus


def radial_intertwine(ell: int, psi_minus: Wavefunction) -> Wavefunction:
    """B psi = psi' + ((ell+1)/r) psi = r^(-(ell+1)) d/dr (r^(ell+1) psi).

    4th-order central differences in the interior, one-sided at the edges;
    the output is not normalized.  The grid must stay strictly positive.
    """
    if ell < 1:
        raise ValueError("intertwining down needs ell >= 1")
    r = psi_minus.x
    if r[0] <= 0:
        raise ValueError("grid must not touch r = 0")
    h = float(r[1] - r[0])
    vals = derivative(psi_minus.values, h) + (ell + 1.0) / r * psi_minus.values
    return Wavefunction(x=r, values=vals, level=psi_minus.level, normalized=False)


# ---------------------------------------------------------------------------
# spherical Bessel oracle
# ---------------------------------------------------------------------------

def _miller_down(ell_max: int, r: np.ndarray, margin: int) -> np.ndarray:
    """Unscaled rows j_0..j_ell_max of Miller's recurrence, a column per point.

    Each point starts at its own index ell_max + margin + ceil(r) with
    j_start = 1e-30, j_start+1 = 0; the sweep runs down from the largest
    start and leaves a point at exactly 0 until its start is reached.  Only
    the stored rows and the two running rows are kept, and a column whose
    value passes 1e250 is divided through on its own, so every column
    holds the same bits as a recurrence run for that point alone.
    """
    start = ell_max + margin + np.ceil(r).astype(int)
    starts = set(start.tolist())
    rows = np.zeros((ell_max + 1, r.size))
    upper = np.zeros(r.size)  # j_{l+1}
    cur = np.zeros(r.size)  # j_l
    for l in range(max(starts) + 1, 0, -1):
        low = (2 * l + 1) / r * cur - upper  # j_{l-1}
        if l - 1 in starts:
            low[start == l - 1] = 1e-30
        if np.abs(low).max() > 1e250:  # renormalize mid-run to dodge overflow
            big = np.abs(low) > 1e250
            scale = low[big]
            rows[:, big] /= scale
            cur[big] /= scale
            low[big] /= scale
        if l - 1 <= ell_max:
            rows[l - 1] = low
        upper, cur = cur, low
    return rows


def spherical_bessel_table(ell_max: int, r):
    """(j_0..j_ell_max, n_0..n_ell_max) at r > 0, a scalar or an array.

    Each returned array has shape (ell_max + 1,) + shape(r): row l holds
    j_l (or n_l) at every point of r.

    j: Miller's downward recurrence renormalized against j_0 = sin(r)/r
    (upward recurrence for j is unstable below the turning point
    ell ~ r), run for all points in one sweep.  Each point's start index
    is ell_max + margin + ceil(r) with margin 16; the margin doubles, up
    to 256 and for the failing points only, until the recurrence
    reproduces the closed-form j_1 = sin(r)/r^2 - cos(r)/r to near machine
    precision: a fixed margin loses accuracy as r grows and jumps
    discontinuously with ceil(r), which matters once the table gets
    differentiated.  n: upward recurrence from n_0, n_1, the stable
    direction for the irregular solution.
    """
    r = np.asarray(r, dtype=float)
    shape = r.shape
    r = r.reshape(-1)
    if not np.all(r > 0):
        raise ValueError("r must be positive")
    if ell_max < 0 or ell_max > 25:
        raise ValueError("ell must be within 0..25")
    # sin, cos and r**2 come from libm one point at a time: numpy's SIMD
    # sin/cos and its r*r may round a last bit differently, and the table
    # must hold the bits of the scalar closed forms on every machine
    xs = r.tolist()
    sin = np.array([math.sin(x) for x in xs])
    cos = np.array([math.cos(x) for x in xs])
    r2 = np.array([x**2 for x in xs])
    j0e = sin / r
    j1e = sin / r2 - cos / r
    tol = 1e-14 * np.maximum(np.abs(j0e), np.abs(j1e))
    # renormalize against whichever closed form is better conditioned
    # (pinning to j_0 alone blows up at the zeros of sin(r)) and check
    # the table against the other one
    on_j0 = np.abs(j0e) >= np.abs(j1e)
    pin = np.where(on_j0, j0e, j1e)
    exact = np.where(on_j0, j1e, j0e)
    table_max = max(ell_max, 1)
    j = np.empty((table_max + 1, r.size))
    todo = np.arange(r.size)
    margin = 16
    while todo.size:
        rows = _miller_down(table_max, r[todo], margin)
        pinned = on_j0[todo]
        j[:, todo] = rows * (pin[todo] / np.where(pinned, rows[0], rows[1]))
        if margin >= 256:
            break
        check = np.where(pinned, j[1, todo], j[0, todo])
        todo = todo[~(np.abs(check - exact[todo]) <= tol[todo])]
        margin *= 2
    j = j[: ell_max + 1]

    n = np.zeros((ell_max + 1, r.size))
    n[0] = -cos / r
    if ell_max >= 1:
        n[1] = -cos / r2 - sin / r
        for l in range(1, ell_max):
            n[l + 1] = (2 * l + 1) / r * n[l] - n[l - 1]
    return j.reshape((ell_max + 1,) + shape), n.reshape((ell_max + 1,) + shape)


def spherical_bessel_oracle(ell: int, r):
    """(j_ell(r), n_ell(r)) for r > 0, 0 <= ell <= 25.

    Floats for a scalar r, arrays of r's shape for an array r.
    """
    j, n = spherical_bessel_table(ell, r)
    if np.ndim(r) == 0:
        return float(j[ell]), float(n[ell])
    return j[ell], n[ell]


def intertwine_to_csv(path, r, psi, lowered, reference) -> None:
    """RFC-4180 CSV with columns r, psi, Bpsi, reference."""
    write_csv(path, ["r", "psi", "Bpsi", "reference"], [r, psi, lowered, reference])
