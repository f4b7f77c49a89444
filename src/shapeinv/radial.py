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
checked against values that share nothing with the operator code.
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
        d1 = derivative(logf, h, order=4)
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
    vals = derivative(psi_minus.values, h, order=4) + (ell + 1.0) / r * psi_minus.values
    return Wavefunction(x=r, values=vals, level=psi_minus.level, normalized=False)


# ---------------------------------------------------------------------------
# spherical Bessel oracle
# ---------------------------------------------------------------------------

def _miller_down(ell_max: int, r: float, margin: int) -> np.ndarray:
    start = ell_max + margin + math.ceil(r)
    jj = np.zeros(start + 2)
    jj[start + 1] = 0.0
    jj[start] = 1e-30
    for l in range(start, 0, -1):
        jj[l - 1] = (2 * l + 1) / r * jj[l] - jj[l + 1]
        if abs(jj[l - 1]) > 1e250:  # renormalize mid-run to dodge overflow
            jj[: start + 2] /= jj[l - 1]
    # renormalize against whichever closed form is better conditioned:
    # pinning to j_0 alone blows up at the zeros of sin(r)
    j0e = math.sin(r) / r
    j1e = math.sin(r) / r**2 - math.cos(r) / r
    scale = j0e / jj[0] if abs(j0e) >= abs(j1e) else j1e / jj[1]
    return jj[: ell_max + 1] * scale


def spherical_bessel_table(ell_max: int, r: float):
    """(j_0..j_ell_max, n_0..n_ell_max) at a single r > 0.

    j: Miller's downward recurrence renormalized against j_0 = sin(r)/r
    (upward recurrence for j is unstable below the turning point
    ell ~ r).  The start index begins at ell_max + 16 + ceil(r) and the
    margin doubles until the recurrence reproduces the closed-form
    j_1 = sin(r)/r^2 - cos(r)/r to near machine precision: a fixed margin
    loses accuracy as r grows and jumps discontinuously with ceil(r),
    which matters once the table gets differentiated.  n: upward
    recurrence from n_0, n_1, the stable direction for the irregular
    solution.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if ell_max < 0 or ell_max > 25:
        raise ValueError("ell must be within 0..25")
    j0e = math.sin(r) / r
    j1e = math.sin(r) / r**2 - math.cos(r) / r
    tol = 1e-14 * max(abs(j0e), abs(j1e))
    check = 1 if abs(j0e) >= abs(j1e) else 0  # the index not used for scaling
    exact = (j0e, j1e)
    margin = 16
    table_max = max(ell_max, 1)
    while True:
        j = _miller_down(table_max, r, margin)
        if abs(j[check] - exact[check]) <= tol or margin >= 256:
            break
        margin *= 2
    j = j[: ell_max + 1]

    n = np.zeros(ell_max + 1)
    n[0] = -math.cos(r) / r
    if ell_max >= 1:
        n[1] = -math.cos(r) / r**2 - math.sin(r) / r
        for l in range(1, ell_max):
            n[l + 1] = (2 * l + 1) / r * n[l] - n[l - 1]
    return j, n


def spherical_bessel_oracle(ell: int, r: float):
    """(j_ell(r), n_ell(r)) for r > 0, 0 <= ell <= 25."""
    j, n = spherical_bessel_table(ell, r)
    return float(j[ell]), float(n[ell])


def intertwine_to_csv(path, r, psi, lowered, reference) -> None:
    """RFC-4180 CSV with columns r, psi, Bpsi, reference."""
    write_csv(path, ["r", "psi", "Bpsi", "reference"], [r, psi, lowered, reference])
