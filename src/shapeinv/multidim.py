"""Axially symmetric partner fields from harmonic and Helmholtz seeds.

A positive scalar seed chi(r, theta) with nabla^2 chi + K chi = 0 defines
the prepotential direction F = log chi.  With the one-parameter
prepotential lam * F the partner potential fields are

    V_pm = lam^2 |grad F|^2 +- lam (nabla^2 F),

and the ladder step lam -> lam - 1 makes V_plus(lam) - V_minus(lam - 1)
the constant -(2 lam - 1) K: identically zero for harmonic seeds (K = 0).
The scalar certificate behind this is |grad F|^2 + nabla^2 F + K = 0,
whose log-form residual (nabla^2 chi)/chi + K is what the field check
evaluates; it linearizes exactly to the seed equation.

Shipped seeds: axially symmetric harmonic sums
chi = sum_n (a_n r^n + b_n r^(-(n+1))) P_n(cos theta), built on our own
Legendre recurrences with fully analytic first and second derivatives, and
plane-wave seeds exp(k r cos theta) carrying K = -k^2.  Working regions
keep clear of the polar axis and the origin, where the angular factors
and the r^(-(n+1)) terms misbehave.

All derivatives are analytic; finite differences appear only in
cross-checks.  Eigensolving and intertwining are deliberately out of
scope here: the certificates are about the potential fields themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sampling import write_csv
from .verify import VerificationReport, _constancy_report

__all__ = [
    "Region",
    "DEFAULT_REGION",
    "ScalarField2D",
    "legendre_table",
    "laplace_seed",
    "plane_wave_seed",
    "make_grid2d",
    "prepotential_riccati_residual",
    "partner_fields",
    "verify_3d_shape_invariance",
    "fields_to_csv",
    "seed_manifest",
]


@dataclass(frozen=True)
class Region:
    r_lo: float
    r_hi: float
    theta_lo: float
    theta_hi: float

    def __post_init__(self):
        if not (0 < self.r_lo < self.r_hi):
            raise ValueError("region must satisfy 0 < r_lo < r_hi")
        if not (0 < self.theta_lo < self.theta_hi < np.pi):
            raise ValueError("region must keep clear of the polar axis")


#: default working region: off-origin, off-axis, matching the shipped demos
DEFAULT_REGION = Region(0.5, 1.5, 0.3, 2.8)

#: flatness bound of the ladder certificate
LADDER_TOL = 1e-8


@dataclass(frozen=True)
class ScalarField2D:
    """Closed-form axially symmetric field with analytic derivatives.

    evaluate(r, theta) returns the arrays (chi, d chi/dr, d chi/dtheta,
    nabla^2 chi) from one pass over the grid.  K is the Helmholtz constant
    of the seed equation nabla^2 chi + K chi = 0 (zero for harmonic seeds).
    The Laplacian must be the spherical Laplacian of chi; consistency is
    spot-checked by finite differences at construction sites, not here.
    """

    evaluate: Callable
    region: Region
    K: float = 0.0
    terms: tuple = ()


def legendre_table(n_max: int, x: np.ndarray):
    """P_n(x) and P_n'(x) for n = 0..n_max by the three-term recurrence.

    The derivative comes from (1 - x^2) P_n' = n (P_{n-1} - x P_n), safe
    here because working regions exclude |x| = 1.
    """
    x = np.asarray(x, dtype=float)
    P = [np.ones_like(x), x.copy()]
    for n in range(1, n_max):
        P.append(((2 * n + 1) * x * P[n] - n * P[n - 1]) / (n + 1))
    P = P[: n_max + 1]
    dP = [np.zeros_like(x)]
    for n in range(1, n_max + 1):
        dP.append(n * (P[n - 1] - x * P[n]) / (1.0 - x * x))
    return P, dP


def _legendre_theta(n_max: int, theta: np.ndarray):
    """P_n(cos theta), dP_n/dtheta and d^2P_n/dtheta^2 tables."""
    ct, st = np.cos(theta), np.sin(theta)
    P, dPx = legendre_table(n_max, ct)
    dtheta = [-st * d for d in dPx]
    # from the Legendre equation: d^2P/dtheta^2 = cos(theta) P' - n(n+1) P
    d2theta = [ct * dPx[n] - n * (n + 1) * P[n] for n in range(n_max + 1)]
    return P, dtheta, d2theta


def laplace_seed(terms, region: Region = DEFAULT_REGION) -> ScalarField2D:
    """Harmonic seed from a Legendre term list, with analytic derivatives.

    Checks on a 128x128 region scan: chi > 0 everywhere (the log would be
    undefined otherwise) and the pointwise harmonicity residual
    |nabla^2 chi| < 1e-10 |chi|.  The Laplacian is assembled from the
    radial and angular second derivatives rather than set to zero, so the
    residual check stays meaningful.
    """
    terms = tuple((int(n), float(a), float(b)) for n, a, b in terms)
    if not terms:
        raise ValueError("seed needs at least one term")
    if any(n < 0 for n, _, _ in terms):
        raise ValueError("Legendre degree must be a nonnegative integer")
    if all(a == 0 and b == 0 for _, a, b in terms):
        raise ValueError("seed needs a nonzero coefficient")
    n_max = max(n for n, _, _ in terms)

    def evaluate(r, theta):
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        P, dT, d2T = _legendre_theta(n_max, theta)
        val = np.zeros(np.broadcast(r, theta).shape)
        v_r = np.zeros_like(val)
        v_rr = np.zeros_like(val)
        v_t = np.zeros_like(val)
        v_tt = np.zeros_like(val)
        for n, a, b in terms:
            rad = a * r**n + b * r ** (-(n + 1))
            rad_r = a * n * r ** (n - 1) - b * (n + 1) * r ** (-(n + 2))
            rad_rr = a * n * (n - 1) * r ** (n - 2) + b * (n + 1) * (n + 2) * r ** (-(n + 3))
            val = val + rad * P[n]
            v_r = v_r + rad_r * P[n]
            v_rr = v_rr + rad_rr * P[n]
            v_t = v_t + rad * dT[n]
            v_tt = v_tt + rad * d2T[n]
        lap = v_rr + 2.0 * v_r / r + (v_tt + v_t / np.tan(theta)) / r**2
        return val, v_r, v_t, lap

    field = ScalarField2D(evaluate=evaluate, region=region, K=0.0, terms=terms)
    _check_seed(field)
    return field


def plane_wave_seed(k: float, region: Region = DEFAULT_REGION) -> ScalarField2D:
    """chi = exp(k z) = exp(k r cos theta); nabla^2 chi = k^2 chi, so K = -k^2."""
    k = float(k)

    def evaluate(r, theta):
        value = np.exp(k * np.asarray(r, float) * np.cos(theta))
        d_r = k * np.cos(theta) * value
        d_theta = -k * np.asarray(r, float) * np.sin(theta) * value
        return value, d_r, d_theta, k * k * value

    field = ScalarField2D(evaluate=evaluate, region=region, K=-k * k)
    _check_seed(field)
    return field


def _check_seed(field: ScalarField2D, n: int = 128) -> None:
    R, TH = make_grid2d(field.region, n, n)
    chi, _, _, lap = field.evaluate(R, TH)
    if np.min(chi) <= 0:
        bad = np.unravel_index(int(np.argmin(chi)), chi.shape)
        raise ValueError(
            f"seed is not positive on its region (chi <= 0 near r={R[bad]:.3f}, "
            f"theta={TH[bad]:.3f})"
        )
    res = np.abs(lap + field.K * chi)
    if np.max(res / np.abs(chi)) > 1e-10:
        raise ValueError("seed violates its Helmholtz equation on the region")


def make_grid2d(region: Region, n_r: int = 128, n_theta: int = 128):
    r = np.linspace(region.r_lo, region.r_hi, n_r)
    th = np.linspace(region.theta_lo, region.theta_hi, n_theta)
    return np.meshgrid(r, th, indexing="ij")


def _log_derivatives(R, chi, chi_r, chi_theta, lap_chi):
    """(|grad F|^2, nabla^2 F) for F = log chi from one seed evaluation."""
    if np.min(chi) <= 0:
        raise ValueError("chi must be positive on the grid (log undefined)")
    gr = chi_r / chi
    gt = chi_theta / (R * chi)
    g2 = gr * gr + gt * gt
    return g2, lap_chi / chi - g2


def _ladder_report(R, TH, g2, lap_f, lam, mu, tolerance) -> VerificationReport:
    return _constancy_report((R, TH), (lam * lam - mu * mu) * g2 + (lam + mu) * lap_f,
                             tolerance)


def prepotential_riccati_residual(chi: ScalarField2D, grid2d) -> float:
    """max |(nabla^2 chi)/chi + K| over the grid.

    This is the log-form of the Riccati certificate
    |grad F|^2 + nabla^2 F + K = 0 for F = log chi, exact whenever the
    seed satisfies its Helmholtz equation; seeds that do not (for example
    chi = r) report an order-one residual rather than having it masked.
    """
    R, TH = grid2d
    val, _, _, lap = chi.evaluate(R, TH)
    if np.min(val) <= 0:
        raise ValueError("chi must be positive on the grid (log undefined)")
    return float(np.max(np.abs(lap / val + chi.K)))


def partner_fields(chi: ScalarField2D, lam: float, grid2d, mu: float = None):
    """Sampled (V_minus, V_plus) for the prepotential lam * log chi.

    V_pm = lam^2 |grad F|^2 +- lam nabla^2 F with F = log chi, all
    derivatives analytic.  Passing mu also returns the ladder certificate
    report for V_plus(lam) - V_minus(mu) (see verify_3d_shape_invariance).
    """
    R, TH = grid2d
    g2, lap_f = _log_derivatives(R, *chi.evaluate(R, TH))
    vminus = lam * lam * g2 - lam * lap_f
    vplus = lam * lam * g2 + lam * lap_f
    if mu is None:
        return vminus, vplus
    return vminus, vplus, _ladder_report(R, TH, g2, lap_f, lam, mu, LADDER_TOL)


def verify_3d_shape_invariance(chi: ScalarField2D, lam: float, mu: float,
                               grid2d, tolerance: float = LADDER_TOL) -> VerificationReport:
    """Certify that V_plus(lam) - V_minus(mu) is constant over the region.

    For a Helmholtz seed the difference field is
    (lam + mu) [(lam - mu - 1) |grad F|^2 - K], so the step mu = lam - 1
    is the one that turns it into the constant -(lam + mu) K; the report
    carries the refit constant either way so other steps can be probed.
    """
    R, TH = grid2d
    g2, lap_f = _log_derivatives(R, *chi.evaluate(R, TH))
    return _ladder_report(R, TH, g2, lap_f, lam, mu, tolerance)


def fields_to_csv(path, grid2d, vminus, vplus) -> None:
    """RFC-4180 CSV with columns r, theta, Vminus, Vplus."""
    R, TH = grid2d
    write_csv(path, ["r", "theta", "Vminus", "Vplus"], [R, TH, vminus, vplus])


def seed_manifest(chi: ScalarField2D, lam: float) -> dict:
    return {
        "terms": [list(t) for t in chi.terms],
        "K": chi.K,
        "lambda": lam,
        "region": {
            "r_lo": chi.region.r_lo,
            "r_hi": chi.region.r_hi,
            "theta_lo": chi.region.theta_lo,
            "theta_hi": chi.region.theta_hi,
        },
    }
