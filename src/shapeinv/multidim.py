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
partner_fields(chi, lam, grid2d, mu) is the one entry point: it returns
both fields and verify.judge's reports on V_plus(lam) - V_minus(mu) and
that residual.  A seed is judged there, on that grid, not when it is
built: a chi that is not positive is refused, and sip 3d refuses a seed
whose residual does not pass.

Shipped seeds: axially symmetric harmonic sums
chi = sum_n (a_n r^n + b_n r^(-(n+1))) P_n(cos theta), built on our own
Legendre recurrences with fully analytic first and second derivatives, and
plane-wave seeds exp(k r cos theta) carrying K = -k^2.  Working regions
keep clear of the polar axis and the origin, where the angular factors
and the r^(-(n+1)) terms misbehave.

Grids are tensor products: make_grid2d's (R, TH) take r along axis 0 and
theta along axis 1.  A seed is evaluated once per grid, on its axes
R[:, :1] and TH[:1, :], so its evaluate must broadcast; its outputs are
broadcast to the grid.

All derivatives are analytic; finite differences appear only in
cross-checks.  Eigensolving and intertwining are deliberately out of
scope here: the certificates are about the potential fields themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sampling import write_csv
from .verify import judge

__all__ = [
    "Region",
    "DEFAULT_REGION",
    "ScalarField2D",
    "laplace_seed",
    "plane_wave_seed",
    "make_grid2d",
    "partner_fields",
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

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
_LOG_FLOAT_RANGE = _LOG_FLOAT_MAX - math.log(np.finfo(float).tiny)


@dataclass(frozen=True)
class ScalarField2D:
    """Closed-form axially symmetric field with analytic derivatives.

    evaluate(r, theta) returns the arrays (chi, d chi/dr, d^2 chi/dr^2,
    d chi/dtheta, d^2 chi/dtheta^2) from one pass over the grid.  It
    receives the grid's axes, r of shape (n_r, 1) and theta of shape
    (1, n_theta), so it must broadcast the two; each output may have any
    shape that broadcasts to the grid's (a field constant in theta may
    return (n_r, 1) arrays).  partner_fields assembles the spherical
    Laplacian from them.  K is the Helmholtz constant of the seed equation
    nabla^2 chi + K chi = 0 (zero for harmonic seeds).
    """

    evaluate: Callable
    region: Region
    K: float = 0.0
    terms: tuple = ()


def _legendre_rows(n_max: int, x: np.ndarray):
    """(n, P_{n-1}(x), P_n(x)) for n = 0..n_max by the three-term recurrence.

    Only these two rows are held, so memory does not grow with the degree.
    P_{-1} is None.
    """
    prev, cur = None, np.ones_like(x)
    yield 0, prev, cur
    if n_max:
        prev, cur = cur, x.copy()
        yield 1, prev, cur
    for n in range(1, n_max):
        prev, cur = cur, ((2 * n + 1) * x * cur - n * prev) / (n + 1)
        yield n + 1, prev, cur


def _legendre_theta(degrees, theta: np.ndarray):
    """P_n(cos theta), dP_n/dtheta and d^2P_n/dtheta^2 for the given degrees.

    Three dicts keyed by degree: the recurrence keeps two running rows and
    the rows of these degrees, so memory grows with the number of degrees,
    not with the highest one.
    """
    ct, st = np.cos(theta), np.sin(theta)
    wanted = set(degrees)
    P, dtheta, d2theta = {}, {}, {}
    for n, prev, p in _legendre_rows(max(wanted), ct):
        if n in wanted:
            # P_n'(x) from (1 - x^2) P_n' = n (P_{n-1} - x P_n), safe here
            # because working regions exclude |x| = 1
            dPx = n * (prev - ct * p) / (1.0 - ct * ct) if n else np.zeros_like(ct)
            P[n] = p
            dtheta[n] = -st * dPx
            # from the Legendre equation: d^2P/dtheta^2 = cos(theta) P' - n(n+1) P
            d2theta[n] = ct * dPx - n * (n + 1) * p
    return P, dtheta, d2theta


def laplace_seed(terms, region: Region = DEFAULT_REGION) -> ScalarField2D:
    """Harmonic seed from a Legendre term list, with analytic derivatives.

    Refuses a term that a float cannot carry across the region, before any
    Legendre recurrence runs: a used power of r that overflows, or a degree
    n whose r^(n+1) spans more than the float range between r_lo and r_hi.
    Terms with both coefficients zero are dropped.  Nothing is evaluated
    here: partner_fields refuses chi <= 0 on its grid and judges the
    harmonicity residual nabla^2 chi / chi there.
    """
    terms = tuple((int(n), float(a), float(b)) for n, a, b in terms)
    if not terms:
        raise ValueError("seed needs at least one term")
    if any(n < 0 for n, _, _ in terms):
        raise ValueError("Legendre degree must be a nonnegative integer")
    used = tuple(t for t in terms if t[1] or t[2])
    if not used:
        raise ValueError("seed needs a nonzero coefficient")
    for n, a, b in used:
        # evaluate() forms r^k, r^(k-1) and r^(k-2) for each nonzero half
        # c r^k of a term (k = n for a_n, -(n+1) for b_n), with factors up
        # to (n+2)^2 |c| from the derivatives in r and theta
        for c, k in ((a, n), (b, -n - 1)):
            size = max((k - j) * math.log(r) for j in (0, 1, 2)
                       for r in (region.r_lo, region.r_hi))
            if c and size + 2 * math.log(n + 2) + math.log(max(abs(c), 1.0)) > _LOG_FLOAT_MAX:
                raise ValueError(f"bad seed term of degree {n}: r^{n} or r^-{n + 1} overflows "
                                 f"on the region r in [{region.r_lo:g}, {region.r_hi:g}]")
        # whichever half is used, the degree itself stays bounded
        if (n + 1) * math.log(region.r_hi / region.r_lo) > _LOG_FLOAT_RANGE:
            raise ValueError(f"bad seed term of degree {n}: r^{n + 1} spans more than the "
                             f"float range on the region r in [{region.r_lo:g}, {region.r_hi:g}]")
    degrees = sorted({n for n, _, _ in used})

    def evaluate(r, theta):
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        P, dT, d2T = _legendre_theta(degrees, theta)
        val = np.zeros(np.broadcast(r, theta).shape)
        v_r = np.zeros_like(val)
        v_rr = np.zeros_like(val)
        v_t = np.zeros_like(val)
        v_tt = np.zeros_like(val)
        for n, a, b in used:
            rad = rad_r = rad_rr = 0.0
            for c, k in ((a, n), (b, -n - 1)):
                if c:  # a zero half is skipped, so its power cannot overflow
                    rad = rad + c * r**k
                    rad_r = rad_r + c * k * r ** (k - 1)
                    rad_rr = rad_rr + c * k * (k - 1) * r ** (k - 2)
            val += rad * P[n]
            v_r += rad_r * P[n]
            v_rr += rad_rr * P[n]
            v_t += rad * dT[n]
            v_tt += rad * d2T[n]
        return val, v_r, v_rr, v_t, v_tt

    return ScalarField2D(evaluate=evaluate, region=region, K=0.0, terms=terms)


def plane_wave_seed(k: float, region: Region = DEFAULT_REGION) -> ScalarField2D:
    """chi = exp(k z) = exp(k r cos theta); nabla^2 chi = k^2 chi, so K = -k^2.
    Judged, like laplace_seed's, only on the grid partner_fields is given."""
    k = float(k)

    def evaluate(r, theta):
        r, kc, ks = np.asarray(r, float), k * np.cos(theta), k * np.sin(theta)
        value = np.exp(kc * r)
        d_theta = -ks * r * value
        return value, kc * value, kc * kc * value, d_theta, -r * (ks * d_theta + kc * value)

    return ScalarField2D(evaluate=evaluate, region=region, K=-k * k)


def make_grid2d(region: Region, n_r: int, n_theta: int):
    r = np.linspace(region.r_lo, region.r_hi, n_r)
    th = np.linspace(region.theta_lo, region.theta_hi, n_theta)
    return np.meshgrid(r, th, indexing="ij")


def _sample(chi: ScalarField2D, grid2d):
    """chi's five outputs, as evaluate returns them, on a tensor-product grid.

    One evaluation on the grid's axes R[:, :1] and TH[:1, :], its outputs
    broadcast to the grid.  Each value is computed from its own r and theta
    alone, so it is the value an evaluation on every cell gives.
    """
    R, TH = grid2d
    # contiguous like the grid, so that numpy takes the same loops on it
    r, theta = np.ascontiguousarray(R[:, :1]), TH[:1, :]
    if not ((R == r).all() and (TH == theta).all()):
        raise ValueError("grid2d must be a tensor-product grid (R, TH) with r along "
                         "axis 0 and theta along axis 1, as make_grid2d returns")
    shape = np.broadcast_shapes(R.shape, TH.shape)
    return tuple(np.broadcast_to(v, shape) for v in chi.evaluate(r, theta))


def partner_fields(chi: ScalarField2D, lam: float, grid2d, mu: float):
    """(V_minus, V_plus, ladder report, Helmholtz report) of the prepotential
    lam * log chi from one seed evaluation; NaN/inf fields raise NonFiniteValues.

    V_pm = lam^2 |grad F|^2 +- lam nabla^2 F with F = log chi, and chi must
    be positive on the grid.  The ladder report checks V_plus(lam) -
    V_minus(mu) for constancy; for a Helmholtz seed it is (lam + mu)
    [(lam - mu - 1) |grad F|^2 - K], constant at the step mu = lam - 1, and
    the refit constant lets other steps be probed.  The Helmholtz report
    checks that (nabla^2 chi)/chi + K vanishes; its max_residual is exact
    for a seed that satisfies its equation, and one that does not (for
    example chi = r) reports an order-one residual.
    """
    val, chi_r, chi_rr, chi_theta, chi_tt = _sample(chi, grid2d)
    R, TH = grid = tuple(grid2d)
    if np.min(val) <= 0:  # the log is undefined there
        bad = np.unravel_index(int(np.argmin(val)), val.shape)
        raise ValueError(f"seed is not positive on its region (chi <= 0 near r={R[bad]:.3f}, "
                         f"theta={TH[bad]:.3f})")
    r, tan = R[:, :1], np.tan(TH[:1, :])
    # fields are dropped, or overwritten, once used: on a 256x256 grid each one
    # alive at once costs 512 kB of fresh pages
    with np.errstate(all="ignore"):  # judge reports a NaN/inf
        radial, angular = 2.0 * chi_r / r, chi_theta / tan  # terms of the Laplacian
        ratio = (chi_rr + radial + (chi_tt + angular) / r**2) / val  # (nabla^2 chi)/chi
        # the magnitudes of the Laplacian's terms over chi, and |K|
        h = (np.abs(chi_rr) + np.abs(radial, out=radial)
             + (np.abs(chi_tt) + np.abs(angular, out=angular)) / r**2) / val + abs(chi.K)
        del radial, angular, chi_rr, chi_tt
        helmholtz = judge(grid, ratio + chi.K, (h,), offset=chi.K)
        g2 = (chi_r / val) ** 2 + (chi_theta / (R * val)) ** 2  # |grad F|^2
        lap_f = ratio - g2  # nabla^2 F
        vminus = lam * lam * g2 - lam * lap_f
        vplus = lam * lam * g2 + lam * lap_f
        d = (lam * lam - mu * mu) * g2 + (lam + mu) * lap_f
        h += g2  # the ladder's parts: (lam^2 + mu^2) |grad F|^2 and this times |lam| + |mu|
        h *= abs(lam) + abs(mu)
        # judge refuses a NaN/inf in the sum of parts, which bounds |V_pm|
        report = judge(grid, d, ((lam * lam + mu * mu) * g2, h))
    return vminus, vplus, report, helmholtz


def fields_to_csv(path, grid2d, vminus, vplus) -> None:
    """RFC-4180 CSV with columns r, theta, Vminus, Vplus, one row per cell.

    The grid's axes go to the writer, which formats each of their values
    once and broadcasts them to the cells.
    """
    R, TH = grid2d
    write_csv(path, ["r", "theta", "Vminus", "Vplus"], [R[:, :1], TH[:1, :], vminus, vplus])


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
