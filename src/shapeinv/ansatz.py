"""Constructive route from free-particle seeds to shape-invariant superpotentials.

The construction: pick a nodeless solution u of u'' + K u = 0, set
F(xi) = u'(xi)/u(xi) (which solves F^2 + F' + K = 0 exactly), and take

    W(x; lam) = lam * F(alpha * x)

with a fixed step alpha.  The family is shape invariant under the ladder
lam -> lam - alpha with energy shift R(lam) = -(lam^2 - mu^2) K,
mu = lam - alpha.  Two extensions cover the two-parameter catalog
families:

- second solution: W = lam*F + phi with phi' + F*phi = C, solved by the
  integrating factor u (exp of the antiderivative of F), closed form for
  the named branches and quadrature for custom seeds;
- constant shift: W = lam*F + c/lam, which preserves shape invariance and
  contributes c^2 (1/lam^2 - 1/mu^2) to R.

Branch bookkeeping for F = u'/u: sin gives k*cot(k xi), cos gives
-k*tan(k xi) (k = sqrt(K)); sinh gives c*coth(c xi), cosh gives
c*tanh(c xi) (c = sqrt(-K)); the K = 0 linear seed u = s*xi + t gives
s/(s*xi + t).

A generalized variant accepts a seed solving u'' + (K - V0(xi)) u = 0,
i.e. a Schrodinger solution at energy K in a potential V0.  The partner
difference then carries the x-dependent term (lam^2 - mu^2) V0(alpha x)
on top of the constant -(lam^2 - mu^2) K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .sampling import (
    SampledFunction,
    cumulative_integral,
    derivative,
    make_grid,
)

__all__ = [
    "SeedSolution",
    "ConstructedSuperpotential",
    "BranchError",
    "PoleOnGrid",
    "free_particle_seed",
    "construct_case",
    "verify_case_riccati",
    "extend_second_solution",
    "extend_constant_shift",
    "isospectral_shift_residual",
    "integrate_seed",
    "construct_generalized",
    "pole_free_grid",
]

BRANCHES = ("linear", "sin", "cos", "sinh", "cosh", "custom")

#: |F| beyond this on a grid is treated as a pole, not a value
POLE_THRESHOLD = 1e12


class BranchError(ValueError):
    """Branch name inconsistent with the sign of K, or unknown."""


class PoleOnGrid(ValueError):
    """A grid crosses a zero of the seed u; locations are reported."""

    def __init__(self, message, locations=()):
        super().__init__(message)
        self.locations = tuple(float(v) for v in locations)


@dataclass(frozen=True)
class SeedSolution:
    """A solution u of u'' + K u = 0 (or the generalized seed equation).

    For named branches u and uprime are exact; a custom branch supplies
    callables plus a working interval in the scaled variable xi.  An
    optional closed-form antiderivative of u (``u_integral``) lets the
    second-solution extension stay exact for custom seeds.
    """

    K: float
    branch: str
    u: Callable
    uprime: Callable
    constants: dict
    interval: Optional[tuple] = None
    u_integral: Optional[Callable] = None

    def __post_init__(self):
        if self.branch not in BRANCHES:
            raise BranchError(f"unknown branch {self.branch!r}")


def free_particle_seed(K: float, branch: str, slope: float = 1.0, intercept: float = 0.0,
                       u=None, uprime=None, interval=None, u_integral=None) -> SeedSolution:
    """Build the branch solution of u'' + K u = 0.

    linear requires K = 0; sin/cos require K > 0; sinh/cosh require K < 0.
    A custom branch takes u/uprime callables and is residual-checked by
    central differences on its working interval (tolerance 1e-8).
    """
    K = float(K)
    if branch == "linear":
        if K != 0.0:
            raise BranchError("linear branch requires K = 0")
        if slope == 0.0 and intercept == 0.0:
            raise BranchError("linear seed needs a nonzero coefficient")
        return SeedSolution(
            K=0.0,
            branch="linear",
            u=lambda xi: slope * xi + intercept,
            uprime=lambda xi: slope * np.ones_like(np.asarray(xi, float)),
            constants={"slope": slope, "intercept": intercept},
            u_integral=lambda xi: 0.5 * slope * xi**2 + intercept * xi,
        )
    if branch in ("sin", "cos"):
        if K <= 0.0:
            raise BranchError(f"{branch} branch requires K > 0")
        k = math.sqrt(K)
        if branch == "sin":
            return SeedSolution(K, "sin", lambda xi: np.sin(k * xi),
                                lambda xi: k * np.cos(k * xi), {"k": k},
                                u_integral=lambda xi: -np.cos(k * xi) / k)
        return SeedSolution(K, "cos", lambda xi: np.cos(k * xi),
                            lambda xi: -k * np.sin(k * xi), {"k": k},
                            u_integral=lambda xi: np.sin(k * xi) / k)
    if branch in ("sinh", "cosh"):
        if K >= 0.0:
            raise BranchError(f"{branch} branch requires K < 0")
        c = math.sqrt(-K)
        if branch == "sinh":
            return SeedSolution(K, "sinh", lambda xi: np.sinh(c * xi),
                                lambda xi: c * np.cosh(c * xi), {"c": c},
                                u_integral=lambda xi: np.cosh(c * xi) / c)
        return SeedSolution(K, "cosh", lambda xi: np.cosh(c * xi),
                            lambda xi: c * np.sinh(c * xi), {"c": c},
                            u_integral=lambda xi: np.sinh(c * xi) / c)
    if branch == "custom":
        if u is None or uprime is None or interval is None:
            raise BranchError("custom branch needs u, uprime and a working interval")
        seed = SeedSolution(K, "custom", u, uprime, {}, interval=tuple(interval),
                            u_integral=u_integral)
        _check_custom_seed(seed, lambda xi: np.full_like(xi, K), tol=1e-8)
        return seed
    raise BranchError(f"unknown branch {branch!r}")


def _check_custom_seed(seed: SeedSolution, Keff, tol: float) -> None:
    """Residual check u'' + Keff(xi) u = 0 with u'' from differencing uprime."""
    lo, hi = seed.interval
    xi = make_grid(lo, hi, 1024)
    u = np.asarray(seed.u(xi), float)
    up = np.asarray(seed.uprime(xi), float)
    upp = derivative(up, xi[1] - xi[0])
    scale = max(np.max(np.abs(upp)), np.max(np.abs(Keff(xi) * u)), 1e-300)
    res = np.max(np.abs(upp + Keff(xi) * u)[2:-2]) / scale
    if res > tol:
        raise ValueError(f"custom seed does not solve its equation (residual {res:.2e})")
    if np.min(np.abs(u)) == 0.0 or np.min(u) * np.max(u) < 0:
        raise PoleOnGrid("custom seed has a node on its working interval",
                         xi[np.abs(u) < 1e-12])


@dataclass(frozen=True)
class ConstructedSuperpotential:
    """W(x) = lam * F(alpha x) + phi(alpha x) + g, missing pieces zero.

    F is the seed log-derivative in the scaled variable; phi is the
    second-solution term (solving phi' + F phi = C); g = shift_const/lam.
    Derivatives come from the defining relations, not differencing:
    F' = -K + V0 - F^2 and phi' = C - F phi (in xi).
    """

    seed: SeedSolution
    alpha: float
    lam: float
    C: Optional[float] = None
    D: Optional[float] = None
    phi_xi: Optional[Callable] = None
    shift_const: Optional[float] = None
    V0: Optional[Callable] = None  # generalized seed potential, in xi

    def __post_init__(self):
        if self.alpha == 0.0:
            raise ValueError("alpha (the ladder step) must be nonzero")

    # --- seed log-derivative ------------------------------------------------
    def F_xi(self, xi):
        xi = np.asarray(xi, dtype=float)
        return self.seed.uprime(xi) / self.seed.u(xi)

    def F(self, x):
        return self.F_xi(self.alpha * np.asarray(x, dtype=float))

    def F_prime_xi(self, xi):
        f = self.F_xi(xi)
        v0 = self.V0(np.asarray(xi, float)) if self.V0 is not None else 0.0
        return -self.seed.K + v0 - f * f

    # --- optional pieces ----------------------------------------------------
    @property
    def g(self) -> float:
        if self.shift_const is None:
            return 0.0
        return self.shift_const / self.lam

    def phi(self, x):
        if self.phi_xi is None:
            return np.zeros_like(np.asarray(x, dtype=float))
        return self.phi_xi(self.alpha * np.asarray(x, dtype=float))

    def phi_prime_xi(self, xi):
        if self.phi_xi is None:
            return np.zeros_like(np.asarray(xi, dtype=float))
        return self.C - self.F_xi(xi) * self.phi_xi(xi)

    # --- assembled superpotential --------------------------------------------
    def W_at(self, lam: float, x):
        """The family member at ladder parameter lam (same F, phi, shift)."""
        xi = self.alpha * np.asarray(x, dtype=float)
        w = lam * self.F_xi(xi)
        if self.phi_xi is not None:
            w = w + self.phi_xi(xi)
        if self.shift_const is not None:
            w = w + self.shift_const / lam
        return w

    def Wprime_at(self, lam: float, x):
        xi = self.alpha * np.asarray(x, dtype=float)
        d = lam * self.F_prime_xi(xi)
        if self.phi_xi is not None:
            d = d + self.phi_prime_xi(xi)
        return self.alpha * d

    def W(self, x):
        return self.W_at(self.lam, x)

    def Wprime(self, x):
        return self.Wprime_at(self.lam, x)

    # --- ladder bookkeeping ---------------------------------------------------
    def tau(self, lam: float) -> float:
        return lam - self.alpha

    def energy_shift(self, lam: Optional[float] = None) -> float:
        """R(lam) = V_plus(x; lam) - V_minus(x; lam - alpha), closed form."""
        lam = self.lam if lam is None else lam
        mu = self.tau(lam)
        r = -(lam**2 - mu**2) * self.seed.K
        if self.C is not None:
            r += 2.0 * self.alpha * self.C
        if self.shift_const is not None:
            r += self.shift_const**2 * (1.0 / lam**2 - 1.0 / mu**2)
        return float(r)

    def si_offset_field(self) -> Optional[Callable]:
        """x-dependent term of V_plus(lam) - V_minus(lam - alpha) for
        generalized seeds: (lam^2 - mu^2) * V0(alpha x).  None if V0 absent.
        """
        if self.V0 is None:
            return None
        lam, mu, alpha, v0 = self.lam, self.tau(self.lam), self.alpha, self.V0

        def field(x):
            return (lam**2 - mu**2) * v0(alpha * np.asarray(x, dtype=float))

        return field

    def to_json(self) -> dict:
        out = {
            "branch": self.seed.branch,
            "K": self.seed.K,
            "alpha": self.alpha,
            "lambda": self.lam,
            "phi_params": None if self.C is None else {"C": self.C, "D": self.D},
            "g": None if self.shift_const is None else self.g,
        }
        if self.seed.branch == "linear":
            out["linear_constants"] = dict(self.seed.constants)
        if self.shift_const is not None:
            out["shift_const"] = self.shift_const
        return out


def construct_case(K: float, branch: str, alpha: float, lam: float,
                   slope: float = 1.0, intercept: float = 0.0) -> ConstructedSuperpotential:
    """W = lam * u'(alpha x)/u(alpha x) for the branch solution of u'' + K u = 0."""
    if alpha == 0.0:
        raise ValueError("alpha must be nonzero")
    seed = free_particle_seed(K, branch, slope=slope, intercept=intercept)
    return ConstructedSuperpotential(seed=seed, alpha=float(alpha), lam=float(lam))


def verify_case_riccati(F: SampledFunction, K: float) -> float:
    """max |F^2 + F' + K| with F' by 4th-order central differences.

    Grids containing a pole of F (divergent or non-finite samples) raise
    PoleOnGrid with the offending locations; nothing is clipped silently.
    """
    vals = F.values
    bad = ~np.isfinite(vals) | (np.abs(vals) > POLE_THRESHOLD)
    if np.any(bad):
        raise PoleOnGrid("grid crosses a pole of F", F.x[bad])
    fp = F.derivative()
    res = vals * vals + fp + K
    # the two points nearest each edge use lower-order stencils; the
    # residual is an interior claim
    return float(np.max(np.abs(res[2:-2])))


def extend_second_solution(base: ConstructedSuperpotential, C: float, D: float) -> ConstructedSuperpotential:
    """Attach phi solving phi' + F phi = C, phi = (C * int(u) + D) / u.

    Exact when the seed carries a closed-form antiderivative of u (all
    named branches do); custom seeds without one fall back to cumulative
    Simpson quadrature on the seed's working interval, Richardson-checked
    at half step against a 1e-9 tolerance.
    """
    if base.phi_xi is not None:
        raise ValueError("base already carries a second-solution term")
    seed = base.seed
    C, D = float(C), float(D)
    if seed.u_integral is not None:
        uint = seed.u_integral

        def phi(xi):
            xi = np.asarray(xi, dtype=float)
            return (C * uint(xi) + D) / seed.u(xi)

    else:
        phi = _phi_by_quadrature(seed, C, D)
    return replace(base, C=C, D=D, phi_xi=phi)


def _phi_by_quadrature(seed: SeedSolution, C: float, D: float, n: int = 4097):
    from scipy.interpolate import CubicSpline

    if seed.interval is None:
        raise ValueError("custom seed without antiderivative needs a working interval")
    lo, hi = seed.interval
    xi = make_grid(lo, hi, n)
    u = np.asarray(seed.u(xi), float)
    full = cumulative_integral(u, xi)
    halfres = cumulative_integral(u[::2], xi[::2])
    if np.max(np.abs(full[::2] - halfres)) > 1e-9 * max(1.0, np.max(np.abs(full))):
        raise ValueError("quadrature for the second solution missed 1e-9 (refine grid)")
    return CubicSpline(xi, (C * full + D) / u)


def extend_constant_shift(base: ConstructedSuperpotential, c: float) -> ConstructedSuperpotential:
    """W -> W + c/lam.  Shape invariance survives because the cross term
    2*lam*F*(c/lam) is ladder-independent; R gains c^2(1/lam^2 - 1/mu^2).

    Note: stacking the shift on top of a second-solution term leaves a
    ladder-dependent cross term 2*phi*c/lam and generally breaks the
    certificate; the verifier will report it honestly.
    """
    if base.lam == 0.0:
        raise ValueError("constant shift needs lam != 0")
    return replace(base, shift_const=float(c))


def isospectral_shift_residual(W, chi: SampledFunction, K_lambda: float,
                               chi_prime=None) -> float:
    """max |chi^2 + 2 W chi + chi' - K_lambda| over the grid.

    A residual below tolerance certifies chi as an additive deformation of
    W that shifts the partner by the constant K_lambda.  chi' defaults to
    central differences; pass an array to use an analytic derivative.
    """
    x, c = chi.x, chi.values
    if np.any(np.abs(c) > POLE_THRESHOLD):
        raise PoleOnGrid("chi diverges on the grid", x[np.abs(c) > POLE_THRESHOLD])
    cp = chi.derivative() if chi_prime is None else np.asarray(chi_prime, float)
    w = np.asarray(W(x), dtype=float)
    if np.any(~np.isfinite(w)):
        raise PoleOnGrid("W diverges on the grid", x[~np.isfinite(w)])
    res = c * c + 2.0 * w * c + cp - K_lambda
    return float(np.max(np.abs(res[2:-2])))


def integrate_seed(V0, K: float, interval, u0: float, uprime0: float) -> SeedSolution:
    """Numerically integrate u'' + (K - V0(xi)) u = 0 across the interval.

    Returns a custom SeedSolution backed by the dense solver output, for
    use with construct_generalized.  Initial data are given at the left
    endpoint.
    """
    from scipy.integrate import solve_ivp

    lo, hi = interval

    def rhs(xi, y):
        return [y[1], (float(V0(xi)) - K) * y[0]]

    sol = solve_ivp(rhs, (lo, hi), [u0, uprime0], rtol=1e-11, atol=1e-13,
                    dense_output=True)
    if not sol.success:
        raise ValueError(f"seed integration failed: {sol.message}")
    return SeedSolution(
        K=float(K),
        branch="custom",
        u=lambda xi: sol.sol(np.asarray(xi, float))[0],
        uprime=lambda xi: sol.sol(np.asarray(xi, float))[1],
        constants={},
        interval=(float(lo), float(hi)),
    )


def construct_generalized(V0, K: float, u_seed: SeedSolution, alpha: float,
                          lam: float) -> ConstructedSuperpotential:
    """W = lam * u'/u for u solving u'' + (K - V0(xi)) u = 0.

    The seed is a Schrodinger solution at energy K in the potential V0 and
    must be nodeless on its working interval.  The partner difference of
    the result is (lam^2 - mu^2) V0(alpha x) - (lam^2 - mu^2) K, exposed
    via si_offset_field() for the generalized certificate.
    """
    if alpha == 0.0:
        raise ValueError("alpha must be nonzero")
    if u_seed.branch != "custom" or u_seed.interval is None:
        raise ValueError("generalized construction expects a custom seed with interval")
    _check_custom_seed(u_seed, lambda xi: K - np.asarray(V0(xi), float), tol=1e-6)
    return ConstructedSuperpotential(
        seed=replace(u_seed, K=float(K)),
        alpha=float(alpha),
        lam=float(lam),
        V0=V0,
    )


def pole_free_grid(cons: ConstructedSuperpotential, lo: float, hi: float, n: int):
    """Uniform grid on the largest pole-free subinterval of [lo, hi].

    Zeros of the seed u (poles of W) are located per branch and excluded
    with a margin of 1e-3 times the interval length; the poles found are
    returned alongside the grid rather than evaluated across.
    """
    seed, alpha = cons.seed, cons.alpha
    xi_lo, xi_hi = sorted((alpha * lo, alpha * hi))
    poles_xi = _seed_zeros(seed, xi_lo, xi_hi)
    poles_x = sorted(p / alpha for p in poles_xi)
    margin = 1e-3 * (hi - lo)
    edges = [lo] + [p for p in poles_x if lo < p < hi] + [hi]
    best = None
    for a, b in zip(edges[:-1], edges[1:]):
        aa = a + (margin if a in poles_x else 0.0)
        bb = b - (margin if b in poles_x else 0.0)
        if best is None or (bb - aa) > (best[1] - best[0]):
            best = (aa, bb)
    if best is None or best[1] <= best[0]:
        raise PoleOnGrid("no pole-free subinterval", poles_x)
    return make_grid(best[0], best[1], n), poles_x


def _seed_zeros(seed: SeedSolution, xi_lo: float, xi_hi: float):
    if seed.branch == "cosh":
        return []
    if seed.branch == "sinh":
        return [0.0] if xi_lo < 0.0 < xi_hi else []
    if seed.branch == "linear":
        s, t = seed.constants["slope"], seed.constants["intercept"]
        if s == 0.0:
            return []
        z = -t / s
        return [z] if xi_lo < z < xi_hi else []
    if seed.branch in ("sin", "cos"):
        k = seed.constants["k"]
        half = 0.0 if seed.branch == "sin" else 0.5
        m_lo = math.ceil(k * xi_lo / math.pi - half)
        m_hi = math.floor(k * xi_hi / math.pi - half)
        return [(m + half) * math.pi / k for m in range(m_lo, m_hi + 1)]
    # custom: sign-change scan
    xi = make_grid(xi_lo, xi_hi, 4096)
    u = np.asarray(seed.u(xi), float)
    flips = np.nonzero(np.sign(u[1:]) != np.sign(u[:-1]))[0]
    return [0.5 * (xi[i] + xi[i + 1]) for i in flips]
