"""Constructive route from free-particle seeds to shape-invariant superpotentials.

The construction: pick a nodeless solution u of u'' + K u = 0, set
F(xi) = u'(xi)/u(xi) (which solves F^2 + F' + K = 0 exactly), and take

    W(x; lam) = lam * F(alpha * x)

with a fixed step alpha.  The family is shape invariant under the ladder
lam -> lam - alpha with energy shift R(lam) = -(lam^2 - mu^2) K,
mu = lam - alpha.  Two extensions cover the two-parameter catalog
families:

- second solution: W = lam*F + phi with phi' + F*phi = C, solved by the
  integrating factor u (exp of the antiderivative of F), in closed form
  for the named branches;
- constant shift: W = lam*F + c/lam, which preserves shape invariance and
  contributes c^2 (1/lam^2 - 1/mu^2) to R.

Branch bookkeeping: a named branch carries F = u'/u, 1/u, log|u| and
the integral of 1/u in closed form and never forms u, u' or the integral
of u on its own, so F, phi and the prepotential stay finite where sinh
and cosh overflow (log cosh z is |z| + log1p(e^(-2|z|)) - log 2, and
log|sinh z| likewise with -expm1).

    branch   K      u              F = u'/u         1/u            int 1/u dxi
    linear   0      s*xi + t       s/(s*xi + t)     1/(s*xi + t)   log|s*xi + t|/s, or xi/t if s = 0
    sin      k^2    sin(k xi)      k*cot(k xi)      1/sin(k xi)    log|tan(k xi/2)|/k
    cos      k^2    cos(k xi)      -k*tan(k xi)     1/cos(k xi)    log|tan(k xi/2 + pi/4)|/k
    sinh     -c^2   sinh(c xi)     c*coth(c xi)     1/sinh(c xi)   log|tanh(c xi/2)|/c
    cosh     -c^2   cosh(c xi)     c*tanh(c xi)     1/cosh(c xi)   2 atan(tanh(c xi/2))/c
    exp      -c^2   exp(c xi)      c                exp(-c xi)     -exp(-c xi)/c

The second solution is phi = C*(int u)/u + D/u, where (int u)/u = -F/K
for K != 0 and xi*(s*xi/2 + t)/(s*xi + t) for the linear seed.  Its
integral Phi = C*int((int u)/u) + D*int(1/u) is -C log|u|/K + D*int(1/u)
for K != 0, so that the prepotential int W dx of every named recipe is in
closed form: (lam/alpha) log|u(alpha x)| + Phi(alpha x)/alpha + g*x.

A generalized variant accepts a seed solving u'' + (K - V0(xi)) u = 0,
i.e. a Schrodinger solution at energy K in a potential V0.  The partner
difference then carries the x-dependent term (lam^2 - mu^2) V0(alpha x)
on top of the constant -(lam^2 - mu^2) K.  Such a custom seed (u and u'
as callables on a working interval, from integrate_seed) is only ever the
input of construct_generalized: it takes no second solution, and
pole_free_grid does not locate its zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .sampling import NonFiniteValues, SampledFunction, derivative, make_grid, require_finite

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

BRANCHES = ("linear", "sin", "cos", "sinh", "cosh", "exp", "custom")

#: |F| beyond this on a grid is treated as a pole, not a value
POLE_THRESHOLD = 1e12

#: relative residual bound on a custom seed's equation, u'' differenced from u'
CUSTOM_SEED_TOL = 1e-6


class BranchError(ValueError):
    """Branch name inconsistent with the sign of K, or unknown."""


class PoleOnGrid(NonFiniteValues):
    """A grid crosses a zero of the seed u; locations are reported."""


def _reciprocal(f, xi):
    with np.errstate(over="ignore"):  # sinh, cosh overflow to inf past 710: 1/inf = 0 is meant
        return 1.0 / f(xi)


_LOG2 = math.log(2.0)


def _log_abs_sinh(z):
    z = np.abs(z)
    return z - _LOG2 + np.log(-np.expm1(-2.0 * z))


def _log_cosh(z):
    z = np.abs(z)
    return z - _LOG2 + np.log1p(np.exp(-2.0 * z))


def _linear(c, xi):
    return c["slope"] * xi + c["intercept"]


def _linear_inverse_integral(c, xi):
    if c["slope"] == 0.0:
        return xi / c["intercept"]
    return np.log(np.abs(_linear(c, xi))) / c["slope"]


#: named branch -> (F = u'/u, 1/u, log|u|, int 1/u dxi) as functions of the
#: seed constants and xi
_CLOSED_FORMS = {
    "linear": (lambda c, xi: c["slope"] / _linear(c, xi),
               lambda c, xi: 1.0 / _linear(c, xi),
               lambda c, xi: np.log(np.abs(_linear(c, xi))),
               _linear_inverse_integral),
    "sin": (lambda c, xi: c["k"] / np.tan(c["k"] * xi),
            lambda c, xi: 1.0 / np.sin(c["k"] * xi),
            lambda c, xi: np.log(np.abs(np.sin(c["k"] * xi))),
            lambda c, xi: np.log(np.abs(np.tan(0.5 * c["k"] * xi))) / c["k"]),
    "cos": (lambda c, xi: -c["k"] * np.tan(c["k"] * xi),
            lambda c, xi: 1.0 / np.cos(c["k"] * xi),
            lambda c, xi: np.log(np.abs(np.cos(c["k"] * xi))),
            lambda c, xi: np.log(np.abs(np.tan(0.5 * c["k"] * xi + 0.25 * np.pi))) / c["k"]),
    "sinh": (lambda c, xi: c["c"] / np.tanh(c["c"] * xi),
             lambda c, xi: _reciprocal(np.sinh, c["c"] * xi),
             lambda c, xi: _log_abs_sinh(c["c"] * xi),
             lambda c, xi: np.log(np.abs(np.tanh(0.5 * c["c"] * xi))) / c["c"]),
    "cosh": (lambda c, xi: c["c"] * np.tanh(c["c"] * xi),
             lambda c, xi: _reciprocal(np.cosh, c["c"] * xi),
             lambda c, xi: _log_cosh(c["c"] * xi),
             lambda c, xi: 2.0 * np.arctan(np.tanh(0.5 * c["c"] * xi)) / c["c"]),
    # [()] makes a scalar xi give a scalar, as the other forms do
    "exp": (lambda c, xi: np.full_like(xi, c["c"])[()],
            lambda c, xi: np.exp(-c["c"] * xi),
            lambda c, xi: c["c"] * xi,
            lambda c, xi: np.exp(-c["c"] * xi) / -c["c"]),
}


@dataclass(frozen=True)
class SeedSolution:
    """A solution u of u'' + K u = 0 (or the generalized seed equation).

    A named branch is its constants and the closed forms of F = u'/u,
    1/u, log|u| and the integral of 1/u in the module table.  A custom
    branch, the input of the generalized construction, supplies u and
    uprime as callables plus a working interval in the scaled variable xi,
    and has only F.
    """

    K: float
    branch: str
    constants: dict
    u: Optional[Callable] = None
    uprime: Optional[Callable] = None
    interval: Optional[tuple] = None

    def __post_init__(self):
        if self.branch not in BRANCHES:
            raise BranchError(f"unknown branch {self.branch!r}")

    def F(self, xi):
        """u'/u at xi."""
        xi = np.asarray(xi, dtype=float)
        if self.branch == "custom":
            return self.uprime(xi) / self.u(xi)
        return _CLOSED_FORMS[self.branch][0](self.constants, xi)

    def inverse(self, xi):
        """1/u at xi."""
        xi = np.asarray(xi, dtype=float)
        return _CLOSED_FORMS[self.branch][1](self.constants, xi)

    def integral_ratio(self, xi):
        """(int u)/u at xi, the coefficient of C in the second solution."""
        xi = np.asarray(xi, dtype=float)
        if self.branch == "linear":
            s, t = self.constants["slope"], self.constants["intercept"]
            return xi * (0.5 * s * xi + t) / (s * xi + t)
        return -self.F(xi) / self.K

    def log_abs(self, xi):
        """log|u| at xi."""
        return _CLOSED_FORMS[self.branch][2](self.constants, np.asarray(xi, dtype=float))

    def inverse_integral(self, xi):
        """int (1/u) dxi at xi, the coefficient of D in the integral of phi."""
        return _CLOSED_FORMS[self.branch][3](self.constants, np.asarray(xi, dtype=float))

    def ratio_integral(self, xi):
        """int ((int u)/u) dxi at xi, the coefficient of C in the integral of phi."""
        xi = np.asarray(xi, dtype=float)
        if self.branch != "linear":
            return self.log_abs(xi) / -self.K
        s, t = self.constants["slope"], self.constants["intercept"]
        if s == 0.0:  # (int u)/u = xi
            return 0.5 * xi * xi
        out = xi * (s * xi + 2.0 * t) / (4.0 * s)
        if t:
            out -= 0.5 * (t / s) ** 2 * np.log(np.abs(_linear(self.constants, xi)))
        return out


def free_particle_seed(K: float, branch: str, slope: float = 1.0,
                       intercept: float = 0.0) -> SeedSolution:
    """Build the named branch solution of u'' + K u = 0.

    linear requires K = 0; sin/cos require K > 0; sinh/cosh/exp require
    K < 0.  A custom seed comes from integrate_seed instead.
    """
    K = float(K)
    if branch == "linear":
        if K != 0.0:
            raise BranchError("linear branch requires K = 0")
        if slope == 0.0 and intercept == 0.0:
            raise BranchError("linear seed needs a nonzero coefficient")
        return SeedSolution(0.0, "linear", {"slope": slope, "intercept": intercept})
    if branch in ("sin", "cos"):
        if K <= 0.0:
            raise BranchError(f"{branch} branch requires K > 0")
        return SeedSolution(K, branch, {"k": math.sqrt(K)})
    if branch in ("sinh", "cosh", "exp"):
        if K >= 0.0:
            raise BranchError(f"{branch} branch requires K < 0")
        return SeedSolution(K, branch, {"c": math.sqrt(-K)})
    raise BranchError(f"not a named branch: {branch!r}")


def _check_custom_seed(seed: SeedSolution, Keff) -> None:
    """Residual check u'' + Keff(xi) u = 0 with u'' from differencing uprime."""
    lo, hi = seed.interval
    xi = make_grid(lo, hi, 1024)
    u = np.asarray(seed.u(xi), float)
    up = np.asarray(seed.uprime(xi), float)
    upp = derivative(up, xi[1] - xi[0])
    scale = max(np.max(np.abs(upp)), np.max(np.abs(Keff(xi) * u)), 1e-300)
    res = np.max(np.abs(upp + Keff(xi) * u)[2:-2]) / scale
    if res > CUSTOM_SEED_TOL:
        raise ValueError(f"custom seed does not solve its equation (residual {res:.2e})")
    if np.min(np.abs(u)) == 0.0 or np.min(u) * np.max(u) < 0:
        raise PoleOnGrid("custom seed has a node on its working interval",
                         xi[np.abs(u) < 1e-12])


@dataclass(frozen=True)
class ConstructedSuperpotential:
    """W(x) = lam * F(alpha x) + phi(alpha x) + g, missing pieces zero.

    F is the seed log-derivative in the scaled variable; phi is the
    second-solution term C*(int u)/u + D/u (solving phi' + F phi = C),
    present when C is set; g = shift_const/lam.  Derivatives come from the
    defining relations, not differencing: F' = -K + V0 - F^2 and
    phi' = C - F phi (in xi).
    """

    seed: SeedSolution
    alpha: float
    lam: float
    C: Optional[float] = None
    D: Optional[float] = None
    shift_const: Optional[float] = None
    V0: Optional[Callable] = None  # generalized seed potential, in xi

    def __post_init__(self):
        if self.alpha == 0.0:
            raise ValueError("alpha must be nonzero")
        if self.shift_const is not None and self.lam == 0.0:
            raise ValueError("constant shift needs lam != 0")
        if self.C is not None and self.seed.branch == "custom":
            raise ValueError("a second solution needs a named seed")

    # --- seed log-derivative ------------------------------------------------
    def F_xi(self, xi):
        return self.seed.F(xi)

    def F(self, x):
        return self.F_xi(self.alpha * np.asarray(x, dtype=float))

    # --- optional pieces ----------------------------------------------------
    @property
    def g(self) -> float:
        if self.shift_const is None:
            return 0.0
        return self.shift_const / self.lam

    def phi_xi(self, xi):
        """C (int u)/u + D/u; the term of a zero coefficient is not formed."""
        if not self.C:
            return self.D * self.seed.inverse(xi) if self.D else np.zeros_like(np.asarray(xi, float))
        phi = self.seed.integral_ratio(xi)
        phi *= self.C
        phi += self.D * self.seed.inverse(xi) if self.D else 0.0  # a zero D still turns -0.0 to 0.0
        return phi

    def Phi_xi(self, xi):
        """int phi dxi = C int((int u)/u) dxi + D int(1/u) dxi, zero without phi."""
        xi = np.asarray(xi, dtype=float)
        out = np.zeros_like(xi)
        if self.C:
            out += self.C * self.seed.ratio_integral(xi)
        if self.D:
            out += self.D * self.seed.inverse_integral(xi)
        return out

    # --- assembled superpotential --------------------------------------------
    # W and W' are built in place in one array, in the operation order of the plain
    # expressions: every bit (-0.0 too) is theirs, as IEEE rounds a - b as (-b) + a
    def W_at(self, lam: float, x):
        """The family member at ladder parameter lam (same F, phi, shift)."""
        xi = self.alpha * np.asarray(x, dtype=float)
        w = self.F_xi(xi)
        w *= lam
        if self.C is not None:
            w += self.phi_xi(xi)
        if self.shift_const is not None:
            w += self.shift_const / lam
        return w

    def Wprime_at(self, lam: float, x):
        """alpha (lam F' + phi') with F' = -K + V0 - F^2 and phi' = C - F phi, in xi."""
        xi = self.alpha * np.asarray(x, dtype=float)
        f = self.F_xi(xi)
        v0 = self.V0(xi) if self.V0 is not None else 0.0
        d = -f
        d *= f
        d += -self.seed.K + v0
        d *= lam
        if self.C is not None:
            p = self.phi_xi(xi)
            p *= f
            p *= -1.0
            p += self.C
            d += p
        d *= self.alpha
        return d

    def prepotential(self, x):
        """int W dx = (lam/alpha) log|u(alpha x)| + Phi(alpha x)/alpha + g x, in
        closed form for a named seed, so that exp(-prepotential) is the ground state."""
        if self.seed.branch == "custom":
            raise ValueError("the prepotential needs a named seed")
        x = np.asarray(x, dtype=float)
        xi = self.alpha * x
        out = self.seed.log_abs(xi) * (self.lam / self.alpha)
        out += self.Phi_xi(xi) / self.alpha
        out += self.g * x
        return out

    def W(self, x):
        return self.W_at(self.lam, x)

    def Wprime(self, x):
        return self.Wprime_at(self.lam, x)

    # --- ladder bookkeeping ---------------------------------------------------
    def tau(self, lam: float) -> float:
        return lam - self.alpha

    def energy_shift(self) -> float:
        """R(lam) = V_plus(x; lam) - V_minus(x; lam - alpha), closed form."""
        lam, mu, alpha = self.lam, self.tau(self.lam), self.alpha
        r = -alpha * (lam + mu) * self.seed.K  # lam^2 - mu^2 rounds to 0 at large lam
        if self.C is not None:
            r += 2.0 * alpha * self.C
        if self.shift_const is not None:
            r -= self.shift_const**2 * alpha * (lam + mu) / (lam**2 * mu**2)
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
    """W = lam * u'(alpha x)/u(alpha x) for the branch solution of u'' + K u = 0;
    the branch is checked first, and ConstructedSuperpotential refuses alpha = 0."""
    seed = free_particle_seed(K, branch, slope=slope, intercept=intercept)
    return ConstructedSuperpotential(seed=seed, alpha=float(alpha), lam=float(lam))


def verify_case_riccati(F: SampledFunction, K: float) -> float:
    """max |F^2 + F' + K| with F' by 4th-order central differences.

    Grids crossing a pole of F (|F| > POLE_THRESHOLD; SampledFunction has
    refused NaN/inf) raise PoleOnGrid with its locations, nothing clipped.
    """
    vals = F.values
    bad = np.abs(vals) > POLE_THRESHOLD
    if np.any(bad):
        raise PoleOnGrid("grid crosses a pole of F", F.x[bad])
    fp = F.derivative()
    res = vals * vals + fp + K
    # the two points nearest each edge use lower-order stencils; the
    # residual is an interior claim
    return float(np.max(np.abs(res[2:-2])))


def extend_second_solution(base: ConstructedSuperpotential, C: float, D: float) -> ConstructedSuperpotential:
    """Attach phi solving phi' + F phi = C, phi = C * (int u)/u + D/u.

    Exact for the named branches (the module table); a custom seed is
    refused (a second solution needs a named seed).
    """
    if base.C is not None:
        raise ValueError("base already carries a second-solution term")
    return replace(base, C=float(C), D=float(D))


def extend_constant_shift(base: ConstructedSuperpotential, c: float) -> ConstructedSuperpotential:
    """W -> W + c/lam.  Shape invariance survives because the cross term
    2*lam*F*(c/lam) is ladder-independent; R gains c^2(1/lam^2 - 1/mu^2).

    Note: stacking the shift on top of a second-solution term leaves a
    ladder-dependent cross term 2*phi*c/lam and generally breaks the
    certificate; the verifier will report it honestly.
    """
    if base.lam - base.alpha == 0.0:
        raise ValueError("constant shift needs lam - alpha != 0 (the partner's c/mu is undefined)")
    return replace(base, shift_const=float(c))


def isospectral_shift_residual(W, chi: SampledFunction, K_lambda: float) -> float:
    """max |chi^2 + 2 W chi + chi' - K_lambda| over the grid's interior.

    A residual below tolerance certifies chi as an additive deformation of
    W that shifts the partner by the constant K_lambda.  chi' is chi's
    4th-order central difference on its grid.
    """
    x, c = chi.x, chi.values
    if np.any(np.abs(c) > POLE_THRESHOLD):
        raise PoleOnGrid("chi diverges on the grid", x[np.abs(c) > POLE_THRESHOLD])
    cp = chi.derivative()
    with np.errstate(all="ignore"):  # require_finite reports a NaN/inf
        w = W(x)
    res = c * c + 2.0 * require_finite(x, w, "values of W") * c + cp - K_lambda
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
        constants={},
        u=lambda xi: sol.sol(np.asarray(xi, float))[0],
        uprime=lambda xi: sol.sol(np.asarray(xi, float))[1],
        interval=(float(lo), float(hi)),
    )


def construct_generalized(V0, K: float, u_seed: SeedSolution, alpha: float,
                          lam: float) -> ConstructedSuperpotential:
    """W = lam * u'/u for u solving u'' + (K - V0(xi)) u = 0.

    The seed, a Schrodinger solution at energy K in the potential V0, must
    be nodeless on its working interval; it is checked before alpha, which
    ConstructedSuperpotential refuses at 0.  The partner difference is
    (lam^2 - mu^2) (V0(alpha x) - K); si_offset_field() is its x part.
    """
    if u_seed.branch != "custom" or u_seed.interval is None:
        raise ValueError("generalized construction expects a custom seed with interval")
    _check_custom_seed(u_seed, lambda xi: K - np.asarray(V0(xi), float))
    return ConstructedSuperpotential(
        seed=replace(u_seed, K=float(K)),
        alpha=float(alpha),
        lam=float(lam),
        V0=V0,
    )


def pole_free_grid(cons: ConstructedSuperpotential, lo: float, hi: float, n: int):
    """Uniform grid on the largest pole-free subinterval of [lo, hi].

    Zeros of a named seed u (poles of W) are located per branch and
    excluded with a margin of 1e-3 times the interval length; the poles
    found are returned alongside the grid rather than evaluated across.
    A window with more poles than n, or a custom seed, is refused.
    """
    poles_x = sorted(p / cons.alpha for p in _seed_zeros(cons, lo, hi, n))
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


def _seed_zeros(cons: ConstructedSuperpotential, lo: float, hi: float, n: int):
    """Zeros of the seed, in xi, for x in (lo, hi); more than n are refused."""
    seed = cons.seed
    xi_lo, xi_hi = sorted((cons.alpha * lo, cons.alpha * hi))
    if seed.branch in ("cosh", "exp"):
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
        if m_hi - m_lo + 1 > n:
            raise ValueError(f"W has {m_hi - m_lo + 1:.12g} poles on the window [{lo:.12g}, {hi:.12g}],"
                             f" more than the grid's {n} points")
        return [(m + half) * math.pi / k for m in range(m_lo, m_hi + 1)]
    raise ValueError("the poles of a custom seed are not located; pole_free_grid needs a named seed")
