"""Grid certification of the defining identities.

Every verifier evaluates a residual field on a uniform grid and reduces it
to a report.  The constancy test is max deviation from the mean (a hard
bound), never a variance.  Estimated constants are always refit from the
grid rather than trusted from closed forms, which keeps certification
decoupled from catalog bookkeeping.

Every verifier takes a tolerance, by default ANALYTIC_TOL = 1e-10, the
bound for residuals built from analytic derivatives.  A caller whose
residual involves finite differences passes its own.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .sampling import ParamSet, require_finite

__all__ = [
    "VerificationReport",
    "ANALYTIC_TOL",
    "verify_shape_invariance",
    "verify_qhj",
    "verify_negation_condition",
    "verify_generalized_si",
]

ANALYTIC_TOL = 1e-10


@dataclass(frozen=True)
class VerificationReport:
    max_residual: float
    mean: float
    estimated_constant: float
    passed: bool
    tolerance: float

    def __post_init__(self):
        if self.passed != (self.max_residual < self.tolerance):
            raise ValueError("passed flag inconsistent with residual/tolerance")

    def to_json(self) -> dict:
        return asdict(self)


def _constancy_report(x, d, tolerance) -> VerificationReport:
    """Report on whether the field d(x) is x-independent.

    x is the grid, or the pair (R, TH) for a field on a 2D grid.
    """
    d = require_finite(x, d, "difference field")
    mean = float(np.mean(d))
    max_res = float(np.max(np.abs(d - mean)))
    return VerificationReport(
        max_residual=max_res,
        mean=mean,
        estimated_constant=mean,
        passed=max_res < tolerance,
        tolerance=tolerance,
    )


def _zero_report(x, r, offset, tolerance) -> VerificationReport:
    """Report on whether the residual field r(x) vanishes."""
    r = require_finite(x, r, "residual field")
    mean = float(np.mean(r))
    max_res = float(np.max(np.abs(r)))
    return VerificationReport(
        max_residual=max_res,
        mean=mean,
        estimated_constant=float(offset - mean),
        passed=max_res < tolerance,
        tolerance=tolerance,
    )


def verify_shape_invariance(
    W,
    Wprime,
    p: ParamSet,
    tau,
    grid,
    tolerance: float = ANALYTIC_TOL,
) -> VerificationReport:
    """Certify V_plus(x; p) - V_minus(x; tau(p)) is x-independent.

    W and Wprime are (params, x) -> value callables; the estimated constant
    in the report is the refit energy shift between the two rungs.  This is
    verify_generalized_si with V0 identically zero: subtracting 0.0 leaves
    every value bit-identical, -0.0 included.
    """
    return verify_generalized_si(W, Wprime, p, tau, lambda x: 0.0, grid, tolerance)


def verify_qhj(W, Wprime, V, E: float, grid, tolerance: float = ANALYTIC_TOL) -> VerificationReport:
    """Residual of the Riccati relation W^2 - W' - V + E over the grid.

    W, Wprime are x -> value callables here (single parameter point); the
    estimated constant is the energy that would zero the mean residual.
    """
    x = np.asarray(grid, dtype=float)
    with np.errstate(all="ignore"):  # require_finite reports a NaN/inf
        w = W(x)
        r = w * w - Wprime(x) - V(x) + E
    return _zero_report(x, r, E, tolerance)


def verify_negation_condition(W, p: ParamSet, tau, grid, tolerance: float = ANALYTIC_TOL) -> VerificationReport:
    """Residual of W(x; tau(p)) + W(x; p).

    Passing certifies the sufficient condition for shape invariance in
    which the mapped superpotential is the negation of the original.  The
    condition is sufficient, not necessary, so failure is informative
    rather than fatal.
    """
    x = np.asarray(grid, dtype=float)
    with np.errstate(all="ignore"):  # require_finite reports a NaN/inf
        r = W(tau(p), x) + W(p, x)
    return _zero_report(x, r, 0.0, tolerance)


def verify_generalized_si(
    W,
    Wprime,
    p: ParamSet,
    tau,
    V0,
    grid,
    tolerance: float = ANALYTIC_TOL,
) -> VerificationReport:
    """Certify V_plus(x; p) - V_minus(x; tau(p)) - V0(x) is x-independent.

    V0 identically zero reduces this to verify_shape_invariance.  The
    estimated constant is the refit additive shift accompanying V0.
    """
    x = np.asarray(grid, dtype=float)
    q = tau(p)
    with np.errstate(all="ignore"):  # require_finite reports a NaN/inf
        wp, wq = W(p, x), W(q, x)
        dp, dq = Wprime(p, x), Wprime(q, x)
        d = (wp * wp + dp) - (wq * wq - dq) - V0(x)
    return _constancy_report(x, d, tolerance)
