"""Grid certification of the defining identities.

Every verifier evaluates a residual field on a uniform grid, with the
magnitudes of the parts it is summed from, and hands both to judge, the
one place a residual meets a bound.  Estimated constants are always refit
from the grid rather than trusted from closed forms, which keeps
certification decoupled from catalog bookkeeping.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .sampling import ParamSet, require_finite

__all__ = [
    "VerificationReport",
    "judge",
    "verify_shape_invariance",
    "verify_qhj",
    "verify_negation_condition",
    "verify_generalized_si",
]

#: an exact identity's residual in units of eps max S is a few at most
#: (Oettli & Prager); 6000 exact certificates surveyed stayed below 6.6
ROUNDING_FACTOR = 64


@dataclass(frozen=True)
class VerificationReport:
    """verdict is pass, fail or unresolved; tolerance is the bound applied,
    scale the largest sum of part sizes max S, and worst_x the grid point
    of the largest residual (an (r, theta) pair on a 2D grid)."""

    max_residual: float
    mean: float
    estimated_constant: float
    passed: bool
    tolerance: float
    verdict: str
    scale: float
    worst_x: object

    def __post_init__(self):
        wrong = "fail" if self.max_residual <= self.tolerance else "pass"
        if self.verdict == wrong or self.passed != (self.verdict == "pass"):
            raise ValueError("passed flag inconsistent with verdict and residual/tolerance")

    def to_json(self) -> dict:
        return asdict(self)


def judge(x, residual, parts, offset=None, tolerance=None) -> VerificationReport:
    """Judge a residual summed from parts of the given magnitudes (fields or
    numbers) on the grid x, or (R, TH), against the rounding floor
    ROUNDING_FACTOR eps max S of their sum S, or an absolute tolerance.
    With offset None the residual must be constant about its mean, the
    estimated constant, and is unresolved when parts vary but none by as
    much as the floor; otherwise it must vanish, and the estimated constant
    is offset - mean."""
    with np.errstate(over="ignore"):  # require_finite reports an S that overflows
        fields = np.broadcast_arrays(residual, sum(parts[1:], parts[0]))  # one part: no copy
    # the parts are magnitudes, so a finite S holds only finite ones
    r, total = (require_finite(x, f, "residual field or its part sizes") for f in fields)
    mean = float(np.mean(r))
    dev = abs(r - mean) if offset is None else np.abs(r)  # abs() reuses r - mean's array
    worst = int(np.argmax(dev))
    scale = float(np.max(total))
    floor = ROUNDING_FACTOR * np.finfo(float).eps * scale
    bound = floor if tolerance is None else tolerance
    if offset is None and 0 < max(np.ptp(part) for part in parts) < floor:
        verdict = "unresolved"
    else:
        verdict = "pass" if dev.flat[worst] <= bound else "fail"
    return VerificationReport(
        max_residual=float(dev.flat[worst]),
        mean=mean,
        estimated_constant=mean if offset is None else float(offset - mean),
        passed=verdict == "pass",
        tolerance=float(bound),
        verdict=verdict,
        scale=scale,
        worst_x=(tuple(float(g.flat[worst]) for g in x) if isinstance(x, tuple)
                 else float(x.flat[worst])),
    )


def verify_shape_invariance(
    W,
    Wprime,
    p: ParamSet,
    tau,
    grid,
    tolerance=None,
) -> VerificationReport:
    """Certify V_plus(x; p) - V_minus(x; tau(p)) is x-independent.

    W and Wprime are (params, x) -> value callables; the estimated constant
    in the report is the refit energy shift between the two rungs.  This is
    verify_generalized_si with V0 identically zero: subtracting 0.0 leaves
    every value bit-identical, -0.0 included.
    """
    return verify_generalized_si(W, Wprime, p, tau, lambda x: 0.0, grid, tolerance)


def verify_qhj(W, Wprime, V, E: float, grid, tolerance=None) -> VerificationReport:
    """Residual of the Riccati relation W^2 - W' - V + E over the grid.

    W, Wprime are x -> value callables here (single parameter point); the
    estimated constant is the energy that would zero the mean residual.
    """
    x = np.asarray(grid, dtype=float)
    with np.errstate(all="ignore"):  # judge reports a NaN/inf
        w = W(x)
        w2, dw, v = w * w, Wprime(x), V(x)
        r = w2 - dw - v + E
    return judge(x, r, (w2, np.abs(dw), np.abs(v), abs(E)), offset=E, tolerance=tolerance)


def verify_negation_condition(W, p: ParamSet, tau, grid, tolerance=None) -> VerificationReport:
    """Residual of W(x; tau(p)) + W(x; p).

    Passing certifies the sufficient condition for shape invariance in
    which the mapped superpotential is the negation of the original.  The
    condition is sufficient, not necessary, so failure is informative
    rather than fatal.
    """
    x = np.asarray(grid, dtype=float)
    with np.errstate(all="ignore"):  # judge reports a NaN/inf
        wq, wp = W(tau(p), x), W(p, x)
        r = wq + wp
    return judge(x, r, (np.abs(wq), np.abs(wp)), offset=0.0, tolerance=tolerance)


def verify_generalized_si(
    W,
    Wprime,
    p: ParamSet,
    tau,
    V0,
    grid,
    tolerance=None,
) -> VerificationReport:
    """Certify V_plus(x; p) - V_minus(x; tau(p)) - V0(x) is x-independent.

    V0 identically zero reduces this to verify_shape_invariance.  The
    estimated constant is the refit additive shift accompanying V0.
    """
    x = np.asarray(grid, dtype=float)
    q = tau(p)
    with np.errstate(all="ignore"):  # judge reports a NaN/inf
        wp, wq = W(p, x), W(q, x)
        dp, dq = Wprime(p, x), Wprime(q, x)
        wp2, wq2, v0 = wp * wp, wq * wq, V0(x)
        d = (wp2 + dp) - (wq2 - dq) - v0
    return judge(x, d, (wp2, np.abs(dp), wq2, np.abs(dq), np.abs(v0)), tolerance=tolerance)
