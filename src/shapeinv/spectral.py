"""Algebraic spectra and wavefunction ladders.

Bound-state energies come from cumulative sums of the energy shift down
the parameter ladder: E_0 = 0 (the ground state of V_minus is annihilated)
and E_n = sum_{k<n} R(tau^k(p)).  Wavefunctions come from the ground-state
closed form psi_0 = exp(-int W) and repeated application of the raising
intertwiner (-d/dx + W) across ladder rungs.

Numerical policy, fixed and documented: cumulative Simpson quadrature for
the prepotential integral, 4th-order central differences for the
intertwiners (one-sided at edges), trapezoid-rule norms.  Errors scale as
O(h^4) in the grid spacing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import InvalidParameters, PotentialFamily
from .sampling import (
    ParamSet,
    count_nodes,
    cumulative_integral,
    derivative,
    fix_sign,
    l2_norm,
    normalize,
    require_finite,
    uniform_step,
    write_csv,
)

__all__ = [
    "Spectrum",
    "Wavefunction",
    "NonNormalizable",
    "algebraic_spectrum",
    "ground_state",
    "apply_A",
    "apply_Adagger",
    "ladder_wavefunctions",
    "wavefunctions_to_csv",
]


class NonNormalizable(ValueError):
    """exp(-int W) fails the normalizability check on the given grid."""


@dataclass
class Spectrum:
    """Ordered bound-state energies with provenance.

    provenance is "algebraic" (ladder sums, E_0 = 0 by convention) or
    "oracle" (grid eigensolver).  level_params records the parameter ladder
    tau^0(p), tau^1(p), ... actually used.  truncated marks a ladder that
    ended before the requested level count.
    """

    energies: list
    provenance: str
    level_params: list = field(default_factory=list)
    truncated: bool = False

    def __post_init__(self):
        e = list(float(v) for v in self.energies)
        if any(b < a - 1e-12 for a, b in zip(e, e[1:])):
            raise ValueError("energies must be nondecreasing")
        if self.provenance == "algebraic" and e and abs(e[0]) > 1e-12:
            raise ValueError("algebraic spectra are pinned to E_0 = 0")
        self.energies = e

    def gaps(self) -> np.ndarray:
        return np.asarray(self.energies) - self.energies[0]

    def to_json(self) -> dict:
        return {
            "energies": self.energies,
            "provenance": self.provenance,
            "truncated": self.truncated,
        }


@dataclass
class Wavefunction:
    x: np.ndarray
    values: np.ndarray
    level: int = 0

    def norm(self) -> float:
        return l2_norm(self.values, self.x)

    def nodes(self) -> int:
        return count_nodes(self.values)

    def inner(self, other: "Wavefunction") -> float:
        return float(np.trapezoid(self.values * other.values, self.x))


def algebraic_spectrum(family: PotentialFamily, p: ParamSet, n_levels: int) -> Spectrum:
    """E_n = sum_{k=0}^{n-1} R(tau^k(p)), truncating where the ladder ends.

    Level n exists only while tau^n(p) still satisfies the family
    constraints (the rung's own ground state must be normalizable) and the
    running shift stays positive; a shorter-than-requested list is returned
    with the truncated flag set instead of raising.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    family.validate(p)
    energies = [0.0]
    ladder = [dict(p)]
    q = dict(p)
    truncated = False
    while len(energies) < n_levels:
        try:
            partner = family.tau(q)
            family.validate(partner)
        except InvalidParameters:
            truncated = True
            break
        shift = family.R(q)  # R may divide by zero where tau(q) is invalid
        if shift <= 0:
            truncated = True
            break
        q = partner
        energies.append(energies[-1] + shift)
        ladder.append(dict(q))
    return Spectrum(
        energies=energies,
        provenance="algebraic",
        level_params=ladder,
        truncated=truncated,
    )


def ground_state(W, grid) -> Wavefunction:
    """psi_0(x) = exp(-int_{x0}^{x} W dt), normalized; x0 is the midpoint.

    The integral uses cumulative Simpson quadrature on a midpoint-refined
    grid, keeping panel boundaries only: cumulative Simpson alternates its
    error signature between panel-boundary and mid-panel points, and that
    odd/even sawtooth survives the exponential and wrecks anything that
    later differentiates psi_0 twice.  W is evaluated once, on the refined
    grid.  The exponent is rescaled by its maximum before exponentiating,
    which changes only the normalization and cannot overflow.  If the peak
    of the would-be state sits on a grid endpoint the state is not
    normalizable on any extension of this grid and NonNormalizable is
    raised.  The grid must pass sampling.uniform_step.
    """
    x = np.asarray(grid, dtype=float)
    uniform_step(x)
    return Wavefunction(x=x, values=_ground_state(W, x), level=0)


def _ground_state(W, x: np.ndarray) -> np.ndarray:
    """The values of ground_state(W, x), steps done in place."""
    fine = np.empty(2 * x.size - 1)
    fine[::2] = x
    mid = fine[1::2]
    np.add(x[:-1], x[1:], out=mid)
    mid *= 0.5
    with np.errstate(all="ignore"):  # require_finite reports a NaN/inf
        w = W(fine)
    expo = cumulative_integral(require_finite(fine, w, "values of W"), fine)[::2]
    expo -= expo[x.size // 2]  # reference point: grid midpoint
    np.negative(expo, out=expo)
    expo -= expo.max()
    vals = np.exp(expo)
    peak = int(np.argmax(vals))
    if peak in (0, x.size - 1):
        raise NonNormalizable("exp(-int W) peaks on the grid boundary")
    return normalize(vals, x)


def apply_A(W, psi: Wavefunction) -> Wavefunction:
    """(d/dx + W) psi; annihilates the ground state of W.  Not normalized."""
    x = psi.x
    h = uniform_step(x)
    vals = derivative(psi.values, h) + np.asarray(W(x), float) * psi.values
    return Wavefunction(x=x, values=vals, level=max(psi.level - 1, 0))


def apply_Adagger(W, psi: Wavefunction) -> Wavefunction:
    """(-d/dx + W) psi; raises a partner eigenfunction one rung.  Not normalized."""
    x = psi.x
    h = uniform_step(x)
    vals = _raise(psi.values, h, np.asarray(W(x), float))
    return Wavefunction(x=x, values=vals, level=psi.level + 1)


def _raise(values: np.ndarray, h: float, w: np.ndarray) -> np.ndarray:
    """-values' + w * values on a grid of step h, w being W on the grid."""
    out = derivative(values, h)
    np.negative(out, out=out)
    out += w * values
    return out


def ladder_wavefunctions(family: PotentialFamily, p: ParamSet, n_levels: int, grid) -> list:
    """First n_levels eigenfunctions of V_minus(x; p) by the intertwining ladder.

    psi_n is built from the ground state at the n-th rung parameters
    tau^n(p), then raised through (-d/dx + W(tau^k(p))) for k = n-1 ... 0.
    Rung k's W is evaluated on the grid once, at its first raise, and
    reused for every level above k.  The grid must pass
    sampling.uniform_step; it is checked once per call.  Each output is
    normalized with the leftmost-maximum-positive sign convention.  If the
    ladder ends early the list is truncated to the levels whose rung
    parameters stay valid.
    """
    spec = algebraic_spectrum(family, p, n_levels)
    x = np.asarray(grid, dtype=float)
    h = uniform_step(x)
    rungs = [family.recipe(q) for q in spec.level_params]
    ws = []  # ws[k]: rung k's W on the grid
    out = []
    for n, rung in enumerate(rungs):
        vals = _ground_state(rung.W, x)
        if n:
            ws.append(np.asarray(rungs[n - 1].W(x), float))
        for w in reversed(ws):
            vals = _raise(vals, h, w)
        vals = fix_sign(normalize(vals, x))
        out.append(Wavefunction(x=x, values=vals, level=n))
    return out


def wavefunctions_to_csv(path, wavefunctions) -> None:
    """RFC-4180 CSV with columns x, psi0, psi1, ..."""
    if not wavefunctions:
        raise ValueError("nothing to export")
    write_csv(path, ["x"] + [f"psi{w.level}" for w in wavefunctions],
              [wavefunctions[0].x] + [w.values for w in wavefunctions])
