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
    normalized: bool = False

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
        shift = family.R(q)
        try:
            q = family.tau(q)
            family.validate(q)
        except InvalidParameters:
            truncated = True
            break
        if shift <= 0:
            truncated = True
            break
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
    later differentiates psi_0 twice.  The exponent is rescaled by its
    maximum before exponentiating, which changes only the normalization
    and cannot overflow.  If the peak of the would-be state sits on a grid
    endpoint the state is not normalizable on any extension of this grid
    and NonNormalizable is raised.
    """
    x = np.asarray(grid, dtype=float)
    fine = np.empty(2 * x.size - 1)
    fine[::2] = x
    fine[1::2] = 0.5 * (x[:-1] + x[1:])
    w = np.asarray(W(fine), dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("W is not finite on the grid")
    omega = cumulative_integral(w, fine)[::2]
    omega -= omega[x.size // 2]  # reference point: grid midpoint
    expo = -omega
    expo -= expo.max()
    vals = np.exp(expo)
    peak = int(np.argmax(vals))
    if peak in (0, x.size - 1):
        raise NonNormalizable("exp(-int W) peaks on the grid boundary")
    vals = normalize(vals, x)
    return Wavefunction(x=x, values=vals, level=0, normalized=True)


def apply_A(W, psi: Wavefunction) -> Wavefunction:
    """(d/dx + W) psi; annihilates the ground state of W.  Not normalized."""
    x = psi.x
    h = float(x[1] - x[0])
    vals = derivative(psi.values, h) + np.asarray(W(x), float) * psi.values
    return Wavefunction(x=x, values=vals, level=max(psi.level - 1, 0), normalized=False)


def apply_Adagger(W, psi: Wavefunction) -> Wavefunction:
    """(-d/dx + W) psi; raises a partner eigenfunction one rung.  Not normalized."""
    x = psi.x
    h = float(x[1] - x[0])
    vals = -derivative(psi.values, h) + np.asarray(W(x), float) * psi.values
    return Wavefunction(x=x, values=vals, level=psi.level + 1, normalized=False)


def ladder_wavefunctions(family: PotentialFamily, p: ParamSet, n_levels: int, grid) -> list:
    """First n_levels eigenfunctions of V_minus(x; p) by the intertwining ladder.

    psi_n is built from the ground state at the n-th rung parameters
    tau^n(p), then raised through (-d/dx + W(tau^k(p))) for k = n-1 ... 0.
    Each output is normalized with the leftmost-maximum-positive sign
    convention.  If the ladder ends early the list is truncated to the
    levels whose rung parameters stay valid.
    """
    spec = algebraic_spectrum(family, p, n_levels)
    x = np.asarray(grid, dtype=float)
    out = []
    for n, _ in enumerate(spec.energies):
        rung = spec.level_params[n]
        psi = ground_state(lambda xs: family.W(rung, xs), x)
        for k in range(n - 1, -1, -1):
            pk = spec.level_params[k]
            psi = apply_Adagger(lambda xs, pk=pk: family.W(pk, xs), psi)
        vals = fix_sign(normalize(psi.values, x))
        out.append(Wavefunction(x=x, values=vals, level=n, normalized=True))
    return out


def wavefunctions_to_csv(path, wavefunctions) -> None:
    """RFC-4180 CSV with columns x, psi0, psi1, ..."""
    if not wavefunctions:
        raise ValueError("nothing to export")
    write_csv(path, ["x"] + [f"psi{w.level}" for w in wavefunctions],
              [wavefunctions[0].x] + [w.values for w in wavefunctions])
