"""Algebraic spectra and wavefunction ladders.

Bound-state energies come from cumulative sums of the energy shift down
the parameter ladder: E_0 = 0 (the ground state of V_minus is annihilated)
and E_n = sum_{k<n} R(tau^k(p)).

Ladder states come from the seed ring, with no quadrature and no
differencing.  Every catalog recipe is W = lam F(xi) + phi(xi) + c/lam with
xi = alpha x, dF/dxi = -K - F^2 and dphi/dxi = C - F phi, and its rungs
differ in lam alone.  So psi_n = Q_n(F, phi) exp(-Omega_n): Omega_n is the
prepotential of rung n in closed form (ansatz.ConstructedSuperpotential),
and Q_n a polynomial in F and phi built exactly from the raising
intertwiners (-d/dx + W) of the rungs below it.

Numerical policy, fixed and documented: ladder states are closed forms
evaluated on the grid, so they hold on any strictly increasing grid;
ground_state(W, grid) of an arbitrary W integrates W by Simpson's rule per
panel on the midpoint grid, and apply_A and apply_Adagger use 4th-order
central differences (one-sided at edges), on uniform grids, with errors
O(h^4) in the step.  Norms are trapezoid-rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import InvalidParameters, PotentialFamily
from .sampling import (
    ParamSet,
    count_nodes,
    cumulative_panel_simpson,
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

    W is evaluated once, on the grid refined by its panel midpoints, and
    must return one value per point; the integral is Simpson's rule per
    panel on that midpoint grid (sampling.cumulative_panel_simpson), exact
    for cubics.  The exponent is rescaled by its maximum before
    exponentiating, which changes only the normalization and cannot
    overflow.  If the peak of the would-be state sits on a grid endpoint the
    state is not normalizable on any extension of this grid and
    NonNormalizable is raised.  The grid must pass sampling.uniform_step.
    """
    x = np.asarray(grid, dtype=float)
    uniform_step(x)
    fine = np.empty(2 * x.size - 1)
    fine[::2] = x
    mid = fine[1::2]
    np.add(x[:-1], x[1:], out=mid)
    mid *= 0.5
    with np.errstate(all="ignore"):  # require_finite reports a NaN/inf
        w = W(fine)
    if np.shape(w) != fine.shape:
        raise ValueError("W must return one value per grid point")
    expo = cumulative_panel_simpson(require_finite(fine, w, "values of W"), x)
    expo -= expo[x.size // 2]  # reference point: grid midpoint
    np.negative(expo, out=expo)
    expo -= expo.max()
    vals = np.exp(expo)
    peak = int(np.argmax(vals))
    if peak in (0, x.size - 1):
        raise NonNormalizable("exp(-int W) peaks on the grid boundary")
    return Wavefunction(x=x, values=normalize(vals, x), level=0)


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
    vals = derivative(psi.values, h)
    np.negative(vals, out=vals)
    vals += np.asarray(W(x), float) * psi.values
    return Wavefunction(x=x, values=vals, level=psi.level + 1)


# ---------------------------------------------------------------------------
# the seed ring: polynomials in F and phi, closed under d/dx.  An element is
# a 2-D array q, q[i, j] the coefficient of F^i phi^j; a recipe without phi
# has one column
# ---------------------------------------------------------------------------

def _ring_w(cons, lam: float) -> np.ndarray:
    """W = lam F + phi + c/lam of the recipe cons at ladder parameter lam."""
    w = np.zeros((2, 1 if cons.C is None else 2))
    w[1, 0] = lam
    if cons.C is not None:
        w[0, 1] = 1.0
    if cons.shift_const is not None:
        w[0, 0] = cons.shift_const / lam
    return w


def _ring_up(q: np.ndarray, cons) -> np.ndarray:
    """Zeros one degree above q in F, and in phi where cons has phi: the
    shape of D q and of W q."""
    return np.zeros((q.shape[0] + 1, q.shape[1] + (cons.C is not None)))


def _ring_times(w: np.ndarray, q: np.ndarray, cons) -> np.ndarray:
    """w q for w = aF + b phi + c, such as a W or a sum of two."""
    rows, cols = q.shape
    out = _ring_up(q, cons)
    np.multiply(q, w[0, 0], out=out[:rows, :cols])
    out[1:, :cols] += w[1, 0] * q
    if w.shape[1] > 1:
        out[:rows, 1:] += w[0, 1] * q
    return out


def _ring_derive(q: np.ndarray, cons) -> np.ndarray:
    """D q = d/dx q, by DF = alpha (-K - F^2) and D phi = alpha (C - F phi):
    D(F^i phi^j) = alpha (-K i F^(i-1) phi^j - (i+j) F^(i+1) phi^j + C j F^i phi^(j-1))."""
    rows, cols = q.shape
    alpha = cons.alpha
    out = _ring_up(q, cons)
    i = np.arange(rows)[:, None]
    j = np.arange(cols)
    np.multiply(q[1:], i[1:] * (-alpha * cons.seed.K), out=out[:rows - 1, :cols])
    out[1:, :cols] -= (alpha * (i + j)) * q
    if cols > 1:
        out[:rows, :cols - 1] += q[:, 1:] * (j[1:] * (alpha * cons.C))
    return out


def _ring_reduce(q: np.ndarray, f: float) -> np.ndarray:
    """q with F set to the constant f, one row: the relation of a seed whose
    F is constant, which the derivation alone does not know."""
    out = q[-1].copy()
    for row in q[-2::-1]:
        out *= f
        out += row
    return out[None, :]


def _constant_F(seed):
    """F of a seed that fixes it, 0 for u = 1 and c for exp; else None."""
    if seed.branch == "exp":
        return seed.constants["c"]
    if seed.branch == "linear" and seed.constants["slope"] == 0.0:
        return 0.0
    return None


def _horner(c, t, out: np.ndarray) -> np.ndarray:
    """sum_i c[i] t^i into out, by Horner in t."""
    c = c.tolist()
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    out.fill(c[-1])
    for a in c[-2::-1]:
        out *= t
        out += a
    return out


def _ladder_polynomial(cons, ws, n: int) -> np.ndarray:
    """Q_n of psi_n = Q_n exp(-Omega_n): from Q = 1, Q <- -DQ + (W_k + W_n) Q
    for k = n-1 down to 0, ws[k] being W at rung k of the recipe cons."""
    f0 = _constant_F(cons.seed)
    q = np.ones((1, 1))
    for k in range(n - 1, -1, -1):
        q = _ring_times(ws[k] + ws[n], q, cons) - _ring_derive(q, cons)
        if f0 is not None:
            q = _ring_reduce(q, f0)
    return q


def _ring_eval(q: np.ndarray, f, phi, shape) -> np.ndarray:
    """q at the grid values f of F and phi of phi: Horner in F on each column,
    one per power of phi, and Horner in phi across them.  f may be None for
    a one-row q, phi for a one-column q."""
    out = _horner(q[:, -1], f, np.empty(shape))
    row = np.empty(shape) if q.shape[0] > 1 and q.shape[1] > 1 else None
    for j in range(q.shape[1] - 2, -1, -1):
        out *= phi
        out += q[0, j] if row is None else _horner(q[:, j], f, row)
    return out


def ladder_wavefunctions(family: PotentialFamily, p: ParamSet, n_levels: int, grid) -> list:
    """First n_levels eigenfunctions of V_minus(x; p) by the intertwining ladder.

    psi_n = (-d/dx + W_0) ... (-d/dx + W_(n-1)) psi_0(p_n), W_k the
    superpotential at the k-th rung tau^k(p), is Q_n(F, phi) exp(-Omega_n):
    Q_n is built in the seed ring from Q = 1 by Q <- -DQ + (W_k + W_n) Q
    for k = n-1 down to 0, and Omega_n is rung n's prepotential in closed
    form.  The rungs share the seed, alpha, C, D and c, and only lam moves,
    so F, phi, log|u| and the integral of phi are evaluated on the grid
    once per call; each level is then one exp, one Horner evaluation of
    Q_n, a trapezoid normalization and the leftmost-maximum-positive sign
    convention.  Nothing is differentiated or integrated on the grid, so
    any strictly increasing grid will do.

    A NaN/inf among those values, as at a pole of W on the grid, raises
    NonFiniteValues with its locations; so does a level whose Q_n
    overflows.  NonNormalizable is raised if the peak of exp(-Omega_n)
    sits on a grid end.  If the ladder ends early the list is truncated
    to the levels whose rung parameters stay valid, as in
    algebraic_spectrum.
    """
    spec = algebraic_spectrum(family, p, n_levels)
    x = np.asarray(grid, dtype=float)
    if x.ndim != 1 or x.size < 3 or not np.all(x[1:] > x[:-1]):
        raise ValueError("grid must be 1-D and strictly increasing, with at least 3 points")
    rungs = [family.recipe(q) for q in spec.level_params]
    base = rungs[0]
    if base.V0 is not None or base.seed.branch == "custom":
        raise ValueError("the ladder needs a recipe on a named seed")
    shared = (base.seed, base.alpha, base.C, base.D, base.shift_const)
    if any((r.seed, r.alpha, r.C, r.D, r.shift_const) != shared for r in rungs[1:]):
        raise ValueError("the ladder's rungs must differ in lam alone")
    xi = base.alpha * x
    f0 = _constant_F(base.seed)
    with np.errstate(all="ignore"):  # require_finite reports a NaN/inf
        f = None if f0 is not None else base.F_xi(xi)
        phi = None if base.C is None else base.phi_xi(xi)
        log_u = base.seed.log_abs(xi)
        big_phi = None if base.C is None else base.Phi_xi(xi)
    for v in (f, phi, log_u, big_phi):
        if v is not None:
            require_finite(x, v, "values of W and its integral")
    log_u /= base.alpha
    if big_phi is not None:
        big_phi /= base.alpha
    ws = [_ring_w(base, r.lam) for r in rungs]
    out = []
    for n, rung in enumerate(rungs):
        # exp(-Omega_n), scaled to peak at 1
        expo = np.multiply(log_u, -rung.lam)
        if big_phi is not None:
            expo -= big_phi
        if base.shift_const is not None:
            expo -= (base.shift_const / rung.lam) * x
        peak = int(np.argmax(expo))
        if peak in (0, x.size - 1):
            raise NonNormalizable("exp(-int W) peaks on the grid boundary")
        expo -= expo[peak]
        np.exp(expo, out=expo)
        q = _ladder_polynomial(base, ws, n)
        with np.errstate(all="ignore"):  # require_finite reports a NaN/inf
            vals = _ring_eval(q, f, phi, x.shape)
            vals *= expo
        try:
            vals = normalize(vals, x)
        except ValueError:  # an overflow in Q_n is named; any other failure stands
            require_finite(x, vals, f"values of psi_{n}")
            raise
        out.append(Wavefunction(x=x, values=fix_sign(vals), level=n))
    return out


def wavefunctions_to_csv(path, wavefunctions) -> None:
    """RFC-4180 CSV with columns x, psi0, psi1, ..."""
    if not wavefunctions:
        raise ValueError("nothing to export")
    write_csv(path, ["x"] + [f"psi{w.level}" for w in wavefunctions],
              [wavefunctions[0].x] + [w.values for w in wavefunctions])
