"""Independent brute-force eigensolver for -psi'' + V psi = E psi.

Uniform-grid finite differences with Dirichlet walls: the symmetric
tridiagonal matrix has 2/h^2 + V(x_i) on the diagonal and -1/h^2 off it.
The lowest eigenvalues come from a deterministic bisection (no randomized
methods).  Eigenvectors cost an inverse iteration and a normalization per
level on top of that, and most callers read only the energies, so they are
computed on the first read of ``OracleResult.wavefunctions``: the same
solve run again with vectors, each normalized by the trapezoid rule and
sign-fixed.

This is the validation oracle for every algebraic result in the package;
it shares nothing with the ladder construction except the potential.  Its
own calibration gates are the particle in a box (E_n = (n+1)^2 on [0, pi])
and V = x^2 (E_n = 2n + 1 in hbar = 2m = 1 units).  The scheme is second
order, so halving h must shrink eigenvalue shifts by about 4x; the
convergence check flags levels that fail to do so.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .sampling import fix_sign, normalize
from .spectral import Spectrum, Wavefunction

__all__ = [
    "OracleConfig",
    "OracleResult",
    "SpectrumComparison",
    "eigensolve",
    "convergence_factors",
    "compare_spectra",
]


@dataclass(frozen=True)
class OracleConfig:
    box: tuple  # finite (lo, hi); walls sit just outside the grid
    n_points: int = 2000
    n_levels: int = 4
    shift: float = 0.0  # added to V, e.g. to pin the ground state at 0
    check_convergence: bool = False
    convergence_tol: float = 1e-3

    def __post_init__(self):
        lo, hi = self.box
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError("oracle box must be finite with lo < hi")
        if self.n_points < 500:
            raise ValueError("n_points must be >= 500")
        if self.n_levels < 1:
            raise ValueError("n_levels must be >= 1")


@dataclass
class OracleResult:
    """Energies of an eigensolve, with its eigenfunctions on demand.

    The energies, and the convergence check when asked for, are computed by
    eigensolve.  The eigenfunctions are computed on the first read of
    ``wavefunctions``, which solves again with vectors for the potential
    and config kept here, and are cached from then on.
    """

    spectrum: Spectrum
    potential: Callable = field(repr=False, compare=False)
    config: OracleConfig = field(repr=False, compare=False)
    convergence_deltas: Optional[np.ndarray] = None
    converged: Optional[bool] = None

    @functools.cached_property
    def wavefunctions(self) -> list:
        """Normalized eigenfunctions, leftmost maximum of |psi| positive."""
        from scipy.linalg import eigh_tridiagonal

        cfg = self.config
        x, diag, off = _matrix(self.potential, *cfg.box, cfg.n_points, cfg.shift)
        # the bisection of _energies, then inverse iteration for the vectors
        _, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, cfg.n_levels - 1))
        return [Wavefunction(x=x, values=fix_sign(normalize(v[:, n], x)), level=n,
                             normalized=True)
                for n in range(cfg.n_levels)]


def _matrix(V: Callable, lo: float, hi: float, n: int, shift: float):
    """Interior grid, diagonal and off-diagonal of the box Hamiltonian."""
    # interior points only; psi = 0 at the walls lo, hi
    x = np.linspace(lo, hi, n + 2)[1:-1]
    h = x[1] - x[0]
    diag = 2.0 / h**2 + np.asarray(V(x), dtype=float) + shift
    if not np.all(np.isfinite(diag)):
        raise ValueError("V is singular or non-finite inside the box")
    off = np.full(n - 1, -1.0 / h**2)
    return x, diag, off


def _energies(V: Callable, lo: float, hi: float, n: int, k: int, shift: float):
    """Lowest k eigenvalues by bisection (LAPACK stebz).

    The vector solve runs the same bisection before its inverse iteration,
    so its energies are bit-identical to these.
    """
    from scipy.linalg import eigh_tridiagonal

    _, diag, off = _matrix(V, lo, hi, n, shift)
    return eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, k - 1))


def eigensolve(V: Callable, cfg: OracleConfig) -> OracleResult:
    """Lowest cfg.n_levels eigenvalues of -d^2/dx^2 + V + shift on the box.

    With check_convergence, the energies are recomputed at twice the
    resolution and levels moving by more than convergence_tol are flagged
    (converged=False); the result itself always comes from the requested
    resolution.  The eigenfunctions are solved for when the result's
    ``wavefunctions`` is first read, evaluating V again on the same grid.
    """
    lo, hi = cfg.box
    w = _energies(V, lo, hi, cfg.n_points, cfg.n_levels, cfg.shift)
    deltas = None
    converged = None
    if cfg.check_convergence:
        w2 = _energies(V, lo, hi, 2 * cfg.n_points, cfg.n_levels, cfg.shift)
        deltas = np.abs(w2 - w)
        converged = bool(np.all(deltas < cfg.convergence_tol))
    spectrum = Spectrum(energies=list(w), provenance="oracle")
    return OracleResult(spectrum=spectrum, potential=V, config=cfg,
                        convergence_deltas=deltas, converged=converged)


def convergence_factors(V: Callable, cfg: OracleConfig, doublings: int = 2) -> np.ndarray:
    """Ratios |E(2N)-E(N)| / |E(4N)-E(2N)| ... per level.

    A second-order scheme gives factors near 4; anything comfortably above
    3 certifies the box resolution is in the asymptotic regime.
    """
    lo, hi = cfg.box
    runs = []
    n = cfg.n_points
    for _ in range(doublings + 1):
        runs.append(_energies(V, lo, hi, n, cfg.n_levels, cfg.shift))
        n *= 2
    diffs = [np.abs(b - a) for a, b in zip(runs[:-1], runs[1:])]
    return np.asarray([d1 / d2 for d1, d2 in zip(diffs[:-1], diffs[1:])])


@dataclass
class SpectrumComparison:
    deviations: list
    passed: bool
    tolerance: float
    mode: str
    truncated: bool

    def to_json(self) -> dict:
        return {
            "deviations": self.deviations,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "mode": self.mode,
            "truncated": self.truncated,
        }


def compare_spectra(a: Spectrum, b: Spectrum, mode: str = "relative-gap",
                    tolerance: float = 1e-3) -> SpectrumComparison:
    """Per-level deviations between two spectra.

    relative-gap mode subtracts each spectrum's own E_0 first, removing
    convention offsets; absolute mode compares raw energies.  Spectra of
    different lengths are compared on the common prefix and flagged.
    """
    if not a.energies or not b.energies:
        raise ValueError("cannot compare empty spectra")
    if mode not in ("absolute", "relative-gap"):
        raise ValueError("mode must be 'absolute' or 'relative-gap'")
    n = min(len(a.energies), len(b.energies))
    ea = np.asarray(a.energies[:n])
    eb = np.asarray(b.energies[:n])
    if mode == "relative-gap":
        ea = ea - a.energies[0]
        eb = eb - b.energies[0]
    dev = np.abs(ea - eb)
    return SpectrumComparison(
        deviations=[float(d) for d in dev],
        passed=bool(np.all(dev < tolerance)),
        tolerance=tolerance,
        mode=mode,
        truncated=len(a.energies) != len(b.energies),
    )
