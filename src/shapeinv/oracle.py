"""Independent spectral eigensolver for -u'' + V u = E u on a domain.

Double-exponential sinc collocation (Eggert, Jarratt & Lund, J. Comput. Phys.
69 (1987) 209) on the maps of Takahasi & Mori (Publ. RIMS 9 (1974) 721):
x = x0 + sinh t on the full line, x0 where V is least on a scan; exp(t - e^-t)
on the half line (0, inf); mid + (L/2) tanh((pi/2) sinh t) on an interval.
With u = psi'^(1/2) w, -w'' + Q w = E psi'^2 w, Q = psi'^2 V + l'^2/4 - l''/2,
l = log psi', and every bound state decays double-exponentially in t.  The
levels of the collocated pencil A w = E B w, B = diag(psi'^2), are those of
B^(-1/2) A B^(-1/2), strongly graded where psi' is small; eigvalsh keeps the
lowest accurate with the nodes ordered by decreasing diagonal (not in node
order), and gives the same bits for any BLAS thread count, which an LU or
Cholesky factorization under OpenBLAS does not.  Vectors come from the
shift-invert form, which keeps w accurate where psi' is small.

The window comes from V alone: on a scan of Q / psi'^2, WKB with the Langer
term (the l' part of Q) puts the top level at int sqrt(E psi'^2 - Q) dt =
(n + 1/2) pi, and the window ends DECAY e-folds out from its turning points.
The pencil is solved at 65 points, the window set again from the solved top
level, and solved at 129: their distance is the convergence estimate.  V
overflowing in the scan's tails is forbidden region; a NaN/inf between finite
values is an error.  Near a finite wall w, V is read down to WALL_ULPS float
spacings of w, where x(t) still resolves the distance d; past that Q / psi'^2
goes on as the wall's c / d^2.

The oracle shares nothing with the ladder construction but V.  Its
calibration gates are the particle in a box (E_n = (n+1)^2 on (0, pi)) and
V = x^2 (E_n = 2n + 1), in units hbar = 2m = 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .catalog import DomainInterval
from .sampling import fix_sign, normalize, require_finite
from .spectral import Spectrum, Wavefunction

__all__ = ["OracleConfig", "OracleResult", "SpectrumComparison", "solve", "compare_spectra"]

SIZES = (65, 129)  # collocation sizes: the energies come from the second
SCAN = 2001  # points of each scan of Q / psi'^2
DECAY = 20.0  # WKB decay exponent at which the window ends
WALL_ULPS = 2.0**20  # there x(t) resolves the distance to a finite wall to 1e-6
D_MIN = 1e-150  # least distance to a wall at 0: psi'^2 stays a normal float
T_HALF = -5.8276509945195745  # the t of the half-line map at which x = D_MIN
T_MAX = 350.0  # psi'^2 stays finite for |t| < T_MAX on the full and half lines
FINE = 8  # samples of an eigenfunction per collocation step


@dataclass(frozen=True)
class OracleConfig:
    n_levels: int = 4
    max_points: int = SIZES[-1]  # cap on the collocation size

    def __post_init__(self):
        if not 1 <= self.n_levels <= SIZES[0] <= self.max_points:
            raise ValueError(f"n_levels ({self.n_levels}) must be from 1 to {SIZES[0]}, and "
                             f"max_points ({self.max_points}) at least {SIZES[0]}, "
                             f"the oracle's coarse collocation size")


def _coords(domain: DomainInterval, x0: float = 0.0):
    """t -> (x, psi', l'^2/4 - l''/2) of the domain's map, and its float-safe t-range."""
    lo, hi = domain.lo, domain.hi
    if domain.kind == "full-line":
        def coords(t):
            c = np.cosh(t)
            return x0 + np.sinh(t), c, 0.25 * np.tanh(t) ** 2 - 0.5 / c**2
        return coords, (-T_MAX, T_MAX)
    if domain.kind == "half-line":
        def coords(t):
            e = np.exp(-t)
            x = np.exp(t - e)
            dl, ddl = 1.0 + e * e / (1.0 + e), e / (1.0 + e) ** 2 - e
            return x, x * (1.0 + e), 0.25 * dl * dl - 0.5 * ddl
        return coords, (T_HALF, T_MAX)

    def coords(t):
        y, c = 0.5 * np.pi * np.sinh(t), np.cosh(t)
        th, sech2 = np.tanh(y), 1.0 / np.cosh(y) ** 2
        # x from the nearer wall, so that it carries the distance to it
        x = np.where(t < 0, lo + (hi - lo) / (1.0 + np.exp(-2.0 * y)),
                     hi - (hi - lo) / (1.0 + np.exp(2.0 * y)))
        dl = np.tanh(t) - np.pi * c * th
        ddl = 1.0 / c**2 - np.pi * np.sinh(t) * th - 0.5 * np.pi**2 * c**2 * sech2
        return x, 0.25 * np.pi * (hi - lo) * c * sech2, 0.25 * dl * dl - 0.5 * ddl
    return coords, (-_at(hi - lo, D_MIN), _at(hi - lo, D_MIN))


def _at(width: float, d: float) -> float:
    """The t > 0 at which the finite map comes within d of its upper wall."""
    return math.asinh(math.log(width / d - 1.0) / math.pi)


class _Problem:
    """V on a domain's map: Q / psi'^2 at any t, its scans and its pencils."""

    def __init__(self, V: Callable, domain: DomainInterval):
        self.V, self.reach, self.walls = V, (-math.inf, math.inf), (math.inf, math.inf)
        self.coords, self.span = _coords(domain)
        if domain.kind == "full-line":
            t, v, _ = self.scan(np.linspace(*self.span, SCAN))
            self.coords, _ = _coords(domain, float(self.coords(t[np.argmin(v)])[0]))
        elif domain.kind == "finite":
            width = domain.hi - domain.lo
            self.reach = tuple(s * _at(width, max(WALL_ULPS * float(np.spacing(abs(w))), D_MIN))
                               for s, w in ((-1.0, domain.lo), (1.0, domain.hi)))
            t = np.array(self.reach)
            _, v, dpsi = self.values(t)
            walls = v * (dpsi / np.cosh(t)) ** 2  # c of c / d^2, with psi' ~ pi d cosh t
            self.walls = tuple(np.where(np.isfinite(walls), walls, np.inf))

    def values(self, t, check: bool = False):
        """(x, Q / psi'^2, psi') at t; with check, a NaN/inf of V raises."""
        x, dpsi, extra = self.coords(t)
        inside = (t >= self.reach[0]) & (t <= self.reach[1])
        with np.errstate(all="ignore"):  # require_finite reports a NaN/inf
            v = np.where(t < 0, *self.walls) * (np.cosh(t) / dpsi) ** 2
            vx = np.asarray(self.V(x[inside]), dtype=float)
            if check:
                require_finite(x[inside], vx, "values of V")
            v[inside] = vx + extra[inside] / dpsi[inside] ** 2
        return x, v, dpsi

    def scan(self, t):
        """(t, Q / psi'^2, psi'); non-finite values at the ends are forbidden region."""
        x, v, dpsi = self.values(t)
        finite = np.flatnonzero(np.isfinite(v))
        inner = slice(finite[0], finite[-1] + 1) if finite.size else slice(None)
        require_finite(x[inner], v[inner], "values of V")
        v[~np.isfinite(v)] = np.inf
        return t, v, dpsi

    def pencil(self, window, n: int, k: int):
        """Lowest k levels at n nodes on the window."""
        t = np.linspace(*window, n)
        h, (_, v, dpsi) = t[1] - t[0], self.values(t, check=True)
        s = _sinc_d2(n) / (h * h) / dpsi[:, None] / dpsi[None, :]
        s[np.diag_indices(n)] += v
        order = np.argsort(-np.diag(s))
        return np.linalg.eigvalsh(s[np.ix_(order, order)])[:k]

    def states(self, window, n: int, k: int) -> list:
        """Lowest k normalized u(x) = psi'(t)^(1/2) sum_k w_k S_k(t), FINE samples a step
        where x(t) resolves the distance to a wall, leftmost maximum of |u| positive."""
        t = np.linspace(*window, n)
        h, (_, v, dpsi) = t[1] - t[0], self.values(t, check=True)
        a = _sinc_d2(n) / (h * h)
        a[np.diag_indices(n)] += (v - v.min()) * dpsi**2  # A + sigma B, positive definite
        inv = np.linalg.inv(a)
        z = np.linalg.eigh(inv * dpsi[:, None] * dpsi[None, :])[1][:, ::-1][:, :k]
        tf = np.linspace(max(window[0], self.reach[0]), min(window[1], self.reach[1]),
                         FINE * (n - 1) + 1)
        x, dpsi_f, _ = self.coords(tf)
        sinc = np.sinc(np.subtract.outer(tf, t) / h)
        u = np.sqrt(dpsi_f)[:, None] * (sinc @ (inv @ (dpsi[:, None] * z)))
        return [Wavefunction(x=x, values=fix_sign(normalize(u[:, j], x)), level=j)
                for j in range(k)]


@functools.cache
def _sinc_d2(n: int) -> np.ndarray:
    """Minus the sinc second-derivative matrix at unit step (read-only)."""
    d = np.subtract.outer(np.arange(n), np.arange(n))
    with np.errstate(divide="ignore"):
        out = np.where(d % 2, -2.0, 2.0) / (d * d)
    np.fill_diagonal(out, np.pi**2 / 3.0)
    out.setflags(write=False)
    return out


def _wkb_energy(scan, n: int) -> float:
    """E with int sqrt(E psi'^2 - Q) dt = (n + 1/2) pi on the scan, by bisection."""
    t, v, dpsi = scan
    dt = np.diff(t)
    weights = dpsi * 0.5 * (np.append(dt, 0.0) + np.insert(dt, 0, 0.0))  # trapezoid rule
    target = (n + 0.5) * math.pi
    lo = float(v.min())
    step = max(1.0, abs(lo))
    hi = lo + step
    while weights @ np.sqrt(np.maximum(hi - v, 0.0)) < target and step < 1e300:
        lo, step = hi, 2.0 * step
        hi = lo + step
    while hi - lo > 1e-6 * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if weights @ np.sqrt(np.maximum(mid - v, 0.0)) < target else (lo, mid)
    return hi


def _window(scan, e: float) -> tuple:
    """(t_a, t_b): DECAY WKB e-folds out from the outermost turning points at E,
    E first held 1e-6 of the well's depth below the ends' lower Q / psi'^2."""
    t, v, dpsi = scan
    edge = min(v[0], v[-1])
    if edge < np.inf:
        e = min(e, edge - 1e-6 * (edge - v.min()))
    allowed = np.flatnonzero(v < e)
    i1, i2 = (allowed[0], allowed[-1]) if allowed.size else (np.argmin(v),) * 2
    kappa = dpsi * np.sqrt(np.maximum(v - e, 0.0))
    ends = []
    for side in (slice(i1, None, -1), slice(i2, None)):
        ts, ks, vs = t[side], kappa[side], v[side]
        decay = np.cumsum(0.5 * (ks[1:] + ks[:-1]) * np.abs(np.diff(ts)))
        j = min(int(np.searchsorted(decay, DECAY)) + 1, ts.size - 1)
        while j > 0 and not np.isfinite(vs[j]):  # end on a point where V is finite
            j -= 1
        ends.append(float(ts[j]))
    return tuple(ends)


@dataclass
class OracleResult:
    """Energies of a solve and |E(129) - E(65)| per level as ``estimate``.

    The eigenfunctions are solved for on the first read of ``wavefunctions``,
    with the final pencil's window and size, and cached.
    """

    spectrum: Spectrum
    estimate: np.ndarray
    _states: Callable = field(repr=False, compare=False)

    @functools.cached_property
    def wavefunctions(self) -> list:
        return self._states()


def solve(V: Callable, domain: DomainInterval, cfg: OracleConfig) -> OracleResult:
    """Lowest cfg.n_levels eigenvalues of -d^2/dx^2 + V on the open domain.

    V takes an array of points inside the domain.  The eigenfunctions are
    solved for when the result's ``wavefunctions`` is first read.
    """
    problem = _Problem(V, domain)
    k = cfg.n_levels
    coarse, fine = (min(n, cfg.max_points) for n in SIZES)
    scan = problem.scan(np.linspace(*problem.span, SCAN))
    window = _window(scan, _wkb_energy(scan, k - 1))
    refined = problem.scan(np.linspace(*window, SCAN))  # the window's points in place
    scan = tuple(np.concatenate([a[scan[0] < window[0]], r, a[scan[0] > window[1]]])
                 for a, r in zip(scan, refined))
    e_coarse = problem.pencil(_window(scan, _wkb_energy(scan, k - 1)), coarse, k)
    window = _window(scan, float(e_coarse[-1]))
    e = problem.pencil(window, fine, k)
    return OracleResult(Spectrum(energies=[float(x) for x in e], provenance="oracle"),
                        np.abs(e - e_coarse), lambda: problem.states(window, fine, k))


@dataclass
class SpectrumComparison:
    deviations: list
    passed: bool
    tolerance: float
    mode: str
    truncated: bool

    def to_json(self) -> dict:
        return asdict(self)


def compare_spectra(a: Spectrum, b: Spectrum, tolerance: float = 1e-3) -> SpectrumComparison:
    """Per-level deviations between the gaps E_n - E_0 of two spectra.

    Subtracting each spectrum's own E_0 removes convention offsets; the
    comparison's mode records this as "relative-gap".  Spectra of
    different lengths are compared on the common prefix and flagged.
    """
    if not a.energies or not b.energies:
        raise ValueError("cannot compare empty spectra")
    n = min(len(a.energies), len(b.energies))
    ea = np.asarray(a.energies[:n]) - a.energies[0]
    eb = np.asarray(b.energies[:n]) - b.energies[0]
    dev = np.abs(ea - eb)
    return SpectrumComparison(
        deviations=[float(d) for d in dev],
        passed=bool(np.all(dev < tolerance)),
        tolerance=tolerance,
        mode="relative-gap",
        truncated=len(a.energies) != len(b.energies),
    )
