"""Catalog of the ten classic shape-invariant superpotential families.

Each family stores a closed-form superpotential W(x; params), its exact
x-derivative, the parameter map tau that steps the bound-state ladder, and
the energy shift R(params) = V_plus(x; p) - V_minus(x; tau(p)), which is
x-independent for a shape-invariant family.  Partner potentials are
V_plus_minus = W^2 +- W', in units hbar = 2m = 1.

Conventions
-----------
- Ladder maps are one-parameter translations: ell -> ell + 1 for the
  radial oscillator and Coulomb; A -> A - a for Morse, hyperbolic Scarf
  and the generalized Poschl-Teller; A -> A + a for Eckart, trigonometric
  Scarf and both Rosen-Morse variants where the ladder ascends; the
  shifted oscillator steps trivially (identity).
- Every stored R is validated at registration time against the
  grid-evaluated difference V_plus(p) - V_minus(tau(p)) to 1e-10, and
  every stored W' against central differences; registration fails fast
  when either check does not hold.
- Reference parameters are small integers (or simple fractions) chosen
  inside each family's validity region so analytic cross-checks stay
  human-verifiable; their keys, in order, are the family's parameter names.
- domain(p) holds the open interval, the default verify grid and the
  default oracle box at p; for the trigonometric families all three scale
  with 1/a.  A parameter's descriptor lists every constraint naming it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sampling import ParamSet, make_grid

__all__ = [
    "DomainInterval",
    "PotentialFamily",
    "InvalidParameters",
    "DomainViolation",
    "FAMILY_NAMES",
    "list_families",
    "get_family",
    "eval_superpotential",
    "partner_potentials",
    "parameter_step",
    "energy_shift",
    "family_descriptor",
]

#: margin by which evaluations must stay inside open domain endpoints
ENDPOINT_MARGIN = 1e-6


class InvalidParameters(ValueError):
    """Parameter set violates a family's validity constraints."""


class DomainViolation(ValueError):
    """Evaluation point, grid or box lies outside the family's domain interval."""


@dataclass(frozen=True)
class DomainInterval:
    """The open interval (lo, hi) a family lives on, with its default windows.

    ``si_interval`` is the grid for shape-invariance checks and lies inside
    the open interval; ``oracle_box`` is the eigensolver's Dirichlet box and
    may reach the endpoints, because the oracle evaluates V only at points
    strictly between its walls.
    """

    lo: float
    hi: float
    si_interval: tuple
    oracle_box: tuple

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("domain requires lo < hi")
        if self.kind == "half-line" and self.lo != 0.0:
            raise ValueError("half-line domains start at 0")
        self.require_grid(*self.si_interval)
        self.require_box(*self.oracle_box)

    @property
    def kind(self) -> str:
        """Read off the endpoints: finite, half-line or full-line."""
        if np.isfinite(self.lo) and np.isfinite(self.hi):
            return "finite"
        if np.isfinite(self.lo) or np.isfinite(self.hi):
            return "half-line"
        return "full-line"

    def contains(self, x, margin: float = ENDPOINT_MARGIN) -> bool:
        x = np.asarray(x, dtype=float)
        lo = self.lo + margin if np.isfinite(self.lo) else self.lo
        hi = self.hi - margin if np.isfinite(self.hi) else self.hi
        return bool(np.all(x > lo) and np.all(x < hi))

    def require_grid(self, lo: float, hi: float) -> None:
        """Raise DomainViolation unless a grid from lo to hi stays inside the open domain."""
        if not self.contains((lo, hi)):
            raise DomainViolation(f"grid {lo}:{hi} leaves the domain ({self.lo}, {self.hi})")

    def require_box(self, lo: float, hi: float) -> None:
        """Raise DomainViolation unless the box [lo, hi] lies within the closed domain."""
        if not (self.lo <= lo and hi <= self.hi):
            raise DomainViolation(f"box [{lo}, {hi}] leaves the domain [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class PotentialFamily:
    """Closed-form shape-invariant family.

    W, Wprime accept (params, x) with x scalar or ndarray.  ``domain`` is a
    function of the parameters because the trigonometric families live on
    intervals whose endpoints, and so default windows, scale with 1/a.
    """

    name: str
    constraints: tuple  # human-readable, each naming the parameters it bounds
    W: Callable
    Wprime: Callable
    tau: Callable
    R: Callable
    domain: Callable  # ParamSet -> DomainInterval
    is_valid: Callable  # ParamSet -> bool
    reference_params: dict

    @property
    def param_names(self) -> tuple:
        return tuple(self.reference_params)

    def validate(self, p: ParamSet) -> None:
        missing = [k for k in self.param_names if k not in p]
        if missing:
            raise InvalidParameters(f"{self.name}: missing parameters {missing}")
        vals = [p[k] for k in self.param_names]
        if not all(math.isfinite(float(v)) for v in vals):
            raise InvalidParameters(f"{self.name}: non-finite parameter value")
        if not self.is_valid(p):
            raise InvalidParameters(
                f"{self.name}: parameters {p} violate constraints {list(self.constraints)}"
            )


# ---------------------------------------------------------------------------
# family definitions
# ---------------------------------------------------------------------------

def _shifted_oscillator() -> PotentialFamily:
    # W = (omega/2) x - b; trivial ladder, R = omega
    return PotentialFamily(
        name="shifted-oscillator",
        constraints=("omega > 0",),
        W=lambda p, x: 0.5 * p["omega"] * np.asarray(x, float) - p["b"],
        Wprime=lambda p, x: 0.5 * p["omega"] * np.ones_like(np.asarray(x, float)),
        tau=lambda p: dict(p),
        R=lambda p: p["omega"],
        domain=lambda p: DomainInterval(-np.inf, np.inf, (-8.0, 8.0), (-10.0, 10.0)),
        is_valid=lambda p: p["omega"] > 0,
        reference_params={"omega": 2.0, "b": 0.0},
    )


def _radial_oscillator() -> PotentialFamily:
    # W = (omega/2) r - (ell+1)/r; ell -> ell + 1, R = 2 omega
    return PotentialFamily(
        name="radial-oscillator",
        constraints=("omega > 0", "ell >= 0"),
        W=lambda p, x: 0.5 * p["omega"] * np.asarray(x, float)
        - (p["ell"] + 1.0) / np.asarray(x, float),
        Wprime=lambda p, x: 0.5 * p["omega"]
        + (p["ell"] + 1.0) / np.asarray(x, float) ** 2,
        tau=lambda p: {**p, "ell": p["ell"] + 1.0},
        R=lambda p: 2.0 * p["omega"],
        domain=lambda p: DomainInterval(0.0, np.inf, (0.1, 10.0), (1e-5, 10.0)),
        is_valid=lambda p: p["omega"] > 0 and p["ell"] >= 0,
        reference_params={"omega": 2.0, "ell": 0.0},
    )


def _coulomb() -> PotentialFamily:
    # W = e2/(2(ell+1)) - (ell+1)/r; ell -> ell + 1
    def R(p):
        e2, ell = p["e2"], p["ell"]
        return 0.25 * e2**2 * (1.0 / (ell + 1.0) ** 2 - 1.0 / (ell + 2.0) ** 2)

    return PotentialFamily(
        name="coulomb",
        constraints=("e2 > 0", "ell >= 0"),
        W=lambda p, x: 0.5 * p["e2"] / (p["ell"] + 1.0)
        - (p["ell"] + 1.0) / np.asarray(x, float),
        Wprime=lambda p, x: (p["ell"] + 1.0) / np.asarray(x, float) ** 2,
        tau=lambda p: {**p, "ell": p["ell"] + 1.0},
        R=R,
        domain=lambda p: DomainInterval(0.0, np.inf, (0.1, 30.0), (1e-5, 50.0)),
        is_valid=lambda p: p["e2"] > 0 and p["ell"] >= 0,
        reference_params={"e2": 2.0, "ell": 0.0},
    )


def _morse() -> PotentialFamily:
    # W = A - B exp(-a x); A -> A - a, R = A^2 - (A-a)^2
    return PotentialFamily(
        name="morse",
        constraints=("A > 0", "B > 0", "a > 0"),
        W=lambda p, x: p["A"] - p["B"] * np.exp(-p["a"] * np.asarray(x, float)),
        Wprime=lambda p, x: p["a"] * p["B"] * np.exp(-p["a"] * np.asarray(x, float)),
        tau=lambda p: {**p, "A": p["A"] - p["a"]},
        R=lambda p: p["A"] ** 2 - (p["A"] - p["a"]) ** 2,
        domain=lambda p: DomainInterval(-np.inf, np.inf, (-3.0, 10.0), (-3.0, 10.0)),
        is_valid=lambda p: p["A"] > 0 and p["B"] > 0 and p["a"] > 0,
        reference_params={"A": 4.0, "B": 4.0, "a": 1.0},
    )


def _scarf_ii() -> PotentialFamily:
    # W = A tanh(ax) + B sech(ax); A -> A - a
    def W(p, x):
        ax = p["a"] * np.asarray(x, float)
        return p["A"] * np.tanh(ax) + p["B"] / np.cosh(ax)

    def Wp(p, x):
        ax = p["a"] * np.asarray(x, float)
        return p["a"] * (p["A"] / np.cosh(ax) ** 2 - p["B"] * np.tanh(ax) / np.cosh(ax))

    return PotentialFamily(
        name="scarf-II-hyperbolic",
        constraints=("A > 0", "a > 0"),
        W=W,
        Wprime=Wp,
        tau=lambda p: {**p, "A": p["A"] - p["a"]},
        R=lambda p: p["A"] ** 2 - (p["A"] - p["a"]) ** 2,
        domain=lambda p: DomainInterval(-np.inf, np.inf, (-8.0, 8.0), (-10.0, 10.0)),
        is_valid=lambda p: p["A"] > 0 and p["a"] > 0,
        reference_params={"A": 4.0, "B": 4.0, "a": 1.0},
    )


def _rosen_morse_ii() -> PotentialFamily:
    # W = A tanh(ax) + B/A; A -> A - a; normalizable ground state needs A^2 > |B|
    def R(p):
        A, B, a = p["A"], p["B"], p["a"]
        return A**2 - (A - a) ** 2 + B**2 / A**2 - B**2 / (A - a) ** 2

    return PotentialFamily(
        name="rosen-morse-II-hyperbolic",
        constraints=("A > 0", "a > 0", "A^2 > |B|"),
        W=lambda p, x: p["A"] * np.tanh(p["a"] * np.asarray(x, float)) + p["B"] / p["A"],
        Wprime=lambda p, x: p["a"] * p["A"] / np.cosh(p["a"] * np.asarray(x, float)) ** 2,
        tau=lambda p: {**p, "A": p["A"] - p["a"]},
        R=R,
        domain=lambda p: DomainInterval(-np.inf, np.inf, (-8.0, 8.0), (-12.0, 12.0)),
        is_valid=lambda p: p["A"] > 0 and p["a"] > 0 and p["A"] ** 2 > abs(p["B"]),
        reference_params={"A": 4.0, "B": 4.0, "a": 1.0},
    )


def _eckart() -> PotentialFamily:
    # W = -A coth(ar) + B/A; A -> A + a; bound states need B > A^2
    def R(p):
        A, B, a = p["A"], p["B"], p["a"]
        return A**2 - (A + a) ** 2 + B**2 / A**2 - B**2 / (A + a) ** 2

    return PotentialFamily(
        name="eckart",
        constraints=("A > 0", "a > 0", "B > A^2"),
        W=lambda p, x: -p["A"] / np.tanh(p["a"] * np.asarray(x, float)) + p["B"] / p["A"],
        Wprime=lambda p, x: p["a"] * p["A"] / np.sinh(p["a"] * np.asarray(x, float)) ** 2,
        tau=lambda p: {**p, "A": p["A"] + p["a"]},
        R=R,
        domain=lambda p: DomainInterval(0.0, np.inf, (0.1, 12.0), (1e-3, 30.0)),
        is_valid=lambda p: p["A"] > 0 and p["a"] > 0 and p["B"] > p["A"] ** 2,
        reference_params={"A": 1.0, "B": 3.0, "a": 0.5},
    )


def _scarf_i() -> PotentialFamily:
    # W = A tan(ax) - B sec(ax) on (-pi/2a, pi/2a); A -> A + a; needs A > |B|
    def W(p, x):
        ax = p["a"] * np.asarray(x, float)
        return p["A"] * np.tan(ax) - p["B"] / np.cos(ax)

    def Wp(p, x):
        ax = p["a"] * np.asarray(x, float)
        return p["a"] * (p["A"] / np.cos(ax) ** 2 - p["B"] * np.sin(ax) / np.cos(ax) ** 2)

    return PotentialFamily(
        name="scarf-I-trigonometric",
        constraints=("a > 0", "A > |B|"),
        W=W,
        Wprime=Wp,
        tau=lambda p: {**p, "A": p["A"] + p["a"]},
        R=lambda p: (p["A"] + p["a"]) ** 2 - p["A"] ** 2,
        domain=lambda p: DomainInterval(
            -0.5 * np.pi / p["a"],
            0.5 * np.pi / p["a"],
            (-1.45 / p["a"], 1.45 / p["a"]),
            ((-np.pi / 2 + 1e-4) / p["a"], (np.pi / 2 - 1e-4) / p["a"]),
        ),
        is_valid=lambda p: p["a"] > 0 and p["A"] > abs(p["B"]),
        reference_params={"A": 4.0, "B": 1.0, "a": 1.0},
    )


def _gen_poschl_teller() -> PotentialFamily:
    # W = A coth(ar) - B cosech(ar); A -> A - a; needs B > A
    def W(p, x):
        ar = p["a"] * np.asarray(x, float)
        return p["A"] / np.tanh(ar) - p["B"] / np.sinh(ar)

    def Wp(p, x):
        ar = p["a"] * np.asarray(x, float)
        return p["a"] * (-p["A"] / np.sinh(ar) ** 2 + p["B"] / np.tanh(ar) / np.sinh(ar))

    return PotentialFamily(
        name="gen-poschl-teller",
        constraints=("a > 0", "B > A > 0"),
        W=W,
        Wprime=Wp,
        tau=lambda p: {**p, "A": p["A"] - p["a"]},
        R=lambda p: p["A"] ** 2 - (p["A"] - p["a"]) ** 2,
        domain=lambda p: DomainInterval(0.0, np.inf, (0.1, 12.0), (1e-4, 14.0)),
        is_valid=lambda p: p["a"] > 0 and 0 < p["A"] < p["B"],
        reference_params={"A": 3.0, "B": 4.0, "a": 1.0},
    )


def _rosen_morse_i() -> PotentialFamily:
    # W = -A cot(ax) - B/A on (0, pi/a); A -> A + a
    def R(p):
        A, B, a = p["A"], p["B"], p["a"]
        return (A + a) ** 2 - A**2 + B**2 / A**2 - B**2 / (A + a) ** 2

    return PotentialFamily(
        name="rosen-morse-I-trigonometric",
        constraints=("A > 0", "a > 0"),
        W=lambda p, x: -p["A"] / np.tan(p["a"] * np.asarray(x, float)) - p["B"] / p["A"],
        Wprime=lambda p, x: p["a"] * p["A"] / np.sin(p["a"] * np.asarray(x, float)) ** 2,
        tau=lambda p: {**p, "A": p["A"] + p["a"]},
        R=R,
        domain=lambda p: DomainInterval(
            0.0,
            np.pi / p["a"],
            (0.15 / p["a"], (np.pi - 0.15) / p["a"]),
            (1e-4 / p["a"], (np.pi - 1e-4) / p["a"]),
        ),
        is_valid=lambda p: p["A"] > 0 and p["a"] > 0,
        reference_params={"A": 1.0, "B": 1.0, "a": 1.0},
    )


def _register() -> dict:
    families = [
        _shifted_oscillator(),
        _radial_oscillator(),
        _coulomb(),
        _morse(),
        _scarf_ii(),
        _rosen_morse_ii(),
        _eckart(),
        _scarf_i(),
        _gen_poschl_teller(),
        _rosen_morse_i(),
    ]
    for fam in families:
        _validate_family(fam)
    return {fam.name: fam for fam in families}


def _validate_family(fam: PotentialFamily, n: int = 512) -> None:
    """Fail fast if the stored closed forms are inconsistent.

    Checks at the reference parameters: W' against central differences
    (1e-6 at step 1e-5) and R against the grid difference
    V_plus(p) - V_minus(tau(p)) (constant to 1e-10).
    """
    p = fam.reference_params
    lo, hi = fam.domain(p).si_interval
    x = make_grid(lo, hi, n)

    # differencing near a singular endpoint inflates the h^2 truncation term,
    # so the derivative check keeps 10% clearance from each edge
    pad = 0.1 * (hi - lo)
    xi = make_grid(lo + pad, hi - pad, n)
    h = 1e-5
    fd = (fam.W(p, xi + h) - fam.W(p, xi - h)) / (2 * h)
    err = np.max(np.abs(fd - fam.Wprime(p, xi)))
    if err > 1e-6:
        raise RuntimeError(f"{fam.name}: stored W' disagrees with differences ({err:.2e})")

    q = fam.tau(p)
    d = (fam.W(p, x) ** 2 + fam.Wprime(p, x)) - (fam.W(q, x) ** 2 - fam.Wprime(q, x))
    if np.max(np.abs(d - fam.R(p))) > 1e-10 * max(1.0, abs(fam.R(p))):
        raise RuntimeError(f"{fam.name}: stored R is not the partner difference")


_FAMILIES = _register()
FAMILY_NAMES = tuple(_FAMILIES)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def list_families():
    """All registered families as (name, parameter names, domain kind)."""
    out = []
    for fam in _FAMILIES.values():
        kind = fam.domain(fam.reference_params).kind
        out.append((fam.name, fam.param_names, kind))
    return out


def get_family(name: str) -> PotentialFamily:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise KeyError(f"unknown family {name!r}; known: {', '.join(FAMILY_NAMES)}") from None


def _check_point(fam: PotentialFamily, p: ParamSet, x) -> None:
    fam.validate(p)
    dom = fam.domain(p)
    if not dom.contains(x):
        raise DomainViolation(
            f"{fam.name}: x outside ({dom.lo}, {dom.hi}) by margin {ENDPOINT_MARGIN}"
        )


def eval_superpotential(fam: PotentialFamily, p: ParamSet, x):
    """W(x; p), guarding parameters and the domain interval."""
    _check_point(fam, p, x)
    return fam.W(p, x)


def partner_potentials(fam: PotentialFamily, p: ParamSet, x):
    """(V_minus, V_plus) = (W^2 - W', W^2 + W'), evaluated analytically."""
    _check_point(fam, p, x)
    w = fam.W(p, x)
    wp = fam.Wprime(p, x)
    return w * w - wp, w * w + wp


def parameter_step(fam: PotentialFamily, p: ParamSet) -> ParamSet:
    """One ladder step tau(p).  Raises InvalidParameters if the stepped set
    leaves the family's validity region (the bound-state ladder ends there).
    """
    fam.validate(p)
    q = fam.tau(p)
    fam.validate(q)
    return q


def energy_shift(fam: PotentialFamily, p: ParamSet) -> float:
    """R(p): the x-independent difference V_plus(x; p) - V_minus(x; tau(p))."""
    fam.validate(p)
    return float(fam.R(p))


def family_descriptor(fam: PotentialFamily) -> dict:
    """JSON-ready descriptor; domain endpoints at the reference parameters."""
    dom = fam.domain(fam.reference_params)
    hits = {name: [] for name in fam.param_names}
    for c in fam.constraints:
        for name in hits.keys() & set(re.findall(r"[A-Za-z_]\w*", c)):
            hits[name].append(c)
    return {
        "name": fam.name,
        "parameters": [{"name": n, "constraint": "; ".join(cs) or "real"} for n, cs in hits.items()],
        "domain": {"lo": float(dom.lo), "hi": float(dom.hi), "kind": dom.kind},
    }
