"""Catalog of the ten classic shape-invariant superpotential families.

Each family is its recipe in the ansatz of `ansatz`: a free-particle seed,
a ladder step alpha and parameter lam, and an optional second solution or
constant shift.  W(x; params), its x-derivative and the energy shift
R(params) = V_plus(x; p) - V_minus(x; tau(p)) all follow from the recipe,
through the identities F' = -K - F^2, phi' = C - F phi and
R = -(lam^2 - mu^2) K + 2 alpha C + c^2 (1/lam^2 - 1/mu^2).  Beside the
recipe each family states its parameter map tau, its constraints and its
domain.  Partner potentials are V_plus_minus = W^2 +- W', in units
hbar = 2m = 1.

Conventions
-----------
- Ladder maps are one-parameter translations: ell -> ell + 1 for the
  radial oscillator and Coulomb; A -> A - a for Morse, hyperbolic Scarf
  and the generalized Poschl-Teller; A -> A + a for Eckart, trigonometric
  Scarf and both Rosen-Morse variants where the ladder ascends; the
  shifted oscillator steps trivially (identity).
- The recipes' W, W' and R are checked in `tests/` against the closed
  forms of Cooper, Khare & Sukhatme, which are proved there symbolically.
- A constraint's text is its only statement: Python syntax with ^ for
  powers and |x| for abs(x), compiled once per family.
- Reference parameters are small integers (or simple fractions) chosen
  inside each family's validity region so analytic cross-checks stay
  human-verifiable; their keys, in order, are the family's parameter names.
- domain(p) holds the open interval at p and the window verify cuts its
  default grid from; for the trigonometric families both scale with 1/a.
  A parameter's descriptor lists every constraint naming it.
- The table (names, constraints, tau, domains) needs only `math`.  The
  first recipe built imports `ansatz`, and numpy with it, so listing the
  catalog or parsing a sip command line loads no numerics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from .sampling import ParamSet

__all__ = [
    "DomainInterval",
    "PotentialFamily",
    "InvalidParameters",
    "DomainViolation",
    "FAMILY_NAMES",
    "list_families",
    "get_family",
    "partner_potentials",
    "parameter_step",
    "energy_shift",
    "family_descriptor",
]

#: margin by which evaluations must stay inside open domain endpoints, for a
#: domain of width 1 or more (see DomainInterval.margin)
ENDPOINT_MARGIN = 1e-6


class InvalidParameters(ValueError):
    """Parameter set violates a family's validity constraints."""


class DomainViolation(ValueError):
    """Evaluation point, grid or window lies outside the family's domain interval."""


@dataclass(frozen=True)
class DomainInterval:
    """The open interval (lo, hi) a family lives on, with its one window.

    ``window`` is the span verify cuts its default grid from, where the
    fields are smallest; it lies within the closed domain.
    """

    lo: float
    hi: float
    window: tuple

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("domain requires lo < hi")
        if self.kind == "half-line" and self.lo != 0.0:
            raise ValueError("half-line domains start at 0")
        lo, hi = self.window
        if not (self.lo <= lo and hi <= self.hi):
            raise DomainViolation(f"window [{lo}, {hi}] leaves the domain [{self.lo}, {self.hi}]")

    @property
    def kind(self) -> str:
        """Read off the endpoints: finite, half-line or full-line."""
        if math.isfinite(self.lo) and math.isfinite(self.hi):
            return "finite"
        if math.isfinite(self.lo) or math.isfinite(self.hi):
            return "half-line"
        return "full-line"

    @property
    def margin(self) -> float:
        """ENDPOINT_MARGIN, scaled down for a domain narrower than 1.

        The trigonometric domains shrink as 1/a, and with them their
        windows and verify grids; an absolute margin would reject those
        grids at large a.
        """
        return ENDPOINT_MARGIN * min(1.0, self.hi - self.lo)

    def contains(self, x) -> bool:
        """Whether every x lies inside the open interval, margin from its finite ends.

        A number is compared as it is; only an array or sequence loads numpy.
        """
        lo = self.lo + self.margin if math.isfinite(self.lo) else self.lo
        hi = self.hi - self.margin if math.isfinite(self.hi) else self.hi
        if isinstance(x, (int, float)):
            return lo < float(x) < hi
        import numpy as np

        x = np.asarray(x, dtype=float)
        return bool(np.all(x > lo) and np.all(x < hi))

    def require_grid(self, lo: float, hi: float) -> None:
        """Raise DomainViolation unless a grid from lo to hi stays inside the open domain."""
        if not (self.contains(lo) and self.contains(hi)):
            raise DomainViolation(f"grid {lo}:{hi} leaves the domain ({self.lo}, {self.hi})")


#: the only name a constraint reads besides its family's parameters
_CONSTRAINT_SCOPE = {"__builtins__": {}, "abs": abs}


def _compile_constraint(text: str):
    """'A^2 > |B|' -> the code of A**2 > abs(B), named by its text."""
    parts = text.replace("^", "**").split("|")
    return compile("".join(f"abs({s})" if i % 2 else s for i, s in enumerate(parts)), text, "eval")


@dataclass(frozen=True)
class PotentialFamily:
    """A shape-invariant family, stated as its recipe in the ansatz.

    recipe(p) builds the family member at p from a free-particle seed, an
    optional second solution and an optional constant shift; W, W' and
    the energy shift R follow from it.  W and Wprime accept (params, x)
    with x scalar or ndarray.  ``domain`` is a function of the parameters
    because the trigonometric families live on intervals whose endpoints,
    and so their windows, scale with 1/a.
    """

    name: str
    constraints: tuple  # each printed as written and compiled to a test
    recipe: Callable  # ParamSet -> ConstructedSuperpotential
    tau: Callable
    domain: Callable  # ParamSet -> DomainInterval
    reference_params: dict
    _tests: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_tests", tuple(map(_compile_constraint, self.constraints)))

    @property
    def param_names(self) -> tuple:
        return tuple(self.reference_params)

    def W(self, p: ParamSet, x):
        return self.recipe(p).W(x)

    def Wprime(self, p: ParamSet, x):
        return self.recipe(p).Wprime(x)

    def R(self, p: ParamSet) -> float:
        return self.recipe(p).energy_shift()

    def validate(self, p: ParamSet) -> None:
        missing = [k for k in self.param_names if k not in p]
        if missing:
            raise InvalidParameters(f"{self.name}: missing parameters {missing}")
        vals = [p[k] for k in self.param_names]
        if not all(math.isfinite(float(v)) for v in vals):
            raise InvalidParameters(f"{self.name}: non-finite parameter value")
        if not all(eval(test, _CONSTRAINT_SCOPE, p) for test in self._tests):
            broken = [text for text, test in zip(self.constraints, self._tests)
                      if not eval(test, _CONSTRAINT_SCOPE, p)]
            raise InvalidParameters(f"{self.name}: parameters {p} violate constraints {broken}")


# ---------------------------------------------------------------------------
# the families: each W (after Cooper, Khare & Sukhatme) and its recipe, a
# seed with step alpha, ladder parameter lam and an optional second solution
# phi = C (int u)/u + D/u or shift c/lam; lam -> lam - alpha is the family's tau
# ---------------------------------------------------------------------------

#: the recipes' seeds as free_particle_seed's (K, branch, slope, intercept);
#: every family fixes K, so one seed serves all its parameter sets
_SEEDS = {"one": (0.0, "linear", 0.0, 1.0), "xi": (0.0, "linear"), "exp": (-1.0, "exp"),
          "cosh": (-1.0, "cosh"), "sinh": (-1.0, "sinh"), "cos": (1.0, "cos"), "sin": (1.0, "sin")}


@functools.cache
def _ansatz():
    """ansatz's constructor and the recipes' seeds, built on first use."""
    from .ansatz import ConstructedSuperpotential, free_particle_seed

    return ConstructedSuperpotential, {k: free_particle_seed(*v) for k, v in _SEEDS.items()}


def _recipe(seed: str, alpha, lam, **extension):
    """The ConstructedSuperpotential of the named seed with step alpha and parameter lam."""
    build, seeds = _ansatz()
    return build(seeds[seed], alpha, lam, **extension)


_ALL = (
    # W = (omega/2) x - b: seed u = 1, phi = (omega/2) xi - b; trivial ladder
    PotentialFamily(
        name="shifted-oscillator",
        constraints=("omega > 0",),
        recipe=lambda p: _recipe("one", 1.0, 1.0, C=p["omega"] / 2.0, D=-p["b"]),
        tau=lambda p: dict(p),
        domain=lambda p: DomainInterval(-math.inf, math.inf, (-10.0, 10.0)),
        reference_params={"omega": 2.0, "b": 0.0},
    ),
    # W = (omega/2) r - (ell+1)/r: seed u = xi, lam = -(ell+1), phi = (omega/2) xi
    PotentialFamily(
        name="radial-oscillator",
        constraints=("omega > 0", "ell >= 0"),
        recipe=lambda p: _recipe("xi", 1.0, -(p["ell"] + 1.0), C=p["omega"], D=0.0),
        tau=lambda p: {**p, "ell": p["ell"] + 1.0},
        domain=lambda p: DomainInterval(0.0, math.inf, (1e-5, 10.0)),
        reference_params={"omega": 2.0, "ell": 0.0},
    ),
    # W = e2/(2(ell+1)) - (ell+1)/r: seed u = xi, lam = -(ell+1), shift -e2/2
    PotentialFamily(
        name="coulomb",
        constraints=("e2 > 0", "ell >= 0"),
        recipe=lambda p: _recipe("xi", 1.0, -(p["ell"] + 1.0), shift_const=-p["e2"] / 2.0),
        tau=lambda p: {**p, "ell": p["ell"] + 1.0},
        domain=lambda p: DomainInterval(0.0, math.inf, (1e-5, 50.0)),
        reference_params={"e2": 2.0, "ell": 0.0},
    ),
    # W = A - B exp(-a x): exp seed, lam = A, phi = -B/u
    PotentialFamily(
        name="morse",
        constraints=("A > 0", "B > 0", "a > 0"),
        recipe=lambda p: _recipe("exp", p["a"], p["A"], C=0.0, D=-p["B"]),
        tau=lambda p: {**p, "A": p["A"] - p["a"]},
        domain=lambda p: DomainInterval(-math.inf, math.inf, (-3.0, 10.0)),
        reference_params={"A": 4.0, "B": 4.0, "a": 1.0},
    ),
    # W = A tanh(ax) + B sech(ax): cosh seed, lam = A, phi = B/u
    PotentialFamily(
        name="scarf-II-hyperbolic",
        constraints=("A > 0", "a > 0"),
        recipe=lambda p: _recipe("cosh", p["a"], p["A"], C=0.0, D=p["B"]),
        tau=lambda p: {**p, "A": p["A"] - p["a"]},
        domain=lambda p: DomainInterval(-math.inf, math.inf, (-10.0, 10.0)),
        reference_params={"A": 4.0, "B": 4.0, "a": 1.0},
    ),
    # W = A tanh(ax) + B/A: cosh seed, lam = A, shift B; a normalizable
    # ground state needs A^2 > |B|
    PotentialFamily(
        name="rosen-morse-II-hyperbolic",
        constraints=("A > 0", "a > 0", "A^2 > |B|"),
        recipe=lambda p: _recipe("cosh", p["a"], p["A"], shift_const=p["B"]),
        tau=lambda p: {**p, "A": p["A"] - p["a"]},
        domain=lambda p: DomainInterval(-math.inf, math.inf, (-12.0, 12.0)),
        reference_params={"A": 4.0, "B": 4.0, "a": 1.0},
    ),
    # W = -A coth(ar) + B/A: sinh seed, lam = -A, shift -B; bound states need B > A^2
    PotentialFamily(
        name="eckart",
        constraints=("A > 0", "a > 0", "B > A^2"),
        recipe=lambda p: _recipe("sinh", p["a"], -p["A"], shift_const=-p["B"]),
        tau=lambda p: {**p, "A": p["A"] + p["a"]},
        domain=lambda p: DomainInterval(0.0, math.inf, (1e-3, 30.0)),
        reference_params={"A": 1.0, "B": 3.0, "a": 0.5},
    ),
    # W = A tan(ax) - B sec(ax) on (-pi/2a, pi/2a): cos seed, lam = -A, phi = -B/u
    PotentialFamily(
        name="scarf-I-trigonometric",
        constraints=("a > 0", "A > |B|"),
        recipe=lambda p: _recipe("cos", p["a"], -p["A"], C=0.0, D=-p["B"]),
        tau=lambda p: {**p, "A": p["A"] + p["a"]},
        domain=lambda p: DomainInterval(
            -0.5 * math.pi / p["a"],
            0.5 * math.pi / p["a"],
            ((-math.pi / 2 + 1e-4) / p["a"], (math.pi / 2 - 1e-4) / p["a"]),
        ),
        reference_params={"A": 4.0, "B": 1.0, "a": 1.0},
    ),
    # W = A coth(ar) - B cosech(ar): sinh seed, lam = A, phi = -B/u
    PotentialFamily(
        name="gen-poschl-teller",
        constraints=("a > 0", "B > A > 0"),
        recipe=lambda p: _recipe("sinh", p["a"], p["A"], C=0.0, D=-p["B"]),
        tau=lambda p: {**p, "A": p["A"] - p["a"]},
        domain=lambda p: DomainInterval(0.0, math.inf, (1e-4, 14.0)),
        reference_params={"A": 3.0, "B": 4.0, "a": 1.0},
    ),
    # W = -A cot(ax) - B/A on (0, pi/a): sin seed, lam = -A, shift B
    PotentialFamily(
        name="rosen-morse-I-trigonometric",
        constraints=("A > 0", "a > 0"),
        recipe=lambda p: _recipe("sin", p["a"], -p["A"], shift_const=p["B"]),
        tau=lambda p: {**p, "A": p["A"] + p["a"]},
        domain=lambda p: DomainInterval(
            0.0,
            math.pi / p["a"],
            (1e-4 / p["a"], (math.pi - 1e-4) / p["a"]),
        ),
        reference_params={"A": 1.0, "B": 1.0, "a": 1.0},
    ),
)

_FAMILIES = {fam.name: fam for fam in _ALL}
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
            f"{fam.name}: x outside ({dom.lo}, {dom.hi}) by margin {dom.margin}"
        )


def partner_potentials(fam: PotentialFamily, p: ParamSet, x):
    """(V_minus, V_plus) = (W^2 - W', W^2 + W'), evaluated analytically."""
    _check_point(fam, p, x)
    cons = fam.recipe(p)
    w = cons.W(x)
    wp = cons.Wprime(x)
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
    for text, test in zip(fam.constraints, fam._tests):
        for name in hits.keys() & set(test.co_names):
            hits[name].append(text)
    return {
        "name": fam.name,
        "parameters": [{"name": n, "constraint": "; ".join(cs) or "real"} for n, cs in hits.items()],
        "domain": {"lo": float(dom.lo), "hi": float(dom.hi), "kind": dom.kind},
    }
