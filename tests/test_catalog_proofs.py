"""The catalog's closed forms, proved symbolically and tied to the stored code.

TABLE restates each family's W, ladder step tau and shift R with the
parameters left symbolic, after Cooper, Khare & Sukhatme, Phys. Rep. 251
(1995) 267, in units hbar = 2m = 1.  The first test proves
V_plus(p) - V_minus(tau(p)) - R = 0 for every x and every parameter set;
the others check that the catalog's W, W' and R, which its recipes in the
ansatz derive, and its tau compute the same numbers on the family's verify
grid, at its reference parameters and at draws from its validity region.
"""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeinv.catalog import FAMILY_NAMES, get_family
from shapeinv.cli import _si_grid
from shapeinv.sampling import make_grid

x = sp.Symbol("x", real=True)
omega, e2, A, a = sp.symbols("omega e2 A a", positive=True)
b, B = sp.symbols("b B", real=True)
ell = sp.Symbol("ell", nonnegative=True)
SYMBOLS = {s.name: s for s in (omega, e2, A, a, b, B, ell)}

#: name -> (W, tau as a substitution, R)
TABLE = {
    "shifted-oscillator": (omega * x / 2 - b, {}, omega),
    "radial-oscillator": (omega * x / 2 - (ell + 1) / x, {ell: ell + 1}, 2 * omega),
    "coulomb": (e2 / (2 * (ell + 1)) - (ell + 1) / x, {ell: ell + 1},
                e2**2 / 4 * (1 / (ell + 1) ** 2 - 1 / (ell + 2) ** 2)),
    "morse": (A - B * sp.exp(-a * x), {A: A - a}, A**2 - (A - a) ** 2),
    "scarf-II-hyperbolic": (A * sp.tanh(a * x) + B * sp.sech(a * x), {A: A - a},
                            A**2 - (A - a) ** 2),
    "rosen-morse-II-hyperbolic": (A * sp.tanh(a * x) + B / A, {A: A - a},
                                  A**2 - (A - a) ** 2 + B**2 / A**2 - B**2 / (A - a) ** 2),
    "eckart": (-A * sp.coth(a * x) + B / A, {A: A + a},
               A**2 - (A + a) ** 2 + B**2 / A**2 - B**2 / (A + a) ** 2),
    "scarf-I-trigonometric": (A * sp.tan(a * x) - B * sp.sec(a * x), {A: A + a},
                              (A + a) ** 2 - A**2),
    "gen-poschl-teller": (A * sp.coth(a * x) - B * sp.csch(a * x), {A: A - a},
                          A**2 - (A - a) ** 2),
    "rosen-morse-I-trigonometric": (-A * sp.cot(a * x) - B / A, {A: A + a},
                                    (A + a) ** 2 - A**2 + B**2 / A**2 - B**2 / (A + a) ** 2),
}

pos, scale = st.floats(0.1, 10.0), st.floats(0.1, 4.0)
unit = st.floats(-0.99, 0.99)

#: name -> strategy for parameter sets inside the family's validity region
VALID = {
    "shifted-oscillator": st.fixed_dictionaries({"omega": pos, "b": st.floats(-3.0, 3.0)}),
    "radial-oscillator": st.fixed_dictionaries({"omega": pos, "ell": st.floats(0.0, 6.0)}),
    "coulomb": st.fixed_dictionaries({"e2": pos, "ell": st.floats(0.0, 6.0)}),
    "morse": st.fixed_dictionaries({"A": pos, "B": pos, "a": scale}),
    "scarf-II-hyperbolic": st.fixed_dictionaries(
        {"A": pos, "B": st.floats(-10.0, 10.0), "a": scale}),
    # its R has a pole where the next rung's A - a is 0
    "rosen-morse-II-hyperbolic": st.builds(
        lambda A, u, a: {"A": A, "B": u * A * A, "a": a}, pos, unit, scale,
    ).filter(lambda p: abs(p["A"] - p["a"]) > 1e-3),
    "eckart": st.builds(lambda A, v, a: {"A": A, "B": A * A + v, "a": a},
                        st.floats(0.1, 5.0), st.floats(0.01, 20.0), scale),
    "scarf-I-trigonometric": st.builds(lambda A, u, a: {"A": A, "B": u * A, "a": a},
                                       pos, unit, scale),
    "gen-poschl-teller": st.builds(lambda A, v, a: {"A": A, "B": A + v, "a": a},
                                   pos, st.floats(0.01, 10.0), scale),
    "rosen-morse-I-trigonometric": st.fixed_dictionaries(
        {"A": pos, "B": st.floats(-10.0, 10.0), "a": scale}),
}


def _is_zero(expr) -> bool:
    """Whether expr is identically 0.  Written in exponentials it is a rational
    function, and cancel gives 0 only for one that is identically 0."""
    return sp.cancel(sp.expand(expr.rewrite(sp.exp))) == 0


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_energy_shift_is_the_partner_difference_symbolically(name):
    W, step, R = TABLE[name]
    Wq = W.subs(step, simultaneous=True)
    assert _is_zero(W**2 + sp.diff(W, x) - (Wq**2 - sp.diff(Wq, x)) - R)


def _lambdified(name):
    """W, W' and R of the table, each as its list of additive terms, in one
    numpy function of (x, *param_names)."""
    W, _, R = TABLE[name]
    args = (x, *(SYMBOLS[k] for k in get_family(name).param_names))
    return sp.lambdify(args, [list(sp.Add.make_args(f)) for f in (W, sp.diff(W, x), R)], "numpy")


LAMBDIFIED = {name: _lambdified(name) for name in FAMILY_NAMES}


def table_values(name, p, grid):
    """W, W' and R of the table at p on the grid, each summed from its terms."""
    vals = [p[k] for k in get_family(name).param_names]
    return [sum(np.broadcast_arrays(*terms)) for terms in LAMBDIFIED[name](grid, *vals)]


def _close(got, terms) -> bool:
    """got equals the sum of terms to 1e-12 of the sum of their magnitudes,
    which bounds the rounding error where the terms cancel."""
    terms = np.broadcast_arrays(*terms)
    err = np.abs(np.asarray(got, float) - sum(terms))
    return np.max(err) <= 1e-12 * max(1.0, np.max(sum(np.abs(t) for t in terms)))


def _assert_stored_forms_match(name, p):
    fam = get_family(name)
    vals = [p[k] for k in fam.param_names]
    grid = make_grid(*_si_grid(fam, p, fam.tau(p)), 512)
    W, Wp, R = LAMBDIFIED[name](grid, *vals)
    assert _close(fam.W(p, grid), W), (name, p, "W")
    assert _close(fam.Wprime(p, grid), Wp), (name, p, "W'")
    assert _close(fam.R(p), R), (name, p, "R")
    step = {str(k): v for k, v in TABLE[name][1].items()}
    for key, value in fam.tau(p).items():
        want = float(step[key].subs({SYMBOLS[k]: p[k] for k in fam.param_names})) \
            if key in step else p[key]
        assert value == pytest.approx(want, rel=1e-12, abs=1e-12), (name, p, key)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_stored_forms_match_the_table_at_the_reference_parameters(name):
    _assert_stored_forms_match(name, get_family(name).reference_params)


@pytest.mark.parametrize("name", FAMILY_NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_stored_forms_match_the_table_across_the_valid_region(name, data):
    p = data.draw(VALID[name])
    get_family(name).validate(p)
    _assert_stored_forms_match(name, p)
