import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shapeinv.catalog import FAMILY_NAMES, get_family
from shapeinv.sampling import NonFiniteValues, make_grid
from shapeinv.verify import (
    VerificationReport,
    verify_generalized_si,
    verify_negation_condition,
    verify_qhj,
    verify_shape_invariance,
)


def test_report_consistency_enforced():
    with pytest.raises(ValueError):
        VerificationReport(max_residual=1.0, mean=0.0, estimated_constant=0.0,
                           passed=True, tolerance=1e-10, verdict="pass", scale=1.0, worst_x=0.0)
    with pytest.raises(ValueError):  # an unresolved verdict never passes
        VerificationReport(max_residual=0.0, mean=0.0, estimated_constant=0.0,
                           passed=True, tolerance=1e-10, verdict="unresolved", scale=1.0,
                           worst_x=0.0)


def test_shape_invariance_shifted_oscillator_exact():
    fam = get_family("shifted-oscillator")
    rep = verify_shape_invariance(fam.W, fam.Wprime, {"omega": 2.0, "b": 0.0},
                                  fam.tau, make_grid(-8, 8, 512))
    assert rep.passed
    assert rep.estimated_constant == pytest.approx(2.0, abs=1e-12)
    assert rep.max_residual < 1e-12


def test_shape_invariance_radial_oscillator():
    fam = get_family("radial-oscillator")
    rep = verify_shape_invariance(fam.W, fam.Wprime, {"omega": 2.0, "ell": 0.0},
                                  fam.tau, make_grid(0.1, 10, 512))
    assert rep.passed and rep.max_residual < 1e-10
    assert rep.estimated_constant == pytest.approx(4.0, abs=1e-10)


def test_shape_invariance_morse():
    fam = get_family("morse")
    rep = verify_shape_invariance(fam.W, fam.Wprime, {"A": 4.0, "B": 4.0, "a": 1.0},
                                  fam.tau, make_grid(-3, 10, 512))
    assert rep.passed and rep.max_residual < 1e-10
    assert rep.estimated_constant == pytest.approx(7.0, abs=1e-10)


def _half_step(fam, p):
    """A wrong tau: half of the family's step; the shifted oscillator, whose
    tau moves nothing, gets b moved by 1/2."""
    q = fam.tau(p)
    if q == p:
        return {**p, "b": p["b"] + 0.5}
    return {k: p[k] + (q[k] - p[k]) / 2 for k in p}


def _certify_exact_and_half_step(fam, p):
    grid = make_grid(*fam.domain(p).si_interval, 512)
    rep = verify_shape_invariance(fam.W, fam.Wprime, p, fam.tau, grid)
    assert rep.passed, (fam.name, p, rep)
    assert rep.max_residual <= rep.tolerance == 64 * np.finfo(float).eps * rep.scale
    wrong = verify_shape_invariance(fam.W, fam.Wprime, p, lambda q: _half_step(fam, q), grid)
    assert wrong.verdict == "fail", (fam.name, p, wrong)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_all_catalog_families_certify(name):
    fam = get_family(name)
    _certify_exact_and_half_step(fam, fam.reference_params)


#: each family's valid region, inside the sampling ranges of perfbench's
#: workloads; a coupled B is drawn as a fraction f of its bound
_REGIONS = {
    "shifted-oscillator": {"omega": (0.5, 8), "b": (-4, 4)},
    "radial-oscillator": {"omega": (0.5, 8), "ell": (0, 6)},
    "coulomb": {"e2": (0.5, 8), "ell": (0, 6)},
    "morse": {"A": (0.5, 40), "B": (0.5, 40), "a": (0.25, 2)},
    "scarf-II-hyperbolic": {"A": (0.5, 10), "B": (-10, 10), "a": (0.25, 2)},
    "rosen-morse-II-hyperbolic": {"A": (0.5, 10), "f": (-1, 1), "a": (0.25, 2)},  # B = f A^2
    "eckart": {"A": (0.25, 4), "f": (0, 30), "a": (0.25, 2)},  # B = A^2 + f
    "scarf-I-trigonometric": {"A": (0.5, 10), "f": (-1, 1), "a": (0.25, 4)},  # B = f A
    "gen-poschl-teller": {"A": (0.5, 10), "f": (0, 10), "a": (0.25, 2)},  # B = A + f
    "rosen-morse-I-trigonometric": {"A": (0.5, 10), "B": (-10, 10), "a": (0.25, 4)},
}
_COUPLED_B = {
    "rosen-morse-II-hyperbolic": lambda A, f: f * A * A,
    "eckart": lambda A, f: A * A + f,
    "scarf-I-trigonometric": lambda A, f: f * A,
    "gen-poschl-teller": lambda A, f: A + f,
}


@pytest.mark.parametrize("name", FAMILY_NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_valid_point_certifies_its_tau_and_refuses_a_half_step(name, data):
    fam = get_family(name)
    p = {k: data.draw(st.floats(lo, hi), label=k) for k, (lo, hi) in _REGIONS[name].items()}
    if name in _COUPLED_B:
        p["B"] = _COUPLED_B[name](p["A"], p.pop("f"))
    try:
        fam.validate(p)  # InvalidParameters is a ValueError
        fam.recipe(fam.tau(p))  # the partner rung has a W: RM II has none at A = a
        # nor has the half step at A = a/2 with B != 0, so nothing to refuse
        half = fam.recipe(_half_step(fam, p)).lam
    except ValueError:
        assume(False)
    lam = fam.recipe(p).lam  # a valid p has a recipe: a ValueError here fails
    # a half step onto lam -> -lam is the negation condition, which holds
    # for a W without phi: no wrong step, so nothing to refuse
    assume(abs(half + lam) > 1e-6)
    # a half step onto lam ~ 0 puts c/lam far above the grid's rounding floor
    # (test_half_step_onto_lam_near_zero_is_unresolved)
    assume(abs(half) > 1e-6 * abs(lam))
    _certify_exact_and_half_step(fam, p)


def test_half_step_onto_lam_near_zero_is_unresolved():
    # lam of the half step is 1.1e-16, so c/lam is about 1e15: the field
    # scale puts a floor of 1.8e16 under any residual, and the half step is
    # refused as unresolved, not as a fail
    fam = get_family("rosen-morse-II-hyperbolic")
    p = {"A": 0.5000000000000001, "B": 0.125, "a": 1.0}
    assert abs(fam.recipe(_half_step(fam, p)).lam) < 1e-15
    grid = make_grid(*fam.domain(p).si_interval, 512)
    assert verify_shape_invariance(fam.W, fam.Wprime, p, fam.tau, grid).passed
    wrong = verify_shape_invariance(fam.W, fam.Wprime, p, lambda q: _half_step(fam, q), grid)
    assert wrong.verdict == "unresolved" and not wrong.passed


def test_qhj_oscillator():
    rep = verify_qhj(lambda x: x, lambda x: np.ones_like(x), lambda x: x * x, 1.0,
                     make_grid(-5, 5, 256))
    assert rep.passed and rep.max_residual == 0.0


def test_qhj_centrifugal():
    ell = 1.0
    rep = verify_qhj(
        lambda r: (ell + 1) / r,
        lambda r: -(ell + 1) / r**2,
        lambda r: (ell + 1) * (ell + 2) / r**2,
        0.0,
        make_grid(0.2, 5, 256),
    )
    assert rep.passed and rep.max_residual < 1e-12


def test_qhj_tanh_well():
    rep = verify_qhj(
        np.tanh,
        lambda x: 1 / np.cosh(x) ** 2,
        lambda x: 1 - 2 / np.cosh(x) ** 2,
        0.0,
        make_grid(-6, 6, 256),
    )
    assert rep.passed and rep.max_residual < 1e-12


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_qhj_self_consistency_for_catalog(name):
    # V- built from the family's own W must satisfy the relation at E = 0
    fam = get_family(name)
    p = fam.reference_params
    rep = verify_qhj(
        lambda x: fam.W(p, x),
        lambda x: fam.Wprime(p, x),
        lambda x: fam.W(p, x) ** 2 - fam.Wprime(p, x),
        0.0,
        make_grid(*fam.domain(p).si_interval, 256),
        tolerance=1e-12,
    )
    assert rep.passed, name


def test_negation_condition_odd_families():
    W = lambda p, x: p["lam"] * np.tanh(x)
    tau = lambda p: {"lam": -p["lam"]}
    rep = verify_negation_condition(W, {"lam": 3.0}, tau, make_grid(-4, 4, 128))
    assert rep.passed and rep.max_residual == 0.0

    Winv = lambda p, x: p["lam"] / x
    rep = verify_negation_condition(Winv, {"lam": 2.0}, tau, make_grid(0.5, 4, 128))
    assert rep.passed


def test_negation_condition_is_only_sufficient():
    # flipping b alone does not negate the shifted oscillator: residual ~ |omega x|
    fam = get_family("shifted-oscillator")
    tau = lambda p: {**p, "b": -p["b"]}
    rep = verify_negation_condition(fam.W, {"omega": 2.0, "b": 1.0}, tau,
                                    make_grid(-8, 8, 128))
    assert not rep.passed
    assert rep.max_residual == pytest.approx(16.0)  # max |omega x| on the grid


def test_generalized_si_reduces_to_plain():
    fam = get_family("morse")
    p = fam.reference_params
    grid = make_grid(-3, 10, 256)
    plain = verify_shape_invariance(fam.W, fam.Wprime, p, fam.tau, grid)
    gen = verify_generalized_si(fam.W, fam.Wprime, p, fam.tau,
                                lambda x: np.zeros_like(x), grid)
    assert gen.passed
    assert gen.estimated_constant == pytest.approx(plain.estimated_constant)


def test_generalized_si_absorbs_own_constant():
    fam = get_family("radial-oscillator")
    p = fam.reference_params
    R = fam.R(p)
    rep = verify_generalized_si(fam.W, fam.Wprime, p, fam.tau,
                                lambda x: np.full_like(x, R),
                                make_grid(0.1, 10, 256))
    assert rep.passed
    assert rep.estimated_constant == pytest.approx(0.0, abs=1e-10)


def test_non_finite_values_raise_with_locations():
    fam = get_family("radial-oscillator")
    grid = make_grid(-1, 1, 129)  # odd count puts a point exactly on the 1/r pole
    with pytest.raises(NonFiniteValues) as info:
        verify_shape_invariance(fam.W, fam.Wprime, fam.reference_params, fam.tau, grid)
    assert 0.0 in info.value.locations


def test_reports_are_bit_deterministic():
    fam = get_family("gen-poschl-teller")
    grid = make_grid(*fam.domain(fam.reference_params).si_interval, 512)
    a = verify_shape_invariance(fam.W, fam.Wprime, fam.reference_params, fam.tau, grid)
    b = verify_shape_invariance(fam.W, fam.Wprime, fam.reference_params, fam.tau, grid)
    assert a == b  # dataclass equality on floats: bit-identical
