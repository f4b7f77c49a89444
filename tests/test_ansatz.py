import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from shapeinv import ansatz
from shapeinv.ansatz import (
    BranchError,
    PoleOnGrid,
    SeedSolution,
    construct_case,
    construct_generalized,
    extend_constant_shift,
    extend_second_solution,
    free_particle_seed,
    integrate_seed,
    isospectral_shift_residual,
    pole_free_grid,
    verify_case_riccati,
)
from shapeinv.catalog import get_family
from shapeinv.sampling import NonFiniteValues, SampledFunction, make_grid
from shapeinv.verify import verify_negation_condition, verify_shape_invariance

from test_catalog_proofs import table_values


# ---------------------------------------------------------------------------
# the three cases
# ---------------------------------------------------------------------------

def test_case_linear_gives_inverse_x():
    cons = construct_case(0.0, "linear", 1.0, 1.0, slope=1.0, intercept=0.0)
    x = make_grid(0.5, 3.0, 64)
    assert np.allclose(cons.W(x), 1.0 / x, atol=1e-14)


def test_case_cos_gives_minus_tan():
    cons = construct_case(1.0, "cos", 1.0, 1.0)
    x = make_grid(-1.2, 1.2, 64)
    assert np.allclose(cons.W(x), -np.tan(x), atol=1e-13)


def test_case_cosh_gives_scaled_tanh():
    cons = construct_case(-1.0, "cosh", 1.0, 2.0)
    x = make_grid(-3, 3, 64)
    assert np.allclose(cons.W(x), 2.0 * np.tanh(x), atol=1e-13)


def test_case_sin_gives_cot():
    cons = construct_case(4.0, "sin", 1.0, 1.0)  # k = 2
    x = make_grid(0.1, 1.4, 64)
    assert np.allclose(cons.W(x), 2.0 / np.tan(2.0 * x), atol=1e-11)


def test_case_exp_gives_a_constant_and_phi_its_decay():
    cons = construct_case(-4.0, "exp", 1.0, 1.5)  # c = 2
    x = make_grid(-3, 3, 64)
    assert np.all(cons.W(x) == 3.0)
    ext = extend_second_solution(cons, 0.0, 1.0)
    assert np.allclose(ext.phi_xi(x), np.exp(-2.0 * x), rtol=1e-15, atol=0)


def test_named_branches_stay_finite_where_u_overflows():
    # sinh and cosh overflow beyond xi = 710; F and 1/u in closed form do not
    x = np.array([800.0, 1e4])
    assert np.all(construct_case(-1.0, "cosh", 1.0, 2.0).W(x) == 2.0)
    assert np.all(construct_case(-1.0, "sinh", 1.0, 2.0).W(x) == 2.0)
    # 1/cosh overflowing to 0 is IEEE behaviour, and warns of nothing
    assert np.all(extend_second_solution(
        construct_case(-1.0, "cosh", 1.0, 2.0), 0.0, 1.0).W(x) == 2.0)


#: each named branch on a window free of the zeros of u, with u formed directly
_SEEDS = [
    ((0.0, "linear", 2.0, 1.0), (0.0, 3.0), lambda xi: 2.0 * xi + 1.0),
    ((0.0, "linear", 0.0, 2.0), (-3.0, 3.0), lambda xi: np.full_like(xi, 2.0)),
    ((0.0, "linear", -1.0, 0.0), (-3.0, -0.5), lambda xi: -xi),
    ((4.0, "sin", 1.0, 0.0), (0.1, 1.4), lambda xi: np.sin(2.0 * xi)),
    ((4.0, "sin", 1.0, 0.0), (1.7, 3.0), lambda xi: np.sin(2.0 * xi)),
    ((4.0, "cos", 1.0, 0.0), (-0.7, 0.7), lambda xi: np.cos(2.0 * xi)),
    ((4.0, "cos", 1.0, 0.0), (0.9, 2.2), lambda xi: np.cos(2.0 * xi)),
    ((-1.0, "sinh", 1.0, 0.0), (0.5, 3.0), np.sinh),
    ((-1.0, "sinh", 1.0, 0.0), (-3.0, -0.5), np.sinh),
    ((-1.0, "cosh", 1.0, 0.0), (-3.0, 3.0), np.cosh),
    ((-4.0, "exp", 1.0, 0.0), (-3.0, 3.0), lambda xi: np.exp(2.0 * xi)),
]


@pytest.mark.parametrize("args,window,u", _SEEDS)
def test_closed_form_integrals_of_every_branch(args, window, u):
    # log|u| against u formed directly; the integrals of 1/u and (int u)/u
    # against cumulative Simpson of the closed forms they integrate, on a
    # window of each sign of u where u has both
    K, branch, slope, intercept = args
    seed = free_particle_seed(K, branch, slope=slope, intercept=intercept)
    xi = make_grid(*window, 4001)
    assert np.max(np.abs(seed.log_abs(xi) - np.log(np.abs(u(xi))))) < 1e-14
    for integral, integrand in ((seed.inverse_integral, seed.inverse),
                                (seed.ratio_integral, seed.integral_ratio)):
        got = integral(xi)
        want = cumulative_simpson(integrand(xi), x=xi, initial=0.0)
        assert np.max(np.abs(got - got[0] - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


def test_log_u_and_its_integrals_stay_finite_where_u_overflows():
    xi = np.array([-1e4, -800.0, 800.0, 1e4])
    for branch in ("sinh", "cosh"):
        seed = free_particle_seed(-4.0, branch)  # c = 2
        assert np.allclose(seed.log_abs(xi), 2.0 * np.abs(xi) - np.log(2.0), rtol=1e-15, atol=0)
        assert np.all(np.isfinite(seed.inverse_integral(xi)))
        assert np.all(np.isfinite(seed.ratio_integral(xi)))


@pytest.mark.parametrize("name", ["shifted-oscillator", "radial-oscillator", "coulomb", "morse",
                                  "scarf-II-hyperbolic", "rosen-morse-II-hyperbolic", "eckart",
                                  "scarf-I-trigonometric", "gen-poschl-teller",
                                  "rosen-morse-I-trigonometric"])
def test_prepotential_is_the_integral_of_W(name):
    fam = get_family(name)
    p = fam.reference_params
    cons = fam.recipe(p)
    x = make_grid(*fam.domain(p).si_interval, 20001)
    omega = cons.prepotential(x)
    want = cumulative_simpson(cons.W(x), x=x, initial=0.0)
    assert np.max(np.abs(omega - omega[0] - want)) < 1e-9 * max(1.0, np.max(np.abs(want)))


def test_prepotential_needs_a_named_seed():
    V0 = lambda xi: xi * xi  # noqa: E731
    seed = integrate_seed(V0, 1.0, (0.0, 1.0), 1.0, 0.0)
    cons = construct_generalized(V0, 1.0, seed, 1.0, 1.0)
    with pytest.raises(ValueError, match="named seed"):
        cons.prepotential(np.linspace(0.1, 0.9, 8))


def test_branch_sign_mismatch_rejected():
    with pytest.raises(BranchError):
        construct_case(1.0, "linear", 1.0, 1.0)
    with pytest.raises(BranchError):
        construct_case(-1.0, "sin", 1.0, 1.0)
    with pytest.raises(BranchError):
        construct_case(1.0, "cosh", 1.0, 1.0)
    with pytest.raises(BranchError):
        construct_case(0.0, "exp", 1.0, 1.0)
    with pytest.raises(ValueError):
        construct_case(0.0, "linear", 0.0, 1.0)  # alpha = 0


# ---------------------------------------------------------------------------
# sampled Riccati certification
# ---------------------------------------------------------------------------

def test_riccati_residual_inverse_x():
    g = make_grid(1.0, 2.0, 512)
    assert verify_case_riccati(SampledFunction(g, 1.0 / g), 0.0) < 1e-8


def test_riccati_residual_tan():
    g = make_grid(0.0, 1.2, 1024)
    assert verify_case_riccati(SampledFunction(g, -np.tan(g)), 1.0) < 1e-6


def test_riccati_residual_tanh():
    g = make_grid(-3.0, 3.0, 1024)
    assert verify_case_riccati(SampledFunction(g, np.tanh(g)), -1.0) < 1e-6


def test_riccati_pole_reported_not_clipped():
    # divergent-but-finite samples near a pole are flagged, never clipped
    g = make_grid(1e-14, 1.0, 128)
    F = SampledFunction(g, 1.0 / g)  # first value ~ 1e14
    with pytest.raises(PoleOnGrid) as info:
        verify_case_riccati(F, 0.0)
    assert len(info.value.locations) >= 1


def test_pole_on_grid_is_a_non_finite_values_error_with_float_locations():
    err = PoleOnGrid("grid crosses a pole", np.array([0.5, 1.0]))
    assert isinstance(err, NonFiniteValues)
    assert err.locations == (0.5, 1.0)
    assert all(type(v) is float for v in err.locations)


@pytest.mark.parametrize("K,branch,window", [
    # windows keep clear of seed zeros: differencing error grows like
    # h^4 F''''' ~ h^4 / d^6 within distance d of a pole
    (0.0, "linear", (0.3, 2.5)),
    (1.0, "cos", (-1.2, 1.2)),
    (4.0, "sin", (0.25, 1.3)),
    (-1.0, "cosh", (-4.0, 4.0)),
    (-2.0, "sinh", (0.3, 4.0)),
])
def test_every_case_satisfies_riccati_on_pole_free_grid(K, branch, window):
    cons = construct_case(K, branch, 1.0, 1.5)
    grid, _ = pole_free_grid(cons, *window, 4096)
    F = SampledFunction(grid, cons.F(grid))
    assert verify_case_riccati(F, K) < 1e-6


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------

def test_second_solution_sech():
    base = construct_case(-1.0, "cosh", 1.0, 1.0)
    ext = extend_second_solution(base, 0.0, 1.0)
    x = make_grid(-4, 4, 128)
    assert np.allclose(ext.phi_xi(x), 1.0 / np.cosh(x), atol=1e-14)
    assert np.allclose(ext.W(x), np.tanh(x) + 1.0 / np.cosh(x), atol=1e-14)


def test_second_solution_inverse_xi():
    base = construct_case(0.0, "linear", 1.0, 1.0)
    ext = extend_second_solution(base, 0.0, 1.0)
    x = make_grid(0.5, 4, 128)
    assert np.allclose(ext.phi_xi(x), 1.0 / x, atol=1e-14)


def test_second_solution_zero_data_is_identity():
    base = construct_case(-1.0, "sinh", 1.0, 2.0)
    ext = extend_second_solution(base, 0.0, 0.0)
    x = make_grid(0.3, 3, 128)
    assert np.allclose(ext.W(x), base.W(x), atol=0)


def test_second_solution_defining_ode_holds():
    # |phi' + F phi - C| on the grid, derivative by differencing samples
    base = construct_case(-1.0, "cosh", 1.0, 1.0)
    ext = extend_second_solution(base, 0.7, 0.3)
    xi = make_grid(-3, 3, 4096)
    phi = ext.phi_xi(xi)
    dphi = np.gradient(phi, xi, edge_order=2)
    res = dphi + ext.F_xi(xi) * phi - 0.7
    assert np.max(np.abs(res[2:-2])) < 1e-6


def _free_custom_seed(K, interval, u0, uprime0):
    """A custom seed of u'' + K u = 0, integrated as the generalized construction's are."""
    return integrate_seed(lambda xi: np.zeros_like(np.asarray(xi, float)), K, interval, u0, uprime0)


def test_second_solution_refuses_a_custom_seed():
    # a custom seed serves the generalized construction only; u = e^xi
    seed = _free_custom_seed(-1.0, (-2.0, 4.0), np.exp(-2.0), np.exp(-2.0))
    cons = ansatz.ConstructedSuperpotential(seed=seed, alpha=1.0, lam=4.0)
    with pytest.raises(ValueError, match="^a second solution needs a named seed$"):
        extend_second_solution(cons, 0.5, -2.0)
    with pytest.raises(BranchError):
        free_particle_seed(1.0, "custom")


def test_constant_shift_examples():
    base = construct_case(-1.0, "cosh", 1.0, 4.0)  # W = 4 tanh x
    ext = extend_constant_shift(base, 4.0)
    x = make_grid(-5, 5, 128)
    assert np.allclose(ext.W(x), 4 * np.tanh(x) + 1.0, atol=1e-14)

    base = construct_case(-1.0, "sinh", 1.0, -1.0)  # W = -coth r
    ext = extend_constant_shift(base, -3.0)
    r = make_grid(0.2, 6, 128)
    assert np.allclose(ext.W(r), -1.0 / np.tanh(r) + 3.0, atol=1e-13)

    same = extend_constant_shift(base, 0.0)
    assert np.allclose(same.W(r), base.W(r), atol=0)


def test_constant_shift_preserves_shape_invariance():
    base = construct_case(-1.0, "cosh", 1.0, 4.0)
    ext = extend_constant_shift(base, 2.0)
    grid = make_grid(-6, 6, 512)
    rep = verify_shape_invariance(ext.W_at, ext.Wprime_at, ext.lam, ext.tau, grid)
    assert rep.passed
    assert rep.estimated_constant == pytest.approx(ext.energy_shift(), abs=1e-10)


@pytest.mark.parametrize("K,branch,interval", [
    (0.0, "linear", (0.3, 3.0)),
    (1.0, "cos", (-1.2, 1.2)),
    (-1.0, "cosh", (-5.0, 5.0)),
    (-1.0, "sinh", (0.2, 5.0)),
])
def test_case_round_trip_shape_invariance(K, branch, interval):
    cons = construct_case(K, branch, 1.0, 2.5)
    grid = make_grid(*interval, 512)
    rep = verify_shape_invariance(cons.W_at, cons.Wprime_at, cons.lam, cons.tau, grid)
    assert rep.passed
    assert rep.estimated_constant == pytest.approx(cons.energy_shift(), abs=1e-9)


@pytest.mark.parametrize("K,branch,interval", [
    (1.0, "cos", (-1.2, 1.2)),
    (-1.0, "cosh", (-5.0, 5.0)),
    (0.0, "linear", (0.3, 3.0)),
])
def test_negation_condition_for_bare_cases(K, branch, interval):
    cons = construct_case(K, branch, 1.0, 2.0)
    rep = verify_negation_condition(
        lambda lam, x: cons.W_at(lam, x), 2.0, lambda lam: -lam,
        make_grid(*interval, 128))
    assert rep.passed and rep.max_residual == 0.0


# ---------------------------------------------------------------------------
# isospectral-shift certification
# ---------------------------------------------------------------------------

def test_isospectral_zero_deformation():
    g = make_grid(0.5, 3.0, 128)
    chi = SampledFunction(g, np.zeros_like(g))
    assert isospectral_shift_residual(lambda x: x, chi, 0.0) == 0.0


def test_isospectral_oscillator_deformations():
    # expand chi^2 + 2 x chi + chi' symbolically:
    # chi = 1/x      -> 1/x^2 + 2 - 1/x^2 = 2
    # chi = -2x+1/x  -> (4x^2 - 4 + 1/x^2) + (-4x^2 + 2) + (-2 - 1/x^2) = -4
    g = make_grid(0.5, 3.0, 1024)
    chi = SampledFunction(g, 1.0 / g)
    assert isospectral_shift_residual(lambda x: x, chi, 2.0) < 1e-6
    chi = SampledFunction(g, -2.0 * g + 1.0 / g)
    assert isospectral_shift_residual(lambda x: x, chi, -4.0) < 1e-6


def test_isospectral_rejects_non_deformation():
    # chi = -x + 1/x gives -x^2 - 1: not constant, residual stays order one
    g = make_grid(0.5, 3.0, 1024)
    chi = SampledFunction(g, -g + 1.0 / g)
    assert isospectral_shift_residual(lambda x: x, chi, -3.0) > 1.0


def test_isospectral_constant_chi_needs_constant_W():
    g = make_grid(-3.0, 3.0, 256)
    chi = SampledFunction(g, np.ones_like(g))
    res = isospectral_shift_residual(np.tanh, chi, 1.0)
    assert res > 0.5  # 1 + 2 tanh x is nowhere near constant


# ---------------------------------------------------------------------------
# generalized seeds
# ---------------------------------------------------------------------------

def test_generalized_reduces_to_case_for_zero_potential():
    seed = integrate_seed(lambda xi: 0.0, 0.0, (0.5, 3.0), 0.5, 1.0)  # u = xi
    cons = construct_generalized(lambda xi: np.zeros_like(np.asarray(xi, float)),
                                 0.0, seed, 1.0, 1.0)
    x = make_grid(0.6, 2.9, 128)
    assert np.max(np.abs(cons.W(x) - 1.0 / x)) < 1e-9


def test_generalized_constant_potential_shift():
    # V0 = c: u'' + (K - c) u = 0, same as a bare case at K' = K - c
    c = 0.75
    seed = integrate_seed(lambda xi: c, 1.0 + c, (0.2, 1.4), np.sin(0.2), np.cos(0.2))
    cons = construct_generalized(lambda xi: np.full_like(np.asarray(xi, float), c),
                                 1.0 + c, seed, 1.0, 1.0)
    plain = construct_case(1.0, "sin", 1.0, 1.0)
    x = make_grid(0.3, 1.3, 128)
    assert np.max(np.abs(cons.W(x) - plain.W(x))) < 1e-8


def test_generalized_centrifugal_seed_certificate():
    # V0 = 2/xi^2 at K = 1: seeded by the regular solution xi j1(xi)
    V0 = lambda xi: 2.0 / np.asarray(xi, float) ** 2
    u0 = np.sin(0.5) / 0.5 - np.cos(0.5)
    up0 = np.cos(0.5) / 0.5 - np.sin(0.5) / 0.25 + np.sin(0.5)
    seed = integrate_seed(V0, 1.0, (0.5, 3.5), u0, up0)
    cons = construct_generalized(V0, 1.0, seed, alpha=1.0, lam=2.0)
    from shapeinv.verify import verify_generalized_si

    rep = verify_generalized_si(cons.W_at, cons.Wprime_at, cons.lam, cons.tau,
                                cons.si_offset_field(), make_grid(0.6, 3.4, 512),
                                tolerance=1e-6)
    assert rep.passed
    assert rep.estimated_constant == pytest.approx(-3.0, abs=1e-6)


def test_generalized_rejects_wrong_seed():
    V0 = lambda xi: 2.0 / np.asarray(xi, float) ** 2
    bad = SeedSolution(K=1.0, branch="custom", u=lambda xi: np.exp(xi),
                       uprime=lambda xi: np.exp(xi), constants={},
                       interval=(0.5, 3.5))
    with pytest.raises(ValueError):
        construct_generalized(V0, 1.0, bad, 1.0, 2.0)


def test_generalized_rejects_seed_with_node():
    # u = xi j1 has its first node near 4.49; stretch the interval past it
    V0 = lambda xi: 2.0 / np.asarray(xi, float) ** 2
    u0 = np.sin(0.5) / 0.5 - np.cos(0.5)
    up0 = np.cos(0.5) / 0.5 - np.sin(0.5) / 0.25 + np.sin(0.5)
    seed = integrate_seed(V0, 1.0, (0.5, 5.5), u0, up0)
    with pytest.raises(PoleOnGrid):
        construct_generalized(V0, 1.0, seed, 1.0, 2.0)


# ---------------------------------------------------------------------------
# the catalog's recipes against the closed forms of Cooper, Khare & Sukhatme
# ---------------------------------------------------------------------------

#: family -> (parameters, window), away from the reference parameters and
#: wider than the verify grids
RECIPE_POINTS = {
    "shifted-oscillator": ({"omega": 2.0, "b": 0.5}, (-6.0, 6.0)),
    "radial-oscillator": ({"omega": 2.0, "ell": 1.0}, (0.2, 8.0)),
    "coulomb": ({"e2": 2.0, "ell": 0.0}, (0.2, 20.0)),
    "morse": ({"A": 4.0, "B": 4.0, "a": 1.0}, (-3.0, 9.0)),
    "scarf-II-hyperbolic": ({"A": 4.0, "B": 4.0, "a": 1.0}, (-7.0, 7.0)),
    "rosen-morse-II-hyperbolic": ({"A": 4.0, "B": 4.0, "a": 1.0}, (-7.0, 7.0)),
    "eckart": ({"A": 1.0, "B": 3.0, "a": 0.5}, (0.2, 11.0)),
    "scarf-I-trigonometric": ({"A": 4.0, "B": 1.0, "a": 1.0}, (-1.4, 1.4)),
    "gen-poschl-teller": ({"A": 3.0, "B": 4.0, "a": 1.0}, (0.2, 11.0)),
    "rosen-morse-I-trigonometric": ({"A": 1.0, "B": 1.0, "a": 1.0}, (0.15, 2.9)),
}


@pytest.mark.parametrize("name", RECIPE_POINTS)
def test_reconstruction_matches_catalog(name):
    p, interval = RECIPE_POINTS[name]
    cons = get_family(name).recipe(p)
    x = make_grid(*interval, 512)
    W, Wp, _ = table_values(name, p, x)
    assert np.max(np.abs(cons.W(x) - W)) < 1e-10
    assert np.max(np.abs(cons.Wprime(x) - Wp)) < 1e-9


@pytest.mark.parametrize("name", RECIPE_POINTS)
def test_reconstruction_energy_shift_matches_catalog(name):
    p, interval = RECIPE_POINTS[name]
    _, _, R = table_values(name, p, interval[0])
    assert get_family(name).recipe(p).energy_shift() == pytest.approx(float(R), abs=1e-10)


# ---------------------------------------------------------------------------
# pole handling
# ---------------------------------------------------------------------------

def test_pole_free_grid_avoids_sin_zeros():
    cons = construct_case(1.0, "sin", 1.0, 1.0)  # poles of cot at multiples of pi
    grid, poles = pole_free_grid(cons, 0.5, 7.0, 256)
    assert any(abs(p - np.pi) < 1e-9 for p in poles)
    assert any(abs(p - 2 * np.pi) < 1e-9 for p in poles)
    assert np.all(np.isfinite(cons.W(grid)))


def test_pole_free_grid_refuses_a_custom_seed():
    # a custom seed has no closed-form zeros, and none are searched for; u = cos xi
    seed = _free_custom_seed(1.0, (-1.0, 1.0), np.cos(-1.0), -np.sin(-1.0))
    cons = ansatz.ConstructedSuperpotential(seed=seed, alpha=1.0, lam=1.0)
    with pytest.raises(ValueError, match="pole_free_grid needs a named seed"):
        pole_free_grid(cons, 0.0, 3.0, 256)


def test_pole_free_grid_no_poles_for_cosh():
    cons = construct_case(-1.0, "cosh", 1.0, 1.0)
    grid, poles = pole_free_grid(cons, -5.0, 5.0, 256)
    assert poles == []
    assert grid[0] == -5.0 and grid[-1] == 5.0
