import json
import math
import random
from io import StringIO

import numpy as np
import pytest

from shapeinv import oracle
from shapeinv.catalog import FAMILY_NAMES, DomainInterval, get_family
from shapeinv.cli import run_command
from shapeinv.oracle import OracleConfig, compare_spectra, solve
from shapeinv.sampling import NonFiniteValues
from shapeinv.spectral import Spectrum, algebraic_spectrum, ladder_wavefunctions

BOX = DomainInterval(0.0, math.pi, (0.0, math.pi))
LINE = DomainInterval(-math.inf, math.inf, (-10.0, 10.0))


def _v(fam, p):
    return lambda x: fam.W(p, x) ** 2 - fam.Wprime(p, x)


def test_config_validation():
    for n_levels, max_points in [(0, 129), (66, 129), (4, 64)]:
        with pytest.raises(ValueError, match="must be from 1 to 65, and max_points"):
            OracleConfig(n_levels, max_points)
    assert OracleConfig(n_levels=65, max_points=65).n_levels == 65


def test_the_size_cap_lowers_only_the_fine_solve():
    # 65 and 129 points by default, any cap of 129 or more alike; a cap of
    # 65 makes both solves 65-point ones
    default = solve(lambda x: x * x, LINE, OracleConfig(n_levels=3))
    for cap, same in [(8000, True), (100, False)]:
        res = solve(lambda x: x * x, LINE, OracleConfig(3, max_points=cap))
        assert (res.spectrum.energies == default.spectrum.energies) is same
    res = solve(lambda x: x * x, LINE, OracleConfig(3, max_points=65))
    assert np.all(res.estimate < 1e-6)


def test_particle_in_a_box_calibration():
    res = solve(lambda x: np.zeros_like(x), BOX, OracleConfig(n_levels=4))
    exact = np.array([1.0, 4.0, 9.0, 16.0])
    rel = np.abs(np.asarray(res.spectrum.energies) - exact) / exact
    assert np.all(rel < 1e-10), rel


def test_quadratic_well_calibration():
    res = solve(lambda x: x * x, LINE, OracleConfig(n_levels=3))
    exact = np.array([1.0, 3.0, 5.0])
    rel = np.abs(np.asarray(res.spectrum.energies) - exact) / exact
    assert np.all(rel < 1e-10), rel


def test_morse_matches_algebraic_levels():
    fam = get_family("morse")
    p = {"A": 4.0, "B": 4.0, "a": 1.0}
    alg = algebraic_spectrum(fam, p, 4)
    res = solve(_v(fam, p), fam.domain(p), OracleConfig(n_levels=4))
    cmp = compare_spectra(alg, res.spectrum, tolerance=1e-10)
    assert cmp.passed, cmp.deviations


def test_eigenvectors_orthonormal():
    res = solve(lambda x: x * x, LINE, OracleConfig(n_levels=4))
    for m in range(4):
        for n in range(4):
            ip = res.wavefunctions[m].inner(res.wavefunctions[n])
            assert abs(ip - (1.0 if m == n else 0.0)) < 1e-8


def test_convergence_flag():
    # the 65- and 129-point solves agree where 65 points resolve the levels
    res = solve(lambda x: x * x, LINE, OracleConfig(n_levels=3))
    assert np.all(res.estimate < 1e-9)
    # and part where they do not: 40 levels of x^2 need more than 65 points
    res = solve(lambda x: x * x, LINE, OracleConfig(n_levels=40))
    assert res.estimate.max() > 1e-3


def test_singular_potential_rejected():
    calls = []

    def pole_in_the_middle(x):
        calls.append(x)
        return 1.0 / (x - x[x.size // 2])

    with pytest.raises(NonFiniteValues, match="values of V") as err:
        solve(pole_in_the_middle, LINE, OracleConfig(n_levels=2))
    x = calls[-1]
    assert err.value.locations == (x[x.size // 2],)


def test_overflow_in_the_tails_is_forbidden_region():
    # exp(x^2) overflows beyond |x| = 26.6, far out in the tails of its levels
    res = solve(lambda x: x * x + np.exp(x * x) - 1.0, LINE, OracleConfig(n_levels=2))
    assert all(np.isfinite(res.spectrum.energies))
    # a non-finite V between finite ones is the potential's, and an error
    with pytest.raises(NonFiniteValues, match="values of V"):
        solve(lambda x: np.where(np.abs(x) < 1.0, np.inf, x * x), LINE, OracleConfig())


def test_compare_spectra_modes():
    a = Spectrum(energies=[0.0, 2.0, 4.0], provenance="algebraic")
    b = Spectrum(energies=[5.0, 7.0, 9.0], provenance="oracle")
    assert compare_spectra(a, b).passed


def test_compare_spectra_truncation_flag():
    a = Spectrum(energies=[0.0, 2.0, 4.0, 6.0], provenance="algebraic")
    b = Spectrum(energies=[0.0, 2.0], provenance="oracle")
    cmp = compare_spectra(a, b)
    assert cmp.truncated and len(cmp.deviations) == 2


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("n_points", [500, 2000, 8000])
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_energies_and_states_match_one_vector_solve(name, n_points):
    # any cap of 129 points or more gives the energies of the default; the
    # states come from one vector solve of the same pencil, one per level,
    # each with its level's node count and orthonormal to the others as far
    # as the trapezoid rule on their sampling grid tells (about 1e-5 where
    # the map crowds that grid against a wall)
    fam = get_family(name)
    p = fam.reference_params
    alg = algebraic_spectrum(fam, p, 6)
    for n_levels in range(1, len(alg.energies) + 1):
        res = solve(_v(fam, p), fam.domain(p), OracleConfig(n_levels, max_points=n_points))
        default = solve(_v(fam, p), fam.domain(p), OracleConfig(n_levels))
        np.testing.assert_array_equal(_bits(res.spectrum.energies),
                                      _bits(default.spectrum.energies))
        states = res.wavefunctions
        assert [psi.level for psi in states] == list(range(n_levels))
        for m, psi in enumerate(states):
            assert psi.nodes() == m, (m, psi.nodes())
            for n in range(m + 1):
                assert abs(psi.inner(states[n]) - (m == n)) < 1e-4, (m, n)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_states_match_the_ladder(name):
    # the sinc interpolant of each vector against the ladder's closed form
    fam = get_family(name)
    p = fam.reference_params
    n_levels = len(algebraic_spectrum(fam, p, 4).energies)
    res = solve(_v(fam, p), fam.domain(p), OracleConfig(n_levels))
    ladder = ladder_wavefunctions(fam, p, n_levels, res.wavefunctions[0].x)
    for psi, want in zip(res.wavefunctions, ladder):
        assert abs(psi.inner(want)) > 1 - 1e-12, (psi.level, psi.inner(want))


@pytest.fixture
def solves(monkeypatch):
    """Counts of the oracle's dense solves without and with eigenvectors."""
    counts = {"energies": 0, "vectors": 0}
    eigvalsh, eigh = np.linalg.eigvalsh, np.linalg.eigh

    def counting_eigvalsh(*args, **kwargs):
        counts["energies"] += 1
        return eigvalsh(*args, **kwargs)

    def counting_eigh(*args, **kwargs):
        counts["vectors"] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return counts


def test_spectrum_command_solves_no_eigenvectors(solves):
    code = run_command(["spectrum", "morse", "--oracle", "--json"], StringIO())
    assert code == 0
    assert solves == {"energies": 2, "vectors": 0}


def test_convergence_checks_solve_no_eigenvectors(solves):
    # the estimate is the distance between two energies-only solves
    res = solve(lambda x: x * x, LINE, OracleConfig(n_levels=3))
    assert res.estimate.shape == (3,)
    assert solves == {"energies": 2, "vectors": 0}


def test_spectrum_json_reports_the_estimate_per_level():
    # |E(129) - E(65)| per level beside the oracle's energies; a cap of 65
    # makes both solves one, and the text output has no column for it
    fam = get_family("rosen-morse-I-trigonometric")
    p = fam.reference_params
    res = solve(_v(fam, p), fam.domain(p), OracleConfig(3))
    argv = ["spectrum", fam.name, "-n", "3", "--oracle"]
    for cap, want in [("129", res.estimate), ("65", np.zeros(3))]:
        out = StringIO()
        assert run_command([*argv, "--points", cap, "--json"], out) == 0
        np.testing.assert_allclose(json.loads(out.getvalue())["oracle"]["estimate"], want,
                                   rtol=1e-11, atol=0)
    out = StringIO()
    assert run_command(argv, out) == 0
    assert out.getvalue().splitlines()[0].split() == ["n", "E_n", "oracle", "gap", "deviation"]


def test_wavefunctions_are_solved_once_on_first_read(solves):
    res = solve(lambda x: x * x, LINE, OracleConfig(n_levels=2))
    assert solves["vectors"] == 0
    assert res.wavefunctions is res.wavefunctions
    assert solves == {"energies": 2, "vectors": 1}


@pytest.mark.parametrize("name", ["scarf-I-trigonometric", "rosen-morse-I-trigonometric"])
def test_v_is_read_no_nearer_a_wall_than_x_resolves(name):
    # V is read no nearer a wall w than oracle.WALL_ULPS spacings of w, where
    # x(t) resolves the distance to it; past that the wall's c / d^2 goes on
    fam = get_family(name)
    p = fam.reference_params
    dom = fam.domain(p)
    seen = []

    def V(x):
        seen.append(np.asarray(x))
        return _v(fam, p)(x)

    solve(V, dom, OracleConfig())
    x = np.concatenate(seen)
    for wall in (dom.lo, dom.hi):
        least = max(oracle.WALL_ULPS * np.spacing(abs(wall)), oracle.D_MIN)
        assert np.min(np.abs(x - wall)) >= least * (1 - 1e-9), wall


#: boxes the parameter draws come from; validate() keeps the points of the valid region
_BOXES = {
    "shifted-oscillator": {"omega": (0.5, 8.0), "b": (-4.0, 4.0)},
    "radial-oscillator": {"omega": (0.5, 8.0), "ell": (0.0, 6.0)},
    "coulomb": {"e2": (0.5, 8.0), "ell": (0.0, 6.0)},
    "morse": {"A": (0.5, 40.0), "B": (0.5, 40.0), "a": (0.25, 2.0)},
    "scarf-II-hyperbolic": {"A": (0.5, 10.0), "B": (-10.0, 10.0), "a": (0.25, 2.0)},
    "rosen-morse-II-hyperbolic": {"A": (0.5, 10.0), "B": (-100.0, 100.0), "a": (0.25, 2.0)},
    "eckart": {"A": (0.25, 4.0), "B": (0.0, 46.0), "a": (0.25, 2.0)},
    "scarf-I-trigonometric": {"A": (0.5, 10.0), "B": (-10.0, 10.0), "a": (0.25, 4.0)},
    "gen-poschl-teller": {"A": (0.5, 10.0), "B": (0.5, 20.0), "a": (0.25, 2.0)},
    "rosen-morse-I-trigonometric": {"A": (0.5, 10.0), "B": (-10.0, 10.0), "a": (0.25, 4.0)},
}


def _wall_exponents(name, p):
    """The ground state's exponent s at each wall, psi_0 ~ d^s (none on an infinite end)."""
    if name in ("radial-oscillator", "coulomb"):
        return [p["ell"] + 1.0]
    if name in ("eckart", "rosen-morse-I-trigonometric"):
        return [p["A"] / p["a"]]
    if name == "scarf-I-trigonometric":
        return [(p["A"] - p["B"]) / p["a"], (p["A"] + p["B"]) / p["a"]]
    if name == "gen-poschl-teller":
        return [(p["B"] - p["A"]) / p["a"]]
    return []


def _draws(name, rng, count):
    """count valid points of the family's box whose walls all have s >= 0.6."""
    fam = get_family(name)
    out = []
    while len(out) < count:
        p = {k: rng.uniform(*span) for k, span in _BOXES[name].items()}
        try:
            fam.validate(p)
        except ValueError:
            continue
        if all(s >= 0.6 for s in _wall_exponents(name, p)):
            out.append(p)
    return out


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_gaps_match_the_ladder_wherever_the_walls_have_s_at_least_0_6(name):
    # below s = 1/2 the oracle solves the Friedrichs extension, which the
    # ladder does not describe; just above it the states decay so slowly
    # into the wall that the window cannot hold them
    rng = random.Random(f"oracle-gaps-{name}")
    fam = get_family(name)
    for p in _draws(name, rng, 24):
        alg = algebraic_spectrum(fam, p, rng.randint(2, 6))
        res = solve(_v(fam, p), fam.domain(p), OracleConfig(len(alg.energies)))
        cmp = compare_spectra(alg, res.spectrum, tolerance=1e-3)
        assert cmp.passed, (p, cmp.deviations)
