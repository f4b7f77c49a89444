from io import StringIO

import numpy as np
import pytest

from shapeinv.catalog import FAMILY_NAMES, get_family
from shapeinv.cli import run_command
from shapeinv.oracle import (
    OracleConfig,
    compare_spectra,
    convergence_factors,
    eigensolve,
)
from shapeinv.sampling import fix_sign, normalize
from shapeinv.spectral import Spectrum, algebraic_spectrum


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(box=(0, np.inf))
    with pytest.raises(ValueError):
        OracleConfig(box=(0, 1), n_points=100)
    with pytest.raises(ValueError):
        OracleConfig(box=(0, 1), n_levels=0)


def test_particle_in_a_box_calibration():
    cfg = OracleConfig(box=(0.0, np.pi), n_points=2000, n_levels=4)
    res = eigensolve(lambda x: np.zeros_like(x), cfg)
    exact = np.array([1.0, 4.0, 9.0, 16.0])
    rel = np.abs(np.asarray(res.spectrum.energies) - exact) / exact
    assert np.all(rel < 1e-4)


def test_quadratic_well_calibration():
    cfg = OracleConfig(box=(-10.0, 10.0), n_points=2000, n_levels=3)
    res = eigensolve(lambda x: x * x, cfg)
    exact = np.array([1.0, 3.0, 5.0])
    rel = np.abs(np.asarray(res.spectrum.energies) - exact) / exact
    assert np.all(rel < 1e-4)


def test_self_convergence_factor():
    cfg = OracleConfig(box=(-10.0, 10.0), n_points=2000, n_levels=3)
    factors = convergence_factors(lambda x: x * x, cfg)
    assert np.all(factors >= 3.0)  # second order: expect about 4


def test_morse_box_matches_algebraic_levels():
    fam = get_family("morse")
    p = {"A": 4.0, "B": 4.0, "a": 1.0}
    alg = algebraic_spectrum(fam, p, 4)
    cfg = OracleConfig(box=fam.domain(p).oracle_box, n_points=2000, n_levels=4)
    res = eigensolve(lambda x: fam.W(p, x) ** 2 - fam.Wprime(p, x), cfg)
    cmp = compare_spectra(alg, res.spectrum, mode="relative-gap", tolerance=1e-3)
    assert cmp.passed, cmp.deviations


def test_eigenvectors_orthonormal():
    cfg = OracleConfig(box=(-10.0, 10.0), n_points=2000, n_levels=4)
    res = eigensolve(lambda x: x * x, cfg)
    for m in range(4):
        for n in range(4):
            ip = res.wavefunctions[m].inner(res.wavefunctions[n])
            assert abs(ip - (1.0 if m == n else 0.0)) < 1e-8


def test_convergence_flag():
    cfg = OracleConfig(box=(-10.0, 10.0), n_points=2000, n_levels=3,
                       check_convergence=True, convergence_tol=1e-3)
    res = eigensolve(lambda x: x * x, cfg)
    assert res.converged is True
    assert np.all(res.convergence_deltas < 1e-3)
    # a deliberately under-resolved run must be flagged
    coarse = OracleConfig(box=(-60.0, 60.0), n_points=500, n_levels=3,
                          check_convergence=True, convergence_tol=1e-6)
    res = eigensolve(lambda x: x * x, coarse)
    assert res.converged is False


def test_singular_potential_rejected():
    cfg = OracleConfig(box=(-1.0, 1.0), n_points=501, n_levels=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            eigensolve(lambda x: 1.0 / (x - x[x.size // 2]), cfg)


def test_compare_spectra_modes():
    a = Spectrum(energies=[0.0, 2.0, 4.0], provenance="algebraic")
    b = Spectrum(energies=[5.0, 7.0, 9.0], provenance="oracle")
    assert compare_spectra(a, b, mode="relative-gap").passed
    assert not compare_spectra(a, b, mode="absolute").passed
    same = compare_spectra(a, a, mode="absolute")
    assert same.passed and all(d == 0 for d in same.deviations)


def test_compare_spectra_truncation_flag():
    a = Spectrum(energies=[0.0, 2.0, 4.0, 6.0], provenance="algebraic")
    b = Spectrum(energies=[0.0, 2.0], provenance="oracle")
    cmp = compare_spectra(a, b)
    assert cmp.truncated and len(cmp.deviations) == 2


def _vector_solve(V, cfg):
    """The oracle's eigenpairs as one vector solve, normalized and sign-fixed."""
    from scipy.linalg import eigh_tridiagonal

    x = np.linspace(*cfg.box, cfg.n_points + 2)[1:-1]
    h = x[1] - x[0]
    diag = 2.0 / h**2 + np.asarray(V(x), dtype=float)
    off = np.full(cfg.n_points - 1, -1.0 / h**2)
    w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, cfg.n_levels - 1))
    return x, w, [fix_sign(normalize(v[:, n], x)) for n in range(cfg.n_levels)]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("n_points", [2000, 8000])
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_energies_and_states_match_one_vector_solve(name, n_points):
    fam = get_family(name)
    p = fam.reference_params
    V = lambda x: fam.W(p, x) ** 2 - fam.Wprime(p, x)
    cfg = OracleConfig(box=fam.domain(p).oracle_box, n_points=n_points, n_levels=4)
    res = eigensolve(V, cfg)
    x, w, states = _vector_solve(V, cfg)
    np.testing.assert_array_equal(_bits(res.spectrum.energies), _bits(w))
    assert [psi.level for psi in res.wavefunctions] == [0, 1, 2, 3]
    for psi, want in zip(res.wavefunctions, states):
        assert psi.normalized
        np.testing.assert_array_equal(_bits(psi.x), _bits(x))
        np.testing.assert_array_equal(_bits(psi.values), _bits(want))


@pytest.fixture
def solves(monkeypatch):
    """Counts of scipy tridiagonal solves without and with eigenvectors."""
    import scipy.linalg

    counts = {"energies": 0, "vectors": 0}
    real = scipy.linalg.eigh_tridiagonal

    def counting(*args, **kwargs):
        counts["energies" if kwargs.get("eigvals_only") else "vectors"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting)
    return counts


def test_spectrum_command_solves_no_eigenvectors(solves):
    code = run_command(["spectrum", "morse", "--oracle", "--json"], StringIO())
    assert code == 0
    assert solves == {"energies": 1, "vectors": 0}


def test_convergence_checks_solve_no_eigenvectors(solves):
    cfg = OracleConfig(box=(-10.0, 10.0), n_points=2000, n_levels=3, check_convergence=True)
    res = eigensolve(lambda x: x * x, cfg)
    assert res.converged is True
    convergence_factors(lambda x: x * x, cfg)
    assert solves == {"energies": 2 + 3, "vectors": 0}


def test_wavefunctions_are_solved_once_on_first_read(solves):
    res = eigensolve(lambda x: x * x, OracleConfig(box=(-10.0, 10.0), n_levels=2))
    assert solves["vectors"] == 0
    assert res.wavefunctions is res.wavefunctions
    assert solves == {"energies": 1, "vectors": 1}
