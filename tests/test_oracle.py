import numpy as np
import pytest

from shapeinv.catalog import get_family
from shapeinv.oracle import (
    OracleConfig,
    compare_spectra,
    convergence_factors,
    eigensolve,
)
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
