import json
import os
import subprocess
import sys
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from shapeinv import oracle
from shapeinv.catalog import FAMILY_NAMES, get_family
from shapeinv.cli import run_command
from shapeinv.oracle import (
    OracleConfig,
    compare_spectra,
    convergence_factors,
    eigensolve,
)
from shapeinv.sampling import NonFiniteValues, fix_sign, normalize
from shapeinv.spectral import Spectrum, algebraic_spectrum


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(box=(0, np.inf))
    with pytest.raises(ValueError):
        OracleConfig(box=(0, 1), n_points=100)
    with pytest.raises(ValueError):
        OracleConfig(box=(0, 1), n_levels=0)
    with pytest.raises(ValueError, match=r"n_levels \(501\) must be <= n_points \(500\)"):
        OracleConfig(box=(0, 1), n_points=500, n_levels=501)
    assert OracleConfig(box=(0, 1), n_points=500, n_levels=500).n_levels == 500


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
    cmp = compare_spectra(alg, res.spectrum, tolerance=1e-3)
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
    pole = np.linspace(-1.0, 1.0, 503)[1:-1][250]  # the middle interior point
    with pytest.raises(NonFiniteValues, match="values of V") as err:
        eigensolve(lambda x: 1.0 / (x - x[x.size // 2]), cfg)
    assert err.value.locations == (pole,)


def test_compare_spectra_modes():
    a = Spectrum(energies=[0.0, 2.0, 4.0], provenance="algebraic")
    b = Spectrum(energies=[5.0, 7.0, 9.0], provenance="oracle")
    assert compare_spectra(a, b).passed


def test_compare_spectra_truncation_flag():
    a = Spectrum(energies=[0.0, 2.0, 4.0, 6.0], provenance="algebraic")
    b = Spectrum(energies=[0.0, 2.0], provenance="oracle")
    cmp = compare_spectra(a, b)
    assert cmp.truncated and len(cmp.deviations) == 2


def _reference_solve(V, cfg):
    """The oracle's grid, energies and eigenpairs from scipy's eigh_tridiagonal.

    The energies come from an energies-only solve; the eigenpairs from one
    vector solve, normalized and sign-fixed.
    """
    from scipy.linalg import eigh_tridiagonal

    x = np.linspace(*cfg.box, cfg.n_points + 2)[1:-1]
    h = x[1] - x[0]
    diag = 2.0 / h**2 + np.asarray(V(x), dtype=float)
    off = np.full(cfg.n_points - 1, -1.0 / h**2)
    select = dict(select="i", select_range=(0, cfg.n_levels - 1))
    e = eigh_tridiagonal(diag, off, eigvals_only=True, **select)
    w, v = eigh_tridiagonal(diag, off, **select)
    return x, e, w, [fix_sign(normalize(v[:, n], x)) for n in range(cfg.n_levels)]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("n_points", [500, 2000, 8000])
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_energies_and_states_match_one_vector_solve(name, n_points):
    fam = get_family(name)
    p = fam.reference_params
    V = lambda x: fam.W(p, x) ** 2 - fam.Wprime(p, x)
    for n_levels in range(1, 7):
        cfg = OracleConfig(box=fam.domain(p).oracle_box, n_points=n_points, n_levels=n_levels)
        res = eigensolve(V, cfg)
        x, e, w, states = _reference_solve(V, cfg)
        np.testing.assert_array_equal(_bits(res.spectrum.energies), _bits(e))
        np.testing.assert_array_equal(_bits(res.spectrum.energies), _bits(w))
        assert [psi.level for psi in res.wavefunctions] == list(range(n_levels))
        for psi, want in zip(res.wavefunctions, states):
            np.testing.assert_array_equal(_bits(psi.x), _bits(x))
            np.testing.assert_array_equal(_bits(psi.values), _bits(want))


_ORACLE_THEN_SCIPY = """
import json, sys
import numpy as np
from shapeinv.catalog import get_family
from shapeinv.oracle import OracleConfig, eigensolve
from shapeinv.sampling import fix_sign, normalize
fam = get_family("morse")
p = fam.reference_params
V = lambda x: fam.W(p, x) ** 2 - fam.Wprime(p, x)
cfg = OracleConfig(box=fam.domain(p).oracle_box, n_points=2000, n_levels=4)
res = eigensolve(V, cfg)
states = [psi.values for psi in res.wavefunctions]
before = "scipy.linalg" in sys.modules
from scipy.linalg import eigh_tridiagonal
x = np.linspace(*cfg.box, cfg.n_points + 2)[1:-1]
h = x[1] - x[0]
diag = 2.0 / h**2 + V(x)
off = np.full(cfg.n_points - 1, -1.0 / h**2)
w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, 3))
again = eigensolve(V, cfg)
print(json.dumps({
    "linalg_before": before,
    "energies": np.array_equal(np.asarray(res.spectrum.energies).view(np.int64), w.view(np.int64)),
    "again": np.array_equal(np.asarray(again.spectrum.energies).view(np.int64), w.view(np.int64)),
    "vectors": all(np.array_equal(s.view(np.int64), fix_sign(normalize(v[:, n], x)).view(np.int64))
                   for n, s in enumerate(states)),
}))
"""


def _fresh_run(script, tmp_path):
    """The JSON that script prints, run in a fresh interpreter on this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120, check=True)
    return json.loads(proc.stdout)


def test_oracle_then_scipy_linalg_in_one_process_agree(tmp_path):
    # the oracle loads scipy's LAPACK wrappers before the linalg package;
    # importing the package afterwards reuses them and gets the same bits
    assert _fresh_run(_ORACLE_THEN_SCIPY, tmp_path) == {
        "linalg_before": False, "energies": True, "again": True, "vectors": True}


_CONCURRENT_LOADS = """
import importlib.util, json, sys, threading, time
from shapeinv import oracle
module_from_spec = importlib.util.module_from_spec
def slow_module_from_spec(spec):
    time.sleep(0.05)  # widens the window between finding and registering
    return module_from_spec(spec)
importlib.util.module_from_spec = slow_module_from_spec
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(8)
loaded = []
def load():
    barrier.wait()
    loaded.append(oracle._lapack())
threads = [threading.Thread(target=load) for _ in range(8)]
try:
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
finally:
    sys.setswitchinterval(interval)
print(json.dumps({"alive": sum(t.is_alive() for t in threads), "loads": len(loaded),
                  "modules": len({id(m) for m in loaded}),
                  "registered": sys.modules["scipy.linalg._flapack"] is loaded[0]}))
"""


def test_concurrent_first_solves_load_lapack_once(tmp_path):
    # sip --batch runs its jobs one after another, but a library caller may
    # solve on threads, and then the first oracle solves can race to load
    assert _fresh_run(_CONCURRENT_LOADS, tmp_path) == {
        "alive": 0, "loads": 8, "modules": 1, "registered": True}


@pytest.fixture
def solves(monkeypatch):
    """Counts of LAPACK tridiagonal solves without and with eigenvectors.

    An energies-only solve is one sorted bisection (dstebz, order "E"); a
    vector solve is a block-ordered bisection followed by dstein.
    """
    lapack = oracle._lapack()
    counts = {"energies": 0, "vectors": 0}
    stebz, stein = lapack.dstebz, lapack.dstein

    def counting_stebz(*args):
        counts["energies"] += args[-1] == "E"
        return stebz(*args)

    def counting_stein(*args):
        counts["vectors"] += 1
        return stein(*args)

    monkeypatch.setattr(lapack, "dstebz", counting_stebz)
    monkeypatch.setattr(lapack, "dstein", counting_stein)
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
