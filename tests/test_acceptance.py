"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest verdicts.  Tolerances are pinned here
and nowhere else.
"""

import time

import numpy as np
import pytest

from shapeinv import ansatz, multidim as md, oracle, spectral
from shapeinv.catalog import FAMILY_NAMES, DomainInterval, get_family
from shapeinv.cli import _si_grid
from shapeinv.sampling import make_grid
from shapeinv.verify import verify_generalized_si, verify_shape_invariance
from shapeinv.radial import (
    GeneralizedFactorization,
    generalized_partners,
    r_squared_weight,
    spherical_bessel_oracle,
)

from test_catalog_proofs import table_values


def _report(label, elapsed, budget, detail=""):
    print(f"ACCEPTANCE {label}: PASS in {elapsed:.2f}s (budget {budget:.0f}s) {detail}")


def test_criterion_1_catalog_si_certification():
    t0 = time.perf_counter()
    worst = 0.0
    for name in FAMILY_NAMES:
        fam = get_family(name)
        p = fam.reference_params
        rep = verify_shape_invariance(fam.W, fam.Wprime, p,
                                      fam.tau, make_grid(*_si_grid(fam, p, fam.tau(p)), 512),
                                      tolerance=1e-10)
        assert rep.passed, (name, rep.max_residual)
        worst = max(worst, rep.max_residual)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("1 (catalog SI, 10 families @ 1e-10)", elapsed, 1,
            f"worst residual {worst:.2e}")


def test_criterion_2_ansatz_reconstruction():
    t0 = time.perf_counter()
    worst = 0.0
    for name in FAMILY_NAMES:
        fam = get_family(name)
        p = fam.reference_params
        x = make_grid(*_si_grid(fam, p, fam.tau(p)), 512)
        W, _, _ = table_values(name, p, x)
        dev = float(np.max(np.abs(fam.recipe(p).W(x) - W)))
        assert dev < 1e-10, (name, dev)
        worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("2 (10 seed recipes match the CKS closed forms @ 1e-10)", elapsed, 1,
            f"worst match {worst:.2e}")


#: the ladder sums at the reference parameters, exact where the levels are integers
_GAPS = {"shifted-oscillator": [0.0, 2.0, 4.0, 6.0], "radial-oscillator": [0.0, 4.0, 8.0, 12.0],
         "morse": [0.0, 7.0, 12.0, 15.0]}


def test_criterion_3_spectrum_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for name in FAMILY_NAMES:
        fam = get_family(name)
        p = fam.reference_params
        alg = spectral.algebraic_spectrum(fam, p, 4)
        if name in _GAPS:
            assert alg.energies == _GAPS[name]
        cfg = oracle.OracleConfig(n_levels=len(alg.energies))
        res = oracle.solve(lambda x: fam.W(p, x) ** 2 - fam.Wprime(p, x), fam.domain(p), cfg)
        cmp = oracle.compare_spectra(alg, res.spectrum, tolerance=1e-3)
        assert cmp.passed, (name, cmp.deviations)
        worst = max(worst, max(cmp.deviations))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("3 (algebraic vs oracle gaps, 10 families @ 1e-3)", elapsed, 10,
            f"worst gap deviation {worst:.2e}")


def test_criterion_4_intertwining_ladder():
    t0 = time.perf_counter()
    # annihilation for every family
    worst_ann = 0.0
    for name in FAMILY_NAMES:
        fam = get_family(name)
        p = fam.reference_params
        g = make_grid(*_si_grid(fam, p, fam.tau(p)), 4096)
        psi0 = spectral.ground_state(lambda x: fam.W(p, x), g)
        ratio = spectral.apply_A(lambda x: fam.W(p, x), psi0).norm() / psi0.norm()
        assert ratio < 1e-5, (name, ratio)
        worst_ann = max(worst_ann, ratio)
    # node counts and oracle overlaps for the oscillator and Morse ladders
    worst_overlap = 1.0
    for name, levels in (("shifted-oscillator", 4), ("morse", 4)):
        fam = get_family(name)
        p = fam.reference_params
        cfg = oracle.OracleConfig(n_levels=levels)
        res = oracle.solve(lambda x: fam.W(p, x) ** 2 - fam.Wprime(p, x), fam.domain(p), cfg)
        wfs = spectral.ladder_wavefunctions(fam, p, levels, res.wavefunctions[0].x)
        for n, w in enumerate(wfs):
            assert w.nodes() == n, (name, n, w.nodes())
            overlap = abs(w.inner(res.wavefunctions[n]))
            assert overlap > 0.9999, (name, n, overlap)
            worst_overlap = min(worst_overlap, overlap)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("4 (annihilation, nodes, overlaps > 0.9999)", elapsed, 10,
            f"worst annihilation {worst_ann:.2e}, worst overlap {worst_overlap:.6f}")


def test_criterion_5_axisymmetric_construction():
    t0 = time.perf_counter()
    chi = md.laplace_seed([(0, 2.0, 0.0), (1, 1.0, 0.0)])
    grid = md.make_grid2d(md.DEFAULT_REGION, 128, 128)
    _, _, rep, helm = md.partner_fields(chi, 2.0, grid, mu=1.0)
    # max |(nabla^2 chi)/chi + K|, the Helmholtz and Riccati residual in one
    assert helm.max_residual < 1e-10
    assert helm.passed and rep.passed
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report("5 (harmonic seed: Helmholtz/Riccati/unit-step SI)", elapsed, 5,
            f"riccati {helm.max_residual:.2e}, SI residual {rep.max_residual:.2e}")


def test_criterion_6_radial_factorization():
    t0 = time.perf_counter()
    # product scheme reproduces the centrifugal partner pair exactly
    ell = 3
    fac = GeneralizedFactorization(
        Q=lambda r: (ell + 1.0) / np.asarray(r, float),
        Qprime=lambda r: -(ell + 1.0) / np.asarray(r, float) ** 2,
        weight=r_squared_weight(), scheme="product-CB")
    g = make_grid(0.5, 10, 512)
    vm, vp = generalized_partners(fac, g)
    assert np.max(np.abs(vm - ell * (ell + 1) / g**2)) < 1e-12
    assert np.max(np.abs(vp - ell * (ell - 1) / g**2)) < 1e-12
    # lowering identity with an independent (differenced) derivative
    h = 1e-5
    worst = 0.0
    for l in range(1, 6):
        for r in (0.5, 1.0, 2.0, 5.0, 10.0):
            jp = (spherical_bessel_oracle(l, r + h)[0]
                  - spherical_bessel_oracle(l, r - h)[0]) / (2 * h)
            jl = spherical_bessel_oracle(l, r)[0]
            jm1 = spherical_bessel_oracle(l - 1, r)[0]
            res = abs(jp + (l + 1) / r * jl - jm1)
            assert res < 1e-8, (l, r, res)
            worst = max(worst, res)
    # regular/irregular Wronskian
    for l in range(1, 6):
        for r in (0.5, 1.0, 2.0, 5.0, 10.0):
            j, n = spherical_bessel_oracle(l, r)
            jm1, nm1 = spherical_bessel_oracle(l - 1, r)
            jp = jm1 - (l + 1) / r * j
            np_ = nm1 - (l + 1) / r * n
            assert abs(j * np_ - jp * n - 1.0 / r**2) < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("6 (centrifugal partners, recurrence, Wronskian)", elapsed, 1,
            f"worst recurrence residual {worst:.2e}")


def test_criterion_7_oracle_calibration_gate():
    t0 = time.perf_counter()
    cfg = oracle.OracleConfig(n_levels=4)
    box = DomainInterval(0.0, np.pi, (0.0, np.pi))
    res = oracle.solve(lambda x: np.zeros_like(x), box, cfg)
    exact = np.array([1.0, 4.0, 9.0, 16.0])
    rel_box = np.max(np.abs(np.asarray(res.spectrum.energies) - exact) / exact)
    assert rel_box < 1e-10
    # the 65- and 129-point solves agree
    assert np.all(res.estimate < 1e-9)
    est = res.estimate.max()

    line = DomainInterval(-np.inf, np.inf, (-10.0, 10.0))
    res = oracle.solve(lambda x: x * x, line, cfg)
    exact = np.array([1.0, 3.0, 5.0, 7.0])
    rel_quad = np.max(np.abs(np.asarray(res.spectrum.energies) - exact) / exact)
    assert rel_quad < 1e-10
    assert np.all(res.estimate < 1e-9)
    est = max(est, res.estimate.max())
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("7 (oracle calibration @ 1e-10, 65 vs 129 points @ 1e-9)", elapsed, 1,
            f"rel errors {rel_box:.2e}/{rel_quad:.2e}, estimate {est:.2e}")


def test_criterion_8_generalized_si_residual():
    t0 = time.perf_counter()
    V0 = lambda xi: 2.0 / np.asarray(xi, float) ** 2
    u0 = np.sin(0.5) / 0.5 - np.cos(0.5)
    up0 = np.cos(0.5) / 0.5 - np.sin(0.5) / 0.25 + np.sin(0.5)
    seed = ansatz.integrate_seed(V0, 1.0, (0.5, 3.5), u0, up0)
    cons = ansatz.construct_generalized(V0, 1.0, seed, alpha=1.0, lam=2.0)
    rep = verify_generalized_si(cons.W_at, cons.Wprime_at, cons.lam, cons.tau,
                                cons.si_offset_field(), make_grid(0.6, 3.4, 512),
                                tolerance=1e-6)
    assert rep.passed
    assert rep.estimated_constant == pytest.approx(-3.0, abs=1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    _report("8 (generalized SI with 2/xi^2 @ 1e-6)", elapsed, 2,
            f"residual {rep.max_residual:.2e}")
