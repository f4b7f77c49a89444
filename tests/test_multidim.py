from io import StringIO

import numpy as np
import pytest

from shapeinv import multidim as md
from shapeinv.cli import EXIT_PASS, run_command
from shapeinv.radial import GeneralizedFactorization, generalized_partners, r_squared_weight
from shapeinv.sampling import NonFiniteValues


@pytest.fixture(scope="module")
def grid():
    return md.make_grid2d(md.DEFAULT_REGION, 128, 128)


def test_region_validation():
    with pytest.raises(ValueError):
        md.Region(0.0, 1.0, 0.3, 2.8)  # touches the origin
    with pytest.raises(ValueError):
        md.Region(0.5, 1.5, 0.0, np.pi)  # touches the axis


def test_legendre_table_against_known_polynomials():
    x = np.linspace(-0.9, 0.9, 101)
    P, dP = md.legendre_table(3, x)
    assert np.allclose(P[2], 0.5 * (3 * x**2 - 1), atol=1e-14)
    assert np.allclose(P[3], 0.5 * (5 * x**3 - 3 * x), atol=1e-14)
    assert np.allclose(dP[2], 3 * x, atol=1e-12)
    assert np.allclose(dP[3], 0.5 * (15 * x**2 - 3), atol=1e-12)


def test_constant_seed(grid):
    chi = md.laplace_seed([(0, 1.0, 0.0)])
    R, TH = grid
    assert np.allclose(chi.evaluate(R, TH)[0], 1.0)
    assert np.max(np.abs(chi.evaluate(R, TH)[3])) < 1e-14
    vm, vp = md.partner_fields(chi, 2.0, grid)
    assert np.max(np.abs(vm)) == 0.0 and np.max(np.abs(vp)) == 0.0


def test_monopole_seed_fields(grid):
    # chi = 1/r: V_pm = lam(lam -+ 1)/r^2; V_plus vanishes at lam = 1
    chi = md.laplace_seed([(0, 0.0, 1.0)])
    R, TH = grid
    assert md.prepotential_riccati_residual(chi, grid) < 1e-10
    vm, vp = md.partner_fields(chi, 1.0, grid)
    assert np.max(np.abs(vp)) < 1e-13
    assert np.max(np.abs(vm - 2.0 / R**2)) < 1e-12


def test_worked_two_term_seed(grid):
    # chi = 2 + r cos(theta): harmonic with analytic derivatives
    chi = md.laplace_seed([(0, 2.0, 0.0), (1, 1.0, 0.0)])
    R, TH = grid
    val, d_r, d_theta, lap = chi.evaluate(R, TH)
    assert np.max(np.abs(val - (2 + R * np.cos(TH)))) < 1e-14
    assert np.max(np.abs(d_r - np.cos(TH))) < 1e-14
    assert np.max(np.abs(d_theta + R * np.sin(TH))) < 1e-14
    assert np.max(np.abs(lap)) < 1e-13
    assert md.prepotential_riccati_residual(chi, grid) < 1e-10


def test_derivatives_match_finite_differences(grid):
    chi = md.laplace_seed([(0, 2.0, 0.0), (1, 1.0, 0.0), (2, 0.3, 0.1)])
    r0, t0 = 0.9, 1.3
    h = 1e-5

    def value(r, t):
        return chi.evaluate(r, t)[0]

    _, d_r, d_theta, lap = chi.evaluate(r0, t0)
    dr_fd = (value(r0 + h, t0) - value(r0 - h, t0)) / (2 * h)
    dt_fd = (value(r0, t0 + h) - value(r0, t0 - h)) / (2 * h)
    assert dr_fd == pytest.approx(d_r, abs=1e-6)
    assert dt_fd == pytest.approx(d_theta, abs=1e-6)
    # spherical laplacian by finite differences of the value map; second
    # differences need a larger step or roundoff (eps/h^2) dominates
    h2 = 1e-4
    vrr = (value(r0 + h2, t0) - 2 * value(r0, t0) + value(r0 - h2, t0)) / h2**2
    vtt = (value(r0, t0 + h2) - 2 * value(r0, t0) + value(r0, t0 - h2)) / h2**2
    lap_fd = (vrr + 2 / r0 * dr_fd + (vtt + dt_fd / np.tan(t0)) / r0**2)
    assert lap_fd == pytest.approx(lap, abs=1e-6)


def test_non_harmonic_field_reports_order_one_residual(grid):
    bad = md.ScalarField2D(
        evaluate=lambda r, t: (
            np.asarray(r, float) + 0 * t,
            np.ones_like(np.asarray(r, float) + 0 * t),
            np.zeros_like(np.asarray(r, float) + 0 * t),
            2.0 / np.asarray(r, float) + 0 * t,
        ),
        region=md.DEFAULT_REGION,
        K=0.0,
    )
    assert md.prepotential_riccati_residual(bad, grid) > 0.5


def test_non_finite_difference_field_raises(grid):
    def evaluate(r, t):
        r = np.asarray(r, float) + 0 * t
        return np.ones_like(r), np.where(r > 1.4, np.nan, 0.0), np.zeros_like(r), np.zeros_like(r)

    chi = md.ScalarField2D(evaluate=evaluate, region=md.DEFAULT_REGION)
    with pytest.raises(NonFiniteValues) as exc:
        md.verify_3d_shape_invariance(chi, 2.0, 1.0, grid)
    rs, thetas = zip(*exc.value.locations)
    assert min(rs) > 1.4
    assert set(thetas) == set(grid[1][0].tolist())


def test_sip_3d_evaluates_the_seed_at_most_three_times(tmp_path, monkeypatch):
    calls = []
    field = md.ScalarField2D

    def counting_field(evaluate, **kwargs):
        def counted(r, theta):
            calls.append((r, theta))
            return evaluate(r, theta)
        return field(evaluate=counted, **kwargs)

    monkeypatch.setattr(md, "ScalarField2D", counting_field)
    argv = ["3d", "--seed", "a0=2,a1=1", "--lambda", "2", "--mu", "1",
            "--grid", "16x16", "--out", str(tmp_path)]
    assert run_command(argv, StringIO()) == EXIT_PASS
    assert 1 <= len(calls) <= 3


def test_seed_rejects_sign_changing_combination():
    with pytest.raises(ValueError):
        md.laplace_seed([(1, 1.0, 0.0)])  # r cos(theta) changes sign on the region


def test_seed_rejects_empty_terms():
    with pytest.raises(ValueError):
        md.laplace_seed([(0, 0.0, 0.0)])
    with pytest.raises(ValueError):
        md.laplace_seed([])


def test_3d_shape_invariance_unit_step(grid):
    chi = md.laplace_seed([(0, 2.0, 0.0), (1, 1.0, 0.0)])
    rep = md.verify_3d_shape_invariance(chi, 2.0, 1.0, grid)
    assert rep.passed
    assert rep.estimated_constant == pytest.approx(0.0, abs=1e-12)


def test_3d_shape_invariance_rejects_other_steps(grid):
    chi = md.laplace_seed([(0, 2.0, 0.0), (1, 1.0, 0.0)])
    assert not md.verify_3d_shape_invariance(chi, 2.0, 2.0, grid).passed
    assert not md.verify_3d_shape_invariance(chi, 2.0, 0.5, grid).passed


def test_degenerate_step_reports_laplacian_field(grid):
    # lam = mu leaves D = 2 lam nabla^2 F, constant only for constant |grad log chi|
    chi = md.laplace_seed([(0, 0.0, 1.0)])  # 1/r: nabla^2 F = -1/r^2, not constant
    rep = md.verify_3d_shape_invariance(chi, 1.5, 1.5, grid)
    assert not rep.passed


def test_multi_term_seed_certificate(grid):
    chi = md.laplace_seed([(0, 2.0, 0.0), (1, 1.0, 0.0), (2, 0.2, 0.05), (3, 0.0, 0.02)])
    assert md.prepotential_riccati_residual(chi, grid) < 1e-10
    for lam in (1.5, 2.0, 3.0):
        rep = md.verify_3d_shape_invariance(chi, lam, lam - 1.0, grid)
        assert rep.passed and abs(rep.estimated_constant) < 1e-10


def test_plane_wave_seed_carries_negative_K(grid):
    pw = md.plane_wave_seed(0.7)
    assert pw.K == pytest.approx(-0.49)
    assert md.prepotential_riccati_residual(pw, grid) < 1e-12
    rep = md.verify_3d_shape_invariance(pw, 2.0, 1.0, grid)
    assert rep.passed
    # Helmholtz seeds keep the unit-step ladder with constant -(lam+mu) K
    assert rep.estimated_constant == pytest.approx(-(2.0 + 1.0) * pw.K, abs=1e-10)


def test_axisymmetric_seed_matches_weighted_radial_scheme(grid):
    # theta-independent chi(r): the 3D fields reduce to the f = r^2
    # measure-weighted partners with Q = lam * d(log chi)/dr along any ray
    chi = md.laplace_seed([(0, 2.0, 1.0)])  # 2 + 1/r
    R, TH = grid
    lam = 2.0
    vm, vp = md.partner_fields(chi, lam, grid)
    r = R[:, 0]

    def Q(rr):
        rr = np.asarray(rr, float)
        return lam * (-1.0 / rr**2) / (2.0 + 1.0 / rr)

    def Qprime(rr):
        rr = np.asarray(rr, float)
        chi_v = 2.0 + 1.0 / rr
        return lam * (2.0 / rr**3 / chi_v - (1.0 / rr**4) / chi_v**2)

    fac = GeneralizedFactorization(Q=Q, Qprime=Qprime, weight=r_squared_weight(),
                                   scheme="weighted")
    wm, wp = generalized_partners(fac, r)
    for j in (0, 64, 127):  # any ray gives the same radial profile
        assert np.max(np.abs(vm[:, j] - wm)) < 1e-8
        assert np.max(np.abs(vp[:, j] - wp)) < 1e-8


def test_positivity_guard_on_evaluation_grid():
    chi = md.laplace_seed([(0, 2.0, 0.0), (1, 1.0, 0.0)],
                          region=md.Region(0.5, 1.5, 0.3, 2.8))
    wide = md.make_grid2d(md.Region(0.5, 10.0, 0.3, 2.8), 64, 64)
    with pytest.raises(ValueError):
        md.prepotential_riccati_residual(chi, wide)  # 2 + r cos(theta) < 0 out there


def test_csv_and_manifest_roundtrip(tmp_path, grid):
    chi = md.laplace_seed([(0, 2.0, 0.0), (1, 1.0, 0.0)])
    vm, vp = md.partner_fields(chi, 2.0, grid)
    path = tmp_path / "fields.csv"
    md.fields_to_csv(path, grid, vm, vp)
    lines = path.read_text().splitlines()
    assert lines[0] == "r,theta,Vminus,Vplus"
    assert len(lines) == 1 + 128 * 128
    manifest = md.seed_manifest(chi, 2.0)
    assert manifest["terms"] == [[0, 2.0, 0.0], [1, 1.0, 0.0]]
    assert manifest["K"] == 0.0
    assert manifest["region"]["r_lo"] == 0.5
