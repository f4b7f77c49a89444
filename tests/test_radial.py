import math
from io import StringIO

import numpy as np
import pytest

from shapeinv import radial
from shapeinv.catalog import get_family
from shapeinv.cli import EXIT_PASS, run_command
from shapeinv.radial import (
    GeneralizedFactorization,
    generalized_partners,
    generalized_qhj_residual,
    intertwine_to_csv,
    r_squared_weight,
    radial_intertwine,
    spherical_bessel_oracle,
    spherical_bessel_table,
    unit_weight,
)
from shapeinv.sampling import derivative, make_grid, second_derivative
from shapeinv.spectral import Wavefunction

# closed forms evaluated in 40-digit arithmetic, frozen
J1_AT_1 = 0.30116867893975678925
J5_AT_01 = 9.6163102329164460441e-10
J5_AT_1 = 9.2561158611258163567e-05
J3_AT_2 = 0.060722097662874828461
J2_AT_5 = 0.13473121008512521879
N1_AT_1 = -1.3817732906760362241
N5_AT_2 = -18.591445311190985562


def centrifugal_factorization(ell, scheme):
    return GeneralizedFactorization(
        Q=lambda r: (ell + 1.0) / np.asarray(r, float),
        Qprime=lambda r: -(ell + 1.0) / np.asarray(r, float) ** 2,
        weight=r_squared_weight(),
        scheme=scheme,
    )


def test_weight_spot_checks():
    assert r_squared_weight().spot_check(0.5, 10.0) < 1e-6
    assert unit_weight().spot_check(-5.0, 5.0) < 1e-12


def test_qhj_residual_centrifugal():
    ell = 2
    fac = centrifugal_factorization(ell, "weighted")
    g = make_grid(0.5, 10, 512)
    res = generalized_qhj_residual(fac, lambda r: ell * (ell + 1) / r**2, 0.0, g)
    assert res < 1e-12


def test_qhj_residual_reduces_to_plain_for_unit_weight():
    fam = get_family("morse")
    p = fam.reference_params
    fac = GeneralizedFactorization(
        Q=lambda x: fam.W(p, x), Qprime=lambda x: fam.Wprime(p, x),
        weight=unit_weight(), scheme="weighted")
    g = make_grid(-3, 10, 512)
    res = generalized_qhj_residual(
        fac, lambda x: fam.W(p, x) ** 2 - fam.Wprime(p, x), 0.0, g)
    assert res < 1e-12


def test_qhj_residual_zero_solution():
    fac = GeneralizedFactorization(
        Q=lambda r: np.zeros_like(np.asarray(r, float)),
        Qprime=lambda r: np.zeros_like(np.asarray(r, float)),
        weight=r_squared_weight(), scheme="weighted")
    g = make_grid(0.5, 5, 256)
    assert generalized_qhj_residual(fac, lambda r: np.zeros_like(r), 0.0, g) == 0.0


def test_product_scheme_partner_pair():
    ell = 2
    fac = centrifugal_factorization(ell, "product-CB")
    g = make_grid(0.5, 10, 512)
    vm, vp = generalized_partners(fac, g)
    assert np.max(np.abs(vm - ell * (ell + 1) / g**2)) < 1e-12
    assert np.max(np.abs(vp - ell * (ell - 1) / g**2)) < 1e-12


def test_weighted_scheme_partner_pair():
    ell = 2
    fac = centrifugal_factorization(ell, "weighted")
    g = make_grid(0.5, 10, 512)
    vm, vp = generalized_partners(fac, g)
    assert np.max(np.abs(vm - ell * (ell + 1) / g**2)) < 1e-12
    assert np.max(np.abs(vp - (ell + 1) * (ell + 2) / g**2)) < 1e-12


@pytest.mark.parametrize("scheme", ["weighted", "product-CB"])
def test_unit_weight_reduces_to_catalog_partners(scheme):
    fam = get_family("scarf-II-hyperbolic")
    p = fam.reference_params
    fac = GeneralizedFactorization(
        Q=lambda x: fam.W(p, x), Qprime=lambda x: fam.Wprime(p, x),
        weight=unit_weight(), scheme=scheme)
    g = make_grid(-6, 6, 512)
    vm, vp = generalized_partners(fac, g)
    w, wp = fam.W(p, g), fam.Wprime(p, g)
    assert np.max(np.abs(vm - (w * w - wp))) < 1e-12
    assert np.max(np.abs(vp - (w * w + wp))) < 1e-12


def test_product_scheme_reproduces_radial_operator():
    # expanding C(B psi) must equal -psi'' - (2/r) psi' + l(l+1)/r^2 psi
    ell = 2
    g = make_grid(0.5, 15, 4096)
    h = g[1] - g[0]
    for psi in (np.sin(g) / g, np.exp(-((g - 5.0) ** 2) / 2)):
        b = derivative(psi, h) + (ell + 1) / g * psi
        cb = -derivative(b, h) - 2.0 / g * b + (ell + 1) / g * b
        href = -second_derivative(psi, h) - 2.0 / g * derivative(psi, h) \
            + ell * (ell + 1) / g**2 * psi
        assert np.max(np.abs(cb - href)[4:-4]) < 1e-6


def test_intertwine_lowers_regular_solution():
    r = make_grid(0.5, 20, 4096)
    j1 = spherical_bessel_oracle(1, r)[0]
    lowered = radial_intertwine(1, Wavefunction(x=r, values=j1, level=1))
    j0 = np.sin(r) / r
    assert np.max(np.abs(lowered.values - j0)) / np.max(np.abs(j0)) < 1e-6


def test_intertwine_lowers_irregular_solution():
    r = make_grid(0.5, 20, 4096)
    n1 = spherical_bessel_oracle(1, r)[1]
    lowered = radial_intertwine(1, Wavefunction(x=r, values=n1, level=1))
    n0 = -np.cos(r) / r
    dev = np.abs(lowered.values - n0) / np.max(np.abs(n0))
    assert np.max(dev[2:-2]) < 1e-5


def test_intertwine_kernel():
    ell = 3
    r = make_grid(0.5, 20, 4096)
    psi = Wavefunction(x=r, values=r ** -(ell + 1.0), level=0)
    out = radial_intertwine(ell, psi).values
    assert np.max(np.abs(out[2:-2])) / np.max(np.abs(psi.values)) < 1e-5


def test_intertwine_guards():
    r = make_grid(0.5, 5, 128)
    with pytest.raises(ValueError):
        radial_intertwine(0, Wavefunction(x=r, values=np.ones_like(r)))
    bad = np.linspace(0.0, 5, 128)
    with pytest.raises(ValueError):
        radial_intertwine(1, Wavefunction(x=bad, values=np.ones_like(bad)))


def test_bessel_oracle_frozen_values():
    assert spherical_bessel_oracle(1, 1.0)[0] == pytest.approx(J1_AT_1, rel=1e-12)
    assert spherical_bessel_oracle(5, 0.1)[0] == pytest.approx(J5_AT_01, rel=1e-8)
    assert spherical_bessel_oracle(5, 1.0)[0] == pytest.approx(J5_AT_1, rel=1e-10)
    assert spherical_bessel_oracle(3, 2.0)[0] == pytest.approx(J3_AT_2, rel=1e-12)
    assert spherical_bessel_oracle(2, 5.0)[0] == pytest.approx(J2_AT_5, rel=1e-12)
    assert spherical_bessel_oracle(1, 1.0)[1] == pytest.approx(N1_AT_1, rel=1e-12)
    assert spherical_bessel_oracle(5, 2.0)[1] == pytest.approx(N5_AT_2, rel=1e-12)


def test_bessel_small_r_series():
    # j_l(r) ~ r^l / (2l+1)!! for small arguments
    for ell, dfact in ((2, 15.0), (4, 945.0)):
        r = 1e-3
        assert spherical_bessel_oracle(ell, r)[0] == pytest.approx(r**ell / dfact, rel=1e-5)


def test_bessel_zero_of_sine():
    assert abs(spherical_bessel_oracle(0, np.pi)[0]) < 1e-15


def test_bessel_oracle_guards():
    with pytest.raises(ValueError):
        spherical_bessel_oracle(1, 0.0)
    with pytest.raises(ValueError):
        spherical_bessel_oracle(26, 1.0)
    with pytest.raises(ValueError):
        spherical_bessel_oracle(-1, 1.0)


def test_wronskian_identity():
    # j_l n_l' - j_l' n_l = 1/r^2 with recurrence derivatives
    for ell in range(1, 6):
        for r in (0.5, 1.0, 2.0, 5.0, 10.0):
            j, n = spherical_bessel_table(ell + 1, r)
            jp = j[ell - 1] - (ell + 1) / r * j[ell]
            np_ = n[ell - 1] - (ell + 1) / r * n[ell]
            w = j[ell] * np_ - jp * n[ell]
            assert abs(w - 1.0 / r**2) < 1e-8, (ell, r)


def test_lowering_identity_independent_derivative():
    # j_l' + ((l+1)/r) j_l = j_{l-1} with j_l' by central differences,
    # sharing nothing with the recurrence used to build the table
    h = 1e-5
    for ell in range(1, 6):
        for r in (0.5, 1.0, 2.0, 5.0, 10.0):
            jp = (spherical_bessel_oracle(ell, r + h)[0]
                  - spherical_bessel_oracle(ell, r - h)[0]) / (2 * h)
            jl = spherical_bessel_oracle(ell, r)[0]
            jm1 = spherical_bessel_oracle(ell - 1, r)[0]
            assert abs(jp + (ell + 1) / r * jl - jm1) < 1e-8, (ell, r)


@pytest.mark.parametrize("k", [1.0, 2.0])
def test_radial_eigen_residual(k):
    # (-d^2/dr^2 - (2/r) d/dr + l(l+1)/r^2) j_l(kr) = k^2 j_l(kr)
    r = make_grid(0.5, 20, 4096)
    h = r[1] - r[0]
    for ell in (1, 2, 3):
        jl = spherical_bessel_oracle(ell, k * r)[0]
        res = (-second_derivative(jl, h) - 2.0 / r * derivative(jl, h)
               + ell * (ell + 1) / r**2 * jl - k * k * jl)
        assert np.max(np.abs(res[2:-2])) < 1e-6, (ell, k)


def test_csv_export(tmp_path):
    r = make_grid(0.5, 5, 64)
    path = tmp_path / "intertwine.csv"
    intertwine_to_csv(path, r, np.ones_like(r), np.zeros_like(r), np.zeros_like(r))
    lines = path.read_text().splitlines()
    assert lines[0] == "r,psi,Bpsi,reference"
    assert len(lines) == 65


def _reference_miller_down(ell_max, r, margin, renormalized):
    start = ell_max + margin + math.ceil(r)
    jj = np.zeros(start + 2)
    jj[start + 1] = 0.0
    jj[start] = 1e-30
    for l in range(start, 0, -1):
        jj[l - 1] = (2 * l + 1) / r * jj[l] - jj[l + 1]
        if abs(jj[l - 1]) > 1e250:
            renormalized.add(r)
            jj[: start + 2] /= jj[l - 1]
    j0e = math.sin(r) / r
    j1e = math.sin(r) / r**2 - math.cos(r) / r
    scale = j0e / jj[0] if abs(j0e) >= abs(j1e) else j1e / jj[1]
    return jj[: ell_max + 1] * scale


def _reference_table(ell_max, r, renormalized, doubled):
    """The Miller table for one point at a time, which the array sweep must
    reproduce bit for bit; notes the r values that renormalized mid-run or
    needed a margin above 16."""
    j0e = math.sin(r) / r
    j1e = math.sin(r) / r**2 - math.cos(r) / r
    tol = 1e-14 * max(abs(j0e), abs(j1e))
    check = 1 if abs(j0e) >= abs(j1e) else 0
    exact = (j0e, j1e)
    margin = 16
    while True:
        j = _reference_miller_down(max(ell_max, 1), r, margin, renormalized)
        if abs(j[check] - exact[check]) <= tol or margin >= 256:
            break
        margin *= 2
        doubled.add(r)
    n = np.zeros(ell_max + 1)
    n[0] = -math.cos(r) / r
    if ell_max >= 1:
        n[1] = -math.cos(r) / r**2 - math.sin(r) / r
        for l in range(1, ell_max):
            n[l + 1] = (2 * l + 1) / r * n[l] - n[l - 1]
    return j[: ell_max + 1], n


def _assert_same_bits(ell_max, r, renormalized, doubled):
    j, n = spherical_bessel_table(ell_max, r)
    for i, rv in enumerate(r.tolist()):
        jr, nr = _reference_table(ell_max, rv, renormalized, doubled)
        assert j[:, i].tobytes() == jr.tobytes(), (ell_max, rv)
        assert n[:, i].tobytes() == nr.tobytes(), (ell_max, rv)


PROBES = (1e-6, 1e-4, 0.01, np.pi, 2 * np.pi, 50.0, 99.5, 300.0)


def test_array_table_matches_point_by_point_recurrence():
    grid = make_grid(0.5, 20, 8192)
    # every 32nd grid point, the points where libm's r**2 and r*r round
    # apart, and the probes
    sample = np.concatenate([grid[::32], [x for x in grid if x * x != x**2], PROBES])
    renormalized, doubled = set(), set()
    for ell in range(26):
        _assert_same_bits(ell, sample, renormalized, doubled)
    assert 1e-6 in renormalized
    assert {1e-6, 50.0, 99.5, 300.0} <= doubled
    _assert_same_bits(13, grid, set(), set())
    for rv in PROBES:
        j, n = spherical_bessel_table(25, rv)
        jr, nr = _reference_table(25, rv, set(), set())
        assert j.tobytes() == jr.tobytes() and n.tobytes() == nr.tobytes()
        assert spherical_bessel_oracle(25, rv) == (float(jr[25]), float(nr[25]))


def test_table_shapes():
    j, n = spherical_bessel_table(4, np.full((2, 3), 1.5))
    assert j.shape == n.shape == (5, 2, 3)
    j, n = spherical_bessel_table(4, 1.5)
    assert j.shape == n.shape == (5,)
    jl, nl = spherical_bessel_oracle(4, 1.5)
    assert type(jl) is float and type(nl) is float
    assert spherical_bessel_oracle(4, make_grid(0.5, 2, 7))[0].shape == (7,)


@pytest.mark.parametrize("ell, n", [(3, 512), (13, 8192)])
def test_sip_radial_builds_at_most_twelve_tables(ell, n, tmp_path, monkeypatch):
    calls = []
    table = radial.spherical_bessel_table

    def counted(ell_max, r):
        calls.append(ell_max)
        return table(ell_max, r)

    monkeypatch.setattr(radial, "spherical_bessel_table", counted)
    argv = ["radial", "--ell", str(ell), "--check-bessel", "--grid", f"0.5:20:{n}",
            "--out", str(tmp_path)]
    assert run_command(argv, StringIO()) == EXIT_PASS
    assert 1 <= len(calls) <= 12
