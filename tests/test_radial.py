import math
import tracemalloc
from io import StringIO

import numpy as np
import pytest

from shapeinv import radial
from shapeinv.catalog import get_family
from shapeinv.cli import EXIT_PASS, run_command
from shapeinv.radial import (
    GeneralizedFactorization,
    MeasureWeight,
    generalized_partners,
    generalized_qhj_residual,
    intertwine_to_csv,
    r_squared_weight,
    radial_intertwine,
    spherical_bessel_j,
    spherical_bessel_oracle,
)
from shapeinv.sampling import NonFiniteValues, derivative, make_grid, second_derivative

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
        weight=MeasureWeight(np.ones_like, np.zeros_like, np.zeros_like), scheme="weighted")
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


def test_qhj_residual_names_a_pole_on_the_grid():
    # Q = 1/x and V = 2/x^2 with the unit weight: the residual is 0 except at x = 0
    fac = GeneralizedFactorization(
        Q=lambda x: 1.0 / x, Qprime=lambda x: -1.0 / x**2,
        weight=MeasureWeight(np.ones_like, np.zeros_like, np.zeros_like))
    g = make_grid(-1, 1, 129)
    with pytest.raises(NonFiniteValues) as err:
        generalized_qhj_residual(fac, lambda x: 2.0 / x**2, 0.0, g)
    assert err.value.locations == (0.0,)


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
        weight=MeasureWeight(np.ones_like, np.zeros_like, np.zeros_like), scheme=scheme)
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
    lowered = radial_intertwine(1, r, j1)
    j0 = np.sin(r) / r
    assert np.max(np.abs(lowered - j0)) / np.max(np.abs(j0)) < 1e-6


def test_intertwine_lowers_irregular_solution():
    r = make_grid(0.5, 20, 4096)
    n1 = spherical_bessel_oracle(1, r)[1]
    lowered = radial_intertwine(1, r, n1)
    n0 = -np.cos(r) / r
    dev = np.abs(lowered - n0) / np.max(np.abs(n0))
    assert np.max(dev[2:-2]) < 1e-5


def test_intertwine_kernel():
    ell = 3
    r = make_grid(0.5, 20, 4096)
    psi = r ** -(ell + 1.0)
    out = radial_intertwine(ell, r, psi)
    assert np.max(np.abs(out[2:-2])) / np.max(np.abs(psi)) < 1e-5


def test_intertwine_guards():
    r = make_grid(0.5, 5, 128)
    with pytest.raises(ValueError):
        radial_intertwine(0, r, np.ones_like(r))
    bad = np.linspace(0.0, 5, 128)
    with pytest.raises(ValueError):
        radial_intertwine(1, bad, np.ones_like(bad))


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
            j, n = spherical_bessel_oracle(ell, r)
            jm1, nm1 = spherical_bessel_oracle(ell - 1, r)
            jp = jm1 - (ell + 1) / r * j
            np_ = nm1 - (ell + 1) / r * n
            w = j * np_ - jp * n
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
    """The Miller table for one point at a time, whose row ell_max the
    array sweep must reproduce bit for bit; notes the r values that
    renormalized mid-run or needed a margin above 16."""
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


def _assert_same_bits(ell, r, renormalized, doubled):
    j, n = spherical_bessel_oracle(ell, r)
    (j_only,) = spherical_bessel_j([ell], r)
    for i, rv in enumerate(r.tolist()):
        jr, nr = _reference_table(ell, rv, renormalized, doubled)
        assert j[i].tobytes() == j_only[i].tobytes() == jr[ell].tobytes(), (ell, rv)
        assert n[i].tobytes() == nr[ell].tobytes(), (ell, rv)


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
        jr, nr = _reference_table(25, rv, set(), set())
        assert spherical_bessel_oracle(25, rv) == (float(jr[25]), float(nr[25]))
        assert spherical_bessel_j([25], rv).tobytes() == jr[25:].tobytes()


def test_table_shapes():
    for ell in (0, 1, 4):
        j, n = spherical_bessel_oracle(ell, np.full((2, 3), 1.5))
        assert j.shape == n.shape == (2, 3)
        jl, nl = spherical_bessel_oracle(ell, 1.5)
        assert type(jl) is float and type(nl) is float
        assert spherical_bessel_oracle(ell, make_grid(0.5, 2, 7))[0].shape == (7,)


def test_table_matches_mpmath_half_integer_bessel():
    # j_l(r) = sqrt(pi/(2r)) J_{l+1/2}(r), and n_l likewise with Y, in 40
    # digits.  Each error is relative to a scale with no zeros:
    # max(|j_l|, |j_{l+1}|) for j, whose zeros interlace, and
    # max(|n_l|, |j_l|) for n, the modulus where both oscillate.  The
    # recurrences are accepted at 1e-14 of the closed forms, and the
    # worst error found here is 2.4e-15.
    import mpmath  # installed with sympy, of the test extra

    g1, g2 = make_grid(0.5, 20, 8192), make_grid(0.01, 60, 2048)
    r = np.concatenate([g1[::512], g1[-1:], g2[::128], g2[-1:],
                        [1e-6, 1e-4, np.pi, 50.0, 300.0]])
    j, n = zip(*((j.tolist(), n.tolist()) for j, n in
                 (spherical_bessel_oracle(ell, r) for ell in range(26))))
    with mpmath.workdps(40):
        for i, x in enumerate(r.tolist()):
            half = mpmath.sqrt(mpmath.pi / (2 * mpmath.mpf(x)))
            jr = [half * mpmath.besselj(ell + 0.5, x) for ell in range(27)]
            nr = [half * mpmath.bessely(ell + 0.5, x) for ell in range(26)]
            for ell in range(26):
                j_scale = max(abs(jr[ell]), abs(jr[ell + 1]))
                n_scale = max(abs(nr[ell]), abs(jr[ell]))
                assert abs(j[ell][i] - jr[ell]) <= 1e-14 * j_scale, (ell, x)
                assert abs(n[ell][i] - nr[ell]) <= 1e-14 * n_scale, (ell, x)


@pytest.mark.parametrize("ell, n", [(3, 512), (13, 8192)])
def test_sip_radial_evaluates_closed_forms_once_per_point_set(ell, n, tmp_path, monkeypatch):
    # the 15 Bessel probes and the grid: libm's sin, cos and r**2 once on each
    sizes = []
    closed_forms = radial._closed_forms

    def counted(r):
        sizes.append(r.size)
        return closed_forms(r)

    monkeypatch.setattr(radial, "_closed_forms", counted)
    argv = ["radial", "--ell", str(ell), "--check-bessel", "--grid", f"0.5:20:{n}",
            "--out", str(tmp_path)]
    assert run_command(argv, StringIO()) == EXIT_PASS
    assert sizes == [15, n]


@pytest.mark.parametrize("r", [
    make_grid(0.5, 20, 8192),
    make_grid(0.01, 60, 2048),  # the radial-ell25 golden grid, where margins double
    np.float64(2.5),
    np.array([[1e-6, 0.01, np.pi], [50.0, 99.5, 300.0]]),
], ids=["grid-0.5-20", "grid-0.01-60", "scalar", "2d"])
def test_spherical_bessel_j_holds_the_bits_of_its_table(r):
    # many degrees in one sweep give each the bits of its own oracle sweep
    ells = [*range(25, -1, -2), *range(0, 26, 2), 13, 0, 25, 13]  # any order, with repeats
    j = spherical_bessel_j(ells, r)
    assert j.shape == (len(ells),) + np.shape(r)
    tables = {ell: np.asarray(spherical_bessel_oracle(ell, r)[0]) for ell in range(26)}
    for row, ell in zip(j, ells):
        assert row.shape == tables[ell].shape
        assert np.array_equal(row.view(np.int64), tables[ell].view(np.int64)), ell


def test_spherical_bessel_j_memory_follows_its_output():
    # one sweep for all 26 degrees keeps j_0, j_1 and each column's own
    # row, not every row up to 25 (which peaked at 36 outputs' worth)
    r = make_grid(0.5, 20, 8192)
    tracemalloc.start()
    try:
        j = spherical_bessel_j(range(26), r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * j.nbytes


@pytest.mark.parametrize("ells, r, bad", [
    ([26], 1.0, 26), ([3, -1], 1.0, -1), ([2], 0.0, 2), ([2], [1.0, -1.0], 2), ([0], np.nan, 0)])
def test_spherical_bessel_j_guards(ells, r, bad):
    # what the oracle refuses, for the degree or the points that are out of range
    with pytest.raises(ValueError):
        spherical_bessel_oracle(bad, r)
    with pytest.raises(ValueError):
        spherical_bessel_j(ells, r)


def test_bessel_values_that_are_not_finite_are_refused():
    # r*r underflows to 0 at 1e-300, so j_1 = sin(r)/r^2 - cos(r)/r is inf there
    for call in (lambda r: spherical_bessel_j([3], r), lambda r: spherical_bessel_oracle(3, r)):
        with pytest.raises(NonFiniteValues, match="spherical Bessel values") as err:
            call([1e-300, 1.0])
        assert err.value.locations == (1e-300,)


@pytest.mark.parametrize("entry", [
    lambda ell: spherical_bessel_oracle(ell, 1.0)[0],
    lambda ell: float(spherical_bessel_j([ell], 1.0)[0]),
], ids=["oracle", "j"])
def test_bessel_degree_must_be_integral(entry):
    # an integral float or numpy integer is that degree; 2.5 is refused, not truncated
    j2 = entry(2)
    for ell in (np.int64(2), 2.0, np.float64(2.0)):
        assert entry(ell) == j2
    with pytest.raises(ValueError, match="2.5"):
        entry(2.5)
