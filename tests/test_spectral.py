import tracemalloc

import numpy as np
import pytest

from shapeinv.catalog import FAMILY_NAMES, get_family
from shapeinv.sampling import derivative, fix_sign, make_grid, normalize, second_derivative
from shapeinv.spectral import (
    NonNormalizable,
    Spectrum,
    algebraic_spectrum,
    apply_A,
    apply_Adagger,
    ground_state,
    ladder_wavefunctions,
    wavefunctions_to_csv,
)


def test_spectrum_type_invariants():
    with pytest.raises(ValueError):
        Spectrum(energies=[0.0, 2.0, 1.0], provenance="algebraic")
    with pytest.raises(ValueError):
        Spectrum(energies=[1.0, 2.0], provenance="algebraic")
    Spectrum(energies=[1.0, 2.0], provenance="oracle")  # oracle offset is fine


def test_algebraic_spectrum_shifted_oscillator():
    fam = get_family("shifted-oscillator")
    s = algebraic_spectrum(fam, {"omega": 2.0, "b": 0.0}, 4)
    assert s.energies == [0.0, 2.0, 4.0, 6.0]
    assert not s.truncated
    assert len(s.level_params) == 4


def test_algebraic_spectrum_radial_oscillator():
    fam = get_family("radial-oscillator")
    s = algebraic_spectrum(fam, {"omega": 2.0, "ell": 0.0}, 3)
    assert s.energies == [0.0, 4.0, 8.0]
    assert [q["ell"] for q in s.level_params] == [0.0, 1.0, 2.0]


def test_algebraic_spectrum_morse_finite_ladder():
    fam = get_family("morse")
    s = algebraic_spectrum(fam, {"A": 4.0, "B": 4.0, "a": 1.0}, 4)
    assert s.energies == [0.0, 7.0, 12.0, 15.0]  # A^2 - (A - n)^2
    assert not s.truncated
    s10 = algebraic_spectrum(fam, {"A": 4.0, "B": 4.0, "a": 1.0}, 10)
    assert s10.energies == [0.0, 7.0, 12.0, 15.0]
    assert s10.truncated


def test_algebraic_spectrum_coulomb_rydberg_ladder():
    fam = get_family("coulomb")
    s = algebraic_spectrum(fam, {"e2": 2.0, "ell": 0.0}, 4)
    # cumulative sums give 1 - 1/(n+1)^2 for e2 = 2
    expected = [1 - 1.0 / (n + 1) ** 2 for n in range(4)]
    assert np.allclose(s.energies, expected, atol=1e-12)


def test_ground_state_gaussian():
    g = make_grid(-8, 8, 2048)
    psi = ground_state(lambda x: x, g)
    ref = np.exp(-g * g / 2.0)
    ref /= np.sqrt(np.trapezoid(ref**2, g))
    assert abs(psi.norm() - 1.0) < 1e-8
    assert np.max(np.abs(psi.values - ref)) < 1e-8


def test_ground_state_sech():
    g = make_grid(-12, 12, 4096)
    psi = ground_state(np.tanh, g)
    ref = 1.0 / np.cosh(g)
    ref /= np.sqrt(np.trapezoid(ref**2, g))
    assert np.max(np.abs(psi.values - ref)) < 1e-8


def test_ground_state_coulomb_type():
    # W = 1 - 1/r: psi ~ r e^{-r}, normalizable on the half line.
    # the inner wall must stay resolvable: quadrature across 1/r needs
    # h well below the distance to the singularity
    g = make_grid(0.05, 25, 4096)
    psi = ground_state(lambda r: 1.0 - 1.0 / r, g)
    ref = g * np.exp(-g)
    ref /= np.sqrt(np.trapezoid(ref**2, g))
    assert np.max(np.abs(psi.values - ref)) < 1e-7
    assert abs(psi.values[-1]) / np.abs(psi.values).max() < 1e-8  # outer tail


def test_ground_state_rejects_inverted_well():
    g = make_grid(-6, 6, 1024)
    with pytest.raises(NonNormalizable):
        ground_state(lambda x: -x, g)  # exp(+x^2/2) blows up at the walls


def test_annihilation_and_raising():
    g = make_grid(-8, 8, 4096)
    psi0 = ground_state(lambda x: x, g)
    down = apply_A(lambda x: x, psi0)
    assert down.norm() / psi0.norm() < 1e-6
    up = apply_Adagger(lambda x: x, psi0)
    ref = g * np.exp(-g * g / 2)
    overlap = abs(np.trapezoid(up.values * ref, g)) / (
        np.sqrt(np.trapezoid(up.values**2, g)) * np.sqrt(np.trapezoid(ref**2, g)))
    assert overlap > 1 - 1e-10


def test_annihilation_sech():
    g = make_grid(-12, 12, 4096)
    psi0 = ground_state(np.tanh, g)
    assert apply_A(np.tanh, psi0).norm() / psi0.norm() < 1e-6


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_annihilation_all_catalog_families(name):
    # the si interval doubles as the documented wavefunction window: its
    # inner wall keeps singular superpotentials resolvable by quadrature
    fam = get_family(name)
    p = fam.reference_params
    g = make_grid(*fam.domain(p).si_interval, 4096)
    psi0 = ground_state(lambda x: fam.W(p, x), g)
    ratio = apply_A(lambda x: fam.W(p, x), psi0).norm() / psi0.norm()
    assert ratio < 1e-5, (name, ratio)


def test_ladder_single_level_is_ground_state():
    fam = get_family("shifted-oscillator")
    g = make_grid(-8, 8, 2048)
    wfs = ladder_wavefunctions(fam, {"omega": 2.0, "b": 0.0}, 1, g)
    psi0 = ground_state(lambda x: fam.W({"omega": 2.0, "b": 0.0}, x), g)
    assert len(wfs) == 1
    assert np.max(np.abs(wfs[0].values - psi0.values)) < 1e-12


def test_ladder_node_counts_and_orthogonality():
    fam = get_family("shifted-oscillator")
    g = make_grid(-10, 10, 4096)
    wfs = ladder_wavefunctions(fam, {"omega": 2.0, "b": 0.0}, 4, g)
    assert [w.nodes() for w in wfs] == [0, 1, 2, 3]
    for m in range(4):
        for n in range(m):
            assert abs(wfs[m].inner(wfs[n])) < 1e-4


def test_ladder_morse_nodes():
    fam = get_family("morse")
    g = make_grid(-3, 10, 4096)
    wfs = ladder_wavefunctions(fam, {"A": 4.0, "B": 4.0, "a": 1.0}, 2, g)
    assert [w.nodes() for w in wfs] == [0, 1]
    for w in wfs:
        assert abs(w.norm() - 1.0) < 1e-8


@pytest.mark.parametrize("name,levels", [("shifted-oscillator", 4), ("morse", 4),
                                         ("radial-oscillator", 3)])
def test_ladder_eigen_residual(name, levels):
    # || -psi'' + V- psi - E psi || / ||psi|| < 1e-3, second derivative by
    # stencil.  2048 points sits near the optimum: each differencing pass
    # amplifies machine noise by 1/h, so ever-finer grids get worse here.
    fam = get_family(name)
    p = fam.reference_params
    g = make_grid(*fam.domain(p).si_interval, 2048)
    h = g[1] - g[0]
    spec = algebraic_spectrum(fam, p, levels)
    wfs = ladder_wavefunctions(fam, p, levels, g)
    vminus = fam.W(p, g) ** 2 - fam.Wprime(p, g)
    for n, w in enumerate(wfs):
        res = -second_derivative(w.values, h) + vminus * w.values - spec.energies[n] * w.values
        rel = np.sqrt(np.trapezoid(res[4:-4] ** 2, g[4:-4]))
        assert rel < 1e-3, (name, n, rel)


def test_ladder_truncates_with_short_ladder():
    fam = get_family("morse")
    g = make_grid(-3, 10, 2048)
    wfs = ladder_wavefunctions(fam, {"A": 2.0, "B": 4.0, "a": 1.0}, 6, g)
    assert len(wfs) == 2  # ladder ends at A = 1


def test_csv_export(tmp_path):
    fam = get_family("shifted-oscillator")
    g = make_grid(-8, 8, 512)
    wfs = ladder_wavefunctions(fam, {"omega": 2.0, "b": 0.0}, 2, g)
    path = tmp_path / "wavefunctions.csv"
    wavefunctions_to_csv(path, wfs)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,psi0,psi1"
    assert len(lines) == 513


def _ground_state_values(W, x):
    """ground_state's values as first written, scipy doing the quadrature."""
    from scipy.integrate import cumulative_simpson

    fine = np.empty(2 * x.size - 1)
    fine[::2] = x
    fine[1::2] = 0.5 * (x[:-1] + x[1:])
    w = np.asarray(W(fine), dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("W is not finite on the grid")
    omega = cumulative_simpson(w, x=fine, initial=0.0)[::2]
    omega -= omega[x.size // 2]
    expo = -omega
    expo -= expo.max()
    vals = np.exp(expo)
    peak = int(np.argmax(vals))
    if peak in (0, x.size - 1):
        raise NonNormalizable("exp(-int W) peaks on the grid boundary")
    return normalize(vals, x)


def _ladder_levels(fam, p, n_levels, x):
    """The ladder as first written: a ground state per level, raised through
    every rung below it, W evaluated afresh at each raise.  Yields each
    level's values in turn, so that a level that raises stops the ladder."""
    spec = algebraic_spectrum(fam, p, n_levels)
    rungs = [fam.recipe(q) for q in spec.level_params]
    h = float(x[1] - x[0])
    for n in range(len(rungs)):
        psi = _ground_state_values(rungs[n].W, x)
        for k in range(n - 1, -1, -1):
            psi = -derivative(psi, h) + np.asarray(rungs[k].W(x), float) * psi
        yield fix_sign(normalize(psi, x))


#: two valid points per family besides its reference_params; morse at
#: A = 2 holds two levels, so its ladders of 3 to 6 levels truncate
_LADDER_POINTS = {
    "shifted-oscillator": [{"omega": 0.5, "b": 1.5}, {"omega": 3.7, "b": -2.0}],
    "radial-oscillator": [{"omega": 1.0, "ell": 2.0}, {"omega": 4.5, "ell": 0.5}],
    "coulomb": [{"e2": 1.0, "ell": 1.0}, {"e2": 5.0, "ell": 3.0}],
    "morse": [{"A": 2.0, "B": 4.0, "a": 1.0}, {"A": 6.5, "B": 2.0, "a": 0.7}],
    "scarf-II-hyperbolic": [{"A": 2.5, "B": -1.0, "a": 0.5}, {"A": 6.0, "B": 10.0, "a": 1.5}],
    "rosen-morse-II-hyperbolic": [{"A": 3.0, "B": -2.0, "a": 1.0}, {"A": 5.0, "B": 10.0, "a": 0.8}],
    "eckart": [{"A": 2.0, "B": 9.0, "a": 1.0}, {"A": 0.5, "B": 1.0, "a": 0.3}],
    "scarf-I-trigonometric": [{"A": 6.0, "B": -2.0, "a": 1.0}, {"A": 3.0, "B": 2.5, "a": 0.5}],
    "gen-poschl-teller": [{"A": 1.5, "B": 3.0, "a": 0.8}, {"A": 5.0, "B": 8.0, "a": 1.2}],
    "rosen-morse-I-trigonometric": [{"A": 2.0, "B": -1.5, "a": 1.0}, {"A": 3.5, "B": 4.0, "a": 0.6}],
}


@pytest.mark.parametrize("n_points", [64, 1001, 20001])
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_ladder_is_bit_identical_to_the_first_ladder(name, n_points):
    fam = get_family(name)
    for p in [fam.reference_params, *_LADDER_POINTS[name]]:
        fam.validate(p)
        x = make_grid(*fam.domain(p).si_interval, n_points)
        # level n depends on rungs 0..n only, so the levels of the longest
        # ladder are the reference for every shorter one
        want, error = [], None
        try:
            for values in _ladder_levels(fam, p, 6, x):
                want.append(values)
        except Exception as exc:  # the new ladder must raise it too
            error = exc
        for n_levels in range(1, 7):
            if error is not None and n_levels > len(want):
                with pytest.raises(type(error)) as raised:
                    ladder_wavefunctions(fam, p, n_levels, x)
                assert str(raised.value) == str(error)
                continue
            got = ladder_wavefunctions(fam, p, n_levels, x)
            assert len(got) == min(n_levels, len(want)), (p, n_levels)
            for w, values in zip(got, want):
                # int64 views compare every bit, the sign of zero included
                np.testing.assert_array_equal(w.values.view(np.int64), values.view(np.int64))


def _peak_bytes(call):
    call()  # warm: lazy set-up is not counted
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ground_state_memory():
    # the refined grid has 2n - 1 points; the first version peaked at 14
    # arrays of that size, holding both sets of Simpson windows at once
    fam = get_family("morse")
    p = fam.reference_params
    n = 20001
    x = make_grid(*fam.domain(p).si_interval, n)
    peak = _peak_bytes(lambda: ground_state(fam.recipe(p).W, x))
    assert peak <= 8 * (2 * n - 1) * 8


def test_ladder_memory():
    # four levels (the ladder truncates at A = 4) peaked at 5.1 MB, 32
    # arrays of the grid's size
    fam = get_family("morse")
    p = fam.reference_params
    n = 20001
    x = make_grid(*fam.domain(p).si_interval, n)
    peak = _peak_bytes(lambda: ladder_wavefunctions(fam, p, 6, x))
    assert peak <= 20 * n * 8
