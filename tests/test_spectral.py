import tracemalloc

import numpy as np
import pytest

from shapeinv import spectral
from shapeinv.catalog import FAMILY_NAMES, get_family
from shapeinv.sampling import (
    NonFiniteValues,
    count_nodes,
    fix_sign,
    make_grid,
    normalize,
    second_derivative,
)
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


def test_ground_state_is_exact_for_a_cubic_superpotential():
    # Simpson's rule on each panel integrates W = x^3 + x with no truncation error
    g = make_grid(-4, 4, 1025)
    ref = normalize(np.exp(-g**4 / 4 - g**2 / 2), g)
    assert np.max(np.abs(ground_state(lambda x: x**3 + x, g).values - ref)) < 1e-13


@pytest.mark.parametrize("W", [lambda x: 1.0, lambda x: x[::2], lambda x: np.stack([x, x])],
                         ids=["scalar", "coarse", "stacked"])
def test_ground_state_refuses_a_W_of_the_wrong_shape(W):
    with pytest.raises(ValueError, match="one value per grid point"):
        ground_state(W, make_grid(-4, 4, 64))


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


#: the ladders of _LADDER_POINTS that end in NonNormalizable: coulomb's
#: rungs step ell up, and from the level given on, the ground state of the
#: rung peaks past the window's outer end at r = 30
_LADDER_RAISES = {("coulomb", 0): 5, ("coulomb", 1): 2, ("coulomb", 2): 5}


def _holds(values, x, domain) -> bool:
    """Whether the grid holds a state: at each end the state has decayed
    to the 1e-4 of its peak below which count_nodes ignores a sample, or
    the end lies next to a wall of the domain, within a tenth of the
    grid's width."""
    floor = 1e-4 * np.abs(values).max()
    reach = 0.1 * (x[-1] - x[0])
    return ((abs(values[0]) < floor or x[0] - domain.lo < reach)
            and (abs(values[-1]) < floor or domain.hi - x[-1] < reach))


@pytest.mark.parametrize("n_points", [64, 1001, 20001])
@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_ladder_is_bit_identical_to_the_first_ladder(name, n_points):
    # the reference is the longest ladder, of 6 levels or of as many as
    # come before a NonNormalizable: level n depends on rungs 0..n only, so
    # each shorter ladder must give its levels bit for bit.  Every state has
    # unit trapezoid norm, never more than n nodes, and exactly n wherever
    # the grid holds it
    fam = get_family(name)
    held = 0
    for point, p in enumerate([fam.reference_params, *_LADDER_POINTS[name]]):
        fam.validate(p)
        domain = fam.domain(p)
        x = make_grid(*domain.si_interval, n_points)
        levels = _LADDER_RAISES.get((name, point), 6)
        for n_levels in range(levels + 1, 7):
            with pytest.raises(NonNormalizable, match="exp\\(-int W\\) peaks on the grid boundary"):
                ladder_wavefunctions(fam, p, n_levels, x)
        want = [w.values for w in ladder_wavefunctions(fam, p, levels, x)]
        for n, values in enumerate(want):
            assert np.all(np.isfinite(values))
            assert abs(np.trapezoid(values**2, x) - 1.0) < 1e-12, (p, n)
            nodes = count_nodes(values)
            assert nodes <= n, (p, n, nodes)
            if _holds(values, x, domain):
                held += 1
                assert nodes == n, (p, n, nodes)
        for n_levels in range(1, levels + 1):
            got = ladder_wavefunctions(fam, p, n_levels, x)
            assert len(got) == min(n_levels, len(want)), (p, n_levels)
            for w, values in zip(got, want):
                # int64 views compare every bit, the sign of zero included
                np.testing.assert_array_equal(w.values.view(np.int64), values.view(np.int64))
    assert held  # the node check is not vacuous


@pytest.mark.parametrize("name,p,levels,x", [
    ("coulomb", {"e2": 2.0, "ell": 4.0}, 6, np.linspace(0.25, 600.0, 20001)),
    ("morse", {"A": 9.0, "B": 4.0, "a": 1.0}, 8,
     np.linspace(-4.810930216216329, 23.189069783783673, 9827)),
    ("eckart", {"A": 0.7369, "B": 30.2172, "a": 1.1406}, 6,
     np.linspace(0.00015757099740165668, 102.80893246509271, 20001)),
    ("scarf-I-trigonometric", {"A": 4.0, "B": 1.0, "a": 1.0}, 6, np.linspace(-1.45, 1.45, 20001)),
])
def test_ladder_states_have_their_node_counts_where_differencing_lost_them(name, p, levels, x):
    # raising the sampled state by 4th-order differences gave psi5 39
    # nodes here (coulomb), psi7 211 (morse), psi2 3 and psi4 7 (eckart),
    # and psi5 5469 (scarf I)
    fam = get_family(name)
    wfs = ladder_wavefunctions(fam, p, levels, x)
    assert len(wfs) == len(algebraic_spectrum(fam, p, levels).energies)
    assert [w.nodes() for w in wfs] == list(range(len(wfs)))


def test_oscillator_states_cut_by_the_window_keep_the_zeros_inside_it():
    # omega = 0.5, b = 1.5 centres the states at x = 6 with scale 2, so the
    # window (-8, 8) ends inside them: psi_n = H_n((x - 6)/2) exp(...) shows
    # the zeros of H_n below y = 1.  Differencing gave psi5 4407 nodes here
    fam = get_family("shifted-oscillator")
    x = np.linspace(-8.0, 8.0, 20001)
    wfs = ladder_wavefunctions(fam, {"omega": 0.5, "b": 1.5}, 6, x)
    inside = [int(np.sum(np.polynomial.hermite.hermroots([0] * n + [1]) < 1.0)) for n in range(6)]
    assert inside == [0, 1, 2, 2, 3, 4]
    assert [w.nodes() for w in wfs] == inside


def _points(name):
    fam = get_family(name)
    return [fam.reference_params, *_LADDER_POINTS[name]]


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_every_rung_shares_the_seed_and_steps_lam_by_alpha(name):
    # the ladder's ring holds only if tau moves lam alone, by -alpha: mu =
    # lam - alpha with the same seed and extension.  The seed u = 1 has
    # F = 0, so its lam is not a parameter of W
    fam = get_family(name)
    for p in _points(name):
        cons, partner = fam.recipe(p), fam.recipe(fam.tau(p))
        for attr in ("seed", "alpha", "C", "D", "shift_const"):
            assert getattr(partner, attr) == getattr(cons, attr), (p, attr)
        if spectral._constant_F(cons.seed) != 0.0:
            assert partner.lam == cons.lam - cons.alpha, p


def _ring_add(p, q):
    out = np.zeros((max(p.shape[0], q.shape[0]), max(p.shape[1], q.shape[1])))
    out[:p.shape[0], :p.shape[1]] += p
    out[:q.shape[0], :q.shape[1]] += q
    return out


def _ring_mul(p, q):
    out = np.zeros((p.shape[0] + q.shape[0] - 1, p.shape[1] + q.shape[1] - 1))
    for (i, j), c in np.ndenumerate(p):
        out[i:i + q.shape[0], j:j + q.shape[1]] += c * q
    return out


class _Bounded:
    """A ring element and, coefficient by coefficient, the sum of the
    magnitudes that formed it (all of them nonnegative, so that rounding
    in forming the element is at most a few eps of it)."""

    def __init__(self, value, bound):
        self.value, self.bound = value, bound

    @classmethod
    def exact(cls, value):
        return cls(value, np.abs(value))

    def __add__(self, other):
        return _Bounded(_ring_add(self.value, other.value),
                        _ring_add(self.bound, other.bound))

    def __neg__(self):
        return _Bounded(-self.value, self.bound)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, _Bounded):
            return _Bounded(_ring_mul(self.value, other.value),
                            _ring_mul(self.bound, other.bound))
        return _Bounded(other * self.value, abs(other) * self.bound)

    __rmul__ = __mul__

    def derive(self, cons):
        b = self.bound
        rows, cols = b.shape
        i = np.arange(rows)[:, None]
        j = np.arange(cols)
        out = spectral._ring_up(b, cons)
        out[:rows - 1, :cols] += abs(cons.seed.K) * (i * b)[1:]
        out[1:, :cols] += (i + j) * b
        if cols > 1:
            out[:rows, :cols - 1] += abs(cons.C) * (j * b)[:, 1:]
        return _Bounded(spectral._ring_derive(self.value, cons), abs(cons.alpha) * out)

    def reduce(self, f):
        if f is None:
            return self
        return _Bounded(spectral._ring_reduce(self.value, f), spectral._ring_reduce(self.bound, abs(f)))


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_every_ladder_state_is_an_exact_eigenfunction_in_the_ring(name):
    # (H - E_n) psi_n / psi_0(p_n) = -D^2 Q + 2 W_n DQ + (DW_n) Q - W_n^2 Q
    # + (W_0^2 - DW_0) Q - E_n Q, with H = -d^2/dx^2 + W_0^2 - W_0', is a
    # ring element: no grid and no oracle.  It vanishes to rounding only if
    # tau and R are right; with the seed's own relation (F = 0 for u = 1,
    # F = c for exp) applied, as the ladder applies it
    fam = get_family(name)
    eps = np.finfo(float).eps
    for p in _points(name):
        spec = algebraic_spectrum(fam, p, 6)
        rungs = [fam.recipe(q) for q in spec.level_params]
        cons = rungs[0]
        f0 = spectral._constant_F(cons.seed)
        ws = [spectral._ring_w(cons, r.lam) for r in rungs]
        w0 = _Bounded.exact(ws[0])
        for n, energy in enumerate(spec.energies):
            wn = _Bounded.exact(ws[n])
            # the bound of Q_n follows the ladder's steps on magnitudes
            q = _Bounded(np.ones((1, 1)), np.ones((1, 1)))
            for k in range(n - 1, -1, -1):
                q = (_Bounded(ws[k] + ws[n], np.abs(ws[k]) + np.abs(ws[n])) * q
                     - q.derive(cons)).reduce(f0)
            q.value = spectral._ladder_polynomial(cons, ws, n)
            dq = q.derive(cons)
            residual = (-dq.derive(cons) + 2.0 * (wn * dq) + wn.derive(cons) * q
                        - wn * (wn * q) + (w0 * w0 - w0.derive(cons)) * q
                        - energy * q).reduce(f0)
            assert np.all(np.abs(residual.value) <= 64 * eps * residual.bound), (p, n)
            assert np.any(residual.bound > 0)


def test_ladder_ground_state_is_exp_of_minus_the_prepotential():
    for name in FAMILY_NAMES:
        fam = get_family(name)
        p = fam.reference_params
        x = make_grid(*fam.domain(p).si_interval, 1001)
        omega = fam.recipe(p).prepotential(x)
        want = fix_sign(normalize(np.exp(omega.min() - omega), x))
        got = ladder_wavefunctions(fam, p, 1, x)[0].values
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(want), name


def test_ladder_refuses_a_grid_through_a_pole():
    fam = get_family("coulomb")
    x = np.linspace(-1.0, 1.0, 101)
    assert x[50] == 0.0
    with pytest.raises(NonFiniteValues) as raised:
        ladder_wavefunctions(fam, fam.reference_params, 2, x)
    assert raised.value.locations == (0.0,)


def test_ladder_refuses_a_state_that_peaks_on_the_grid_end():
    fam = get_family("morse")  # psi0 peaks at x = 0
    with pytest.raises(NonNormalizable, match="exp\\(-int W\\) peaks on the grid boundary"):
        ladder_wavefunctions(fam, fam.reference_params, 2, np.linspace(1.0, 10.0, 512))


def test_ladder_refuses_a_polynomial_that_overflows():
    # F = 1/r is 1e80 at the first point, so F^4 in Q_4 overflows there;
    # the state is 0 there, but the level is refused, never NaN
    fam = get_family("coulomb")
    x = np.linspace(1e-80, 30.0, 2001)
    wfs = ladder_wavefunctions(fam, fam.reference_params, 4, x)
    assert all(np.all(np.isfinite(w.values)) for w in wfs)
    assert [w.nodes() for w in wfs] == [0, 1, 2, 3]
    with pytest.raises(NonFiniteValues, match="psi_4") as raised:
        ladder_wavefunctions(fam, fam.reference_params, 5, x)
    assert raised.value.locations == (1e-80,)


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
