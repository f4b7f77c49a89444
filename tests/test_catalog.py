import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapeinv import catalog
from shapeinv.catalog import (
    DomainInterval,
    DomainViolation,
    InvalidParameters,
    FAMILY_NAMES,
    energy_shift,
    family_descriptor,
    get_family,
    list_families,
    parameter_step,
    partner_potentials,
)
from shapeinv.cli import _si_grid
from shapeinv.sampling import make_grid

EXPECTED_NAMES = {
    "shifted-oscillator",
    "radial-oscillator",
    "coulomb",
    "morse",
    "scarf-II-hyperbolic",
    "rosen-morse-II-hyperbolic",
    "eckart",
    "scarf-I-trigonometric",
    "gen-poschl-teller",
    "rosen-morse-I-trigonometric",
}


def test_list_families_is_the_full_catalog():
    rows = list_families()
    assert len(rows) == 10
    assert {name for name, _, _ in rows} == EXPECTED_NAMES
    assert all(len(params) > 0 for _, params, _ in rows)


def test_domain_kinds():
    kinds = {name: kind for name, _, kind in list_families()}
    assert kinds["radial-oscillator"] == "half-line"
    assert kinds["coulomb"] == "half-line"
    assert kinds["morse"] == "full-line"
    assert kinds["scarf-I-trigonometric"] == "finite"
    assert kinds["rosen-morse-I-trigonometric"] == "finite"


def test_eval_superpotential_closed_forms():
    so = get_family("shifted-oscillator")
    assert so.W({"omega": 2.0, "b": 0.0}, 1.0) == pytest.approx(1.0)
    mo = get_family("morse")
    assert mo.W({"A": 4.0, "B": 4.0, "a": 1.0}, 0.0) == pytest.approx(0.0)
    ro = get_family("radial-oscillator")
    assert ro.W({"omega": 2.0, "ell": 0.0}, 1.0) == pytest.approx(0.0)


def test_eval_guards_domain_and_parameters():
    # partner_potentials refuses a point outside the domain and a parameter
    # set outside the validity region before evaluating anything
    ro = get_family("radial-oscillator")
    with pytest.raises(DomainViolation):
        partner_potentials(ro, {"omega": 2.0, "ell": 0.0}, -1.0)
    with pytest.raises(InvalidParameters):
        partner_potentials(ro, {"omega": -2.0, "ell": 0.0}, 1.0)
    with pytest.raises(InvalidParameters):
        partner_potentials(ro, {"omega": 2.0}, 1.0)


def test_partner_potentials_shifted_oscillator():
    so = get_family("shifted-oscillator")
    p = {"omega": 2.0, "b": 0.0}
    vm, vp = partner_potentials(so, p, 0.0)
    assert (vm, vp) == (pytest.approx(-1.0), pytest.approx(1.0))
    x = make_grid(-5, 5, 128)
    vm, vp = partner_potentials(so, p, x)
    # the splitting between partners is 2 W' = omega everywhere
    assert np.allclose(vp - vm, 2.0, atol=1e-14)


def test_partner_potentials_radial_oscillator_value():
    ro = get_family("radial-oscillator")
    vm, vp = partner_potentials(ro, {"omega": 2.0, "ell": 1.0}, 1.0)
    # W = r - 2/r -> W(1) = -1, W'(1) = 1 + 2 = 3
    assert vm == pytest.approx(-2.0)
    assert vp == pytest.approx(4.0)


@pytest.mark.parametrize(
    "name,p,expected",
    [
        ("shifted-oscillator", {"omega": 2.0, "b": 0.0}, 2.0),
        ("radial-oscillator", {"omega": 2.0, "ell": 0.0}, 4.0),
        ("morse", {"A": 4.0, "B": 4.0, "a": 1.0}, 7.0),
        ("coulomb", {"e2": 2.0, "ell": 0.0}, 0.75),
        ("rosen-morse-II-hyperbolic", {"A": 4.0, "B": 4.0, "a": 1.0}, 16 - 9 + 1 - 16 / 9),
        ("eckart", {"A": 1.0, "B": 3.0, "a": 0.5}, 3.75),
        ("scarf-I-trigonometric", {"A": 4.0, "B": 1.0, "a": 1.0}, 9.0),
        ("gen-poschl-teller", {"A": 3.0, "B": 4.0, "a": 1.0}, 5.0),
    ],
)
def test_energy_shift_closed_forms(name, p, expected):
    fam = get_family(name)
    assert energy_shift(fam, p) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_energy_shift_matches_grid_difference(name):
    # independent route: evaluate V+(p) - V-(tau(p)) pointwise on the grid
    fam = get_family(name)
    p = fam.reference_params
    q = parameter_step(fam, p)
    x = make_grid(*_si_grid(fam, p, q), 512)
    _, vp = partner_potentials(fam, p, x)
    vm, _ = partner_potentials(fam, q, x)
    diff = vp - vm
    assert np.max(np.abs(diff - energy_shift(fam, p))) < 1e-10 * max(1.0, abs(fam.R(p)))


def test_parameter_step_translations():
    ro = get_family("radial-oscillator")
    assert parameter_step(ro, {"omega": 2.0, "ell": 1.0})["ell"] == 2.0
    so = get_family("shifted-oscillator")
    assert parameter_step(so, {"omega": 2.0, "b": 0.0}) == {"omega": 2.0, "b": 0.0}
    mo = get_family("morse")
    assert parameter_step(mo, {"A": 4.0, "B": 4.0, "a": 1.0})["A"] == 3.0
    ek = get_family("eckart")
    assert parameter_step(ek, {"A": 1.0, "B": 3.0, "a": 0.5})["A"] == 1.5


def test_parameter_step_flags_ladder_end():
    mo = get_family("morse")
    with pytest.raises(InvalidParameters):
        parameter_step(mo, {"A": 1.0, "B": 4.0, "a": 1.0})  # A would hit 0


#: valid parameters whose ladders have two rungs, for the families whose
#: reference ladders stop after one step
TWO_RUNG_PARAMS = {
    "rosen-morse-II-hyperbolic": {"A": 4.0, "B": 1.0, "a": 1.0},
    "eckart": {"A": 1.0, "B": 5.0, "a": 0.5},
}


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_translation_structure_is_uniform(name):
    # stepping twice moves each parameter by the same increment as stepping once
    fam = get_family(name)
    p = TWO_RUNG_PARAMS.get(name, fam.reference_params)
    q = parameter_step(fam, p)
    qq = parameter_step(fam, q)
    for key in fam.param_names:
        assert qq[key] - q[key] == pytest.approx(q[key] - p[key], abs=1e-12)


@pytest.mark.parametrize("name", ["radial-oscillator", "coulomb"])
def test_half_line_divergence_strength(name):
    # r * W(r) -> -(ell+1): regular terms scale like r and die out
    fam = get_family(name)
    p = dict(fam.reference_params)
    p["ell"] = 2.0
    r = np.array([1e-7, 1e-8])
    rw = r * fam.W(p, r)
    assert np.allclose(rw, -(p["ell"] + 1.0), atol=1e-6)


def test_wprime_matches_central_differences():
    h = 1e-5
    for name in EXPECTED_NAMES:
        fam = get_family(name)
        p = fam.reference_params
        lo, hi = fam.domain(p).window
        pad = 0.1 * (hi - lo)
        x = make_grid(lo + pad, hi - pad, 512)
        fd = (fam.W(p, x + h) - fam.W(p, x - h)) / (2 * h)
        assert np.max(np.abs(fd - fam.Wprime(p, x))) < 1e-6, name


def _scaled_params(fam):
    """The reference parameters, and for families with a scale a also a = 1/4 and a = 4."""
    ref = fam.reference_params
    return [ref] + ([{**ref, "a": 0.25}, {**ref, "a": 4.0}] if "a" in ref else [])


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_windows_lie_in_the_domain(name):
    fam = get_family(name)
    for p in _scaled_params(fam):
        fam.validate(p)
        dom = fam.domain(p)
        lo, hi = dom.window
        assert dom.lo <= lo < hi <= dom.hi, (p, dom)
        try:
            fam.recipe(fam.tau(p))
        except ValueError:
            continue  # verify refuses a partner rung without a W
        assert dom.contains(_si_grid(fam, p, fam.tau(p))), (p, dom)


@pytest.mark.parametrize("name", ["scarf-I-trigonometric", "rosen-morse-I-trigonometric"])
def test_trigonometric_windows_scale_with_the_domain(name):
    fam = get_family(name)
    ref = fam.domain(fam.reference_params)
    for p in _scaled_params(fam)[1:]:
        dom = fam.domain(p)
        for got, want in [((dom.lo, dom.hi), (ref.lo, ref.hi)),
                          (dom.window, ref.window)]:
            assert np.allclose(np.multiply(got, p["a"]), want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("k", [0.25, 4.0])
@pytest.mark.parametrize("name, powers", [("scarf-I-trigonometric", {"A": 1, "B": 1, "a": 1}),
                                          ("rosen-morse-I-trigonometric", {"A": 1, "B": 2, "a": 1})])
def test_trigonometric_verify_grids_scale_with_the_member(name, powers, k):
    # W(x; p_k) = k W(k x; p) when each parameter scales by k to its power
    # (B/A is a W in Rosen-Morse I), so S scales by k^2 and the run verify
    # cuts from the window shrinks by 1/k
    fam = get_family(name)
    ref = fam.reference_params
    p = {key: k ** powers[key] * v for key, v in ref.items()}
    got = _si_grid(fam, p, fam.tau(p))
    assert np.allclose(np.multiply(got, k), _si_grid(fam, ref, fam.tau(ref)), rtol=1e-12, atol=0)


@pytest.mark.parametrize("a", [1e5, 1e6, 1e8])
@pytest.mark.parametrize("name", ["scarf-I-trigonometric", "rosen-morse-I-trigonometric"])
def test_narrow_domains_scale_the_endpoint_margin(name, a):
    # an absolute 1e-6 would reject the family's own verify grid at these a
    fam = get_family(name)
    p = {**fam.reference_params, "a": a}
    dom = fam.domain(p)
    assert dom.margin == catalog.ENDPOINT_MARGIN * (dom.hi - dom.lo)
    assert dom.contains(_si_grid(fam, p, fam.tau(p)))
    x = dom.lo + 0.5 * dom.margin
    with pytest.raises(DomainViolation, match=re.escape(f"by margin {dom.margin}")):
        partner_potentials(fam, p, x)


def test_domains_of_width_one_or_more_keep_the_absolute_margin():
    for name in FAMILY_NAMES:
        fam = get_family(name)
        assert fam.domain(fam.reference_params).margin == catalog.ENDPOINT_MARGIN, name


def test_domain_rejects_windows_outside_it():
    # the window may reach the open endpoints, not pass them
    DomainInterval(0.0, np.pi, window=(0.0, np.pi))
    with pytest.raises(DomainViolation):
        DomainInterval(0.0, np.pi, window=(-1.0, 3.0))
    with pytest.raises(DomainViolation):
        DomainInterval(0.0, np.pi, window=(0.1, 3.5))


def _contains_by_numpy(dom, x) -> bool:
    """DomainInterval.contains as an array test alone, the reference for its number path."""
    x = np.asarray(x, dtype=float)
    lo = dom.lo + dom.margin if np.isfinite(dom.lo) else dom.lo
    hi = dom.hi - dom.margin if np.isfinite(dom.hi) else dom.hi
    return bool(np.all(x > lo) and np.all(x < hi))


_PARITY_DOMAINS = [
    DomainInterval(0.0, np.pi, (0.0, np.pi)),
    DomainInterval(0.0, np.pi * 1e-6, (0.0, 3e-6)),
    DomainInterval(0.0, np.inf, (1e-5, 10.0)),
    DomainInterval(-np.inf, np.inf, (-3.0, 10.0)),
]


def _parity_points(dom):
    """Numbers on both sides of each end, within and beyond its margin, and not numbers."""
    ends = [e for e in (dom.lo, dom.hi) if np.isfinite(e)]
    near = [e + s * f * dom.margin for e in ends for s in (-1, 1) for f in (0.0, 0.5, 1.0, 2.0)]
    near += [np.nextafter(e + dom.margin, e) for e in ends]
    return [*near, 0, 1, -1, 1.5, np.float64(1.0), np.float32(0.5), -1e300, 1e300,
            np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("dom", _PARITY_DOMAINS, ids=lambda d: f"{d.lo}:{d.hi}")
def test_contains_and_require_grid_keep_the_array_verdicts(dom):
    points = _parity_points(dom)
    for x in points:
        assert dom.contains(x) is _contains_by_numpy(dom, x), x
    for lo, hi in itertools.product(points, repeat=2):
        assert dom.contains((lo, hi)) is _contains_by_numpy(dom, (lo, hi)), (lo, hi)
        try:
            dom.require_grid(lo, hi)
            refused = False
        except DomainViolation:
            refused = True
        assert refused is not _contains_by_numpy(dom, (lo, hi)), (lo, hi)
    for x in ([], np.array(points), np.linspace(*dom.window, 9),
              [dom.window[0], np.nan], np.array([[1.0, 2.0], [0.5, 1.5]])):
        assert dom.contains(x) is _contains_by_numpy(dom, x), x


def test_domain_kind_is_read_off_the_endpoints():
    assert DomainInterval(-np.inf, np.inf, (-1.0, 1.0)).kind == "full-line"
    assert DomainInterval(0.0, np.inf, (0.0, 2.0)).kind == "half-line"
    assert DomainInterval(0.0, np.pi, (0.0, 2.0)).kind == "finite"
    with pytest.raises(ValueError, match="half-line domains start at 0"):
        DomainInterval(-np.inf, 0.0, (-2.0, -1.0))


def test_descriptor_lists_each_constraint_under_every_parameter_it_names():
    for name in FAMILY_NAMES:
        fam = get_family(name)
        listed = {e["name"]: e["constraint"] for e in family_descriptor(fam)["parameters"]}
        assert list(listed) == list(fam.param_names)
        for key in fam.param_names:
            want = [c for c in fam.constraints if re.search(rf"\b{key}\b", c)]
            assert listed[key] == ("; ".join(want) or "real"), (name, key)
    eckart = family_descriptor(get_family("eckart"))["parameters"]
    assert eckart[0] == {"name": "A", "constraint": "A > 0; B > A^2"}


def test_descriptor_schema():
    for name in FAMILY_NAMES:
        d = family_descriptor(get_family(name))
        assert d["name"] == name
        assert {"lo", "hi", "kind"} == set(d["domain"])
        assert all({"name", "constraint"} == set(entry) for entry in d["parameters"])


#: each family's validity region as a hand-written predicate, the form the
#: catalog held before its constraint texts were compiled
OLD_PREDICATES = {
    "shifted-oscillator": lambda p: p["omega"] > 0,
    "radial-oscillator": lambda p: p["omega"] > 0 and p["ell"] >= 0,
    "coulomb": lambda p: p["e2"] > 0 and p["ell"] >= 0,
    "morse": lambda p: p["A"] > 0 and p["B"] > 0 and p["a"] > 0,
    "scarf-II-hyperbolic": lambda p: p["A"] > 0 and p["a"] > 0,
    "rosen-morse-II-hyperbolic": lambda p: p["A"] > 0 and p["a"] > 0 and p["A"] ** 2 > abs(p["B"]),
    "eckart": lambda p: p["A"] > 0 and p["a"] > 0 and p["B"] > p["A"] ** 2,
    "scarf-I-trigonometric": lambda p: p["a"] > 0 and p["A"] > abs(p["B"]),
    "gen-poschl-teller": lambda p: p["a"] > 0 and 0 < p["A"] < p["B"],
    "rosen-morse-I-trigonometric": lambda p: p["A"] > 0 and p["a"] > 0,
}

#: zero, negatives and values whose squares and square roots are among them
BOUNDARY_VALUES = (-4.0, -2.0, -1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0, 4.0)


def _accepts(fam, p) -> bool:
    try:
        fam.validate(p)
    except InvalidParameters:
        return False
    return True


@st.composite
def _params_near_boundaries(draw, names):
    """Boundary or random values, with B often tied to A: A = |B|, B = A^2, A = B.

    Positive values are drawn more often, so that the other constraints of a
    family hold while one of them sits on its boundary.
    """
    value = st.sampled_from(BOUNDARY_VALUES) | st.floats(0, 20) | st.floats(-20, 20)
    p = {k: draw(value) for k in names}
    if "B" in p:
        A = p["A"]
        p["B"] = draw(st.sampled_from([p["B"], A, -A, A * A, -A * A]))
    return p


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_compiled_constraints_accept_on_every_boundary_as_before(name):
    fam, old = get_family(name), OLD_PREDICATES[name]
    for values in itertools.product(BOUNDARY_VALUES, repeat=len(fam.param_names)):
        p = dict(zip(fam.param_names, values))
        assert _accepts(fam, p) == old(p), p


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_compiled_constraints_accept_exactly_where_the_old_predicates_did(name, data):
    fam = get_family(name)
    p = data.draw(_params_near_boundaries(fam.param_names))
    assert _accepts(fam, p) == OLD_PREDICATES[name](p), p


def test_unknown_family_raises():
    with pytest.raises(KeyError):
        get_family("not-a-family")
