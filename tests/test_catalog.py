import re

import numpy as np
import pytest

from shapeinv import catalog
from shapeinv.catalog import (
    DomainInterval,
    DomainViolation,
    InvalidParameters,
    FAMILY_NAMES,
    energy_shift,
    eval_superpotential,
    family_descriptor,
    get_family,
    list_families,
    parameter_step,
    partner_potentials,
)
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
    assert eval_superpotential(so, {"omega": 2.0, "b": 0.0}, 1.0) == pytest.approx(1.0)
    mo = get_family("morse")
    assert eval_superpotential(mo, {"A": 4.0, "B": 4.0, "a": 1.0}, 0.0) == pytest.approx(0.0)
    ro = get_family("radial-oscillator")
    assert eval_superpotential(ro, {"omega": 2.0, "ell": 0.0}, 1.0) == pytest.approx(0.0)


def test_eval_guards_domain_and_parameters():
    ro = get_family("radial-oscillator")
    with pytest.raises(DomainViolation):
        eval_superpotential(ro, {"omega": 2.0, "ell": 0.0}, -1.0)
    with pytest.raises(InvalidParameters):
        eval_superpotential(ro, {"omega": -2.0, "ell": 0.0}, 1.0)
    with pytest.raises(InvalidParameters):
        eval_superpotential(ro, {"omega": 2.0}, 1.0)


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
    x = make_grid(*fam.domain(p).si_interval, 512)
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
        lo, hi = fam.domain(p).si_interval
        pad = 0.1 * (hi - lo)
        x = make_grid(lo + pad, hi - pad, 256)
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
        assert dom.contains(dom.si_interval), (p, dom)
        lo, hi = dom.oracle_box
        assert dom.lo <= lo < hi <= dom.hi, (p, dom)


@pytest.mark.parametrize("name", ["scarf-I-trigonometric", "rosen-morse-I-trigonometric"])
def test_trigonometric_windows_scale_with_the_domain(name):
    fam = get_family(name)
    ref = fam.domain(fam.reference_params)
    for p in _scaled_params(fam)[1:]:
        dom = fam.domain(p)
        for got, want in [((dom.lo, dom.hi), (ref.lo, ref.hi)),
                          (dom.si_interval, ref.si_interval),
                          (dom.oracle_box, ref.oracle_box)]:
            assert np.allclose(np.multiply(got, p["a"]), want, rtol=1e-15, atol=0)


def test_domain_rejects_windows_outside_it():
    # the oracle box may reach the open endpoints, the verify grid may not
    DomainInterval(0.0, np.pi, si_interval=(0.1, 3.0), oracle_box=(0.0, np.pi))
    with pytest.raises(DomainViolation):
        DomainInterval(0.0, np.pi, si_interval=(0.0, 3.0), oracle_box=(0.0, np.pi))
    with pytest.raises(DomainViolation):
        DomainInterval(0.0, np.pi, si_interval=(0.1, 3.5), oracle_box=(0.0, np.pi))
    with pytest.raises(DomainViolation):
        DomainInterval(0.0, np.pi, si_interval=(0.1, 3.0), oracle_box=(-1.0, 3.0))
    with pytest.raises(DomainViolation):
        DomainInterval(0.0, np.inf, si_interval=(-1.0, 3.0), oracle_box=(1e-5, 3.0))


def test_domain_kind_is_read_off_the_endpoints():
    assert DomainInterval(-np.inf, np.inf, (-1.0, 1.0), (-1.0, 1.0)).kind == "full-line"
    assert DomainInterval(0.0, np.inf, (1.0, 2.0), (0.0, 2.0)).kind == "half-line"
    assert DomainInterval(0.0, np.pi, (1.0, 2.0), (0.0, 2.0)).kind == "finite"
    with pytest.raises(ValueError, match="half-line domains start at 0"):
        DomainInterval(-np.inf, 0.0, (-2.0, -1.0), (-2.0, -1.0))


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


def test_unknown_family_raises():
    with pytest.raises(KeyError):
        get_family("not-a-family")
