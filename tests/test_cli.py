import argparse
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from shapeinv import multidim
from shapeinv.catalog import FAMILY_NAMES, get_family
from shapeinv.cli import (
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_TRUNCATED,
    EXIT_USAGE,
    build_parser,
    main,
    run_command,
)


def run(argv, monkeypatch=None, tmp_path=None):
    out = StringIO()
    code = run_command(argv, out)
    return code, out.getvalue()


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("SIP_OUT_DIR", str(tmp_path))
    return tmp_path


def test_list_table_has_ten_rows():
    code, text = run(["list"])
    assert code == EXIT_PASS
    rows = [ln for ln in text.splitlines()[1:] if ln.strip()]
    assert len(rows) == 10
    assert any(ln.startswith("morse") for ln in rows)


def test_list_json_is_length_ten():
    code, text = run(["list", "--json"])
    assert code == EXIT_PASS
    assert len(json.loads(text)) == 10


def test_list_single_family_descriptor():
    code, text = run(["list", "--family", "morse"])
    assert code == EXIT_PASS
    d = json.loads(text)
    assert d["name"] == "morse"
    assert {p["name"] for p in d["parameters"]} == {"A", "B", "a"}


def test_verify_pass_exit_zero():
    code, text = run(["verify", "shifted-oscillator", "--omega", "2", "--b", "0"])
    assert code == EXIT_PASS
    assert "estimated constant: 2" in text


def test_verify_morse_reports_seven():
    code, text = run(["verify", "morse", "--A", "4", "--B", "4", "--a", "1", "--json"])
    assert code == EXIT_PASS
    rep = json.loads(text)
    assert rep["passed"] is True
    assert rep["estimated_constant"] == pytest.approx(7.0)


def test_verify_bad_parameters_exit_two():
    code, text = run(["verify", "morse", "--A", "-1"])
    assert code == EXIT_USAGE
    assert "error" in text


def test_verify_unknown_family_usage_error():
    code, _ = run(["verify", "not-a-family"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("a", [0.25, 0.5, 2.0, 4.0])
def test_trigonometric_families_verify_at_every_scale(a):
    # the default grid shrinks with the domain (-pi/2a, pi/2a) or (0, pi/a);
    # closed forms at the reference A = 4, B = 1 and A = B = 1
    shifts = {"scarf-I-trigonometric": (4 + a) ** 2 - 4**2,
              "rosen-morse-I-trigonometric": (1 + a) ** 2 - 1 / (1 + a) ** 2}
    for name, shift in shifts.items():
        code, text = run(["verify", name, "--a", str(a), "--json"])
        assert code == EXIT_PASS, (name, text)
        assert json.loads(text)["estimated_constant"] == pytest.approx(shift, rel=1e-9)


@pytest.mark.parametrize("a", ["1e5", "1e6", "1e8"])
def test_trigonometric_families_verify_inside_their_domain_at_large_scale(a):
    # the verdict may still fail on the absolute tolerance; the grid must not
    # be refused as leaving the domain (exit 2)
    for name in ("scarf-I-trigonometric", "rosen-morse-I-trigonometric"):
        code, text = run(["verify", name, "--a", a, "--json"])
        assert code in (EXIT_PASS, EXIT_FAIL), (name, text)
        assert json.loads(text)["estimated_constant"] > 0


def test_verify_grid_outside_the_domain_is_a_usage_error():
    # Scarf I at a = 1 lives on (-pi/2, pi/2): this grid crosses both poles
    code, text = run(["verify", "scarf-I-trigonometric", "--grid=-2:2:512"])
    assert code == EXIT_USAGE
    assert text.startswith("error: ")


def test_oracle_box_outside_the_domain_is_a_usage_error():
    code, text = run(["spectrum", "rosen-morse-I-trigonometric", "--oracle", "--box", "-1", "4"])
    assert code == EXIT_USAGE
    assert text.startswith("error: ")


def test_oracle_box_may_reach_the_domain_endpoints():
    # the oracle evaluates V only between its walls, and walls on the
    # endpoints match the states' own zeros there
    code, text = run(["spectrum", "rosen-morse-I-trigonometric", "--oracle",
                      "--box", "0", repr(math.pi), "--json"])
    assert code == EXIT_PASS
    assert json.loads(text)["comparison"]["passed"] is True


def _options(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [s[2:] for a in sub.choices[command]._actions for s in a.option_strings
            if s.startswith("--")]


@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_parameter_flags_are_the_catalog_parameters(command):
    # every family's parameter names, each once, in catalog order
    names = list(dict.fromkeys(n for f in FAMILY_NAMES for n in get_family(f).param_names))
    options = _options(command)
    assert options[1:1 + len(names)] == names
    assert not set(options[1 + len(names):]) & set(names)


def test_spectrum_table():
    code, text = run(["spectrum", "shifted-oscillator", "--omega", "2", "-n", "4"])
    assert code == EXIT_PASS
    assert [ln.split()[1] for ln in text.splitlines()[1:5]] == ["0", "2", "4", "6"]


def test_spectrum_with_oracle_passes():
    code, text = run(["spectrum", "morse", "--A", "4", "--B", "4", "--a", "1",
                      "-n", "4", "--oracle", "--json"])
    assert code == EXIT_PASS
    payload = json.loads(text)
    assert payload["comparison"]["passed"] is True
    assert max(payload["comparison"]["deviations"]) < 1e-3


def test_spectrum_truncation_exit_three():
    code, text = run(["spectrum", "morse", "--A", "2", "--a", "1", "-n", "10"])
    assert code == EXIT_TRUNCATED
    assert "truncated" in text


RMII_AT_A_EQUALS_a = ["rosen-morse-II-hyperbolic", "--A", "1", "--a", "1", "--B", "0.5"]


def test_verify_names_the_constraint_an_undefined_partner_breaks():
    # tau(p) has A = 0, where W divides B by A
    code, text = run(["verify", *RMII_AT_A_EQUALS_a])
    assert code == EXIT_USAGE
    assert text.startswith("error: partner rung tau(p) is undefined: ")
    assert "violate constraints ['A > 0', 'A^2 > |B|']" in text
    assert text.count("\n") == 1


def test_verify_notes_a_partner_outside_the_valid_region():
    # tau(p) has A = -0.5: W is still defined there, so the certificate runs
    argv = ["verify", "morse", "--A", "0.5", "--a", "1"]
    code, text = run(argv)
    assert code == EXIT_PASS
    assert text.splitlines()[-1] == (
        "note:               partner rung tau(p) leaves the valid region: morse: parameters "
        "{'A': -0.5, 'B': 4.0, 'a': 1.0} violate constraints ['A > 0']")
    code_json, text_json = run([*argv, "--json"])
    assert code_json == EXIT_PASS
    assert "note" not in text_json
    # a partner inside the region gets no note
    assert "note" not in run(["verify", "morse", "--A", "2", "--a", "1"])[1]


@pytest.mark.parametrize("argv", [
    ["scarf-II-hyperbolic", "--a", "100"],
    ["gen-poschl-teller", "--a", "100", "--B", "5"],
    ["eckart", "--a", "100"],
], ids=lambda argv: argv[0])
def test_verify_passes_where_sinh_and_cosh_overflow(argv):
    # sech = 1/cosh overflowing to 0 is IEEE behaviour, not a defect
    with np.errstate(over="ignore"):
        code, text = run(["verify", *argv])
    assert code == EXIT_PASS, text


def test_spectrum_ends_at_the_last_valid_rung():
    code, text = run(["spectrum", *RMII_AT_A_EQUALS_a, "-n", "4", "--json"])
    assert code == EXIT_TRUNCATED
    payload = json.loads(text)
    assert payload["energies"] == [0.0]
    assert payload["truncated"] is True


def test_spectrum_offset_applied():
    code, text = run(["spectrum", "shifted-oscillator", "-n", "2", "--offset", "5"])
    assert code == EXIT_PASS
    assert [ln.split()[1] for ln in text.splitlines()[1:3]] == ["5", "7"]


def test_construct_writes_descriptor_and_manifest(outdir):
    code, text = run(["construct", "--K", "0", "--branch", "linear",
                      "--alpha", "1", "--lambda", "1"])
    assert code == EXIT_PASS
    desc = json.loads((outdir / "constructed.json").read_text())
    assert desc["branch"] == "linear"
    assert desc["shape_invariance"]["passed"] is True
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["all_passed"] is True
    assert (outdir / "superpotential.csv").exists()
    # the linear K=0 seed gives W = 1/x
    printed = json.loads(text)
    assert printed["K"] == 0.0 and printed["lambda"] == 1.0


def test_construct_cosh_stays_finite_where_cosh_overflows(outdir):
    # W = 2 tanh x; sinh/cosh would be inf/inf beyond x = 710
    code, text = run(["construct", "--K", "-1", "--branch", "cosh", "--alpha", "1",
                      "--lambda", "2", "--grid", "0.1:800:512"])
    assert code == EXIT_PASS, text
    assert json.loads(text)["shape_invariance"]["max_residual"] == 0.0


def test_3d_command_certifies_unit_step(outdir):
    code, text = run(["3d", "--seed", "a0=2,a1=1", "--lambda", "2", "--mu", "1", "--json"])
    assert code == EXIT_PASS
    payload = json.loads(text)
    assert payload["shape_invariance"]["passed"] is True
    assert payload["riccati_residual"] < 1e-8
    assert (outdir / "fields.csv").exists()
    assert (outdir / "seed.json").exists()


def test_3d_command_fails_wrong_step(outdir):
    code, _ = run(["3d", "--seed", "a0=2,a1=1", "--lambda", "2", "--mu", "2"])
    assert code == EXIT_FAIL


def test_radial_command(outdir):
    code, text = run(["radial", "--ell", "3", "--check-bessel"])
    assert code == EXIT_PASS
    assert text.count("True") >= 6  # five recurrence rows plus the intertwine line
    lines = (outdir / "intertwine.csv").read_text().splitlines()
    assert lines[0] == "r,psi,Bpsi,reference"


def _rejected_at_parse(argv, option, capsys):
    """argv is a usage error that argparse reports against option, before any work."""
    code, text = run(argv)
    assert code == EXIT_USAGE
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("usage: sip ")
    assert f": error: argument {option}: " in err


# fewer points than the five of the derivative stencil, or a malformed spec
BAD_LINE_GRIDS = ["0.1:0.2:1", "0.1:0.2:4", "0.1:0.2:0", "0.1:0.2:-3", "0.1:0.2",
                  "0.1:0.2:5:6", "0.1:0.2:5.5", "0.2:0.1:64", "0.1:0.1:64",
                  "0.1:inf:64", "nan:0.2:64", "a:0.2:64"]


@pytest.mark.parametrize("grid", BAD_LINE_GRIDS)
def test_verify_rejects_a_bad_grid(grid, capsys):
    _rejected_at_parse(["verify", "scarf-I-trigonometric", f"--grid={grid}"], "--grid", capsys)


@pytest.mark.parametrize("grid", BAD_LINE_GRIDS)
def test_construct_rejects_a_bad_grid(outdir, grid, capsys):
    _rejected_at_parse(["construct", "--K", "1", "--branch", "sin", "--alpha", "1",
                        "--lambda", "2", "--C", "1", "--D", "0", "--shift", "1",
                        f"--grid={grid}"], "--grid", capsys)
    assert not (outdir / "manifest.json").exists()


@pytest.mark.parametrize("grid", ["0.5:20:1", "0.5:20:4", "20:0.5:64", "0.5:20"])
def test_radial_rejects_a_bad_grid(outdir, grid, capsys):
    _rejected_at_parse(["radial", "--ell", "3", f"--grid={grid}"], "--grid", capsys)


@pytest.mark.parametrize("grid", ["1x1", "4x8", "8x4", "0x8", "8x", "8", "8x8x8", "axb"])
def test_3d_rejects_a_bad_grid(outdir, grid, capsys):
    _rejected_at_parse(["3d", "--seed", "a0=2", "--lambda", "2", "--mu", "1",
                        f"--grid={grid}"], "--grid", capsys)


def test_five_points_are_the_fewest_a_grid_takes(outdir, capsys):
    assert run(["verify", "morse", "--grid", "0:1:5"])[0] == EXIT_PASS
    assert run(["3d", "--seed", "a0=2", "--lambda", "2", "--mu", "1", "--grid", "5x5"])[0] \
        == EXIT_PASS
    _rejected_at_parse(["verify", "morse", "--grid", "0:1:4"], "--grid", capsys)
    _rejected_at_parse(["3d", "--seed", "a0=2", "--lambda", "2", "--mu", "1",
                        "--grid", "5x4"], "--grid", capsys)


@pytest.mark.parametrize("value", ["0", "-1e-3", "nan", "inf", "-inf"])
@pytest.mark.parametrize("command", [["verify", "morse"], ["spectrum", "morse", "--oracle"]])
def test_a_tolerance_must_be_positive_and_finite(command, value, capsys):
    _rejected_at_parse([*command, f"--tolerance={value}"], "--tolerance", capsys)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_an_offset_must_be_finite(value, capsys):
    _rejected_at_parse(["spectrum", "morse", f"--offset={value}"], "--offset", capsys)


def test_batch_bad_tolerance_goes_to_the_job_section(outdir, tmp_path, capsys):
    jobfile = tmp_path / "jobs.txt"
    jobfile.write_text("verify morse --tolerance nan\nverify morse --grid 0:1:2\nlist\n")
    code, text = run(["--batch", str(jobfile)])
    assert code == EXIT_USAGE
    first, second = text[:text.index("$ sip list")].split("$ sip ")[1:]
    assert first.startswith("verify morse --tolerance nan\nusage: sip verify ")
    assert first.endswith("argument --tolerance: must be finite, got 'nan'\n[exit 2]\n")
    assert second.endswith("argument --grid: a grid needs at least 5 points per axis, "
                           "got 2\n[exit 2]\n")
    assert capsys.readouterr().err == ""


CONSTRUCT = ["construct", "--K", "1", "--branch", "sin", "--alpha", "1", "--lambda", "2"]
SEED_3D = ["3d", "--seed", "a0=2", "--lambda", "2", "--mu", "1"]


@pytest.mark.parametrize("option,value", [
    ("--K", "inf"), ("--K", "nan"), ("--alpha", "inf"), ("--alpha", "-inf"),
    ("--lambda", "nan"), ("--slope", "inf"), ("--intercept", "nan"),
    ("--C", "inf"), ("--D", "nan"), ("--shift", "nan"), ("--shift", "inf"),
])
def test_construct_numbers_must_be_finite(option, value, tmp_path, capsys):
    out = tmp_path / "out"
    _rejected_at_parse([*CONSTRUCT, f"{option}={value}", "--out", str(out)], option, capsys)
    assert not out.exists()


@pytest.mark.parametrize("option,value", [("--mu", "inf"), ("--mu", "nan"),
                                          ("--lambda", "inf"), ("--lambda", "nan")])
def test_3d_numbers_must_be_finite(option, value, tmp_path, capsys):
    out = tmp_path / "out"
    _rejected_at_parse([*SEED_3D, f"{option}={value}", "--out", str(out)], option, capsys)
    assert not out.exists()


@pytest.mark.parametrize("seed,chunk", [
    ("", ""), ("a0=2,,a1=1", ""), ("a0=2,", ""), ("a0", "a0"), ("a0=2,b1", "b1"),
    ("a0=inf", "a0=inf"), ("a0=2,b0=nan", "b0=nan"),
])
def test_3d_rejects_a_malformed_seed_term(seed, chunk, tmp_path):
    out = tmp_path / "out"
    code, text = run(["3d", "--seed", seed, "--lambda", "2", "--mu", "1", "--out", str(out)])
    assert code == EXIT_USAGE
    assert text.startswith(f"error: bad seed term {chunk!r}")
    assert text.count("\n") == 1
    assert not out.exists()


def test_3d_refuses_a_seed_term_that_overflows_before_the_recurrence(tmp_path, monkeypatch):
    def recurrence(*args):
        raise AssertionError("Legendre recurrence ran")

    monkeypatch.setattr("shapeinv.multidim._legendre_theta", recurrence)
    out = tmp_path / "out"
    code, text = run(["3d", "--seed", "a0=2,a3000=1", "--lambda", "2", "--mu", "1",
                      "--grid", "8x8", "--out", str(out)])
    assert code == EXIT_USAGE
    assert text == ("error: bad seed term of degree 3000: r^3000 or r^-3001 overflows "
                    "on the region r in [0.5, 1.5]\n")
    assert not out.exists()


def test_3d_never_forms_the_power_of_a_zero_coefficient(outdir):
    # b_500 = 0, so r^-501, which overflows at r = 0.2, is neither formed nor checked
    code, text = run(["3d", "--region", "0.2:0.9:0.3:2.8", "--seed", "a0=2,a500=1e-9",
                      "--grid", "8x8", "--lambda", "2", "--mu", "1"])
    assert code == EXIT_PASS, text


def test_3d_drops_a_term_whose_coefficients_are_both_zero(outdir, monkeypatch):
    degrees = []
    recurrence = multidim._legendre_theta

    def counted(used, theta):
        degrees.extend(used)
        return recurrence(used, theta)

    monkeypatch.setattr("shapeinv.multidim._legendre_theta", counted)
    code, text = run(["3d", "--seed", "a0=2,a99999=0", "--grid", "8x8",
                      "--lambda", "2", "--mu", "1"])
    assert code == EXIT_PASS, text
    assert degrees and max(degrees) == 0


def test_3d_refuses_a_degree_too_high_for_the_region_whichever_half_is_used(tmp_path, monkeypatch):
    # r^99999 only underflows on [0.2, 0.9], but r^100000 spans e^150000 there
    def recurrence(*args):
        raise AssertionError("Legendre recurrence ran")

    monkeypatch.setattr("shapeinv.multidim._legendre_theta", recurrence)
    out = tmp_path / "out"
    code, text = run(["3d", "--region", "0.2:0.9:0.3:2.8", "--seed", "a0=2,a99999=1e-9",
                      "--grid", "8x8", "--lambda", "2", "--mu", "1", "--out", str(out)])
    assert code == EXIT_USAGE
    assert text == ("error: bad seed term of degree 99999: r^100000 spans more than the "
                    "float range on the region r in [0.2, 0.9]\n")
    assert not out.exists()


def test_3d_keeps_memory_flat_for_a_high_degree_on_a_narrow_region(tmp_path, capsys):
    # r^100001 spans only e^20 on [0.9999, 1.0001], so degree 100000 passes
    # both degree checks and the recurrence climbs to it: it must hold two
    # running rows and the used ones, not a table of every degree
    tracemalloc.start()
    try:
        code, text = run(["3d", "--region", "0.9999:1.0001:0.3:2.8", "--seed",
                          "a0=2,a100000=0.5", "--lambda", "2", "--mu", "1",
                          "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE)
    if code == EXIT_USAGE:  # a refusal by the seed's checks, not a MemoryError
        assert text.startswith("error: seed "), text
    assert "Traceback" not in text + capsys.readouterr().err
    assert peak < 16e6


BAD_REGIONS = {
    "malformed": ("0.5:1.5", "want RLO:RHI:TLO:THI, got '0.5:1.5'"),
    "non-finite": ("0.5:inf:0.3:2.8", "must be finite, got 'inf'"),
    "out of order": ("1.5:0.5:0.3:2.8", "region must satisfy 0 < r_lo < r_hi"),
    "off axis": ("0.5:1.5:0.3:3.5", "region must keep clear of the polar axis"),
}


@pytest.mark.parametrize("case", sorted(BAD_REGIONS))
def test_3d_rejects_a_bad_region(case, outdir, capsys):
    region, reason = BAD_REGIONS[case]
    out = outdir / "out"
    code, text = run(["3d", "--seed", "a0=2", "--lambda", "2", "--mu", "1",
                      f"--region={region}", "--out", str(out)])
    assert code == EXIT_USAGE
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("usage: sip 3d ")
    assert f"sip 3d: error: argument --region: {reason}" in err
    assert not out.exists()
    assert list(outdir.iterdir()) == []


def test_3d_region_sets_the_grid(outdir):
    code, text = run(["3d", "--seed", "a0=2", "--lambda", "2", "--mu", "1", "--grid", "8x8",
                      "--region", "1:2:0.5:2.5", "--json"])
    assert code == EXIT_PASS
    assert json.loads(text)["region"] == {"r_lo": 1.0, "r_hi": 2.0,
                                          "theta_lo": 0.5, "theta_hi": 2.5}
    radii = [float(row.split(",")[0])
             for row in (outdir / "fields.csv").read_text().splitlines()[1:]]
    assert (min(radii), max(radii)) == (1.0, 2.0)


def test_list_rejects_an_unknown_family(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, text = run(["list", "--family", "bogus"])
    assert code == EXIT_USAGE
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("usage: sip list ")
    assert "sip list: error: argument --family: invalid choice: 'bogus'" in err
    assert list(tmp_path.iterdir()) == []


def test_missing_job_file_is_an_error_line(tmp_path, capsys):
    missing = tmp_path / "nowhere" / "jobs.txt"
    code, text = run(["--batch", str(missing)])
    assert code == EXIT_USAGE
    assert text == f"error: cannot read {missing}: No such file or directory\n"


def test_directory_as_job_file_is_an_error_line(tmp_path):
    code, text = run(["--batch", str(tmp_path)])
    assert code == EXIT_USAGE
    assert text.startswith(f"error: cannot read {tmp_path}: ")


def test_unwritable_out_ends_only_its_own_batch_job(tmp_path):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    jobfile = tmp_path / "jobs.txt"
    jobfile.write_text(f"radial --ell 2 --grid 0.5:20:64 --out {blocker}/x\nlist --json\n")
    code, text = run(["--batch", str(jobfile)])
    assert code == EXIT_USAGE
    first, second = text.split("$ sip ")[1:]
    assert first.endswith(f"error: cannot write {blocker}/x/job-001: Not a directory\n[exit 2]\n")
    assert second.startswith("list --json\n[")
    assert second.endswith("[exit 0]\n")


def test_failed_artifact_write_is_an_error_line(tmp_path):
    out = tmp_path / "out"
    (out / "fields.csv").mkdir(parents=True)  # a directory where the file should go
    code, text = run(["3d", "--seed", "a0=2", "--lambda", "2", "--mu", "1", "--grid", "8x8",
                      "--out", str(out)])
    assert code == EXIT_USAGE
    assert text.startswith(f"error: cannot write {out / 'fields.csv'}: ")
    assert not (out / "manifest.json").exists()


def test_a_failed_write_leaves_no_temporary_file(tmp_path):
    out = tmp_path / "out"
    (out / "seed.json").mkdir(parents=True)  # fields.csv is written, seed.json cannot be
    code, text = run(["3d", "--seed", "a0=2", "--lambda", "2", "--mu", "1", "--grid", "8x8",
                      "--out", str(out)])
    assert code == EXIT_USAGE
    assert text.startswith(f"error: cannot write {out / 'seed.json'}: ")
    assert sorted(p.name for p in out.iterdir()) == ["fields.csv", "seed.json"]


# 2**57 float64 values are 1 EiB, more than any address space holds
HUGE = str(2 ** 57)


@pytest.mark.parametrize("argv", [["spectrum", "morse", "--oracle", "--points", HUGE],
                                  ["verify", "morse", "--grid", f"0:1:{HUGE}"]])
def test_an_allocation_too_large_is_an_error_line(argv):
    code, text = run(argv)
    assert code == EXIT_USAGE
    assert text.startswith("error: Unable to allocate ")


def test_json_output_is_byte_deterministic():
    _, a = run(["spectrum", "morse", "-n", "4", "--json"])
    _, b = run(["spectrum", "morse", "-n", "4", "--json"])
    assert a == b
    _, a = run(["list", "--json"])
    _, b = run(["list", "--json"])
    assert a == b


def test_batch_runs_jobs_in_order(outdir, tmp_path):
    jobfile = tmp_path / "jobs.txt"
    jobfile.write_text(
        "verify shifted-oscillator --omega 2\n"
        "# a comment line\n"
        "spectrum morse --A 2 --a 1 -n 10\n"
        "verify morse --A -1\n"
    )
    code, text = run(["--batch", str(jobfile)])
    assert code == EXIT_USAGE  # worst exit code wins: 2 from the bad verify
    # ordered output: headers appear in file order
    first = text.index("$ sip verify shifted-oscillator")
    second = text.index("$ sip spectrum morse")
    third = text.index("$ sip verify morse --A -1")
    assert first < second < third
    assert "[exit 0]" in text and "[exit 3]" in text and "[exit 2]" in text


def test_one_parser_per_process(outdir, tmp_path, monkeypatch):
    from shapeinv import cli

    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    jobfile = tmp_path / "jobs.txt"
    jobfile.write_text("list\nverify morse\nspectrum morse -n 2\n")
    assert run(["--batch", str(jobfile)])[0] == EXIT_PASS
    assert run(["verify", "morse", "--json"])[0] == EXIT_PASS
    assert run(["list", "--help"])[0] == EXIT_PASS
    assert len(built) == 1


def test_batch_jobs_do_not_share_options(outdir, tmp_path):
    jobs = [["spectrum", "morse", "--json"],
            ["verify", "morse", "--A", "3"],
            ["verify", "morse"]]
    jobfile = tmp_path / "jobs.txt"
    jobfile.write_text("".join(" ".join(argv) + "\n" for argv in jobs))
    _, text = run(["--batch", str(jobfile)])
    alone = []
    for argv in jobs:
        code, body = run(argv)
        alone.append(f"$ sip {' '.join(argv)}\n{body}[exit {code}]\n")
    assert text == "".join(alone)
    # the third job reads the reference A = 4, not the 3 the second one set
    assert "parameters:         {A: 3, B: 4, a: 1}\n" in alone[1]
    assert "parameters:         {A: 4, B: 4, a: 1}\n" in alone[2]


def test_batch_jobs_sharing_an_out_keep_their_solo_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    jobs = ["construct --K 1 --branch sin --alpha 1 --lambda 2 --grid 0.1:3:64",
            "construct --K 0 --branch linear --alpha 1.5 --lambda 1 --grid 0.1:3:64"]
    (tmp_path / "jobs.txt").write_text("".join(f"{job} --out shared\n" for job in jobs))
    assert run(["--batch", "jobs.txt"])[0] == EXIT_PASS
    for n, job in enumerate(jobs, 1):
        assert run([*job.split(), "--out", f"solo-{n}"])[0] == EXIT_PASS
        solo, own = f"solo-{n}/", f"shared/job-{n:03d}/"
        for name in ("constructed.json", "superpotential.csv", "manifest.json"):
            want = (tmp_path / solo / name).read_bytes().replace(solo.encode(), own.encode())
            assert (tmp_path / own / name).read_bytes() == want


_linux_only = pytest.mark.skipif(sys.platform != "linux", reason="batch jobs fork only on Linux")

#: every subcommand, and every way a job can fail without ending its batch
_MIXED_JOBS = f"""\
list --json
verify morse --A 3 --tolerance 1e-300
spectrum morse --oracle -n 3
construct --K 1 --branch sin --alpha 1 --lambda 2 --grid 0.1:3:64 --out out
3d --seed a0=2,a1=1 --lambda 2 --mu 1 --grid 12x10 --json --out out
radial --ell 2 --check-bessel --grid 0.5:20:256 --out out
verify morse --bogus 1
verify "morse
--batch jobs.txt
radial --ell 2 --grid 0.5:20:64 --out blocker/x
spectrum morse --oracle --points {HUGE}
construct --K 0 --branch linear --alpha 1.5 --lambda 1 --grid 0.1:3:64 --out out
"""


def _mixed_batch(run_dir, monkeypatch, workers):
    """(exit code, transcript, {path: bytes}) of _MIXED_JOBS run in run_dir by workers."""
    from shapeinv import cli

    run_dir.mkdir()
    (run_dir / "blocker").write_text("")
    (run_dir / "jobs.txt").write_text(_MIXED_JOBS)
    monkeypatch.chdir(run_dir)
    monkeypatch.setattr(cli, "_worker_count", lambda n_jobs: min(n_jobs, workers))
    code, text = run(["--batch", "jobs.txt"])
    files = {p.relative_to(run_dir).as_posix(): p.read_bytes()
             for p in sorted(run_dir.rglob("*")) if p.is_file()}
    return code, text, files


@_linux_only
def test_forked_and_serial_batches_agree(tmp_path, monkeypatch):
    forked = _mixed_batch(tmp_path / "forked", monkeypatch, 2)
    serial = _mixed_batch(tmp_path / "serial", monkeypatch, 1)
    assert forked == serial
    code, text, files = forked
    assert code == EXIT_USAGE
    assert [int(line[6:-1]) for line in text.splitlines() if line.startswith("[exit ")] == \
        [0, 1, 0, 0, 0, 0, 2, 2, 2, 2, 2, 0]
    assert "error: nested --batch is not allowed" in text
    assert "error: Unable to allocate " in text
    assert sorted({path.rpartition("/")[0] for path in files if path.startswith("out/")}) == \
        ["out/job-004", "out/job-005", "out/job-006", "out/job-012"]


@_linux_only
def test_a_worker_that_dies_ends_the_batch_naming_its_job(tmp_path, monkeypatch):
    from shapeinv import cli

    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(cli._HANDLERS, "list", lambda args, out: os._exit(9))
    monkeypatch.setattr(cli, "_worker_count", lambda n_jobs: min(n_jobs, 2))
    (tmp_path / "jobs.txt").write_text(
        "construct --K 0 --branch linear --alpha 1 --lambda 1 --grid 0.1:3:64 --out out\n"
        "list --json\n"
        "radial --ell 2 --grid 0.5:20:64 --out out\n"
        "verify morse\n")
    code, text = run(["--batch", "jobs.txt"])
    assert code == EXIT_USAGE
    assert text.endswith("\nerror: a --batch worker died; unfinished: job 2 (list --json)\n")
    # the other jobs still print, in file order
    assert [line for line in text.splitlines() if line.startswith("$ sip ")] == \
        ["$ sip construct --K 0 --branch linear --alpha 1 --lambda 1 --grid 0.1:3:64 --out out",
         "$ sip radial --ell 2 --grid 0.5:20:64 --out out",
         "$ sip verify morse"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every worker was reaped
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                  if p.is_file()) == [
        "jobs.txt", "out/job-001/constructed.json", "out/job-001/manifest.json",
        "out/job-001/superpotential.csv", "out/job-003/intertwine.csv",
        "out/job-003/manifest.json"]


_FOUR_WORKERS = """
import sys
from shapeinv import cli
cli._worker_count = lambda n_jobs: min(n_jobs, 4)
sys.exit(cli.main(["--batch", sys.argv[1]]))
"""


@_linux_only
def test_more_workers_than_cpus_keep_every_section_whole(tmp_path, monkeypatch):
    # a 90 kB spectrum section, more than a pipe holds, takes 23 pipe writes
    # and a verify one a part of one, so the records of four workers
    # interleave on their way back
    from shapeinv import cli

    jobfile = tmp_path / "jobs.txt"
    jobfile.write_text("spectrum shifted-oscillator -n 4000\nverify morse --json\nlist --json\n" * 8)
    proc = subprocess.run([sys.executable, "-c", _FOUR_WORKERS, str(jobfile)],
                          capture_output=True, text=True, env=_fresh_env(), cwd=tmp_path,
                          timeout=120)
    monkeypatch.setattr(cli, "_worker_count", lambda n_jobs: 1)
    code, text = run(["--batch", str(jobfile)])
    assert text.count("[exit 0]") == 24
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, text, "")


class _InterruptedOut(StringIO):
    def write(self, text):
        raise KeyboardInterrupt


@_linux_only
def test_an_interrupted_batch_leaves_no_worker(tmp_path, monkeypatch):
    from shapeinv import cli

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_worker_count", lambda n_jobs: min(n_jobs, 2))
    (tmp_path / "jobs.txt").write_text("verify morse\n" * 6)
    with pytest.raises(KeyboardInterrupt):
        run_command(["--batch", "jobs.txt"], _InterruptedOut())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@_linux_only
def test_a_process_that_runs_threads_runs_its_batch_in_process():
    import threading

    from shapeinv import cli

    assert cli._worker_count(16) == min(16, len(os.sched_getaffinity(0)))
    assert cli._worker_count(1) == 1
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert cli._worker_count(16) == 1
    finally:
        stop.set()
        thread.join()


@pytest.mark.parametrize("form", ["--batch {}", "--batch={}", "--bat {}"])
def test_nested_batch_is_refused(outdir, tmp_path, form):
    jobfile = tmp_path / "jobs.txt"
    nested = form.format(jobfile)
    jobfile.write_text(f"verify shifted-oscillator --omega 2 --b 0\n{nested}\n")
    code, text = run(["--batch", str(jobfile)])
    assert code == EXIT_USAGE
    assert text.count("$ sip ") == 2
    assert text.endswith(f"$ sip {nested}\nerror: nested --batch is not allowed\n[exit 2]\n")
    assert "[exit 0]" in text  # the job before it still ran


def test_batch_parse_error_goes_to_the_job_section(outdir, tmp_path, capsys):
    jobfile = tmp_path / "jobs.txt"
    jobfile.write_text("verify morse --bogus 1\nlist\n")
    code, text = run(["--batch", str(jobfile)])
    assert code == EXIT_USAGE
    section = text[:text.index("$ sip list")]
    assert section.startswith("$ sip verify morse --bogus 1\nusage: sip ")
    assert section.endswith("sip: error: unrecognized arguments: --bogus 1\n[exit 2]\n")
    assert capsys.readouterr().err == ""


def test_unbalanced_quote_ends_only_its_own_batch_job(outdir, tmp_path, capsys):
    jobfile = tmp_path / "jobs.txt"
    jobfile.write_text('list\nverify "morse\nverify morse\n')
    code, text = run(["--batch", str(jobfile)])
    assert code == EXIT_USAGE
    first, second, third = text.split("$ sip ")[1:]
    assert first.startswith("list\nfamily ") and first.endswith("\n[exit 0]\n")
    assert second == 'verify "morse\nerror: No closing quotation\n[exit 2]\n'
    assert third.startswith("verify morse\nfamily:             morse\n")
    assert third.endswith("\n[exit 0]\n")
    assert capsys.readouterr().err == ""


def test_batch_help_goes_to_the_job_section(outdir, tmp_path, capsys):
    jobfile = tmp_path / "jobs.txt"
    jobfile.write_text("list --help\nlist\n")
    code, text = run(["--batch", str(jobfile)])
    assert code == EXIT_PASS
    section = text[:text.index("$ sip list\n")]
    assert section.startswith("$ sip list --help\nusage: sip list ")
    assert "--family FAMILY" in section
    assert section.endswith("\n[exit 0]\n")
    assert capsys.readouterr().out == ""


def test_standalone_help_goes_to_stdout(capsys):
    assert main(["list", "--help"]) == EXIT_PASS
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: sip list ")
    assert captured.err == ""


def test_standalone_parse_error_goes_to_stderr(capsys):
    code, text = run(["verify", "morse", "--bogus", "1"])
    assert code == EXIT_USAGE
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("usage: sip ")
    assert err.endswith("sip: error: unrecognized arguments: --bogus 1\n")


def _fresh_env():
    """Environment for a fresh interpreter that imports this checkout's shapeinv."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))


def test_closed_pipe_exits_quietly(tmp_path):
    # far more output than the pipe buffer holds, so writes go on after
    # the reader has gone
    jobfile = tmp_path / "jobs.txt"
    jobfile.write_text("list --json\n" * 60)
    proc = subprocess.Popen([sys.executable, "-m", "shapeinv.cli", "--batch", str(jobfile)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_fresh_env(),
                            cwd=tmp_path)
    assert proc.stdout.readline() == b"$ sip list --json\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_FAIL
    assert err == b""


_MODULES_AFTER = """
import json, sys
from io import StringIO
from shapeinv.cli import run_command
codes = [run_command(argv, StringIO()) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def _modules_after(jobs, tmp_path, package):
    """Exit codes of jobs run in a fresh interpreter, and the modules of package it then holds."""
    proc = subprocess.run([sys.executable, "-c", _MODULES_AFTER, json.dumps(jobs)],
                          capture_output=True, text=True, env=_fresh_env(), cwd=tmp_path,
                          timeout=120, check=True)
    result = json.loads(proc.stdout)
    return result["codes"], {m for m in result["modules"]
                             if m == package or m.startswith(package + ".")}


def test_cold_start_imports_no_scipy(tmp_path):
    out = str(tmp_path / "sip-out")
    jobs = [
        ["list"],
        ["verify", "morse"],
        ["construct", "--K", "0", "--branch", "linear", "--alpha", "1", "--lambda", "1",
         "--out", out],
        ["3d", "--seed", "a0=2,a1=1", "--lambda", "2", "--mu", "1", "--out", out],
        ["radial", "--ell", "3", "--check-bessel", "--out", out],
    ]
    codes, scipy_modules = _modules_after(jobs, tmp_path, "scipy")
    assert codes == [EXIT_PASS] * len(jobs)
    assert scipy_modules == set()


_THREADS_AFTER = """
import json, os, sys
from io import StringIO
import shapeinv
from shapeinv.cli import run_command
code = run_command(["spectrum", "morse", "--oracle"], StringIO())
print(json.dumps({"code": code, "env": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "threads": len(os.listdir("/proc/self/task"))}))
"""


def _threads_after_oracle(tmp_path, blas_threads):
    env = _fresh_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", _THREADS_AFTER], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120, check=True)
    return json.loads(proc.stdout)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cold_start_runs_one_thread(tmp_path):
    # numpy's OpenBLAS and scipy's, which its LAPACK wrappers load, neither
    # with a thread pool
    result = _threads_after_oracle(tmp_path, None)
    assert result == {"code": EXIT_PASS, "env": "1", "threads": 1}


def test_chosen_blas_thread_count_is_kept(tmp_path):
    result = _threads_after_oracle(tmp_path, "2")
    assert result["code"] == EXIT_PASS
    assert result["env"] == "2"


def test_oracle_imports_no_scipy_subpackage(tmp_path):
    codes, scipy_modules = _modules_after([["spectrum", "morse", "--oracle"]], tmp_path, "scipy")
    assert codes == [EXIT_PASS]
    assert "scipy" in scipy_modules
    assert not scipy_modules & {"scipy.linalg", "scipy.integrate", "scipy.interpolate",
                                "scipy.special"}


#: what every subcommand loads: the CLI, the catalog with the ansatz its
#: recipes build on, and the sampling helpers
_CLI_MODULES = {"cli", "catalog", "ansatz", "sampling"}


@pytest.mark.parametrize("argv, own", [
    (["list", "--json"], set()),
    (["verify", "morse", "--json"], {"verify"}),
    (["spectrum", "morse", "--json"], {"spectral"}),
    (["spectrum", "morse", "--oracle", "--json"], {"spectral", "oracle"}),
    (["construct", "--K", "0", "--branch", "linear", "--alpha", "1", "--lambda", "1",
      "--out", "sip-out"], {"verify"}),
    (["3d", "--seed", "a0=2,a1=1", "--lambda", "2", "--mu", "1", "--grid", "16x16",
      "--out", "sip-out"], {"multidim", "verify"}),
    (["radial", "--ell", "3", "--grid", "0.5:20:256", "--out", "sip-out"], {"radial", "spectral"}),
], ids=lambda v: "-".join(v[:2]) if isinstance(v, list) else None)
def test_each_subcommand_loads_only_its_own_modules(argv, own, tmp_path):
    codes, modules = _modules_after([argv], tmp_path, "shapeinv")
    assert codes == [EXIT_PASS]
    assert modules == {"shapeinv", *(f"shapeinv.{m}" for m in _CLI_MODULES | own)}


def test_commands_leave_the_collector_alone(tmp_path, outdir):
    # only main(), which ends its process, freezes the collector's objects
    jobs = [
        ["list", "--json"],
        ["verify", "morse", "--json"],
        ["spectrum", "morse", "--oracle", "--json"],
        ["construct", "--K", "0", "--branch", "linear", "--alpha", "1", "--lambda", "1"],
        ["3d", "--seed", "a0=2,a1=1", "--lambda", "2", "--mu", "1", "--grid", "16x16"],
        ["radial", "--ell", "3", "--grid", "0.5:20:256"],
    ]
    jobfile = tmp_path / "jobs.txt"
    jobfile.write_text("".join(" ".join(argv) + "\n" for argv in jobs))
    for argv in [*jobs, ["--batch", str(jobfile)]]:
        assert run(argv)[0] == EXIT_PASS
        assert gc.get_freeze_count() == 0
        assert gc.isenabled()


def test_piped_output_is_complete(tmp_path, outdir):
    jobfile = tmp_path / "jobs.txt"
    jobfile.write_text("list --json\nverify morse\nspectrum morse --oracle --json\n"
                       "spectrum eckart -n 10\n")
    for argv in (["list", "--json"], ["--batch", str(jobfile)]):
        proc = subprocess.Popen([sys.executable, "-m", "shapeinv.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=_fresh_env(), cwd=tmp_path)
        piped, err = proc.communicate(timeout=120)
        code, text = run(argv)
        assert (proc.returncode, piped.decode(), err) == (code, text, b"")
    assert code == EXIT_TRUNCATED  # the batch's worst job, the truncated ladder


def test_more_oracle_levels_than_points_is_a_usage_error(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "shapeinv.cli", "spectrum",
                           "shifted-oscillator", "-n", "600", "--oracle", "--points", "500"],
                          capture_output=True, text=True, env=_fresh_env(), cwd=tmp_path,
                          timeout=120)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ("error: n_levels (600) must be <= n_points (500): "
                           "the grid has only n_points levels\n")
    assert proc.stderr == ""
