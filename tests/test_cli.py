import argparse
import json
import math
import os
import subprocess
import sys
from io import StringIO
from pathlib import Path

import pytest

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


_SCIPY_MODULES_AFTER = """
import json, sys
from io import StringIO
from shapeinv.cli import run_command
codes = [run_command(argv, StringIO()) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def _scipy_modules_after(jobs, tmp_path):
    """Exit codes of jobs run in a fresh interpreter, and the scipy modules it then holds."""
    proc = subprocess.run([sys.executable, "-c", _SCIPY_MODULES_AFTER, json.dumps(jobs)],
                          capture_output=True, text=True, env=_fresh_env(), cwd=tmp_path,
                          timeout=120, check=True)
    result = json.loads(proc.stdout)
    return result["codes"], set(result["scipy"])


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
    codes, scipy_modules = _scipy_modules_after(jobs, tmp_path)
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
    # numpy and scipy.linalg both loaded, neither with a BLAS thread pool
    result = _threads_after_oracle(tmp_path, None)
    assert result == {"code": EXIT_PASS, "env": "1", "threads": 1}


def test_chosen_blas_thread_count_is_kept(tmp_path):
    result = _threads_after_oracle(tmp_path, "2")
    assert result["code"] == EXIT_PASS
    assert result["env"] == "2"


def test_oracle_imports_only_scipy_linalg(tmp_path):
    codes, scipy_modules = _scipy_modules_after([["spectrum", "morse", "--oracle"]], tmp_path)
    assert codes == [EXIT_PASS]
    assert "scipy.linalg" in scipy_modules
    assert not scipy_modules & {"scipy.integrate", "scipy.interpolate", "scipy.special"}
