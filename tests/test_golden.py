"""Byte-for-byte pins of CLI stdout, exit codes and written artifacts.

Each case runs in-process from an empty working directory with a relative
--out, so the paths recorded in manifest.json are the same wherever the
suite runs.  The batch case reads its job file from outside that
directory, so the pin holds only the files the jobs themselves write.  The expected files under tests/golden/ are written by

    PYTHONPATH=src python tests/test_golden.py

and are meant to change only together with a deliberate change of output.
"""

import os
import shutil
import sys
import tempfile
from io import StringIO
from pathlib import Path

import pytest

from shapeinv.catalog import get_family
from shapeinv.cli import run_command
from shapeinv.sampling import make_grid
from shapeinv.spectral import ladder_wavefunctions, wavefunctions_to_csv

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "list": ["list", "--json"],
    "verify-morse": ["verify", "morse", "--json"],
    "verify-scarf-I-a2": ["verify", "scarf-I-trigonometric", "--a", "2", "--json"],
    "spectrum-morse-oracle": ["spectrum", "morse", "--oracle", "--json"],
    "spectrum-eckart-oracle": ["spectrum", "eckart", "--oracle", "--json"],
    "construct": ["construct", "--K", "1", "--branch", "sin", "--alpha", "1",
                  "--lambda", "2", "--C", "0.5", "--D", "1", "--out", "out"],
    "3d": ["3d", "--seed", "a0=2,a1=1,b0=0.5", "--lambda", "2", "--mu", "1",
           "--grid", "48x40", "--json", "--out", "out"],
    "radial": ["radial", "--ell", "3", "--check-bessel", "--grid", "0.5:20:512",
               "--out", "out"],
    "radial-ell25": ["radial", "--ell", "25", "--check-bessel", "--grid", "0.01:60:2048",
                     "--out", "out"],
    "verify-morse-text": ["verify", "morse"],
    "spectrum-morse-truncated": ["spectrum", "morse", "--A", "2", "-n", "10"],
    "3d-text": ["3d", "--seed", "a0=2,a1=1", "--lambda", "2", "--mu", "1",
                "--grid", "16x12", "--out", "out"],
    "construct-shift": ["construct", "--K", "-1", "--branch", "cosh", "--alpha", "1",
                        "--lambda", "2", "--shift", "1", "--out", "out"],
    "batch": ["--batch", "JOBS"],
}

#: the job file of the batch case, which names it JOBS; each file-writing
#: job has a directory of its own, so no job overwrites another's files
BATCH_JOBS = """\
# one section per job, in file order
construct --K 0 --branch linear --alpha 1 --lambda 1 --grid 0.1:3:32 --out out/construct
3d --seed a0=2 --lambda 2 --mu 1 --grid 8x6 --json --out out/3d
radial --ell 2 --check-bessel --grid 0.5:20:256 --out out/radial
verify morse --bogus 1
--batch nested.txt
spectrum morse -n 2
"""


def _run_case(argv, jobs_dir):
    """(exit code, stdout, {relative path: bytes}) of one run in the cwd.

    An argument JOBS stands for a file in jobs_dir that holds BATCH_JOBS.
    """
    jobs = Path(jobs_dir) / "jobs.txt"
    jobs.write_text(BATCH_JOBS)
    out = StringIO()
    code = run_command([str(jobs) if a == "JOBS" else a for a in argv], out)
    files = {p.relative_to(Path.cwd()).as_posix(): p.read_bytes()
             for p in sorted(Path.cwd().rglob("*")) if p.is_file()}
    return code, out.getvalue(), files


def _write_morse_ladder(path):
    fam = get_family("morse")
    wfs = ladder_wavefunctions(fam, fam.reference_params, 3, make_grid(-3.0, 10.0, 512))
    wavefunctions_to_csv(path, wfs)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_pinned(name, tmp_path, monkeypatch):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    monkeypatch.delenv("SIP_OUT_DIR", raising=False)
    code, stdout, files = _run_case(CASES[name], tmp_path)
    case = GOLDEN / name
    assert code == int((case / "exit").read_text())
    assert stdout == (case / "stdout").read_text()
    expected = {p.relative_to(case).as_posix(): p.read_bytes()
                for p in sorted((case / "out").rglob("*")) if p.is_file()}
    assert sorted(files) == sorted(expected)
    for rel, data in expected.items():
        assert files[rel] == data, f"{name}: {rel} differs"


def test_wavefunctions_csv_is_pinned(tmp_path):
    path = tmp_path / "morse.csv"
    _write_morse_ladder(path)
    assert path.read_bytes() == (GOLDEN / "morse-ladder.csv").read_bytes()


def _regenerate():
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as jobs_dir:
            os.chdir(tmp)
            code, stdout, files = _run_case(argv, jobs_dir)
        case = GOLDEN / name
        shutil.rmtree(case, ignore_errors=True)
        case.mkdir(parents=True)
        (case / "exit").write_text(f"{code}\n")
        (case / "stdout").write_text(stdout)
        for rel, data in files.items():
            target = case / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
    _write_morse_ladder(GOLDEN / "morse-ladder.csv")


if __name__ == "__main__":
    os.environ.pop("SIP_OUT_DIR", None)
    sys.exit(_regenerate())
