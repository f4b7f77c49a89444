import threading
from io import StringIO

import numpy as np
import pytest

import tracer as tr
from shapeinv import cli, sampling


COMMANDS = [
    ["verify", "morse", "--json"],
    ["spectrum", "eckart", "--oracle", "--json"],
    ["construct", "--K", "1", "--branch", "sin", "--alpha", "1", "--lambda", "2", "--out", "{out}"],
    ["3d", "--seed", "a0=2,a1=1", "--lambda", "2", "--mu", "1", "--grid", "16x16", "--json",
     "--out", "{out}"],
    ["radial", "--ell", "3", "--grid", "0.5:20:256", "--check-bessel", "--out", "{out}"],
]


@pytest.fixture(scope="module")
def tracer():
    return tr.Tracer()


def _run(argv, out_dir):
    buf = StringIO()
    code = cli.run_command([a.replace("{out}", str(out_dir)) for a in argv], buf)
    files = {p.name: p.read_bytes().replace(str(out_dir).encode(), b"OUT")
             for p in sorted(out_dir.glob("*"))}
    return code, buf.getvalue(), files


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
def test_traced_outputs_are_byte_identical(tracer, tmp_path, argv):
    plain = _run(argv, tmp_path / "plain")
    tracer.install()
    try:
        traced = _run(argv, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert traced == plain


def test_uninstall_restores_every_namespace(tracer):
    original = sampling.make_grid
    assert cli.make_grid is original
    tracer.install()
    try:
        assert cli.make_grid is not original and sampling.make_grid is cli.make_grid
    finally:
        tracer.uninstall()
    assert cli.make_grid is original and sampling.make_grid is original


def test_missing_names_are_reported(monkeypatch):
    monkeypatch.setattr(tr, "EXPECTED", tr.EXPECTED + ("cli.no_such_function",))
    assert tr.Tracer().missing == ["cli.no_such_function"]


def test_batch_jobs_hang_off_their_batch(tracer, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "jobs.txt").write_text("verify morse --json\nlist\nspectrum morse --json\n")
    before = len(tracer.spans())
    tracer.install()
    try:
        cli.run_command(["--batch", "jobs.txt"], StringIO())
    finally:
        tracer.uninstall()
    spans = tracer.spans()[before:]
    rc = spans[spans[:, 0] == tracer.names.index("cli.run_command")]
    top = rc[rc[:, 2] == 0]
    assert len(top) == 1
    assert sorted(rc[:, 2].tolist()) == [0.0] + [top[0, 1]] * 3
    assert tr.batch_speedup(spans, tracer.names)[0] > 0
    assert threading.active_count() == 1


def test_self_cpu_subtracts_children_on_the_same_thread():
    spans = np.array([
        # fn, id, parent, start, end, cpu, parent on the same thread
        [0, 1, 0, 0.0, 10.0, 4.0, 1],
        [0, 2, 1, 1.0, 3.0, 1.0, 0],  # pool jobs: their CPU is not the batch's
        [0, 3, 1, 2.0, 5.0, 2.0, 0],
        [0, 4, 1, 7.0, 8.0, 1.0, 1],
        [0, 5, 3, 2.5, 3.5, 0.5, 1],
    ])
    np.testing.assert_allclose(tr.self_cpu(spans), [4 - 1, 1, 1.5, 1, 0.5])


def test_import_profile():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   scipy._lib",
        "import time:       200 |        300 | scipy",
        "import time:        50 |         50 |     scipy.special",
        "import time:        20 |         70 |   scipy.integrate",
        "import time:        10 |         80 | shapeinv.sampling",
        "import time:         5 |          5 | json",
        "import time:        40 |         40 |   scipy.special",
        "import time:        30 |         70 | reference",
        "setup done",
        "import time:        90 |         90 | tracer",
    ])
    prof = tr.import_profile(text, stop="setup done")
    assert prof["import.s"] == pytest.approx((300 + 80 + 5) / 1e6)
    assert prof["import.scipy_s"] == pytest.approx((300 + 70) / 1e6)
    assert tr.import_profile(text)["import.s"] == prof["import.s"]
