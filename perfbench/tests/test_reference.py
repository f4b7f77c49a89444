import itertools
import json
import random
from io import StringIO

import numpy as np
import pytest

import reference as ref
import workloads as wl
import worker
import shapeinv
from shapeinv.cli import run_command


def sip(argv):
    out = StringIO()
    return run_command(argv, out), out.getvalue()


def test_closed_forms_at_reference_points():
    assert ref.energies("morse", {"A": 4.0, "B": 4.0, "a": 1.0}, 4) == ([0.0, 7.0, 12.0, 15.0], False)
    assert ref.energies("morse", {"A": 2.0, "B": 1.0, "a": 1.0}, 10) == ([0.0, 3.0], True)
    assert ref.energies("shifted-oscillator", {"omega": 2.0, "b": 0.0}, 3) == ([0.0, 2.0, 4.0], False)
    coulomb, _ = ref.energies("coulomb", {"e2": 2.0, "ell": 0.0}, 2)
    assert coulomb[1] == pytest.approx(1.0 - 0.25)


def test_closed_forms_match_the_ladder_over_the_sampled_region():
    rng = random.Random(7)
    for i in range(300):
        fam, p = wl.family_job(rng, i)
        want, truncated = ref.energies(fam, p, 6)
        spec = shapeinv.algebraic_spectrum(shapeinv.get_family(fam), p, 6)
        assert spec.truncated == truncated, (fam, p)
        np.testing.assert_allclose(spec.energies, want, rtol=1e-9, atol=1e-9)


def test_list_names():
    assert ref.check_list(*sip(["list", "--json"])) == []
    assert ref.check_list(0, json.dumps([{"name": n} for n in ref.FAMILIES[:9]]))[0][0] == "wrong-names"


def test_spectrum_output_passes_and_a_wrong_energy_is_a_failed_job():
    p = {"A": 4.0, "B": 4.0, "a": 1.0}
    code, text = sip(["spectrum", "morse", *wl.param_flags(p), "--json"])
    assert ref.check_spectrum("morse", p, 4, code, text, oracle=False) == []

    data = json.loads(text)
    data["energies"][2] += 1e-6
    fails = ref.check_spectrum("morse", p, 4, code, json.dumps(data), oracle=False)
    assert [k for k, _ in fails] == ["wrong-energy"]
    assert "wrong-energy" not in ref.KNOWN_KINDS

    rec = worker.new_records()
    worker.record(rec, "spectrum morse", fails)
    worker.record(rec, "spectrum morse", [])
    assert (rec["jobs"], rec["failed_jobs"]) == (2, 1)
    assert rec["kind_sets"] == {"wrong-energy": 1}
    assert ref.unexpected_jobs(rec["kind_sets"], []) == 1


def test_unexpected_jobs_leave_out_known_kinds_within_their_baseline_share():
    kind_sets = {"oracle-disagrees": 5, "oracle-disagrees|verify-false-failure": 2,
                 "artifact-wrong": 1, "artifact-clobbered|artifact-wrong": 3}
    assert ref.unexpected_jobs(kind_sets, []) == 4
    assert ref.unexpected_jobs(kind_sets, ["oracle-disagrees"]) == 11
    assert ref.unexpected_jobs(kind_sets, ["verify-false-failure"]) == 6
    assert ref.unexpected_jobs({}, []) == 0


def test_oracle_disagreement_at_eckart_defaults_is_a_known_failure():
    fam = shapeinv.get_family("eckart")
    code, text = sip(["spectrum", "eckart", "--oracle", "--json"])
    fails = ref.check_spectrum("eckart", fam.reference_params, 4, code, text, oracle=True)
    assert [k for k, _ in fails] == ["oracle-disagrees"]
    # an oracle that fails while its gaps match the closed form is not that defect
    data = json.loads(text)
    data["oracle"]["energies"] = [e + 1.0 for e in data["energies"]]
    fails = ref.check_spectrum("eckart", fam.reference_params, 4, code, json.dumps(data), oracle=True)
    assert [k for k, _ in fails] == ["oracle-wrong-fail"]


def test_known_kinds_are_capped_at_the_baseline_share_on_sweep():
    base = ref.BASELINE_SHARES["sweep"]["oracle-disagrees"]
    assert ref.over_baseline("sweep", {"oracle-disagrees": int(base * 1400)}, 1400) == []
    assert ref.over_baseline("sweep", {"oracle-disagrees": 1400}, 1400) == ["oracle-disagrees"]
    assert ref.over_baseline("batch", {"oracle-disagrees": 6}, 6) == []


def test_verify_refit_constant_is_checked_against_R():
    p = {"A": 4.0, "B": 4.0, "a": 1.0}
    code, text = sip(["verify", "morse", *wl.param_flags(p), "--json"])
    assert ref.check_verify("morse", p, code, text) == []
    data = json.loads(text)
    data["estimated_constant"] = 7.5
    assert ref.check_verify("morse", p, code, json.dumps(data))[0][0] == "wrong-shift"
    # a failed certificate is still held to R
    data.update(max_residual=2e-10, passed=False)
    assert ref.check_verify("morse", p, 1, json.dumps(data))[0][0] == "wrong-shift"


def test_false_verify_failure_is_known_only_at_rounding_level():
    p = {"A": 40.0, "B": 40.0, "a": 1.0}
    code, text = sip(["verify", "morse", *wl.param_flags(p), "--json"])
    assert [k for k, _ in ref.check_verify("morse", p, code, text)] == ["verify-false-failure"]
    data = json.loads(text)
    for residual in (1e-11, 1.0):  # under the documented tolerance, or far above rounding
        data["max_residual"] = residual
        assert [k for k, _ in ref.check_verify("morse", p, 1, json.dumps(data))] == [
            "verify-wrong-verdict"]


def test_verify_across_trigonometric_poles_is_a_known_failure():
    p = {"A": 3.7859, "B": -3.1335, "a": 1.2329}
    code, text = sip(["verify", "scarf-I-trigonometric", *wl.param_flags(p), "--json"])
    assert [k for k, _ in ref.check_verify("scarf-I-trigonometric", p, code, text)] == [
        "verify-false-failure"]
    data = json.loads(text)  # a grid point nearer the pole: rounding has no bound there
    data["max_residual"] = 1.0
    text = json.dumps(data)
    assert [k for k, _ in ref.check_verify("scarf-I-trigonometric", p, code, text)] == [
        "verify-false-failure"]
    inside = dict(p, a=0.8)  # the interval fits the domain: only rounding is known
    assert [k for k, _ in ref.check_verify("scarf-I-trigonometric", inside, code, text)] == [
        "wrong-shift", "verify-wrong-verdict"]


def test_construct_energy_shift(tmp_path):
    argv = ["construct", "--K", "1.0", "--branch", "sin", "--alpha", "1.0", "--lambda", "2.0",
            "--out", str(tmp_path)]
    code, text = sip(argv)
    assert ref.check_construct(1.0, 1.0, 2.0, code, text) == []
    assert ref.check_construct(1.0, 1.0, 2.5, code, text)[0][0] == "wrong-shift"


def test_3d_and_radial_outputs(tmp_path):
    code, text = sip(["3d", "--seed", "a0=2,a1=1", "--lambda", "2", "--mu", "1", "--json",
                      "--out", str(tmp_path)])
    assert ref.check_3d(2.0, 1.0, code, text) == []
    code, text = sip(["radial", "--ell", "3", "--check-bessel", "--out", str(tmp_path)])
    csv = (tmp_path / "intertwine.csv").read_text()
    assert ref.check_radial(3, code, text, csv) == []
    head, *rows = csv.splitlines()
    shifted = "\n".join([head] + [r.rsplit(",", 1)[0] + ",0.5" for r in rows])
    assert ref.check_radial(3, code, text, shifted)[0][0] == "wrong-bessel"
    assert ref.check_radial(3, 1, text.replace("True", "False"), csv)[0][0] == "not-passed"


def test_ladder_nodes_and_norms():
    fam = shapeinv.get_family("morse")
    p = {"A": 4.0, "B": 4.0, "a": 1.0}
    lo, hi, n = wl.ladder_grid("morse", p, 4, fam.domain(p))
    x = np.linspace(lo, hi, n)
    psis = [w.values for w in shapeinv.ladder_wavefunctions(fam, p, 4, x)]
    assert ref.check_ladder("morse", p, 4, x, psis) == []
    swapped = [psis[1], psis[0], *psis[2:]]
    assert {k for k, _ in ref.check_ladder("morse", p, 4, x, swapped)} == {"bad-nodes"}
    assert ref.check_ladder("morse", p, 4, x, [2 * v for v in psis])[0][0] == "bad-norm"


def test_artifacts_are_found_through_their_manifests(tmp_path):
    argv = ["construct", "--K", "1.0", "--branch", "sin", "--alpha", "1.0", "--lambda", "2.0"]
    other = ["construct", "--K", "0.123456789", "--branch", "sin", "--alpha", "1.0", "--lambda", "2.0"]
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path)
        code, text = sip(argv + ["--out", "solo"])
        sip(other + ["--out", "solo-other"])
        sip(argv + ["--out", "shared"])
        sip(other + ["--out", "shared"])  # overwrites the first job's files
        sip(argv + ["--out", "own/job-000"])  # a directory of its own
        _, want = next(iter(ref.read_artifacts(".", "solo").values()))
        others = [files for _, files in ref.read_artifacts(".", "solo-other").values()]
        assert None not in want.values() and len(want) == 3
        [(where, files)] = ref.read_artifacts(".", "own").values()
        assert (where, files) == ("own/job-000", want)
        key = next(iter(ref.read_artifacts(".", "solo")))
        assert key not in ref.read_artifacts(".", "shared")
        left = ref.read_named(".", "shared", want)
        assert [k for k, _ in ref.check_artifacts(want, left, others, "shared")] == ["artifact-clobbered"]
        # two writers at once leave each offset to one of them
        mine, theirs = want["superpotential.csv"], others[0]["superpotential.csv"]
        left["superpotential.csv"] = theirs[:100] + b"\0" * 50 + mine[150:]
        assert [k for k, _ in ref.check_artifacts(want, left, others, "shared")] == ["artifact-clobbered"]
        for wrong in (mine[:100], b"x,W\n0,1\n", None):  # cut short, foreign, missing
            left["superpotential.csv"] = wrong
            assert [k for k, _ in ref.check_artifacts(want, left, others, "shared")] == ["artifact-wrong"]
        expect = {"K": 1.0, "alpha": 1.0, "lambda": 2.0}
        assert ref.check_job("construct", expect, code, text, want) == []
        assert [k for k, _ in ref.check_job("construct", expect, code, text, {})] == [
            "missing-artifact"]
        # a manifest torn by two writers matches no job, and its bytes are
        # judged at the offsets they were written at
        manifest = tmp_path / "shared" / "manifest.json"
        mine = want["manifest.json"].replace(ref.OUT, b"shared/")
        theirs = manifest.read_bytes()
        manifest.write_bytes(theirs + theirs)
        assert ref.read_artifacts(".", "shared") == {}
        cut = mine.index(b"shared/") + len(b"shared/")
        assert theirs.index(b"shared/") > cut  # the two put their paths at other offsets
        manifest.write_bytes(theirs[:cut] + mine[cut:])
        left = ref.read_named(".", "shared", want)
        assert [k for k, _ in ref.check_artifacts(want, left, others, "shared")] == [
            "artifact-clobbered"]


def test_batch_sections():
    text = "$ sip list\nA\nB\n[exit 0]\n$ sip verify x\n[exit 2]\n"
    assert ref.batch_sections(text) == [("list", "A\nB\n", 0), ("verify x", "", 2)]


def test_inputs_follow_the_seed():
    a = list(itertools.islice(wl.sweep_jobs(random.Random(3)), 30))
    assert a == list(itertools.islice(wl.sweep_jobs(random.Random(3)), 30))
    assert a != list(itertools.islice(wl.sweep_jobs(random.Random(4)), 30))
    assert sorted((j["levels"], j["points"]) for j in a[:15]) == sorted(
        (j["levels"], j["points"]) for j in a[15:])
    defaults = {name: shapeinv.get_family(name).reference_params for name in ref.FAMILIES}
    ops = wl.cold_ops(random.Random(3), defaults)
    kinds = [next(ops)[0] for _ in range(14)]
    assert sorted(kinds[:7]) == sorted([*wl.SUBCOMMANDS, "spectrum"]) == sorted(kinds[7:])
