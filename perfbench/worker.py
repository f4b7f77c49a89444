"""Worker processes of the benchmark.

    worker.py setup WORKLOAD        import shapeinv.cli, warm up, print READY
    worker.py run CONFIG_JSON       set up, then run sweep or batch in-process
    worker.py child SPANS -- ARGV   traced cold-cli child: sip ARGV under the tracer

The run mode prints READY when set up, and one JSON line with its records
when done.  It is started from the benchmark's work directory, and all
relative --out paths land there.
"""

from __future__ import annotations

import json
import sys
import time

READY = "READY"
#: written to stderr when set-up is done; the import profile stops there
SETUP_DONE = "perfbench: setup done"


def _warm_up(workload: str):
    """Import shapeinv.cli and pay the first-call costs of the workload's paths."""
    from io import StringIO
    from pathlib import Path

    import shapeinv
    from shapeinv import cli

    if workload == "sweep":
        fam = shapeinv.get_family("morse")
        cli.run_command(["verify", "morse", "--json"], StringIO())
        cli.run_command(["spectrum", "morse", "-n", "2", "--oracle", "--json"], StringIO())
        shapeinv.ladder_wavefunctions(fam, fam.reference_params, 2, shapeinv.make_grid(-3, 10, 1001))
    elif workload == "batch":
        jobs = Path("warm-up.txt")
        jobs.write_text(
            "spectrum morse --oracle --json\n"
            "radial --ell 1 --grid 0.5:20:64 --check-bessel --out warm-up\n"
            "3d --seed a0=2 --lambda 2 --mu 1 --grid 8x8 --out warm-up\n"
            "construct --K 0 --branch linear --alpha 1 --lambda 1 --grid 0.1:3:64 --out warm-up\n"
        )
        cli.run_command(["--batch", str(jobs)], StringIO())
    return shapeinv, cli


def _ready():
    print(SETUP_DONE, file=sys.stderr, flush=True)
    print(READY, flush=True)


# ---------------------------------------------------------------------------
# sweep: certification jobs in one warm interpreter
# ---------------------------------------------------------------------------

def _sweep(cfg, shapeinv, cli, tracer):
    import random
    from io import StringIO

    import numpy as np

    import reference as ref
    import workloads as wl

    rng = random.Random(cfg["seed"])

    def op(job, x):
        fam, p, L = job["family"], job["params"], job["levels"]
        flags = wl.param_flags(p)
        out_v, out_s = StringIO(), StringIO()
        code_v = cli.run_command(["verify", fam, *flags, "--json"], out_v)
        code_s = cli.run_command(["spectrum", fam, *flags, "-n", str(L), "--oracle",
                                  "--points", str(job["points"]), "--json"], out_s)
        try:
            psis = [w.values for w in shapeinv.ladder_wavefunctions(shapeinv.get_family(fam), p, L, x)]
        except Exception as exc:  # any exception on a valid input is a failed job
            psis = exc
        return (code_v, out_v.getvalue()), (code_s, out_s.getvalue()), psis

    def check(job, x, result):
        fam, p, L = job["family"], job["params"], job["levels"]
        (code_v, text_v), (code_s, text_s), psis = result
        if isinstance(psis, Exception):
            ladder = [("exception", repr(psis))]
        else:
            ladder = ref.check_ladder(fam, p, L, x, psis)
        return [("verify", ref.check_verify(fam, p, code_v, text_v)),
                ("spectrum", ref.check_spectrum(fam, p, L, code_s, text_s, True)),
                ("ladder", ladder)]

    rec = new_records()
    jobs = wl.sweep_jobs(rng)
    deadline = time.perf_counter() + cfg["seconds"]
    while time.perf_counter() < deadline:
        job = next(jobs)
        lo, hi, n = wl.ladder_grid(job["family"], job["params"], job["levels"],
                                   shapeinv.get_family(job["family"]).domain(job["params"]))
        x = np.linspace(lo, hi, n)
        t0 = time.perf_counter()
        result = op(job, x)
        rec["ops"].append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.install()
            t0 = time.perf_counter()
            traced = op(job, x)
            rec["traced_ops"].append(time.perf_counter() - t0)
            tracer.uninstall()
            if not _same_sweep(result, traced):
                rec["failures"].append({"case": _case(job), "kind": "trace-changed-output",
                                        "detail": "traced outputs differ from untraced ones"})
        for step, fails in check(job, x, result):
            record(rec, f"{step} {_case(job)}", fails)
    return rec


def _same_sweep(a, b) -> bool:
    import numpy as np

    if a[0] != b[0] or a[1] != b[1]:
        return False
    if isinstance(a[2], Exception) or isinstance(b[2], Exception):
        return repr(a[2]) == repr(b[2])
    return len(a[2]) == len(b[2]) and all(np.array_equal(u, v) for u, v in zip(a[2], b[2]))


def _case(job) -> str:
    params = ",".join(f"{k}={v}" for k, v in job["params"].items())
    return f"{job['family']}({params}) L={job['levels']} N={job['points']}"


# ---------------------------------------------------------------------------
# batch: file-producing jobs through sip --batch
# ---------------------------------------------------------------------------

def _batch(cfg, shapeinv, cli, tracer):
    import random
    import shlex
    import shutil
    from io import StringIO
    from pathlib import Path

    import reference as ref
    import workloads as wl

    rng = random.Random(cfg["seed"])
    jobs_by_kind = wl.batch_jobs(rng)
    rec = new_records()

    # reference answers: every job run alone, into its own directory
    solo = {}
    for kind, jobs in jobs_by_kind.items():
        for i, (argv, expect) in enumerate(jobs):
            out_dir = f"solo/{kind}-{i}"
            full = argv + (["--out", out_dir] if kind in ref.FILE_KINDS else [])
            buf = StringIO()
            code = cli.run_command(full, buf)
            found = ref.read_artifacts(".", out_dir)
            key, (_, files) = next(iter(found.items()), (None, (None, {})))
            fails = ref.check_job(kind, expect, code, buf.getvalue(), files)
            solo[kind, i] = (code, buf.getvalue(), key, files, fails)

    def write_batch(picks, out_dir) -> Path:
        lines = []
        for kind, i in picks:
            argv = jobs_by_kind[kind][i][0] + (["--out", out_dir] if kind in ref.FILE_KINDS else [])
            lines.append(shlex.join(argv))
        path = Path(f"{out_dir}.txt")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
        return path

    def run_batch(path):
        buf = StringIO()
        t0 = time.perf_counter()
        code = cli.run_command(["--batch", str(path)], buf)
        return time.perf_counter() - t0, code, buf.getvalue()

    deadline = time.perf_counter() + cfg["seconds"]
    k = 0
    while time.perf_counter() < deadline:
        picks = wl.batch_order(rng)
        out_dir = f"ops/{k}"
        path = write_batch(picks, out_dir)
        elapsed, _, transcript = run_batch(path)
        rec["ops"].append(elapsed)
        if tracer is not None:
            traced_dir = f"ops/{k}-traced"
            traced_path = write_batch(picks, traced_dir)
            tracer.install()
            elapsed_t, _, transcript_t = run_batch(traced_path)
            tracer.uninstall()
            rec["traced_ops"].append(elapsed_t)
            if transcript_t.replace(traced_dir, out_dir) != transcript:
                rec["failures"].append({"case": f"batch {k}", "kind": "trace-changed-output",
                                        "detail": "traced transcript differs from untraced one"})
            shutil.rmtree(traced_dir, ignore_errors=True)
            traced_path.unlink()
        sections = ref.batch_sections(transcript)
        if len(sections) != len(picks):
            rec["failures"].append({"case": f"batch {k}", "kind": "bad-output",
                                    "detail": f"{len(sections)} transcript sections for {len(picks)} jobs"})
        found = ref.read_artifacts(".", out_dir)
        for (kind, i), section in zip(picks, sections):
            code, text, key, files, fails = solo[kind, i]
            fails = list(fails)
            _, body, got_code = section
            if body != text or got_code != code:
                fails.append(("transcript-mismatch", "batch section differs from the solo run"))
            if kind in ref.FILE_KINDS:
                rec["file_jobs"] += 1
                # a job whose manifest is gone wrote into the shared --out
                where, left = found.get(key) or (out_dir, ref.read_named(".", out_dir, files))
                others = [entry[3] for pick, entry in solo.items() if pick != (kind, i)]
                lost = ref.check_artifacts(files, left, others, where)
                fails += lost
                rec["intact_jobs"] += int(not lost)
            record(rec, f"{kind} {' '.join(jobs_by_kind[kind][i][0][1:])}", fails)
        shutil.rmtree(out_dir, ignore_errors=True)
        path.unlink()
        k += 1
    return rec


# ---------------------------------------------------------------------------
# shared records
# ---------------------------------------------------------------------------

def new_records() -> dict:
    return {"ops": [], "traced_ops": [], "jobs": 0, "failed_jobs": 0, "failures": [],
            "kind_jobs": {}, "kind_sets": {}, "file_jobs": 0, "intact_jobs": 0}


def record(rec, case, fails):
    """Count one job, and list each of its failures under its case name.

    kind_sets counts failed jobs by the set of kinds each failed with,
    written as the sorted kinds joined by '|'.
    """
    rec["jobs"] += 1
    if fails:
        rec["failed_jobs"] += 1
        kinds = sorted({kind for kind, _ in fails})
        for kind in kinds:
            rec["kind_jobs"][kind] = rec["kind_jobs"].get(kind, 0) + 1
        key = "|".join(kinds)
        rec["kind_sets"][key] = rec["kind_sets"].get(key, 0) + 1
        for kind, detail in fails:
            rec["failures"].append({"case": case, "kind": kind, "detail": detail})


def run(cfg):
    shapeinv, cli = _warm_up(cfg["workload"])
    _ready()
    tracer = None
    if cfg["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    body = _sweep if cfg["workload"] == "sweep" else _batch
    rec = body(cfg, shapeinv, cli, tracer)
    import resource

    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        import numpy as np

        np.save(cfg["spans_path"], tracer.spans())
        rec["trace"] = {"names": tracer.names, "counters": tracer.counters,
                        "missing": tracer.missing}
    print(json.dumps(rec), flush=True)


def child(spans_path, argv):
    """One traced cold-cli operation: the same argv surface as python -m shapeinv.cli.

    shapeinv.cli is imported before the tracer, so that the import profile
    finds the program's imports where the untraced child finds them.
    """
    from shapeinv import cli

    import numpy as np
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = cli.run_command(argv, sys.stdout)
    sys.stdout.flush()
    tracer.uninstall()
    np.save(spans_path, tracer.spans())
    with open(spans_path.replace(".npy", ".json"), "w") as fh:
        json.dump({"names": tracer.names, "counters": tracer.counters,
                   "missing": tracer.missing}, fh)
    return code


def main(args) -> int:
    mode = args[0]
    if mode == "setup":
        _warm_up(args[1])
        _ready()
        return 0
    if mode == "run":
        run(json.loads(args[1]))
        return 0
    if mode == "child":
        return child(args[1], args[3:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
