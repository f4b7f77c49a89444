"""shapeinv benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload {cold-cli,sweep,batch} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is taken from src/
(PYTHONPATH=src, nothing is installed).  All load comes from one process
at a time, closed loop with one client:

- cold-cli: one `python -m shapeinv.cli ...` child at a time, a seeded mix
  of the six subcommands at their default sizes.
- sweep: certification jobs (verify, spectrum --oracle, ladder
  wavefunctions) in one warm worker process.
- batch: `sip --batch` runs of 16 file-producing jobs in one worker process.

--trace 0 prints the end-to-end metrics; --trace 1 runs each operation
untraced and then traced, prints the per-layer metrics of the traced runs,
and reports their extra time as trace.overhead_ratio.  Human-readable
lines come first; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  A full record, with the
provenance block and every failing case, goes to perfbench/out/.

attempted counts jobs (a cold-cli operation is one job, a sweep
operation three, a batch sixteen).  correct is true when every failed job
failed in one of the ways reference.KNOWN_KINDS records as a known defect
of the program, with that defect's signature, and, on sweep, no known
kind took more jobs than in the baseline (reference.over_baseline).
failed counts the jobs that break these rules (reference.unexpected_jobs),
so it is 0 whenever correct is true.  Jobs that fail with a known defect
are the program's expected failures: the lines above the JSON object and
the record count them as fail_ratio and list each by name, but they are
not in failed, whose count would otherwise change with the number of
operations a run gets through.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cold-cli", "sweep", "batch")
SETUP_RUNS = 5
WORKER_GRACE_S = 120  # beyond --seconds, for set-up, reference runs and the last operation
CHILD_LIMIT_S = 60  # a cold-cli child still running after this is killed and counted as failed
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
LAYERS = ("cli", "oracle", "spectral", "verify", "multidim", "radial", "ansatz",
          "catalog", "sampling")

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": _git_commit(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _spawn(argv, cwd, stdout_path, stderr_path):
    """Run argv to completion, killing it after CHILD_LIMIT_S; (seconds, exit code,
    peak RSS in MB).  wait4 reaps the child itself, to read its resource usage."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024


def _start_worker(argv, cwd, stderr_path):
    """Start a worker and wait for its READY line; (process, seconds to READY)."""
    err = open(stderr_path, "wb")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=subprocess.PIPE,
                            stderr=err, text=True)
    err.close()
    line = proc.stdout.readline().strip()
    ready = time.perf_counter() - t0
    if line != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start: {Path(stderr_path).read_text()[-2000:]}")
    return proc, ready


def setup_times(workload: str, work: Path) -> list:
    """Seconds from spawn until a fresh worker has imported shapeinv.cli and warmed up."""
    times = []
    for i in range(SETUP_RUNS):
        proc, ready = _start_worker([sys.executable, str(BENCH / "worker.py"), "setup", workload],
                                    work, work / f"setup-{i}.err")
        proc.stdout.read()
        proc.wait()
        proc.stdout.close()
        times.append(ready)
    return times


# ---------------------------------------------------------------------------
# cold-cli: the loop runs here, one child interpreter per operation
# ---------------------------------------------------------------------------

def run_cold(args, work: Path) -> dict:
    import random

    import numpy as np

    import reference as ref
    import tracer as tr
    import worker
    import workloads as wl

    rec = {**worker.new_records(), "rss": [], "imports": []}
    spans, names, counters, missing = [], None, {}, []
    next_id = 0.0  # span ids restart in every child; shift them apart
    sys.path.insert(0, str(ROOT / "src"))
    import shapeinv

    defaults = {name: shapeinv.get_family(name).reference_params for name in ref.FAMILIES}
    ops = wl.cold_ops(random.Random(args.seed), defaults)
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline:
        kind, argv, expect = next(ops)
        out_dir = f"cold-{i}"
        full = argv + (["--out", out_dir] if kind in ref.FILE_KINDS else [])
        elapsed, code, rss = _spawn([sys.executable, "-m", "shapeinv.cli", *full], work,
                                    work / "op.out", work / "op.err")
        rec["ops"].append(elapsed)
        rec["rss"].append(rss)
        text = (work / "op.out").read_text()
        _, files = next(iter(ref.read_artifacts(work, out_dir).values()), (None, {}))
        fails = ref.check_job(kind, expect, code, text, files)
        if args.trace:
            traced_dir = f"cold-{i}-traced"
            full_t = argv + (["--out", traced_dir] if kind in ref.FILE_KINDS else [])
            spans_path = str(work / "child.npy")
            elapsed_t, code_t, _ = _spawn(
                [sys.executable, "-X", "importtime", str(BENCH / "worker.py"), "child",
                 spans_path, "--", *full_t], work, work / "traced.out", work / "traced.err")
            rec["traced_ops"].append(elapsed_t)
            rec["imports"].append(tr.import_profile((work / "traced.err").read_text()))
            child = np.load(spans_path)
            meta = json.loads(Path(spans_path.replace(".npy", ".json")).read_text())
            if len(child):
                child[:, 2] = np.where(child[:, 2] > 0, child[:, 2] + next_id, 0.0)
                child[:, 1] += next_id
                next_id = child[:, 1].max()
            spans.append(child)
            names, missing = meta["names"], meta["missing"]
            for key, value in meta["counters"].items():
                counters[key] = counters.get(key, 0) + value
            _, traced_files = next(iter(ref.read_artifacts(work, traced_dir).values()), (None, {}))
            same = (code_t == code and (work / "traced.out").read_text() == text
                    and traced_files == files)
            if kind in ref.FILE_KINDS:
                rec["file_jobs"] += 1
                rec["intact_jobs"] += int(traced_files == files)
            if not same:
                fails = fails + [("trace-changed-output", "traced child output differs")]
            shutil.rmtree(work / traced_dir, ignore_errors=True)
        shutil.rmtree(work / out_dir, ignore_errors=True)
        worker.record(rec, f"{kind} {' '.join(argv[1:])}", fails)
        i += 1
    rec["peak_rss_mb"] = max(rec["rss"])
    if args.trace:
        all_spans = np.concatenate(spans) if spans else np.zeros((0, tr.FIELDS))
        np.save(args.out_dir / f"spans-{args.workload}.npy", all_spans)
        rec["trace"] = {"names": names, "counters": counters, "missing": missing,
                        "spans": all_spans}
    return rec


# ---------------------------------------------------------------------------
# sweep and batch: one worker process does the work
# ---------------------------------------------------------------------------

def run_worker(args, work: Path) -> dict:
    import numpy as np

    spans_path = args.out_dir / f"spans-{args.workload}.npy"
    cfg = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "spans_path": str(spans_path)}
    argv = [sys.executable, *(["-X", "importtime"] if args.trace else []),
            str(BENCH / "worker.py"), "run", json.dumps(cfg)]
    proc, _ = _start_worker(argv, work, work / "worker.err")
    try:
        out, _ = proc.communicate(timeout=args.seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker did not finish in time")
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {(work / 'worker.err').read_text()[-2000:]}")
    rec = json.loads(out.strip().splitlines()[-1])
    if args.trace:
        import tracer as tr

        rec["trace"]["spans"] = np.load(spans_path)
        import worker

        rec["imports"] = [tr.import_profile((work / "worker.err").read_text(), worker.SETUP_DONE)]
    return rec


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(values):
    """(value, percentile) of the operation-time tail.

    The highest percentile with at least 10 samples beyond it, but never
    below the 90th: with fewer than 100 operations (a batch run holds
    about a dozen) the 10-beyond rule would fall to the median or below,
    so the nearest-rank 90th percentile is reported instead, with fewer
    samples beyond it.  The record keeps the percentile and the count.
    """
    s = sorted(values)
    n = len(s)
    k = max(n - 11, math.ceil(0.9 * n) - 1)
    return s[k], 100.0 * (k + 1) / n


def end_to_end(rec, setup) -> dict:
    ops = rec["ops"]
    value, pct = tail(ops)
    rec["tail_percentile"] = pct
    return {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(ops),
        "op_tail_s": value,
        "ops_per_s": len(ops) / sum(ops),
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def per_layer(rec) -> dict:
    """Per-layer metrics of the traced operations, per operation where a count.

    Times are CPU seconds of the layer's own threads (tracer.self_cpu), so
    that the jobs of the --batch pool, which wait for the interpreter lock
    inside their spans, do not count the wait as work.
    """
    import tracer as tr

    trace = rec["trace"]
    names, counters, spans = trace["names"], trace["counters"], trace["spans"]
    fns = tr.summarize(spans, names)
    n_ops = max(len(rec["traced_ops"]), 1)

    def calls(name):
        return fns.get(name, {}).get("calls", 0)

    def busy(name):
        return fns.get(name, {}).get("total_cpu_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m, units = {}, {}

    def put(name, value, unit):
        m[name] = float(value)
        units[name] = unit

    imports = rec.get("imports") or [{"import.s": 0.0, "import.scipy_s": 0.0}]
    put("import.s", statistics.median(i["import.s"] for i in imports), "s")
    put("import.scipy_s", statistics.median(i["import.scipy_s"] for i in imports), "s")
    for layer in LAYERS:
        mine = [v for k, v in fns.items() if k.split(".")[0] == layer]
        put(f"{layer}.calls", sum(v["calls"] for v in mine) / n_ops, "count/op")
        put(f"{layer}.self_s", sum(v["self_cpu_s"] for v in mine) / n_ops, "s/op")
    oracle_self = sum(v["self_cpu_s"] for k, v in fns.items() if k.startswith("oracle."))
    verify_calls = sum(v["calls"] for k, v in fns.items() if k.startswith("verify.verify_"))
    speedups = tr.batch_speedup(spans, names)
    put("cli.build_parser_s", busy("cli.build_parser") / n_ops, "s/op")
    put("cli.manifest_s", busy("cli.RunManifest.write") / n_ops, "s/op")
    put("cli.artifact_bytes", counters.get("cli.artifact_bytes", 0) / n_ops, "bytes/op")
    put("cli.batch_speedup", statistics.median(speedups) if speedups else 0.0, "ratio")
    put("cli.artifacts_intact_ratio", ratio(rec["intact_jobs"], rec["file_jobs"]), "ratio")
    put("oracle.points", counters.get("oracle.points", 0) / n_ops, "count/op")
    put("oracle.us_per_point", 1e6 * ratio(oracle_self, counters.get("oracle.points", 0)), "us")
    put("oracle.fail_ratio", ratio(counters.get("oracle.failed", 0), calls("oracle.compare_spectra")), "ratio")
    put("spectral.points", counters.get("spectral.points", 0) / n_ops, "count/op")
    put("spectral.truncated_ratio",
        ratio(counters.get("spectral.truncated", 0), calls("spectral.algebraic_spectrum")), "ratio")
    put("verify.points", counters.get("verify.points", 0) / n_ops, "count/op")
    put("verify.fail_ratio", ratio(counters.get("verify.failed", 0), verify_calls), "ratio")
    put("multidim.cells", counters.get("multidim.cells", 0) / n_ops, "count/op")
    put("multidim.csv_s", busy("multidim.fields_to_csv") / n_ops, "s/op")
    put("multidim.csv_bytes", counters.get("multidim.csv_bytes", 0) / n_ops, "bytes/op")
    put("radial.bessel_calls", calls("radial.spherical_bessel_oracle") / n_ops, "count/op")
    put("radial.csv_s", busy("radial.intertwine_to_csv") / n_ops, "s/op")
    put("ansatz.points", counters.get("ansatz.points", 0) / n_ops, "count/op")
    traced = sum(rec["traced_ops"])
    put("trace.overhead_ratio", ratio(traced, sum(rec["ops"])) - 1.0 if traced else 0.0, "ratio")
    return m, units, fns


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "shapeinv" / "cli.py").is_file():
        print(f"error: no shapeinv sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import reference as ref
    import workloads as wl

    args.out_dir = BENCH / "out"
    args.out_dir.mkdir(exist_ok=True)
    work = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = setup_times(args.workload, work) if not args.trace else []
        rec = run_cold(args, work) if args.workload == "cold-cli" else run_worker(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    functions = {}
    if args.trace:
        metrics, units, functions = per_layer(rec)
        missing = rec["trace"]["missing"]
    else:
        metrics, units = end_to_end(rec, setup), END_TO_END_UNITS
        missing = []
    unexplained = sorted({f["kind"] for f in rec["failures"]} - set(ref.KNOWN_KINDS))
    over = ref.over_baseline(args.workload, rec["kind_jobs"], len(rec["ops"]))
    correct = bool(rec["ops"]) and not unexplained and not over
    failed = ref.unexpected_jobs(rec["kind_sets"], over)
    fail_ratio = rec["failed_jobs"] / max(rec["jobs"], 1)

    prov = provenance(args)
    record = {
        "provenance": prov,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "fail_ratio": fail_ratio,
        "attempted": rec["jobs"],
        "failed": failed,
        "failed_with_known_defects": rec["failed_jobs"] - failed,
        "operations": len(rec["ops"]),
        "tail_percentile": rec.get("tail_percentile"),
        "parameter_ranges": wl.RANGES,
        "setup_samples_s": setup,
        "op_times_s": rec["ops"],
        "unexplained_failure_kinds": unexplained,
        "known_kinds_over_baseline": over,
        "failed_jobs_by_kind": rec["kind_jobs"],
        "failed_jobs_by_kind_set": rec["kind_sets"],
        "missing_traced_names": missing,
        "functions": functions,
        "failures": rec["failures"],
    }
    path = args.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"provenance: {json.dumps(prov)}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"  op_tail_s is the p{rec['tail_percentile']:.1f} of {len(rec['ops'])} operations")
    print(f"  {'fail_ratio':28s} {fail_ratio:14.6g} ratio "
          f"({rec['failed_jobs']} of {rec['jobs']} jobs)")
    kinds = {}
    for f in rec["failures"]:
        kinds[f["kind"]] = kinds.get(f["kind"], 0) + 1
    for kind, count in sorted(kinds.items()):
        known = "known" if kind in ref.KNOWN_KINDS else "UNEXPLAINED"
        print(f"  failures {kind}: {count} ({known})")
    for kind in over:
        print(f"  failures {kind}: more than the baseline share {ref.BASELINE_SHARES[args.workload][kind]}")
    if missing:
        print(f"  traced names no longer in shapeinv: {', '.join(missing)}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(f"  failed jobs the known defects do not account for: {failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": rec["jobs"],
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
