"""Command-line front end: sip.

Subcommands wrap the library modules with machine-readable output:

    sip list        catalog listing (table or JSON descriptors)
    sip verify      shape-invariance certification for one family
    sip spectrum    algebraic bound-state energies, optional oracle column
    sip construct   seed-based superpotential construction, files + manifest
    sip 3d          axially symmetric partner fields and ladder certificate
    sip radial      measure-weighted factorization demos and Bessel checks

Exit codes: 0 pass, 1 failed or unresolved, 2 usage or validation error,
3 truncated-but-valid ladder.  All numbers print with 12 significant
digits; JSON is key-sorted and byte-deterministic for fixed inputs.
File-producing commands write into --out (or $SIP_OUT_DIR, default
./sip-out) along with a run manifest, each file under a temporary name
renamed into place.  --batch runs one command per line of a job file and
prints each one's output in its own section, in file order; a job that
fails, on a file or memory error too, prints its error line there and the
batch goes on.  On Linux the jobs run in forked worker processes, one per
usable CPU.  Each batch job writes into <out>/job-NNN/, NNN being its
1-based position among the file's jobs, so jobs that share an --out keep
their own files.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass
from io import StringIO
from pathlib import Path

from . import __version__
from .catalog import (
    InvalidParameters,
    FAMILY_NAMES,
    family_descriptor,
    get_family,
    list_families,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_TRUNCATED = 3


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_round12(obj), sort_keys=True, separators=(", ", ": "), indent=2)


def _write_json(path: Path, obj) -> None:
    path.write_text(_dump_json(obj) + "\n")


@dataclass
class RunManifest:
    command: str
    inputs: dict
    outputs: list
    all_passed: bool
    tool_version: str = __version__

    def write(self, path: Path) -> Path:
        _write_json(path, asdict(self))
        return path


def _write_run(args, inputs: tuple, passed: bool, artifacts) -> None:
    """Write a run's artifacts in order, then the manifest that lists them.

    The directory is --out, else $SIP_OUT_DIR, else ./sip-out, and its
    job-NNN/ for the NNNth job of a --batch.  inputs names the options the
    manifest records; artifacts holds (file name, writer) pairs, each writer
    taking a path.  Each file is written under a temporary name and renamed
    into place, so no reader sees it half written.  An OSError becomes a
    ValueError that names the file, so it ends only its own job.
    """
    directory = Path(args.out or os.environ.get("SIP_OUT_DIR") or "sip-out")
    if args.job is not None:
        directory /= f"job-{args.job:03d}"
    paths = [directory / name for name, _ in artifacts]
    manifest = RunManifest(args.command, {k: getattr(args, k) for k in inputs},
                           [str(p) for p in paths], passed)
    path = directory
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for name, write in [*artifacts, ("manifest.json", manifest.write)]:
            path, tmp = directory / name, directory / f".{name}.{os.getpid()}.tmp"
            try:
                write(tmp)
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _param_flags() -> tuple:
    """Every family's parameter names, each once, in catalog order."""
    return tuple(dict.fromkeys(n for name in FAMILY_NAMES for n in get_family(name).param_names))


def _collect_params(args, fam) -> dict:
    p = dict(fam.reference_params)
    for flag in _param_flags():
        val = getattr(args, flag, None)
        if val is not None:
            if flag not in fam.param_names:
                raise InvalidParameters(f"{fam.name} takes no parameter {flag!r}")
            p[flag] = float(val)
    return p


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


#: the fewest points a grid may have: the width of the derivative stencil
_MIN_GRID_POINTS = 5


def _grid_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad point count {text!r}") from None
    if n < _MIN_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"a grid needs at least {_MIN_GRID_POINTS} points per axis, got {n}")
    return n


def _grid_spec(spec: str) -> tuple:
    """'LO:HI:N' -> (lo, hi, n) with finite lo < hi and n >= _MIN_GRID_POINTS."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"want LO:HI:N, got {spec!r}")
    lo, hi = _finite(parts[0]), _finite(parts[1])
    if lo >= hi:
        raise argparse.ArgumentTypeError(f"want LO < HI, got {spec!r}")
    return lo, hi, _grid_count(parts[2])


def _grid2d_spec(spec: str) -> tuple:
    """'NRxNT' -> (n_r, n_theta), each at least _MIN_GRID_POINTS."""
    parts = spec.split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"want NRxNT, got {spec!r}")
    return tuple(_grid_count(v) for v in parts)


def _region_spec(spec: str):
    """'RLO:RHI:TLO:THI' -> a multidim.Region, which checks the bounds."""
    from . import multidim

    parts = spec.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"want RLO:RHI:TLO:THI, got {spec!r}")
    try:
        return multidim.Region(*(_finite(v) for v in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {spec!r}") from None


# ---------------------------------------------------------------------------
# subcommands (each takes parsed args and an output stream, returns exit code)
# ---------------------------------------------------------------------------

def cmd_list(args, out) -> int:
    if args.family:
        fam = get_family(args.family)
        print(_dump_json(family_descriptor(fam)), file=out)
        return EXIT_PASS
    if args.json:
        print(_dump_json([family_descriptor(get_family(n)) for n in FAMILY_NAMES]), file=out)
        return EXIT_PASS
    rows = list_families()
    width = max(len(r[0]) for r in rows)
    print(f"{'family':<{width}}  {'domain':<9}  parameters", file=out)
    for name, params, kind in rows:
        print(f"{name:<{width}}  {kind:<9}  {', '.join(params)}", file=out)
    return EXIT_PASS


def _si_grid(fam, p, q) -> tuple:
    """(lo, hi): of 513 points on the domain's window, the longest run on which S = W_p^2 +
    |W_p'| + W_q^2 + |W_q'| stays within max S <= 1e4 min S, a lone point widened to its
    neighbours.  Where S spans many decades the judge's floor, 64 eps max S, would pass almost
    any residual.  The run around the least S is not enough: where W -> 0 in a tail (Rosen-Morse
    II at B -> A^2) it sits in that tail, where nothing varies and a wrong tau goes unseen."""
    from collections import deque

    import numpy as np

    x = np.linspace(*fam.domain(p).window, 513)
    with np.errstate(all="ignore"):  # a NaN, inf or zero S is outside every run
        s = sum(r.W(x) ** 2 + abs(r.Wprime(x)) for r in (fam.recipe(p), fam.recipe(q)))
        logs = np.log(s).tolist()
    # two pointers; big and small hold the run's indices of falling and rising log S
    cap, start, (lo, hi), big, small = math.log(1e4), 0, (0, 0), deque(), deque()
    for j, v in enumerate(logs):
        if not math.isfinite(v):
            start = j + 1
            big.clear()
            small.clear()
            continue
        while big and logs[big[-1]] <= v:
            big.pop()
        while small and logs[small[-1]] >= v:
            small.pop()
        big.append(j)
        small.append(j)
        while logs[big[0]] - logs[small[0]] > cap:
            start += 1
            if big[0] < start:
                big.popleft()
            if small[0] < start:
                small.popleft()
        if j - start > hi - lo:
            lo, hi = start, j
    if lo == hi:
        lo, hi = max(lo - 1, 0), min(hi + 1, len(x) - 1)
    return float(x[lo]), float(x[hi])


def cmd_verify(args, out) -> int:
    from .sampling import make_grid
    from .verify import verify_shape_invariance

    fam = get_family(args.family)
    p = _collect_params(args, fam)
    fam.validate(p)
    if args.grid:
        fam.domain(p).require_grid(*args.grid[:2])
    partner = fam.tau(p)
    try:
        fam.validate(partner)
        broken = None
    except InvalidParameters as exc:
        broken = exc  # the constraints tau(p) breaks
    try:
        fam.recipe(partner)
    except ValueError:
        if broken is None:
            raise
        # W of the partner rung is undefined
        raise InvalidParameters(f"partner rung tau(p) is undefined: {broken}") from None
    lo, hi, n = args.grid or (*_si_grid(fam, p, partner), 512)
    report = verify_shape_invariance(fam.W, fam.Wprime, p, fam.tau, make_grid(lo, hi, n),
                                     tolerance=args.tolerance)
    if args.json:
        print(_dump_json({**report.to_json(), "grid": [lo, hi, n]}), file=out)
    else:
        print(f"family:             {fam.name}", file=out)
        print(f"parameters:         {{{', '.join(f'{k}: {_fmt(v)}' for k, v in p.items())}}}", file=out)
        print(f"grid:               {_fmt(lo)}:{_fmt(hi)}:{n}", file=out)
        print(f"estimated constant: {_fmt(report.estimated_constant)}", file=out)
        print(f"stored shift:       {_fmt(fam.R(p))}", file=out)
        print(f"max residual:       {_fmt(report.max_residual)}", file=out)
        print(f"worst x:            {_fmt(report.worst_x)}", file=out)
        print(f"verdict:            {report.verdict}", file=out)
        print(f"passed:             {report.passed} (tolerance {_fmt(report.tolerance)})", file=out)
        if broken is not None:
            print(f"note:               partner rung tau(p) leaves the valid region: {broken}",
                  file=out)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_spectrum(args, out) -> int:
    from . import spectral

    fam = get_family(args.family)
    p = _collect_params(args, fam)
    spec = spectral.algebraic_spectrum(fam, p, args.levels)
    payload = spec.to_json()
    payload["offset"] = args.offset
    lines = [f"{'n':>3}  {'E_n':>16}"]
    for n, e in enumerate(spec.energies):
        lines.append(f"{n:>3}  {_fmt(e + args.offset):>16}")
    comparison = None
    if args.oracle:
        from . import oracle

        cfg = oracle.OracleConfig(n_levels=len(spec.energies), max_points=args.points)
        res = oracle.solve(lambda x: fam.W(p, x) ** 2 - fam.Wprime(p, x), fam.domain(p), cfg)
        comparison = oracle.compare_spectra(spec, res.spectrum, tolerance=args.tolerance)
        payload["oracle"] = {**res.spectrum.to_json(), "estimate": res.estimate.tolist()}
        payload["comparison"] = comparison.to_json()
        lines[0] += f"  {'oracle gap':>16}  {'deviation':>12}"
        gaps = res.spectrum.gaps()
        for n in range(len(spec.energies)):
            lines[n + 1] += f"  {_fmt(gaps[n] + args.offset):>16}  {_fmt(comparison.deviations[n]):>12}"
    if args.json:
        print(_dump_json(payload), file=out)
    else:
        for line in lines:
            print(line, file=out)
        if spec.truncated:
            print(f"ladder truncated after {len(spec.energies)} levels", file=out)
    if comparison is not None and not comparison.passed:
        return EXIT_FAIL
    return EXIT_TRUNCATED if spec.truncated else EXIT_PASS


def cmd_construct(args, out) -> int:
    from . import ansatz
    from .sampling import write_csv
    from .verify import verify_shape_invariance

    cons = ansatz.construct_case(args.K, args.branch, args.alpha, getattr(args, "lambda"),
                                 slope=args.slope, intercept=args.intercept)
    if args.C is not None or args.D is not None:
        cons = ansatz.extend_second_solution(cons, args.C or 0.0, args.D or 0.0)
    if args.shift is not None:
        cons = ansatz.extend_constant_shift(cons, args.shift)
    grid, poles = ansatz.pole_free_grid(cons, *args.grid)
    report = verify_shape_invariance(cons.W_at, cons.Wprime_at, cons.lam, cons.tau, grid)
    descriptor = {**cons.to_json(), "energy_shift": cons.energy_shift(),
                  "shape_invariance": report.to_json(), "poles_excluded": poles}
    _write_run(
        args, ("K", "branch", "alpha", "lambda", "C", "D", "shift"), report.passed,
        [("constructed.json", lambda path: _write_json(path, descriptor)),
         ("superpotential.csv",
          lambda path: write_csv(path, ["x", "W"], [grid, cons.W(grid)], eol="\n"))],
    )
    print(_dump_json(descriptor), file=out)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _parse_seed(spec: str):
    """'a0=2,a1=1,b0=0.5' -> [(0, 2.0, 0.0), (1, 1.0, 0.0), (0, 0, 0.5)] merged."""
    terms = {}
    for chunk in spec.split(","):
        key, eq, val = chunk.partition("=")
        if not eq:
            raise ValueError(f"bad seed term {chunk!r} (want a<n>=VALUE or b<n>=VALUE)")
        key = key.strip()
        kind, degree = key[:1], key[1:]
        if kind not in ("a", "b") or not degree.isdigit():
            raise ValueError(f"bad seed coefficient {key!r} (want a<n>= or b<n>=)")
        value = float(val)
        if not math.isfinite(value):
            raise ValueError(f"bad seed term {chunk!r}: value must be finite")
        n = int(degree)
        a, b = terms.get(n, (0.0, 0.0))
        terms[n] = (value, b) if kind == "a" else (a, value)
    return [(n, a, b) for n, (a, b) in sorted(terms.items())]


def cmd_3d(args, out) -> int:
    from . import multidim

    terms = _parse_seed(args.seed)
    region = multidim.DEFAULT_REGION if args.region is None else args.region
    chi = multidim.laplace_seed(terms, region)
    grid2d = multidim.make_grid2d(region, *args.grid)
    lam, mu = getattr(args, "lambda"), args.mu
    vm, vp, report, helmholtz = multidim.partner_fields(chi, lam, grid2d, mu=mu)
    if not helmholtz.passed:
        raise ValueError("seed violates its Helmholtz equation on the region")
    payload = {**multidim.seed_manifest(chi, lam), "mu": mu,
               "riccati_residual": helmholtz.max_residual,
               "shape_invariance": report.to_json()}
    _write_run(
        args, ("seed", "lambda", "mu"), report.passed,
        [("fields.csv", lambda path: multidim.fields_to_csv(path, grid2d, vm, vp)),
         ("seed.json", lambda path: _write_json(path, payload))],
    )
    if args.json:
        print(_dump_json(payload), file=out)
    else:
        print(f"seed terms:        {terms}", file=out)
        print(f"riccati residual:  {_fmt(helmholtz.max_residual)}", file=out)
        print(f"ladder constant:   {_fmt(report.estimated_constant)}", file=out)
        print(f"max deviation:     {_fmt(report.max_residual)}", file=out)
        print(f"verdict:           {report.verdict}", file=out)
        print(f"passed:            {report.passed}", file=out)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_radial(args, out) -> int:
    import numpy as np

    from . import radial
    from .sampling import make_grid

    ell = args.ell
    if ell < 1 or ell > 25:
        raise InvalidParameters("ell must be within 1..25")
    rows = []
    all_ok = True
    if args.check_bessel:
        rvals = np.array([0.5, 1.0, 2.0, 5.0, 10.0])
        h = 1e-5
        probes = np.concatenate([rvals + h, rvals - h, rvals])
        # j[l] holds j_l at r + h, r - h and r, one row each
        j = radial.spherical_bessel_j(range(6), probes).reshape(6, 3, -1)
        for l in range(1, 6):
            jp = (j[l][0] - j[l][1]) / (2 * h)
            worst = float(np.max(np.abs(jp + (l + 1) / rvals * j[l][2] - j[l - 1][2])))
            ok = worst < 1e-8
            all_ok &= ok
            rows.append((l, worst, ok))
    # spherical_bessel_j refuses an r <= 0 and values that are not finite, before any output
    r = make_grid(*args.grid)
    psi, reference = radial.spherical_bessel_j((ell, ell - 1), r)
    if args.check_bessel:
        print(f"{'ell':>4}  {'max recurrence residual':>24}  pass", file=out)
        for l, worst, ok in rows:
            print(f"{l:>4}  {_fmt(worst):>24}  {ok}", file=out)
    lowered = radial.radial_intertwine(ell, r, psi)
    dev = float(np.max(np.abs(lowered - reference)) / np.max(np.abs(reference)))
    ok = dev < 1e-5
    all_ok &= ok
    print(f"intertwine j{ell} -> j{ell - 1}: max deviation {_fmt(dev)} pass {ok}", file=out)
    _write_run(
        args, ("ell", "check_bessel"), all_ok,
        [("intertwine.csv",
          lambda path: radial.intertwine_to_csv(path, r, psi, lowered, reference))],
    )
    return EXIT_PASS if all_ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def _add_param_flags(sub):
    for flag in _param_flags():
        sub.add_argument(f"--{flag}", type=float, default=None)


class _UsageError(Exception):
    """A command line argparse rejected, as the usage and error lines it prints."""


class _HelpRequested(Exception):
    """A --help, as the help text argparse prints for it."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that hands usage errors and --help to its caller, and
    takes a token of - and a digit or .digit as a value, as in --grid -3:10:512,
    and so -inf, -infinity and -nan in any case.

    argparse prints them to sys.stderr and sys.stdout and exits; raising
    instead lets run_command write them to the stream of the job that made
    them.  No sip option starts with a digit or is -inf or -nan, but argparse
    splits off a short option before it asks this pattern, so spectrum reads
    -nan as -n an.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf(inity)?|nan)$", re.I)

    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}\n")

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sip",
        description="Shape-invariant potentials: catalog, certification, spectra.",
    )
    parser.add_argument("--batch", metavar="FILE", default=None,
                        help="run one subcommand per line of FILE, in file order")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("list", help="list catalog families")
    p.add_argument("--json", action="store_true")
    p.add_argument("--family", choices=FAMILY_NAMES, default=None, metavar="FAMILY")

    p = sub.add_parser("verify", help="certify shape invariance for a family")
    p.add_argument("family", choices=FAMILY_NAMES)
    _add_param_flags(p)
    p.add_argument("--grid", type=_grid_spec, default=None, metavar="LO:HI:N")
    p.add_argument("--tolerance", type=_tolerance, default=None,
                   help="an absolute bound on the residual, in place of 64 eps times "
                        "the largest sum of the magnitudes of the parts it is summed from")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("spectrum", help="algebraic spectrum, optional oracle check")
    p.add_argument("family", choices=FAMILY_NAMES)
    _add_param_flags(p)
    p.add_argument("-n", "--levels", type=int, default=4)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--offset", type=_finite, default=0.0,
                   help="additive shift applied to printed energies")
    p.add_argument("--points", type=int, default=129,
                   help="cap on the oracle's collocation size; it solves at 65 and 129 points")
    p.add_argument("--tolerance", type=_tolerance, default=1e-3)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("construct", help="build a superpotential from a seed")
    p.add_argument("--K", type=_finite, required=True)
    p.add_argument("--branch", choices=("linear", "sin", "cos", "sinh", "cosh"),
                   required=True)
    p.add_argument("--alpha", type=_finite, required=True)
    p.add_argument("--lambda", type=_finite, required=True, dest="lambda")
    p.add_argument("--slope", type=_finite, default=1.0)
    p.add_argument("--intercept", type=_finite, default=0.0)
    p.add_argument("--C", type=_finite, default=None)
    p.add_argument("--D", type=_finite, default=None)
    p.add_argument("--shift", type=_finite, default=None)
    p.add_argument("--grid", type=_grid_spec, default=(0.1, 3.0, 512), metavar="LO:HI:N")
    p.add_argument("--out", default=None)

    p = sub.add_parser("3d", help="axially symmetric partner fields from a seed")
    p.add_argument("--seed", required=True, metavar="a0=2,a1=1")
    p.add_argument("--lambda", type=_finite, required=True, dest="lambda")
    p.add_argument("--mu", type=_finite, required=True)
    p.add_argument("--region", type=_region_spec, default=None, metavar="RLO:RHI:TLO:THI")
    p.add_argument("--grid", type=_grid2d_spec, default=(128, 128), metavar="NRxNT")
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("radial", help="radial factorization and Bessel checks")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--check-bessel", action="store_true")
    p.add_argument("--grid", type=_grid_spec, default=(0.5, 20.0, 4096), metavar="LO:HI:N")
    p.add_argument("--out", default=None)
    return parser


_PARSER = None


def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use.

    Parsing only reads it: parse_args returns a fresh namespace each call,
    so jobs cannot leak options into each other.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


_HANDLERS = {
    "list": cmd_list,
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "construct": cmd_construct,
    "3d": cmd_3d,
    "radial": cmd_radial,
}


def run_command(argv, out, err=None, job=None) -> int:
    """Run one sip command line, writing its output to out.

    Usage errors go to err, sys.stderr by default; a --batch job passes its
    own section's stream, and its 1-based position as job, which names the
    directory its files go to; a job may not run a --batch itself.  --help
    goes to out.
    """
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, end="", file=sys.stderr if err is None else err)
        return EXIT_USAGE
    except _HelpRequested as exc:
        print(exc, end="", file=out)
        return EXIT_PASS
    if not (args.batch or args.command):
        parser.print_usage(out)
        return EXIT_USAGE
    args.job = job
    try:
        if args.batch:
            if job is not None:
                raise ValueError("nested --batch is not allowed")
            return _run_batch(args.batch, out)
        return _HANDLERS[args.command](args, out)
    except (KeyError, ValueError, MemoryError, ChildProcessError) as exc:
        print(f"error: {exc}", file=out)
        return EXIT_USAGE
    except ArithmeticError as exc:  # an input whose arithmetic overflows or divides by zero
        print(f"error: {type(exc).__name__}: {exc}", file=out)
        return EXIT_USAGE


def _run_job(line: str, job: int) -> tuple:
    """(exit code, transcript section) of the job-th line of a --batch."""
    import shlex

    out = StringIO()
    # split in its turn, so a line that cannot be split ends only its own job
    try:
        argv = shlex.split(line)
    except ValueError as exc:
        print(f"$ sip {line}\nerror: {exc}", file=out)
        code = EXIT_USAGE
    else:
        print(f"$ sip {' '.join(argv)}", file=out)
        code = run_command(argv, out, err=out, job=job)
    print(f"[exit {code}]", file=out)
    return code, out.getvalue()


def _worker_count(n_jobs: int) -> int:
    """Forked workers for a batch of n_jobs: one per usable CPU, at most one per job.

    1 runs the batch in this process: off Linux, and where another thread
    runs, whose locks a forked child could inherit held.
    """
    threading = sys.modules.get("threading")
    if sys.platform != "linux" or (threading is not None and threading.active_count() > 1):
        return 1
    return min(n_jobs, len(os.sched_getaffinity(0)))


def _run_batch(path: str, out) -> int:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None
    jobs = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
    workers = _worker_count(len(jobs))
    if workers > 1:
        codes = _run_forked(jobs, workers, out)
    else:
        codes = []
        for i, line in enumerate(jobs):
            code, section = _run_job(line, i + 1)
            out.write(section)
            codes.append(code)
    severity = {EXIT_PASS: 0, EXIT_TRUNCATED: 1, EXIT_FAIL: 2, EXIT_USAGE: 3}
    return max(codes, key=lambda code: severity.get(code, 3), default=EXIT_PASS)


def _run_forked(jobs: list, workers: int, out) -> list:
    """Run jobs in forked workers, print their sections in file order, return their codes.

    Workers take job indices from one pipe, ending at one past the last job,
    and answer on another in records of (index, exit code, length) and a
    piece of the section, each written atomically.  The parent adds an index
    per answer, so it holds only the sections that wait for an earlier one.
    """
    import select
    import signal
    import struct

    # numpy, which every job but list computes with: loaded here, the workers
    # share it, where each would otherwise import it again
    from . import sampling  # noqa: F401

    head = struct.Struct("<iiI")
    piece = select.PIPE_BUF - head.size
    for stream in (out, sys.stdout, sys.stderr):
        stream.flush()  # else a child could write the parent's buffered text again
    parent = os.getpid()
    todo_r, todo_w = os.pipe()
    answers_r, answers_w = os.pipe()
    pids, parts, held, codes = [], {}, {}, []

    def work():
        # a child's whole life: it ends in os._exit, on an exception too, since
        # unwinding would run the caller's code and the parent's cleanup here
        try:
            os.close(todo_w)
            os.close(answers_r)
            while os.getppid() == parent:
                index = int.from_bytes(os.read(todo_r, 4) or b"\xff" * 4, "little")
                if index >= len(jobs):  # no job left, or the parent has gone
                    break
                code, section = _run_job(jobs[index], index + 1)
                data = section.encode()
                for start in range(0, len(data) + 1, piece):  # the last piece is short
                    chunk = data[start:start + piece]
                    os.write(answers_w, head.pack(index, code, len(chunk)) + chunk)
        except BaseException:
            os._exit(1)
        os._exit(0)

    try:
        try:
            for _ in range(workers):
                pid = os.fork()
                if pid == 0:
                    work()
                pids.append(pid)
        finally:
            os.close(answers_w)
        issued = workers
        os.write(todo_w, b"".join(i.to_bytes(4, "little") for i in range(issued)))
        while record := os.read(answers_r, head.size):  # empty once every worker has ended
            index, code, size = head.unpack(record)
            parts.setdefault(index, []).append(os.read(answers_r, size))
            if size < piece:
                held[index] = code, b"".join(parts.pop(index)).decode()
                os.write(todo_w, issued.to_bytes(4, "little"))
                issued += 1
                while len(codes) in held:
                    code, section = held.pop(len(codes))
                    out.write(section)
                    codes.append(code)
        if len(codes) < len(jobs):
            for index in sorted(held):
                out.write(held[index][1])
            lost = [f"job {i + 1} ({jobs[i]})" for i in range(len(codes), len(jobs)) if i not in held]
            raise ChildProcessError(f"a --batch worker died; unfinished: {', '.join(lost)}")
        return codes
    finally:
        for fd in (todo_r, todo_w, answers_r):
            os.close(fd)
        for pid in pids:
            if len(codes) < len(jobs):  # ended early: stop the workers mid-job
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def main(argv=None) -> int:
    # The process ends with this command: freezing the ~20k objects numpy and shapeinv
    # made spares them the collections at interpreter exit, which free nothing it
    # needs, and ends a cold `sip` 10-20 ms sooner on a 2-CPU machine.
    atexit.register(gc.freeze)
    try:
        code = run_command(sys.argv[1:] if argv is None else argv, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (sip ... | head); point stdout at
        # devnull so that the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    return code


if __name__ == "__main__":
    sys.exit(main())
