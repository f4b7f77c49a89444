"""Command-line front end: sip.

Subcommands wrap the library modules with machine-readable output:

    sip list        catalog listing (table or JSON descriptors)
    sip verify      shape-invariance certification for one family
    sip spectrum    algebraic bound-state energies, optional oracle column
    sip construct   seed-based superpotential construction, files + manifest
    sip 3d          axially symmetric partner fields and ladder certificate
    sip radial      measure-weighted factorization demos and Bessel checks

Exit codes: 0 pass, 1 verification failure, 2 usage or validation error,
3 truncated-but-valid ladder.  All numbers print with 12 significant
digits; JSON is key-sorted and byte-deterministic for fixed inputs.
File-producing commands write into --out (or $SIP_OUT_DIR, default
./sip-out) along with a run manifest.  --batch runs one command per line
of a job file in file order and prints each one's output in its own
section.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import ansatz, multidim, oracle, radial, spectral
from .catalog import (
    DomainViolation,
    InvalidParameters,
    FAMILY_NAMES,
    family_descriptor,
    get_family,
    list_families,
)
from .sampling import make_grid, write_csv
from .verify import ANALYTIC_TOL, verify_shape_invariance

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


def _out_dir(args) -> Path:
    root = getattr(args, "out", None) or os.environ.get("SIP_OUT_DIR") or "sip-out"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


@dataclass
class RunManifest:
    command: str
    inputs: dict
    outputs: list
    all_passed: bool
    tool_version: str = __version__

    def write(self, directory: Path) -> Path:
        path = directory / "manifest.json"
        path.write_text(_dump_json(asdict(self)) + "\n")
        return path


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


def cmd_verify(args, out) -> int:
    fam = get_family(args.family)
    p = _collect_params(args, fam)
    fam.validate(p)
    dom = fam.domain(p)
    if args.grid:
        lo, hi, n = args.grid
        dom.require_grid(lo, hi)
    else:
        lo, hi = dom.si_interval
        n = 512
    report = verify_shape_invariance(
        fam.W, fam.Wprime, p, fam.tau, make_grid(lo, hi, n), tolerance=args.tolerance
    )
    if args.json:
        print(_dump_json(report.to_json()), file=out)
    else:
        print(f"family:             {fam.name}", file=out)
        print(f"parameters:         {{{', '.join(f'{k}: {_fmt(v)}' for k, v in p.items())}}}", file=out)
        print(f"estimated constant: {_fmt(report.estimated_constant)}", file=out)
        print(f"stored shift:       {_fmt(fam.R(p))}", file=out)
        print(f"max residual:       {_fmt(report.max_residual)}", file=out)
        print(f"passed:             {report.passed} (tolerance {_fmt(report.tolerance)})", file=out)
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_spectrum(args, out) -> int:
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
        dom = fam.domain(p)
        box = dom.oracle_box if args.box is None else tuple(args.box)
        dom.require_box(*box)
        cfg = oracle.OracleConfig(box=box, n_points=args.points,
                                  n_levels=len(spec.energies))
        res = oracle.eigensolve(lambda x: fam.W(p, x) ** 2 - fam.Wprime(p, x), cfg)
        comparison = oracle.compare_spectra(spec, res.spectrum, mode="relative-gap",
                                            tolerance=args.tolerance)
        payload["oracle"] = res.spectrum.to_json()
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
    cons = ansatz.construct_case(args.K, args.branch, args.alpha, getattr(args, "lambda"),
                                 slope=args.slope, intercept=args.intercept)
    if args.C is not None or args.D is not None:
        cons = ansatz.extend_second_solution(cons, args.C or 0.0, args.D or 0.0)
    if args.shift is not None:
        cons = ansatz.extend_constant_shift(cons, args.shift)
    grid, poles = ansatz.pole_free_grid(cons, *args.grid)
    report = verify_shape_invariance(cons.W_at, cons.Wprime_at, cons.lam, cons.tau,
                                     grid, tolerance=ANALYTIC_TOL)
    descriptor = cons.to_json()
    descriptor["energy_shift"] = cons.energy_shift()
    descriptor["shape_invariance"] = report.to_json()
    descriptor["poles_excluded"] = poles
    outdir = _out_dir(args)
    desc_path = outdir / "constructed.json"
    desc_path.write_text(_dump_json(descriptor) + "\n")
    csv_path = outdir / "superpotential.csv"
    write_csv(csv_path, ["x", "W"], [grid, cons.W(grid)], eol="\n")
    manifest = RunManifest(
        command="construct",
        inputs={"K": args.K, "branch": args.branch, "alpha": args.alpha,
                "lambda": getattr(args, "lambda"), "C": args.C, "D": args.D,
                "shift": args.shift},
        outputs=[str(desc_path), str(csv_path)],
        all_passed=report.passed,
    )
    manifest.write(outdir)
    print(_dump_json(descriptor), file=out)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _parse_seed(spec: str):
    """'a0=2,a1=1,b0=0.5' -> [(0, 2.0, 0.0), (1, 1.0, 0.0), (0, 0, 0.5)] merged."""
    terms = {}
    for chunk in spec.split(","):
        key, _, val = chunk.partition("=")
        key = key.strip()
        kind, degree = key[0], key[1:]
        if kind not in ("a", "b") or not degree.isdigit():
            raise ValueError(f"bad seed coefficient {key!r} (want a<n>= or b<n>=)")
        n = int(degree)
        a, b = terms.get(n, (0.0, 0.0))
        if kind == "a":
            a = float(val)
        else:
            b = float(val)
        terms[n] = (a, b)
    return [(n, a, b) for n, (a, b) in sorted(terms.items())]


def cmd_3d(args, out) -> int:
    terms = _parse_seed(args.seed)
    region = multidim.DEFAULT_REGION
    if args.region:
        r0, r1, t0, t1 = (float(v) for v in args.region.split(":"))
        region = multidim.Region(r0, r1, t0, t1)
    chi = multidim.laplace_seed(terms, region)
    grid2d = multidim.make_grid2d(region, *args.grid)
    lam, mu = getattr(args, "lambda"), args.mu
    ric = multidim.prepotential_riccati_residual(chi, grid2d)
    vm, vp, report = multidim.partner_fields(chi, lam, grid2d, mu=mu)
    outdir = _out_dir(args)
    csv_path = outdir / "fields.csv"
    multidim.fields_to_csv(csv_path, grid2d, vm, vp)
    manifest_payload = multidim.seed_manifest(chi, lam)
    manifest_payload["mu"] = mu
    manifest_payload["riccati_residual"] = ric
    manifest_payload["shape_invariance"] = report.to_json()
    json_path = outdir / "seed.json"
    json_path.write_text(_dump_json(manifest_payload) + "\n")
    manifest = RunManifest(
        command="3d",
        inputs={"seed": args.seed, "lambda": lam, "mu": mu},
        outputs=[str(csv_path), str(json_path)],
        all_passed=report.passed and ric < 1e-8,
    )
    manifest.write(outdir)
    if args.json:
        print(_dump_json(manifest_payload), file=out)
    else:
        print(f"seed terms:        {terms}", file=out)
        print(f"riccati residual:  {_fmt(ric)}", file=out)
        print(f"ladder constant:   {_fmt(report.estimated_constant)}", file=out)
        print(f"max deviation:     {_fmt(report.max_residual)}", file=out)
        print(f"passed:            {report.passed}", file=out)
    return EXIT_PASS if manifest.all_passed else EXIT_FAIL


def cmd_radial(args, out) -> int:
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
        j = [radial.spherical_bessel_oracle(l, probes)[0].reshape(3, -1) for l in range(6)]
        for l in range(1, 6):
            jp = (j[l][0] - j[l][1]) / (2 * h)
            worst = float(np.max(np.abs(jp + (l + 1) / rvals * j[l][2] - j[l - 1][2])))
            ok = worst < 1e-8
            all_ok &= ok
            rows.append((l, worst, ok))
        print(f"{'ell':>4}  {'max recurrence residual':>24}  pass", file=out)
        for l, worst, ok in rows:
            print(f"{l:>4}  {_fmt(worst):>24}  {ok}", file=out)
    r = make_grid(*args.grid)
    psi = radial.spherical_bessel_oracle(ell, r)[0]
    lowered = radial.radial_intertwine(ell, spectral.Wavefunction(x=r, values=psi, level=ell))
    reference = radial.spherical_bessel_oracle(ell - 1, r)[0]
    dev = float(np.max(np.abs(lowered.values - reference)) / np.max(np.abs(reference)))
    ok = dev < 1e-5
    all_ok &= ok
    print(f"intertwine j{ell} -> j{ell - 1}: max deviation {_fmt(dev)} pass {ok}", file=out)
    outdir = _out_dir(args)
    csv_path = outdir / "intertwine.csv"
    radial.intertwine_to_csv(csv_path, r, psi, lowered.values, reference)
    manifest = RunManifest(
        command="radial",
        inputs={"ell": ell, "check_bessel": bool(args.check_bessel)},
        outputs=[str(csv_path)],
        all_passed=bool(all_ok),
    )
    manifest.write(outdir)
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
    """ArgumentParser that hands usage errors and --help to its caller.

    argparse prints them to sys.stderr and sys.stdout and exits; raising
    instead lets run_command write them to the stream of the job that made
    them.  Subparsers inherit the class.
    """

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
    p.add_argument("--family", default=None)

    p = sub.add_parser("verify", help="certify shape invariance for a family")
    p.add_argument("family", choices=FAMILY_NAMES)
    _add_param_flags(p)
    p.add_argument("--grid", type=_grid_spec, default=None, metavar="LO:HI:N")
    p.add_argument("--tolerance", type=_tolerance, default=ANALYTIC_TOL)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("spectrum", help="algebraic spectrum, optional oracle check")
    p.add_argument("family", choices=FAMILY_NAMES)
    _add_param_flags(p)
    p.add_argument("-n", "--levels", type=int, default=4)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--offset", type=_finite, default=0.0,
                   help="additive shift applied to printed energies")
    p.add_argument("--box", nargs=2, type=float, default=None, metavar=("LO", "HI"))
    p.add_argument("--points", type=int, default=2000)
    p.add_argument("--tolerance", type=_tolerance, default=1e-3)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("construct", help="build a superpotential from a seed")
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--branch", choices=("linear", "sin", "cos", "sinh", "cosh"),
                   required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--lambda", type=float, required=True, dest="lambda")
    p.add_argument("--slope", type=float, default=1.0)
    p.add_argument("--intercept", type=float, default=0.0)
    p.add_argument("--C", type=float, default=None)
    p.add_argument("--D", type=float, default=None)
    p.add_argument("--shift", type=float, default=None)
    p.add_argument("--grid", type=_grid_spec, default=(0.1, 3.0, 512), metavar="LO:HI:N")
    p.add_argument("--out", default=None)

    p = sub.add_parser("3d", help="axially symmetric partner fields from a seed")
    p.add_argument("--seed", required=True, metavar="a0=2,a1=1")
    p.add_argument("--lambda", type=float, required=True, dest="lambda")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--region", default=None, metavar="RLO:RHI:TLO:THI")
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


def run_command(argv, out, err=None) -> int:
    """Run one sip command line, writing its output to out.

    Usage errors go to err, sys.stderr by default; a --batch job passes its
    own section's stream.  --help goes to out.
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
    if args.batch:
        return _run_batch(args.batch, out)
    if not args.command:
        parser.print_usage(out)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args, out)
    except (InvalidParameters, DomainViolation, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=out)
        return EXIT_USAGE


def _selects_batch(argv) -> bool:
    """Whether argv selects --batch, also spelled --batch=FILE or --bat.

    The top-level parser reads only the options before the subcommand, and
    --batch is the only one of them that starts with --b.
    """
    for arg in argv:
        if not arg.startswith("-"):
            return False
        if arg.startswith("--b"):
            return True
    return False


def _run_batch(path: str, out) -> int:
    import shlex

    lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
    jobs = [shlex.split(ln) for ln in lines if ln and not ln.startswith("#")]
    severity = {EXIT_PASS: 0, EXIT_TRUNCATED: 1, EXIT_FAIL: 2, EXIT_USAGE: 3}
    worst = EXIT_PASS
    for argv in jobs:
        print(f"$ sip {' '.join(argv)}", file=out)
        if _selects_batch(argv):
            print("error: nested --batch is not allowed", file=out)
            code = EXIT_USAGE
        else:
            code = run_command(argv, out, err=out)
        print(f"[exit {code}]", file=out)
        if severity.get(code, 3) > severity.get(worst, 3):
            worst = code
    return worst


def main(argv=None) -> int:
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
