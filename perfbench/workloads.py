"""Seeded inputs for the three workloads.

Everything here is a pure function of a random.Random built from the
run's --seed: the same seed gives the same parameter points, command
lines and grids.  Parameters are drawn from each family's whole valid
region inside the ranges stated in RANGES; they are rounded to four
decimals so that the command line and the library see the same numbers.
"""

from __future__ import annotations

import itertools
import math
import random

from reference import FAMILIES, energies

#: stated sampling ranges; B is drawn relative to A where the region couples them
RANGES = {
    "shifted-oscillator": "omega in [0.5, 8], b in [-4, 4]",
    "radial-oscillator": "omega in [0.5, 8], ell in [0, 6]",
    "coulomb": "e2 in [0.5, 8], ell in [0, 6]",
    "morse": "A in [0.5, 40], B in [0.5, 40], a in [0.25, 2]",
    "scarf-II-hyperbolic": "A in [0.5, 10], B in [-10, 10], a in [0.25, 2]",
    "rosen-morse-II-hyperbolic": "A in [0.5, 10], B in (-A^2, A^2), a in [0.25, 2]",
    "eckart": "A in [0.25, 4], B in (A^2, A^2 + 30], a in [0.25, 2]",
    "scarf-I-trigonometric": "A in [0.5, 10], B in (-A, A), a in [0.25, 4] log-uniform",
    "gen-poschl-teller": "A in [0.5, 10], B in (A, A + 10], a in [0.25, 2]",
    "rosen-morse-I-trigonometric": "A in [0.5, 10], B in [-10, 10], a in [0.25, 4] log-uniform",
}

SUBCOMMANDS = ("list", "verify", "spectrum", "construct", "3d", "radial")
BRANCHES = ("linear", "sin", "cos", "sinh", "cosh")


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _log_u(rng: random.Random, lo: float, hi: float) -> float:
    return round(math.exp(rng.uniform(math.log(lo), math.log(hi))), 4)


def _inside(rng: random.Random, lo: float, hi: float) -> float:
    """Uniform on the open interval (lo, hi), kept off both ends after rounding."""
    pad = 1e-3 * (hi - lo)
    return round(rng.uniform(lo + pad, hi - pad), 4)


def sample_params(fam: str, rng: random.Random) -> dict:
    if fam == "shifted-oscillator":
        return {"omega": _u(rng, 0.5, 8), "b": _u(rng, -4, 4)}
    if fam == "radial-oscillator":
        return {"omega": _u(rng, 0.5, 8), "ell": _u(rng, 0, 6)}
    if fam == "coulomb":
        return {"e2": _u(rng, 0.5, 8), "ell": _u(rng, 0, 6)}
    if fam == "morse":
        return {"A": _u(rng, 0.5, 40), "B": _u(rng, 0.5, 40), "a": _u(rng, 0.25, 2)}
    if fam == "scarf-II-hyperbolic":
        return {"A": _u(rng, 0.5, 10), "B": _u(rng, -10, 10), "a": _u(rng, 0.25, 2)}
    if fam == "rosen-morse-II-hyperbolic":
        A = _u(rng, 0.5, 10)
        return {"A": A, "B": _inside(rng, -A * A, A * A), "a": _u(rng, 0.25, 2)}
    if fam == "eckart":
        A = _u(rng, 0.25, 4)
        return {"A": A, "B": _inside(rng, A * A, A * A + 30), "a": _u(rng, 0.25, 2)}
    if fam == "scarf-I-trigonometric":
        A = _u(rng, 0.5, 10)
        return {"A": A, "B": _inside(rng, -A, A), "a": _log_u(rng, 0.25, 4)}
    if fam == "gen-poschl-teller":
        A = _u(rng, 0.5, 10)
        return {"A": A, "B": _inside(rng, A, A + 10), "a": _u(rng, 0.25, 2)}
    if fam == "rosen-morse-I-trigonometric":
        return {"A": _u(rng, 0.5, 10), "B": _u(rng, -10, 10), "a": _log_u(rng, 0.25, 4)}
    raise KeyError(fam)


def param_flags(p: dict) -> list:
    return [f"--{k}={v!r}" for k, v in p.items()]


# ---------------------------------------------------------------------------
# ladder grids: the benchmark's own table, from the domain and parameters
# ---------------------------------------------------------------------------

DECAY = 40.0  # e-folds of the slowest-decaying rung kept inside the grid
STEP_PHASE = 0.05  # grid step times the top level's wavenumber


def ladder_grid(fam: str, p: dict, n_levels: int, domain) -> tuple:
    """(lo, hi, n): a uniform grid holding the first n_levels ladder states.

    Infinite ends sit DECAY e-folds past the classical region of the top
    rung's ground state (its decay rate is the asymptotic |W| of that
    rung).  Open ends at a pole of W sit 1% of the way to the innermost
    peak, where W = 0 for the lowest rung, or 0.1% of a finite domain in
    from its walls.  The step puts STEP_PHASE radians of the top level's
    oscillation between points: the ladder differentiates once per rung,
    so finer grids amplify rounding and coarser ones truncation.
    """
    levels, _ = energies(fam, p, n_levels)
    top = len(levels) - 1
    lo, hi, k = _ladder_interval(fam, p, top, domain)
    k = max(k, 2.0 * math.sqrt(max(levels[-1], 1.0)))
    n = int(min(max((hi - lo) * k / STEP_PHASE, 1001), 20001))
    return lo, hi, n


def _ladder_interval(fam: str, p: dict, top: int, domain) -> tuple:
    """(lo, hi, k): interval and the wavenumber of its sharpest feature
    besides the top level's oscillation (the inverse of the innermost
    peak's distance from a pole of W, or 0)."""
    if fam == "shifted-oscillator":
        w, b = p["omega"], p["b"]
        x0, scale = 2 * b / w, math.sqrt(2 / w)
        half = scale * (math.sqrt(2 * top + 3) + math.sqrt(2 * DECAY))
        return x0 - half, x0 + half, 0.0
    if fam == "radial-oscillator":
        w, ell = p["omega"], p["ell"]
        scale = math.sqrt(2 / w)
        hi = scale * (math.sqrt(4 * top + 2 * ell + 7) + math.sqrt(2 * DECAY))
        peak = math.sqrt(2 * (ell + 1) / w)
        return 0.01 * peak, hi, 1 / peak
    if fam == "coulomb":
        e2, ell = p["e2"], p["ell"]
        N = top + ell + 1  # principal quantum number of the top rung
        hi = (2 * N / e2) * (2 * N + DECAY)
        peak = 2 * (ell + 1) ** 2 / e2
        return 0.01 * peak, hi, 1 / peak
    A, B, a = p["A"], p["B"], p["a"]
    cap = 400.0 / a
    if fam == "morse":
        An = A - top * a
        x_min = math.log(B / A) / a
        lo = -math.log(DECAY * a / B) / a if B > DECAY * a else x_min - 4 / a
        return min(lo, x_min - 4 / a), x_min + min(DECAY / An + 4 / a, cap), 0.0
    if fam == "scarf-II-hyperbolic":
        An = A - top * a
        half = abs(math.asinh(B / An)) / a + min(DECAY / An, cap) + 4 / a
        return -half, half, 0.0
    if fam == "rosen-morse-II-hyperbolic":
        An = A - top * a
        x0 = math.atanh(-B / An**2) / a
        half = min(DECAY / (An - abs(B) / An), cap) + 4 / a
        return x0 - half, x0 + half, 0.0
    if fam == "eckart":
        An = A + top * a
        hi = min(DECAY / (B / An - An), cap) + 4 / a
        peak = math.atanh(A * A / B) / a
        return 0.01 * peak, hi, 1 / peak
    if fam == "gen-poschl-teller":
        An = A - top * a
        hi = min(DECAY / An, cap) + 2 * math.log(1 + B / An) / a + 4 / a
        peak = math.acosh(B / A) / a
        return 0.01 * peak, hi, 1 / peak
    if fam in ("scarf-I-trigonometric", "rosen-morse-I-trigonometric"):
        pad = 1e-3 * (domain.hi - domain.lo)
        return domain.lo + pad, domain.hi - pad, 0.0
    raise KeyError(fam)


# ---------------------------------------------------------------------------
# command lines
# ---------------------------------------------------------------------------

def family_job(rng: random.Random, index: int) -> tuple:
    fam = FAMILIES[index % len(FAMILIES)]
    return fam, sample_params(fam, rng)


def construct_argv(rng: random.Random, grid: str | None = None) -> tuple:
    branch = rng.choice(BRANCHES)
    K = 0.0 if branch == "linear" else _u(rng, 0.25, 4) * (1 if branch in ("sin", "cos") else -1)
    alpha, lam = _u(rng, 0.25, 2), _u(rng, 0.5, 4)
    argv = ["construct", "--K", repr(K), "--branch", branch,
            "--alpha", repr(alpha), "--lambda", repr(lam)]
    if grid:
        argv += ["--grid", grid]
    return argv, {"K": K, "alpha": alpha, "lambda": lam}


def seed_3d_argv(rng: random.Random, grid: str | None = None) -> tuple:
    # chi = a0 + a1 r cos(theta) + b0 / r stays positive on the default region
    a0, a1, b0 = _u(rng, 2, 4), _u(rng, -1, 1), _u(rng, 0, 1)
    lam = _u(rng, 1.5, 4)
    mu = round(lam - 1, 4)
    argv = ["3d", "--seed", f"a0={a0!r},a1={a1!r},b0={b0!r}",
            "--lambda", repr(lam), "--mu", repr(mu), "--json"]
    if grid:
        argv += ["--grid", grid]
    return argv, {"lambda": lam, "mu": mu}


def radial_argv(ell: int, grid: str | None = None) -> tuple:
    argv = ["radial", "--ell", str(ell), "--check-bessel"]
    if grid:
        argv += ["--grid", grid]
    return argv, {"ell": ell}


def strata(rng: random.Random, lo: int, hi: int, k: int) -> list:
    """k integers in [lo, hi], one from each of k equal strata, in random order."""
    width = (hi - lo + 1) / k
    vals = [lo + int(i * width + rng.random() * width) for i in range(k)]
    rng.shuffle(vals)
    return vals


def cold_ops(rng: random.Random, defaults: dict):
    """Endless cold-cli operations in blocks of seven, each in a seeded order.

    A block runs each of the six subcommands once, verify and spectrum at
    a seeded parameter point of the next families in turn, and one more
    spectrum --oracle at the documented default parameters of the next
    family in a second rotation, given in `defaults` (family -> parameters).
    The baseline's list of failing operations starts at defaults (the
    Eckart and Rosen-Morse I oracles), so each family's defaults come up
    once every ten blocks; this weight is set by that coverage, not by
    measured usage.  Yields (kind, argv without --out, expectation); sizes
    are the documented defaults.
    """
    fam_index = rng.randrange(len(FAMILIES))
    default_index = rng.randrange(len(FAMILIES))
    ells = []
    while True:
        if not ells:
            ells = strata(rng, 1, 25, 5)
        block = [*SUBCOMMANDS, "spectrum-defaults"]
        rng.shuffle(block)
        for kind in block:
            if kind == "list":
                yield kind, ["list", "--json"], {}
            elif kind == "spectrum-defaults":
                fam = FAMILIES[default_index % len(FAMILIES)]
                default_index += 1
                yield "spectrum", ["spectrum", fam, "--oracle", "--json"], \
                    {"family": fam, "params": dict(defaults[fam]), "levels": 4}
            elif kind in ("verify", "spectrum"):
                fam, p = family_job(rng, fam_index)
                fam_index += 1
                extra = ["--oracle"] if kind == "spectrum" else []
                yield kind, [kind, fam, *param_flags(p), *extra, "--json"], \
                    {"family": fam, "params": p, "levels": 4}
            elif kind == "construct":
                yield (kind, *construct_argv(rng))
            elif kind == "3d":
                yield (kind, *seed_3d_argv(rng))
            else:
                yield (kind, *radial_argv(ells.pop()))


SWEEP_LEVELS = (2, 3, 4, 5, 6)
SWEEP_POINTS = (2000, 4000, 8000)


def sweep_jobs(rng: random.Random):
    """Endless certification jobs, families round-robin.

    Ladder depth and oracle size, which set a job's cost, run through all
    fifteen pairs in a fresh seeded order every fifteen jobs, so that every
    run holds the same mix of cheap and costly jobs.
    """
    sizes = []
    for i in itertools.count():
        if not sizes:
            sizes = [(L, N) for L in SWEEP_LEVELS for N in SWEEP_POINTS]
            rng.shuffle(sizes)
        fam, p = family_job(rng, i)
        L, N = sizes.pop()
        yield {"family": fam, "params": p, "levels": L, "points": N}


BATCH_COUNTS = {"3d": 2, "radial": 2, "construct": 6, "spectrum": 6}


def batch_jobs(rng: random.Random) -> dict:
    """The run's 16 batch jobs, BATCH_COUNTS of each kind, at batch sizes.

    Every batch of a run holds these same jobs, so that batch times vary
    with the program and not with which jobs a batch drew.  A radial job's
    cost grows about linearly with ell, so its two degrees are drawn as the
    pair (k, 26 - k): every run then costs the same in Bessel work while
    the seeds still cover ell = 1..25.
    """
    k = rng.randint(1, 13)
    jobs = {"radial": [radial_argv(ell, "0.5:20:8192") for ell in (k, 26 - k)],
            "3d": [seed_3d_argv(rng, "256x256") for _ in range(BATCH_COUNTS["3d"])],
            "construct": [], "spectrum": []}
    for _ in range(BATCH_COUNTS["construct"]):
        lo, hi = _u(rng, 0.05, 0.5), _u(rng, 2, 4)
        jobs["construct"].append(construct_argv(rng, f"{lo!r}:{hi!r}:20000"))
    for _ in range(BATCH_COUNTS["spectrum"]):
        fam, p = family_job(rng, rng.randrange(len(FAMILIES)))
        argv = ["spectrum", fam, *param_flags(p), "--oracle", "--points", "8000", "--json"]
        jobs["spectrum"].append((argv, {"family": fam, "params": p, "levels": 4}))
    return jobs


def batch_order(rng: random.Random) -> list:
    """The order of one batch file: every (kind, index) once, shuffled."""
    picks = [(kind, i) for kind, count in BATCH_COUNTS.items() for i in range(count)]
    rng.shuffle(picks)
    return picks
