"""Outside-in tracer for the shapeinv modules.

install() replaces each public function of each shapeinv module, in every
shapeinv.* namespace that holds it, with a wrapper that records a span:
(function, span id, parent span id, start, end, CPU seconds of its thread,
whether the parent ran on the same thread).  Functions imported by
name elsewhere (make_grid, verify_shape_invariance, ...) are found by
identity in every namespace, so their callers are covered too.  Each
thread keeps its own span stack; a span opened on a thread whose stack is
empty is parented to the span that is open at the bottom of the main
thread's stack, so the jobs of a --batch thread pool hang off their batch.
Spans stay in memory until spans() is read at the end of a run.

Callables that are not module-level functions, such as the W and W'
lambdas stored on a catalog family, are not wrapped: their time counts
toward the layer that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from array import array

import numpy as np

PACKAGE = "shapeinv"
MODULES = ("sampling", "catalog", "verify", "ansatz", "spectral", "oracle",
           "multidim", "radial", "cli")
#: methods traced besides the module-level functions
METHODS = ("cli.RunManifest.write",)
#: names the per-layer metrics read; absent ones are reported, not fatal
EXPECTED = (
    "cli.build_parser", "cli.run_command", "cli.RunManifest.write",
    "oracle.eigensolve", "oracle.convergence_factors", "oracle.compare_spectra",
    "spectral.algebraic_spectrum", "spectral.ground_state", "spectral.apply_A",
    "spectral.apply_Adagger", "verify.verify_shape_invariance", "verify.verify_qhj",
    "verify.verify_negation_condition", "verify.verify_generalized_si",
    "multidim.partner_fields", "multidim.fields_to_csv",
    "radial.spherical_bessel_oracle", "radial.intertwine_to_csv",
    "ansatz.pole_free_grid",
)
FIELDS = 7  # function, span id, parent id, start, end, thread CPU seconds, parent on this thread


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _grid_size(grid) -> int:
    return int(np.asarray(grid).size)


def _oracle_rows(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return {"oracle.points": cfg.n_points * (3 if cfg.check_convergence else 1)}


def _factor_rows(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    doublings = args[2] if len(args) > 2 else kwargs.get("doublings", 2)
    return {"oracle.points": cfg.n_points * (2 ** (doublings + 1) - 1)}


def _verify_points(signature):
    def hook(args, kwargs, result):
        grid = signature.bind(*args, **kwargs).arguments["grid"]
        return {"verify.points": _grid_size(grid), "verify.failed": int(not result.passed)}
    return hook


def _manifest_bytes(args, kwargs, result):
    manifest = args[0]
    return {"cli.artifact_bytes": _size(result) + sum(_size(p) for p in manifest.outputs)}


#: counters taken from the arguments and result of a traced call
HOOKS = {
    "oracle.eigensolve": _oracle_rows,
    "oracle.convergence_factors": _factor_rows,
    "oracle.compare_spectra": lambda a, k, r: {"oracle.failed": int(not r.passed)},
    "spectral.algebraic_spectrum": lambda a, k, r: {"spectral.truncated": int(r.truncated)},
    "spectral.ground_state": lambda a, k, r: {"spectral.points": _grid_size(r.x)},
    "spectral.apply_A": lambda a, k, r: {"spectral.points": _grid_size(r.x)},
    "spectral.apply_Adagger": lambda a, k, r: {"spectral.points": _grid_size(r.x)},
    "multidim.partner_fields": lambda a, k, r: {"multidim.cells": _grid_size(r[0])},
    "multidim.fields_to_csv": lambda a, k, r: {"multidim.csv_bytes": _size(a[0])},
    "ansatz.pole_free_grid": lambda a, k, r: {"ansatz.points": _grid_size(r[0])},
    "cli.RunManifest.write": _manifest_bytes,
}


class Tracer:
    def __init__(self):
        importlib.import_module(f"{PACKAGE}.cli")
        self.names: list = []
        self.missing: list = []
        self.counters: dict = {}
        self._swaps: list = []  # (module or class, attribute, original, wrapper)
        self._buffers: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._main = threading.main_thread().ident
        self._root = 0.0
        self._plan()

    # -- discovery ------------------------------------------------------------

    def _plan(self) -> None:
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        namespaces = [importlib.import_module(PACKAGE), *modules.values()]
        targets = []
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets.append((f"{short}.{name}", obj))
        for dotted in METHODS:
            short, cls_name, meth = dotted.split(".")
            cls = getattr(modules[short], cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if inspect.isfunction(fn):
                self._swaps.append((cls, meth, fn, self._wrap(dotted, fn)))
        for dotted, fn in targets:
            wrapper = self._wrap(dotted, fn)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        self._swaps.append((ns, attr, fn, wrapper))
        self.missing = [n for n in EXPECTED if n not in self.names]

    def _wrap(self, dotted: str, fn):
        index = float(len(self.names))
        self.names.append(dotted)
        hook = HOOKS.get(dotted)
        if dotted.startswith("verify.verify_"):
            hook = _verify_points(inspect.signature(fn))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.buffer = array("d")
                with tracer._lock:
                    tracer._buffers.append(local.buffer)
            sid = float(next(tracer._ids))
            same_thread = 1.0
            if stack:
                parent = stack[-1]
            elif threading.get_ident() == tracer._main:
                parent = 0.0
                tracer._root = sid
            else:
                parent, same_thread = tracer._root, 0.0
            stack.append(sid)
            cpu = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu
                stack.pop()
                local.buffer.extend((index, sid, parent, start, end, cpu, same_thread))
            if hook is not None:
                counts = hook(args, kwargs, result)
                with tracer._lock:
                    for key, value in counts.items():
                        tracer.counters[key] = tracer.counters.get(key, 0) + value
            return result

        return wrapper

    # -- switching --------------------------------------------------------------

    def install(self) -> None:
        for holder, attr, _, wrapper in self._swaps:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._swaps:
            setattr(holder, attr, original)

    def spans(self) -> np.ndarray:
        """All spans recorded so far as an (n, FIELDS) array."""
        with self._lock:
            flat = [np.frombuffer(b, dtype=float) for b in self._buffers if len(b)]
        if not flat:
            return np.zeros((0, FIELDS))
        return np.concatenate(flat).reshape(-1, FIELDS)


def self_cpu(spans: np.ndarray) -> np.ndarray:
    """Each span's thread CPU seconds minus those of its children on the same thread.

    This is the time a layer kept a processor busy: under the --batch
    thread pool a span's wall-clock duration also counts the time its
    thread waited for the interpreter lock.
    """
    if len(spans) == 0:
        return np.zeros(0)
    out = spans[:, 5].copy()
    row = {s: i for i, s in enumerate(spans[:, 1].tolist())}
    for parent, cpu, same in zip(spans[:, 2].tolist(), spans[:, 5].tolist(), spans[:, 6].tolist()):
        if same and parent in row:
            out[row[parent]] -= cpu
    return out


def summarize(spans: np.ndarray, names: list) -> dict:
    """Per-function calls, and total and self CPU seconds."""
    if len(spans) == 0:
        return {}
    cpu = self_cpu(spans)
    fn = spans[:, 0].astype(int)
    out = {}
    for i, name in enumerate(names):
        mask = fn == i
        if mask.any():
            out[name] = {"calls": int(mask.sum()),
                         "total_cpu_s": float(spans[mask, 5].sum()),
                         "self_cpu_s": float(cpu[mask].sum())}
    return out


def batch_speedup(spans: np.ndarray, names: list) -> list:
    """For each traced --batch: CPU seconds of its jobs over its wall time.

    A job's span on a pool thread is open while the thread waits for the
    interpreter lock, so the jobs' busy time, not their span length, is
    what a serial run would have needed.
    """
    if "cli.run_command" not in names or len(spans) == 0:
        return []
    rc = float(names.index("cli.run_command"))
    runs = spans[spans[:, 0] == rc]
    out = []
    for top in runs[runs[:, 2] == 0.0]:
        jobs = runs[runs[:, 2] == top[1]]
        if len(jobs):
            out.append(float(jobs[:, 5].sum() / (top[4] - top[3])))
    return out


#: the benchmark's own modules; their imports are not the program's
OWN_MODULES = ("tracer", "reference", "workloads")


def import_profile(stderr_text: str, stop: str | None = None) -> dict:
    """Seconds of all top-level imports, and of the outermost scipy imports,
    from the lines that python -X importtime writes to stderr.

    Lines from the line `stop` on, and the top-level imports of
    OWN_MODULES with everything they pull in, are left out.
    """
    entries, own = [], False
    for line in stderr_text.splitlines():
        if line == stop:
            break
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2].rstrip()
        depth = len(field) - len(field.lstrip())
        entries.append((depth, field.strip(), int(parts[1])))
    # importtime prints a module after its imports, so an own module's
    # children come just before it; drop them with it
    kept = []
    for depth, name, us in reversed(entries):
        if depth == 1:
            own = name in OWN_MODULES
        if not own:
            kept.append((depth, name, us))
    entries = kept[::-1]
    total = sum(us for depth, _, us in entries if depth == 1)
    scipy_us, stack = 0, []
    # importtime prints a module after its imports; reversed, parents come first
    for depth, name, us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy_us += us
        stack.append((depth, inside or is_scipy))
    return {"import.s": total / 1e6, "import.scipy_s": scipy_us / 1e6}
