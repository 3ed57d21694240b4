"""Layer spans and exact counters for the traced benchmark run.

The tracer wraps the public functions of each opkern layer from outside;
nothing under ``src/`` knows about it.  A wrapped function is rebound on
every ``opkern.*`` module that holds it, because ``cli``, ``dilation``,
``transfer``, ``gaussian`` and ``specio`` import functions by name.  The
``linalg`` layer stands for the ``numpy.linalg`` / ``scipy.linalg`` calls
made directly from opkern code; calls from numpy, scipy or the benchmark
itself pass through uncounted.

Every span records its name, start, end, parent span and the id of the
CLI job it belongs to.  Spans stay in memory until the run writes them out.
Only the outermost specio call is a span: a specio wrapper runs a copy of
the function whose globals resolve the other specio functions to copies
as well, so recursion (``specio.array_to_json``) and specio-internal calls
never reach a wrapper and cost nothing extra.  Wrappers return exactly
what the wrapped function returns, so program output is unchanged.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import os
import statistics
import sys
import types
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "specio", "kernels", "dilation", "transfer", "gaussian", "regression")
LINALG = ("eigh", "eigvalsh", "svd", "pinv", "solve", "inv", "norm")
# Every per-layer metric, with its unit; BENCHMARK.json declares a subset.
LAYER_UNITS = {
    "cli.self_s": "s", "cli.report_bytes": "bytes",
    "specio.read.self_s": "s", "specio.read.bytes": "bytes",
    "specio.write.self_s": "s", "specio.write.values": "values",
    "specio.path_batch_to_csv.rows_per_s": "rows/s",
    "kernels.table_init.calls": "count", "kernels.table_init.self_s": "s",
    "kernels.is_positive_definite.calls": "count", "kernels.is_positive_definite.self_s": "s",
    "kernels.flatten.calls": "count", "kernels.flat.accesses": "count", "kernels.flat_cache.hit_ratio": "ratio",
    "dilation.kolmogorov_factorize.calls": "count", "dilation.kolmogorov_factorize.self_s": "s",
    "dilation.factorize.repeat_ratio": "ratio",
    **{f"transfer.{f}.self_s": "s" for f in (
        "validate_system", "construct_partial_isometry", "transfer_function", "verify_realization",
        "transitive_action_check", "radon_nikodym", "verify_rn_transfer_identity")},
    "transfer.construct_partial_isometry.calls": "count", "transfer.transfer_function.calls": "count",
    "gaussian.standard_normal_rows.self_s": "s", "gaussian.normals": "count",
    "gaussian.draw_paths.self_s": "s", "gaussian.draw_paths.flop": "flop_computed",
    "gaussian.draw_paths.gflop_per_s": "GFLOP/s",
    **{f"gaussian.{f}.self_s": "s" for f in ("assemble_joint", "condition", "mc_verify_conditional")},
    "regression.design_matrices.self_s": "s", "regression.krr_fit.self_s": "s",
    "regression.predict.calls": "count", "regression.predict.self_s": "s", "regression.predict.us_per_call": "us",
    **{f"linalg.{f}.calls": "count" for f in (
        "eigh", "eigvalsh", "svd", "pinv", "solve", "inv", "norm", "norm_spectral", "subspace_angles")},
    "linalg.self_s": "s", "linalg.spectral_decomps_per_gram": "ratio",
    "trace.overhead_pct": "%", "trace.count_mismatches": "count",
}

SPECIO_READ = frozenset({
    "load_json", "json_to_array", "kernel_from_spec", "system_from_spec",
    "pair_from_spec", "joint_from_spec", "training_set_from_csv",
})


def _digest(a) -> bytes:
    a = np.ascontiguousarray(a)
    h = hashlib.blake2b(repr((a.shape, a.dtype.str)).encode(), digest_size=16)
    h.update(a.view(np.uint8).reshape(-1))
    return h.digest()


def _first(args, kwargs):
    """The first argument of a call; every counted function takes the
    object it measures first."""
    return args[0] if args else next(iter(kwargs.values()))


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Counters recorded at the outermost call of a function: fn, args, kwargs -> {counter: increment}.
def _read_file(fn, args, kwargs):
    return {"specio.read.bytes": os.path.getsize(_first(args, kwargs))}


def _read_text(fn, args, kwargs):
    return {"specio.read.bytes": len(_first(args, kwargs).encode("utf-8"))}


def _written(size):
    def count(fn, args, kwargs):
        return {"specio.write.values": int(size(_first(args, kwargs)))}
    return count


def _csv_written(fn, args, kwargs):
    batch = _first(args, kwargs)
    return {"specio.write.values": int(batch.paths.size), "specio.path_batch_to_csv.rows": int(batch.paths.size)}


def _normals(fn, args, kwargs):
    a = _arguments(fn, args, kwargs)
    return {"gaussian.normals": int(a["count"]) * int(a["width"])}


def _spectral_norm(fn, args, kwargs):
    x = args[0] if args else kwargs.get("x")
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    return {"linalg.norm_spectral.calls": int(ord_ == 2 and np.ndim(x) == 2)}


def _path_flop(fn, args, kwargs):
    a = _arguments(fn, args, kwargs)
    fs = a["fs"]
    return {"gaussian.draw_paths.flop": 4 * int(a["count"]) * fs.dilation_dim * fs.label_set.n * fs.dim_h}


COUNTERS = {
    "specio.load_json": _read_file,
    "specio.training_set_from_csv": _read_text,
    "specio.complex_to_pair": _written(lambda z: 1),
    "specio.array_to_json": _written(lambda a: np.asarray(a).size),
    "specio.feature_system_to_json": _written(lambda fs: fs.stacked.size + fs.basis_eigs.size),
    "specio.kernel_to_spec": _written(lambda t: t.blocks.size),
    "specio.training_set_to_csv": _written(lambda t: t.vectors.size + t.targets.size),
    "specio.path_batch_to_csv": _csv_written,
    "gaussian.standard_normal_rows": _normals,
    "gaussian.draw_paths": _path_flop,
    "linalg.norm": _spectral_norm,
}

# Functions whose input matrices are hashed, to count distinct inputs.
DISTINCT = {
    "dilation.kolmogorov_factorize": ("dilation.kolmogorov_factorize", lambda a: a.blocks),
    "linalg.eigh": ("linalg.spectral", lambda a: a),
    "linalg.eigvalsh": ("linalg.spectral", lambda a: a),
}


class Tracer:
    """Collects spans and exact counts while ``job`` is set."""

    def __init__(self):
        self.spans: list[tuple] = []  # (job, span id, parent id, name, t0, t1)
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.job = None
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._first_span = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, opkern_callers_only: bool = False, call=None):
        """Wrapper that records a span for ``name`` and then runs ``call``
        (default ``fn``); counters see the arguments as ``fn`` takes them."""
        tracer = self
        call = fn if call is None else call
        counter = COUNTERS.get(name)
        distinct = DISTINCT.get(name)

        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            if opkern_callers_only and not sys._getframe(1).f_globals.get("__name__", "").startswith("opkern"):
                return fn(*args, **kwargs)
            stack = tracer._stack
            tracer.counts[name + ".calls"] += 1
            if counter is not None:
                tracer.counts.update(counter(fn, args, kwargs))
            if distinct is not None:
                key, pick = distinct
                tracer.distinct[key].add(_digest(pick(_first(args, kwargs))))
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append((sid, name))
            t0 = perf_counter()
            try:
                return call(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((tracer.job, sid, parent, name, t0, t1))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer; undone by :meth:`uninstall`."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        opkern_modules = [m for k, m in sys.modules.items() if m is not None and k.split(".")[0] == "opkern"]
        specio = importlib.import_module("opkern.specio")
        shadow: dict = {}  # globals of the specio copies, filled once every layer is wrapped
        for layer in LAYERS:
            mod = importlib.import_module(f"opkern.{layer}")
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                call = None
                if mod is specio:
                    call = types.FunctionType(fn.__code__, shadow, fn.__name__, fn.__defaults__, fn.__closure__)
                    call.__kwdefaults__ = fn.__kwdefaults__
                    shadow[fname] = call
                wrapper = self._wrap(f"{layer}.{fname}", fn, call=call)
                for holder in opkern_modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, attr, wrapper)
        shadow.update({k: v for k, v in vars(specio).items() if k not in shadow})

        from opkern.kernels import OperatorKernelTable

        self._patch(OperatorKernelTable, "__init__", self._wrap("kernels.table_init", OperatorKernelTable.__init__))
        flat_prop = OperatorKernelTable.__dict__["flat"]
        tracer = self

        def flat(table):
            # A hit is an access that did not have to call flatten.
            if tracer.job is None:
                return flat_prop.fget(table)
            misses = tracer.counts["kernels.flatten.calls"]
            value = flat_prop.fget(table)
            tracer.counts["kernels.flat.accesses"] += 1
            tracer.counts["kernels.flat.hits"] += tracer.counts["kernels.flatten.calls"] == misses
            return value

        self._patch(OperatorKernelTable, "flat", property(flat, doc=flat_prop.__doc__))

        import scipy.linalg

        for fname in LINALG:
            self._patch(np.linalg, fname, self._wrap(f"linalg.{fname}", getattr(np.linalg, fname), True))
        self._patch(scipy.linalg, "subspace_angles",
                    self._wrap("linalg.subspace_angles", scipy.linalg.subspace_angles, True))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def begin_pass(self) -> None:
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self._first_span = len(self.spans)

    def pass_totals(self) -> tuple[dict, dict, dict]:
        """Exact counts, self seconds and total seconds per span name since begin_pass."""
        spans = self.spans[self._first_span:]
        child = defaultdict(float)
        for _, _, parent, _, t0, t1 in spans:
            if parent is not None:
                child[parent] += t1 - t0
        self_s, total_s = defaultdict(float), defaultdict(float)
        for _, sid, _, name, t0, t1 in spans:
            self_s[name] += (t1 - t0) - child[sid]
            total_s[name] += t1 - t0
        counts = dict(self.counts)
        for key, digests in self.distinct.items():
            counts[key + ".distinct"] = len(digests)
        return counts, dict(self_s), dict(total_s)


def layer_metrics(counts: dict, self_s: dict, total_s: dict, report_bytes: int) -> dict:
    """Named per-layer metrics of one traced pass (see LAYER_UNITS)."""
    def calls(name):
        return counts.get(name + ".calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    def layer_self(pred):
        return sum(v for k, v in self_s.items() if pred(k))

    specio_read = lambda k: k.startswith("specio.") and k.split(".", 1)[1] in SPECIO_READ
    m = {
        "cli.self_s": layer_self(lambda k: k.startswith("cli.")),
        "cli.report_bytes": report_bytes,
        "specio.read.self_s": layer_self(specio_read),
        "specio.read.bytes": counts.get("specio.read.bytes", 0),
        "specio.write.self_s": layer_self(lambda k: k.startswith("specio.") and not specio_read(k)),
        "specio.write.values": counts.get("specio.write.values", 0),
        "specio.path_batch_to_csv.rows_per_s": ratio(
            counts.get("specio.path_batch_to_csv.rows", 0), total_s.get("specio.path_batch_to_csv", 0.0)),
        "kernels.flat.accesses": counts.get("kernels.flat.accesses", 0),
        "kernels.flat_cache.hit_ratio": ratio(counts.get("kernels.flat.hits", 0), counts.get("kernels.flat.accesses", 0)),
        "dilation.factorize.repeat_ratio": ratio(
            calls("dilation.kolmogorov_factorize"), counts.get("dilation.kolmogorov_factorize.distinct", 0)),
        "gaussian.normals": counts.get("gaussian.normals", 0),
        "gaussian.draw_paths.flop": counts.get("gaussian.draw_paths.flop", 0),
        "gaussian.draw_paths.gflop_per_s": ratio(
            counts.get("gaussian.draw_paths.flop", 0), self_s.get("gaussian.draw_paths", 0.0)) / 1e9,
        "regression.predict.us_per_call": 1e6 * ratio(
            total_s.get("regression.predict", 0.0), calls("regression.predict")),
        "linalg.self_s": layer_self(lambda k: k.startswith("linalg.")),
        "linalg.norm_spectral.calls": counts.get("linalg.norm_spectral.calls", 0),
        "linalg.spectral_decomps_per_gram": ratio(
            calls("linalg.eigh") + calls("linalg.eigvalsh"), counts.get("linalg.spectral.distinct", 0)),
    }
    for name in LAYER_UNITS:
        if name in m or name.startswith("trace."):
            continue
        if name.endswith(".calls"):
            m[name] = calls(name[: -len(".calls")])
        elif name.endswith(".self_s"):
            m[name] = self_s.get(name[: -len(".self_s")], 0.0)
    return m


EXACT = tuple(name for name, unit in LAYER_UNITS.items() if unit in ("count", "bytes", "values", "flop_computed"))


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def trace_summary(untraced, traced) -> tuple[dict, list[str]]:
    """Per-layer metrics: exact counts from the first traced pass, the median
    over traced passes for the rest, the tracing overhead, and the number of
    traced passes whose exact counts differ from the first."""
    per_pass = [layer_metrics(*totals, report_bytes) for (_, report_bytes), totals in traced]
    exact = [{k: p[k] for k in EXACT if k in p} for p in per_pass]
    mismatches = sum(e != exact[0] for e in exact[1:])
    metrics = {name: (exact[0][name] if name in exact[0] else statistics.median(p[name] for p in per_pass),
                      LAYER_UNITS[name]) for name in per_pass[0]}

    def pass_s(recs):
        return sum(s for _, s, _ in recs)

    overhead = statistics.median(pass_s(r) for (r, _), _ in traced) / statistics.median(pass_s(r) for r, _ in untraced)
    metrics["trace.overhead_pct"] = (100.0 * (overhead - 1.0), "%")
    metrics["trace.count_mismatches"] = (mismatches, "count")
    lines = [f"# traced passes {len(traced)}, untraced passes {len(untraced)}; "
             f"exact counts identical across traced passes: {mismatches == 0}"]
    lines += [f"{name:<46} {_fmt(metrics[name][0]):>14} {unit}" for name, unit in LAYER_UNITS.items()]
    return metrics, lines


def write_spans(path: Path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(("job", "id", "parent", "name", "start", "end"), span))) + "\n")
