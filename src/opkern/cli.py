"""Batch experiment runner.

One subcommand per pipeline; every run is a pure function of its input
files and flags.  Reports are strict JSON (no ``NaN`` or ``Infinity``)
with sorted keys and carry SHA-256 hashes of the input specs;
``--no-timestamp`` drops the only non-deterministic field, making repeated
runs byte-identical.  ``krr-fit`` writes the H-valued regression
function F, one ``(d,)`` array per label, into its report.  ``krr-predict``
requires the fit to record the hashes of ``--spec``, ``--noise-spec`` and
``--train`` and to match them, so the fit's gates ran on the same bytes;
it parses none of the three and reads every query from the fit's F.

Exit codes come from the error categories in ``opkern.errors``: 0 success,
1 tolerance failure, ``check-pd``'s not-positive verdict or a ``realize``
residual that is not finite, 2 input/parse error (also an input beyond the
UTF-8, JSON or CSV parsers' limits, a table whose spectral norm overflows, a
conditional law beyond the float range, and a ``--samples`` count whose
paths exceed ``specio.MAX_PATH_VALUES`` values),
3 violated hypothesis (rank condition, domination, a non-positive ``realize``
table, ``rn`` kernel or ``krr-fit`` design matrix, an L Gram matrix singular
to ``1e-10`` relative, or to a larger ``condition --tol``).
``--seed`` is an integer in [0, 2**64), the Philox key space, and defaults
to 0; ``condition`` reads its observed values from the spec's ``observed_l``.

``sample`` writes its CSV and ``mc-verify`` reduces its paths one tile of
samples at a time, so neither holds the whole batch; if it may use two CPUs,
``sample`` forks one child that draws and formats the odd tiles, both
processes at one BLAS thread, with unchanged bytes (README.md).
A command whose Gram order is at most ``ONE_THREAD_MAX_ORDER`` = 150 runs
its numerics at one BLAS thread, under the hold of ``sample``'s tiles, and
writes the bytes of ``OPENBLAS_NUM_THREADS=1`` whatever the CPU count; a
larger one keeps the default count.  The order is ``n * dim_h`` of the
spec's tables (of K and L for a joint spec), or ``max(n * dim_h, m)`` for
``krr-fit``'s m training rows; ``krr-predict`` makes no BLAS call.  On two
vCPUs one thread was faster in total at orders 60 to 150, and no longer at
180 (BENCH_36.json).
The ``results`` of ``realize``, ``rn`` and ``mc-verify`` are the fields of
their result objects (``realize``'s without ``passed``, its exit code).
``--out`` appears only when its command succeeds; on stdout, a reader that
closes the pipe ends the output (``opkern sample ... | head``) and the
command exits as if it had written everything.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import gaussian, regression, transfer
from .dilation import kolmogorov_factorize
from .errors import NotEquivalent, NotInvertible, OpKernError
from .kernels import is_positive_definite, require_at_most
from . import specio
from .specio import SpecError

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_INPUT = 2
# The largest Gram order whose numerics run at one BLAS thread (BENCH_36.json).
ONE_THREAD_MAX_ORDER = 150


def _integer(low: int, high: float = math.inf):
    """argparse type of an integer in ``[low, high)``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if not low <= value < high:
            raise argparse.ArgumentTypeError(f"must be in [{low}, {high}), got {value}")
        return value
    return parse


def _tolerance(text: str) -> float:
    """argparse type of ``--tol``: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _blas_for(order: int):
    """``gaussian``'s one-thread BLAS hold for a problem whose Gram has order
    ``order`` at most ``ONE_THREAD_MAX_ORDER``, else no hold: the default
    thread count."""
    return gaussian._one_blas_thread() if order <= ONE_THREAD_MAX_ORDER else nullcontext()


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _training_set(path: str):
    try:
        return specio.training_set_from_csv(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SpecError(f"cannot read training CSV {path}: {exc}") from None


def _require_path_budget(samples: int, width: int) -> None:
    """Refuse, before any draw, ``samples`` paths of ``width`` values each
    beyond ``specio.MAX_PATH_VALUES`` in all."""
    require_at_most(samples * width, specio.MAX_PATH_VALUES, SpecError,
                    f"--samples {samples} x path width {width} exceeds the supported {specio.MAX_PATH_VALUES} path values")


@contextmanager
def _output(args):
    """The text stream of a command's output, for every command.

    ``--out`` is written as a sibling temporary file that replaces it only
    when the block succeeds, so a failed run leaves neither file; a path
    that exists and is not a regular file (``/dev/null``, a FIFO) is
    written in place.  On stdout, a reader that has closed the pipe ends
    the output, and the block completes.
    """
    if not args.out:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except BrokenPipeError:
            # Python flushes stdout again at exit; send what is left nowhere.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    path = Path(os.path.realpath(args.out))
    if path.exists() and not path.is_file():
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _emit_report(args, params: dict, results: dict, **extra_inputs: str) -> None:
    """Write the JSON report of ``args.command``; ``--spec`` and every
    ``extra_inputs`` path are listed with their SHA-256."""
    inputs = {"spec": args.spec, **extra_inputs}
    payload = {
        "command": args.command,
        "inputs": {name: {"path": path, "sha256": _sha256(path)} for name, path in inputs.items()},
        "params": params,
        "results": results,
    }
    if not args.no_timestamp:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    with _output(args) as out:
        out.write(specio.report_to_json(payload) + "\n")


def cmd_check_pd(args) -> int:
    table = specio.kernel_from_spec(specio.load_json(args.spec))
    with _blas_for(table.n * table.dim_h):
        report = is_positive_definite(table, args.tol)
    results = {
        "pd": bool(report.pd),
        "min_eig": report.min_eig,
        "n": table.n,
        "d": table.dim_h,
    }
    _emit_report(args, {"tol": args.tol}, results)
    return EXIT_OK if report.pd else EXIT_TOLERANCE


def cmd_factorize(args) -> int:
    table = specio.kernel_from_spec(specio.load_json(args.spec))
    with _blas_for(table.n * table.dim_h):
        fs = kolmogorov_factorize(table, args.tol)
    _emit_report(args, {"tol": args.tol}, specio.feature_system_to_json(fs))
    return EXIT_OK


def cmd_realize(args) -> int:
    k1, k2, l1, l2, t_op = specio.system_from_spec(specio.load_json(args.spec))
    results: dict = {}
    try:
        with _blas_for(k1.n * k1.dim_h):
            sys_ = transfer.validate_system(k1, k2, l1, l2, t_op)
            results["system_identity_residual"] = sys_.identity_residual
            report = transfer.verify_realization(sys_, args.tol)
    except NotEquivalent as exc:
        results["system_identity_residual"] = exc.relative
        results["condition"] = "not_equivalent"
        _emit_report(args, {"tol": args.tol}, results)
        return exc.exit_code
    except NotInvertible as exc:
        if not math.isfinite(exc.sigma_min):  # a report cannot hold it: stderr alone
            raise
        results["condition"] = "rank_condition_failed"
        results["label"] = exc.label
        results["sigma_min"] = exc.sigma_min
        _emit_report(args, {"tol": args.tol}, results)
        return exc.exit_code
    results.update(vars(report))
    del results["passed"]  # the exit code
    _emit_report(args, {"tol": args.tol}, results)
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def cmd_rn(args) -> int:
    lo, hi = specio.pair_from_spec(specio.load_json(args.spec))
    with _blas_for(lo.n * lo.dim_h):
        rn = transfer.radon_nikodym(lo, hi, args.tol)
    _emit_report(args, {"tol": args.tol}, vars(rn))
    return EXIT_OK


def _tile_csv(fs, seed: int, samples: int, start: int, first: int = 0):
    """Yield the CSV of the tile of samples at ``start``, drawn whole, as two
    half-tile texts (one for a one-sample tile), from half ``first`` on."""
    batch = gaussian.draw_paths(fs, seed, start, min(gaussian._TILE, samples - start))
    half = -(-batch.count // 2)
    for lo in range(0, batch.count, half)[first:]:
        yield specio.path_batch_to_csv(gaussian.PathBatch(batch.label_set, batch.paths[lo : lo + half]), start + lo)


def _fork_odd_tiles(fs, seed: int, samples: int) -> tuple:
    """Fork a child that writes the CSV of the odd tiles of ``samples`` to a
    pipe, one length-prefixed frame per half-tile, and return its pid and the
    pipe's read end as a binary stream; ``(None, None)`` if no process could
    be forked.  The child formats a whole tile before its first write, so
    that it works while the parent formats the tile before it, and it is at
    most one tile ahead."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (r, w):
            os.close(fd)
        return None, None
    if pid == 0:  # ends in os._exit, so it flushes no inherited stream
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                for start in range(gaussian._TILE, samples, 2 * gaussian._TILE):
                    for text in [text.encode() for text in _tile_csv(fs, seed, samples, start)]:
                        pipe.write(len(text).to_bytes(8, "little") + text)
                    pipe.flush()
        except BaseException:
            os._exit(1)
        os._exit(0)
    os.close(w)
    return pid, open(r, "rb")


def _write_frames(pipe, out, count: int) -> int:
    """Write to ``out``, as text, up to ``count`` frames of
    :func:`_fork_odd_tiles` read from the binary stream ``pipe``; return how
    many, fewer where the pipe ends or cuts a frame short."""
    for done in range(count):
        head = pipe.read(8)
        text = pipe.read(size := int.from_bytes(head, "little"))
        if len(head) < 8 or len(text) < size:
            return done
        out.write(text.decode())
    return count


def cmd_sample(args) -> int:
    table = specio.kernel_from_spec(specio.load_json(args.spec))
    _require_path_budget(args.samples, table.n * table.dim_h)
    with _blas_for(table.n * table.dim_h):  # the tiles below are held at every order, the factorization if small
        fs = kolmogorov_factorize(table)
    starts = range(0, args.samples, gaussian._TILE)
    # One child at most: more CPUs, or a CPU quota below the mask, were never measured.
    fork = len(starts) > 1 and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
    with _output(args) as out, gaussian._one_blas_thread():
        pid, pipe = _fork_odd_tiles(fs, args.seed, args.samples) if fork else (None, None)
        try:
            for tile, start in enumerate(starts):
                # An odd tile is the child's; what it did not send is formatted here, so its error is ours.
                halves = min(2, args.samples - start)
                done = _write_frames(pipe, out, halves) if pid and tile % 2 else 0
                if done < halves:
                    out.writelines(_tile_csv(fs, args.seed, args.samples, start, done))
        finally:
            if pid:
                pipe.close()  # first, so that a child blocked on a full pipe gets EPIPE
                os.waitpid(pid, 0)
    return EXIT_OK


def cmd_mc_verify(args) -> int:
    k, l, coupling, _ = specio.joint_from_spec(specio.load_json(args.spec))
    _require_path_budget(args.samples, 2 * k.n * k.dim_h)
    with _blas_for(k.n * k.dim_h):
        joint = gaussian.assemble_joint(k, l, coupling)
        report = gaussian.mc_verify_conditional(joint, args.seed, args.samples, args.tol)
    _emit_report(args, {"seed": args.seed, "samples": args.samples}, vars(report))
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def cmd_condition(args) -> int:
    k, l, coupling, observed = specio.joint_from_spec(specio.load_json(args.spec))
    if observed is None:
        raise SpecError("no observed values: the joint spec has no 'observed_l' field")
    with _blas_for(k.n * k.dim_h):
        joint = gaussian.assemble_joint(k, l, coupling)
        results = {
            "posterior_mean": gaussian.condition(joint, observed, args.tol),
            "mean_map": joint.mean_map,
            "cond_cov_blocks": joint.schur.blocks,
            "null_dim": 0,  # assemble_joint refuses a singular L
        }
    _emit_report(args, {"tol": args.tol}, results)
    return EXIT_OK


def cmd_krr_fit(args) -> int:
    kernel = specio.kernel_from_spec(specio.load_json(args.spec))
    noise = specio.kernel_from_spec(specio.load_json(args.noise_spec))
    train = _training_set(args.train)
    with _blas_for(max(kernel.n * kernel.dim_h, train.size)):
        fit = regression.krr_fit(kernel, noise, train)
    results = {
        "coefficients": fit.coefficients,
        "fitted": fit.fitted,
        "m": train.size,
        "regression_function": dict(zip(kernel.labels, fit.regression_function)),
    }
    _emit_report(args, {}, results, noise_spec=args.noise_spec, train=args.train)
    return EXIT_OK


def cmd_krr_predict(args) -> int:
    fit_payload = specio.load_json(args.fit)
    try:
        hashes = {name: entry.get("sha256") for name, entry in fit_payload.get("inputs", {}).items()}
        f_json = fit_payload["results"]["regression_function"]
    except (AttributeError, KeyError, TypeError):
        raise SpecError(f"{args.fit} is not a krr-fit report with results.regression_function") from None
    # The fit's gates (positivity, finiteness, solvability) ran on exactly
    # these bytes, so they are hashed, not parsed.
    for name, path in (("spec", args.spec), ("noise_spec", args.noise_spec), ("train", args.train)):
        recorded = hashes.get(name)
        if recorded is None:
            raise SpecError(f"{args.fit} does not record the sha256 of {name}")
        if recorded != _sha256(path):
            raise SpecError(
                f"hash mismatch for {name}: the fit was produced from different inputs"
            )
    label_set, f_values = specio.regression_function_from_json(f_json)
    queries = specio.load_json(args.query)
    if not isinstance(queries, list):
        raise SpecError("query file must be a JSON list of {label, a} objects")
    for item in queries:
        if not isinstance(item, dict) or not isinstance(item.get("label"), str):
            raise SpecError(f"query items must be {{label, a}} objects with a string label, got {item!r}")
    labels = [item["label"] for item in queries]
    shape = (len(queries), f_values.shape[1])
    vectors = specio.json_to_array([item.get("a") for item in queries], shape) if queries else np.zeros(shape)
    values = regression.predict(label_set, f_values, labels, vectors)
    predictions = [
        {"label": label, "value": [re, im]}
        for label, re, im in zip(labels, values.real.tolist(), values.imag.tolist())
    ]
    extra = {"fit": args.fit, "noise_spec": args.noise_spec, "train": args.train, "query": args.query}
    _emit_report(args, {}, {"predictions": predictions}, **extra)
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opkern", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec_help, *tol):
        """The options of every subcommand; a ``tol`` adds ``--tol`` with that default."""
        p.add_argument("--spec", required=True, help=spec_help)
        if tol:
            p.add_argument("--tol", type=_tolerance, default=tol[0], help="tolerance override")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--no-timestamp", action="store_true", help="omit the timestamp field")

    p = sub.add_parser("check-pd", help="positivity test of a kernel spec")
    common(p, "kernel spec JSON", None)
    p.set_defaults(func=cmd_check_pd)

    p = sub.add_parser("factorize", help="factor a kernel through its flattened eigenbasis")
    common(p, "kernel spec JSON", 1e-10)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("realize", help="partial isometry, transfer function, and derivative checks")
    common(p, "system spec JSON (k1, k2, l1, l2, t)", 1e-8)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("rn", help="Radon-Nikodym derivative of a dominated pair")
    common(p, "pair spec JSON (l, k)", 1e-9)
    p.set_defaults(func=cmd_rn)

    p = sub.add_parser("sample", help="draw reproducible paths as CSV")
    common(p, "kernel spec JSON")
    p.add_argument("--seed", type=_integer(0, 2**64), default=0)
    p.add_argument("--samples", type=_integer(1), default=1)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("mc-verify", help="Monte-Carlo check of the conditional law")
    common(p, "joint spec JSON (k, l, t_coupling)", 5.0)
    p.add_argument("--seed", type=_integer(0, 2**64), default=0)
    p.add_argument("--samples", type=_integer(1), default=200_000)
    p.set_defaults(func=cmd_mc_verify)

    p = sub.add_parser("condition", help="exact conditional law for observed values")
    common(p, "joint spec JSON (k, l, t_coupling[, observed_l])", 1e-10)
    p.set_defaults(func=cmd_condition)

    p = sub.add_parser("krr-fit", help="kernel ridge fit from a training CSV")
    common(p, "kernel spec JSON for the signal kernel")
    p.add_argument("--noise-spec", required=True, help="kernel spec JSON for the noise kernel")
    p.add_argument("--train", required=True, help="training CSV")
    p.set_defaults(func=cmd_krr_fit)

    p = sub.add_parser("krr-predict", help="evaluate a stored fit at query points")
    common(p, "kernel spec JSON for the signal kernel")
    p.add_argument("--noise-spec", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--fit", required=True, help="report JSON produced by krr-fit")
    p.add_argument("--query", required=True, help="JSON list of {label, a} query points")
    p.set_defaults(func=cmd_krr_predict)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, MemoryError) as exc:
        print(f"opkern: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OpKernError as exc:
        print(f"opkern: {exc.prefix}{exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
