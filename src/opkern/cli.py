"""Batch experiment runner.

One subcommand per pipeline; every run is a pure function of its input
files and flags.  Reports are JSON with sorted keys and carry SHA-256
hashes of the input specs; ``--no-timestamp`` drops the only
non-deterministic field, making repeated runs byte-identical.

Exit codes: 0 success, 1 tolerance or positivity failure, 2 input/parse
error, 3 violated hypothesis (rank condition, domination, singular
conditioning).  ``OPKERN_SEED`` overrides the default seed only when
``--seed`` is absent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import gaussian, regression, transfer
from .dilation import kolmogorov_factorize
from .errors import (
    GramMismatch,
    InvalidKernel,
    LabelError,
    NotDominated,
    NotEquivalent,
    NotInvertible,
    NotPositiveDefinite,
    NotStrictContraction,
    OpKernError,
    ShapeError,
    SingularL,
    SingularSystem,
    SpectrumOutOfRange,
)
from .kernels import is_positive_definite
from . import specio
from .specio import SpecError

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3

_INPUT_ERRORS = (SpecError, ShapeError, LabelError, InvalidKernel, OSError)
_HYPOTHESIS_ERRORS = (
    NotInvertible,
    NotDominated,
    NotPositiveDefinite,
    SingularL,
    SingularSystem,
    NotStrictContraction,
)
_TOLERANCE_ERRORS = (NotEquivalent, GramMismatch, SpectrumOutOfRange)


def _sample_count(text: str) -> int:
    """argparse type of ``--samples``: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    """argparse type of ``--tol``: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("OPKERN_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SpecError(f"OPKERN_SEED is not an integer: {env!r}") from None
    return 0


def _emit_text(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


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
    _emit_text(args, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def cmd_check_pd(args) -> int:
    table = specio.kernel_from_spec(specio.load_json(args.spec))
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
    fs = kolmogorov_factorize(table, args.tol)
    _emit_report(args, {"tol": args.tol}, specio.feature_system_to_json(fs))
    return EXIT_OK


def cmd_realize(args) -> int:
    k1, k2, l1, l2, t_op = specio.system_from_spec(specio.load_json(args.spec))
    results: dict = {}
    try:
        sys_ = transfer.validate_system(k1, k2, l1, l2, t_op)
    except NotEquivalent as exc:
        results["system_identity_residual"] = exc.relative
        results["condition"] = "not_equivalent"
        _emit_report(args, {"tol": args.tol}, results)
        return EXIT_TOLERANCE
    results["system_identity_residual"] = sys_.identity_residual

    real = transfer.construct_partial_isometry(sys_)
    try:
        report = transfer.verify_realization(real, sys_, args.tol)
    except NotInvertible as exc:
        results["condition"] = "rank_condition_failed"
        results["label"] = exc.label
        results["sigma_min"] = exc.sigma_min
        _emit_report(args, {"tol": args.tol}, results)
        return EXIT_HYPOTHESIS
    results.update(
        {
            "partial_isometry_defect": report.partial_isometry_defect,
            "gram_defect": report.gram_defect,
            "intertwining_residual": report.intertwining_residual,
            "feature_map_residual": report.feature_map_residual,
            "kernel_reconstruction_residual": report.reconstruction_residual,
            "transitive_action": report.transitive_action,
            "dominated": report.dominated,
            "rn_spectrum": report.rn_spectrum,
            "rn_vs_transfer": report.rn_vs_transfer,
        }
    )
    _emit_report(args, {"tol": args.tol}, results)
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def cmd_rn(args) -> int:
    lo, hi = specio.pair_from_spec(specio.load_json(args.spec))
    rn = transfer.radon_nikodym(lo, hi, args.tol)
    results = {
        "rn_spectrum": list(rn.spectrum),
        "reproduction_residual": rn.reproduction_residual,
        "dilation_dim": rn.feature_system.dilation_dim,
        "phi": specio.array_to_json(rn.phi),
        "sqrt_phi": specio.array_to_json(rn.sqrt_phi),
    }
    _emit_report(args, {"tol": args.tol}, results)
    return EXIT_OK


def cmd_sample(args) -> int:
    table = specio.kernel_from_spec(specio.load_json(args.spec))
    seed = _resolve_seed(args)
    sampler = gaussian.make_sampler(table, seed)
    batch = sampler.draw(args.samples)
    _emit_text(args, specio.path_batch_to_csv(batch))
    return EXIT_OK


def cmd_mc_verify(args) -> int:
    k, l, coupling, _ = specio.joint_from_spec(specio.load_json(args.spec))
    seed = _resolve_seed(args)
    joint = gaussian.assemble_joint(k, l, coupling)
    report = gaussian.mc_verify_conditional(joint, seed, args.samples, args.tol)
    results = {
        "mean_map_dev_se": report.mean_map_dev_se,
        "residual_cov_dev_se": report.residual_cov_dev_se,
        "samples": report.count,
        "tol_sigma": args.tol,
        "passed": bool(report.passed),
    }
    _emit_report(args, {"seed": seed, "samples": args.samples}, results)
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def cmd_condition(args) -> int:
    k, l, coupling, observed = specio.joint_from_spec(specio.load_json(args.spec))
    if args.observed is not None:
        data = specio.load_json(args.observed)
        observed = specio.json_to_array(
            data["values"] if isinstance(data, dict) and "values" in data else data,
            (k.n, k.dim_h),
        )
    if observed is None:
        raise SpecError("no observed values: provide --observed or an 'observed_l' field")
    joint = gaussian.assemble_joint(k, l, coupling)
    law = gaussian.condition(joint, observed, args.tol)
    results = {
        "posterior_mean": specio.array_to_json(law.posterior_mean),
        "mean_map": specio.array_to_json(law.mean_map),
        "cond_cov_blocks": specio.array_to_json(law.cond_cov.blocks),
        "null_dim": law.null_dim,
    }
    extra = {} if args.observed is None else {"observed": args.observed}
    _emit_report(args, {"tol": args.tol}, results, **extra)
    return EXIT_OK


def cmd_krr_fit(args) -> int:
    kernel = specio.kernel_from_spec(specio.load_json(args.spec))
    noise = specio.kernel_from_spec(specio.load_json(args.noise_spec))
    train = specio.training_set_from_csv(Path(args.train).read_text(encoding="utf-8"))
    dm = regression.design_matrices(kernel, noise, train)
    fit = regression.krr_fit(dm, train.targets)
    results = {
        "coefficients": specio.array_to_json(fit.coefficients),
        "fitted": specio.array_to_json(fit.fitted),
        "m": train.size,
    }
    _emit_report(args, {}, results, noise_spec=args.noise_spec, train=args.train)
    return EXIT_OK


def cmd_krr_predict(args) -> int:
    fit_payload = specio.load_json(args.fit)
    try:
        hashes = {name: entry.get("sha256") for name, entry in fit_payload.get("inputs", {}).items()}
        fit_coefficients = fit_payload["results"]["coefficients"]
    except (AttributeError, KeyError, TypeError):
        raise SpecError(f"{args.fit} is not a krr-fit report with results.coefficients") from None
    for name, path in (("spec", args.spec), ("noise_spec", args.noise_spec), ("train", args.train)):
        recorded = hashes.get(name)
        if recorded is not None and recorded != _sha256(path):
            raise SpecError(
                f"hash mismatch for {name}: the fit was produced from different inputs"
            )
    kernel = specio.kernel_from_spec(specio.load_json(args.spec))
    noise = specio.kernel_from_spec(specio.load_json(args.noise_spec))
    train = specio.training_set_from_csv(Path(args.train).read_text(encoding="utf-8"))
    coeffs = specio.json_to_array(fit_coefficients, (train.size,))
    dm = regression.design_matrices(kernel, noise, train)
    fit = regression.RegressionFit(coefficients=coeffs, fitted=dm.kernel_gram @ coeffs, design=dm)
    queries = specio.load_json(args.query)
    if not isinstance(queries, list):
        raise SpecError("query file must be a JSON list of {label, a} objects")
    predictions = []
    for item in queries:
        if not isinstance(item, dict) or not isinstance(item.get("label"), str):
            raise SpecError(f"query items must be {{label, a}} objects with a string label, got {item!r}")
        label = item["label"]
        vec = specio.json_to_array(item.get("a"), (kernel.dim_h,))
        predictions.append(
            {"label": label, "value": specio.complex_to_pair(regression.predict(fit, label, vec))}
        )
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
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=_sample_count, default=1)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("mc-verify", help="Monte-Carlo check of the conditional law")
    common(p, "joint spec JSON (k, l, t_coupling)", 5.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=_sample_count, default=200_000)
    p.set_defaults(func=cmd_mc_verify)

    p = sub.add_parser("condition", help="exact conditional law for observed values")
    common(p, "joint spec JSON (k, l, t_coupling[, observed_l])", 1e-10)
    p.add_argument("--observed", default=None, help="JSON file with observed values")
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
    except _INPUT_ERRORS as exc:
        print(f"opkern: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _HYPOTHESIS_ERRORS as exc:
        print(f"opkern: hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except _TOLERANCE_ERRORS as exc:
        print(f"opkern: tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except OpKernError as exc:
        print(f"opkern: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
