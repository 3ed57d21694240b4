"""JSON and CSV wire formats.

Kernel spec JSON (field names are fixed):

    {"labels": [...], "dim_h": d, "kind": "explicit",
     "blocks": <n x n x d x d nested lists of [re, im]>}
    {"labels": [...], "dim_h": d, "kind": "builder",
     "builder": {"name": ..., "params": {...}}}

Complex numbers are always two-element ``[re, im]`` arrays.  Builder names:
``identity``, ``constant`` (params: block), ``cp_contraction`` (params: h,
points), ``neumann_series`` (params: h, points, optional tol), ``random_pd``
(params: seed, optional rank).

System spec JSON: {"k1": <kernel spec>, "k2": ..., "l1": ..., "l2": ...,
"t": <d x d matrix>}.  Pair spec: {"l": ..., "k": ...}.  Joint spec:
{"k": ..., "l": ..., "t_coupling": <n x n x d x d blocks>, optionally
"observed_l": <n x d matrix>}.

Training CSV columns: label, a_0_re, a_0_im, ..., a_{d-1}_re, a_{d-1}_im,
y_re, y_im.  Path CSV columns: sample, label, coordinate, re, im.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import numpy as np

from .errors import OpKernError
from .gaussian import PathBatch
from .kernels import (
    LabelSet,
    OperatorKernelTable,
    constant_kernel,
    cp_contraction_kernel,
    identity_kernel,
    neumann_series_kernel,
    random_pd_kernel,
)
from .regression import TrainingSet


class SpecError(OpKernError):
    """Malformed spec file or wire payload."""


def complex_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def array_to_json(arr: np.ndarray):
    """Nested lists with [re, im] leaves, preserving the array shape."""
    a = np.asarray(arr, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def json_to_array(data, shape: tuple[int, ...]) -> np.ndarray:
    """Decode nested lists with [re, im] leaves of finite numbers; the one
    decoder for every numeric array read from a spec or payload."""
    try:
        leaves = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"not a numeric nested array: {exc}") from None
    if leaves.shape != shape + (2,):
        raise SpecError(f"expected array of shape {shape}, got {leaves.shape[:-1]}")
    if not np.all(np.isfinite(leaves)):
        raise SpecError("numeric arrays must hold finite numbers (no NaN or Infinity)")
    return leaves[..., 0] + 1j * leaves[..., 1]


def _field(data: dict, name: str):
    if name not in data:
        raise SpecError(f"missing field {name!r}")
    return data[name]


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SpecError(f"{what} must be a JSON object")
    return value


def _number(value, name: str, integer: bool = False):
    """A finite JSON number as a float, or as an int when ``integer`` is set."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, Infinity or an integer beyond the float range
        raise SpecError(f"{name} must be finite, got {value!r}")
    if not integer:
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise SpecError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _labels(value) -> LabelSet:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise SpecError(f"labels must be a JSON list of strings, got {value!r}")
    return LabelSet.of(value)


def _points_from_params(params: dict, labels: LabelSet, d: int) -> dict[str, np.ndarray]:
    raw = _field(params, "points")
    if not isinstance(raw, dict):
        raise SpecError("'points' must map labels to matrices")
    return {s: json_to_array(mat, (d, d)) for s, mat in raw.items()}


def kernel_from_spec(data: dict) -> OperatorKernelTable:
    _object(data, "kernel spec")
    labels = _labels(_field(data, "labels"))
    dim_h = _number(_field(data, "dim_h"), "dim_h", integer=True)
    if dim_h < 1:
        raise SpecError("dim_h must be >= 1")
    kind = _field(data, "kind")
    n = labels.n

    if kind == "explicit":
        blocks = json_to_array(_field(data, "blocks"), (n, n, dim_h, dim_h))
        return OperatorKernelTable(labels, blocks)
    if kind == "builder":
        builder = _object(_field(data, "builder"), "builder")
        name = _field(builder, "name")
        params = _object(builder.get("params", {}), "builder params")
        if name == "identity":
            return identity_kernel(labels, dim_h)
        if name == "constant":
            return constant_kernel(labels, json_to_array(_field(params, "block"), (dim_h, dim_h)))
        if name == "cp_contraction":
            h = json_to_array(_field(params, "h"), (dim_h, dim_h))
            return cp_contraction_kernel(h, labels, _points_from_params(params, labels, dim_h))
        if name == "neumann_series":
            h = json_to_array(_field(params, "h"), (dim_h, dim_h))
            tol = _number(params.get("tol", 1e-12), "tol")
            if not tol > 0:
                raise SpecError(f"tol must be > 0, got {tol!r}")
            return neumann_series_kernel(h, labels, _points_from_params(params, labels, dim_h), tol)
        if name == "random_pd":
            seed = _number(_field(params, "seed"), "seed", integer=True)
            if seed < 0:
                raise SpecError(f"seed must be >= 0, got {seed}")
            rank = params.get("rank")
            if rank is not None:
                rank = _number(rank, "rank", integer=True)
            table = random_pd_kernel(seed, n, dim_h, rank)
            if table.label_set != labels:
                table = OperatorKernelTable(labels, table.blocks)
            return table
        raise SpecError(f"unknown builder {name!r}")
    raise SpecError(f"unknown kind {kind!r}")


def kernel_to_spec(table: OperatorKernelTable) -> dict:
    return {
        "labels": list(table.labels),
        "dim_h": table.dim_h,
        "kind": "explicit",
        "blocks": array_to_json(table.blocks),
    }


def system_from_spec(data: dict):
    """Return the five raw components (k1, k2, l1, l2, t) of a system spec."""
    _object(data, "system spec")
    tables = {name: kernel_from_spec(_field(data, name)) for name in ("k1", "k2", "l1", "l2")}
    d = tables["k1"].dim_h
    t_op = json_to_array(_field(data, "t"), (d, d))
    return tables["k1"], tables["k2"], tables["l1"], tables["l2"], t_op


def pair_from_spec(data: dict):
    """Return (lo, hi) from a pair spec {"l": ..., "k": ...}."""
    _object(data, "pair spec")
    return kernel_from_spec(_field(data, "l")), kernel_from_spec(_field(data, "k"))


def joint_from_spec(data: dict):
    """Return (k, l, coupling, observed_or_None) from a joint spec."""
    _object(data, "joint spec")
    k = kernel_from_spec(_field(data, "k"))
    l = kernel_from_spec(_field(data, "l"))
    n, d = k.n, k.dim_h
    coupling = json_to_array(_field(data, "t_coupling"), (n, n, d, d))
    observed = None
    if data.get("observed_l") is not None:
        observed = json_to_array(data["observed_l"], (n, d))
    return k, l, coupling, observed


def feature_system_to_json(fs) -> dict:
    """Export a factorization; consumers must compare via Gram products,
    because the eigenbasis is only fixed up to solver sign conventions."""
    d = fs.dim_h
    return {
        "labels": list(fs.label_set.labels),
        "dim_h": d,
        "dilation_dim": fs.dilation_dim,
        "basis_eigs": [float(v) for v in fs.basis_eigs],
        "features": {
            s: array_to_json(fs.operator(s)) for s in fs.label_set.labels
        },
    }


class _Echo:
    """File stand-in whose ``write`` returns the text, so that a
    ``csv.writer`` row call returns the quoted line."""

    def write(self, text: str) -> str:
        return text


def path_batch_to_csv(batch: PathBatch) -> str:
    quote = csv.writer(_Echo(), lineterminator="\n").writerow
    # (label, coordinate) cells are the same for every sample: quote once.
    prefixes = [quote([s, p])[:-1] for s in batch.label_set.labels for p in range(batch.dim_h)]
    parts = [quote(["sample", "label", "coordinate", "re", "im"])]
    for k, row in enumerate(batch.paths.reshape(batch.count, -1)):
        cells = map(",".join, zip(prefixes, map(repr, row.real.tolist()), map(repr, row.imag.tolist())))
        parts.append(f"{k}," + f"\n{k},".join(cells) + "\n")
    return "".join(parts)


def training_set_to_csv(train: TrainingSet) -> str:
    d = train.vectors.shape[1]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = ["label"]
    for p in range(d):
        header += [f"a_{p}_re", f"a_{p}_im"]
    header += ["y_re", "y_im"]
    writer.writerow(header)
    for i in range(train.size):
        row = [train.labels[i]]
        for p in range(d):
            row += [repr(float(train.vectors[i, p].real)), repr(float(train.vectors[i, p].imag))]
        row += [repr(float(train.targets[i].real)), repr(float(train.targets[i].imag))]
        writer.writerow(row)
    return out.getvalue()


def training_set_from_csv(text: str) -> TrainingSet:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise SpecError("training CSV is empty") from None
    if not header or header[0] != "label" or header[-2:] != ["y_re", "y_im"]:
        raise SpecError("training CSV must have columns label, a_*_re/im, y_re, y_im")
    d, expected = 0, 1
    while expected < len(header) - 2:
        if header[expected : expected + 2] != [f"a_{d}_re", f"a_{d}_im"]:
            raise SpecError(f"unexpected training CSV column {header[expected]!r}")
        d += 1
        expected += 2
    triples = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise SpecError(f"training CSV row has {len(row)} fields, expected {len(header)}")
        try:
            vec = [complex(float(row[1 + 2 * p]), float(row[2 + 2 * p])) for p in range(d)]
            y = complex(float(row[-2]), float(row[-1]))
        except ValueError as exc:
            raise SpecError(f"bad numeric field in training CSV: {exc}") from None
        triples.append((row[0], vec, y))
    if not triples:
        raise SpecError("training CSV has no data rows")
    return TrainingSet.from_triples(triples)


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read JSON from {path}: {exc}") from None
