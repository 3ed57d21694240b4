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
y_re, y_im; each number is an ASCII decimal literal such as ``repr(float)``
writes.  Path CSV columns: sample, label, coordinate, re, im.

Every number in a spec or payload must be a finite JSON number; a string or
a boolean where a number belongs is malformed, and so is input that is not
UTF-8 or exceeds the JSON or CSV parsers' limits (nesting depth, integer
digits, field size); each raises :class:`SpecError`.  Reports are strict JSON
written by :func:`report_to_json`: arrays as nested ``[re, im]`` lists, and
never a ``NaN`` or ``Infinity`` token.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import InputError, InternalInvariantViolation
from .gaussian import PathBatch
from .kernels import (
    LabelSet,
    OperatorKernelTable,
    constant_kernel,
    cp_contraction_kernel,
    identity_kernel,
    neumann_series_kernel,
    random_pd_kernel,
    require_at_most,
    require_finite,
)
from .regression import TrainingSet


#: Largest ``n * dim_h`` a kernel spec may declare, checked before any table
#: is built: one flattened complex Gram of this size takes 16 * 8192**2
#: bytes = 1 GiB.
MAX_GRAM_DIM = 8192

#: Largest ``samples * path width`` that ``sample`` and ``mc-verify`` draw,
#: checked before any draw.  Paths stream, so memory does not bound the
#: count; this does: 2**32 complex values would take 64 GiB at once, and
#: their CSV about 200 GB.  The path width is ``n * dim_h`` for ``sample``
#: and ``2 * n * dim_h`` for ``mc-verify``'s joint paths.
MAX_PATH_VALUES = 2**32


class SpecError(InputError):
    """Malformed spec file or wire payload."""


def json_to_array(data, shape: tuple[int, ...]) -> np.ndarray:
    """Decode nested lists with [re, im] leaves of finite numbers; the one
    decoder for every numeric array read from a spec or payload."""
    try:
        leaves = np.asarray(data, dtype=object)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"not a numeric nested array: {exc}") from None
    if leaves.shape != shape + (2,):
        raise SpecError(f"expected array of shape {shape}, got {leaves.shape[:-1]}")
    # Exact types: a JSON string or boolean is not a number, though numpy converts both.
    if not set(map(type, leaves.flat)) <= {int, float}:
        raise SpecError("numeric arrays must hold JSON numbers, not strings, booleans or lists")
    try:
        leaves = leaves.astype(np.float64)
    except OverflowError:
        raise SpecError("numeric arrays must hold numbers within the float range") from None
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


def _points_from_params(params: dict, d: int) -> dict[str, np.ndarray]:
    raw = _field(params, "points")
    if not isinstance(raw, dict):
        raise SpecError("'points' must map labels to matrices")
    return {s: json_to_array(mat, (d, d)) for s, mat in raw.items()}


def kernel_from_spec(data: dict) -> OperatorKernelTable:
    _object(data, "kernel spec")
    labels = _labels(_field(data, "labels"))
    dim_h = _number(_field(data, "dim_h"), "dim_h", integer=True)
    n = labels.n
    if dim_h < 1:
        raise SpecError("dim_h must be >= 1")
    require_at_most(n * dim_h, MAX_GRAM_DIM, SpecError, f"n * dim_h = {n * dim_h} exceeds the supported {MAX_GRAM_DIM}")
    kind = _field(data, "kind")

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
            return cp_contraction_kernel(h, labels, _points_from_params(params, dim_h))
        if name == "neumann_series":
            h = json_to_array(_field(params, "h"), (dim_h, dim_h))
            tol = _number(params.get("tol", 1e-12), "tol")
            if not tol > 0:
                raise SpecError(f"tol must be > 0, got {tol!r}")
            return neumann_series_kernel(h, labels, _points_from_params(params, dim_h), tol)
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


def regression_function_from_json(data) -> tuple[LabelSet, np.ndarray]:
    """The labels and the (n, d) values of a ``krr-fit`` report's
    ``regression_function``: an object mapping each label to ``F(s)``, a
    list of d ``[re, im]`` pairs."""
    if not isinstance(data, dict) or not data:
        raise SpecError("regression_function must be a non-empty JSON object")
    values = list(data.values())
    d = len(values[0]) if isinstance(values[0], list) else 0
    try:
        return LabelSet.of(data), json_to_array(values, (len(values), d))
    except SpecError as exc:
        raise SpecError(f"regression_function: {exc}") from None


def feature_system_to_json(fs) -> dict:
    """Export a factorization as a report payload (each feature operator an
    ndarray); consumers must compare via Gram products, because the
    eigenbasis is only fixed up to solver sign conventions."""
    return {
        "labels": list(fs.label_set.labels),
        "dim_h": fs.dim_h,
        "dilation_dim": fs.dilation_dim,
        "basis_eigs": fs.basis_eigs.tolist(),
        "features": {s: fs.operator(s) for s in fs.label_set.labels},
    }


def report_to_json(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)``, byte for byte, with
    every ndarray written as its nested ``[re, im]`` lists (cast to
    complex128, whatever its dtype).

    Each array is laid out once as a ``%r`` template, and one formatting
    call fills the values of every array in the report.  Reports are strict
    JSON: a NaN or an infinity anywhere raises
    :class:`InternalInvariantViolation`.  Keys must be strings.
    """
    parts: list[str] = []
    values: list[float] = []
    _encode(payload, "\n", parts, values)
    # One format call for the whole report: formatting each array on its
    # own leaves many KB-sized strings behind on the heap, which raised the
    # gram-solve benchmark's peak RSS by about 10%.
    return "".join(parts) % tuple(values)


def _string(text: str) -> str:
    """json's quoted ASCII form of ``text``, with ``%`` escaped for the template."""
    return encode_basestring_ascii(text).replace("%", "%%")


def _encode(value, indent: str, parts: list[str], values: list[float]) -> None:
    """Append the template of ``value``, whose line starts with ``indent`` (a
    newline and two spaces per level), to ``parts`` and its array values to
    ``values``; types are tested in json's order."""
    if isinstance(value, str):
        parts.append(_string(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        # float.__repr__, because repr(np.float64) is "np.float64(...)" in numpy 2.
        if not math.isfinite(value):
            raise InternalInvariantViolation(f"report value {value!r} is not finite")
        parts.append(float.__repr__(value))
    elif isinstance(value, np.ndarray):
        parts.append(_array_template(value, indent, values))
    elif isinstance(value, (list, tuple, dict)):
        if not value:
            parts.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = indent + "  "
        if isinstance(value, dict):
            parts.append("{")
            for k, key in enumerate(sorted(value)):
                if not isinstance(key, str):
                    raise TypeError(f"report keys must be strings, got {key!r}")
                parts += ("," if k else "", inner, _string(key), ": ")
                _encode(value[key], inner, parts, values)
            parts.append(indent + "}")
        else:
            parts.append("[")
            for k, item in enumerate(value):
                parts += ("," if k else "", inner)
                _encode(item, inner, parts, values)
            parts.append(indent + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _array_template(arr: np.ndarray, indent: str, values: list[float]) -> str:
    """The ``%r`` template of the nested ``[re, im]`` lists of ``arr`` as json
    lays them out at ``indent``; the values go to ``values`` in that order."""
    a = np.asarray(arr, dtype=np.complex128)
    require_finite(InternalInvariantViolation, "report array", a)
    dims = a.shape + (2,)
    item = "%r"
    for depth in reversed(range(len(dims))):
        outer = indent + "  " * depth
        inner = outer + "  "
        item = "[" + inner + ("," + inner).join([item] * dims[depth]) + outer + "]" if dims[depth] else "[]"
    # A complex128 array viewed as float64 interleaves re and im.
    values += a.ravel().view(np.float64).tolist()
    return item


class _Echo:
    """File stand-in whose ``write`` returns the text, so that a
    ``csv.writer`` row call returns the quoted line."""

    def write(self, text: str) -> str:
        return text


def path_batch_to_csv(batch: PathBatch, start: int = 0) -> str:
    """CSV rows of ``batch`` numbered as samples ``start, start + 1, ...``;
    the header line begins the file, so only ``start == 0`` writes it.  The
    texts of consecutive chunks of a batch concatenate to the text of the
    whole batch."""
    quote = csv.writer(_Echo(), lineterminator="\n").writerow
    # (label, coordinate) cells are the same for every sample: quote once.
    prefixes = [quote([s, p])[:-1] for s in batch.label_set.labels for p in range(batch.dim_h)]
    parts = [] if start else [quote(["sample", "label", "coordinate", "re", "im"])]
    for k, row in enumerate(batch.paths.reshape(batch.count, -1), start):
        cells = map(",".join, zip(prefixes, map(repr, row.real.tolist()), map(repr, row.imag.tolist())))
        parts.append(f"{k}," + f"\n{k},".join(cells) + "\n")
    return "".join(parts)


# ASCII decimal literals, which include every ``repr`` of a finite float;
# no padding, underscores, non-ASCII digits, ``nan`` or ``inf``.
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _decimal(cell: str) -> float:
    """A training CSV number cell: an ASCII decimal literal, or :class:`SpecError` naming it."""
    if not _DECIMAL.fullmatch(cell):
        raise SpecError(f"bad numeric field in training CSV: {cell!r} is not a decimal number")
    return float(cell)


def training_set_from_csv(text: str) -> TrainingSet:
    try:
        header, *rows = csv.reader(io.StringIO(text))
    except csv.Error as exc:  # e.g. a field beyond csv.field_size_limit()
        raise SpecError(f"malformed training CSV: {exc}") from None
    except ValueError:  # nothing to unpack
        raise SpecError("training CSV is empty") from None
    if not header or header[0] != "label" or header[-2:] != ["y_re", "y_im"]:
        raise SpecError("training CSV must have columns label, a_*_re/im, y_re, y_im")
    d = (len(header) - 2) // 2
    for got, want in zip(header[1:], (f"a_{p}_{part}" for p in range(d) for part in ("re", "im"))):
        if got != want:
            raise SpecError(f"unexpected training CSV column {got!r}, expected {want!r}")
    triples = []
    for row in rows:
        if not row:
            continue
        if len(row) != len(header):
            raise SpecError(f"training CSV row has {len(row)} fields, expected {len(header)}")
        values = [_decimal(cell) for cell in row[1:]]
        vec = [complex(values[2 * p], values[2 * p + 1]) for p in range(d)]
        triples.append((row[0], vec, complex(values[-2], values[-1])))
    if not triples:
        raise SpecError("training CSV has no data rows")
    return TrainingSet.from_triples(triples)


def load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError covers JSON and UTF-8 decoding
        raise SpecError(f"cannot read JSON from {path}: {exc}") from None
