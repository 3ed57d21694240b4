"""Writers of the spec wire formats, for building test inputs.

The program only reads specs and training CSVs; these are their inverses,
so tests can write any table, system or training set as the CLI reads it.
"""

import csv
import io

import numpy as np

from opkern import OperatorKernelTable, TrainingSet


def complex_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def array_to_json(arr: np.ndarray):
    """Nested lists with [re, im] leaves, preserving the array shape."""
    a = np.asarray(arr, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def kernel_to_spec(table: OperatorKernelTable) -> dict:
    return {
        "labels": list(table.labels),
        "dim_h": table.dim_h,
        "kind": "explicit",
        "blocks": array_to_json(table.blocks),
    }


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
