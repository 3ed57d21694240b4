"""Kernel ridge regression on scalarized operator-valued kernels.

Training points are pairs (label, vector) with scalar targets; the design
matrices are the pairwise scalarized kernel values

    [K][i, j] = <a_i, K(s_i, s_j) a_j>,

Gram matrices of the flattened kernel, hence Hermitian positive
semidefinite.  The regularized least-squares problem

    min_f  (f(pts) - y)^H [L]^{-1} (f(pts) - y) + ||f||^2

over the reproducing space of the scalarized kernel has the closed-form
minimizer with coefficients c = ([L] + [K])^{-1} y on the representer
span, fitted values [K] c, and pointwise predictions
f(s, a) = sum_i <a, K(s, s_i) a_i> c_i = <a, F(s)>.

The H-valued function ``F(s) = sum_i K(s, s_i) a_i c_i`` in ``C^d`` is the
regression function of the H-valued Gaussian process: an H-valued target
at s is the d scalar rows ``a = e_p``, so on a full grid F is the posterior
mean.  :func:`krr_fit` solves for c and forms F once, one GEMV with the
flattened kernel, and :func:`predict` reads every query from it;
``krr-fit`` writes F into its report, so ``krr-predict`` needs neither the
kernel nor the training set.

On a full observation grid this coincides with Gaussian-process
conditioning of the noisy sum: the posterior mean
``K_gram (K_gram + L_gram)^{-1} vec(Y)``, the same resolvent as the ridge
solution, is :func:`opkern.gaussian.condition` of the joint
``(K, K + L, T = K)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidKernel, NotPositiveDefinite, ShapeError, SingularSystem
from .kernels import (
    PD_RTOL,
    RANK_RTOL,
    LabelSet,
    OperatorKernelTable,
    gated_solve,
    psd_certified,
    require_finite,
    require_psd,
)


@dataclass(frozen=True)
class TrainingSet:
    """m triples (label, vector in C^d, scalar target)."""

    labels: tuple[str, ...]
    vectors: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        m = len(self.labels)
        if m < 1:
            raise InvalidKernel("training set must not be empty")
        if self.vectors.ndim != 2 or self.vectors.shape[0] != m:
            raise ShapeError(f"vectors must be ({m}, d), got {self.vectors.shape}")
        if self.targets.shape != (m,):
            raise ShapeError(f"targets must be ({m},), got {self.targets.shape}")
        require_finite(InvalidKernel, "training data", self.vectors, self.targets)

    @classmethod
    def from_triples(cls, triples) -> "TrainingSet":
        labels, vectors, targets = [], [], []
        for s, a, y in triples:
            labels.append(str(s))
            vectors.append(np.asarray(a, dtype=np.complex128))
            targets.append(complex(y))
        return cls(
            labels=tuple(labels),
            vectors=np.array(vectors, dtype=np.complex128),
            targets=np.array(targets, dtype=np.complex128),
        )

    @property
    def size(self) -> int:
        return len(self.labels)


def _training_rows(kernel: OperatorKernelTable, train: TrainingSet) -> np.ndarray:
    """The position of each training label in the kernel's label set."""
    if train.vectors.shape[1] != kernel.dim_h:
        raise ShapeError(
            f"training vectors have length {train.vectors.shape[1]}, kernel expects {kernel.dim_h}"
        )
    return np.array([kernel.label_set.index(s) for s in train.labels], dtype=np.intp)


_ROW_BLOCK = 64  # training rows per slab of gathered kernel blocks in _pair_gram


@np.errstate(over="ignore", invalid="ignore")
def _pair_gram(table: OperatorKernelTable, train: TrainingSet, rows: np.ndarray, what: str) -> np.ndarray:
    gram = np.empty((train.size, train.size), dtype=np.complex128)
    for lo in range(0, train.size, _ROW_BLOCK):
        part = slice(lo, lo + _ROW_BLOCK)
        # Each row is the same sum as in one einsum over the whole (m, m, d, d) gather.
        slab = table.blocks[np.ix_(rows[part], rows)]
        gram[part] = np.einsum("ip,ijpq,jq->ij", train.vectors[part].conj(), slab, train.vectors)
    gram = 0.5 * (gram + gram.conj().T)
    require_finite(InvalidKernel, what, gram)
    if not psd_certified(gram, PD_RTOL):
        require_psd(np.linalg.eigvalsh(gram), PD_RTOL, NotPositiveDefinite, what)
    return gram


def design_matrices(kernel: OperatorKernelTable, noise_kernel: OperatorKernelTable,
                    train: TrainingSet) -> tuple[np.ndarray, np.ndarray]:
    """Both m x m design matrices, ``([K], [L])``; a non-positive one raises
    :class:`NotPositiveDefinite` and an overflowing one
    :class:`InvalidKernel`, each naming its slot (``signal`` or ``noise``)."""
    kernel._require_same_shape(noise_kernel)
    rows = _training_rows(kernel, train)
    return (_pair_gram(kernel, train, rows, "signal design matrix"),
            _pair_gram(noise_kernel, train, rows, "noise design matrix"))


@dataclass(frozen=True)
class RegressionFit:
    """Representer coefficients c = ([L] + [K])^{-1} y, fitted values [K] c,
    and the (n, d) regression function F with one row per kernel label."""

    coefficients: np.ndarray
    fitted: np.ndarray
    regression_function: np.ndarray


@np.errstate(over="ignore", invalid="ignore")
def krr_fit(kernel: OperatorKernelTable, noise_kernel: OperatorKernelTable, train: TrainingSet) -> RegressionFit:
    """Fit the training targets and form ``F(s) = sum_j K(s, s_j) a_j c_j``.

    Raises :class:`SingularSystem` when ``[L] + [K]`` is singular to
    ``RANK_RTOL`` relative, and :class:`InvalidKernel` when the system, the
    coefficients, the fitted values or F overflow.  F sums the weights
    ``a_j c_j`` per label, then takes one product with the flattened kernel.
    """
    kernel_gram, noise_gram = design_matrices(kernel, noise_kernel, train)
    total = noise_gram + kernel_gram
    require_finite(InvalidKernel, "[L] + [K]", total)
    c = gated_solve(total, train.targets, RANK_RTOL, SingularSystem, "[L] + [K]")
    fitted = kernel_gram @ c
    require_finite(InvalidKernel, "ridge solution", c, fitted)
    weights = np.zeros((kernel.n, kernel.dim_h), dtype=np.complex128)
    np.add.at(weights, _training_rows(kernel, train), train.vectors * c[:, None])
    f_values = (kernel.flat @ weights.reshape(-1)).reshape(kernel.n, kernel.dim_h)
    require_finite(InvalidKernel, "regression function", f_values)
    return RegressionFit(coefficients=c, fitted=fitted, regression_function=f_values)


@np.errstate(over="ignore", invalid="ignore")
def predict(label_set: LabelSet, f_values: np.ndarray, labels, vectors) -> np.ndarray:
    """Evaluate the fitted function at every query ``(labels[q], vectors[q])``:
    ``f(s, a) = <a, F(s)>``, where ``f_values`` is the (n, d) regression
    function of a :func:`krr_fit` over ``label_set``.

    At training point i this is ``([K] c)[i]`` up to rounding.  An
    overflowing value raises :class:`InvalidKernel`.
    """
    vectors = np.asarray(vectors, dtype=np.complex128)
    shape = (len(labels), f_values.shape[1])
    if vectors.shape != shape:
        raise ShapeError(f"query vectors must be {shape}, got {vectors.shape}")
    rows = np.array([label_set.index(s) for s in labels], dtype=np.intp)
    values = np.einsum("qp,qp->q", vectors.conj(), f_values[rows])
    require_finite(InvalidKernel, "prediction", values)
    return values

