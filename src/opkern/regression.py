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
f(s, a) = sum_i <a, K(s, s_i) a_i> c_i.

On a full observation grid this coincides with Gaussian-process
conditioning of the noisy sum: the posterior mean is
``K_gram (K_gram + L_gram)^{-1} vec(Y)``, the same resolvent as the ridge
solution.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalInvariantViolation,
    InvalidKernel,
    ShapeError,
    SingularL,
    SingularSystem,
)
from .kernels import PD_RTOL, RANK_RTOL, TINY, OperatorKernelTable, eig_extremes, gated_solve, require_finite


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


@dataclass(frozen=True)
class DesignMatrices:
    """Pairwise scalarized kernel values of the training pairs, for K and L.

    ``rows`` holds the position of each training label in the kernels'
    label set.
    """

    kernel_gram: np.ndarray
    noise_gram: np.ndarray
    training: TrainingSet
    kernel: OperatorKernelTable
    noise_kernel: OperatorKernelTable
    rows: np.ndarray


@np.errstate(over="ignore", invalid="ignore")
def _pair_gram(table: OperatorKernelTable, train: TrainingSet, rows: np.ndarray) -> np.ndarray:
    blocks = table.blocks[np.ix_(rows, rows)]
    gram = np.einsum("ip,ijpq,jq->ij", train.vectors.conj(), blocks, train.vectors)
    gram = 0.5 * (gram + gram.conj().T)
    require_finite(InvalidKernel, "design matrix", gram)
    min_eig, scale = eig_extremes(np.linalg.eigvalsh(gram))
    if min_eig < -PD_RTOL * scale:
        raise InternalInvariantViolation(
            f"design matrix lost positivity (min eig {min_eig:.3e}); "
            "the underlying kernel table is not positive"
        )
    return gram


def design_matrices(
    kernel: OperatorKernelTable,
    noise_kernel: OperatorKernelTable,
    train: TrainingSet,
) -> DesignMatrices:
    """Evaluate both m x m design matrices; positivity is asserted, and an
    overflowing matrix raises :class:`InvalidKernel`."""
    kernel._require_same_shape(noise_kernel)
    if train.vectors.shape[1] != kernel.dim_h:
        raise ShapeError(
            f"training vectors have length {train.vectors.shape[1]}, kernel expects {kernel.dim_h}"
        )
    rows = np.array([kernel.label_set.index(s) for s in train.labels])
    return DesignMatrices(
        kernel_gram=_pair_gram(kernel, train, rows),
        noise_gram=_pair_gram(noise_kernel, train, rows),
        training=train,
        kernel=kernel,
        noise_kernel=noise_kernel,
        rows=rows,
    )


@dataclass(frozen=True)
class RegressionFit:
    """Representer coefficients c = ([L] + [K])^{-1} y and fitted values [K] c."""

    coefficients: np.ndarray
    fitted: np.ndarray
    design: DesignMatrices


@np.errstate(over="ignore", invalid="ignore")
def krr_fit(dm: DesignMatrices, y) -> RegressionFit:
    """Solve the ridge system; raises :class:`SingularSystem` when ``[L] + [K]``
    is singular to ``RANK_RTOL`` relative, and :class:`InvalidKernel` when
    the system, the coefficients or the fitted values overflow."""
    y = np.asarray(y, dtype=np.complex128)
    m = dm.training.size
    if y.shape != (m,):
        raise ShapeError(f"targets must be ({m},), got {y.shape}")
    total = dm.noise_gram + dm.kernel_gram
    require_finite(InvalidKernel, "[L] + [K]", total)
    c = gated_solve(total, y, RANK_RTOL, SingularSystem, "[L] + [K]")
    fitted = dm.kernel_gram @ c
    require_finite(InvalidKernel, "ridge solution", c, fitted)
    return RegressionFit(coefficients=c, fitted=fitted, design=dm)


@np.errstate(over="ignore", invalid="ignore")
def predict(fit: RegressionFit, s: str, a) -> complex:
    """Evaluate the fitted function at (s, a).

    The sesquilinear placement is fixed so that evaluating at training
    point i returns exactly ``([K] c)[i]``.  An overflowing value raises
    :class:`InvalidKernel`.
    """
    table = fit.design.kernel
    a = np.asarray(a, dtype=np.complex128)
    if a.shape != (table.dim_h,):
        raise ShapeError(f"expected vector of length {table.dim_h}, got {a.shape}")
    i = table.label_set.index(s)
    dm = fit.design
    row = np.einsum("p,jpq,jq->j", a.conj(), table.blocks[i, dm.rows], dm.training.vectors)
    value = complex(row @ fit.coefficients)
    if not cmath.isfinite(value):  # one query at a time: the scalar test is the cheap one
        raise InvalidKernel("prediction contains non-finite entries")
    return value


def objective_value(
    kernel: OperatorKernelTable,
    noise_kernel: OperatorKernelTable,
    train: TrainingSet,
    y,
    g,
) -> float:
    """Ridge objective on the representer span.

    For the representer candidate with coefficients ``g`` the data-fit term
    is ``([K] g - y)^H [L]^{-1} ([K] g - y)`` and the penalty ``g^H [K] g``;
    a rank-deficient [L] makes the objective ill-posed and raises
    :class:`SingularL` rather than being pseudo-inverted.
    """
    dm = design_matrices(kernel, noise_kernel, train)
    y = np.asarray(y, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    m = train.size
    if y.shape != (m,) or g.shape != (m,):
        raise ShapeError(f"y and g must have shape ({m},)")
    r = dm.kernel_gram @ g - y
    l_inv_r = gated_solve(dm.noise_gram, r, RANK_RTOL, SingularL, "[L]")
    value = complex(r.conj() @ l_inv_r + g.conj() @ dm.kernel_gram @ g)
    scale = max(abs(value), float(np.linalg.norm(y) ** 2), TINY)
    if abs(value.imag) > 1e-12 * scale:
        raise InternalInvariantViolation(
            f"objective should be real; imaginary part {value.imag:.3e} at scale {scale:.3e}"
        )
    return float(value.real)


def gp_posterior_mean(
    kernel: OperatorKernelTable,
    noise_kernel: OperatorKernelTable,
    observed,
) -> np.ndarray:
    """Posterior mean of the signal given signal-plus-noise on the full grid.

    Gram-level formula ``K_gram (K_gram + L_gram)^{-1} vec(observed)``,
    reshaped to (n, d).  Raises :class:`SingularSystem` when the resolvent
    is singular to ``RANK_RTOL`` relative.
    """
    kernel._require_same_shape(noise_kernel)
    n, d = kernel.n, kernel.dim_h
    observed = np.asarray(observed, dtype=np.complex128)
    if observed.shape != (n, d):
        raise ShapeError(f"observed values must be ({n}, {d}), got {observed.shape}")
    total = kernel.flat + noise_kernel.flat
    solved = gated_solve(total, observed.reshape(n * d), RANK_RTOL, SingularSystem, "K + L Gram")
    return (kernel.flat @ solved).reshape(n, d)
