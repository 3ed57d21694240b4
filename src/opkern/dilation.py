"""Factorization of positive kernel tables through their flattened eigenbasis.

Every positive table factors as ``K(s, t) = V(s)^H V(t)`` with feature
operators ``V(s): C^d -> C^r`` obtained from the eigendecomposition of the
flattened matrix: with ``flat = U diag(w) U^H`` and eigenpairs kept above a
relative cutoff, the stacked feature matrix is ``diag(sqrt(w)) U^H`` and
``V(s_i)`` is its i-th column block.  The dilation dimension ``r`` is the
numerical rank of the flattened matrix, which makes the factorization
minimal: the feature columns span all of ``C^r``.

Feature matrices are unique only up to a unitary on ``C^r`` (eigenvector
sign/phase freedom included), so consumers must compare factorizations via
inner products ``<V(s)a, V(t)b>``, never entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantViolation, NotPositiveDefinite, ShapeError
from .kernels import RANK_RTOL, TINY, LabelSet, OperatorKernelTable, require_psd


@dataclass(frozen=True)
class FeatureSystem:
    """Feature operators of one kernel table, in the flattened eigenbasis.

    ``stacked`` has shape ``(r, n*d)``; column block ``i*d .. i*d+d-1`` is
    the feature operator of label ``s_i``.  ``basis_eigs`` holds the kept
    eigenvalues in decreasing order; row ``k`` of ``stacked`` is the
    eigenvector of ``basis_eigs[k]`` scaled by its square root.
    """

    label_set: LabelSet
    dim_h: int
    dilation_dim: int
    stacked: np.ndarray
    basis_eigs: np.ndarray

    @property
    def norm(self) -> float:
        """Spectral norm of the factored table: its largest kept eigenvalue,
        or 0 when ``r = 0``.  ``||stacked||_2`` is its square root."""
        return float(self.basis_eigs[0]) if self.dilation_dim else 0.0

    def operator(self, label: str) -> np.ndarray:
        """Feature operator V(s), an (r, d) matrix."""
        i = self.label_set.index(label)
        return self.stacked[:, i * self.dim_h : (i + 1) * self.dim_h]

    def gram(self, s: str, t: str) -> np.ndarray:
        """Reconstructed block ``V(s)^H V(t)``."""
        return self.operator(s).conj().T @ self.operator(t)


def kolmogorov_factorize(table: OperatorKernelTable, tol: float = RANK_RTOL) -> FeatureSystem:
    """Factor a positive table as ``K(s, t) = V(s)^H V(t)``.

    Eigenvalues of the flattened matrix at or below ``tol`` times the
    largest are dropped (never padded), so the dilation dimension is the
    numerical rank.  Raises :class:`NotPositiveDefinite` when the smallest
    eigenvalue is below ``-tol`` times the spectral norm, and checks the
    reconstruction residual against its guaranteed bound,
    ``max(tol, 1e-10)`` times the spectral norm.
    """
    flat = table.flat
    w, u = np.linalg.eigh(flat)
    scale = require_psd(w, tol, NotPositiveDefinite, "kernel table")
    keep = w > tol * max(w[-1], 0.0)
    lam = w[keep][::-1]
    vecs = u[:, keep][:, ::-1]
    stacked = np.sqrt(lam)[:, None] * vecs.conj().T
    stacked.setflags(write=False)
    lam.setflags(write=False)

    # Dropped eigenvalues lie in [-tol * scale, tol * scale], so truncation
    # moves the reconstruction by at most that much.  The Frobenius norm
    # bounds the spectral norm from above, so the SVD behind the spectral
    # norm is needed only when Frobenius fails the bound (an overflowing
    # Frobenius norm fails it).
    defect = stacked.conj().T @ stacked - flat
    rtol = max(tol, 1e-10)
    bound = max(rtol * scale, TINY)
    with np.errstate(over="ignore"):
        frobenius = np.linalg.norm(defect)
    if frobenius > bound and (residual := float(np.linalg.norm(defect, 2))) > bound:
        raise InternalInvariantViolation(
            f"factorization residual {residual:.3e} exceeds {rtol:g} * {scale:.3e}", residual=residual
        )
    return FeatureSystem(
        label_set=table.label_set,
        dim_h=table.dim_h,
        dilation_dim=int(lam.size),
        stacked=stacked,
        basis_eigs=lam,
    )


def minimal_dilation_dim(table: OperatorKernelTable) -> int:
    """Numerical rank of the flattened matrix = dimension of the minimal dilation."""
    return kolmogorov_factorize(table).dilation_dim


def embed(fs: FeatureSystem, t: str, b) -> np.ndarray:
    """Dilation-space vector representing the pair (t, b), i.e. ``V(t) b``."""
    b = np.asarray(b, dtype=np.complex128)
    if b.shape != (fs.dim_h,):
        raise ShapeError(f"expected vector of length {fs.dim_h}, got shape {b.shape}")
    return fs.operator(t) @ b


def adjoint_apply(fs: FeatureSystem, s: str, v) -> np.ndarray:
    """Apply ``V(s)^H`` to a dilation-space vector.

    Composed with :func:`embed` this realizes the reproducing identity
    ``V(s)^H V(t) b = K(s, t) b``.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (fs.dilation_dim,):
        raise ShapeError(f"expected vector of length {fs.dilation_dim}, got shape {v.shape}")
    return fs.operator(s).conj().T @ v


def projection_chain(fs: FeatureSystem, chain, t: str, b) -> np.ndarray:
    """Apply the range maps ``V(s_1)V(s_1)^H ... V(s_m)V(s_m)^H`` to ``V(t) b``.

    The rightmost factor acts first.  By the adjoint identity alone the
    result has the closed form ``V(s_1) K(s_1, s_2) ... K(s_m, t) b``, which
    is asserted against the iterated computation to ``1e-9`` relative; for
    unital tables the factors are orthogonal projections and the sweep is a
    Kaczmarz-style update, but the closed form needs no unitality.
    """
    chain = list(chain)
    vec = embed(fs, t, b)
    start_norm = float(np.linalg.norm(vec))
    for s in reversed(chain):
        op = fs.operator(s)
        vec = op @ (op.conj().T @ vec)
    if chain:
        acc = np.asarray(b, dtype=np.complex128)
        prev = t
        for s in reversed(chain):
            acc = fs.gram(s, prev) @ acc
            prev = s
        expected = fs.operator(chain[0]) @ acc
        scale = max(start_norm, float(np.linalg.norm(expected)), TINY)
        gap = float(np.linalg.norm(vec - expected))
        if gap > 1e-9 * scale:
            raise InternalInvariantViolation(
                f"projection sweep deviates from its closed form by {gap:.3e} (scale {scale:.3e})"
            )
    return vec
