"""Factorization of positive kernel tables through their flattened eigenbasis.

Every positive table factors as ``K(s, t) = V(s)^H V(t)`` with feature
operators ``V(s): C^d -> C^r`` obtained from the eigendecomposition of the
flattened matrix: with ``flat = U diag(w) U^H`` and eigenpairs kept above a
relative cutoff, the stacked feature matrix is ``diag(sqrt(w)) U^H`` and
``V(s_i)`` is its i-th column block.  The dilation dimension ``r`` is the
numerical rank of the flattened matrix, which makes the factorization
minimal: the feature columns span all of ``C^r``.  A table that passes the
positivity gate factors: its reconstruction is checked against the
truncation bound plus the eigensolver allowance of ``psd_certified``.

Feature matrices are unique only up to a unitary on ``C^r`` (eigenvector
sign/phase freedom included), so consumers must compare factorizations via
inner products ``<V(s)a, V(t)b>``, never entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantViolation, NotPositiveDefinite
from .kernels import EIGENSOLVER_ALLOWANCE, RANK_RTOL, TINY, LabelSet, OperatorKernelTable, require_at_most, require_psd


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

    @property
    def pinv(self) -> np.ndarray:
        """Pseudo-inverse of ``stacked``: its rows are orthogonal with squared
        norms ``basis_eigs``, so it is ``stacked^H diag(1 / basis_eigs)``."""
        return self.stacked.conj().T / self.basis_eigs

    def operator(self, label: str) -> np.ndarray:
        """Feature operator V(s), an (r, d) matrix."""
        i = self.label_set.index(label)
        return self.stacked[:, i * self.dim_h : (i + 1) * self.dim_h]


def kolmogorov_factorize(
    table: OperatorKernelTable, tol: float = RANK_RTOL, what: str = "kernel table"
) -> FeatureSystem:
    """Factor a positive table as ``K(s, t) = V(s)^H V(t)``.

    Eigenvalues of the flattened matrix at or below ``tol`` times the
    largest are dropped (never padded), so the dilation dimension is the
    numerical rank.  Raises :class:`NotPositiveDefinite`, naming the table
    ``what``, when the smallest eigenvalue is below ``-tol`` times the
    spectral norm, and checks the reconstruction residual against its
    guaranteed bound, ``max(tol, 1e-10) + EIGENSOLVER_ALLOWANCE * n * u``
    times the spectral norm (``n`` the order of the flattened matrix, ``u``
    the unit roundoff).
    """
    flat = table.flat
    w, u = np.linalg.eigh(flat)
    scale = require_psd(w, tol, NotPositiveDefinite, what)
    keep = w > tol * max(w[-1], 0.0)
    lam = w[keep][::-1]
    vecs = u[:, keep][:, ::-1]
    stacked = np.sqrt(lam)[:, None] * vecs.conj().T
    stacked.setflags(write=False)
    lam.setflags(write=False)

    # Dropped eigenvalues lie in [-tol * scale, tol * scale], so truncation
    # moves the reconstruction by at most that much, and the eigensolver's
    # rounding by its allowance in psd_certified more.  The Frobenius norm
    # bounds the spectral norm from above, so the SVD behind the spectral
    # norm is needed only when Frobenius exceeds the bound (an overflowing
    # Frobenius norm does; a NaN one is the residual).
    defect = stacked.conj().T @ stacked - flat
    rtol = max(tol, 1e-10) + EIGENSOLVER_ALLOWANCE * flat.shape[0] * np.finfo(np.float64).eps / 2
    bound = max(rtol * scale, TINY)
    with np.errstate(over="ignore"):
        frobenius = float(np.linalg.norm(defect))
    residual = float(np.linalg.norm(defect, 2)) if frobenius > bound else frobenius
    require_at_most(residual, bound, InternalInvariantViolation,
                    f"factorization residual {residual:.3e} exceeds {rtol:g} * {scale:.3e}", residual=residual)
    return FeatureSystem(
        label_set=table.label_set,
        dim_h=table.dim_h,
        dilation_dim=int(lam.size),
        stacked=stacked,
        basis_eigs=lam,
    )
