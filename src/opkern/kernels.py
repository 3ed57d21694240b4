"""Block tables of operator-valued kernels over a finite, ordered label set.

A kernel assigns to every ordered pair of labels ``(s, t)`` a ``d x d``
complex matrix ``K(s, t)`` acting on ``H = C^d``.  Inner products are linear
in the second argument (``<a, b> = a^H b``), so positivity of a kernel means

    sum_ij <a_i, K(s_i, s_j) a_j>  >=  0

for every finite system of vectors ``a_i``, one per label.  Equivalently the
*flattened* matrix is positive semidefinite: flattening places block
``(i, j)`` at rows ``i*d .. i*d+d-1`` and columns ``j*d .. j*d+d-1`` (labels
major, coordinates minor).  This ordering is canonical throughout the
package; every Gram-level computation in the other modules relies on it.
A table stores only its flattened matrix; the ``(n, n, d, d)`` block array
is a zero-copy view of it.  A table is a validated kernel, not a value to
compute with: differences and congruences are formed on flat matrices.

Every gate that raises and is neither strict nor a finiteness check
decides in :func:`require_at_most`, and a NaN fails every gate.  Positivity
(:func:`require_psd`) needs the smallest eigenvalue to be at least ``-tol``
times a scale, by default the matrix's own spectral norm, and an
infinite spectral norm is refused as input.  Two gates pass
a different scale: the Schur complement of a joint table uses ``max(own
norm, norm of the joint table)``, and the domination test of a
Radon-Nikodym pair the norm of the dominating table.  An explicit ``tol``
of :func:`is_positive_definite` (``check-pd --tol``) is an absolute bound
on the smallest eigenvalue.  Rank cutoffs are relative to the largest
eigenvalue or singular value.
A gate that needs only its verdict may first ask :func:`psd_certified`,
one Cholesky factorization with a stated rounding allowance.  It says yes
only where the eigendecomposition's gate passes as well, and otherwise the
gate runs on the eigenvalues as before, so decisions, messages and exit
codes are those of the eigendecomposition.
Block-level comparisons use Frobenius norms, which bound the per-block
spectral norm from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    InternalInvariantViolation,
    InvalidKernel,
    LabelError,
    NotStrictContraction,
    ShapeError,
)

#: Relative tolerance for repairing block asymmetry on construction.
HERMITIAN_RTOL = 1e-12
#: Relative tolerance on the smallest eigenvalue in positivity tests.
PD_RTOL = 1e-10
#: Relative eigenvalue/singular-value cutoff for numerical ranks.
RANK_RTOL = 1e-10
#: Floor for scales used as divisors or bounds.
TINY = 1e-300
#: Multiples of the unit roundoff ``u`` in the rounding allowance of
#: :func:`psd_certified`: of ``(n+1) u max_row_sum(|R^H| |R|)``, the backward
#: error of the Cholesky factor ``R``, and of ``n u ||gram||_F``, the error
#: of the eigensolver whose gate it stands in for.
CHOLESKY_ALLOWANCE = 4.0
EIGENSOLVER_ALLOWANCE = 4.0


@dataclass(frozen=True)
class LabelSet:
    """Ordered, distinct labels; the ordering fixes the flattening."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) == 0:
            raise InvalidKernel("label set must not be empty")
        if len(set(self.labels)) != len(self.labels):
            raise InvalidKernel("labels must be distinct")
        object.__setattr__(self, "_positions", {s: i for i, s in enumerate(self.labels)})

    @classmethod
    def of(cls, labels: Iterable[str]) -> "LabelSet":
        return cls(tuple(str(s) for s in labels))

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise LabelError(f"unknown label {label!r}") from None


def _block_frobenius(blocks: np.ndarray) -> np.ndarray:
    # Moduli are scaled by a power of two near the largest, which is exact
    # and keeps the squares from overflowing.
    mod = np.abs(blocks)
    scale = np.ldexp(1.0, int(np.frexp(mod.max(initial=0.0))[1]) - 1)
    mod /= scale
    mod *= mod
    return scale * np.sqrt(mod.sum(axis=(2, 3)))


class OperatorKernelTable:
    """An ``n x n`` table of ``d x d`` blocks ``K(s_i, s_j)``.

    Construction validates finiteness and the Hermitian block pattern
    ``K(t, s) == K(s, t)^H``.  Asymmetry up to ``1e-12`` relative to the
    largest block norm is repaired by averaging; anything worse is rejected
    as a data error rather than silently fixed.  The block norms are
    measured only when the table differs from its adjoint.  A table is a
    validated kernel, not a value to compute with: it has no arithmetic,
    is immutable and is safe to share between threads.
    """

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, label_set: LabelSet, blocks) -> None:
        blocks = np.asarray(blocks, dtype=np.complex128)
        n = label_set.n
        if blocks.ndim != 4 or blocks.shape[0] != n or blocks.shape[1] != n:
            raise ShapeError(f"expected ({n}, {n}, d, d) blocks, got {blocks.shape}")
        if blocks.shape[2] != blocks.shape[3] or blocks.shape[2] < 1:
            raise ShapeError(f"blocks must be square and non-empty, got {blocks.shape}")
        require_finite(InvalidKernel, "kernel table", blocks)

        flat = block_layout(blocks)  # a view when ``blocks`` is the block view of a flat matrix
        adjoint = flat.conj().T
        if not np.array_equal(flat, adjoint):  # an exact adjoint has zero asymmetry at any scale
            scale = float(_block_frobenius(blocks).max())
            asym = float(_block_frobenius(_block_view(flat - adjoint, n)).max())
            require_at_most(asym, HERMITIAN_RTOL * max(scale, TINY), InvalidKernel,
                            f"block pattern is not Hermitian: asymmetry {asym:.3e} "
                            f"exceeds {HERMITIAN_RTOL:g} * {scale:.3e}", residual=asym)
        flat = 0.5 * (flat + adjoint)
        require_finite(InvalidKernel, "symmetrized kernel table", flat)  # entries near the float limit
        flat.setflags(write=False)

        self.label_set = label_set
        self._flat = flat

    @property
    def n(self) -> int:
        return self.label_set.n

    @property
    def dim_h(self) -> int:
        return self._flat.shape[0] // self.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.label_set.labels

    @property
    def flat(self) -> np.ndarray:
        """The one array a table stores: entry ``(i*d + p, j*d + q)`` is
        ``K(s_i, s_j)[p, q]``.  C-contiguous, read-only and exactly Hermitian,
        since ``(K + K^*) / 2`` has exactly conjugate mirrored entries."""
        return self._flat

    @property
    def blocks(self) -> np.ndarray:
        """The ``(n, n, d, d)`` blocks ``K(s_i, s_j)``: a read-only view of :attr:`flat`."""
        return _block_view(self._flat, self.n)

    def block(self, s: str, t: str) -> np.ndarray:
        return self.blocks[self.label_set.index(s), self.label_set.index(t)]

    @classmethod
    def from_flat(cls, label_set: LabelSet, dim_h: int, flat) -> "OperatorKernelTable":
        """The table whose :attr:`flat` is ``flat`` after symmetrization."""
        flat = np.asarray(flat, dtype=np.complex128)
        n = label_set.n
        if flat.shape != (n * dim_h, n * dim_h):
            raise ShapeError(f"expected ({n * dim_h}, {n * dim_h}) matrix, got {flat.shape}")
        return cls(label_set, _block_view(flat, n))

    def _require_same_shape(self, other: "OperatorKernelTable") -> None:
        if self.label_set != other.label_set or self.dim_h != other.dim_h:
            raise ShapeError("kernel tables have different labels or operator dimension")

    def __repr__(self) -> str:
        return f"OperatorKernelTable(n={self.n}, dim_h={self.dim_h})"


def block_layout(blocks: np.ndarray) -> np.ndarray:
    """Place an ``(n, n, d, d)`` block array in the canonical ``(n*d, n*d)``
    layout of :attr:`OperatorKernelTable.flat`, without symmetrizing."""
    n, _, d, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(n * d, n * d)


def _block_view(flat: np.ndarray, n: int) -> np.ndarray:
    """The ``(n, n, d, d)`` block view of a canonical ``(n*d, n*d)`` matrix."""
    d = flat.shape[0] // n
    return flat.reshape(n, d, n, d).transpose(0, 2, 1, 3)


@dataclass(frozen=True)
class PDReport:
    """Outcome of a positivity test on the flattened matrix."""

    pd: bool
    min_eig: float
    scale: float


def eig_extremes(evals: np.ndarray, what: str) -> tuple[float, float]:
    """Smallest eigenvalue and spectral norm, from ascending Hermitian
    eigenvalues; a NaN extreme makes the norm NaN.  An infinite norm, from
    a matrix ``what`` whose spectrum overflows, raises :class:`InvalidKernel`."""
    scale = float(np.maximum(abs(evals[0]), abs(evals[-1])))
    if math.isinf(scale):
        raise InvalidKernel(f"{what} leaves the float range: spectral norm {scale:.3e}")
    return float(evals[0]), scale


def max_spectral_norm(a: np.ndarray, rows: int, cols: int) -> float:
    """Largest spectral norm of the ``rows x cols`` equal blocks of ``a``, in one batched SVD."""
    p, q = a.shape[0] // rows, a.shape[1] // cols
    blocks = a.reshape(rows, p, cols, q).transpose(0, 2, 1, 3).reshape(rows * cols, p, q)
    return float(np.linalg.norm(blocks, 2, axis=(1, 2)).max())


def max_scale(*values: float) -> float:
    """The largest of ``values`` and ``TINY``; NaN when any value is NaN, which
    Python's ``max`` drops after its first argument."""
    return float(np.max((*values, TINY)))


def is_positive_definite(table: OperatorKernelTable, tol: float | None = None) -> PDReport:
    """Test positivity of a kernel table.

    The smallest eigenvalue of the flattened matrix is compared against
    ``-tol``; ``tol`` defaults to ``1e-10`` times the spectral norm.  By
    finite-dimensional linear algebra this is equivalent to nonnegativity
    of the quadratic form over all coefficient systems, up to the same
    tolerance relative to ``sum ||a_i||^2``.
    """
    min_eig, scale = eig_extremes(np.linalg.eigvalsh(table.flat), "kernel table")
    if tol is None:
        tol = PD_RTOL * scale
    elif tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return PDReport(pd=min_eig >= -tol, min_eig=min_eig, scale=scale)


def require_finite(error: type[Exception], what: str, *arrays) -> None:
    """Raise ``error`` when any entry of ``arrays`` is NaN or infinite;
    ``what`` names them in the message."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise error(f"{what} contains non-finite entries")


def require_at_most(value: float, bound: float, error: type[Exception], message: str, **measured) -> None:
    """Raise ``error(message, **measured)`` unless ``value <= bound``; a NaN
    fails.  Verdicts that are returned, not raised, compare where they are
    reported: ``check-pd``'s ``pd``, the ``passed`` of ``verify_realization``
    and ``mc-verify``, and ``conditional_cov_equal``."""
    if not value <= bound:
        raise error(message, **measured)


def require_psd(evals: np.ndarray, tol: float, error: type[Exception], what: str, scale: float | None = None) -> float:
    """Raise ``error``, naming the matrix ``what`` and carrying ``min_eig``,
    unless the smallest of its ascending Hermitian eigenvalues ``evals`` is
    at least ``-tol * scale``; a NaN fails.  ``scale`` defaults to the
    spectral norm; the scale used is returned.  An infinite spectral norm
    raises :class:`InvalidKernel` whatever ``scale`` is."""
    min_eig, own = eig_extremes(evals, what)
    scale = own if scale is None else scale
    require_at_most(-min_eig, tol * scale, error,
                    f"{what} is not positive (min eig {min_eig:.3e} < -{tol:g} * {scale:.3e})", min_eig=min_eig)
    return scale


def require_invertible(evals: np.ndarray, tol: float, error: type[Exception], what: str) -> None:
    """Raise ``error``, naming the matrix ``what``, unless its ascending Hermitian
    eigenvalues ``evals`` are all above ``tol`` times the largest and the
    largest is positive; a NaN fails."""
    lo, hi = float(evals[0]), float(evals[-1])
    if not (lo > tol * max(hi, 0.0) and hi > 0.0):
        raise error(f"{what} is numerically singular (eigs in [{lo:.3e}, {hi:.3e}])")


@np.errstate(all="ignore")  # a bound that overflows certifies nothing
def psd_certified(gram: np.ndarray, tol: float, invertible: bool = False) -> bool:
    """True only when the eigenvalues ``np.linalg.eigvalsh`` computes for the
    Hermitian ``gram`` pass :func:`require_psd` at ``tol`` (the default) or,
    with ``invertible``, :func:`require_invertible` at ``tol``; False
    decides nothing.

    One Cholesky factorization ``gram - shift I = R^H R`` bounds every
    eigenvalue of ``gram`` from below by ``shift`` minus its backward error,
    and the eigensolver's computed eigenvalues lie within its own error of
    the exact ones.  The sum of the two, ``CHOLESKY_ALLOWANCE * (n+1) u
    max_row_sum(|R^H| |R|) + EIGENSOLVER_ALLOWANCE * n u ||gram||_F``, must
    be at most half the gate's threshold ``tol * max_i gram[i, i]``, which is
    measured against the largest diagonal entry, a lower bound of the
    spectral norm.  The positivity gate factors at ``shift = 0``.  The
    invertibility gate factors at ``tol * ||gram||_F``, an upper bound of
    ``tol`` times the largest eigenvalue, plus the threshold, so that the
    computed eigenvalues keep half the threshold above it.  The matrix is
    first scaled by a power of two, which is exact and keeps the factor and
    the bound clear of overflow and underflow; a factorization that fails
    or anything that is not finite certifies nothing.
    """
    n = gram.shape[0]
    top = float(gram.diagonal().real.max(initial=0.0))
    if not np.finfo(np.float64).tiny <= top < np.inf:  # a subnormal scale has no power of two to undo it
        return False
    mantissa, exponent = math.frexp(top)
    scaled = gram * math.ldexp(1.0, -exponent)  # the largest diagonal entry becomes the mantissa, in [0.5, 1)
    frobenius = float(np.linalg.norm(scaled))
    threshold = tol * mantissa
    if invertible:
        scaled[np.diag_indices(n)] -= tol * frobenius + threshold
    try:
        factor = np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        return False
    moduli = np.abs(factor)
    row_sum = float((moduli @ moduli.sum(axis=0)).max())  # of |R^H| |R| = |L| |L|^T, L = R^H
    u = float(np.finfo(np.float64).eps) / 2
    allowance = u * (CHOLESKY_ALLOWANCE * (n + 1) * row_sum + EIGENSOLVER_ALLOWANCE * n * frobenius)
    return math.isfinite(allowance) and allowance <= 0.5 * threshold


def gated_solve(gram: np.ndarray, rhs, tol: float, error: type[Exception], what: str) -> np.ndarray:
    """Solve ``gram x = rhs`` for a Hermitian ``gram`` that passes
    :func:`require_invertible`.  The gate is decided by
    :func:`psd_certified` when it certifies ``gram`` invertible, and by the
    eigenvalues otherwise; the solve is the same LU ``np.linalg.solve``
    either way, so the gate never moves the solution."""
    if not psd_certified(gram, tol, invertible=True):
        require_invertible(np.linalg.eigvalsh(gram), tol, error, what)
    return np.linalg.solve(gram, rhs)


# ---------------------------------------------------------------------------
# Kernel zoo
# ---------------------------------------------------------------------------


def identity_kernel(label_set: LabelSet, dim_h: int) -> OperatorKernelTable:
    """K(s, t) = delta_st * I."""
    return OperatorKernelTable.from_flat(label_set, dim_h, np.eye(label_set.n * dim_h))


def constant_kernel(label_set: LabelSet, block) -> OperatorKernelTable:
    """K(s, t) = B for a fixed Hermitian block B."""
    block = np.asarray(block, dtype=np.complex128)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise ShapeError(f"constant block must be square, got {block.shape}")
    n, d = label_set.n, block.shape[0]
    return OperatorKernelTable(label_set, np.broadcast_to(block, (n, n, d, d)))


def _strict_contraction(h, label_set: LabelSet, point_map: Mapping) -> tuple[np.ndarray, float, np.ndarray]:
    """The square complex matrix ``h``, its operator norm, which must be
    below 1, and the ``(n, d, d)`` points of ``point_map`` in label order."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeError(f"contraction must be square, got {h.shape}")
    norm = float(np.linalg.norm(h, 2))
    if not norm < 1.0:  # also rejects a NaN norm
        raise NotStrictContraction(f"operator norm {norm:.6g} is not < 1")
    if not isinstance(point_map, Mapping):
        raise ShapeError("point_map must be a mapping label -> matrix")
    d = h.shape[0]
    points = np.empty((label_set.n, d, d), dtype=np.complex128)
    for i, s in enumerate(label_set.labels):
        try:
            p = np.asarray(point_map[s], dtype=np.complex128)
        except KeyError:
            raise LabelError(f"point_map has no entry for label {s!r}") from None
        if p.shape != (d, d):
            raise ShapeError(f"point for {s!r} must be ({d}, {d}), got {p.shape}")
        points[i] = p
    return h, norm, points


def cp_contraction_kernel(h, label_set: LabelSet, point_map: Mapping) -> OperatorKernelTable:
    """Defect table of a strict contraction: blocks ``I - (s_i h)^H (s_j h)``.

    ``point_map`` assigns each label a d x d matrix.  The result is not
    positive for every choice of points; positivity must be tested by the
    caller when it matters.
    """
    h, _, points = _strict_contraction(h, label_set, point_map)
    d = h.shape[0]
    moved = points @ h
    gram = np.einsum("ipq,jpr->ijqr", moved.conj(), moved)
    blocks = np.eye(d) - gram
    return OperatorKernelTable(label_set, blocks)


def _series_length(q: float, max_norm: float, tol: float) -> int:
    """Smallest ``N >= 1`` with ``q^(2N) * max_norm < tol``, for ``0 <= q < 1``.

    The closed form is corrected by single steps against the same
    predicate, so rounding in the logarithms cannot move the result.
    """

    def too_short(n: int) -> bool:
        return q ** (2 * n) * max_norm >= tol

    if not too_short(1):
        return 1
    n = max(1, math.ceil((math.log(tol) - math.log(max_norm)) / (2 * math.log(q))))
    while n > 1 and not too_short(n - 1):
        n -= 1
    while too_short(n):
        n += 1
    return n


@np.errstate(over="ignore", invalid="ignore")  # an overflowing table is refused as non-finite
def neumann_series_kernel(h, label_set: LabelSet, point_map: Mapping, tol: float = 1e-12) -> OperatorKernelTable:
    """Geometric resolvent table ``sum_m h^{mH} (s_i^H s_j) h^m``.

    The series keeps the terms ``m < N`` for the smallest ``N >= 1`` with
    ``||h||^(2N) * max_ij ||s_i^H s_j|| < tol``, so the first dropped term
    is controlled a priori by the operator-norm geometric bound.  The ``N``
    terms are summed by binary splitting,
    ``S(a + b) = S(a) + (h^a)^H S(b) h^a``, in ``O(log N)`` block products.
    Each summand is a Gram block ``(s_i h^m)^H (s_j h^m)``, so the truncated
    table is positive by construction; this is verified and enforced.
    """
    h, q, points = _strict_contraction(h, label_set, point_map)
    d = h.shape[0]
    if tol <= 0:
        raise ValueError("truncation tolerance must be positive")

    base = np.einsum("ipq,jpr->ijqr", points.conj(), points)
    n_terms = _series_length(q, max_spectral_norm(block_layout(base), label_set.n, label_set.n), tol)

    acc, shift = np.zeros_like(base), np.eye(d, dtype=np.complex128)  # S(done), h^done
    part, power = base, h  # S(2^k), h^(2^k)
    for bit in bin(n_terms)[:1:-1]:  # least significant bit first
        if bit == "1":
            acc = acc + shift.conj().T @ part @ shift
            shift = shift @ power
        part = part + power.conj().T @ part @ power
        power = power @ power
    table = OperatorKernelTable(label_set, acc)
    require_psd(np.linalg.eigvalsh(table.flat), PD_RTOL, InternalInvariantViolation, "truncated series table")
    return table


def random_pd_kernel(seed: int, n: int, d: int, rank: int | None = None) -> OperatorKernelTable:
    """Seeded random positive table with prescribed flattened rank.

    The flattened matrix is ``G^H G`` for a ``rank x (n*d)`` complex
    Gaussian matrix ``G``, so positivity holds by construction and the
    output is bit-identical for a fixed seed.  Labels are ``s1 .. sn``.
    """
    if rank is None:
        rank = n * d
    if not 1 <= rank <= n * d:
        raise InvalidKernel(f"rank must be in [1, {n * d}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((rank, n * d)) + 1j * rng.standard_normal((rank, n * d))
    labels = LabelSet.of(f"s{i + 1}" for i in range(n))
    return OperatorKernelTable.from_flat(labels, d, g.conj().T @ g)
