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

Positivity is decided by :func:`require_psd`: the smallest eigenvalue must
be at least ``-tol`` times a scale, by default the matrix's own spectral
norm.  Two gates pass a different scale: the Schur complement of a joint
table uses ``max(own norm, norm of the joint table)``, and the domination
test of a Radon-Nikodym pair the norm of the dominating table.  An
explicit ``tol`` of :func:`is_positive_definite` (``check-pd --tol``) is an
absolute bound on the smallest eigenvalue.  Rank cutoffs are relative to
the largest eigenvalue or singular value.
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
    as a data error rather than silently fixed.  Instances are immutable and
    safe to share between threads.
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

        adjoint = blocks.transpose(1, 0, 3, 2).conj()
        scale = float(_block_frobenius(blocks).max())
        asym = float(_block_frobenius(blocks - adjoint).max())
        if asym > HERMITIAN_RTOL * max(scale, TINY):
            raise InvalidKernel(
                f"block pattern is not Hermitian: asymmetry {asym:.3e} "
                f"exceeds {HERMITIAN_RTOL:g} * {scale:.3e}"
            )
        blocks = 0.5 * (blocks + adjoint)
        require_finite(InvalidKernel, "symmetrized kernel table", blocks)  # entries near the float limit
        blocks.setflags(write=False)

        self.label_set = label_set
        self.blocks = blocks
        self._flat: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.label_set.n

    @property
    def dim_h(self) -> int:
        return int(self.blocks.shape[2])

    @property
    def labels(self) -> tuple[str, ...]:
        return self.label_set.labels

    def block(self, s: str, t: str) -> np.ndarray:
        return self.blocks[self.label_set.index(s), self.label_set.index(t)]

    @property
    def flat(self) -> np.ndarray:
        """Cached flattened matrix; see :func:`flatten`."""
        if self._flat is None:
            self._flat = flatten(self)
        return self._flat

    @classmethod
    def from_flat(cls, label_set: LabelSet, dim_h: int, flat) -> "OperatorKernelTable":
        """Inverse of :func:`flatten` under the canonical ordering."""
        flat = np.asarray(flat, dtype=np.complex128)
        n = label_set.n
        if flat.shape != (n * dim_h, n * dim_h):
            raise ShapeError(f"expected ({n * dim_h}, {n * dim_h}) matrix, got {flat.shape}")
        blocks = flat.reshape(n, dim_h, n, dim_h).transpose(0, 2, 1, 3)
        return cls(label_set, blocks)

    def _require_same_shape(self, other: "OperatorKernelTable") -> None:
        if self.label_set != other.label_set or self.dim_h != other.dim_h:
            raise ShapeError("kernel tables have different labels or operator dimension")

    def __add__(self, other: "OperatorKernelTable") -> "OperatorKernelTable":
        self._require_same_shape(other)
        return OperatorKernelTable(self.label_set, self.blocks + other.blocks)

    def __sub__(self, other: "OperatorKernelTable") -> "OperatorKernelTable":
        self._require_same_shape(other)
        return OperatorKernelTable(self.label_set, self.blocks - other.blocks)

    def __rmul__(self, scalar) -> "OperatorKernelTable":
        c = complex(scalar)
        if c.imag != 0.0:
            raise InvalidKernel("scaling a kernel by a non-real factor breaks Hermitian symmetry")
        return OperatorKernelTable(self.label_set, c.real * self.blocks)

    def conjugated(self, t_op) -> "OperatorKernelTable":
        """Blockwise congruence ``K(s, t) -> T^H K(s, t) T``."""
        t_op = np.asarray(t_op, dtype=np.complex128)
        if t_op.shape != (self.dim_h, self.dim_h):
            raise ShapeError(f"expected ({self.dim_h}, {self.dim_h}) operator, got {t_op.shape}")
        return OperatorKernelTable(self.label_set, t_op.conj().T @ (self.blocks @ t_op))

    def __repr__(self) -> str:
        return f"OperatorKernelTable(n={self.n}, dim_h={self.dim_h})"


def flatten(table: OperatorKernelTable) -> np.ndarray:
    """Assemble the ``(n*d, n*d)`` scalar matrix of a kernel table.

    Entry ``(i*d + p, j*d + q)`` is ``K(s_i, s_j)[p, q]``, i.e. the pairing
    ``<e_p, K(s_i, s_j) e_q>``.  The result is exactly Hermitian with no
    symmetrization: construction already replaced the blocks by
    ``(K + K^*) / 2``, whose entries at mirrored positions are exact complex
    conjugates of each other (IEEE addition commutes, and halving is exact).
    """
    return block_layout(table.blocks)


def block_layout(blocks: np.ndarray) -> np.ndarray:
    """Place an ``(n, n, d, d)`` block array in the canonical ``(n*d, n*d)``
    layout of :func:`flatten`, without symmetrizing."""
    n, _, d, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(n * d, n * d)


@dataclass(frozen=True)
class PDReport:
    """Outcome of a positivity test on the flattened matrix."""

    pd: bool
    min_eig: float
    scale: float


def eig_extremes(evals: np.ndarray) -> tuple[float, float]:
    """Smallest eigenvalue and spectral norm, from ascending Hermitian eigenvalues."""
    return float(evals[0]), float(max(abs(evals[0]), abs(evals[-1])))


def is_positive_definite(table: OperatorKernelTable, tol: float | None = None) -> PDReport:
    """Test positivity of a kernel table.

    The smallest eigenvalue of the flattened matrix is compared against
    ``-tol``; ``tol`` defaults to ``1e-10`` times the spectral norm.  By
    finite-dimensional linear algebra this is equivalent to nonnegativity
    of the quadratic form over all coefficient systems, up to the same
    tolerance relative to ``sum ||a_i||^2``.
    """
    min_eig, scale = eig_extremes(np.linalg.eigvalsh(table.flat))
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


def require_psd(evals: np.ndarray, tol: float, error: type[Exception], what: str, scale: float | None = None) -> float:
    """Raise ``error``, naming the matrix ``what`` and carrying ``min_eig``,
    unless the smallest of its ascending Hermitian eigenvalues ``evals`` is
    at least ``-tol * scale``; a NaN fails.  ``scale`` defaults to the
    spectral norm; the scale used is returned."""
    min_eig, own = eig_extremes(evals)
    scale = own if scale is None else scale
    if not min_eig >= -tol * scale:
        raise error(f"{what} is not positive (min eig {min_eig:.3e} < -{tol:g} * {scale:.3e})", min_eig=min_eig)
    return scale


def require_invertible(evals: np.ndarray, tol: float, error: type[Exception], what: str) -> None:
    """Raise ``error``, naming the matrix ``what``, unless its ascending Hermitian
    eigenvalues ``evals`` are all above ``tol`` times the largest and the
    largest is positive; a NaN fails."""
    lo, hi = float(evals[0]), float(evals[-1])
    if not (lo > tol * max(hi, 0.0) and hi > 0.0):
        raise error(f"{what} is numerically singular (eigs in [{lo:.3e}, {hi:.3e}])")


def gated_solve(gram: np.ndarray, rhs, tol: float, error: type[Exception], what: str) -> np.ndarray:
    """Solve ``gram x = rhs`` for a Hermitian ``gram`` that passes
    :func:`require_invertible`."""
    require_invertible(np.linalg.eigvalsh(gram), tol, error, what)
    return np.linalg.solve(gram, rhs)


def kernel_leq(lo: OperatorKernelTable, hi: OperatorKernelTable, tol: float | None = None) -> bool:
    """Kernel ordering: ``lo <= hi`` iff ``hi - lo`` is positive semidefinite."""
    lo._require_same_shape(hi)
    return is_positive_definite(hi - lo, tol).pd


def has_unit_diagonal(table: OperatorKernelTable) -> bool:
    """True when every diagonal block K(s, s) equals the identity, to
    ``1e-10`` relative to ``max(1, largest block norm)``."""
    eye = np.eye(table.dim_h)
    dev = max(
        float(np.linalg.norm(table.blocks[i, i] - eye))
        for i in range(table.n)
    )
    return dev <= 1e-10 * max(1.0, float(_block_frobenius(table.blocks).max()))


# ---------------------------------------------------------------------------
# Kernel zoo
# ---------------------------------------------------------------------------


def identity_kernel(label_set: LabelSet, dim_h: int) -> OperatorKernelTable:
    """K(s, t) = delta_st * I."""
    n = label_set.n
    blocks = np.zeros((n, n, dim_h, dim_h), dtype=np.complex128)
    for i in range(n):
        blocks[i, i] = np.eye(dim_h)
    return OperatorKernelTable(label_set, blocks)


def constant_kernel(label_set: LabelSet, block) -> OperatorKernelTable:
    """K(s, t) = B for a fixed Hermitian block B."""
    block = np.asarray(block, dtype=np.complex128)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise ShapeError(f"constant block must be square, got {block.shape}")
    n, d = label_set.n, block.shape[0]
    return OperatorKernelTable(label_set, np.broadcast_to(block, (n, n, d, d)))


def scalar_kernel(label_set: LabelSet, matrix) -> OperatorKernelTable:
    """d = 1 table whose blocks are the entries of an n x n Hermitian matrix."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    n = label_set.n
    if matrix.shape != (n, n):
        raise ShapeError(f"expected ({n}, {n}) matrix, got {matrix.shape}")
    return OperatorKernelTable(label_set, matrix.reshape(n, n, 1, 1))


def zero_kernel(label_set: LabelSet, dim_h: int) -> OperatorKernelTable:
    return OperatorKernelTable(label_set, np.zeros((label_set.n,) * 2 + (dim_h,) * 2))


def _resolve_points(label_set: LabelSet, point_map: Mapping, dim_h: int) -> np.ndarray:
    if not isinstance(point_map, Mapping):
        raise ShapeError("point_map must be a mapping label -> matrix")
    points = np.empty((label_set.n, dim_h, dim_h), dtype=np.complex128)
    for i, s in enumerate(label_set.labels):
        try:
            p = np.asarray(point_map[s], dtype=np.complex128)
        except KeyError:
            raise LabelError(f"point_map has no entry for label {s!r}") from None
        if p.shape != (dim_h, dim_h):
            raise ShapeError(f"point for {s!r} must be ({dim_h}, {dim_h}), got {p.shape}")
        points[i] = p
    return points


def _check_strict_contraction(h: np.ndarray) -> float:
    norm = float(np.linalg.norm(h, 2))
    if not norm < 1.0:  # also rejects a NaN norm
        raise NotStrictContraction(f"operator norm {norm:.6g} is not < 1")
    return norm


def cp_contraction_kernel(h, label_set: LabelSet, point_map: Mapping) -> OperatorKernelTable:
    """Defect table of a strict contraction: blocks ``I - (s_i h)^H (s_j h)``.

    ``point_map`` assigns each label a d x d matrix.  The result is not
    positive for every choice of points; positivity must be tested by the
    caller when it matters.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeError(f"contraction must be square, got {h.shape}")
    _check_strict_contraction(h)
    d = h.shape[0]
    points = _resolve_points(label_set, point_map, d)
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
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeError(f"contraction must be square, got {h.shape}")
    q = _check_strict_contraction(h)
    d = h.shape[0]
    points = _resolve_points(label_set, point_map, d)
    if tol <= 0:
        raise ValueError("truncation tolerance must be positive")

    base = np.einsum("ipq,jpr->ijqr", points.conj(), points)
    max_norm = max(
        (float(np.linalg.norm(base[i, j], 2)) for i in range(label_set.n) for j in range(label_set.n)),
        default=0.0,
    )
    n_terms = _series_length(q, max_norm, tol)

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


def normalize_diagonal(table: OperatorKernelTable) -> OperatorKernelTable:
    """Congruence-rescale a positive table so that every K(s, s) = I.

    Requires each diagonal block to be invertible (smallest eigenvalue above
    ``RANK_RTOL`` times the largest); the transformation
    ``K(s, t) -> D_s^{-1/2} K(s, t) D_t^{-1/2}`` preserves positivity.
    """
    n, d = table.n, table.dim_h
    roots = np.empty((n, d, d), dtype=np.complex128)
    for i in range(n):
        w, u = np.linalg.eigh(table.blocks[i, i])
        require_invertible(w, RANK_RTOL, InvalidKernel, f"diagonal block for {table.labels[i]!r}")
        roots[i] = (u / np.sqrt(w)) @ u.conj().T
    blocks = np.einsum("ipq,ijqr,jrs->ijps", roots.conj().transpose(0, 2, 1), table.blocks, roots)
    return OperatorKernelTable(table.label_set, blocks)
