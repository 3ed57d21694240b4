"""Vector-valued Gaussian sampling driven by kernel factorizations.

A path of the process attached to a positive table ``K`` is

    W(s) = V(s)^H Z,

with ``Z`` a real standard normal vector on the dilation space and ``V``
the feature operators from :func:`opkern.dilation.kolmogorov_factorize`.
The sesquilinear second moments then reproduce the kernel exactly:
``E[<a, W(s)> <W(t), b>] = <a, K(s, t) b>``.

Randomness is counter-based (Philox keyed by the user seed) and normal
variates come from the inverse normal CDF applied to 53-bit uniforms, so a
sample index always maps to the same row of ``Z``.  Each sample consumes a
fixed, block-aligned slice of the key stream.

Paths are BLAS GEMMs over tiles of ``_TILE`` rows of ``Z`` that start at
multiples of ``_TILE`` in the absolute sample index; a tile only partly
inside the requested range is still drawn and multiplied whole, and the
needed rows are sliced out afterwards.  Every GEMM therefore sees the same
inputs with the same shape however the draws are batched, so a path is
bitwise independent of batching for a fixed BLAS build and thread count.
Changing the BLAS thread count (``OPENBLAS_NUM_THREADS``) may move the last
ulp, as it can for every LAPACK-backed result.

A coupled pair of processes is one process on ``H + H``.  Its
:class:`JointKernel` carries the factorization of the joint table and one
eigendecomposition of the L Gram; :func:`sample_joint`, :func:`condition`
and :func:`mc_verify_conditional` read those instead of decomposing again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .dilation import FeatureSystem, kolmogorov_factorize
from .errors import (
    InternalInvariantViolation,
    InvalidKernel,
    NotPositiveDefinite,
    ShapeError,
    SingularL,
)
from .kernels import (
    PD_RTOL,
    RANK_RTOL,
    TINY,
    LabelSet,
    OperatorKernelTable,
    block_layout,
    eig_extremes,
    gated_solve,
    is_positive_definite,
    require_finite,
    require_invertible,
    require_psd,
)

_RAWS_PER_BLOCK = 4  # 64-bit outputs per Philox counter increment
_MASK64 = (1 << 64) - 1
_TILE = 512  # rows of normals per path GEMM


def standard_normal_rows(seed: int, start: int, count: int, width: int) -> np.ndarray:
    """Deterministic (count, width) matrix of N(0, 1) variates.

    Row ``k`` depends only on ``(seed, start + k)``: each sample index owns
    ``ceil(width / 4)`` Philox counter blocks, and uniforms are mapped
    through the inverse CDF.  The stream is therefore stable across
    platforms and arbitrary re-batching.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0 or width == 0:
        return np.zeros((count, width))
    blocks_per = max(1, -(-width // _RAWS_PER_BLOCK))
    gen = Philox(key=np.uint64(seed & _MASK64))
    gen.advance(start * blocks_per)
    raw = gen.random_raw(count * blocks_per * _RAWS_PER_BLOCK)
    raw = raw.reshape(count, blocks_per * _RAWS_PER_BLOCK)[:, :width]
    # 53-bit uniform in (0, 1): half-ulp offset keeps ndtri finite.
    uniform = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
    return ndtri(uniform)


@dataclass(frozen=True)
class PathBatch:
    """Paths indexed (sample, label, coordinate); meta identifies the draw."""

    label_set: LabelSet
    paths: np.ndarray
    seed: int
    start: int

    def __post_init__(self):
        if self.paths.ndim != 3 or self.paths.shape[1] != self.label_set.n:
            raise ShapeError(f"paths must be (N, {self.label_set.n}, d), got {self.paths.shape}")
        if self.paths.shape[0] < 1:
            raise InvalidKernel("a path batch holds at least one sample")
        require_finite(InvalidKernel, "paths", self.paths)

    @property
    def count(self) -> int:
        return int(self.paths.shape[0])

    @property
    def dim_h(self) -> int:
        return int(self.paths.shape[2])


def draw_paths(fs: FeatureSystem, seed: int, start: int, count: int) -> PathBatch:
    """Paths for sample indices ``start .. start + count - 1``."""
    if start < 0 or count < 0:
        raise ValueError(f"sample indices must be nonnegative (start={start}, count={count})")
    n, d, r = fs.label_set.n, fs.dim_h, fs.dilation_dim
    paths = np.zeros((count, n * d), dtype=np.complex128)
    if r:
        # Columns interleave Re(stacked) and -Im(stacked), so one real GEMM
        # writes z @ stacked.conj() in complex128 memory layout.
        weights = np.stack([fs.stacked.real, -fs.stacked.imag], axis=-1).reshape(r, 2 * n * d)
        flat = paths.view(np.float64)
        stop = start + count
        for tile in range(start - start % _TILE, stop, _TILE):
            z = standard_normal_rows(seed, tile, _TILE, r)
            lo, hi = max(start, tile), min(stop, tile + _TILE)
            flat[lo - start : hi - start] = (z @ weights)[lo - tile : hi - tile]
    paths = paths.reshape(count, n, d)
    paths.setflags(write=False)
    return PathBatch(label_set=fs.label_set, paths=paths, seed=seed, start=start)


@dataclass
class GaussianSampler:
    """Reproducible path source; ``counter`` is the next sample index."""

    feature_system: FeatureSystem
    seed: int
    counter: int = 0

    def draw(self, count: int) -> PathBatch:
        batch = draw_paths(self.feature_system, self.seed, self.counter, count)
        self.counter += count
        return batch

    def path_at(self, index: int) -> np.ndarray:
        """The (n, d) path of one sample index, independent of the counter."""
        return draw_paths(self.feature_system, self.seed, index, 1).paths[0]


def make_sampler(table: OperatorKernelTable, seed: int) -> GaussianSampler:
    """Sampler for the process whose covariance kernel is ``table``."""
    return GaussianSampler(feature_system=kolmogorov_factorize(table), seed=seed)


def empirical_covariance(batch: PathBatch) -> OperatorKernelTable:
    """Monte-Carlo second moments: blocks ``(1/N) sum_k W_k(s) W_k(t)^H``.

    Uses the 1/N convention (a plain expectation estimate, not the
    bias-corrected 1/(N-1) variant).  The result is an exactly Hermitian,
    positive table; it converges to the sampled kernel at the usual CLT
    rate.
    """
    if batch.count < 1:
        raise InvalidKernel("empirical covariance needs at least one path")
    n, d = batch.label_set.n, batch.dim_h
    p = batch.paths.reshape(batch.count, n * d)
    flat = p.T @ p.conj() / batch.count
    return OperatorKernelTable.from_flat(batch.label_set, d, flat)


# ---------------------------------------------------------------------------
# Joint processes and conditioning
# ---------------------------------------------------------------------------


def _coupling_array(label_set: LabelSet, dim_h: int, coupling) -> np.ndarray:
    arr = np.asarray(coupling, dtype=np.complex128)
    n = label_set.n
    if arr.shape != (n, n, dim_h, dim_h):
        raise ShapeError(f"coupling must be ({n}, {n}, {dim_h}, {dim_h}), got {arr.shape}")
    require_finite(InvalidKernel, "coupling", arr)
    return arr


@dataclass
class JointKernel:
    """Block table over H + H pairing two processes through a coupling.

    ``m`` is the assembled table with 2d x 2d blocks
    ``[[K(s,t), T(s,t)], [T(t,s)^H, L(s,t)]]`` and ``features`` its
    factorization, from which the pair is sampled.  ``l_eigh`` is
    ``np.linalg.eigh(conj(L_gram))``, the decomposition behind the
    pseudo-inverse in ``schur``, the singular-L gate and null dimension of
    :func:`condition`, and ``diag(L_gram^{-1})`` in
    :func:`mc_verify_conditional`.  ``schur`` holds the Gram-level Schur
    complement ``K - T L^+ T^H`` as a kernel table (the conditional
    covariance).
    """

    k: OperatorKernelTable
    l: OperatorKernelTable
    coupling: np.ndarray
    m: OperatorKernelTable
    features: FeatureSystem
    l_eigh: tuple[np.ndarray, np.ndarray]
    schur: OperatorKernelTable

    @property
    def label_set(self) -> LabelSet:
        return self.k.label_set

    @property
    def dim_h(self) -> int:
        return self.k.dim_h

    @property
    def t_gram(self) -> np.ndarray:
        return block_layout(self.coupling)


def _pinv(l_eigh: tuple[np.ndarray, np.ndarray], rcond: float) -> np.ndarray:
    """``np.linalg.pinv(L, rcond, hermitian=True)``, bitwise, from
    ``l_eigh = np.linalg.eigh(L.conj())``: numpy's own steps after its eigh."""
    w, u = l_eigh
    order = np.argsort(abs(w))[::-1]
    s, u = abs(w)[order], np.take_along_axis(u, order[None, :], axis=-1)
    inv = np.divide(1, s, where=s > rcond * s.max(), out=np.zeros_like(s))
    return (u * np.copysign(1.0, w)[order]).T.conj().T @ (inv[:, None] * u.T)


def assemble_joint(
    k: OperatorKernelTable,
    l: OperatorKernelTable,
    coupling,
) -> JointKernel:
    """Assemble and admit the joint table of a coupled pair of processes.

    The coupling is an (n, n, d, d) block function on pairs of labels (no
    Hermitian symmetry required).  Admissibility = positivity of the
    flattened joint table, decided by its factorization; the Gram-level
    Schur complement is computed with a pseudo-inverse and checked positive
    as well, each to ``PD_RTOL`` relative.  Rejections raise
    :class:`NotPositiveDefinite` and indicate an inadmissible coupling.
    """
    k._require_same_shape(l)
    d = k.dim_h
    t_blocks = _coupling_array(k.label_set, d, coupling)

    t_adjoint = t_blocks.transpose(1, 0, 3, 2).conj()
    m_table = OperatorKernelTable(k.label_set, np.block([[k.blocks, t_blocks], [t_adjoint, l.blocks]]))

    try:
        features = kolmogorov_factorize(m_table)
    except NotPositiveDefinite as exc:
        msg = f"joint table is not positive (min eig {exc.min_eig:.3e}); coupling inadmissible"
        raise NotPositiveDefinite(msg, min_eig=exc.min_eig) from None

    l_eigh = tuple(np.linalg.eigh(l.flat.conj()))
    t_gram = block_layout(t_blocks)
    schur_flat = k.flat - t_gram @ _pinv(l_eigh, RANK_RTOL) @ t_gram.conj().T
    schur_flat = 0.5 * (schur_flat + schur_flat.conj().T)
    schur_table = OperatorKernelTable.from_flat(k.label_set, d, schur_flat)
    evals = np.linalg.eigvalsh(schur_table.flat)
    require_psd(evals, PD_RTOL, NotPositiveDefinite, "Schur complement", max(eig_extremes(evals)[1], features.norm))
    return JointKernel(k, l, t_blocks, m_table, features, l_eigh, schur_table)


def _halves(joint: JointKernel, seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """K- and L-coordinates of joint paths ``0 .. count - 1``, as views of one draw."""
    paths = draw_paths(joint.features, seed, 0, count).paths
    return paths[:, :, : joint.dim_h], paths[:, :, joint.dim_h :]


def sample_joint(joint: JointKernel, seed: int, count: int) -> tuple[PathBatch, PathBatch]:
    """Draw the coupled pair by sampling the joint table and splitting H + H.

    The first batch carries the K-coordinates (first d of each 2d block),
    the second the L-coordinates; both are views of the joint paths.
    """
    return tuple(PathBatch(joint.label_set, half, seed, 0) for half in _halves(joint, seed, count))


@dataclass(frozen=True)
class ConditionalLaw:
    """Gaussian conditioning of the K-process on the full observed L-process.

    ``mean_map`` is the Gram-level matrix ``T L^{-1}`` sending the
    concatenated observation to the conditional mean; ``cond_cov`` is the
    Schur-complement table.  ``null_dim`` counts directions removed by the
    pseudo-inverse when a singular L was explicitly allowed.
    """

    mean_map: np.ndarray
    cond_cov: OperatorKernelTable
    posterior_mean: np.ndarray
    null_dim: int


def condition(
    joint: JointKernel,
    observed_l,
    tol: float = RANK_RTOL,
    allow_singular: bool = False,
) -> ConditionalLaw:
    """Condition the K-process on observed values of the L-process.

    Conditioning is over the full finite label grid: the mean is
    ``T_gram L_gram^{-1} vec(observed)`` and the covariance the Schur
    complement.  A numerically singular L raises :class:`SingularL` unless
    ``allow_singular`` is set, in which case the pseudo-inverse is used,
    results are meaningful on the range of L only, and ``null_dim``
    reports the removed dimensions.
    """
    n, d = joint.label_set.n, joint.dim_h
    observed = np.asarray(observed_l, dtype=np.complex128)
    if observed.shape != (n, d):
        raise ShapeError(f"observed values must be ({n}, {d}), got {observed.shape}")

    evals = joint.l_eigh[0]
    null_dim = int(np.sum(evals <= tol * max(float(evals[-1]), 0.0)))  # 0 when the gate passes
    try:
        require_invertible(evals, tol, SingularL, "L Gram matrix")
        mean_map = np.linalg.solve(joint.l.flat, joint.t_gram.conj().T).conj().T
    except SingularL:
        if not allow_singular:
            raise
        mean_map = joint.t_gram @ _pinv(joint.l_eigh, tol)
    posterior = (mean_map @ observed.reshape(n * d)).reshape(n, d)
    return ConditionalLaw(
        mean_map=mean_map,
        cond_cov=joint.schur,
        posterior_mean=posterior,
        null_dim=null_dim,
    )


@dataclass(frozen=True)
class CondCovComparison:
    """Outcome of comparing the conditional covariances of two couplings."""

    equal: bool
    residual: float
    common_pd: bool
    common_min_eig: float


def conditional_cov_equal(
    k1: OperatorKernelTable,
    k2: OperatorKernelTable,
    l1: OperatorKernelTable,
    l2: OperatorKernelTable,
    coupling,
    tol: float = 1e-10,
) -> CondCovComparison:
    """Decide ``K1 - T L1^{-1} T^H == K2 - T L2^{-1} T^H`` at Gram level.

    Also reports whether the common value is positive, i.e. whether the two
    joint assemblies condition to one and the same admissible law.  Both
    L-tables must be numerically invertible; degeneracy raises
    :class:`SingularL`.
    """
    k1._require_same_shape(k2)
    k1._require_same_shape(l1)
    k1._require_same_shape(l2)
    t_gram = block_layout(_coupling_array(k1.label_set, k1.dim_h, coupling))

    conds = []
    for k, l in ((k1, l1), (k2, l2)):
        x = gated_solve(l.flat, t_gram.conj().T, RANK_RTOL, SingularL, "L Gram matrix")
        c = k.flat - t_gram @ x
        conds.append(0.5 * (c + c.conj().T))

    residual = float(np.linalg.norm(conds[0] - conds[1], 2))
    scale = max(
        float(np.linalg.norm(k1.flat, 2)),
        float(np.linalg.norm(k2.flat, 2)),
        float(np.linalg.norm(conds[0], 2)),
        float(np.linalg.norm(conds[1], 2)),
        TINY,
    )
    common = OperatorKernelTable.from_flat(k1.label_set, k1.dim_h, 0.5 * (conds[0] + conds[1]))
    report = is_positive_definite(common)
    return CondCovComparison(
        equal=residual <= tol * scale,
        residual=residual / scale,
        common_pd=report.pd,
        common_min_eig=report.min_eig,
    )


@dataclass(frozen=True)
class ConditionalMcReport:
    """Monte-Carlo check of the conditional law, in standard-error units."""

    mean_map_dev_se: float
    residual_cov_dev_se: float
    count: int
    passed: bool


@np.errstate(over="ignore", invalid="ignore")
def mc_verify_conditional(
    joint: JointKernel,
    seed: int,
    count: int,
    tol_sigma: float = 5.0,
) -> ConditionalMcReport:
    """Regress sampled K-paths on L-paths and compare with the exact law.

    The empirical regression map is checked entrywise against
    ``T_gram L_gram^{-1}`` and the empirical residual covariance against the
    Schur complement, each deviation expressed in asymptotic standard
    errors (Gaussian plug-in formulas); the check passes when every entry
    stays within ``tol_sigma`` standard errors.  The paths are drawn from
    the joint factorization; a numerically singular empirical L covariance
    raises :class:`SingularL`, and a statistic that overflows raises
    :class:`InternalInvariantViolation` instead of being compared.
    """
    if count < 2:
        raise InvalidKernel("Monte-Carlo verification needs at least two samples")
    n, d = joint.label_set.n, joint.dim_h
    nd = n * d
    law = condition(joint, np.zeros((n, d)))  # raises SingularL when degenerate

    x, y = (half.reshape(count, nd) for half in _halves(joint, seed, count))
    c_xy = x.T @ y.conj() / count
    c_yy = y.T @ y.conj() / count
    c_yy = 0.5 * (c_yy + c_yy.conj().T)
    require_finite(InternalInvariantViolation, "a Monte-Carlo moment", c_xy, c_yy)
    b_hat = gated_solve(c_yy.conj().T, c_xy.conj().T, RANK_RTOL, SingularL, "empirical L covariance").conj().T

    l_inv_diag = np.abs(joint.l_eigh[1]) ** 2 @ (1.0 / joint.l_eigh[0])
    schur_flat = joint.schur.flat
    se_floor = 1e-12 * max(joint.features.norm, 1.0) / np.sqrt(count)
    se_mean = np.sqrt(np.outer(np.abs(np.diag(schur_flat)), l_inv_diag) / count)
    mean_dev = float(np.max(np.abs(b_hat - law.mean_map) / np.maximum(se_mean, se_floor)))

    resid = x - y @ b_hat.T
    s_hat = resid.T @ resid.conj() / count
    diag_s = np.abs(np.diag(schur_flat))
    se_cov = np.sqrt((np.outer(diag_s, diag_s) + np.abs(schur_flat) ** 2) / count)
    cov_dev = float(np.max(np.abs(s_hat - schur_flat) / np.maximum(se_cov, se_floor)))
    require_finite(
        InternalInvariantViolation, "a Monte-Carlo statistic", b_hat, s_hat, se_mean, se_cov, mean_dev, cov_dev
    )

    return ConditionalMcReport(
        mean_map_dev_se=mean_dev,
        residual_cov_dev_se=cov_dev,
        count=count,
        passed=mean_dev <= tol_sigma and cov_dev <= tol_sigma,
    )
