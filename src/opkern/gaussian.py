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

A path batch is ``draw_paths(kolmogorov_factorize(table), seed, start,
count)``; there is no sampler state.  :func:`path_chunks` walks a range of
samples in tile-aligned chunks, in memory that does not grow with the
sample count.  A coupled pair of processes is one process on ``H + H``.
Its :class:`JointKernel` carries the joint table, the one
eigendecomposition of the L Gram, which decides once whether L is
invertible, and the conditional law; :func:`condition` and
:func:`mc_verify_conditional` read those instead of deciding again.  The
joint table is admitted by :func:`opkern.kernels.psd_certified`, one
Cholesky factorization with a stated rounding allowance, and factored where
that declines, with the factorization's decision, message and exit code,
or else on first use, which ``mc-verify`` makes before its tile loop.
:func:`mc_verify_conditional` never forms a path: the pair centred by the
exact regression map is ``z P`` for a sample's normals ``z``, so it sums
the r x r Gram ``z^T z`` of each tile, at even positions on the calling
thread and at odd ones on a helper, and adds the two sums: the partition,
not the scheduling, fixes the bytes.  numpy's OpenBLAS is held at one
thread with its pool stopped for that loop and the final product.
"""

from __future__ import annotations

import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.random import Generator, Philox

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
    psd_certified,
    require_finite,
    require_invertible,
    require_psd,
)

_RAWS_PER_BLOCK = 4  # 64-bit outputs per Philox counter increment
_TILE = 512  # rows of normals per path GEMM


def standard_normal_rows(seed: int, start: int, count: int, width: int, out=None) -> np.ndarray:
    """Deterministic (count, width) matrix of N(0, 1) variates.

    Row ``k`` depends only on ``(seed, start + k)``: each sample index owns
    ``ceil(width / 4)`` Philox counter blocks, and uniforms are mapped
    through the inverse CDF.  The stream is therefore stable across
    platforms and arbitrary re-batching.  ``seed`` is the Philox key, an
    integer in ``[0, 2**64)``; any other raises :class:`ValueError`.  With
    ``out``, a C-contiguous (count, 4 ceil(width / 4)) float64 array, the
    normals are its first ``width`` columns, and nothing is allocated."""
    from scipy.special import ndtri  # deferred: importing scipy.special dominates CLI start-up
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), the Philox key space, got {seed}")
    if count == 0 or width == 0:
        return np.zeros((count, width))
    blocks_per = max(1, -(-width // _RAWS_PER_BLOCK))
    gen = Philox(key=np.uint64(seed))
    gen.advance(start * blocks_per)
    out = np.empty((count, blocks_per * _RAWS_PER_BLOCK)) if out is None else out
    Generator(gen).random(out=out)  # (raw >> 11) * 2**-53, one raw output per entry
    uniform = out[:, :width]
    uniform += 2.0**-54  # 53-bit uniform in (0, 1): the half-ulp offset keeps ndtri finite
    return ndtri(uniform, out=uniform)


@dataclass(frozen=True)
class PathBatch:
    """Paths indexed (sample, label, coordinate)."""

    label_set: LabelSet
    paths: np.ndarray

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
        weights = fs.stacked.conj().view(np.float64)  # so the real z @ weights is z @ stacked.conj()
        flat = paths.view(np.float64)
        stop = start + count
        for tile in range(start - start % _TILE, stop, _TILE):
            z = standard_normal_rows(seed, tile, _TILE, r)
            lo, hi = max(start, tile), min(stop, tile + _TILE)
            flat[lo - start : hi - start] = (z @ weights)[lo - tile : hi - tile]
    paths = paths.reshape(count, n, d)
    paths.setflags(write=False)
    return PathBatch(label_set=fs.label_set, paths=paths)


def path_chunks(fs: FeatureSystem, seed: int, count: int):
    """Yield ``(start, draw_paths(fs, seed, start, c))`` over samples
    ``0 .. count - 1``, one tile of ``_TILE`` samples at a time (the last
    may be shorter).  The chunks draw exactly the tiles, and bytes, of one
    ``draw_paths(fs, seed, 0, count)``."""
    for start in range(0, count, _TILE):
        yield start, draw_paths(fs, seed, start, min(_TILE, count - start))


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
    factorization, from which the pair is sampled; it is computed on first
    use, at most once, so a run that does not sample never factors ``m``.
    ``l_eigh`` is ``np.linalg.eigh(conj(L_gram))``.  The law of the
    K-process given the L-process is ``mean_map``, the Gram-level
    ``T L^{-1}``, and ``schur``, the Schur complement ``K - T L^{-1} T^H``
    as a kernel table.
    """

    m: OperatorKernelTable
    l_eigh: tuple[np.ndarray, np.ndarray]
    mean_map: np.ndarray
    schur: OperatorKernelTable
    _features: FeatureSystem | None = field(default=None, repr=False)

    @property
    def features(self) -> FeatureSystem:
        if self._features is None:
            self._features = kolmogorov_factorize(self.m, what="joint table")
        return self._features

    @property
    def label_set(self) -> LabelSet:
        return self.m.label_set

    @property
    def dim_h(self) -> int:
        return self.m.dim_h // 2


def _schur(
    k: OperatorKernelTable, l: OperatorKernelTable, t_gram: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], OperatorKernelTable]:
    """``np.linalg.eigh(conj(L_gram))`` and the Gram-level Schur complement
    ``K - T L^{-1} T^H`` as a kernel table, the one place it is formed.  An
    L that is singular to ``RANK_RTOL`` relative raises :class:`SingularL`.
    The complement is symmetrized: a near-saturated one is small against
    its rounding, which is not Hermitian.  ``L^{-1}`` is formed from the
    eigh in the descending order of ``np.linalg.pinv(L, hermitian=True)``,
    which keeps numpy's bytes."""
    l_eigh = w, u = tuple(np.linalg.eigh(l.flat.conj()))
    require_invertible(w, RANK_RTOL, SingularL, "L Gram matrix")
    order = np.argsort(w)[::-1]
    u = u[:, order]
    schur_flat = k.flat - t_gram @ (u.conj() @ ((1 / w[order])[:, None] * u.T)) @ t_gram.conj().T
    return l_eigh, OperatorKernelTable.from_flat(k.label_set, k.dim_h, 0.5 * (schur_flat + schur_flat.conj().T))


def assemble_joint(k: OperatorKernelTable, l: OperatorKernelTable, coupling) -> JointKernel:
    """Assemble and admit the joint table of a coupled pair, with its conditional law.

    The coupling is an (n, n, d, d) block function on pairs of labels (no
    Hermitian symmetry required).  Admissibility = positivity of the
    flattened joint table, decided by its factorization's gate, and of the
    Gram-level Schur complement, each to ``PD_RTOL`` relative; rejections
    raise :class:`NotPositiveDefinite`.  An L singular to ``RANK_RTOL``
    relative raises :class:`SingularL`.  A joint table that
    :func:`opkern.kernels.psd_certified` admits is not factored here; any
    other is factored before L is decided, so its rejection comes first.
    The Schur gate's scale is the larger of its own norm and the joint
    table's, which only loosens it, so the joint norm is read only when
    the complement fails against its own.
    """
    k._require_same_shape(l)
    t_blocks = _coupling_array(k.label_set, k.dim_h, coupling)

    t_adjoint = t_blocks.transpose(1, 0, 3, 2).conj()
    m_table = OperatorKernelTable(k.label_set, np.block([[k.blocks, t_blocks], [t_adjoint, l.blocks]]))
    features = None if psd_certified(m_table.flat, RANK_RTOL) else kolmogorov_factorize(m_table, what="joint table")

    t_gram = block_layout(t_blocks)
    l_eigh, schur_table = _schur(k, l, t_gram)
    mean_map = np.linalg.solve(l.flat, t_gram.conj().T).conj().T
    joint = JointKernel(m_table, l_eigh, mean_map, schur_table, features)
    evals = np.linalg.eigvalsh(schur_table.flat)
    min_eig, scale = eig_extremes(evals)
    if not min_eig >= -PD_RTOL * scale:  # the joint norm can only loosen the gate
        scale = max(scale, joint.features.norm)
    require_psd(evals, PD_RTOL, NotPositiveDefinite, "Schur complement", scale)
    return joint


def condition(joint: JointKernel, observed_l, tol: float = RANK_RTOL) -> np.ndarray:
    """Posterior mean of the K-process given observed values of the
    L-process, ``T_gram L_gram^{-1} vec(observed)`` as an (n, d) array.

    Conditioning is over the full finite label grid; the covariance is
    ``joint.schur``.  :func:`assemble_joint` has refused an L singular to
    ``RANK_RTOL`` relative; a larger ``tol`` refuses more, raising
    :class:`SingularL`, and a smaller one refuses nothing more.
    """
    n, d = joint.label_set.n, joint.dim_h
    observed = np.asarray(observed_l, dtype=np.complex128)
    if observed.shape != (n, d):
        raise ShapeError(f"observed values must be ({n}, {d}), got {observed.shape}")

    require_invertible(joint.l_eigh[0], tol, SingularL, "L Gram matrix")
    return (joint.mean_map @ observed.reshape(n * d)).reshape(n, d)


@dataclass(frozen=True)
class CondCovComparison:
    """Outcome of comparing the conditional covariances of two couplings."""

    equal: bool
    residual: float


def conditional_cov_equal(
    k1: OperatorKernelTable,
    k2: OperatorKernelTable,
    l1: OperatorKernelTable,
    l2: OperatorKernelTable,
    coupling,
) -> CondCovComparison:
    """Decide ``K1 - T L1^{-1} T^H == K2 - T L2^{-1} T^H`` at Gram level, to
    ``1e-10`` relative in spectral norm.

    Both L-tables must be numerically invertible; degeneracy raises
    :class:`SingularL`.
    """
    k1._require_same_shape(k2)
    k1._require_same_shape(l1)
    k1._require_same_shape(l2)
    t_gram = block_layout(_coupling_array(k1.label_set, k1.dim_h, coupling))

    conds = [_schur(k, l, t_gram)[1].flat for k, l in ((k1, l1), (k2, l2))]

    residual = float(np.linalg.norm(conds[0] - conds[1], 2))
    scale = max(
        float(np.linalg.norm(k1.flat, 2)),
        float(np.linalg.norm(k2.flat, 2)),
        float(np.linalg.norm(conds[0], 2)),
        float(np.linalg.norm(conds[1], 2)),
        TINY,
    )
    return CondCovComparison(equal=residual <= 1e-10 * scale, residual=residual / scale)


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
    stays within ``tol_sigma`` standard errors.  The paths are those of
    the joint factorization, reduced to the Gram of their normals one tile
    at a time, so memory stays flat in ``count``; a numerically singular
    empirical L covariance raises :class:`SingularL`, and a statistic that
    overflows raises :class:`InternalInvariantViolation` instead of being
    compared.
    """
    if count < 2:
        raise InvalidKernel("Monte-Carlo verification needs at least two samples")
    b_hat, s_hat = _regress(joint, seed, count)

    l_inv_diag = np.abs(joint.l_eigh[1]) ** 2 @ (1.0 / joint.l_eigh[0])
    schur_flat = joint.schur.flat
    se_floor = 1e-12 * max(joint.features.norm, 1.0) / np.sqrt(count)
    se_mean = np.sqrt(np.outer(np.abs(np.diag(schur_flat)), l_inv_diag) / count)
    mean_dev = float(np.max(np.abs(b_hat - joint.mean_map) / np.maximum(se_mean, se_floor)))

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


def _regress(joint: JointKernel, seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Empirical regression map ``b_hat`` of K-paths ``x`` on L-paths ``y``
    and residual covariance ``s_hat``, over joint samples ``0 .. count - 1``.

    A joint path is ``z W``, ``z`` the sample's normals and ``W`` the
    conjugated features, so the pair ``(u, y)`` centred by the exact map
    ``b = joint.mean_map``, ``u = x - b y``, is ``z P`` with
    ``P = [W_x - W_y b^T, W_y]``; its second moments are
    ``P^T (G / count) conj(P)``, ``G`` the Gram of the normals.  With
    ``c_uu``, ``c_uy`` and ``c_yy`` their blocks and ``db = c_uy c_yy^{-1}``,
    ``b_hat = b + db`` and ``s_hat = c_uu - db c_uy^H`` are the one-batch
    regression ``c_xy c_yy^{-1}`` and ``E[(x - b_hat y)(x - b_hat y)^H]``
    in exact arithmetic.  Centring sets the rounding: ``P``'s ``u`` columns
    are formed once, as a one-batch residual ``x - b_hat y`` is per sample,
    so ``s_hat`` rounds at ``eps sqrt(||S|| ||M||)`` (``S`` the Schur
    complement, ``M`` the joint table), not at the ``eps ||M||`` of the
    uncentred ``c_xx - b_hat c_xy^H``, far above ``||S||`` for a
    near-saturated coupling.  ``G`` sums in another order than one GEMM
    over every path, so both move by rounding only, about ``sqrt(count)
    eps`` times those scales (``b_hat`` times L's condition number too).
    The features are read before BLAS is held at one thread, so a
    certified table is factored as ``condition`` would.
    """
    fs, b, d, nd = joint.features, joint.mean_map, joint.dim_h, joint.label_set.n * joint.dim_h
    w = fs.stacked.conj().reshape(fs.dilation_dim, -1, 2, d)
    w_x, w_y = w[:, :, 0].reshape(-1, nd), w[:, :, 1].reshape(-1, nd)
    p = np.concatenate([w_x - w_y @ b.T, w_y], axis=1)
    with _one_blas_thread() as held:
        moments = p.T @ (_normals_gram(seed, fs.dilation_dim, count, held) / count) @ p.conj()
    c_uu, c_uy, c_yy = moments[:nd, :nd], moments[:nd, nd:], moments[nd:, nd:]
    c_yy = 0.5 * (c_yy + c_yy.conj().T)
    require_finite(InternalInvariantViolation, "a Monte-Carlo moment", c_uu, c_uy, c_yy)
    db = gated_solve(c_yy.conj().T, c_uy.conj().T, RANK_RTOL, SingularL, "empirical L covariance").conj().T
    return b + db, c_uu - db @ c_uy.conj().T


def _normals_gram(seed: int, r: int, count: int, helper: bool) -> np.ndarray:
    """Sum of ``z^T z`` over the normals of samples ``0 .. count - 1``, in
    :func:`draw_paths`' tiles, the last cut to ``count``, as two streams over
    their tiles in order: even positions here, odd ones on a helper thread
    if ``helper``.  A stream that raises stops the other at its next tile.
    Both streams' buffers of normals live throughout, so memory is flat."""
    stop = threading.Event()
    normals = np.empty((2, _TILE, -(-r // _RAWS_PER_BLOCK) * _RAWS_PER_BLOCK))

    def stream(first: int) -> np.ndarray:
        gram = np.zeros((r, r))
        try:
            for tile in range(first * _TILE, count, 2 * _TILE):
                if stop.is_set():
                    break
                z = standard_normal_rows(seed, tile, _TILE, r, normals[first])[: count - tile]
                gram += z.T @ z
        except BaseException:
            stop.set()
            raise
        return gram

    if not helper:
        return stream(0) + stream(1)
    from concurrent.futures import ThreadPoolExecutor  # deferred: only mc-verify runs a helper
    with ThreadPoolExecutor(1, thread_name_prefix="opkern-normals") as pool:
        odd = pool.submit(stream, 1)
        even = stream(0)
        return even + odd.result()


@functools.cache
def _openblas():
    """``get_num_threads``, ``set_num_threads`` and ``blas_thread_shutdown_``
    of the OpenBLAS bundled with numpy (its wheels' ``numpy.libs``), or None
    where numpy bundles none or it lacks one of them."""
    import ctypes

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", "")):
            names = (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}",
                     "blas_thread_shutdown_")
            if all(hasattr(handle, name) for name in names):
                get, put, shutdown = (getattr(handle, name) for name in names)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                shutdown.argtypes, shutdown.restype = [], ctypes.c_int
                return get, put, shutdown
    return None


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread, its pool stopped so that no BLAS
    thread spins on the CPU a helper needs, and yield True, or yield False
    where :func:`_openblas` finds nothing.  The hold is process-wide; on exit
    the thread count is restored and the pool stopped again, to restart at
    the next threaded BLAS call instead of spinning."""
    blas = _openblas()
    if blas is None:
        yield False
        return
    get, put, shutdown = blas
    threads = get()
    put(1)
    shutdown()
    try:
        yield True
    finally:
        put(threads)
        shutdown()
