"""Realization calculus for pairs of signed kernel decompositions.

A *signed kernel system* is four positive tables and a fixed operator
``T`` on ``H`` satisfying

    K1 - T^H L1 T  =  K2 - T^H L2 T        (blockwise).

Rearranged, the stacked feature columns

    g(s, x) = [V_K2(s) x; V_L1(s) T x],    f(s, x) = [V_K1(s) x; V_L2(s) T x]

have identical Gram matrices, so ``g -> f`` extends to a partial isometry

    W = [[A, B], [C, D]]

from the span of the g-columns onto the span of the f-columns; it is
computed here as ``F G^+`` (Moore-Penrose, relative rank cutoff), which
vanishes on the orthogonal complement of the initial space automatically.
Whenever ``M(s) = V_L2(s) - D V_L1(s)`` has full column rank, the
fractional-linear expression

    T12(s) = A + B V_L1(s) M(s)^+ C

maps ``V_K2(s)`` onto ``V_K1(s)`` and reconstructs
``K1(s, t) = V_K1(s)^H T12(t) V_K2(t)``.

For a dominated pair ``lo <= hi`` the Radon-Nikodym derivative is the
unique operator ``Phi`` on the dilation space of ``hi`` with
``lo(s, t) = V_hi(s)^H Phi V_hi(t)`` and ``0 <= Phi <= I``; when the system
is dominated (``K1 <= K2``) its square root agrees with the transfer
function on the span of the ``V_K2(s) a``, after the canonical isometric
identification of the two dilation spaces.

:func:`validate_system` factors each of the four tables once and the
validated system carries those factorizations; the realization
``real = construct_partial_isometry(sys)`` is built from them, and
``verify_realization(real, sys, tol)`` evaluates ``T12`` once per label and
derives every check from those values: the realization residuals, the
transitive action and, for a dominated system, ``sqrt(dK1/dK2) = T12``.

The realization uses one SVD per matrix (:func:`_svd`), for ``G``, ``F`` and
each ``M(s)``, and reads the norms of the four tables from their
factorizations (:attr:`FeatureSystem.norm`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dilation import FeatureSystem, kolmogorov_factorize
from .errors import (
    GramMismatch,
    InternalInvariantViolation,
    NotDominated,
    NotEquivalent,
    NotInvertible,
    NotPositiveDefinite,
    ShapeError,
    SpectrumOutOfRange,
)
from .kernels import (
    RANK_RTOL,
    TINY,
    LabelSet,
    OperatorKernelTable,
    require_psd,
)


@dataclass(frozen=True)
class SignedKernelSystem:
    """Validated system (K1, K2, L1, L2, T); see :func:`validate_system`.

    ``features`` maps ``"k1"``, ``"k2"``, ``"l1"``, ``"l2"`` to the
    factorization of each table at ``RANK_RTOL``.
    """

    k1: OperatorKernelTable
    k2: OperatorKernelTable
    l1: OperatorKernelTable
    l2: OperatorKernelTable
    t_op: np.ndarray
    identity_residual: float
    features: dict[str, FeatureSystem]

    @property
    def label_set(self) -> LabelSet:
        return self.k1.label_set

    @property
    def dim_h(self) -> int:
        return self.k1.dim_h

    def tables(self) -> dict[str, OperatorKernelTable]:
        return {"k1": self.k1, "k2": self.k2, "l1": self.l1, "l2": self.l2}


def validate_system(
    k1: OperatorKernelTable,
    k2: OperatorKernelTable,
    l1: OperatorKernelTable,
    l2: OperatorKernelTable,
    t_op,
) -> SignedKernelSystem:
    """Check shapes, positivity, and the defining identity of a system.

    Positivity is decided by factoring each table (:func:`kolmogorov_factorize`
    at ``RANK_RTOL``); a non-positive table raises
    :class:`NotPositiveDefinite` naming it.  The identity residual is
    measured blockwise in spectral norm, relative to the largest flattened
    norm among the four tables (the L-side scaled by ``max(1, ||T||^2)``).
    A relative residual above ``1e-10`` raises :class:`NotEquivalent` with
    the offending residual attached.
    """
    features = {}
    for name, tab in {"k1": k1, "k2": k2, "l1": l1, "l2": l2}.items():
        k1._require_same_shape(tab)
        try:
            features[name] = kolmogorov_factorize(tab)
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(
                f"kernel {name} is not positive (min eig {exc.min_eig:.3e})",
                min_eig=exc.min_eig,
            ) from None
    t_op = np.asarray(t_op, dtype=np.complex128)
    if t_op.shape != (k1.dim_h, k1.dim_h):
        raise ShapeError(f"T must be ({k1.dim_h}, {k1.dim_h}), got {t_op.shape}")

    lhs = (k1 - k2).flat
    rhs = ((l1 - l2).conjugated(t_op)).flat
    residual = float(np.linalg.norm(lhs - rhs, 2))
    t_sq = max(1.0, float(np.linalg.norm(t_op, 2)) ** 2)
    scale = max(
        features["k1"].norm,
        features["k2"].norm,
        t_sq * features["l1"].norm,
        t_sq * features["l2"].norm,
        TINY,
    )
    rel = residual / scale
    if residual > 1e-10 * scale:
        raise NotEquivalent(
            f"signed decompositions disagree: residual {residual:.3e} (relative {rel:.3e} > 1e-10)",
            residual=residual,
            relative=rel,
        )
    return SignedKernelSystem(k1, k2, l1, l2, t_op, identity_residual=rel, features=features)


@dataclass(frozen=True)
class TransferRealization:
    """Partial isometry blocks A, B, C, D.

    ``initial_basis`` / ``final_basis`` are orthonormal column bases of the
    initial and final spaces; ``g_columns`` / ``f_columns`` are the stacked
    feature columns the isometry was fitted to.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    initial_basis: np.ndarray
    final_basis: np.ndarray
    g_columns: np.ndarray
    f_columns: np.ndarray
    gram_defect: float

    @property
    def w(self) -> np.ndarray:
        return np.block([[self.a, self.b], [self.c, self.d]])

    def partial_isometry_defect(self) -> float:
        """max of ||W^H W - P_init|| and ||W W^H - P_fin|| (spectral)."""
        w = self.w
        p_init = self.initial_basis @ self.initial_basis.conj().T
        p_fin = self.final_basis @ self.final_basis.conj().T
        return max(
            float(np.linalg.norm(w.conj().T @ w - p_init, 2)),
            float(np.linalg.norm(w @ w.conj().T - p_fin, 2)),
        )


def _svd(a: np.ndarray, rcond: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular values, orthonormal range basis and pseudo-inverse of ``a``.

    One SVD of ``a.conj()``, the matrix ``np.linalg.pinv`` factors, so the
    pseudo-inverse is bitwise ``np.linalg.pinv(a, rcond)``.
    """
    u, s, vh = np.linalg.svd(a.conj(), full_matrices=False)
    keep = s > rcond * s.max(initial=0.0)
    inv = np.zeros_like(s)
    np.divide(1, s, where=keep, out=inv)
    return s, u[:, keep].conj(), vh.T @ (inv[:, None] * u.T)


def construct_partial_isometry(sys: SignedKernelSystem) -> TransferRealization:
    """Build W = F G^+ from the stacked feature columns of a valid system.

    The columns come from the factorizations ``sys.features``; the
    pseudo-inverse and the range bases cut off at ``RANK_RTOL``.
    Well-definedness rests on the equality of the Gram matrices of the two
    column families, which is implied by the system identity; a mismatch
    beyond tolerance signals a numerical rank pathology and raises
    :class:`GramMismatch`.
    """
    fs = sys.features
    n = sys.label_set.n
    t_lift = np.kron(np.eye(n), sys.t_op)
    g = np.vstack([fs["k2"].stacked, fs["l1"].stacked @ t_lift])
    f = np.vstack([fs["k1"].stacked, fs["l2"].stacked @ t_lift])

    s_g, initial_basis, g_pinv = _svd(g, RANK_RTOL)
    s_f, final_basis, _ = _svd(f, RANK_RTOL)
    # ||X^H X||_2 is the square of the largest singular value of X.
    gram_scale = max(float(s_g.max(initial=0.0)) ** 2, float(s_f.max(initial=0.0)) ** 2, TINY)
    gram_defect = float(np.linalg.norm(g.conj().T @ g - f.conj().T @ f, 2)) / gram_scale
    if gram_defect > 1e-9:
        raise GramMismatch(
            f"initial/final column Grams differ by relative {gram_defect:.3e}; "
            "the column correspondence is not isometric"
        )

    w = f @ g_pinv
    r_k1, r_k2 = fs["k1"].dilation_dim, fs["k2"].dilation_dim
    return TransferRealization(
        a=w[:r_k1, :r_k2],
        b=w[:r_k1, r_k2:],
        c=w[r_k1:, :r_k2],
        d=w[r_k1:, r_k2:],
        initial_basis=initial_basis,
        final_basis=final_basis,
        g_columns=g,
        f_columns=f,
        gram_defect=gram_defect,
    )


def _max_spectral_norm(blocks) -> float:
    """Largest spectral norm among equally shaped blocks, in one batched SVD."""
    return float(np.linalg.norm(np.stack(list(blocks)), 2, axis=(1, 2)).max())


def transfer_function(
    real: TransferRealization,
    sys: SignedKernelSystem,
    s: str,
    tol: float = RANK_RTOL,
) -> np.ndarray:
    """Evaluate ``T12(s) = A + B V_L1(s) M(s)^+ C`` at one label.

    ``M(s) = V_L2(s) - D V_L1(s)`` must have full column rank with
    ``sigma_min > tol * sigma_max``; otherwise the fractional-linear
    expression is undefined at ``s`` and :class:`NotInvertible` is raised.
    That failure reflects a violated hypothesis, not a numerical bug.
    """
    d_h = sys.dim_h
    v_l1 = sys.features["l1"].operator(s)
    v_l2 = sys.features["l2"].operator(s)
    sv, _, m_pinv = _svd(v_l2 - real.d @ v_l1, tol)
    sigma_max = float(sv[0]) if sv.size else 0.0
    sigma_min = float(sv[d_h - 1]) if sv.size >= d_h else 0.0
    if sv.size < d_h or sigma_min <= tol * sigma_max or sigma_max == 0.0:
        raise NotInvertible(
            f"rank condition fails at label {s!r}: sigma_min {sigma_min:.3e}, sigma_max {sigma_max:.3e}",
            label=s,
            sigma_min=sigma_min,
        )
    return real.a + real.b @ v_l1 @ m_pinv @ real.c


@dataclass(frozen=True)
class RealizationReport:
    """Every realization check, from one evaluation of ``T12`` per label.

    Residuals are relative to the scales documented on
    :func:`verify_realization`; ``partial_isometry_defect`` is absolute
    (projections have unit scale).  ``rn_spectrum`` and ``rn_vs_transfer``
    are ``None`` unless ``dominated``.  ``passed`` requires the four
    residuals within tolerance, the transitive action, and, for a dominated
    system, ``rn_vs_transfer`` within tolerance.
    """

    feature_map_residual: float
    reconstruction_residual: float
    intertwining_residual: float
    partial_isometry_defect: float
    gram_defect: float
    transitive_action: bool
    dominated: bool
    rn_spectrum: tuple[float, float] | None
    rn_vs_transfer: float | None
    passed: bool


def verify_realization(
    real: TransferRealization,
    sys: SignedKernelSystem,
    tol: float = 1e-8,
) -> RealizationReport:
    """Check the realization identities, the transitive action and, for a
    dominated system, ``sqrt(dK1/dK2) = T12``, from one ``T12(s)`` per label.

    ``feature_map_residual`` is the worst ``||V_K1(s) - T12(s) V_K2(s)||``
    relative to ``||stacked V_K1||``; ``reconstruction_residual`` the worst
    ``||K1(s, t) - V_K1(s)^H T12(t) V_K2(t)||`` over pairs, relative to the
    flattened norm of K1.  The action is transitive when the image vectors
    ``T12(s) V_K2(s) a``, which live in the K1 dilation space ``C^r``, have
    numerical rank (relative cutoff ``RANK_RTOL``) ``r``.

    When ``K1 <= K2`` the derivative ``Phi = dK1/dK2`` is computed from the
    K2 factorization at tolerance ``1e-9``.  The transfer function maps into
    the dilation space of K1 while ``Phi`` acts on that of K2, so the
    comparison composes T12 with the canonical identification
    ``V_K1(s) a -> sqrt(Phi) V_K2(s) a`` (an isometry on the span, fitted by
    least squares); ``rn_vs_transfer`` is the worst
    ``||sqrt(Phi) V_K2(s) - U T12(s) V_K2(s)||`` relative to
    ``||stacked V_K2||``, and ``rn_spectrum`` the raw extremes of ``Phi``.
    Propagates :class:`NotInvertible`.
    """
    fs_k1, fs_k2 = sys.features["k1"], sys.features["k2"]
    labels = sys.label_set.labels
    t12 = {s: transfer_function(real, sys, s) for s in labels}
    images = [t12[s] @ fs_k2.operator(s) for s in labels]

    # ||stacked||_2^2 = ||flat||_2 = the largest kept eigenvalue.
    k1_stack_scale = max(math.sqrt(fs_k1.norm), TINY)
    feature_dev = _max_spectral_norm(fs_k1.operator(s) - image for s, image in zip(labels, images))
    k1_flat_scale = max(fs_k1.norm, TINY)
    recon_dev = _max_spectral_norm(
        sys.k1.block(s, t) - fs_k1.operator(s).conj().T @ t12[t] @ fs_k2.operator(t)
        for s in labels
        for t in labels
    )
    f_scale = max(float(np.linalg.norm(real.f_columns, 2)), TINY)
    intertwine_dev = float(np.linalg.norm(real.f_columns - real.w @ real.g_columns, 2))
    residuals = (
        feature_dev / k1_stack_scale,
        recon_dev / k1_flat_scale,
        intertwine_dev / f_scale,
        real.partial_isometry_defect(),
    )
    transitive = _svd(np.hstack(images), RANK_RTOL)[1].shape[1] == fs_k1.dilation_dim

    rn_spectrum = rn_vs_transfer = None
    try:
        rn = _derivative(sys.k1, sys.k2, fs_k2, 1e-9)
    except NotDominated:
        rn = None
    else:
        ident = rn.sqrt_phi @ fs_k2.stacked @ np.linalg.pinv(fs_k1.stacked, rcond=RANK_RTOL)
        k2_stack_scale = max(math.sqrt(fs_k2.norm), TINY)
        rn_dev = _max_spectral_norm(
            rn.sqrt_phi @ fs_k2.operator(s) - ident @ t12[s] @ fs_k2.operator(s) for s in labels
        )
        rn_spectrum, rn_vs_transfer = rn.spectrum, rn_dev / k2_stack_scale

    return RealizationReport(
        *residuals,
        gram_defect=real.gram_defect,
        transitive_action=transitive,
        dominated=rn is not None,
        rn_spectrum=rn_spectrum,
        rn_vs_transfer=rn_vs_transfer,
        passed=(
            all(r <= tol for r in residuals)
            and transitive
            and (rn_vs_transfer is None or rn_vs_transfer <= tol)
        ),
    )


@dataclass(frozen=True)
class RNDerivative:
    """Radon-Nikodym derivative of ``lo`` with respect to ``hi``.

    ``phi`` acts on the dilation space of ``hi``; its eigenvalues are
    clamped to [0, 1] (legal only within tolerance, enforced upstream).
    ``spectrum`` records the raw pre-clamp extremes.
    """

    phi: np.ndarray
    sqrt_phi: np.ndarray
    spectrum: tuple[float, float]
    feature_system: FeatureSystem
    reproduction_residual: float


def radon_nikodym(
    lo: OperatorKernelTable,
    hi: OperatorKernelTable,
    tol: float = 1e-9,
) -> RNDerivative:
    """Solve ``lo(s, t) = V_hi(s)^H Phi V_hi(t)`` for ``0 <= Phi <= I``.

    Factors ``hi`` first, so a non-positive ``hi`` raises
    :class:`NotPositiveDefinite`.  Requires ``lo <= hi`` (within ``-tol``
    times the flattened norm of ``hi``); then ``Phi = (V^+)^H flat(lo) V^+``
    on the dilation space of ``hi`` is the unique solution.  Eigenvalues outside ``[-tol, 1 + tol]``
    raise :class:`SpectrumOutOfRange`; inside, they are clamped to [0, 1]
    before the principal square root is taken.
    """
    lo._require_same_shape(hi)
    return _derivative(lo, hi, kolmogorov_factorize(hi), tol)


def _derivative(
    lo: OperatorKernelTable,
    hi: OperatorKernelTable,
    fs: FeatureSystem,
    tol: float,
) -> RNDerivative:
    """:func:`radon_nikodym` given the factorization ``fs`` of ``hi``."""
    hi_scale = fs.norm
    require_psd(np.linalg.eigvalsh((hi - lo).flat), tol, NotDominated, "hi - lo", hi_scale)
    pinv = np.linalg.pinv(fs.stacked, rcond=RANK_RTOL)
    phi = pinv.conj().T @ lo.flat @ pinv
    phi = 0.5 * (phi + phi.conj().T)
    w, u = np.linalg.eigh(phi) if phi.size else (np.zeros(0), np.zeros((0, 0)))
    raw = (float(w[0]), float(w[-1])) if w.size else (0.0, 0.0)
    if w.size and (raw[0] < -tol or raw[1] > 1.0 + tol):
        raise SpectrumOutOfRange(
            f"derivative spectrum [{raw[0]:.3e}, {raw[1]:.3e}] leaves [0, 1] beyond {tol:g}"
        )
    clamped = np.clip(w, 0.0, 1.0)
    phi_c = (u * clamped) @ u.conj().T
    sqrt_phi = (u * np.sqrt(clamped)) @ u.conj().T

    residual = float(np.linalg.norm(fs.stacked.conj().T @ phi_c @ fs.stacked - lo.flat, 2))
    rel = residual / max(hi_scale, TINY)
    if rel > max(tol, 10 * RANK_RTOL):
        raise InternalInvariantViolation(
            f"derivative reproduces lo with relative residual {rel:.3e}"
        )
    return RNDerivative(
        phi=phi_c,
        sqrt_phi=sqrt_phi,
        spectrum=raw,
        feature_system=fs,
        reproduction_residual=rel,
    )


# ---------------------------------------------------------------------------
# Instance generator
# ---------------------------------------------------------------------------


def _random_pd_flat(rng: np.random.Generator, size: int, ridge: float = 0.0) -> np.ndarray:
    g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return g.conj().T @ g + ridge * np.eye(size)


def generate_valid_system(
    seed: int,
    n: int,
    d: int,
    dominated: bool = False,
) -> SignedKernelSystem:
    """Draw a random system satisfying every hypothesis of the realization.

    K2, L-side tables and a strict contraction T are drawn at random; a
    positive increment fixes L1 - L2, and K1 is defined by the system
    identity (scaled, in the dominated case, so that K1 stays positive and
    K1 <= K2).  Draws are rejected until the rank condition of the transfer
    function holds at every label with ``sigma_min/sigma_max`` above
    ``1e-6``, for at most 100 draws.  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    labels = LabelSet.of(f"s{i + 1}" for i in range(n))
    nd = n * d
    for _ in range(100):
        k2_flat = _random_pd_flat(rng, nd, ridge=0.5)
        base_flat = _random_pd_flat(rng, nd)
        delta_flat = _random_pd_flat(rng, nd)
        t_op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        t_op *= 0.8 / np.linalg.norm(t_op, 2)
        t_lift = np.kron(np.eye(n), t_op)
        bump = t_lift.conj().T @ delta_flat @ t_lift

        if dominated:
            # K1 = K2 - T^H (L2 - L1) T, with the increment shrunk so K1 > 0.
            lam_min = float(np.linalg.eigvalsh(k2_flat)[0])
            lam_bump = float(np.linalg.eigvalsh(bump)[-1])
            factor = 0.5 * lam_min / max(lam_bump, TINY)
            delta_flat = factor * delta_flat
            bump = factor * bump
            l1_flat, l2_flat = base_flat, base_flat + delta_flat
            k1_flat = k2_flat - bump
        else:
            l1_flat, l2_flat = base_flat + delta_flat, base_flat
            k1_flat = k2_flat + bump

        tables = {
            name: OperatorKernelTable.from_flat(labels, d, flat)
            for name, flat in [("k1", k1_flat), ("k2", k2_flat), ("l1", l1_flat), ("l2", l2_flat)]
        }
        try:
            sys = validate_system(tables["k1"], tables["k2"], tables["l1"], tables["l2"], t_op)
            real = construct_partial_isometry(sys)
            for s in labels.labels:
                transfer_function(real, sys, s, tol=1e-6)
        except (NotPositiveDefinite, NotEquivalent, GramMismatch, NotInvertible):
            continue
        return sys
    raise InternalInvariantViolation(f"no admissible system found in 100 draws (seed {seed})")
