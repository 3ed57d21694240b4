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

:func:`validate_system` factors each of the four tables once, measures the
identity on their flat Grams, and builds ``W`` from the factorizations; the
system it returns carries both.  ``verify_realization(sys, tol)`` evaluates
``T12`` once per label into ``X``, whose column block ``t`` is
``T12(t) V_K2(t)``; each check is an identity of ``X``, measured by one
product and one batched norm of its blocks.

Every pseudo-inverse and range basis comes from one factorization per matrix:
an SVD (:func:`_svd`) of ``G``, ``F``, each ``M(s)`` and ``X``; those of the
stacked features, and the table norms, from the tables' factorizations
(:attr:`FeatureSystem.pinv`, :attr:`FeatureSystem.norm`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dilation import FeatureSystem, kolmogorov_factorize
from .errors import (
    GramMismatch,
    InternalInvariantViolation,
    InvalidKernel,
    NotDominated,
    NotEquivalent,
    NotInvertible,
    NotPositiveDefinite,
    ShapeError,
    SpectrumOutOfRange,
)
from .kernels import (
    PD_RTOL,
    RANK_RTOL,
    TINY,
    LabelSet,
    OperatorKernelTable,
    block_layout,
    max_scale,
    max_spectral_norm,
    require_at_most,
    require_finite,
    require_psd,
)


@dataclass(frozen=True)
class SignedKernelSystem:
    """Validated system (K1, K2, L1, L2, T) and its realization; see
    :func:`validate_system`.

    ``features`` maps ``"k1"``, ``"k2"``, ``"l1"``, ``"l2"`` to the
    factorization of each table at ``RANK_RTOL``.  ``w = F G^+`` is the
    partial isometry; its blocks A, B, C, D are cut by
    :func:`transfer_function`.  ``initial_basis`` / ``final_basis`` are
    orthonormal column bases of the initial and final spaces, the ranges of
    the stacked feature columns ``G`` and ``F``; ``f_norm = ||F||_2``.
    """

    k1: OperatorKernelTable
    k2: OperatorKernelTable
    l1: OperatorKernelTable
    l2: OperatorKernelTable
    t_op: np.ndarray
    identity_residual: float
    features: dict[str, FeatureSystem]
    w: np.ndarray
    initial_basis: np.ndarray
    final_basis: np.ndarray
    f_norm: float
    gram_defect: float

    @property
    def label_set(self) -> LabelSet:
        return self.k1.label_set

    @property
    def dim_h(self) -> int:
        return self.k1.dim_h

    def tables(self) -> dict[str, OperatorKernelTable]:
        return {"k1": self.k1, "k2": self.k2, "l1": self.l1, "l2": self.l2}

    def partial_isometry_defect(self) -> float:
        """max of ||W^H W - P_init|| and ||W W^H - P_fin|| (spectral); NaN if either is."""
        w = self.w
        p_init = self.initial_basis @ self.initial_basis.conj().T
        p_fin = self.final_basis @ self.final_basis.conj().T
        return float(np.maximum(np.linalg.norm(w.conj().T @ w - p_init, 2),
                                np.linalg.norm(w @ w.conj().T - p_fin, 2)))


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


def _columns(features: dict[str, FeatureSystem], t_op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stacked feature columns ``G = [V_K2; V_L1 T]`` and ``F = [V_K1; V_L2 T]``."""
    t_lift = np.kron(np.eye(features["k1"].label_set.n), t_op)
    return (np.vstack([features["k2"].stacked, features["l1"].stacked @ t_lift]),
            np.vstack([features["k1"].stacked, features["l2"].stacked @ t_lift]))


def validate_system(
    k1: OperatorKernelTable,
    k2: OperatorKernelTable,
    l1: OperatorKernelTable,
    l2: OperatorKernelTable,
    t_op,
) -> SignedKernelSystem:
    """Check shapes, positivity, and the defining identity of a system, and
    realize it.

    Positivity is decided by factoring each table (:func:`kolmogorov_factorize`
    at ``RANK_RTOL``); a non-positive table raises
    :class:`NotPositiveDefinite` naming it.  The identity residual is the
    spectral norm of ``K1 - K2 - T^H (L1 - L2) T`` on flat Grams, relative
    to the largest flattened norm among the four tables (the L-side scaled
    by ``max(1, ||T||^2)``).  A relative residual above ``1e-10`` raises
    :class:`NotEquivalent` with the offending residual attached; a defect,
    residual or scale beyond the float range raises :class:`InvalidKernel`.

    Once the identity holds, ``W = F G^+`` is built from the stacked feature
    columns of the factorizations (:func:`_columns`); the pseudo-inverse and
    the range bases cut off at ``RANK_RTOL``.  Well-definedness rests on the
    equality of the Gram matrices of the two column families, which the
    identity implies; a relative mismatch above ``1e-9`` signals a numerical
    rank pathology and raises :class:`GramMismatch`, and feature Grams
    beyond the float range raise :class:`InvalidKernel`.
    """
    features = {}
    for name, tab in {"k1": k1, "k2": k2, "l1": l1, "l2": l2}.items():
        k1._require_same_shape(tab)
        features[name] = kolmogorov_factorize(tab, what=f"kernel {name}")
    t_op = np.asarray(t_op, dtype=np.complex128)
    if t_op.shape != (k1.dim_h, k1.dim_h):
        raise ShapeError(f"T must be ({k1.dim_h}, {k1.dim_h}), got {t_op.shape}")

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite defect is refused, unseen by the SVD
        congruence = block_layout(t_op.conj().T @ ((l1.blocks - l2.blocks) @ t_op))
        defect = (k1.flat - k2.flat) - 0.5 * (congruence + congruence.conj().T)
    residual = float(np.linalg.norm(defect, 2)) if np.isfinite(defect).all() else math.inf
    t_norm = float(np.linalg.norm(t_op, 2))
    t_sq = max_scale(1.0, t_norm * t_norm)
    norm = {name: fs.norm for name, fs in features.items()}
    # A zero L-side table adds nothing, however large T is (inf * 0 would read NaN).
    l_side = [t_sq * norm[name] for name in ("l1", "l2") if norm[name] != 0.0]
    scale = max_scale(norm["k1"], norm["k2"], *l_side)
    if not (math.isfinite(residual) and math.isfinite(scale)):
        raise InvalidKernel(f"system identity leaves the float range: residual {residual:.3e}, scale {scale:.3e}")
    rel = residual / scale
    require_at_most(residual, 1e-10 * scale, NotEquivalent,
                    f"signed decompositions disagree: residual {residual:.3e} (relative {rel:.3e} > 1e-10)",
                    residual=residual, relative=rel)

    g, f = _columns(features, t_op)
    s_g, initial_basis, g_pinv = _svd(g, RANK_RTOL)
    s_f, final_basis, _ = _svd(f, RANK_RTOL)
    g_norm, f_norm = float(s_g.max(initial=0.0)), float(s_f.max(initial=0.0))
    # ||X^H X||_2 is the square of the largest singular value of X.
    gram_scale = max_scale(g_norm * g_norm, f_norm * f_norm)
    if not math.isfinite(gram_scale):
        raise InvalidKernel(f"stacked feature Grams G^H G and F^H F leave the float range (scale {gram_scale:.3e})")
    gram_defect = float(np.linalg.norm(g.conj().T @ g - f.conj().T @ f, 2)) / gram_scale
    require_at_most(gram_defect, 1e-9, GramMismatch,
                    f"initial/final column Grams differ by relative {gram_defect:.3e}; "
                    "the column correspondence is not isometric", relative=gram_defect)
    return SignedKernelSystem(k1, k2, l1, l2, t_op, rel, features, f @ g_pinv, initial_basis, final_basis,
                              f_norm, gram_defect)


def transfer_function(
    sys: SignedKernelSystem,
    s: str,
    tol: float = RANK_RTOL,
) -> np.ndarray:
    """Evaluate ``T12(s) = A + B V_L1(s) M(s)^+ C`` at one label, with A-D
    the blocks of ``sys.w`` cut at the K1 (rows) and K2 (columns) dilation
    dimensions of ``sys.features``.

    ``M(s) = V_L2(s) - D V_L1(s)`` must have full column rank with
    ``sigma_min > tol * sigma_max``; otherwise the fractional-linear
    expression is undefined at ``s`` and :class:`NotInvertible` is raised.
    That failure reflects a violated hypothesis, not a numerical bug.
    """
    d_h = sys.dim_h
    w, r_k1, r_k2 = sys.w, sys.features["k1"].dilation_dim, sys.features["k2"].dilation_dim
    v_l1 = sys.features["l1"].operator(s)
    v_l2 = sys.features["l2"].operator(s)
    sv, _, m_pinv = _svd(v_l2 - w[r_k1:, r_k2:] @ v_l1, tol)
    sigma_max = float(sv[0]) if sv.size else 0.0
    sigma_min = float(sv[d_h - 1]) if sv.size >= d_h else 0.0
    if not (sv.size >= d_h and sigma_min > tol * sigma_max):  # a NaN fails; so does sigma_max = 0
        raise NotInvertible(f"rank condition fails at label {s!r}: sigma_min {sigma_min:.3e}, sigma_max {sigma_max:.3e}",
                            label=s, sigma_min=sigma_min)
    return w[:r_k1, :r_k2] + w[:r_k1, r_k2:] @ v_l1 @ m_pinv @ w[r_k1:, :r_k2]


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
    kernel_reconstruction_residual: float
    intertwining_residual: float
    partial_isometry_defect: float
    gram_defect: float
    transitive_action: bool
    dominated: bool
    rn_spectrum: tuple[float, float] | None
    rn_vs_transfer: float | None
    passed: bool


def verify_realization(
    sys: SignedKernelSystem,
    tol: float = 1e-8,
) -> RealizationReport:
    """Check the realization identities, the transitive action and, for a
    dominated system, ``sqrt(dK1/dK2) = T12``, from one ``T12(s)`` per label.

    ``feature_map_residual`` is the worst ``||V_K1(s) - T12(s) V_K2(s)||``
    relative to ``||stacked V_K1||``; ``kernel_reconstruction_residual`` the worst
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
    Propagates :class:`NotInvertible`, and :class:`NotDominated` when the
    smallest eigenvalue of ``K2 - K1`` is not finite, which decides nothing;
    a residual or ``rn_vs_transfer`` that is not finite raises
    :class:`InternalInvariantViolation`.
    """
    fs_k1, fs_k2 = sys.features["k1"], sys.features["k2"]
    n = sys.label_set.n
    # Column block t of x is T12(t) V_K2(t): the image of V_K2(t) in C^r.
    x = np.hstack([transfer_function(sys, s) @ fs_k2.operator(s) for s in sys.label_set.labels])

    g, f = _columns(sys.features, sys.t_op)
    # ||stacked||_2^2 = ||flat||_2 = the largest kept eigenvalue.
    residuals = (
        max_spectral_norm(fs_k1.stacked - x, 1, n) / max(math.sqrt(fs_k1.norm), TINY),
        max_spectral_norm(sys.k1.flat - fs_k1.stacked.conj().T @ x, n, n) / max(fs_k1.norm, TINY),
        float(np.linalg.norm(f - sys.w @ g, 2)) / max(sys.f_norm, TINY),
        sys.partial_isometry_defect(),
    )
    transitive = _svd(x, RANK_RTOL)[1].shape[1] == fs_k1.dilation_dim

    rn_spectrum = rn_vs_transfer = None
    try:
        rn = _derivative(sys.k1, sys.k2, fs_k2, 1e-9)
    except NotDominated as exc:
        if not math.isfinite(exc.min_eig):  # a NaN spectrum is no verdict on domination
            raise
        rn = None
    else:
        root_k2 = rn.sqrt_phi @ fs_k2.stacked
        rn_dev = max_spectral_norm(root_k2 - root_k2 @ fs_k1.pinv @ x, 1, n)
        rn_spectrum, rn_vs_transfer = rn.rn_spectrum, rn_dev / max(math.sqrt(fs_k2.norm), TINY)
    checks = residuals if rn is None else (*residuals, rn_vs_transfer)
    # A NaN would fail the verdict, but no report can hold it.
    require_finite(InternalInvariantViolation, "a realization residual", checks)

    return RealizationReport(
        *residuals,
        gram_defect=sys.gram_defect,
        transitive_action=transitive,
        dominated=rn is not None,
        rn_spectrum=rn_spectrum,
        rn_vs_transfer=rn_vs_transfer,
        passed=all(r <= tol for r in checks) and transitive,
    )


@dataclass(frozen=True)
class RNDerivative:
    """Radon-Nikodym derivative of ``lo`` with respect to ``hi``.

    ``phi`` acts on the dilation space of ``hi``; its eigenvalues are
    clamped to [0, 1] (legal only within tolerance, enforced upstream).
    ``rn_spectrum`` records the raw pre-clamp extremes, ``dilation_dim``
    the dimension of that space.
    """

    phi: np.ndarray
    sqrt_phi: np.ndarray
    rn_spectrum: tuple[float, float]
    dilation_dim: int
    reproduction_residual: float


def radon_nikodym(
    lo: OperatorKernelTable,
    hi: OperatorKernelTable,
    tol: float = 1e-9,
) -> RNDerivative:
    """Solve ``lo(s, t) = V_hi(s)^H Phi V_hi(t)`` for ``0 <= Phi <= I``.

    Factors ``hi`` first, then tests ``lo`` to ``PD_RTOL`` times its own
    norm, so a non-positive ``hi`` (named ``kernel k``) or ``lo`` (named
    ``kernel l``) raises :class:`NotPositiveDefinite`.  Requires ``lo <=
    hi`` (within ``-tol`` times the flattened norm of ``hi``); then ``Phi =
    (V^+)^H flat(lo) V^+`` on the dilation space of ``hi`` is the unique
    solution.  Eigenvalues outside ``[-tol, 1 + tol]`` raise
    :class:`SpectrumOutOfRange`; inside, they are clamped to [0, 1] before
    the principal square root is taken.
    """
    lo._require_same_shape(hi)
    fs = kolmogorov_factorize(hi, what="kernel k")
    require_psd(np.linalg.eigvalsh(lo.flat), PD_RTOL, NotPositiveDefinite, "kernel l")
    return _derivative(lo, hi, fs, tol)


def _derivative(
    lo: OperatorKernelTable,
    hi: OperatorKernelTable,
    fs: FeatureSystem,
    tol: float,
) -> RNDerivative:
    """:func:`radon_nikodym` given the factorization ``fs`` of ``hi``."""
    hi_scale = fs.norm
    require_psd(np.linalg.eigvalsh(hi.flat - lo.flat), tol, NotDominated, "hi - lo", hi_scale)
    phi = fs.pinv.conj().T @ lo.flat @ fs.pinv
    phi = 0.5 * (phi + phi.conj().T)
    w, u = np.linalg.eigh(phi) if phi.size else (np.zeros(0), np.zeros((0, 0)))
    raw = (float(w[0]), float(w[-1])) if w.size else (0.0, 0.0)
    if w.size:
        message = f"derivative spectrum [{raw[0]:.3e}, {raw[1]:.3e}] leaves [0, 1] beyond {tol:g}"
        require_at_most(-raw[0], tol, SpectrumOutOfRange, message, min_eig=raw[0], max_eig=raw[1])
        require_at_most(raw[1], 1.0 + tol, SpectrumOutOfRange, message, min_eig=raw[0], max_eig=raw[1])
    clamped = np.clip(w, 0.0, 1.0)
    phi_c = (u * clamped) @ u.conj().T
    sqrt_phi = (u * np.sqrt(clamped)) @ u.conj().T

    residual = float(np.linalg.norm(fs.stacked.conj().T @ phi_c @ fs.stacked - lo.flat, 2))
    rel = residual / max(hi_scale, TINY)
    require_at_most(rel, max(tol, 10 * RANK_RTOL), InternalInvariantViolation,
                    f"derivative reproduces lo with relative residual {rel:.3e}", relative=rel)
    return RNDerivative(
        phi=phi_c,
        sqrt_phi=sqrt_phi,
        rn_spectrum=raw,
        dilation_dim=fs.dilation_dim,
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
            for s in labels.labels:
                transfer_function(sys, s, tol=1e-6)
        except (NotPositiveDefinite, NotEquivalent, GramMismatch, NotInvertible):
            continue
        return sys
    raise InternalInvariantViolation(f"no admissible system found in 100 draws (seed {seed})")
