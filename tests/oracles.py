"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the package's own flattening and
factorization helpers: matrices are assembled entry by entry with explicit
loops, so a bug in the canonical ordering cannot cancel in both places.
The references that tests check the library against (the ridge objective,
the second moment of sampled paths, the conditional law) live here, not in
the package, and call no opkern function for what they compute.
"""

import numpy as np


def assemble_flat_bruteforce(blocks: np.ndarray) -> np.ndarray:
    """Loop-built (n*d, n*d) matrix with entry ((i,p),(j,q)) = blocks[i,j,p,q]."""
    n, _, d, _ = blocks.shape
    out = np.zeros((n * d, n * d), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            for p in range(d):
                for q in range(d):
                    out[i * d + p, j * d + q] = blocks[i, j, p, q]
    return out


def quadratic_form(blocks: np.ndarray, coeffs: np.ndarray) -> float:
    """sum_ij <a_i, K(s_i, s_j) a_j> with the inner product linear in the
    second argument; coeffs has shape (n, d)."""
    n = blocks.shape[0]
    total = 0.0 + 0.0j
    for i in range(n):
        for j in range(n):
            total += coeffs[i].conj() @ (blocks[i, j] @ coeffs[j])
    return float(total.real)


def quadratic_form_pd_flag(blocks: np.ndarray, rng: np.random.Generator,
                           systems: int = 100, rtol: float = 1e-10) -> bool:
    """Brute-force positivity vote over random coefficient systems.

    Declares positive iff every sampled quadratic form stays above
    ``-rtol * sum ||a_i||^2`` scaled by the largest block magnitude.
    """
    n, _, d, _ = blocks.shape
    scale = max(float(np.abs(blocks).max()), 1e-300)
    for _ in range(systems):
        coeffs = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        value = quadratic_form(blocks, coeffs)
        weight = float((np.abs(coeffs) ** 2).sum())
        if value < -rtol * scale * weight:
            return False
    return True


def min_eig_bruteforce(blocks: np.ndarray) -> float:
    """Smallest eigenvalue of the loop-assembled, symmetrized matrix."""
    flat = assemble_flat_bruteforce(blocks)
    return float(np.linalg.eigvalsh(0.5 * (flat + flat.conj().T))[0])


def rank_by_eigs(flat: np.ndarray, rtol: float = 1e-10) -> int:
    evals = np.linalg.eigvalsh(flat)
    return int(np.sum(evals > rtol * max(evals[-1], 0.0)))


def geometric_block_sum(h: np.ndarray, x: np.ndarray, terms: int) -> np.ndarray:
    """sum_{m=0}^{terms-1} h^{mH} x h^m by explicit repeated multiplication."""
    out = np.zeros_like(x)
    current = np.array(x, dtype=np.complex128)
    for _ in range(terms):
        out = out + current
        current = h.conj().T @ current @ h
    return out


def random_hermitian_blocks(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Random table data with the exact Hermitian block pattern."""
    blocks = rng.standard_normal((n, n, d, d)) + 1j * rng.standard_normal((n, n, d, d))
    for i in range(n):
        for j in range(i, n):
            if i == j:
                blocks[i, i] = 0.5 * (blocks[i, i] + blocks[i, i].conj().T)
            else:
                blocks[j, i] = blocks[i, j].conj().T
    return blocks


def interleave_joint_bruteforce(k_blocks, l_blocks, t_blocks) -> np.ndarray:
    """Loop-built flattened joint matrix over H + H (2d coordinates per label)."""
    n, _, d, _ = k_blocks.shape
    out = np.zeros((2 * n * d, 2 * n * d), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            for p in range(d):
                for q in range(d):
                    out[i * 2 * d + p, j * 2 * d + q] = k_blocks[i, j, p, q]
                    out[i * 2 * d + p, j * 2 * d + d + q] = t_blocks[i, j, p, q]
                    out[i * 2 * d + d + p, j * 2 * d + q] = np.conj(t_blocks[j, i, q, p])
                    out[i * 2 * d + d + p, j * 2 * d + d + q] = l_blocks[i, j, p, q]
    return out


def conditional_law_bruteforce(k_blocks, l_blocks, t_blocks, observed):
    """``(T L^{-1} vec(observed), K - T L^{-1} T^H)`` on the loop-built Grams,
    through ``np.linalg.solve``; the mean comes back as ``observed.shape``."""
    k, l, t = (assemble_flat_bruteforce(b) for b in (k_blocks, l_blocks, t_blocks))
    mean = t @ np.linalg.solve(l, observed.reshape(-1))
    return mean.reshape(observed.shape), k - t @ np.linalg.solve(l, t.conj().T)


def ridge_objective(kernel, noise, train, y, g) -> float:
    """``([K] g - y)^H [L]^{-1} ([K] g - y) + g^H [K] g`` on the design
    matrices ``[K][i, j] = <a_i, K(s_i, s_j) a_j>``, built entry by entry."""
    rows = [kernel.labels.index(s) for s in train.labels]
    a, m = train.vectors, len(rows)

    def design(blocks):
        return np.array([[a[i].conj() @ blocks[rows[i], rows[j]] @ a[j] for j in range(m)] for i in range(m)])

    k, l = design(kernel.blocks), design(noise.blocks)
    y, g = np.asarray(y, dtype=np.complex128), np.asarray(g, dtype=np.complex128)
    r = k @ g - y
    return float((r.conj() @ np.linalg.solve(l, r) + g.conj() @ k @ g).real)


def regression_function_bruteforce(blocks, labels, train_labels, vectors, coefficients) -> np.ndarray:
    """``F(s_i) = sum_j K(s_i, s_j) a_j c_j`` for every label ``s_i``, one
    training point and one entry at a time; an (n, d) array."""
    n, _, d, _ = blocks.shape
    out = np.zeros((n, d), dtype=np.complex128)
    for i in range(n):
        for s, a, c in zip(train_labels, vectors, coefficients):
            j = list(labels).index(s)
            for p in range(d):
                for q in range(d):
                    out[i, p] += blocks[i, j, p, q] * a[q] * c
    return out


def second_moment(paths: np.ndarray) -> np.ndarray:
    """``(1/N) sum_k w_k w_k^H`` over the N rows ``w_k`` of an (N, n, d)
    path array, each flattened to length n*d."""
    rows = paths.reshape(len(paths), -1)
    return rows.T @ rows.conj() / len(rows)


def mc_verify_full_batch(joint, seed: int, count: int, tol_sigma: float = 5.0):
    """The one-batch Monte-Carlo check of the conditional law that
    ``gaussian.mc_verify_conditional`` streams: draw every joint path at
    once, regress the K-half on the L-half through the uncentred moments
    ``c_xy c_yy^{-1}``, and average the per-sample residual outer products.

    Returns ``(b_hat, s_hat, mean_map_dev_se, residual_cov_dev_se, passed)``;
    the paths, the exact law and the gates come from the package.
    """
    from opkern.errors import InternalInvariantViolation, SingularL
    from opkern.gaussian import draw_paths
    from opkern.kernels import RANK_RTOL, gated_solve, require_finite

    n, d = joint.label_set.n, joint.dim_h
    nd = n * d
    paths = draw_paths(joint.features, seed, 0, count).paths
    x, y = paths[:, :, :d].reshape(count, nd), paths[:, :, d:].reshape(count, nd)
    with np.errstate(over="ignore", invalid="ignore"):
        c_xy = x.T @ y.conj() / count
        c_yy = y.T @ y.conj() / count
        c_yy = 0.5 * (c_yy + c_yy.conj().T)
        require_finite(InternalInvariantViolation, "a Monte-Carlo moment", c_xy, c_yy)
        b_hat = gated_solve(c_yy.conj().T, c_xy.conj().T, RANK_RTOL, SingularL, "empirical L covariance").conj().T

        l_inv_diag = np.abs(joint.l_eigh[1]) ** 2 @ (1.0 / joint.l_eigh[0])
        schur_flat = joint.schur.flat
        se_floor = 1e-12 * max(joint.features.norm, 1.0) / np.sqrt(count)
        se_mean = np.sqrt(np.outer(np.abs(np.diag(schur_flat)), l_inv_diag) / count)
        mean_dev = float(np.max(np.abs(b_hat - joint.mean_map) / np.maximum(se_mean, se_floor)))

        resid = x - y @ b_hat.T
        s_hat = resid.T @ resid.conj() / count
        diag_s = np.abs(np.diag(schur_flat))
        se_cov = np.sqrt((np.outer(diag_s, diag_s) + np.abs(schur_flat) ** 2) / count)
        cov_dev = float(np.max(np.abs(s_hat - schur_flat) / np.maximum(se_cov, se_floor)))
    return b_hat, s_hat, mean_dev, cov_dev, mean_dev <= tol_sigma and cov_dev <= tol_sigma


def realization_residuals_by_label(k1_blocks, v_k1, v_k2, t12, sqrt_phi=None):
    """The realization checks one label or pair at a time, unscaled, given
    the stacked features ``v_k1``, ``v_k2`` and ``t12[i] = T12(s_i)``.

    Returns ``(feature, reconstruction, rank, rn)``: the worst
    ``||V_K1(s) - T12(s) V_K2(s)||``, the worst ``||K1(s, t) - V_K1(s)^H
    T12(t) V_K2(t)||`` over pairs, the numerical rank (cutoff ``1e-10``
    relative) of the images ``T12(s) V_K2(s)`` side by side, and, given
    ``sqrt_phi``, the worst ``||sqrt(Phi) V_K2(s) - U T12(s) V_K2(s)||`` with
    ``U = sqrt(Phi) V_K2 pinv(V_K1)``, else None.  Norms are spectral.
    """
    n, _, d, _ = k1_blocks.shape
    block = lambda v, i: v[:, i * d : (i + 1) * d]
    images = [t12[i] @ block(v_k2, i) for i in range(n)]
    feature = max(np.linalg.norm(block(v_k1, i) - images[i], 2) for i in range(n))
    reconstruction = max(np.linalg.norm(k1_blocks[i, j] - block(v_k1, i).conj().T @ images[j], 2)
                         for i in range(n) for j in range(n))
    sv = np.linalg.svd(np.hstack(images), compute_uv=False)
    rank = int((sv > 1e-10 * sv.max(initial=0.0)).sum())
    rn = None
    if sqrt_phi is not None:
        ident = sqrt_phi @ v_k2 @ np.linalg.pinv(v_k1)
        rn = max(np.linalg.norm(sqrt_phi @ block(v_k2, i) - ident @ images[i], 2) for i in range(n))
    return feature, reconstruction, rank, rn
