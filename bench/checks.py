"""Output checks for the benchmark's CLI jobs.

Every check compares a job's output file with an independent numpy/scipy
reference built from the matrices the benchmark generated; none of them
calls into opkern.  A check returns ``None`` when the output is correct
and a one-line reason otherwise.

Tolerances are the ones pinned in ``tests/test_acceptance.py``:
factorization residual 1e-10 of the spectral norm (criterion 1),
positivity agreement 1e-10 (criterion 2), realization identities 1e-8
(criterion 3), derivative spectrum inside [-1e-9, 1 + 1e-9] (criterion 4),
5 standard errors for Monte-Carlo moments (criterion 6), conditional
covariances 1e-10 of the largest norm (criterion 7), ridge fits 1e-9
(criterion 8) and 1e-12 for the conditional mean map (criterion 6).
"""

from __future__ import annotations

import json

import numpy as np
import scipy.linalg

FACTOR_RTOL = 1e-10
PD_RTOL = 1e-10
REALIZE_TOL = 1e-8
SYSTEM_RTOL = 1e-10
SPECTRUM_TOL = 1e-9
MC_SIGMA = 5.0
COND_COV_RTOL = 1e-10
MEAN_MAP_RTOL = 1e-12
RIDGE_RTOL = 1e-9


def pairs_to_complex(data) -> np.ndarray:
    """Nested ``[re, im]`` lists, as written by the CLI, to a complex array."""
    arr = np.asarray(data, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


def flat_from_blocks(blocks: np.ndarray) -> np.ndarray:
    n, _, d, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(n * d, n * d)


def spectral_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def hermitian_extremes(a: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a Hermitian matrix."""
    m = a.shape[0]
    lo = scipy.linalg.eigvalsh(a, subset_by_index=[0, 0])[0]
    hi = scipy.linalg.eigvalsh(a, subset_by_index=[m - 1, m - 1])[0]
    return float(lo), float(hi)


def _load(raw: bytes) -> dict:
    return json.loads(raw.decode("utf-8"))


def check_pd(raw: bytes, k_flat: np.ndarray) -> str | None:
    res = _load(raw)["results"]
    lo, hi = hermitian_extremes(k_flat)
    scale = max(abs(lo), abs(hi))
    if res["pd"] is not True:
        return "check-pd reports a positive table as not positive"
    if abs(res["min_eig"] - lo) > PD_RTOL * scale:
        return f"min_eig {res['min_eig']:.6e} differs from reference {lo:.6e}"
    return None


def check_factorize(raw: bytes, k_flat: np.ndarray, labels: list[str], d: int, rank: int) -> str | None:
    res = _load(raw)["results"]
    if res["labels"] != labels or res["dim_h"] != d:
        return "factorize report has the wrong labels or operator dimension"
    if res["dilation_dim"] != rank:
        return f"dilation_dim {res['dilation_dim']} != generated rank {rank}"
    v = np.hstack([pairs_to_complex(res["features"][s]).reshape(rank, d) for s in labels])
    gap = v.conj().T @ v - k_flat
    _, top = hermitian_extremes(k_flat)
    # Frobenius bounds the spectral norm from above, so this is the stricter test.
    if np.linalg.norm(gap) > FACTOR_RTOL * top and spectral_norm(gap) > FACTOR_RTOL * top:
        return f"V^H V misses K by {spectral_norm(gap):.3e} > {FACTOR_RTOL:g} * {top:.3e}"
    return None


def check_realize(raw: bytes, dominated: bool) -> str | None:
    res = _load(raw)["results"]
    if res.get("dominated") is not dominated:
        return f"realize reports dominated={res.get('dominated')}, generated {dominated}"
    if res["system_identity_residual"] > SYSTEM_RTOL:
        return f"system identity residual {res['system_identity_residual']:.3e}"
    for key in (
        "partial_isometry_defect",
        "intertwining_residual",
        "feature_map_residual",
        "kernel_reconstruction_residual",
    ):
        if not res[key] <= REALIZE_TOL:
            return f"{key} {res[key]:.3e} > {REALIZE_TOL:g}"
    if res["transitive_action"] is not True:
        return "transitive action check failed"
    if dominated:
        lo, hi = res["rn_spectrum"]
        if lo < -SPECTRUM_TOL or hi > 1.0 + SPECTRUM_TOL:
            return f"derivative spectrum [{lo:.3e}, {hi:.3e}] leaves [0, 1]"
        if not res["rn_vs_transfer"] <= REALIZE_TOL:
            return f"rn_vs_transfer {res['rn_vs_transfer']:.3e} > {REALIZE_TOL:g}"
    return None


def check_rn(raw: bytes, lo_flat: np.ndarray, hi_flat: np.ndarray) -> str | None:
    res = _load(raw)["results"]
    ref = scipy.linalg.eigh(lo_flat, hi_flat, eigvals_only=True)
    got = res["rn_spectrum"]
    if abs(got[0] - ref[0]) > SPECTRUM_TOL or abs(got[1] - ref[-1]) > SPECTRUM_TOL:
        return f"rn spectrum {got} differs from generalized eigenvalues [{ref[0]:.12f}, {ref[-1]:.12f}]"
    if res["dilation_dim"] != hi_flat.shape[0]:
        return f"dilation_dim {res['dilation_dim']} != {hi_flat.shape[0]}"
    return None


def check_mc_verify(raw: bytes, samples: int) -> str | None:
    res = _load(raw)["results"]
    if res["passed"] is not True:
        return "mc-verify reports a failed check"
    if res["samples"] != samples:
        return f"mc-verify used {res['samples']} samples, asked for {samples}"
    for key in ("mean_map_dev_se", "residual_cov_dev_se"):
        if not res[key] <= MC_SIGMA:
            return f"{key} {res[key]:.3f} > {MC_SIGMA:g}"
    return None


def check_condition(raw: bytes, k: np.ndarray, l: np.ndarray, t: np.ndarray, observed: np.ndarray) -> str | None:
    res = _load(raw)["results"]
    nd = k.shape[0]
    mean_map = pairs_to_complex(res["mean_map"])
    posterior = pairs_to_complex(res["posterior_mean"]).reshape(nd)
    cov = flat_from_blocks(pairs_to_complex(res["cond_cov_blocks"]))
    if res["null_dim"] != 0:
        return f"null_dim {res['null_dim']} for an invertible L"
    # Backward error of M = T L^{-1}: independent of the conditioning of L.
    resid = spectral_norm(mean_map @ l - t)
    if resid > MEAN_MAP_RTOL * spectral_norm(mean_map) * spectral_norm(l):
        return f"mean map residual |M L - T| = {resid:.3e}"
    chol = scipy.linalg.cho_factor(l)
    ref_map_h = scipy.linalg.cho_solve(chol, t.conj().T)  # (T L^{-1})^H
    ref_post = ref_map_h.conj().T @ observed.reshape(nd)
    if np.linalg.norm(posterior - ref_post) > RIDGE_RTOL * max(np.linalg.norm(ref_post), 1.0):
        return "posterior mean differs from T L^{-1} y"
    ref_cov = k - t @ ref_map_h
    scale = max(spectral_norm(k), spectral_norm(ref_cov))
    if spectral_norm(cov - ref_cov) > COND_COV_RTOL * scale:
        return "conditional covariance differs from K - T L^{-1} T^H"
    return None


def ridge_design(k_flat: np.ndarray, d: int, idx: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """m x nd matrix whose row i is a_i^H placed at the block of label idx[i]."""
    m = idx.size
    rows = np.zeros((m, k_flat.shape[0]), dtype=np.complex128)
    for p in range(d):
        rows[np.arange(m), idx * d + p] = vecs[:, p].conj()
    return rows


def check_krr_fit(raw: bytes, k_flat: np.ndarray, d: int, idx: np.ndarray, vecs: np.ndarray, y: np.ndarray) -> str | None:
    res = _load(raw)["results"]
    coeffs = pairs_to_complex(res["coefficients"])
    fitted = pairs_to_complex(res["fitted"])
    if res["m"] != idx.size or coeffs.shape != (idx.size,):
        return "krr-fit report has the wrong number of coefficients"
    a = ridge_design(k_flat, d, idx, vecs)
    k_gram = a @ k_flat @ a.conj().T
    same = idx[:, None] == idx[None, :]
    noise_gram = np.where(same, vecs.conj() @ vecs.T, 0.0)  # identity noise kernel
    h = k_gram + noise_gram
    resid = np.linalg.norm(h @ coeffs - y)
    if resid > RIDGE_RTOL * (spectral_norm(h) * np.linalg.norm(coeffs) + np.linalg.norm(y)):
        return f"coefficients miss ([L]+[K]) c = y by {resid:.3e}"
    if np.linalg.norm(fitted - k_gram @ coeffs) > RIDGE_RTOL * max(np.linalg.norm(fitted), 1.0):
        return "fitted values differ from [K] c"
    return None


def check_krr_predict(raw: bytes, fit_raw: bytes, k_flat: np.ndarray, d: int, idx: np.ndarray,
                      vecs: np.ndarray, q_idx: np.ndarray, q_vecs: np.ndarray, labels: list[str]) -> str | None:
    preds = _load(raw)["results"]["predictions"]
    coeffs = pairs_to_complex(_load(fit_raw)["results"]["coefficients"])
    if len(preds) != q_idx.size:
        return f"{len(preds)} predictions for {q_idx.size} queries"
    if [p["label"] for p in preds] != [labels[i] for i in q_idx]:
        return "prediction labels are out of order"
    got = pairs_to_complex([p["value"] for p in preds])
    w = ridge_design(k_flat, d, idx, vecs).conj().T @ coeffs
    ref = np.einsum("qp,qp->q", q_vecs.conj(), (k_flat @ w).reshape(-1, d)[q_idx])
    if np.max(np.abs(got - ref)) > RIDGE_RTOL * max(np.max(np.abs(ref)), 1.0):
        return f"predictions differ from direct evaluation by {np.max(np.abs(got - ref)):.3e}"
    return None


def check_sample(path, k_flat: np.ndarray, labels: list[str], d: int, samples: int) -> str | None:
    """Shape, order and finiteness of the path CSV, and its covariance
    within ``MC_SIGMA`` standard errors of K at every entry."""
    n = len(labels)
    nd = n * d
    values = np.empty((samples, nd), dtype=np.complex128)
    flat = values.reshape(-1)
    expected = [f"{s},{p}," for s in labels for p in range(d)]
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline() != "sample,label,coordinate,re,im\n":
            return "path CSV header is wrong"
        row = 0
        for line in fh:
            if row >= samples * nd:
                return "path CSV has too many rows"
            k, rest = line.split(",", 1)
            head, re, im = rest.rsplit(",", 2)
            if int(k) != row // nd or head + "," != expected[row % nd]:
                return f"path CSV row {row + 1} is out of order"
            flat[row] = complex(float(re), float(im))
            row += 1
    if row != samples * nd:
        return f"path CSV has {row} rows, expected {samples * nd}"
    if not np.all(np.isfinite(values)):
        return "path CSV holds non-finite values"
    emp = values.T @ values.conj() / samples
    diag = np.abs(np.diag(k_flat))
    # Var of one entry of the 1/N second-moment estimate is at most
    # 2 K_ii K_jj / N for Gaussian paths (Isserlis + Cauchy-Schwarz).
    se = np.sqrt(2.0 * np.outer(diag, diag) / samples)
    dev = float(np.max(np.abs(emp - k_flat) / se))
    if dev > MC_SIGMA:
        return f"empirical covariance is {dev:.2f} standard errors from K"
    return None
