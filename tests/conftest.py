import numpy as np
import pytest

from opkern import LabelSet, OperatorKernelTable, draw_paths, gaussian, identity_kernel, kolmogorov_factorize


def labels(n):
    return LabelSet.of(f"s{i + 1}" for i in range(n))


def sample_paths(table, seed, count):
    """Paths ``0 .. count - 1`` of the process whose covariance is ``table``."""
    return draw_paths(kolmogorov_factorize(table), seed, 0, count)


def scalar_table(values):
    values = np.asarray(values, dtype=np.complex128)
    return OperatorKernelTable.from_flat(labels(values.shape[0]), 1, values)


def equal_conditional_instance(rng, n, d):
    """(k1, k2, l1, l2, coupling) with equal conditional covariances."""
    nd = n * d
    ls = labels(n)

    def rand_pd(ridge):
        g = rng.standard_normal((nd, nd)) + 1j * rng.standard_normal((nd, nd))
        return g.conj().T @ g + ridge * np.eye(nd)

    k1_flat = rand_pd(1.0)
    l1_flat = rand_pd(0.5)
    l2_flat = l1_flat + rand_pd(0.0)
    t_gram = rng.standard_normal((nd, nd)) + 1j * rng.standard_normal((nd, nd))
    gap = np.linalg.inv(l1_flat) - np.linalg.inv(l2_flat)
    bump = t_gram @ gap @ t_gram.conj().T
    bump = 0.5 * (bump + bump.conj().T)
    lam_max = float(np.linalg.eigvalsh(bump)[-1])
    lam_min_k1 = float(np.linalg.eigvalsh(k1_flat)[0])
    scale = np.sqrt(0.5 * lam_min_k1 / max(lam_max, 1e-300))
    t_gram *= scale
    k2_flat = k1_flat - scale**2 * bump

    blockize = lambda flat: OperatorKernelTable.from_flat(ls, d, flat)
    coupling = t_gram.reshape(n, d, n, d).transpose(0, 2, 1, 3)
    return blockize(k1_flat), blockize(k2_flat), blockize(l1_flat), blockize(l2_flat), coupling


def null_cone_system(theta, delta, w):
    """Flat K1, K2, L1, L2 and T of a valid system over one label in C^2
    whose T maps near the null cone of the indefinite L1 - L2:
    ``T = 1e3 q (1, 1 + delta)^T w^H`` with ``q^H (L1 - L2) q = diag(1, -1)``,
    ``K2 = 10 I`` and ``K1 = K2 + H(T^H (L1 - L2) T)``, ``H(X) = (X + X^H) / 2``.
    The congruence cancels to ``-(2 delta + delta^2) 1e6 w w^H``, so its
    rounding is far from Hermitian relative to its own size."""
    herm = lambda x: 0.5 * (x + x.conj().T)
    c, s = np.cos(theta), 1j * np.sin(theta)
    q = np.array([[c, s], [s, c]])
    l1 = herm(q @ np.diag([2.0, 1.0]) @ q.conj().T)
    l2 = herm(q @ np.diag([1.0, 2.0]) @ q.conj().T)
    t_op = 1e3 * np.outer(q @ np.array([1.0, 1.0 + delta]), np.conj(w))
    k2 = 10.0 * np.eye(2)
    return k2 + herm(t_op.conj().T @ (l1 - l2) @ t_op), k2, l1, l2, t_op


@pytest.fixture
def two_labels():
    return labels(2)


@pytest.fixture
def identity_22(two_labels):
    """n = 2, d = 2 identity kernel."""
    return identity_kernel(two_labels, 2)


@pytest.fixture
def constant_one(two_labels):
    """n = 2, d = 1 kernel that is 1 everywhere."""
    return OperatorKernelTable.from_flat(two_labels, 1, np.ones((2, 2)))


@pytest.fixture
def blas_threads():
    """``set(count)`` of numpy's OpenBLAS thread count, through
    ``gaussian._openblas()``.  On exit the count found is restored and the
    pool stopped, as ``gaussian._one_blas_thread`` leaves it, so that no pool
    spins into the next test.  Where there is no handle, ``set`` does
    nothing and BLAS runs at its default count."""
    blas = gaussian._openblas()
    if blas is None:
        yield lambda count: None
        return
    get, put, shutdown = blas
    threads = get()
    try:
        yield put
    finally:
        put(threads)
        shutdown()
