import numpy as np
import pytest

from opkern import LabelSet, draw_paths, identity_kernel, kolmogorov_factorize, scalar_kernel


def labels(n):
    return LabelSet.of(f"s{i + 1}" for i in range(n))


def sample_paths(table, seed, count):
    """Paths ``0 .. count - 1`` of the process whose covariance is ``table``."""
    return draw_paths(kolmogorov_factorize(table), seed, 0, count)


def scalar_table(values):
    values = np.asarray(values, dtype=np.complex128)
    return scalar_kernel(labels(values.shape[0]), values)


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
    return scalar_kernel(two_labels, np.ones((2, 2)))
