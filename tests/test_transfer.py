from dataclasses import replace

import numpy as np
import pytest

from opkern import (
    GramMismatch,
    NotDominated,
    NotEquivalent,
    NotInvertible,
    NotPositiveDefinite,
    OperatorKernelTable,
    construct_partial_isometry,
    generate_valid_system,
    identity_kernel,
    is_positive_definite,
    kolmogorov_factorize,
    radon_nikodym,
    random_pd_kernel,
    scalar_kernel,
    transfer_function,
    validate_system,
    verify_realization,
    zero_kernel,
)
from opkern.kernels import RANK_RTOL
from opkern.transfer import _svd
from conftest import labels


ONE = np.array([[1.0]])


def scalar_system(k1, k2, l1, l2, t=1.0):
    ls = labels(1)
    mk = lambda v: scalar_kernel(ls, np.array([[float(v)]]))
    return validate_system(mk(k1), mk(k2), mk(l1), mk(l2), np.array([[float(t)]]))


class TestValidateSystem:
    def test_equal_pairs_always_valid(self):
        k = random_pd_kernel(1, 2, 2)
        l = random_pd_kernel(2, 2, 2)
        t = np.array([[0.3, 0.1], [0.0, 0.7]])
        sys_ = validate_system(k, k, l, l, t)
        assert sys_.identity_residual <= 1e-12

    def test_scalar_arithmetic_case(self):
        sys_ = scalar_system(4, 1, 4, 1)
        assert sys_.identity_residual <= 1e-15

    def test_violation_carries_absolute_residual(self):
        with pytest.raises(NotEquivalent) as exc:
            scalar_system(4, 1, 1, 1)
        assert exc.value.residual == pytest.approx(3.0)

    def test_rejects_indefinite_component(self):
        ls = labels(2)
        good = identity_kernel(ls, 1)
        bad = scalar_kernel(ls, np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefinite, match=r"kernel l1 is not positive"):
            validate_system(good, good, bad, bad, ONE)

    def test_symmetric_and_reflexive(self):
        sys_ = scalar_system(4, 1, 4, 1)
        swapped = validate_system(sys_.k2, sys_.k1, sys_.l2, sys_.l1, sys_.t_op)
        assert swapped.identity_residual <= 1e-15
        arbitrary = random_pd_kernel(5, 1, 1)
        reflexive = validate_system(sys_.k1, sys_.k1, arbitrary, arbitrary, ONE)
        assert reflexive.identity_residual <= 1e-15


class TestPartialIsometry:
    def test_scalar_worked_example_forward(self):
        # rank-one map [1; 2] -> [2; 1]: W = F G^H / ||G||^2 = (1/5)[[2,4],[1,2]]
        real = construct_partial_isometry(scalar_system(4, 1, 4, 1))
        np.testing.assert_allclose(real.w.real, [[0.4, 0.8], [0.2, 0.4]], atol=1e-12)
        np.testing.assert_allclose(real.w.imag, 0, atol=1e-14)

    def test_scalar_worked_example_reverse(self):
        real = construct_partial_isometry(scalar_system(1, 4, 1, 4))
        np.testing.assert_allclose(real.w.real, [[0.4, 0.2], [0.8, 0.4]], atol=1e-12)

    def test_identity_action_on_initial_space(self):
        k = random_pd_kernel(3, 2, 2)
        l = random_pd_kernel(4, 2, 2)
        sys_ = validate_system(k, k, l, l, np.eye(2))
        real = construct_partial_isometry(sys_)
        g = real.g_columns
        assert np.linalg.norm(real.w @ g - g, 2) <= 1e-10 * np.linalg.norm(g, 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_partial_isometry_law(self, seed):
        sys_ = generate_valid_system(seed, 3, 2)
        real = construct_partial_isometry(sys_)
        w = real.w
        assert np.linalg.norm(w.conj().T @ w @ w.conj().T - w.conj().T, 2) <= 1e-8
        assert real.partial_isometry_defect() <= 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_gram_matching_invariant(self, seed):
        real = construct_partial_isometry(generate_valid_system(seed, 2, 3))
        assert real.gram_defect <= 1e-9

    def test_gram_mismatch_detected(self):
        # a system violating the identity at 1e-7, slipped past validation by
        # swapping in the factorization of a perturbed K1, must be caught by
        # the Gram gate
        sys_ = scalar_system(4, 1, 4, 1)
        k1 = scalar_kernel(labels(1), np.array([[4.0 + 1e-7]]))
        sys_ = replace(sys_, k1=k1, features={**sys_.features, "k1": kolmogorov_factorize(k1)})
        with pytest.raises(GramMismatch):
            construct_partial_isometry(sys_)


class TestTransferFunction:
    def test_scalar_value_forward(self):
        sys_ = scalar_system(4, 1, 4, 1)
        real = construct_partial_isometry(sys_)
        t12 = transfer_function(real, sys_, "s1")
        assert t12[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_scalar_value_reverse(self):
        sys_ = scalar_system(1, 4, 1, 4)
        real = construct_partial_isometry(sys_)
        t12 = transfer_function(real, sys_, "s1")
        assert t12[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_rank_deficient_system_is_not_invertible(self):
        # K(s, s) = diag(1, 0) makes M(s) lose column rank
        ls = labels(1)
        k = OperatorKernelTable(ls, np.diag([1.0, 0.0]).reshape(1, 1, 2, 2))
        l = identity_kernel(ls, 2)
        sys_ = validate_system(k, k, l, l, np.eye(2))
        real = construct_partial_isometry(sys_)
        with pytest.raises(NotInvertible) as exc:
            transfer_function(real, sys_, "s1")
        assert exc.value.label == "s1"

    def test_zero_l2_has_no_transfer_function(self):
        # with L2 = 0 the matrix M(s) has no rows at all
        ls = labels(1)
        k2 = scalar_kernel(ls, ONE)
        l1 = scalar_kernel(ls, ONE)
        k1 = scalar_kernel(ls, 2 * ONE)  # K1 = K2 + T^H L1 T with T = 1
        sys_ = validate_system(k1, k2, l1, zero_kernel(ls, 1), ONE)
        real = construct_partial_isometry(sys_)
        with pytest.raises(NotInvertible):
            transfer_function(real, sys_, "s1")


class TestVerifyRealization:
    def test_scalar_example_identities(self):
        sys_ = scalar_system(4, 1, 4, 1)
        real = construct_partial_isometry(sys_)
        report = verify_realization(real, sys_)
        assert report.passed
        assert report.feature_map_residual <= 1e-12
        assert report.reconstruction_residual <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_systems_within_tolerance(self, seed):
        sys_ = generate_valid_system(seed, 3, 2)
        real = construct_partial_isometry(sys_)
        report = verify_realization(real, sys_, tol=1e-8)
        assert report.passed, report

    def test_not_invertible_propagates(self):
        ls = labels(1)
        k = OperatorKernelTable(ls, np.diag([1.0, 0.0]).reshape(1, 1, 2, 2))
        l = identity_kernel(ls, 2)
        sys_ = validate_system(k, k, l, l, np.eye(2))
        real = construct_partial_isometry(sys_)
        with pytest.raises(NotInvertible):
            verify_realization(real, sys_)


class TestTransitiveAction:
    @pytest.mark.parametrize("args", [(4, 1, 4, 1), (1, 4, 1, 4)])
    def test_scalar_systems(self, args):
        sys_ = scalar_system(*args)
        real = construct_partial_isometry(sys_)
        assert verify_realization(real, sys_).transitive_action is True

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_systems(self, seed):
        sys_ = generate_valid_system(seed, 2, 2)
        real = construct_partial_isometry(sys_)
        assert verify_realization(real, sys_).transitive_action is True

    def test_rank_deficient_image_fails(self):
        # A = B = 0 makes T12 vanish, so the image vectors span nothing
        sys_ = generate_valid_system(0, 2, 2)
        real = construct_partial_isometry(sys_)
        assert verify_realization(replace(real, a=0 * real.a, b=0 * real.b), sys_).transitive_action is False


class TestRadonNikodym:
    def test_equal_kernels_give_identity(self):
        k = random_pd_kernel(2, 2, 2)
        rn = radon_nikodym(k, k)
        r = rn.feature_system.dilation_dim
        np.testing.assert_allclose(rn.phi, np.eye(r), atol=1e-10)

    def test_zero_numerator_gives_zero(self):
        k = random_pd_kernel(3, 2, 2)
        rn = radon_nikodym(zero_kernel(k.label_set, 2), k)
        np.testing.assert_allclose(rn.phi, 0, atol=1e-12)

    def test_scalar_quarter(self):
        ls = labels(1)
        rn = radon_nikodym(scalar_kernel(ls, ONE), scalar_kernel(ls, 4 * ONE))
        assert rn.phi[0, 0] == pytest.approx(0.25, abs=1e-12)
        assert rn.sqrt_phi[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_not_dominated(self):
        k = random_pd_kernel(4, 2, 2)
        with pytest.raises(NotDominated):
            radon_nikodym(2.0 * k, k)

    def test_domination_is_judged_relative_to_hi(self):
        # hi - lo = diag(101, -5e-9) passes at -1e-9 times its own norm 101,
        # which would let the derivative fail as SpectrumOutOfRange instead
        ls = labels(2)
        lo = scalar_kernel(ls, np.diag([-100.0, 1.0 + 5e-9]))
        with pytest.raises(NotDominated, match="hi - lo is not positive") as exc:
            radon_nikodym(lo, identity_kernel(ls, 1))
        assert exc.value.min_eig == pytest.approx(-5e-9, rel=1e-6)

    def test_indefinite_hi_is_rejected_before_domination(self):
        ls = labels(2)
        indefinite = scalar_kernel(ls, np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefinite):
            radon_nikodym(zero_kernel(ls, 1), indefinite)

    @pytest.mark.parametrize("factor", [0.0, 0.3, 1.0])
    def test_scaling_compatibility(self, factor):
        # lo = c * hi must give phi = c * I on the dilation space
        hi = random_pd_kernel(6, 3, 2)
        rn = radon_nikodym(factor * hi, hi)
        r = rn.feature_system.dilation_dim
        np.testing.assert_allclose(rn.phi, factor * np.eye(r), atol=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_spectrum_sandwich(self, seed):
        sys_ = generate_valid_system(seed, 2, 2, dominated=True)
        rn = radon_nikodym(sys_.k1, sys_.k2)
        assert rn.spectrum[0] >= -1e-9
        assert rn.spectrum[1] <= 1.0 + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_reproduces_numerator_blockwise(self, seed):
        sys_ = generate_valid_system(seed, 3, 2, dominated=True)
        rn = radon_nikodym(sys_.k1, sys_.k2)
        fs = rn.feature_system
        scale = is_positive_definite(sys_.k2).scale
        for s in sys_.label_set.labels:
            for t in sys_.label_set.labels:
                got = fs.operator(s).conj().T @ rn.phi @ fs.operator(t)
                assert np.linalg.norm(got - sys_.k1.block(s, t), 2) <= 1e-9 * scale


class TestRnTransferIdentity:
    def test_scalar_system_agreement(self):
        sys_ = scalar_system(1, 4, 1, 4)
        report = verify_realization(construct_partial_isometry(sys_), sys_)
        assert report.rn_vs_transfer <= 1e-8
        assert report.rn_vs_transfer <= 1e-12
        # in the one-dimensional case both operators are directly comparable
        rn = radon_nikodym(sys_.k1, sys_.k2)
        real = construct_partial_isometry(sys_)
        t12 = transfer_function(real, sys_, "s1")
        assert rn.sqrt_phi[0, 0] == pytest.approx(t12[0, 0], abs=1e-12)

    def test_not_dominated_system_is_rejected(self):
        sys_ = scalar_system(4, 1, 4, 1)  # K1 = 4 > 1 = K2
        report = verify_realization(construct_partial_isometry(sys_), sys_)
        assert report.dominated is False and report.rn_vs_transfer is None

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_dominated_systems(self, seed):
        sys_ = generate_valid_system(100 + seed, 2, 2, dominated=True)
        report = verify_realization(construct_partial_isometry(sys_), sys_, tol=1e-8)
        assert report.rn_vs_transfer <= 1e-8, report


class TestGenerator:
    def test_deterministic(self):
        a = generate_valid_system(42, 2, 2)
        b = generate_valid_system(42, 2, 2)
        assert a.k1.blocks.tobytes() == b.k1.blocks.tobytes()
        assert np.array_equal(a.t_op, b.t_op)

    def test_dominated_flag_orders_kernels(self):
        from opkern import kernel_leq

        sys_ = generate_valid_system(7, 3, 2, dominated=True)
        assert kernel_leq(sys_.k1, sys_.k2)


def orthonormal_range(matrix, tol):
    """The range basis from the SVD of ``matrix`` itself (reference for ``_svd``)."""
    if matrix.size == 0:
        return np.zeros((matrix.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    keep = s > tol * (s[0] if s.size else 0.0)
    return u[:, keep]


def complex_matrix(rng, rows, cols, rank=None):
    def gaussian(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if rank is None:
        return gaussian((rows, cols))
    return gaussian((rows, rank)) @ gaussian((rank, cols))


class TestOneSvd:
    SHAPES = [(4, 4), (7, 3), (3, 7), (5, 12), (12, 5), (0, 4), (4, 0)]

    @pytest.mark.parametrize("rows,cols", SHAPES)
    @pytest.mark.parametrize("rank", [None, 1, 2])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_pinv_and_range_basis(self, rows, cols, rank, seed):
        a = complex_matrix(np.random.default_rng(seed), rows, cols, rank if min(rows, cols) else None)
        s, basis, pinv = _svd(a, RANK_RTOL)
        expected = np.linalg.pinv(a, rcond=RANK_RTOL)
        assert pinv.shape == expected.shape
        assert pinv.tobytes() == expected.tobytes()
        # Conjugation may flip the sign of an exact zero, so compare values.
        reference = orthonormal_range(a, RANK_RTOL)
        assert basis.shape == reference.shape
        assert np.array_equal(basis, reference)
        assert s.shape == (min(rows, cols),)
        if rank is not None and min(rows, cols) > rank:
            assert basis.shape[1] == rank
