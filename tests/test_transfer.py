from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opkern import (
    GramMismatch,
    InternalInvariantViolation,
    NotDominated,
    NotEquivalent,
    NotInvertible,
    NotPositiveDefinite,
    OperatorKernelTable,
    ShapeError,
    SpectrumOutOfRange,
    construct_partial_isometry,
    generate_valid_system,
    identity_kernel,
    is_positive_definite,
    kolmogorov_factorize,
    radon_nikodym,
    random_pd_kernel,
    transfer_function,
    validate_system,
    verify_realization,
)
from opkern.kernels import RANK_RTOL
from opkern import transfer
from opkern.transfer import _svd
from conftest import labels, null_cone_system


ONE = np.array([[1.0]])


def scalar_system(k1, k2, l1, l2, t=1.0):
    ls = labels(1)
    mk = lambda v: OperatorKernelTable.from_flat(ls, 1, np.array([[float(v)]]))
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

    @pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6], ids=["inside", "outside"])
    def test_identity_gate_boundary(self, factor):
        # K1 - K2 - T^H (L1 - L2) T = delta exactly, against the scale ||L1|| = 1.
        delta = 1e-10 * factor
        if factor < 1:
            assert scalar_system(delta, 0, 1, 1, t=0).identity_residual == delta
            return
        with pytest.raises(NotEquivalent, match=r"relative 1\.000e-10 > 1e-10") as exc:
            scalar_system(delta, 0, 1, 1, t=0)
        assert exc.value.relative == delta

    def test_rejects_indefinite_component(self):
        ls = labels(2)
        good = identity_kernel(ls, 1)
        bad = OperatorKernelTable.from_flat(ls, 1, np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefinite, match=r"kernel l1 is not positive"):
            validate_system(good, good, bad, bad, ONE)

    @pytest.mark.parametrize("other", [identity_kernel(labels(2), 3), identity_kernel(labels(3), 2)],
                             ids=["dim_h", "labels"])
    def test_tables_of_another_shape_are_refused(self, other):
        # The identity and the domination are formed on flat Grams, which must line up.
        eye = identity_kernel(labels(2), 2)
        with pytest.raises(ShapeError):
            validate_system(eye, eye, eye, other, np.eye(2))
        with pytest.raises(ShapeError):
            radon_nikodym(other, eye)

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
        k1 = OperatorKernelTable.from_flat(labels(1), 1, np.array([[4.0 + 1e-7]]))
        sys_ = replace(sys_, k1=k1, features={**sys_.features, "k1": kolmogorov_factorize(k1)})
        with pytest.raises(GramMismatch) as exc:
            construct_partial_isometry(sys_)
        # column Grams 5 (g = [1, 2]) and 5 + 1e-7 (f = [sqrt(4 + 1e-7), 1])
        assert exc.value.relative == pytest.approx(1e-7 / (5 + 1e-7), rel=1e-6)
        assert f"{exc.value.relative:.3e}" in str(exc.value)

    @pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6], ids=["inside", "outside"])
    def test_gram_defect_boundary(self, factor):
        # Column Grams 5 and 5 + x, as above: the relative defect x / (5 + x)
        # sits at factor * 1e-9; rounding moves it by about 1e-7 of itself.
        defect = 1e-9 * factor
        k1 = OperatorKernelTable.from_flat(labels(1), 1, np.array([[4.0 + 5 * defect / (1 - defect)]]))
        sys_ = scalar_system(4, 1, 4, 1)
        sys_ = replace(sys_, k1=k1, features={**sys_.features, "k1": kolmogorov_factorize(k1)})
        if factor < 1:
            assert construct_partial_isometry(sys_).gram_defect == pytest.approx(defect, rel=1e-7)
        else:
            with pytest.raises(GramMismatch) as exc:
                construct_partial_isometry(sys_)
            assert exc.value.relative == pytest.approx(defect, rel=1e-7)


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
        k2 = OperatorKernelTable.from_flat(ls, 1, ONE)
        l1 = OperatorKernelTable.from_flat(ls, 1, ONE)
        k1 = OperatorKernelTable.from_flat(ls, 1, 2 * ONE)  # K1 = K2 + T^H L1 T with T = 1
        sys_ = validate_system(k1, k2, l1, OperatorKernelTable.from_flat(ls, 1, 0.0 * ONE), ONE)
        real = construct_partial_isometry(sys_)
        with pytest.raises(NotInvertible):
            transfer_function(real, sys_, "s1")

    @pytest.mark.parametrize("factor", [1 - 1e-6, 1.0, 1 + 1e-6], ids=["below", "equal", "above"])
    def test_rank_gate_boundary(self, factor, monkeypatch):
        # M(s)'s singular values reported as (2, 2 tol factor): the gate
        # refuses sigma_min <= tol * sigma_max, the equal case included.
        sys_ = generate_valid_system(0, 2, 2)
        real = construct_partial_isometry(sys_)
        svd = transfer._svd

        def pinned(a, rcond):
            _, basis, pinv = svd(a, rcond)
            return np.array([2.0, 2.0 * rcond * factor]), basis, pinv

        monkeypatch.setattr(transfer, "_svd", pinned)
        label = sys_.label_set.labels[0]
        if factor > 1:
            assert np.isfinite(transfer_function(real, sys_, label)).all()
        else:
            with pytest.raises(NotInvertible) as exc:
                transfer_function(real, sys_, label)
            assert (exc.value.label, exc.value.sigma_min) == (label, 2.0 * RANK_RTOL * factor)


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
        rn = radon_nikodym(OperatorKernelTable.from_flat(k.label_set, 2, np.zeros((4, 4))), k)
        np.testing.assert_allclose(rn.phi, 0, atol=1e-12)

    def test_scalar_quarter(self):
        ls = labels(1)
        rn = radon_nikodym(OperatorKernelTable.from_flat(ls, 1, ONE), OperatorKernelTable.from_flat(ls, 1, 4 * ONE))
        assert rn.phi[0, 0] == pytest.approx(0.25, abs=1e-12)
        assert rn.sqrt_phi[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_not_dominated(self):
        k = random_pd_kernel(4, 2, 2)
        with pytest.raises(NotDominated):
            radon_nikodym(OperatorKernelTable.from_flat(k.label_set, 2, 2.0 * k.flat), k)

    def test_domination_is_judged_relative_to_hi(self):
        # hi - lo = diag(-5e-9, 1e-3) fails at -1e-6 times the norm 1e-3 of hi,
        # where an absolute -1e-6 would let it pass
        ls = labels(2)
        lo = OperatorKernelTable.from_flat(ls, 1, np.diag([1e-3 + 5e-9, 0.0]))
        with pytest.raises(NotDominated, match="hi - lo is not positive") as exc:
            radon_nikodym(lo, OperatorKernelTable.from_flat(ls, 1, 1e-3 * np.eye(2)), tol=1e-6)
        assert exc.value.min_eig == pytest.approx(-5e-9, rel=1e-6)

    @staticmethod
    def derivative_with_eigenvalue(monkeypatch, lo_diag, index, value, tol):
        """``_derivative`` of ``lo = diag(lo_diag)`` under ``hi = I`` on two
        labels, with the eigh of ``Phi = lo`` reporting ``value`` as its
        eigenvalue ``index``."""
        ls = labels(2)
        hi = OperatorKernelTable.from_flat(ls, 1, np.eye(2))
        fs = kolmogorov_factorize(hi)
        eigh = np.linalg.eigh

        def reported(a):
            w, u = eigh(a)
            w = w.copy()
            w[index] = value
            return w, u

        monkeypatch.setattr(np.linalg, "eigh", reported)
        return transfer._derivative(OperatorKernelTable.from_flat(ls, 1, np.diag(lo_diag)), hi, fs, tol)

    @pytest.mark.parametrize("end", ["low", "high"])
    @pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6], ids=["inside", "outside"])
    def test_spectrum_range_boundary(self, end, factor, monkeypatch):
        # Phi = diag(0, 1), its 0 reported as -tol factor or its 1 as
        # 1 + tol factor; inside, the clamped spectrum reproduces lo.
        tol = 1e-9
        index, value = (0, -tol * factor) if end == "low" else (1, 1.0 + tol * factor)
        derive = lambda: self.derivative_with_eigenvalue(monkeypatch, [0.0, 1.0], index, value, tol)
        if factor < 1:
            assert derive().spectrum[index] == value
        else:
            with pytest.raises(SpectrumOutOfRange) as exc:
                derive()
            assert (exc.value.min_eig, exc.value.max_eig)[index] == value

    @pytest.mark.parametrize("tol", [1e-12, 1e-8], ids=["floor", "tol"])
    @pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6], ids=["inside", "outside"])
    def test_reproduction_bound_boundary(self, tol, factor, monkeypatch):
        # Phi = I / 2 with its top eigenvalue reported as 1/2 + x reproduces
        # lo with residual x against the norm 1 of hi; the bound is tol, but
        # never below 10 RANK_RTOL = 1e-9.
        x = max(tol, 1e-9) * factor
        derive = lambda: self.derivative_with_eigenvalue(monkeypatch, [0.5, 0.5], 1, 0.5 + x, tol)
        if factor < 1:
            assert derive().reproduction_residual == pytest.approx(x, rel=1e-6)
        else:
            with pytest.raises(InternalInvariantViolation, match="reproduces lo"):
                derive()

    def test_out_of_range_spectrum_carries_its_extremes(self):
        # lo = diag(-5e-9, 100) is positive to 1e-10 times its norm, and
        # hi - lo = diag(100 + 5e-9, 0) is dominated, but Phi = lo / 100 has
        # eigenvalue -5e-11, beyond a tol of 1e-12
        ls = labels(2)
        lo = OperatorKernelTable.from_flat(ls, 1, np.diag([-5e-9, 100.0]))
        with pytest.raises(SpectrumOutOfRange, match="leaves \\[0, 1\\]") as exc:
            radon_nikodym(lo, OperatorKernelTable.from_flat(ls, 1, 100.0 * np.eye(2)), tol=1e-12)
        assert exc.value.min_eig == pytest.approx(-5e-11, rel=1e-6)
        assert exc.value.max_eig == pytest.approx(1.0, abs=1e-12)

    def test_non_positive_lo_is_rejected_before_domination(self):
        # hi - lo = diag(1.5, 0.75) is dominated, but lo has eigenvalue -0.5
        ls = labels(2)
        lo = OperatorKernelTable.from_flat(ls, 1, np.diag([-0.5, 0.25]))
        with pytest.raises(NotPositiveDefinite, match="kernel l is not positive") as exc:
            radon_nikodym(lo, identity_kernel(ls, 1))
        assert exc.value.min_eig == pytest.approx(-0.5, abs=1e-12)

    def test_indefinite_hi_is_rejected_before_domination(self):
        ls = labels(2)
        indefinite = OperatorKernelTable.from_flat(ls, 1, np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefinite):
            radon_nikodym(OperatorKernelTable.from_flat(ls, 1, np.zeros((2, 2))), indefinite)

    @pytest.mark.parametrize("factor", [0.0, 0.3, 1.0])
    def test_scaling_compatibility(self, factor):
        # lo = c * hi must give phi = c * I on the dilation space
        hi = random_pd_kernel(6, 3, 2)
        rn = radon_nikodym(OperatorKernelTable.from_flat(hi.label_set, 2, factor * hi.flat), hi)
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


class TestChangeOfBasis:
    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        d=st.integers(1, 2),
        dominated=st.booleans(),
        u_seed=st.integers(0, 2**32 - 1),
    )
    def test_unitary_conjugation_keeps_every_verdict(self, seed, n, d, dominated, u_seed):
        # K(s, t) -> U^H K(s, t) U and T -> U^H T U carry the system identity
        # over exactly, so every check on the generated system and on its
        # image must hold at the pinned tolerances of criteria 3 and 4.
        sys_ = generate_valid_system(seed, n, d, dominated)
        rng = np.random.default_rng(u_seed)
        u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        moved = validate_system(
            *(OperatorKernelTable(t.label_set, u.conj().T @ t.blocks @ u) for t in sys_.tables().values()),
            u.conj().T @ sys_.t_op @ u,
        )
        reports = [verify_realization(construct_partial_isometry(s), s, tol=1e-8) for s in (sys_, moved)]
        assert {(r.dominated, r.transitive_action) for r in reports} == {(dominated, True)}, reports
        for report in reports:
            assert report.passed, report
            if dominated:
                assert report.rn_vs_transfer <= 1e-8, report
                assert -1e-9 <= report.rn_spectrum[0] and report.rn_spectrum[1] <= 1.0 + 1e-9, report


class TestNullCone:
    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(
        theta=st.floats(0.0, np.pi),
        log_delta=st.floats(-9.0, -6.0),
        w_angle=st.floats(0.0, np.pi / 2),
        w_phase=st.floats(0.0, 2 * np.pi),
    )
    def test_signed_system_near_the_null_cone_is_realized(self, theta, log_delta, w_angle, w_phase):
        # T^H (L1 - L2) T cancels to a small multiple of its terms, so its
        # rounding is not Hermitian relative to its own size; the identity is
        # judged on flat Grams at 1e-10 of the system scale, never as a table.
        w = np.array([np.cos(w_angle), np.exp(1j * w_phase) * np.sin(w_angle)])
        *flats, t_op = null_cone_system(theta, 10.0**log_delta, w)
        sys_ = validate_system(*(OperatorKernelTable.from_flat(labels(1), 2, f) for f in flats), t_op)
        assert sys_.identity_residual <= 1e-10
        report = verify_realization(construct_partial_isometry(sys_), sys_, tol=1e-8)
        assert report.passed and report.dominated, report


class TestGenerator:
    def test_deterministic(self):
        a = generate_valid_system(42, 2, 2)
        b = generate_valid_system(42, 2, 2)
        assert a.k1.blocks.tobytes() == b.k1.blocks.tobytes()
        assert np.array_equal(a.t_op, b.t_op)

    def test_dominated_flag_orders_kernels(self):
        sys_ = generate_valid_system(7, 3, 2, dominated=True)
        k2_minus_k1 = OperatorKernelTable.from_flat(sys_.label_set, 2, sys_.k2.flat - sys_.k1.flat)
        assert is_positive_definite(k2_minus_k1).pd


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
