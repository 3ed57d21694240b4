from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opkern import (
    GramMismatch,
    InternalInvariantViolation,
    InvalidKernel,
    NotDominated,
    NotEquivalent,
    NotInvertible,
    NotPositiveDefinite,
    OperatorKernelTable,
    ShapeError,
    SpectrumOutOfRange,
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
import oracles


ONE = np.array([[1.0]])


def nan_spectral_norms(monkeypatch, after=0):
    """Make every spectral norm ``np.linalg.norm(x, 2)`` after the next ``after`` read NaN."""
    norm, calls = np.linalg.norm, []

    def nan_norm(x, ord=None, *args, **kwargs):
        calls.append(ord == 2)
        return np.nan if ord == 2 and sum(calls) > after else norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", nan_norm)


def pass_gate(monkeypatch, gate):
    """Let every system past the gate of :func:`validate_system` that raises ``gate``."""
    require = transfer.require_at_most
    monkeypatch.setattr(transfer, "require_at_most", lambda value, bound, error, *args, **kwargs:
                        None if error is gate else require(value, bound, error, *args, **kwargs))


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
        # The Gram defect behind it is delta / (1 + delta), below 1e-9.
        delta = 1e-10 * factor
        if factor < 1:
            assert scalar_system(delta, 0, 1, 1).identity_residual == delta
            # With T = 0 the column G is 0 and F is not: the identity holds, the Gram gate refuses.
            with pytest.raises(GramMismatch, match=r"relative 1\.000e\+00"):
                scalar_system(delta, 0, 1, 1, t=0)
            return
        with pytest.raises(NotEquivalent, match=r"relative 1\.000e-10 > 1e-10") as exc:
            scalar_system(delta, 0, 1, 1)
        assert exc.value.relative == delta

    def test_nan_residual_is_refused(self, monkeypatch):
        # The float-range check in front of the identity refuses a NaN
        # residual as an input error.
        nan_spectral_norms(monkeypatch)
        with pytest.raises(InvalidKernel, match="system identity leaves the float range: residual nan") as exc:
            scalar_system(4, 1, 4, 1)
        assert exc.value.exit_code == 2

    @pytest.mark.parametrize("name", ["k1", "k2", "l1", "l2"])
    def test_nan_table_norm_is_refused(self, name, monkeypatch):
        # A NaN norm in any place of the scale is refused, not only in the first.
        factorize = transfer.kolmogorov_factorize

        def nan_norm(table, what):
            fs = factorize(table, what=what)
            return replace(fs, basis_eigs=np.full(1, np.nan)) if what == f"kernel {name}" else fs

        monkeypatch.setattr(transfer, "kolmogorov_factorize", nan_norm)
        with pytest.raises(InvalidKernel, match="scale nan") as exc:
            scalar_system(4, 1, 4, 1)
        assert exc.value.exit_code == 2

    def test_zero_l_side_adds_nothing_to_the_scale(self):
        # ||T||^2 overflows, but with L1 = L2 = 0 the scale is that of K1 and K2.
        assert scalar_system(1, 1, 0, 0, t=1e200).identity_residual == 0.0

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

    def test_transfer_operator_of_the_wrong_shape_is_refused(self):
        one = identity_kernel(labels(1), 1)
        with pytest.raises(ShapeError, match=r"T must be \(1, 1\), got \(2, 2\)"):
            validate_system(one, one, one, one, np.eye(2))


class TestPartialIsometry:
    def test_scalar_worked_example_forward(self):
        # rank-one map [1; 2] -> [2; 1]: W = F G^H / ||G||^2 = (1/5)[[2,4],[1,2]]
        sys_ = scalar_system(4, 1, 4, 1)
        np.testing.assert_allclose(sys_.w.real, [[0.4, 0.8], [0.2, 0.4]], atol=1e-12)
        np.testing.assert_allclose(sys_.w.imag, 0, atol=1e-14)

    @pytest.mark.parametrize("nan_at", [0, 1], ids=["g", "f"])
    def test_nan_singular_values_are_refused(self, nan_at, monkeypatch):
        # The largest singular values of G and F both make the Gram scale; a NaN in either is refused.
        svd, calls = transfer._svd, []

        def nan_once(a, rcond):
            s, basis, pinv = svd(a, rcond)
            calls.append(a)
            return (np.full_like(s, np.nan) if len(calls) == nan_at + 1 else s), basis, pinv

        monkeypatch.setattr(transfer, "_svd", nan_once)
        with pytest.raises(InvalidKernel, match=r"\(scale nan\)") as exc:
            scalar_system(4, 1, 4, 1)
        assert exc.value.exit_code == 2

    @pytest.mark.parametrize("nan_at", [0, 1], ids=["initial", "final"])
    def test_nan_defect_is_reported(self, nan_at, monkeypatch):
        # Python's max keeps a finite first defect past a NaN second one.
        sys_ = scalar_system(4, 1, 4, 1)
        norm, calls = np.linalg.norm, []

        def nan_once(x, *args, **kwargs):
            calls.append(x)
            return np.nan if len(calls) == nan_at + 1 else norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", nan_once)
        assert np.isnan(sys_.partial_isometry_defect())

    def test_scalar_worked_example_reverse(self):
        sys_ = scalar_system(1, 4, 1, 4)
        np.testing.assert_allclose(sys_.w.real, [[0.4, 0.2], [0.8, 0.4]], atol=1e-12)

    def test_identity_action_on_initial_space(self):
        k = random_pd_kernel(3, 2, 2)
        l = random_pd_kernel(4, 2, 2)
        sys_ = validate_system(k, k, l, l, np.eye(2))
        g, _ = transfer._columns(sys_.features, sys_.t_op)
        assert np.linalg.norm(sys_.w @ g - g, 2) <= 1e-10 * np.linalg.norm(g, 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_partial_isometry_law(self, seed):
        sys_ = generate_valid_system(seed, 3, 2)
        w = sys_.w
        assert np.linalg.norm(w.conj().T @ w @ w.conj().T - w.conj().T, 2) <= 1e-8
        assert sys_.partial_isometry_defect() <= 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_gram_matching_invariant(self, seed):
        sys_ = generate_valid_system(seed, 2, 3)
        assert sys_.gram_defect <= 1e-9

    def test_gram_mismatch_detected(self, monkeypatch):
        # a system violating the identity at 1e-7, let past the identity gate,
        # must be caught by the Gram gate
        pass_gate(monkeypatch, NotEquivalent)
        with pytest.raises(GramMismatch) as exc:
            scalar_system(4 + 1e-7, 1, 4, 1)
        # column Grams 5 (g = [1, 2]) and 5 + 1e-7 (f = [sqrt(4 + 1e-7), 1])
        assert exc.value.relative == pytest.approx(1e-7 / (5 + 1e-7), rel=1e-6)
        assert f"{exc.value.relative:.3e}" in str(exc.value)

    @pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6], ids=["inside", "outside"])
    def test_gram_defect_boundary(self, factor, monkeypatch):
        # Column Grams 5 and 5 + x, as above: the relative defect x / (5 + x)
        # sits at factor * 1e-9; rounding moves it by about 1e-7 of itself.
        defect = 1e-9 * factor
        k1 = 4.0 + 5 * defect / (1 - defect)
        pass_gate(monkeypatch, NotEquivalent)
        if factor < 1:
            assert scalar_system(k1, 1, 4, 1).gram_defect == pytest.approx(defect, rel=1e-7)
        else:
            with pytest.raises(GramMismatch) as exc:
                scalar_system(k1, 1, 4, 1)
            assert exc.value.relative == pytest.approx(defect, rel=1e-7)


    def test_nan_gram_defect_is_a_mismatch(self, monkeypatch):
        # The identity defect and ||T|| stay finite, so the identity passes and the Gram gate reads the NaN.
        nan_spectral_norms(monkeypatch, after=2)
        with pytest.raises(GramMismatch, match="differ by relative nan") as exc:
            scalar_system(4, 1, 4, 1)
        assert exc.value.exit_code == 1 and np.isnan(exc.value.relative)


class TestTransferFunction:
    def test_scalar_value_forward(self):
        sys_ = scalar_system(4, 1, 4, 1)
        t12 = transfer_function(sys_, "s1")
        assert t12[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_scalar_value_reverse(self):
        sys_ = scalar_system(1, 4, 1, 4)
        t12 = transfer_function(sys_, "s1")
        assert t12[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_rank_deficient_system_is_not_invertible(self):
        # K(s, s) = diag(1, 0) makes M(s) lose column rank
        ls = labels(1)
        k = OperatorKernelTable(ls, np.diag([1.0, 0.0]).reshape(1, 1, 2, 2))
        l = identity_kernel(ls, 2)
        sys_ = validate_system(k, k, l, l, np.eye(2))
        with pytest.raises(NotInvertible) as exc:
            transfer_function(sys_, "s1")
        assert exc.value.label == "s1"

    def test_zero_l2_has_no_transfer_function(self):
        # with L2 = 0 the matrix M(s) has no rows at all
        ls = labels(1)
        k2 = OperatorKernelTable.from_flat(ls, 1, ONE)
        l1 = OperatorKernelTable.from_flat(ls, 1, ONE)
        k1 = OperatorKernelTable.from_flat(ls, 1, 2 * ONE)  # K1 = K2 + T^H L1 T with T = 1
        sys_ = validate_system(k1, k2, l1, OperatorKernelTable.from_flat(ls, 1, 0.0 * ONE), ONE)
        with pytest.raises(NotInvertible):
            transfer_function(sys_, "s1")

    @pytest.mark.parametrize("factor", [1 - 1e-6, 1.0, 1 + 1e-6], ids=["below", "equal", "above"])
    def test_rank_gate_boundary(self, factor, monkeypatch):
        # M(s)'s singular values reported as (2, 2 tol factor): the gate
        # refuses sigma_min <= tol * sigma_max, the equal case included.
        sys_ = generate_valid_system(0, 2, 2)
        svd = transfer._svd

        def pinned(a, rcond):
            _, basis, pinv = svd(a, rcond)
            return np.array([2.0, 2.0 * rcond * factor]), basis, pinv

        monkeypatch.setattr(transfer, "_svd", pinned)
        label = sys_.label_set.labels[0]
        if factor > 1:
            assert np.isfinite(transfer_function(sys_, label)).all()
        else:
            with pytest.raises(NotInvertible) as exc:
                transfer_function(sys_, label)
            assert (exc.value.label, exc.value.sigma_min) == (label, 2.0 * RANK_RTOL * factor)


    def test_nan_singular_values_fail_the_rank_condition(self, monkeypatch):
        sys_ = generate_valid_system(0, 2, 2)
        svd = transfer._svd
        monkeypatch.setattr(transfer, "_svd", lambda a, rcond: (np.full(2, np.nan), *svd(a, rcond)[1:]))
        label = sys_.label_set.labels[0]
        with pytest.raises(NotInvertible, match="sigma_min nan, sigma_max nan") as exc:
            transfer_function(sys_, label)
        assert exc.value.exit_code == 3 and exc.value.label == label and np.isnan(exc.value.sigma_min)


class TestVerifyRealization:
    @pytest.mark.parametrize("excess,dominated", [(5e-9, False), (5e-10, True)], ids=["5e-9", "5e-10"])
    def test_domination_is_decided_at_1e_9(self, excess, dominated):
        # K2 = I and K1 = K2 + excess e e^H, with L1 = K1, L2 = K2 and T = I, so
        # lambda_max(K1 - K2) is excess * ||K2||.  The derivative's domination gate
        # runs at 1e-9 relative: 5e-9 leaves the system free, 5e-10 dominated, and
        # neither raises.
        e = np.random.default_rng(0).standard_normal(4) + 1j * np.random.default_rng(1).standard_normal(4)
        e /= np.linalg.norm(e)
        k2 = np.eye(4, dtype=np.complex128)
        k1 = k2 + excess * np.outer(e, e.conj())
        k1, k2 = (OperatorKernelTable.from_flat(labels(2), 2, 0.5 * (g + g.conj().T)) for g in (k1, k2))
        sys_ = validate_system(k1, k2, k1, k2, np.eye(2))
        report = verify_realization(sys_)
        assert report.dominated is dominated and report.passed
        assert (report.rn_spectrum is None) is not dominated

    def test_scalar_example_identities(self):
        sys_ = scalar_system(4, 1, 4, 1)
        report = verify_realization(sys_)
        assert report.passed
        assert report.feature_map_residual <= 1e-12
        assert report.kernel_reconstruction_residual <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_systems_within_tolerance(self, seed):
        sys_ = generate_valid_system(seed, 3, 2)
        report = verify_realization(sys_, tol=1e-8)
        assert report.passed, report

    @pytest.mark.parametrize("dominated", [True, False], ids=["dominated", "free"])
    def test_matches_the_label_by_label_residuals(self, dominated):
        # W perturbed by 1e-3 moves T12 off the realization, so every residual
        # is far above rounding and a transposed or mis-cut block shows.
        sys_ = generate_valid_system(5, 3, 2, dominated=dominated)
        w = sys_.w + 1e-3 * np.random.default_rng(0).standard_normal(sys_.w.shape)
        r1 = sys_.features["k1"].dilation_dim
        sys_ = replace(sys_, w=w)
        fs_k1, fs_k2 = sys_.features["k1"], sys_.features["k2"]
        t12 = [transfer_function(sys_, s) for s in sys_.label_set.labels]
        sqrt_phi = radon_nikodym(sys_.k1, sys_.k2).sqrt_phi if dominated else None
        feature, recon, rank, rn = oracles.realization_residuals_by_label(
            sys_.k1.blocks, fs_k1.stacked, fs_k2.stacked, t12, sqrt_phi)
        report = verify_realization(sys_)
        assert min(feature, recon) > 1e-6 * fs_k1.norm and report.transitive_action == (rank == r1)
        assert report.feature_map_residual == pytest.approx(feature / np.sqrt(fs_k1.norm), rel=1e-10)
        assert report.kernel_reconstruction_residual == pytest.approx(recon / fs_k1.norm, rel=1e-10)
        if dominated:
            assert rn > 1e-6 * np.sqrt(fs_k2.norm)
            assert report.rn_vs_transfer == pytest.approx(rn / np.sqrt(fs_k2.norm), rel=1e-10)
        else:
            assert report.rn_vs_transfer is None

    def test_not_invertible_propagates(self):
        ls = labels(1)
        k = OperatorKernelTable(ls, np.diag([1.0, 0.0]).reshape(1, 1, 2, 2))
        l = identity_kernel(ls, 2)
        sys_ = validate_system(k, k, l, l, np.eye(2))
        with pytest.raises(NotInvertible):
            verify_realization(sys_)

    def test_verdict_at_the_largest_residual(self):
        # tol equal to the largest of the four residuals passes; one ulp below fails.
        sys_ = generate_valid_system(1, 2, 2)
        report = verify_realization(sys_)
        assert report.transitive_action and report.rn_vs_transfer is None
        top = max(report.feature_map_residual, report.kernel_reconstruction_residual,
                  report.intertwining_residual, report.partial_isometry_defect)
        assert verify_realization(sys_, tol=top).passed
        assert not verify_realization(sys_, tol=np.nextafter(top, 0.0)).passed

    def test_verdict_at_rn_vs_transfer(self, monkeypatch):
        # sqrt(Phi) scaled by 1e6 lifts rn_vs_transfer far above every residual,
        # so it alone decides at tol equal to it and one ulp below.
        sys_ = generate_valid_system(1, 2, 2, dominated=True)
        derivative = transfer._derivative

        def scaled(*args):
            rn = derivative(*args)
            return replace(rn, sqrt_phi=1e6 * rn.sqrt_phi)

        monkeypatch.setattr(transfer, "_derivative", scaled)
        report = verify_realization(sys_)
        assert report.transitive_action
        rn = report.rn_vs_transfer
        assert rn > 1e3 * max(report.feature_map_residual, report.kernel_reconstruction_residual,
                              report.intertwining_residual, report.partial_isometry_defect)
        assert verify_realization(sys_, tol=rn).passed
        assert not verify_realization(sys_, tol=np.nextafter(rn, 0.0)).passed


class TestTransitiveAction:
    @pytest.mark.parametrize("args", [(4, 1, 4, 1), (1, 4, 1, 4)])
    def test_scalar_systems(self, args):
        sys_ = scalar_system(*args)
        assert verify_realization(sys_).transitive_action is True

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_systems(self, seed):
        sys_ = generate_valid_system(seed, 2, 2)
        assert verify_realization(sys_).transitive_action is True

    def test_rank_deficient_image_fails(self):
        # A = B = 0 makes T12 vanish, so the image vectors span nothing
        sys_ = generate_valid_system(0, 2, 2)
        w = sys_.w.copy()
        w[: sys_.features["k1"].dilation_dim] = 0  # the rows of A and B
        assert verify_realization(replace(sys_, w=w)).transitive_action is False


class TestRadonNikodym:
    def test_equal_kernels_give_identity(self):
        k = random_pd_kernel(2, 2, 2)
        rn = radon_nikodym(k, k)
        r = rn.dilation_dim
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
            assert derive().rn_spectrum[index] == value
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

    @pytest.mark.parametrize("index", [0, 1], ids=["low", "high"])
    def test_nan_spectrum_is_out_of_range(self, index, monkeypatch):
        with pytest.raises(SpectrumOutOfRange, match="leaves \\[0, 1\\]") as exc:
            self.derivative_with_eigenvalue(monkeypatch, [0.0, 1.0], index, np.nan, 1e-9)
        assert exc.value.exit_code == 1
        assert np.isnan((exc.value.min_eig, exc.value.max_eig)[index])

    def test_nan_reproduction_residual_fails(self, monkeypatch):
        ls = labels(2)
        hi = OperatorKernelTable.from_flat(ls, 1, np.eye(2))
        fs = kolmogorov_factorize(hi)
        nan_spectral_norms(monkeypatch)
        with pytest.raises(InternalInvariantViolation, match="relative residual nan") as exc:
            transfer._derivative(OperatorKernelTable.from_flat(ls, 1, 0.5 * np.eye(2)), hi, fs, 1e-9)
        assert exc.value.exit_code == 1 and np.isnan(exc.value.relative)

    @pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6], ids=["inside", "outside"])
    def test_domination_gate_boundary(self, factor, monkeypatch):
        # hi = 2 I, lo = I on two labels, with the eigvalsh of hi - lo
        # reporting its smallest eigenvalue as -tol factor times the norm 2 of hi.
        tol, ls = 1e-9, labels(2)
        hi = OperatorKernelTable.from_flat(ls, 1, 2.0 * np.eye(2))
        fs = kolmogorov_factorize(hi)
        value = -tol * 2.0 * factor
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array([value, 1.0]))
        derive = lambda: transfer._derivative(OperatorKernelTable.from_flat(ls, 1, np.eye(2)), hi, fs, tol)
        if factor < 1:
            assert derive().rn_spectrum == pytest.approx((0.5, 0.5), abs=1e-15)
        else:
            with pytest.raises(NotDominated, match=r"hi - lo is not positive .* < -1e-09 \* 2\.000e\+00") as exc:
                derive()
            assert exc.value.min_eig == value and exc.value.exit_code == 3

    def test_nan_spectrum_of_l_is_not_positive(self, monkeypatch):
        # rn's gate on l reads eigvalsh after k's factorization.
        ls = labels(2)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(a.shape[0], np.nan))
        with pytest.raises(NotPositiveDefinite, match="kernel l is not positive") as exc:
            radon_nikodym(identity_kernel(ls, 1), OperatorKernelTable.from_flat(ls, 1, 2.0 * np.eye(2)))
        assert exc.value.exit_code == 3 and np.isnan(exc.value.min_eig)

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
        r = rn.dilation_dim
        np.testing.assert_allclose(rn.phi, factor * np.eye(r), atol=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_spectrum_sandwich(self, seed):
        sys_ = generate_valid_system(seed, 2, 2, dominated=True)
        rn = radon_nikodym(sys_.k1, sys_.k2)
        assert rn.rn_spectrum[0] >= -1e-9
        assert rn.rn_spectrum[1] <= 1.0 + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_reproduces_numerator_blockwise(self, seed):
        sys_ = generate_valid_system(seed, 3, 2, dominated=True)
        rn = radon_nikodym(sys_.k1, sys_.k2)
        fs = kolmogorov_factorize(sys_.k2)
        scale = is_positive_definite(sys_.k2).scale
        for s in sys_.label_set.labels:
            for t in sys_.label_set.labels:
                got = fs.operator(s).conj().T @ rn.phi @ fs.operator(t)
                assert np.linalg.norm(got - sys_.k1.block(s, t), 2) <= 1e-9 * scale


class TestRnTransferIdentity:
    def test_scalar_system_agreement(self):
        sys_ = scalar_system(1, 4, 1, 4)
        report = verify_realization(sys_)
        assert report.rn_vs_transfer <= 1e-8
        assert report.rn_vs_transfer <= 1e-12
        # in the one-dimensional case both operators are directly comparable
        rn = radon_nikodym(sys_.k1, sys_.k2)
        t12 = transfer_function(sys_, "s1")
        assert rn.sqrt_phi[0, 0] == pytest.approx(t12[0, 0], abs=1e-12)

    def test_not_dominated_system_is_rejected(self):
        sys_ = scalar_system(4, 1, 4, 1)  # K1 = 4 > 1 = K2
        report = verify_realization(sys_)
        assert report.dominated is False and report.rn_vs_transfer is None

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_dominated_systems(self, seed):
        sys_ = generate_valid_system(100 + seed, 2, 2, dominated=True)
        report = verify_realization(sys_, tol=1e-8)
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
        reports = [verify_realization(s, tol=1e-8) for s in (sys_, moved)]
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
        report = verify_realization(sys_, tol=1e-8)
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

    def test_a_draw_that_fails_the_rank_condition_is_rejected(self, monkeypatch):
        # The first draw is refused at its first label; the second passes at both.
        first = generate_valid_system(3, 2, 1)
        original, calls = transfer.transfer_function, []

        def refuse_first(sys_, s, tol=RANK_RTOL):
            calls.append(s)
            if len(calls) == 1:
                raise NotInvertible(f"rank condition fails at label {s!r}", label=s)
            return original(sys_, s, tol)

        monkeypatch.setattr(transfer, "transfer_function", refuse_first)
        second = generate_valid_system(3, 2, 1)
        assert calls == ["s1", "s1", "s2"]
        assert second.k2.blocks.tobytes() != first.k2.blocks.tobytes()

    def test_exhausted_draws_raise(self, monkeypatch):
        def refuse(sys_, s, tol=RANK_RTOL):
            raise NotInvertible(f"rank condition fails at label {s!r}", label=s)

        monkeypatch.setattr(transfer, "transfer_function", refuse)
        with pytest.raises(InternalInvariantViolation, match=r"^no admissible system found in 100 draws \(seed 3\)$"):
            generate_valid_system(3, 1, 1)


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
