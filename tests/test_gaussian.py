import contextlib
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opkern
from opkern import gaussian

from opkern import (
    InvalidKernel,
    NotPositiveDefinite,
    OperatorKernelTable,
    PathBatch,
    ShapeError,
    SingularL,
    assemble_joint,
    condition,
    conditional_cov_equal,
    draw_paths,
    identity_kernel,
    is_positive_definite,
    kolmogorov_factorize,
    mc_verify_conditional,
    random_pd_kernel,
    standard_normal_rows,
)
from conftest import equal_conditional_instance, labels, sample_paths
import oracles


ONE_LABEL = labels(1)


def scalar_one():
    return OperatorKernelTable.from_flat(ONE_LABEL, 1, np.array([[1.0]]))


def scalar_coupling(value):
    return np.full((1, 1, 1, 1), value, dtype=complex)


def joint_parts(joint, seed, count):
    """K- and L-coordinates of joint samples ``0 .. count - 1``, split at d
    as ``mc-verify`` splits them."""
    paths, d = draw_paths(joint.features, seed, 0, count).paths, joint.dim_h
    return paths[:, :, :d], paths[:, :, d:]


def block_joint_instance(seed, n=2, d=2):
    """Admissible (K, L, coupling) extracted from one big positive table on H+H."""
    big = random_pd_kernel(seed, n, 2 * d)
    blocks = big.blocks
    k = OperatorKernelTable(big.label_set, blocks[:, :, :d, :d])
    l = OperatorKernelTable(big.label_set, blocks[:, :, d:, d:])
    return k, l, blocks[:, :, :d, d:]


class TestNormalStream:
    def test_rows_depend_only_on_index(self):
        full = standard_normal_rows(9, 0, 10, 6)
        np.testing.assert_array_equal(standard_normal_rows(9, 4, 1, 6)[0], full[4])
        np.testing.assert_array_equal(standard_normal_rows(9, 5, 5, 6), full[5:])

    def test_seeds_give_distinct_streams(self):
        assert not np.array_equal(
            standard_normal_rows(1, 0, 4, 4), standard_normal_rows(2, 0, 4, 4)
        )

    @pytest.mark.parametrize("seed", [2**64 + 5, -(2**64) + 5, -1])
    def test_seed_outside_the_philox_keys_is_refused(self, seed):
        # Folded into 64 bits, the first two would draw the rows of seed 5.
        with pytest.raises(ValueError, match="Philox key space"):
            standard_normal_rows(seed, 0, 3, 4)

    def test_reference_values_are_frozen(self):
        # regression pin for the documented Philox + inverse-CDF transform
        row = standard_normal_rows(42, 0, 1, 2)[0]
        np.testing.assert_allclose(row, [0.9161204856345226, -0.8806796243156723], rtol=1e-13)

    def test_negative_count_is_refused(self):
        with pytest.raises(ValueError, match="count must be nonnegative"):
            standard_normal_rows(1, 0, -1, 4)


class TestSampler:
    def test_bit_identical_for_fixed_seed(self):
        table = scalar_one()
        a = sample_paths(table, 42, 5)
        b = sample_paths(table, 42, 5)
        assert a.paths.tobytes() == b.paths.tobytes()

    def test_negative_start_is_rejected(self):
        fs = kolmogorov_factorize(random_pd_kernel(5, 2, 3))
        with pytest.raises(ValueError):
            draw_paths(fs, 11, -1, 1)
        with pytest.raises(ValueError):
            draw_paths(fs, 11, -3, 5)

    def test_negative_count_is_rejected(self):
        fs = kolmogorov_factorize(random_pd_kernel(5, 2, 3))
        with pytest.raises(ValueError):
            draw_paths(fs, 11, 0, -1)

    def test_path_batch_shape_is_checked(self):
        with pytest.raises(ShapeError, match=r"paths must be \(N, 2, d\), got \(3, 1, 1\)"):
            PathBatch(labels(2), np.zeros((3, 1, 1)))
        with pytest.raises(InvalidKernel, match="a path batch holds at least one sample"):
            PathBatch(labels(2), np.zeros((0, 2, 1)))

    def test_paths_match_einsum_reference(self):
        # The GEMM sums in another order than the einsum formula it replaced.
        fs = kolmogorov_factorize(random_pd_kernel(4, 6, 3))
        batch = draw_paths(fs, 5, 700, 1000)
        z = standard_normal_rows(5, 700, 1000, fs.dilation_dim)
        ref = np.einsum("kr,rc->kc", z, fs.stacked.conj()).reshape(batch.paths.shape)
        tol = 512 * np.finfo(np.float64).eps * np.max(np.abs(ref))
        assert np.max(np.abs(batch.paths - ref)) <= tol

    @pytest.mark.parametrize("threads", [1, 2])
    def test_batch_invariance_across_tiles(self, threads, blas_threads):
        # Bytes must agree within one thread count only.
        blas_threads(threads)
        fs = kolmogorov_factorize(random_pd_kernel(6, 40, 3))
        start, count = 3, 3000
        whole = draw_paths(fs, 21, start, count).paths
        rng = np.random.default_rng(0)
        for _ in range(12):
            cuts = rng.choice(np.arange(1, count), size=int(rng.integers(1, 40)), replace=False)
            bounds = [0, *sorted(cuts.tolist()), count]
            parts = [draw_paths(fs, 21, start + a, b - a).paths for a, b in zip(bounds, bounds[1:])]
            assert np.concatenate(parts).tobytes() == whole.tobytes()
        for index in (511, 512):
            assert draw_paths(fs, 21, index, 1).paths[0].tobytes() == whole[index - start].tobytes()

    def test_zero_kernel_paths_vanish(self):
        batch = sample_paths(OperatorKernelTable.from_flat(ONE_LABEL, 2, np.zeros((2, 2))), 1, 10)
        assert np.all(batch.paths == 0)

    def test_rejects_indefinite_kernel(self):
        bad = OperatorKernelTable.from_flat(labels(2), 1, np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefinite):
            sample_paths(bad, 0, 1)

    def test_scalar_variance_concentration(self):
        # variance of N(0, 4) estimated from 1e5 draws: within 4 * 5/sqrt(2e5)
        table = OperatorKernelTable.from_flat(ONE_LABEL, 1, np.array([[4.0]]))
        batch = sample_paths(table, 3, 100_000)
        var = float(np.mean(np.abs(batch.paths) ** 2))
        assert abs(var - 4.0) <= 4.0 * 5.0 / np.sqrt(2.0 * 100_000)


class TestEmpiricalCovariance:
    def test_single_path_gives_rank_one_blocks(self):
        table = random_pd_kernel(1, 2, 2)
        batch = sample_paths(table, 2, 1)
        est = OperatorKernelTable.from_flat(table.label_set, 2, oracles.second_moment(batch.paths))
        for i in range(2):
            for j in range(2):
                expected = np.outer(batch.paths[0, i], batch.paths[0, j].conj())
                np.testing.assert_allclose(est.blocks[i, j], expected, atol=1e-14)

    def test_identity_kernel_two_by_two(self):
        est = oracles.second_moment(sample_paths(identity_kernel(ONE_LABEL, 2), 2, 200_000).paths)
        assert np.linalg.norm(est - np.eye(2), 2) <= 0.03

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_random_kernel_relative_error(self, seed):
        table = random_pd_kernel(seed, 3, 2)
        est = oracles.second_moment(sample_paths(table, seed - 30, 200_000).paths)
        rel = np.linalg.norm(est - table.flat) / np.linalg.norm(table.flat)
        assert rel <= 0.02

    def test_estimate_is_positive(self):
        table = random_pd_kernel(8, 2, 2)
        batch = sample_paths(table, 1, 50)
        est = OperatorKernelTable.from_flat(table.label_set, 2, oracles.second_moment(batch.paths))
        assert is_positive_definite(est).pd


class TestAssembleJoint:
    def test_zero_coupling_is_block_diagonal(self):
        k = random_pd_kernel(1, 2, 2)
        l = random_pd_kernel(2, 2, 2)
        joint = assemble_joint(k, l, np.zeros((2, 2, 2, 2)))
        np.testing.assert_array_equal(joint.m.blocks[:, :, :2, 2:], np.zeros((2, 2, 2, 2)))
        np.testing.assert_allclose(joint.schur.flat, k.flat, atol=1e-14)

    def test_scalar_half_coupling(self):
        joint = assemble_joint(scalar_one(), scalar_one(), scalar_coupling(0.5))
        np.testing.assert_allclose(joint.m.flat, [[1.0, 0.5], [0.5, 1.0]], atol=1e-15)
        assert joint.schur.flat[0, 0] == pytest.approx(0.75, abs=1e-14)

    def test_overcoupled_scalar_is_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            assemble_joint(scalar_one(), scalar_one(), scalar_coupling(2.0))

    def test_coupling_of_the_wrong_shape_is_refused(self):
        with pytest.raises(ShapeError, match=r"coupling must be \(1, 1, 1, 1\), got \(1, 1, 2, 2\)"):
            assemble_joint(scalar_one(), scalar_one(), np.zeros((1, 1, 2, 2)))

    def test_acceptance_matches_bruteforce_psd_scalar_family(self):
        # |T| <= 1 is exactly the admissible range for K = L = 1
        k = scalar_one()
        for t in (0.0, 0.25, 0.5, 0.9, 0.99, 1.01, 1.5, 2.0):
            flat = oracles.interleave_joint_bruteforce(k.blocks, k.blocks, scalar_coupling(t))
            oracle_ok = float(np.linalg.eigvalsh(flat)[0]) >= -1e-12
            try:
                assemble_joint(k, k, scalar_coupling(t))
                accepted = True
            except NotPositiveDefinite:
                accepted = False
            assert accepted == oracle_ok, f"coupling {t}"

    @pytest.mark.parametrize("seed", range(4))
    def test_acceptance_matches_bruteforce_psd_block_family(self, seed):
        # scale a valid coupling up until it breaks; decision must track the
        # brute-force eigenvalue of the interleaved matrix on clear cases
        k, l, coupling = block_joint_instance(60 + seed)
        saw_accept = saw_reject = False
        for lam in (0.0, 0.5, 1.0, 2.0, 4.0):
            blocks = lam * coupling
            flat = oracles.interleave_joint_bruteforce(k.blocks, l.blocks, blocks)
            evals = np.linalg.eigvalsh(flat)
            scale = max(abs(evals[0]), abs(evals[-1]))
            if abs(evals[0]) <= 1e-8 * scale:
                continue  # too close to the boundary to compare flags
            oracle_ok = evals[0] > 0
            try:
                assemble_joint(k, l, blocks)
                accepted = True
            except NotPositiveDefinite:
                accepted = False
            assert accepted == oracle_ok, f"lam {lam}"
            saw_accept |= accepted
            saw_reject |= not accepted
        assert saw_accept and saw_reject

    def test_joint_flat_matches_bruteforce_interleaving(self):
        k, l, coupling = block_joint_instance(77)
        joint = assemble_joint(k, l, coupling)
        np.testing.assert_allclose(
            joint.m.flat,
            oracles.interleave_joint_bruteforce(k.blocks, l.blocks, coupling),
            atol=1e-12,
        )


def diagonal_joint(k_diagonal, l_diagonal):
    """K and L scalar kernels over two labels with diagonal Grams and zero
    coupling: the joint table is diagonal, with exactly its diagonal as
    eigenvalues."""
    ls = labels(2)
    k = OperatorKernelTable.from_flat(ls, 1, np.diag(k_diagonal))
    l = OperatorKernelTable.from_flat(ls, 1, np.diag(l_diagonal))
    return k, l, np.zeros((2, 2, 1, 1))


class TestJointGateBoundary:
    # The joint table's gate, -1e-10 times its norm (1), at (1 -/+ 1e-6)
    # times the threshold.  The Cholesky certificate declines this close,
    # so the joint is factored at once and its gate decides first.
    GATE = -1e-10

    def test_admits_just_inside_the_gate(self):
        k, l, coupling = diagonal_joint([0.5, self.GATE * (1 - 1e-6)], [1.0, 0.25])
        joint = assemble_joint(k, l, coupling)
        np.testing.assert_array_equal(np.linalg.eigvalsh(joint.m.flat), [self.GATE * (1 - 1e-6), 0.25, 0.5, 1.0])
        # The Schur complement K fails against its own norm and passes against the joint table's.
        assert joint.schur.flat.tobytes() == k.flat.tobytes()

    def test_rejects_just_outside_the_gate_before_l(self):
        k, l, coupling = diagonal_joint([0.5, self.GATE * (1 + 1e-6)], [1.0, 0.0])  # L is singular too
        with pytest.raises(NotPositiveDefinite, match=r"^joint table is not positive "
                           r"\(min eig -1\.000e-10 < -1e-10 \* 1\.000e\+00\)$"):
            assemble_joint(k, l, coupling)


class TestSchurGateBoundary:
    # The Schur complement's gate, -1e-10 times the larger of its own norm
    # and the joint table's, at (1 -/+ 1e-6) times the threshold.  The
    # eigvalsh of the complement reports (value, top); K = I and L = 4 I
    # with zero coupling make a joint table of norm 4, admitted by its
    # certificate, whose norm is read only when the complement fails against
    # its own.
    @pytest.mark.parametrize("top,scale", [(8.0, 8.0), (0.5, 4.0)], ids=["own_norm", "joint_norm"])
    @pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6], ids=["inside", "outside"])
    def test_gate_boundary(self, top, scale, factor, monkeypatch):
        value = -1e-10 * scale * factor
        reported = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: reported.append(a) or np.array([value, top]))
        k, l, coupling = diagonal_joint([1.0, 1.0], [4.0, 4.0])
        if factor < 1:
            assert assemble_joint(k, l, coupling).schur.flat.tobytes() == k.flat.tobytes()
        else:
            message = f"Schur complement is not positive (min eig {value:.3e} < -1e-10 * {scale:.3e})"
            with pytest.raises(NotPositiveDefinite, match=f"^{re.escape(message)}$") as exc:
                assemble_joint(k, l, coupling)
            assert exc.value.min_eig == value
        assert len(reported) == 1


class TestLazyJointFactorization:
    @pytest.fixture
    def factorizations(self, monkeypatch):
        calls = []
        original = gaussian.kolmogorov_factorize
        monkeypatch.setattr(gaussian, "kolmogorov_factorize", lambda *a, **kw: calls.append(1) or original(*a, **kw))
        return calls

    def test_certified_joint_is_factored_once_on_first_use(self, factorizations):
        k, l, coupling = block_joint_instance(81)
        joint = assemble_joint(k, l, coupling)
        assert factorizations == []
        assert joint.features is joint.features
        assert factorizations == [1]
        assert joint.features.stacked.tobytes() == kolmogorov_factorize(joint.m).stacked.tobytes()

    def test_uncertified_joint_is_factored_once_at_admission(self, factorizations):
        k, l, coupling = diagonal_joint([0.5, -0.5e-10], [1.0, 0.25])
        joint = assemble_joint(k, l, coupling)
        joint.features, joint.features
        assert factorizations == [1]


def gram_of_rank(rank, complex_entries, size=6):
    rng = np.random.default_rng(0)
    g = rng.standard_normal((rank, size))
    if complex_entries:
        g = g + 1j * rng.standard_normal((rank, size))
    return g.conj().T @ g


class TestJointDecompositions:
    @pytest.mark.parametrize("name,l_gram", [
        ("full_rank_complex", gram_of_rank(6, True)),
        ("full_rank_real", gram_of_rank(6, False)),
    ])
    def test_pinv_from_stored_eigh_is_numpys(self, name, l_gram):
        # The Schur complement inverts L from the stored eigh in numpy's order.
        l = OperatorKernelTable.from_flat(labels(3), 2, l_gram)
        joint = assemble_joint(l, l, 0.5 * l.blocks)
        t_gram = 0.5 * l.flat
        ref = l.flat - t_gram @ np.linalg.pinv(l.flat, rcond=1e-10, hermitian=True) @ t_gram.conj().T
        assert joint.schur.flat.tobytes() == (0.5 * (ref + ref.conj().T)).tobytes()

    def test_joint_is_factored_once_and_sampled_from_its_factorization(self):
        k, l, coupling = block_joint_instance(81)
        joint = assemble_joint(k, l, coupling)
        assert joint.features.stacked.tobytes() == kolmogorov_factorize(joint.m).stacked.tobytes()
        full = draw_paths(joint.features, 5, 0, 1000).paths
        assert full.tobytes() == sample_paths(joint.m, 5, 1000).paths.tobytes()

    def test_inadmissible_joint_reports_the_factorization_min_eig(self):
        with pytest.raises(NotPositiveDefinite, match="joint table is not positive") as exc:
            assemble_joint(scalar_one(), scalar_one(), scalar_coupling(2.0))
        assert exc.value.min_eig == pytest.approx(-1.0)


class TestSampleJoint:
    def test_independent_parts_have_small_cross_covariance(self):
        joint = assemble_joint(scalar_one(), scalar_one(), scalar_coupling(0.0))
        kp, lp = joint_parts(joint, 1, 200_000)
        cross = float(np.mean(kp[:, 0, 0] * np.conj(lp[:, 0, 0])).real)
        assert abs(cross) <= 5.0 / np.sqrt(200_000)

    def test_coupled_parts_reproduce_coupling(self):
        joint = assemble_joint(scalar_one(), scalar_one(), scalar_coupling(0.5))
        kp, lp = joint_parts(joint, 3, 200_000)
        cross = float(np.mean(kp[:, 0, 0] * np.conj(lp[:, 0, 0])).real)
        assert abs(cross - 0.5) <= 5.0 / np.sqrt(200_000)

    def test_marginal_law_matches_direct_sampler(self):
        # K-part covariance converges to K regardless of the coupling
        k, l, coupling = block_joint_instance(81)
        joint = assemble_joint(k, l, coupling)
        kp, _ = joint_parts(joint, 5, 200_000)
        est = oracles.second_moment(kp)
        rel = np.linalg.norm(est - k.flat) / np.linalg.norm(k.flat)
        assert rel <= 0.02


class TestCondition:
    def test_zero_coupling_changes_nothing(self):
        k = random_pd_kernel(2, 2, 2)
        l = random_pd_kernel(3, 2, 2)
        joint = assemble_joint(k, l, np.zeros((2, 2, 2, 2)))
        rng = np.random.default_rng(0)
        np.testing.assert_allclose(condition(joint, rng.standard_normal((2, 2))), 0, atol=1e-12)
        np.testing.assert_allclose(joint.schur.flat, k.flat, atol=1e-12)

    def test_scalar_halves(self):
        joint = assemble_joint(scalar_one(), scalar_one(), scalar_coupling(0.5))
        assert condition(joint, np.array([[2.0]]))[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert joint.schur.flat[0, 0] == pytest.approx(0.75, abs=1e-14)
        assert joint.mean_map[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_zero_observation_gives_zero_mean(self):
        k, l, coupling = block_joint_instance(66)
        joint = assemble_joint(k, l, coupling)
        np.testing.assert_array_equal(condition(joint, np.zeros((2, 2))), np.zeros((2, 2)))

    def test_singular_l_is_strict_by_default(self):
        k = random_pd_kernel(4, 1, 2)
        with pytest.raises(SingularL):
            assemble_joint(k, OperatorKernelTable.from_flat(k.label_set, 2, np.zeros((2, 2))), np.zeros((1, 1, 2, 2)))

    def test_blockdiagonal_case_reduces_to_per_label_formula(self):
        # when L and the coupling vanish off the diagonal, the Gram-level
        # mean map is exactly the per-label T(s,s) L(s,s)^{-1}
        rng = np.random.default_rng(12)
        n, d = 3, 2
        ls = labels(n)
        l_blocks = np.zeros((n, n, d, d), dtype=complex)
        t_blocks = np.zeros((n, n, d, d), dtype=complex)
        for i in range(n):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            l_blocks[i, i] = g.conj().T @ g + 0.5 * np.eye(d)
            t_blocks[i, i] = 0.3 * l_blocks[i, i]
        l = OperatorKernelTable(ls, l_blocks)
        k = identity_kernel(ls, d)
        joint = assemble_joint(k, l, t_blocks)
        for i in range(n):
            per_label = t_blocks[i, i] @ np.linalg.inv(l_blocks[i, i])
            np.testing.assert_allclose(
                joint.mean_map[i * d : (i + 1) * d, i * d : (i + 1) * d], per_label, atol=1e-12
            )
        off = joint.mean_map.copy()
        for i in range(n):
            off[i * d : (i + 1) * d, i * d : (i + 1) * d] = 0
        np.testing.assert_allclose(off, 0, atol=1e-12)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        n=st.integers(1, 3),
        d=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(0.0, 1.0),
    )
    def test_law_matches_the_loop_built_one(self, n, d, seed, lam):
        # Any coupling lam * T with |lam| <= 1 keeps the joint positive.
        k, l, coupling = block_joint_instance(seed, n, d)
        joint = assemble_joint(k, l, lam * coupling)
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        mean, cov = oracles.conditional_law_bruteforce(k.blocks, l.blocks, lam * coupling, y)
        got = condition(joint, y)
        norm = lambda a: float(np.linalg.norm(a, 2))
        assert np.linalg.norm(got - mean) <= 1e-10 * max(np.linalg.norm(got), np.linalg.norm(mean))
        assert norm(joint.schur.flat - cov) <= 1e-10 * max(norm(k.flat), norm(joint.schur.flat), norm(cov))

    def test_shape_validation(self):
        joint = assemble_joint(scalar_one(), scalar_one(), scalar_coupling(0.0))
        with pytest.raises(ShapeError):
            condition(joint, np.zeros((2, 2)))


class TestConditionalCovEqual:
    def test_identical_systems(self):
        k = random_pd_kernel(1, 2, 2)
        l = random_pd_kernel(2, 2, 2)
        coupling = 0.1 * np.broadcast_to(np.eye(2), (2, 2, 2, 2))
        report = conditional_cov_equal(k, k, l, l, coupling)
        assert report.equal

    def test_scalar_unequal_case(self):
        # 2 - 1/1 = 1 versus 1 - 1/(1/2) = -1
        ls = ONE_LABEL
        report = conditional_cov_equal(
            OperatorKernelTable.from_flat(ls, 1, np.array([[2.0]])),
            OperatorKernelTable.from_flat(ls, 1, np.array([[1.0]])),
            OperatorKernelTable.from_flat(ls, 1, np.array([[1.0]])),
            OperatorKernelTable.from_flat(ls, 1, np.array([[0.5]])),
            scalar_coupling(1.0),
        )
        assert not report.equal

    def test_scalar_equal_case(self):
        # L1 = 1/2, L2 = 1: T(L1^{-1} - L2^{-1})T = 1 = K1 - K2
        ls = ONE_LABEL
        report = conditional_cov_equal(
            OperatorKernelTable.from_flat(ls, 1, np.array([[2.0]])),
            OperatorKernelTable.from_flat(ls, 1, np.array([[1.0]])),
            OperatorKernelTable.from_flat(ls, 1, np.array([[0.5]])),
            OperatorKernelTable.from_flat(ls, 1, np.array([[1.0]])),
            scalar_coupling(1.0),
        )
        assert report.equal

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.sampled_from([(1, 1), (2, 2), (2, 1), (3, 1), (1, 2)]),
        # 0, or a factor 10 or more from the 1e-10 threshold on either side
        eps=st.just(0.0) | st.floats(1e-14, 1e-11) | st.floats(1e-9, 1e-3),
    )
    def test_swapped_sides_give_the_same_decision(self, seed, size, eps):
        # Criterion 7's instances, with K2 shifted by eps ||K2|| I.
        k1, k2, l1, l2, coupling = equal_conditional_instance(np.random.default_rng(seed), *size)
        nd = k2.flat.shape[0]
        shift = eps * np.linalg.norm(k2.flat, 2)
        k2 = OperatorKernelTable.from_flat(k2.label_set, k2.dim_h, k2.flat + shift * np.eye(nd))
        ab = conditional_cov_equal(k1, k2, l1, l2, coupling)
        ba = conditional_cov_equal(k2, k1, l2, l1, coupling)
        assert ab.equal == ba.equal
        assert abs(ab.residual - ba.residual) <= 1e-12 * max(ab.residual, ba.residual)

    @pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6], ids=["inside", "outside"])
    def test_threshold_boundary(self, factor):
        # T = 0: the conditional covariances are K1 and K2, which differ by eps
        # in spectral norm, against the scale ||K1|| = 1.
        eps = 1e-10 * factor
        table = lambda diag: OperatorKernelTable.from_flat(labels(2), 1, np.diag(diag))
        eye = table([1.0, 1.0])
        report = conditional_cov_equal(table([1.0, 0.0]), table([1.0, eps]), eye, eye, np.zeros((2, 2, 1, 1)))
        assert (report.equal, report.residual) == (factor < 1, eps)

    @pytest.mark.parametrize("above", [False, True], ids=["at", "one-ulp-above"])
    def test_threshold_equality(self, above, monkeypatch):
        # The first spectral norm is the residual, pinned at 1e-10 times the
        # scale or one ulp above it; every norm of the scale is pinned at 1.
        table = lambda diag: OperatorKernelTable.from_flat(labels(2), 1, np.diag(diag))
        k1, k2, eye = table([1.0, 0.0]), table([1.0, 1e-10]), table([1.0, 1.0])
        residual = np.nextafter(1e-10, 1.0) if above else 1e-10
        orders = []

        def pinned(x, ord=None, *args, **kwargs):
            orders.append(ord)
            return residual if len(orders) == 1 else 1.0

        monkeypatch.setattr(np.linalg, "norm", pinned)
        report = conditional_cov_equal(k1, k2, eye, eye, np.zeros((2, 2, 1, 1)))
        assert orders == [2] * 5
        assert (report.equal, report.residual) == (not above, residual)

    @pytest.mark.parametrize("which", ["k1", "k2"])
    def test_nan_norm_fails_the_verdict(self, which, monkeypatch):
        # A NaN norm in any place of the scale fails the verdict, not only in the first.
        ls = ONE_LABEL
        k1, k2 = (OperatorKernelTable.from_flat(ls, 1, np.array([[v]])) for v in (2.0, 1.0))
        l1, l2 = (OperatorKernelTable.from_flat(ls, 1, np.array([[v]])) for v in (0.5, 1.0))
        nan_of, norm = {"k1": k1, "k2": k2}[which].flat, np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm",
                            lambda x, ord=None, *a, **kw: np.nan if x is nan_of and ord == 2 else norm(x, ord, *a, **kw))
        report = conditional_cov_equal(k1, k2, l1, l2, scalar_coupling(1.0))
        assert not report.equal and np.isnan(report.residual)

    def test_singular_l_rejected(self):
        k = scalar_one()
        with pytest.raises(SingularL):
            conditional_cov_equal(k, k, OperatorKernelTable.from_flat(ONE_LABEL, 1, [[0.0]]), k, scalar_coupling(0.0))


class TestMcVerifyConditional:
    def test_zero_coupling(self):
        joint = assemble_joint(scalar_one(), scalar_one(), scalar_coupling(0.0))
        report = mc_verify_conditional(joint, 17, 100_000)
        assert report.passed

    def test_scalar_half_coupling_values(self):
        joint = assemble_joint(scalar_one(), scalar_one(), scalar_coupling(0.5))
        report = mc_verify_conditional(joint, 5, 200_000)
        assert report.passed
        # cross-check the raw estimates against the analytic law
        kp, lp = joint_parts(joint, 5, 200_000)
        x, y = kp.reshape(-1), lp.reshape(-1)
        b_hat = float((x @ y.conj()).real / (y @ y.conj()).real)
        assert abs(b_hat - 0.5) <= 5.0 * np.sqrt(0.75 / 200_000)
        resid = x - b_hat * y
        s_hat = float(np.mean(np.abs(resid) ** 2))
        assert abs(s_hat - 0.75) <= 5.0 * 0.75 * np.sqrt(2.0 / 200_000)

    @pytest.mark.parametrize("seed", range(3))
    def test_block_instances_within_five_se(self, seed):
        k, l, coupling = block_joint_instance(40 + seed)
        joint = assemble_joint(k, l, coupling)
        report = mc_verify_conditional(joint, 900 + seed, 200_000)
        assert report.passed, report

    def test_requires_two_samples(self):
        joint = assemble_joint(scalar_one(), scalar_one(), scalar_coupling(0.0))
        with pytest.raises(InvalidKernel):
            mc_verify_conditional(joint, 0, 1)

    @pytest.mark.parametrize("seed,larger", [(0, "mean"), (2, "cov")])
    def test_verdict_at_the_larger_statistic(self, seed, larger):
        # The verdict admits a statistic equal to tol_sigma and refuses it one
        # ulp above; each seed makes a different statistic the larger one.
        joint = assemble_joint(scalar_one(), scalar_one(), scalar_coupling(0.5))
        report = mc_verify_conditional(joint, seed, 2000)
        mean, cov = report.mean_map_dev_se, report.residual_cov_dev_se
        assert (mean > cov) == (larger == "mean")
        top = max(mean, cov)
        assert mc_verify_conditional(joint, seed, 2000, tol_sigma=top).passed
        assert not mc_verify_conditional(joint, seed, 2000, tol_sigma=np.nextafter(top, 0.0)).passed


def saturated_joint(delta):
    """K = L on n = 4, d = 2 and T = (1 - delta) K: the Schur complement is
    (2 delta - delta^2) K, below the factorization's rank cutoff for small delta."""
    k = random_pd_kernel(3, 4, 2)
    return assemble_joint(k, k, (1 - delta) * k.blocks)


# A count whose last tile has 458 rows.
DRAW_AHEAD_COUNT = 3 * 512 + 458


class TestStreamedRegression:
    """``mc_verify_conditional`` streams centred moments; ``oracles`` keeps
    the one-batch regression it replaced."""

    JOINTS = {
        "block40": lambda: assemble_joint(*block_joint_instance(40)),
        "block41": lambda: assemble_joint(*block_joint_instance(41)),
        "scalar": lambda: assemble_joint(scalar_one(), scalar_one(), scalar_coupling(0.5)),
        "delta1e-6": lambda: saturated_joint(1e-6),
        "delta1e-9": lambda: saturated_joint(1e-9),
        "wide328": lambda: assemble_joint(*block_joint_instance(5, n=82)),
    }

    @pytest.mark.parametrize("name,count", [pytest.param(name, 5000, id=name) for name in JOINTS] + [
        pytest.param(name, DRAW_AHEAD_COUNT, id=f"{name}-last458") for name in JOINTS
    ])
    def test_estimates_match_full_batch_to_rounding(self, name, count):
        joint = self.JOINTS[name]()
        b_hat, s_hat = gaussian._regress(joint, 7, count)
        b_ref, s_ref, *_ = oracles.mc_verify_full_batch(joint, 7, count)
        # Sums of `count` terms in another order: sqrt(count) eps, times the
        # conditioning of L for the solve, and for s_hat times the scale at
        # which each sample's x - b y is formed, sqrt(||Schur|| ||M||).
        eps = np.finfo(np.float64).eps
        evals = joint.l_eigh[0]
        b_bound = np.sqrt(count) * eps * evals[-1] / evals[0] * np.max(np.abs(b_ref))
        schur = max(np.linalg.norm(joint.schur.flat, 2), np.linalg.norm(s_ref, 2))
        s_bound = 4 * np.sqrt(count) * eps * np.sqrt(schur * joint.features.norm)
        assert np.max(np.abs(b_hat - b_ref)) <= b_bound
        assert np.max(np.abs(s_hat - s_ref)) <= s_bound

    @pytest.mark.parametrize("delta", [1e-6, 1e-9, 1e-12, 1e-14])
    def test_verdicts_match_full_batch_near_saturation(self, delta):
        joint = saturated_joint(delta)
        report = mc_verify_conditional(joint, 3, 20_000)
        *_, mean_dev, cov_dev, passed = oracles.mc_verify_full_batch(joint, 3, 20_000)
        assert report.passed == passed
        np.testing.assert_allclose(
            [report.mean_map_dev_se, report.residual_cov_dev_se], [mean_dev, cov_dev], rtol=1e-3, atol=1e-3
        )

    @pytest.mark.parametrize("n", [4, 82], ids=["narrow16", "wide328"])
    def test_serial_streams_give_the_same_statistics(self, n, monkeypatch, blas_threads):
        # Where numpy bundles no OpenBLAS to hold, both streams run on the
        # main thread, one after the other.  Both runs are pinned at one BLAS
        # thread, so that only the scheduling of the streams differs.
        joint = assemble_joint(*block_joint_instance(5, n=n))
        blas_threads(1)
        threaded = mc_verify_conditional(joint, 2, DRAW_AHEAD_COUNT)
        monkeypatch.setattr(gaussian, "_openblas", lambda: None)
        serial = mc_verify_conditional(joint, 2, DRAW_AHEAD_COUNT)
        assert [serial.mean_map_dev_se.hex(), serial.residual_cov_dev_se.hex()] == [
            threaded.mean_map_dev_se.hex(), threaded.residual_cov_dev_se.hex()]


OPENBLAS = gaussian._openblas()


def openblas_threads():
    return None if OPENBLAS is None else OPENBLAS[0]()


HELD = OPENBLAS is not None


class TestDrawAhead:
    """``mc_verify_conditional`` sums the Gram of each tile of normals in two
    streams, the tiles at even positions on the main thread and those at odd
    positions on one helper, with numpy's OpenBLAS held at one thread at
    every pair width."""

    @pytest.fixture(autouse=True)
    def two_blas_threads(self, blas_threads):
        """Each test starts at two BLAS threads, so that a hold left behind shows."""
        blas_threads(2)

    def test_statistics_are_those_of_a_one_thread_process(self):
        joint = assemble_joint(*block_joint_instance(5, n=4))
        report = mc_verify_conditional(joint, 2, DRAW_AHEAD_COUNT)
        script = textwrap.dedent(
            f"""
            from opkern import assemble_joint, mc_verify_conditional, random_pd_kernel, OperatorKernelTable
            big = random_pd_kernel(5, 4, 4)
            k = OperatorKernelTable(big.label_set, big.blocks[:, :, :2, :2])
            l = OperatorKernelTable(big.label_set, big.blocks[:, :, 2:, 2:])
            joint = assemble_joint(k, l, big.blocks[:, :, :2, 2:])
            report = mc_verify_conditional(joint, 2, {DRAW_AHEAD_COUNT})
            print(report.mean_map_dev_se.hex(), report.residual_cov_dev_se.hex())
            """
        )
        src = str(Path(opkern.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=pythonpath)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [report.mean_map_dev_se.hex(), report.residual_cov_dev_se.hex()]

    def test_joint_table_is_factored_before_the_hold(self, monkeypatch):
        # Factored inside the hold, the features, and so the report, would
        # round as at one BLAS thread.
        threads = []
        factorize = gaussian.kolmogorov_factorize
        monkeypatch.setattr(gaussian, "kolmogorov_factorize",
                            lambda *a, **kw: threads.append(openblas_threads()) or factorize(*a, **kw))
        joint = assemble_joint(*block_joint_instance(5, n=4))
        assert threads == []  # admitted by its certificate
        mc_verify_conditional(joint, 2, DRAW_AHEAD_COUNT)
        assert threads == [None if OPENBLAS is None else 2]

    @pytest.mark.skipif(gaussian._openblas() is None, reason="numpy bundles no OpenBLAS to hold")
    def test_restored_pool_does_not_spin(self):
        mc_verify_conditional(assemble_joint(*block_joint_instance(5, n=4)), 2, DRAW_AHEAD_COUNT)
        cpu = time.process_time()
        time.sleep(0.2)
        assert time.process_time() - cpu < 0.03

    @pytest.fixture
    def normals_seen(self, monkeypatch):
        """Per drawn tile: its start, whether the main thread drew it and
        numpy's OpenBLAS thread count at that moment.  ``hooks[start]`` runs
        when the tile at ``start`` is drawn."""
        seen, hooks = [], {}
        original = gaussian.standard_normal_rows

        def spy(seed, start, count, width, *out):
            seen.append((start, threading.current_thread() is threading.main_thread(), openblas_threads()))
            hooks.get(start, lambda: None)()
            return original(seed, start, count, width, *out)

        monkeypatch.setattr(gaussian, "standard_normal_rows", spy)
        return seen, hooks

    @staticmethod
    def assert_streams(seen, threads=1):
        """Each tile drawn at most once, by its stream's thread, at ``threads``."""
        starts = [start for start, *_ in seen]
        assert len(starts) == len(set(starts))
        assert [on_main for start, on_main, _ in seen] == [not HELD or start % 1024 == 0 for start in starts]
        if OPENBLAS is not None:
            assert {t for *_, t in seen} == {threads}

    @pytest.mark.parametrize("fails", [None, 3, 4], ids=["returns", "raises_at_tile_3", "raises_at_tile_4"])
    def test_threads_are_restored(self, fails, normals_seen):
        # Tile 3 is the helper's, tile 4 the main thread's.
        seen, hooks = normals_seen

        def fail():
            raise RuntimeError(f"tile {fails}")

        if fails is not None:
            hooks[fails * 512] = fail
        joint = assemble_joint(*block_joint_instance(5, n=4))
        before = threading.active_count(), openblas_threads()
        with pytest.raises(RuntimeError, match=f"tile {fails}") if fails else contextlib.nullcontext():
            mc_verify_conditional(joint, 2, 8 * 512 if fails else DRAW_AHEAD_COUNT)
        assert (threading.active_count(), openblas_threads()) == before
        self.assert_streams(seen, 1 if HELD else before[1])
        starts = {start for start, *_ in seen}
        assert fails * 512 in starts if fails else starts == {0, 512, 1024, 1536}

    @pytest.mark.skipif(not HELD, reason="both streams run on the main thread")
    @pytest.mark.parametrize("fails", [3, 4], ids=["helper_raises", "main_raises"])
    def test_a_failure_stops_the_other_stream_at_its_next_tile(self, fails, normals_seen):
        # The failing tile waits until the other stream is drawing the next
        # tile, which returns only once the failure is raised: the other
        # stream then finds the stop before its next draw.
        seen, hooks = normals_seen
        meeting, failed = threading.Event(), threading.Event()

        def fail():
            meeting.wait(10)
            failed.set()
            raise RuntimeError("stream failure")

        def meet():
            meeting.set()
            failed.wait(10)
            time.sleep(0.05)

        hooks[fails * 512], hooks[(fails + 1) * 512] = fail, meet
        with pytest.raises(RuntimeError, match="stream failure"):
            mc_verify_conditional(assemble_joint(*block_joint_instance(5, n=4)), 2, 12 * 512)
        self.assert_streams(seen)
        assert sorted(start for start, *_ in seen) == list(range(0, (fails + 2) * 512, 512))

    def test_final_product_is_held(self, monkeypatch):
        # The Gram enters the moments as the right operand of P^T @ (G / count).
        threads = []

        class Recorder(np.ndarray):
            def __rmatmul__(self, other):
                threads.append(openblas_threads())
                return other @ self.view(np.ndarray)

        gram = gaussian._normals_gram
        monkeypatch.setattr(gaussian, "_normals_gram", lambda *args: gram(*args).view(Recorder))
        mc_verify_conditional(assemble_joint(*block_joint_instance(5, n=4)), 2, 1024)
        assert threads == [1 if HELD else openblas_threads()]

    def test_concurrent_calls_add_their_own_streams(self):
        # Four callers, each with its helper, under a short switch interval:
        # a buffer or a partial sum shared between streams or calls would
        # show as a Gram that differs from the serial one.
        serial = gaussian._normals_gram(3, 17, DRAW_AHEAD_COUNT, False)
        grams = [None] * 4

        def call(i):
            grams[i] = gaussian._normals_gram(3, 17, DRAW_AHEAD_COUNT, True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert all(gram is not None and gram.tobytes() == serial.tobytes() for gram in grams)

    @pytest.mark.skipif(not HELD, reason="numpy bundles no OpenBLAS to hold")
    def test_overlapping_holds_restore_the_count(self):
        # Two threads interleave enter A, enter B, exit A, exit B.  A hold
        # that saved the count on entry would save B's 1 and restore it last.
        steps = {name: threading.Event() for name in ("a_in", "b_in", "a_out")}
        inside = []

        def hold(enter_after, entered, exit_after, exited):
            if enter_after:
                steps[enter_after].wait(10)
            with gaussian._one_blas_thread():
                inside.append(openblas_threads())
                steps[entered].set()
                steps[exit_after].wait(10)
            if exited:
                steps[exited].set()

        a = threading.Thread(target=hold, args=(None, "a_in", "b_in", "a_out"))
        b = threading.Thread(target=hold, args=("a_in", "b_in", "a_out", None))
        before = openblas_threads()
        a.start()
        b.start()
        a.join(30)
        b.join(30)
        assert not a.is_alive() and not b.is_alive()
        assert inside == [1, 1]
        assert before == 2 and openblas_threads() == before

    def test_wide_pair_is_held_at_one_thread(self, normals_seen):
        # 2nd = 328 values: the tiles and their Grams run at one BLAS thread too.
        seen, _ = normals_seen
        joint = assemble_joint(*block_joint_instance(5, n=82))
        threads = openblas_threads()
        mc_verify_conditional(joint, 2, 1024)
        assert sorted(seen) == [(0, True, 1 if HELD else threads), (512, not HELD, 1 if HELD else threads)]


class TestRegressionMemory:
    @pytest.mark.parametrize("n", [4, 20])
    def test_peak_is_a_few_grams_and_one_tile(self, n):
        # The moments of a pair of 2nd = 4n values are (2nd)^2 complex
        # entries, and a tile of normals 512 x r reals.  Forming each
        # tile's paths takes 11-15 tiles' worth here and fails the bound.
        joint = assemble_joint(*block_joint_instance(5, n=n))
        gram_bytes, tile_bytes = (4 * n) ** 2 * 16, 512 * joint.features.dilation_dim * 8

        def peak(count):
            tracemalloc.start()
            try:
                mc_verify_conditional(joint, 2, count)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2048)  # warm-up: the first draw imports scipy.special, the first use caches the Schur Gram
        assert max(peak(2048), peak(4 * 2048)) <= 8 * (gram_bytes + tile_bytes)
