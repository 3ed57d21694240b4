import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import opkern

from opkern import (
    InvalidKernel,
    NotPositiveDefinite,
    OperatorKernelTable,
    ShapeError,
    SingularL,
    assemble_joint,
    condition,
    conditional_cov_equal,
    draw_paths,
    empirical_covariance,
    identity_kernel,
    is_positive_definite,
    kolmogorov_factorize,
    make_sampler,
    mc_verify_conditional,
    random_pd_kernel,
    sample_joint,
    scalar_kernel,
    standard_normal_rows,
    zero_kernel,
)
from conftest import labels
import oracles


ONE_LABEL = labels(1)


def scalar_one():
    return scalar_kernel(ONE_LABEL, np.array([[1.0]]))


def scalar_coupling(value):
    return np.full((1, 1, 1, 1), value, dtype=complex)


def block_joint_instance(seed):
    """Admissible (K, L, coupling) extracted from one big positive table on H+H."""
    big = random_pd_kernel(seed, 2, 4)
    blocks = big.blocks
    k = OperatorKernelTable(big.label_set, blocks[:, :, :2, :2])
    l = OperatorKernelTable(big.label_set, blocks[:, :, 2:, 2:])
    return k, l, blocks[:, :, :2, 2:]


class TestNormalStream:
    def test_rows_depend_only_on_index(self):
        full = standard_normal_rows(9, 0, 10, 6)
        np.testing.assert_array_equal(standard_normal_rows(9, 4, 1, 6)[0], full[4])
        np.testing.assert_array_equal(standard_normal_rows(9, 5, 5, 6), full[5:])

    def test_seeds_give_distinct_streams(self):
        assert not np.array_equal(
            standard_normal_rows(1, 0, 4, 4), standard_normal_rows(2, 0, 4, 4)
        )

    def test_reference_values_are_frozen(self):
        # regression pin for the documented Philox + inverse-CDF transform
        row = standard_normal_rows(42, 0, 1, 2)[0]
        np.testing.assert_allclose(row, [0.9161204856345226, -0.8806796243156723], rtol=1e-13)


class TestSampler:
    def test_bit_identical_for_fixed_seed(self):
        table = scalar_one()
        a = make_sampler(table, 42).draw(5)
        b = make_sampler(table, 42).draw(5)
        assert a.paths.tobytes() == b.paths.tobytes()

    def test_counter_advances_and_concatenates(self):
        table = random_pd_kernel(3, 2, 2)
        sampler = make_sampler(table, 7)
        first, second = sampler.draw(100), sampler.draw(100)
        assert (first.start, second.start) == (0, 100)
        fs = kolmogorov_factorize(table)
        whole = draw_paths(fs, 7, 0, 200)
        np.testing.assert_array_equal(
            np.concatenate([first.paths, second.paths]), whole.paths
        )

    def test_path_at_matches_batch_row(self):
        table = random_pd_kernel(5, 2, 3)
        sampler = make_sampler(table, 11)
        batch = sampler.draw(8)
        np.testing.assert_array_equal(make_sampler(table, 11).path_at(6), batch.paths[6])

    def test_negative_start_is_rejected(self):
        sampler = make_sampler(random_pd_kernel(5, 2, 3), 11)
        with pytest.raises(ValueError):
            sampler.path_at(-1)
        with pytest.raises(ValueError):
            draw_paths(sampler.feature_system, 11, -3, 5)

    def test_negative_count_is_rejected(self):
        fs = kolmogorov_factorize(random_pd_kernel(5, 2, 3))
        with pytest.raises(ValueError):
            draw_paths(fs, 11, 0, -1)

    def test_paths_match_einsum_reference(self):
        # The GEMM sums in another order than the einsum formula it replaced.
        fs = kolmogorov_factorize(random_pd_kernel(4, 6, 3))
        batch = draw_paths(fs, 5, 700, 1000)
        z = standard_normal_rows(5, 700, 1000, fs.dilation_dim)
        ref = np.einsum("kr,rc->kc", z, fs.stacked.conj()).reshape(batch.paths.shape)
        tol = 512 * np.finfo(np.float64).eps * np.max(np.abs(ref))
        assert np.max(np.abs(batch.paths - ref)) <= tol

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_batch_invariance_across_tiles(self, threads):
        # OPENBLAS_NUM_THREADS is read when numpy is imported, hence the
        # subprocess.  Bytes must agree within one thread count only.
        script = textwrap.dedent(
            """
            import numpy as np
            from opkern import draw_paths, kolmogorov_factorize, make_sampler, random_pd_kernel

            table = random_pd_kernel(6, 40, 3)
            fs = kolmogorov_factorize(table)
            start, count = 3, 3000
            whole = draw_paths(fs, 21, start, count).paths
            rng = np.random.default_rng(0)
            for _ in range(12):
                cuts = rng.choice(np.arange(1, count), size=int(rng.integers(1, 40)), replace=False)
                bounds = [0, *sorted(cuts.tolist()), count]
                parts = [draw_paths(fs, 21, start + a, b - a).paths for a, b in zip(bounds, bounds[1:])]
                assert np.concatenate(parts).tobytes() == whole.tobytes()
            sampler = make_sampler(table, 21)
            for index in (511, 512):
                assert sampler.path_at(index).tobytes() == whole[index - start].tobytes()
            print("ok")
            """
        )
        src = str(Path(opkern.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_zero_kernel_paths_vanish(self):
        batch = make_sampler(zero_kernel(ONE_LABEL, 2), 1).draw(10)
        assert np.all(batch.paths == 0)

    def test_rejects_indefinite_kernel(self):
        bad = scalar_kernel(labels(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefinite):
            make_sampler(bad, 0)

    def test_scalar_variance_concentration(self):
        # variance of N(0, 4) estimated from 1e5 draws: within 4 * 5/sqrt(2e5)
        table = scalar_kernel(ONE_LABEL, np.array([[4.0]]))
        batch = make_sampler(table, 3).draw(100_000)
        var = float(np.mean(np.abs(batch.paths) ** 2))
        assert abs(var - 4.0) <= 4.0 * 5.0 / np.sqrt(2.0 * 100_000)


class TestEmpiricalCovariance:
    def test_single_path_gives_rank_one_blocks(self):
        table = random_pd_kernel(1, 2, 2)
        batch = make_sampler(table, 2).draw(1)
        est = empirical_covariance(batch)
        for i in range(2):
            for j in range(2):
                expected = np.outer(batch.paths[0, i], batch.paths[0, j].conj())
                np.testing.assert_allclose(est.blocks[i, j], expected, atol=1e-14)

    def test_identity_kernel_two_by_two(self):
        est = empirical_covariance(make_sampler(identity_kernel(ONE_LABEL, 2), 2).draw(200_000))
        assert np.linalg.norm(est.flat - np.eye(2), 2) <= 0.03

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_random_kernel_relative_error(self, seed):
        table = random_pd_kernel(seed, 3, 2)
        est = empirical_covariance(make_sampler(table, seed - 30).draw(200_000))
        rel = np.linalg.norm(est.flat - table.flat) / np.linalg.norm(table.flat)
        assert rel <= 0.02

    def test_estimate_is_positive(self):
        table = random_pd_kernel(8, 2, 2)
        est = empirical_covariance(make_sampler(table, 1).draw(50))
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


class TestSampleJoint:
    def test_independent_parts_have_small_cross_covariance(self):
        joint = assemble_joint(scalar_one(), scalar_one(), scalar_coupling(0.0))
        kp, lp = sample_joint(joint, 1, 200_000)
        cross = float(np.mean(kp.paths[:, 0, 0] * np.conj(lp.paths[:, 0, 0])).real)
        assert abs(cross) <= 5.0 / np.sqrt(200_000)

    def test_coupled_parts_reproduce_coupling(self):
        joint = assemble_joint(scalar_one(), scalar_one(), scalar_coupling(0.5))
        kp, lp = sample_joint(joint, 3, 200_000)
        cross = float(np.mean(kp.paths[:, 0, 0] * np.conj(lp.paths[:, 0, 0])).real)
        assert abs(cross - 0.5) <= 5.0 / np.sqrt(200_000)

    def test_marginal_law_matches_direct_sampler(self):
        # K-part covariance converges to K regardless of the coupling
        k, l, coupling = block_joint_instance(81)
        joint = assemble_joint(k, l, coupling)
        kp, _ = sample_joint(joint, 5, 200_000)
        est = empirical_covariance(kp)
        rel = np.linalg.norm(est.flat - k.flat) / np.linalg.norm(k.flat)
        assert rel <= 0.02


class TestCondition:
    def test_zero_coupling_changes_nothing(self):
        k = random_pd_kernel(2, 2, 2)
        l = random_pd_kernel(3, 2, 2)
        joint = assemble_joint(k, l, np.zeros((2, 2, 2, 2)))
        rng = np.random.default_rng(0)
        law = condition(joint, rng.standard_normal((2, 2)))
        np.testing.assert_allclose(law.posterior_mean, 0, atol=1e-12)
        np.testing.assert_allclose(law.cond_cov.flat, k.flat, atol=1e-12)

    def test_scalar_halves(self):
        joint = assemble_joint(scalar_one(), scalar_one(), scalar_coupling(0.5))
        law = condition(joint, np.array([[2.0]]))
        assert law.posterior_mean[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert law.cond_cov.flat[0, 0] == pytest.approx(0.75, abs=1e-14)
        assert law.mean_map[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_zero_observation_gives_zero_mean(self):
        k, l, coupling = block_joint_instance(66)
        joint = assemble_joint(k, l, coupling)
        law = condition(joint, np.zeros((2, 2)))
        np.testing.assert_array_equal(law.posterior_mean, np.zeros((2, 2)))

    def test_singular_l_is_strict_by_default(self):
        k = random_pd_kernel(4, 1, 2)
        joint = assemble_joint(k, zero_kernel(k.label_set, 2), np.zeros((1, 1, 2, 2)))
        with pytest.raises(SingularL):
            condition(joint, np.zeros((1, 2)))

    def test_singular_l_pseudo_inverse_path(self):
        k = random_pd_kernel(4, 1, 2)
        joint = assemble_joint(k, zero_kernel(k.label_set, 2), np.zeros((1, 1, 2, 2)))
        law = condition(joint, np.zeros((1, 2)), allow_singular=True)
        assert law.null_dim == 2
        np.testing.assert_array_equal(law.mean_map, np.zeros((2, 2)))

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
        law = condition(joint, np.zeros((n, d)))
        for i in range(n):
            per_label = t_blocks[i, i] @ np.linalg.inv(l_blocks[i, i])
            np.testing.assert_allclose(
                law.mean_map[i * d : (i + 1) * d, i * d : (i + 1) * d], per_label, atol=1e-12
            )
        off = law.mean_map.copy()
        for i in range(n):
            off[i * d : (i + 1) * d, i * d : (i + 1) * d] = 0
        np.testing.assert_allclose(off, 0, atol=1e-12)

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
            scalar_kernel(ls, np.array([[2.0]])),
            scalar_kernel(ls, np.array([[1.0]])),
            scalar_kernel(ls, np.array([[1.0]])),
            scalar_kernel(ls, np.array([[0.5]])),
            scalar_coupling(1.0),
        )
        assert not report.equal

    def test_scalar_equal_case(self):
        # L1 = 1/2, L2 = 1: T(L1^{-1} - L2^{-1})T = 1 = K1 - K2
        ls = ONE_LABEL
        report = conditional_cov_equal(
            scalar_kernel(ls, np.array([[2.0]])),
            scalar_kernel(ls, np.array([[1.0]])),
            scalar_kernel(ls, np.array([[0.5]])),
            scalar_kernel(ls, np.array([[1.0]])),
            scalar_coupling(1.0),
        )
        assert report.equal
        assert report.common_pd  # common value 0 is positive semidefinite

    def test_singular_l_rejected(self):
        k = scalar_one()
        with pytest.raises(SingularL):
            conditional_cov_equal(k, k, zero_kernel(ONE_LABEL, 1), k, scalar_coupling(0.0))


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
        kp, lp = sample_joint(joint, 5, 200_000)
        x, y = kp.paths.reshape(-1), lp.paths.reshape(-1)
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
