import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from opkern import (
    RANK_RTOL,
    InternalInvariantViolation,
    LabelError,
    LabelSet,
    NotPositiveDefinite,
    OperatorKernelTable,
    is_positive_definite,
    kolmogorov_factorize,
    random_pd_kernel,
)
from conftest import labels, scalar_table
import oracles


def vdot(x, y):
    # inner product linear in the second argument
    return np.vdot(x, y)


class TestFactorize:
    def test_identity_kernel_features_are_orthonormal_blocks(self, identity_22):
        fs = kolmogorov_factorize(identity_22)
        assert fs.dilation_dim == 4
        for i, s in enumerate(["s1", "s2"]):
            for j, t in enumerate(["s1", "s2"]):
                expected = np.eye(2) if i == j else np.zeros((2, 2))
                np.testing.assert_allclose(fs.operator(s).conj().T @ fs.operator(t), expected, atol=1e-14)

    def test_constant_one_kernel_is_rank_one(self, constant_one):
        # flattening [[1, 1], [1, 1]] has the single eigenpair (2, (1,1)/sqrt(2))
        fs = kolmogorov_factorize(constant_one)
        assert fs.dilation_dim == 1
        assert fs.basis_eigs[0] == pytest.approx(2.0)
        for s in ("s1", "s2"):
            for t in ("s1", "s2"):
                assert (fs.operator(s).conj().T @ fs.operator(t))[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_rank_matches_construction_and_eig_oracle(self):
        table = random_pd_kernel(7, 4, 3, rank=5)
        fs = kolmogorov_factorize(table)
        assert fs.dilation_dim == 5
        assert oracles.rank_by_eigs(table.flat) == 5
        scale = is_positive_definite(table).scale
        worst = max(
            np.linalg.norm(fs.operator(s).conj().T @ fs.operator(t) - table.block(s, t), 2)
            for s in table.labels
            for t in table.labels
        )
        assert worst <= 1e-10 * scale

    def test_rejects_indefinite_table(self):
        with pytest.raises(NotPositiveDefinite):
            kolmogorov_factorize(scalar_table([[1, 2], [2, 1]]))

    @pytest.mark.parametrize("seed,n,d", [(0, 2, 2), (1, 4, 4), (2, 8, 4), (3, 5, 3), (4, 1, 1)])
    def test_factorization_soundness(self, seed, n, d):
        # reconstruction within 1e-10 * ||flat|| for n*d up to 32
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, n * d + 1))
        table = random_pd_kernel(seed, n, d, rank=rank)
        fs = kolmogorov_factorize(table)
        scale = is_positive_definite(table).scale
        assert np.linalg.norm(fs.stacked.conj().T @ fs.stacked - table.flat, 2) <= 1e-10 * scale

    @pytest.mark.parametrize("seed", range(4))
    def test_minimality_full_row_rank(self, seed):
        table = random_pd_kernel(seed, 3, 2, rank=4)
        fs = kolmogorov_factorize(table)
        sv = np.linalg.svd(fs.stacked, compute_uv=False)
        assert sv[-1] > 1e-10 * sv[0]

    def test_gram_agrees_across_factorizations(self):
        # alternative factorization through the matrix square root: inner
        # products must agree even though the raw features differ
        table = random_pd_kernel(13, 3, 2)
        fs = kolmogorov_factorize(table)
        root = scipy.linalg.sqrtm(table.flat)
        d = table.dim_h
        for i, s in enumerate(table.labels):
            for j, t in enumerate(table.labels):
                alt = root[:, i * d : (i + 1) * d].conj().T @ root[:, j * d : (j + 1) * d]
                np.testing.assert_allclose(fs.operator(s).conj().T @ fs.operator(t), alt, atol=1e-10)

    @pytest.mark.parametrize("seed,n,d,rank", [(0, 2, 2, None), (1, 3, 1, 2), (2, 4, 2, 3)])
    def test_norm_is_the_spectral_norm_of_the_table(self, seed, n, d, rank):
        table = random_pd_kernel(seed, n, d, rank)
        fs = kolmogorov_factorize(table)
        assert fs.norm == pytest.approx(np.linalg.norm(table.flat, 2), rel=1e-14)
        assert np.sqrt(fs.norm) == pytest.approx(np.linalg.norm(fs.stacked, 2), rel=1e-14)

    @pytest.mark.parametrize("kind", ["near_cutoff", "rank_5"])
    def test_pinv_is_the_pseudo_inverse_of_the_features(self, kind):
        if kind == "near_cutoff":
            # One eigenvalue 1.001e-10 times the largest: kept, and the smallest singular value is 1e-5.
            rng = np.random.default_rng(7)
            q = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
            w = np.concatenate([[RANK_RTOL * (1 + 1e-3)], rng.uniform(0.1, 1, 4), [1.0]])
            table = OperatorKernelTable.from_flat(labels(3), 2, (q * w) @ q.conj().T)
        else:
            table = random_pd_kernel(3, 4, 3, rank=5)
        fs = kolmogorov_factorize(table)
        assert fs.dilation_dim == {"near_cutoff": 6, "rank_5": 5}[kind]
        expected = np.linalg.pinv(fs.stacked)
        assert np.linalg.norm(fs.pinv - expected, 2) <= 1e-12 * np.linalg.norm(expected, 2)
        # The eigenvectors are orthonormal to rounding; scaling them by sqrt(basis_eigs)
        # magnifies that by at most the condition number of stacked.
        cond = np.sqrt(fs.basis_eigs[0] / fs.basis_eigs[-1])
        assert np.linalg.norm(fs.stacked @ fs.pinv - np.eye(fs.dilation_dim), 2) <= 1e-14 * cond

    def test_norm_of_the_zero_table_is_zero(self):
        assert kolmogorov_factorize(scalar_table([[0.0]])).norm == 0.0

    def test_one_eigendecomposition_per_factorization(self, monkeypatch):
        # the positivity gate reads the eigenvalues of the factorizing eigh
        calls = {"eigh": 0, "eigvalsh": 0}

        def counted(name):
            original = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        table = random_pd_kernel(8, 3, 2)
        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name))
        kolmogorov_factorize(table)
        assert calls == {"eigh": 1, "eigvalsh": 0}

    @pytest.mark.parametrize("tol", [RANK_RTOL, 1e-3])
    def test_perturbed_eigenvectors_fail_the_residual_check(self, tol, monkeypatch):
        table = random_pd_kernel(8, 3, 2)
        eigh = np.linalg.eigh

        def perturbed(a):
            w, u = eigh(a)
            return w, u + 0.05 * np.random.default_rng(0).standard_normal(u.shape)

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(InternalInvariantViolation, match="factorization residual") as exc:
            kolmogorov_factorize(table, tol)
        assert exc.value.residual > tol * np.linalg.norm(table.flat, 2)

    @pytest.mark.parametrize("n,count", [(4, 200), (60, 30), (300, 8)])
    def test_tables_just_inside_the_gate_factor(self, n, count):
        # Spectrum [-(1 - 1e-7) 1e-10, ..., 1]: the computed smallest eigenvalue
        # falls on either side of the gate, and a table inside it has that
        # eigenvalue truncated, a residual of 1e-10 plus the eigensolver's rounding.
        rng = np.random.default_rng(53)
        refused = []
        for _ in range(count):
            q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
            w = np.concatenate([[-1e-10 * (1 - 1e-7)], rng.uniform(0, 1, n - 2), [1.0]])
            table = OperatorKernelTable.from_flat(labels(n), 1, (q * w) @ q.conj().T)
            evals = np.linalg.eigh(table.flat)[0]
            refused.append(evals[0] < -RANK_RTOL * max(-evals[0], evals[-1]))
            if refused[-1]:
                with pytest.raises(NotPositiveDefinite):
                    kolmogorov_factorize(table)
            else:
                assert kolmogorov_factorize(table).dilation_dim == n - 1
        assert 0 < sum(refused) < count  # the gate decides the family both ways

    @pytest.mark.parametrize("inside", [True, False])
    def test_residual_bound_boundary(self, inside, monkeypatch):
        # The identity on C^60 with its largest eigenvalue reported as 1 + x:
        # the reconstruction is off by x, and by rounding in the last ulp.
        n = 60
        allowance = 4.0 * n * np.finfo(np.float64).eps / 2
        x = RANK_RTOL + allowance * (0.5 if inside else 1.5)
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0] + np.eye(n)[-1] * x, np.eye(n)))
        table = OperatorKernelTable.from_flat(labels(n), 1, np.eye(n))
        if inside:
            assert kolmogorov_factorize(table).dilation_dim == n
            return
        with pytest.raises(InternalInvariantViolation, match="factorization residual") as exc:
            kolmogorov_factorize(table)
        assert exc.value.residual == pytest.approx(x, rel=1e-9)

    def test_nan_residual_fails_the_residual_check(self, monkeypatch):
        # Finite eigenvalues pass the positivity gate; NaN eigenvectors make
        # the reconstruction, and so both of its norms, NaN.
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0], np.full(a.shape, np.nan)))
        with pytest.raises(InternalInvariantViolation, match="factorization residual nan exceeds") as exc:
            kolmogorov_factorize(random_pd_kernel(8, 3, 2))
        assert exc.value.exit_code == 1 and np.isnan(exc.value.residual)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        n=st.integers(1, 4),
        d=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_grams_are_covariant_under_label_permutation(self, n, d, seed, data):
        table = random_pd_kernel(seed, n, d, rank=data.draw(st.integers(1, n * d)))
        order = data.draw(st.permutations(range(n)))
        permuted = OperatorKernelTable(
            LabelSet.of(table.labels[i] for i in order), table.blocks[np.ix_(order, order)]
        )
        fs, fs_p = kolmogorov_factorize(table), kolmogorov_factorize(permuted)
        assert fs_p.dilation_dim == fs.dilation_dim
        for s in table.labels:
            for t in table.labels:
                np.testing.assert_allclose(
                    fs_p.operator(s).conj().T @ fs_p.operator(t),
                    fs.operator(s).conj().T @ fs.operator(t),
                    rtol=0,
                    atol=1e-12 * fs.norm,
                )


class TestMinimalDilationDim:
    def test_identity_22(self, identity_22):
        assert kolmogorov_factorize(identity_22).dilation_dim == 4

    def test_constant_one(self, constant_one):
        assert kolmogorov_factorize(constant_one).dilation_dim == 1

    def test_prescribed_rank(self):
        assert kolmogorov_factorize(random_pd_kernel(19, 4, 2, rank=5)).dilation_dim == 5


def unital_table(seed):
    """A random positive table with every ``K(s, s) = I``: the Gram
    ``K(s, t) = Q(s)^H Q(t)`` of three 6 x 2 isometries ``Q(s)``."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((3, 6, 2)) + 1j * rng.standard_normal((3, 6, 2)))[0]
    return OperatorKernelTable(labels(3), np.einsum("ipq,jpr->ijqr", q.conj(), q))


def range_sweep(fs, chain, t, b):
    """The range maps ``V(s_1)V(s_1)^H ... V(s_m)V(s_m)^H`` applied to ``V(t) b``,
    rightmost first."""
    vec = fs.operator(t) @ b
    for s in reversed(chain):
        op = fs.operator(s)
        vec = op @ (op.conj().T @ vec)
    return vec


class TestEmbed:
    """A pair (t, b) sits in the dilation space as ``V(t) b``."""

    def test_zero_vector(self, identity_22):
        fs = kolmogorov_factorize(identity_22)
        np.testing.assert_array_equal(fs.operator("s1") @ np.zeros(2), np.zeros(4))

    def test_identity_kernel_inner_products(self, identity_22):
        fs = kolmogorov_factorize(identity_22)
        v = fs.operator("s1") @ np.array([1.0, 0.0])
        assert vdot(v, v) == pytest.approx(1.0)
        assert vdot(fs.operator("s2") @ np.array([1.0, 0.0]), v) == pytest.approx(0.0, abs=1e-14)

    def test_unknown_label(self, identity_22):
        fs = kolmogorov_factorize(identity_22)
        with pytest.raises(LabelError):
            fs.operator("zz")

    @pytest.mark.parametrize("seed", range(5))
    def test_pairing_reproduces_kernel(self, seed):
        # <V(s) a, V(t) b> = <a, K(s, t) b>, 10 pairs per seed
        table = random_pd_kernel(seed, 3, 2)
        fs = kolmogorov_factorize(table)
        rng = np.random.default_rng(100 + seed)
        for _ in range(10):
            s, t = rng.choice(table.labels, 2)
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lhs = vdot(fs.operator(s) @ a, fs.operator(t) @ b)
            rhs = vdot(a, table.block(s, t) @ b)
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))


class TestAdjointApply:
    """The reproducing identity ``V(s)^H V(t) b = K(s, t) b``."""

    def test_identity_kernel_matches_kronecker_delta(self, identity_22):
        fs = kolmogorov_factorize(identity_22)
        b = np.array([0.3, -1.2])
        out_same = fs.operator("s1").conj().T @ (fs.operator("s1") @ b)
        out_cross = fs.operator("s1").conj().T @ (fs.operator("s2") @ b)
        np.testing.assert_allclose(out_same, b, atol=1e-12)
        np.testing.assert_allclose(out_cross, np.zeros(2), atol=1e-12)

    def test_constant_kernel_scalar(self, constant_one):
        fs = kolmogorov_factorize(constant_one)
        out = fs.operator("s1").conj().T @ (fs.operator("s2") @ np.array([1.0]))
        assert out[0] == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_reproduces_block_multiplication(self, seed):
        table = random_pd_kernel(seed, 4, 2)
        fs = kolmogorov_factorize(table)
        rng = np.random.default_rng(200 + seed)
        scale = is_positive_definite(table).scale
        for _ in range(10):
            s, t = rng.choice(table.labels, 2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            out = fs.operator(s).conj().T @ (fs.operator(t) @ b)
            np.testing.assert_allclose(out, table.block(s, t) @ b, atol=1e-10 * max(scale, 1.0))


class TestProjectionChain:
    """Iterated range maps ``V(s)V(s)^H`` and their closed form
    ``V(s_1) K(s_1, s_2) ... K(s_m, t) b``."""

    def test_projection_fixes_own_range(self, identity_22):
        fs = kolmogorov_factorize(identity_22)
        b = np.array([0.7, 0.2])
        np.testing.assert_allclose(range_sweep(fs, ["s1"], "s1", b), fs.operator("s1") @ b, atol=1e-12)

    def test_constant_kernel_single_hop(self, constant_one):
        fs = kolmogorov_factorize(constant_one)
        out = range_sweep(fs, ["s1"], "s2", np.array([1.0]))
        np.testing.assert_allclose(out, fs.operator("s1") @ np.array([1.0]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_contractive_on_unital_kernels(self, seed):
        table = unital_table(seed)
        assert all(np.allclose(table.block(s, s), np.eye(2), rtol=0, atol=1e-10) for s in table.labels)
        fs = kolmogorov_factorize(table)
        rng = np.random.default_rng(300 + seed)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        out = range_sweep(fs, ["s1", "s2"], "s3", b)
        assert np.linalg.norm(out) <= np.linalg.norm(fs.operator("s3") @ b) + 1e-12

    def test_closed_form_holds_without_unitality(self):
        table = random_pd_kernel(23, 3, 2)
        assert not np.allclose(table.block("s1", "s1"), np.eye(2))
        fs = kolmogorov_factorize(table)
        b = np.array([1.0, -2.0])
        out = range_sweep(fs, ["s2", "s1", "s3"], "s2", b)
        path = table.block("s2", "s1") @ table.block("s1", "s3") @ table.block("s3", "s2")
        expected = fs.operator("s2") @ (path @ b)
        scale = max(float(np.linalg.norm(fs.operator("s2") @ b)), float(np.linalg.norm(expected)))
        assert np.linalg.norm(out - expected) <= 1e-9 * scale


class TestUnitalProperties:
    @pytest.mark.parametrize("seed", range(3))
    def test_features_are_isometric(self, seed):
        table = unital_table(seed)
        fs = kolmogorov_factorize(table)
        rng = np.random.default_rng(400 + seed)
        for _ in range(34):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            for s in table.labels:
                assert np.linalg.norm(fs.operator(s) @ a) == pytest.approx(np.linalg.norm(a), rel=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_range_maps_are_projections(self, seed):
        table = unital_table(seed)
        fs = kolmogorov_factorize(table)
        for s in table.labels:
            op = fs.operator(s)
            proj = op @ op.conj().T
            assert np.linalg.norm(proj @ proj - proj, 2) <= 1e-9
            assert np.linalg.norm(proj.conj().T - proj, 2) <= 1e-9
