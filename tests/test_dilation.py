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
    ShapeError,
    adjoint_apply,
    embed,
    has_unit_diagonal,
    is_positive_definite,
    kolmogorov_factorize,
    minimal_dilation_dim,
    normalize_diagonal,
    projection_chain,
    random_pd_kernel,
)
from conftest import scalar_table
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
                np.testing.assert_allclose(fs.gram(s, t), expected, atol=1e-14)

    def test_constant_one_kernel_is_rank_one(self, constant_one):
        # flattening [[1, 1], [1, 1]] has the single eigenpair (2, (1,1)/sqrt(2))
        fs = kolmogorov_factorize(constant_one)
        assert fs.dilation_dim == 1
        assert fs.basis_eigs[0] == pytest.approx(2.0)
        for s in ("s1", "s2"):
            for t in ("s1", "s2"):
                assert fs.gram(s, t)[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_rank_matches_construction_and_eig_oracle(self):
        table = random_pd_kernel(7, 4, 3, rank=5)
        fs = kolmogorov_factorize(table)
        assert fs.dilation_dim == 5
        assert oracles.rank_by_eigs(table.flat) == 5
        scale = is_positive_definite(table).scale
        worst = max(
            np.linalg.norm(fs.gram(s, t) - table.block(s, t), 2)
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
                np.testing.assert_allclose(fs.gram(s, t), alt, atol=1e-10)

    @pytest.mark.parametrize("seed,n,d,rank", [(0, 2, 2, None), (1, 3, 1, 2), (2, 4, 2, 3)])
    def test_norm_is_the_spectral_norm_of_the_table(self, seed, n, d, rank):
        table = random_pd_kernel(seed, n, d, rank)
        fs = kolmogorov_factorize(table)
        assert fs.norm == pytest.approx(np.linalg.norm(table.flat, 2), rel=1e-14)
        assert np.sqrt(fs.norm) == pytest.approx(np.linalg.norm(fs.stacked, 2), rel=1e-14)

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
                np.testing.assert_allclose(fs_p.gram(s, t), fs.gram(s, t), rtol=0, atol=1e-12 * fs.norm)


class TestMinimalDilationDim:
    def test_identity_22(self, identity_22):
        assert minimal_dilation_dim(identity_22) == 4

    def test_constant_one(self, constant_one):
        assert minimal_dilation_dim(constant_one) == 1

    def test_prescribed_rank(self):
        assert minimal_dilation_dim(random_pd_kernel(19, 4, 2, rank=5)) == 5


class TestEmbed:
    def test_zero_vector(self, identity_22):
        fs = kolmogorov_factorize(identity_22)
        np.testing.assert_array_equal(embed(fs, "s1", np.zeros(2)), np.zeros(4))

    def test_identity_kernel_inner_products(self, identity_22):
        fs = kolmogorov_factorize(identity_22)
        v = embed(fs, "s1", np.array([1.0, 0.0]))
        assert vdot(v, v) == pytest.approx(1.0)
        assert vdot(embed(fs, "s2", np.array([1.0, 0.0])), v) == pytest.approx(0.0, abs=1e-14)

    def test_unknown_label(self, identity_22):
        fs = kolmogorov_factorize(identity_22)
        with pytest.raises(LabelError):
            embed(fs, "zz", np.zeros(2))

    def test_wrong_length(self, identity_22):
        fs = kolmogorov_factorize(identity_22)
        with pytest.raises(ShapeError):
            embed(fs, "s1", np.zeros(3))

    @pytest.mark.parametrize("seed", range(5))
    def test_pairing_reproduces_kernel(self, seed):
        # <embed(s, a), embed(t, b)> = <a, K(s, t) b>, 10 pairs per seed
        table = random_pd_kernel(seed, 3, 2)
        fs = kolmogorov_factorize(table)
        rng = np.random.default_rng(100 + seed)
        for _ in range(10):
            s, t = rng.choice(table.labels, 2)
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lhs = vdot(embed(fs, s, a), embed(fs, t, b))
            rhs = vdot(a, table.block(s, t) @ b)
            assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))


class TestAdjointApply:
    def test_identity_kernel_matches_kronecker_delta(self, identity_22):
        fs = kolmogorov_factorize(identity_22)
        b = np.array([0.3, -1.2])
        out_same = adjoint_apply(fs, "s1", embed(fs, "s1", b))
        out_cross = adjoint_apply(fs, "s1", embed(fs, "s2", b))
        np.testing.assert_allclose(out_same, b, atol=1e-12)
        np.testing.assert_allclose(out_cross, np.zeros(2), atol=1e-12)

    def test_constant_kernel_scalar(self, constant_one):
        fs = kolmogorov_factorize(constant_one)
        out = adjoint_apply(fs, "s1", embed(fs, "s2", np.array([1.0])))
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
            out = adjoint_apply(fs, s, embed(fs, t, b))
            np.testing.assert_allclose(out, table.block(s, t) @ b, atol=1e-10 * max(scale, 1.0))


class TestProjectionChain:
    def test_projection_fixes_own_range(self, identity_22):
        fs = kolmogorov_factorize(identity_22)
        b = np.array([0.7, 0.2])
        start = embed(fs, "s1", b)
        np.testing.assert_allclose(projection_chain(fs, ["s1"], "s1", b), start, atol=1e-12)

    def test_constant_kernel_single_hop(self, constant_one):
        fs = kolmogorov_factorize(constant_one)
        out = projection_chain(fs, ["s1"], "s2", np.array([1.0]))
        np.testing.assert_allclose(out, embed(fs, "s1", np.array([1.0])), atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_contractive_on_unital_kernels(self, seed):
        table = normalize_diagonal(random_pd_kernel(seed, 3, 2))
        assert has_unit_diagonal(table)
        fs = kolmogorov_factorize(table)
        rng = np.random.default_rng(300 + seed)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        out = projection_chain(fs, ["s1", "s2"], "s3", b)
        assert np.linalg.norm(out) <= np.linalg.norm(embed(fs, "s3", b)) + 1e-12

    def test_closed_form_holds_without_unitality(self):
        # non-unital table: the sweep must still match the adjoint-identity
        # closed form (checked internally; reaching the return is the assert)
        table = random_pd_kernel(23, 3, 2)
        assert not has_unit_diagonal(table)
        fs = kolmogorov_factorize(table)
        out = projection_chain(fs, ["s2", "s1", "s3"], "s2", np.array([1.0, -2.0]))
        assert np.all(np.isfinite(out))

    def test_empty_chain_returns_embedding(self, identity_22):
        fs = kolmogorov_factorize(identity_22)
        b = np.array([1.0, 1.0])
        np.testing.assert_array_equal(projection_chain(fs, [], "s2", b), embed(fs, "s2", b))


class TestUnitalProperties:
    @pytest.mark.parametrize("seed", range(3))
    def test_features_are_isometric(self, seed):
        table = normalize_diagonal(random_pd_kernel(seed, 3, 2))
        fs = kolmogorov_factorize(table)
        rng = np.random.default_rng(400 + seed)
        for _ in range(34):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            for s in table.labels:
                assert np.linalg.norm(embed(fs, s, a)) == pytest.approx(
                    np.linalg.norm(a), rel=1e-10
                )

    @pytest.mark.parametrize("seed", range(3))
    def test_range_maps_are_projections(self, seed):
        table = normalize_diagonal(random_pd_kernel(seed, 3, 2))
        fs = kolmogorov_factorize(table)
        for s in table.labels:
            op = fs.operator(s)
            proj = op @ op.conj().T
            assert np.linalg.norm(proj @ proj - proj, 2) <= 1e-9
            assert np.linalg.norm(proj.conj().T - proj, 2) <= 1e-9
