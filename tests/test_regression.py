import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opkern import (
    LabelError,
    LabelSet,
    NotPositiveDefinite,
    OperatorKernelTable,
    OpKernError,
    ShapeError,
    SingularL,
    SingularSystem,
    TrainingSet,
    assemble_joint,
    condition,
    design_matrices,
    identity_kernel,
    krr_fit,
    predict,
    random_pd_kernel,
)
from conftest import labels
import oracles


ONE_LABEL = labels(1)


def scalar_one():
    return OperatorKernelTable.from_flat(ONE_LABEL, 1, np.array([[1.0]]))


def scalar_training(y=2.0):
    return TrainingSet.from_triples([("s1", [1.0], y)])


def posterior_mean(kernel, noise, observed):
    """The signal's posterior mean given signal plus noise on the full grid:
    conditioning of the joint (K, K + L, T = K)."""
    signal_plus_noise = OperatorKernelTable.from_flat(kernel.label_set, kernel.dim_h, kernel.flat + noise.flat)
    return condition(assemble_joint(kernel, signal_plus_noise, kernel.blocks), observed)


def full_grid_training(table, observed):
    triples = []
    for i, s in enumerate(table.labels):
        for p in range(table.dim_h):
            e = np.zeros(table.dim_h)
            e[p] = 1.0
            triples.append((s, e, observed[i, p]))
    return TrainingSet.from_triples(triples)


def fd_gradient(fun, g, step=1e-5):
    """Central finite differences over the real and imaginary parts."""
    grad = np.zeros(2 * g.size)
    for idx in range(g.size):
        for part, offset in ((1.0, 0), (1.0j, g.size)):
            h = step * max(1.0, abs(g[idx]))
            up, down = g.copy(), g.copy()
            up[idx] += part * h
            down[idx] -= part * h
            grad[idx + offset] = (fun(up) - fun(down)) / (2 * h)
    return grad


class TestTrainingSet:
    def test_from_triples(self):
        train = TrainingSet.from_triples([("a", [1.0, 2.0], 3.0), ("b", [0.0, 1.0], 1j)])
        assert train.size == 2
        assert train.labels == ("a", "b")
        assert train.targets[1] == 1j

    def test_rejects_empty(self):
        with pytest.raises(Exception):
            TrainingSet.from_triples([])

    def test_rejects_arrays_of_the_wrong_shape(self):
        with pytest.raises(ShapeError, match=r"vectors must be \(2, d\), got \(3, 1\)"):
            TrainingSet(labels=("a", "b"), vectors=np.ones((3, 1)), targets=np.ones(2))
        with pytest.raises(ShapeError, match=r"targets must be \(2,\), got \(2, 1\)"):
            TrainingSet(labels=("a", "b"), vectors=np.ones((2, 1)), targets=np.ones((2, 1)))


class TestDesignMatrices:
    def test_single_scalar_sample(self):
        kernel_gram, noise_gram = design_matrices(scalar_one(), scalar_one(), scalar_training())
        np.testing.assert_array_equal(kernel_gram, [[1.0]])
        np.testing.assert_array_equal(noise_gram, [[1.0]])

    def test_zero_vectors_give_zero_matrices(self):
        k = random_pd_kernel(1, 2, 2)
        train = TrainingSet.from_triples([("s1", [0.0, 0.0], 1.0), ("s2", [0.0, 0.0], 2.0)])
        kernel_gram, _ = design_matrices(k, k, train)
        np.testing.assert_array_equal(kernel_gram, np.zeros((2, 2)))

    def test_identity_kernel_basis_samples(self):
        # samples (s1,e1), (s1,e2), (s2,e1) under K = delta * I give the 3x3 identity
        ls = labels(2)
        k = identity_kernel(ls, 2)
        train = TrainingSet.from_triples(
            [("s1", [1.0, 0.0], 0.0), ("s1", [0.0, 1.0], 0.0), ("s2", [1.0, 0.0], 0.0)]
        )
        kernel_gram, _ = design_matrices(k, k, train)
        np.testing.assert_allclose(kernel_gram, np.eye(3), atol=1e-15)

    def test_entries_match_direct_pairing(self):
        k = random_pd_kernel(9, 3, 2)
        rng = np.random.default_rng(1)
        train = TrainingSet.from_triples(
            [
                (s, rng.standard_normal(2) + 1j * rng.standard_normal(2), 0.0)
                for s in ("s2", "s1", "s3", "s1")
            ]
        )
        kernel_gram, _ = design_matrices(k, k, train)
        for i in range(4):
            for j in range(4):
                expected = train.vectors[i].conj() @ (
                    k.block(train.labels[i], train.labels[j]) @ train.vectors[j]
                )
                assert kernel_gram[i, j] == pytest.approx(expected, abs=1e-12)

    def test_row_blocks_equal_one_einsum_bitwise(self):
        # m = 203 spans four row blocks of 64; labels repeat in shuffled order
        k, noise = random_pd_kernel(11, 7, 3), random_pd_kernel(12, 7, 3)
        rng = np.random.default_rng(2)
        m = 203
        train = TrainingSet(
            labels=tuple(rng.choice(k.labels, size=m)),
            vectors=rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3)),
            targets=np.zeros(m, dtype=complex),
        )
        rows = np.array([k.label_set.index(s) for s in train.labels])
        for table, gram in zip((k, noise), design_matrices(k, noise, train)):
            whole = np.einsum("ip,ijpq,jq->ij", train.vectors.conj(), table.blocks[np.ix_(rows, rows)], train.vectors)
            assert gram.tobytes() == (0.5 * (whole + whole.conj().T)).tobytes()

    def test_unknown_label(self):
        with pytest.raises(LabelError):
            design_matrices(
                scalar_one(), scalar_one(), TrainingSet.from_triples([("zz", [1.0], 0.0)])
            )

    def test_vectors_of_another_length_than_the_kernel(self):
        train = TrainingSet.from_triples([("s1", [1.0, 0.0], 0.0)])
        with pytest.raises(ShapeError, match="training vectors have length 2, kernel expects 1"):
            design_matrices(scalar_one(), scalar_one(), train)


def diagonal_fit_inputs(diagonal):
    """A scalar kernel over distinct labels whose Gram is ``diag(diagonal)``
    and one row ``a = 1`` per label, so the signal design matrix is that
    Gram exactly; a diagonal Hermitian matrix has exactly its diagonal as
    eigenvalues, so a gate threshold of a power of ten can be met at
    ``(1 -/+ 1e-6)`` times it."""
    ls = labels(len(diagonal))
    kernel = OperatorKernelTable.from_flat(ls, 1, np.diag(diagonal))
    train = TrainingSet.from_triples([(s, [1.0], 1.0) for s in ls.labels])
    np.testing.assert_array_equal(np.linalg.eigvalsh(kernel.flat), np.sort(diagonal))
    return kernel, train


class TestGateBoundaries:
    # Each gate that a Cholesky certificate fronts, at (1 -/+ 1e-6) times its
    # threshold, pinned at the literal 1e-10; the certificate declines this
    # close, so the eigenvalue gate decides and names what it measured.
    def test_design_matrix_gate_at_minus_1e_10_times_the_norm(self):
        gate = -1e-10  # PD_RTOL times the spectral norm, 1
        kernel, train = diagonal_fit_inputs([0.5, gate * (1 - 1e-6), 1.0])
        noise = identity_kernel(kernel.label_set, 1)
        kernel_gram, _ = design_matrices(kernel, noise, train)
        assert kernel_gram.tobytes() == kernel.flat.tobytes()
        kernel, train = diagonal_fit_inputs([0.5, gate * (1 + 1e-6), 1.0])
        with pytest.raises(NotPositiveDefinite, match=r"^signal design matrix is not positive "
                           r"\(min eig -1\.000e-10 < -1e-10 \* 1\.000e\+00\)$"):
            design_matrices(kernel, noise, train)

    def test_ridge_system_gate_at_1e_10_times_the_largest_eigenvalue(self):
        gate = 1e-10  # RANK_RTOL times the largest eigenvalue, 1
        for factor in (1 + 1e-6, 1 - 1e-6):
            kernel, train = diagonal_fit_inputs([1.0, gate * factor])
            zero = OperatorKernelTable.from_flat(kernel.label_set, 1, np.zeros((2, 2)))
            if factor > 1:
                fit = krr_fit(kernel, zero, train)
                np.testing.assert_allclose(fit.coefficients, [1.0, 1.0 / (gate * factor)], rtol=1e-15)
            else:
                with pytest.raises(SingularSystem, match=r"^\[L\] \+ \[K\] is numerically singular "
                                   r"\(eigs in \[1\.000e-10, 1\.000e\+00\]\)$"):
                    krr_fit(kernel, zero, train)


class TestKrrFit:
    def test_scalar_closed_form(self):
        fit = krr_fit(scalar_one(), scalar_one(), scalar_training(2.0))
        assert fit.coefficients[0] == pytest.approx(1.0)
        assert fit.fitted[0] == pytest.approx(1.0)

    def test_zero_targets_zero_fit(self):
        k = random_pd_kernel(2, 2, 2)
        train = TrainingSet.from_triples([("s1", [1.0, 0.0], 0.0), ("s2", [0.0, 1.0], 0.0)])
        fit = krr_fit(k, k, train)
        np.testing.assert_array_equal(fit.coefficients, np.zeros(2))
        np.testing.assert_array_equal(fit.fitted, np.zeros(2))

    def test_zero_noise_interpolates(self):
        k = random_pd_kernel(3, 2, 2)
        noise = OperatorKernelTable.from_flat(k.label_set, 2, np.zeros((4, 4)))
        rng = np.random.default_rng(2)
        train = TrainingSet.from_triples(
            [("s1", rng.standard_normal(2), 1.0 + 2.0j), ("s2", rng.standard_normal(2), -0.5)]
        )
        fit = krr_fit(k, noise, train)
        np.testing.assert_allclose(fit.fitted, train.targets, atol=1e-10)

    def test_degenerate_design_raises(self):
        # duplicated sample with a rank-one kernel makes [L] + [K] singular
        ls = labels(2)
        rank_one = OperatorKernelTable.from_flat(ls, 1, np.ones((2, 2)))
        train = TrainingSet.from_triples([("s1", [1.0], 1.0), ("s2", [1.0], 1.0)])
        with pytest.raises(SingularSystem):
            krr_fit(rank_one, rank_one, train)


class TestPredict:
    def test_training_point_consistency(self):
        k = random_pd_kernel(5, 3, 2)
        noise = random_pd_kernel(6, 3, 2)
        rng = np.random.default_rng(3)
        train = TrainingSet.from_triples(
            [
                (s, rng.standard_normal(2) + 1j * rng.standard_normal(2), rng.standard_normal())
                for s in ("s1", "s2", "s3", "s2")
            ]
        )
        fit = krr_fit(k, noise, train)
        f_values = fit.regression_function
        values = predict(k.label_set, f_values, train.labels, train.vectors)
        np.testing.assert_allclose(values, fit.fitted, rtol=0, atol=1e-12)

    def test_matches_the_loop_over_training_points(self):
        # f(s, a) = sum_j <a, K(s, s_j) a_j> c_j, one query and one j at a time
        k = random_pd_kernel(7, 4, 3)
        rng = np.random.default_rng(9)
        train = TrainingSet.from_triples(
            [(s, rng.standard_normal(3) + 1j * rng.standard_normal(3), rng.standard_normal())
             for s in ("s4", "s1", "s4", "s2", "s1")]
        )
        fit = krr_fit(k, random_pd_kernel(8, 4, 3), train)
        f_values = fit.regression_function
        q_labels = ["s3", "s1", "s4", "s1"]
        q_vectors = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        values = predict(k.label_set, f_values, q_labels, q_vectors)
        for q, (s, a) in enumerate(zip(q_labels, q_vectors)):
            ref = sum(a.conj() @ k.block(s, t) @ b * c
                      for t, b, c in zip(train.labels, train.vectors, fit.coefficients))
            assert values[q] == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))

    def test_zero_vector_gives_zero(self):
        f_values = krr_fit(scalar_one(), scalar_one(), scalar_training()).regression_function
        assert predict(ONE_LABEL, f_values, ["s1"], [[0.0]])[0] == 0.0

    def test_scalar_example(self):
        f_values = krr_fit(scalar_one(), scalar_one(), scalar_training(2.0)).regression_function
        assert predict(ONE_LABEL, f_values, ["s1"], [[1.0]])[0] == pytest.approx(1.0)

    def test_no_queries(self):
        f_values = krr_fit(scalar_one(), scalar_one(), scalar_training()).regression_function
        assert predict(ONE_LABEL, f_values, [], np.zeros((0, 1))).shape == (0,)

    def test_unknown_label_and_wrong_length(self):
        f_values = krr_fit(scalar_one(), scalar_one(), scalar_training()).regression_function
        with pytest.raises(LabelError):
            predict(ONE_LABEL, f_values, ["zz"], [[1.0]])
        with pytest.raises(ShapeError):
            predict(ONE_LABEL, f_values, ["s1"], [[1.0, 0.0]])


class TestObjective:
    def test_zero_coefficients(self):
        value = oracles.ridge_objective(scalar_one(), scalar_one(), scalar_training(2.0), [2.0], [0.0])
        assert value == pytest.approx(4.0)  # y^H L^{-1} y

    def test_scalar_calculus_example(self):
        # J(g) = (g - 2)^2 + g^2 has minimum 2 at g = 1
        train = scalar_training(2.0)
        at_min = oracles.ridge_objective(scalar_one(), scalar_one(), train, [2.0], [1.0])
        nearby = oracles.ridge_objective(scalar_one(), scalar_one(), train, [2.0], [0.9])
        assert at_min == pytest.approx(2.0)
        assert nearby == pytest.approx(2.02)
        assert nearby > at_min

    @pytest.mark.parametrize("seed", range(3))
    def test_fit_is_a_minimum_under_perturbations(self, seed):
        k = random_pd_kernel(seed, 2, 2)
        noise = random_pd_kernel(seed + 50, 2, 2)
        rng = np.random.default_rng(seed)
        train = TrainingSet.from_triples(
            [
                (s, rng.standard_normal(2) + 1j * rng.standard_normal(2), rng.standard_normal())
                for s in ("s1", "s2", "s1")
            ]
        )
        fit = krr_fit(k, noise, train)
        base = oracles.ridge_objective(k, noise, train, train.targets, fit.coefficients)
        for _ in range(34):
            direction = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            perturbed = fit.coefficients + 1e-3 * direction
            assert oracles.ridge_objective(k, noise, train, train.targets, perturbed) >= base - 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_vanishes_at_fit(self, seed):
        k = random_pd_kernel(seed + 10, 2, 2)
        noise = random_pd_kernel(seed + 60, 2, 2)
        rng = np.random.default_rng(seed + 7)
        train = TrainingSet.from_triples(
            [
                (s, rng.standard_normal(2) + 1j * rng.standard_normal(2), rng.standard_normal())
                for s in ("s1", "s2")
            ]
        )
        fit = krr_fit(k, noise, train)
        fun = lambda g: oracles.ridge_objective(k, noise, train, train.targets, g)
        grad = fd_gradient(fun, fit.coefficients.copy())
        scale = max(1.0, fun(fit.coefficients))
        assert np.linalg.norm(grad) <= 1e-6 * scale

    def test_strict_convexity_separates_minimizers(self):
        # with [K] + [L] >= I, any g within 1e-12 of the optimum value lies
        # within 1e-6 of the optimizer; the resolvent eigenvalues certify it
        k = identity_kernel(labels(2), 1)
        train = TrainingSet.from_triples([("s1", [1.0], 1.0), ("s2", [1.0], -2.0)])
        fit = krr_fit(k, k, train)
        kernel_gram, noise_gram = design_matrices(k, k, train)
        h = kernel_gram + noise_gram
        lam_min = float(np.linalg.eigvalsh(h)[0])
        assert lam_min >= 1.0
        rng = np.random.default_rng(4)
        base = oracles.ridge_objective(k, k, train, train.targets, fit.coefficients)
        for _ in range(20):
            g = fit.coefficients + 1e-5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            gap = oracles.ridge_objective(k, k, train, train.targets, g) - base
            dist_sq = float(np.linalg.norm(g - fit.coefficients) ** 2)
            # quadratic expansion of the objective around the optimum
            assert gap == pytest.approx(
                float(((g - fit.coefficients).conj() @ h @ (g - fit.coefficients)).real),
                rel=1e-6,
            )
            assert gap >= lam_min * dist_sq * (1 - 1e-6)


class TestGpPosteriorMean:
    def test_zero_noise_returns_observation(self):
        k = random_pd_kernel(1, 2, 2)
        observed = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = posterior_mean(k, OperatorKernelTable.from_flat(k.label_set, 2, np.zeros((4, 4))), observed)
        np.testing.assert_allclose(out, observed, atol=1e-10)

    def test_scalar_halving(self):
        out = posterior_mean(scalar_one(), scalar_one(), np.array([[2.0]]))
        assert out[0, 0] == pytest.approx(1.0)

    def test_singular_resolvent_raises(self):
        z = OperatorKernelTable.from_flat(ONE_LABEL, 1, [[0.0]])
        with pytest.raises(SingularL):
            posterior_mean(z, z, np.zeros((1, 1)))


class TestRidgeGpEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_full_grid_fit_matches_posterior_mean(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        k = random_pd_kernel(seed, n, d)
        noise = random_pd_kernel(seed + 100, n, d)
        observed = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        train = full_grid_training(k, observed)
        fit = krr_fit(k, noise, train)
        posterior = posterior_mean(k, noise, observed)
        scale = max(1.0, float(np.linalg.norm(observed)))
        assert np.linalg.norm(fit.fitted - posterior.reshape(-1)) <= 1e-9 * scale

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        n=st.integers(1, 4),
        d=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        magnitude=st.sampled_from([1e-100, 1.0, 1e100]),
        data=st.data(),
    )
    def test_full_grid_fit_is_the_posterior_mean(self, n, d, seed, magnitude, data):
        # any rank of K, any order of the grid points, any scale of the data
        k = random_pd_kernel(seed, n, d, rank=data.draw(st.integers(1, n * d)))
        noise = random_pd_kernel(seed + 1, n, d)
        rng = np.random.default_rng(seed)
        observed = magnitude * (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
        order = data.draw(st.permutations(range(n * d)))
        grid = full_grid_training(k, observed)
        train = TrainingSet(
            labels=tuple(grid.labels[i] for i in order), vectors=grid.vectors[order], targets=grid.targets[order]
        )
        fit = krr_fit(k, noise, train)
        f_values = fit.regression_function
        posterior = posterior_mean(k, noise, observed)
        scale = np.linalg.norm(posterior)
        assert np.linalg.norm(fit.fitted - posterior.reshape(-1)[order]) <= 1e-9 * scale
        # The paper's H-valued regression: F(s) in C^d is the posterior mean
        # of the H-valued process at s, all d coordinates at once.
        assert np.linalg.norm(f_values - posterior) <= 1e-9 * scale

    def test_full_grid_design_equals_flattened_kernel(self):
        k = random_pd_kernel(8, 2, 2)
        train = full_grid_training(k, np.zeros((2, 2)))
        kernel_gram, _ = design_matrices(k, k, train)
        np.testing.assert_allclose(kernel_gram, k.flat, atol=1e-14)


class TestRegularizationScaling:
    @pytest.mark.parametrize("seed", range(5))
    def test_norm_of_coefficients_shrinks_generically(self, seed):
        # generic behavior at frozen seeds; the always-true statement (also
        # asserted) is monotonicity of the quadratic form y^H H^{-1} y
        k = random_pd_kernel(seed + 20, 2, 2)
        noise = random_pd_kernel(seed + 70, 2, 2)
        rng = np.random.default_rng(seed)
        train = TrainingSet.from_triples(
            [
                (s, rng.standard_normal(2) + 1j * rng.standard_normal(2), rng.standard_normal())
                for s in ("s1", "s2", "s1")
            ]
        )
        kernel_gram, noise_gram = design_matrices(k, noise, train)
        norms, forms = [], []
        for lam in (1.0, 2.0, 10.0):
            h = kernel_gram + lam * noise_gram
            c = np.linalg.solve(h, train.targets)
            norms.append(float(np.linalg.norm(c)))
            forms.append(float((train.targets.conj() @ c).real))
        assert norms[0] >= norms[1] >= norms[2]
        assert forms[0] >= forms[1] >= forms[2]


def permuted(table, order):
    """``table`` over its labels taken in ``order``: block ``(i, j)`` is
    block ``(order[i], order[j])`` of ``table``."""
    ls = LabelSet.of(table.labels[i] for i in order)
    return OperatorKernelTable(ls, table.blocks[np.ix_(order, order)])


def outcome(step):
    """``step()``, or the class of the opkern error that it raised: a gate's decision."""
    try:
        return step()
    except OpKernError as exc:
        return type(exc)


def relative_gap(got, want) -> float:
    return float(np.max(np.abs(got - want), initial=0.0)) / max(float(np.max(np.abs(want), initial=0.0)), 1e-300)


class TestLabelPermutation:
    """Relabelling reorders, and nothing else: permuting the labels permutes
    F and condition's posterior blocks to 1e-12 relative, moves every
    prediction by at most 1e-12 of ``|a| ||F(s)||``, and changes no gate's
    decision.  Shifted or rank-deficient tables make some gates fail."""

    PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

    @PROPERTY
    @given(
        n=st.integers(2, 4),
        d=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
        shift=st.sampled_from([0.0, 0.0, 2.0, 100.0]),
        data=st.data(),
    )
    def test_regression(self, n, d, seed, shift, data):
        order = data.draw(st.permutations(range(n)))
        rank = data.draw(st.integers(1, n * d))
        k = OperatorKernelTable.from_flat(labels(n), d, random_pd_kernel(seed, n, d).flat - shift * np.eye(n * d))
        noise = random_pd_kernel(seed + 1, n, d, rank)
        rng = np.random.default_rng(seed)
        # One training point on each label but the last, which has none.
        train = TrainingSet.from_triples(
            (f"s{i + 1}", rng.standard_normal(d) + 1j * rng.standard_normal(d), rng.standard_normal())
            for i in range(n - 1)
        )
        q_labels = [f"s{i + 1}" for i in rng.integers(0, n, size=5)]
        q_vectors = rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d))

        def run(table, noise_table):
            f_values = krr_fit(table, noise_table, train).regression_function
            return f_values, predict(table.label_set, f_values, q_labels, q_vectors)

        first = outcome(lambda: run(k, noise))
        second = outcome(lambda: run(permuted(k, order), permuted(noise, order)))
        if isinstance(first, type):
            assert second is first
            return
        (f_values, values), (f_perm, values_perm) = first, second
        assert relative_gap(f_perm, f_values[order]) <= 1e-12
        rows = [k.label_set.index(s) for s in q_labels]
        scale = np.linalg.norm(q_vectors, axis=1) * np.linalg.norm(f_values[rows], axis=1)
        assert np.all(np.abs(values_perm - values) <= 1e-12 * scale)

    @PROPERTY
    @given(
        n=st.integers(2, 3),
        d=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
        lam=st.sampled_from([0.0, 0.5, 1.0, 1.5]),
        data=st.data(),
    )
    def test_conditioning(self, n, d, seed, lam, data):
        order = data.draw(st.permutations(range(n)))
        # Full rank, rank n*d (a zero Schur complement) or an L of rank below n*d.
        rank = data.draw(st.sampled_from([2 * n * d, 2 * n * d, n * d, n * d - 1 or 1]))
        big = random_pd_kernel(seed, n, 2 * d, rank)
        k = OperatorKernelTable(big.label_set, big.blocks[:, :, :d, :d])
        l = OperatorKernelTable(big.label_set, big.blocks[:, :, d:, d:])
        coupling = lam * big.blocks[:, :, :d, d:]
        rng = np.random.default_rng(seed)
        observed = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))

        def run(k_table, l_table, t_blocks, y):
            joint = assemble_joint(k_table, l_table, t_blocks)
            return condition(joint, y), joint.schur.blocks

        first = outcome(lambda: run(k, l, coupling, observed))
        second = outcome(lambda: run(permuted(k, order), permuted(l, order),
                                     coupling[np.ix_(order, order)], observed[order]))
        if isinstance(first, type):
            assert second is first
            return
        (mean, schur), (mean_perm, schur_perm) = first, second
        assert relative_gap(mean_perm, mean[order]) <= 1e-12
        # A Schur complement that is zero in exact arithmetic is rounding at the scale of K.
        scale = max(float(np.max(np.abs(schur))), float(np.max(np.abs(k.blocks))))
        assert float(np.max(np.abs(schur_perm - schur[np.ix_(order, order)]))) <= 1e-12 * scale
