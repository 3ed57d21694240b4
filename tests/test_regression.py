import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opkern import (
    LabelError,
    ShapeError,
    SingularL,
    SingularSystem,
    TrainingSet,
    design_matrices,
    gp_posterior_mean,
    identity_kernel,
    krr_fit,
    objective_value,
    predict,
    random_pd_kernel,
    scalar_kernel,
    zero_kernel,
)
from conftest import labels


ONE_LABEL = labels(1)


def scalar_one():
    return scalar_kernel(ONE_LABEL, np.array([[1.0]]))


def scalar_training(y=2.0):
    return TrainingSet.from_triples([("s1", [1.0], y)])


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


class TestDesignMatrices:
    def test_single_scalar_sample(self):
        dm = design_matrices(scalar_one(), scalar_one(), scalar_training())
        np.testing.assert_array_equal(dm.kernel_gram, [[1.0]])
        np.testing.assert_array_equal(dm.noise_gram, [[1.0]])

    def test_zero_vectors_give_zero_matrices(self):
        k = random_pd_kernel(1, 2, 2)
        train = TrainingSet.from_triples([("s1", [0.0, 0.0], 1.0), ("s2", [0.0, 0.0], 2.0)])
        dm = design_matrices(k, k, train)
        np.testing.assert_array_equal(dm.kernel_gram, np.zeros((2, 2)))

    def test_identity_kernel_basis_samples(self):
        # samples (s1,e1), (s1,e2), (s2,e1) under K = delta * I give the 3x3 identity
        ls = labels(2)
        k = identity_kernel(ls, 2)
        train = TrainingSet.from_triples(
            [("s1", [1.0, 0.0], 0.0), ("s1", [0.0, 1.0], 0.0), ("s2", [1.0, 0.0], 0.0)]
        )
        dm = design_matrices(k, k, train)
        np.testing.assert_allclose(dm.kernel_gram, np.eye(3), atol=1e-15)

    def test_entries_match_direct_pairing(self):
        k = random_pd_kernel(9, 3, 2)
        rng = np.random.default_rng(1)
        train = TrainingSet.from_triples(
            [
                (s, rng.standard_normal(2) + 1j * rng.standard_normal(2), 0.0)
                for s in ("s2", "s1", "s3", "s1")
            ]
        )
        dm = design_matrices(k, k, train)
        for i in range(4):
            for j in range(4):
                expected = train.vectors[i].conj() @ (
                    k.block(train.labels[i], train.labels[j]) @ train.vectors[j]
                )
                assert dm.kernel_gram[i, j] == pytest.approx(expected, abs=1e-12)

    def test_unknown_label(self):
        with pytest.raises(LabelError):
            design_matrices(
                scalar_one(), scalar_one(), TrainingSet.from_triples([("zz", [1.0], 0.0)])
            )


class TestKrrFit:
    def test_scalar_closed_form(self):
        dm = design_matrices(scalar_one(), scalar_one(), scalar_training(2.0))
        fit = krr_fit(dm, [2.0])
        assert fit.coefficients[0] == pytest.approx(1.0)
        assert fit.fitted[0] == pytest.approx(1.0)

    def test_zero_targets_zero_fit(self):
        k = random_pd_kernel(2, 2, 2)
        train = TrainingSet.from_triples([("s1", [1.0, 0.0], 0.0), ("s2", [0.0, 1.0], 0.0)])
        fit = krr_fit(design_matrices(k, k, train), np.zeros(2))
        np.testing.assert_array_equal(fit.coefficients, np.zeros(2))
        np.testing.assert_array_equal(fit.fitted, np.zeros(2))

    def test_zero_noise_interpolates(self):
        k = random_pd_kernel(3, 2, 2)
        noise = zero_kernel(k.label_set, 2)
        rng = np.random.default_rng(2)
        train = TrainingSet.from_triples(
            [("s1", rng.standard_normal(2), 1.0 + 2.0j), ("s2", rng.standard_normal(2), -0.5)]
        )
        fit = krr_fit(design_matrices(k, noise, train), train.targets)
        np.testing.assert_allclose(fit.fitted, train.targets, atol=1e-10)

    def test_degenerate_design_raises(self):
        # duplicated sample with a rank-one kernel makes [L] + [K] singular
        ls = labels(2)
        rank_one = scalar_kernel(ls, np.ones((2, 2)))
        train = TrainingSet.from_triples([("s1", [1.0], 1.0), ("s2", [1.0], 1.0)])
        dm = design_matrices(rank_one, rank_one, train)
        with pytest.raises(SingularSystem):
            krr_fit(dm, train.targets)


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
        fit = krr_fit(design_matrices(k, noise, train), train.targets)
        for i in range(train.size):
            value = predict(fit, train.labels[i], train.vectors[i])
            assert value == pytest.approx(complex(fit.fitted[i]), abs=1e-12)

    def test_zero_vector_gives_zero(self):
        dm = design_matrices(scalar_one(), scalar_one(), scalar_training())
        fit = krr_fit(dm, [2.0])
        assert predict(fit, "s1", [0.0]) == 0.0

    def test_scalar_example(self):
        dm = design_matrices(scalar_one(), scalar_one(), scalar_training(2.0))
        fit = krr_fit(dm, [2.0])
        assert predict(fit, "s1", [1.0]) == pytest.approx(1.0)


class TestObjective:
    def test_zero_coefficients(self):
        value = objective_value(scalar_one(), scalar_one(), scalar_training(2.0), [2.0], [0.0])
        assert value == pytest.approx(4.0)  # y^H L^{-1} y

    def test_scalar_calculus_example(self):
        # J(g) = (g - 2)^2 + g^2 has minimum 2 at g = 1
        train = scalar_training(2.0)
        at_min = objective_value(scalar_one(), scalar_one(), train, [2.0], [1.0])
        nearby = objective_value(scalar_one(), scalar_one(), train, [2.0], [0.9])
        assert at_min == pytest.approx(2.0)
        assert nearby == pytest.approx(2.02)
        assert nearby > at_min

    def test_singular_noise_rejected(self):
        noise = zero_kernel(ONE_LABEL, 1)
        with pytest.raises(SingularL):
            objective_value(scalar_one(), noise, scalar_training(), [2.0], [0.0])

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
        fit = krr_fit(design_matrices(k, noise, train), train.targets)
        base = objective_value(k, noise, train, train.targets, fit.coefficients)
        for _ in range(34):
            direction = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            perturbed = fit.coefficients + 1e-3 * direction
            assert objective_value(k, noise, train, train.targets, perturbed) >= base - 1e-9

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
        fit = krr_fit(design_matrices(k, noise, train), train.targets)
        fun = lambda g: objective_value(k, noise, train, train.targets, g)
        grad = fd_gradient(fun, fit.coefficients.copy())
        scale = max(1.0, fun(fit.coefficients))
        assert np.linalg.norm(grad) <= 1e-6 * scale

    def test_strict_convexity_separates_minimizers(self):
        # with [K] + [L] >= I, any g within 1e-12 of the optimum value lies
        # within 1e-6 of the optimizer; the resolvent eigenvalues certify it
        k = identity_kernel(labels(2), 1)
        train = TrainingSet.from_triples([("s1", [1.0], 1.0), ("s2", [1.0], -2.0)])
        dm = design_matrices(k, k, train)
        fit = krr_fit(dm, train.targets)
        h = dm.kernel_gram + dm.noise_gram
        lam_min = float(np.linalg.eigvalsh(h)[0])
        assert lam_min >= 1.0
        rng = np.random.default_rng(4)
        base = objective_value(k, k, train, train.targets, fit.coefficients)
        for _ in range(20):
            g = fit.coefficients + 1e-5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            gap = objective_value(k, k, train, train.targets, g) - base
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
        out = gp_posterior_mean(k, zero_kernel(k.label_set, 2), observed)
        np.testing.assert_allclose(out, observed, atol=1e-10)

    def test_scalar_halving(self):
        out = gp_posterior_mean(scalar_one(), scalar_one(), np.array([[2.0]]))
        assert out[0, 0] == pytest.approx(1.0)

    def test_zero_observation(self):
        k = random_pd_kernel(2, 2, 2)
        out = gp_posterior_mean(k, k, np.zeros((2, 2)))
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_singular_resolvent_raises(self):
        z = zero_kernel(ONE_LABEL, 1)
        with pytest.raises(SingularSystem):
            gp_posterior_mean(z, z, np.zeros((1, 1)))

    def test_shape_check(self):
        with pytest.raises(ShapeError):
            gp_posterior_mean(scalar_one(), scalar_one(), np.zeros((2, 2)))


class TestRidgeGpEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_full_grid_fit_matches_posterior_mean(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        k = random_pd_kernel(seed, n, d)
        noise = random_pd_kernel(seed + 100, n, d)
        observed = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        train = full_grid_training(k, observed)
        fit = krr_fit(design_matrices(k, noise, train), train.targets)
        posterior = gp_posterior_mean(k, noise, observed)
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
        fitted = krr_fit(design_matrices(k, noise, train), train.targets).fitted
        posterior = gp_posterior_mean(k, noise, observed).reshape(-1)[order]
        assert np.linalg.norm(fitted - posterior) <= 1e-9 * np.linalg.norm(posterior)

    def test_full_grid_design_equals_flattened_kernel(self):
        k = random_pd_kernel(8, 2, 2)
        train = full_grid_training(k, np.zeros((2, 2)))
        dm = design_matrices(k, k, train)
        np.testing.assert_allclose(dm.kernel_gram, k.flat, atol=1e-14)


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
        dm = design_matrices(k, noise, train)
        norms, forms = [], []
        for lam in (1.0, 2.0, 10.0):
            h = dm.kernel_gram + lam * dm.noise_gram
            c = np.linalg.solve(h, train.targets)
            norms.append(float(np.linalg.norm(c)))
            forms.append(float((train.targets.conj() @ c).real))
        assert norms[0] >= norms[1] >= norms[2]
        assert forms[0] >= forms[1] >= forms[2]
