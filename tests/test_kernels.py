import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opkern import (
    PD_RTOL,
    RANK_RTOL,
    InternalInvariantViolation,
    InvalidKernel,
    LabelError,
    LabelSet,
    NotDominated,
    NotPositiveDefinite,
    NotStrictContraction,
    OperatorKernelTable,
    ShapeError,
    SingularL,
    SingularSystem,
    cp_contraction_kernel,
    flatten,
    identity_kernel,
    is_positive_definite,
    kernel_leq,
    neumann_series_kernel,
    normalize_diagonal,
    random_pd_kernel,
    scalar_kernel,
    zero_kernel,
)
from opkern.kernels import (
    HERMITIAN_RTOL,
    _block_frobenius,
    _series_length,
    block_layout,
    gated_solve,
    require_invertible,
    require_psd,
)
from conftest import labels, scalar_table
import oracles

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


class TestLabelSet:
    def test_rejects_duplicates(self):
        with pytest.raises(InvalidKernel):
            LabelSet.of(["a", "a"])

    def test_rejects_empty(self):
        with pytest.raises(InvalidKernel):
            LabelSet.of([])

    def test_unknown_label(self):
        with pytest.raises(LabelError):
            labels(2).index("nope")

    def test_ordering_is_preserved(self):
        ls = LabelSet.of(["z", "a", "m"])
        assert ls.labels == ("z", "a", "m")
        assert ls.index("m") == 2


class TestTableConstruction:
    def test_rejects_non_finite(self, two_labels):
        blocks = np.zeros((2, 2, 1, 1), dtype=complex)
        blocks[0, 1, 0, 0] = np.nan
        with pytest.raises(InvalidKernel):
            OperatorKernelTable(two_labels, blocks)

    def test_rejects_gross_asymmetry(self, two_labels):
        blocks = np.zeros((2, 2, 1, 1), dtype=complex)
        blocks[0, 1, 0, 0] = 1.0
        blocks[1, 0, 0, 0] = 1.0 + 1e-6
        with pytest.raises(InvalidKernel):
            OperatorKernelTable(two_labels, blocks)

    @pytest.mark.parametrize("scale", [1e-170, 1.0, 1e160, 1e300])
    def test_asymmetry_is_judged_at_every_scale(self, two_labels, scale):
        # block norms are computed without overflow or underflow
        blocks = scale * np.ones((2, 2, 1, 1), dtype=complex)
        OperatorKernelTable(two_labels, blocks)
        blocks[1, 0, 0, 0] *= 1.0 + 1e-6
        with pytest.raises(InvalidKernel, match="not Hermitian"):
            OperatorKernelTable(two_labels, blocks)

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_block_norms_equal_the_unscaled_formula_in_range(self, scale):
        blocks = scale * random_pd_kernel(5, 4, 3).blocks
        assert _block_frobenius(blocks).tobytes() == np.sqrt((np.abs(blocks) ** 2).sum(axis=(2, 3))).tobytes()

    def test_repairs_roundoff_asymmetry(self, two_labels):
        blocks = np.ones((2, 2, 1, 1), dtype=complex)
        blocks[1, 0, 0, 0] = 1.0 + 1e-14
        table = OperatorKernelTable(two_labels, blocks)
        assert table.blocks[0, 1, 0, 0] == table.blocks[1, 0, 0, 0].conjugate()

    def test_shape_mismatch_in_arithmetic(self, two_labels):
        a = identity_kernel(two_labels, 2)
        b = identity_kernel(two_labels, 3)
        with pytest.raises(ShapeError):
            a + b

    def test_blocks_are_immutable(self, identity_22):
        with pytest.raises(ValueError):
            identity_22.blocks[0, 0, 0, 0] = 5.0


class TestFlatten:
    def test_identity_kernel_flattens_to_identity(self, identity_22):
        np.testing.assert_array_equal(flatten(identity_22), np.eye(4))

    def test_constant_one_kernel(self, constant_one):
        np.testing.assert_array_equal(flatten(constant_one), np.ones((2, 2)))

    def test_every_position_matches_block_lookup(self):
        # brute-force index enumeration over all 16 entries of a 2x2-of-2x2 table
        rng = np.random.default_rng(5)
        blocks = oracles.random_hermitian_blocks(rng, 2, 2)
        table = OperatorKernelTable(labels(2), blocks)
        flat = flatten(table)
        for i in range(2):
            for j in range(2):
                for p in range(2):
                    for q in range(2):
                        assert flat[i * 2 + p, j * 2 + q] == table.blocks[i, j, p, q]

    def test_matches_bruteforce_assembly(self):
        rng = np.random.default_rng(17)
        blocks = oracles.random_hermitian_blocks(rng, 3, 2)
        table = OperatorKernelTable(labels(3), blocks)
        np.testing.assert_allclose(
            flatten(table), oracles.assemble_flat_bruteforce(table.blocks), atol=0
        )

    @pytest.mark.parametrize("n,d,seed", [(1, 1, 0), (2, 3, 1), (4, 2, 2), (3, 3, 3)])
    def test_is_the_block_layout_and_exactly_hermitian(self, n, d, seed):
        # asymmetry just under the repair threshold: construction averages it away
        def largest_block_norm(b):
            return np.sqrt((np.abs(b) ** 2).sum(axis=(2, 3))).max()

        rng = np.random.default_rng(seed)
        blocks = oracles.random_hermitian_blocks(rng, n, d)
        noise = rng.standard_normal(blocks.shape) + 1j * rng.standard_normal(blocks.shape)
        asymmetry = largest_block_norm(noise - noise.transpose(1, 0, 3, 2).conj())
        noise *= 0.9 * HERMITIAN_RTOL * largest_block_norm(blocks) / asymmetry
        table = OperatorKernelTable(labels(n), blocks + noise)
        flat = flatten(table)
        assert flat.tobytes() == block_layout(table.blocks).tobytes()
        assert np.all(flat == flat.conj().T)

    @pytest.mark.parametrize("n,d,seed", [(1, 1, 0), (2, 3, 1), (4, 2, 2), (3, 3, 3)])
    def test_round_trip_is_exact(self, n, d, seed):
        table = random_pd_kernel(seed, n, d)
        again = OperatorKernelTable.from_flat(table.label_set, d, table.flat)
        np.testing.assert_array_equal(again.blocks, table.blocks)
        np.testing.assert_array_equal(again.flat, table.flat)

    @PROPERTY
    @given(
        n=st.integers(1, 4),
        d=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        magnitude=st.sampled_from([1e-300, 1e-150, 1.0, 1e150, 1e300]),
    )
    def test_from_flat_inverts_flatten_byte_for_byte(self, n, d, seed, magnitude):
        a = magnitude * oracles.random_hermitian_blocks(np.random.default_rng(seed), n, d)
        table = OperatorKernelTable(labels(n), a)
        again = OperatorKernelTable.from_flat(table.label_set, d, flatten(table))
        assert again.blocks.tobytes() == table.blocks.tobytes()


class TestHermitianRepair:
    @PROPERTY
    @given(
        n=st.integers(2, 4),
        d=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        magnitude=st.sampled_from([1e-150, 1.0, 1e150]),
        phase=st.floats(0.0, 2 * np.pi),
    )
    def test_repairs_exactly_up_to_the_bound(self, n, d, seed, magnitude, phase):
        # The defect sits where the Hermitian part is zero, so the asymmetry
        # equals its modulus and the largest block norm does not see it.
        rng = np.random.default_rng(seed)
        blocks = magnitude * oracles.random_hermitian_blocks(rng, n, d)
        p, q = (int(v) for v in rng.integers(0, d, size=2))
        blocks[0, 1, p, q] = blocks[1, 0, q, p] = 0.0
        scale = float(_block_frobenius(blocks).max())
        for factor, repaired in ((1 - 1e-9, True), (1 + 1e-9, False)):
            defect = factor * HERMITIAN_RTOL * scale * np.exp(1j * phase)
            blocks[0, 1, p, q] = defect
            assert float(_block_frobenius(blocks).max()) == scale
            if repaired:
                table = OperatorKernelTable(labels(n), blocks)
                assert table.blocks[0, 1, p, q] == 0.5 * defect
                assert np.all(table.flat == table.flat.conj().T)
            else:
                with pytest.raises(InvalidKernel, match="not Hermitian"):
                    OperatorKernelTable(labels(n), blocks)


class TestPositivity:
    def test_identity_kernel(self, identity_22):
        report = is_positive_definite(identity_22)
        assert report.pd and report.min_eig == pytest.approx(1.0)

    def test_constant_one_has_zero_eigenvalue(self, constant_one):
        report = is_positive_definite(constant_one)
        assert report.pd
        assert report.min_eig == pytest.approx(0.0, abs=1e-14)
        assert report.scale == pytest.approx(2.0)

    def test_indefinite_two_by_two(self):
        report = is_positive_definite(scalar_table([[1, 2], [2, 1]]))
        assert not report.pd
        assert report.min_eig == pytest.approx(-1.0)

    def test_negative_tol_rejected(self, identity_22):
        with pytest.raises(ValueError):
            is_positive_definite(identity_22, -1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_quadratic_form_vote(self, seed):
        # exact boolean agreement with the brute-force quadratic form on
        # clearly-signed instances, n*d <= 12
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        table = random_pd_kernel(seed, n, d)
        vote = oracles.quadratic_form_pd_flag(table.blocks, np.random.default_rng(1000 + seed))
        assert vote is True
        assert is_positive_definite(table).pd is True

        shift = is_positive_definite(table).scale
        indef = table - (0.7 * shift) * identity_kernel(table.label_set, d)
        vote = oracles.quadratic_form_pd_flag(indef.blocks, np.random.default_rng(2000 + seed))
        assert vote is False
        assert is_positive_definite(indef).pd is False


EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 1e300, -1e300]
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES)


@st.composite
def psd_gate_cases(draw):
    """Ascending finite eigenvalues, a tolerance and an optional scale; the
    smallest eigenvalue is often ``-tol * scale`` or one of its neighbours."""
    tol = draw(st.sampled_from([0.0, PD_RTOL, 1e-9, 0.25]))
    rest = draw(st.lists(FINITE, min_size=1, max_size=4))
    scale = draw(st.none() | FINITE.map(abs))
    gate = -tol * (max(abs(v) for v in rest) if scale is None else scale)
    lowest = draw(st.sampled_from([gate, np.nextafter(gate, -np.inf), np.nextafter(gate, np.inf)]) | FINITE)
    return np.sort(np.array([lowest, *rest])), tol, scale


class TestRequirePsd:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(case=psd_gate_cases())
    def test_raises_exactly_below_minus_tol_times_scale(self, case):
        evals, tol, scale = case
        lo = float(evals[0])
        used = max(abs(lo), abs(float(evals[-1]))) if scale is None else scale
        if lo < -tol * used:
            with pytest.raises(NotPositiveDefinite, match="m is not positive") as exc:
                require_psd(evals, tol, NotPositiveDefinite, "m", scale)
            assert exc.value.min_eig == lo
        else:
            assert require_psd(evals, tol, NotPositiveDefinite, "m", scale) == used

    @pytest.mark.parametrize("scale", [None, 1.0])
    @pytest.mark.parametrize("evals", [[np.nan, 1.0], [np.nan, np.nan], [np.nan]])
    def test_nan_minimum_fails(self, evals, scale):
        with pytest.raises(NotPositiveDefinite):
            require_psd(np.array(evals), PD_RTOL, NotPositiveDefinite, "m", scale)

    @pytest.mark.parametrize("error", [NotPositiveDefinite, NotDominated, InternalInvariantViolation])
    def test_raises_the_given_class_with_min_eig(self, error):
        with pytest.raises(error) as exc:
            require_psd(np.array([-1.0, 2.0]), PD_RTOL, error, "m")
        assert type(exc.value) is error and exc.value.min_eig == -1.0


class TestOrdering:
    def test_zero_below_identity(self, two_labels):
        assert kernel_leq(zero_kernel(two_labels, 2), identity_kernel(two_labels, 2))

    def test_reflexive(self):
        k = random_pd_kernel(3, 3, 2)
        assert kernel_leq(k, k)

    def test_double_identity_fails(self, two_labels):
        eye = identity_kernel(two_labels, 2)
        assert not kernel_leq(2.0 * eye, eye)

    @pytest.mark.parametrize("seed", range(5))
    def test_antisymmetry_up_to_tolerance(self, seed):
        k = random_pd_kernel(seed, 2, 2)
        scale = is_positive_definite(k).scale
        tol = 1e-10 * scale
        perturbed = OperatorKernelTable.from_flat(
            k.label_set, 2, k.flat + 0.25 * tol * np.eye(4)
        )
        assert kernel_leq(k, perturbed, tol) and kernel_leq(perturbed, k, tol)
        assert np.linalg.norm(k.flat - perturbed.flat, 2) <= 2 * tol * scale


class TestCpContractionKernel:
    def test_zero_contraction_gives_constant_identity(self):
        ls = labels(3)
        table = cp_contraction_kernel(np.zeros((2, 2)), ls, {s: np.eye(2) for s in ls.labels})
        for i in range(3):
            for j in range(3):
                np.testing.assert_array_equal(table.blocks[i, j], np.eye(2))
        assert is_positive_definite(table).pd

    def test_single_point_value(self):
        ls = labels(1)
        table = cp_contraction_kernel(0.5 * np.eye(2), ls, {"s1": np.eye(2)})
        np.testing.assert_allclose(table.blocks[0, 0], 0.75 * np.eye(2), atol=1e-15)

    def test_pd_flag_matches_eigen_oracle_on_projector_pair(self):
        # points {I, diag(1, 0)} with h = I/2: the 4x4 flattening has a
        # negative eigenvalue, so the table must report not-positive
        ls = labels(2)
        points = {"s1": np.eye(2), "s2": np.diag([1.0, 0.0])}
        table = cp_contraction_kernel(0.5 * np.eye(2), ls, points)
        oracle_min = oracles.min_eig_bruteforce(table.blocks)
        assert oracle_min < -1e-3
        assert is_positive_definite(table).pd is False

    def test_requires_strict_contraction(self):
        with pytest.raises(NotStrictContraction):
            cp_contraction_kernel(np.eye(2), labels(1), {"s1": np.eye(2)})

    def test_missing_point_is_label_error(self):
        with pytest.raises(LabelError):
            cp_contraction_kernel(0.1 * np.eye(2), labels(2), {"s1": np.eye(2)})


class TestNeumannSeriesKernel:
    def test_zero_contraction_keeps_first_term_only(self):
        ls = labels(2)
        points = {"s1": np.array([[1.0, 0.5], [0.0, 1.0]]), "s2": np.diag([0.5, 0.25])}
        table = neumann_series_kernel(np.zeros((2, 2)), ls, points)
        for i, si in enumerate(["s1", "s2"]):
            for j, sj in enumerate(["s1", "s2"]):
                np.testing.assert_allclose(
                    table.blocks[i, j], points[si].conj().T @ points[sj], atol=1e-15
                )

    def test_scalar_geometric_series(self):
        # d = 1, h = 1/2, point 1: sum of 0.25^m = 4/3
        table = neumann_series_kernel(
            np.array([[0.5]]), labels(1), {"s1": np.array([[1.0]])}, tol=1e-14
        )
        assert table.blocks[0, 0, 0, 0] == pytest.approx(4.0 / 3.0, abs=1e-13)

    def test_scalar_two_point_table(self):
        # blocks must equal (4/3) * [[1, 2], [2, 4]] entrywise
        points = {"s1": np.array([[1.0]]), "s2": np.array([[2.0]])}
        table = neumann_series_kernel(np.array([[0.5]]), labels(2), points, tol=1e-14)
        expected = (4.0 / 3.0) * np.array([[1.0, 2.0], [2.0, 4.0]])
        np.testing.assert_allclose(table.flat.real, expected, atol=1e-12)
        np.testing.assert_allclose(table.flat.imag, 0, atol=1e-15)

    def test_matches_explicit_partial_sums(self):
        rng = np.random.default_rng(21)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h *= 0.4 / np.linalg.norm(h, 2)
        points = {
            "s1": rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
            "s2": rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
        }
        table = neumann_series_kernel(h, labels(2), points, tol=1e-13)
        for i, si in enumerate(["s1", "s2"]):
            for j, sj in enumerate(["s1", "s2"]):
                oracle = oracles.geometric_block_sum(
                    h, points[si].conj().T @ points[sj], terms=60
                )
                np.testing.assert_allclose(table.blocks[i, j], oracle, atol=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_pointwise_resolvent_identity(self, seed):
        # applying t -> t - h^H t h to each block recovers s_i^H s_j
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h *= 0.5 / np.linalg.norm(h, 2)
        pts = {
            s: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for s in ("s1", "s2", "s3")
        }
        ls = labels(3)
        table = neumann_series_kernel(h, ls, pts, tol=1e-13)
        scale = max(np.linalg.norm(p, 2) for p in pts.values()) ** 2
        for i, si in enumerate(ls.labels):
            for j, sj in enumerate(ls.labels):
                block = table.blocks[i, j]
                recovered = block - h.conj().T @ block @ h
                target = pts[si].conj().T @ pts[sj]
                assert np.linalg.norm(recovered - target, 2) <= 1e-12 * max(scale, 1.0)

    @pytest.mark.parametrize("q", [0.7, 0.9, 0.99])
    def test_binary_splitting_matches_the_sequential_sum(self, q):
        rng = np.random.default_rng(31)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h *= q / np.linalg.norm(h, 2)
        points = {s: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for s in ("s1", "s2")}
        table = neumann_series_kernel(h, labels(2), points, tol=1e-13)
        grams = {(s, t): points[s].conj().T @ points[t] for s in points for t in points}
        terms = _series_length(np.linalg.norm(h, 2), max(np.linalg.norm(g, 2) for g in grams.values()), 1e-13)
        assert terms > 40
        for i, si in enumerate(["s1", "s2"]):
            for j, sj in enumerate(["s1", "s2"]):
                oracle = oracles.geometric_block_sum(h, grams[si, sj], terms=terms)
                assert np.linalg.norm(table.blocks[i, j] - oracle) <= 1e-14 * np.linalg.norm(oracle)

    def test_series_length_is_the_smallest_sufficient_count(self):
        def sequential(q, max_norm, tol):
            n = 1
            while q ** (2 * n) * max_norm >= tol:
                n += 1
            return n

        rng = np.random.default_rng(4)
        for _ in range(1000):
            q = float(rng.choice([0.0, rng.random(), 1.0 - 10.0 ** rng.uniform(-4, 0)]))
            max_norm = float(10.0 ** rng.uniform(-14, 8))
            tol = float(10.0 ** rng.uniform(-15, -2))
            assert _series_length(q, max_norm, tol) == sequential(q, max_norm, tol), (q, max_norm, tol)

    def test_positivity_is_asserted(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            d = 2
            h = rng.standard_normal((d, d))
            h *= 0.6 / np.linalg.norm(h, 2)
            pts = {s: rng.standard_normal((d, d)) for s in ("s1", "s2")}
            table = neumann_series_kernel(h, labels(2), pts)
            assert is_positive_definite(table).pd


class TestRandomPdKernel:
    def test_scalar_case_is_nonnegative(self):
        table = random_pd_kernel(1, 1, 1, rank=1)
        value = table.blocks[0, 0, 0, 0]
        assert value.imag == 0 and value.real >= 0

    @pytest.mark.parametrize("seed", range(10))
    def test_gram_construction_is_positive(self, seed):
        table = random_pd_kernel(seed, 3, 2, rank=4)
        report = is_positive_definite(table)
        assert report.min_eig >= -1e-12 * report.scale

    def test_fixed_seed_is_bit_identical(self):
        a = random_pd_kernel(123, 4, 3, rank=7)
        b = random_pd_kernel(123, 4, 3, rank=7)
        assert a.blocks.tobytes() == b.blocks.tobytes()

    def test_rank_bounds(self):
        with pytest.raises(InvalidKernel):
            random_pd_kernel(0, 2, 2, rank=5)
        with pytest.raises(InvalidKernel):
            random_pd_kernel(0, 2, 2, rank=0)


class TestNormalizeDiagonal:
    def test_produces_unit_diagonal(self):
        table = normalize_diagonal(random_pd_kernel(11, 3, 2))
        for i in range(3):
            np.testing.assert_allclose(table.blocks[i, i], np.eye(2), atol=1e-12)
        assert is_positive_definite(table).pd

    def test_rejects_singular_diagonal(self, two_labels):
        with pytest.raises(InvalidKernel):
            normalize_diagonal(scalar_kernel(two_labels, np.diag([1.0, 0.0])))


class TestGatedSolve:
    # tol and the diagonal are powers of two, so tol * top is exact and a
    # diagonal Hermitian matrix has exactly its diagonal as eigenvalues.
    TOL = 0.25

    def test_rejects_smallest_eigenvalue_equal_to_the_gate(self):
        gram = np.diag([self.TOL, 0.5, 1.0]).astype(np.complex128)
        assert np.linalg.eigvalsh(gram)[0] == self.TOL
        with pytest.raises(SingularSystem, match=r"gram is numerically singular \(eigs in \["):
            gated_solve(gram, np.ones(3), self.TOL, SingularSystem, "gram")

    def test_accepts_smallest_eigenvalue_just_above_the_gate(self):
        diag = np.array([np.nextafter(self.TOL, 1.0), 0.5, 1.0])
        x = gated_solve(np.diag(diag).astype(np.complex128), np.ones(3), self.TOL, SingularSystem, "gram")
        np.testing.assert_allclose(x, 1.0 / diag, rtol=1e-15)

    @pytest.mark.parametrize("evals", [[np.nan, 1.0], [0.5, np.nan], [np.nan, np.nan], [0.5, np.inf]])
    def test_non_finite_eigenvalues_fail_the_gate(self, evals):
        with pytest.raises(SingularSystem, match="gram is numerically singular"):
            require_invertible(np.array(evals), self.TOL, SingularSystem, "gram")

    @pytest.mark.parametrize("error", [SingularL, SingularSystem])
    def test_raises_the_given_class(self, error):
        with pytest.raises(error) as exc:
            gated_solve(np.zeros((2, 2)), np.ones(2), RANK_RTOL, error, "zero")
        assert type(exc.value) is error
