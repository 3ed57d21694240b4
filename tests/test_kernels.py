import json
import math

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
    constant_kernel,
    cp_contraction_kernel,
    identity_kernel,
    is_positive_definite,
    neumann_series_kernel,
    random_pd_kernel,
)
from opkern.kernels import (
    HERMITIAN_RTOL,
    _block_frobenius,
    _series_length,
    block_layout,
    eig_extremes,
    gated_solve,
    psd_certified,
    _strict_contraction,
    require_at_most,
    require_invertible,
    require_psd,
)
from opkern import kernels
from opkern.cli import main
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

    def test_blocks_are_immutable(self, identity_22):
        with pytest.raises(ValueError):
            identity_22.blocks[0, 0, 0, 0] = 5.0

    @pytest.mark.parametrize("shape,message", [
        ((2, 1, 1, 1), r"expected \(2, 2, d, d\) blocks, got \(2, 1, 1, 1\)"),
        ((2, 2, 1), r"expected \(2, 2, d, d\) blocks, got \(2, 2, 1\)"),
        ((2, 2, 1, 2), r"blocks must be square and non-empty, got \(2, 2, 1, 2\)"),
        ((2, 2, 0, 0), r"blocks must be square and non-empty, got \(2, 2, 0, 0\)"),
    ])
    def test_rejects_blocks_of_the_wrong_shape(self, two_labels, shape, message):
        with pytest.raises(ShapeError, match=message):
            OperatorKernelTable(two_labels, np.zeros(shape))

    def test_from_flat_rejects_a_matrix_of_the_wrong_size(self, two_labels):
        with pytest.raises(ShapeError, match=r"expected \(4, 4\) matrix, got \(3, 3\)"):
            OperatorKernelTable.from_flat(two_labels, 2, np.eye(3))

    def test_constant_block_must_be_square(self, two_labels):
        with pytest.raises(ShapeError, match=r"constant block must be square, got \(1, 2\)"):
            constant_kernel(two_labels, np.ones((1, 2)))


class TestFlatten:
    def test_identity_kernel_flattens_to_identity(self, identity_22):
        np.testing.assert_array_equal(identity_22.flat, np.eye(4))

    def test_constant_one_kernel(self, constant_one):
        np.testing.assert_array_equal(constant_one.flat, np.ones((2, 2)))

    def test_every_position_matches_block_lookup(self):
        # brute-force index enumeration over all 16 entries of a 2x2-of-2x2 table
        rng = np.random.default_rng(5)
        blocks = oracles.random_hermitian_blocks(rng, 2, 2)
        table = OperatorKernelTable(labels(2), blocks)
        flat = table.flat
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
            table.flat, oracles.assemble_flat_bruteforce(table.blocks), atol=0
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
        flat = table.flat
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
        again = OperatorKernelTable.from_flat(table.label_set, d, table.flat)
        assert again.blocks.tobytes() == table.blocks.tobytes()


def _pd_table():
    return random_pd_kernel(9, 3, 2)


ONE_ARRAY_BUILDS = {
    "explicit_blocks": lambda: OperatorKernelTable(
        labels(3), oracles.random_hermitian_blocks(np.random.default_rng(4), 3, 2)
    ),
    "from_flat": lambda: OperatorKernelTable.from_flat(labels(3), 2, _pd_table().flat),
    "identity_kernel": lambda: identity_kernel(labels(3), 2),
    "constant_kernel": lambda: constant_kernel(labels(3), np.array([[2.0, 1.0j], [-1.0j, 3.0]])),
    "scalar_kernel": lambda: scalar_table(np.array([[2.0, 1.0], [1.0, 2.0]])),
    "cp_contraction_kernel": lambda: cp_contraction_kernel(
        0.5 * np.eye(2), labels(2), {"s1": np.eye(2), "s2": np.diag([1.0, 0.0])}
    ),
    "neumann_series_kernel": lambda: neumann_series_kernel(
        0.5 * np.eye(2), labels(2), {"s1": np.eye(2), "s2": np.diag([1.0, 0.0])}
    ),
    "random_pd_kernel": _pd_table,
}


@pytest.mark.parametrize("build", ONE_ARRAY_BUILDS.values(), ids=ONE_ARRAY_BUILDS.keys())
def test_a_table_stores_one_read_only_array(build):
    table = build()
    assert np.shares_memory(table.blocks, table.flat)
    assert not table.flat.flags.writeable and not table.blocks.flags.writeable
    assert table.flat.flags.c_contiguous
    assert table.blocks.shape == (table.n, table.n, table.dim_h, table.dim_h)


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


def count_block_frobenius(monkeypatch) -> list[int]:
    """Count the blockwise Frobenius passes of table constructions from now on."""
    passes = [0]
    original = kernels._block_frobenius

    def counted(blocks):
        passes[0] += 1
        return original(blocks)

    monkeypatch.setattr(kernels, "_block_frobenius", counted)
    return passes


# Entries that equal their mirrors under == but not bit for bit, and subnormals.
EDGE_ENTRIES = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1.0]


class TestExactlyHermitianTables:
    """A table equal to its adjoint has no asymmetry to measure; its flat
    matrix is still ``0.5 * (K + K^H)`` byte for byte."""

    @PROPERTY
    @given(
        n=st.integers(1, 3),
        d=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        entries=st.lists(st.tuples(st.sampled_from(EDGE_ENTRIES), st.sampled_from(EDGE_ENTRIES),
                                   st.booleans()), min_size=1, max_size=6),
    )
    def test_flat_is_the_average_without_asymmetry_norms(self, n, d, seed, entries):
        rng = np.random.default_rng(seed)
        blocks = oracles.random_hermitian_blocks(rng, n, d)
        for re, im, flip in entries:
            i, j = (int(v) for v in rng.integers(0, n, size=2))
            p, q = (int(v) for v in rng.integers(0, d, size=2))
            if (i, p) == (j, q):
                im = 0.0
            blocks[i, j, p, q] = complex(re, im)
            # The mirror's real zero may carry the other sign: == holds, the bits differ.
            blocks[j, i, q, p] = complex(-re if flip and re == 0.0 else re, -im)
        with pytest.MonkeyPatch.context() as mp:
            passes = count_block_frobenius(mp)
            table = OperatorKernelTable(labels(n), blocks)
        assert passes == [0]
        flat = oracles.assemble_flat_bruteforce(blocks)
        assert table.flat.tobytes() == (0.5 * (flat + flat.conj().T)).tobytes()

    @pytest.mark.parametrize("factor,repaired", [(1 - 1e-9, True), (1 + 1e-9, False)])
    def test_asymmetry_at_the_bound_keeps_its_verdict_and_message(self, factor, repaired, monkeypatch):
        blocks = oracles.random_hermitian_blocks(np.random.default_rng(3), 3, 2)
        blocks[0, 1, 0, 1] = blocks[1, 0, 1, 0] = 0.0
        scale = float(np.sqrt((np.abs(blocks) ** 2).sum(axis=(2, 3))).max())
        defect = factor * HERMITIAN_RTOL * scale
        blocks[0, 1, 0, 1] = defect
        passes = count_block_frobenius(monkeypatch)
        if repaired:
            assert OperatorKernelTable(labels(3), blocks).blocks[0, 1, 0, 1] == 0.5 * defect
        else:
            with pytest.raises(InvalidKernel) as exc:
                OperatorKernelTable(labels(3), blocks)
            assert str(exc.value) == (
                f"block pattern is not Hermitian: asymmetry {defect:.3e} exceeds 1e-12 * {scale:.3e}"
            )
        assert passes == [2]

    def test_nan_asymmetry_is_refused(self, monkeypatch):
        # An asymmetry of about 1e-15 relative, repaired when measured, reads NaN.
        blocks = oracles.random_hermitian_blocks(np.random.default_rng(3), 3, 2)
        blocks[0, 1, 0, 1] = blocks[1, 0, 1, 0].conj() * (1 + 2.0**-50)
        original, passes = kernels._block_frobenius, []

        def nan_asymmetry(b):
            passes.append(b)
            return original(b) if len(passes) == 1 else np.full(b.shape[:2], np.nan)

        monkeypatch.setattr(kernels, "_block_frobenius", nan_asymmetry)
        with pytest.raises(InvalidKernel, match="asymmetry nan exceeds") as exc:
            OperatorKernelTable(labels(3), blocks)
        assert exc.value.exit_code == 2 and np.isnan(exc.value.residual)
        assert len(passes) == 2

    def test_entries_near_the_float_limit_exit_two(self, tmp_path, capsys):
        # Exactly Hermitian, but K + K^H overflows before it is halved.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"labels": ["a", "b"], "dim_h": 1, "kind": "explicit", "blocks": [[[[[1e308, 0.0]]]] * 2] * 2}
        ), encoding="utf-8")
        out = tmp_path / "r.json"
        assert main(["check-pd", "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "opkern: input error: symmetrized kernel table contains non-finite entries\n"
        )
        assert not out.exists()


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

    @pytest.mark.parametrize("tol", [None, 1.0])
    def test_overflowing_spectrum_is_an_input_error(self, tol):
        # Every entry is finite; the one nonzero eigenvalue, 4 x 5e307, is not.
        with pytest.raises(InvalidKernel, match="kernel table leaves the float range"):
            is_positive_definite(scalar_table(np.full((4, 4), 5e307)), tol)

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
        indef = OperatorKernelTable.from_flat(table.label_set, d, table.flat - 0.7 * shift * np.eye(n * d))
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

    def test_nan_maximum_fails(self):
        # Python's max(0.0, nan) is 0.0, a scale at which the gate would pass.
        assert np.isnan(eig_extremes(np.array([0.0, np.nan]), "m")[1])
        with pytest.raises(NotPositiveDefinite):
            require_psd(np.array([0.0, np.nan]), PD_RTOL, NotPositiveDefinite, "m")

    @pytest.mark.parametrize("scale", [None, 1.0])
    @pytest.mark.parametrize("evals", [[0.0, np.inf], [-np.inf, 1.0], [-1.0, np.inf]])
    def test_infinite_spectral_norm_is_an_input_error(self, evals, scale):
        # At scale inf, -min_eig <= tol * inf would pass any finite minimum.
        with pytest.raises(InvalidKernel, match=r"^m leaves the float range: spectral norm inf$"):
            require_psd(np.array(evals), PD_RTOL, NotPositiveDefinite, "m", scale)

    @pytest.mark.parametrize("error", [NotPositiveDefinite, NotDominated, InternalInvariantViolation])
    def test_raises_the_given_class_with_min_eig(self, error):
        with pytest.raises(error) as exc:
            require_psd(np.array([-1.0, 2.0]), PD_RTOL, error, "m")
        assert type(exc.value) is error and exc.value.min_eig == -1.0


class TestRequireAtMost:
    @pytest.mark.parametrize("value,bound", [(1.0, 1.0), (-np.inf, 0.0), (0.0, np.inf), (np.nextafter(1.0, 0), 1.0)])
    def test_passes_at_or_below_the_bound(self, value, bound):
        assert require_at_most(value, bound, NotDominated, "m") is None

    @pytest.mark.parametrize("value,bound", [(np.nextafter(1.0, 2), 1.0), (np.nan, 1.0), (1.0, np.nan),
                                             (np.nan, np.inf), (np.inf, 1e308)])
    def test_raises_above_the_bound_or_at_a_nan(self, value, bound):
        with pytest.raises(InternalInvariantViolation, match="^over$") as exc:
            require_at_most(value, bound, InternalInvariantViolation, "over", residual=value, label="s")
        assert (exc.value.residual, exc.value.label) == (value, "s") or np.isnan(exc.value.residual)


class TestOrdering:
    """The kernel order: ``lo <= hi`` iff ``hi - lo`` is positive."""

    @staticmethod
    def difference(hi, lo_flat):
        """The table of ``hi - lo``, formed on the flat matrices."""
        return OperatorKernelTable.from_flat(hi.label_set, hi.dim_h, hi.flat - lo_flat)

    def test_zero_below_identity(self, two_labels):
        eye = identity_kernel(two_labels, 2)
        assert is_positive_definite(self.difference(eye, 0.0 * eye.flat)).pd

    def test_reflexive(self):
        k = random_pd_kernel(3, 3, 2)
        assert is_positive_definite(self.difference(k, k.flat)).pd

    def test_double_identity_fails(self, two_labels):
        eye = identity_kernel(two_labels, 2)
        assert not is_positive_definite(self.difference(eye, 2.0 * eye.flat)).pd

    @pytest.mark.parametrize("seed", range(5))
    def test_antisymmetry_up_to_tolerance(self, seed):
        k = random_pd_kernel(seed, 2, 2)
        scale = is_positive_definite(k).scale
        tol = 1e-10 * scale
        perturbed = OperatorKernelTable.from_flat(
            k.label_set, 2, k.flat + 0.25 * tol * np.eye(4)
        )
        assert is_positive_definite(self.difference(perturbed, k.flat), tol).pd
        assert is_positive_definite(self.difference(k, perturbed.flat), tol).pd
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

    @pytest.mark.parametrize("factor", [1 - 1e-6, 1.0], ids=["inside", "at_one"])
    def test_strict_contraction_boundary(self, factor):
        # ||factor I|| = factor exactly; the gate refuses a norm of 1 itself.
        h, points = factor * np.eye(2), {"s1": np.eye(2)}
        if factor < 1:
            assert _strict_contraction(h, labels(1), points)[1] == factor
            assert cp_contraction_kernel(h, labels(1), points).blocks[0, 0, 0, 0] == 1 - factor**2
        else:
            with pytest.raises(NotStrictContraction, match="operator norm 1 is not < 1") as exc:
                cp_contraction_kernel(h, labels(1), points)
            assert exc.value.exit_code == 3

    def test_nan_norm_is_not_a_strict_contraction(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "norm", lambda *args, **kwargs: np.nan)
        with pytest.raises(NotStrictContraction, match="operator norm nan is not < 1") as exc:
            cp_contraction_kernel(0.5 * np.eye(2), labels(1), {"s1": np.eye(2)})
        assert exc.value.exit_code == 3

    def test_requires_strict_contraction(self):
        with pytest.raises(NotStrictContraction):
            cp_contraction_kernel(np.eye(2), labels(1), {"s1": np.eye(2)})

    def test_missing_point_is_label_error(self):
        with pytest.raises(LabelError):
            cp_contraction_kernel(0.1 * np.eye(2), labels(2), {"s1": np.eye(2)})

    @pytest.mark.parametrize("h,points,message", [
        (np.zeros((1, 2)), {"s1": np.eye(1)}, r"contraction must be square, got \(1, 2\)"),
        (np.zeros((2, 2)), [np.eye(2)], r"point_map must be a mapping label -> matrix"),
        (np.zeros((2, 2)), {"s1": np.eye(3)}, r"point for 's1' must be \(2, 2\), got \(3, 3\)"),
    ], ids=["h", "point_map", "point"])
    def test_malformed_arguments_are_shape_errors(self, h, points, message):
        for build in (cp_contraction_kernel, neumann_series_kernel):
            with pytest.raises(ShapeError, match=message):
                build(h, labels(1), points)


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

    @pytest.mark.parametrize("q,max_norm,tol,closed_form,length", [
        # q^2 max_norm = tol exactly: one term is not enough, and the closed form says it is
        (0.5, 1.0, 0.25, 1, 2),
        # the rounded logarithms overshoot by one term
        (0.9491620040164243, 0.013131505505897489, 3.428576200567518e-05, 58, 57),
    ], ids=["step-up", "step-down"])
    def test_series_length_corrects_its_closed_form(self, q, max_norm, tol, closed_form, length):
        assert math.ceil((math.log(tol) - math.log(max_norm)) / (2 * math.log(q))) == closed_form
        assert q ** (2 * length) * max_norm < tol <= q ** (2 * (length - 1)) * max_norm
        assert _series_length(q, max_norm, tol) == length

    @pytest.mark.parametrize("tol", [0.0, -1e-12])
    def test_nonpositive_truncation_tolerance_is_refused(self, tol):
        with pytest.raises(ValueError, match="truncation tolerance must be positive"):
            neumann_series_kernel(np.zeros((1, 1)), labels(1), {"s1": np.eye(1)}, tol=tol)

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


class TestPinnedConstants:
    # Literals, not values read back from the library: a mutated tolerance
    # fails here even where every test that reads it moves along.
    def test_tolerances_and_certificate_allowance(self):
        assert kernels.HERMITIAN_RTOL == 1e-12
        assert kernels.PD_RTOL == 1e-10
        assert kernels.RANK_RTOL == 1e-10
        assert kernels.TINY == 1e-300
        assert kernels.CHOLESKY_ALLOWANCE == 4.0
        assert kernels.EIGENSOLVER_ALLOWANCE == 4.0


@st.composite
def certificate_cases(draw):
    """A Hermitian matrix of prescribed spectrum whose smallest eigenvalue sits
    near the positivity gate ``-PD_RTOL`` or the invertibility gate
    ``RANK_RTOL`` (relative to a largest eigenvalue of 1), often within
    rounding of it, or well inside, at an entry scale from 1e-150 to
    1e150; and which gate it is.  The other eigenvalues are spread or
    small, so the Frobenius norm ranges from the spectral norm upwards."""
    invertible = draw(st.booleans())
    n = draw(st.integers(1, 8))
    gate = RANK_RTOL if invertible else -PD_RTOL
    lowest = draw(
        st.tuples(st.sampled_from([-1, 1]), st.floats(-9, -3)).map(lambda se: gate * (1 + se[0] * 10 ** se[1]))
        | st.floats(-2, 2).map(lambda e: gate * 10**e)
        | st.floats(-2, 2).map(lambda e: -gate * 10**e)
        | st.floats(-6, 0).map(lambda e: 10**e)
        | st.just(0.0)
    )
    scale = draw(st.floats(0.5, 1.0)) * 10.0 ** draw(st.integers(-150, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    middle = rng.uniform(0.05, 1.0, max(n - 2, 0)) * draw(st.sampled_from([1.0, 1e-6]))
    spectrum = np.concatenate([[lowest], middle, [1.0]]) if n > 1 else np.array([lowest])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    gram = (q * spectrum) @ q.conj().T
    return scale * (0.5 * (gram + gram.conj().T)), invertible, lowest


class TestPsdCertified:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(case=certificate_cases())
    def test_certifies_only_what_the_eigenvalue_gate_passes(self, case):
        gram, invertible, lowest = case
        certified = psd_certified(gram, RANK_RTOL if invertible else PD_RTOL, invertible)
        evals = np.linalg.eigvalsh(gram)
        if certified and invertible:
            require_invertible(evals, RANK_RTOL, SingularSystem, "gram")
        elif certified:
            require_psd(evals, PD_RTOL, NotPositiveDefinite, "gram")
        if gram.shape[0] > 1 and lowest >= 1e-6:  # far inside both gates, where it must not be vacuous
            assert certified

    @pytest.mark.parametrize("offset", [1e-7, 1e-8])
    def test_declines_within_rounding_below_the_invertibility_gate(self, offset):
        # Spectrum [RANK_RTOL (1 - offset), 1]: the Frobenius norm is the
        # spectral norm, and a Cholesky factorization shifted by the gate
        # alone succeeds on about a third of these rotations, where the
        # computed eigenvalues fail the gate.
        rng = np.random.default_rng(7)
        for _ in range(100):
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            gram = (q * [RANK_RTOL * (1 - offset), 1.0]) @ q.conj().T
            gram = 0.5 * (gram + gram.conj().T)
            if psd_certified(gram, RANK_RTOL, invertible=True):
                require_invertible(np.linalg.eigvalsh(gram), RANK_RTOL, SingularSystem, "gram")

    @pytest.mark.parametrize("multiple,certified", [(4 / 3, False), (4.0, True)], ids=["4/3", "4"])
    def test_allowance_must_fit_in_half_the_threshold(self, multiple, certified):
        # README's allowance, 4 (n+1) u max_row_sum(|R^H| |R|) + 4 n u ||A||_F, of a
        # fixed positive Gram, computed here from its Cholesky factor L = R^H; tol
        # puts the threshold tol * max_i gram[i, i] at `multiple` times it.  At 4/3
        # the allowance is 3/4 of the threshold, beyond the half the certificate
        # keeps; at 4 it is a quarter.
        gram = random_pd_kernel(5, 4, 2).flat
        n = gram.shape[0]
        moduli = np.abs(np.linalg.cholesky(gram))
        u = np.finfo(np.float64).eps / 2
        allowance = 4 * (n + 1) * u * (moduli @ moduli.T).sum(axis=1).max() + 4 * n * u * np.linalg.norm(gram)
        assert psd_certified(gram, multiple * allowance / gram.diagonal().real.max()) == certified

    def test_certifies_a_well_conditioned_gram_and_declines_a_singular_one(self):
        gram = random_pd_kernel(5, 20, 3).flat
        assert psd_certified(gram, PD_RTOL) and psd_certified(gram, RANK_RTOL, invertible=True)
        singular = random_pd_kernel(5, 20, 3, rank=30).flat
        assert not psd_certified(singular, RANK_RTOL, invertible=True)

    @pytest.mark.parametrize("gram", [
        np.diag([8e307, 8e307]),
        np.full((3, 3), 1e300) + np.diag([1e300, 2e300, 3e300]),
        np.diag([5e-324, 5e-324]),
        np.array([[1e-300, 1e300], [1e300, 1e-300]]),
        np.array([[1.0, 1e308], [1e308, 1.0]]),
        np.zeros((2, 2)),
        np.diag([-1.0, 2.0]),
    ], ids=["near-overflow", "1e300", "subnormal", "huge-off-diagonal", "overflowing-off-diagonal", "zero", "indefinite"])
    @pytest.mark.parametrize("invertible", [False, True])
    def test_extreme_entries_certify_only_passing_gates_without_warnings(self, gram, invertible):
        # RuntimeWarnings are errors here: an overflowing bound must read "not certified".
        gram = gram.astype(np.complex128)
        if psd_certified(gram, PD_RTOL, invertible):
            evals = np.linalg.eigvalsh(gram)
            if invertible:
                require_invertible(evals, RANK_RTOL, SingularSystem, "gram")
            else:
                require_psd(evals, PD_RTOL, NotPositiveDefinite, "gram")
