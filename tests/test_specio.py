import csv
import io
import json

import numpy as np
import pytest

from opkern import (
    LabelSet,
    PathBatch,
    TrainingSet,
    identity_kernel,
    kolmogorov_factorize,
    make_sampler,
    random_pd_kernel,
)
from opkern.specio import (
    SpecError,
    array_to_json,
    complex_to_pair,
    feature_system_to_json,
    joint_from_spec,
    json_to_array,
    kernel_from_spec,
    kernel_to_spec,
    pair_from_spec,
    path_batch_to_csv,
    system_from_spec,
    training_set_from_csv,
    training_set_to_csv,
)
from conftest import labels


def reference_path_csv(batch):
    """The per-value csv.writer loop that path_batch_to_csv must reproduce."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["sample", "label", "coordinate", "re", "im"])
    for k in range(batch.count):
        for i, s in enumerate(batch.label_set.labels):
            for p in range(batch.dim_h):
                z = batch.paths[k, i, p]
                writer.writerow([k, s, p, repr(float(z.real)), repr(float(z.imag))])
    return out.getvalue()


def reference_array_json(arr):
    """The per-element recursion that array_to_json must reproduce."""
    arr = np.asarray(arr)
    if arr.ndim == 0:
        return complex_to_pair(complex(arr))
    return [reference_array_json(sub) for sub in arr]


ARRAYS = {
    "zero_dim": np.array(1.5 - 2j),
    "real_float": np.array([[0.5, -2.0], [3.0, 7.25]]),
    "integer": np.arange(6).reshape(2, 3),
    "extremes": np.array([-0.0, complex(-0.0, -0.0), 5e-324, complex(1e22, -5e-324)]),
    "random_complex": np.random.default_rng(11).standard_normal((3, 2, 2, 2))
    + 1j * np.random.default_rng(12).standard_normal((3, 2, 2, 2)),
}


class TestComplexArrays:
    @pytest.mark.parametrize("name", sorted(ARRAYS))
    def test_matches_per_element_writer(self, name):
        # json.dumps tells -0.0 from 0.0 and 1 from 1.0, where == does not
        arr = ARRAYS[name]
        assert json.dumps(array_to_json(arr)) == json.dumps(reference_array_json(arr))

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        again = json_to_array(array_to_json(arr), (2, 3))
        np.testing.assert_array_equal(again, arr)

    def test_shape_mismatch(self):
        with pytest.raises(SpecError):
            json_to_array([[1.0, 2.0]], (2,))

    def test_leaves_must_be_pairs(self):
        with pytest.raises(SpecError):
            json_to_array([1.0, 2.0, 3.0], (3,))


class TestKernelSpec:
    def test_explicit_round_trip_is_exact(self):
        table = random_pd_kernel(4, 3, 2)
        spec = kernel_to_spec(table)
        assert spec["kind"] == "explicit"
        assert spec["labels"] == ["s1", "s2", "s3"]
        assert spec["dim_h"] == 2
        again = kernel_from_spec(json.loads(json.dumps(spec)))
        np.testing.assert_array_equal(again.blocks, table.blocks)

    def test_identity_builder(self):
        spec = {"labels": ["a", "b"], "dim_h": 2, "kind": "builder",
                "builder": {"name": "identity"}}
        table = kernel_from_spec(spec)
        np.testing.assert_array_equal(table.flat, np.eye(4))

    def test_constant_builder(self):
        spec = {"labels": ["a"], "dim_h": 1, "kind": "builder",
                "builder": {"name": "constant", "params": {"block": [[[2.0, 0.0]]]}}}
        assert kernel_from_spec(spec).blocks[0, 0, 0, 0] == 2.0

    def test_cp_contraction_builder(self):
        spec = {
            "labels": ["a"],
            "dim_h": 1,
            "kind": "builder",
            "builder": {
                "name": "cp_contraction",
                "params": {"h": [[[0.5, 0.0]]], "points": {"a": [[[1.0, 0.0]]]}},
            },
        }
        assert kernel_from_spec(spec).blocks[0, 0, 0, 0] == pytest.approx(0.75)

    def test_neumann_builder(self):
        spec = {
            "labels": ["a"],
            "dim_h": 1,
            "kind": "builder",
            "builder": {
                "name": "neumann_series",
                "params": {"h": [[[0.5, 0.0]]], "points": {"a": [[[1.0, 0.0]]]}, "tol": 1e-14},
            },
        }
        assert kernel_from_spec(spec).blocks[0, 0, 0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_random_pd_builder_is_deterministic(self):
        spec = {"labels": ["a", "b"], "dim_h": 2, "kind": "builder",
                "builder": {"name": "random_pd", "params": {"seed": 5, "rank": 3}}}
        one, two = kernel_from_spec(spec), kernel_from_spec(spec)
        assert one.blocks.tobytes() == two.blocks.tobytes()

    @pytest.mark.parametrize(
        "broken",
        [
            {},
            {"labels": ["a"], "dim_h": 1, "kind": "nonsense"},
            {"labels": ["a"], "dim_h": 1, "kind": "builder", "builder": {"name": "zzz"}},
            {"labels": ["a"], "dim_h": 1, "kind": "explicit"},
            {"labels": ["a"], "dim_h": 0, "kind": "explicit", "blocks": []},
        ],
    )
    def test_malformed_specs_raise(self, broken):
        with pytest.raises(SpecError):
            kernel_from_spec(broken)


class TestCompositeSpecs:
    def test_system_spec(self):
        k = kernel_to_spec(random_pd_kernel(1, 2, 2))
        data = {"k1": k, "k2": k, "l1": k, "l2": k, "t": array_to_json(np.eye(2))}
        k1, k2, l1, l2, t = system_from_spec(data)
        assert k1.n == 2 and t.shape == (2, 2)

    def test_pair_spec(self):
        k = kernel_to_spec(random_pd_kernel(2, 2, 1))
        lo, hi = pair_from_spec({"l": k, "k": k})
        assert lo.n == hi.n == 2

    def test_joint_spec_with_observation(self):
        table = random_pd_kernel(3, 2, 2)
        data = {
            "k": kernel_to_spec(table),
            "l": kernel_to_spec(table),
            "t_coupling": array_to_json(np.zeros((2, 2, 2, 2))),
            "observed_l": array_to_json(np.ones((2, 2))),
        }
        k, l, coupling, observed = joint_from_spec(data)
        assert coupling.shape == (2, 2, 2, 2)
        np.testing.assert_array_equal(observed, np.ones((2, 2)))


class TestCsv:
    def test_training_round_trip(self):
        train = TrainingSet.from_triples(
            [("s1", [1.0 + 2.0j, 0.5], 3.0 - 1.0j), ("s2", [0.0, -1.0j], 2.0)]
        )
        again = training_set_from_csv(training_set_to_csv(train))
        assert again.labels == train.labels
        np.testing.assert_array_equal(again.vectors, train.vectors)
        np.testing.assert_array_equal(again.targets, train.targets)

    def test_bad_header_rejected(self):
        with pytest.raises(SpecError):
            training_set_from_csv("foo,bar\n1,2\n")

    def test_path_csv_layout(self):
        batch = make_sampler(identity_kernel(labels(2), 1), 3).draw(2)
        lines = path_batch_to_csv(batch).strip().split("\n")
        assert lines[0] == "sample,label,coordinate,re,im"
        assert len(lines) == 1 + 2 * 2
        first = lines[1].split(",")
        assert first[:3] == ["0", "s1", "0"]
        assert float(first[3]) == batch.paths[0, 0, 0].real

    def test_path_csv_matches_per_value_writer(self):
        rng = np.random.default_rng(8)
        label_set = LabelSet.of(["a,b", 'q"x', "plain"])
        values = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
        values[0, 0] = [complex(-0.0, 5e-324), complex(1e22, -0.0)]
        values[1, 1] = [complex(5e-324, 1e22), complex(-1e22, -5e-324)]
        batch = PathBatch(label_set=label_set, paths=values, seed=0, start=0)
        text = path_batch_to_csv(batch)
        assert text == reference_path_csv(batch)
        assert '0,"a,b",0,-0.0,5e-324\n0,"a,b",1,1e+22,-0.0\n' in text
        assert '1,"q""x",1,-1e+22,-5e-324\n' in text

    def test_sampled_path_csv_matches_per_value_writer(self):
        batch = make_sampler(random_pd_kernel(2, 3, 2), 4).draw(50)
        assert path_batch_to_csv(batch) == reference_path_csv(batch)


class TestFeatureExport:
    def test_gram_reconstruction_from_export(self):
        table = random_pd_kernel(6, 2, 2)
        fs = kolmogorov_factorize(table)
        payload = feature_system_to_json(fs)
        assert payload["dilation_dim"] == fs.dilation_dim
        v1 = json_to_array(payload["features"]["s1"], (fs.dilation_dim, 2))
        v2 = json_to_array(payload["features"]["s2"], (fs.dilation_dim, 2))
        np.testing.assert_allclose(v1.conj().T @ v2, table.block("s1", "s2"), atol=1e-10)
