import copy
import json
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opkern import (
    LabelSet,
    OperatorKernelTable,
    gaussian,
    generate_valid_system,
    identity_kernel,
    random_pd_kernel,
    scalar_kernel,
    transfer,
)
from opkern.cli import main
from opkern.specio import array_to_json, kernel_to_spec, training_set_to_csv
from opkern.regression import TrainingSet
from conftest import labels, scalar_table


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def specs(tmp_path):
    """A bundle of spec files shared by the CLI tests."""
    ls1 = labels(1)
    one = scalar_kernel(ls1, np.array([[1.0]]))
    four = scalar_kernel(ls1, np.array([[4.0]]))
    paths = {
        "identity": write_json(tmp_path / "identity.json", kernel_to_spec(identity_kernel(labels(2), 2))),
        "indefinite": write_json(
            tmp_path / "indefinite.json",
            kernel_to_spec(scalar_kernel(labels(2), np.array([[1.0, 2.0], [2.0, 1.0]]))),
        ),
        "builder": write_json(
            tmp_path / "builder.json",
            {
                "labels": ["a"],
                "dim_h": 1,
                "kind": "builder",
                "builder": {
                    "name": "cp_contraction",
                    "params": {"h": [[[0.0, 0.0]]], "points": {"a": [[[1.0, 0.0]]]}},
                },
            },
        ),
        "one": write_json(tmp_path / "one.json", kernel_to_spec(one)),
        "system": write_json(
            tmp_path / "system.json",
            {
                "k1": kernel_to_spec(one),
                "k2": kernel_to_spec(four),
                "l1": kernel_to_spec(one),
                "l2": kernel_to_spec(four),
                "t": [[[1.0, 0.0]]],
            },
        ),
        "bad_system": write_json(
            tmp_path / "bad_system.json",
            {
                "k1": kernel_to_spec(four),
                "k2": kernel_to_spec(one),
                "l1": kernel_to_spec(one),
                "l2": kernel_to_spec(one),
                "t": [[[1.0, 0.0]]],
            },
        ),
        "joint": write_json(
            tmp_path / "joint.json",
            {
                "k": kernel_to_spec(one),
                "l": kernel_to_spec(one),
                "t_coupling": [[[[[0.5, 0.0]]]]],
                "observed_l": [[[2.0, 0.0]]],
            },
        ),
        "pair": write_json(tmp_path / "pair.json", {"l": kernel_to_spec(one), "k": kernel_to_spec(four)}),
    }
    # rank-deficient identity system: K(s, s) = diag(1, 0) breaks the
    # transfer function's rank condition at every label
    ls = labels(1)
    k_sing = OperatorKernelTable(ls, np.diag([1.0, 0.0]).reshape(1, 1, 2, 2))
    eye = identity_kernel(ls, 2)
    paths["degenerate_system"] = write_json(
        tmp_path / "degenerate.json",
        {
            "k1": kernel_to_spec(k_sing),
            "k2": kernel_to_spec(k_sing),
            "l1": kernel_to_spec(eye),
            "l2": kernel_to_spec(eye),
            "t": array_to_json(np.eye(2)),
        },
    )
    train = TrainingSet.from_triples([("s1", [1.0], 2.0)])
    train_path = tmp_path / "train.csv"
    train_path.write_text(training_set_to_csv(train), encoding="utf-8")
    paths["train"] = str(train_path)
    return paths


class TestCheckPd:
    def test_neumann_series_near_unit_norm_is_fast(self, tmp_path):
        # ||h|| = 0.999999 keeps 13,815,504 terms at the default tol
        params = {"h": [[[0.999999, 0.0]]], "points": {"a": [[[1.0, 0.0]]]}}
        spec = write_json(tmp_path / "spec.json", builder_spec("neumann_series", params))
        start = time.perf_counter()
        assert main(["check-pd", "--spec", spec, "--out", str(tmp_path / "r.json")]) == 0
        assert time.perf_counter() - start < 1.0

    def test_positive_kernel_exits_zero(self, specs, tmp_path):
        out = tmp_path / "r.json"
        assert main(["check-pd", "--spec", specs["identity"], "--out", str(out), "--no-timestamp"]) == 0
        results = json.loads(out.read_text())["results"]
        assert results == {"pd": True, "min_eig": 1.0, "n": 2, "d": 2}

    def test_indefinite_kernel_exits_one(self, specs, tmp_path):
        out = tmp_path / "r.json"
        assert main(["check-pd", "--spec", specs["indefinite"], "--out", str(out), "--no-timestamp"]) == 1
        assert json.loads(out.read_text())["results"]["min_eig"] == pytest.approx(-1.0)

    def test_builder_spec(self, specs, tmp_path):
        assert main(["check-pd", "--spec", specs["builder"], "--out", str(tmp_path / "r.json")]) == 0

    def test_parse_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["check-pd", "--spec", str(bad)]) == 2

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["check-pd", "--spec", str(tmp_path / "absent.json")]) == 2

    def test_unwritable_out_exits_two(self, specs, tmp_path, capsys):
        out = tmp_path / "absent_dir" / "r.json"
        assert main(["check-pd", "--spec", specs["identity"], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("opkern: input error:")
        assert "Traceback" not in err


def count_calls(monkeypatch, owner, names, counted_if=lambda *args, **kwargs: True):
    """Patch each function ``owner.<name>`` to count the calls made from
    opkern modules whose arguments satisfy ``counted_if``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            calls[_name] += caller.startswith("opkern") and counted_if(*args, **kwargs)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def spectral(x, ord=None, *args, **kwargs):
    """``counted_if`` of ``np.linalg.norm`` that selects spectral norms."""
    return ord == 2


def builder_spec(name, params, dim_h=1):
    return {"labels": ["a"], "dim_h": dim_h, "kind": "builder", "builder": {"name": name, "params": params}}


class TestSpecValidation:
    NEUMANN = {"h": [[[0.5, 0.0]]], "points": {"a": [[[1.0, 0.0]]]}}
    CASES = {
        "dim_h_string": builder_spec("identity", {}, dim_h="x"),
        "dim_h_null": builder_spec("identity", {}, dim_h=None),
        "dim_h_fraction": builder_spec("identity", {}, dim_h=1.5),
        "builder_number": {**builder_spec("identity", {}), "builder": 5},
        "params_list": builder_spec("identity", []),
        "seed_string": builder_spec("random_pd", {"seed": "a"}),
        "seed_negative": builder_spec("random_pd", {"seed": -1}),
        "rank_fraction": builder_spec("random_pd", {"seed": 1, "rank": 1.5}),
        "tol_string": builder_spec("neumann_series", {**NEUMANN, "tol": "x"}),
        "tol_zero": builder_spec("neumann_series", {**NEUMANN, "tol": 0}),
        "tol_negative": builder_spec("neumann_series", {**NEUMANN, "tol": -1e-12}),
        "labels_number": {**builder_spec("identity", {}), "labels": 5},
        "labels_null": {**builder_spec("identity", {}), "labels": None},
        "labels_true": {**builder_spec("identity", {}), "labels": True},
        "labels_fraction": {**builder_spec("identity", {}), "labels": 1.5},
        "labels_string": {**builder_spec("identity", {}), "labels": "abc"},
        "labels_numeric_items": {**builder_spec("identity", {}), "labels": [1, 2]},
        "cp_h_nan": builder_spec("cp_contraction", {**NEUMANN, "h": [[[float("nan"), 0.0]]]}),
        "neumann_h_nan": builder_spec("neumann_series", {**NEUMANN, "h": [[[float("nan"), 0.0]]]}),
        "neumann_h_infinity": builder_spec("neumann_series", {**NEUMANN, "h": [[[float("inf"), 0.0]]]}),
        "neumann_points_nan": builder_spec("neumann_series", {**NEUMANN, "points": {"a": [[[float("nan"), 0.0]]]}}),
        "neumann_h_huge_integer": builder_spec("neumann_series", {**NEUMANN, "h": [[[10**400, 0]]]}),
        "tol_infinity": builder_spec("neumann_series", {**NEUMANN, "tol": float("inf")}),
        "tol_huge_integer": builder_spec("neumann_series", {**NEUMANN, "tol": 10**400}),
        "dim_h_huge": builder_spec("identity", {}, dim_h=10**12),
        "blocks_overflow_when_symmetrized": {"labels": ["a"], "dim_h": 1, "kind": "explicit",
                                             "blocks": [[[[[1.7e308, 0.0]]]]]},
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_malformed_spec_exits_two(self, case, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", self.CASES[case])
        assert main(["check-pd", "--spec", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("opkern: input error:")
        assert "Traceback" not in err

    def test_nan_observed_value_exits_two(self, specs, tmp_path, capsys):
        with open(specs["joint"], encoding="utf-8") as fh:
            joint = json.load(fh)
        joint["observed_l"] = [[[float("nan"), 0.0]]]
        out = tmp_path / "r.json"
        assert main(["condition", "--spec", write_json(tmp_path / "joint.json", joint), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("opkern: input error:")
        assert not out.exists()

    def test_nan_query_vector_exits_two(self, specs, tmp_path, capsys):
        fit = tmp_path / "fit.json"
        assert main(["krr-fit", "--spec", specs["one"], "--noise-spec", specs["one"],
                     "--train", specs["train"], "--out", str(fit)]) == 0
        query = write_json(tmp_path / "query.json", [{"label": "s1", "a": [[float("nan"), 0.0]]}])
        out = tmp_path / "pred.json"
        code = main(["krr-predict", "--spec", specs["one"], "--noise-spec", specs["one"],
                     "--train", specs["train"], "--fit", str(fit), "--query", query, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("opkern: input error:")
        assert not out.exists()


# Arbitrary JSON values.  Integers and floats stay small because they can
# become dimensions, ranks and label counts, which size the tables built.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 6)
    | st.floats(-8.0, 8.0)
    | st.sampled_from([float("nan"), float("inf")])
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)
ONE_PAIR = [[[1.0, 0.0]]]
VALID_SPECS = [
    {"labels": ["a", "b"], "dim_h": 1, "kind": "explicit",
     "blocks": [[ONE_PAIR, [[[0.0, 0.0]]]], [[[[0.0, 0.0]]], ONE_PAIR]]},
    builder_spec("identity", {}),
    builder_spec("constant", {"block": ONE_PAIR}),
    builder_spec("cp_contraction", {"h": [[[0.5, 0.0]]], "points": {"a": ONE_PAIR}}),
    builder_spec("neumann_series", {"h": [[[0.5, 0.0]]], "points": {"a": ONE_PAIR}, "tol": 1e-12}),
    builder_spec("random_pd", {"seed": 1, "rank": 1}),
]


def _field_paths(spec):
    """Key paths of the top-level fields, the builder's fields and each builder parameter."""
    paths = [(key,) for key in spec]
    if "builder" in spec:
        paths += [("builder", key) for key in spec["builder"]]
        paths += [("builder", "params", key) for key in spec["builder"]["params"]]
    return paths


@st.composite
def fuzzed_kernel_specs(draw):
    """A valid kernel spec with some of its fields replaced by arbitrary JSON."""
    spec = copy.deepcopy(draw(st.sampled_from(VALID_SPECS)))
    fields = draw(st.lists(st.sampled_from(_field_paths(spec)), min_size=1, max_size=3, unique=True))
    # Innermost first, so that replacing a container discards its fuzzed members.
    for path in sorted(fields, key=len, reverse=True):
        holder = spec
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = draw(JSON_VALUES)
    return spec


class TestSpecFuzz:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(spec=fuzzed_kernel_specs())
    def test_check_pd_exit_code_is_total(self, spec, tmp_path_factory):
        # Any exception escaping main fails the test.
        base = tmp_path_factory.getbasetemp()
        path = write_json(base / "fuzzed_spec.json", spec)
        assert main(["check-pd", "--spec", path, "--out", str(base / "fuzzed_report.json")]) in {0, 1, 2, 3}


# Numeric leaves of the spec arrays are replaced by these: non-finite
# numbers, finite numbers within 1e6 (the smallest subnormal included), and
# values that are not numbers.
LEAF_VALUES = (
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324, 0.0, 1e6, -1e6])
    | st.floats(-1e6, 1e6)
    | st.none()
    | st.booleans()
    | st.text(max_size=2)
    | st.lists(st.floats(-1.0, 1.0), max_size=2)
    | st.dictionaries(st.text(max_size=2), st.none(), max_size=1)
)


def _scalar_spec(value):
    return kernel_to_spec(scalar_kernel(LabelSet.of(["a"]), np.array([[value]])))


def _generated_system_spec():
    sys_ = generate_valid_system(3, 2, 1, dominated=True)
    spec = {name: kernel_to_spec(tab) for name, tab in sys_.tables().items()}
    spec["t"] = array_to_json(sys_.t_op)
    return spec


def _neumann_spec(point):
    return builder_spec("neumann_series", {"h": [[[0.5, 0.0]]], "points": {"a": [[[point, 0.0]]]}})


# Scalar tables over the label "a": CP = 3/4, N(1) = 4/3 and N(1/2) = 1/3.
CP = builder_spec("cp_contraction", {"h": [[[0.5, 0.0]]], "points": {"a": ONE_PAIR}})
BASE_SPECS = {
    "realize": [
        _generated_system_spec(),
        # 3/4 - (1/4)(4/3) = 1/2 - (1/4)(1/3)
        {"k1": CP, "k2": _scalar_spec(0.5), "l1": _neumann_spec(1.0), "l2": _neumann_spec(0.5),
         "t": [[[0.5, 0.0]]]},
    ],
    "rn": [
        {"l": _scalar_spec(1.0), "k": _scalar_spec(4.0)},
        {"l": CP, "k": _neumann_spec(1.0)},
    ],
    "condition": [
        {"k": _scalar_spec(1.0), "l": _neumann_spec(0.5), "t_coupling": [[[[[0.5, 0.0]]]]],
         "observed_l": [[[2.0, 0.0]]]},
    ],
    "mc-verify": [
        {"k": CP, "l": _scalar_spec(1.0), "t_coupling": [[[[[0.25, 0.0]]]]]},
    ],
}
EXTRA_ARGS = {"mc-verify": ["--seed", "1", "--samples", "50"]}


def _numeric_leaves(value, path=()):
    """Key paths of the numbers inside the spec's arrays."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    leaves = []
    for key, item in items:
        if isinstance(value, list) and isinstance(item, (int, float)) and not isinstance(item, bool):
            leaves.append(path + (key,))
        else:
            leaves += _numeric_leaves(item, path + (key,))
    return leaves


@st.composite
def fuzzed_specs(draw, command):
    """A valid spec for ``command`` with one to three array numbers replaced."""
    spec = copy.deepcopy(draw(st.sampled_from(BASE_SPECS[command])))
    for path in draw(st.lists(st.sampled_from(_numeric_leaves(spec)), min_size=1, max_size=3, unique=True)):
        holder = spec
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = draw(LEAF_VALUES)
    return spec


def _reject_constant(token):
    raise ValueError(f"report holds the non-JSON number {token}")


class TestSpecLeafFuzz:
    @pytest.mark.parametrize("command,spec", [(c, spec) for c in sorted(BASE_SPECS) for spec in BASE_SPECS[c]])
    def test_base_specs_succeed(self, command, spec, tmp_path):
        path = write_json(tmp_path / "spec.json", spec)
        assert main([command, "--spec", path, *EXTRA_ARGS.get(command, []), "--out", str(tmp_path / "r")]) == 0

    @pytest.mark.parametrize("command", sorted(BASE_SPECS))
    def test_exit_code_is_total_and_reports_are_json(self, command, tmp_path_factory):
        base = tmp_path_factory.mktemp(command)

        # Any exception escaping main fails the test.
        @settings(derandomize=True, database=None, deadline=None, max_examples=80)
        @given(spec=fuzzed_specs(command))
        def run(spec):
            path = write_json(base / "spec.json", spec)
            out = base / "report.json"
            out.unlink(missing_ok=True)
            code = main([command, "--spec", path, *EXTRA_ARGS.get(command, []), "--out", str(out)])
            assert code in {0, 1, 2, 3}
            if out.exists():
                json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject_constant)

        run()


# Numbers of a fuzzed training CSV or query file span the float range, so
# that design matrices, coefficients and predictions can overflow.  Most
# cells are such numbers; the rest do not parse or are not finite.
FUZZ_NUMBERS = [0.0, 1.0, -2.5, 5e-324, 1e-160, 1e150, 1e154, 1e200, -1e308, 1.7e308]
CSV_CELLS = st.sampled_from([repr(x) for x in FUZZ_NUMBERS] * 3 + ["nan", "inf", "", "x"])
FUZZ_LABELS = st.sampled_from(["s1", "s2", "zz"])
CSV_HEADER = ["label", "a_0_re", "a_0_im", "y_re", "y_im"]


@st.composite
def training_csvs(draw):
    """Training CSV text over d = 1: a valid header or a fuzzed one, and rows
    of fuzzed cells, some of the wrong length."""
    header = draw(st.just(CSV_HEADER) | st.lists(st.sampled_from(CSV_HEADER + ["a_1_re"]), max_size=6))
    cells = st.lists(CSV_CELLS, min_size=4, max_size=4) | st.lists(CSV_CELLS, max_size=5)
    rows = draw(st.lists(st.tuples(FUZZ_LABELS, cells).map(lambda r: [r[0], *r[1]]), max_size=4))
    return "\n".join(",".join(row) for row in [header, *rows]) + "\n"


QUERY_ITEMS = st.fixed_dictionaries({
    "label": FUZZ_LABELS,
    "a": st.lists(st.lists(st.sampled_from(FUZZ_NUMBERS + [float("nan")]), min_size=2, max_size=2),
                  min_size=1, max_size=2),
}) | JSON_VALUES


class TestKrrFuzz:
    def test_exit_code_is_total_and_reports_are_json(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("krr")
        spec = write_json(base / "k.json", kernel_to_spec(scalar_table([[2.0, 1.0], [1.0, 2.0]])))
        noise = write_json(base / "l.json", kernel_to_spec(identity_kernel(labels(2), 1)))

        def run(argv, out):
            out.unlink(missing_ok=True)
            code = main([*argv, "--out", str(out)])
            assert code in {0, 1, 2, 3}
            if out.exists():
                json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject_constant)
            return code

        # Any exception escaping main fails the test.
        @settings(derandomize=True, database=None, deadline=None, max_examples=100)
        @given(train=training_csvs(), queries=st.lists(QUERY_ITEMS, max_size=3))
        def fuzz(train, queries):
            (base / "train.csv").write_text(train, encoding="utf-8")
            krr = ["--spec", spec, "--noise-spec", noise, "--train", str(base / "train.csv")]
            if run(["krr-fit", *krr], base / "fit.json") == 0:
                query = write_json(base / "query.json", queries)
                run(["krr-predict", *krr, "--fit", str(base / "fit.json"), "--query", query], base / "pred.json")

        fuzz()


class TestHypothesisExitCodes:
    def test_factorize_indefinite_exits_three(self, specs):
        assert main(["factorize", "--spec", specs["indefinite"]]) == 3

    def test_sample_indefinite_exits_three(self, specs, tmp_path):
        code = main(["sample", "--spec", specs["indefinite"], "--samples", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_condition_singular_l_exits_three(self, specs, tmp_path):
        zero_spec = kernel_to_spec(scalar_kernel(labels(1), np.array([[0.0]])))
        joint = write_json(
            tmp_path / "joint0.json",
            {
                "k": zero_spec,
                "l": zero_spec,
                "t_coupling": [[[[[0.0, 0.0]]]]],
                "observed_l": [[[0.0, 0.0]]],
            },
        )
        assert main(["condition", "--spec", joint]) == 3

    def test_krr_degenerate_design_exits_three(self, specs, tmp_path):
        # duplicated sample under a rank-one kernel: [L] + [K] is singular
        rank_one = write_json(
            tmp_path / "rank_one.json",
            kernel_to_spec(scalar_kernel(labels(2), np.ones((2, 2)))),
        )
        train = tmp_path / "dup.csv"
        train.write_text(
            training_set_to_csv(
                TrainingSet.from_triples([("s1", [1.0], 1.0), ("s2", [1.0], 1.0)])
            ),
            encoding="utf-8",
        )
        code = main(["krr-fit", "--spec", rank_one, "--noise-spec", rank_one,
                     "--train", str(train)])
        assert code == 3


class TestRealize:
    def test_scalar_system_report(self, specs, tmp_path):
        out = tmp_path / "r.json"
        assert main(["realize", "--spec", specs["system"], "--out", str(out), "--no-timestamp"]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["rn_vs_transfer"] <= 1e-12
        assert results["dominated"] is True
        assert results["feature_map_residual"] <= 1e-12
        assert results["transitive_action"] is True
        assert results["rn_spectrum"][0] == pytest.approx(0.25)

    def test_invalid_system_exits_one_with_residual(self, specs, tmp_path):
        out = tmp_path / "r.json"
        assert main(["realize", "--spec", specs["bad_system"], "--out", str(out), "--no-timestamp"]) == 1
        results = json.loads(out.read_text())["results"]
        assert results["condition"] == "not_equivalent"
        assert results["system_identity_residual"] > 0

    def test_rank_deficient_system_exits_three(self, specs, tmp_path):
        out = tmp_path / "r.json"
        code = main(["realize", "--spec", specs["degenerate_system"], "--out", str(out), "--no-timestamp"])
        assert code == 3
        assert json.loads(out.read_text())["results"]["condition"] == "rank_condition_failed"

    def test_one_realization_and_four_factorizations(self, tmp_path, monkeypatch):
        sys_ = generate_valid_system(3, 2, 2, dominated=True)
        spec = {name: kernel_to_spec(tab) for name, tab in sys_.tables().items()}
        spec["t"] = array_to_json(sys_.t_op)
        path = write_json(tmp_path / "system.json", spec)
        calls = count_calls(monkeypatch, transfer, [
            "construct_partial_isometry", "kolmogorov_factorize", "transfer_function", "require_psd",
        ])
        pinv = count_calls(monkeypatch, np.linalg, ["pinv"])
        norms = count_calls(monkeypatch, np.linalg, ["norm"], spectral)
        out = tmp_path / "r.json"
        assert main(["realize", "--spec", path, "--out", str(out), "--no-timestamp"]) == 0
        assert json.loads(out.read_text())["results"]["dominated"] is True
        # T12 once per label; one positivity test, for the domination of K1 by K2
        assert calls == {
            "construct_partial_isometry": 1,
            "kolmogorov_factorize": 4,
            "transfer_function": 2,
            "require_psd": 1,
        }
        # One SVD gives pinv(G) and each M(s)^+; the table scales come from
        # the factorizations.  Left: the derivative's pinv(V_K2) and the
        # identification's pinv(V_K1), and eleven residual norms.
        assert {"pinv": pinv["pinv"], "spectral_norm": norms["norm"]} == {"pinv": 2, "spectral_norm": 11}


class TestRn:
    def test_dominated_pair(self, specs, tmp_path):
        out = tmp_path / "r.json"
        assert main(["rn", "--spec", specs["pair"], "--out", str(out), "--no-timestamp"]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["phi"][0][0] == pytest.approx([0.25, 0.0])
        assert results["sqrt_phi"][0][0] == pytest.approx([0.5, 0.0])

    def test_not_dominated_exits_three(self, specs, tmp_path):
        flipped = write_json(
            tmp_path / "pair2.json",
            {
                "l": json.loads((tmp_path / "pair.json").read_text())["k"],
                "k": json.loads((tmp_path / "pair.json").read_text())["l"],
            },
        )
        assert main(["rn", "--spec", flipped]) == 3


class TestSample:
    def test_identical_runs_give_identical_csv(self, specs, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code = main(["sample", "--spec", specs["one"], "--seed", "7", "--samples", "3",
                         "--out", str(out), "--no-timestamp"])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_env_fallback(self, specs, tmp_path, monkeypatch):
        flagged, env = tmp_path / "flag.csv", tmp_path / "env.csv"
        main(["sample", "--spec", specs["one"], "--seed", "9", "--samples", "2", "--out", str(flagged)])
        monkeypatch.setenv("OPKERN_SEED", "9")
        main(["sample", "--spec", specs["one"], "--samples", "2", "--out", str(env)])
        assert flagged.read_bytes() == env.read_bytes()

    def test_flag_beats_env(self, specs, tmp_path, monkeypatch):
        monkeypatch.setenv("OPKERN_SEED", "1")
        a = tmp_path / "a.csv"
        main(["sample", "--spec", specs["one"], "--seed", "2", "--samples", "2", "--out", str(a)])
        monkeypatch.delenv("OPKERN_SEED")
        b = tmp_path / "b.csv"
        main(["sample", "--spec", specs["one"], "--seed", "2", "--samples", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSampleCount:
    @pytest.mark.parametrize("command,spec", [("sample", "one"), ("mc-verify", "joint")])
    @pytest.mark.parametrize("samples", ["-1", "0"])
    def test_nonpositive_samples_exit_two(self, command, spec, samples, specs):
        proc = subprocess.run(
            [sys.executable, "-m", "opkern.cli", command, "--spec", specs[spec], "--samples", samples],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "--samples" in proc.stderr


class TestTolerance:
    @pytest.mark.parametrize("command,required", [
        ("sample", []),
        ("krr-fit", ["--noise-spec", "n.json", "--train", "t.csv"]),
        ("krr-predict", ["--noise-spec", "n.json", "--train", "t.csv", "--fit", "f.json", "--query", "q.json"]),
    ])
    def test_tol_is_not_an_option(self, command, required, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--spec", "k.json", *required, "--tol", "1e-3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check-pd", "factorize"])
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_invalid_tol_exits_two(self, command, tol, specs, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--spec", specs["identity"], "--tol", tol])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "--tol" in err


    def test_factorize_truncating_tol_exits_zero(self, tmp_path):
        # dropping the eigenvalue 1e-4 <= tol moves the reconstruction by 1e-4
        blocks = [[[[[1.0, 0.0]]], [[[0.0, 0.0]]]], [[[[0.0, 0.0]]], [[[1e-4, 0.0]]]]]
        spec = write_json(tmp_path / "k.json", {"labels": ["a", "b"], "dim_h": 1, "kind": "explicit", "blocks": blocks})
        out = tmp_path / "f.json"
        assert main(["factorize", "--spec", spec, "--tol", "1e-3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["dilation_dim"] == 1


class TestMcVerify:
    def test_scalar_joint_passes(self, specs, tmp_path):
        out = tmp_path / "r.json"
        code = main(["mc-verify", "--spec", specs["joint"], "--seed", "5",
                     "--samples", "200000", "--out", str(out), "--no-timestamp"])
        assert code == 0
        assert json.loads(out.read_text())["results"]["passed"] is True

    def test_unattainable_sigma_budget_exits_one(self, specs, tmp_path):
        # --tol is the standard-error budget; 1e-3 sigma cannot be met
        out = tmp_path / "r.json"
        code = main(["mc-verify", "--spec", specs["joint"], "--seed", "5",
                     "--samples", "2000", "--tol", "0.001", "--out", str(out), "--no-timestamp"])
        assert code == 1
        assert json.loads(out.read_text())["results"]["passed"] is False


    @pytest.mark.parametrize("k,l,t,code", [
        (1e100, 1.0, 0.5, 3),  # the L direction of the joint is below the rank cutoff: singular empirical c_yy
        (1e160, 1e160, 0.5e160, 1),  # the standard errors overflow
        (1e300, 1e300, 0.5e300, 1),
    ])
    def test_extreme_scales_exit_codes(self, k, l, t, code, tmp_path, capsys):
        joint = write_json(tmp_path / "joint.json", {
            "k": kernel_to_spec(scalar_table([[k]])),
            "l": kernel_to_spec(scalar_table([[l]])),
            "t_coupling": [[[[[t, 0.0]]]]],
        })
        out = tmp_path / "r.json"
        assert main(["mc-verify", "--spec", joint, "--seed", "1", "--samples", "50", "--out", str(out)]) == code
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,linalg", [
        ("mc-verify", {"eigh": 2, "eigvalsh": 2, "solve": 2, "pinv": 0, "inv": 0, "svd": 0}),
        ("condition", {"eigh": 2, "eigvalsh": 1, "solve": 1, "pinv": 0, "inv": 0, "svd": 0}),
    ])
    def test_joint_and_l_are_decomposed_once(self, command, linalg, tmp_path, monkeypatch):
        n, d = 3, 2
        blocks = random_pd_kernel(4, n, 2 * d).blocks
        spec = {
            "k": kernel_to_spec(OperatorKernelTable(labels(n), blocks[:, :, :d, :d])),
            "l": kernel_to_spec(OperatorKernelTable(labels(n), blocks[:, :, d:, d:])),
            "t_coupling": array_to_json(blocks[:, :, :d, d:]),
            "observed_l": array_to_json(np.ones((n, d))),
        }
        path = write_json(tmp_path / "joint.json", spec)
        calls = count_calls(monkeypatch, gaussian, ["kolmogorov_factorize", "require_psd"])
        counted = count_calls(monkeypatch, np.linalg, sorted(linalg))
        norms = count_calls(monkeypatch, np.linalg, ["norm"], spectral)
        extra = ["--seed", "1", "--samples", "2000"] if command == "mc-verify" else []
        assert main([command, "--spec", path, *extra, "--out", str(tmp_path / "r.json")]) == 0
        # M: one factorization, for the admission test and the sampler.  L:
        # one eigh, for the Schur pseudo-inverse, the gate and diag(L^-1).
        # eigvalsh: the Schur complement's positivity and the empirical c_yy gate.
        assert calls == {"kolmogorov_factorize": 1, "require_psd": 1}
        assert counted == linalg
        assert norms == {"norm": 0}


class TestCondition:
    def test_scalar_conditioning(self, specs, tmp_path):
        out = tmp_path / "r.json"
        assert main(["condition", "--spec", specs["joint"], "--out", str(out), "--no-timestamp"]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["posterior_mean"][0][0] == pytest.approx([1.0, 0.0])
        assert results["cond_cov_blocks"][0][0][0][0] == pytest.approx([0.75, 0.0])


class TestKrr:
    def test_fit_and_predict(self, specs, tmp_path):
        fit_path = tmp_path / "fit.json"
        code = main(["krr-fit", "--spec", specs["one"], "--noise-spec", specs["one"],
                     "--train", specs["train"], "--out", str(fit_path), "--no-timestamp"])
        assert code == 0
        fit = json.loads(fit_path.read_text())
        assert fit["results"]["fitted"][0] == pytest.approx([1.0, 0.0])

        query = write_json(tmp_path / "query.json", [{"label": "s1", "a": [[1.0, 0.0]]}])
        out = tmp_path / "pred.json"
        code = main(["krr-predict", "--spec", specs["one"], "--noise-spec", specs["one"],
                     "--train", specs["train"], "--fit", str(fit_path), "--query", query,
                     "--out", str(out), "--no-timestamp"])
        assert code == 0
        pred = json.loads(out.read_text())["results"]["predictions"][0]
        assert pred["value"] == pytest.approx([1.0, 0.0])

    @pytest.fixture
    def predict_args(self, specs, tmp_path):
        """krr-predict argv builder over a valid fit, for malformed fit or query payloads."""
        fit_path = tmp_path / "fit.json"
        main(["krr-fit", "--spec", specs["one"], "--noise-spec", specs["one"],
              "--train", specs["train"], "--out", str(fit_path), "--no-timestamp"])
        good_query = write_json(tmp_path / "query.json", [{"label": "s1", "a": [[1.0, 0.0]]}])

        def argv(fit=None, query=None):
            fit_file = str(fit_path) if fit is None else write_json(tmp_path / "bad_fit.json", fit)
            query_file = good_query if query is None else write_json(tmp_path / "bad_query.json", query)
            return ["krr-predict", "--spec", specs["one"], "--noise-spec", specs["one"],
                    "--train", specs["train"], "--fit", fit_file, "--query", query_file,
                    "--out", str(tmp_path / "pred.json")]

        return argv

    def test_query_items_must_be_objects(self, predict_args, capsys):
        assert main(predict_args(query=[1, 2])) == 2
        assert "query items" in capsys.readouterr().err

    def test_fit_must_be_an_object(self, predict_args, capsys):
        assert main(predict_args(fit=[])) == 2
        assert "not a krr-fit report" in capsys.readouterr().err

    def test_fit_needs_coefficients(self, predict_args, tmp_path, capsys):
        fit = json.loads((tmp_path / "fit.json").read_text())
        del fit["results"]["coefficients"]
        assert main(predict_args(fit=fit)) == 2
        assert "not a krr-fit report" in capsys.readouterr().err

    def test_missing_train_exits_two(self, specs, tmp_path, capsys):
        code = main(["krr-fit", "--spec", specs["one"], "--noise-spec", specs["one"],
                     "--train", str(tmp_path / "missing.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("opkern: input error:")
        assert "Traceback" not in err

    def test_overflowing_design_exits_two(self, specs, tmp_path, capsys):
        train = tmp_path / "huge.csv"
        train.write_text("label,a_0_re,a_0_im,y_re,y_im\ns1,1e200,0,1,0\n", encoding="utf-8")
        out = tmp_path / "fit.json"
        code = main(["krr-fit", "--spec", specs["one"], "--noise-spec", specs["one"],
                     "--train", str(train), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("opkern: input error: design matrix contains non-finite entries")
        assert not out.exists()

    def test_overflowing_prediction_exits_two(self, specs, tmp_path, capsys):
        train = tmp_path / "ten.csv"  # coefficient 10 / (1 + 1) = 5
        train.write_text("label,a_0_re,a_0_im,y_re,y_im\ns1,1,0,10,0\n", encoding="utf-8")
        krr = ["--spec", specs["one"], "--noise-spec", specs["one"], "--train", str(train)]
        fit = tmp_path / "fit.json"
        assert main(["krr-fit", *krr, "--out", str(fit)]) == 0
        query = write_json(tmp_path / "query.json", [{"label": "s1", "a": [[1e308, 0.0]]}])
        out = tmp_path / "pred.json"
        assert main(["krr-predict", *krr, "--fit", str(fit), "--query", query, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("opkern: input error: prediction contains non-finite entries")
        assert not out.exists()

    def test_hash_mismatch_rejected(self, specs, tmp_path):
        fit_path = tmp_path / "fit.json"
        main(["krr-fit", "--spec", specs["one"], "--noise-spec", specs["one"],
              "--train", specs["train"], "--out", str(fit_path), "--no-timestamp"])
        other_train = tmp_path / "other.csv"
        other_train.write_text(
            training_set_to_csv(TrainingSet.from_triples([("s1", [1.0], 5.0)])), encoding="utf-8"
        )
        query = write_json(tmp_path / "q.json", [{"label": "s1", "a": [[1.0, 0.0]]}])
        code = main(["krr-predict", "--spec", specs["one"], "--noise-spec", specs["one"],
                     "--train", str(other_train), "--fit", str(fit_path), "--query", query])
        assert code == 2


class TestDeterminism:
    COMMANDS = {
        "check-pd": lambda s: ["check-pd", "--spec", s["identity"]],
        "factorize": lambda s: ["factorize", "--spec", s["identity"]],
        "realize": lambda s: ["realize", "--spec", s["system"]],
        "rn": lambda s: ["rn", "--spec", s["pair"]],
        "sample": lambda s: ["sample", "--spec", s["one"], "--seed", "3", "--samples", "4"],
        "mc-verify": lambda s: ["mc-verify", "--spec", s["joint"], "--seed", "2", "--samples", "2000"],
        "condition": lambda s: ["condition", "--spec", s["joint"]],
        "krr-fit": lambda s: ["krr-fit", "--spec", s["one"], "--noise-spec", s["one"],
                              "--train", s["train"]],
    }

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_reports_are_byte_identical(self, name, specs, tmp_path):
        # mc-verify at 2000 samples is a smoke run; determinism is the point
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}.out"
            argv = self.COMMANDS[name](specs) + ["--out", str(out), "--no-timestamp"]
            main(argv)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_timestamp_is_present_by_default(self, specs, tmp_path):
        out = tmp_path / "ts.json"
        main(["check-pd", "--spec", specs["identity"], "--out", str(out)])
        assert "timestamp" in json.loads(out.read_text())


class TestConsoleEntryPoint:
    def test_installed_script_runs(self, specs):
        proc = subprocess.run(
            [sys.executable, "-m", "opkern.cli", "check-pd", "--spec", specs["identity"],
             "--no-timestamp"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["pd"] is True
