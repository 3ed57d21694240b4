import copy
import errno
import json
import os
import signal
import stat
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opkern import (
    LabelSet,
    OperatorKernelTable,
    gaussian,
    generate_valid_system,
    identity_kernel,
    kolmogorov_factorize,
    random_pd_kernel,
    transfer,
)
from opkern import InternalInvariantViolation, OpKernError, cli, dilation, kernels, regression
from opkern.errors import (
    GramMismatch,
    HypothesisFailure,
    InputError,
    InvalidKernel,
    LabelError,
    NotDominated,
    NotEquivalent,
    NotInvertible,
    NotPositiveDefinite,
    NotStrictContraction,
    ShapeError,
    SingularL,
    SingularSystem,
    SpectrumOutOfRange,
    ToleranceFailure,
)
from opkern.cli import main
from opkern import specio
from opkern.specio import SpecError
from opkern.regression import TrainingSet
from conftest import labels, null_cone_system, scalar_table
from wire import array_to_json, kernel_to_spec, training_set_to_csv
import oracles


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def specs(tmp_path):
    """A bundle of spec files shared by the CLI tests."""
    ls1 = labels(1)
    one = OperatorKernelTable.from_flat(ls1, 1, np.array([[1.0]]))
    four = OperatorKernelTable.from_flat(ls1, 1, np.array([[4.0]]))
    paths = {
        "identity": write_json(tmp_path / "identity.json", kernel_to_spec(identity_kernel(labels(2), 2))),
        "indefinite": write_json(
            tmp_path / "indefinite.json",
            kernel_to_spec(scalar_table(np.array([[1.0, 2.0], [2.0, 1.0]]))),
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

    @pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6], ids=["inside", "outside"])
    def test_tol_verdict_boundary(self, factor, tmp_path):
        # diag(-x, 1) has smallest eigenvalue -x exactly; --tol 1e-3 is an
        # absolute bound on it.
        x = 1e-3 * factor
        spec = write_json(tmp_path / "spec.json", kernel_to_spec(scalar_table(np.diag([-x, 1.0]))))
        out = tmp_path / "r.json"
        code = main(["check-pd", "--spec", spec, "--tol", "1e-3", "--out", str(out), "--no-timestamp"])
        assert code == (0 if factor < 1 else 1)
        assert json.loads(out.read_text())["results"] == {"pd": factor < 1, "min_eig": -x, "n": 2, "d": 1}

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


LINALG = ("eigh", "eigvalsh", "cholesky", "svd", "solve", "pinv", "inv")
# The opkern functions counted in every module that binds them.
OPKERN_CALLS = ("kolmogorov_factorize", "require_psd", "require_at_most", "standard_normal_rows")


@pytest.fixture
def cost_specs(tmp_path):
    """Small fixed inputs of all nine subcommands, and the krr-fit report that krr-predict reads."""
    n, d = 3, 2
    ls = labels(n)
    kernel = kernel_to_spec(random_pd_kernel(4, n, d))
    blocks = random_pd_kernel(4, n, 2 * d).blocks
    sys_ = generate_valid_system(3, 2, 2, dominated=True)
    system = {name: kernel_to_spec(tab) for name, tab in sys_.tables().items()}
    system["t"] = array_to_json(sys_.t_op)
    paths = {
        "kernel": write_json(tmp_path / "kernel.json", kernel),
        "noise": write_json(tmp_path / "noise.json", kernel_to_spec(identity_kernel(ls, d))),
        "system": write_json(tmp_path / "system.json", system),
        "pair": write_json(tmp_path / "pair.json", {"l": system["k1"], "k": system["k2"]}),
        "joint": write_json(tmp_path / "joint.json", {
            "k": kernel_to_spec(OperatorKernelTable(ls, blocks[:, :, :d, :d])),
            "l": kernel_to_spec(OperatorKernelTable(ls, blocks[:, :, d:, d:])),
            "t_coupling": array_to_json(blocks[:, :, :d, d:]),
            "observed_l": array_to_json(np.ones((n, d))),
        }),
        "query": write_json(tmp_path / "query.json", [{"label": "s1", "a": [[1.0, 0.0], [0.0, 1.0]]}] * 2),
        "train": str(tmp_path / "train.csv"),
        "fit": str(tmp_path / "fit.json"),
    }
    triples = [("s1", [1.0, 0.5], 1.0), ("s2", [0.0, 1.0], -1.0), ("s3", [1.0, 1.0], 0.5), ("s1", [0.5, 0.0], 2.0)]
    (tmp_path / "train.csv").write_text(training_set_to_csv(TrainingSet.from_triples(triples)), encoding="utf-8")
    krr = ["--spec", paths["kernel"], "--noise-spec", paths["noise"], "--train", paths["train"]]
    assert main(["krr-fit", *krr, "--out", paths["fit"]]) == 0
    paths["krr"] = krr
    return paths


class TestCostGates:
    # Every call to a decomposition, a solve, a spectral norm, a factorization, a
    # positivity gate, a gate of ``require_at_most`` and a tile of normals that
    # each subcommand makes on small inputs, and every table it builds; a
    # second decomposition of one Gram, or a dropped or doubled gate, fails
    # here, not as noise in the benchmark.  ``require_psd`` decides through
    # ``require_at_most``, so each positivity gate counts in both, and so does
    # the size bound of each kernel spec read (``MAX_GRAM_DIM``).  The
    # strict gates (``require_invertible``, the rank condition) are not
    # counted.  ``block_frobenius`` counts
    # the asymmetry passes of the tables that are not exactly Hermitian, two
    # for each.  It reads 0 everywhere: every spec here is written from
    # exactly Hermitian tables, the joint M and the Schur complement are
    # exactly Hermitian when built, and differences and congruences of
    # kernels are formed on flat Grams, not as tables.
    COMMANDS = {
        "check-pd": (
            lambda p: ["check-pd", "--spec", p["kernel"]],
            # eigvalsh: the kernel's Gram, for the verdict.  tables: the spec's.
            # require_at_most: the spec's size bound; the verdict is reported, not raised.
            {"eigvalsh": 1, "require_at_most": 1, "report_to_json": 1, "tables": 1},
        ),
        "factorize": (
            lambda p: ["factorize", "--spec", p["kernel"]],
            # eigh: the kernel's Gram, for the features and their gate.  tables: the spec's.
            # require_at_most: the spec's size bound, the positivity gate and the residual bound.
            {"kolmogorov_factorize": 1, "eigh": 1, "require_psd": 1, "require_at_most": 3, "report_to_json": 1,
             "tables": 1},
        ),
        "realize": (
            lambda p: ["realize", "--spec", p["system"]],
            # eigh: the Grams of K1, K2, L1 and L2, once each, and Phi.
            # eigvalsh: K2 - K1, for the domination of K1 by K2.
            # require_psd: the four factorizations' gates and the domination.
            # svd: every pseudo-inverse or basis of G, F, M(s) at each of the
            # two labels and the images X for transitivity comes from one SVD
            # (transfer._svd, no pinv); those of V_K1 and V_K2, and the table
            # scales, come from the factorizations.  Spectral norms: ten
            # residuals, ||F|| read off its SVD.  T12 once per label.
            # tables: K1, K2, L1 and L2 from the spec; the system identity
            # and the domination are formed on their flat Grams.
            # require_at_most: 4 size bounds, 4 x 2 for the factorizations'
            # positivity gates and residual bounds, the identity, the Gram
            # defect, the domination, both ends of Phi's spectrum and its
            # reproduction bound.
            {"kolmogorov_factorize": 4, "eigh": 5, "eigvalsh": 1, "require_psd": 5, "require_at_most": 18, "svd": 5,
             "spectral_norm": 10, "transfer_function": 2,
             "report_to_json": 1, "tables": 4},
        ),
        "rn": (
            lambda p: ["rn", "--spec", p["pair"]],
            # eigh: the Gram of k and Phi.  eigvalsh: l, for its gate, and
            # k - l, for the domination.  require_psd: k's factorization, l
            # and k - l.  No svd: V_k's pseudo-inverse comes from its
            # factorization.  Spectral norm: the
            # reproduction residual.  tables: l and k from the spec; k - l is
            # formed on their flat Grams.  require_at_most: 2 size bounds,
            # k's positivity gate and residual bound, l, the domination, both
            # ends of Phi's spectrum and its reproduction bound.
            {"kolmogorov_factorize": 1, "eigh": 2, "eigvalsh": 2, "require_psd": 3, "require_at_most": 9,
             "spectral_norm": 1, "report_to_json": 1, "tables": 2},
        ),
        "sample": (
            lambda p: ["sample", "--spec", p["kernel"], "--samples", "600"],
            # eigh: the kernel's Gram.  Normals: tile 0 (samples 0..511) is
            # drawn here; tile 1, an odd tile, is drawn by the forked child,
            # whose call this process does not see.  tables: the spec's.
            # require_at_most: the spec's size bound, the path budget, the
            # positivity gate and the residual bound.
            {"kolmogorov_factorize": 1, "eigh": 1, "require_psd": 1, "require_at_most": 4,
             "standard_normal_rows": 1, "tables": 1},
        ),
        "mc-verify": (
            lambda p: ["mc-verify", "--spec", p["joint"], "--seed", "1", "--samples", "2000"],
            # cholesky: the certificate of M, as in condition, and that of
            # the empirical c_yy gate, which replaces that gate's eigvalsh.
            # eigh: the joint Gram M, once, for the sampler and its gate,
            # and L, once, for the Schur pseudo-inverse, the gate and
            # diag(L^-1).  eigvalsh: the Schur complement's positivity.
            # solve: the exact map T L^-1 and the regression.  require_psd:
            # M's factorization and the Schur complement.  tables: K and L
            # from the spec, the joint M and the Schur complement, which is
            # symmetrized before it is built.  require_at_most: the size
            # bounds of K and L, the path budget, M's positivity gate and
            # residual bound, and the Schur complement's positivity; the
            # verdict is reported, not raised.
            {"kolmogorov_factorize": 1, "eigh": 2, "eigvalsh": 1, "cholesky": 2, "solve": 2,
             "require_psd": 2, "require_at_most": 6, "standard_normal_rows": 4, "report_to_json": 1,
             "tables": 4},
        ),
        "condition": (
            lambda p: ["condition", "--spec", p["joint"]],
            # As mc-verify, without the draws, the empirical gate and the
            # factorization of M, which is never sampled: one cholesky, and
            # no eigh or require_psd of M.  require_at_most: the size bounds
            # of K and L and the Schur complement's positivity.
            {"eigh": 1, "eigvalsh": 1, "cholesky": 1, "solve": 1, "require_psd": 1, "require_at_most": 3,
             "report_to_json": 1, "tables": 4},
        ),
        "krr-fit": (
            lambda p: ["krr-fit", *p["krr"]],
            # cholesky: the certificates of the signal and the noise design
            # matrix, for their gates, and of their sum, for its
            # invertibility before the solve.  Each certifies, so no
            # eigvalsh and no require_psd runs.  tables: the signal and the
            # noise spec's.  require_at_most: their size bounds.
            {"cholesky": 3, "solve": 1, "require_at_most": 2, "report_to_json": 1, "tables": 2},
        ),
        "krr-predict": (
            lambda p: ["krr-predict", *p["krr"], "--fit", p["fit"], "--query", p["query"]],
            # F is read from the fit: no table, no decomposition and no gate
            {"report_to_json": 1},
        ),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_calls_per_subcommand(self, command, cost_specs, tmp_path, monkeypatch):
        argv, expected = self.COMMANDS[command]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)  # sample forks on any machine
        linalg = count_calls(monkeypatch, np.linalg, LINALG)
        norms = count_calls(monkeypatch, np.linalg, ["norm"], spectral)
        ours = [count_calls(monkeypatch, module, [name for name in OPKERN_CALLS if hasattr(module, name)])
                for module in (cli, dilation, gaussian, kernels, regression, specio, transfer)]
        realization = count_calls(monkeypatch, transfer, ["transfer_function"])
        reports = count_calls(monkeypatch, specio, ["report_to_json"])
        tables = count_calls(monkeypatch, kernels.OperatorKernelTable, ["__init__"])
        asymmetry = count_calls(monkeypatch, kernels, ["_block_frobenius"])
        assert main([*argv(cost_specs), "--out", str(tmp_path / "out")]) == 0
        calls = {name: sum(counts.get(name, 0) for counts in ours) for name in OPKERN_CALLS}
        calls.update(linalg, spectral_norm=norms["norm"], **realization, **reports)
        calls.update(tables=tables["__init__"], block_frobenius=asymmetry["_block_frobenius"])
        assert {name: count for name, count in calls.items() if count} == expected


# What a poisoned call of each numpy.linalg function returns: its eigenvalues, singular values,
# Cholesky factor, solution or spectral norm, every entry set to ``value``.
POISONS = {
    "eigh": lambda out, value: out._replace(eigenvalues=np.full_like(out.eigenvalues, value)),
    "eigvalsh": np.full_like,
    "svd": lambda out, value: out._replace(S=np.full_like(out.S, value)),
    "cholesky": np.full_like,
    "solve": np.full_like,
    "norm": np.full_like,
}


class TestFaultInjection:
    # Each subcommand on its TestCostGates input, with the k-th call of one
    # decomposition, solve or spectral norm made to return NaN, then inf,
    # for every k: a gate refuses it with exit 1, 2 or 3, one stderr line
    # and no --out, never a traceback.  sample runs on one CPU, so that no
    # call happens in a forked child.  Two poisons are no fault:
    # - a Cholesky factor: the certificate declines and the eigenvalues
    #   decide, so the command may succeed;
    # - realize's 5th svd, that of the images X: the action reads as not
    #   transitive, a failed verdict that is reported (exit 1, no stderr).
    @pytest.mark.parametrize("command", list(TestCostGates.COMMANDS))
    def test_every_poisoned_call_is_refused(self, command, cost_specs, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        counts, target = dict.fromkeys(POISONS, 0), {}
        for name, poison in POISONS.items():
            def poisoned(*args, _name=name, _original=getattr(np.linalg, name), _poison=poison, **kwargs):
                out = _original(*args, **kwargs)
                caller = sys._getframe(1).f_globals.get("__name__", "")
                if not caller.startswith("opkern") or (_name == "norm" and not spectral(*args, **kwargs)):
                    return out
                counts[_name] += 1
                return _poison(out, target["value"]) if target.get("call") == (_name, counts[_name]) else out
            monkeypatch.setattr(np.linalg, name, poisoned)
        out = tmp_path / "out"
        argv = [*TestCostGates.COMMANDS[command][0](cost_specs), "--out", str(out), "--no-timestamp"]
        assert main(argv) == 0
        runs = [(name, k, value) for name, n in counts.items() for k in range(1, n + 1) for value in (np.nan, np.inf)]
        wrong = []
        for name, k, value in runs:
            counts.update(dict.fromkeys(counts, 0))
            target.update(call=(name, k), value=value)
            out.unlink(missing_ok=True)
            code = main(argv)
            err = capsys.readouterr().err
            if name == "cholesky" and code == 0 or (command, name, k) == ("realize", "svd", 5):
                ok = code == (0 if name == "cholesky" else 1) and err == "" and out.exists()
            else:
                ok = code in (1, 2, 3) and err.startswith("opkern: ") and err.count("\n") == 1 and not out.exists()
            if not ok:
                wrong.append((name, k, value, code, err))
        assert wrong == []


@pytest.mark.skipif(gaussian._openblas() is None, reason="numpy bundles no OpenBLAS to hold")
class TestBlasThreadPolicy:
    # A command whose Gram has order n * d, for krr-fit max(n * d, m), at most
    # cli.ONE_THREAD_MAX_ORDER runs its numerics at one BLAS thread, and one
    # above it at the default count.  The order of each TestCostGates input:
    # 2 x 2 for the system and the pair, 3 x 2 for the rest, and for krr-fit
    # its 4 training rows, or 8 others.  More rows than n * d make [L] + [K]
    # singular, so those are refused (exit 3), after their decompositions.
    ORDERS = {"check-pd": 6, "factorize": 6, "realize": 4, "rn": 4, "sample": 6, "mc-verify": 6,
              "condition": 6, "krr-fit": 6, "krr-fit:m": 8}

    @pytest.mark.parametrize("above", [False, True])
    @pytest.mark.parametrize("case", list(ORDERS))
    def test_decompositions_run_at_the_thread_count_of_the_order(self, case, above, cost_specs, tmp_path,
                                                                  monkeypatch, blas_threads):
        blas_threads(2)
        get, seen = gaussian._openblas()[0], []
        for name in ("eigh", "eigvalsh", "svd", "cholesky", "solve"):
            def spy(*args, _original=getattr(np.linalg, name), **kwargs):
                seen.append(get())
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)  # sample: no child
        monkeypatch.setattr(cli, "ONE_THREAD_MAX_ORDER", self.ORDERS[case] - above)
        argv = TestCostGates.COMMANDS[case.split(":")[0]][0](cost_specs)
        if case == "krr-fit:m":
            rng = np.random.default_rng(5)
            triples = [(f"s{i % 3 + 1}", rng.standard_normal(2), rng.standard_normal()) for i in range(8)]
            (tmp_path / "eight.csv").write_text(training_set_to_csv(TrainingSet.from_triples(triples)), encoding="utf-8")
            argv[argv.index("--train") + 1] = str(tmp_path / "eight.csv")
        assert main([*argv, "--out", str(tmp_path / "out")]) == (3 if case == "krr-fit:m" else 0)
        assert seen and set(seen) == {2 if above else 1}
        assert get() == 2

    def test_small_outputs_are_those_of_one_blas_thread(self, tmp_path):
        # Every subcommand on inputs of order 120, the benchmark's sample kernel
        # (n = 40, d = 3), writes the same bytes in a process at the default
        # thread count as in one at OPENBLAS_NUM_THREADS=1.
        n, d = 40, 3
        ls = labels(n)
        sys_ = generate_valid_system(1, n, d, dominated=True)
        system = {name: kernel_to_spec(tab) for name, tab in sys_.tables().items()}
        blocks = random_pd_kernel(2, n, 2 * d).blocks
        rng = np.random.default_rng(3)
        train = TrainingSet.from_triples(
            [(s, rng.standard_normal(d) + 1j * rng.standard_normal(d), complex(*rng.standard_normal(2))) for s in ls.labels])
        (tmp_path / "train.csv").write_text(training_set_to_csv(train), encoding="utf-8")
        kernel = write_json(tmp_path / "kernel.json", {"labels": list(ls.labels), "dim_h": d, "kind": "builder",
                                                       "builder": {"name": "random_pd", "params": {"seed": 1}}})
        noise = write_json(tmp_path / "noise.json", kernel_to_spec(identity_kernel(ls, d)))
        system_path = write_json(tmp_path / "system.json", {**system, "t": array_to_json(sys_.t_op)})
        pair = write_json(tmp_path / "pair.json", {"l": system["k1"], "k": system["k2"]})
        joint = write_json(tmp_path / "joint.json", {
            "k": kernel_to_spec(OperatorKernelTable(ls, blocks[:, :, :d, :d])),
            "l": kernel_to_spec(OperatorKernelTable(ls, blocks[:, :, d:, d:])),
            "t_coupling": array_to_json(blocks[:, :, :d, d:]),
            "observed_l": array_to_json(np.ones((n, d))),
        })
        query = write_json(tmp_path / "query.json", [{"label": "s7", "a": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]}])
        krr = ["--spec", kernel, "--noise-spec", noise, "--train", str(tmp_path / "train.csv")]
        fit = str(tmp_path / "fit.json")  # krr-predict's report records the fit's path: one for both processes
        assert main(["krr-fit", *krr, "--out", fit]) == 0
        commands = [
            ["check-pd", "--spec", kernel], ["factorize", "--spec", kernel], ["realize", "--spec", system_path],
            ["rn", "--spec", pair], ["sample", "--spec", kernel, "--samples", "600"],
            ["mc-verify", "--spec", joint, "--samples", "2000"], ["condition", "--spec", joint], ["krr-fit", *krr],
            ["krr-predict", *krr, "--fit", fit, "--query", query],
        ]
        script = (
            "import json, sys\n"
            "from opkern.cli import main\n"
            "for argv in json.loads(sys.argv[2]):\n"
            "    assert main([*argv, '--no-timestamp', '--out', f'{sys.argv[1]}/{argv[0]}']) == 0, argv\n"
        )
        env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
        procs = {}
        for threads in ("default", "1"):
            (tmp_path / threads).mkdir()
            procs[threads] = subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path / threads), json.dumps(commands)], stderr=subprocess.PIPE,
                env=env if threads == "default" else {**env, "OPENBLAS_NUM_THREADS": threads})
        for proc in procs.values():
            assert proc.communicate()[1] == b""
        differ = [argv[0] for argv in commands
                  if (tmp_path / "default" / argv[0]).read_bytes() != (tmp_path / "1" / argv[0]).read_bytes()]
        assert differ == []


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

    # Files json.dumps cannot write; each once ended in a traceback.
    RAW_SPECS = {
        "utf16": json.dumps(builder_spec("identity", {})).encode("utf-16"),  # starts with the BOM \xff\xfe
        "integer_5000_digits": b'{"dim_h": ' + b"9" * 5000 + b"}",
        "nested_200000": b"[" * 200_000,
    }
    RAW_TRAIN = {
        "byte_ff": b"label,a_0_re,a_0_im,y_re,y_im\ns\xff1,1,0,2,0\n",
        "field_200000_chars": b"label,a_0_re,a_0_im,y_re,y_im\n" + b"s" * 200_000 + b",1,0,2,0\n",
    }

    @pytest.mark.parametrize("case", sorted(CASES) + sorted(RAW_SPECS))
    def test_malformed_spec_exits_two(self, case, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        if case in self.RAW_SPECS:
            spec.write_bytes(self.RAW_SPECS[case])
        else:
            write_json(spec, self.CASES[case])
        assert main(["check-pd", "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("opkern: input error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(RAW_TRAIN))
    def test_undecodable_training_csv_exits_two(self, case, specs, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_bytes(self.RAW_TRAIN[case])
        out = tmp_path / "fit.json"
        code = main(["krr-fit", "--spec", specs["one"], "--noise-spec", specs["one"],
                     "--train", str(train), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("opkern: input error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("names,dim_h", [(["a"], 8193), ([f"s{i}" for i in range(8193)], 1)],
                             ids=["dim_h", "labels"])
    def test_gram_one_above_the_size_bound_exits_two_before_any_table(self, names, dim_h, tmp_path,
                                                                       monkeypatch, capsys):
        # The bound is the literal 8192, so a raised bound fails here rather than building the table.
        def no_table(*args, **kwargs):
            raise AssertionError("a table was built")

        monkeypatch.setattr(specio, "identity_kernel", no_table)
        monkeypatch.setattr(kernels.OperatorKernelTable, "__init__", no_table)
        spec = write_json(tmp_path / "spec.json", {**builder_spec("identity", {}, dim_h=dim_h), "labels": names})
        assert main(["check-pd", "--spec", spec]) == 2
        assert stderr_is(capsys.readouterr().err, "input error: n * dim_h = 8193 exceeds the supported 8192")

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


class TestNumberTypes:
    """A JSON string or boolean where an array number belongs exits 2, though
    numpy would convert both; every array of every input is decoded alike."""

    PAIRS = {"string": ["4", 0.0], "padded_string": [" 2 ", 0], "booleans": [True, False], "mixed": [True, 0.5]}
    LOCATIONS = ("blocks", "builder_params", "t", "t_coupling", "observed_l", "query_a")

    @staticmethod
    def argv(location, pair, specs, tmp_path):
        matrix = [[pair]]
        if location in ("blocks", "builder_params"):
            spec = ({"labels": ["a"], "dim_h": 1, "kind": "explicit", "blocks": [[matrix]]} if location == "blocks"
                    else builder_spec("constant", {"block": matrix}))
            return ["check-pd", "--spec", write_json(tmp_path / "spec.json", spec)]
        if location == "t":
            with open(specs["system"], encoding="utf-8") as fh:
                system = {**json.load(fh), "t": matrix}
            return ["realize", "--spec", write_json(tmp_path / "system.json", system)]
        if location in ("t_coupling", "observed_l"):
            with open(specs["joint"], encoding="utf-8") as fh:
                joint = {**json.load(fh), location: [[matrix]] if location == "t_coupling" else matrix}
            return ["condition", "--spec", write_json(tmp_path / "joint.json", joint)]
        krr = ["--spec", specs["one"], "--noise-spec", specs["one"], "--train", specs["train"]]
        fit = tmp_path / "fit.json"
        assert main(["krr-fit", *krr, "--out", str(fit)]) == 0
        query = write_json(tmp_path / "query.json", [{"label": "s1", "a": [pair]}])
        return ["krr-predict", *krr, "--fit", str(fit), "--query", query]

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    @pytest.mark.parametrize("location", LOCATIONS)
    def test_non_number_leaf_exits_two(self, location, pair, specs, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main([*self.argv(location, self.PAIRS[pair], specs, tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("opkern: input error: numeric arrays must hold JSON numbers"), err
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
# numbers, finite numbers within 1e6 (the smallest subnormal included),
# numbers out to the float limit, whose squares and sums overflow, and
# values that are not numbers.
LEAF_VALUES = (
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324, 0.0, 1e6, -1e6])
    | st.sampled_from([1e150, 1e154, 1e200, -1e308, 1.7e308, 8e307])
    | st.floats(-1e6, 1e6)
    | st.none()
    | st.booleans()
    | st.text(max_size=2)
    | st.lists(st.floats(-1.0, 1.0), max_size=2)
    | st.dictionaries(st.text(max_size=2), st.none(), max_size=1)
)


def _scalar_spec(value):
    return kernel_to_spec(OperatorKernelTable.from_flat(LabelSet.of(["a"]), 1, np.array([[value]])))


def _generated_system_spec():
    sys_ = generate_valid_system(3, 2, 1, dominated=True)
    spec = {name: kernel_to_spec(tab) for name, tab in sys_.tables().items()}
    spec["t"] = array_to_json(sys_.t_op)
    return spec


def _neumann_spec(point):
    return builder_spec("neumann_series", {"h": [[[0.5, 0.0]]], "points": {"a": [[[point, 0.0]]]}})


# Scalar tables over the label "a": CP = 3/4, N(1) = 4/3 and N(1/2) = 1/3.
# In EQUAL_L, L1 = L2, so a huge t reaches the identity gate through ||T||^2 alone.
EQUAL_L = {"k1": _scalar_spec(2.0), "k2": _scalar_spec(2.0), "l1": _scalar_spec(1.0), "l2": _scalar_spec(1.0),
           "t": [[[0.5, 0.0]]]}
CP = builder_spec("cp_contraction", {"h": [[[0.5, 0.0]]], "points": {"a": ONE_PAIR}})
BASE_SPECS = {
    "realize": [
        _generated_system_spec(),
        # 3/4 - (1/4)(4/3) = 1/2 - (1/4)(1/3)
        {"k1": CP, "k2": _scalar_spec(0.5), "l1": _neumann_spec(1.0), "l2": _neumann_spec(0.5),
         "t": [[[0.5, 0.0]]]},
        EQUAL_L,
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
    # EQUAL_L runs last, so that the earlier base specs keep their test ids.
    @pytest.mark.parametrize("command,spec", [(c, spec) for c in sorted(BASE_SPECS) for spec in BASE_SPECS[c]
                                              if spec is not EQUAL_L] + [("realize", EQUAL_L)])
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
CSV_CELLS = st.sampled_from([repr(x) for x in FUZZ_NUMBERS] * 3 + ["nan", "inf", "", "x", "1_0", "\u0661\u0662", " 2 "])
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


@st.composite
def non_positive_tables(draw):
    """A real symmetric n x n table, n <= 3, whose smallest eigenvalue is at most -0.05."""
    n = draw(st.integers(1, 3))
    a = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n))).reshape(n, n)
    sym = 0.5 * (a + a.T)
    return sym - (np.linalg.eigvalsh(sym)[0] + draw(st.floats(0.05, 1.0))) * np.eye(n)


class TestHypothesisExitCodes:
    # The slots whose positivity README names as a hypothesis, each with the
    # name its failure gives it on stderr.
    POSITIVITY_SLOTS = {
        **{("rn", name): f"kernel {name}" for name in ("k", "l")},
        **{("realize", name): f"kernel {name}" for name in ("k1", "k2", "l1", "l2")},
        **{("krr-fit", name): f"{name} design matrix" for name in ("signal", "noise")},
    }

    def test_non_positive_table_in_a_positivity_slot_exits_three(self, tmp_path_factory, capsys):
        base = tmp_path_factory.mktemp("slots")

        @settings(derandomize=True, database=None, deadline=None, max_examples=60)
        @given(slot=st.sampled_from(sorted(self.POSITIVITY_SLOTS)), values=non_positive_tables())
        def run(slot, values):
            (command, name), n = slot, values.shape[0]
            bad = kernel_to_spec(scalar_table(values))
            eye = kernel_to_spec(identity_kernel(labels(n), 1))
            if command == "rn":
                argv = ["--spec", write_json(base / "pair.json", {"l": eye, "k": eye, name: bad})]
            elif command == "realize":
                system = {"k1": eye, "k2": eye, "l1": eye, "l2": eye, "t": [[[1.0, 0.0]]], name: bad}
                argv = ["--spec", write_json(base / "system.json", system)]
            else:  # one training point per label, so each design matrix is its table
                triples = [(label, [1.0], 1.0) for label in labels(n).labels]
                (base / "train.csv").write_text(training_set_to_csv(TrainingSet.from_triples(triples)), encoding="utf-8")
                signal, noise = (bad, eye) if name == "signal" else (eye, bad)
                argv = ["--spec", write_json(base / "signal.json", signal),
                        "--noise-spec", write_json(base / "noise.json", noise), "--train", str(base / "train.csv")]
            capsys.readouterr()
            assert main([command, *argv, "--out", str(base / "r.json")]) == 3
            expected = f"opkern: hypothesis failure: {self.POSITIVITY_SLOTS[slot]} is not positive"
            assert capsys.readouterr().err.startswith(expected)

        run()

    def test_factorize_indefinite_exits_three(self, specs):
        assert main(["factorize", "--spec", specs["indefinite"]]) == 3

    def test_sample_indefinite_exits_three(self, specs, tmp_path):
        code = main(["sample", "--spec", specs["indefinite"], "--samples", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3

    @pytest.mark.parametrize(
        "command,extra", [("condition", []), ("mc-verify", []), ("condition", ["--tol", "0"])],
        ids=["condition", "mc-verify", "condition-tol0"],
    )
    def test_condition_singular_l_exits_three(self, tmp_path, capsys, command, extra):
        zero_spec = kernel_to_spec(scalar_table(np.array([[0.0]])))
        payload = {
            "k": zero_spec,
            "l": zero_spec,
            "t_coupling": [[[[[0.0, 0.0]]]]],
            "observed_l": [[[0.0, 0.0]]],
        }
        if extra:
            # L's eigenvalue 1e-12 passes a --tol of 0, but L is singular to 1e-10 relative, where
            # the Schur complement would be formed with a pseudo-inverse that drops the direction
            # the mean map inverts.
            payload = {
                "k": kernel_to_spec(identity_kernel(labels(2), 1)),
                "l": kernel_to_spec(scalar_table(np.diag([1.0, 1e-12]))),
                "t_coupling": array_to_json(np.diag([0.5, 1e-7]).reshape(2, 2, 1, 1)),
                "observed_l": [[[1.0, 0.0]], [[1.0, 0.0]]],
            }
        joint = write_json(tmp_path / "joint0.json", payload)
        assert main([command, "--spec", joint, *extra]) == 3
        assert "L Gram matrix" in capsys.readouterr().err

    def test_krr_degenerate_design_exits_three(self, specs, tmp_path):
        # duplicated sample under a rank-one kernel: [L] + [K] is singular
        rank_one = write_json(
            tmp_path / "rank_one.json",
            kernel_to_spec(scalar_table(np.ones((2, 2)))),
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

    @pytest.mark.parametrize("slot", ["signal", "noise"])
    def test_krr_non_positive_design_exits_three_naming_its_slot(self, specs, tmp_path, capsys, slot):
        identity = write_json(tmp_path / "eye.json", kernel_to_spec(identity_kernel(labels(2), 1)))
        spec, noise = (specs["indefinite"], identity) if slot == "signal" else (identity, specs["indefinite"])
        train = tmp_path / "two.csv"
        train.write_text(
            training_set_to_csv(TrainingSet.from_triples([("s1", [1.0], 1.0), ("s2", [1.0], 0.0)])),
            encoding="utf-8",
        )
        assert main(["krr-fit", "--spec", spec, "--noise-spec", noise, "--train", str(train)]) == 3
        assert f"hypothesis failure: {slot} design matrix is not positive" in capsys.readouterr().err


def system_spec(path, k1, k2, l1, l2, t):
    """Write the system spec of flat Grams over labels s1 .. sn and the operator ``t``."""
    t = np.atleast_2d(np.asarray(t, dtype=np.complex128))
    d = t.shape[0]
    table = lambda flat: kernel_to_spec(OperatorKernelTable.from_flat(labels(len(flat) // d), d, flat))
    return write_json(path, {"k1": table(k1), "k2": table(k2), "l1": table(l1), "l2": table(l2),
                             "t": array_to_json(t)})


def stderr_is(err, expected):
    """Whether stderr is the one ``opkern:`` line starting with ``expected``, or empty when that is ``""``."""
    return err == "" if not expected else err.startswith(f"opkern: {expected}") and err.count("\n") == 1


SUMS = np.array([[1.0, 1.0], [1.0, 1.0]])
DIFFERENCES = np.array([[1.0, -1.0], [-1.0, 1.0]])


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

    def test_nan_rank_condition_exits_three_without_report(self, tmp_path, capsys, monkeypatch):
        # A report cannot hold a NaN sigma_min, so the refusal is the stderr line alone.
        sys_ = generate_valid_system(0, 2, 2)
        spec = system_spec(tmp_path / "system.json", *(tab.flat for tab in sys_.tables().values()), sys_.t_op)
        svd = transfer._svd

        def nan_for_m(a, rcond):
            s, basis, pinv = svd(a, rcond)
            return (np.full_like(s, np.nan) if a.shape[1] == 2 else s), basis, pinv  # M(s) alone has d = 2 columns

        monkeypatch.setattr(transfer, "_svd", nan_for_m)
        out = tmp_path / "r.json"
        assert main(["realize", "--spec", spec, "--out", str(out), "--no-timestamp"]) == 3
        assert stderr_is(capsys.readouterr().err, "hypothesis failure: rank condition fails at label 's1': sigma_min nan")
        assert not out.exists()

    # Spectral norms of realize, in call order: 1 the identity defect, 2 ||T||, 3 the Gram defect, 4 the
    # feature-map and 5 the reconstruction residuals (batched), 6 the intertwining residual, 7 and 8 the
    # partial-isometry defect, 9 Phi's reproduction residual, 10 rn_vs_transfer (batched).
    @pytest.mark.parametrize("call", [4, 5, 6, 7, 8, 10], ids=[
        "feature-map", "reconstruction", "intertwining", "initial-projection", "final-projection", "rn-vs-transfer"])
    def test_nan_residual_exits_one_without_report(self, call, tmp_path, capsys, monkeypatch):
        # A NaN fails the verdict, and no report can hold it: the check refuses it, not the report writer.
        sys_ = generate_valid_system(3, 2, 2, dominated=True)
        spec = system_spec(tmp_path / "system.json", *(tab.flat for tab in sys_.tables().values()), sys_.t_op)
        norm, calls = np.linalg.norm, []

        def nan_at_call(x, ord=None, *args, **kwargs):
            value = norm(x, ord, *args, **kwargs)
            calls.append(ord == 2)
            return np.full_like(value, np.nan) if ord == 2 and sum(calls) == call else value

        monkeypatch.setattr(np.linalg, "norm", nan_at_call)
        out = tmp_path / "r.json"
        assert main(["realize", "--spec", spec, "--out", str(out), "--no-timestamp"]) == 1
        assert stderr_is(capsys.readouterr().err, "a realization residual contains non-finite entries")
        assert not out.exists()
        assert sum(calls) == 10

    def test_nan_domination_test_exits_three_without_report(self, tmp_path, capsys, monkeypatch):
        # A NaN spectrum of K2 - K1 decides nothing: read as "not dominated", it would skip the
        # sqrt(dK1/dK2) = T12 check of this dominated system.
        sys_ = generate_valid_system(3, 2, 2, dominated=True)
        spec = system_spec(tmp_path / "system.json", *(tab.flat for tab in sys_.tables().values()), sys_.t_op)
        out = tmp_path / "r.json"
        assert main(["realize", "--spec", spec, "--out", str(out), "--no-timestamp"]) == 0
        assert json.loads(out.read_text())["results"]["dominated"] is True
        out.unlink()
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(a.shape[-1], np.nan))
        assert main(["realize", "--spec", spec, "--out", str(out), "--no-timestamp"]) == 3
        assert stderr_is(capsys.readouterr().err, "hypothesis failure: hi - lo is not positive (min eig nan")
        assert not out.exists()

    def test_system_near_the_null_cone_of_l1_minus_l2_is_realized(self, tmp_path, capsys):
        # T^H (L1 - L2) T cancels, so its rounding is far from Hermitian at its own size.
        out = tmp_path / "r.json"
        spec = system_spec(tmp_path / "system.json", *null_cone_system(0.5, 1e-6, np.array([1.0, 1j])))
        assert main(["realize", "--spec", spec, "--out", str(out), "--no-timestamp"]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["system_identity_residual"] <= 1e-10 and results["dominated"] is True
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flats,t,code,err", [
        # K1 - K2 reaches 1.6e308, which is representable: the identity fails
        ((8e307 * SUMS, 8e307 * DIFFERENCES, np.eye(2), np.eye(2)), 1.0, 1, ""),
        # ||T||^2 overflows: the scale leaves the float range
        ((np.eye(2),) * 4, 1e200, 2, "input error: system identity leaves the float range"),
        # the residual and the scale both overflow
        ((np.eye(3), np.eye(3), 5e307 * np.ones((3, 3)), np.zeros((3, 3))), 1.3, 2,
         "input error: system identity leaves the float range"),
        # the congruence T^H (L1 - L2) T overflows
        ((np.eye(2), np.eye(2), 2.0 * np.eye(2), np.eye(2)), 1e200 * np.eye(2), 2,
         "input error: system identity leaves the float range"),
        # the identity is exact and its scale finite, but G^H G is not
        ((8e307 * np.eye(2), 8e307 * np.eye(2), 1e307 * np.eye(2), 1e307 * np.eye(2)), np.sqrt(10.0), 2,
         "input error: stacked feature Grams"),
    ], ids=["k-differences-at-1.6e308", "t-1e200", "l-5e307", "congruence-overflow", "feature-grams"])
    def test_extreme_scales_exit_codes(self, flats, t, code, err, tmp_path, capsys):
        out = tmp_path / "r.json"
        spec = system_spec(tmp_path / "system.json", *flats, t)
        assert main(["realize", "--spec", spec, "--out", str(out), "--no-timestamp"]) == code
        assert stderr_is(capsys.readouterr().err, err)
        if code == 1:
            assert json.loads(out.read_text())["results"]["condition"] == "not_equivalent"


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

    @pytest.mark.parametrize("l,k", [
        ([[1.0, 2.0], [2.0, 1.0]], 5.0 * np.eye(2)),  # k - l is positive: l is dominated
        ([[-0.5, 0.5], [0.5, -0.5]], np.ones((2, 2))),  # l is negative on the null space of k only
    ], ids=["dominated", "null-space-of-k"])
    def test_non_positive_l_exits_three(self, l, k, tmp_path, capsys):
        pair = {"l": kernel_to_spec(scalar_table(l)), "k": kernel_to_spec(scalar_table(k))}
        assert main(["rn", "--spec", write_json(tmp_path / "pair.json", pair)]) == 3
        assert "opkern: hypothesis failure: kernel l is not positive" in capsys.readouterr().err

    def test_pair_at_8e307_is_not_dominated(self, tmp_path, capsys):
        # k - l reaches -1.6e308, which is representable
        pair = {"l": kernel_to_spec(scalar_table(8e307 * SUMS)), "k": kernel_to_spec(scalar_table(8e307 * DIFFERENCES))}
        assert main(["rn", "--spec", write_json(tmp_path / "pair.json", pair)]) == 3
        assert stderr_is(capsys.readouterr().err, "hypothesis failure: hi - lo is not positive")


def one_shot_csv(tmp_path, count):
    """A kernel spec file, and the CSV of one ``draw_paths`` batch of ``count`` samples at seed 4."""
    table = random_pd_kernel(2, 3, 2)
    spec = write_json(tmp_path / "k.json", kernel_to_spec(table))
    return spec, specio.path_batch_to_csv(gaussian.draw_paths(kolmogorov_factorize(table), 4, 0, count))


class TestSample:
    def test_identical_runs_give_identical_csv(self, specs, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code = main(["sample", "--spec", specs["one"], "--seed", "7", "--samples", "3",
                         "--out", str(out), "--no-timestamp"])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_defaults_to_zero_whatever_the_environment(self, specs, tmp_path, monkeypatch):
        # The CSV records no seed, so only --seed may choose it.
        zero, unset = tmp_path / "zero.csv", tmp_path / "unset.csv"
        main(["sample", "--spec", specs["one"], "--seed", "0", "--samples", "2", "--out", str(zero)])
        monkeypatch.setenv("OPKERN_SEED", "9")
        main(["sample", "--spec", specs["one"], "--samples", "2", "--out", str(unset)])
        assert zero.read_bytes() == unset.read_bytes()

    @pytest.mark.parametrize("count,cpus", [
        pytest.param(count, cpus, id=f"{count}{mask}")
        for count in (1, 511, 512, 513, 514, 1025, 2100)
        for mask, cpus in (("", None), ("-1cpu", {0}), ("-2cpus", {0, 1}), ("-64cpus", set(range(64))))
    ])
    def test_streamed_csv_equals_one_shot(self, count, cpus, tmp_path, capsys, monkeypatch):
        # One tile of samples is written at a time, to --out and to stdout, the
        # odd tiles by a forked child if two CPUs may be used; 514 leaves the
        # child a last tile of one-sample halves, and 2100 leaves the command
        # its own last tile after a full odd one.  Without a mask the test
        # runs on this machine's own.
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        spec, whole = one_shot_csv(tmp_path, count)
        out = tmp_path / "paths.csv"
        argv = ["sample", "--spec", spec, "--seed", "4", "--samples", str(count)]
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == whole
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == whole
        with pytest.raises(ChildProcessError):  # every formatter was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cpus,count,forks", [(None, 1025, 0), ({0}, 1025, 0), (set(range(64)), 1025, 1),
                                                  (set(range(64)), 512, 0)],
                             ids=["no-affinity", "1cpu", "64cpus", "512-samples"])
    def test_a_run_forks_one_formatter_at_most(self, cpus, count, forks, specs, tmp_path, monkeypatch):
        # 1025 samples: two full tiles and a one-sample tile; 512 are one tile, which is the command's.
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity")
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        fork, pids = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: pids.append(fork()) or pids[-1])
        assert main(["sample", "--spec", specs["one"], "--samples", str(count), "--out", str(tmp_path / "p.csv")]) == 0
        assert len(pids) == forks

    @pytest.fixture
    def fail_in_the_second_part(self, monkeypatch):
        # With two CPUs, the odd tile that holds samples 512..1023 is the child's.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        to_csv = specio.path_batch_to_csv

        def failing(batch, start=0):
            if 512 <= start < 1024:
                raise MemoryError("late part")
            return to_csv(batch, start)

        monkeypatch.setattr(specio, "path_batch_to_csv", failing)

    def test_failure_in_a_child_is_the_parents_failure(self, fail_in_the_second_part, specs, tmp_path, capsys):
        folder = tmp_path / "out"
        folder.mkdir()
        out = folder / "paths.csv"
        assert main(["sample", "--spec", specs["one"], "--samples", "1000", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "opkern: input error: late part\n"
        assert list(folder.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_part_of_a_failed_child_is_formatted_again(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        spec, whole = one_shot_csv(tmp_path, 1025)
        parent, to_csv = os.getpid(), specio.path_batch_to_csv

        def failing_in_children(batch, start=0):
            if os.getpid() != parent:
                raise MemoryError("child only")
            return to_csv(batch, start)

        monkeypatch.setattr(specio, "path_batch_to_csv", failing_in_children)
        out = tmp_path / "paths.csv"
        assert main(["sample", "--spec", spec, "--seed", "4", "--samples", "1025", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == whole

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open descriptors in /proc")
    def test_part_that_could_not_be_forked_is_formatted_here(self, tmp_path, monkeypatch):
        # The fork fails; the command writes the whole CSV itself and closes both ends of the pipe.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        spec, whole = one_shot_csv(tmp_path, 1025)
        forks = []

        def failing_fork():
            forks.append(None)
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing_fork)
        out = tmp_path / "paths.csv"
        open_fds = len(os.listdir("/proc/self/fd"))
        assert main(["sample", "--spec", spec, "--seed", "4", "--samples", "1025", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == whole
        assert len(forks) == 1
        assert len(os.listdir("/proc/self/fd")) == open_fds

    def test_child_that_ends_early_leaves_its_tiles_here(self, tmp_path, monkeypatch):
        # The child sends the frames of tile 1, then exits while formatting tile 3 (samples 1536..2047).
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        spec, whole = one_shot_csv(tmp_path, 2100)
        parent, to_csv = os.getpid(), specio.path_batch_to_csv

        def exiting_in_the_child(batch, start=0):
            if os.getpid() != parent and start == 1536:
                os._exit(0)
            return to_csv(batch, start)

        monkeypatch.setattr(specio, "path_batch_to_csv", exiting_in_the_child)
        out = tmp_path / "paths.csv"
        assert main(["sample", "--spec", spec, "--seed", "4", "--samples", "2100", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == whole
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_frame_missing_mid_tile_is_formatted_here(self, tmp_path, monkeypatch):
        # Only the first frame (samples 512..767) is read from the pipe: the command formats
        # the tile's second half and every later odd tile, and the child, blocked on the
        # pipe, gets EPIPE once the command closes it.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        spec, whole = one_shot_csv(tmp_path, 3000)
        write_frames, calls = cli._write_frames, []

        def first_frame_only(pipe, out, count):
            calls.append(count)
            return write_frames(pipe, out, 1) if len(calls) == 1 else 0

        monkeypatch.setattr(cli, "_write_frames", first_frame_only)
        out = tmp_path / "paths.csv"
        assert main(["sample", "--spec", spec, "--seed", "4", "--samples", "3000", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == whole
        assert calls == [2, 2, 2]  # tiles 1, 3 and 5
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(gaussian._openblas() is None, reason="numpy bundles no OpenBLAS to hold")
    def test_both_processes_draw_at_one_blas_thread(self, specs, tmp_path, monkeypatch):
        # Each draw appends its process and BLAS thread count to a file; the count is restored after the run.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        get, draw, log = gaussian._openblas()[0], gaussian.draw_paths, tmp_path / "draws.txt"
        before = get()

        def spy(*args):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {get()}\n")
            return draw(*args)

        monkeypatch.setattr(gaussian, "draw_paths", spy)
        assert main(["sample", "--spec", specs["one"], "--samples", "2100", "--out", str(tmp_path / "p.csv")]) == 0
        draws = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
        assert len(draws) == 5 and {threads for _, threads in draws} == {"1"}
        assert sorted(pid == str(os.getpid()) for pid, _ in draws) == [False, False, True, True, True]
        assert get() == before

    def test_closed_stdout_reaps_every_formatter(self, tmp_path):
        # The reader is gone before the first tile is written, and the child's
        # odd tile (about 300 KB) still waits on a full pipe.  A pipe end left open
        # would deadlock the command and its child, so both run in a process
        # group of their own that is killed at the deadline.
        spec = write_json(tmp_path / "k.json", kernel_to_spec(identity_kernel(labels(8), 2)))
        script = (
            "import os, sys\n"
            "from opkern.cli import main\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "read_end, write_end = os.pipe()\n"
            "os.close(read_end)\n"
            "with open(write_end, 'w', encoding='utf-8') as sys.stdout:\n"
            "    code = main(['sample', '--spec', sys.argv[1], '--samples', '2000'])\n"
            "sys.stdout = sys.__stdout__\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    sys.exit(code)\n"
            "sys.exit('a formatter was left unreaped')\n"
        )
        proc = subprocess.Popen([sys.executable, "-c", script, spec], stderr=subprocess.PIPE, start_new_session=True)
        try:
            err = proc.communicate(timeout=60)[1]
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("sample on a closed stdout did not end within 60 s")
        assert (proc.returncode, err) == (0, b"")

    @pytest.mark.parametrize("command,spec", [("sample", "one"), ("mc-verify", "joint")])
    @pytest.mark.parametrize("seed", ["-1", str(2**64), "5.0", "x"])
    def test_seed_outside_the_philox_keys_exits_two(self, command, spec, seed, specs, capsys):
        # Philox keys are 64 bits: 2**64 + 5 would draw the paths of seed 5.
        with pytest.raises(SystemExit) as exc:
            main([command, "--spec", specs[spec], "--samples", "2", "--seed", seed])
        assert exc.value.code == 2
        assert "argument --seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command,spec", [("sample", "one"), ("mc-verify", "joint")])
    def test_largest_seed_is_accepted(self, command, spec, specs, tmp_path):
        out = tmp_path / "r.out"
        assert main([command, "--spec", specs[spec], "--samples", "2000", "--seed", str(2**64 - 1),
                     "--out", str(out)]) == 0
        assert out.stat().st_size > 0

    def test_closed_stdout_ends_the_output(self, specs):
        # As `opkern sample ... | head -1`: the reader takes the header, then
        # closes the pipe while the writer still has megabytes to go.
        proc = subprocess.Popen(
            [sys.executable, "-m", "opkern.cli", "sample", "--spec", specs["identity"], "--samples", "20000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"sample,label,coordinate,re,im\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""


class TestOut:
    @pytest.fixture
    def fail_on_second_tile(self, monkeypatch):
        draw = gaussian.draw_paths

        def draw_one_tile(fs, seed, start, count, **kwargs):
            if start > 0:
                raise MemoryError("second tile")
            return draw(fs, seed, start, count, **kwargs)

        monkeypatch.setattr(gaussian, "draw_paths", draw_one_tile)

    def test_failure_after_the_first_tile_leaves_no_out(self, fail_on_second_tile, specs, tmp_path, capsys):
        folder = tmp_path / "out"
        folder.mkdir()
        out = folder / "paths.csv"
        assert main(["sample", "--spec", specs["one"], "--samples", "1000", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "opkern: input error: second tile\n"
        assert list(folder.iterdir()) == []

    def test_failure_keeps_an_earlier_out(self, fail_on_second_tile, specs, tmp_path):
        out = tmp_path / "paths.csv"
        out.write_text("earlier\n", encoding="utf-8")
        assert main(["sample", "--spec", specs["one"], "--samples", "1000", "--out", str(out)]) == 2
        assert out.read_text(encoding="utf-8") == "earlier\n"
        assert not list(tmp_path.glob(".*"))

    def test_out_that_is_not_a_regular_file_is_written_in_place(self, specs):
        assert main(["check-pd", "--spec", specs["identity"], "--out", os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_out_through_a_symlink_replaces_its_target(self, specs, tmp_path):
        target, link = tmp_path / "report.json", tmp_path / "link.json"
        target.write_text("earlier\n", encoding="utf-8")
        link.symlink_to(target)
        assert main(["check-pd", "--spec", specs["identity"], "--out", str(link)]) == 0
        assert link.is_symlink()
        assert json.loads(target.read_text(encoding="utf-8"))["results"]["pd"] is True


class TestStreamingMemory:
    @pytest.mark.parametrize("command,samples", [("mc-verify", 2048), ("sample", 512)])
    def test_traced_peak_is_flat_in_samples(self, command, samples, tmp_path):
        if command == "sample":
            spec = write_json(tmp_path / "k.json", kernel_to_spec(random_pd_kernel(5, 2, 1)))
        else:
            n, d = 4, 2
            blocks = random_pd_kernel(5, n, 2 * d).blocks
            spec = write_json(tmp_path / "joint.json", {
                "k": kernel_to_spec(OperatorKernelTable(labels(n), blocks[:, :, :d, :d])),
                "l": kernel_to_spec(OperatorKernelTable(labels(n), blocks[:, :, d:, d:])),
                "t_coupling": array_to_json(blocks[:, :, :d, d:]),
            })

        def peak(count):
            argv = [command, "--spec", spec, "--samples", str(count), "--out", str(tmp_path / "r.out")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(samples)  # warm-up: the first draw imports scipy.special
        # Holding every path, or the whole CSV, grows the peak 4-10 fold here.
        assert peak(10 * samples) <= 1.2 * peak(samples)


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

    @pytest.mark.parametrize("command,spec", [("sample", "one"), ("mc-verify", "joint")])
    def test_unallocatable_samples_exit_two(self, command, spec, specs, tmp_path, capsys):
        # numpy refuses the petabytes of paths at once and allocates nothing
        out = tmp_path / "r.out"
        assert main([command, "--spec", specs[spec], "--samples", "1000000000000000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("opkern: input error:") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command,spec,width", [("sample", "one", 1), ("mc-verify", "joint", 2)])
    def test_count_above_the_path_bound_exits_two_before_drawing(
        self, command, spec, width, specs, tmp_path, monkeypatch, capsys
    ):
        # The bound is the literal 2**32, and the first draw raises, so a loosened bound fails
        # at once instead of streaming the paths.
        calls = []

        def first_draw_fails(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a path was drawn")

        monkeypatch.setattr(gaussian, "standard_normal_rows", first_draw_fails)
        out = tmp_path / "r.out"
        samples = 2**32 // width + 1
        assert main([command, "--spec", specs[spec], "--samples", str(samples), "--out", str(out)]) == 2
        assert calls == []
        assert "path values" in capsys.readouterr().err
        assert not out.exists()


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


class TestOverflowingSpectrum:
    """Finite entries whose spectrum overflows: 4 x 5e307 is the one nonzero
    eigenvalue, so the spectral norm of the table is infinite."""

    LABELS = ["s0", "s1", "s2", "s3"]
    TABLE = {"labels": LABELS, "dim_h": 1, "kind": "explicit", "blocks": [[[[[5e307, 0.0]]]] * 4] * 4}
    EYE = {"labels": LABELS, "dim_h": 1, "kind": "builder", "builder": {"name": "identity", "params": {}}}
    ZERO = [[[[[0.0, 0.0]]]] * 4] * 4
    SPECS = {
        "mc-verify": {"k": TABLE, "l": EYE, "t_coupling": ZERO},
        "rn": {"l": EYE, "k": TABLE},
        "condition": {"k": TABLE, "l": EYE, "t_coupling": ZERO, "observed_l": [[[0.0, 0.0]]] * 4},
    }

    @pytest.mark.parametrize("command,args", [("check-pd", []), ("factorize", []), ("sample", ["--samples", "3"]),
                                              ("mc-verify", ["--samples", "100"]), ("rn", []), ("condition", [])])
    def test_is_refused_as_input(self, command, args, tmp_path, capsys):
        # Against an infinite scale every positivity gate passes: check-pd
        # would report pd, factorize keep no eigenvalue and sample draw zeros.
        spec = write_json(tmp_path / "spec.json", self.SPECS.get(command, self.TABLE))
        out = tmp_path / "r.out"
        assert main([command, "--spec", spec, "--out", str(out), *args]) == 2
        err = capsys.readouterr().err
        assert err.endswith("leaves the float range: spectral norm inf\n") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()


class TestCondition:
    def test_scalar_conditioning(self, specs, tmp_path):
        out = tmp_path / "r.json"
        assert main(["condition", "--spec", specs["joint"], "--out", str(out), "--no-timestamp"]) == 0
        results = json.loads(out.read_text())["results"]
        assert results["posterior_mean"][0][0] == pytest.approx([1.0, 0.0])
        assert results["cond_cov_blocks"][0][0][0][0] == pytest.approx([0.75, 0.0])

    @pytest.mark.parametrize("k,l,t,observed", [
        (1.0, 1e-300, 1e-160, 1e300),  # the mean map is 1e140, the posterior mean 1e440
        (1e300, 1e-300, 1e10, 1.0),  # T L^-1 T^H is 1e320
    ], ids=["posterior-mean", "schur-complement"])
    def test_overflow_is_an_input_error(self, k, l, t, observed, tmp_path, capsys):
        joint = write_json(tmp_path / "joint.json", {
            "k": kernel_to_spec(scalar_table([[k]])),
            "l": kernel_to_spec(scalar_table([[l]])),
            "t_coupling": [[[[[t, 0.0]]]]],
            "observed_l": [[[observed, 0.0]]],
        })
        out = tmp_path / "r.json"
        assert main(["condition", "--spec", joint, "--out", str(out)]) == 2
        assert stderr_is(capsys.readouterr().err, "input error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["condition", "mc-verify"])
    def test_overflowing_schur_complement_is_named(self, command, tmp_path, capsys):
        # The spec's tables are finite, but T L^-1 T^H is 1e320: the refusal names the complement.
        joint = write_json(tmp_path / "joint.json", {
            "k": kernel_to_spec(scalar_table([[1e300]])),
            "l": kernel_to_spec(scalar_table([[1e-300]])),
            "t_coupling": [[[[[1e10, 0.0]]]]],
            "observed_l": [[[1.0, 0.0]]],
        })
        out = tmp_path / "r.json"
        assert main([command, "--spec", joint, "--out", str(out)]) == 2
        assert stderr_is(capsys.readouterr().err, "input error: Schur complement K - T L^-1 T^H contains non-finite entries")
        assert not out.exists()

    def test_infinite_mean_map_is_an_input_error(self, specs, tmp_path, capsys, monkeypatch):
        # The map is solved by LU, apart from the eigh that forms the Schur complement.
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(b.shape, np.inf, dtype=b.dtype))
        out = tmp_path / "r.json"
        assert main(["condition", "--spec", specs["joint"], "--out", str(out)]) == 2
        assert stderr_is(capsys.readouterr().err, "input error: mean map T L^-1 contains non-finite entries")
        assert not out.exists()

    def test_observed_is_not_an_option(self, capsys):
        # observed values come only from the spec's observed_l
        with pytest.raises(SystemExit) as exc:
            main(["condition", "--spec", "j.json", "--observed", "o.json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --observed" in capsys.readouterr().err


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

    @pytest.mark.parametrize("header,got,want", [
        ("label,a_0_re,a_1_im,y_re,y_im", "a_1_im", "a_0_im"),
        ("label,a_0_re,y_re,y_im", "y_re", "a_0_im"),
    ], ids=["second-of-the-pair", "pair-cut-short"])
    def test_misnamed_training_column_is_the_one_named(self, header, got, want, specs, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text(f"{header}\ns1,1,0,2,0\n", encoding="utf-8")
        assert main(["krr-fit", "--spec", specs["one"], "--noise-spec", specs["one"], "--train", str(train)]) == 2
        assert capsys.readouterr().err == (
            f"opkern: input error: unexpected training CSV column {got!r}, expected {want!r}\n")

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

    # krr-predict reads only the fit's F; each of these exits 2 and names it.
    BAD_REGRESSION_FUNCTIONS = {
        "null": None,
        "not_an_object": [[[1.0, 0.0]]],
        "empty": {},
        "ragged": {"s1": [[1.0, 0.0]], "s2": [[1.0, 0.0], [2.0, 0.0]]},
        "string_leaf": {"s1": [["1.0", 0.0]]},
        "number_per_label": {"s1": 1.0},
    }

    @pytest.mark.parametrize("case", ["missing", *sorted(BAD_REGRESSION_FUNCTIONS)])
    def test_fit_needs_a_regression_function(self, case, predict_args, tmp_path, capsys):
        fit = json.loads((tmp_path / "fit.json").read_text())
        if case == "missing":  # as a fit written before krr-fit recorded F
            del fit["results"]["regression_function"]
        else:
            fit["results"]["regression_function"] = self.BAD_REGRESSION_FUNCTIONS[case]
        assert main(predict_args(fit=fit)) == 2
        err = capsys.readouterr().err
        assert err.startswith("opkern: input error:") and "regression_function" in err, err
        assert not (tmp_path / "pred.json").exists()

    def test_regression_function_matches_the_loop_built_one(self, tmp_path):
        table = random_pd_kernel(3, 4, 2)
        rng = np.random.default_rng(5)
        # s3 and s4 carry no training point; s1 carries two.
        train = TrainingSet.from_triples(
            (s, rng.standard_normal(2) + 1j * rng.standard_normal(2), rng.standard_normal() + 1j * rng.standard_normal())
            for s in ("s1", "s2", "s1")
        )
        (tmp_path / "train.csv").write_text(training_set_to_csv(train), encoding="utf-8")
        fit = tmp_path / "fit.json"
        assert main(["krr-fit", "--spec", write_json(tmp_path / "k.json", kernel_to_spec(table)),
                     "--noise-spec", write_json(tmp_path / "l.json", kernel_to_spec(identity_kernel(labels(4), 2))),
                     "--train", str(tmp_path / "train.csv"), "--out", str(fit)]) == 0
        results = json.loads(fit.read_text())["results"]
        assert sorted(results["regression_function"]) == ["s1", "s2", "s3", "s4"]
        got = np.array([specio.json_to_array(results["regression_function"][s], (2,)) for s in table.labels])
        ref = oracles.regression_function_bruteforce(table.blocks, table.labels, train.labels, train.vectors,
                                                     specio.json_to_array(results["coefficients"], (3,)))
        assert np.all(ref[2:] != 0)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_predictions_are_those_of_the_fitted_function_bit_for_bit(self, cost_specs, tmp_path):
        # JSON carries F exactly, so reading it equals evaluating the fit in-process.
        out = tmp_path / "pred.json"
        assert main(["krr-predict", *cost_specs["krr"], "--fit", cost_specs["fit"],
                     "--query", cost_specs["query"], "--out", str(out)]) == 0
        table = specio.kernel_from_spec(specio.load_json(cost_specs["kernel"]))
        noise = specio.kernel_from_spec(specio.load_json(cost_specs["noise"]))
        with open(cost_specs["train"], encoding="utf-8") as fh:
            train = specio.training_set_from_csv(fh.read())
        f_values = regression.krr_fit(table, noise, train).regression_function
        queries = specio.load_json(cost_specs["query"])
        want = regression.predict(table.label_set, f_values, [q["label"] for q in queries],
                                  specio.json_to_array([q["a"] for q in queries], (len(queries), 2)))
        predictions = json.loads(out.read_text())["results"]["predictions"]
        got = specio.json_to_array([p["value"] for p in predictions], (len(queries),))
        assert got.tobytes() == want.tobytes()

    def test_overflowing_regression_function_exits_two(self, tmp_path, capsys):
        # F(s2) = K(s2, s1) c = 1e307 * 500 overflows; the fit itself, [K] c = 500, does not.
        spec = write_json(tmp_path / "k.json", kernel_to_spec(scalar_table([[1.0, 1e307], [1e307, 1.0]])))
        noise = write_json(tmp_path / "l.json", kernel_to_spec(identity_kernel(labels(2), 1)))
        train = tmp_path / "train.csv"
        train.write_text("label,a_0_re,a_0_im,y_re,y_im\ns1,1.0,0.0,1000.0,0.0\n", encoding="utf-8")
        out = tmp_path / "fit.json"
        assert main(["krr-fit", "--spec", spec, "--noise-spec", noise, "--train", str(train), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "opkern: input error: regression function contains non-finite entries\n"
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662", " 2 ", "nan", "inf", "0x1p0", ""])
    def test_training_cell_that_is_not_a_decimal_literal_exits_two(self, cell, specs, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text(f"label,a_0_re,a_0_im,y_re,y_im\ns1,1.0,0.0,{cell},0.0\n", encoding="utf-8")
        out = tmp_path / "fit.json"
        code = main(["krr-fit", "--spec", specs["one"], "--noise-spec", specs["one"],
                     "--train", str(train), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"opkern: input error: bad numeric field in training CSV: {cell!r} is not a decimal number\n"
        )
        assert not out.exists()

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
        assert capsys.readouterr().err.startswith(
            "opkern: input error: signal design matrix contains non-finite entries"
        )
        assert not out.exists()

        # |a|^2 = 1e10 is finite under the signal [[1]] and overflows under the noise [[1e300]]
        one = labels(1)
        spec = write_json(tmp_path / "one.json", kernel_to_spec(OperatorKernelTable.from_flat(one, 1, np.array([[1.0]]))))
        noise = write_json(tmp_path / "big.json", kernel_to_spec(OperatorKernelTable.from_flat(one, 1, np.array([[1e300]]))))
        train.write_text("label,a_0_re,a_0_im,y_re,y_im\ns1,1e5,0,1,0\n", encoding="utf-8")
        assert main(["krr-fit", "--spec", spec, "--noise-spec", noise, "--train", str(train), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "opkern: input error: noise design matrix contains non-finite entries"
        )
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

    @pytest.mark.parametrize("name", ["spec", "noise_spec", "train"])
    def test_fit_without_an_input_hash_exits_two(self, name, predict_args, tmp_path, capsys):
        # Only a recorded hash proves the fit's gates ran on these bytes.
        fit = json.loads((tmp_path / "fit.json").read_text())
        del fit["inputs"][name]["sha256"]
        assert main(predict_args(fit=fit)) == 2
        assert f"does not record the sha256 of {name}" in capsys.readouterr().err
        assert not (tmp_path / "pred.json").exists()

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


class TestExitCodeTable:
    # The documented contract: 1 tolerance, 2 input, 3 hypothesis; an
    # internal invariant is a bug and exits 1 unprefixed.
    CATEGORIES = {
        InputError: (2, "input error: "),
        HypothesisFailure: (3, "hypothesis failure: "),
        ToleranceFailure: (1, "tolerance failure: "),
    }
    DOCUMENTED = {
        SpecError: 2, InvalidKernel: 2, ShapeError: 2, LabelError: 2,
        NotInvertible: 3, NotDominated: 3, NotPositiveDefinite: 3, NotStrictContraction: 3,
        SingularL: 3, SingularSystem: 3,
        NotEquivalent: 1, GramMismatch: 1, SpectrumOutOfRange: 1,
        InternalInvariantViolation: 1,
    }

    def test_every_error_class_has_one_exit_code(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        classes = {c for c in subclasses(OpKernError) if c.__module__.split(".")[0] == "opkern"}
        assert classes - set(self.CATEGORIES) == set(self.DOCUMENTED)
        for cls, code in self.DOCUMENTED.items():
            categories = [c for c in self.CATEGORIES if issubclass(cls, c)]
            assert len(categories) == (0 if cls is InternalInvariantViolation else 1), cls.__name__
            assert (cls.exit_code, cls.prefix) == (self.CATEGORIES[categories[0]] if categories else (1, ""))
            assert cls.exit_code == code, cls.__name__

    @pytest.mark.parametrize("cls", sorted(DOCUMENTED, key=lambda c: c.__name__), ids=lambda c: c.__name__)
    def test_main_exits_with_the_code_of_the_category(self, cls, specs, monkeypatch, capsys):
        def failing(args):
            raise cls("planted", min_eig=-1.0)

        monkeypatch.setattr(cli, "cmd_check_pd", failing)
        assert main(["check-pd", "--spec", specs["identity"]]) == self.DOCUMENTED[cls]
        assert capsys.readouterr().err == f"opkern: {cls.prefix}planted\n"


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
        "krr-predict": lambda s: ["krr-predict", "--spec", s["one"], "--noise-spec", s["one"],
                                  "--train", s["train"], "--fit", s["fit"], "--query", s["query"]],
    }

    @pytest.fixture
    def specs(self, specs, tmp_path):
        """The shared specs, with a krr-fit report and a query for krr-predict."""
        fit = str(tmp_path / "fit.json")
        assert main(["krr-fit", "--spec", specs["one"], "--noise-spec", specs["one"],
                     "--train", specs["train"], "--out", fit, "--no-timestamp"]) == 0
        query = write_json(tmp_path / "query.json", [{"label": "s1", "a": [[1.0, 0.5]]}] * 3)
        return {**specs, "fit": fit, "query": query}

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

    # The sorted keys of each report's inputs, params and results; sample writes a CSV, whose header is pinned.
    SCHEMAS = {
        "check-pd": (["spec"], ["tol"], ["d", "min_eig", "n", "pd"]),
        "factorize": (["spec"], ["tol"], ["basis_eigs", "dilation_dim", "dim_h", "features", "labels"]),
        "realize": (["spec"], ["tol"], ["dominated", "feature_map_residual", "gram_defect", "intertwining_residual",
                                        "kernel_reconstruction_residual", "partial_isometry_defect", "rn_spectrum",
                                        "rn_vs_transfer", "system_identity_residual", "transitive_action"]),
        "realize:not_equivalent": (["spec"], ["tol"], ["condition", "system_identity_residual"]),
        "realize:rank_condition_failed": (["spec"], ["tol"],
                                          ["condition", "label", "sigma_min", "system_identity_residual"]),
        "rn": (["spec"], ["tol"], ["dilation_dim", "phi", "reproduction_residual", "rn_spectrum", "sqrt_phi"]),
        "sample": "sample,label,coordinate,re,im",
        "mc-verify": (["spec"], ["samples", "seed"],
                      ["mean_map_dev_se", "passed", "residual_cov_dev_se", "samples", "tol_sigma"]),
        "condition": (["spec"], ["tol"], ["cond_cov_blocks", "mean_map", "null_dim", "posterior_mean"]),
        "krr-fit": (["noise_spec", "spec", "train"], [], ["coefficients", "fitted", "m", "regression_function"]),
        "krr-predict": (["fit", "noise_spec", "query", "spec", "train"], [], ["predictions"]),
    }
    FAILED_SYSTEMS = {"realize:not_equivalent": "bad_system", "realize:rank_condition_failed": "degenerate_system"}

    @pytest.mark.parametrize("case", sorted(SCHEMAS))
    def test_report_keys(self, case, specs, tmp_path):
        out = tmp_path / "report.out"
        failed = self.FAILED_SYSTEMS.get(case)
        argv = ["realize", "--spec", specs[failed]] if failed else self.COMMANDS[case](specs)
        main(argv + ["--out", str(out), "--no-timestamp"])
        if case == "sample":
            assert out.read_text().split("\n", 1)[0] == self.SCHEMAS[case]
            return
        report = json.loads(out.read_text())
        assert sorted(report) == ["command", "inputs", "params", "results"]
        assert tuple(sorted(report[key]) for key in ("inputs", "params", "results")) == self.SCHEMAS[case]

    def test_timestamp_is_present_by_default(self, specs, tmp_path):
        out = tmp_path / "ts.json"
        main(["check-pd", "--spec", specs["identity"], "--out", str(out)])
        assert "timestamp" in json.loads(out.read_text())


class TestConsoleEntryPoint:
    def test_installed_script_runs(self, specs):
        # Runs the module as ``python -m opkern.cli`` does, then reports on
        # stderr whether scipy.special was imported: only sampling needs it.
        script = (
            "import runpy, sys\n"
            "sys.argv[1:] = ['check-pd', '--spec', sys.argv[1], '--no-timestamp']\n"
            "try:\n"
            "    runpy.run_module('opkern.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    print('scipy.special' in sys.modules, file=sys.stderr)\n"
            "    raise\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, specs["identity"]],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["pd"] is True
        assert proc.stderr.strip() == "False"
