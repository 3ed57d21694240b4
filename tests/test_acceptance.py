"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).  Tolerances are pinned here and must not
be widened; Monte-Carlo criteria run at N = 200 000 with frozen seeds, so
the suite is deterministic.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from opkern import (
    NotPositiveDefinite,
    OperatorKernelTable,
    assemble_joint,
    condition,
    conditional_cov_equal,
    construct_partial_isometry,
    design_matrices,
    empirical_covariance,
    generate_valid_system,
    gp_posterior_mean,
    identity_kernel,
    is_positive_definite,
    kolmogorov_factorize,
    krr_fit,
    make_sampler,
    mc_verify_conditional,
    neumann_series_kernel,
    objective_value,
    radon_nikodym,
    random_pd_kernel,
    scalar_kernel,
    transfer_function,
    validate_system,
    verify_realization,
)
from opkern.cli import main
from opkern.regression import TrainingSet
from opkern.specio import kernel_to_spec, training_set_to_csv
from conftest import labels
import oracles


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def scalar_system(k1, k2, l1, l2, t=1.0):
    ls = labels(1)
    mk = lambda v: scalar_kernel(ls, np.array([[float(v)]]))
    return validate_system(mk(k1), mk(k2), mk(l1), mk(l2), np.array([[float(t)]]))


def test_criterion_01_factorization_suite():
    with criterion(1, "factorization residual <= 1e-10 * ||flat|| on 50 kernels, < 5 s"):
        rng = np.random.default_rng(1001)
        started = time.monotonic()
        for case in range(50):
            n, d = int(rng.integers(1, 9)), int(rng.integers(1, 5))
            rank = int(rng.integers(1, n * d + 1))
            table = random_pd_kernel(10_000 + case, n, d, rank=rank)
            fs = kolmogorov_factorize(table)
            scale = is_positive_definite(table).scale
            worst = max(
                np.linalg.norm(fs.gram(s, t) - table.block(s, t), 2)
                for s in table.labels
                for t in table.labels
            )
            assert worst <= 1e-10 * scale, f"case {case}: residual {worst:.3e}"
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"suite took {elapsed:.2f} s"


def test_criterion_02_flattened_positivity_equals_quadratic_form():
    with criterion(2, "positivity test agrees with the quadratic-form vote on n*d <= 12"):
        rng = np.random.default_rng(2002)
        for case in range(12):
            n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            table = random_pd_kernel(20_000 + case, n, d)
            if case % 2:  # make half the instances clearly indefinite
                shift = is_positive_definite(table).scale
                table = table - (0.7 * shift) * identity_kernel(table.label_set, d)
            vote = oracles.quadratic_form_pd_flag(
                table.blocks, np.random.default_rng(30_000 + case), systems=100, rtol=1e-10
            )
            assert is_positive_definite(table).pd == vote, f"case {case}"


def test_criterion_03_transfer_realization():
    with criterion(3, "25 generated systems realize the transfer identities at 1e-8"):
        rng = np.random.default_rng(3003)
        for case in range(25):
            n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            sys_ = generate_valid_system(40_000 + case, n, d)
            real = construct_partial_isometry(sys_)
            report = verify_realization(real, sys_, tol=1e-8)
            assert report.partial_isometry_defect <= 1e-8, f"case {case}: {report}"
            assert report.intertwining_residual <= 1e-8, f"case {case}: {report}"
            assert report.feature_map_residual <= 1e-8, f"case {case}: {report}"
            assert report.reconstruction_residual <= 1e-8, f"case {case}: {report}"

        sys_ = scalar_system(4, 1, 4, 1)
        real = construct_partial_isometry(sys_)
        np.testing.assert_allclose(real.w, 0.2 * np.array([[2, 4], [1, 2]]), atol=1e-12)
        t12 = transfer_function(real, sys_, "s1")
        assert abs(t12[0, 0] - 2.0) <= 1e-12


def test_criterion_04_radon_nikodym_vs_transfer():
    with criterion(4, "sqrt of the derivative equals the transfer function at 1e-8"):
        sys_ = scalar_system(1, 4, 1, 4)
        rn = radon_nikodym(sys_.k1, sys_.k2)
        assert abs(rn.phi[0, 0] - 0.25) <= 1e-12
        assert abs(rn.sqrt_phi[0, 0] - 0.5) <= 1e-12
        real = construct_partial_isometry(sys_)
        t12 = transfer_function(real, sys_, "s1")
        assert abs(rn.sqrt_phi[0, 0] - t12[0, 0]) <= 1e-12

        rng = np.random.default_rng(4004)
        for case in range(25):
            n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            sys_ = generate_valid_system(50_000 + case, n, d, dominated=True)
            report = verify_realization(construct_partial_isometry(sys_), sys_, tol=1e-8)
            assert report.rn_vs_transfer <= 1e-8, f"case {case}: {report}"
            assert report.rn_spectrum[0] >= -1e-9, f"case {case}: {report}"
            assert report.rn_spectrum[1] <= 1.0 + 1e-9, f"case {case}: {report}"


def test_criterion_05_monte_carlo_covariance():
    with criterion(5, "empirical covariance within 0.02 relative Frobenius at N = 2e5"):
        cases = [(1, 2), (2, 2), (3, 2), (2, 4), (4, 4)]  # n*d up to 16
        for case, (n, d) in enumerate(cases):
            started = time.monotonic()
            table = random_pd_kernel(60_000 + case, n, d)
            batch = make_sampler(table, 600 + case).draw(200_000)
            est = empirical_covariance(batch)
            rel = np.linalg.norm(est.flat - table.flat) / np.linalg.norm(table.flat)
            assert rel <= 0.02, f"case {case}: relative error {rel:.4f}"
            assert time.monotonic() - started < 60.0, f"case {case} too slow"


def test_criterion_06_joint_conditioning():
    with criterion(6, "scalar conditional law exact at 1e-12, empirical at 5 SE, Schur gate matches brute force"):
        ls = labels(1)
        one = scalar_kernel(ls, np.array([[1.0]]))
        half = np.full((1, 1, 1, 1), 0.5)
        joint = assemble_joint(one, one, half)
        law = condition(joint, np.array([[2.0]]))
        assert abs(law.mean_map[0, 0] - 0.5) <= 1e-12
        assert abs(law.cond_cov.flat[0, 0] - 0.75) <= 1e-12
        report = mc_verify_conditional(joint, 66, 200_000, tol_sigma=5.0)
        assert report.passed, report

        # admissibility decision vs brute-force eigenvalues of the joint matrix
        for t in (0.0, 0.25, 0.5, 0.9, 0.99, 1.01, 1.5, 2.0):
            coupling = np.full((1, 1, 1, 1), t)
            flat = oracles.interleave_joint_bruteforce(one.blocks, one.blocks, coupling)
            oracle_ok = float(np.linalg.eigvalsh(flat)[0]) >= -1e-12
            try:
                assemble_joint(one, one, coupling)
                accepted = True
            except NotPositiveDefinite:
                accepted = False
            assert accepted == oracle_ok, f"coupling {t}"
        rng = np.random.default_rng(6006)
        for case in range(6):
            big = random_pd_kernel(70_000 + case, 2, 4)  # 2n*d = 16 <= 24
            k = OperatorKernelTable(big.label_set, big.blocks[:, :, :2, :2])
            l = OperatorKernelTable(big.label_set, big.blocks[:, :, 2:, 2:])
            base = big.blocks[:, :, :2, 2:]
            for lam in (0.5, 1.0, 2.0, 4.0):
                coupling = lam * base
                flat = oracles.interleave_joint_bruteforce(k.blocks, l.blocks, coupling)
                evals = np.linalg.eigvalsh(flat)
                if abs(evals[0]) <= 1e-8 * max(abs(evals[0]), abs(evals[-1])):
                    continue
                try:
                    assemble_joint(k, l, coupling)
                    accepted = True
                except NotPositiveDefinite:
                    accepted = False
                assert accepted == (evals[0] > 0), f"case {case}, lam {lam}"


def _equal_conditional_instance(rng, n, d):
    """(k1, k2, l1, l2, coupling) with equal conditional covariances."""
    nd = n * d
    ls = labels(n)

    def rand_pd(ridge):
        g = rng.standard_normal((nd, nd)) + 1j * rng.standard_normal((nd, nd))
        return g.conj().T @ g + ridge * np.eye(nd)

    k1_flat = rand_pd(1.0)
    l1_flat = rand_pd(0.5)
    l2_flat = l1_flat + rand_pd(0.0)
    t_gram = rng.standard_normal((nd, nd)) + 1j * rng.standard_normal((nd, nd))
    gap = np.linalg.inv(l1_flat) - np.linalg.inv(l2_flat)
    bump = t_gram @ gap @ t_gram.conj().T
    bump = 0.5 * (bump + bump.conj().T)
    lam_max = float(np.linalg.eigvalsh(bump)[-1])
    lam_min_k1 = float(np.linalg.eigvalsh(k1_flat)[0])
    scale = np.sqrt(0.5 * lam_min_k1 / max(lam_max, 1e-300))
    t_gram *= scale
    k2_flat = k1_flat - scale**2 * bump

    blockize = lambda flat: OperatorKernelTable.from_flat(ls, d, flat)
    coupling = t_gram.reshape(n, d, n, d).transpose(0, 2, 1, 3)
    return blockize(k1_flat), blockize(k2_flat), blockize(l1_flat), blockize(l2_flat), coupling


def test_criterion_07_conditional_covariance_equivalence():
    with criterion(7, "equality decision tracks the 1e-10 residual in both directions on 20 instances"):
        rng = np.random.default_rng(7007)
        sizes = [(1, 1), (2, 2), (2, 1), (3, 1), (1, 2)]
        for case in range(20):
            n, d = sizes[case % len(sizes)]
            k1, k2, l1, l2, coupling = _equal_conditional_instance(rng, n, d)
            report = conditional_cov_equal(k1, k2, l1, l2, coupling, tol=1e-10)
            assert report.equal, f"case {case}: residual {report.residual:.3e}"
            assert report.residual <= 1e-10

            # perturb one kernel well past tolerance: must flip the decision
            scale = is_positive_definite(k2).scale
            k2_off = k2 + (1e-6 * scale) * identity_kernel(k2.label_set, d)
            flipped = conditional_cov_equal(k1, k2_off, l1, l2, coupling, tol=1e-10)
            assert not flipped.equal, f"case {case}"
            assert flipped.residual > 1e-10


def test_criterion_08_ridge_equals_gp_posterior():
    with criterion(8, "full-grid ridge fit matches the posterior mean at 1e-9, gradient at 1e-6"):
        rng = np.random.default_rng(8008)
        for case in range(10):
            n, d = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            k = random_pd_kernel(80_000 + case, n, d)
            noise = random_pd_kernel(81_000 + case, n, d)
            observed = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
            triples = []
            for i, s in enumerate(k.labels):
                for p in range(d):
                    e = np.zeros(d)
                    e[p] = 1.0
                    triples.append((s, e, observed[i, p]))
            train = TrainingSet.from_triples(triples)
            fit = krr_fit(design_matrices(k, noise, train), train.targets)
            posterior = gp_posterior_mean(k, noise, observed)
            scale = max(1.0, float(np.linalg.norm(observed)))
            gap = np.linalg.norm(fit.fitted - posterior.reshape(-1))
            assert gap <= 1e-9 * scale, f"case {case}: gap {gap:.3e}"

            fun = lambda g: objective_value(k, noise, train, train.targets, g)
            base = fun(fit.coefficients)
            grad = []
            for idx in range(train.size):
                for part in (1.0, 1.0j):
                    h = 1e-5 * max(1.0, abs(fit.coefficients[idx]))
                    up = fit.coefficients.copy()
                    down = fit.coefficients.copy()
                    up[idx] += part * h
                    down[idx] -= part * h
                    grad.append((fun(up) - fun(down)) / (2 * h))
            grad_norm = float(np.linalg.norm(grad))
            assert grad_norm <= 1e-6 * max(1.0, base), f"case {case}: gradient {grad_norm:.3e}"


def test_criterion_09_neumann_builder():
    with criterion(9, "series builder inverts the contraction map pointwise at 1e-10 on 20 instances"):
        rng = np.random.default_rng(9009)
        for case in range(20):
            n, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h *= (0.2 + 0.3 * rng.random()) / np.linalg.norm(h, 2)  # ||h|| <= 0.5
            points = {}
            for i in range(n):
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                points[f"s{i + 1}"] = g / np.linalg.norm(g, 2)  # unit operator norm
            ls = labels(n)
            table = neumann_series_kernel(h, ls, points, tol=1e-12)
            assert is_positive_definite(table).pd, f"case {case}"
            for i, si in enumerate(ls.labels):
                for j, sj in enumerate(ls.labels):
                    block = table.blocks[i, j]
                    recovered = block - h.conj().T @ block @ h
                    target = points[si].conj().T @ points[sj]
                    gap = np.linalg.norm(recovered - target, 2)
                    assert gap <= 1e-10, f"case {case} ({si},{sj}): gap {gap:.3e}"


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "every subcommand is byte-identical across repeated runs"):
        ls = labels(1)
        one = scalar_kernel(ls, np.array([[1.0]]))
        four = scalar_kernel(ls, np.array([[4.0]]))
        spec_one = tmp_path / "one.json"
        spec_one.write_text(json.dumps(kernel_to_spec(one)))
        spec_system = tmp_path / "system.json"
        spec_system.write_text(json.dumps({
            "k1": kernel_to_spec(one), "k2": kernel_to_spec(four),
            "l1": kernel_to_spec(one), "l2": kernel_to_spec(four),
            "t": [[[1.0, 0.0]]],
        }))
        spec_pair = tmp_path / "pair.json"
        spec_pair.write_text(json.dumps({"l": kernel_to_spec(one), "k": kernel_to_spec(four)}))
        spec_joint = tmp_path / "joint.json"
        spec_joint.write_text(json.dumps({
            "k": kernel_to_spec(one), "l": kernel_to_spec(one),
            "t_coupling": [[[[[0.5, 0.0]]]]], "observed_l": [[[2.0, 0.0]]],
        }))
        train = tmp_path / "train.csv"
        train.write_text(training_set_to_csv(TrainingSet.from_triples([("s1", [1.0], 2.0)])))
        fit = tmp_path / "fit.json"
        assert main(["krr-fit", "--spec", str(spec_one), "--noise-spec", str(spec_one),
                     "--train", str(train), "--out", str(fit), "--no-timestamp"]) == 0
        query = tmp_path / "query.json"
        query.write_text(json.dumps([{"label": "s1", "a": [[1.0, 0.0]]}]))

        commands = {
            "check-pd": ["check-pd", "--spec", str(spec_one)],
            "factorize": ["factorize", "--spec", str(spec_one)],
            "realize": ["realize", "--spec", str(spec_system)],
            "rn": ["rn", "--spec", str(spec_pair)],
            "sample": ["sample", "--spec", str(spec_one), "--seed", "7", "--samples", "5"],
            "mc-verify": ["mc-verify", "--spec", str(spec_joint), "--seed", "1", "--samples", "5000"],
            "condition": ["condition", "--spec", str(spec_joint)],
            "krr-fit": ["krr-fit", "--spec", str(spec_one), "--noise-spec", str(spec_one),
                        "--train", str(train)],
            "krr-predict": ["krr-predict", "--spec", str(spec_one), "--noise-spec", str(spec_one),
                            "--train", str(train), "--fit", str(fit), "--query", str(query)],
        }
        for name, argv in commands.items():
            outputs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{name}-{tag}"
                code = main(argv + ["--out", str(out), "--no-timestamp"])
                assert code == 0, f"{name} exited {code}"
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], f"{name} output differs between runs"
