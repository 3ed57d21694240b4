"""Seeded inputs and job lists for the three benchmark workloads.

A workload writes its spec, CSV and query files into a work directory and
returns the jobs of one pass, in the fixed order they run.  Every job is a
full ``opkern`` command line with ``--no-timestamp --out <file>``; its
check compares the output with a reference built here from the generated
matrices (see ``checks.py``).

The sizes in ``SIZES`` are part of each workload's definition.  The
``small`` sizes exist only for the benchmark's self-test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks

SIZES = {
    "sampling": {"joint_n": 16, "joint_d": 2, "mc_samples": 100_000, "sample_n": 40, "sample_d": 3, "samples": 5_000},
    "realization": {"n": 30, "d": 3},
    "gram-solve": {"n": 300, "d": 3, "rank": 60, "cond_n": 60, "train_m": 600, "queries": 5_000},
}

SMALL_SIZES = {
    "sampling": {"joint_n": 3, "joint_d": 2, "mc_samples": 20_000, "sample_n": 4, "sample_d": 2, "samples": 2_000},
    "realization": {"n": 4, "d": 2},
    "gram-solve": {"n": 12, "d": 2, "rank": 5, "cond_n": 5, "train_m": 24, "queries": 50},
}

WORKLOADS = tuple(SIZES)


@dataclass
class Job:
    """One CLI invocation; ``argv[0]`` is the subcommand."""

    argv: list[str]
    check: Callable[[Path], str | None]
    expect_exit: int = 0
    first_digest: str | None = None
    verdict: str | None = None

    @property
    def out(self) -> Path:
        return Path(self.argv[self.argv.index("--out") + 1])

    @property
    def metric(self) -> str:
        """Name of the per-subcommand time this job feeds, e.g. ``krr_fit_s``."""
        return self.argv[0].replace("-", "_") + "_s"


def labels(n: int) -> list[str]:
    return [f"s{i + 1}" for i in range(n)]


def pairs(a: np.ndarray):
    """Complex array to nested ``[re, im]`` lists (the spec wire format)."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def blocks_from_flat(flat: np.ndarray, n: int, d: int) -> np.ndarray:
    return flat.reshape(n, d, n, d).transpose(0, 2, 1, 3)


def hermitian(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def random_pd_flat(seed: int, nd: int, rank: int | None = None) -> np.ndarray:
    """The ``random_pd`` builder's documented table: ``G^H G`` for a
    ``rank x nd`` complex Gaussian ``G`` drawn from ``default_rng(seed)``."""
    rank = nd if rank is None else rank
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((rank, nd)) + 1j * rng.standard_normal((rank, nd))
    return hermitian(g.conj().T @ g)


def explicit_spec(flat: np.ndarray, n: int, d: int) -> dict:
    return {"labels": labels(n), "dim_h": d, "kind": "explicit", "blocks": pairs(blocks_from_flat(flat, n, d))}


def builder_spec(n: int, d: int, name: str, params: dict) -> dict:
    return {"labels": labels(n), "dim_h": d, "kind": "builder", "builder": {"name": name, "params": params}}


def write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def cut_joint(flat: np.ndarray, n: int, d: int):
    """K, L and the coupling T (all at Gram level) from one table over 2d."""
    blocks = blocks_from_flat(flat, n, 2 * d)
    k = checks.flat_from_blocks(np.ascontiguousarray(blocks[:, :, :d, :d]))
    l = checks.flat_from_blocks(np.ascontiguousarray(blocks[:, :, d:, d:]))
    t_blocks = np.ascontiguousarray(blocks[:, :, :d, d:])
    return hermitian(k), hermitian(l), t_blocks


def joint_spec(k: np.ndarray, l: np.ndarray, t_blocks: np.ndarray, n: int, d: int, observed=None) -> dict:
    spec = {"k": explicit_spec(k, n, d), "l": explicit_spec(l, n, d), "t_coupling": pairs(t_blocks)}
    if observed is not None:
        spec["observed_l"] = pairs(observed)
    return spec


def _cli(command: str, out: Path, *args: str) -> list[str]:
    return [command, *args, "--no-timestamp", "--out", str(out)]


def _sampling(seed: int, work: Path, size: dict) -> list[Job]:
    n, d = size["joint_n"], size["joint_d"]
    k, l, t_blocks = cut_joint(random_pd_flat(seed * 10 + 1, n * 2 * d), n, d)
    joint = write_json(work / "joint.json", joint_spec(k, l, t_blocks, n, d))

    sn, sd, count = size["sample_n"], size["sample_d"], size["samples"]
    sample_seed = seed * 10 + 2
    kernel = write_json(work / "sample_kernel.json", builder_spec(sn, sd, "random_pd", {"seed": sample_seed}))
    k_flat = random_pd_flat(sample_seed, sn * sd)

    mc_out, sample_out = work / "mc_verify.json", work / "paths.csv"
    mc_samples = size["mc_samples"]
    return [
        Job(_cli("mc-verify", mc_out, "--spec", joint, "--seed", str(seed), "--samples", str(mc_samples)),
            lambda p: checks.check_mc_verify(p.read_bytes(), mc_samples)),
        Job(_cli("sample", sample_out, "--spec", kernel, "--seed", str(seed), "--samples", str(count)),
            partial(checks.check_sample, k_flat=k_flat, labels=labels(sn), d=sd, samples=count)),
    ]


def _system_spec(sys_) -> dict:
    n, d = sys_.k1.n, sys_.dim_h
    spec = {name: explicit_spec(tab.flat, n, d) for name, tab in sys_.tables().items()}
    spec["t"] = pairs(sys_.t_op)
    return spec


def _realization(seed: int, work: Path, size: dict) -> list[Job]:
    # The valid-system generator is part of the library under test; the
    # realization checks rely on the residuals the CLI reports, and the
    # derivative check on an independent generalized eigenproblem.
    from opkern import generate_valid_system

    n, d = size["n"], size["d"]
    dom = generate_valid_system(seed * 10 + 1, n, d, dominated=True)
    free = generate_valid_system(seed * 10 + 2, n, d, dominated=False)
    dom_spec, free_spec = _system_spec(dom), _system_spec(free)
    dom_path = write_json(work / "system_dominated.json", dom_spec)
    free_path = write_json(work / "system_free.json", free_spec)
    pair_path = write_json(work / "pair.json", {"l": dom_spec["k1"], "k": dom_spec["k2"]})
    lo = checks.flat_from_blocks(checks.pairs_to_complex(dom_spec["k1"]["blocks"]))
    hi = checks.flat_from_blocks(checks.pairs_to_complex(dom_spec["k2"]["blocks"]))

    outs = [work / "realize_dominated.json", work / "realize_free.json", work / "rn.json"]
    return [
        Job(_cli("realize", outs[0], "--spec", dom_path),
            lambda p: checks.check_realize(p.read_bytes(), dominated=True)),
        Job(_cli("realize", outs[1], "--spec", free_path),
            lambda p: checks.check_realize(p.read_bytes(), dominated=False)),
        Job(_cli("rn", outs[2], "--spec", pair_path),
            lambda p: checks.check_rn(p.read_bytes(), hermitian(lo), hermitian(hi))),
    ]


def _training_csv(path: Path, names: list[str], idx: np.ndarray, vecs: np.ndarray, y: np.ndarray) -> str:
    d = vecs.shape[1]
    header = ["label"] + [f"a_{p}_{part}" for p in range(d) for part in ("re", "im")] + ["y_re", "y_im"]
    lines = [",".join(header)]
    for i, row in zip(idx, np.column_stack([vecs, y])):
        lines.append(",".join([names[i]] + [repr(float(x)) for z in row for x in (z.real, z.imag)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _complex_normal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _gram_solve(seed: int, work: Path, size: dict) -> list[Job]:
    n, d, rank = size["n"], size["d"], size["rank"]
    nd = n * d
    names = labels(n)
    full_seed, low_seed = seed * 10 + 1, seed * 10 + 2
    full_spec = write_json(work / "kernel_full.json", builder_spec(n, d, "random_pd", {"seed": full_seed}))
    low_spec = write_json(work / "kernel_low.json", builder_spec(n, d, "random_pd", {"seed": low_seed, "rank": rank}))
    noise_spec = write_json(work / "noise.json", builder_spec(n, d, "identity", {}))
    # References are built at the first check, outside the set-up time.
    k_full = cache(partial(random_pd_flat, full_seed, nd))
    k_low = cache(partial(random_pd_flat, low_seed, nd, rank))

    # Conditioning: a G^H G table over 2d with G of twice as many rows as
    # columns, so that L is well conditioned and L^{-1} is meaningful.
    rng = np.random.default_rng(seed * 10 + 3)
    cn = size["cond_n"]
    g = _complex_normal(rng, (4 * cn * d, 2 * cn * d))
    k, l, t_blocks = cut_joint(hermitian(g.conj().T @ g), cn, d)
    observed = _complex_normal(rng, (cn, d))
    joint = write_json(work / "joint.json", joint_spec(k, l, t_blocks, cn, d, observed))
    t_flat = checks.flat_from_blocks(t_blocks)

    m = size["train_m"]
    idx = np.repeat(np.arange(n), m // n)  # each label used m / n times
    vecs = _complex_normal(rng, (idx.size, d))
    y = _complex_normal(rng, idx.size)
    train = _training_csv(work / "train.csv", names, idx, vecs, y)
    q_idx = rng.integers(0, n, size["queries"])
    q_vecs = _complex_normal(rng, (q_idx.size, d))
    query = write_json(work / "query.json", [{"label": names[i], "a": pairs(a)} for i, a in zip(q_idx, q_vecs)])

    outs = {name: work / f"{name}.json" for name in ("check_pd", "factorize", "condition", "fit", "predict")}
    krr = ["--spec", full_spec, "--noise-spec", noise_spec, "--train", train]
    return [
        Job(_cli("check-pd", outs["check_pd"], "--spec", full_spec),
            lambda p: checks.check_pd(p.read_bytes(), k_full())),
        Job(_cli("factorize", outs["factorize"], "--spec", low_spec),
            lambda p: checks.check_factorize(p.read_bytes(), k_low(), names, d, rank)),
        Job(_cli("condition", outs["condition"], "--spec", joint),
            lambda p: checks.check_condition(p.read_bytes(), k, l, t_flat, observed)),
        Job(_cli("krr-fit", outs["fit"], *krr),
            lambda p: checks.check_krr_fit(p.read_bytes(), k_full(), d, idx, vecs, y)),
        Job(_cli("krr-predict", outs["predict"], *krr, "--fit", str(outs["fit"]), "--query", query),
            lambda p: checks.check_krr_predict(p.read_bytes(), outs["fit"].read_bytes(), k_full(), d,
                                               idx, vecs, q_idx, q_vecs, names)),
    ]


_BUILDERS = {"sampling": _sampling, "realization": _realization, "gram-solve": _gram_solve}


def build(workload: str, seed: int, work: Path, small: bool = False) -> list[Job]:
    """Write the workload's inputs for ``seed`` into ``work``; return one pass of jobs."""
    size = (SMALL_SIZES if small else SIZES)[workload]
    return _BUILDERS[workload](seed, work, size)
