"""Self-test of the benchmark, on small instances of every workload.

    python3 -m pytest bench -q

It shows that a perturbed output is counted as a failed job, that tracing
leaves every output byte-identical and its exact counts repeat, that
``BENCHMARK.json`` names only metrics the benchmark produces, and that the
benchmark refuses to run without the opkern sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import opkern.cli as cli  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _perturb_first_number(obj, path):
    """Scale the number at ``path`` (a list of keys/indices) by 1 + 1e-4 and add 1e-4."""
    *head, last = path
    for key in head:
        obj = obj[key]
    obj[last] = obj[last] * (1 + 1e-4) + 1e-4


PERTURB_PATH = {
    "check-pd": ["results", "min_eig"],
    "factorize": ["results", "features", "s1", 0, 0, 0],
    "condition": ["results", "mean_map", 0, 0, 0],
    "krr-fit": ["results", "coefficients", 0, 0],
    "krr-predict": ["results", "predictions", 0, "value", 0],
    "realize": ["results", "feature_map_residual"],
    "rn": ["results", "rn_spectrum", 1],
}


def perturb(command: str, out: Path) -> None:
    """Corrupt a job's output the way a wrong program would."""
    if command == "sample":
        lines = out.read_text().splitlines(keepends=True)
        lines[1] = lines[1].rsplit(",", 1)[0] + ",nan\n"
        out.write_text("".join(lines))
        return
    report = json.loads(out.read_text())
    if command == "mc-verify":
        report["results"]["passed"] = False
    else:
        _perturb_first_number(report, PERTURB_PATH[command])
    out.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")


class PerturbingCli:
    """Stands in for ``opkern.cli``: runs the real command, then corrupts its output."""

    @staticmethod
    def main(argv):
        code = cli.main(argv)
        perturb(argv[0], workloads.Job(argv, None).out)
        return code


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def small_jobs(request, tmp_path_factory):
    work = tmp_path_factory.mktemp(request.param)
    return workloads.build(request.param, 3, work, small=True)


def test_correct_outputs_pass(small_jobs):
    client = run.Client(cli)
    client.run_pass(small_jobs)
    client.run_pass(small_jobs)
    assert client.failures == []
    assert client.attempted == 2 * len(small_jobs)


def test_perturbed_output_counts_as_failure(small_jobs):
    for job in small_jobs:
        fresh = workloads.Job(job.argv, job.check)
        client = run.Client(PerturbingCli)
        _, ok = client.run(fresh)
        assert not ok, f"{job.argv[0]}: perturbed output passed its check"
        assert (client.attempted, client.failed) == (1, 1)
        cli.main(job.argv)  # restore the correct output for the jobs that read it


def test_changed_bytes_count_as_failure(small_jobs):
    job = small_jobs[0]
    client = run.Client(cli)
    client.run(job)
    with open(job.out, "a", encoding="utf-8") as fh:
        fh.write(" ")
    assert client.judge(job, 0) == "output bytes differ from the job's first output"


def test_tracing_keeps_outputs_and_counts_repeat(small_jobs):
    client = run.Client(cli, tracing.Tracer())
    client.run_pass(small_jobs)
    exact = []
    for _ in range(2):
        client.tracer.install()
        client.tracer.begin_pass()
        try:
            _, report_bytes = client.run_pass(small_jobs, traced=True)
        finally:
            client.tracer.uninstall()
        metrics = tracing.layer_metrics(*client.tracer.pass_totals(), report_bytes)
        exact.append({k: metrics[k] for k in tracing.EXACT if k in metrics})
    assert client.failures == []  # traced outputs are byte-identical to untraced ones
    assert exact[0] == exact[1]
    assert exact[0]["cli.report_bytes"] > 0 and exact[0]["kernels.table_init.calls"] > 0
    assert set(metrics) | {"trace.overhead_pct", "trace.count_mismatches"} == set(tracing.LAYER_UNITS)
    spans = client.tracer.spans
    ids = {s[1] for s in spans}
    assert all(parent is None or parent in ids for _, _, parent, *_ in spans)
    assert cli.main.__module__ == "opkern.cli"  # uninstall restored the originals


def test_benchmark_json_matches_the_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    for metric in declared["per_layer"]:
        assert tracing.LAYER_UNITS[metric["name"]] == metric["unit"]
    e2e = {m["name"] for m in declared["end_to_end"]}
    assert "setup_s" in e2e and e2e <= {"setup_s", "jobs_per_s", "fail_ratio", "peak_rss_mb"}


def test_high_percentile_needs_ten_samples_beyond():
    assert run._high_percentile([1.0] * 19) is None
    p, value = run._high_percentile([float(i) for i in range(100)])
    assert p == 90.0 and math.isclose(value, 89.1)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sampling", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""
