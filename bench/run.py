"""opkern benchmark: three CLI workloads driven in-process by one closed-loop client.

Run from the root of a checkout:

    python3 bench/run.py --workload sampling --seed 1 --seconds 30 --trace 0

One process, one client: each job calls ``opkern.cli.main(argv)`` and the
next job starts when it returns.  A pass runs the workload's jobs in a
fixed order; passes repeat until ``--seconds`` have elapsed.  Every output
is checked against an independent numpy/scipy reference, and a job whose
exit code or output is wrong counts as failed.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` alternates untraced passes with passes in which every layer is wrapped
(``tracing.py``), reports the per-layer metrics and the tracing overhead,
and checks that traced outputs are byte-identical to untraced ones.  Every
metric is printed by name with its unit; the last line of standard output
is one JSON object with the metrics that ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
MIN_TRACED_PASSES = 2

def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("sampling", "realization", "gram-solve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _cap_blas_threads(nproc: int) -> None:
    """Keep OpenBLAS's default (one thread per CPU) but never above nproc.
    Must run before numpy is imported."""
    current = os.environ.get("OPENBLAS_NUM_THREADS")
    if current is None or not current.isdigit() or int(current) > nproc:
        os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)


# -- environment -------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict:
    """Thread counts reported by the OpenBLAS builds numpy and scipy load."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    fn = getattr(handle, sym)
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    found[pkg.__name__] = fn()
                    break
    return found


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    import subprocess

    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "opkern").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int, nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": _cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "opkern_commit": _git_commit(),
        "opkern_source_sha256": _source_digest(),
        "seed": seed,
    }


# -- running jobs ---------------------------------------------------------------


class Client:
    """The single closed-loop client: runs jobs, times them, judges outputs."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._job_id = 0

    def run(self, job, traced: bool = False) -> tuple[float, bool]:
        """Run one job; return (wall seconds, output correct)."""
        job.out.unlink(missing_ok=True)  # a job that writes nothing must not pass on an old file
        self._job_id += 1
        if traced:
            self.tracer.job = self._job_id
        t0 = perf_counter()
        try:
            code = self.cli.main(job.argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed job, not a failed benchmark
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        if traced:
            self.tracer.job = None
        reason = self.judge(job, code)
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.failures.append(f"{job.argv[0]} ({job.out.name}): {reason}")
        return elapsed, reason is None

    @staticmethod
    def judge(job, code) -> str | None:
        """Exit code, then the reference check on the job's first output;
        every later output must be byte-identical to that first one."""
        if code != job.expect_exit:
            return f"exit {code!r}, expected {job.expect_exit}"
        try:
            digest = hashlib.sha256(job.out.read_bytes()).hexdigest()
        except OSError as exc:
            return f"no output: {exc}"
        if job.first_digest is None:
            job.first_digest = digest
            try:
                job.verdict = job.check(job.out)
            except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
                job.verdict = f"malformed output: {type(exc).__name__}: {exc}"
        elif digest != job.first_digest:
            return "output bytes differ from the job's first output"
        return job.verdict

    def run_pass(self, jobs, traced: bool = False) -> tuple[list[tuple[str, float, bool]], int]:
        """Run every job once; return the (metric, seconds, correct) records
        and the bytes of output the pass wrote."""
        records = [(job.metric, *self.run(job, traced)) for job in jobs]
        return records, sum(job.out.stat().st_size for job in jobs if job.out.exists())


def _high_percentile(values: list[float]):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    n = len(values)
    for permille in (999, 990, 950, 900, 750, 500):
        if n * (1000 - permille) >= 10 * 1000:
            return permille / 10, statistics.quantiles(values, n=1000, method="inclusive")[permille - 1]
    return None


def end_to_end(passes, setup_s: float, client: Client) -> tuple[dict, list[str]]:
    by_metric: dict[str, list[float]] = {}
    for metric, seconds, _ in (r for recs in passes for r in recs):
        by_metric.setdefault(metric, []).append(seconds)
    metrics = {"setup_s": (setup_s, "s")}
    lines = []
    for metric, times in by_metric.items():
        med = statistics.median(times)
        metrics[metric] = (med, "s")
        hp = _high_percentile(times)
        tail = f"p{hp[0]:g} {hp[1]:.4f} s" if hp else "no percentile with 10 samples beyond it"
        lines.append(f"{metric:<16} {med:.4f} s median of {len(times)}; {tail}")
    # Per-pass throughput, median over passes: robust to a slow stretch of the machine.
    metrics["jobs_per_s"] = (statistics.median(
        sum(good for _, _, good in recs) / sum(s for _, s, _ in recs) for recs in passes), "1/s")
    metrics["fail_ratio"] = (client.failed / client.attempted, "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    lines.append(f"fail_ratio       {client.failed} failed / {client.attempted} attempted")
    return metrics, lines


def setup(client: Client, workload: str, seed: int, work: Path, repeats: int):
    """Generate and write the inputs ``repeats`` times, then run one warm-up
    pass.  Returns the jobs, the median input time and the warm-up time."""
    import workloads

    gen_s = []
    for _ in range(repeats):
        t = perf_counter()
        jobs = workloads.build(workload, seed, work)
        gen_s.append(perf_counter() - t)
    warm_s = sum(client.run(job)[0] for job in jobs)  # each output is checked here, outside the timing
    return jobs, statistics.median(gen_s), warm_s


def timed_passes(client: Client, jobs, seconds: float, traced_every_other: bool):
    """Run whole passes for about ``seconds``; with ``traced_every_other``,
    every second pass is traced and at least two are.  Returns
    ``(untraced, traced)``: lists of (job records, output bytes) per pass."""
    untraced, traced, walls = [], [], []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        use_tracer = traced_every_other and len(untraced) > len(traced)
        if use_tracer:
            client.tracer.install()
            client.tracer.begin_pass()
            try:
                recs = client.run_pass(jobs, traced=True)
            finally:
                client.tracer.uninstall()
            traced.append((recs, client.tracer.pass_totals()))
        else:
            untraced.append(client.run_pass(jobs))
        # A pass starts while it is expected to end within half a pass of
        # the deadline, so runs last --seconds on average.
        walls.append(perf_counter() - pass_start)
        if perf_counter() - start + statistics.median(walls) / 2 >= seconds and (
            not traced_every_other or len(traced) >= MIN_TRACED_PASSES
        ):
            return untraced, traced


def main(argv=None) -> int:
    args = _parse(argv)
    nproc = len(os.sched_getaffinity(0))
    _cap_blas_threads(nproc)
    if not (ROOT / "src" / "opkern" / "__init__.py").is_file():
        print(f"bench: no opkern sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import opkern.cli as cli

    import_s = perf_counter() - t0
    import tracing

    env = environment(args.seed, nproc)
    out_dir = ROOT / ".bench_out"
    tag = f"{args.workload}-{args.seed}-trace{args.trace}-{os.getpid()}"
    work = out_dir / f"work-{tag}"
    work.mkdir(parents=True, exist_ok=True)
    client = Client(cli, tracing.Tracer() if args.trace else None)
    lines = [f"# opkern benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
             "# env: " + json.dumps(env, sort_keys=True)]
    try:
        jobs, gen_s, warm_s = setup(client, args.workload, args.seed, work, 1 if args.trace else SETUP_REPEATS)
        untraced, traced = timed_passes(client, jobs, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, more = tracing.trace_summary(untraced, traced)
        spans_path = out_dir / f"spans-{tag}.jsonl"
        tracing.write_spans(spans_path, client.tracer.spans)
        more.append(f"# spans: {spans_path.relative_to(ROOT)} ({len(client.tracer.spans)} spans)")
        selected = declared["per_layer"]
    else:
        setup_s = import_s + gen_s + warm_s
        metrics, more = end_to_end([recs for recs, _ in untraced], setup_s, client)
        more.insert(0, f"{'setup_s':<16} {setup_s:.4f} s (import {import_s:.3f} s, inputs {gen_s:.3f} s "
                       f"median of {SETUP_REPEATS}, warm-up pass {warm_s:.3f} s)")
        more += [f"{name:<16} {metrics[name][0]:.4f} {metrics[name][1]}"
                 for name in ("jobs_per_s", "peak_rss_mb")]
        selected = declared["end_to_end"]
    lines += more + [f"# FAILED {failure}" for failure in client.failures[:20]]

    missing = [m["name"] for m in selected if m["name"] not in metrics]
    if missing:
        print(f"bench: metrics declared in BENCHMARK.json but not produced: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]} for m in selected},
    }
    record = {"env": env, "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "failures": client.failures, "result": result, "passes": [recs for recs, _ in untraced],
              "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
