"""Run one planecode benchmark workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload code-dual --seed 1 --seconds 38 --trace 0

The workload is set up from the seed, then runs whole passes, each with
every output checked, until the next pass would end after `--seconds`
(at least one pass).  With `--trace 0` the last stdout line carries the
end-to-end metrics; with `--trace 1` untraced and traced passes alternate
and it carries the per-layer metrics, including the tracing overhead.  The
line before it is a report with the environment, pass times and failures.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
IMPORT_PROBE = "import planecode.cli, planecode.acceptance"


def pin_blas_threads(nproc: int) -> dict:
    """Cap every BLAS thread variable at nproc; must run before numpy loads."""
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        n = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(n, nproc))
    return {var: os.environ[var] for var in BLAS_VARS}


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def time_imports() -> float:
    """Wall time of a fresh interpreter that imports planecode, from spawn to exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True, cwd=ROOT)
    return time.perf_counter() - t0


def tail_percentile(samples: list) -> dict | None:
    """The highest of p50/p75/p90/p99 with at least ten samples beyond it."""
    n = len(samples)
    for pct in (99, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            return {"percentile": pct, "value": statistics.quantiles(samples, n=100)[pct - 1]}
    return None


class Runner:
    """Runs passes of one workload and tallies checked operations."""

    def __init__(self, workload, inputs, tracer=None):
        self.workload, self.inputs, self.tracer = workload, inputs, tracer
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, traced: bool) -> float:
        tracer = self.tracer if traced else None
        gc.collect()  # the previous pass's garbage is not this pass's work
        t0 = time.perf_counter()
        if tracer:
            tracer.install()
            top = tracer.open("pass", "bench")
        try:
            for case in self.workload.cases(self.inputs):
                span = tracer.open(f"case.{case.name}", "bench") if tracer else None
                try:
                    problems = case.check(case.run())
                except Exception:  # an operation that raises counts as failed
                    problems = [f"{case.name} raised:\n{traceback.format_exc()}"] * case.ops
                finally:
                    if span:
                        tracer.close(span)
                self.attempted += case.ops
                self.failed += min(len(problems), case.ops)
                self.problems.extend(problems[: max(0, 5 - len(self.problems))])
        finally:
            if tracer:
                tracer.close(top)
                tracer.uninstall()
                tracer.pass_id += 1
        return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    blas = pin_blas_threads(nproc)
    if not (SRC / "planecode").is_dir():
        print(f"planecode sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import tracing
    import workloads

    table = workloads.workloads(OUT_DIR)
    if args.workload not in table:
        print(f"unknown workload {args.workload!r}; choose from {sorted(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]

    # set-up: the imports, as a fresh process pays them, plus seeded input generation
    import_s = [time_imports() for _ in range(SETUP_REPEATS)]
    gen_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed)
        gen_s.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_s) + statistics.median(gen_s)

    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(workload, inputs, tracer)
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(runner.run_pass(traced=False))
        if tracer:
            traced.append(runner.run_pass(traced=True))
        per_round = statistics.median(untraced) + (statistics.median(traced) if traced else 0)
        if time.perf_counter() - start + per_round > args.seconds:
            break

    wall_s = statistics.median(untraced)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        by_pass: dict[int, list] = {}
        for s in tracer.spans:
            by_pass.setdefault(s.pass_id, []).append(s)
        metrics = tracing.median_metrics([tracing.layer_metrics(v) for v in by_pass.values()])
        metrics["trace.wall_s"] = statistics.median(traced)
        metrics["trace.untraced_wall_s"] = wall_s
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall_s
        metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / wall_s
        units = {name: unit for name, unit, _ in tracing.METRICS}
    else:
        metrics = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": rss_mb}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": nproc,
            "git_commit": git_commit(),
            "blas_threads": blas,
            "seed": args.seed,
        },
        "wall_s": {"median": wall_s, "samples": len(untraced), "passes_s": untraced,
                   "tail": tail_percentile(untraced)},
        "setup_s": {"import_s": import_s, "inputs_s": gen_s},
        "peak_rss_mb": rss_mb,
        "failed_ratio": {"value": runner.failed / runner.attempted, "unit": "ratio"},
        "problems": runner.problems,
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
