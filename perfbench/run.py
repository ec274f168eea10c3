#!/usr/bin/env python3
"""Benchmark of the flipreset adapt-and-reset loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` all three workloads run in turn in this process. Each
workload sets up five times, then repeats whole rounds until ``--seconds``
have passed (at least two rounds), with two more set-ups before each round.
It checks every output and prints its metrics. A fixed calibration kernel
runs after every timed operation and every 500 batches inside untraced
runs (its time taken out of theirs). Each timed operation is scaled to a
host on which that kernel takes ``workloads.CAL_REF_S``, by the passes made
within a few seconds of it: the reference host's speed moves by up to 1.7x
with its neighbours' load, and the kernel slows with it. Each time metric is
the median of the scaled repeats; the unscaled quartiles are printed too.
Output ends with one JSON line per workload holding ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds
and reports the per-layer metrics, including the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
SETUP_PER_ROUND = 2
MIN_ROUNDS = 2
# One BLAS thread, fixed before numpy loads and well under the two cores of
# the reference machine, so timings do not depend on thread scheduling.
BLAS_THREADS = "1"


def _import_program() -> None:
    """Put the checkout's own sources first on the path, and refuse any other copy."""
    src = ROOT / "src"
    if not (src / "flipreset" / "__init__.py").is_file():
        sys.exit(f"error: no flipreset sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import flipreset

    if Path(flipreset.__file__).resolve().parent != (src / "flipreset").resolve():
        sys.exit(f"error: imported flipreset from {flipreset.__file__}, not {src}")


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.6g} median={q2:.6g} q3={q3:.6g} n={len(values)}"


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up, run rounds until ``seconds`` pass, and collect metrics."""
    from spans import Tracer, layer_metrics, traced

    tracer = Tracer()
    problems: list[str] = []
    setup_s = []  # (start, seconds)
    with traced(tracer) if trace else nullcontext():
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            problems += workload.setup()
            setup_s.append((t0, time.perf_counter() - t0))
    tracer.fold()

    rounds, traced_flags = [], []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        # set-up samples spread over the whole run, untraced
        for _ in range(SETUP_PER_ROUND):
            t0 = time.perf_counter()
            problems += workload.setup()
            setup_s.append((t0, time.perf_counter() - t0))
        tracing = trace and len(rounds) % 2 == 1
        with traced(tracer) if tracing else workload.cal.inside_runs():
            rounds.append(workload.round(first=not rounds))
        tracer.fold()
        traced_flags.append(tracing)

    problems += workload.replay_coverage()
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for r in rounds:
        problems += r.problems
    first = rounds[0]
    timings = {
        "setup_s": setup_s,
        "run_s": [t for r in rounds for t in r.run_s],
        "export_s": [t for r in rounds for t in r.export_s],
        "import_s": [t for r in rounds for t in r.import_s],
    }
    steps = [n for r in rounds for n in r.run_steps]
    samples = {k: [s for _, s in v] for k, v in timings.items()}
    samples["steps_per_s"] = [n / s for n, s in zip(steps, samples["run_s"])]
    scaled = {k: [workload.cal.scale(*t) for t in v] for k, v in timings.items()}
    scaled["steps_per_s"] = [n / s for n, s in zip(steps, scaled["run_s"])]
    if trace:
        plain = [r.timed_s for r, t in zip(rounds, traced_flags) if not t]
        with_spans = [r.timed_s for r, t in zip(rounds, traced_flags) if t]
        overhead = 100.0 * (statistics.median(with_spans) / statistics.median(plain) - 1.0)
        traced_rounds = [r for r, t in zip(rounds, traced_flags) if t]
        metrics = layer_metrics(
            tracer,
            rows_exported=sum(r.rows_exported for r in traced_rounds),
            rows_imported=sum(r.rows_imported for r in traced_rounds),
            log_mb=first.log_bytes / 2**20,
            overhead_pct=overhead,
        )
    else:
        metrics = {
            "setup_s": (statistics.median(scaled["setup_s"]), "s"),
            "run_s": (statistics.median(scaled["run_s"]), "s"),
            "steps_per_s": (statistics.median(scaled["steps_per_s"]), "steps/s"),
            "export_s": (statistics.median(scaled["export_s"]), "s"),
            "import_s": (statistics.median(scaled["import_s"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    fingerprints = {json.dumps(r.fingerprint) for r in rounds}
    if len(fingerprints) != 1:
        problems.append(f"dynamics fingerprint changed between rounds: {sorted(fingerprints)}")
    return {
        "rounds": len(rounds),
        "calibration_s": statistics.median(s for _, s in workload.cal.passes),
        "samples": samples,
        "fingerprint": first.fingerprint,
        "problems": problems,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def report(name: str, out: dict) -> None:
    result = out["result"]
    print(f"== {name}: {out['rounds']} rounds, {result['attempted']} operations, "
          f"{result['failed']} failed, correct={result['correct']}")
    print(f"   fingerprint {json.dumps(out['fingerprint'])}")
    print(f"   calibration pass {out['calibration_s']:.6g} s (median), unscaled quartiles in brackets")
    for key, metric in result["metrics"].items():
        spread = out["samples"].get(key)
        extra = f"  ({_quartiles(spread)})" if spread else ""
        print(f"   {key:<36} {metric['value']:>14.6g} {metric['unit']}{extra}")
    for problem in out["problems"]:
        print(f"   CHECK FAILED: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    _import_program()
    from workloads import FULL, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                        help="workload to run (repeatable); default: all three")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced rounds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    results = []
    for name in args.workload or list(WORKLOADS):
        workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        try:
            workload = WORKLOADS[name](ROOT, workdir, args.seed, FULL)
            out = measure(workload, args.seconds, bool(args.trace))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        report(name, out)
        results.append(out["result"])
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
