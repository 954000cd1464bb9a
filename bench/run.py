"""Benchmark of privdet: whole runs of its sweeps and bound suite.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run imports privdet from ``src/``,
builds the workload's model and spec from the seed, then repeats whole
passes of the workload for about S seconds.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: separate interpreters started per run to time set-up; setup_s is their median
SETUP_PROBES = 7
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(name: str, seed: int, out: Path):
    """Import privdet and build the workload's inputs; the span setup_s measures."""
    import privdet
    from privdet import cli

    import workloads

    workload = workloads.WORKLOADS[name]()
    out.mkdir(parents=True, exist_ok=True)
    workload.build(privdet, seed, out)
    return cli, workload


def probe_setup(args, out: Path) -> float:
    """Seconds from starting a fresh interpreter to the end of ``set_up``."""
    cmd = [
        sys.executable, str(Path(__file__)), "--setup-probe", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


def timed_passes(run_pair, seconds: float) -> None:
    """Call ``run_pair`` until the next call would end past ``seconds``; at least once."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_pair()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "privdet" / "__init__.py").is_file():
        print(f"privdet sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    sys.path[:0] = [str(SRC), str(BENCH)]
    seed = args.seed % 2**32
    out = OUT / f"{args.workload}-seed{seed}-trace{args.trace}"

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        set_up(args.workload, seed, out / "probe")
        print(time.monotonic())
        return 0

    setup_times = (
        [] if args.trace else [probe_setup(args, out) for _ in range(SETUP_PROBES)]
    )
    cli, workload = set_up(args.workload, seed, out)

    results, traced = [], []
    errors = []
    if not args.trace:
        timed_passes(lambda: results.append(workload.run_pass(cli)), args.seconds)
    else:
        from tracing import Tracer, pass_metrics, unit, write_jsonl

        tracer = Tracer()
        for layer in tracer.absent_layers():
            print(f"[trace] layer {layer} is absent", file=sys.stderr)
        for name in tracer.absent:
            print(f"[trace] wrapped name {name} not found", file=sys.stderr)
        spans_by_pass, per_pass = [], []

        def run_pair():
            results.append(workload.run_pass(cli))
            with tracer.installed():
                res = workload.run_pass(cli)
            spans = tracer.take()
            traced.append(res)
            spans_by_pass.append(spans)
            errors.extend(workload.check_traced(spans))
            per_pass.append(pass_metrics(spans, res.attempted - res.failed))
            for sp in spans:
                sp.args = sp.result = None

        timed_passes(run_pair, args.seconds)
        write_jsonl(out / "trace.jsonl", spans_by_pass, tracer)

    done = results + traced
    for res in done:
        errors.extend(res.errors)
    errors.extend(workload.check_final())
    if len({res.accuracy for res in done}) != 1:
        errors.append("accuracy differs between passes of the same inputs")
    for msg in errors:
        print(f"[{args.workload}] check failed: {msg}", file=sys.stderr)
    print(f"[{args.workload}] pass seconds: " + " ".join(f"{r.seconds:.4f}" for r in results),
          file=sys.stderr)

    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (
                sum(r.attempted - r.failed for r in results) / sum(r.seconds for r in results),
                "ops/s",
            ),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "accuracy_H": (results[0].accuracy, "1"),
        }
    else:
        metrics = {
            key: (statistics.median(p[key] for p in per_pass), unit(key)) for key in per_pass[0]
        }
        plain = statistics.median(r.seconds for r in results)
        with_trace = statistics.median(r.seconds for r in traced)
        metrics["trace.pass_s"] = (with_trace, "s")
        metrics["trace.overhead_s"] = (with_trace - plain, "s")

    report = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in done),
        "failed": sum(r.failed for r in done),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(report)
    (out / "result.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
