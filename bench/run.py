"""Benchmark of the standout package, end to end and per layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the workload's inputs from the seed, runs one untimed warm-up
operation, then repeats whole rounds of the workload's operations until
the next round would end after ``--seconds``, checking every round's
outputs.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics from a traced run
with ``--trace 1``.  Run it from the root of a source checkout; it
imports the program from ``src/`` and writes only under ``bench/out/``.
"""

import os
import sys
import time

# One busy thread per process: pin the BLAS pools before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

_SCRIPT_T0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

WORKLOAD_NAMES = ("depth_law", "score_log", "fit_log", "cli")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
CLI_SUBCOMMANDS = ("policy", "first-stop", "region", "curse-scan", "depth-dist",
                   "simulate", "abtest", "likelihood")
PER_LAYER = {
    "policy.optimal_table.calls": "count",
    "policy.optimal_table.self_s": "s",
    "policy.kappa_err": "abs",
    "depthlaw.depth_distribution.self_s": "s",
    "depthlaw.kernel_cells": "count",
    "depthlaw.tv_ref": "abs",
    "depthlaw.simulate_sessions.self_s": "s",
    "depthlaw.sessions_simulated": "count",
    "likelihood.context.calls": "count",
    "likelihood.context.self_s": "s",
    "likelihood.evaluate_exact.self_s": "s",
    "likelihood.evaluate_mc.self_s": "s",
    "likelihood.mc_draws": "count",
    "likelihood.sessions_scored": "count",
    "likelihood.underflow": "count",
    "likelihood.nll_se": "nats",
    "fit.epoch_s": "s",
    "fit.nll_passes_per_epoch": "count",
    "fit.contexts_per_epoch": "count",
    "fit.calibrate.self_s": "s",
    "cli.import_s": "s",
    **{f"cli.{name}_s": "s" for name in CLI_SUBCOMMANDS},
    "cli.output_bytes": "bytes",
    "trace.wall_s": "s",
}


def process_age() -> float:
    """Seconds since this process started; since this script began where
    the start time cannot be read."""
    try:
        with open("/proc/self/stat") as fh:
            ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return (time.clock_gettime(time.CLOCK_BOOTTIME)
                - ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _SCRIPT_T0


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child (Linux
    reports ru_maxrss in KiB)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 47:
        raise argparse.ArgumentTypeError("seed must lie in [0, 2**47)")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=_seed)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seconds: float):
    """Whole rounds until the next one would end after ``seconds``."""
    attempted = failed = 0
    problems, walls, cpus = [], [], []
    start = time.perf_counter()
    while True:
        outputs = []
        w0, c0 = time.perf_counter(), cpu_seconds()
        for count, op in workload.operations():
            attempted += count
            try:
                outputs.append(op())
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc()
                failed += count
                outputs.append(None)
        walls.append(time.perf_counter() - w0)
        cpus.append(cpu_seconds() - c0)
        problems += workload.check(outputs)
        if time.perf_counter() - start + walls[-1] > seconds:
            return attempted, failed, problems, walls, cpus


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "standout" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from bench.tracer import Tracer, layer_metrics
    from bench.workloads import WORKLOADS

    tag = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.warm_up()
        setup_s = process_age()
        if args.trace:
            workload.tracer = Tracer()
            restore = workload.tracer.install()
        attempted, failed, problems, walls, cpus = measure(workload, args.seconds)
        if args.trace:
            restore()
        problems += workload.final_check()
        if args.trace:
            spans = workload.tracer.spans + workload.child_spans()
            values = dict.fromkeys(PER_LAYER, 0.0)
            values.update(layer_metrics(spans, len(walls)))
            values.update(workload.layer_values(len(walls)))
            values["trace.wall_s"] = statistics.median(walls)
            problems += workload.trace_problems(values)
            units = PER_LAYER
            Tracer.write_spans(spans, OUT / f"trace-{tag}.jsonl")
        else:
            values = {"wall_s": statistics.median(walls),
                      "cpu_s": statistics.median(cpus),
                      "peak_rss_mb": peak_rss_mb(), "setup_s": setup_s}
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    line = json.dumps(result)
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
