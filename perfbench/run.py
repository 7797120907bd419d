"""The freewalk benchmark: one command, four workloads, checked results.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` as it stands, nothing is installed.  The load is a closed loop:
one client in one process starts the next op only after the previous one
returns, and BLAS is pinned to one thread unless the environment already
sets it.

With ``--trace 0`` the run times whole passes over the workload's op list
until ``--seconds`` would be exceeded (at least two passes) and reports the
end-to-end metrics; each timed op is checked outside the timed region.
Times are adjusted for contention on the host (see ``speed.py``).
With ``--trace 1`` it makes one untraced pass and one traced pass and
reports the per-layer metrics of the traced pass, the difference of the
two as the tracing overhead, and (on ``sweep``) a deep-edge probe.  The
metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is the result as one JSON object; the line before it
records the machine and environment.  Spans and the record are also
written to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5  # this process plus four fresh ones; setup_s is their median
MIN_PASSES = 2  # each op's latency is its median over the passes
CHILD_TIMEOUT_S = 120

# A fresh interpreter times its own set-up and prints the seconds.
_CHILD = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import json
import run
workload, seconds = run.timed_setup(sys.argv[3], int(sys.argv[4]), float(sys.argv[5]))
workload.close()
print(json.dumps(seconds))
"""


def timed_setup(name: str, seed: int, scale: float):
    """Import freewalk, build the workload's inputs, and run one untimed warm-up op.

    Returns the workload and the set-up's adjusted and unadjusted seconds.
    """
    with speed.Speedometer() as meter:
        start = time.perf_counter()
        import workloads

        workload = workloads.WORKLOADS[name](seed, scale, OUT_DIR)
        warmup = workload.warmup_op()
        if warmup is not None:
            try:
                workload.run(warmup)
            except Exception:  # the same input is checked when an op is timed
                pass
        end = time.perf_counter()
        sampling = meter.overhead
    seconds = end - start - sampling
    return workload, (meter.adjust(start, end, seconds), seconds)


def tail_index(n: int) -> int:
    """Index of the highest order statistic with at least ten ops beyond it (the max below 21 ops)."""
    return n - 11 if n >= 21 else n - 1


def run_pass(workload, meter, tracer=None) -> tuple[list[tuple], list[str]]:
    """Run every op once, timing each, and check each result between ops.

    Returns each op's (start, end, latency less the speedometer's sampling)
    and the failures.
    """
    import workloads

    workloads.clear_caches()
    spans, failures = [], []
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = i
        sampling = meter.overhead
        start = time.perf_counter()
        try:
            result = workload.run(op)
            problem = None
        except Exception as exc:  # a raising op is a failed op; the run goes on
            result, problem = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        sampling = meter.overhead - sampling
        spans.append((start, end, end - start - sampling))
        if problem is None:
            try:
                problem = workload.check(op, result)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append(f"{workload.describe(op)}: {problem}")
        if tracer is not None and result is not None:
            for name, amount in workload.counters(result).items():
                tracer.add(name, amount)
    return spans, failures


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    ordered = sorted(latencies)
    return {
        "wall_s": sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * ordered[tail_index(len(ordered))],
    }


def child_setup_seconds(name: str, seed: int, scale: float) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(BENCH_DIR), str(SRC), name, str(seed), str(scale)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))


def peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
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
    return "unknown"


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": git_commit(),
    }


def load_metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def timed_run(workload, args) -> tuple[dict, dict, list[str], int]:
    """End-to-end metrics: passes until ``--seconds`` would be exceeded, tracing off."""
    passes, failures = [], []
    start = time.perf_counter()
    with speed.Speedometer() as meter:
        while True:
            spans, failed = run_pass(workload, meter)
            passes.append(spans)
            failures += failed
            elapsed = time.perf_counter() - start
            if len(passes) >= MIN_PASSES and elapsed + spans[-1][1] - spans[0][0] > args.seconds:
                break
    adjusted = [[meter.adjust(*span) for span in spans] for spans in passes]
    values = latency_metrics([statistics.median(op) for op in zip(*adjusted)])
    unadjusted = latency_metrics([statistics.median(s[2] for s in op) for op in zip(*passes)])
    notes = {"passes": len(passes), "unadjusted": unadjusted,
             "reference_ms": {"median": 1e3 * statistics.median(meter.latencies),
                              "fastest": 1e3 * min(meter.latencies),
                              "samples": len(meter.latencies)}}
    return values, notes, failures, len(workload.ops) * len(passes)


def traced_run(workload, args) -> tuple[dict, dict, list[str], int, list]:
    """Per-layer metrics: one untraced pass, one traced pass, and on sweep the deep-edge probe."""
    import tracer as tracing
    import workloads

    with speed.Speedometer() as meter:
        untraced, untraced_failures = run_pass(workload, meter)
        tracer = tracing.Tracer(meter)
        tracer.install()
        try:
            traced, traced_failures = run_pass(workload, meter, tracer)
        finally:
            tracer.uninstall()
        probe = {"s": 0.0, "iterations": 0, "outcome": "not run on this workload"}
        if args.workload == "sweep":
            sampling, start = meter.overhead, time.perf_counter()
            probe = workloads.deep_edge_probe(args.scale)
            end = time.perf_counter()
            probe["s"] = meter.adjust(start, end, end - start - (meter.overhead - sampling))
    untraced_adjusted = [meter.adjust(*span) for span in untraced]
    untraced_wall = sum(untraced_adjusted)
    traced_wall = sum(meter.adjust(*span) for span in traced)
    values = tracing.layer_metrics(tracer)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    criteria = workload.layer_times(untraced_adjusted)
    for number in range(1, 14):
        values[f"verify.criterion_{number}.s"] = criteria.get(f"verify.criterion_{number}.s", 0.0)
    values["traffic.deep_edge.s"] = probe["s"]
    values["traffic.deep_edge.iterations"] = probe["iterations"]
    notes = {"deep_edge": probe, "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}
    return values, notes, untraced_failures + traced_failures, 2 * len(workload.ops), tracer.spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "large-alphabet", "cli-solve", "verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of the op list to build (the self-test uses < 1)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "freewalk" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        sys.stderr.write(f"perfbench: no freewalk source under {SRC}; run from a source checkout\n")
        return 2
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    units = load_metric_units(bool(args.trace))

    workload, setup = timed_setup(args.workload, args.seed, args.scale)
    try:
        n = len(workload.ops)
        notes = {"ops_per_pass": n, "tail_percentile": 100.0 * (tail_index(n) + 1) / n}
        spans = []
        if args.trace:
            values, more, failures, attempted, spans = traced_run(workload, args)
        else:
            setups = [setup] + [child_setup_seconds(args.workload, args.seed, args.scale)
                                for _ in range(SETUP_SAMPLES - 1)]
            values, more, failures, attempted = timed_run(workload, args)
            values["setup_s"] = statistics.median(adjusted for adjusted, _ in setups)
            values["peak_rss_mb"] = peak_rss_mib()
            more["unadjusted"]["setup_s"] = statistics.median(raw for _, raw in setups)
            more["setup_samples_s"] = setups
        notes.update(more)
    finally:
        workload.close()
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    for line in failures[:20]:
        sys.stderr.write(f"perfbench: failed op: {line}\n")
    notes["failed_ratio"] = len(failures) / attempted
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, **notes, "environment": environment()}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({"record": record, "metrics": values, "failures": failures, "spans": spans}, handle)
    print(json.dumps({"record": record}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
