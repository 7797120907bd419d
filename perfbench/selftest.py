"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

Runs every workload at 5 % of its op list, untraced and traced, and checks
that every metric of BENCHMARK.json is printed with its unit, that no op
fails, that the traced counts repeat exactly for one seed and change with
the seed on the seeded workloads, and that the benchmark refuses to run
without the freewalk sources.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCALE = "0.05"
COUNTS = ("traffic.iterations.sum", "harmonic.cylinder_prob.calls",
          "metrics.quality_sup.evaluations", "simulate.exact_convolution.support")
# Counts that must be nonzero on a workload, so that comparing them is not vacuous.
EXERCISED = {
    "sweep": ("traffic.iterations.sum",),
    "large-alphabet": ("traffic.iterations.sum",),
    "cli-solve": ("traffic.iterations.sum", "harmonic.cylinder_prob.calls"),
    "verify": COUNTS,
}
SEEDED = ("sweep", "large-alphabet", "cli-solve")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    traced: dict[tuple[str, int, int], dict] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, repeat in ((0, 0), (1, 0), (1, 1)):
            proc = run(workload, 1, trace)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit code {proc.returncode}\n{proc.stderr}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            record = json.loads(lines[-2])["record"]
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: {result['failed']} of {result['attempted']} ops failed")
            expect(record["failed_ratio"] == 0, f"{label}: failed_ratio {record['failed_ratio']}")
            for key in ("nproc", "cpu_model", "python", "numpy", "blas_threads", "git_commit"):
                expect(key in record["environment"], f"{label}: record lacks {key}")
            expect(record["seed"] == 1, f"{label}: record lacks the seed")
            wanted = spec["per_layer" if trace else "end_to_end"]
            printed = result["metrics"]
            expect(set(printed) == {m["name"] for m in wanted},
                   f"{label}: metric names {sorted(set(printed) ^ {m['name'] for m in wanted})}")
            for m in wanted:
                got = printed.get(m["name"], {})
                expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
                       f"{label}: {m['name']} printed as {got}")
            if trace:
                traced[(workload, 1, repeat)] = {name: printed[name]["value"] for name in COUNTS}
        if (workload, 1, 1) in traced:
            first, second = traced[(workload, 1, 0)], traced[(workload, 1, 1)]
            expect(first == second, f"{workload}: counts differ between runs of one seed: "
                                    f"{first} vs {second}")
            for name in EXERCISED[workload]:
                expect(first[name] > 0, f"{workload}: {name} is zero")

    for workload in SEEDED:
        proc = run(workload, 2, 1)
        if proc.returncode != 0:
            problems.append(f"{workload} seed 2: exit code {proc.returncode}\n{proc.stderr}")
            continue
        printed = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        other = {name: printed[name]["value"] for name in COUNTS}
        expect(other != traced.get((workload, 1, 0)),
               f"{workload}: counts did not change with the seed: {other}")

    (ROOT / ".perfbench-out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench-out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("sweep", 1, 0, cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"without the sources: exit code {proc.returncode}, output {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
