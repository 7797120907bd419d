"""Time the grid commands end to end and write the results to a BENCH file.

    python tools/bench_grids.py --tree parent=../freewalk-old --tree change=. --out BENCH_15.json

Each ``--tree LABEL=PATH`` names a source checkout; its ``src`` is put on
``PYTHONPATH``.  Every measurement runs in a fresh interpreter with BLAS
pinned to one thread, and the trees take turns run by run, so a slow spell
of a shared machine falls on all of them.  The measurements:

- ``sweep_cli_s``: wall time of ``python -m freewalk sweep --family z2z3
  --resolution 0.01 --out FILE``, the README sweep (5,151 rows), and
  ``sweep_peak_rss_mb``, the peak RSS of that process;
- ``sweep_s``: the same sweep timed inside a fresh interpreter after its
  imports, so without interpreter start-up;
- ``quality_sup_cli_s``: wall time of ``python -m freewalk quality --family
  zkzk-simple --k 4 --gens minimal --sup --resolution 1e-3`` (999 solves);
- ``quality_sup_s``: ``metrics.quality_sup`` on that grid, timed inside a
  fresh interpreter after its imports;
- ``verify_4_cli_s``: wall time of ``python -m freewalk verify --criteria 4``,
  the certified drift enclosures, with ``criterion_4_s`` as verify prints it;
- ``verify_6_10_cli_s``: wall time of ``python -m freewalk verify --criteria
  6,10``, with ``criterion_6_s`` and ``criterion_10_s`` as verify prints them;
- ``verify_12_cli_s``: wall time of ``python -m freewalk verify --criteria
  12``, the Monte Carlo criterion, with ``criterion_12_s`` as verify prints it;
- ``solve_118_cli_s``: wall time of ``python -m freewalk solve --family
  uniform-per-factor --orders 60,60 --weights 0.5,0.5``, the 118-letter solve;
- ``solve_118_s``: that command's ``main`` call, timed inside a fresh
  interpreter after its imports.

The file holds, per tree and measurement, the median, the quartiles and
every run, with the machine and each tree's commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SWEEP = ["sweep", "--family", "z2z3", "--resolution", "0.01"]
QUALITY = ["quality", "--family", "zkzk-simple", "--k", "4", "--gens", "minimal", "--sup",
           "--resolution", "1e-3"]
VERIFY_4 = ["verify", "--criteria", "4"]
VERIFY = ["verify", "--criteria", "6,10"]
VERIFY_12 = ["verify", "--criteria", "12"]
SOLVE_118 = ["solve", "--family", "uniform-per-factor", "--orders", "60,60", "--weights", "0.5,0.5"]

# Run in a fresh interpreter: time one call after the imports, print seconds.
TIME_MAIN = """
import io, time
from contextlib import redirect_stdout
from freewalk.cli import main
start = time.perf_counter()
with redirect_stdout(io.StringIO()):
    main({argv!r})
print(time.perf_counter() - start)
"""
TIME_QUALITY_SUP = """
import time
from freewalk.metrics import quality_sup
from freewalk.walkspec import minimal_generators, zkzk_simple
product, _ = zkzk_simple(4)
gens = minimal_generators(product)
start = time.perf_counter()
quality_sup(product, gens, 1e-3)
print(time.perf_counter() - start)
"""

UNITS = {"sweep_cli_s": "s", "sweep_peak_rss_mb": "MiB", "sweep_s": "s", "quality_sup_cli_s": "s",
         "quality_sup_s": "s", "verify_4_cli_s": "s", "criterion_4_s": "s",
         "verify_6_10_cli_s": "s", "criterion_6_s": "s", "criterion_10_s": "s", "verify_12_cli_s": "s",
         "criterion_12_s": "s", "solve_118_cli_s": "s", "solve_118_s": "s"}


def _env(tree: Path) -> dict[str, str]:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = str(tree / "src")
    return env


def _child(tree: Path, args: list[str], workdir: str) -> tuple[float, float, str]:
    """Run ``python ARGS`` from ``workdir``: wall seconds, peak RSS in MiB, and stdout."""
    with tempfile.TemporaryFile(mode="w+") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=_env(tree), cwd=workdir, stdout=out,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"{args} in {tree} exited with {proc.returncode}")
        out.seek(0)
        return wall, usage.ru_maxrss / 1024.0, out.read()


def measure(tree: Path, workdir: str) -> dict[str, float]:
    """One run of every measurement on one tree."""
    row: dict[str, float] = {}
    row["sweep_cli_s"], row["sweep_peak_rss_mb"], _ = _child(
        tree, ["-m", "freewalk", *SWEEP, "--out", "surface.csv"], workdir)
    row["sweep_s"] = float(_child(tree, ["-c", TIME_MAIN.format(argv=SWEEP)], workdir)[2])
    row["quality_sup_cli_s"] = _child(tree, ["-m", "freewalk", *QUALITY], workdir)[0]
    row["quality_sup_s"] = float(_child(tree, ["-c", TIME_QUALITY_SUP], workdir)[2])
    text = ""
    for name, argv in (("verify_4_cli_s", VERIFY_4), ("verify_6_10_cli_s", VERIFY),
                       ("verify_12_cli_s", VERIFY_12)):
        row[name], _, out = _child(tree, ["-m", "freewalk", *argv], workdir)
        text += out
    for number, seconds in re.findall(r"criterion +(\d+):.*\(([0-9.]+) s\)$", text, re.M):
        row[f"criterion_{number}_s"] = float(seconds)
    row["solve_118_cli_s"] = _child(tree, ["-m", "freewalk", *SOLVE_118], workdir)[0]
    row["solve_118_s"] = float(_child(tree, ["-c", TIME_MAIN.format(argv=SOLVE_118)], workdir)[2])
    return row


def _commit(tree: Path) -> str:
    try:
        head = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(tree), "status", "--porcelain", "--", "src"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+uncommitted src changes" if dirty else "")


def _machine() -> dict[str, str | int | None]:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), None)
    except OSError:
        pass
    import numpy

    return {"nproc": os.cpu_count(), "cpu": model, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": "1 (OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, MKL_NUM_THREADS)"}


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=PATH",
                        help="a source checkout to time, e.g. change=.")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", required=True, help="BENCH file to write")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    trees = {}
    for item in args.tree:
        label, sep, path = item.partition("=")
        if not sep or not (Path(path) / "src" / "freewalk").is_dir():
            parser.error(f"--tree {item!r}: need LABEL=PATH of a checkout with src/freewalk")
        trees[label] = Path(path).resolve()
    runs: dict[str, list[dict[str, float]]] = {label: [] for label in trees}
    with tempfile.TemporaryDirectory() as workdir:
        for number in range(args.runs):
            for label, tree in trees.items():
                runs[label].append(measure(tree, workdir))
                print(f"run {number + 1}/{args.runs} {label}: "
                      + ", ".join(f"{k} {v:.3f}" for k, v in runs[label][-1].items()), flush=True)
    record = {
        "script": "tools/bench_grids.py",
        "runs": args.runs,
        "machine": _machine(),
        "trees": {label: {"commit": _commit(tree)} for label, tree in trees.items()},
        "metrics": {
            name: {"unit": unit, **{label: _summary([run[name] for run in runs[label]])
                                    for label in trees}}
            for name, unit in UNITS.items()
        },
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
