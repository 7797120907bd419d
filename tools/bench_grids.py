"""Time the grid commands end to end and write the results to a BENCH file.

    python tools/bench_grids.py --tree parent=../freewalk-old --tree change=. --out BENCH_24.json

Each ``--tree LABEL=PATH`` names a source checkout; its ``src`` is put on
``PYTHONPATH``.  Every measurement runs in a fresh interpreter with BLAS
pinned to one thread, and the trees take turns run by run, so a slow spell
of a shared machine falls on all of them.  Which tree goes first alternates
from run to run (the order given in odd runs, reversed in even ones), so a
bias of the first or second slot does not read as a change.  The
measurements:

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
  the certified drift enclosures;
- ``verify_6_10_cli_s``: wall time of ``python -m freewalk verify --criteria
  6,10``;
- ``verify_12_cli_s``: wall time of ``python -m freewalk verify --criteria
  12``, the Monte Carlo criterion, and ``verify_12_peak_rss_mb``, the peak
  RSS of that process, which holds the Monte Carlo blocks' stacks and drawn
  letters;
- ``criterion_N_s`` for N in 4, 6, 7, 8, 9, 10, 11, 12 and 13:
  ``verify.run_criterion(N)`` timed inside a fresh interpreter after its
  imports, at full precision where verify prints two decimals; criterion 7
  is the one that sweeps the Z/2 * Z/3 drift surface, criterion 9 the one
  that evaluates ``harmonic.cylinder_prob`` word by word, and criterion 11
  the one that counts spheres with ``groups.sphere_series``;
- ``criterion_12_one_cpu_s``: ``verify.run_criterion(12)`` timed the same
  way in an interpreter that pins itself to its first allowed CPU
  (``os.sched_setaffinity``) before it imports freewalk, so the Monte Carlo
  runs step every block in one process, as on a machine with one CPU;
- ``criterion_12_forks``: the ``os.fork`` calls made during one
  ``verify.run_criterion(12)``, counted in a fresh interpreter that wraps
  ``os.fork`` after its imports; a work count, so it does not move with
  the machine's load, only with its allowed CPUs;
- ``mc_drift_s``, ``mc_prefix_s`` and ``mc_hitting_s``: criterion 12's calls
  of ``estimate_drift``, ``estimate_prefix`` or ``estimate_hitting`` on both
  of its walks, each timed inside a fresh interpreter after its imports, so
  that a change to ``criterion_12_s`` shows which estimator moved;
- ``exact_convolution_z4z4_10_s``: ``exact_convolution`` of the simple walk
  on Z/4 * Z/4 at n = 10 (13,859 words), the median of 5 calls in one fresh
  interpreter after its imports, with the index-table cache
  (``traffic.letter_tables``) cleared before each, so every call pays for
  the tables as the first does;
- ``exact_convolution_z3z3_17_s``: ``exact_convolution`` of
  ``z3z3_sym(0.2)`` at n = 17 (524,285 words, about 1 M rows in its last
  step), one call timed in a fresh interpreter after its imports,
  ``exact_convolution_z3z3_17_peak_rss_mb``, the peak RSS of that process,
  and ``exact_convolution_z3z3_17_rss_rise_mb``, its ``ru_maxrss`` after
  the call less its ``ru_maxrss`` just before it, so the memory of the
  call without the interpreter, the imports and the heap they leave;
- ``solve_118_cli_s``: wall time of ``python -m freewalk solve --family
  uniform-per-factor --orders 60,60 --weights 0.5,0.5``, the 118-letter solve;
- ``solve_118_s``: that command's ``main`` call, timed inside a fresh
  interpreter after its imports;
- ``solve_inprocess_x20_s``: 20 calls of ``main(["solve", "--family",
  "zkzk-simple", "--k", "4"])`` in one fresh interpreter after its imports,
  the way perfbench and other in-process callers use the CLI;
- ``solve_small_s``: the sum, over ``z2z3_walk(0.3, 0.2)``,
  ``zkzk_simple(5)`` and ``extremal_walk([4, 3, 5])``, of the median of
  200 ``traffic.solve_walk`` calls on the walk, all in one fresh
  interpreter after its imports, so that one slow spell moves a median
  little;
- ``solve_small_calls``: the function calls that ``cProfile`` records in
  one ``solve_walk(*z2z3_walk(0.3, 0.2))`` after a warm-up call, counted
  in a fresh interpreter; a work count, so two runs of one tree read the
  same;
- ``exact_residual_126_s``: one call of ``traffic._exact_residual``, the
  exact phi(q) - q of the exact-residual finish, on Z/64 * Z/64 (126
  letters) at the q its solve returns, timed in a fresh interpreter after
  the solve;
- ``tables_118_s``: building ``free_product_of_cyclics(60, 60)`` and the
  solver's index tables (``traffic._Structure``) of its 118 letters, the
  median of 50 builds in one fresh interpreter, with the product cache
  cleared before each;
- ``make_finite_group_200_s``: ``make_finite_group`` on the table of Z/200
  given as a list of lists of ints, as a spec's table arrives, the median
  of 5 calls in one fresh interpreter after its imports (nothing on its
  path is cached);
- ``volume_cold_s``: ``metrics._volume_of_runs`` on the natural runs of
  Z/k * Z/k and Z/2 * Z/k for k = 3..64 (124 products), with its memo
  cleared before each call, so every call bisects as on a product's first
  use; the median of 5 passes in one fresh interpreter after its imports;
- ``volume_cold_minimal_s``: ``metrics._volume_of_runs`` on the runs of the
  minimal-generator lengths of the same products, timed the same way; all
  but Z/3 * Z/3 and Z/2 * Z/3 have mixed weights there, so these volumes
  take the plain bisection;
- ``growth_rho_s``: ``metrics.growth_rho`` on the same products (it keeps
  no memo), timed the same way;
- ``tier1_s``: wall time of the tier-1 suite, ``python -m pytest -q
  --continue-on-collection-errors``, run with the tree as the working
  directory, so that each tree runs its own tests;
- ``tier1_common_s``: the same suite restricted to the test ids that every
  tree collects (``pytest --collect-only -q`` in each tree, once before
  the runs), so that a test added or removed by a change does not read as
  faster or slower code.

Each tree is run through a symlink ``t0``, ``t1``, ... in one temporary
directory, so every tree's ``src`` sits at a path of the same length: the
peak RSS of ``exact_convolution_z3z3_17_peak_rss_mb`` moved by up to 9 %
with the length of the checkout's path alone.

The file holds, per tree and measurement, the median, the quartiles and
every run, with the machine and each tree's commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
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
SOLVE_K4 = ["solve", "--family", "zkzk-simple", "--k", "4"]
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]

# Run in a fresh interpreter: time the calls after the imports, print seconds.
TIME_MAIN = """
import io, time
from contextlib import redirect_stdout
from freewalk.cli import main
start = time.perf_counter()
with redirect_stdout(io.StringIO()):
    for _ in range({calls}):
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

TIME_CRITERION = """
import time
from freewalk.verify import run_criterion
start = time.perf_counter()
run_criterion({number})
print(time.perf_counter() - start)
"""
TIME_CONVOLUTION = """
import statistics, time
from freewalk.simulate import exact_convolution
from freewalk.traffic import letter_tables
from freewalk.walkspec import zkzk_simple
product, mu = zkzk_simple(4)
times = []
for _ in range(5):
    letter_tables.cache_clear()
    start = time.perf_counter()
    exact_convolution(product, mu, 10)
    times.append(time.perf_counter() - start)
print(statistics.median(times))
"""
TIME_CONVOLUTION_17 = """
import resource, time
from freewalk.simulate import exact_convolution
from freewalk.walkspec import z3z3_sym
product, mu = z3z3_sym(0.2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
exact_convolution(product, mu, 17)
seconds = time.perf_counter() - start
print(seconds, (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024.0)
"""
TIME_TABLES = """
import statistics, time
from freewalk.groups import free_product_of_cyclics
from freewalk.traffic import _Structure
times = []
for _ in range(50):
    free_product_of_cyclics.cache_clear()
    start = time.perf_counter()
    _Structure(free_product_of_cyclics(60, 60))
    times.append(time.perf_counter() - start)
print(statistics.median(times))
"""
TIME_EXACT_RESIDUAL = """
import time
from freewalk.traffic import _exact_residual, letter_tables, solve_walk
from freewalk.walkspec import zkzk_simple
product, mu = zkzk_simple(64)
q = solve_walk(product, mu).q.values
s = letter_tables(product)
start = time.perf_counter()
_exact_residual(s, mu.probs, q)
print(time.perf_counter() - start)
"""
TIME_SOLVE_SMALL = """
import statistics, time
from freewalk.traffic import solve_walk
from freewalk.walkspec import extremal_walk, z2z3_walk, zkzk_simple
total = 0.0
for product, mu in (z2z3_walk(0.3, 0.2), zkzk_simple(5), extremal_walk([4, 3, 5])):
    times = []
    for _ in range(200):
        start = time.perf_counter()
        solve_walk(product, mu)
        times.append(time.perf_counter() - start)
    total += statistics.median(times)
print(total)
"""
COUNT_SOLVE_SMALL_CALLS = """
import cProfile, pstats
from freewalk.traffic import solve_walk
from freewalk.walkspec import z2z3_walk
walk = z2z3_walk(0.3, 0.2)
solve_walk(*walk)
profile = cProfile.Profile()
profile.runcall(solve_walk, *walk)
print(pstats.Stats(profile).total_calls)
"""
TIME_MAKE_FINITE_GROUP = """
import statistics, time
from freewalk.groups import make_finite_group
table = [[(a + b) % 200 for b in range(200)] for a in range(200)]
times = []
for _ in range(5):
    start = time.perf_counter()
    make_finite_group(table)
    times.append(time.perf_counter() - start)
print(statistics.median(times))
"""
TIME_GROWTH = """
import statistics, time
from freewalk import metrics
from freewalk.groups import free_product_of_cyclics, letter_lengths, natural_lengths
from freewalk.walkspec import minimal_generators
products = [free_product_of_cyclics(a, k) for k in range(3, 65) for a in (k, 2)]
runs = [metrics._factor_runs(p, natural_lengths(p)) for p in products]
minimal = [metrics._factor_runs(p, letter_lengths(p, minimal_generators(p))) for p in products]
times = []
for _ in range(5):
    start = time.perf_counter()
    {loop}
    times.append(time.perf_counter() - start)
print(statistics.median(times))
"""
GROWTH = {
    "volume_cold_s": """for r in runs:
        metrics._volume_of_runs.cache_clear()
        metrics._volume_of_runs(r)""",
    "volume_cold_minimal_s": """for r in minimal:
        metrics._volume_of_runs.cache_clear()
        metrics._volume_of_runs(r)""",
    "growth_rho_s": """for p in products:
        metrics.growth_rho(p)""",
}
TIME_CRITERION_12_ONE_CPU = """
import os, time
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from freewalk.verify import run_criterion
start = time.perf_counter()
run_criterion(12)
print(time.perf_counter() - start)
"""
COUNT_CRITERION_12_FORKS = """
import os
from freewalk.verify import run_criterion
forks = []
fork = os.fork
def counted():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = counted
run_criterion(12)
print(len(forks))
"""
CRITERIA = (4, 6, 7, 8, 9, 10, 11, 12, 13)
# criterion 12's estimator calls, on the simple walks on Z/4 * Z/4 and Z/2 * Z/3
TIME_MONTE_CARLO = """
import time
from freewalk.groups import Letter
from freewalk.simulate import estimate_drift, estimate_hitting, estimate_prefix
from freewalk.verify import SEED
from freewalk.walkspec import hecke_simple, zkzk_simple
walks = [zkzk_simple(4), hecke_simple(3)]
start = time.perf_counter()
for product, mu in walks:
    {call}
print(time.perf_counter() - start)
"""
MONTE_CARLO = {
    "mc_drift_s": "estimate_drift(product, mu, steps=10_000, reps=200, seed=SEED)",
    "mc_prefix_s": "estimate_prefix(product, mu, steps=1500, reps=4000, seed=SEED + 1, prefix_len=1)",
    "mc_hitting_s": "estimate_hitting(product, mu, Letter(0, 1), horizon=1000, reps=4000, "
                    "seed=SEED + 2)",
}

UNITS = {"sweep_cli_s": "s", "sweep_peak_rss_mb": "MiB", "sweep_s": "s", "quality_sup_cli_s": "s",
         "quality_sup_s": "s", "verify_4_cli_s": "s", "verify_6_10_cli_s": "s",
         "verify_12_cli_s": "s", "verify_12_peak_rss_mb": "MiB",
         **{f"criterion_{n}_s": "s" for n in CRITERIA}, "criterion_12_one_cpu_s": "s",
         "criterion_12_forks": "count",
         **{name: "s" for name in MONTE_CARLO},
         "exact_convolution_z4z4_10_s": "s", "exact_convolution_z3z3_17_s": "s",
         "exact_convolution_z3z3_17_peak_rss_mb": "MiB", "exact_convolution_z3z3_17_rss_rise_mb": "MiB",
         "solve_118_cli_s": "s", "solve_118_s": "s",
         "solve_inprocess_x20_s": "s", "solve_small_s": "s", "solve_small_calls": "count",
         "exact_residual_126_s": "s", "tables_118_s": "s", "make_finite_group_200_s": "s",
         **{name: "s" for name in GROWTH}, "tier1_s": "s", "tier1_common_s": "s"}


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


def collect(tree: Path) -> list[str]:
    """The test ids that the tree's tier-1 suite collects, in collection order."""
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q"], env=_env(tree),
                          cwd=tree, capture_output=True, text=True)
    return [line for line in proc.stdout.splitlines() if "::" in line]


def measure(tree: Path, workdir: str, common: list[str]) -> dict[str, float]:
    """One run of every measurement on one tree; ``common`` are the test ids all trees collect."""
    row: dict[str, float] = {}
    row["sweep_cli_s"], row["sweep_peak_rss_mb"], _ = _child(
        tree, ["-m", "freewalk", *SWEEP, "--out", "surface.csv"], workdir)
    row["sweep_s"] = float(_child(tree, ["-c", TIME_MAIN.format(argv=SWEEP, calls=1)], workdir)[2])
    row["quality_sup_cli_s"] = _child(tree, ["-m", "freewalk", *QUALITY], workdir)[0]
    row["quality_sup_s"] = float(_child(tree, ["-c", TIME_QUALITY_SUP], workdir)[2])
    for name, argv in (("verify_4_cli_s", VERIFY_4), ("verify_6_10_cli_s", VERIFY)):
        row[name] = _child(tree, ["-m", "freewalk", *argv], workdir)[0]
    row["verify_12_cli_s"], row["verify_12_peak_rss_mb"], _ = _child(
        tree, ["-m", "freewalk", *VERIFY_12], workdir)
    for number in CRITERIA:
        row[f"criterion_{number}_s"] = float(
            _child(tree, ["-c", TIME_CRITERION.format(number=number)], workdir)[2])
    row["criterion_12_one_cpu_s"] = float(
        _child(tree, ["-c", TIME_CRITERION_12_ONE_CPU], workdir)[2])
    row["criterion_12_forks"] = float(_child(tree, ["-c", COUNT_CRITERION_12_FORKS], workdir)[2])
    for name, call in MONTE_CARLO.items():
        row[name] = float(_child(tree, ["-c", TIME_MONTE_CARLO.format(call=call)], workdir)[2])
    row["exact_convolution_z4z4_10_s"] = float(_child(tree, ["-c", TIME_CONVOLUTION], workdir)[2])
    _, row["exact_convolution_z3z3_17_peak_rss_mb"], printed = _child(
        tree, ["-c", TIME_CONVOLUTION_17], workdir)
    row["exact_convolution_z3z3_17_s"], row["exact_convolution_z3z3_17_rss_rise_mb"] = map(
        float, printed.split())
    row["solve_118_cli_s"] = _child(tree, ["-m", "freewalk", *SOLVE_118], workdir)[0]
    row["solve_118_s"] = float(
        _child(tree, ["-c", TIME_MAIN.format(argv=SOLVE_118, calls=1)], workdir)[2])
    row["solve_inprocess_x20_s"] = float(
        _child(tree, ["-c", TIME_MAIN.format(argv=SOLVE_K4, calls=20)], workdir)[2])
    row["solve_small_s"] = float(_child(tree, ["-c", TIME_SOLVE_SMALL], workdir)[2])
    row["solve_small_calls"] = float(_child(tree, ["-c", COUNT_SOLVE_SMALL_CALLS], workdir)[2])
    row["exact_residual_126_s"] = float(_child(tree, ["-c", TIME_EXACT_RESIDUAL], workdir)[2])
    row["tables_118_s"] = float(_child(tree, ["-c", TIME_TABLES], workdir)[2])
    row["make_finite_group_200_s"] = float(_child(tree, ["-c", TIME_MAKE_FINITE_GROUP], workdir)[2])
    for name, loop in GROWTH.items():
        row[name] = float(_child(tree, ["-c", TIME_GROWTH.format(loop=loop)], workdir)[2])
    row["tier1_s"] = _child(tree, TIER1, str(tree))[0]
    row["tier1_common_s"] = _child(tree, [*TIER1, *common], str(tree))[0]
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
        links = {}  # paths of one length to every tree
        for number, (label, tree) in enumerate(trees.items()):
            links[label] = Path(workdir) / f"t{number:0{len(str(len(trees)))}d}"
            links[label].symlink_to(tree, target_is_directory=True)
        collected = [collect(link) for link in links.values()]
        shared = set.intersection(*map(set, collected))
        common = [test for test in collected[0] if test in shared]
        if not common:
            parser.error("the trees collect no test id in common")
        for number in range(args.runs):
            order = list(links.items())
            if number % 2:
                order.reverse()
            for label, tree in order:
                runs[label].append(measure(tree, workdir, common))
                print(f"run {number + 1}/{args.runs} {label}: "
                      + ", ".join(f"{k} {v:.3f}" for k, v in runs[label][-1].items()), flush=True)
    record = {
        "script": "tools/bench_grids.py",
        "runs": args.runs,
        "machine": _machine(),
        "trees": {label: {"commit": _commit(tree), "tests_collected": len(ids)}
                  for (label, tree), ids in zip(trees.items(), collected)},
        "tests_in_common": len(common),
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
