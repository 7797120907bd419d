"""Command-line interface: solve, sweep, closed-form, simulate, quality, verify.

Exit codes: 0 success, 1 verification failure, 2 usage error (argparse),
3 invalid walk or spec, 4 solver failure, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import sys
from fractions import Fraction
from typing import Iterable

from . import closedform as cf
from . import verify as verify_mod
from .groups import (
    Letter,
    NonGeneratingSetError,
    letter_lengths,
)
from .harmonic import (
    build_chain,
    cylinder_prob,
    log_cylinder_prob,
    max_shift_residual,
    two_factor_identity,
)
from .metrics import metrics_report, metrics_walks, quality, quality_sup
from .traffic import (
    DEFAULT_TOL,
    DOMAIN_ERRORS,
    ConsistencyError,
    MaxIterationsError,
    RecurrentGroupError,
    batches,
    check_tolerance,
    solve_walk,
)
from .simulate import check_sizes, estimate_drift, estimate_hitting, estimate_prefix, trajectories
from .walkspec import (
    WalkSpec,
    build_family,
    cyclic_walk,
    integer,
    load_spec,
    resolve_generators,
    hecke_simple,
    z2z3_walk,
    z3z3_asym,
    z3z3_sym,
    zkzk_simple,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INVALID = 3
EXIT_SOLVER = 4
EXIT_IO = 5


def _f17(x: float) -> str:
    """Full-precision decimal: 17 significant digits."""
    return format(float(x), ".17g")


def _csv_float(x: float) -> str:
    """Shortest round-trip decimal for byte-stable CSV output."""
    return repr(float(x))


def _walk_parser() -> argparse.ArgumentParser:
    """The walk options that solve, simulate, cylinder and quality share, as an argparse parent."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--spec", help="path to a JSON walk spec")
    parser.add_argument("--family", help="named measure family (e.g. zkzk-simple)")
    parser.add_argument("--k", type=int, help="cyclic order for zkzk/hecke families")
    parser.add_argument("--p", type=float, help="family parameter p")
    parser.add_argument("--q", type=float, help="family parameter q")
    parser.add_argument("--orders", help="comma list of cyclic orders, e.g. 2,3,5")
    parser.add_argument("--weights", help="comma list of per-factor weights")
    # The solver and generator flags default to None: a flag that is not
    # given keeps the value of the spec file, or the WalkSpec default.
    parser.add_argument("--gens", default=None,
                        help="generating set: natural, minimal, or comma list of letters")
    parser.add_argument("--tol", type=float, default=None, help="solver tolerance")
    parser.add_argument("--max-iter", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    return parser


def _walk_from_args(args: argparse.Namespace) -> WalkSpec:
    if args.spec:
        spec = load_spec(args.spec)
    elif args.family:
        params = {name: getattr(args, name) for name in ("k", "p", "q")
                  if getattr(args, name) is not None}
        if args.orders:
            params["orders"] = [int(x) for x in args.orders.split(",")]
        if args.weights:
            params["weights"] = [float(x) for x in args.weights.split(",")]
        product, mu = build_family(args.family, **params)
        spec = WalkSpec(product, mu, product.alphabet)
    else:
        raise ValueError("give --spec FILE or --family NAME")
    flags = {"tol": args.tol, "max_iter": args.max_iter, "seed": args.seed}
    overrides = {name: value for name, value in flags.items() if value is not None}
    if args.gens is not None:
        gens_spec = args.gens if args.gens in ("natural", "minimal") else args.gens.split(",")
        overrides["generators"] = resolve_generators(spec.product, gens_spec)
    return dataclasses.replace(spec, **overrides)


def cmd_solve(args: argparse.Namespace) -> int:
    spec = _walk_from_args(args)
    product, mu = spec.product, spec.mu
    report = solve_walk(product, mu, tol=spec.tol, max_iter=spec.max_iter)
    metrics = metrics_report(product, mu, report)
    out = sys.stdout
    out.write(f"walk: {product!r}, {product.nletters} letters\n")
    for u in product.alphabet:
        out.write(f"mu({u}) = {_f17(mu[u])}\n")
    out.write(f"iterations = {report.iterations}\n")
    out.write(f"sup residual = {_f17(report.sup_residual)}\n")
    out.write(f"traffic residual = {_f17(report.traffic_residual)}\n")
    out.write(f"consistency residual = {_f17(report.q.consistency_residual())}\n")
    for u in product.alphabet:
        out.write(f"q({u}) = {_f17(report.q[u])}\n")
    for u in product.alphabet:
        out.write(f"r({u}) = {_f17(report.r[u])}\n")
    for i in range(product.nfactors):
        out.write(f"r(Sigma_{i}) = {_f17(report.r.factor_sum(i))}\n")
    out.write(f"stationary = {str(metrics.stationary).lower()}\n")
    if product.nfactors == 2:
        out.write(f"two-factor identity q(S1)q(S2) = {_f17(two_factor_identity(report.q))}\n")
        chain = build_chain(product, report.r)
        worst = max_shift_residual(chain, 2)
        out.write(f"tau^2 residual (cylinders <= 2) = {_f17(worst)}\n")
    out.write(f"gamma = {_f17(metrics.gamma)}\n")
    out.write(f"entropy = {_f17(metrics.entropy)}\n")
    out.write(f"volume = {_f17(metrics.volume)}\n")
    out.write(f"quality = {_f17(metrics.quality)}\n")
    out.write(f"hd measure = {_f17(metrics.hd_measure)}\n")
    out.write(f"hd support = {_f17(metrics.hd_support)}\n")
    return EXIT_OK


def _simplex(args, low: int):
    """(i/n, j/n) for n = 1/resolution and i, j, n-i-j >= low, as exact fractions."""
    n = round(1.0 / args.resolution)
    for i in range(low, n + 1):
        for j in range(low, n + 1 - i - low):
            yield Fraction(i, n), Fraction(j, n)


def _below_half(args):
    """(i/n,) for n = 1/resolution and 0 < i/n < 1/2, as an exact fraction."""
    n = round(1.0 / args.resolution)
    for i in range(1, (n + 1) // 2):
        yield (Fraction(i, n),)


def _k_range(args):
    for k in range(args.k_min, args.k_max + 1):
        yield (k,)


def _minimal_grid(args):
    zkzk_simple(args.k)  # rejects k < 3 before the first row
    return _below_half(args)


def _zkzk_minimal(args, p):
    """Z/k * Z/k with mass p on a and a^-1 and (1 - 2p)/2 on b and b^-1."""
    k = args.k
    s = (1 - 2 * p) / 2
    return cyclic_walk((k, k), {Letter(0, 1): p, Letter(0, k - 1): p,
                                Letter(1, 1): s, Letter(1, k - 1): s})


# family: (header, grid of parameters, generators, step law at a parameter
# point).  The grids yield exact fractions, so an edge mass is exactly 0.
_METRICS = ["gamma", "entropy", "volume", "quality", "error"]
_SWEEPS = {
    "z2z3": (["p", "q"] + _METRICS, lambda args: _simplex(args, 0), "natural",
             lambda args, p, q: z2z3_walk(p, q)),
    "z3z3-sym": (["p"] + _METRICS, _below_half, "natural", lambda args, p: z3z3_sym(p)),
    "z3z3-asym": (["p", "q"] + _METRICS, lambda args: _simplex(args, 1), "natural",
                  lambda args, p, q: z3z3_asym(p, q)),
    "zkzk": (["k"] + _METRICS, _k_range, "natural", lambda args, k: zkzk_simple(k)),
    "hecke": (["k"] + _METRICS, _k_range, "natural", lambda args, k: hecke_simple(k)),
    "quality-zkzk-minimal": (["p", "gamma_S", "entropy", "volume_S", "quality", "error"],
                             _minimal_grid, "minimal", _zkzk_minimal),
}


def _sweep_rows(args: argparse.Namespace) -> tuple[list[str], Iterable[list[str]]]:
    if not 0.0 < args.resolution <= 1.0:
        raise ValueError(f"resolution must be in (0, 1], got {args.resolution!r}")
    header, grid, gens, walk = _SWEEPS[args.family]
    check_tolerance(args.tol)
    points = grid(args)

    def lengths_of(product):
        return letter_lengths(product, resolve_generators(product, gens))

    def rows():
        for block in batches(points):
            walks, failed = [], {}
            for i, params in enumerate(block):
                try:
                    walks.append(walk(args, *params))
                except DOMAIN_ERRORS as exc:
                    failed[i] = exc
            results = iter(metrics_walks(walks, lengths_of, tol=args.tol))
            for i, params in enumerate(block):
                cells = [str(x) if isinstance(x, int) else _csv_float(x) for x in params]
                m = failed[i] if i in failed else next(results)
                if isinstance(m, Exception):
                    yield cells + ["", "", "", "", type(m).__name__]
                else:
                    yield cells + [_csv_float(x) for x in (m.gamma, m.entropy, m.volume, m.quality)] + [""]

    return header, rows()


def cmd_sweep(args: argparse.Namespace) -> int:
    header, rows = _sweep_rows(args)
    with (open(args.out, "w", newline="", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return EXIT_OK


_CLOSED_FORMS = {
    "z2z3": (("p", "q"), lambda a: cf.drift_z2z3(a["p"], a["q"])),
    "z3z3-sym": (("p",), lambda a: cf.drift_z3z3_sym(a["p"])),
    "z3z3-asym": (("p", "q"), lambda a: cf.drift_z3z3_asym(a["p"], a["q"])),
    "zkzk": (("k",), lambda a: cf.drift_zkzk(integer(a["k"], "k"))),
    "hecke": (("k",), lambda a: cf.drift_hecke(integer(a["k"], "k"))),
    "uniform-pair": (("p", "k1", "k2"), lambda a: cf.drift_uniform_pair(
        a["p"], integer(a["k1"], "k1"), integer(a["k2"], "k2"))),
}


def cmd_closed_form(args: argparse.Namespace) -> int:
    names, fn = _CLOSED_FORMS[args.family]
    if args.batch:
        with open(args.batch, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            rows = [dict(row) for row in reader]
        # every row is evaluated before the first is written: a bad row
        # leaves no partial CSV behind
        gammas = [fn({name: float(row[name]) for name in names}) for row in rows]
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(list(names) + ["gamma"])
        for row, gamma in zip(rows, gammas):
            writer.writerow([row[name] for name in names] + [_csv_float(gamma)])
        return EXIT_OK
    params = {}
    for name in names:
        value = getattr(args, name.replace("-", "_"), None)
        if value is None:
            raise ValueError(f"family {args.family!r} needs --{name}")
        params[name] = value
    sys.stdout.write(_f17(fn(params)) + "\n")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _walk_from_args(args)
    product, mu = spec.product, spec.mu
    lengths = letter_lengths(product, spec.generators)
    # reject bad sizes and an unknown target before any simulation or output
    check_sizes(args.steps, args.reps,
                recorded=min(args.reps, args.dump_reps) if args.dump_lengths else 0)
    if args.prefix_len:
        check_sizes(args.steps, args.reps, args.prefix_len)
    if args.hitting:
        target = Letter.parse(args.hitting)
        product.letter_index(target)
        check_sizes(args.horizon, args.reps, 1)
    if args.dump_reps < 1:
        raise ValueError(f"--dump-reps must be >= 1, got {args.dump_reps}")
    # open the dump first, so that an unwritable path fails before any estimate is printed
    with (open(args.dump_lengths, "w", newline="", encoding="utf-8") if args.dump_lengths
          else contextlib.nullcontext()) as handle:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["metric", "estimate", "stderr", "replications", "horizon", "note"])
        est = estimate_drift(product, mu, args.steps, args.reps, spec.seed, lengths)
        writer.writerow(["drift", _csv_float(est.estimate), _csv_float(est.stderr),
                         est.replications, est.horizon, est.note])
        if args.hitting:
            hit = estimate_hitting(product, mu, target, args.horizon, args.reps, spec.seed)
            writer.writerow([f"hitting({target})", _csv_float(hit.estimate), _csv_float(hit.stderr),
                             hit.replications, hit.horizon, hit.note])
        if args.prefix_len:
            pre = estimate_prefix(product, mu, args.steps, args.reps, spec.seed, args.prefix_len)
            kept = pre.replications - pre.dropped
            for word in sorted(pre.frequencies, key=str):
                writer.writerow([f"prefix({word})", _csv_float(pre.frequencies[word]), "",
                                 kept, pre.horizon, f"dropped={pre.dropped}"])
        if handle is not None:
            dump = csv.writer(handle, lineterminator="\n")
            dump.writerow(["replication", "step", "length"])
            walks = min(args.reps, args.dump_reps)
            for rep, traj in enumerate(trajectories(product, mu, args.steps, walks, spec.seed, lengths)):
                for n, value in enumerate(traj.lengths):
                    dump.writerow([rep, n, _csv_float(value)])
    return EXIT_OK


def cmd_cylinder(args: argparse.Namespace) -> int:
    spec = _walk_from_args(args)
    product = spec.product
    report = solve_walk(product, spec.mu, tol=spec.tol, max_iter=spec.max_iter)
    chain = build_chain(product, report.r)
    for text in args.word:
        word = product.parse_word(text)
        sys.stdout.write(f"cylinder({word}) = {_f17(cylinder_prob(chain, word))}\n")
        if args.log:
            sys.stdout.write(f"log cylinder({word}) = {_f17(log_cylinder_prob(chain, word))}\n")
    return EXIT_OK


def cmd_quality(args: argparse.Namespace) -> int:
    spec = _walk_from_args(args)
    product = spec.product
    if args.sup:
        sweep = quality_sup(product, spec.generators, args.resolution,
                            tol=spec.tol)
        sys.stdout.write(f"sup quality = {_f17(sweep.best_quality)}\n")
        sys.stdout.write(f"grid points evaluated = {sweep.evaluations}\n")
        sys.stdout.write(f"argmax on grid boundary = {str(sweep.at_boundary).lower()}\n")
        for u in product.alphabet:
            p = sweep.best_mu[u]
            if p > 0:
                sys.stdout.write(f"best mu({u}) = {_f17(p)}\n")
        if sweep.at_boundary:
            sys.stdout.write("note: supremum may be attained only in the closure "
                             "(degenerate step law with zero drift)\n")
        return EXIT_OK
    value = quality(product, spec.mu, spec.generators, tol=spec.tol)
    sys.stdout.write(f"quality = {_f17(value)}\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.list:
        for number, (title, _) in sorted(verify_mod.CRITERIA.items()):
            sys.stdout.write(f"criterion {number:2d}: {title}\n")
        return EXIT_OK
    numbers = None
    if args.criteria:
        numbers = [int(x) for x in args.criteria.split(",")]
    failures = count = 0
    for result, seconds in verify_mod.run_all(numbers):
        status = "PASS" if result.passed else "FAIL"
        sys.stdout.write(f"{status} criterion {result.number:2d}: {result.title} ({seconds:.2f} s)\n")
        if args.verbose or not result.passed:
            for line in result.details:
                sys.stdout.write(f"    {line}\n")
        for note in result.notes:
            sys.stdout.write(f"    NOTE: {note}\n")
        failures += 0 if result.passed else 1
        count += 1
    sys.stdout.write(f"{count} criteria, {failures} failed\n")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``freewalk`` parser, built on first use and kept for the process.

    Each ``parse_args`` call fills a new namespace, so nothing carries over
    from one ``main`` call to the next; no default is a mutable object.
    """
    parser = argparse.ArgumentParser(
        prog="freewalk",
        description="Random walks on free products of finite groups: traffic solver, "
                    "harmonic measure, drift/entropy/volume metrics, and oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    walk = [_walk_parser()]

    p_solve = sub.add_parser("solve", parents=walk, help="solve one walk and print the full report")
    p_solve.set_defaults(fn=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="sweep a family over a parameter grid, emit CSV")
    p_sweep.add_argument("--family", required=True,
                         choices=list(_SWEEPS))
    p_sweep.add_argument("--resolution", type=float, default=0.01)
    p_sweep.add_argument("--k", type=int, default=4, help="k for quality-zkzk-minimal")
    p_sweep.add_argument("--k-min", type=int, default=3)
    p_sweep.add_argument("--k-max", type=int, default=8)
    p_sweep.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_sweep.add_argument("--out", help="CSV output path (default stdout)")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_cf = sub.add_parser("closed-form", help="evaluate a closed-form drift formula")
    p_cf.add_argument("--family", required=True, choices=sorted(_CLOSED_FORMS))
    for name in dict.fromkeys(name for names, _ in _CLOSED_FORMS.values() for name in names):
        p_cf.add_argument(f"--{name}", type=float)
    p_cf.add_argument("--batch", help="CSV of parameter rows; emits rows with gamma appended")
    p_cf.set_defaults(fn=cmd_closed_form)

    p_sim = sub.add_parser("simulate", parents=walk, help="Monte Carlo estimates for one walk")
    p_sim.add_argument("--steps", type=int, default=10_000)
    p_sim.add_argument("--reps", type=int, default=200)
    p_sim.add_argument("--horizon", type=int, default=1000)
    p_sim.add_argument("--hitting", help="letter to estimate the hitting probability of")
    p_sim.add_argument("--prefix-len", type=int, default=0)
    p_sim.add_argument("--dump-lengths", help="CSV path for per-trajectory length series")
    p_sim.add_argument("--dump-reps", type=int, default=10)
    p_sim.set_defaults(fn=cmd_simulate)

    p_cyl = sub.add_parser("cylinder", parents=walk,
                           help="harmonic measure of cylinders given as letter lists")
    p_cyl.add_argument("--word", action="append", required=True,
                       help="word as 'f:e.f:e' (repeatable)")
    p_cyl.add_argument("--log", action="store_true", help="also print the log-mass")
    p_cyl.set_defaults(fn=cmd_cylinder)

    p_q = sub.add_parser("quality", parents=walk,
                         help="h/(gamma_S v_S) for one walk, or its sup over a grid")
    p_q.add_argument("--sup", action="store_true", help="grid-search symmetric laws on S")
    p_q.add_argument("--resolution", type=float, default=1e-3)
    p_q.set_defaults(fn=cmd_quality)

    p_ver = sub.add_parser("verify", help="run the acceptance criteria")
    p_ver.add_argument("--list", action="store_true", help="list criteria without running")
    p_ver.add_argument("--criteria", help="comma list of criterion numbers")
    p_ver.add_argument("--verbose", action="store_true", help="print detail lines for passes too")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (NonGeneratingSetError, RecurrentGroupError) as exc:
        sys.stderr.write(f"invalid walk: {exc}\n")
        return EXIT_INVALID
    except (MaxIterationsError, ConsistencyError) as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_SOLVER
    except OSError as exc:
        sys.stderr.write(f"i/o failure: {exc}\n")
        return EXIT_IO
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID
