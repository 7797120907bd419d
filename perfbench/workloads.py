"""The benchmark's four workloads: seeded inputs, the timed op, and its check.

Each workload builds a fixed list of ops from its seed.  ``run`` performs
one op exactly as a user of freewalk would, through module attributes so
that the tracer's wrappers are seen; ``check`` then validates the result
outside the timed region and returns a reason when the op is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from freewalk import cli, harmonic, metrics, traffic, verify, walkspec
from freewalk.closedform import (
    drift_hecke,
    drift_uniform_pair,
    drift_z2z3,
    drift_z3z3_asym,
    drift_z3z3_sym,
    drift_zkzk,
)

SOLVE_TOL = traffic.DEFAULT_TOL
CLOSED_FORM_TOL = 1e-10


def clear_caches() -> None:
    """Empty every ``lru_cache`` in freewalk, so each pass pays to fill them as a new process does."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "freewalk" or name.startswith("freewalk.")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def closed_form_gamma(builder: str, args: tuple) -> float | None:
    """Drift from a closed form, for the families that have one."""
    if builder == "z2z3_walk":
        return drift_z2z3(*args)
    if builder == "z3z3_sym":
        return drift_z3z3_sym(*args)
    if builder == "z3z3_asym":
        return drift_z3z3_asym(*args)
    if builder == "zkzk_simple":
        return drift_zkzk(*args)
    if builder == "hecke_simple":
        return drift_hecke(*args)
    if builder == "uniform_per_factor" and len(args[0]) == 2:
        (k1, k2), (w, _) = args
        return drift_uniform_pair(w, k1 - 1, k2 - 1)
    return None


def check_solve(report, m) -> str | None:
    """Invariants every solved walk must satisfy."""
    consistency = report.q.consistency_residual()
    if not consistency <= 10 * SOLVE_TOL:
        return f"consistency residual {consistency:.3e}"
    r = np.asarray(report.r.values)
    if not np.all(r > 0.0):
        return "r has a nonpositive entry"
    if not abs(r.sum() - 1.0) <= 1e-12:
        return f"sum of r is {r.sum()!r}"
    if not m.entropy <= m.gamma * m.volume * (1 + 1e-9):
        return f"h={m.entropy!r} exceeds gamma*v={m.gamma * m.volume!r}"
    return None


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _split(n: int, parts: int, rng: np.random.Generator) -> list[int]:
    """Random composition of n letters into ``parts`` factor sizes, none below 1."""
    sizes = np.maximum(1, np.round(n * rng.dirichlet(np.full(parts, 4.0)))).astype(int)
    while sizes.sum() > n:
        sizes[np.argmax(sizes)] -= 1
    while sizes.sum() < n:
        sizes[np.argmin(sizes)] += 1
    return [int(s) for s in sizes]


class Workload:
    """A fixed, seeded list of ops; subclasses define the op and its check."""

    name = ""

    def __init__(self, seed: int, scale: float, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.ops: list = []
        self._closed: dict = {}

    def gamma_problem(self, builder: str, args: tuple, gamma: float) -> str | None:
        """Compare gamma with the family's closed form, computed once per input."""
        key = (builder, repr(args))
        if key not in self._closed:
            self._closed[key] = closed_form_gamma(builder, args)
        expected = self._closed[key]
        if expected is not None and not abs(gamma - expected) <= CLOSED_FORM_TOL:
            return f"gamma {gamma!r} vs closed form {expected!r}"
        return None

    def warmup_op(self):
        """The op run untimed at the end of set-up, or None for no warm-up."""
        return None

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result) -> str | None:
        raise NotImplementedError

    def describe(self, op) -> str:
        return repr(op)

    def counters(self, result) -> dict[str, float]:
        return {}

    def layer_times(self, latencies: list[float]) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


class Sweep(Workload):
    """~10^3 small walks built by the family builders, 2 % of them near the edge.

    The near-edge walks are z2z2z2(p): the smallest generator mass p sits at
    the midpoints of equal-probability strata of log-uniform [1e-5, 1e-1],
    at seeded positions.  They dominate wall_s, and the 11th slowest of
    them is op_tail_ms, so drawing each p at random would let one draw
    swing both metrics between seeds.  The other walks take the eight
    families in equal numbers, which keeps the mix that sets op_p50_ms.
    """

    name = "sweep"
    OPS = 1000
    NEAR_EDGE_SHARE = 0.02

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        n = _scaled(self.OPS, scale)
        near = max(1, round(self.NEAR_EDGE_SHARE * n))
        interior = [self._interior(i % 8) for i in range(n - near)]
        ops = [interior[i] for i in self.rng.permutation(len(interior))]
        for j, pos in enumerate(sorted(self.rng.choice(n, size=near, replace=False))):
            p = 10.0 ** (-5.0 + 4.0 * (j + 0.5) / near)
            ops.insert(int(pos), ("z2z2z2", (p,)))
        self.ops = ops

    def _orders(self) -> list[int]:
        while True:
            nf = int(self.rng.integers(2, 4))
            sizes = self.rng.integers(1, 12 // nf + 1, size=nf)
            if not (nf == 2 and sizes.max() == 1):  # Z/2 * Z/2 is recurrent
                return [int(s) + 1 for s in sizes]

    def _interior(self, family: int):
        """A walk of one of eight families, with every mass at least 0.1."""
        rng = self.rng
        if family == 0:
            x = 0.1 + 0.7 * rng.dirichlet(np.ones(3))
            return "z2z3_walk", (float(x[1]), float(x[2]))
        if family == 1:
            return "z3z3_sym", (float(0.1 + 0.3 * rng.random()),)
        if family == 2:
            x = np.array([0.1, 0.1, 0.2]) + 0.6 * rng.dirichlet(np.ones(3))
            return "z3z3_asym", (float(x[0]), float(x[1]))
        if family == 3:
            return "zkzk_simple", (int(rng.integers(3, 8)),)
        if family == 4:
            return "hecke_simple", (int(rng.integers(3, 13)),)
        if family == 5:
            orders = self._orders()
            weights = 0.1 + (1 - 0.1 * len(orders)) * rng.dirichlet(np.ones(len(orders)))
            return "uniform_per_factor", (orders, [float(w) for w in weights])
        if family == 6:
            return "extremal_walk", (self._orders(),)
        return "z2z2z2", (float(0.1 + 0.35 * rng.random()),)

    def warmup_op(self):
        return next(op for op in self.ops if op[0] == "z2z3_walk")

    def run(self, op):
        builder, args = op
        product, mu = getattr(walkspec, builder)(*args)
        report = traffic.solve_walk(product, mu)
        return report, metrics.metrics_report(product, mu, report)

    def check(self, op, result):
        report, m = result
        return check_solve(report, m) or self.gamma_problem(*op, m.gamma)


class LargeAlphabet(Workload):
    """~10^2 walks on products with 60-130 letters, built during set-up.

    Letter counts are stratified over their range, so the op mix, and with
    it wall_s and op_tail_ms, does not hinge on a few draws.
    """

    name = "large-alphabet"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        rng = self.rng
        ops = []
        m = _scaled(25, scale)
        for j in range(m):  # zkzk_simple(k) has 2k - 2 letters: 60..126
            k = 31 + int((j + rng.random()) * 34 / m)
            ops.append(("zkzk_simple", (k,)))
        for _ in range(_scaled(20, scale)):
            ops.append(("hecke_simple", (int(rng.integers(60, 65)),)))
        for _ in range(_scaled(10, scale)):
            ops.append(("uniform_per_factor", ([60, 60], [0.5, 0.5])))
        m = _scaled(45, scale)
        for j in range(m):
            n = 60 + int((j + rng.random()) * 71 / m)
            ops.append(("dirichlet", ([s + 1 for s in _split(n, 2 + j % 2, rng)],)))
        order = rng.permutation(len(ops))
        self.ops = []
        for i in order:
            builder, args = ops[i]
            if builder == "dirichlet":
                product = walkspec.free_product_of_cyclics(*args[0])
                mu = traffic.StepDistribution(product, rng.dirichlet(np.ones(product.nletters)))
            else:
                product, mu = getattr(walkspec, builder)(*args)
            self.ops.append((builder, args, product, mu))

    def warmup_op(self):
        return next(op for op in self.ops if op[0] == "uniform_per_factor")

    def describe(self, op):
        return f"{op[0]}{op[1]}"

    def run(self, op):
        _, _, product, mu = op
        report = traffic.solve_walk(product, mu)
        m = metrics.metrics_report(product, mu, report)
        chain = harmonic.build_chain(product, report.r)
        return report, m, chain

    def check(self, op, result):
        report, m, chain = result
        problem = check_solve(report, m) or self.gamma_problem(op[0], op[1], m.gamma)
        if problem:
            return problem
        if not abs(chain.pi.sum() - 1.0) <= 1e-12:
            return f"stationary letter law sums to {chain.pi.sum()!r}"
        return None


class CliSolve(Workload):
    """~60 seeded JSON walk specs, each run through ``freewalk solve --spec``.

    Half are 2-factor products, which pay for the tau^2 residual loop; half
    are 3-factor products, which skip it.  In each half the letter counts
    climb evenly from 4 to 32, so the cost of the n^4 loop is the same for
    every seed; the seed draws the 3-factor splits and every step law.
    """

    name = "cli-solve"
    PER_HALF = 30

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        rng = self.rng
        m = _scaled(self.PER_HALF, scale)
        ladder = [4 + round(j * 28 / (m - 1)) if m > 1 else 4 for j in range(m)]
        shapes = [[n // 2 + 1, n - n // 2 + 1] for n in ladder]
        shapes += [[s + 1 for s in _split(n, 3, rng)] for n in ladder]
        workdir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="specs-", dir=workdir))
        self.ops = []
        for number, i in enumerate(rng.permutation(len(shapes))):
            orders = shapes[i]
            masses = iter(rng.dirichlet(np.ones(sum(orders) - len(orders))))
            letters = {f"{f}:{e}": float(next(masses))
                       for f, k in enumerate(orders) for e in range(1, k)}
            data = {"factors": [{"cyclic": k} for k in orders], "measure": {"letters": letters}}
            path = self.dir / f"spec-{number:03d}.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            spec = walkspec.parse_spec(data)
            report = traffic.solve_walk(spec.product, spec.mu)
            m = metrics.metrics_report(spec.product, spec.mu, report)
            self.ops.append((str(path), orders, m.gamma, m.entropy))

    def warmup_op(self):
        """The two-factor spec with the fewest letters: it exercises the tau^2 path cheaply."""
        return min((op for op in self.ops if len(op[1]) == 2), key=lambda op: sum(op[1]))

    def describe(self, op):
        return f"{Path(op[0]).name} orders={op[1]}"

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["solve", "--spec", op[0]])
        return code, out.getvalue(), err.getvalue()

    def check(self, op, result):
        _, orders, gamma, entropy = op
        code, text, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        values = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
        if float(values["gamma"]) != gamma or float(values["entropy"]) != entropy:
            return f"printed gamma/entropy {values['gamma']}/{values['entropy']} differ from the library"
        if not float(values["consistency residual"]) <= 10 * SOLVE_TOL:
            return f"consistency residual {values['consistency residual']}"
        r = np.array([float(v) for k, v in values.items()
                      if k.startswith("r(") and not k.startswith("r(Sigma")])
        if not (np.all(r > 0.0) and abs(r.sum() - 1.0) <= 1e-12):
            return "printed r is not a positive probability vector"
        if not gamma * float(values["volume"]) * (1 + 1e-9) >= entropy:
            return "h exceeds gamma*v"
        if len(orders) == 2:
            tau2 = float(values["tau^2 residual (cylinders <= 2)"])
            if not tau2 <= 1e-12:
                return f"tau^2 residual {tau2!r}"
        return None

    def counters(self, result):
        return {"cli.output_bytes": len(result[1].encode("utf-8"))}

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class Verify(Workload):
    """The thirteen acceptance criteria, run as ``freewalk verify`` runs them.

    The inputs are fixed, so the seed is ignored.  There is no warm-up op,
    because every ``freewalk verify`` pays to fill its ``lru_cache``s.
    Criterion 13 is expected to fail.  At reduced scale the two multi-second criteria (4 and 12) are
    left out.
    """

    name = "verify"
    EXPECTED_FAILURES = {13}

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.ops = [n for n in sorted(verify.CRITERIA) if scale >= 1 or n not in (4, 12)]

    def run(self, op):
        return verify.run_criterion(op)

    def check(self, op, result):
        expected = op not in self.EXPECTED_FAILURES
        if result.passed != expected:
            return f"criterion {op} {'failed' if expected else 'passed'} unexpectedly"
        return None

    def describe(self, op):
        return f"criterion {op}"

    def layer_times(self, latencies):
        return {f"verify.criterion_{n}.s": t for n, t in zip(self.ops, latencies)}


WORKLOADS = {w.name: w for w in (Sweep, LargeAlphabet, CliSolve, Verify)}


def deep_edge_probe(scale: float) -> dict:
    """Solve z2z2z2(1e-7) once, untraced; today this ends in MaxIterationsError.

    At reduced scale the iteration budget is cut to 10^4 so the probe stays cheap.
    """
    max_iter = traffic.DEFAULT_MAX_ITER if scale >= 1 else 10_000
    product, mu = walkspec.z2z2z2(1e-7)
    try:
        report = traffic.solve_walk(product, mu, max_iter=max_iter)
        outcome, iterations = "solved", report.iterations
    except traffic.MaxIterationsError as exc:
        found = re.search(r"after (\d+) iterations", str(exc))
        outcome = f"MaxIterationsError: {exc}"
        iterations = int(found.group(1)) if found else max_iter
    return {"iterations": iterations, "outcome": outcome, "max_iter": max_iter}
