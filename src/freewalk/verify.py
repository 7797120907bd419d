"""The acceptance suite: thirteen numbered end-to-end criteria.

Each criterion re-derives published or independently computable values
through the full pipeline (solver, closed forms, metrics, enumeration,
Monte Carlo) and checks them at a fixed tolerance.  ``run_criterion``
titles a CriterionResult from CRITERIA and hands it to the criterion,
which fills it with labelled checks and notes; the CLI ``verify``
subcommand and the acceptance tests are thin wrappers around it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator

import numpy as np

from . import closedform as cf
from .groups import (
    Letter,
    free_product_of_cyclics,
    letter_lengths,
    natural_lengths,
    normal_words,
    sphere_series,
)
from .harmonic import (
    build_chain,
    cylinder_prob,
    max_mu_invariance_residual,
    max_shift_residual,
    two_factor_identity,
)
from .metrics import (
    drift,
    growth_rho,
    metrics_report,
    metrics_walks,
    quality,
    quality_sup,
    volume,
)
from .simulate import (
    DriftRun,
    HittingRun,
    PrefixRun,
    distribution_entropy,
    estimate_batch,
    exact_convolution,
    expected_length,
)
from .traffic import solve_walk
from .walkspec import (
    cyclic_walk,
    extremal_walk,
    hecke_simple,
    minimal_generators,
    uniform_per_factor,
    z2z2z2,
    z2z3_walk,
    z3z3_asym,
    z3z3_sym,
    zkzk_simple,
)

SEED = 20240809


@dataclass
class CriterionResult:
    """One criterion's labelled tolerance checks and notes; it passes while every check holds."""

    number: int
    title: str
    passed: bool = True
    details: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def true(self, label: str, condition: bool, detail: str = "") -> None:
        self.passed &= condition
        self.details.append(f"{'ok ' if condition else 'BAD'} {label}{(': ' + detail) if detail else ''}")

    def close(self, label: str, value: float, target: float, tol: float) -> None:
        value, target = float(value), float(target)
        err = abs(value - target)
        self.true(label, err <= tol, f"{value!r} vs {target!r} (|err|={err:.3e}, tol={tol:.0e})")


@lru_cache(maxsize=None)
def _solved(build: Callable, k: int):
    """``build(k)`` and its solve, computed once per process."""
    product, mu = build(k)
    return product, mu, solve_walk(product, mu)


def _name(product) -> str:
    return "*".join(f"Z{g.order}" for g in product.factors)


def _drift_table(chk: CriterionResult, closed_form: Callable, build: Callable, closed: dict,
                 numeric: dict) -> None:
    """The closed form and the solver against closed (1e-10) and numeric (1e-6) drifts."""
    for table, tol in ((closed, 1e-10), (numeric, 1e-6)):
        for k, target in table.items():
            chk.close(f"{closed_form.__name__}({k})", closed_form(k), target, tol)
            product, mu, rep = _solved(build, k)
            chk.close(f"solver gamma {_name(product)}", drift(product, mu, rep.r), target, tol)


def criterion_1(chk: CriterionResult) -> None:
    """Drift table for the simple walks on Z/k * Z/k."""
    closed = {3: 0.25, 4: (math.sqrt(5) - 1) / 4, 5: (math.sqrt(13) - 1) / 8}
    numeric = {6: 0.330851, 7: 0.332515, 8: 0.333062}
    _drift_table(chk, cf.drift_zkzk, zkzk_simple, closed, numeric)


def criterion_2(chk: CriterionResult) -> None:
    """Drift table for the simple walks on the Hecke products Z/2 * Z/k."""
    closed = {3: 2.0 / 15.0, 4: (math.sqrt(7) - 1) / 9, 5: (2 * math.sqrt(61) - 4) / 57}
    numeric = {6: 0.213412, 7: 0.217921, 8: 0.220101}
    _drift_table(chk, cf.drift_hecke, hecke_simple, closed, numeric)


def criterion_3(chk: CriterionResult) -> None:
    """Root vector of the simple walk on Z/2 * Z/4."""
    product, _, rep = _solved(hecke_simple, 4)
    s7 = math.sqrt(7)
    expected = [(7 - s7) / 12, 2 / 3 - s7 / 6, (-11 + 5 * s7) / 12, 2 / 3 - s7 / 6]
    for u, target in zip(product.alphabet, expected):
        chk.close(f"r({u})", rep.r[u], target, 1e-10)


def criterion_4(chk: CriterionResult) -> None:
    """Polynomial root identities and monotone drift limits."""
    for k in range(3, 13):
        xk = cf.solve_xk(k)
        chk.close(f"F_{k}(x_{k})", float(cf.eval_F(k, xk)), 1.0, 1e-10)
        values = [float(cf.eval_F(i, xk)) for i in range(1, k)]
        chk.close(f"sum F_i(x_{k})", sum(values), 1.0, 1e-10)
        palindrome = max(abs(values[i - 1] - values[k - i - 1]) for i in range(1, k))
        chk.true(f"palindrome k={k}", palindrome <= 1e-10, f"max gap {palindrome:.3e}")
        product, mu, rep = _solved(zkzk_simple, k)
        chk.close(f"gamma_{k} closed vs solver", (1 - xk) / 2, drift(product, mu, rep.r), 1e-10)
    # The drift gaps decay like 3^-k (Hecke: 2^-k), below double resolution
    # long before k = 64, so the monotone-limit claims are certified with
    # exact rational root enclosures.  Each k from 4 on starts its guess at
    # the root of the enclosure of k - 1, x = 1 - 2 gamma (Hecke:
    # y = (1 - 3 gamma)/2), not at a float bisection of its own.
    for label, enclose, root, limit in (
        ("gamma_k", cf.gamma_zkzk_interval, lambda g: 1 - 2 * g, Fraction(1, 3)),
        ("Hecke gamma_k", cf.gamma_hecke_interval, lambda g: (1 - 3 * g) / 2, Fraction(2, 9)),
    ):
        intervals = [enclose(3)]
        for k in range(4, 65):
            intervals.append(enclose(k, float(root(intervals[-1][0]))))
        chk.true(
            f"{label} strictly increasing, < {limit} (k <= 64, certified)",
            all(a[1] < b[0] for a, b in zip(intervals, intervals[1:]))
            and all(hi < limit for _, hi in intervals),
            f"last enclosure ({float(intervals[-1][0])!r}, {float(intervals[-1][1])!r})",
        )


def criterion_5(chk: CriterionResult) -> None:
    """Normalization of the Z/4 * Z/4 root vector."""
    product, _, rep = _solved(zkzk_simple, 4)
    s5 = math.sqrt(5)
    chk.close("r(a)", rep.r[Letter(0, 1)], (3 - s5) / 4, 1e-10)
    chk.close("r(a^2)", rep.r[Letter(0, 2)], (s5 - 2) / 2, 1e-10)
    chk.close("sum of r over all letters", float(np.sum(rep.r.values)), 1.0, 1e-10)
    halved = 2 * ((3 - s5) / 8) + (s5 / 4 - 0.5)
    chk.notes.append(
        "informational: a halved variant of this vector (entries (3-sqrt5)/8, "
        f"sqrt5/4-1/2, (3-sqrt5)/8 per factor) totals {2 * halved:.6f}, not 1, and is "
        "inconsistent with F_4(x_4)=1 and with gamma_4=(sqrt5-1)/4; the solver's "
        "normalization (letter values summing to 1) is the self-consistent one."
    )


def _clipped(p: float, q: float) -> tuple[float, float]:
    """(p, q) scaled onto p + q = 0.9 when their sum exceeds it."""
    if p + q > 0.9:
        p, q = p * 0.9 / (p + q), q * 0.9 / (p + q)
    return p, q


def _uniform_pair_point(rng) -> tuple[float, int, int]:
    k1, k2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    if k1 == 1 and k2 == 1:
        k2 = 2
    return 0.1 + 0.8 * rng.random(), k1, k2


def criterion_6(chk: CriterionResult) -> None:
    """Closed-form drift formulas against the solver at random interior points."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(SEED)))
    # name, parameter draw, walk builder, closed form; drawn family by family
    families = (
        ("z2z3", lambda rng: _clipped(*(0.02 + 0.86 * rng.random(2))), z2z3_walk, cf.drift_z2z3),
        ("z3z3-sym", lambda rng: (0.03 + 0.44 * rng.random(),), z3z3_sym, cf.drift_z3z3_sym),
        ("z3z3-asym", lambda rng: _clipped(*(0.03 + 0.6 * rng.random(2))), z3z3_asym,
         cf.drift_z3z3_asym),
        ("uniform-pair", _uniform_pair_point,
         lambda p, k1, k2: uniform_per_factor([k1 + 1, k2 + 1], [p, 1 - p]),
         cf.drift_uniform_pair),
    )
    for name, draw, build, closed_form in families:
        points = [draw(rng) for _ in range(100)]
        worst = 0.0
        # the solver's gamma in natural lengths is its drift
        for point, m in zip(points, metrics_walks((build(*point) for point in points),
                                                  natural_lengths)):
            if isinstance(m, Exception):
                raise m
            worst = max(worst, abs(closed_form(*point) - m.gamma))
        chk.true(f"{name}: 100 random points", worst <= 1e-9, f"worst |err| {worst:.3e}")


def criterion_7(chk: CriterionResult) -> None:
    """Maximum drift over the Z/2 * Z/3 parameter simplex.

    The sweep evaluates the closed-form drift surface on the full simplex
    at resolution 1e-3, in blocks of 32 rows of fixed p, with one call of
    ``drift_z2z3`` per block; criterion 6 has already pinned that surface
    to the solver, and the solver is re-run at the argmax here.  The first
    maximum in row-major order wins: the first one within a block, and a
    later block only when strictly greater.
    """
    n, rows = 1000, 32
    grid = np.arange(n + 1) / n
    best, pb, qb = -math.inf, 0.0, 0.0
    for start in range(0, n + 1, rows):
        p, q = np.broadcast_arrays(grid[start:start + rows, None], grid)
        valid = (p + q <= 1 - 1 / n) & (p + q >= 1 / n)  # mu(a) > 0 and Z/3 touched
        block = np.full(p.shape, -1.0)
        block[valid] = cf.drift_z2z3(p[valid], q[valid])
        j = int(np.argmax(block))  # flat, so the block's first maximum in row-major order
        if block.flat[j] > best:
            best, pb, qb = float(block.flat[j]), float(p.flat[j]), float(q.flat[j])
    chk.close("max gamma over simplex", best, 0.163379, 1e-4)
    z0 = 0.490275
    on_edge = (qb == 0.0) or (pb == 0.0)
    chk.true("argmax on a boundary edge (p=0 or q=0)", on_edge, f"argmax ({pb}, {qb})")
    nonzero = pb if qb == 0.0 else qb
    chk.close("nonzero coordinate vs 1 - z0", nonzero, 1 - z0, 2e-3)
    product, mu = z2z3_walk(pb, qb)
    rep = solve_walk(product, mu)
    chk.close("solver drift at argmax", drift(product, mu, rep.r), best, 1e-9)


def _solved_battery():
    """Criterion 8's walks as (name, (product, mu, solve)); the first four are ``_solved``'s."""
    fresh = [
        ("z2z3 p=0.5 q=0.1", z2z3_walk(0.5, 0.1)),
        ("z2z3 p=0.2 q=0.4", z2z3_walk(0.2, 0.4)),
        ("z3z3-sym p=0.4", z3z3_sym(0.4)),
        ("z3z3-asym p=0.3 q=0.1", z3z3_asym(0.3, 0.1)),
        ("uniform Z3*Z4 w=0.3", uniform_per_factor([3, 4], [0.3, 0.7])),
        ("extremal Z2*Z4", extremal_walk([2, 4])),
        ("extremal Z2*Z3*Z5", extremal_walk([2, 3, 5])),
        ("z2z2z2 p=0.3", z2z2z2(0.3)),
    ]
    return [
        ("zkzk-simple k=4", _solved(zkzk_simple, 4)),
        ("zkzk-simple k=5", _solved(zkzk_simple, 5)),
        ("hecke-simple k=3", _solved(hecke_simple, 3)),
        ("hecke-simple k=4", _solved(hecke_simple, 4)),
    ] + [(name, (*walk, solve_walk(*walk))) for name, walk in fresh]


def criterion_8(chk: CriterionResult) -> None:
    """Structural identities on a battery of solved instances."""
    for name, (product, mu, rep) in _solved_battery():
        residual = rep.q.consistency_residual()
        chk.true(f"{name}: consistency residual", residual <= 1e-10, f"{residual:.3e}")
        m = metrics_report(product, mu, rep)
        h, gv = m.entropy, m.gamma * m.volume
        chk.true(f"{name}: h <= gamma*v*(1+1e-9)", h <= gv * (1 + 1e-9), f"h={h!r} gamma*v={gv!r}")
        # mu-invariance pins the root vector; on two factors the tau^2
        # residual vanishes for every positive root vector.
        chain = build_chain(product, rep.r)
        mu_res = max_mu_invariance_residual(chain, mu, 2)
        chk.true(f"{name}: mu-invariance residual (cylinders <= 2)", mu_res <= 1e-10,
                 f"{mu_res:.3e}")
        if product.nfactors != 2:
            continue
        identity = two_factor_identity(rep.q)
        chk.true(f"{name}: q(S1)q(S2)=1", abs(identity - 1.0) <= 1e-10, f"{identity!r}")
        tau2 = max_shift_residual(chain, 3)
        chk.true(f"{name}: tau^2 residual (cylinders <= 3)", tau2 <= 1e-10, f"{tau2:.3e}")


def criterion_9(chk: CriterionResult) -> None:
    """Extremal step laws: entropy-drift-volume equality and cylinder formula."""
    for orders in ([2, 4], [2, 3, 5], [3, 3, 3]):
        product, mu = extremal_walk(orders)
        name = _name(product)
        rep = solve_walk(product, mu)
        m = metrics_report(product, mu, rep)
        gap = abs(m.entropy - m.gamma * m.volume)
        chk.true(f"{name}: |h - gamma*v|", gap <= 1e-9, f"{gap:.3e}")
        chain = build_chain(product, rep.r)
        # a length-k cylinder ending in factor j carries rho^-(k-1) / (rho + k_j)
        rho = growth_rho(product)
        worst = 0.0
        for w in normal_words(product, 3):
            k = len(w)
            order = product.factors[w[k - 1].factor].order
            worst = max(worst, abs(cylinder_prob(chain, w) - rho ** (-(k - 1)) / (rho + order - 1)))
        chk.true(f"{name}: cylinders vs rho-power formula (len <= 3)", worst <= 1e-10, f"{worst:.3e}")


def criterion_10(chk: CriterionResult) -> None:
    """Quality constants for minimal generating sets."""
    product, mu = zkzk_simple(4)
    minimal = minimal_generators(product)
    sweep = quality_sup(product, minimal, 1e-3)
    chk.close("Z4*Z4 minimal: sup over grid", sweep.best_quality, 0.987686, 1e-3)
    closed = (5 + math.sqrt(5)) / 4 * math.log((1 + math.sqrt(5)) / 2) / math.log(1 + math.sqrt(2))
    chk.close("Z4*Z4 minimal: quality at the simple walk", quality(product, mu, minimal), closed, 1e-9)

    p = 0.432693  # middle root of 5x^3 - 13x^2 + 7x - 1
    product34, mu34 = cyclic_walk((3, 4), {
        Letter(0, 1): p, Letter(0, 2): p, Letter(1, 1): 0.5 - p, Letter(1, 3): 0.5 - p})
    m34 = metrics_report(product34, mu34, lengths=letter_lengths(product34, minimal_generators(product34)))
    gap = abs(m34.entropy - m34.gamma * m34.volume)
    chk.true("Z3*Z4 minimal at p=0.432693: |h - gamma_S v_S|", gap <= 1e-5, f"{gap:.3e}")

    for p3, expect_one in ((1 / 3, True), (0.25, False), (0.40, False)):
        product3, mu3 = z2z2z2(p3)
        value = quality(product3, mu3, product3.alphabet)
        if expect_one:
            chk.close("Z2*Z2*Z2 quality at p=1/3", value, 1.0, 1e-9)
        else:
            chk.true(f"Z2*Z2*Z2 quality at p={p3} below 1", value < 1 - 1e-6, f"{value!r}")


def criterion_11(chk: CriterionResult) -> None:
    """Volume roots and sphere-growth oracles."""
    # exp(v) for the natural generators solves the same equation as rho
    for orders in ([4, 4], [2, 4], [2, 3, 5], [3, 3, 3]):
        product = free_product_of_cyclics(*orders)
        sizes = [product.sigma_size(i) for i in range(product.nfactors)]
        roots = (("rho", growth_rho(product)),
                 ("exp(volume)", math.exp(volume(product, natural_lengths(product)))))
        for label, x in roots:
            residual = abs(sum(size / (x + size) for size in sizes) - 1.0)
            chk.true(f"{label} residual {orders}", residual <= 1e-14, f"{residual:.3e}")

    product44 = free_product_of_cyclics(4, 4)
    product24 = free_product_of_cyclics(2, 4)
    golden = math.log((1 + math.sqrt(5)) / 2)
    for label, product, lengths, target in (
        ("Z4*Z4 natural", product44, natural_lengths(product44), None),
        ("Z4*Z4 minimal", product44, letter_lengths(product44, minimal_generators(product44)), None),
        ("Z2*Z4 minimal", product24, letter_lengths(product24, minimal_generators(product24)), golden),
    ):
        v = volume(product, lengths)
        if target is not None:
            chk.close(f"{label}: v = log golden ratio", v, target, 1e-10)
        spheres = sphere_series(product, lengths, 15)
        chk.close(f"{label}: log sphere ratio at 15", math.log(spheres[15] / spheres[14]), v, 1e-2)


def criterion_12(chk: CriterionResult) -> None:
    """Monte Carlo concordance for the simple walks on Z/4 * Z/4 and Z/2 * Z/3."""
    hitting_bias_allowance = 5e-3  # stated downward finite-horizon bias margin
    target = Letter(0, 1)
    walks = (("Z4*Z4", _solved(zkzk_simple, 4), (math.sqrt(5) - 1) / 4),
             ("Z2*Z3", _solved(hecke_simple, 3), 2 / 15))
    # one batch, product by product, so that two CPUs step one drift run each
    reports = estimate_batch([run for _, (product, mu, _), _ in walks for run in (
        DriftRun(product, mu, steps=10_000, reps=200, seed=SEED),
        PrefixRun(product, mu, steps=1500, reps=4000, seed=SEED + 1, prefix_len=1),
        HittingRun(product, mu, target, horizon=1000, reps=4000, seed=SEED + 2))])
    for i, (name, (product, mu, rep), target_gamma) in enumerate(walks):
        est, prefix, hit = reports[3 * i : 3 * i + 3]
        chk.true(
            f"{name}: drift within 3 sigma",
            abs(est.estimate - target_gamma) <= 3 * est.stderr,
            f"est {est.estimate!r} +- {est.stderr:.2e}, target {target_gamma!r}",
        )
        kept = prefix.replications - prefix.dropped
        worst_z = 0.0
        for u in product.alphabet:
            freq = prefix.frequencies.get(product.word([u]), 0.0)
            r = rep.r[u]
            sigma = math.sqrt(r * (1 - r) / kept)
            worst_z = max(worst_z, abs(freq - r) / sigma)
        chk.true(f"{name}: prefix-1 frequencies within 3 sigma of r", worst_z <= 3.0,
                 f"worst z {worst_z:.2f}")
        chk.true(
            f"{name}: hitting probability within 3 sigma + bias",
            abs(hit.estimate - rep.q[target]) <= 3 * hit.stderr + hitting_bias_allowance,
            f"est {hit.estimate!r} +- {hit.stderr:.2e}, q {rep.q[target]!r}",
        )


def criterion_13(chk: CriterionResult) -> None:
    """Exact-convolution desk-scale trend for the simple walk on Z/3 * Z/3.

    Checks the stated tolerances literally: the n = 7, 8 increments of
    E|X_n| within 0.02 of the drift and of H(mu^*n) within 0.05 of the
    entropy.  Exact enumeration puts the true gaps at 0.035-0.048 and
    0.11-0.13 (the increments do converge, but far more slowly), so this
    criterion fails as specified; the computed gaps are reported.
    """
    product, mu, rep = _solved(zkzk_simple, 3)
    m = metrics_report(product, mu, rep)
    lengths = {}
    entropies = {}
    for n in (6, 7, 8):
        law = exact_convolution(product, mu, n)
        lengths[n] = expected_length(law)
        entropies[n] = distribution_entropy(law)
    for n in (7, 8):
        chk.close(f"E|X_{n}| - E|X_{n - 1}| vs gamma", lengths[n] - lengths[n - 1], m.gamma, 0.02)
        chk.close(f"H_{n} - H_{n - 1} vs h", entropies[n] - entropies[n - 1], m.entropy, 0.05)
    if not chk.passed:
        chk.notes.append(
            "informational: the stated n=7,8 tolerances are not attainable; from n = 12 "
            "to 17 the exact increments stay above gamma and h, their gaps shrink by a "
            "factor of 0.85-0.95 per step, and they enter the 0.02 / 0.05 bands at "
            "n = 13 and n = 17."
        )


CRITERIA: dict[int, tuple[str, Callable[[CriterionResult], None]]] = {
    1: ("drift table Z/k * Z/k", criterion_1),
    2: ("drift table Hecke Z/2 * Z/k", criterion_2),
    3: ("Z/2 * Z/4 root vector", criterion_3),
    4: ("recurrence and root identities", criterion_4),
    5: ("Z/4 * Z/4 root-vector normalization", criterion_5),
    6: ("closed-form / solver agreement", criterion_6),
    7: ("Z/2 * Z/3 maximum drift", criterion_7),
    8: ("structural identities on solved instances", criterion_8),
    9: ("extremal measures", criterion_9),
    10: ("minimal-generator quality constants", criterion_10),
    11: ("volume and sphere growth", criterion_11),
    12: ("Monte Carlo concordance", criterion_12),
    13: ("exact-convolution trend", criterion_13),
}

# Criteria whose stated tolerances are contradicted by exact computation;
# they run and report honestly but are expected to fail.  See criterion_13.
EXPECTED_FAILURES = {13}


def run_criterion(number: int) -> CriterionResult:
    title, fn = CRITERIA[number]
    result = CriterionResult(number, title)
    fn(result)
    return result


def run_all(numbers: Iterable[int] | None = None) -> Iterator[tuple[CriterionResult, float]]:
    """Run each selected criterion once, in order, yielding it with its wall time in seconds.

    ``numbers`` defaults to every criterion; repeats are dropped, and an
    unknown number is rejected before any criterion runs.
    """
    selected = sorted(CRITERIA) if numbers is None else list(dict.fromkeys(numbers))
    unknown = [n for n in selected if n not in CRITERIA]
    if unknown:
        raise ValueError(f"no criterion {unknown[0]}; known: {sorted(CRITERIA)}")
    for number in selected:
        start = time.perf_counter()
        result = run_criterion(number)
        yield result, time.perf_counter() - start
