"""Drift, entropy, volume, and generator quality of a solved walk.

Drift is the expected change of the (possibly weighted) length of an
infinite normal word when left-multiplied by a mu-step.  Entropy is the
same speed in the Green metric w = -log q: on a free product the Green
function factorises as F(e, x_1...x_k) = q(x_1)...q(x_k), and the entropy
of a transient walk equals its drift in the Green metric (Blachere,
Haissinsky and Mathieu, Ann. Probab. 36 (2008)).  One kernel therefore
computes drift, weighted drift and entropy.  Volume is the exponential
growth rate of spheres, obtained as -log of the root of the factor
length-series equation.  Quality compares the three: Q = h / (gamma * v),
which never exceeds 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .closedform import bisect_increasing
from .groups import FreeProduct, LengthTable, Letter, Word, letter_lengths, natural_lengths
from .traffic import (
    DEFAULT_TOL,
    DOMAIN_ERRORS,
    HittingVector,
    RootVector,
    SolveReport,
    StepDistribution,
    letter_tables,
    solve_walk,
)

QUALITY_GAMMA_FLOOR = 1e-12


@dataclass(frozen=True)
class MetricsReport:
    """Scalar summary of one walk: speed, entropy, growth, and their ratio.

    ``hd_measure`` = h/gamma and ``hd_support`` = v are the Hausdorff
    dimensions of the harmonic measure and of its support for the boundary
    metric exp(-common prefix length); the first never exceeds the second.
    """

    gamma: float
    entropy: float
    volume: float
    quality: float
    hd_measure: float
    hd_support: float
    stationary: bool


@dataclass(frozen=True)
class QualitySweep:
    """Grid-search result for sup over symmetric step laws of h/(gamma v)."""

    best_mu: StepDistribution
    best_quality: float
    at_boundary: bool
    evaluations: int


def _additive_drift(
    product: FreeProduct, mu: StepDistribution, r: RootVector, w: np.ndarray
) -> float:
    """Speed of the additive letter functional w: a word weighs the sum of w over its letters.

    Left-multiplying an infinite normal word, whose first letter has law r,
    by a step a prepends a when the word starts outside a's factor (gain
    w(a)), cancels a first letter a^-1 (loss w(a^-1)), or turns a first
    letter v of a's factor into a*v (change w(a*v) - w(v)).  The last case
    runs over the solver's in-factor pair tables u * v = a.
    """
    s = letter_tables(product)
    p = mu.probs
    x = np.asarray(r.values, dtype=float)
    inv = s.inv_index
    ends = np.dot(p, w * s.outside(x) - w[inv] * x[inv])
    merges = np.dot(p[s.pair_u] * x[s.pair_v], w[s.pair_a] - w[s.pair_v])
    return float(ends + merges)


def drift(product: FreeProduct, mu: StepDistribution, r: RootVector) -> float:
    """Speed of escape in the natural letter-count metric."""
    return _additive_drift(product, mu, r, np.ones(product.nletters))


def drift_weighted(
    product: FreeProduct, mu: StepDistribution, r: RootVector, lengths: LengthTable
) -> float:
    """Speed of escape measured in S-length, for a letter LengthTable."""
    return _additive_drift(product, mu, r, np.asarray(lengths.weights, dtype=float))


def entropy(
    product: FreeProduct, mu: StepDistribution, r: RootVector, q: HittingVector
) -> float:
    """Asymptotic entropy of the walk in nats per step: the speed in the Green metric -log q."""
    return _additive_drift(product, mu, r, -np.log(np.asarray(q.values, dtype=float)))


def _factor_series(product: FreeProduct, lengths: LengthTable) -> list[list[int | float]]:
    by_factor: list[list[int | float]] = [[] for _ in product.factors]
    for u, w in zip(product.alphabet, lengths.weights.tolist()):
        by_factor[u.factor].append(w)
    return by_factor


def _growth_equation(by_factor: Sequence[Sequence[int | float]], t: float) -> float:
    total = 0.0
    for weights in by_factor:
        f = sum(t**w for w in weights)
        total += f / (1.0 + f)
    return total - 1.0


def volume(product: FreeProduct, lengths: LengthTable) -> float:
    """Exponential growth rate of spheres in the S-metric.

    v = -log t*, where t* in (0,1] is the unique root of
    sum_i f_i(t)/(1+f_i(t)) = 1 and f_i(t) = sum over letters u of factor i
    of t^{|u|_S}.  With unit weights this is log of the Perron root of the
    sphere recursion.  Z/2 * Z/2 grows linearly: its root is t*=1, v=0.
    """
    by_factor = _factor_series(product, lengths)
    if _growth_equation(by_factor, 1.0) < -1e-12:
        raise ValueError("growth equation has no root in (0,1]: invalid length table")
    return -math.log(bisect_increasing(lambda t: _growth_equation(by_factor, t), 0.0, 1.0))


def growth_rho(product: FreeProduct) -> float:
    """Perron root rho of the natural sphere recursion.

    Unique positive solution of sum_i k_i/(rho + k_i) = 1 with k_i the
    number of nonidentity elements of factor i; exp(volume) for natural
    lengths.  Solved by bisection on the increasing map 1 - sum_i k_i/(x + k_i).
    """
    sizes = [g.order - 1 for g in product.factors]
    return bisect_increasing(
        lambda x: 1.0 - sum(k / (x + k) for k in sizes), 0.0, float(sum(sizes))
    )


def extremal_measure(product: FreeProduct) -> StepDistribution:
    """Step law with quality exactly 1 for the natural generators.

    Gives every letter of factor i probability 1/(rho + k_i); the defining
    equation of rho is precisely the normalization.
    """
    rho = growth_rho(product)
    probs = 1.0 / (rho + np.bincount(product.factor_of)[product.factor_of])
    return StepDistribution(product, probs / probs.sum())


def extremal_cylinders(product: FreeProduct, w: Word) -> tuple[float, float]:
    """Cylinder mass of w under the extremal harmonic and max-entropy measures.

    The harmonic measure of the extremal walk charges a length-k cylinder
    ending in factor j with rho^-(k-1) / (rho + k_j).  The measure of
    maximal entropy of the normal-form subshift is the Parry measure of
    the letter adjacency: both Perron vectors have per-factor entries
    1/(rho + k_i), so a length-k cylinder starting in factor i and ending
    in factor j carries
        [1/(rho+k_i)] rho^-(k-1) [1/(rho+k_j)] / sum_m k_m/(rho+k_m)^2.
    The two coincide when all factors have equal size.
    """
    k = len(w)
    if k == 0:
        raise ValueError("need a nonempty cylinder word")
    rho = growth_rho(product)
    sizes = [g.order - 1 for g in product.factors]
    first, last = w[0].factor, w[k - 1].factor
    harmonic = rho ** (-(k - 1)) / (rho + sizes[last])
    norm = sum(m / (rho + m) ** 2 for m in sizes)
    max_entropy = (
        rho ** (-(k - 1)) / ((rho + sizes[first]) * (rho + sizes[last])) / norm
    )
    return harmonic, max_entropy


def quality(
    product: FreeProduct,
    mu: StepDistribution,
    generators: Iterable[Letter],
    tol: float = DEFAULT_TOL,
) -> float:
    """h / (gamma_S * v_S) for one step law and one generating set."""
    lengths = letter_lengths(product, generators)
    report = solve_walk(product, mu, tol=tol)
    h = entropy(product, mu, report.r, report.q)
    gamma_s = drift_weighted(product, mu, report.r, lengths)
    if gamma_s <= QUALITY_GAMMA_FLOOR:
        raise ValueError("weighted drift is zero: walk is not transient enough for quality")
    return h / (gamma_s * volume(product, lengths))


def _inverse_orbits(product: FreeProduct, generators: Sequence[Letter]) -> list[tuple[Letter, ...]]:
    seen: set[Letter] = set()
    orbits: list[tuple[Letter, ...]] = []
    for u in generators:
        if u in seen:
            continue
        v = product.letter_inverse(u)
        orbit = (u,) if v == u else (u, v)
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def quality_sup(
    product: FreeProduct,
    generators: Sequence[Letter],
    grid_resolution: float,
    tol: float = DEFAULT_TOL,
) -> QualitySweep:
    """Grid search of h/(gamma_S v_S) over symmetric step laws on S.

    The grid lives on the simplex of masses per inverse-pair orbit of S,
    with the stated resolution.  A maximum attained at the first or last
    grid value of some orbit is flagged: the supremum may sit on the
    closure of the symmetric laws, where the walk degenerates.  Grid
    search is used instead of ascent precisely to keep that boundary
    behavior visible and reproducible.
    """
    gens = list(generators)
    for u in gens:
        if product.letter_inverse(u) not in gens:
            raise ValueError(f"generator set must be symmetric, missing inverse of {u}")
    if not grid_resolution > 0.0:
        raise ValueError(f"grid resolution must be positive, got {grid_resolution!r}")
    orbits = _inverse_orbits(product, gens)
    steps = round(1.0 / grid_resolution)
    if steps < len(orbits):
        raise ValueError("grid resolution too coarse for the number of inverse pairs")
    best_mu: StepDistribution | None = None
    best_q = -math.inf
    best_point: tuple[int, ...] | None = None
    evaluations = 0
    lengths = letter_lengths(product, gens)
    v_s = volume(product, lengths)
    for point in _compositions(steps, len(orbits)):
        probs = np.zeros(product.nletters)
        for orbit, m in zip(orbits, point):
            for u in orbit:
                probs[product.letter_index(u)] = m / steps / len(orbit)
        mu = StepDistribution(product, probs)
        try:
            report = solve_walk(product, mu, tol=tol)
        except DOMAIN_ERRORS:
            continue
        evaluations += 1
        h = entropy(product, mu, report.r, report.q)
        gamma_s = drift_weighted(product, mu, report.r, lengths)
        if gamma_s <= QUALITY_GAMMA_FLOOR:
            continue
        value = h / (gamma_s * v_s)
        if value > best_q:
            best_q = value
            best_mu = mu
            best_point = point
    if best_mu is None:
        raise ValueError("no admissible grid point")
    hi = steps - (len(orbits) - 1)
    at_boundary = any(m == 1 or m == hi for m in best_point)
    return QualitySweep(
        best_mu=best_mu, best_quality=best_q, at_boundary=at_boundary, evaluations=evaluations
    )


def metrics_report(
    product: FreeProduct,
    mu: StepDistribution,
    report: SolveReport | None = None,
    tol: float = DEFAULT_TOL,
) -> MetricsReport:
    """Assemble the scalar metrics of a walk with natural lengths."""
    if report is None:
        report = solve_walk(product, mu, tol=tol)
    gamma = drift(product, mu, report.r)
    h = entropy(product, mu, report.r, report.q)
    v = volume(product, natural_lengths(product))
    return MetricsReport(
        gamma=gamma,
        entropy=h,
        volume=v,
        quality=h / (gamma * v),
        hd_measure=h / gamma,
        hd_support=v,
        stationary=report.stationary,
    )
