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
which never exceeds 1.  ``metrics_rows`` assembles them for the solve
outcomes of a batch of walks, and ``metrics_report`` is its batch of one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .closedform import _certified_bounds, bisect_increasing
from .groups import FreeProduct, LengthTable, Letter, letter_lengths, natural_lengths
from .traffic import (
    DEFAULT_TOL,
    DOMAIN_ERRORS,
    HittingVector,
    RootVector,
    SolveReport,
    StepDistribution,
    _Structure,
    _stationary,
    batches,
    check_tolerance,
    chunk_rows,
    letter_tables,
    solve_batch,
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


@dataclass(frozen=True, eq=False)
class QualitySweep:
    """Grid-search result for sup over symmetric step laws of h/(gamma v)."""

    best_mu: StepDistribution
    best_quality: float
    at_boundary: bool
    evaluations: int


def _row_dot(a: np.ndarray, b: np.ndarray):
    """The dot product of two rows, or of each pair of rows of two stacks.

    A stacked ``matmul`` of 1 x n by n x 1 matrices runs ``np.dot``'s
    kernel on each pair, so each row's sum is that of the row alone, and
    one row is a stack of one.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _additive_drift(s: _Structure, p: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Speed of the additive letter functional w: a word weighs the sum of w over its letters.

    Left-multiplying an infinite normal word, whose first letter has law r
    = x, by a step a prepends a when the word starts outside a's factor
    (gain w(a)), cancels a first letter a^-1 (loss w(a^-1)), or turns a
    first letter v of a's factor into a*v (change w(a*v) - w(v)).  The last
    case runs over the solver's in-factor pair tables u * v = a.  p, x and
    w are one row each or (B, n) stacks (w may be one row for all, or a
    (W, B, n) stack of W weights, which gives W speeds per row).
    """
    inv = s.inv_index
    ends = _row_dot(p, w * s.outside(x) - w.take(inv, axis=-1) * x.take(inv, axis=-1))
    # w(a * v) - w(v) at each pair, with one temporary of its size
    change = w.take(s.pair_a, axis=-1)
    change -= w.take(s.pair_v, axis=-1)
    merges = _row_dot(p.take(s.pair_u, axis=-1) * x.take(s.pair_v, axis=-1), change)
    return ends + merges


def _speed(product: FreeProduct, mu, r, w: np.ndarray):
    """``_additive_drift`` of one walk as a float, or of (B, n) stacks of laws and root vectors."""
    out = _additive_drift(letter_tables(product), np.asarray(getattr(mu, "probs", mu), dtype=float),
                          np.asarray(getattr(r, "values", r), dtype=float), w)
    return float(out) if out.ndim == 0 else out


def drift(product: FreeProduct, mu: StepDistribution, r: RootVector) -> float:
    """Speed of escape in the natural letter-count metric.

    Here and in ``drift_weighted`` and ``entropy``, mu, r and q may instead
    be (B, n) stacks of step laws, root vectors and hitting vectors; the
    result is then an array with one speed per row.
    """
    return _speed(product, mu, r, np.ones(product.nletters))


def drift_weighted(
    product: FreeProduct, mu: StepDistribution, r: RootVector, lengths: LengthTable
) -> float:
    """Speed of escape measured in S-length, for a letter LengthTable."""
    return _speed(product, mu, r, np.asarray(lengths.weights, dtype=float))


def entropy(
    product: FreeProduct, mu: StepDistribution, r: RootVector, q: HittingVector
) -> float:
    """Asymptotic entropy of the walk in nats per step: the speed in the Green metric -log q."""
    return _speed(product, mu, r, -np.log(np.asarray(getattr(q, "values", q), dtype=float)))


Runs = tuple[tuple[tuple[int | float, int], ...], ...]


def _factor_runs(product: FreeProduct, lengths: LengthTable) -> Runs:
    """Per factor, its letter weights in alphabet order as runs (weight, count) of equal ones."""
    weights = lengths.weights.tolist()
    # Lists, not generators: tuple(<generator>) allocates 10 slots and then resizes.
    return tuple([
        tuple([(w, len(list(run))) for w, run in itertools.groupby(weights[product.factor_slice(i)])])
        for i in range(product.nfactors)
    ])


def _growth_equation(runs: Sequence[Sequence[tuple[int | float, int]]], t: float) -> float:
    """sum_i f_i(t)/(1 + f_i(t)) - 1, with t^w computed once per run of equal weights.

    f_i gets the same float additions, in the same order, as a sum over the
    letters of factor i; a run of one letter is a plain addition, which
    keeps weights that change at every letter as fast as that sum.  Up to
    Python 3.11 ``sum`` adds floats left to right, so f_i is bit-identical
    to the letter-by-letter sum; from 3.12 ``sum`` compensates its rounding
    within each call, and the last bit may differ.
    """
    total = 0.0
    for factor in runs:
        f = 0
        for w, count in factor:
            x = t**w
            f = f + x if count == 1 else sum(itertools.repeat(x, count), f)
        total += f / (1.0 + f)
    return total - 1.0


def volume(product: FreeProduct, lengths: LengthTable) -> float:
    """Exponential growth rate of spheres in the S-metric.

    v = -log t*, where t* in (0,1] is the unique root of
    sum_i f_i(t)/(1+f_i(t)) = 1 and f_i(t) = sum over letters u of factor i
    of t^{|u|_S}.  With unit weights this is log of the Perron root of the
    sphere recursion.  Z/2 * Z/2 grows linearly: its root is t*=1, v=0.
    A weight that is not finite and positive is a ValueError.
    """
    runs = _factor_runs(product, lengths)
    for i, factor in enumerate(runs):
        for w, _ in factor:
            if not 0 < w < math.inf:
                raise ValueError(f"length weight {w!r} in factor {i} is not finite and positive")
    return _volume_of_runs(runs)


@functools.lru_cache(maxsize=256)
def _volume_of_runs(runs: Runs) -> float:
    """``volume`` from the factor runs, memoised on them: products and tables are rebuilt freely.

    The root t* is bisected on [0, 1] from a certified float guess (see
    ``_certified_bounds``), so the midpoints far from t* cost no call of
    ``_growth_equation`` and the bracket is the plain bisection's; mixed
    weights have no guess (``_volume_guess``) and take the plain loop.  The
    certificate's slack bounds the rounding of ``_growth_equation`` for
    weights in (0, inf), where the exact left side is nondecreasing in t.
    With u = 2^-53, the sum of nonnegative terms of factor i takes
    n_i - 1 roundings, and each t^w is within 2 ulp (4u relative; exact for
    w = 1), so f_i has relative error at most gamma(a_i), a_i = n_i - 1, or
    n_i + 3 if some weight of the factor is not 1 (gamma(k) = ku/(1 - ku),
    Higham, Accuracy and Stability of Numerical Algorithms, 3.1); f/(1+f)
    moves by at most that relative error of f and adds 2 roundings, so
    g_i = f_i/(1 + f_i) <= 1 is within gamma(a_i + 2); adding the m values
    of g_i errs by at most gamma(m - 1) m (1 + gamma(max a_i + 2)), and
    subtracting 1 by u m.  The total is at most Ku/(1 - Ku)^2 <= 2Ku with
    K = sum_i (a_i + 2) + m^2, so the slack is 2Ku.  A t^w in the subnormal
    range errs by 2^-1073 more at most, far inside the factor 2; from
    Python 3.12 ``sum`` compensates its rounding and errs less.
    """
    if _growth_equation(runs, 1.0) < -1e-12:
        raise ValueError("growth equation has no root in (0,1]: invalid length table")
    mixed = sum(any(w != 1 for w, _ in factor) for factor in runs)
    slack = (sum(count for factor in runs for _, count in factor) + len(runs) + 4 * mixed
             + len(runs) ** 2) * 2.0**-52
    fn = lambda t: _growth_equation(runs, t)
    guess, slope = _volume_guess(runs)
    below, above = _certified_bounds(fn, 0.0, 1.0, guess, slack, slope)
    lo, hi = bisect_increasing(fn, 0.0, 1.0, below=below, above=above)
    return -math.log(0.5 * (lo + hi))


def _rho_guess(sizes: Sequence[int]) -> float:
    """A float guess at the root of sum_i k_i/(rho + k_i) = 1.

    Two factors give rho = sqrt(k_1 k_2).  Otherwise Newton's method starts
    at (m - 1) min k_i, where every term is at least 1/m, so at or below
    the root; the map 1 - sum_i k_i/(rho + k_i) is increasing and concave,
    so the iterates climb to the root.  Newton's error after a step is
    about the square of the step's, so the loop ends after a step below
    2^-26 rho, or one that does not climb.
    """
    if len(sizes) == 2:
        return math.sqrt(sizes[0] * sizes[1])
    rho = (len(sizes) - 1) * min(sizes)
    for _ in range(64):
        value, slope = 1.0, 0.0
        for k in sizes:
            x = k / (rho + k)
            value -= x
            slope += x / (rho + k)
        step = -value / slope
        if step > 0:
            rho += step
        if not 2.0**-26 * rho < step:
            break
    return rho


def _growth_slope(runs: Runs, t: float) -> float:
    """d/dt of the growth equation at t in (0, 1]: sum_i f_i'(t)/(1 + f_i(t))^2."""
    total = 0.0
    for factor in runs:
        f = df = 0.0
        for w, count in factor:
            x = count * t**w
            f += x
            df += w * x
        total += df / (t * (1.0 + f) ** 2)
    return total


def _volume_guess(runs: Runs) -> tuple[float, float]:
    """A float guess at the root t* of the growth equation, and the equation's slope there.

    With all weights equal to w, f_i(t) = n_i t^w, so t* = rho^(-1/w),
    where rho solves the unit-weight equation (``_rho_guess`` on the letter
    counts), at no call of ``_growth_equation``.  Mixed weights, weights
    outside (0, inf), and a t* that underflows to 0 give no guess (NaN),
    and the bisection runs the plain loop.
    """
    weights = {w for factor in runs for w, _ in factor}
    w = weights.pop() if len(weights) == 1 else math.nan
    if not 0 < w < math.inf:
        return math.nan, math.nan
    t = _rho_guess([sum(count for _, count in factor) for factor in runs]) ** (-1 / w)
    return (t, _growth_slope(runs, t)) if t > 0 else (math.nan, math.nan)


def growth_rho(product: FreeProduct) -> float:
    """Perron root rho of the natural sphere recursion.

    Unique positive solution of sum_i k_i/(rho + k_i) = 1 with k_i the
    number of nonidentity elements of factor i; exp(volume) for natural
    lengths.  Solved by bisection on the increasing map 1 - sum_i k_i/(x + k_i)
    over [0, sum_i k_i], from a certified float guess (``_rho_guess``; see
    ``_certified_bounds``), so the bracket is the plain bisection's with
    about a fifth of its evaluations.  The certificate's slack is
    2m(m + 2)u for m factors and u = 2^-53: each term k/(x + k) <= 1 takes 2
    roundings, their sum m - 1 more, and the subtraction from 1 errs by at
    most u m, a total below m(m + 2)u/(1 - (m + 2)u)^2.
    """
    sizes = [g.order - 1 for g in product.factors]
    fn = lambda x: 1.0 - sum(k / (x + k) for k in sizes)
    m, top = len(sizes), float(sum(sizes))
    slack = m * (m + 2) * 2.0**-52
    guess = _rho_guess(sizes)
    slope = sum(k / (guess + k) ** 2 for k in sizes)
    below, above = _certified_bounds(fn, 0.0, top, guess, slack, slope)
    lo, hi = bisect_increasing(fn, 0.0, top, below=below, above=above)
    return 0.5 * (lo + hi)


def extremal_measure(product: FreeProduct) -> StepDistribution:
    """Step law with quality exactly 1 for the natural generators.

    Gives every letter of factor i probability 1/(rho + k_i); the defining
    equation of rho is precisely the normalization.
    """
    rho = growth_rho(product)
    probs = 1.0 / (rho + np.bincount(product.factor_of)[product.factor_of])
    return StepDistribution(product, probs / probs.sum())


def quality(
    product: FreeProduct,
    mu: StepDistribution,
    generators: Iterable[Letter],
    tol: float = DEFAULT_TOL,
) -> float:
    """h / (gamma_S * v_S) for one step law and one generating set."""
    lengths = letter_lengths(product, generators)
    return metrics_report(product, mu, solve_walk(product, mu, tol=tol), lengths).quality


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
    behavior visible and reproducible.  S must lie in the product and be
    closed under inverses; ``letter_lengths`` checks both before the grid.
    """
    gens = list(generators)
    lengths = letter_lengths(product, gens)  # checks that S is in the product and symmetric
    if not grid_resolution > 0.0:
        raise ValueError(f"grid resolution must be positive, got {grid_resolution!r}")
    check_tolerance(tol)
    orbits = _inverse_orbits(product, gens)
    steps = round(1.0 / grid_resolution)
    if steps < len(orbits):
        raise ValueError("grid resolution too coarse for the number of inverse pairs")
    best_q = -math.inf
    best_point = best_probs = None
    evaluations = 0
    columns = [(product.letter_index(u), j, len(orbit))
               for j, orbit in enumerate(orbits) for u in orbit]
    for block in batches(_compositions(steps, len(orbits))):
        points = np.array(block)
        probs = np.zeros((len(points), product.nletters))
        for letter, j, size in columns:
            probs[:, letter] = points[:, j] / steps / size
        solved = solve_batch(product, probs, tol=tol)
        evaluations += sum(not isinstance(report, Exception) for report in solved)
        for point, row, m in zip(points, probs, metrics_rows(product, probs, solved, lengths)):
            if not isinstance(m, Exception) and m.quality > best_q:
                best_q, best_point, best_probs = m.quality, point, row
    if best_point is None:
        raise ValueError("no admissible grid point")
    hi = steps - (len(orbits) - 1)
    at_boundary = bool(np.any((best_point == 1) | (best_point == hi)))
    return QualitySweep(best_mu=StepDistribution(product, best_probs), best_quality=best_q,
                        at_boundary=at_boundary, evaluations=evaluations)


_NO_DRIFT = "weighted drift is zero: walk is not transient enough for quality"


def metrics_rows(
    product: FreeProduct,
    probs: np.ndarray,
    outcomes: Sequence[SolveReport | Exception],
    lengths: LengthTable | None = None,
) -> list[MetricsReport | Exception]:
    """The metrics of each row of a (B, n) stack of step laws, from the row's solve outcome.

    A row whose outcome is an exception keeps it.  gamma and volume are
    measured in ``lengths``, natural by default; a drift at or below
    QUALITY_GAMMA_FLOOR is a ValueError, since the quotients divide by it.
    The volume is computed once for all rows, and the stationary flag once
    per chunk of root vectors.
    """
    if lengths is None:
        lengths = natural_lengths(product)
    ok = [i for i, report in enumerate(outcomes) if not isinstance(report, Exception)]
    p = np.asarray(probs, dtype=float)[ok]
    r = np.array([outcomes[i].r.values for i in ok]).reshape(p.shape)
    q = np.array([outcomes[i].q.values for i in ok]).reshape(p.shape)
    # in chunks, as the pair terms take up to n^2 floats per row
    gammas, entropies, stationary = [], [], []
    s = letter_tables(product)
    size = chunk_rows(product.nletters)
    for start in range(0, len(p), size):
        rows = slice(start, start + size)
        # gamma and h in one call, with the weights in lengths and -log q
        # stacked, so the terms in r are built once for both
        w = np.empty((2,) + q[rows].shape)
        w[0], w[1] = lengths.weights, -np.log(q[rows])
        gamma, h = _additive_drift(s, p[rows], r[rows], w)
        gammas += gamma.tolist()
        entropies += h.tolist()
        stationary += _stationary(s, r[rows]).tolist()
    v = volume(product, lengths) if any(not g <= QUALITY_GAMMA_FLOOR for g in gammas) else math.nan
    out = list(outcomes)
    for i, gamma, h, flag in zip(ok, gammas, entropies, stationary):
        out[i] = ValueError(_NO_DRIFT) if gamma <= QUALITY_GAMMA_FLOOR else MetricsReport(
            gamma=gamma, entropy=h, volume=v, quality=h / (gamma * v), hd_measure=h / gamma,
            hd_support=v, stationary=flag)
    return out


def metrics_walks(
    walks: Iterable[tuple[FreeProduct, StepDistribution]],
    lengths_of: Callable[[FreeProduct], LengthTable],
    tol: float = DEFAULT_TOL,
) -> list[MetricsReport | Exception]:
    """Solve and summarise each walk, batching every walk on equal factors, wherever it stands.

    Each outcome equals ``metrics_report(product, mu, solve_walk(product,
    mu, tol), lengths_of(product))`` or the domain error that raises, in
    input order.  The walks are grouped by ``product.factors`` in
    first-seen order, not only in runs of consecutive walks, and each group
    takes one ``lengths_of`` on its first product, one ``solve_batch`` and
    one volume; a row is bit-identical to its batch of one.
    """
    groups: dict[tuple, list[int]] = {}
    walks = list(walks)
    for i, (product, _) in enumerate(walks):
        groups.setdefault(product.factors, []).append(i)
    out: list = [None] * len(walks)
    for rows in groups.values():
        product = walks[rows[0]][0]
        try:
            lengths = lengths_of(product)
        except DOMAIN_ERRORS as exc:
            outcomes = [exc] * len(rows)
        else:
            probs = np.array([walks[i][1].probs for i in rows])
            outcomes = metrics_rows(product, probs, solve_batch(product, probs, tol=tol), lengths)
        for i, outcome in zip(rows, outcomes):
            out[i] = outcome
    return out


def metrics_report(
    product: FreeProduct,
    mu: StepDistribution,
    report: SolveReport | None = None,
    lengths: LengthTable | None = None,
) -> MetricsReport:
    """The scalar metrics of one walk in a letter length table, natural by default.

    The batch of one of ``metrics_rows``: a drift at or below
    QUALITY_GAMMA_FLOOR raises the ValueError that it returns.
    """
    if report is None:
        report = solve_walk(product, mu)
    (m,) = metrics_rows(product, mu.probs[None], [report], lengths)
    if isinstance(m, Exception):
        raise m
    return m
