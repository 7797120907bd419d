"""Monte Carlo realizations of the walk and exact small-n convolutions.

Randomness comes from numpy's Philox 4x64-10 counter-based generator,
keyed by (master seed, replication index): trajectories are bit-identical
across platforms and replications are independent streams that may be
computed in any order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .groups import FreeProduct, LengthTable, Letter, StateBudgetError, Word, natural_lengths
from .traffic import StepDistribution, letter_tables

CONVOLUTION_BUDGET = 1_000_000


@dataclass(frozen=True)
class Trajectory:
    """One realization: per-step lengths |X_0|..|X_steps| and the final word."""

    seed: int
    stream: int
    steps: int
    lengths: np.ndarray
    final: Word


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with standard error over independent replications."""

    estimate: float
    stderr: float
    replications: int
    horizon: int
    note: str = ""


def _generator(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _sample_indices(mu: StepDistribution, steps: int, rng: np.random.Generator) -> list[int]:
    cdf = np.cumsum(mu.probs)
    cdf[-1] = 1.0
    draws = rng.random(steps)
    return np.minimum(
        np.searchsorted(cdf, draws, side="right"), len(cdf) - 1
    ).tolist()


_CANCEL = -1  # merge[t][u] when t * u is the identity; also "no letter"
_APART = -2  # merge[t][u] when t and u lie in different factors


@functools.lru_cache(maxsize=1)
def _merge_table(product: FreeProduct) -> tuple[tuple[int, ...], ...]:
    """merge[t][u]: alphabet index of t * u for letters of one factor, else _CANCEL or _APART."""
    s = letter_tables(product)
    merge = np.where(np.equal.outer(s.factor_of, s.factor_of), _CANCEL, _APART)
    merge[s.pair_u, s.pair_v] = s.pair_a
    return tuple(map(tuple, merge.tolist()))


def _right_multiply(stack: list[int], u: int, merge) -> tuple[int, int]:
    """Right-multiply a normal-form stack of letter indices by the letter u, in place.

    Returns the letters (removed, added) at the top, _CANCEL for none.
    """
    if stack:
        merged = merge[stack[-1]][u]
        if merged != _APART:
            top = stack.pop()
            if merged != _CANCEL:
                stack.append(merged)
            return top, merged
    stack.append(u)
    return _CANCEL, u


def _letters(product: FreeProduct, stack) -> tuple[Letter, ...]:
    return tuple(product.alphabet[i] for i in stack)


def simulate(
    product: FreeProduct,
    mu: StepDistribution,
    steps: int,
    seed: int,
    lengths: LengthTable | None = None,
    stream: int = 0,
) -> Trajectory:
    """Run one walk for the given number of steps; deterministic in (seed, stream)."""
    table = lengths if lengths is not None else natural_lengths(product)
    weights = table.weights.tolist() + [0]  # weights[_CANCEL] == 0
    merge = _merge_table(product)
    series = np.zeros(steps + 1)
    stack: list[int] = []
    current = 0.0
    for n, pick in enumerate(_sample_indices(mu, steps, _generator(seed, stream)), start=1):
        removed, added = _right_multiply(stack, pick, merge)
        current += weights[added] - weights[removed]
        series[n] = current
    return Trajectory(
        seed=seed, stream=stream, steps=steps, lengths=series, final=Word(_letters(product, stack))
    )


def estimate_drift(
    product: FreeProduct,
    mu: StepDistribution,
    steps: int,
    reps: int,
    seed: int,
    lengths: LengthTable | None = None,
) -> EstimateReport:
    """Mean of |X_steps|/steps over independent replications, with its stderr."""
    if steps < 1 or reps < 2:
        raise ValueError("need steps >= 1 and reps >= 2")
    values = np.empty(reps)
    for rep in range(reps):
        traj = simulate(product, mu, steps, seed, lengths=lengths, stream=rep)
        values[rep] = traj.lengths[-1] / steps
    return EstimateReport(
        estimate=float(values.mean()),
        stderr=float(values.std(ddof=1) / math.sqrt(reps)),
        replications=reps,
        horizon=steps,
    )


def estimate_hitting(
    product: FreeProduct,
    mu: StepDistribution,
    target: Letter,
    horizon: int,
    reps: int,
    seed: int,
) -> EstimateReport:
    """Fraction of walks that visit the target letter within the horizon.

    The finite horizon can only miss late hits, so the estimator is biased
    downward; transience makes the missing mass decay geometrically in the
    horizon.
    """
    goal = [product.letter_index(target)]
    if reps < 2:
        raise ValueError("need reps >= 2")
    merge = _merge_table(product)
    hits = 0
    for rep in range(reps):
        stack: list[int] = []
        for pick in _sample_indices(mu, horizon, _generator(seed, rep)):
            _right_multiply(stack, pick, merge)
            if stack == goal:
                hits += 1
                break
    p_hat = hits / reps
    return EstimateReport(
        estimate=p_hat,
        stderr=math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / reps),
        replications=reps,
        horizon=horizon,
        note="finite-horizon estimator; bias is downward (late hits are lost)",
    )


@dataclass(frozen=True)
class PrefixReport:
    """Empirical frequencies of normal-form prefixes among final words."""

    frequencies: dict[Word, float]
    dropped: int
    replications: int
    horizon: int


def estimate_prefix(
    product: FreeProduct,
    mu: StepDistribution,
    steps: int,
    reps: int,
    seed: int,
    prefix_len: int,
) -> PrefixReport:
    """Frequency of each length-``prefix_len`` prefix of X_steps.

    For steps much larger than prefix_len/drift the prefix has stabilized
    to the prefix of the boundary word, so frequencies estimate cylinder
    masses of the harmonic measure.  Replications whose final word is
    shorter than the prefix are dropped and counted.
    """
    if prefix_len < 1:
        raise ValueError("prefix_len must be >= 1")
    merge = _merge_table(product)
    counts: dict[tuple[int, ...], int] = {}
    dropped = 0
    for rep in range(reps):
        stack: list[int] = []
        for pick in _sample_indices(mu, steps, _generator(seed, rep)):
            _right_multiply(stack, pick, merge)
        if len(stack) < prefix_len:
            dropped += 1
            continue
        key = tuple(stack[:prefix_len])
        counts[key] = counts.get(key, 0) + 1
    kept = reps - dropped
    freqs = {Word(_letters(product, k)): c / kept for k, c in counts.items()} if kept else {}
    return PrefixReport(frequencies=freqs, dropped=dropped, replications=reps, horizon=steps)


def exact_convolution(
    product: FreeProduct,
    mu: StepDistribution,
    n: int,
    max_support: int = CONVOLUTION_BUDGET,
) -> dict[Word, float]:
    """Exact law of X_n as a sparse map from normal-form words to mass.

    Pushes the law forward one letter at a time through the group law.
    Intended for small n; raises StateBudgetError when the support would
    exceed ``max_support``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    support = [(u, p) for u, p in enumerate(mu.probs) if p > 0.0]
    merge = _merge_table(product)
    dist: dict[tuple[int, ...], float] = {(): 1.0}
    for _ in range(n):
        out: dict[tuple[int, ...], float] = {}
        for word, mass in dist.items():
            for u, p in support:
                stack = list(word)
                _right_multiply(stack, u, merge)
                nw = tuple(stack)
                out[nw] = out.get(nw, 0.0) + mass * p
        if len(out) > max_support:
            raise StateBudgetError(f"convolution support exceeds {max_support} words")
        dist = out
    return {Word(_letters(product, w)): p for w, p in dist.items()}


def expected_length(dist: dict[Word, float], lengths: LengthTable | None = None) -> float:
    """E |X| under an exact law, in natural or weighted length."""
    if lengths is None:
        return sum(mass * len(word) for word, mass in dist.items())
    return sum(mass * lengths.word_weight(word) for word, mass in dist.items())


def distribution_entropy(dist: dict[Word, float]) -> float:
    """Shannon entropy (nats) of an exact law."""
    return -sum(mass * math.log(mass) for mass in dist.values() if mass > 0.0)
