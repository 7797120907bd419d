"""Monte Carlo realizations of the walk and exact small-n convolutions.

Randomness comes from numpy's Philox 4x64-10 counter-based generator,
keyed by (master seed, replication index): trajectories are bit-identical
across platforms and replications are independent streams that may be
computed in any order.  The estimators step their replications together,
in blocks of up to 512, each walk on its own stream; the letter action
and the float sums are those of the one-walk stepper ``simulate``, so the
estimates equal those of stepping one replication at a time.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .groups import FreeProduct, LengthTable, Letter, StateBudgetError, Word, natural_lengths
from .traffic import StepDistribution, letter_tables

CONVOLUTION_BUDGET = 1_000_000


@dataclass(frozen=True)
class Trajectory:
    """One realization: per-step lengths |X_0|..|X_steps| and the final word."""

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


def check_sizes(steps: int, reps: int, prefix_len: int = 1) -> None:
    """Reject a Monte Carlo run with steps < 1, reps < 2 or prefix_len < 1.

    For ``estimate_hitting`` the steps are its horizon.
    """
    if steps < 1 or reps < 2:
        raise ValueError(f"need steps >= 1 and reps >= 2, got steps={steps}, reps={reps}")
    if prefix_len < 1:
        raise ValueError(f"prefix_len must be >= 1, got {prefix_len}")


class _Streams:
    """The letters drawn by the walks (seed, stream), one Philox 4x64-10 stream each.

    Walk (seed, stream) maps the uniforms of the Philox stream keyed
    [seed, stream] through the cdf of mu.  One bit generator serves every
    walk: ``draw`` resets it to the walk's key and counter, which costs a
    fraction of building a generator.  Counter c yields the 64-bit words
    4c .. 4c + 3, one uniform each, so the uniforms from a multiple of 4
    on start at counter skip / 4.
    """

    def __init__(self, mu: StepDistribution, seed: int):
        self.cdf = np.cumsum(mu.probs)
        self.cdf[-1] = 1.0
        self.seed = seed
        self.bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        self.uniforms = np.random.Generator(self.bits)

    def draw(self, stream: int, steps: int, skip: int = 0) -> np.ndarray:
        """Letter indices skip .. skip + steps - 1 of walk (seed, stream); skip % 4 == 0."""
        self.bits.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.array([skip // 4, 0, 0, 0], dtype=np.uint64),
                "key": np.array([self.seed, stream], dtype=np.uint64),
            },
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        # uniforms lie in [0, 1) and cdf[-1] == 1, so every index is a letter
        return np.searchsorted(self.cdf, self.uniforms.random(steps), side="right")


_CANCEL = -1  # merge[t][u] when t * u is the identity; also "no letter"
_APART = -2  # merge[t][u] when t and u lie in different factors


def _merge_array(product: FreeProduct) -> np.ndarray:
    s = letter_tables(product)
    merge = np.where(np.equal.outer(s.factor_of, s.factor_of), _CANCEL, _APART)
    merge[s.pair_u, s.pair_v] = s.pair_a
    return merge


@functools.lru_cache(maxsize=1)
def _merge_table(product: FreeProduct) -> tuple[tuple[int, ...], ...]:
    """merge[t][u]: alphabet index of t * u for letters of one factor, else _CANCEL or _APART."""
    return tuple(map(tuple, _merge_array(product).tolist()))


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
    for n, pick in enumerate(_Streams(mu, seed).draw(stream, steps).tolist(), start=1):
        removed, added = _right_multiply(stack, pick, merge)
        current += weights[added] - weights[removed]
        series[n] = current
    return Trajectory(lengths=series, final=Word(_letters(product, stack)))


_BLOCK = 512  # walks stepped together
_CHUNK = 2048  # steps drawn per walk at a time, a multiple of 4 (see _Streams)


class _Walks(NamedTuple):
    """Per walk, after the last step of ``_lockstep``."""

    depth: np.ndarray  # letters in the final word
    weight: np.ndarray  # weight of the final word, 0 without weights
    hit: np.ndarray  # whether the word was the one letter goal at some step
    prefix: np.ndarray  # (prefix_len, reps): first letters, index + 1, where depth >= prefix_len


def _lockstep(
    product: FreeProduct,
    mu: StepDistribution,
    steps: int,
    reps: int,
    seed: int,
    weights: np.ndarray | None = None,
    goal: int = -1,
    prefix_len: int = 0,
) -> _Walks:
    """Step the walks (seed, 0), ..., (seed, reps - 1) together, _BLOCK at a time.

    Each walk keeps its normal form as a stack of small ints, letter index
    + 1 with 0 for the empty word under it.  Every (top, drawn letter) pair
    has one outcome of ``_right_multiply``: push the letter, replace the top
    by the product, or pop the top.  Tables indexed by top * n + drawn hold
    the cell value written, 1 when it is written above the top, the change
    of depth and the change of weight w[added] - w[removed], so a step is a
    few gathers over the block and each walk's weight adds up as in
    ``simulate``.  The letters are drawn _CHUNK steps at a time, so memory
    is the stacks' _BLOCK * (steps + 1) small ints plus _BLOCK * _CHUNK
    drawn letters, whatever ``reps``.
    """
    n = product.nletters
    streams = _Streams(mu, seed)
    merge = np.vstack([np.full(n, _APART), _merge_array(product)])  # row 0: the empty word
    push = merge == _APART
    added = np.where(push, np.arange(n), merge)
    removed = np.where(push, _CANCEL, np.arange(-1, n)[:, None])
    cell = np.min_scalar_type(n)
    value = (added + 1).astype(cell).ravel()
    width = min(reps, _BLOCK)  # cell d of walk j of a block is stack[d * width + j]
    lift = push.astype(np.intp).ravel() * width
    rise = np.where(push, 1, np.where(merge == _CANCEL, -1, 0)).ravel() * width
    w = np.append(weights if weights is not None else np.zeros(n), 0)  # w[_CANCEL] == 0
    gain = (w[added] - w[removed]).astype(float).ravel()
    row_code = np.arange(n + 1) * n
    out = _Walks(np.empty(reps, dtype=np.intp), np.zeros(reps), np.zeros(reps, dtype=bool),
                 np.zeros((prefix_len, reps), dtype=cell))
    # A walk reads a cell above depth 0 only after writing it, so blocks
    # share one stack and one buffer of drawn letters.
    stack = np.zeros((steps + 1) * width, dtype=cell)
    picks = np.empty((min(steps, _CHUNK), width), dtype=cell)
    for start in range(0, reps, width):
        b = min(width, reps - start)
        at = np.arange(b)  # the cell of each walk's top
        first = at + width
        top = np.zeros(b, dtype=cell)
        block = slice(start, start + b)
        total, hit = out.weight[block], out.hit[block]
        for skip in range(0, steps, _CHUNK):
            chunk = min(_CHUNK, steps - skip)
            for j in range(b):
                picks[:chunk, j] = streams.draw(start + j, chunk, skip)
            for drawn in picks[:chunk, :b]:
                code = row_code[top]
                code += drawn
                stack[at + lift[code]] = value[code]
                at += rise[code]
                top = stack[at]
                if weights is not None:
                    total += gain[code]
                if goal >= 0:
                    hit |= (at == first) & (top == goal + 1)
        out.depth[block] = at // width
        cells = stack.reshape(steps + 1, width)
        out.prefix[: min(prefix_len, steps), block] = cells[1 : prefix_len + 1, :b]
    return out


def estimate_drift(
    product: FreeProduct,
    mu: StepDistribution,
    steps: int,
    reps: int,
    seed: int,
    lengths: LengthTable | None = None,
) -> EstimateReport:
    """Mean of |X_steps|/steps over independent replications, with its stderr."""
    check_sizes(steps, reps)
    table = lengths if lengths is not None else natural_lengths(product)
    values = _lockstep(product, mu, steps, reps, seed, weights=table.weights).weight / steps
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
    check_sizes(horizon, reps)
    goal = product.letter_index(target)
    hits = int(_lockstep(product, mu, horizon, reps, seed, goal=goal).hit.sum())
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
    check_sizes(steps, reps, prefix_len)
    walks = _lockstep(product, mu, steps, reps, seed, prefix_len=prefix_len)
    prefixes = walks.prefix[:, walks.depth >= prefix_len].T - 1
    counts = Counter(map(tuple, prefixes.tolist()))
    kept = counts.total()
    dropped = reps - kept
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
