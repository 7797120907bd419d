"""Independent oracles used by the tests.

``append_letter`` is the group law on letter tuples, one case at a time;
``ball_count`` enumerates the normal-form words of a ball and
``ball_count_bfs`` searches the Cayley graph, two independent checks of
``sphere_series``.  The per-letter loops restate the index tables of the
solver and the additive-drift kernel of the metrics one letter at a time,
and the shift-invariance residuals one normal-form prefix at a time.  Three
more restate a vectorized kernel the slow way and agree with it bit for
bit: the Jacobian of the hitting map accumulated term by term with
``np.add.at``, the growth equation of the volume summed one letter at a
time, and a breadth-first search in a factor run to the end.  The
hitting-probability oracle builds the literal Markov chain on the ball of
a given radius, absorbing at the target letter and killed at the
boundary, and solves the linear hitting system with a sparse direct
solve.  Killing at the boundary biases the value downward by at most the
probability of returning from the sphere, which decays geometrically in
the radius.  ``exact_fixed_point`` solves the hitting map, written one
letter at a time, to far below float precision.  The Monte Carlo
references step one walk at a time through ``_right_multiply``, each from
a freshly keyed Philox generator, as the estimators did before they
stepped all walks together, and map uniforms to letters by a binary
search of the cdf, where the estimators use a guide table.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from freewalk.groups import (
    FiniteGroup,
    FreeProduct,
    LengthTable,
    Letter,
    StateBudgetError,
    Word,
    natural_lengths,
)
from freewalk.harmonic import LetterChain, cylinder_prob
from freewalk.simulate import EstimateReport, PrefixReport, _letters, _merge_table, _right_multiply
from freewalk.traffic import RootVector, StepDistribution, _Structure

# The symmetric group S3 as a multiplication table, identity at index 0.
S3_TABLE = [
    [0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 5, 0, 4, 3, 1],
    [3, 4, 5, 0, 1, 2], [4, 3, 1, 2, 5, 0], [5, 2, 3, 1, 0, 4],
]


def append_letter(product: FreeProduct, letters: tuple[Letter, ...], u: Letter) -> tuple[Letter, ...]:
    """Right-multiply a normal-form letter tuple by one letter."""
    if letters and letters[-1].factor == u.factor:
        merged = product.letter_product(letters[-1], u)
        if merged is None:
            return letters[:-1]
        return letters[:-1] + (merged,)
    return letters + (u,)


def ball_count(
    product: FreeProduct, lengths: LengthTable, n: int, max_states: int = 1_000_000
) -> list[int]:
    """Exact sphere sizes |{g : |g|_S = l}| for l = 0..n, by exhaustive enumeration.

    Enumerates every normal-form word of weighted length <= n (each word is
    a distinct group element).  Raises StateBudgetError beyond ``max_states``
    enumerated words.
    """
    counts = [0] * (n + 1)
    counts[0] = 1
    by_factor: list[list[tuple[int, int]]] = [[] for _ in range(product.nfactors)]
    for u in product.alphabet:
        w = int(lengths.weights[product.letter_index(u)])
        by_factor[u.factor].append((u.factor, w))
    states = 1
    stack: list[tuple[int, int]] = [(f, w) for i in range(product.nfactors) for (f, w) in by_factor[i] if w <= n]
    states += len(stack)
    for _, w in stack:
        counts[w] += 1
    while stack:
        factor, weight = stack.pop()
        for j in range(product.nfactors):
            if j == factor:
                continue
            for _, w in by_factor[j]:
                total = weight + w
                if total <= n:
                    counts[total] += 1
                    states += 1
                    if states > max_states:
                        raise StateBudgetError(
                            f"ball of radius {n} exceeds {max_states} states"
                        )
                    stack.append((j, total))
    return counts


def ball_count_bfs(
    product: FreeProduct, generators: Iterable[Letter], n: int, max_states: int = 1_000_000
) -> list[int]:
    """Sphere sizes by literal breadth-first search on the Cayley graph.

    Independent of the letter-length table: distances here are graph
    distances under right multiplication by the generators.  Used to
    cross-check the per-letter geodesic decomposition.
    """
    gens = list(generators)
    for u in gens:
        product.letter_index(u)
    seen = {(): 0}
    frontier: list[tuple[Letter, ...]] = [()]
    counts = [1]
    for level in range(1, n + 1):
        nxt = []
        for word in frontier:
            for s in gens:
                nw = append_letter(product, word, s)
                if nw not in seen:
                    seen[nw] = level
                    nxt.append(nw)
                    if len(seen) > max_states:
                        raise StateBudgetError(
                            f"BFS ball of radius {n} exceeds {max_states} states"
                        )
        counts.append(len(nxt))
        frontier = nxt
    return counts


def ball_words(product: FreeProduct, radius: int) -> list[tuple[Letter, ...]]:
    words: list[tuple[Letter, ...]] = [()]
    frontier: list[tuple[Letter, ...]] = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            last = w[-1].factor if w else -1
            for u in product.alphabet:
                if u.factor != last:
                    nxt.append(w + (u,))
        words.extend(nxt)
        frontier = nxt
    return words


def hitting_oracle(
    product: FreeProduct,
    mu: StepDistribution,
    target: Letter,
    radius: int,
) -> float:
    """P(walk started at 1 visits ``target`` before leaving the radius ball)."""
    words = ball_words(product, radius)
    index = {w: i for i, w in enumerate(words)}
    n = len(words)
    tgt = index[(target,)]
    support = [(u, p) for u, p in zip(product.alphabet, mu.probs) if p > 0]
    rows, cols, vals = [], [], []
    for w, i in index.items():
        if i == tgt:
            continue
        for u, p in support:
            j = index.get(append_letter(product, w, u))
            if j is not None:
                rows.append(i)
                cols.append(j)
                vals.append(p)
    chain = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    b = np.zeros(n)
    b[tgt] = 1.0  # the target row of I - chain is e_tgt: q(target) = 1
    q = spsolve((sparse.identity(n, format="csr") - chain).tocsc(), b)
    return float(q[index[()]])


def pair_tables_oracle(product: FreeProduct) -> tuple[list[int], list[int], list[int]]:
    """Every in-factor product u * v = a with v nonidentity, as (a, u, v) index lists."""
    pa, pu, pv = [], [], []
    idx = product.letter_index
    for a in product.alphabet:
        for u in product.alphabet[product.factor_slice(a.factor)]:
            if u != a:
                pa.append(idx(a))
                pu.append(idx(u))
                pv.append(idx(product.letter_product(product.letter_inverse(u), a)))
    return pa, pu, pv


def jacobian_oracle(s: _Structure, mu: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Jacobian of the hitting map at q: each term added into a zero matrix with ``np.add.at``."""
    n = s.nletters
    jac = np.zeros((n, n))
    # d/dq(v) of the in-factor convolution terms
    if len(s.pair_a):
        np.add.at(jac, (s.pair_a, s.pair_v), mu[s.pair_u])
    # d/dq(a) of q(a) * back(a)
    jac[np.arange(n), np.arange(n)] += s.outside(mu * q[s.inv_index])
    # d/dq(d) of q(a) * mu(d^-1) q(d) over letters d outside a's factor
    cross = np.not_equal.outer(s.factor_of, s.factor_of)
    jac += cross * np.outer(q, mu[s.inv_index])
    return jac


def growth_equation_oracle(product: FreeProduct, lengths: LengthTable, t: float) -> float:
    """sum_i f_i(t) / (1 + f_i(t)) - 1, each f_i(t) summed one letter at a time."""
    total = 0.0
    for i in range(product.nfactors):
        f = sum(t**w for w in lengths.weights[product.factor_slice(i)].tolist())
        total += f / (1.0 + f)
    return total - 1.0


def factor_distances_oracle(group: FiniteGroup, gens: Iterable[int]) -> dict[int, int]:
    """Word length over gens of every element they reach, by a breadth-first search run to the end."""
    gens = list(gens)
    dist = {0: 0}
    queue = [0]
    for x in queue:
        for g in gens:
            y = group.mul[x][g]
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def exact_fixed_point(product: FreeProduct, mu: StepDistribution) -> np.ndarray:
    """The least fixed point of the hitting map, correctly rounded to floats.

    Newton from zero on the map written one letter at a time, with the
    residual in exact rationals and q kept exact; only the step is solved in
    floats.  The Jacobian of the quadratic map is its exact central
    difference with unit step.  The map uses the float masses of ``mu`` as
    exact rationals, so q is the fixed point for those masses.
    """
    pa, pu, pv = pair_tables_oracle(product)
    inv = [product.letter_index(product.letter_inverse(a)) for a in product.alphabet]
    factor = [a.factor for a in product.alphabet]
    n = product.nletters

    def phi(m, x):
        out = list(m)
        for a, u, v in zip(pa, pu, pv):
            out[a] += m[u] * x[v]
        for a in range(n):
            out[a] += x[a] * sum(m[c] * x[inv[c]] for c in range(n) if factor[c] != factor[a])
        return out

    m_exact = [Fraction(v) for v in mu.probs.tolist()]
    m_float = mu.probs.tolist()
    q = [Fraction(0)] * n
    for _ in range(60):
        residual = [f - x for f, x in zip(phi(m_exact, q), q)]
        if max(abs(r) for r in residual) < Fraction(1, 10**40):
            return np.array([float(x) for x in q])
        base = [float(x) for x in q]
        jac = np.empty((n, n))
        for v in range(n):
            up, down = list(base), list(base)
            up[v] += 1.0
            down[v] -= 1.0
            jac[:, v] = (np.array(phi(m_float, up)) - np.array(phi(m_float, down))) / 2.0
        step = np.linalg.solve(np.eye(n) - jac, np.array([float(r) for r in residual]))
        q = [x + Fraction(d) for x, d in zip(q, step.tolist())]
    raise AssertionError("exact Newton did not converge in 60 steps")
def additive_drift_oracle(
    product: FreeProduct, mu: StepDistribution, r: RootVector, w: np.ndarray
) -> float:
    """Speed of the additive letter functional w, summed step letter by step letter."""
    idx = product.letter_index
    total = 0.0
    for a, p in zip(product.alphabet, mu.probs):
        a_inv = product.letter_inverse(a)
        outside = r.values.sum() - r.values[product.factor_slice(a.factor)].sum()
        change = w[idx(a)] * outside - w[idx(a_inv)] * r[a_inv]
        for b in product.alphabet[product.factor_slice(a.factor)]:
            if b != a_inv:
                change += (w[idx(product.letter_product(a, b))] - w[idx(b)]) * r[b]
        total += p * change
    return total


def tau1_residual_oracle(chain: LetterChain, w: Word) -> float:
    """|nu(w) - sum_v nu(vw)|, one cylinder per one-letter prefix v keeping normal form."""
    total = 0.0
    for v in chain.product.alphabet:
        if v.factor != w[0].factor:
            total += cylinder_prob(chain, Word((v,) + w.letters))
    return abs(cylinder_prob(chain, w) - total)


def tau2_residual_oracle(chain: LetterChain, w: Word) -> float:
    """The two-letter analogue on two factors: v2 opposite to w's first factor, v1 back in it."""
    product = chain.product
    i = w[0].factor
    total = 0.0
    for v1 in product.alphabet[product.factor_slice(i)]:
        for v2 in product.alphabet[product.factor_slice(1 - i)]:
            total += cylinder_prob(chain, Word((v1, v2) + w.letters))
    return abs(cylinder_prob(chain, w) - total)


def letter_reference(mu: StepDistribution, u: np.ndarray) -> np.ndarray:
    """The letter of each uniform u: a binary search of the cdf of mu."""
    cdf = np.cumsum(mu.probs)
    cdf[-1] = 1.0
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def _reference_walk(product: FreeProduct, mu: StepDistribution, steps: int, seed: int, rep: int):
    """Walk (seed, rep) one letter at a time: yields (removed, added, stack) after each step."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, rep], dtype=np.uint64)))
    picks = letter_reference(mu, rng.random(steps))
    merge = _merge_table(product)
    stack: list[int] = []
    for pick in picks.tolist():
        removed, added = _right_multiply(stack, pick, merge)
        yield removed, added, stack


def drift_reference(
    product: FreeProduct,
    mu: StepDistribution,
    steps: int,
    reps: int,
    seed: int,
    lengths: LengthTable | None = None,
) -> EstimateReport:
    table = lengths if lengths is not None else natural_lengths(product)
    weights = table.weights.tolist() + [0]  # weights[_CANCEL] == 0
    values = np.empty(reps)
    for rep in range(reps):
        current = 0.0
        for removed, added, _ in _reference_walk(product, mu, steps, seed, rep):
            current += weights[added] - weights[removed]
        values[rep] = current / steps
    return EstimateReport(
        estimate=float(values.mean()),
        stderr=float(values.std(ddof=1) / math.sqrt(reps)),
        replications=reps,
        horizon=steps,
    )


def hitting_reference(
    product: FreeProduct, mu: StepDistribution, target: Letter, horizon: int, reps: int, seed: int
) -> EstimateReport:
    goal = [product.letter_index(target)]
    hits = 0
    for rep in range(reps):
        for _, _, stack in _reference_walk(product, mu, horizon, seed, rep):
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


def prefix_reference(
    product: FreeProduct, mu: StepDistribution, steps: int, reps: int, seed: int, prefix_len: int
) -> PrefixReport:
    counts: dict[tuple[int, ...], int] = {}
    dropped = 0
    for rep in range(reps):
        stack: list[int] = []
        for _, _, stack in _reference_walk(product, mu, steps, seed, rep):
            pass
        if len(stack) < prefix_len:
            dropped += 1
            continue
        key = tuple(stack[:prefix_len])
        counts[key] = counts.get(key, 0) + 1
    kept = reps - dropped
    freqs = {Word(_letters(product, k)): c / kept for k, c in counts.items()} if kept else {}
    return PrefixReport(frequencies=freqs, dropped=dropped, replications=reps, horizon=steps)
