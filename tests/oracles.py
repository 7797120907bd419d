"""Independent oracles used by the tests.

``letter_product`` multiplies two letters of one factor through its
multiplication table, and ``append_letter`` is the group law on letter
tuples, one case at a time; neither reads the step tables of
``freewalk.simulate``, the package's one letter action.
``convolution_oracle`` pushes a law forward one word and one letter at
a time.  ``ball_count`` enumerates the normal-form words of a ball and
``ball_count_bfs`` searches the Cayley graph, two independent checks of
``sphere_series``.  The per-letter loops restate the index tables of the
solver and the additive-drift kernel of the metrics one letter at a time,
the shift-invariance residuals one normal-form prefix at a time, and the
mu-invariance residual one cylinder and one letter at a time.  Three
more restate a vectorized kernel the slow way and agree with it bit for
bit: the Jacobian of the hitting map accumulated term by term with
``np.add.at``, the growth equation of the volume summed one letter at a
time, and a breadth-first search in a factor run to the end.  The
hitting-probability oracle builds the literal Markov chain on the ball of
a given radius, absorbing at the target letter and killed at the
boundary, and solves the linear hitting system with a sparse direct
solve.  Killing at the boundary biases the value downward by at most the
probability of returning from the sphere, which decays geometrically in
the radius.  ``stationarity_check`` restates ``SolveReport.stationary``
one factor at a time.  ``pair_tables_reference`` builds the solver's pair
tables for the whole product at once, from one ``np.nonzero`` and the
factors' tables laid end to end, and ``make_finite_group_reference``
validates a table one entry and one triple at a time; the package works
one factor block and one element's slice at a time and must agree with
both exactly.  ``exact_fixed_point`` solves the hitting map,
written one letter at a time, to far below float precision.  The Monte Carlo
references step one walk at a time through ``_right_multiply``, a stack
of letter indices with a merge table built from ``letter_product``, each
walk from a freshly keyed Philox generator, and map uniforms to letters by
a binary search of the cdf, where the estimators use a guide table.
``r_zkzk``, ``r_hecke``, ``r_z2z3`` and ``r_z3z3_sym`` are the printed
closed-form root vectors of four families, checked against the solver.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from freewalk.closedform import eval_F, eval_G, solve_xk, solve_yk
from freewalk.groups import (
    FiniteGroup,
    FreeProduct,
    GroupTableError,
    LengthTable,
    Letter,
    StateBudgetError,
    Word,
    natural_lengths,
)
from freewalk.harmonic import LetterChain, cylinder_prob
from freewalk.simulate import EstimateReport, PrefixReport
from freewalk.traffic import STATIONARY_TOL, RootVector, StepDistribution, _Structure

# The symmetric group S3 as a multiplication table, identity at index 0.
S3_TABLE = [
    [0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 5, 0, 4, 3, 1],
    [3, 4, 5, 0, 1, 2], [4, 3, 1, 2, 5, 0], [5, 2, 3, 1, 0, 4],
]


def letter_product(product: FreeProduct, u: Letter, v: Letter) -> Letter | None:
    """In-factor product of two letters; None when they cancel."""
    if u.factor != v.factor:
        raise ValueError(f"letters {u} and {v} live in different factors")
    e = int(product.factors[u.factor].mul[u.elem, v.elem])
    return None if e == 0 else Letter(u.factor, e)


def append_letter(product: FreeProduct, letters: tuple[Letter, ...], u: Letter) -> tuple[Letter, ...]:
    """Right-multiply a normal-form letter tuple by one letter."""
    if letters and letters[-1].factor == u.factor:
        merged = letter_product(product, letters[-1], u)
        if merged is None:
            return letters[:-1]
        return letters[:-1] + (merged,)
    return letters + (u,)


def convolution_oracle(product: FreeProduct, mu: StepDistribution, n: int) -> dict[Word, float]:
    """The law of X_n, pushed forward one word and one letter at a time into a dict."""
    dist: dict[tuple[Letter, ...], float] = {(): 1.0}
    support = [(u, p) for u, p in zip(product.alphabet, mu.probs) if p > 0.0]
    for _ in range(n):
        out: dict[tuple[Letter, ...], float] = {}
        for word, mass in dist.items():
            for u, p in support:
                nw = append_letter(product, word, u)
                out[nw] = out.get(nw, 0.0) + mass * p
        dist = out
    return {Word(w): p for w, p in dist.items()}


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


def stationarity_check(product: FreeProduct, r: RootVector) -> bool:
    """True when every factor carries first-letter mass 1/|I|, summed one factor at a time.

    For a root vector solving the traffic system this decides whether the
    harmonic measure is stationary (and ergodic) under the one-step shift.
    """
    return all(abs(r.factor_sum(i) - 1.0 / product.nfactors) < STATIONARY_TOL
               for i in range(product.nfactors))


def pair_tables_oracle(product: FreeProduct) -> tuple[list[int], list[int], list[int]]:
    """Every in-factor product u * v = a with v nonidentity, as (a, u, v) index lists."""
    pa, pu, pv = [], [], []
    idx = product.letter_index
    for a in product.alphabet:
        for u in product.alphabet[product.factor_slice(a.factor)]:
            if u != a:
                pa.append(idx(a))
                pu.append(idx(u))
                pv.append(idx(letter_product(product, product.letter_inverse(u), a)))
    return pa, pu, pv


def pair_tables_reference(product: FreeProduct) -> tuple[np.ndarray, ...]:
    """``pair_a``, ``pair_u``, ``pair_v`` and ``pair_flat`` built for the whole product at once.

    One ``np.nonzero`` lists the pairs (a, u) of distinct letters of one
    factor, and v = u^-1 a is read from the factors' multiplication tables
    laid end to end in one ``np.fromiter``.
    """
    n = product.nletters
    same = np.equal.outer(product.factor_of, product.factor_of)
    np.fill_diagonal(same, False)
    a, u = np.nonzero(same)
    factors = product.factors
    tables = np.fromiter(
        itertools.chain.from_iterable(row for g in factors for row in g.mul.tolist()),
        np.intp,
        sum(g.order**2 for g in factors),
    )
    # letter a of factor i (order k, table from ``start``) is element a - base,
    # so entry (inv u, a) sits at start + k (inv_index[u] - base) + a - base
    per_factor, start = [], 0
    for i, g in enumerate(factors):
        k, base = g.order, product.factor_slice(i).start - 1
        per_factor.append((start - base * (k + 1), k, base))
        start += k * k
    offset, order, base = np.repeat(
        np.array(per_factor, dtype=np.intp), [g.order - 1 for g in factors], axis=0
    ).T
    v = base[a] + tables[offset[a] + order[a] * product.inv_index[u] + a]
    return a, u, v, a * n + v


def make_finite_group_reference(table) -> tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(order, mul, inv) of a multiplication table, validated one entry and one triple at a time.

    Raises the GroupTableError of the first violation: the rows and their
    entries in order, then the identity, the inverses and associativity.
    """
    m = len(table)
    if m < 2:
        raise GroupTableError(f"group order must be >= 2, got {m}")
    rows = []
    for a, row in enumerate(table):
        if len(row) != m:
            raise GroupTableError(f"row {a} has length {len(row)}, expected {m}")
        for b, value in enumerate(row):
            if not (isinstance(value, (int, np.integer)) and 0 <= value < m):
                raise GroupTableError(f"entry mul({a},{b})={value!r} outside 0..{m - 1}")
        rows.append(tuple(int(v) for v in row))
    mul = tuple(rows)
    for a in range(m):
        if mul[0][a] != a or mul[a][0] != a:
            raise GroupTableError(f"index 0 is not a two-sided identity at element {a}")
    inv = [-1] * m
    for a in range(m):
        for b in range(m):
            if mul[a][b] == 0 and mul[b][a] == 0:
                inv[a] = b
                break
        if inv[a] < 0:
            raise GroupTableError(f"element {a} has no two-sided inverse")
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    raise GroupTableError(
                        f"associativity fails at ({a},{b},{c}): "
                        f"({a}*{b})*{c}={mul[mul[a][b]][c]} but {a}*({b}*{c})={mul[a][mul[b][c]]}"
                    )
    return m, mul, tuple(inv)


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
            y = int(group.mul[x, g])
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
                change += (w[idx(letter_product(product, a, b))] - w[idx(b)]) * r[b]
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


def mu_invariance_residual(chain: LetterChain, mu: StepDistribution, w: Word) -> float:
    """Residual of mu-invariance of the measure on one cylinder.

    For a cylinder the preimage under the action of a letter reduces to
    finitely many cylinders (prepend / in-factor merge / cancellation), so
    the identity can be checked exactly.
    """
    product = chain.product
    if len(w) == 0:
        raise ValueError("need a nonempty cylinder word")
    head = w[0]
    tail = Word(w.letters[1:])
    total = 0.0
    for a, p in zip(product.alphabet, mu.probs):
        if p == 0.0:
            continue
        acted = 0.0
        # a prepends: the tail of w must follow, with its first letter
        # outside a's factor (automatic for len(w) > 1).
        if a == head:
            if len(w) > 1:
                acted += cylinder_prob(chain, tail)
            else:
                acted += sum(
                    chain.first[product.letter_index(c)]
                    for c in product.alphabet
                    if c.factor != a.factor
                )
        # a merges with the first letter of the tape: that letter must be
        # a^-1 * head, which is a genuine letter exactly when head != a.
        if head.factor == a.factor and head != a:
            b = letter_product(product, product.letter_inverse(a), head)
            acted += cylinder_prob(chain, Word((b,) + tail.letters))
        # a cancels the first tape letter a^-1, exposing w itself.
        if head.factor != a.factor:
            acted += cylinder_prob(chain, Word((product.letter_inverse(a),) + w.letters))
        total += p * acted
    return abs(cylinder_prob(chain, w) - total)


def letter_reference(mu: StepDistribution, u: np.ndarray) -> np.ndarray:
    """The letter of each uniform u: a binary search of the cdf of mu."""
    cdf = np.cumsum(mu.probs)
    cdf[-1] = 1.0
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


_CANCEL = -1  # merge[t][u] when t * u is the identity; also "no letter"
_APART = -2  # merge[t][u] when t and u lie in different factors


@functools.lru_cache(maxsize=1)
def _merge_table(product: FreeProduct) -> tuple[tuple[int, ...], ...]:
    """merge[t][u]: alphabet index of t * u for letters of one factor, else _CANCEL or _APART."""
    def entry(t: Letter, u: Letter) -> int:
        if t.factor != u.factor:
            return _APART
        tu = letter_product(product, t, u)
        return _CANCEL if tu is None else product.letter_index(tu)

    return tuple(tuple(entry(t, u) for u in product.alphabet) for t in product.alphabet)


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


def r_zkzk(k: int) -> list[float]:
    """Per-letter root vector [r(a), r(a^2), ...] = [F_i(x_k)/2]; same for b."""
    xk = solve_xk(k)
    return [float(eval_F(i, xk)) / 2.0 for i in range(1, k)]


def r_hecke(k: int) -> list[float]:
    """Root vector [r(a), r(b), r(b^2), ...] = [G_0(y_k), G_1(y_k), ...]."""
    yk = solve_yk(k)
    return [float(eval_G(i, yk)) for i in range(k)]


def r_z2z3(p: float, q: float) -> tuple[float, float, float]:
    """Root vector (r(a), r(b), r(b^2)) of the Z/2 * Z/3 walk, for p != q.

    The printed expressions carry removable (q - p) denominators; at p = q
    use the solver instead.
    """
    if not (p >= 0 and q >= 0 and p + q < 1):
        raise ValueError("need p, q >= 0 and p + q < 1")
    if abs(p - q) < 1e-12:
        raise ValueError("formulas degenerate at p = q; use the traffic solver")
    d1 = math.sqrt(
        p**4 + q**4 - 2 * p**3 - 2 * q**3 + 2 * p**2 * q**2
        - 6 * p**2 * q - 6 * p * q**2 + 5 * p**2 + 5 * q**2 + 6 * p * q
    )
    d2 = p**2 + q**2 - p * q - 2 * p - 2 * q + 4
    ra = (p**2 + q**2 - 2 * p * q - p - q + 4 - d1) / (2 * d2)
    rb = (q**3 - 3 * q**2 + p**2 * q - 5 * p * q + 2 * p + 6 * q - (2 - q) * d1) / (
        2 * (q - p) * d2
    )
    rb2 = (p**3 - 3 * p**2 + p * q**2 - 5 * p * q + 6 * p + 2 * q - (2 - p) * d1) / (
        2 * (p - q) * d2
    )
    return ra, rb, rb2


def r_z3z3_sym(p: float) -> tuple[float, float]:
    """(r(a), r(a^2)) for the symmetric Z/3 * Z/3 family; r(b) = r(a).

    The 0/0 at p = 1/4 is removable with limit (1/4, 1/4).
    """
    if not 0.0 < p < 0.5:
        raise ValueError("need 0 < p < 1/2")
    if abs(4.0 * p - 1.0) < 1e-9:
        return 0.25, 0.25
    root = math.sqrt(16.0 * p * p - 8.0 * p + 5.0)
    ra = (4.0 * p - 3.0 + root) / (4.0 * (4.0 * p - 1.0))
    ra2 = (4.0 * p + 1.0 - root) / (4.0 * (4.0 * p - 1.0))
    return ra, ra2
