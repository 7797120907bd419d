"""Independent oracles used by the tests.

The per-letter loops restate the index tables of the solver and the
additive-drift kernel of the metrics one letter at a time, and the
shift-invariance residuals one normal-form prefix at a time.  The
hitting-probability oracle builds the literal Markov chain on the
ball of a given radius, absorbing at the target letter and killed at the
boundary, and solves the linear hitting system by iteration.  Killing at
the boundary biases the value downward by at most the probability of
returning from the sphere, which decays geometrically in the radius.
"""

from __future__ import annotations

import numpy as np

from freewalk.groups import FreeProduct, Letter, Word, append_letter
from freewalk.harmonic import LetterChain, cylinder_prob
from freewalk.traffic import RootVector, StepDistribution


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
    tol: float = 1e-13,
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
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    vals = np.asarray(vals)
    q = np.zeros(n)
    q[tgt] = 1.0
    for _ in range(200_000):
        nq = np.bincount(rows, weights=vals * q[cols], minlength=n)
        nq[tgt] = 1.0
        delta = float(np.max(np.abs(nq - q)))
        q = nq
        if delta < tol:
            break
    return float(q[index[()]])


def pair_tables_oracle(product: FreeProduct) -> tuple[list[int], list[int], list[int]]:
    """Every in-factor product u * v = a with v nonidentity, as (a, u, v) index lists."""
    pa, pu, pv = [], [], []
    idx = product.letter_index
    for a in product.alphabet:
        for u in product.sigma(a.factor):
            if u != a:
                pa.append(idx(a))
                pu.append(idx(u))
                pv.append(idx(product.letter_product(product.letter_inverse(u), a)))
    return pa, pu, pv


def additive_drift_oracle(
    product: FreeProduct, mu: StepDistribution, r: RootVector, w: np.ndarray
) -> float:
    """Speed of the additive letter functional w, summed step letter by step letter."""
    idx = product.letter_index
    total = 0.0
    for a, p in zip(product.alphabet, mu.probs):
        a_inv = product.letter_inverse(a)
        change = w[idx(a)] * r.outside_factor(a.factor) - w[idx(a_inv)] * r[a_inv]
        for b in product.sigma(a.factor):
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
    for v1 in product.sigma(i):
        for v2 in product.sigma(1 - i):
            total += cylinder_prob(chain, Word((v1, v2) + w.letters))
    return abs(cylinder_prob(chain, w) - total)
