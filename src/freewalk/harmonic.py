"""The Markovian multiplicative harmonic measure built from a root vector.

The measure on right-infinite normal-form words draws the first letter
from r and each subsequent letter v with probability r(v) normalized over
the letters outside the current factor.  Cylinder masses therefore take
the product form q(u_1) ... q(u_{k-1}) r(u_k) with
q(u) = r(u)/r(Sigma minus u's factor).

In chain terms nu(w_1...w_k) = first[w_1] T[w_1,w_2] ... T[w_{k-1},w_k],
and T vanishes inside a factor, so the m-letter prefixes v that keep vw
normal are exactly the paths that the matrix power T^m counts.  The total
mass they put in front of w therefore factors as

    sum_v nu(v w) = nu(w) (first T^m)[w_1] / first[w_1],

which gives the shift-invariance residuals without enumerating prefixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import FreeProduct, Letter, Word
from .traffic import HittingVector, RootVector, StepDistribution, letter_tables

_LOG_SPACE_CUTOFF = 200


@dataclass(frozen=True)
class LetterChain:
    """First-letter law, letter transition matrix, and its stationary law.

    ``trans[u, v]`` is zero whenever v shares u's factor, so every sampled
    or weighted letter sequence is automatically in normal form.
    """

    product: FreeProduct
    first: np.ndarray
    trans: np.ndarray
    pi: np.ndarray

    def transition(self, u: Letter, v: Letter) -> float:
        return float(self.trans[self.product.letter_index(u), self.product.letter_index(v)])


def build_chain(product: FreeProduct, r: RootVector) -> LetterChain:
    """Letter Markov chain of the harmonic measure associated with r."""
    x = np.asarray(r.values, dtype=float)
    if np.any(x <= 0.0) or abs(x.sum() - 1.0) > 1e-9:
        raise ValueError("root vector must be strictly positive and sum to 1")
    rows = letter_tables(product).outside(x)
    trans = np.where(
        np.not_equal.outer(product.factor_of, product.factor_of),
        x[np.newaxis, :] / rows[:, np.newaxis],
        0.0,
    )
    weights = x * rows
    return LetterChain(product=product, first=x, trans=trans, pi=weights / weights.sum())


def cylinder_prob(chain: LetterChain, w: Word) -> float:
    """Mass of the cylinder of infinite normal words starting with w.

    The empty word denotes the full space.  Long words are accumulated in
    log-space: a product of a few hundred letter probabilities underflows
    double precision.
    """
    k = len(w)
    if k == 0:
        return 1.0
    idx = chain.product.letter_index
    positions = [idx(u) for u in w]
    if k <= _LOG_SPACE_CUTOFF:
        mass = chain.first[positions[0]]
        for a, b in zip(positions, positions[1:]):
            mass *= chain.trans[a, b]
        return float(mass)
    return math.exp(log_cylinder_prob(chain, w))


def log_cylinder_prob(chain: LetterChain, w: Word) -> float:
    """log of cylinder_prob, safe for arbitrarily long words."""
    if len(w) == 0:
        return 0.0
    idx = chain.product.letter_index
    positions = [idx(u) for u in w]
    total = math.log(chain.first[positions[0]])
    for a, b in zip(positions, positions[1:]):
        total += math.log(chain.trans[a, b])
    return total


def two_factor_identity(q: HittingVector) -> float:
    """q(Sigma_1) * q(Sigma_2) for a two-factor product; equals 1 at a solution."""
    if q.product.nfactors != 2:
        raise ValueError("the two-factor identity needs exactly two factors")
    return q.factor_sum(0) * q.factor_sum(1)


def _shift_residual(chain: LetterChain, w: Word, steps: int) -> float:
    """|nu(w) - sum_v nu(vw)| over the normal-form prefixes v of ``steps`` letters."""
    if len(w) == 0:
        raise ValueError("need a nonempty cylinder word")
    reach = chain.first
    for _ in range(steps):
        reach = reach @ chain.trans
    a = chain.product.letter_index(w[0])
    mass = cylinder_prob(chain, w)
    return float(abs(mass - mass * reach[a] / chain.first[a]))


def tau1_invariance_residual(chain: LetterChain, w: Word) -> float:
    """|nu(w...) - sum_v nu(vw...)| over one-letter extensions keeping normal form.

    Vanishes exactly when the measure is shift-invariant (the stationary
    case); strictly positive otherwise.
    """
    return _shift_residual(chain, w, 1)


def tau2_invariance_residual(chain: LetterChain, w: Word) -> float:
    """Residual of two-step shift invariance for a two-factor product.

    Sums the measure of v1 v2 w over the two-letter prefixes that keep the
    word normal; for two factors this forces v2 opposite to w's first
    factor and v1 back in it.  Zero (to rounding) for every harmonic root
    vector on two factors.
    """
    if chain.product.nfactors != 2:
        raise ValueError("two-step shift invariance applies to two-factor products")
    return _shift_residual(chain, w, 2)


def mu_invariance_residual(chain: LetterChain, mu: StepDistribution, w: Word) -> float:
    """Residual of mu-invariance of the measure on one cylinder.

    The harmonic measure is the unique probability on infinite normal
    words fixed by averaging the left letter action over mu.  For a
    cylinder the preimage under the action of a letter reduces to finitely
    many cylinders (prepend / in-factor merge / cancellation), so the
    identity can be checked exactly.
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
            b = product.letter_product(product.letter_inverse(a), head)
            acted += cylinder_prob(chain, Word((b,) + tail.letters))
        # a cancels the first tape letter a^-1, exposing w itself.
        if head.factor != a.factor:
            acted += cylinder_prob(chain, Word((product.letter_inverse(a),) + w.letters))
        total += p * acted
    return abs(cylinder_prob(chain, w) - total)


def sample_harmonic(chain: LetterChain, length: int, seed: int) -> Word:
    """Deterministic sample of a length-n prefix of the harmonic measure.

    First letter from r, then each next letter from the transition row.
    Uses the Philox counter-based generator keyed by the seed, so a fixed
    seed reproduces the identical word on every platform.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    first_cdf = np.cumsum(chain.first)
    row_cdf = np.cumsum(chain.trans, axis=1)
    draws = rng.random(length)
    pos = int(np.searchsorted(first_cdf, draws[0], side="right"))
    pos = min(pos, chain.product.nletters - 1)
    letters = [chain.product.alphabet[pos]]
    for step in range(1, length):
        pos = int(np.searchsorted(row_cdf[pos], draws[step], side="right"))
        pos = min(pos, chain.product.nletters - 1)
        letters.append(chain.product.alphabet[pos])
    return Word(tuple(letters))
