"""The Markovian multiplicative harmonic measure built from a root vector.

The measure on right-infinite normal-form words draws the first letter
from r and each subsequent letter v with probability r(v) normalized over
the letters outside the current factor.  Cylinder masses therefore take
the product form q(u_1) ... q(u_{k-1}) r(u_k) with
q(u) = r(u)/r(Sigma minus u's factor).

In chain terms nu(w_1...w_k) = first[w_1] T[w_1,w_2] ... T[w_{k-1},w_k],
and T vanishes inside a factor, so the two-letter prefixes v that keep vw
normal are exactly the paths that T T counts.  The total mass they put in
front of w therefore factors as

    sum_v nu(v w) = nu(w) (first T T)[w_1] / first[w_1],

which gives the two-step shift-invariance residual without enumerating
prefixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import FreeProduct, Word
from .simulate import _merge_array
from .traffic import HittingVector, RootVector, StepDistribution, letter_tables


@dataclass(frozen=True, eq=False)
class LetterChain:
    """First-letter law, letter transition matrix, and its stationary law.

    ``trans[u, v]`` is zero whenever v shares u's factor, so every sampled
    or weighted letter sequence is automatically in normal form.
    """

    product: FreeProduct
    first: np.ndarray
    trans: np.ndarray
    pi: np.ndarray


def build_chain(product: FreeProduct, r: RootVector) -> LetterChain:
    """Letter Markov chain of the harmonic measure associated with r."""
    x = np.asarray(r.values, dtype=float)
    if np.any(x <= 0.0) or abs(x.sum() - 1.0) > 1e-9:
        raise ValueError("root vector must be strictly positive and sum to 1")
    s = letter_tables(product)
    rows = s.outside(x)
    trans = np.where(s.cross, x[np.newaxis, :] / rows[:, np.newaxis], 0.0)
    weights = x * rows
    return LetterChain(product=product, first=x, trans=trans, pi=weights / weights.sum())


def cylinder_prob(chain: LetterChain, w: Word) -> float:
    """Mass of the cylinder of infinite normal words starting with w.

    The empty word denotes the full space.  The mass is the running product
    first[w_1] T[w_1,w_2] ... T[w_{k-1},w_k], taken left to right.  Every
    factor is at most 1, so the product underflows only where exp of the
    summed logs would too; ``log_cylinder_prob`` gives the logarithm of
    masses below the float range.
    """
    if len(w) == 0:
        return 1.0
    idx = chain.product.letter_index
    positions = [idx(u) for u in w]
    mass = chain.first[positions[0]]
    for a, b in zip(positions, positions[1:]):
        mass *= chain.trans[a, b]
    return float(mass)


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


def max_shift_residual(chain: LetterChain, length: int) -> float:
    """The largest ``tau2_invariance_residual(chain, w)`` over normal words w of 1..length letters.

    For two-factor products, as that residual is; any other product raises
    its ValueError.  Bit-identical to that maximum: the masses of all words
    of k letters form one array first[w_1] T[w_1,w_2] ... T[w_{k-1},w_k],
    multiplied left to right as ``cylinder_prob`` does, and the residual
    takes its operations in the same order.  A word with two letters of one
    factor in a row has mass exactly 0 (T vanishes there) and residual 0,
    so the full arrays give the same maximum as the normal words alone.
    """
    if chain.product.nfactors != 2:
        raise ValueError("two-step shift invariance applies to two-factor products")
    reach, first = chain.first @ chain.trans @ chain.trans, chain.first
    mass = first
    worst = 0.0
    for k in range(length):
        if k:
            mass = mass[..., np.newaxis] * chain.trans
        head = (-1,) + (1,) * k  # broadcast a per-first-letter value over the word
        residual = np.abs(mass - mass * reach.reshape(head) / first.reshape(head))
        worst = max(worst, float(residual.max()))
    return worst


def tau2_invariance_residual(chain: LetterChain, w: Word) -> float:
    """Residual of two-step shift invariance for a two-factor product.

    |nu(w) - sum_v nu(vw)| over the two-letter prefixes v that keep the
    word normal; for two factors this forces v2 opposite to w's first
    factor and v1 back in it.  Zero (to rounding) for every strictly
    positive root vector on two factors, whether or not it solves the
    traffic system: the prefix masses sum to nu(w) for any r.  It
    therefore cannot detect a wrong solve; ``max_mu_invariance_residual``
    can.
    """
    if chain.product.nfactors != 2:
        raise ValueError("two-step shift invariance applies to two-factor products")
    if len(w) == 0:
        raise ValueError("need a nonempty cylinder word")
    reach = chain.first @ chain.trans @ chain.trans
    a = chain.product.letter_index(w[0])
    mass = cylinder_prob(chain, w)
    return float(abs(mass - mass * reach[a] / chain.first[a]))


def max_mu_invariance_residual(chain: LetterChain, mu: StepDistribution, length: int) -> float:
    """The largest mu-invariance residual over the cylinders of 1..length letters.

    The harmonic measure is the unique probability on infinite normal
    words fixed by averaging the left letter action over mu.  The preimage
    of the cylinder of w = head tail under a letter a is one cylinder: the
    tail when a is the head (a prepends; for one letter, every letter
    outside a's factor), (a^-1 head) tail when a shares the head's factor
    (a merges), and a^-1 w otherwise (a cancels).  Each term is a gather
    from the masses of k - 1, k or k + 1 letters, built as in
    ``max_shift_residual``, with a^-1 head read from the step tables'
    ``_merge_array``; the terms are weighted by mu and added in alphabet
    order, as one cylinder at a time would add them.  Words with two
    letters of one factor in a row are masked out.
    """
    product = chain.product
    n = product.nletters
    cross = letter_tables(product).cross
    inv = product.inv_index
    merged = _merge_array(product)[inv]  # merged[a, h] = a^-1 h within a factor
    outside = np.cumsum(np.where(cross, chain.first, 0.0), axis=1)[:, -1]  # summed in order
    masses = [None, chain.first]  # masses[k]: the cylinders of k letters
    for _ in range(length):
        masses.append(masses[-1][..., np.newaxis] * chain.trans)
    normal = np.ones(n, dtype=bool)
    worst = 0.0
    for k in range(1, length + 1):
        pair = (n, n) + (1,) * (k - 1)  # (a, head), broadcast over the tail
        prepend = outside if k == 1 else masses[k - 1]
        term = np.where(np.eye(n, dtype=bool).reshape(pair), prepend,
                        np.where(cross.reshape(pair), masses[k + 1][inv], masses[k][merged]))
        total = np.cumsum(mu.probs.reshape((n,) + (1,) * k) * term, axis=0)[-1]  # a in order
        worst = max(worst, float(np.abs(masses[k] - total)[normal].max()))
        normal = normal[..., np.newaxis] & cross
    return worst
