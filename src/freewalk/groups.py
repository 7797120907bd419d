"""Finite groups, their free product, and normal-form words.

Elements of a finite factor are the integers ``0..order-1`` with the
identity fixed at index 0; its multiplication table is a read-only numpy
array of at most GROUP_TABLE_CELLS cells.  A letter is a nonidentity
element of one factor; a word is a sequence of letters in which
consecutive letters come from distinct factors.  Words in this normal
form are in bijection with the elements of the free product, and the
group law is concatenation with simplification at the contact point.
The step tables of ``simulate``, built from the solver's in-factor pair
tables, are the one place that applies it, one letter at a time.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class GroupTableError(ValueError):
    """The supplied multiplication table does not define a group."""


class NonGeneratingSetError(ValueError):
    """A set of letters fails to generate some factor group."""

    def __init__(self, factor: int, message: str | None = None):
        self.factor = factor
        super().__init__(message or f"generators do not span factor {factor}")


class StateBudgetError(RuntimeError):
    """An exhaustive enumeration would exceed the configured state budget."""


class Letter(NamedTuple):
    """Nonidentity element ``elem`` of factor number ``factor``."""

    factor: int
    elem: int

    def __str__(self) -> str:
        return f"{self.factor}:{self.elem}"

    @classmethod
    def parse(cls, text: str) -> "Letter":
        try:
            left, right = text.strip().split(":")
            letter = cls(int(left), int(right))
        except ValueError as exc:
            raise ValueError(f"cannot parse letter {text!r}, expected 'factor:elem'") from exc
        if letter.factor < 0 or letter.elem < 1:
            raise ValueError(f"letter {text!r} out of range")
        return letter


# A factor's multiplication table may hold at most this many cells, order
# 4,096; a larger order is rejected before any table is built
GROUP_TABLE_CELLS = 2**24


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite group given by a multiplication table, identity at index 0.

    ``mul[a, b]`` is the product a * b, in a read-only (order, order) array
    of the least unsigned dtype that holds ``order - 1``; ``inv`` lists the
    inverses.  Two groups are equal, and hash alike, when their tables are
    equal.
    """

    order: int
    mul: np.ndarray
    inv: tuple[int, ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self is other or (self.order == other.order and np.array_equal(self.mul, other.mul))

    def __hash__(self) -> int:
        return hash((self.order, self.mul.tobytes()))


def _check_order(order: int) -> None:
    """Reject a group order whose multiplication table exceeds GROUP_TABLE_CELLS."""
    if order * order > GROUP_TABLE_CELLS:
        raise GroupTableError(
            f"group order {order} needs a table of {order * order} cells, more than the "
            f"{GROUP_TABLE_CELLS} allowed (order at most {math.isqrt(GROUP_TABLE_CELLS)})")


def _frozen_table(values: np.ndarray) -> np.ndarray:
    """``values``, a new table with entries in 0..order-1, read-only in the least unsigned dtype."""
    table = values.astype(np.min_scalar_type(len(values) - 1), copy=False)
    table.flags.writeable = False
    return table


def make_cyclic(k: int) -> FiniteGroup:
    """Cyclic group of order ``k`` in additive notation."""
    if k < 2:
        raise GroupTableError(f"cyclic group needs order >= 2, got {k}")
    _check_order(k)
    elems = np.arange(k, dtype=np.min_scalar_type(2 * k - 2))
    mul = np.add.outer(elems, elems)
    mul %= k
    inv = tuple([(-a) % k for a in range(k)])  # a list, so the tuple is allocated at its size
    return FiniteGroup(order=k, mul=_frozen_table(mul), inv=inv)


def _entry_error(a: int, b: int, value: object, m: int) -> GroupTableError:
    return GroupTableError(f"entry mul({a},{b})={value!r} outside 0..{m - 1}")


def _table_values(rows: list, m: int) -> np.ndarray:
    """Full rows of a table as an array, or the error of their first entry that is not in 0..m-1.

    The entries must be integers (``int``, booleans included, or numpy
    integers); the first bad entry is looked for by rows.
    """
    integer = (int, np.integer)
    if not all(issubclass(t, integer) for t in set(map(type, itertools.chain.from_iterable(rows)))):
        # some entry is not an integer, so some entry is bad: find the first
        for a, row in enumerate(rows):
            for b, value in enumerate(row):
                if not (isinstance(value, integer) and 0 <= value < m):
                    raise _entry_error(a, b, value, m)
    values = np.array(rows).reshape(len(rows), m)
    bad = np.flatnonzero((values < 0) | (values >= m))
    if len(bad):
        a, b = divmod(int(bad[0]), m)
        raise _entry_error(a, b, rows[a][b], m)
    return values


def make_finite_group(table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Validate a multiplication table and return the group it defines.

    The table must be square over ``0..m-1`` with the identity at index 0,
    every element invertible, and the operation associative.  Validation is
    exhaustive and checks in that order, each entry by rows; the first
    violation is reported, for associativity the least violated triple.
    """
    m = len(table)
    if m < 2:
        raise GroupTableError(f"group order must be >= 2, got {m}")
    _check_order(m)
    rows = []
    for row in table:
        if len(row) != m:
            # the entries of the rows above are checked first
            _table_values(rows, m)
            raise GroupTableError(f"row {len(rows)} has length {len(row)}, expected {m}")
        rows.append(row)
    mul = _frozen_table(_table_values(rows, m))
    elems = np.arange(m)
    bad = np.flatnonzero((mul[0] != elems) | (mul[:, 0] != elems))
    if len(bad):
        raise GroupTableError(f"index 0 is not a two-sided identity at element {bad[0]}")
    # b is a two-sided inverse of a where mul[a, b] and mul[b, a] are both 0
    inverse = (mul == 0) & (mul.T == 0)
    missing = np.flatnonzero(~inverse.any(axis=1))
    if len(missing):
        raise GroupTableError(f"element {missing[0]} has no two-sided inverse")
    for a in range(m):
        # (a*b)*c and a*(b*c) for every b and c
        left, right = mul[mul[a]], mul[a][mul]
        bad = np.flatnonzero(left != right)
        if len(bad):
            b, c = divmod(int(bad[0]), m)
            raise GroupTableError(
                f"associativity fails at ({a},{b},{c}): "
                f"({a}*{b})*{c}={left[b, c]} but {a}*({b}*{c})={right[b, c]}"
            )
    return FiniteGroup(order=m, mul=mul, inv=tuple(inverse.argmax(axis=1).tolist()))


def factor_distances(group: FiniteGroup, gens: Iterable[int]) -> dict[int, int]:
    """Word length over ``gens`` of every element of ``group`` that they reach.

    Breadth-first search from the identity under right multiplication; the
    keys are the subgroup that ``gens`` generate.  The identity's
    neighbours are the generators themselves, so the table is read only
    past them, one column per generator.  The search stops as soon as it
    has reached every element, since a breadth-first search never shortens
    a distance once found.
    """
    gens = list(gens)
    dist = {0: 0}
    for g in gens:
        dist.setdefault(g, 1)
    if len(dist) == group.order:
        return dist
    columns = [group.mul[:, g].tolist() for g in gens]  # columns[j][x] = x * gens[j]
    queue = list(dist)[1:]
    for x in queue:  # the queue grows while it is read
        for column in columns:
            y = column[x]
            if y not in dist:
                dist[y] = dist[x] + 1
                if len(dist) == group.order:
                    return dist
                queue.append(y)
    return dist


@dataclass(frozen=True)
class Word:
    """Normal-form element of a free product: alternating-factor letters.

    The empty word is the group unit.  Construction rejects sequences with
    two consecutive letters from the same factor or with identity elements.
    """

    letters: tuple[Letter, ...] = ()

    def __post_init__(self):
        prev = -1
        for u in self.letters:
            if u.elem < 1:
                raise ValueError(f"identity element in word at letter {u}")
            if u.factor == prev:
                raise ValueError(f"consecutive letters share factor {u.factor}: not normal form")
            prev = u.factor

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return ".".join(str(u) for u in self.letters)


EMPTY_WORD = Word(())


class FreeProduct:
    """Free product of at least two finite factors, with its letter alphabet.

    The alphabet lists every nonidentity element of every factor in
    factor-major order; most numeric code in this package indexes vectors
    by position in this alphabet.  Instances are immutable after
    construction and safe to share between threads.
    """

    def __init__(self, factors: Sequence[FiniteGroup]):
        if len(factors) < 2:
            raise ValueError(f"a free product needs at least two factors, got {len(factors)}")
        self.factors: tuple[FiniteGroup, ...] = tuple(factors)
        alphabet: list[Letter] = []
        starts: list[int] = []
        for i, g in enumerate(self.factors):
            starts.append(len(alphabet))
            alphabet.extend(Letter(i, e) for e in range(1, g.order))
        self.alphabet: tuple[Letter, ...] = tuple(alphabet)
        self._starts = tuple(starts) + (len(alphabet),)
        self._index = {u: n for n, u in enumerate(alphabet)}
        self.factor_of = np.array([u.factor for u in alphabet], dtype=np.intp)
        self.inv_index = np.array(
            [self._index[self.letter_inverse(u)] for u in alphabet], dtype=np.intp
        )

    @property
    def nfactors(self) -> int:
        return len(self.factors)

    @property
    def nletters(self) -> int:
        return len(self.alphabet)

    def sigma_size(self, i: int) -> int:
        return self.factors[i].order - 1

    def factor_slice(self, i: int) -> slice:
        return slice(self._starts[i], self._starts[i + 1])

    def letter_index(self, u: Letter) -> int:
        try:
            return self._index[u]
        except KeyError:
            raise ValueError(f"letter {u} is not in the alphabet of this product") from None

    def letter_inverse(self, u: Letter) -> Letter:
        return Letter(u.factor, self.factors[u.factor].inv[u.elem])

    def word(self, letters: Iterable[Letter]) -> Word:
        """Validated Word whose letters all belong to this product."""
        seq = tuple(letters)
        for u in seq:
            if not (0 <= u.factor < self.nfactors):
                raise ValueError(f"letter {u}: no factor {u.factor}")
            if not (1 <= u.elem < self.factors[u.factor].order):
                raise ValueError(f"letter {u}: element out of range for factor {u.factor}")
        return Word(seq)

    def parse_word(self, text: str) -> Word:
        """Parse 'f:e.f:e' (or '1' for the unit) into a Word."""
        text = text.strip()
        if text in ("", "1"):
            return EMPTY_WORD
        return self.word(Letter.parse(part) for part in text.replace(",", ".").split("."))

    def __repr__(self) -> str:
        return "FreeProduct(" + " * ".join(f"G{g.order}" for g in self.factors) + ")"


@functools.lru_cache(maxsize=64, typed=True)
def free_product_of_cyclics(*orders: int) -> FreeProduct:
    """Convenience constructor: Z/k1 * Z/k2 * ... for the given orders.

    Products are immutable, so equal orders share one instance (the 64 most
    recent are kept): a grid of walks built one by one then lies on a
    single product, whose index tables are built once.
    """
    return FreeProduct([make_cyclic(k) for k in orders])


@dataclass(frozen=True)
class LengthTable:
    """Geodesic length of every letter with respect to a generating set S.

    ``weights[i]`` is the length of ``product.alphabet[i]``.  In a free
    product a geodesic for an element of a factor never leaves that factor
    (cross-factor letters in any product can only cancel completely), so
    the length of a word is the sum of its letter lengths.  Any additive
    letter weight fits the same table, e.g. the Green metric -log q with
    float weights.  Float weights suit drift and volume, but not sphere
    counts: ``sphere_series`` needs integer weights of at least 1.
    """

    product: FreeProduct
    weights: np.ndarray


def natural_lengths(product: FreeProduct) -> LengthTable:
    """Length table for the natural generators: every letter has length 1."""
    return LengthTable(product=product, weights=np.ones(product.nletters, dtype=np.int64))


def letter_lengths(product: FreeProduct, generators: Iterable[Letter]) -> LengthTable:
    """Per-letter geodesic lengths over a symmetric generating set.

    ``generators`` must be closed under inverse and must generate every
    factor; lengths are computed by breadth-first search inside each
    factor group.
    """
    gens = set(generators)
    for u in gens:
        product.letter_index(u)  # membership check
        if product.letter_inverse(u) not in gens:
            raise ValueError(f"generating set is not symmetric: {u} present without its inverse")
    weights = np.zeros(product.nletters, dtype=np.int64)
    for i, group in enumerate(product.factors):
        dist = factor_distances(group, [u.elem for u in gens if u.factor == i])
        if len(dist) != group.order:
            raise NonGeneratingSetError(i)
        for e in range(1, group.order):
            weights[product.letter_index(Letter(i, e))] = dist[e]
    return LengthTable(product=product, weights=weights)


def normal_words(product: FreeProduct, max_len: int) -> list[Word]:
    """Every normal-form word of letter count 1..max_len, in generation order."""
    out: list[tuple[Letter, ...]] = []
    frontier: list[tuple[Letter, ...]] = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            last = w[-1].factor if w else -1
            for u in product.alphabet:
                if u.factor != last:
                    nxt.append(w + (u,))
        out.extend(nxt)
        frontier = nxt
    return [Word(w) for w in out]


def sphere_series(product: FreeProduct, lengths: LengthTable, n: int) -> list[int]:
    """Exact sphere sizes for l = 0..n by dynamic programming on normal forms.

    Counts words by (weighted length, factor of last letter), in exact
    integers.  A letter of factor j extends every word that does not end in
    factor j: at each length, all the words counted there less those
    ending in j, where the empty word is the only word of length 0.  The
    tests check it against two independent oracles in ``tests/oracles.py``:
    ``ball_count`` enumerates every normal-form word of the ball, and
    ``ball_count_bfs`` runs a breadth-first search on the Cayley graph.
    Every weight must be an integer of at least 1, else ValueError.
    """
    bad = [w for w in lengths.weights.tolist() if not (w >= 1 and w % 1 == 0)]
    if bad:
        raise ValueError(f"sphere counts need integer letter weights of at least 1, got {bad[0]!r}")
    weights = [int(w) for w in lengths.weights]
    ending = [[0] * product.nfactors for _ in range(n + 1)]
    spheres = []
    for level in range(n + 1):
        total = sum(ending[level]) if level else 1
        spheres.append(total)
        for j in range(product.nfactors):
            extend = total - ending[level][j]
            for w in weights[product.factor_slice(j)]:
                if level + w <= n:
                    ending[level + w][j] += extend
    return spheres
