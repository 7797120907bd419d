"""Finite groups, their free product, and normal-form word arithmetic.

Elements of a finite factor are the integers ``0..order-1`` with the
identity fixed at index 0.  A letter is a nonidentity element of one
factor; a word is a sequence of letters in which consecutive letters come
from distinct factors.  Words in this normal form are in bijection with
the elements of the free product, and the group law is concatenation with
simplification at the contact point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
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


@dataclass(frozen=True)
class FiniteGroup:
    """Finite group given by a multiplication table, identity at index 0."""

    order: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]

    @property
    def identity(self) -> int:
        return 0

    def product(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]


def make_cyclic(k: int) -> FiniteGroup:
    """Cyclic group of order ``k`` in additive notation."""
    if k < 2:
        raise GroupTableError(f"cyclic group needs order >= 2, got {k}")
    mul = tuple(tuple((a + b) % k for b in range(k)) for a in range(k))
    inv = tuple((-a) % k for a in range(k))
    return FiniteGroup(order=k, mul=mul, inv=inv)


def make_finite_group(table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Validate a multiplication table and return the group it defines.

    The table must be square over ``0..m-1`` with the identity at index 0,
    every element invertible, and the operation associative.  Validation is
    exhaustive; the first violated triple is reported.
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
    return FiniteGroup(order=m, mul=mul, inv=tuple(inv))


def subgroup_closure(group: FiniteGroup, generators: Iterable[int]) -> set[int]:
    """Subgroup of ``group`` generated by ``generators`` (indices)."""
    closure = {0}
    frontier = [0]
    gens = [g for g in generators if g != 0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = group.mul[x][g]
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    return closure


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

    def sigma(self, i: int) -> tuple[Letter, ...]:
        return self.alphabet[self._starts[i] : self._starts[i + 1]]

    def factor_slice(self, i: int) -> slice:
        return slice(self._starts[i], self._starts[i + 1])

    def letter_index(self, u: Letter) -> int:
        try:
            return self._index[u]
        except KeyError:
            raise ValueError(f"letter {u} is not in the alphabet of this product") from None

    def letter_inverse(self, u: Letter) -> Letter:
        return Letter(u.factor, self.factors[u.factor].inv[u.elem])

    def letter_product(self, u: Letter, v: Letter) -> Letter | None:
        """In-factor product of two letters; None when they cancel."""
        if u.factor != v.factor:
            raise ValueError(f"letters {u} and {v} live in different factors")
        e = self.factors[u.factor].mul[u.elem][v.elem]
        return None if e == 0 else Letter(u.factor, e)

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


def free_product_of_cyclics(*orders: int) -> FreeProduct:
    """Convenience constructor: Z/k1 * Z/k2 * ... for the given orders."""
    return FreeProduct([make_cyclic(k) for k in orders])


def append_letter(product: FreeProduct, letters: tuple[Letter, ...], u: Letter) -> tuple[Letter, ...]:
    """Right-multiply a normal-form letter tuple by one letter."""
    if letters and letters[-1].factor == u.factor:
        merged = product.letter_product(letters[-1], u)
        if merged is None:
            return letters[:-1]
        return letters[:-1] + (merged,)
    return letters + (u,)


def concat_normalize(product: FreeProduct, w1: Word, w2: Word) -> Word:
    """Group law of the free product: ``w1`` right-multiplied by each letter of ``w2``.

    A cancellation may expose a new same-factor contact for the next letter
    of ``w2``, so the result is in normal form.
    """
    return Word(reduce(partial(append_letter, product), w2.letters, w1.letters))


def left_mul_letter(product: FreeProduct, a: Letter, w: Word) -> tuple[Word, int]:
    """Left-multiply a normal-form word by one letter.

    Returns the product and the letter-count change: +1 when the letter is
    prepended, 0 when it merges into the head, -1 when it cancels the head.
    """
    if not w.letters or w.letters[0].factor != a.factor:
        return Word((a,) + w.letters), +1
    merged = product.letter_product(a, w.letters[0])
    if merged is None:
        return Word(w.letters[1:]), -1
    return Word((merged,) + w.letters[1:]), 0


@dataclass(frozen=True)
class LengthTable:
    """Geodesic length of every letter with respect to a generating set S.

    ``weights[i]`` is the length of ``product.alphabet[i]``.  In a free
    product a geodesic for an element of a factor never leaves that factor
    (cross-factor letters in any product can only cancel completely), so
    the length of a word is the sum of its letter lengths.  Any additive
    letter weight fits the same table, e.g. the Green metric -log q with
    float weights; the accessors return the table's own scalar type.
    """

    product: FreeProduct
    weights: np.ndarray
    generators: tuple[Letter, ...]

    def of(self, u: Letter) -> int | float:
        return self.weights[self.product.letter_index(u)].item()

    def word_weight(self, w: Word) -> int | float:
        idx = self.product.letter_index
        return self.weights[[idx(u) for u in w.letters]].sum().item()

    @property
    def max_weight(self) -> int | float:
        return self.weights.max().item()


def natural_lengths(product: FreeProduct) -> LengthTable:
    """Length table for the natural generators: every letter has length 1."""
    return LengthTable(
        product=product,
        weights=np.ones(product.nletters, dtype=np.int64),
        generators=product.alphabet,
    )


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
        local = [u.elem for u in gens if u.factor == i]
        dist = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for g in local:
                    y = group.mul[x][g]
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        if len(dist) != group.order:
            raise NonGeneratingSetError(i)
        for e in range(1, group.order):
            weights[product.letter_index(Letter(i, e))] = dist[e]
    return LengthTable(product=product, weights=weights, generators=tuple(sorted(gens)))


def ball_count(
    product: FreeProduct, lengths: LengthTable, n: int, max_states: int = 1_000_000
) -> list[int]:
    """Exact sphere sizes |{g : |g|_S = l}| for l = 0..n, by exhaustive enumeration.

    Enumerates every normal-form word of weighted length <= n (each word is
    a distinct group element).  Raises StateBudgetError beyond ``max_states``
    enumerated words; use :func:`sphere_series` for larger radii.
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

    Counts words by (weighted length, factor of last letter); exact integer
    arithmetic, no state explosion.  Agrees with :func:`ball_count` and
    :func:`ball_count_bfs` wherever those are feasible.
    """
    nf = product.nfactors
    letter_weights: list[list[int]] = [[] for _ in range(nf)]
    for u in product.alphabet:
        letter_weights[u.factor].append(int(lengths.weights[product.letter_index(u)]))
    ending = [[0] * nf for _ in range(n + 1)]
    for i in range(nf):
        for w in letter_weights[i]:
            if w <= n:
                ending[w][i] += 1
    for level in range(1, n + 1):
        for i in range(nf):
            c = ending[level][i]
            if not c:
                continue
            for j in range(nf):
                if j == i:
                    continue
                for w in letter_weights[j]:
                    if level + w <= n:
                        ending[level + w][j] += c
    spheres = [sum(row) for row in ending]
    spheres[0] = 1
    return spheres
