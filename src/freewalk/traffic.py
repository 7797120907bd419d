"""Hitting-probability fixed point and the root vector of a walk.

For a nearest-neighbor walk with step law ``mu`` on the letters, the
vector of hitting probabilities ``q(a) = P(some X_n equals a)`` satisfies

    q(a) = mu(a) + sum_{u*v=a} mu(u) q(v)
                 + q(a) * sum_{c outside a's factor} mu(c) q(c^-1),

a polynomial system with nonnegative coefficients.  The right-hand side is
a monotone map whose least fixed point is the hitting vector, and Newton's
method from the zero vector converges to it monotonically (Etessami and
Yannakakis, JACM 2009; Esparza, Kiefer and Luttenberger, SIAM J. Comput.
2010), in at most 7 steps on the walks tried, near-edge walks included.
At q = 0 every term of the map but mu(a) is an exact +0.0, so phi(0) is
mu: a lone walk's Newton loop starts from there and evaluates the map
only at the iterates it accepts.  A step is accepted only when every
entry of its candidate lies in (0,1), which a NaN never does.  The same
solves give kappa = ||(I - J)^-1||_inf >= 1/(1 - rho(J)).  Float
rounding leaves q about eps * kappa from the fixed point, so when that
exceeds the tolerance a few Newton corrections with an exact rational
residual finish the solve.  One confirming step of the map, gated by the
consistency identity below, then accepts or rejects the result.

``solve_batch`` solves a (B, n) stack of step laws on one product in
lockstep: one Newton loop on (B, n) arrays with one stacked linear solve
per step, then the exact finish and the confirming step on the stack.
Each row leaves the loop when it would stop alone, and every sum keeps
the order of additions of a single row, so each row is bit-identical to
its solve alone.  A lone walk, which is what ``solve_walk`` and every
one-row chunk solve, takes one path on 1-D arrays instead, from Newton's
set-up to the root vector (``_solve_row``): the same kernels, exits and
checks, without the stack path's row bookkeeping, which cost a small
lone walk about a tenth of its solve time.  Each path is the faster one
where it runs: 512 rows of Z/2 * Z/3 take 20 to 40 times longer as 512
lone solves than in lockstep.  The row count alone picks the path, and
the tests check that both give every row the same bits and errors.

The root vector of the harmonic measure follows as
``r(a) = q(a) / (1 + q(Sigma_a))``, and the consistency identity
``sum_i q(Sigma_i)/(1+q(Sigma_i)) = 1`` makes r a probability vector.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .groups import FreeProduct, Letter, NonGeneratingSetError, factor_distances

DEFAULT_TOL = 1e-13
MAX_TOL = 1e-10
DEFAULT_MAX_ITER = 10**6
_EPS = float(np.finfo(float).eps)
STATIONARY_TOL = 1e-8
# A chunk of a batch solve holds at most this many floats of Jacobian (512 KiB)
JACOBIAN_FLOATS = 2**16
# Grid searches and sweeps take their points this many at a time, which
# bounds the reports held at once
BATCH_ROWS = 512
# ``letter_tables`` keeps the index tables of recently used products up to
# this many bytes (512 KiB, as much as one chunk's Jacobian).  The tables
# of a product of at most 12 letters take a few KB, so a sweep that
# alternates between a hundred such products builds each once; those of
# 118-126 letters take up to 270 KB, so few large products stay held.
TABLE_BYTES = 2**19


class RecurrentGroupError(ValueError):
    """The free product Z/2 * Z/2 carries no transient nearest-neighbor walk."""


class MaxIterationsError(RuntimeError):
    """Newton ran out of steps or the confirming step failed its gate (near-recurrent walk?)."""


class ConsistencyError(RuntimeError):
    """Solved vector left (0,1): non-transient input or bug."""


# What an invalid or unsolvable walk raises; grid searches skip or tag these.
DOMAIN_ERRORS = (ValueError, MaxIterationsError, ConsistencyError)


# The dataclasses that hold arrays compare by identity (eq=False): a
# generated __eq__ would compare the arrays inside tuples and raise.
@dataclass(frozen=True, eq=False)
class StepDistribution:
    """Step law mu on the letters, indexed by alphabet position."""

    product: FreeProduct
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (self.product.nletters,):
            raise ValueError(f"need {self.product.nletters} probabilities, got shape {p.shape}")
        # A NaN or an infinity makes the sum NaN or infinite, and fmin skips
        # NaNs, so these two reductions pass exactly the laws that the checks
        # below pass; a law that fails them gets the first check's error.
        if not (abs(np.add.reduce(p) - 1.0) <= 1e-12 and np.fmin.reduce(p) >= 0.0):
            if not np.isfinite(p).all():
                raise ValueError("non-finite probability in step distribution")
            if (p < 0.0).any():
                raise ValueError("negative probability in step distribution")
            raise ValueError(f"probabilities sum to {float(p.sum())!r}, not 1")
        object.__setattr__(self, "probs", p)

    def __getitem__(self, u: Letter) -> float:
        return float(self.probs[self.product.letter_index(u)])

    @property
    def support(self) -> tuple[Letter, ...]:
        return tuple(u for u, p in zip(self.product.alphabet, self.probs) if p > 0.0)

    @classmethod
    def from_dict(cls, product: FreeProduct, table: Mapping[Letter, float]) -> "StepDistribution":
        probs = np.zeros(product.nletters)
        for u, p in table.items():
            probs[product.letter_index(u)] = p
        return cls(product, probs)


@dataclass(frozen=True, eq=False)
class _LetterVector:
    """Common accessors for per-letter real vectors (q and r)."""

    product: FreeProduct
    values: np.ndarray

    def __getitem__(self, u: Letter) -> float:
        return float(self.values[self.product.letter_index(u)])

    def factor_sum(self, i: int) -> float:
        return float(self.values[self.product.factor_slice(i)].sum())


@dataclass(frozen=True, eq=False)
class HittingVector(_LetterVector):
    """q(a) = probability of ever visiting the letter a; all entries in (0,1)."""

    def consistency_residual(self) -> float:
        return float(_consistency_residual(letter_tables(self.product), self.values))


@dataclass(frozen=True, eq=False)
class RootVector(_LetterVector):
    """First-letter law r of the harmonic measure; positive, sums to 1."""


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solver output: hitting vector, root vector, the step law solved, and diagnostics.

    ``iterations`` counts the Newton steps plus one, the confirming step
    that the consistency check gates; the corrections with an exact
    residual are not counted.  In a batch each row counts the Newton steps
    it took before it left the batch, the same count as when it is solved
    alone.  ``probs`` is the step law solved, a view like q and r.  The
    three diagnostics are computed from ``probs``, q and r each time they
    are read, so a solve whose diagnostics nobody reads pays for none.
    """

    q: HittingVector
    r: RootVector
    iterations: int
    probs: np.ndarray

    @property
    def sup_residual(self) -> float:
        """max |phi(q) - q|, the hitting map's move at the solved q."""
        q = self.q.values
        return float(_sup_norm(_phi_array(letter_tables(self.q.product), self.probs, q) - q))

    @property
    def traffic_residual(self) -> float:
        """Sup-norm residual of the traffic polynomial system at r."""
        return float(_traffic_residual(letter_tables(self.q.product), self.probs, self.r.values))

    @property
    def stationary(self) -> bool:
        """Whether every factor carries mass 1/(number of factors) of r, to STATIONARY_TOL."""
        return bool(_stationary(letter_tables(self.q.product), self.r.values))


def _shifted(index: np.ndarray, width: int, rows: int) -> np.ndarray:
    """The index table ``index`` for a flattened stack of ``rows`` rows.

    Row r's copy is shifted by r times ``width``, the length of the axis
    it indexes (factors, letters or matrix entries), so it indexes row r of
    the stack.  One row takes the table itself; a stack's copies are built
    per call.  The test is ``rows == 1``, since a stack may have no rows.
    """
    if rows == 1:
        return index
    return (index + width * np.arange(rows)[:, None]).ravel()


def _bincount(index: np.ndarray, weights: np.ndarray, width: int) -> np.ndarray:
    """``np.bincount`` of ``index`` with each row of ``weights``, in one call.

    Each bin takes the same additions, in the same order, as a bincount
    of its row alone.
    """
    if weights.ndim == 1:
        return np.bincount(index, weights, width)
    rows = len(weights)
    return np.bincount(_shifted(index, width, rows), weights.ravel(), rows * width).reshape(rows, width)


class _Structure:
    """Index tables for the vectorized hitting map of one product.

    ``(pair_a[m], pair_u[m], pair_v[m])`` lists every in-factor product
    u * v = a of two letters, ordered by a, then u.  Each (a, v) has
    exactly one u = a * v^-1, so ``pair_flat``, the flat indices of the
    entries (a, v) of an n x n matrix, has no repeats; with the diagonal
    it covers every in-factor entry.  ``cross``
    masks the entries whose two letters lie in different factors.  The
    tables are fixed once built; a stack of rows reads them through
    ``_shifted``.
    """

    def __init__(self, product: FreeProduct):
        n = product.nletters
        self.cross = np.ones((n, n), dtype=bool)
        # per factor, its diagonal block of cross, and every (a, u) of two
        # distinct letters, by a then u (u = a would leave v the identity),
        # and v = u^-1 * a from its table; the letter at alphabet index
        # base + e is element e of the factor.  A factor of order 2 has one
        # letter, so no pair.
        none = np.zeros(0, dtype=np.intp)
        pair_a, pair_u, pair_v = [none], [none], [none]
        for i, g in enumerate(product.factors):
            block = product.factor_slice(i)
            self.cross[block, block] = False
            k = g.order - 1
            if k == 1:
                continue
            start = block.start
            base = start - 1
            # m runs over the factor's k (k - 1) pairs shifted by start (k - 1),
            # so a = m // (k - 1) is a's alphabet index; u is then the j-th
            # letter of the factor other than a, j = m - a (k - 1)
            m = np.arange(start * (k - 1), (start + k) * (k - 1))
            a = m // (k - 1)
            u = m + start - a * (k - 1)
            u += u >= a
            # the flat index of (u^-1, a) in the factor's table
            flat = product.inv_index.take(u) * g.order + (a - base * (g.order + 1))
            # added in intp: a uint8 table would wrap
            v = np.add(g.mul.ravel().take(flat), base, out=flat, dtype=np.intp)
            pair_a.append(a)
            pair_u.append(u)
            pair_v.append(v)
        self.pair_a, self.pair_u, self.pair_v = map(np.concatenate, (pair_a, pair_u, pair_v))
        self.pair_flat = self.pair_a * n + self.pair_v
        self.inv_index = product.inv_index
        self.factor_of = product.factor_of
        self.nletters = n
        self.nfactors = product.nfactors
        # the bytes of the arrays built here, headers included, for the budget
        # of ``letter_tables``; inv_index and factor_of are the product's
        self.nbytes = sum(map(sys.getsizeof, (self.cross, self.pair_a, self.pair_u, self.pair_v,
                                              self.pair_flat)))

    def factor_sums(self, x: np.ndarray) -> np.ndarray:
        """Per factor i, the total of x over the letters of factor i (per row of a stack)."""
        return _bincount(self.factor_of, x, self.nfactors)

    def pair_sums(self, x: np.ndarray) -> np.ndarray:
        """Per letter a, the total of x over the pairs u * v = a (per row of a stack)."""
        return _bincount(self.pair_a, x, self.nletters)

    def outside(self, x: np.ndarray) -> np.ndarray:
        """Per letter a, the total of x over the letters outside a's factor (per row of a stack)."""
        total = np.add.reduce(x, axis=-1, keepdims=True)
        return total - self.factor_sums(x).take(self.factor_of, axis=-1)


# The index tables that ``letter_tables`` keeps, least recently used first,
# and the sum of their ``nbytes``
_tables: dict[FreeProduct, _Structure] = {}
_tables_bytes = 0
_tables_lock = threading.Lock()


def letter_tables(product: FreeProduct) -> _Structure:
    """The index tables of ``product``, kept for the most recently used products.

    A solve and the metrics of its walk share one build, and a caller that
    alternates between products builds each product's tables once.  A hit
    moves the product to the newest end; a miss builds its tables, then
    drops the least recently used products until the kept tables fit in
    TABLE_BYTES, but never the newest.  Products are keyed by identity and
    kept alive with their tables.  The lock keeps the order whole under
    threads; two threads that miss on one product at once may both build,
    and the first build is kept, as with ``functools.lru_cache``.
    ``letter_tables.cache_clear()`` drops every kept table.
    """
    global _tables_bytes
    with _tables_lock:
        s = _tables.pop(product, None)
        if s is not None:
            _tables[product] = s
            return s
    built = _Structure(product)
    with _tables_lock:
        s = _tables.setdefault(product, built)
        if s is built:
            _tables_bytes += s.nbytes
            while _tables_bytes > TABLE_BYTES and len(_tables) > 1:
                _tables_bytes -= _tables.pop(next(iter(_tables))).nbytes
    return s


def _clear_tables() -> None:
    global _tables_bytes
    with _tables_lock:
        _tables.clear()
        _tables_bytes = 0


letter_tables.cache_clear = _clear_tables


# The kernels below take one vector or a (B, n) stack of row vectors, and
# give each row the same float operations as the row alone.

def _back(s: _Structure, mu: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per letter a, the sum of mu(c) q(c^-1) over letters c outside a's factor."""
    return s.outside(mu * q.take(s.inv_index, axis=-1))


def _phi_array(s: _Structure, mu: np.ndarray, q: np.ndarray, back: np.ndarray | None = None,
               mu_pair: np.ndarray | None = None, pairs: tuple | None = None) -> np.ndarray:
    """The hitting map at q.

    ``back`` is ``_back(s, mu, q)`` and ``mu_pair`` is mu at the pairs'
    first letters, when the caller already has them.  ``pairs``, a pair
    of tables (pair_a, pair_v), restricts the pair sums to some of the
    pairs, with ``mu_pair`` given at their first letters; a pair whose
    mu(u) is 0 adds a zero to a sum of nonnegative terms, which changes
    nothing, so leaving out only such pairs keeps every bit.
    """
    if back is None:
        back = _back(s, mu, q)
    out = mu + q * back
    pair_a, pair_v = (s.pair_a, s.pair_v) if pairs is None else pairs
    if len(pair_a):
        if mu_pair is None:
            mu_pair = mu.take(s.pair_u, axis=-1)
        out += _bincount(pair_a, mu_pair * q.take(pair_v, axis=-1), s.nletters)
    return out


def _sup_norm(x: np.ndarray):
    """max |x| along the last axis (per row of a stack)."""
    return np.maximum.reduce(np.abs(x), axis=-1)


def _consistency_residual(s: _Structure, q: np.ndarray):
    sums = s.factor_sums(q)
    return abs(np.add.reduce(sums / (1.0 + sums), axis=-1) - 1.0)


def _i_minus_j(s: _Structure, q: np.ndarray, back: np.ndarray, neg_inv: np.ndarray,
               neg_pair: np.ndarray, matrices: np.ndarray | None = None) -> np.ndarray:
    """I - J at q, J the Jacobian of the hitting map (per row of a stack).

    ``back`` is ``_back(s, mu, q)``, ``neg_inv`` is 0.0 - mu(inv) per
    letter and ``neg_pair`` 0.0 - mu at the pairs' first letters, so each
    entry is the float of eye - J: -q(a) mu(d^-1) for d outside a's
    factor, -mu(u) at (a, v) for u * v = a, and 1 - back(a) on the
    diagonal.  Where q is 0 an off-factor entry is -0.0 where eye - J
    holds 0.0; no nonzero number of a solve depends on the sign of a zero
    entry.  The entries -mu(u) depend on mu alone: they are written into
    a new stack when ``matrices`` is None, and a caller that passes the
    stack of its last call, for the same laws, has only the entries that
    depend on q rewritten in it.  The diagonal is written through a
    strided view, every (n + 1)-th entry of each flattened matrix, so the
    stack must be C-contiguous, as ``np.empty`` and a boolean selection of
    rows make it: the reshape of any other stack would be a copy.
    """
    n = s.nletters
    if matrices is None:
        # the pair entries and the diagonal cover every in-factor entry
        matrices = np.empty(q.shape + (n,))
        rows = 1 if q.ndim == 1 else len(q)
        matrices.reshape(-1)[_shifted(s.pair_flat, n * n, rows)] = neg_pair.ravel()
    np.multiply(q[..., :, None], neg_inv[..., None, :], out=matrices, where=s.cross)
    np.subtract(1.0, back, out=matrices.reshape(q.shape[:-1] + (n * n,))[..., :: n + 1])
    return matrices


def _root(s: _Structure, q: np.ndarray) -> np.ndarray:
    return q / (1.0 + s.factor_sums(q).take(s.factor_of, axis=-1))


def _traffic_residual(s: _Structure, p: np.ndarray, x: np.ndarray):
    outside = s.outside(x)
    rhs = p * outside
    if len(s.pair_a):
        rhs += s.pair_sums(p.take(s.pair_u, axis=-1) * x.take(s.pair_v, axis=-1))
    rhs += x * s.outside(p.take(s.inv_index, axis=-1) * x / outside)
    return _sup_norm(x - rhs)


def _stationary(s: _Structure, r: np.ndarray):
    return _sup_norm(s.factor_sums(r) - 1.0 / s.nfactors) < STATIONARY_TOL


def check_tolerance(tol: float) -> None:
    """Reject a solver tolerance outside (0, MAX_TOL]: 0, negative, NaN, inf or coarse.

    The solver accepts a root vector whose sum is off by up to 10 tol, and
    ``harmonic.build_chain`` demands 1e-9, so 1e-10 is the coarsest
    tolerance whose solution every downstream check accepts.
    """
    if not 0.0 < tol <= MAX_TOL:
        raise ValueError(f"tolerance must be in (0, {MAX_TOL:g}], got {tol!r}")


def _support_error(product: FreeProduct, support: np.ndarray) -> ValueError | None:
    """What ``validate_walk`` raises for a step law with this support (a mask), or None."""
    on = support.tolist()
    for i, group in enumerate(product.factors):
        # letter e of factor i sits at alphabet index start_i + e - 1
        gens = [e for e, flag in enumerate(on[product.factor_slice(i)], 1) if flag]
        if len(factor_distances(group, gens)) != group.order:
            return NonGeneratingSetError(i, f"support of mu does not generate factor {i}")
    if product.nfactors == 2 and all(g.order == 2 for g in product.factors):
        return RecurrentGroupError("walks on Z/2 * Z/2 are recurrent; no harmonic measure")
    return None


def validate_walk(product: FreeProduct, mu: StepDistribution) -> None:
    """Reject walks that are not transient random walks on the whole group.

    Each factor must be generated (as a group) by the supported letters it
    contains, and the product must not be Z/2 * Z/2, whose nearest-neighbor
    walks are all recurrent.
    """
    if mu.product is not product:
        raise ValueError("step distribution belongs to a different product")
    error = _support_error(product, mu.probs > 0.0)
    if error is not None:
        raise error


def _row_errors(product: FreeProduct, p: np.ndarray) -> list[ValueError | None]:
    """Per row of p, what ``StepDistribution`` or ``validate_walk`` raises for it, or None.

    The checks run on the whole stack; a flagged row is rebuilt as a
    ``StepDistribution`` for its exact error, and the support check runs
    once per distinct support.
    """
    # a NaN, an infinity, a negative mass or an empty support fails one of these
    flagged = ~(p >= 0.0).all(axis=1) | (np.abs(p.sum(axis=1) - 1.0) > 1e-12)
    errors: list[ValueError | None] = [None] * len(p)
    for i in np.flatnonzero(flagged).tolist():
        try:
            StepDistribution(product, p[i])
        except ValueError as exc:
            errors[i] = exc
    support = p > 0.0
    by_support: dict[bytes, ValueError | None] = {}
    for i, error in enumerate(errors):
        if error is None:
            key = support[i].tobytes()
            if key not in by_support:
                by_support[key] = _support_error(product, support[i])
            errors[i] = by_support[key]
    return errors


def _mu_parts(s: _Structure, p: np.ndarray):
    """The parts of phi and I - J that depend on mu alone: (pair, pairs, neg_pair, neg_inv).

    p is one row or a stack of rows.  ``neg_pair`` and ``neg_inv`` are
    0.0 - mu at every pair's first letter and at each letter's inverse.
    phi's pair sums take only the pairs whose u some row steps to (see
    ``_phi_array``), as a walk on a few generators of large factors steps
    to few of them: ``pairs`` is their (pair_a, pair_v), or None for all,
    and ``pair`` is mu at their u.
    """
    pair = p.take(s.pair_u, axis=-1)
    neg_pair, neg_inv = 0.0 - pair, 0.0 - p.take(s.inv_index, axis=-1)
    pairs = None
    if np.count_nonzero(pair) < pair.size:
        stepped = np.flatnonzero(pair if pair.ndim == 1 else np.logical_or.reduce(pair, axis=0))
        pairs, pair = (s.pair_a.take(stepped), s.pair_v.take(stepped)), pair.take(stepped, axis=-1)
    return pair, pairs, neg_pair, neg_inv


def _newton(s: _Structure, p: np.ndarray, tol: float, max_iter: int):
    """Newton's method from q = 0 on q = phi(q), for every row of p; returns (q, phi(q), steps, kappa).

    Each step solves (I - J)[delta, x] = [phi(q) - q, 1] for all rows
    still stepping in one stacked call, one LAPACK solve per matrix, so a
    row's bits do not depend on the rows beside it.  As J >= 0 has
    spectral radius below 1, kappa = max(x) = ||(I - J)^-1||_inf, and
    rounding leaves q about eps * kappa from the fixed point.  A row stops
    once its sup residual is at most tol/100 or stops falling, or once its
    candidate leaves (0,1) or holds a NaN, as after a singular step, which
    leaves it to the confirming step.  Each step ORs the two tests into
    one stop mask, and the solve is skipped only when every row stops on
    its residual.  back and phi are evaluated once at q = 0, a cost that
    the rows of the stack share (the lone loop starts from their exact
    values there), and then once per accepted candidate, at the end of
    the step.
    A stopping row leaves with its current q, phi at that q, its step
    count and its last x, whichever test stopped it; the others go on
    without it, so each row takes the steps it would take alone.  A row
    that runs out of steps leaves with the phi of its last step.  kappa
    is NaN for a row that took no step.  The stack of I - J is kept
    from step to step, so its entries that depend on mu alone are written
    once (see ``_i_minus_j``), and phi sums only over the pairs whose
    first letter some row steps to.  ``_solve`` gives it stacks of two or
    more rows; a lone row takes ``_newton_row``.
    """
    floor = 0.01 * tol
    pair, pairs, neg_pair, neg_inv = _mu_parts(s, p)
    rows, n = p.shape
    q, phi = np.zeros((rows, n)), np.zeros((rows, n))
    steps = np.zeros(rows, dtype=np.intp)
    kappa = np.full(rows, math.nan)
    rhs = np.ones((rows, n, 2))
    # the rows still stepping: their indices, step laws, iterates, last sup
    # residuals, last solutions x (NaN before the first step), I - J, and
    # back and phi at their iterates
    live, pl, ql, last, xl = np.arange(rows), p, q, np.full(rows, math.inf), np.full((rows, n), math.nan)
    matrices, back = None, _back(s, p, q)
    phil = _phi_array(s, p, q, back, pair, pairs)

    def leave(mask, taken):
        out = live[mask]
        q[out], phi[out], steps[out], kappa[out] = ql[mask], phil[mask], taken, xl[mask].max(axis=1)
        return ~mask

    for taken in range(max_iter):
        b = len(live)
        sup = _sup_norm(np.subtract(phil, ql, out=rhs[:b, :, 0]))
        stop = (sup <= floor) | (sup >= last)
        if np.count_nonzero(stop) < b:  # some row goes on: solve for every row
            matrices = _i_minus_j(s, ql, back, neg_inv, neg_pair, matrices)
            try:
                sol = np.linalg.solve(matrices, rhs[:b])
            except np.linalg.LinAlgError:
                sol = _solve_each(matrices, rhs[:b])
            candidate = ql + sol[:, :, 0]
            outside = ~((candidate > 0.0) & (candidate < 1.0))
            if np.count_nonzero(outside):
                stop |= outside.any(axis=1)
        if np.count_nonzero(stop):
            keep = leave(stop, taken)
            if not keep.any():
                return q, phi, steps, kappa
            live, pl, candidate, sol, sup = live[keep], pl[keep], candidate[keep], sol[keep], sup[keep]
            pair, neg_pair, neg_inv, matrices = pair[keep], neg_pair[keep], neg_inv[keep], matrices[keep]
        ql, xl, last = candidate, sol[:, :, 1], sup
        back = _back(s, pl, ql)
        phil = _phi_array(s, pl, ql, back, pair, pairs)
    leave(np.ones(len(live), dtype=bool), max_iter)
    return q, phi, steps, kappa


def _newton_row(s: _Structure, p: np.ndarray, tol: float, max_iter: int):
    """``_newton`` on one row p, stepped on 1-D arrays: the row's (q, phi(q), steps, kappa).

    The kernels, their order and the exits are the lockstep loop's, with
    scalar tests and without its row bookkeeping: a singular step stops
    the row where the lockstep loop's infinite candidate would, and one
    min and one max test the candidate's range (a NaN fails it).  The
    loop starts from the map's exact values at q = 0, where back is +0.0
    and phi(0) is mu (a -0.0 mass comes out +0.0, as mu + 0.0 gives it),
    so it evaluates back and phi only at the candidates it accepts; the
    budget exit returns the last of these.  steps is an int and kappa a
    float, NaN when no step was solved.
    """
    pair, pairs, neg_pair, neg_inv = _mu_parts(s, p)
    floor = 0.01 * tol
    n = len(p)
    q, last, x = np.zeros(n), math.inf, np.full(n, math.nan)
    back, phi = np.zeros(n), p + 0.0
    rhs, matrix = np.ones((n, 2)), None
    for taken in range(max_iter):
        sup = _sup_norm(np.subtract(phi, q, out=rhs[:, 0]))
        if sup <= floor or sup >= last:
            break
        matrix = _i_minus_j(s, q, back, neg_inv, neg_pair, matrix)
        try:
            sol = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError:
            break
        candidate = q + sol[:, 0]
        if not (0.0 < np.minimum.reduce(candidate) and np.maximum.reduce(candidate) < 1.0):
            break
        q, x, last = candidate, sol[:, 1], sup
        back = _back(s, p, q)
        phi = _phi_array(s, p, q, back, pair, pairs)
    else:
        taken = max_iter
    return q, phi, taken, x.max()


def _solve_each(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The stacked solve one matrix at a time, for a stack with a singular matrix.

    A singular matrix gets an infinite solution, so its row's candidate
    leaves (0,1) and the row stops.
    """
    sol = np.full(rhs.shape, math.inf)
    for i in range(len(rhs)):
        try:
            sol[i] = np.linalg.solve(matrices[i], rhs[i])
        except np.linalg.LinAlgError:
            pass
    return sol


def _dyadic(x: np.ndarray) -> tuple[np.ndarray, int]:
    """The floats x as Python integers over one power of two: (numerators, exponent)."""
    ratios = [v.as_integer_ratio() for v in x.tolist()]
    bits = max(d.bit_length() for _, d in ratios)
    return np.array([m << (bits - d.bit_length()) for m, d in ratios], dtype=object), bits - 1


def _exact_residual(s: _Structure, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """phi(q) - q computed exactly from the floats p and q, then rounded.

    With p = m / 2^a and q = x / 2^b in integers, every term of phi(q) - q
    is an integer over 2^(a + 2b), so the sums are exact; each entry is
    then one ``int / int`` division, which rounds correctly, as
    ``Fraction.__float__`` does.
    """
    (m, a), (x, b) = _dyadic(p), _dyadic(q)
    back = m * x[s.inv_index]
    sums = np.zeros(s.nfactors, dtype=object)
    np.add.at(sums, s.factor_of, back)
    out = (m << 2 * b) + x * (back.sum() - sums[s.factor_of]) - (x << (a + b))
    np.add.at(out, s.pair_a, (m[s.pair_u] * x[s.pair_v]) << b)
    scale = 1 << (a + 2 * b)
    return np.array([v / scale for v in out.tolist()])


def _exact_finish(s: _Structure, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """At most 3 Newton corrections of one row whose residual is exact; stops once q stays put.

    A float residual is itself off by about eps, which (I - J)^-1 amplifies
    by kappa; the exact residual removes that floor.
    """
    neg_inv, neg_pair = 0.0 - p[s.inv_index], 0.0 - p[s.pair_u]
    matrix = None
    for _ in range(3):
        matrix = _i_minus_j(s, q, _back(s, p, q), neg_inv, neg_pair, matrix)
        candidate = q + np.linalg.solve(matrix, _exact_residual(s, p, q))
        if np.array_equal(candidate, q) or not (
                0.0 < np.minimum.reduce(candidate) and np.maximum.reduce(candidate) < 1.0):
            break
        q = candidate
    return q


def _unconfirmed(iterations, change, consistency, kappa) -> MaxIterationsError:
    """The error of a row whose confirming step failed its gate."""
    return MaxIterationsError(
        f"no convergence after {iterations} iterations: last change {change:.3e},"
        f" consistency residual {consistency:.3e} (condition number {kappa:.3e})")


_LEFT_RANGE = "hitting probabilities left (0,1): walk is not transient"


def _solve_rows(product: FreeProduct, s: _Structure, p: np.ndarray, tol: float,
                max_iter: int) -> list:
    """Solve every row of p, a stack of valid step laws; one SolveReport or error per row.

    After Newton and the exact finish, one confirming step of the hitting
    map accepts a row when it moves the row by less than tol and the
    consistency identity then holds to 10 tol; near the recurrent boundary
    a small step no longer implies proximity to the fixed point, hence the
    identity.  Any other row fails at once, so only the bounds of q remain
    to check.
    """
    q, step, iterations, kappa = _newton(s, p, tol, max_iter)
    finish = np.flatnonzero(_EPS * kappa > tol)
    if len(finish):
        for i in finish.tolist():
            q[i] = _exact_finish(s, p[i], q[i])
        step[finish] = _phi_array(s, p[finish], q[finish])
    change = _sup_norm(step - q)
    q, iterations = step, iterations + 1
    consistency = _consistency_residual(s, q)
    errors: dict[int, Exception] = {
        i: _unconfirmed(iterations[i], change[i], consistency[i], kappa[i])
        for i in np.flatnonzero(~((change < tol) & (consistency <= 10.0 * tol))).tolist()
    }
    for i in np.flatnonzero(((q >= 1.0 - tol) | (q <= 0.0)).any(axis=1)).tolist():
        errors.setdefault(i, ConsistencyError(_LEFT_RANGE))
    outcomes: list = [errors.get(i) for i in range(len(p))]
    ok = [i for i in range(len(p)) if i not in errors]
    if errors:
        p, q = p[ok], q[ok]
    r = _root(s, q)
    for j, i in enumerate(ok):
        outcomes[i] = SolveReport(q=HittingVector(product, q[j]), r=RootVector(product, r[j]),
                                  iterations=int(iterations[i]), probs=p[j])
    return outcomes


def _solve_row(product: FreeProduct, s: _Structure, p: np.ndarray, tol: float,
               max_iter: int) -> SolveReport | Exception:
    """``_solve_rows`` on one valid step law p, on 1-D arrays: the outcome it gives that row.

    ``_newton_row``, the exact finish, the confirming step with its gate
    and the (0,1) check run on the stack path's kernels, in its order, so
    the report's bits and the error's type and message are the stack row's.
    """
    q, step, steps, kappa = _newton_row(s, p, tol, max_iter)
    if _EPS * kappa > tol:
        q = _exact_finish(s, p, q)
        step = _phi_array(s, p, q)
    change = _sup_norm(step - q)
    consistency = _consistency_residual(s, step)
    if not (change < tol and consistency <= 10.0 * tol):
        return _unconfirmed(steps + 1, change, consistency, kappa)
    if not (0.0 < np.minimum.reduce(step) and np.maximum.reduce(step) < 1.0 - tol):
        return ConsistencyError(_LEFT_RANGE)
    return SolveReport(q=HittingVector(product, step), r=RootVector(product, _root(s, step)),
                       iterations=steps + 1, probs=p)


def _solve(product: FreeProduct, p: np.ndarray, errors: list, tol: float,
           max_iter: int) -> list[SolveReport | Exception]:
    """Solve the rows of p whose entry in ``errors`` is None, in chunks; fill in their outcomes.

    A chunk of one row, as ``solve_walk`` gives, takes ``_solve_row`` on
    1-D arrays, without the stack path's row bookkeeping; a chunk of two
    or more rows takes ``_solve_rows``, the lockstep path, which is much
    faster there.  The row count alone picks the path, and both give a row
    the same bits.  A tolerance outside (0, MAX_TOL] or a ``max_iter``
    below 1 raises ValueError.
    """
    check_tolerance(tol)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    outcomes = list(errors)
    valid = [i for i, error in enumerate(errors) if error is None]
    s = letter_tables(product)
    size = chunk_rows(product.nletters)
    for start in range(0, len(valid), size):
        rows = valid[start:start + size]
        if len(rows) == 1:
            outcomes[rows[0]] = _solve_row(product, s, p[rows[0]], tol, max_iter)
            continue
        chunk = p if len(rows) == len(p) else p[rows]
        for i, outcome in zip(rows, _solve_rows(product, s, chunk, tol, max_iter)):
            outcomes[i] = outcome
    return outcomes


def q_to_r(q: HittingVector) -> RootVector:
    """Root vector r(a) = q(a) / (1 + q(Sigma_a)); entries sum to 1."""
    return RootVector(q.product, _root(letter_tables(q.product), np.asarray(q.values, dtype=float)))


def traffic_residual(product: FreeProduct, mu: StepDistribution, r: RootVector) -> float:
    """Sup-norm residual of the traffic polynomial system at r (0 at the solution)."""
    return float(_traffic_residual(letter_tables(product), mu.probs,
                                   np.asarray(r.values, dtype=float)))


def chunk_rows(nletters: int) -> int:
    """Rows per chunk of a batch on n letters, so that B n^2 floats stay within JACOBIAN_FLOATS."""
    return max(1, JACOBIAN_FLOATS // nletters**2)


def batches(items: Iterable) -> Iterator[list]:
    """Consecutive lists of BATCH_ROWS items (the last may be shorter), for grids solved in batches."""
    items = iter(items)
    while block := list(itertools.islice(items, BATCH_ROWS)):
        yield block


def solve_batch(
    product: FreeProduct,
    probs: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[SolveReport | Exception]:
    """Validate and solve a (B, n) stack of step laws on ``product``, one outcome per row.

    A row's outcome is its SolveReport, or the domain error that
    ``StepDistribution``, ``validate_walk`` or the solver raises for it
    alone; every row is bit-identical to its solve as a batch of one.  The
    rows are solved in chunks of ``chunk_rows(n)``.
    A tolerance outside (0, MAX_TOL], a ``max_iter`` below 1 and
    probabilities of the wrong shape raise ValueError.
    """
    n = product.nletters
    p = np.array(probs, dtype=float)  # a copy: each report keeps a view of its row
    if p.ndim != 2 or p.shape[1] != n:
        raise ValueError(f"need probabilities of shape (B, {n}), got shape {p.shape}")
    return _solve(product, p, _row_errors(product, p), tol, max_iter)


def solve_walk(
    product: FreeProduct,
    mu: StepDistribution,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveReport:
    """Validate, solve, and package q, r, and diagnostics for one walk.

    The walk is a chunk of one row, so it is solved on 1-D arrays
    (``_solve_row``), with the bits that its row of any batch gets.

    Raises MaxIterationsError when Newton runs out of its ``max_iter``
    steps or the one confirming step fails its gate (near-recurrent step
    law), and ConsistencyError when the solved vector leaves (0,1), which
    signals a non-transient input or a bug.  A tolerance outside
    (0, MAX_TOL] or a ``max_iter`` below 1 raises ValueError.
    """
    validate_walk(product, mu)
    # mu passed its own checks when it was built; only the support remained
    (outcome,) = _solve(product, mu.probs[None], [None], tol, max_iter)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
