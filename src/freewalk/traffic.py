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
The same solves give kappa = ||(I - J)^-1||_inf >= 1/(1 - rho(J)).  Float
rounding leaves q about eps * kappa from the fixed point, so when that
exceeds the tolerance a few Newton corrections with an exact rational
residual finish the solve.  One confirming step of the map, gated by the
consistency identity below, then accepts or rejects the result.

``solve_batch`` solves a (B, n) stack of step laws on one product in
lockstep: one Newton loop on (B, n) arrays with one stacked linear solve
per step.  Each row leaves the loop when it would stop alone, and every
sum keeps the order of additions of a single row, so each row is
bit-identical to its solve as a batch of one.  ``solve_walk`` is that
batch of one, so there is one solver path.

The root vector of the harmonic measure follows as
``r(a) = q(a) / (1 + q(Sigma_a))``, and the consistency identity
``sum_i q(Sigma_i)/(1+q(Sigma_i)) = 1`` makes r a probability vector.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
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


class RecurrentGroupError(ValueError):
    """The free product Z/2 * Z/2 carries no transient nearest-neighbor walk."""


class MaxIterationsError(RuntimeError):
    """Newton ran out of steps or the confirming step failed its gate (near-recurrent walk?)."""


class ConsistencyError(RuntimeError):
    """Solved vector left (0,1): non-transient input or bug."""


# What an invalid or unsolvable walk raises; grid searches skip or tag these.
DOMAIN_ERRORS = (ValueError, MaxIterationsError, ConsistencyError)


@dataclass(frozen=True)
class StepDistribution:
    """Step law mu on the letters, indexed by alphabet position."""

    product: FreeProduct
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (self.product.nletters,):
            raise ValueError(f"need {self.product.nletters} probabilities, got shape {p.shape}")
        if not np.isfinite(p).all():
            raise ValueError("non-finite probability in step distribution")
        if (p < 0.0).any():
            raise ValueError("negative probability in step distribution")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        if not (p > 0.0).any():
            raise ValueError("empty support")
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


@dataclass(frozen=True)
class _LetterVector:
    """Common accessors for per-letter real vectors (q and r)."""

    product: FreeProduct
    values: np.ndarray

    def __getitem__(self, u: Letter) -> float:
        return float(self.values[self.product.letter_index(u)])

    def factor_sum(self, i: int) -> float:
        return float(self.values[self.product.factor_slice(i)].sum())


@dataclass(frozen=True)
class HittingVector(_LetterVector):
    """q(a) = probability of ever visiting the letter a; all entries in (0,1)."""

    def consistency_residual(self) -> float:
        return float(_consistency_residual(letter_tables(self.product), self.values))


@dataclass(frozen=True)
class RootVector(_LetterVector):
    """First-letter law r of the harmonic measure; positive, sums to 1."""


@dataclass(frozen=True)
class SolveReport:
    """Solver output: hitting vector, root vector, and diagnostics.

    ``iterations`` counts the Newton steps plus one, the confirming step
    that the consistency check gates; the corrections with an exact
    residual are not counted.  In a batch each row counts the Newton steps
    it took before it left the batch, the same count as when it is solved
    alone.
    """

    q: HittingVector
    r: RootVector
    iterations: int
    sup_residual: float
    traffic_residual: float
    stationary: bool


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
    exactly one u = a * v^-1, so ``pair_flat`` and ``diag_flat``, the flat
    indices of the entries (a, v) and (a, a) of an n x n matrix, have no
    repeats; between them they cover every in-factor entry.  ``cross``
    masks the entries whose two letters lie in different factors.  The
    tables are fixed once built; a stack of rows reads them through
    ``_shifted``.
    """

    def __init__(self, product: FreeProduct):
        n = product.nletters
        self.cross = np.not_equal.outer(product.factor_of, product.factor_of)
        # per factor, every (a, u) of two distinct letters, by a then u (u = a
        # would leave v the identity), and v = u^-1 * a from its table; the
        # letter at alphabet index base + e is element e of the factor.  A
        # factor of order 2 has one letter, so no pair.
        none = np.zeros(0, dtype=np.intp)
        pair_a, pair_u, pair_v = [none], [none], [none]
        for i, g in enumerate(product.factors):
            if g.order == 2:
                continue
            base = product.factor_slice(i).start - 1
            a, u = np.nonzero(~np.eye(g.order - 1, dtype=bool))
            a += base + 1
            u += base + 1
            # cast before adding base: a uint8 table would wrap
            v = g.mul[product.inv_index[u] - base, a - base].astype(np.intp)
            v += base
            pair_a.append(a)
            pair_u.append(u)
            pair_v.append(v)
        self.pair_a, self.pair_u, self.pair_v = map(np.concatenate, (pair_a, pair_u, pair_v))
        self.pair_flat = self.pair_a * n + self.pair_v
        self.diag_flat = np.arange(n) * (n + 1)
        self.inv_index = product.inv_index
        self.factor_of = product.factor_of
        self.nletters = n
        self.nfactors = product.nfactors

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


@functools.lru_cache(maxsize=1)
def letter_tables(product: FreeProduct) -> _Structure:
    """The index tables of ``product``, kept for the most recent product only.

    A solve and the metrics of its walk share one build, while a cache of
    one holds the tables of a single product at a time.
    """
    return _Structure(product)


# The kernels below take one vector or a (B, n) stack of row vectors, and
# give each row the same float operations as the row alone.

def _back(s: _Structure, mu: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per letter a, the sum of mu(c) q(c^-1) over letters c outside a's factor."""
    return s.outside(mu * q.take(s.inv_index, axis=-1))


def _phi_array(s: _Structure, mu: np.ndarray, q: np.ndarray, back: np.ndarray | None = None,
               mu_pair: np.ndarray | None = None) -> np.ndarray:
    """The hitting map at q.

    ``back`` is ``_back(s, mu, q)`` and ``mu_pair`` is mu at the pairs'
    first letters, when the caller already has them.
    """
    if back is None:
        back = _back(s, mu, q)
    out = mu + q * back
    if len(s.pair_a):
        if mu_pair is None:
            mu_pair = mu.take(s.pair_u, axis=-1)
        out += s.pair_sums(mu_pair * q.take(s.pair_v, axis=-1))
    return out


def _sup_norm(x: np.ndarray):
    """max |x| along the last axis (per row of a stack)."""
    return np.maximum.reduce(np.abs(x), axis=-1)


def _consistency_residual(s: _Structure, q: np.ndarray):
    sums = s.factor_sums(q)
    return abs(np.add.reduce(sums / (1.0 + sums), axis=-1) - 1.0)


def _i_minus_j(s: _Structure, q: np.ndarray, back: np.ndarray, neg_inv: np.ndarray,
               neg_pair: np.ndarray) -> np.ndarray:
    """I - J at q, J the Jacobian of the hitting map, in one pass (per row of a stack).

    ``back`` is ``_back(s, mu, q)``, ``neg_inv`` is 0.0 - mu(inv) per
    letter and ``neg_pair`` 0.0 - mu at the pairs' first letters, so each
    entry is the float of eye - J: -q(a) mu(d^-1) for d outside a's
    factor, -mu(u) at (a, v) for u * v = a, and 1 - back(a) on the
    diagonal.  Where q is 0 an off-factor entry is -0.0 where eye - J
    holds 0.0; no nonzero number of a solve depends on the sign of a zero
    entry.
    """
    rows = 1 if q.ndim == 1 else len(q)
    width = s.nletters**2
    # the off-factor entries; the in-factor ones are all overwritten below
    matrices = q[..., :, None] * neg_inv[..., None, :]
    flat = matrices.reshape(-1)
    flat[_shifted(s.pair_flat, width, rows)] = neg_pair.ravel()
    flat[_shifted(s.diag_flat, width, rows)] = (1.0 - back).ravel()
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
    letters = [u for u, on in zip(product.alphabet, support.tolist()) if on]
    for i, group in enumerate(product.factors):
        gens = [u.elem for u in letters if u.factor == i]
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


def _newton(s: _Structure, p: np.ndarray, tol: float, max_iter: int):
    """Newton's method from q = 0 on q = phi(q), for every row of p; returns (q, steps, kappa).

    Each step solves (I - J)[delta, x] = [phi(q) - q, 1] for all rows
    still stepping in one stacked call, one LAPACK solve per matrix, so a
    row's bits do not depend on the rows beside it.  As J >= 0 has
    spectral radius below 1, kappa = max(x) = ||(I - J)^-1||_inf, and
    rounding leaves q about eps * kappa from the fixed point.  A row stops
    once its sup residual is at most tol/100 or stops falling, or once its
    candidate leaves (0,1), as after a singular step, which leaves it to
    the confirming step.  Each step ORs the two tests into one stop mask,
    and the solve is skipped only when every row stops on its residual.
    A stopping row leaves with its current q, its step count and its last
    x, whichever test stopped it; the others go on without it, so each row
    takes the steps it would take alone.  kappa is NaN for a row that took
    no step.
    """
    rows, n = p.shape
    q = np.zeros((rows, n))
    steps = np.zeros(rows, dtype=np.intp)
    kappa = np.full(rows, math.nan)
    rhs = np.ones((rows, n, 2))
    floor = 0.01 * tol
    # the rows still stepping: their indices, step laws, iterates, last sup
    # residuals and last solutions x (NaN before the first step)
    live, pl, ql, last, xl = np.arange(rows), p, q, np.full(rows, math.inf), np.full((rows, n), math.nan)
    # the parts of phi and I - J that depend on mu alone (see ``_i_minus_j``)
    pair = p.take(s.pair_u, axis=1)
    neg_pair, neg_inv = 0.0 - pair, 0.0 - p.take(s.inv_index, axis=1)

    def leave(mask, taken):
        out = live[mask]
        q[out], steps[out], kappa[out] = ql[mask], taken, xl[mask].max(axis=1)
        return ~mask

    for taken in range(max_iter):
        b = len(live)
        back = _back(s, pl, ql)
        residual = np.subtract(_phi_array(s, pl, ql, back, pair), ql, out=rhs[:b, :, 0])
        sup = _sup_norm(residual)
        stop = (sup <= floor) | (sup >= last)
        if np.count_nonzero(stop) < b:  # some row goes on: solve for every row
            matrices = _i_minus_j(s, ql, back, neg_inv, neg_pair)
            try:
                sol = np.linalg.solve(matrices, rhs[:b])
            except np.linalg.LinAlgError:
                sol = _solve_each(matrices, rhs[:b])
            candidate = ql + sol[:, :, 0]
            outside = (candidate <= 0.0) | (candidate >= 1.0)
            if np.count_nonzero(outside):
                stop |= outside.any(axis=1)
        if np.count_nonzero(stop):
            keep = leave(stop, taken)
            if not keep.any():
                return q, steps, kappa
            live, pl, candidate, sol, sup = live[keep], pl[keep], candidate[keep], sol[keep], sup[keep]
            pair, neg_pair, neg_inv = pair[keep], neg_pair[keep], neg_inv[keep]
        ql, xl, last = candidate, sol[:, :, 1], sup
    leave(np.ones(len(live), dtype=bool), max_iter)
    return q, steps, kappa


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


def _exact_residual(s: _Structure, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """phi(q) - q computed exactly in rationals from the floats p and q, then rounded."""
    m = np.array([Fraction(x) for x in p.tolist()], dtype=object)
    x = np.array([Fraction(v) for v in q.tolist()], dtype=object)
    back = m * x[s.inv_index]
    sums = np.array([back[s.factor_of == i].sum() for i in range(s.nfactors)], dtype=object)
    out = m + x * (back.sum() - sums[s.factor_of]) - x
    np.add.at(out, s.pair_a, m[s.pair_u] * x[s.pair_v])
    return out.astype(float)


def _exact_finish(s: _Structure, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """At most 3 Newton corrections of one row whose residual is exact; stops once q stays put.

    A float residual is itself off by about eps, which (I - J)^-1 amplifies
    by kappa; the exact residual removes that floor.
    """
    neg_inv, neg_pair = 0.0 - p[s.inv_index], 0.0 - p[s.pair_u]
    for _ in range(3):
        candidate = q + np.linalg.solve(_i_minus_j(s, q, _back(s, p, q), neg_inv, neg_pair),
                                        _exact_residual(s, p, q))
        if np.array_equal(candidate, q) or np.any(candidate <= 0.0) or np.any(candidate >= 1.0):
            break
        q = candidate
    return q


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
    q, iterations, kappa = _newton(s, p, tol, max_iter)
    for i in np.flatnonzero(_EPS * kappa > tol).tolist():
        q[i] = _exact_finish(s, p[i], q[i])
    step = _phi_array(s, p, q)
    change = _sup_norm(step - q)
    q, iterations = step, iterations + 1
    consistency = _consistency_residual(s, q)
    errors: dict[int, Exception] = {
        i: MaxIterationsError(
            f"no convergence after {iterations[i]} iterations: last change {change[i]:.3e},"
            f" consistency residual {consistency[i]:.3e} (condition number {kappa[i]:.3e})")
        for i in np.flatnonzero(~((change < tol) & (consistency <= 10.0 * tol))).tolist()
    }
    sup = _sup_norm(_phi_array(s, p, q) - q)
    for i in np.flatnonzero(((q >= 1.0 - tol) | (q <= 0.0)).any(axis=1)).tolist():
        errors.setdefault(i, ConsistencyError(
            "hitting probabilities left (0,1): walk is not transient"))
    ok = [i for i in range(len(p)) if i not in errors]
    if errors:
        p, q = p[ok], q[ok]
    r = _root(s, q)
    traffic = _traffic_residual(s, p, r)
    stationary = _stationary(s, r)
    outcomes: list = [errors.get(i) for i in range(len(sup))]
    for j, i in enumerate(ok):
        outcomes[i] = SolveReport(
            q=HittingVector(product, q[j]),
            r=RootVector(product, r[j]),
            iterations=int(iterations[i]),
            sup_residual=float(sup[i]),
            traffic_residual=float(traffic[j]),
            stationary=bool(stationary[j]),
        )
    return outcomes


def _solve(product: FreeProduct, p: np.ndarray, errors: list, tol: float,
           max_iter: int) -> list[SolveReport | Exception]:
    """Solve the rows of p whose entry in ``errors`` is None, in chunks; fill in their outcomes.

    A tolerance outside (0, MAX_TOL] or a ``max_iter`` below 1 raises ValueError.
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
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2 or p.shape[1] != n:
        raise ValueError(f"need probabilities of shape (B, {n}), got shape {p.shape}")
    return _solve(product, p, _row_errors(product, p), tol, max_iter)


def solve_walk(
    product: FreeProduct,
    mu: StepDistribution,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveReport:
    """Validate, solve, and package q, r, and diagnostics for one walk: the batch of one.

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
