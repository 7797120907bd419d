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
residual finish the solve.  Plain iteration, gated by the consistency
identity below, confirms the result.

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
from typing import Mapping

import numpy as np

from .groups import FreeProduct, Letter, NonGeneratingSetError, factor_distances

DEFAULT_TOL = 1e-13
MAX_TOL = 1e-10
DEFAULT_MAX_ITER = 10**6
_EPS = float(np.finfo(float).eps)
STATIONARY_TOL = 1e-8


class RecurrentGroupError(ValueError):
    """The free product Z/2 * Z/2 carries no transient nearest-neighbor walk."""


class MaxIterationsError(RuntimeError):
    """Fixed-point iteration did not converge (near-recurrent walk?)."""


class ConsistencyError(RuntimeError):
    """Solved vector violates the consistency identity: non-transient input or bug."""


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
        if not np.all(np.isfinite(p)):
            raise ValueError("non-finite probability in step distribution")
        if np.any(p < 0.0):
            raise ValueError("negative probability in step distribution")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        if not np.any(p > 0.0):
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

    product: FreeProduct
    values: np.ndarray

    def consistency_residual(self) -> float:
        return _consistency_residual(letter_tables(self.product), self.values)


@dataclass(frozen=True)
class RootVector(_LetterVector):
    """First-letter law r of the harmonic measure; positive, sums to 1."""

    product: FreeProduct
    values: np.ndarray


@dataclass(frozen=True)
class SolveReport:
    """Solver output: hitting vector, root vector, and diagnostics.

    ``iterations`` counts the Newton steps plus the plain iteration steps
    after them (at least one, the consistency check); the corrections with
    an exact residual are not counted.
    """

    q: HittingVector
    r: RootVector
    iterations: int
    sup_residual: float
    traffic_residual: float
    stationary: bool


class _Structure:
    """Index tables for the vectorized hitting map of one product.

    ``(pair_a[m], pair_u[m], pair_v[m])`` lists every in-factor product
    u * v = a of two letters, ordered by a, then u.  Each (a, v) has
    exactly one u = a * v^-1, so ``pair_flat`` and ``diag_flat``, the flat
    indices of the entries (a, v) and (a, a) of an n x n matrix, have no
    repeats; between them they cover every in-factor entry.  ``cross``
    masks the entries whose two letters lie in different factors.
    """

    def __init__(self, product: FreeProduct):
        n = product.nletters
        self.cross = np.not_equal.outer(product.factor_of, product.factor_of)
        # every (a, u) of two distinct letters of one factor, by a then u;
        # u = a would leave v the identity
        same = ~self.cross
        np.fill_diagonal(same, False)
        a, u = np.nonzero(same)
        # v = u^-1 * a, read from the factors' multiplication tables laid end
        # to end.  Letter a of factor i (order k, table from ``start``) is the
        # element a - base, so entry (inv u, a) of that table sits at
        # start + k (inv_index[u] - base) + a - base = offset + k inv_index[u] + a.
        factors = product.factors
        tables = np.fromiter(
            itertools.chain.from_iterable(row for g in factors for row in g.mul),
            np.intp,
            sum(g.order**2 for g in factors),
        )
        per_factor, start = [], 0
        for i, g in enumerate(factors):
            k, base = g.order, product.factor_slice(i).start - 1
            per_factor.append((start - base * (k + 1), k, base))
            start += k * k
        offset, order, base = np.repeat(
            np.array(per_factor, dtype=np.intp), [g.order - 1 for g in factors], axis=0
        ).T
        self.pair_a = a
        self.pair_u = u
        self.pair_v = base[a] + tables[offset[a] + order[a] * product.inv_index[u] + a]
        self.pair_flat = a * n + self.pair_v
        self.diag_flat = np.arange(n) * (n + 1)
        self.inv_index = product.inv_index
        self.factor_of = product.factor_of
        self.nletters = n
        self.nfactors = product.nfactors

    def factor_sums(self, x: np.ndarray) -> np.ndarray:
        """Per factor i, the total of x over the letters of factor i."""
        return np.bincount(self.factor_of, weights=x, minlength=self.nfactors)

    def outside(self, x: np.ndarray) -> np.ndarray:
        """Per letter a, the total of x over the letters outside a's factor."""
        return x.sum() - self.factor_sums(x)[self.factor_of]


@functools.lru_cache(maxsize=1)
def letter_tables(product: FreeProduct) -> _Structure:
    """The index tables of ``product``, kept for the most recent product only.

    A solve and the metrics of its walk share one build, while a cache of
    one holds the tables of a single product at a time.
    """
    return _Structure(product)


def _phi_array(s: _Structure, mu: np.ndarray, q: np.ndarray) -> np.ndarray:
    out = mu + q * s.outside(mu * q[s.inv_index])
    if len(s.pair_a):
        out += np.bincount(s.pair_a, weights=mu[s.pair_u] * q[s.pair_v], minlength=s.nletters)
    return out


def _consistency_residual(s: _Structure, q: np.ndarray) -> float:
    sums = s.factor_sums(q)
    return float(abs(np.sum(sums / (1.0 + sums)) - 1.0))


def _jacobian(s: _Structure, mu: np.ndarray, q: np.ndarray) -> np.ndarray:
    # d/dq(d) of q(a) * mu(d^-1) q(d) over letters d outside a's factor; the
    # in-factor entries are all overwritten below
    jac = np.outer(q, mu[s.inv_index])
    # d/dq(v) of the in-factor convolution terms
    jac.flat[s.pair_flat] = mu[s.pair_u]
    # d/dq(a) of q(a) * back(a)
    jac.flat[s.diag_flat] = s.outside(mu * q[s.inv_index])
    return jac


def check_tolerance(tol: float) -> None:
    """Reject a solver tolerance outside (0, MAX_TOL]: 0, negative, NaN, inf or coarse.

    The solver accepts a root vector whose sum is off by up to 10 tol, and
    ``harmonic.build_chain`` demands 1e-9, so 1e-10 is the coarsest
    tolerance whose solution every downstream check accepts.
    """
    if not 0.0 < tol <= MAX_TOL:
        raise ValueError(f"tolerance must be in (0, {MAX_TOL:g}], got {tol!r}")


def validate_walk(product: FreeProduct, mu: StepDistribution) -> None:
    """Reject walks that are not transient random walks on the whole group.

    Each factor must be generated (as a group) by the supported letters it
    contains, and the product must not be Z/2 * Z/2, whose nearest-neighbor
    walks are all recurrent.
    """
    if mu.product is not product:
        raise ValueError("step distribution belongs to a different product")
    support = mu.support
    for i, group in enumerate(product.factors):
        gens = [u.elem for u in support if u.factor == i]
        if len(factor_distances(group, gens)) != group.order:
            raise NonGeneratingSetError(i, f"support of mu does not generate factor {i}")
    if product.nfactors == 2 and all(g.order == 2 for g in product.factors):
        raise RecurrentGroupError("walks on Z/2 * Z/2 are recurrent; no harmonic measure")


def _newton(s: _Structure, p: np.ndarray, tol: float, max_iter: int):
    """Newton's method from q = 0 on q = phi(q); returns (q, steps, kappa).

    Each step solves (I - J)[delta, x] = [phi(q) - q, 1] in one call.  As
    J >= 0 has spectral radius below 1, kappa = max(x) = ||(I - J)^-1||_inf,
    and rounding leaves q about eps * kappa from the fixed point.  Newton
    stops once the sup residual is at most tol/100 or stops falling; a
    singular step or a candidate outside (0,1) stops it early and leaves the
    rest to plain iteration.  kappa is NaN when no step was taken.
    """
    n = s.nletters
    eye = np.eye(n)
    q = np.zeros(n)
    rhs = np.ones((n, 2))
    steps, kappa, last = 0, math.nan, math.inf
    while steps < max_iter:
        rhs[:, 0] = _phi_array(s, p, q) - q
        sup = float(np.max(np.abs(rhs[:, 0])))
        if sup <= 0.01 * tol or sup >= last:
            break
        last = sup
        try:
            sol = np.linalg.solve(eye - _jacobian(s, p, q), rhs)
        except np.linalg.LinAlgError:
            break
        candidate = q + sol[:, 0]
        if np.any(candidate <= 0.0) or np.any(candidate >= 1.0):
            break
        q, kappa = candidate, float(np.max(sol[:, 1]))
        steps += 1
    return q, steps, kappa


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
    """At most 3 Newton corrections whose residual is exact; stops once q stays put.

    A float residual is itself off by about eps, which (I - J)^-1 amplifies
    by kappa; the exact residual removes that floor.
    """
    for _ in range(3):
        candidate = q + np.linalg.solve(np.eye(s.nletters) - _jacobian(s, p, q),
                                        _exact_residual(s, p, q))
        if np.array_equal(candidate, q) or np.any(candidate <= 0.0) or np.any(candidate >= 1.0):
            break
        q = candidate
    return q


def _iterate(s: _Structure, p: np.ndarray, q: np.ndarray, iterations: int, max_iter: int,
             tol: float, kappa: float):
    """Apply the hitting map until a step moves q by less than tol and q is consistent.

    Near the recurrent boundary a small step no longer implies proximity to
    the fixed point, hence the consistency identity.  A step that leaves q
    bitwise unchanged can never meet it, so that raises at once.  Returns
    (q, iterations).
    """
    while True:
        qn = _phi_array(s, p, q)
        iterations += 1
        delta = float(np.max(np.abs(qn - q)))
        q = qn
        if delta < tol and _consistency_residual(s, q) <= 10.0 * tol:
            return q, iterations
        if delta == 0.0:
            raise MaxIterationsError(
                f"no convergence after {iterations} iterations: stuck at a floating-point"
                f" fixed point with consistency residual {_consistency_residual(s, q):.3e}"
                f" (condition number {kappa:.3e})"
            )
        if iterations >= max_iter:
            raise MaxIterationsError(
                f"no convergence after {iterations} iterations (last change {delta:.3e})"
            )


def _solve_arrays(
    product: FreeProduct,
    mu: StepDistribution,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, int, float]:
    """Checked least fixed point q, with the iteration count and the final sup residual."""
    check_tolerance(tol)
    s = letter_tables(product)
    p = mu.probs
    q, iterations, kappa = _newton(s, p, tol, max_iter)
    if _EPS * kappa > tol:
        q = _exact_finish(s, p, q)
    q, iterations = _iterate(s, p, q, iterations, max_iter, tol, kappa)
    sup = float(np.max(np.abs(_phi_array(s, p, q) - q)))
    if np.any(q >= 1.0 - tol) or np.any(q <= 0.0):
        raise ConsistencyError("hitting probabilities left (0,1): walk is not transient")
    residual = _consistency_residual(s, q)
    if residual > 10.0 * tol:
        raise ConsistencyError(f"consistency identity violated by {residual:.3e}")
    return q, iterations, sup


def q_to_r(q: HittingVector) -> RootVector:
    """Root vector r(a) = q(a) / (1 + q(Sigma_a)); entries sum to 1."""
    s = letter_tables(q.product)
    x = np.asarray(q.values, dtype=float)
    return RootVector(q.product, x / (1.0 + s.factor_sums(x)[s.factor_of]))


def traffic_residual(product: FreeProduct, mu: StepDistribution, r: RootVector) -> float:
    """Sup-norm residual of the traffic polynomial system at r (0 at the solution)."""
    s = letter_tables(product)
    x = np.asarray(r.values, dtype=float)
    p = mu.probs
    outside = s.outside(x)
    rhs = p * outside
    if len(s.pair_a):
        rhs += np.bincount(s.pair_a, weights=p[s.pair_u] * x[s.pair_v], minlength=s.nletters)
    rhs += x * s.outside(p[s.inv_index] * x / outside)
    return float(np.max(np.abs(x - rhs)))


def stationarity_check(product: FreeProduct, r: RootVector) -> bool:
    """True when every factor carries first-letter mass 1/|I|.

    For a root vector solving the traffic system this decides whether the
    harmonic measure is stationary (and ergodic) under the one-step shift.
    """
    sums = letter_tables(product).factor_sums(np.asarray(r.values, dtype=float))
    return bool(np.max(np.abs(sums - 1.0 / product.nfactors)) < STATIONARY_TOL)


def solve_walk(
    product: FreeProduct,
    mu: StepDistribution,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveReport:
    """Validate, solve, and package q, r, and diagnostics for one walk.

    Raises MaxIterationsError when iteration stalls (near-recurrent step
    law) and ConsistencyError when the solved vector fails the consistency
    identity, which signals a non-transient input or a bug.
    """
    validate_walk(product, mu)
    q_arr, iterations, sup = _solve_arrays(product, mu, tol, max_iter)
    q = HittingVector(product, q_arr)
    r = q_to_r(q)
    return SolveReport(
        q=q,
        r=r,
        iterations=iterations,
        sup_residual=sup,
        traffic_residual=traffic_residual(product, mu, r),
        stationary=stationarity_check(product, r),
    )
