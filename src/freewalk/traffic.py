"""Hitting-probability fixed point and the root vector of a walk.

For a nearest-neighbor walk with step law ``mu`` on the letters, the
vector of hitting probabilities ``q(a) = P(some X_n equals a)`` satisfies

    q(a) = mu(a) + sum_{u*v=a} mu(u) q(v)
                 + q(a) * sum_{c outside a's factor} mu(c) q(c^-1),

a polynomial system with nonnegative coefficients.  The right-hand side is
a monotone map, so iterating it from the zero vector produces increasing
iterates converging to the least fixed point, which is the hitting vector;
an optional Newton polish then drives the residual to machine precision.
The root vector of the harmonic measure follows as
``r(a) = q(a) / (1 + q(Sigma_a))``, and the consistency identity
``sum_i q(Sigma_i)/(1+q(Sigma_i)) = 1`` makes r a probability vector.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .groups import FreeProduct, Letter, NonGeneratingSetError, subgroup_closure

DEFAULT_TOL = 1e-13
DEFAULT_MAX_ITER = 10**6
_NEWTON_SWITCH = 1e-8
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

    def as_dict(self) -> dict[Letter, float]:
        return {u: float(p) for u, p in zip(self.product.alphabet, self.probs)}

    @classmethod
    def from_dict(cls, product: FreeProduct, table: Mapping[Letter, float]) -> "StepDistribution":
        probs = np.zeros(product.nletters)
        for u, p in table.items():
            probs[product.letter_index(u)] = p
        return cls(product, probs)

    @classmethod
    def uniform(cls, product: FreeProduct) -> "StepDistribution":
        return cls(product, np.full(product.nletters, 1.0 / product.nletters))


class _LetterVector:
    """Common accessors for per-letter real vectors (q and r)."""

    product: FreeProduct
    values: np.ndarray

    def __getitem__(self, u: Letter) -> float:
        return float(self.values[self.product.letter_index(u)])

    def factor_sum(self, i: int) -> float:
        return float(self.values[self.product.factor_slice(i)].sum())

    def outside_factor(self, i: int) -> float:
        return float(self.values.sum() - self.values[self.product.factor_slice(i)].sum())

    def as_dict(self) -> dict[Letter, float]:
        return {u: float(v) for u, v in zip(self.product.alphabet, self.values)}


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

    def natural_hitting(self, u: Letter) -> float:
        """r(a) / r(Sigma minus a's factor), which equals q(a)."""
        return self[u] / self.outside_factor(u.factor)


@dataclass(frozen=True)
class SolveReport:
    """Solver output: hitting vector, root vector, and diagnostics."""

    q: HittingVector
    r: RootVector
    iterations: int
    sup_residual: float
    traffic_residual: float
    stationary: bool


class _Structure:
    """Index tables for the vectorized hitting map of one product.

    ``(pair_a[m], pair_u[m], pair_v[m])`` lists every in-factor product
    u * v = a of two letters, ordered by a, then u.
    """

    def __init__(self, product: FreeProduct):
        pa: list[int] = []
        pu: list[int] = []
        pv: list[int] = []
        for i, group in enumerate(product.factors):
            base = product.factor_slice(i).start - 1  # element e of factor i is letter base + e
            mul, inv = group.mul, group.inv
            for a in range(1, group.order):
                for u in range(1, group.order):
                    if u != a:  # u = a would leave v the identity
                        pa.append(base + a)
                        pu.append(base + u)
                        pv.append(base + mul[inv[u]][a])
        self.pair_a = np.array(pa, dtype=np.intp)
        self.pair_u = np.array(pu, dtype=np.intp)
        self.pair_v = np.array(pv, dtype=np.intp)
        self.inv_index = product.inv_index
        self.factor_of = product.factor_of
        self.nletters = product.nletters
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


def validate_walk(product: FreeProduct, mu: StepDistribution) -> None:
    """Reject walks that are not transient random walks on the whole group.

    Each factor must be generated (as a group) by the supported letters it
    contains, and the product must not be Z/2 * Z/2, whose nearest-neighbor
    walks are all recurrent.
    """
    if mu.product is not product:
        raise ValueError("step distribution belongs to a different product")
    for i, group in enumerate(product.factors):
        gens = [u.elem for u in mu.support if u.factor == i]
        if len(subgroup_closure(group, gens)) != group.order:
            raise NonGeneratingSetError(i, f"support of mu does not generate factor {i}")
    if product.nfactors == 2 and all(g.order == 2 for g in product.factors):
        raise RecurrentGroupError("walks on Z/2 * Z/2 are recurrent; no harmonic measure")


def phi(product: FreeProduct, mu: StepDistribution, q: HittingVector) -> HittingVector:
    """One application of the hitting map to q."""
    s = letter_tables(product)
    return HittingVector(product, _phi_array(s, mu.probs, np.asarray(q.values, dtype=float)))


def _iterate(s: _Structure, p: np.ndarray, q: np.ndarray, iterations: int, max_iter: int, done):
    """Apply the hitting map until done(change, q) holds; returns (q, iterations)."""
    while True:
        qn = _phi_array(s, p, q)
        iterations += 1
        delta = float(np.max(np.abs(qn - q)))
        q = qn
        if done(delta, q):
            return q, iterations
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
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    s = letter_tables(product)
    p = mu.probs
    switch = max(tol, _NEWTON_SWITCH)
    q, iterations = _iterate(s, p, np.zeros(s.nletters), 0, max_iter, lambda d, q: d < switch)
    # Newton polish; the monotone phase has entered the basin of the least
    # fixed point, so a few steps reach machine precision.  Any failure
    # falls back to plain iteration.
    for _ in range(40):
        residual = _phi_array(s, p, q) - q
        sup = float(np.max(np.abs(residual)))
        if sup <= tol * 0.01:
            break
        jac = _jacobian(s, p, q)
        try:
            step = np.linalg.solve(np.eye(s.nletters) - jac, residual)
        except np.linalg.LinAlgError:
            break
        candidate = q + step
        if np.any(candidate <= 0.0) or np.any(candidate >= 1.0):
            break
        q = candidate
        iterations += 1
    # Require the consistency identity as well: near the recurrent boundary
    # the contraction rate approaches 1 and a small per-iteration change no
    # longer implies proximity to the fixed point.
    q, iterations = _iterate(
        s, p, q, iterations, max_iter,
        lambda d, q: d < tol and _consistency_residual(s, q) <= 10.0 * tol,
    )
    sup = float(np.max(np.abs(_phi_array(s, p, q) - q)))
    if np.any(q >= 1.0 - tol) or np.any(q <= 0.0):
        raise ConsistencyError("hitting probabilities left (0,1): walk is not transient")
    residual = _consistency_residual(s, q)
    if residual > 10.0 * tol:
        raise ConsistencyError(f"consistency identity violated by {residual:.3e}")
    return q, iterations, sup


def solve_hitting(
    product: FreeProduct,
    mu: StepDistribution,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> HittingVector:
    """Least fixed point of the hitting map: the vector of hitting probabilities.

    Requires a validated walk.  Raises MaxIterationsError when iteration
    stalls (near-recurrent step law) and ConsistencyError when the solved
    vector fails the consistency identity, which signals a non-transient
    input or a bug.
    """
    return HittingVector(product, _solve_arrays(product, mu, tol, max_iter)[0])


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


def stationarity_check(product: FreeProduct, r: RootVector, tol: float = STATIONARY_TOL) -> bool:
    """True when every factor carries first-letter mass 1/|I|.

    For a root vector solving the traffic system this decides whether the
    harmonic measure is stationary (and ergodic) under the one-step shift.
    """
    sums = letter_tables(product).factor_sums(np.asarray(r.values, dtype=float))
    return bool(np.max(np.abs(sums - 1.0 / product.nfactors)) < tol)


def solve_walk(
    product: FreeProduct,
    mu: StepDistribution,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveReport:
    """Validate, solve, and package q, r, and diagnostics for one walk."""
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
