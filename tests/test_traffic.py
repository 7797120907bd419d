import math
import re
import sys
import threading
import time

import numpy as np
import pytest

from freewalk import traffic
from freewalk.groups import (
    FreeProduct,
    Letter,
    NonGeneratingSetError,
    free_product_of_cyclics,
    make_cyclic,
    make_finite_group,
)
from freewalk.harmonic import build_chain
from freewalk.metrics import metrics_report
from freewalk.traffic import (
    DEFAULT_TOL,
    MAX_TOL,
    MaxIterationsError,
    RecurrentGroupError,
    StepDistribution,
    _back,
    _i_minus_j,
    _phi_array,
    q_to_r,
    solve_walk,
    letter_tables,
    traffic_residual,
    validate_walk,
)
from freewalk.verify import _battery
from freewalk.walkspec import (
    hecke_simple,
    uniform_per_factor,
    z2z2z2,
    z2z3_walk,
    z3z3_sym,
    zkzk_simple,
)

from oracles import (
    S3_TABLE,
    exact_fixed_point,
    exact_residual_oracle,
    hitting_oracle,
    jacobian_oracle,
    pair_tables_oracle,
    pair_tables_reference,
    stationarity_check,
)


def phi(product, mu, q: np.ndarray) -> np.ndarray:
    """One application of the hitting map to q."""
    return _phi_array(letter_tables(product), mu.probs, q)


def test_step_distribution_validation():
    product = free_product_of_cyclics(2, 3)
    with pytest.raises(ValueError):
        StepDistribution(product, np.array([0.5, 0.5]))  # wrong length
    with pytest.raises(ValueError):
        StepDistribution(product, np.array([0.7, 0.2, 0.2]))  # sums to 1.1
    with pytest.raises(ValueError):
        StepDistribution(product, np.array([1.1, -0.1, 0.0]))
    mu = StepDistribution.from_dict(product, {Letter(0, 1): 0.5, Letter(1, 1): 0.5})
    assert mu.support == (Letter(0, 1), Letter(1, 1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_step_distribution_rejects_non_finite(bad):
    product = free_product_of_cyclics(2, 3)
    with pytest.raises(ValueError, match="non-finite"):
        StepDistribution(product, np.array([bad, 0.5, 0.5]))


def test_validate_walk_accepts_partial_support():
    product, mu = z2z3_walk(0.5, 0.0)  # only b on the Z/3 side; b generates it
    validate_walk(product, mu)


def test_validate_walk_rejects_z2z2():
    product = free_product_of_cyclics(2, 2)
    mu = StepDistribution(product, np.full(product.nletters, 1 / product.nletters))
    with pytest.raises(RecurrentGroupError):
        validate_walk(product, mu)


def test_validate_walk_rejects_non_generating_factor():
    product = free_product_of_cyclics(4, 4)
    mu = StepDistribution.from_dict(
        product, {Letter(0, 2): 0.5, Letter(1, 1): 0.25, Letter(1, 3): 0.25}
    )
    with pytest.raises(NonGeneratingSetError) as info:
        validate_walk(product, mu)
    assert info.value.factor == 0


def test_phi_at_zero_is_mu():
    product, mu = zkzk_simple(4)
    assert np.allclose(phi(product, mu, np.zeros(product.nletters)), mu.probs)


def test_phi_fixed_point_and_monotone():
    product, mu = hecke_simple(4)
    q_star = solve_walk(product, mu).q.values
    again = phi(product, mu, q_star)
    assert np.max(np.abs(again - q_star)) < 1e-12
    rng = np.random.default_rng(7)
    for _ in range(25):
        lo = rng.uniform(0, 0.8, product.nletters)
        hi = lo + rng.uniform(0, 0.2, product.nletters)
        flo = phi(product, mu, lo)
        fhi = phi(product, mu, hi)
        assert np.all(flo <= fhi + 1e-15)


def test_monotone_iterates_increase_to_fixed_point():
    product, mu = zkzk_simple(5)
    q = np.zeros(product.nletters)
    previous = q
    for _ in range(60):
        q = phi(product, mu, q)
        assert np.all(q >= previous - 1e-15)
        assert np.all(q <= 1.0)
        previous = q


def test_z4z4_hitting_probabilities_closed_form():
    product, mu = zkzk_simple(4)
    q = solve_walk(product, mu).q
    s5 = math.sqrt(5)
    assert abs(q[Letter(0, 1)] - (3 - s5) / 2) < 1e-12
    assert abs(q[Letter(0, 3)] - (3 - s5) / 2) < 1e-12
    assert abs(q[Letter(0, 2)] - (s5 - 2)) < 1e-12
    assert abs(q[Letter(1, 2)] - (s5 - 2)) < 1e-12


def test_z2z4_hitting_probability_closed_form():
    product, mu = hecke_simple(4)
    q = solve_walk(product, mu).q
    s7 = math.sqrt(7)
    assert abs(q[Letter(0, 1)] - (7 - 2 * s7) / 3) < 1e-12
    assert abs(q[Letter(1, 2)] - (4 * s7 - 7) / 7) < 1e-12


def test_consistency_identity_on_battery():
    walks = [zkzk_simple(4), zkzk_simple(6), hecke_simple(3), hecke_simple(5),
             z2z3_walk(0.5, 0.1), z3z3_sym(0.35)]
    for product, mu in walks:
        q = solve_walk(product, mu).q
        assert q.consistency_residual() < 1e-12


def test_natural_hitting_matches_q():
    # q(a) = r(a) / (1 - r(Sigma_i)), where Sigma_i is the factor of a
    product, mu = z2z3_walk(0.45, 0.25)
    report = solve_walk(product, mu)
    for u in product.alphabet:
        outside = 1.0 - report.r.factor_sum(u.factor)
        assert abs(report.r[u] / outside - report.q[u]) < 1e-12


def test_q_to_r_z2z4_closed_form_vector():
    product, mu = hecke_simple(4)
    r = q_to_r(solve_walk(product, mu).q)
    s7 = math.sqrt(7)
    expected = [(7 - s7) / 12, 2 / 3 - s7 / 6, (-11 + 5 * s7) / 12, 2 / 3 - s7 / 6]
    for u, value in zip(product.alphabet, expected):
        assert abs(r[u] - value) < 1e-12
    assert abs(float(np.sum(r.values)) - 1.0) < 1e-12


def test_q_to_r_uniform_symmetry():
    product = free_product_of_cyclics(3, 3)
    mu = StepDistribution(product, np.full(product.nletters, 1 / product.nletters))
    r = q_to_r(solve_walk(product, mu).q)
    for u in product.alphabet:
        assert abs(r[u] - 0.25) < 1e-13


def test_traffic_residual_zero_at_solution():
    for product, mu in (zkzk_simple(4), hecke_simple(3), z2z3_walk(0.3, 0.5)):
        report = solve_walk(product, mu)
        assert traffic_residual(product, mu, report.r) < 1e-10


def test_traffic_residual_positive_off_solution():
    product, mu = z2z3_walk(0.3, 0.1)  # mu(a)=0.6: decidedly non-uniform
    from freewalk.traffic import RootVector

    uniform = RootVector(product, np.full(product.nletters, 1.0 / product.nletters))
    assert traffic_residual(product, mu, uniform) > 0.01


def test_traffic_residual_uniform_walk_uniform_root():
    product = free_product_of_cyclics(3, 3)
    mu = StepDistribution(product, np.full(product.nletters, 1 / product.nletters))
    from freewalk.traffic import RootVector

    uniform = RootVector(product, np.full(product.nletters, 0.25))
    assert traffic_residual(product, mu, uniform) < 1e-12


def test_stationarity_flags():
    product, mu = zkzk_simple(4)
    assert solve_walk(product, mu).stationary
    product, mu = hecke_simple(3)
    assert not solve_walk(product, mu).stationary


def test_stationarity_for_transported_measure():
    # identical factors with the measure transported by the isomorphism
    product = free_product_of_cyclics(4, 4)
    w1, w2, w3 = 0.31, 0.06, 0.13
    mu = StepDistribution.from_dict(product, {
        Letter(0, 1): w1, Letter(0, 2): w2, Letter(0, 3): w3,
        Letter(1, 1): w1, Letter(1, 2): w2, Letter(1, 3): w3,
    })
    report = solve_walk(product, mu)
    assert report.stationary
    assert stationarity_check(product, report.r)


def test_solver_reports_converged_diagnostics():
    product, mu = zkzk_simple(4)
    report = solve_walk(product, mu)
    assert report.iterations > 0
    assert report.sup_residual < 1e-13
    assert report.traffic_residual < 1e-12


@pytest.mark.parametrize("walk", [(0.499999999, 0.5), (0.18, 0.82)],
                         ids=["mu-a-1e-9", "mu-a-1.1e-16"])
def test_max_iterations_error_near_recurrent(walk):
    # mu(a) = 1e-9 nearly traps the walk on Z/3; at mu(a) = 1.1e-16 the
    # hitting map moves q by an ulp at a time.  Both fail at the confirming
    # step, with the default budget.
    with pytest.raises(MaxIterationsError) as info:
        solve_walk(*z2z3_walk(*walk))
    assert int(re.search(r"after (\d+) iterations", str(info.value)).group(1)) <= 12


def test_z2z2z2_edge_grid_solves_or_fails_at_once():
    # 200 masses log-spaced from 3.2e-7 to 0.1: each walk is solved to
    # within tol of its exact fixed point, or fails within Newton's steps
    for p in np.geomspace(3.2e-7, 0.1, 200).tolist():
        product, mu = z2z2z2(p)
        try:
            q = solve_walk(product, mu).q.values
        except MaxIterationsError as exc:
            assert int(re.search(r"after (\d+) iterations", str(exc)).group(1)) <= 12
        else:
            assert np.max(np.abs(q - exact_fixed_point(product, mu))) <= DEFAULT_TOL


@pytest.mark.parametrize("j", range(20))
def test_newton_solves_near_edge_z2z2z2(j):
    # the benchmark's near-edge masses; the condition number is about 0.67 / p
    p = 10 ** (-5 + 4 * (j + 0.5) / 20)
    product, mu = z2z2z2(p)
    report = solve_walk(product, mu)
    assert report.iterations <= 12
    assert report.q.consistency_residual() <= 10 * DEFAULT_TOL
    gap = np.abs(report.q.values - exact_fixed_point(product, mu))
    assert np.max(gap) <= DEFAULT_TOL
    if p < 1.5e-3:  # eps * kappa > tol: the exact-residual finish runs
        assert np.all(gap <= 2 * np.spacing(report.q.values))


def test_newton_step_counts_on_families():
    rng = np.random.default_rng(11)
    grid = [z2z3_walk(*(0.02 + 0.94 * rng.dirichlet(np.ones(3)))[1:]) for _ in range(40)]
    walks = [zkzk_simple(k) for k in range(3, 9)] + [hecke_simple(k) for k in range(3, 13)]
    for product, mu in walks + grid:
        assert solve_walk(product, mu).iterations <= 10


def test_max_iter_counts_newton_steps():
    with pytest.raises(MaxIterationsError):
        solve_walk(*hecke_simple(3), max_iter=3)


@pytest.mark.parametrize("p", [1e-7, 1e-9])
def test_floating_point_fixed_point_raises_at_once(p):
    # phi(q) == q bitwise, yet the consistency residual exceeds 10 tol
    with pytest.raises(MaxIterationsError) as info:
        solve_walk(*z2z2z2(p))
    message = str(info.value)
    assert int(re.search(r"after (\d+) iterations", message).group(1)) <= 12
    assert "consistency residual" in message and "condition number" in message


@pytest.mark.parametrize("family", [zkzk_simple(4), hecke_simple(3), z2z3_walk(0.5, 0.1)],
                         ids=["z4z4", "hecke3", "z2z3"])
def test_coarsest_tolerance_feeds_build_chain(family):
    product, mu = family
    build_chain(product, solve_walk(product, mu, tol=MAX_TOL).r)
    for bad in (2 * MAX_TOL, 1e-3, math.inf):
        with pytest.raises(ValueError, match="tolerance must be in"):
            solve_walk(product, mu, tol=bad)


def test_hitting_oracle_z2z3_radius_30():
    # literal ball-of-radius-30 absorbing chain; truncation bias ~5e-6 here
    product, mu = hecke_simple(3)
    q = solve_walk(product, mu).q
    for target in (Letter(0, 1), Letter(1, 1)):
        oracle = hitting_oracle(product, mu, target, radius=30)
        assert abs(q[target] - oracle) < 1e-4


def test_hitting_oracle_asymmetric_z2z3():
    product, mu = z2z3_walk(0.5, 0.1)
    q = solve_walk(product, mu).q
    for target in (Letter(0, 1), Letter(1, 2)):
        oracle = hitting_oracle(product, mu, target, radius=22)
        assert abs(q[target] - oracle) < 1e-4


def test_hitting_oracle_z4z4():
    # growth 3^n caps the feasible radius; the truncation bias at radius 9
    # is ~1e-5, well inside the 1e-4 agreement bound
    product, mu = zkzk_simple(4)
    q = solve_walk(product, mu).q
    for target in (Letter(0, 1), Letter(0, 2)):
        oracle = hitting_oracle(product, mu, target, radius=9)
        assert abs(q[target] - oracle) < 1e-4


def test_reports_holding_arrays_compare_by_identity():
    # == on two solves of one walk, or on two step laws built alike, used to
    # compare the arrays inside tuples and raise; reports that hold only
    # numbers keep their equality by value
    product, mu = zkzk_simple(4)
    first, second = solve_walk(product, mu), solve_walk(product, mu)
    assert first.q.values.tobytes() == second.q.values.tobytes()
    assert first != second and first == first
    assert first.q != second.q and first.r != second.r and first.q == first.q
    assert StepDistribution(product, mu.probs) != StepDistribution(product, mu.probs)
    assert metrics_report(product, mu, first) == metrics_report(product, mu, second)


def test_hitting_oracle_z2z4():
    product, mu = hecke_simple(4)
    q = solve_walk(product, mu).q
    oracle = hitting_oracle(product, mu, Letter(1, 1), radius=18)
    assert abs(q[Letter(1, 1)] - oracle) < 1e-4


def test_letter_tables_match_per_letter_loop():
    rng = np.random.default_rng(5)
    s3 = make_finite_group(S3_TABLE)
    for product in (
        free_product_of_cyclics(2, 3),
        free_product_of_cyclics(2, 2, 2),
        free_product_of_cyclics(7, 4, 5),
        FreeProduct([s3, make_cyclic(2), make_cyclic(4)]),
    ):
        s = letter_tables(product)
        pa, pu, pv = pair_tables_oracle(product)
        assert s.pair_a.tolist() == pa and s.pair_u.tolist() == pu and s.pair_v.tolist() == pv
        assert letter_tables(product) is s  # built once per product
        # I - J assembled from the tables, bit for bit as eye minus the
        # Jacobian that np.add.at accumulates
        mu = rng.dirichlet(np.ones(product.nletters))
        neg_inv, neg_pair = 0.0 - mu[s.inv_index], 0.0 - mu[s.pair_u]
        for q in (np.zeros(product.nletters), rng.uniform(0.01, 0.99, product.nletters)):
            assert np.array_equal(_i_minus_j(s, q, _back(s, mu, q), neg_inv, neg_pair),
                                  np.eye(product.nletters) - jacobian_oracle(s, mu, q))


@pytest.mark.parametrize(
    "factors",
    [(2, 3), (4, 4), (3, 7, 2, 5), (60, 60), (S3_TABLE, 2, 4), (130, 130)],
    ids=["z2z3", "z4z4", "z3z7z2z5", "z60z60", "s3z2z4", "z130z130"],
)
def test_pair_tables_match_the_whole_product_reference(factors):
    # each factor block read from its own table equals the one-nonzero
    # construction; on Z/130 * Z/130 a uint8 entry plus its block's base
    # passes 255
    product = FreeProduct([make_cyclic(f) if isinstance(f, int) else make_finite_group(f)
                           for f in factors])
    s = letter_tables(product)
    for name, want in zip(("pair_a", "pair_u", "pair_v", "pair_flat"), pair_tables_reference(product)):
        got = getattr(s, name)
        assert got.dtype == np.intp and np.array_equal(got, want), name


def test_exact_residual_equals_the_fraction_oracle_bytewise(monkeypatch):
    # every residual of the exact finishes on the z2z2z2 edge grid, then q
    # at and near the fixed points of criterion 8's battery and of the
    # 118-126-letter walks
    cases = []
    residual = traffic._exact_residual

    def recorded(s, p, q):
        cases.append((s, p.copy(), q.copy()))
        return residual(s, p, q)

    monkeypatch.setattr(traffic, "_exact_residual", recorded)
    finishes = 0
    for p in np.geomspace(3.2e-7, 0.1, 200).tolist():
        before = len(cases)
        try:
            solve_walk(*z2z2z2(p))
        except MaxIterationsError:
            pass
        finishes += len(cases) > before
    assert finishes == 133
    monkeypatch.undo()
    large = free_product_of_cyclics(41, 40, 42)
    walks = [walk for _, walk in _battery()] + [
        zkzk_simple(64), uniform_per_factor([60, 60], [0.5, 0.5]),
        (large, StepDistribution(large, np.random.default_rng(7).dirichlet(np.ones(120))))]
    rng = np.random.default_rng(28)
    for product, mu in walks:
        s = letter_tables(product)
        q = solve_walk(product, mu).q.values
        ulps = q + rng.integers(-4, 5, len(q)) * np.spacing(q)
        cases += [(s, mu.probs, x) for x in (q, ulps, q * (1.0 + rng.uniform(-1e-9, 1e-9, len(q))))]
    for s, p, q in cases:
        assert residual(s, p, q).tobytes() == exact_residual_oracle(s, p, q).tobytes()


@pytest.fixture
def no_kept_tables():
    letter_tables.cache_clear()
    yield
    letter_tables.cache_clear()


def test_letter_tables_keep_recent_products_up_to_the_budget(monkeypatch, no_kept_tables):
    products = [free_product_of_cyclics(*orders) for orders in ((2, 3), (4, 5), (3, 4), (2, 2, 3))]
    sizes = [traffic._Structure(product).nbytes for product in products]
    assert sizes[3] <= sizes[1]
    monkeypatch.setattr(traffic, "TABLE_BYTES", sum(sizes[:3]))
    first = [letter_tables(product) for product in products[:3]]
    assert list(traffic._tables) == products[:3]  # exactly at the budget: all three kept
    assert letter_tables(products[0]) is first[0]  # a hit makes it the newest
    assert list(traffic._tables) == [products[1], products[2], products[0]]
    letter_tables(products[3])  # over the budget: the least recently used goes
    assert list(traffic._tables) == [products[2], products[0], products[3]]
    assert letter_tables(products[2]) is first[2] and letter_tables(products[0]) is first[0]
    assert letter_tables(products[1]) is not first[1]  # dropped, so built again


def test_letter_tables_keep_the_newest_product_alone_over_the_budget(monkeypatch, no_kept_tables):
    monkeypatch.setattr(traffic, "TABLE_BYTES", 1)
    small, large = free_product_of_cyclics(2, 3), free_product_of_cyclics(5, 6)
    s = letter_tables(large)
    assert list(traffic._tables) == [large] and letter_tables(large) is s
    letter_tables(small)
    assert list(traffic._tables) == [small]
    letter_tables.cache_clear()
    assert not traffic._tables and traffic._tables_bytes == 0
    assert letter_tables(large) is not s and list(traffic._tables) == [large]


class _YieldingTables(traffic._Structure):
    """Index tables whose size is read across a thread switch, so that an
    unlocked update of the kept byte total would be lost."""

    @property
    def nbytes(self):
        time.sleep(0)
        return self._nbytes

    @nbytes.setter
    def nbytes(self, value):
        self._nbytes = value


def test_letter_tables_survive_threads_alternating_products(monkeypatch, no_kept_tables):
    # a budget that holds one or two of these products, so that misses and
    # evictions interleave across threads
    products = [free_product_of_cyclics(*orders) for orders in ((2, 3), (3, 4), (4, 5), (3, 5))]
    monkeypatch.setattr(traffic, "TABLE_BYTES",
                        max(traffic._Structure(product).nbytes for product in products))
    monkeypatch.setattr(traffic, "_Structure", _YieldingTables)
    errors = []

    def alternate(offset):
        try:
            for i in range(2000):
                product = products[(i + offset) % len(products)]
                if letter_tables(product).inv_index is not product.inv_index:
                    errors.append(f"tables of another product for {product!r}")
        except Exception as exc:  # reported below: a thread's exception is otherwise lost
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=alternate, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    kept = traffic._tables
    assert traffic._tables_bytes == sum(s.nbytes for s in kept.values())
    assert traffic._tables_bytes <= traffic.TABLE_BYTES or len(kept) == 1
    assert all(s.inv_index is product.inv_index for product, s in kept.items())
