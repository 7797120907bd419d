import math

import numpy as np
import pytest

from freewalk.groups import (
    FreeProduct,
    Letter,
    NonGeneratingSetError,
    free_product_of_cyclics,
    make_cyclic,
    make_finite_group,
)
from freewalk.traffic import (
    HittingVector,
    MaxIterationsError,
    RecurrentGroupError,
    StepDistribution,
    phi,
    q_to_r,
    solve_hitting,
    solve_walk,
    stationarity_check,
    letter_tables,
    traffic_residual,
    validate_walk,
)
from freewalk.walkspec import hecke_simple, z2z3_walk, z3z3_sym, zkzk_simple

from oracles import hitting_oracle, pair_tables_oracle


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
    mu = StepDistribution.uniform(product)
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
    zero = HittingVector(product, np.zeros(product.nletters))
    assert np.allclose(phi(product, mu, zero).values, mu.probs)


def test_phi_fixed_point_and_monotone():
    product, mu = hecke_simple(4)
    q_star = solve_hitting(product, mu)
    again = phi(product, mu, q_star)
    assert np.max(np.abs(again.values - q_star.values)) < 1e-12
    rng = np.random.default_rng(7)
    for _ in range(25):
        lo = rng.uniform(0, 0.8, product.nletters)
        hi = lo + rng.uniform(0, 0.2, product.nletters)
        flo = phi(product, mu, HittingVector(product, lo)).values
        fhi = phi(product, mu, HittingVector(product, hi)).values
        assert np.all(flo <= fhi + 1e-15)


def test_monotone_iterates_increase_to_fixed_point():
    product, mu = zkzk_simple(5)
    q = HittingVector(product, np.zeros(product.nletters))
    previous = q.values
    for _ in range(60):
        q = phi(product, mu, q)
        assert np.all(q.values >= previous - 1e-15)
        assert np.all(q.values <= 1.0)
        previous = q.values


def test_z4z4_hitting_probabilities_closed_form():
    product, mu = zkzk_simple(4)
    q = solve_hitting(product, mu)
    s5 = math.sqrt(5)
    assert abs(q[Letter(0, 1)] - (3 - s5) / 2) < 1e-12
    assert abs(q[Letter(0, 3)] - (3 - s5) / 2) < 1e-12
    assert abs(q[Letter(0, 2)] - (s5 - 2)) < 1e-12
    assert abs(q[Letter(1, 2)] - (s5 - 2)) < 1e-12


def test_z2z4_hitting_probability_closed_form():
    product, mu = hecke_simple(4)
    q = solve_hitting(product, mu)
    s7 = math.sqrt(7)
    assert abs(q[Letter(0, 1)] - (7 - 2 * s7) / 3) < 1e-12
    assert abs(q[Letter(1, 2)] - (4 * s7 - 7) / 7) < 1e-12


def test_consistency_identity_on_battery():
    walks = [zkzk_simple(4), zkzk_simple(6), hecke_simple(3), hecke_simple(5),
             z2z3_walk(0.5, 0.1), z3z3_sym(0.35)]
    for product, mu in walks:
        q = solve_hitting(product, mu)
        assert q.consistency_residual() < 1e-12


def test_natural_hitting_matches_q():
    product, mu = z2z3_walk(0.45, 0.25)
    report = solve_walk(product, mu)
    for u in product.alphabet:
        assert abs(report.r.natural_hitting(u) - report.q[u]) < 1e-12


def test_q_to_r_z2z4_closed_form_vector():
    product, mu = hecke_simple(4)
    r = q_to_r(solve_hitting(product, mu))
    s7 = math.sqrt(7)
    expected = [(7 - s7) / 12, 2 / 3 - s7 / 6, (-11 + 5 * s7) / 12, 2 / 3 - s7 / 6]
    for u, value in zip(product.alphabet, expected):
        assert abs(r[u] - value) < 1e-12
    assert abs(float(np.sum(r.values)) - 1.0) < 1e-12


def test_q_to_r_uniform_symmetry():
    product = free_product_of_cyclics(3, 3)
    mu = StepDistribution.uniform(product)
    r = q_to_r(solve_hitting(product, mu))
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
    mu = StepDistribution.uniform(product)
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


def test_max_iterations_error_near_recurrent():
    product, mu = z2z3_walk(0.499999999, 0.5)  # mu(a) = 1e-9: nearly trapped on Z/3
    with pytest.raises(MaxIterationsError):
        solve_hitting(product, mu, tol=1e-13, max_iter=40)


def test_hitting_oracle_z2z3_radius_30():
    # literal ball-of-radius-30 absorbing chain; truncation bias ~5e-6 here
    product, mu = hecke_simple(3)
    q = solve_hitting(product, mu)
    for target in (Letter(0, 1), Letter(1, 1)):
        oracle = hitting_oracle(product, mu, target, radius=30)
        assert abs(q[target] - oracle) < 1e-4


def test_hitting_oracle_asymmetric_z2z3():
    product, mu = z2z3_walk(0.5, 0.1)
    q = solve_hitting(product, mu)
    for target in (Letter(0, 1), Letter(1, 2)):
        oracle = hitting_oracle(product, mu, target, radius=22)
        assert abs(q[target] - oracle) < 1e-4


def test_hitting_oracle_z4z4():
    # growth 3^n caps the feasible radius; the truncation bias at radius 9
    # is ~1e-5, well inside the 1e-4 agreement bound
    product, mu = zkzk_simple(4)
    q = solve_hitting(product, mu)
    for target in (Letter(0, 1), Letter(0, 2)):
        oracle = hitting_oracle(product, mu, target, radius=9)
        assert abs(q[target] - oracle) < 1e-4


def test_hitting_oracle_z2z4():
    product, mu = hecke_simple(4)
    q = solve_hitting(product, mu)
    oracle = hitting_oracle(product, mu, Letter(1, 1), radius=18)
    assert abs(q[Letter(1, 1)] - oracle) < 1e-4


def test_letter_tables_match_per_letter_loop():
    s3 = make_finite_group([
        [0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 5, 0, 4, 3, 1],
        [3, 4, 5, 0, 1, 2], [4, 3, 1, 2, 5, 0], [5, 2, 3, 1, 0, 4],
    ])
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
