import itertools
import math
import sys

import numpy as np
import pytest

from freewalk import metrics
from freewalk.groups import (
    FreeProduct,
    LengthTable,
    Letter,
    free_product_of_cyclics,
    make_cyclic,
    make_finite_group,
    letter_lengths,
    natural_lengths,
    normal_words,
)
from freewalk.metrics import (
    QUALITY_GAMMA_FLOOR,
    drift,
    drift_weighted,
    entropy,
    extremal_measure,
    growth_rho,
    metrics_report,
    quality,
    quality_sup,
    volume,
)
from freewalk.traffic import StepDistribution, solve_walk
from freewalk.walkspec import (
    extremal_walk,
    hecke_simple,
    minimal_generators,
    uniform_per_factor,
    z2z2z2,
    z2z3_walk,
    zkzk_simple,
)

from oracles import (
    S3_TABLE,
    additive_drift_oracle,
    extremal_cylinder,
    growth_equation_oracle,
    parry_cylinder,
)

PHI = (1 + math.sqrt(5)) / 2


def test_drift_table_values():
    product, mu = zkzk_simple(3)
    report = solve_walk(product, mu)
    assert abs(drift(product, mu, report.r) - 0.25) < 1e-12
    product, mu = zkzk_simple(4)
    report = solve_walk(product, mu)
    assert abs(drift(product, mu, report.r) - (math.sqrt(5) - 1) / 4) < 1e-12
    product, mu = hecke_simple(3)
    report = solve_walk(product, mu)
    assert abs(drift(product, mu, report.r) - 2 / 15) < 1e-12


def test_drift_weighted_reduces_to_natural_with_unit_weights():
    rng = np.random.default_rng(2)
    for _ in range(10):
        p, q = rng.uniform(0.05, 0.4, 2)
        product, mu = z2z3_walk(p, q)
        report = solve_walk(product, mu)
        plain = drift(product, mu, report.r)
        weighted = drift_weighted(product, mu, report.r, natural_lengths(product))
        assert abs(plain - weighted) < 1e-14


def test_drift_weighted_z4z4_minimal():
    product, mu = zkzk_simple(4)
    report = solve_walk(product, mu)
    lengths = letter_lengths(product, minimal_generators(product))
    value = drift_weighted(product, mu, report.r, lengths)
    assert abs(value - (3 - math.sqrt(5)) / 2) < 1e-12


def test_entropy_uniform_equal_factors():
    # uniform step law on n equal factors: h = log(K-k) * (1 - (k+1)/K)
    for orders, n in (((3, 3), 2), ((3, 3, 3), 3), ((4, 4), 2)):
        product = free_product_of_cyclics(*orders)
        mu = StepDistribution(product, np.full(product.nletters, 1 / product.nletters))
        report = solve_walk(product, mu)
        k = orders[0] - 1
        K = n * k
        expected = math.log(K - k) * (-1 / K + 1 - k / K)
        assert abs(entropy(product, mu, report.r, report.q) - expected) < 1e-12


def test_entropy_z3z3_simple_value():
    product, mu = zkzk_simple(3)
    report = solve_walk(product, mu)
    assert abs(entropy(product, mu, report.r, report.q) - 0.25 * math.log(2)) < 1e-12


def test_entropy_z4z4_simple_value():
    product, mu = zkzk_simple(4)
    report = solve_walk(product, mu)
    expected = (5 - math.sqrt(5)) / 4 * math.log(PHI)
    assert abs(entropy(product, mu, report.r, report.q) - expected) < 1e-12
    assert abs(expected - 0.332510) < 1e-6


def test_volume_natural_values():
    for k in (3, 4, 5, 6):
        product = free_product_of_cyclics(k, k)
        assert abs(volume(product, natural_lengths(product)) - math.log(k - 1)) < 1e-13


def test_volume_minimal_generating_sets():
    product = free_product_of_cyclics(4, 4)
    lengths = letter_lengths(product, minimal_generators(product))
    assert abs(volume(product, lengths) - math.log(1 + math.sqrt(2))) < 1e-13
    product = free_product_of_cyclics(2, 4)
    lengths = letter_lengths(product, minimal_generators(product))
    assert abs(volume(product, lengths) - math.log(PHI)) < 1e-13


def test_volume_infinite_dihedral_is_zero():
    product = free_product_of_cyclics(2, 2)
    assert abs(volume(product, natural_lengths(product))) < 1e-9


def test_growth_rho_equation_residual():
    for orders in ((4, 4), (2, 4), (2, 3, 5), (3, 3, 3), (2, 2, 2)):
        product = free_product_of_cyclics(*orders)
        rho = growth_rho(product)
        residual = abs(
            sum(product.sigma_size(i) / (rho + product.sigma_size(i))
                for i in range(product.nfactors)) - 1.0
        )
        assert residual < 1e-14
        assert abs(math.exp(volume(product, natural_lengths(product))) - rho) < 1e-10
    # two factors: rho^2 = k1 k2
    product = free_product_of_cyclics(2, 4)
    assert abs(growth_rho(product) - math.sqrt(3)) < 1e-13


def test_extremal_measure_values():
    product = free_product_of_cyclics(2, 4)
    mu = extremal_measure(product)
    s3 = math.sqrt(3)
    assert abs(mu[Letter(0, 1)] - 1 / (1 + s3)) < 1e-13
    assert abs(mu[Letter(1, 1)] - 1 / (3 + s3)) < 1e-13
    assert abs(float(mu.probs.sum()) - 1.0) < 1e-12
    equal = free_product_of_cyclics(3, 3)
    assert np.allclose(extremal_measure(equal).probs, 0.25)


def test_extremal_quality_is_one():
    for orders in ((2, 4), (2, 3, 5), (3, 3, 3)):
        product, mu = extremal_walk(orders)
        assert abs(quality(product, mu, product.alphabet) - 1.0) < 1e-9


def test_two_factor_uniform_pair_quality_is_one():
    # any per-factor-uniform law on two factors is extremal for natural S
    for w1 in (0.2, 0.5, 0.8):
        product, mu = uniform_per_factor([3, 5], [w1, 1 - w1])
        assert abs(quality(product, mu, product.alphabet) - 1.0) < 1e-9


def test_extremal_cylinders_match_harmonic_solution():
    product, mu = extremal_walk([2, 3, 5])
    report = solve_walk(product, mu)
    from freewalk.harmonic import build_chain, cylinder_prob

    chain = build_chain(product, report.r)
    for w in normal_words(product, 3):
        assert abs(cylinder_prob(chain, w) - extremal_cylinder(product, w)) < 1e-12


def test_extremal_cylinders_normalization_and_consistency():
    product = free_product_of_cyclics(2, 4)
    level2 = [w for w in normal_words(product, 2) if len(w) == 2]
    harm_total = sum(extremal_cylinder(product, w) for w in level2)
    max_total = sum(parry_cylinder(product, w) for w in level2)
    assert abs(harm_total - 1.0) < 1e-12
    assert abs(max_total - 1.0) < 1e-12
    # one-step consistency of the max-entropy values
    for w in normal_words(product, 2):
        parent = parry_cylinder(product, w)
        children = sum(
            parry_cylinder(product, product.word(w.letters + (v,)))
            for v in product.alphabet
            if v.factor != w[len(w) - 1].factor
        )
        assert abs(parent - children) < 1e-13


def test_extremal_cylinders_equal_sizes_coincide():
    product = free_product_of_cyclics(3, 3, 3)
    for w in normal_words(product, 3):
        assert abs(extremal_cylinder(product, w) - parry_cylinder(product, w)) < 1e-14


def test_hausdorff_dimensions():
    report = metrics_report(*extremal_walk([2, 4]))
    assert abs(report.hd_measure - report.hd_support) < 1e-9
    report = metrics_report(*zkzk_simple(4))
    assert abs(report.hd_support - math.log(3)) < 1e-12
    assert report.hd_measure <= report.hd_support + 1e-9


def test_fundamental_inequality_on_random_walks():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p, q = rng.uniform(0.05, 0.45, 2)
        if p + q >= 0.92:
            continue
        product, mu = z2z3_walk(p, q)
        report = solve_walk(product, mu)
        h = entropy(product, mu, report.r, report.q)
        gamma = drift(product, mu, report.r)
        v = volume(product, natural_lengths(product))
        assert h <= gamma * v * (1 + 1e-9)


def test_quality_z4z4_minimal_constant():
    product, mu = zkzk_simple(4)
    closed = (5 + math.sqrt(5)) / 4 * math.log(PHI) / math.log(1 + math.sqrt(2))
    assert abs(quality(product, mu, minimal_generators(product)) - closed) < 1e-12
    assert abs(closed - 0.987686) < 1e-6


def test_quality_sup_z3z4_minimal_attains_one():
    product = free_product_of_cyclics(3, 4)
    sweep = quality_sup(product, minimal_generators(product), 1e-3)
    assert sweep.best_quality <= 1 + 1e-9
    assert sweep.best_quality > 1 - 1e-4
    assert not sweep.at_boundary
    p_best = sweep.best_mu[Letter(0, 1)]
    assert abs(p_best - 0.432693) < 2e-3  # middle root of 5x^3-13x^2+7x-1


def test_quality_sup_z2z4_minimal_below_one_toward_boundary():
    product = free_product_of_cyclics(2, 4)
    sweep = quality_sup(product, minimal_generators(product), 0.02)
    assert sweep.best_quality < 1 - 1e-6
    assert sweep.at_boundary


def test_quality_sup_rejects_a_set_that_is_not_symmetric():
    product = free_product_of_cyclics(4, 4)
    with pytest.raises(ValueError, match="symmetric"):
        quality_sup(product, [Letter(0, 1), Letter(1, 1), Letter(1, 3)], 0.1)


@pytest.mark.parametrize("outside", [Letter(2, 1), Letter(0, 7)], ids=["no-factor", "no-element"])
def test_quality_sup_rejects_a_letter_outside_the_product(outside):
    # the letter's inverse is looked up in the factor tables, so the check
    # must come before it: a lookup first raises IndexError
    product = free_product_of_cyclics(4, 4)
    with pytest.raises(ValueError, match="not in the alphabet"):
        quality_sup(product, [*minimal_generators(product), outside], 0.1)


def test_z2z2z2_family_quality():
    product, mu = z2z2z2(1 / 3)
    assert abs(quality(product, mu, product.alphabet) - 1.0) < 1e-9
    for p in (0.25, 0.40):
        product, mu = z2z2z2(p)
        assert quality(product, mu, product.alphabet) < 1 - 1e-6


def test_metrics_report_assembly():
    product, mu = zkzk_simple(4)
    m = metrics_report(product, mu)
    assert abs(m.quality - m.entropy / (m.gamma * m.volume)) < 1e-12
    assert m.stationary
    assert abs(m.hd_measure - m.entropy / m.gamma) < 1e-12
    assert abs(m.hd_support - m.volume) < 1e-12
    assert m.gamma > 0 and m.entropy >= 0 and m.volume > 0


def test_metrics_report_in_a_length_table_matches_the_separate_metrics():
    product, mu = zkzk_simple(4)
    minimal = minimal_generators(product)
    lengths = letter_lengths(product, minimal)
    report = solve_walk(product, mu)
    m = metrics_report(product, mu, report, lengths=lengths)
    assert m.gamma == drift_weighted(product, mu, report.r, lengths)
    assert m.entropy == entropy(product, mu, report.r, report.q)
    assert m.volume == m.hd_support == volume(product, lengths)
    assert m.quality == quality(product, mu, minimal)


def test_metrics_report_defaults_to_natural_lengths():
    for product, mu in (hecke_simple(4), z2z3_walk(0.5, 0.1), uniform_per_factor([3, 4, 5])):
        report = solve_walk(product, mu)
        assert metrics_report(product, mu, report) == metrics_report(
            product, mu, report, lengths=natural_lengths(product))


def test_quality_rejects_drift_at_or_below_the_floor(monkeypatch):
    product, mu = zkzk_simple(4)
    minimal = minimal_generators(product)
    kernel = metrics._additive_drift
    for gamma in (QUALITY_GAMMA_FLOOR, 0.0):
        # metrics_rows takes gamma and h in one call, gamma in the first row
        def floored(s, p, x, w, gamma=gamma):
            out = kernel(s, p, x, w)
            out[0] = gamma
            return out

        monkeypatch.setattr(metrics, "_additive_drift", floored)
        with pytest.raises(ValueError, match="weighted drift is zero"):
            quality(product, mu, minimal)


def test_drift_and_entropy_kernel_match_per_letter_loop():
    klein = make_finite_group([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    mixed = FreeProduct([klein, make_cyclic(3), make_cyclic(5)])
    rng = np.random.default_rng(11)
    walks = [
        z2z3_walk(0.5, 0.1),
        hecke_simple(4),
        zkzk_simple(6),
        uniform_per_factor([3, 4, 5]),
        (mixed, StepDistribution(mixed, rng.dirichlet(np.ones(mixed.nletters)))),
    ]
    for product, mu in walks:
        report = solve_walk(product, mu)
        gens = {v for u in product.alphabet if u.elem <= 2 for v in (u, product.letter_inverse(u))}
        lengths = letter_lengths(product, gens)
        cases = [
            (drift(product, mu, report.r), np.ones(product.nletters)),
            (drift_weighted(product, mu, report.r, lengths), lengths.weights.astype(float)),
            (entropy(product, mu, report.r, report.q), -np.log(report.q.values)),
        ]
        for value, w in cases:
            assert abs(value - additive_drift_oracle(product, mu, report.r, w)) < 1e-13


def growth_length_tables():
    """(product, lengths) for natural, minimal-generator and -log q weights, S3 included."""
    s3 = make_finite_group(S3_TABLE)
    mixed = FreeProduct([s3, make_cyclic(2), make_cyclic(4)])
    mixed_mu = StepDistribution(mixed, np.random.default_rng(3).dirichlet(np.ones(mixed.nletters)))
    # S3 has no single generator: in its factor take the two transpositions 1 and 2
    mixed_gens = [Letter(0, 1), Letter(0, 2), Letter(1, 1), Letter(2, 1), Letter(2, 3)]
    walks = [
        (*zkzk_simple(64), None),
        (*hecke_simple(9), None),
        (*uniform_per_factor([5, 7, 4]), None),
        (mixed, mixed_mu, mixed_gens),
    ]
    for product, mu, gens in walks:
        for lengths in (
            natural_lengths(product),
            letter_lengths(product, gens or minimal_generators(product)),
            LengthTable(product, -np.log(solve_walk(product, mu).q.values)),
        ):
            yield product, lengths


def test_growth_equation_runs_match_per_letter_sum_bitwise():
    ts = [float(t) for t in np.linspace(0.0, 1.0, 50)]
    for product, lengths in growth_length_tables():
        runs = metrics._factor_runs(product, lengths)
        for t in ts:
            value = metrics._growth_equation(runs, t)
            if sys.version_info < (3, 12):
                assert value == growth_equation_oracle(product, lengths, t)
            else:  # sum() compensates its rounding within each call from 3.12 on
                assert value == pytest.approx(growth_equation_oracle(product, lengths, t),
                                              rel=1e-14, abs=1e-14)


def test_volume_memo_hit_returns_the_fresh_bisection():
    memo = metrics._volume_of_runs
    for product, lengths in growth_length_tables():
        fresh = memo.__wrapped__(metrics._factor_runs(product, lengths))
        memo.cache_clear()
        first = volume(product, lengths)
        # a new table with equal weights is a memo hit
        again = volume(product, LengthTable(product, lengths.weights.copy()))
        assert memo.cache_info().hits == 1 and memo.cache_info().misses == 1
        assert first == again == fresh


def certified_run_tables(count=1000, seed=30):
    """Seeded factor runs, as ``metrics._factor_runs`` lays them out, and the products' orders.

    Unit, integer (1-4) and float (-log U(0.01, 0.9), Green-style) weights
    on 2-5 factors of 1 to 69 letters, beyond Z/64's 63; with unit weights
    on two factors whose letter counts multiply to a power of 4, the root
    t* = (n_1 n_2)^-1/2 is dyadic, and rho = 1/t* an integer.
    """
    rng = np.random.default_rng(seed)
    dyadic = [(1, 1), (2, 2), (1, 4), (4, 4), (2, 8), (1, 16), (8, 8), (4, 16), (2, 32), (16, 16)]
    for number in range(count):
        kind = number % 3
        most = 69 if kind == 0 or number % 30 < 3 else 12
        sizes = (dyadic[number] if number < len(dyadic)
                 else rng.integers(1, most + 1, size=int(rng.integers(2, 6))).tolist())
        if kind == 0 or number < len(dyadic):
            weights = [[1] * n for n in sizes]
        elif kind == 1:
            weights = [rng.integers(1, 5, size=n).tolist() for n in sizes]
        else:
            weights = [(-np.log(rng.uniform(0.01, 0.9, size=n))).tolist() for n in sizes]
        runs = tuple(tuple((w, len(list(run))) for w, run in itertools.groupby(factor))
                     for factor in weights)
        yield runs, [n + 1 for n in sizes]


def recorded_brackets(monkeypatch):
    """Per certified bisection in ``metrics``, its bracket and the plain loop's."""
    seen = []
    real = metrics.bisect_increasing

    def recording(fn, lo, hi, steps=200, **bounds):
        bracket = real(fn, lo, hi, steps, **bounds)
        seen.append((bracket, real(fn, lo, hi, steps)))
        return bracket

    monkeypatch.setattr(metrics, "bisect_increasing", recording)
    return seen


def test_certified_volume_and_rho_keep_the_plain_bracket(monkeypatch):
    seen = recorded_brackets(monkeypatch)
    volumes = rhos = 0
    for runs, orders in certified_run_tables():
        metrics._volume_of_runs.__wrapped__(runs)
        volumes += 1
        if all(w == 1 for factor in runs for w, _ in factor):
            metrics.growth_rho(free_product_of_cyclics(*orders))
            rhos += 1
    assert len(seen) == volumes + rhos and rhos > 300
    assert all(certified == plain for certified, plain in seen)
    # the dyadic roots are found exactly: t* = 1/2 for Z/3 * Z/3
    assert metrics._volume_of_runs.__wrapped__((((1, 2),),) * 2) == math.log(2)


@pytest.mark.parametrize("guess", [math.nan, -1.0, 0.0, 1e-300, 0.999, 1.0, 2.0, math.inf])
def test_certified_volume_and_rho_with_a_useless_guess(monkeypatch, guess):
    seen = recorded_brackets(monkeypatch)
    monkeypatch.setattr(metrics, "_volume_guess", lambda runs, slack: (guess, 1.0))
    monkeypatch.setattr(metrics, "_rho_guess", lambda sizes: guess * sum(sizes))
    for runs, orders in itertools.islice(certified_run_tables(seed=31), 12):
        metrics._volume_of_runs.__wrapped__(runs)
        metrics.growth_rho(free_product_of_cyclics(*orders))
    assert len(seen) == 24 and all(certified == plain for certified, plain in seen)


def test_extreme_weights_keep_the_plain_bracket(monkeypatch):
    # t* = e^-139 for weights 1e-3; t^w underflows for weights 700 and 1e-300 ones
    factors = [((1e-3, 3),), ((1e-3, 1), (1.0, 2)), ((1000.0, 3),), ((1e-3, 1), (50.0, 2)),
               ((0.0, 1), (1.0, 2)), ((1e-300, 2),), ((700.0, 1), (1e-5, 1))]
    seen = recorded_brackets(monkeypatch)
    for runs in itertools.product(factors, repeat=2):
        metrics._volume_of_runs.__wrapped__(runs)
    assert len(seen) == len(factors) ** 2
    assert all(certified == plain for certified, plain in seen)


@pytest.mark.parametrize("orders", [(64, 64), (41, 40, 42), (2, 3)])
def test_cold_volume_needs_few_growth_evaluations(monkeypatch, orders):
    calls = []
    real = metrics._growth_equation
    monkeypatch.setattr(metrics, "_growth_equation", lambda runs, t: calls.append(t) or real(runs, t))
    product = free_product_of_cyclics(*orders)
    metrics._volume_of_runs.cache_clear()
    v = volume(product, natural_lengths(product))
    # the plain loop takes about 57; the guess, here from the letter counts alone, is included
    assert len(calls) <= 24
    runs = metrics._factor_runs(product, natural_lengths(product))
    lo, hi = metrics.bisect_increasing(lambda t: real(runs, t), 0.0, 1.0)
    assert v == -math.log(0.5 * (lo + hi))
