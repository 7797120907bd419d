import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from freewalk.groups import Letter, Word, normal_words
from freewalk.harmonic import (
    build_chain,
    cylinder_prob,
    log_cylinder_prob,
    max_mu_invariance_residual,
    max_shift_residual,
    _shift_residual,
    tau2_invariance_residual,
    two_factor_identity,
)
from freewalk.traffic import RootVector, solve_walk
from freewalk.verify import _battery
from freewalk.walkspec import hecke_simple, uniform_per_factor, z2z3_walk, z2z2z2, zkzk_simple

from oracles import mu_invariance_residual, tau1_residual_oracle, tau2_residual_oracle


def chain_for(product, mu):
    report = solve_walk(product, mu)
    return report, build_chain(product, report.r)


def test_chain_rows_normalize_and_block_same_factor():
    product, mu = zkzk_simple(4)
    report, chain = chain_for(product, mu)
    sums = chain.trans.sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-12)
    for i, u in enumerate(product.alphabet):
        for j, v in enumerate(product.alphabet):
            if u.factor == v.factor:
                assert chain.trans[i, j] == 0.0


def test_chain_stationary_distribution():
    product, mu = z2z3_walk(0.5, 0.2)
    report, chain = chain_for(product, mu)
    assert np.max(np.abs(chain.pi @ chain.trans - chain.pi)) < 1e-12
    r = report.r.values
    weights = np.array(
        [r[i] * (r.sum() - report.r.factor_sum(u.factor)) for i, u in enumerate(product.alphabet)]
    )
    assert np.allclose(chain.pi, weights / weights.sum(), atol=1e-14)


def test_chain_stationary_iff_pi_equals_first_law():
    product, mu = zkzk_simple(4)
    report, chain = chain_for(product, mu)
    assert report.stationary
    assert np.max(np.abs(chain.pi - chain.first)) < 1e-12
    # P_{a,b} = r(b)/r(Sigma_2) = 2 r(b) in the stationary case
    value = chain.trans[product.letter_index(Letter(0, 1)), product.letter_index(Letter(1, 1))]
    assert abs(value - 2 * report.r[Letter(1, 1)]) < 1e-13
    product, mu = hecke_simple(3)
    report, chain = chain_for(product, mu)
    assert not report.stationary
    assert np.max(np.abs(chain.pi - chain.first)) > 1e-3


def test_chain_rejects_bad_root_vector():
    product, _ = zkzk_simple(4)
    from freewalk.traffic import RootVector

    bad = RootVector(product, np.full(product.nletters, 0.3))
    with pytest.raises(ValueError):
        build_chain(product, bad)


def test_cylinder_single_letters_and_total_mass():
    product, mu = hecke_simple(4)
    report, chain = chain_for(product, mu)
    total = 0.0
    for u in product.alphabet:
        mass = cylinder_prob(chain, product.word([u]))
        assert abs(mass - report.r[u]) < 1e-14
        total += mass
    assert abs(total - 1.0) < 1e-12
    assert cylinder_prob(chain, Word(())) == 1.0


def test_cylinder_level_sums_are_one():
    product, mu = z2z3_walk(0.4, 0.25)
    _, chain = chain_for(product, mu)
    for depth in (1, 2, 3):
        words = [w for w in normal_words(product, depth) if len(w) == depth]
        assert abs(sum(cylinder_prob(chain, w) for w in words) - 1.0) < 1e-12


def test_cylinder_z4z4_two_letter_value():
    product, mu = zkzk_simple(4)
    report, chain = chain_for(product, mu)
    w = product.word([Letter(0, 1), Letter(1, 1)])
    s5 = math.sqrt(5)
    expected = (3 - s5) / 2 * (3 - s5) / 4  # q(a) r(b)
    assert abs(cylinder_prob(chain, w) - expected) < 1e-14
    assert abs(expected - 0.072949) < 1e-6


def test_cylinder_markov_consistency():
    product, mu = z2z3_walk(0.55, 0.15)
    _, chain = chain_for(product, mu)
    for w in normal_words(product, 2):
        children = sum(
            cylinder_prob(chain, Word(w.letters + (v,)))
            for v in product.alphabet
            if v.factor != w[len(w) - 1].factor
        )
        assert abs(cylinder_prob(chain, w) - children) < 1e-13


def test_log_cylinder_matches_product_path():
    product, mu = zkzk_simple(4)
    _, chain = chain_for(product, mu)
    letters = []
    for n in range(250):
        letters.append(Letter(n % 2, 1 + (n % 3)))
    w = Word(tuple(letters))
    direct = cylinder_prob(chain, w)
    assert direct > 0.0
    assert abs(math.exp(log_cylinder_prob(chain, w)) - direct) < 1e-12 * direct
    long_word = Word(tuple(Letter(n % 2, 1) for n in range(600)))
    assert math.isfinite(log_cylinder_prob(chain, long_word))
    assert cylinder_prob(chain, long_word) >= 0.0
    # 600 letters, mass about 1.3e-293: the running product stays within rounding
    # of the exact product of its float factors (exp of the summed logs is 5.7e-12 off)
    long_word = Word(tuple(Letter(n % 2, 1 + (n % 3)) for n in range(600)))
    positions = [product.letter_index(u) for u in long_word]
    exact = Fraction(float(chain.first[positions[0]]))
    for a, b in zip(positions, positions[1:]):
        exact *= Fraction(float(chain.trans[a, b]))
    assert abs(Fraction(cylinder_prob(chain, long_word)) - exact) <= Fraction(1e-13) * exact


def test_two_factor_identity_values():
    for product, mu in (zkzk_simple(4), hecke_simple(4), z2z3_walk(0.37, 0.24)):
        report = solve_walk(product, mu)
        assert abs(two_factor_identity(report.q) - 1.0) < 1e-10
    product, mu = z2z2z2(0.3)
    report = solve_walk(product, mu)
    with pytest.raises(ValueError):
        two_factor_identity(report.q)


def test_tau2_invariance_two_factor_cylinders():
    product, mu = hecke_simple(3)
    _, chain = chain_for(product, mu)
    assert tau2_invariance_residual(chain, product.word([Letter(0, 1)])) < 1e-12
    product4, mu4 = hecke_simple(4)
    _, chain4 = chain_for(product4, mu4)
    w = product4.word([Letter(1, 2), Letter(0, 1)])  # b^2 a
    assert tau2_invariance_residual(chain4, w) < 1e-12


def test_tau1_invariance_iff_stationary():
    product, mu = zkzk_simple(4)  # stationary
    _, chain = chain_for(product, mu)
    for w in normal_words(product, 2):
        assert _shift_residual(chain, w, 1) < 1e-12
    product, mu = hecke_simple(3)  # not stationary
    _, chain = chain_for(product, mu)
    assert _shift_residual(chain, product.word([Letter(0, 1)]), 1) > 1e-3


@pytest.mark.parametrize(
    "walk", [zkzk_simple(4), hecke_simple(3), hecke_simple(4), z2z3_walk(0.5, 0.1)],
    ids=["z4z4", "hecke3", "hecke4", "z2z3"],
)
def test_shift_residuals_match_prefix_enumeration(walk):
    product, mu = walk
    _, chain = chain_for(product, mu)
    for w in normal_words(product, 3):
        scale = 1e-13 * cylinder_prob(chain, w)
        assert abs(_shift_residual(chain, w, 1) - tau1_residual_oracle(chain, w)) <= scale
        assert abs(tau2_invariance_residual(chain, w) - tau2_residual_oracle(chain, w)) <= scale


def test_shift_residuals_match_prefix_enumeration_off_solution():
    # The uniform root vector does not solve the traffic system of this walk,
    # and its measure is far from shift-invariant.  Two-step invariance on two
    # factors holds for every positive root vector, so tau2 stays near 0.
    product, _ = z2z3_walk(0.3, 0.1)
    chain = build_chain(product, RootVector(product, np.full(product.nletters, 1 / 3)))
    words = normal_words(product, 3)
    assert max(tau1_residual_oracle(chain, w) for w in words) > 1e-2
    for residual, oracle in ((functools.partial(_shift_residual, steps=1), tau1_residual_oracle),
                             (tau2_invariance_residual, tau2_residual_oracle)):
        expected = [oracle(chain, w) for w in words]
        for w, value in zip(words, expected):
            scale = 1e-13 * cylinder_prob(chain, w)
            assert residual(chain, w) == pytest.approx(value, rel=1e-13, abs=scale)


def test_shift_residuals_three_factors():
    product, mu = uniform_per_factor([2, 3, 4])
    _, chain = chain_for(product, mu)
    for w in normal_words(product, 3):
        scale = 1e-13 * cylinder_prob(chain, w)
        assert abs(_shift_residual(chain, w, 1) - tau1_residual_oracle(chain, w)) <= scale
    with pytest.raises(ValueError):
        tau2_invariance_residual(chain, product.word([Letter(0, 1)]))
    _, two_factor = chain_for(*hecke_simple(3))
    with pytest.raises(ValueError):
        _shift_residual(two_factor, Word(()), 1)
    with pytest.raises(ValueError):
        tau2_invariance_residual(two_factor, Word(()))


@pytest.mark.parametrize("length", [2, 3])
def test_max_shift_residual_is_the_per_word_maximum_bitwise(length):
    # criterion 8's battery: two and three factors, stationary or not
    for name, (product, mu) in _battery():
        _, chain = chain_for(product, mu)
        words = normal_words(product, length)
        for steps in (1, 2) if product.nfactors == 2 else (1,):
            expected = max(_shift_residual(chain, w, steps) for w in words)
            assert max_shift_residual(chain, length, steps) == expected, (name, steps)


@pytest.mark.parametrize("length", [2, 3])
def test_max_mu_invariance_residual_is_the_per_word_maximum_bitwise(length):
    # criterion 8's battery, against the residual summed one cylinder at a time
    for name, (product, mu) in _battery():
        _, chain = chain_for(product, mu)
        expected = max(mu_invariance_residual(chain, mu, w) for w in normal_words(product, length))
        assert max_mu_invariance_residual(chain, mu, length) == expected, name


def test_max_tau2_residual_on_118_letters_is_the_per_word_maximum():
    product, mu = uniform_per_factor([60, 60], [0.5, 0.5])
    _, chain = chain_for(product, mu)
    expected = max(tau2_invariance_residual(chain, w) for w in normal_words(product, 2))
    assert max_shift_residual(chain, 2, steps=2) == expected


def test_mu_invariance_identity_small_cylinders():
    cases = [zkzk_simple(4), hecke_simple(3), hecke_simple(4), z2z3_walk(0.5, 0.1), z2z2z2(0.28)]
    for product, mu in cases:
        _, chain = chain_for(product, mu)
        assert max_mu_invariance_residual(chain, mu, 4) < 1e-10


def test_mu_invariance_fails_for_wrong_measure():
    # the uniform root vector is not mu-invariant for a lopsided walk
    product, mu = z2z3_walk(0.6, 0.1)
    from freewalk.traffic import RootVector

    wrong = build_chain(product, RootVector(product, np.full(product.nletters, 1 / 3)))
    assert max_mu_invariance_residual(wrong, mu, 2) > 1e-3


def test_mu_invariance_catches_a_root_vector_that_tau2_accepts():
    # On two factors tau^2 vanishes for every positive root vector; only
    # mu-invariance tells the uniform vector from the solution.
    product, mu = z2z3_walk(0.3, 0.1)
    wrong = build_chain(product, RootVector(product, np.full(product.nletters, 1 / 3)))
    assert max_mu_invariance_residual(wrong, mu, 2) >= 0.1
    assert max(tau2_invariance_residual(wrong, w) for w in normal_words(product, 2)) <= 1e-15

