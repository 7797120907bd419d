import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from freewalk.groups import (
    LengthTable,
    Letter,
    StateBudgetError,
    Word,
    free_product_of_cyclics,
    letter_lengths,
    natural_lengths,
)
from freewalk.harmonic import build_chain, cylinder_prob
from freewalk.metrics import drift, drift_weighted, entropy, volume
from freewalk import simulate, verify
from freewalk.simulate import (
    STACK_BUDGET,
    _BLOCK,
    _CHUNK,
    _WATCH,
    DriftRun,
    HittingRun,
    PrefixRun,
    _Run,
    _Streams,
    _batch,
    _groups,
    _lockstep,
    check_sizes,
    distribution_entropy,
    estimate_batch,
    estimate_drift,
    estimate_hitting,
    estimate_prefix,
    exact_convolution,
    expected_length,
    trajectories,
)
from freewalk.traffic import StepDistribution, solve_walk
from freewalk.walkspec import (
    hecke_simple,
    minimal_generators,
    uniform_per_factor,
    z2z2z2,
    z2z3_walk,
    zkzk_simple,
)
import oracles
from oracles import (
    _reference_walk,
    convolution_oracle,
    law_as_dict,
    letter_reference,
    lockstep_references,
    word_weight,
)

SEED = 424242


def test_simulate_zero_steps_and_determinism():
    product, mu = zkzk_simple(4)
    (traj,) = trajectories(product, mu, 0, 1, SEED)
    assert traj.lengths.tolist() == [0.0]
    assert len(traj.final) == 0
    a, c = trajectories(product, mu, 2000, 5, SEED)[3:]
    b = trajectories(product, mu, 2000, 4, SEED)[3]
    assert a.final == b.final
    assert np.array_equal(a.lengths, b.lengths)
    assert c.final != a.final


def test_simulate_length_changes_bounded_by_max_weight():
    product, mu = hecke_simple(4)
    lengths = letter_lengths(product, minimal_generators(product))
    (traj,) = trajectories(product, mu, 3000, 1, SEED, lengths)
    deltas = np.abs(np.diff(traj.lengths))
    assert deltas.max() <= lengths.weights.max()
    assert traj.lengths[-1] == word_weight(lengths, traj.final)


def test_simulate_long_run_speed_z4z4():
    product, mu = zkzk_simple(4)
    est = estimate_drift(product, mu, steps=10_000, reps=50, seed=SEED)
    gamma = (math.sqrt(5) - 1) / 4
    assert abs(est.estimate - gamma) <= 5 * est.stderr


def test_estimate_drift_consistent_when_steps_double():
    product, mu = hecke_simple(3)
    e1 = estimate_drift(product, mu, steps=2000, reps=100, seed=SEED)
    e2 = estimate_drift(product, mu, steps=4000, reps=100, seed=SEED + 1)
    gamma = 2 / 15
    assert abs(e1.estimate - gamma) <= 3 * e1.stderr
    assert abs(e2.estimate - gamma) <= 3 * e2.stderr
    assert abs(e1.estimate - e2.estimate) <= 3 * (e1.stderr + e2.stderr)


def test_estimate_drift_weighted_lengths():
    product, mu = zkzk_simple(4)
    lengths = letter_lengths(product, minimal_generators(product))
    est = estimate_drift(product, mu, steps=5000, reps=100, seed=SEED, lengths=lengths)
    assert abs(est.estimate - (3 - math.sqrt(5)) / 2) <= 3 * est.stderr


def test_estimate_drift_weighted_matches_formula_z2z4():
    # Monte Carlo S-length growth as the oracle for the weighted drift formula
    product, mu = hecke_simple(4)
    report = solve_walk(product, mu)
    lengths = letter_lengths(product, minimal_generators(product))
    gamma_s = drift_weighted(product, mu, report.r, lengths)
    est = estimate_drift(product, mu, steps=5000, reps=100, seed=SEED, lengths=lengths)
    assert abs(est.estimate - gamma_s) <= 3 * est.stderr


def test_estimate_hitting_one_step_and_monotonicity():
    product, mu = z2z3_walk(0.3, 0.2)
    target = Letter(1, 1)
    one = estimate_hitting(product, mu, target, horizon=1, reps=3000, seed=SEED)
    sigma = math.sqrt(0.3 * 0.7 / 3000)
    assert abs(one.estimate - 0.3) <= 3 * sigma
    previous = 0.0
    for horizon in (1, 10, 100):
        est = estimate_hitting(product, mu, target, horizon=horizon, reps=1500, seed=SEED)
        assert est.estimate >= previous  # same streams, longer horizon
        previous = est.estimate
    assert "downward" in one.note


def test_estimate_hitting_matches_solver_including_unsupported_letter():
    product, mu = hecke_simple(4)
    report = solve_walk(product, mu)
    target = Letter(1, 2)  # b^2 carries no step mass but is still hit
    est = estimate_hitting(product, mu, target, horizon=1500, reps=3000, seed=SEED)
    assert abs(est.estimate - report.q[target]) <= 3 * est.stderr + 5e-3


def test_estimate_prefix_matches_cylinder_law():
    product, mu = zkzk_simple(4)
    report = solve_walk(product, mu)
    chain = build_chain(product, report.r)
    pre = estimate_prefix(product, mu, steps=800, reps=2500, seed=SEED, prefix_len=2)
    kept = pre.replications - pre.dropped
    assert kept > 2400
    for word, freq in sorted(pre.frequencies.items(), key=lambda kv: -kv[1])[:6]:
        mass = cylinder_prob(chain, word)
        sigma = math.sqrt(mass * (1 - mass) / kept)
        assert abs(freq - mass) <= 4 * sigma


def test_estimate_prefix_total_variation_shrinks_with_steps():
    product, mu = hecke_simple(3)
    report = solve_walk(product, mu)

    def tv(steps, reps=3000):
        pre = estimate_prefix(product, mu, steps=steps, reps=reps, seed=SEED, prefix_len=1)
        total = 0.0
        for u in product.alphabet:
            freq = pre.frequencies.get(product.word([u]), 0.0)
            total += abs(freq - report.r[u])
        return 0.5 * total

    assert tv(600) < tv(12)


def test_exact_convolution_small_laws():
    product, mu = hecke_simple(3)
    law1 = law_as_dict(exact_convolution(product, mu, 1))
    for u in product.alphabet:
        assert abs(law1.get(product.word([u]), 0.0) - mu[u]) < 1e-15
    law2 = law_as_dict(exact_convolution(product, mu, 2))
    assert abs(law2[Word(())] - 1 / 3) < 1e-15  # sum of mu(a) mu(a^-1)
    for n in (3, 6):
        law = law_as_dict(exact_convolution(product, mu, n))
        assert abs(sum(law.values()) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "walk, n",
    [(lambda: zkzk_simple(3), 8), (lambda: zkzk_simple(4), 5), (lambda: z2z3_walk(0.5, 0.1), 6),
     (lambda: hecke_simple(4), 6), (lambda: uniform_per_factor([3, 4, 5]), 3),
     (lambda: _high_letters(), 2)],
    ids=["z3z3", "z4z4", "z2z3", "hecke4-unsupported-letter", "three-factors", "258-letters"],
)
def test_exact_convolution_matches_dict_push_forward_bitwise(walk, n):
    # same words, in the same order, each mass summed in the same order; and
    # E|X| in natural and in minimal-generator lengths equals the sum taken
    # word by word over the dict
    product, mu = walk()
    minimal = _minimal(product, mu)
    for m in range(n + 1):
        law, expected = exact_convolution(product, mu, m), convolution_oracle(product, mu, m)
        assert len(law) == len(expected)
        words = law_as_dict(law)
        assert list(words) == list(expected)
        assert [p.hex() for p in words.values()] == [p.hex() for p in expected.values()]
        for table in (None, minimal):
            direct = sum(mass * (len(word) if table is None else word_weight(table, word))
                         for word, mass in expected.items())
            assert expected_length(law, table).hex() == direct.hex()


def test_exact_convolution_budget_guard(monkeypatch):
    product, mu = zkzk_simple(4)
    monkeypatch.setattr("freewalk.simulate.CONVOLUTION_BUDGET", 100)
    with pytest.raises(StateBudgetError):
        exact_convolution(product, mu, 8)


def test_entropy_subadditive():
    product, mu = hecke_simple(3)
    h = {n: distribution_entropy(exact_convolution(product, mu, n)) for n in range(1, 11)}
    for n, m in ((2, 2), (3, 4), (5, 5), (4, 6)):
        assert h[n + m] <= h[n] + h[m] + 1e-12


def test_expected_length_trend_toward_drift():
    product, mu = zkzk_simple(3)
    report = solve_walk(product, mu)
    gamma = drift(product, mu, report.r)
    lengths = {n: expected_length(exact_convolution(product, mu, n)) for n in range(3, 9)}
    gap8 = lengths[8] - lengths[7] - gamma
    gap4 = lengths[4] - lengths[3] - gamma
    assert 0.0 < gap8 < 0.05
    assert abs(gap8) < abs(gap4)
    assert lengths[8] / 8 >= gamma  # per-step mean approaches gamma from above


def test_expected_length_weighted():
    product, mu = zkzk_simple(4)
    lengths = letter_lengths(product, minimal_generators(product))
    law = exact_convolution(product, mu, 4)
    natural = expected_length(law)
    weighted = expected_length(law, lengths)
    assert weighted >= natural  # a^2-letters count twice


def test_estimates_pinned_for_fixed_seeds():
    # Literals recorded from the per-letter stepper; the integer-stack
    # stepper must reproduce them exactly from the same Philox streams.
    product, mu = zkzk_simple(4)
    est = estimate_drift(product, mu, steps=500, reps=20, seed=SEED)
    assert est.estimate == 0.31300000000000006
    lengths = letter_lengths(product, minimal_generators(product))
    est = estimate_drift(product, mu, steps=500, reps=20, seed=SEED, lengths=lengths)
    assert est.estimate == 0.3832000000000001
    product, mu = hecke_simple(3)
    pre = estimate_prefix(product, mu, steps=300, reps=40, seed=SEED, prefix_len=2)
    assert pre.dropped == 0
    assert {str(w): f for w, f in pre.frequencies.items()} == {
        "0:1.1:1": 0.25, "0:1.1:2": 0.325, "1:1.0:1": 0.175, "1:2.0:1": 0.25,
    }
    product, mu = z2z3_walk(0.3, 0.2)
    hit = estimate_hitting(product, mu, Letter(1, 1), horizon=200, reps=50, seed=SEED)
    assert hit.estimate == 0.64


@pytest.mark.parametrize(
    "walk",
    [lambda: zkzk_simple(4), lambda: z2z3_walk(0.5, 0.1), lambda: uniform_per_factor([3, 4, 5])],
    ids=["z4z4", "z2z3", "uniform-z3z4z5"],
)
def test_entropy_is_monte_carlo_speed_in_green_metric(walk):
    # h is the drift in the Green metric -log q, so the simulator with those
    # letter weights estimates it independently of the entropy formula.
    product, mu = walk()
    report = solve_walk(product, mu)
    green = LengthTable(product, -np.log(report.q.values))
    est = estimate_drift(product, mu, steps=2000, reps=200, seed=20240809, lengths=green)
    h = entropy(product, mu, report.r, report.q)
    assert abs(est.estimate - h) <= 3 * est.stderr


def test_length_table_keeps_float_weights():
    # Green-metric weights -log q are floats; the accessors must not truncate them.
    product, mu = zkzk_simple(4)
    report = solve_walk(product, mu)
    green = LengthTable(product, -np.log(report.q.values))
    weight = dict(zip(product.alphabet, green.weights.tolist()))
    w = product.word([Letter(0, 1), Letter(1, 2), Letter(0, 3)])
    assert word_weight(green, product.word([Letter(1, 2)])) == weight[Letter(1, 2)]
    assert word_weight(green, w) == pytest.approx(sum(weight[u] for u in w), rel=1e-15)
    assert green.weights.max() == max(weight.values())
    law = exact_convolution(product, mu, 3)
    direct = sum(mass * sum(weight[u] for u in word) for word, mass in law_as_dict(law).items())
    assert expected_length(law, green) == pytest.approx(direct, rel=1e-14)
    assert word_weight(green, Word(())) == 0.0
    # scaling every letter weight by c divides the growth rate by c
    scaled = LengthTable(product, np.full(product.nletters, 1.5))
    assert volume(product, scaled) == pytest.approx(volume(product, natural_lengths(product)) / 1.5)


def _minimal(product, mu):
    return letter_lengths(product, minimal_generators(product))


def _high_letters():
    # 258 letters; most mass on the three whose cells (index + 1) exceed 255
    product = free_product_of_cyclics(130, 130)
    probs = np.zeros(product.nletters)
    probs[[0, 127, 255, 256, 257]] = [0.25, 0.25, 0.2, 0.15, 0.15]
    return product, StepDistribution(product, probs)


def _green(product, mu):
    return LengthTable(product, -np.log(solve_walk(product, mu).q.values))


@pytest.mark.parametrize(
    "walk, lengths, target, steps, reps",
    [
        (lambda: zkzk_simple(4), None, Letter(0, 1), 60, 30),
        (lambda: hecke_simple(4), _minimal, Letter(1, 2), 60, 30),  # b^2 carries no step mass
        (lambda: z2z3_walk(0.5, 0.1), _green, Letter(1, 1), 60, 30),
        (lambda: uniform_per_factor([3, 4, 5]), _minimal, Letter(2, 4), 40, 30),
        (lambda: hecke_simple(3), None, Letter(0, 1), 5, _BLOCK + 1),
        (lambda: zkzk_simple(3), _minimal, Letter(1, 2), _CHUNK + 6, 2),
        (_high_letters, None, Letter(1, 129), 30, 20),
        # prefix and hitting blocks settle near step 1,400 and draw no second chunk
        (lambda: uniform_per_factor([3, 4, 5]), None, Letter(0, 1), _CHUNK + 16, 20),
        # both walks are deeper than 17 at step 1,136, and walk 0 first hits c at step 3,919
        (lambda: z2z2z2(0.4999), None, Letter(2, 1), 4000, 2),
        # 1,000 hitting walks hit a and leave before step _CHUNK; 25 draw a second chunk
        (lambda: z2z2z2(0.4999), None, Letter(0, 1), _CHUNK + 512, _BLOCK + 1),
        # codes reach 16 * 17 - 1 = 271: an add of two uint8 operands would wrap
        (lambda: uniform_per_factor([9, 9]), None, Letter(1, 8), 60, 30),
    ],
    ids=["natural", "minimal-unsupported-target", "green", "three-factors", "block-boundary",
         "chunk-boundary", "uint16-cells", "settled-stop", "late-return", "walks-leave-mid-chunk",
         "16-letters"],
)
def test_lockstep_matches_scalar_reference(walk, lengths, target, steps, reps):
    # The lockstep estimators must reproduce the one-walk-at-a-time stepper
    # bit for bit: same Philox streams, same letter action, same float sums.
    product, mu = walk()
    table = lengths(product, mu) if lengths else None
    seed = 20240917
    drift, hitting, prefixes = lockstep_references(product, mu, target, steps, reps, seed, table)
    assert estimate_drift(product, mu, steps, reps, seed, lengths=table) == drift
    assert estimate_hitting(product, mu, target, steps, reps, seed) == hitting
    for prefix_len, prefix in zip((1, 3), prefixes):
        assert estimate_prefix(product, mu, steps, reps, seed, prefix_len) == prefix


@pytest.mark.parametrize(
    "call",
    [
        lambda p, m: estimate_drift(p, m, steps=0, reps=10, seed=SEED),
        lambda p, m: estimate_drift(p, m, steps=10, reps=1, seed=SEED),
        lambda p, m: estimate_prefix(p, m, steps=0, reps=10, seed=SEED, prefix_len=1),
        lambda p, m: estimate_prefix(p, m, steps=10, reps=0, seed=SEED, prefix_len=1),
        lambda p, m: estimate_prefix(p, m, steps=10, reps=10, seed=SEED, prefix_len=0),
        lambda p, m: estimate_hitting(p, m, Letter(0, 1), horizon=0, reps=10, seed=SEED),
        lambda p, m: estimate_hitting(p, m, Letter(0, 1), horizon=-3, reps=10, seed=SEED),
        lambda p, m: estimate_hitting(p, m, Letter(9, 1), horizon=10, reps=1, seed=SEED),
    ],
    ids=["drift-steps", "drift-reps", "prefix-steps", "prefix-reps", "prefix-len",
         "hitting-horizon-0", "hitting-horizon-negative", "hitting-reps-before-letter"],
)
def test_estimators_reject_bad_sizes_before_drawing(call, monkeypatch):
    product, mu = zkzk_simple(4)

    def no_draws(*args, **kwargs):
        raise AssertionError("drew letters for a rejected run")

    monkeypatch.setattr("freewalk.simulate._Streams.words", no_draws)
    with pytest.raises(ValueError, match="need steps >= 1 and reps >= 2|prefix_len must be >= 1"):
        call(product, mu)


def test_sizes_past_the_stack_budget_are_rejected():
    # criterion 12's drift run, the largest in the package, is far inside the budget
    check_sizes(10_000, 200)
    steps = STACK_BUDGET // _BLOCK - 1  # the most steps that a full block may take
    check_sizes(steps, 10**6)
    with pytest.raises(ValueError, match="cells"):
        check_sizes(steps + 1, 10**6)
    check_sizes(steps, 2, recorded=_BLOCK)
    with pytest.raises(ValueError, match="cells"):
        check_sizes(steps, 2, recorded=_BLOCK + 1)
    # a settling run reading cells 1..read keeps (steps + read) // 2 + _WATCH
    # rows above cell 0: a hitting run (read 1) takes at most 195,278 steps
    for read, most in ((1, 195_278), (3, 195_276)):
        assert (most + read) // 2 + _WATCH + 1 == STACK_BUDGET // _BLOCK
        check_sizes(most, 10**6, read)
        with pytest.raises(ValueError, match="cells"):
            check_sizes(most + 1, 10**6, read)
    # each walk keeps its depth, weight, hit flag, drift value and prefix cells
    for prefix_len in (1, 3):
        reps = STACK_BUDGET // (prefix_len + 4)
        check_sizes(1, reps, prefix_len)
        with pytest.raises(ValueError, match="cells"):
            check_sizes(1, reps + 1, prefix_len)


def test_trajectories_past_the_stack_budget_are_rejected(monkeypatch):
    product, mu = zkzk_simple(4)

    class Stepped(Exception):
        pass

    def lockstep(*args, **kwargs):
        raise Stepped

    # _lockstep allocates the recorded lengths and the stack; a rejected run never reaches it
    monkeypatch.setattr("freewalk.simulate._lockstep", lockstep)
    reps = 10
    steps = STACK_BUDGET // reps - 1  # reps * (steps + 1) recorded lengths fill the budget
    with pytest.raises(Stepped):
        trajectories(product, mu, steps, reps, SEED)
    with pytest.raises(ValueError, match="cells"):
        trajectories(product, mu, steps + 1, reps, SEED)


def test_lockstep_memory_stays_bounded():
    # 4,000 walks of 300 steps: a float64 or intp array of reps x steps
    # would take 9.2 MiB and 4,000 live generators about 2.3 MiB, while the
    # blocks' stack of 167 rows and drawn letters take 0.46 MiB.
    product, mu = zkzk_simple(4)
    estimate_prefix(product, mu, steps=10, reps=2, seed=SEED, prefix_len=1)  # fill the table caches
    tracemalloc.start()
    try:
        estimate_prefix(product, mu, steps=300, reps=4000, seed=SEED, prefix_len=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _clustered():
    # ten masses of 1e-12 to 6e-12: five cdf values inside the first cell
    # and six inside the cell of 0.3
    product = free_product_of_cyclics(7, 7)
    probs = np.array([1e-12, 2e-12, 1e-12, 3e-12, 1e-12, 0.3, 1e-12, 6e-12, 1e-12, 2e-12, 1e-12, 0.0])
    probs[-1] = 1.0 - probs.sum()
    return product, StepDistribution(product, probs)


def _zero_ends():
    # zero masses first, in the middle and last: ties at 0, inside and at 1
    product = free_product_of_cyclics(3, 5)
    return product, StepDistribution(product, np.array([0.0, 0.0, 0.4, 0.0, 0.6, 0.0]))


@pytest.mark.parametrize(
    "walk, passes",
    [(lambda: zkzk_simple(4), 0), (lambda: uniform_per_factor([3, 4, 5]), 1), (_zero_ends, 1),
     (_clustered, 6), (_high_letters, 1)],
    ids=["z4z4-ties", "ninths", "zero-ends", "clustered-1e-12", "258-letters"],
)
def test_guide_table_matches_binary_search(walk, passes):
    # The guide table must give searchsorted(cdf, u, side="right") for the
    # uniform u = (w >> 11) * 2**-53 of every word w, also where the top 53
    # bits sit at ceil(cdf * 2**53) or at a cell edge or one off them, and the
    # one-walk stepper must walk by its letters.
    product, mu = walk()
    streams = _Streams(mu, SEED, 1)
    assert streams.passes == passes
    cdf = np.cumsum(mu.probs)
    raw = np.random.Philox(SEED).random_raw(20_000)
    top = np.concatenate([np.ceil(cdf * 2**53).astype(np.uint64),
                          np.arange(streams.cells, dtype=np.uint64) * (2**53 // streams.cells)])
    top = np.concatenate([top, top - 1, top + 1])
    top = top[top < 2**53]  # 0 - 1 wraps past it
    w = np.concatenate([(top << 11) | (raw[: len(top)] & 2047), raw])  # low bits are not read
    offsets = letter_reference(mu, (w >> 11) / 2**53) * (product.nletters + 1)  # see _Steps
    assert np.array_equal(streams.offsets(w), offsets)
    traj = trajectories(product, mu, 500, 8, SEED)[7]
    stack = []
    for step, (_, _, stack) in enumerate(_reference_walk(product, mu, 500, SEED, 7), start=1):
        assert traj.lengths[step] == len(stack)
    assert traj.final == product.word([product.alphabet[i] for i in stack])


def test_settled_blocks_stop_drawing(monkeypatch):
    # Every walk of uniform Z/3 * Z/4 * Z/5 is deeper than the steps left
    # long before step _CHUNK, so prefix and hitting draw one chunk per walk;
    # drift reads every step and draws both.
    product, mu = uniform_per_factor([3, 4, 5])
    drawn = []
    words = _Streams.words

    def counted(self, stream, skip, out):
        drawn.append(skip)
        words(self, stream, skip, out)

    monkeypatch.setattr(_Streams, "words", counted)
    estimate_prefix(product, mu, _CHUNK + 16, 20, SEED, prefix_len=2)
    estimate_hitting(product, mu, Letter(0, 1), _CHUNK + 16, 20, SEED)
    assert drawn == [0] * 40
    drawn.clear()
    estimate_drift(product, mu, _CHUNK + 16, 20, SEED)
    assert drawn == [0] * 20 + [_CHUNK] * 20


def test_walks_that_left_draw_nothing_after_a_chunk_boundary(monkeypatch):
    # On Z/2 * Z/2 * Z/2 with mu(c) = 2e-4 the walks move nearly on a line
    # and settle one by one, at the first look at which a walk has hit c or
    # is deeper than the steps left plus one.  Walks that left at a look up
    # to step _CHUNK draw no second chunk; the others draw it.
    product, mu = z2z2z2(0.4999)
    horizon, reps, goal = _CHUNK + 16, 40, [product.letter_index(Letter(2, 1))]
    stepping = []  # the walks still stepping after the look at step _CHUNK
    for rep in range(reps):
        hit = False
        for step, (_, _, stack) in enumerate(_reference_walk(product, mu, _CHUNK, SEED, rep), 1):
            hit = hit or stack == goal
            if step % _WATCH == 0 and (hit or len(stack) > horizon - step + 1):
                break
        else:
            stepping.append(rep)
    assert 0 < len(stepping) < reps // 4
    drawn = []
    words = _Streams.words

    def counted(self, stream, skip, out):
        drawn.append((skip, stream))
        words(self, stream, skip, out)

    monkeypatch.setattr(_Streams, "words", counted)
    expected = [(0, rep) for rep in range(reps)] + [(_CHUNK, rep) for rep in stepping]
    estimate_hitting(product, mu, Letter(2, 1), horizon, reps, SEED)
    assert drawn == expected
    drawn.clear()
    estimate_prefix(product, mu, horizon, reps, SEED, prefix_len=1)  # no walk hits c here
    assert drawn == expected


_DEPTH = 2 * _WATCH  # depth at the look after step _DEPTH
_CLIMB = [1, 2] * (_DEPTH // 2)


@pytest.mark.parametrize(
    "walk, goal, paths, left",
    [
        # b c b c ... down through the empty word to a: on Z/2 * Z/2 * Z/2 the
        # first letter changes only there, so d + 1 steps are just enough
        (lambda: z2z2z2(1 / 3), Letter(0, 1),
         [_CLIMB + _CLIMB[::-1] + [0], [1, 2] * _DEPTH + [1]], _DEPTH + 1),
        # a b a b ... down to a, then a * a = a^2: d steps are just enough
        (lambda: zkzk_simple(3), Letter(0, 2),
         [[0, 2] * (_DEPTH // 2) + [3, 1] * (_DEPTH // 2 - 1) + [3, 0], [2, 0] * _DEPTH], _DEPTH),
    ],
    ids=["z2z2z2-through-empty", "z3z3-at-depth-1"],
)
def test_settled_stop_keeps_a_hit_on_the_last_step(monkeypatch, walk, goal, paths, left):
    # Walk 0 climbs to depth d without cancelling, cancels back down and hits
    # the goal on its last step; at the look after step d it sits at depth d
    # with the fewest steps left that can still reach the goal.  Walk 1 keeps
    # climbing and never hits.
    product, mu = walk()
    horizon = len(paths[0])
    assert horizon == len(paths[1]) == _DEPTH + left
    _script(monkeypatch, mu, paths)
    assert estimate_hitting(product, mu, goal, horizon, 2, SEED).estimate == 0.5


def _script(monkeypatch, mu, paths):
    # Walk j draws the letters paths[j]: the top 53 bits of each word encode
    # the uniform (letter + 0.5) / n, and each letter has mass 1 / n.
    n = len(mu.probs)
    letter_words = ((np.arange(n) + 0.5) / n * 2**53).astype(np.uint64) << 11
    assert np.array_equal(letter_reference(mu, (letter_words >> 11) / 2**53), np.arange(n))

    def scripted(self, stream, skip, out):
        out[:] = letter_words[paths[stream][skip : skip + len(out)]]

    monkeypatch.setattr(_Streams, "words", scripted)
    monkeypatch.setattr(oracles, "_reference_letters",
                        lambda mu, steps, seed, rep: paths[rep][:steps])


@pytest.mark.parametrize("read", [1, 3])
def test_settling_walks_reach_the_stack_depth_bound(monkeypatch, read):
    # A walk that climbs without cancelling is t deep at the look at step t,
    # stays while t <= steps - t + read and then climbs _WATCH more steps:
    # with (steps + read) // 2 a look, it writes the stack's top row,
    # (steps + read) // 2 + _WATCH.  Walk 1 hits a at once and then moves
    # between a and a b.
    product, mu = z2z2z2(1 / 3)
    look = 2 * _WATCH
    steps = 2 * look - read
    assert steps % _WATCH and (steps + read) // 2 == look
    paths = [[1, 2] * steps, [0] + [1] * steps]
    _script(monkeypatch, mu, paths)
    depths = [len(stack) for _, _, stack in _reference_walk(product, mu, steps, SEED, 0)]
    assert depths[look + _WATCH - 1] == (steps + read) // 2 + _WATCH
    drift, hitting, prefixes = lockstep_references(product, mu, Letter(0, 1), steps, 2, SEED,
                                                   prefix_lens=(read,))
    assert estimate_prefix(product, mu, steps, 2, SEED, read) == prefixes[0]
    if read == 1:
        assert estimate_hitting(product, mu, Letter(0, 1), steps, 2, SEED) == hitting
        assert hitting.estimate == 0.5


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _count_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _near_line():
    return z2z2z2(0.4999)  # many walks end shorter than the prefix


@pytest.mark.parametrize(
    "walk, options, steps",
    [
        (lambda: hecke_simple(3), lambda p, m: {"weights": natural_lengths(p).weights}, 40),
        (lambda: uniform_per_factor([3, 4, 5]), lambda p, m: {"weights": _minimal(p, m).weights},
         40),
        (_near_line, lambda p, m: {"prefix_len": 1}, 40),
        (_near_line, lambda p, m: {"prefix_len": 2}, 40),
        # about half the walks go up, down and up, and never write cell 2
        (_near_line, lambda p, m: {"prefix_len": 2}, 3),
        (lambda: hecke_simple(3), lambda p, m: {"goal": p.letter_index(Letter(0, 1))}, 40),
    ],
    ids=["drift-natural", "drift-minimal", "prefix-1", "prefix-2", "prefix-2-short", "hitting"],
)
def test_blocks_stepped_in_forked_processes_keep_every_bit(monkeypatch, walk, options, steps):
    # Four blocks on one CPU, and on four, where the caller steps the first
    # and three forked children one each; the prefix cells above a short
    # walk's depth read 0 in both, whichever block ran before it.
    product, mu = walk()
    kwargs = options(product, mu)
    reps = 3 * _BLOCK + 5
    forks = _count_forks(monkeypatch)
    _cpus(monkeypatch, 1)
    alone = _lockstep(product, mu, steps, reps, SEED, **kwargs)
    assert forks == []
    _cpus(monkeypatch, 4)
    forked = _lockstep(product, mu, steps, reps, SEED, **kwargs)
    assert len(forks) == 3
    for one, four in zip(alone[:4], forked[:4]):
        assert one.dtype == four.dtype and one.shape == four.shape
        assert one.tobytes() == four.tobytes()
    above = np.arange(1, len(alone.prefix) + 1)[:, None] > alone.depth
    assert above[:, _BLOCK:].any() == bool(kwargs.get("prefix_len"))
    assert not alone.prefix[above].any()


def test_a_failed_fork_steps_the_group_in_the_caller(monkeypatch):
    product, mu = _near_line()
    reps = 3 * _BLOCK + 5
    _cpus(monkeypatch, 1)
    alone = _lockstep(product, mu, 40, reps, SEED, prefix_len=2)

    def no_fork():
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    _cpus(monkeypatch, 4)
    kept = _lockstep(product, mu, 40, reps, SEED, prefix_len=2)
    for one, other in zip(alone[:4], kept[:4]):
        assert one.tobytes() == other.tobytes()


class _ChildFailed(Exception):
    pass


def _raise(stream):
    raise _ChildFailed(f"stream {stream}")


def _die(stream):
    os._exit(3)


def _one_run(product, mu):
    return estimate_prefix(product, mu, 40, 3 * _BLOCK + 5, SEED, prefix_len=1)


def _two_run_batch(product, mu):
    # two runs of two blocks each: the caller steps the prefix run's first block
    return estimate_batch([PrefixRun(product, mu, 40, 2 * _BLOCK, SEED, 1),
                           HittingRun(product, mu, Letter(0, 1), 40, 2 * _BLOCK, SEED)])


_FAILURES = {"child-raises": (_raise, True, _ChildFailed), "child-dies": (_die, True, RuntimeError),
             "caller-raises": (_raise, False, _ChildFailed)}


@pytest.mark.parametrize(
    "fail, in_child, raised, call",
    [(*failure, call) for call in (_one_run, _two_run_batch) for failure in _FAILURES.values()],
    ids=[*_FAILURES, *(f"two-run-batch-{name}" for name in _FAILURES)],
)
def test_a_failing_block_makes_the_caller_raise_and_leaves_no_process(monkeypatch, fail, in_child,
                                                                      raised, call):
    # The children's blocks, or the caller's first block, fail in their
    # first draw; the others draw as usual.  When the caller fails, its
    # children are still stepping and must be killed.
    product, mu = hecke_simple(3)
    fill = _Streams.fill
    caller = os.getpid()

    def failing(self, picks, streams, skip=0):
        if (os.getpid() != caller) == in_child:
            fail(int(streams[0]))
        fill(self, picks, streams, skip)

    monkeypatch.setattr(_Streams, "fill", failing)
    _cpus(monkeypatch, 4)
    forks = _count_forks(monkeypatch)
    with pytest.raises(raised):
        call(product, mu)
    assert len(forks) == 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_block_recorded_or_threaded_runs_fork_nothing(monkeypatch):
    product, mu = hecke_simple(3)
    _cpus(monkeypatch, 4)
    forks = _count_forks(monkeypatch)
    estimate_drift(product, mu, 40, _BLOCK, SEED)
    assert len(trajectories(product, mu, 5, _BLOCK + 1, SEED)) == _BLOCK + 1
    stop = threading.Event()
    waiting = threading.Thread(target=stop.wait, args=(30,))
    waiting.start()
    try:
        estimate_prefix(product, mu, 40, _BLOCK + 1, SEED, prefix_len=1)
    finally:
        stop.set()
        waiting.join(timeout=30)
    assert not waiting.is_alive()
    assert forks == []


def _mixed_batch():
    # five runs on two products, of one block and of several: 9 blocks
    hecke, hecke_mu = hecke_simple(3)
    three, three_mu = uniform_per_factor([3, 4, 5])
    return [
        _Run(hecke, hecke_mu, 40, 2 * _BLOCK + 3, SEED, weights=natural_lengths(hecke).weights),
        _Run(three, three_mu, 40, 300, SEED + 1, weights=_minimal(three, three_mu).weights),
        _Run(hecke, hecke_mu, 40, _BLOCK + 7, SEED + 2, prefix_len=1),
        _Run(three, three_mu, 40, 50, SEED + 3, prefix_len=2),
        _Run(hecke, hecke_mu, 40, 2 * _BLOCK, SEED + 4, goal=hecke.letter_index(Letter(0, 1))),
    ]


@pytest.mark.parametrize("cpus", [1, 4])
def test_a_mixed_batch_equals_its_runs_stepped_one_at_a_time(monkeypatch, cpus):
    # On four CPUs the caller and three children each step a share of the
    # nine blocks, several runs' blocks in one process and one run's blocks
    # in several; every run's walks are those of the run stepped alone.
    runs = _mixed_batch()
    _cpus(monkeypatch, 1)
    alone = [_lockstep(*run) for run in runs]
    forks = _count_forks(monkeypatch)
    _cpus(monkeypatch, cpus)
    batch = _batch(runs)
    assert len(forks) == cpus - 1
    for one, together in zip(alone, batch, strict=True):
        for a, b in zip(one[:4], together[:4]):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_estimate_batch_reports_what_each_estimator_reports(monkeypatch):
    product, mu = hecke_simple(3)
    three, three_mu = uniform_per_factor([3, 4, 5])
    drift, minimal, prefix, hitting = (
        DriftRun(product, mu, 40, _BLOCK + 5, SEED),
        DriftRun(three, three_mu, 40, 300, SEED + 1, _minimal(three, three_mu)),
        PrefixRun(product, mu, 40, 2 * _BLOCK, SEED + 2, 2),
        HittingRun(three, three_mu, Letter(2, 4), 40, 600, SEED + 3),
    )
    _cpus(monkeypatch, 1)
    alone = [estimate_drift(*drift), estimate_drift(*minimal), estimate_prefix(*prefix),
             estimate_hitting(*hitting)]
    _cpus(monkeypatch, 4)
    assert estimate_batch([drift, minimal, prefix, hitting]) == alone


def test_a_batch_rejects_a_bad_run_before_drawing(monkeypatch):
    product, mu = zkzk_simple(4)

    def no_draws(*args, **kwargs):
        raise AssertionError("drew letters for a rejected batch")

    monkeypatch.setattr("freewalk.simulate._Streams.words", no_draws)
    with pytest.raises(ValueError, match="prefix_len must be >= 1"):
        estimate_batch([DriftRun(product, mu, 10, 10, SEED), PrefixRun(product, mu, 10, 10, SEED, 0)])


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_a_runs_blocks_are_cut_at_whole_shares(monkeypatch, cpus):
    # The n blocks of one run make min(cpus, n) groups, cut before blocks
    # floor(g * n / k), also when its last block is short (4,000 walks on
    # two CPUs: two blocks each); the caller's group is first.
    product, mu = hecke_simple(3)
    _cpus(monkeypatch, cpus)
    for n in range(1, 10):
        for reps in (n * _BLOCK, n * _BLOCK - 96, (n - 1) * _BLOCK + 2):
            groups = _groups([_Run(product, mu, 40, reps, SEED)])
            k = min(cpus, n)
            assert [group[0][1] for group in groups] == [g * n // k * _BLOCK for g in range(k)]
            assert sum(groups, []) == [(0, start) for start in range(0, reps, _BLOCK)]


@pytest.mark.parametrize("cpus, firsts", [
    (2, [(0, 0), (2, 0)]),
    (3, [(0, 0), (1, 0), (3, 0)]),
    (4, [(0, 0), (0, 2 * _BLOCK), (2, 0), (3, 0)]),
])
def test_a_batchs_blocks_are_cut_at_whole_shares_of_their_count(monkeypatch, cpus, firsts):
    # The mixed batch's 9 blocks, in run order, (0, 0), (0, 1024), (0, 2048),
    # (1, 0), (2, 0), (2, 1024), (3, 0), (4, 0), (4, 1024), are cut before
    # blocks floor(g * 9 / k), whatever the runs' steps and widths.
    runs = _mixed_batch()
    _cpus(monkeypatch, cpus)
    groups = _groups(runs)
    assert [group[0] for group in groups] == firsts
    assert len(sum(groups, [])) == 9


def test_criterion_12_steps_one_drift_run_in_each_of_two_processes(monkeypatch):
    # Each product's drift, prefix and hitting runs are 9 blocks (1 + 4 + 4),
    # so two CPUs cut the batch between the products, 12 M walk-steps each.
    cuts = []

    def recorded(runs, groups=simulate._groups):
        cuts.append((runs, groups(runs)))
        return cuts[-1][1]

    monkeypatch.setattr(simulate, "_groups", recorded)
    _cpus(monkeypatch, 2)
    assert verify.run_criterion(12).passed
    [(runs, groups)] = cuts
    drift = {i for i, run in enumerate(runs) if run.weights is not None}
    assert [drift & {i for i, _ in group} for group in groups] == [{0}, {3}]
    assert [sum(min(_BLOCK, runs[i].reps - start) * runs[i].steps for i, start in group)
            for group in groups] == [12_000_000, 12_000_000]
