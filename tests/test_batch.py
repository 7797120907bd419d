"""Lockstep Newton: every row of ``solve_batch`` is its solve as a batch of one.

Rows of a batch share Newton steps and leave it one at a time, so a row's
outcome must not depend on the rows beside it.  Each test stacks the step
laws of a grid on one product and compares every row, bit for bit, with
``solve_walk`` on that row alone: the bytes of q and r, the iteration
count, both residuals and the stationary flag, or the same exception type
and message.
"""

import argparse
import collections
import itertools
import math

import numpy as np
import pytest

from freewalk import traffic
from freewalk.cli import _SWEEPS
from freewalk.groups import (
    FreeProduct,
    NonGeneratingSetError,
    free_product_of_cyclics,
    letter_lengths,
    make_cyclic,
    make_finite_group,
    natural_lengths,
)
from freewalk.metrics import (
    QUALITY_GAMMA_FLOOR,
    MetricsReport,
    drift,
    drift_weighted,
    entropy,
    metrics_report,
    metrics_walks,
    volume,
)
from freewalk.traffic import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    DOMAIN_ERRORS,
    ConsistencyError,
    MaxIterationsError,
    StepDistribution,
    solve_batch,
    solve_walk,
)
from freewalk.walkspec import minimal_generators, resolve_generators, z2z2z2

from oracles import S3_TABLE


def assert_rows_match(product, probs, tol=DEFAULT_TOL) -> list:
    """Compare each row of ``solve_batch`` with ``solve_walk`` on the row; return the outcomes."""
    outcomes = solve_batch(product, probs, tol=tol)
    assert len(outcomes) == len(probs)
    for row, got in zip(probs, outcomes):
        try:
            want = solve_walk(product, StepDistribution(product, row), tol=tol)
        except DOMAIN_ERRORS as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
            continue
        assert not isinstance(got, Exception), got
        assert got.q.values.tobytes() == want.q.values.tobytes()
        assert got.r.values.tobytes() == want.r.values.tobytes()
        assert got.iterations == want.iterations
        assert got.sup_residual.hex() == want.sup_residual.hex()
        assert got.traffic_residual.hex() == want.traffic_residual.hex()
        assert got.stationary == want.stationary
    return outcomes


def sweep_walks(family, **options):
    """The walks of one CLI sweep family's grid, skipping points its builder rejects."""
    args = argparse.Namespace(**{"resolution": 0.1, "k": 4, "k_min": 3, "k_max": 8, **options})
    _, grid, _, walk = _SWEEPS[family]
    for params in grid(args):
        try:
            yield walk(args, *params)
        except DOMAIN_ERRORS:
            pass


@pytest.mark.parametrize("family, options", [
    ("z2z3", {}),
    ("z3z3-sym", {"resolution": 0.05}),
    ("z3z3-asym", {}),
    ("zkzk", {}),
    ("hecke", {}),
    ("quality-zkzk-minimal", {"resolution": 0.05}),
    ("quality-zkzk-minimal", {"resolution": 0.1, "k": 64}),
])
def test_sweep_family_rows_match_single_solves(family, options):
    outcomes = []
    for product, run in itertools.groupby(sweep_walks(family, **options), key=lambda w: w[0]):
        outcomes += assert_rows_match(product, np.array([mu.probs for _, mu in run]))
    assert any(not isinstance(o, Exception) for o in outcomes)
    if family == "z2z3":  # the simplex edges do not generate Z/3
        assert any(isinstance(o, NonGeneratingSetError) for o in outcomes)


def test_quality_sup_grid_rows_match_single_solves():
    # Z/4 * Z/4, minimal generators: mass m/1000 on {a, a^-1}, the rest on {b, b^-1}
    product = free_product_of_cyclics(4, 4)
    m = np.arange(1, 1000)
    probs = np.zeros((len(m), product.nletters))
    probs[:, [0, 2]] = (m / 1000 / 2)[:, None]
    probs[:, [3, 5]] = ((1000 - m) / 1000 / 2)[:, None]
    outcomes = assert_rows_match(product, probs)
    assert all(not isinstance(o, Exception) for o in outcomes)


@pytest.mark.parametrize("product", [
    free_product_of_cyclics(2, 3),
    FreeProduct([make_finite_group(S3_TABLE), make_cyclic(2), make_cyclic(4)]),
], ids=["Z2*Z3", "S3*Z2*Z4"])
def test_dirichlet_rows_match_single_solves(product):
    rng = np.random.default_rng(2024)
    outcomes = assert_rows_match(product, rng.dirichlet(np.ones(product.nletters), size=40))
    assert all(not isinstance(o, Exception) for o in outcomes)


def test_mixed_batch_keeps_each_rows_outcome():
    product = free_product_of_cyclics(2, 2, 2)
    rows = [
        z2z2z2(0.3)[1].probs,
        [0.5, 0.5, 0.0],  # the third factor is not generated
        z2z2z2(1e-7)[1].probs,  # a floating-point fixed point: fails after 7 iterations
        z2z2z2(1e-5)[1].probs,  # eps * kappa > tol: the exact-residual finish runs
        [0.5, 0.6, -0.1],  # a negative mass
        [math.nan, 0.5, 0.5],
        z2z2z2(0.1)[1].probs,
    ]
    outcomes = assert_rows_match(product, np.array(rows))
    assert [type(o) for o in outcomes] == [
        traffic.SolveReport, NonGeneratingSetError, MaxIterationsError, traffic.SolveReport,
        ValueError, ValueError, traffic.SolveReport,
    ]
    assert "after 7 iterations" in str(outcomes[2])


def test_solve_batch_leaves_the_diagnostics_to_their_readers(monkeypatch):
    # a row evaluates the hitting map once per Newton step and once to
    # confirm, and no diagnostic; reading sup_residual evaluates it once more
    product = free_product_of_cyclics(3, 4, 5)
    probs = np.random.default_rng(28).dirichlet(np.ones(product.nletters), size=9)
    calls = collections.Counter()

    def counted(name):
        kernel = getattr(traffic, name)

        def call(s, p, *args):
            calls[name] += 1 if p.ndim == 1 else len(p)
            return kernel(s, p, *args)
        return call

    for name in ("_phi_array", "_traffic_residual", "_stationary"):
        monkeypatch.setattr(traffic, name, counted(name))
    reports = solve_batch(product, probs)
    assert calls == {"_phi_array": sum(report.iterations + 1 for report in reports)}
    assert all(report.sup_residual < 1e-12 for report in reports)
    assert calls == {"_phi_array": sum(report.iterations + 2 for report in reports)}


def test_budget_failures_leave_the_batch_alone():
    # with max_iter 3 Newton's budget runs out on every row; each fails on its own count
    product = free_product_of_cyclics(2, 3)
    probs = np.array([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2], [1e-9, 0.5 - 1e-9, 0.5]])
    outcomes = solve_batch(product, probs, max_iter=3)
    for row, got in zip(probs, outcomes):
        with pytest.raises((MaxIterationsError, ConsistencyError)) as info:
            solve_walk(product, StepDistribution(product, row), max_iter=3)
        assert type(got) is info.type and str(got) == str(info.value)


def test_batch_split_at_the_chunk_size_equals_its_parts(monkeypatch):
    product = free_product_of_cyclics(2, 3)
    rng = np.random.default_rng(5)
    probs = rng.dirichlet(np.ones(3), size=23)
    probs[7] = [0.0, 0.5, 0.5]  # NonGeneratingSetError
    whole = solve_batch(product, probs)
    monkeypatch.setattr(traffic, "JACOBIAN_FLOATS", 5 * product.nletters**2)  # 5 rows a chunk
    chunked = solve_batch(product, probs)
    parts = [o for start in range(0, len(probs), 5) for o in solve_batch(product, probs[start:start + 5])]
    for a, b, c in zip(whole, chunked, parts):
        if isinstance(a, Exception):
            assert type(a) is type(b) is type(c) and str(a) == str(b) == str(c)
        else:
            assert a.q.values.tobytes() == b.q.values.tobytes() == c.q.values.tobytes()
            assert a.iterations == b.iterations == c.iterations


def test_probabilities_of_the_wrong_shape_raise():
    product = free_product_of_cyclics(2, 3)
    for bad in (np.full((4, 4), 0.25), np.array([0.2, 0.3, 0.5]), np.zeros((2, 3, 3))):
        with pytest.raises(ValueError, match="shape"):
            solve_batch(product, bad)
    assert solve_batch(product, np.zeros((0, 3))) == []
    with pytest.raises(ValueError, match="tolerance must be in"):
        solve_batch(product, np.array([[0.2, 0.3, 0.5]]), tol=0.0)


def test_metrics_walks_batch_separately_built_equal_products(monkeypatch):
    # two products built apart from equal tables: one run, one solve_batch
    calls = []

    def counted(product, probs, tol=DEFAULT_TOL):
        calls.append(len(probs))
        return solve_batch(product, probs, tol=tol)

    monkeypatch.setattr("freewalk.metrics.solve_batch", counted)
    first = FreeProduct([make_cyclic(3), make_cyclic(4)])
    second = FreeProduct([make_finite_group([list(row) for row in make_cyclic(3).mul]),
                          make_cyclic(4)])
    assert first is not second and first.factors == second.factors
    rng = np.random.default_rng(11)
    walks = [(product, StepDistribution(product, rng.dirichlet(np.ones(product.nletters))))
             for product in (first, second, first)]
    got = metrics_walks(walks, natural_lengths)
    assert calls == [3]
    for (product, mu), m in zip(walks, got):
        assert m == metrics_report(product, mu)


def test_metrics_walks_match_metrics_report():
    # two runs on different products; the Z/4 * Z/4 run is measured in S-length.
    # metrics_report is the batch of one of metrics_rows, so the reference is
    # assembled from the one-row kernels: a fault of the batch path fails it.
    walks = list(sweep_walks("quality-zkzk-minimal", resolution=0.05)) + list(sweep_walks("z2z3"))

    def lengths_of(product):
        gens = "minimal" if product.factors[0].order == 4 else "natural"
        return letter_lengths(product, resolve_generators(product, gens))

    got = metrics_walks(walks, lengths_of)
    assert len(got) == len(walks)
    for (product, mu), m in zip(walks, got):
        try:
            report = solve_walk(product, mu)
        except DOMAIN_ERRORS as exc:
            assert type(m) is type(exc) and str(m) == str(exc)
            continue
        lengths = lengths_of(product)
        gamma = drift_weighted(product, mu, report.r, lengths)
        if gamma <= QUALITY_GAMMA_FLOOR:
            assert type(m) is ValueError and "weighted drift is zero" in str(m)
            continue
        h = entropy(product, mu, report.r, report.q)
        v = volume(product, lengths)
        assert m == MetricsReport(gamma=gamma, entropy=h, volume=v, quality=h / (gamma * v),
                                  hd_measure=h / gamma, hd_support=v, stationary=report.stationary)


def test_a_singular_matrix_stops_only_its_row():
    # np.linalg.solve rejects a whole stack for one singular matrix; the rows
    # are then solved one at a time, and the singular one gets an infinite step
    matrices = np.stack([np.zeros((2, 2)), 2 * np.eye(2)])
    sol = traffic._solve_each(matrices, np.ones((2, 2, 2)))
    assert np.all(np.isinf(sol[0])) and np.array_equal(sol[1], np.full((2, 2), 0.5))


def newton_alone(s, p, tol, max_iter=DEFAULT_MAX_ITER):
    """Newton's method on one step law as ``traffic._newton`` states it; (q, steps, kappa).

    A reference for the loop's row bookkeeping: one row, one matrix a step,
    and a return at each way of stopping.
    """
    n = len(p)
    q, last, x = np.zeros(n), math.inf, np.full(n, math.nan)
    for taken in range(max_iter):
        residual = traffic._phi_array(s, p, q) - q
        sup = np.abs(residual).max()
        if sup <= 0.01 * tol or sup >= last:
            return q, taken, x.max()
        matrix = traffic._i_minus_j(s, q, traffic._back(s, p, q), 0.0 - p[s.inv_index],
                                    0.0 - p[s.pair_u])
        try:
            sol = np.linalg.solve(matrix, np.stack([residual, np.ones(n)], axis=1))
        except np.linalg.LinAlgError:
            return q, taken, x.max()
        candidate = q + sol[:, 0]
        if np.any(candidate <= 0.0) or np.any(candidate >= 1.0):
            return q, taken, x.max()
        q, x, last = candidate, sol[:, 1], sup
    return q, max_iter, x.max()


def test_rows_that_leave_at_one_step_for_each_reason_match_their_solo_solves(monkeypatch):
    # At Newton step 6 the first row stops on its residual (a floating-point
    # fixed point, which then fails its confirming step), the second row's
    # matrix is made singular, so its candidate leaves (0, 1), and the
    # third row goes on to step 7.  No small walk's candidate leaves (0, 1)
    # by itself, since Newton from 0 stays below the fixed point.
    product = free_product_of_cyclics(2, 2, 2)
    s = traffic.letter_tables(product)
    probs = np.array([z2z2z2(1e-7)[1].probs, [0.6, 0.35, 0.05], [0.5, 0.45, 0.05]])
    assert [newton_alone(s, p, DEFAULT_TOL)[1] for p in probs] == [6, 7, 7]
    forced, _, _ = newton_alone(s, probs[1], DEFAULT_TOL, max_iter=6)  # its iterate at step 6
    forced_inv = 0.0 - probs[1][s.inv_index]
    i_minus_j = traffic._i_minus_j

    def singular_at_forced(s, q, back, neg_inv, neg_pair):
        matrices = i_minus_j(s, q, back, neg_inv, neg_pair)
        matrices[np.all(q == forced, axis=-1) & np.all(neg_inv == forced_inv, axis=-1)] = 0.0
        return matrices

    monkeypatch.setattr(traffic, "_i_minus_j", singular_at_forced)
    q, steps, kappa = traffic._newton(s, probs, DEFAULT_TOL, 20)
    assert steps.tolist() == [6, 6, 7]
    for i, p in enumerate(probs):
        want_q, want_steps, want_kappa = newton_alone(s, p, DEFAULT_TOL)
        assert q[i].tobytes() == want_q.tobytes()
        assert steps[i] == want_steps and kappa[i].hex() == want_kappa.hex()
    assert q[1].tobytes() == forced.tobytes()
    outcomes = assert_rows_match(product, probs)
    assert [type(o) for o in outcomes] == [MaxIterationsError, traffic.SolveReport,
                                           traffic.SolveReport]
    assert "after 7 iterations" in str(outcomes[0]) and outcomes[1].iterations == 7


@pytest.mark.parametrize("rows", [0, 1, 2, 7])
def test_index_tables_give_each_row_of_a_stack_its_own_result(rows):
    # a row reads the index tables themselves, a stack their shifted copies;
    # a stack of no rows must still take the shifted path
    product = free_product_of_cyclics(3, 4, 5)  # in-factor pairs in every factor
    s = traffic.letter_tables(product)
    n = product.nletters
    rng = np.random.default_rng(rows)
    x, q, back, mu_inv = rng.random((4, rows, n))
    mu_pair = rng.random((rows, len(s.pair_a)))
    for kernel, y, width in ((s.factor_sums, x, s.nfactors), (s.pair_sums, mu_pair, n),
                             (s.outside, x, n)):
        got = kernel(y)
        assert got.shape == (rows, width)
        for i in range(rows):
            assert got[i].tobytes() == kernel(y[i]).tobytes()
    got = traffic._i_minus_j(s, q, back, -mu_inv, -mu_pair)
    assert got.shape == (rows, n, n)
    for i in range(rows):
        alone = traffic._i_minus_j(s, q[i], back[i], -mu_inv[i], -mu_pair[i])
        assert got[i].tobytes() == alone.tobytes()


def test_one_walks_speeds_equal_its_stack_of_one():
    product = free_product_of_cyclics(3, 4, 5)
    mu = StepDistribution(product, np.random.default_rng(11).dirichlet(np.ones(product.nletters)))
    s = traffic.letter_tables(product)
    tables = dict(vars(s))
    report = solve_walk(product, mu)
    lengths = letter_lengths(product, minimal_generators(product))
    p, r, q = mu.probs[None], report.r.values[None], report.q.values[None]
    assert drift(product, mu, report.r).hex() == float(drift(product, p, r)[0]).hex()
    assert (drift_weighted(product, mu, report.r, lengths).hex()
            == float(drift_weighted(product, p, r, lengths)[0]).hex())
    assert (entropy(product, mu, report.r, report.q).hex()
            == float(entropy(product, p, r, q)[0]).hex())
    # the tables keep no state: solves, stacked ones too, and the kernels set no attribute
    solve_batch(product, np.stack([mu.probs] * 3))
    assert traffic.letter_tables(product) is s
    assert vars(s).keys() == tables.keys() and all(vars(s)[k] is v for k, v in tables.items())
