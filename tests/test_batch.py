"""Lockstep Newton: every row of ``solve_batch`` is its solve as a batch of one.

Rows of a batch share Newton steps and leave it one at a time, so a row's
outcome must not depend on the rows beside it.  Each test stacks the step
laws of a grid on one product and compares every row, bit for bit, with
``solve_walk`` on that row alone: the bytes of q and r, the iteration
count, both residuals and the stationary flag, or the same exception type
and message.
"""

import argparse
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
    drift_weighted,
    entropy,
    metrics_report,
    metrics_walks,
    volume,
)
from freewalk.traffic import (
    DEFAULT_TOL,
    DOMAIN_ERRORS,
    ConsistencyError,
    MaxIterationsError,
    StepDistribution,
    solve_batch,
    solve_walk,
)
from freewalk.walkspec import resolve_generators, z2z2z2

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
