"""Lockstep Newton: every row of ``solve_batch`` is its solve as a batch of one.

Rows of a batch share Newton steps and leave it one at a time, so a row's
outcome must not depend on the rows beside it.  Each test stacks the step
laws of a grid on one product and compares every row, bit for bit, with
``solve_walk`` on that row alone: the bytes of q and r, the iteration
count, both residuals and the stationary flag, or the same exception type
and message.  A batch of one takes Newton's one-row loop and a larger
stack the lockstep loop, so these comparisons check the two loops against
each other.
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
from freewalk.walkspec import (
    hecke_simple,
    minimal_generators,
    resolve_generators,
    z2z2z2,
    zkzk_simple,
)

from oracles import S3_TABLE, jacobian_oracle


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
    # a row evaluates the hitting map once per Newton step, and its
    # confirming step reuses Newton's last evaluation, so once per iteration
    # in all and no diagnostic; reading sup_residual evaluates it once more
    product = free_product_of_cyclics(3, 4, 5)
    probs = np.random.default_rng(28).dirichlet(np.ones(product.nletters), size=9)
    calls = collections.Counter()

    def counted(name):
        kernel = getattr(traffic, name)

        def call(s, p, *args, **kwargs):
            calls[name] += 1 if p.ndim == 1 else len(p)
            return kernel(s, p, *args, **kwargs)
        return call

    for name in ("_phi_array", "_traffic_residual", "_stationary"):
        monkeypatch.setattr(traffic, name, counted(name))
    reports = solve_batch(product, probs)
    assert calls == {"_phi_array": sum(report.iterations for report in reports)}
    assert all(report.sup_residual < 1e-12 for report in reports)
    assert calls == {"_phi_array": sum(report.iterations + 1 for report in reports)}


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


def test_metrics_walks_batch_interleaved_products_in_input_order(monkeypatch):
    # walks on A, B, A, B: one solve_batch per product, not one per run
    calls = []

    def counted(product, probs, tol=DEFAULT_TOL):
        calls.append(len(probs))
        return solve_batch(product, probs, tol=tol)

    monkeypatch.setattr("freewalk.metrics.solve_batch", counted)
    a, b = free_product_of_cyclics(3, 4), free_product_of_cyclics(2, 5)
    rng = np.random.default_rng(12)
    walks = [(product, StepDistribution(product, rng.dirichlet(np.ones(product.nletters))))
             for product in (a, b, a, b)]
    got = metrics_walks(walks, natural_lengths)
    assert calls == [2, 2]
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
                                  hd_measure=h / gamma, hd_support=v)


def test_a_singular_matrix_stops_only_its_row():
    # np.linalg.solve rejects a whole stack for one singular matrix; the rows
    # are then solved one at a time, and the singular one gets an infinite step
    matrices = np.stack([np.zeros((2, 2)), 2 * np.eye(2)])
    sol = traffic._solve_each(matrices, np.ones((2, 2, 2)))
    assert np.all(np.isinf(sol[0])) and np.array_equal(sol[1], np.full((2, 2), 0.5))


def newton_alone(s, p, tol, max_iter=DEFAULT_MAX_ITER):
    """Newton's method on one step law as ``traffic._newton`` states it; (q, phi(q), steps, kappa).

    A reference for the loop's row bookkeeping: one row, one matrix
    assembled afresh a step, and a return at each way of stopping.
    """
    n = len(p)
    q, last, x = np.zeros(n), math.inf, np.full(n, math.nan)
    for taken in range(max_iter):
        phi = traffic._phi_array(s, p, q)
        residual = phi - q
        sup = np.abs(residual).max()
        if sup <= 0.01 * tol or sup >= last:
            return q, phi, taken, x.max()
        matrix = traffic._i_minus_j(s, q, traffic._back(s, p, q), 0.0 - p[s.inv_index],
                                    0.0 - p[s.pair_u])
        try:
            sol = np.linalg.solve(matrix, np.stack([residual, np.ones(n)], axis=1))
        except np.linalg.LinAlgError:
            return q, phi, taken, x.max()
        candidate = q + sol[:, 0]
        if np.any(candidate <= 0.0) or np.any(candidate >= 1.0):
            return q, phi, taken, x.max()
        q, x, last = candidate, sol[:, 1], sup
    return q, traffic._phi_array(s, p, q), max_iter, x.max()


def assert_rows_are_newton_alone(s, probs, newton):
    """Each row of ``traffic._newton``'s (q, phi, steps, kappa) is ``newton_alone`` on the row, bit for bit."""
    q, phi, steps, kappa = newton
    for i, p in enumerate(probs):
        want_q, want_phi, want_steps, want_kappa = newton_alone(s, p, DEFAULT_TOL)
        assert q[i].tobytes() == want_q.tobytes() and phi[i].tobytes() == want_phi.tobytes()
        assert steps[i] == want_steps and kappa[i].hex() == want_kappa.hex()


def assert_row_loop_is_the_stack_row(s, probs, newton, max_iter):
    """Each row of a stack's (q, phi, steps, kappa) is ``traffic._newton`` on the row alone, bit for bit.

    A stack of one row takes the one-row loop, so this checks that loop
    against the lockstep loop's row.
    """
    q, phi, steps, kappa = newton
    for i, p in enumerate(probs):
        alone = traffic._newton(s, p[None], DEFAULT_TOL, max_iter)
        assert [a.shape for a in alone] == [(1, len(p)), (1, len(p)), (1,), (1,)]
        assert alone[0][0].tobytes() == q[i].tobytes() and alone[1][0].tobytes() == phi[i].tobytes()
        assert alone[2][0] == steps[i] and alone[3][0].hex() == kappa[i].hex()


def test_rows_that_leave_at_one_step_for_each_reason_match_their_solo_solves(monkeypatch):
    # At Newton step 6 the first row stops on its residual (a floating-point
    # fixed point, which then fails its confirming step), the second row's
    # matrix is made singular, so its candidate leaves (0, 1), and the
    # third row goes on to step 7.  No small walk's candidate leaves (0, 1)
    # by itself, since Newton from 0 stays below the fixed point.
    product = free_product_of_cyclics(2, 2, 2)
    s = traffic.letter_tables(product)
    probs = np.array([z2z2z2(1e-7)[1].probs, [0.6, 0.35, 0.05], [0.5, 0.45, 0.05]])
    assert [newton_alone(s, p, DEFAULT_TOL)[2] for p in probs] == [6, 7, 7]
    forced, _, _, _ = newton_alone(s, probs[1], DEFAULT_TOL, max_iter=6)  # its iterate at step 6
    forced_inv = 0.0 - probs[1][s.inv_index]
    i_minus_j = traffic._i_minus_j

    def singular_at_forced(s, q, back, neg_inv, neg_pair, matrices=None):
        matrices = i_minus_j(s, q, back, neg_inv, neg_pair, matrices)
        matrices[np.all(q == forced, axis=-1) & np.all(neg_inv == forced_inv, axis=-1)] = 0.0
        return matrices

    monkeypatch.setattr(traffic, "_i_minus_j", singular_at_forced)
    q, phi, steps, kappa = traffic._newton(s, probs, DEFAULT_TOL, 20)
    assert steps.tolist() == [6, 6, 7]
    assert_rows_are_newton_alone(s, probs, (q, phi, steps, kappa))
    assert_row_loop_is_the_stack_row(s, probs, (q, phi, steps, kappa), 20)
    assert q[1].tobytes() == forced.tobytes()
    outcomes = assert_rows_match(product, probs)
    assert [type(o) for o in outcomes] == [MaxIterationsError, traffic.SolveReport,
                                           traffic.SolveReport]
    assert "after 7 iterations" in str(outcomes[0]) and outcomes[1].iterations == 7


@pytest.mark.parametrize("case", ["budget", "singular-first-step", "candidate-outside"])
def test_the_row_loop_leaves_as_the_stack_row_does(monkeypatch, case):
    # three more exits, each alone and in a stack of two on Z/2 * Z/3: the
    # budget runs out at max_iter = 3; the first row's first matrix is made
    # singular, so it leaves with q = 0 and no solution (kappa NaN); or the
    # first row's matrix at step 2 is scaled by 1e-20, so its candidate
    # leaves (0, 1) on a step that LAPACK solves, and the row leaves with
    # the q and kappa it had before that step
    product, mu = hecke_simple(3)
    s = traffic.letter_tables(product)
    probs = np.array([mu.probs, [0.5, 0.3, 0.2]])
    max_iter = 3 if case == "budget" else 20
    first_inv = 0.0 - probs[0][s.inv_index]
    second_iterate = newton_alone(s, probs[0], DEFAULT_TOL, max_iter=2)[0]
    i_minus_j = traffic._i_minus_j

    def perturbed(s, q, back, neg_inv, neg_pair, matrices=None):
        matrices = i_minus_j(s, q, back, neg_inv, neg_pair, matrices)
        first = np.all(neg_inv == first_inv, axis=-1)
        if case == "singular-first-step":
            matrices[first & np.all(q == 0.0, axis=-1)] = 0.0
        elif case == "candidate-outside":
            matrices[first & np.all(q == second_iterate, axis=-1)] *= 1e-20
        return matrices

    monkeypatch.setattr(traffic, "_i_minus_j", perturbed)
    newton = traffic._newton(s, probs, DEFAULT_TOL, max_iter)
    q, phi, steps, kappa = newton
    want_steps = {"budget": [3, 3], "singular-first-step": [0, 7],
                  "candidate-outside": [2, 7]}[case]
    assert steps.tolist() == want_steps
    assert_row_loop_is_the_stack_row(s, probs, newton, max_iter)
    if case == "budget":  # phi is evaluated once more, at the last q
        assert phi.tobytes() == traffic._phi_array(s, probs, q).tobytes()
    elif case == "singular-first-step":
        assert math.isnan(kappa[0]) and not q[0].any() and phi[0].tobytes() == probs[0].tobytes()
    else:
        assert q[0].tobytes() == second_iterate.tobytes() and 1.0 < kappa[0] < 100.0


def near_z2z2(product, eps):
    """On S3 * Z/2 * Z/4, mass eps on each letter but two involutions, so the walk nears Z/2 * Z/2."""
    p = np.full(product.nletters, eps)
    p[[5, 7]] = (1.0 - eps * (product.nletters - 2)) / 2  # the letters 1:1 and 2:2
    return p


@pytest.mark.parametrize("case", ["z2z2z2", "s3z2z4"])
def test_the_kept_i_minus_j_is_the_fresh_one_at_every_step(monkeypatch, case):
    # Newton keeps one stack of I - J and rewrites only its entries that
    # depend on q; the stack that LAPACK gets must be, byte for byte, the
    # one assembled afresh from the current iterates, and the matrix eye - J
    # of the Jacobian oracle, also after rows have left the stack
    if case == "z2z2z2":
        product = free_product_of_cyclics(2, 2, 2)
        probs = np.array([z2z2z2(1e-7)[1].probs, [0.6, 0.35, 0.05], [0.5, 0.45, 0.05]])
        want_steps = [6, 7, 7]
    else:
        product = FreeProduct([make_finite_group(S3_TABLE), make_cyclic(2), make_cyclic(4)])
        uniform = np.full(product.nletters, 1.0 / product.nletters)
        probs = np.array([uniform] + [near_z2z2(product, eps) for eps in (1e-2, 1e-4, 1e-7)])
        want_steps = [5, 6, 9, 14]
    s = traffic.letter_tables(product)
    n = product.nletters
    back, solve, i_minus_j = traffic._back, np.linalg.solve, traffic._i_minus_j
    current, sizes = [], []

    def recorded_back(s, mu, q):
        current[:] = [mu.copy(), q.copy()]
        return back(s, mu, q)

    def checked_solve(matrices, rhs):
        mu, q = current
        sizes.append(len(matrices))
        for i in range(len(matrices)):
            fresh = i_minus_j(s, q[i], back(s, mu[i], q[i]), 0.0 - mu[i][s.inv_index],
                              0.0 - mu[i][s.pair_u])
            assert matrices[i].tobytes() == fresh.tobytes()
            assert np.array_equal(matrices[i], np.eye(n) - jacobian_oracle(s, mu[i], q[i]))
        return solve(matrices, rhs)

    monkeypatch.setattr(traffic, "_back", recorded_back)
    monkeypatch.setattr(np.linalg, "solve", checked_solve)
    newton = traffic._newton(s, probs, DEFAULT_TOL, DEFAULT_MAX_ITER)
    monkeypatch.undo()
    steps = newton[2]
    assert steps.tolist() == want_steps
    # one stacked solve a step, of every row still in the stack
    assert sizes == [sum(steps >= k) for k in range(max(want_steps))]
    assert_rows_are_newton_alone(s, probs, newton)


def test_newton_sums_over_the_pairs_its_rows_step_to_keep_every_bit():
    # the simple walk on Z/64 * Z/64 steps to 4 of 126 letters, so Newton's
    # hitting map sums over 248 of the 7,812 in-factor pairs; a second row
    # steps to 4 other letters and writes its zeros as -0.0.  Each row, in
    # the batch and alone, must match Newton with the full sums bit for bit
    product, mu = zkzk_simple(64)
    s = traffic.letter_tables(product)
    other = np.full(product.nletters, -0.0)
    other[[1, 60, 65, 124]] = [0.3, 0.2, 0.1, 0.4]  # 0:2, 0:61, 1:3, 1:62
    probs = np.array([mu.probs, other])
    for rows in (probs, probs[:1], probs[1:]):
        assert_rows_are_newton_alone(s, rows, traffic._newton(s, rows, DEFAULT_TOL, DEFAULT_MAX_ITER))
    assert_rows_match(product, probs)


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
