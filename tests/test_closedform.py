import math
import random
from fractions import Fraction

import numpy as np
import pytest

from freewalk import closedform as cf
from freewalk.metrics import drift
from freewalk.traffic import RootVector, solve_walk, traffic_residual
from freewalk.walkspec import (
    hecke_simple,
    uniform_per_factor,
    z2z3_walk,
    z3z3_asym,
    z3z3_sym,
    zkzk_simple,
)

from oracles import r_hecke, r_z2z3, r_z3z3_sym, r_zkzk


def test_printed_polynomials():
    xs = np.linspace(0.0, 1.0, 11)
    for x in xs:
        assert abs(cf.eval_F(2, x) - (-2 * x**2 + 4 * x - 1)) < 1e-12
        assert abs(cf.eval_F(3, x) - (4 * x**3 - 16 * x**2 + 17 * x - 4)) < 1e-12
        assert abs(cf.eval_F(4, x) - (-8 * x**4 + 48 * x**3 - 96 * x**2 + 72 * x - 15)) < 1e-12
    assert cf.eval_F(0, 0.3) == 1.0
    assert cf.eval_F(1, 0.3) == 0.3
    assert abs(cf.eval_G(0, 0.3) - 0.4) < 1e-15
    assert cf.eval_G(1, 0.3) == 0.3


def test_recurrences_against_coefficient_convolution():
    # rebuild F_n and G_n coefficient vectors independently, then compare
    f_coeffs = [np.array([1.0]), np.array([0.0, 1.0])]
    for n in range(2, 13):
        prev, cur = f_coeffs[n - 2], f_coeffs[n - 1]
        lifted = 4.0 * np.append(cur, 0.0) - 2.0 * np.append(0.0, cur)
        lifted[: len(prev)] -= prev
        f_coeffs.append(lifted)
    rng = np.random.default_rng(11)
    for n in range(2, 13):
        for x in rng.uniform(0.0, 1.0, 80):
            direct = np.polynomial.polynomial.polyval(x, f_coeffs[n])
            assert abs(cf.eval_F(n, x) - direct) < 1e-8


def test_recurrence_identity_sampled():
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.0, 1.0, 1000)
    for n in (5, 12, 30):
        for x in xs[:50]:
            lhs = cf.eval_F(n, x)
            rhs = 2 * (2 - x) * cf.eval_F(n - 1, x) - cf.eval_F(n - 2, x)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))
            g_lhs = cf.eval_G(n, x * 0.49)
            g_rhs = (8 * (1 - 0.49 * x) / (3 - 2 * 0.49 * x)) * cf.eval_G(n - 1, 0.49 * x) - cf.eval_G(
                n - 2, 0.49 * x
            )
            assert abs(g_lhs - g_rhs) <= 1e-9 * max(1.0, abs(g_lhs))


def test_solve_xk_small_roots():
    assert abs(cf.solve_xk(3) - 0.5) < 1e-13
    assert abs(cf.solve_xk(4) - (3 - math.sqrt(5)) / 2) < 1e-13
    assert abs(cf.drift_zkzk(3) - 0.25) < 1e-13


def test_solve_yk_small_roots():
    assert abs(cf.solve_yk(3) - 0.3) < 1e-13
    assert abs(cf.solve_yk(4) - (2 / 3 - math.sqrt(7) / 6)) < 1e-13
    assert abs(cf.drift_hecke(3) - 2 / 15) < 1e-13


def test_r_vectors_normalized_and_palindromic():
    for k in range(3, 13):
        r = r_zkzk(k)
        assert abs(2 * sum(r) - 1.0) < 1e-10  # both factors carry the same letters
        assert all(abs(r[i] - r[k - 2 - i]) < 1e-10 for i in range(k - 1))
        rh = r_hecke(k)
        assert abs(sum(rh) - 1.0) < 1e-10


def test_k_below_three_rejected():
    for fn in (cf.solve_xk, cf.solve_yk, cf.drift_zkzk, cf.drift_hecke):
        with pytest.raises(ValueError):
            fn(2)


def test_exact_intervals_enclose_float_roots():
    for k in (3, 4, 7, 12):
        lo, hi = cf.gamma_zkzk_interval(k)
        assert lo <= Fraction(cf.drift_zkzk(k)).limit_denominator(10**15) <= hi or (
            float(lo) - 1e-13 <= cf.drift_zkzk(k) <= float(hi) + 1e-13
        )
        assert hi - lo < Fraction(1, 10**12)
        lo, hi = cf.gamma_hecke_interval(k)
        assert float(lo) - 1e-13 <= cf.drift_hecke(k) <= float(hi) + 1e-13


def test_exact_intervals_certify_monotone_prefix():
    intervals = [cf.gamma_zkzk_interval(k) for k in range(3, 65)]
    assert all(a[1] < b[0] for a, b in zip(intervals, intervals[1:]))
    assert all(hi < Fraction(1, 3) for _, hi in intervals)


def test_hecke_exact_intervals_certify_monotone_prefix():
    intervals = [cf.gamma_hecke_interval(k) for k in range(3, 65)]
    assert all(a[1] < b[0] for a, b in zip(intervals, intervals[1:]))
    assert all(hi < Fraction(2, 9) for _, hi in intervals)


# Enclosures recorded with the Fraction-arithmetic bisection (eval_F/eval_G
# on Fractions at every step); the integer sign path must reproduce them.
PINNED_ZKZK = {
    3: (Fraction(1, 4), Fraction(1125899906842625, 4503599627370496)),
    4: (Fraction(5566755282872655, 18014398509481984), Fraction(347922205179541, 1125899906842624)),
    17: (Fraction(3148244191894352413363, 9444732965739290427392),
         Fraction(6296488383788704826727, 18889465931478580854784)),
    64: (Fraction(59468653862748328377428582060303261620541733,
                  178405961588244985132285746181186892047843328),
         Fraction(237874615450993313509714328241213046482166933,
                  713623846352979940529142984724747568191373312)),
}
PINNED_HECKE = {
    3: (Fraction(18764998447377, 140737488355328), Fraction(225179981368525, 1688849860263936)),
    4: (Fraction(154412603984479, 844424930131968), Fraction(617650415937917, 3377699720527872)),
    17: (Fraction(2049600697574527829, 9223372036854775808),
         Fraction(12009379087350749, 54043195528445952)),
    64: (Fraction(216345702438951151160623182713105, 973555660975280180349468061728768),
         Fraction(288460936585268201547497576950807, 1298074214633706907132624082305024)),
}


@pytest.mark.parametrize("k", sorted(PINNED_ZKZK))
def test_exact_intervals_pinned(k):
    assert cf.gamma_zkzk_interval(k) == PINNED_ZKZK[k]
    assert cf.gamma_hecke_interval(k) == PINNED_HECKE[k]


def _steps_zkzk(k):
    return math.ceil(1.585 * k) + 45


def _bisection_points(sign, lo, hi, steps):
    """Every point at which a full ``_checked_bracket`` run asks ``sign`` for a value."""
    seen = []
    cf._checked_bracket(lambda x: seen.append(x) or sign(x), lo, hi, steps)
    return seen


def test_scaled_integer_recurrences_match_fraction_evaluators():
    # the points of full k = 64 bisections reach every denominator from 2^2 to 2^steps
    rng = random.Random(20240809)
    randoms = []
    for _ in range(6):
        d = rng.randrange(2, 2**40)
        randoms.append(Fraction(rng.randrange(1, d), d))
    f_points = _bisection_points(lambda x: cf._F_sign(64, x), Fraction(1, 4), Fraction(3, 4),
                                 _steps_zkzk(64))
    g_points = _bisection_points(lambda y: cf._G_sign(63, y), Fraction(1, 8), Fraction(3, 8),
                                 64 + 45)
    assert all(Fraction(1, 4) <= x <= Fraction(3, 4) for x in f_points)
    assert all(Fraction(1, 8) <= y <= Fraction(3, 8) for y in g_points)
    for x in f_points[::12] + randoms:
        m, d = x.numerator, x.denominator
        for n in range(65):
            assert cf._scaled_F(n, m, d) - d**n == d**n * (cf.eval_F(n, x) - 1)
    for y in g_points[::12] + randoms:
        m, d = y.numerator, y.denominator
        c = 3 * d - 2 * m
        for n in range(65):
            assert cf._scaled_G(n, m, d) - 4 * m * c**n == 4 * d * c**n * (cf.eval_G(n, y) - y)


def _bisected_zkzk(k):
    lo, hi = cf._checked_bracket(lambda x: cf._F_sign(k, x), Fraction(1, 4), Fraction(3, 4),
                                 _steps_zkzk(k))
    return (1 - hi) / 2, (1 - lo) / 2


def _bisected_hecke(k):
    lo, hi = cf._checked_bracket(lambda y: cf._G_sign(k - 1, y), Fraction(1, 8), Fraction(3, 8),
                                 k + 45)
    return (1 - 2 * hi) / 3, (1 - 2 * lo) / 3


FAMILIES = [(cf.gamma_zkzk_interval, _bisected_zkzk, "_F_sign"),
            (cf.gamma_hecke_interval, _bisected_hecke, "_G_sign")]
FAMILY_IDS = ["zkzk", "hecke"]
CERTIFIED_K = [*range(3, 65), 65, 100]


@pytest.mark.parametrize("interval, bisected, _", FAMILIES, ids=FAMILY_IDS)
def test_certified_cell_is_the_bisection_cell(interval, bisected, _):
    for k in CERTIFIED_K:
        assert interval(k) == bisected(k), k


def test_z3z3_root_on_a_cell_edge():
    # x_3 = 1/2 is a bisection midpoint: its sign is 0, and the cell ends there
    assert cf._F_sign(3, Fraction(1, 2)) == 0
    lo, hi = cf.gamma_zkzk_interval(3)
    assert lo == Fraction(1, 4) and hi - lo == Fraction(1, 2**(_steps_zkzk(3) + 2))
    assert (lo, hi) == _bisected_zkzk(3)


def _counted(monkeypatch, name):
    calls = []
    real = getattr(cf, name)
    monkeypatch.setattr(cf, name, lambda n, x: calls.append(x) or real(n, x))
    return calls


@pytest.mark.parametrize("interval, _, name", FAMILIES, ids=FAMILY_IDS)
def test_certified_cell_needs_few_exact_signs(monkeypatch, interval, _, name):
    calls = _counted(monkeypatch, name)
    for k in CERTIFIED_K:
        calls.clear()
        interval(k)
        assert 2 <= len(calls) <= 6, (k, len(calls))


@pytest.mark.parametrize("interval, bisected, name", FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("cells", [-2, -1, 1, 2])
def test_guess_a_cell_or_two_off_is_stepped_back(monkeypatch, interval, bisected, name, cells):
    for k in (3, 4, 17, 64):
        lo, hi = bisected(k)
        real = cf._guess_root
        # gamma is decreasing in the root, so the root cell moves by -cells
        shift = (hi - lo) * cells * (2 if interval is cf.gamma_zkzk_interval else Fraction(3, 2))
        monkeypatch.setattr(cf, "_guess_root", lambda *args: real(*args) + shift)
        calls = _counted(monkeypatch, name)
        assert interval(k) == (lo, hi), k
        assert len(calls) <= 2 + abs(cells)  # at most one more exact sign per step
        monkeypatch.undo()


@pytest.mark.parametrize("interval, bisected, name", FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("guess", [Fraction(0), Fraction(1, 3), Fraction(1)])
def test_far_guess_falls_back_to_bisection(monkeypatch, interval, bisected, name, guess):
    monkeypatch.setattr(cf, "_guess_root", lambda *args: guess)
    calls = _counted(monkeypatch, name)
    for k in (3, 17, 64):
        calls.clear()
        assert interval(k) == bisected(k), k
        assert len(calls) > 6  # the fallback bisection ran


def test_drift_z2z3_values_and_domain():
    assert abs(cf.drift_z2z3(1 / 3, 1 / 3) - 2 / 15) < 1e-12
    with pytest.raises(ValueError):
        cf.drift_z2z3(0.6, 0.4)
    # maximum of the surface, at q=0 and p = 1 - z0
    z0 = 0.490275
    assert abs(cf.drift_z2z3(1 - z0, 0.0) - 0.163379) < 1e-5
    poly = [1, 0, 12, -4, 47, -48, 12]
    assert abs(np.polyval(poly, z0)) < 1e-4


def test_drift_z2z3_arrays_checked_entry_by_entry():
    grid = np.array([0.1, 0.2, 0.5])
    assert cf.drift_z2z3(0.3, grid).tolist() == [cf.drift_z2z3(0.3, q) for q in grid.tolist()]
    bad = [
        (np.array([-0.5, math.nan]), 0.2),
        (np.array([0.1, math.nan]), 0.2),
        (0.3, np.array([0.1, 0.7])),
        (0.3, [0.1, -0.1]),
        (np.array([0.2, 0.3]), np.array([0.1, math.nan])),
    ]
    for p, q in bad:
        with pytest.raises(ValueError):
            cf.drift_z2z3(p, q)


def test_r_z2z3_sum_solver_and_traffic_residual():
    ra, rb, rb2 = r_z2z3(0.4, 0.2)
    assert abs(ra + rb + rb2 - 1.0) < 1e-12
    product, mu = z2z3_walk(0.5, 0.1)
    report = solve_walk(product, mu)
    fa, fb, fb2 = r_z2z3(0.5, 0.1)
    assert abs(fa - report.r.values[0]) < 1e-9
    assert abs(fb - report.r.values[1]) < 1e-9
    assert abs(fb2 - report.r.values[2]) < 1e-9
    formula_root = RootVector(product, np.array([fa, fb, fb2]))
    assert traffic_residual(product, mu, formula_root) < 1e-9
    with pytest.raises(ValueError):
        r_z2z3(0.3, 0.3)


def test_z3z3_sym_formulas():
    assert abs(cf.drift_z3z3_sym(0.25) - 0.25) < 1e-13
    assert r_z3z3_sym(0.25) == (0.25, 0.25)
    for p in (0.1, 0.3, 0.45):
        ra, ra2 = r_z3z3_sym(p)
        assert abs(ra + ra2 - 0.5) < 1e-12
    product, mu = z3z3_sym(0.4)
    report = solve_walk(product, mu)
    assert abs(cf.drift_z3z3_sym(0.4) - drift(product, mu, report.r)) < 1e-10
    ra, ra2 = r_z3z3_sym(0.4)
    assert abs(ra - report.r.values[0]) < 1e-10
    assert abs(ra2 - report.r.values[1]) < 1e-10


def test_z3z3_asym_formula():
    # p = q collapses to 2p(1-2p), which also matches the uniform-pair formula
    for p in (0.1, 0.2, 0.35):
        assert abs(cf.drift_z3z3_asym(p, p) - 2 * p * (1 - 2 * p)) < 1e-12
        assert abs(cf.drift_uniform_pair(2 * p, 2, 2) - 2 * p * (1 - 2 * p)) < 1e-12
    product, mu = z3z3_asym(0.3, 0.1)
    report = solve_walk(product, mu)
    assert abs(cf.drift_z3z3_asym(0.3, 0.1) - drift(product, mu, report.r)) < 1e-10


def test_uniform_pair_formula():
    for k in (2, 3, 5):
        assert abs(cf.drift_uniform_pair(0.5, k, k) - (k - 1) / (2 * k)) < 1e-13
    assert abs(cf.drift_uniform_pair(0.5, 2, 2) - 0.25) < 1e-13
    product, mu = uniform_per_factor([3, 4], [0.3, 0.7])
    report = solve_walk(product, mu)
    assert abs(cf.drift_uniform_pair(0.3, 2, 3) - drift(product, mu, report.r)) < 1e-10
    assert cf.drift_uniform_pair(1e-9, 2, 3) < 1e-8
    with pytest.raises(ValueError):
        cf.drift_uniform_pair(0.5, 1, 1)


def test_closed_forms_match_solver_along_tables():
    for k in range(3, 9):
        product, mu = zkzk_simple(k)
        report = solve_walk(product, mu)
        assert abs(cf.drift_zkzk(k) - drift(product, mu, report.r)) < 1e-10
        product, mu = hecke_simple(k)
        report = solve_walk(product, mu)
        assert abs(cf.drift_hecke(k) - drift(product, mu, report.r)) < 1e-10
