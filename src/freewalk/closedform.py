"""Closed-form drift and root-vector formulas for small free products.

Every function here evaluates an explicit formula or a one-variable
polynomial root, independently of the fixed-point solver; the test suite
plays the two against each other.  Families covered: the general walk on
Z/2 * Z/3, two parametrized families on Z/3 * Z/3, the simple walks on
Z/k * Z/k and on the Hecke products Z/2 * Z/k (via the polynomial
recurrences F and G), and per-factor-uniform walks on a pair of factors.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def eval_F(n: int, x):
    """n-th polynomial of the Z/k * Z/k recurrence at x.

    F0 = 1, F1 = x, F_n = 2(2-x) F_{n-1} - F_{n-2}.  Accepts floats, numpy
    arrays, or Fractions; the integer constants keep a Fraction exact.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    prev = np.ones_like(x, dtype=float) if isinstance(x, np.ndarray) else x**0
    if n == 0:
        return prev
    cur = x
    for _ in range(n - 1):
        prev, cur = cur, 2 * (2 - x) * cur - prev
    return cur


def eval_G(n: int, x):
    """n-th polynomial of the Hecke recurrence at x, for floats, arrays, or Fractions.

    G0 = (2x + 1)/4, G1 = x, G_n = (8(1-x)/(3-2x)) G_{n-1} - G_{n-2}.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    g_prev = (2 * x + 1) / 4
    if n == 0:
        return g_prev
    g_cur = x
    factor = 8 * (1 - x) / (3 - 2 * x)
    for _ in range(n - 1):
        g_prev, g_cur = g_cur, factor * g_cur - g_prev
    return g_cur


def bisect_increasing(fn, lo, hi, steps: int = 200):
    """Bracket (lo, hi) of the root of an increasing fn, keeping fn(lo) < 0 <= fn(hi).

    The caller checks the bracket.  On floats the loop stops once the
    midpoint no longer splits the bracket; on Fractions it is exact and
    runs all ``steps`` halvings.
    """
    for _ in range(steps):
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            break
        if fn(mid) < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _checked_bracket(fn, lo, hi, steps: int = 200):
    """bisect_increasing after certifying the sign change of fn at the ends."""
    flo, fhi = fn(lo), fn(hi)
    if not (flo < 0 < fhi):
        raise ValueError(f"no sign change on [{lo}, {hi}]: f={float(flo):.3e}, {float(fhi):.3e}")
    return bisect_increasing(fn, lo, hi, steps)


def solve_xk(k: int) -> float:
    """Unique root in (0,1) of F_k(x) = 1; the doubled first-letter mass.

    F_k - 1 is negative near 0 and positive just left of 1 (x = 1 itself
    solves F_k = 1 but lies outside the open interval), so bisection on
    [eps, 1-eps] certifies the interior root.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    lo, hi = _checked_bracket(lambda x: eval_F(k, x) - 1, 1e-12, 1.0 - 1e-9)
    return 0.5 * (lo + hi)


def solve_yk(k: int) -> float:
    """Unique root in (0, 1/2) of G_{k-1}(y) = y for the Hecke walk."""
    if k < 3:
        raise ValueError("k must be >= 3")
    lo, hi = _checked_bracket(lambda y: eval_G(k - 1, y) - y, 1e-12, 0.5 - 1e-9)
    return 0.5 * (lo + hi)


def drift_zkzk(k: int) -> float:
    """Drift of the simple minimal-generator walk on Z/k * Z/k: (1 - x_k)/2."""
    return 0.5 * (1.0 - solve_xk(k))


def r_zkzk(k: int) -> list[float]:
    """Per-letter root vector [r(a), r(a^2), ...] = [F_i(x_k)/2]; same for b."""
    xk = solve_xk(k)
    return [float(eval_F(i, xk)) / 2.0 for i in range(1, k)]


def drift_hecke(k: int) -> float:
    """Drift of the simple walk on Z/2 * Z/k: (1 - 2 y_k)/3."""
    return (1.0 - 2.0 * solve_yk(k)) / 3.0


def r_hecke(k: int) -> list[float]:
    """Root vector [r(a), r(b), r(b^2), ...] = [G_0(y_k), G_1(y_k), ...]."""
    yk = solve_yk(k)
    return [float(eval_G(i, yk)) for i in range(k)]


def _two_term(n: int, first: int, second: int, a: int, b: int) -> int:
    """Term n of t_0 = first, t_1 = second, t_n = a t_{n-1} - b t_{n-2}, in integers."""
    if n == 0:
        return first
    prev, cur = first, second
    for _ in range(n - 1):
        prev, cur = cur, a * cur - b * prev
    return cur


def _scaled_F(n: int, m: int, d: int) -> int:
    """S_n = d^n F_n(m/d): S_0 = 1, S_1 = m, S_n = 2(2d - m) S_{n-1} - d^2 S_{n-2}."""
    return _two_term(n, 1, m, 2 * (2 * d - m), d * d)


def _scaled_G(n: int, m: int, d: int) -> int:
    """H_n = 4d c^n G_n(m/d) with c = 3d - 2m.

    H_0 = 2m + d, H_1 = 4mc, H_n = 8(d - m) H_{n-1} - c^2 H_{n-2}.
    """
    c = 3 * d - 2 * m
    return _two_term(n, 2 * m + d, 4 * m * c, 8 * (d - m), c * c)


def _sign(a: int, b: int) -> int:
    """sign(a - b) as -1, 0 or 1; unlike a - b, it converts to float for error messages."""
    return (a > b) - (a < b)


def _F_sign(k: int, x: Fraction) -> int:
    """Exact sign of F_k(x) - 1, as sign(S_k - d^k) for x = m/d."""
    m, d = x.numerator, x.denominator
    return _sign(_scaled_F(k, m, d), d**k)


def _G_sign(n: int, y: Fraction) -> int:
    """Exact sign of G_n(y) - y for y < 3/2, as sign(H_n - 4m c^n) for y = m/d."""
    m, d = y.numerator, y.denominator
    return _sign(_scaled_G(n, m, d), 4 * m * (3 * d - 2 * m) ** n)


def gamma_zkzk_interval(k: int) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure of the Z/k * Z/k simple-walk drift.

    The root gap x_k - 1/3 decays like 3^-k, far below double resolution
    for large k, so monotonicity in k is only checkable exactly.  The
    enclosure width shrinks below that gap (about 1.6k + 30 bits).  Each
    bisection step decides the sign of F_k(m/d) - 1 exactly from the
    scaled integer recurrence S_n = d^n F_n(m/d) (see ``_scaled_F``), so no
    rational arithmetic runs on the 10^4-bit values of F_k.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    steps = math.ceil(1.585 * k) + 45
    lo, hi = _checked_bracket(lambda x: _F_sign(k, x), Fraction(1, 4), Fraction(3, 4), steps)
    return (1 - hi) / 2, (1 - lo) / 2


def gamma_hecke_interval(k: int) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure of the Z/2 * Z/k simple-walk drift.

    The signs of G_{k-1}(y) - y come from the scaled integer recurrence
    H_n = 4d c^n G_n(m/d), c = 3d - 2m (see ``_scaled_G``).
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    lo, hi = _checked_bracket(lambda y: _G_sign(k - 1, y), Fraction(1, 8), Fraction(3, 8), k + 45)
    return (1 - 2 * hi) / 3, (1 - 2 * lo) / 3


def drift_z2z3(p, q):
    """Drift of the walk on Z/2 * Z/3 with mu(b)=p, mu(b^2)=q, mu(a)=1-p-q.

    Accepts scalars or numpy arrays (for sweeping the parameter simplex).
    Any entry outside p, q >= 0, p + q < 1 is a ValueError.
    """
    p = np.asarray(p, dtype=float) if not np.isscalar(p) else p
    q = np.asarray(q, dtype=float) if not np.isscalar(q) else q
    r = 1.0 - p - q
    # np.min keeps a NaN, and NaN fails every comparison
    if np.size(r) and not (np.min(p) >= 0 and np.min(q) >= 0 and np.min(r) > 0):
        raise ValueError("need p, q >= 0 and p + q < 1")
    root = np.sqrt(
        (p**2 + q**2) * (3.0 + (r + p) ** 2 + (r + q) ** 2) + 2.0 * p * q * (2.0 * r + 1.0)
    )
    return 2.0 * r * (p * q - p - q + root) / ((r + p) ** 2 + (r + q) ** 2 - p * q + 2.0)


def r_z2z3(p: float, q: float) -> tuple[float, float, float]:
    """Root vector (r(a), r(b), r(b^2)) of the Z/2 * Z/3 walk, for p != q.

    The printed expressions carry removable (q - p) denominators; at p = q
    use the solver instead.
    """
    if not (p >= 0 and q >= 0 and p + q < 1):
        raise ValueError("need p, q >= 0 and p + q < 1")
    if abs(p - q) < 1e-12:
        raise ValueError("formulas degenerate at p = q; use the traffic solver")
    d1 = math.sqrt(
        p**4 + q**4 - 2 * p**3 - 2 * q**3 + 2 * p**2 * q**2
        - 6 * p**2 * q - 6 * p * q**2 + 5 * p**2 + 5 * q**2 + 6 * p * q
    )
    d2 = p**2 + q**2 - p * q - 2 * p - 2 * q + 4
    ra = (p**2 + q**2 - 2 * p * q - p - q + 4 - d1) / (2 * d2)
    rb = (q**3 - 3 * q**2 + p**2 * q - 5 * p * q + 2 * p + 6 * q - (2 - q) * d1) / (
        2 * (q - p) * d2
    )
    rb2 = (p**3 - 3 * p**2 + p * q**2 - 5 * p * q + 6 * p + 2 * q - (2 - p) * d1) / (
        2 * (p - q) * d2
    )
    return ra, rb, rb2


def drift_z3z3_sym(p: float) -> float:
    """Drift on Z/3 * Z/3 for mu(a)=mu(b)=p, mu(a^2)=mu(b^2)=1/2-p."""
    if not 0.0 < p < 0.5:
        raise ValueError("need 0 < p < 1/2")
    return -0.25 + 0.25 * math.sqrt(16.0 * p * p - 8.0 * p + 5.0)


def r_z3z3_sym(p: float) -> tuple[float, float]:
    """(r(a), r(a^2)) for the symmetric Z/3 * Z/3 family; r(b) = r(a).

    The 0/0 at p = 1/4 is removable with limit (1/4, 1/4).
    """
    if not 0.0 < p < 0.5:
        raise ValueError("need 0 < p < 1/2")
    if abs(4.0 * p - 1.0) < 1e-9:
        return 0.25, 0.25
    root = math.sqrt(16.0 * p * p - 8.0 * p + 5.0)
    ra = (4.0 * p - 3.0 + root) / (4.0 * (4.0 * p - 1.0))
    ra2 = (4.0 * p + 1.0 - root) / (4.0 * (4.0 * p - 1.0))
    return ra, ra2


def drift_z3z3_asym(p: float, q: float) -> float:
    """Drift on Z/3 * Z/3 for mu(a)=p, mu(a^2)=q, mu(b)=mu(b^2)=(1-p-q)/2."""
    if not (p > 0 and q > 0 and p + q < 1):
        raise ValueError("need p, q > 0 and p + q < 1")
    return 2.0 * (1.0 - p - q) * math.sqrt(
        (p * p + q * q + p * q) / (p * p + q * q - 2.0 * p * q + 3.0)
    )


def drift_uniform_pair(p: float, k1: int, k2: int) -> float:
    """Drift of a two-factor walk uniform on each factor.

    k1 and k2 count the nonidentity elements of the factors, p is the mass
    of the first factor.  2p(1-p)(k1 k2 - 1) / ((1-p) k1 + p k2 + k1 k2).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("need 0 < p < 1")
    if k1 < 1 or k2 < 1:
        raise ValueError("factor sizes must be >= 1")
    if k1 == 1 and k2 == 1:
        raise ValueError("Z/2 * Z/2 is recurrent: drift undefined")
    return 2.0 * p * (1.0 - p) * (k1 * k2 - 1.0) / ((1.0 - p) * k1 + p * k2 + k1 * k2)
