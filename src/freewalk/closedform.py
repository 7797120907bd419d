"""Closed-form drift formulas for small free products.

Every function here evaluates an explicit formula or a one-variable
polynomial root, independently of the fixed-point solver; the test suite
plays the two against each other.  Families covered: the general walk on
Z/2 * Z/3, two parametrized families on Z/3 * Z/3, the simple walks on
Z/k * Z/k and on the Hecke products Z/2 * Z/k (via the polynomial
recurrences F and G), and per-factor-uniform walks on a pair of factors.
"""

from __future__ import annotations

import functools
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


def bisect_increasing(fn, lo, hi, steps: int = 200, *, below=-math.inf, above=math.inf):
    """Bracket (lo, hi) of the root of an increasing fn, keeping fn(lo) < 0 <= fn(hi).

    The caller checks the bracket.  On floats the loop stops once the
    midpoint no longer splits the bracket; on Fractions it is exact and
    runs all ``steps`` halvings.  ``below`` and ``above`` bound a decided
    region: a midpoint at or below ``below`` becomes lo and one at or above
    ``above`` becomes hi, without a call of fn.  They must be a certificate
    that fn would have given those midpoints those signs, as
    ``_certified_bounds`` returns; then the bracket is the one the plain
    loop (the defaults, nothing decided) returns, bit for bit.
    """
    for _ in range(steps):
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            break
        if mid <= below or (mid < above and fn(mid) < 0):
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


# The largest k whose float recurrence stays finite on the whole bracket:
# F_k(1e-12) grows like (2 + sqrt 3)^k and G_{k-1}(1e-12) like about 2.2^k,
# and past these k they overflow, so inf - inf makes the end sign NaN.
ZKZK_MAX_K = 542
HECKE_MAX_K = 898


def _check_k(k: int, most: int) -> None:
    """Reject k outside 3..most before the recurrence runs."""
    if k < 3:
        raise ValueError("k must be >= 3")
    if k > most:
        raise ValueError(f"k must be at most {most}: the float recurrence overflows beyond it")


def solve_xk(k: int) -> float:
    """Unique root in (0,1) of F_k(x) = 1; the doubled first-letter mass.

    F_k - 1 is negative near 0 and positive just left of 1 (x = 1 itself
    solves F_k = 1 but lies outside the open interval), so bisection on
    [eps, 1-eps] certifies the interior root.  k runs from 3 to ZKZK_MAX_K.
    """
    _check_k(k, ZKZK_MAX_K)
    lo, hi = _checked_bracket(lambda x: eval_F(k, x) - 1, 1e-12, 1.0 - 1e-9)
    return 0.5 * (lo + hi)


def solve_yk(k: int) -> float:
    """Unique root in (0, 1/2) of G_{k-1}(y) = y for the Hecke walk, k from 3 to HECKE_MAX_K."""
    _check_k(k, HECKE_MAX_K)
    lo, hi = _checked_bracket(lambda y: eval_G(k - 1, y) - y, 1e-12, 0.5 - 1e-9)
    return 0.5 * (lo + hi)


def drift_zkzk(k: int) -> float:
    """Drift of the simple minimal-generator walk on Z/k * Z/k: (1 - x_k)/2."""
    return 0.5 * (1.0 - solve_xk(k))


def drift_hecke(k: int) -> float:
    """Drift of the simple walk on Z/2 * Z/k: (1 - 2 y_k)/3."""
    return (1.0 - 2.0 * solve_yk(k)) / 3.0


def _two_term(n: int, first: int, second: int, a: int, b: int, shift: int = 0) -> int:
    """Term n of t_0 = first, t_1 = second, t_n = (a t_{n-1} >> shift) - b t_{n-2}, in integers."""
    if n == 0:
        return first
    prev, cur = first, second
    for _ in range(n - 1):
        prev, cur = cur, (a * cur >> shift) - b * prev
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


def _fixed_F(k: int, x: int, bits: int) -> int:
    """2^bits (F_k(x / 2^bits) - 1), each product rounded down to ``bits`` fraction bits."""
    one = 1 << bits
    return _two_term(k, one, x, 2 * (2 * one - x), 1, bits) - one


def _fixed_G(n: int, y: int, bits: int) -> int:
    """2^bits (G_n(y / 2^bits) - y / 2^bits), in ``bits``-bit fixed point."""
    one = 1 << bits
    factor = (8 * (one - y) << bits) // (3 * one - 2 * y)
    return _two_term(n, (2 * y + one) >> 2, y, factor, 1, bits) - y


def _guess_root(value, start: float, steps: int, k: int) -> Fraction:
    """A guess at the root of ``value(x, bits)``, good to about ``steps`` bits.

    Secant steps on x / 2^bits with bits = steps + 2k + 16, from the float
    ``start``, until a step moves x by at most 2^-(steps + 8), or 12 steps.
    The guess is not trusted: ``_certified_cell`` checks it exactly.
    """
    bits = steps + 2 * k + 16
    num, den = start.as_integer_ratio()
    x0 = (num << bits) // den
    x1 = x0 + (1 << (bits - 40))
    f0, f1 = value(x0, bits), value(x1, bits)
    for _ in range(12):
        if f1 == f0 or abs(x1 - x0) <= 1 << (bits - steps - 8):
            break
        x0, x1 = x1, x1 - f1 * (x1 - x0) // (f1 - f0)
        f0, f1 = f1, value(x1, bits)
    return Fraction(x1, 1 << bits)


def _certified_cell(sign, lo, hi, steps: int, guess) -> tuple[Fraction, Fraction]:
    """The cell that ``_checked_bracket(sign, lo, hi, steps)`` returns, read off a guess.

    Of the 2^steps cells (a, b] that bisection can end in, take the one
    holding the guess and certify sign(a) < 0 <= sign(b) exactly, stepping
    to a neighbour at most twice.  The sign changes once on [lo, hi], so a
    certified cell is bisection's.  A guess that misses falls back to the
    bisection itself.
    """
    cells = 2**steps
    width = (hi - lo) / cells
    sign_at = functools.cache(lambda i: sign(lo + i * width))
    j = min(max(math.ceil((guess - lo) / width) - 1, 0), cells - 1)
    for _ in range(3):  # the guessed cell and at most two neighbours
        if not 0 <= j < cells:
            break
        if sign_at(j) >= 0:
            j -= 1
        elif sign_at(j + 1) < 0:
            j += 1
        else:
            return lo + j * width, lo + (j + 1) * width
    return _checked_bracket(sign, lo, hi, steps)


def _certified_bounds(fn, lo, hi, guess: float, slack: float,
                      slope: float) -> tuple[float, float]:
    """A decided region (below, above) for ``bisect_increasing(fn, lo, hi)``, read off a float guess.

    ``slack`` must bound |fn(x) - f(x)| on [lo, hi], where fn is the float
    evaluation of a nondecreasing function f.  The certificate is
    fn(below) < -2 slack and fn(above) > 2 slack: then f(below) < -slack,
    so f(x) < -slack and fn(x) < 0 at every x <= below, and likewise
    fn(x) > 0 at every x >= above.  Each midpoint the region decides
    therefore gets the sign fn would give it, and the bisection returns the
    plain loop's bracket whatever the guess.  With ``slope`` about f' near
    the guess, the bounds are tried at guess -/+ 4 slack / slope, clipped
    to [lo, hi], where f is about -/+4 slack if the guess is good; a side
    that fails moves out 4 times as far, twice at most.  A guess outside
    [lo, hi], a NaN, a slope that is not positive, or a side that still
    fails gives (-inf, inf), the plain loop.
    """
    if not (lo <= guess <= hi and slope > 0):
        return -math.inf, math.inf
    radius = 4 * slack / slope
    below = above = None
    for _ in range(3):  # the radius, then 4 and 16 times it
        if below is None:
            x = guess - radius
            if x <= lo or fn(x) < -2 * slack:
                below = max(x, lo)
        if above is None:
            x = guess + radius
            if x >= hi or fn(x) > 2 * slack:
                above = min(x, hi)
        if below is not None and above is not None:
            return below, above
        radius *= 4
    return -math.inf, math.inf


def gamma_zkzk_interval(k: int) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure of the Z/k * Z/k simple-walk drift.

    The root gap x_k - 1/3 decays like 3^-k, far below double resolution
    for large k, so monotonicity in k is only checkable exactly.  The
    enclosure is the cell that ``steps`` = 1.6k + 45 bisection steps of
    [1/4, 3/4] end in, narrower than that gap.  A secant iteration on the
    recurrence in (steps + 2k + 16)-bit fixed point, started at
    ``solve_xk(k)``, guesses the cell, and a few exact signs of
    F_k(m/d) - 1 from the scaled integer recurrence S_n = d^n F_n(m/d)
    (see ``_scaled_F``) certify it, so no rational arithmetic runs on the
    10^4-bit values of F_k.
    """
    steps = math.ceil(1.585 * k) + 45
    guess = _guess_root(lambda x, bits: _fixed_F(k, x, bits), solve_xk(k), steps, k)
    lo, hi = _certified_cell(lambda x: _F_sign(k, x), Fraction(1, 4), Fraction(3, 4), steps, guess)
    return (1 - hi) / 2, (1 - lo) / 2


def gamma_hecke_interval(k: int) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure of the Z/2 * Z/k simple-walk drift.

    As ``gamma_zkzk_interval``, with k + 45 steps on [1/8, 3/8], a guess
    from ``solve_yk(k)``, and the exact signs of G_{k-1}(y) - y from the
    scaled integer recurrence H_n = 4d c^n G_n(m/d), c = 3d - 2m (see
    ``_scaled_G``).
    """
    steps = k + 45
    guess = _guess_root(lambda y, bits: _fixed_G(k - 1, y, bits), solve_yk(k), steps, k)
    lo, hi = _certified_cell(lambda y: _G_sign(k - 1, y), Fraction(1, 8), Fraction(3, 8), steps,
                             guess)
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


def drift_z3z3_sym(p: float) -> float:
    """Drift on Z/3 * Z/3 for mu(a)=mu(b)=p, mu(a^2)=mu(b^2)=1/2-p."""
    if not 0.0 < p < 0.5:
        raise ValueError("need 0 < p < 1/2")
    return -0.25 + 0.25 * math.sqrt(16.0 * p * p - 8.0 * p + 5.0)


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
