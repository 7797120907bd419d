"""Acceptance gate: one test per numbered criterion, one console line each.

Criterion 13 is implemented faithfully but its stated tolerances are
contradicted by exact enumeration (see the solver notes in the criterion
itself and the project README); it is marked as a strict expected
failure so the defect stays visible instead of being hidden by a
loosened assertion.
"""

import pytest

from freewalk import verify
from freewalk.metrics import metrics_report
from freewalk.simulate import distribution_entropy, exact_convolution, expected_length
from freewalk.traffic import solve_walk
from freewalk.walkspec import zkzk_simple


def _run(number: int) -> None:
    result = verify.run_criterion(number)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {result.number:2d}: {result.title}")
    for note in result.notes:
        print(f"    NOTE: {note}")
    if not result.passed:
        detail = "\n".join(result.details)
        pytest.fail(f"criterion {number} failed:\n{detail}", pytrace=False)


@pytest.mark.parametrize("number", sorted(set(verify.CRITERIA) - verify.EXPECTED_FAILURES))
def test_criterion(number):
    _run(number)


@pytest.mark.parametrize("number", sorted(verify.EXPECTED_FAILURES))
@pytest.mark.xfail(
    strict=True,
    reason="stated n=7,8 tolerances are unattainable: exact enumeration puts the "
    "increments 0.035-0.048 from gamma and 0.11-0.13 from h",
)
def test_criterion_expected_failure(number):
    _run(number)


@pytest.mark.parametrize("number", sorted(verify.CRITERIA))
def test_a_result_passes_when_no_check_is_bad_and_shares_no_list(number):
    first, second = verify.run_criterion(number), verify.run_criterion(number)
    for result in (first, second):
        assert result.passed == (not any(line.startswith("BAD") for line in result.details))
    assert first is not second
    assert first.details is not second.details and first.notes is not second.notes
    assert first.details == second.details and first.notes == second.notes


def test_criterion_7_finds_the_first_maximum_of_the_grid():
    assert verify.run_criterion(7).details == [
        "ok  max gamma over simplex: 0.16337869974332694 vs 0.163379 (|err|=3.003e-07, tol=1e-04)",
        "ok  argmax on a boundary edge (p=0 or q=0): argmax (0.0, 0.51)",
        "ok  nonzero coordinate vs 1 - z0: 0.51 vs 0.509725 (|err|=2.750e-04, tol=2e-03)",
        "ok  solver drift at argmax: 0.163378699743327 vs 0.16337869974332694 "
        "(|err|=5.551e-17, tol=1e-09)",
    ]


def test_criterion_13_note_holds_from_n_12_to_17():
    # The NOTE's claims on the simple walk on Z/3 * Z/3: from n = 12 to 17
    # each increment stays above its limit, each gap shrinks by a factor in
    # [0.85, 0.95] per step, and the gaps enter the 0.02 (length) and 0.05
    # (entropy) bands at n = 13 and n = 17.  Measured: 0.0206 -> 0.0184 and
    # 0.0509 -> 0.0474 across the band edges; ratios 0.88-0.90 and 0.91-0.93.
    product, mu = zkzk_simple(3)
    m = metrics_report(product, mu, solve_walk(product, mu))
    laws = {n: exact_convolution(product, mu, n) for n in range(11, 18)}
    for limit, read, band, enters in ((m.gamma, expected_length, 0.02, 13),
                                      (m.entropy, distribution_entropy, 0.05, 17)):
        value = {n: read(law) for n, law in laws.items()}
        gap = {n: value[n] - value[n - 1] - limit for n in range(12, 18)}
        assert all(g > 0.0 for g in gap.values())
        assert all(0.85 <= gap[n] / gap[n - 1] <= 0.95 for n in range(13, 18))
        assert [n for n, g in gap.items() if g <= band] == list(range(enters, 18))
    (note,) = verify.run_criterion(13).notes
    assert "0.85-0.95 per step" in note and "at n = 13 and n = 17" in note
