"""Acceptance gate: each criterion runs at its stated scope, exact equality.

Every check compares a closed form against an independent brute-force
expansion (or a frozen combinatorial count), all in exact rational
arithmetic, so the tolerance everywhere is zero.  One line per criterion is
printed on the way through.
"""

import pytest

from permac import acceptance


@pytest.mark.parametrize(
    "criterion", acceptance.CRITERIA, ids=lambda f: f.__name__)
def test_criterion(criterion, capsys):
    report = criterion(acceptance.DEFAULT_SEED)
    with capsys.disabled():
        print(f"  [{'PASS' if report['passed'] else 'FAIL'}] {report['name']}")
    assert report["passed"], report


def test_a_wrong_gprime_eigenvalue_fails_both_criteria_that_read_it(
        monkeypatch, fresh_memos):
    # the G' observable is the G' eigenvalue (scale 1), so doubling that
    # eigenvalue must break the free-field eigen relations and the
    # brute-force side of the G' moments alike
    from permac import macdonald

    eigenvalue = macdonald.eigenvalue

    def doubled(family, r, lam, q, t):
        v = eigenvalue(family, r, lam, q, t)
        return 2 * v if family == "G'" and r >= 1 else v

    monkeypatch.setattr(macdonald, "eigenvalue", doubled)
    eigen = acceptance.criterion_eigen_relations()
    assert not eigen["passed"]
    assert {f[0] for f in eigen["details"]["failures"]} == {"G'"}
    moments = acceptance.criterion_moment_formulas()
    assert not moments["passed"]
    assert {f[0] for f in moments["details"]["failures"]} == {"G'", "mixed"}
