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
