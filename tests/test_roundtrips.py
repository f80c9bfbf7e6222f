"""Round trips of the text forms the CLI and the disk cache read back."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permac.cli import _parse_partition
from permac.macdonald import _table_from_disk, _table_to_disk, macdonald_table
from permac.partitions import partitions_up_to
from permac.scalars import format_rational, parse_rational


@given(x=st.fractions() | st.integers().map(Fraction))
def test_parse_rational_inverts_format_rational(x):
    assert parse_rational(format_rational(x)) == x


@given(x=st.fractions() | st.integers() | st.booleans()
       | st.floats(allow_nan=False, allow_infinity=False))
def test_format_rational_reads_every_type_as_its_fraction(x):
    f = Fraction(x)
    expect = str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    assert format_rational(x) == expect


def test_parse_partition_inverts_comma_join():
    lams = partitions_up_to(8)
    assert () in lams
    for lam in lams:
        assert _parse_partition(",".join(map(str, lam))) == lam


@pytest.mark.parametrize("q, t", [(Fraction(1, 3), Fraction(1, 5)),
                                  (Fraction(43, 97), Fraction(59, 89))])
def test_table_from_disk_inverts_table_to_disk(q, t):
    for n in range(7):
        table = macdonald_table(q, t, n)
        stored = json.loads(json.dumps(_table_to_disk(table)))
        assert stored.keys() == {"P", "norm"}
        assert _table_from_disk(stored, n) == table
