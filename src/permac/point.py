"""The one owner of the memos kept per point (q, t).

Everything the engine memoises at one point lives here: the mode ratios
(1 - q^n)/(1 - t^n), z_lambda(q,t), the Gram-Schmidt P tables with their
norms, the Q rows derived from them, the p-basis rows of both (as Fractions,
and as integer numerators for the skew coefficients), Pieri edges and their
integer arm/leg factors, skew coefficients, the integer hook factors of the
cylindric weight F, observables, free-field columns, the Plancherel path
rows and the float up-matrices per level.
(The products p_nu(X) of a specialization do not depend on the point; the
Specialization keeps them.)
The store keeps the last MAX_POINTS points used; when a new point comes in,
the least recently used one is dropped whole.

Points are rational: a q or t that is not an int or a Fraction is a
TypeError, so an inexact value never lands in an exact memo.  The store is
keyed by the integer tuple (q.numerator, q.denominator, t.numerator,
t.denominator), which has the equality of (q, t) since a Fraction is kept in
lowest terms, and hashes without the modular inverse of a Fraction hash.

Memo values are shared and never mutated.  A value, or a memo dict, that a
caller holds stays valid after its point is evicted: a write into an evicted
dict is simply lost, so eviction in the middle of a computation is safe.
"""

from collections import OrderedDict
from fractions import Fraction
from functools import wraps

MAX_POINTS = 8

# (q.numerator, q.denominator, t.numerator, t.denominator) -> {memo name: dict}
_store: OrderedDict = OrderedDict()
_MISS = object()


def memo(q, t, name: str) -> dict:
    """The memo ``name`` of (q, t), made on first use; the point is now the newest."""
    if not (isinstance(q, (int, Fraction)) and isinstance(t, (int, Fraction))):
        raise TypeError(f"point ({q!r}, {t!r}) is not rational")
    key = (q.numerator, q.denominator, t.numerator, t.denominator)
    memos = _store.get(key)
    if memos is None:
        memos = _store[key] = {}
        if len(_store) > MAX_POINTS:
            _store.popitem(last=False)
    else:
        _store.move_to_end(key)
    table = memos.get(name)
    if table is None:
        table = memos[name] = {}
    return table


def per_point(fn):
    """Memoise fn(*args, q, t) in the memo of (q, t) named after fn.

    fn is called with q and t as Fractions: an int point shares the memo of
    the equal Fraction, and int arithmetic such as t**-1 would put a float
    in it.
    """
    name = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def cached(*args):
        table = memo(args[-2], args[-1], name)
        key = args[:-2]
        val = table.get(key, _MISS)
        if val is _MISS:
            val = table[key] = fn(*key, Fraction(args[-2]), Fraction(args[-1]))
        return val

    return cached


@per_point
def qt_ratio(n: int, q, t):
    """(1 - q^n)/(1 - t^n): the factor of a part n in z_lambda(q,t), and of
    the commutator [a_n, a_{-n}] = n (1 - q^n)/(1 - t^n)."""
    return (1 - q**n) / (1 - t**n)
