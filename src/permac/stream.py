"""The v1 sampler stream: random.Random(key).random() for blocks of keys.

Sample k of a seeded Plancherel sampler draws from random.Random(seed *
1000003 + k): an MT19937 generator (Matsumoto and Nishimura 1998) that
init_by_array seeds with the 32-bit words of |key|, low word first.  Seeding
runs two loops over the 624 state words, each word a function of the one
before, so ``random_rows`` runs them once for a block of consecutive keys, as
numpy uint32 vectors with one element per key.  Only the words the draws
read are kept, as the rows of one array that the first twist and the
tempering rewrite in place, and random() is ((a >> 5) 2^26 + (b >> 6)) / 2^53
for two tempered words a, b: the values are those of random.Random, bit for
bit.  numpy is imported on first use,
as in ``plancherel``, which imports this module.
"""

from functools import cache

_N, _M = 624, 397  # MT19937 state words and twist offset
_MASK = 0xFFFFFFFF


@cache
def _genrand_table() -> tuple:
    """init_genrand(19650218), the state every init_by_array starts from."""
    mt = [19650218]
    for i in range(1, _N):
        mt.append((1812433253 * (mt[-1] ^ (mt[-1] >> 30)) + i) & _MASK)
    return tuple(mt)


def _seeded_state(low, high: int, keep):
    """(len(keep), keys) uint32 array whose row r holds word keep[r] after
    init_by_array, for the generators seeded with the keys high 2^32 + low
    (low a uint32 vector).

    With f(x, c) = (x ^ (x >> 30)) c mod 2^32, g the init_genrand table and
    w the key's L words, the first loop writes to word n + 1, then word 1 again
    at n = 623,
        x_n = (g[n + 1] ^ f(x_{n-1}, 1664525)) + w[n % L] + n % L,
    from x_{-1} = g[0], reading x_0 for g[624].  The second loop writes y_m to
    word m + 2, and y_622 to word 1 again,
        y_m = (x_{m+1} ^ f(y_{m-1}, 1566083941)) - (m + 2 or 1),
    from y_{-1} = x_623; word 0 becomes 2^31.  As y starts from the last x,
    the first loop runs twice, alone and then beside the second, so that no
    more than a few vectors of x and y are held at once.
    """
    import numpy as np

    g = _genrand_table()
    adds = [low]  # w[j] + j
    while high:
        adds.append(((high & _MASK) + len(adds)) & _MASK)
        high >>= 32
    if len(adds) > _N:
        raise ValueError(f"stream keys must be below 2**{32 * _N}")
    size = len(adds)
    x0 = np.add(low, (g[1] ^ (g[0] ^ g[0] >> 30) * 1664525) & _MASK)

    def first(x, n, out):  # x_n from x = x_{n-1}
        np.right_shift(x, 30, out)
        out ^= x
        out *= 1664525
        out ^= g[n + 1] if n < _N - 1 else x0
        out += adds[n % size]

    x, nxt = x0.copy(), np.empty_like(x0)
    for n in range(1, _N):
        first(x, n, nxt)
        x, nxt = nxt, x
    # before step m the rows of cur hold x_{m+1} and y_{m-1}; f acts on both
    # rows at once, and the x row of the last step goes unused
    mults = np.array([[1664525], [1566083941]], np.uint32)
    cur, new = [(b, b[0], b[1]) for b in np.empty((2, 2, len(low)), np.uint32)]
    first(x0, 1, cur[1])
    cur[2][:] = x
    del x, nxt
    rows = {i: r for r, i in enumerate(keep)}
    out = np.empty((len(rows), len(low)), np.uint32)
    if 0 in rows:
        out[rows[0]] = 1 << 31
    for m in range(_N - 1):
        (xy, x, _), (f, fx, fy) = cur, new
        np.right_shift(xy, 30, f)
        f ^= xy
        f *= mults
        fx ^= g[m + 3] if m < _N - 3 else x0
        fx += adds[(m + 2) % size]
        i = (m + 1) % (_N - 1) + 1  # m + 2, then 1
        fy ^= x
        fy -= i
        if i in rows:
            out[rows[i]] = fy
        cur, new = new, cur
    return out


def _twist_word(s, i: int, lower: int, far: int, tmp) -> None:
    """The MT19937 twist of one word, in place on the rows of s:
    s[i] = s[far] ^ (y >> 1) ^ (0x9908B0DF if y is odd), where y is the top
    bit of s[i] and the low 31 bits of s[lower].  ``tmp`` is a spare row."""
    import numpy as np

    np.bitwise_xor(s[i], s[lower], tmp)
    tmp &= 0x80000000
    tmp ^= s[lower]  # y
    np.right_shift(tmp, 1, s[i])
    s[i] ^= s[far]
    tmp &= 1
    tmp *= 0x9908B0DF
    s[i] ^= tmp


def _twist(s, tmp) -> None:
    """The next MT19937 state, in place on the state rows s, shape (624,
    keys): word i reads words i + 1 and i + 397 mod 624, the new ones once
    they exist."""
    for i in range(_N):
        _twist_word(s, i, (i + 1) % _N, (i + _M) % _N, tmp)


def _mt_random(low, high: int, draws: int):
    """(keys, draws) array: the first ``draws`` values of random() for the
    generators seeded with the keys high 2^32 + low."""
    import numpy as np

    words = 2 * draws
    tmp = np.empty(len(low), np.uint32)
    if words <= _N - _M:
        # twisted word i < 227 reads words i, i + 1 and i + 397 only; rows
        # words + 1 on are free once twisted, and hold the tempering's shifts
        s = _seeded_state(low, high, [*range(words + 1), *range(_M, _M + words)])
        for i in range(words):
            _twist_word(s, i, i + 1, words + 1 + i, tmp)
        w, spare = s[:words], s[words + 1:]
    else:
        s = _seeded_state(low, high, range(_N))
        w = np.empty((words, len(low)), np.uint32)
        for at in range(0, words, _N):
            _twist(s, tmp)
            w[at:at + _N] = s[:words - at]
        del s
        spare = np.empty_like(w)
    w ^= np.right_shift(w, 11, spare)
    w ^= np.bitwise_and(np.left_shift(w, 7, spare), 0x9D2C5680, spare)
    w ^= np.bitwise_and(np.left_shift(w, 15, spare), 0xEFC60000, spare)
    w ^= np.right_shift(w, 18, spare)
    a, b = w[0::2], w[1::2]
    out = np.multiply(np.right_shift(a, 5, a), 67108864.0)
    out += np.right_shift(b, 6, b)
    out *= 1.0 / 9007199254740992.0
    return out.T


def random_rows(start: int, count: int, draws: int):
    """(count, draws) array whose row i holds the first ``draws`` values of
    random.Random(start + i).random().

    Python seeds with |key|, and within a run of keys the words above the
    lowest are shared, so the block is split where the sign or that high
    part changes.
    """
    import numpy as np

    if start < 0 < start + count:
        return np.concatenate([random_rows(start, -start, draws),
                               random_rows(0, start + count, draws)])
    if start < 0:
        return random_rows(-(start + count - 1), count, draws)[::-1]
    low = start & _MASK
    if low + count > 1 << 32:
        head = (1 << 32) - low
        return np.concatenate([random_rows(start, head, draws),
                               random_rows(start + head, count - head, draws)])
    return _mt_random(np.arange(low, low + count, dtype=np.uint32), start >> 32, draws)
