"""The v2 sampler stream: SplitMix64 values read as doubles in [0, 1).

A seed s has the key K = mix64((s mod 2^64) + GAMMA), and value j of sample
k, at d values per sample, is (mix64(K + (k d + j + 1) GAMMA mod 2^64) >> 11)
2^-53: the SplitMix64 sequence of state K (Steele, Lea and Flood 2014), read
sample by sample.  Each value is a fixed function of its counter (Salmon et
al. 2011), so a block of samples is a few whole-array uint64 operations, and
no sample's values depend on the block that draws it.  Only numpy's core
ufuncs run: importing numpy.random would cost about 6 MB and 11-14 ms.
numpy is imported on first use, as in ``plancherel``, which imports this
module.
"""

GAMMA = 0x9E3779B97F4A7C15  # the SplitMix64 counter step
_MASK = (1 << 64) - 1


def mix64(z):
    """SplitMix64's finaliser, in place on the uint64 array z, returned."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def random_rows(seed: int, start: int, count: int, draws: int):
    """(count, draws) array whose row i holds the ``draws`` values of sample
    start + i of ``seed``, at ``draws`` values per sample."""
    import numpy as np

    key = int(mix64(np.array([(seed + GAMMA) & _MASK], np.uint64))[0])
    z = np.arange(count * draws, dtype=np.uint64)
    z *= GAMMA
    z += (key + (start * draws + 1) * GAMMA) & _MASK
    mix64(z)
    z >>= 11
    return np.multiply(z, 2.0 ** -53).reshape(count, draws)
