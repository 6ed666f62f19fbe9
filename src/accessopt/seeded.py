"""The seeded stream that synth draws from, without ``numpy.random``.

``Stream(seed)`` gives the numbers ``numpy.random.default_rng(seed)`` gives
for the two draws synth makes, ``uniform`` and a weighted ``choice`` without
replacement.  Importing ``numpy.random`` loads ``secrets`` and, through
``hashlib``, OpenSSL: about 6 MB and 10 ms of a process.  The seed's 32-bit
words are mixed into a pool of four as numpy's ``SeedSequence`` mixes them,
the pool gives PCG64's 128-bit state and increment, and each draw steps
PCG64 and takes its XSL-RR output (O'Neill 2014).
"""

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's hash of a 32-bit word; each call moves its constant on."""
    def hash_word(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hash_word


def _mix(x: int, y: int) -> int:
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return value ^ value >> 16


def _pool(seed: int) -> list[int]:
    """SeedSequence's pool of four words for a seed >= 0."""
    words = [seed & _M32]
    while seed := seed >> 32:
        words.append(seed & _M32)
    hash_word = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hash_word(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_word(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hash_word(word))
    return pool


class Stream:
    """PCG64 seeded as ``numpy.random.default_rng(seed)`` seeds it."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int) -> None:
        # generate_state(4, uint64): eight words off the cycled pool, paired
        # low word first, then two 128-bit numbers, high half first
        hash_word, pool = _hasher(0x8B51F9DD, 0x58F38DED), _pool(seed)
        words = [hash_word(pool[i % 4]) for i in range(8)]
        v = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
        state, seq = v[0] << 64 | v[1], v[2] << 64 | v[3]
        self._inc = (seq << 1 | 1) & _M128
        self._state = (self._inc + state) * _PCG_MULT + self._inc & _M128

    def random(self, size: int) -> np.ndarray:
        """``size`` doubles in [0, 1), each the top 53 bits of one output."""
        state, inc, tops = self._state, self._inc, []
        for _ in range(size):
            state = (state * _PCG_MULT + inc) & _M128
            x = (state >> 64 ^ state) & _M64
            rot = state >> 122
            tops.append((x >> rot | x << (64 - rot) & _M64) >> 11)
        self._state = state
        return np.array(tops, dtype=float) * 2.0**-53

    def uniform(self, low: float, high: float, size: int) -> np.ndarray:
        low, high = float(low), float(high)
        return low + (high - low) * self.random(size)

    def choice(self, n: int, size: int, p: np.ndarray) -> list[int]:
        """``size`` distinct indices below ``n`` drawn with weights ``p``, in
        numpy's rounds: a draw for each index still missing, searched in the
        cdf of the weights not yet picked; the first hit of each new index
        is kept, in draw order."""
        p = np.array(p, dtype=float)
        if len(p) != n or np.count_nonzero(p > 0) < size:
            raise ValueError(f"{size} distinct picks need {n} weights, {size} of them > 0")
        found: list[int] = []
        while len(found) < size:
            x = self.random(size - len(found))
            p[found] = 0.0
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
            found += dict.fromkeys(cdf.searchsorted(x, side="right").tolist())
        return found
