"""``seeded.Stream`` against ``numpy.random.default_rng``, its reference.

Synth draws from ``Stream`` so that no command imports ``numpy.random``.
Here numpy's own generator, from the same seed, says what every draw must
be, bit for bit, and a draw after each call shows that both streams moved
on by the same number of outputs.
"""

import numpy as np
import pytest

from accessopt.seeded import Stream

# 2**130 + 12345 has five 32-bit words, one more than SeedSequence's pool
SEEDS = [*range(301), 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 12345]


class CountedStream(Stream):
    __slots__ = ("rounds",)

    def random(self, size):
        self.rounds += 1
        return super().random(size)


def same_next_draw(ours, numpy_rng):
    return np.array_equal(ours.uniform(0, 1, 3), numpy_rng.uniform(0, 1, size=3))


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_matches_numpy(seed):
    ours, ref = Stream(seed), np.random.default_rng(seed)
    for low, high, size in [(0.95, 1.10, 0), (0, 19, 1), (0.12, 0.30, 3),
                            (0.7, 1.3, 1 + seed * 11 % 3000), (-2.5, 1e6, 17)]:
        drawn = ours.uniform(low, high, size)
        assert drawn.dtype == np.float64
        assert drawn.tobytes() == ref.uniform(low, high, size=size).tobytes()
    assert same_next_draw(ours, ref)


def weights(seed, n=60):
    """Peaked weights with every fifth one 0, as a probability vector."""
    w = np.exp(-((np.arange(n) - seed % n) ** 2) / (2.0 + seed % 40))
    w[::5] = 0.0
    return w / w.sum()


def test_choice_matches_numpy():
    rounds = []
    for seed in SEEDS:
        p = weights(seed)
        size = 10 + seed % 39  # up to all 48 positive weights
        ours, ref = CountedStream(seed), np.random.default_rng(seed)
        ours.rounds = 0
        picked = ours.choice(len(p), size, p)
        assert picked == ref.choice(len(p), size=size, replace=False, p=p).tolist()
        assert len(set(picked)) == size and all(p[i] > 0 for i in picked)
        assert same_next_draw(ours, ref)
        rounds.append(ours.rounds)
    # most calls need more than one round, and some many
    assert sum(r > 1 for r in rounds) > len(SEEDS) // 2
    assert max(rounds) >= 5


def test_choice_refuses_too_few_positive_weights():
    p = np.array([0.5, 0.0, 0.5, 0.0])
    with pytest.raises(ValueError, match="3 distinct picks need 4 weights, 3 of them > 0"):
        Stream(0).choice(4, 3, p)
