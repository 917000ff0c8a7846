"""The owned PCG64 stream against numpy.random.Generator(PCG64(seed)).

The local search draws its moves from equilines.pcg64 and its reports are
pinned by digest, so the stream must stay the one numpy's Generator gave
when they were recorded.  numpy is the oracle here; the golden draws hold
the contract without it.
"""

from __future__ import annotations

from array import array

import numpy as np
import pytest

from equilines import pcg64
from equilines.pcg64 import PCG64

# 2**64 + 5 has three entropy words and 2**160 + 3 six, so its words past
# the fourth are mixed in last; 2**32 - 1 and 2**32 straddle a word.
SEEDS = (0, 1, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**160 + 3)
# With n = 2**31 + 1 about half the words are redrawn; 2**32 keeps every one.
BOUNDS = (1, 2, 3, 13, 1000, 2**31 + 1, 2**32)
# The odd sizes leave half an output kept for the next call.  A packed step
# gives 2 * _LANES words, and a bounded draw takes at most that many at once:
# the sizes around it, and three steps' worth, cross those edges.
BLOCK = 2 * pcg64._LANES
SIZES = (0, 1, 7, 4096, 5000, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK)


def numpy_generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_permutations_match_numpy(seed):
    own, oracle = PCG64(seed), numpy_generator(seed)
    for total in (2, 9, 25, 300):
        assert own.permutation(total) == oracle.permutation(total).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_consecutive_bounded_draws_match_numpy(seed):
    # One stream through every call, after a permutation as in the search.
    own, oracle = PCG64(seed), numpy_generator(seed)
    assert own.permutation(25) == oracle.permutation(25).tolist()
    for n in BOUNDS:
        for size in SIZES:
            drawn = own.integers(n, size)
            assert isinstance(drawn, array) and drawn.typecode == "I" and len(drawn) == size
            assert drawn.tolist() == oracle.integers(0, n, size, dtype=np.int64).tolist(), (n, size)


def test_golden_draws():
    rng = PCG64(2**64 + 5)
    assert rng.permutation(9) == [5, 6, 8, 4, 0, 3, 2, 7, 1]
    assert rng.integers(13, 7).tolist() == [12, 1, 3, 7, 6, 8, 11]
    assert rng.integers(2**31 + 1, 3).tolist() == [399980803, 1707519094, 734842271]
    assert rng.integers(2**32, 2).tolist() == [1719404073, 1535074200]


def little_endian(words: list[int]) -> bytes:
    return b"".join(w.to_bytes(4, "little") for w in words)


@pytest.mark.parametrize("count", [1, 2, 7, 8, BLOCK - 1, BLOCK])
def test_lemire_chunk_finds_a_lone_rejection(count):
    # Every word is kept but one, at each end and in the middle of the
    # even and the odd words: the chunk must be redone word by word.
    n = 2**31 + 1
    threshold = (2**32 - n) % n
    kept = 2**32 - 1  # the low half of its product with n is 2**32 - n >= threshold
    assert pcg64._lemire(little_endian([kept] * count), n, threshold).tolist() == [
        kept * n >> 32
    ] * count
    for at in {0, 1, count // 2, count - 2, count - 1} & set(range(count)):
        words = [kept] * count
        words[at] = 0  # a low half of 0 < threshold
        drawn = pcg64._lemire(little_endian(words), n, threshold)
        assert drawn.tolist() == [w * n >> 32 for i, w in enumerate(words) if i != at], at
