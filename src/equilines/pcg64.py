"""The seeded move stream of the local search, owned by the package.

``PCG64(seed)`` gives exactly the draws of numpy's
``Generator(PCG64(seed))`` for ``permutation(total)`` and for
``integers(0, n, size)`` with n <= 2**32, without importing numpy: numpy
does not promise to keep that stream (NEP 19), and a local search needs
nothing else of it.  It steps _LANES states at once, packed into one
Python int, in a few whole-int operations rather than a loop per output.
"""

from __future__ import annotations

import sys
from array import array

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Outputs per packed step: at 1024, 2048 and 4096, 100,000 moves take 26-28
# ms alike; 1024 sets up in 0.38 ms against 0.64 and 1.2 ms (2-core x86_64).
_LANES = 1024


def _repeat(value: int, width: int, count: int) -> int:
    """value in each of count lanes of width bits."""
    return int.from_bytes(value.to_bytes(width // 8, "little") * count, "little")


_ONES = _repeat(1, 64, _LANES)  # 1 in each 64-bit lane
_LANE_MASK = _repeat(_M128, 256, _LANES)
# Per rotation by s: the lanes' bits that x >> s keeps, and those x << 64 - s does.
_ROTATE = [(s, _repeat(_M64 >> s, 64, _LANES), _repeat(_M64 >> 64 - s << 64 - s, 64, _LANES))
           for s in (1, 2, 4, 8, 16, 32)]


def _seed_state(seed: int) -> list[int]:
    """numpy's SeedSequence(seed).generate_state(4, uint64)."""
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * hashmix(y)) & _M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], pool[src])
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], word)
    const, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def _xsl_rr(lanes: int) -> bytes:
    """XSL-RR of each packed 128-bit state (O'Neill, "PCG", HMC-CS-2014-0905),
    as little-endian 64-bit words: hi ^ lo rotated right by hi >> 58.  The
    halves are repacked into 64-bit lanes, and the variable rotation is six
    conditional ones, by 2**b bits where bit 58 + b of hi is set."""
    halves = memoryview(lanes.to_bytes(32 * _LANES, "little")).cast("Q")
    hi = int.from_bytes(halves[1::4], "little")
    x = hi ^ int.from_bytes(halves[0::4], "little")
    for b, (s, low, high) in enumerate(_ROTATE):
        rotated = (x >> s & low) | (x << 64 - s & high)
        x ^= (x ^ rotated) & (hi >> 58 + b & _ONES) * _M64
    return x.to_bytes(8 * _LANES, "little")


class PCG64:
    """numpy's PCG64 stream, read as 32-bit words by the two draws."""

    def __init__(self, seed: int):
        w0, w1, w2, w3 = _seed_state(seed)
        inc = ((w2 << 64 | w3) << 1 | 1) & _M128
        # PCG's srandom: step, add the initial state, step.
        state = ((inc + (w0 << 64 | w1)) * _MULT + inc) * _MULT + inc & _M128
        # The lanes hold the states of the next _LANES outputs, doubled from
        # the first by jumps of 1, 2, 4, ... steps: (a, c) jumps count steps.
        lanes, count, a, c = state, 1, _MULT, inc
        while count < _LANES:
            jumped = lanes * a + _repeat(c, 256, count) & _repeat(_M128, 256, count)
            lanes |= jumped << 256 * count
            count, a, c = 2 * count, a * a & _M128, (a * c + c) & _M128
        self._lanes, self._a, self._c = lanes, a, _repeat(c, 256, _LANES)
        self._words, self._pos = b"", 0

    def _take(self, count: int) -> bytes:
        """The stream's next count words, as little-endian bytes; an
        output's low half is the earlier word."""
        while self._pos + 4 * count > len(self._words):
            self._words, self._pos = self._words[self._pos :] + _xsl_rr(self._lanes), 0
            self._lanes = self._lanes * self._a + self._c & _LANE_MASK
        self._pos += 4 * count
        return self._words[self._pos - 4 * count : self._pos]

    def permutation(self, total: int) -> list[int]:
        """A shuffle of range(total): Fisher-Yates from the top, each j a
        masked word redrawn while above i."""
        perm = list(range(total))
        for i in range(total - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := int.from_bytes(self._take(1), "little") & mask) > i:
                pass
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def integers(self, n: int, size: int) -> array:
        """size draws below n (1 <= n <= 2**32), as array('I'), by Lemire's
        method (ACM TOMACS 29(1), 2019): m = word * n, redrawn while its
        low half is below (2**32 - n) % n, gives m >> 32."""
        if n == 1:
            return array("I", bytes(4 * size))
        threshold = ((1 << 32) - n) % n
        drawn = array("I")
        while len(drawn) < size:
            drawn += _lemire(self._take(min(size - len(drawn), 2 * _LANES)), n, threshold)
        return drawn


def _lemire(words: bytes, n: int, threshold: int) -> array:
    """The draws that Lemire's method takes from words, at most 2 * _LANES
    of them: each word w gives w * n >> 32 unless w * n mod 2**32 is below
    threshold.  The even and odd words are multiplied in 64-bit lanes; a
    chunk with any rejection is redone word by word."""
    count = len(words) // 4
    slots = (count + 1) // 2
    # A padding word of 2**32 - 1 leaves a low half of 2**32 - n: kept.
    pairs = int.from_bytes(words + b"\xff" * (count % 2 * 4), "little")
    ones = _ONES >> 64 * (_LANES - slots)
    low = ones * _M32
    even, odd = (pairs & low) * n, (pairs >> 32 & low) * n
    if threshold:
        # Bit 32 of a low half plus 2**32 - threshold is set iff it is kept.
        top, offset = ones << 32, ones * ((1 << 32) - threshold)
        if ((even & low) + offset) & ((odd & low) + offset) & top != top:
            each = (int.from_bytes(words[i : i + 4], "little") for i in range(0, len(words), 4))
            return array("I", [m >> 32 for w in each if (m := w * n) & _M32 >= threshold])
    drawn = array("I", ((even >> 32 & low) | (odd & low << 32)).to_bytes(8 * slots, "little"))
    if sys.byteorder == "big":
        drawn.byteswap()
    return drawn[:count]
