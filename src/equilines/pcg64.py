"""The seeded move stream of the local search, owned by the package.

``PCG64(seed)`` gives exactly the draws of numpy's
``Generator(PCG64(seed))`` for ``permutation(total)`` and for
``integers(0, n, size)`` with n <= 2**32, but imports numpy core only:
numpy does not promise to keep that stream (NEP 19).
"""

from __future__ import annotations

import numpy as np

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Outputs per vector step, against numpy's per-call overhead: about 12 ns a
# word against 29 ns at 1024 lanes (2-core x86_64); 8192 lanes gained 10%
# but raised a 1,000,000-move search's peak RSS by 0.6 MB.
_LANES = 4096


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


def _jump(hi: np.ndarray, lo: np.ndarray, a: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Each lane's 128-bit state (hi, lo) times a plus c, mod 2**128.  The
    high half of lo times a's low half is built from 32-bit limbs."""
    a_lo, c_lo = a & _M64, c & _M64
    a0, a1 = a_lo & _M32, a_lo >> 32
    l0, l1 = lo & _M32, lo >> 32
    t = l1 * a0 + (l0 * a0 >> 32)
    u = (t & _M32) + l0 * a1
    new_lo = lo * a_lo + c_lo
    new_hi = (hi * a_lo + lo * (a >> 64) + l1 * a1 + (t >> 32) + (u >> 32) + (c >> 64)
              + (new_lo < c_lo))
    return new_hi, new_lo


class PCG64:
    """numpy's PCG64 stream, read as 32-bit words by the two draws."""

    def __init__(self, seed: int):
        w0, w1, w2, w3 = _seed_state(seed)
        inc = ((w2 << 64 | w3) << 1 | 1) & _M128
        # PCG's srandom: step, add the initial state, step.
        state = ((inc + (w0 << 64 | w1)) * _MULT + inc) * _MULT + inc & _M128
        # The lanes hold the states of the next _LANES outputs, doubled from
        # the first by jumps of 1, 2, 4, ... steps.
        hi, lo = np.array([state >> 64], np.uint64), np.array([state & _M64], np.uint64)
        a, c = _MULT, inc
        while len(lo) < _LANES:
            next_hi, next_lo = _jump(hi, lo, a, c)
            hi, lo = np.concatenate((hi, next_hi)), np.concatenate((lo, next_lo))
            a, c = a * a & _M128, (a * c + c) & _M128
        self._hi, self._lo, self._step = hi, lo, (a, c)
        self._words = np.empty(0, np.uint32)

    def _take(self, count: int) -> np.ndarray:
        """The stream's next count words."""
        parts = [self._words]
        for _ in range(-(-(count - len(self._words)) // (2 * _LANES))):
            hi, lo = self._hi, self._lo
            # XSL-RR of each state (O'Neill, "PCG", HMC-CS-2014-0905); an
            # output's low half is the earlier word.
            x, rot = hi ^ lo, hi >> 58
            out = (x >> rot) | (x << ((64 - rot) & 63))
            parts.append(out.astype("<u8", copy=False).view("<u4"))
            self._hi, self._lo = _jump(hi, lo, *self._step)
        words = np.concatenate(parts) if len(parts) > 1 else parts[0]
        self._words = words[count:]
        return words[:count]

    def permutation(self, total: int) -> list[int]:
        """A shuffle of range(total): Fisher-Yates from the top, each j a
        masked word redrawn while above i."""
        perm = list(range(total))
        for i in range(total - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := int(self._take(1)[0]) & mask) > i:
                pass
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def integers(self, n: int, size: int) -> np.ndarray:
        """size draws below n (1 <= n <= 2**32), as uint64, by Lemire's method
        (ACM TOMACS 29(1), 2019): m = word * n, redrawn while its low half
        is below (2**32 - n) % n, gives m >> 32."""
        if n == 1:
            return np.zeros(size, np.uint64)
        threshold = ((1 << 32) - n) % n
        drawn = []
        while size or not drawn:
            m = np.multiply(self._take(size), n, dtype=np.uint64)
            low = m.astype(np.uint32)
            if threshold and (low < threshold).any():
                m = m[low >= threshold]
            drawn.append(m >> 32)
            size -= len(m)
        return np.concatenate(drawn) if len(drawn) > 1 else drawn[0]
