"""Deterministic pseudo-random number generation (PCG32, XSH-RR 64/32).

Every simulation run owns one generator constructed from a master seed and a
stream index, so runs are bit-reproducible and never share state.  The scalar
and block interfaces draw from the same output sequence: ``next_u32_block(k)``
returns exactly the values that ``k`` scalar ``next_u32()`` calls would.
"""

from __future__ import annotations

import numpy as np

_MULT = 6364136223846793005
_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

#: Scale factor for the documented u32 -> [0, 1) mapping: value / 2**32.
TWO_POW_32 = 4294967296.0

#: Draws generated per pass of ``Pcg32.next_u32_block``.  A pass touches
#: about 44 bytes of tables, states and temporaries per draw, so a 16k pass
#: (about 700 kB) stays in cache.  On a 2-vCPU Xeon host 16k measured
#: 4.5 ns/u32 against 5.0-5.8 ns for 8k and 32k, and 24 ns for a 600k block
#: generated in one pass.
CHUNK = 16384

# Jump tables for vectorized state generation: _POW[i] = MULT^i and
# _GEO[i] = 1 + MULT + ... + MULT^(i-1), both mod 2^64.  The LCG state after
# i steps from s is POW[i] * s + GEO[i] * increment, so once GEO * increment
# is formed a chunk of pre-advance states takes two elementwise operations.
# A chunk needs CHUNK + 1 entries; they are built at import by doubling:
# POW[m+i] = POW[m] * POW[i]   and   GEO[m+i] = GEO[m] + POW[m] * GEO[i].
def _step_tables(count: int) -> tuple[np.ndarray, np.ndarray]:
    pows = np.array([1], dtype=np.uint64)
    geos = np.array([0], dtype=np.uint64)
    while pows.size < count:
        m = pows.size
        pow_m = np.uint64((int(pows[-1]) * _MULT) & _MASK64)
        geo_m = np.uint64((int(geos[-1]) + int(pows[-1])) & _MASK64)
        pows = np.concatenate([pows, pows * pow_m])
        geos = np.concatenate([geos, geo_m + pow_m * geos[:m]])
    return pows[:count], geos[:count]


_POW, _GEO = _step_tables(CHUNK + 1)


def derive_stream(setting: int, run_index: int) -> int:
    """Stream id for (swept setting, run index): injective, order-stable.

    Adding settings to a sweep or appending runs never perturbs the streams
    of existing runs.  The setting is limited to 31 bits because Pcg32 uses
    (stream << 1) | 1 as its 64-bit increment, which drops bit 63.
    """
    if not 0 <= setting < 1 << 31:
        raise ValueError(f"setting must be in [0, 2**31), got {setting}")
    if not 0 <= run_index < 1 << 32:
        raise ValueError("run_index must fit in 32 bits")
    return (setting << 32) | run_index


class Pcg32:
    """PCG32 generator with the reference multiplier and stream convention.

    State is 64 bits; the increment (stream selector) is forced odd via
    ``(stream << 1) | 1``.  Distinct streams yield statistically independent
    sequences, so parallel runs use one stream per run.
    """

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int, stream: int = 0):
        self._inc = ((stream << 1) | 1) & _MASK64
        self._state = 0
        self._advance()
        self._state = (self._state + seed) & _MASK64
        self._advance()

    @property
    def state(self) -> tuple[int, int]:
        """Current (state, increment) pair; increment is always odd."""
        return self._state, self._inc

    def _advance(self) -> None:
        self._state = (self._state * _MULT + self._inc) & _MASK64

    def next_u32(self) -> int:
        """Next 32-bit output (XSH-RR applied to the pre-advance state)."""
        old = self._state
        self._advance()
        xorshifted = (((old >> 18) ^ old) >> 27) & _MASK32
        rot = old >> 59
        return ((xorshifted >> rot) | (xorshifted << ((-rot) & 31))) & _MASK32

    def next_u64(self) -> int:
        """Two consecutive u32 draws combined as (high << 32) | low."""
        hi = self.next_u32()
        return (hi << 32) | self.next_u32()

    def next_u32_block(self, count: int) -> np.ndarray:
        """Vectorized batch of ``count`` outputs, identical to scalar draws.

        The states are generated CHUNK at a time from the state carried over
        from the previous chunk, so the temporaries stay cache-sized whatever
        ``count`` is.
        """
        out = np.empty(max(count, 0), dtype=np.uint32)
        if count <= 0:
            return out
        size = min(count, CHUNK)
        steps = _GEO[: size + 1] * np.uint64(self._inc)
        states = np.empty(size + 1, dtype=np.uint64)
        wide = np.empty(size, dtype=np.uint64)
        word = np.empty(size, dtype=np.uint32)
        rot = np.empty(size, dtype=np.uint32)
        state = self._state
        for start in range(0, count, CHUNK):
            m = min(CHUNK, count - start)
            s, t, x, r = states[: m + 1], wide[:m], word[:m], rot[:m]
            np.multiply(_POW[: m + 1], np.uint64(state), out=s)
            s += steps[: m + 1]
            state = int(s[m])
            s = s[:m]
            # XSH-RR: x = ((s >> 18) ^ s) >> 27 truncated to 32 bits, rotated
            # right by the top five state bits.
            np.right_shift(s, 18, out=t)
            t ^= s
            t >>= 27
            np.copyto(x, t, casting="unsafe")
            np.right_shift(s, 59, out=t)
            np.copyto(r, t, casting="unsafe")
            o = out[start : start + m]
            np.right_shift(x, r, out=o)
            np.negative(r, out=r)
            r &= 31
            x <<= r
            o |= x
        self._state = state
        return out

    def next_u64_block(self, count: int) -> np.ndarray:
        """Batch of u64 values; element i packs draws (2i, 2i+1) high-first."""
        u = self.next_u32_block(2 * count).astype(np.uint64)
        return (u[0::2] << np.uint64(32)) | u[1::2]
