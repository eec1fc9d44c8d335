"""Reset draws: numpy's ``Generator(PCG64(seed)).uniform`` in plain Python.

Every reset state comes from :class:`UniformStream`, which reproduces bit
for bit what ``numpy.random.Generator(numpy.random.PCG64(seed))`` draws with
``uniform(low, high)``, for every seed in ``[0, 2**64)``. Records made while
the package still seeded through numpy therefore replay unchanged, and
neither the numpy version nor its presence can move an episode.

Seeding follows numpy's ``SeedSequence``:

* the seed is split into 32-bit words, least significant first; a seed
  below ``2**32`` gives one word, and a missing second word hashes exactly
  as the zero padding of the pool does, so every seed here is two words;
* a pool of four words is filled with ``hashmix``, then every word is mixed
  into every other one; each ``hashmix`` call advances a multiplier, so
  the xor and multiply constants of the 16 calls are a fixed sequence;
* eight output words are hashed out of the pool with a second multiplier
  sequence and paired little-endian into four 64-bit words ``v0..v3``.

PCG64 is then seeded with state ``v0 << 64 | v1`` and stream ``v2 << 64 |
v3`` (``pcg_setseq_128_srandom_r``). Each draw advances the 128-bit LCG and
outputs XSL-RR, and ``uniform`` is ``low + (high - low) * u`` with ``u`` the
top 53 bits of that output over ``2**53``, as numpy's ``random_uniform``.

The pool is written out step by step, not looped over a table: a reset
seeds one stream and draws at most four values, so seeding dominates it,
and the unrolled form is cheaper than numpy's own ``PCG64(seed)``.
"""

from __future__ import annotations

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1

# SeedSequence's hash and mix constants
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715

# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_TO_UNIT = 1.0 / 9007199254740992.0  # 2**-53


def _constants(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """(xor, multiply) per hash call: the multiplier before and after the
    call advances it."""
    pairs = []
    for _ in range(count):
        advanced = (init * mult) & _M32
        pairs.append((init, advanced))
        init = advanced
    return pairs


def _hash(value: int, xor: int, mult: int) -> int:
    value = ((value ^ xor) * mult) & _M32
    return value ^ (value >> 16)


# The 16 hashmix calls of a four-word pool: four fills, then twelve mixes.
(
    (_XA0, _MA0), (_XA1, _MA1), (_XA2, _MA2), (_XA3, _MA3),
    (_XA4, _MA4), (_XA5, _MA5), (_XA6, _MA6), (_XA7, _MA7),
    (_XA8, _MA8), (_XA9, _MA9), (_XA10, _MA10), (_XA11, _MA11),
    (_XA12, _MA12), (_XA13, _MA13), (_XA14, _MA14), (_XA15, _MA15),
) = _constants(_INIT_A, _MULT_A, 16)

# The last two pool words only ever hold zero padding.
_POOL2 = _hash(0, _XA2, _MA2)
_POOL3 = _hash(0, _XA3, _MA3)

# The eight output hashes.
(
    (_XB0, _MB0), (_XB1, _MB1), (_XB2, _MB2), (_XB3, _MB3),
    (_XB4, _MB4), (_XB5, _MB5), (_XB6, _MB6), (_XB7, _MB7),
) = _constants(_INIT_B, _MULT_B, 8)


class UniformStream:
    """The ``uniform`` draws of ``Generator(PCG64(seed))``, 0 <= seed < 2**64."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int) -> None:
        if not 0 <= seed <= _M64:
            raise ValueError(f"seed {seed} is outside [0, 2**64)")
        # Fill the pool: hash the two seed words as _hash() does. Mixing
        # word y into word x is (L*x - R*y) mod 2**32, then the same xorshift.
        h = (((seed & _M32) ^ _XA0) * _MA0) & _M32
        p0 = h ^ (h >> 16)
        h = (((seed >> 32) ^ _XA1) * _MA1) & _M32
        p1 = h ^ (h >> 16)
        p2 = _POOL2
        p3 = _POOL3
        # Mix every word into every other one, source-major.
        h = ((p0 ^ _XA4) * _MA4) & _M32
        m = (_MIX_L * p1 - _MIX_R * (h ^ (h >> 16))) & _M32
        p1 = m ^ (m >> 16)
        h = ((p0 ^ _XA5) * _MA5) & _M32
        m = (_MIX_L * p2 - _MIX_R * (h ^ (h >> 16))) & _M32
        p2 = m ^ (m >> 16)
        h = ((p0 ^ _XA6) * _MA6) & _M32
        m = (_MIX_L * p3 - _MIX_R * (h ^ (h >> 16))) & _M32
        p3 = m ^ (m >> 16)
        h = ((p1 ^ _XA7) * _MA7) & _M32
        m = (_MIX_L * p0 - _MIX_R * (h ^ (h >> 16))) & _M32
        p0 = m ^ (m >> 16)
        h = ((p1 ^ _XA8) * _MA8) & _M32
        m = (_MIX_L * p2 - _MIX_R * (h ^ (h >> 16))) & _M32
        p2 = m ^ (m >> 16)
        h = ((p1 ^ _XA9) * _MA9) & _M32
        m = (_MIX_L * p3 - _MIX_R * (h ^ (h >> 16))) & _M32
        p3 = m ^ (m >> 16)
        h = ((p2 ^ _XA10) * _MA10) & _M32
        m = (_MIX_L * p0 - _MIX_R * (h ^ (h >> 16))) & _M32
        p0 = m ^ (m >> 16)
        h = ((p2 ^ _XA11) * _MA11) & _M32
        m = (_MIX_L * p1 - _MIX_R * (h ^ (h >> 16))) & _M32
        p1 = m ^ (m >> 16)
        h = ((p2 ^ _XA12) * _MA12) & _M32
        m = (_MIX_L * p3 - _MIX_R * (h ^ (h >> 16))) & _M32
        p3 = m ^ (m >> 16)
        h = ((p3 ^ _XA13) * _MA13) & _M32
        m = (_MIX_L * p0 - _MIX_R * (h ^ (h >> 16))) & _M32
        p0 = m ^ (m >> 16)
        h = ((p3 ^ _XA14) * _MA14) & _M32
        m = (_MIX_L * p1 - _MIX_R * (h ^ (h >> 16))) & _M32
        p1 = m ^ (m >> 16)
        h = ((p3 ^ _XA15) * _MA15) & _M32
        m = (_MIX_L * p2 - _MIX_R * (h ^ (h >> 16))) & _M32
        p2 = m ^ (m >> 16)
        # Hash out eight words, cycling over the pool.
        w0 = ((p0 ^ _XB0) * _MB0) & _M32
        w1 = ((p1 ^ _XB1) * _MB1) & _M32
        w2 = ((p2 ^ _XB2) * _MB2) & _M32
        w3 = ((p3 ^ _XB3) * _MB3) & _M32
        w4 = ((p0 ^ _XB4) * _MB4) & _M32
        w5 = ((p1 ^ _XB5) * _MB5) & _M32
        w6 = ((p2 ^ _XB6) * _MB6) & _M32
        w7 = ((p3 ^ _XB7) * _MB7) & _M32
        # state = v0 << 64 | v1 and stream = v2 << 64 | v3, where
        # v_k = w_(2k+1) << 32 | w_(2k)
        start = (
            (w1 ^ (w1 >> 16)) << 96
            | (w0 ^ (w0 >> 16)) << 64
            | (w3 ^ (w3 >> 16)) << 32
            | (w2 ^ (w2 >> 16))
        )
        stream = (
            (w5 ^ (w5 >> 16)) << 96
            | (w4 ^ (w4 >> 16)) << 64
            | (w7 ^ (w7 >> 16)) << 32
            | (w6 ^ (w6 >> 16))
        )
        # pcg_setseq_128_srandom_r: from state 0, step, add the start, step.
        inc = ((stream << 1) | 1) & _M128
        self._inc = inc
        self._state = ((inc + start) * _PCG_MULT + inc) & _M128

    def uniform(self, low: float, high: float) -> float:
        """One draw from [low, high), as ``Generator.uniform(low, high)``."""
        state = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = state
        top = state >> 64
        word = (top ^ state) & _M64
        rot = top >> 58
        word = ((word >> rot) | (word << (64 - rot))) & _M64
        return low + (high - low) * ((word >> 11) * _TO_UNIT)
