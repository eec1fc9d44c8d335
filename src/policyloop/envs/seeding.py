"""Reset draws: numpy's ``Generator(PCG64(seed)).uniform`` in plain Python.

Every reset state comes from :func:`uniform_draws`, which reproduces bit for
bit what ``numpy.random.Generator(numpy.random.PCG64(seed))`` draws with
``uniform(low, high)``, for every seed modulo ``2**64``. Records made while
the package still seeded through numpy therefore replay unchanged, and
neither the numpy version nor its presence can move an episode.

Seeding follows numpy's ``SeedSequence``:

* the seed is split into 32-bit words, least significant first; a seed
  below ``2**32`` gives one word, and a missing second word hashes exactly
  as the zero padding of the pool does, so every seed here is two words;
* a pool of four words is filled with ``hashmix``: the two seed words, then
  zero padding; then every word is hashed and mixed into every other one,
  source-major (word 0 into words 1, 2, 3, then word 1, ...). Each
  ``hashmix`` call advances a multiplier, so the xor and multiply constants
  of these 4 + 12 calls are a fixed table, ``_POOL_HASHES``;
* eight output words are hashed out of the pool, cycling over it, with a
  second table, ``_OUT_HASHES``, and paired little-endian into four 64-bit
  words ``v0..v3``.

PCG64 is then seeded with state ``v0 << 64 | v1`` and stream ``v2 << 64 |
v3`` (``pcg_setseq_128_srandom_r``). Each draw advances the 128-bit LCG and
outputs XSL-RR, and ``uniform`` is ``low + (high - low) * u`` with ``u`` the
top 53 bits of that output over ``2**53``, as numpy's ``random_uniform``.
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


# (xor, multiply) of each hash: the pool's four fills and twelve mixes, then
# the eight output words
_POOL_HASHES = _constants(_INIT_A, _MULT_A, 16)
_OUT_HASHES = _constants(_INIT_B, _MULT_B, 8)

# (source, destination) of the twelve mixes, source-major
_MIXES = [(src, dst) for src in range(4) for dst in range(4) if src != dst]


def uniform_draws(seed: int, ranges) -> tuple[float, ...]:
    """One ``Generator(PCG64(seed % 2**64)).uniform(low, high)`` draw per
    ``(low, high)`` pair of ``ranges``, in order: a negative seed is its
    two's complement. A pair with ``low == high`` draws exactly ``low``."""
    seed &= _M64
    words = (seed & _M32, seed >> 32, 0, 0)
    pool = [_hash(word, xor, mult) for word, (xor, mult) in zip(words, _POOL_HASHES)]
    # mixing word y into word x is (L*x - R*hash(y)) mod 2**32, then the
    # same xorshift as _hash()
    for (src, dst), (xor, mult) in zip(_MIXES, _POOL_HASHES[4:]):
        m = (_MIX_L * pool[dst] - _MIX_R * _hash(pool[src], xor, mult)) & _M32
        pool[dst] = m ^ (m >> 16)
    w = [_hash(word, xor, mult) for word, (xor, mult) in zip(pool * 2, _OUT_HASHES)]
    # state = v0 << 64 | v1 and stream = v2 << 64 | v3, where
    # v_k = w_(2k+1) << 32 | w_(2k)
    start = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    stream = w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
    # pcg_setseq_128_srandom_r: from state 0, step, add the start, step.
    inc = ((stream << 1) | 1) & _M128
    state = ((inc + start) * _PCG_MULT + inc) & _M128
    draws = []
    for low, high in ranges:
        state = (state * _PCG_MULT + inc) & _M128
        top = state >> 64
        word = (top ^ state) & _M64
        rot = top >> 58
        word = ((word >> rot) | (word << (64 - rot))) & _M64
        draws.append(low + (high - low) * ((word >> 11) * _TO_UNIT))
    return tuple(draws)
