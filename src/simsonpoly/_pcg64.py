"""numpy's ``default_rng(seed).uniform`` stream in plain Python.

``default_rng(seed)`` hashes the seed with a ``SeedSequence`` into 128
bits of state and 128 bits of increment, and then runs PCG64: a 128-bit
linear congruential generator whose 64-bit output is the XOR of the
state's halves rotated right by the state's top 6 bits (XSL-RR; O'Neill
2014, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
Algorithms for Random Number Generation").  Both stages are integer
arithmetic modulo powers of two, so Python ints reproduce them bit for
bit, and the same seed perturbs the same polygon with or without numpy.
"""

from __future__ import annotations

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants; its pool holds 4 words.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """The seed as little-endian 32-bit words; 0 is one zero word."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    return words


def _pool(seed: int) -> list[int]:
    """SeedSequence's entropy pool: hashmix each word, then cross-mix."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    entropy = _seed_words(seed)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _state_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``."""
    pool = _pool(seed)
    hash_const = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        halves.append(value ^ (value >> 16))
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


def uniform(seed: int, low: float, high: float, count: int) -> list[float]:
    """``default_rng(seed).uniform(low, high, size=count)`` as floats."""
    s0, s1, i0, i1 = _state_words(seed)
    inc = (((i0 << 64 | i1) << 1) | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
    span = high - low
    out = []
    for _ in range(count):
        state = (state * _PCG_MULT + inc) & _MASK128
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        word = ((word >> rot) | (word << (64 - rot))) & _MASK64
        out.append(low + span * ((word >> 11) * 2.0**-53))
    return out
