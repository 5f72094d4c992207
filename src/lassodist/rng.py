"""Seeded random streams: Gaussian replicate chunks and QMC lattice shifts.

Replicates are organized in fixed-size chunks; chunk c of a run draws from a
counter-based Philox generator keyed by SeedSequence((seed, c)). The sampled
set therefore depends only on (seed, n_samples), never on scheduling, and
chunks could be consumed in any order or in parallel without changing the
result. Only `normal_chunk` loads numpy.random.

The lattice shifts of the Genz kernel come from `philox_uniforms`, a
pure-Python port of numpy's Generator(Philox(SeedSequence(entropy,
spawn_key=key))).random(count): SeedSequence's hash mixing into a pool of
four 32-bit words, generate_state(2, uint64) as the Philox key, Philox4x64-10
(Salmon et al. 2011) with its 256-bit counter incremented before each block,
and (x >> 11) * 2^-53 per output word. The draws are bitwise numpy's, and
they do not depend on the installed numpy, whose random module no quadrature
call loads.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .model import _check_seed

CHUNK = 4096

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
# numpy/random/bit_generator.pyx: SeedSequence's hash and mixing constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# Random123's Philox4x64 multipliers and Weyl key increments
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10


def normal_chunk(seed: int, chunk_index: int, shape) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, chunk_index))))
    return gen.standard_normal(shape)


def gaussian_chunks(seed: int, n_samples: int, dim: int):
    """Yield (start, count, Z) blocks with Z of shape (count, dim), iid N(0,1)."""
    seed = _check_seed(seed)
    n_samples = int(n_samples)
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    start = 0
    chunk_index = 0
    while start < n_samples:
        count = min(CHUNK, n_samples - start)
        yield start, count, normal_chunk(seed, chunk_index, (count, dim))
        start += count
        chunk_index += 1


def _words(n):
    """A nonnegative int as little-endian 32-bit words; 0 is one word."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _philox_key(entropy, spawn_key):
    """The 128-bit Philox key (two 64-bit words) that numpy's
    Philox(SeedSequence(entropy, spawn_key=spawn_key)) runs with."""
    data = _words(_check_seed(entropy))
    spawn = [w for k in spawn_key for w in _words(_check_seed(k))]
    if spawn:  # numpy pads the run entropy to the pool size ahead of a spawn key
        data += [0] * (_POOL_SIZE - len(data))
    data += spawn
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(data[i] if i < len(data) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in data[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(2, uint64): four hashed pool words, paired little-endian
    state, hash_const = [], _INIT_B
    for word in pool:
        word ^= hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const & _MASK32
        state.append(word ^ word >> 16)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def philox_uniforms(entropy: int, spawn_key: tuple, count: int) -> list:
    """The first count floats of numpy's
    Generator(Philox(SeedSequence(entropy, spawn_key=spawn_key))).random(),
    bitwise. entropy and every spawn-key entry are nonnegative ints; a
    negative one raises InputError."""
    k0, k1 = _philox_key(entropy, spawn_key)
    keys = [((k0 + r * _PHILOX_W0) & _MASK64, (k1 + r * _PHILOX_W1) & _MASK64)
            for r in range(_PHILOX_ROUNDS)]
    words = []
    for block in range(1, (count + 3) // 4 + 1):
        # the counter starts at 0 and is incremented before each block; its
        # upper three words stay 0 below 2^66 draws
        c0, c1, c2, c3 = block, 0, 0, 0
        for r0, r1 in keys:
            p0, p1 = _PHILOX_M0 * c0, _PHILOX_M1 * c2
            c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ r0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ r1, p0 & _MASK64
        words += (c0, c1, c2, c3)
    return [(w >> 11) * 2.0**-53 for w in words[:count]]
