"""Seeded Gaussian replicate chunks for the Monte-Carlo paths.

Replicates are organized in fixed-size chunks; chunk c of a run draws from a
counter-based Philox generator keyed by SeedSequence((seed, c)). The sampled
set therefore depends only on (seed, n_samples), never on scheduling, and
chunks could be consumed in any order or in parallel without changing the
result. Quadrature never loads this module: the lattice shifts of the Genz
kernel come from the standard library (see _genz._lattice_shifts).

`normal_chunk(seed, c, shape)` is bitwise numpy's
Generator(Philox(SeedSequence((seed, c)))).standard_normal(shape), computed
by numpy array code that never loads numpy.random, so the draws do not
depend on the installed numpy's generator code:
- the key: SeedSequence's hash mixing of the entropy words of seed and c
  into a pool of four 32-bit words, and generate_state(2, uint64) (numpy's
  bit_generator.pyx);
- the words: Philox4x64-10 (Salmon, Moraes, Dror & Shaw 2011), one block of
  four 64-bit words per counter 1, 2, ..., vectorized over blocks, with each
  64 x 64 -> 128-bit product built from 32-bit halves;
- the normals: numpy's 256-strip ziggurat (Marsaglia & Tsang 2000;
  random_standard_normal in numpy's distributions.c), one word per attempt.
  Low byte: the strip; bit 8: the sign; the next 52 bits: the magnitude.
  The fast test runs on whole arrays. The about 1.6% of attempts that miss
  it are resolved in stream order, each consuming the uniforms that follow
  it: the strip test with numpy's exp, and with math.exp (the C library's,
  as in numpy's C code) wherever the two could disagree; the base strip's
  tail on Python floats with math.log1p.
The ziggurat's fi, wi and ki tables are numpy's, bytes copied from the
installed numpy's libnpyrandom.a; they cannot be recomputed to the last bit.
scripts/ziggurat_table.py prints them, and with --check compares them with
that library.
"""

from __future__ import annotations

import math

import numpy as np

from .model import _as_int, _check_seed

CHUNK = 4096

_MASK32 = 0xFFFFFFFF
_MASK52 = (1 << 52) - 1
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
_U64 = np.uint64
_M32 = np.array(_MASK32, dtype=_U64)
_M52 = np.array(_MASK52, dtype=_U64)
_SHIFT32 = np.array(32, dtype=_U64)
# numpy's ziggurat: the right edge r of the base strip, 1/r, and next_double's 2^-53
_ZIG_R = 3.6541528853610087963519472518
_ZIG_INV_R = 0.27366123732975827203338247596
_TWO_M53 = 2.0**-53
# a chunk's words come in slices of at most this many blocks, each continuing
# the counter: a 4096 x 3 chunk takes one, and a slice's working set stays
# near 0.4 MB
_SLICE_BLOCKS = 3328
# words a slice draws per normal still owed, plus _EXTRA_WORDS: about 1.6% of
# attempts miss the fast test, and each consumes one more word or more, so a
# chunk takes about 1.023 words per normal (no 4096 x 3 chunk of 300 seeds
# needed a second slice)
_WORDS_PER_NORMAL = 1.04
_EXTRA_WORDS = 64


def normal_chunk(seed: int, chunk_index: int, shape) -> np.ndarray:
    """numpy's Generator(Philox(SeedSequence((seed, chunk_index)))).standard_normal(shape),
    bitwise. A negative or non-integral seed or chunk index raises InputError."""
    out = np.empty(shape)
    flat = out.reshape(-1)
    keys = _round_keys(*_philox_key(_check_seed(seed), _as_int(
        chunk_index, 0, "chunk index must be a nonnegative integer")))
    filled, counter = 0, 1
    carry = np.empty(0, dtype=_U64)
    while filled < flat.size:
        owed = int((flat.size - filled) * _WORDS_PER_NORMAL) + _EXTRA_WORDS - carry.size
        blocks = max(1, min(_SLICE_BLOCKS, owed // 4))
        work = _philox(keys, counter, blocks, carry)
        counter += blocks
        words, x, keep = _ziggurat(work)
        stop = _resolve(words, x, keep)
        draws = x[:stop][keep[:stop]][:flat.size - filled]
        flat[filled:filled + draws.size] = draws
        filled += draws.size
        carry = words[stop:].copy()
        del work, words, x, keep, draws  # the next slice's working set starts empty
    return out


def gaussian_chunks(seed: int, n_samples: int, dim: int):
    """Yield (start, count, Z) blocks with Z of shape (count, dim), iid N(0,1)."""
    seed = _check_seed(seed)
    n_samples = _as_int(n_samples, 1, "n_samples must be a positive integer")
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


def _philox_key(*entropy):
    """The 128-bit Philox key (two 64-bit words) that numpy's
    Philox(SeedSequence(entropy)) runs with, entropy nonnegative ints."""
    data = [w for n in entropy for w in _words(n)]
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


def _round_keys(k0, k1):
    """The key (k0 + r W0, k1 + r W1) of each round r, as 0-d uint64 arrays."""
    return [(np.array((k0 + r * _PHILOX_W0) & _MASK64, dtype=_U64),
             np.array((k1 + r * _PHILOX_W1) & _MASK64, dtype=_U64))
            for r in range(_PHILOX_ROUNDS)]


def _mulhilo(x, lo, t1, t2, t3, m, m_lo, m_hi):
    """lo and x = the low and the high 64-bit words of m x, built from 32-bit
    halves. x, lo and the temporaries t1..t3 are uint64 arrays of one shape."""
    np.multiply(x, m, out=lo)
    np.bitwise_and(x, _M32, out=t1)
    x >>= _SHIFT32
    np.multiply(t1, m_lo, out=t2)
    t2 >>= _SHIFT32
    np.multiply(x, m_lo, out=t3)
    t3 += t2  # x_hi m_lo + (x_lo m_lo >> 32): below 2^64
    t1 *= m_hi
    np.bitwise_and(t3, _M32, out=t2)
    t1 += t2  # x_lo m_hi + the low half of t3: below 2^64
    x *= m_hi
    t3 >>= _SHIFT32
    x += t3
    t1 >>= _SHIFT32
    x += t1


# the rows M, M_lo, M_hi of _SLICE_BLOCKS copies of M0 and then as many of M1
# (and their 32-bit halves), whose middle 2n columns serve two lanes of n
# blocks. Only code that draws imports this module, so they are built at import
_LANES = np.array([[_PHILOX_M0, _PHILOX_M1]] * 3, dtype=_U64).repeat(_SLICE_BLOCKS, axis=1)
_LANES[1] &= _M32
_LANES[2] >>= _SHIFT32


def _philox(keys, first, n, carry):
    """The working set of a slice: a (3, m) uint64 array, m = carry.size +
    4n, whose last row is carry and then the words of the Philox4x64-10
    blocks of counters first .. first + n - 1 (below 2^64), n <=
    _SLICE_BLOCKS, in stream order. The other rows are scratch, here and in
    _ziggurat. One allocation per slice lets the allocator hand the same
    memory to the next slice: separate arrays page-faulted about 70 times a
    chunk, about 5 ms of a 100,000-replicate p = 3 call, and this none.

    Each block starts from (c, 0, 0, 0), and a round maps (c0, c1, c2, c3)
    to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)). The
    rounds multiply the lanes (c0, c2), kept side by side in one array of 2n."""
    muls = _LANES[:, _SLICE_BLOCKS - n:_SLICE_BLOCKS + n]
    work = np.empty((3, carry.size + 4 * n), dtype=_U64)
    a, lo, spare, t1 = work.reshape(-1)[:8 * n].reshape(4, 2 * n)
    t2, t3 = work[2, carry.size:].reshape(2, 2 * n)  # until the words go in
    a[:n] = np.arange(first, first + n, dtype=_U64)
    a[n:] = 0
    b1 = b3 = _U64(0)
    for k0, k1 in keys:
        # the new c0 and c2 start as c1 ^ k0 and c3 ^ k1, before lo is overwritten
        np.bitwise_xor(b1, k0, out=spare[:n])
        np.bitwise_xor(b3, k1, out=spare[n:])
        _mulhilo(a, lo, t1, t2, t3, *muls)
        spare[:n] ^= a[n:]
        spare[n:] ^= a[:n]
        a, spare = spare, a
        b1, b3 = lo[n:], lo[:n]
    work[2, :carry.size] = carry
    words = work[2, carry.size:].reshape(n, 4)
    words[:, 0] = a[:n]
    words[:, 1] = b1
    words[:, 2] = a[n:]
    words[:, 3] = b3
    return work


def _ziggurat(work):
    """The fast ziggurat attempt of each word of a slice's working set (see
    _philox): (words, x, keep), x = +-magnitude wi[strip] and keep the test
    magnitude < ki[strip] that returns it."""
    mag, x, words = work
    index = np.bitwise_and(words, 511, out=mag).view(np.int64)  # the strip and the sign bit
    x = _WI_SIGNED.take(index, out=x.view(np.float64))
    bound = _KI.take(index)
    np.right_shift(words, 9, out=mag)
    mag &= _M52
    keep = mag.view(np.int64) < bound
    magf = bound.view(np.float64)  # the product then needs no cast buffer
    magf[...] = mag
    x *= magf
    return words, x, keep


def _resolve(words, x, keep):
    """Resolve, in stream order, the attempts that missed the fast test.

    A miss in a strip above the base strip runs the strip test (_strip_test),
    and a miss in the base strip draws from the tail (_tail). Either way the
    words it consumed yield no draw, and a miss among them is dead. Sets keep
    and x in place and returns how many leading words are resolved: all, or
    up to the first miss that needs words past the slice.

    Only a miss right after another miss, or in the base strip, can change
    which later misses live, so Python visits those alone, in stream order.
    """
    misses = np.flatnonzero(~keep)
    end = words.size
    if not misses.size:
        return end
    base = (words[misses] & 255) == 0
    after = np.zeros(misses.size, dtype=bool)
    np.equal(misses[1:] - misses[:-1], 1, out=after[1:])
    live = np.ones(misses.size, dtype=bool)
    stop = end
    for k in np.flatnonzero(after | base).tolist():
        if not live[k]:
            continue
        if after[k] and live[k - 1] and not base[k - 1]:
            live[k] = False  # the uniform of the strip test before it
        elif base[k]:
            i = int(misses[k])
            tail = _tail(words, i)
            if tail is None:
                stop = i
                break
            x[i], j = tail
            keep[i] = True
            keep[i + 1:j] = False
            live[k + 1:k + 1 + np.searchsorted(misses[k + 1:], j)] = False
    strips = misses[live & ~base]
    strips = strips[strips < stop]
    if strips.size and strips[-1] == end - 1:
        stop = end - 1  # its uniform is the next slice's first word
        strips = strips[:-1]
    keep[strips + 1] = False
    keep[strips] = _strip_test(words, x, strips)
    return stop


def _strip_test(words, x, strips):
    """For the misses at the given word indices, in strips i > 0: whether
    (fi[i-1] - fi[i]) u + fi[i] < exp(-x^2 / 2), u the next word's uniform,
    which returns x. numpy's exp decides, and math.exp (the C library's, as
    in numpy's C code) wherever the two could disagree."""
    strip = words[strips].view(np.int64) & 255
    fi = _FI[strip]
    lhs = _FI[strip - 1] - fi
    lhs *= (words[strips + 1] >> 11).view(np.int64) * _TWO_M53
    lhs += fi
    xs = x[strips]
    rhs = np.exp(-0.5 * xs * xs)
    passes = lhs < rhs
    for k in np.flatnonzero(np.abs(lhs - rhs) <= 1e-12 * rhs).tolist():
        xk = float(xs[k])
        passes[k] = float(lhs[k]) < math.exp(-0.5 * xk * xk)
    return passes


def _tail(words, i):
    """The draw of the base-strip miss at word i, from the words after it:
    (x, the index past the words it consumed), or None if the slice ends
    first. Pairs of uniforms repeat until -2 log(1 - u2) > (log(1 - u1) /
    r)^2, and x = +-(r - log(1 - u1) / r), signed by bit 17 of word i."""
    j = i + 1
    while j + 1 < words.size:
        xx = -_ZIG_INV_R * math.log1p(-(int(words[j]) >> 11) * _TWO_M53)
        yy = -math.log1p(-(int(words[j + 1]) >> 11) * _TWO_M53)
        j += 2
        if yy + yy > xx * xx:
            return (-(_ZIG_R + xx) if int(words[i]) >> 17 & 1 else _ZIG_R + xx), j
    return None


_FI = bytes.fromhex(
    "000000000000f03f87f079c96a44ef3f15a96c5b54b7ee3f77f027e0113fee3f95de04a76fd3ed3ff2bc57069270ed3f"
    "dc19a1784914ed3feb2da7a833bdec3f7f78a9ce5e6aec3feabaeed91c1bec3f82dce14eebceeb3f52f58f3a6585eb3f"
    "10dd34823a3eeb3fa2e86c3f2af9ea3f04257af1feb5ea3fe1c950d58b74ea3f0faff5fdaa34ea3fd81f65ee3bf6e93f"
    "8106248d22b9e93fc17a6157467de93f477a1bc29142e93f4f7131bdf108e93fa80ae64f55d0e83f02dfba48ad98e83f"
    "acbc37fceb61e83f6ecf560f052ce83fcbe2204bedf6e73f58689c779ac2e73fd5b0a03c038fe73f56d870071f5ce73f"
    "126d3ff4e529e73fee7aeaba50f8e63f895a639e58c7e63f2a3b515ef796e63f23e3922a2767e63f180c5598e237e63f"
    "652680982409e63f6aff4a6fe8dae53f895cc8ac29ade53f8f8d4c26e47fe53f469e8df01353e53fd56c655ab526e53f"
    "67b620e8c4fae43fc04e494f3fcfe43f7852dc7221a4e43f1250df5f6879e43f7936494a114fe43fe35f358a1925e43f"
    "825b58997efbe33fa331af103ed2e33f0ecd62a655a9e33fd500da2bc380e33fe950f58b8458e33f353a70c99730e33f"
    "ef3864fdfa08e33fee3bea55ace1e23f4a95d714aabae23f15cd938ef293e23fed040529846de23f84db905a5d47e23f"
    "f2f72fa97c21e23f209692a9e0fbe13f699954fe87d6e13f11d13f5771b1e13f503c9b709b8ce13fda3986120568e13f"
    "9ca95e10ad43e13f381f3148921fe13f135932a2b3fbe03fa042411010d8e03faed9708da6b4e03f815d991d7691e03f"
    "363cf0cc7d6ee03f2e3fa6afbc4be03f2a828be13129e03fc4cab885dc06e03fa1bd7b8c77c9df3fca00a9a79d85df3f"
    "f37a2fcb2942df3f958f7e711affde3f541fbd206ebcde3fc5c34e6a237ade3f859b5fea3838de3f093a7647adf6dd3f"
    "b1560b327fb5dd3f33de2664ad74dd3f801002a13634dd3f6d5baeb419f4dc3f48a8c07355b4dc3fc7d700bbe874dc3f"
    "b82c1d6fd235dc3f176a617c11f7db3f916d71d6a4b8db3f1b1307788b7adb3fca31b362c43cdb3f5285a19e4effda3f"
    "9e5a5f3a29c2da3f80d8a44a5385da3f4dc020eacb48da3f3e844639920cda3fdf931e5ea5d0d93fc6c018840495d93f"
    "939fe0dbae59d93f17cb339ba31ed93f15f1b9fce1e3d83f8891de3f69a9d83fb65aaca8386fd83fd90daa7f4f35d83f"
    "11d9b811adfbd73fb014f4af50c2d73feb5292af3989d73fedb1c7696750d73f4c61a93bd917d73faa4c12868edfd63f"
    "21de88ad86a7d63fe2cb251ac16fd63f15e57b373d38d63fc8d28074fa00d63f44c27643f8c9d53fbeeed6193693d53f"
    "00013d70b35cd53fed3b53c26f26d53f926dbf8e6af0d43fa29c1057a3bad43fd46aad9f1985d43ffe24c3efcc4fd43f"
    "197a35d1bc1ad43fdbd28ed0e8e5d33fae43f17c50b1d33f79130868f37cd33f9ed1f925d148d33f2ff65a4de914d33f"
    "660721773be1d23fdd3f963ec7add23f1eb14d418c7ad23f89de171f8a47d23f9eccf779c014d23f168118f62ee2d13f"
    "50f0c239d5afd13fe85454edb27dd13f67ee34bbc74bd13f2324cf4f131ad13fc409875995e8d03fda42b2884db7d03f"
    "3643908f3b86d03fd9e942225f55d03f7e74c7f6b724d03fc593df898be8cf3f3532b88c1088cf3fd298e96cfe27cf3f"
    "449cc9a454c8ce3fdd3c28b21269ce3f84714516380ace3f0a90c755c4abcd3f4f51b2f8b64dcd3fcc6f5e8a0ff0cc3f"
    "53df7199cd92cc3f479dd8b7f035cc3fa118be7a78d9cb3faa31877a647dcb3f3ad1cc52b421cb3f071857a267c6ca3f"
    "7e26190b7e6bca3f3d7e2d32f710ca3f5afed2bfd2b6c93f277c6a5f105dc93f69fa74bfaf03c93f5b819291b0aac83f"
    "389a818a1252c83f75711f62d5f9c73f23a368d3f8a1c73fa6b57a9c7c4ac73f1647967e60f3c63f5cf2213ea49cc63f"
    "9cf1ada24746c63ff983f8764af0c53f6c1df388ac9ac53f3568c8a96d45c53fc11fe3ad8df0c43f2dcef56c0c9cc43f"
    "d57503c2e947c43fae31698b25f4c33feed7e8aabfa0c33f88abb405b84dc33f652a7c840efbc23f1a077a13c3a8c23f"
    "b75e83a2d556c23f343c18254605c23f427d759214b4c13f632da8e54063c13fb96ea21dcb12c13fba09523db3c2c03f"
    "85bfb84bf972c03f2a7d06549d23c03f2c226bcb3ea9bf3f1c0e5229ff0bbf3f4ba59af27b6fbe3f8fe87661b5d3bd3f"
    "e591bdb9ab38bd3f0a743b495f9ebc3f15100b68d004bc3f33e2f278ff6bbb3f33f6cae9ecd3ba3f8662ea33993cba3f"
    "195b9ddc04a6b93faba0a4753010b93f5228bf9d1c7bb83fd6ef3e01cae6b73f7611aa5a3953b73f4c4a69736bc0b63f"
    "184d8524612eb63fa46674571b9db53fae2bfa069b0cb53f13221b40e17cb43f869a2623efedb33f703ed9e4c55fb33f"
    "11319bcf66d2b23f910ddd44d345b23f7d8997be0cbab13f9d17f2d0142fb13f2596152ceda4b03f97e4309e971bb03f"
    "356e6c2b2c26af3f8151b247d516ae3f62f1adfe2e09ad3f2c2a280f3efdab3f705f389007f3aa3f635529f990eaa93f"
    "abb5682ae0e3a83f1e27af77fbdea73f64d098b3e9dba63fd4adf23cb2daa53f5d27110e5ddba43fcbee98cef2dda33f"
    "97f43de87ce2a23fbc6a1f9f05e9a13f1180962e98f1a03fc4a518d781f89f3f758c82db1a129e3f1a09cd8319309c3f"
    "f8eb224e9f529a3f0ac100b6d179983f82bf0bf4daa5963f64b0fbf2ead6943f135eab8d380d933f123060340349913f"
    "49dd724f2a158f3fac8f4f278da48b3f78a48d0d0441883fe0cf1a4296eb843f922f952992a5813f3768ecf860e17c3f"
    "5db80cd9a89e763ffdb1b0031f8a703f67b0c1439f5f653f0ff7b9b605a6543f"
)
_WI = bytes.fromhex(
    "79d915783b49cf3cc6f6fde30b8d8b3cb45b2c3caf50923c613b4438b97c953c0ca72fe8fc01983cbcd04c2e0c239a3c"
    "f761382f4d009c3c7472745a2fac9d3cc3d54c2d48329f3cadbb8e27324da03c435d023b05f5a03c77364197a692a13c"
    "f51a7a8fa227a23c80d863382eb5a23cf59157c03f3ca33c2fb1a2c19ebda33c559bff8def39a43ca7fe3d36bbb1a43c"
    "74d31a627525a53c96ce07a78095a53cea7ed9cf3102a63c3d7ca361d26ba63c70050092a2d2a63ca6f846d3da36a73c"
    "772ab310ad98a73c43f546ad45f8a73c770a4353cc55a83c9a767b9e64b1a83c98cf4ea92e0ba93cea1e2c824763a93c"
    "46c5388ec9b9a93c2ca7a4dccc0eaa3c59cd776d6762aa3c3016106eadb4aa3c9c6c136db105ab3c297a42878455ab3c"
    "3a9f528e36a4ab3c3282bf2ad6f1ab3cf34e59f9703eac3c613b32a5138aac3c8b2672fec9d4ac3c48b7800e9f1ead3c"
    "101fe4299d67ad3cc3b82300ceafad3c5376f1a93af7ad3cfeedd2b5eb3dae3c006f7a33e983ae3cce82f9bd3ac9ae3c"
    "2662f084e70daf3c88f6d854f651af3caed7879e6d95af3cac2efa7d53d8af3cec3442e0560db03c9a8f39f5402eb03c"
    "fca5169eea4eb03c10a0725b566fb03c0bf47190868fb03c1361bc847dafb03c7fcc4b663dcfb03c6b08164bc8eeb03c"
    "ee159532200eb13cbe0f3107472db13c41918e9f3e4cb13c1e20c4bf086bb13c34da781aa789b13c886dee511ba8b13c"
    "cb2af8f866c6b13c2ed4e0938be4b13c9fa040998a02b23ce9c6c4726520b23c1fc3e97d1d3eb23cfb6ba90cb45bb23c"
    "7fd31d662a79b23c1bd719c78196b23cda2eb862bbb3b23c53b8e162d8d0b23c8ea9cbe8d9edb23cd7486e0dc10ab33c"
    "30b9f4e18e27b33ca15e26704444b33cd552cabae260b33c6a5805be6a7db33c64b2b26fdd99b33c033db8bf3bb6b33c"
    "e01d569886d2b33c835a72debeeeb33c749ee071e50ab43c5d74a62dfb26b43ca4303ce80043b43c5dc7ca73f75eb43c"
    "36c3669edf7ab43c2f8f4832ba96b43c5d4102f687b2b43cdc11b3ac49ceb43c05a6381600eab43c62555eefab05b53c"
    "5a8b0af24d21b53c4f666ad5e63cb53cc8b21b4e7758b53c785f550e0074b53c14850ec6818fb53c591b2423fdaab53c"
    "3d737dd172c6b53cd38c2f7be3e1b53c385e9fc84ffdb53cc31fa360b818b63ca2b0a2e81d34b63c0b26b704814fb63c"
    "7296c957e26ab63c3731b1834286b63cb1b25029a2a1b63cbb43b3e801bdb63c52d3286162d8b63c54f86131c4f3b63c"
    "eb688bf7270fb73cc61469518e2ab73cdcee70dcf745b73c1f73e5356561b73c49f4effad67cb73c93bdbac84d98b73c"
    "09148b3ccab3b73cfb22dbf34ccfb73ce7de738cd6eab73c1fea86a46706b83c7686c8da0022b83c159f89cea23db83c"
    "bdf5d11f4e59b83cc57e7a6f0375b83c2df7475fc390b83c43c005928eacb83c9c0ca1ab65c8b83c276a445149e4b83c"
    "8fb573293a00b93c478328dc381cb93cfc0aef124638b93c8aa203796254b93ceed570bb8e70b93c312a2e89cb8cb93c"
    "bf993f9319a9b93c2cd9d58c79c5b93c11746f2bece1b93c4ad2fa2672feb93c9236f9390c1bba3c5bc8a221bb37ba3c"
    "88bb0b9e7f54ba3ca4a94a725a71ba3c3d31a0644c8eba3c08f19f3e56abba3ccef55acd78c8ba3c36b38be1b4e5ba3c"
    "1aa1c34f0b03bb3c5b989af07c20bb3c000ce0a00a3ebb3c033dce41b55bbb3c27893fb97d79bb3c3cf7e5f16497bb3c"
    "6e2585db6bb5bb3ca2c02e6b93d3bb3c83ae819bdcf1bb3ca016ec6c4810bc3c2d7af0e5d72ebc3c1c0d6e138c4dbc3c"
    "0587ec08666cbc3c17a6ebe0668bbc3caba236bd8faabc3c90d63bc7e1c9bc3c37e068305ee9bc3c6e8f8b320609bd3c"
    "20ef3710db28bd3c47c63315de48bd3c23f1e7961069bd3ca5fbd7f47389bd3c706e209909aabd3c0e49fcf8d2cabd3c"
    "372e5295d1ebbd3c1cd249fb060dbe3cf646eac4742ebe3c88d1c1991c50be3c25fe972f0072be3c0abf2a4b2194be3c"
    "086ff7c081b6be3c3aa7107623d9be3ca9ec016108fcbe3c2153c28a321fbf3c6d4db70fa442bf3c6801c9205f66bf3c"
    "82978904668abf3cbf227118bbaebf3c85e72fd260d3bf3c0bf618c159f8bf3c75a0d347d40ec03c47c98f02a821c03c"
    "ab02a983a934c03cc7f53e4eda47c03c7eb3adf63b5bc03c6826a723d06ec03c172e638f9882c03c54a2e8089796c03c"
    "c4c07175cdaac03c48d4eed13dbfc03c303daa34ead3c03c936511cfd4e8c03cb69fa6effffdc03c417020046e13c13c"
    "355dbb9b2129c13c6d09c4691d3fc13c3b2e60486455c13cf3ee9d3bf96bc13c6112d274df82c13caceb4e561a9ac13c"
    "8e2f7f77adb1c13c94a671a99cc9c13c39aee4fbebe1c13c01d9e2c29ffac13c81cc049dbc13c23ceed36f7a472dc23c"
    "249caca44547c23ce05876c7bc61c23c2e59a8fab27cc23c780e77cd2e98c23c520a2a5337b4c23c97db9631d4d0c23c"
    "f578a9b10deec23ceeae56d2ec0bc33ca3a4685e7b2ac33ca312ae05c449c33c40a8337ad269c33c0a415692b38ac33c"
    "fa88ae7075acc33ca60417b327cfc33c75f460aadbf2c33cdae5b99ca417c43c945e5415983dc43c153aa744ce64c43c"
    "bc439c75628dc43c275a6b9d73b7c43c0289cd0d25e3c43c41ace9539f10c53c427e3a521140c53c1be44aa9b171c53c"
    "d98d718bc0a5c53cfed03a248adcc53c4c1e86cf6916c63cea6a007bce53c63cc3e59fbe4095c63c32e2098d6bdbc63c"
    "347a5ff02827c73c730609569579c73c8cced6f42dd4c73c34f229050339c83c147caabf0fabc83c96446f94e02ec93c"
    "ab574001eecbc93c5a779478dc8fca3cb1fd78381f98cb3c33ad0982b43bcd3c"
)
_KI = bytes.fromhex(
    "6aef25803df30e000000000000000000a8c6fb98be080c004281bdfa54a30d00eaeec17ef6510e007ef7d3e955b20e00"
    "b9ca7e814bef0e00aa44fa0a47190f0018cbff61ed370f005c256195464f0f0096a31be4a5610f00a49653757a700f00"
    "9a4428ecb27c0f00d357630cf1860f00de258357a68f0f00dad04dc724970f0009f5db07a99d0f0074fa81f560a30f00"
    "f84b5bde6fa80f00dc54d360f1ac0f000fb91867fbb00f00c674538d9fb40f0077fe6623ecb70f000ee5a1e9ecba0f00"
    "ed0b049dabbd0f00576cff6030c00f0048a2371082c20f00d15be27aa6c40f0031ee7a97a2c60f00a49628a97ac80f00"
    "85de4b5e32ca0f001a2302e9cccb0f00c439f8124dcd0f0099ec8f4db5ce0f0030c91dbf07d00f00e6c4d64d46d10f00"
    "50f4e2a872d20f001ec9f04f8ed30f0078b490999ad40f00530f92b898d50f00ec998ec089d60f0032e8c8a96ed70f00"
    "e8087b5448d80f008c2cad8b17d90f00d2ada707ddd90f008c5e107099da0f00202ec05d4ddb0f00d0fc5b5cf9db0f00"
    "7d9ab9eb9ddc0f009d7218813bdd0f00902f3488d2dd0f00649f366463de0f004e518d70eede0f002eb4a60174df0f00"
    "40ed9965f4df0f00f224bce46fe00f0058a225c2e6e00f004cb8283c59e10f00993fbc8cc7e10f00aa1cdbe931e20f00"
    "911bda8598e20f008641b58ffbe20f004a8d55335be30f002a00d099b7e30f007fad9ee910e40f003477d44667e40f00"
    "5c094cd3bae40f002495d2ae0be50f0078bc4ef759e50f001212e4c8a5e50f008986133eefe50f007810d96f36e60f00"
    "78d5c6757be60f00aa111e66bee60f00f2f4e555ffe60f0002a700593ee70f00399e3e827be70f00a27070e3b6e70f00"
    "4342778df0e70f008cf0539028e80f003a1735fb5ee80f00640884dc93e80f00bccef041c7e80f00f64e7d38f9e80f00"
    "1d9b87cc29e90f00ea88d30959e90f00a29a93fb86e90f00664871acb3e90f00d5b69426dfe90f007ce6ab7309ea0f00"
    "a466f19c32ea0f002c9532ab5aea0f001a74d5a681ea0f00f01cde97a7ea0f0020d9f385ccea0f003ce66578f0ea0f00"
    "13ec2f7613eb0f004a2afe8535eb0f00b46231ae56eb0f00fa84e2f476eb0f001420e65f96eb0f007c9dcff4b4eb0f00"
    "d049f4b8d2eb0f003e2e6eb1efeb0f00e8bd1ee30bec0f00155ab15227ec0f00d3af9d0442ec0f0096f129fd5bec0f00"
    "f4ee6c4075ec0f00b40c50d28dec0f00121f91b6a5ec0f00fe27c4f0bcec0f0015fb5484d3ec0f00b3c88874e9ec0f00"
    "b7917fc4feec0f002885357713ed0f000349848f27ed0f004c2f24103bed0f006e58adfb4ded0f00ddc3985460ed0f00"
    "e84f411d72ed0f0082a9e45783ed0f00c82ca40694ed0f0004b7852ba4ed0f00b46a74c8b3ed0f00526641dfc2ed0f00"
    "526ea471d1ed0f00d38a3c81dfed0f008099900feded0f0014d40f1efaed0f00c44b12ae06ee0f00065ad9c012ee0f00"
    "e00690571eee0f0024654b7329ee0f00bce40a1534ee0f003c9bb83d3eee0f00f48229ee47ee0f0086b01d2751ee0f00"
    "417f40e959ee0f002eb4283562ee0f00f197580b6aee0f007a073e6c71ee0f00827b325878ee0f00ba067bcf7eee0f00"
    "b24a48d284ee0f004363b6608aee0f0051c8cc7a8fee0f00da257e2094ee0f00ea29a85198ee0f005c48130e9cee0f00"
    "f47372559fee0f00aecc6227a2ee0f00ac426b83a4ee0f00712dfc68a6ee0f00fad66ed7a7ee0f000afa04cea8ee0f00"
    "3b33e84ba9ee0f0010642950a9ee0f005e07c0d9a8ee0f00547689e7a7ee0f00241d4878a6ee0f00839ea28aa4ee0f00"
    "dae4221da2ee0f002420352e9fee0f002eaf26bc9bee0f00e4f224c597ee0f003a0a3c4793ee0f00167555408eee0f00"
    "7a9c36ae88ee0f00fd3d7f8e82ee0f0088b8a7de7bee0f00ff37ff9b74ee0f005ebda9c36cee0f007e009e5264ee0f00"
    "8828a3455bee0f00b6574e9951ee0f00cf06004a47ee0f00502ce1533cee0f00d82ae0b230ee0f000582ad6224ee0f00"
    "5a3cb85e17ee0f0047142aa209ee0f00cc49e327fbed0f006c2176eaebed0f007e0422e4dbed0f00d339ce0ecbed0f00"
    "f42c0464b9ed0f00c938e9dca6ed0f008de9377293ed0f0036a8381c7fed0f002bc0b9d269ed0f0000ae068d53ed0f00"
    "22a4de413ced0f00d82f6ae723ed0f0044e62f730aed0f0034fe07daefec0f00b8b70e10d4ec0f00b46e9508b7ec0f00"
    "c13012b698ec0f0078a90d0a79ec0f00fe310ff557ec0f0062c9866635ec0f0035b3b44c11ec0f00d06f8e94ebeb0f00"
    "92b6a029c4eb0f00dc0ceef59aeb0f004285c9e16feb0f009e1fadd342eb0f004b2d0bb013eb0f00e9021a59e2ea0f00"
    "572299aeaeea0f0026e38e8d78ea0f00e573fdcf3fea0f00f6d98d4c04ea0f003b562fd6c5e90f00a447a93b84e90f00"
    "28471d473fe90f00d6c576bdf6e80f00e6e8c45daae80f00eab17ae059e80f0040a990f604e80f00c0338248abe70f00"
    "a56a1f754ce70f0002a22a10e8e60f00d8abb6a07de60f007e30389f0ce60f0042f7387394e50f008072977014e50f00"
    "58f436d48be40f00371efdbff9e30f009cb1ee355de30f00fee42f12b5e20f005755990300e20f00148378823ce10f00"
    "b067eec468e00f00aa712bb082df0f00aafe7ec587de0f00fd3bc60975dd0f0013bf29e546dc0f0082022ef8f8da0f00"
    "75bab2e185d90f0004cf48efe6d70f000b65bdad13d60f0012f0e24901d40f00acc7b4a7a1d10f009e1f7604e2ce0f00"
    "b2115ed8a8cb0f00222dcd6ed2c70f00ed221e2f2bc30f003ab8c08165bd0f00345400c406b60f0074282a5840ac0f00"
    "9845011e979e0f00fc1da448fa890f002c30f0f7c5660f004a1c334b5a1a0f00"
)
_FI = np.frombuffer(_FI, "<f8")
_KI = np.tile(np.frombuffer(_KI, "<u8").view(np.int64), 2)
# indexed by a word's low 9 bits: wi of the strip in the low 8, negated if bit 8 is set
_WI_SIGNED = np.concatenate([np.frombuffer(_WI, "<f8"), -np.frombuffer(_WI, "<f8")])
del _WI
