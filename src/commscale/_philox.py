"""numpy's Philox draws, computed for many keys at once.

A fresh numpy Generator(Philox(key=[seed, i])) draws from the block of
Philox4x64-10 (Salmon et al., SC 2011) at counter (1, 0, 0, 0), since
numpy bumps the counter before its first block. Philox is a keyed
bijection of its counter built from 64-bit multiplies, xors and adds,
so first_words() evaluates that block for the keys (seed, i), start <=
i < stop, in numpy uint64 arrays as long as that range, which a caller
bounds by drawing blocks. random() is then word 0 shifted to 53 bits.

standard_normal() is numpy's ziggurat on the next word: the low 8 bits
pick a layer, bit 8 is the sign, the next 52 bits are rabs, and while
rabs is below the layer's threshold ki the draw is +-rabs * wi[layer].
numpy does not publish wi, so _tables() reads it from numpy once per
process: a draw from a Philox whose buffered word has rabs = 1 in a
layer returns wi of that layer. ki is derived from wi, within 1 of
numpy's, and the fast path is kept 2 below it; layers 0 (the tail) and
1 (where numpy's ki is 0) never take it.

first_draws() draws every sample the fast path does not settle again,
by re-keying one scalar generator to (seed, start + j) for the j-th
key, with its counter at zero and its output buffer empty. Philox is a
keyed bijection of its counter, so that is exactly a fresh generator
keyed (seed, i), and every draw is exact by construction.

Only code that draws imports this module, so numpy is imported here at
module level.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Philox4x64-10 round multipliers and key increments.
_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhilo(m: int, b):
    """Low and high 64 bits of m * b for a uint64 array b, from 32-bit halves; uint64 arrays wrap silently."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    b_lo, b_hi = b & _MASK32, b >> _S32
    p1, p2 = m_lo * b_hi, m_hi * b_lo
    mid = ((m_lo * b_lo) >> _S32) + (p1 & _MASK32) + (p2 & _MASK32)
    return np.uint64(m) * b, m_hi * b_hi + (p1 >> _S32) + (p2 >> _S32) + (mid >> _S32)


def first_draws(seed: int, start: int, stop: int) -> tuple[list, list]:
    """random() and then standard_normal() from Generator(Philox(key=[seed, i])), for start <= i < stop."""
    w0, w1 = first_words(seed, start, stop)
    z, slow = normal_fast_path(w1)
    zs = z.tolist()
    if slow.any():
        bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
        rng = np.random.Generator(bits)
        fresh = bits.state  # a copy: counter 0, empty buffer (buffer_pos 4), no cached uint32
        key = fresh["state"]["key"]
        for j in np.flatnonzero(slow).tolist():
            key[1] = start + j
            bits.state = fresh
            rng.random()
            zs[j] = rng.standard_normal()
    return ((w0 >> np.uint64(11)) * 2.0**-53).tolist(), zs


def first_words(seed: int, start: int, stop: int):
    """Words 0 and 1 of the first block of numpy's Philox keyed (seed, i), for start <= i < stop, as uint64 arrays."""
    c0 = np.ones(stop - start, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros(stop - start, dtype=np.uint64)
    k0 = seed  # the same for every sample, so a Python int bumped modulo 2**64
    k1 = np.arange(start, stop, dtype=np.uint64)
    for r in range(10):
        if r:
            k0 = (k0 + _W[0]) % 2**64
            k1 = k1 + np.uint64(_W[1])
        lo0, hi0 = _mulhilo(_M[0], c0)
        lo1, hi1 = _mulhilo(_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1


@functools.cache
def _tables():
    """numpy's ziggurat widths wi, and per layer a bound on rabs below which its fast path surely fires."""
    bits = np.random.Philox(key=0)
    rng = np.random.Generator(bits)
    state = bits.state
    state["buffer_pos"] = 0
    wi = []
    for layer in range(256):
        # rabs = 1, sign +: the draw is 1 * wi[layer]. Layer 1 fails the fast
        # path and its rejection test reads the zero word after it as a zero
        # uniform, which accepts the same value.
        state["buffer"] = np.array([(1 << 9) | layer, 0, 0, 0], dtype=np.uint64)
        bits.state = state
        wi.append(rng.standard_normal())
    # floor(2**52 * wi[i-1] / wi[i]) is numpy's ki[i] or 1 less (the tests
    # check every layer against numpy), so 2 below it is always inside.
    bound = [0, 0] + [math.floor(wi[i - 1] / wi[i] * 2.0**52) - 2 for i in range(2, 256)]
    return np.array(wi), np.array(bound, dtype=np.uint64)


def normal_fast_path(w):
    """standard_normal() as numpy draws it from next words w, and the mask of samples its fast path may not settle."""
    wi, bound = _tables()
    layer = (w & np.uint64(0xFF)).astype(np.intp)
    rabs = (w >> np.uint64(9)) & np.uint64(2**52 - 1)
    z = rabs.astype(np.float64) * wi[layer]
    np.negative(z, out=z, where=(w & np.uint64(0x100)) != 0)
    return z, rabs >= bound[layer]
