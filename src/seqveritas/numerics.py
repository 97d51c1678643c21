"""Numeric substrate: activations, seeded PRNG, Glorot initialization,
and the finite-difference gradient oracle, whose loss takes a stack of
points and returns one loss per point.

Matrices are plain numpy arrays (row-major, float64 by default; float32 is
allowed for full-corpus training). Randomness always flows through `Prng`,
so every number in the pipeline is reproducible bit-for-bit from a 64-bit
seed regardless of platform. `Prng` has two streams: a scalar
xoshiro256** stream for shuffles, permutations and `randbelow`, and, for
bulk draws (Glorot weights, dropout masks), a splitmix64 hash over a
counter, keyed by one draw from the scalar stream. One blocked kernel
evaluates that hash for both bulk methods: it walks the counters in
blocks of BLOCK, each hashed in place in numpy `uint64` while it is in
cache, so a draw costs the same per element at any size.

`_aligned` is the program's one allocator of arrays that start on a
PARAM_ALIGN boundary: a built model's weights, its parameter arenas, the
buffer `load` reads a checkpoint into and the inference step buffers.
"""

from __future__ import annotations

import ctypes
import functools
import math

import numpy as np


class ShapeMismatch(ValueError):
    pass


class NonDeterministicLoss(RuntimeError):
    pass


# --- aligned arrays -------------------------------------------------------

# Bytes at whose multiples `_aligned` starts its arrays: every
# `layers.Arena` each tensor's values, `_lstm_rows` each of its step
# buffers, and `Prng.uniform` and `init_glorot` their arrays, so that a
# built model's tensors start there without a copy. OpenBLAS's GEMV at
# predict shapes, (1, 150) x (150, 600) float64, took 7.1 us with the
# matrix and its output at a 64-byte boundary, 12.7 us with the matrix
# 16 bytes past one, and 8.4 us with the output 48 bytes past one
# (float32: 4.9, 6.5 and 5.0 us; 2-core SkylakeX, one-thread OpenBLAS).
PARAM_ALIGN = 64


def _aligned(shape, dtype):
    """A zeroed C-contiguous array of `shape` (a tuple) and `dtype` that
    starts at a multiple of PARAM_ALIGN bytes."""
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    raw = np.zeros(count + PARAM_ALIGN // dtype.itemsize, dtype)
    # raw's address: a third of the cost of `raw.ctypes.data`, 2 us, which
    # a small inference call pays once
    at = ctypes.addressof(ctypes.c_char.from_buffer(raw))
    skip = -at % PARAM_ALIGN // dtype.itemsize
    return raw[skip:skip + count].reshape(shape)


# --- activations ----------------------------------------------------------

def sigmoid(x):
    # tanh form: exact identity, no exponential, so it cannot overflow.
    x = np.asarray(x)
    return 0.5 * np.tanh(0.5 * x) + 0.5


def dtanh(y):
    """Derivative expressed in terms of the tanh output y."""
    return 1.0 - y * y


def relu(x):
    return np.maximum(x, 0.0)


def drelu(x):
    """Derivative with respect to the pre-activation x; defined as 0 at 0."""
    return (x > 0).astype(x.dtype)


# --- PRNG -----------------------------------------------------------------

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64_next(state):
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


# The same splitmix64 constants as numpy scalars, so that array arithmetic
# wraps modulo 2**64 instead of promoting or raising.
_GOLDEN_U64 = np.uint64(0x9E3779B97F4A7C15)
_MIX1_U64 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2_U64 = np.uint64(0x94D049BB133111EB)
_SHIFTS_U64 = tuple(np.uint64(k) for k in (30, 27, 31, 11))


# Counters per block of the bulk kernel: a block of uint64 outputs and its
# one scratch array take 1 MiB, which stays in a core's L2 cache.
BLOCK = 1 << 16


@functools.cache
def _counter_states(size):
    """(j + 1) * golden for j < size, a power of two up to BLOCK. Plus
    key + start * golden, these are the splitmix64 states of counters
    start + 1 .. start + size."""
    states = np.arange(1, size + 1, dtype=np.uint64)
    states *= _GOLDEN_U64
    return states


def _splitmix64_blocks(key, n):
    """Yield (start, z) for consecutive blocks covering [0, n): z[j] is
    splitmix64 output start + j + 1 from state `key`, as `_splitmix64_next`
    gives it. z is the same buffer for every block; it is overwritten when
    the next block is asked for."""
    r30, r27, r31, _ = _SHIFTS_U64
    z = np.empty(min(n, BLOCK), dtype=np.uint64)
    tmp = np.empty_like(z)
    states = _counter_states(1 << max(0, z.size - 1).bit_length())
    for start in range(0, n, BLOCK):
        if n - start < z.size:
            z, tmp = z[:n - start], tmp[:n - start]
        np.add(states[:z.size],
               np.uint64((key + start * int(_GOLDEN_U64)) & _MASK64), out=z)
        np.right_shift(z, r30, out=tmp)
        z ^= tmp
        z *= _MIX1_U64
        np.right_shift(z, r27, out=tmp)
        z ^= tmp
        z *= _MIX2_U64
        np.right_shift(z, r31, out=tmp)
        z ^= tmp
        yield start, z


def _keep_limit(keep):
    """The bound `keep_mask` compares hash outputs z with. u * 2**-53 < keep
    holds for an integer u exactly when u < ceil(keep * 2**53); truncating
    instead would drop u = floor(keep * 2**53) whenever keep * 2**53 is not
    an integer. With u = z >> 11 that is z < ceil(keep * 2**53) << 11."""
    if not 0.0 < keep < 1.0:
        raise ValueError(f"keep probability must be in (0, 1), got {keep}")
    return np.uint64(math.ceil(keep * 2.0 ** 53) << 11)


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Prng:
    """xoshiro256** seeded via splitmix64 from a single 64-bit seed.

    `next_u64`, `next_f64`, `randbelow`, `shuffle` and `permutation` walk
    the scalar xoshiro256** stream. `uniform` is the bulk path: it takes
    one `next_u64` as a key and hashes a counter with splitmix64, so its
    result is a pure function of (key, shape) and costs one scalar draw
    whatever its size; `keep_mask` draws the same way and thresholds the
    same values (counter-based generation in the style of Salmon et
    al., SC'11, and Steele, Lea & Flood, OOPSLA'14).

    The algorithm (not the platform) defines the stream, so identical seeds
    give identical draws everywhere.
    """

    def __init__(self, seed):
        s = seed & _MASK64
        state = []
        for _ in range(4):
            s, out = _splitmix64_next(s)
            state.append(out)
        self._s = state

    def next_u64(self):
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def next_f64(self):
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, low, high, shape):
        """Uniform doubles in [low, high). Element i (1-based, row-major)
        is output i of splitmix64 started from the key `next_u64()`,
        mapped to [0, 1) as in `next_f64`."""
        n = math.prod(shape)
        out = _aligned((n,), np.float64)
        r11 = _SHIFTS_U64[3]
        for start, z in _splitmix64_blocks(self.next_u64(), n):
            vals = out[start:start + z.size]
            z >>= r11
            np.multiply(z, 2.0 ** -53, out=vals)
            # low + (high - low) * vals, the same bits in place
            vals *= high - low
            vals += low
        return out.reshape(shape)

    def keep_mask(self, keep, shape):
        """Booleans, each True with probability `keep` in (0, 1): element
        i is `uniform(0, 1, shape)` element i < keep, from the same single
        scalar draw. That element is u * 2**-53 with u = z >> 11, the top
        53 bits of hash output z, so the test is an integer one on z (see
        `_keep_limit`) and no float is made."""
        limit = _keep_limit(keep)
        n = math.prod(shape)
        out = np.empty(n, dtype=bool)
        for start, z in _splitmix64_blocks(self.next_u64(), n):
            np.less(z, limit, out=out[start:start + z.size])
        return out.reshape(shape)

    def randbelow(self, n):
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def shuffle(self, seq):
        """In-place Fisher-Yates over a mutable sequence."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randbelow(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def permutation(self, n):
        idx = list(range(n))
        self.shuffle(idx)
        return np.array(idx, dtype=np.int64)


def init_glorot(shape, rng, dtype=np.float64):
    """Glorot-uniform: entries in +/- sqrt(6 / (fan_in + fan_out)), in an
    array that starts on a PARAM_ALIGN boundary."""
    bound = np.sqrt(6.0 / sum(shape))  # shape is (fan_in, fan_out)
    values = rng.uniform(-bound, bound, shape)
    if values.dtype == dtype:
        return values  # uniform's own fresh array, not copied again
    out = _aligned(shape, dtype)
    out[...] = values  # the bits of values.astype(dtype)
    return out


# --- finite-difference oracle ---------------------------------------------

# Bytes of the probe points `finite_diff_grad` builds per span: they and a
# temporary of their size then stay in a core's L2 cache. On a 2-core Xeon
# the `optimized` end-to-end gradcheck took no less time with 256 KiB or
# 1 MiB.
STACK_BYTES = 1 << 19

FD_EPS = 1e-5  # the central difference's step


def finite_diff_grad(loss_fn, params):
    """Central-difference gradient of a loss with respect to `params`.

    `loss_fn` takes a stack of points on a leading axis, (n,
    *params.shape), and returns their n losses. The points are `params`
    with one element moved by +FD_EPS, then with it moved by -FD_EPS,
    element by element, built a span of at most STACK_BYTES of points at
    a time; `params` itself is never written. `loss_fn` must be
    deterministic (frozen dropout masks, fixed batch order); this is
    verified by evaluating it twice at the base point.
    """
    params = np.asarray(params, dtype=np.float64)
    base1, base2 = (loss_fn(params[None])[0] for _ in range(2))
    if base1 != base2:
        raise NonDeterministicLoss(
            f"two evaluations at the same point differ: {base1} vs {base2}")
    grad = np.zeros_like(params)
    flat = params.reshape(-1)
    gflat = grad.reshape(-1)
    span = max(1, STACK_BYTES // max(1, 2 * flat.nbytes))
    for start in range(0, flat.size, span):
        ks = np.arange(start, min(start + span, flat.size))
        rows = np.arange(ks.size)
        points = np.empty((ks.size, 2, flat.size))
        points[...] = flat
        points[rows, 0, ks] = flat[ks] + FD_EPS
        points[rows, 1, ks] = flat[ks] - FD_EPS
        losses = loss_fn(points.reshape(-1, *params.shape))
        gflat[ks] = (losses[0::2] - losses[1::2]) / (2.0 * FD_EPS)
    return grad


def max_relative_error(g_analytic, g_numeric):
    """inf-norm relative error, guarded against tiny gradients."""
    g_analytic = np.asarray(g_analytic, dtype=np.float64)
    g_numeric = np.asarray(g_numeric, dtype=np.float64)
    num = np.max(np.abs(g_analytic - g_numeric)) if g_analytic.size else 0.0
    den = max(1.0, np.max(np.abs(g_analytic)) if g_analytic.size else 0.0)
    return num / den
