"""Layer forward/backward passes: Embedding, LSTM, Dense, Dropout, BatchNorm.

All layers are stateless transformers over (input, params, cache). Each
forward's cache is the plain value its backward reads: Embedding's
indices, Dense's input x, Dropout's scaled mask (None for the identity),
BatchNorm's (x_hat, inv_std) and the LSTM's `LstmCache` of its buffers.
Only `lstm_backward` writes its cache (dz over the gates), so only an
`LstmCache` refuses a second backward, with `StaleCache`, and with it a
second `Model.backward` over one forward's caches; a second call on any
other cache repeats grad x and adds the parameter gradient again.
Gradients accumulate into ParamTensor.grad and are the trainer's job to
zero.
Dense is a plain affine map; the ReLU and the output sigmoid are applied
by `model_zoo`.

Every ParamTensor lives in an `Arena`: four flat arrays (value, grad, m,
v); a tensor's value and grad are reshaped views of its span of the
first two, and Adam's moments are the arena's alone. One rule, `pack`,
places a model's tensors: a tensor larger than PARAM_BLOCK_BYTES keeps
an arena of its own, which adopts its array, and the others share one,
so zeroing, clipping and Adam make a few numpy calls per arena instead
of a dozen per tensor; that per-call cost, not the arithmetic, is what a
step of small tensors spends. Because the arrays are views, they are
only ever written in place: only `Arena` binds a tensor's `value`,
`arena` and `span`, and a tensor makes its grad view on first use.

Dropout masks come from `Prng.keep_mask`, an integer test on the bulk
hash with the bits of `uniform(0, 1) < keep`.

LSTM gate packing in the 4H dimension is fixed as [i, f, g, o]
(input, forget, candidate, output); checkpoints depend on this order.
Training (`lstm_forward`) keeps the LSTM's state in preallocated
time-major buffers, indexed by step first:

  x       (T, B, d)   the input, copied time-major once for the input GEMM
  gates   (T, B, 4H)  x_t W + b for every step from one GEMM; each step
                      adds h_{t-1} U and overwrites the row with the
                      activated gates. The backward pass reads row t and
                      then overwrites it with dz_t, the gradient with
                      respect to the pre-activation gates
  c, h    (T+1, B, H) c_0 .. c_T and h_0 .. h_T (c_0 = h_0 = 0)
  tanh_c  (T, B, H)   tanh_c[t] = tanh(c_{t+1})

The cache exposes x as a (B, T, d) view of the time-major copy. The
backward time loop does only the gate math and the recurrent product
dz_t U^T; dW, dU, db and grad x are then batched over the (T*B, .) views
of x, h_0 .. h_{T-1} and the dz rows.

Inference (`lstm_infer`) takes the embedding table and the (B, T)
indices instead of their lookup, and keeps no history. Its steps go in
runs, each of which projects its own distinct tokens once:

  P       (R, 4H)     table[distinct] W + b for the run's distinct tokens,
                      padded with PAD's row up to the rows that keep the
                      training GEMM's kernel, so R is at most min(V,
                      B*T) or those rows, whichever is more; a run ends
                      before P would pass PROJECT_BYTES (a run of one
                      step may pass it)
  at      (n, B)      each of the run's positions' row of P, the rows
                      sorted as below
  c, h    (2, B, H)   two alternating slots; tanh_c, i * g and h U one

Step t takes its gates from P with one `np.take`. When a row starts with
PAD the rows are sorted stably by their count of leading PAD steps, and
step t's product runs over the rows that have started plus enough rows
still in their PAD prefix, which all share one trajectory, to stay on
the whole product's kernel. A large enough batch is dealt round-robin to
row shards, each with its own buffers, side by side on one BLAS thread
each (see SHARD_MULADDS), on threads that the call starts and joins; the
shards also split each run's product of P.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass

import numpy as np

from . import blas
from .numerics import ShapeMismatch, dtanh


# Bytes per array in a block of an Arena's `blocks`: a block's value,
# moments and two temporaries then stay in a core's L2 cache, and blocks
# are still few enough that the per-call cost of numpy is small. On a
# 2-core Xeon with 2 MiB of L2 per core, Adam's value update of a
# 20,000 x 100 embedding took 4.5 ms whole and 3.5 ms in such blocks in
# float32, 12.2 and 10.0 ms in float64; blocks of 16 KiB took longer
# than the whole array.
PARAM_BLOCK_BYTES = 1 << 18
# Bytes at whose multiples a packed arena starts each tensor's values.
# OpenBLAS's GEMV at predict shapes, (1, 150) x (150, 600) float64, took
# 12.4 us with the matrix at a 64-byte boundary and 20.4 us at 8, 16 or
# 32 bytes past one.
PARAM_ALIGN = 64
# Elements (tokens x E) of upstream gradient at or below which
# `embedding_backward` makes one 2-D np.add.at call. The two paths cross
# near 400 elements at every width (min of 5 x 300 calls, us, 2-D | 1-D):
# E = 8: 384 elements 12.0 | 12.3, 512 14.9 | 13.0; E = 32: 384 11.2 |
# 11.8, 512 13.8 | 12.7; E = 100: 400 10.9 | 11.6, 800 18.2 | 13.4.
SCATTER_2D_ELEMENTS = 400
# Tokens per 1-D np.add.at call of `embedding_backward`; at E = 100 the
# block's flat index takes 400 KB.
SCATTER_TOKENS = 512


class IndexOutOfVocab(IndexError):
    pass


class BadRate(ValueError):
    pass


class BatchTooSmall(ValueError):
    pass


class StaleCache(RuntimeError):
    pass


@dataclass
class ParamTensor:
    """A trainable array and its gradient.

    `regularizers` is a tuple of ("l1", lam) / ("l2", lam) terms; biases,
    embeddings, and batch-norm gamma/beta never carry any.

    `value` and `grad` are views, of the tensor's shape, of its `span` of
    its `arena`'s `value` and `grad`; Adam's moments are the arena's
    alone. A model's tensors get their arenas from `pack`; a tensor that
    no `pack` placed becomes an arena of one on first use of `arena`,
    which adopts `value` (a C-contiguous array is not copied). `grad` is
    made on first use and kept: clipping and zeroing walk the arena's
    arrays, so a model that only predicts never makes it.
    """
    name: str
    value: np.ndarray
    regularizers: tuple = ()

    def _view(self, flat):
        """This tensor's span of the flat array `flat`, in its shape."""
        return flat[self.span].reshape(self.value.shape)

    @functools.cached_property
    def arena(self):
        return Arena([self])

    @functools.cached_property
    def grad(self):
        return self._view(self.arena.grad)


class Arena:
    """Four 1-D arrays, `value`, `grad`, `m` and `v`, that hold the arrays
    of `count` tensors one after another, in the order given.

    Made from its tensors, an arena allocates `value` and binds each
    tensor's `arena`, `span` and `value`, a reshaped view of its span.
    `grad`, `m` and `v` start at zero and are allocated on first use, as
    is each tensor's view of `grad`: a model that only predicts never
    makes them. A tensor's moments are `m[span]` and `v[span]`, with no
    views of their own. Only the constructor and those first uses bind
    the attributes: a tensor whose array were rebound elsewhere would
    leave its arena, and Adam would update a buffer nobody reads. An
    arena keeps no reference to its tensors, so a model holds no
    reference cycle and is freed as soon as it is dropped.
    """

    def __init__(self, tensors):
        """An arena of one adopts its tensor's value (reshaped, so a
        C-contiguous one is not copied). A larger one allocates `value`
        and copies each tensor's in once, each span starting at the first
        multiple of PARAM_ALIGN bytes, from an aligned base, after the one
        before; the gaps hold zeros, whose gradient and moments stay
        zero, so no step moves them."""
        self.count = len(tensors)
        if len(tensors) == 1:
            p = tensors[0]
            p.span = slice(0, p.value.size)
            self.value = p.value.reshape(-1)
            p.value = p._view(self.value)
            p.arena = self
            return
        dtype = tensors[0].value.dtype
        if any(p.value.dtype != dtype for p in tensors):
            raise ValueError("an arena holds tensors of one dtype")
        per = PARAM_ALIGN // dtype.itemsize
        at = 0
        for p in tensors:
            p.span = slice(at, at + p.value.size)
            at = -(-p.span.stop // per) * per
        raw = np.zeros(at + per, dtype)
        skip = -raw.ctypes.data % PARAM_ALIGN // dtype.itemsize
        self.value = raw[skip:skip + at]
        for p in tensors:
            view = p._view(self.value)
            view[...] = p.value
            p.value = view
            p.arena = self

    # np.zeros gets pages the OS has already zeroed, where zeros_like writes
    # every byte
    @functools.cached_property
    def grad(self):
        return np.zeros(self.value.size, self.value.dtype)

    @functools.cached_property
    def m(self):
        return np.zeros(self.value.size, self.value.dtype)

    @functools.cached_property
    def v(self):
        return np.zeros(self.value.size, self.value.dtype)

    @functools.cached_property
    def blocks(self):
        """Views (value, grad, m, v) of consecutive blocks of at most
        PARAM_BLOCK_BYTES each. Made on first use and kept."""
        arrays = (self.value, self.grad, self.m, self.v)
        span = max(1, PARAM_BLOCK_BYTES // self.value.itemsize)
        return tuple(tuple(a[s:s + span] for a in arrays)
                     for s in range(0, self.value.size, span))


def pack(params):
    """The arenas of a model's `params`, in order of first appearance: a
    tensor larger than PARAM_BLOCK_BYTES keeps an arena of its own, which
    adopts its array, and the others share one."""
    small = [p for p in params if p.value.nbytes <= PARAM_BLOCK_BYTES]
    shared = Arena(small) if small else None
    return list(dict.fromkeys(
        shared if p.value.nbytes <= PARAM_BLOCK_BYTES else Arena([p])
        for p in params))


def arenas_of(params):
    """The arenas of `params`, in order of first appearance. Refuses
    params that hold only part of an arena: a step over the arena would
    move the tensors left out."""
    arenas = list(dict.fromkeys(p.arena for p in params))
    if sum(a.count for a in arenas) != len(params):
        raise ValueError("params must hold every tensor of their arenas")
    return arenas


# --- embedding -------------------------------------------------------------

def _checked(indices, vocab_size):
    """`indices` as an array; one outside [0, vocab_size) raises
    IndexOutOfVocab."""
    indices = np.asarray(indices)
    low, high = indices.min(), indices.max()
    if low < 0 or high >= vocab_size:
        raise IndexOutOfVocab(f"index outside [0, {vocab_size}): {low}..{high}")
    return indices


def embedding_forward(indices, emb):
    """Row lookup: (B, T) int indices -> (B, T, d). The PAD row (index 0)
    is held at zero and receives no gradient. A stack of tables on leading
    axes, (P, V, d), as gradcheck's stacked probes hand one, gives a stack
    of lookups, (P, B, T, d): `np.take` along the row axis copies the
    bits of `value[indices]` either way."""
    indices = _checked(indices, emb.value.shape[-2])
    return np.take(emb.value, indices, axis=-2)


def embedding_backward(grad_out, indices, emb):
    """grad of row k = sum of upstream grads wherever k occurred, added in
    token order (row-major over `indices`), as np.add.at(grad, indices,
    grad_out) adds them. That 2-D call does a batch of at most
    SCATTER_2D_ELEMENTS elements; a larger one goes SCATTER_TOKENS tokens
    at a time through the 1-D np.add.at, which is several times faster per
    element, on flat element indices row * E + col, taken in intp so that
    narrow index dtypes cannot wrap. Either way each element adds its
    terms in the same order, so the bits are the same."""
    indices = np.asarray(indices)
    if indices.size * emb.grad.shape[1] <= SCATTER_2D_ELEMENTS:
        np.add.at(emb.grad, indices, grad_out)
    else:
        flat = emb.grad.reshape(-1)
        cols = np.arange(emb.grad.shape[1], dtype=np.intp)
        span = max(1, SCATTER_TOKENS * len(indices) // indices.size)
        for s in range(0, len(indices), span):
            at = np.multiply(indices[s:s + span], cols.size,
                             dtype=np.intp)[..., None] + cols
            np.add.at(flat, at.reshape(-1), grad_out[s:s + span].reshape(-1))
    emb.grad[0] = 0.0  # PAD row frozen


# --- LSTM ------------------------------------------------------------------

@dataclass
class LstmCache:
    x: np.ndarray          # (B, T, d) view of a time-major copy
    gates: np.ndarray      # (T, B, 4H): activated [i, f, g, o] per step
    c: np.ndarray          # (T+1, B, H): c_0 .. c_T
    h: np.ndarray          # (T+1, B, H): h_0 .. h_T
    tanh_c: np.ndarray     # (T, B, H): tanh_c[t] = tanh(c_{t+1})
    spent: bool = False    # set by lstm_backward, which overwrites gates


@functools.cache
def _gate_constants(hidden, dtype):
    """Per-column vectors over the [i, f, g, o] blocks, made once per
    (hidden, dtype) and read-only.

    `scale`/`offset` turn one tanh into all four activations:
    sigmoid(z) = 0.5 * tanh(0.5 * z) + 0.5 (the same bits as
    `numerics.sigmoid`) on i, f and o, and tanh(z) = 1 * tanh(1 * z) + 0
    on g. `shift` gives every slope from the gate output y as
    (1 - y) * (y + shift): y(1 - y) on i, f and o, 1 - y^2 on g.
    """
    g = slice(2 * hidden, 3 * hidden)
    scale = np.full(4 * hidden, 0.5, dtype=dtype)
    offset = np.full(4 * hidden, 0.5, dtype=dtype)
    shift = np.zeros(4 * hidden, dtype=dtype)
    scale[g], offset[g], shift[g] = 1.0, 0.0, 1.0
    for a in (scale, offset, shift):
        a.flags.writeable = False
    return scale, offset, shift


def _cell(z, c_prev, c, tanh_c, h, ig, scale, offset):
    """One step's gate math, in place: activates the pre-activation gates
    z = x_t W + b + h_{t-1} U, then writes c_t into c, tanh(c_t) into
    tanh_c and h_t into h; ig holds i * g."""
    hidden = c.shape[-1]
    z *= scale
    np.tanh(z, out=z)
    z *= scale
    z += offset
    np.multiply(z[..., hidden:2 * hidden], c_prev, out=c)
    np.multiply(z[..., :hidden], z[..., 2 * hidden:3 * hidden], out=ig)
    c += ig
    np.tanh(c, out=tanh_c)
    np.multiply(z[..., 3 * hidden:], tanh_c, out=h)


def lstm_forward(x, w, u, b):
    """Sequence-to-vector LSTM, training: returns the final hidden state
    h_T and the `LstmCache` that `lstm_backward` reads.

    x: (B, T, d); w: (d, 4H); u: (H, 4H); b: (4H,). Gate order [i,f,g,o].
    c_0 = h_0 = 0. The buffers are laid out as in the module docstring;
    one GEMM projects every step from a time-major copy of x (d wide, not
    4H), and each step applies all four activations with one tanh.

    W, U or b may hold a stack of values on a leading axis, (P, d, 4H),
    (P, H, 4H) or (P, 1, 4H), as gradcheck's stacked probes hand them (if
    more than one does, the same stack); x stays (B, T, d), and h_T is
    then (P, B, H). numpy's stacked matmul makes one GEMM per value, of
    the shape of the one-value call, so each h_T in the stack has the
    bits of its own call. The gates buffer then puts the stack axis
    first, (P, T, B, 4H), so that the input GEMM writes it whole, and c,
    h and tanh_c put it after the step axis. No backward reads a stacked
    call's cache.
    """
    x = np.asarray(x)
    batch, steps, d = x.shape
    if w.value.shape[-2] != d or w.value.shape[-1] != u.value.shape[-1]:
        raise ShapeMismatch(f"LSTM shapes: x {x.shape}, W {w.value.shape}, "
                            f"U {u.value.shape}")
    hidden = u.value.shape[-2]
    # the leading axes of whichever of W, U and b hold a stack
    stack = w.value.shape[:-2] or u.value.shape[:-2] or b.value.shape[:-2]
    dtype = np.result_type(x, w.value, u.value, b.value)
    scale, offset, _ = _gate_constants(hidden, dtype)
    gates = np.empty((*stack, steps, batch, 4 * hidden), dtype)
    x_tm = np.empty((steps, batch, d), x.dtype)
    c = np.zeros((steps + 1, *stack, batch, hidden), dtype)
    h = np.zeros_like(c)
    tanh_c = np.empty((steps, *stack, batch, hidden), dtype)
    ig = np.empty((*stack, batch, hidden), dtype)
    hu = np.empty((*stack, batch, 4 * hidden), dtype)
    np.copyto(x_tm, x.transpose(1, 0, 2))
    rows = gates.reshape(*stack, -1, 4 * hidden)
    np.matmul(x_tm.reshape(-1, d), w.value, out=rows)
    rows += b.value
    gates_tm = gates.swapaxes(0, -3)  # step axis first, a view
    for t in range(steps):
        z = gates_tm[t]
        np.matmul(h[t], u.value, out=hu)
        z += hu
        _cell(z, c[t], c[t + 1], tanh_c[t], h[t + 1], ig, scale, offset)
    return h[steps], LstmCache(x=x_tm.transpose(1, 0, 2), gates=gates, c=c,
                               h=h, tanh_c=tanh_c)


# Bytes of projected gates, P, that an inference call holds at once: a
# run of steps projects its own distinct tokens, and takes steps while
# their rows of P fit these bytes (see `_runs`; the shards split them).
# Without the bound a batch whose positions are all distinct would hold
# every step's gates (at paper shapes, B = 256, float64: 246 MB).
PROJECT_BYTES = 1 << 24


# Multiply-adds of a shard's recurrent product h_{t-1} U per step (rows x
# H x 4H) at or above which an inference call splits its batch rows across
# BLAS threads. A step's elementwise gate math (2/3 of an f64 paper-shape
# pass) is single-threaded numpy that a second BLAS thread never helps;
# two shards on one BLAS thread each run it side by side. At paper shapes
# (T = 200, d = 100, H = 150; 2-core Xeon) two shards changed the
# throughput of a pass by -10% / -29% (f64 / f32) with 16-row shards,
# +21% / -13% with 32, +23% / -4% with 48, +28% / +8% with 64 and +34% /
# +24% with 128. This bound is 47 rows there.
SHARD_MULADDS = 1 << 22
# Multiply-adds at or below which OpenBLAS takes its small-matrix GEMM
# kernel, whose bits can differ from its large one's: rows of an (M, 16)
# x (16, 28) float64 product did at M = 2,232 against M = 40,000, and of
# an (M, 150) x (150, 600) float32 one at M = 11 against M = 12. Within
# either kernel a row's bits depend neither on M nor on where the row
# sits (every M from 2 to 700 or to the bound, 11 shapes from (8, 32) to
# (256, 12) and (150, 600), both dtypes, 1 and 2 threads, SkylakeX); at
# M = 1 numpy calls GEMV, whose bits differ again. So inference gives the
# training bits only on a kernel that rounds so: on another, a row's bits
# may depend on its batch, whose distinct tokens set the M of P and whose
# PAD prefixes set that of each step's recurrent product.
SMALL_GEMM_MULADDS = 10 ** 6
# Widest d or H an inference call shards at. OpenBLAS sums a product's
# inner dimension K in one block up to its kernel's GEMM_Q, and beyond it
# in blocks that its one-thread and threaded drivers cut differently, so
# one-thread shards would round otherwise than the threaded whole batch.
# Products (128, K) x (K, 600) first differed between 1 and 2 threads at
# K = 385 (f64) and 449 (f32) on the SkylakeX kernel, and at K = 257
# (f64) on the Haswell, Sandybridge and Nehalem kernels.
SHARD_MAX_K = 256


def _least_rows(total, per_row):
    """The fewest rows, of a product of `total` rows and `per_row`
    multiply-adds a row, that a product may cover and stay on the kernel
    the whole product runs: one row is a GEMV, a whole product of at most
    SMALL_GEMM_MULADDS multiply-adds takes the small kernel at 2 rows or
    more, and a larger one the large kernel above that bound."""
    if total * per_row <= SMALL_GEMM_MULADDS:
        return min(total, 2)
    return min(total, max(2, SMALL_GEMM_MULADDS // per_row + 1))


def _shards(batch, d, hidden):
    """How many row shards an inference call runs on: up to one per BLAS
    thread, each with a recurrent product of at least SHARD_MULADDS
    multiply-adds per step; one when d or H is wider than SHARD_MAX_K."""
    if max(d, hidden) > SHARD_MAX_K:
        return 1
    rows = -(-SHARD_MULADDS // (hidden * 4 * hidden))
    if batch < 2 * rows:
        return 1
    return min(blas.threads(), batch // rows)


def _runs(idx, vocab, most):
    """The runs of steps of `idx` (T, B), as (start, stop, distinct
    tokens): every step in one run when the batch holds at most `most`
    distinct tokens, else runs that each take steps while their distinct
    tokens number at most `most` (a run of one step may hold more)."""
    steps = idx.shape[0]
    seen = np.zeros(vocab, bool)
    seen[idx] = True
    distinct = np.flatnonzero(seen)
    if distinct.size <= most:
        yield 0, steps, distinct
        return
    seen[distinct] = False
    start = count = 0
    for t in range(steps):
        col = idx[t]
        fresh = np.unique(col[~seen[col]])
        if count + fresh.size > most and t > start:
            distinct = np.flatnonzero(seen)
            yield start, t, distinct
            seen[distinct] = False
            start, count, fresh = t, 0, np.unique(col)
        seen[fresh] = True
        count += fresh.size
    yield start, steps, np.flatnonzero(seen)


def _lstm_buffers(rows, hidden, dtype):
    """(z, c, h, tanh_c, ig, hu) for `rows` rows: one step's gates, c and
    h in two alternating slots (zero at first), tanh(c), i * g and
    h_{t-1} U."""
    return (np.empty((rows, 4 * hidden), dtype),
            np.zeros((2, rows, hidden), dtype),
            np.zeros((2, rows, hidden), dtype),
            np.empty((rows, hidden), dtype),
            np.empty((rows, hidden), dtype),
            np.empty((rows, 4 * hidden), dtype))


def _project(table, w, b, pick, out):
    """Writes table[pick] W + b into `out`."""
    np.matmul(table.value.take(pick, 0), w.value, out=out)
    out += b.value


def _windows(lead, steps, hidden):
    """How many rows each step of a shard covers, given its rows' counts
    of leading PAD steps in ascending order: the rows that have started,
    one more, and as many as keep the product on the kernel that all of
    them would take (`_least_rows`)."""
    started = np.searchsorted(lead, np.arange(steps), "right")
    least = _least_rows(lead.size, hidden * 4 * hidden)
    return np.minimum(np.maximum(started + 1, least), lead.size).tolist()


def _lstm_rows(at, start, window, buffers, proj, u, scale, offset):
    """Runs steps start, start + 1, ... of the rows whose gates at step
    start + k are proj[at[k]] + h_{t-1} U, on the state in `buffers` (see
    `_lstm_buffers`), one step per row of `at`. Step t covers only the
    first window[t] rows: the rows after those are still in a PAD prefix
    and carry one shared trajectory, so a row that the window takes in
    copies its c and h from the last row it held before. It allocates
    nothing larger than a view: a shard thread that runs it writes only
    the buffers its caller made."""
    c, h = buffers[1:3]
    # at step 0 every row holds the zero state: nothing to copy
    taken = window[start - 1] if start else window[0]
    views = buffers if taken == at.shape[1] else [a[..., :taken, :]
                                                   for a in buffers]
    for t, rows in enumerate(at, start):
        prev, cur, m = t % 2, (t + 1) % 2, window[t]
        if m > taken:
            c[prev, taken:m] = c[prev, taken - 1]
            h[prev, taken:m] = h[prev, taken - 1]
            taken = m
            views = [a[..., :m, :] for a in buffers]
        z, cm, hm, tanh_c, ig, hu = views
        # the method skips np.take's Python wrapper, ~1 us a step
        proj.take(rows[:m], 0, z, "clip")
        np.matmul(hm[prev], u.value, out=hu)
        z += hu
        _cell(z, cm[prev], cm[cur], tanh_c, hm[cur], ig, scale, offset)


def _on_shards(pool, run, parts):
    """run(*part) for every part, the first on the calling thread and the
    others on `pool`; returns once every one has."""
    rest = [pool.submit(run, *part) for part in parts[1:]]
    run(*parts[0])
    for f in rest:
        f.result()


def lstm_infer(indices, table, w, u, b):
    """Inference LSTM over an embedding lookup: the h_T of
    `lstm_forward(embedding_forward(indices, table), w, u, b)`, bit for
    bit, without the (B, T, d) lookup, the history or a cache.

    indices: (B, T) ints in [0, V), else IndexOutOfVocab; table: (V, d).
    Each run of steps (`_runs`) first projects its distinct tokens once,
    P = table[distinct] W + b; each of its steps then takes its gates
    with one `np.take` of P. P holds at most PROJECT_BYTES (or one step's
    distinct tokens, when they take more), and is padded with index 0 to
    at least the rows that keep its product on the kernel of the
    training GEMM over all B*T positions (`_least_rows`).

    When some row starts with PAD (index 0), the rows are sorted stably
    by their count of leading PAD steps: rows in their PAD prefix see the
    same inputs from the same zero state, so they share one trajectory,
    which each step's product runs once (see `_lstm_rows` and
    `_windows`); h_T is unsorted at the end.

    A batch large enough (see `_shards`) is dealt round-robin, after the
    sort, to row shards, so that each gets the same mix of PAD prefixes,
    each with its own buffers, made here, that together take what one
    shard's would. The call then holds `blas.single_thread` throughout,
    P's products included, which the shards split: OpenBLAS's idle
    workers spin for a while after a threaded product, on the cores the
    shards run on (at paper shapes, B = 256 on 2 threads, a call with 4
    runs took 530 ms with threaded products of P and 340 ms without). In
    each run the calling thread runs the first shard's share and threads
    of the call's own executor the others, which it joins before it goes
    on. A shard's products stay on the whole batch's GEMM kernels and
    sum their inner dimension in one block (SHARD_MAX_K), so on a kernel
    whose rows round alike wherever the rows are cut, as SkylakeX's do,
    the bits do not depend on the shard count.
    """
    vocab, d = table.value.shape
    indices = _checked(indices, vocab)
    batch, steps = indices.shape
    hidden = u.value.shape[0]
    dtype = np.result_type(table.value, w.value, u.value, b.value)
    most = PROJECT_BYTES // (4 * hidden * dtype.itemsize)
    least = _least_rows(batch * steps, d * 4 * hidden)
    scale, offset, _ = _gate_constants(hidden, dtype)
    shards = _shards(batch, d, hidden)
    # shard k takes rows k, k + shards, ... of the rows sorted by their
    # count of leading PAD steps, so that each gets the same mix of them
    sizes = [len(range(k, batch, shards)) for k in range(shards)]
    cuts = [sum(sizes[:k]) for k in range(shards + 1)]
    windows = [[size] * steps for size in sizes]
    order = None
    if batch > 1 and not indices[:, 0].all():  # a row starts with PAD
        real = indices != 0
        lead = np.where(real.any(axis=1), real.argmax(axis=1), steps)
        order = np.argsort(lead, kind="stable")[
            np.concatenate([np.arange(k, batch, shards)
                            for k in range(shards)])]
        indices, lead = indices[order], lead[order]
        windows = [_windows(lead[lo:hi], steps, hidden)
                   for lo, hi in zip(cuts, cuts[1:])]
    buffers = [_lstm_buffers(hi - lo, hidden, dtype)
               for lo, hi in zip(cuts, cuts[1:])]
    idx = np.ascontiguousarray(indices.T)
    where = np.empty(vocab, np.intp)
    pool = None
    with contextlib.ExitStack() as sharded:
        if shards > 1:
            # imported here: no unsharded call pays its 7 ms (with `logging`)
            from concurrent.futures import ThreadPoolExecutor
            sharded.enter_context(blas.single_thread())
            # leaving joins every shard, also when the first raises
            pool = sharded.enter_context(ThreadPoolExecutor(shards - 1))
        for start, stop, distinct in _runs(idx, vocab, most):
            # each shard projects a block of P of at least `least` rows
            rows = max(distinct.size, shards * least)
            pick = np.zeros(rows, np.intp)
            pick[:distinct.size] = distinct
            proj = np.empty((rows, 4 * hidden), dtype)
            blocks = [rows * k // shards for k in range(shards + 1)]
            _on_shards(pool, _project, [
                (table, w, b, pick[lo:hi], proj[lo:hi])
                for lo, hi in zip(blocks, blocks[1:])])
            where[distinct] = np.arange(distinct.size)
            at = where[idx[start:stop]]
            _on_shards(pool, _lstm_rows, [
                (at[:, lo:hi], start, window, buf, proj, u, scale, offset)
                for lo, hi, window, buf
                in zip(cuts, cuts[1:], windows, buffers)])
            del proj, at  # before the next run makes its own
    for window, buf in zip(windows, buffers):
        h_last, taken = buf[2][steps % 2], window[-1]
        if taken < len(h_last):  # rows that never started
            h_last[taken:] = h_last[taken - 1]
    h_t = np.concatenate([buf[2][steps % 2] for buf in buffers])
    if order is None:
        return h_t
    unsorted = np.empty_like(h_t)
    unsorted[order] = h_t
    return unsorted


# Rows of dz per grad-x product. OpenBLAS packs a taller left operand into
# a larger buffer that then stays resident: at paper shapes (12,800 rows,
# 600 -> 100, float64, 2 threads) one product touches ~40 MB and takes
# ~24 ms, blocks of 1,024 rows ~13 MB and ~12 ms.
GRAD_X_ROWS = 1024


def lstm_backward(grad_ht, cache, w, u, b):
    """Full backpropagation through time; accumulates into the param grads
    and returns grad with respect to the input sequence, (B, T, d).

    The reversed time loop does the elementwise gate math and the one
    recurrent product dh = dz_t U^T. Each step overwrites gates[t], which
    it has just read, with dz_t, so after the loop `gates` holds dz for
    every step and the non-recurrent products run over all T*B rows at
    once: dW, dU and db in one product each, grad x in blocks of
    GRAD_X_ROWS rows. The returned grad x is a transposed view of a
    time-major array. A cache it has spent raises StaleCache.
    """
    if cache.spent:
        raise StaleCache("LSTM cache already used for a backward pass")
    cache.spent = True
    x, dz = cache.x, cache.gates
    batch, steps, d = x.shape
    hidden = u.value.shape[0]
    dtype = dz.dtype
    grad_x = np.empty((steps, batch, d), dtype=dtype)
    dh = np.array(grad_ht, dtype=dtype)
    dc = np.zeros((batch, hidden), dtype=dtype)
    dc_next = np.empty_like(dc)
    slope = np.empty((batch, 4, hidden), dtype=dtype)
    si, sf, sg, so = (slope[:, k] for k in range(4))
    _, _, shift = _gate_constants(hidden, dtype)
    shift = shift.reshape(4, hidden)
    ut = u.value.T
    for t in range(steps - 1, -1, -1):
        z = dz[t].reshape(batch, 4, hidden)
        gi, gf, gg, go = (z[:, k] for k in range(4))
        tc = cache.tanh_c[t]
        dc += dh * go * dtanh(tc)
        np.subtract(1.0, z, out=slope)
        slope *= z + shift
        si *= gg
        sf *= cache.c[t]
        sg *= gi
        so *= tc
        np.multiply(dc, gf, out=dc_next)
        # from here on z holds dz_t: the i, f, g slopes scale by dc, o by dh
        np.multiply(slope[:, :3], dc[:, None], out=z[:, :3])
        np.multiply(so, dh, out=go)
        np.matmul(dz[t], ut, out=dh)
        dc, dc_next = dc_next, dc
    dz_rows = dz.reshape(-1, 4 * hidden)
    w.grad += x.transpose(1, 0, 2).reshape(-1, d).T @ dz_rows
    u.grad += cache.h[:steps].reshape(-1, hidden).T @ dz_rows
    b.grad += dz_rows.sum(axis=0)
    wt = w.value.T
    span = max(1, GRAD_X_ROWS // batch)
    for t in range(0, steps, span):
        np.matmul(dz[t:t + span].reshape(-1, 4 * hidden), wt,
                  out=grad_x[t:t + span].reshape(-1, d))
    return grad_x.transpose(1, 0, 2)


# --- dense -----------------------------------------------------------------

def dense_forward(x, w, b):
    """Affine map x W + b, cached as x; activations are separate layers."""
    return x @ w.value + b.value, x


def dense_backward(grad_y, x, w, b):
    """Returns grad_x; accumulates grad_W and grad_b."""
    w.grad += x.T @ grad_y
    b.grad += grad_y.sum(axis=0)
    return grad_y @ w.value.T


# --- dropout ---------------------------------------------------------------

def dropout_forward(x, p, rng):
    """Inverted dropout: kept units scaled by 1/(1-p). It trains exactly
    when given an rng; with `rng` None, or at p = 0, it is the identity.
    The cache is the scaled mask, 1/(1-p) on kept units and 0 on dropped
    ones in x's dtype, or None for the identity."""
    if not 0.0 <= p < 1.0:
        raise BadRate(f"dropout rate must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return x, None
    keep = 1.0 - p
    # kept units hold 1 / keep in x's dtype, dropped ones +0: the bits of
    # (uniform(0, 1) < keep).astype(dtype) / keep
    mask = np.multiply(rng.keep_mask(keep, x.shape), x.dtype.type(1.0) / keep,
                       dtype=x.dtype)
    return x * mask, mask


def dropout_backward(grad_y, mask):
    if mask is None:
        return grad_y
    return grad_y * mask


# --- batch normalization ---------------------------------------------------

BN_EPS = 1e-5
BN_MOMENTUM = 0.9


@dataclass
class BatchNormRunning:
    """Running statistics, updated when training and used at inference."""
    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def fresh(cls, n):
        return cls(mean=np.zeros(n), var=np.ones(n))


def batchnorm_forward(x, gamma, beta, running, train):
    """`train`: standardize with biased batch statistics and fold an
    unbiased variance estimate into the running stats, in place. Otherwise
    use the running stats only.

    The batch is axis -2 of x, so x may also hold a stack of batches on
    leading axes, as gradcheck's stacked probes do; each is standardized
    with its own statistics, with the bits it would get alone. A stack
    folds nothing into the running stats, which keep one batch's
    statistics. The batch statistics are x.mean(axis=-2) and
    x.var(axis=-2) as numpy computes them, a sum divided by the count and
    the sum of the squared centred x divided by it, without the Python
    wrappers that cost more than the sums at these shapes; the centred x
    is then x_hat's too. The cache is the pair (x_hat, inv_std)."""
    if train:
        batch = x.shape[-2]
        if batch < 2:
            raise BatchTooSmall("batch-norm train mode needs batch >= 2")
        mean = np.add.reduce(x, -2, keepdims=True) / batch
        x_centered = x - mean
        var = np.add.reduce(x_centered * x_centered, -2,
                            keepdims=True) / batch  # biased
        if x.ndim == 2:
            # in the order of M * running + (1 - M) * stat, the variance's
            # term being (1 - M) * var * batch / (batch - 1)
            running.mean *= BN_MOMENTUM
            running.mean += (1.0 - BN_MOMENTUM) * mean[0]
            term = (1.0 - BN_MOMENTUM) * var[0]
            term *= batch
            term /= batch - 1
            running.var *= BN_MOMENTUM
            running.var += term
    else:
        mean = running.mean
        var = running.var
        x_centered = x - mean
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    x_hat = x_centered * inv_std
    y = gamma.value * x_hat + beta.value
    return y, (x_hat, inv_std)


def batchnorm_backward(grad_y, cache, gamma, beta):
    """Gradient through the batch statistics of a training forward, from
    its cache (x_hat, inv_std), which it only reads."""
    x_hat, inv_std = cache
    batch = grad_y.shape[0]
    gamma.grad += (grad_y * x_hat).sum(axis=0)
    beta.grad += grad_y.sum(axis=0)
    dx_hat = grad_y * gamma.value
    grad_x = (inv_std / batch) * (
        batch * dx_hat
        - dx_hat.sum(axis=0)
        - x_hat * (dx_hat * x_hat).sum(axis=0))
    return grad_x
