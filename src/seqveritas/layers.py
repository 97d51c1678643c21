"""Layer forward/backward passes: Embedding, LSTM, Dense, Dropout, BatchNorm.

All layers are stateless transformers over (input, params, cache). Each
forward's cache is the plain value its backward reads: Embedding's
indices, Dense's input x, Dropout's boolean keep-mask and scale (None
for the identity), BatchNorm's (x_hat, inv_std) and the LSTM's
`LstmCache` of its buffers. Only `lstm_backward` writes its cache (dz
over the gates), so only an `LstmCache` refuses a second backward, with
`StaleCache`; a second call on any other cache repeats grad x and adds
the parameter gradient again. `Model.backward` drops each layer's cache
as soon as that layer's backward returns, so a train step holds one
LSTM history, and only until backward has read it.
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

A training batch large enough (see SHARD_MULADDS) runs on row shards
(`_train_cuts`): shard k takes a contiguous block of batch rows, which
at every step is a contiguous block of gates[t], c[t] and h[t], and runs
both time loops on it; the T*B-row products x W and dz W^T take one span
of steps per shard, and dW and dU are split by output rows. Workers
allocate only (rows, .) scratch.

tanh(c_t) is not kept: the forward writes it into one (B, H) scratch
row, and the backward recomputes it there from the same c row with the
same `np.tanh` call, so it has the forward's bits. The cache exposes x
as a (B, T, d) view of the time-major copy. The backward time loop does
only the gate math and the recurrent product dz_t U^T; dW, dU, db and
grad x are then batched over the (T*B, .) views of x, h_0 .. h_{T-1}
and the dz rows. At paper shapes (B = 64, T = 200, d = 100, H = 150)
the history takes 102 MB in float64 (gates 61, c and h 15 each, x 10)
and half that in float32; a training dropout keeps one byte per
element, its boolean keep-mask, and its backward rebuilds the scaled
mask.

Inference (`lstm_infer`) takes the embedding table and the (B, T)
indices instead of their lookup, and keeps no history. It goes through
the steps in runs of one span, set once per call: the most steps whose
B positions' rows of P fit PROJECT_BYTES, and at least one. A large
enough batch is split into row shards: shard k takes rows k, k +
shards, ... (see SHARD_MULADDS), and each shard is a whole one-thread
call, `_lstm_rows`, that sorts its own rows and cuts the call's runs.
The calling thread runs one shard and the threads of an executor that
the call starts and joins run the others, side by side (`_side_by_side`,
the frame training's shards use too); every product runs on the one
BLAS thread that `blas` sets for the whole process. Each run of a shard
projects the distinct tokens of its positions once:

  P       (R, 4H)     table[distinct] W + b for the run's distinct tokens,
                      padded with PAD's row up to the rows that keep the
                      training GEMM's kernel, so R is at most min(V,
                      span * n) for a shard of n rows, or those rows,
                      whichever is more; the shards' P together fit
                      PROJECT_BYTES unless one step's positions pass it
  where   (V,)        each of the run's tokens' row of P; where[run] is
                      each of its positions' row, the rows sorted as below

and the step buffers, each on a PARAM_ALIGN boundary of one allocation:

  c, h        2 x (B, H)  two alternating slots each: c_{t-1} and h_{t-1}
                          in one, c_t and h_t written to the other
  tanh_c, ig  (B, H)      tanh(c_t) and i * g
  z, hu       (B, 4H)     the step's gates and h_{t-1} U
  scale,      (B, 4H)     `_gate_constants`' scale and offset, copied once
  offset                  per call to z's shape, so that no step's ufunc
                          broadcasts

Step t takes its gates from P with one `np.take`. When a row starts with
PAD the rows are sorted stably by their count of leading PAD steps, and
step t's product runs over the rows that have started plus enough rows
still in their PAD prefix, which all share one trajectory, to stay on
the whole product's kernel. The views a step hands its numpy calls (the
buffers' first rows, z's four gate blocks, and which c and h slot is
t-1) are made once per window of rows, not per step, so a one-row step
makes its numpy calls and little else. The training time loops also
take the constants at their steps' shape, and make their scratch once
per call: no step of any LSTM time loop makes a temporary array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import blas
from .numerics import PARAM_ALIGN, ShapeMismatch, _aligned


# Bytes per array in a block of an Arena's `blocks`: a block's value,
# moments and two temporaries then stay in a core's L2 cache, and blocks
# are still few enough that the per-call cost of numpy is small. On a
# 2-core Xeon with 2 MiB of L2 per core, Adam's value update of a
# 20,000 x 100 embedding took 4.5 ms whole and 3.5 ms in such blocks in
# float32, 12.2 and 10.0 ms in float64; blocks of 16 KiB took longer
# than the whole array.
PARAM_BLOCK_BYTES = 1 << 18
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
    which adopts `value` (a C-contiguous array on a PARAM_ALIGN boundary
    is not copied). `grad` is made on first use and kept: clipping and
    zeroing walk the arena's arrays, so a model that only predicts never
    makes it.
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
        C-contiguous one on a PARAM_ALIGN boundary is not copied; any
        other is copied once to one). A larger one allocates `value` and
        copies each tensor's in once, each span starting at the first
        multiple of PARAM_ALIGN bytes, from an aligned base, after the one
        before; the gaps hold zeros, whose gradient and moments stay
        zero, so no step moves them."""
        self.count = len(tensors)
        if len(tensors) == 1:
            p = tensors[0]
            p.span = slice(0, p.value.size)
            self.value = p.value.reshape(-1)
            if self.value.ctypes.data % PARAM_ALIGN:
                self.value = _aligned(self.value.shape, self.value.dtype,
                                      zeroed=False)
                self.value[...] = p.value.reshape(-1)
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
        self.value = _aligned((at,), dtype)
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

    The time loops do not broadcast these vectors: each call copies them
    once into arrays of its steps' shape, so that every step's ufuncs
    take numpy's same-shape path. A float64 (1, 600) `z *= scale` or `z
    += offset` took about 1.1 us with the (600,) vector and 0.6 us with
    a (1, 600) copy (timeit minimum, 2-core SkylakeX).
    """
    g = slice(2 * hidden, 3 * hidden)
    scale = np.full(4 * hidden, 0.5, dtype=dtype)
    offset = np.full(4 * hidden, 0.5, dtype=dtype)
    shift = np.zeros(4 * hidden, dtype=dtype)
    scale[g], offset[g], shift[g] = 1.0, 0.0, 1.0
    for a in (scale, offset, shift):
        a.flags.writeable = False
    return scale, offset, shift


def _cell(z, gates, c_prev, c, tanh_c, h, ig, scale, offset):
    """One step's gate math, in place: activates the pre-activation gates
    z = x_t W + b + h_{t-1} U, whose [i, f, g, o] blocks are the four
    views `gates`, then writes c_t into c, tanh(c_t) into tanh_c and h_t
    into h; ig holds i * g. `scale` and `offset` hold `_gate_constants`'
    vectors at z's shape."""
    i, f, g, o = gates
    z *= scale
    np.tanh(z, out=z)
    z *= scale
    z += offset
    np.multiply(f, c_prev, out=c)
    np.multiply(i, g, out=ig)
    c += ig
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h)


def _forward_steps(gates, c, h, u, rows):
    """The forward time loop over batch rows `rows` (a slice) of the
    step-first buffers gates (T, ..., B, 4H), c and h (T+1, ..., B, H):
    each step adds h_{t-1} U to its projected gates, activates them in
    place and writes c_t and h_t. The scratch is the rows' own."""
    gates, c, h = (a[..., rows, :] for a in (gates, c, h))
    hidden = c.shape[-1]
    # the [i, f, g, o] blocks of every step's gates
    i, f, g, o = (gates[..., k * hidden:(k + 1) * hidden] for k in range(4))
    tanh_c = np.empty(c.shape[1:], gates.dtype)
    ig = np.empty_like(tanh_c)
    hu = np.empty(gates.shape[1:], gates.dtype)
    scale, offset = np.empty((2, *hu.shape), gates.dtype)
    scale[...], offset[...], _ = _gate_constants(hidden, gates.dtype)
    for t in range(gates.shape[0]):
        z = gates[t]
        np.matmul(h[t], u.value, out=hu)
        z += hu
        _cell(z, (i[t], f[t], g[t], o[t]), c[t], c[t + 1], tanh_c, h[t + 1],
              ig, scale, offset)


def lstm_forward(x, w, u, b):
    """Sequence-to-vector LSTM, training: returns the final hidden state
    h_T and the `LstmCache` that `lstm_backward` reads.

    x: (B, T, d); w: (d, 4H); u: (H, 4H); b: (4H,). Gate order [i,f,g,o].
    c_0 = h_0 = 0. The buffers are laid out as in the module docstring;
    one GEMM projects every step from a time-major copy of x (d wide, not
    4H), and each step applies all four activations with one tanh.

    A batch large enough (see `_train_cuts`) runs on row shards, side by
    side (`_side_by_side`): the input GEMM over each shard's span of
    steps, rows of its T*B product, then each shard's time loop on its
    own contiguous block of batch rows of the caller's buffers. Every
    part stays on the whole product's kernel, so h_T and the cache have
    the one-shard bits on a kernel whose rows round alike wherever the
    rows are cut.

    W, U or b may hold a stack of values on a leading axis, (P, d, 4H),
    (P, H, 4H) or (P, 1, 4H), as gradcheck's stacked probes hand them (if
    more than one does, the same stack); x stays (B, T, d), and h_T is
    then (P, B, H). numpy's stacked matmul makes one GEMM per value, of
    the shape of the one-value call, so each h_T in the stack has the
    bits of its own call. The gates buffer then puts the stack axis
    first, (P, T, B, 4H), so that the input GEMM writes it whole, and c
    and h put it after the step axis. A stacked call never shards, and no
    backward reads its cache.
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
    shards, blocks, spans = _train_cuts(batch, steps, d, hidden, stack)
    gates = np.empty((*stack, steps, batch, 4 * hidden), dtype)
    x_tm = np.empty((steps, batch, d), x.dtype)
    c = np.zeros((steps + 1, *stack, batch, hidden), dtype)
    h = np.zeros_like(c)
    rows = gates.reshape(*stack, -1, 4 * hidden)
    gates_tm = gates.swapaxes(0, -3)  # step axis first, a view

    def project(t):
        np.copyto(x_tm[t], x[:, t].transpose(1, 0, 2))
        part = rows[..., t.start * batch:t.stop * batch, :]
        np.matmul(x_tm[t].reshape(-1, d), w.value, out=part)
        part += b.value

    _side_by_side(lambda k: project(spans[k]), shards)
    _side_by_side(lambda k: _forward_steps(gates_tm, c, h, u, blocks[k]),
                  shards)
    return h[steps], LstmCache(x=x_tm.transpose(1, 0, 2), gates=gates, c=c,
                               h=h)


# Bytes of projected gates, P, that an inference call holds at once: the
# call goes through its steps in runs of one span, the most steps whose
# B positions' rows of P fit these bytes (at least one step), and each
# run projects its own distinct tokens. Without the bound a batch whose
# positions are all distinct would hold every step's gates (at paper
# shapes, B = 256, float64: 246 MB).
PROJECT_BYTES = 1 << 24


# Multiply-adds of a recurrent product h_{t-1} U per step (rows x H x 4H)
# at or above which an LSTM call splits its batch rows into shards, one per
# BLAS thread of the budget (`blas.threads`): an inference call when each
# shard's product reaches it, a training call when the whole batch's does.
# A step's elementwise gate math (2/3 of an f64 paper-shape pass) is numpy
# on the calling thread, which shards run side by side. Measured against
# the whole batch on one BLAS thread (2-core Xeon). Inference at paper
# shapes (T = 200, d = 100, H = 150): two shards were still slower at 32
# rows (f64 67.9 against 51.6 ms, f32 38.2 against 23.7) and at 64 (f64
# 123.6 against 117.3, f32 53.9 against 43.6); they won at B = 256.
# Training forward plus backward, T = 50, 15 alternating calls: at B = 64,
# H = 150 (5.8 M) two shards won 15 of 15 in f32; at B = 24 (2.2 M) they
# won 3 of 15 in f32 and 11 in f64; at B = 64, H = 64 (1.0 M) 10 and 5;
# below that none. At paper shapes (medians of 11, two runs) training on
# two shards took 160-186 ms (f64) and 80-82 ms (f32), against 267-278 and
# 112-117 on one. At H = 150 the bound is 47 rows: per shard for
# inference, per batch for training.
SHARD_MULADDS = 1 << 22
# Multiply-adds at or below which OpenBLAS takes its small-matrix GEMM
# kernel, whose bits can differ from its large one's: rows of an (M, 16)
# x (16, 28) float64 product did at M = 2,232 against M = 40,000, and of
# an (M, 150) x (150, 600) float32 one at M = 11 against M = 12. At M = 1
# numpy calls GEMV, whose bits differ again. Within either kernel a row's
# bits depended neither on M nor on where the row sits at every M from 2
# to 700 or to the bound, 11 shapes from (8, 32) to (256, 12) and (150,
# 600), both dtypes, SkylakeX; but not at every shape. On SkylakeX in
# float64 they do at K = 776, N = 194 (dz_t U^T at H = 194), at N above
# 256, and at odd H, where the rows of h U and x W round by the product's
# M; on the Haswell kernel they do at odd M in float64 and at M off a
# multiple of 12 in float32. So inference gives the training bits, and
# shards the bits of one, only where the kernel rounds so: elsewhere a
# row's bits may depend on its batch, whose distinct tokens set the M of P
# and whose PAD prefixes set that of each step's recurrent product.
SMALL_GEMM_MULADDS = 10 ** 6


def _least_rows(total, per_row):
    """The fewest rows, of a product of `total` rows and `per_row`
    multiply-adds a row, that a product may cover and stay on the kernel
    the whole product runs: one row is a GEMV, a whole product of at most
    SMALL_GEMM_MULADDS multiply-adds takes the small kernel at 2 rows or
    more, and a larger one the large kernel above that bound."""
    if total * per_row <= SMALL_GEMM_MULADDS:
        return min(total, 2)
    return min(total, max(2, SMALL_GEMM_MULADDS // per_row + 1))


def _shards(batch, hidden):
    """How many row shards an inference call runs on: up to one per BLAS
    thread, each with a recurrent product of at least SHARD_MULADDS
    multiply-adds per step."""
    rows = -(-SHARD_MULADDS // (hidden * 4 * hidden))
    if batch < 2 * rows:
        return 1
    return min(blas.threads(), batch // rows)


def _train_cuts(batch, steps, d, hidden, stack=()):
    """(shards, blocks, spans) of a training LSTM call. It runs on up to
    one shard per BLAS thread when the whole batch's recurrent product
    does at least SHARD_MULADDS multiply-adds a step, and on one for a
    `stack`. Shard k runs the time loops on batch rows blocks[k], at
    least the rows that keep the recurrent product on the whole batch's
    kernel (`_least_rows`), and the T*B-row products x W and dz W^T, d *
    4H multiply-adds a row each, on steps spans[k], at least the steps
    that keep them on the whole product's kernel."""
    per_row = hidden * 4 * hidden
    if stack or batch * per_row < SHARD_MULADDS:
        return 1, [slice(0, batch)], [slice(0, steps)]
    least = _least_rows(batch, per_row)
    shards = min(blas.threads(), batch // least)
    least_steps = -(-_least_rows(steps * batch, d * 4 * hidden) // batch)
    return (shards, _cuts(batch, shards, least),
            _cuts(steps, shards, least_steps))


def _cuts(total, parts, least):
    """`parts` near-equal contiguous slices of range(total); when a part
    would hold fewer than `least`, the whole range and `parts` - 1 empty
    slices."""
    if parts == 1:
        return [slice(0, total)]
    if total // parts < least:
        return [slice(0, total)] + [slice(total, total)] * (parts - 1)
    bounds = [total * k // parts for k in range(parts + 1)]
    return [slice(a, z) for a, z in zip(bounds, bounds[1:])]


def _side_by_side(work, shards):
    """[work(0), ..., work(shards - 1)]: work(0) on the calling thread, the
    others at the same time on the threads of an executor that the call
    starts and joins, so no thread outlives it; one shard starts none.
    Returns, or raises the first error, only when every shard has
    returned."""
    if shards == 1:
        return [work(0)]
    # imported here: no unsharded call pays its 7 ms (with `logging`)
    from concurrent.futures import ThreadPoolExecutor
    # leaving joins every shard, also those that a raise leaves running
    with ThreadPoolExecutor(shards - 1) as pool:
        rest = [pool.submit(work, k) for k in range(1, shards)]
        return [work(0), *(shard.result() for shard in rest)]


def _lstm_rows(indices, table, w, u, b, least, span):
    """The h_T of the rows of `indices`, (n, T), on the calling thread:
    `lstm_infer` for those rows alone, in runs of `span` steps, each
    run's P padded to at least `least` rows.

    When some row starts with PAD, the rows are sorted stably by their
    count of leading PAD steps, and step t covers only the rows that have
    started, one more, and as many as keep the product on the kernel
    that all the rows would take (`_least_rows`). The rows after those
    are still in their PAD prefix and carry one shared trajectory: a row
    that a step takes in copies its c and h from the last row the step
    before held, and the rows that never start copy its h_T. c and h
    alternate between two slots; h_T is unsorted at the end.

    The step buffers share one `_aligned` allocation, each starting on a
    PARAM_ALIGN boundary; two of them hold `_gate_constants`' scale and
    offset at z's (n, 4H) shape, so that no step's ufunc broadcasts. The
    views of them that a step takes, for either parity of t, are made
    when the window of rows changes, and the views of the whole batch
    once; the gather takes `rows[:m]` only when the window leaves rows
    out."""
    vocab = table.value.shape[0]
    batch, steps = indices.shape
    hidden = u.value.shape[0]
    dtype = np.result_type(table.value, w.value, u.value, b.value)
    window = [batch] * steps
    order = None
    if batch > 1 and not indices[:, 0].all():  # a row starts with PAD
        real = indices != 0
        lead = np.where(real.any(axis=1), real.argmax(axis=1), steps)
        order = np.argsort(lead, kind="stable")
        indices = indices[order]
        started = np.searchsorted(lead[order], np.arange(steps), "right")
        fewest = _least_rows(batch, hidden * 4 * hidden)
        window = np.minimum(np.maximum(started + 1, fewest), batch).tolist()
    # the step buffers, each on a PARAM_ALIGN boundary of one allocation
    # of 22 slots of B * H rounded up to one: the two c and two h slots,
    # tanh(c) and i * g, then z, h U, scale and offset, four slots each
    size = batch * hidden
    per = PARAM_ALIGN // dtype.itemsize
    slots = _aligned((22, -(-size // per) * per), dtype)
    c0, c1, h0, h1, tanh_c, ig = slots[:6, :size].reshape(6, batch, hidden)
    z, hu, scale, offset = slots[6:].reshape(4, -1)[:, :4 * size].reshape(
        4, batch, 4 * hidden)
    scale[...], offset[...], _ = _gate_constants(hidden, dtype)
    i, f, g, o = (z[:, k * hidden:(k + 1) * hidden] for k in range(4))
    # the views a step takes: z, its [i, f, g, o] blocks, tanh(c), i * g,
    # h U, scale, offset, and (c_{t-1}, c_t, h_{t-1}, h_t) at even and at
    # odd t
    whole = (z, (i, f, g, o), tanh_c, ig, hu, scale, offset,
             ((c0, c1, h0, h1), (c1, c0, h1, h0)))

    def first(m):
        """`whole`'s views of the buffers' first m rows."""
        if m == batch:
            return whole
        c0m, c1m, h0m, h1m = c0[:m], c1[:m], h0[:m], h1[:m]
        return (z[:m], (i[:m], f[:m], g[:m], o[:m]), tanh_c[:m], ig[:m],
                hu[:m], scale[:m], offset[:m],
                ((c0m, c1m, h0m, h1m), (c1m, c0m, h1m, h0m)))

    # at step 0 every row holds the zero state: nothing to copy
    taken = window[0]
    zm, gates, tanh_m, ig_m, hu_m, scale_m, offset_m, parity = first(taken)
    recur = u.value
    idx = np.ascontiguousarray(indices.T)
    where = np.empty(vocab, np.intp)
    for start in range(0, steps, span):
        run = idx[start:start + span]
        seen = np.zeros(vocab, bool)
        seen[run] = True
        distinct = np.flatnonzero(seen)
        pick = np.zeros(max(distinct.size, least), np.intp)
        pick[:distinct.size] = distinct
        proj = np.empty((pick.size, 4 * hidden), dtype)
        np.matmul(table.value.take(pick, 0), w.value, out=proj)
        proj += b.value
        where[distinct] = np.arange(distinct.size)
        for t, rows in enumerate(where[run], start):
            m = window[t]
            if m > taken:
                for a in ((c0, h0), (c1, h1))[t % 2]:
                    a[taken:m] = a[taken - 1]
                taken = m
                (zm, gates, tanh_m, ig_m, hu_m, scale_m, offset_m,
                 parity) = first(m)
            c_prev, c_now, h_prev, h_now = parity[t % 2]
            # the method skips np.take's Python wrapper, ~1 us a step
            proj.take(rows if m == batch else rows[:m], 0, zm, "clip")
            np.matmul(h_prev, recur, out=hu_m)
            zm += hu_m
            _cell(zm, gates, c_prev, c_now, tanh_m, h_now, ig_m, scale_m,
                  offset_m)
        del proj  # before the next run makes its own
    h_t = (h0, h1)[steps % 2]
    if taken < batch:  # rows that never started
        h_t[taken:] = h_t[taken - 1]
    return h_t if order is None else h_t[np.argsort(order)]


def lstm_infer(indices, table, w, u, b):
    """Inference LSTM over an embedding lookup: the h_T of
    `lstm_forward(embedding_forward(indices, table), w, u, b)`, bit for
    bit, without the (B, T, d) lookup, the history or a cache.

    indices: (B, T) ints in [0, V), else IndexOutOfVocab; table: (V, d).
    The steps go in runs of `span` steps, the most whose B positions'
    rows of P fit PROJECT_BYTES, and at least one. Each run first
    projects its distinct tokens once, P = table[distinct] W + b; each of
    its steps then takes its gates with one `np.take` of P. So P holds
    at most PROJECT_BYTES (or one step's positions, when they take more),
    and is padded with index 0 to at least the rows that keep its
    product on the kernel of the training GEMM over all B*T positions
    (`_least_rows`). Rows in their PAD prefix share one trajectory, which
    each step's product runs once (see `_lstm_rows`).

    A batch large enough (see `_shards`) is split into row shards: shard
    k takes rows k, k + shards, ..., and is a whole `_lstm_rows` call of
    its own, with its own sort and buffers, on the call's span: the
    shards cut the runs one shard would, and a run's P on a shard of n
    rows holds at most span * n tokens, so the shards' P together stay
    within the bound. The calling thread runs shard 0 and threads of the
    call's own executor the others (`_side_by_side`), each product on the
    one BLAS thread that `blas` sets for the whole process. A shard's
    products stay on the whole batch's GEMM kernels, so on a kernel whose
    rows round alike wherever the rows are cut, as SkylakeX's do at the
    paper's widths, the bits do not depend on the shard count; at odd H
    in float64 they do (see SMALL_GEMM_MULADDS).
    """
    vocab, d = table.value.shape
    indices = _checked(indices, vocab)
    batch, steps = indices.shape
    hidden = u.value.shape[0]
    dtype = np.result_type(table.value, w.value, u.value, b.value)
    least = _least_rows(batch * steps, d * 4 * hidden)
    shards = _shards(batch, hidden)
    span = max(1, PROJECT_BYTES // (batch * 4 * hidden * dtype.itemsize))
    parts = _side_by_side(lambda k: _lstm_rows(
        indices[k::shards], table, w, u, b, least, span), shards)
    if shards == 1:
        return parts[0]
    h_t = np.empty((batch, hidden), dtype)
    for k, part in enumerate(parts):
        h_t[k::shards] = part
    return h_t


def _backward_steps(dz, c, grad_ht, u, rows):
    """The reversed time loop over batch rows `rows` (a slice) of the
    step-first gates (T, B, 4H), which hold the activated gates and are
    overwritten with dz, and c (T+1, B, H): the elementwise gate math and
    the recurrent product dh = dz_t U^T. The scratch is the rows' own,
    made once per call, with `_gate_constants`' shift copied to the
    slopes' (rows, 4, H) shape, so no step allocates or broadcasts a
    constant: each step's dc gains (dh * go) * (1 - tc * tc), and its
    slopes start as (1 - y) * (y + shift), in that order of operations."""
    dz, c = dz[:, rows], c[:, rows]
    batch, hidden = c.shape[1:]
    dtype = dz.dtype
    dh = np.array(grad_ht[rows], dtype=dtype)
    dc = np.zeros((batch, hidden), dtype=dtype)
    dc_next, tc, dtc, dho = np.empty((4, batch, hidden), dtype=dtype)
    slope, shift, zs = np.empty((3, batch, 4, hidden), dtype=dtype)
    shift[...] = _gate_constants(hidden, dtype)[2].reshape(4, hidden)
    si, sf, sg, so = (slope[:, k] for k in range(4))
    ut = u.value.T
    for t in range(dz.shape[0] - 1, -1, -1):
        z = dz[t].reshape(batch, 4, hidden)
        gi, gf, gg, go = (z[:, k] for k in range(4))
        np.tanh(c[t + 1], out=tc)
        np.multiply(tc, tc, out=dtc)
        np.subtract(1.0, dtc, out=dtc)
        np.multiply(dh, go, out=dho)
        dho *= dtc
        dc += dho
        np.subtract(1.0, z, out=slope)
        np.add(z, shift, out=zs)
        slope *= zs
        si *= gg
        sf *= c[t]
        sg *= gi
        so *= tc
        np.multiply(dc, gf, out=dc_next)
        # from here on z holds dz_t: the i, f, g slopes scale by dc, o by dh
        np.multiply(slope[:, :3], dc[:, None], out=z[:, :3])
        np.multiply(so, dh, out=go)
        np.matmul(dz[t], ut, out=dh)
        dc, dc_next = dc_next, dc


def lstm_backward(grad_ht, cache, w, u, b):
    """Full backpropagation through time; accumulates into the param grads
    and returns grad with respect to the input sequence, (B, T, d).

    The reversed time loop (`_backward_steps`) does the elementwise gate
    math and the one recurrent product dh = dz_t U^T. Each step
    overwrites gates[t], which it has just read, with dz_t, so after the
    loop `gates` holds dz for every step and the non-recurrent products
    run over all T*B rows at once: dW, dU, db and grad x in one product
    each. Each step recomputes tanh(c_{t+1}) into one (B, H) scratch with
    the forward's `np.tanh` call on the same c row, so it has the bits the
    forward used. The returned grad x is a transposed view of a
    time-major array. A cache it has spent raises StaleCache.

    A batch large enough (see `_train_cuts`) runs the time loop on the
    forward's row shards, side by side, and then splits the products:
    dW and dU by their output rows (d and H), each part over the whole
    dz, and grad x by the forward's spans of steps, since dz W^T does the
    d * 4H multiply-adds a row of x W. Each output element is then one
    dot product of the whole call's, summed in its order: a split by
    output columns changed dW's float64 bits, and per-shard partial sums
    would change the order. db stays one reduce.
    """
    if cache.spent:
        raise StaleCache("LSTM cache already used for a backward pass")
    cache.spent = True
    x, dz = cache.x, cache.gates
    batch, steps, d = x.shape
    hidden = u.value.shape[0]
    grad_x = np.empty((steps, batch, d), dtype=dz.dtype)
    dz_rows = dz.reshape(-1, 4 * hidden)
    x_rows = x.transpose(1, 0, 2).reshape(-1, d)
    h_rows = cache.h[:steps].reshape(-1, hidden)
    shards, blocks, spans = _train_cuts(batch, steps, d, hidden)
    per_row = steps * batch * 4 * hidden
    w_rows = _cuts(d, shards, _least_rows(d, per_row))
    u_rows = _cuts(hidden, shards, _least_rows(hidden, per_row))

    def products(k):
        w.grad[w_rows[k]] += x_rows[:, w_rows[k]].T @ dz_rows
        u.grad[u_rows[k]] += h_rows[:, u_rows[k]].T @ dz_rows
        np.matmul(dz[spans[k]].reshape(-1, 4 * hidden), w.value.T,
                  out=grad_x[spans[k]].reshape(-1, d))

    _side_by_side(lambda k: _backward_steps(dz, cache.c, grad_ht, u,
                                            blocks[k]), shards)
    _side_by_side(products, shards)
    b.grad += dz_rows.sum(axis=0)
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

def _scaled(kept, scale):
    """The scaled mask: `scale` on kept units and +0 on dropped ones, in
    scale's dtype; the bits of (uniform(0, 1) < keep).astype(dtype) /
    keep."""
    return np.multiply(kept, scale, dtype=scale.dtype)


def dropout_forward(x, p, rng):
    """Inverted dropout: kept units scaled by 1/(1-p). It trains exactly
    when given an rng; with `rng` None, or at p = 0, it is the identity.
    The cache is (kept, scale): the boolean keep-mask, one byte per unit,
    and 1/(1-p) in x's dtype, from which the backward rebuilds the scaled
    mask the forward applied; or None for the identity."""
    if not 0.0 <= p < 1.0:
        raise BadRate(f"dropout rate must be in [0, 1), got {p}")
    if rng is None or p == 0.0:
        return x, None
    keep = 1.0 - p
    kept = rng.keep_mask(keep, x.shape)
    # in x's dtype even when p is a numpy float64, whose quotient with a
    # float32 1.0 is float64: the bits the float mask has always had
    scale = x.dtype.type(x.dtype.type(1.0) / keep)
    return x * _scaled(kept, scale), (kept, scale)


def dropout_backward(grad_y, cache):
    if cache is None:
        return grad_y
    return grad_y * _scaled(*cache)


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
