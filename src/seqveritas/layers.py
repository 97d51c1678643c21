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
The LSTM keeps its state in preallocated time-major buffers, indexed by
step first:

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
of x, h_0 .. h_{T-1} and the dz rows. At inference (no history) c and h
have two alternating slots, tanh_c one, and there is no cache; x and
gates then hold one run of steps at a time, projected by its own GEMM
when the time loop reaches it (see PROJECT_BYTES).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

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

def embedding_forward(indices, emb):
    """Row lookup: (B, T) int indices -> (B, T, d). The PAD row (index 0)
    is held at zero and receives no gradient. A stack of tables on leading
    axes, (P, V, d), as gradcheck's stacked probes hand one, gives a stack
    of lookups, (P, B, T, d): `np.take` along the row axis copies the
    bits of `value[indices]` either way."""
    indices = np.asarray(indices)
    vocab_size = emb.value.shape[-2]
    if indices.min() < 0 or indices.max() >= vocab_size:
        raise IndexOutOfVocab(
            f"index outside [0, {vocab_size}): {indices.min()}..{indices.max()}")
    return np.take(emb.value, indices, axis=-2)


def embedding_backward(grad_out, indices, emb):
    """grad of row k = sum of upstream grads wherever k occurred, added in
    token order (row-major over `indices`), as np.add.at(grad, indices,
    grad_out) adds them. That 2-D call does a batch of at most
    SCATTER_TOKENS tokens; a larger one goes SCATTER_TOKENS tokens at a
    time through the 1-D np.add.at, which is several times faster per
    token, on flat element indices row * E + col, taken in intp so that
    narrow index dtypes cannot wrap. Either way each element adds its
    terms in the same order, so the bits are the same."""
    indices = np.asarray(indices)
    if indices.size <= SCATTER_TOKENS:
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


# Bytes of x W + b per input GEMM at inference (no history): the time
# loop projects one run of steps at a time, so the (T, B, 4H) gates
# buffer is never built (at paper shapes, B = 256, float64: 16 GEMMs
# into 16 MB instead of one into 246 MB). OpenBLAS sends a GEMM of at
# most 1e6 multiply-adds to a small-matrix kernel whose bits can differ
# from its large one's: rows of an (M, 16) x (16, 28) float64 product
# did at M = 2,232 against M = 40,000, and matched from M = 2,233. So the
# runs are of near-equal length, each fills at least a third of these
# bytes, and that is more than 1e6 multiply-adds at d >= 2 (at d = 1
# there is no sum whose order could differ).
PROJECT_BYTES = 1 << 24


def lstm_forward(x, w, u, b, history=True):
    """Sequence-to-vector LSTM: returns the final hidden state h_T.

    x: (B, T, d); w: (d, 4H); u: (H, 4H); b: (4H,). Gate order [i,f,g,o].
    c_0 = h_0 = 0. The buffers are laid out as in the module docstring;
    the input GEMM reads a time-major copy of x (d wide, not 4H), and each
    step applies all four activations with one tanh. With
    `history=False` (inference) the cache is None, and the steps go in
    runs of near-equal length of at most PROJECT_BYTES of gates each: a
    run's slice of x is copied time-major and projected by one GEMM into
    a gates buffer of one run, which its steps then use. Each h_T bit is
    the same as with history, where one GEMM projects every step.

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
    # `runs` runs of steps of near-equal length, one input GEMM each: one
    # run with history, else runs of at most PROJECT_BYTES of gates (or of
    # one step, when a step alone takes more)
    step_bytes = max(1, batch * 4 * hidden * dtype.itemsize)
    runs = 1 if history else max(
        1, -(-steps // max(1, PROJECT_BYTES // step_bytes)))
    span = -(-steps // runs)
    gates = np.empty((*stack, span, batch, 4 * hidden), dtype=dtype)
    gates_tm = gates.swapaxes(0, -3)  # step axis first, a view
    x_tm = np.empty((span, batch, d), dtype=x.dtype)
    slots = steps + 1 if history else 2
    c = np.zeros((slots, *stack, batch, hidden), dtype=dtype)
    h = np.zeros((slots, *stack, batch, hidden), dtype=dtype)
    tanh_c = np.empty((slots - 1, *stack, batch, hidden), dtype=dtype)
    ig = np.empty((*stack, batch, hidden), dtype=dtype)
    scale, offset, _ = _gate_constants(hidden, dtype)
    uv = u.value
    for k in range(runs):
        start, stop = steps * k // runs, steps * (k + 1) // runs
        n = stop - start
        np.copyto(x_tm[:n], x[:, start:stop].transpose(1, 0, 2))
        rows = gates[..., :n, :, :].reshape(*stack, -1, 4 * hidden)
        np.matmul(x_tm[:n].reshape(-1, d), w.value, out=rows)
        rows += b.value
        for t in range(start, stop):
            prev, cur = t % slots, (t + 1) % slots
            z = gates_tm[t - start]
            z += h[prev] @ uv
            z *= scale
            np.tanh(z, out=z)
            z *= scale
            z += offset
            c_t, tc = c[cur], tanh_c[t % (slots - 1)]
            np.multiply(z[..., hidden:2 * hidden], c[prev], out=c_t)
            np.multiply(z[..., :hidden], z[..., 2 * hidden:3 * hidden],
                        out=ig)
            c_t += ig
            np.tanh(c_t, out=tc)
            np.multiply(z[..., 3 * hidden:], tc, out=h[cur])
    h_t = h[steps % slots]
    if not history:
        return h_t, None
    return h_t, LstmCache(x=x_tm.transpose(1, 0, 2), gates=gates, c=c, h=h,
                          tanh_c=tanh_c)


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
