"""Layer forward/backward passes: Embedding, LSTM, Dense, Dropout, BatchNorm.

All layers are stateless transformers over (input, params, cache). Each
forward returns whatever its backward needs in an explicit cache object;
a cache is valid for exactly one forward/backward pair. Gradients
accumulate into ParamTensor.grad and are the trainer's job to zero.
Dense is a plain affine map; the ReLU and the output sigmoid are applied
by `model_zoo`.

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
of x, h_0 .. h_{T-1} and the dz rows. In eval mode (no history) c and h
have two alternating slots, tanh_c one, and there is no cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import ShapeMismatch, dtanh, matmul


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
    """A trainable array with its gradient and Adam moments.

    `regularizers` is a tuple of ("l1", lam) / ("l2", lam) terms; biases,
    embeddings, and batch-norm gamma/beta never carry any.
    """
    name: str
    value: np.ndarray
    regularizers: tuple = ()
    grad: np.ndarray = field(init=False)
    m: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)

    def __post_init__(self):
        # np.zeros gets pages the OS has already zeroed, where zeros_like
        # writes every byte; a model that only predicts never touches them
        shape, dtype = self.value.shape, self.value.dtype
        self.grad = np.zeros(shape, dtype)
        self.m = np.zeros(shape, dtype)
        self.v = np.zeros(shape, dtype)

    def zero_grad(self):
        self.grad.fill(0.0)


@dataclass
class _Cache:
    _spent: bool = field(default=False, init=False)

    def consume(self):
        if self._spent:
            raise StaleCache("cache already used for a backward pass")
        self._spent = True


# --- embedding -------------------------------------------------------------

def embedding_forward(indices, emb):
    """Row lookup: (B, T) int indices -> (B, T, d). The PAD row (index 0)
    is held at zero and receives no gradient."""
    indices = np.asarray(indices)
    vocab_size = emb.value.shape[0]
    if indices.min() < 0 or indices.max() >= vocab_size:
        raise IndexOutOfVocab(
            f"index outside [0, {vocab_size}): {indices.min()}..{indices.max()}")
    return emb.value[indices]


def embedding_backward(grad_out, indices, emb):
    """grad of row k = sum of upstream grads wherever k occurred."""
    np.add.at(emb.grad, np.asarray(indices), grad_out)
    emb.grad[0] = 0.0  # PAD row frozen


# --- LSTM ------------------------------------------------------------------

@dataclass
class LstmCache(_Cache):
    x: np.ndarray = None          # (B, T, d) view of a time-major copy
    gates: np.ndarray = None      # (T, B, 4H): activated [i, f, g, o] per step
    c: np.ndarray = None          # (T+1, B, H): c_0 .. c_T
    h: np.ndarray = None          # (T+1, B, H): h_0 .. h_T
    tanh_c: np.ndarray = None     # (T, B, H): tanh_c[t] = tanh(c_{t+1})


def _gate_constants(hidden, dtype):
    """Per-column vectors over the [i, f, g, o] blocks.

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
    return scale, offset, shift


def lstm_forward(x, w, u, b, history=True):
    """Sequence-to-vector LSTM: returns the final hidden state h_T.

    x: (B, T, d); w: (d, 4H); u: (H, 4H); b: (4H,). Gate order [i,f,g,o].
    c_0 = h_0 = 0. The buffers are laid out as in the module docstring;
    the input GEMM reads a time-major copy of x (d wide, not 4H), and each
    step applies all four activations with one tanh. With
    `history=False` (inference) the cache is None.
    """
    x = np.asarray(x)
    batch, steps, d = x.shape
    if w.value.shape[0] != d or w.value.shape[1] != u.value.shape[1]:
        raise ShapeMismatch(f"LSTM shapes: x {x.shape}, W {w.value.shape}, "
                            f"U {u.value.shape}")
    hidden = u.value.shape[0]
    dtype = np.result_type(x, w.value, u.value, b.value)
    gates = np.empty((steps, batch, 4 * hidden), dtype=dtype)
    x_tm = np.ascontiguousarray(x.transpose(1, 0, 2))
    np.matmul(x_tm.reshape(-1, d), w.value, out=gates.reshape(-1, 4 * hidden))
    if not history:
        x_tm = None  # only the backward pass reads it again
    gates += b.value
    slots = steps + 1 if history else 2
    c = np.zeros((slots, batch, hidden), dtype=dtype)
    h = np.zeros((slots, batch, hidden), dtype=dtype)
    tanh_c = np.empty((slots - 1, batch, hidden), dtype=dtype)
    ig = np.empty((batch, hidden), dtype=dtype)
    scale, offset, _ = _gate_constants(hidden, dtype)
    uv = u.value
    for t in range(steps):
        prev, cur = t % slots, (t + 1) % slots
        z = gates[t]
        z += h[prev] @ uv
        z *= scale
        np.tanh(z, out=z)
        z *= scale
        z += offset
        c_t, tc = c[cur], tanh_c[t % (slots - 1)]
        np.multiply(z[:, hidden:2 * hidden], c[prev], out=c_t)
        np.multiply(z[:, :hidden], z[:, 2 * hidden:3 * hidden], out=ig)
        c_t += ig
        np.tanh(c_t, out=tc)
        np.multiply(z[:, 3 * hidden:], tc, out=h[cur])
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
    time-major array.
    """
    cache.consume()
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

@dataclass
class DenseCache(_Cache):
    x: np.ndarray = None


def dense_forward(x, w, b):
    """Affine map x W + b; activations are separate layers."""
    return matmul(x, w.value) + b.value, DenseCache(x=x)


def dense_backward(grad_y, cache, w, b):
    """Returns grad_x; accumulates grad_W and grad_b."""
    cache.consume()
    w.grad += matmul(cache.x.T, grad_y)
    b.grad += grad_y.sum(axis=0)
    return matmul(grad_y, w.value.T)


# --- dropout ---------------------------------------------------------------

@dataclass
class DropoutCache(_Cache):
    scaled_mask: np.ndarray = None  # None means identity (eval or p=0)


def dropout_forward(x, p, mode, rng):
    """Inverted dropout: kept units scaled by 1/(1-p) at train time, so
    eval mode is an identity."""
    if not 0.0 <= p < 1.0:
        raise BadRate(f"dropout rate must be in [0, 1), got {p}")
    if mode == "eval" or p == 0.0:
        return x, DropoutCache(scaled_mask=None)
    keep = 1.0 - p
    draws = rng.uniform(0.0, 1.0, x.shape)
    mask = (draws < keep).astype(x.dtype) / keep
    return x * mask, DropoutCache(scaled_mask=mask)


def dropout_backward(grad_y, cache):
    cache.consume()
    if cache.scaled_mask is None:
        return grad_y
    return grad_y * cache.scaled_mask


# --- batch normalization ---------------------------------------------------

BN_EPS = 1e-5
BN_MOMENTUM = 0.9


@dataclass
class BatchNormRunning:
    """Running statistics, updated in train mode and used in eval mode."""
    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def fresh(cls, n, dtype=np.float64):
        return cls(mean=np.zeros(n, dtype=dtype), var=np.ones(n, dtype=dtype))


@dataclass
class BatchNormCache(_Cache):
    x_hat: np.ndarray = None
    inv_std: np.ndarray = None


def batchnorm_forward(x, gamma, beta, running, mode):
    """Train: standardize with biased batch statistics and fold an
    unbiased variance estimate into the running stats. Eval: use running
    stats only."""
    if mode == "train":
        batch = x.shape[0]
        if batch < 2:
            raise BatchTooSmall("batch-norm train mode needs batch >= 2")
        mean = x.mean(axis=0)
        var = x.var(axis=0)  # biased
        running.mean = BN_MOMENTUM * running.mean + (1.0 - BN_MOMENTUM) * mean
        running.var = (BN_MOMENTUM * running.var
                       + (1.0 - BN_MOMENTUM) * var * batch / (batch - 1))
    else:
        mean = running.mean
        var = running.var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    x_centered = x - mean
    x_hat = x_centered * inv_std
    y = gamma.value * x_hat + beta.value
    cache = BatchNormCache(x_hat=x_hat, inv_std=inv_std)
    return y, cache


def batchnorm_backward(grad_y, cache, gamma, beta):
    """Gradient through the train-mode batch statistics."""
    cache.consume()
    batch = grad_y.shape[0]
    gamma.grad += (grad_y * cache.x_hat).sum(axis=0)
    beta.grad += grad_y.sum(axis=0)
    dx_hat = grad_y * gamma.value
    grad_x = (cache.inv_std / batch) * (
        batch * dx_hat
        - dx_hat.sum(axis=0)
        - cache.x_hat * (dx_hat * cache.x_hat).sum(axis=0))
    return grad_x
