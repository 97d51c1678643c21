"""Adam updates, gradient clipping, early stopping, the epoch loop, and
batched prediction.

Adam is the dense update: every element decays and moves. Adam,
clipping and `Model.zero_grads` work once per arena (see
`layers.Arena`), over its flat arrays, and the bits are those of the
same expressions per tensor.

The epoch loop owns the model exclusively and is fully deterministic in
(data, config, seed). A large enough LSTM batch runs on row shards, on
threads that each call starts and joins (`layers._lstm_cuts`); where the
BLAS kernel rounds a row alike wherever the rows are cut, as README says
of the widths measured, the bits do not depend on the shard count.

Every setting but the learning rate, which each preset fixes, is a module
constant: Adam's BETA1, BETA2 and ADAM_EPS (the defaults of Kingma & Ba,
ICLR 2015), the clipping bound MAX_NORM, early stopping's MIN_DELTA, and
PREDICT_BATCH.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .layers import arenas_of
from .numerics import Prng
from .objective import bce, evaluate, reg_penalty


# Adam's moment decay rates and denominator guard.
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
# The global gradient-norm bound of `clip_gradients`, and the least drop
# in validation loss that early stopping counts as an improvement.
MAX_NORM = 5.0
MIN_DELTA = 1e-4
# Examples per forward pass in `predict_in_batches`.
PREDICT_BATCH = 256


class NonFiniteGradient(FloatingPointError):
    pass


class EmptyDataset(ValueError):
    pass


@dataclass
class AdamState:
    lr: float = 1e-3
    t: int = 0  # shared step counter, incremented once per optimizer step


def adam_step(params, state):
    """One Adam update over every tensor, with bias correction.

    This is the dense update of Kingma & Ba, not lazy Adam: every row
    decays, and every value moves by its momentum. It runs once per arena
    of `params` (which must hold whole arenas), over the arena's
    `blocks`, so that each block's arrays and temporaries stay in cache;
    being elementwise, it gives each element the bits it would get per
    tensor. `clip_gradients`, which runs first, refuses a non-finite
    gradient.
    """
    arenas = arenas_of(params)
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    # In place, in the order of
    #   m = BETA1 * m + (1 - BETA1) * g
    #   v = BETA2 * v + (1 - BETA2) * g * g
    #   value = value - lr * (m / bc1) / (sqrt(v / bc2) + ADAM_EPS)
    # so the bits are those of that expression.
    for a in arenas:
        for value, grad, m, v in a.blocks:
            step = np.multiply(grad, 1.0 - BETA1)
            m *= BETA1
            m += step
            np.multiply(grad, 1.0 - BETA2, out=step)
            step *= grad
            v *= BETA2
            v += step
            denom = np.divide(v, bc2)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            np.divide(m, bc1, out=step)
            step *= state.lr
            step /= denom
            value -= step


@np.errstate(over="ignore")
def clip_gradients(params):
    """Scale all grads by MAX_NORM/norm when the global L2 norm exceeds
    MAX_NORM; returns the pre-clip norm. Each arena of `params` (which
    must hold whole arenas) squares its grad once, into float64; each
    tensor's slice of the squares is then summed on its own, in `params`
    order, so each pairwise sum keeps the bits of a per-tensor np.sum
    (np.add.reduce is np.sum without its Python wrapper, which costs more
    than the sum itself on small tensors; np.add.reduceat would sum in
    another order). The scaling runs once per arena.

    When the running sum of squares becomes non-finite, from a NaN or
    infinite gradient or from a finite one so large that its square
    overflows, NonFiniteGradient names the tensor that made it so, and
    nothing is scaled. numpy's overflow warning is off: the error is the
    one report of it."""
    arenas = arenas_of(params)
    squares = {a: np.square(a.grad, dtype=np.float64) for a in arenas}
    total = 0.0
    for p in params:
        total += float(np.add.reduce(squares[p.arena][p.span]))
        if not math.isfinite(total):
            raise NonFiniteGradient(f"non-finite gradient norm in {p.name}")
    norm = float(np.sqrt(total))
    if norm > MAX_NORM:
        scale = MAX_NORM / norm
        for a in arenas:
            a.grad *= scale
    return norm


class EarlyStopper:
    """Stops when validation loss has not improved by MIN_DELTA for more
    than `patience` epochs; remembers the best snapshot."""

    def __init__(self, patience):
        self.patience = patience
        self.best_loss = float("inf")
        self.best_snapshot = None
        self.best_epoch = None
        self.epochs_since_best = 0

    def update(self, val_loss, snapshot_fn, epoch):
        """Feed one epoch's validation loss; returns True when training
        should stop."""
        if val_loss < self.best_loss - MIN_DELTA:
            self.best_loss = val_loss
            self.best_snapshot = snapshot_fn()
            self.best_epoch = epoch
            self.epochs_since_best = 0
        else:
            self.epochs_since_best += 1
        return self.epochs_since_best > self.patience


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 64
    seed: int = 0
    patience: int = 2


@dataclass
class TrainingHistory:
    epochs: list = field(default_factory=list)  # one dict per epoch run


def _batch_slices(n, batch_size, merge_trailing_singleton):
    """Start/stop pairs covering [0, n); the last incomplete batch is kept.
    A trailing batch of exactly 1 is merged into the previous batch when
    batch-norm is in play (a training forward of it needs batch >= 2)."""
    slices = [(s, min(s + batch_size, n)) for s in range(0, n, batch_size)]
    if (merge_trailing_singleton and len(slices) > 1
            and slices[-1][1] - slices[-1][0] == 1):
        last = slices.pop()
        prev = slices.pop()
        slices.append((prev[0], last[1]))
    return slices


def predict_in_batches(model, x):
    out = np.empty(x.shape[0], dtype=np.float64)
    for start in range(0, x.shape[0], PREDICT_BATCH):
        probs, _ = model.forward(x[start:start + PREDICT_BATCH])
        out[start:start + PREDICT_BATCH] = probs
    return out


def fit(model, train_x, train_y, val_x, val_y, config):
    """Train with minibatch Adam, gradient clipping, and early stopping on
    validation loss; restores the best weights before returning."""
    n = train_x.shape[0]
    if n == 0 or val_x.shape[0] == 0:
        raise EmptyDataset("train and validation sets must be non-empty")
    state = AdamState(lr=model.preset.lr)
    rng = Prng(config.seed)
    stopper = EarlyStopper(patience=config.patience)
    history = TrainingHistory()
    has_bn = bool(model.bn_running)

    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start, stop in _batch_slices(n, config.batch_size, has_bn):
            idx = perm[start:stop]
            xb, yb = train_x[idx], train_y[idx]
            model.zero_grads()
            probs, caches = model.forward(xb, rng)
            data_loss = bce(probs, yb)
            model.backward(caches, probs, yb)
            penalty = reg_penalty(model.params)
            clip_gradients(model.params)
            adam_step(model.params, state)
            epoch_loss += (data_loss + penalty) * len(idx)
        train_loss = epoch_loss / n

        val_probs = predict_in_batches(model, val_x)
        val_loss = bce(val_probs, val_y)
        _, report = evaluate(val_probs, val_y, loss=val_loss)
        history.epochs.append({"epoch": epoch, "train_loss": train_loss,
                               "val_loss": val_loss,
                               "val_accuracy": report.accuracy})
        if stopper.update(val_loss, model.state_snapshot, epoch):
            break

    if stopper.best_snapshot is not None:
        model.restore_snapshot(stopper.best_snapshot)
    return history

