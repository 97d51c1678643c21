"""Finite-difference verification of every layer and of the end-to-end
loss for each preset at miniature scale (V=50, d=8, H=8, maxlen=6,
batch=4). The layer checks run `model_zoo`'s own layer objects through
the protocol `Model` runs them by: forward, backward and `params`.

Every forward pass here trains, since it is given an rng. Dropout is
frozen across finite-difference evaluations one way: each check runs
its analytic forward once on a `MaskTape`, which records the masks its
Dropouts draw, and every evaluation replays that recording, which
refuses a request out of order or of a foreign shape. So the loss is a
deterministic function of the parameters.

The end-to-end check perturbs one layer's tensors at a time and reruns
only that layer and the ones after it, its suffix, from the saved output
of the layers before it on the rest of the recording. The penalty too is
done once per layer: each regularised tensor's terms, lam * sum, are kept
as floats; only the probed layer's are recomputed, and all are added in
`params` order, as `reg_penalty` adds them.
Every probe runs stacked, in the layer checks and the end-to-end check
alike: `finite_diff_grad` hands the loss a stack of probe points, and one
`_suffix_losses` pass evaluates them all through the model's own layer
objects and kernels. A stack of inputs goes in on a leading axis; a
stack of values of a tensor, on a copy of its layer whose `params` hold
the stack in that tensor's place, and the layers after it take the stack
of activations. Each lookup, product, LSTM step, batch-norm sum,
activation and per-probe loss and penalty of a stack has the bits of its
probe's own pass (the tests hold it to a one-probe-at-a-time oracle): the
floats a whole training forward computes, in the same order.
"""

from __future__ import annotations

import copy

import numpy as np

from . import model_zoo, textprep
from .layers import BatchNormRunning, ParamTensor
from .numerics import Prng, finite_diff_grad, max_relative_error, sigmoid
from .objective import bce, penalty_terms, reg_penalty

TOLERANCE = 1e-4

MINI = dict(vocab_tokens=48, embed_dim=8, lstm_units=8, maxlen=6, batch=4)


def _rand(rng, shape, scale=1.0):
    return rng.uniform(-scale, scale, shape)


def _check(name, analytic, numeric, results):
    results.append({"name": name,
                    "rel_error": float(max_relative_error(analytic, numeric))})


def _probe(layer, p, points):
    """A copy of `layer` whose params hold `points`, a stack of values of
    its tensor p, (n, *p.value.shape), in p's place: a vector's with a
    unit batch axis."""
    probe = copy.copy(layer)
    value = points[:, None] if points.ndim == 2 else points
    probe.params = [ParamTensor(p.name, value) if q is p else q
                    for q in probe.params]
    return probe


def _check_params(prefix, params, losses, results):
    """Each parameter p's grad against a central difference of
    `losses(p, points)`, the losses of a stack of points of p."""
    for p in params:
        numeric = finite_diff_grad(lambda points, p=p: losses(p, points),
                                   p.value)
        if p.name.startswith("embedding"):
            numeric[0] = 0.0  # the PAD row is frozen, not a free parameter
        _check(prefix + p.name, p.grad, numeric, results)


def _suffix_losses(layers, x, tape, head):
    """head(y), one loss per probe, for y the output of `layers` from x on
    a replay of `tape`: the probes stack on x, or in a `_probe` layers[0]."""
    replay = tape.replay()
    for layer in layers:
        x, _ = layer.forward(x, replay)
    return head(x)


def _check_layer(name, layer, x, coeff, rng_seed, results):
    """grad x, when backward returns one, and every parameter of `layer`
    on sum(coeff * y); each forward trains, on the masks the first drew
    from Prng(rng_seed). A stack of probes gives one sum per probe, each
    the bits of float(np.sum(coeff * y)) of its own y."""
    tape = MaskTape(Prng(rng_seed))
    _, cache = layer.forward(x, tape)
    grad_x = layer.backward(coeff, cache)

    def head(y):
        return np.add.reduce((coeff * y).reshape(len(y), -1), 1)

    if grad_x is not None:
        _check(f"{name}.x", grad_x, finite_diff_grad(
            lambda points: _suffix_losses([layer], points, tape, head), x),
            results)
    _check_params("", layer.params, lambda p, points: _suffix_losses(
        [_probe(layer, p, points)], x, tape, head), results)


def check_embedding(seed, results):
    rng = Prng(seed)
    table = _rand(rng, (7, 4))
    table[0] = 0.0  # the PAD row
    indices = np.array([[0, 3, 5], [2, 3, 0]])
    coeff = _rand(rng, (2, 3, 4))
    layer = model_zoo.Embedding(ParamTensor("embedding.E", table))
    _check_layer("embedding", layer, indices, coeff, seed, results)


def check_lstm(seed, results):
    rng = Prng(seed)
    batch, steps, d, hidden = 3, 4, 5, 4
    x = _rand(rng, (batch, steps, d))
    layer = model_zoo.Lstm(
        ParamTensor("lstm.W", _rand(rng, (d, 4 * hidden), 0.5)),
        ParamTensor("lstm.U", _rand(rng, (hidden, 4 * hidden), 0.5)),
        ParamTensor("lstm.b", _rand(rng, (1, 4 * hidden), 0.5)[0]))
    coeff = _rand(rng, (batch, hidden))
    _check_layer("lstm", layer, x, coeff, seed, results)


def check_dense(seed, results):
    rng = Prng(seed)
    batch, n_in, n_out = 4, 4, 3
    x = _rand(rng, (batch, n_in))
    layer = model_zoo.Dense(
        ParamTensor("dense.W", _rand(rng, (n_in, n_out))),
        ParamTensor("dense.b", _rand(rng, (1, n_out))[0]))
    coeff = _rand(rng, (batch, n_out))
    _check_layer("dense", layer, x, coeff, seed, results)


def check_dropout(seed, results):
    rng = Prng(seed)
    x = _rand(rng, (4, 6))
    coeff = _rand(rng, (4, 6))
    _check_layer("dropout", model_zoo.Dropout(0.3), x, coeff, seed + 1,
                 results)


def check_batchnorm(seed, results):
    rng = Prng(seed)
    batch, n = 4, 3
    x = _rand(rng, (batch, n))
    # the running stats each training forward updates do not reach y
    layer = model_zoo.BatchNorm(
        ParamTensor("batchnorm.gamma", _rand(rng, (1, n))[0] + 1.5),
        ParamTensor("batchnorm.beta", _rand(rng, (1, n))[0]),
        BatchNormRunning.fresh(n))
    coeff = _rand(rng, (batch, n))
    _check_layer("batchnorm", layer, x, coeff, seed, results)


def mini_model(preset, seed):
    vocab = textprep.Vocabulary([f"tok{i:02d}" for i in range(MINI["vocab_tokens"])])
    return model_zoo.build(preset, vocab, maxlen=MINI["maxlen"], seed=seed,
                           embed_dim=MINI["embed_dim"],
                           lstm_units=MINI["lstm_units"], dtype="float64")


def mini_batch(model, seed):
    """The end-to-end check's (indices, labels): `MINI["batch"]` rows of
    `MINI["maxlen"]` token ids from Prng(seed + 100), the first two of row
    0 PAD."""
    rng = Prng(seed + 100)
    batch = MINI["batch"]
    vocab_size = len(model.vocab)
    indices = np.array([[rng.randbelow(vocab_size) for _ in range(MINI["maxlen"])]
                        for _ in range(batch)])
    indices[0, :2] = 0  # exercise the PAD path
    labels = np.array([rng.randbelow(2) for _ in range(batch)], dtype=np.float64)
    return indices, labels


class ReplayMismatch(RuntimeError):
    pass


class MaskTape:
    """Stands in for a `Prng` in a training forward, whose layers draw
    nothing but dropout masks. Given `rng`, `keep_mask` draws from it and
    records (keep, mask); `replay()` gives a tape over that recording
    whose `keep_mask` returns the masks in order, and a replay's `rest()`
    one over the masks it has not yet returned. A replayed request must
    have the recorded keep and a shape that ends with the mask's, which it
    then broadcasts over: a stacked pass asks for (P, B, n) where one
    probe asked for (B, n). Anything else, or a request beyond the
    recording, raises ReplayMismatch."""

    def __init__(self, rng=None, masks=()):
        self.rng, self.masks, self._at = rng, list(masks), 0

    def replay(self):
        return MaskTape(masks=self.masks)

    def rest(self):
        return MaskTape(masks=self.masks[self._at:])

    def keep_mask(self, keep, shape):
        if self.rng is not None:
            mask = self.rng.keep_mask(keep, shape)
            self.masks.append((keep, mask))
            return mask
        if self._at == len(self.masks):
            raise ReplayMismatch(f"mask {self._at + 1} asked of a recording "
                                 f"of {len(self.masks)}")
        recorded, mask = self.masks[self._at]
        if keep != recorded or tuple(shape[-mask.ndim:]) != mask.shape:
            raise ReplayMismatch(
                f"mask {self._at + 1} asked as keep {keep}, shape "
                f"{tuple(shape)}; recorded keep {recorded}, shape "
                f"{mask.shape}")
        self._at += 1
        return mask


def replayed_losses(model, indices, labels, tape):
    """(layer, loss) for each layer of `model` that owns parameters, in
    layer order: `loss(p, points)` gives the training losses of
    `model.forward(indices)` on the masks `tape` recorded in such a
    forward, BCE plus penalty, at a stack of points of the layer's tensor
    p. The layers before it run once on a replay, when the pair is made,
    and each call runs it, on a copy holding the points, and the layers
    after it from their output on the rest of the recording."""
    x, replay = indices, tape.replay()
    for k, layer in enumerate(model.layers):
        if layer.params:
            yield layer, _end_to_end_loss(model, k, x, replay.rest(), labels)
        x, _ = layer.forward(x, replay)


def _end_to_end_loss(model, k, x, tape, labels):
    """`replayed_losses`' loss for layer k. Each call adds every
    regularised tensor's penalty terms in `model.params` order, p's for
    each point."""
    def loss(p, points):
        penalty = 0.0
        for q in model.params:
            for term in penalty_terms(q, points if q is p else None):
                penalty += term
        return _suffix_losses(
            [_probe(model.layers[k], p, points), *model.layers[k + 1:]], x,
            tape, lambda y: bce(sigmoid(y[..., 0]), np.broadcast_to(
                labels, y.shape[:-1])) + penalty)
    return loss


def check_end_to_end(preset, seed, results):
    model = mini_model(preset, seed)
    indices, labels = mini_batch(model, seed)
    tape = MaskTape(Prng(seed + 200))
    probs, caches = model.forward(indices, tape)
    model.zero_grads()
    model.backward(caches, probs, labels)
    reg_penalty(model.params)
    for layer, loss in replayed_losses(model, indices, labels, tape):
        _check_params(f"{preset}.", layer.params, loss, results)


def run_all(seed=0, presets=model_zoo.PRESETS):
    """Every layer check plus end-to-end checks for each preset; returns a
    list of {name, rel_error} entries."""
    results = []
    check_embedding(seed, results)
    check_lstm(seed, results)
    check_dense(seed, results)
    check_dropout(seed, results)
    check_batchnorm(seed, results)
    for preset in presets:
        check_end_to_end(preset, seed, results)
    for entry in results:
        entry["pass"] = bool(entry["rel_error"] < TOLERANCE)
    return results
