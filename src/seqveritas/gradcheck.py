"""Finite-difference verification of every layer and of the end-to-end
loss for each preset at miniature scale (V=50, d=8, H=8, maxlen=6,
batch=4). The layer checks run `model_zoo`'s own layer objects through
the protocol `Model` runs them by: forward, backward and `params`.

Every forward pass here trains, since it is given an rng. Dropout is
frozen across finite-difference evaluations by giving every evaluation
the same generator state: a mask is a pure function of that state and
its shape, so the loss is a deterministic function of the parameters.
A layer check gives each evaluation a fresh `Prng` with the same seed.
The end-to-end check perturbs one layer's tensors at a time and reruns
only that layer and the ones after it: the layers before it run once,
and each evaluation starts from their saved output and from a copy of
the `Prng` as they left it. It thus computes the floats a whole forward
from a fresh `Prng` would, in the same order.
"""

from __future__ import annotations

import numpy as np

from . import model_zoo, textprep
from .layers import BatchNormRunning, ParamTensor
from .numerics import Prng, finite_diff_grad, max_relative_error, sigmoid
from .objective import bce, reg_penalty

TOLERANCE = 1e-4

MINI = dict(vocab_tokens=48, embed_dim=8, lstm_units=8, maxlen=6, batch=4)


def _rand(rng, shape, scale=1.0):
    return rng.uniform(-scale, scale, shape)


def _check(name, analytic, numeric, results):
    results.append({"name": name,
                    "rel_error": float(max_relative_error(analytic, numeric))})


def _check_params(prefix, params, loss, results):
    """Each parameter's grad against a central difference of `loss()`."""
    for p in params:
        numeric = finite_diff_grad(lambda _v: loss(), p.value)
        if p.name.startswith("embedding"):
            numeric[0] = 0.0  # the PAD row is frozen, not a free parameter
        _check(prefix + p.name, p.grad, numeric, results)


def _check_layer(name, layer, x, coeff, rng_seed, results):
    """grad x, when backward returns one, and every parameter of `layer`
    on sum(coeff * y); each forward trains, with a fresh Prng(rng_seed)."""
    def loss():
        y, _ = layer.forward(x, Prng(rng_seed))
        return float(np.sum(coeff * y))

    _, cache = layer.forward(x, Prng(rng_seed))
    grad_x = layer.backward(coeff, cache)
    if grad_x is not None:
        _check(f"{name}.x", grad_x, finite_diff_grad(lambda _v: loss(), x),
               results)
    _check_params("", layer.params, loss, results)


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


def replayed_losses(model, indices, labels, rng):
    """(layer, loss) for each layer of `model` that owns parameters, in
    layer order: loss() is the training loss of `model.forward(indices,
    rng)`, BCE plus penalty, as a function of the parameters of that
    layer and of those after it. The layers before it run once, when the
    pair is made; each loss() replays the rest from their output on a copy
    of the `Prng` as they left it."""
    x = indices
    for k, layer in enumerate(model.layers):
        if layer.params:
            yield layer, _suffix_loss(model, k, x, rng.copy(), labels)
        x, _ = layer.forward(x, rng)


def _suffix_loss(model, k, x, rng, labels):
    def loss():
        y, replay = x, rng.copy()
        for layer in model.layers[k:]:
            y, _ = layer.forward(y, replay)
        return bce(sigmoid(y[:, 0]), labels) + reg_penalty(
            model.params, accumulate_grads=False)
    return loss


def check_end_to_end(preset, seed, results):
    model = mini_model(preset, seed)
    indices, labels = mini_batch(model, seed)
    probs, caches = model.forward(indices, Prng(seed + 200))
    model.zero_grads()
    model.backward(caches, probs, labels)
    reg_penalty(model.params, accumulate_grads=True)
    for layer, loss in replayed_losses(model, indices, labels,
                                       Prng(seed + 200)):
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
