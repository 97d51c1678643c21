"""Finite-difference verification of every layer and of the end-to-end
loss for each preset at miniature scale (V=50, d=8, H=8, maxlen=6,
batch=4).

Dropout is frozen across finite-difference evaluations by giving every
evaluation a fresh `Prng` with the same seed: a mask is a pure function
of (seed, shape), so the loss is a deterministic function of the
parameters.
"""

from __future__ import annotations

import numpy as np

from . import model_zoo, textprep
from .layers import (BatchNormRunning, ParamTensor, batchnorm_backward,
                     batchnorm_forward, dense_backward, dense_forward,
                     dropout_backward, dropout_forward, embedding_backward,
                     embedding_forward, lstm_backward, lstm_forward)
from .numerics import Prng, finite_diff_grad, max_relative_error
from .objective import bce, reg_penalty

TOLERANCE = 1e-4

MINI = dict(vocab_tokens=48, embed_dim=8, lstm_units=8, maxlen=6, batch=4)


def _rand(rng, shape, scale=1.0):
    return rng.uniform(-scale, scale, shape)


def _check(name, analytic, numeric, results):
    results.append({"name": name,
                    "rel_error": float(max_relative_error(analytic, numeric))})


def check_embedding(seed, results):
    rng = Prng(seed)
    vocab_size, d = 7, 4
    emb = ParamTensor("embedding", _rand(rng, (vocab_size, d)))
    emb.value[0] = 0.0
    indices = np.array([[0, 3, 5], [2, 3, 0]])
    coeff = _rand(rng, (2, 3, d))

    def loss_fn(_values):
        return float(np.sum(coeff * embedding_forward(indices, emb)))

    out = embedding_forward(indices, emb)
    assert np.all(out[0, 0] == 0.0)  # PAD row lookup is zero
    embedding_backward(coeff, indices, emb)
    numeric = finite_diff_grad(loss_fn, emb.value)
    numeric[0] = 0.0  # PAD row is frozen, not a free parameter
    _check("embedding.E", emb.grad, numeric, results)


def check_lstm(seed, results):
    rng = Prng(seed)
    batch, steps, d, hidden = 3, 4, 5, 4
    x = _rand(rng, (batch, steps, d))
    w = ParamTensor("lstm.W", _rand(rng, (d, 4 * hidden), 0.5))
    u = ParamTensor("lstm.U", _rand(rng, (hidden, 4 * hidden), 0.5))
    b = ParamTensor("lstm.b", _rand(rng, (1, 4 * hidden), 0.5)[0])
    coeff = _rand(rng, (batch, hidden))

    def run(inp):
        h, _ = lstm_forward(inp, w, u, b)
        return float(np.sum(coeff * h))

    h, cache = lstm_forward(x, w, u, b)
    grad_x = lstm_backward(coeff, cache, w, u, b)
    _check("lstm.x", grad_x, finite_diff_grad(lambda v: run(v), x), results)
    _check("lstm.W", w.grad, finite_diff_grad(lambda _v: run(x), w.value),
           results)
    _check("lstm.U", u.grad, finite_diff_grad(lambda _v: run(x), u.value),
           results)
    _check("lstm.b", b.grad, finite_diff_grad(lambda _v: run(x), b.value),
           results)


def check_dense(seed, results):
    rng = Prng(seed)
    batch, n_in, n_out = 4, 4, 3
    x = _rand(rng, (batch, n_in))
    w = ParamTensor("dense.W", _rand(rng, (n_in, n_out)))
    b = ParamTensor("dense.b", _rand(rng, (1, n_out))[0])
    coeff = _rand(rng, (batch, n_out))

    def run(inp):
        y, _ = dense_forward(inp, w, b)
        return float(np.sum(coeff * y))

    y, cache = dense_forward(x, w, b)
    grad_x = dense_backward(coeff, cache, w, b)
    _check("dense.x", grad_x, finite_diff_grad(lambda v: run(v), x), results)
    _check("dense.W", w.grad, finite_diff_grad(lambda _v: run(x), w.value),
           results)
    _check("dense.b", b.grad, finite_diff_grad(lambda _v: run(x), b.value),
           results)


def check_dropout(seed, results):
    rng = Prng(seed)
    x = _rand(rng, (4, 6))
    coeff = _rand(rng, (4, 6))
    y, cache = dropout_forward(x, 0.3, "train", Prng(seed + 1))
    grad_x = dropout_backward(coeff, cache)

    def loss_fn(inp):
        yy, _ = dropout_forward(inp, 0.3, "train", Prng(seed + 1))
        return float(np.sum(coeff * yy))

    _check("dropout.x", grad_x, finite_diff_grad(loss_fn, x), results)


def check_batchnorm(seed, results):
    rng = Prng(seed)
    batch, n = 4, 3
    x = _rand(rng, (batch, n))
    gamma = ParamTensor("bn.gamma", _rand(rng, (1, n))[0] + 1.5)
    beta = ParamTensor("bn.beta", _rand(rng, (1, n))[0])
    coeff = _rand(rng, (batch, n))

    def run(inp):
        # fresh running stats each call: they do not affect train output
        y, _ = batchnorm_forward(inp, gamma, beta,
                                 BatchNormRunning.fresh(n), "train")
        return float(np.sum(coeff * y))

    y, cache = batchnorm_forward(x, gamma, beta, BatchNormRunning.fresh(n),
                                 "train")
    grad_x = batchnorm_backward(coeff, cache, gamma, beta)
    _check("batchnorm.x", grad_x, finite_diff_grad(lambda v: run(v), x),
           results)
    _check("batchnorm.gamma", gamma.grad,
           finite_diff_grad(lambda _v: run(x), gamma.value), results)
    _check("batchnorm.beta", beta.grad,
           finite_diff_grad(lambda _v: run(x), beta.value), results)


def mini_model(preset, seed):
    vocab = textprep.Vocabulary([f"tok{i:02d}" for i in range(MINI["vocab_tokens"])])
    return model_zoo.build(preset, vocab, maxlen=MINI["maxlen"], seed=seed,
                           embed_dim=MINI["embed_dim"],
                           lstm_units=MINI["lstm_units"], dtype="float64")


def check_end_to_end(preset, seed, results):
    model = mini_model(preset, seed)
    rng = Prng(seed + 100)
    batch = MINI["batch"]
    vocab_size = len(model.vocab)
    indices = np.array([[rng.randbelow(vocab_size) for _ in range(MINI["maxlen"])]
                        for _ in range(batch)])
    indices[0, :2] = 0  # exercise the PAD path
    labels = np.array([rng.randbelow(2) for _ in range(batch)], dtype=np.float64)

    probs, caches = model.forward(indices, mode="train", rng=Prng(seed + 200))

    def total_loss():
        rep_probs, _ = model.forward(indices, mode="train",
                                     rng=Prng(seed + 200))
        return bce(rep_probs, labels) + reg_penalty(model.params,
                                                    accumulate_grads=False)

    model.zero_grads()
    model.backward(caches, probs, labels)
    reg_penalty(model.params, accumulate_grads=True)

    for p in model.params:
        numeric = finite_diff_grad(lambda _v: total_loss(), p.value)
        if p.name == "embedding":
            numeric[0] = 0.0  # frozen PAD row
        _check(f"{preset}.{p.name}", p.grad, numeric, results)


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
