"""The three architecture presets, the assembled classifier, checkpoint
save/load, and single-text prediction.

All presets share the same skeleton: Embedding -> Dropout -> LSTM (final
hidden state only) -> Dropout -> hidden dense blocks -> Dense(1) ->
sigmoid. Only the final hidden state feeds the dense blocks; pre-padding
in textprep guarantees it reflects real tokens.

A model is a flat layer list built once from its config. Each hidden
block is Dense -> [BatchNorm] -> ReLU, and a Dropout, identity at rate 0,
sits between dense blocks. The output Dense gives a logit: `Model.forward`
applies the sigmoid, and `Model.backward` feeds the fused sigmoid+BCE
gradient straight into it. Forward and backward loop over the list;
`Model.params` follows its order, which is the checkpoint order.

A checkpoint (format version 3) is one JSON document: magic, version,
config, vocabulary, and each parameter tensor and batch-norm running
statistic as base64 of its little-endian bytes. The element type is
`config.dtype` (`<f8` for float64, `<f4` for float32); no tensor carries
its own. Any other version, a body that is not shaped like a v3 document,
and a payload that is not base64 or not prod(shape) elements long, are
refused.

Presets:
  baseline    Dropout 0.2, dense (64, 16) with L1 on kernels, lr 1e-3.
  regularized baseline + L2 on LSTM/dense kernels, all dropout 0.3,
              extra dropout between dense layers.
  optimized   regularized + batch norm before each ReLU, dense
              (128, 64, 16), lr 5e-4.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import textprep
from .layers import (BatchNormRunning, ParamTensor, batchnorm_backward,
                     batchnorm_forward, dense_backward, dense_forward,
                     dropout_backward, dropout_forward, embedding_backward,
                     embedding_forward, lstm_backward, lstm_forward)
from .numerics import Prng, drelu, init_glorot, relu, sigmoid
from .objective import bce_grad_fused

CHECKPOINT_MAGIC = "svchk"
CHECKPOINT_VERSION = 3

L1_LAMBDA = 1e-5
L2_LAMBDA = 1e-4

PRESETS = ("baseline", "regularized", "optimized")


# Stands in for each tensor payload while `Model.save` encodes the JSON
# skeleton. Its encoding, the 8 characters "\u0000" with the quotes, can
# only come from a string that is NUL alone or ends in a quote and NUL;
# vocabulary tokens are [a-z0-9] and config strings are names. Save checks
# that it found exactly one per tensor.
_SLOT = "\x00"
_SLOT_JSON = json.dumps(_SLOT).encode("ascii")


class VocabMissing(ValueError):
    pass


class BadMagic(ValueError):
    pass


class VersionMismatch(ValueError):
    pass


class ShapeMismatchOnLoad(ValueError):
    pass


@dataclass
class ModelConfig:
    preset: str
    vocab_size: int
    embed_dim: int = 100
    lstm_units: int = 150
    maxlen: int = textprep.DEFAULT_MAXLEN
    dense_widths: tuple = ()        # hidden layers; the output Dense(1) follows
    dense_regularizers: tuple = ()  # on every hidden kernel, not the output's
    batchnorm: bool = False         # BatchNorm between each hidden Dense and ReLU
    embed_dropout: float = 0.2
    lstm_dropout: float = 0.2
    dense_dropout: float = 0.0
    lstm_regularizers: tuple = ()
    lr: float = 1e-3
    seed: int = 0
    dtype: str = "float64"

    @classmethod
    def from_dict(cls, d):
        """Inverse of `asdict` after JSON, which stores tuples as lists.
        Every field must be present: a missing one would silently take its
        default and describe another model."""
        names = {f.name for f in fields(cls)}
        if d.keys() != names:
            raise TypeError(f"config lacks {sorted(names - d.keys())}, "
                            f"has unknown {sorted(d.keys() - names)}")
        d = dict(d)
        d["dense_widths"] = tuple(d["dense_widths"])
        for key in ("dense_regularizers", "lstm_regularizers"):
            d[key] = tuple((kind, lam) for kind, lam in d[key])
        return cls(**d)


def preset_config(preset, vocab_size, maxlen=textprep.DEFAULT_MAXLEN,
                  embed_dim=100, lstm_units=150, seed=0, dtype="float64"):
    """Expand a preset name into a full ModelConfig (pure function)."""
    common = dict(vocab_size=vocab_size, maxlen=maxlen, embed_dim=embed_dim,
                  lstm_units=lstm_units, seed=seed, dtype=dtype)
    regularized = dict(
        dense_regularizers=(("l1", L1_LAMBDA), ("l2", L2_LAMBDA)),
        embed_dropout=0.3, lstm_dropout=0.3, dense_dropout=0.3,
        lstm_regularizers=(("l2", L2_LAMBDA),))
    if preset == "baseline":
        return ModelConfig(preset=preset, dense_widths=(64, 16),
                           dense_regularizers=(("l1", L1_LAMBDA),), **common)
    if preset == "regularized":
        return ModelConfig(preset=preset, dense_widths=(64, 16),
                           **regularized, **common)
    if preset == "optimized":
        return ModelConfig(preset=preset, dense_widths=(128, 64, 16),
                           batchnorm=True, lr=5e-4, **regularized, **common)
    raise ValueError(f"unknown preset {preset!r}; valid: {', '.join(PRESETS)}")


# --- layers ------------------------------------------------------------------
# Each layer wraps one kernel: forward(x, mode, rng) -> (y, cache) and
# backward(grad, cache) -> grad. Kernels are called by the names imported
# above, looked up at call time, so a tracer can patch them in this module.

class Embedding:
    def __init__(self, table):
        self.params = [table]

    def forward(self, indices, mode, rng):
        return embedding_forward(indices, *self.params), np.asarray(indices)

    def backward(self, grad, indices):
        embedding_backward(grad, indices, *self.params)


class Dropout:
    params = ()

    def __init__(self, rate):
        self.rate = rate

    def forward(self, x, mode, rng):
        return dropout_forward(x, self.rate, mode, rng)

    def backward(self, grad, cache):
        return dropout_backward(grad, cache)


class Lstm:
    def __init__(self, w, u, b):
        self.params = [w, u, b]

    def forward(self, x, mode, rng):
        # keyword, so that wrappers that unpack (x, w, u, b) still see four
        return lstm_forward(x, *self.params, history=(mode == "train"))

    def backward(self, grad, cache):
        return lstm_backward(grad, cache, *self.params)


class Dense:
    def __init__(self, w, b):
        self.params = [w, b]

    def forward(self, x, mode, rng):
        return dense_forward(x, *self.params)

    def backward(self, grad, cache):
        return dense_backward(grad, cache, *self.params)


class BatchNorm:
    def __init__(self, gamma, beta, running):
        self.params = [gamma, beta]
        self.running = running

    def forward(self, x, mode, rng):
        return batchnorm_forward(x, *self.params, self.running, mode)

    def backward(self, grad, cache):
        return batchnorm_backward(grad, cache, *self.params)


class ReLU:
    params = ()

    def forward(self, x, mode, rng):
        return relu(x), x

    def backward(self, grad, x):
        return grad * drelu(x)


class Model:
    """An assembled classifier: a flat layer list, batch-norm running
    stats, and the vocabulary it was built against."""

    def __init__(self, config, vocab):
        if vocab is None:
            raise VocabMissing("a model needs a built vocabulary")
        self.config = config
        self.vocab = vocab
        self.dtype = np.float64 if config.dtype == "float64" else np.float32
        self._build_params()

    # parameter construction order is fixed; checkpoints and seeded
    # initialization both depend on it
    def _build_params(self):
        cfg = self.config
        rng = Prng(cfg.seed)
        dt = self.dtype

        emb = init_glorot((cfg.vocab_size, cfg.embed_dim), rng, dt)
        emb[0] = 0.0  # PAD row frozen at zero
        h = cfg.lstm_units
        bias = np.zeros(4 * h, dtype=dt)
        bias[h:2 * h] = 1.0  # forget-gate bias starts open
        self.layers = [
            Embedding(ParamTensor("embedding", emb)),
            Dropout(cfg.embed_dropout),
            Lstm(ParamTensor("lstm.W",
                             init_glorot((cfg.embed_dim, 4 * h), rng, dt),
                             regularizers=cfg.lstm_regularizers),
                 ParamTensor("lstm.U", init_glorot((h, 4 * h), rng, dt),
                             regularizers=cfg.lstm_regularizers),
                 ParamTensor("lstm.b", bias)),
            Dropout(cfg.lstm_dropout)]

        self.bn_running = {}
        fan_in = h
        for i, width in enumerate((*cfg.dense_widths, 1)):
            name, hidden = f"dense{i}", i < len(cfg.dense_widths)
            if i > 0:
                self.layers.append(Dropout(cfg.dense_dropout))
            self.layers.append(Dense(
                ParamTensor(f"{name}.W", init_glorot((fan_in, width), rng, dt),
                            regularizers=(cfg.dense_regularizers if hidden
                                          else ())),
                ParamTensor(f"{name}.b", np.zeros(width, dtype=dt))))
            if hidden:
                if cfg.batchnorm:
                    running = BatchNormRunning.fresh(width, dtype=dt)
                    self.bn_running[name] = running
                    self.layers.append(BatchNorm(
                        ParamTensor(f"{name}.bn.gamma",
                                    np.ones(width, dtype=dt)),
                        ParamTensor(f"{name}.bn.beta",
                                    np.zeros(width, dtype=dt)),
                        running))
                self.layers.append(ReLU())
            fan_in = width
        self.params = [p for layer in self.layers for p in layer.params]

    def num_params(self):
        return sum(p.value.size for p in self.params)

    def zero_grads(self):
        for p in self.params:
            p.zero_grad()

    def forward(self, indices, mode="eval", rng=None):
        """indices: (B, maxlen) -> (probabilities (B,), per-layer caches):
        the sigmoid of the output Dense's logit. Train mode needs an rng
        for the dropout masks."""
        x, caches = indices, []
        for layer in self.layers:
            x, cache = layer.forward(x, mode, rng)
            caches.append(cache)
        return sigmoid(x[:, 0]), caches

    def backward(self, caches, probs, labels):
        """Backprop from the fused sigmoid+BCE gradient, d(loss)/d(logit),
        through the whole stack; accumulates into param grads. The loss
        gradient is cast to the model dtype so a float32 model
        backpropagates in float32."""
        grad = bce_grad_fused(probs, labels).astype(probs.dtype)[:, None]
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            grad = layer.backward(grad, cache)

    def predict_proba(self, indices):
        probs, _ = self.forward(np.atleast_2d(indices), mode="eval")
        return probs

    def predict(self, raw_text):
        """Full pipeline on raw text with the stored vocabulary; returns
        (probability, label) with label = 1 (fake) iff p >= 0.5."""
        tokens = textprep.preprocess("", raw_text)
        seq = textprep.encode(tokens, self.vocab, self.config.maxlen)
        p = float(self.predict_proba(np.array([seq]))[0])
        return p, int(p >= 0.5)

    # --- checkpointing ------------------------------------------------

    def state_snapshot(self):
        """Deep copy of everything training mutates (for early stopping)."""
        return {
            "params": [p.value.copy() for p in self.params],
            "running": {k: (r.mean.copy(), r.var.copy())
                        for k, r in self.bn_running.items()},
        }

    def restore_snapshot(self, snap):
        for p, saved in zip(self.params, snap["params"]):
            p.value[...] = saved
        for k, (mean, var) in snap["running"].items():
            self.bn_running[k].mean[...] = mean
            self.bn_running[k].var[...] = var

    def save(self, path):
        """Write the checkpoint document. The JSON skeleton is encoded
        once with a placeholder in every tensor slot; each tensor's base64
        is then written between its pieces as bytes, so the document is
        never held whole. The file is byte-identical to
        `json.dumps(doc)` with the payloads in place."""
        wire = np.dtype(self.dtype).newbyteorder("<")
        tensors = [p.value for p in self.params]
        for r in self.bn_running.values():
            tensors += [r.mean, r.var]
        doc = {
            "magic": CHECKPOINT_MAGIC,
            "version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "vocab": {"tokens": self.vocab.tokens,
                      "max_size": self.vocab.max_size,
                      "min_freq": self.vocab.min_freq},
            "params": [{"name": p.name, "shape": list(p.value.shape),
                        "data": _SLOT}
                       for p in self.params],
            "running": {k: {"mean": _SLOT, "var": _SLOT}
                        for k in self.bn_running},
        }
        # one-shot dumps runs the C encoder; json.dump would not
        pieces = json.dumps(doc).encode("ascii").split(_SLOT_JSON)
        if len(pieces) != len(tensors) + 1:
            raise ValueError(f"{path}: a config or vocabulary string contains "
                             "the checkpoint tensor placeholder")
        with open(path, "wb") as f:
            f.write(pieces[0])
            for array, piece in zip(tensors, pieces[1:]):
                f.write(b'"')
                f.write(base64.b64encode(
                    array.astype(wire, copy=False).tobytes()))
                f.write(b'"')
                f.write(piece)


def build(preset, vocab, maxlen=textprep.DEFAULT_MAXLEN, seed=0,
          embed_dim=100, lstm_units=150, dtype="float64"):
    """Expand a preset and initialize a model against a built vocabulary."""
    if vocab is None:
        raise VocabMissing("build requires a vocabulary")
    cfg = preset_config(preset, vocab_size=len(vocab), maxlen=maxlen,
                        embed_dim=embed_dim, lstm_units=lstm_units,
                        seed=seed, dtype=dtype)
    return Model(cfg, vocab)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise BadMagic(f"{path}: not a checkpoint file ({e})") from None
    if not isinstance(doc, dict) or doc.get("magic") != CHECKPOINT_MAGIC:
        raise BadMagic(f"{path}: missing checkpoint magic")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise VersionMismatch(
            f"{path}: version {doc.get('version')}, expected {CHECKPOINT_VERSION}")
    try:
        return _restore(path, doc)
    except (AttributeError, LookupError, TypeError) as e:
        # a missing, extra or mistyped entry
        raise BadMagic(f"{path}: malformed checkpoint "
                       f"({type(e).__name__}: {e})") from None


def _restore(path, doc):
    """The model a version-checked checkpoint document describes."""
    config = ModelConfig.from_dict(doc["config"])
    vocab = textprep.Vocabulary(doc["vocab"]["tokens"],
                                max_size=doc["vocab"]["max_size"],
                                min_freq=doc["vocab"]["min_freq"])
    model = Model(config, vocab)
    wire = np.dtype(model.dtype).newbyteorder("<")
    saved = {p["name"]: p for p in doc["params"]}
    unknown = saved.keys() - {p.name for p in model.params}
    if unknown:
        raise ShapeMismatchOnLoad(f"{path}: tensors {sorted(unknown)} are "
                                  "not in the model its config describes")
    for p in model.params:
        if p.name not in saved:
            raise ShapeMismatchOnLoad(f"{path}: missing tensor {p.name}")
        entry = saved[p.name]
        if tuple(entry["shape"]) != p.value.shape:
            raise ShapeMismatchOnLoad(
                f"{path}: {p.name} has shape {entry['shape']}, "
                f"expected {list(p.value.shape)}")
        p.value[...] = _decode(path, p.name, entry["data"], p.value, wire)
    for k, r in model.bn_running.items():
        if k not in doc["running"]:
            raise ShapeMismatchOnLoad(f"{path}: missing running stats for {k}")
        for stat in ("mean", "var"):
            target = getattr(r, stat)
            target[...] = _decode(path, f"{k}.{stat}",
                                  doc["running"][k][stat], target, wire)
    return model


def _decode(path, name, text, target, wire):
    """The values of one base64 tensor payload, shaped like `target`."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as e:  # binascii.Error is a ValueError
        raise BadMagic(f"{path}: {name} data is not base64 ({e})") from None
    if len(raw) != target.size * wire.itemsize:
        raise ShapeMismatchOnLoad(
            f"{path}: {name} has {len(raw)} bytes, expected "
            f"{target.size} x {wire.itemsize}")
    return np.frombuffer(raw, dtype=wire).reshape(target.shape)
