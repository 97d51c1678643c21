"""The three architecture presets, the assembled classifier, checkpoint
save/load, and single-text prediction.

All presets share the same skeleton: Embedding -> Dropout -> LSTM (final
hidden state only) -> Dropout -> dense stack -> Dense(1, sigmoid). Only
the final hidden state feeds the dense stack; pre-padding in textprep
guarantees it reflects real tokens.

Presets:
  baseline    Dropout 0.2, dense (64, 16) with L1 on kernels, lr 1e-3.
  regularized baseline + L2 on LSTM/dense kernels, all dropout 0.3,
              extra dropout between dense layers.
  optimized   regularized + batch norm before each ReLU, dense
              (128, 64, 16), lr 5e-4.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import textprep
from .layers import (BatchNormRunning, ParamTensor, batchnorm_backward,
                     batchnorm_forward, dense_backward, dense_forward,
                     dropout_backward, dropout_forward, embedding_backward,
                     embedding_forward, lstm_backward, lstm_forward)
from .numerics import Prng, init_glorot
from .objective import bce_grad_fused

CHECKPOINT_MAGIC = "svchk"
CHECKPOINT_VERSION = 1

L1_LAMBDA = 1e-5
L2_LAMBDA = 1e-4

PRESETS = ("baseline", "regularized", "optimized")


class VocabMissing(ValueError):
    pass


class BadMagic(ValueError):
    pass


class VersionMismatch(ValueError):
    pass


class ShapeMismatchOnLoad(ValueError):
    pass


@dataclass
class DenseSpec:
    width: int
    activation: str
    regularizers: tuple = ()
    batchnorm: bool = False


@dataclass
class ModelConfig:
    preset: str
    vocab_size: int
    embed_dim: int = 100
    lstm_units: int = 150
    maxlen: int = textprep.DEFAULT_MAXLEN
    dense_stack: list = field(default_factory=list)
    embed_dropout: float = 0.2
    lstm_dropout: float = 0.2
    dense_dropout: float = 0.0
    lstm_regularizers: tuple = ()
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    dtype: str = "float64"

    def to_dict(self):
        d = asdict(self)
        d["dense_stack"] = [[s.width, s.activation,
                             [list(r) for r in s.regularizers], s.batchnorm]
                            for s in self.dense_stack]
        d["lstm_regularizers"] = [list(r) for r in self.lstm_regularizers]
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["dense_stack"] = [
            DenseSpec(width=w, activation=a,
                      regularizers=tuple((k, lam) for k, lam in regs),
                      batchnorm=bn)
            for w, a, regs, bn in d["dense_stack"]]
        d["lstm_regularizers"] = tuple((k, lam)
                                       for k, lam in d["lstm_regularizers"])
        return cls(**d)


def preset_config(preset, vocab_size, maxlen=textprep.DEFAULT_MAXLEN,
                  embed_dim=100, lstm_units=150, seed=0, dtype="float64"):
    """Expand a preset name into a full ModelConfig (pure function)."""
    l1 = (("l1", L1_LAMBDA),)
    l1l2 = (("l1", L1_LAMBDA), ("l2", L2_LAMBDA))
    common = dict(vocab_size=vocab_size, maxlen=maxlen, embed_dim=embed_dim,
                  lstm_units=lstm_units, seed=seed, dtype=dtype)
    if preset == "baseline":
        return ModelConfig(
            preset=preset,
            dense_stack=[DenseSpec(64, "relu", l1),
                         DenseSpec(16, "relu", l1),
                         DenseSpec(1, "sigmoid")],
            **common)
    if preset == "regularized":
        return ModelConfig(
            preset=preset,
            dense_stack=[DenseSpec(64, "relu", l1l2),
                         DenseSpec(16, "relu", l1l2),
                         DenseSpec(1, "sigmoid")],
            embed_dropout=0.3, lstm_dropout=0.3, dense_dropout=0.3,
            lstm_regularizers=(("l2", L2_LAMBDA),),
            **common)
    if preset == "optimized":
        return ModelConfig(
            preset=preset,
            dense_stack=[DenseSpec(128, "relu", l1l2, batchnorm=True),
                         DenseSpec(64, "relu", l1l2, batchnorm=True),
                         DenseSpec(16, "relu", l1l2, batchnorm=True),
                         DenseSpec(1, "sigmoid")],
            embed_dropout=0.3, lstm_dropout=0.3, dense_dropout=0.3,
            lstm_regularizers=(("l2", L2_LAMBDA),),
            lr=5e-4,
            **common)
    raise ValueError(f"unknown preset {preset!r}; valid: {', '.join(PRESETS)}")


@dataclass
class _ForwardCaches:
    embed_indices: np.ndarray = None
    embed_dropout: object = None
    lstm: object = None
    lstm_dropout: object = None
    dense: list = field(default_factory=list)  # per layer: dict of caches


class Model:
    """An assembled classifier: parameters, batch-norm running stats, and
    the vocabulary it was built against."""

    def __init__(self, config, vocab):
        if vocab is None:
            raise VocabMissing("a model needs a built vocabulary")
        self.config = config
        self.vocab = vocab
        self.dtype = np.float64 if config.dtype == "float64" else np.float32
        self.params = []
        self.bn_running = {}
        self._build_params()

    # parameter construction order is fixed; checkpoints and seeded
    # initialization both depend on it
    def _build_params(self):
        cfg = self.config
        rng = Prng(cfg.seed)
        dt = self.dtype

        emb = init_glorot((cfg.vocab_size, cfg.embed_dim), rng, dt)
        emb[0] = 0.0  # PAD row frozen at zero
        self.emb = ParamTensor("embedding", emb)
        self.params.append(self.emb)

        h = cfg.lstm_units
        self.lstm_w = ParamTensor(
            "lstm.W", init_glorot((cfg.embed_dim, 4 * h), rng, dt),
            regularizers=cfg.lstm_regularizers)
        self.lstm_u = ParamTensor(
            "lstm.U", init_glorot((h, 4 * h), rng, dt),
            regularizers=cfg.lstm_regularizers)
        bias = np.zeros(4 * h, dtype=dt)
        bias[h:2 * h] = 1.0  # forget-gate bias starts open
        self.lstm_b = ParamTensor("lstm.b", bias)
        self.params += [self.lstm_w, self.lstm_u, self.lstm_b]

        self.dense = []
        fan_in = h
        for i, spec in enumerate(cfg.dense_stack):
            w = ParamTensor(f"dense{i}.W",
                            init_glorot((fan_in, spec.width), rng, dt),
                            regularizers=spec.regularizers)
            b = ParamTensor(f"dense{i}.b", np.zeros(spec.width, dtype=dt))
            layer = {"spec": spec, "w": w, "b": b}
            self.params += [w, b]
            if spec.batchnorm:
                gamma = ParamTensor(f"dense{i}.bn.gamma",
                                    np.ones(spec.width, dtype=dt))
                beta = ParamTensor(f"dense{i}.bn.beta",
                                   np.zeros(spec.width, dtype=dt))
                layer["gamma"], layer["beta"] = gamma, beta
                self.params += [gamma, beta]
                self.bn_running[f"dense{i}"] = BatchNormRunning.fresh(
                    spec.width, dtype=dt)
            self.dense.append(layer)
            fan_in = spec.width

    def num_params(self):
        return sum(p.value.size for p in self.params)

    def zero_grads(self):
        for p in self.params:
            p.zero_grad()

    def forward(self, indices, mode="eval", rng=None):
        """indices: (B, maxlen) -> probabilities (B,). Train mode needs an
        rng for the dropout masks."""
        cfg = self.config
        caches = _ForwardCaches(embed_indices=np.asarray(indices))
        x = embedding_forward(indices, self.emb)
        x, caches.embed_dropout = dropout_forward(x, cfg.embed_dropout,
                                                  mode, rng)
        h, caches.lstm = lstm_forward(x, self.lstm_w, self.lstm_u, self.lstm_b)
        h, caches.lstm_dropout = dropout_forward(h, cfg.lstm_dropout,
                                                 mode, rng)
        n_hidden = len(self.dense) - 1
        for i, layer in enumerate(self.dense):
            spec = layer["spec"]
            lc = {}
            if spec.batchnorm:
                z, lc["dense"] = dense_forward(h, layer["w"], layer["b"],
                                               "linear")
                z, lc["bn"] = batchnorm_forward(
                    z, layer["gamma"], layer["beta"],
                    self.bn_running[f"dense{i}"], mode)
                lc["preact"] = z
                h = np.maximum(z, 0.0) if spec.activation == "relu" else z
            else:
                h, lc["dense"] = dense_forward(h, layer["w"], layer["b"],
                                               spec.activation)
            if i < n_hidden:
                h, lc["dropout"] = dropout_forward(h, cfg.dense_dropout,
                                                   mode, rng)
            caches.dense.append(lc)
        probs = h[:, 0]
        return probs, caches

    def backward(self, caches, probs, labels):
        """Backprop from the fused sigmoid+BCE output gradient through the
        whole stack; accumulates into param grads. The loss gradient is
        cast to the model dtype so a float32 model backpropagates in
        float32."""
        grad = bce_grad_fused(probs, labels).astype(probs.dtype)[:, None]
        n_hidden = len(self.dense) - 1
        for i in range(len(self.dense) - 1, -1, -1):
            layer = self.dense[i]
            spec = layer["spec"]
            lc = caches.dense[i]
            if i < n_hidden:
                grad = dropout_backward(grad, lc["dropout"])
            if spec.batchnorm:
                if spec.activation == "relu":
                    grad = grad * (lc["preact"] > 0)
                grad = batchnorm_backward(grad, lc["bn"],
                                          layer["gamma"], layer["beta"])
                grad = dense_backward(grad, lc["dense"], layer["w"],
                                      layer["b"], "linear")
            else:
                fused = (i == len(self.dense) - 1)
                grad = dense_backward(grad, lc["dense"], layer["w"],
                                      layer["b"], spec.activation,
                                      grad_is_preact=fused)
        grad = dropout_backward(grad, caches.lstm_dropout)
        grad_seq = lstm_backward(grad, caches.lstm,
                                 self.lstm_w, self.lstm_u, self.lstm_b)
        grad_seq = dropout_backward(grad_seq, caches.embed_dropout)
        embedding_backward(grad_seq, caches.embed_indices, self.emb)

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
        doc = {
            "magic": CHECKPOINT_MAGIC,
            "version": CHECKPOINT_VERSION,
            "config": self.config.to_dict(),
            "vocab": {"tokens": self.vocab.tokens,
                      "max_size": self.vocab.max_size,
                      "min_freq": self.vocab.min_freq},
            "params": [{"name": p.name, "shape": list(p.value.shape),
                        "data": p.value.reshape(-1).tolist()}
                       for p in self.params],
            "running": {k: {"mean": r.mean.tolist(), "var": r.var.tolist()}
                        for k, r in self.bn_running.items()},
        }
        with open(path, "w") as f:
            json.dump(doc, f)


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
    config = ModelConfig.from_dict(doc["config"])
    vocab = textprep.Vocabulary(doc["vocab"]["tokens"],
                                max_size=doc["vocab"]["max_size"],
                                min_freq=doc["vocab"]["min_freq"])
    model = Model(config, vocab)
    saved = {p["name"]: p for p in doc["params"]}
    for p in model.params:
        if p.name not in saved:
            raise ShapeMismatchOnLoad(f"{path}: missing tensor {p.name}")
        entry = saved[p.name]
        if tuple(entry["shape"]) != p.value.shape:
            raise ShapeMismatchOnLoad(
                f"{path}: {p.name} has shape {entry['shape']}, "
                f"expected {list(p.value.shape)}")
        p.value[...] = np.array(entry["data"],
                                dtype=p.value.dtype).reshape(p.value.shape)
    for k, r in model.bn_running.items():
        if k not in doc["running"]:
            raise ShapeMismatchOnLoad(f"{path}: missing running stats for {k}")
        r.mean[...] = np.array(doc["running"][k]["mean"], dtype=r.mean.dtype)
        r.var[...] = np.array(doc["running"][k]["var"], dtype=r.var.dtype)
    return model
