"""The three architecture presets, the assembled classifier, checkpoint
save/load, and single-text prediction.

All presets share the same skeleton: Embedding -> Dropout -> LSTM (final
hidden state only) -> Dropout -> hidden dense blocks -> Dense(1) ->
sigmoid. Only the final hidden state feeds the dense blocks; pre-padding
in textprep guarantees it reflects real tokens.

A model is a flat layer list built once from its config and its
preset's `PRESETS` row. Each hidden block is Dense -> [BatchNorm] ->
ReLU, and a Dropout, identity at rate 0, sits between dense blocks. The
output Dense gives a logit: `Model.forward` applies the sigmoid, and
`Model.backward` feeds the fused sigmoid+BCE gradient straight into it.
Forward and backward loop over the list; `Model.params` follows its
order, which is the checkpoint order.

A model gets its tensors from one function, `tensor(name, shape, init)`:
`build` answers with the seeded initialisation `init(rng)`, `load` with
the tensor's slice of the checkpoint's data, so a load draws nothing.

A checkpoint (format version 6) is a binary container, the layout of
safetensors and of NumPy's `.npy`:
  - an 8-byte little-endian u64 header length n;
  - n bytes of UTF-8 JSON: magic, version, config, vocabulary (its
    token list, `{"tokens": [...]}`), and the tensor table, each
    tensor's name, shape and byte offset in `Model.tensors()` order
    (parameters, then batch-norm statistics);
  - the data section, from the first multiple of 64 at or after 8 + n:
    each tensor's little-endian bytes, row-major, at its offset, the
    first multiple of 64 at or after the end of the tensor before
    (`_table_entry`, for `save` and `load` alike). Padding is zero
    bytes, and the file ends with the last tensor.
The element type is `config.dtype` (`<f8` for float64, `<f4` for
float32). `load` reads the file into one 64-byte-aligned buffer and
hands the model writable views of it: a tensor with an arena of its own
(`layers.pack`) adopts its view, so a `paper`-sized model's embedding
and LSTM U (and, in float64, W) are not copied; the others are copied
out once.
The vocabulary sets the embedding's row count, `len(vocab)`: no config
field repeats it. A config and a vocabulary check their fields when
made, so `build` refuses what `load` would: an unknown preset or dtype,
a seed or size that is not an int (bools and numpy integers included),
or an embed_dim, lstm_units or maxlen below 1 raises `BadConfig`, both
a TypeError and a ValueError; a token that is not a str, or that
repeats, TypeError. `load` also refuses versions 1-3 (one JSON
document), 4 and 5, a header that is not JSON or lacks the magic, and
any tensor table but the one `save` writes for the model, entry for
entry and JSON type for type, so a token list edited to another length
is refused by the embedding's entry.

Presets: each is one of the paper's three models. Its architecture and
learning rate are its row of `PRESETS`, the only place they live; a
config names a preset and adds only the sizes, the seed and the dtype.
  baseline    dropout, L1 on the hidden dense kernels.
  regularized baseline + L2 on the LSTM and dense kernels, more dropout,
              and dropout between the dense layers too.
  optimized   regularized + batch norm before each ReLU, a wider and
              deeper dense stack, a lower learning rate.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields
from itertools import zip_longest

import numpy as np

from . import textprep
from .layers import (BatchNormRunning, ParamTensor, batchnorm_backward,
                     batchnorm_forward, dense_backward, dense_forward,
                     dropout_backward, dropout_forward, embedding_backward,
                     embedding_forward, lstm_backward, lstm_forward,
                     lstm_infer, pack)
from .numerics import Prng, drelu, init_glorot, relu, sigmoid
from .objective import THRESHOLD, bce_grad_fused

CHECKPOINT_MAGIC = "svchk"
CHECKPOINT_VERSION = 6
CHECKPOINT_ALIGN = 64  # bytes; a cache line, and a multiple of every itemsize

DTYPES = {"float64": np.float64, "float32": np.float32}


@dataclass(frozen=True)
class Preset:
    """The fixed architecture and learning rate of one paper model."""
    dense_widths: tuple        # hidden layers; the output Dense(1) follows
    dense_regularizers: tuple  # on every hidden kernel, not the output's
    lstm_regularizers: tuple   # on the LSTM's W and U
    embed_dropout: float
    lstm_dropout: float
    dense_dropout: float       # between dense blocks; identity at 0
    batchnorm: bool            # BatchNorm between each hidden Dense and ReLU
    lr: float                  # Adam's learning rate


# regularizer terms, (kind, lambda)
_L1 = ("l1", 1e-5)
_L2 = ("l2", 1e-4)

PRESETS = {
    "baseline": Preset(
        dense_widths=(64, 16), dense_regularizers=(_L1,),
        lstm_regularizers=(), embed_dropout=0.2, lstm_dropout=0.2,
        dense_dropout=0.0, batchnorm=False, lr=1e-3),
    "regularized": Preset(
        dense_widths=(64, 16), dense_regularizers=(_L1, _L2),
        lstm_regularizers=(_L2,), embed_dropout=0.3, lstm_dropout=0.3,
        dense_dropout=0.3, batchnorm=False, lr=1e-3),
    "optimized": Preset(
        dense_widths=(128, 64, 16), dense_regularizers=(_L1, _L2),
        lstm_regularizers=(_L2,), embed_dropout=0.3, lstm_dropout=0.3,
        dense_dropout=0.3, batchnorm=True, lr=5e-4),
}


class VocabMissing(ValueError):
    pass


class BadMagic(ValueError):
    pass


class VersionMismatch(ValueError):
    pass


class ShapeMismatchOnLoad(ValueError):
    pass


class BadConfig(TypeError, ValueError):
    """A config field that fails its `_CONFIG_TYPES` type and range test:
    a TypeError to `load`, a malformed checkpoint, a ValueError to `build`."""


@dataclass(frozen=True)
class ModelConfig:
    """What varies between models of one preset; `PRESETS[preset]` holds
    the rest. Made only with fields that pass `_CONFIG_TYPES`."""
    preset: str
    embed_dim: int
    lstm_units: int
    maxlen: int
    seed: int
    dtype: str

    def __post_init__(self):
        bad = [f"{k}={v!r}" for k, v in vars(self).items()
               if not _CONFIG_TYPES[k](v)]
        if bad:
            raise BadConfig(f"config has bad {', '.join(bad)}; preset is "
                            f"one of {', '.join(PRESETS)}, dtype one of "
                            f"{', '.join(DTYPES)}, seed an int, every "
                            "other field an int >= 1")

    @classmethod
    def from_dict(cls, d):
        """Inverse of `asdict`; every field must be present."""
        names = {f.name for f in fields(cls)}
        if d.keys() != names:
            raise TypeError(f"config lacks {sorted(names - d.keys())}, "
                            f"has unknown {sorted(d.keys() - names)}")
        return cls(**d)


def _is_int(v, low=-math.inf):
    return type(v) is int and v >= low  # not bool, which subclasses int


# The test of type and range each ModelConfig field's value must pass.
_CONFIG_TYPES = {
    "preset": lambda v: v in tuple(PRESETS),
    "embed_dim": lambda v: _is_int(v, 1), "seed": _is_int,
    "lstm_units": lambda v: _is_int(v, 1), "maxlen": lambda v: _is_int(v, 1),
    "dtype": lambda v: v in tuple(DTYPES),
}


def preset_config(preset, maxlen, embed_dim, lstm_units, seed, dtype):
    """The ModelConfig of a preset name (pure function)."""
    return ModelConfig(preset=preset, embed_dim=embed_dim,
                       lstm_units=lstm_units, maxlen=maxlen, seed=seed,
                       dtype=dtype)


# --- layers ------------------------------------------------------------------
# Each layer wraps one kernel: forward(x, rng) -> (y, cache), training
# exactly when given an rng, and backward(grad, cache) -> grad. Kernels are
# called by the names imported above, looked up at call time, so a tracer
# can patch them in this module. Every layer maps a stack of inputs, or a
# stack of parameter values on a leading axis, to a stack of outputs, each
# with the bits it would get alone; gradcheck evaluates its probes so.
# Embedding's input is its indices, which do not stack.

class Embedding:
    def __init__(self, table):
        self.params = [table]

    def forward(self, x, rng):
        return embedding_forward(x, *self.params), np.asarray(x)

    def backward(self, grad, cache):
        embedding_backward(grad, cache, *self.params)


class Dropout:
    params = ()

    def __init__(self, rate):
        self.rate = rate

    def forward(self, x, rng):
        return dropout_forward(x, self.rate, rng)

    def backward(self, grad, cache):
        return dropout_backward(grad, cache)


class Lstm:
    def __init__(self, w, u, b):
        self.params = [w, u, b]

    def forward(self, x, rng):
        # a stack of inputs, (P, B, T, d), goes to the kernel as one batch
        # of P * B rows, so that the kernel, and a tracer's wrapper of it,
        # always sees a (B, T, d) x
        x = np.asarray(x)
        h_t, cache = lstm_forward(x.reshape(-1, *x.shape[-2:]), *self.params)
        # h_t is (*param stack, rows, H): the rows unfold to x's batch axes
        return h_t.reshape(*h_t.shape[:-2], *x.shape[:-2], -1), cache

    def backward(self, grad, cache):
        return lstm_backward(grad, cache, *self.params)


class Dense:
    def __init__(self, w, b):
        self.params = [w, b]

    def forward(self, x, rng):
        return dense_forward(x, *self.params)

    def backward(self, grad, cache):
        return dense_backward(grad, cache, *self.params)


class BatchNorm:
    def __init__(self, gamma, beta, running):
        self.params = [gamma, beta]
        self.running = running

    def forward(self, x, rng):
        return batchnorm_forward(x, *self.params, self.running,
                                 rng is not None)

    def backward(self, grad, cache):
        return batchnorm_backward(grad, cache, *self.params)


class ReLU:
    params = ()

    def forward(self, x, rng):
        return relu(x), x

    def backward(self, grad, cache):
        return grad * drelu(cache)


class Model:
    """An assembled classifier: a flat layer list, batch-norm running
    stats, and the vocabulary it was built against."""

    def __init__(self, config, vocab, tensor):
        """`tensor(name, shape, init)` gives each array of the model:
        `build` answers `init(shape, rng)` from the seeded stream, `load`
        the checkpoint's array."""
        self.config = config
        self.preset = PRESETS[config.preset]
        self.vocab = vocab
        self.dtype = DTYPES[config.dtype]
        self._build_params(tensor)

    # the order of `tensor` calls is fixed: the seeded initialisation draws
    # in it, and `params` and `tensors()` follow it
    def _build_params(self, tensor):
        cfg, pre, dt = self.config, self.preset, self.dtype
        h, d = cfg.lstm_units, cfg.embed_dim

        def glorot(shape, rng):
            return init_glorot(shape, rng, dt)

        def zeros(shape, rng):
            return np.zeros(shape, dtype=dt)

        def ones(shape, rng):
            return np.ones(shape, dtype=dt)

        def embedding(shape, rng):
            emb = glorot(shape, rng)
            emb[0] = 0.0  # PAD row frozen at zero
            return emb

        def lstm_bias(shape, rng):
            bias = zeros(shape, rng)
            bias[h:2 * h] = 1.0  # forget-gate bias starts open
            return bias

        def param(name, shape, init, regularizers=()):
            return ParamTensor(name, tensor(name, shape, init), regularizers)

        norms = {}  # name -> BatchNorm; its running stats come last
        self.layers = [
            Embedding(param("embedding", (len(self.vocab), d), embedding)),
            Dropout(pre.embed_dropout),
            Lstm(param("lstm.W", (d, 4 * h), glorot, pre.lstm_regularizers),
                 param("lstm.U", (h, 4 * h), glorot, pre.lstm_regularizers),
                 param("lstm.b", (4 * h,), lstm_bias)),
            Dropout(pre.lstm_dropout)]

        fan_in = h
        for i, width in enumerate((*pre.dense_widths, 1)):
            name, hidden = f"dense{i}", i < len(pre.dense_widths)
            if i > 0:
                self.layers.append(Dropout(pre.dense_dropout))
            self.layers.append(Dense(
                param(f"{name}.W", (fan_in, width), glorot,
                      pre.dense_regularizers if hidden else ()),
                param(f"{name}.b", (width,), zeros)))
            if hidden:
                if pre.batchnorm:
                    norms[name] = BatchNorm(
                        param(f"{name}.bn.gamma", (width,), ones),
                        param(f"{name}.bn.beta", (width,), zeros), None)
                    self.layers.append(norms[name])
                self.layers.append(ReLU())
            fan_in = width
        # the running stats after every parameter, as `tensors()` lists
        # them; copies, so that a loaded model keeps no view of its buffer
        self.bn_running = {}
        for name, norm in norms.items():
            shape = norm.params[0].value.shape
            norm.running = self.bn_running[name] = BatchNormRunning(
                tensor(f"{name}.bn.mean", shape, zeros).copy(),
                tensor(f"{name}.bn.var", shape, ones).copy())
        self.params = [p for layer in self.layers for p in layer.params]
        self.arenas = pack(self.params)

    def tensors(self):
        """(name, array) for every tensor a checkpoint holds, in its order:
        the parameters, then each batch norm's running mean and var."""
        named = [(p.name, p.value) for p in self.params]
        for k, r in self.bn_running.items():
            named += [(f"{k}.bn.mean", r.mean), (f"{k}.bn.var", r.var)]
        return named

    def num_params(self):
        return sum(p.value.size for p in self.params)

    def zero_grads(self):
        for arena in self.arenas:
            arena.grad.fill(0.0)

    def forward(self, indices, rng=None):
        """indices: (B, maxlen) -> (probabilities (B,), per-layer caches):
        the sigmoid of the output Dense's logit. Given an rng, the pass
        trains: dropout draws its masks from it, batch norm uses and updates
        the batch statistics, and the LSTM keeps its history for backward.
        Without one it is inference, and the first three layers run as one
        kernel, `lstm_infer`, on the embedding table and the indices: the
        dropout between them is then the identity, and the (B, T, d)
        lookup is never built."""
        x, caches, layers = indices, [], self.layers
        if rng is None:
            embedding, _, lstm = layers[:3]
            x = lstm_infer(indices, *embedding.params, *lstm.params)
            caches, layers = [None] * 3, layers[3:]
        for layer in layers:
            x, cache = layer.forward(x, rng)
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
        probs, _ = self.forward(np.atleast_2d(indices))
        return probs

    def predict(self, raw_text):
        """Full pipeline on raw text with the stored vocabulary; returns
        (probability, label) with label = 1 (fake) iff p >= THRESHOLD."""
        tokens = textprep.preprocess("", raw_text)
        seq = textprep.encode(tokens, self.vocab, self.config.maxlen)
        p = float(self.predict_proba(np.array([seq]))[0])
        return p, int(p >= THRESHOLD)

    # --- checkpointing ------------------------------------------------

    def state_snapshot(self):
        """A copy of every tensor training mutates, in `tensors()` order
        (for early stopping)."""
        return [array.copy() for _, array in self.tensors()]

    def restore_snapshot(self, snap):
        for (_, array), saved in zip(self.tensors(), snap):
            array[...] = saved

    def save(self, path):
        """Write the version 6 container (see the module docstring): the
        header once, then each tensor's bytes at its aligned offset."""
        wire = np.dtype(self.dtype).newbyteorder("<")
        named = self.tensors()
        table, end = [], 0
        for name, array in named:
            entry, end = _table_entry(name, array.shape, wire.itemsize, end)
            table.append(entry)
        header = json.dumps({
            "magic": CHECKPOINT_MAGIC,
            "version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "vocab": textprep.vocab_to_doc(self.vocab),
            "tensors": table,
        }).encode("utf-8")
        with open(path, "wb") as f:
            f.write(len(header).to_bytes(8, "little"))
            f.write(header)
            # the data section starts aligned, so padding each tensor to an
            # aligned file position puts it at its aligned offset
            for _, array in named:
                f.write(bytes(-f.tell() % CHECKPOINT_ALIGN))
                f.write(np.ascontiguousarray(array, dtype=wire))


def _table_entry(name, shape, itemsize, end):
    """(table entry, end of data) of a tensor whose data starts at the
    first multiple of CHECKPOINT_ALIGN at or after `end`."""
    offset = end + -end % CHECKPOINT_ALIGN
    return ({"name": name, "shape": list(shape), "offset": offset},
            offset + math.prod(shape) * itemsize)


def build(preset, vocab, maxlen=textprep.DEFAULT_MAXLEN, seed=0,
          embed_dim=100, lstm_units=150, dtype="float64"):
    """Expand a preset and initialize a model against a built vocabulary."""
    if vocab is None:
        raise VocabMissing("build requires a vocabulary")
    cfg = preset_config(preset, maxlen=maxlen, embed_dim=embed_dim,
                        lstm_units=lstm_units, seed=seed, dtype=dtype)
    rng = Prng(cfg.seed)
    return Model(cfg, vocab, lambda name, shape, init: init(shape, rng))


def load(path):
    """The model a version 6 checkpoint holds, read into one aligned
    buffer (see the module docstring); refused unless its tensor table is
    exactly the one `save` writes for its config."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        raw = np.empty(size + CHECKPOINT_ALIGN, dtype=np.uint8)
        skip = -raw.ctypes.data % CHECKPOINT_ALIGN
        blob = raw[skip:skip + size]
        blob = blob[:f.readinto(blob)]
    n = int.from_bytes(blob[:8].tobytes(), "little")
    if 8 + n > blob.size:  # a file under 8 bytes too
        # read as a length, the first 8 bytes of a JSON document exceed
        # any file
        if blob[:1].tobytes() == b"{":
            raise VersionMismatch(f"{path}: a JSON checkpoint (format "
                                  f"version 1-3), expected version "
                                  f"{CHECKPOINT_VERSION}")
        raise BadMagic(f"{path}: not a checkpoint file (header length {n} "
                       f"in a {blob.size}-byte file)")
    try:
        header = json.loads(blob[8:8 + n].tobytes().decode("utf-8"))
    except (ValueError, RecursionError) as e:  # not JSON, or too deep
        raise BadMagic(f"{path}: not a checkpoint file ({e})") from None
    if not isinstance(header, dict) or header.get("magic") != CHECKPOINT_MAGIC:
        raise BadMagic(f"{path}: missing checkpoint magic")
    if header.get("version") != CHECKPOINT_VERSION:
        raise VersionMismatch(f"{path}: version {header.get('version')}, "
                              f"expected {CHECKPOINT_VERSION}")
    try:
        return _restore(path, header,
                        blob[8 + n + -(8 + n) % CHECKPOINT_ALIGN:])
    except (AttributeError, LookupError, TypeError) as e:
        # a missing, extra or mistyped entry
        raise BadMagic(f"{path}: malformed checkpoint "
                       f"({type(e).__name__}: {e})") from None


def _restore(path, header, data):
    """The model a version-checked header describes, its tensors views of
    `data`, the data section. Its tensor table must be exactly the one
    `save` writes for the model, and no byte may follow the last tensor."""
    config = ModelConfig.from_dict(header["config"])
    vocab = textprep.vocab_from_doc(header["vocab"])
    found = header["tensors"]
    for e in found:  # the keys and JSON types of a table entry
        if not (isinstance(e, dict) and type(e.get("name")) is str
                and _is_int(e.get("offset")) and type(e.get("shape")) is list
                and all(_is_int(n, 0) for n in e["shape"])):
            raise TypeError(f"tensor entry {e!r}")
    dtype = DTYPES[config.dtype]
    wire = np.dtype(dtype).newbyteorder("<")
    table, end = [], 0

    def stored(name, shape, init):
        nonlocal end
        entry, end = _table_entry(name, shape, wire.itemsize, end)
        table.append(entry)
        if end > data.size:
            raise ShapeMismatchOnLoad(f"{path}: {name} ends past the "
                                      f"{data.size}-byte data section")
        view = data[entry["offset"]:end].view(wire).reshape(shape)
        return view.astype(dtype, copy=False)  # a copy on big-endian hosts

    model = Model(config, vocab, stored)
    if found != table:
        pair = next(p for p in zip_longest(found, table) if p[0] != p[1])
        found, want = ("nothing" if e is None else json.dumps(e) for e in pair)
        raise ShapeMismatchOnLoad(f"{path}: the tensor table has {found} "
                                  f"where {want} belongs")
    if end != data.size:
        raise ShapeMismatchOnLoad(f"{path}: {data.size - end} bytes after "
                                  "the last tensor")
    return model

