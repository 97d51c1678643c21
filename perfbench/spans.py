"""Span recorder and the wrappers the traced run installs.

A span holds its name, start, end, parent and phase. Spans are kept in
memory in flat arrays and written out when the run ends. A span's self time
is its duration minus the time its child spans cover; the program is single
threaded, so children nest inside their parent and never overlap.

Tracing patches names where they are looked up: a function imported by name
into another module (`model_zoo.lstm_forward`, `optim.bce`, `cli.fit`) is
replaced in every `seqveritas` module that holds it, and methods are
replaced on their class (`Prng.uniform`, `Model.forward`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
import types
from array import array

import numpy as np

# The public functions of each module that the traced run wraps. Left out
# on purpose: the numerics helpers called once per LSTM time step or per
# scalar draw (matmul, sigmoid, tanh, relu and their derivatives,
# Prng.next_u64/next_f64/randbelow), whose time stays in the caller's self
# time, and `textprep.stem`, a one-line alias of `porter.stem` that would
# double the per-token cost of tracing for no extra information.
TRACED = {
    "numerics": ["init_glorot", "finite_diff_grad", "max_relative_error",
                 "Prng.uniform", "Prng.permutation", "Prng.shuffle"],
    "layers": [f"{layer}_{way}"
               for layer in ("embedding", "lstm", "dense", "dropout",
                             "batchnorm")
               for way in ("forward", "backward")],
    "objective": ["bce", "bce_grad_fused", "bce_grad_unfused",
                  "reg_penalty", "evaluate"],
    "optim": ["adam_step", "clip_gradients", "predict_in_batches", "fit",
              "EarlyStopper.update"],
    "model_zoo": ["build", "load", "preset_config", "Model.forward",
                  "Model.backward", "Model.predict", "Model.predict_proba",
                  "Model.zero_grads", "Model.state_snapshot",
                  "Model.restore_snapshot", "Model.save",
                  "Model._build_params"],
    "textprep": ["clean", "tokenize", "remove_stopwords", "preprocess",
                 "build_vocab", "encode", "write_cache", "read_cache",
                 "save_vocab", "load_vocab"],
    "porter": ["stem"],
    "ingest": ["load_articles", "merge_shuffle"],
    "gradcheck": ["check_embedding", "check_lstm", "check_dense",
                  "check_dropout", "check_batchnorm", "check_end_to_end",
                  "mini_model", "run_all"],
}


class SpanRecorder:
    """Flat in-memory span store with a stack of open spans."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.phases = [""]
        self._phase = 0
        self.name_id = array("i")
        self.parent = array("i")
        self.phase = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._paused = False

    @contextlib.contextmanager
    def paused(self):
        """Record no spans inside this block."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @property
    def current_phase(self):
        return self.phases[self._phase]

    def current_span(self):
        """Name of the innermost open span ("" when none is open)."""
        return self.names[self.name_id[self._stack[-1]]] if self._stack else ""

    def set_phase(self, label):
        """Tag the spans opened from now on with `label` (e.g. "f64")."""
        if label not in self.phases:
            self.phases.append(label)
        self._phase = self.phases.index(label)

    def open(self, name):
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.phase.append(self._phase)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, observe=None):
        """`fn` inside a span; `observe(args, kwargs, result)` runs after
        the span closes, so its cost is not charged to `fn`."""
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return functools.wraps(fn)(wrapper)

    # --- analysis ----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays (name_id, parent, phase, start, end)."""
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.phase, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def durations(self):
        _, _, _, start, end = self.arrays()
        return end - start

    def self_times(self):
        """Duration minus the summed durations of direct children."""
        _, parent, _, _, _ = self.arrays()
        dur = self.durations()
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return dur - covered

    def save(self, path):
        name_id, parent, phase, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names),
                            phases=np.array(self.phases), name_id=name_id,
                            parent=parent, phase=phase, start=start, end=end)


class Tracer:
    """Installs wrappers on the program's modules and records what the
    derived per-layer ratios need: draws, gradient norms, stem inputs,
    tokens per article, finite-difference loss evaluations, LSTM FLOPs."""

    def __init__(self, recorder):
        self.rec = recorder
        self._patched = []  # (owner, attribute, original)
        self.draws = {}             # phase -> uniform draws
        self.grad_norms = []        # (pre-clip norm, clipped)
        self.stem_inputs = set()
        self.preprocess_tokens = [0, 0]   # tokens, calls
        self.loss_evals = 0
        self.lstm_flops = {}        # (name, phase) -> matmul FLOPs
        self.bce_values = []        # (parent span name, value)

    # --- observers -------------------------------------------------------

    def _on_uniform(self, args, kwargs, result):
        phase = self.rec.current_phase
        self.draws[phase] = self.draws.get(phase, 0) + int(result.size)

    def _on_clip(self, args, kwargs, norm):
        max_norm = args[1] if len(args) > 1 else kwargs.get("max_norm", 5.0)
        self.grad_norms.append((norm, norm > max_norm))

    def _on_stem(self, args, kwargs, result):
        self.stem_inputs.add(args[0])

    def _on_preprocess(self, args, kwargs, result):
        self.preprocess_tokens[0] += len(result)
        self.preprocess_tokens[1] += 1

    def _add_flops(self, name, x_shape, hidden, factor):
        # matmul FLOPs only: per step x_t @ W (B x d x 4H) and h @ U
        # (B x H x 4H); backward does both products twice (weight grads and
        # input grads). Elementwise gate math is not counted.
        batch, steps, d = x_shape
        flops = factor * steps * 2 * batch * 4 * hidden * (d + hidden)
        key = (name, self.rec.current_phase)
        self.lstm_flops[key] = self.lstm_flops.get(key, 0) + flops

    def _on_lstm_forward(self, args, kwargs, result):
        x, _, u, _ = args
        self._add_flops("layers.lstm_forward", np.shape(x),
                        u.value.shape[0], 1)

    def _on_lstm_backward(self, args, kwargs, result):
        _, cache, _, u, _ = args
        self._add_flops("layers.lstm_backward", cache.x.shape,
                        u.value.shape[0], 2)

    def _on_bce(self, args, kwargs, result):
        self.bce_values.append((self.rec.current_span(), result))

    def _counting_fd(self, fd):
        def finite_diff_grad(loss_fn, params, *args, **kwargs):
            def counted(values):
                self.loss_evals += 1
                return loss_fn(values)
            return fd(counted, params, *args, **kwargs)
        return finite_diff_grad

    # --- installation ----------------------------------------------------

    def install(self):
        for short in list(TRACED) + ["cli"]:
            importlib.import_module(f"seqveritas.{short}")
        modules = [m for name, m in sys.modules.items()
                   if name.startswith("seqveritas.")]
        observers = {
            "numerics.Prng.uniform": self._on_uniform,
            "optim.clip_gradients": self._on_clip,
            "porter.stem": self._on_stem,
            "textprep.preprocess": self._on_preprocess,
            "layers.lstm_forward": self._on_lstm_forward,
            "layers.lstm_backward": self._on_lstm_backward,
            "objective.bce": self._on_bce,
        }
        for short, names in TRACED.items():
            module = sys.modules[f"seqveritas.{short}"]
            for dotted in names:
                span = f"{short}.{dotted}"
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                inner = (self._counting_fd(original)
                         if span == "numerics.finite_diff_grad" else original)
                wrapper = self.rec.wrap(span, inner, observers.get(span))
                if owner_name:
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        # json.load/json.dump as seen from model_zoo, to split checkpoint
        # time into parsing/serialising and the rest.
        model_zoo = sys.modules["seqveritas.model_zoo"]
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        proxy.load = self.rec.wrap("json.load", json.load)
        proxy.dump = self.rec.wrap("json.dump", json.dump)
        self._patch(model_zoo, "json", proxy)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
