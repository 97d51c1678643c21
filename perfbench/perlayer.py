"""Per-layer metrics of the traced run, derived from the spans and from what
the wrappers observed. `metrics.py` names them."""

from __future__ import annotations

import statistics

import numpy as np

from metrics import COUNTED, DTYPES, LAYERS, PER_LAYER, TIMED


class SpanTable:
    """Inclusive and self time and call counts per (span name, phase)."""

    def __init__(self, rec):
        self.rec = rec
        self.name_id, self.parent, self.phase, self.start, self.end = rec.arrays()
        self.dur = self.end - self.start
        self.self_t = rec.self_times()

    def mask(self, name, phase=None):
        if name not in self.rec.names:
            return np.zeros(len(self.dur), dtype=bool)
        mask = self.name_id == self.rec.names.index(name)
        if phase is not None and phase in self.rec.phases:
            mask &= self.phase == self.rec.phases.index(phase)
        elif phase is not None:
            mask[:] = False
        return mask

    def calls(self, name, phase=None):
        return int(self.mask(name, phase).sum())

    def total(self, name, phase=None):
        return float(self.dur[self.mask(name, phase)].sum())

    def self_total(self, name, phase=None):
        return float(self.self_t[self.mask(name, phase)].sum())

    def children_of(self, parent_name, child_name):
        """Inclusive time of `child_name` spans directly under a
        `parent_name` span."""
        child = np.flatnonzero(self.mask(child_name))
        parents = self.parent[child]
        under = parents >= 0
        under[under] = self.mask(parent_name)[parents[under]]
        return float(self.dur[child[under]].sum())

    def subtree(self, idx):
        """Indices of the spans opened inside span `idx` (a contiguous
        block, since spans are opened in time order on one thread)."""
        stop = int(np.searchsorted(self.start, self.end[idx], side="left"))
        return np.arange(idx + 1, max(stop, idx + 1))

    def self_by_name(self, indices):
        out = {}
        for i in indices:
            name = self.rec.names[self.name_id[i]]
            out[name] = out.get(name, 0.0) + float(self.self_t[i])
        return out


UNITS = {name: unit for name, unit, _ in PER_LAYER}


def derive(rec, tracer, info):
    """All per-layer metrics observed in this run: name -> (value, unit).
    Layer times are for the whole run in `.s` and for the fit of one dtype
    pass in `.s.f64` and `.s.f32`."""
    t = SpanTable(rec)
    out = {}

    def put(name, value):
        out[name] = (float(value), UNITS[name])

    for name in TIMED:
        if t.calls(name):
            put(f"{name}.s", t.total(name))
            if name in LAYERS:
                for d in DTYPES:
                    put(f"{name}.s.{d}", t.total(name, d))
    for name in COUNTED:
        if t.calls(name):
            put(f"{name}.calls", t.calls(name))

    for name in ("layers.lstm_forward", "layers.lstm_backward"):
        for d in (None,) + DTYPES:
            flops = sum(v for (n, p), v in tracer.lstm_flops.items()
                        if n == name and (d is None or p == d))
            busy = t.total(name, d)
            if busy > 0:
                put(f"{name}.gflop_s" + (f".{d}" if d else ""),
                    flops / busy / 1e9)

    if t.calls("numerics.Prng.uniform"):
        put("numerics.Prng.uniform.draws", sum(tracer.draws.values()))
    if t.calls("numerics.finite_diff_grad"):
        put("numerics.finite_diff_grad.loss_evals", tracer.loss_evals)

    for d in DTYPES:
        steps = t.calls("optim.adam_step", d)
        put(f"numerics.Prng.uniform.draws_per_step.{d}",
            tracer.draws.get(d, 0) / steps)
        put(f"objective.train_loss_last.{d}", info[f"train_loss_last.{d}"])
        put(f"optim.fit.s.{d}", t.total("optim.fit", d))
        put(f"optim.fit.uncovered_s.{d}", t.self_total("optim.fit", d))
        # a train step runs from zero_grads to the end of adam_step
        starts = t.start[t.mask("model_zoo.Model.zero_grads", d)]
        ends = t.end[t.mask("optim.adam_step", d)]
        put(f"optim.fit.step_s.p50.{d}",
            statistics.median(ends[:len(starts)] - starts))

    if tracer.grad_norms:
        norms, clipped = zip(*tracer.grad_norms)
        put("optim.grad_norm.p50", statistics.median(norms))
        put("optim.clip_fired_ratio", sum(clipped) / len(clipped))

    for name in ("model_zoo.Model.forward", "model_zoo.Model.backward"):
        if t.calls(name):
            put(f"{name}.self_s", t.self_total(name))
    if t.calls("model_zoo.load"):
        load_s = t.total("model_zoo.load")
        reinit = t.children_of("model_zoo.load", "model_zoo.Model._build_params")
        put("model_zoo.load.json_parse_s",
            t.children_of("model_zoo.load", "json.load"))
        put("model_zoo.load.reinit_s", reinit)
        put("model_zoo.load.reinit_share", reinit / load_s)

    tokens, articles = tracer.preprocess_tokens
    if articles:
        put("textprep.tokens_per_article", tokens / articles)
    stems = t.calls("porter.stem")
    if stems:
        put("porter.stem.distinct_ratio", len(tracer.stem_inputs) / stems)
    return out


def fit_accounts(rec):
    """For every optim.fit span: (phase, wall, sum of self times of the
    spans inside it, uncovered remainder, self time by callee name)."""
    t = SpanTable(rec)
    rows = []
    for idx in np.flatnonzero(t.mask("optim.fit")):
        inside = t.subtree(idx)
        covered = float(t.self_t[inside].sum())
        rows.append((rec.phases[t.phase[idx]], float(t.dur[idx]), covered,
                     float(t.self_t[idx]), t.self_by_name(inside)))
    return rows
