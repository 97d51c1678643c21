"""Names, units and directions of every metric the benchmark reports.

End-to-end metrics come from untraced runs; per-layer metrics, including
`trace_overhead.<end-to-end metric>`, from traced runs. BENCHMARK.json lists
exactly these.

`<function>.s` is the time spent inside calls to the function, callees
included; `.self_s` leaves out the time of traced callees. Per-layer times
are raw wall seconds of the traced run, not calibrated. Layer times are
also given for the fit of each dtype pass, as `.s.f64` and `.s.f32`.
Derived ratios state their base in the comments below. Every workload
reports every metric.
"""

from __future__ import annotations

# (name, unit, better), in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("train_examples_per_s.f64", "examples/s", "higher"),
    ("train_examples_per_s.f32", "examples/s", "higher"),
    ("checkpoint_save_s", "s", "lower"),
    ("checkpoint_mb", "MB", "lower"),
    ("predict_cold_start_s", "s", "lower"),
    ("eval_examples_per_s", "examples/s", "higher"),
    ("predict_latency_ms.p50", "ms", "lower"),
    ("predict_latency_ms.p90", "ms", "lower"),
    ("prepare_articles_per_s", "articles/s", "higher"),
    ("gradcheck_s", "s", "lower"),
]

LAYERS = [f"layers.{layer}_{way}"
          for layer in ("lstm", "embedding", "dropout", "dense", "batchnorm")
          for way in ("forward", "backward")]
DTYPES = ("f64", "f32")

TIMED = (["numerics.Prng.uniform", "numerics.init_glorot",
          "numerics.finite_diff_grad"]
         + LAYERS
         + ["objective.bce", "objective.bce_grad_fused",
            "objective.reg_penalty", "objective.evaluate",
            "optim.clip_gradients", "optim.adam_step",
            "optim.predict_in_batches",
            "model_zoo.build", "model_zoo.Model.state_snapshot",
            "model_zoo.Model.save", "model_zoo.load"]
         + [f"textprep.{f}" for f in ("preprocess", "clean",
                                      "remove_stopwords", "encode",
                                      "build_vocab", "write_cache",
                                      "read_cache")]
         + ["porter.stem", "ingest.load_articles", "ingest.merge_shuffle"]
         + [f"gradcheck.check_{c}" for c in ("embedding", "lstm", "dense",
                                             "dropout", "batchnorm",
                                             "end_to_end")])
COUNTED = ["numerics.Prng.uniform", "porter.stem"] + LAYERS


def _per_layer_spec():
    """(name, unit, better) for every per-layer metric any workload emits."""
    spec = [(f"{n}.s", "s", "lower") for n in TIMED]
    spec += [(f"{n}.s.{d}", "s", "lower") for n in LAYERS for d in DTYPES]
    spec += [(f"{n}.calls", "count", "lower") for n in COUNTED]
    for n in ("layers.lstm_forward", "layers.lstm_backward"):
        # matmul FLOPs computed from the tensor shapes / time in the calls
        spec += [(f"{n}.gflop_s", "GFLOP/s", "higher")]
        spec += [(f"{n}.gflop_s.{d}", "GFLOP/s", "higher") for d in DTYPES]
    spec += [
        ("numerics.Prng.uniform.draws", "count", "lower"),
        # base: train steps of the dtype pass
        *[(f"numerics.Prng.uniform.draws_per_step.{d}", "count", "lower")
          for d in DTYPES],
        ("numerics.finite_diff_grad.loss_evals", "count", "lower"),
        *[(f"objective.train_loss_last.{d}", "loss", "lower") for d in DTYPES],
        *[(f"optim.fit.s.{d}", "s", "lower") for d in DTYPES],
        # time inside fit not covered by any traced callee
        *[(f"optim.fit.uncovered_s.{d}", "s", "lower") for d in DTYPES],
        *[(f"optim.fit.step_s.p50.{d}", "s", "lower") for d in DTYPES],
        ("optim.grad_norm.p50", "norm", "lower"),
        # base: train steps; clipped when the pre-clip norm > max_norm
        ("optim.clip_fired_ratio", "ratio", "lower"),
        ("model_zoo.Model.forward.self_s", "s", "lower"),
        ("model_zoo.Model.backward.self_s", "s", "lower"),
        ("model_zoo.load.json_parse_s", "s", "lower"),
        ("model_zoo.load.reinit_s", "s", "lower"),
        # base: model_zoo.load.s
        ("model_zoo.load.reinit_share", "ratio", "lower"),
        # base: preprocess calls (one per article or predicted text)
        ("textprep.tokens_per_article", "tokens", "lower"),
        # base: porter.stem calls; distinct inputs bound what memoising saves
        ("porter.stem.distinct_ratio", "ratio", "lower"),
    ]
    return spec


PER_LAYER = _per_layer_spec() + [
    # traced minus untraced, in the end-to-end metric's unit; checkpoint_mb
    # is left out, tracing cannot change a file's size
    (f"trace_overhead.{name}", unit, better) for name, unit, better in END_TO_END
    if name != "checkpoint_mb"]
