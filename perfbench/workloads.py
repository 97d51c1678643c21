"""The two workloads. Each runs the whole program once, phase by phase, at
one scale: the paper's shapes, or the miniature shapes `gradcheck` ships,
where per-call Python overhead outweighs array work. So every workload
reports every end-to-end metric. A workload is a closed loop with one
client, drives the program only through the public functions `cli.py`
calls, and checks every output.

Phases, in order:

    set-up     per dtype: write the encoded cache, read it back, load the
               vocabulary, build the model (`setup_s`)
    rounds     repeated until the run has measured `seconds`, and at least
               `Scale.rounds` times:
      train      one epoch of `optim.fit` on each model, float64 first
      serve      `Model.save` of the float64 model; cold start, that is
                 `model_zoo.load` plus the first `Model.predict`;
                 `optim.predict_in_batches` at B=256
      prepare    `cli.main(["prepare", ...])` on synthetic Fake.csv/True.csv
      predict    sequential `Model.predict` on raw texts at B=1
      gradcheck  `gradcheck.run_all`, which runs at its own miniature
                 shapes in both workloads

A workload runs identically with and without tracing; `tracer` only lets
the traced run tag spans with the phase and read what the wrappers
observed. Times are taken as intervals on a `clock.Clock` and converted to
calibrated seconds when the workload ends; raw seconds go to `info`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import resource
import statistics
import time

import numpy as np

from seqveritas import cli, gradcheck, model_zoo, optim, objective, textprep
from synth import Synth, csv_bytes

PRESET = "optimized"
DTYPE_PASSES = (("f64", "float64"), ("f32", "float32"))
PREPARE_WARMUP_ARTICLES = 12
# `gradcheck.run_all` runs at the seed `seqveritas gradcheck` uses by
# default, not at the workload seed: at some seeds (4 and 8 of 0-11) the
# baseline and regularized end-to-end checks miss the gate because a ReLU
# pre-activation lies within the finite-difference step. The checked work
# is the same at every seed. Every layer check runs, the dropout
# record/replay tape included; of the end-to-end checks only the cheapest
# preset's (~2 s), since the optimized preset's alone takes ~18 s.
GRADCHECK_SEED = 0
GRADCHECK_PRESETS = ("baseline",)
GRADCHECK_TOLERANCE = 1e-4  # the ROADMAP gate, independent of gradcheck.py


@dataclasses.dataclass(frozen=True)
class Scale:
    vocab_size: int
    maxlen: int
    batch: int
    embed_dim: int
    lstm_units: int
    setups: int            # set-ups per dtype; the last one is trained
    train_batches: int     # whole batches per epoch
    val: int
    rounds: int            # least number of serve/prepare/predict rounds
    repeats: int           # save, cold start and eval per round
    eval_examples: int
    prepare_articles: int  # per class, prepared once per round
    predict_texts: int     # per round; p90 leaves >= 12 samples beyond it
    text_words: int        # median words of an article or a predict text


SCALES = {
    "paper": Scale(vocab_size=20000, maxlen=200, batch=64, embed_dim=100,
                   lstm_units=150, setups=1, train_batches=1, val=32,
                   rounds=2, repeats=1, eval_examples=256,
                   prepare_articles=100, predict_texts=100, text_words=330),
    "mini": Scale(vocab_size=gradcheck.MINI["vocab_tokens"] + 2,
                  maxlen=gradcheck.MINI["maxlen"],
                  batch=gradcheck.MINI["batch"],
                  embed_dim=gradcheck.MINI["embed_dim"],
                  lstm_units=gradcheck.MINI["lstm_units"], setups=10,
                  train_batches=500, val=16, rounds=4, repeats=20,
                  eval_examples=2048, prepare_articles=800, predict_texts=300,
                  text_words=40),
}


class Ops:
    """Operations attempted and failed; an operation fails when any of its
    output checks fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, ok, what, count=1):
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures.append(what)


class Timings:
    """Named lists of measured intervals on one clock."""

    def __init__(self, clock):
        self.clock = clock
        self.intervals = {}

    @contextlib.contextmanager
    def time(self, key):
        start = self.clock.now()
        try:
            yield
        finally:
            self.intervals.setdefault(key, []).append((start, self.clock.now()))

    def seconds(self, key):
        """(raw, calibrated) lists of seconds for `key`."""
        pairs = [self.clock.interval(a, b) for a, b in self.intervals[key]]
        return [r for r, _ in pairs], [c for _, c in pairs]


@dataclasses.dataclass
class Result:
    metrics: dict          # name -> (value, unit), calibrated times
    ops: Ops
    info: dict = dataclasses.field(default_factory=dict)


def _finish(timings, ops, derive, info, extra_metrics):
    """Metrics from calibrated intervals; the same from raw ones in info."""
    metrics, raw = {}, {}
    for name, (key, fn, unit) in derive.items():
        raw_s, cal_s = timings.seconds(key)
        metrics[name] = (fn(cal_s), unit)
        raw[name] = fn(raw_s)
    metrics.update(extra_metrics)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    info["raw"] = raw
    return Result(metrics, ops, info)


def _phase(tracer, label):
    if tracer is not None:
        tracer.rec.set_phase(label)


def _untraced(tracer):
    return tracer.rec.paused() if tracer is not None else contextlib.nullcontext()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# --- prepare -------------------------------------------------------------------

def _prepare(fake, true_, out, seed, sc):
    """`seqveritas prepare` in-process; returns (exit code, stdout)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["prepare", "--fake", fake, "--true", true_,
                         "--out", out, "--seed", str(seed),
                         "--maxlen", str(sc.maxlen),
                         "--vocab-size", str(sc.vocab_size)])
    return code, stdout.getvalue()


def _check_prepare(ops, code, stdout, out, n_fake, n_true, maxlen):
    try:
        doc = json.loads(stdout)
        ok = (code == 0 and isinstance(doc, dict)
              and doc.get("fake") == n_fake and doc.get("true") == n_true)
    except json.JSONDecodeError:
        ok = False
    if ok:
        xs, _, _ = textprep.read_cache(out)
        ok = xs.shape == (n_fake + n_true, maxlen)
    ops.record(ok, f"prepare of {n_fake}+{n_true} articles: exit {code}, "
                   f"stdout {stdout[:200]!r}")


# --- the workload ------------------------------------------------------------

def run(workload, seed, seconds, clock, work, tracer=None):
    """Every phase of the program at the scale named `workload`."""
    sc = SCALES[workload]
    syn = Synth(seed)
    v, maxlen = sc.vocab_size, sc.maxlen
    n_train = sc.train_batches * sc.batch
    x, y = syn.sequences(n_train + sc.val, v, maxlen)
    eval_x, eval_y = syn.sequences(sc.eval_examples, v, maxlen)
    tokens = syn.vocab_tokens(v)
    texts = syn.texts(sc.predict_texts, sc.text_words)
    n, k = sc.prepare_articles, PREPARE_WARMUP_ARTICLES
    fake = syn.articles(1, n, sc.text_words)
    true_ = syn.articles(0, n, sc.text_words)
    csvs = {}
    for name, rows in (("fake", fake), ("true", true_),
                       ("warm-fake", fake[:k]), ("warm-true", true_[:k])):
        csvs[name] = str(work / f"{name}.csv")
        (work / f"{name}.csv").write_bytes(csv_bytes(rows))
    ops, timings, info = Ops(), Timings(clock), {}

    def check_predict(prob, label):
        ops.record(0.0 <= prob <= 1.0 and label == int(prob >= 0.5),
                   f"predict gave p={prob} label={label}")

    models, sets = {}, {}
    for label, dtype in DTYPE_PASSES:
        _phase(tracer, f"setup.{label}")
        cache = str(work / f"train-{label}.svec")
        for _ in range(sc.setups):
            with timings.time("setup"):
                textprep.write_cache(cache, x, y, v, maxlen)
                textprep.save_vocab(cache + ".vocab.json",
                                    textprep.Vocabulary(tokens))
                xs, ys, _ = textprep.read_cache(cache)
                vocab = textprep.load_vocab(cache + ".vocab.json")
                models[label] = model_zoo.build(
                    PRESET, vocab, maxlen=maxlen, seed=seed,
                    embed_dim=sc.embed_dim, lstm_units=sc.lstm_units,
                    dtype=dtype)
            ops.record(np.array_equal(xs, x) and np.array_equal(ys, y),
                       f"{label}: cache round trip changed the sequences")
        ys = ys.astype(np.float64)
        sets[label] = (xs[:n_train], ys[:n_train], xs[n_train:], ys[n_train:])
    config = optim.TrainConfig(epochs=1, batch_size=sc.batch, seed=seed)

    # One untimed train step and prepare before timing: the first of each
    # in a process pays for faulting in its working set, which on a busy
    # machine costs about as much again, once per process.
    with _untraced(tracer):
        train_x, train_y, val_x, val_y = sets["f64"]
        optim.fit(models["f64"], train_x[:sc.batch], train_y[:sc.batch],
                  val_x[:1], val_y[:1], config)
        out = str(work / "corpus.svec")
        code, stdout = _prepare(csvs["warm-fake"], csvs["warm-true"], out,
                                seed, sc)
    _check_prepare(ops, code, stdout, out, k, k, maxlen)

    # Every timed phase but set-up runs in rounds that repeat until the run
    # has measured `seconds`. Each metric so samples the whole run rather
    # than one stretch of it: on a shared machine the speed changes every
    # few seconds.
    path = str(work / "checkpoint.json")
    measure_start = time.perf_counter()
    rounds = 0
    while rounds < sc.rounds or time.perf_counter() - measure_start < seconds:
        for label, _ in DTYPE_PASSES:
            _phase(tracer, label)
            with timings.time(f"fit.{label}"):
                history = optim.fit(models[label], *sets[label], config)
            last = history.epochs[-1]
            # bce clamps its probabilities, so a batch loss is finite unless
            # the model produced NaN, and then the epoch mean is NaN too.
            ops.record(math.isfinite(last["train_loss"]),
                       f"{label}: non-finite train loss",
                       count=sc.train_batches)
            ops.record(math.isfinite(last["val_loss"]),
                       f"{label}: non-finite val_loss")
            info[f"train_loss_last.{label}"] = last["train_loss"]

        _phase(tracer, "serve")
        for _ in range(sc.repeats):
            with timings.time("save"):
                models["f64"].save(path)
            with timings.time("cold_start"):
                loaded = model_zoo.load(path)
                first = loaded.predict(texts[0])
            check_predict(*first)
            with timings.time("eval"):
                probs = optim.predict_in_batches(loaded, eval_x)
                _, report = objective.evaluate(probs,
                                               eval_y.astype(np.float64))
            ops.record(bool(np.all((probs >= 0.0) & (probs <= 1.0))),
                       "eval probability outside [0, 1]", count=len(eval_x))
            try:
                json.dumps(dataclasses.asdict(report), allow_nan=False)
                valid = True
            except ValueError:
                valid = False
            ops.record(valid, "eval report is not valid JSON")
        if rounds == 0:
            batch = min(len(eval_x), 256)
            ops.record(np.array_equal(
                           models["f64"].predict_proba(eval_x[:batch]),
                           probs[:batch]),
                       "load(save(m)) predicts differently from m on the "
                       "eval batch")

        _phase(tracer, "prepare")
        with timings.time("prepare"):
            code, stdout = _prepare(csvs["fake"], csvs["true"], out, seed, sc)
        _check_prepare(ops, code, stdout, out, n, n, maxlen)

        _phase(tracer, "predict")
        for text in texts:
            with timings.time("predict"):
                prob, label = loaded.predict(text)
            check_predict(prob, label)

        _phase(tracer, "gradcheck")
        with timings.time("gradcheck"):
            results = gradcheck.run_all(seed=GRADCHECK_SEED,
                                        presets=GRADCHECK_PRESETS)
        for r in results:
            ops.record(r["rel_error"] < GRADCHECK_TOLERANCE and r["pass"],
                       f"gradcheck {r['name']} rel_error "
                       f"{r['rel_error']:.3e}")
        rounds += 1
    checkpoint_mb = os.path.getsize(path) / 1e6

    def percentile(q):
        return lambda values: float(np.percentile(np.array(values) * 1e3, q))

    def train_rate(values):
        return n_train / statistics.median(values)

    return _finish(timings, ops, {
        "setup_s": ("setup", statistics.median, "s"),
        "train_examples_per_s.f64": ("fit.f64", train_rate, "examples/s"),
        "train_examples_per_s.f32": ("fit.f32", train_rate, "examples/s"),
        "checkpoint_save_s": ("save", statistics.median, "s"),
        "predict_cold_start_s": ("cold_start", statistics.median, "s"),
        "eval_examples_per_s": (
            "eval", lambda s: len(eval_x) / statistics.median(s),
            "examples/s"),
        "predict_latency_ms.p50": ("predict", percentile(50), "ms"),
        "predict_latency_ms.p90": ("predict", percentile(90), "ms"),
        "prepare_articles_per_s": (
            "prepare", lambda s: statistics.median(2 * n / t for t in s),
            "articles/s"),
        "gradcheck_s": ("gradcheck", statistics.median, "s"),
    }, {**info, "rounds": rounds, "gradcheck_checks": len(results),
        "predict_samples": len(timings.intervals["predict"])},
        {"checkpoint_mb": (checkpoint_mb, "MB")})
