"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with -s to see them). Corpus-dependent criteria are skipped
unless SEQVERITAS_CORPUS_DIR points at Fake.csv/True.csv; the full-corpus
runs additionally require SEQVERITAS_FULL_CORPUS=1 (hours of CPU).
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from seqveritas import gradcheck, ingest, model_zoo, optim, textprep
from seqveritas.cli import TRAIN_FRAC, main
from seqveritas.layers import ParamTensor
from seqveritas.numerics import Prng
from seqveritas.objective import evaluate
from tests.conftest import TOY_FAKE, TOY_TRUE, corpus_dir, needs_corpus

needs_full_corpus = pytest.mark.skipif(
    os.environ.get("SEQVERITAS_FULL_CORPUS") != "1",
    reason="set SEQVERITAS_FULL_CORPUS=1 for the multi-hour full-corpus runs")


def _report(num, name, fn):
    try:
        fn()
    except BaseException:
        print(f"\n[criterion {num}] {name}: FAIL")
        raise
    print(f"\n[criterion {num}] {name}: PASS")


# --- 1: gradient correctness ------------------------------------------------

def test_c1_gradient_correctness():
    def body():
        start = time.monotonic()
        results = gradcheck.run_all(seed=0)
        elapsed = time.monotonic() - start
        worst = max(results, key=lambda r: r["rel_error"])
        assert all(r["pass"] for r in results), worst
        assert worst["rel_error"] < 1e-4
        assert elapsed < 60.0, f"gradcheck took {elapsed:.1f}s"

    _report(1, "gradient correctness (all layers + end-to-end presets)", body)


# --- 2: oracle equivalence --------------------------------------------------

def _hand_lstm_two_step(x, w, u, b, hidden):
    """Scalar, fully unrolled LSTM trace: an independent route from the
    vectorized implementation."""
    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h = [0.0] * hidden
    c = [0.0] * hidden
    for t in range(len(x)):
        z = [0.0] * (4 * hidden)
        for j in range(4 * hidden):
            acc = b[j]
            for i_in in range(len(x[t])):
                acc += x[t][i_in] * w[i_in][j]
            for i_h in range(hidden):
                acc += h[i_h] * u[i_h][j]
            z[j] = acc
        new_h, new_c = [], []
        for k in range(hidden):
            gi = sig(z[k])
            gf = sig(z[hidden + k])
            gg = math.tanh(z[2 * hidden + k])
            go = sig(z[3 * hidden + k])
            ck = gf * c[k] + gi * gg
            new_c.append(ck)
            new_h.append(go * math.tanh(ck))
        h, c = new_h, new_c
    return h


def test_c2_oracle_equivalence():
    def body():
        # metrics vs brute-force recount on 1,000 random pairs, exact
        rng = Prng(123)
        probs = [rng.next_f64() for _ in range(1000)]
        labels = [rng.randbelow(2) for _ in range(1000)]
        cm, rep = evaluate(probs, labels)
        tp = sum(1 for p, y in zip(probs, labels) if p >= 0.5 and y == 1)
        fp = sum(1 for p, y in zip(probs, labels) if p >= 0.5 and y == 0)
        fn = sum(1 for p, y in zip(probs, labels) if p < 0.5 and y == 1)
        tn = 1000 - tp - fp - fn
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (tp, fp, fn, tn)
        assert rep.accuracy == (tp + tn) / 1000
        assert rep.precision == (tp / (tp + fp) if tp + fp else 0.0)
        assert rep.recall == (tp / (tp + fn) if tp + fn else 0.0)

        # 2-step hand-unrolled LSTM (H=2, d=2) vs lstm_forward, 1e-12
        prng = Prng(7)
        hidden, d = 2, 2
        wv = prng.uniform(-0.6, 0.6, (d, 4 * hidden))
        uv = prng.uniform(-0.6, 0.6, (hidden, 4 * hidden))
        bv = prng.uniform(-0.3, 0.3, (1, 4 * hidden))[0]
        xv = prng.uniform(-1.0, 1.0, (1, 2, d))
        w = ParamTensor("W", wv)
        u = ParamTensor("U", uv)
        b = ParamTensor("b", bv)
        h_impl, _ = model_zoo.lstm_forward(xv, w, u, b)
        h_hand = _hand_lstm_two_step(xv[0].tolist(), wv.tolist(),
                                     uv.tolist(), bv.tolist(), hidden)
        assert np.max(np.abs(h_impl[0] - np.array(h_hand))) < 1e-12

    _report(2, "oracle equivalence (metrics recount, hand LSTM trace)", body)


# --- 3: optimizer trace -----------------------------------------------------

def test_c3_adam_hand_trace():
    def body():
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8  # optim's fixed constants
        w, m, v = 0.25, 0.0, 0.0
        for t, g in enumerate([1.0, -1.0, 1.0], start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)

        p = ParamTensor("w", np.array([0.25]))
        state = optim.AdamState(lr=lr)
        for g in [1.0, -1.0, 1.0]:
            p.grad[...] = [g]
            optim.adam_step([p], state)
        assert abs(p.value[0] - w) < 1e-12

    _report(3, "Adam three-step hand trace", body)


# --- 4: toy-corpus overfit --------------------------------------------------

def test_c4_toy_overfit(toy_encoded):
    def body():
        start = time.monotonic()
        x, y, vocab, maxlen = toy_encoded
        model = model_zoo.build("baseline", vocab, maxlen=maxlen, seed=42)
        optim.fit(model, x, y, x, y,
                  optim.TrainConfig(epochs=30, batch_size=8, seed=42,
                                    patience=100))
        probs = optim.predict_in_batches(model, x)
        acc = float(np.mean((probs >= 0.5) == (y == 1)))
        elapsed = time.monotonic() - start
        assert acc == 1.0
        assert elapsed < 30.0, f"toy fit took {elapsed:.1f}s"

    _report(4, "toy-corpus overfit (train accuracy 1.0, seed 42)", body)


# --- 5: determinism ---------------------------------------------------------

def _transcript(tmp_path, capsys, tag):
    d = tmp_path / tag
    d.mkdir()
    cache = str(d / "toy.svec")
    ckpt = str(d / "model.svchk")
    argvs = [
        ["prepare", "--fake", TOY_FAKE, "--true", TOY_TRUE, "--out", cache,
         "--seed", "42", "--maxlen", "10", "--vocab-size", "100",
         "--min-freq", "1"],
        ["train", "--data", cache, "--preset", "baseline", "--seed", "42",
         "--epochs", "5", "--batch", "8", "--patience", "50",
         "--out-checkpoint", ckpt],
        ["eval", "--checkpoint", ckpt, "--data", cache],
    ]
    stdout = ""
    for argv in argvs:
        # paths differ between runs; normalize them out of the transcript
        assert main(argv) == 0
        out = capsys.readouterr().out
        stdout += out.replace(str(d), "DIR")
    artifacts = {
        "cache": Path(cache).read_bytes(),
        "vocab": Path(cache + ".vocab.json").read_bytes(),
        "ckpt": Path(ckpt).read_bytes(),
        "history": Path(ckpt + ".history.jsonl").read_bytes(),
    }
    return stdout, artifacts


def test_c5_transcript_determinism(tmp_path, capsys):
    def body():
        out1, art1 = _transcript(tmp_path, capsys, "run1")
        out2, art2 = _transcript(tmp_path, capsys, "run2")
        assert out1 == out2
        for key in art1:
            assert art1[key] == art2[key], f"{key} differs between runs"

    _report(5, "prepare->train->eval transcript byte-identical", body)


# --- 6: checkpoint round-trip ----------------------------------------------

def test_c6_checkpoint_round_trip(tmp_path):
    def body():
        vocab = textprep.Vocabulary([f"t{i}" for i in range(40)])
        model = model_zoo.build("optimized", vocab, maxlen=8, seed=13,
                                embed_dim=8, lstm_units=8)
        path = str(tmp_path / "m.svchk")
        model.save(path)
        loaded = model_zoo.load(path)
        rng = Prng(99)
        x = np.array([[rng.randbelow(len(vocab)) for _ in range(8)]
                      for _ in range(100)])
        before = model.predict_proba(x)
        after = loaded.predict_proba(x)
        assert np.array_equal(before, after)
        assert np.max(np.abs(before - after)) == 0.0

    _report(6, "checkpoint round-trip, 100 random inputs, delta 0", body)


# --- 7/8: paper-number reproduction (conditional on the Kaggle corpus) ------

def _load_corpus():
    d = corpus_dir()
    return (ingest.load_articles(os.path.join(d, "Fake.csv")),
            ingest.load_articles(os.path.join(d, "True.csv")))


def _encode_merged(merged, maxlen=200, max_vocab=20_000):
    token_lists = [textprep.preprocess(title, body)
                   for title, body, _ in merged]
    n_train = int(TRAIN_FRAC * len(token_lists))
    vocab = textprep.build_vocab(token_lists[:n_train], max_size=max_vocab)
    x = np.array([textprep.encode(t, vocab, maxlen) for t in token_lists])
    y = np.array([label for _, _, label in merged], dtype=np.float64)
    return (x[:n_train], y[:n_train], x[n_train:], y[n_train:], vocab)


@needs_corpus
def test_c7_subsample_baseline():
    def body():
        fake, true_ = _load_corpus()
        merged = ingest.merge_shuffle(fake, true_, seed=42)[:5000]
        tx, ty, vx, vy, vocab = _encode_merged(merged)
        model = model_zoo.build("baseline", vocab, maxlen=200, seed=42,
                                dtype="float32")
        optim.fit(model, tx, ty, vx, vy,
                  optim.TrainConfig(epochs=5, batch_size=64, seed=42))
        probs = optim.predict_in_batches(model, vx)
        _, rep = evaluate(probs, vy)
        assert rep.accuracy >= 0.90, f"val accuracy {rep.accuracy:.4f}"

    _report(7, "subsampled corpus: baseline validation accuracy >= 0.90", body)


@needs_corpus
def test_c7_corpus_counts():
    def body():
        fake, true_ = _load_corpus()
        # canonical files only; public copies vary by a few rows
        if len(fake) != 23_502 or len(true_) != 21_417:
            pytest.skip(f"non-canonical corpus copy: {len(fake)}/{len(true_)}")
        assert len(fake) + len(true_) == 44_919

    _report(7, "corpus counts 23,502 / 21,417 / 44,919", body)


@needs_corpus
@needs_full_corpus
def test_c7_full_corpus_accuracy_ordering():
    def body():
        fake, true_ = _load_corpus()
        merged = ingest.merge_shuffle(fake, true_, seed=42)
        tx, ty, vx, vy, vocab = _encode_merged(merged)
        targets = {"baseline": 0.94, "regularized": 0.97, "optimized": 0.98}
        acc = {}
        reports = {}
        for preset in model_zoo.PRESETS:
            model = model_zoo.build(preset, vocab, maxlen=200, seed=42,
                                    dtype="float32")
            optim.fit(model, tx, ty, vx, vy,
                      optim.TrainConfig(epochs=10, batch_size=64, seed=42))
            probs = optim.predict_in_batches(model, vx)
            _, rep = evaluate(probs, vy)
            acc[preset] = rep.accuracy
            reports[preset] = rep
        for preset, target in targets.items():
            assert abs(acc[preset] - target) <= 0.03, (preset, acc[preset])
        assert acc["optimized"] >= acc["regularized"] >= acc["baseline"]
        test_c7_full_corpus_accuracy_ordering.reports = reports

    _report(7, "full corpus: 94/97/98 within 3pp and ordering holds", body)


@needs_corpus
@needs_full_corpus
def test_c8_table_metrics_optimized():
    def body():
        reports = getattr(test_c7_full_corpus_accuracy_ordering, "reports",
                          None)
        if reports is None:
            pytest.skip("run the full-corpus ordering test first")
        rep = reports["optimized"]
        assert abs(rep.precision - 0.97) <= 0.03
        assert abs(rep.recall - 0.98) <= 0.03
        assert abs(rep.f1 - 0.98) <= 0.03

    _report(8, "optimized precision/recall/F1 within 0.03 of 0.97/0.98/0.98",
            body)
