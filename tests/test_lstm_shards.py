"""Inference LSTM calls split their batch rows across BLAS threads.

`layers.blas.threads` is set to 2 here, so the shards run on any machine;
each shard's products then run on one BLAS thread and must give the bits
of the one-shard call. Shapes sit just at or above the bound in
`layers._shards`: at B = 512, H = 64 each of two shards does exactly
SHARD_MULADDS multiply-adds per step.
"""

import concurrent.futures
import importlib.util
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from seqveritas import blas, layers, model_zoo, textprep
from seqveritas.layers import (ParamTensor, embedding_forward, lstm_forward,
                               lstm_infer)
from seqveritas.optim import PREDICT_BATCH, predict_in_batches
from tests.conftest import wait_for_child

BATCH, STEPS, D, HIDDEN, VOCAB = 512, 3, 8, 64, 40
# the BLAS thread count itself: the `threads` fixture replaces only what
# `layers` reads
REAL_THREADS = blas.threads
SRC = str(Path(layers.__file__).parents[1])


def _case(dtype, batch=BATCH, steps=STEPS, d=D, hidden=HIDDEN):
    """(indices, [table, W, U, b]): rows with 0 to `steps` leading PAD
    steps, in turn."""
    rng = np.random.default_rng(21)
    indices = rng.integers(1, VOCAB, (batch, steps))
    for row in range(batch):
        indices[row, :row % (steps + 1)] = 0
    params = [ParamTensor(name, rng.uniform(-0.5, 0.5, shape).astype(dtype))
              for name, shape in (("E", (VOCAB, d)),
                                  ("W", (d, 4 * hidden)),
                                  ("U", (hidden, 4 * hidden)),
                                  ("b", (4 * hidden,)))]
    return indices, params


@pytest.fixture
def threads(monkeypatch):
    """Sets the BLAS thread count that `layers` sees; returns the setter."""
    def set_threads(n):
        monkeypatch.setattr(layers.blas, "threads", lambda: n)
    return set_threads


@pytest.fixture
def rows_seen(monkeypatch):
    """The row count of every `_lstm_rows` call, in call order."""
    seen = []
    run = layers._lstm_rows

    def counted(at, *args):
        seen.append(at.shape[1])
        return run(at, *args)

    monkeypatch.setattr(layers, "_lstm_rows", counted)
    return seen


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_two_shards_give_the_bits_of_one(threads, rows_seen, dtype):
    indices, params = _case(dtype)
    threads(1)
    one = lstm_infer(indices, *params)
    threads(2)
    two = lstm_infer(indices, *params)
    assert rows_seen == [BATCH, BATCH // 2, BATCH // 2]
    assert two.dtype == dtype and two.shape == (BATCH, HIDDEN)
    assert two.tobytes() == one.tobytes()
    trained, _ = lstm_forward(embedding_forward(indices, params[0]),
                              *params[1:])
    assert trained.tobytes() == one.tobytes()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_predict_in_batches_gives_the_bits_of_one_shard(threads, rows_seen,
                                                        dtype):
    vocab = textprep.build_vocab([["fake", "news", "real", "story"]],
                                 min_freq=1)
    model = model_zoo.build("optimized", vocab, maxlen=STEPS, seed=5,
                            embed_dim=D, lstm_units=128, dtype=dtype)
    x = np.random.default_rng(6).integers(
        0, len(vocab), (2 * PREDICT_BATCH + 40, STEPS))
    threads(1)
    one = predict_in_batches(model, x)
    threads(2)
    del rows_seen[:]
    two = predict_in_batches(model, x)
    # the two full batches split; the last one, of 40 rows, does not
    assert rows_seen == [PREDICT_BATCH // 2] * 4 + [40]
    assert two.tobytes() == one.tobytes()


def test_a_sharded_call_runs_blas_on_one_thread_and_restores_it(
        monkeypatch, threads):
    before = REAL_THREADS()
    counts = []
    run = layers._lstm_rows

    def counting(*args):
        counts.append(REAL_THREADS())
        return run(*args)

    indices, params = _case(np.float64)
    threads(2)
    monkeypatch.setattr(layers, "_lstm_rows", counting)
    lstm_infer(indices, *params)
    assert counts == [1, 1]
    assert REAL_THREADS() == before


def _enters_single_thread_elsewhere():
    """Whether another thread enters and leaves `blas.single_thread()`
    within a minute, as it does once no thread holds its lock."""
    def enter_and_leave():
        with blas.single_thread():
            pass

    other = threading.Thread(target=enter_and_leave)
    other.start()
    other.join(timeout=60)
    return not other.is_alive()


@pytest.mark.parametrize("where", ["caller", "pool"])
def test_a_shard_that_raises_restores_blas_and_the_lock(monkeypatch, threads,
                                                        where):
    before = REAL_THREADS()
    alive = set(threading.enumerate())
    caller = threading.current_thread()
    run = layers._lstm_rows

    def failing(*args):
        if (threading.current_thread() is caller) == (where == "caller"):
            raise FloatingPointError(where)
        return run(*args)

    indices, params = _case(np.float64)
    threads(2)
    monkeypatch.setattr(layers, "_lstm_rows", failing)
    with pytest.raises(FloatingPointError, match=where):
        lstm_infer(indices, *params)
    assert REAL_THREADS() == before
    assert set(threading.enumerate()) == alive
    assert _enters_single_thread_elsewhere()


def test_a_sharded_call_leaves_no_thread_behind(monkeypatch, threads):
    alive = set(threading.enumerate())
    ran_on = []
    run = layers._lstm_rows

    def recorded(*args):
        ran_on.append(threading.current_thread())
        return run(*args)

    indices, params = _case(np.float64)
    threads(2)
    monkeypatch.setattr(layers, "_lstm_rows", recorded)
    for _ in range(3):
        lstm_infer(indices, *params)
    shard_threads = set(ran_on) - {threading.current_thread()}
    assert len(ran_on) == 6 and shard_threads
    assert not any(t.is_alive() for t in shard_threads)
    assert set(threading.enumerate()) == alive


def test_below_the_bound_no_pool_is_made(monkeypatch, threads, rows_seen):
    def no_pool(*args, **kwargs):
        raise AssertionError("an unsharded call made an executor")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    alive = set(threading.enumerate())
    threads(2)
    # half the batch: two shards would each fall below SHARD_MULADDS
    indices, params = _case(np.float64, batch=BATCH // 2)
    lstm_infer(indices, *params)
    # training runs the whole batch in one pass at any batch
    lstm_forward(embedding_forward(indices, params[0]), *params[1:])
    # d or H above SHARD_MAX_K: one-thread products would sum K in other
    # blocks
    for wide in ({"d": layers.SHARD_MAX_K + 1},
                 {"hidden": layers.SHARD_MAX_K + 1}):
        indices, params = _case(np.float64, **wide)
        lstm_infer(indices, *params)
    assert rows_seen == [BATCH // 2, BATCH, BATCH]
    assert set(threading.enumerate()) == alive


# A one-text predict, a training step and an eval at gradcheck's miniature
# shapes, in a fresh interpreter: none of them shards.
UNSHARDED_CALLS = """
import sys, threading
import numpy as np
from seqveritas import gradcheck, objective
from seqveritas.optim import TrainConfig, fit, predict_in_batches
model = gradcheck.mini_model("optimized", seed=0)
x = np.random.default_rng(0).integers(
    0, len(model.vocab), (2048, gradcheck.MINI["maxlen"]))
y = (x[:, -1] % 2).astype(np.float64)
model.predict("a fake news story")
fit(model, x[:4], y[:4], x[4:8], y[4:8], TrainConfig(epochs=1, batch_size=4))
objective.evaluate(predict_in_batches(model, x), y)
print(threading.active_count(), "concurrent.futures" in sys.modules)
"""


def test_unsharded_calls_start_no_thread_and_import_no_executor():
    # `concurrent.futures` costs 7 ms of import, with `logging`, that a
    # cold `predict` does not pay
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", UNSHARDED_CALLS],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False"]


def test_concurrent_callers_each_get_the_one_shard_bits(threads):
    indices, params = _case(np.float64)
    threads(1)
    want = lstm_infer(indices, *params)
    threads(2)
    before = REAL_THREADS()
    results, errors = [], []

    def call():
        try:
            for _ in range(3):
                results.append(lstm_infer(indices, *params))
        except Exception as e:  # reported below, with the thread's result
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert errors == []
    assert len(results) == 12
    assert all(h.tobytes() == want.tobytes() for h in results)
    assert REAL_THREADS() == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_forked_child_shards_with_a_pool_of_its_own(threads):
    indices, params = _case(np.float64)
    threads(2)
    want = lstm_infer(indices, *params)
    pid = os.fork()
    if pid == 0:
        try:
            got = lstm_infer(indices, *params)
            os._exit(0 if got.tobytes() == want.tobytes() else 1)
        finally:
            os._exit(2)
    assert wait_for_child(pid, "sharded call") == 0


# Inference against the training forward over the same lookup, at the
# process's real BLAS thread count. (B, T, d, H, leading PAD steps of the
# rows in turn):
# - B = 1: every recurrent product an M = 1 GEMV
# - B = 5 and 13 at H = 150: recurrent products just below and just above
#   SMALL_GEMM_MULADDS (12 rows), one shard; with every row in its PAD
#   prefix at first, the shared rows run alone
# - B = 100 at H = 150: two shards of at least 47 rows at 2 threads, and
#   one with d = 300 > SHARD_MAX_K
# - gradcheck's miniature shapes, and its eval batch, once with no PAD
# Each case runs at PROJECT_BYTES, which projects it in one run, and at
# 1 KB, which cuts a run at every step (or every few, at H = 8).
INFERENCE_BITS = """
import numpy as np
from seqveritas import blas, layers
from seqveritas.layers import (ParamTensor, embedding_forward, lstm_forward,
                               lstm_infer)
cases = [(1, 40, 100, 150, [25]), (1, 40, 100, 150, [40]),
         (5, 30, 100, 150, [0, 3, 29, 30]), (5, 30, 100, 150, [3, 5, 29, 30]),
         (13, 30, 100, 150, [0, 3, 29, 30]),
         (13, 30, 100, 150, [3, 5, 29, 30]),
         (100, 20, 100, 150, [0, 3, 19, 20]),
         (100, 12, 300, 150, [0, 3, 11, 12]), (4, 6, 8, 8, [1, 3, 5, 6]),
         (256, 6, 8, 8, [0, 3, 5, 6]), (256, 6, 8, 8, [0])]
wrong, sharded = [], 0
for dtype, budget in [(t, b) for t in (np.float64, np.float32)
                      for b in (layers.PROJECT_BYTES, 1 << 10)]:
    layers.PROJECT_BYTES = budget
    for batch, steps, d, hidden, pads in cases:
        rng = np.random.default_rng(batch + steps + d)
        indices = rng.integers(1, 500, (batch, steps))
        for row, n in enumerate(np.resize(pads, batch)):
            indices[row, :n] = 0
        params = [ParamTensor(k, rng.uniform(-0.5, 0.5, s).astype(dtype))
                  for k, s in (("E", (500, d)), ("W", (d, 4 * hidden)),
                               ("U", (hidden, 4 * hidden)),
                               ("b", (4 * hidden,)))]
        want, _ = lstm_forward(embedding_forward(indices, params[0]),
                               *params[1:])
        got = lstm_infer(indices, *params)
        sharded += layers._shards(batch, d, hidden) > 1
        if got.dtype != dtype or got.tobytes() != want.tobytes():
            wrong.append((np.dtype(dtype).name, budget, batch, steps, d,
                          hidden, pads))
print(blas.threads(), sharded, wrong)
"""


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_inference_gives_the_training_bits(blas_threads):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", INFERENCE_BITS], capture_output=True,
        text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path,
                 OPENBLAS_NUM_THREADS=blas_threads))
    assert proc.returncode == 0, proc.stderr
    threads, sharded, wrong = proc.stdout.rsplit(maxsplit=2)
    assert wrong == "[]", proc.stdout
    if threads == "2":  # a build without OpenBLAS has one thread only
        assert sharded == "4"


def _bench_eval_batch():
    """The `paper` workload's eval batch: Synth(1)'s 256 sequences of
    T = 200 over V = 20,000, as perfbench/synth.py makes them."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_synth", Path(SRC).parent / "perfbench" / "synth.py")
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    return synth.Synth(1).sequences(256, 20_000, 200)[0]


def test_a_paper_shape_eval_holds_less_than_the_lookup_did(threads):
    indices = _bench_eval_batch()
    batch, steps = indices.shape
    vocab, d, hidden = 20_000, 100, 150
    rng = np.random.default_rng(3)
    params = [ParamTensor(name, rng.uniform(-0.1, 0.1, shape))
              for name, shape in (("E", (vocab, d)), ("W", (d, 4 * hidden)),
                                  ("U", (hidden, 4 * hidden)),
                                  ("b", (4 * hidden,)))]
    threads(2)
    tracemalloc.start()
    try:
        lstm_infer(indices, *params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # what inference held before it took the table: the (B, T, d) lookup,
    # and two shards' buffers: 13 steps of gates (4H) and of time-major x
    # (d), c and h in two slots, tanh(c), i * g and h U, for 128 rows each
    lookup = batch * steps * d * 8
    shards = batch * (13 * (4 * hidden + d) + 6 * hidden + 4 * hidden) * 8
    assert peak < lookup + shards
