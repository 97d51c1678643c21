"""LSTM calls split their batch rows into shards, one per thread of the
budget that `blas.threads` reports.

`layers.blas.threads` is set to 2 here, so the shards run on any machine;
every product runs on the one BLAS thread that importing seqveritas
sets, and a sharded call must give the bits of the one-shard call. The
training tests run in fresh interpreters under several
OPENBLAS_NUM_THREADS, which sets the budget. Training and inference take
their shards from one plan, `layers._lstm_cuts`: contiguous blocks of
batch rows, once the whole batch's recurrent product does SHARD_MULADDS
multiply-adds per step. At H = 64 that is 256 rows, and B = 512 splits
into two shards of 256.
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
from seqveritas.layers import (ParamTensor, embedding_forward, lstm_backward,
                               lstm_forward, lstm_infer)
from seqveritas.optim import PREDICT_BATCH, predict_in_batches
from tests.conftest import wait_for_child

BATCH, STEPS, D, HIDDEN, VOCAB = 512, 3, 8, 64, 40
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


def _live_threads():
    """OpenBLAS's own thread count; 1 without an OpenBLAS."""
    api = blas._api()
    return 1 if api is None else api.get_threads()


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

    def counted(indices, *args):
        seen.append(indices.shape[0])
        return run(indices, *args)

    monkeypatch.setattr(layers, "_lstm_rows", counted)
    return seen


# P's bytes: PROJECT_BYTES takes every step in one run; 1 KB and 48 rows
# of P, fewer than one step's 512 positions, give a span of one step. The
# span is the call's, so both calls cut the same runs
@pytest.mark.parametrize("dtype, budget", [
    pytest.param(dtype, budget, id=np.dtype(dtype).name + tag)
    for dtype in (np.float64, np.float32)
    for budget, tag in ((layers.PROJECT_BYTES, ""), (1 << 10, "-1KB"),
                        (48 * 4 * HIDDEN * np.dtype(dtype).itemsize,
                         "-48rows"))])
def test_two_shards_give_the_bits_of_one(monkeypatch, threads, rows_seen,
                                         dtype, budget):
    monkeypatch.setattr(layers, "PROJECT_BYTES", budget)
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


# Widths past those where OpenBLAS's threaded drivers sum K in other
# blocks than its one-thread driver: at one BLAS thread the inference
# shards still give the one-shard bits and the training bits. 100 rows
# make two shards of 50 at H = 150 (where the bound is 47 rows) and at
# H = 300 (12)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("d, hidden", [(257, 150), (300, 150), (449, 150),
                                       (100, 300), (300, 300)])
def test_two_shards_give_the_bits_of_one_at_wide_shapes(threads, rows_seen,
                                                        dtype, d, hidden):
    indices, params = _case(dtype, batch=100, d=d, hidden=hidden)
    threads(1)
    one = lstm_infer(indices, *params)
    trained, _ = lstm_forward(embedding_forward(indices, params[0]),
                              *params[1:])
    threads(2)
    two = lstm_infer(indices, *params)
    assert rows_seen == [100, 50, 50]
    assert two.tobytes() == one.tobytes()
    assert trained.tobytes() == one.tobytes()


# At the paper's widths, batches from the bound (47 rows at H = 150) to
# two bounds less a row: inference cuts them into the two contiguous row
# blocks that training does, and gives the one-shard bits and the
# training bits. 20 steps give the rows 0 to 20 leading PAD steps
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("batch", [47, 64, 93])
def test_inference_shards_are_trainings_contiguous_blocks(
        monkeypatch, threads, rows_seen, dtype, batch):
    steps, d, hidden = 20, 100, 150
    indices, params = _case(dtype, batch=batch, steps=steps, d=d,
                            hidden=hidden)
    threads(1)
    one = lstm_infer(indices, *params)
    trained, _ = lstm_forward(embedding_forward(indices, params[0]),
                              *params[1:])
    taken = []
    counted = layers._lstm_rows

    def recorded(rows, *args):
        taken.append(rows)
        return counted(rows, *args)

    monkeypatch.setattr(layers, "_lstm_rows", recorded)
    threads(2)
    two = lstm_infer(indices, *params)
    half = batch // 2
    blocks = [slice(0, half), slice(half, batch)]
    assert layers._lstm_cuts(batch, steps, d, hidden)[1] == blocks
    # the shards' threads make their loops in either order
    assert rows_seen[0] == batch
    assert sorted(rows_seen[1:]) == [half, batch - half]
    assert sorted(rows.tobytes() for rows in taken) == sorted(
        indices[block].tobytes() for block in blocks)
    assert two.tobytes() == one.tobytes()
    assert trained.tobytes() == one.tobytes()


class _Takes(np.ndarray):
    """A table that records, with the calling thread, the rows each
    `take` picks: `lstm_infer` takes each run's rows of the table with
    one."""

    def take(self, pick, *args):
        self.log.append((threading.current_thread(), np.array(pick)))
        return np.asarray(self).take(pick, *args)


# 512 rows of 9 steps, with 0 to 9 PAD steps in turn, over 4,000 tokens:
# a budget of the batch's distinct tokens' rows of P takes them in one
# run, though its B * T positions would not fit it; a budget of two
# steps' positions, fewer rows than the distinct tokens, falls back to
# runs of two steps. On two shards the one run's P is made in two
# blocks; the first run of two steps has fewer distinct tokens than
# `_least_rows`, so its P is padded and made in one block
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_call_takes_each_runs_distinct_tokens_once(monkeypatch, threads,
                                                     dtype):
    steps, vocab = 9, 4000
    indices, params = _case(dtype, steps=steps)
    rng = np.random.default_rng(7)
    indices[indices != 0] = rng.integers(1, vocab, (indices != 0).sum())
    table = params[0]
    table.value = rng.uniform(-0.5, 0.5, (vocab, D)).astype(dtype)
    trained, _ = lstm_forward(embedding_forward(indices, table), *params[1:])
    table.value = table.value.view(_Takes)
    whole = np.unique(indices)
    assert 2 * BATCH < whole.size < BATCH * steps
    by_two = [np.unique(indices[:, t:t + 2]) for t in range(0, steps, 2)]
    least = layers._least_rows(BATCH * steps, D * 4 * HIDDEN)
    assert by_two[0].size < least < max(tokens.size for tokens in by_two)
    for rows, runs in ((whole.size, [whole]), (2 * BATCH, by_two)):
        monkeypatch.setattr(layers, "PROJECT_BYTES",
                            rows * 4 * HIDDEN * np.dtype(dtype).itemsize)
        for shards in (1, 2):
            table.value.log = []
            threads(shards)
            got = lstm_infer(indices, *params)
            assert got.tobytes() == trained.tobytes()
            assert [on for on, _ in table.value.log] == [
                threading.current_thread()] * len(runs)
            for (_, pick), tokens in zip(table.value.log, runs):
                assert pick.size == max(tokens.size, least)
                assert np.array_equal(pick[:tokens.size], tokens)
                assert not pick[tokens.size:].any()


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


@pytest.mark.parametrize("where", ["caller", "pool"])
def test_a_shard_that_raises_joins_every_shard(monkeypatch, threads, where):
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
    assert set(threading.enumerate()) == alive


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
    # an inference and a training batch whose recurrent product is below
    # SHARD_MULADDS: 255 rows at H = 64
    rows = -(-layers.SHARD_MULADDS // (4 * HIDDEN * HIDDEN)) - 1
    indices, params = _case(np.float64, batch=rows)
    lstm_infer(indices, *params)
    x = embedding_forward(indices, params[0])
    lstm_backward(np.ones((rows, HIDDEN)), lstm_forward(x, *params[1:])[1],
                  *params[1:])
    assert rows_seen == [rows]
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
    assert _live_threads() == 1


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
# - B = 100 at H = 150 and d = 100 or 300: two shards of 50 rows at 2
#   threads
# - gradcheck's miniature shapes, and its eval batch, once with no PAD
# Each case runs at PROJECT_BYTES, which takes every step in one run, and
# at 1 KB, whose span is one step (two at B = 4, H = 8 in float32).
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
        sharded += layers._lstm_cuts(batch, steps, d, hidden)[0] > 1
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
        assert sharded == "8"


def _bench_eval_batch():
    """The `paper` workload's eval batch at seed 1: 256 sequences of
    T = 200 over V = 20,000, drawn from Synth(1) as perfbench/workloads.py
    draws them, after its 96 train and validation sequences."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_synth", Path(SRC).parent / "perfbench" / "synth.py")
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    syn = synth.Synth(1)
    syn.sequences(96, 20_000, 200)
    return syn.sequences(256, 20_000, 200)[0]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_paper_shape_eval_holds_less_than_the_lookup_did(threads, dtype):
    indices = _bench_eval_batch()
    batch, steps = indices.shape
    vocab, d, hidden = 20_000, 100, 150
    rng = np.random.default_rng(3)
    params = [ParamTensor(name, rng.uniform(-0.1, 0.1, shape).astype(dtype))
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
    # what float64 inference held before it took the table: the (B, T, d)
    # lookup, and two shards' buffers: 13 steps of gates (4H) and of
    # time-major x (d), c and h in two slots, tanh(c), i * g and h U, for
    # 128 rows each; float32 is held to the same at its itemsize
    item = np.dtype(dtype).itemsize
    lookup = batch * steps * d * item
    shards = batch * (13 * (4 * hidden + d) + 6 * hidden + 4 * hidden) * item
    assert peak < lookup + shards


# Training on shards against one shard, in a fresh interpreter whose
# budget OPENBLAS_NUM_THREADS sets; `blas.threads` is replaced by 1 for
# the one-shard run. H = 150, where SHARD_MULADDS is 47 rows:
# - the kernels at B = 64, at the bound (47) and just below it (46), in
#   both dtypes: h_T, grad x, dW, dU and db
# - a stacked W, U and b probe at B = 64, which must not shard: each h_T
#   of the stack against its own one-shard call
# - a whole `fit`, batches of 64 and a short last one of 50: the
#   weights and the history, its losses among them
# It prints the budget, the shard counts and the cases that differ, then
# a digest of every result, which must not depend on the budget.
TRAINING_BITS = """
import hashlib, json
import numpy as np
from seqveritas import blas, layers, model_zoo, optim, textprep
from seqveritas.layers import ParamTensor, lstm_backward, lstm_forward

BUDGET = blas.threads
HIDDEN = 150
shards, wrong, digest = [], [], hashlib.sha256()
side_by_side = layers._side_by_side


def counted(work, n):
    shards.append(n)
    return side_by_side(work, n)


layers._side_by_side = counted


def on_one_shard(run, *args):
    blas.threads = lambda: 1
    try:
        return run(*args)
    finally:
        blas.threads = BUDGET


def params(rng, dtype, d, stack=()):
    return [ParamTensor(k, (rng.standard_normal((*stack, *s)) * 0.1)
                        .astype(dtype))
            for k, s in (("W", (d, 4 * HIDDEN)), ("U", (HIDDEN, 4 * HIDDEN)),
                         ("b", (1, 4 * HIDDEN) if stack else (4 * HIDDEN,)))]


def kernels(batch, dtype):
    rng = np.random.default_rng(batch)
    x = rng.standard_normal((batch, 9, 20)).astype(dtype)
    grad_ht = rng.standard_normal((batch, HIDDEN)).astype(dtype)
    ps = params(rng, dtype, 20)
    h_t, cache = lstm_forward(x, *ps)
    grad_x = lstm_backward(grad_ht, cache, *ps)
    return [h_t, grad_x, *(p.grad for p in ps)]


def stacked(dtype):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((64, 9, 20)).astype(dtype)
    ps = params(rng, dtype, 20, stack=(3,))
    return [lstm_forward(x, *ps)[0]]


def unstacked(dtype):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((64, 9, 20)).astype(dtype)
    ps = params(rng, dtype, 20, stack=(3,))
    return [lstm_forward(x, *(ParamTensor(p.name, p.value[k].reshape(
        p.value.shape[1:] if p.name != "b" else -1)) for p in ps))[0]
        for k in range(3)]


def fitted(dtype):
    vocab = textprep.build_vocab([[f"w{k}" for k in range(60)]],
                                 min_freq=1)
    model = model_zoo.build("regularized", vocab, maxlen=8, seed=3,
                            embed_dim=16, lstm_units=HIDDEN,
                            dtype=np.dtype(dtype).name)
    rng = np.random.default_rng(4)
    x = rng.integers(0, len(vocab), (114 + 20, 8))
    y = (x[:, -1] % 2).astype(np.float64)
    history = optim.fit(model, x[:114], y[:114], x[114:], y[114:],
                        optim.TrainConfig(epochs=2, batch_size=64, seed=1))
    return [*(p.value for p in model.params),
            np.frombuffer(json.dumps(history.epochs).encode(), np.uint8)]


for dtype in (np.float64, np.float32):
    name = np.dtype(dtype).name
    cases = [(f"kernels-{b}", kernels, b) for b in (64, 47, 46)]
    cases += [("fit", fitted), ("stacked", stacked)]
    for case, run, *args in cases:
        del shards[:]
        got = run(*args, dtype)
        counts = list(shards)
        want = on_one_shard(unstacked if run is stacked else run, *args,
                            dtype)
        if b"".join(a.tobytes() for a in got) != b"".join(
                a.tobytes() for a in want):
            wrong.append(f"{name} {case}")
        for a in got:
            digest.update(np.ascontiguousarray(a).tobytes())
        print(f"{name} {case} {max(counts, default=1)}")
print(BUDGET(), wrong)
print(digest.hexdigest())
"""


@pytest.fixture(scope="module")
def training_runs():
    """OPENBLAS_NUM_THREADS -> (budget, {case: shards}, wrong, digest)."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    runs = {}
    for n in ("1", "2", "4"):
        proc = subprocess.run(
            [sys.executable, "-c", TRAINING_BITS], capture_output=True,
            text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=n))
        assert proc.returncode == 0, proc.stderr
        *cases, summary, digest = proc.stdout.splitlines()
        budget, wrong = summary.split(maxsplit=1)
        runs[n] = (int(budget), dict(line.rsplit(maxsplit=1)
                                     for line in cases), wrong, digest)
    return runs


@pytest.mark.parametrize("blas_threads", ["1", "2", "4"])
def test_training_shards_give_the_one_shard_bits(training_runs,
                                                  blas_threads):
    budget, shards, wrong, digest = training_runs[blas_threads]
    assert wrong == "[]"
    assert digest == training_runs["1"][3]
    for dtype in ("float64", "float32"):
        sharded = str(min(budget, 2)) if budget > 1 else "1"
        # 64 rows take at most 5 shards of 12; 47 rows hit the bound
        assert shards[f"{dtype} kernels-64"] == str(min(budget, 5))
        assert shards[f"{dtype} kernels-47"] == sharded
        assert shards[f"{dtype} fit"] == str(min(budget, 5))
        assert shards[f"{dtype} kernels-46"] == "1"
        assert shards[f"{dtype} stacked"] == "1"


# At odd H the float64 SkylakeX kernel rounds the rows of h U and x W by
# the product's row count, so a batch of 64 cut into two 32-row shards
# trains to other bits than on one shard
@pytest.mark.xfail(blas.core() == "SkylakeX", strict=True, reason=(
    "ROADMAP item 20: at odd H a float64 row's bits depend on the row "
    "count of its product, so shards cut at even rows change them"))
def test_training_shards_give_the_one_shard_bits_at_odd_hidden(threads):
    hidden = 151
    rng = np.random.default_rng(151)
    x = rng.standard_normal((64, 9, 20))
    grad_ht = rng.standard_normal((64, hidden))
    weights = [rng.standard_normal(s) * 0.1 for s in
               ((20, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,))]
    out = []
    for shards in (1, 2):
        threads(shards)
        assert layers._lstm_cuts(64, 9, 20, hidden)[0] == shards
        ps = [ParamTensor(k, v.copy()) for k, v in zip("WUb", weights)]
        h_t, cache = lstm_forward(x, *ps)
        grad_x = lstm_backward(grad_ht, cache, *ps)
        out.append([a.tobytes() for a in (h_t, grad_x, *(p.grad for p in ps))])
    # the names, not the bytes: a diff of the bytes takes minutes under -v
    assert [name for name, one, two in zip(
        ("h_T", "grad x", "dW", "dU", "db"), *out) if one != two] == []
