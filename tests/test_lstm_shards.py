"""Inference LSTM calls split their batch rows across BLAS threads.

`layers.blas.threads` is set to 2 here, so the shards run on any machine;
each shard's products then run on one BLAS thread and must give the bits
of the one-shard call. Shapes sit just at or above the bound in
`layers._shards`: at B = 512, H = 64 each of two shards does exactly
SHARD_MULADDS multiply-adds per step.
"""

import concurrent.futures
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from seqveritas import blas, layers, model_zoo, textprep
from seqveritas.layers import ParamTensor, lstm_forward
from seqveritas.numerics import Prng
from seqveritas.optim import PREDICT_BATCH, predict_in_batches
from tests.conftest import wait_for_child

BATCH, STEPS, D, HIDDEN = 512, 3, 8, 64
# the BLAS thread count itself: the `threads` fixture replaces only what
# `layers` reads
REAL_THREADS = blas.threads


def _case(dtype, batch=BATCH, steps=STEPS, d=D, hidden=HIDDEN):
    rng = Prng(21)
    x = rng.uniform(-1, 1, (batch, steps, d)).astype(dtype)
    params = [ParamTensor(name, rng.uniform(-0.5, 0.5, shape).astype(dtype))
              for name, shape in (("W", (d, 4 * hidden)),
                                  ("U", (hidden, 4 * hidden)),
                                  ("b", (4 * hidden,)))]
    return x, params


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

    def counted(x, *args):
        seen.append(len(x))
        return run(x, *args)

    monkeypatch.setattr(layers, "_lstm_rows", counted)
    return seen


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_two_shards_give_the_bits_of_one(threads, rows_seen, dtype):
    x, params = _case(dtype)
    threads(1)
    one, _ = lstm_forward(x, *params, history=False)
    threads(2)
    two, cache = lstm_forward(x, *params, history=False)
    assert cache is None
    assert rows_seen == [BATCH, BATCH // 2, BATCH // 2]
    assert two.dtype == dtype and two.shape == (BATCH, HIDDEN)
    assert two.tobytes() == one.tobytes()
    with_history, _ = lstm_forward(x, *params, history=True)
    assert with_history.tobytes() == one.tobytes()


def test_a_stack_of_u_values_shards_to_the_bits_of_each_value(threads,
                                                             rows_seen):
    x, (w, u, b) = _case(np.float64)
    stack = ParamTensor("U", np.stack([u.value, u.value[::-1]]))
    threads(1)
    want = [lstm_forward(x, w, ParamTensor("U", v), b, history=False)[0]
            for v in stack.value]
    threads(2)
    del rows_seen[:]
    got, _ = lstm_forward(x, w, stack, b, history=False)
    assert rows_seen == [BATCH // 2, BATCH // 2]
    assert got.shape == (2, BATCH, HIDDEN)
    assert [h.tobytes() for h in got] == [h.tobytes() for h in want]


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

    x, params = _case(np.float64)
    threads(2)
    monkeypatch.setattr(layers, "_lstm_rows", counting)
    lstm_forward(x, *params, history=False)
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

    x, params = _case(np.float64)
    threads(2)
    monkeypatch.setattr(layers, "_lstm_rows", failing)
    with pytest.raises(FloatingPointError, match=where):
        lstm_forward(x, *params, history=False)
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

    x, params = _case(np.float64)
    threads(2)
    monkeypatch.setattr(layers, "_lstm_rows", recorded)
    for _ in range(3):
        lstm_forward(x, *params, history=False)
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
    x, params = _case(np.float64, batch=BATCH // 2)
    lstm_forward(x, *params, history=False)
    # training keeps its history in one shard at any batch
    x, params = _case(np.float64)
    lstm_forward(x, *params, history=True)
    # d above SHARD_MAX_K: one-thread products would sum K in other blocks
    x, params = _case(np.float64, d=layers.SHARD_MAX_K + 1)
    lstm_forward(x, *params, history=False)
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
    src = str(Path(layers.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", UNSHARDED_CALLS],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False"]


def test_a_shard_input_gemm_stays_above_the_small_kernel(threads):
    threads(2)
    # each shard's recurrent product clears SHARD_MULADDS, but one step of
    # 256 rows x d = 2 x 256 is below 1e6 multiply-adds of input GEMM
    assert layers._shards(BATCH, 1, 1, 2, HIDDEN) == 1
    assert layers._shards(BATCH, STEPS, 1, D, HIDDEN) == 2


def test_concurrent_callers_each_get_the_one_shard_bits(threads):
    x, params = _case(np.float64)
    threads(1)
    want, _ = lstm_forward(x, *params, history=False)
    threads(2)
    before = REAL_THREADS()
    results, errors = [], []

    def call():
        try:
            for _ in range(3):
                results.append(lstm_forward(x, *params, history=False)[0])
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
    x, params = _case(np.float64)
    threads(2)
    want, _ = lstm_forward(x, *params, history=False)
    pid = os.fork()
    if pid == 0:
        try:
            got, _ = lstm_forward(x, *params, history=False)
            os._exit(0 if got.tobytes() == want.tobytes() else 1)
        finally:
            os._exit(2)
    assert wait_for_child(pid, "sharded call") == 0
