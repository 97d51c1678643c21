import math

import numpy as np
import pytest

from seqveritas import model_zoo, optim, textprep
from seqveritas.layers import ParamTensor
from seqveritas.optim import (ADAM_EPS, BETA1, BETA2, MAX_NORM, MIN_DELTA,
                              AdamState, EarlyStopper, EmptyDataset,
                              NonFiniteGradient, TrainConfig, adam_step,
                              clip_gradients, fit, predict_in_batches)


def _pt(values, grad=None):
    p = ParamTensor("w", np.asarray(values, dtype=np.float64))
    if grad is not None:
        p.grad[...] = grad
    return p


def test_adam_first_step_is_minus_lr():
    p = _pt([0.0, 1.0], grad=[1.0, 1.0])
    state = AdamState(lr=1e-3)
    adam_step([p], state)
    # bias correction makes the first step ~ -lr * sign(g)
    assert np.allclose(p.value, [-1e-3, 1.0 - 1e-3], atol=1e-9)
    assert state.t == 1


def test_adam_zero_grad_zero_moments_noop():
    p = _pt([2.5], grad=[0.0])
    adam_step([p], AdamState())
    assert p.value[0] == 2.5


def test_adam_three_step_hand_trace():
    # Hand-rolled scalar recurrence with g = 1, -1, 1, at the Kingma & Ba
    # settings that BETA1, BETA2 and ADAM_EPS fix.
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    w, m, v = 0.5, 0.0, 0.0
    grads = [1.0, -1.0, 1.0]
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        w = w - lr * m_hat / (math.sqrt(v_hat) + eps)

    p = _pt([0.5])
    state = AdamState(lr=lr)
    for g in grads:
        p.grad[...] = [g]
        adam_step([p], state)
    assert p.value[0] == pytest.approx(w, abs=1e-12)


def _moments(p):
    """(m, v) of `p`: its span of its arena's moments, in its shape."""
    return tuple(flat[p.span].reshape(p.value.shape)
                 for flat in (p.arena.m, p.arena.v))


def _adam_reference(value, m, v, grad, state, t):
    """Adam as one out-of-place expression per array, for bit comparison."""
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    m = BETA1 * m + (1.0 - BETA1) * grad
    v = BETA2 * v + (1.0 - BETA2) * grad * grad
    m_hat = m / bc1
    v_hat = v / bc2
    return value - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_in_place_update_is_bit_identical_to_the_expression(dtype):
    rng = np.random.default_rng(5)
    params = [ParamTensor(f"p{k}", rng.standard_normal(shape).astype(dtype))
              for k, shape in enumerate([(7, 5), (3,), (2, 3, 4)])]
    ref = [(p.value.copy(), *(a.copy() for a in _moments(p)))
           for p in params]
    state = AdamState(lr=5e-4)
    for t in range(1, 6):
        for p in params:
            p.grad[...] = rng.standard_normal(p.value.shape) * 10.0 ** (t - 3)
        ref = [_adam_reference(value, m, v, p.grad, state, t)
               for p, (value, m, v) in zip(params, ref)]
        grads = [p.grad.copy() for p in params]
        adam_step(params, state)
        for p, g, (value, m, v) in zip(params, grads, ref):
            p_m, p_v = _moments(p)
            assert p.value.dtype == p_m.dtype == p_v.dtype == dtype
            assert p.value.tobytes() == value.tobytes()
            assert p_m.tobytes() == m.tobytes()
            assert p_v.tobytes() == v.tobytes()
            assert p.grad.tobytes() == g.tobytes()  # the gradient is read only


def test_clip_nonfinite_gradient_aborts():
    p = _pt([1.0], grad=[np.nan])
    with pytest.raises(NonFiniteGradient) as exc:
        clip_gradients([p])
    assert "w" in str(exc.value)
    assert p.value[0] == 1.0 and np.isnan(p.grad[0])
    assert not p.arena.m.any() and not p.arena.v.any()


@pytest.mark.parametrize("value", [1e154, 1e155],
                         ids=["sum-overflows", "square-overflows"])
def test_clip_refuses_a_finite_gradient_whose_norm_overflows(value):
    # scaling by MAX_NORM / inf would zero every gradient, and Adam would
    # step on momentum alone
    small = _pt([0.0, 0.0], grad=[1.0, 2.0])
    huge = ParamTensor("huge", np.zeros(3))
    huge.grad[...] = value
    # the overflow is reported by the error alone, not by a numpy warning
    with np.errstate(over="raise"):
        with pytest.raises(NonFiniteGradient, match=r"in huge$"):
            clip_gradients([small, huge])
    assert small.grad.tolist() == [1.0, 2.0]
    assert huge.grad.tolist() == [value] * 3
    assert not huge.value.any()


def test_adam_shared_step_counter():
    a, b = _pt([0.0], grad=[1.0]), _pt([0.0], grad=[1.0])
    state = AdamState()
    adam_step([a, b], state)
    assert state.t == 1


def test_clip_below_threshold_unchanged():
    assert MAX_NORM == 5.0
    p = _pt([0.0, 0.0], grad=[3.0, 0.0])
    norm = clip_gradients([p])
    assert norm == pytest.approx(3.0)
    assert np.array_equal(p.grad, [3.0, 0.0])


def test_clip_scales_to_max_norm():
    p = _pt([0.0], grad=[2.0 * MAX_NORM])
    clip_gradients([p])
    assert p.grad[0] == pytest.approx(MAX_NORM)


def test_clip_post_norm_bounded():
    rng = np.random.default_rng(0)
    params = [_pt(np.zeros(7), grad=rng.normal(size=7) * 10) for _ in range(3)]
    clip_gradients(params)
    total = math.sqrt(sum(float(np.sum(p.grad ** 2)) for p in params))
    assert total <= MAX_NORM + 1e-9


def test_early_stopper_counter_semantics():
    # val losses [1.0, 0.9, 0.95, 0.97, 0.99], patience 2:
    # stops after the 5th epoch, best snapshot is epoch 2.
    stopper = EarlyStopper(patience=2)
    losses = [1.0, 0.9, 0.95, 0.97, 0.99]
    stops = []
    for epoch, loss in enumerate(losses, start=1):
        stops.append(stopper.update(loss, lambda: f"snap{epoch}", epoch))
    assert stops == [False, False, False, False, True]
    assert stopper.best_epoch == 2
    assert stopper.best_snapshot == "snap2"


def test_early_stopper_min_delta():
    assert MIN_DELTA == 1e-4
    stopper = EarlyStopper(patience=1)
    assert not stopper.update(1.0, lambda: 1, 1)
    # a drop of half MIN_DELTA is not a real improvement
    assert not stopper.update(1.0 - 0.5 * MIN_DELTA, lambda: 2, 2)
    assert stopper.update(1.0 - 0.9 * MIN_DELTA, lambda: 3, 3)
    assert stopper.best_epoch == 1
    # a drop of twice MIN_DELTA is
    stopper = EarlyStopper(patience=1)
    stopper.update(1.0, lambda: 1, 1)
    assert not stopper.update(1.0 - 2.0 * MIN_DELTA, lambda: 2, 2)
    assert stopper.best_epoch == 2


def _toy_model_and_config(toy_encoded, preset="baseline", seed=42, epochs=30):
    x, y, vocab, maxlen = toy_encoded
    model = model_zoo.build(preset, vocab, maxlen=maxlen, seed=seed)
    tc = TrainConfig(epochs=epochs, batch_size=8, seed=seed, patience=100)
    return model, tc, x, y


def test_fit_toy_overfit(toy_encoded):
    model, tc, x, y = _toy_model_and_config(toy_encoded)
    history = fit(model, x, y, x, y, tc)
    probs = predict_in_batches(model, x)
    acc = float(np.mean((probs >= 0.5) == (y == 1)))
    assert acc == 1.0
    assert len(history.epochs) <= 30


def test_fit_loss_decreases(toy_encoded):
    model, tc, x, y = _toy_model_and_config(toy_encoded, epochs=10)
    history = fit(model, x, y, x, y, tc)
    assert history.epochs[9]["train_loss"] < history.epochs[0]["train_loss"]


def test_fit_epochs_zero(toy_encoded):
    x, y, vocab, maxlen = toy_encoded
    model = model_zoo.build("baseline", vocab, maxlen=maxlen, seed=1)
    before = [p.value.copy() for p in model.params]
    history = fit(model, x, y, x, y, TrainConfig(epochs=0, seed=1))
    assert history.epochs == []
    for p, b in zip(model.params, before):
        assert np.array_equal(p.value, b)


def test_fit_deterministic(toy_encoded):
    x, y, vocab, maxlen = toy_encoded
    results = []
    for _ in range(2):
        model = model_zoo.build("baseline", vocab, maxlen=maxlen, seed=7)
        hist = fit(model, x, y, x, y,
                   TrainConfig(epochs=5, batch_size=8, seed=7, patience=100))
        results.append((hist.epochs,
                        [p.value.copy() for p in model.params]))
    assert results[0][0] == results[1][0]
    for a, b in zip(results[0][1], results[1][1]):
        assert np.array_equal(a, b)  # bitwise-identical weights


def test_fit_restores_best_weights(toy_encoded):
    # After fit, validation loss equals the best epoch's, not the last.
    x, y, vocab, maxlen = toy_encoded
    model = model_zoo.build("baseline", vocab, maxlen=maxlen, seed=3)
    hist = fit(model, x, y, x, y,
               TrainConfig(epochs=8, batch_size=8, seed=3, patience=2))
    from seqveritas.objective import bce
    final = bce(predict_in_batches(model, x), y)
    best = min(e["val_loss"] for e in hist.epochs)
    assert final == pytest.approx(best, abs=1e-12)


def test_fit_empty_dataset(toy_encoded):
    x, y, vocab, maxlen = toy_encoded
    model = model_zoo.build("baseline", vocab, maxlen=maxlen, seed=1)
    with pytest.raises(EmptyDataset):
        fit(model, x[:0], y[:0], x, y, TrainConfig())


def test_trailing_singleton_merged_for_batchnorm(toy_encoded):
    # 20 examples at batch 19 leaves a trailing batch of 1; with batch
    # norm in the model it must be merged, not dropped or crash.
    x, y, vocab, maxlen = toy_encoded
    model = model_zoo.build("optimized", vocab, maxlen=maxlen, seed=5)
    fit(model, x, y, x, y,
        TrainConfig(epochs=1, batch_size=19, seed=5, patience=10))


def test_fit_on_the_stored_cache_types_matches_int64(toy_encoded, tmp_path):
    # read_cache hands back the cache's u32 indices and u8 labels; a fit on
    # them equals, bit for bit, one on the int64 indices they used to widen to
    x, y, vocab, maxlen = toy_encoded
    path = str(tmp_path / "toy.svec")
    textprep.write_cache(path, x, y, len(vocab), maxlen)
    xs, ys, _ = textprep.read_cache(path)
    ys = ys.astype(np.float64)
    snaps = []
    for data_x in (xs, xs.astype(np.int64)):
        model = model_zoo.build("optimized", vocab, maxlen=maxlen, seed=4)
        fit(model, data_x, ys, data_x, ys,
            TrainConfig(epochs=3, batch_size=8, seed=4, patience=100))
        snaps.append(b"".join(a.tobytes() for a in model.state_snapshot()))
    assert snaps[0] == snaps[1]


def test_batch_slices():
    assert optim._batch_slices(10, 4, False) == [(0, 4), (4, 8), (8, 10)]
    assert optim._batch_slices(9, 4, True) == [(0, 4), (4, 9)]
    assert optim._batch_slices(9, 4, False) == [(0, 4), (4, 8), (8, 9)]



def test_fit_stops_early_and_restores_the_best_epoch(toy_encoded):
    # validation labels flipped: fitting the training set soon makes the
    # validation loss worse, so it stops improving and `fit` breaks
    from seqveritas.objective import bce
    x, y, vocab, maxlen = toy_encoded
    model = model_zoo.build("baseline", vocab, maxlen=maxlen, seed=3)
    patience = 2
    hist = fit(model, x, y, x, 1.0 - y,
               TrainConfig(epochs=30, batch_size=8, seed=3, patience=patience))
    losses = [e["val_loss"] for e in hist.epochs]
    best_epoch = 1 + losses.index(min(losses))
    assert len(hist.epochs) == best_epoch + patience + 1 < 30
    assert bce(predict_in_batches(model, x), 1.0 - y) == min(losses)
