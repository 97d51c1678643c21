import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seqveritas import model_zoo, textprep
from seqveritas.layers import ParamTensor
from seqveritas.numerics import ShapeMismatch, finite_diff_grad
from seqveritas.objective import (BCE_CLAMP, THRESHOLD, EmptyBatch, bce,
                                  bce_grad_fused, bce_grad_unfused, evaluate,
                                  penalty_terms, reg_penalty)


def test_bce_half():
    assert bce([0.5], [1.0]) == pytest.approx(math.log(2), abs=1e-12)
    assert bce([0.5], [0.0]) == pytest.approx(math.log(2), abs=1e-12)


def test_bce_perfect_prediction_near_zero():
    assert bce([1.0], [1.0]) <= 1e-6
    assert bce([0.0], [0.0]) <= 1e-6


def test_bce_hand_batch():
    expected = (-math.log(0.9) - math.log(0.8)) / 2
    assert bce([0.9, 0.2], [1.0, 0.0]) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(0.164252, abs=1e-6)


def test_bce_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        bce([0.5, 0.5], [1.0])


def _np_mean_bce(probs, labels):
    """bce as np.clip and np.mean spell it."""
    p = np.clip(probs, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return float(np.mean(-(labels * np.log(p)
                           + (1.0 - labels) * np.log(1.0 - p))))


@pytest.mark.parametrize("n", [1, 2, 4, 7, 64, 255, 256, 1000, 4097])
def test_bce_bits_are_those_of_np_clip_and_np_mean(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        probs = rng.random(n)
        probs[rng.random(n) < 0.1] = 0.0  # clamped up
        probs[rng.random(n) < 0.1] = 1.0  # clamped down
        probs[rng.random(n) < 0.05] = BCE_CLAMP / 3
        labels = (rng.random(n) < 0.5).astype(np.float64)
        got = bce(probs, labels)
        assert (np.float64(got).tobytes()
                == np.float64(_np_mean_bce(probs, labels)).tobytes())


def test_bce_unfused_grad_matches_finite_diff():
    p0 = np.array([0.3, 0.8, 0.55])
    y = np.array([1.0, 0.0, 1.0])
    numeric = finite_diff_grad(
        lambda ps: bce(ps, np.broadcast_to(y, ps.shape)), p0)
    assert np.allclose(bce_grad_unfused(p0, y), numeric, rtol=1e-6)


def test_bce_fused_grad_through_sigmoid():
    # d(mean BCE)/dz where p = sigmoid(z) must be (p - y)/n
    from seqveritas.numerics import sigmoid
    z0 = np.array([0.4, -1.2, 2.0])
    y = np.array([1.0, 0.0, 1.0])
    numeric = finite_diff_grad(
        lambda zs: bce(sigmoid(zs), np.broadcast_to(y, zs.shape)), z0)
    assert np.allclose(bce_grad_fused(sigmoid(z0), y), numeric, rtol=1e-4)


def test_reg_penalty_zero_lambda():
    p = ParamTensor("w", np.array([1.0, -2.0]), regularizers=(("l1", 0.0),))
    assert reg_penalty([p]) == 0.0
    assert np.array_equal(p.grad, np.zeros(2))


def test_reg_penalty_l1():
    p = ParamTensor("w", np.array([-3.0]), regularizers=(("l1", 0.01),))
    assert reg_penalty([p]) == pytest.approx(0.03)
    assert p.grad[0] == pytest.approx(-0.01)


def test_reg_penalty_l1_sign_zero():
    p = ParamTensor("w", np.array([0.0]), regularizers=(("l1", 0.5),))
    reg_penalty([p])
    assert p.grad[0] == 0.0


def test_reg_penalty_l2():
    p = ParamTensor("w", np.array([1.0, 2.0]), regularizers=(("l2", 0.001),))
    assert reg_penalty([p]) == pytest.approx(0.005)
    assert np.allclose(p.grad, [0.002, 0.004])


def test_reg_penalty_untagged_excluded():
    bias = ParamTensor("b", np.array([100.0]))
    assert reg_penalty([bias]) == 0.0
    bias.value[0] = -50.0
    assert reg_penalty([bias]) == 0.0  # perturbing a bias changes nothing


def _np_sum_penalty(params):
    """reg_penalty as np.sum spells it: the total, and each tensor's grad
    after the penalty gradients are added."""
    total, grads = 0.0, []
    for p in params:
        grad = p.grad.copy()
        for kind, lam in p.regularizers:
            if kind == "l1":
                total += lam * float(np.sum(np.abs(p.value)))
                grad += lam * np.sign(p.value)
            else:
                total += lam * float(np.sum(p.value * p.value))
                grad += 2.0 * lam * p.value
        grads.append(grad)
    return total, grads


@pytest.mark.parametrize("dtype", list(model_zoo.DTYPES))
@pytest.mark.parametrize("preset", list(model_zoo.PRESETS))
def test_reg_penalty_bits_are_those_of_np_sum(preset, dtype):
    vocab = textprep.Vocabulary([f"t{i}" for i in range(20)])
    model = model_zoo.build(preset, vocab, maxlen=6, seed=4, embed_dim=16,
                            lstm_units=24, dtype=dtype)
    rng = np.random.default_rng(5)
    for p in model.params:
        p.value[...] = rng.standard_normal(p.value.shape)
        p.value.reshape(-1)[::7] = 0.0  # sign(0) = 0
        p.grad[...] = rng.standard_normal(p.grad.shape)
    total, grads = _np_sum_penalty(model.params)
    assert total > 0.0
    assert reg_penalty(model.params) == total
    for p, grad in zip(model.params, grads):
        assert p.grad.tobytes() == grad.tobytes(), p.name


def test_evaluate_hand_counts():
    # tp=9, fp=1, fn=0, tn=0
    probs = [0.9] * 10
    labels = [1] * 9 + [0]
    cm, rep = evaluate(probs, labels)
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (9, 1, 0, 0)
    assert rep.precision == pytest.approx(0.9)
    assert rep.recall == pytest.approx(1.0)
    assert rep.f1 == pytest.approx(0.947368, abs=1e-6)


def test_evaluate_all_wrong():
    _, rep = evaluate([0.9, 0.1], [0, 1])
    assert rep.accuracy == 0.0


def test_evaluate_degenerate_flag():
    _, rep = evaluate([0.1, 0.2], [0, 0])  # no positives predicted or present
    assert rep.degenerate
    assert rep.precision == 0.0 and rep.recall == 0.0 and rep.f1 == 0.0


def test_evaluate_empty_batch():
    with pytest.raises(EmptyBatch):
        evaluate([], [])


def test_evaluate_threshold_boundary():
    assert THRESHOLD == 0.5
    _, rep = evaluate([0.5], [1])
    assert rep.tp == 1  # predict fake iff p >= THRESHOLD


def test_metrics_report_json_keys():
    from dataclasses import asdict
    _, rep = evaluate([0.9, 0.1], [1, 0])
    doc = asdict(rep)
    assert set(doc) == {"accuracy", "precision", "recall", "f1", "loss",
                        "tp", "fp", "tn", "fn", "degenerate"}


def _brute_force(probs, labels):
    tp = fp = tn = fn = 0
    for p, y in zip(probs, labels):
        pred = p >= 0.5
        if pred and y == 1:
            tp += 1
        elif pred and y == 0:
            fp += 1
        elif not pred and y == 1:
            fn += 1
        else:
            tn += 1
    return tp, fp, tn, fn


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                          st.integers(min_value=0, max_value=1)),
                min_size=1, max_size=200))
def test_evaluate_matches_brute_force(pairs):
    probs = [p for p, _ in pairs]
    labels = [y for _, y in pairs]
    cm, rep = evaluate(probs, labels)
    tp, fp, tn, fn = _brute_force(probs, labels)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (tp, fp, tn, fn)
    assert rep.accuracy == (tp + tn) / len(pairs)


def test_bce_of_stacked_batches_is_each_batchs_float():
    rng = np.random.default_rng(2)
    for batch in (1, 4, 9, 64):
        probs = rng.uniform(0.0, 1.0, (7, batch))
        labels = rng.integers(0, 2, batch).astype(np.float64)
        stacked = bce(probs, np.broadcast_to(labels, probs.shape))
        assert stacked.shape == (7,)
        for row, mean in zip(probs, stacked):
            assert mean == bce(row.copy(), labels)


def test_penalty_terms_of_a_stack_are_each_values_floats():
    rng = np.random.default_rng(3)
    for shape in [(4,), (8, 64), (128, 64)]:
        p = ParamTensor("w", rng.standard_normal(shape),
                        regularizers=(("l1", 1e-5), ("l2", 1e-4)))
        stack = rng.standard_normal((5, *shape))
        l1, l2 = penalty_terms(p, stack)
        for k, value in enumerate(stack):
            alone = ParamTensor("alone", value.copy(), p.regularizers)
            assert [l1[k], l2[k]] == penalty_terms(alone)
        assert reg_penalty([p]) == (
            0.0 + penalty_terms(p)[0] + penalty_terms(p)[1])
