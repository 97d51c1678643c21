import numpy as np
import pytest

from seqveritas import gradcheck, model_zoo
from seqveritas.numerics import Prng
from seqveritas.objective import bce, reg_penalty

LAYER_CHECKS = ["embedding.E", "lstm.x", "lstm.W", "lstm.U", "lstm.b",
                "dense.x", "dense.W", "dense.b", "dropout.x",
                "batchnorm.x", "batchnorm.gamma", "batchnorm.beta"]
COMMON = ["embedding", "lstm.W", "lstm.U", "lstm.b"]
TWO_HIDDEN = [f"dense{i}.{t}" for i in range(3) for t in ("W", "b")]
WITH_BN = ([f"dense{i}.{t}" for i in range(3)
            for t in ("W", "b", "bn.gamma", "bn.beta")]
           + ["dense3.W", "dense3.b"])


def test_check_dense_runs_the_models_dense_backward(monkeypatch):
    # a dense backward that halves the bias gradient, installed where the
    # model's Dense layer looks its kernel up
    kernel = model_zoo.dense_backward

    def halved_bias_grad(grad_y, cache, w, b):
        grad_x = kernel(grad_y, cache, w, b)
        b.grad *= 0.5
        return grad_x

    monkeypatch.setattr(model_zoo, "dense_backward", halved_bias_grad)
    results = []
    gradcheck.check_dense(0, results)
    errors = {r["name"]: r["rel_error"] for r in results}
    assert errors["dense.b"] >= gradcheck.TOLERANCE
    assert errors["dense.x"] < gradcheck.TOLERANCE
    assert errors["dense.W"] < gradcheck.TOLERANCE


def test_run_all_check_names_and_order(monkeypatch):
    # only the names are under test here; test_c1_gradient_correctness
    # checks the errors at this seed, so skip the finite differences
    monkeypatch.setattr(gradcheck, "finite_diff_grad",
                        lambda loss, values: np.zeros_like(values))
    names = [r["name"] for r in gradcheck.run_all(seed=0)]
    assert names == (LAYER_CHECKS
                     + [f"baseline.{n}" for n in COMMON + TWO_HIDDEN]
                     + [f"regularized.{n}" for n in COMMON + TWO_HIDDEN]
                     + [f"optimized.{n}" for n in COMMON + WITH_BN])
    assert len(names) == 50


@pytest.mark.parametrize("preset", list(model_zoo.PRESETS))
def test_replayed_losses_are_the_whole_forwards_loss_bit_for_bit(preset):
    seed = 0
    model = gradcheck.mini_model(preset, seed)
    indices, labels = gradcheck.mini_batch(model, seed)
    owners = []
    for layer, loss in gradcheck.replayed_losses(model, indices, labels,
                                                 Prng(seed + 200)):
        probs, _ = model.forward(indices, Prng(seed + 200))
        whole = bce(probs, labels) + reg_penalty(model.params,
                                                 accumulate_grads=False)
        assert loss() == whole
        # perturbing the layer's tensor moves both the same way
        value = layer.params[0].value
        saved = value.copy()
        value += 1e-3
        probs, _ = model.forward(indices, Prng(seed + 200))
        moved = bce(probs, labels) + reg_penalty(model.params,
                                                 accumulate_grads=False)
        assert loss() == moved != whole
        value[...] = saved
        owners.append(layer)
    assert owners == [layer for layer in model.layers if layer.params]


def _end_to_end_errors(monkeypatch, kernel_name, halve):
    kernel = getattr(model_zoo, kernel_name)

    def halved(*args):
        out = kernel(*args)
        halve(*args)
        return out

    monkeypatch.setattr(model_zoo, kernel_name, halved)
    results = []
    gradcheck.check_end_to_end("baseline", 0, results)
    return {r["name"]: r["rel_error"] for r in results}


def test_end_to_end_check_fails_a_halved_dense_bias_grad(monkeypatch):
    errors = _end_to_end_errors(
        monkeypatch, "dense_backward",
        lambda grad_y, cache, w, b: b.grad.__imul__(0.5))
    for name, error in errors.items():
        bias = name.startswith("baseline.dense") and name.endswith(".b")
        assert (error >= gradcheck.TOLERANCE) == bias, name


def test_end_to_end_check_fails_a_halved_embedding_grad(monkeypatch):
    errors = _end_to_end_errors(
        monkeypatch, "embedding_backward",
        lambda grad_out, indices, emb: emb.grad.__imul__(0.5))
    for name, error in errors.items():
        assert (error >= gradcheck.TOLERANCE) == (name == "baseline.embedding"), name
