import numpy as np

from seqveritas import gradcheck, model_zoo

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
