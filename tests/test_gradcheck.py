import numpy as np
import pytest

from seqveritas import gradcheck, model_zoo
from seqveritas.numerics import FD_EPS, Prng
from seqveritas.objective import bce, penalty_terms
from tests.test_golden import GOLDEN, _identity

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


def _penalty(params):
    """The penalty total as `reg_penalty` adds it, without its grads."""
    total = 0.0
    for p in params:
        for term in penalty_terms(p):
            total += term
    return total


@pytest.mark.parametrize("preset", list(model_zoo.PRESETS))
def test_replayed_losses_are_the_whole_forwards_loss_bit_for_bit(preset):
    seed = 0
    model = gradcheck.mini_model(preset, seed)
    indices, labels = gradcheck.mini_batch(model, seed)
    tape, owners = gradcheck.MaskTape(Prng(seed + 200)), []
    model.forward(indices, tape)
    for layer, loss in gradcheck.replayed_losses(model, indices, labels,
                                                 tape):
        p = layer.params[0]
        probs, _ = model.forward(indices, Prng(seed + 200))
        whole = bce(probs, labels) + _penalty(model.params)
        assert loss(p, p.value[None]).tolist() == [whole]
        # a point of the layer's tensor moves both the same way
        saved = p.value.copy()
        p.value[...] += 1e-3
        probs, _ = model.forward(indices, Prng(seed + 200))
        moved = bce(probs, labels) + _penalty(model.params)
        p.value[...] = saved
        assert loss(p, (saved + 1e-3)[None]).tolist() == [moved]
        assert moved != whole
        owners.append(layer)
    assert owners == [layer for layer in model.layers if layer.params]


def _end_to_end_errors(monkeypatch, kernel_name, halve, preset="baseline"):
    kernel = getattr(model_zoo, kernel_name)

    def halved(*args):
        out = kernel(*args)
        halve(*args)
        return out

    monkeypatch.setattr(model_zoo, kernel_name, halved)
    results = []
    gradcheck.check_end_to_end(preset, 0, results)
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


# The faults below each land in one coordinate or one tensor, whose probes
# run stacked, as every tensor's do; each must fail its own check alone.

def test_end_to_end_check_fails_one_dense1_W_coordinate_off_by_1e_3(
        monkeypatch):
    def nudge(grad_y, cache, w, b):
        if w.name == "dense1.W":
            w.grad[5, 7] += 1e-3

    errors = _end_to_end_errors(monkeypatch, "dense_backward", nudge,
                                "optimized")
    for name, error in errors.items():
        assert (error >= gradcheck.TOLERANCE) == (
            name == "optimized.dense1.W"), name


def test_end_to_end_check_fails_a_halved_batchnorm_gamma_grad(monkeypatch):
    errors = _end_to_end_errors(
        monkeypatch, "batchnorm_backward",
        lambda grad_y, cache, gamma, beta: gamma.grad.__imul__(0.5),
        "optimized")
    for name, error in errors.items():
        assert (error >= gradcheck.TOLERANCE) == name.endswith(".bn.gamma"), \
            name


def test_end_to_end_check_fails_one_lstm_U_coordinate_off_by_1e_3(
        monkeypatch):
    def nudge(grad_ht, cache, w, u, b):
        u.grad[2, 5] += 1e-3

    errors = _end_to_end_errors(monkeypatch, "lstm_backward", nudge)
    for name, error in errors.items():
        assert (error >= gradcheck.TOLERANCE) == (
            name == "baseline.lstm.U"), name


def test_end_to_end_check_fails_one_embedding_coordinate_off_by_1e_3(
        monkeypatch):
    # row 21 is read twice by the seed-0 batch
    def nudge(grad_out, indices, emb):
        emb.grad[21, 3] += 1e-3

    errors = _end_to_end_errors(monkeypatch, "embedding_backward", nudge)
    for name, error in errors.items():
        assert (error >= gradcheck.TOLERANCE) == (
            name == "baseline.embedding"), name


def test_every_lstm_kernel_call_of_gradcheck_gets_one_3d_x(monkeypatch):
    """perfbench's tracer unpacks `x, _, u, _ = args` and `batch, steps, d
    = x.shape` at every call of the LSTM kernel, so a stack of probe
    inputs must reach the kernel folded into one batch."""
    kernel, shapes = model_zoo.lstm_forward, []

    def wrapped(*args, **kwargs):
        x, _, _, _ = args
        shapes.append(np.shape(x))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(model_zoo, "lstm_forward", wrapped)
    gradcheck.run_all(seed=0)
    assert shapes and all(len(shape) == 3 for shape in shapes), shapes
    # the embedding's probes and the layer check's x probes went stacked
    assert any(shape[0] > gradcheck.MINI["batch"] for shape in shapes)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 6: a ReLU pre-activation lies within FD_EPS of zero, so "
    "regularized.dense0.b fails at seed 1 and baseline.dense0.b at seed 9 "
    "until a kink is re-probed with a smaller step; drop this marker then"))
@pytest.mark.parametrize("seed, preset", [(1, "regularized"), (9, "baseline")])
def test_run_all_passes_every_check_at_a_relu_kink(seed, preset):
    results = gradcheck.run_all(seed=seed, presets=(preset,))
    assert [r["name"] for r in results if not r["pass"]] == []


def _tape(shapes=((4, 6), (4, 8))):
    tape = gradcheck.MaskTape(Prng(5))
    masks = [tape.keep_mask(0.7, shape) for shape in shapes]
    return tape, masks


def test_a_replayed_tape_returns_the_recorded_masks_in_order():
    tape, masks = _tape()
    replay = tape.replay()
    assert replay.keep_mask(0.7, (4, 6)) is masks[0]
    # the rest of a replay starts from the mask it would return next
    assert replay.rest().keep_mask(0.7, (4, 8)) is masks[1]
    # a stack of probes asks for its stacked shape, and gets the one mask
    assert replay.keep_mask(0.7, (9, 4, 8)) is masks[1]
    # each replay starts from the first mask
    assert tape.replay().keep_mask(0.7, (4, 6)) is masks[0]


@pytest.mark.parametrize("requests", [
    [(0.7, (4, 8))],                     # the second mask asked first
    [(0.7, (4, 6)), (0.7, (4, 6))],      # the first one asked twice
    [(0.7, (4, 7))],                     # a foreign shape
    [(0.7, (6,))],                       # a shape that is only a suffix
    [(0.5, (4, 6))],                     # another rate
    [(0.7, (4, 6)), (0.7, (4, 8)), (0.7, (4, 8))],  # beyond the recording
], ids=["out_of_order", "repeated", "foreign_shape", "short_shape",
        "foreign_keep", "beyond"])
def test_a_replayed_tape_refuses_a_request_it_did_not_record(requests):
    replay = _tape()[0].replay()
    *fine, (keep, shape) = requests
    for k, sh in fine:
        replay.keep_mask(k, sh)
    with pytest.raises(gradcheck.ReplayMismatch):
        replay.keep_mask(keep, shape)


ORACLE_PROBES = 24  # coordinates per tensor, sampled


def _numeric_gradients(monkeypatch, preset, seed):
    """name -> the numeric gradient `check_end_to_end` checks."""
    numeric, check = {}, gradcheck._check

    def record(name, analytic, num, results):
        numeric[name] = num.copy()
        check(name, analytic, num, results)

    monkeypatch.setattr(gradcheck, "_check", record)
    gradcheck.check_end_to_end(preset, seed, [])
    return numeric


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("preset", list(model_zoo.PRESETS))
def test_end_to_end_numeric_gradients_are_the_one_probe_loops_bits(
        monkeypatch, preset, seed):
    """Against the plain loop: each probe a whole training forward from a
    fresh Prng, plus the whole penalty, one coordinate at a time."""
    numeric = _numeric_gradients(monkeypatch, preset, seed)
    model = gradcheck.mini_model(preset, seed)
    indices, labels = gradcheck.mini_batch(model, seed)
    eps, sample = FD_EPS, np.random.default_rng(seed)

    def loss():
        probs, _ = model.forward(indices, Prng(seed + 200))
        return bce(probs, labels) + _penalty(model.params)

    for p in model.params:
        flat, got = p.value.reshape(-1), numeric[f"{preset}.{p.name}"]
        # the check zeroes the PAD row of the embedding
        first = p.value.shape[1] if p.name == "embedding" else 0
        coords = np.arange(first, flat.size)
        for k in sample.permutation(coords)[:ORACLE_PROBES]:
            orig = flat[k]
            flat[k] = orig + eps
            fp = loss()
            flat[k] = orig - eps
            fm = loss()
            flat[k] = orig
            assert got.reshape(-1)[k] == (fp - fm) / (2.0 * eps), (p.name, k)


# run_all(seed=3)'s rel_errors, as float.hex(), from the one-probe-at-a-time
# check; seed 0's are pinned by the golden manifest's gradcheck digest
SEED3_REL_ERRORS = {
    "embedding.E": "0x1.b85e000000000p-38",
    "lstm.x": "0x1.6f2ce40000000p-37",
    "lstm.W": "0x1.0407400000000p-36",
    "lstm.U": "0x1.9d42800000000p-37",
    "lstm.b": "0x1.3151000000000p-36",
    "dense.x": "0x1.1c3ffd9293cd9p-35",
    "dense.W": "0x1.e8afc4940708bp-36",
    "dense.b": "0x1.02767ebdd0460p-36",
    "dropout.x": "0x1.6d9ec3a50aeedp-38",
    "batchnorm.x": "0x1.3159b115b9af6p-34",
    "batchnorm.gamma": "0x1.79a5060bdb0e0p-38",
    "batchnorm.beta": "0x1.2d7706c4e1ebep-38",
    "baseline.embedding": "0x1.8bf3250000000p-37",
    "baseline.lstm.W": "0x1.ea7b2c0000000p-37",
    "baseline.lstm.U": "0x1.7b98021000000p-37",
    "baseline.lstm.b": "0x1.654bc7c000000p-37",
    "baseline.dense0.W": "0x1.888cdaa000000p-37",
    "baseline.dense0.b": "0x1.57fff90000000p-37",
    "baseline.dense1.W": "0x1.c2de670000000p-37",
    "baseline.dense1.b": "0x1.4621900000000p-37",
    "baseline.dense2.W": "0x1.16c5310000000p-37",
    "baseline.dense2.b": "0x1.ac23000000000p-38",
    "regularized.embedding": "0x1.4234db0000000p-37",
    "regularized.lstm.W": "0x1.07189a1600000p-36",
    "regularized.lstm.U": "0x1.aec52b0000000p-37",
    "regularized.lstm.b": "0x1.50dc200000000p-37",
    "regularized.dense0.W": "0x1.dbb836b500000p-37",
    "regularized.dense0.b": "0x1.858b880000000p-37",
    "regularized.dense1.W": "0x1.e5ced80000000p-37",
    "regularized.dense1.b": "0x1.318ba00000000p-37",
    "regularized.dense2.W": "0x1.cea9380000000p-38",
    "regularized.dense2.b": "0x1.a000000000000p-44",
    "optimized.embedding": "0x1.1443dbc12862cp-27",
    "optimized.lstm.W": "0x1.bcb8104000000p-29",
    "optimized.lstm.U": "0x1.7e8b080000000p-34",
    "optimized.lstm.b": "0x1.811fb5ee87788p-23",
    "optimized.dense0.W": "0x1.8c7d976bc1b34p-25",
    "optimized.dense0.b": "0x1.86affffffffffp-38",
    "optimized.dense0.bn.gamma": "0x1.70d0a80000000p-35",
    "optimized.dense0.bn.beta": "0x1.06f8a80000000p-36",
    "optimized.dense1.W": "0x1.c5b1cac000000p-28",
    "optimized.dense1.b": "0x1.86a00ffffffffp-38",
    "optimized.dense1.bn.gamma": "0x1.5f23f00000000p-37",
    "optimized.dense1.bn.beta": "0x1.c184f80000000p-37",
    "optimized.dense2.W": "0x1.21512d0000000p-35",
    "optimized.dense2.b": "0x1.86a03ffffffffp-38",
    "optimized.dense2.bn.gamma": "0x1.6c3b000000000p-38",
    "optimized.dense2.bn.beta": "0x1.da49e00000000p-38",
    "optimized.dense3.W": "0x1.442d000000000p-38",
    "optimized.dense3.b": "0x1.dfa5000000000p-38",
}


def test_run_all_at_seed_3_keeps_every_rel_error():
    """Pinned on the golden manifest's numpy and BLAS build, as its
    gradcheck digest is; on it, these hold under 1 and 2 BLAS threads."""
    import json

    pinned = json.loads(GOLDEN.read_text())["identity"]
    if _identity() != pinned:
        pytest.skip(f"build {_identity()} is not the golden build {pinned}")
    results = gradcheck.run_all(seed=3)
    assert {r["name"]: float(r["rel_error"]).hex()
            for r in results} == SEED3_REL_ERRORS
