import base64
import json
from dataclasses import asdict

import numpy as np
import pytest

from seqveritas import model_zoo, textprep
from seqveritas.model_zoo import (BadMagic, ModelConfig, ShapeMismatchOnLoad,
                                  VersionMismatch, VocabMissing, build, load,
                                  preset_config)
from seqveritas.numerics import Prng, sigmoid


def _vocab(n_tokens):
    return textprep.Vocabulary([f"w{i:05d}" for i in range(n_tokens)])


def _param(model, name):
    return next(p for p in model.params if p.name == name)


def test_baseline_param_count_v20000():
    vocab = _vocab(19_998)  # V = 20,000 with PAD and OOV
    model = build("baseline", vocab)
    expected = (20_000 * 100        # embedding
                + 150_600           # LSTM 4H(d+H+1)
                + 150 * 64 + 64     # dense0
                + 64 * 16 + 16      # dense1
                + 16 * 1 + 1)       # output
    assert expected == 2_161_321
    assert model.num_params() == expected


def test_optimized_has_three_batchnorm_stages():
    cfg = preset_config("optimized", vocab_size=50)
    assert cfg.batchnorm
    assert cfg.dense_widths == (128, 64, 16)
    assert cfg.lr == 5e-4
    model = _tiny_model("optimized")
    assert sorted(model.bn_running) == ["dense0", "dense1", "dense2"]


def test_final_stack_entry_is_sigmoid_unregularized():
    """In every preset the output Dense(1) is the last layer, unregularized
    and with no BatchNorm or ReLU after it; forward applies the sigmoid to
    its logit. The hidden kernels carry the preset's regularizers."""
    for preset in model_zoo.PRESETS:
        model = _tiny_model(preset)
        out = model.layers[-1]
        assert type(out) is model_zoo.Dense
        w, b = out.params
        assert w.value.shape == (model.config.dense_widths[-1], 1)
        assert w.regularizers == () and b.regularizers == ()
        hidden = [layer for layer in model.layers
                  if type(layer) is model_zoo.Dense][:-1]
        assert len(hidden) == len(model.config.dense_widths)
        for layer in hidden:
            assert layer.params[0].regularizers == (
                model.config.dense_regularizers)
            assert layer.params[0].regularizers != ()
        x = _random_inputs(model, 5)
        logits, _ = out.forward(_hidden_output(model, x), "eval", None)
        assert np.array_equal(model.predict_proba(x), sigmoid(logits[:, 0]))


def _hidden_output(model, indices):
    """The eval-mode input of the output Dense."""
    x = indices
    for layer in model.layers[:-1]:
        x, _ = layer.forward(x, "eval", None)
    return x


def test_preset_expansion_pure():
    a = preset_config("regularized", vocab_size=100, seed=5)
    b = preset_config("regularized", vocab_size=100, seed=5)
    assert a == b


def test_unknown_preset():
    with pytest.raises(ValueError) as exc:
        preset_config("huge", vocab_size=10)
    for name in model_zoo.PRESETS:
        assert name in str(exc.value)


def test_build_requires_vocab():
    with pytest.raises(VocabMissing):
        build("baseline", None)


def test_same_seed_identical_init():
    vocab = _vocab(30)
    m1 = build("baseline", vocab, maxlen=8, seed=9)
    m2 = build("baseline", vocab, maxlen=8, seed=9)
    for a, b in zip(m1.params, m2.params):
        assert np.array_equal(a.value, b.value)


def test_forget_gate_bias_initialized_to_one():
    model = build("baseline", _vocab(10), maxlen=4, seed=0)
    h = model.config.lstm_units
    bias = _param(model, "lstm.b").value
    assert np.all(bias[h:2 * h] == 1.0)
    assert np.all(bias[:h] == 0.0)


def test_pad_embedding_row_zero():
    model = build("baseline", _vocab(10), maxlen=4, seed=0)
    assert np.array_equal(_param(model, "embedding").value[0], np.zeros(100))


def test_float32_backward_stays_float32(monkeypatch):
    model = build("optimized", _vocab(20), maxlen=6, embed_dim=4,
                  lstm_units=3, dtype="float32")
    seen = []
    real_backward = model_zoo.lstm_backward

    def spy(grad_ht, *args):
        seen.append(grad_ht.dtype)
        return real_backward(grad_ht, *args)

    monkeypatch.setattr(model_zoo, "lstm_backward", spy)
    indices = np.array([[0, 2, 5, 7, 3, 1], [4, 4, 9, 2, 8, 6]])
    probs, caches = model.forward(indices, mode="train", rng=Prng(2))
    model.backward(caches, probs, np.array([1.0, 0.0]))
    assert seen == [np.float32]
    assert all(p.grad.dtype == np.float32 for p in model.params)


def test_params_follow_checkpoint_order():
    model = _tiny_model("optimized")
    assert [p.name for p in model.params] == [
        "embedding", "lstm.W", "lstm.U", "lstm.b",
        "dense0.W", "dense0.b", "dense0.bn.gamma", "dense0.bn.beta",
        "dense1.W", "dense1.b", "dense1.bn.gamma", "dense1.bn.beta",
        "dense2.W", "dense2.b", "dense2.bn.gamma", "dense2.bn.beta",
        "dense3.W", "dense3.b"]


def test_train_step_calls_each_kernel_through_model_zoo(monkeypatch):
    """For every preset, a train-mode forward and backward runs every
    kernel through the name model_zoo imported it under, once per layer,
    and each hidden block's ReLU through the `ReLU` layer."""
    calls = {}
    names = [f"{kernel}_{way}"
             for kernel in ("embedding", "dropout", "lstm", "dense",
                            "batchnorm")
             for way in ("forward", "backward")] + ["relu", "drelu"]
    for name in names:
        real = getattr(model_zoo, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(model_zoo, name, spy)
    # (dense, dropout, batchnorm, relu) layers of each preset
    layers = {"baseline": (3, 4, 0, 2), "regularized": (3, 4, 0, 2),
              "optimized": (4, 5, 3, 3)}
    for preset, (dense, dropout, batchnorm, relu) in layers.items():
        calls.clear()
        model = _tiny_model(preset)
        probs, caches = model.forward(_random_inputs(model, 4),
                                      mode="train", rng=Prng(5))
        model.backward(caches, probs, np.array([1.0, 0.0, 1.0, 0.0]))
        expected = {"embedding": 1, "dropout": dropout, "lstm": 1,
                    "dense": dense, "batchnorm": batchnorm}
        assert calls == {**{f"{k}_{way}": n for k, n in expected.items()
                            for way in ("forward", "backward") if n},
                         "relu": relu, "drelu": relu}, preset


def test_config_round_trip_dict():
    # through JSON, as in a checkpoint, which stores tuples as lists
    for preset in model_zoo.PRESETS:
        cfg = preset_config(preset, vocab_size=52, maxlen=6, seed=3)
        doc = json.loads(json.dumps(asdict(cfg)))
        assert ModelConfig.from_dict(doc) == cfg


def _tiny_model(preset="baseline", seed=1):
    vocab = textprep.Vocabulary([f"t{i}" for i in range(20)])
    return build(preset, vocab, maxlen=6, seed=seed, embed_dim=8,
                 lstm_units=8)


def _random_inputs(model, n, seed=0):
    rng = Prng(seed)
    v = len(model.vocab)
    return np.array([[rng.randbelow(v) for _ in range(model.config.maxlen)]
                     for _ in range(n)])


@pytest.mark.parametrize("preset", model_zoo.PRESETS)
def test_checkpoint_round_trip_bitwise(tmp_path, preset):
    model = _tiny_model(preset)
    path = str(tmp_path / "m.svchk")
    model.save(path)
    loaded = load(path)
    x = _random_inputs(model, 100)
    before = model.predict_proba(x)
    after = loaded.predict_proba(x)
    assert np.array_equal(before, after)  # deltas exactly zero


def test_checkpoint_preserves_preset(tmp_path):
    model = _tiny_model("regularized")
    path = str(tmp_path / "m.svchk")
    model.save(path)
    assert load(path).config.preset == "regularized"


def test_checkpoint_truncated(tmp_path):
    model = _tiny_model()
    path = str(tmp_path / "m.svchk")
    model.save(path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:len(blob) // 2])
    with pytest.raises(BadMagic):
        load(path)


def test_checkpoint_bad_magic(tmp_path):
    path = str(tmp_path / "m.svchk")
    with open(path, "w") as f:
        json.dump({"magic": "other", "version": 1}, f)
    with pytest.raises(BadMagic):
        load(path)


def test_checkpoint_version_mismatch(tmp_path):
    model = _tiny_model()
    path = str(tmp_path / "m.svchk")
    model.save(path)
    doc = json.load(open(path))
    doc["version"] = 99
    json.dump(doc, open(path, "w"))
    with pytest.raises(VersionMismatch):
        load(path)


def _saved_doc(tmp_path, model):
    path = str(tmp_path / "m.svchk")
    model.save(path)
    return path, json.load(open(path))


def _entry(doc, name):
    return next(p for p in doc["params"] if p["name"] == name)


def _payload_bytes(doc):
    return sum(len(base64.b64decode(p["data"])) for p in doc["params"])


def test_checkpoint_stores_little_endian_bytes_of_each_tensor(tmp_path):
    model = _tiny_model("optimized")
    _, doc = _saved_doc(tmp_path, model)
    assert doc["version"] == 3
    for p in model.params:
        data = base64.b64decode(_entry(doc, p.name)["data"])
        assert data == p.value.astype("<f8").tobytes()
    for stat in ("mean", "var"):
        data = base64.b64decode(doc["running"]["dense1"][stat])
        value = getattr(model.bn_running["dense1"], stat)
        assert data == value.astype("<f8").tobytes()


def test_checkpoint_round_trip_float32_bitwise(tmp_path):
    vocab = textprep.Vocabulary([f"t{i}" for i in range(20)])
    model = build("optimized", vocab, maxlen=6, seed=1, embed_dim=8,
                  lstm_units=8, dtype="float32")
    path = str(tmp_path / "m.svchk")
    model.save(path)
    loaded = load(path)
    for a, b in zip(model.params, loaded.params):
        assert b.value.dtype == np.float32
        assert a.value.tobytes() == b.value.tobytes()
    for k, r in model.bn_running.items():
        assert r.mean.tobytes() == loaded.bn_running[k].mean.tobytes()
        assert r.var.tobytes() == loaded.bn_running[k].var.tobytes()
    x = _random_inputs(model, 100)
    assert np.array_equal(model.predict_proba(x), loaded.predict_proba(x))


def test_checkpoint_float32_payload_is_half_the_float64_one(tmp_path):
    vocab = textprep.Vocabulary([f"t{i}" for i in range(20)])
    docs = {}
    for dtype in ("float64", "float32"):
        (tmp_path / dtype).mkdir()
        model = build("optimized", vocab, maxlen=6, seed=1, embed_dim=8,
                      lstm_units=8, dtype=dtype)
        _, docs[dtype] = _saved_doc(tmp_path / dtype, model)
    f64, f32 = _payload_bytes(docs["float64"]), _payload_bytes(docs["float32"])
    assert f64 == 8 * model.num_params()
    assert f32 * 2 == f64


def test_checkpoint_save_is_byte_deterministic(tmp_path):
    model = _tiny_model("optimized")
    a, b = str(tmp_path / "a.svchk"), str(tmp_path / "b.svchk")
    model.save(a)
    model.save(b)
    assert open(a, "rb").read() == open(b, "rb").read()


def _one_shot_document(model):
    """The checkpoint as one `json.dumps` of the whole document, the way
    save wrote it before it streamed the tensor payloads."""
    wire = np.dtype(model.dtype).newbyteorder("<")

    def encode(array):
        return base64.b64encode(
            array.astype(wire, copy=False).tobytes()).decode("ascii")

    return json.dumps({
        "magic": model_zoo.CHECKPOINT_MAGIC,
        "version": model_zoo.CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "vocab": {"tokens": model.vocab.tokens,
                  "max_size": model.vocab.max_size,
                  "min_freq": model.vocab.min_freq},
        "params": [{"name": p.name, "shape": list(p.value.shape),
                    "data": encode(p.value)} for p in model.params],
        "running": {k: {"mean": encode(r.mean), "var": encode(r.var)}
                    for k, r in model.bn_running.items()},
    }).encode("ascii")


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("preset", model_zoo.PRESETS)
def test_checkpoint_streamed_save_equals_one_shot_dumps(tmp_path, preset,
                                                        dtype):
    # tokens with quotes, backslashes and non-ASCII go through the same
    # escaping as before
    vocab = textprep.Vocabulary(
        ["t0", 'a"b', "c\\d", "\u00e9t\u00e9", "x\x01"])
    model = build(preset, vocab, maxlen=6, seed=1, embed_dim=8,
                  lstm_units=8, dtype=dtype)
    for i, r in enumerate(model.bn_running.values()):
        r.mean[...] = np.linspace(-1.0, 1.0, r.mean.size) * (i + 1)
        r.var[...] = np.linspace(0.5, 2.0, r.var.size) / (i + 1)
    path = str(tmp_path / "m.svchk")
    model.save(path)
    assert open(path, "rb").read() == _one_shot_document(model)


@pytest.mark.parametrize("token", ["\x00", 'tail"\x00'])
def test_checkpoint_save_refuses_a_string_that_encodes_like_the_slot(
        tmp_path, token):
    vocab = textprep.Vocabulary(["t0", token])
    model = build("optimized", vocab, maxlen=6, seed=1, embed_dim=8,
                  lstm_units=8)
    path = tmp_path / "m.svchk"
    with pytest.raises(ValueError, match="placeholder"):
        model.save(str(path))
    # the file is not started, let alone left half written
    assert not path.exists()


@pytest.mark.parametrize("delta", [-8, 8])
def test_checkpoint_wrong_payload_length(tmp_path, delta):
    path, doc = _saved_doc(tmp_path, _tiny_model())
    entry = _entry(doc, "dense0.W")
    raw = base64.b64decode(entry["data"])
    raw = raw[:delta] if delta < 0 else raw + bytes(delta)
    entry["data"] = base64.b64encode(raw).decode("ascii")
    json.dump(doc, open(path, "w"))
    with pytest.raises(ShapeMismatchOnLoad, match="dense0.W"):
        load(path)


def test_checkpoint_wrong_running_stat_length(tmp_path):
    path, doc = _saved_doc(tmp_path, _tiny_model("optimized"))
    doc["running"]["dense0"]["var"] = base64.b64encode(bytes(8)).decode()
    json.dump(doc, open(path, "w"))
    with pytest.raises(ShapeMismatchOnLoad, match="dense0.var"):
        load(path)


@pytest.mark.parametrize("data", ["not base64!", "AAA", [0.0, 1.0], "AAAA\n"])
def test_checkpoint_payload_not_base64(tmp_path, data):
    path, doc = _saved_doc(tmp_path, _tiny_model())
    _entry(doc, "lstm.b")["data"] = data
    json.dump(doc, open(path, "w"))
    with pytest.raises(BadMagic, match="lstm.b"):
        load(path)


def test_checkpoint_version_1_refused(tmp_path):
    model = _tiny_model()
    path, doc = _saved_doc(tmp_path, model)
    doc["version"] = 1
    for entry, p in zip(doc["params"], model.params):
        entry["data"] = p.value.reshape(-1).tolist()
    json.dump(doc, open(path, "w"))
    with pytest.raises(VersionMismatch, match="version 1, expected 3"):
        load(path)


@pytest.mark.parametrize("how", ["no_config_key", "params_not_a_list",
                                 "no_running"])
def test_checkpoint_malformed_body_is_bad_magic(tmp_path, how):
    # tests/test_cli.py::test_corrupt_checkpoint_exits_2 has more cases
    path, doc = _saved_doc(tmp_path, _tiny_model("optimized"))
    if how == "no_config_key":
        del doc["config"]["batchnorm"]
    elif how == "params_not_a_list":
        doc["params"] = 3
    else:
        del doc["running"]
    json.dump(doc, open(path, "w"))
    with pytest.raises(BadMagic, match="malformed checkpoint"):
        load(path)


def test_checkpoint_tensor_outside_the_config_refused(tmp_path):
    # an optimized checkpoint whose config lost its batch norm would
    # otherwise load as a different model, its BatchNorm tensors unread
    path, doc = _saved_doc(tmp_path, _tiny_model("optimized"))
    doc["config"]["batchnorm"] = False
    json.dump(doc, open(path, "w"))
    with pytest.raises(ShapeMismatchOnLoad, match="dense0.bn.beta"):
        load(path)


def test_checkpoint_shape_mismatch_on_load(tmp_path):
    model = _tiny_model()
    path = str(tmp_path / "m.svchk")
    model.save(path)
    doc = json.load(open(path))
    doc["params"][1]["shape"][0] += 1
    json.dump(doc, open(path, "w"))
    with pytest.raises(ShapeMismatchOnLoad):
        load(path)


def test_predict_untrained_zeroed_output_layer_is_half():
    model = _tiny_model()
    for p in model.layers[-1].params:  # output Dense: W, b
        p.value[...] = 0.0
    p, label = model.predict("some words here")
    assert p == 0.5
    assert label == 1  # p >= 0.5 counts as fake by the threshold rule


def test_predict_deterministic_and_case_invariant():
    model = _tiny_model()
    p1, _ = model.predict("The Quick Brown Fox")
    p2, _ = model.predict("the quick brown fox   ")
    p3, _ = model.predict("The Quick Brown Fox")
    assert p1 == p2 == p3


def test_predict_empty_text_defined():
    model = _tiny_model()
    p, label = model.predict("")
    assert 0.0 <= p <= 1.0
    assert label in (0, 1)


def test_predict_trained_toy_sentence(toy_encoded):
    from seqveritas.optim import TrainConfig, fit
    x, y, vocab, maxlen = toy_encoded
    model = build("baseline", vocab, maxlen=maxlen, seed=42)
    fit(model, x, y, x, y, TrainConfig(epochs=30, batch_size=8, seed=42,
                                       patience=100))
    p_fake, label_fake = model.predict("zorblat market crumpet harbor zorblat")
    p_true, label_true = model.predict("quintar city verity garden quintar")
    assert label_fake == 1
    assert label_true == 0
    assert p_fake > p_true
