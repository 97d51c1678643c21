import hashlib
import inspect
import json
import math
import re
import struct
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqveritas import model_zoo, optim, textprep
from seqveritas.model_zoo import (PRESETS, BadMagic, ModelConfig,
                                  ShapeMismatchOnLoad, VersionMismatch,
                                  VocabMissing, build, load, preset_config)
from seqveritas.layers import (PARAM_ALIGN, PARAM_BLOCK_BYTES, LstmCache,
                               StaleCache)
from seqveritas.numerics import Prng, sigmoid
from tests.conftest import (container_bytes, edit_header, json_checkpoint,
                            per_field_config, read_container, write_bytes)


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
    model = _tiny_model("optimized")
    assert model.preset is PRESETS["optimized"]
    assert model.preset.batchnorm
    assert model.preset.dense_widths == (128, 64, 16)
    assert model.preset.lr == 5e-4
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
        assert w.value.shape == (model.preset.dense_widths[-1], 1)
        assert w.regularizers == () and b.regularizers == ()
        hidden = [layer for layer in model.layers
                  if type(layer) is model_zoo.Dense][:-1]
        assert len(hidden) == len(model.preset.dense_widths)
        for layer in hidden:
            assert layer.params[0].regularizers == (
                model.preset.dense_regularizers)
            assert layer.params[0].regularizers != ()
        x = _random_inputs(model, 5)
        logits, _ = out.forward(_hidden_output(model, x), None)
        assert np.array_equal(model.predict_proba(x), sigmoid(logits[:, 0]))


def _hidden_output(model, indices):
    """The inference input of the output Dense."""
    x = indices
    for layer in model.layers[:-1]:
        x, _ = layer.forward(x, None)
    return x


def test_preset_expansion_pure():
    a = preset_config("regularized", maxlen=200, embed_dim=100,
                      lstm_units=150, seed=5, dtype="float64")
    b = preset_config("regularized", maxlen=200, embed_dim=100,
                      lstm_units=150, seed=5, dtype="float64")
    assert a == b


def test_config_types_cover_exactly_the_config_fields():
    # a field without a type test would load unchecked from a checkpoint
    names = [f.name for f in fields(ModelConfig)]
    assert names == ["preset", "embed_dim", "lstm_units", "maxlen", "seed",
                     "dtype"]
    assert sorted(model_zoo._CONFIG_TYPES) == sorted(names)


@pytest.mark.parametrize("preset", model_zoo.PRESETS)
def test_layer_list_follows_the_preset_record(preset):
    """Each layer of a built model, in order, against its `PRESETS` row:
    the dropout rate at each position, the hidden widths, the regularizers
    on each kernel, and batch norm between each hidden Dense and ReLU."""
    pre = PRESETS[preset]
    model = _tiny_model(preset)
    expected = [("Embedding", ()), ("Dropout", pre.embed_dropout),
                ("Lstm", pre.lstm_regularizers),
                ("Dropout", pre.lstm_dropout)]
    for i, width in enumerate(pre.dense_widths):
        if i > 0:
            expected.append(("Dropout", pre.dense_dropout))
        expected.append(("Dense", (width, pre.dense_regularizers)))
        if pre.batchnorm:
            expected.append(("BatchNorm", width))
        expected.append(("ReLU", None))
    expected += [("Dropout", pre.dense_dropout), ("Dense", (1, ()))]

    def describe(layer):
        kind = type(layer).__name__
        if kind == "Dropout":
            return kind, layer.rate
        if kind == "Embedding":
            return kind, layer.params[0].regularizers
        if kind == "Lstm":
            w, u, b = layer.params
            assert u.regularizers == w.regularizers and b.regularizers == ()
            return kind, w.regularizers
        if kind == "Dense":
            w, b = layer.params
            assert b.regularizers == ()
            return kind, (w.value.shape[1], w.regularizers)
        if kind == "BatchNorm":
            return kind, layer.params[0].value.size
        return kind, None

    assert [describe(layer) for layer in model.layers] == expected


@pytest.mark.parametrize("preset", model_zoo.PRESETS)
def test_every_layer_runs_by_forward_x_rng_and_backward_grad_cache(preset):
    """`Model` runs each layer by these two calls alone; no layer takes an
    argument that only some other caller passes."""
    for layer in _tiny_model(preset).layers:
        kind = type(layer).__name__
        assert list(inspect.signature(layer.forward).parameters) == [
            "x", "rng"], kind
        assert list(inspect.signature(layer.backward).parameters) == [
            "grad", "cache"], kind


def test_unknown_preset():
    with pytest.raises(ValueError) as exc:
        preset_config("huge", maxlen=200, embed_dim=100, lstm_units=150,
                      seed=0, dtype="float64")
    for name in model_zoo.PRESETS:
        assert name in str(exc.value)


@pytest.mark.parametrize("field, value", [
    ("maxlen", True), ("maxlen", np.int64(6)), ("seed", 1.5),
    ("embed_dim", np.int64(8))],
    ids=["bool_maxlen", "numpy_maxlen", "float_seed", "numpy_embed_dim"])
def test_build_refuses_a_config_value_no_checkpoint_holds(field, value):
    # no checkpoint holds these: `load` refuses a bool, and `json` cannot
    # write a numpy integer
    kwargs = {"maxlen": 6, "seed": 1, "embed_dim": 8, "lstm_units": 8,
              field: value}
    with pytest.raises(model_zoo.BadConfig, match=f"{field}=") as exc:
        build("baseline", _vocab(10), **kwargs)
    assert isinstance(exc.value, TypeError)
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("field", ["embed_dim", "lstm_units", "maxlen"])
def test_build_refuses_a_size_below_1(field):
    # before: maxlen 0 built, saved and loaded and failed only at predict;
    # embed_dim or lstm_units 0 failed inside init_glorot
    kwargs = {"maxlen": 6, "seed": 1, "embed_dim": 8, "lstm_units": 8,
              field: 0}
    with pytest.raises(model_zoo.BadConfig, match=f"{field}=0") as exc:
        build("baseline", _vocab(10), **kwargs)
    assert "every other field an int >= 1" in str(exc.value)


@pytest.mark.parametrize("n_tokens", [0, 1, 20])
def test_the_vocabulary_sets_the_embedding_rows(tmp_path, n_tokens):
    # one row per entry, PAD and OOV included, in the built and in the
    # loaded model; no config field repeats the count
    model = build("baseline", _vocab(n_tokens), maxlen=6, embed_dim=8,
                  lstm_units=8)
    loaded = load(_saved(tmp_path, model))
    for m in (model, loaded):
        assert m.params[0].value.shape == (n_tokens + 2, 8)
        assert len(m.vocab) == n_tokens + 2
    assert "vocab_size" not in asdict(model.config)


def test_checkpoint_with_maxlen_0_is_bad_magic(tmp_path):
    # before: it loaded, and predict raised "maxlen must be >= 1"
    path = _saved(tmp_path)
    edit_header(path, lambda h: h["config"].update({"maxlen": 0}))
    with pytest.raises(BadMagic, match="malformed checkpoint.*maxlen=0"):
        load(path)


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
    probs, caches = model.forward(indices, Prng(2))
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
    """For every preset, a training forward and backward runs every
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
        probs, caches = model.forward(_random_inputs(model, 4), Prng(5))
        model.backward(caches, probs, np.array([1.0, 0.0, 1.0, 0.0]))
        expected = {"embedding": 1, "dropout": dropout, "lstm": 1,
                    "dense": dense, "batchnorm": batchnorm}
        assert calls == {**{f"{k}_{way}": n for k, n in expected.items()
                            for way in ("forward", "backward") if n},
                         "relu": relu, "drelu": relu}, preset


@pytest.mark.parametrize("preset", model_zoo.PRESETS)
def test_forward_trains_exactly_when_given_an_rng(preset):
    """Without an rng a forward pass is inference: the probabilities of
    `predict_proba`, no running statistic moved, no LSTM history. With one
    it trains: batch statistics fold into the running ones and the LSTM
    keeps its cache. There is no third, half-trained state."""
    model = _tiny_model(preset)
    x = _random_inputs(model, 4)
    lstm = next(i for i, layer in enumerate(model.layers)
                if type(layer) is model_zoo.Lstm)

    def running_bytes():
        return [array.tobytes() for name, array in model.tensors()
                if ".bn." in name and name.endswith(("mean", "var"))]

    before = running_bytes()
    probs, caches = model.forward(x)
    assert probs.tobytes() == model.predict_proba(x).tobytes()
    assert running_bytes() == before
    assert caches[lstm] is None

    _, caches = model.forward(x, Prng(3))
    assert isinstance(caches[lstm], LstmCache)
    after = running_bytes()
    assert len(after) == (6 if model.preset.batchnorm else 0)
    assert all(a != b for a, b in zip(after, before))

    with pytest.raises(TypeError):
        model.forward(x, mode="train")


@pytest.mark.parametrize("preset", model_zoo.PRESETS)
def test_a_second_backward_over_one_forwards_caches_is_refused(preset):
    """The LSTM's backward overwrites its cache, so a second
    `Model.backward` over the caches of one forward raises StaleCache."""
    model = _tiny_model(preset)
    x = _random_inputs(model, 4)
    labels = np.array([1.0, 0.0, 1.0, 0.0])
    probs, caches = model.forward(x, Prng(3))
    model.backward(caches, probs, labels)
    with pytest.raises(StaleCache):
        model.backward(caches, probs, labels)


def test_config_round_trip_dict():
    # through JSON, as in a checkpoint
    for preset in model_zoo.PRESETS:
        cfg = preset_config(preset, maxlen=6, embed_dim=100, lstm_units=150,
                            seed=3, dtype="float64")
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


def _saved(tmp_path, model=None):
    path = str(tmp_path / "m.svchk")
    (model or _tiny_model()).save(path)
    return path


def _entry(header, name):
    return next(e for e in header["tensors"] if e["name"] == name)


def _end_of(start, entry, itemsize=8):
    """File position just past `entry`'s bytes."""
    return start + entry["offset"] + math.prod(entry["shape"]) * itemsize


def test_checkpoint_truncated(tmp_path):
    path = _saved(tmp_path)
    _, start, blob = read_container(path)
    assert start < len(blob) // 2
    write_bytes(path, blob[:len(blob) // 2])  # inside the data section
    with pytest.raises(ShapeMismatchOnLoad, match="data section"):
        load(path)
    write_bytes(path, blob[:start // 2])  # inside the header
    with pytest.raises(BadMagic, match="header length"):
        load(path)


def test_checkpoint_bad_magic(tmp_path):
    path = _saved(tmp_path)
    edit_header(path, lambda h: h.update(magic="other"))
    with pytest.raises(BadMagic, match="magic"):
        load(path)


def test_checkpoint_version_mismatch(tmp_path):
    path = _saved(tmp_path)
    edit_header(path, lambda h: h.update(version=99))
    with pytest.raises(VersionMismatch, match="version 99, expected 6"):
        load(path)


def test_checkpoint_version_4_refused(tmp_path):
    # the same container, its config spelling out the preset's values
    model = _tiny_model("optimized")
    path = _saved(tmp_path, model)

    def to_version_4(header):
        header.update(version=4, config=per_field_config(model))

    edit_header(path, to_version_4)
    with pytest.raises(VersionMismatch, match="version 4, expected 6"):
        load(path)


def test_checkpoint_version_5_refused(tmp_path):
    # the same container, its config and vocabulary also stating the
    # vocabulary's size and the sizes that chose its tokens
    model = _tiny_model()
    path = _saved(tmp_path, model)

    def to_version_5(header):
        header["config"]["vocab_size"] = len(model.vocab)
        header["vocab"].update(max_size=20_000, min_freq=2)
        header["version"] = 5

    edit_header(path, to_version_5)
    with pytest.raises(VersionMismatch, match="version 5, expected 6"):
        load(path)


def test_checkpoint_version_4_config_is_bad_magic(tmp_path):
    # a version 4 config relabelled version 6: the preset's values beside
    # the config are refused, not read or ignored
    model = _tiny_model("optimized")
    path = _saved(tmp_path, model)
    edit_header(path, lambda h: h.update(config=per_field_config(model)))
    unknown = ["batchnorm", "dense_dropout", "dense_regularizers",
               "dense_widths", "embed_dropout", "lr", "lstm_dropout",
               "lstm_regularizers", "vocab_size"]
    with pytest.raises(BadMagic, match=re.escape(f"has unknown {unknown}")):
        load(path)


@pytest.mark.parametrize("how", ["empty", "short_prefix", "length_past_eof",
                                 "not_utf8", "not_json", "not_an_object"])
def test_checkpoint_header_refused_as_bad_magic(tmp_path, how):
    path = _saved(tmp_path)
    _, start, blob = read_container(path)
    write_bytes(path, {
        "empty": b"",
        "short_prefix": blob[:5],
        "length_past_eof": struct.pack("<Q", len(blob)) + blob[8:],
        "not_utf8": blob[:8] + b"\xff" + blob[9:],
        "not_json": blob[:8] + b"x" + blob[9:],
        "not_an_object": container_bytes(["svchk", 4], blob[start:]),
    }[how])
    with pytest.raises(BadMagic):
        load(path)


def test_checkpoint_stores_little_endian_bytes_of_each_tensor(tmp_path):
    model = _tiny_model("optimized")
    header, start, blob = read_container(_saved(tmp_path, model))
    assert header["version"] == 6
    for p in model.params:
        entry = _entry(header, p.name)
        data = blob[start + entry["offset"]:_end_of(start, entry)]
        assert data == p.value.astype("<f8").tobytes()
    for stat in ("mean", "var"):
        entry = _entry(header, f"dense1.bn.{stat}")
        data = blob[start + entry["offset"]:_end_of(start, entry)]
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
    payload = {}
    for dtype in ("float64", "float32"):
        (tmp_path / dtype).mkdir()
        model = build("optimized", vocab, maxlen=6, seed=1, embed_dim=8,
                      lstm_units=8, dtype=dtype)
        header, start, blob = read_container(_saved(tmp_path / dtype, model))
        itemsize = np.dtype(dtype).itemsize
        # the file ends with the last tensor, itemsize bytes per element
        assert len(blob) == _end_of(start, header["tensors"][-1], itemsize)
        payload[dtype] = itemsize * sum(math.prod(e["shape"])
                                        for e in header["tensors"])
    running = sum(r.mean.size + r.var.size for r in model.bn_running.values())
    assert payload["float64"] == 8 * (model.num_params() + running)
    assert payload["float32"] * 2 == payload["float64"]


def test_checkpoint_save_is_byte_deterministic(tmp_path):
    model = _tiny_model("optimized")
    a, b = str(tmp_path / "a.svchk"), str(tmp_path / "b.svchk")
    model.save(a)
    model.save(b)
    assert Path(a).read_bytes() == Path(b).read_bytes()


def _one_shot_container(model):
    """The checkpoint assembled as one bytes object from the layout alone,
    the way `Model.save` streams it piece by piece."""
    wire = "<f8" if model.config.dtype == "float64" else "<f4"
    tensors = [(p.name, p.value) for p in model.params] + [
        (f"{k}.bn.{stat}", getattr(r, stat))
        for k, r in model.bn_running.items() for stat in ("mean", "var")]
    data, table = b"", []
    for name, value in tensors:
        data += bytes(-len(data) % 64)
        table.append({"name": name, "shape": list(value.shape),
                      "offset": len(data)})
        data += value.astype(wire).tobytes()
    return container_bytes({
        "magic": "svchk", "version": 6,
        "config": asdict(model.config),
        "vocab": {"tokens": model.vocab.tokens},
        "tensors": table}, data)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("preset", model_zoo.PRESETS)
def test_checkpoint_streamed_save_equals_one_shot_dumps(tmp_path, preset,
                                                        dtype):
    # tokens with quotes, backslashes, non-ASCII and control characters go
    # through the header's JSON escaping
    vocab = textprep.Vocabulary(
        ["t0", 'a"b', "c\\d", "été", "x\x01", "\x00"])
    model = build(preset, vocab, maxlen=6, seed=1, embed_dim=8,
                  lstm_units=8, dtype=dtype)
    for i, r in enumerate(model.bn_running.values()):
        r.mean[...] = np.linspace(-1.0, 1.0, r.mean.size) * (i + 1)
        r.var[...] = np.linspace(0.5, 2.0, r.var.size) / (i + 1)
    path = str(tmp_path / "m.svchk")
    model.save(path)
    assert Path(path).read_bytes() == _one_shot_container(model)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("preset", model_zoo.PRESETS)
def test_checkpoint_layout(tmp_path, preset, dtype):
    """The version 6 layout, read with `struct` and `json` alone: header,
    zero padding to the data section, each tensor at the first 64-byte
    boundary after the one before, and nothing after the last."""
    # H = 6 gives 24- and 96-byte LSTM biases, so there is padding
    model = build(preset, _vocab(30), maxlen=6, seed=2, embed_dim=8,
                  lstm_units=6, dtype=dtype)
    for i, r in enumerate(model.bn_running.values()):
        r.mean[...] = i + 0.25
        r.var[...] = i + 2.5
    header, start, blob = read_container(_saved(tmp_path, model))
    (n,) = struct.unpack_from("<Q", blob)
    assert start % 64 == 0 and 8 + n <= start < 8 + n + 64
    assert blob[8 + n:start] == bytes(start - 8 - n)
    assert list(header) == ["magic", "version", "config", "vocab", "tensors"]
    assert (header["magic"], header["version"]) == ("svchk", 6)
    assert ModelConfig.from_dict(header["config"]) == model.config
    assert header["vocab"] == {"tokens": model.vocab.tokens}
    expected = [(p.name, p.value) for p in model.params] + [
        (f"{k}.bn.{stat}", getattr(r, stat))
        for k, r in model.bn_running.items() for stat in ("mean", "var")]
    assert [e["name"] for e in header["tensors"]] == [n for n, _ in expected]
    wire = np.dtype("<f8" if dtype == "float64" else "<f4")
    end = 0
    for entry, (name, value) in zip(header["tensors"], expected):
        offset = entry["offset"]
        assert entry["shape"] == list(value.shape), name
        assert offset % 64 == 0 and end <= offset < end + 64, name
        assert blob[start + end:start + offset] == bytes(offset - end), name
        end = offset + value.size * wire.itemsize
        assert blob[start + offset:start + end] == value.astype(wire).tobytes()
    assert len(blob) == start + end


def _pinned_model_bytes(tmp_path, dtype):
    """(the saved file, the position of its data section) of the model
    the pins below are taken from."""
    vocab = textprep.Vocabulary([f"t{i}" for i in range(40)])
    model = build("optimized", vocab, maxlen=8, seed=13, embed_dim=8,
                  lstm_units=8, dtype=dtype)
    _, start, blob = read_container(_saved(tmp_path, model))
    return blob, start


# A deliberate change to the format or to the seeded initialisation
# changes these digests; drift of either fails here.
@pytest.mark.parametrize("dtype, digest", [
    ("float64",
     "e36330277fa3c75a6a8dcdf3a31559dff32c89b33b03fa043a049a949727f241"),
    ("float32",
     "3afbcc69cd39be3547979833fcfba5ed74b5f80912022acaa5a7fd58b38b1a19"),
])
def test_checkpoint_bytes_pinned(tmp_path, dtype, digest):
    blob, _ = _pinned_model_bytes(tmp_path, dtype)
    assert hashlib.sha256(blob).hexdigest() == digest


# The tensor bytes alone, from the aligned start of the data section to
# the end of the file: the same since format version 4, whose header
# differed but whose tensors did not.
@pytest.mark.parametrize("dtype, digest", [
    ("float64",
     "9482b2907016304f97cc806b5fd7b8e8b90dec9d40cbae100e48abc1ffe6cb4c"),
    ("float32",
     "cfd09fa19546e5a42681642f2c3bba7b5b4e73dcf48f4c9e1e4325cbd96cd90e"),
])
def test_checkpoint_data_section_pinned(tmp_path, dtype, digest):
    blob, start = _pinned_model_bytes(tmp_path, dtype)
    assert hashlib.sha256(blob[start:]).hexdigest() == digest


@pytest.mark.parametrize("token", ["\x00", 'tail"\x00', "\\", "é"])
def test_checkpoint_round_trips_any_token(tmp_path, token):
    vocab = textprep.Vocabulary(["t0", token])
    model = build("optimized", vocab, maxlen=6, seed=1, embed_dim=8,
                  lstm_units=8)
    loaded = load(_saved(tmp_path, model))
    assert loaded.vocab.tokens == ["t0", token]
    assert loaded.vocab.index_of(token) == 3


# A value `build` may be given for a config int: mostly one, sometimes a
# bool, a numpy integer or a float.
def _int_or_not(ints):
    small = st.integers(0, 8)
    return ints | st.booleans() | small.map(np.int64) | small.map(float)


@pytest.fixture(scope="module")
def scratch_checkpoint(tmp_path_factory):
    return str(tmp_path_factory.mktemp("round_trip") / "m.svchk")


@settings(max_examples=100, deadline=None)
@given(preset=st.sampled_from([*PRESETS, "fancy"]),
       dtype=st.sampled_from([*model_zoo.DTYPES, "float16"]),
       maxlen=_int_or_not(st.integers(0, 8)),
       embed_dim=_int_or_not(st.integers(1, 6)),
       lstm_units=_int_or_not(st.integers(1, 6)),
       seed=_int_or_not(st.integers(-2**70, 2**70)),
       tokens=st.lists(st.text(max_size=6), max_size=6))
def test_whatever_build_accepts_loads_back_the_same(
        scratch_checkpoint, preset, dtype, maxlen, embed_dim, lstm_units,
        seed, tokens):
    # any distinct str tokens, as test_checkpoint_round_trips_any_token
    # has; the same config, tokens and tensor bytes come back. The sizes
    # must be >= 1. A repeated token is refused before any model is built.
    if len(set(tokens)) < len(tokens):
        with pytest.raises(TypeError, match="distinct str tokens"):
            textprep.Vocabulary(tokens)
        return
    sizes = (maxlen, embed_dim, lstm_units, seed)
    valid = (preset in PRESETS and dtype in model_zoo.DTYPES
             and all(type(v) is int for v in sizes)
             and min(maxlen, embed_dim, lstm_units) >= 1)
    try:
        model = build(preset, textprep.Vocabulary(tokens), maxlen=maxlen,
                      seed=seed, embed_dim=embed_dim, lstm_units=lstm_units,
                      dtype=dtype)
    except model_zoo.BadConfig:
        assert not valid
        return
    assert valid
    model.save(scratch_checkpoint)
    loaded = load(scratch_checkpoint)
    assert loaded.config == model.config
    assert loaded.vocab.tokens == tokens
    assert [(name, array.tobytes()) for name, array in loaded.tensors()] == [
        (name, array.tobytes()) for name, array in model.tensors()]


@pytest.mark.parametrize("delta", [-8, 8])
def test_checkpoint_wrong_payload_length(tmp_path, delta):
    # dense0.W's bytes 8 short or 8 long; the table no longer fits the file
    path = _saved(tmp_path)
    header, start, blob = read_container(path)
    cut = _end_of(start, _entry(header, "dense0.W"))
    write_bytes(path, blob[:cut + min(delta, 0)] + bytes(max(delta, 0))
                + blob[cut:])
    with pytest.raises(ShapeMismatchOnLoad):
        load(path)


def test_checkpoint_wrong_running_stat_length(tmp_path):
    path = _saved(tmp_path, _tiny_model("optimized"))
    header, start, blob = read_container(path)
    cut = _end_of(start, _entry(header, "dense0.bn.var"))
    write_bytes(path, blob[:cut - 8] + blob[cut:])
    with pytest.raises(ShapeMismatchOnLoad, match="data section"):
        load(path)


def _table_message(found, expected):
    """A pattern for the refusal of a table entry `found` where `expected`
    belongs; None for either is no entry."""
    found, expected = ("nothing" if e is None else json.dumps(e)
                       for e in (found, expected))
    return re.escape(f"the tensor table has {found} where {expected} "
                     "belongs")


@pytest.mark.parametrize("how, defect", [
    ("misaligned", "not a multiple of 64"),
    ("overlapping", "overlaps"),
    ("gap", "gap"),
    ("out_of_range", "data section"),
    ("trailing_bytes", "64 bytes after the last tensor"),
    ("duplicate", "stored twice"),
    ("missing", "missing tensor dense2.b"),
    ("extra_key", "a key save does not write"),
    ("left_over", "an entry after the last tensor"),
])
def test_checkpoint_tensor_table_must_tile_the_data(tmp_path, how, defect):
    # `defect` says what the edit breaks; the message names the entry found
    # and the one `save` writes there
    path = _saved(tmp_path)
    header, start, blob = read_container(path)
    table = header["tensors"]
    at = -1 if how in ("out_of_range", "missing") else 1
    expected = dict(table[at])
    if how == "misaligned":
        table[1]["offset"] += 8
    elif how == "overlapping":
        table[1]["offset"] -= 64
    elif how == "gap":
        table[1]["offset"] += 64
    elif how == "out_of_range":
        table[-1]["offset"] += 64 * 10**6
    elif how == "duplicate":
        table[1]["name"] = table[0]["name"]
    elif how == "missing":
        table[-1]["name"] = "dense2.bias"
    elif how == "extra_key":
        table[1]["dtype"] = "<f8"
    elif how == "left_over":
        table.append({"name": "dense3.W", "shape": [], "offset": 0})
        at, expected = -1, None
    data = blob[start:] + (bytes(64) if how == "trailing_bytes" else b"")
    write_bytes(path, container_bytes(header, data))
    message = (defect if how == "trailing_bytes"
               else _table_message(table[at], expected))
    with pytest.raises(ShapeMismatchOnLoad, match=message):
        load(path)


def _container_in_order(path, order):
    """The checkpoint at `path` rewritten with its tensors in `order`, a
    permutation of the table's indices, each at the first aligned offset
    after the one before: the layout save has, in another order."""
    header, start, blob = read_container(path)
    table, data = [], b""
    for entry in (header["tensors"][i] for i in order):
        data += bytes(-len(data) % 64)
        table.append({**entry, "offset": len(data)})
        data += blob[start + entry["offset"]:_end_of(start, entry)]
    return container_bytes({**header, "tensors": table}, data)


def test_checkpoint_permuted_table_refused(tmp_path):
    # the tensors all there, each where its entry says, but not in
    # `tensors()` order
    path = _saved(tmp_path)
    header, _, blob = read_container(path)
    n = len(header["tensors"])
    assert _container_in_order(path, range(n)) == blob
    write_bytes(path, _container_in_order(path, reversed(range(n))))
    found = read_container(path)[0]["tensors"][0]
    with pytest.raises(ShapeMismatchOnLoad,
                       match=_table_message(found, header["tensors"][0])):
        load(path)


# a value equal in Python to the int that `save` writes, of another JSON
# type
@pytest.mark.parametrize("name, key, value", [
    ("lstm.W", "offset", 1408.0), ("embedding", "offset", False),
    ("dense2.W", "shape", [16, True]), ("lstm.W", "shape", [8.0, 32])],
    ids=["offset_float", "offset_false", "shape_true", "shape_float"])
def test_checkpoint_table_value_of_another_json_type_is_bad_magic(
        tmp_path, name, key, value):
    path = _saved(tmp_path)
    header, _, _ = read_container(path)
    assert _entry(header, name)[key] == value
    edit_header(path, lambda h: _entry(h, name).update({key: value}))
    with pytest.raises(BadMagic, match="tensor entry"):
        load(path)


def test_checkpoint_version_1_refused(tmp_path):
    path = str(tmp_path / "m.svchk")
    with open(path, "w") as f:
        json.dump(json_checkpoint(_tiny_model(), 1), f)
    with pytest.raises(VersionMismatch, match="version 1-3"):
        load(path)


def test_checkpoint_version_3_json_document_refused(tmp_path):
    # the last JSON layout, base64 payloads and all, is not read any more
    path = str(tmp_path / "m.svchk")
    with open(path, "w") as f:
        json.dump(json_checkpoint(_tiny_model("optimized"), 3), f)
    with pytest.raises(VersionMismatch, match="version 1-3"):
        load(path)


@pytest.mark.parametrize("how", ["no_config_key", "params_not_a_list",
                                 "no_tensors"])
def test_checkpoint_malformed_body_is_bad_magic(tmp_path, how):
    # tests/test_cli.py::test_corrupt_checkpoint_exits_2 has more cases
    path = _saved(tmp_path, _tiny_model("optimized"))

    def edit(header):
        if how == "no_config_key":
            del header["config"]["lstm_units"]
        elif how == "params_not_a_list":
            header["tensors"] = 3
        else:
            del header["tensors"]

    edit_header(path, edit)
    with pytest.raises(BadMagic, match="malformed checkpoint"):
        load(path)


@pytest.mark.parametrize("field, value", [
    ("maxlen", "x"), ("maxlen", None), ("vocab_size", 22.0), ("seed", True),
    ("lr", "0.001"), ("embed_dropout", None), ("preset", "fancy"),
    ("dtype", "float16"), ("dense_widths", [64, "16"]), ("batchnorm", 1),
    ("lstm_regularizers", [["l3", 1e-4]]), ("dense_regularizers", [["l1"]])])
def test_checkpoint_mistyped_config_value_is_bad_magic(tmp_path, field,
                                                        value):
    # the fields that only a version 4 config had (lr, the dropout rates,
    # dense_widths, the regularizers, batchnorm) and vocab_size, which
    # versions 1-5 had, are refused by name as unknown, whatever their
    # value
    message = (field if field in model_zoo._CONFIG_TYPES
               else re.escape(f"has unknown {[field]}"))
    cfg = preset_config("baseline", maxlen=200, embed_dim=100,
                        lstm_units=150, seed=0, dtype="float64")
    doc = json.loads(json.dumps(asdict(cfg)))
    doc[field] = value
    with pytest.raises(TypeError, match=message):
        ModelConfig.from_dict(doc)
    path = _saved(tmp_path)
    edit_header(path, lambda h: h["config"].update({field: value}))
    with pytest.raises(BadMagic, match=message):
        load(path)


def test_model_refuses_an_unknown_dtype():
    with pytest.raises(ValueError, match="float16"):
        build("baseline", _vocab(10), maxlen=4, dtype="float16")


def test_checkpoint_tensor_outside_the_config_refused(tmp_path):
    # an optimized checkpoint relabelled regularized describes a narrower
    # dense stack with no batch norm; its tensors do not fit that model
    path = _saved(tmp_path, _tiny_model("optimized"))
    edit_header(path, lambda h: h["config"].update(preset="regularized"))
    header, _, _ = read_container(path)
    found = _entry(header, "dense0.W")
    expected = {**found, "shape": [8, 64]}
    with pytest.raises(ShapeMismatchOnLoad,
                       match=_table_message(found, expected)):
        load(path)


def test_checkpoint_shape_mismatch_on_load(tmp_path):
    # the same bytes, transposed
    path = _saved(tmp_path)
    header, _, _ = read_container(path)
    expected = _entry(header, "lstm.W")
    edit_header(path, lambda h: _entry(h, "lstm.W")["shape"].reverse())
    with pytest.raises(ShapeMismatchOnLoad, match=_table_message(
            {**expected, "shape": [32, 8]}, expected)):
        load(path)


def test_checkpoint_vocabulary_unlike_config_refused(tmp_path):
    # the token list sets the embedding's rows, so a list one token short
    # leaves the embedding's table entry unlike the one `load` expects
    path = _saved(tmp_path)
    edit_header(path, lambda h: h["vocab"]["tokens"].pop())
    with pytest.raises(ShapeMismatchOnLoad,
                       match='tensor table has {"name": "embedding"'):
        load(path)


def test_checkpoint_vocabulary_longer_than_tensors_refused(tmp_path):
    # a token list one longer widens the expected embedding, which runs
    # the last tensors past the data section
    path = _saved(tmp_path)
    edit_header(path, lambda h: h["vocab"]["tokens"].append("new"))
    with pytest.raises(ShapeMismatchOnLoad, match="ends past the"):
        load(path)


# --- load behaviour -------------------------------------------------------

def test_load_draws_no_random_numbers(tmp_path, monkeypatch):
    path = _saved(tmp_path, _tiny_model("optimized"))
    calls = []
    real_glorot, real_uniform = model_zoo.init_glorot, Prng.uniform

    def glorot(*args, **kwargs):
        calls.append("init_glorot")
        return real_glorot(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        calls.append("Prng.uniform")
        return real_uniform(self, *args, **kwargs)

    monkeypatch.setattr(model_zoo, "init_glorot", glorot)
    monkeypatch.setattr(Prng, "uniform", uniform)
    _tiny_model("optimized")
    assert "init_glorot" in calls and "Prng.uniform" in calls
    calls.clear()
    load(path)
    assert calls == []


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_loaded_tensors_are_writable_and_aligned(tmp_path, dtype):
    model = build("optimized", _vocab(20), maxlen=6, seed=1, embed_dim=8,
                  lstm_units=6, dtype=dtype)
    loaded = load(_saved(tmp_path, model))
    for name, array in loaded.tensors():
        assert array.dtype == model.dtype, name
        assert array.flags.writeable and array.flags.aligned, name


@pytest.mark.parametrize("extra_tokens", [0, 1, 2, 3])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_a_loaded_tensor_alone_in_its_arena_starts_on_a_param_boundary(
        tmp_path, dtype, extra_tokens):
    # such a tensor adopts its view of the buffer `load` reads into, so
    # only CHECKPOINT_ALIGN and that buffer's alignment give it the
    # PARAM_ALIGN boundary the matrix kernels are faster at; each extra
    # token moves the data section's start in the file
    assert model_zoo.CHECKPOINT_ALIGN % PARAM_ALIGN == 0
    model = build("baseline", _vocab(10_000 + extra_tokens), maxlen=6,
                  seed=1, embed_dim=8, lstm_units=150, dtype=dtype)
    loaded = load(_saved(tmp_path, model))
    alone = [p for p in loaded.params if p.arena.count == 1]
    assert [p.name for p in alone] == ["embedding", "lstm.U"]
    for p in alone:
        assert p.value.ctypes.data % PARAM_ALIGN == 0, p.name


def test_fit_step_on_a_loaded_float32_model(tmp_path):
    model = build("optimized", _vocab(20), maxlen=6, seed=1, embed_dim=8,
                  lstm_units=8, dtype="float32")
    loaded = load(_saved(tmp_path, model))
    before = [p.value.copy() for p in loaded.params]
    x = _random_inputs(loaded, 8)
    y = np.array([0.0, 1.0] * 4)
    optim.fit(loaded, x, y, x, y,
              optim.TrainConfig(epochs=1, batch_size=8, patience=1))
    assert all(p.value.dtype == np.float32 for p in loaded.params)
    assert all(p.grad.dtype == np.float32 for p in loaded.params)
    assert any(not np.array_equal(a, p.value)
               for a, p in zip(before, loaded.params))


def test_restore_snapshot_undoes_a_fit_step():
    model = build("optimized", _vocab(20), maxlen=6, seed=1, embed_dim=8,
                  lstm_units=8)
    x = _random_inputs(model, 8)
    y = np.array([0.0, 1.0] * 4)

    def step():  # one epoch of one batch: one Adam step
        optim.fit(model, x, y, x, y,
                  optim.TrainConfig(epochs=1, batch_size=8, patience=1))

    step()
    snap = model.state_snapshot()
    saved = [array.tobytes() for array in snap]
    step()
    moved = [name for (name, array), b in zip(model.tensors(), saved)
             if array.tobytes() != b]
    assert "lstm.W" in moved and "dense0.bn.mean" in moved
    model.restore_snapshot(snap)
    assert [name for name, _ in model.tensors()] == [
        p.name for p in model.params] + [
        f"dense{i}.bn.{stat}" for i in range(3) for stat in ("mean", "var")]
    assert [array.tobytes() for _, array in model.tensors()] == saved


# --- refusal properties ---------------------------------------------------

_REFUSALS = (BadMagic, VersionMismatch, ShapeMismatchOnLoad)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """(the bytes of a saved checkpoint, its header length, a scratch path
    to write edited copies to)."""
    path = tmp_path_factory.mktemp("container") / "m.svchk"
    build("optimized", _vocab(20), maxlen=6, seed=1, embed_dim=8,
          lstm_units=6, dtype="float32").save(str(path))
    blob = path.read_bytes()
    return blob, struct.unpack_from("<Q", blob)[0], str(path)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_checkpoint_cut_short_is_refused(saved_checkpoint, data):
    blob, _, path = saved_checkpoint
    write_bytes(path, blob[:data.draw(st.integers(0, len(blob) - 1))])
    with pytest.raises(_REFUSALS):
        load(path)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checkpoint_overwritten_header_byte_loads_or_is_refused(
        saved_checkpoint, data):
    # an edit can leave a valid file (a digit of the seed, a letter of a
    # token); any other outcome is one of the three refusals
    blob, n, path = saved_checkpoint
    at = data.draw(st.integers(0, 8 + n - 1))
    value = data.draw(st.one_of(st.integers(0, 255),
                                st.sampled_from(b'0123456789"[]{},:-.eE ')))
    write_bytes(path, blob[:at] + bytes([value]) + blob[at + 1:])
    try:
        load(path)
    except _REFUSALS:
        pass


# JSON values of a type no table entry field has
_MISTYPED = (st.none() | st.booleans()
             | st.floats(allow_nan=False, allow_infinity=False)
             | st.lists(st.floats(allow_nan=False, allow_infinity=False),
                        min_size=1, max_size=2))
_FIELDS = {
    "name": (st.text(max_size=12), _MISTYPED | st.integers()),
    "shape": (st.lists(st.integers(0, 64), max_size=3),
              _MISTYPED | st.text(max_size=3) | st.lists(
                  st.integers(-64, 64), min_size=1).filter(
                      lambda shape: min(shape) < 0)),
    "offset": (st.integers(-64, 10**6), _MISTYPED | st.text(max_size=3)),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checkpoint_table_edit_is_refused(saved_checkpoint, data):
    # the table save wrote loads bit-exact; swapping two of its entries, or
    # any other name, shape or offset in one, is refused: as a mismatch,
    # or as malformed where the new value has a type the field has not
    blob, _, path = saved_checkpoint
    write_bytes(path, blob)  # as save wrote it, whatever the test before
    header, start, _ = read_container(path)
    table = header["tensors"]
    how = data.draw(st.sampled_from(["none", "swap", *_FIELDS]))
    i = data.draw(st.integers(0, len(table) - 1))
    refusal = ShapeMismatchOnLoad
    if how == "swap":
        j = data.draw(st.integers(0, len(table) - 1).filter(lambda j: j != i))
        table[i], table[j] = table[j], table[i]
    elif how != "none":
        typed, mistyped = _FIELDS[how]
        if data.draw(st.booleans()):
            refusal, values = BadMagic, mistyped
        else:
            values = typed
        table[i][how] = data.draw(values.filter(
            lambda v: json.dumps(v) != json.dumps(table[i][how])))
    write_bytes(path, container_bytes(header, blob[start:]))
    if how == "none":
        copy = path + ".copy"
        load(path).save(copy)
        with open(copy, "rb") as f:
            assert f.read() == blob
    else:
        with pytest.raises(refusal):
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


# --- the parameter arena -----------------------------------------------------

def _assert_views_of_arenas(model):
    """Each tensor's value and grad are views of its span of its arena's
    arrays, whose moments m and v cover every span; a packed arena's
    spans follow `params` order, each at the first multiple of
    PARAM_ALIGN bytes after the one before, and the gaps hold zeros."""
    spans = {}
    for p in model.params:
        assert p.arena.m[p.span].size == p.arena.v[p.span].size == p.value.size
        for name in ("value", "grad"):
            view, flat = getattr(p, name), getattr(p.arena, name)
            assert np.shares_memory(view, flat), (p.name, name)
            assert view.ctypes.data == flat[p.span].ctypes.data, (p.name, name)
            assert view.size == p.span.stop - p.span.start, (p.name, name)
        spans.setdefault(p.arena, []).append(p.span)
    assert model.arenas == list(spans)
    for arena, tiles in spans.items():
        assert arena.count == len(tiles)
        if len(tiles) == 1:
            assert tiles[0] == slice(0, arena.value.size)
            continue
        per = PARAM_ALIGN // arena.value.itemsize
        assert arena.value.ctypes.data % PARAM_ALIGN == 0
        assert [s.start for s in tiles] == [0] + [-(-s.stop // per) * per
                                                  for s in tiles[:-1]]
        assert arena.value.size == -(-tiles[-1].stop // per) * per
        gaps = np.ones(arena.value.size, bool)
        for s in tiles:
            gaps[s] = False
        for flat in (arena.value, arena.grad, arena.m, arena.v):
            assert not flat[gaps].any()


@pytest.mark.parametrize("vocab_tokens", [20, 10_000], ids=["packed", "alone"])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("preset", model_zoo.PRESETS)
def test_every_tensor_stays_a_view_of_its_arena(tmp_path, preset, dtype,
                                                vocab_tokens):
    model = build(preset, _vocab(vocab_tokens), maxlen=6, seed=2,
                  embed_dim=8, lstm_units=8, dtype=dtype)
    emb, rest = model.params[0], model.params[1:]
    # a tensor has an arena of its own exactly when it is larger than one
    # block, which at these shapes only the embedding can be; every other
    # tensor shares one
    alone = emb.value.nbytes > PARAM_BLOCK_BYTES
    assert alone == (vocab_tokens == 10_000)
    assert all(p.arena is rest[0].arena for p in rest)
    assert (emb.arena is rest[0].arena) != alone
    assert len(model.arenas) == 1 + alone
    _assert_views_of_arenas(model)

    path = str(tmp_path / "m.svchk")
    model.save(path)
    loaded = load(path)
    _assert_views_of_arenas(loaded)
    assert [p.arena.count for p in loaded.params] == [
        p.arena.count for p in model.params]

    x = _random_inputs(model, 8, seed=3)
    y = np.array([0.0, 1.0] * 4)
    snapshot = model.state_snapshot()
    optim.fit(model, x, y, x[:2], y[:2],
              optim.TrainConfig(epochs=2, batch_size=4, seed=1, patience=5))
    _assert_views_of_arenas(model)
    model.restore_snapshot(snapshot)
    _assert_views_of_arenas(model)
    for (name, got), (_, want) in zip(model.tensors(), loaded.tensors()):
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("vocab_tokens", [20, 10_000], ids=["packed", "alone"])
def test_only_an_embedding_alone_in_its_arena_keeps_the_load_buffer(
        tmp_path, monkeypatch, vocab_tokens):
    # the packed parameters and the batch-norm running stats are copied out
    # of the buffer `load` reads the file into; a tensor with an arena of
    # its own, at these shapes only a large embedding, adopts its bytes on
    # purpose, so that it is not copied
    path = str(tmp_path / "m.svchk")
    build("optimized", _vocab(vocab_tokens), maxlen=6, seed=2, embed_dim=8,
          lstm_units=8).save(path)
    sections, restore = [], model_zoo._restore

    def recording(path, header, data):
        sections.append(data)
        return restore(path, header, data)

    monkeypatch.setattr(model_zoo, "_restore", recording)
    loaded = load(path)
    [data] = sections
    assert loaded.bn_running
    held = [name for name, array in loaded.tensors()
            if np.shares_memory(array, data)]
    assert held == ([] if vocab_tokens == 20 else ["embedding"])

