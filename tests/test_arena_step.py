"""The arena train step against a per-tensor reference step.

The reference step is kept here, not in `src/`: a 2-D np.add.at scatter,
dropout masks as `uniform < keep`, and clipping, zeroing and Adam over
every element of each tensor in turn, Adam with moment arrays of its own
per tensor. Training through either must give the same bits, with the
embedding or the LSTM's matrices in arenas of their own or packed into
the arena of the other tensors. A tensor's moments in the arena step are
its span of the arena's `m` and `v`.
"""

import numpy as np
import pytest

from seqveritas import model_zoo, optim, textprep
from seqveritas.layers import BadRate, ParamTensor, embedding_backward
from seqveritas.numerics import Prng

# A vocabulary far larger than a batch, so most embedding rows are
# untouched in any one step, and large enough that the embedding is
# larger than one block, and so alone in its arena, in both dtypes.
VOCAB, EMBED, HIDDEN, MAXLEN, BATCH = 5000, 16, 8, 10, 8
# A vocabulary small enough that the embedding fits in one block in both
# dtypes, so it is packed with the other tensors.
SMALL_VOCAB = 300


# --- the dense step ----------------------------------------------------------

def dense_embedding_backward(grad_out, indices, emb):
    np.add.at(emb.grad, np.asarray(indices), grad_out)
    emb.grad[0] = 0.0


def dense_dropout_forward(x, p, rng):
    if not 0.0 <= p < 1.0:
        raise BadRate(p)
    if rng is None or p == 0.0:
        return x, None
    keep = 1.0 - p
    kept = rng.uniform(0.0, 1.0, x.shape) < keep
    mask = kept.astype(x.dtype) / keep
    # the cache `dropout_backward` reads: the booleans and the scale
    return x * mask, (kept, x.dtype.type(1.0) / keep)


def dense_zero_grads(model):
    for p in model.params:
        p.grad.fill(0.0)


def dense_clip_gradients(params):
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > optim.MAX_NORM:
        scale = optim.MAX_NORM / norm
        for p in params:
            p.grad *= scale
    return norm


def arena_moments(p):
    """(m, v) of `p` in the arena step: its span of its arena's moments,
    in its shape."""
    return tuple(flat[p.span].reshape(p.value.shape)
                 for flat in (p.arena.m, p.arena.v))


def dense_adam_step(params, state, moments):
    """Adam over each tensor in turn; `moments` maps a tensor's name to
    its (m, v), zero arrays of its shape on its first step."""
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise optim.NonFiniteGradient(p.name)
    state.t += 1
    bc1 = 1.0 - optim.BETA1 ** state.t
    bc2 = 1.0 - optim.BETA2 ** state.t
    for p in params:
        m, v = moments.setdefault(
            p.name, (np.zeros_like(p.value), np.zeros_like(p.value)))
        step = np.multiply(p.grad, 1.0 - optim.BETA1)
        m *= optim.BETA1
        m += step
        np.multiply(p.grad, 1.0 - optim.BETA2, out=step)
        step *= p.grad
        v *= optim.BETA2
        v += step
        denom = np.divide(v, bc2)
        np.sqrt(denom, out=denom)
        denom += optim.ADAM_EPS
        np.divide(m, bc1, out=step)
        step *= state.lr
        step /= denom
        p.value -= step


def _install_dense_step(mp, norms, dense_moments):
    def clip(params):
        norms.append(dense_clip_gradients(params))
        return norms[-1]

    def adam(params, state):
        dense_adam_step(params, state, dense_moments)

    mp.setattr(model_zoo, "embedding_backward", dense_embedding_backward)
    mp.setattr(model_zoo, "dropout_forward", dense_dropout_forward)
    mp.setattr(model_zoo.Model, "zero_grads", dense_zero_grads)
    mp.setattr(optim, "clip_gradients", clip)
    mp.setattr(optim, "adam_step", adam)


# --- data --------------------------------------------------------------------

def _data(n, seed=0, vocab=VOCAB):
    rng = np.random.default_rng(seed)
    x = np.minimum(rng.zipf(1.2, (n, MAXLEN)) - 1, vocab - 1)
    x[:, :2] = 0  # left padding
    return x, rng.integers(0, 2, n).astype(np.float64)


def _model(preset, dtype, vocab=VOCAB, embed=EMBED, hidden=HIDDEN):
    vocab = textprep.Vocabulary([f"tok{i}" for i in range(vocab - 2)])
    return model_zoo.build(preset, vocab, maxlen=MAXLEN, seed=3,
                           embed_dim=embed, lstm_units=hidden, dtype=dtype)


def _embedding(rows=VOCAB, dtype=np.float64):
    value = np.random.default_rng(1).standard_normal((rows, EMBED))
    value[0] = 0.0
    return ParamTensor("embedding", value.astype(dtype))


# --- the same bits -----------------------------------------------------------

def _assert_trains_to_the_bits_of_the_dense_step(preset, dtype, vocab,
                                                  monkeypatch, **sizes):
    # MAX_NORM is lowered so that clipping fires at these small shapes
    monkeypatch.setattr(optim, "MAX_NORM", 0.3)
    x, y = _data(4 * BATCH, vocab=vocab)
    train = (x[:3 * BATCH], y[:3 * BATCH], x[3 * BATCH:], y[3 * BATCH:])
    config = optim.TrainConfig(epochs=2, batch_size=BATCH, seed=7,
                               patience=5)

    dense, norms, dense_moments = _model(preset, dtype, vocab, **sizes), [], {}
    with monkeypatch.context() as mp:
        _install_dense_step(mp, norms, dense_moments)
        dense_history = optim.fit(dense, *train, config)
    model = _model(preset, dtype, vocab, **sizes)
    history = optim.fit(model, *train, config)

    assert len(norms) == 6 and max(norms) > optim.MAX_NORM
    assert history.epochs == dense_history.epochs
    for (name, got), (_, want) in zip(model.tensors(), dense.tensors()):
        assert got.tobytes() == want.tobytes(), name
    for got, want in zip(model.params, dense.params):
        (got_m, got_v), (want_m, want_v) = (arena_moments(got),
                                            dense_moments[want.name])
        assert got_m.tobytes() == want_m.tobytes(), got.name
        assert got_v.tobytes() == want_v.tobytes(), got.name
    return train, model


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("preset", list(model_zoo.PRESETS))
def test_training_gives_the_bits_of_the_dense_step(preset, dtype,
                                                   monkeypatch):
    train, model = _assert_trains_to_the_bits_of_the_dense_step(
        preset, dtype, VOCAB, monkeypatch)
    assert len(np.unique(train[0])) < VOCAB // 10
    assert model.params[0].arena.count == 1


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("preset", list(model_zoo.PRESETS))
def test_a_packed_embedding_trains_to_the_bits_of_the_per_tensor_step(
        preset, dtype, monkeypatch):
    _, model = _assert_trains_to_the_bits_of_the_dense_step(
        preset, dtype, SMALL_VOCAB, monkeypatch)
    emb = model.params[0]
    assert all(p.arena is emb.arena for p in model.params)


@pytest.mark.parametrize("dtype, alone", [
    ("float64", ["lstm.W", "lstm.U"]), ("float32", ["lstm.U"])])
def test_paper_width_lstm_matrices_train_alone_to_the_per_tensor_bits(
        dtype, alone, monkeypatch):
    # at E = 100 and H = 150, U (720,000 B in float64, 360,000 B in
    # float32) and the float64 W (480,000 B) are larger than one block,
    # and a SMALL_VOCAB embedding is not
    _, model = _assert_trains_to_the_bits_of_the_dense_step(
        "optimized", dtype, SMALL_VOCAB, monkeypatch, embed=100, hidden=150)
    assert [p.name for p in model.params if p.arena.count == 1] == alone
    assert model.arenas == [model.params[0].arena] + [
        p.arena for p in model.params if p.name in alone]


@pytest.mark.parametrize("vocab", [VOCAB, SMALL_VOCAB])
def test_a_non_finite_packed_gradient_names_its_tensor(vocab):
    model = _model("optimized", "float64", vocab)
    names = [p.name for p in model.params]
    bad = {names.index("lstm.U"): np.nan, names.index("dense1.W"): np.inf}
    before = [p.value.copy() for p in model.params]
    rng = np.random.default_rng(6)
    for k, p in enumerate(model.params):
        p.grad[...] = rng.standard_normal(p.value.shape)
        if k in bad:
            p.grad.reshape(-1)[-1] = bad[k]
    grads = [p.grad.copy() for p in model.params]
    with pytest.raises(optim.NonFiniteGradient, match=r"in lstm\.U$"):
        optim.clip_gradients(model.params)
    for p, value, grad in zip(model.params, before, grads):
        assert p.value.tobytes() == value.tobytes(), p.name
        assert p.grad.tobytes() == grad.tobytes(), p.name
        m, v = arena_moments(p)
        assert not m.any() and not v.any(), p.name


# --- one tensor alone in its arena ------------------------------------------

def test_two_backward_passes_accumulate_then_clip_and_update_both():
    emb, dense = _embedding(), _embedding()
    rng = np.random.default_rng(2)
    batches = [rng.integers(1, 200, (4, 6)), rng.integers(300, 500, (4, 6))]
    for indices in batches:
        indices[0, 0] = 0  # a PAD token in each batch
        grad = rng.standard_normal((4, 6, EMBED)) * 10.0
        embedding_backward(grad, indices, emb)
        dense_embedding_backward(grad, indices, dense)
    assert emb.grad.tobytes() == dense.grad.tobytes()

    norm = optim.clip_gradients([emb])
    assert norm == dense_clip_gradients([dense]) and norm > optim.MAX_NORM
    assert emb.grad.tobytes() == dense.grad.tobytes()
    assert np.sqrt(np.sum(emb.grad ** 2)) == pytest.approx(optim.MAX_NORM)

    dense_moments = {}
    optim.adam_step([emb], optim.AdamState())
    dense_adam_step([dense], optim.AdamState(), dense_moments)
    assert emb.value.tobytes() == dense.value.tobytes()
    moved = np.flatnonzero(np.any(emb.value != _embedding().value, axis=1))
    touched = np.union1d(*batches)
    assert np.array_equal(moved, touched[touched > 0])
    (emb_m, emb_v), (dense_m, dense_v) = (arena_moments(emb),
                                          dense_moments[dense.name])
    assert emb_m.tobytes() == dense_m.tobytes()
    assert emb_v.tobytes() == dense_v.tobytes()


def test_zero_grads_zeroes_every_gradient():
    model = _model("optimized", "float64")
    assert model.params[0].arena.count == 1 and len(model.arenas) == 2
    rng = Prng(4)
    x, y = _data(BATCH)
    for _ in range(2):
        probs, caches = model.forward(x, rng)
        model.backward(caches, probs, y)
        assert all(p.grad.any() for p in model.params)
        model.zero_grads()
        assert not any(a.grad.any() for a in model.arenas)


def test_the_pad_row_stays_zero():
    emb = _embedding()
    state = optim.AdamState()
    rng = np.random.default_rng(5)
    for _ in range(3):
        emb.grad.fill(0.0)
        indices = rng.integers(0, 50, (4, 6))
        indices[:, 0] = 0
        embedding_backward(rng.standard_normal((4, 6, EMBED)), indices, emb)
        assert not emb.grad[0].any()
        optim.clip_gradients([emb])
        optim.adam_step([emb], state)
        assert not emb.value[0].any()
        m, v = arena_moments(emb)
        assert not m[0].any() and not v[0].any()
