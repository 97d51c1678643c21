import tracemalloc

import numpy as np
import pytest

from seqveritas import layers
from seqveritas.layers import (SCATTER_2D_ELEMENTS, BadRate, BatchNormRunning,
                               BatchTooSmall, IndexOutOfVocab, ParamTensor,
                               StaleCache, batchnorm_backward,
                               batchnorm_forward, dense_backward,
                               dense_forward, dropout_backward,
                               dropout_forward, embedding_backward,
                               embedding_forward, lstm_backward,
                               lstm_forward, lstm_infer)
from seqveritas.model_zoo import Lstm, ReLU
from seqveritas.numerics import (BLOCK, Prng, ShapeMismatch, dtanh,
                                 finite_diff_grad, sigmoid)


def _pt(name, arr, reg=()):
    return ParamTensor(name, np.asarray(arr, dtype=np.float64), regularizers=reg)


def _on_a_boundary(array):
    """A copy of `array` that starts at a multiple of PARAM_ALIGN bytes."""
    copy = layers._aligned(array.shape, array.dtype)
    copy[...] = array
    return copy


def test_a_standalone_tensor_is_an_arena_of_one_that_adopts_its_array():
    array = _on_a_boundary(np.arange(12.0).reshape(3, 4))
    p = ParamTensor("w", array)
    # no `pack` placed it, so its arena is made on first use, of grad here
    assert "arena" not in vars(p) and not hasattr(p, "span")
    assert p.grad.shape == (3, 4)
    assert p.arena.count == 1 and p.arena.value.size == 12
    assert p.span == slice(0, 12)
    assert np.shares_memory(p.value, array)
    p.value[1, 2] = -1.0
    assert array[1, 2] == -1.0
    assert p.arena.m[p.span].size == p.arena.v[p.span].size == 12
    assert not hasattr(p, "m") and not hasattr(p, "v")
    assert p.grad.dtype == array.dtype and not p.grad.any()
    assert np.shares_memory(p.grad, p.arena.grad)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("off", [0, 16, 32, 48])
def test_an_array_off_a_boundary_is_copied_once_onto_one(unzeroed_fill,
                                                         dtype, off):
    # `off` bytes past a boundary, as init_glorot's arrays may start: the
    # matrix kernels are slower there, so an arena of one copies it, into
    # an array it does not zero, here filled with 0xFF bytes
    set_fill, unzeroed = unzeroed_fill
    set_fill(0xFF)
    skip = off // np.dtype(dtype).itemsize
    array = layers._aligned((skip + 35,), dtype)[skip:].reshape(5, 7)
    array[...] = np.arange(35).reshape(5, 7)
    assert array.ctypes.data % layers.PARAM_ALIGN == off
    p = ParamTensor("w", array)
    arena = p.arena
    assert np.shares_memory(p.value, array) == (off == 0)
    assert arena.value.ctypes.data % layers.PARAM_ALIGN == 0
    assert arena.value.size == 35 and p.span == slice(0, 35)
    assert unzeroed == ([] if off == 0 else [(35,)])
    assert np.array_equal(p.value, np.arange(35).reshape(5, 7))
    assert np.shares_memory(p.value, arena.value)


def test_an_arena_packs_its_tensors_end_to_end():
    a = ParamTensor("a", np.ones((2, 3)))
    b = ParamTensor("b", np.full(4, 2.0))
    source = b.value
    arena = layers.Arena([a, b])
    # b starts at the first multiple of 64 bytes after a, from an aligned
    # base; the gap holds zeros
    assert a.arena is b.arena is arena
    assert arena.count == 2 and arena.value.ctypes.data % 64 == 0
    assert arena.value.tolist() == [1.0] * 6 + [0.0] * 2 + [2.0] * 4 + [0.0] * 4
    assert (a.span, b.span) == (slice(0, 6), slice(8, 12))
    assert not np.shares_memory(b.value, source)  # copied in once
    assert np.shares_memory(a.value, arena.value)
    assert arena.v[b.span].size == b.value.size
    with pytest.raises(ValueError, match="every tensor"):
        layers.arenas_of([a])
    with pytest.raises(ValueError, match="one dtype"):
        layers.Arena([ParamTensor("a", np.ones(2)),
                      ParamTensor("b", np.ones(2, np.float32))])


def test_pack_gives_a_tensor_over_one_block_an_arena_of_its_own():
    rows = layers.PARAM_BLOCK_BYTES // (8 * 8)  # float64 rows of 8
    sources = {"small0": np.full((3, 5), 1.0),
               "big0": _on_a_boundary(np.full((rows + 1, 8), 2.0)),
               "small1": np.full(7, 3.0),
               "block": np.full((rows, 8), 4.0),  # exactly one block
               "big1": _on_a_boundary(np.full((2 * rows, 8), 5.0))}
    params = [ParamTensor(name, array) for name, array in sources.items()]
    small0, big0, small1, block, big1 = params
    arenas = layers.pack(params)
    # first-appearance order: the shared arena, then each big tensor's
    assert arenas == [small0.arena, big0.arena, big1.arena]
    assert small0.arena is small1.arena is block.arena
    assert [a.count for a in arenas] == [3, 1, 1]
    assert arenas == layers.arenas_of(params)
    for p in (big0, big1):
        assert np.shares_memory(p.value, sources[p.name])  # adopted
        assert p.span == slice(0, p.value.size)
    shared = arenas[0]
    assert shared.value.ctypes.data % layers.PARAM_ALIGN == 0
    for p in (small0, small1, block):
        assert not np.shares_memory(p.value, sources[p.name])  # copied in
        assert p.span.start * 8 % layers.PARAM_ALIGN == 0
        assert np.array_equal(p.value, sources[p.name])
    assert [p.span.start for p in (small0, small1, block)] == [0, 16, 24]


def _lstm_params(d, h, rng=None, zero=False):
    if zero:
        w = np.zeros((d, 4 * h))
        u = np.zeros((h, 4 * h))
    else:
        w = rng.uniform(-0.5, 0.5, (d, 4 * h))
        u = rng.uniform(-0.5, 0.5, (h, 4 * h))
    return (_pt("W", w), _pt("U", u), _pt("b", np.zeros(4 * h)))


# --- embedding -------------------------------------------------------------

def test_embedding_pad_row_zero():
    emb = _pt("E", Prng(0).uniform(-1, 1, (5, 3)))
    emb.value[0] = 0.0
    out = embedding_forward(np.array([[0, 2]]), emb)
    assert np.array_equal(out[0, 0], np.zeros(3))
    assert np.array_equal(out[0, 1], emb.value[2])


def test_embedding_row_identity():
    emb = _pt("E", Prng(1).uniform(-1, 1, (8, 4)))
    before = embedding_forward(np.array([[5]]), emb).copy()
    emb.value[5] += 1.0
    after = embedding_forward(np.array([[5]]), emb)
    assert np.array_equal(after - before, np.ones((1, 1, 4)))


def test_embedding_out_of_vocab():
    emb = _pt("E", np.zeros((4, 2)))
    w, u, b = _lstm_params(2, 3, zero=True)
    for bad in (4, -1):
        with pytest.raises(IndexOutOfVocab):
            embedding_forward(np.array([[bad]]), emb)
        # the inference LSTM, which takes the table and indices in its place
        with pytest.raises(IndexOutOfVocab, match=r"outside \[0, 4\)"):
            lstm_infer(np.array([[1, bad]]), emb, w, u, b)


def _scatter_case(vocab, batch, steps, width, dtype, seed=0):
    """Indices with repeats and PAD tokens, and a (B, T, E) upstream
    gradient laid out time-major, as the LSTM's grad x is."""
    rng = np.random.default_rng(seed)
    indices = np.minimum(rng.zipf(1.3, (batch, steps)) - 1, vocab - 1)
    indices[:, :2] = 0
    grad = rng.standard_normal((steps, batch, width)).astype(dtype)
    return indices, grad.transpose(1, 0, 2)


def _dense_scatter(indices, grad, shape):
    """The embedding gradient as one 2-D np.add.at."""
    out = np.zeros(shape, grad.dtype)
    np.add.at(out, indices, grad)
    out[0] = 0.0
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("batch,steps", [(4, 6), (9, 200), (64, 40)])
def test_embedding_backward_is_the_2d_add_at_bit_for_bit(dtype, batch, steps):
    # (4, 6) goes through the 2-D call; the other two through the 1-D one
    # in several blocks, the last one short
    indices, grad = _scatter_case(300, batch, steps, 7, dtype)
    emb = ParamTensor("E", np.zeros((300, 7), dtype))
    embedding_backward(grad, indices, emb)
    want = _dense_scatter(indices, grad, (300, 7))
    assert emb.grad.tobytes() == want.tobytes()
    assert (grad.size > SCATTER_2D_ELEMENTS) == (batch > 4)


@pytest.mark.parametrize("batch", [4, 64])
def test_embedding_backward_narrow_index_dtypes_do_not_wrap(batch):
    # V * E = 1600: row * E would wrap in uint8 for any row >= 32
    indices, grad = _scatter_case(200, batch, 20, 8, np.float64, seed=3)
    assert indices.max() >= 32
    want = None
    for dtype in (np.int64, np.uint32, np.uint8):
        emb = ParamTensor("E", np.zeros((200, 8)))
        embedding_backward(grad, indices.astype(dtype), emb)
        if want is None:
            want = emb.grad
        assert emb.grad.tobytes() == want.tobytes()
    assert want.tobytes() == _dense_scatter(indices, grad, (200, 8)).tobytes()


# --- LSTM ------------------------------------------------------------------

def test_lstm_zero_weights_gives_zero_state():
    w, u, b = _lstm_params(3, 4, zero=True)
    x = Prng(2).uniform(-1, 1, (2, 5, 3))
    h, _ = lstm_forward(x, w, u, b)
    assert np.array_equal(h, np.zeros((2, 4)))


def test_lstm_pad_prefix_keeps_state_zero():
    # Frozen-zero PAD embeddings + zero biases: leading PAD steps leave
    # (h, c) exactly at zero.
    rng = Prng(3)
    d, hid = 3, 4
    w = _pt("W", rng.uniform(-0.5, 0.5, (d, 4 * hid)))
    u = _pt("U", rng.uniform(-0.5, 0.5, (hid, 4 * hid)))
    b = _pt("b", np.zeros(4 * hid))
    pad = np.zeros((1, 2, d))
    real = rng.uniform(-1, 1, (1, 2, d))
    full = np.concatenate([pad, real], axis=1)
    _, cache = lstm_forward(full, w, u, b)
    assert np.array_equal(cache.h[1], np.zeros((1, hid)))
    assert np.array_equal(cache.h[2], np.zeros((1, hid)))
    assert np.array_equal(cache.c[2], np.zeros((1, hid)))
    # and the final state matches running the real suffix alone
    h_suffix, _ = lstm_forward(real, w, u, b)
    h_full, _ = lstm_forward(full, w, u, b)
    assert np.allclose(h_full, h_suffix, atol=1e-15)


def test_lstm_param_count_reference_shapes():
    d, hid = 100, 150
    count = d * 4 * hid + hid * 4 * hid + 4 * hid
    assert count == 4 * hid * (d + hid + 1) == 150_600


def test_lstm_shape_mismatch():
    w, u, b = _lstm_params(3, 4, zero=True)
    with pytest.raises(ShapeMismatch):
        lstm_forward(np.zeros((1, 2, 5)), w, u, b)


def test_lstm_backward_zero_grad():
    rng = Prng(4)
    w, u, b = _lstm_params(3, 4, rng)
    x = rng.uniform(-1, 1, (2, 3, 3))
    _, cache = lstm_forward(x, w, u, b)
    gx = lstm_backward(np.zeros((2, 4)), cache, w, u, b)
    assert np.array_equal(gx, np.zeros_like(x))
    assert np.array_equal(w.grad, np.zeros_like(w.value))


def test_lstm_stale_cache():
    rng = Prng(5)
    w, u, b = _lstm_params(2, 2, rng)
    x = rng.uniform(-1, 1, (1, 2, 2))
    _, cache = lstm_forward(x, w, u, b)
    lstm_backward(np.ones((1, 2)), cache, w, u, b)
    with pytest.raises(StaleCache):
        lstm_backward(np.ones((1, 2)), cache, w, u, b)


def _oracle_lstm(x, w, u, b, grad_ht):
    """The per-step LSTM this module replaced, kept as an oracle: forward
    and full BPTT with Python lists of per-step arrays.
    Returns (h_T, grad_x, dW, dU, db)."""
    batch, steps, _ = x.shape
    hidden = u.shape[0]
    h_t = np.zeros((batch, hidden))
    c_t = np.zeros((batch, hidden))
    gates, cs, hs, tanh_cs = [], [c_t], [h_t], []
    for t in range(steps):
        z = x[:, t, :] @ w + h_t @ u + b
        gi = sigmoid(z[:, :hidden])
        gf = sigmoid(z[:, hidden:2 * hidden])
        gg = np.tanh(z[:, 2 * hidden:3 * hidden])
        go = sigmoid(z[:, 3 * hidden:])
        c_t = gf * c_t + gi * gg
        tc = np.tanh(c_t)
        h_t = go * tc
        gates.append((gi, gf, gg, go))
        cs.append(c_t)
        hs.append(h_t)
        tanh_cs.append(tc)
    dw, du, db = np.zeros_like(w), np.zeros_like(u), np.zeros_like(b)
    grad_x = np.zeros_like(x)
    dh = grad_ht.copy()
    dc = np.zeros((batch, hidden))
    for t in range(steps - 1, -1, -1):
        gi, gf, gg, go = gates[t]
        tc = tanh_cs[t]
        do = dh * tc
        dc = dc + dh * go * (1.0 - tc * tc)
        dz = np.concatenate([dc * gg * gi * (1.0 - gi),
                             dc * cs[t] * gf * (1.0 - gf),
                             dc * gi * (1.0 - gg * gg),
                             do * go * (1.0 - go)], axis=1)
        dw += x[:, t, :].T @ dz
        du += hs[t].T @ dz
        db += dz.sum(axis=0)
        grad_x[:, t, :] = dz @ w.T
        dh = dz @ u.T
        dc = dc * gf
    return h_t, grad_x, dw, du, db


def _oracle_case(batch, steps, d, hid):
    rng = Prng(11 + batch + steps)
    w, u, b = _lstm_params(d, hid, rng)
    b.value[...] = rng.uniform(-0.5, 0.5, (4 * hid,))
    x = rng.uniform(-1, 1, (batch, steps, d))
    grad_ht = rng.uniform(-1, 1, (batch, hid))
    return x, (w, u, b), grad_ht


# (B, T, d, H): one example, one step, d != H both ways, long sequences;
# the last two are tall T*B products (2,200 and 1,170 rows), whose grad x
# is one product over every step
@pytest.mark.parametrize("batch,steps,d,hid", [
    (1, 7, 4, 4), (3, 1, 4, 4), (2, 6, 5, 3), (4, 5, 3, 7), (1, 1, 2, 5),
    (1, 40, 4, 6), (3, 40, 5, 4), (1100, 2, 3, 4), (130, 9, 3, 4)])
def test_lstm_matches_per_step_oracle(batch, steps, d, hid):
    x, (w, u, b), grad_ht = _oracle_case(batch, steps, d, hid)
    h, cache = lstm_forward(x, w, u, b)
    grad_x = lstm_backward(grad_ht, cache, w, u, b)
    want = _oracle_lstm(x, w.value, u.value, b.value, grad_ht)
    for got, ref in zip((h, grad_x, w.grad, u.grad, b.grad), want):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) < 1e-12


@pytest.mark.parametrize("batch,steps,d,hid", [(1, 40, 4, 6), (3, 40, 5, 4),
                                               (4, 5, 3, 7)])
def test_lstm_float32_matches_float64_oracle(batch, steps, d, hid):
    x, params, grad_ht = _oracle_case(batch, steps, d, hid)
    x32 = x.astype(np.float32)
    params32 = [ParamTensor(p.name, p.value.astype(np.float32))
                for p in params]
    h, cache = lstm_forward(x32, *params32)
    grad_x = lstm_backward(grad_ht.astype(np.float32), cache, *params32)
    # the oracle sees the float32 inputs exactly, in float64
    want = _oracle_lstm(x32.astype(np.float64),
                        *(p.value.astype(np.float64) for p in params32),
                        grad_ht.astype(np.float32).astype(np.float64))
    for got, ref in zip((h, grad_x, *(p.grad for p in params32)), want):
        assert got.dtype == np.float32
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-5 * max(1.0, np.max(np.abs(ref)))


def test_lstm_backward_accumulates_into_param_grads():
    x, (w, u, b), grad_ht = _oracle_case(3, 8, 4, 5)
    rng = Prng(15)
    before = [rng.uniform(-1, 1, p.value.shape) for p in (w, u, b)]
    for p, g in zip((w, u, b), before):
        p.grad[...] = g
    _, cache = lstm_forward(x, w, u, b)
    lstm_backward(grad_ht, cache, w, u, b)
    _, _, dw, du, db = _oracle_lstm(x, w.value, u.value, b.value, grad_ht)
    for p, g, ref in zip((w, u, b), before, (dw, du, db)):
        assert np.max(np.abs(p.grad - (g + ref))) < 1e-12


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("batch,steps", [(1, 40), (5, 7), (130, 9)])
def test_lstm_grad_x_shape_and_dtype(dtype, batch, steps):
    rng = Prng(16)
    d, hid = 3, 4
    params = [ParamTensor(p.name, p.value.astype(dtype))
              for p in _lstm_params(d, hid, rng)]
    x = rng.uniform(-1, 1, (batch, steps, d)).astype(dtype)
    h, cache = lstm_forward(x, *params)
    grad_ht = rng.uniform(-1, 1, h.shape).astype(dtype)
    grad_x = lstm_backward(grad_ht, cache, *params)
    assert grad_x.shape == (batch, steps, d)
    assert grad_x.dtype == dtype
    assert np.all(np.isfinite(grad_x)) and np.any(grad_x != 0.0)


def _lookup_case(batch, steps, vocab, d, hid, dtype=np.float64, seed=12):
    """(indices, table, (W, U, b)): rows cycle through no PAD prefix, a
    few PAD steps, all but one step PAD and all PAD; the PAD row of the
    table is not zero, which no output bit relies on."""
    rng = np.random.default_rng(seed)
    indices = rng.integers(1, vocab, (batch, steps))
    for row, pad in enumerate(np.resize([0, 3, steps - 1, steps], batch)):
        indices[row, :pad] = 0
    table = ParamTensor("E", rng.uniform(-1, 1, (vocab, d)).astype(dtype))
    params = [ParamTensor(n, rng.uniform(-0.5, 0.5, shape).astype(dtype))
              for n, shape in (("W", (d, 4 * hid)), ("U", (hid, 4 * hid)),
                               ("b", (4 * hid,)))]
    return indices, table, params


def test_lstm_without_history_gives_the_same_bits():
    indices, table, (w, u, b) = _lookup_case(3, 9, 20, 5, 6)
    h_train, cache = lstm_forward(embedding_forward(indices, table), w, u, b)
    h_eval = lstm_infer(indices, table, w, u, b)
    assert h_eval.tobytes() == h_train.tobytes()
    assert cache.h[9].tobytes() == h_train.tobytes()


# A vocabulary as large as the positions, so the distinct tokens outgrow
# PROJECT_BYTES: (300, 37) goes in runs of several steps, (5000, 3) in
# runs of one step whose positions pass it. Both OpenBLAS kernels: 11,100
# and 15,000 positions of d = 64 project on the large one; 300 rows of
# H = 16 recur on the small one and 5,000 on the large one.
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("batch,steps", [(300, 37), (5000, 3)])
def test_lstm_projects_in_runs_without_history_to_the_same_bits(
        monkeypatch, dtype, batch, steps):
    monkeypatch.setattr(layers, "PROJECT_BYTES", 1 << 20)
    indices, table, params = _lookup_case(batch, steps, batch * steps + 1,
                                          64, 16, dtype)
    span = max(1, layers.PROJECT_BYTES
               // (batch * 4 * 16 * np.dtype(dtype).itemsize))
    runs = -(-steps // span)
    assert 1 < runs <= steps
    h_train, _ = lstm_forward(embedding_forward(indices, table), *params)
    h_eval = lstm_infer(indices, table, *params)
    assert h_eval.dtype == dtype
    assert h_eval.tobytes() == h_train.tobytes()


def test_lstm_without_history_never_holds_every_steps_gates(monkeypatch):
    # every position a distinct token: P is bounded by PROJECT_BYTES, not
    # by the batch's distinct tokens
    monkeypatch.setattr(layers, "PROJECT_BYTES", 1 << 20)
    batch, steps, d, hid = 300, 37, 64, 16
    _, table, params = _lookup_case(batch, steps, batch * steps + 1, d, hid)
    indices = 1 + np.random.default_rng(4).permutation(
        batch * steps).reshape(batch, steps)
    tracemalloc.start()
    try:
        lstm_infer(indices, table, *params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < steps * batch * 4 * hid * 8


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8])
@pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (13, 1, 3)])
def test_aligned_gives_a_zeroed_array_on_a_param_boundary(dtype, shape):
    for _ in range(8):  # the allocator's addresses vary from call to call
        array = layers._aligned(shape, dtype)
        assert array.shape == shape and array.dtype == dtype
        assert array.flags.c_contiguous and array.flags.writeable
        assert array.ctypes.data % layers.PARAM_ALIGN == 0
        assert not array.any()


def _per_step_h_t(indices, table, w, u, b):
    """h_T of a plain loop over every row at every step: P = table[tokens]
    W + b over the distinct tokens, padded with PAD's row to the rows
    `lstm_infer` projects, then at each step z = P[row] + h U and the
    cell's calls in their order."""
    batch, steps = indices.shape
    hidden = u.shape[0]
    scale, offset, _ = layers._gate_constants(hidden, u.dtype)
    distinct = np.unique(indices)
    least = layers._least_rows(batch * steps, table.shape[1] * 4 * hidden)
    pick = np.zeros(max(distinct.size, least), np.intp)
    pick[:distinct.size] = distinct
    proj = table[pick] @ w + b
    rows = np.searchsorted(distinct, indices)
    c = np.zeros((batch, hidden), u.dtype)
    h = np.zeros_like(c)
    for t in range(steps):
        z = proj[rows[:, t]] + h @ u
        z = np.tanh(z * scale) * scale + offset
        i, f, g, o = np.split(z, 4, axis=1)
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


# (V, T, d, H): the paper's widths, and gradcheck's miniature ones
LOOP_SHAPES = {"paper": (300, 50, 100, 150), "mini": (50, 6, 8, 8)}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", sorted(LOOP_SHAPES))
@pytest.mark.parametrize("lead", ["none", "pad", "staggered"])
def test_inference_gives_the_bits_of_a_plain_per_step_loop(dtype, shape,
                                                           lead):
    # one row with no PAD prefix or with one, or four rows whose prefixes
    # grow the step window, one of them PAD to the end, out of sort order
    vocab, steps, d, hid = LOOP_SHAPES[shape]
    leads = {"none": [0], "pad": [steps // 3],
             "staggered": [steps // 2, steps, 0, 1]}[lead]
    rng = np.random.default_rng(9)
    indices = rng.integers(1, vocab, (len(leads), steps))
    for row, pad in enumerate(leads):
        indices[row, :pad] = 0
    table, w, u, b = (rng.uniform(-0.5, 0.5, s).astype(dtype)
                      for s in ((vocab, d), (d, 4 * hid), (hid, 4 * hid),
                                (4 * hid,)))
    want = _per_step_h_t(indices, table, w, u, b)
    got = lstm_infer(indices, *(ParamTensor(n, a) for n, a in
                                zip("EWUb", (table, w, u, b))))
    assert got.dtype == dtype
    assert got.tobytes() == want.tobytes()


# Rows' PAD prefixes -> the window of rows each of the 9 steps covers: at
# least 2 of these 4 rows (`_least_rows`), growing as the sorted rows
# start
WINDOWS = {(0,): [1] * 9, (5,): [1] * 9,
           (3, 9, 0, 1): [2, 3, 3, 4, 4, 4, 4, 4, 4]}


@pytest.mark.parametrize("leads", [[0], [5], [3, 9, 0, 1]])
def test_inference_steps_run_on_buffers_at_a_param_boundary(monkeypatch,
                                                            leads):
    indices, table, params = _lookup_case(len(leads), 9, 20, 5, 6)
    indices = np.maximum(indices, 1)  # no row keeps `_lookup_case`'s prefix
    for row, pad in enumerate(leads):
        indices[row, :pad] = 0
    offsets, rows = set(), []
    cell = layers._cell

    def recording(z, gates, *arrays):
        offsets.update(a.ctypes.data % layers.PARAM_ALIGN
                       for a in (z, gates[0], *arrays))
        rows.append(z.shape[0])
        return cell(z, gates, *arrays)

    monkeypatch.setattr(layers, "_cell", recording)
    lstm_infer(indices, table, *params)
    assert offsets == {0}
    assert rows == WINDOWS[tuple(leads)]


@pytest.mark.parametrize("case", ["one row", "staggered", "training"])
def test_no_step_ufunc_takes_a_broadcast_gate_constant(monkeypatch, case):
    # scale and offset at z's own shape, so that z *= scale and z +=
    # offset take numpy's same-shape path; `_lookup_case`'s four rows
    # have 0, 3, 8 and 9 PAD steps, so their window of rows grows
    shapes = []
    cell = layers._cell

    def recording(z, gates, *arrays):
        scale, offset = arrays[-2:]
        shapes.append((z.shape, scale.shape, offset.shape))
        return cell(z, gates, *arrays)

    monkeypatch.setattr(layers, "_cell", recording)
    if case == "training":
        rng = Prng(3)
        lstm_forward(rng.uniform(-1, 1, (4, 9, 5)), *_lstm_params(5, 6, rng))
    else:
        rows = {"one row": 1, "staggered": 4}[case]
        indices, table, params = _lookup_case(rows, 9, 20, 5, 6)
        lstm_infer(indices, table, *params)
    assert len(shapes) == 9
    assert all(z == scale == offset for z, scale, offset in shapes)
    if case == "staggered":
        assert len({z for z, _, _ in shapes}) > 1


def _per_step_training(x, grad_ht, w, u, b):
    """(h_T, gates, c, h, grad x, dW, dU, db) of a plain loop over every
    step with the gate math's broadcast expressions: the forward's
    tanh(z * scale) * scale + offset, and the backward's dc + dh * go *
    dtanh(tc) and (1 - z) * (z + shift). The products are the kernels':
    x W + b, h U and dz U^T at each step, and grad x, dW, dU and db over
    all T*B rows, each gradient added to zeros."""
    batch, steps, d = x.shape
    hidden = u.shape[0]
    scale, offset, shift = layers._gate_constants(hidden, u.dtype)
    x_rows = x.transpose(1, 0, 2).reshape(-1, d)
    proj = (x_rows @ w + b).reshape(steps, batch, 4 * hidden)
    gates = np.empty_like(proj)
    c = np.zeros((steps + 1, batch, hidden), u.dtype)
    h = np.zeros_like(c)
    for t in range(steps):
        z = proj[t] + h[t] @ u
        gates[t] = z = np.tanh(z * scale) * scale + offset
        i, f, g, o = np.split(z, 4, axis=1)
        c[t + 1] = f * c[t] + i * g
        h[t + 1] = o * np.tanh(c[t + 1])
    dz = np.empty_like(gates)
    dh = grad_ht.astype(u.dtype)
    dc = np.zeros((batch, hidden), u.dtype)
    for t in range(steps - 1, -1, -1):
        z = gates[t].reshape(batch, 4, hidden)
        gi, gf, gg, go = (z[:, k] for k in range(4))
        tc = np.tanh(c[t + 1])
        dc = dc + dh * go * dtanh(tc)
        slope = (1 - z) * (z + shift.reshape(4, hidden))
        slope *= np.stack([gg, c[t], gi, tc], axis=1)
        dz[t] = (slope * np.stack([dc, dc, dc, dh], axis=1)).reshape(batch,
                                                                     -1)
        dh = dz[t] @ u.T
        dc = dc * gf
    dz_rows = dz.reshape(-1, 4 * hidden)
    grad_x = (dz_rows @ w.T).reshape(steps, batch, d).transpose(1, 0, 2)
    return (h[steps], gates, c, h, grad_x, 0.0 + x_rows.T @ dz_rows,
            0.0 + h[:steps].reshape(-1, hidden).T @ dz_rows,
            0.0 + dz_rows.sum(axis=0))


# (B, T, d, H): the paper's widths, where 64 rows shard at a budget of 2,
# and gradcheck's miniature ones
TRAIN_LOOP_SHAPES = {"paper": (64, 6, 100, 150), "mini": (4, 6, 8, 8)}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", sorted(TRAIN_LOOP_SHAPES))
@pytest.mark.parametrize("budget", [1, 2])
def test_training_gives_the_bits_of_a_plain_per_step_loop(monkeypatch, dtype,
                                                          shape, budget):
    batch, steps, d, hid = TRAIN_LOOP_SHAPES[shape]
    monkeypatch.setattr(layers.blas, "threads", lambda: budget)
    assert layers._lstm_cuts(batch, steps, d, hid)[0] == (
        budget if shape == "paper" else 1)
    rng = np.random.default_rng(4)
    x, grad_ht, w, u, b = (rng.uniform(-0.5, 0.5, s).astype(dtype)
                           for s in ((batch, steps, d), (batch, hid),
                                     (d, 4 * hid), (hid, 4 * hid),
                                     (4 * hid,)))
    want = _per_step_training(x, grad_ht, w, u, b)
    params = [ParamTensor(n, a) for n, a in zip("WUb", (w, u, b))]
    h_t, cache = lstm_forward(x, *params)
    got = (h_t, cache.gates.copy(), cache.c, cache.h,
           lstm_backward(grad_ht, cache, *params), *(p.grad for p in params))
    names = ("h_T", "gates", "c", "h", "grad x", "dW", "dU", "db")
    for name, a, want_a in zip(names, got, want):
        assert a.dtype == dtype and a.shape == want_a.shape, name
        assert a.tobytes() == want_a.tobytes(), name


def test_lstm_cache_layout():
    rng = Prng(13)
    batch, steps, d, hid = 2, 4, 3, 5
    w, u, b = _lstm_params(d, hid, rng)
    x = rng.uniform(-1, 1, (batch, steps, d))
    h, cache = lstm_forward(x, w, u, b)
    assert cache.x.shape == (batch, steps, d)
    assert cache.gates.shape == (steps, batch, 4 * hid)
    assert cache.c.shape == cache.h.shape == (steps + 1, batch, hid)
    assert not hasattr(cache, "tanh_c")  # the backward recomputes it
    assert np.array_equal(cache.h[steps], h)
    # h_t = o_t * tanh(c_t) with np.tanh's bits, which the recompute has
    o = cache.gates[..., 3 * hid:]
    assert (o * np.tanh(cache.c[1:])).tobytes() == cache.h[1:].tobytes()


def test_lstm_float32_stays_float32():
    rng = Prng(14)
    params = [ParamTensor(p.name, p.value.astype(np.float32))
              for p in _lstm_params(3, 4, rng)]
    x = rng.uniform(-1, 1, (2, 5, 3)).astype(np.float32)
    h, cache = lstm_forward(x, *params)
    grad_x = lstm_backward(np.ones_like(h), cache, *params)
    for name in ("x", "gates", "c", "h"):
        assert getattr(cache, name).dtype == np.float32, name
    assert h.dtype == grad_x.dtype == np.float32
    for p in params:
        assert p.grad.dtype == np.float32
        assert np.any(p.grad != 0.0)


# --- dense -----------------------------------------------------------------

def test_dense_identity():
    w = _pt("W", np.eye(3))
    b = _pt("b", np.zeros(3))
    x = Prng(6).uniform(-1, 1, (4, 3))
    y, _ = dense_forward(x, w, b)
    assert np.array_equal(y, x)


def test_dense_relu_backward_zeroes_negative_preact():
    """Dense -> ReLU, the hidden block of every preset: the gradient
    reaches the input only where the pre-activation was positive."""
    w = _pt("W", np.eye(2))
    b = _pt("b", np.array([0.0, 0.0]))
    x = np.array([[1.0, -2.0]])
    relu = ReLU()
    z, dense_cache = dense_forward(x, w, b)
    y, relu_cache = relu.forward(z, None)
    assert np.array_equal(y, [[1.0, 0.0]])
    gx = dense_backward(relu.backward(np.ones((1, 2)), relu_cache),
                        dense_cache, w, b)
    assert np.array_equal(gx, [[1.0, 0.0]])
    assert np.array_equal(w.grad, [[1.0, 0.0], [-2.0, 0.0]])
    assert np.array_equal(b.grad, [1.0, 0.0])


def test_dense_shape_mismatch():
    # numpy's own refusal, which the CLI reports with exit 2
    w, b = _pt("W", np.zeros((4, 2))), _pt("b", np.zeros(2))
    with pytest.raises(ValueError):
        dense_forward(np.zeros((2, 3)), w, b)
    _, cache = dense_forward(np.zeros((2, 4)), w, b)
    with pytest.raises(ValueError):
        dense_backward(np.zeros((2, 3)), cache, w, b)


# --- dropout ---------------------------------------------------------------

def test_dropout_p0_identity():
    x = Prng(7).uniform(-1, 1, (3, 3))
    for rng in (Prng(0), None):
        y, _ = dropout_forward(x, 0.0, rng)
        assert np.array_equal(y, x)


def test_dropout_eval_identity():
    x = Prng(8).uniform(-1, 1, (3, 3))
    y, cache = dropout_forward(x, 0.2, None)
    assert np.array_equal(y, x)
    assert np.array_equal(dropout_backward(np.ones_like(x), cache),
                          np.ones_like(x))


def test_dropout_bad_rate():
    with pytest.raises(BadRate):
        dropout_forward(np.zeros((1, 1)), 1.0, Prng(0))
    with pytest.raises(BadRate):
        dropout_forward(np.zeros((1, 1)), -0.1, Prng(0))


def test_dropout_monte_carlo_expectation():
    # E[y] = x under inverted dropout; 1e5 masks on a single unit.
    rng = Prng(9)
    x = np.array([[2.0]])
    total = 0.0
    n = 100_000
    for _ in range(n):
        y, _ = dropout_forward(x, 0.2, rng)
        total += y[0, 0]
    assert total / n == pytest.approx(2.0, rel=0.01)


def test_dropout_mask_scale_values():
    rng = Prng(10)
    x = np.ones((100, 100))
    y, _ = dropout_forward(x, 0.2, rng)
    assert set(np.round(np.unique(y), 10)) <= {0.0, round(1 / 0.8, 10)}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rate", [0.2, 0.3, 0.5, 0.9])
@pytest.mark.parametrize("shape", [(3, 7), (2, BLOCK // 2 + 3, 3)])
def test_dropout_mask_is_uniform_below_keep_over_keep(dtype, rate, shape):
    x = np.random.default_rng(1).standard_normal(shape).astype(dtype)
    x.reshape(-1)[0] = -0.0
    y, cache = dropout_forward(x, rate, Prng(5))
    keep = 1.0 - rate
    mask = (Prng(5).uniform(0.0, 1.0, shape) < keep).astype(dtype) / keep
    # the mask the backward applies, rebuilt from the boolean cache
    applied = dropout_backward(np.ones_like(x), cache)
    assert applied.dtype == y.dtype == dtype
    assert applied.tobytes() == mask.tobytes()
    assert y.tobytes() == (x * mask).tobytes()


# --- batch norm ------------------------------------------------------------

def test_batchnorm_standardizes():
    rng = Prng(11)
    x = rng.uniform(-5, 5, (32, 3))
    gamma = _pt("g", np.ones(3))
    beta = _pt("b", np.zeros(3))
    y, _ = batchnorm_forward(x, gamma, beta, BatchNormRunning.fresh(3), True)
    assert np.max(np.abs(y.mean(axis=0))) < 1e-6
    assert np.max(np.abs(y.var(axis=0) - 1.0)) < 1e-4  # biased, eps-shifted


def test_batchnorm_constant_column():
    x = np.full((8, 2), 3.7)
    gamma = _pt("g", np.ones(2))
    beta = _pt("b", np.zeros(2))
    y, _ = batchnorm_forward(x, gamma, beta, BatchNormRunning.fresh(2), True)
    assert np.allclose(y, 0.0, atol=1e-9)
    assert np.all(np.isfinite(y))


def test_batchnorm_batch_too_small():
    with pytest.raises(BatchTooSmall):
        batchnorm_forward(np.zeros((1, 2)), _pt("g", np.ones(2)),
                          _pt("b", np.zeros(2)), BatchNormRunning.fresh(2),
                          True)


def test_batchnorm_running_stats_update():
    x = np.array([[0.0], [2.0], [4.0], [6.0]])  # mean 3, biased var 5
    running = BatchNormRunning.fresh(1)
    batchnorm_forward(x, _pt("g", np.ones(1)), _pt("b", np.zeros(1)),
                      running, True)
    assert running.mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 3.0)
    # unbiased correction folds var * n/(n-1) into the running stat
    assert running.var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 5.0 * 4 / 3)


def _batchnorm_forward_numpy(x, gamma, beta, running):
    """The training forward in numpy's own forms: x.mean and x.var, and
    running stats rebound from one expression each."""
    batch = x.shape[0]
    mean, var = x.mean(axis=0), x.var(axis=0)
    momentum = layers.BN_MOMENTUM
    running_mean = momentum * running.mean + (1.0 - momentum) * mean
    running_var = (momentum * running.var
                   + (1.0 - momentum) * var * batch / (batch - 1))
    inv_std = 1.0 / np.sqrt(var + layers.BN_EPS)
    x_hat = (x - mean) * inv_std
    return gamma * x_hat + beta, x_hat, inv_std, running_mean, running_var


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_batchnorm_training_forward_has_the_bits_of_numpys_mean_and_var(
        dtype):
    rng = np.random.default_rng(13)
    for batch in (2, 3, 4, 5, 8, 17, 64, 130):
        for width in (1, 3, 16, 128):
            gamma = rng.standard_normal(width).astype(dtype)
            beta = rng.standard_normal(width).astype(dtype)
            running = BatchNormRunning(
                mean=rng.standard_normal(width).astype(dtype),
                var=rng.uniform(0.5, 2.0, width).astype(dtype))
            mean_buffer, var_buffer = running.mean, running.var
            for _ in range(3):
                x = (rng.standard_normal((batch, width))
                     * 10.0 ** rng.integers(-3, 4)
                     + rng.standard_normal(width)).astype(dtype)
                want = _batchnorm_forward_numpy(x, gamma, beta, running)
                y, cache = batchnorm_forward(x, ParamTensor("g", gamma),
                                             ParamTensor("b", beta), running,
                                             True)
                got = (y, *cache, running.mean, running.var)
                for name, a, b in zip(("y", "x_hat", "inv_std", "mean",
                                       "var"), got, want):
                    assert a.dtype == dtype, name
                    assert a.tobytes() == b.tobytes(), (name, batch, width)
            # folded in place: the running stats keep their arrays
            assert running.mean is mean_buffer and running.var is var_buffer


def test_batchnorm_eval_uses_running_stats():
    running = BatchNormRunning(mean=np.array([1.0]), var=np.array([4.0]))
    x = np.array([[3.0]])
    y, _ = batchnorm_forward(x, _pt("g", np.ones(1)), _pt("b", np.zeros(1)),
                             running, False)
    assert y[0, 0] == pytest.approx((3.0 - 1.0) / np.sqrt(4.0 + 1e-5))


def test_read_only_backwards_repeat_and_add_their_gradient_again():
    """Dense, Dropout and BatchNorm backward only read their caches: a
    second call on one cache returns the bits of the first grad x and
    leaves each parameter gradient at exactly twice its value after one."""
    rng = Prng(12)
    x = rng.uniform(-1, 1, (4, 3))
    grad_y = rng.uniform(-1, 1, (4, 3))
    w = _pt("w", rng.uniform(-1, 1, (3, 3)))
    b = _pt("b", rng.uniform(-1, 1, (3,)))
    gamma = _pt("g", rng.uniform(0.5, 1.5, (3,)))
    beta = _pt("be", rng.uniform(-1, 1, (3,)))
    _, dense_cache = dense_forward(x, w, b)
    _, mask = dropout_forward(x, 0.5, Prng(3))
    _, bn_cache = batchnorm_forward(x, gamma, beta,
                                    BatchNormRunning.fresh(3), True)
    cases = [(lambda: dense_backward(grad_y, dense_cache, w, b), (w, b)),
             (lambda: dropout_backward(grad_y, mask), ()),
             (lambda: batchnorm_backward(grad_y, bn_cache, gamma, beta),
              (gamma, beta))]
    for backward, params in cases:
        first = backward()
        once = [p.grad.copy() for p in params]
        assert all(np.any(g != 0.0) for g in once)
        second = backward()
        assert second.tobytes() == first.tobytes()
        for p, g in zip(params, once):
            assert p.grad.tobytes() == (2.0 * g).tobytes(), p.name


def test_gate_constants_are_made_once_per_shape_and_read_only():
    made = layers._gate_constants(8, np.dtype(np.float64))
    assert layers._gate_constants(8, np.dtype(np.float64)) is made
    assert layers._gate_constants(8, np.dtype(np.float32))[0].dtype == \
        np.float32
    for a in made:
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_batchnorm_forward_on_a_stack_gives_each_batch_its_bits():
    """A stack of batches on a leading axis, or a stack of gammas, gives each
    batch the y of its own call; the running stats fold no stack."""
    rng = np.random.default_rng(21)
    for batch, width in [(2, 3), (4, 64), (4, 128), (9, 16)]:
        xs = rng.standard_normal((6, batch, width))
        gammas = rng.standard_normal((6, 1, width))
        gamma = _pt("g", rng.standard_normal(width))
        beta = _pt("b", rng.standard_normal(width))
        running = BatchNormRunning.fresh(width)
        y, _ = batchnorm_forward(xs, gamma, beta, running, True)
        assert running.mean.tolist() == [0.0] * width
        assert running.var.tolist() == [1.0] * width
        from_gammas, _ = batchnorm_forward(
            xs[0], _pt("stack", gammas), beta, BatchNormRunning.fresh(width),
            True)
        for k in range(len(xs)):
            alone, _ = batchnorm_forward(xs[k].copy(), gamma, beta,
                                         BatchNormRunning.fresh(width), True)
            assert y[k].tobytes() == alone.tobytes()
            alone, _ = batchnorm_forward(
                xs[0].copy(), _pt("g", gammas[k, 0].copy()), beta,
                BatchNormRunning.fresh(width), True)
            assert from_gammas[k].tobytes() == alone.tobytes()


# --- stacked probes ----------------------------------------------------------
# gradcheck hands the kernels a stack of probe points on a leading axis, in
# the stack sizes `finite_diff_grad` asks for: each output of a stack must
# have the bits of its point's own call.

def _probe_stacks(shape):
    """The stack sizes `finite_diff_grad` hands a loss of a float64 tensor
    of `shape`."""
    sizes = set()

    def losses(points):
        sizes.add(len(points))
        return np.zeros(len(points))

    finite_diff_grad(losses, np.zeros(shape))
    return sorted(sizes)


@pytest.mark.parametrize("shape", [(7, 4), (50, 8)])
def test_embedding_forward_on_a_stack_of_tables_gives_each_its_lookup(shape):
    rng = np.random.default_rng(3)
    indices = rng.integers(0, shape[0], (4, 6))
    for n in _probe_stacks(shape):
        tables = rng.standard_normal((n, *shape))
        out = embedding_forward(indices, _pt("E", tables))
        assert out.shape == (n, 4, 6, shape[1])
        for k in range(n):
            alone = embedding_forward(indices, _pt("E", tables[k].copy()))
            assert out[k].tobytes() == alone.tobytes()


# (batch, steps, d, hidden) of gradcheck's layer check and of its mini model
LSTM_PROBE_SHAPES = [(3, 4, 5, 4), (4, 6, 8, 8)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("batch,steps,d,hid", LSTM_PROBE_SHAPES)
@pytest.mark.parametrize("which", [0, 1, 2], ids=["W", "U", "b"])
def test_lstm_forward_on_a_stack_of_one_tensor_gives_each_its_h_t(
        dtype, batch, steps, d, hid, which):
    rng = Prng(40 + which)
    params = [ParamTensor(p.name, p.value.astype(dtype))
              for p in _lstm_params(d, hid, rng)]
    params[2].value[...] = rng.uniform(-0.5, 0.5, (4 * hid,))
    x = rng.uniform(-1, 1, (batch, steps, d)).astype(dtype)
    shape = params[which].value.shape
    n = max(_probe_stacks(shape))
    values = (params[which].value
              + rng.uniform(-1e-3, 1e-3, (n, *shape))).astype(dtype)
    stacked = list(params)
    # a vector arrives with a unit batch axis, as gradcheck hands it
    stacked[which] = ParamTensor("stack", values[:, None] if values.ndim == 2
                                 else values)
    h, cache = lstm_forward(x, *stacked)
    assert h.shape == (n, batch, hid) and h.dtype == dtype
    assert cache.gates.shape == (n, steps, batch, 4 * hid)
    for k in range(n):
        alone = list(params)
        alone[which] = ParamTensor("one", values[k].copy())
        h_k, _ = lstm_forward(x, *alone)
        assert h[k].tobytes() == h_k.tobytes(), k


# with the shape of the tensor whose probes reach the LSTM as a stack of
# inputs: the layer check's x, and the mini model's embedding table
@pytest.mark.parametrize("history", [True, False])
@pytest.mark.parametrize("batch,steps,d,hid,probed", [
    (*LSTM_PROBE_SHAPES[0], (3, 4, 5)), (*LSTM_PROBE_SHAPES[1], (50, 8))])
def test_the_lstm_layer_on_a_stack_of_inputs_gives_each_its_h_t(
        history, batch, steps, d, hid, probed):
    rng = Prng(50)
    layer = Lstm(*_lstm_params(d, hid, rng))
    layer.params[2].value[...] = rng.uniform(-0.5, 0.5, (4 * hid,))
    train = Prng(0) if history else None
    for n in _probe_stacks(probed):
        xs = rng.uniform(-1, 1, (n, batch, steps, d))
        h, _ = layer.forward(xs, train)
        assert h.shape == (n, batch, hid)
        for k in range(n):
            h_k, _ = layer.forward(xs[k].copy(), train)
            assert h[k].tobytes() == h_k.tobytes(), (n, k)
