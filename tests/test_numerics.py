import math

import numpy as np
import pytest

from seqveritas import numerics
from seqveritas.layers import ParamTensor, dropout_forward
from seqveritas.model_zoo import Dense
from seqveritas.numerics import (BLOCK, NonDeterministicLoss, Prng,
                                 _keep_limit, drelu, dtanh, finite_diff_grad,
                                 init_glorot, max_relative_error, relu,
                                 sigmoid)

MASK64 = 0xFFFFFFFFFFFFFFFF


def test_matmul_shape_mismatch():
    # the model's matrix products are numpy's `@`, whose ValueError on
    # mismatched shapes the CLI reports with exit 2
    dense = Dense(ParamTensor("W", np.zeros((2, 3))),
                  ParamTensor("b", np.zeros(3)))
    with pytest.raises(ValueError):
        dense.forward(np.zeros((2, 3)), None)


def test_activation_values():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    assert np.tanh(np.array([0.0]))[0] == 0.0
    assert relu(np.array([-1.0]))[0] == 0.0


def test_sigmoid_stable_extremes():
    out = sigmoid(np.array([-500.0, 500.0, -1e308]))
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(0.0, abs=1e-100)
    assert out[1] == pytest.approx(1.0)


def test_activation_derivatives_match_finite_diff():
    x0 = np.array([0.3, -0.7, 1.2])
    for fn, dfn, arg in [
        (sigmoid, lambda x: sigmoid(x) * (1.0 - sigmoid(x)), x0),
        (np.tanh, lambda x: dtanh(np.tanh(x)), x0),
        (relu, drelu, x0),
    ]:
        for i, x in enumerate(arg):
            num = (fn(np.array([x + 1e-6]))[0] - fn(np.array([x - 1e-6]))[0]) / 2e-6
            assert dfn(np.array([x]))[0] == pytest.approx(num, abs=1e-5)


def test_relu_derivative_zero_at_zero():
    assert drelu(np.array([0.0]))[0] == 0.0


# --- PRNG: independent reimplementation as the oracle ----------------------

def _ref_splitmix64(state):
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def _ref_xoshiro_stream(seed, n):
    s = []
    st = seed & MASK64
    for _ in range(4):
        st, out = _ref_splitmix64(st)
        s.append(out)

    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & MASK64

    outs = []
    for _ in range(n):
        outs.append((rotl((s[1] * 5) & MASK64, 7) * 9) & MASK64)
        t = (s[1] << 17) & MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
    return outs


def test_splitmix64_published_vectors():
    # First outputs of splitmix64 for raw state 0, from the reference
    # implementation's published stream.
    st = 0
    st, o1 = _ref_splitmix64(st)
    st, o2 = _ref_splitmix64(st)
    st, o3 = _ref_splitmix64(st)
    assert o1 == 0xE220A8397B1DCDAF
    assert o2 == 0x6E789E6AA1B965F4
    assert o3 == 0x06C45D188009454F


def test_xoshiro_matches_reference_stream():
    for seed in (0, 12345, 2**63 + 17):
        rng = Prng(seed)
        ref = _ref_xoshiro_stream(seed, 4)
        assert [rng.next_u64() for _ in range(4)] == ref


def test_prng_reproducible_and_unit_interval():
    a = Prng(99)
    b = Prng(99)
    va = [a.next_f64() for _ in range(100)]
    vb = [b.next_f64() for _ in range(100)]
    assert va == vb
    assert all(0.0 <= v < 1.0 for v in va)


def test_uniform_matches_scalar_splitmix64_counter_reference():
    for seed in (0, 12345, 2**63 + 17):
        key = Prng(seed).next_u64()
        state, ref = key, []
        for _ in range(15):
            state, out = _ref_splitmix64(state)
            ref.append((out >> 11) * (2.0 ** -53))
        got = Prng(seed).uniform(0.0, 1.0, (3, 5))
        assert got.shape == (3, 5)
        assert got.reshape(-1).tolist() == ref


def test_uniform_advances_scalar_stream_by_one_draw_whatever_the_shape():
    for shape in ((1,), (3, 5), (0, 4), (2, 3, 4)):
        rng = Prng(21)
        rng.uniform(-1.0, 1.0, shape)
        assert rng.next_u64() == _ref_xoshiro_stream(21, 2)[1]


def test_uniform_empty_shape():
    out = Prng(4).uniform(0.0, 1.0, (0, 7))
    assert out.shape == (0, 7)
    assert out.dtype == np.float64


# Sizes around the bulk kernel's block boundaries.
BLOCK_SIZES = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5)
KEEPS = (0.7, 0.5, 0.3, 0.1, 1.0 - 2.0 ** -53)


def _ref_counter_output(key, i):
    """Output i (1-based) of splitmix64 started from state `key`."""
    return _ref_splitmix64((key + (i - 1) * 0x9E3779B97F4A7C15) & MASK64)[1]


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_uniform_is_the_counter_stream_across_block_boundaries(n):
    key = Prng(77).next_u64()
    got = Prng(77).uniform(-2.0, 3.0, (n,))
    assert got.shape == (n,)
    for i in {0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, n - 1, n - 2}:
        if 0 <= i < n:
            u = (_ref_counter_output(key, i + 1) >> 11) * (2.0 ** -53)
            assert got[i] == -2.0 + 5.0 * u


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("keep", KEEPS)
def test_keep_mask_is_uniform_below_keep(keep, n):
    for seed in (3, 2**64 - 1):
        want = Prng(seed).uniform(0.0, 1.0, (n,)) < keep
        got = Prng(seed).keep_mask(keep, (n,))
        assert got.dtype == bool and got.shape == (n,)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("keep", KEEPS + (0.8, 1e-300))
def test_keep_limit_is_the_ceiling_of_keep_times_two_to_the_53(keep):
    # u is the largest top-53-bit value whose uniform draw is below keep;
    # every z with those top bits is kept, and none with u + 1
    u = math.ceil(keep * 2.0 ** 53) - 1
    assert u * 2.0 ** -53 < keep <= (u + 1) * 2.0 ** -53
    limit = int(_keep_limit(keep))
    assert (u << 11) | 0x7FF < limit <= (u + 1) << 11


def test_keep_limit_rounds_up_where_truncation_would_drop_draws():
    # 0.1 * 2**53 is not an integer: truncating it drops its floor, whose
    # draw is below 0.1
    u = math.floor(0.1 * 2.0 ** 53)
    assert u * 2.0 ** -53 < 0.1
    assert u << 11 < int(_keep_limit(0.1))


def test_keep_mask_refuses_a_keep_outside_the_open_unit_interval():
    for keep in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            Prng(0).keep_mask(keep, (3,))


def test_keep_mask_advances_scalar_stream_by_one_draw_whatever_the_shape():
    for shape in ((1,), (3, 5), (0, 4), (BLOCK + 1,)):
        rng = Prng(21)
        assert rng.keep_mask(0.5, shape).shape == shape
        assert rng.next_u64() == _ref_xoshiro_stream(21, 2)[1]


def test_dropout_masks_are_a_function_of_the_seed():
    x = np.ones((8, 16))
    a, b = Prng(31), Prng(31)
    first_a, first_b = (dropout_forward(x, 0.3, r)[0] for r in (a, b))
    second_a = dropout_forward(x, 0.3, a)[0]
    assert np.array_equal(first_a, first_b)
    assert not np.array_equal(first_a, second_a)


@pytest.mark.parametrize("n", [0, -1])
def test_randbelow_refuses_an_empty_range(n):
    with pytest.raises(ValueError, match="n must be positive"):
        Prng(5).randbelow(n)


def test_shuffle_is_permutation():
    rng = Prng(5)
    items = list(range(50))
    rng.shuffle(items)
    assert sorted(items) == list(range(50))


def test_glorot_bound_and_determinism():
    m1 = init_glorot((100, 150), Prng(3))
    m2 = init_glorot((100, 150), Prng(3))
    bound = np.sqrt(6.0 / 250.0)
    assert np.all(np.abs(m1) <= bound)
    assert np.array_equal(m1, m2)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(3, 5), (100, 600), (20_000, 100)])
def test_glorot_starts_on_a_param_boundary_with_the_uniform_bits(dtype,
                                                                 shape):
    # so that an arena of one adopts a built model's weights uncopied
    m = init_glorot(shape, Prng(4), dtype)
    bound = np.sqrt(6.0 / sum(shape))
    want = Prng(4).uniform(-bound, bound, shape).astype(dtype)
    assert m.dtype == dtype and m.flags.c_contiguous
    assert m.ctypes.data % numerics.PARAM_ALIGN == 0
    assert m.tobytes() == want.tobytes()


@pytest.mark.parametrize("size", [1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_every_byte_of_an_unzeroed_uniform_is_written(unzeroed_fill, size):
    # uniform's array is not zeroed: filled with 0xFF bytes instead of
    # zeros, it must give the same bits
    set_fill, unzeroed = unzeroed_fill
    draws = []
    for byte in (0x00, 0xFF):
        set_fill(byte)
        draws.append(Prng(5).uniform(-2.0, 3.0, (size,)).tobytes())
    assert unzeroed == [(size,)] * 2
    assert draws[0] == draws[1]


def test_glorot_sample_mean():
    # uniform(-b, b): mean 0, std b/sqrt(3); sample mean within 3 sigma/sqrt(n)
    n = 10**6
    m = init_glorot((1000, 1000), Prng(11))
    bound = np.sqrt(6.0 / 2000.0)
    sigma = bound / np.sqrt(3.0)
    assert abs(m.mean()) < 3.0 * sigma / np.sqrt(n)


def _each(loss):
    """A loss of a stack of points from `loss` of one point."""
    return lambda points: np.array([loss(w) for w in points])


def test_finite_diff_quadratic():
    g = finite_diff_grad(_each(lambda w: float(w[0] ** 2)), np.array([3.0]))
    assert g[0] == pytest.approx(6.0, abs=1e-9)


def test_finite_diff_constant():
    g = finite_diff_grad(_each(lambda w: 1.25), np.array([1.0, -2.0, 3.0]))
    assert np.array_equal(g, np.zeros(3))


def test_finite_diff_rejects_nondeterministic_loss():
    state = {"n": 0}

    def noisy(w):
        state["n"] += 1
        return float(w[0]) + state["n"] * 1e-3

    with pytest.raises(NonDeterministicLoss):
        finite_diff_grad(_each(noisy), np.array([1.0]))


def test_finite_diff_never_writes_params_even_when_the_loss_raises():
    # a float64 array is not copied by np.asarray, so a read-only one
    # refuses any probe point written into the caller's own array
    params = Prng(2).uniform(-1.0, 1.0, (2, 3))
    saved = params.copy()
    params.flags.writeable = False
    seen = []

    def failing(points):
        seen.append(points.copy())
        if len(seen) == 3:  # the first span, after the two bases
            raise RuntimeError("replay refused")
        return np.add.reduce(points.reshape(len(points), -1), 1)

    with pytest.raises(RuntimeError, match="replay refused"):
        finite_diff_grad(failing, params)
    assert len(seen[2]) == 2 * params.size  # it was at the probe points
    assert not any(np.array_equal(w, saved) for w in seen[2])
    assert params.tobytes() == saved.tobytes()


def _wavy(w):
    return float(np.add.reduce(np.sin(3.0 * w) * w, None))


@pytest.mark.parametrize("stack_bytes", [1, 4 * 2 * 15 * 8, 1 << 19])
def test_finite_diff_stacked_gives_the_bits_of_one_point_at_a_time(
        monkeypatch, stack_bytes):
    # spans of 1 element, of 4 with a last one of 3, and of all 15
    monkeypatch.setattr(numerics, "STACK_BYTES", stack_bytes)
    params = Prng(4).uniform(-2.0, 2.0, (3, 5))
    saved = params.copy()
    calls = []

    def stacked(points):
        calls.append(len(points))
        rows = points.reshape(len(points), -1)
        return np.add.reduce(np.sin(3.0 * rows) * rows, 1)

    got = finite_diff_grad(stacked, params)
    assert params.tobytes() == saved.tobytes()  # never written
    # each coordinate's central difference, on copies of params
    want = np.zeros_like(params)
    for k in range(params.size):
        plus, minus = params.copy(), params.copy()
        plus.reshape(-1)[k] += numerics.FD_EPS
        minus.reshape(-1)[k] -= numerics.FD_EPS
        want.reshape(-1)[k] = ((_wavy(plus) - _wavy(minus))
                               / (2.0 * numerics.FD_EPS))
    assert got.tobytes() == want.tobytes()
    # the two base points, then each element's two
    assert calls[:2] == [1, 1]
    assert calls[2:] == {1: [2] * 15, 960: [8, 8, 8, 6],
                         1 << 19: [30]}[stack_bytes]


def test_max_relative_error_guard():
    assert max_relative_error(np.zeros(3), np.zeros(3)) == 0.0
    assert max_relative_error(np.array([2.0]), np.array([1.0])) == 0.5
