from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from microbuild import agents as A
from microbuild import env as E
from microbuild import lexicon as L
from microbuild import mem as M
from microbuild.nn import (
    AdamState,
    Conv2d,
    Dense,
    Flatten,
    LSTM,
    Layer,
    ReLU,
    Sequential,
    StateEncoder,
    Tanh,
    adam_step,
    load_model,
    save_model,
)
from microbuild.nn import optim
from microbuild.nn.layers import _patch_index

from gradcheck import bound, grad_arrays, grad_check, grad_check_fn, zero_grads

GC_TOL = 1e-4
EPS = 1e-4


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------- forward


def test_dense_identity():
    d = bound(Dense(2, 2))
    d.weight[:] = np.eye(2)
    out = d.forward(np.array([[3.0, 4.0]]))
    np.testing.assert_array_equal(out, [[3.0, 4.0]])


def test_dense_shape_mismatch_raises():
    d = Dense(3, 2, rng(0))
    with pytest.raises(ValueError):
        d.forward(np.zeros((1, 4), dtype=np.float32))


def test_conv_strided_shape():
    c = Conv2d(14, 8, k=5, stride=2, rng=rng(2))
    out = c.forward(rng(3).standard_normal((1, 14, 16, 16)).astype(np.float32))
    assert out.shape == (1, 8, 6, 6)


def test_forward_determinism_bitwise():
    net = Sequential([Conv2d(2, 3, k=3, stride=1, rng=rng(5)), ReLU(), Flatten(), Dense(27, 4, rng(6))])
    x = rng(7).standard_normal((2, 2, 5, 5)).astype(np.float32)
    a = net.forward(x)
    b = net.forward(x)
    assert a.tobytes() == b.tobytes()


def test_lstm_zero_weights_zero_output():
    cell = bound(LSTM(3, 4))
    cell.bias[:] = 0.0
    h, c = cell.zero_state(1)
    h2, c2 = cell.step(np.ones((1, 3)), h, c)
    np.testing.assert_array_equal(h2, np.zeros((1, 4)))
    np.testing.assert_array_equal(c2, np.zeros((1, 4)))


def test_lstm_hidden_bounded():
    cell = bound(LSTM(6, 5, rng(4)))
    h, c = cell.zero_state(3)
    r = rng(8)
    for _ in range(50):
        h, c = cell.step(r.standard_normal((3, 6)) * 5, h, c)
        assert np.abs(h).max() <= 1.0


def reference_lstm_step(cell, x, h, c):
    """``LSTM.step`` with its sums formed as new arrays and each gate block
    computed on its own: σ(z) = ½·tanh(z/2) + ½ for i, f and o, tanh(z) for g."""
    nh = cell.n_hidden
    z = x @ cell.w_x + h @ cell.w_h + cell.bias
    i, f, g, o = (z[:, k * nh : (k + 1) * nh] for k in range(4))
    i, f, o = (np.tanh(a * 0.5) * 0.5 + 0.5 for a in (i, f, o))
    c_new = f * c + i * np.tanh(g)
    return o * np.tanh(c_new), c_new


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 5])
def test_lstm_step_bitwise_equals_reference(batch, dtype):
    """Equal bits, and no floating-point error raised, with every third
    pre-activation below -104, where the gates saturate at 0 and -1."""
    r = rng(71)
    cell = bound(LSTM(6, 8, r), dtype)
    cell.bias[::3] = -120.0
    h, c = (r.standard_normal((batch, 8)).astype(dtype) for _ in range(2))
    with np.errstate(all="raise"):
        for _ in range(10):
            x = r.standard_normal((batch, 6)).astype(dtype)
            assert ((x @ cell.w_x + h @ cell.w_h + cell.bias) < -104).any()
            got, want = cell.step(x, h, c), reference_lstm_step(cell, x, h, c)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes()
            h, c = got


# --------------------------------------------------------------- backward


def test_identity_chain_passes_grad_through():
    net = bound(Sequential([Flatten()]))
    x = rng(0).standard_normal((2, 3, 4)).astype(np.float64)
    net.zero_grads()
    net.forward(x)
    g = rng(1).standard_normal((2, 12))
    gx = net.backward(g)
    np.testing.assert_array_equal(gx, g.reshape(2, 3, 4))


def test_zero_output_grad_gives_zero_param_grads():
    net = bound(Sequential([Dense(4, 3, rng(0)), Tanh()]))
    net.zero_grads()
    net.forward(rng(1).standard_normal((2, 4)))
    net.backward(np.zeros((2, 3)))
    np.testing.assert_array_equal(net.flat_grads, np.zeros_like(net.flat_grads))


class LSTMStep(LSTM):
    """One LSTM step from the zero state, as the forward/backward pair
    ``grad_check`` drives: a one-step ``forward_seq`` and its ``backward_seq``."""

    def forward(self, x):
        return self.forward_seq(x[None], *self.zero_state(x.shape[0]))[0]

    def backward(self, gout):
        return self.backward_seq(gout[None])[0]


@pytest.mark.parametrize(
    "make_net,in_shape",
    [
        (lambda r: bound(Sequential([Dense(5, 4, r), Tanh()])), (3, 5)),
        (lambda r: bound(Sequential([Dense(5, 4, r), ReLU(), Dense(4, 2, r)])), (3, 5)),
        (lambda r: bound(Sequential([Conv2d(2, 3, k=3, stride=1, rng=r), ReLU(), Flatten()])), (2, 2, 5, 5)),
        (
            lambda r: bound(Sequential([Conv2d(2, 3, k=3, stride=2, rng=r), Tanh(), Flatten(), Dense(27, 3, r)])),
            (2, 2, 7, 7),
        ),
        (lambda r: bound(LSTMStep(4, 3, r)), (2, 4)),
    ],
    ids=["dense-tanh", "dense-relu-dense", "conv-relu", "conv-tanh-dense", "lstm-step"],
)
def test_grad_check_layers(make_net, in_shape):
    r = rng(11)
    net = make_net(r)
    # keep relu inputs away from the kink
    x = r.standard_normal(in_shape) + 0.05
    assert grad_check(net, x, eps=EPS, rng=rng(12)) <= GC_TOL


class BiasSignFlippedDense(Dense):
    """A ``Dense`` whose analytic bias gradient has the wrong sign."""

    def backward(self, gout):
        gin = super().backward(gout)
        self.grads["bias"] -= 2.0 * gout.sum(axis=0)
        return gin


def test_grad_check_reports_a_wrong_gradient():
    x = rng(51).standard_normal((3, 5))
    assert grad_check(bound(Dense(5, 4, rng(52))), x, eps=EPS, rng=rng(53)) <= GC_TOL
    wrong = bound(BiasSignFlippedDense(5, 4, rng(52)))
    assert grad_check(wrong, x, eps=EPS, rng=rng(53)) >= 100 * GC_TOL


def test_grad_check_lstm_unrolled_3_steps():
    r = rng(21)
    cell = bound(LSTM(3, 4, r))
    xs = r.standard_normal((3, 2, 3))
    probe = r.standard_normal((2, 4))
    gh_seq = np.zeros((3, 2, 4))
    gh_seq[-1] = probe

    def loss_fn():
        zero_grads(cell)
        h = cell.forward_seq(xs, *cell.zero_state(2))[-1]
        loss = float((h * probe).sum())
        cell.backward_seq(gh_seq)
        return loss, [g.copy() for g in grad_arrays(cell)]

    assert grad_check_fn(loss_fn, cell.param_arrays(), eps=EPS) <= GC_TOL


def test_lstm_input_grads_match_finite_differences():
    r = rng(31)
    cell = bound(LSTM(3, 4, r))
    xs = r.standard_normal((3, 2, 3))
    probe = r.standard_normal((2, 4))

    def run(inputs):
        h, c = cell.zero_state(2)
        for t in range(3):
            h, c = cell.step(inputs[t], h, c)
        return float((h * probe).sum())

    gh_seq = np.zeros((3, 2, 4))
    gh_seq[-1] = probe
    cell.forward_seq(xs, *cell.zero_state(2))
    gx = cell.backward_seq(gh_seq)

    worst = 0.0
    for t in range(3):
        for idx in np.ndindex(xs[t].shape):
            orig = xs[t][idx]
            xs[t][idx] = orig + EPS
            up = run(xs)
            xs[t][idx] = orig - EPS
            down = run(xs)
            xs[t][idx] = orig
            num = (up - down) / (2 * EPS)
            worst = max(worst, abs(num - gx[t][idx]) / max(abs(num), abs(gx[t][idx]), 1e-2))
    assert worst <= GC_TOL


def reference_lstm(cell, xs, gh_seq, h0=None, c0=None):
    """Forward from (h0, c0), zero by default, then step-by-step BPTT with
    per-step weight updates and input products: (parameter gradients, input
    gradients)."""
    nh = cell.n_hidden
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    h, c = cell.zero_state(xs.shape[1]) if h0 is None else (h0, c0)
    steps = []
    for x in xs:
        z = x @ cell.w_x + h @ cell.w_h + cell.bias
        i, f, g, o = sig(z[:, :nh]), sig(z[:, nh : 2 * nh]), np.tanh(z[:, 2 * nh : 3 * nh]), sig(z[:, 3 * nh :])
        c_prev, c = c, f * c + i * g
        steps.append((x, h, c_prev, i, f, g, o, np.tanh(c)))
        h = o * np.tanh(c)
    grads = {name: np.zeros_like(getattr(cell, name)) for name in cell.param_names}
    dh_next, dc_next = np.zeros_like(h), np.zeros_like(c)
    gx = [None] * len(steps)
    for t in range(len(steps) - 1, -1, -1):
        x, h_prev, c_prev, i, f, g, o, tc = steps[t]
        dh = dh_next + gh_seq[t]
        dc = dh * o * (1.0 - tc * tc) + dc_next
        dz = np.concatenate(
            [dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f), dc * i * (1.0 - g * g), dh * tc * o * (1.0 - o)],
            axis=1,
        )
        grads["w_x"] += x.T @ dz
        grads["w_h"] += h_prev.T @ dz
        grads["bias"] += dz.sum(axis=0)
        gx[t] = dz @ cell.w_x.T
        dh_next = dz @ cell.w_h.T
        dc_next = dc * f
    return grads, np.stack(gx)


@pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-10)])
@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize("n_steps", [1, 5, 32])
def test_lstm_backward_seq_matches_per_step_reference(n_steps, batch, dtype, rtol):
    r = rng(51)
    cell = bound(LSTM(6, 5, r), dtype)
    xs = r.standard_normal((n_steps, batch, 6)).astype(dtype)
    gh_seq = r.standard_normal((n_steps, batch, 5)).astype(dtype)
    ref_grads, ref_gx = reference_lstm(cell, xs, gh_seq)
    with pytest.raises(RuntimeError):
        cell.backward_seq(gh_seq)  # nothing cached yet

    cell.forward_seq(xs, *cell.zero_state(batch))
    gx = cell.backward_seq(gh_seq)
    assert gx.shape == (n_steps, batch, 6) and gx.dtype == dtype
    for got, want in [(gx, ref_gx)] + [(cell.grads[n], ref_grads[n]) for n in cell.param_names]:
        # relative to the largest entry: a sum reordered by the batched
        # product may cancel to near zero differently entry by entry
        np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())
    with pytest.raises(RuntimeError):
        cell.backward_seq(gh_seq)  # the cache was cleared


def test_lstm_grads_with_per_step_head_gradients_match_finite_differences():
    # the path a3c_loss takes: every h_t feeds the loss, not only the last
    r = rng(61)
    cell = bound(LSTM(3, 4, r))
    n_steps = 5
    xs = r.standard_normal((n_steps, 2, 3))
    probes = r.standard_normal((n_steps, 2, 4))

    def run(inputs):
        """The loss stepped one timestep at a time, as the agent acts."""
        h, c = cell.zero_state(2)
        loss = 0.0
        for t in range(n_steps):
            h, c = cell.step(inputs[t], h, c)
            loss += float((h * probes[t]).sum())
        return loss

    def loss_fn():
        zero_grads(cell)
        cell.forward_seq(xs, *cell.zero_state(2))
        cell.backward_seq(probes)
        return run(xs), [g.copy() for g in grad_arrays(cell)]

    assert grad_check_fn(loss_fn, cell.param_arrays(), eps=EPS) <= GC_TOL

    cell.forward_seq(xs, *cell.zero_state(2))
    gx = cell.backward_seq(probes)
    worst = 0.0
    for idx in np.ndindex(xs.shape):
        orig = xs[idx]
        xs[idx] = orig + EPS
        up = run(xs)
        xs[idx] = orig - EPS
        down = run(xs)
        xs[idx] = orig
        num = (up - down) / (2 * EPS)
        worst = max(worst, abs(num - gx[idx]) / max(abs(num), abs(gx[idx]), 1e-2))
    assert worst <= GC_TOL


def step_lstm(cell, xs, h, c):
    """xs (T, B, n_in) through cell.step one timestep at a time: every h_t,
    (T, B, n_hidden)."""
    hs = []
    for x in xs:
        h, c = cell.step(x, h, c)
        hs.append(h)
    return np.stack(hs)


@pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-10)])
@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("n_steps", [1, 5, 32])
def test_lstm_forward_seq_matches_per_step_reference(n_steps, batch, dtype, rtol):
    r = rng(56)
    cell = bound(LSTM(6, 5, r), dtype)
    xs = r.standard_normal((n_steps, batch, 6)).astype(dtype)
    h0, c0 = (r.standard_normal((batch, 5)).astype(dtype) for _ in range(2))
    gh_seq = r.standard_normal((n_steps, batch, 5)).astype(dtype)
    hs = cell.forward_seq(xs, h0, c0)
    gx = cell.backward_seq(gh_seq)
    ref_grads, ref_gx = reference_lstm(cell, xs, gh_seq, h0, c0)
    got = [hs, gx] + [cell.grads[n] for n in cell.param_names]
    want = [step_lstm(cell, xs, h0, c0), ref_gx] + [ref_grads[n] for n in cell.param_names]
    assert got[0].shape == (n_steps, batch, 5) and got[0].dtype == dtype
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=rtol, atol=rtol * np.abs(b).max())


@pytest.mark.parametrize("batch", [1, 3])
def test_lstm_restore_of_steps_backpropagates_like_forward_seq(batch):
    """``restore`` of the steps ``step`` kept gives their h_t and a cache on
    which ``backward_seq`` matches it after ``forward_seq``, to rounding."""
    r = rng(57)
    cell = bound(LSTM(6, 5, r))
    xs = r.standard_normal((7, batch, 6))
    h0, c0 = (r.standard_normal((batch, 5)) for _ in range(2))
    h, c = h0, c0
    gh_seq = r.standard_normal((7, batch, 5))
    steps = []
    for x in xs:
        h, c = cell.step(x, h, c)
        steps.append(cell.saved())
    hs = cell.restore(steps)
    assert hs.shape == (7, batch, 5) and hs[-1].tobytes() == h.tobytes()
    got = [cell.backward_seq(gh_seq)] + [cell.grads[n].copy() for n in cell.param_names]
    zero_grads(cell)
    want_hs = cell.forward_seq(xs, h0, c0)
    want = [cell.backward_seq(gh_seq)] + [cell.grads[n] for n in cell.param_names]
    np.testing.assert_allclose(hs, want_hs, rtol=1e-12, atol=1e-12)
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10 * np.abs(b).max())


def test_lstm_forward_seq_grads_with_per_step_head_gradients_match_finite_differences():
    r = rng(66)
    cell = bound(LSTM(3, 4, r))
    n_steps = 5
    xs = r.standard_normal((n_steps, 2, 3))
    h0, c0 = r.standard_normal((2, 4)), r.standard_normal((2, 4))
    probes = r.standard_normal((n_steps, 2, 4))

    def run(inputs):
        return float((cell.forward_seq(inputs, h0, c0) * probes).sum())

    def loss_fn():
        zero_grads(cell)
        loss = run(xs)
        cell.backward_seq(probes)
        return loss, [g.copy() for g in grad_arrays(cell)]

    assert grad_check_fn(loss_fn, cell.param_arrays(), eps=EPS) <= GC_TOL

    run(xs)
    gx = cell.backward_seq(probes)
    worst = 0.0
    for idx in np.ndindex(xs.shape):
        orig = xs[idx]
        xs[idx] = orig + EPS
        up = run(xs)
        xs[idx] = orig - EPS
        down = run(xs)
        xs[idx] = orig
        num = (up - down) / (2 * EPS)
        worst = max(worst, abs(num - gx[idx]) / max(abs(num), abs(gx[idx]), 1e-2))
    assert worst <= GC_TOL


# ------------------------------------------------------- forward kernels


def sliding_window_conv(conv, x):
    """Conv2d forward with the patch matrix built by sliding_window_view."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (conv.k, conv.k), axis=(2, 3))
    windows = windows[:, :, :: conv.stride, :: conv.stride]  # (B, C, Ho, Wo, k, k)
    b, c, ho, wo, k, _ = windows.shape
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, ho * wo, c * k * k)
    out = cols @ conv.weight.reshape(conv.c_out, -1).T + conv.bias
    return out.transpose(0, 2, 1).reshape(b, conv.c_out, ho, wo)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_forward_bitwise_equals_sliding_window_reference(stride):
    """The gather reads the patch index unchecked, so the index must be in range and right."""
    r = rng(71)
    # (c_in, c_out, k) and the (H, W) inputs fed in turn; each size change must
    # rebuild the cached patch index. The stride-2 extras are the state
    # encoder's two convs on its 16x16 frame.
    cases = [((3, 4, 3), [(9, 9), (12, 12), (9, 9), (7, 9), (9, 7)])]
    if stride == 2:
        cases += [((14, 8, 5), [(16, 16)]), ((8, 16, 3), [(6, 6)])]
    for (c_in, c_out, k), sizes in cases:
        conv = Conv2d(c_in, c_out, k=k, stride=stride, rng=r)
        conv.bias[:] = r.standard_normal(c_out)
        for h, w in sizes:
            index = _patch_index(c_in, h, w, k, stride)
            assert index.shape == (np.prod(conv.out_hw(h, w)), c_in * k * k)
            assert 0 <= index.min() and index.max() < c_in * h * w
            for batch in (1, 2, 33):
                x = r.standard_normal((batch, c_in, h, w)).astype(np.float32)
                got = conv.forward(x)
                want = sliding_window_conv(conv, x)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_conv_forward_holds_one_patch_matrix():
    """A second forward frees the cached patch matrix before it gathers the next one."""
    conv = Conv2d(14, 8, k=5, stride=2, rng=rng(72))  # the state encoder's conv1
    x = (rng(73).random((32, 14, 16, 16)) < 0.1).astype(np.float32)
    patch_bytes = 32 * 6 * 6 * (14 * 5 * 5) * 4
    tracemalloc.start()
    try:
        conv.forward(x)  # its cached patch matrix is traced, so freeing it counts
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        conv.forward(x)
        rise = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert rise < patch_bytes / 2


def conv_backward_reference(conv, x, gout):
    """Float64 weight, bias and input gradients of ``conv`` for output
    gradient ``gout`` at input ``x``, one observation and one output
    position at a time."""
    w, k, s = conv.weight.astype(np.float64), conv.k, conv.stride
    gw, gb, gx = np.zeros(w.shape), np.zeros(conv.c_out), np.zeros(x.shape)
    for b in range(x.shape[0]):
        xb, gb_out = x[b].astype(np.float64), gout[b].astype(np.float64)
        for i in range(gout.shape[2]):
            for j in range(gout.shape[3]):
                window = (slice(None), slice(i * s, i * s + k), slice(j * s, j * s + k))
                gw += gb_out[:, i, j, None, None, None] * xb[window]
                gx[b][window] += np.tensordot(gb_out[:, i, j], w, axes=1)
        gb += gb_out.sum(axis=(1, 2))
    return gw, gb, gx


@pytest.mark.parametrize("batch", [1, 6, 32])
@pytest.mark.parametrize("c_in, c_out, k, size", [(14, 8, 5, 16), (8, 16, 3, 6)], ids=["conv1", "conv2"])
def test_conv_backward_matches_a_float64_per_observation_reference(c_in, c_out, k, size, batch):
    """The state encoder's two convs: ``backward_params`` gives the weight
    and bias gradients summed over every observation, and ``backward``
    the same plus the input gradient."""
    r = rng(74)
    conv = bound(Conv2d(c_in, c_out, k=k, stride=2, rng=r), np.float32)
    conv.bias[:] = r.standard_normal(c_out)
    x = r.standard_normal((batch, c_in, size, size)).astype(np.float32)
    gout = r.standard_normal(conv.forward(x).shape).astype(np.float32)
    want_w, want_b, want_x = conv_backward_reference(conv, x, gout)

    def assert_close(got, want):
        # rtol 1e-5, plus 1e-5 of the largest entry for entries whose float32 sum cancels to near 0
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max())

    conv.backward_params(gout)
    assert_close(conv.grads["weight"], want_w)
    assert_close(conv.grads["bias"], want_b)
    zero_grads(conv)
    gx = conv.backward(gout)
    assert gx.dtype == np.float32
    assert_close(conv.grads["weight"], want_w)
    assert_close(conv.grads["bias"], want_b)
    assert_close(gx, want_x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lstm_gates_match_the_closed_form_within_one_ulp_of_one(dtype):
    """A cell with zero w_h and bias, stepped on one-hot rows, has the rows
    of w_x as its pre-activations, so the step's gates are the gate rule on
    them: within one ulp of 1 (``eps``) of σ(z) = 1 / (1 + exp(-z)) on the
    i, f and o blocks and of tanh(z) on g, both in float64, with i, f and
    o in [0, 1], and no floating-point error raised at 0, ±1e4 or ±max."""
    info = np.finfo(dtype)
    special = [0.0, -0.0, 1.0, -1.0, 1e4, -1e4, info.max, -info.max, 88.0, -88.0, 104.0, -104.0]
    z = np.concatenate([np.array(special), rng(81).standard_normal(1012) * 30]).astype(dtype).reshape(16, 64)
    cell = bound(LSTM(16, 64), dtype)
    cell.w_x[:] = np.tile(z, 4)
    cell.bias[:] = 0.0
    h, c = cell.zero_state(16)
    with np.errstate(all="raise"):
        cell.step(np.eye(16, dtype=dtype), h, c)
    gates = cell.saved()[3]
    assert gates.dtype == dtype
    i, f, g, o = (gates[:, k * 64 : (k + 1) * 64].astype(np.float64) for k in range(4))
    z64 = z.astype(np.float64)
    with np.errstate(over="ignore"):
        sigma = 1.0 / (1.0 + np.exp(-z64))
    for got, want in ((i, sigma), (f, sigma), (g, np.tanh(z64)), (o, sigma)):
        assert np.abs(got - want).max() <= info.eps
    assert min(i.min(), f.min(), o.min()) >= 0.0 and max(i.max(), f.max(), o.max()) <= 1.0


def test_grad_check_random_compositions():
    # randomized small chains over all layer kinds
    r = rng(41)
    for trial in range(5):
        layers = [Dense(6, 6, r)]
        for _ in range(int(r.integers(1, 4))):
            layers.append(r.choice([ReLU, Tanh])())
            layers.append(Dense(6, 6, r))
        net = bound(Sequential(layers))
        x = r.standard_normal((2, 6)) + 0.05
        assert grad_check(net, x, eps=EPS, rng=rng(42 + trial)) <= GC_TOL


# ------------------------------------------------------------- trunk memo


def count_trunk_runs(encoder: StateEncoder) -> list[int]:
    """Record the batch size of every run of the encoder's conv trunk."""
    runs = []
    forward = encoder.spatial_net.forward

    def counted(x):
        runs.append(x.shape[0])
        return forward(x)

    encoder.spatial_net.forward = counted
    return runs


def make_encoder(seed=0):
    return bound(StateEncoder(E.OBS_CHANNELS, E.GRID, E.OBS_NONSPATIAL, 32, rng(seed)), np.float32)


def frames(seed, batch):
    r = rng(seed)
    spatial = (r.random((batch, E.OBS_CHANNELS, E.GRID, E.GRID)) < 0.2).astype(np.float32)
    return spatial, r.random((batch, E.OBS_NONSPATIAL)).astype(np.float32)


def tiny_mem_model(seed):
    words = L.WordEmbeddings([L.UNK, "build"], rng(seed).standard_normal((2, L.WORD_DIM)).astype(np.float32))
    return M.MemModel(words, rng(seed))


def test_trunk_memo_hit_bitwise_equals_fresh_forward_mem_model():
    model = tiny_mem_model(3)
    fresh = M.MemModel(model.word_embeddings)  # same parameters, empty memo
    fresh.set_flat(model.get_flat())
    sp, ns = frames(1, 1)
    obs = E.Observation(sp[0], ns[0])
    runs = count_trunk_runs(model.encoder)
    first = model.encode_state(obs)
    hit = model.encode_state(obs)
    assert runs == [1]
    assert hit.tobytes() == first.tobytes() == fresh.encode_state(obs).tobytes()


def test_trunk_memo_hit_bitwise_equals_fresh_forward_agent_net():
    net = A.AgentNet(rng(4))
    fresh = A.AgentNet()
    fresh.set_flat(net.get_flat())
    sp, ns = frames(2, 1)
    obs = E.Observation(sp[0], ns[0])
    aux = rng(5).standard_normal(A.AUX_DIM).astype(np.float32)
    mask = np.ones(E.N_ACTIONS, bool)

    def play(model, n):
        """n chained acts on one frame, then the bootstrap value."""
        h, c = model.zero_state()
        act_rng, out = rng(6), []
        for _ in range(n):
            action, value, (h, c) = model.act(obs, aux, h, c, mask, act_rng)
            out.append((action, value, h.tobytes(), c.tobytes()))
        return out, model.value_of(obs, aux, h, c)

    runs = count_trunk_runs(net.encoder)
    got = play(net, 3)
    assert runs == [1]  # two more acts and value_of hit
    fresh_runs = count_trunk_runs(fresh.encoder)
    want = play(fresh, 3)
    assert got == want
    assert fresh_runs == [1]


@pytest.mark.parametrize("change", ["set_flat", "conv_weight", "conv_bias", "input_cell"])
def test_trunk_memo_misses_on_any_change(change):
    enc = make_encoder(7)
    sp, ns = frames(3, 1)
    runs = count_trunk_runs(enc)
    before = enc.forward(sp, ns)
    conv1, _, conv2, _, _ = enc.spatial_net.layers
    if change == "set_flat":
        enc.set_flat(enc.get_flat() * np.float32(1.5))
    elif change == "conv_weight":
        conv1.weight[...] = 0.0  # in place: the array object stays the same
    elif change == "conv_bias":
        conv2.bias[5] += 1.0
    else:
        sp = sp.copy()
        sp[0, 2, 7, 9] = 1.0 - sp[0, 2, 7, 9]
    after = enc.forward(sp, ns)
    assert runs == [1, 1]
    fresh = make_encoder()
    fresh.set_flat(enc.get_flat())
    assert after.tobytes() == fresh.forward(sp, ns).tobytes()
    assert after.tobytes() != before.tobytes()


def test_trunk_memo_cleared_by_batched_forward():
    enc = make_encoder(8)
    sp, ns = frames(4, 32)
    runs = count_trunk_runs(enc)
    for rows in (1, 1, 32, 1, 1):
        enc.forward(sp[:rows], ns[:rows])
    assert runs == [1, 32, 1]


def test_trunk_memo_backward_after_batched_forward_matches_fresh_network():
    enc, fresh = make_encoder(9), make_encoder(9)
    sp, ns = frames(5, 32)
    g = rng(10).standard_normal((1, enc.out_dim)).astype(np.float32)
    enc.forward(sp[:1], ns[:1])
    enc.forward(sp, ns)
    enc.forward(sp[:1], ns[:1])
    enc.zero_grads()
    enc.backward(g)
    fresh.forward(sp[:1], ns[:1])
    fresh.zero_grads()
    fresh.backward(g)
    assert enc.flat_grads.tobytes() == fresh.flat_grads.tobytes()


@pytest.mark.parametrize(
    "shown, starts",
    [([0, 0, 1, 2, 2, 2, 0], [0, 2, 3, 6]), ([0, 1, 2, 3], [0, 1, 2, 3]), ([4] * 5, [0])],
    ids=["mixed", "distinct", "one-run"],
)
def test_trunk_restore_takes_one_backward_row_per_memo_run(shown, starts):
    """One-row forwards kept with ``saved()`` and restored backpropagate, with
    the trunk once per memo run, like one batched forward over the same rows."""
    enc, fresh = bound(make_encoder(11), np.float64), bound(make_encoder(11), np.float64)
    sp, ns = frames(6, 8)
    sp, ns = sp[shown].astype(np.float64), ns[: len(shown)].astype(np.float64)
    g = rng(12).standard_normal((len(shown), enc.out_dim))
    runs = count_trunk_runs(enc)
    kept = []
    for t in range(len(shown)):
        enc.forward(sp[t : t + 1], ns[t : t + 1])
        kept.append(enc.saved())
    assert runs == [1] * len(starts)
    assert enc.restore(kept).tolist() == starts
    enc.forward(sp[-1:], ns[-1:])  # restore clears the memo: the trunk runs again
    assert runs == [1] * (len(starts) + 1)
    enc.restore(kept)
    enc.zero_grads()
    enc.backward(g, np.array(starts))
    fresh.forward(sp, ns)
    fresh.zero_grads()
    fresh.backward(g)
    np.testing.assert_allclose(enc.flat_grads, fresh.flat_grads, rtol=1e-10, atol=1e-12)


# ------------------------------------------------------------------- adam


def test_adam_zero_grad_is_noop_on_params():
    p = rng(0).standard_normal(7).astype(np.float32)
    before = p.copy()
    st = AdamState(7, lr=0.1)
    adam_step(p, np.zeros(7, dtype=np.float32), st)
    np.testing.assert_array_equal(p, before)
    assert st.t == 1


def test_adam_single_step_closed_form():
    # constant gradient from a fresh state: bias-corrected moments cancel,
    # update is exactly -lr * g / (|g| + eps)
    g = np.array([0.3, -2.0, 5.0], dtype=np.float32)
    p = np.zeros(3, dtype=np.float32)
    st = AdamState(3, lr=0.01)
    adam_step(p, g, st)
    expected = -0.01 * g / (np.abs(g) + optim.EPS)
    np.testing.assert_allclose(p, expected, rtol=1e-5)


def test_adam_quadratic_descent():
    # f(w) = w^2 from w=1, lr=0.1: |w| strictly decreases for 10 steps
    w = np.array([1.0], dtype=np.float32)
    st = AdamState(1, lr=0.1)
    prev = abs(float(w[0]))
    for _ in range(10):
        adam_step(w, 2.0 * w, st)
        cur = abs(float(w[0]))
        assert cur < prev
        prev = cur


def test_adam_nan_grads_abort():
    p = np.zeros(3, dtype=np.float32)
    st = AdamState(3, lr=0.1)
    adam_step(p, np.array([0.5, -1.0, 2.0], dtype=np.float32), st)  # moments away from zero
    before = p.copy(), st.m.copy(), st.v.copy()
    g = np.array([0.0, np.nan, 1.0], dtype=np.float32)
    with pytest.raises(FloatingPointError):
        adam_step(p, g, st)
    assert st.t == 1
    for got, want in zip((p, st.m, st.v), before):
        assert got.tobytes() == want.tobytes()


def reference_adam_step(params, grads, state):
    """The update written with one temporary per operation."""
    state.t += 1
    state.m += (1.0 - optim.BETA1) * (grads - state.m)
    state.v += (1.0 - optim.BETA2) * (grads * grads - state.v)
    m_hat = state.m / (1.0 - optim.BETA1**state.t)
    v_hat = state.v / (1.0 - optim.BETA2**state.t)
    params -= (state.lr * m_hat / (np.sqrt(v_hat) + optim.EPS)).astype(params.dtype)


@pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("param_dtype", [np.float32, np.float64])
def test_adam_in_place_bitwise_equals_reference(param_dtype, grad_dtype):
    r = rng(91)
    n = 4000
    params = r.standard_normal(n).astype(param_dtype)
    want = params.copy()
    st, st_ref = AdamState(n, lr=0.01), AdamState(n, lr=0.01)
    for step in range(50):
        g = (r.standard_normal(n) * [1e-6, 1.0, 1e3][step % 3]).astype(grad_dtype)
        assert adam_step(params, g, st) is params
        reference_adam_step(want, g, st_ref)
    assert st.t == st_ref.t == 50
    for got, ref in [(params, want), (st.m, st_ref.m), (st.v, st_ref.v)]:
        assert got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()


# ---------------------------------------------------------- serialization


def test_save_load_round_trip(tmp_path):
    net = bound(Sequential([Dense(3, 4, rng(0)), Tanh(), Dense(4, 2, rng(1))]), np.float32)
    path = tmp_path / "model.bin"
    save_model(path, net.spec(), net.flat_params)
    spec, flat = load_model(path, expected_spec=net.spec())
    assert spec == net.spec()
    np.testing.assert_array_equal(flat, net.get_flat())


def test_load_rejects_spec_mismatch(tmp_path):
    net = bound(Sequential([Dense(3, 4, rng(0))]), np.float32)
    other = Sequential([Dense(4, 3, rng(0))])
    path = tmp_path / "model.bin"
    save_model(path, net.spec(), net.flat_params)
    with pytest.raises(ValueError, match="spec mismatch"):
        load_model(path, expected_spec=other.spec())


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a model at all")
    with pytest.raises(ValueError, match="bad magic"):
        load_model(path)


MODEL_FILE_FIELDS = ["magic", "version", "header-length", "header", "count"]


def model_file_fields(data: bytes) -> dict[str, tuple[int, int]]:
    """Byte range of each field before the parameter block of a model file."""
    bounds = [0, 6, 10, 14]
    bounds += [bounds[-1] + int.from_bytes(data[10:14], "little")]
    bounds += [bounds[-1] + 8]
    return dict(zip(MODEL_FILE_FIELDS, zip(bounds, bounds[1:])))


@pytest.mark.parametrize("field", [*MODEL_FILE_FIELDS, "payload"])
def test_load_rejects_every_truncation(tmp_path, field):
    path = tmp_path / "agent.bin"
    A.AgentNet(rng(4)).save(path)
    data = path.read_bytes()
    start, end = model_file_fields(data).get(field, (len(data) - 1, len(data)))
    for cut in range(start, end):  # a cut inside the field or right before it
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError):
            load_model(path)


@pytest.mark.parametrize(
    "header,match",
    [(b"\xff" * 8, "undecodable header"), (b"{not json", "undecodable header"), (b"[1, 2]", "not a JSON object")],
    ids=["not-utf8", "not-json", "json-list"],
)
def test_load_rejects_malformed_header(tmp_path, header, match):
    good = tmp_path / "good.bin"
    save_model(good, {"kind": "probe"}, np.ones(3, dtype=np.float32))
    data = good.read_bytes()
    start, end = model_file_fields(data)["header"]
    path = tmp_path / "bad.bin"
    path.write_bytes(data[:10] + len(header).to_bytes(4, "little") + header + data[end:])
    with pytest.raises(ValueError, match=match):
        load_model(path)


def test_flatten_unflatten_round_trip():
    net = bound(Sequential([Dense(3, 4, rng(0)), Tanh(), Dense(4, 2, rng(1))]), np.float32)
    flat = net.get_flat()
    assert flat.dtype == np.float32 and flat.size == net.n_params() == 3 * 4 + 4 + 4 * 2 + 2
    np.testing.assert_array_equal(flat, np.concatenate([a.ravel() for a in net.param_arrays()]))
    other = bound(Sequential([Dense(3, 4), Tanh(), Dense(4, 2)]), np.float32)
    other.set_flat(flat)
    for a, b in zip(net.param_arrays(), other.param_arrays()):
        np.testing.assert_array_equal(a, b)
    flat[0] += 1.0  # a copy: the model does not see it
    assert net.layers[0].weight[0, 0] == other.layers[0].weight[0, 0]
    for wrong in (flat[:1], np.append(flat, 0.0)):  # a one-entry vector would broadcast
        with pytest.raises(ValueError, match="expected 26 parameters"):
            other.set_flat(wrong)


# ------------------------------------------------------------ flat arrays


def test_layers_are_views_of_the_model_flat_arrays():
    net = A.AgentNet(rng(3))
    n = net.n_params()
    assert net.flat_params.shape == net.flat_grads.shape == (n,)
    pos = 0
    for p in net.param_arrays():
        assert np.shares_memory(p, net.flat_params[pos : pos + p.size])
        pos += p.size
    assert pos == n
    for l in [net.core, net.head, *net.encoder.spatial_net.layers]:
        for name in l.param_names:
            assert np.shares_memory(l.grads[name], net.flat_grads)
    # inner models are rebound to their slice of the outer arrays
    enc = net.encoder
    assert np.shares_memory(enc.flat_params, net.flat_params)
    assert np.shares_memory(enc.spatial_net.flat_params, enc.flat_params)
    assert enc.n_params() == sum(p.size for p in enc.param_arrays())
    # a write to the flat array is a write to the layers, and back
    net.set_flat(np.arange(n, dtype=np.float32))
    assert net.head.bias[-1] == n - 1
    net.core.w_x[0, 0] = -7.0
    assert net.flat_params[enc.n_params() + net.trunk.n_params()] == -7.0


def leaf_layers(model):
    return [leaf for l in model.layers for leaf in (leaf_layers(l) if hasattr(l, "layers") else [l])]


@pytest.mark.parametrize(
    "build",
    [
        lambda: A.AgentNet(rng(3)),
        lambda: A.AgentNet(),
        lambda: tiny_mem_model(2),
        lambda: make_encoder(1),
        lambda: bound(Sequential([Dense(3, 4, rng(0)), Tanh(), Dense(4, 2, rng(1))]), np.float32),
    ],
    ids=["agent", "agent-zeros", "mem", "encoder", "sequential"],
)
def test_building_a_model_binds_each_layer_once(monkeypatch, build):
    bound = []
    bind = Layer.bind

    def recording(layer, params, grads, pos):
        bound.append(layer)
        return bind(layer, params, grads, pos)

    monkeypatch.setattr(Layer, "bind", recording)
    model = build()
    leaves = leaf_layers(model)
    assert [id(l) for l in bound] == [id(l) for l in leaves]
    pos = 0
    for p in model.param_arrays():
        assert np.shares_memory(p, model.flat_params[pos : pos + p.size])
        pos += p.size
    assert pos == model.n_params() and not model.flat_grads.any()


def test_zero_grads_clears_in_place():
    net = A.AgentNet(rng(8))
    net.flat_grads[:] = 1.0
    g = net.head.grads["weight"]
    net.zero_grads()
    assert g is net.head.grads["weight"] and not g.any()


def test_a_layer_belongs_to_the_last_model_built_from_it():
    dense = Dense(2, 3, rng(4))
    first = bound(Sequential([dense]), np.float32)
    second = bound(Sequential([dense, Tanh()]), np.float32)
    np.testing.assert_array_equal(second.flat_params, first.flat_params)
    dense.bias[:] = 5.0
    assert (second.flat_params[-3:] == 5.0).all()
    assert not (first.flat_params[-3:] == 5.0).any()
