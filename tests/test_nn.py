from __future__ import annotations

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
    ReLU,
    Sequential,
    StateEncoder,
    Tanh,
    adam_step,
    flatten_arrays,
    grad_check,
    grad_check_fn,
    load_model,
    save_model,
    unflatten_into,
)
from microbuild.nn.layers import _sigmoid

GC_TOL = 1e-4
EPS = 1e-4


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------- forward


def test_dense_identity():
    d = Dense(2, 2, dtype=np.float64)
    d.weight[:] = np.eye(2)
    out = d.forward(np.array([[3.0, 4.0]]))
    np.testing.assert_array_equal(out, [[3.0, 4.0]])


def test_dense_shape_mismatch_raises():
    d = Dense(3, 2, rng(0))
    with pytest.raises(ValueError):
        d.forward(np.zeros((1, 4), dtype=np.float32))


def test_conv_same_padding_preserves_hw():
    c = Conv2d(3, 5, k=3, stride=1, pad=1, rng=rng(2))
    out = c.forward(rng(3).standard_normal((2, 3, 7, 7)).astype(np.float32))
    assert out.shape == (2, 5, 7, 7)


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
    cell = LSTM(3, 4, dtype=np.float64)
    cell.bias[:] = 0.0
    h, c = cell.zero_state(1, dtype=np.float64)
    h2, c2 = cell.step(np.ones((1, 3)), h, c, cache=False)
    np.testing.assert_array_equal(h2, np.zeros((1, 4)))
    np.testing.assert_array_equal(c2, np.zeros((1, 4)))


def test_lstm_hidden_bounded():
    cell = LSTM(6, 5, rng(4), dtype=np.float64)
    h, c = cell.zero_state(3, dtype=np.float64)
    r = rng(8)
    for _ in range(50):
        h, c = cell.step(r.standard_normal((3, 6)) * 5, h, c, cache=False)
        assert np.abs(h).max() <= 1.0


# --------------------------------------------------------------- backward


def test_identity_chain_passes_grad_through():
    net = Sequential([Flatten()])
    x = rng(0).standard_normal((2, 3, 4)).astype(np.float64)
    net.zero_grads()
    net.forward(x)
    g = rng(1).standard_normal((2, 12))
    gx = net.backward(g)
    np.testing.assert_array_equal(gx, g.reshape(2, 3, 4))


def test_zero_output_grad_gives_zero_param_grads():
    net = Sequential([Dense(4, 3, rng(0), dtype=np.float64), Tanh()])
    net.zero_grads()
    net.forward(rng(1).standard_normal((2, 4)))
    net.backward(np.zeros((2, 3)))
    for g in net.grad_arrays():
        np.testing.assert_array_equal(g, np.zeros_like(g))


@pytest.mark.parametrize(
    "make_net,in_shape",
    [
        (lambda r: Sequential([Dense(5, 4, r, dtype=np.float64), Tanh()]), (3, 5)),
        (lambda r: Sequential([Dense(5, 4, r, dtype=np.float64), ReLU(), Dense(4, 2, r, dtype=np.float64)]), (3, 5)),
        (
            lambda r: Sequential(
                [Conv2d(2, 3, k=3, stride=1, pad=1, rng=r, dtype=np.float64), ReLU(), Flatten()]
            ),
            (2, 2, 5, 5),
        ),
        (
            lambda r: Sequential(
                [
                    Conv2d(2, 3, k=3, stride=2, rng=r, dtype=np.float64),
                    Tanh(),
                    Flatten(),
                    Dense(27, 3, r, dtype=np.float64),
                ]
            ),
            (2, 2, 7, 7),
        ),
        (lambda r: LSTM(4, 3, r, dtype=np.float64), (2, 4)),
    ],
    ids=["dense-tanh", "dense-relu-dense", "conv-relu", "conv-tanh-dense", "lstm-step"],
)
def test_grad_check_layers(make_net, in_shape):
    r = rng(11)
    net = make_net(r)
    # keep relu inputs away from the kink
    x = r.standard_normal(in_shape) + 0.05
    assert grad_check(net, x, eps=EPS, rng=rng(12)) <= GC_TOL


def test_grad_check_lstm_unrolled_3_steps():
    r = rng(21)
    cell = LSTM(3, 4, r, dtype=np.float64)
    xs = r.standard_normal((3, 2, 3))
    probe = r.standard_normal((2, 4))

    def loss_fn():
        cell.zero_grads()
        cell.reset_cache()
        h, c = cell.zero_state(2, dtype=np.float64)
        for t in range(3):
            h, c = cell.step(xs[t], h, c)
        loss = float((h * probe).sum())
        cell.backward_seq(None, gh_final=probe)
        return loss, [g.copy() for g in cell.grad_arrays()]

    assert grad_check_fn(loss_fn, cell.param_arrays(), eps=EPS) <= GC_TOL


def test_lstm_input_grads_match_finite_differences():
    r = rng(31)
    cell = LSTM(3, 4, r, dtype=np.float64)
    xs = r.standard_normal((3, 2, 3))
    probe = r.standard_normal((2, 4))

    def run(inputs):
        cell.reset_cache()
        h, c = cell.zero_state(2, dtype=np.float64)
        for t in range(3):
            h, c = cell.step(inputs[t], h, c, cache=False)
        return float((h * probe).sum())

    cell.zero_grads()
    cell.reset_cache()
    h, c = cell.zero_state(2, dtype=np.float64)
    for t in range(3):
        h, c = cell.step(xs[t], h, c)
    gx = cell.backward_seq(None, gh_final=probe)

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


def reference_lstm(cell, xs, gh_seq, gh_final, gc_final):
    """Forward from zero state, then step-by-step BPTT with per-step weight
    updates and input products: (parameter gradients, input gradients)."""
    nh = cell.n_hidden
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    h, c = cell.zero_state(xs.shape[1])
    steps = []
    for x in xs:
        z = x @ cell.w_x + h @ cell.w_h + cell.bias
        i, f, g, o = sig(z[:, :nh]), sig(z[:, nh : 2 * nh]), np.tanh(z[:, 2 * nh : 3 * nh]), sig(z[:, 3 * nh :])
        c_prev, c = c, f * c + i * g
        steps.append((x, h, c_prev, i, f, g, o, np.tanh(c)))
        h = o * np.tanh(c)
    grads = {name: np.zeros_like(getattr(cell, name)) for name in cell.param_names}
    dh_next, dc_next = gh_final.copy(), gc_final.copy()
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
    cell = LSTM(6, 5, r, dtype=dtype)
    xs = r.standard_normal((n_steps, batch, 6)).astype(dtype)
    gh_seq = r.standard_normal((n_steps, batch, 5)).astype(dtype)
    gh_final = r.standard_normal((batch, 5)).astype(dtype)
    gc_final = r.standard_normal((batch, 5)).astype(dtype)
    ref_grads, ref_gx = reference_lstm(cell, xs, gh_seq, gh_final, gc_final)

    cell.zero_grads()
    cell.reset_cache()
    h, c = cell.zero_state(batch)
    for x in xs:
        h, c = cell.step(x, h, c)
    gx = cell.backward_seq(gh_seq, gh_final=gh_final, gc_final=gc_final)
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
    cell = LSTM(3, 4, r, dtype=np.float64)
    n_steps = 5
    xs = r.standard_normal((n_steps, 2, 3))
    probes = r.standard_normal((n_steps, 2, 4))

    def run(inputs, cache):
        cell.reset_cache()
        h, c = cell.zero_state(2)
        loss = 0.0
        for t in range(n_steps):
            h, c = cell.step(inputs[t], h, c, cache=cache)
            loss += float((h * probes[t]).sum())
        return loss

    def loss_fn():
        cell.zero_grads()
        loss = run(xs, cache=True)
        cell.backward_seq(probes)
        return loss, [g.copy() for g in cell.grad_arrays()]

    assert grad_check_fn(loss_fn, cell.param_arrays(), eps=EPS) <= GC_TOL

    run(xs, cache=True)
    gx = cell.backward_seq(probes)
    worst = 0.0
    for idx in np.ndindex(xs.shape):
        orig = xs[idx]
        xs[idx] = orig + EPS
        up = run(xs, cache=False)
        xs[idx] = orig - EPS
        down = run(xs, cache=False)
        xs[idx] = orig
        num = (up - down) / (2 * EPS)
        worst = max(worst, abs(num - gx[idx]) / max(abs(num), abs(gx[idx]), 1e-2))
    assert worst <= GC_TOL


# ------------------------------------------------------- forward kernels


def sliding_window_conv(conv, x):
    """Conv2d forward with the patch matrix built by sliding_window_view."""
    if conv.pad:
        x = np.pad(x, ((0, 0), (0, 0), (conv.pad, conv.pad), (conv.pad, conv.pad)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (conv.k, conv.k), axis=(2, 3))
    windows = windows[:, :, :: conv.stride, :: conv.stride]  # (B, C, Ho, Wo, k, k)
    b, c, ho, wo, k, _ = windows.shape
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, ho * wo, c * k * k)
    out = cols @ conv.weight.reshape(conv.c_out, -1).T + conv.bias
    return out.transpose(0, 2, 1).reshape(b, conv.c_out, ho, wo)


@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv_forward_bitwise_equals_sliding_window_reference(pad, stride):
    r = rng(71)
    conv = Conv2d(3, 4, k=3, stride=stride, pad=pad, rng=r)
    conv.bias[:] = r.standard_normal(4)
    # the size change in the middle must rebuild the cached patch index
    for batch, hw in [(1, 9), (32, 9), (1, 12), (32, 9)]:
        x = r.standard_normal((batch, 3, hw, hw)).astype(np.float32)
        got = conv.forward(x)
        want = sliding_window_conv(conv, x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_sigmoid_bitwise_equals_two_branch_form():
    for dtype in (np.float32, np.float64):
        info = np.finfo(dtype)
        special = [0.0, -0.0, 1e4, -1e4, info.max, -info.max, info.tiny, -info.tiny, 88.0, -88.0, 104.0, -104.0]
        z = np.concatenate([np.array(special), rng(81).standard_normal(1000) * 30]).astype(dtype)
        with np.errstate(all="ignore"):
            want = np.empty_like(z)
            pos = z >= 0
            want[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            want[~pos] = ez / (1.0 + ez)
        with np.errstate(all="raise"):
            got = _sigmoid(z)
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()


def test_grad_check_random_compositions():
    # randomized small chains over all layer kinds
    r = rng(41)
    for trial in range(5):
        layers = [Dense(6, 6, r, dtype=np.float64)]
        for _ in range(int(r.integers(1, 4))):
            layers.append(r.choice([ReLU, Tanh])())
            layers.append(Dense(6, 6, r, dtype=np.float64))
        net = Sequential(layers)
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
    return StateEncoder(E.OBS_CHANNELS, E.GRID, E.OBS_NONSPATIAL, 32, rng(seed), np.float32)


def frames(seed, batch):
    r = rng(seed)
    spatial = (r.random((batch, E.OBS_CHANNELS, E.GRID, E.GRID)) < 0.2).astype(np.float32)
    return spatial, r.random((batch, E.OBS_NONSPATIAL)).astype(np.float32)


def tiny_mem_model(seed):
    vocab = L.Vocab(index={L.UNK: 0, "build": 1}, counts=np.zeros(2, dtype=np.int64))
    words = L.WordEmbeddings(vocab, rng(seed).standard_normal((2, L.WORD_DIM)).astype(np.float32))
    return M.MemModel(words, rng(seed))


def test_trunk_memo_hit_bitwise_equals_fresh_forward_mem_model():
    model = tiny_mem_model(3)
    fresh = model.copy()  # same parameters, empty memo
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
            action, logp, value, (h, c) = model.act(obs, aux, h, c, mask, act_rng)
            out.append((action, logp, value, h.tobytes(), c.tobytes()))
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
    for got, want in zip(enc.grad_arrays(), fresh.grad_arrays()):
        assert got.tobytes() == want.tobytes()


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
    expected = -0.01 * g / (np.abs(g) + st.eps)
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
    b1, b2 = state.beta1, state.beta2
    state.m += (1.0 - b1) * (grads - state.m)
    state.v += (1.0 - b2) * (grads * grads - state.v)
    m_hat = state.m / (1.0 - b1**state.t)
    v_hat = state.v / (1.0 - b2**state.t)
    params -= (state.lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(params.dtype)


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
    net = Sequential([Dense(3, 4, rng(0)), Tanh(), Dense(4, 2, rng(1))])
    path = tmp_path / "model.bin"
    save_model(path, net.spec(), net.param_arrays())
    spec, flat = load_model(path, expected_spec=net.spec())
    assert spec == net.spec()
    np.testing.assert_array_equal(flat, flatten_arrays(net.param_arrays()))


def test_load_rejects_spec_mismatch(tmp_path):
    net = Sequential([Dense(3, 4, rng(0))])
    other = Sequential([Dense(4, 3, rng(0))])
    path = tmp_path / "model.bin"
    save_model(path, net.spec(), net.param_arrays())
    with pytest.raises(ValueError, match="spec mismatch"):
        load_model(path, expected_spec=other.spec())


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a model at all")
    with pytest.raises(ValueError, match="bad magic"):
        load_model(path)


def test_flatten_unflatten_round_trip():
    arrays = [rng(0).standard_normal((3, 4)).astype(np.float32), rng(1).standard_normal(5).astype(np.float32)]
    flat = flatten_arrays(arrays)
    targets = [np.zeros_like(a) for a in arrays]
    unflatten_into(flat, targets)
    for a, b in zip(arrays, targets):
        np.testing.assert_array_equal(a, b)
