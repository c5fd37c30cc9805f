from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from microbuild import agents as A
from microbuild import env as E
from microbuild import lexicon as L
from microbuild import mem as M
from microbuild.nn import LSTM, AdamState, Dense, StateEncoder, adam_step, glorot_uniform, save_model

from gradcheck import bound, grad_check_fn


@pytest.fixture(scope="module")
def tiny_mem():
    emb, _ = L.train_skipgram(L.load_bundled_corpus(), L.SkipgramConfig(epochs=5), seed=3)
    return M.MemModel(emb, np.random.default_rng(1))


@pytest.fixture(scope="module")
def commands():
    return M.load_commands()


def zeroed_net() -> A.AgentNet:
    net = A.AgentNet()
    for arr in net.param_arrays():
        arr[...] = 0.0
    return net


@dataclass
class Inputs:
    """What a rollout's steps fed the network: frames, scalar features, aux
    rows, each (T, ...), and the recurrent state entering the first step."""

    spatial: np.ndarray
    nonspatial: np.ndarray
    aux: np.ndarray
    h0: np.ndarray
    c0: np.ndarray


def record_pass(net, inputs):
    """Play ``inputs`` through ``net`` one row at a time, as ``act`` does:
    (every step's ``net.saved()``, every step's value)."""
    h, c = inputs.h0, inputs.c0
    played, values = [], []
    for t in range(len(inputs.aux)):
        x = net._features(inputs.spatial[t : t + 1], inputs.nonspatial[t : t + 1], inputs.aux[t : t + 1])
        h, c = net.core.step(x, h, c)
        values.append(net.head.forward(h)[0, A._VALUE])
        played.append(net.saved())
    return played, np.array(values, dtype=np.float32)


def make_rollout(net, n_steps, seed=0, rewards=None, kinds=None, dtype=np.float32, frames=None):
    """Play random observations through a net to build a consistent rollout:
    its values and its recorded pass are the net's. Step t shows frame
    ``frames[t]`` of n_steps random frames (all distinct by default).
    Returns the rollout and its inputs."""
    rng = np.random.default_rng(seed)
    sp = (rng.random((n_steps, 14, 16, 16)) < 0.1).astype(dtype)
    if frames is not None:
        sp = sp[np.asarray(frames)]
    ns = rng.random((n_steps, 10)).astype(dtype)
    inputs = Inputs(sp, ns, np.zeros((n_steps, A.AUX_DIM), dtype=dtype), *net.zero_state())
    if kinds is None:
        kinds = rng.integers(0, 6, size=n_steps)
    xs = rng.integers(0, 16, size=n_steps)
    ys = rng.integers(0, 16, size=n_steps)
    if rewards is None:
        rewards = rng.random(n_steps).astype(np.float32)
    # values from the net itself so advantages are consistent
    played, values = record_pass(net, inputs)
    roll = A.Rollout(
        masks=np.ones((n_steps, 6), dtype=bool),
        kinds=np.asarray(kinds),
        xs=xs,
        ys=ys,
        rewards=np.asarray(rewards, dtype=np.float32),
        values=values,
        bootstrap=0.0,
        played=played,
    )
    return roll, inputs


def play_twin(twin, n_steps):
    """Play ``twin`` up to ``n_steps`` steps or the episode's end, as
    ``rollout`` plays, and return the inputs its steps fed the network."""
    h0, c0 = twin.h, twin.c
    obs, aux, done = [], [], False
    while len(aux) < n_steps and not done:
        obs.append(twin.obs)
        aux.append(twin.shaping.aux())
        done = twin.step()[-1]
    return Inputs(np.array([o.spatial for o in obs]), np.array([o.nonspatial for o in obs]), np.array(aux), h0, c0)


# ----------------------------------------------------------------- returns


def test_returns_gamma_zero_is_rewards():
    r = np.array([1.0, 0.5, 2.0])
    returns, _ = A.compute_returns(r, bootstrap=7.0, gamma=0.0, values=np.zeros(3))
    np.testing.assert_allclose(returns, r)


def test_returns_all_zero_terminal():
    returns, adv = A.compute_returns(np.zeros(4), 0.0, 0.99, values=np.array([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_allclose(returns, np.zeros(4))
    np.testing.assert_allclose(adv, [-1.0, -2.0, -3.0, -4.0])


def test_returns_hand_case_matches_recurrence_oracle():
    # brute-force oracle: acc = v_boot; acc = r[i] + gamma * acc walking back
    returns, _ = A.compute_returns(np.array([1.0, 0.0, 2.0]), bootstrap=1.0, gamma=0.5, values=np.zeros(3))
    np.testing.assert_allclose(returns, [1.625, 1.25, 2.5])


# ---------------------------------------------------------------- act head


def test_head_blocks_start_at_their_own_glorot_draws():
    """Replaying the layers below the head, then one Glorot draw per column
    block at that block's own fan-out, in column order, gives the head's
    initial weights bit for bit: those of four separate heads."""
    net = A.AgentNet(np.random.default_rng(0))
    rng = np.random.default_rng(0)
    enc = StateEncoder(E.OBS_CHANNELS, E.GRID, E.OBS_NONSPATIAL, M.NONSPATIAL_HIDDEN, rng)
    Dense(enc.out_dim + A.AUX_DIM, A.HIDDEN, rng)
    LSTM(A.HIDDEN, A.HIDDEN, rng)
    blocks = (A._ID, A._X, A._Y, slice(A._VALUE, A._VALUE + 1))
    assert [b.stop - b.start for b in blocks] == [E.N_ACTIONS, E.GRID, E.GRID, 1]
    assert net.head.weight.shape == (A.HIDDEN, blocks[-1].stop)
    for block in blocks:
        width = block.stop - block.start
        want = glorot_uniform(rng, A.HIDDEN, width, (A.HIDDEN, width))
        assert net.head.weight[:, block].tobytes() == want.tobytes()
    assert not net.head.bias.any()


def test_masked_log_softmax_is_distribution():
    rng = np.random.default_rng(0)
    for _ in range(50):
        logits = rng.standard_normal(6) * rng.uniform(0.1, 10)
        mask = rng.random(6) < 0.5
        mask[rng.integers(6)] = True
        logp = A.masked_log_softmax(logits, mask)
        p = np.exp(logp)
        assert p[~mask].sum() == 0.0
        assert p[mask].sum() == pytest.approx(1.0, abs=1e-6)


def reference_log_softmax(logits, mask):
    """``masked_log_softmax`` through the ndarray ``max`` and ``sum`` methods."""
    if mask is not None:
        logits = np.where(mask, logits, -np.inf)
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


@pytest.mark.parametrize("masked", [True, False])
@pytest.mark.parametrize("shape", [(6,), (16,), (32, 6)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_masked_log_softmax_bitwise_equals_reference(masked, shape, dtype):
    rng = np.random.default_rng(3)
    for _ in range(20):
        logits = (rng.standard_normal(shape) * rng.uniform(0.1, 30)).astype(dtype)
        mask = None
        if masked:
            mask = rng.random(shape) < 0.5
            mask[..., 0] = True
        got, want = A.masked_log_softmax(logits, mask), reference_log_softmax(logits, mask)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class ConstantDraws:
    """A generator stand-in whose every uniform draw is ``value``, a Python
    float as ``Generator.random()`` returns."""

    def __init__(self, value: float):
        self.value = float(value)

    def random(self) -> float:
        return self.value


class CountingDraws:
    """A generator stand-in that counts its uniform draws."""

    def __init__(self, seed: int):
        self.rng, self.draws = np.random.default_rng(seed), 0

    def random(self) -> float:
        self.draws += 1
        return self.rng.random()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sample_from_logits_matches_softmax_by_chi_square(dtype):
    """20k draws from fixed logits, one uniform draw each: a masked id head
    never draws a masked index, and both it and an unmasked 16-entry head
    pass a chi-square test against the softmax at the 0.001 level."""
    id_logits = np.array([0.5, -1.0, 2.0, 0.0, 1.0, -0.5], dtype)
    mask = np.array([True, False, True, True, False, True])
    grid_logits = np.linspace(-2.0, 1.5, E.GRID).astype(dtype)
    cutoffs = {3: 16.27, 15: 37.70}  # chi-square 0.999 quantiles by degrees of freedom
    n = 20_000
    for logits, legal in ((id_logits, mask), (grid_logits, None)):
        draws = CountingDraws(7)
        counts = np.bincount([A.sample_from_logits(logits, legal, draws) for _ in range(n)], minlength=logits.size)
        assert draws.draws == n
        allowed = np.ones(logits.size, bool) if legal is None else legal
        assert not counts[~allowed].any()
        p = np.exp(logits[allowed].astype(np.float64))
        expected = n * p / p.sum()
        chi2 = ((counts[allowed] - expected) ** 2 / expected).sum()
        assert chi2 < cutoffs[allowed.sum() - 1]


def test_sample_never_takes_a_masked_entry_past_the_cumulative_mass():
    """The largest draw under 1, scaled by the float32 cumulative mass,
    rounds to that mass and lands past it; it takes the last legal entry,
    in the sampler and in ``act``."""
    mask = np.array([True, True, True, False, False, False])
    top = ConstantDraws(np.nextafter(1.0, 0.0))
    found = np.random.default_rng(0)
    for _ in range(20):
        logits = found.standard_normal(E.N_ACTIONS).astype(np.float32)
        assert A.sample_from_logits(logits, mask, top) == 2
    net = zeroed_net()
    net.head.bias[A._ID] = logits  # a zero net's logits are the bias
    h, c = net.zero_state()
    obs = E.encode_observation(None, E.reset(0))
    action, _, _ = net.act(obs, np.zeros(A.AUX_DIM, dtype=np.float32), h, c, mask, top)
    assert action.kind == 2


def test_act_uniform_over_legal_for_zero_net():
    net = zeroed_net()
    s = E.reset(0)
    obs = E.encode_observation(None, s)
    mask = E.legal_actions(s)  # NoOp + SelectWorker
    rng = np.random.default_rng(42)
    h, c = net.zero_state()
    counts = Counter()
    for _ in range(10_000):
        action, _, _ = net.act(obs, np.zeros(A.AUX_DIM, dtype=np.float32), h, c, mask, rng)
        counts[action.kind] += 1
    assert set(counts) == {E.A_NOOP, E.A_SELECT_WORKER}
    # chi-square against uniform: df=1, comfortably under the 0.001 cutoff
    chi2 = sum((counts[k] - 5000.0) ** 2 / 5000.0 for k in counts)
    assert chi2 < 10.8


def test_act_draws_once_per_head_it_samples():
    """One uniform draw for the action id; a build draws its x and y too."""
    net = A.AgentNet(np.random.default_rng(2))
    s = E.reset(0)
    obs = E.encode_observation(None, s)
    builds_only = np.isin(np.arange(E.N_ACTIONS), E.BUILD_KINDS)
    aux = np.zeros(A.AUX_DIM, dtype=np.float32)
    h, c = net.zero_state()
    for mask, per_act in ((E.legal_actions(s), 1), (builds_only, 3)):
        draws = CountingDraws(1)
        for i in range(1, 21):
            action, _, _ = net.act(obs, aux, h, c, mask, draws)
            assert mask[action.kind] and draws.draws == i * per_act
            assert (action.kind in E.BUILD_KINDS) == (per_act == 3)
            assert 0 <= action.x < E.GRID and 0 <= action.y < E.GRID


def test_act_reproducible_given_seed():
    net = A.AgentNet(np.random.default_rng(3))
    s = E.reset(0)
    obs = E.encode_observation(None, s)
    mask = E.legal_actions(s)

    def stream(seed):
        rng = np.random.default_rng(seed)
        h, c = net.zero_state()
        out = []
        for _ in range(50):
            action, value, (h, c) = net.act(obs, np.zeros(A.AUX_DIM, dtype=np.float32), h, c, mask, rng)
            out.append((action, value, h.tobytes()))
        return out

    assert stream(9) == stream(9)


# -------------------------------------------------------------------- loss


def test_a3c_loss_zero_advantage_leaves_only_entropy():
    net = zeroed_net()
    # zero rewards, zero bootstrap, zero values -> advantages 0, value loss 0
    roll, _ = make_rollout(net, 5, seed=2, rewards=np.zeros(5), kinds=[0, 1, 4, 5, 0])
    cfg = A.AgentConfig(entropy_coef=0.01, value_coef=0.5)
    loss, _ = A.a3c_loss(roll, net, cfg)
    expected = -cfg.entropy_coef * 5 * np.log(6.0)  # uniform over 6 legal ids
    assert loss == pytest.approx(expected, rel=1e-5)
    assert loss < 0


def test_a3c_loss_entropy_bounded_per_step():
    net = A.AgentNet(np.random.default_rng(5))
    roll, _ = make_rollout(net, 6, seed=3, kinds=[2, 3, 0, 2, 5, 1])
    cfg = A.AgentConfig(entropy_coef=1.0, value_coef=0.0)
    # with c_e=1 and zero advantages/values the loss is -sum(entropies);
    # bound per step: log 6 + 2 log 16
    roll = A.Rollout(**{**roll.__dict__, "rewards": np.zeros(6, dtype=np.float32), "values": np.zeros(6, dtype=np.float32)})
    loss, _ = A.a3c_loss(roll, net, cfg)
    max_h = 6 * (np.log(6) + 2 * np.log(16))
    assert -loss <= max_h + 1e-6


def test_a3c_loss_gradients_match_finite_differences():
    """In float64, on a rollout whose first two steps share a frame (two memo
    runs), with the pass recorded again at every perturbed parameter vector."""
    net = bound(A.AgentNet(np.random.default_rng(7)))
    # build + train heads
    roll, inputs = make_rollout(net, 3, seed=11, kinds=[2, 5, 3], dtype=np.float64, frames=[0, 0, 1])
    cfg = A.AgentConfig()

    def loss_fn():
        roll.played = record_pass(net, inputs)[0]
        loss, flat = A.a3c_loss(roll, net, cfg)
        out, pos = [], 0
        for a in net.param_arrays():
            out.append(flat[pos : pos + a.size].reshape(a.shape).astype(np.float64))
            pos += a.size
        return loss, out

    err = grad_check_fn(
        loss_fn, net.param_arrays(), eps=1e-5, max_entries_per_array=8, rng=np.random.default_rng(13)
    )
    assert err <= 1e-3


def reference_a3c_loss(rollout, net, config, rerun=None):
    """a3c_loss with its policies walked one timestep at a time, each
    policy's log-softmax taken over the legal entries of its column block
    only, on the rollout's recorded pass. Given the rollout's ``Inputs`` as
    ``rerun``, it runs the forward pass on them again instead, as one
    batched trunk and one ``forward_seq``, and backpropagates that."""

    def log_softmax(z):
        z = z - z.max()
        return z - np.log(np.exp(z).sum())

    returns, advantages = A.compute_returns(rollout.rewards, rollout.bootstrap, config.gamma, rollout.values)
    net.zero_grads()
    if rerun is not None:
        feats = net._features(rerun.spatial, rerun.nonspatial, rerun.aux)
        hs = net.core.forward_seq(feats[:, None], rerun.h0, rerun.c0)[:, 0]
        run_starts = None  # one trunk row per step
    else:
        hs, run_starts = net.restore(rollout.played)
    out = net.head.forward(hs)
    blocks = (A._ID, A._X, A._Y)
    values = out[:, A._VALUE]
    gout = np.zeros_like(out)
    loss = 0.0
    c_v, c_e = config.value_coef, config.entropy_coef
    for t in range(len(rollout)):
        adv, ret = float(advantages[t]), float(returns[t])
        used = [(0, np.flatnonzero(rollout.masks[t]), int(rollout.kinds[t]))]
        if rollout.kinds[t] in E.BUILD_KINDS:
            used += [(1, np.arange(E.GRID), int(rollout.xs[t])), (2, np.arange(E.GRID), int(rollout.ys[t]))]
        for k, legal, chosen in used:
            logp = log_softmax(out[t, blocks[k]][legal])
            p = np.exp(logp)
            ent = float(-(p * logp).sum())
            loss += -adv * float(logp[legal == chosen][0]) - c_e * ent
            g = adv * p
            g[legal == chosen] -= adv
            g += c_e * p * (logp + ent)
            gout[t, blocks[k]][legal] += g
        verr = float(values[t]) - ret
        loss += c_v * verr * verr
        gout[t, A._VALUE] = 2.0 * c_v * verr
    gh = net.head.backward(gout)
    net._backward_features(net.core.backward_seq(gh[:, None])[:, 0], run_starts)
    return loss, net.flat_grads.copy()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kinds", ["all-build", "no-build", "mixed"])
@pytest.mark.parametrize("n_steps", [1, 5, 32])
def test_a3c_loss_bitwise_equals_per_step_reference(n_steps, kinds, dtype):
    r = np.random.default_rng(n_steps)
    kind_choices = {"all-build": E.BUILD_KINDS, "no-build": (0, 1, 4, 5), "mixed": range(E.N_ACTIONS)}
    chosen = r.choice(list(kind_choices[kinds]), size=n_steps)
    net = bound(A.AgentNet(np.random.default_rng(17)), dtype)
    roll, _ = make_rollout(net, n_steps, seed=n_steps, kinds=chosen, dtype=dtype)
    masks = r.random((n_steps, E.N_ACTIONS)) < 0.6
    masks[:, E.A_NOOP] = True
    masks[np.arange(n_steps), chosen] = True
    rewards = (3.0 * r.standard_normal(n_steps)).astype(np.float32)
    roll = A.Rollout(**{**roll.__dict__, "masks": masks, "rewards": rewards, "bootstrap": 0.7})
    cfg = A.AgentConfig(entropy_coef=0.3)
    loss, grads = A.a3c_loss(roll, net, cfg)
    grads = grads.copy()  # net.flat_grads, which the reference's backward overwrites
    want_loss, want_grads = reference_a3c_loss(roll, net, cfg)
    assert loss == want_loss
    assert grads.dtype == dtype
    assert grads.tobytes() == want_grads.tobytes()


def assert_rerun_gradient(roll, inputs, net, cfg):
    loss, grads = A.a3c_loss(roll, net, cfg)
    grads = grads.copy()  # net.flat_grads, which the reference's backward overwrites
    want_loss, want = reference_a3c_loss(roll, net, cfg, rerun=inputs)
    assert loss == pytest.approx(want_loss, rel=1e-5, abs=1e-6)
    np.testing.assert_allclose(grads, want, rtol=1e-4, atol=1e-4 * np.abs(want).max())


@pytest.mark.parametrize("variant", ["none", "subtask", "narration"])
def test_a3c_loss_on_played_rollouts_equals_rerun_forward(variant, tiny_mem, commands):
    """Consecutive rollouts of a training actor, each taken before its update;
    the last is cut short by the episode's end."""
    cfg = A.AgentConfig(variant=variant, horizon=40, rollout_len=16, tau=2.0, lr=1e-3)
    net = A.AgentNet(np.random.default_rng(5))
    shared = A.SharedParams(net, cfg.lr)

    def actor():
        return A.Actor(net, cfg, A.EpisodeShaping(cfg, tiny_mem, commands), 7, np.random.default_rng(8))

    rolling, twin = actor(), actor()
    sizes, runs, done = [], [], False
    while not done:
        inputs = play_twin(twin, cfg.rollout_len)
        roll, done = rolling.rollout()
        runs.append(len(net.restore(roll.played)[1]))
        assert_rerun_gradient(roll, inputs, net, cfg)
        shared.apply_gradients(A.a3c_loss(roll, net, cfg)[1])
        sizes.append(len(roll))
    assert sizes == [16, 16, 8]
    assert all(1 <= r < s for r, s in zip(runs, sizes))  # some frames repeat


@pytest.mark.parametrize("frames, runs", [(None, 32), ([3] * 32, 1)], ids=["all-distinct", "all-equal"])
def test_a3c_loss_memo_runs_equal_rerun_forward(frames, runs):
    net = A.AgentNet(np.random.default_rng(9))
    roll, inputs = make_rollout(net, 32, seed=4, frames=frames)
    assert len(net.restore(roll.played)[1]) == runs
    assert_rerun_gradient(roll, inputs, net, A.AgentConfig(entropy_coef=0.3))


def test_a3c_loss_nan_detected():
    net = zeroed_net()
    roll, _ = make_rollout(net, 3, seed=2)
    net.head.weight[:, A._VALUE] = np.nan
    with pytest.raises(FloatingPointError):
        A.a3c_loss(roll, net, A.AgentConfig())


# ----------------------------------------------------------------- shaping


def subtask_shaping(commands, bonus=1.0):
    shaping = A.EpisodeShaping(A.AgentConfig(variant="subtask", bonus=bonus), None, commands)
    shaping.start(None)  # the subtask variant reads no observation
    return shaping


def test_tracker_cycles_and_counts(commands):
    shaping = subtask_shaping(commands)
    for expected in (0, 1, 2, 3, 4, 0):
        assert shaping.pointer == expected
        assert shaping.bonus(None, frozenset({commands[expected].id})) == 1.0
    assert shaping.pointer == 1
    assert shaping.completions == 6
    shaping.start(None)
    assert shaping.pointer == 0 and shaping.completions == 0


def test_subtask_wrong_order_event_ignored(commands):
    shaping = subtask_shaping(commands)
    shaping.pointer = 1  # waiting on build-depot
    bonus = shaping.bonus(None, frozenset({E.EV_TRAIN_MARINE}))
    assert bonus == 0.0 and shaping.pointer == 1 and shaping.completions == 0


def test_subtask_empty_events_no_change(commands):
    shaping = subtask_shaping(commands)
    assert shaping.bonus(None, frozenset()) == 0.0
    assert shaping.pointer == 0


def test_subtask_expert_episode_completes_all_commands_in_order(commands):
    shaping = subtask_shaping(commands)
    s = E.reset(0)
    seen = []
    while s.step < s.horizon:
        prev = s
        s, _, _ = E.step(s, E.scripted_expert(s))
        before = shaping.pointer
        if shaping.bonus(None, E.detect(prev, s)) > 0:
            seen.append(before)
    assert shaping.completions >= 5
    assert seen[:5] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("variant", ["none", "random"])
def test_unshaped_variants_pay_no_bonus(variant, commands):
    shaping = A.EpisodeShaping(A.AgentConfig(variant=variant), None, commands)
    shaping.start(None)
    assert shaping.bonus(None, frozenset(c.id for c in commands)) == 0.0
    assert shaping.completions == 0


def test_shape_narration_is_the_distance_test():
    state_vec = np.zeros(M.EMBED_DIM, dtype=np.float32)
    command_vec = np.zeros(M.EMBED_DIM, dtype=np.float32)
    command_vec[0] = 0.5
    assert A.shape_narration(state_vec, command_vec, tau=0.6)
    assert not A.shape_narration(state_vec, command_vec, tau=0.5)  # strictly within tau


def test_narration_far_observation_no_advance(tiny_mem, commands):
    shaping = A.EpisodeShaping(A.AgentConfig(variant="narration", tau=0.5), tiny_mem, commands)
    shaping.command_vecs = np.full((5, M.EMBED_DIM), 10.0, dtype=np.float32)
    obs = E.encode_observation(None, E.reset(0))
    shaping.start(obs)
    bonus = shaping.bonus(obs, frozenset({commands[0].id}))  # detector events do not count
    assert bonus == 0.0 and shaping.pointer == 0 and shaping.completions == 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_narration_aux_equals_concatenated_embeddings(dtype, tiny_mem, commands):
    mem = bound(M.MemModel(tiny_mem.word_embeddings, np.random.default_rng(2)), dtype)
    shaping = A.EpisodeShaping(A.AgentConfig(variant="narration", tau=2.0), mem, commands)
    ep = E.Episode(0, 60)
    shaping.start(ep.observe())
    pointers = set()
    for _ in range(60):
        aux = shaping.aux()
        pointer = shaping.pointer
        want = np.concatenate([shaping.state_vec, shaping.command_vecs[pointer]]).astype(np.float32)
        assert aux.dtype == want.dtype and aux.tobytes() == want.tobytes()
        pointers.add(pointer)
        obs, _, _, events = ep.step(E.scripted_expert(ep.state))
        shaping.bonus(obs, events)
    assert len(pointers) > 1


def test_narration_wraps_after_last_command(tiny_mem, commands):
    shaping = A.EpisodeShaping(A.AgentConfig(variant="narration", tau=0.5, bonus=2.0), tiny_mem, commands)
    obs = E.encode_observation(None, E.reset(0))
    shaping.start(obs)
    shaping.command_vecs = np.tile(tiny_mem.encode_state(obs), (5, 1))  # every command at distance 0
    shaping.pointer = 4
    bonus = shaping.bonus(obs, frozenset())
    assert bonus == 2.0 and shaping.pointer == 0 and shaping.completions == 1


# ------------------------------------------------------------ shared state


@dataclass
class FlatParams:
    """All ``SharedParams`` reads of a network: its flat parameter array."""

    flat_params: np.ndarray


def test_shared_params_applies_clipped_adam_steps():
    shared = A.SharedParams(FlatParams(np.zeros(10, dtype=np.float32)), lr=1e-3)
    want, adam = np.zeros(10, dtype=np.float32), AdamState(10, lr=1e-3)
    rng = np.random.default_rng(0)
    for scale in (100.0, 1.0, 30.0, 0.01):  # L2 norms about 316, 3.2, 95 and 0.03
        g = (scale * rng.standard_normal(10)).astype(np.float32)
        shared.apply_gradients(g)
        norm = float(np.linalg.norm(g))
        adam_step(want, g * (A.GRAD_CLIP / norm) if norm > A.GRAD_CLIP else g, adam)
        assert shared.snapshot().tobytes() == want.tobytes()


def test_shared_params_snapshot_consistent():
    net = FlatParams(np.arange(4, dtype=np.float32))
    shared = A.SharedParams(net, lr=1e-4)
    params = shared.snapshot()
    np.testing.assert_array_equal(params, np.arange(4, dtype=np.float32))
    # the update lands in the network's own array; the snapshot is a copy
    shared.apply_gradients(np.ones(4, dtype=np.float32))
    assert (net.flat_params < np.arange(4)).all()
    np.testing.assert_array_equal(params, np.arange(4, dtype=np.float32))
    np.testing.assert_array_equal(shared.snapshot(), net.flat_params)


# ------------------------------------------------------------------ actors


@dataclass
class ConstantRewardEnv:
    """Single legal action, reward 1 per step, fixed-length episodes."""

    length: int = 200
    t: int = 0
    score: float = 0.0

    _obs = E.Observation(
        spatial=np.zeros((14, 16, 16), dtype=np.float32), nonspatial=np.zeros(10, dtype=np.float32)
    )
    _mask = np.array([True, False, False, False, False, False])

    def observe(self):
        return self._obs

    def legal_mask(self):
        return self._mask

    def step(self, action):
        self.t += 1
        self.score += 1.0
        return self._obs, 1.0, self.t >= self.length, frozenset()


def test_train_b0_shaped_equals_env_reward(commands):
    cfg = A.AgentConfig(
        variant="subtask", workers=1, total_steps=2_000, rollout_len=16, bonus=0.0,
        base_seed=5, horizon=120, eval_interval=10**9, eval_episodes=1, lr=1e-3,
    )
    records = A.train(cfg, None, commands).records
    assert records
    for rec in records:
        assert rec.shaped_return == rec.env_score


def test_train_narration_b0_matches_env_reward(tiny_mem, commands):
    cfg = A.AgentConfig(
        variant="narration", workers=1, total_steps=1_000, rollout_len=16, bonus=0.0,
        base_seed=5, horizon=100, eval_interval=10**9, eval_episodes=1, lr=1e-3,
    )
    records = A.train(cfg, tiny_mem, commands).records
    assert records
    for rec in records:
        assert rec.shaped_return == rec.env_score


def test_train_deterministic_single_worker():
    def run():
        cfg = A.AgentConfig(
            variant="none", workers=1, total_steps=1_500, rollout_len=16,
            base_seed=3, horizon=100, eval_interval=500, eval_episodes=1, lr=1e-3,
        )
        return A.train(cfg)

    a, b = run(), run()
    assert a.final_params.tobytes() == b.final_params.tobytes()
    assert a.records and a.records == b.records


def test_rollout_stacks_the_records_of_the_steps_it_played(commands):
    cfg = A.AgentConfig(variant="subtask", horizon=40, rollout_len=16)
    net = A.AgentNet(np.random.default_rng(5))

    def actor():
        return A.Actor(net, cfg, A.EpisodeShaping(cfg, None, commands), 7, np.random.default_rng(8))

    rolling, twin = actor(), actor()
    sizes, done = [], False
    while not done:
        steps, hs = [twin.step()], [twin.h]
        while len(steps) < cfg.rollout_len and not steps[-1][-1]:
            steps.append(twin.step())
            hs.append(twin.h)
        roll, done = rolling.rollout()
        masks, actions, values, rewards, dones = zip(*steps)
        want = {
            "masks": (np.stack(masks), np.bool_),
            "kinds": (np.array([a.kind for a in actions]), np.int64),
            "xs": (np.array([a.x for a in actions]), np.int64),
            "ys": (np.array([a.y for a in actions]), np.int64),
            "rewards": (np.array([np.float32(r) for r in rewards]), np.float32),
            "values": (np.array([np.float32(v) for v in values]), np.float32),
        }
        for field, (array, dtype) in want.items():
            got = getattr(roll, field)
            assert got.dtype == dtype and np.array_equal(got, array), field
        assert net.restore(roll.played)[0].tobytes() == np.concatenate(hs).tobytes()  # the pass it played
        assert done == dones[-1] and not any(dones[:-1])
        if not done:
            assert roll.bootstrap == net.value_of(twin.obs, twin.shaping.aux(), twin.h, twin.c)
        sizes.append(len(roll))
    assert sizes == [16, 16, 8]
    assert roll.bootstrap == 0.0


def test_value_head_learns_constant_reward_stream():
    # 1/(1 - gamma) fixed point on a single-action constant-reward env, from
    # three initial networks; lr=0.01 settles every one within 0.5% of it
    target = 1.0 / (1.0 - 0.9)
    for seed in (0, 1, 2):
        cfg = A.AgentConfig(
            variant="none", workers=1, total_steps=10_000, rollout_len=32,
            gamma=0.9, lr=0.01, entropy_coef=0.0, base_seed=seed,
            eval_interval=10**9, eval_episodes=1, env_factory=lambda _: ConstantRewardEnv(),
        )
        net = A.AgentNet()
        net.set_flat(A.train(cfg).final_params)
        env = ConstantRewardEnv()
        obs = env.observe()
        h, c = net.zero_state()
        rng = np.random.default_rng(0)
        for _ in range(20):  # settle the recurrent state
            _, value, (h, c) = net.act(obs, np.zeros(A.AUX_DIM, dtype=np.float32), h, c, env.legal_mask(), rng)
        assert value == pytest.approx(target, rel=0.05), f"seed {seed}"


class BanditEnv:
    """A one-step bandit played as a game: a fixed observation, 64-step
    episodes, and TRAIN_MARINE pays 1 whether or not the mask allows it.
    Every action the env receives must be legal under the mask it gave."""

    def __init__(self, seed: int, mask: np.ndarray):
        self.obs = E.encode_observation(None, E.reset(seed))
        self.mask = mask
        self.t = 0
        self.score = 0.0

    def observe(self):
        return self.obs

    def legal_mask(self):
        return self.mask

    def step(self, action):
        assert self.mask[action.kind], f"illegal action {action}"
        self.t += 1
        reward = float(action.kind == E.A_TRAIN_MARINE)
        self.score += reward
        return self.obs, reward, self.t >= 64, frozenset()


def train_bandit(base_seed: int, mask: np.ndarray) -> A.TrainResult:
    cfg = A.AgentConfig(
        variant="none", workers=1, total_steps=5_000, base_seed=base_seed,
        eval_interval=5_000, eval_episodes=4, env_factory=lambda seed: BanditEnv(seed, mask),
    )
    return A.train(cfg)


@pytest.mark.parametrize("base_seed", [0, 1])
def test_policy_gradient_learns_a_bandit(base_seed):
    # the untrained policy pays about 11 of 64; 5k steps at the default lr
    # reach 43.5 and 31.25, and with the action-id advantages negated 6.0 and 3.75
    rows = train_bandit(base_seed, np.ones(E.N_ACTIONS, bool)).eval_rows
    assert [row["step"] for row in rows] == [0, 5_000]
    assert rows[-1]["mean_score"] >= 2 * rows[0]["mean_score"] > 0


def test_policy_gradient_never_plays_a_masked_action_that_pays():
    mask = np.ones(E.N_ACTIONS, bool)
    mask[E.A_TRAIN_MARINE] = False
    result = train_bandit(0, mask)
    assert result.records and all(r.env_score == 0.0 for r in result.records)
    assert [row["mean_score"] for row in result.eval_rows] == [0.0, 0.0]


# ------------------------------------------------------------------- train


def test_train_single_worker_eval_rows_reproducible(commands):
    def run():
        cfg = A.AgentConfig(
            variant="none", workers=1, total_steps=1_000, rollout_len=16,
            base_seed=7, horizon=80, eval_interval=500, eval_episodes=3, lr=1e-3,
        )
        return A.train(cfg)

    a, b = run(), run()
    assert a.eval_rows == b.eval_rows
    assert a.final_params.tobytes() == b.final_params.tobytes()
    assert [row["step"] for row in a.eval_rows] == [0, 500, 1000]


def test_train_evaluates_every_boundary_an_update_crosses():
    steps = []
    cfg = A.AgentConfig(
        variant="none", workers=1, total_steps=32, rollout_len=16, base_seed=4,
        horizon=40, eval_interval=8, eval_episodes=2,
    )
    rows = A.train(cfg, progress=steps.append).eval_rows
    # each 16-step update crosses two boundaries; both are evaluated on the
    # parameters after it, so their rows agree in all but the step
    assert steps == [row["step"] for row in rows] == [0, 8, 16, 24, 32]
    scores = [{k: v for k, v in row.items() if k != "step"} for row in rows]
    assert scores[1] == scores[2] and scores[3] == scores[4]


MULTI_WORKER = dict(
    variant="subtask", workers=3, total_steps=3_000, rollout_len=16,
    base_seed=2, horizon=80, eval_interval=1500, eval_episodes=2, lr=1e-3,
)


def test_train_multi_worker_smoke(commands):
    result = A.train(A.AgentConfig(**MULTI_WORKER), None, commands)
    # every turn is a full 16-step rollout: 188 turns reach 3008 >= 3000 steps
    assert [row["step"] for row in result.eval_rows] == [0, 1500, 3000]
    # turns go 0, 1, 2, 0, ...; worker w ends episode e (5 turns of 80 steps)
    # on its turn 5e + 4, global turn 15e + 12 + w
    assert [(r.worker, r.episode, r.step) for r in result.records] == [
        (w, e, 16 * (15 * e + 13 + w)) for e in range(12) for w in range(3)
    ]


@pytest.mark.parametrize("variant", ["subtask", "narration"])
def test_train_multi_worker_bitwise_reproducible(variant, tiny_mem, commands):
    # the workers' actors share the learner net and, for narration, the MEM
    cfg = A.AgentConfig(**{**MULTI_WORKER, "variant": variant})
    a, b = (A.train(cfg, tiny_mem, commands) for _ in range(2))
    assert a.final_params.tobytes() == b.final_params.tobytes()
    assert a.eval_rows == b.eval_rows
    assert a.records == b.records


def test_train_stops_siblings_when_a_worker_raises():
    steps = []

    class CountingEnv(ConstantRewardEnv):
        def step(self, action):
            steps.append(action)
            return super().step(action)

    def factory(seed):
        if seed >= 1_000_003:  # worker 1's episodes
            raise OSError("env failed to start")
        return CountingEnv(length=50)

    cfg = A.AgentConfig(
        variant="none", workers=2, total_steps=5_000, rollout_len=16,
        eval_interval=10**9, eval_episodes=2, env_factory=factory,
    )
    with pytest.raises(RuntimeError, match=r"worker failed: .*\(worker 1\)"):
        A.train(cfg)
    # 100 steps of step-0 evaluation, then worker 0 stops at its next rollout
    assert len(steps) < 1_000


def test_random_variant_replays_random_legal_action():
    cfg = A.AgentConfig(variant="random", horizon=720, eval_episodes=3, eval_seed=10_000)
    row = A.evaluate_policy(np.zeros(1, dtype=np.float32), cfg)
    scores = []
    for i in range(cfg.eval_episodes):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.eval_seed, i)))
        s = E.reset(cfg.eval_seed + i, cfg.horizon)
        score = 0.0
        while s.step < s.horizon:
            s, r, _ = E.step(s, E.random_legal_action(s, rng))
            score += r
        scores.append(score)
    assert row == {
        "episodes": 3,
        "mean_score": float(np.mean(scores)),
        "stderr_score": float(np.std(scores, ddof=1) / np.sqrt(3)),
        "mean_shaped": float(np.mean(scores)),
        "mean_completions": 0.0,
    }
    assert row["mean_score"] > 0.0


def test_train_rejects_random_before_building_an_env():
    built = []
    cfg = A.AgentConfig(variant="random", workers=1, total_steps=32, eval_episodes=1, env_factory=built.append)
    with pytest.raises(ValueError, match="random"):
        A.train(cfg)
    assert built == []


def reference_evaluate_policy(params, config, mem=None, commands=None):
    """evaluate_policy as its own per-episode loop: fresh env, generator and
    recurrent state per episode, the policy picked at every step."""
    random_variant = config.variant == "random"
    net = A.AgentNet()
    if not random_variant:
        net.set_flat(params)
    shaping = A.EpisodeShaping(config, mem, commands)
    scores, shaped, completions = [], [], []
    for i in range(config.eval_episodes):
        env = config.make_env(config.eval_seed + i)
        rng = np.random.default_rng(np.random.SeedSequence((config.eval_seed, i)))
        obs = env.observe()
        shaping.start(obs)
        h, c = net.zero_state()
        total_shaped = 0.0
        done = False
        while not done:
            if random_variant:
                action = E.random_legal_action(env.state, rng)
            else:
                action, _, (h, c) = net.act(obs, shaping.aux(), h, c, env.legal_mask(), rng)
            obs, env_r, done, events = env.step(action)
            total_shaped += env_r + shaping.bonus(obs, events)
        scores.append(float(env.score))
        shaped.append(total_shaped)
        completions.append(shaping.completions)
    n = len(scores)
    return {
        "episodes": n,
        "mean_score": float(np.mean(scores)),
        "stderr_score": float(np.std(scores, ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
        "mean_shaped": float(np.mean(shaped)),
        "mean_completions": float(np.mean(completions)),
    }


class TallyEpisode(E.Episode):
    """``env.Episode`` whose score also tallies every action played, weighted
    by its step, so a change in any action shows in ``mean_score``."""

    def step(self, action):
        out = super().step(action)
        self.score += 1e-6 * self.state.step * (1 + action.kind + 7 * action.x + 131 * action.y)
        return out


@pytest.mark.parametrize("eval_seed", [10_000, 77])
@pytest.mark.parametrize("variant", ["none", "subtask", "narration", "random"])
def test_evaluate_policy_equals_per_episode_reference(variant, eval_seed, tiny_mem, commands):
    params = A.AgentNet(np.random.default_rng(21)).get_flat()
    cfg = A.AgentConfig(
        variant=variant, horizon=120, eval_episodes=3, eval_seed=eval_seed, tau=2.0,
        env_factory=lambda seed: TallyEpisode(seed, 120),
    )
    row = A.evaluate_policy(params, cfg, tiny_mem, commands)
    assert row == reference_evaluate_policy(params, cfg, tiny_mem, commands)
    assert row["stderr_score"] > 0.0  # the episodes played apart


def test_evaluate_policy_bitwise_reproducible(commands):
    net = A.AgentNet(np.random.default_rng(11))
    cfg = A.AgentConfig(variant="none", horizon=80, eval_episodes=3)
    a = A.evaluate_policy(net.get_flat(), cfg)
    b = A.evaluate_policy(net.get_flat(), cfg)
    assert a == b


def test_config_rejects_unknown_variant():
    with pytest.raises(ValueError, match="variant"):
        A.AgentConfig(variant="ppo").validate()


@pytest.mark.parametrize("field", ["eval_interval", "eval_episodes"])
def test_train_rejects_zero_eval_setting_before_building_an_env(field):
    built = []
    cfg = A.AgentConfig(**{field: 0}, env_factory=built.append)
    with pytest.raises(ValueError, match=field):
        A.train(cfg)
    assert built == []


@pytest.mark.parametrize(
    "field, value",
    [("horizon", 0), ("horizon", -5), ("gamma", -0.01), ("gamma", 1.01), ("gamma", float("nan")),
     ("lr", 0.0), ("lr", -1e-4), ("lr", float("nan")), ("bonus", float("nan")), ("bonus", float("inf")),
     ("bonus", float("-inf")), ("value_coef", float("nan")), ("value_coef", float("inf")),
     ("entropy_coef", float("nan")), ("entropy_coef", float("-inf")),
     ("base_seed", -1), ("base_seed", 1.5), ("base_seed", True), ("base_seed", np.int64(-2)),
     ("eval_seed", -3), ("eval_seed", 2.0), ("eval_seed", "7"), ("eval_seed", None),
     ("rollout_len", 2.5), ("total_steps", 40.5), ("horizon", 8.5), ("workers", True), ("workers", 1.5),
     ("eval_episodes", 1.5), ("eval_interval", 10.5), ("lr", float("inf"))],
)
def test_config_rejects_bad_training_setting_before_building_an_env(field, value):
    built = []
    settings = {"workers": 1, "total_steps": 32, "eval_episodes": 1, field: value}
    cfg = A.AgentConfig(**settings, env_factory=built.append)
    with pytest.raises(ValueError, match=field):
        cfg.validate()
    with pytest.raises(ValueError, match=field):
        A.train(cfg)
    with pytest.raises(ValueError, match=field):
        A.evaluate_policy(A.AgentNet().get_flat(), cfg)
    assert built == []


def test_config_accepts_numpy_integer_seeds():
    A.AgentConfig(base_seed=np.int64(3), eval_seed=np.uint32(7)).validate()


@pytest.mark.parametrize("tau", [0.0, -0.5, float("nan")])
def test_narration_config_rejects_a_threshold_no_distance_passes(tau):
    # with tau = nan every distance test fails, so the run would be silently unshaped
    built = []
    cfg = A.AgentConfig(variant="narration", tau=tau, workers=1, total_steps=32, eval_episodes=1,
                        env_factory=built.append)
    with pytest.raises(ValueError, match="tau"):
        cfg.validate()
    with pytest.raises(ValueError, match="tau"):
        A.train(cfg)
    assert built == []


@pytest.mark.parametrize("no_commands", [None, []], ids=["none", "empty"])
@pytest.mark.parametrize("variant", ["narration", "subtask"])
def test_shaped_variant_without_commands_raises_before_any_step(variant, no_commands, tiny_mem):
    built = []
    cfg = A.AgentConfig(variant=variant, workers=1, total_steps=32, horizon=40, eval_episodes=1,
                        env_factory=built.append)
    with pytest.raises(ValueError, match="non-empty command list"):
        A.train(cfg, tiny_mem, no_commands)
    with pytest.raises(ValueError, match="non-empty command list"):
        A.evaluate_policy(A.AgentNet().get_flat(), cfg, tiny_mem, no_commands)
    assert built == []


def test_agent_net_save_load_round_trip(tmp_path):
    net = A.AgentNet(np.random.default_rng(4))
    path = tmp_path / "agent.bin"
    net.save(path)
    loaded = A.AgentNet.load(path)
    np.testing.assert_array_equal(loaded.get_flat(), net.get_flat())


def test_agent_net_load_rejects_a_file_with_four_heads(tmp_path):
    """A file of the four-head layout holds as many parameters, in another
    order; its spec tells it apart."""
    net = A.AgentNet(np.random.default_rng(4))
    spec = net.spec()
    heads = [{"kind": "dense", "n_in": A.HIDDEN, "n_out": n} for n in (E.N_ACTIONS, E.GRID, E.GRID, 1)]
    assert spec["modules"][-1] == {"kind": "dense", "n_in": A.HIDDEN, "n_out": sum(h["n_out"] for h in heads)}
    path = tmp_path / "agent.bin"
    save_model(path, {**spec, "modules": spec["modules"][:-1] + heads}, net.flat_params)
    with pytest.raises(ValueError, match="spec mismatch"):
        A.AgentNet.load(path)
