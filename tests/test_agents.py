from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from microbuild import agents as A
from microbuild import env as E
from microbuild import lexicon as L
from microbuild import mem as M
from microbuild.nn import flatten_arrays, grad_check_fn


@pytest.fixture(scope="module")
def tiny_mem():
    emb, _ = L.train_skipgram(L.load_bundled_corpus(), L.SkipgramConfig(epochs=5), seed=3)
    return M.MemModel(emb, np.random.default_rng(1))


@pytest.fixture(scope="module")
def commands():
    return M.load_commands()


def zeroed_net(dtype=np.float32) -> A.AgentNet:
    net = A.AgentNet(dtype=dtype)
    for arr in net.param_arrays():
        arr[...] = 0.0
    return net


def make_rollout(net, n_steps, seed=0, rewards=None, kinds=None, dtype=np.float32):
    """Roll random observations through a net to build a consistent rollout."""
    rng = np.random.default_rng(seed)
    sp = (rng.random((n_steps, 14, 16, 16)) < 0.1).astype(dtype)
    ns = rng.random((n_steps, 10)).astype(dtype)
    aux = np.zeros((n_steps, A.AUX_DIM), dtype=dtype)
    masks = np.ones((n_steps, 6), dtype=bool)
    if kinds is None:
        kinds = rng.integers(0, 6, size=n_steps)
    xs = rng.integers(0, 16, size=n_steps)
    ys = rng.integers(0, 16, size=n_steps)
    if rewards is None:
        rewards = rng.random(n_steps).astype(np.float32)
    h0, c0 = net.zero_state()
    # values from the net itself so advantages are consistent
    values = np.zeros(n_steps, dtype=np.float32)
    h, c = h0.copy(), c0.copy()
    for t in range(n_steps):
        obs = E.Observation(spatial=sp[t], nonspatial=ns[t])
        values[t] = net.value_of(obs, aux[t], h, c)
        x = net._features(sp[t : t + 1], ns[t : t + 1], aux[t : t + 1])
        h, c = net.core.step(x, h, c, cache=False)
    return A.Rollout(
        spatial=sp,
        nonspatial=ns,
        aux=aux,
        masks=masks,
        kinds=np.asarray(kinds),
        xs=xs,
        ys=ys,
        rewards=np.asarray(rewards, dtype=np.float32),
        values=values,
        bootstrap=0.0,
        h0=h0,
        c0=c0,
    )


# ----------------------------------------------------------------- returns


def test_returns_gamma_zero_is_rewards():
    r = np.array([1.0, 0.5, 2.0])
    returns, _ = A.compute_returns(r, bootstrap=7.0, gamma=0.0)
    np.testing.assert_allclose(returns, r)


def test_returns_all_zero_terminal():
    returns, adv = A.compute_returns(np.zeros(4), 0.0, 0.99, values=np.array([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_allclose(returns, np.zeros(4))
    np.testing.assert_allclose(adv, [-1.0, -2.0, -3.0, -4.0])


def test_returns_hand_case_matches_recurrence_oracle():
    # brute-force oracle: acc = v_boot; acc = r[i] + gamma * acc walking back
    returns, _ = A.compute_returns(np.array([1.0, 0.0, 2.0]), bootstrap=1.0, gamma=0.5)
    np.testing.assert_allclose(returns, [1.625, 1.25, 2.5])


# ---------------------------------------------------------------- act head


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


def test_act_uniform_over_legal_for_zero_net():
    net = zeroed_net()
    s = E.reset(0)
    obs = E.encode_observation(None, s)
    mask = E.legal_actions(s)  # NoOp + SelectWorker
    rng = np.random.default_rng(42)
    h, c = net.zero_state()
    counts = Counter()
    for _ in range(10_000):
        action, _, _, _ = net.act(obs, np.zeros(A.AUX_DIM, dtype=np.float32), h, c, mask, rng)
        counts[action.kind] += 1
    assert set(counts) == {E.A_NOOP, E.A_SELECT_WORKER}
    # chi-square against uniform: df=1, comfortably under the 0.001 cutoff
    chi2 = sum((counts[k] - 5000.0) ** 2 / 5000.0 for k in counts)
    assert chi2 < 10.8


def test_act_noop_logp_excludes_spatial_heads():
    net = zeroed_net()
    s = E.reset(0)
    obs = E.encode_observation(None, s)
    mask = E.legal_actions(s)
    rng = np.random.default_rng(1)
    h, c = net.zero_state()
    for _ in range(20):
        action, logp, _, _ = net.act(obs, np.zeros(A.AUX_DIM, dtype=np.float32), h, c, mask, rng)
        if action.kind not in (E.A_BUILD_DEPOT, E.A_BUILD_BARRACKS):
            # two legal actions, uniform: logp must be exactly log(1/2)
            assert logp == pytest.approx(np.log(0.5), abs=1e-6)


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
            action, logp, value, (h, c) = net.act(obs, np.zeros(A.AUX_DIM, dtype=np.float32), h, c, mask, rng)
            out.append((action, logp, value))
        return out

    assert stream(9) == stream(9)


# -------------------------------------------------------------------- loss


def test_a3c_loss_zero_advantage_leaves_only_entropy():
    net = zeroed_net()
    # zero rewards, zero bootstrap, zero values -> advantages 0, value loss 0
    roll = make_rollout(net, 5, seed=2, rewards=np.zeros(5), kinds=[0, 1, 4, 5, 0])
    cfg = A.AgentConfig(entropy_coef=0.01, value_coef=0.5)
    loss, _ = A.a3c_loss(roll, net, cfg)
    expected = -cfg.entropy_coef * 5 * np.log(6.0)  # uniform over 6 legal ids
    assert loss == pytest.approx(expected, rel=1e-5)
    assert loss < 0


def test_a3c_loss_entropy_bounded_per_step():
    net = A.AgentNet(np.random.default_rng(5))
    roll = make_rollout(net, 6, seed=3, kinds=[2, 3, 0, 2, 5, 1])
    cfg = A.AgentConfig(entropy_coef=1.0, value_coef=0.0)
    # with c_e=1 and zero advantages/values the loss is -sum(entropies);
    # bound per step: log 6 + 2 log 16
    roll = A.Rollout(**{**roll.__dict__, "rewards": np.zeros(6, dtype=np.float32), "values": np.zeros(6, dtype=np.float32)})
    loss, _ = A.a3c_loss(roll, net, cfg)
    max_h = 6 * (np.log(6) + 2 * np.log(16))
    assert -loss <= max_h + 1e-6


def test_a3c_loss_gradients_match_finite_differences():
    net = A.AgentNet(np.random.default_rng(7), dtype=np.float64)
    roll = make_rollout(net, 2, seed=11, kinds=[2, 5], dtype=np.float64)  # build + train heads
    cfg = A.AgentConfig()

    def loss_fn():
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


def reference_a3c_loss(rollout, net, config):
    """a3c_loss with its heads walked one timestep at a time, each head's
    log-softmax taken over its legal entries only."""

    def log_softmax(z):
        z = z - z.max()
        return z - np.log(np.exp(z).sum())

    returns, advantages = A.compute_returns(rollout.rewards, rollout.bootstrap, config.gamma, rollout.values)
    net.zero_grads()
    feats = net._features(rollout.spatial, rollout.nonspatial, rollout.aux)
    h, c = rollout.h0.copy(), rollout.c0.copy()
    net.core.reset_cache()
    hs = []
    for t in range(len(rollout)):
        h, c = net.core.step(feats[t : t + 1], h, c, cache=True)
        hs.append(h[0])
    hs = np.stack(hs)
    heads = (net.head_action, net.head_x, net.head_y)
    logits = [head.forward(hs) for head in heads]
    values = net.head_value.forward(hs)[:, 0]
    gouts = [np.zeros_like(z) for z in logits]
    loss = 0.0
    c_v, c_e = config.value_coef, config.entropy_coef
    for t in range(len(rollout)):
        adv, ret = float(advantages[t]), float(returns[t])
        used = [(0, np.flatnonzero(rollout.masks[t]), int(rollout.kinds[t]))]
        if rollout.kinds[t] in E.BUILD_KINDS:
            used += [(1, np.arange(E.GRID), int(rollout.xs[t])), (2, np.arange(E.GRID), int(rollout.ys[t]))]
        for k, legal, chosen in used:
            logp = log_softmax(logits[k][t][legal])
            p = np.exp(logp)
            ent = float(-(p * logp).sum())
            loss += -adv * float(logp[legal == chosen][0]) - c_e * ent
            g = adv * p
            g[legal == chosen] -= adv
            g += c_e * p * (logp + ent)
            gouts[k][t][legal] += g
        verr = float(values[t]) - ret
        loss += c_v * verr * verr
    g_v = (2.0 * c_v * (values.astype(np.float64) - returns)).astype(net.dtype)[:, None]
    gh = net.head_action.backward(gouts[0])
    gh += net.head_x.backward(gouts[1])
    gh += net.head_y.backward(gouts[2])
    gh += net.head_value.backward(g_v)
    net._backward_features(net.core.backward_seq(gh[:, None])[:, 0])
    return loss, flatten_arrays(net.grad_arrays())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kinds", ["all-build", "no-build", "mixed"])
@pytest.mark.parametrize("n_steps", [1, 5, 32])
def test_a3c_loss_bitwise_equals_per_step_reference(n_steps, kinds, dtype):
    r = np.random.default_rng(n_steps)
    kind_choices = {"all-build": E.BUILD_KINDS, "no-build": (0, 1, 4, 5), "mixed": range(E.N_ACTIONS)}
    chosen = r.choice(list(kind_choices[kinds]), size=n_steps)
    net = A.AgentNet(np.random.default_rng(17), dtype=dtype)
    roll = make_rollout(net, n_steps, seed=n_steps, kinds=chosen, dtype=dtype)
    masks = r.random((n_steps, E.N_ACTIONS)) < 0.6
    masks[:, E.A_NOOP] = True
    masks[np.arange(n_steps), chosen] = True
    rewards = (3.0 * r.standard_normal(n_steps)).astype(np.float32)
    roll = A.Rollout(**{**roll.__dict__, "masks": masks, "rewards": rewards, "bootstrap": 0.7})
    cfg = A.AgentConfig(entropy_coef=0.3)
    loss, grads = A.a3c_loss(roll, net, cfg)
    want_loss, want_grads = reference_a3c_loss(roll, net, cfg)
    assert loss == want_loss
    assert grads.tobytes() == want_grads.tobytes()


def test_a3c_loss_nan_detected():
    net = zeroed_net()
    roll = make_rollout(net, 3, seed=2)
    net.head_value.weight[...] = np.nan
    with pytest.raises(FloatingPointError):
        A.a3c_loss(roll, net, A.AgentConfig())


# ----------------------------------------------------------------- tracker


def test_tracker_cycles_and_counts(commands):
    tr = A.InstructionTracker(commands, bonus=1.0)
    for expected in (0, 1, 2, 3, 4, 0):
        assert tr.current().id == expected
        assert tr.advance() == 1.0
    assert tr.pointer == 1
    assert tr.completions == 6


def test_subtask_wrong_order_event_ignored(commands):
    tr = A.InstructionTracker(commands, bonus=1.0)
    tr.pointer = 1  # waiting on build-depot
    bonus = A.shape_subtask(frozenset({E.EV_TRAIN_MARINE}), tr)
    assert bonus == 0.0 and tr.pointer == 1 and tr.completions == 0


def test_subtask_empty_events_no_change(commands):
    tr = A.InstructionTracker(commands, bonus=1.0)
    assert A.shape_subtask(frozenset(), tr) == 0.0
    assert tr.pointer == 0


def test_subtask_expert_episode_completes_all_commands_in_order(commands):
    tr = A.InstructionTracker(commands, bonus=1.0)
    s = E.reset(0)
    seen = []
    while s.step < s.horizon:
        prev = s
        s, _, _ = E.step(s, E.scripted_expert(s))
        before = tr.pointer
        if A.shape_subtask(E.detect(prev, s), tr) > 0:
            seen.append(before)
    assert tr.completions >= 5
    assert seen[:5] == [0, 1, 2, 3, 4]


def test_narration_far_observation_no_advance(tiny_mem, commands):
    tr = A.InstructionTracker(commands, bonus=1.0)
    far_vecs = np.full((5, M.EMBED_DIM), 10.0, dtype=np.float32)
    obs = E.encode_observation(None, E.reset(0))
    state_vec = tiny_mem.encode_state(obs)
    bonus = A.shape_narration(state_vec, tr, tau=0.5, command_vecs=far_vecs)
    assert bonus == 0.0 and tr.pointer == 0


def test_narration_wraps_after_last_command(commands):
    tr = A.InstructionTracker(commands, bonus=2.0)
    tr.pointer = 4
    near_vecs = np.zeros((5, M.EMBED_DIM), dtype=np.float32)
    state_vec = np.zeros(M.EMBED_DIM, dtype=np.float32)
    bonus = A.shape_narration(state_vec, tr, tau=0.5, command_vecs=near_vecs)
    assert bonus == 2.0 and tr.pointer == 0


# ------------------------------------------------------------ shared state


def test_shared_params_version_counts_updates():
    cfg = A.AgentConfig(total_steps=10_000, eval_interval=1_000_000, lr=1e-3)
    shared = A.SharedParams(np.zeros(10, dtype=np.float32), cfg)
    g = np.ones(10, dtype=np.float32)
    for i in range(7):
        shared.apply_gradients(g, n_steps=32)
    assert shared.version == 7
    assert shared.steps == 7 * 32


def test_shared_params_eval_boundaries():
    cfg = A.AgentConfig(total_steps=300, eval_interval=100)
    shared = A.SharedParams(np.zeros(3, dtype=np.float32), cfg)
    crossed = shared.apply_gradients(np.ones(3, dtype=np.float32), n_steps=150)
    assert crossed == [100]
    crossed = shared.apply_gradients(np.ones(3, dtype=np.float32), n_steps=150)
    assert crossed == [200, 300]


def test_shared_params_snapshot_consistent():
    cfg = A.AgentConfig(total_steps=100, eval_interval=1000)
    shared = A.SharedParams(np.arange(4, dtype=np.float32), cfg)
    params, version = shared.snapshot()
    np.testing.assert_array_equal(params, np.arange(4, dtype=np.float32))
    assert version == 0


# -------------------------------------------------------------- worker loop


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


def test_worker_loop_b0_shaped_equals_env_reward(commands):
    cfg = A.AgentConfig(
        variant="subtask", workers=1, total_steps=2_000, rollout_len=16, bonus=0.0,
        base_seed=5, horizon=120, eval_interval=10**9, lr=1e-3,
    )
    shared = A.SharedParams(A.AgentNet(np.random.default_rng(5)).get_flat(), cfg)
    records = [r for r in A.worker_loop(shared, cfg, 0, None, commands) if isinstance(r, A.RunRecord)]
    assert records
    for rec in records:
        assert rec.shaped_return == rec.env_score


def test_worker_loop_narration_b0_matches_env_reward(tiny_mem, commands):
    cfg = A.AgentConfig(
        variant="narration", workers=1, total_steps=1_000, rollout_len=16, bonus=0.0,
        base_seed=5, horizon=100, eval_interval=10**9, lr=1e-3,
    )
    shared = A.SharedParams(A.AgentNet(np.random.default_rng(5)).get_flat(), cfg)
    records = [r for r in A.worker_loop(shared, cfg, 0, tiny_mem, commands) if isinstance(r, A.RunRecord)]
    assert records
    for rec in records:
        assert rec.shaped_return == rec.env_score


def test_worker_loop_deterministic_single_worker(commands):
    def run():
        cfg = A.AgentConfig(
            variant="none", workers=1, total_steps=1_500, rollout_len=16,
            base_seed=3, horizon=100, eval_interval=500, lr=1e-3,
        )
        shared = A.SharedParams(A.AgentNet(np.random.default_rng(3)).get_flat(), cfg)
        items = list(A.worker_loop(shared, cfg, 0, None, None))
        params, version = shared.snapshot()
        return items, params.tobytes(), version

    a_items, a_params, a_version = run()
    b_items, b_params, b_version = run()
    assert a_params == b_params and a_version == b_version
    assert [r for r in a_items if isinstance(r, A.RunRecord)] == [
        r for r in b_items if isinstance(r, A.RunRecord)
    ]


def test_value_head_learns_constant_reward_stream():
    # 1/(1 - gamma) fixed point on a single-action constant-reward env, from
    # three initial networks; lr=0.01 settles every one within 0.5% of it
    target = 1.0 / (1.0 - 0.9)
    for seed in (0, 1, 2):
        cfg = A.AgentConfig(
            variant="none", workers=1, total_steps=10_000, rollout_len=32,
            gamma=0.9, lr=0.01, entropy_coef=0.0, base_seed=seed,
            eval_interval=10**9, env_factory=lambda _: ConstantRewardEnv(),
        )
        shared = A.SharedParams(A.AgentNet(np.random.default_rng(seed)).get_flat(), cfg)
        for _ in A.worker_loop(shared, cfg, 0, None, None):
            pass
        net = A.AgentNet()
        net.set_flat(shared.snapshot()[0])
        env = ConstantRewardEnv()
        obs = env.observe()
        h, c = net.zero_state()
        rng = np.random.default_rng(0)
        for _ in range(20):  # settle the recurrent state
            _, _, value, (h, c) = net.act(obs, np.zeros(A.AUX_DIM, dtype=np.float32), h, c, env.legal_mask(), rng)
        assert value == pytest.approx(target, rel=0.05), f"seed {seed}"


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


MULTI_WORKER = dict(
    variant="subtask", workers=3, total_steps=3_000, rollout_len=16,
    base_seed=2, horizon=80, eval_interval=1500, eval_episodes=2, lr=1e-3,
)


def test_train_multi_worker_smoke(commands):
    result = A.train(A.AgentConfig(**MULTI_WORKER), None, commands)
    # every turn is a full 16-step rollout: 188 turns reach 3008 >= 3000 steps
    assert result.version == 188
    assert [row["step"] for row in result.eval_rows] == [0, 1500, 3000]
    assert [row["version"] for row in result.eval_rows] == [0, 94, 188]
    # turns go 0, 1, 2, 0, ...; worker w ends episode e (5 turns of 80 steps)
    # on its turn 5e + 4, global turn 15e + 12 + w
    assert [(r.worker, r.episode, r.step) for r in result.records] == [
        (w, e, 16 * (15 * e + 13 + w)) for e in range(12) for w in range(3)
    ]


def test_train_multi_worker_bitwise_reproducible(commands):
    a, b = (A.train(A.AgentConfig(**MULTI_WORKER), None, commands) for _ in range(2))
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
    with pytest.raises(RuntimeError, match="worker failed"):
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


def test_train_random_variant_matches_uniform_baseline():
    cfg = A.AgentConfig(variant="random", workers=1, total_steps=1, horizon=80, eval_episodes=4)
    a = A.train(cfg)
    b = A.train(cfg)
    assert a.eval_rows == b.eval_rows
    assert a.eval_rows[0]["mean_score"] >= 0.0


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


def test_agent_net_save_load_round_trip(tmp_path):
    net = A.AgentNet(np.random.default_rng(4))
    path = tmp_path / "agent.bin"
    net.save(path)
    loaded = A.AgentNet.load(path)
    np.testing.assert_array_equal(loaded.get_flat(), net.get_flat())
