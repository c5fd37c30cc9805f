"""Advantage actor-critic over MicroBuild, three ways.

One network architecture serves three agents: narration-guided (embedding
distance grants the shaping bonus, and the state/command embeddings enter
the network as auxiliary features), subtask (detector events grant the
same bonus, no auxiliary features), and an unshaped baseline. Each worker
owns a private environment and network replica; the only shared object is
the parameter block, read by snapshot and written by an Adam update. The
workers take turns on one thread in a fixed order, one rollout and update
per turn, so a run is bitwise reproducible at any worker count, and a
worker that raises stops the run at once.

An instruction tracker holds the ordered command list with a progress
pointer: satisfying the current instruction grants the bonus and advances
the pointer, cycling back to the first instruction after the last.
``EpisodeShaping`` is the one place a variant's bonus and aux features
are computed, for training (``worker_loop``) and evaluation alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import env as E
from .mem import NONSPATIAL_HIDDEN, CommandSpec, MemModel, mem_distance
from .nn import (
    AdamState,
    Dense,
    LSTM,
    Model,
    ReLU,
    Sequential,
    StateEncoder,
    adam_step,
    flatten_arrays,
    load_model,
    save_model,
)

VARIANTS = ("narration", "subtask", "none", "random")
AUX_DIM = 128  # state embedding + command embedding
HIDDEN = 128


@dataclass
class AgentConfig:
    variant: str = "none"
    workers: int = 8
    total_steps: int = 2_000_000
    rollout_len: int = 32
    gamma: float = 0.99
    lr: float = 1e-4
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    grad_clip: float = 40.0
    bonus: float = 1.0
    tau: float = 0.5
    base_seed: int = 0
    horizon: int = E.HORIZON
    eval_interval: int = 50_000
    eval_episodes: int = 20
    eval_seed: int = 10_000
    env_factory: Callable[[int], object] | None = None  # tests can stub the env

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r} (expected one of {VARIANTS})")
        if self.variant == "narration" and self.tau <= 0:
            raise ValueError("narration shaping needs a positive distance threshold")
        if self.workers < 1 or self.rollout_len < 1 or self.total_steps < 1:
            raise ValueError("workers, rollout_len and total_steps must be positive")
        if self.eval_interval < 1 or self.eval_episodes < 1:
            raise ValueError("eval_interval and eval_episodes must be positive")

    def make_env(self, seed: int):
        factory = self.env_factory or (lambda s: E.Episode(s, self.horizon))
        return factory(seed)


class AgentNet(Model):
    """State encoder + dense trunk + LSTM core with action-id, x, y and value heads."""

    def __init__(self, rng: np.random.Generator | None = None, dtype=np.float32):
        if rng is None:
            rng = np.random.default_rng(0)
        self.dtype = dtype
        self.encoder = StateEncoder(E.OBS_CHANNELS, E.GRID, E.OBS_NONSPATIAL, NONSPATIAL_HIDDEN, rng, dtype)
        self.trunk = Sequential([Dense(self.encoder.out_dim + AUX_DIM, HIDDEN, rng, dtype=dtype), ReLU()])
        self.core = LSTM(HIDDEN, HIDDEN, rng, dtype=dtype)
        self.head_action = Dense(HIDDEN, E.N_ACTIONS, rng, dtype=dtype)
        self.head_x = Dense(HIDDEN, E.GRID, rng, dtype=dtype)
        self.head_y = Dense(HIDDEN, E.GRID, rng, dtype=dtype)
        self.head_value = Dense(HIDDEN, 1, rng, dtype=dtype)
        self.layers = [
            *self.encoder.layers,
            self.trunk,
            self.core,
            self.head_action,
            self.head_x,
            self.head_y,
            self.head_value,
        ]

    def spec(self) -> dict:
        return {"kind": "agent-net", "modules": [m.spec() for m in self.layers]}

    def save(self, path) -> None:
        save_model(path, self.spec(), self.param_arrays())

    @classmethod
    def load(cls, path) -> "AgentNet":
        net = cls()
        spec, flat = load_model(path, expected_spec=net.spec())
        net.set_flat(flat)
        return net

    def zero_state(self) -> tuple[np.ndarray, np.ndarray]:
        return self.core.zero_state(1, dtype=self.dtype)

    # ------------------------------------------------------------ forward

    def _features(self, spatial: np.ndarray, nonspatial: np.ndarray, aux: np.ndarray) -> np.ndarray:
        return self.trunk.forward(self.encoder.forward(spatial, nonspatial, aux))

    def _backward_features(self, g: np.ndarray) -> None:
        self.encoder.backward(self.trunk.backward(g))

    def act(
        self,
        obs: E.Observation,
        aux: np.ndarray,
        h: np.ndarray,
        c: np.ndarray,
        legal_mask: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[E.Action, float, float, tuple[np.ndarray, np.ndarray]]:
        """Sample one action; spatial heads only participate for builds."""
        x = self._features(obs.spatial[None], obs.nonspatial[None], aux[None])
        h, c = self.core.step(x, h, c, cache=False)
        logits = self.head_action.forward(h)[0]
        value = float(self.head_value.forward(h)[0, 0])
        logp_id = masked_log_softmax(logits, legal_mask)
        kind = sample_from_logp(logp_id, rng)
        logp = float(logp_id[kind])
        if kind in E.BUILD_KINDS:
            logp_x = masked_log_softmax(self.head_x.forward(h)[0], None)
            logp_y = masked_log_softmax(self.head_y.forward(h)[0], None)
            ax = sample_from_logp(logp_x, rng)
            ay = sample_from_logp(logp_y, rng)
            logp += float(logp_x[ax]) + float(logp_y[ay])
            action = E.Action(kind, x=ax, y=ay)
        else:
            action = E.Action(kind)
        return action, logp, value, (h, c)

    def value_of(self, obs: E.Observation, aux: np.ndarray, h: np.ndarray, c: np.ndarray) -> float:
        x = self._features(obs.spatial[None], obs.nonspatial[None], aux[None])
        h, _ = self.core.step(x, h, c, cache=False)
        return float(self.head_value.forward(h)[0, 0])


def masked_log_softmax(logits: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Log-probabilities over the last axis of (..., n) logits; entries where
    ``mask`` is False get zero mass (-inf logp). Each row is computed as if alone."""
    if mask is not None:
        logits = np.where(mask, logits, -np.inf)
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def sample_from_logp(logp: np.ndarray, rng: np.random.Generator) -> int:
    p = np.exp(logp)
    p /= p.sum()
    return min(int(np.searchsorted(np.cumsum(p), rng.random(), side="right")), p.size - 1)


# ---------------------------------------------------------------- rollouts


@dataclass
class Rollout:
    """Fixed-length (or terminal-truncated) trajectory segment."""

    spatial: np.ndarray  # (T, 14, 16, 16)
    nonspatial: np.ndarray  # (T, 10)
    aux: np.ndarray  # (T, AUX_DIM)
    masks: np.ndarray  # (T, 6) bool
    kinds: np.ndarray  # (T,)
    xs: np.ndarray  # (T,)
    ys: np.ndarray  # (T,)
    rewards: np.ndarray  # (T,) shaped rewards actually optimized
    values: np.ndarray  # (T,) V(s_t) at collection time
    bootstrap: float  # V(s_T), 0 when terminal
    h0: np.ndarray
    c0: np.ndarray

    def __len__(self) -> int:
        return int(self.kinds.shape[0])


def compute_returns(
    rewards: np.ndarray, bootstrap: float, gamma: float = 0.99, values: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """n-step bootstrapped returns, plus advantages when values are given."""
    t = rewards.shape[0]
    returns = np.empty(t, dtype=np.float64)
    acc = float(bootstrap)
    for i in range(t - 1, -1, -1):
        acc = float(rewards[i]) + gamma * acc
        returns[i] = acc
    if values is None:
        return returns, None
    return returns, returns - values.astype(np.float64)


def _policy_head(
    logits: np.ndarray, mask: np.ndarray | None, chosen: np.ndarray, adv: np.ndarray, c_e: float
) -> tuple[np.ndarray, np.ndarray]:
    """One head's policy and entropy terms over its (R, n) rows.

    Returns each row's loss term, ``-adv * logp[chosen] - c_e * entropy`` in
    float64, and the gradient of their sum with respect to the logits; the
    entropy and its gradient cover only the legal entries.
    """
    logp = masked_log_softmax(logits, mask)
    legal = np.ones(logits.shape, bool) if mask is None else mask
    rows = np.arange(logits.shape[0])
    p = np.exp(logp)
    logp_legal = np.where(legal, logp, 0)  # 0 * -inf would be nan
    ent = -(p * logp_legal).sum(axis=1)
    terms = -adv * logp[rows, chosen].astype(np.float64) - c_e * ent.astype(np.float64)
    adv_row = adv.astype(logits.dtype)[:, None]
    g = adv_row * p
    g[rows, chosen] -= adv_row[:, 0]
    g += c_e * p * (logp_legal + ent[:, None])
    gout = np.zeros_like(logits)
    np.add(gout, g, out=gout, where=legal)
    return terms, gout


def a3c_loss(rollout: Rollout, net: AgentNet, config: AgentConfig) -> tuple[float, np.ndarray]:
    """Policy gradient + value regression + entropy bonus over one rollout.

    Re-runs the forward pass (batched trunk, sequential LSTM), then
    backpropagates through time. Advantages are constants in the policy
    term; entropy covers only the heads actually used at each step: the
    action-id head at every step, the x and y heads at build steps. The
    loss sums the terms in timestep order (id, x, y, value).
    """
    t_len = len(rollout)
    returns, advantages = compute_returns(
        rollout.rewards, rollout.bootstrap, config.gamma, rollout.values
    )
    net.zero_grads()
    feats = net._features(rollout.spatial, rollout.nonspatial, rollout.aux)  # (T, HIDDEN)
    h, c = rollout.h0.copy(), rollout.c0.copy()
    net.core.reset_cache()
    hs = np.empty((t_len, HIDDEN), dtype=net.dtype)
    for t in range(t_len):
        h, c = net.core.step(feats[t : t + 1], h, c, cache=True)
        hs[t] = h[0]
    logits_id = net.head_action.forward(hs)
    logits_x = net.head_x.forward(hs)
    logits_y = net.head_y.forward(hs)
    values = net.head_value.forward(hs)[:, 0]

    c_v, c_e = config.value_coef, config.entropy_coef
    build = np.isin(rollout.kinds, E.BUILD_KINDS)
    terms = np.empty((t_len, 4))  # id, x, y, value
    terms[:, 0], g_id = _policy_head(logits_id, rollout.masks, rollout.kinds, advantages, c_e)
    g_x = np.zeros_like(logits_x)
    g_y = np.zeros_like(logits_y)
    adv_b = advantages[build]
    terms[build, 1], g_x[build] = _policy_head(logits_x[build], None, rollout.xs[build], adv_b, c_e)
    terms[build, 2], g_y[build] = _policy_head(logits_y[build], None, rollout.ys[build], adv_b, c_e)
    verr = values.astype(np.float64) - returns
    terms[:, 3] = c_v * verr * verr
    used = np.ones((t_len, 4), bool)
    used[:, 1:3] = build[:, None]
    loss = float(np.cumsum(terms[used])[-1])  # sequential, like a per-step running sum
    if not np.isfinite(loss):
        bad = [t for t in range(t_len) if not np.isfinite(values[t])]
        raise FloatingPointError(f"non-finite loss in rollout (suspect timesteps {bad[:4]})")

    g_v = (2.0 * c_v * verr).astype(net.dtype)[:, None]
    gh = net.head_action.backward(g_id)
    gh += net.head_x.backward(g_x)
    gh += net.head_y.backward(g_y)
    gh += net.head_value.backward(g_v)
    net._backward_features(net.core.backward_seq(gh[:, None])[:, 0])
    return loss, flatten_arrays(net.grad_arrays())


# ---------------------------------------------------------------- shaping


@dataclass
class InstructionTracker:
    """Ordered command list with a cyclic progress pointer."""

    commands: list[CommandSpec]
    bonus: float = 1.0
    pointer: int = 0
    completions: int = 0

    def reset(self) -> None:
        self.pointer = 0
        self.completions = 0

    def current(self) -> CommandSpec:
        return self.commands[self.pointer]

    def advance(self) -> float:
        self.completions += 1
        self.pointer = (self.pointer + 1) % len(self.commands)
        return self.bonus


def shape_narration(
    state_vec: np.ndarray,
    tracker: InstructionTracker,
    tau: float,
    command_vecs: np.ndarray,
) -> float:
    """Bonus iff the current instruction's embedding is within tau."""
    if mem_distance(state_vec, command_vecs[tracker.pointer]) < tau:
        return tracker.advance()
    return 0.0


def shape_subtask(events: frozenset[int], tracker: InstructionTracker) -> float:
    """Bonus iff a detector event matches the current instruction."""
    if tracker.current().id in events:
        return tracker.advance()
    return 0.0


class EpisodeShaping:
    """One variant's shaping for the episode in play: bonus and aux features.

    The narration variant judges the current instruction by embedding
    distance on a private copy of the MEM and feeds the state and command
    embeddings to the agent as aux features; the subtask variant judges it
    by the env's detectors; ``none`` and ``random`` get no bonus and zero
    aux features. Training and evaluation both shape through this object.
    """

    def __init__(self, config: AgentConfig, mem: MemModel | None, commands: list[CommandSpec] | None):
        self.narration = config.variant == "narration"
        self.tau = config.tau
        self.tracker = None
        if config.variant in ("narration", "subtask"):
            self.tracker = InstructionTracker(commands, bonus=config.bonus)
        if self.narration:
            if mem is None or commands is None:
                raise ValueError("narration variant needs a trained embedding model and commands")
            self.mem = mem.copy()
            self.command_vecs = np.stack([self.mem.encode_command(c) for c in commands])
        self._zero_aux = np.zeros(AUX_DIM, dtype=np.float32)

    def start(self, obs: E.Observation) -> None:
        """Begin an episode at its first observation."""
        if self.tracker:
            self.tracker.reset()
        if self.narration:
            self.state_vec = self.mem.encode_state(obs)

    def aux(self) -> np.ndarray:
        """The agent's aux input for the current observation."""
        if not self.narration:
            return self._zero_aux
        return np.concatenate([self.state_vec, self.command_vecs[self.tracker.pointer]]).astype(np.float32)

    def bonus(self, obs: E.Observation, events: frozenset[int]) -> float:
        """Shaping bonus for the step that led to ``obs`` with detector ``events``."""
        if self.narration:
            # satisfaction judged on the post-action observation
            self.state_vec = self.mem.encode_state(obs)
            return shape_narration(self.state_vec, self.tracker, self.tau, self.command_vecs)
        if self.tracker:
            return shape_subtask(events, self.tracker)
        return 0.0

    @property
    def completions(self) -> int:
        return self.tracker.completions if self.tracker else 0


# ------------------------------------------------------------ shared state


class SharedParams:
    """Global parameter block the workers take turns on: each turn reads a
    snapshot and applies one clipped Adam update."""

    def __init__(self, init_params: np.ndarray, config: AgentConfig):
        self._params = init_params.astype(np.float32).copy()
        self._adam = AdamState(self._params.size, lr=config.lr)
        self._clip = config.grad_clip
        self._eval_interval = config.eval_interval
        self.version = 0
        self.steps = 0
        self.total_steps = config.total_steps

    def snapshot(self) -> tuple[np.ndarray, int]:
        return self._params.copy(), self.version

    def should_stop(self) -> bool:
        return self.steps >= self.total_steps

    def apply_gradients(self, grads: np.ndarray, n_steps: int) -> list[int]:
        """Returns the eval boundaries (step multiples) this update crossed."""
        norm = float(np.linalg.norm(grads))
        if self._clip and norm > self._clip:
            grads = grads * (self._clip / norm)
        adam_step(self._params, grads, self._adam)
        self.version += 1
        before = self.steps
        self.steps = before + n_steps
        first = (before // self._eval_interval + 1) * self._eval_interval
        return list(range(first, self.steps + 1, self._eval_interval))


# ----------------------------------------------------------------- records


@dataclass
class RunRecord:
    step: int
    worker: int
    episode: int
    env_score: float
    shaped_return: float
    instr_completions: int
    variant: str
    seed: int


@dataclass
class EvalPoint:
    step: int
    params: np.ndarray
    version: int


def worker_loop(
    shared: SharedParams,
    config: AgentConfig,
    worker_id: int,
    mem: MemModel | None = None,
    commands: list[CommandSpec] | None = None,
) -> Iterator[RunRecord | EvalPoint | None]:
    """One worker, one turn per update: snapshot, roll out, push gradients.

    Each turn yields an EvalPoint for every evaluation boundary its update
    crossed, a RunRecord if its episode ended, then None to hand the
    thread to the next worker. The loop ends once the step budget is spent.
    """
    config.validate()
    shaping = EpisodeShaping(config, mem, commands)
    rng = np.random.default_rng(np.random.SeedSequence((config.base_seed, worker_id)))
    net = AgentNet()
    t_len = config.rollout_len

    def new_episode(idx: int):
        env = config.make_env(config.base_seed + worker_id * 1_000_003 + idx)
        obs = env.observe()
        shaping.start(obs)
        return env, obs

    episode_idx = 0
    env, obs = new_episode(episode_idx)
    h, c = net.zero_state()
    shaped_return = 0.0
    while not shared.should_stop():
        params, _ = shared.snapshot()
        net.set_flat(params)
        sp = np.empty((t_len, E.OBS_CHANNELS, E.GRID, E.GRID), dtype=np.float32)
        ns = np.empty((t_len, E.OBS_NONSPATIAL), dtype=np.float32)
        aux = np.empty((t_len, AUX_DIM), dtype=np.float32)
        masks = np.empty((t_len, E.N_ACTIONS), dtype=bool)
        kinds = np.empty(t_len, dtype=np.int64)
        axs = np.empty(t_len, dtype=np.int64)
        ays = np.empty(t_len, dtype=np.int64)
        rewards = np.empty(t_len, dtype=np.float32)
        values = np.empty(t_len, dtype=np.float32)
        h0, c0 = h.copy(), c.copy()
        done = False
        t = 0
        while t < t_len:
            aux_t = shaping.aux()
            mask = env.legal_mask()
            action, _, value, (h, c) = net.act(obs, aux_t, h, c, mask, rng)
            next_obs, env_r, done, events = env.step(action)
            reward = env_r + shaping.bonus(next_obs, events)
            sp[t], ns[t], aux[t] = obs.spatial, obs.nonspatial, aux_t
            masks[t], kinds[t], axs[t], ays[t] = mask, action.kind, action.x, action.y
            rewards[t], values[t] = reward, value
            shaped_return += reward
            obs = next_obs
            t += 1
            if done:
                break
        bootstrap = 0.0 if done else net.value_of(obs, shaping.aux(), h, c)
        rollout = Rollout(
            spatial=sp[:t],
            nonspatial=ns[:t],
            aux=aux[:t],
            masks=masks[:t],
            kinds=kinds[:t],
            xs=axs[:t],
            ys=ays[:t],
            rewards=rewards[:t],
            values=values[:t],
            bootstrap=bootstrap,
            h0=h0,
            c0=c0,
        )
        _, grads = a3c_loss(rollout, net, config)
        crossed = shared.apply_gradients(grads, t)
        for boundary in crossed:
            params_now, version = shared.snapshot()
            yield EvalPoint(step=boundary, params=params_now, version=version)
        if done:
            yield RunRecord(
                step=shared.steps,
                worker=worker_id,
                episode=episode_idx,
                env_score=float(env.score),
                shaped_return=float(shaped_return),
                instr_completions=shaping.completions,
                variant=config.variant,
                seed=config.base_seed,
            )
            episode_idx += 1
            env, obs = new_episode(episode_idx)
            h, c = net.zero_state()
            shaped_return = 0.0
        yield


# -------------------------------------------------------------- evaluation


def evaluate_policy(
    params: np.ndarray,
    config: AgentConfig,
    mem: MemModel | None = None,
    commands: list[CommandSpec] | None = None,
) -> dict:
    """Frozen-snapshot evaluation: fixed seeds, single-threaded, sampled policy.

    Episode ``i`` plays env seed ``eval_seed + i`` with its own generator,
    ``SeedSequence((eval_seed, i))``. The ``random`` variant ignores
    ``params`` and plays ``env.random_legal_action`` with that generator:
    uniform over legal action ids, build targets uniform over free cells,
    the same baseline that plays the embedding dataset's self-play. It
    reads the game state from the env's ``state`` (as ``env.Episode`` has).
    """
    config.validate()
    random_variant = config.variant == "random"
    net = AgentNet()
    if not random_variant:
        net.set_flat(params)
    shaping = EpisodeShaping(config, mem, commands)

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
                action, _, _, (h, c) = net.act(obs, shaping.aux(), h, c, env.legal_mask(), rng)
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


# ---------------------------------------------------------------- training


@dataclass
class TrainResult:
    eval_rows: list[dict]
    records: list[RunRecord]
    final_params: np.ndarray
    version: int
    config: AgentConfig


def train(
    config: AgentConfig,
    mem: MemModel | None = None,
    commands: list[CommandSpec] | None = None,
    progress: Callable[[int], None] | None = None,
) -> TrainResult:
    """Run k workers to the step budget, evaluating at fixed boundaries.

    The workers take turns on this thread, 0, 1, …, k-1, 0, …, each turn
    one rollout and one update on the latest parameters, so a run is
    bitwise reproducible at any k. An update that crosses a boundary is
    evaluated at once on a snapshot taken at the crossing. A worker that
    raises fails the run at once.
    """
    config.validate()
    if config.variant == "random":
        row = {"step": 0, **evaluate_policy(np.zeros(1, dtype=np.float32), config, mem, commands)}
        return TrainResult([row], [], np.zeros(1, dtype=np.float32), 0, config)

    init = AgentNet(np.random.default_rng(config.base_seed)).get_flat()
    shared = SharedParams(init, config)
    records: list[RunRecord] = []
    eval_rows: list[dict] = []

    def run_eval(point: EvalPoint) -> None:
        row = {"step": point.step, "version": point.version}
        row.update(evaluate_policy(point.params, config, mem, commands))
        eval_rows.append(row)
        if progress is not None:
            progress(point.step)

    run_eval(EvalPoint(step=0, params=init.copy(), version=0))
    workers = [worker_loop(shared, config, wid, mem, commands) for wid in range(config.workers)]
    wid = 0
    while not shared.should_stop():
        try:
            for item in workers[wid]:
                if item is None:
                    break
                if isinstance(item, EvalPoint):
                    run_eval(item)
                else:
                    records.append(item)
        except Exception as exc:
            raise RuntimeError(f"worker failed: {exc!r} (worker {wid})") from exc
        wid = (wid + 1) % config.workers

    final_params, version = shared.snapshot()
    return TrainResult(eval_rows, records, final_params, version, config)
