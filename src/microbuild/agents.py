"""Advantage actor-critic over MicroBuild, three ways.

One network architecture serves three agents: narration-guided (embedding
distance grants the shaping bonus, and the state/command embeddings enter
the network as auxiliary features), subtask (detector events grant the
same bonus, no auxiliary features), and an unshaped baseline.
``Actor.step`` is the one place an agent plays a step, for training and
evaluation alike; ``Actor`` states each episode's env seed and generator.
Training keeps one learner network and one actor per worker. The actors
take turns in a fixed order, one rollout on the learner network and one
clipped Adam step (``SharedParams``) per turn, so a run is bitwise
reproducible at any worker count, and a worker that raises stops the run
at once. ``train`` counts the env steps and decides when to evaluate.

``a3c_loss`` runs no forward pass of its own. ``Actor.rollout`` keeps what
each step's ``act`` cached in the network's layers (``AgentNet.saved``):
the conv trunk's caches, which the steps of one memo run share, the
scalar and trunk layers' inputs and masks, each LSTM step's arrays and
h_t. The loss stacks them into the caches the layers' backward methods
read, the trunk's once per memo run, re-evaluates the head on the
stacked h_t and backpropagates. So its gradient is that of the pass that
played the rollout, and it must run before the parameters change, which
``train`` guarantees: it takes each update right after its rollout.
Evaluation records nothing.

``EpisodeShaping`` is the one place a variant's bonus and aux features
are computed, for training (``Actor``) and evaluation alike: it holds the
shaped variants' command pointer and decides, per variant, when the
current command is satisfied.

``sample_from_logits`` draws each of ``act``'s heads straight from its
logits by inverse CDF over the unnormalised mass. When rounding puts a
draw past the cumulative mass, it takes the last entry with nonzero mass.
So an agent never samples a masked action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import check_int, check_rate
from . import env as E
from .mem import DEFAULT_THRESHOLD, EMBED_DIM, NONSPATIAL_HIDDEN, CommandSpec, MemModel, mem_distance
from .nn import (
    AdamState,
    Dense,
    LSTM,
    Model,
    ReLU,
    Sequential,
    StateEncoder,
    adam_step,
    load_model,
    save_model,
)

VARIANTS = ("narration", "subtask", "none", "random")
AUX_DIM = 128  # state embedding + command embedding
HIDDEN = 128
GRAD_CLIP = 40.0  # an update's gradient is scaled down to at most this L2 norm
# the head's column blocks: action-id, x and y logits, then the value
_ID = slice(0, E.N_ACTIONS)
_X = slice(_ID.stop, _ID.stop + E.GRID)
_Y = slice(_X.stop, _X.stop + E.GRID)
_VALUE = _Y.stop


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
    bonus: float = 1.0
    tau: float = DEFAULT_THRESHOLD
    base_seed: int = 0
    horizon: int = E.HORIZON
    eval_interval: int = 50_000
    eval_episodes: int = 20
    eval_seed: int = 10_000
    # seed -> env, None for E.Episode(seed, horizon); perfbench passes an Episode that also records its play
    env_factory: Callable[[int], object] | None = None

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r} (expected one of {VARIANTS})")
        if self.variant == "narration" and not self.tau > 0:
            raise ValueError(f"narration shaping needs a positive distance threshold tau, got {self.tau}")
        for name in ("workers", "rollout_len", "total_steps", "eval_interval", "eval_episodes", "horizon"):
            check_int(name, getattr(self, name), 1)
        for name in ("base_seed", "eval_seed"):
            check_int(name, getattr(self, name), 0)
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        check_rate("lr", self.lr)
        for name in ("bonus", "value_coef", "entropy_coef"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    def make_env(self, seed: int):
        factory = self.env_factory or (lambda s: E.Episode(s, self.horizon))
        return factory(seed)


class AgentNet(Model):
    """State encoder + dense trunk + LSTM core + one ``Dense(HIDDEN, 39)`` head
    whose columns are the action-id, x and y logits and the value (``_ID``,
    ``_X``, ``_Y``, ``_VALUE``). Each block of columns draws its weights in
    that order at its own Glorot limit, sqrt(6 / (HIDDEN + its width)): bit
    for bit four separate ``Dense`` heads. With no ``rng`` the weights start
    at zero, for callers that load them."""

    def __init__(self, rng: np.random.Generator | None = None):
        self.encoder = StateEncoder(E.OBS_CHANNELS, E.GRID, E.OBS_NONSPATIAL, NONSPATIAL_HIDDEN, rng)
        self.trunk = Sequential([Dense(self.encoder.out_dim + AUX_DIM, HIDDEN, rng), ReLU()])
        self.core = LSTM(HIDDEN, HIDDEN, rng)
        self.head = Dense(HIDDEN, _VALUE + 1)
        self.head.weight = np.concatenate([Dense(HIDDEN, n, rng).weight for n in (E.N_ACTIONS, E.GRID, E.GRID, 1)], 1)
        self.layers = [self.encoder, self.trunk, self.core, self.head]
        self._own_params()

    def spec(self) -> dict:
        modules = [*self.encoder.layers, *self.layers[1:]]
        return {"kind": "agent-net", "modules": [m.spec() for m in modules]}

    def save(self, path) -> None:
        save_model(path, self.spec(), self.flat_params)

    @classmethod
    def load(cls, path) -> "AgentNet":
        net = cls()
        spec, flat = load_model(path, expected_spec=net.spec())
        net.set_flat(flat)
        return net

    def zero_state(self) -> tuple[np.ndarray, np.ndarray]:
        return self.core.zero_state(1)

    # ------------------------------------------------------------ forward

    def _features(self, spatial: np.ndarray, nonspatial: np.ndarray, aux: np.ndarray) -> np.ndarray:
        return self.trunk.forward(self.encoder.forward(spatial, nonspatial, aux))

    def saved(self) -> tuple:
        """What the last one-row ``act`` or ``value_of`` cached for backward."""
        return self.encoder.saved(), self.trunk.saved(), self.core.saved()

    def restore(self, saved: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
        """Cache the one-row passes in ``saved`` (each a ``saved()``), in order,
        for ``core.backward_seq`` and ``_backward_features``; returns their
        h_t (T, HIDDEN) and the row at which each of the trunk's memo runs
        starts."""
        run_starts = self.encoder.restore([s[0] for s in saved])
        self.trunk.restore([s[1] for s in saved])
        return self.core.restore([s[2] for s in saved])[:, 0], run_starts

    def _backward_features(self, g: np.ndarray, run_starts: np.ndarray) -> None:
        self.encoder.backward(self.trunk.backward(g), run_starts)

    def act(
        self,
        obs: E.Observation,
        aux: np.ndarray,
        h: np.ndarray,
        c: np.ndarray,
        legal_mask: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[E.Action, float, tuple[np.ndarray, np.ndarray]]:
        """Sample one action: (action, value, (h, c)); x, then y, are drawn only for builds."""
        x = self._features(obs.spatial[None], obs.nonspatial[None], aux[None])
        h, c = self.core.step(x, h, c)
        out = self.head.forward(h)[0]
        kind = sample_from_logits(out[_ID], legal_mask, rng)
        xy = [sample_from_logits(out[s], None, rng) for s in (_X, _Y)] if kind in E.BUILD_KINDS else ()
        return E.Action(kind, *xy), float(out[_VALUE]), (h, c)

    def value_of(self, obs: E.Observation, aux: np.ndarray, h: np.ndarray, c: np.ndarray) -> float:
        x = self._features(obs.spatial[None], obs.nonspatial[None], aux[None])
        h, _ = self.core.step(x, h, c)
        return float(self.head.forward(h)[0, _VALUE])


def masked_log_softmax(logits: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Log-probabilities over the last axis of (..., n) logits; entries where
    ``mask`` is False get zero mass (-inf logp). Each row is computed as if alone."""
    if mask is not None:
        logits = np.where(mask, logits, -np.inf)
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return z - np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))


def sample_from_logits(logits: np.ndarray, mask: np.ndarray | None, rng: np.random.Generator) -> int:
    """One index of the (n,) ``logits`` drawn with probabilities softmax(logits)
    over the entries ``mask`` allows (all when None), by inverse CDF on one
    ``rng.random()``; a draw past the cumulative mass takes the last entry
    with nonzero mass."""
    if mask is not None:
        logits = np.where(mask, logits, -np.inf)
    p = logits - np.maximum.reduce(logits)
    np.exp(p, out=p)
    cdf = p.cumsum()
    i = int(cdf.searchsorted(rng.random() * cdf[-1], side="right"))
    if i == cdf.size:
        i = int(np.flatnonzero(p)[-1])
    return i


# ---------------------------------------------------------------- rollouts


@dataclass
class Rollout:
    """Fixed-length (or terminal-truncated) trajectory segment: what each
    step chose and earned, and the pass that chose it."""

    masks: np.ndarray  # (T, 6) bool
    kinds: np.ndarray  # (T,)
    xs: np.ndarray  # (T,)
    ys: np.ndarray  # (T,)
    rewards: np.ndarray  # (T,) shaped rewards actually optimized
    values: np.ndarray  # (T,) V(s_t) at collection time
    bootstrap: float  # V(s_T), 0 when terminal
    played: list[tuple]  # AgentNet.saved() after each step's act: the pass a3c_loss backpropagates

    def __len__(self) -> int:
        return int(self.kinds.shape[0])


def compute_returns(
    rewards: np.ndarray, bootstrap: float, gamma: float, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """n-step bootstrapped returns and their advantages over ``values``."""
    t = rewards.shape[0]
    returns = np.empty(t, dtype=np.float64)
    acc = float(bootstrap)
    for i in range(t - 1, -1, -1):
        acc = float(rewards[i]) + gamma * acc
        returns[i] = acc
    return returns, returns - values.astype(np.float64)


def _policy_terms(
    logits: np.ndarray, mask: np.ndarray | None, chosen: np.ndarray, adv: np.ndarray, c_e: float
) -> tuple[np.ndarray, np.ndarray]:
    """One policy's (action id, x or y) policy and entropy terms over its (R, n) logit rows.

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

    Backpropagates through the pass that played the rollout
    (``rollout.played``): the head runs again on its stacked h_t, BPTT runs
    over its LSTM steps and the conv trunk's backward runs once per memo
    run. Call it before the parameters change from those that played the
    rollout (``train`` does), or the gradient is of a stale pass.
    Advantages are constants in the policy term; entropy covers only the
    policies actually used at each step: the action id at every step, x
    and y at build steps. The loss sums the terms in timestep order
    (id, x, y, value). The gradient returned is ``net.flat_grads`` itself,
    valid until the net's next backward.
    """
    t_len = len(rollout)
    returns, advantages = compute_returns(
        rollout.rewards, rollout.bootstrap, config.gamma, rollout.values
    )
    net.zero_grads()
    hs, run_starts = net.restore(rollout.played)  # (T, HIDDEN)
    out = net.head.forward(hs)  # (T, 39)
    values = out[:, _VALUE]

    c_v, c_e = config.value_coef, config.entropy_coef
    build = (rollout.kinds[:, None] == E.BUILD_KINDS).any(axis=1)
    terms = np.empty((t_len, 4))  # id, x, y, value
    g = np.zeros_like(out)
    terms[:, 0], g[:, _ID] = _policy_terms(out[:, _ID], rollout.masks, rollout.kinds, advantages, c_e)
    adv_b = advantages[build]
    terms[build, 1], g[build, _X] = _policy_terms(out[build, _X], None, rollout.xs[build], adv_b, c_e)
    terms[build, 2], g[build, _Y] = _policy_terms(out[build, _Y], None, rollout.ys[build], adv_b, c_e)
    verr = values.astype(np.float64) - returns
    terms[:, 3] = c_v * verr * verr
    used = np.ones((t_len, 4), bool)
    used[:, 1:3] = build[:, None]
    loss = float(np.cumsum(terms[used])[-1])  # sequential, like a per-step running sum
    if not np.isfinite(loss):
        bad = [t for t in range(t_len) if not np.isfinite(values[t])]
        raise FloatingPointError(f"non-finite loss in rollout (suspect timesteps {bad[:4]})")

    g[:, _VALUE] = 2.0 * c_v * verr
    net._backward_features(net.core.backward_seq(net.head.backward(g)[:, None])[:, 0], run_starts)
    return loss, net.flat_grads


# ---------------------------------------------------------------- shaping


def shape_narration(state_vec: np.ndarray, command_vec: np.ndarray, tau: float) -> bool:
    """Whether the MEM judges a command satisfied: the state's embedding lies within ``tau`` of the command's."""
    return mem_distance(state_vec, command_vec) < tau


class EpisodeShaping:
    """One variant's shaping for the episode in play: bonus and aux features.

    A shaped variant (narration or subtask) holds the ordered command list
    and a progress pointer. Satisfying the current command pays
    ``config.bonus``, counts a completion and advances the pointer, cycling
    back to the first command after the last. The narration variant judges
    the current command satisfied when the given MEM embeds the post-action
    observation within ``tau`` of it (``shape_narration``), and feeds the
    state and command embeddings to the agent as aux features; the subtask
    variant judges it satisfied when the env's detectors fire its event.
    ``none`` and ``random`` get no bonus and zero aux features. Training and
    evaluation both shape through this object.
    """

    def __init__(self, config: AgentConfig, mem: MemModel | None, commands: list[CommandSpec] | None):
        self.narration = config.variant == "narration"
        self.shaped = config.variant in ("narration", "subtask")
        self.tau, self.payout = config.tau, config.bonus
        self.pointer = self.completions = 0
        if self.shaped:
            if not commands:
                raise ValueError(f"{config.variant} variant needs a non-empty command list")
            self.command_ids = [c.id for c in commands]
        if self.narration:
            if mem is None:
                raise ValueError("narration variant needs a trained embedding model")
            self.mem = mem
            self.command_vecs = mem.encode_command_batch(commands)
        self._zero_aux = np.zeros(AUX_DIM, dtype=np.float32)

    def start(self, obs: E.Observation) -> None:
        """Begin an episode at its first observation."""
        self.pointer = self.completions = 0
        if self.narration:
            self.state_vec = self.mem.encode_state(obs)

    def aux(self) -> np.ndarray:
        """The agent's aux input for the current observation."""
        if not self.narration:
            return self._zero_aux
        aux = np.empty(AUX_DIM, dtype=np.float32)
        aux[:EMBED_DIM] = self.state_vec
        aux[EMBED_DIM:] = self.command_vecs[self.pointer]
        return aux

    def bonus(self, obs: E.Observation, events: frozenset[int]) -> float:
        """Shaping bonus for the step that led to ``obs`` with detector ``events``."""
        if self.narration:
            # satisfaction judged on the post-action observation
            self.state_vec = self.mem.encode_state(obs)
            satisfied = shape_narration(self.state_vec, self.command_vecs[self.pointer], self.tau)
        else:
            satisfied = self.shaped and self.command_ids[self.pointer] in events
        if not satisfied:
            return 0.0
        self.completions += 1
        self.pointer = (self.pointer + 1) % len(self.command_ids)
        return self.payout


# ------------------------------------------------------------ shared state


class SharedParams:
    """The learner network's parameters. ``apply_gradients`` clips a gradient
    to L2 norm ``GRAD_CLIP`` and runs one Adam step in place on
    ``net.flat_params``; ``snapshot`` copies them for evaluation."""

    def __init__(self, net: Model, lr: float):
        self._params = net.flat_params
        self._adam = AdamState(self._params.size, lr=lr)

    def snapshot(self) -> np.ndarray:
        return self._params.copy()

    def apply_gradients(self, grads: np.ndarray) -> None:
        norm = float(np.linalg.norm(grads))
        if norm > GRAD_CLIP:
            grads = grads * (GRAD_CLIP / norm)
        adam_step(self._params, grads, self._adam)


# ----------------------------------------------------------------- records


@dataclass
class RunRecord:
    """One training episode, ended at the run's env step ``step``; the run's
    variant and seed are in ``TrainResult.config``."""

    step: int
    worker: int
    episode: int
    env_score: float
    shaped_return: float
    instr_completions: int


# ------------------------------------------------------------------ actors


class Actor:
    """One stream of episodes in play on a network, one step at a time.

    ``step`` is the one place an agent plays a step: training rolls out
    through it and evaluation plays whole episodes through it. Episode
    ``i`` of an actor plays env seed ``first_seed + i`` and samples its
    actions from ``rng``, the generator passed in, so the seed schedule is:

    - training: worker ``k`` is one actor with
      ``first_seed = base_seed + k * 1_000_003`` and
      ``SeedSequence((base_seed, k))``;
    - evaluation: episode ``i`` is a one-episode actor on env seed
      ``eval_seed + i`` with ``SeedSequence((eval_seed, i))``.
    """

    def __init__(
        self,
        net: AgentNet,
        config: AgentConfig,
        shaping: EpisodeShaping,
        first_seed: int,
        rng: np.random.Generator,
        worker_id: int = 0,
    ):
        self.net = net
        self.config = config
        self.shaping = shaping
        self.first_seed = first_seed
        self.rng = rng
        self.worker_id = worker_id
        self.episode = 0
        self._start_episode()

    def _start_episode(self) -> None:
        self.env = self.config.make_env(self.first_seed + self.episode)
        self.obs = self.env.observe()
        self.shaping.start(self.obs)
        self.h, self.c = self.net.zero_state()
        self.shaped_return = 0.0

    def _choose(self, aux: np.ndarray) -> tuple[np.ndarray, E.Action, float]:
        """The policy: (legal mask, action, value) for the current observation."""
        mask = self.env.legal_mask()
        action, value, (self.h, self.c) = self.net.act(self.obs, aux, self.h, self.c, mask, self.rng)
        return mask, action, value

    def step(self) -> tuple[np.ndarray, E.Action, float, float, bool]:
        """Play one step: (mask, action, value, shaped reward, done)."""
        shaping = self.shaping
        mask, action, value = self._choose(shaping.aux())
        self.obs, env_r, done, events = self.env.step(action)
        reward = env_r + shaping.bonus(self.obs, events)
        self.shaped_return += reward
        return mask, action, value, reward, done

    def rollout(self) -> tuple[Rollout, bool]:
        """Play up to ``rollout_len`` steps and stack their ``step`` records,
        keeping the pass each step's ``act`` ran; True when the episode ended."""
        steps, played = [self.step()], [self.net.saved()]
        while len(steps) < self.config.rollout_len and not steps[-1][-1]:
            steps.append(self.step())
            played.append(self.net.saved())
        masks, actions, values, rewards, dones = zip(*steps)
        kinds, xs, ys = np.array(actions, dtype=np.int64).T
        bootstrap = 0.0 if dones[-1] else self.net.value_of(self.obs, self.shaping.aux(), self.h, self.c)
        rollout = Rollout(
            masks=np.array(masks),
            kinds=kinds,
            xs=xs,
            ys=ys,
            rewards=np.array(rewards, dtype=np.float32),
            values=np.array(values, dtype=np.float32),
            bootstrap=bootstrap,
            played=played,
        )
        return rollout, dones[-1]

    def end_episode(self, step: int) -> RunRecord:
        """The ended episode's record; the next episode starts."""
        record = RunRecord(
            step=step,
            worker=self.worker_id,
            episode=self.episode,
            env_score=float(self.env.score),
            shaped_return=float(self.shaped_return),
            instr_completions=self.shaping.completions,
        )
        self.episode += 1
        self._start_episode()
        return record


class RandomActor(Actor):
    """An actor that plays ``env.random_legal_action``: uniform over legal
    action ids, build targets uniform over free cells, the same baseline
    that plays the embedding dataset's self-play. It runs no network and
    asks for no mask; it reads the game state from the env's ``state`` (as
    ``env.Episode`` has)."""

    def _choose(self, aux: np.ndarray) -> tuple[None, E.Action, float]:
        return None, E.random_legal_action(self.env.state, self.rng), 0.0


# -------------------------------------------------------------- evaluation


def evaluate_policy(
    params: np.ndarray,
    config: AgentConfig,
    mem: MemModel | None = None,
    commands: list[CommandSpec] | None = None,
) -> dict:
    """Frozen-snapshot evaluation: fixed seeds, single-threaded, sampled policy.

    Episode ``i`` is played to its end by a one-episode ``Actor`` on env
    seed ``eval_seed + i`` with generator ``SeedSequence((eval_seed, i))``.
    The ``random`` variant ignores ``params`` and plays a ``RandomActor``.
    """
    config.validate()
    random_variant = config.variant == "random"
    net = AgentNet()
    if not random_variant:
        net.set_flat(params)
    actor_cls = RandomActor if random_variant else Actor
    shaping = EpisodeShaping(config, mem, commands)

    scores, shaped, completions = [], [], []
    for i in range(config.eval_episodes):
        rng = np.random.default_rng(np.random.SeedSequence((config.eval_seed, i)))
        actor = actor_cls(net, config, shaping, config.eval_seed + i, rng)
        done = False
        while not done:
            done = actor.step()[-1]
        scores.append(float(actor.env.score))
        shaped.append(actor.shaped_return)
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
    config: AgentConfig


def train(
    config: AgentConfig,
    mem: MemModel | None = None,
    commands: list[CommandSpec] | None = None,
    progress: Callable[[int], None] | None = None,
) -> TrainResult:
    """Run k actors on one learner network to ``total_steps`` env steps,
    evaluating at every multiple of ``eval_interval``.

    The actors take turns, 0, 1, …, k-1, 0, …: each turn is one rollout on
    the latest parameters, then one update, so a run is bitwise
    reproducible at any k. After an update, each boundary its steps
    crossed is evaluated on the updated parameters. A worker that raises
    fails the run at once. ``random`` has no network to train and raises
    ``ValueError``; ``evaluate_policy`` plays it.
    """
    config.validate()
    if config.variant == "random":
        raise ValueError("the random variant has no network to train; evaluate_policy plays it")

    net = AgentNet(np.random.default_rng(config.base_seed))
    shared = SharedParams(net, config.lr)
    records: list[RunRecord] = []
    eval_rows: list[dict] = []

    def run_eval(step: int) -> None:
        eval_rows.append({"step": step, **evaluate_policy(shared.snapshot(), config, mem, commands)})
        if progress is not None:
            progress(step)

    run_eval(0)
    actors: list[Actor] = []  # worker k joins on its first turn
    interval = config.eval_interval
    steps = wid = 0
    while steps < config.total_steps:
        try:
            if wid == len(actors):
                rng = np.random.default_rng(np.random.SeedSequence((config.base_seed, wid)))
                shaping = EpisodeShaping(config, mem, commands)
                actors.append(Actor(net, config, shaping, config.base_seed + wid * 1_000_003, rng, wid))
            rollout, done = actors[wid].rollout()
            _, grads = a3c_loss(rollout, net, config)
            shared.apply_gradients(grads)
            before, steps = steps, steps + len(rollout)
            for boundary in range((before // interval + 1) * interval, steps + 1, interval):
                run_eval(boundary)
            if done:
                records.append(actors[wid].end_episode(steps))
        except Exception as exc:
            raise RuntimeError(f"worker failed: {exc!r} (worker {wid})") from exc
        wid = (wid + 1) % config.workers

    return TrainResult(eval_rows, records, shared.snapshot(), config)
