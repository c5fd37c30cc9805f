"""Mutual embedding of game states and natural-language commands.

Two encoders project into one shared space: observations go through the
conv/dense state encoder, commands go word-vector by word-vector through
an LSTM.
Training pulls matched (state, command) pairs to distance 0 and pushes
mismatched pairs to distance 1:

    loss = mean((||state_vec - command_vec|| - label)^2) + wd * sum(theta^2)

with label 0 for matched and 1 for mismatched pairs. A command counts as
satisfied by an observation when the embedding distance falls below the
threshold (default 0.5, the midpoint of the two targets).

The state encoder is ``nn.StateEncoder``, the same trunk the agent
starts with. The training dataset comes from seeded self-play: goal
transitions labeled by ``env.detect`` become matched and mismatched pairs,
and stretches with no detector activity for ten steps contribute "null"
observations paired with random commands as additional mismatches. Each
observation keeps the ``env.counters`` of its two frames, from which
``env.detect`` re-derives its label.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from importlib import resources

import numpy as np

from . import env as E
from .lexicon import WordEmbeddings, tokenize
from .nn import (
    AdamState,
    Dense,
    LSTM,
    Model,
    StateEncoder,
    adam_step,
    flatten_arrays,
    load_model,
    save_model,
)

EMBED_DIM = 64
NONSPATIAL_HIDDEN = 32
DEFAULT_THRESHOLD = 0.5


@dataclass
class CommandSpec:
    id: int
    text: str
    tokens: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.tokens:
            self.tokens = tokenize(self.text)
        if not self.tokens:
            raise ValueError(f"command {self.id!r} has no tokens: {self.text!r}")


def load_commands(path=None, alternate: bool = False) -> list[CommandSpec]:
    """Command set as shipped; ids align with the detector event ids."""
    if path is None:
        name = "alternate_commands.json" if alternate else "original_commands.json"
        raw = resources.files("microbuild.data").joinpath(name).read_text(encoding="utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    specs = [CommandSpec(id=int(c["id"]), text=str(c["text"])) for c in json.loads(raw)]
    specs.sort(key=lambda c: c.id)
    if [c.id for c in specs] != list(range(len(specs))):
        raise ValueError("command ids must be dense starting at 0")
    return specs


def mem_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two embedding vectors."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)))


class MemModel(Model):
    """Paired state and command encoders with shared output dimension."""

    def __init__(
        self,
        word_embeddings: WordEmbeddings,
        rng: np.random.Generator | None = None,
        embed_dim: int = EMBED_DIM,
        dtype=np.float32,
    ):
        if rng is None:
            rng = np.random.default_rng(0)
        self.word_embeddings = word_embeddings  # frozen; not part of theta
        self.embed_dim = embed_dim
        self.dtype = dtype
        self.encoder = StateEncoder(E.OBS_CHANNELS, E.GRID, E.OBS_NONSPATIAL, NONSPATIAL_HIDDEN, rng, dtype)
        self.state_proj = Dense(self.encoder.out_dim, embed_dim, rng, dtype=dtype)
        self.cmd_lstm = LSTM(word_embeddings.dim, embed_dim, rng, dtype=dtype)
        self.cmd_proj = Dense(embed_dim, embed_dim, rng, dtype=dtype)
        self.layers = [*self.encoder.layers, self.state_proj, self.cmd_lstm, self.cmd_proj]

    def copy(self) -> "MemModel":
        """Private inference replica with its own layer caches and trunk memo."""
        twin = MemModel(self.word_embeddings, rng=None, embed_dim=self.embed_dim, dtype=self.dtype)
        twin.set_flat(self.get_flat())
        return twin

    def spec(self) -> dict:
        return {
            "kind": "mutual-embedding",
            "embed_dim": self.embed_dim,
            "modules": [m.spec() for m in self.layers],
            "word": self.word_embeddings.spec(),
        }

    def save(self, path) -> None:
        arrays = self.param_arrays() + [self.word_embeddings.vectors]
        save_model(path, self.spec(), arrays)

    @classmethod
    def load(cls, path) -> "MemModel":
        spec, flat = load_model(path)
        if spec.get("kind") != "mutual-embedding":
            raise ValueError(f"{path}: not a mutual-embedding model file")
        word_spec = spec["word"]
        word_vecs = flat[-len(word_spec["tokens"]) * word_spec["dim"] :]
        model = cls(WordEmbeddings.from_spec(word_spec, word_vecs), rng=None, embed_dim=spec["embed_dim"])
        if model.spec() != spec:
            raise ValueError(f"{path}: architecture spec mismatch")
        model.set_flat(flat[: model.n_params()])
        return model

    # ------------------------------------------------------------ forward

    def encode_state_batch(self, spatial: np.ndarray, nonspatial: np.ndarray) -> np.ndarray:
        features = self.encoder.forward(spatial.astype(self.dtype, copy=False), nonspatial.astype(self.dtype, copy=False))
        return self.state_proj.forward(features)

    def backward_state_batch(self, g_out: np.ndarray) -> None:
        self.encoder.backward(self.state_proj.backward(g_out))

    def encode_state(self, obs: E.Observation) -> np.ndarray:
        return self.encode_state_batch(obs.spatial[None], obs.nonspatial[None])[0]

    def _command_tokens(self, command) -> list[str]:
        tokens = command.tokens if isinstance(command, CommandSpec) else tokenize(str(command))
        if not tokens:
            raise ValueError(f"command has no tokens: {command!r}")
        return tokens

    def _command_hidden(self, tokens: list[str], cache: bool) -> np.ndarray:
        """Final LSTM state over the command's word vectors, (1, embed_dim)."""
        vecs = self.word_embeddings.embed_tokens(tokens).astype(self.dtype)
        h, c = self.cmd_lstm.zero_state(1, dtype=self.dtype)
        for t in range(vecs.shape[0]):
            h, c = self.cmd_lstm.step(vecs[t : t + 1], h, c, cache=cache)
        return h

    def encode_command(self, command, cache: bool = False) -> np.ndarray:
        """Project a command (CommandSpec or raw text) into the shared space."""
        return self.cmd_proj.forward(self._command_hidden(self._command_tokens(command), cache))[0]

    def backward_command(self, g_out: np.ndarray) -> None:
        g_h = self.cmd_proj.backward(g_out[None] if g_out.ndim == 1 else g_out)
        self.cmd_lstm.backward_seq(None, gh_final=g_h)


@dataclass
class MemBatch:
    """Dense arrays for one loss evaluation."""

    spatial: np.ndarray  # (B, 14, 16, 16)
    nonspatial: np.ndarray  # (B, 10)
    command_ids: np.ndarray  # (B,)
    labels: np.ndarray  # (B,) 0 matched / 1 mismatched


def mem_loss(
    batch: MemBatch,
    model: MemModel,
    commands: list[CommandSpec],
    weight_decay: float,
    accumulate_grads: bool = True,
) -> tuple[float, np.ndarray | None]:
    """Contrastive distance loss and (optionally) flat parameter gradients.

    The distance derivative at exactly zero distance is defined as zero.
    """
    if batch.labels.size == 0:
        raise ValueError("empty batch")
    n = batch.labels.shape[0]
    model.zero_grads()
    xs = model.encode_state_batch(batch.spatial, batch.nonspatial)  # (B, D)

    unique_ids = sorted(set(int(i) for i in batch.command_ids))
    xc = np.empty_like(xs)
    caches: dict[int, tuple] = {}
    for cid in unique_ids:
        h = model._command_hidden(commands[cid].tokens, accumulate_grads)
        if accumulate_grads:
            caches[cid] = (model.cmd_lstm.take_cache(), h)
        xc[batch.command_ids == cid] = model.cmd_proj.forward(h)[0]

    diff = (xs - xc).astype(np.float64)
    dist = np.sqrt((diff * diff).sum(axis=1))
    labels = batch.labels.astype(np.float64)
    err = dist - labels
    loss = float((err * err).mean())
    params = model.param_arrays()
    if weight_decay:
        loss += weight_decay * float(sum(float((p.astype(np.float64) ** 2).sum()) for p in params))
    if not accumulate_grads:
        return loss, None

    safe = np.where(dist > 0.0, dist, 1.0)
    scale = np.where(dist > 0.0, 2.0 * err / (n * safe), 0.0)
    g_diff = (scale[:, None] * diff).astype(model.dtype)  # d loss / d xs
    model.backward_state_batch(g_diff)
    for cid in unique_ids:
        sel = batch.command_ids == cid
        lstm_cache, h = caches[cid]
        model.cmd_lstm.set_cache(lstm_cache)
        model.cmd_proj.forward(h)  # restore this command's cached input
        model.backward_command(-g_diff[sel].sum(axis=0))
    grads = flatten_arrays(model.grad_arrays())
    if weight_decay:
        grads += 2.0 * weight_decay * model.get_flat()
    return loss, grads


def is_satisfied(
    model: MemModel,
    obs: E.Observation,
    command,
    threshold: float = DEFAULT_THRESHOLD,
    command_vec: np.ndarray | None = None,
) -> bool:
    """Distance test: command satisfied when closer than the threshold."""
    if command_vec is None:
        command_vec = model.encode_command(command)
    return mem_distance(model.encode_state(obs), command_vec) < threshold


# ----------------------------------------------------------------- dataset


@dataclass
class Quotas:
    per_command: int = 1000
    nulls: int = 5000


class DatasetError(RuntimeError):
    pass


@dataclass
class MemDataset:
    """Distinct observations plus (obs, command, label) sample records.

    Matched and mismatched samples built from the same observation always
    share a split, so no test observation ever appears in training.
    """

    spatial: np.ndarray  # (M, 14, 16, 16) uint8
    nonspatial: np.ndarray  # (M, 10) float32
    obs_label: np.ndarray  # (M,) int8: command id for goal obs, -1 for null
    obs_counters: np.ndarray  # (M, 14) int32: env.counters of prev + next
    sample_obs: np.ndarray  # (S,) int32 index into observations
    sample_cmd: np.ndarray  # (S,) int8
    sample_label: np.ndarray  # (S,) int8: 0 matched / 1 mismatched
    split_train: np.ndarray
    split_val: np.ndarray
    split_test: np.ndarray
    quotas: Quotas = field(default_factory=Quotas)
    seed: int = 0

    def n_samples(self) -> int:
        return int(self.sample_obs.shape[0])

    def batch(self, sample_idx: np.ndarray) -> MemBatch:
        obs_idx = self.sample_obs[sample_idx]
        return MemBatch(
            spatial=self.spatial[obs_idx].astype(np.float32),
            nonspatial=self.nonspatial[obs_idx],
            command_ids=self.sample_cmd[sample_idx].astype(np.int64),
            labels=self.sample_label[sample_idx].astype(np.int64),
        )

    def arrays(self) -> dict[str, np.ndarray]:
        """The dataset's arrays by field name, in the order they are hashed and saved."""
        return {f.name: getattr(self, f.name) for f in fields(MemDataset) if f.name not in ("quotas", "seed")}

    def hash(self) -> str:
        h = hashlib.sha256()
        for arr in self.arrays().values():
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    @staticmethod
    def _paths(path) -> tuple[str, str]:
        base = str(path)
        if base.endswith(".npz"):
            base = base[:-4]
        return base + ".npz", base + ".json"

    def save(self, path) -> None:
        npz_path, sidecar_path = self._paths(path)
        np.savez_compressed(npz_path, **self.arrays())
        sidecar = {
            "per_command": self.quotas.per_command,
            "nulls": self.quotas.nulls,
            "seed": self.seed,
            "hash": self.hash(),
        }
        with open(sidecar_path, "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "MemDataset":
        npz_path, sidecar_path = cls._paths(path)
        data = np.load(npz_path)
        with open(sidecar_path, encoding="utf-8") as fh:
            sidecar = json.load(fh)
        ds = cls(
            quotas=Quotas(per_command=sidecar["per_command"], nulls=sidecar["nulls"]),
            seed=sidecar["seed"],
            **{k: data[k] for k in data.files},
        )
        if ds.hash() != sidecar["hash"]:
            raise DatasetError(f"{npz_path}: content hash mismatch")
        return ds


NULL_WINDOW = 10  # steps with no detector fire before an obs counts as null
NULL_STRIDE = 9  # keep every k-th eligible null transition


def generate_dataset(
    quotas: Quotas,
    seed: int,
    n_commands: int = E.N_COMMANDS,
    horizon: int = E.HORIZON,
    expert_mix: float = 0.3,
    budget_steps: int = 4_000_000,
) -> MemDataset:
    """Collect labeled transitions from seeded self-play.

    The behavior policy takes a scripted-expert action with probability
    ``expert_mix`` and a uniform legal action otherwise (``expert_mix=0``
    reproduces a pure random agent). Raises if any command's quota cannot
    be met within the step budget, naming the starving command.
    """
    seq = np.random.SeedSequence(seed)
    rng_policy, rng_pairs, rng_split, rng_env = [np.random.default_rng(s) for s in seq.spawn(4)]

    goal_obs: list[list[tuple]] = [[] for _ in range(n_commands)]
    null_obs: list[tuple] = []
    steps_used = 0
    episode = 0
    null_tick = 0

    def quotas_met() -> bool:
        return all(len(g) >= quotas.per_command for g in goal_obs) and len(null_obs) >= quotas.nulls

    while not quotas_met():
        if steps_used >= budget_steps:
            fill = {E.EVENT_NAMES[i]: len(g) for i, g in enumerate(goal_obs)}
            starving = min(range(n_commands), key=lambda i: len(goal_obs[i]))
            raise DatasetError(
                f"step budget {budget_steps} exhausted; command "
                f"'{E.EVENT_NAMES[starving]}' has {len(goal_obs[starving])}/{quotas.per_command} "
                f"(fills: {fill}, nulls: {len(null_obs)}/{quotas.nulls})"
            )
        env_seed = int(rng_env.integers(2**31))
        state = E.reset(env_seed, horizon)
        ctr = E.counters(state)
        steps_since_event = NULL_WINDOW  # episode start counts as quiet
        episode += 1
        while state.step < horizon and not quotas_met():
            if rng_policy.random() < expert_mix:
                action = E.scripted_expert(state)
            else:
                action = E.random_legal_action(state, rng_policy)
            prev, prev_ctr = state, ctr
            state, _, _ = E.step(state, action)
            ctr = E.counters(state)
            steps_used += 1
            events = E.detect(prev_ctr, ctr)
            keep_in = None
            if events:
                steps_since_event = 0
                if len(events) == 1:
                    (ev,) = events
                    if len(goal_obs[ev]) < quotas.per_command:
                        keep_in = goal_obs[ev]
            else:
                steps_since_event += 1
                if steps_since_event >= NULL_WINDOW and len(null_obs) < quotas.nulls:
                    null_tick += 1
                    if null_tick % NULL_STRIDE == 0:
                        keep_in = null_obs
            if keep_in is not None:
                obs = E.encode_observation(prev, state)
                keep_in.append((obs.spatial.astype(np.uint8), obs.nonspatial, prev_ctr + ctr))

    # assemble observation arrays: goals per command, then nulls
    n_goal = n_commands * quotas.per_command
    n_obs = n_goal + quotas.nulls
    spatial = np.empty((n_obs, E.OBS_CHANNELS, E.GRID, E.GRID), dtype=np.uint8)
    nonspatial = np.empty((n_obs, E.OBS_NONSPATIAL), dtype=np.float32)
    obs_label = np.empty(n_obs, dtype=np.int8)
    obs_counters = np.empty((n_obs, 14), dtype=np.int32)
    pos = 0
    for cid in range(n_commands):
        for sp, ns, ctr in goal_obs[cid][: quotas.per_command]:
            spatial[pos], nonspatial[pos], obs_label[pos], obs_counters[pos] = sp, ns, cid, ctr
            pos += 1
    for sp, ns, ctr in null_obs[: quotas.nulls]:
        spatial[pos], nonspatial[pos], obs_label[pos], obs_counters[pos] = sp, ns, -1, ctr
        pos += 1

    # samples: matched + mismatched per goal obs, one mismatch per null obs
    sample_obs, sample_cmd, sample_label = [], [], []
    for i in range(n_goal):
        cid = int(obs_label[i])
        sample_obs.append(i), sample_cmd.append(cid), sample_label.append(0)
        wrong = int(rng_pairs.integers(n_commands - 1))
        wrong = wrong + 1 if wrong >= cid else wrong
        sample_obs.append(i), sample_cmd.append(wrong), sample_label.append(1)
    for i in range(n_goal, n_obs):
        sample_obs.append(i), sample_cmd.append(int(rng_pairs.integers(n_commands))), sample_label.append(1)

    sample_obs = np.array(sample_obs, dtype=np.int32)
    sample_cmd = np.array(sample_cmd, dtype=np.int8)
    sample_label = np.array(sample_label, dtype=np.int8)

    # observation-level splits, 4:1:1 over samples for the default shape
    n_samples = sample_obs.shape[0]
    g_val = g_test = -(-quotas.per_command // 6)  # ceil
    u_val = u_test = max(n_samples // 6 - n_commands * 2 * g_val, 0)
    split_of_obs = np.zeros(n_obs, dtype=np.int8)  # 0 train / 1 val / 2 test
    for cid in range(n_commands):
        idx = rng_split.permutation(quotas.per_command) + cid * quotas.per_command
        split_of_obs[idx[:g_val]] = 1
        split_of_obs[idx[g_val : g_val + g_test]] = 2
    idx = rng_split.permutation(quotas.nulls) + n_goal
    split_of_obs[idx[:u_val]] = 1
    split_of_obs[idx[u_val : u_val + u_test]] = 2

    sample_split = split_of_obs[sample_obs]
    return MemDataset(
        spatial=spatial,
        nonspatial=nonspatial,
        obs_label=obs_label,
        obs_counters=obs_counters,
        sample_obs=sample_obs,
        sample_cmd=sample_cmd,
        sample_label=sample_label,
        split_train=np.flatnonzero(sample_split == 0).astype(np.int32),
        split_val=np.flatnonzero(sample_split == 1).astype(np.int32),
        split_test=np.flatnonzero(sample_split == 2).astype(np.int32),
        quotas=quotas,
        seed=seed,
    )


# ---------------------------------------------------------------- training


@dataclass
class MemTrainConfig:
    lr: float = 5e-4
    batch: int = 32
    epochs: int = 20
    weight_decay: float = 2.5e-3
    threshold: float = DEFAULT_THRESHOLD


@dataclass
class MemMetrics:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    best_epoch: int = -1
    test_acc: float = float("nan")
    test_loss: float = float("nan")


def evaluate_mem(
    model: MemModel,
    dataset: MemDataset,
    sample_idx: np.ndarray,
    commands: list[CommandSpec],
    weight_decay: float,
    threshold: float = DEFAULT_THRESHOLD,
    chunk: int = 512,
) -> tuple[float, float]:
    """(mean loss incl. penalty, accuracy) over the given sample indices."""
    cmd_vecs = np.stack([model.encode_command(c) for c in commands])
    total_sq, correct = 0.0, 0
    for start in range(0, sample_idx.size, chunk):
        part = sample_idx[start : start + chunk]
        batch = dataset.batch(part)
        xs = model.encode_state_batch(batch.spatial, batch.nonspatial)
        diff = (xs - cmd_vecs[batch.command_ids]).astype(np.float64)
        dist = np.sqrt((diff * diff).sum(axis=1))
        err = dist - batch.labels
        total_sq += float((err * err).sum())
        correct += int(((dist < threshold) == (batch.labels == 0)).sum())
    penalty = weight_decay * float(
        sum(float((p.astype(np.float64) ** 2).sum()) for p in model.param_arrays())
    )
    return total_sq / sample_idx.size + penalty, correct / sample_idx.size


def train_mem(
    dataset: MemDataset,
    word_embeddings: WordEmbeddings,
    commands: list[CommandSpec],
    config: MemTrainConfig,
    seed: int,
) -> tuple[MemModel, MemMetrics]:
    """Adam on the contrastive loss; returns the minimum-validation snapshot."""
    seq = np.random.SeedSequence(seed)
    rng_init, rng_order = [np.random.default_rng(s) for s in seq.spawn(2)]
    model = MemModel(word_embeddings, rng_init)
    params = model.get_flat()
    adam = AdamState(params.size, lr=config.lr)
    metrics = MemMetrics()
    best = (np.inf, -1, params.copy())

    train_idx = dataset.split_train
    for epoch in range(config.epochs):
        order = rng_order.permutation(train_idx.size)
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, train_idx.size, config.batch):
            batch = dataset.batch(train_idx[order[start : start + config.batch]])
            loss, grads = mem_loss(batch, model, commands, config.weight_decay)
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"training diverged at epoch {epoch} batch {n_batches}: loss={loss}"
                )
            adam_step(params, grads, adam)
            model.set_flat(params)
            epoch_loss += loss
            n_batches += 1
        tr_loss, tr_acc = evaluate_mem(
            model, dataset, train_idx, commands, config.weight_decay, config.threshold
        )
        va_loss, va_acc = evaluate_mem(
            model, dataset, dataset.split_val, commands, config.weight_decay, config.threshold
        )
        metrics.train_loss.append(tr_loss)
        metrics.val_loss.append(va_loss)
        metrics.train_acc.append(tr_acc)
        metrics.val_acc.append(va_acc)
        if va_loss < best[0]:
            best = (va_loss, epoch, params.copy())

    metrics.best_epoch = best[1]
    model.set_flat(best[2])
    metrics.test_loss, metrics.test_acc = evaluate_mem(
        model, dataset, dataset.split_test, commands, config.weight_decay, config.threshold
    )
    return model, metrics


def shuffle_labels(dataset: MemDataset, seed: int) -> MemDataset:
    """Leakage control: permute labels within the matched/mismatched pairs.

    Only the paired goal samples (a 50/50 population) are shuffled and
    kept; including the all-mismatched null samples would floor accuracy
    at their base rate instead of at chance.
    """
    rng = np.random.default_rng(seed)
    paired = np.flatnonzero(dataset.obs_label[dataset.sample_obs] >= 0)
    labels = dataset.sample_label.copy()
    labels[paired] = labels[paired][rng.permutation(paired.size)]
    keep_mask = np.zeros(dataset.n_samples(), dtype=bool)
    keep_mask[paired] = True
    remap = np.cumsum(keep_mask) - 1
    return MemDataset(
        spatial=dataset.spatial,
        nonspatial=dataset.nonspatial,
        obs_label=dataset.obs_label,
        obs_counters=dataset.obs_counters,
        sample_obs=dataset.sample_obs[keep_mask],
        sample_cmd=dataset.sample_cmd[keep_mask],
        sample_label=labels[keep_mask],
        split_train=remap[dataset.split_train[keep_mask[dataset.split_train]]].astype(np.int32),
        split_val=remap[dataset.split_val[keep_mask[dataset.split_val]]].astype(np.int32),
        split_test=remap[dataset.split_test[keep_mask[dataset.split_test]]].astype(np.int32),
        quotas=dataset.quotas,
        seed=seed,
    )
