"""Mutual embedding of game states and natural-language commands.

Two encoders project into one shared space: observations go through the
conv/dense state encoder, commands go word-vector by word-vector through
an LSTM. Both encoders give a row the same bits in any batch of two or
more rows: a row of such a product does not depend on the other rows
(OpenBLAS; the state encoder, one conv GEMM per observation, checked at 2
to 511 rows against 512, the command LSTM's products at 2 to 199 rows
against 2), and a one-row product can round differently. So commands are
encoded one way for the loss, the scorer and the shaping bonus: one LSTM
sequence pass over the set, ``MemModel.encode_command_batch``, which runs
a one-command set as two copies of it. ``encode_command`` is its
one-command call.

States do not depend on the commands, so a state row encoded once serves
every later scoring on the same parameters: each ``MemModel`` keeps the
rows of every observation ``evaluate_mem`` has encoded under its current
parameters and dataset, and a call encodes only the observations the store
lacks, in blocks that run a lone row as two copies (see ``evaluate_mem``).

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
import math
import weakref
from dataclasses import dataclass, field, fields
from importlib import resources

import numpy as np

from . import check_int, check_rate
from . import env as E
from .lexicon import WordEmbeddings, tokenize
from .nn import (
    AdamState,
    Dense,
    LSTM,
    Model,
    StateEncoder,
    adam_step,
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
    tokens: list[str] = field(init=False)

    def __post_init__(self):
        self.tokens = tokenize(self.text)
        if not self.tokens:
            raise ValueError(f"command {self.id!r} has no tokens: {self.text!r}")


def load_commands(path=None, alternate: bool = False) -> list[CommandSpec]:
    """Command set as shipped, or read from ``path``; ids align with the
    detector event ids. A file that is not a JSON list of objects, each
    with an integer ``id`` and a string ``text``, with ids dense from 0 and
    each below ``env.N_COMMANDS`` (an id with a detector event), raises
    ``ValueError``."""
    if path is None:
        path = "alternate_commands.json" if alternate else "original_commands.json"
        raw = resources.files("microbuild.data").joinpath(path).read_text(encoding="utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    entries = json.loads(raw)  # a JSONDecodeError is a ValueError
    if not isinstance(entries, list) or not all(
        isinstance(c, dict) and type(c.get("id")) is int and isinstance(c.get("text"), str) for c in entries
    ):
        raise ValueError(f"{path}: not a JSON list of objects with an integer id and a string text")
    specs = sorted((CommandSpec(id=c["id"], text=c["text"]) for c in entries), key=lambda c: c.id)
    if [c.id for c in specs] != list(range(len(specs))):
        raise ValueError(f"{path}: command ids must be dense starting at 0")
    if len(specs) > E.N_COMMANDS:
        raise ValueError(f"{path}: command ids must be below {E.N_COMMANDS}, the detector events")
    return specs


def mem_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two embedding vectors."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return math.sqrt(d.dot(d))  # what np.linalg.norm computes for a vector


class MemModel(Model):
    """Paired state and command encoders with shared output dimension. With
    no ``rng`` the weights start at zero, for callers that load them.

    Each model holds one store of state rows: those ``evaluate_mem`` has
    encoded under the current parameters and dataset, with that key, each
    with the bits of a batch of two or more rows. It belongs to the instance
    and is never shared with another model, even one with the same
    parameters; ``train_mem`` only hands a model back the store of its own
    best epoch.
    """

    def __init__(self, word_embeddings: WordEmbeddings, rng: np.random.Generator | None = None):
        self.word_embeddings = word_embeddings  # frozen; not part of theta
        self.encoder = StateEncoder(E.OBS_CHANNELS, E.GRID, E.OBS_NONSPATIAL, NONSPATIAL_HIDDEN, rng)
        self.state_proj = Dense(self.encoder.out_dim, EMBED_DIM, rng)
        self.cmd_lstm = LSTM(word_embeddings.dim, EMBED_DIM, rng)
        self.cmd_proj = Dense(EMBED_DIM, EMBED_DIM, rng)
        self.layers = [self.encoder, self.state_proj, self.cmd_lstm, self.cmd_proj]
        self._own_params()
        self._state_store: tuple | None = None  # (digest, spatial ref, nonspatial ref, rows, held); see ``evaluate_mem``

    def spec(self) -> dict:
        return {
            "kind": "mutual-embedding",
            "embed_dim": EMBED_DIM,
            "modules": [m.spec() for m in [*self.encoder.layers, *self.layers[1:]]],
            "word": self.word_embeddings.spec(),
        }

    def save(self, path) -> None:
        flat = np.concatenate([self.flat_params, self.word_embeddings.vectors.ravel()])
        save_model(path, self.spec(), flat)

    @classmethod
    def load(cls, path) -> "MemModel":
        spec, flat = load_model(path)
        if spec.get("kind") != "mutual-embedding":
            raise ValueError(f"{path}: not a mutual-embedding model file")
        n, dim = WordEmbeddings.spec_shape(spec.get("word"))
        split = max(flat.size - n * dim, 0)  # the word vectors end the payload
        model = cls(WordEmbeddings.from_spec(spec["word"], flat[split:]))
        if model.spec() != spec:
            raise ValueError(f"{path}: architecture spec mismatch")
        model.set_flat(flat[:split])
        return model

    # ------------------------------------------------------------ forward

    def encode_state_batch(self, spatial: np.ndarray, nonspatial: np.ndarray) -> np.ndarray:
        dt = self.flat_params.dtype
        features = self.encoder.forward(spatial.astype(dt, copy=False), nonspatial.astype(dt, copy=False))
        return self.state_proj.forward(features)

    def backward_state_batch(self, g_out: np.ndarray) -> None:
        self.encoder.backward(self.state_proj.backward(g_out))

    def encode_state(self, obs: E.Observation) -> np.ndarray:
        return self.encode_state_batch(obs.spatial[None], obs.nonspatial[None])[0]

    def encode_command(self, command: CommandSpec) -> np.ndarray:
        """The command's vector: ``encode_command_batch([command])[0]``."""
        return self.encode_command_batch([command])[0]

    def encode_command_batch(self, commands: list[CommandSpec]) -> np.ndarray:
        """The command encoder: each command's vector, (U, embed_dim), from one LSTM sequence pass.

        The word vectors are right-padded with zeros to the longest command;
        each row's hidden state is read at its own last token. One command
        runs as two copies, because a one-row product can round differently.
        Caches the pass for ``backward_command``.
        """
        n = len(commands)
        if n == 1:
            commands = commands * 2
        lengths = np.array([len(c.tokens) for c in commands])
        xs = np.zeros((lengths.max(), len(commands), self.word_embeddings.dim), dtype=self.flat_params.dtype)
        for u, c in enumerate(commands):
            xs[: lengths[u], u] = self.word_embeddings.embed_tokens(c.tokens)
        h0, c0 = self.cmd_lstm.zero_state(len(commands))
        hs = self.cmd_lstm.forward_seq(xs, h0, c0)  # (T_max, U, embed_dim)
        self._cmd_last = lengths - 1
        return self.cmd_proj.forward(hs[self._cmd_last, np.arange(len(commands))])[:n]

    def backward_command(self, g_out: np.ndarray) -> None:
        """Backward of ``encode_command_batch`` for its (U, embed_dim) output gradient.

        Each row's gradient enters the recurrence at that row's last token,
        so the padded steps after it get none; a one-command pass's second
        copy gets none either.
        """
        last = self._cmd_last
        if g_out.shape[0] < last.size:
            g_out = np.concatenate([g_out, np.zeros_like(g_out)])
        g_h = self.cmd_proj.backward(g_out)
        gh_seq = np.zeros((last.max() + 1, last.size, EMBED_DIM), dtype=g_h.dtype)
        gh_seq[last, np.arange(last.size)] = g_h
        self.cmd_lstm.backward_seq(gh_seq)


@dataclass
class MemBatch:
    """Dense arrays for one loss evaluation."""

    spatial: np.ndarray  # (B, 14, 16, 16)
    nonspatial: np.ndarray  # (B, 10)
    command_ids: np.ndarray  # (B,)
    labels: np.ndarray  # (B,) 0 matched / 1 mismatched


def weight_penalty(model: MemModel, weight_decay: float) -> float:
    """``weight_decay`` times the sum of squared parameters, summed in float64 in one pass."""
    return weight_decay * float(np.square(model.flat_params, dtype=np.float64).sum())


def mem_loss(
    batch: MemBatch,
    model: MemModel,
    commands: list[CommandSpec],
    weight_decay: float,
) -> tuple[float, np.ndarray]:
    """Contrastive distance loss and flat parameter gradients.

    The states go through the encoder as one batch, and the whole command
    set through ``MemModel.encode_command_batch`` and back in one BPTT; a
    command no sample names gets a zero gradient. The distance derivative
    at exactly zero distance is defined as zero. The gradient is
    ``model.flat_grads``, valid until the model's next backward.
    """
    if batch.labels.size == 0:
        raise ValueError("empty batch")
    n = batch.labels.shape[0]
    model.zero_grads()
    xs = model.encode_state_batch(batch.spatial, batch.nonspatial)  # (B, D)

    xc = model.encode_command_batch(commands)[batch.command_ids]

    diff = (xs - xc).astype(np.float64)
    dist = np.sqrt((diff * diff).sum(axis=1))
    labels = batch.labels.astype(np.float64)
    err = dist - labels
    loss = float((err * err).mean())
    if weight_decay:
        loss += weight_penalty(model, weight_decay)

    safe = np.where(dist > 0.0, dist, 1.0)
    scale = np.where(dist > 0.0, 2.0 * err / (n * safe), 0.0)
    g_diff = (scale[:, None] * diff).astype(model.flat_params.dtype)  # d loss / d xs
    model.backward_state_batch(g_diff)
    g_cmd = np.zeros((len(commands), g_diff.shape[1]), dtype=g_diff.dtype)
    np.subtract.at(g_cmd, batch.command_ids, g_diff)  # d loss / d xc, summed per command
    model.backward_command(g_cmd)
    grads = model.flat_grads
    if weight_decay:
        grads += 2.0 * weight_decay * model.flat_params
    return loss, grads


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

    A dataset is immutable: every array is read-only, and an array passed in
    that does not own its data (a view) is copied first, so no other name can
    write to it. ``evaluate_mem`` relies on this when it reuses state rows.
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

    def __post_init__(self):
        for name, arr in self.arrays().items():
            if arr.base is not None:
                arr = arr.copy()
                setattr(self, name, arr)
            arr.flags.writeable = False

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
        """The dataset's arrays by field name, in the order they are hashed."""
        return {f.name: getattr(self, f.name) for f in fields(MemDataset)}

    def hash(self) -> str:
        """sha256 of the arrays' bytes in ``arrays()`` order, each read in place as a buffer."""
        h = hashlib.sha256()
        for arr in self.arrays().values():
            h.update(np.ascontiguousarray(arr))
        return h.hexdigest()


NULL_WINDOW = 10  # steps with no detector fire before an obs counts as null
NULL_STRIDE = 9  # keep every k-th eligible null transition
EXPERT_MIX = 0.3  # chance that a self-play step takes the scripted expert's action
BUDGET_STEPS = 4_000_000  # self-play steps allowed to fill every quota


def generate_dataset(quotas: Quotas, seed: int) -> MemDataset:
    """Collect labeled transitions from seeded self-play.

    The behavior policy takes a scripted-expert action with probability
    ``EXPERT_MIX`` and a uniform legal action otherwise (0 would be a pure
    random agent). Raises if any command's quota cannot be met within
    ``BUDGET_STEPS``, naming the starving command. Both constants are read
    at call time.

    The observation arrays are allocated at their final size before play:
    the ``k``-th goal observation of command ``cid`` is written to row
    ``cid * per_command + k`` and the ``k``-th null to row ``n_goal + k``
    as it is kept, so play holds one copy of each observation and only a
    count per command and one for the nulls beside them. A ``per_command``
    below 1, or a ``nulls`` or ``seed`` below 0, or any of them not an
    integer, raises ``ValueError`` before play.
    """
    check_int("per_command", quotas.per_command, 1)
    check_int("nulls", quotas.nulls, 0)
    check_int("seed", seed, 0)
    n_commands = E.N_COMMANDS
    seq = np.random.SeedSequence(seed)
    rng_policy, rng_pairs, rng_split, rng_env = [np.random.default_rng(s) for s in seq.spawn(4)]

    # observation rows: goals per command, then nulls
    n_goal = n_commands * quotas.per_command
    n_obs = n_goal + quotas.nulls
    spatial = np.empty((n_obs, E.OBS_CHANNELS, E.GRID, E.GRID), dtype=np.uint8)
    nonspatial = np.empty((n_obs, E.OBS_NONSPATIAL), dtype=np.float32)
    ids = np.append(np.arange(n_commands), -1).astype(np.int8)
    obs_label = np.repeat(ids, [quotas.per_command] * n_commands + [quotas.nulls])
    obs_counters = np.empty((n_obs, 14), dtype=np.int32)
    n_kept = [0] * n_commands  # goal observations kept per command
    n_nulls = 0
    steps_used = 0
    null_tick = 0

    # lists still short of their quota; each list fills up exactly once
    unmet = sum(n < quotas.per_command for n in n_kept) + (n_nulls < quotas.nulls)
    while unmet:
        if steps_used >= BUDGET_STEPS:
            fill = {E.EVENT_NAMES[i]: n for i, n in enumerate(n_kept)}
            starving = min(range(n_commands), key=lambda i: n_kept[i])
            raise DatasetError(
                f"step budget {BUDGET_STEPS} exhausted; command "
                f"'{E.EVENT_NAMES[starving]}' has {n_kept[starving]}/{quotas.per_command} "
                f"(fills: {fill}, nulls: {n_nulls}/{quotas.nulls})"
            )
        env_seed = int(rng_env.integers(2**31))
        state = E.reset(env_seed)
        ctr = E.counters(state)
        steps_since_event = NULL_WINDOW  # episode start counts as quiet
        while state.step < E.HORIZON and unmet:
            if rng_policy.random() < EXPERT_MIX:
                action = E.scripted_expert(state)
            else:
                action = E.random_legal_action(state, rng_policy)
            prev, prev_ctr = state, ctr
            state, _, _ = E.step(state, action)
            ctr = E.counters(state)
            steps_used += 1
            events = E.detect(prev_ctr, ctr)
            slot = None
            if events:
                steps_since_event = 0
                if len(events) == 1:
                    (ev,) = events
                    if n_kept[ev] < quotas.per_command:
                        slot = ev * quotas.per_command + n_kept[ev]
                        n_kept[ev] += 1
                        if n_kept[ev] == quotas.per_command:
                            unmet -= 1
            else:
                steps_since_event += 1
                if steps_since_event >= NULL_WINDOW and n_nulls < quotas.nulls:
                    null_tick += 1
                    if null_tick % NULL_STRIDE == 0:
                        slot = n_goal + n_nulls
                        n_nulls += 1
                        if n_nulls == quotas.nulls:
                            unmet -= 1
            if slot is not None:
                obs = E.encode_observation(prev, state)
                spatial[slot], nonspatial[slot], obs_counters[slot] = obs.spatial, obs.nonspatial, prev_ctr + ctr

    # samples: matched + mismatched per goal obs, one mismatch per null obs;
    # a sample is matched exactly when its command is its observation's label
    goal_cmd = obs_label[:n_goal]
    wrong = rng_pairs.integers(n_commands - 1, size=n_goal)
    wrong += wrong >= goal_cmd  # any command but the goal's
    null_cmd = rng_pairs.integers(n_commands, size=quotas.nulls)
    sample_obs = np.concatenate([np.repeat(np.arange(n_goal), 2), np.arange(n_goal, n_obs)]).astype(np.int32)
    sample_cmd = np.concatenate([np.stack([goal_cmd, wrong], axis=1).ravel(), null_cmd]).astype(np.int8)
    sample_label = (sample_cmd != obs_label[sample_obs]).astype(np.int8)

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
    )


# ---------------------------------------------------------------- training


@dataclass
class MemTrainConfig:
    lr: float = 5e-4
    batch: int = 32
    epochs: int = 20
    weight_decay: float = 2.5e-3


@dataclass
class MemMetrics:
    train_loss: list[float] = field(default_factory=list)  # per epoch: the mean of its minibatch losses
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    best_epoch: int = -1
    test_acc: float = float("nan")
    test_loss: float = float("nan")


def _check_command_ids(dataset: MemDataset, commands: list[CommandSpec]) -> None:
    """Raise ``ValueError`` unless ``commands`` holds every command id the dataset's samples name."""
    top = int(dataset.sample_cmd.max())
    if top >= len(commands):
        raise ValueError(f"the dataset's samples name command id {top}, but there are {len(commands)} commands")


_ENCODE_BLOCK = 32  # distinct observations per state-encoder call in ``evaluate_mem``, as in a training batch


def _state_store(model: MemModel, dataset: MemDataset) -> tuple[np.ndarray, np.ndarray]:
    """The model's stored state rows and held mask, one entry per observation
    of ``dataset``, under its current parameters; an empty store when the key
    misses (see ``evaluate_mem``)."""
    digest = hashlib.sha256(model.flat_params).digest()
    store = model._state_store
    if store is None or store[0] != digest or store[1]() is not dataset.spatial or store[2]() is not dataset.nonspatial:
        model._state_store = store = None  # free the earlier rows before the new ones are allocated
        n_obs = dataset.spatial.shape[0]
        rows = np.empty((n_obs, EMBED_DIM), dtype=model.flat_params.dtype)
        store = (digest, weakref.ref(dataset.spatial), weakref.ref(dataset.nonspatial), rows, np.zeros(n_obs, bool))
        model._state_store = store
    return store[3], store[4]


def evaluate_mem(
    model: MemModel,
    dataset: MemDataset,
    sample_idx: np.ndarray,
    commands: list[CommandSpec],
    weight_decay: float,
    threshold: float = DEFAULT_THRESHOLD,
    chunk: int = 512,
) -> tuple[float, float]:
    """(mean loss incl. penalty, accuracy) over the given sample indices.

    Every sample is scored from its observation's state row, and each
    distinct observation among the samples is encoded at most once.
    A ``chunk`` that is not an integer of at least 1, a ``threshold`` that
    is not finite and positive, a ``weight_decay`` that is not finite and
    non-negative or a command list that misses an id the dataset's samples
    name raises ``ValueError`` before anything is encoded.

    A call encodes only the distinct observations the model's store (below)
    lacks, in blocks of up to ``_ENCODE_BLOCK``: one sample per observation
    goes through ``dataset.batch``, and the block through
    ``encode_state_batch``. A one-row block runs as two copies of its row and
    keeps the first result, as ``encode_command_batch`` runs one command. So
    every row comes from a batch of two or more rows and has the bits it has
    in any such batch (see the module docstring): a stored row has the bits
    a new model would give it. ``chunk`` only groups the scoring: the
    squared errors are summed in float64 per ``chunk`` samples, in the given
    order.

    The state rows do not depend on the commands, so the model keeps every
    row it has encoded under its current parameters and dataset: a row
    array with one row per observation of the dataset and a mask of the rows
    held. A later call, with any command set and any sample list, takes the
    rows the store holds; a call that needs no new row makes no
    ``dataset.batch`` or ``encode_state_batch`` call and only encodes the
    commands and scores. The store's key has two parts:

    - the sha256 digest of ``model.flat_params``' bytes, so ``set_flat``, an
      optimizer step or an in-place write to a weight misses, as in the conv
      trunk's memo. A digest (about 0.1 ms) rather than a copy of the bytes
      (158 KB, held per model and made again by every call) keeps a
      process's peak memory where it was;
    - ``dataset.spatial`` and ``dataset.nonspatial``, held by weak reference
      and compared by identity, so the model never keeps a dataset alive and
      a reused ``id`` never matches. Identity suffices because a dataset's
      arrays are read-only (``MemDataset``); a content hash would cost about
      as much as a block's encoding.

    A call whose key misses drops the store before it allocates an empty
    one, so the store never holds a row of earlier parameters or of another
    dataset. ``train_mem`` keeps its best epoch's store beside that epoch's
    parameters and restores both together.

    Memory: one block's float32 observations and conv1 patch matrix (about
    0.46 and 1.6 MB at 32 rows, the size of a training batch's) set the
    peak, whatever the number of observations. A block's frames are freed
    before the next block's are gathered, and ``Conv2d`` frees the last
    patch matrix before it gathers the next, so no two blocks' buffers are
    held at once. Beyond them only the store (257 bytes per observation of
    the dataset: its row and its mask entry) and the index arrays (tens of
    bytes per sample) grow.
    """
    check_int("chunk", chunk, 1)
    check_rate("threshold", threshold)
    check_rate("weight_decay", weight_decay, zero_ok=True)
    if sample_idx.size == 0:
        raise ValueError("empty sample set")
    _check_command_ids(dataset, commands)
    cmd_vecs = model.encode_command_batch(commands)
    sample_obs = dataset.sample_obs[sample_idx]
    obs, first = np.unique(sample_obs, return_index=True)
    states, held = _state_store(model, dataset)
    lacking = np.flatnonzero(~held[obs])  # positions in ``obs`` of the rows to encode
    for start in range(0, lacking.size, _ENCODE_BLOCK):
        block = lacking[start : start + _ENCODE_BLOCK]
        batch = dataset.batch(sample_idx[first[np.resize(block, max(block.size, 2))]])  # a lone row runs twice
        states[obs[block]] = model.encode_state_batch(batch.spatial, batch.nonspatial)[: block.size]
        del batch  # free this block's frames before the next block's are gathered
    held[obs] = True
    total_sq, correct = 0.0, 0
    for start in range(0, sample_idx.size, chunk):
        part = sample_idx[start : start + chunk]
        labels = dataset.sample_label[part]
        diff = (states[sample_obs[start : start + chunk]] - cmd_vecs[dataset.sample_cmd[part]]).astype(np.float64)
        dist = np.sqrt((diff * diff).sum(axis=1))
        err = dist - labels
        total_sq += float((err * err).sum())
        correct += int(((dist < threshold) == (labels == 0)).sum())
    return total_sq / sample_idx.size + weight_penalty(model, weight_decay), correct / sample_idx.size


def train_mem(
    dataset: MemDataset,
    word_embeddings: WordEmbeddings,
    commands: list[CommandSpec],
    config: MemTrainConfig,
    seed: int,
) -> tuple[MemModel, MemMetrics]:
    """Adam, in place on the model's parameters, on the contrastive loss;
    returns the minimum-validation snapshot, scored on the test split. The
    snapshot keeps the store of state rows its validation scoring left (see
    ``evaluate_mem``), so the test scoring and every later scoring on the
    returned model start from the validation split's rows. A setting that
    the checks below reject, an empty split, or a command list that misses
    an id the samples name raises ``ValueError`` before the model is built."""
    check_int("epochs", config.epochs, 1)
    check_int("batch", config.batch, 1)
    check_int("seed", seed, 0)
    check_rate("lr", config.lr)
    check_rate("weight_decay", config.weight_decay, zero_ok=True)
    n_train, n_val, n_test = dataset.split_train.size, dataset.split_val.size, dataset.split_test.size
    if 0 in (n_train, n_val, n_test):
        raise ValueError(f"empty split: train/val/test hold {n_train}/{n_val}/{n_test} samples")
    _check_command_ids(dataset, commands)
    seq = np.random.SeedSequence(seed)
    rng_init, rng_order = [np.random.default_rng(s) for s in seq.spawn(2)]
    model = MemModel(word_embeddings, rng_init)
    adam = AdamState(model.n_params(), lr=config.lr)
    metrics = MemMetrics()
    best = (np.inf, -1, model.get_flat(), None)  # (val loss, epoch, parameters, state store)

    train_idx = dataset.split_train
    for epoch in range(config.epochs):
        order = rng_order.permutation(train_idx.size)
        losses = []
        for start in range(0, train_idx.size, config.batch):
            rows = train_idx[order[start : start + config.batch]]
            # the batch is freed when mem_loss returns, before the next one is gathered
            loss, grads = mem_loss(dataset.batch(rows), model, commands, config.weight_decay)
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"training diverged at epoch {epoch} batch {start // config.batch}: loss={loss}"
                )
            adam_step(model.flat_params, grads, adam)
            losses.append(loss)
        va_loss, va_acc = evaluate_mem(model, dataset, dataset.split_val, commands, config.weight_decay)
        metrics.train_loss.append(float(np.mean(losses)))
        metrics.val_loss.append(va_loss)
        metrics.val_acc.append(va_acc)
        if va_loss < best[0]:
            best = (va_loss, epoch, model.get_flat(), model._state_store)

    metrics.best_epoch = best[1]
    model.set_flat(best[2])
    model._state_store = best[3]  # keyed by the digest of these parameters
    metrics.test_loss, metrics.test_acc = evaluate_mem(
        model, dataset, dataset.split_test, commands, config.weight_decay
    )
    return model, metrics
