"""The benchmark's workloads, run through the public API of ``microbuild``.

A workload has a set-up (everything its training stage consumes) and a
round (the training stage, then the evaluation stage). Within a run the
same seed-derived inputs go through every round, so the rounds repeat the
same work bit for bit.

Timing: laps are time stamps taken where the program hands control to an
object the benchmark passed in: the environment's ``step`` for the agents,
the dataset's ``batch`` for the embedding. On a shared 2-vCPU host the
speed swings by up to 2x over seconds (see README.md), so a stage is not
timed by one repeat.
Every round repeats the same laps, so each lap is given its fastest
round's time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time

import numpy as np

from microbuild import agents as A
from microbuild import env as E
from microbuild import lexicon as L
from microbuild import mem as M

import checks as C

SKIPGRAM_EPOCHS = 10
HORIZON = 256  # agent episode length, env steps


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def best_time(marks_per_round: list[list[float]]) -> float:
    """Sum over laps of the fastest round's time for the lap.

    ``marks`` are [stage start, lap, lap, ..., stage end], and every round
    must have made the same laps: the rounds repeat the same work.
    """
    if len({len(m) for m in marks_per_round}) != 1:
        raise RuntimeError("identical rounds made different numbers of laps")
    pieces = np.diff(np.array(marks_per_round), axis=1)
    return float(pieces.min(axis=0).sum())


@dataclasses.dataclass
class Stage:
    marks: list[float]  # [start, laps..., end]
    work: float  # units of work done in the stage


@dataclasses.dataclass
class Round:
    train: Stage
    evals: list[Stage]
    fingerprint: str  # must be equal across the rounds of a run
    outputs: dict | None


def best_lap_rate(stages_per_round: list[list[Stage]]) -> float:
    """Work per second when every lap takes its fastest round's time."""
    work = sum(s.work for s in stages_per_round[0])
    seconds = sum(best_time([r[i].marks for r in stages_per_round]) for i in range(len(stages_per_round[0])))
    return work / seconds


class LappedEpisode(E.Episode):
    """The game, plus a lap at every step and the score of every finished episode."""

    def __init__(self, seed: int, horizon: int, laps: list, scores: list):
        super().__init__(seed, horizon)
        self._laps, self._scores = laps, scores

    def step(self, action):
        out = super().step(action)
        self._laps.append(time.perf_counter())
        if out[2]:
            self._scores.append(self.score)
        return out


@dataclasses.dataclass
class LappedDataset(M.MemDataset):
    """The embedding dataset, plus a lap at every batch it hands out."""

    laps: list = dataclasses.field(default_factory=list)

    @classmethod
    def of(cls, ds: M.MemDataset) -> "LappedDataset":
        return cls(**{f.name: getattr(ds, f.name) for f in dataclasses.fields(M.MemDataset)})

    def batch(self, sample_idx):
        self.laps.append(time.perf_counter())
        return super().batch(sample_idx)


def seeds_of(seed: int) -> dict[str, int]:
    names = ("skipgram", "dataset", "mem", "agent", "eval")
    return dict(zip(names, (int(s) for s in np.random.SeedSequence(seed).generate_state(len(names)))))


def mem_checks(model: M.MemModel, ds: M.MemDataset, test_acc: dict, originals, alternates) -> list[str]:
    """Grounding checks on the test split, for both command sets."""
    idx = ds.split_test
    obs = ds.sample_obs[idx]
    states = np.stack(
        [model.encode_state(E.Observation(ds.spatial[i].astype(np.float32), ds.nonspatial[i])) for i in obs]
    )
    vecs = {}
    problems = []
    for name, cmds in (("original", originals), ("alternate", alternates)):
        vecs[name] = np.stack([model.encode_command(c) for c in cmds])
        dist = C.distances(states, vecs[name], ds.sample_cmd[idx].astype(np.int64))
        problems += C.check_grounding(dist, ds.sample_label[idx], test_acc[name], f"{name} commands")
    return problems + C.check_synonyms(vecs["original"], vecs["alternate"])


# ------------------------------------------------------------------ agents


class Narration1W:
    """The paper's method on one worker: skip-gram, MEM dataset and MEM, then
    narration-shaped A3C, evaluated with the original and the synonym commands."""

    name = "narration-1w"
    quotas = M.Quotas(per_command=30, nulls=150)
    mem_epochs = 12
    budget = 512  # env steps trained per round
    eval_episodes = 2  # per command set

    def __init__(self, seed: int):
        self.seeds = seeds_of(seed)
        self.laps: list[float] = []
        self.scores: list[float] = []

    def config(self, **kw) -> A.AgentConfig:
        return A.AgentConfig(
            variant="narration",
            horizon=HORIZON,
            base_seed=self.seeds["agent"],
            env_factory=lambda s: LappedEpisode(s, HORIZON, self.laps, self.scores),
            **kw,
        )

    def setup(self) -> dict:
        emb, losses = L.train_skipgram(L.load_bundled_corpus(), L.SkipgramConfig(epochs=SKIPGRAM_EPOCHS), seed=self.seeds["skipgram"])
        ds = M.generate_dataset(self.quotas, seed=self.seeds["dataset"])
        originals, alternates = M.load_commands(), M.load_commands(alternate=True)
        mem, metrics = M.train_mem(ds, emb, originals, M.MemTrainConfig(epochs=self.mem_epochs), seed=self.seeds["mem"])
        fingerprint = digest(emb.vectors, mem.get_flat()) + ds.hash()
        return {"emb": emb, "losses": losses, "ds": ds, "mem": mem, "metrics": metrics,
                "originals": originals, "alternates": alternates, "fingerprint": fingerprint}

    def obs_per_setup(self) -> int:
        return E.N_COMMANDS * self.quotas.per_command + self.quotas.nulls

    def round(self, state) -> Round:
        cfg = self.config(workers=1, total_steps=self.budget, eval_interval=10**9, eval_episodes=1)
        self.laps.clear()
        began = []
        res = A.train(cfg, state["mem"], state["originals"], progress=lambda step: began.append((time.perf_counter(), len(self.laps))))
        end = time.perf_counter()
        (start, first), = began
        train = Stage([start] + self.laps[first:] + [end], len(self.laps) - first)
        evals, rows, scores = [], [], []
        for cmds in (state["originals"], state["alternates"]):
            ecfg = self.config(eval_episodes=self.eval_episodes, eval_seed=self.seeds["eval"] % 2**30)
            self.laps.clear()
            self.scores.clear()
            start = time.perf_counter()
            rows.append(A.evaluate_policy(res.final_params, ecfg, state["mem"], cmds))
            end = time.perf_counter()
            evals.append(Stage([start] + self.laps + [end], len(self.laps)))
            scores.append(list(self.scores))
        fingerprint = digest(res.final_params) + repr(rows)
        return Round(train, evals, fingerprint, {"result": res, "rows": rows, "scores": scores, "steps": train.work})

    def rates(self, rounds: list[Round]) -> tuple[float, float]:
        return best_lap_rate([[r.train] for r in rounds]), best_lap_rate([r.evals for r in rounds])

    def check_setup(self, state) -> list[str]:
        ds, mem = state["ds"], state["mem"]
        cfg = M.MemTrainConfig()
        alt_acc = M.evaluate_mem(mem, ds, ds.split_test, state["alternates"], cfg.weight_decay, C.THRESHOLD)[1]
        test_acc = {"original": state["metrics"].test_acc, "alternate": alt_acc}
        return C.check_skipgram(state["losses"]) + mem_checks(mem, ds, test_acc, state["originals"], state["alternates"])

    def check_round(self, out: dict, state: dict) -> list[str]:
        bonus = out["result"].config.bonus
        problems = C.check_records(out["result"].records, bonus)
        problems += C.check_steps(out["steps"], self.budget)
        for row, scores in zip(out["rows"], out["scores"]):
            problems += C.check_eval_row(row, bonus, scores, HORIZON, E.MARINE_TIME)
        return problems


# --------------------------------------------------------------- grounding


class Grounding:
    """Skip-gram, self-play dataset, MEM training and MEM evaluation; no agents."""

    name = "grounding"
    quotas = M.Quotas(per_command=60, nulls=300)
    mem_epochs = 8
    def __init__(self, seed: int):
        self.seeds = seeds_of(seed)

    def setup(self) -> dict:
        emb, losses = L.train_skipgram(L.load_bundled_corpus(), L.SkipgramConfig(epochs=SKIPGRAM_EPOCHS), seed=self.seeds["skipgram"])
        ds = M.generate_dataset(self.quotas, seed=self.seeds["dataset"])
        return {"emb": emb, "losses": losses, "ds": LappedDataset.of(ds),
                "originals": M.load_commands(), "alternates": M.load_commands(alternate=True),
                "fingerprint": digest(emb.vectors) + ds.hash()}

    def obs_per_setup(self) -> int:
        return E.N_COMMANDS * self.quotas.per_command + self.quotas.nulls

    def round(self, state) -> Round:
        ds = state["ds"]
        cfg = M.MemTrainConfig(epochs=self.mem_epochs)
        ds.laps.clear()
        start = time.perf_counter()
        model, metrics = M.train_mem(ds, state["emb"], state["originals"], cfg, seed=self.seeds["mem"])
        end = time.perf_counter()
        train = Stage([start] + ds.laps + [end], cfg.epochs * ds.split_train.size)
        everything = np.arange(ds.n_samples())
        evals, accs = [], []
        for cmds in (state["originals"], state["alternates"]):
            ds.laps.clear()
            start = time.perf_counter()
            accs.append(M.evaluate_mem(model, ds, everything, cmds, cfg.weight_decay, C.THRESHOLD)[1])
            end = time.perf_counter()
            evals.append(Stage([start] + ds.laps + [end], everything.size))
        fingerprint = digest(model.get_flat()) + repr(accs)
        return Round(train, evals, fingerprint, {"model": model, "metrics": metrics})

    def rates(self, rounds: list[Round]) -> tuple[float, float]:
        return best_lap_rate([[r.train] for r in rounds]), best_lap_rate([r.evals for r in rounds])

    def check_setup(self, state) -> list[str]:
        ds = state["ds"]
        splits = {"train": ds.split_train, "val": ds.split_val, "test": ds.split_test}
        return (
            C.check_skipgram(state["losses"])
            + C.check_dataset_labels(ds.obs_label, ds.obs_counters, ds.nonspatial)
            + C.check_splits(ds.sample_obs, splits)
        )

    def check_round(self, out: dict, state: dict) -> list[str]:
        ds, model = state["ds"], out["model"]
        alt_acc = M.evaluate_mem(model, ds, ds.split_test, state["alternates"], M.MemTrainConfig().weight_decay, C.THRESHOLD)[1]
        test_acc = {"original": out["metrics"].test_acc, "alternate": alt_acc}
        return mem_checks(model, ds, test_acc, state["originals"], state["alternates"])


WORKLOADS = {w.name: w for w in (Narration1W, Grounding)}
