"""Each output check holds on good output and fails on a corrupted copy.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks as C  # noqa: E402
from microbuild import agents as A  # noqa: E402
from microbuild import env as E  # noqa: E402
from microbuild import mem as M  # noqa: E402
from workloads import best_time  # noqa: E402


@pytest.fixture(scope="module")
def dataset():
    return M.generate_dataset(M.Quotas(per_command=6, nulls=30), seed=4)


@pytest.fixture(scope="module")
def trained():
    scores = []
    cfg = A.AgentConfig(variant="subtask", workers=1, total_steps=96, horizon=40, eval_interval=10**9,
                        eval_episodes=1, env_factory=lambda s: E.Episode(s, 40))
    res = A.train(cfg, None, M.load_commands())
    ecfg = A.AgentConfig(variant="subtask", horizon=40, eval_episodes=3,
                         env_factory=lambda s: _ScoredEpisode(s, 40, scores))
    row = A.evaluate_policy(res.final_params, ecfg, None, M.load_commands())
    return res, row, scores


class _ScoredEpisode(E.Episode):
    def __init__(self, seed, horizon, scores):
        super().__init__(seed, horizon)
        self._scores = scores

    def step(self, action):
        out = super().step(action)
        if out[2]:
            self._scores.append(self.score)
        return out


def _counters(s: E.GameState) -> list[int]:
    return [s.n_workers, s.n_depots, s.n_barracks, s.n_marines, s.sel_kind, s.sel_pos[0], s.sel_pos[1]]


def test_own_detector_agrees_with_the_game_on_self_play():
    rng = np.random.default_rng(0)
    state = E.reset(3, 300)
    seen = set()
    while state.step < 300:
        action = E.scripted_expert(state) if rng.random() < 0.5 else E.random_legal_action(state, rng)
        prev, state = state, E.step(state, action)[0]
        got = C.events_from_counters(np.array(_counters(prev)), np.array(_counters(state)))
        assert got == set(E.detect(prev, state))
        seen |= got
    assert seen == set(range(E.N_COMMANDS))


def test_labels(dataset):
    assert C.check_dataset_labels(dataset.obs_label, dataset.obs_counters, dataset.nonspatial) == []
    relabelled = dataset.obs_label.copy()
    relabelled[0] = (relabelled[0] + 1) % E.N_COMMANDS
    assert C.check_dataset_labels(relabelled, dataset.obs_counters, dataset.nonspatial)
    counters = dataset.obs_counters.copy()
    counters[-1, 7 + C.DEPOTS] += 1  # a null observation that builds a depot
    assert C.check_dataset_labels(dataset.obs_label, counters, dataset.nonspatial)
    features = dataset.nonspatial.copy()
    features[0, 6] += 1 / 32  # one more marine than the counters say
    assert C.check_dataset_labels(dataset.obs_label, dataset.obs_counters, features)


def test_splits(dataset):
    splits = {"train": dataset.split_train, "val": dataset.split_val, "test": dataset.split_test}
    assert C.check_splits(dataset.sample_obs, splits) == []
    # move one of a goal observation's two samples into the test split
    first = int(dataset.split_train[0])
    leaked = dict(splits, train=splits["train"][1:], test=np.append(splits["test"], first))
    assert any("share" in p for p in C.check_splits(dataset.sample_obs, leaked))
    dropped = dict(splits, test=splits["test"][1:])
    assert C.check_splits(dataset.sample_obs, dropped)


def test_grounding():
    labels = np.array([0, 0, 0, 1, 1, 1])
    dist = np.array([0.2, 0.3, 0.7, 0.9, 0.3, 1.0])  # 4 of 6 right, majority rate 1/2
    assert C.check_grounding(dist, labels, 4 / 6, "x") == []
    assert any("reported" in p for p in C.check_grounding(dist, labels, 5 / 6, "x"))
    all_matched = np.full(6, 0.1)
    assert any("majority" in p for p in C.check_grounding(all_matched, labels, 3 / 6, "x"))
    swapped = np.array([0.9, 0.95, 0.6, 0.6, 0.6, 0.3])
    assert any("mean distance" in p for p in C.check_grounding(swapped, labels, 1 / 6, "x"))


def test_grounding_allows_threshold_ties():
    labels = np.array([0, 1, 1, 1])
    dist = np.array([C.THRESHOLD - 1e-6, 0.9, 0.9, 0.9])
    assert C.check_grounding(dist, labels, 0.75, "x") == []  # batched encode put it just above


def test_synonyms():
    originals = np.eye(5)
    assert C.check_synonyms(originals, originals + 0.01) == []
    assert C.check_synonyms(originals, originals[[1, 0, 2, 3, 4]])


def test_skipgram():
    assert C.check_skipgram([3.0, 2.0, 1.5]) == []
    assert C.check_skipgram([1.5, 2.0, 3.0])
    assert C.check_skipgram([])


def test_records(trained):
    res, _, _ = trained
    assert C.check_records(res.records, 1.0) == []
    bad = copy.deepcopy(res.records)
    bad[0].shaped_return += 1.0
    assert C.check_records(bad, 1.0)
    assert C.check_records([], 1.0)


def test_eval_row(trained):
    _, row, scores = trained
    assert C.check_eval_row(row, 1.0, scores, 40, E.MARINE_TIME) == []
    assert C.check_eval_row(dict(row, mean_shaped=row["mean_shaped"] + 0.5), 1.0, scores, 40, E.MARINE_TIME)
    assert C.check_eval_row(row, 1.0, scores[:-1], 40, E.MARINE_TIME)
    assert C.check_eval_row(dict(row, mean_score=row["mean_score"] + 1), 1.0, scores, 40, E.MARINE_TIME)
    over = [40 // E.MARINE_TIME + 1] * len(scores)
    assert C.check_eval_row(dict(row, mean_score=over[0], mean_shaped=over[0] + row["mean_completions"]),
                            1.0, over, 40, E.MARINE_TIME)


def test_steps_and_repeats():
    assert C.check_steps(512, 512) == []
    assert C.check_steps(480, 512)
    assert C.check_same(["a", "a"], "x") == []
    assert C.check_same(["a", "b"], "x")


def test_best_time_takes_the_fastest_repeat_of_each_lap():
    a = [0.0, 1.0, 2.0, 3.0, 3.5]  # start, 3 laps, end
    b = [10.0, 10.5, 12.0, 12.5, 14.0]
    assert best_time([a, b]) == pytest.approx(0.5 + 1.0 + 0.5 + 0.5)
    with pytest.raises(RuntimeError):
        best_time([a, b[:-1]])
