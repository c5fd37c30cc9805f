"""The learnability ladder: tasks the unshaped learner must learn within a
fixed budget, so a change to the learner that keeps its gradients close
but breaks what it learns fails here.

Each rung is a stand-in game passed through ``AgentConfig.env_factory``,
as ``test_agents.BanditEnv`` is, and trained with the ``none`` variant at
the default config on one worker and one seed. Its pass rule was written
before it was first run. A rung that later fails is a fault of the change
that broke it; its rule is not loosened. The third rung, the marine loop
with depots on the real game, takes about a minute and runs as
``tools/ladder.py``.
"""

from __future__ import annotations

import numpy as np

from microbuild import agents as A
from microbuild import env as E

EPISODE = 64  # steps per episode of both rungs


def ladder_run(env_factory, total_steps: int, seed: int = 0) -> list[float]:
    """Mean eval scores (8 episodes each) at step 0, every quarter of
    ``total_steps`` and the end, for ``none`` trained at the default config."""
    cfg = A.AgentConfig(
        variant="none", workers=1, total_steps=total_steps, base_seed=seed,
        eval_interval=total_steps // 4, eval_episodes=8, env_factory=env_factory,
    )
    return [row["mean_score"] for row in A.train(cfg).eval_rows]


class DelayedMarineEnv:
    """A fixed observation, every action id legal and 64-step episodes;
    TRAIN_MARINE pays 1 ``MARINE_TIME`` (15) steps after it is played, if
    the episode lasts that long. The best score is 49 of 64."""

    def __init__(self, seed: int):
        self.obs = E.encode_observation(None, E.reset(seed))
        self.t = 0
        self.score = 0.0
        self.due = np.zeros(EPISODE + E.MARINE_TIME + 1)  # marines finishing at each step

    def observe(self):
        return self.obs

    def legal_mask(self):
        return np.ones(E.N_ACTIONS, bool)

    def step(self, action):
        self.t += 1
        self.due[self.t + E.MARINE_TIME] += action.kind == E.A_TRAIN_MARINE
        reward = float(self.due[self.t])
        self.score += reward
        return self.obs, reward, self.t >= EPISODE, frozenset()


class CuedChainEnv:
    """A fixed game frame, every action id legal and 64-step episodes;
    TRAIN_MARINE pays 1 only when the action before it was SELECT_BARRACKS.
    That selection shows as the game shows one: at one cell of each frame's
    selection layer and in the scalar selection one-hot. Any other action
    clears it. The best score is 32 of 64. ``played`` holds, per step,
    whether the selection showed and whether TRAIN_MARINE was played."""

    def __init__(self, seed: int):
        state = E.reset(seed)
        selected = state.clone()
        selected.sel_kind, selected.sel_pos = E.SEL_BARRACKS, divmod(int(E.free_cells(state)[0]), E.GRID)
        frames = (state, selected)
        self.obs = {(a, b): E.encode_observation(frames[a], frames[b]) for a in (0, 1) for b in (0, 1)}
        self.selected = (False, False)  # in the previous and the current frame
        self.played: list[tuple[bool, bool]] = []
        self.t = 0
        self.score = 0.0

    def observe(self):
        return self.obs[self.selected]

    def legal_mask(self):
        return np.ones(E.N_ACTIONS, bool)

    def step(self, action):
        self.t += 1
        trained = action.kind == E.A_TRAIN_MARINE
        self.played.append((self.selected[1], trained))
        reward = float(trained and self.selected[1])
        self.selected = (self.selected[1], action.kind == E.A_SELECT_BARRACKS)
        self.score += reward
        return self.observe(), reward, self.t >= EPISODE, frozenset()


def test_ladder_rung_a_learns_a_delayed_reward():
    """Rung A isolates delayed credit: each reward arrives 15 steps after
    the action that earned it, across rollout boundaries, so it reaches the
    action only through ``compute_returns``' bootstrapped returns and BPTT
    through the LSTM core.

    Pass rule: the final eval scores at least 3x the step-0 eval, which
    scores above 0. On seeds 0 and 1 it read 8.375 -> 42.25 and 8.375 ->
    40.0 (about 13 s each); at 20k steps seed 0 once read only 14.875."""
    scores = ladder_run(DelayedMarineEnv, 80_000)
    assert scores[-1] >= 3 * scores[0] > 0, scores


def test_ladder_rung_b_learns_a_cued_chain():
    """Rung B isolates a cue read in the recorded pass: whether TRAIN_MARINE
    pays shows only in the observation, so the policy must learn to select
    first and to train when the selection shows, with the gradient taken
    back through the pass that played the rollout (``AgentNet.saved`` and
    ``restore``). With a fixed frame, a policy blind to the cue plays each
    step's action independently of the action before it: it earns at most
    15.75 and trains as often with the selection shown as without.

    Pass rule: the final eval scores at least 4x the step-0 eval, which
    scores above 0, and in the final eval's episodes TRAIN_MARINE is played
    on a share of the steps that show the selection at least 0.05 above its
    share of the steps that do not.

    On seeds 0 and 1 it read 2.0 -> 18.375 and 1.875 -> 16.875, with lifts
    of 0.19 and 0.17 (about 18 s each). Policies trained this way have read
    the cue through the scalar one-hot: shown in the selection layer alone,
    it moved their TRAIN_MARINE probability by under 0.002 (CHANGES.md). So
    the conv trunk is not what this rung checks."""
    latest = {}

    def env_factory(seed):
        latest[seed] = env = CuedChainEnv(seed)
        return env

    scores = ladder_run(env_factory, 80_000)
    eval_seed = A.AgentConfig().eval_seed
    played = np.array([step for i in range(8) for step in latest[eval_seed + i].played])
    shown, trained = played[:, 0], played[:, 1]
    lift = trained[shown].mean() - trained[~shown].mean()
    assert scores[-1] >= 4 * scores[0] > 0, scores
    assert lift >= 0.05, lift
