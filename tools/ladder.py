"""The learnability ladder's third rung: the unshaped agent learns the
marine loop, depots included, on the real game.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tools/ladder.py --seed 0

The game is MicroBuild at horizon 720, started from the first state in
which the scripted expert's barracks has finished; the score counts from
that state. The warm start skips the build prefix, whose 50-odd ticks of
construction earn no reward, so the rung checks that the learner, its
recorded-pass gradient and the depot step work where reward is frequent.
The ``none`` variant trains at the default config on one worker for
200k env steps, evaluated on 8 episodes at step 0 and every 50k steps.
The random policy and the scripted expert play the same eval episodes
from the same warm starts.

Pass rule, written before the rung was first run: the final eval's mean
score is at least the random policy's plus a third of the gap from the
random policy to the expert. The tool prints each eval, then one JSON
summary line, and exits with status 1 when the rule fails. Rungs A and B
are tier-1 tests in ``tests/test_ladder.py``. A rung that later fails is
a fault of the change that broke it; its rule is not loosened.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from microbuild import agents as A
from microbuild import env as E

TOTAL_STEPS = 200_000
EVAL_INTERVAL = 50_000
EVAL_EPISODES = 8


class WarmStartEpisode(E.Episode):
    """``env.Episode`` from the first state in which the scripted expert's
    barracks has finished; no marine exists yet, so the score starts at 0.
    The first observation shows that state in both frames, as a reset does."""

    def __init__(self, seed: int, horizon: int = E.HORIZON):
        super().__init__(seed, horizon)
        while self.state.n_barracks == 0:
            self.state = E.step(self.state, E.scripted_expert(self.state))[0]
        self.prev = self.state


def expert_score(config: A.AgentConfig) -> float:
    """The scripted expert's mean score over the eval episodes of ``config``."""
    scores = []
    for i in range(config.eval_episodes):
        env = config.make_env(config.eval_seed + i)
        done = False
        while not done:
            done = env.step(E.scripted_expert(env.state))[2]
        scores.append(env.score)
    return float(np.mean(scores))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="the agent's base seed")
    args = parser.parse_args()
    cfg = A.AgentConfig(
        variant="none", workers=1, total_steps=TOTAL_STEPS, base_seed=args.seed,
        eval_interval=EVAL_INTERVAL, eval_episodes=EVAL_EPISODES, env_factory=WarmStartEpisode,
    )
    random = A.evaluate_policy(None, dataclasses.replace(cfg, variant="random"))["mean_score"]
    expert = expert_score(cfg)
    bar = random + (expert - random) / 3
    print(f"random {random}  expert {expert}  pass at {bar:.3f}", flush=True)
    rows = A.train(cfg, progress=lambda step: print(f"step {step}", flush=True)).eval_rows
    scores = [row["mean_score"] for row in rows]
    passed = scores[-1] >= bar
    print(json.dumps({"seed": args.seed, "steps": [row["step"] for row in rows], "scores": scores,
                      "random": random, "expert": expert, "bar": bar, "pass": passed}))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
