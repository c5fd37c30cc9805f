"""Time the set-up stages in milliseconds and the network's hot paths in
microseconds, one thread of BLAS.

    PYTHONPATH=src python3 tools/timings.py

Prints the time of ``train_skipgram`` for 10 epochs on the bundled corpus,
of ``generate_dataset`` for ``Quotas(60, 300)`` (the benchmark's sizes for
the ``grounding`` set-up) and of ``evaluate_policy`` for 2 episodes at
horizon 256 of the ``none`` variant and of the ``narration`` variant on an
untrained MEM, then the median time per call of ``env.reset``, of
``Episode.step`` (env step plus observation, replaying a scripted-expert
game), of ``Actor.rollout`` for 32 steps of the ``none`` variant,
``EpisodeShaping.bonus`` of the ``narration`` variant (on the untrained MEM)
and of the ``subtask`` variant over that scripted-expert game's
observations and detector events, ``a3c_loss`` on a 32-step rollout that
``Actor.rollout`` played for the ``narration`` variant on the untrained MEM
(the loss backpropagates the pass that played it), one training update of
that variant (a 32-step rollout, its ``a3c_loss`` and the clipped Adam step
``SharedParams.apply_gradients``), ``mem_loss`` with gradients on a
32-sample batch over the shipped commands, ``evaluate_mem`` over all 900 samples of a ``Quotas(60, 300)`` dataset with
the shipped commands (on the other of two parameter versions each call, so
every call encodes the states) and again with the alternate commands on
unchanged parameters (every call reuses the model's stored state rows and
only encodes the commands and scores), and once more with the shipped
commands on a new parameter version whose validation and test rows are
already held, as ``train_mem`` leaves them (every call encodes the training
split's rows; storing the others is not timed), ``AgentNet()`` with no ``rng`` (as
``evaluate_policy`` and ``AgentNet.load`` build it), ``AgentNet.act`` and
``MemModel.encode_state`` on a repeated frame (the conv trunk's memo hits)
and on two frames in turn (it misses every time), ``AgentNet.act`` on the
repeated frame with only the build ids legal (so it samples all three
heads, the x and y heads too), the untrained MEM's
``encode_command_batch`` over the shipped commands (one sequence pass)
and ``encode_command`` of one command, ``adam_step`` over the
agent's parameters, the state encoder's two convs forward, backward
(input gradient included) and weight gradient alone (``backward_params``,
which is all ``StateEncoder.backward`` runs of the first conv: no program
takes the first conv's col2im input gradient that its ``backward`` line
times) and the encoder's whole backward at batch 1 and 32 (32 is also the
block size ``evaluate_mem`` encodes and ``mem_loss`` trains on), its
first conv forward at batch 8 and 64, and
the agent's LSTM (one step; 32 steps, as a rollout's ``act`` calls run
them; and the 32-step ``forward_seq`` plus BPTT that ``a3c_loss`` runs). Each figure is the
lowest of five medians (of five runs for a set-up stage), which damps the
swings of a shared host; compare two commits by running it at each,
alternately, on the same machine. Last come three peak memories, in MB,
of that ``mem_loss``, ``a3c_loss`` and encoding ``evaluate_mem`` call: how far the
memory ``tracemalloc`` sees numpy and Python hold rises above its level
after a first call, which leaves the layers' caches filled. Tracing starts
before that first call, so a cache the second call frees before it
allocates the next is counted as freed.

The script runs itself again, once, with ``MALLOC_MMAP_THRESHOLD_`` set in
its own environment to 32 MiB and ``MALLOC_TRIM_THRESHOLD_`` to 64 MiB. A
fixed threshold turns off glibc's dynamic one (mallopt(3)), which rises to
the size of the largest block the process has freed; with it off, a figure
does not depend on what the lines before it freed. These values keep every
temporary of the timed calls (the largest, the conv1 patch matrix of
``conv1 forward B=64``, is 3.2 MB) on the heap and keep freed memory
mapped, as in a benchmark or training process once its first rounds have
raised the dynamic threshold: a figure then times the arithmetic, not
faulting in fresh pages on every call.
"""

from __future__ import annotations

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
WARM_HEAP = {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "67108864"}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in WARM_HEAP.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **WARM_HEAP})

import itertools  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from microbuild import agents as A  # noqa: E402
from microbuild import env as E  # noqa: E402
from microbuild import lexicon as L  # noqa: E402
from microbuild import mem as M  # noqa: E402
from microbuild.nn import AdamState, adam_step  # noqa: E402


def micros(fn, calls: int = 200, repeats: int = 5, setup=None) -> float:
    """The lowest of ``repeats`` medians of ``calls`` timed ``fn()`` calls, each after an untimed ``setup()``."""
    medians = []
    for _ in range(repeats):
        times = []
        for _ in range(calls):
            if setup is not None:
                setup()
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        medians.append(np.median(times))
    return min(medians) * 1e6


def traced_rise_mb(fn) -> float:
    """MB by which the traced memory of a second ``fn()`` peaks above its level after the first."""
    tracemalloc.start()
    try:
        fn()
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - start) / 1e6
    finally:
        tracemalloc.stop()


def main() -> None:
    rng = np.random.default_rng(0)
    t_len = 32
    net = A.AgentNet(np.random.default_rng(0))
    spatial = (rng.random((t_len, E.OBS_CHANNELS, E.GRID, E.GRID)) < 0.1).astype(np.float32)
    nonspatial = rng.random((t_len, E.OBS_NONSPATIAL)).astype(np.float32)
    aux = rng.standard_normal((t_len, A.AUX_DIM)).astype(np.float32)
    h0, c0 = net.zero_state()
    cfg = A.AgentConfig()
    eval_cfg = A.AgentConfig(variant="none", horizon=256, eval_episodes=2)
    worker0 = np.random.default_rng(np.random.SeedSequence((cfg.base_seed, 0)))
    actor = A.Actor(net, cfg, A.EpisodeShaping(cfg, None, None), cfg.base_seed, worker0)

    def play_rollout():
        if actor.rollout()[1]:
            actor.end_episode(0)

    obs = E.Observation(spatial[0], nonspatial[0])
    other = itertools.cycle([obs, E.Observation(spatial[1], nonspatial[1])])
    mask = np.ones(E.N_ACTIONS, bool)
    build_mask = np.isin(np.arange(E.N_ACTIONS), E.BUILD_KINDS)  # every act samples all three heads
    corpus = L.load_bundled_corpus()
    emb, _ = L.train_skipgram(corpus, L.SkipgramConfig(epochs=1), seed=3)
    mem = M.MemModel(emb, np.random.default_rng(1))
    narration_cfg = A.AgentConfig(variant="narration", horizon=256, eval_episodes=2)
    commands, wd = M.load_commands(), M.MemTrainConfig().weight_decay
    alternates = M.load_commands(alternate=True)

    def narration_actor(learner: A.AgentNet) -> A.Actor:
        """Worker 0 of a ``narration`` run with ``rollout_len`` 32 on the untrained MEM."""
        shaping = A.EpisodeShaping(narration_cfg, mem, commands)
        return A.Actor(learner, narration_cfg, shaping, narration_cfg.base_seed, np.random.default_rng(0))

    rollout, _ = narration_actor(net).rollout()  # played on net; the loss calls leave its parameters as they are
    learner = A.AgentNet(np.random.default_rng(0))
    trainer, shared = narration_actor(learner), A.SharedParams(learner, narration_cfg.lr)

    def train_update():
        played, done = trainer.rollout()
        shared.apply_gradients(A.a3c_loss(played, learner, narration_cfg)[1])
        if done:
            trainer.end_episode(0)

    stages = {
        "train_skipgram epochs=10": micros(
            lambda: L.train_skipgram(corpus, L.SkipgramConfig(epochs=10), seed=3), calls=1
        ) / 1e3,
        "generate_dataset Quotas(60,300)": micros(
            lambda: M.generate_dataset(M.Quotas(per_command=60, nulls=300), seed=11), calls=1
        ) / 1e3,
        "evaluate_policy none 2x256": micros(
            lambda: A.evaluate_policy(net.get_flat(), eval_cfg), calls=1
        ) / 1e3,
        "evaluate_policy narration 2x256": micros(
            lambda: A.evaluate_policy(net.get_flat(), narration_cfg, mem, commands), calls=1
        ) / 1e3,
    }
    params = net.get_flat()
    grads = (1e-3 * rng.standard_normal(params.size)).astype(np.float32)
    adam = AdamState(params.size, lr=1e-4)
    mem_batch = M.MemBatch(
        spatial=spatial, nonspatial=nonspatial, command_ids=rng.integers(0, E.N_COMMANDS, t_len),
        labels=rng.integers(0, 2, t_len),
    )
    mem_ds = M.generate_dataset(M.Quotas(per_command=60, nulls=300), seed=11)
    everything = np.arange(mem_ds.n_samples())
    scorer = M.MemModel(emb, np.random.default_rng(1))
    versions = itertools.cycle([scorer.get_flat(), M.MemModel(emb, np.random.default_rng(2)).get_flat()])

    def evaluate_mem_encoding():
        scorer.set_flat(next(versions))  # another parameter version each call: no call reuses state rows
        return M.evaluate_mem(scorer, mem_ds, everything, commands, wd)

    def hold_val_and_test():
        """Another parameter version, with the rows ``train_mem`` leaves stored: the validation and test splits'."""
        scorer.set_flat(next(versions))
        for split in (mem_ds.split_val, mem_ds.split_test):
            M.evaluate_mem(scorer, mem_ds, split, commands, wd)

    expert = E.Episode(0, 256)
    first_obs, game, trace, done = expert.observe(), [], [], False
    while not done:
        game.append(E.scripted_expert(expert.state))
        next_obs, _, done, events = expert.step(game[-1])
        trace.append((next_obs, events))
    replay, actions = [E.Episode(0, 256)], itertools.cycle(game)

    def episode_step():
        if replay[0].step(next(actions))[2]:
            replay[0] = E.Episode(0, 256)  # the game starts over, one call in 256

    def shaping_bonus(variant: str) -> float:
        """µs per ``bonus`` call over the expert game, which starts over after its last step."""
        shaping = A.EpisodeShaping(A.AgentConfig(variant=variant), mem, commands)
        played = itertools.cycle(enumerate(trace))

        def call():
            i, (obs, events) = next(played)
            if i == 0:
                shaping.start(first_obs)
            shaping.bonus(obs, events)

        return micros(call, calls=len(trace))

    seeds = itertools.count()
    out = {
        "env.reset": micros(lambda: E.reset(next(seeds))),
        "Episode.step": micros(episode_step, calls=256),
        "Actor.rollout T=32": micros(play_rollout, calls=20),
        "EpisodeShaping.bonus narration": shaping_bonus("narration"),
        "EpisodeShaping.bonus subtask": shaping_bonus("subtask"),
        "a3c_loss T=32": micros(lambda: A.a3c_loss(rollout, net, narration_cfg), calls=20),
        "train update T=32 narration": micros(train_update, calls=20),
        "mem_loss B=32": micros(lambda: M.mem_loss(mem_batch, mem, commands, wd), calls=50),
        f"evaluate_mem S={everything.size}": micros(evaluate_mem_encoding, calls=10),
        f"evaluate_mem S={everything.size} again": micros(
            lambda: M.evaluate_mem(scorer, mem_ds, everything, alternates, wd), calls=10
        ),
        f"evaluate_mem S={everything.size} after train_mem": micros(
            lambda: M.evaluate_mem(scorer, mem_ds, everything, commands, wd), calls=10, setup=hold_val_and_test
        ),
        "AgentNet()": micros(A.AgentNet, calls=50),
        "AgentNet.act repeated": micros(lambda: net.act(obs, aux[0], h0, c0, mask, rng)),
        "AgentNet.act alternating": micros(lambda: net.act(next(other), aux[0], h0, c0, mask, rng)),
        "AgentNet.act build": micros(lambda: net.act(obs, aux[0], h0, c0, build_mask, rng)),
        "MemModel.encode_state repeated": micros(lambda: mem.encode_state(obs)),
        "MemModel.encode_state alternating": micros(lambda: mem.encode_state(next(other))),
        f"MemModel.encode_command_batch U={len(commands)}": micros(lambda: mem.encode_command_batch(commands)),
        "MemModel.encode_command": micros(lambda: mem.encode_command(commands[0])),
        f"adam_step n={params.size}": micros(lambda: adam_step(params, grads, adam), calls=50),
    }
    conv1, _, conv2, _, _ = net.encoder.spatial_net.layers
    for batch in (1, 32):
        x = spatial[:batch]
        for name, conv in (("conv1", conv1), ("conv2", conv2)):
            y = conv.forward(x)
            gy = rng.standard_normal(y.shape).astype(np.float32)
            out[f"{name} forward B={batch}"] = micros(lambda: conv.forward(x))
            out[f"{name} backward B={batch}"] = micros(lambda: conv.backward(gy), calls=50)
            out[f"{name} weight gradient B={batch}"] = micros(lambda: conv.backward_params(gy), calls=50)
            x = np.maximum(y, 0.0)
        g = rng.standard_normal((batch, net.encoder.out_dim)).astype(np.float32)
        net.encoder.forward(spatial[:batch], nonspatial[:batch])
        out[f"StateEncoder.backward B={batch}"] = micros(lambda: net.encoder.backward(g), calls=50)
    frames = (np.random.default_rng(64).random((64, E.OBS_CHANNELS, E.GRID, E.GRID)) < 0.1).astype(np.float32)
    for batch in (8, 64):
        out[f"conv1 forward B={batch}"] = micros(lambda: conv1.forward(frames[:batch]))
    core, feats = net.core, rng.standard_normal((t_len, 1, A.HIDDEN)).astype(np.float32)
    gh = rng.standard_normal((t_len, 1, A.HIDDEN)).astype(np.float32)

    def steps():
        h, c = h0, c0
        for t in range(t_len):
            h, c = core.step(feats[t], h, c)

    out["LSTM.step B=1"] = micros(lambda: core.step(feats[0], h0, c0))
    out["LSTM 32 steps"] = micros(steps, calls=20)
    out["LSTM forward_seq T=32 + backward_seq"] = micros(
        lambda: (core.forward_seq(feats, h0, c0), core.backward_seq(gh)), calls=20
    )
    peaks = {
        "mem_loss B=32 peak": traced_rise_mb(lambda: M.mem_loss(mem_batch, mem, commands, wd)),
        "a3c_loss T=32 peak": traced_rise_mb(lambda: A.a3c_loss(rollout, net, narration_cfg)),
        f"evaluate_mem S={everything.size} peak": traced_rise_mb(evaluate_mem_encoding),
    }
    for name, value in stages.items():
        print(f"{name:38s} {value:9.1f} ms")
    for name, value in out.items():
        print(f"{name:38s} {value:9.1f} us")
    for name, value in peaks.items():
        print(f"{name:38s} {value:9.2f} MB")


if __name__ == "__main__":
    main()
