"""Print a sha256 fingerprint of every deterministic output of the pipeline.

Run it at two commits and diff the output to show that a change kept the
behaviour bit for bit:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tools/fingerprints.py

The fingerprints cover skip-gram vectors, the initial parameters of both
models, the MEM dataset, MEM training, the saved model files, 1-worker A3C
training for each shaped variant, 3-worker subtask training and the random
baseline. The ``infer_*`` lines run forward passes only, on untrained
parameters: a change that keeps every forward value keeps them bit for bit
even where training drifts by float32 rounding. Values computed with BLAS
are only comparable on the same machine and BLAS build.
"""

from __future__ import annotations

import hashlib
import os
import tempfile

import numpy as np

from microbuild import agents as A
from microbuild import env as E
from microbuild import lexicon as L
from microbuild import mem as M


def sha(*parts) -> str:
    """First 16 hex digits of the sha256 of bytes, arrays and reprs of anything else."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part).tobytes()
        elif not isinstance(part, bytes):
            part = repr(part).encode()
        h.update(part)
    return h.hexdigest()[:16]


def file_bytes(model) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.bin")
        model.save(path)
        with open(path, "rb") as fh:
            return fh.read()


def main() -> None:
    out = {}
    emb, losses = L.train_skipgram(L.load_bundled_corpus(), L.SkipgramConfig(epochs=5), seed=3)
    out["skipgram"] = sha(emb.vectors, losses)
    out["agent_init"] = sha(A.AgentNet(np.random.default_rng(0)).get_flat())
    out["mem_init"] = sha(M.MemModel(emb, np.random.default_rng(1)).get_flat())
    ds = M.generate_dataset(M.Quotas(per_command=25, nulls=100), seed=21)
    out["dataset"] = ds.hash()[:16]
    commands, alternates = M.load_commands(), M.load_commands(alternate=True)
    mem0 = M.MemModel(emb, np.random.default_rng(1))
    samples = np.arange(ds.n_samples())
    out["infer_eval_mem"] = sha(M.evaluate_mem(mem0, ds, samples, commands, weight_decay=1e-4))
    batch = ds.batch(samples[:64])
    cmd_vecs = np.stack([mem0.encode_command(c) for c in commands + alternates])
    out["infer_encode"] = sha(mem0.encode_state_batch(batch.spatial, batch.nonspatial), cmd_vecs)
    net0 = A.AgentNet(np.random.default_rng(0))
    h, c = net0.zero_state()
    act_rng, acts = np.random.default_rng(5), []
    for i in range(32):
        obs = E.Observation(batch.spatial[i], batch.nonspatial[i])
        aux = np.concatenate([mem0.encode_state(obs), cmd_vecs[i % len(cmd_vecs)]])
        action, logp, value, (h, c) = net0.act(obs, aux, h, c, np.ones(E.N_ACTIONS, bool), act_rng)
        acts.append((action, logp, value))
    out["infer_act"] = sha(acts, h, c)
    cfg = A.AgentConfig(variant="narration", horizon=720, eval_episodes=5)
    out["infer_policy_alt"] = sha(A.evaluate_policy(net0.get_flat(), cfg, mem0, alternates))
    mem, metrics = M.train_mem(ds, emb, commands, M.MemTrainConfig(epochs=2), seed=9)
    out["train_mem"] = sha(mem.get_flat(), metrics)
    out["agent_file"] = sha(file_bytes(A.AgentNet(np.random.default_rng(4))))
    out["mem_file"] = sha(file_bytes(mem))
    for name, variant, workers in (
        ("train_none", "none", 1), ("train_subtask", "subtask", 1),
        ("train_narration", "narration", 1), ("train_subtask_3w", "subtask", 3),
    ):
        cfg = A.AgentConfig(
            variant=variant, workers=workers, total_steps=1_000, rollout_len=16, base_seed=7,
            horizon=80, eval_interval=500, eval_episodes=3, lr=1e-3,
        )
        res = A.train(cfg, mem, commands)
        out[name] = sha(res.final_params, res.eval_rows, res.records, res.version)
    cfg = A.AgentConfig(variant="random", horizon=720, eval_episodes=20, eval_seed=10_000)
    row = A.evaluate_policy(np.zeros(1, dtype=np.float32), cfg)
    out["random"] = f"{sha(row)} mean_score={row['mean_score']}"
    for key, value in out.items():
        print(f"{key:16s} {value}")


if __name__ == "__main__":
    main()
