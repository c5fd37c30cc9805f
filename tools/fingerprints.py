"""Print a sha256 fingerprint of every deterministic output of the pipeline.

Run it at two commits and diff the output to show that a change kept the
behaviour bit for bit:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tools/fingerprints.py

The fingerprints cover skip-gram vectors, the initial parameters of both
models, the MEM dataset, MEM training, the saved model files, 1-worker A3C
training for none, subtask and narration, 3-worker subtask and 2-worker
narration training, and the random baseline. A ``train_*`` line hashes
the final parameters, the eval rows and the episode records.
``infer_eval_mem_chunks`` scores the training split and random draws with
repeated samples, in chunks of 64.
The ``infer_*`` lines run forward passes only, on untrained parameters: a
change that keeps every forward value keeps them bit for bit even where
training drifts by float32 rounding. Values computed with BLAS are only
comparable on the same machine and BLAS build.

A header of ``#`` lines comes first. It names the platform, the CPU
model, the SIMD extensions numpy found, Python, numpy, the BLAS build
(``np.show_config``) and the BLAS thread setting. Its ``no-blas`` line
lists the fingerprints that use no BLAS or other machine-dependent float
arithmetic (RNG draws, integer game play, file bytes); they hold on any
machine. ``tests/data/fingerprints.txt`` pins this output, and
``tests/test_fingerprints.py`` checks it.
"""

from __future__ import annotations

import hashlib
import os
import platform
import tempfile

import numpy as np

from microbuild import agents as A
from microbuild import env as E
from microbuild import lexicon as L
from microbuild import mem as M


def sha(*parts) -> str:
    """First 16 hex digits of the sha256 of bytes, arrays (read in place as
    buffers) and reprs of anything else."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = np.ascontiguousarray(part)
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


# fingerprints free of BLAS and of float arithmetic that varies by machine
NO_BLAS = ("agent_init", "mem_init", "dataset", "agent_file", "random")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def header() -> dict[str, str]:
    """What the BLAS lines depend on, plus which lines use no BLAS."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "platform": f"{platform.system()} {platform.machine()}",
        "cpu": cpu_model(),
        "simd": " ".join(config["SIMD Extensions"]["found"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}",
        "threads": f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}",
        "no-blas": " ".join(NO_BLAS),
    }


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
    repeats = np.random.default_rng(6).choice(ds.n_samples(), size=300)
    out["infer_eval_mem_chunks"] = sha(
        M.evaluate_mem(mem0, ds, ds.split_train, commands, weight_decay=0.0, chunk=64),
        M.evaluate_mem(mem0, ds, repeats, alternates, weight_decay=0.0, chunk=64),
    )
    batch = ds.batch(samples[:64])
    cmd_vecs = np.stack([mem0.encode_command(c) for c in commands + alternates])
    out["infer_encode"] = sha(mem0.encode_state_batch(batch.spatial, batch.nonspatial), cmd_vecs)
    net0 = A.AgentNet(np.random.default_rng(0))
    h, c = net0.zero_state()
    act_rng, acts = np.random.default_rng(5), []
    for i in range(32):
        obs = E.Observation(batch.spatial[i], batch.nonspatial[i])
        aux = np.concatenate([mem0.encode_state(obs), cmd_vecs[i % len(cmd_vecs)]])
        action, value, (h, c) = net0.act(obs, aux, h, c, np.ones(E.N_ACTIONS, bool), act_rng)
        acts.append((action, value))
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
        ("train_narration_2w", "narration", 2),
    ):
        cfg = A.AgentConfig(
            variant=variant, workers=workers, total_steps=1_000, rollout_len=16, base_seed=7,
            horizon=80, eval_interval=500, eval_episodes=3, lr=1e-3,
        )
        res = A.train(cfg, mem, commands)
        out[name] = sha(res.final_params, res.eval_rows, res.records)
    cfg = A.AgentConfig(variant="random", horizon=720, eval_episodes=20, eval_seed=10_000)
    row = A.evaluate_policy(np.zeros(1, dtype=np.float32), cfg)
    out["random"] = f"{sha(row)} mean_score={row['mean_score']}"
    for key, value in header().items():
        print(f"# {key:9s} {value}")
    for key, value in out.items():
        print(f"{key:16s} {value}")


if __name__ == "__main__":
    main()
