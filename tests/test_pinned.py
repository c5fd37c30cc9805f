"""Outputs pinned to values written down once, to catch silent changes.

Reproducibility tests compare two runs of the same code; these compare with
the code as it was. Each value is free of BLAS arithmetic (RNG draws,
integer game play, file bytes), so it holds on any machine. A failure
means the RNG draw order, the parameter layout, the game rules or the model
file format changed.
"""

from __future__ import annotations

import hashlib

import numpy as np

from microbuild import agents as A
from microbuild import lexicon as L
from microbuild import mem as M


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_agent_initial_parameters_pinned():
    params = A.AgentNet(np.random.default_rng(0)).get_flat()
    assert sha256(params.tobytes()) == "6e2d0cb497e63a0590f94fa960a57ac3742a7a26f52a55f513813a50f428ddc8"


def test_mem_initial_parameters_pinned():
    words = L.WordEmbeddings([L.UNK, "build", "train"], np.arange(3 * L.WORD_DIM, dtype=np.float32).reshape(3, L.WORD_DIM) / 100)
    params = M.MemModel(words, np.random.default_rng(1)).get_flat()
    assert sha256(params.tobytes()) == "6f7e4e3d28a6832147e088762344a6c30c2d760223e8bb1ca20c35c4ff524579"


def test_dataset_hash_pinned():
    ds = M.generate_dataset(M.Quotas(per_command=25, nulls=100), seed=21)
    assert ds.hash() == "843a8260ba5d929c2bb4d17ad58ea90294bab45a26c81804c384a2f769bd2c8e"


def test_agent_model_file_pinned(tmp_path):
    path = tmp_path / "agent.bin"
    A.AgentNet(np.random.default_rng(4)).save(path)
    assert sha256(path.read_bytes()) == "7bbd6f7cd6a61e0612cdbf40e47ed76879ee310d83dd003ed84e36876bc4af47"
