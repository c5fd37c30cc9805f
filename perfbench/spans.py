"""In-memory spans around calls into the program's layers.

``Tracer.install`` wraps each traced callable where its callers look it up:
a module-level function is replaced under every name a ``microbuild`` module
binds it to (``agents.adam_step`` and ``mem.adam_step`` are the same
function as ``nn.adam_step``), a method is replaced on its class. Each call
records one span: name, start, end, parent span and thread, plus the phase
of the benchmark it ran in. Each thread appends to its own arrays, so the
worker threads of the agent trainer need no lock. Spans stay in memory until
``save`` writes them once the run has ended.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from array import array

import numpy as np

# layer -> traced callables; "Class.method" names a method
LAYERS = {
    "env": ["step", "encode_observation", "legal_actions", "detect", "scripted_expert", "random_legal_action"],
    "lexicon": ["train_skipgram"],
    "mem": [
        "generate_dataset",
        "mem_loss",
        "MemDataset.batch",
        "evaluate_mem",
        "train_mem",
        "MemModel.encode_state",
        "MemModel.encode_command",
    ],
    "nn": [
        "Conv2d.forward",
        "Conv2d.backward",
        "LSTM.step",
        "LSTM.backward_seq",
        "Dense.forward",
        "Dense.backward",
        "adam_step",
    ],
    "agents": [
        "train",
        "AgentNet.act",
        "a3c_loss",
        "shape_narration",
        "SharedParams.snapshot",
        "SharedParams.apply_gradients",
        "evaluate_policy",
    ],
}
CPU_TIMED = ("agents",)  # layers whose spans also record thread CPU time
PHASE_OTHER, PHASE_SETUP, PHASE_ROUND = 0, 1, 2


def traced_names() -> list[str]:
    return [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    out = []
    for full in traced_names():
        out += [f"{full}.calls", f"{full}.busy_s", f"{full}.self_s"]
        if full.split(".")[0] in CPU_TIMED:
            out.append(f"{full}.wait_s")
    return out + ["mem.generate_dataset.steps_per_obs"]


class _Store:
    """One thread's spans."""

    def __init__(self, thread: int):
        self.thread = thread
        self.name = array("i")
        self.parent = array("i")
        self.phase = array("b")
        self.start = array("d")
        self.end = array("d")
        self.cpu = array("d")
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.phase = PHASE_OTHER
        self._stores: list[_Store] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _store(self) -> _Store:
        store = getattr(self._local, "store", None)
        if store is None:
            with self._lock:
                store = _Store(len(self._stores))
                self._stores.append(store)
            self._local.store = store
        return store

    def wrap(self, name: str, fn, cpu: bool):
        nid = len(self.names)
        self.names.append(name)
        tracer = self
        clock, thread_clock = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = tracer._store()
            i = len(s.start)
            s.name.append(nid)
            s.parent.append(s.stack[-1] if s.stack else -1)
            s.phase.append(tracer.phase)
            s.cpu.append(thread_clock() if cpu else 0.0)
            s.end.append(0.0)
            s.stack.append(i)
            s.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                s.end[i] = clock()
                if cpu:
                    s.cpu[i] = thread_clock() - s.cpu[i]
                s.stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every callable in LAYERS (call once, after importing microbuild)."""
        import microbuild.agents  # noqa: F401 - loads every module that binds a traced name
        import microbuild.mem  # noqa: F401

        modules = [m for k, m in sys.modules.items() if k == "microbuild" or k.startswith("microbuild.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"microbuild.{layer}"]
            cpu = layer in CPU_TIMED
            for name in names:
                full = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self.wrap(full, getattr(cls, meth), cpu))
                    continue
                original = getattr(home, name)
                traced = self.wrap(full, original, cpu)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)

    # ---------------------------------------------------------- results

    def arrays(self) -> dict[str, np.ndarray]:
        """All spans; ``parent`` indexes into the same arrays (-1 for none)."""
        parts = {k: [] for k in ("name", "parent", "phase", "start", "end", "cpu", "thread")}
        offset = 0
        for s in self._stores:
            n = len(s.start)
            parent = np.frombuffer(s.parent, dtype=np.int32)[:n].astype(np.int64)
            parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
            parts["name"].append(np.frombuffer(s.name, dtype=np.int32)[:n])
            parts["phase"].append(np.frombuffer(s.phase, dtype=np.int8)[:n])
            parts["start"].append(np.frombuffer(s.start, dtype=np.float64)[:n])
            parts["end"].append(np.frombuffer(s.end, dtype=np.float64)[:n])
            parts["cpu"].append(np.frombuffer(s.cpu, dtype=np.float64)[:n])
            parts["thread"].append(np.full(n, s.thread, dtype=np.int32))
            offset += n
        return {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in parts.items()}

    def per_layer(self, n_setups: int, n_rounds: int, obs_per_setup: int) -> dict[str, float]:
        """Per-layer metrics for one set-up plus one round.

        Spans in set-ups are divided by the set-up count and spans in
        rounds by the round count; spans of the benchmark's own checks are
        left out. Self time is busy time minus the time of direct children.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        selft = dur - child
        wait = dur - a["cpu"]
        per_setup = a["phase"] == PHASE_SETUP
        per_round = a["phase"] == PHASE_ROUND

        def per_run(values: np.ndarray, sel: np.ndarray) -> float:
            return float(values[sel & per_setup].sum() / max(n_setups, 1) + values[sel & per_round].sum() / max(n_rounds, 1))

        ones = np.ones_like(dur)
        out: dict[str, float] = {}
        for nid, full in enumerate(self.names):
            sel = a["name"] == nid
            out[f"{full}.calls"] = per_run(ones, sel)
            out[f"{full}.busy_s"] = per_run(dur, sel)
            out[f"{full}.self_s"] = per_run(selft, sel)
            if full.split(".")[0] in CPU_TIMED:
                out[f"{full}.wait_s"] = per_run(np.maximum(wait, 0.0), sel)
        out["mem.generate_dataset.steps_per_obs"] = self._steps_per_obs(a, n_setups, obs_per_setup)
        return out

    def _steps_per_obs(self, a: dict, n_setups: int, obs_per_setup: int) -> float:
        """env.step calls made inside generate_dataset per observation kept."""
        ids = {n: i for i, n in enumerate(self.names)}
        gen = np.flatnonzero((a["name"] == ids["mem.generate_dataset"]) & (a["phase"] == PHASE_SETUP))
        if gen.size == 0 or obs_per_setup == 0:
            return 0.0
        steps = a["name"] == ids["env.step"]
        inside = 0
        for g in gen:
            inside += int((steps & (a["thread"] == a["thread"][g]) & (a["start"] >= a["start"][g]) & (a["end"] <= a["end"][g])).sum())
        return inside / (gen.size * obs_per_setup)

    def save(self, path, header: dict) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), header=np.array(json.dumps(header)), **a)
