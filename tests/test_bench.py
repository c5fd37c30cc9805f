"""The committed ``BENCH_*.json`` records that ``tools/bench.py`` writes, and its list of changed files."""

from __future__ import annotations

import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
HEADER = {"platform", "cpu", "simd", "python", "numpy", "blas", "threads", "no-blas", "nproc", "commit"}


def test_some_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_schema(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert set(record) == {"header", "changed", "timings", "fingerprints"}
    header = record["header"]
    assert set(header) == HEADER
    assert re.fullmatch(r"[0-9a-f]{12}", header["commit"]) and path.name == f"BENCH_{header['commit']}.json"
    assert header["threads"] == "OPENBLAS_NUM_THREADS=1"
    assert type(header["nproc"]) is int and header["nproc"] >= 1
    assert all(isinstance(line, str) for line in record["changed"])
    assert record["timings"]
    for name, timing in record["timings"].items():
        assert set(timing) == {"value", "unit"}, name
        assert timing["unit"] in ("us", "ms", "MB"), name
        value = timing["value"]
        assert type(value) is float and math.isfinite(value) and value > 0, name
    assert record["fingerprints"]
    assert all(isinstance(v, str) and v for v in record["fingerprints"].values())
    assert set(header["no-blas"].split()) <= set(record["fingerprints"])


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_changed_leaves_out_only_untracked_records_of_the_tool():
    porcelain = "\n".join([
        "?? BENCH_6ed653a43dde.json",  # a record an earlier run wrote: left out
        " M BENCH_c27618888550.json",  # a committed record, edited
        "?? BENCH_6ed653a43dde.json.bak",
        "?? BENCH_6ed653a43dd.json",
        "?? tools/BENCH_6ed653a43dde.json",
        " M src/microbuild/mem.py",
        "?? notes.txt",
    ])
    changed = load_bench().changed
    assert changed(porcelain) == porcelain.splitlines()[1:]
    assert changed("") == []
