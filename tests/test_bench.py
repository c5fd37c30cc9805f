"""The committed ``BENCH_*.json`` records: one ``tools/timings.py`` and ``tools/fingerprints.py`` run per commit,
kept as the history of the per-commit records that ``tools/ab.py``'s pairs replaced."""

from __future__ import annotations

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
