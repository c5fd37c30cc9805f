"""The output of ``tools/fingerprints.py``, pinned in ``tests/data/fingerprints.txt``.

The lines its header marks ``no-blas`` hold on any machine and are always
compared. The others depend on the BLAS build and the CPU, so they are
compared only where the header the tool prints now equals the pinned one.
A change that moves a fingerprint on purpose re-pins the file in the same
commit:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tools/fingerprints.py > tests/data/fingerprints.txt
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
PINNED = ROOT / "tests" / "data" / "fingerprints.txt"


def parse(text: str) -> tuple[dict[str, str], dict[str, str]]:
    """(header, fingerprints) of the tool's output, each a key → value map."""
    header, prints = {}, {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(None, 1)
            header[key] = value.strip()
        elif line.strip():
            key, value = line.split(None, 1)
            prints[key] = value.strip()
    return header, prints


def test_fingerprints_match_the_pinned_table():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fingerprints.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    want_header, want = parse(PINNED.read_text(encoding="utf-8"))
    got_header, got = parse(run.stdout)
    assert list(got) == list(want)
    portable = want_header["no-blas"].split()
    assert got_header["no-blas"].split() == portable
    for key in portable:
        assert got[key] == want[key], key
    differs = [k for k in want_header if got_header.get(k) != want_header[k]]
    if differs:
        pytest.skip(f"BLAS fingerprints not compared: this machine differs in {', '.join(differs)}")
    for key in want:
        assert got[key] == want[key], key
