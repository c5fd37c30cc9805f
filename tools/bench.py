"""Record the machine, the timings and the fingerprints of one commit in
``BENCH_<commit>.json`` at the repository root.

    python3 tools/bench.py

Runs ``tools/timings.py`` and ``tools/fingerprints.py`` as subprocesses,
with ``src`` on the path and one BLAS thread, and writes one JSON object:

- ``header``: the header fields ``tools/fingerprints.py`` prints (platform,
  CPU, SIMD, Python, numpy, BLAS build, thread setting, ``no-blas``), plus
  ``nproc`` (the CPUs this process may run on) and ``commit`` (12 hex
  digits of ``HEAD``);
- ``changed``: ``git status --porcelain`` of the checkout, so a run on a
  tree that differs from its commit says so, less the untracked
  ``BENCH_<commit>.json`` records this tool writes, so that a second run
  does not list the first run's record;
- ``timings``: every line of ``tools/timings.py`` as ``{"value", "unit"}``;
- ``fingerprints``: every fingerprint line, name to value.

The tool adds no timing of its own. Compare two commits by running it at
each, alternately, on the same machine; to compare with the same tools,
copy this commit's ``tools/`` into the other checkout first.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OWN_RECORD = re.compile(r"\?\? BENCH_[0-9a-f]{12}\.json")  # an untracked record of this tool


def changed(porcelain: str) -> list[str]:
    """The lines of ``git status --porcelain`` output, less untracked ``BENCH_<commit>.json`` records."""
    return [line for line in porcelain.splitlines() if not OWN_RECORD.fullmatch(line)]


def run(*args: str) -> str:
    return subprocess.run(args, cwd=ROOT, check=True, capture_output=True, text=True).stdout


def tool(name: str) -> list[str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / name)], cwd=ROOT, env=env, check=True, capture_output=True, text=True
    )
    return out.stdout.splitlines()


def main() -> None:
    commit = run("git", "rev-parse", "HEAD").strip()[:12]
    header, fingerprints, timings = {}, {}, {}
    for line in tool("fingerprints.py"):
        if line.startswith("# "):
            key, value = line[2:].split(None, 1)
            header[key] = value.strip()
        elif line.strip():
            key, value = line.split(None, 1)
            fingerprints[key] = value.strip()
    header.update(nproc=len(os.sched_getaffinity(0)), commit=commit)
    for line in tool("timings.py"):
        name, value, unit = line.rsplit(None, 2)
        timings[name] = {"value": float(value), "unit": unit}
    record = {
        "header": header,
        "changed": changed(run("git", "status", "--porcelain")),
        "timings": timings,
        "fingerprints": fingerprints,
    }
    path = ROOT / f"BENCH_{commit}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(path)


if __name__ == "__main__":
    main()
