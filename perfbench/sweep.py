"""Run the benchmark over many seeds and summarise the spread of its metrics.

    python3 perfbench/sweep.py run --workload grounding --seeds 0-9 --seconds 30 --out g.json
    python3 perfbench/sweep.py summary g.json [g2.json]

``run`` calls ``perfbench/run.py`` once per seed, one run at a time, and
saves every result line. ``summary`` prints, per end-to-end metric, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median; with a second file it also prints how
far the second set's median moved from the first's, and, when the second
set was traced, that difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRACED_PREFIX = "traced end-to-end: "


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(args) -> None:
    results = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=600)
        if out.returncode != 0:
            sys.exit(f"seed {seed} failed with code {out.returncode}:\n{out.stderr}")
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        for line in lines:
            if line.startswith(TRACED_PREFIX):
                result["traced_end_to_end"] = json.loads(line[len(TRACED_PREFIX):])
        results.append(result)
        print(json.dumps(result), flush=True)
    Path(args.out).write_text(json.dumps({"workload": args.workload, "results": results}, indent=1))


def end_to_end(results: list[dict]) -> dict[str, list[float]]:
    """Metric name -> values; a traced set contributes its traced end-to-end figures."""
    series: dict[str, list[float]] = {}
    for r in results:
        values = r.get("traced_end_to_end") or {k: v["value"] for k, v in r["metrics"].items()}
        for k, v in values.items():
            series.setdefault(k, []).append(v)
    return series


def summary(args) -> None:
    sets = [json.loads(Path(f).read_text()) for f in args.files]
    medians = []
    for f, data in zip(args.files, sets):
        res = data["results"]
        shares = sorted({r["failed"] / r["attempted"] for r in res})
        print(f"{f}: {data['workload']}, {len(res)} runs, all correct: {all(r['correct'] for r in res)}, "
              f"failed shares: {shares}")
        med = {}
        for name, values in end_to_end(res).items():
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med[name] = statistics.median(values)
            print(f"  {name:<12} median {med[name]:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {(q3 - q1) / med[name]:.3f}")
        medians.append(med)
    if len(medians) == 2:
        print("second median vs first:")
        for name in medians[0]:
            if name in medians[1]:
                a, b = medians[0][name], medians[1][name]
                print(f"  {name:<12} {b - a:+10.4f}  ({(b - a) / a:+.3f})")


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="0-9")
    r.add_argument("--seconds", type=int, default=50)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", required=True)
    s = sub.add_parser("summary")
    s.add_argument("files", nargs="+")
    args = p.parse_args(argv)
    if args.cmd == "run":
        run(args)
    else:
        summary(args)


if __name__ == "__main__":
    main()
