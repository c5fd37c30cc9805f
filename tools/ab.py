"""Compare the benchmark's end-to-end metrics between a git revision and the
working tree, in alternating pairs of separate processes.

    python3 tools/ab.py --base HEAD --workload narration-1w --seeds 9101-9110 --seconds 50

The base side is ``git archive`` of ``--base``, unpacked into a temporary
directory; the change side is this checkout as it stands. Pair ``i`` runs
``perfbench/run.py --seed <i-th seed> --trace 0`` once in each tree, one
process at a time (``run.py`` pins one BLAS thread); the base side runs
first in even pairs and second in odd ones, so a slow drift of the host's
load falls on both sides alike. Each run's child CPU time
(``RUSAGE_CHILDREN``) and wall time are recorded beside its result.

For each end-to-end metric of ``BENCHMARK.json`` the summary gives each
side's median and quartiles (``statistics.quantiles(values, n=4)``, as
``perfbench/sweep.py`` summarises), the pairs in which the change side was
better, the median gap and whether it exceeds the base side's quartile
distance, whether the change side is worse than the base by more than the
metric's bound, and whether the base side's quartile distance itself
exceeds the bound (the metric is then unresolved unless every change run
is better than every base run). It also gives the correlation of the two
sides across pairs and the range of the pairs' levels (each pair's mean
of its two runs) as a share of their median. A series of at least
``MIN_TOGETHER_PAIRS`` pairs whose correlation is at least ``TOGETHER``
and whose level range exceeds ``SHIFT`` is flagged: both sides rose and
fell together. Either the host's load changed while it ran or the seeds'
work differs (a pair runs one seed on both sides); a CPU share near 1 on
every run rules out waits for a CPU, though not contention for caches or
memory. In a flagged series the pair wins still compare like with like,
while the base side's quartile distance is widened by the movement. The
summary also gives each side's failed share, whether every run was
correct, and the quartiles of each side's CPU share (child CPU time over
wall time; under 1 when the run waited for a CPU).
The raw runs and the summary are written to ``--out`` as JSON
(``AB_<base commit>_<workload>.json`` at the repository root by default).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import sweep  # noqa: E402

TOGETHER = 0.7  # the two sides' correlation across pairs at which a series may be flagged
SHIFT = 0.1  # ... if the pairs' mean level also spans more than this share of its median
MIN_TOGETHER_PAIRS = 4
SIDES = ("base", "change")


def export_tree(rev: str, dest: Path, repo: Path = ROOT) -> str:
    """Unpack ``git archive`` of ``rev`` into ``dest``; returns the full commit hash."""
    commit = subprocess.run(["git", "-C", str(repo), "rev-parse", f"{rev}^{{commit}}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", str(repo), "archive", "--format=tar", commit], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    return commit


def run_one(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` process in ``tree``: its result line, child CPU seconds and wall seconds."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=4 * seconds + 600)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if out.returncode != 0:
        raise RuntimeError(f"{tree}: seed {seed} failed with code {out.returncode}:\n{out.stderr}")
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"result": json.loads(out.stdout.strip().splitlines()[-1]), "cpu_s": cpu, "wall_s": wall}


def run_pairs(trees: dict[str, Path], workload: str, seeds: list[int], seconds: float, log=print) -> list[dict]:
    """One pair per seed, base first in even pairs; each run as ``run_one`` returns it, with its pair, side and seed."""
    runs = []
    for i, seed in enumerate(seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            run = {"pair": i, "side": side, "seed": seed, **run_one(trees[side], workload, seed, seconds)}
            runs.append(run)
            log(json.dumps({k: v for k, v in run.items() if k != "result"} | {"metrics": {
                k: m["value"] for k, m in run["result"]["metrics"].items()}}))
    return runs


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def together(a: list[float], b: list[float]) -> float:
    """Pearson correlation of the two sides across pairs; 0 when either side is constant."""
    try:
        return statistics.correlation(a, b)
    except statistics.StatisticsError:
        return 0.0


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric of ``metrics`` (``BENCHMARK.json``'s ``end_to_end`` entries), the two sides compared pair by pair."""
    by_side = {side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"]) for side in SIDES}
    if [r["pair"] for r in by_side["base"]] != [r["pair"] for r in by_side["change"]]:
        raise ValueError("every pair needs one run on each side")
    series = {side: sweep.end_to_end([r["result"] for r in by_side[side]]) for side in SIDES}
    out = {"pairs": len(by_side["base"]), "metrics": {}}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        base, change = series["base"][name], series["change"][name]
        sb, sc = quartiles(base), quartiles(change)
        gap = sc["median"] - sb["median"]
        worse = -gap if higher else gap
        corr = together(base, change)
        levels = [(b + c) / 2 for b, c in zip(base, change)]
        level_range = (max(levels) - min(levels)) / abs(statistics.median(levels))
        out["metrics"][name] = {
            "base": sb,
            "change": sc,
            "change_better_pairs": sum((c > b) if higher else (c < b) for b, c in zip(base, change)),
            "median_gap": gap,
            "median_gap_share": gap / sb["median"],
            "gap_exceeds_base_quartiles": abs(gap) > sb["q3"] - sb["q1"],
            "worse_beyond_bound": worse > m["bound"] * abs(sb["median"]),
            "spread_exceeds_bound": sb["q3"] - sb["q1"] > m["bound"] * abs(sb["median"]),
            "correlation": corr,
            "level_range": level_range,
            "moved_together": len(base) >= MIN_TOGETHER_PAIRS and corr >= TOGETHER and level_range > SHIFT,
        }
    for side in SIDES:
        res = [r["result"] for r in by_side[side]]
        out[side] = {
            "all_correct": all(r["correct"] for r in res),
            "failed_share": sum(r["failed"] for r in res) / max(1, sum(r["attempted"] for r in res)),
            "cpu_share": quartiles([r["cpu_s"] / r["wall_s"] for r in by_side[side]]),
        }
    return out


def report(summary: dict) -> list[str]:
    lines = [f"{summary['pairs']} pairs; " + "; ".join(
        f"{side}: all correct {summary[side]['all_correct']}, failed share {summary[side]['failed_share']:.3f}, "
        f"CPU share median {summary[side]['cpu_share']['median']:.3f}" for side in SIDES)]
    for name, m in summary["metrics"].items():
        b, c = m["base"], m["change"]
        lines.append(
            f"  {name:<12} base {b['median']:.4g} ({b['q1']:.4g}-{b['q3']:.4g})  "
            f"change {c['median']:.4g} ({c['q1']:.4g}-{c['q3']:.4g})  gap {m['median_gap_share']:+.3f}  "
            f"change better in {m['change_better_pairs']} of {summary['pairs']}  "
            f"beyond base quartiles: {m['gap_exceeds_base_quartiles']}  worse beyond bound: {m['worse_beyond_bound']}  "
            f"spread beyond bound: {m['spread_exceeds_bound']}  "
            f"r {m['correlation']:+.2f}, levels span {m['level_range']:.3f}"
            f"{'  MOVED TOGETHER' if m['moved_together'] else ''}")
    return lines


def main(argv=None) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision of the base side")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", required=True, help="one pair per seed: 'lo-hi' or 'a,b,c'")
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--out", help="JSON record to write")
    args = p.parse_args(argv)
    status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"], capture_output=True, text=True).stdout
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        commit = export_tree(args.base, Path(tmp))
        trees = {"base": Path(tmp), "change": ROOT}
        runs = run_pairs(trees, args.workload, sweep.parse_seeds(args.seeds), args.seconds)
    summary = summarise(runs, bench["end_to_end"])
    for line in report(summary):
        print(line)
    record = {"workload": args.workload, "seconds": args.seconds, "base": commit,
              "change": {"tree": "working tree", "changed": status.splitlines()},
              "runs": runs, "summary": summary}
    out = Path(args.out) if args.out else ROOT / f"AB_{commit[:12]}_{args.workload}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(out)


if __name__ == "__main__":
    main()
