"""``tools/ab.py``: its statistics on hand-written runs, its pairs on stub trees, and its list of changed files."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = load_ab()


def run_line(pair, side, train, rss=50.0, cpu=9.0, wall=10.0, failed=0, timings=None):
    metrics = {"setup_s": 1.0, "train_per_s": train, "eval_per_s": 100.0, "peak_rss_mb": rss}
    result = {"correct": True, "attempted": 10, "failed": failed,
              "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}
    return {"pair": pair, "side": side, "seed": pair, "result": result, "cpu_s": cpu, "wall_s": wall,
            "timings": {k: {"value": v, "unit": "us"} for k, v in (timings or {}).items()}}


def test_summary_of_hand_written_runs():
    base = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0]
    change = [110.0, 111.0, 109.0, 112.0, 108.0, 110.0, 99.0, 111.0]
    runs = [run_line(i, "base", b, rss=50.0, wall=10.0) for i, b in enumerate(base)]
    runs += [run_line(i, "change", c, rss=60.0, cpu=8.0, failed=1) for i, c in enumerate(change)]
    s = ab.summarise(runs, METRICS)
    assert s["pairs"] == 8
    train = s["metrics"]["train_per_s"]
    assert train["base"] == {"median": 100.0, "q1": 98.25, "q3": 101.75}  # statistics.quantiles, n=4
    assert train["change"]["median"] == 110.0
    assert train["change_better_pairs"] == 7  # pair 6 read 99 against 103
    assert train["median_gap"] == 10.0 and train["median_gap_share"] == pytest.approx(0.1)
    assert train["gap_exceeds_base_quartiles"] and not train["worse_beyond_bound"]
    assert not train["spread_exceeds_bound"]  # 3.5 of 100, under the 0.25 bound
    assert not train["moved_together"]
    rss = s["metrics"]["peak_rss_mb"]  # lower is better: 20% worse, beyond its 10% bound
    assert rss["change_better_pairs"] == 0 and rss["worse_beyond_bound"]
    assert rss["gap_exceeds_base_quartiles"]  # the base's quartiles meet: any gap exceeds them
    assert s["metrics"]["eval_per_s"]["change_better_pairs"] == 0 and s["metrics"]["eval_per_s"]["median_gap"] == 0
    assert s["base"]["failed_share"] == 0 and s["change"]["failed_share"] == pytest.approx(0.1)
    assert s["base"]["cpu_share"]["median"] == pytest.approx(0.9)
    assert s["change"]["cpu_share"]["median"] == pytest.approx(0.8)
    assert ab.report(s)[1].lstrip().startswith("setup_s")


def test_a_series_in_which_both_sides_slowed_is_flagged():
    slow = [100.0, 101.0, 99.0, 70.0, 71.0, 69.0, 100.0, 100.5]  # pairs 3-5 ran slow on both sides
    runs = [run_line(i, "base", v) for i, v in enumerate(slow)]
    runs += [run_line(i, "change", v + 1.0) for i, v in enumerate(slow)]
    train = ab.summarise(runs, METRICS)["metrics"]["train_per_s"]
    assert train["correlation"] > 0.99 and train["level_range"] > 0.2 and train["moved_together"]
    assert train["change_better_pairs"] == 8
    assert train["spread_exceeds_bound"]  # quartiles 70.25-100.375: 0.30 of the median, over the 0.25 bound
    steady = [100.0, 101.0, 99.0, 98.0, 102.0, 99.5, 100.0, 100.5]  # as correlated, but within 10%
    runs = [run_line(i, "base", v) for i, v in enumerate(steady)]
    runs += [run_line(i, "change", v + 1.0) for i, v in enumerate(steady)]
    assert not ab.summarise(runs, METRICS)["metrics"]["train_per_s"]["moved_together"]


def test_summary_of_hand_written_timings_lines():
    base = [60.0, 62.0, 58.0, 61.0, 59.0, 60.0, 63.0, 57.0]
    change = [50.0, 51.0, 49.0, 52.0, 48.0, 50.0, 64.0, 51.0]
    runs = [run_line(i, "base", 100.0, timings={"act": b, "env.reset": 80.0, "conv1 backward B=1": 9.0})
            for i, b in enumerate(base)]
    runs += [run_line(i, "change", 100.0, timings={"act": c, "env.reset": 80.0, "act B=8": 120.0})
             for i, c in enumerate(change)]
    s = ab.summarise(runs, METRICS)
    assert list(s["timings"]) == ["act", "env.reset"]
    act = s["timings"]["act"]
    assert act["base"] == {"median": 60.0, "q1": 58.25, "q3": 61.75}  # statistics.quantiles, n=4
    assert act["change"] == {"median": 50.5, "q1": 49.25, "q3": 51.75}
    assert act["change_better_pairs"] == 7  # lower is better: pair 6 read 64 against 63
    assert act["median_gap"] == -9.5 and act["median_gap_share"] == pytest.approx(-9.5 / 60)
    assert act["gap_exceeds_base_quartiles"] and not act["moved_together"]
    assert "worse_beyond_bound" not in act and "spread_exceeds_bound" not in act  # a timings line has no bound
    reset = s["timings"]["env.reset"]
    assert reset["change_better_pairs"] == 0 and reset["median_gap"] == 0 and not reset["gap_exceeds_base_quartiles"]
    assert s["timings_one_side"] == {"base": ["conv1 backward B=1"], "change": ["act B=8"]}
    lines = ab.report(s)
    assert lines[-1] == "  only change prints: act B=8" and lines[-2] == "  only base prints: conv1 backward B=1"


def test_summary_needs_one_run_per_side_in_each_pair():
    with pytest.raises(ValueError, match="one run on each side"):
        ab.summarise([run_line(0, "base", 1.0), run_line(1, "change", 1.0)], METRICS)


STUB_RUN = """
import argparse, json
p = argparse.ArgumentParser()
for name in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(name)
args = p.parse_args()
seed = int(args.seed)
values = {"setup_s": 1.0 + seed / 100, "train_per_s": 1000.0 + seed, "eval_per_s": 50.0 + seed / 10, "peak_rss_mb": 40.0}
print("header: " + json.dumps({"seed": seed}))
print(json.dumps({"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()}}))
"""
STUB_SRC = "LINES = {'env.reset': (80.0, 'us'), 'generate_dataset Quotas(60,300)': (1234.5, 'ms'), 'mem_loss B=32 peak': (0.46, 'MB')}\n"
STUB_TIMINGS = """
import os
from pathlib import Path
import stub_layers
assert Path(stub_layers.__file__).resolve().parents[1] == Path.cwd().resolve(), "not this tree's src"
assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
for name, (value, unit) in stub_layers.LINES.items():
    print(f"{name:38s} {value:9.2f} {unit}")
"""


def test_stub_runs_on_two_identical_trees_report_no_difference(tmp_path):
    trees = {}
    for side in ab.SIDES:
        for path, text in [("perfbench/run.py", STUB_RUN), ("src/stub_layers.py", STUB_SRC),
                           ("tools/timings.py", STUB_TIMINGS)]:
            (tmp_path / side / path).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / path).write_text(text, encoding="utf-8")
        trees[side] = tmp_path / side
    lines = []
    runs = ab.run_pairs(trees, "grounding", [3, 5, 8, 13], 1, log=lines.append)
    assert [(r["pair"], r["side"]) for r in runs] == [
        (0, "base"), (0, "change"), (1, "change"), (1, "base"),
        (2, "base"), (2, "change"), (3, "change"), (3, "base"),
    ]
    assert len(lines) == 8 and all(r["cpu_s"] > 0 and r["wall_s"] > 0 for r in runs)
    assert all(r["header"] == {"seed": r["seed"]} for r in runs)
    assert all(r["timings"]["generate_dataset Quotas(60,300)"] == {"value": 1234.5, "unit": "ms"} for r in runs)
    s = ab.summarise(runs, METRICS)
    for name, m in s["metrics"].items():
        assert m["median_gap"] == 0 and m["change_better_pairs"] == 0, name
        assert not m["gap_exceeds_base_quartiles"] and not m["worse_beyond_bound"], name
        assert not m["moved_together"], name
    assert list(s["timings"]) == ["env.reset", "generate_dataset Quotas(60,300)", "mem_loss B=32 peak"]
    for name, m in s["timings"].items():
        assert m["median_gap"] == 0 and m["change_better_pairs"] == 0, name
        assert not m["gap_exceeds_base_quartiles"] and not m["moved_together"], name
    assert s["timings_one_side"] == {"base": [], "change": []}
    assert s["base"]["all_correct"] and s["change"]["all_correct"]


def test_changed_leaves_out_only_untracked_records_of_the_tool():
    porcelain = "\n".join([
        "?? AB_738cb45b8e5f_grounding.json",  # a record an earlier series wrote: left out
        " M AB_56bd049feb62_narration-1w.json",  # a committed record, edited
        "?? AB_738cb45b8e5f_grounding.json.bak",
        "?? AB_738cb45b8e5_grounding.json",
        "?? AB_738cb45b8e5f.json",
        "?? tools/AB_738cb45b8e5f_grounding.json",
        "?? BENCH_6ed653a43dde.json",
        " M src/microbuild/mem.py",
        "?? notes.txt",
    ])
    assert ab.changed(porcelain) == porcelain.splitlines()[1:]
    assert ab.changed("") == []


@pytest.mark.skipif(shutil.which("git") is None or shutil.which("tar") is None, reason="needs git and tar")
def test_export_tree_unpacks_a_commit(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "init", "-q"], check=True)
    (repo / "a.txt").write_text("first\n", encoding="utf-8")
    subprocess.run([*git, "add", "a.txt"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "one"], check=True)
    (repo / "a.txt").write_text("edited, not committed\n", encoding="utf-8")
    commit = ab.export_tree("HEAD", tmp_path / "out", repo)
    assert len(commit) == 40
    assert (tmp_path / "out" / "a.txt").read_text(encoding="utf-8") == "first\n"


def test_ab_runs_as_a_script_with_its_help():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "--help"], capture_output=True, text=True)
    assert out.returncode == 0 and "--base" in out.stdout
