"""``tools/ab.py``: its statistics on hand-written runs, and its pairs on stub trees."""

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


def run_line(pair, side, train, rss=50.0, cpu=9.0, wall=10.0, failed=0):
    metrics = {"setup_s": 1.0, "train_per_s": train, "eval_per_s": 100.0, "peak_rss_mb": rss}
    result = {"correct": True, "attempted": 10, "failed": failed,
              "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}
    return {"pair": pair, "side": side, "seed": pair, "result": result, "cpu_s": cpu, "wall_s": wall}


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
print("header: {}")
print(json.dumps({"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()}}))
"""


def test_stub_runs_on_two_identical_trees_report_no_difference(tmp_path):
    trees = {}
    for side in ab.SIDES:
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB_RUN, encoding="utf-8")
        trees[side] = tmp_path / side
    lines = []
    runs = ab.run_pairs(trees, "grounding", [3, 5, 8, 13], 1, log=lines.append)
    assert [(r["pair"], r["side"]) for r in runs] == [
        (0, "base"), (0, "change"), (1, "change"), (1, "base"),
        (2, "base"), (2, "change"), (3, "change"), (3, "base"),
    ]
    assert len(lines) == 8 and all(r["cpu_s"] > 0 and r["wall_s"] > 0 for r in runs)
    s = ab.summarise(runs, METRICS)
    for name, m in s["metrics"].items():
        assert m["median_gap"] == 0 and m["change_better_pairs"] == 0, name
        assert not m["gap_exceeds_base_quartiles"] and not m["worse_beyond_bound"], name
        assert not m["moved_together"], name
    assert s["base"]["all_correct"] and s["change"]["all_correct"]


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
