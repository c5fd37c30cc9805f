"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload narration-1w --seed 0 --seconds 30 --trace 0

Run from the repository root. The run sets the workload up three times,
spread over the measuring window, and fills the rest of the window with
rounds of training and evaluation. Its last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. A first line starting ``header:`` records the machine and the
settings. Each run also leaves a JSON record (and, when traced, its spans as
``.npz``) in ``.perfbench_out/``.
"""

import os
import sys
import time

PROCESS_START = time.perf_counter()
# Pin BLAS threads before numpy loads: OpenBLAS at its default threading
# doubles the cost of the small products this code is made of.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
OUT_DIR = ROOT / ".perfbench_out"
SETUPS = 3
MIN_ROUNDS = 3
IMPORT_PROBE = "import microbuild.agents, microbuild.mem"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("narration-1w", "grounding"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def header(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def import_probe() -> float:
    """Seconds for a fresh interpreter to start and import the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True, timeout=120)
    return time.perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()  # before the workloads bind any name
    import workloads

    hdr = header(args)
    print("header: " + json.dumps(hdr), flush=True)
    wl = workloads.WORKLOADS[args.workload](args.seed)

    def phase(p):
        if tracer is not None:
            tracer.phase = p

    setup_times, fingerprints, rounds = [], [], []
    problems: list[str] = []
    state = None
    attempted = failed = 0
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if len(setup_times) < SETUPS and elapsed >= len(setup_times) * args.seconds / SETUPS:
            attempted += 1
            probe = import_probe()
            phase(spans.PHASE_SETUP)
            start = time.perf_counter()
            fresh = wl.setup()
            setup_times.append(probe + time.perf_counter() - start)
            phase(spans.PHASE_OTHER)
            fingerprints.append(fresh["fingerprint"])
            if state is None:
                state = fresh
                problems += wl.check_setup(state)
            continue
        if elapsed >= args.seconds and len(rounds) >= MIN_ROUNDS and len(setup_times) == SETUPS:
            break
        attempted += 1
        phase(spans.PHASE_ROUND)
        try:
            rnd = wl.round(state)
        except Exception:  # noqa: BLE001 - a failed round is counted, the run goes on
            failed += 1
            traceback.print_exc()
            if failed > attempted // 2:
                raise
            continue
        finally:
            phase(spans.PHASE_OTHER)
        if rounds:
            rounds[-1].outputs = None
        rounds.append(rnd)

    problems += wl.check_round(rounds[-1].outputs, state)
    problems += checks.check_same(fingerprints, "set-up output")
    problems += checks.check_same([r.fingerprint for r in rounds], "round output")
    train_rate, eval_rate = wl.rates(rounds)
    e2e = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "train_per_s": {"value": train_rate, "unit": "1/s"},
        "eval_per_s": {"value": eval_rate, "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    record = {"header": hdr, "rounds": len(rounds), "setups": setup_times,
              "process_s": time.perf_counter() - PROCESS_START, "problems": problems}
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is None:
        metrics = e2e
    else:
        layer = tracer.per_layer(len(setup_times), len(rounds), wl.obs_per_setup())
        units = {"calls": "count", "steps_per_obs": "count"}
        metrics = {k: {"value": v, "unit": units.get(k.rsplit(".", 1)[1], "s")} for k, v in layer.items()}
        record["traced_end_to_end"] = e2e
        print("traced end-to-end: " + json.dumps({k: v["value"] for k, v in e2e.items()}))
        tracer.save(str(stem) + ".npz", hdr)
    record["metrics"] = metrics
    with open(str(stem) + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for p in problems:
        print("check failed: " + p, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
