"""occukit benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 20 --trace 0

The run is a series of rounds. Each round is a fresh worker process that
imports occukit from ``src/``, builds the workload's inputs from the seed and
makes the workload's calls one after another (one closed-loop caller), in a
few passes with every memo emptied between them. Rounds repeat until the
round end nearest ``--seconds``; every round does the same calls, so every
run attempts whole rounds. The first round's outputs are checked against the
exact reference module; every pass of every round must reproduce their
fingerprint.

With ``--trace 0`` the last line of standard output is the JSON result with
every end-to-end metric. With ``--trace 1`` untraced and traced rounds
alternate; the result holds the per-layer metrics of the traced rounds and
the tracing overhead (traced minus untraced round time).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
WORKLOADS = ("queries", "sweep", "oracles")
MIN_ROUNDS = 3  # per kind of round, so every median has a middle
ROUND_TIMEOUT_S = 150

# Workers never need more than the 2 threads the workloads ask for.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class RoundFailed(RuntimeError):
    pass


def run_round(workload: str, seed: int, trace: bool, check: bool, index: int) -> dict:
    out = os.path.join(WORK, f"result-{os.getpid()}-{index}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--check", str(int(check)), "--out", out,
    ]
    env = dict(os.environ, **CHILD_ENV)
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or ready.strip() != "ready":
        raise RoundFailed(f"{workload} round {index} exited with code {code}")
    try:
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        if os.path.exists(out):
            os.remove(out)
    result["setup_s"] = setup_s
    result["traced"] = trace
    return result


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    """Times are best-of-passes: every pass of every round makes the same
    calls, so each call's time is its fastest over the run's passes, which
    filters out the slowdowns a shared machine imposes on some passes and
    not others. ``run_s`` is the sum of those best call times."""
    best = [min(column) for column in zip(*([c[2] for c in r["calls"]] for r in rounds))]
    phases = [c[0] for c in rounds[0]["calls"]]
    items = [c[1] for c in rounds[0]["calls"]]
    latencies = [seconds * 1000 for seconds in best]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "run_s": sum(best),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in rounds) / 1024,
        "call_p50_ms": statistics.median(latencies),
        "call_p90_ms": statistics.quantiles(latencies, n=10)[-1],
    }
    for phase in (1, 2, 3):
        work = sum(i for p, i in zip(phases, items) if p == phase)
        seconds = sum(b for p, b in zip(phases, best) if p == phase)
        metrics[f"phase{phase}_per_s"] = work / seconds
    return metrics


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    metrics = {
        name: statistics.median_low(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace.overhead_s"] = min(r["run_s"] for r in traced) - min(r["run_s"] for r in plain)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "occukit", "__init__.py")):
        print(f"no occukit sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)

    rounds: list[dict] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        index = len(rounds)
        traced = bool(args.trace) and index % 2 == 1
        try:
            rounds.append(run_round(args.workload, args.seed, traced, index == 0, index))
        except RoundFailed as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        # Stop at the round end nearest the deadline: a round takes seconds,
        # and overrunning by a whole one on every run adds up.
        now = time.perf_counter()
        pace = (now - start) / len(rounds)
        per_kind = len(rounds) // 2 if args.trace else len(rounds)
        if now + pace / 2 >= deadline and per_kind >= MIN_ROUNDS:
            break

    checked = rounds[0]
    for problem in checked["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for error in sorted({e for r in rounds for e in r["errors"]}):
        print(f"operation failed: {error}", file=sys.stderr)
    same_outputs = all(r["digests"] == checked["digests"] for r in rounds)
    same_outputs &= len(checked["digests"]) == 1
    if not same_outputs:
        print("check failed: a round's outputs differ from the checked round", file=sys.stderr)

    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        metrics = per_layer(plain, [r for r in rounds if r["traced"]])
    else:
        metrics = end_to_end(plain)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(metrics):
        print(f"metrics {sorted(metrics)} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    result = {
        "correct": checked["problem_count"] == 0 and same_outputs,
        "attempted": sum(len(r["calls"]) * r["passes"] for r in rounds),
        "failed": sum(c[3] for r in rounds for c in r["calls"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
