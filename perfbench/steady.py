"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py --runs 10 --sets 2 [--workloads queries,sweep]

Each set runs every workload ``--runs`` times, each run with another seed
(set k uses seeds ``1 + 1000 k + i``), with the run length from
BENCHMARK.json. For every workload and end-to-end metric it prints each
set's median and quartiles and the quartile spread as a share of the median,
against the metric's bound. A metric fails when its spread exceeds its
bound, or when a later set's median is worse than the first set's by more
than the bound. Every run must also be correct and fail the same share of
operations. Exits 1 if anything fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASE_SEED = 1


def one_run(spec: dict, workload: str, seed: int) -> dict:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(metric: dict, first: float, later: float) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=None, help="comma list; default all")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    ok = True
    for workload in names:
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = BASE_SEED + 1000 * k + i
                run = one_run(spec, workload, seed)
                print(f"{workload} set {k} seed {seed}: " + " ".join(
                    f"{m['name']}={run['metrics'][m['name']]['value']:.6g}" for m in metrics
                ), file=sys.stderr, flush=True)
                runs.append(run)
            sets.append(runs)

        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) != 1 or not all(r["correct"] for runs in sets for r in runs):
            print(f"{workload}: FAIL correctness or failed share {sorted(shares)}")
            ok = False
        print(f"\n{workload}")
        print(f"{'metric':<16}{'set':>4}{'q1':>14}{'median':>14}{'q3':>14}{'spread':>9}{'bound':>7}  verdict")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            first_median = None
            for k, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, median, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                verdict = "ok"
                if spread > bound:
                    verdict = "SPREAD"
                if first_median is None:
                    first_median = median
                elif worse_by(metric, first_median, median) > bound:
                    verdict = "SHIFT"
                ok &= verdict == "ok"
                print(f"{name:<16}{k:>4}{q1:>14.6g}{median:>14.6g}{q3:>14.6g}"
                      f"{spread:>9.3f}{bound:>7.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
