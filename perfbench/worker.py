"""One round of a workload in a fresh process, so the norm cache and every
other memo start cold, as they do for each CLI call.

The process prints ``ready`` once imports and input generation are done (the
parent times set-up up to that line), then makes the workload's calls one
after another, in ``workloads.PASSES`` passes. Before every pass but the
first it empties each memo of the package, so every pass starts as cold as
the first; a call keeps its fastest time over the passes. A traced round
makes one pass. The worker then optionally checks every output against the
reference and writes its measurements as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")


def _import_occukit():
    sys.path[:0] = [SRC, HERE]
    import occukit
    import occukit.cli  # noqa: F401  (loads every layer)

    origin = os.path.dirname(os.path.abspath(occukit.__file__))
    if origin != os.path.join(SRC, "occukit"):
        raise SystemExit(f"occukit imported from {origin}, not from {SRC}")
    return occukit


def _clear_memos() -> None:
    """Empty every functools cache of the package: the norm cache, the
    Stirling memo and the enumerator's tally cache."""
    for name, module in list(sys.modules.items()):
        if name == "occukit" or name.startswith("occukit."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _timed_pass(calls, first: bool) -> float:
    start = time.perf_counter()
    for call in calls:
        t0 = time.perf_counter()
        try:
            call.result = call.fn()
            call.error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            call.error = f"{type(exc).__name__}: {exc}"
            call.failures += 1
        seconds = time.perf_counter() - t0
        call.seconds = seconds if first else min(call.seconds, seconds)
    return time.perf_counter() - start


def _timed_passes(workloads, workload: str, calls, passes: int):
    """The first pass's wall time and the peak RSS at its end, as a fresh
    process sees them, and the output fingerprints and errors of all
    passes."""
    digests, errors = set(), set()
    for index in range(passes):
        if index:
            _clear_memos()
        seconds = _timed_pass(calls, index == 0)
        if index == 0:
            first_s = seconds
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        digests.add(workloads.digest(workload, calls))
        errors.update(c.error for c in calls if c.error)
    return first_s, peak_rss_kb, digests, errors


def _layer_metrics(tracer, run_s: float, inputs) -> dict[str, float]:
    def pct(seconds: float) -> float:
        return 100.0 * seconds / run_s

    ff_calls, ff_s, _ = tracer.stats("combinat.falling_factorial")
    _, st_s, _ = tracer.stats("combinat.stirling2")
    dp_calls, dp_s, _ = tracer.stats("core.weight_sum_dp")
    norm_calls, _, _ = tracer.stats("core.occupancy_norm")
    table_calls, table_s, _ = tracer.stats("core.weight_sum_table")
    raw_calls, _, raw_self = tracer.stats("moments.raw_moment")
    _, _, grid_self = tracer.stats("inequality.grid_search")
    add_calls, add_s, _ = tracer.stats("inequality.summary_add")
    check_calls, check_s, _ = tracer.stats("inequality.check_inequality")
    json_calls, json_s, _ = tracer.stats("render.verdict_json_dict")
    csv_calls, csv_s, _ = tracer.stats("render.verdict_csv_row")
    _, _, cli_self = tracer.stats("cli")
    pmf_calls, pmf_s, _ = tracer.stats("oracle.exhaustive_pmf")
    mc_calls, mc_s, _ = tracer.stats("oracle.monte_carlo")
    return {
        "combinat.falling_factorial.calls": ff_calls,
        "combinat.busy_pct": pct(ff_s + st_s),
        "core.weight_sum_dp.calls": dp_calls,
        "core.weight_sum_dp.busy_pct": pct(dp_s),
        "core.occupancy_norm.calls": norm_calls,
        "core.norm_cache.misses": tracer.norm_misses,
        "core.norm_cache.hit_ratio": 1 - tracer.norm_misses / norm_calls if norm_calls else 0.0,
        "core.weight_sum_table.calls": table_calls,
        "core.weight_sum_table.busy_pct": pct(table_s),
        "moments.raw_moment.calls": raw_calls,
        "moments.raw_moment.self_pct": pct(raw_self),
        "inequality.points": tracer.points,
        "inequality.grid_search.self_pct": pct(grid_self),
        "inequality.summary_add.calls": add_calls,
        "inequality.summary_add.busy_pct": pct(add_s),
        "inequality.check_inequality.calls": check_calls,
        "inequality.check_inequality.busy_pct": pct(check_s),
        "render.verdict_json_dict.calls": json_calls,
        "render.verdict_json_dict.busy_pct": pct(json_s),
        "render.verdict_csv_row.calls": csv_calls,
        "render.verdict_csv_row.busy_pct": pct(csv_s),
        "cli.self_pct": pct(cli_self),
        "cli.bytes_written": inputs.extra.get("bytes_written", 0),
        "oracle.exhaustive_pmf.calls": pmf_calls,
        "oracle.exhaustive_pmf.busy_pct": pct(pmf_s),
        "oracle.enum_tuples": inputs.extra.get("enum_tuples", 0),
        "oracle.monte_carlo.calls": mc_calls,
        "oracle.monte_carlo.busy_pct": pct(mc_s),
        "oracle.mc_trials": inputs.extra.get("mc_trials", 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    occukit = _import_occukit()
    import tracing
    import workloads

    workdir = os.path.join(WORK, f"round-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs = workloads.BUILDERS[args.workload](occukit, args.seed, workdir)
        calls = inputs.calls
        print("ready", flush=True)

        passes = 1 if args.trace else workloads.PASSES[args.workload]
        layers = None
        if args.trace:
            with tracing.traced(occukit) as tracer:
                measured = _timed_passes(workloads, args.workload, calls, passes)
            layers = _layer_metrics(tracer, measured[0], inputs)
            tracer.write_spans(os.path.join(WORK, f"spans-{args.workload}.csv"))
        else:
            measured = _timed_passes(workloads, args.workload, calls, passes)
        run_s, peak_rss_kb, digests, errors = measured

        problems: list[str] = []
        if args.check:
            for call in calls:
                if call.error is None:
                    try:
                        problems += call.check(call.result)
                    except Exception:
                        problems.append("check raised: " + traceback.format_exc(limit=3))
        result = {
            "run_s": run_s,
            "passes": passes,
            "peak_rss_kb": peak_rss_kb,
            "calls": [[c.phase, c.items, c.seconds, c.failures] for c in calls],
            "errors": sorted(errors)[:5],
            "digests": sorted(digests),
            "checked": bool(args.check),
            "problems": problems[:20],
            "problem_count": len(problems),
            "layers": layers,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
