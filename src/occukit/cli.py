"""Command-line entry point.

Subcommands: norm, moments, pmf, inequality (check | search | reduce |
audit), simulate, compare. Exit codes: 0 success, 1 usage error, 2 domain
error (degenerate denominator), 3 enumeration budget exceeded.

Flags may also come from a JSON config file (``--config``); explicit flags
win on conflict. The environment variable ``OCCUKIT_BUDGET`` overrides the
default exhaustive-enumeration budget.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext
from typing import Any, Sequence

from . import render
from .core import Params, SizeSpec, occupancy_norm
from .errors import BudgetExceededError, DegenerateDenominatorError
from .inequality import (
    GridSpec,
    ProximityClass,
    audit_induction_step,
    check_inequality,
    full_size_reduction,
    grid_search,
    near_full_size_reduction,
    SweepSummary,
)
from .moments import TailMode, moment_report
from .oracle import DEFAULT_BUDGET, compare_report, exhaustive_pmf, monte_carlo

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(message)


def _as_int(value: Any, label: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise _UsageError(f"{label} expects an integer, got {value!r}")


def _as_int_list(value: Any, label: str) -> tuple[int, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(_as_int(v, label) for v in value)
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p != ""]
        if not parts:
            raise _UsageError(f"{label} expects a comma-separated integer list")
        return tuple(_as_int(p, label) for p in parts)
    return (_as_int(value, label),)


def _as_int_range(value: Any, label: str) -> tuple[int, ...]:
    """Accept '3..8', '4', '1,3,5', mixes thereof, or a JSON list."""
    if isinstance(value, (list, tuple)):
        return tuple(_as_int(v, label) for v in value)
    out: list[int] = []
    for part in str(value).split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo_s, hi_s = part.split("..", 1)
            lo, hi = _as_int(lo_s, label), _as_int(hi_s, label)
            if hi < lo:
                raise _UsageError(f"{label}: empty range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(_as_int(part, label))
    if not out:
        raise _UsageError(f"{label} expects values like '3..8' or '2,4'")
    return tuple(out)


def _as_size_sets(value: Any, label: str) -> SizeSpec:
    """Per-slot admissible sizes: '1-2,0+2,3' -> {1,2}, {0,2}, {3}."""
    if isinstance(value, (list, tuple)):
        return SizeSpec.coerce(value)
    slots = []
    for part in str(value).split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo_s, hi_s = part.split("-", 1)
            lo, hi = _as_int(lo_s, label), _as_int(hi_s, label)
            if hi < lo:
                raise _UsageError(f"{label}: empty size window {part!r}")
            slots.append(frozenset(range(lo, hi + 1)))
        elif "+" in part:
            slots.append(frozenset(_as_int(v, label) for v in part.split("+")))
        else:
            slots.append(frozenset((_as_int(part, label),)))
    if not slots:
        raise _UsageError(f"{label} expects slot specs like '1-2,1-2'")
    return SizeSpec(tuple(slots))


def _build_parser() -> _Parser:
    parser = _Parser(prog="occukit", description=__doc__)
    parser.add_argument("--config", help="JSON file providing default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser) -> None:
        p.add_argument("--format", dest="fmt", default=None,
                       help="pretty (default) or json")
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    p_norm = sub.add_parser("norm", help="normalized weight sum for one size spec")
    p_norm.add_argument("--n", default=None)
    p_norm.add_argument("--m", default=None, help="comma-separated draw sizes")
    p_norm.add_argument("--p", default=None, help="fixed slot sizes, e.g. 1,1")
    p_norm.add_argument("--bsets", default=None,
                        help="per-slot size sets, e.g. 1-2,1-2 or 0+2,1")
    add_common(p_norm)

    p_mom = sub.add_parser("moments", help="exact raw moments, mean, variance")
    p_mom.add_argument("--n", default=None)
    p_mom.add_argument("--m", default=None)
    p_mom.add_argument("--t", default=None)
    p_mom.add_argument("--mode", default=None, help="exact or atleast")
    p_mom.add_argument("--order", default=None, help="highest moment order (>= 2)")
    add_common(p_mom)

    p_pmf = sub.add_parser("pmf", help="exact pmf by exhaustive enumeration")
    p_pmf.add_argument("--n", default=None)
    p_pmf.add_argument("--m", default=None)
    p_pmf.add_argument("--t", default=None)
    p_pmf.add_argument("--mode", default=None)
    p_pmf.add_argument("--budget", default=None)
    add_common(p_pmf)

    p_ineq = sub.add_parser("inequality", help="product-vs-joint norm inequality lab")
    ineq_sub = p_ineq.add_subparsers(dest="action", required=True)

    p_check = ineq_sub.add_parser("check", help="evaluate one instance")
    p_check.add_argument("--n", default=None)
    p_check.add_argument("--m", default=None)
    p_check.add_argument("--p", default=None)
    add_common(p_check)

    p_search = ineq_sub.add_parser("search", help="sweep a parameter grid")
    p_search.add_argument("--n", default=None, help="range, e.g. 3..8")
    p_search.add_argument("--T", default=None, help="range, e.g. 1..4")
    p_search.add_argument("--r", default=None, help="range, e.g. 2 or 2..3")
    p_search.add_argument("--m-policy", dest="m_policy", default=None,
                          choices=["uniform", "mixed"])
    p_search.add_argument("--p-policy", dest="p_policy", default=None,
                          choices=["all-equal", "proximity", "relaxed", "all"])
    p_search.add_argument("--class", dest="class_filter", default=None,
                          choices=["conservative", "relaxed", "unconstrained"])
    p_search.add_argument("--include-full-m", action="store_true",
                          help="admit draw sizes equal to n")
    p_search.add_argument("--threads", default=None)
    p_search.add_argument("--format", dest="fmt", default=None,
                          help="jsonl (default) or csv")
    p_search.add_argument("--output", default=None)

    p_reduce = ineq_sub.add_parser("reduce", help="closed-form reduced checks")
    p_reduce.add_argument("--case", default=None,
                          choices=["p-eq-T", "p-eq-T-minus-1"])
    p_reduce.add_argument("--n", default=None)
    p_reduce.add_argument("--m", default=None,
                          help="vector for p-eq-T, scalar for p-eq-T-minus-1")
    p_reduce.add_argument("--T", default=None, help="needed for p-eq-T-minus-1")
    add_common(p_reduce)

    p_audit = ineq_sub.add_parser("audit", help="induction-step ratio audit")
    p_audit.add_argument("--m", default=None)
    p_audit.add_argument("--T", default=None, help="range of T values")
    p_audit.add_argument("--n-offsets", dest="n_offsets", default=None,
                         help="offsets above the minimal admissible n")
    add_common(p_audit)

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo moment estimates")
    p_sim.add_argument("--n", default=None)
    p_sim.add_argument("--m", default=None)
    p_sim.add_argument("--t", default=None)
    p_sim.add_argument("--mode", default=None)
    p_sim.add_argument("--trials", default=None)
    p_sim.add_argument("--seed", default=None)
    p_sim.add_argument("--max-order", dest="max_order", default=None)
    p_sim.add_argument("--threads", default=None)
    p_sim.add_argument("--format", dest="fmt", default=None,
                       help="pretty (default), json, or csv")
    p_sim.add_argument("--output", default=None)

    p_cmp = sub.add_parser("compare", help="moment formulas vs. oracle")
    p_cmp.add_argument("--n", default=None)
    p_cmp.add_argument("--m", default=None)
    p_cmp.add_argument("--t", default=None)
    p_cmp.add_argument("--mode", default=None)
    p_cmp.add_argument("--max-order", dest="max_order", default=None)
    p_cmp.add_argument("--method", default=None,
                       choices=["auto", "exhaustive", "monte-carlo"])
    p_cmp.add_argument("--trials", default=None)
    p_cmp.add_argument("--seed", default=None)
    p_cmp.add_argument("--budget", default=None)
    p_cmp.add_argument("--threads", default=None)
    add_common(p_cmp)

    return parser


def _merge_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise _UsageError("config file must contain a JSON object")
    for key, value in values.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and getattr(args, attr) is None:
            setattr(args, attr, value)


def _require(args: argparse.Namespace, name: str) -> Any:
    value = getattr(args, name, None)
    if value is None:
        raise _UsageError(f"missing required value --{name.replace('_', '-')}")
    return value


def _build_params(args: argparse.Namespace) -> Params:
    n = _as_int(_require(args, "n"), "--n")
    m = _as_int_list(_require(args, "m"), "--m")
    try:
        return Params(n, m)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _tail_mode(args: argparse.Namespace) -> TailMode:
    raw = _require(args, "mode")
    try:
        return TailMode.from_string(str(raw))
    except ValueError as exc:
        raise _UsageError(str(exc))


def _default_budget(args: argparse.Namespace) -> int:
    if getattr(args, "budget", None) is not None:
        return _as_int(args.budget, "--budget")
    env = os.environ.get("OCCUKIT_BUDGET")
    if env is not None:
        return _as_int(env, "OCCUKIT_BUDGET")
    return DEFAULT_BUDGET


def _emit(args: argparse.Namespace, pretty: str, payload: dict[str, Any]) -> None:
    fmt = getattr(args, "fmt", None) or "pretty"
    if fmt not in ("pretty", "json"):
        raise _UsageError(f"unknown format {fmt!r}; expected pretty or json")
    text = pretty if fmt == "pretty" else json.dumps(payload, indent=2)
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_norm(args: argparse.Namespace) -> int:
    params = _build_params(args)
    if args.p is not None and args.bsets is not None:
        raise _UsageError("give either --p or --bsets, not both")
    if args.p is not None:
        spec = SizeSpec.fixed(*_as_int_list(args.p, "--p"))
    elif args.bsets is not None:
        spec = _as_size_sets(args.bsets, "--bsets")
    else:
        raise _UsageError("one of --p or --bsets is required")
    value = occupancy_norm(params, spec)
    payload = {
        "command": "norm",
        "n": params.n,
        "m": list(params.m),
        "spec": spec.describe(),
        "value": render.fraction_json(value),
    }
    _emit(args, f"{value} ~= {render.approx_str(value)}", payload)
    return EXIT_OK


def _cmd_moments(args: argparse.Namespace) -> int:
    params = _build_params(args)
    mode = _tail_mode(args)
    t = _as_int(_require(args, "t"), "--t")
    order = _as_int(args.order, "--order") if args.order is not None else 2
    report = moment_report(params, t, mode, max_order=order)
    lines = [
        f"mean      {report.mean} ~= {render.approx_str(report.mean)}",
        f"variance  {report.variance} ~= {render.approx_str(report.variance)}",
        f"delta_ev  {report.delta_ev} ~= {render.approx_str(report.delta_ev)}",
    ]
    for v, q in enumerate(report.raw_moments, start=1):
        lines.append(f"E(x^{v})    {q} ~= {render.approx_str(q)}")
    _emit(args, "\n".join(lines), render.moment_report_json_dict(report))
    return EXIT_OK


def _cmd_pmf(args: argparse.Namespace) -> int:
    params = _build_params(args)
    mode = _tail_mode(args)
    t = _as_int(_require(args, "t"), "--t")
    pmf = exhaustive_pmf(params, t, mode, budget=_default_budget(args))
    lines = [
        f"P(x={x}) = {q}" for x, q in sorted(pmf.probabilities.items())
    ]
    _emit(args, "\n".join(lines), render.pmf_json_dict(pmf))
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    params = _build_params(args)
    p = _as_int_list(_require(args, "p"), "--p")
    verdict = check_inequality(params, p)
    pretty = (
        f"class   {verdict.proximity.value}\n"
        f"lhs     {verdict.lhs}\n"
        f"rhs     {verdict.rhs}\n"
        f"margin  {verdict.margin} ~= {render.approx_str(verdict.margin)}\n"
        f"holds   {verdict.holds}"
    )
    _emit(args, pretty, render.verdict_json_dict(verdict))
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    grid = GridSpec(
        n_values=_as_int_range(_require(args, "n"), "--n"),
        T_values=_as_int_range(_require(args, "T"), "--T"),
        r_values=_as_int_range(_require(args, "r"), "--r"),
        m_policy=args.m_policy or "mixed",
        p_policy=args.p_policy or "proximity",
        include_full_m=bool(args.include_full_m),
    )
    class_filter = ProximityClass.from_string(args.class_filter or "unconstrained")
    threads = _as_int(args.threads, "--threads") if args.threads is not None else 1
    if threads < 1:
        raise _UsageError(f"--threads must be at least 1, got {threads}")
    fmt = getattr(args, "fmt", None) or "jsonl"
    if fmt not in ("jsonl", "csv"):
        raise _UsageError(f"unknown sweep format {fmt!r}; expected jsonl or csv")
    summary = SweepSummary()
    output = getattr(args, "output", None)
    sink_cm = open(output, "w", encoding="utf-8", newline="") if output \
        else nullcontext(sys.stdout)
    with sink_cm as sink:
        if fmt == "csv":
            writer = csv.writer(sink)
            writer.writerow(render.VERDICT_CSV_COLUMNS)
            for verdict in grid_search(grid, class_filter, threads=threads):
                summary.add(verdict)
                writer.writerow(render.verdict_csv_row(verdict))
        else:
            for verdict in grid_search(grid, class_filter, threads=threads):
                summary.add(verdict)
                sink.write(json.dumps(render.verdict_json_dict(verdict)) + "\n")
        summary_obj = render.summary_json_dict(summary)
        if fmt == "jsonl":
            sink.write(json.dumps(summary_obj) + "\n")
    if fmt == "csv":
        print(json.dumps(summary_obj), file=sys.stderr)
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    case = _require(args, "case")
    if case == "p-eq-T":
        params = _build_params(args)
        result = full_size_reduction(params)
        label = f"p = T = {params.T} on n={params.n}, m={list(params.m)}"
    elif case == "p-eq-T-minus-1":
        n = _as_int(_require(args, "n"), "--n")
        m = _as_int(_require(args, "m"), "--m")
        T = _as_int(_require(args, "T"), "--T")
        result = near_full_size_reduction(n, m, T)
        label = f"p = T-1 = {T - 1} on n={n}, uniform m={m}"
    else:
        raise _UsageError(f"unknown reduction case {case!r}")
    pretty = (
        f"{label}\nlhs    {result.lhs}\nrhs    {result.rhs}\n"
        f"holds  {result.holds}"
    )
    _emit(args, pretty, {"case": case, **render.reduced_json_dict(result)})
    return EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    m = _as_int(_require(args, "m"), "--m")
    T_values = _as_int_range(_require(args, "T"), "--T")
    offsets = (
        _as_int_range(args.n_offsets, "--n-offsets")
        if args.n_offsets is not None
        else (0, 1, 2, 5, 10)
    )
    audit = audit_induction_step(m, T_values, offsets)
    lines = [
        f"T={row.T:<3} n={row.n:<4} lhs={row.lhs_ratio} rhs={row.rhs_ratio} "
        f"ok={row.ok}"
        for row in audit.rows
    ]
    lines.append(
        f"all_ok={audit.all_ok} lhs_monotone={audit.lhs_monotone_in_n} "
        f"rhs_monotone={audit.rhs_monotone_in_n}"
    )
    _emit(args, "\n".join(lines), render.audit_json_dict(audit))
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = _build_params(args)
    mode = _tail_mode(args)
    t = _as_int(_require(args, "t"), "--t")
    trials = _as_int(_require(args, "trials"), "--trials")
    seed = _as_int(args.seed, "--seed") if args.seed is not None else 0
    threads = _as_int(args.threads, "--threads") if args.threads is not None else 1
    max_order = (
        _as_int(args.max_order, "--max-order") if args.max_order is not None else 4
    )
    result = monte_carlo(
        params, t, mode, trials, seed, max_order=max_order, threads=threads
    )
    if (getattr(args, "fmt", None) or "pretty") == "csv":
        rows = [("order", "estimate", "stderr")]
        rows.extend(
            (str(v), repr(est), repr(se))
            for v, (est, se) in enumerate(
                zip(result.raw_moment_estimates, result.standard_errors), start=1
            )
        )
        text = "\n".join(",".join(row) for row in rows)
        output = getattr(args, "output", None)
        if output:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return EXIT_OK
    lines = [
        f"E(x^{v}) ~ {est:.10g}  (stderr {se:.4g})"
        for v, (est, se) in enumerate(
            zip(result.raw_moment_estimates, result.standard_errors), start=1
        )
    ]
    _emit(args, "\n".join(lines), render.empirical_json_dict(result))
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    params = _build_params(args)
    mode = _tail_mode(args)
    t = _as_int(_require(args, "t"), "--t")
    max_order = (
        _as_int(args.max_order, "--max-order") if args.max_order is not None else 3
    )
    report = compare_report(
        params,
        t,
        mode,
        max_order,
        method=args.method or "auto",
        budget=_default_budget(args),
        trials=_as_int(args.trials, "--trials") if args.trials is not None else 1_000_000,
        seed=_as_int(args.seed, "--seed") if args.seed is not None else 0,
        threads=_as_int(args.threads, "--threads") if args.threads is not None else 1,
    )
    lines = [f"method: {report.method}"]
    for row in report.rows:
        if report.method == "exhaustive":
            lines.append(
                f"E(x^{row.order}): formula {row.formula} oracle {row.oracle} "
                f"equal={row.matches}"
            )
        else:
            lines.append(
                f"E(x^{row.order}): formula {row.formula} estimate "
                f"{row.estimate:.10g} z={row.z_score:.3f}"
            )
    _emit(args, "\n".join(lines), render.comparison_json_dict(report))
    return EXIT_OK


def _run(argv: Sequence[str] | None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _merge_config(args)
    command = args.command
    if command == "norm":
        return _cmd_norm(args)
    if command == "moments":
        return _cmd_moments(args)
    if command == "pmf":
        return _cmd_pmf(args)
    if command == "inequality":
        action = args.action
        if action == "check":
            return _cmd_check(args)
        if action == "search":
            return _cmd_search(args)
        if action == "reduce":
            return _cmd_reduce(args)
        if action == "audit":
            return _cmd_audit(args)
        raise _UsageError(f"unknown inequality action {action!r}")
    if command == "simulate":
        return _cmd_simulate(args)
    if command == "compare":
        return _cmd_compare(args)
    raise _UsageError(f"unknown command {command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return _run(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateDenominatorError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
