"""Command-line entry point.

Subcommands: norm, moments, pmf, inequality (check | search | reduce |
audit), simulate, compare. Exit codes: 0 success, 1 usage error or an
output that cannot be written, 2 domain error (degenerate denominator), 3
enumeration budget exceeded.

Flags may also come from a JSON config file (``--config``); explicit flags
win on conflict. The environment variable ``OCCUKIT_BUDGET`` overrides the
default exhaustive-enumeration budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import lru_cache
from typing import Any, Callable, Iterator, Sequence, TextIO

from . import render
from .core import Params, SizeSpec, _as_index, occupancy_norm
from .errors import BudgetExceededError, DegenerateDenominatorError
# grid_search is not called here; perfbench/tracing.py wraps this name.
from .inequality import (
    _M_POLICIES,
    _P_POLICIES,
    GridSpec,
    SweepSummary,
    _block_rows,
    _blocks,
    audit_induction_step,
    check_inequality,
    full_size_reduction,
    grid_search,
    near_full_size_reduction,
)
from .moments import TailMode, moment_report
from .oracle import COMPARE_METHODS, compare_report, exhaustive_pmf, monte_carlo

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
    """A command-line string as a base-10 integer; a config value through
    ``_as_index``, so JSON floats and bools raise ``TypeError``."""
    if not isinstance(value, str):
        return _as_index(value, label)
    try:
        return int(value, 10)
    except ValueError:
        raise _UsageError(f"{label} expects an integer, got {value!r}") from None


def _items(value: str, label: str, example: str) -> list[str]:
    """The comma-separated items of ``value``; an empty one is a usage error
    rather than dropped, so '1,,2' is not read as '1,2'."""
    parts = [part.strip() for part in value.split(",")]
    if "" in parts:
        raise _UsageError(f"{label} expects {example}, got {value!r}")
    return parts


def _as_int_list(value: Any, label: str) -> tuple[int, ...]:
    if isinstance(value, str):
        value = _items(value, label, "a comma-separated integer list")
    elif not isinstance(value, (list, tuple)):
        value = (value,)
    return tuple(_as_int(v, label) for v in value)


def _as_int_range(value: Any, label: str) -> tuple[int, ...]:
    """Accept '3..8', '4', '1,3,5', mixes thereof, or a JSON list."""
    if not isinstance(value, str):
        return _as_int_list(value, label)
    out: list[int] = []
    for part in _items(value, label, "values like '3..8' or '2,4'"):
        if ".." in part:
            lo_s, hi_s = part.split("..", 1)
            lo, hi = _as_int(lo_s, label), _as_int(hi_s, label)
            if hi < lo:
                raise _UsageError(f"{label}: empty range {part!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(_as_int(part, label))
    return tuple(out)


def _as_size_sets(value: Any, label: str) -> SizeSpec:
    """Per-slot admissible sizes: '1-2,0+2,3' -> {1,2}, {0,2}, {3}."""
    if isinstance(value, (list, tuple)):
        return SizeSpec.coerce(value)
    slots = []
    for part in _items(str(value), label, "slot specs like '1-2,1-2'"):
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
    return SizeSpec(tuple(slots))


def _merge_config(args: argparse.Namespace) -> None:
    if args.config is None:
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise _UsageError("config file must contain a JSON object")
    dests = _config_dests()
    for key, value in values.items():
        if key not in dests:
            raise _UsageError(f"unknown config key {key!r}")
        attr = dests[key]
        if attr == "output" and not isinstance(value, str):
            raise _UsageError(f"config key 'output' must be a path, got {value!r}")
        if hasattr(args, attr) and getattr(args, attr) is None:
            setattr(args, attr, value)


_Parse = Callable[[Any, str], Any] | None


def _arg(args: argparse.Namespace, name: str, parse: _Parse = _as_int) -> Any:
    """Required flag ``name``, read by ``parse`` (taken as is without one)."""
    flag = "--" + name.replace("_", "-")
    value = getattr(args, name, None)
    if value is None:
        raise _UsageError(f"missing required value {flag}")
    return value if parse is None else parse(value, flag)


_KEYWORDS = {"order": "max_order"}  # library keywords of flags named otherwise


def _given(args: argparse.Namespace, *names: str, parse: _Parse = _as_int) -> dict:
    """The flags of ``names`` that were given, read in that order, as keyword
    arguments of the library call they feed; the rest keep its defaults."""
    return {
        _KEYWORDS.get(name, name): _arg(args, name, parse)
        for name in names if getattr(args, name) is not None
    }


def _build_params(args: argparse.Namespace) -> Params:
    return Params(_arg(args, "n"), _arg(args, "m", _as_int_list))


def _instance(args: argparse.Namespace) -> tuple[Params, int, TailMode]:
    """The (params, t, mode) of one occupancy count, read as n, m, mode, t."""
    params = _build_params(args)
    mode = TailMode.from_string(str(_arg(args, "mode", None)))
    return params, _arg(args, "t"), mode


def _budget(args: argparse.Namespace) -> dict[str, int]:
    """--budget, else ``OCCUKIT_BUDGET``, as the ``budget`` keyword."""
    env = os.environ.get("OCCUKIT_BUDGET")
    if args.budget is None and env is not None:
        return {"budget": _as_int(env, "OCCUKIT_BUDGET")}
    return _given(args, "budget")


class _OutputError(Exception):
    """An OSError raised while writing, flushing or closing the output."""


@contextmanager
def _writing() -> Iterator[None]:
    """Raise an OSError of the block as an _OutputError; a closed pipe stays
    a BrokenPipeError."""
    try:
        yield
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise _OutputError(exc) from exc


@contextmanager
def _sink(args: argparse.Namespace) -> Iterator[TextIO]:
    """The file named by --output, opened for writing, or stdout. A file
    that cannot be opened raises OSError."""
    if args.output is None:
        with _writing():
            yield sys.stdout
        return
    sink = open(args.output, "w", encoding="utf-8", newline="")
    with _writing(), sink:
        yield sink


def _emit(
    args: argparse.Namespace, pretty: str, payload: dict[str, Any],
    csv_text: str | None = None,
) -> None:
    """Write the pretty, JSON or (where given) CSV form named by --format."""
    fmt = "pretty" if args.fmt is None else args.fmt
    if fmt == "pretty":
        text = pretty
    elif fmt == "json":
        text = json.dumps(payload, indent=2)
    elif fmt == "csv" and csv_text is not None:
        text = csv_text
    else:
        expected = "pretty, json or csv" if csv_text is not None else "pretty or json"
        raise _UsageError(f"unknown format {fmt!r}; expected {expected}")
    with _sink(args) as sink:
        sink.write(text + "\n")


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
    report = moment_report(*_instance(args), **_given(args, "order"))
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
    pmf = exhaustive_pmf(*_instance(args), **_budget(args))
    lines = [
        f"P(x={x}) = {q}" for x, q in sorted(pmf.probabilities.items())
    ]
    _emit(args, "\n".join(lines), render.pmf_json_dict(pmf))
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    params = _build_params(args)
    p = _arg(args, "p", _as_int_list)
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


def _stream_block(
    sink: TextIO, fmt: str, grid: GridSpec, block: tuple, summary: SweepSummary,
) -> None:
    """Write one (n, T, r) block's points in grid order, each symmetry
    class's shared text rendered once, and fold the block's classes into
    ``summary``. ``first_violations`` is never rendered, so it stays
    empty."""
    text = render.SWEEP_TEXT[fmt]
    n, T, r, p_list, den_lhs, den_rhs, _ = block
    shared = text.classes(den_lhs, den_rhs)
    classes: list[tuple] = []

    def record(cls: tuple) -> str:
        classes.append(cls)
        _, _, name, _, lhs, rhs, num = cls
        return shared(name, lhs, rhs, num)

    cells = [text.cell(p) for p, _ in p_list]
    for m, row in _block_rows(grid, block, record):
        lead = text.head(n, T, r, m)
        sink.write("".join([lead + cell + tail for cell, tail in zip(cells, row)]))
    summary._add_block(block, classes)


def _cmd_search(args: argparse.Namespace) -> int:
    grid = GridSpec(
        n_values=_arg(args, "n", _as_int_range),
        T_values=_arg(args, "T", _as_int_range),
        r_values=_arg(args, "r", _as_int_range),
        **_given(args, "m_policy", "p_policy", "include_full_m", parse=None),
    )
    fmt = "jsonl" if args.fmt is None else args.fmt
    if fmt not in render.SWEEP_TEXT:
        raise _UsageError(f"unknown sweep format {fmt!r}; expected jsonl or csv")
    summary = SweepSummary()
    with _sink(args) as sink:
        sink.write(render.SWEEP_TEXT[fmt].header)
        for block in _blocks(grid):
            _stream_block(sink, fmt, grid, block, summary)
        summary_obj = render.summary_json_dict(summary)
        if fmt == "jsonl":
            sink.write(json.dumps(summary_obj) + "\n")
    if fmt == "csv":
        print(json.dumps(summary_obj), file=sys.stderr)
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    case = _arg(args, "case", None)
    if case == "p-eq-T":
        params = _build_params(args)
        result = full_size_reduction(params)
        label = f"p = T = {params.T} on n={params.n}, m={list(params.m)}"
    elif case == "p-eq-T-minus-1":
        n, m, T = _arg(args, "n"), _arg(args, "m"), _arg(args, "T")
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
    audit = audit_induction_step(
        _arg(args, "m"), _arg(args, "T", _as_int_range),
        **_given(args, "n_offsets", parse=_as_int_range),
    )
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
    result = monte_carlo(*_instance(args), _arg(args, "trials"),
                         **_given(args, "seed", "threads", "max_order"))
    rows = list(enumerate(
        zip(result.raw_moment_estimates, result.standard_errors), start=1
    ))
    lines = [f"E(x^{v}) ~ {est:.10g}  (stderr {se:.4g})" for v, (est, se) in rows]
    csv_lines = ["order,estimate,stderr"]
    csv_lines.extend(f"{v},{est!r},{se!r}" for v, (est, se) in rows)
    _emit(args, "\n".join(lines), render.empirical_json_dict(result),
          csv_text="\n".join(csv_lines))
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    report = compare_report(
        *_instance(args), **_given(args, "max_order"),
        **_given(args, "method", parse=None), **_budget(args),
        **_given(args, "trials", "seed", "threads"),
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


# argparse settings of a flag beyond its name and help text.
_FLAG_SETTINGS: dict[str, dict[str, Any]] = {
    "--format": {"dest": "fmt"},
    "--m-policy": {"choices": _M_POLICIES},
    "--p-policy": {"choices": _P_POLICIES},
    "--include-full-m": {"action": "store_true", "default": None},
    "--case": {"choices": ["p-eq-T", "p-eq-T-minus-1"]},
    "--method": {"choices": COMPARE_METHODS},
}

_COMMON = (("--format", "pretty (default) or json"),
           ("--output", "write to file instead of stdout"))

# (command path, help, handler, flags in --help order). A flag is its name
# or (name, help); a command without a handler holds subcommands.
_COMMANDS: tuple[tuple[str, str, Callable | None, tuple], ...] = (
    ("norm", "normalized weight sum for one size spec", _cmd_norm,
     ("--n", ("--m", "comma-separated draw sizes"),
      ("--p", "fixed slot sizes, e.g. 1,1"),
      ("--bsets", "per-slot size sets, e.g. 1-2,1-2 or 0+2,1"), *_COMMON)),
    ("moments", "exact raw moments, mean, variance", _cmd_moments,
     ("--n", "--m", "--t", ("--mode", "exact or atleast"),
      ("--order", "highest moment order (>= 2)"), *_COMMON)),
    ("pmf", "exact pmf by exhaustive enumeration", _cmd_pmf,
     ("--n", "--m", "--t", "--mode", "--budget", *_COMMON)),
    ("inequality", "product-vs-joint norm inequality lab", None, ()),
    ("inequality check", "evaluate one instance", _cmd_check,
     ("--n", "--m", "--p", *_COMMON)),
    ("inequality search", "sweep a parameter grid", _cmd_search,
     (("--n", "range, e.g. 3..8"), ("--T", "range, e.g. 1..4"),
      ("--r", "range, e.g. 2 or 2..3"), "--m-policy", "--p-policy",
      ("--include-full-m", "admit draw sizes equal to n"),
      ("--format", "jsonl (default) or csv"), "--output")),
    ("inequality reduce", "closed-form reduced checks", _cmd_reduce,
     ("--case", "--n", ("--m", "vector for p-eq-T, scalar for p-eq-T-minus-1"),
      ("--T", "needed for p-eq-T-minus-1"), *_COMMON)),
    ("inequality audit", "induction-step ratio audit", _cmd_audit,
     ("--m", ("--T", "range of T values"),
      ("--n-offsets", "offsets above the minimal admissible n"), *_COMMON)),
    ("simulate", "seeded Monte Carlo moment estimates", _cmd_simulate,
     ("--n", "--m", "--t", "--mode", "--trials", "--seed", "--max-order",
      "--threads", ("--format", "pretty (default), json, or csv"), "--output")),
    ("compare", "moment formulas vs. oracle", _cmd_compare,
     ("--n", "--m", "--t", "--mode", "--max-order", "--method", "--trials",
      "--seed", "--budget", "--threads", *_COMMON)),
)


def _flags(flags: tuple) -> Iterator[tuple[str, str | None, dict[str, Any]]]:
    """(name, help, argparse settings) of each flag in a table row."""
    for flag in flags:
        name, help_text = (flag, None) if isinstance(flag, str) else flag
        yield name, help_text, _FLAG_SETTINGS.get(name, {})


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    parser = _Parser(prog="occukit", description=__doc__)
    parser.add_argument("--config", help="JSON file providing default flag values")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for path, help_text, handler, flags in _COMMANDS:
        parent, _, name = path.rpartition(" ")
        sub = groups[parent].add_parser(name, help=help_text)
        if handler is None:
            groups[path] = sub.add_subparsers(dest="action", required=True)
        else:
            sub.set_defaults(handler=handler)
        for flag, flag_help, settings in _flags(flags):
            sub.add_argument(flag, help=flag_help, **settings)
    return parser


def _config_dests() -> dict[str, str]:
    """Each value flag's name, in hyphen and underscore form, to its dest."""
    dests = {}
    for *_, flags in _COMMANDS:
        for flag, _, settings in _flags(flags):
            if "action" not in settings:
                key = flag[2:]
                dest = settings.get("dest", key.replace("-", "_"))
                dests[key] = dests[key.replace("-", "_")] = dest
    return dests


def _run(argv: Sequence[str] | None) -> int:
    args = _build_parser().parse_args(argv)
    _merge_config(args)
    return args.handler(args)


def _drop_stdout() -> None:
    """Point stdout at devnull, so that the flush at exit cannot fail again."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: Sequence[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # print exact ints of any length
        sys.set_int_max_str_digits(0)
    try:
        code = _run(argv)
        with _writing():
            sys.stdout.flush()  # a failed write shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader of stdout is gone: say nothing.
        _drop_stdout()
        return EXIT_USAGE
    except _OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:
            # stdout is the output that failed, and its buffer still holds
            # what it could not write.
            _drop_stdout()
        return EXIT_USAGE
    except (_UsageError, ValueError, TypeError, OSError) as exc:
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
