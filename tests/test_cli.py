import csv
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from occukit import cli, core, render
from occukit.cli import main
from occukit.core import Params, weight_sum_table
from occukit.inequality import (
    GridSpec, InequalityVerdict, ProximityClass, SweepSummary, _block_classes,
    _blocks, _m_classes, check_inequality, grid_search, summarize_sweep,
)
from occukit.moments import TailMode
from occukit.oracle import STREAM_VERSION, compare_report, monte_carlo
from occukit.render import (
    VERDICT_CSV_COLUMNS,
    approx_float,
    approx_str,
    fraction_from_json,
    fraction_json,
    verdict_csv_row,
)


# --- render helpers ----------------------------------------------------------


def test_fraction_json_round_trip():
    cases = [
        Fraction(28, 5),
        Fraction(-29, 25),
        Fraction(0),
        Fraction(10**40 + 1, 10**39 + 7),
    ]
    for q in cases:
        packed = fraction_json(q)
        assert fraction_from_json(packed) == q
        assert isinstance(packed["num"], str) and isinstance(packed["den"], str)


def test_approx_str_significant_digits():
    assert approx_str(Fraction(28, 5)) == "5.6"
    assert approx_str(Fraction(1, 3), digits=5) == "0.33333"
    assert approx_str(Fraction(0)) == "0"
    text = approx_str(Fraction(2, 3))
    assert len(text.replace("0.", "")) == 12


def test_approx_float_saturates_beyond_the_float_range():
    assert approx_float(Fraction(1, 3)) == 1 / 3
    assert approx_float(Fraction(10**400, 3)) == math.inf
    assert approx_float(Fraction(-(10**400), 3)) == -math.inf


def _strict_json(text: str):
    """``text`` parsed as strict JSON, which has no NaN or Infinity."""
    def reject(name):
        raise ValueError(f"not strict JSON: {name}")
    return json.loads(text, parse_constant=reject)


def test_fraction_json_beyond_the_float_range_is_strict(capsys):
    assert _strict_json(json.dumps(fraction_json(Fraction(10**400, 3))))["approx"] is None
    zeros = ",".join(["0"] * 120)  # a norm of about 10^356
    assert main(["norm", "--n", "1000", "--m", "1", "--p", zeros,
                 "--format", "json"]) == 0
    value = _strict_json(capsys.readouterr().out)["value"]
    assert value["approx"] is None
    assert fraction_from_json(value) > 10**355


def test_verdict_csv_row_schema():
    verdict = check_inequality(Params(5, (2, 3)), (1, 1))
    row = verdict_csv_row(verdict)
    assert len(row) == len(VERDICT_CSV_COLUMNS)
    record = dict(zip(VERDICT_CSV_COLUMNS, row))
    assert record["n"] == "5" and record["m"] == "2;3" and record["p"] == "1;1"
    assert Fraction(int(record["margin_num"]), int(record["margin_den"])) == Fraction(
        29, 25
    )
    assert record["holds"] == "true"


# --- basic commands ----------------------------------------------------------


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_norm_command_pretty(capsys):
    assert main(["norm", "--n", "5", "--m", "2,3", "--p", "1,1"]) == 0
    assert capsys.readouterr().out.strip() == "28/5 ~= 5.6"


def test_norm_command_json(capsys):
    code, payload = _run_json(
        capsys, ["norm", "--n", "5", "--m", "2,3", "--p", "1,1", "--format", "json"]
    )
    assert code == 0
    assert payload["value"] == {"num": "28", "den": "5", "approx": 5.6}


def test_norm_command_bsets(capsys):
    # '1-2' is a window, '0+2' an explicit set and a bare '1' a singleton
    for bsets, value in (("1-2,1-2", Fraction(11)), ("0+2,1", Fraction(24, 5))):
        code, payload = _run_json(
            capsys,
            ["norm", "--n", "5", "--m", "2,3", "--bsets", bsets, "--format", "json"],
        )
        assert code == 0
        assert fraction_from_json(payload["value"]) == value


def test_norm_prints_exact_values_beyond_the_digit_limit(capsys):
    # The denominator has 4,311 digits, past the 4300 that Python prints
    # by default; the CLI prints it whole in every format.
    argv = ["norm", "--n", "997", "--m", ",".join(["500"] * 800), "--p", "1,1"]
    want = core.occupancy_norm(Params(997, (500,) * 800), (1, 1))
    code, payload = _run_json(capsys, argv + ["--format", "json"])
    assert code == 0
    assert len(payload["value"]["den"]) == 4311
    assert fraction_from_json(payload["value"]) == want
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(f"{want.numerator}/{want.denominator} ")


def test_budget_refusal_of_a_count_beyond_the_digit_limit(capsys):
    argv = ["pmf", "--n", "20000", "--m", "10000", "--t", "1", "--mode", "exact"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("budget exceeded: ")
    assert len(captured.err.splitlines()) == 1


def test_norm_domain_error_exit_code(capsys):
    assert main(["norm", "--n", "2", "--m", "1,1", "--p", "1,1,1"]) == 2
    assert "domain error" in capsys.readouterr().err


def test_usage_error_exit_codes(capsys):
    assert main(["moments", "--t", "0", "--n", "5", "--m", "2,3",
                 "--mode", "exact"]) == 1
    assert main(["norm", "--n", "5", "--m", "2,3"]) == 1
    assert main(["norm", "--n", "5", "--m", "2,3", "--p", "1", "--bsets", "1"]) == 1
    assert main(["moments", "--n", "5", "--m", "2,3", "--t", "1",
                 "--mode", "sometimes"]) == 1
    capsys.readouterr()
    assert main(["inequality", "search", "--n", "3", "--T", "1", "--r", "2",
                 "--format", "csv", "--threads", "0"]) == 1
    assert capsys.readouterr().out == ""
    assert main(["simulate", "--n", "6", "--m", "2,3", "--t", "1", "--mode",
                 "exact", "--trials", "100", "--seed", "1", "--threads", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "threads must be at least 1" in captured.err
    assert main(["simulate", "--n", "6", "--m", "2,3", "--t", "1", "--mode",
                 "exact", "--trials", "100", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "seed must be in" in captured.err
    # simulate's format error names the formats simulate takes
    assert main(["simulate", "--n", "6", "--m", "2,3", "--t", "1", "--mode",
                 "exact", "--trials", "100", "--format", "xml"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "expected pretty, json or csv" in captured.err
    # p_policy is the only size filter; a repeated grid value is an error
    assert main(["inequality", "search", "--n", "3", "--T", "1", "--r", "2",
                 "--class", "conservative"]) == 1
    assert capsys.readouterr().out == ""
    assert main(["inequality", "search", "--n", "3,3", "--T", "1", "--r", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "repeats a value" in captured.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["norm", "--n", "5", "--m", "2,3", "--p", "1,,1"], "--p"),
        (["norm", "--n", "5", "--m", "2,3,", "--p", "1,1"], "--m"),
        (["norm", "--n", "5", "--m", ",2,3", "--p", "1,1"], "--m"),
        (["inequality", "search", "--n", "3,", "--T", "1", "--r", "2"], "--n"),
        (["inequality", "search", "--n", "3", "--T", "1..2,,3", "--r", "2"], "--T"),
        (["norm", "--n", "5", "--m", "2,3", "--bsets", "1-2,,1"], "--bsets"),
        (["norm", "--n", "5", "--m", "2,3", "--bsets", "1-2,1, "], "--bsets"),
    ],
)
def test_empty_list_items_are_usage_errors(capsys, argv, flag):
    # An empty item is rejected, not dropped: '1-2,,1' would otherwise be
    # read as a two-slot query.
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: {flag} expects")


@pytest.mark.parametrize(
    "config, argv, message",
    [
        (None, ["norm", "--n", "abc", "--m", "2,3", "--p", "1,1"],
         "--n expects an integer, got 'abc'"),
        (None, ["inequality", "search", "--n", "5..3", "--T", "1", "--r", "2"],
         "--n: empty range '5..3'"),
        (None, ["norm", "--n", "5", "--m", "2,3", "--bsets", "3-1,1"],
         "--bsets: empty size window '3-1'"),
        ([{"n": 5}], ["norm", "--m", "2,3", "--p", "1,1"],
         "config file must contain a JSON object"),
        (None, ["moments", "--n", "5", "--m", "2,3", "--mode", "exact"],
         "missing required value --t"),
        (None, ["inequality", "search", "--n", "3", "--T", "1", "--r", "2",
                "--format", "xml"],
         "unknown sweep format 'xml'; expected jsonl or csv"),
        ({"case": "x"}, ["inequality", "reduce", "--n", "10", "--m", "3,4"],
         "unknown reduction case 'x'"),
        # only an absent flag takes a default: an empty value is an error
        (None, ["norm", "--n", "5", "--m", "2,3", "--p", "1,1", "--format", ""],
         "unknown format ''; expected pretty or json"),
        ({"format": ""}, ["norm", "--n", "5", "--m", "2,3", "--p", "1,1"],
         "unknown format ''; expected pretty or json"),
        ({"format": ""}, ["inequality", "search", "--n", "3", "--T", "1", "--r", "2"],
         "unknown sweep format ''; expected jsonl or csv"),
        ({"method": ""}, ["compare", "--n", "5", "--m", "2,3", "--t", "1",
                          "--mode", "exact"],
         "unknown comparison method ''"),
        ({"m-policy": ""}, ["inequality", "search", "--n", "3", "--T", "1", "--r", "2"],
         "m_policy must be one of ('uniform', 'mixed')"),
        ({"p_policy": ""}, ["inequality", "search", "--n", "3", "--T", "1", "--r", "2"],
         "p_policy must be one of ('all-equal', 'proximity', 'relaxed', 'all')"),
        (None, ["norm", "--n", "5", "--m", "2,3", "--p", "1,1", "--output", ""],
         "[Errno 2] No such file or directory: ''"),
        # a config slot that is one non-integer size is named
        ({"n": 5, "m": [2, 3], "bsets": [1.5, [1, 2]]}, ["norm"],
         "pattern size must be an integer, got 1.5"),
    ],
)
def test_usage_error_messages(capsys, tmp_path, config, argv, message):
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = ["--config", str(path), *argv]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


def test_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("OCCUKIT_BUDGET", "10")
    assert main(["pmf", "--n", "5", "--m", "2,3", "--t", "1",
                 "--mode", "exact"]) == 3
    assert "budget exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pmf", "compare"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_negative_budget_is_a_usage_error(capsys, monkeypatch, command, source):
    argv = [command, "--n", "5", "--m", "2,3", "--t", "2", "--mode", "atleast"]
    if source == "flag":
        argv += ["--budget", "-1"]
    else:
        monkeypatch.setenv("OCCUKIT_BUDGET", "-1")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget must be at least 0, got -1" in captured.err


def test_moments_command(capsys):
    code, payload = _run_json(
        capsys,
        ["moments", "--n", "5", "--m", "2,3", "--t", "1", "--mode", "exact",
         "--order", "2", "--format", "json"],
    )
    assert code == 0
    assert fraction_from_json(payload["mean"]) == Fraction(13, 5)
    assert fraction_from_json(payload["variance"]) == Fraction(36, 25)
    assert fraction_from_json(payload["delta_ev"]) == Fraction(29, 25)


def test_pmf_command_round_trip(capsys):
    code, payload = _run_json(
        capsys,
        ["pmf", "--n", "5", "--m", "2,3", "--t", "2", "--mode", "atleast",
         "--format", "json"],
    )
    assert code == 0
    probs = {
        int(x): Fraction(int(q["num"]), int(q["den"]))
        for x, q in payload["pmf"].items()
    }
    assert probs == {0: Fraction(1, 10), 1: Fraction(3, 5), 2: Fraction(3, 10)}
    assert sum(probs.values()) == 1


def test_inequality_check_command(capsys):
    code, payload = _run_json(
        capsys,
        ["inequality", "check", "--n", "10", "--m", "3,4", "--p", "2,2",
         "--format", "json"],
    )
    assert code == 0
    assert payload["holds"] is True
    assert fraction_from_json(payload["margin"]) == Fraction(16, 25)
    assert payload["class"] == "conservative"


def test_inequality_search_jsonl(capsys):
    code = main(
        ["inequality", "search", "--n", "3..4", "--T", "1..2", "--r", "2",
         "--m-policy", "uniform", "--p-policy", "all-equal"]
    )
    assert code == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    summary = lines[-1]
    rows = lines[:-1]
    assert summary["type"] == "summary"
    assert summary["total"] == len(rows)
    assert summary["violations"] == 0
    assert summary["by_class"] == {"conservative": len(rows)}
    for row in rows:
        assert fraction_from_json(row["lhs"]) - fraction_from_json(
            row["rhs"]
        ) == fraction_from_json(row["margin"])


def test_inequality_search_csv(capsys, tmp_path):
    target = tmp_path / "sweep.csv"
    code = main(
        ["inequality", "search", "--n", "3", "--T", "2", "--r", "2",
         "--p-policy", "all", "--format", "csv", "--output", str(target)]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().err)
    with open(target, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert summary["total"] == len(rows)
    assert set(rows[0]) == set(VERDICT_CSV_COLUMNS)
    violations = [r for r in rows if r["holds"] == "false"]
    assert len(violations) == summary["violations"] > 0
    # margins round-trip exactly through the num/den columns
    for r in rows[:20]:
        m = tuple(int(v) for v in r["m"].split(";"))
        p = tuple(int(v) for v in r["p"].split(";"))
        verdict = check_inequality(Params(int(r["n"]), m), p)
        assert verdict.margin == Fraction(
            int(r["margin_num"]), int(r["margin_den"])
        )


# Small versions of README's grid and of the grids the stream was checked on
# byte for byte: every class, full-size draws, r = 1 and violations.
_STREAM_GRIDS = {
    "readme": GridSpec((3, 4, 5), (1, 2, 3), (2,)),
    "p-all": GridSpec((3, 4, 5), (1, 2, 3), (2,), p_policy="all"),
    "full-m-uniform": GridSpec((3, 4, 5), (1, 2, 3), (2,), m_policy="uniform",
                               p_policy="all", include_full_m=True),
    "relaxed-r1-4": GridSpec((4, 5), (1, 2), (1, 2, 3, 4), p_policy="relaxed"),
    "violating": GridSpec((4,), (2, 3), (3, 4), p_policy="all"),
}


def _search_argv(grid: GridSpec, fmt: str) -> list[str]:
    argv = ["inequality", "search", "--format", fmt,
            "--m-policy", grid.m_policy, "--p-policy", grid.p_policy]
    for flag, values in (("--n", grid.n_values), ("--T", grid.T_values),
                         ("--r", grid.r_values)):
        argv += [flag, ",".join(map(str, values))]
    return argv + ["--include-full-m"] * grid.include_full_m


# Each grid streamed to stdout, and README's grid also through --output, the
# path the benchmark streams to.
_STREAM_CASES = [
    *(pytest.param(grid, False, id=name) for name, grid in _STREAM_GRIDS.items()),
    pytest.param(_STREAM_GRIDS["readme"], True, id="readme-output"),
]


@pytest.mark.parametrize("grid, to_file", _STREAM_CASES)
def test_search_stream_matches_per_verdict_render(capsys, tmp_path, grid, to_file):
    """The stream renders each class's text once, from its integers, and
    splices in each point's own fields; its bytes must equal rendering every
    verdict on its own."""
    verdicts = list(grid_search(grid))
    summary = json.dumps(render.summary_json_dict(summarize_sweep(grid_search(grid))))
    rows = io.StringIO()
    writer = csv.writer(rows)
    writer.writerow(VERDICT_CSV_COLUMNS)
    writer.writerows(verdict_csv_row(v) for v in verdicts)
    jsonl = [*(json.dumps(render.verdict_json_dict(v)) for v in verdicts), summary]
    for fmt, out, err in (("jsonl", "\n".join(jsonl) + "\n", ""),
                          ("csv", rows.getvalue(), summary + "\n")):
        argv = _search_argv(grid, fmt)
        target = tmp_path / f"stream.{fmt}"
        if to_file:
            argv += ["--output", str(target)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        if to_file:
            assert captured.out == ""
        assert (target.read_bytes().decode() if to_file else captured.out) == out
        assert captured.err == err


@pytest.mark.parametrize("grid", _STREAM_GRIDS.values(), ids=_STREAM_GRIDS.keys())
def test_search_stream_matches_per_verdict_render_on_each_route(
    capsys, tmp_path, table_route, grid
):
    test_search_stream_matches_per_verdict_render(capsys, tmp_path, grid, False)


@pytest.mark.parametrize("lhs, rhs, den_lhs, den_rhs", [
    (10**400, 3, 7, 2**1100),  # lhs and margin beyond a float, rhs below one
    (6, 10**400, 4, 3),  # a negative margin beyond a float
    (0, 5, 9, 10),
])
def test_sweep_class_text_beyond_the_float_range(lhs, rhs, den_lhs, den_rhs):
    """A class's text, rendered from its integers, matches the per-verdict
    render where an ``approx`` is ``null`` or ``0.0``."""
    num = lhs * den_rhs - rhs * den_lhs
    verdict = InequalityVerdict(
        Params(5, (2, 3)), (1, 3), Fraction(lhs, den_lhs), Fraction(rhs, den_rhs),
        Fraction(num, den_lhs * den_rhs), num >= 0, ProximityClass.RELAXED,
    )
    rows = io.StringIO()
    csv.writer(rows).writerow(verdict_csv_row(verdict))
    want = {"jsonl": json.dumps(render.verdict_json_dict(verdict)) + "\n",
            "csv": rows.getvalue()}
    for fmt, text in render.SWEEP_TEXT.items():
        shared = text.classes(den_lhs, den_rhs)("relaxed", lhs, rhs, num)
        assert text.head(5, 2, 2, (2, 3)) + text.cell((1, 3)) + shared == want[fmt]


def _stream_jsonl(grid: GridSpec) -> str:
    """The JSONL stream of ``inequality search`` on ``grid``, written by the
    CLI's block writer into a string."""
    sink, summary = io.StringIO(), SweepSummary()
    for block in _blocks(grid):
        cli._stream_block(sink, "jsonl", grid, block, summary)
    return sink.getvalue() + json.dumps(render.summary_json_dict(summary)) + "\n"


def test_chunked_table_walk_matches_one_batch(monkeypatch):
    """A cell limit lowered after the grid is built splits the r = 2 block
    of n = 6, T = 3 (35 sorted m vectors) into 4 chunks of 10, and the
    boundary after (1, 3, 3) falls inside its shared prefix (1, 3). The
    summary and the stream must not change."""
    grid = GridSpec((6,), (3,), (2,), p_policy="all")
    want = (repr(summarize_sweep(grid_search(grid))), _stream_jsonl(grid))
    monkeypatch.setattr(core, "TABLE_CELL_LIMIT", 800)
    step = core._chunk_vectors(2, 4**2)
    vectors = [m for m, _ in _m_classes(grid, 6, 3)]
    assert step == 10 and len(vectors) > 3 * step
    assert vectors[step - 1 : step + 1] == [(1, 3, 3), (1, 3, 4)]
    assert (repr(summarize_sweep(grid_search(grid))), _stream_jsonl(grid)) == want


def test_chunked_table_walk_matches_one_batch_on_each_route(monkeypatch, table_route):
    test_chunked_table_walk_matches_one_batch(monkeypatch)


@pytest.mark.parametrize("grid", _STREAM_GRIDS.values(), ids=_STREAM_GRIDS.keys())
def test_class_weights_count_the_grid_points(grid):
    """Each (sorted m, sorted p) class of a block comes once, in ascending
    order, weighted by the number of grid points that sort to it."""
    points = Counter(
        (v.params.n, v.params.T, len(v.p), tuple(sorted(v.params.m)), tuple(sorted(v.p)))
        for v in grid_search(grid)
    )
    weights = {}
    for block in _blocks(grid):
        classes = list(_block_classes(block))
        keys = [(m, p) for m, p, *_ in classes]
        assert keys == sorted(set(keys))
        weights.update(((*block[:3], m, p), weight) for m, p, _, weight, *_ in classes)
    assert weights == dict(points)


def test_table_walks_beyond_the_cell_limit_are_rejected(capsys):
    """Nine draws and nine slots would keep up to 10^10 table cells alive:
    the grid, the search command and weight_sum_table each refuse before
    allocating any. (T+1)^(r+1) = 2^22 is the largest walk admitted."""
    with pytest.raises(ValueError, match="cells"):
        GridSpec((9,), (9,), (9,), m_policy="uniform", p_policy="all-equal")
    assert main(["inequality", "search", "--n", "9", "--T", "9", "--r", "9",
                 "--m-policy", "uniform", "--p-policy", "all-equal"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and "Traceback" not in captured.err
    with pytest.raises(ValueError, match="cells"):
        weight_sum_table(Params(9, (3,) * 9), 9)
    GridSpec((11,), (3,), (10,))
    with pytest.raises(ValueError, match="cells"):
        GridSpec((11,), (3,), (11,))


def test_inequality_reduce_commands(capsys):
    code, payload = _run_json(
        capsys,
        ["inequality", "reduce", "--case", "p-eq-T", "--n", "10", "--m", "3,4",
         "--format", "json"],
    )
    assert code == 0
    assert fraction_from_json(payload["lhs"]) == Fraction(9, 10)
    assert fraction_from_json(payload["rhs"]) == Fraction(1, 2)
    code, payload = _run_json(
        capsys,
        ["inequality", "reduce", "--case", "p-eq-T-minus-1", "--n", "10",
         "--m", "4", "--T", "3", "--format", "json"],
    )
    assert code == 0
    assert payload["holds"] is True


def test_inequality_audit_command(capsys):
    code, payload = _run_json(
        capsys,
        ["inequality", "audit", "--m", "3", "--T", "1..4", "--format", "json"],
    )
    assert code == 0
    assert payload["all_ok"] is True
    assert payload["lhs_monotone_in_n"] and payload["rhs_monotone_in_n"]


def test_simulate_command_reproducible(capsys):
    argv = ["simulate", "--n", "12", "--m", "4,6", "--t", "1", "--mode", "exact",
            "--trials", "20000", "--seed", "42", "--format", "json"]
    code, first = _run_json(capsys, argv)
    assert code == 0
    code, second = _run_json(capsys, argv)
    assert first == second
    direct = monte_carlo(Params(12, (4, 6)), 1, TailMode.EXACTLY, 20000, 42)
    assert first["estimates"][0]["value"] == direct.raw_moment_estimates[0]


def test_simulate_command_csv(capsys):
    code = main(
        ["simulate", "--n", "12", "--m", "4,6", "--t", "1", "--mode", "exact",
         "--trials", "5000", "--seed", "1", "--format", "csv"]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    direct = monte_carlo(Params(12, (4, 6)), 1, TailMode.EXACTLY, 5000, 1)
    assert len(rows) == 4
    # repr round-trip keeps the float estimates exact
    assert float(rows[0]["estimate"]) == direct.raw_moment_estimates[0]
    assert float(rows[1]["stderr"]) == direct.standard_errors[1]


def test_compare_command(capsys):
    code, payload = _run_json(
        capsys,
        ["compare", "--n", "5", "--m", "2,3", "--t", "1", "--mode", "exact",
         "--max-order", "3", "--format", "json"],
    )
    assert code == 0
    assert payload["method"] == "exhaustive"
    assert all(row["equal"] for row in payload["rows"])
    # sampler flags are checked on the exhaustive route too, as simulate does
    for flags, message in ((["--trials", "0"], "trials"), (["--seed", "-1"], "seed")):
        assert main(["compare", "--n", "5", "--m", "2,3", "--t", "1", "--mode",
                     "exact", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


_MC_COMPARE = ["compare", "--n", "30", "--m", "10,12", "--t", "2", "--mode",
               "atleast", "--method", "monte-carlo", "--max-order", "2",
               "--trials", "2000", "--seed", "3"]


def test_compare_command_monte_carlo(capsys):
    report = compare_report(Params(30, (10, 12)), 2, TailMode.AT_LEAST, 2,
                            method="monte-carlo", trials=2000, seed=3)
    assert main(_MC_COMPARE) == 0
    assert capsys.readouterr().out.splitlines() == ["method: monte-carlo"] + [
        f"E(x^{row.order}): formula {row.formula} estimate {row.estimate:.10g} "
        f"z={row.z_score:.3f}"
        for row in report.rows
    ]
    code, payload = _run_json(capsys, _MC_COMPARE + ["--format", "json"])
    assert code == 0
    assert (payload["method"], payload["trials"], payload["seed"]) == (
        "monte-carlo", 2000, 3)
    assert payload["stream_version"] == STREAM_VERSION
    assert [
        (fraction_from_json(row["formula"]), row["estimate"], row["stderr"], row["z"])
        for row in payload["rows"]
    ] == [(row.formula, row.estimate, row.stderr, row.z_score) for row in report.rows]


@pytest.mark.parametrize(
    "argv, key",
    [
        (["compare", "--n", "30", "--m", "10,12", "--t", "2", "--mode", "atleast",
          "--method", "monte-carlo", "--trials", "1"], "rows"),
        (["simulate", "--n", "30", "--m", "10,12", "--t", "2", "--mode", "atleast",
          "--trials", "1"], "estimates"),
    ],
    ids=["compare", "simulate"],
)
def test_one_trial_has_no_standard_error(capsys, argv, key):
    """One trial leaves the standard error, and so z, undefined: JSON
    writes null for them, and the pretty z reads nan."""
    assert main(argv + ["--format", "json"]) == 0
    rows = _strict_json(capsys.readouterr().out)[key]
    assert rows and all(row["stderr"] is None for row in rows)
    assert all(row.get("z") is None for row in rows)
    assert main(argv) == 0
    if key == "rows":
        lines = capsys.readouterr().out.splitlines()[1:]
        assert lines and all(line.endswith(" z=nan") for line in lines)


def test_simulate_orders_beyond_the_float_range_are_usage_errors(capsys):
    assert main(["simulate", "--n", "30", "--m", "10,12", "--t", "1", "--mode",
                 "exact", "--trials", "10", "--max-order", "400"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: order ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_closed_stdout_exits_1_silently(fmt):
    """A reader that stops after one line, as ``| head -n 1`` does, closes
    the pipe mid-sweep: the CLI exits 1 and writes nothing to stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "occukit.cli", "inequality", "search",
         "--n", "3..8", "--T", "1..4", "--r", "2", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def test_config_file_merging(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": 5, "m": [2, 3], "p": "1,1"}))
    code, payload = _run_json(
        capsys, ["--config", str(config), "norm", "--format", "json"]
    )
    assert code == 0
    assert fraction_from_json(payload["value"]) == Fraction(28, 5)
    # explicit flags win over the config value
    code, payload = _run_json(
        capsys, ["--config", str(config), "norm", "--p", "1", "--format", "json"]
    )
    assert code == 0
    assert fraction_from_json(payload["value"]) == Fraction(13, 5)


def test_output_file_option(tmp_path, capsys):
    target = tmp_path / "norm.json"
    code = main(["norm", "--n", "5", "--m", "2,3", "--p", "1,1",
                 "--format", "json", "--output", str(target)])
    assert code == 0
    capsys.readouterr()
    payload = json.loads(target.read_text())
    assert payload["value"]["num"] == "28"


def test_unopenable_files_are_usage_errors(capsys, tmp_path):
    missing = tmp_path / "missing"
    assert main(["--config", str(missing / "run.json"), "norm", "--n", "5",
                 "--m", "2,3", "--p", "1,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error:")
    assert main(["norm", "--n", "5", "--m", "2,3", "--p", "1,1",
                 "--output", str(missing / "norm.txt")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage error:")
    assert len(captured.err.splitlines()) == 1


_FULL_WRITES = {
    "norm": ["norm", "--n", "5", "--m", "2,3", "--p", "1,1"],
    "search-jsonl": ["inequality", "search", "--n", "3..5", "--T", "1..3", "--r", "2"],
    "search-csv": ["inequality", "search", "--n", "3..5", "--T", "1..3", "--r", "2",
                   "--format", "csv"],
}
_NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                  reason="needs /dev/full")


@_NO_DEV_FULL
@pytest.mark.parametrize("argv", _FULL_WRITES.values(), ids=_FULL_WRITES.keys())
def test_failed_writes_to_stdout_are_output_errors(argv):
    """A full disk is not bad input: exit 1 with one ``output error:`` line."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    # A buffered stdout keeps what it could not write and flushes it again
    # at exit, so run it buffered, as a shell runs it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "occukit.cli", *argv], stdout=full,
            stderr=subprocess.PIPE, env={**env, "PYTHONPATH": path},
            timeout=60,
        )
    err = proc.stderr.decode()
    assert proc.returncode == 1
    assert err.startswith("output error: [Errno 28]") and len(err.splitlines()) == 1


@_NO_DEV_FULL
@pytest.mark.parametrize("argv", _FULL_WRITES.values(), ids=_FULL_WRITES.keys())
def test_failed_writes_to_output_are_output_errors(capsys, argv):
    assert main([*argv, "--output", "/dev/full"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("output error: [Errno 28]")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("output", [7, 1, None, ["x"]])
def test_config_output_must_be_a_string(capsys, tmp_path, output):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"output": output}))
    assert main(["--config", str(config), "norm", "--n", "5", "--m", "2,3",
                 "--p", "1,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "'output' must be a path" in captured.err


def test_compare_rejects_max_order_below_one(capsys):
    assert main(["compare", "--n", "5", "--m", "2,3", "--t", "1", "--mode",
                 "exact", "--max-order", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "max_order" in captured.err


@pytest.mark.parametrize(
    "values, argv",
    [
        ({"n": 5.9, "m": [2, 3]}, ["moments", "--t", "1", "--mode", "exact"]),
        ({"n": 5, "m": [2.7, 3]}, ["moments", "--t", "1", "--mode", "exact"]),
        ({"n": 5, "m": [2, 3], "t": True}, ["moments", "--mode", "exact"]),
        ({"n": 3, "T": [1.5], "r": 2}, ["inequality", "search"]),
        ({"n": 3, "T": 1, "r": [True]}, ["inequality", "search"]),
        ({"n": 5, "m": 2, "bsets": [[1.5]]}, ["norm"]),
    ],
)
def test_config_rejects_non_integer_values(capsys, tmp_path, values, argv):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(values))
    assert main(["--config", str(config), *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and "Traceback" not in captured.err


def test_config_keys_are_flag_names(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": 5, "m": [2, 3], "p": [1, 1], "format": "json"}))
    code, payload = _run_json(capsys, ["--config", str(config), "norm"])
    assert code == 0
    assert fraction_from_json(payload["value"]) == Fraction(28, 5)
    # "p-policy" reaches --p-policy: unconstrained points are streamed too
    config.write_text(json.dumps({"p-policy": "all"}))
    assert main(["--config", str(config), "inequality", "search",
                 "--n", "3", "--T", "2", "--r", "2"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert set(lines[-1]["by_class"]) == {"conservative", "unconstrained"}


def test_config_key_of_another_command_is_ignored(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"trials": 5, "n_offsets": "0", "p": "1,1"}))
    assert main(["--config", str(config), "norm", "--n", "5", "--m", "2,3"]) == 0
    assert capsys.readouterr().out.strip() == "28/5 ~= 5.6"


@pytest.mark.parametrize("key", ["nn", "fmt", "include-full-m", "class"])
def test_config_rejects_unknown_keys(capsys, tmp_path, key):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": 5, "m": [2, 3], "p": [1, 1], key: 7}))
    assert main(["--config", str(config), "norm"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"unknown config key {key!r}" in captured.err
