"""Serialization of exact results to JSON/CSV-friendly structures.

Rationals travel as decimal strings of numerator and denominator so a parsed
file reproduces the in-memory value exactly; the float ``approx`` field is
advisory display sugar only. A float that is not finite is written as null.
"""

from __future__ import annotations

from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from math import gcd, inf, isfinite
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .core import _as_index
from .inequality import InductionAudit, InequalityVerdict, ReducedCheck, SweepSummary
from .moments import MomentReport
from .oracle import STREAM_VERSION, ComparisonReport, EmpiricalMoments, ExactPmf


def approx_float(q: Fraction) -> float:
    try:
        return float(q)
    except OverflowError:
        return inf if q > 0 else -inf


def _json_float(x: float) -> float | None:
    return x if isfinite(x) else None


def approx_str(q: Fraction, digits: int = 12) -> str:
    """Decimal rendering to the given number of significant digits."""
    with localcontext() as ctx:
        ctx.prec = _as_index(digits, "digits", 1)
        return str(Decimal(q.numerator) / Decimal(q.denominator))


def fraction_json(q: Fraction) -> dict[str, Any]:
    return {
        "num": str(q.numerator),
        "den": str(q.denominator),
        "approx": _json_float(approx_float(q)),
    }


def fraction_from_json(obj: Mapping[str, Any]) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


VERDICT_CSV_COLUMNS = (
    "n", "T", "r", "m", "p", "class", "lhs", "rhs",
    "margin_num", "margin_den", "holds",
)


def verdict_csv_row(v: InequalityVerdict) -> tuple[str, ...]:
    return (
        str(v.params.n),
        str(v.params.T),
        str(len(v.p)),
        ";".join(str(x) for x in v.params.m),
        ";".join(str(x) for x in v.p),
        v.proximity.value,
        f"{v.lhs.numerator}/{v.lhs.denominator}",
        f"{v.rhs.numerator}/{v.rhs.denominator}",
        str(v.margin.numerator),
        str(v.margin.denominator),
        "true" if v.holds else "false",
    )


def verdict_json_dict(v: InequalityVerdict) -> dict[str, Any]:
    return {
        "n": v.params.n,
        "T": v.params.T,
        "r": len(v.p),
        "m": list(v.params.m),
        "p": list(v.p),
        "class": v.proximity.value,
        "lhs": fraction_json(v.lhs),
        "rhs": fraction_json(v.rhs),
        "margin": fraction_json(v.margin),
        "margin_display": approx_str(v.margin),
        "holds": v.holds,
    }


# The streamed sweep, ``occukit inequality search``: ``header``, then per
# point ``head(n, T, r, m) + cell(p)`` and the text its symmetry class
# shares, ``classes(den_lhs, den_rhs)(name, lhs, rhs, num)``. A class's text
# is rendered once, from its integers: lhs = lhs / den_lhs, rhs = rhs /
# den_rhs, margin = num / (den_lhs * den_rhs), each in lowest terms. A
# record's bytes are those of ``json.dumps(verdict_json_dict(v))`` or of
# ``csv.writer`` given ``verdict_csv_row(v)``: neither quotes nor escapes
# integers, class names, ``/``, ``;`` or a ``Decimal``'s text.


class SweepText(NamedTuple):
    header: str
    head: Callable[[int, int, int, Sequence[int]], str]
    cell: Callable[[Sequence[int]], str]
    classes: Callable[[int, int], Callable[[str, int, int, int], str]]


def _fraction_jsonl(num: int, den: int) -> str:
    """``fraction_json`` of ``num / den`` in lowest terms, as JSON text.
    ``num / den`` is ``float(Fraction)``'s division: it raises rather than
    give a float that is not finite."""
    try:
        approx = repr(num / den)
    except OverflowError:
        approx = "null"
    return f'{{"num": "{num}", "den": "{den}", "approx": {approx}}}'


def _jsonl_classes(den_lhs: int, den_rhs: int) -> Callable[[str, int, int, int], str]:
    den = den_lhs * den_rhs
    context = getcontext().copy()
    context.prec = 12  # approx_str's default digits
    divide = context.divide

    def text(name: str, lhs: int, rhs: int, num: int) -> str:
        a, b, c = gcd(lhs, den_lhs), gcd(rhs, den_rhs), gcd(num, den)
        mn, md = num // c, den // c
        return (
            f'"class": "{name}", "lhs": {_fraction_jsonl(lhs // a, den_lhs // a)}, '
            f'"rhs": {_fraction_jsonl(rhs // b, den_rhs // b)}, '
            f'"margin": {_fraction_jsonl(mn, md)}, '
            f'"margin_display": "{divide(Decimal(mn), Decimal(md))!s}", '
            f'"holds": {"true" if num >= 0 else "false"}}}\n'
        )

    return text


def _csv_classes(den_lhs: int, den_rhs: int) -> Callable[[str, int, int, int], str]:
    den = den_lhs * den_rhs

    def text(name: str, lhs: int, rhs: int, num: int) -> str:
        a, b, c = gcd(lhs, den_lhs), gcd(rhs, den_rhs), gcd(num, den)
        return (
            f"{name},{lhs // a}/{den_lhs // a},{rhs // b}/{den_rhs // b},"
            f"{num // c},{den // c},{'true' if num >= 0 else 'false'}\r\n"
        )

    return text


def _jsonl_head(n: int, T: int, r: int, m: Sequence[int]) -> str:
    return f'{{"n": {n}, "T": {T}, "r": {r}, "m": [{", ".join(map(str, m))}], "p": '


SWEEP_TEXT = {
    "jsonl": SweepText(
        "", _jsonl_head, lambda p: f'[{", ".join(map(str, p))}], ', _jsonl_classes,
    ),
    "csv": SweepText(
        ",".join(VERDICT_CSV_COLUMNS) + "\r\n",
        lambda n, T, r, m: f"{n},{T},{r},{';'.join(map(str, m))},",
        lambda p: ";".join(map(str, p)) + ",",
        _csv_classes,
    ),
}


def summary_json_dict(s: SweepSummary) -> dict[str, Any]:
    out: dict[str, Any] = {
        "type": "summary",
        "total": s.total,
        "holds": s.holds_count,
        "violations": s.violation_count,
        "by_class": dict(s.by_class),
        "violations_by_class": dict(s.violations_by_class),
    }
    if s.min_margin is not None:
        out["min_margin"] = fraction_json(s.min_margin)
        n, m, p = s.min_margin_at
        out["min_margin_at"] = {"n": n, "m": list(m), "p": list(p)}
    return out


def moment_report_json_dict(r: MomentReport) -> dict[str, Any]:
    return {
        "n": r.params.n,
        "m": list(r.params.m),
        "t": r.t,
        "mode": r.mode.value,
        "raw_moments": [
            {"order": v, **fraction_json(q)}
            for v, q in enumerate(r.raw_moments, start=1)
        ],
        "mean": fraction_json(r.mean),
        "variance": fraction_json(r.variance),
        "delta_ev": fraction_json(r.delta_ev),
    }


def pmf_json_dict(pmf: ExactPmf) -> dict[str, Any]:
    return {
        "n": pmf.params.n,
        "m": list(pmf.params.m),
        "t": pmf.t,
        "mode": pmf.mode.value,
        "outcomes": str(pmf.outcome_count),
        "pmf": {
            str(x): {"num": str(q.numerator), "den": str(q.denominator)}
            for x, q in pmf.probabilities.items()
        },
    }


def empirical_json_dict(e: EmpiricalMoments) -> dict[str, Any]:
    return {
        "trials": e.trials,
        "seed": e.seed,
        "stream_version": STREAM_VERSION,
        "estimates": [
            {"order": v, "value": est, "stderr": _json_float(se)}
            for v, (est, se) in enumerate(
                zip(e.raw_moment_estimates, e.standard_errors), start=1
            )
        ],
        "histogram": list(e.occupancy_histogram),
    }


def comparison_json_dict(c: ComparisonReport) -> dict[str, Any]:
    rows = []
    for row in c.rows:
        item: dict[str, Any] = {
            "order": row.order,
            "formula": fraction_json(row.formula),
        }
        if row.oracle is not None:
            item["oracle"] = fraction_json(row.oracle)
            item["equal"] = row.matches
        if row.estimate is not None:
            item["estimate"] = row.estimate
            item["stderr"] = _json_float(row.stderr)
            item["z"] = _json_float(row.z_score)
        rows.append(item)
    out: dict[str, Any] = {
        "n": c.params.n,
        "m": list(c.params.m),
        "t": c.t,
        "mode": c.mode.value,
        "method": c.method,
        "rows": rows,
    }
    if c.trials is not None:
        out["trials"] = c.trials
        out["seed"] = c.seed
        out["stream_version"] = STREAM_VERSION
    return out


def reduced_json_dict(r: ReducedCheck) -> dict[str, Any]:
    return {
        "lhs": fraction_json(r.lhs),
        "rhs": fraction_json(r.rhs),
        "holds": r.holds,
    }


def audit_json_dict(a: InductionAudit) -> dict[str, Any]:
    return {
        "m": a.m,
        "lhs_monotone_in_n": a.lhs_monotone_in_n,
        "rhs_monotone_in_n": a.rhs_monotone_in_n,
        "all_ok": a.all_ok,
        "rows": [
            {
                "T": row.T,
                "n": row.n,
                "lhs_ratio": fraction_json(row.lhs_ratio),
                "rhs_ratio": fraction_json(row.rhs_ratio),
                "ok": row.ok,
            }
            for row in a.rows
        ],
    }
