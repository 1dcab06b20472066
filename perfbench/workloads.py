"""The three workloads: their calls, built from a seed, and the checks of
every output against the exact reference.

Each workload is a list of calls made one after another by a single caller
(a closed loop: each call starts when the previous one returned). Every call
belongs to one of three phases, and reports how many work items it did:
queries for ``queries``, grid points for ``sweep``, draw tuples or trials
for ``oracles``. Calls reach occukit through module attributes
(``core.occupancy_norm``, not a bound name), so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import reference as ref


@dataclass
class Call:
    phase: int  # 1, 2 or 3
    items: int  # work items the call does, in the phase's unit
    fn: Callable[[], Any]
    check: Callable[[Any], list[str]]  # returns the problems found
    # Filled in by the timed passes: the fastest time, the last result or
    # error, and how many passes failed.
    seconds: float = 0.0
    result: Any = None
    error: str | None = None
    failures: int = 0


@dataclass
class Inputs:
    calls: list[Call]
    extra: dict[str, Any] = field(default_factory=dict)  # counts for the traced run


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

POOL_SIZE = 40
DISTINCT_QUERIES = 160
REPEATED_QUERIES = 40  # a quarter of the distinct ones are asked again
REF_JOINT3_MAX_T = 14  # three-slot reference DP above this T is too slow


def _pool(rng: random.Random) -> list[tuple[int, tuple[int, ...]]]:
    # T is spread evenly over 4..24 so that seeds change n and m but not the
    # mix of problem sizes; n is log-uniform in [40, 1000].
    pool = []
    for i in range(POOL_SIZE):
        T = 4 + (i * 21) // POOL_SIZE
        n = round(math.exp(rng.uniform(math.log(40), math.log(1000))))
        pool.append((n, tuple(rng.randint(1, n - 1) for _ in range(T))))
    return pool


def _window(rng: random.Random, T: int) -> set[int]:
    lo = rng.randint(0, T // 2)
    return set(range(lo, min(T, lo + rng.randint(0, T // 3)) + 1))


def _query_spec(rng: random.Random, T: int) -> tuple[str, Any]:
    """One query on an instance with T draws: (kind, arguments)."""
    kind = rng.choices(("moments", "norm", "check"), weights=(8, 7, 5))[0]
    max_r = 3 if T <= 20 else 2
    if kind == "moments":
        at_least = rng.random() < 0.5
        # Order 4 in at-least mode costs C(T+4, 4) DP states per draw;
        # capping T keeps single queries under a few hundred ms.
        top = 4 if T <= (12 if at_least else 18) else 3
        order = rng.randint(2, top)
        t = rng.randint(max(1, T // 4), max(1, T // 2))
        return kind, (t, at_least, order)
    if kind == "norm":
        shape = rng.choice(("fixed", "window", "mixed"))
        r = rng.randint(2 if shape == "mixed" else 1, max_r)
        if shape == "fixed":
            base = rng.randint(T // 4, T // 2)
            spec = [base + rng.randint(0, 1) for _ in range(r)]
        elif shape == "window":
            spec = [_window(rng, T) for _ in range(r)]
        else:
            spec = [rng.randint(T // 4, T // 2)] + [_window(rng, T) for _ in range(r - 1)]
        return kind, spec
    r = rng.randint(2, max_r)
    base = rng.randint(T // 4, T // 2)
    return kind, tuple(base + rng.randint(0, 1) for _ in range(r))


def _as_sets(spec) -> list[frozenset[int]]:
    return [frozenset((s,)) if isinstance(s, int) else frozenset(s) for s in spec]


def _check_norm(occukit, n: int, m: tuple[int, ...], spec, value) -> list[str]:
    """Exact comparison with the reference; three slots at large T go
    through the slot-marginalisation identity instead:
    ||(B1, B2, B3)|| + ||(B1', B2, B3)|| = (n - 2) ||(B2, B3)||,
    where B1' is the complement of B1 in {0..T}."""
    sets = _as_sets(spec)
    if len(sets) < 3 or len(m) <= REF_JOINT3_MAX_T:
        expected = ref.norm(n, m, sets)
        return [] if value == expected else [f"norm n={n} T={len(m)} {spec}: {value} != {expected}"]
    rest = ref.norm(n, m, sets[1:])
    complement = frozenset(range(len(m) + 1)) - sets[0]
    other = Fraction(0)
    if complement:
        params = occukit.core.Params(n, m)
        other = occukit.core.occupancy_norm(params, [complement, *sets[1:]])
    if value + other != (n - 2) * rest:
        return [f"marginalisation fails at n={n} T={len(m)} {spec}"]
    return []


def _check_moments(occukit, n, m, t, at_least, order, report) -> list[str]:
    sizes = ref.threshold_set(len(m), t, at_least)
    raw = report.raw_moments
    problems = []
    mean = ref.factorial_moment(n, m, sizes, 1)
    second = ref.factorial_moment(n, m, sizes, 2)
    if raw[0] != mean:
        problems.append(f"mean n={n} T={len(m)} t={t}: {raw[0]} != {mean}")
    if raw[1] - raw[0] != second:
        problems.append(f"E[(X)_2] n={n} T={len(m)} t={t}: {raw[1] - raw[0]} != {second}")
    # Falling-factorial moments from raw ones (Stirling numbers of the
    # first kind); each lies in [0, (n)_v].
    signed = {3: (2, -3, 1), 4: (-6, 11, -6, 1)}
    for v in range(3, order + 1):
        fm = sum(c * raw[i] for i, c in enumerate(signed[v]))
        if not 0 <= fm <= ref.falling(n, v):
            problems.append(f"E[(X)_{v}] outside [0, (n)_{v}] at n={n} T={len(m)}")
        if v == 3 and len(m) <= REF_JOINT3_MAX_T:
            expected = ref.factorial_moment(n, m, sizes, 3)
            if fm != expected:
                problems.append(f"E[(X)_3] n={n} T={len(m)}: {fm} != {expected}")
    if order >= 4:
        m1, m2, m3, m4 = raw[:4]
        det = m2 * m4 + 2 * m1 * m2 * m3 - m2**3 - m4 * m1 * m1 - m3 * m3
        if det < 0:
            problems.append(f"moment Hankel determinant < 0 at n={n} T={len(m)}")
    return problems


def _check_verdict(occukit, n, m, p, verdict) -> list[str]:
    lhs = Fraction(1)
    for p_j in p:
        lhs *= ref.norm(n, m, [p_j])
    problems = []
    if verdict.lhs != lhs:
        problems.append(f"check lhs n={n} T={len(m)} p={p}")
    problems += _check_norm(occukit, n, m, list(p), verdict.rhs)
    if verdict.margin != verdict.lhs - verdict.rhs or verdict.holds != (verdict.margin >= 0):
        problems.append(f"check margin/holds n={n} T={len(m)} p={p}")
    return problems


def queries(occukit, seed: int, workdir: str) -> Inputs:
    core, moments, inequality = occukit.core, occukit.moments, occukit.inequality
    # The mix of query shapes (kind, pool slot, orders, spec shapes, sizes
    # relative to T) is the same for every seed, so that the work per round
    # does not depend on it; the seed draws the instances (n and m) of the
    # pool and the order of the calls.
    shapes = random.Random("queries:shapes")
    rng = _rng("queries", seed)
    pool = _pool(rng)
    params = [core.Params(n, m) for n, m in pool]
    exactly, at_least_mode = moments.TailMode.EXACTLY, moments.TailMode.AT_LEAST
    distinct = []
    for _ in range(DISTINCT_QUERIES):
        i = shapes.randrange(POOL_SIZE)
        distinct.append((i, *_query_spec(shapes, len(pool[i][1]))))
    plan = distinct + shapes.sample(distinct, REPEATED_QUERIES)
    rng.shuffle(plan)

    calls = []
    for i, kind, args in plan:
        n, m = pool[i]
        P = params[i]
        if kind == "moments":
            t, at_least, order = args
            mode = at_least_mode if at_least else exactly
            fn = lambda P=P, t=t, mode=mode, order=order: moments.moment_report(P, t, mode, order)
            check = lambda r, n=n, m=m, a=args: _check_moments(occukit, n, m, *a, r)
            calls.append(Call(1, 1, fn, check))
        elif kind == "norm":
            fn = lambda P=P, spec=args: core.occupancy_norm(P, spec)
            check = lambda v, n=n, m=m, spec=args: _check_norm(occukit, n, m, spec, v)
            calls.append(Call(2, 1, fn, check))
        else:
            fn = lambda P=P, p=args: inequality.check_inequality(P, p)
            check = lambda v, n=n, m=m, p=args: _check_verdict(occukit, n, m, p, v)
            calls.append(Call(3, 1, fn, check))
    return Inputs(calls)


def _digest_query(result) -> str:
    if hasattr(result, "raw_moments"):
        return repr(result.raw_moments)
    if hasattr(result, "margin"):
        return repr((result.lhs, result.rhs, result.margin, result.holds))
    return repr(result)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# One call per (n, T) cell, with r in {2, 3}. grid_search keeps one margin
# cache per (n, T), shared by both r values, so a cell call does the same
# exact work as that cell inside the whole grid n 3..8, T 1..5. Cells are
# capped by point count to keep a pass under a second, so that a run has
# many passes to take each call's best time from.
R_VALUES = (2, 3)


def _cell_size(n: int, T: int) -> int:
    return ref.grid_size([n], [T], R_VALUES)


_CELLS = [(n, T) for n in range(3, 9) for T in range(1, 6)]
SUMMARY_CELLS = [c for c in _CELLS if _cell_size(*c) <= 30_000]
STREAM_CELLS = [c for c in _CELLS if _cell_size(*c) <= 4_000]
STREAM_SAMPLE = 25  # streamed records per file compared with the reference


def _check_summary(n, T, summary) -> list[str]:
    expected = _cell_size(n, T)
    where = f"summary n={n} T={T}"
    problems = []
    if summary.total != expected:
        problems.append(f"{where}: {summary.total} points != {expected}")
    if summary.holds_count + summary.violation_count != summary.total:
        problems.append(f"{where}: holds + violations != total")
    if summary.by_class != {"conservative": summary.total}:
        problems.append(f"{where}: classes {summary.by_class}")
    at_n, at_m, at_p = summary.min_margin_at
    if (at_n, len(at_m)) != (n, T) or len(at_p) not in R_VALUES:
        problems.append(f"{where}: min margin outside the cell")
    elif ref.margin(n, at_m, at_p)[2] != summary.min_margin:
        problems.append(f"{where}: min margin differs from the reference")
    return problems


def _summary_key(s) -> tuple:
    return (s.total, s.holds_count, s.violation_count, s.by_class, s.min_margin, s.min_margin_at)


def _read_stream(path: str, fmt: str, stderr: str) -> tuple[list[tuple], dict]:
    """Records (n, m, p, lhs, rhs, margin, holds) and the summary record."""
    records = []
    with open(path, encoding="utf-8", newline="") as fh:
        if fmt == "jsonl":
            lines = fh.read().splitlines()
            for line in lines[:-1]:
                v = json.loads(line)
                records.append((
                    v["n"], tuple(v["m"]), tuple(v["p"]),
                    *(Fraction(int(v[k]["num"]), int(v[k]["den"])) for k in ("lhs", "rhs", "margin")),
                    v["holds"],
                ))
            return records, json.loads(lines[-1]) if lines else {}
        rows = list(csv.reader(fh))
    if rows[:1] != [["n", "T", "r", "m", "p", "class", "lhs", "rhs",
                     "margin_num", "margin_den", "holds"]]:
        return [], {}
    for row in rows[1:]:
        records.append((
            int(row[0]), tuple(map(int, row[3].split(";"))), tuple(map(int, row[4].split(";"))),
            Fraction(row[6]), Fraction(row[7]), Fraction(int(row[8]), int(row[9])),
            row[10] == "true",
        ))
    return records, json.loads(stderr)


def _check_stream(n, T, records, tail, rng: random.Random) -> list[str]:
    expected = _cell_size(n, T)
    where = f"stream n={n} T={T}"
    if len(records) != expected:
        return [f"{where}: {len(records)} records for {expected} points"]
    problems = []
    holds = sum(1 for rec in records if rec[6])
    if (tail.get("type"), tail.get("total"), tail.get("holds"), tail.get("violations")) != (
        "summary", expected, holds, expected - holds
    ):
        problems.append(f"{where}: summary record does not match the records")
    if any(rec[0] != n or len(rec[1]) != T or len(rec[2]) not in R_VALUES
           or rec[6] != (rec[5] >= 0) for rec in records):
        problems.append(f"{where}: a record is outside the cell or holds != (margin >= 0)")
    for index in rng.sample(range(expected), min(STREAM_SAMPLE, expected)):
        rec = records[index]
        if rec[3:6] != ref.margin(n, rec[1], rec[2]):
            problems.append(f"{where}: record {index} differs from the reference")
    return problems


def sweep(occukit, seed: int, workdir: str) -> Inputs:
    """The grid is the same for every seed; the seed orders the calls within
    each phase and picks the streamed records that are checked."""
    cli, inequality = occukit.cli, occukit.inequality
    rng = _rng("sweep", seed)
    check_rng = random.Random(rng.random())
    calls = []
    extra = {"bytes_written": 0}
    stderr: dict[str, str] = {}
    jsonl: dict[tuple[int, int], list[tuple]] = {}

    def summary(n, T):
        grid = inequality.GridSpec((n,), (T,), R_VALUES, m_policy="mixed", p_policy="proximity")
        return inequality.summarize_sweep(inequality.grid_search(grid))

    def stream(argv, path):
        # In CSV mode the CLI writes its summary record to stderr.
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        stderr[path] = err.getvalue()
        extra["bytes_written"] += os.path.getsize(path)
        return code, path

    def check_stream(result, cell, path, fmt):
        code = result[0]
        if code != 0:
            return [f"{fmt} stream {cell}: exit code {code}"]
        records, tail = _read_stream(path, fmt, stderr[path])
        problems = _check_stream(*cell, records, tail, check_rng)
        if fmt == "jsonl":
            jsonl[cell] = records
        elif records != jsonl.get(cell):
            problems.append(f"csv stream {cell}: records differ from the JSONL stream")
        return problems

    for cell in rng.sample(SUMMARY_CELLS, len(SUMMARY_CELLS)):
        check = lambda s, cell=cell: _check_summary(*cell, s)
        calls.append(Call(1, _cell_size(*cell), lambda c=cell: summary(*c), check))

    for phase, fmt in ((2, "jsonl"), (3, "csv")):
        for cell in rng.sample(STREAM_CELLS, len(STREAM_CELLS)):
            n, T = cell
            path = os.path.join(workdir, f"stream-n{n}-T{T}.{fmt}")
            argv = ["inequality", "search", "--n", str(n), "--T", str(T),
                    "--r", f"{R_VALUES[0]}..{R_VALUES[-1]}",
                    "--format", fmt, "--output", path]
            check = lambda res, cell=cell, path=path, fmt=fmt: check_stream(res, cell, path, fmt)
            calls.append(Call(phase, _cell_size(n, T),
                              lambda argv=argv, path=path: stream(argv, path), check))
    return Inputs(calls, extra)


def _digest_sweep(result) -> str:
    if isinstance(result, tuple):  # (exit code, output file) of a streamed sweep
        with open(result[1], "rb") as fh:
            return f"{result[0]} {hashlib.sha256(fh.read()).hexdigest()}"
    return repr(_summary_key(result))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

BIG_N, BIG_M = 9, (3, 3, 4)  # 889,056 draw tuples, in a seeded order
MC_TRIALS = 2 * (1 << 15)  # two sampler blocks, one per thread at threads=2
MC_CONFIGS = (  # the first two criterion-8 configurations
    (40, (12, 15, 18), 2, True),
    (40, (10, 10, 10), 1, False),
)
Z_LIMIT = 5


def _family() -> list[tuple[int, tuple[int, ...]]]:
    """Criterion 2's family: n in [2, 6], T in [1, 3], m_i in [1, n - 1]."""
    return [
        (n, m)
        for n in range(2, 7)
        for T in range(1, 4)
        for m in itertools.product(range(1, n), repeat=T)
    ]


def _tuples(n: int, m) -> int:
    return math.prod(math.comb(n, m_i) for m_i in m)


def _check_pmf(n, m, t, at_least, pmf) -> list[str]:
    sizes = ref.threshold_set(len(m), t, at_least)
    probs = pmf.probabilities
    mean = sum((x * q for x, q in probs.items()), Fraction(0))
    second = sum((x * (x - 1) * q for x, q in probs.items()), Fraction(0))
    problems = []
    if sum(probs.values()) != 1:
        problems.append(f"pmf n={n} m={m} t={t} does not sum to 1")
    if mean != ref.factorial_moment(n, m, sizes, 1):
        problems.append(f"pmf mean n={n} m={m} t={t}")
    if second != ref.factorial_moment(n, m, sizes, 2):
        problems.append(f"pmf E[(X)_2] n={n} m={m} t={t}")
    return problems


def _check_mc(n, m, t, at_least, est, serial=None) -> list[str]:
    sizes = ref.threshold_set(len(m), t, at_least)
    mean = ref.factorial_moment(n, m, sizes, 1)
    exact = (mean, ref.factorial_moment(n, m, sizes, 2) + mean)
    problems = []
    for order in (1, 2):
        se = est.standard_errors[order - 1]
        z = (est.raw_moment_estimates[order - 1] - float(exact[order - 1])) / se
        if not abs(z) <= Z_LIMIT:
            problems.append(f"monte carlo n={n} m={m} order {order}: |z| = {abs(z):.2f}")
    if serial is not None and est.occupancy_histogram != serial.occupancy_histogram:
        problems.append(f"threads=2 histogram differs from serial at n={n} m={m}")
    return problems


def oracles(occukit, seed: int, workdir: str) -> Inputs:
    core, oracle, moments = occukit.core, occukit.oracle, occukit.moments
    rng = _rng("oracles", seed)
    modes = {True: moments.TailMode.AT_LEAST, False: moments.TailMode.EXACTLY}
    calls = []
    # One call per instance, at a seeded threshold and mode: the enumeration
    # dominates and does not depend on either.
    family = _family()
    rng.shuffle(family)
    for n, m in family:
        t, at_least = rng.randint(1, len(m)), rng.random() < 0.5
        fn = lambda P=core.Params(n, m), t=t, mode=modes[at_least]: oracle.exhaustive_pmf(P, t, mode)
        check = lambda r, n=n, m=m, t=t, a=at_least: _check_pmf(n, m, t, a, r)
        calls.append(Call(1, _tuples(n, m), fn, check))

    big_m = tuple(rng.sample(BIG_M, len(BIG_M)))
    big_t, big_at_least = rng.randint(1, 2), rng.random() < 0.5
    fn = lambda P=core.Params(BIG_N, big_m): oracle.exhaustive_pmf(P, big_t, modes[big_at_least])
    check = lambda r: _check_pmf(BIG_N, big_m, big_t, big_at_least, r)
    calls.append(Call(1, _tuples(BIG_N, big_m), fn, check))

    mc_seeds = [rng.getrandbits(63) for _ in MC_CONFIGS]
    serial: dict[int, Any] = {}
    for index, ((n, m, t, at_least), mc_seed) in enumerate(zip(MC_CONFIGS, mc_seeds)):
        def fn(P=core.Params(n, m), t=t, mode=modes[at_least], s=mc_seed, i=index):
            serial[i] = oracle.monte_carlo(P, t, mode, MC_TRIALS, s, max_order=2)
            return serial[i]

        check = lambda r, n=n, m=m, t=t, a=at_least: _check_mc(n, m, t, a, r)
        calls.append(Call(2, MC_TRIALS, fn, check))

    # The first configuration again with two threads and the same seed: its
    # histogram must be bit-identical to the serial one.
    n, m, t, at_least = MC_CONFIGS[0]
    fn = lambda P=core.Params(n, m): oracle.monte_carlo(
        P, t, modes[at_least], MC_TRIALS, mc_seeds[0], max_order=2, threads=2
    )
    check = lambda r: _check_mc(n, m, t, at_least, r, serial.get(0))
    calls.append(Call(3, MC_TRIALS, fn, check))
    extra = {
        "enum_tuples": sum(c.items for c in calls if c.phase == 1),
        "mc_trials": sum(c.items for c in calls if c.phase != 1),
    }
    return Inputs(calls, extra)


def _digest_oracle(result) -> str:
    if hasattr(result, "probabilities"):
        return repr(sorted(result.probabilities.items()))
    return repr(result.occupancy_histogram)


BUILDERS = {"queries": queries, "sweep": sweep, "oracles": oracles}
# Passes per untraced round, so that a round takes about four seconds and a
# call's best time is taken over several passes as well as several rounds.
PASSES = {"queries": 3, "sweep": 4, "oracles": 2}
_DIGESTS = {"queries": _digest_query, "sweep": _digest_sweep, "oracles": _digest_oracle}


def digest(workload: str, calls: list[Call]) -> str:
    """Fingerprint of every output, so repeated rounds can be compared with
    the round whose outputs were checked."""
    h = hashlib.sha256()
    describe = _DIGESTS[workload]
    for call in calls:
        h.update((describe(call.result) if call.error is None else call.error).encode())
        h.update(b"\n")
    return h.hexdigest()
