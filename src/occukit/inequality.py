"""Product-vs-joint norm inequality: single checks, grid sweeps, and the
closed-form reductions that cross-check the general machinery.

The claim under test: for slot sizes ``p_1, ..., p_r`` whose spread
``max(p_i) - min(p_i)`` is at most 1, the product of single-slot norms
dominates the joint norm,

    prod over j of ||(p_j)||  >=  ||(p_1, ..., p_r)||.

Empirically the domination extends to spread up to ``max(1, r - 2)``; beyond
that it can fail (see ``grid_search``, which never suppresses a violation;
mapping the boundary is the point). A sweep classifies every size vector by
its spread: ``conservative`` (<= 1), ``relaxed`` (<= max(1, r - 2)), or
``unconstrained``.

Closed forms implemented as independent cross-checks, all for two slots:

* every slot at full size ``p = T`` reduces to
  ``(1 - 1/n)^(T-1) >= prod (1 - 1/m_i)``;
* every slot at size ``T - 1`` with uniform draw sizes ``m`` reduces to a
  scalar inequality in ``(n, m, T)``;
* the induction step for the latter reduces to a ratio inequality whose two
  sides are rational in ``(n, m, T)``; ``audit_induction_step`` evaluates it
  on a lattice of admissible ``n`` and checks the monotonicity (left side
  non-decreasing, right side non-increasing in ``n``) that lets the minimal
  ``n`` decide all larger ones.
"""

from __future__ import annotations

import enum
import inspect
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

from .combinat import falling_factorial, iter_k_subsets
# weight_sum_table is not called here; perfbench/tracing.py wraps this name.
from .core import (
    Params, SizeSpec, _as_index, _check_table_cells, _prefix_plan,
    _prefix_tables, _table_codes, occupancy_norm, pattern_weight,
    weight_sum_table,
)


class ProximityClass(enum.Enum):
    """How far apart the requested slot sizes are allowed to be."""

    CONSERVATIVE = "conservative"  # spread <= 1
    RELAXED = "relaxed"  # spread <= max(1, r - 2)
    UNCONSTRAINED = "unconstrained"


def classify_sizes(p: Sequence[int]) -> ProximityClass:
    """Tightest class the size vector satisfies."""
    if len(p) <= 1:
        return ProximityClass.CONSERVATIVE
    spread = max(p) - min(p)
    if spread <= 1:
        return ProximityClass.CONSERVATIVE
    if spread <= max(1, len(p) - 2):
        return ProximityClass.RELAXED
    return ProximityClass.UNCONSTRAINED


class InequalityVerdict(NamedTuple):
    params: Params
    p: tuple[int, ...]
    lhs: Fraction  # product of single-slot norms
    rhs: Fraction  # joint norm
    margin: Fraction  # lhs - rhs
    holds: bool
    proximity: ProximityClass


def check_inequality(params: Params, p: Sequence[int]) -> InequalityVerdict:
    """Evaluate both sides exactly on one instance. Reports, never asserts:
    a negative margin comes back as a verdict with ``holds=False``."""
    p = tuple([_as_index(v, "slot size", 0, params.T) for v in p])
    lhs = Fraction(1)
    for v in p:
        lhs *= occupancy_norm(params, SizeSpec.fixed(v))
    rhs = occupancy_norm(params, SizeSpec.fixed(*p))
    margin = lhs - rhs
    return InequalityVerdict(
        params=params, p=p, lhs=lhs, rhs=rhs, margin=margin,
        holds=margin >= 0, proximity=classify_sizes(p),
    )


def factorization_identity_check(params: Params, p: Sequence[int]) -> bool:
    """Verify that the tuple-sum form of the inequality's left side equals
    the product of per-slot normalized sums.

    The left side is computed literally: enumerate every pattern tuple with
    the prescribed sizes, multiply the single-pattern weights, sum, and
    divide by ``n^(r(T-1))``. The right side multiplies the per-slot sums
    ``sum g / n^(T-1)``. Exact equality is the algebraic identity that lets
    the inequality be stated purely in norms.
    """
    p = tuple([_as_index(v, "slot size", 0, params.T) for v in p])
    r, T, n = len(p), params.T, params.n
    if r == 0:
        return True
    slot_weights = [
        [pattern_weight(params, s) for s in iter_k_subsets(T, size)] for size in p
    ]
    tuple_sum = 0
    for combo in itertools.product(*slot_weights):
        w = 1
        for value in combo:
            w *= value
        tuple_sum += w
    lhs = Fraction(tuple_sum, n ** (r * (T - 1)))
    rhs = Fraction(1)
    for weights in slot_weights:
        rhs *= Fraction(sum(weights), n ** (T - 1))
    return lhs == rhs


# ---------------------------------------------------------------------------
# Grid sweeps
# ---------------------------------------------------------------------------

_M_POLICIES = ("uniform", "mixed")
_P_POLICIES = ("all-equal", "proximity", "relaxed", "all")


@dataclass(frozen=True)
class GridSpec:
    """Finite parameter grid for a sweep.

    ``m_policy`` is ``uniform`` (all draw sizes equal) or ``mixed`` (every
    vector). Draw sizes run over ``[1, n-1]`` unless ``include_full_m``
    admits ``m_i = n``. ``p_policy`` bounds the size-vector spread, and so
    the proximity classes swept: ``all-equal`` (spread 0), ``proximity``
    (spread <= 1, the conservative class), ``relaxed`` (spread <=
    max(1, r-2), adding the relaxed class), or ``all`` (every class).
    A grid whose largest ``T`` and ``r`` make a table walk exceed
    ``core.TABLE_CELL_LIMIT`` cells is rejected.
    """

    n_values: tuple[int, ...]
    T_values: tuple[int, ...]
    r_values: tuple[int, ...]
    m_policy: str = "mixed"
    p_policy: str = "proximity"
    include_full_m: bool = False

    def __post_init__(self) -> None:
        for name in ("n_values", "T_values", "r_values"):
            values = tuple([_as_index(v, name, 1) for v in getattr(self, name)])
            object.__setattr__(self, name, values)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} repeats a value: {values}")
        if not (self.n_values and self.T_values and self.r_values):
            raise ValueError("grid ranges must be non-empty")
        if max(self.r_values) > min(self.n_values):
            raise ValueError(
                f"grid admits r={max(self.r_values)} slots with population "
                f"n={min(self.n_values)}; norms need r <= n everywhere"
            )
        if self.m_policy not in _M_POLICIES:
            raise ValueError(f"m_policy must be one of {_M_POLICIES}")
        if self.p_policy not in _P_POLICIES:
            raise ValueError(f"p_policy must be one of {_P_POLICIES}")
        if type(self.include_full_m) is not bool:
            raise TypeError(
                f"include_full_m must be a bool, got {self.include_full_m!r}"
            )
        if not self.include_full_m and min(self.n_values) < 2:
            raise ValueError("n=1 leaves no admissible draw sizes below n")
        _check_table_cells(max(self.T_values), max(self.r_values))


def _m_vectors(grid: GridSpec, n: int, T: int) -> Iterator[tuple[int, ...]]:
    limit = n if grid.include_full_m else n - 1
    if grid.m_policy == "uniform":
        for m in range(1, limit + 1):
            yield (m,) * T
    else:
        yield from itertools.product(range(1, limit + 1), repeat=T)


def _m_classes(grid: GridSpec, n: int, T: int) -> list[tuple[tuple[int, ...], int]]:
    """Sorted m vectors in ascending order, each with the number of grid m
    vectors that sort to it: ``T!/prod mult!`` under ``mixed``, 1 under
    ``uniform``. Equal values of a sorted vector are adjacent, so ``prod
    mult!`` is the product, over its entries, of the length of the run of
    equal values so far."""
    if grid.m_policy == "uniform":
        return [(m, 1) for m in _m_vectors(grid, n, T)]
    limit = n if grid.include_full_m else n - 1
    whole = math.factorial(T)
    out = []
    for m in itertools.combinations_with_replacement(range(1, limit + 1), T):
        mults = run = 1
        for a, b in zip(m, m[1:]):
            run = run + 1 if a == b else 1
            mults *= run
        out.append((m, whole // mults))
    return out


def _p_vectors(grid: GridSpec, T: int, r: int) -> Iterator[tuple[int, ...]]:
    if grid.p_policy == "all-equal":
        for p in range(T + 1):
            yield (p,) * r
        return
    if grid.p_policy == "proximity":
        bound = 1
    elif grid.p_policy == "relaxed":
        bound = max(1, r - 2)
    else:
        bound = T
    for vec in itertools.product(range(T + 1), repeat=r):
        if max(vec) - min(vec) <= bound:
            yield vec


def _blocks(grid: GridSpec) -> Iterator[tuple]:
    """Every (n, T, r) block in grid order, as ``(n, T, r, p_list, den_lhs,
    den_rhs, cell)``: the block's ``(p, sorted p)`` pairs in order,
    then ``n^(r(T-1))`` and ``((n)_r)^(T-1)``, the denominators of the two
    sides in the block (a margin's is their product), then what the blocks
    of one (n, T) share, built once: ``(m_classes, plan, singles)``, the
    sorted m vectors with their orbits (``_m_classes``), their prefix plan
    (``core._prefix_plan``), and an array with one row per sorted m vector,
    its single-slot weight sums ``G_1(v)`` for ``v = 0..T``."""
    for n in grid.n_values:
        for T in grid.T_values:
            m_classes = _m_classes(grid, n, T)
            plan = _prefix_plan(T, [m for m, _ in m_classes])
            singles = np.concatenate(list(_prefix_tables(n, 1, plan, range(T + 1))))
            cell = (m_classes, plan, singles)
            for r in grid.r_values:
                p_list = [(p, tuple(sorted(p))) for p in _p_vectors(grid, T, r)]
                yield (n, T, r, p_list, n ** (r * (T - 1)),
                       falling_factorial(n, r) ** (T - 1), cell)


def _block_classes(block: tuple) -> Iterator[tuple]:
    """The block's (sorted m, sorted p) symmetry classes, from the one walk
    of its tables, each as ``(m, p, name, weight, L, G, num)``.

    Both sides are invariant under permuting the draw sizes (relabelling
    draws) and the slot sizes (independent slots), so one exact computation
    serves a whole class. Classes come in ascending order of m (so the
    table walks share prefixes), then of p; each is the lexicographically
    first point of its orbit. ``name`` is p's proximity class, ``weight``
    the class's grid points: the sorted m's orbit (``T!/prod mult!`` under
    ``mixed``, 1 under ``uniform``) times the block p vectors that sort to
    p. ``L = prod G_1(p_j)`` and ``G = G_r(p)``: ``lhs = L / den_lhs``,
    ``rhs = G / den_rhs`` and the margin is ``num / (den_lhs * den_rhs)``.
    """
    n, T, r, p_list, den_lhs, den_rhs, (m_classes, plan, singles) = block
    counts = sorted(Counter(p_sorted for _, p_sorted in p_list).items())
    p_classes = [(p, classify_sizes(p).value, count) for p, count in counts]
    joints = _prefix_tables(n, r, plan, _table_codes(T, [p for p, _ in counts]))
    rows = (row for chunk in joints for row in chunk)
    for (m, orbit), single, joint in zip(m_classes, singles, rows):
        single = single.tolist()
        for (p, name, count), rhs in zip(p_classes, joint.tolist()):
            lhs = 1
            for v in p:
                lhs *= single[v]
            yield (m, p, name, orbit * count, lhs, rhs,
                   lhs * den_rhs - rhs * den_lhs)


_R = TypeVar("_R")


def _block_rows(
    grid: GridSpec, block: tuple, record: Callable[[tuple], _R],
) -> Iterator[tuple[tuple[int, ...], list[_R]]]:
    """The block's m vectors in grid order, each as ``(m, row)``: ``row[i]``
    is the record of the symmetry class of the point ``(m, p_list[i][0])``.

    A class's record is ``record(cls)``, made once, where ``cls`` is the
    class as ``_block_classes`` yields it. Product order reaches each sorted
    m vector before any of its permutations, and the sorted vectors in
    ascending order, so the class walk advances exactly at the sorted ones,
    and ``record`` meets the classes in the order ``_block_classes`` yields
    them. Later permutations reuse the sorted vector's row.
    """
    n, T, _, p_list, *_ = block
    groups = itertools.groupby(_block_classes(block), itemgetter(0))
    rows: dict[tuple[int, ...], list[_R]] = {}
    for m in _m_vectors(grid, n, T):
        key = tuple(sorted(m))
        if m == key:
            _, group = next(groups)
            records = {cls[1]: record(cls) for cls in group}
            rows[m] = [records[p_sorted] for _, p_sorted in p_list]
        yield m, rows[key]


def _block_verdicts(grid: GridSpec, block: tuple) -> Iterator[InequalityVerdict]:
    """The block's points in grid order, each with the verdict fields of its
    class from ``lhs`` on."""
    n, _, _, p_list, den_lhs, den_rhs, _ = block
    den = den_lhs * den_rhs

    def record(cls: tuple) -> tuple:
        _, _, name, _, lhs, rhs, num = cls
        return (Fraction(lhs, den_lhs), Fraction(rhs, den_rhs), Fraction(num, den),
                num >= 0, ProximityClass(name))

    for m, row in _block_rows(grid, block, record):
        params = Params(n, m)
        for (p, _), fields in zip(p_list, row):
            yield InequalityVerdict(params, p, *fields)


class _GridSweep:
    """The verdict stream of one ``grid_search`` call.

    Iterating it yields the per-point stream; ``summarize_sweep`` folds an
    unstarted one per symmetry class instead (see ``_summarize``).
    """

    __slots__ = ("grid", "_points")

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self._points = (
            verdict
            for block in _blocks(grid)
            for verdict in _block_verdicts(grid, block)
        )

    def __iter__(self) -> Iterator[InequalityVerdict]:
        return self._points

    def __next__(self) -> InequalityVerdict:
        return next(self._points)

    def _summarize(self) -> SweepSummary | None:
        """Class-level summary of the whole stream, or None, leaving the
        stream as it is, once the stream has been started. The summary
        closes the stream, so the sweep reads as consumed afterwards.

        Each (n, T, r) block's classes are folded by weight
        (``SweepSummary._add_block``). Blocks with a violation are walked
        point by point only while ``first_violations`` has room.
        """
        if inspect.getgeneratorstate(self._points) != inspect.GEN_CREATED:
            return None
        self._points.close()
        grid, summary = self.grid, SweepSummary()
        for block in _blocks(grid):
            violations_before = summary.violation_count
            summary._add_block(block, _block_classes(block))
            if (summary.violation_count > violations_before
                    and len(summary.first_violations) < 10):
                for verdict in _block_verdicts(grid, block):
                    if not verdict.holds:
                        summary.first_violations.append(verdict)
                        if len(summary.first_violations) == 10:
                            break
        return summary


def grid_search(grid: GridSpec) -> Iterator[InequalityVerdict]:
    """Yield one verdict per grid point, in deterministic grid order: n, then
    T, then r, each in the order the grid lists them, then m vector, then p
    vector, each ascending.

    ``grid.p_policy`` picks which size vectors are swept. Violations are
    ordinary results; nothing is suppressed or raised. The margins are
    computed in the calling process, one exact computation per symmetry
    class.

    The returned iterator is consumed lazily point by point, except that
    ``summarize_sweep`` given it unstarted tallies whole symmetry classes
    without building the points.
    """
    return _GridSweep(grid)


@dataclass(slots=True)
class SweepSummary:
    """Streaming tallies over a sweep."""

    total: int = 0
    holds_count: int = 0
    violation_count: int = 0
    by_class: dict[str, int] = field(default_factory=dict)
    violations_by_class: dict[str, int] = field(default_factory=dict)
    min_margin: Fraction | None = None
    min_margin_at: tuple | None = None  # (n, m, p)
    first_violations: list[InequalityVerdict] = field(default_factory=list)

    def add(self, verdict: InequalityVerdict) -> None:
        self._count(verdict.proximity.value, verdict.holds, 1)
        self._minimum(verdict.margin, (verdict.params.n, verdict.params.m, verdict.p))
        if not verdict.holds and len(self.first_violations) < 10:
            self.first_violations.append(verdict)

    def _count(self, name: str, holds: bool, weight: int) -> None:
        """Count ``weight`` points of class ``name`` that share one verdict."""
        self.total += weight
        self.by_class[name] = self.by_class.get(name, 0) + weight
        if holds:
            self.holds_count += weight
        else:
            self.violation_count += weight
            self.violations_by_class[name] = (
                self.violations_by_class.get(name, 0) + weight
            )

    def _add_block(self, block: tuple, classes: Iterable[tuple]) -> None:
        """Fold in one (n, T, r) block's symmetry classes, in the order and
        layout ``_block_classes`` yields them: ``_count`` each by weight,
        and one ``_minimum`` for the block. Every margin of a block has one
        denominator, so margins are compared as integer numerators and only
        the block minimum becomes a ``Fraction``. Each class is the
        lexicographically first point of its orbit and the classes come in
        ascending order, so strict ``<`` picks the same ``min_margin_at`` as
        the per-point fold, and ``by_class`` keys come out in the same
        first-seen order."""
        n, _, _, _, den_lhs, den_rhs, _ = block
        low = None
        for m, p, name, weight, _, _, num in classes:
            self._count(name, num >= 0, weight)
            if low is None or num < low:
                low, at = num, (n, m, p)
        self._minimum(Fraction(low, den_lhs * den_rhs), at)

    def _minimum(self, margin: Fraction, at: tuple) -> None:
        """Fold in ``margin``, first reached in grid order at ``at = (n, m,
        p)``; strict ``<`` keeps the earliest point of the minimum."""
        if self.min_margin is None or margin < self.min_margin:
            self.min_margin = margin
            self.min_margin_at = at


def summarize_sweep(verdicts: Iterable[InequalityVerdict]) -> SweepSummary:
    """Tally a verdict stream.

    An unstarted ``grid_search`` result is summarized per symmetry class,
    weighted by orbit size, with the same contents as the per-point fold
    that every other iterable (a started sweep included) goes through.
    """
    if isinstance(verdicts, _GridSweep):
        summary = verdicts._summarize()
        if summary is not None:
            return summary
    summary = SweepSummary()
    for verdict in verdicts:
        summary.add(verdict)
    return summary


# ---------------------------------------------------------------------------
# Closed-form reductions (two slots)
# ---------------------------------------------------------------------------


class ReducedCheck(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    holds: bool


def full_size_reduction(params: Params) -> ReducedCheck:
    """Two slots, both at full size ``p = T``.

    Only one pattern tuple survives (everything covered everywhere), and the
    inequality collapses to ``(1 - 1/n)^(T-1) >= prod (1 - 1/m_i)``. Must
    agree in truth value with ``check_inequality(params, (T, T))``.
    """
    if params.n < 2:
        raise ValueError("reduction needs n > 1")
    lhs = Fraction(params.n - 1, params.n) ** (params.T - 1)
    rhs = Fraction(1)
    for m_i in params.m:
        rhs *= Fraction(m_i - 1, m_i)
    return ReducedCheck(lhs=lhs, rhs=rhs, holds=lhs >= rhs)


def near_full_size_reduction(n: int, m: int, T: int) -> ReducedCheck:
    """Two slots at size ``T - 1`` with uniform draw sizes ``m``.

    Scalar form of the check:

        (1 - 1/n)^(T-1) * T * (n-m)/m
            >= ((m-1)/m)^(T-1) * ((n-m-1)/m + (T-1)(n-m)/(m-1))

    Requires ``2 <= m < n``; for ``T = 1`` additionally ``n >= m + 2`` (at
    ``n = m + 1`` the ratio analysis loses its positive denominator). Must
    agree in truth value with ``check_inequality`` at ``p = (T-1, T-1)``.
    """
    n = _as_index(n, "n")
    m = _as_index(m, "uniform draw size m", 2)
    T = _as_index(T, "T", 1)
    if n <= m:
        raise ValueError(f"need m < n, got m={m}, n={n}")
    if T == 1 and n < m + 2:
        raise ValueError("T=1 needs n >= m + 2 (n = m + 1 is inadmissible)")
    lhs = Fraction(n - 1, n) ** (T - 1) * T * Fraction(n - m, m)
    rhs = Fraction(m - 1, m) ** (T - 1) * (
        Fraction(n - m - 1, m) + (T - 1) * Fraction(n - m, m - 1)
    )
    return ReducedCheck(lhs=lhs, rhs=rhs, holds=lhs >= rhs)


# ---------------------------------------------------------------------------
# Induction-step audit for the near-full reduction
# ---------------------------------------------------------------------------


def minimal_admissible_n(m: int, T: int) -> int:
    """Smallest population for which the induction ratios are defined:
    ``m + 1`` for ``T >= 2`` and ``m + 2`` for ``T = 1``."""
    m = _as_index(m, "m", 2)
    T = _as_index(T, "T", 1)
    return m + 1 if T >= 2 else m + 2


def induction_ratios(m: int, T: int, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of the ratio inequality behind the induction step.

    With ``A = (n-m-1)/m`` and ``B = (n-m)/(m-1)``:

        left  = (1 - 1/n) * (T+1)^2 / T^2
        right = (1 - 1/m) * (A + T*B) / (A + (T-1)*B)

    The left side increases with ``n``, the right side decreases, so checking
    the minimal admissible ``n`` settles all larger populations.
    """
    n = _as_index(n, f"n for m={m}, T={T}", minimal_admissible_n(m, T))
    lhs = Fraction(n - 1, n) * Fraction((T + 1) ** 2, T**2)
    a = Fraction(n - m - 1, m)
    b = Fraction(n - m, m - 1)
    rhs = Fraction(m - 1, m) * (a + T * b) / (a + (T - 1) * b)
    return lhs, rhs


def induction_profile(T: int) -> Fraction:
    """Growth profile ``(T+1)^2 (T-1) / T^3`` of the minimal-population case.

    For ``T >= 2`` the audit's ``n = m + 1`` row reduces to comparing this
    against ``1 - 1/m^2``. The profile equals ``1 + 1/T - 1/T^2 - 1/T^3``,
    which stays strictly above 1 for every ``T >= 2`` (value 9/8 at ``T = 2``,
    peak 32/27 at ``T = 3``, then decreasing toward 1), so it dominates every
    ``1 - 1/m^2``.
    """
    T = _as_index(T, "T", 1)
    return Fraction((T + 1) ** 2 * (T - 1), T**3)


class InductionRow(NamedTuple):
    T: int
    n: int
    lhs_ratio: Fraction
    rhs_ratio: Fraction
    ok: bool


@dataclass(frozen=True, slots=True)
class InductionAudit:
    m: int
    rows: tuple[InductionRow, ...]
    lhs_monotone_in_n: bool  # left ratio non-decreasing along sampled n
    rhs_monotone_in_n: bool  # right ratio non-increasing along sampled n

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)


def audit_induction_step(
    m: int,
    T_values: Iterable[int],
    n_offsets: Iterable[int] = (0, 1, 2, 5, 10),
    extra_n: Iterable[int] = (),
) -> InductionAudit:
    """Evaluate the induction-step ratio inequality on a lattice of cases.

    For each ``T``, the sampled populations are the minimal admissible ``n``
    plus the given offsets, together with any absolute values from
    ``extra_n`` (which must be admissible). Each row records both ratio sides
    exactly and whether the left dominates; the audit also confirms the
    monotonicity in ``n`` that the minimal-case argument relies on.
    """
    rows: list[InductionRow] = []
    lhs_monotone = True
    rhs_monotone = True
    extras = {_as_index(v, "extra n") for v in extra_n}
    offsets = [_as_index(v, "n offset") for v in n_offsets]
    for T in sorted({_as_index(v, "T") for v in T_values}):
        base = minimal_admissible_n(m, T)
        ns = sorted({base + off for off in offsets} | extras)
        if any(v < base for v in ns):
            raise ValueError(
                f"sampled n below the minimal admissible {base} for T={T}"
            )
        sequence = [induction_ratios(m, T, n) for n in ns]
        for n, (lhs, rhs) in zip(ns, sequence):
            rows.append(
                InductionRow(T=T, n=n, lhs_ratio=lhs, rhs_ratio=rhs, ok=lhs >= rhs)
            )
        for (lhs_a, rhs_a), (lhs_b, rhs_b) in zip(sequence, sequence[1:]):
            if lhs_b < lhs_a:
                lhs_monotone = False
            if rhs_b > rhs_a:
                rhs_monotone = False
    if not rows:
        raise ValueError("no T values supplied")
    return InductionAudit(
        m=m,
        rows=tuple(rows),
        lhs_monotone_in_n=lhs_monotone,
        rhs_monotone_in_n=rhs_monotone,
    )
