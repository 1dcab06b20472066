"""Exact occupancy weights, constrained weight sums, and norms.

Model
-----
A population of ``n`` elements is sampled by ``T`` independent uniform draws;
draw ``i`` picks a subset of fixed size ``m_i`` without replacement. Track
``r`` distinct population elements and prescribe, for each tracked element
``j``, the *coverage pattern* ``A_j``: the set of draw indices that must
contain it. The number of ways the draws can realise the joint prescription,
counted with the tracked elements placed injectively, factorises over draws:

    joint_weight(A_1, ..., A_r) =
        prod over draws i of  (m_i)_{k_i} * (n - m_i)_{r - k_i}

where ``k_i`` is how many of the ``A_j`` contain draw ``i`` and ``(x)_k`` is
the falling factorial. Dividing by ``(n)_r`` per draw turns the weight into
the probability that ``r`` fixed distinct elements show exactly the patterns
``A_1, ..., A_r``.

Summing the weight over all pattern tuples whose sizes are constrained
(``|A_j| = p_j``, or more generally ``|A_j| in B_j``) gives the *weight sum*
``G(p_1, ..., p_r)``. The associated *norm*

    ||(p_1, ..., p_r)|| = G(p_1, ..., p_r) / ((n)_r)^(T-1)

is the expected number of ordered r-tuples of distinct elements where element
``j`` is covered by exactly ``p_j`` draws (a joint factorial moment of the
occupancy counts). Norms are the building blocks of every moment formula and
of the product-vs-joint inequality in :mod:`occukit.inequality`.

All arithmetic is exact: weights are Python integers, norms are
``fractions.Fraction``. Floats appear only in display helpers.

Evaluation routes
-----------------
``weight_sum_naive`` enumerates every admissible pattern tuple literally, at
cost ``O(prod C(T, p_j))``, and is the oracle. ``weight_sum_dp`` reaches the
same value by dynamic programming over draws, at cost ``T`` times the moves
between live states. The weight is symmetric in the slots, so for any mix of
size sets the state is the sorted tuple of all slots' used memberships
(levels): at most ``C(L + r, r)`` states for ``r`` slots whose level is capped
at ``L``. When some set holds ``T``, ``L`` is the lowest level from which
every set holds all or none of the sizes up to ``T``, since final sizes from
``L`` on need not be told apart; otherwise it is the largest size. An
at-least query on ``r`` slots with threshold ``t`` thus has at most
``C(t + r, r)`` states per draw, where uncapped levels would give about
``C(T + r, r)``. Which slot holds which level is settled after the last draw,
by counting the orderings of the final levels that fit every slot's set.
Slots that allow every size factor out in closed form. The states and moves
depend only on the size sets (not on ``n``, ``m`` or, past ``L``, ``T``), so
they form a graph built once per shape and kept in a cache bounded by moves;
each call runs only the weight pass over it, in numpy object arrays of
Python ints. One slot left needs no graph: its levels form a chain, walked
over a list of Python ints.
``weight_sum_table`` produces ``G`` for every size vector of a given tuple
length in one pass: the walk ``_prefix_tables`` over one draw-size vector.
The inequality sweeps walk many vectors in lexicographic order, each rerunning
only the draws past the prefix it shares with the one before; where int64
arithmetic is provably exact, all vectors' tables advance one draw at a time
as rows of one array.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from .combinat import falling_factorial, iter_k_subsets
from .errors import DegenerateDenominatorError


def _as_index(
    value: object, what: str, lo: int | None = None, hi: int | None = None
) -> int:
    """``value`` as an exact int, at least ``lo`` and at most ``hi`` when
    given (``hi`` only with ``lo``). Ints and numpy integers pass; floats,
    strings and bools raise ``TypeError`` rather than being truncated or read
    as 0 and 1. A value out of bounds raises ``ValueError``."""
    if type(value) is not int:
        if isinstance(value, bool):
            raise TypeError(f"{what} must be an integer, got bool {value!r}")
        try:
            value = operator.index(value)
        except TypeError:
            raise TypeError(f"{what} must be an integer, got {value!r}") from None
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bounds = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{what} must be {bounds}, got {value}")
    return value


def _is_scalar(value: object) -> bool:
    """Whether a slot entry is one size rather than a set of sizes: anything
    that cannot be iterated, so that ``_as_index`` judges it, and a 0-d
    numpy array."""
    return not hasattr(type(value), "__iter__") or (
        type(value) is np.ndarray and value.ndim == 0
    )


def _size_set(values: Iterable[int]) -> frozenset[int]:
    """One slot's admissible sizes as a frozenset of exact ints."""
    if type(values) is frozenset and {int}.issuperset(map(type, values)):
        return values
    return frozenset([_as_index(size, "pattern size") for size in values])


@dataclass(frozen=True, slots=True)
class Params:
    """One problem instance: population size ``n`` and draw sizes ``m``.

    ``m`` has one entry per draw; its length is the number of draws ``T``.
    Every size must be an integer (see ``_as_index``) with
    ``1 <= m_i <= n``.
    """

    n: int
    m: tuple[int, ...]

    def __post_init__(self) -> None:
        n = _as_index(self.n, "population size n", 1)
        object.__setattr__(self, "n", n)
        m = tuple([_as_index(v, "draw size", 1, n) for v in self.m])
        object.__setattr__(self, "m", m)
        if not m:
            raise ValueError("at least one draw size is required")

    @property
    def T(self) -> int:
        """Number of draws."""
        return len(self.m)


SpecLike = Union["SizeSpec", Sequence[int], Sequence[Iterable[int]]]


@dataclass(frozen=True, slots=True)
class SizeSpec:
    """Per-slot admissible pattern sizes.

    Each entry is a non-empty set of allowed cardinalities for one slot.
    A fixed size vector ``(p_1, ..., p_r)`` is the special case where every
    entry is a singleton; mixed fixed/set entries are allowed. Sizes must be
    integers (see ``_as_index``); each entry is stored as a frozenset. Upper
    bounds are validated against a concrete instance at evaluation time,
    since the same spec may be reused across instances with different ``T``.
    """

    entries: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(map(_size_set, self.entries)))
        for entry in self.entries:
            if not entry:
                raise ValueError("size sets must be non-empty")
            if min(entry) < 0:
                raise ValueError(f"sizes must be non-negative, got {sorted(entry)}")

    @classmethod
    def fixed(cls, *sizes: int) -> "SizeSpec":
        return cls(tuple((p,) for p in sizes))

    @classmethod
    def of_sets(cls, *size_sets: Iterable[int]) -> "SizeSpec":
        return cls(size_sets)

    @classmethod
    def repeated(cls, entry: int | Iterable[int], count: int) -> "SizeSpec":
        """``count`` identical slots, each allowing ``entry`` (int or set)."""
        b = _size_set((entry,) if _is_scalar(entry) else entry)
        return cls((b,) * _as_index(count, "count", 0))

    @classmethod
    def coerce(cls, value: SpecLike) -> "SizeSpec":
        if isinstance(value, SizeSpec):
            return value
        return cls(tuple((item,) if _is_scalar(item) else item for item in value))

    @property
    def r(self) -> int:
        """Number of slots (tracked elements)."""
        return len(self.entries)

    @property
    def is_fixed(self) -> bool:
        return all(len(b) == 1 for b in self.entries)

    @property
    def fixed_sizes(self) -> tuple[int, ...]:
        if not self.is_fixed:
            raise ValueError("spec has non-singleton size sets")
        return tuple(next(iter(b)) for b in self.entries)

    def describe(self) -> str:
        if self.is_fixed:
            return "p=(" + ", ".join(str(p) for p in self.fixed_sizes) + ")"
        return "B=(" + ", ".join(
            "{" + ",".join(str(s) for s in sorted(b)) + "}" for b in self.entries
        ) + ")"


def _validate_pattern(params: Params, pattern: Iterable[int]) -> frozenset[int]:
    return frozenset([_as_index(i, "draw index", 1, params.T) for i in pattern])


def _validate_spec(params: Params, spec: SizeSpec) -> None:
    for j, entry in enumerate(spec.entries, start=1):
        if max(entry) > params.T:
            raise ValueError(
                f"slot {j} allows size {max(entry)} > number of draws T={params.T}"
            )


def membership_counts(T: int, patterns: Sequence[Iterable[int]]) -> tuple[int, ...]:
    """Per-draw multiplicities: how many patterns contain each draw index."""
    counts = [0] * T
    for pattern in patterns:
        for i in pattern:
            counts[_as_index(i, "draw index", 1, T) - 1] += 1
    return tuple(counts)


def pattern_weight(params: Params, pattern: Iterable[int]) -> int:
    """Weight of a single coverage pattern.

    Each draw index in the pattern contributes ``m_i``, each index outside it
    contributes ``n - m_i``. Divided by ``n^T`` this is the probability that
    one fixed element is covered by exactly the draws in ``pattern``.
    """
    covered = _validate_pattern(params, pattern)
    out = 1
    for i, size in enumerate(params.m, start=1):
        out *= size if i in covered else params.n - size
    return out


def joint_weight(params: Params, patterns: Sequence[Iterable[int]]) -> int:
    """Weight of a tuple of coverage patterns for distinct tracked elements.

    Zero whenever some draw cannot host the prescription, i.e. when
    ``k_i > m_i`` or ``r - k_i > n - m_i``; the falling factorials encode
    that automatically. The empty tuple has weight 1.
    """
    validated = [_validate_pattern(params, p) for p in patterns]
    r = len(validated)
    counts = membership_counts(params.T, validated)
    out = 1
    for size, k in zip(params.m, counts):
        out *= falling_factorial(size, k) * falling_factorial(params.n - size, r - k)
    return out


def power_weight(params: Params, pattern: Iterable[int], r: int) -> int:
    """Weight of ``r`` identical coverage patterns.

    Equal to ``joint_weight`` on r copies of ``pattern``, in product form:
    covered draws contribute ``(m_i)_r``, the rest ``(n - m_i)_r``.
    """
    r = _as_index(r, "r", 1)
    covered = _validate_pattern(params, pattern)
    out = 1
    for i, size in enumerate(params.m, start=1):
        base = size if i in covered else params.n - size
        out *= falling_factorial(base, r)
    return out


def _draw_factors(n: int, size: int, r: int) -> list[int]:
    """``(size)_k (n - size)_(r-k)`` for ``k = 0..r``: the factor one draw of
    ``size`` elements applies when ``k`` of ``r`` tracked elements are in it."""
    return [
        falling_factorial(size, k) * falling_factorial(n - size, r - k)
        for k in range(r + 1)
    ]


def _slot_subsets(T: int, sizes: frozenset[int]) -> list[frozenset[int]]:
    out: list[frozenset[int]] = []
    for p in sorted(sizes):
        out.extend(frozenset(s) for s in iter_k_subsets(T, p))
    return out


def weight_sum_naive(params: Params, spec: SpecLike) -> int:
    """Sum of ``joint_weight`` over all size-admissible pattern tuples,
    by literal enumeration. The ground-truth route; cost is the product of
    the per-slot subset counts.
    """
    spec = SizeSpec.coerce(spec)
    _validate_spec(params, spec)
    if spec.r == 0:
        return 1
    T, n, m, r = params.T, params.n, params.m, spec.r
    # Bitmask encoding and per-draw factor tables keep the tuple loop tight
    # without changing the enumeration itself.
    slot_masks: list[list[int]] = []
    for entry in spec.entries:
        masks = []
        for subset in _slot_subsets(T, entry):
            mask = 0
            for i in subset:
                mask |= 1 << (i - 1)
            masks.append(mask)
        slot_masks.append(masks)
    factors = [_draw_factors(n, m[i], r) for i in range(T)]
    total = 0
    for combo in itertools.product(*slot_masks):
        w = 1
        for i in range(T):
            k = 0
            for mask in combo:
                k += (mask >> i) & 1
            w *= factors[i][k]
            if w == 0:
                break
        total += w
    return total


# int64 arithmetic is exact on values provably below this: the level
# graph's codes and keys (see _level_graph) and the table walk's entries
# (see _prefix_tables).
_INT64_BOUND = 1 << 63


def _expand(reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row ``i`` repeated ``reps[i]`` times: the index of each copy's row,
    and the copy's number ``0..reps[i]-1`` within it."""
    rows = np.repeat(np.arange(len(reps)), reps)
    return rows, np.arange(len(rows)) - np.repeat(np.cumsum(reps) - reps, reps)


class _Shape(NamedTuple):
    """All that the level graph of some size sets depends on; see
    ``_slot_shape``."""

    absorbing: bool
    top: int
    needs: tuple[tuple[float, ...], ...]
    counts: tuple[int, ...]


def _top_level(entries: Sequence[frozenset[int]], T: int) -> tuple[bool, int]:
    """Whether some size set holds ``T`` (see ``_slot_shape``), and the top
    level: then the lowest level from which every set holds all or none of
    the sizes up to ``T``, otherwise the largest size."""
    if not any(T in sizes for sizes in entries):
        return False, max(map(max, entries))
    top = 0
    for sizes in entries:
        low = T if T in sizes else max(sizes) + 1
        while T in sizes and low - 1 in sizes:
            low -= 1
        top = max(top, low)
    return True, top


def _slot_shape(entries: Sequence[frozenset[int]], T: int) -> _Shape:
    """The size sets ``entries`` over ``T`` draws as the level walk sees
    them.

    A slot's level is how many memberships it has used so far. ``top`` is
    the lowest level such that every size set holds either all of
    ``top..T`` or none of it. When some set holds ``T`` the top level is
    absorbing: levels from ``top`` on are not told apart. Otherwise ``top``
    is the largest size and no slot may pass it. Each distinct set comes
    once, in a fixed order: ``counts[j]`` slots hold set ``j``, and
    ``needs[j][u]`` is the fewest further memberships that take such a slot
    from level ``u`` to a size of the set, inf when none can, for ``u`` in
    ``0..top``.

    A tuple's *worst need* is, over every way to hand its levels to the
    slots, the least possible largest need. By Hall's theorem on the
    matching of levels to slots, the largest need can be at most ``w``
    exactly when, for every group of distinct sets holding ``c`` slots in
    all, at least ``c`` of the levels have need at most ``w`` for some set
    of the group. The worst need is thus the largest, over the groups, of
    the ``c``-th smallest of the levels' least needs for the group.
    ``T`` enters only through ``top``: the window ``{t..T}`` has one shape
    at every ``T``.
    """
    absorbing, top = _top_level(entries, T)
    distinct = sorted(set(entries), key=sorted)
    needs = tuple(
        tuple(
            min([s - u for s in sizes if s >= u], default=math.inf)
            for u in range(top + 1)
        )
        for sizes in distinct
    )
    return _Shape(absorbing, top, needs, tuple(map(entries.count, distinct)))


def _admissible(shape: _Shape, final: Iterable[tuple[int, ...]]) -> list[int]:
    """For each sorted tuple of levels in ``final``, its orderings on the
    slots of ``shape`` that give every slot a size of its own set. The
    recursion hands one level to one slot at a time, the slots of one set
    adjacent, and keeps its counts per tuple of levels left, so no ordering
    of all the levels is listed."""
    slots = [row for row, c in zip(shape.needs, shape.counts) for _ in range(c)]

    @lru_cache(maxsize=None)
    def fits(levels: tuple[int, ...]) -> int:
        if not levels:
            return 1
        need = slots[-len(levels)]
        return sum(
            fits(levels[:i] + levels[i + 1:])
            for i, u in enumerate(levels)
            if need[u] == 0 and (i == 0 or levels[i - 1] != u)
        )

    return [fits(levels) for levels in final]


class _LevelGraph(NamedTuple):
    """The sorted-level walk of one shape, free of any instance.

    The states are the sorted level tuples of the slots whose worst need
    ``w`` is finite and whose largest level plus ``w`` is at most ``bound``,
    numbered by worst need: the first ``lives[w]`` have worst need at most
    ``w``. ``start`` is the all-zero tuple. The moves into state ``c`` are
    ``starts[c]`` up to ``starts[c + 1]``: move ``i`` comes from state
    ``src[i]``, and its class ``cid[i]`` has ``ks`` memberships in all and
    multiplicity ``mults``, Python ints. With several size sets, final
    state ``c`` weighs ``W // div[c] * adm[c]``; ``div`` counts its
    orderings and ``adm`` the admissible ones.
    """

    bound: int
    start: int
    lives: list[int]
    starts: np.ndarray
    src: np.ndarray
    cid: np.ndarray
    ks: np.ndarray
    mults: np.ndarray
    div: np.ndarray | None
    adm: np.ndarray | None


class _GraphCacheInfo(NamedTuple):
    graphs: int
    moves: int
    max_moves: int


def _cache_by_moves(max_moves: int):
    """Like ``functools.lru_cache`` for a ``(shape, bound) -> graph``
    builder, keyed by shape alone and bounded by moves: the least recently
    used graphs go once all graphs hold more than ``max_moves`` moves. A
    kept graph serves any bound up to its own; a larger one rebuilds it."""

    def decorate(build):
        graphs: OrderedDict[_Shape, _LevelGraph] = OrderedDict()
        moves = 0
        lock = threading.Lock()

        @wraps(build)
        def cached(shape: _Shape, bound: int) -> _LevelGraph:
            nonlocal moves
            with lock:
                graph = graphs.pop(shape, None)
                if graph is not None:
                    moves -= len(graph.src)
                if graph is None or graph.bound < bound:
                    graph = build(shape, bound)
                graphs[shape] = graph
                moves += len(graph.src)
                while moves > cached.max_moves:
                    moves -= len(graphs.popitem(last=False)[1].src)
            return graph

        def cache_clear() -> None:
            nonlocal moves
            with lock:
                graphs.clear()
                moves = 0

        cached.max_moves = max_moves
        cached.cache_clear = cache_clear
        cached.cache_info = lambda: _GraphCacheInfo(
            len(graphs), moves, cached.max_moves
        )
        return cached

    return decorate


@_cache_by_moves(1 << 20)
def _level_graph(shape: _Shape, bound: int) -> _LevelGraph:
    """The level graph of ``shape`` whose states satisfy ``bound``."""
    absorbing, top, needs, counts = shape
    s = sum(counts)
    # A need above the bound is as good as infinite: no state may have it.
    capped = np.array([[min(v, bound + 1) for v in need] for need in needs])
    low = capped.min(axis=0)
    # The states, built slot by slot as sorted tuples. A partial tuple's
    # last level is its largest so far, and its worst need is at least the
    # least need of any slot at each of its levels: Hall's condition for the
    # group of all size sets (see _slot_shape).
    levels = np.zeros((1, 0), dtype=np.intp)
    last = worst = np.zeros(1, dtype=np.intp)
    for _ in range(s):
        rows, u = _expand(top + 1 - last)
        u += last[rows]
        worst = np.maximum(worst[rows], low[u])
        keep = u + worst <= bound
        last, worst = u[keep], worst[keep]
        levels = np.column_stack([levels[rows[keep]], last])
    # Then each proper group of the distinct sets raises the worst need to
    # its own condition.
    for size in range(1, len(needs)):
        for group in map(list, itertools.combinations(range(len(needs)), size)):
            c = sum(counts[j] for j in group)
            need = capped[group].min(axis=0)[levels]
            worst = np.maximum(worst, np.partition(need, c - 1, axis=1)[:, c - 1])
            keep = levels[:, -1] + worst <= bound
            levels, worst = levels[keep], worst[keep]
    order = np.argsort(worst, kind="stable")
    levels, worst = levels[order], worst[order]
    lives = np.searchsorted(worst, np.arange(bound + 1), side="right").tolist()

    # Codes sum_p level_p base^p tell the tuples apart: int64 when the
    # largest code, the multiplicities (at most 2^s) and the class keys
    # stay below 2^63, Python ints otherwise.
    base = top + 1
    exact = np.int64 if max(base**s, (s + 1) << s) < _INT64_BOUND else object
    pw = np.array([base**p for p in range(s)], dtype=exact)
    prefix = np.array(list(itertools.accumulate(pw.tolist(), initial=0)), dtype=exact)
    codes = (levels.astype(exact) * pw).sum(axis=1)
    binom = np.array(
        [[math.comb(h, x) for x in range(s + 1)] for h in range(s + 1)], dtype=exact
    )

    # A draw moves x of the h slots at one level up one level, in C(h, x)
    # ways; at the absorbing level the slots stay put. The moved ones are
    # the last x of their run in the tuple, positions end - x .. end - 1,
    # which adds prefix[end] - prefix[end - x] to the code. Each state's
    # runs of equal levels are taken in turn, every move choosing its x.
    first = np.ones(levels.shape, dtype=bool)
    first[:, 1:] = levels[:, 1:] != levels[:, :-1]
    state, col = np.nonzero(first)
    run = np.cumsum(first, axis=1)[state, col] - 1
    grid = (len(levels), run.max() + 1)
    sizes = np.zeros(grid, dtype=np.intp)
    # A run ends where the next one starts, in the row-major order of cells.
    sizes[state, run] = np.diff(np.append(state * s + col, first.size))
    ends = np.cumsum(sizes, axis=1)
    lift = np.zeros(grid, dtype=bool)
    lift[state, run] = levels[state, col] < top
    movable = sizes if absorbing else sizes * lift

    src = np.arange(len(levels))
    target, k, mult = codes, np.zeros(len(src), np.intp), np.ones(len(src), exact)
    for g in range(grid[1]):
        rows, x = _expand(movable[src, g] + 1)
        src = src[rows]
        e = ends[src, g]
        k = k[rows] + x
        mult = mult[rows] * binom[sizes[src, g], x]
        target = target[rows] + prefix[e] - prefix[e - x * lift[src, g]]
    # Moves to tuples that are not states lie on no live path.
    lex = np.argsort(codes, kind="stable")
    found = np.searchsorted(codes[lex], target).clip(max=len(codes) - 1)
    keep = codes[lex[found]] == target
    target = lex[found[keep]]
    order = np.argsort(target, kind="stable")
    src = src[keep][order]
    keys = (mult[keep] * (s + 1) + k[keep])[order]
    flat = np.sort(keys)  # np.unique would import numpy.ma
    classes = flat[np.append(True, flat[1:] != flat[:-1])]
    starts = np.searchsorted(target[order], np.arange(len(levels) + 1))

    div = adm = None
    if len(needs) > 1:
        # A final state's orderings: s! over the factorials of its runs.
        runs, final = sizes[: lives[0]].tolist(), levels[: lives[0]].tolist()
        fact = math.factorial
        div = np.array([fact(s) // math.prod(map(fact, h)) for h in runs], dtype=object)
        adm = np.array(_admissible(shape, map(tuple, final)), dtype=object)
    return _LevelGraph(
        bound,
        int(np.flatnonzero(levels[:, -1] == 0)[0]),
        lives,
        starts,
        src,
        np.searchsorted(classes, keys),
        (classes % (s + 1)).astype(np.intp),
        np.array((classes // (s + 1)).tolist(), dtype=object),
        div,
        adm,
    )


def weight_sum_dp(params: Params, spec: SpecLike) -> int:
    """Same value as :func:`weight_sum_naive`, by dynamic programming.

    The weight depends on the patterns only through the counts ``k_i``, so
    ``G`` is symmetric in its slots. A slot whose set is all of ``0..T`` is
    free and factors out: by Vandermonde's identity each draw gives it
    ``n - s`` choices, for ``s`` slots besides it, so ``f`` free slots scale
    ``G`` of the others by ``((n - s)_f)^T``. The other slots are walked
    through the draws as one sorted tuple of levels (memberships used so far;
    see :func:`_slot_shape`). A draw with ``k`` memberships in all applies
    ``(m_i)_k (n - m_i)_(s-k)``; moving ``x`` of the ``h`` slots at one level
    up one counts ``C(h, x)`` ways. A final tuple's weight ``W`` is then its
    orderings times ``G`` of its levels, so it adds ``W / orderings`` times
    its admissible orderings, those that give every slot a size of its own
    set; with one size set for all slots that is ``W``. With top level ``L``
    there are at most ``C(L + s, s)`` tuples.

    Tuples whose worst need exceeds the draws left are pruned: no path
    through them ends in an admissible ordering, and every tuple left after
    the last draw has one. The worst need is exact, from Hall's condition
    (see :func:`_slot_shape`): the largest, over the groups of distinct
    size sets, of the ``c``-th smallest of the levels' least needs for the
    group, where ``c`` is the group's slot count. After ``d`` draws a live
    tuple's largest level is at most ``d`` and its worst need at most
    ``T - d``, so only tuples whose largest level plus worst need is at
    most ``T`` are states of the level graph (:func:`_level_graph`), built
    once per shape with that bound capped at ``2 L`` and cached. Its states are numbered by worst need, and
    the pass keeps one weight per live state. A move lowers a slot's need
    by at most one, as ``need[u] <= 1 + need[u + 1]``, so its source's worst
    need is at most its target's plus one. The live states with ``R`` draws
    left are thus a prefix of the numbering, and the sources of the moves
    into them lie in the prefix that was live with ``R + 1`` left. Each draw
    is therefore one gather, one multiply and one ``np.add.reduceat`` over
    the first moves of the graph, grouped by target.

    One slot left is a chain with no graph: its level after the draws is
    the one-element coverage law of the occupancy model, the coefficients
    of ``prod_i (n - m_i + m_i z)``. The walk keeps ``c_0..c_L`` as a list of
    Python ints, maps ``c_u <- c_u (n - m_i) + c_(u-1) m_i`` per draw (at an
    absorbing top ``L``, ``c_L <- c_L n + c_(L-1) m_i``) and sums ``c_u``
    over the slot's set: no shape, level graph or numpy call.
    """
    spec = SizeSpec.coerce(spec)
    _validate_spec(params, spec)
    T, n, m = params.T, params.n, params.m
    full = frozenset(range(T + 1))
    entries = [sizes for sizes in spec.entries if sizes != full]
    r = len(entries)
    scale = falling_factorial(n - r, spec.r - r) ** T
    if r == 0:
        return scale
    if r == 1:
        # c[u] weighs the ways the slot's level is u.
        absorbing, top = _top_level(entries, T)
        c = [1] + [0] * top
        for size in m:
            rest = n - size
            up = c[top] * size
            for u in range(top, 0, -1):
                c[u] = c[u] * rest + c[u - 1] * size
            c[0] *= rest
            if absorbing:
                c[top] += up
        return scale * sum(c[u] for u in entries[0] if u <= top)
    shape = _slot_shape(entries, T)
    graph = _level_graph(shape, min(T, 2 * shape.top))
    lives, starts, bound = graph.lives, graph.starts, graph.bound
    W = np.zeros(lives[min(T, bound)], dtype=object)
    W[graph.start] = 1
    for idx in range(T):
        c = lives[min(T - idx - 1, bound)]
        fac = np.array(_draw_factors(n, m[idx], r), dtype=object)
        coef = fac[graph.ks] * graph.mults
        b = starts[c]
        W = np.add.reduceat(W[graph.src[:b]] * coef[graph.cid[:b]], starts[:c])
    if graph.div is not None:
        W = W // graph.div * graph.adm
    return scale * W.sum()


# The most table cells a dense walk keeps alive. A walk over Python integers
# keeps up to T + 1 tables of (T+1)^r cells, checked before it starts; one
# of 2^22 cells (n=11, T=3, r=10) peaks near 120 MB. The int64 walk takes its
# vectors in chunks that stay within it (see _chunk_vectors): 32 MB of cells.
TABLE_CELL_LIMIT = 1 << 22

# Fewer vectors than this walk faster one at a time than in batches, which
# pay numpy's fixed cost of about ten calls per draw.
_MIN_BATCH_VECTORS = 8


def _check_table_cells(T: int, r: int) -> None:
    """Raise ``ValueError`` when a dense walk of ``r`` slots over ``T``
    draws could hold more than ``TABLE_CELL_LIMIT`` cells at once."""
    cells = (T + 1) ** (r + 1)
    if cells > TABLE_CELL_LIMIT:
        raise ValueError(
            f"a weight-sum table walk with T={T} draws and r={r} slots keeps "
            f"up to {cells} cells alive, above the limit of {TABLE_CELL_LIMIT}"
        )


def _table_codes(T: int, p_vectors: Iterable[Sequence[int]]) -> list[int]:
    """Each size vector's index ``sum p_j (T+1)^j`` in a dense table."""
    base = T + 1
    return [sum(v * base**j for j, v in enumerate(p)) for p in p_vectors]


def _slot_offsets(T: int, r: int) -> list[tuple[int, int]]:
    """(encoded increment, k) per set of ``k`` of the ``r`` slots a draw
    covers; the empty set, increment 0, comes first."""
    base = T + 1
    return [
        (sum(base**j for j in slots), k)
        for k in range(r + 1)
        for slots in itertools.combinations(range(r), k)
    ]


class _PrefixPlan(NamedTuple):
    """How a sequence of draw-size vectors of one length ``T`` shares
    prefixes, for walking their tables depth by depth.

    At depth ``d`` (after ``d`` draws) each run of consecutive vectors with
    one length-``d`` prefix is one row. ``ids[i, d - 1]`` is the row of
    vector ``i`` at depth ``d``; ``parents[d - 1][j]`` is the depth ``d - 1``
    row of row ``j``'s prefix, and ``sizes[d - 1][j]`` indexes its last draw
    size in ``values``, the distinct draw sizes. Rows of consecutive vectors
    are consecutive, so any range of vectors covers one range of rows at
    every depth. With fewer than ``_MIN_BATCH_VECTORS`` vectors the four
    are None, and the vectors are walked one at a time.
    """

    T: int
    vectors: list[tuple[int, ...]]
    ids: np.ndarray | None = None
    parents: list[np.ndarray] | None = None
    sizes: list[np.ndarray] | None = None
    values: list[int] | None = None


def _prefix_plan(T: int, m_vectors: Iterable[Sequence[int]]) -> _PrefixPlan:
    vectors = [tuple(m) for m in m_vectors]
    if len(vectors) < _MIN_BATCH_VECTORS:
        return _PrefixPlan(T, vectors)
    m = np.array(vectors, dtype=np.int64).reshape(len(vectors), T)
    flat = np.sort(m, axis=None)  # np.unique would import numpy.ma, 1.4 MB
    values = flat[np.append(True, flat[1:] != flat[:-1])]
    inverse = np.searchsorted(values, m)
    # changed[i, d]: vector i's length-(d+1) prefix differs from vector i-1's
    changed = np.ones(m.shape, dtype=bool)
    np.logical_or.accumulate(m[1:] != m[:-1], axis=1, out=changed[1:])
    ids = np.cumsum(changed, axis=0) - 1
    parents, sizes = [], []
    for d in range(T):
        first = np.flatnonzero(changed[:, d])
        parents.append(ids[first, d - 1] if d else np.zeros(len(first), np.intp))
        sizes.append(inverse[first, d])
    return _PrefixPlan(T, vectors, ids, parents, sizes, values.tolist())


def _draw_step(
    table: list[int], n: int, size: int, r: int, offsets: list[tuple[int, int]]
) -> list[int]:
    """The dense ``r``-slot table after one more draw of ``size`` elements;
    ``offsets`` holds (encoded increment, k) per set of ``k`` covered slots."""
    fac = _draw_factors(n, size, r)
    live = [(delta, fac[k]) for delta, k in offsets if fac[k] != 0]
    nxt = [0] * len(table)
    for s, w in enumerate(table):
        if w:
            for delta, f in live:
                nxt[s + delta] += w * f
    return nxt


def _chunk_vectors(r: int, cells: int) -> int:
    """How many vectors a walk of ``r``-slot tables of ``cells`` cells takes
    per chunk: the batched walk keeps up to ``r + 3`` arrays of one row per
    vector alive, and a chunk keeps their cells within ``TABLE_CELL_LIMIT``."""
    return max(1, TABLE_CELL_LIMIT // ((r + 3) * cells))


def _list_tables(
    n: int, r: int, plan: _PrefixPlan, codes: Sequence[int]
) -> Iterator[np.ndarray]:
    """The walk of ``_prefix_tables`` one vector at a time over Python lists
    of exact integers, keeping the table after each draw of the previous
    vector: at most ``T + 1`` tables are alive at once."""
    T = plan.T
    cells = (T + 1) ** r
    offsets = _slot_offsets(T, r)
    step = _chunk_vectors(r, cells)
    start = [0] * cells
    start[0] = 1
    path = [start]  # path[k]: the table after the first k draws of prev
    prev: Sequence[int] = ()
    rows = []
    for m in plan.vectors:
        shared = 0
        while shared < len(prev) and prev[shared] == m[shared]:
            shared += 1
        del path[shared + 1:]
        for size in m[shared:]:
            path.append(_draw_step(path[-1], n, size, r, offsets))
        prev = m
        table = path[-1]
        rows.append([table[code] for code in codes])
        if len(rows) == step:
            yield np.array(rows, dtype=object)
            rows = []
    if rows:
        yield np.array(rows, dtype=object)


def _int64_tables(
    n: int, r: int, plan: _PrefixPlan, codes: Sequence[int]
) -> Iterator[np.ndarray]:
    """The walk of ``_prefix_tables`` batched by depth over int64 rows.

    At each depth every row gathers its parent row and scales it by each of
    its ``r + 1`` draw factors; each set of ``k >= 1`` covered slots then
    adds the ``k``-th scaled row, shifted by its increment, to the 0-th.
    The gathered rows and the scaled ones are alive together: ``r + 2``
    arrays of rows x ``(T+1)^r`` cells, and ``r + 3`` while the last depth's
    tables are read out. A chunk starts from the empty prefix: a prefix
    shared across a chunk boundary is walked again.
    """
    T = plan.T
    cells = (T + 1) ** r
    shifts = [(delta, k, cells - delta) for delta, k in _slot_offsets(T, r)[1:]]
    fac = np.array([_draw_factors(n, v, r) for v in plan.values], dtype=np.int64)
    codes = np.asarray(codes, dtype=np.intp)
    step = _chunk_vectors(r, cells)
    for a in range(0, len(plan.vectors), step):
        b = min(a + step, len(plan.vectors)) - 1
        scaled = np.zeros((1, 1, cells), dtype=np.int64)
        scaled[0, 0, 0] = 1
        low = 0  # the first row of the chunk at the current depth
        for d in range(T):
            rows = slice(plan.ids[a, d], plan.ids[b, d] + 1)
            prev = scaled[plan.parents[d][rows] - low, :1]
            del scaled  # free the previous depth before the next is made
            scaled = prev * fac[plan.sizes[d][rows], :, None]
            for delta, k, width in shifts:
                scaled[:, 0, delta:] += scaled[:, k, :width]
            low = rows.start
        yield scaled[plan.ids[a : b + 1, T - 1] - low, 0][:, codes]


def _prefix_tables(
    n: int, r: int, plan: _PrefixPlan, codes: Sequence[int]
) -> Iterator[np.ndarray]:
    """``table[codes]`` of ``r`` slots for each vector of ``plan``, as the
    rows of arrays that each cover a chunk of consecutive vectors (see
    ``_chunk_vectors``). Entries are exact: int64, or Python integers in an
    object array.

    Every draw-size vector has length ``T``. ``table`` is the dense table of
    ``G`` for all ``(T+1)^r`` size vectors, ``p`` at index ``sum p_j
    (T+1)^j`` (see ``_table_codes``). A vector's table extends the table of
    its longest prefix shared with the vector before, so a vector reruns
    only the draws past it; lexicographically ordered vectors share the
    most.

    The walk runs in int64 arrays (``_int64_tables``) when ``((n)_r)^T <
    2^63``, which makes it exact: after ``k`` draws the entries are
    non-negative and sum to ``((n)_r)^k`` (Vandermonde: one draw's factors
    ``C(r, k) (m)_k (n - m)_(r-k)`` sum to ``(n)_r``), so no entry, product
    or partial sum of the walk can reach ``2^63``. Otherwise, and for plans
    of fewer than ``_MIN_BATCH_VECTORS`` vectors, it runs one vector at a
    time over Python integers (``_list_tables``).
    """
    if plan.ids is not None and falling_factorial(n, r) ** plan.T < _INT64_BOUND:
        return _int64_tables(n, r, plan, codes)
    return _list_tables(n, r, plan, codes)


def weight_sum_table(params: Params, r: int) -> dict[tuple[int, ...], int]:
    """Weight sums ``G(p)`` for *every* size vector of ``r`` slots at once.

    One dense forward DP over the draws (the walk of ``_prefix_tables`` over
    one vector); the returned mapping covers all ``(T+1)^r`` size vectors
    (zero entries included), the first slot's size varying fastest. Raises
    ``ValueError`` before allocating when the walk would exceed
    ``TABLE_CELL_LIMIT`` cells.
    """
    r = _as_index(r, "r", 0)
    T = params.T
    _check_table_cells(T, r)
    cells = (T + 1) ** r
    (table,) = _prefix_tables(params.n, r, _prefix_plan(T, [params.m]), range(cells))
    # Codes count up with the first slot fastest: the reversed product order.
    sizes = (p[::-1] for p in itertools.product(range(T + 1), repeat=r))
    return dict(zip(sizes, table[0].tolist()))


@lru_cache(maxsize=4096)
def _cached_norm(params: Params, spec: SizeSpec) -> Fraction:
    num = weight_sum_dp(params, spec)
    den = falling_factorial(params.n, spec.r) ** (params.T - 1)
    return Fraction(num, den)


def occupancy_norm(params: Params, spec: SpecLike) -> Fraction:
    """Normalized weight sum ``G / ((n)_r)^(T-1)``, in lowest terms.

    Raises :class:`DegenerateDenominatorError` when more slots are requested
    than the population holds (``r > n``), where ``(n)_r = 0`` makes the
    quantity undefined. Results are memoized per ``(params, spec)``, for the
    4096 most recently used pairs.
    """
    spec = SizeSpec.coerce(spec)
    if spec.r > params.n:
        raise DegenerateDenominatorError(
            f"norm undefined: {spec.r} slots exceed population size n={params.n}"
        )
    _validate_spec(params, spec)
    return _cached_norm(params, spec)
