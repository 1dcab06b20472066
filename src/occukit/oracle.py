"""Ground-truth engines for the occupancy distribution.

Two independent routes, deliberately disjoint from the norm/moment machinery
they validate:

* :func:`exhaustive_pmf` enumerates every possible T-tuple of draws (uniform
  product measure) and tallies occupancy counts into an exact rational pmf.
  Feasible only while ``prod C(n, m_i)`` stays within a budget. Each tuple
  costs ``O(min m_i + T)``: its coverage histogram is that of its other
  draws, decoded once per chunk, with the members of its smallest draw
  moved up one class. Equal histograms are grouped by their bytes.
* :func:`monte_carlo` samples the coverage histogram with a counter-based RNG
  and reports moment estimates with standard errors. Randomness for a trial
  is a pure function of ``(seed, trial index)``: trials are processed in
  fixed-size blocks, each owning a disjoint Philox counter range, so results
  are bit-identical no matter how many workers run the blocks.

The sampler walks the classical occupancy chain (Charalambides,
*Combinatorial Methods in Discrete Distributions*, 2005) rather than the
draws themselves: a trial's state is the histogram ``h[0..T]`` of how many
elements are covered ``c`` times, and a uniform ``m_i``-subset takes ``k_c``
elements from class ``c`` with multivariate hypergeometric law, drawn as one
hypergeometric per class. The chain is lumped to the one count it is
sampled for: a class that can no longer reach ``t``, or that the count no
longer depends on, is merged with the others like it, so a draw makes one
hypergeometric call per live class only. Only the counts are kept, so the
state of a block of trials costs O(block * t) memory whatever ``n`` is;
only the returned occupancy histogram has ``n + 1`` entries.

:data:`STREAM_VERSION` names the sampler's seeded stream. It changes whenever
the estimates for a given ``(instance, seed, trials)`` change: version 1 was
a partial Fisher-Yates shuffle per draw, version 2 the histogram chain over
every class, and version 3 is the chain over the live classes only.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, Philox

from .combinat import binomial
from .core import Params, _as_index
from .errors import BudgetExceededError
from .moments import TailMode, raw_moment, threshold_sizes

DEFAULT_BUDGET = 10_000_000

COMPARE_METHODS = ("auto", "exhaustive", "monte-carlo")

STREAM_VERSION = 3

_BLOCK_TRIALS = 1 << 15
_MASK64 = (1 << 64) - 1
# numpy's hypergeometric sampler needs every class size below this.
_MAX_CLASS_SIZE = 10**9
# A seed is the generator's 128-bit key, so no two seeds share a stream.
_MAX_SEED = (1 << 128) - 1


def exhaustive_outcome_count(params: Params) -> int:
    """Number of draw tuples the exhaustive enumerator must visit."""
    out = 1
    for m_i in params.m:
        out *= binomial(params.n, m_i)
    return out


def _outcome_count_exceeds(params: Params, budget: int) -> bool:
    """Whether ``exhaustive_outcome_count(params) > budget``, with no more of
    the product than the answer needs.

    Each ``C(n, m_i)`` is walked up ``j <= min(m_i, n - m_i)`` by ``C(n, j+1)
    = C(n, j) (n - j) / (j + 1)``. ``C(n, j)`` rises up to ``n / 2`` and
    every factor is at least 1, so a running product past the budget proves
    the whole one is.
    """
    n, done = params.n, 1
    for m_i in params.m:
        c = 1
        for j in range(min(m_i, n - m_i)):
            c = c * (n - j) // (j + 1)
            if done * c > budget:
                return True
        done *= c
    return done > budget


# A chunk of the enumeration holds at most this many 8-byte words of
# histogram rows (see _coverage_profile_counts), which bounds its working
# memory whatever the instance.
_CHUNK_CELLS = 1 << 16


def _subsets(n: int, m: int) -> np.ndarray:
    """The ``m``-subsets of ``range(n)`` in ``itertools.combinations`` order,
    one per row of a ``(C(n, m), m)`` array of element indices."""
    count = binomial(n, m)
    return np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), m)),
        dtype=np.intp, count=count * m,
    ).reshape(count, m)


def _tally_rows(
    tally: dict[tuple[int, ...], int], hists: np.ndarray, classes: int
) -> None:
    """Add each distinct histogram, the first ``classes`` entries of a row of
    ``hists``, to ``tally`` with how many rows hold it.

    Each row spans whole uint64 words, zero past ``classes``, and is grouped
    by its bytes: one ``np.sort`` of the words when a row is one word,
    ``np.lexsort`` over them otherwise, so equal rows form runs. No count is
    combined with another, so the grouping is exact whatever the row holds.
    """
    keys = hists.view(np.uint64)
    if keys.shape[1] == 1:
        keys = np.sort(keys.ravel())
        changed = keys[1:] != keys[:-1]
    else:
        keys = keys[np.lexsort(keys.T)]
        changed = np.any(keys[1:] != keys[:-1], axis=1)
    # Runs of equal rows end wherever a row differs from the next.
    bounds = np.flatnonzero(np.concatenate(([True], changed, [True])))
    distinct = keys[bounds[:-1]].view(hists.dtype).reshape(len(bounds) - 1, -1)
    runs = (bounds[1:] - bounds[:-1]).tolist()
    for hist, tuples in zip(map(tuple, distinct[:, :classes].tolist()), runs):
        tally[hist] = tally.get(hist, 0) + tuples


# One instance's tally at a time: its callers finish every threshold and mode
# of one instance before the next, and a tally can hold many histograms.
@lru_cache(maxsize=1)
def _coverage_profile_counts(params: Params) -> dict[tuple[int, ...], int]:
    """Joint tally of the coverage-count histogram over all draw tuples.

    For each tuple of draws, ``hist[c]`` is the number of population elements
    covered exactly ``c`` times; the map sends each histogram to how many
    tuples realise it. Every pmf of this instance derives from the tally.

    The enumeration is literal: it visits every tuple once, with no
    symmetry reduction. The inner draw is one with the fewest members and
    the other draws form a tuple's prefix. A chunk holds whole prefixes, or
    a cut of one prefix's inner subsets, and decodes each prefix once, in
    mixed radix with the last draw fastest, into its cover of each element.
    A tuple's histogram is then its prefix's histogram with each inner
    member moved up one class: ``k[c]`` of them, those the prefix covers
    ``c`` times, leave class ``c`` for ``c + 1``. So a tuple costs
    ``O(m_inner + T)`` whatever ``n`` is. Histograms are binned as sums of
    one-hot rows in ``min_scalar_type(n)``, which holds any count up to
    ``n``, and grouped by their bytes in :func:`_tally_rows`, so the tally
    is exact whatever ``n`` and ``T`` are. It depends on neither the draw
    order nor the chunk size.

    A row is ``words`` 8-byte words. A chunk holds at most ``_CHUNK_CELLS``
    words: ``n`` rows per prefix for its one-hot covers, and per tuple one
    row per inner member plus its histogram.
    """
    n, T = params.n, params.T
    by_size = {m: _subsets(n, m) for m in set(params.m)}
    q = params.m.index(min(params.m))
    inner = by_size[params.m[q]]
    outer = [by_size[m] for m in reversed(params.m[:q] + params.m[q + 1:])]
    span, width = inner.shape
    outer_count = exhaustive_outcome_count(params) // span
    hist_dtype = np.min_scalar_type(n)
    # A histogram row is padded with zeros to whole 8-byte words.
    words = -(-(T + 1) * hist_dtype.itemsize // 8)
    padded = words * 8 // hist_dtype.itemsize
    # A chunk is `step` whole prefixes, or `cut` of one prefix's inner subsets.
    rows = _CHUNK_CELLS // words
    step = max(1, rows // (n + span * (width + 1)))
    cut = min(span, max(1, (rows - n) // (width + 1)))
    tally: dict[tuple[int, ...], int] = {}
    for first in range(0, outer_count, step):
        prefixes = min(step, outer_count - first)
        # cover[e * prefixes + p]: how many of prefix p's subsets hold element e
        cover = np.zeros(n * prefixes, dtype=np.intp)
        index = np.arange(first, first + prefixes, dtype=np.int64)
        for members in outer:
            index, subset = np.divmod(index, len(members))
            at = np.take(members, subset, axis=0)
            at *= prefixes
            at += np.arange(prefixes)[:, None]
            cover[at] += 1  # a subset holds each element at most once
        # ones[e, p]: a histogram row with a one in class cover[e, p]
        ones = np.zeros((n, prefixes, padded), dtype=hist_dtype)
        ones.reshape(-1, padded)[np.arange(n * prefixes), cover] = 1
        base = np.add.reduce(ones, axis=0, dtype=hist_dtype)
        for lo in range(0, span, cut):
            # k[s, p, c]: how many members of inner subset lo + s prefix p
            # covers c times, at most base[p, c]. They move up to class
            # c + 1; k is 0 from class T on, so no row spills into the next.
            moved = np.take(ones, inner[lo : lo + cut].T, axis=0)
            k = np.add.reduce(moved, axis=0, dtype=hist_dtype)
            hists = base - k
            hists.reshape(-1)[1:] += k.reshape(-1)[:-1]
            _tally_rows(tally, hists.reshape(-1, padded), T + 1)
    return tally


@dataclass(slots=True)
class ExactPmf:
    """Exact pmf of one occupancy count, with rational probabilities."""

    params: Params
    t: int
    mode: TailMode
    probabilities: dict[int, Fraction]
    outcome_count: int

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(x for x, p in self.probabilities.items() if p != 0))

    def moment(self, order: int) -> Fraction:
        order = _as_index(order, "moment order", 0)
        return sum(
            (p * x**order for x, p in self.probabilities.items()), Fraction(0)
        )

    @property
    def mean(self) -> Fraction:
        return self.moment(1)


def exhaustive_pmf(
    params: Params, t: int, mode: TailMode, budget: int = DEFAULT_BUDGET
) -> ExactPmf:
    """Exact distribution of the occupancy count by full enumeration."""
    threshold_sizes(params.T, t, mode)  # validates t
    budget = _as_index(budget, "budget", 0)
    count = exhaustive_outcome_count(params)
    if count > budget:
        raise BudgetExceededError(count, budget)
    tally = _coverage_profile_counts(params)
    by_x: dict[int, int] = {}
    for hist, tuples in tally.items():
        if mode is TailMode.EXACTLY:
            x = hist[t]
        else:
            x = sum(hist[t:])
        by_x[x] = by_x.get(x, 0) + tuples
    probabilities = {x: Fraction(c, count) for x, c in sorted(by_x.items())}
    total = sum(probabilities.values())
    if total != 1:
        raise AssertionError(f"pmf does not sum to 1: {total}")
    return ExactPmf(
        params=params, t=t, mode=mode, probabilities=probabilities,
        outcome_count=count,
    )


def _block_generator(seed: int, block_index: int) -> Generator:
    key = [seed & _MASK64, (seed >> 64) & _MASK64]
    counter = [0, 0, block_index & _MASK64, (block_index >> 64) & _MASK64]
    return Generator(Philox(counter=counter, key=key))


def _block_histogram(
    params: Params, t: int, mode: TailMode, seed: int, block_index: int, size: int
) -> np.ndarray:
    """Occupancy tally of one block, sampled along the lumped coverage chain.

    Per trial, ``h[c]`` counts the elements covered ``c`` times for
    ``c < t``, and ``h[t]`` the occupancy count itself: the elements covered
    exactly ``t`` times, or at least ``t`` times. Before draw ``i`` only
    classes ``0..i`` are occupied and ``R = T - i`` draws are left, this one
    included. Class ``c`` is live, able to change the count, when ``t - R <=
    c <= i`` and ``c < t``, or ``c = t`` in exact mode. Every other element
    is frozen and not tracked by class: below ``t - R`` it can no longer
    reach ``t``; above ``t`` in exact mode, or at ``t`` in at-least mode, no
    further pick changes whether it counts.

    Draw ``i`` visits the live classes ``lo..top`` in order: class ``c``
    gives ``k_c`` of the ``left`` picks, drawn against the ``rest`` elements
    after it, frozen ones included. While every occupied class is live none
    is frozen, and the last live class takes what remains with no call. A
    pick moves its element up a class, out of the tracked ones from class
    ``t`` in exact mode. Visiting the classes in this order has the full
    chain's multivariate hypergeometric law, and picks among frozen elements
    never move the count, so the tally has the full chain's law.
    """
    gen = _block_generator(seed, block_index)
    T, n = params.T, params.n
    h = np.zeros((t + 1, size), dtype=np.int64)
    h[0] = n
    ceiling = t if mode is TailMode.EXACTLY else t - 1
    for i, m_i in enumerate(params.m):
        lo, top = max(0, t - (T - i)), min(i, ceiling)
        # Nothing is frozen while every occupied class 0..i is live.
        sampled = top if lo or top < i else top - 1
        k = np.empty((top - lo + 1, size), dtype=np.int64)
        left = np.full(size, m_i, dtype=np.int64)
        rest = np.full(size, n, dtype=np.int64)
        for c in range(lo, sampled + 1):
            rest -= h[c]
            k[c - lo] = gen.hypergeometric(h[c], rest, left)
            left -= k[c - lo]
        if sampled < top:
            k[-1] = left
        h[lo : top + 1] -= k
        up = min(top + 1, t)
        h[lo + 1 : up + 1] += k[: up - lo]
    return np.bincount(h[t])


def _blocks(trials: int) -> list[tuple[int, int]]:
    full, rem = divmod(trials, _BLOCK_TRIALS)
    out = [(i, _BLOCK_TRIALS) for i in range(full)]
    if rem:
        out.append((full, rem))
    return out


@dataclass(frozen=True, slots=True)
class EmpiricalMoments:
    """Monte Carlo moment estimates for one (instance, threshold, mode)."""

    trials: int
    seed: int
    raw_moment_estimates: tuple[float, ...]  # index v-1 holds the E(x^v) estimate
    standard_errors: tuple[float, ...]
    occupancy_histogram: tuple[int, ...]  # exact trial counts per occupancy value


def monte_carlo(
    params: Params,
    t: int,
    mode: TailMode,
    trials: int,
    seed: int = 0,
    *,
    max_order: int = 4,
    threads: int = 1,
) -> EmpiricalMoments:
    """Estimate raw moments by simulation; reproducible per (seed, trials).

    The per-trial occupancy values are tallied into an exact integer
    histogram, so the accumulation is order-independent and the final
    estimates do not depend on the worker count. ``threads`` must be at
    least 1; no more threads start than there are blocks of trials.
    ``seed`` must lie in ``[0, 2**128)``, the range of the generator's key,
    so that no two seeds share a stream. With one trial the standard errors
    are ``nan``; an order whose estimate or error overflows a float raises.
    """
    trials = _as_index(trials, "trials", 1)
    max_order = _as_index(max_order, "max_order", 1)
    threads = _as_index(threads, "threads", 1)
    seed = _as_index(seed, "seed", 0, _MAX_SEED)
    threshold_sizes(params.T, t, mode)
    if params.n >= _MAX_CLASS_SIZE:
        raise ValueError(
            f"monte_carlo needs n < {_MAX_CLASS_SIZE}, got n={params.n}"
        )
    blocks = _blocks(trials)
    workers = min(threads, len(blocks))

    def run(block: tuple[int, int]) -> np.ndarray:
        index, size = block
        return _block_histogram(params, t, mode, seed, index, size)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run, blocks))
    else:
        partials = map(run, blocks)
    # Partial tallies end at their largest value; sums run over the support.
    hist = np.zeros(params.n + 1, dtype=np.int64)
    for partial in partials:
        hist[: partial.size] += partial

    support = [(int(x), int(hist[x])) for x in np.flatnonzero(hist)]
    power_sum = {
        w: sum(c * x**w for x, c in support)
        for w in range(1, 2 * max_order + 1)
    }
    estimates, errors = [], []
    for v in range(1, max_order + 1):
        var_num = trials * power_sum[2 * v] - power_sum[v] ** 2
        var_den = trials**2 * (trials - 1)  # 0 with one trial: no error
        try:
            estimates.append(float(Fraction(power_sum[v], trials)))
            errors.append(
                math.sqrt(float(Fraction(var_num, var_den))) if var_den else math.nan
            )
        except OverflowError:
            raise ValueError(f"order {v} leaves the float range: its estimate or "
                             f"standard error overflows") from None
    return EmpiricalMoments(
        trials=trials,
        seed=seed,
        raw_moment_estimates=tuple(estimates),
        standard_errors=tuple(errors),
        occupancy_histogram=tuple(hist.tolist()),
    )


class ComparisonRow(NamedTuple):
    order: int
    formula: Fraction
    oracle: Fraction | None = None
    matches: bool | None = None
    estimate: float | None = None
    stderr: float | None = None
    z_score: float | None = None


@dataclass(frozen=True, slots=True)
class ComparisonReport:
    params: Params
    t: int
    mode: TailMode
    method: str  # "exhaustive" | "monte-carlo"
    rows: tuple[ComparisonRow, ...]
    trials: int | None = None
    seed: int | None = None

    @property
    def all_equal(self) -> bool:
        return all(row.matches for row in self.rows if row.matches is not None)


def compare_report(
    params: Params,
    t: int,
    mode: TailMode,
    max_order: int = 3,
    *,
    method: str = "auto",
    budget: int = DEFAULT_BUDGET,
    trials: int = 1_000_000,
    seed: int = 0,
    threads: int = 1,
) -> ComparisonReport:
    """Moment formula vs. ground truth, order by order.

    The exhaustive route asserts exact rational equality; the Monte Carlo
    route reports z-scores against the simulation's standard errors (``nan``
    with one trial, which leaves them undefined). With
    ``method="auto"`` the exhaustive route is taken whenever the instance
    fits the enumeration budget. ``trials``, ``seed`` and ``threads`` are
    checked as ``monte_carlo`` checks them, whichever route runs.
    """
    if method not in COMPARE_METHODS:
        raise ValueError(f"unknown comparison method {method!r}")
    threads = _as_index(threads, "threads", 1)
    max_order = _as_index(max_order, "max_order", 1)
    budget = _as_index(budget, "budget", 0)
    trials = _as_index(trials, "trials", 1)
    seed = _as_index(seed, "seed", 0, _MAX_SEED)
    if method == "auto":
        method = (
            "monte-carlo" if _outcome_count_exceeds(params, budget) else "exhaustive"
        )
    rows = []
    if method == "exhaustive":
        pmf = exhaustive_pmf(params, t, mode, budget=budget)
        for v in range(1, max_order + 1):
            formula = raw_moment(params, t, mode, v)
            truth = pmf.moment(v)
            rows.append(
                ComparisonRow(
                    order=v, formula=formula, oracle=truth,
                    matches=formula == truth,
                )
            )
        return ComparisonReport(
            params=params, t=t, mode=mode, method=method, rows=tuple(rows)
        )
    emp = monte_carlo(
        params, t, mode, trials, seed, max_order=max_order, threads=threads
    )
    for v in range(1, max_order + 1):
        formula = raw_moment(params, t, mode, v)
        est = emp.raw_moment_estimates[v - 1]
        se = emp.standard_errors[v - 1]
        expected = float(formula)
        if se == 0:
            z = 0.0 if est == expected else math.inf
        else:  # nan when one trial leaves the standard error undefined
            z = (est - expected) / se
        rows.append(
            ComparisonRow(
                order=v, formula=formula, estimate=est, stderr=se, z_score=z
            )
        )
    return ComparisonReport(
        params=params, t=t, mode=mode, method=method, rows=tuple(rows),
        trials=trials, seed=seed,
    )
