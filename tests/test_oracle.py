import importlib
import itertools
import math
import pkgutil
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import occukit
from occukit import oracle
from occukit.core import Params
from occukit.errors import BudgetExceededError
from occukit.moments import TailMode, raw_moment
from occukit.oracle import (
    compare_report,
    exhaustive_outcome_count,
    exhaustive_pmf,
    monte_carlo,
)

P53 = Params(5, (2, 3))


def _literal_tally(params):
    """The enumerator's tally, one draw tuple at a time in plain Python."""
    n, T = params.n, params.T
    per_draw = [list(itertools.combinations(range(n), m_i)) for m_i in params.m]
    tally = {}
    for combo in itertools.product(*per_draw):
        cover = [0] * n
        for subset in combo:
            for e in subset:
                cover[e] += 1
        hist = [0] * (T + 1)
        for c in cover:
            hist[c] += 1
        key = tuple(hist)
        tally[key] = tally.get(key, 0) + 1
    return tally


# The sampler-vs-pmf instances, Params(1, (1,)), T = 1, m_i = n among
# other draws (every cover shifted by one per full draw), and a histogram
# count above 255.
TALLY_CASES = [
    Params(6, (2, 3, 5, 1)), Params(8, (3, 4, 4)), Params(7, (7, 2)),
    Params(4, (2,)), Params(1, (1,)), Params(5, (3,)), Params(4, (4, 1, 4, 2)),
    Params(257, (1,)),
    # The fewest-member draw, which the enumerator walks innermost, first or
    # in the middle of m; draws with m_i > n / 2.
    Params(7, (2, 5, 6)), Params(6, (4, 1, 3)), Params(8, (6, 5, 3)),
    Params(9, (5, 2, 7)),
]


# The criterion-2 family: n in [2, 6], T in [1, 3], draw sizes in [1, n - 1].
FAMILY = [
    Params(n, m)
    for n in range(2, 7)
    for T in range(1, 4)
    for m in itertools.product(range(1, n), repeat=T)
]


def test_tally_matches_literal_enumeration():
    for params in FAMILY + TALLY_CASES:
        assert oracle._coverage_profile_counts.__wrapped__(params) == (
            _literal_tally(params)
        ), params


@pytest.mark.parametrize(
    "params",
    # 7n cells: two whole prefixes of five tuples a chunk for the first, 50
    # chunks in all, so its last chunk is whole (the chunk tests below leave
    # a partial one); one tuple a chunk for the second, whose histograms of
    # 66 classes take nine words a row and are grouped by lexsort.
    [Params(5, (2, 3, 1)), Params(3, (1,) * 5 + (3,) * 60)],
    ids=["partial-last-chunk", "long-histograms"],
)
def test_tally_matches_literal_enumeration_across_chunks(monkeypatch, params):
    monkeypatch.setattr(oracle, "_CHUNK_CELLS", 7 * params.n)
    assert oracle._coverage_profile_counts.__wrapped__(params) == (
        _literal_tally(params)
    )


# Params(6, (3, 2)) walks its 2-subsets innermost: 20 prefixes of 15 tuples.
# A tuple takes three one-word rows and a prefix six more, so 30 cells cut
# each prefix into 8 + 7 tuples and 153 cells hold three whole prefixes, 20
# = 6 * 3 + 2 of them, leaving a last chunk of two.
@pytest.mark.parametrize(
    ("cells", "chunks"),
    [(1, [1] * 300), (30, [8, 7] * 20), (153, [45] * 6 + [30])],
    ids=["one-tuple-a-chunk", "prefix-split-across-chunks",
         "prefixes-share-a-chunk"],
)
def test_tally_chunks_split_and_share_prefixes(monkeypatch, cells, chunks):
    params = Params(6, (3, 2))
    sizes = []
    group = oracle._tally_rows

    def spy(tally, hists, classes):
        sizes.append(len(hists))
        group(tally, hists, classes)

    monkeypatch.setattr(oracle, "_CHUNK_CELLS", cells)
    monkeypatch.setattr(oracle, "_tally_rows", spy)
    assert oracle._coverage_profile_counts.__wrapped__(params) == (
        _literal_tally(params)
    )
    assert sizes == chunks


@pytest.mark.parametrize(
    "params",
    # One tuple each. As one base-(n+1) number, (0, ..., 0, n) is n * (n+1)**T,
    # far beyond int64; where n + 1 is a power of two, int64 groups of
    # base-(n+1) digits can end exactly at 2**63.
    [Params(2, (2,) * 70), Params(1, (1,) * 63), Params(7, (7,) * 21),
     Params(127, (127,) * 9)],
    ids=lambda p: f"n={p.n}-T={p.T}",
)
def test_exhaustive_pmf_keys_are_exact_for_many_draws(params):
    for mode in TailMode:
        pmf = exhaustive_pmf(params, params.T, mode)
        assert pmf.probabilities == {params.n: 1}
        assert pmf.outcome_count == 1


def test_tally_memory_is_bounded_by_the_chunk():
    # The whole (889,056 x 9) cover matrix alone would take 8 MB.
    tally = oracle._coverage_profile_counts.__wrapped__
    tracemalloc.start()
    try:
        tally(Params(9, (3, 3, 4)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_tally_memory_at_large_n_is_bounded_by_the_chunk():
    # 499,500 tuples of two members each. Past the 8 MB subset index array,
    # a chunk holds 2^16 words of rows and up to three copies of its
    # histograms while they are grouped: well under 32 bytes a cell.
    params = Params(1000, (2,))
    index_bytes = oracle._subsets(1000, 2).nbytes
    tracemalloc.start()
    try:
        tally = oracle._coverage_profile_counts.__wrapped__(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tally == {(998, 2): 499_500}
    assert peak - index_bytes < 32 * oracle._CHUNK_CELLS, peak


@pytest.mark.parametrize("change", [-1, 1], ids=["one-short", "one-over"])
def test_exhaustive_pmf_checks_the_tuple_count(monkeypatch, change):
    tally = dict(oracle._coverage_profile_counts.__wrapped__(P53))
    hist = next(iter(tally))
    tally[hist] += change
    monkeypatch.setattr(oracle, "_coverage_profile_counts", lambda params: tally)
    with pytest.raises(AssertionError, match="pmf does not sum to 1"):
        exhaustive_pmf(P53, 1, TailMode.EXACTLY)


def test_subset_tables_are_the_combinations_in_the_narrow_dtype():
    # n - 1 < 256 takes uint8 and n - 1 = 256 uint16.
    cases = [(n, m) for n in range(1, 13) for m in range(1, n + 1)]
    for n, m in cases + [(257, 1), (257, 2), (300, 2)]:
        table = oracle._subsets(n, m)
        assert table.dtype == np.min_scalar_type(n - 1), (n, m)
        assert table.shape == (math.comb(n, m), m), (n, m)
        assert table.tolist() == [
            list(c) for c in itertools.combinations(range(n), m)
        ], (n, m)
        assert not table.flags.writeable


def test_subset_table_cache_keeps_its_byte_bound(monkeypatch):
    monkeypatch.setattr(oracle._subsets, "max_bytes", 600)
    oracle._subsets.cache_clear()
    # Tables of 6 to 504 bytes, 1,188 in all, and C(9, 5)'s 630, past the
    # bound: each call evicts what the bound no longer holds.
    for params in [Params(9, (3, 3, 4)), Params(8, (4, 2)), Params(9, (4, 5)),
                   Params(6, (3, 1, 2)), Params(9, (3, 4))]:
        oracle._coverage_profile_counts.__wrapped__(params)
        info = oracle._subsets.cache_info()
        assert 0 < info.nbytes <= 600, (params, info)
    # C(10, 5) rows of five bytes, past the bound: built, returned, not kept.
    before = oracle._subsets.cache_info()
    big = oracle._subsets(10, 5)
    assert big.nbytes == 1260
    assert big.tolist() == [list(c) for c in itertools.combinations(range(10), 5)]
    assert oracle._subsets.cache_info() == before
    assert oracle._subsets(10, 5) is not big
    assert oracle._subsets(9, 4) is oracle._subsets(9, 4)


def test_tally_is_the_same_with_the_table_cache_empty_and_full():
    tally = oracle._coverage_profile_counts.__wrapped__
    cold = {}
    for params in FAMILY:
        oracle._subsets.cache_clear()
        cold[params] = tally(params)
    for params in FAMILY:
        tally(params)
    # Every (n, m) of the family, 1 + 2 + 3 + 4 + 5 tables, is kept.
    assert oracle._subsets.cache_info().tables == 15
    for params in FAMILY:
        assert tally(params) == cold[params], params


def test_every_package_memo_clears_with_no_arguments():
    # Between passes the benchmark calls cache_clear() on every module
    # attribute that has a callable one, classes included.
    cleared = set()
    for info in pkgutil.iter_modules(occukit.__path__):
        module = importlib.import_module(f"occukit.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
                cleared.add(f"{info.name}.{name}")
    assert {
        "oracle._subsets", "oracle._coverage_profile_counts", "core._level_graph"
    } <= cleared


def test_exhaustive_pmf_at_large_n_matches_the_overlap_law():
    # Two 2-subsets of 60 elements share j of them with probability
    # C(2, j) C(58, 2 - j) / C(60, 2), leaving 4 - 2j covered exactly once.
    pmf = exhaustive_pmf(Params(60, (2, 2)), 1, TailMode.EXACTLY)
    pairs = math.comb(60, 2)
    assert pmf.probabilities == {
        4 - 2 * j: Fraction(math.comb(2, j) * math.comb(58, 2 - j), pairs)
        for j in (2, 1, 0)
    }
    assert pmf.outcome_count == pairs**2 == 3_132_900


def test_exhaustive_pmf_overlap_case():
    pmf = exhaustive_pmf(P53, 2, TailMode.AT_LEAST)
    assert pmf.probabilities == {
        0: Fraction(1, 10),
        1: Fraction(6, 10),
        2: Fraction(3, 10),
    }
    assert pmf.outcome_count == 100
    assert pmf.mean == Fraction(6, 5)


def test_exhaustive_pmf_deterministic_cases():
    pmf = exhaustive_pmf(Params(4, (2,)), 1, TailMode.EXACTLY)
    assert pmf.probabilities == {2: Fraction(1)}
    pmf = exhaustive_pmf(Params(3, (3,)), 1, TailMode.EXACTLY)
    assert pmf.probabilities == {3: Fraction(1)}
    assert pmf.support == (3,)
    assert exhaustive_pmf(P53, 2, TailMode.AT_LEAST).support == (0, 1, 2)


def test_exhaustive_pmf_normalization_and_support():
    for params in (P53, Params(4, (1, 2, 3)), Params(6, (5, 2))):
        for t in range(1, params.T + 1):
            for mode in TailMode:
                pmf = exhaustive_pmf(params, t, mode)
                assert sum(pmf.probabilities.values()) == 1
                assert all(0 <= x <= params.n for x in pmf.probabilities)
                assert all(q >= 0 for q in pmf.probabilities.values())


def test_exhaustive_pmf_coupling_identity():
    for params in (P53, Params(5, (1, 2, 4))):
        for t in range(1, params.T + 1):
            atleast = exhaustive_pmf(params, t, TailMode.AT_LEAST).mean
            stacked = sum(
                (
                    exhaustive_pmf(params, u, TailMode.EXACTLY).mean
                    for u in range(t, params.T + 1)
                ),
                Fraction(0),
            )
            assert atleast == stacked


def test_budget_enforcement():
    big = Params(40, (10, 12, 14))
    expected = exhaustive_outcome_count(big)
    with pytest.raises(BudgetExceededError) as info:
        exhaustive_pmf(big, 1, TailMode.EXACTLY)
    assert info.value.tuple_count == expected
    # a generous budget admits a small instance
    assert exhaustive_pmf(P53, 1, TailMode.EXACTLY, budget=100)


def test_budget_refusal_of_a_count_beyond_the_digit_limit():
    # C(20000, 10000) has 6,019 digits, more than Python prints by default.
    with pytest.raises(BudgetExceededError) as info:
        exhaustive_pmf(Params(20000, (10000,)), 1, TailMode.EXACTLY)
    assert info.value.tuple_count == math.comb(20000, 10000)
    assert str(info.value) == (
        "exhaustive enumeration needs about 2.24560e+6018 draw tuples, "
        "budget is 10000000"
    )


@pytest.mark.parametrize("budget", [-1, -5])
def test_negative_budget_is_rejected(budget):
    # Not read as "every instance is over budget", nor as a cue to sample.
    with pytest.raises(ValueError, match="budget must be at least 0"):
        exhaustive_pmf(P53, 1, TailMode.EXACTLY, budget=budget)
    with pytest.raises(ValueError, match="budget must be at least 0"):
        compare_report(P53, 1, TailMode.EXACTLY, 2, budget=budget)


def test_monte_carlo_reproducible():
    params = Params(12, (4, 6))
    a = monte_carlo(params, 1, TailMode.EXACTLY, 40_000, 7)
    b = monte_carlo(params, 1, TailMode.EXACTLY, 40_000, 7)
    assert a == b
    c = monte_carlo(params, 1, TailMode.EXACTLY, 40_000, 8)
    assert c != a


def test_monte_carlo_thread_count_invariance():
    params = Params(20, (5, 8, 11))
    serial = monte_carlo(params, 2, TailMode.AT_LEAST, 70_000, 123)
    threaded = monte_carlo(params, 2, TailMode.AT_LEAST, 70_000, 123, threads=4)
    assert serial == threaded


def test_monte_carlo_deterministic_instance():
    result = monte_carlo(Params(4, (2,)), 1, TailMode.EXACTLY, 5_000, 3)
    assert result.raw_moment_estimates[0] == 2.0
    assert result.standard_errors[0] == 0.0


def test_monte_carlo_tracks_exact_mean():
    params = Params(30, (10, 12))
    exact = float(raw_moment(params, 2, TailMode.AT_LEAST, 1))
    result = monte_carlo(params, 2, TailMode.AT_LEAST, 100_000, 42)
    z = (result.raw_moment_estimates[0] - exact) / result.standard_errors[0]
    assert abs(z) <= 5


@pytest.mark.parametrize(
    "params", [Params(6, (2, 3)), Params(10**6, (5, 3))], ids=str
)
def test_monte_carlo_histogram_is_exact_tally(params):
    result = monte_carlo(params, 1, TailMode.EXACTLY, 10_000, 9, max_order=2)
    hist = result.occupancy_histogram
    assert len(hist) == params.n + 1
    assert sum(hist) == 10_000
    for v in (1, 2):
        moment = sum(x**v * c for x, c in enumerate(hist)) / 10_000
        assert result.raw_moment_estimates[v - 1] == moment


def test_monte_carlo_rejects_bad_arguments():
    with pytest.raises(ValueError):
        monte_carlo(P53, 1, TailMode.EXACTLY, 0, 1)
    with pytest.raises(ValueError):
        monte_carlo(P53, 9, TailMode.EXACTLY, 10, 1)
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads"):
            monte_carlo(P53, 1, TailMode.EXACTLY, 10, 1, threads=threads)
    # Seeds outside the 128-bit generator key would replay another seed.
    for seed in (-1, 2**128):
        with pytest.raises(ValueError, match="seed"):
            monte_carlo(P53, 1, TailMode.EXACTLY, 10, seed)
    assert monte_carlo(P53, 1, TailMode.EXACTLY, 10, 2**128 - 1).seed == 2**128 - 1
    # Bools and floats are not counts; numpy integers are.
    for bad in ({"seed": True}, {"trials": True}, {"max_order": True},
                {"threads": 2.5}):
        with pytest.raises(TypeError):
            monte_carlo(P53, 1, TailMode.EXACTLY, **{"trials": 10, "seed": 1, **bad})
    assert monte_carlo(P53, 1, TailMode.EXACTLY, 10, np.int64(5)) == monte_carlo(
        P53, 1, TailMode.EXACTLY, 10, 5
    )


def test_monte_carlo_seed_defaults_to_zero():
    assert monte_carlo(P53, 1, TailMode.EXACTLY, 10) == monte_carlo(
        P53, 1, TailMode.EXACTLY, 10, 0
    )


def test_monte_carlo_names_the_first_order_beyond_the_float_range():
    args = (Params(30, (10, 12)), 1, TailMode.EXACTLY, 10)
    with pytest.raises(ValueError, match=r"^order \d+ ") as info:
        monte_carlo(*args, max_order=400)
    first = int(str(info.value).split()[1])
    # the standard error of order v holds x^(2v): it leaves first
    assert 100 < first < 200
    result = monte_carlo(*args, max_order=first - 1)
    assert all(map(math.isfinite, result.raw_moment_estimates + result.standard_errors))


def test_monte_carlo_thread_pool_capped_at_block_count(monkeypatch):
    sizes = []

    class RecordingPool(oracle.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(oracle, "ThreadPoolExecutor", RecordingPool)
    one_block = monte_carlo(P53, 1, TailMode.EXACTLY, 100, 5, threads=3)
    assert sizes == []  # a single block runs in the calling thread
    assert one_block == monte_carlo(P53, 1, TailMode.EXACTLY, 100, 5)
    two_blocks = oracle._BLOCK_TRIALS + 1
    threaded = monte_carlo(P53, 1, TailMode.EXACTLY, two_blocks, 5, threads=3)
    assert sizes == [2]
    assert threaded == monte_carlo(P53, 1, TailMode.EXACTLY, two_blocks, 5)


@pytest.mark.parametrize(
    "params",
    [Params(6, (2, 3, 5, 1)), Params(8, (3, 4, 4)), Params(7, (7, 2)), Params(4, (2,)),
     # Five and six draws: classes die, freeze and reach t at several draws.
     Params(5, (2, 3, 1, 4, 2)), Params(4, (1, 2, 3, 2, 1, 2))],
    ids=str,
)
def test_monte_carlo_histogram_matches_exact_pmf(params):
    # Every occupancy value's trial count must sit within 5 binomial standard
    # errors of its exact probability, and values of probability 0 never occur.
    trials, seed = 200_000, 61
    for t in range(1, params.T + 1):
        for mode in TailMode:
            exact = exhaustive_pmf(params, t, mode).probabilities
            hist = monte_carlo(params, t, mode, trials, seed).occupancy_histogram
            for x, count in enumerate(hist):
                p = exact.get(x, Fraction(0))
                if p in (0, 1):
                    assert count == p * trials, (t, mode, x)
                    continue
                z = (count - trials * p) / math.sqrt(trials * p * (1 - p))
                assert abs(z) <= 5, (t, mode, x, float(z))


@pytest.mark.parametrize(
    ("params", "t", "mode", "calls"),
    [
        (Params(40, (12, 15, 18)), 2, TailMode.AT_LEAST, 2),
        (Params(40, (10, 10, 10)), 1, TailMode.EXACTLY, 3),
        (Params(35, (14, 7, 21)), 3, TailMode.EXACTLY, 2),
        (Params(1000, (300, 400, 500, 200, 350)), 2, TailMode.AT_LEAST, 6),
        (Params(200, (50,) * 8), 1, TailMode.AT_LEAST, 7),
        (Params(200, (50,) * 8), 3, TailMode.EXACTLY, 19),
    ],
    ids=lambda v: str(getattr(v, "value", v)),
)
def test_monte_carlo_samples_only_live_classes(monkeypatch, params, t, mode, calls):
    # One hypergeometric call per live class and draw, none for the last
    # live class while no element is frozen; the full chain makes T(T-1)/2.
    made = []
    make = oracle._block_generator

    class Counting:
        def __init__(self, gen):
            self.gen = gen

        def hypergeometric(self, *args):
            made.append(len(args[0]))
            return self.gen.hypergeometric(*args)

    monkeypatch.setattr(oracle, "_block_generator", lambda *key: Counting(make(*key)))
    monte_carlo(params, t, mode, 100, 1)
    assert made == [100] * calls


def test_monte_carlo_rejects_n_beyond_sampler_range():
    with pytest.raises(ValueError, match="n < 1000000000"):
        monte_carlo(Params(10**9, (1,)), 1, TailMode.EXACTLY, 1, 0)


def test_outcome_count_exceeds_matches_the_exact_count():
    for params in FAMILY:
        count = exhaustive_outcome_count(params)
        for budget in {0, count - 1, count, count + 1}:
            assert oracle._outcome_count_exceeds(params, budget) == (
                count > budget
            ), (params, budget)


def test_compare_auto_routes_without_the_exact_count(monkeypatch):
    # The exact count of this instance takes seconds to compute.
    def refuse(params):
        raise AssertionError("the auto route computed the exact tuple count")

    monkeypatch.setattr(oracle, "exhaustive_outcome_count", refuse)
    report = compare_report(Params(10**6, (5 * 10**5,) * 2), 1, TailMode.EXACTLY, 1,
                            trials=10)
    assert report.method == "monte-carlo"


def test_compare_report_exhaustive():
    report = compare_report(P53, 1, TailMode.EXACTLY, 3)
    assert report.method == "exhaustive"
    assert report.all_equal
    report = compare_report(Params(6, (2, 2, 3)), 2, TailMode.EXACTLY, 3)
    assert report.method == "exhaustive"
    assert report.all_equal


def test_compare_report_monte_carlo():
    report = compare_report(
        Params(30, (10, 12)),
        2,
        TailMode.AT_LEAST,
        2,
        trials=100_000,
        seed=5,
    )
    assert report.method == "monte-carlo"
    assert all(abs(row.z_score) <= 5 for row in report.rows)


def test_compare_report_one_trial_z_is_undefined():
    report = compare_report(Params(30, (10, 12)), 2, TailMode.AT_LEAST, 3,
                            method="monte-carlo", trials=1)
    assert all(math.isnan(row.stderr) and math.isnan(row.z_score)
               for row in report.rows)


def test_compare_report_method_validation():
    with pytest.raises(ValueError):
        compare_report(P53, 1, TailMode.EXACTLY, 2, method="psychic")
    with pytest.raises(ValueError, match="threads"):
        compare_report(P53, 1, TailMode.EXACTLY, 2, method="exhaustive", threads=0)
    # order 0 would compare nothing and report every row equal
    with pytest.raises(ValueError, match="max_order"):
        compare_report(P53, 1, TailMode.EXACTLY, 0, method="exhaustive")
    with pytest.raises(TypeError, match="max_order"):
        compare_report(P53, 1, TailMode.EXACTLY, max_order=True, method="exhaustive")


@pytest.mark.parametrize("method", ["auto", "exhaustive", "monte-carlo"])
@pytest.mark.parametrize(
    "kwargs, error",
    [
        ({"trials": 2.5}, TypeError),
        ({"trials": 0}, ValueError),
        ({"seed": True}, TypeError),
        ({"seed": -1}, ValueError),
        ({"seed": 1 << 128}, ValueError),
    ],
    ids=["trials-float", "trials-0", "seed-bool", "seed-negative", "seed-2**128"],
)
def test_compare_report_checks_sampler_args_on_every_route(method, kwargs, error):
    # the exhaustive route never samples, but bad sampler arguments are
    # still bad input, as they are for monte_carlo
    with pytest.raises(error, match="trials" if "trials" in kwargs else "seed"):
        compare_report(P53, 1, TailMode.EXACTLY, 2, method=method, **kwargs)
