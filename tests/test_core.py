import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from occukit import core
from occukit.combinat import falling_factorial, iter_k_subsets
from occukit.core import (
    Params,
    SizeSpec,
    joint_weight,
    membership_counts,
    occupancy_norm,
    pattern_weight,
    power_weight,
    weight_sum_dp,
    weight_sum_naive,
    weight_sum_table,
)
from occukit.errors import DegenerateDenominatorError

P53 = Params(5, (2, 3))


# --- instance and spec validation -----------------------------------------


@pytest.mark.parametrize(
    "n,m",
    [(0, (1,)), (3, ()), (3, (0,)), (3, (4,)), (-1, (1,))],
)
def test_params_rejects_bad_instances(n, m):
    with pytest.raises(ValueError):
        Params(n, m)


@pytest.mark.parametrize(
    "n,m",
    [
        (5, (2.7,)),  # would truncate to 2
        (5.0, (2,)),
        (True, (1,)),
        (5, (2, True)),
        (5, ("2",)),
    ],
)
def test_params_rejects_non_integers(n, m):
    with pytest.raises(TypeError):
        Params(n, m)


def test_params_accepts_numpy_integers():
    p = Params(np.int64(5), (np.int32(2), np.uint8(3)))
    assert p == Params(5, (2, 3))
    assert type(p.n) is int and all(type(v) is int for v in p.m)


def test_params_basics():
    p = Params(4, [2, 2, 1])
    assert p.T == 3 and p.m == (2, 2, 1)
    assert p == Params(4, (2, 2, 1))


def test_size_spec_constructors():
    assert SizeSpec.fixed(1, 1).fixed_sizes == (1, 1)
    assert SizeSpec.coerce([1, 1]) == SizeSpec.fixed(1, 1)
    assert SizeSpec.coerce([{1, 2}, 1]).entries == (
        frozenset({1, 2}),
        frozenset({1}),
    )
    assert SizeSpec.repeated(2, 3) == SizeSpec.fixed(2, 2, 2)
    assert SizeSpec.repeated({1, 2}, 2).r == 2
    assert SizeSpec.fixed(0, 2).describe() == "p=(0, 2)"
    assert not SizeSpec.of_sets({1, 2}).is_fixed


def test_size_spec_rejects_bad_entries():
    with pytest.raises(ValueError):
        SizeSpec.of_sets(set())
    with pytest.raises(ValueError):
        SizeSpec.fixed(-1)
    with pytest.raises(ValueError):
        SizeSpec.of_sets({1, 2}).fixed_sizes


@pytest.mark.parametrize(
    "build",
    [
        lambda: SizeSpec.fixed(1.5),
        lambda: SizeSpec.fixed(True),
        lambda: SizeSpec.of_sets((0, 2.0)),
        lambda: SizeSpec.repeated(False, 2),
        lambda: SizeSpec.coerce([1, (2, True)]),
        lambda: SizeSpec(((1, 2.5),)),
        # a non-integer scalar is one size, not a set to iterate
        lambda: SizeSpec.coerce([1.5]),
        lambda: SizeSpec.repeated(1.5, 2),
    ],
)
def test_size_spec_rejects_non_integer_sizes(build):
    with pytest.raises(TypeError, match="pattern size must be an integer, got "):
        build()


def test_size_spec_accepts_numpy_integers():
    spec = SizeSpec.coerce([np.int64(1), (np.int16(0), 2)])
    assert spec == SizeSpec.of_sets((1,), (0, 2))
    assert all(type(s) is int for entry in spec.entries for s in entry)
    assert SizeSpec.fixed(np.int64(2), 3) == SizeSpec.fixed(2, 3)
    assert SizeSpec.repeated(np.uint8(2), 2) == SizeSpec.fixed(2, 2)
    # a 1-d array is a size set, as a range is
    assert SizeSpec.coerce([np.arange(3, 7)]) == SizeSpec.coerce([range(3, 7)])
    assert SizeSpec.repeated(np.arange(3, 7), 2) == SizeSpec.repeated(range(3, 7), 2)
    assert SizeSpec.coerce([np.int64(1), np.arange(2)]) == SizeSpec.of_sets((1,), (0, 1))
    # a 0-d array is one size
    assert SizeSpec.coerce([np.array(3)]) == SizeSpec.repeated(np.array(3), 1) == SizeSpec.fixed(3)


def test_spec_size_above_T_rejected():
    with pytest.raises(ValueError):
        weight_sum_naive(P53, [3])
    with pytest.raises(ValueError):
        weight_sum_dp(P53, [(0, 3)])


# --- weights ----------------------------------------------------------------


def test_pattern_weight_values():
    assert pattern_weight(P53, {1, 2}) == 6
    assert pattern_weight(P53, ()) == 6
    assert pattern_weight(P53, {2}) == 9


def test_pattern_weight_rejects_foreign_index():
    with pytest.raises(ValueError):
        pattern_weight(P53, {3})
    with pytest.raises(TypeError):
        pattern_weight(P53, [1.5])


def test_membership_counts():
    assert membership_counts(2, [{1}, {1, 2}]) == (2, 1)
    assert membership_counts(3, [set()]) == (0, 0, 0)
    assert membership_counts(2, [{1, 2}, {1, 2}]) == (2, 2)
    with pytest.raises(ValueError):
        membership_counts(2, [{5}])


def test_joint_weight_values():
    assert joint_weight(P53, [{1, 2}, {1, 2}]) == 12
    assert joint_weight(P53, [{1}, {2}]) == 36
    assert joint_weight(Params(3, (1, 2)), [{1}, {1}]) == 0
    assert joint_weight(P53, []) == 1


def test_joint_weight_single_matches_pattern_weight():
    for subset_size in range(3):
        for subset in iter_k_subsets(2, subset_size):
            assert joint_weight(P53, [subset]) == pattern_weight(P53, subset)


def test_power_weight_matches_joint_on_copies():
    for r in (1, 2, 3):
        for subset_size in range(3):
            for subset in iter_k_subsets(2, subset_size):
                assert power_weight(P53, subset, r) == joint_weight(
                    P53, [subset] * r
                )


def test_power_weight_closed_forms():
    assert power_weight(P53, {1, 2}, 2) == 12  # both sizes fall twice
    assert power_weight(P53, (), 2) == 12  # complements fall twice
    with pytest.raises(ValueError):
        power_weight(P53, {1}, 0)


# --- weight sums ------------------------------------------------------------


def test_weight_sum_examples():
    assert weight_sum_naive(P53, [1]) == 13
    assert weight_sum_naive(P53, [1, 1]) == 112
    assert weight_sum_naive(P53, SizeSpec(())) == 1
    assert weight_sum_dp(P53, [1]) == 13
    assert weight_sum_dp(P53, [1, 1]) == 112
    assert weight_sum_dp(P53, SizeSpec(())) == 1


def test_weight_sum_single_tuple_domain():
    p = Params(5, (2,))
    assert weight_sum_dp(p, [1, 1]) == joint_weight(p, [{1}, {1}])


def test_weight_sum_bset_equals_sum_of_fixed():
    p = Params(6, (2, 3, 4))
    spec = SizeSpec.of_sets({1, 2}, {0, 3})
    total = sum(
        weight_sum_dp(p, SizeSpec.fixed(a, b))
        for a in (1, 2)
        for b in (0, 3)
    )
    assert weight_sum_dp(p, spec) == total == weight_sum_naive(p, spec)


def _random_spec(draw, T):
    r = draw(st.integers(0, 3))
    entries = []
    for _ in range(r):
        if draw(st.booleans()):
            entries.append(draw(st.integers(0, T)))
        else:
            entries.append(
                draw(st.sets(st.integers(0, T), min_size=1, max_size=T + 1))
            )
    return SizeSpec.coerce(entries)


@st.composite
def instance_and_spec(draw):
    n = draw(st.integers(1, 8))
    T = draw(st.integers(1, 6))
    m = tuple(draw(st.integers(1, n)) for _ in range(T))
    return Params(n, m), _random_spec(draw, T)


@given(instance_and_spec())
@settings(max_examples=80, deadline=None)
def test_dp_matches_naive(case):
    params, spec = case
    assert weight_sum_dp(params, spec) == weight_sum_naive(params, spec)


@st.composite
def class_heavy_case(draw):
    # Favours what the slot classes and the absorbing cap must get right:
    # repeated size sets mixed with distinct ones, suffix windows {t..T},
    # sets with gaps, size 0, up to four slots, m_i = n and r = n.
    n = draw(st.integers(1, 6))
    r = draw(st.one_of(st.integers(0, 4), st.just(min(n, 4))))
    T = draw(st.integers(1, 6 - max(r, 2) // 2))
    m = tuple(draw(st.one_of(st.just(n), st.integers(1, n))) for _ in range(T))
    pool = [
        frozenset({draw(st.integers(0, T))}),
        frozenset(range(draw(st.integers(0, T)), T + 1)),
        frozenset(draw(st.sets(st.integers(0, T), min_size=1, max_size=T + 1))),
    ]
    entries = tuple(pool[draw(st.integers(0, 2))] for _ in range(r))
    domain = 1
    for entry in entries:
        domain *= sum(math.comb(T, s) for s in entry)
    assume(domain <= 20_000)
    return Params(n, m), SizeSpec(entries)


@given(class_heavy_case())
@settings(max_examples=150, deadline=None)
def test_dp_matches_naive_on_slot_classes(case):
    params, spec = case
    assert weight_sum_dp(params, spec) == weight_sum_naive(params, spec)


@pytest.mark.parametrize(
    "spec",
    [
        [{2, 3, 4}, {2, 3, 4}, 5],
        [{3, 4, 5}, 0, {3, 4, 5}, {1, 5}],
        [{0, 2, 5}, {0, 2, 5}, {0, 2, 5}],
        [{4, 5}, {4, 5}, {4, 5}, {4, 5}],
    ],
)
def test_dp_matches_naive_on_repeated_entries(spec):
    params = Params(4, (4, 2, 3, 4, 1))
    assert weight_sum_dp(params, spec) == weight_sum_naive(params, spec)


def test_dp_matches_table_sums_at_larger_T():
    # Literal enumeration is out of reach at T = 13; the dense all-sizes
    # table is an independent route to the same sums.
    params = Params(30, (7, 12, 3, 25, 18, 9, 14, 21, 5, 16, 11, 28, 2))
    table = weight_sum_table(params, 3)
    suffix = frozenset(range(5, 14))
    for entries in (
        (suffix, suffix, frozenset({3, 4, 5})),
        (suffix, suffix, suffix),
        (frozenset({0, 6, 7}), suffix, frozenset(range(2, 9))),
        # overlapping windows, alone and mixed with a fixed size
        (frozenset(range(3, 10)), frozenset(range(4, 8)), frozenset({9, 10, 11})),
        (frozenset({7}), frozenset(range(2, 7)), frozenset(range(4, 8))),
        # disjoint sizes far apart
        (frozenset({1}), frozenset({12}), frozenset({6})),
        (frozenset({2}), frozenset({2}), frozenset({11})),
        # a slot that allows every size
        (frozenset(range(14)), frozenset({4}), frozenset(range(6, 10))),
    ):
        expected = sum(table[p] for p in itertools.product(*entries))
        assert weight_sum_dp(params, SizeSpec(entries)) == expected


_CHAIN_T = 24
_CHAIN_SETS = {
    "zero": frozenset({0}),
    "T": frozenset({_CHAIN_T}),
    "half": frozenset({_CHAIN_T // 2}),
    "window": frozenset(range(6, _CHAIN_T + 1)),
    "gaps": frozenset({1, 5, 6, 17, 23}),
}


@pytest.mark.parametrize("sizes", _CHAIN_SETS.values(), ids=_CHAIN_SETS)
def test_one_slot_chain_matches_table_sums(sizes):
    # One slot left walks the coverage chain; the dense tables of one and
    # two slots are an independent route, the second with a free slot.
    params = Params(1000, tuple(range(300, 692, 17)))
    T = params.T
    assert T == _CHAIN_T
    one, two = weight_sum_table(params, 1), weight_sum_table(params, 2)
    assert weight_sum_dp(params, [sizes]) == sum(one[(p,)] for p in sizes)
    full = range(T + 1)
    beside = sum(two[(p, q)] for p in sizes for q in full)
    assert weight_sum_dp(params, [sizes, full]) == beside
    assert weight_sum_dp(params, [full, sizes]) == beside


def test_one_slot_calls_build_no_level_graph(monkeypatch):
    params = Params(12, (3, 8, 5, 6, 2, 7, 11, 4))
    full = range(params.T + 1)
    specs = [SizeSpec.coerce(s) for s in ([3], [range(2, 9)], [{0, 4}, full], [8])]
    expected = [weight_sum_naive(params, spec) for spec in specs]

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"one-slot call used numpy.{name}")

    core._level_graph.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(core, "np", NoNumpy())
        assert [weight_sum_dp(params, spec) for spec in specs] == expected
    assert core._level_graph.cache_info().graphs == 0
    weight_sum_dp(params, [3, 3])
    assert core._level_graph.cache_info().graphs == 1
    core._level_graph.cache_clear()


def test_dp_matches_naive_on_eight_slots_of_three_sets():
    # Each final tuple's admissible orderings are counted slot by slot,
    # never by listing the 8! permutations of the slots.
    params = Params(10, (4, 6))
    spec = [{0, 1}] * 3 + [{1, 2}] * 3 + [{2}] * 2
    assert weight_sum_dp(params, spec) == weight_sum_naive(params, spec)


def _graph_for(params, spec):
    entries = SizeSpec.coerce(spec).entries
    shape = core._slot_shape(entries, params.T)
    return core._level_graph(shape, min(params.T, 2 * shape.top))


def _brute_lives(entries, top, bound):
    """``lives`` of the level graph by brute force: a sorted tuple of levels
    ``0..top`` has as worst need the least, over its distinct orderings on
    the slots, of the largest need; it is a state when its largest level
    plus that is at most ``bound``."""
    needs = [
        [min([v - u for v in sizes if v >= u], default=math.inf) for u in range(top + 1)]
        for sizes in entries
    ]
    worsts = []
    for levels in itertools.combinations_with_replacement(range(top + 1), len(needs)):
        worst = min(
            max(need[u] for need, u in zip(needs, order))
            for order in set(itertools.permutations(levels))
        )
        if levels[-1] + worst <= bound:
            worsts.append(worst)
    return [sum(w <= bound_w for w in worsts) for bound_w in range(bound + 1)]


@pytest.mark.parametrize(
    "params, spec",
    [
        (Params(8, (3, 5, 4, 6, 2)), [{1, 2}, {1, 2}, {4}]),
        (Params(8, (3, 5, 4, 6, 2, 7)), [range(4, 7), {1}, {2, 3}]),
        (Params(8, (3, 5, 4, 6, 2, 7)), [{0, 4}, {2, 3}, {2, 3}, {5}]),
        (Params(10, (3, 8, 5, 6, 2, 7, 4)), [{1}, {3}, {5}, {6}]),
        (Params(8, (3, 5, 4, 6, 2, 7)), [{0, 4}, {2, 3}, {1}, {5, 6}, {3}]),
    ],
)
def test_level_graph_numbers_states_by_exact_worst_need(params, spec):
    # A lower bound on the worst need would still sum correctly, over a
    # larger graph: the numbering itself is compared with brute force.
    graph = _graph_for(params, spec)
    entries = SizeSpec.coerce(spec).entries
    top = core._slot_shape(entries, params.T).top
    lives = _brute_lives(entries, top, graph.bound)
    assert graph.lives == lives
    assert len(graph.starts) - 1 == lives[-1]
    assert weight_sum_dp(params, spec) == weight_sum_naive(params, spec)


@pytest.mark.parametrize(
    "params, spec",
    [
        (Params(8, (3, 5, 4, 6, 2)), [{1, 2}, {1, 2}, {4}]),
        (Params(8, (3, 5, 4, 6, 2, 7)), [{0, 4}, {2, 3}, {2, 3}, {5}]),
        (Params(10, (3, 8, 5, 6, 2, 7, 4)), [{1}, {3}, {5}, {6}]),
        # absorbing tops: {3..T} at T = 6, and {2} = {T} at T = 2
        (Params(8, (3, 5, 4, 6, 2, 7)), [range(3, 7), range(3, 7), {1}, {0, 2}]),
        (Params(10, (4, 6)), [{0, 1}] * 2 + [{1, 2}] * 2 + [{2}] * 2),
    ],
)
def test_level_graph_counts_the_orderings_of_its_final_states(params, spec):
    # The final states are the sorted level tuples that some ordering on
    # the slots fits, numbered first in lexicographic order. div counts a
    # tuple's distinct orderings, adm those that give every slot a level in
    # its own set (at an absorbing top, a set holds top iff it holds T).
    entries = SizeSpec.coerce(spec).entries
    graph = _graph_for(params, spec)
    top = core._slot_shape(entries, params.T).top
    div, adm = [], []
    for levels in itertools.combinations_with_replacement(range(top + 1), len(entries)):
        orders = set(itertools.permutations(levels))
        fits = sum(all(u in b for u, b in zip(order, entries)) for order in orders)
        if fits:
            div.append(len(orders))
            adm.append(fits)
    assert graph.lives[0] == len(div)
    assert graph.div.tolist() == div
    assert graph.adm.tolist() == adm


def test_level_graph_is_shared_by_instances_of_one_shape():
    spec = [{2, 3}, {2, 3}, {4}]
    first, second = Params(9, (4, 5, 2, 7, 3, 6)), Params(11, (2, 9, 5, 5, 1, 10))
    core._level_graph.cache_clear()
    warm = [weight_sum_dp(first, spec), weight_sum_dp(second, spec)]
    assert core._level_graph.cache_info().graphs == 1
    graph = _graph_for(first, spec)
    assert _graph_for(second, spec) is graph
    for params, value in zip((first, second), warm):
        core._level_graph.cache_clear()
        assert weight_sum_dp(params, spec) == value == weight_sum_naive(params, spec)


def test_level_graph_serves_an_at_least_window_at_every_T():
    # {3..T} has one shape at every T, and from T = 6 = 2 * top on one
    # state bound: the graph built at T = 6 serves T = 9 unchanged.
    short = Params(10, (3, 8, 5, 6, 2, 7))
    long = Params(12, (5, 9, 2, 11, 4, 6, 8, 3, 7))
    specs = {p: [range(3, p.T + 1)] * 2 for p in (short, long)}
    core._level_graph.cache_clear()
    warm = [weight_sum_dp(p, specs[p]) for p in (short, long)]
    assert core._level_graph.cache_info().graphs == 1
    assert _graph_for(short, specs[short]) is _graph_for(long, specs[long])
    for params, value in zip((short, long), warm):
        core._level_graph.cache_clear()
        spec = specs[params]
        assert weight_sum_dp(params, spec) == value == weight_sum_naive(params, spec)


@pytest.mark.parametrize(
    "params, spec",
    [
        # beyond int64 in the weights alone
        (Params(100, (90,) * 12), [2, 1]),
        # 64 slots: the graph's codes and class keys beyond int64 too
        (Params(130, (40, 46, 30)), [{1}] * 2 + [{0}] * 61 + [{3}]),
        (Params(130, (70,)), [1] * 64),
    ],
)
def test_dp_returns_exact_python_ints_beyond_int64(params, spec):
    value = weight_sum_dp(params, spec)
    assert type(value) is int
    assert value > 1 << 63
    assert value == weight_sum_naive(params, spec)


def test_level_graph_cache_evicts_past_its_move_bound(monkeypatch):
    params = Params(8, (3, 5, 4, 6, 2))
    specs = [[2, 2], [{1, 2}, 3], [3, 3, 3], [{0, 4}, {2, 3}], [1, 1, 2, 2]]
    core._level_graph.cache_clear()
    monkeypatch.setattr(core._level_graph, "max_moves", 60)
    try:
        for spec in specs:
            assert weight_sum_dp(params, spec) == weight_sum_naive(params, spec)
            info = core._level_graph.cache_info()
            assert info.moves <= 60
        assert 0 < info.graphs < len(specs)
    finally:
        core._level_graph.cache_clear()


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize(
    "spec",
    [
        [range(5)],
        [range(5), range(5)],
        [range(5), 2],
        [{0, 4}, range(5), range(5)],
        [range(5), 1, {1, 3}],
        [2, range(5), 1, {1, 3}],
    ],
)
def test_free_slots_factor_out(n, spec):
    # A slot allowing every size scales G of the other s slots by (n - s)
    # per draw, also when n - s is 0 or negative.
    params = Params(n, (1, n, 2 if n > 2 else 1, 1))
    assert weight_sum_dp(params, spec) == weight_sum_naive(params, spec)


@st.composite
def instance_and_sizes(draw):
    n = draw(st.integers(2, 8))
    T = draw(st.integers(1, 5))
    m = tuple(draw(st.integers(1, n - 1)) for _ in range(T))
    r = draw(st.integers(1, 3))
    p = tuple(draw(st.integers(0, T)) for _ in range(r))
    return Params(n, m), p


@given(instance_and_sizes())
@settings(max_examples=60, deadline=None)
def test_slot_permutation_symmetry(case):
    params, p = case
    reference = weight_sum_dp(params, SizeSpec.fixed(*p))
    for perm in itertools.permutations(p):
        assert weight_sum_dp(params, SizeSpec.fixed(*perm)) == reference


@given(instance_and_sizes())
@settings(max_examples=60, deadline=None)
def test_complement_symmetry(case):
    # Swapping covered/uncovered roles: m_i -> n - m_i with p_j -> T - p_j
    # leaves the weight sum unchanged.
    params, p = case
    flipped = Params(params.n, tuple(params.n - mi for mi in params.m))
    flipped_sizes = tuple(params.T - pj for pj in p)
    assert weight_sum_dp(params, SizeSpec.fixed(*p)) == weight_sum_dp(
        flipped, SizeSpec.fixed(*flipped_sizes)
    )


@given(instance_and_sizes())
@settings(max_examples=40, deadline=None)
def test_extreme_sizes_close_form(case):
    params, p = case
    r = len(p)
    all_zero = SizeSpec.fixed(*([0] * r))
    all_full = SizeSpec.fixed(*([params.T] * r))
    prod_zero = 1
    prod_full = 1
    for mi in params.m:
        prod_zero *= falling_factorial(params.n - mi, r)
        prod_full *= falling_factorial(mi, r)
    assert weight_sum_dp(params, all_zero) == prod_zero
    assert weight_sum_dp(params, all_full) == prod_full


def test_weight_sum_table_matches_dp():
    params = Params(6, (2, 3, 4))
    for r in (0, 1, 2, 3):
        table = weight_sum_table(params, r)
        assert len(table) == (params.T + 1) ** r
        for sizes, value in table.items():
            assert value == weight_sum_dp(params, SizeSpec.fixed(*sizes))


_PREFIX_CASES = [
    # shares two draws; truncates to one and extends; repeats; shares
    # nothing; m_i = n (zero factors)
    (4, [(1, 2, 3), (1, 2, 4), (1, 3, 1), (1, 3, 1), (4, 4, 2), (4, 1, 4)]),
    (5, [(2,), (2,), (5,), (1,)]),  # T = 1
]


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("n,vectors", _PREFIX_CASES, ids=["T3", "T1"])
def test_prefix_tables_match_dp(n, vectors, r):
    T = len(vectors[0])
    sizes = list(itertools.product(range(T + 1), repeat=r))
    plan = core._prefix_plan(T, vectors)
    chunks = core._prefix_tables(n, r, plan, core._table_codes(T, sizes))
    walk = [row.tolist() for chunk in chunks for row in chunk]
    for m, values in zip(vectors, walk, strict=True):
        params = Params(n, m)
        assert len(values) == len(sizes)
        for p, value in zip(sizes, values):
            assert value == weight_sum_dp(params, SizeSpec.fixed(*p)), (m, p)


def test_weight_sum_table_matches_dp_on_each_route(table_route):
    test_weight_sum_table_matches_dp()


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("n,vectors", _PREFIX_CASES, ids=["T3", "T1"])
def test_prefix_tables_match_dp_on_each_route(table_route, n, vectors, r):
    test_prefix_tables_match_dp(n, vectors, r)


@pytest.mark.parametrize("n,route", [(2**21, "list"), (2**21 - 1, "int64")])
def test_int64_bound_edge(monkeypatch, n, route):
    """At T=3 and r=1 the int64 walk is exact while n^3 < 2^63: n = 2^21
    reaches the bound and must walk Python integers, where m = (n, n, n)
    gives G(3) = n^3 = 2^63; one less walks in int64, with every entry up to
    (2^21 - 1)^3."""
    taken = []

    def spy(name):
        walk = getattr(core, name)

        def run(*args):
            taken.append(name)
            return walk(*args)

        return run

    for name in ("_int64_tables", "_list_tables"):
        monkeypatch.setattr(core, name, spy(name))
    sizes = (1, 2, n // 3, n // 2, n - 1, n)
    vectors = sorted(itertools.combinations_with_replacement(sizes, 3))
    plan = core._prefix_plan(3, vectors)
    rows = [row.tolist() for chunk in core._prefix_tables(n, 1, plan, range(4))
            for row in chunk]
    assert taken == [f"_{route}_tables"]
    assert rows[-1][3] == n**3 and (n**3 >= 2**63) == (route == "list")
    for m, row in zip(vectors, rows, strict=True):
        assert row == [weight_sum_dp(Params(n, m), [p]) for p in range(4)], m


def test_weight_sum_table_rejects_negative_r():
    with pytest.raises(ValueError):
        weight_sum_table(P53, -1)


# --- norms ------------------------------------------------------------------


def test_norm_examples():
    assert occupancy_norm(P53, [1]) == Fraction(13, 5)
    assert occupancy_norm(P53, [1, 1]) == Fraction(28, 5)
    assert occupancy_norm(Params(10, (3, 4)), [2, 2]) == Fraction(4, 5)


def test_norm_single_slot_reduction():
    # One slot: the norm is the plain sum of pattern weights over n^(T-1).
    params = Params(7, (2, 5, 3))
    for p in range(params.T + 1):
        direct = sum(pattern_weight(params, s) for s in iter_k_subsets(params.T, p))
        assert occupancy_norm(params, [p]) == Fraction(
            direct, params.n ** (params.T - 1)
        )


def test_norm_degenerate_denominator():
    with pytest.raises(DegenerateDenominatorError):
        occupancy_norm(Params(2, (1, 1)), [1, 1, 1])
    # even with a single draw, where the denominator exponent vanishes
    with pytest.raises(DegenerateDenominatorError):
        occupancy_norm(Params(1, (1,)), [1, 1])


def test_norm_empty_spec_is_one():
    assert occupancy_norm(P53, SizeSpec(())) == 1


def test_norm_caching_is_transparent():
    a = occupancy_norm(P53, [1, 1])
    b = occupancy_norm(P53, SizeSpec.fixed(1, 1))
    assert a == b == Fraction(28, 5)


def test_norm_cache_is_bounded_and_hit_on_repeat():
    info = core._cached_norm.cache_info()
    assert info.maxsize is not None and info.maxsize > 0
    params = Params(9, (4, 5, 2))
    occupancy_norm(params, [{1, 2}, 2])
    hits = core._cached_norm.cache_info().hits
    occupancy_norm(params, [{1, 2}, 2])
    assert core._cached_norm.cache_info().hits == hits + 1
