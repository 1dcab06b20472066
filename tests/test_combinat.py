import math

import pytest

from occukit.combinat import binomial, falling_factorial, iter_k_subsets, stirling2

# Stirling numbers of the second kind, rows v = 1..6 (independently known
# values of the partition-count recurrence).
STIRLING_ROWS = {
    1: [1],
    2: [1, 1],
    3: [1, 3, 1],
    4: [1, 7, 6, 1],
    5: [1, 15, 25, 10, 1],
    6: [1, 31, 90, 65, 15, 1],
}


@pytest.mark.parametrize(
    "x,r,expected",
    [(5, 2, 20), (7, 0, 1), (3, 5, 0), (0, 0, 1), (4, 4, 24), (-2, 2, 6)],
)
def test_falling_factorial_values(x, r, expected):
    assert falling_factorial(x, r) == expected


def test_falling_factorial_rejects_negative_order():
    with pytest.raises(ValueError):
        falling_factorial(3, -1)


def test_falling_factorial_binomial_identity():
    for n in range(31):
        for r in range(n + 1):
            assert falling_factorial(n, r) == binomial(n, r) * math.factorial(r)


@pytest.mark.parametrize("n,k,expected", [(4, 2, 6), (3, 0, 1), (2, 5, 0), (0, 0, 1)])
def test_binomial_values(n, k, expected):
    assert binomial(n, k) == expected


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        binomial(-1, 2)


@pytest.mark.parametrize("v,i,expected", [(4, 2, 7), (6, 3, 90), (5, 5, 1), (1, 1, 1)])
def test_stirling2_values(v, i, expected):
    assert stirling2(v, i) == expected


def test_stirling2_table_rows():
    for v, row in STIRLING_ROWS.items():
        assert [stirling2(v, i) for i in range(1, v + 1)] == row


@pytest.mark.parametrize("v,i", [(3, 4), (2, 0), (5, -1)])
def test_stirling2_rejects_out_of_range(v, i):
    with pytest.raises(ValueError):
        stirling2(v, i)


def test_stirling2_power_sum_identity():
    # sum_i S(v, i) * (x)_i recovers x^v: the falling-power basis change.
    for v in range(1, 7):
        for x in range(11):
            total = sum(
                stirling2(v, i) * falling_factorial(x, i) for i in range(1, v + 1)
            )
            assert total == x**v


def test_stirling2_at_depths_beyond_the_recursion_limit():
    assert stirling2(1200, 2) == 2**1199 - 1
    assert stirling2(1200, 3) == (3**1200 - 3 * 2**1200 + 3) // 6


def test_iter_k_subsets_small_cases():
    assert list(iter_k_subsets(3, 2)) == [(1, 2), (1, 3), (2, 3)]
    assert list(iter_k_subsets(2, 0)) == [()]
    assert list(iter_k_subsets(1, 1)) == [(1,)]


def test_iter_k_subsets_colex_order():
    subsets = list(iter_k_subsets(5, 3))
    keys = [tuple(reversed(s)) for s in subsets]
    assert keys == sorted(keys)


def test_iter_k_subsets_counts_and_uniqueness():
    for universe in range(13):
        for size in range(universe + 1):
            items = list(iter_k_subsets(universe, size))
            assert len(items) == binomial(universe, size)
            assert len(set(items)) == len(items)
            assert all(len(s) == size for s in items)
            assert all(1 <= v <= universe for s in items for v in s)


def test_iter_k_subsets_at_sizes_beyond_the_recursion_limit():
    assert list(iter_k_subsets(1200, 1200)) == [tuple(range(1, 1201))]
    assert sum(1 for _ in iter_k_subsets(1200, 1)) == 1200


def test_iter_k_subsets_reproducible():
    assert list(iter_k_subsets(7, 3)) == list(iter_k_subsets(7, 3))


def test_iter_k_subsets_rejects_bad_sizes():
    with pytest.raises(ValueError):
        list(iter_k_subsets(3, 4))
    with pytest.raises(ValueError):
        list(iter_k_subsets(3, -1))
