"""Tests of the benchmark's exact reference module.

Run with ``python3 -m pytest perfbench/test_reference.py``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import reference as ref


def test_quick_start_values():
    # The README quick start: n = 5, m = (2, 3).
    assert ref.norm(5, (2, 3), [1, 1]) == Fraction(28, 5)
    exact_one = ref.threshold_set(2, 1, at_least=False)
    mean = ref.factorial_moment(5, (2, 3), exact_one, 1)
    second = ref.factorial_moment(5, (2, 3), exact_one, 2)
    variance = second + mean - mean * mean
    assert mean == Fraction(13, 5)
    assert variance == Fraction(36, 25)
    lhs, rhs, margin = ref.margin(10, (3, 4), (2, 2))
    assert (lhs, rhs) == (Fraction(36, 25), Fraction(4, 5))
    assert margin == lhs - rhs


def test_slot_marginalisation_identity():
    # Summing the first slot over every size counts all elements other than
    # the r - 1 already placed: sum_p ||(p, q...)|| = (n - r + 1) ||(q...)||.
    for n, m in ((7, (2, 5, 3)), (12, (4, 4, 9, 1)), (5, (1, 4))):
        T = len(m)
        for r in (2, 3):
            for q in itertools.product(range(T + 1), repeat=r - 1):
                total = sum(ref.norm(n, m, [p, *q]) for p in range(T + 1))
                assert total == (n - r + 1) * ref.norm(n, m, list(q))


def test_coverage_laws_are_distributions():
    assert sum(ref.coverage_pmf(9, (3, 3, 4))) == 1
    for r in (2, 3):
        assert sum(ref.joint_coverage(9, (3, 3, 4), r).values()) == 1


def test_grid_size_counts_proximity_vectors():
    for T in range(1, 5):
        for r in (2, 3):
            literal = sum(
                1
                for p in itertools.product(range(T + 1), repeat=r)
                if max(p) - min(p) <= 1
            )
            assert ref.proximity_vectors(T, r) == literal
    assert ref.grid_size([3], [1], [2]) == 2**1 * 4
