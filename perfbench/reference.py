"""Exact reference values for the benchmark's correctness checks.

Built from ``fractions`` and the standard library only, and deliberately
from a different formulation than occukit's: instead of summing coverage
pattern weights, it walks the draws and tracks the coverage *counts* of one,
two or three fixed elements.

* One element: draw ``i`` covers it with probability ``m_i / n``, so its
  coverage count is Poisson-binomial.
* ``r`` distinct elements (``r`` = 2 or 3): draw ``i`` covers exactly a
  given ``k``-subset of them with probability
  ``(m_i)_k (n - m_i)_(r-k) / (n)_r``.

A norm with admissible size sets ``B_1..B_r`` is the expected number of
ordered r-tuples of distinct elements whose counts fall in those sets, that
is ``(n)_r * P(c_1 in B_1, ..., c_r in B_r)``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence


def falling(x: int, k: int) -> int:
    """x(x-1)...(x-k+1); the empty product is 1."""
    out = 1
    for j in range(k):
        out *= x - j
    return out


@lru_cache(maxsize=None)
def coverage_pmf(n: int, m: tuple[int, ...]) -> tuple[Fraction, ...]:
    """P(one fixed element is covered exactly c times), c = 0..T."""
    dist = [Fraction(1)]
    for m_i in m:
        hit = Fraction(m_i, n)
        miss = 1 - hit
        nxt = [Fraction(0)] * (len(dist) + 1)
        for c, q in enumerate(dist):
            nxt[c] += q * miss
            nxt[c + 1] += q * hit
        dist = nxt
    return tuple(dist)


@lru_cache(maxsize=None)
def joint_coverage(n: int, m: tuple[int, ...], r: int) -> dict[tuple[int, ...], Fraction]:
    """Joint law of the coverage counts of ``r`` fixed distinct elements."""
    if r not in (2, 3):
        raise ValueError(f"joint coverage is implemented for r = 2 or 3, got {r}")
    subsets = [s for k in range(r + 1) for s in itertools.combinations(range(r), k)]
    # Integer weights: each draw contributes (m_i)_k (n - m_i)_(r-k) for the
    # subset it covers; dividing by ((n)_r)^T at the end gives probabilities.
    states: dict[tuple[int, ...], int] = {(0,) * r: 1}
    for m_i in m:
        weights = [falling(m_i, len(s)) * falling(n - m_i, r - len(s)) for s in subsets]
        nxt: dict[tuple[int, ...], int] = {}
        for state, w in states.items():
            for subset, f in zip(subsets, weights):
                if f == 0:
                    continue
                key = list(state)
                for j in subset:
                    key[j] += 1
                key = tuple(key)
                nxt[key] = nxt.get(key, 0) + w * f
        states = nxt
    den = falling(n, r) ** len(m)
    return {state: Fraction(w, den) for state, w in states.items()}


def norm(n: int, m: Sequence[int], spec: Sequence[Iterable[int] | int]) -> Fraction:
    """``||(B_1, ..., B_r)||`` for r = 1, 2 or 3 slots; an int slot is {p}."""
    m = tuple(m)
    sets = [frozenset((s,)) if isinstance(s, int) else frozenset(s) for s in spec]
    r = len(sets)
    if r == 1:
        pmf = coverage_pmf(n, m)
        return n * sum((pmf[c] for c in sets[0]), Fraction(0))
    joint = joint_coverage(n, m, r)
    prob = sum(
        (q for state, q in joint.items() if all(c in b for c, b in zip(state, sets))),
        Fraction(0),
    )
    return falling(n, r) * prob


def threshold_set(T: int, t: int, at_least: bool) -> frozenset[int]:
    """Coverage counts that make an element count: {t} or {t, ..., T}."""
    return frozenset(range(t, T + 1)) if at_least else frozenset((t,))


def factorial_moment(n: int, m: Sequence[int], sizes: Iterable[int], order: int) -> Fraction:
    """E[(X)_order] for X = number of elements whose count lies in ``sizes``."""
    sizes = frozenset(sizes)
    return norm(n, m, [sizes] * order)


def margin(n: int, m: Sequence[int], p: Sequence[int]) -> tuple[Fraction, Fraction, Fraction]:
    """Both sides of the product-vs-joint inequality and their difference."""
    lhs = Fraction(1)
    for p_j in p:
        lhs *= norm(n, m, [p_j])
    rhs = norm(n, m, list(p))
    return lhs, rhs, lhs - rhs


def proximity_vectors(T: int, r: int) -> int:
    """#{p in {0..T}^r : max(p) - min(p) <= 1}."""
    # T + 1 constant vectors, plus for each a < T the vectors over {a, a+1}
    # that use both values.
    return (T + 1) + T * (2**r - 2)


def grid_size(n_values: Iterable[int], T_values: Iterable[int], r_values: Iterable[int]) -> int:
    """Points of a mixed-m, proximity-p sweep: sum of (n-1)^T * #p."""
    T_values, r_values = tuple(T_values), tuple(r_values)
    return sum(
        (n - 1) ** T * proximity_vectors(T, r)
        for n in n_values
        for T in T_values
        for r in r_values
    )
