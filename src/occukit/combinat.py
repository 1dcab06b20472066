"""Integer combinatorics primitives: falling factorials, binomials,
Stirling numbers of the second kind, and canonical subset enumeration.

Everything here is exact; all values are plain Python integers.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator


def falling_factorial(x: int, r: int) -> int:
    """x(x-1)...(x-r+1), with the empty product 1 for r = 0."""
    if r < 0:
        raise ValueError(f"falling factorial needs r >= 0, got {r}")
    out = 1
    for j in range(r):
        out *= x - j
    return out


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k exceeds n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial needs non-negative arguments, got ({n}, {k})")
    return math.comb(n, k)


@lru_cache(maxsize=None)
def _stirling2_row(v: int) -> tuple[int, ...]:
    row = [1]  # S(0, 0); each pass turns S(u - 1, .) into S(u, 0..u)
    for u in range(1, v + 1):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, u)] + [1]
    return tuple(row)


def stirling2(v: int, i: int) -> int:
    """Stirling number of the second kind S(v, i): the number of ways to
    partition v labelled items into i non-empty blocks.

    Computed by the recurrence S(v, i) = i*S(v-1, i) + S(v-1, i-1).
    """
    if i < 1 or i > v:
        raise ValueError(f"stirling2 needs 1 <= i <= v, got v={v}, i={i}")
    return _stirling2_row(v)[i]


def iter_k_subsets(universe: int, size: int) -> Iterator[tuple[int, ...]]:
    """Yield every size-`size` subset of {1, ..., universe} exactly once.

    Subsets come out as ascending tuples in colexicographic order (sorted by
    largest element, then recursively), which keeps every downstream
    enumeration deterministic and reproducible.
    """
    if universe < 0:
        raise ValueError(f"universe size must be non-negative, got {universe}")
    if size < 0 or size > universe:
        raise ValueError(f"subset size {size} out of range [0, {universe}]")
    # Raise the lowest element that can rise, and reset those below it.
    c = list(range(1, size + 1)) + [universe + 1]
    while True:
        yield tuple(c[:size])
        j = 0
        while j < size and c[j] + 1 == c[j + 1]:
            j += 1
        if j == size:
            return
        c[: j + 1] = [*range(1, j + 1), c[j] + 1]
