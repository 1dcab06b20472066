"""Semantic exceptions shared across the package."""

from __future__ import annotations

import math


class OccupancyError(Exception):
    """Base class for domain errors raised by occukit."""


class DegenerateDenominatorError(OccupancyError):
    """A normalized quantity is undefined because its denominator vanishes.

    Raised when a norm (or a moment built from norms) would divide by a
    falling factorial that is zero, i.e. when more slots are requested than
    the population can host distinctly.
    """


class BudgetExceededError(OccupancyError):
    """Exhaustive enumeration would visit more draw tuples than allowed."""

    def __init__(self, tuple_count: int, budget: int):
        self.tuple_count = tuple_count
        self.budget = budget
        count = tuple_count
        if count >= 10**20:  # Python prints no int of more than 4300 digits
            log = math.log10(count)
            mantissa, carry = f"{10 ** (log % 1):.5e}".split("e")
            count = f"about {mantissa}e+{int(log) + int(carry)}"
        super().__init__(
            f"exhaustive enumeration needs {count} draw tuples, budget is {budget}"
        )
