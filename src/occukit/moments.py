"""Exact raw moments of the occupancy counts, and the mean-variance gap.

For a threshold ``t`` the random variable of interest is the number of
population elements covered by exactly ``t`` draws (mode ``EXACTLY``) or by
at least ``t`` draws (mode ``AT_LEAST``). Every raw moment collapses to a
Stirling-weighted sum of norms:

    E(x^v) = sum over i = 1..v of  S(v, i) * ||(s, s, ..., s)||   (i slots)

where ``s`` is the singleton size ``{t}`` or the size window ``{t, ..., T}``
and ``S(v, i)`` is a Stirling number of the second kind. Equivalently, the
i-th falling factorial moment ``E[(x)_i]`` equals the norm with ``i``
identical slots; the Stirling sum is just the usual change of basis from
falling powers to raw powers.

The mean-variance gap ``delta_ev = E(x) - Var(x)`` equals
``(E(x))^2 - ||s^2||``; the inequality lab shows it is non-negative and, via
``delta_ev / E <= 2 E``, vanishes faster than the mean as the mean goes to 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .combinat import stirling2
from .core import Params, SizeSpec, _as_index, occupancy_norm


class TailMode(enum.Enum):
    """Whether occupancy counts are matched exactly or as a lower bound."""

    EXACTLY = "exact"
    AT_LEAST = "atleast"

    @classmethod
    def from_string(cls, value: str) -> "TailMode":
        for mode in cls:
            if mode.value == value:
                return mode
        raise ValueError(
            f"unknown tail mode {value!r}; expected one of "
            + ", ".join(repr(m.value) for m in cls)
        )


def threshold_sizes(T: int, t: int, mode: TailMode) -> frozenset[int]:
    """Admissible pattern sizes for threshold ``t``: {t} or {t, ..., T}.

    ``mode`` must be a :class:`TailMode`; anything else (such as the string
    ``"exact"``) raises ``TypeError`` rather than being read as at-least.
    """
    if not isinstance(mode, TailMode):
        raise TypeError(f"mode must be a TailMode, got {mode!r}")
    t = _as_index(t, "threshold t", 1, T)
    if mode is TailMode.EXACTLY:
        return frozenset((t,))
    return frozenset(range(t, T + 1))


def raw_moment(params: Params, t: int, mode: TailMode, order: int) -> Fraction:
    """E(x^order) for the occupancy count at threshold ``t``.

    Requires ``order <= n``: the top term needs a norm with ``order`` slots,
    which is undefined beyond the population size
    (:class:`~occukit.errors.DegenerateDenominatorError` propagates).
    """
    order = _as_index(order, "moment order", 1)
    sizes = threshold_sizes(params.T, t, mode)
    total = Fraction(0)
    for i in range(1, order + 1):
        total += stirling2(order, i) * occupancy_norm(
            params, SizeSpec.repeated(sizes, i)
        )
    return total


@dataclass(frozen=True, slots=True)
class MomentReport:
    """Raw moments plus mean, variance, and mean-variance gap for one
    (instance, threshold, mode)."""

    params: Params
    t: int
    mode: TailMode
    raw_moments: tuple[Fraction, ...]  # index v-1 holds E(x^v)
    mean: Fraction
    variance: Fraction
    delta_ev: Fraction


def moment_report(
    params: Params, t: int, mode: TailMode, max_order: int = 2
) -> MomentReport:
    """Raw moments for v = 1..max_order plus the derived summary values.

    ``max_order`` must be at least 2 so the variance is defined.
    """
    max_order = _as_index(max_order, "max_order", 2)
    raw = tuple(raw_moment(params, t, mode, v) for v in range(1, max_order + 1))
    mean = raw[0]
    variance = raw[1] - mean * mean
    return MomentReport(
        params=params,
        t=t,
        mode=mode,
        raw_moments=raw,
        mean=mean,
        variance=variance,
        delta_ev=mean - variance,
    )


class DeltaBoundVerdict(NamedTuple):
    holds_positive: bool  # delta_ev > 0
    holds_upper: bool  # delta_ev <= 2 * mean^2


def delta_ev_bound_check(report: MomentReport) -> DeltaBoundVerdict:
    """Check the two sides of the mean-variance gap bound exactly.

    ``holds_positive`` is ``delta_ev > 0``; ``holds_upper`` is the bound
    ``delta_ev / mean <= 2 * mean``, compared without the division as
    ``delta_ev <= 2 * mean^2``. A zero mean leaves the ratio undefined and is
    rejected.
    """
    if report.mean == 0:
        raise ValueError("delta_ev bound is undefined for mean 0")
    return DeltaBoundVerdict(
        holds_positive=report.delta_ev > 0,
        holds_upper=report.delta_ev <= 2 * report.mean * report.mean,
    )
