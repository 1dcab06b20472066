from fractions import Fraction

import pytest

from occukit.core import Params
from occukit.errors import DegenerateDenominatorError
from occukit.moments import (
    TailMode,
    delta_ev_bound_check,
    moment_report,
    raw_moment,
    threshold_sizes,
)
from occukit.oracle import compare_report, exhaustive_pmf, monte_carlo

P53 = Params(5, (2, 3))


def test_tail_mode_parsing():
    assert TailMode.from_string("exact") is TailMode.EXACTLY
    assert TailMode.from_string("atleast") is TailMode.AT_LEAST
    with pytest.raises(ValueError):
        TailMode.from_string("between")


def test_threshold_sizes():
    assert threshold_sizes(3, 2, TailMode.EXACTLY) == frozenset({2})
    assert threshold_sizes(3, 2, TailMode.AT_LEAST) == frozenset({2, 3})
    # at t = T the two modes request the same singleton window
    assert threshold_sizes(3, 3, TailMode.AT_LEAST) == threshold_sizes(
        3, 3, TailMode.EXACTLY
    )
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            threshold_sizes(3, bad, TailMode.EXACTLY)


@pytest.mark.parametrize("mode", ["exact", "atleast", None, 1], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda mode: raw_moment(P53, 1, mode, 1),
        lambda mode: moment_report(P53, 1, mode),
        lambda mode: exhaustive_pmf(P53, 1, mode),
        lambda mode: monte_carlo(P53, 1, mode, 10, 0),
        lambda mode: compare_report(P53, 1, mode),
    ],
    ids=["raw_moment", "moment_report", "exhaustive_pmf", "monte_carlo",
         "compare_report"],
)
def test_mode_must_be_a_tail_mode(call, mode):
    # "exact" used to be read as at-least: raw_moment gave 19/5, not 13/5
    with pytest.raises(TypeError, match="TailMode"):
        call(mode)


def test_raw_moment_values():
    assert raw_moment(P53, 2, TailMode.AT_LEAST, 1) == Fraction(6, 5)
    assert raw_moment(P53, 1, TailMode.EXACTLY, 2) == Fraction(41, 5)
    assert raw_moment(P53, 2, TailMode.AT_LEAST, 2) == Fraction(9, 5)


def test_raw_moment_rejects_bad_arguments():
    with pytest.raises(ValueError):
        raw_moment(P53, 0, TailMode.EXACTLY, 1)
    with pytest.raises(ValueError):
        raw_moment(P53, 3, TailMode.EXACTLY, 1)
    with pytest.raises(ValueError):
        raw_moment(P53, 1, TailMode.EXACTLY, 0)


def test_raw_moment_order_beyond_population_is_degenerate():
    with pytest.raises(DegenerateDenominatorError):
        raw_moment(Params(2, (1, 1)), 1, TailMode.EXACTLY, 3)
    # a single draw does not rescue the degenerate top term
    with pytest.raises(DegenerateDenominatorError):
        raw_moment(Params(1, (1,)), 1, TailMode.EXACTLY, 2)


def test_moment_report_values():
    report = moment_report(P53, 1, TailMode.EXACTLY)
    assert report.mean == Fraction(13, 5)
    assert report.variance == Fraction(36, 25)
    assert report.delta_ev == Fraction(29, 25)
    report = moment_report(P53, 2, TailMode.AT_LEAST)
    assert report.mean == Fraction(6, 5)
    assert report.variance == Fraction(9, 25)


def test_moment_report_consistency_fields():
    report = moment_report(P53, 1, TailMode.AT_LEAST, max_order=4)
    assert len(report.raw_moments) == 4
    assert report.raw_moments[0] == report.mean
    assert report.variance == report.raw_moments[1] - report.mean**2
    assert report.delta_ev == report.mean - report.variance


def test_moment_report_single_draw_is_deterministic():
    for n, m1 in ((4, 2), (6, 6), (3, 1)):
        report = moment_report(Params(n, (m1,)), 1, TailMode.EXACTLY)
        assert report.mean == m1
        assert report.variance == 0
        assert report.delta_ev == m1


def test_moment_report_needs_second_order():
    with pytest.raises(ValueError):
        moment_report(P53, 1, TailMode.EXACTLY, max_order=1)


def test_delta_bound_examples():
    verdict = delta_ev_bound_check(moment_report(P53, 1, TailMode.EXACTLY))
    assert verdict.holds_positive and verdict.holds_upper
    verdict = delta_ev_bound_check(moment_report(P53, 2, TailMode.AT_LEAST))
    assert verdict.holds_positive and verdict.holds_upper
    # degenerate single-draw case: variance 0, gap equals the mean
    verdict = delta_ev_bound_check(
        moment_report(Params(6, (4,)), 1, TailMode.EXACTLY)
    )
    assert verdict.holds_positive


def test_delta_bound_rejects_zero_mean():
    # every element is covered twice, so "exactly once" never happens
    report = moment_report(Params(2, (2, 2)), 1, TailMode.EXACTLY)
    assert report.mean == 0
    with pytest.raises(ValueError):
        delta_ev_bound_check(report)


def test_tail_mode_coherence():
    # E(x at least t) telescopes over the exact occupancy classes.
    for params in (P53, Params(4, (1, 2, 3)), Params(6, (2, 2, 5))):
        for t in range(1, params.T + 1):
            lhs = raw_moment(params, t, TailMode.AT_LEAST, 1)
            rhs = sum(
                (
                    raw_moment(params, u, TailMode.EXACTLY, 1)
                    for u in range(t, params.T + 1)
                ),
                Fraction(0),
            )
            assert lhs == rhs


def test_tail_mean_monotone_in_threshold():
    for params in (P53, Params(6, (2, 3, 4))):
        means = [
            raw_moment(params, t, TailMode.AT_LEAST, 1)
            for t in range(1, params.T + 1)
        ]
        assert all(a >= b for a, b in zip(means, means[1:]))


def test_factorial_moments_match_oracle():
    # The i-slot norm is the i-th falling factorial moment of the count.
    from occukit.combinat import falling_factorial
    from occukit.core import SizeSpec, occupancy_norm
    from occukit.moments import threshold_sizes as window

    for params in (P53, Params(4, (1, 3)), Params(6, (2, 2, 3))):
        for t in range(1, params.T + 1):
            for mode in TailMode:
                pmf = exhaustive_pmf(params, t, mode)
                for i in range(1, 4):
                    if i > params.n:
                        continue
                    norm = occupancy_norm(
                        params, SizeSpec.repeated(window(params.T, t, mode), i)
                    )
                    oracle = sum(
                        (
                            q * falling_factorial(x, i)
                            for x, q in pmf.probabilities.items()
                        ),
                        Fraction(0),
                    )
                    assert norm == oracle


@pytest.mark.parametrize(
    "params",
    [
        Params(8, (3, 4, 4)),
        Params(6, (2, 3, 5, 1)),
        Params(7, (7, 2)),
        Params(9, (3, 3, 4)),
    ],
)
def test_factorial_moments_match_oracle_up_to_r_equals_n(params):
    # The i-slot norm against the literal pmf's i-th factorial moment, for
    # every i up to n: i identical slots of one window.
    from occukit.combinat import falling_factorial
    from occukit.core import SizeSpec, occupancy_norm

    for t in range(1, params.T + 1):
        for mode in TailMode:
            probabilities = exhaustive_pmf(params, t, mode).probabilities
            sizes = threshold_sizes(params.T, t, mode)
            for i in range(1, params.n + 1):
                norm = occupancy_norm(params, SizeSpec.repeated(sizes, i))
                terms = (q * falling_factorial(x, i) for x, q in probabilities.items())
                assert norm == sum(terms, Fraction(0)), (params, t, mode, i)
