import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from occukit.core import Params, SizeSpec, power_weight, weight_sum_table
from occukit.errors import DegenerateDenominatorError
from occukit.inequality import (
    GridSpec,
    ProximityClass,
    audit_induction_step,
    check_inequality,
    classify_sizes,
    factorization_identity_check,
    full_size_reduction,
    grid_search,
    induction_profile,
    induction_ratios,
    minimal_admissible_n,
    near_full_size_reduction,
    summarize_sweep,
)
from occukit.moments import TailMode, raw_moment
from occukit.oracle import exhaustive_pmf
from occukit.render import approx_str


# --- classification ---------------------------------------------------------


@pytest.mark.parametrize(
    "p,expected",
    [
        ((2, 2), ProximityClass.CONSERVATIVE),
        ((1, 2), ProximityClass.CONSERVATIVE),
        ((0, 2), ProximityClass.UNCONSTRAINED),  # r=2: relaxed bound is still 1
        ((0, 1, 2), ProximityClass.UNCONSTRAINED),  # r=3 likewise
        ((0, 2, 2, 1), ProximityClass.RELAXED),  # r=4 admits spread 2
        ((0, 3, 3, 3), ProximityClass.UNCONSTRAINED),
        ((0, 1, 2, 3, 3), ProximityClass.RELAXED),  # r=5: bound 3
        ((4,), ProximityClass.CONSERVATIVE),
        ((), ProximityClass.CONSERVATIVE),
    ],
)
def test_classify_sizes(p, expected):
    assert classify_sizes(p) is expected


# --- single checks ----------------------------------------------------------


def test_check_inequality_examples():
    v = check_inequality(Params(10, (3, 4)), (2, 2))
    assert (v.lhs, v.rhs, v.holds) == (Fraction(36, 25), Fraction(4, 5), True)
    v = check_inequality(Params(5, (2, 3)), (1, 1))
    assert v.lhs == Fraction(169, 25)
    assert v.rhs == Fraction(28, 5)
    assert v.margin == Fraction(29, 25)
    v = check_inequality(Params(2, (1, 1)), (2, 2))
    assert v.rhs == 0 and v.holds


def test_check_inequality_reports_violations():
    # Outside both spread classes the domination can fail; the check reports
    # it as an ordinary verdict instead of raising.
    v = check_inequality(Params(3, (1, 2)), (0, 2))
    assert v.margin == Fraction(-2, 9)
    assert not v.holds
    assert v.proximity is ProximityClass.UNCONSTRAINED


def test_check_inequality_validation():
    with pytest.raises(ValueError):
        check_inequality(Params(5, (2, 3)), (3, 0))
    with pytest.raises(DegenerateDenominatorError):
        check_inequality(Params(2, (1, 1)), (1, 1, 1))


def test_check_inequality_symmetries():
    # Both sides depend only on the multisets of m and p, which is what lets
    # sweeps share one exact computation per symmetry class.
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(2, 8)
        T = rng.randint(1, 4)
        m = tuple(rng.randint(1, n) for _ in range(T))
        p = tuple(rng.randint(0, T) for _ in range(2))
        base = check_inequality(Params(n, m), p)
        for m_perm in itertools.permutations(m):
            for p_perm in itertools.permutations(p):
                other = check_inequality(Params(n, m_perm), p_perm)
                assert (other.lhs, other.rhs) == (base.lhs, base.rhs)


def test_factorization_identity_examples():
    assert factorization_identity_check(Params(5, (2, 3)), (1, 1))
    assert factorization_identity_check(Params(5, (2, 3)), (2,))  # r = 1
    assert factorization_identity_check(Params(7, (2, 3, 5)), (1, 2))


def test_factorization_identity_random():
    rng = random.Random(4242)
    for _ in range(40):
        n = rng.randint(2, 9)
        T = rng.randint(1, 6)
        m = tuple(rng.randint(1, n) for _ in range(T))
        r = rng.randint(1, 3)
        p = tuple(rng.randint(0, T) for _ in range(r))
        assert factorization_identity_check(Params(n, m), p)


# --- grid sweeps ------------------------------------------------------------


def _tiny_grid(**overrides):
    base = dict(
        n_values=(3, 4), T_values=(1, 2), r_values=(2,),
        m_policy="mixed", p_policy="proximity",
    )
    base.update(overrides)
    return GridSpec(**base)


def test_grid_search_deterministic_order():
    first = list(grid_search(_tiny_grid()))
    second = list(grid_search(_tiny_grid()))
    assert first == second
    assert len(first) > 0


@pytest.mark.parametrize(
    "grid",
    [
        _tiny_grid(),
        # T up to 4, so the table walks share and truncate longer prefixes
        GridSpec((3, 4), (3, 4), (1, 3)),
        GridSpec((3,), (1, 2, 3), (2, 3), p_policy="all", include_full_m=True),
        GridSpec((2, 3, 4), (1, 2, 3, 4), (1, 2), m_policy="uniform",
                 p_policy="all", include_full_m=True),
    ],
    ids=["tiny", "deep", "full-m", "uniform-full-m"],
)
def test_grid_search_matches_direct_checks(grid):
    # check_inequality goes through weight_sum_dp, not the table walks.
    for verdict in grid_search(grid):
        direct = check_inequality(verdict.params, verdict.p)
        assert direct == verdict


def test_grid_search_p_policy_and_violation_reporting():
    grid = _tiny_grid(n_values=(3,), T_values=(2,), p_policy="all")
    everything = list(grid_search(grid))
    conservative = list(grid_search(dataclasses.replace(grid, p_policy="proximity")))
    assert {v.proximity for v in everything} == {
        ProximityClass.CONSERVATIVE,
        ProximityClass.UNCONSTRAINED,
    }
    assert all(v.proximity is ProximityClass.CONSERVATIVE for v in conservative)
    assert len(conservative) < len(everything)
    # the known violating point is emitted, labelled, and not suppressed
    bad = [v for v in everything if not v.holds]
    assert any(
        v.params.m == (1, 2) and v.p in ((0, 2), (2, 0)) for v in bad
    )
    summary = summarize_sweep(iter(everything))
    assert summary.total == len(everything)
    assert summary.violation_count == len(bad)
    assert summary.holds_count + summary.violation_count == summary.total
    assert summary.min_margin < 0
    assert summary.first_violations


@pytest.mark.parametrize(
    "p_policy,classes",
    [
        ("proximity", {ProximityClass.CONSERVATIVE}),
        ("relaxed", {ProximityClass.CONSERVATIVE, ProximityClass.RELAXED}),
    ],
    ids=["proximity", "relaxed"],
)
def test_p_policy_streams_the_classes_of_all(p_policy, classes):
    # The policy is the sweep's class filter: the narrower stream is the
    # wider one with the other classes left out, in the same order.
    grid = GridSpec((4, 5), (1, 2), (2, 4), p_policy="all")
    everything = list(grid_search(grid))
    assert {v.proximity for v in everything} == set(ProximityClass)
    narrow = list(grid_search(dataclasses.replace(grid, p_policy=p_policy)))
    assert narrow == [v for v in everything if v.proximity in classes]


def test_grid_search_uniform_and_all_equal_policies():
    grid = GridSpec(
        n_values=range(3, 9), T_values=range(1, 5), r_values=(2,),
        m_policy="uniform", p_policy="all-equal",
    )
    summary = summarize_sweep(grid_search(grid))
    assert summary.violation_count == 0
    # n-2 uniform sizes per n; T+1 equal-size vectors per T
    expected = sum(
        (n - 1) * (T + 1) for n in range(3, 9) for T in range(1, 5)
    )
    assert summary.total == expected


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(n_values=(), T_values=(1,), r_values=(2,))
    with pytest.raises(ValueError):
        GridSpec(n_values=(2,), T_values=(1,), r_values=(3,))  # r > n
    with pytest.raises(ValueError):
        GridSpec(n_values=(3,), T_values=(1,), r_values=(2,), m_policy="odd")
    with pytest.raises(ValueError):
        GridSpec(n_values=(3,), T_values=(1,), r_values=(2,), p_policy="odd")
    with pytest.raises(ValueError):
        GridSpec(n_values=(1,), T_values=(1,), r_values=(1,))
    for repeated in [((3, 3), (2,), (2,)), ((3,), (1, 2, 1), (2,)),
                     ((4,), (2,), (2, 3, 2))]:
        with pytest.raises(ValueError, match="repeats"):
            GridSpec(*repeated)


@pytest.mark.parametrize(
    "call",
    [
        lambda: GridSpec((3.9,), (2,), (1,)),
        lambda: GridSpec((3,), (2.5,), (1,)),
        lambda: GridSpec((3,), (2,), (True,)),
        lambda: check_inequality(Params(5, (2, 3)), (1.9, 1)),
        lambda: check_inequality(Params(5, (2, 3)), (1, True)),
        lambda: factorization_identity_check(Params(5, (2, 3)), (1.0, 1)),
        lambda: audit_induction_step(3, (2.7,)),
        lambda: audit_induction_step(3, (2,), (0.5,)),
        lambda: audit_induction_step(3, (2,), (0,), extra_n=(13.0,)),
        lambda: induction_profile(True),
        lambda: GridSpec((3,), (1,), (2,), include_full_m="no"),
        lambda: exhaustive_pmf(Params(5, (2, 3)), True, TailMode.EXACTLY),
        lambda: exhaustive_pmf(Params(5, (2, 3)), 1, TailMode.EXACTLY, budget=10.5),
        lambda: raw_moment(Params(5, (2, 3)), 1, TailMode.EXACTLY, True),
        lambda: weight_sum_table(Params(5, (2, 3)), True),
        lambda: power_weight(Params(5, (2, 3)), {1}, True),
        lambda: SizeSpec.repeated(1, True),
        lambda: approx_str(Fraction(1, 3), digits=True),
    ],
)
def test_entry_points_reject_non_integers(call):
    # A truncated 5.9 would give a different, valid-looking exact answer.
    with pytest.raises(TypeError):
        call()


def _summary_fields(s):
    return (
        s.total, s.holds_count, s.violation_count,
        list(s.by_class.items()), list(s.violations_by_class.items()),
        s.min_margin, s.min_margin_at, s.first_violations,
    )


@pytest.mark.parametrize(
    "grid",
    [
        GridSpec((3, 4, 5), (1, 2, 3), (2, 3)),
        GridSpec((4, 5), (1, 2, 3), (2, 3, 4)),
        GridSpec((4, 5), (1, 2, 3), (2, 3, 4), p_policy="relaxed"),
        GridSpec((3, 4), (1, 2, 3), (2, 3), p_policy="relaxed", include_full_m=True),
        GridSpec((3, 4, 5, 6), (1, 2, 3, 4), (2, 3), m_policy="uniform",
                 p_policy="all-equal"),
        GridSpec((3, 4), (1, 2, 3), (1, 2, 3), p_policy="all"),
        GridSpec((3, 4), (1, 2, 3), (2, 3), p_policy="all", include_full_m=True),
        GridSpec((2, 3), (1, 2, 3, 4), (1, 2), m_policy="uniform",
                 p_policy="all", include_full_m=True),
    ],
    ids=["proximity", "proximity-r4", "relaxed", "relaxed-full-m",
         "uniform-all-equal", "all", "all-full-m", "uniform-all-full-m"],
)
def test_class_level_summary_matches_point_fold(grid):
    by_class = summarize_sweep(grid_search(grid))
    by_point = summarize_sweep(iter(list(grid_search(grid))))
    assert _summary_fields(by_class) == _summary_fields(by_point)
    # Both folds read the table walks; check_inequality does not.
    n, m, p = by_class.min_margin_at
    assert by_class.min_margin == check_inequality(Params(n, m), p).margin


def test_class_level_summary_records_violations_in_grid_order():
    # More than ten violations spread over several blocks.
    grid = GridSpec((3, 4), (1, 2, 3), (2, 3), p_policy="all")
    points = list(grid_search(grid))
    summary = summarize_sweep(grid_search(grid))
    bad = [v for v in points if not v.holds]
    assert len(bad) > 10 and summary.violation_count == len(bad)
    assert summary.first_violations == bad[:10]
    assert sum(summary.violations_by_class.values()) == len(bad)


def test_started_sweep_summarizes_its_remaining_points():
    grid = GridSpec((3, 4), (1, 2, 3), (2, 3), p_policy="all")
    sweep = grid_search(grid)
    first = next(sweep)
    rest = summarize_sweep(sweep)
    points = list(grid_search(grid))
    assert first == points[0]
    assert _summary_fields(rest) == _summary_fields(summarize_sweep(iter(points[1:])))
    assert list(sweep) == []


def test_class_level_summary_consumes_the_sweep():
    sweep = grid_search(_tiny_grid())
    summarize_sweep(sweep)
    assert list(sweep) == []


def test_grid_search_margin_matches_canonical_class():
    # Every verdict in one symmetry class carries the same exact margin.
    grid = _tiny_grid(n_values=(5,), T_values=(3,))
    by_class = {}
    for verdict in grid_search(grid):
        key = (tuple(sorted(verdict.params.m)), tuple(sorted(verdict.p)))
        by_class.setdefault(key, set()).add(verdict.margin)
    assert all(len(margins) == 1 for margins in by_class.values())


# --- closed-form reductions -------------------------------------------------


def test_full_size_reduction_examples():
    result = full_size_reduction(Params(10, (3, 4)))
    assert result.lhs == Fraction(9, 10)
    assert result.rhs == Fraction(1, 2)
    assert result.holds
    # single draw: exponent T-1 = 0 on the left
    result = full_size_reduction(Params(2, (2,)))
    assert result.lhs == 1 and result.rhs == Fraction(1, 2) and result.holds
    with pytest.raises(ValueError):
        full_size_reduction(Params(1, (1,)))


def test_full_size_reduction_agrees_with_general_check():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 9)
        T = rng.randint(1, 4)
        m = tuple(rng.randint(1, n) for _ in range(T))
        params = Params(n, m)
        reduced = full_size_reduction(params)
        general = check_inequality(params, (params.T, params.T))
        assert reduced.holds == general.holds


def test_near_full_size_reduction_examples():
    assert near_full_size_reduction(10, 4, 3).holds
    # minimal populations from the induction analysis
    for m in range(2, 8):
        for T in range(2, 6):
            assert near_full_size_reduction(m + 1, m, T).holds
        assert near_full_size_reduction(m + 2, m, 1).holds


def test_near_full_size_reduction_agrees_with_general_check():
    for n in range(3, 9):
        for m in range(2, n):
            for T in range(1, 5):
                if T == 1 and n == m + 1:
                    continue
                reduced = near_full_size_reduction(n, m, T)
                general = check_inequality(Params(n, (m,) * T), (T - 1, T - 1))
                assert reduced.holds == general.holds, (n, m, T)


def test_full_size_margin_grows_with_population():
    # At p = (T, T) with uniform draws the general check keeps holding as n
    # grows, and the reduction's margin (its left side minus its constant
    # right side) is strictly increasing in n.
    for m, T in ((2, 2), (3, 3), (4, 2), (5, 4)):
        reduced_margins = []
        for n in range(m + 1, m + 8):
            params = Params(n, (m,) * T)
            assert check_inequality(params, (T, T)).holds
            reduced = full_size_reduction(params)
            reduced_margins.append(reduced.lhs - reduced.rhs)
        assert all(b > a for a, b in zip(reduced_margins, reduced_margins[1:]))
        assert all(q >= 0 for q in reduced_margins)


def test_near_full_size_reduction_validation():
    with pytest.raises(ValueError):
        near_full_size_reduction(5, 1, 2)  # m < 2
    with pytest.raises(ValueError):
        near_full_size_reduction(4, 4, 2)  # m = n
    with pytest.raises(ValueError):
        near_full_size_reduction(3, 2, 1)  # T=1 with n = m+1
    with pytest.raises(ValueError):
        near_full_size_reduction(6, 3, 0)


# --- induction audit --------------------------------------------------------


def test_minimal_admissible_n():
    assert minimal_admissible_n(2, 2) == 3
    assert minimal_admissible_n(2, 1) == 4
    with pytest.raises(ValueError):
        minimal_admissible_n(1, 2)
    with pytest.raises(ValueError):
        minimal_admissible_n(2, 0)


def test_induction_ratio_examples():
    lhs, rhs = induction_ratios(2, 2, 3)
    assert (lhs, rhs) == (Fraction(3, 2), Fraction(1, 1)) and lhs >= rhs
    lhs, rhs = induction_ratios(3, 1, 5)
    assert (lhs, rhs) == (Fraction(16, 5), Fraction(8, 3)) and lhs >= rhs
    lhs, rhs = induction_ratios(4, 5, 20)
    assert lhs >= rhs
    with pytest.raises(ValueError):
        induction_ratios(2, 1, 3)  # below minimal admissible n


def test_induction_profile_values():
    assert induction_profile(2) == Fraction(9, 8)
    assert induction_profile(3) == Fraction(32, 27)
    assert induction_profile(1) == 0
    profile = [induction_profile(T) for T in range(2, 60)]
    assert all(q > 1 for q in profile)
    assert max(profile) == Fraction(32, 27)  # peak at T = 3
    tail = profile[1:]
    assert all(a > b for a, b in zip(tail, tail[1:]))  # decreasing from T = 3
    # closed form: 1 + 1/T - 1/T^2 - 1/T^3
    for T in range(2, 20):
        expanded = 1 + Fraction(1, T) - Fraction(1, T**2) - Fraction(1, T**3)
        assert induction_profile(T) == expanded


def test_minimal_population_rows_match_profile():
    # At n = m+1 (T >= 2) the ratio comparison is exactly the profile
    # against 1 - 1/m^2.
    for m in range(2, 12):
        for T in range(2, 12):
            lhs, rhs = induction_ratios(m, T, m + 1)
            expected = induction_profile(T) >= 1 - Fraction(1, m * m)
            assert (lhs >= rhs) == expected
    # At T = 1, n = m+2 it is the quadratic from cross-multiplication.
    for m in range(2, 12):
        lhs, rhs = induction_ratios(m, 1, m + 2)
        expected = 4 * m * (m + 1) >= (3 * m - 1) * (m + 2)
        assert (lhs >= rhs) == expected


def test_audit_induction_step():
    audit = audit_induction_step(3, range(1, 6))
    assert audit.all_ok
    assert audit.lhs_monotone_in_n
    assert audit.rhs_monotone_in_n
    assert {row.T for row in audit.rows} == set(range(1, 6))
    # explicit extra populations are sampled too
    audit = audit_induction_step(3, (2,), n_offsets=(0,), extra_n=(13,))
    assert [row.n for row in audit.rows] == [4, 13]
    with pytest.raises(ValueError):
        audit_induction_step(3, (2,), n_offsets=(0,), extra_n=(3,))
    with pytest.raises(ValueError):
        audit_induction_step(3, ())
