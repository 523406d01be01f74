import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from entitled_cuts.errors import InternalCheckFailed, TargetExceedsRemainder
from entitled_cuts.model import (
    Allocation,
    Instance,
    Interval,
    Region,
    Valuation,
    boundary_points,
    format_rational,
    measure_of,
    parse_rational,
)

from conftest import pw, reference_cumulative, reference_mark, run_optimized


rationals = st.fractions(min_value=0, max_value=1, max_denominator=12)


def region(*pairs):
    return Region([Interval(F(a), F(b)) for a, b in pairs])


@st.composite
def plateau_valuations(draw):
    """Up to six cells, many of them of zero density, with positive total."""
    inner = draw(st.sets(st.fractions(min_value=0, max_value=1, max_denominator=12), max_size=5))
    bps = (F(0), *sorted(inner - {F(0), F(1)}), F(1))
    dens = draw(st.lists(st.sampled_from([F(0), F(0), F(1), F(2), F(1, 3), F(5, 2)]),
                         min_size=len(bps) - 1, max_size=len(bps) - 1).filter(any))
    return Valuation(bps, tuple(dens))


@st.composite
def big_rationals(draw, max_value=1):
    """p/q in [0, max_value] with q up to 10^12, so that two draws are
    co-prime more often than not."""
    q = draw(st.integers(min_value=1, max_value=10**12))
    return F(draw(st.integers(min_value=0, max_value=max_value * q)), q)


@st.composite
def large_denominator_valuations(draw):
    """Up to eight cells whose breakpoints and densities have denominators
    up to 10^12, with runs of zero-density cells, and positive total."""
    inner = draw(st.sets(big_rationals(), max_size=7))
    bps = (F(0), *sorted(inner - {F(0), F(1)}), F(1))
    dens = draw(st.lists(st.one_of(st.just(F(0)), big_rationals(max_value=10**6)),
                         min_size=len(bps) - 1, max_size=len(bps) - 1).filter(any))
    return Valuation(bps, tuple(dens))


class TestRationalStrings:
    @pytest.mark.parametrize("text,value", [
        ("1/3", F(1, 3)), ("2", F(2)), ("-3/4", F(-3, 4)), ("0", F(0)),
    ])
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("bad", [
        "1.5", "1e3", "nan", "1/0", "", "1/2/3", "0x10",
        " 7/2 ", "1_0", " 3 / 4", "+1", "1/-2", "7/2\n", "\u0663",
    ])
    def test_rejects_floats_and_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_rejects_non_strings(self):
        with pytest.raises(ValueError):
            parse_rational(0.5)

    @given(st.fractions(max_denominator=1000))
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestRegion:
    def test_merges_adjacent_and_overlapping(self):
        assert region((0, F(1, 4)), (F(1, 4), F(1, 2))) == region((0, F(1, 2)))
        assert region((0, F(1, 2)), (F(1, 4), F(3, 4))) == region((0, F(3, 4)))

    def test_drops_degenerate_and_sorts(self):
        r = region((F(1, 2), F(1, 2)), (F(3, 4), 1), (0, F(1, 4)))
        assert r.intervals == (Interval(F(0), F(1, 4)), Interval(F(3, 4), F(1)))

    def test_interval_bounds_validated(self):
        with pytest.raises(ValueError):
            Interval(F(1, 2), F(1, 4))
        with pytest.raises(ValueError):
            Interval(F(-1, 4), F(1, 2))

    def test_set_algebra(self):
        a = region((0, F(1, 2)))
        b = region((F(1, 4), F(3, 4)))
        assert a.intersect(b) == region((F(1, 4), F(1, 2)))
        assert a.difference(b) == region((0, F(1, 4)))
        assert Region(a.intervals + b.intervals) == region((0, F(3, 4)))
        assert a.difference(a) == Region()

    @given(st.lists(st.tuples(rationals, rationals), max_size=6))
    def test_canonicalization_idempotent(self, raw):
        r = Region([Interval(min(a, b), max(a, b)) for a, b in raw])
        assert Region(r.intervals) == r

    @given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=5),
           st.lists(st.tuples(rationals, rationals), min_size=1, max_size=5))
    def test_difference_disjoint_from_subtrahend(self, raw_a, raw_b):
        a = Region([Interval(min(x, y), max(x, y)) for x, y in raw_a])
        b = Region([Interval(min(x, y), max(x, y)) for x, y in raw_b])
        diff = a.difference(b)
        assert diff.intersect(b) == Region()
        assert Region(diff.intervals + a.intersect(b).intervals) == a


class TestMeasure:
    def test_total_of_uniform(self, uniform):
        assert measure_of(uniform, region((0, 1))) == 1

    def test_empty_region(self, uniform):
        assert measure_of(uniform, Region()) == 0

    def test_step_density(self):
        v = pw("0 1/2 1", "2 0")
        assert measure_of(v, region((F(1, 4), F(3, 4)))) == F(1, 2)

    @given(rationals, rationals, rationals, rationals)
    def test_additive_over_disjoint_regions(self, a, b, c, d):
        v = pw("0 1/3 2/3 1", "3 0 1")
        r1 = Region([Interval(min(a, b), max(a, b))])
        r2 = Region([Interval(min(c, d), max(c, d))]).difference(r1)
        assert measure_of(v, Region(r1.intervals + r2.intervals)) == measure_of(v, r1) + measure_of(v, r2)

    def test_matches_reference_scan_on_plateaus(self):
        # seeded valuations with runs of zero-density cells; regions of up to
        # five intervals whose ends fall on breakpoints (0 and 1 among them)
        # or between, with repeated ends making touching intervals merge
        rng = random.Random(3003)
        for trial in range(200):
            v = seeded_plateau_valuation(rng)
            points = [*v.breakpoints, *(F(rng.randint(0, 128), 128) for _ in range(4))]
            ends = sorted(rng.choice(points) for _ in range(2 * rng.randint(1, 5)))
            r = Region([Interval(a, b) for a, b in zip(ends[::2], ends[1::2])])
            expected = sum((reference_cumulative(v, iv.hi) - reference_cumulative(v, iv.lo)
                            for iv in r.intervals), F(0))
            assert measure_of(v, r) == expected, trial
            assert measure_of(v, region((0, 1))) == reference_cumulative(v, F(1)), trial

    def test_valuation_validation(self):
        with pytest.raises(ValueError):
            Valuation((F(0), F(1)), (F(-1),))
        with pytest.raises(ValueError):
            Valuation((F(0), F(1)), (F(0),))  # zero total
        with pytest.raises(ValueError):
            Valuation((F(0), F(1, 2), F(1, 2), F(1)), (F(1), F(1), F(1)))
        with pytest.raises(ValueError):
            Valuation((F(1, 4), F(1)), (F(1),))  # must start at 0
        with pytest.raises(ValueError, match="at least one cell"):
            Valuation((F(0),), ())

    def test_valuation_spans_the_cake(self):
        with pytest.raises(ValueError, match="last breakpoint must be 1"):
            Valuation((F(0), F(1, 2)), (F(1),))
        with pytest.raises(ValueError, match="last breakpoint must be 1"):
            Valuation((F(0), F(1), F(2)), (F(1), F(1)))
        with pytest.raises(TypeError):
            Valuation((0.0, 1.0), (1.0,))  # floats forbidden


def mark_from(valuation, start, target):
    """The mark where the value from ``start`` reaches ``target > 0``,
    through ``marks`` at the goal: the scan's value at start plus target."""
    (mark,) = valuation.marks((reference_cumulative(valuation, start) + target,))
    return mark


def equal_share_marks(valuation, parts):
    """The marks of ``parts`` pieces of equal value, from one ``marks``
    call over the goals total * p / parts."""
    return valuation.marks(valuation.total * p / parts for p in range(1, parts))


def seeded_plateau_valuation(rng):
    """Up to 13 cells over denominator 64, most of them of zero density."""
    inner = {F(rng.randint(1, 63), 64) for _ in range(rng.randint(0, 12))}
    bps = (F(0), *sorted(inner), F(1))
    dens = [F(rng.choice((0, 0, 0, 1, 2, 7)), rng.randint(1, 5)) for _ in bps[1:]]
    if not any(dens):
        dens[rng.randrange(len(dens))] = F(1)
    return Valuation(bps, tuple(dens))


class TestMarkRight:
    """Single goals: the mark where the running value from a start reaches
    a target, checked against the linear cell scan."""

    def test_uniform_third(self, uniform):
        assert mark_from(uniform, F(0), F(1, 3)) == F(1, 3)

    def test_steep_then_flat(self):
        assert mark_from(pw("0 1/2 1", "2 0"), F(0), F(1, 2)) == F(1, 4)

    def test_leftmost_on_zero_plateau(self):
        # the running value is 1/2 all along [1/4, 1/2]: the mark is its
        # left end, from a start before the plateau or on it
        v = pw("0 1/4 1/2 1", "2 0 1")
        assert v.marks((F(1, 2),)) == [F(1, 4)]
        assert mark_from(v, F(1, 8), F(1, 4)) == F(1, 4)

    def test_target_beyond_remainder(self, uniform):
        with pytest.raises(TargetExceedsRemainder):
            mark_from(uniform, F(1, 2), F(3, 4))

    def test_goal_not_ascending_or_not_positive(self, uniform):
        for goals in ((F(0),), (F(-1, 2),), (F(1, 2), F(1, 3)), (F(1, 3), F(0))):
            with pytest.raises(ValueError, match="not positive or below an earlier goal"):
                uniform.marks(goals)
        assert uniform.marks((F(1, 3), F(1, 3))) == [F(1, 3), F(1, 3)]

    def test_scan_running_out_is_an_internal_check(self):
        # a corrupted prefix table claims more value than the cells hold, so
        # the total check passes and the mark lands past its cell: a bug,
        # which the CLI reports with exit 2, not a traceback
        v = Valuation((F(0), F(1)), (F(1),))
        object.__setattr__(v, "_prefix", (F(0), F(2)))
        with pytest.raises(InternalCheckFailed, match="unreachable"):
            v.marks((F(3, 2),))

    def test_internal_check_survives_optimize_flag(self, tmp_path):
        script = """
            import sys
            from fractions import Fraction
            from entitled_cuts.errors import InternalCheckFailed
            from entitled_cuts.model import Valuation

            print("optimize", sys.flags.optimize)
            v = Valuation((0, 1), (1,))
            object.__setattr__(v, "_prefix", (Fraction(0), Fraction(2)))
            try:
                v.marks((Fraction(3, 2),))
            except InternalCheckFailed:
                print("raised InternalCheckFailed")
        """
        assert run_optimized(script, tmp_path) == ["optimize", "1", "raised", "InternalCheckFailed"]

    def test_matches_reference_scan_on_plateaus(self):
        # every start on a breakpoint or inside a cell, zero-density cells at
        # both ends and in the middle included; targets a third and all of
        # the remainder
        v = pw("0 1/4 1/2 5/8 3/4 1", "0 2 0 1 0")
        bps = v.breakpoints
        starts = sorted({*bps, *((a + b) / 2 for a, b in zip(bps, bps[1:]))})
        for start in starts:
            remainder = v.total - reference_cumulative(v, start)
            if remainder:
                for target in (remainder / 3, remainder):
                    assert mark_from(v, start, target) == reference_mark(v, start, target)
        # the whole value is reached where the last positive cell ends, not
        # at the end of the plateau after it
        assert v.marks((v.total,)) == [F(3, 4)] == [reference_mark(v, F(0), v.total)]

    @given(plateau_valuations(), st.data())
    def test_matches_reference_scan(self, v, data):
        bps = v.breakpoints
        mids = [(a + b) / 2 for a, b in zip(bps, bps[1:])]
        start = data.draw(st.one_of(st.sampled_from(bps), st.sampled_from(mids),
                                    st.just(F(1)), rationals))
        remainder = v.total - reference_cumulative(v, start)
        frac = data.draw(st.one_of(st.just(F(1)), rationals))
        target = frac * remainder
        if target:
            assert mark_from(v, start, target) == reference_mark(v, start, target)

    @given(st.fractions(min_value=0, max_value=1, max_denominator=8),
           st.fractions(min_value=0, max_value=1, max_denominator=8))
    def test_mark_inverse(self, start, frac):
        v = pw("0 1/4 1/2 1", "1 0 2")
        target = frac * (v.total - reference_cumulative(v, start))
        if target:
            mark = mark_from(v, start, target)
            assert reference_cumulative(v, mark) - reference_cumulative(v, start) == target


class TestEqualMarks:
    """Runs of ascending goals from one ``marks`` call."""

    def test_uniform_thirds(self, uniform):
        assert equal_share_marks(uniform, 3) == [F(1, 3), F(2, 3)]

    def test_steep_halves(self):
        assert equal_share_marks(pw("0 1/2 1", "2 0"), 2) == [F(1, 4)]

    def test_single_part_has_no_marks(self, uniform):
        assert equal_share_marks(uniform, 1) == []

    @given(st.integers(min_value=1, max_value=9))
    def test_consecutive_parts_equal(self, parts):
        v = pw("0 1/5 2/5 1", "2 0 1")
        marks = [F(0)] + equal_share_marks(v, parts) + [F(1)]
        share = v.total / parts
        for lo, hi in zip(marks, marks[1:]):
            assert reference_cumulative(v, hi) - reference_cumulative(v, lo) == share

    def test_matches_marks_from_zero(self):
        # the one pass from cell to cell gives exactly the reference scan's
        # marks from 0, on seeded valuations with runs of zero-density cells
        rng = random.Random(3001)
        for trial in range(200):
            v = seeded_plateau_valuation(rng)
            for parts in (1, 2, 3, rng.randint(4, 40)):
                expected = [reference_mark(v, F(0), v.total * j / parts) for j in range(1, parts)]
                assert equal_share_marks(v, parts) == expected, (trial, parts)

    @given(plateau_valuations(), st.lists(rationals, max_size=8))
    def test_ascending_goals_match_reference_scan(self, v, fracs):
        # repeats, goals on a prefix value, and the total included
        goals = sorted(frac * v.total for frac in fracs if frac)
        assert v.marks(goals) == [reference_mark(v, F(0), goal) for goal in goals]

    def test_float_goal_is_rejected(self):
        with pytest.raises(TypeError, match="expected an exact rational, got float"):
            pw("0 1/2 1", "1 3").marks([0.3])

    def test_int_goals(self):
        assert pw("0 1/2 1", "1 3").marks([1, 2]) == [F(2, 3), F(1)]

    def test_mark_outside_its_cell_is_an_internal_check(self):
        # a corrupted prefix table puts the 3/4 mark past the cake's end
        v = Valuation((F(0), F(1)), (F(1),))
        object.__setattr__(v, "_prefix", (F(0), F(2)))
        with pytest.raises(InternalCheckFailed, match="unreachable"):
            equal_share_marks(v, 4)


class TestCumulatives:
    def test_matches_cumulative_per_point(self):
        # against the linear cell scan, on seeded valuations with runs of
        # zero-density cells; the points are ascending with repeats, and
        # include 0, 1, every breakpoint, and the edges of a sub-cake
        # component as a cell table lists them
        rng = random.Random(3002)
        for trial in range(200):
            v = seeded_plateau_valuation(rng)
            bps = v.breakpoints
            drawn = [F(rng.randint(0, 128), 128) for _ in range(rng.randint(0, 20))]
            points = sorted([*drawn, *drawn[:3], *bps, F(0), F(1)])
            assert v.cumulatives(points) == [reference_cumulative(v, x) for x in points], trial
            lo, hi = sorted((F(rng.randint(0, 127), 128), F(rng.randint(1, 128), 128)))
            edges = [lo, *(b for b in bps if lo < b < hi), hi]
            assert v.cumulatives(edges) == [reference_cumulative(v, x) for x in edges], trial

    @given(large_denominator_valuations(), st.data())
    def test_matches_reference_at_large_denominators(self, v, data):
        # breakpoints and densities over co-prime denominators up to 10^12;
        # ascending points inside cells and on breakpoints, repeats, and the
        # ints 0 and 1
        drawn = data.draw(st.lists(st.one_of(big_rationals(), st.sampled_from(v.breakpoints)),
                                   max_size=10))
        points = sorted([*drawn, *drawn[:2]])
        if data.draw(st.booleans()):
            points.insert(0, 0)
        if data.draw(st.booleans()):
            points.append(1)
        values = v.cumulatives(points)
        assert values == [reference_cumulative(v, F(x)) for x in points]
        assert all(type(value) is F for value in values)

    def test_no_points(self, uniform):
        assert uniform.cumulatives([]) == []

    def test_int_points(self):
        values = pw("0 1/2 1", "1 3").cumulatives([0, 0, F(1, 4), 1, 1])
        assert values == [F(0), F(0), F(1, 4), F(2), F(2)]
        assert all(type(value) is F for value in values)

    def test_float_point_is_rejected(self):
        v = pw("0 1/2 1", "1 3")
        for points in ([0.25, 0.75], [F(1, 4), 0.75]):
            with pytest.raises(TypeError, match="expected an exact rational, got float"):
                v.cumulatives(points)

    @pytest.mark.parametrize("points", [[F(-1, 2)], [F(3, 2)], [F(1, 2), F(1, 4)],
                                        [F(1, 2), F(2, 5)]])
    def test_points_outside_the_cake_or_out_of_order(self, points):
        v = pw("0 1/3 1", "0 3")
        with pytest.raises(ValueError, match="outside \\[0, 1\\] or below an earlier point"):
            v.cumulatives(points)


class TestCutCount:
    def test_whole_cake_is_free(self):
        assert boundary_points(Allocation((region((0, 1)),))) == ()

    def test_single_boundary(self):
        halves = Allocation((region((0, F(1, 2))), region((F(1, 2), 1))))
        assert boundary_points(halves) == (F(1, 2),)

    def test_interleaved_pieces(self):
        a = region((0, F(1, 4)), (F(1, 2), F(3, 4)))
        b = region((F(1, 4), F(1, 2)), (F(3, 4), 1))
        assert boundary_points(Allocation((a, b))) == (F(1, 4), F(1, 2), F(3, 4))

    @given(st.lists(rationals, min_size=0, max_size=6))
    def test_equals_refinement_intervals_minus_one(self, cuts):
        points = sorted(set(cuts) - {F(0), F(1)})
        edges = [F(0)] + points + [F(1)]
        pieces = [region((lo, hi)) for lo, hi in zip(edges, edges[1:])]
        allocation = Allocation(tuple(pieces))
        assert boundary_points(allocation) == tuple(points)


class TestInstance:
    def test_needs_one_valuation_per_entitlement(self, uniform):
        with pytest.raises(ValueError, match="at least one agent"):
            Instance((), ())
        with pytest.raises(ValueError, match="one entitlement per valuation"):
            Instance((uniform, uniform), (F(1),))
        with pytest.raises(ValueError, match="one entitlement per valuation"):
            Instance((uniform,), (F(1, 2), F(1, 2)))

    def test_entitlements_must_sum_to_one(self, uniform):
        with pytest.raises(ValueError):
            Instance((uniform, uniform), (F(1), F(1)))

    def test_entitlements_must_be_positive(self, uniform):
        with pytest.raises(ValueError):
            Instance((uniform, uniform), (F(0), F(1)))
