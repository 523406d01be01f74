import random
from fractions import Fraction as F

import pytest

from entitled_cuts.errors import BudgetExceeded, EmptySubcake
from entitled_cuts.generate import random_valuation
from entitled_cuts.model import FULL_CAKE, Interval, Region, measure_of
from entitled_cuts.split import (
    SplitRequest,
    enumeration_size,
    exact_split,
    flatten,
    pie_arc_count,
)

from conftest import pw, run_optimized


def region(*pairs):
    return Region([Interval(F(a), F(b)) for a, b in pairs])


class TestFlatten:
    def test_identity_on_full_cake(self, uniform):
        length, vals, fmap = flatten(FULL_CAKE, [uniform])
        assert length == 1
        assert vals[0] == uniform
        assert fmap.to_original(F(1, 3)) == F(1, 3)

    def test_concatenation_arithmetic(self, uniform):
        sub = region((0, F(1, 4)), (F(1, 2), F(3, 4)))
        length, _, fmap = flatten(sub, [uniform])
        assert length == F(1, 2)
        assert fmap.to_original(F(3, 8)) == F(5, 8)

    def test_translation(self, uniform):
        length, _, fmap = flatten(region((F(1, 3), F(2, 3))), [uniform])
        assert length == F(1, 3)
        assert fmap.to_original(F(0)) == F(1, 3)

    def test_empty_subcake_rejected(self, uniform):
        with pytest.raises(EmptySubcake):
            flatten(Region(), [uniform])

    def test_measures_preserved_cell_by_cell(self):
        v = pw("0 1/4 1/2 3/4 1", "4 0 2 1")
        sub = region((F(1, 8), F(3, 8)), (F(5, 8), 1))
        length, (flat,), fmap = flatten(sub, [v])
        assert flat.total == measure_of(v, sub)
        assert length == sub.length
        # round trip a flat region through the map
        piece = region((F(1, 16), F(1, 4)))
        lifted = fmap.lift_region(piece)
        assert measure_of(v, lifted) == flat.value_between(F(1, 16), F(1, 4))
        assert lifted.length == piece.length


class TestExactSplit:
    def test_single_agent_takes_prefix(self, uniform):
        res = exact_split(SplitRequest((uniform,), FULL_CAKE, F(1, 2)))
        assert res.part == region((0, F(1, 2)))
        assert res.complement == region((F(1, 2), 1))

    def test_two_agent_consensus_half(self, uniform):
        skewed = pw("0 1/2 1", "2 0")
        res = exact_split(SplitRequest((uniform, skewed), FULL_CAKE, F(1, 2)))
        assert res.part == region((F(1, 4), F(3, 4)))
        assert measure_of(uniform, res.part) == F(1, 2)
        assert measure_of(skewed, res.part) == F(1, 2)

    def test_determinism(self, uniform):
        req = SplitRequest((uniform, pw("0 1/3 1", "2 1")), FULL_CAKE, F(2, 5))
        assert exact_split(req) == exact_split(req)

    def test_ratio_must_be_interior(self, uniform):
        with pytest.raises(ValueError):
            SplitRequest((uniform,), FULL_CAKE, F(1))
        with pytest.raises(ValueError):
            SplitRequest((uniform,), FULL_CAKE, F(0))

    def test_budget_guard(self, uniform):
        req = SplitRequest((uniform, pw("0 1/3 2/3 1", "1 2 3")), FULL_CAKE, F(1, 2))
        with pytest.raises(BudgetExceeded):
            exact_split(req, budget=1)
        assert enumeration_size(3, 2) > 1

    def test_subcake_split_is_exact_for_everyone(self, uniform):
        skewed = pw("0 1/2 1", "2 0")
        sub = region((0, F(1, 4)), (F(1, 2), 1))
        res = exact_split(SplitRequest((uniform, skewed), sub, F(1, 2)))
        assert res.part.union(res.complement) == sub
        for v in (uniform, skewed):
            assert measure_of(v, res.part) * 2 == measure_of(v, sub)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_requests_split_exactly(self, n):
        rng = random.Random(97 * n)
        for trial in range(6):
            vals = tuple(random_valuation(rng, 3 if n <= 3 else 2, 8) for _ in range(n))
            ratio = F(rng.randint(1, 7), 8)
            res = exact_split(SplitRequest(vals, FULL_CAKE, ratio))
            for v in vals:
                assert measure_of(v, res.part) == ratio * v.total
                assert measure_of(v, res.complement) == (1 - ratio) * v.total
            if n >= 2:
                assert pie_arc_count(res.part) <= n - 1

    def test_wrap_part_counts_as_one_arc(self):
        # the part that hugs both endpoints is a single arc on the pie
        assert pie_arc_count(region((0, F(1, 8)), (F(7, 8), 1))) == 1
        assert pie_arc_count(region((0, F(1, 8)), (F(1, 2), F(5, 8)))) == 2

    def test_wrapping_two_arc_split_assembles_correctly(self):
        # regression: with two arcs and the origin inside the part, the
        # middle arc spans (x2, x3), not (x3, x4)
        vals = (
            pw("0 3/4 1", "2 3/8"),
            pw("0 1/6 1", "3/5 5/2"),
            pw("0 5/6 1", "0 5/4"),
            pw("0 1/2 1", "2/3 1/5"),
        )
        res = exact_split(SplitRequest(vals, FULL_CAKE, F(1, 4)))
        for v in vals:
            assert measure_of(v, res.part) * 4 == v.total
        assert pie_arc_count(res.part) <= 3


class TestPostConditions:
    def test_checks_survive_optimize_flag(self, tmp_path):
        # under -O every assert is compiled away; the exactness check must
        # still raise in a child interpreter run that way
        script = """
            import sys
            from fractions import Fraction
            import entitled_cuts.split as split
            from entitled_cuts.errors import InternalCheckFailed
            from entitled_cuts.model import FULL_CAKE, Valuation

            print("optimize", sys.flags.optimize)
            real = split.measure_of
            split.measure_of = lambda v, r: real(v, r) + Fraction(1, 10**12)
            skewed = Valuation((Fraction(0), Fraction(1, 2), Fraction(1)),
                               (Fraction(2), Fraction(0)))
            try:
                split.exact_split(split.SplitRequest(
                    (Valuation.uniform(), skewed), FULL_CAKE, Fraction(1, 2)))
            except InternalCheckFailed:
                print("raised InternalCheckFailed")
        """
        assert run_optimized(script, tmp_path) == ["optimize", "1", "raised", "InternalCheckFailed"]
