import random
from fractions import Fraction as F
from math import lcm

import pytest

from entitled_cuts.errors import InternalCheckFailed, PieceNotConnected, PreconditionViolated
from entitled_cuts.generate import random_instance, random_valuation
from entitled_cuts.model import (
    Instance,
    Interval,
    Region,
    Valuation,
    cut_count,
    measure_of,
)
from entitled_cuts.protocols import (
    auto_solve,
    clone_divide,
    connected_proportional,
    cut_and_choose,
    near_equal_divide,
    recursive_divide,
    special3_equal_pair,
    special3_half,
    upper_bound_cuts,
)
from entitled_cuts.verifier import verify_allocation

from conftest import make_instance, pw, run_optimized


def region(*pairs):
    return Region([Interval(F(a), F(b)) for a, b in pairs])


def assert_proportional(instance, allocation, exact=False):
    for i in range(instance.n):
        value = measure_of(instance.valuations[i], allocation.pieces[i])
        threshold = instance.entitlements[i] * instance.valuations[i].total
        if exact:
            assert value == threshold, f"agent {i}: {value} != {threshold}"
        else:
            assert value >= threshold, f"agent {i}: {value} < {threshold}"


def test_upper_bound_sequence():
    assert [upper_bound_cuts(n) for n in range(1, 6)] == [0, 2, 6, 10, 16]


def test_upper_bound_rejects_nonpositive():
    with pytest.raises(ValueError):
        upper_bound_cuts(0)


class TestRecursiveDivide:
    def test_single_agent_gets_everything(self, uniform):
        report = recursive_divide(make_instance([uniform], [1]))
        assert report.allocation.pieces[0] == region((0, 1))
        assert report.cuts == ()

    def test_two_uniform_agents_one_third(self, uniform):
        inst = make_instance([uniform, uniform], ["1/3", "2/3"])
        report = recursive_divide(inst)
        assert report.allocation.pieces[0] == region((0, F(1, 3)))
        assert report.allocation.pieces[1] == region((F(1, 3), 1))
        assert report.cuts == (F(1, 3),)
        assert len(report.cuts) <= report.bound == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exactly_proportional_within_bound(self, n):
        for seed in range(8):
            inst = random_instance(n, 1000 * n + seed, max_cells=3 if n <= 3 else 2)
            report = recursive_divide(inst)
            assert_proportional(inst, report.allocation, exact=True)
            assert len(report.cuts) <= upper_bound_cuts(n)
            assert verify_allocation(inst, report.allocation).passed

    def test_pie_topology_handled_identically(self, uniform):
        as_pie = Instance("pie", (uniform, uniform), (F(1, 3), F(2, 3)))
        report = recursive_divide(as_pie)
        assert_proportional(as_pie, report.allocation, exact=True)
        assert verify_allocation(as_pie, report.allocation).passed

    def test_scale_invariance(self):
        inst = random_instance(3, 4242)
        scaled_vals = list(inst.valuations)
        v = scaled_vals[1]
        scaled_vals[1] = Valuation(v.breakpoints, tuple(d * 7 for d in v.densities))
        scaled = Instance(inst.topology, tuple(scaled_vals), inst.entitlements)
        assert recursive_divide(inst).allocation == recursive_divide(scaled).allocation


def test_scale_invariance_across_protocols():
    # multiplying one agent's density by a positive constant changes nothing:
    # every decision in every protocol depends on value ratios only
    rng = random.Random(64)
    runners = {
        "recursive": recursive_divide,
        "clone": clone_divide,
        "special3-half": special3_half,
        "special3-equal-pair": special3_equal_pair,
        "near-equal": near_equal_divide,
    }
    entitlements = {
        "recursive": (F(1, 5), F(3, 10), F(1, 2)),
        "clone": (F(1, 5), F(3, 10), F(1, 2)),
        "special3-half": (F(1, 2), F(1, 5), F(3, 10)),
        "special3-equal-pair": (F(2, 5), F(2, 5), F(1, 5)),
        "near-equal": (F(1, 5), F(1, 5), F(3, 5)),
    }
    for name, runner in runners.items():
        vals = tuple(random_valuation(rng, 3, 8) for _ in range(3))
        inst = Instance("interval", vals, entitlements[name])
        scaled_vals = list(vals)
        scaled_vals[2] = Valuation(
            vals[2].breakpoints, tuple(d * 9 for d in vals[2].densities)
        )
        scaled = Instance("interval", tuple(scaled_vals), entitlements[name])
        assert runner(inst).allocation == runner(scaled).allocation, name


class TestConnectedProportional:
    def test_single_agent(self, uniform):
        alloc = connected_proportional([uniform], Interval(F(0), F(1)))
        assert alloc.pieces[0] == region((0, 1))

    def test_identical_uniform_quarters(self, uniform):
        alloc = connected_proportional([uniform] * 4, Interval(F(0), F(1)))
        assert [p.intervals[0] for p in alloc.pieces] == [
            Interval(F(0), F(1, 4)), Interval(F(1, 4), F(1, 2)),
            Interval(F(1, 2), F(3, 4)), Interval(F(3, 4), F(1)),
        ]

    def test_two_agents_lower_mark_wins(self, uniform):
        eager = pw("0 1/2 1", "2 0")  # marks 1/4; uniform marks 1/2
        alloc = connected_proportional([uniform, eager], Interval(F(0), F(1)))
        assert alloc.pieces[1] == region((0, F(1, 4)))
        assert alloc.pieces[0] == region((F(1, 4), 1))
        assert measure_of(eager, alloc.pieces[1]) == F(1, 2)
        assert measure_of(uniform, alloc.pieces[0]) == F(3, 4)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_each_gets_connected_fair_share(self, n):
        rng = random.Random(n * 11)
        vals = [random_valuation(rng, 3, 8) for _ in range(n)]
        alloc = connected_proportional(vals, Interval(F(0), F(1)))
        assert cut_count(alloc) <= n - 1
        for v, piece in zip(vals, alloc.pieces):
            assert len(piece.intervals) == 1
            assert measure_of(v, piece) * n >= v.total

    def test_identical_agents_get_equal_own_value(self):
        v = pw("0 1/4 1", "3 1")
        alloc = connected_proportional([v] * 3, Interval(F(0), F(1)))
        values = [measure_of(v, piece) for piece in alloc.pieces]
        assert len(set(values)) == 1


class TestCloneDivide:
    def test_two_fifths_three_fifths(self, uniform):
        inst = make_instance([uniform, uniform], ["2/5", "3/5"])
        report = clone_divide(inst)
        assert report.allocation.pieces[0] == region((0, F(2, 5)))
        assert report.allocation.pieces[1] == region((F(2, 5), 1))
        assert report.cuts == (F(2, 5),)
        assert report.bound == 4

    def test_equal_halves(self, uniform):
        report = clone_divide(make_instance([uniform, uniform], ["1/2", "1/2"]))
        assert report.cuts == (F(1, 2),)

    def test_never_exceeds_denominator_bound(self):
        for seed in range(12):
            inst = random_instance(3, 7000 + seed)
            denominator = lcm(*(t.denominator for t in inst.entitlements))
            report = clone_divide(inst)
            assert len(report.cuts) <= denominator - 1
            assert_proportional(inst, report.allocation)
            assert verify_allocation(inst, report.allocation).passed


class TestCutAndChoose:
    def test_tie_gives_chooser_the_left(self, uniform):
        owner_part, chooser_part = cut_and_choose(uniform, uniform, region((0, 1)))
        assert chooser_part == region((0, F(1, 2)))
        assert owner_part == region((F(1, 2), 1))

    def test_chooser_grabs_its_concentrated_half(self, uniform):
        chooser = pw("0 1/2 1", "2 0")
        owner_part, chooser_part = cut_and_choose(uniform, chooser, region((0, 1)))
        assert chooser_part == region((0, F(1, 2)))
        assert measure_of(chooser, chooser_part) == 1

    def test_owner_mark_respects_own_density(self, uniform):
        owner = pw("0 1/2 1", "2 0")
        owner_part, chooser_part = cut_and_choose(owner, uniform, region((0, 1)))
        assert owner_part == region((0, F(1, 4)))
        assert chooser_part == region((F(1, 4), 1))
        assert measure_of(uniform, chooser_part) == F(3, 4)

    def test_disconnected_piece_rejected(self, uniform):
        with pytest.raises(PieceNotConnected):
            cut_and_choose(uniform, uniform, region((0, F(1, 4)), (F(1, 2), 1)))


class TestSpecial3Half:
    def test_uniform_quarters(self, uniform):
        inst = make_instance([uniform] * 3, ["1/2", "1/4", "1/4"])
        report = special3_half(inst)
        assert len(report.cuts) <= 4
        assert_proportional(inst, report.allocation)

    def test_chooser_found_at_any_position(self, uniform):
        inst = make_instance([uniform] * 3, ["1/4", "1/2", "1/4"])
        report = special3_half(inst)
        assert_proportional(inst, report.allocation)
        assert len(report.cuts) <= 4

    def test_canonical_trace(self, uniform):
        inst = make_instance([uniform] * 3, ["1/2", "1/3", "1/6"])
        report = special3_half(inst)
        assert report.allocation.pieces[0] == region((0, F(1, 3)), (F(2, 3), F(5, 6)))
        assert report.allocation.pieces[1] == region((F(1, 3), F(2, 3)))
        assert report.allocation.pieces[2] == region((F(5, 6), 1))
        assert report.cuts == (F(1, 3), F(2, 3), F(5, 6))

    def test_requires_a_half_entitlement(self, uniform):
        with pytest.raises(PreconditionViolated):
            special3_half(make_instance([uniform] * 3, ["1/3", "1/3", "1/3"]))

    def test_random_qualifying_instances(self):
        rng = random.Random(31337)
        for trial in range(10):
            vals = tuple(random_valuation(rng, 3, 8) for _ in range(3))
            q = rng.randint(3, 9)
            p = rng.randint(1, q - 1)
            inst = Instance("interval", vals, (F(1, 2), F(p, 2 * q), F(q - p, 2 * q)))
            report = special3_half(inst)
            assert len(report.cuts) <= 4
            assert_proportional(inst, report.allocation)
            assert verify_allocation(inst, report.allocation).passed

    def test_disconnected_stage_piece_stays_within_four_cuts(self, uniform):
        # the two-agent stage can hand an agent a two-interval piece; sharing
        # it with the chooser must still cost one cut, not one per interval
        mid = pw("0 1/3 2/3 1", "0 3 0")
        inst = Instance(
            "interval", (uniform, uniform, mid), (F(1, 2), F(1, 5), F(3, 10))
        )
        report = special3_half(inst)
        assert len(report.cuts) <= 4
        assert_proportional(inst, report.allocation)
        assert verify_allocation(inst, report.allocation).passed

    def test_zero_value_interval_in_piece_is_harmless(self, uniform):
        # an agent's piece may contain an interval worth nothing to them; the
        # single running-value mark is still well defined
        v2 = pw("0 1/2 1", "3/8 5/7")
        v3 = pw("0 1 ", "3/7")
        inst = Instance("interval", (uniform, v2, v3), (F(1, 2), F(1, 14), F(3, 7)))
        report = special3_half(inst)
        assert len(report.cuts) <= 4
        assert_proportional(inst, report.allocation)

    def test_halving_check_survives_optimize_flag(self, tmp_path):
        # an owner measure that triples every piece pushes half the piece past
        # its running value; under -O this must still raise, not fall through
        # to Region arithmetic on a missing cut point
        script = """
            import sys
            import entitled_cuts.protocols as protocols
            from entitled_cuts.errors import InternalCheckFailed
            from entitled_cuts.model import FULL_CAKE, Valuation

            print("optimize", sys.flags.optimize)
            real = protocols.measure_of
            protocols.measure_of = lambda v, r: 3 * real(v, r)
            try:
                protocols._halve_region_with_choice(
                    Valuation.uniform(), Valuation.uniform(), FULL_CAKE)
            except InternalCheckFailed:
                print("raised InternalCheckFailed")
        """
        assert run_optimized(script, tmp_path) == ["optimize", "1", "raised", "InternalCheckFailed"]


class TestSpecial3EqualPair:
    def test_uniform_thirds_trace(self, uniform):
        inst = make_instance([uniform] * 3, ["1/3", "1/3", "1/3"])
        report = special3_equal_pair(inst)
        assert report.allocation.pieces[0] == region((0, F(1, 3)))
        assert report.allocation.pieces[1] == region((F(1, 3), F(2, 3)))
        assert report.allocation.pieces[2] == region((F(2, 3), 1))
        assert report.cuts == (F(1, 3), F(2, 3))

    def test_requires_equal_pair(self, uniform):
        with pytest.raises(PreconditionViolated):
            special3_equal_pair(make_instance([uniform] * 3, ["1/2", "1/3", "1/6"]))

    def test_pigeonhole_check_raises(self, monkeypatch, uniform):
        # every window worth a whole cake more than it is breaks the bound
        import entitled_cuts.protocols as protocols_mod

        real = protocols_mod.measure_of
        monkeypatch.setattr(protocols_mod, "measure_of", lambda v, r: real(v, r) + 1)
        with pytest.raises(InternalCheckFailed):
            special3_equal_pair(make_instance([uniform] * 3, ["1/3", "1/3", "1/3"]))

    def test_window_goes_to_second_when_first_values_it_high(self, uniform):
        # agent 2 (second of the pair) hoards the window that agent 3 shuns
        hoarder = pw("0 1/3 1", "3 0")
        shunner = pw("0 1/3 1", "0 3/2")
        inst = Instance("interval", (uniform, hoarder, shunner), (F(1, 3), F(1, 3), F(1, 3)))
        report = special3_equal_pair(inst)
        assert len(report.cuts) <= 4
        assert_proportional(inst, report.allocation)

    def test_random_qualifying_instances(self):
        rng = random.Random(2718)
        for trial in range(10):
            vals = tuple(random_valuation(rng, 3, 8) for _ in range(3))
            d = rng.randint(3, 9)
            b = rng.randint(1, (d - 1) // 2)
            pair = F(b, d)
            inst = Instance("interval", vals, (pair, pair, 1 - 2 * pair))
            report = special3_equal_pair(inst)
            assert len(report.cuts) <= 4
            assert_proportional(inst, report.allocation)
            assert verify_allocation(inst, report.allocation).passed

    def test_pigeonhole_window(self):
        # the odd agent's chosen window is worth at most B/D of their total
        rng = random.Random(5)
        from entitled_cuts.model import equal_marks
        from entitled_cuts.protocols import _window_region

        for trial in range(20):
            marker = random_valuation(rng, 3, 8)
            odd = random_valuation(rng, 3, 8)
            d = rng.randint(2, 9)
            b = rng.randint(1, d - 1)
            edges = [F(0)] + equal_marks(marker, d) + [F(1)]
            best = min(measure_of(odd, _window_region(edges, s, b)) for s in range(d))
            assert best * d <= b * odd.total


class TestNearEqualDivide:
    def test_quarter_quarter_half(self, uniform):
        inst = make_instance([uniform] * 3, ["1/4", "1/4", "1/2"])
        report = near_equal_divide(inst)
        assert len(report.cuts) <= 4
        assert_proportional(inst, report.allocation)

    def test_two_equal_agents(self, uniform):
        report = near_equal_divide(make_instance([uniform, uniform], ["1/2", "1/2"]))
        assert report.cuts == (F(1, 2),)

    def test_rejects_non_matching_pattern(self, uniform):
        with pytest.raises(PreconditionViolated):
            near_equal_divide(make_instance([uniform, uniform], ["2/5", "3/5"]))

    @pytest.mark.parametrize("n,d", [(2, 3), (3, 4), (3, 7), (4, 5), (4, 9)])
    def test_cut_bound_over_random_valuations(self, n, d):
        rng = random.Random(100 * n + d)
        for trial in range(5):
            vals = tuple(random_valuation(rng, 3, 8) for _ in range(n))
            entitlements = (F(1, d),) * (n - 1) + (F(d - n + 1, d),)
            inst = Instance("interval", vals, entitlements)
            report = near_equal_divide(inst)
            assert len(report.cuts) <= 2 * (n - 1)
            assert_proportional(inst, report.allocation)
            assert verify_allocation(inst, report.allocation).passed

    def test_heavy_agent_in_the_middle(self, uniform):
        inst = make_instance([uniform] * 3, ["1/4", "1/2", "1/4"])
        report = near_equal_divide(inst)
        assert len(report.cuts) <= 4
        assert_proportional(inst, report.allocation)


class TestAutoSolve:
    def test_near_equal_wins_dispatch(self, uniform):
        inst = make_instance([uniform] * 3, ["1/2", "1/4", "1/4"])
        assert auto_solve(inst).algorithm == "near-equal"

    def test_special3_half_dispatch(self, uniform):
        inst = make_instance([uniform] * 3, ["1/2", "1/3", "1/6"])
        assert auto_solve(inst).algorithm == "special3-half"

    def test_special3_pair_dispatch(self, uniform):
        inst = make_instance([uniform] * 3, ["2/5", "2/5", "1/5"])
        assert auto_solve(inst).algorithm == "special3-equal-pair"

    def test_sevenths_fall_through_to_general_algorithms(self, uniform):
        inst = make_instance([uniform] * 3, ["1/7", "2/7", "4/7"])
        report = auto_solve(inst)
        assert report.algorithm in ("recursive", "clone")
        both = (recursive_divide(inst), clone_divide(inst))
        assert len(report.cuts) == min(len(r.cuts) for r in both)

    def test_single_agent(self, uniform):
        report = auto_solve(make_instance([uniform], [1]))
        assert report.cuts == ()

    def test_all_reports_verify(self):
        for seed in range(6):
            inst = random_instance(3, 880 + seed)
            report = auto_solve(inst)
            assert verify_allocation(inst, report.allocation).passed
            assert cut_count(report.allocation) == len(report.cuts)
