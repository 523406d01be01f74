import random
from dataclasses import replace
from fractions import Fraction
from fractions import Fraction as F
from math import inf, lcm

import pytest

import entitled_cuts.protocols as protocols_mod
from entitled_cuts.errors import BudgetExceeded, InternalCheckFailed, PreconditionViolated
from entitled_cuts.generate import random_instance, random_valuation
from entitled_cuts.model import (
    FULL_CAKE,
    Allocation,
    Instance,
    Interval,
    Region,
    Valuation,
    boundary_points,
    measure_of,
)
from entitled_cuts.protocols import (
    DEFAULT_CLONE_CAP,
    AlgorithmReport,
    _near_equal,
    auto_solve,
    clone_divide,
    cut_and_choose,
    near_equal_divide,
    recursive_divide,
    special3_equal_pair,
    special3_half,
    upper_bound_cuts,
)
from entitled_cuts.split import DEFAULT_BUDGET
from entitled_cuts.verifier import verify_allocation

from conftest import make_instance, pw, reference_cumulative, reference_mark, run_optimized


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


class TestCutBoundChecked:
    """A report with more cuts than its paper bound is a failed internal
    check, not a result."""

    def test_recursive_over_its_bound_raises(self, monkeypatch, uniform):
        monkeypatch.setattr(protocols_mod, "upper_bound_cuts", lambda n: 0)
        inst = make_instance([uniform, uniform], ["1/3", "2/3"])
        with pytest.raises(InternalCheckFailed, match="recursive: 1 cuts exceed the bound 0"):
            recursive_divide(inst)

    def test_replace_checks_the_final_bound(self, uniform):
        report = near_equal_divide(make_instance([uniform] * 3, ["1/4", "1/4", "1/2"]))
        assert (len(report.cuts), report.bound) == (2, 4)
        with pytest.raises(InternalCheckFailed, match="near-equal: 2 cuts exceed the bound 1"):
            replace(report, bound=1)

    def test_check_survives_optimize_flag(self, tmp_path):
        script = """
            import sys
            from fractions import Fraction
            import entitled_cuts.protocols as protocols
            from entitled_cuts.errors import InternalCheckFailed
            from entitled_cuts.model import Instance, Valuation

            print("optimize", sys.flags.optimize)
            protocols.upper_bound_cuts = lambda n: 0
            uniform = Valuation((0, 1), (1,))
            inst = Instance((uniform, uniform), (Fraction(1, 3), Fraction(2, 3)))
            try:
                protocols.recursive_divide(inst)
            except InternalCheckFailed:
                print("raised InternalCheckFailed")
        """
        assert run_optimized(script, tmp_path) == ["optimize", "1", "raised", "InternalCheckFailed"]


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

    def test_six_agents_under_the_default_budget(self):
        # the top split has 18 refinement cells: a plain scan of every
        # cut-cell tuple projects 19.2M systems, over the default budget,
        # while the prefix walk does about 3,800 units of work there
        inst = random_instance(6, 2, max_cells=6, denom_bound=64)
        report = recursive_divide(inst)
        assert verify_allocation(inst, report.allocation).passed
        assert len(report.cuts) <= report.bound

    def test_scale_invariance(self):
        inst = random_instance(3, 4242)
        scaled_vals = list(inst.valuations)
        v = scaled_vals[1]
        scaled_vals[1] = Valuation(v.breakpoints, tuple(d * 7 for d in v.densities))
        scaled = Instance(tuple(scaled_vals), inst.entitlements)
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
        inst = Instance(vals, entitlements[name])
        scaled_vals = list(vals)
        scaled_vals[2] = Valuation(
            vals[2].breakpoints, tuple(d * 9 for d in vals[2].densities)
        )
        scaled = Instance(tuple(scaled_vals), entitlements[name])
        assert runner(inst).allocation == runner(scaled).allocation, name


def equal_shares(valuations):
    """The allocation cloning gives when every entitlement is 1/n: one
    clone per agent, so the Even-Paz split."""
    n = len(valuations)
    return clone_divide(make_instance(valuations, [F(1, n)] * n)).allocation


class TestConnectedProportional:
    def test_single_agent(self, uniform):
        alloc = equal_shares([uniform])
        assert alloc.pieces[0] == region((0, 1))

    def test_identical_uniform_quarters(self, uniform):
        alloc = equal_shares([uniform] * 4)
        assert [p.intervals[0] for p in alloc.pieces] == [
            Interval(F(0), F(1, 4)), Interval(F(1, 4), F(1, 2)),
            Interval(F(1, 2), F(3, 4)), Interval(F(3, 4), F(1)),
        ]

    def test_two_agents_lower_mark_wins(self, uniform):
        eager = pw("0 1/2 1", "2 0")  # marks 1/4; uniform marks 1/2
        alloc = equal_shares([uniform, eager])
        assert alloc.pieces[1] == region((0, F(1, 4)))
        assert alloc.pieces[0] == region((F(1, 4), 1))
        assert measure_of(eager, alloc.pieces[1]) == F(1, 2)
        assert measure_of(uniform, alloc.pieces[0]) == F(3, 4)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_each_gets_connected_fair_share(self, n):
        rng = random.Random(n * 11)
        vals = [random_valuation(rng, 3, 8) for _ in range(n)]
        alloc = equal_shares(vals)
        assert len(boundary_points(alloc)) <= n - 1
        for v, piece in zip(vals, alloc.pieces):
            assert len(piece.intervals) == 1
            assert measure_of(v, piece) * n >= v.total

    def test_identical_agents_get_equal_own_value(self):
        v = pw("0 1/4 1", "3 1")
        alloc = equal_shares([v] * 3)
        values = [measure_of(v, piece) for piece in alloc.pieces]
        assert len(set(values)) == 1


def _reference_even_split(agents, lo, hi, valuations, assigned):
    """The per-clone split: every agent marks, even when another agent holds
    the same Valuation object, by the linear cell scan."""
    if len(agents) == 1:
        assigned[agents[0]] = Interval(lo, hi)
        return
    n = len(agents)
    n_left = n // 2
    marks = []
    for i in agents:
        v = valuations[i]
        target = (reference_cumulative(v, hi) - reference_cumulative(v, lo)) * n_left / n
        marks.append((reference_mark(v, lo, target), i))
    marks.sort()
    split_at = marks[n_left - 1][0]
    left_ids = sorted(i for _, i in marks[:n_left])
    right_ids = sorted(i for _, i in marks[n_left:])
    _reference_even_split(left_ids, lo, split_at, valuations, assigned)
    _reference_even_split(right_ids, split_at, hi, valuations, assigned)


def _reference_pieces(valuations, counts, lo=F(0), hi=F(1)):
    """The per-clone pipeline: an owner list with one entry per clone, one
    Valuation per clone, a per-clone split, then each agent's clone pieces
    merged."""
    owners = [i for i, count in enumerate(counts) for _ in range(count)]
    clone_vals = [valuations[i] for i in owners]
    assigned = {}
    _reference_even_split(list(range(len(owners))), lo, hi, clone_vals, assigned)
    merged = {}
    for clone, owner in enumerate(owners):
        merged[owner] = Region(merged.get(owner, Region()).intervals + (assigned[clone],))
    return merged


def _reference_report(instance, copies, algorithm, bound):
    merged = _reference_pieces(instance.valuations, copies)
    allocation = Allocation(tuple(merged.get(i, Region()) for i in range(instance.n)))
    return AlgorithmReport(allocation, boundary_points(allocation), algorithm, bound)


def _counting_marks(monkeypatch):
    calls = []
    real = Valuation.marks
    monkeypatch.setattr(
        Valuation, "marks", lambda *args: calls.append(args) or real(*args)
    )
    return calls


class TestMarksOncePerValuation:
    """Clone groups: each agent's clones are a count, and each group marks
    once per round.  Every result must equal the per-clone reference's,
    which gives every clone its own entry, its own mark and its own piece."""

    WHOLE = Interval(F(0), F(1))

    @staticmethod
    def regions(groups, subcake, vals):
        split = protocols_mod._even_split(groups, subcake.lo, subcake.hi, vals)
        return {i: Region(intervals) for i, intervals in split.items()}

    def assert_groups(self, vals, counts, subcake=WHOLE):
        pieces = self.regions(list(enumerate(counts)), subcake, vals)
        assert pieces == _reference_pieces(vals, counts, subcake.lo, subcake.hi)

    def assert_distinct(self, vals, subcake=WHOLE):
        assigned = {}
        _reference_even_split(list(range(len(vals))), subcake.lo, subcake.hi, vals, assigned)
        pieces = self.regions([(i, 1) for i in range(len(vals))], subcake, vals)
        assert pieces == {i: Region([iv]) for i, iv in assigned.items()}

    def test_clone_lists(self, uniform):
        eager = pw("0 1/2 1", "2 0")
        rng = random.Random(17)
        drawn = [random_valuation(rng, 3, 8) for _ in range(3)]
        self.assert_groups([uniform, eager], [4, 3])
        self.assert_distinct([eager, uniform, eager, uniform, eager])
        self.assert_groups([drawn[0]], [7])
        self.assert_distinct([drawn[i % 3] for i in range(11)])
        self.assert_groups([drawn[2], drawn[0], drawn[1]], [5, 2, 9])
        self.assert_groups([drawn[1], drawn[2], drawn[0]], [1, 13, 2])

    def test_value_equal_distinct_objects(self):
        a, b = pw("0 1/3 1", "1 2"), pw("0 1/3 1", "1 2")
        assert a == b and a is not b
        self.assert_distinct([a, b, a, b, b])
        self.assert_distinct([a] * 3 + [b] * 3)
        self.assert_groups([a, b], [3, 3])

    def test_zero_density_plateaus(self, uniform):
        # plateaus make leftmost marks tie across agents, so the
        # (mark, agent) order decides which group straddles the split
        hump = pw("0 1/4 3/4 1", "0 2 0")
        right = pw("0 1/2 1", "0 1")
        left = pw("0 1/2 1", "2 0")
        self.assert_groups([hump, right, left], [4, 2, 3])
        self.assert_distinct([right, hump, left, uniform] * 3)
        self.assert_groups([right, hump, left, uniform], [3, 3, 3, 3])
        self.assert_groups([hump], [8])
        self.assert_groups([hump, hump, right], [5, 2, 6])

    def test_group_valuing_the_subcake_at_zero(self):
        # an agent worth nothing on the sub-cake marks its left end, as the
        # reference's target of 0 does, so its clones go left
        right, left = pw("0 1/2 1", "0 1"), pw("0 1/2 1", "2 0")
        half = Interval(F(0), F(1, 2))
        self.assert_distinct([right, left], half)
        self.assert_groups([right, left, right], [2, 3, 1], half)
        pieces = self.regions([(0, 1), (1, 1)], half, [right, left])
        assert pieces == {0: Region(), 1: Region([half])}

    def test_sub_interval(self, uniform):
        hump = pw("0 1/4 3/4 1", "0 2 0")
        rng = random.Random(29)
        drawn = [random_valuation(rng, 3, 8) for _ in range(3)]
        for lo, hi in ((F(1, 4), F(3, 4)), (F(1, 3), F(5, 6))):
            sub = Interval(lo, hi)
            self.assert_groups([hump, uniform], [3, 4], sub)
            vals = [v for v in drawn if reference_cumulative(v, hi) > reference_cumulative(v, lo)]
            self.assert_distinct([vals[i % len(vals)] for i in range(9)], sub)
            self.assert_groups(vals, [2 * i + 1 for i in range(len(vals))], sub)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_clone_protocols_on_seeded_pools(self, n):
        rng = random.Random(6400 + n)
        for trial in range(6):
            vals = tuple(random_valuation(rng, 3, 8) for _ in range(n))
            d = rng.randint(n, 64)
            edges = [0] + sorted(rng.sample(range(1, d), n - 1)) + [d]
            shares = tuple(F(b - a, d) for a, b in zip(edges, edges[1:]))
            inst = Instance(vals, shares)
            denominator = lcm(*(t.denominator for t in shares))
            copies = [int(t * denominator) for t in shares]
            assert clone_divide(inst) == _reference_report(inst, copies, "clone", denominator - 1)
            heavy = rng.randrange(n)
            copies = [d - n + 1 if i == heavy else 1 for i in range(n)]
            inst = Instance(vals, tuple(F(c, d) for c in copies))
            expected = _reference_report(inst, copies, "near-equal", 2 * (n - 1))
            assert near_equal_divide(inst) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
    def test_distinct_agents_match_the_per_clone_split(self, n):
        rng = random.Random(6500 + n)
        for trial in range(6):
            vals = [random_valuation(rng, 4, 8) for _ in range(n)]
            lo, hi = sorted(rng.sample([F(k, 12) for k in range(13)], 2))
            sub = Interval(lo, hi)
            if all(reference_cumulative(v, hi) > reference_cumulative(v, lo) for v in vals):
                self.assert_distinct(vals, sub)
            self.assert_distinct(vals)

    def test_clone_divide_work(self, monkeypatch, uniform):
        # 21 + 43 clones: a round over two groups marks twice, and six
        # rounds hold both agents' clones, over 64, 32, 16, 8, 4 and 2
        # clones; every other sub-cake has one group and takes no mark.
        # So 12 marks; the per-clone reference makes 64 * 6 = 384.
        calls = _counting_marks(monkeypatch)
        inst = make_instance([uniform, pw("0 1/2 1", "2 0")], ["21/64", "43/64"])
        report = clone_divide(inst)
        assert len(calls) == 12
        assert report.cuts == (F(3, 8), F(13, 32), F(1, 2))

    def test_a_billion_clones(self, monkeypatch, uniform):
        # D = 10^9 clones: a round over g groups marks g times, and only a
        # sub-cake shared by two or more agents takes a round, so the marks
        # grow with n * log2(D), not with D
        eager = pw("0 1/2 1", "2 0")
        shy = pw("0 1/3 1", "0 3/2")
        d = 10**9
        calls = _counting_marks(monkeypatch)
        inst = Instance((uniform, eager), (F(1, d), F(d - 1, d)))
        report = near_equal_divide(inst)
        assert verify_allocation(inst, report.allocation).passed
        # the light clone always stays on the right with the heavy agent's
        # remainder, one round per halving: ceil(log2(10^9)) = 30 rounds
        assert len(calls) == 2 * 30
        assert report.cuts == (F(999999999, 2000000000),)
        calls.clear()
        shares = (F(1, d), F(d // 3, d), F(d - 1 - d // 3, d))
        inst = Instance((uniform, eager, shy), shares)
        report = clone_divide(inst)
        assert verify_allocation(inst, report.allocation).passed
        assert len(calls) == 114
        assert report.cuts == (F(1, 4), F(125000001, 500000000), F(104166667, 250000000))


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


    def test_three_agents_at_two_to_the_2000(self, uniform):
        # the Even-Paz split runs about 2000 rounds as one loop, with no
        # recursion, so any denominator works
        d = 2**2000
        inst = make_instance(
            [uniform, pw("0 1/2 1", "2 0"), pw("0 1/3 1", "1/2 5/4")],
            [F(1, d), F(d // 2 - 1, d), F(1, 2)],
        )
        report = clone_divide(inst)
        assert report.bound == d - 1
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

    def test_owner_valuing_the_piece_at_zero_rejected(self, uniform):
        with pytest.raises(ValueError, match="owner must value the piece positively"):
            cut_and_choose(pw("0 1/2 1", "2 0"), uniform, region((F(1, 2), 1)))

    def test_disconnected_piece_halved_with_one_cut(self, uniform):
        # the piece is worth 3/4; half of it, 3/8, is reached at 5/8
        piece = region((0, F(1, 4)), (F(1, 2), 1))
        owner_part, chooser_part = cut_and_choose(uniform, uniform, piece)
        assert chooser_part == region((0, F(1, 4)), (F(1, 2), F(5, 8)))
        assert owner_part == region((F(5, 8), 1))
        assert Region(owner_part.intervals + chooser_part.intervals) == piece


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
        with pytest.raises(PreconditionViolated, match="exactly three agents"):
            special3_half(make_instance([uniform] * 2, ["1/2", "1/2"]))

    def test_random_qualifying_instances(self):
        rng = random.Random(31337)
        for trial in range(10):
            vals = tuple(random_valuation(rng, 3, 8) for _ in range(3))
            q = rng.randint(3, 9)
            p = rng.randint(1, q - 1)
            inst = Instance(vals, (F(1, 2), F(p, 2 * q), F(q - p, 2 * q)))
            report = special3_half(inst)
            assert len(report.cuts) <= 4
            assert_proportional(inst, report.allocation)
            assert verify_allocation(inst, report.allocation).passed

    def test_disconnected_stage_piece_stays_within_four_cuts(self, uniform):
        # the two-agent stage can hand an agent a two-interval piece; sharing
        # it with the chooser must still cost one cut, not one per interval
        mid = pw("0 1/3 2/3 1", "0 3 0")
        inst = Instance((uniform, uniform, mid), (F(1, 2), F(1, 5), F(3, 10)))
        report = special3_half(inst)
        assert len(report.cuts) <= 4
        assert_proportional(inst, report.allocation)
        assert verify_allocation(inst, report.allocation).passed

    def test_zero_value_interval_in_piece_is_harmless(self, uniform):
        # an agent's piece may contain an interval worth nothing to them; the
        # single running-value mark is still well defined
        v2 = pw("0 1/2 1", "3/8 5/7")
        v3 = pw("0 1 ", "3/7")
        inst = Instance((uniform, v2, v3), (F(1, 2), F(1, 14), F(3, 7)))
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
                uniform = Valuation((0, 1), (1,))
                protocols.cut_and_choose(uniform, uniform, FULL_CAKE)
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
        with pytest.raises(PreconditionViolated, match="exactly three agents"):
            special3_equal_pair(make_instance([uniform] * 2, ["1/2", "1/2"]))

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
        inst = Instance((uniform, hoarder, shunner), (F(1, 3), F(1, 3), F(1, 3)))
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
            inst = Instance(vals, (pair, pair, 1 - 2 * pair))
            report = special3_equal_pair(inst)
            assert len(report.cuts) <= 4
            assert_proportional(inst, report.allocation)
            assert verify_allocation(inst, report.allocation).passed

    def test_pigeonhole_window(self):
        # the odd agent's chosen window is worth at most B/D of their total
        rng = random.Random(5)
        from entitled_cuts.protocols import _window_region

        for trial in range(20):
            marker = random_valuation(rng, 3, 8)
            odd = random_valuation(rng, 3, 8)
            d = rng.randint(2, 9)
            b = rng.randint(1, d - 1)
            edges = [F(0)] + marker.marks(marker.total * p / d for p in range(1, d)) + [F(1)]
            best = min(measure_of(odd, _window_region(edges, s, b)) for s in range(d))
            assert best * d <= b * odd.total

    def test_window_is_the_cheapest_measured_region(self):
        # pricing windows from one table of the odd agent's cumulative
        # values picks the window that measuring each region would pick,
        # wrapping windows and ties to the smallest start included
        from entitled_cuts.protocols import _window_region

        rng = random.Random(31)
        hump = pw("0 1/4 3/4 1", "0 2 0")
        for trial in range(24):
            marker = random_valuation(rng, 3, 8)
            odd = hump if trial % 4 == 0 else random_valuation(rng, 3, 8)
            d = rng.randint(3, 12)
            b = rng.randint(1, (d - 1) // 2)
            pair = F(b, d)
            b, d = pair.numerator, pair.denominator
            inst = Instance((marker, random_valuation(rng, 3, 8), odd),
                            (pair, pair, 1 - 2 * pair))
            edges = [F(0)] + marker.marks(marker.total * p / d for p in range(1, d)) + [F(1)]
            _, start = min((measure_of(odd, _window_region(edges, s, b)), s) for s in range(d))
            report = special3_equal_pair(inst)
            assert _window_region(edges, start, b) in report.allocation.pieces[:2]


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
            inst = Instance(vals, entitlements)
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
            assert boundary_points(report.allocation) == report.cuts


def _reference_auto_solve(instance: Instance, budget: int = DEFAULT_BUDGET) -> AlgorithmReport:
    """The full comparison: both general protocols run to the end, and the
    fewer cuts win, the recursive result on ties."""
    if instance.n == 1:
        return recursive_divide(instance, budget)
    if _near_equal(instance):
        return near_equal_divide(instance)
    if instance.n == 3:
        if any(t == Fraction(1, 2) for t in instance.entitlements):
            return special3_half(instance, budget)
        if len(set(instance.entitlements)) < 3:
            return special3_equal_pair(instance, budget)
    candidates = [recursive_divide(instance, budget)]
    denominator = lcm(*(t.denominator for t in instance.entitlements))
    if denominator <= DEFAULT_CLONE_CAP:
        candidates.append(clone_divide(instance))
    return min(candidates, key=lambda rep: len(rep.cuts))


def _counting_splits(monkeypatch, fail_from=None):
    """Record the arguments of every split the protocols make; from call
    number ``fail_from`` on, raise BudgetExceeded instead of splitting."""
    requests = []
    real = protocols_mod.exact_split

    def counted(*args, **kwargs):
        requests.append((args, kwargs))
        if fail_from is not None and len(requests) >= fail_from:
            raise BudgetExceeded(f"split {len(requests)} refused")
        return real(*args, **kwargs)

    monkeypatch.setattr(protocols_mod, "exact_split", counted)
    return requests


class TestAutoSolveStopsTheLosingRecursion:
    """auto_solve runs cloning first and stops the recursion once its
    splits have made more cuts than cloning's result.  The chosen report
    must be the full comparison's on every instance."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_the_full_comparison_on_seeded_pools(self, n):
        # drawn as `gen --random n --seed s` draws them
        for seed in range(12):
            inst = random_instance(n, seed)
            assert auto_solve(inst) == _reference_auto_solve(inst)

    def test_matches_the_full_comparison_on_pinned_cases(self):
        rng = random.Random(77)
        vals = tuple(random_valuation(rng, 3, 8) for _ in range(3))
        # the common denominator 77 is over the clone cap: recursion only
        over_cap = Instance(vals, (F(1, 7), F(2, 11), F(52, 77)))
        cases = {
            # recursive 2 cuts against clone 3: a strict recursive win
            "recursive win": (random_instance(2, 51, max_cells=5), "recursive"),
            "tie, n=2": (random_instance(2, 8), "recursive"),
            "tie, n=3": (random_instance(3, 8), "recursive"),
            "over the cap": (over_cap, "recursive"),
            "one agent": (random_instance(1, 3), "recursive"),
            "clone win": (random_instance(6, 0), "clone"),
            "near-equal": (random_instance(2, 0), "near-equal"),
            "one half": (random_instance(3, 0), "special3-half"),
            "equal pair": (random_instance(3, 2), "special3-equal-pair"),
        }
        assert lcm(*(t.denominator for t in over_cap.entitlements)) > DEFAULT_CLONE_CAP
        for name, (inst, algorithm) in cases.items():
            report = auto_solve(inst)
            assert report == _reference_auto_solve(inst), name
            assert report.algorithm == algorithm, name
        win = cases["recursive win"][0]
        assert len(auto_solve(win).cuts) < len(clone_divide(win).cuts)

    def test_clone_win_stops_after_two_splits(self, monkeypatch):
        # clone has 6 cuts; the recursion's first split makes 6 distinct
        # cut points and its second 9, so the other three splits never run
        inst = random_instance(6, 0)
        requests = _counting_splits(monkeypatch)
        report = auto_solve(inst)
        assert report.algorithm == "clone" and len(report.cuts) == 6
        assert len(requests) == 2
        requests.clear()
        assert _reference_auto_solve(inst) == report
        assert len(requests) == 5

    def test_recursive_win_makes_the_recursions_splits(self, monkeypatch):
        for inst in (random_instance(2, 51, max_cells=5), random_instance(3, 8)):
            requests = _counting_splits(monkeypatch)
            report = auto_solve(inst)
            assert report.algorithm == "recursive"
            made = list(requests)
            requests.clear()
            assert recursive_divide(inst) == report
            assert made == requests and made

    def test_a_split_after_the_stop_is_never_made(self, monkeypatch):
        # the third split would raise, but clone has won after the second
        inst = random_instance(6, 0)
        requests = _counting_splits(monkeypatch, fail_from=3)
        assert auto_solve(inst) == clone_divide(inst)
        assert len(requests) == 2
        # the full comparison reaches that split and fails
        with pytest.raises(BudgetExceeded):
            _reference_auto_solve(inst)
        assert len(requests) == 3


def _reference_split_two_ways(agents, weights, subcake, valuations, out, budget, cuts, limit):
    """The recursion as a module-level function that threads the instance's
    weights and valuations, the pieces, the budget, the cut set and the
    limit through every call."""
    if len(agents) == 1:
        out[agents[0]] = subcake
        return True
    n_a = len(agents) // 2
    ratio = sum(weights[:n_a], F(0)) / sum(weights, F(0))
    group_vals = tuple(valuations[i] for i in agents)
    part, complement = protocols_mod.exact_split(group_vals, subcake, ratio, budget=budget)
    cuts.update(x for iv in part.intervals for x in (iv.lo, iv.hi) if 0 < x < 1)
    if len(cuts) > limit:
        return False
    return (
        _reference_split_two_ways(agents[:n_a], weights[:n_a], part, valuations, out, budget,
                                  cuts, limit)
        and _reference_split_two_ways(agents[n_a:], weights[n_a:], complement, valuations, out,
                                      budget, cuts, limit)
    )


def _reference_recursive(instance, budget, limit):
    pieces = {}
    if not _reference_split_two_ways(
        list(range(instance.n)), list(instance.entitlements), FULL_CAKE,
        instance.valuations, pieces, budget, set(), limit,
    ):
        return None
    allocation = Allocation(tuple(pieces.get(i, Region()) for i in range(instance.n)))
    return AlgorithmReport(allocation, boundary_points(allocation), "recursive",
                           upper_bound_cuts(instance.n))


class TestRecursionMatchesThreadedReference:
    """The recursion reads the instance and keeps its pieces and cut set in
    one place; it makes the same splits, in the same order, and returns the
    same report (or None) as the version that threads them through every
    call."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_seeded_pools(self, monkeypatch, n):
        requests = _counting_splits(monkeypatch)
        for seed in range(12):
            inst = random_instance(n, seed)
            for limit in sorted({0, 1, len(clone_divide(inst).cuts), inf}):
                report = protocols_mod._recursive(inst, DEFAULT_BUDGET, limit)
                made = list(requests)
                requests.clear()
                assert _reference_recursive(inst, DEFAULT_BUDGET, limit) == report
                assert requests == made and (made or n == 1)
                requests.clear()
