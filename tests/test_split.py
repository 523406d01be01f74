import random
import re
from bisect import bisect_right
from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest

from entitled_cuts import split
from entitled_cuts.cells import CellTable, tuple_count, walk
from entitled_cuts.errors import BudgetExceeded, EmptySubcake
from entitled_cuts.feasibility import (
    _RHS,
    EQ,
    GE,
    LE,
    _eliminate_equalities,
    check_feasible,
    solve_feasibility,
)
from entitled_cuts.generate import random_instance, random_valuation
from entitled_cuts.model import FULL_CAKE, ONE, ZERO, Interval, Region, measure_of
from entitled_cuts.split import exact_split, pie_arc_count

from conftest import pw, run_optimized


def region(*pairs):
    return Region([Interval(F(a), F(b)) for a, b in pairs])


class TestSubcakeGeometry:
    """Splits of a sub-cake are cut in the cake's own coordinates, and its
    pie joins the components end to end."""

    def test_empty_subcake_rejected(self, uniform):
        with pytest.raises(EmptySubcake):
            exact_split((uniform,), Region(), F(1, 2))

    def test_cut_on_a_component_boundary(self, uniform):
        sub = region((0, F(1, 4)), (F(1, 2), 1))
        part, complement = exact_split((uniform,), sub, F(1, 3))
        assert part == region((0, F(1, 4)))
        assert complement == region((F(1, 2), 1))

    def test_arc_across_a_gap_is_one_arc(self, uniform):
        sub = region((0, F(1, 4)), (F(1, 2), 1))
        part, complement = exact_split((uniform, pw("0 1/2 1", "2 0")), sub, F(1, 2))
        assert part == region((F(1, 8), F(1, 4)), (F(1, 2), F(3, 4)))
        assert complement == region((0, F(1, 8)), (F(3, 4), 1))
        assert pie_arc_count(part, sub) == 1
        assert pie_arc_count(part) == 2

    def test_wrap_across_the_subcake_ends_is_one_arc(self):
        sub = region((F(1, 8), F(1, 4)), (F(1, 2), F(7, 8)))
        wrap = region((F(1, 8), F(3, 16)), (F(3, 4), F(7, 8)))
        assert pie_arc_count(wrap, sub) == 1
        assert pie_arc_count(wrap) == 2
        # a gap joint and the ends together close one arc, not zero
        around = region((F(1, 8), F(1, 4)), (F(1, 2), F(5, 8)), (F(3, 4), F(7, 8)))
        assert pie_arc_count(around, sub) == 1
        assert pie_arc_count(sub, sub) == 1
        # touching only one end is no wrap
        assert pie_arc_count(region((F(1, 8), F(3, 16)), (F(1, 2), F(5, 8))), sub) == 2


class TestExactSplit:
    def test_single_agent_takes_prefix(self, uniform):
        part, complement = exact_split((uniform,), FULL_CAKE, F(1, 2))
        assert part == region((0, F(1, 2)))
        assert complement == region((F(1, 2), 1))

    def test_two_agent_consensus_half(self, uniform):
        skewed = pw("0 1/2 1", "2 0")
        part, _ = exact_split((uniform, skewed), FULL_CAKE, F(1, 2))
        assert part == region((F(1, 4), F(3, 4)))
        assert measure_of(uniform, part) == F(1, 2)
        assert measure_of(skewed, part) == F(1, 2)

    def test_determinism(self, uniform):
        args = ((uniform, pw("0 1/3 1", "2 1")), FULL_CAKE, F(2, 5))
        assert exact_split(*args) == exact_split(*args)

    def test_request_reads_its_totals_from_the_table(self, uniform, monkeypatch):
        # the positivity check uses the table's totals; measure_of stays
        # for the split's post-conditions
        calls = []
        monkeypatch.setattr(split, "measure_of", lambda v, r: calls.append(r) or measure_of(v, r))
        sub = region((0, F(1, 4)), (F(1, 2), 1))
        vals = (uniform, pw("0 1/2 1", "2 0"))
        assert CellTable(vals, [F(1, 2)] * 2, sub).totals == [F(3, 4), F(1, 2)]
        with pytest.raises(ValueError, match="positively"):
            exact_split(vals, region((F(1, 2), 1)), F(1, 2))
        assert calls == []
        part, complement = exact_split(vals, sub, F(1, 2))
        assert calls == [part, complement] * 2

    def test_ratio_must_be_interior(self, uniform):
        with pytest.raises(ValueError):
            exact_split((uniform,), FULL_CAKE, F(1))
        with pytest.raises(ValueError):
            exact_split((uniform,), FULL_CAKE, F(0))

    def test_needs_a_valuation(self):
        with pytest.raises(ValueError, match="^need at least one valuation$"):
            exact_split((), FULL_CAKE, F(1, 2))

    def test_budget_guard(self, uniform):
        with pytest.raises(BudgetExceeded):
            exact_split((uniform, pw("0 1/3 2/3 1", "1 2 3")), FULL_CAKE, F(1, 2), budget=1)

    def test_budget_bounds_the_work_done(self):
        # a split stops once its work, cut-cell prefixes kept plus LP calls
        # over every arc count, passes the budget, and says how far it got;
        # raised to the work reached each time, the budget eventually covers
        # the whole search, which then returns the unbudgeted result
        vals = (pw("0 1/4 1", "3 5/4"), pw("0 1/2 1", "0 1"), pw("0 1/2 1", "1/3 2"))
        unbudgeted = exact_split(vals, FULL_CAKE, F(1, 2))
        assert pie_arc_count(unbudgeted[0]) == 2  # the search reaches m = 2
        cells = CellTable(vals, [F(1, 2)] * 3, FULL_CAKE).cells
        budget, reached = 0, []
        while True:
            try:
                res = exact_split(vals, FULL_CAKE, F(1, 2), budget=budget)
                break
            except BudgetExceeded as exc:
                at = re.fullmatch(
                    r"split budget of (\d+) exceeded at m=(\d+): (\d+) units of work done "
                    r"\(cut-cell prefixes kept plus LP calls\), at cut-cell tuple (\d+) of (\d+)",
                    str(exc),
                )
                assert int(at[1]) == budget and int(at[3]) == budget + 1
                assert int(at[4]) < int(at[5]) == tuple_count(cells, 2 * int(at[2]))
                reached.append(int(at[2]))
                budget = int(at[3])
        assert res == unbudgeted
        assert reached == sorted(reached) and set(reached) == {1, 2}
        # the exact work: a walk that prunes less, or an LP call for a tuple
        # whose value equations contradict each other or pin the last cut
        # outside its cell, runs out of this budget
        assert budget == 10
        with pytest.raises(BudgetExceeded, match=f"at m=2: {budget} units of work done"):
            exact_split(vals, FULL_CAKE, F(1, 2), budget=budget - 1)

    def test_six_agent_top_split_work(self, monkeypatch):
        # the top split of a six-agent instance on 18 refinement cells: a
        # plain scan of every tuple would project 19,249,926 systems, while
        # the walk reaches 24 tuples, each an LP call, and does exactly this
        # work: every other tuple dies in the walk, its value equations
        # contradicting each other or pinning the last cut outside its
        # cell.  A walk that prunes less runs out of the budget
        inst = random_instance(6, 2, max_cells=6, denom_bound=64)
        # the first three agents' share, as recursive_divide asks for it
        ratio = sum(inst.entitlements[:3], F(0))
        assert CellTable(inst.valuations, [ratio] * 6, FULL_CAKE).cells == 18
        checks, leaves = [], []
        monkeypatch.setattr(
            split, "check_feasible", lambda k, rows: checks.append(k) or check_feasible(k, rows)
        )
        monkeypatch.setattr(
            split, "walk", lambda *args: (leaves.append(leaf) or leaf for leaf in walk(*args))
        )
        exact_split(inst.valuations, FULL_CAKE, ratio, budget=897)
        assert len(leaves) == 24 and len(checks) == 24
        with pytest.raises(BudgetExceeded, match=r"at m=\d: 897 units of work done"):
            exact_split(inst.valuations, FULL_CAKE, ratio, budget=896)

    def test_subcake_split_is_exact_for_everyone(self, uniform):
        skewed = pw("0 1/2 1", "2 0")
        sub = region((0, F(1, 4)), (F(1, 2), 1))
        part, complement = exact_split((uniform, skewed), sub, F(1, 2))
        assert Region(part.intervals + complement.intervals) == sub
        for v in (uniform, skewed):
            assert measure_of(v, part) * 2 == measure_of(v, sub)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_requests_split_exactly(self, n):
        rng = random.Random(97 * n)
        for trial in range(6):
            vals = tuple(random_valuation(rng, 3 if n <= 3 else 2, 8) for _ in range(n))
            ratio = F(rng.randint(1, 7), 8)
            part, complement = exact_split(vals, FULL_CAKE, ratio)
            for v in vals:
                assert measure_of(v, part) == ratio * v.total
                assert measure_of(v, complement) == (1 - ratio) * v.total
            if n >= 2:
                assert pie_arc_count(part) <= n - 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_part_endpoints_are_fractions(self, n):
        # cuts come back from cell coordinates; an int / int there is a float
        rng = random.Random(31 * n)
        for trial in range(4):
            vals = tuple(random_valuation(rng, 3, 8) for _ in range(n))
            subcake = FULL_CAKE if trial % 2 == 0 else region((0, F(3, 8)), (F(1, 2), 1))
            part, complement = exact_split(vals, subcake, F(rng.randint(1, 7), 8))
            for iv in part.intervals + complement.intervals:
                assert type(iv.lo) is F and type(iv.hi) is F, iv

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
        part, _ = exact_split(vals, FULL_CAKE, F(1, 4))
        for v in vals:
            assert measure_of(v, part) * 4 == v.total
        assert pie_arc_count(part) <= 3


def _flatten(subcake, valuations):
    """The sub-cake's components laid end to end on [0, L] without
    rescaling.  Returns L, each component's offset, and each agent's
    breakpoints and densities on [0, L], carried over cell by cell."""
    offsets, length = [], ZERO
    for comp in subcake.intervals:
        offsets.append(length)
        length += comp.hi - comp.lo
    flat = []
    for v in valuations:
        bps, dens = [ZERO], []
        for comp, off in zip(subcake.intervals, offsets):
            x = comp.lo
            for cell in range(bisect_right(v.breakpoints, comp.lo) - 1, len(v.densities)):
                hi = min(v.breakpoints[cell + 1], comp.hi)
                if hi <= x:
                    continue
                dens.append(v.densities[cell])
                bps.append(off + (hi - comp.lo))
                x = hi
                if hi == comp.hi:
                    break
        flat.append((bps, dens))
    return length, offsets, flat


def _flat_value(bps, dens, x):
    """A flattened agent's value of [0, x]."""
    return sum((d * (min(b, x) - a) for a, b, d in zip(bps, bps[1:], dens) if a < x), ZERO)


def _lift(flat_part, subcake, offsets):
    """A region of [0, L] mapped back onto the sub-cake, split at the
    component boundaries."""
    out = []
    for iv in flat_part.intervals:
        for comp, off in zip(subcake.intervals, offsets):
            lo, hi = max(iv.lo, off), min(iv.hi, off + (comp.hi - comp.lo))
            if lo < hi:
                out.append(Interval(comp.lo + (lo - off), comp.lo + (hi - off)))
    return Region(out)


def _arc_signs(count: int, origin_inside: bool):
    # Part value is sum of s_j * F(x_j) plus (total if origin_inside), with
    # F the running value over the sub-cake from its start to its end.
    # Outside: part = [x1,x2] u [x3,x4] u ...                  -> -,+,-,+,...
    # Inside:  part = [start,x1] u [x2,x3] u ... u [x2m,end]   -> +,-,+,-,...
    first = 1 if origin_inside else -1
    return [first if j % 2 == 0 else -first for j in range(count)]


def _flat_arcs(xs, origin_inside, length):
    """The part's intervals on [0, L] for sorted endpoints ``xs``."""
    if origin_inside:
        # part = [0, x1] u [x2, x3] u ... u [x_{2m}, L]
        pairs = [(ZERO, xs[0])]
        pairs += [(xs[2 * i - 1], xs[2 * i]) for i in range(1, len(xs) // 2)]
        pairs.append((xs[-1], length))
    else:
        # part = [x1, x2] u [x3, x4] u ...
        pairs = [(xs[2 * i], xs[2 * i + 1]) for i in range(len(xs) // 2)]
    return [Interval(lo, hi) for lo, hi in pairs if lo < hi]


def _reference_split(valuations, subcake, ratio):
    """The splitter as a plain scan in Fraction arithmetic on the sub-cake
    flattened onto [0, L]: per-agent prefix and density tables, the
    interval prefilter on Fraction prefix values, each system built cut by
    cut in flat coordinates, and the part assembled on [0, L] and mapped
    back.  Parts that hold the origin get their own sign pattern and the
    agents' totals as constants, not the complement of a part that misses
    it.  It shares with the library only the LP.  Returns the part and
    complement of the first feasible system in canonical order, how many
    systems passed the prefilter and had consistent value equations that
    leave the last endpoint free or pin it inside its cell, up to and
    including it, and whether the part holds the origin."""
    n = len(valuations)
    length, offsets, flat = _flatten(subcake, valuations)
    edges = sorted({b for bps, _ in flat for b in bps})
    n_cells = len(edges) - 1
    prefix = [[_flat_value(bps, dens, e) for e in edges] for bps, dens in flat]
    cell_density = [[dens[bisect_right(bps, edges[c]) - 1] for c in range(n_cells)]
                    for bps, dens in flat]
    totals = [p[-1] for p in prefix]
    targets = [ratio * t for t in totals]
    checked = 0
    for m in range(1, max(1, n - 1) + 1):
        k = 2 * m
        for origin_inside in (False, True):
            signs = _arc_signs(k, origin_inside)
            base = totals if origin_inside else [ZERO] * n
            for cells in combinations_with_replacement(range(n_cells), k):
                ok = True
                for i in range(n):
                    p = prefix[i]
                    lo = hi = base[i]
                    for j, c in enumerate(cells):
                        if signs[j] > ZERO:
                            lo += p[c]
                            hi += p[c + 1]
                        else:
                            lo -= p[c + 1]
                            hi -= p[c]
                    if not (lo <= targets[i] <= hi):
                        ok = False
                        break
                if not ok:
                    continue
                constraints = _reference_system(
                    cells, signs, base, edges, prefix, cell_density, targets
                )
                if not _last_within(constraints[:n], edges[cells[-1]], edges[cells[-1] + 1]):
                    continue
                checked += 1
                if check_feasible(k, constraints):
                    witness = solve_feasibility(k, constraints)
                    flat_part = Region(_flat_arcs(witness, origin_inside, length))
                    part = _lift(flat_part, subcake, offsets)
                    return part, subcake.difference(part), checked, origin_inside
    raise AssertionError("reference scan found no split")


def _gauss_jordan(rows):
    """Gauss-Jordan elimination over Fractions of the equations (coeffs, EQ,
    rhs): whether they have a solution, no row being left as 0 = non-zero,
    and the value they pin the last variable to, or None if they leave it
    free.  In reduced row echelon form the last column holds a pivot
    exactly when its row reads  1 * x = value."""
    rows = [[F(q) for q in (*coeffs, rhs)] for coeffs, _, rhs in rows]
    width = len(rows[0]) - 1 if rows else 0
    rank, pinned = 0, None
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank]
        lead[:] = [q / lead[col] for q in lead]
        for r, row in enumerate(rows):
            if r != rank and row[col]:
                f = row[col]
                row[:] = [q - f * p for q, p in zip(row, lead)]
        rank += 1
        if col == width - 1:
            pinned = lead[-1]
    return not any(row[-1] for row in rows[rank:]), pinned


def _last_within(rows, lo, hi) -> bool:
    """Whether the equations have a solution and, if they pin the last
    variable, pin it inside [lo, hi]."""
    consistent, pinned = _gauss_jordan(rows)
    return consistent and (pinned is None or lo <= pinned <= hi)


def _reference_system(cells, signs, base, edges, prefix, cell_density, targets):
    k = len(cells)
    constraints = []
    for i, target in enumerate(targets):
        coeffs = [ZERO] * k
        const = base[i]
        for j, c in enumerate(cells):
            d = cell_density[i][c]
            s = signs[j]
            coeffs[j] = s * d
            const += s * (prefix[i][c] - d * edges[c])
        constraints.append((coeffs, EQ, target - const))
    for j, c in enumerate(cells):
        box_lo = [ZERO] * k
        box_lo[j] = ONE
        constraints.append((box_lo, GE, edges[c]))
        box_hi = [ZERO] * k
        box_hi[j] = ONE
        constraints.append((box_hi, LE, edges[c + 1]))
    for j in range(k - 1):
        if cells[j] == cells[j + 1]:
            row = [ZERO] * k
            row[j] = ONE
            row[j + 1] = -ONE
            constraints.append((row, LE, ZERO))
    return constraints


def _random_subcake(rng, components):
    """Up to ``components`` disjoint intervals with endpoints of
    denominator at most 8."""
    points = sorted({F(rng.randint(0, 8), 8) for _ in range(2 * components)})
    if len(points) % 2:
        points.pop()
    return Region([Interval(a, b) for a, b in zip(points[::2], points[1::2])])


class TestMatchesReferenceScan:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_seeded_requests(self, n, monkeypatch):
        checks = []
        monkeypatch.setattr(
            split, "check_feasible", lambda k, rows: checks.append(k) or check_feasible(k, rows)
        )
        rng = random.Random(5100 + n)
        cases = 0
        shapes, arcs = set(), set()
        while cases < 20:
            vals = tuple(random_valuation(rng, 3 if n <= 3 else 2, 8) for _ in range(n))
            subcake = FULL_CAKE if cases % 2 == 0 else _random_subcake(rng, 3)
            ratio = F(rng.randint(1, 7), 8)
            checks.clear()
            try:
                part, complement = exact_split(vals, subcake, ratio)
            except ValueError:  # an empty sub-cake, or one some agent values at 0
                continue
            expected = _reference_split(vals, subcake, ratio)[:3]
            assert (part, complement, len(checks)) == expected, (n, cases)
            shapes.add(len(subcake.intervals))
            arcs.add(pie_arc_count(part))
            cases += 1
        assert max(shapes) >= 2  # multi-component sub-cakes were exercised
        assert n == 2 or max(arcs) >= 2  # so was more than the first arc count


class TestPartsThatHoldTheOrigin:
    """Seeded requests whose first feasible part holds the pie's origin:
    rare among random draws, so found by search and pinned here.  The
    library's complement of a region worth the rest matches the reference
    scan's own origin-inside pattern, part, complement and LP calls."""

    @pytest.mark.parametrize("n, seed, components, arcs", [
        (2, 17, 1, 1), (2, 79, 2, 1), (3, 114, 2, 1), (3, 312, 1, 1), (3, 620, 3, 1),
        (4, 237, 1, 2), (4, 1832, 2, 2),
    ])
    def test_pinned_requests(self, n, seed, components, arcs, monkeypatch):
        checks = []
        monkeypatch.setattr(
            split, "check_feasible", lambda k, rows: checks.append(k) or check_feasible(k, rows)
        )
        rng = random.Random(seed)
        vals = tuple(random_valuation(rng, 3 if n <= 3 else 2, 8) for _ in range(n))
        subcake = FULL_CAKE if rng.random() < 0.5 else _random_subcake(rng, 3)
        ratio = F(rng.randint(1, 7), 8)
        *expected, inside = _reference_split(vals, subcake, ratio)
        assert inside
        part, complement = exact_split(vals, subcake, ratio)
        assert [part, complement, len(checks)] == expected
        assert len(subcake.intervals) == components
        assert pie_arc_count(part, subcake) == arcs


def _within_reach(table, cells, signs, base) -> bool:
    """The splitter's full-tuple interval prefilter before the prefix walk,
    kept as the reference for the walk's leaves.

    With the cuts anywhere in their cells (ordering ignored, so this is a
    relaxation), each agent's part value ranges over [lo, lo + width]: a
    cut with sign + adds at least F(left edge), one with sign - at least
    -F(right edge), and each cut widens the range by its cell's value.
    """
    for row, target, lo in zip(table.int_prefix, table.int_thresholds, base):
        width = 0
        for s, c in zip(signs, cells):
            lo += row[c] if s > 0 else -row[c + 1]
            width += row[c + 1] - row[c]
        if not (lo <= target <= lo + width):
            return False
    return True


def _cell_equations(table, cells, signs, base):
    """The value equations of a cut-cell tuple in cell coordinates, read
    straight off the integer running values: a cut of sign s in cell c adds
    s * (P[c] + (P[c+1] - P[c]) * t)."""
    rows = []
    for row, target, const in zip(table.int_prefix, table.int_thresholds, base):
        coeffs = [s * (row[c + 1] - row[c]) for s, c in zip(signs, cells)]
        const += sum(s * row[c] for s, c in zip(signs, cells))
        rows.append((coeffs, EQ, target - const))
    return rows


class TestWalkMatchesPrefilterScan:
    """The splitter's prefix walk yields exactly the tuples that the plain
    scan's full-tuple prefilter passes and whose value equations are
    consistent and leave the last cut free or pin it inside its cell, in
    the same order."""

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_leaves_are_the_tuples_the_prefilter_passes(self, k):
        rng = random.Random(7400 + k)
        cases, shapes, passing, boxed_out, kept, prefixes = 0, set(), 0, 0, [], 0
        while cases < 12:
            n = rng.randint(2, 4)
            vals = tuple(random_valuation(rng, 3 if n <= 3 else 2, 8) for _ in range(n))
            subcake = FULL_CAKE if cases % 2 == 0 else _random_subcake(rng, 3)
            table = CellTable(vals, [F(rng.randint(1, 7), 8)] * n, subcake)
            if min(table.totals) <= 0:  # an empty sub-cake, or one some agent values at 0
                continue
            for inside in (False, True):
                # the library searches a part that holds the origin as the
                # complement of one that misses it and is worth the rest
                signs = _arc_signs(k, inside)
                base = [row[-1] for row in table.int_prefix] if inside else [0] * n
                goals = [b - t if inside else t for b, t in zip(base, table.int_thresholds)]
                root, extend = split._reach(table, _arc_signs(k, False), goals)
                leaves = [cells for cells, _ in walk(
                    table.cells, k, root, extend, lambda units, tup, placed: kept.append(units)
                )]
                reached = [cells for cells in combinations_with_replacement(range(table.cells), k)
                           if _within_reach(table, cells, signs, base)]
                scan = [cells for cells in reached
                        if _last_within(_cell_equations(table, cells, signs, base), 0, 1)]
                assert leaves == scan, (k, cases, inside)
                passing += len(scan)
                boxed_out += len(reached) - len(scan)
                prefixes += sum(tuple_count(table.cells, j) for j in range(1, k + 1))
            shapes.add(len(subcake.intervals))
            cases += 1
        assert passing > 0 and boxed_out > 0 and max(shapes) >= 2
        # one unit per prefix kept, and prefixes do get pruned
        assert set(kept) == {1} and len(kept) < prefixes


class TestNullSpaceMatchesElimination:
    """The walk's tests of the value equations, the left null space carried
    cut by cut and the leaf test on it before the last cut, decide exactly
    as the LP's equality elimination and as a Fraction Gauss-Jordan
    elimination, on integer systems shaped like the splitter's."""

    def test_seeded_systems(self):
        rng = random.Random(1857)
        seen = set()
        for trial in range(600):
            n, k = rng.randint(1, 6), rng.randint(2, 10)
            cells = rng.randint(1, 5)
            # a cell no agent values gives a zero column; the scale q lets a
            # point drawn in steps of 1/q give an integer system
            dead = {c for c in range(cells) if rng.random() < 0.2}
            q = rng.randint(1, 4)
            prefix = []
            for _ in range(n):
                row = [0]
                for c in range(cells):
                    zero = c in dead or rng.random() < 0.3
                    row.append(row[-1] + (0 if zero else q * rng.randint(1, 9)))
                prefix.append(row)
            # few cells, so cuts share a cell and repeat a column
            tup = sorted(rng.randrange(cells) for _ in range(k))
            signs = [rng.choice((1, -1)) for _ in range(k)]
            base = [rng.randint(-20, 20) for _ in range(n)]
            columns = [[s * (row[c + 1] - row[c]) for row in prefix] for s, c in zip(signs, tup)]
            consts = [[s * row[c] for row in prefix] for s, c in zip(signs, tup)]
            const = [b + sum(step[i] for step in consts) for i, b in enumerate(base)]
            if trial % 2:
                # consistent by construction: the value at a point t = u / q
                # around the unit box, so a pinned last cut may fall inside
                # it, on its ends or outside
                u = [rng.randint(-q, 2 * q) for _ in range(k)]
                targets = [const[i] + sum(a[i] * uj for a, uj in zip(columns, u)) // q
                           for i in range(n)]
            else:
                targets = [rng.randint(-20, 20) for _ in range(n)]
            rows = [([a[i] for a in columns], EQ, targets[i] - const[i]) for i in range(n)]
            consistent, pinned = _gauss_jordan(rows)

            null = split._null_space([b - t for b, t in zip(base, targets)])
            for column, step in zip(columns[:-1], consts[:-1]):
                before = [dict(y) for y in null]
                restricted = split._restrict(null, column, step)
                assert null == before  # the parent's state is kept for its siblings
                assert len(before) - 1 <= len(restricted) <= len(before)
                null = restricted
            before = [dict(y) for y in null]
            decision = split._pinned_in_box(null, columns[-1], consts[-1])
            assert null == before  # the leaf test changes nothing it reads
            assert decision == (consistent and (pinned is None or 0 <= pinned <= 1)), trial
            # restricted by the last cut too, the null space decides
            # consistency as the LP's equality elimination does
            null = split._restrict(null, columns[-1], consts[-1])
            assert (not any(_RHS in y for y in null)) == consistent, trial
            assert consistent == (_eliminate_equalities(k, rows) is not None), trial
            if not consistent:
                kind = "contradicting"
            elif pinned is None:
                kind = "free"
            else:
                kind = "edge" if pinned in (0, 1) else "inside" if 0 < pinned < 1 else "outside"
            seen.add((kind, decision, k < n, any(not any(a) for a in columns)))
        # every outcome, with fewer cuts than agents and with more, and with
        # a zero column
        assert {kind for kind, *_ in seen} == {"contradicting", "free", "edge", "inside", "outside"}
        assert {(True, True), (False, True), (True, False), (False, False)} <= {
            (d, few) for _, d, few, _ in seen
        }
        assert {(True, True), (False, True)} <= {(d, zero) for _, d, _, zero in seen}

    @pytest.mark.parametrize("alpha", [10**12, -10**12])
    def test_the_box_is_closed(self, alpha):
        # one agent's equation  alpha * t = -beta  pins t = -beta / alpha:
        # kept on the box's ends, dropped a 10^-12 step outside them
        for t, kept in ((0, True), (1, True), (F(-1, 10**12), False), (1 + F(1, 10**12), False)):
            beta = -t * alpha
            assert beta.denominator == 1
            null = split._null_space([int(beta) - 5])
            assert split._pinned_in_box(null, [alpha], [5]) is kept, t
        assert split._pinned_in_box(split._null_space([0]), [0], [0])  # a free last cut
        assert not split._pinned_in_box(split._null_space([1]), [0], [0])

    def test_the_lp_sees_no_last_cut_pinned_outside_its_cell(self, monkeypatch):
        # every system the splitter hands the LP leaves its last cut free or
        # pins it inside the unit box; systems pinned on the box's ends,
        # which the LP's closed box allows, still reach it
        pins = []

        def check(k, rows):
            consistent, pinned = _gauss_jordan([row for row in rows if row[1] == EQ])
            assert consistent and (pinned is None or 0 <= pinned <= 1), (rows, pinned)
            pins.append(pinned)
            return check_feasible(k, rows)

        monkeypatch.setattr(split, "check_feasible", check)
        for seed in range(400, 600):
            rng = random.Random(seed)
            n = rng.randint(2, 3)
            vals = tuple(random_valuation(rng, 3, 4) for _ in range(n))
            subcake = FULL_CAKE if rng.random() < 0.5 else _random_subcake(rng, 3)
            try:
                exact_split(vals, subcake, F(rng.randint(1, 3), 4))
            except ValueError:  # an empty sub-cake, or one some agent values at 0
                continue
        assert 0 in pins and 1 in pins and len(pins) > 100


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
                split.exact_split(
                    (Valuation((Fraction(0), Fraction(1)), (Fraction(1),)), skewed),
                    FULL_CAKE, Fraction(1, 2))
            except InternalCheckFailed:
                print("raised InternalCheckFailed")
        """
        assert run_optimized(script, tmp_path) == ["optimize", "1", "raised", "InternalCheckFailed"]
