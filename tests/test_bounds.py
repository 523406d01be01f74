import re
from bisect import bisect_right
from fractions import Fraction as F
from itertools import combinations_with_replacement, product
from operator import sub
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from entitled_cuts import bounds
from entitled_cuts.bounds import (
    CutBudgetCertificate,
    _allocation_from_cuts,
    _map_count,
    _map_rank,
    certificates,
    feasible_with_k_cuts,
    gen_lower_bound_instance,
    min_cuts,
)
from entitled_cuts.cells import Work, tuple_count, tuple_rank, walk
from entitled_cuts.errors import BudgetExceeded, NotFoundWithin
from entitled_cuts.feasibility import GE, LE, check_feasible, solve_feasibility
from entitled_cuts.generate import random_instance
from entitled_cuts.model import ONE, ZERO, Instance, measure_of
from entitled_cuts.verifier import verify_allocation

from conftest import make_instance, pw, reference_cumulative
from test_feasibility import _exact, _fm_feasible, _unit_box


class TestLowerBoundFamily:
    def test_two_agents(self):
        inst = gen_lower_bound_instance(2)
        assert inst.entitlements == (F(11, 20), F(9, 20))
        assert inst.valuations[0].breakpoints == (F(0), F(1, 3), F(2, 3), F(1))
        assert inst.valuations[0].densities[1] == ZERO  # middle cell empty for agent 1
        assert inst.valuations[1].densities[0] == ZERO
        assert inst.valuations[1].densities[1] > ZERO

    def test_three_agents(self):
        inst = gen_lower_bound_instance(3)
        assert inst.entitlements == (F(7, 10), F(3, 20), F(3, 20))
        assert len(inst.valuations[0].densities) == 5
        # agent 1 on odd cells (1-indexed), agents 2..3 on cells 2 and 4
        assert [d > ZERO for d in inst.valuations[0].densities] == [True, False, True, False, True]
        assert [d > ZERO for d in inst.valuations[1].densities] == [False, True, False, False, False]
        assert [d > ZERO for d in inst.valuations[2].densities] == [False, False, False, True, False]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_entitlements_sum_to_one(self, n):
        # Instance construction enforces the sum; also pin the formulas
        inst = gen_lower_bound_instance(n)
        assert inst.entitlements[0] == F(10 * n - 9, 10 * n)
        assert set(inst.entitlements[1:]) == {F(9, 10 * n * (n - 1))}

    def test_needs_two_agents(self):
        with pytest.raises(ValueError):
            gen_lower_bound_instance(1)


class TestOracle:
    def test_single_cut_cannot_serve_the_family(self):
        cert = feasible_with_k_cuts(gen_lower_bound_instance(2), 1)
        assert not cert.feasible
        assert cert.allocation is None
        assert cert.systems_examined > 0

    def test_two_cuts_suffice_with_verified_witness(self):
        inst = gen_lower_bound_instance(2)
        cert = feasible_with_k_cuts(inst, 2)
        assert cert.feasible
        report = verify_allocation(inst, cert.allocation)
        assert report.passed and len(report.cuts) <= 2

    def test_single_agent_zero_cuts(self, uniform):
        cert = feasible_with_k_cuts(make_instance([uniform], [1]), 0)
        assert cert.feasible
        assert measure_of(uniform, cert.allocation.pieces[0]) == 1

    def test_zero_cuts_infeasible_for_two_agents(self, uniform):
        cert = feasible_with_k_cuts(make_instance([uniform, uniform], ["1/2", "1/2"]), 0)
        assert not cert.feasible

    def test_budget_exceeded_is_loud(self):
        with pytest.raises(BudgetExceeded):
            feasible_with_k_cuts(gen_lower_bound_instance(3), 4, budget=10)

    def test_monotone_in_k(self):
        for seed in range(4):
            inst = random_instance(2, 300 + seed, max_cells=2, denom_bound=6)
            found = min_cuts(inst, 3)
            assert feasible_with_k_cuts(inst, found + 1).feasible

    def test_adjacency_pruning_preserves_decisions(self):
        # differential guard for the symmetry pruning: the oracle, which
        # never visits maps giving adjacent pieces to one agent, decides as
        # the plain scan over every map does
        cases = [random_instance(2, s, max_cells=2, denom_bound=6) for s in range(3)]
        cases += [random_instance(3, s, max_cells=2, denom_bound=6) for s in range(2)]
        cases.append(gen_lower_bound_instance(2))
        for inst in cases:
            for k in range(0, 3):
                pruned = feasible_with_k_cuts(inst, k)
                full = _reference_certificate(inst, k, _unpruned_maps(inst.n, k + 1))
                assert pruned.feasible == full.feasible, (inst, k)

    @pytest.mark.parametrize("inst, k", [
        (gen_lower_bound_instance(2), 2),
        (gen_lower_bound_instance(3), 4),
        (random_instance(3, 4107), 3),
    ])
    def test_witness_cuts_are_fractions(self, inst, k):
        # cuts come back from cell coordinates; an int / int there is a float
        cert = feasible_with_k_cuts(inst, k)
        assert cert.feasible
        for piece in cert.allocation.pieces:
            for iv in piece.intervals:
                assert type(iv.lo) is F and type(iv.hi) is F, iv

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agent_maps_match_product_and_filter(self, n):
        # the oracle never lists its maps: it counts them and ranks the
        # witness's map, and both must match the product-and-filter list
        for pieces in range(1, 8):
            maps = _alternating_maps(n, pieces)
            assert _map_count(n, pieces) == len(maps), (n, pieces)
            assert [_map_rank(n, a) for a in maps] == list(range(len(maps))), (n, pieces)

    @pytest.mark.parametrize("n, k, count", [
        (4, 6, 2160), (5, 7, 42000), (5, 8, 204120), (6, 9, 5004720),
    ])
    def test_map_counts_by_inclusion_exclusion(self, n, k, count):
        assert _map_count(n, k + 1) == count

    def test_tuple_rank_is_the_position(self):
        for cells in range(1, 6):
            for k in range(5):
                tuples = list(combinations_with_replacement(range(cells), k))
                assert tuple_count(cells, k) == len(tuples)
                assert [tuple_rank(cells, t) for t in tuples] == list(range(len(tuples)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_single_agent_owns_every_piece(self, k):
        # with one agent, adjacent pieces share their owner: the one map
        # (0, ..., 0) at the first tuple is the witness
        inst = make_instance([pw("0 1/2 1", "1 3")], [1])
        cert = feasible_with_k_cuts(inst, k)
        assert cert.feasible and cert.systems_examined == 1
        assert cert == _reference_certificate(inst, k, _alternating_maps(1, k + 1))
        assert verify_allocation(inst, cert.allocation).passed

    def test_deterministic_certificates(self):
        inst = gen_lower_bound_instance(2)
        assert feasible_with_k_cuts(inst, 2) == feasible_with_k_cuts(inst, 2)


class TestMinCuts:
    def test_lower_bound_two_agents(self):
        assert min_cuts(gen_lower_bound_instance(2), 4) == 2

    def test_single_agent(self, uniform):
        assert min_cuts(make_instance([uniform], [1]), 2) == 0

    def test_not_found_within(self):
        with pytest.raises(NotFoundWithin) as info:
            min_cuts(gen_lower_bound_instance(2), 1)
        assert info.value.k_max == 1

    def test_certificates_share_one_table(self):
        # one certificate per k up to the first feasible one, each equal to
        # the one feasible_with_k_cuts decides alone, all over one table
        inst = gen_lower_bound_instance(3)
        with patch.object(bounds, "CellTable", wraps=bounds.CellTable) as table:
            certs = list(certificates(inst, 6))
        assert table.call_count == 1
        assert [c.k for c in certs] == [0, 1, 2, 3, 4]
        assert certs == [feasible_with_k_cuts(inst, k) for k in range(5)]
        assert [c.k for c in certificates(inst, 2)] == [0, 1, 2]

    def test_negative_k_max(self, uniform):
        inst = make_instance([uniform], [1])
        with pytest.raises(ValueError, match="cut budget must be nonnegative"):
            feasible_with_k_cuts(inst, -1)
        with pytest.raises(ValueError):
            min_cuts(inst, -1)
        with pytest.raises(ValueError):  # at the call, before any iteration
            certificates(inst, -1)

    def test_never_beats_protocol_cut_counts(self):
        from entitled_cuts.protocols import recursive_divide

        for seed in range(3):
            inst = random_instance(2, 600 + seed, max_cells=2, denom_bound=6)
            achieved = len(recursive_divide(inst).cuts)
            assert min_cuts(inst, achieved) <= achieved


def _unpruned_maps(n, pieces):
    """Every piece-to-agent map that leaves no agent empty-handed, in
    lexicographic order, adjacent pieces of one owner included."""
    return [a for a in product(range(n), repeat=pieces) if len(set(a)) == n]


def _alternating_maps(n, pieces):
    """The maps the oracle ranges over, by product and filter: for n >= 2,
    no agent owns two adjacent pieces."""
    return [
        a for a in _unpruned_maps(n, pieces)
        if n == 1 or all(x != y for x, y in zip(a, a[1:]))
    ]


def _reference_certificate(instance, k, maps, sent=None):
    """The oracle as a plain scan: every map in ``maps`` for every cut-cell
    tuple, in canonical order, through the interval prefilter in Fraction
    arithmetic.  No budget; over the oracle's own maps, the library's
    pruned integer walk must agree with it certificate for certificate.
    Each combination the scan hands to the LP is appended to ``sent`` as
    (cut cells, owners)."""
    n = instance.n
    edges = sorted({b for v in instance.valuations for b in v.breakpoints})
    n_cells = len(edges) - 1
    prefix = [[reference_cumulative(v, e) for e in edges] for v in instance.valuations]
    cell_density = [
        [v.densities[bisect_right(v.breakpoints, edges[c]) - 1] for c in range(n_cells)]
        for v in instance.valuations
    ]
    thresholds = [t * v.total for t, v in zip(instance.entitlements, instance.valuations)]
    # subsets[i]: every set of pieces a map gives agent i; owned[m][i]: the
    # index of maps[m]'s set there.  Each tuple sums each set once.
    given = [[tuple(j for j, a in enumerate(assign) if a == i) for i in range(n)] for assign in maps]
    subsets = [sorted({sets[i] for sets in given}) for i in range(n)]
    owned = [tuple(subsets[i].index(s) for i, s in enumerate(sets)) for sets in given]
    examined = 0
    for cells in combinations_with_replacement(range(n_cells), k):
        lo_idx = (0,) + tuple(cells) + (n_cells,)
        hi_idx = (0,) + tuple(c + 1 for c in cells) + (n_cells,)
        reaches = []
        for p, row, t in zip(prefix, subsets, thresholds):
            gains = [max(p[hi_idx[j + 1]] - p[lo_idx[j]], ZERO) for j in range(k + 1)]
            reaches.append([sum((gains[j] for j in s), ZERO) >= t for s in row])
        for assign, ids in zip(maps, owned):
            examined += 1
            if not all(r[x] for r, x in zip(reaches, ids)):
                continue
            if k == 0:  # no cut variables: the bound is the exact value
                return CutBudgetCertificate(
                    k, True, _allocation_from_cuts(n, (), assign), examined
                )
            if sent is not None:
                sent.append((cells, assign))
            constraints = _reference_system(
                n, k, cells, assign, edges, prefix, cell_density, thresholds
            )
            if check_feasible(k, constraints):
                witness = solve_feasibility(k, constraints)
                allocation = _allocation_from_cuts(n, witness, assign)
                return CutBudgetCertificate(k, True, allocation, examined)
    return CutBudgetCertificate(k, False, None, examined)


def _reference_system(n, k, cells, assign, edges, prefix, cell_density, thresholds):
    """Linear constraints over the k cut variables for one combination,
    built endpoint by endpoint and independently of the library's rows."""
    constraints = []
    for i in range(n):
        coeffs = [ZERO] * k
        const = ZERO
        for j, owner in enumerate(assign):
            if owner != i:
                continue
            # piece j's value is F_i(y_{j+1}) - F_i(y_j); y_0 = 0, y_{k+1} = 1
            for endpoint, sign in ((j + 1, ONE), (j, -ONE)):
                if endpoint == 0:
                    continue
                if endpoint == k + 1:
                    const += sign * prefix[i][-1]
                    continue
                c = cells[endpoint - 1]
                d = cell_density[i][c]
                coeffs[endpoint - 1] += sign * d
                const += sign * (prefix[i][c] - d * edges[c])
        constraints.append((coeffs, GE, thresholds[i] - const))
    for j, c in enumerate(cells):
        row_lo = [ZERO] * k
        row_lo[j] = ONE
        constraints.append((row_lo, GE, edges[c]))
        row_hi = [ZERO] * k
        row_hi[j] = ONE
        constraints.append((row_hi, LE, edges[c + 1]))
    for j in range(k - 1):
        if cells[j] == cells[j + 1]:
            row = [ZERO] * k
            row[j] = ONE
            row[j + 1] = -ONE
            constraints.append((row, LE, ZERO))
    return constraints


def _walk(inst, k, first_feasible=None):
    """The library's certificate and the combinations its walk hands the
    LP, in order, as (cut cells, owners); with ``first_feasible``, those of
    that walk in place of the library's.  Each LP check must be of the
    system built last, and no system is checked twice."""
    sent, built = [], []
    build, check = bounds._oracle_system, bounds.check_feasible

    def recording_build(table, cells, assign):
        constraints = build(table, cells, assign)
        built.append(((tuple(cells), tuple(assign)), constraints))
        return constraints

    def recording_check(num_vars, constraints):
        combination, last = built[-1]
        assert constraints is last and sent[-1:] != [combination]
        sent.append(combination)
        return check(num_vars, constraints)

    with patch.object(bounds, "_oracle_system", recording_build), \
            patch.object(bounds, "check_feasible", recording_check), \
            patch.object(bounds, "_first_feasible", first_feasible or bounds._first_feasible):
        cert = feasible_with_k_cuts(inst, k)
    return cert, sent


def _ordered_box_vertices(cells):
    """The vertices of the LP's domain over cuts in ``cells``: the 0/1
    vectors that never fall along a run of cuts in one cell."""
    return [
        x for x in product((0, 1), repeat=len(cells))
        if all(a <= b for a, b, c, d in zip(x, x[1:], cells, cells[1:]) if c == d)
    ]


def _reaches_at_a_vertex(cells, constraints):
    """The ordered-chain bound by brute force: every >= row holds at some
    vertex of the LP's domain, where a linear row takes its maximum."""
    vertices = _ordered_box_vertices(cells)
    return all(
        any(sum(c * x for c, x in zip(coeffs, v)) >= rhs for v in vertices)
        for coeffs, relation, rhs in constraints if relation == GE
    )


def _reference_first_feasible(table, k, budget):
    """The oracle walk with one node per owner prefix and no memo of dead
    states, the reference for the library's walk, which merges owner
    prefixes of equal state and drops states known to reach no leaf: the
    same tests, applied to every owner prefix on its own, and the maps
    that pass at a full tuple handed to the LP in the order the walk makes
    them, once their rows reach at a vertex of the ordered box.  Its work
    unit is owner prefixes kept plus systems built."""
    n = len(table.int_thresholds)
    pieces = k + 1
    ncells = table.cells
    at = [tuple(row[e] for row in table.int_prefix) for e in range(ncells + 1)]
    at.append(at[-1])
    allowed = [
        tuple(a for a in range(n) if a != last or n == 1) for last in range(n)
    ] + [tuple(range(n))]
    work = Work(budget, ncells, "oracle", "owner prefixes kept plus systems built", f"k={k}")

    def extend(frontier, lo, c, depth):
        # an owner prefix is (slack, last owner, needy agents as a bitmask, owners)
        drop = list(map(sub, at[c], at[lo]))
        gain = list(map(sub, at[c + 1], at[lo]))
        rest = list(map(sub, at[-1], at[c]))
        left = pieces - depth - 1
        barred = left == 1 and n > 1
        out, alive = [], []
        for node in frontier:
            slack, last, needy, assign = node
            base = list(map(sub, slack, drop))
            low = min(base)
            if low < 0:
                a = base.index(low)
                base[a] = 0
                if min(base) < 0 or a not in allowed[last]:
                    continue
                base[a] = low
                owners = (a,)
            else:
                owners = allowed[last]
            alive.append(node)
            for a in owners:
                value = base[a] + gain[a]
                still = needy & ~(1 << a) if value >= rest[a] else needy
                if still.bit_count() <= left and not (barred and still >> a & 1):
                    child = base[:]
                    child[a] = value
                    out.append((child, a, still, assign + (a,)))
        return out, alive

    root = (list(map(sub, at[-1], table.int_thresholds)), n, (1 << n) - 1, ())
    for cells, frontier in walk(ncells, k, [root], extend, work.spend):
        for _, _, _, assign in extend(frontier, cells[-1] if k else 0, ncells, k)[0]:
            if k == 0:
                return (), assign, ()
            work.spend(1, cells, k)
            constraints = bounds._oracle_system(table, cells, assign)
            if _reaches_at_a_vertex(cells, constraints) and bounds.check_feasible(k, constraints):
                t = solve_feasibility(k, constraints)
                return cells, assign, table.to_cuts(cells, t)
    return None


def _assert_matches_per_prefix_walk(inst, k):
    """The certificate, and the systems handed to the LP in order, equal
    those of the walk with one node per owner prefix."""
    cert, sent = _walk(inst, k)
    assert (cert, sent) == _walk(inst, k, _reference_first_feasible), (inst, k)
    return cert


def _assert_matches_reference(inst, k, reference_pruned):
    """With ``reference_pruned``, the certificate equals the plain scan's
    over the oracle's own (pruned) maps, and the systems the walk hands the
    LP are a subsequence, in order, of those the scan hands it.  Without
    it, the scan runs over every map, adjacent pieces of one owner
    included: the decision must be the same, which checks the pruning,
    and a witness must verify."""
    cert, walked = _walk(inst, k)
    if reference_pruned:
        scanned = []
        assert cert == _reference_certificate(inst, k, _alternating_maps(inst.n, k + 1), scanned)
        rest = iter(scanned)
        assert all(system in rest for system in walked), (inst, k)
        if cert.feasible and k:
            assert walked[-1] == scanned[-1]
    else:
        full = _reference_certificate(inst, k, _unpruned_maps(inst.n, k + 1))
        assert cert.feasible == full.feasible
        if cert.feasible:
            assert verify_allocation(inst, cert.allocation).passed
    return cert


class TestPrunedPrefilterMatchesFractionScan:
    @pytest.mark.parametrize("n, reference_pruned", [
        (2, False), (2, True), (3, False), (3, True), (4, True),
    ])
    def test_lower_bound_family(self, n, reference_pruned):
        inst = gen_lower_bound_instance(n)
        for k in range(2 * n - 1):
            cert = _assert_matches_reference(inst, k, reference_pruned)
            assert cert.feasible == (k == 2 * n - 2), (n, k)

    @pytest.mark.parametrize("reference_pruned", [True, False])
    @pytest.mark.parametrize("n", [2, 3])
    def test_random_pools(self, n, reference_pruned):
        outcomes = set()
        for seed in range(12):
            inst = random_instance(n, 4100 + seed)
            for k in range(4):
                cert = _assert_matches_reference(inst, k, reference_pruned)
                outcomes.add(cert.feasible)
        assert outcomes == {True, False}

    def test_random_pools_four_agents(self):
        # with four agents the needy agents often outnumber the pieces left;
        # one large entitlement makes some of these pools infeasible
        entitlements = (F(31, 40), F(3, 40), F(3, 40), F(3, 40))
        outcomes = set()
        for seed in range(8):
            vals = random_instance(4, 4200 + seed, max_cells=4).valuations
            inst = Instance(vals, entitlements)
            for k in (3, 4):
                cert = _assert_matches_reference(inst, k, reference_pruned=True)
                outcomes.add(cert.feasible)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("reference_pruned", [True, False])
    def test_threshold_ties(self, reference_pruned):
        # an agent whose bound from the cut cells equals its threshold exactly
        # still passes: on one piece (uniform agent left of a cut in [0, 1/2]),
        # on the sum of all pieces (a lone agent that values nothing in the
        # cut's cell), and before the last piece (the uniform agent's first
        # piece, up to a cut in [0, 1/3], makes it not needy, which leaves
        # two needy agents for two pieces: the witness is system 7, the first
        # map of the second tuple)
        cases = [
            make_instance([pw("0 1", "1"), pw("0 1/2 1", "0 2")], ["1/2", "1/2"]),
            make_instance([pw("0 1/2 1", "0 2")], [1]),
            make_instance(
                [pw("0 1", "1"), pw("0 1/3 2/3 1", "0 3 0"), pw("0 2/3 1", "0 3")],
                ["1/3", "1/3", "1/3"],
            ),
        ]
        for inst in cases:
            for k in range(3):
                _assert_matches_reference(inst, k, reference_pruned)

    def test_four_agent_proof_counts(self):
        inst = gen_lower_bound_instance(4)
        certs = [feasible_with_k_cuts(inst, k) for k in range(3, 7)]
        assert [c.systems_examined for c in certs] == [2016, 30240, 277200, 617775]
        assert [c.feasible for c in certs] == [False, False, False, True]
        report = verify_allocation(inst, certs[-1].allocation)
        assert report.passed and len(report.cuts) <= 6

    def test_four_agent_work(self):
        # owner states kept plus systems built on the n = 4 family, exactly: a
        # walk that prunes, merges or remembers less runs out of these
        # budgets (without the memo of dead states it does 0, 9, 65 and 115
        # units, and with one node per owner prefix 0, 9, 90 and 507).  At
        # k = 3 the needy-agent bound drops every owner of the first piece,
        # so the walk does no work
        inst = gen_lower_bound_instance(4)
        for k, work in ((3, 0), (4, 7), (5, 28), (6, 63)):
            assert feasible_with_k_cuts(inst, k, budget=work).feasible == (k == 6)
            if work:
                with pytest.raises(BudgetExceeded, match=f"at k={k}: {work} units of work done"):
                    feasible_with_k_cuts(inst, k, budget=work - 1)

    def test_needy_owner_of_the_next_to_last_piece_work(self):
        # exact work on a random two-agent pool, where some owners
        # of the next-to-last piece are still needy: the last piece goes to
        # the other agent, so the walk drops them (and would do 8 units
        # without that rule)
        inst = random_instance(2, 506, max_cells=4)
        assert feasible_with_k_cuts(inst, 2, budget=6).feasible
        with pytest.raises(BudgetExceeded, match="at k=2: 6 units of work done"):
            feasible_with_k_cuts(inst, 2, budget=5)

    def test_five_agent_proof(self):
        # the 2n - 2 bound at n = 5 under the default budget
        inst = gen_lower_bound_instance(5)
        below = feasible_with_k_cuts(inst, 7)
        assert not below.feasible and below.systems_examined == 270270000
        cert = feasible_with_k_cuts(inst, 8)
        assert cert.feasible and cert.systems_examined == 833014150
        report = verify_allocation(inst, cert.allocation)
        assert report.passed and len(report.cuts) <= 8

    def test_six_agent_proof(self):
        # the 2n - 2 bound at n = 6 under the default budget, decided over
        # one table as min-cuts decides it
        inst = gen_lower_bound_instance(6)
        certs = list(certificates(inst, 10))
        assert [c.k for c in certs] == list(range(11))
        below, cert = certs[-2:]
        assert not below.feasible and below.systems_examined == 462326024160
        assert cert.feasible and cert.systems_examined == 1815004448777
        report = verify_allocation(inst, cert.allocation)
        assert report.passed and len(report.cuts) <= 10

    def test_eight_agent_proof(self):
        # the 2n - 2 bound at n = 8, as min-cuts proves it
        inst = gen_lower_bound_instance(8)
        *_, below, cert = certificates(inst, 14)
        assert (below.k, cert.k) == (13, 14)
        assert not below.feasible and below.systems_examined == 4622352909318144000
        assert cert.feasible and cert.systems_examined == 25911587181984444307
        report = verify_allocation(inst, cert.allocation)
        assert report.passed and len(report.cuts) <= 14

    def test_budget_bounds_the_work_done(self):
        # a run stops once its work passes the budget and says how far it
        # got; raised to the work reached each time, the budget eventually
        # covers the whole search, which then returns the unbounded result
        inst = gen_lower_bound_instance(3)
        for k in (3, 4):
            unbounded = feasible_with_k_cuts(inst, k)
            budget, ranks = 0, []
            while True:
                try:
                    cert = feasible_with_k_cuts(inst, k, budget=budget)
                    break
                except BudgetExceeded as exc:
                    reached = re.search(
                        r"at k=(\d+): (\d+) units of work done .* tuple (\d+) of (\d+)", str(exc)
                    )
                    assert int(reached[1]) == k and int(reached[2]) > budget
                    assert int(reached[3]) < int(reached[4])
                    ranks.append(int(reached[3]))
                    budget = int(reached[2])
            assert cert == unbounded
            assert len(ranks) > 1 and ranks == sorted(ranks)
            with pytest.raises(BudgetExceeded, match=f": {budget} units of work done"):
                feasible_with_k_cuts(inst, k, budget=budget - 1)


class TestMergedStatesMatchPerPrefixWalk:
    """Owner prefixes of equal state share one node, so each state is
    extended once, and a state known to reach no leaf is dropped; the walk
    with one node per owner prefix, and no memo, is the reference.  Both
    must hand the LP the same systems in the same order and return the
    same certificate."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_lower_bound_family(self, n):
        inst = gen_lower_bound_instance(n)
        for k in range(2 * n - 1):
            cert = _assert_matches_per_prefix_walk(inst, k)
            assert cert.feasible == (k == 2 * n - 2), (n, k)

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_pools(self, n):
        outcomes = set()
        for seed in range(12):
            inst = random_instance(n, 4100 + seed)
            for k in range(4):
                outcomes.add(_assert_matches_per_prefix_walk(inst, k).feasible)
        assert outcomes == {True, False}

    def test_random_pools_four_agents(self):
        # a memo that told reached states by the ids of freed nodes, which
        # new nodes reuse, recorded live states dead here
        entitlements = (F(31, 40), F(3, 40), F(3, 40), F(3, 40))
        outcomes = set()
        for seed in range(8):
            vals = random_instance(4, 4200 + seed, max_cells=4).valuations
            inst = Instance(vals, entitlements)
            for k in (3, 4):
                outcomes.add(_assert_matches_per_prefix_walk(inst, k).feasible)
        assert outcomes == {True, False}


def _ordering_rows(cells):
    """t_j <= t_{j+1} for each pair of neighbouring cuts in one cell."""
    k = len(cells)
    return [
        (tuple(int(v == j) - int(v == j + 1) for v in range(k)), LE, 0)
        for j in range(k - 1) if cells[j] == cells[j + 1]
    ]


@st.composite
def _cut_cells(draw, max_k):
    k = draw(st.integers(min_value=1, max_value=max_k))
    return tuple(sorted(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))))


class TestOrderedChainBound:
    """At a full tuple the oracle bounds each agent's row over the LP's own
    domain, the unit box with the cuts of one cell in order, before it
    calls the LP."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bound_is_the_vertex_maximum(self, data):
        cells = data.draw(_cut_cells(6))
        coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=len(cells), max_size=len(cells)))
        top = max(sum(c * x for c, x in zip(coeffs, v)) for v in _ordered_box_vertices(cells))
        assert bounds._ordered_reach(cells, [(coeffs, GE, top)])
        assert not bounds._ordered_reach(cells, [(coeffs, GE, top + 1)])

    def test_one_cell_credited_once(self):
        # an agent owns the pieces on both sides of a foreign piece inside
        # one cell: the box alone would credit the cell's mass twice
        cells, row = (0, 0), ((3, -3), GE, 1)
        assert not bounds._ordered_reach(cells, [row])
        assert bounds._ordered_reach((0, 1), [row])
        assert not check_feasible(2, [row, *_ordering_rows(cells)])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_refuted_systems_are_infeasible(self, data):
        cells = data.draw(_cut_cells(5))
        k = len(cells)
        rows = []
        for _ in range(data.draw(st.integers(1, 3))):
            coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k))
            box_top = sum(c for c in coeffs if c > 0)
            rows.append((coeffs, GE, data.draw(st.integers(-3, box_top))))
        constraints = rows + _ordering_rows(cells)
        if not bounds._ordered_reach(cells, constraints):
            assert not _reaches_at_a_vertex(cells, constraints)
            assert not check_feasible(k, constraints)
            if k <= 4:
                assert not _fm_feasible(k, _exact(constraints) + _unit_box(k))

    def test_pruned_checks_on_a_two_agent_pool(self):
        # three of the four systems the prefilter passes here hold an agent
        # on both sides of a foreign piece in one cell; the bound refutes
        # them, so the LP is called once, on the witness's system, and the
        # certificate is the Fraction scan's
        inst = random_instance(2, 5, max_cells=3)
        cert, checked = _walk(inst, 3)
        scanned = []
        assert cert == _reference_certificate(inst, 3, _alternating_maps(2, 4), scanned)
        assert cert.feasible and cert.systems_examined == 8
        assert (len(checked), len(scanned)) == (1, 4)
