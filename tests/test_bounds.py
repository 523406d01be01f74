from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import comb

import pytest

from entitled_cuts.bounds import (
    CutBudgetCertificate,
    _agent_maps,
    _allocation_from_cuts,
    _oracle_system,
    feasible_with_k_cuts,
    gen_lower_bound_instance,
    instance_digest,
    min_cuts,
)
from entitled_cuts.errors import BudgetExceeded, NotFoundWithin
from entitled_cuts.feasibility import check_feasible, solve_feasibility
from entitled_cuts.generate import random_instance
from entitled_cuts.model import ZERO, measure_of
from entitled_cuts.verifier import verify_allocation

from conftest import make_instance, pw


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
        assert report.passed and report.cut_count <= 2

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

    def test_certificate_digest_tracks_instance(self, uniform):
        a = gen_lower_bound_instance(2)
        b = gen_lower_bound_instance(3)
        assert instance_digest(a) != instance_digest(b)
        assert feasible_with_k_cuts(a, 2).instance_digest == instance_digest(a)

    def test_monotone_in_k(self):
        for seed in range(4):
            inst = random_instance(2, 300 + seed, max_cells=2, denom_bound=6)
            found = min_cuts(inst, 3)
            assert feasible_with_k_cuts(inst, found + 1).feasible

    def test_adjacency_pruning_preserves_decisions(self):
        # differential guard for the optional symmetry pruning
        cases = [random_instance(2, s, max_cells=2, denom_bound=6) for s in range(3)]
        cases += [random_instance(3, s, max_cells=2, denom_bound=6) for s in range(2)]
        cases.append(gen_lower_bound_instance(2))
        for inst in cases:
            for k in range(0, 3):
                pruned = feasible_with_k_cuts(inst, k, prune_adjacent=True)
                full = feasible_with_k_cuts(inst, k, prune_adjacent=False)
                assert pruned.feasible == full.feasible, (instance_digest(inst), k)

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

    def test_never_beats_protocol_cut_counts(self):
        from entitled_cuts.protocols import recursive_divide

        for seed in range(3):
            inst = random_instance(2, 600 + seed, max_cells=2, denom_bound=6)
            achieved = len(recursive_divide(inst).cuts)
            assert min_cuts(inst, achieved) <= achieved


def _reference_certificate(instance, k, prune_adjacent=True):
    """The oracle as a plain scan: every map of every cut-cell tuple, in
    canonical order, through the interval prefilter in Fraction arithmetic.
    No budget; the library's pruned integer walk must agree with it
    certificate for certificate."""
    n = instance.n
    digest = instance_digest(instance)
    maps = _agent_maps(n, k + 1, prune_adjacent)
    edges = sorted({b for v in instance.valuations for b in v.breakpoints})
    n_cells = len(edges) - 1
    prefix = [[v.cumulative(e) for e in edges] for v in instance.valuations]
    cell_density = [
        [v.density_at(edges[c]) for c in range(n_cells)] for v in instance.valuations
    ]
    thresholds = [t * v.total for t, v in zip(instance.entitlements, instance.valuations)]
    examined = 0
    for cells in combinations_with_replacement(range(n_cells), k):
        lo_idx = (0,) + tuple(cells) + (n_cells,)
        hi_idx = (0,) + tuple(c + 1 for c in cells) + (n_cells,)
        for assign in maps:
            examined += 1
            ok = True
            for i in range(n):
                p = prefix[i]
                upper = ZERO
                for j, owner in enumerate(assign):
                    if owner == i:
                        gain = p[hi_idx[j + 1]] - p[lo_idx[j]]
                        if gain > ZERO:
                            upper += gain
                if upper < thresholds[i]:
                    ok = False
                    break
            if not ok:
                continue
            if k == 0:  # no cut variables: the bound is the exact value
                return CutBudgetCertificate(
                    digest, k, True, _allocation_from_cuts(n, (), assign), examined
                )
            constraints = _oracle_system(
                n, k, cells, assign, edges, prefix, cell_density, thresholds
            )
            if check_feasible(k, constraints):
                witness = solve_feasibility(k, constraints).witness
                allocation = _allocation_from_cuts(n, witness, assign)
                return CutBudgetCertificate(digest, k, True, allocation, examined)
    return CutBudgetCertificate(digest, k, False, None, examined)


def _projected(instance, k, prune_adjacent=True):
    n_cells = len({b for v in instance.valuations for b in v.breakpoints}) - 1
    return comb(n_cells + k - 1, k) * len(_agent_maps(instance.n, k + 1, prune_adjacent))


class TestPrunedPrefilterMatchesFractionScan:
    @pytest.mark.parametrize("prune_adjacent", [True, False])
    @pytest.mark.parametrize("n", [2, 3])
    def test_lower_bound_family(self, n, prune_adjacent):
        inst = gen_lower_bound_instance(n)
        for k in range(2 * n - 1):
            cert = feasible_with_k_cuts(inst, k, prune_adjacent=prune_adjacent)
            assert cert == _reference_certificate(inst, k, prune_adjacent), (n, k)
            assert cert.feasible == (k == 2 * n - 2)

    @pytest.mark.parametrize("prune_adjacent", [True, False])
    @pytest.mark.parametrize("n", [2, 3])
    def test_random_pools(self, n, prune_adjacent):
        outcomes = set()
        for seed in range(12):
            inst = random_instance(n, 4100 + seed)
            for k in range(4):
                cert = feasible_with_k_cuts(inst, k, prune_adjacent=prune_adjacent)
                assert cert == _reference_certificate(inst, k, prune_adjacent), (seed, k)
                outcomes.add(cert.feasible)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("prune_adjacent", [True, False])
    def test_threshold_ties(self, prune_adjacent):
        # an agent whose bound from the cut cells equals its threshold exactly
        # still passes: on one piece (uniform agent left of a cut in [0, 1/2])
        # and on the sum of all pieces (a lone agent that values nothing in
        # the cut's cell)
        cases = [
            make_instance([pw("0 1", "1"), pw("0 1/2 1", "0 2")], ["1/2", "1/2"]),
            make_instance([pw("0 1/2 1", "0 2")], [1]),
        ]
        for inst in cases:
            for k in range(3):
                cert = feasible_with_k_cuts(inst, k, prune_adjacent=prune_adjacent)
                assert cert == _reference_certificate(inst, k, prune_adjacent), k

    def test_four_agent_proof_counts(self):
        inst = gen_lower_bound_instance(4)
        certs = [feasible_with_k_cuts(inst, k) for k in range(3, 7)]
        assert [c.systems_examined for c in certs] == [2016, 30240, 277200, 617775]
        assert [c.feasible for c in certs] == [False, False, False, True]
        report = verify_allocation(inst, certs[-1].allocation)
        assert report.passed and report.cut_count <= 6

    def test_budget_is_checked_against_the_projected_count(self):
        inst = gen_lower_bound_instance(3)
        projected = _projected(inst, 3)
        with pytest.raises(BudgetExceeded, match=f"would examine {projected} systems"):
            feasible_with_k_cuts(inst, 3, budget=projected - 1)
        cert = feasible_with_k_cuts(inst, 3, budget=projected)
        assert not cert.feasible
        assert cert.systems_examined == projected
