import random
from fractions import Fraction as F

import pytest

from entitled_cuts import model, verifier
from entitled_cuts.generate import random_instance
from entitled_cuts.model import FULL_CAKE, Allocation, Interval, Region, Valuation, boundary_points
from entitled_cuts.protocols import auto_solve, clone_divide, recursive_divide
from entitled_cuts.verifier import AgentCheck, VerificationReport, verify_allocation

from conftest import make_instance, reference_cumulative


def region(*pairs):
    return Region([Interval(F(a), F(b)) for a, b in pairs])


def test_single_agent_passes(uniform):
    inst = make_instance([uniform], [1])
    report = verify_allocation(inst, Allocation((region((0, 1)),)))
    assert report.passed and len(report.cuts) == 0


def test_shortchanged_agent_flagged(uniform):
    inst = make_instance([uniform, uniform], ["1/2", "1/2"])
    report = verify_allocation(
        inst, Allocation((region((0, F(1, 4))), region((F(1, 4), 1))))
    )
    assert not report.passed
    assert not report.agents[0].ok
    assert report.agents[0].value == F(1, 4)
    assert report.agents[0].threshold == F(1, 2)
    assert report.agents[1].ok
    assert any("agent 1" in m for m in report.messages)


def test_overlap_detected(uniform):
    inst = make_instance([uniform, uniform], ["1/2", "1/2"])
    report = verify_allocation(
        inst, Allocation((region((0, F(5, 8))), region((F(1, 2), 1))))
    )
    assert not report.disjoint_ok
    assert not report.passed


def test_every_overlap_of_a_long_piece_reported(uniform):
    # agent 1's piece covers both others; agent 3's is not its neighbour in
    # sorted order, yet that pair gets its own note too
    inst = make_instance([uniform] * 3, ["1/3", "1/3", "1/3"])
    report = verify_allocation(inst, Allocation((
        region((0, 1)), region((F(1, 10), F(1, 5))), region((F(3, 10), F(2, 5))),
    )))
    assert not report.disjoint_ok and not report.passed
    assert [m for m in report.messages if "overlap" in m] == [
        "pieces of agents 1 and 2 overlap on [1/10, 1/5]",
        "pieces of agents 1 and 3 overlap on [3/10, 2/5]",
    ]


def test_gap_detected(uniform):
    inst = make_instance([uniform, uniform], ["1/2", "1/2"])
    report = verify_allocation(
        inst, Allocation((region((0, F(1, 2))), region((F(5, 8), 1))))
    )
    assert not report.cover_ok
    assert not report.passed


def test_wrong_piece_count_reported_not_raised(uniform):
    inst = make_instance([uniform, uniform], ["1/2", "1/2"])
    report = verify_allocation(inst, Allocation((region((0, 1)),)))
    assert not report.structure_ok
    assert not report.passed


def test_touching_boundaries_are_fine(uniform):
    inst = make_instance([uniform, uniform], ["1/2", "1/2"])
    report = verify_allocation(
        inst, Allocation((region((0, F(1, 2))), region((F(1, 2), 1))))
    )
    assert report.passed and report.cuts == (F(1, 2),)


def test_every_protocol_output_passes():
    rng = random.Random(12)
    for trial in range(8):
        n = rng.randint(1, 4)
        inst = random_instance(n, 4000 + trial, max_cells=3 if n <= 3 else 2)
        for runner in (recursive_divide, clone_divide, auto_solve):
            report = runner(inst)
            assert verify_allocation(inst, report.allocation).passed, (trial, runner)


def _reference_verify(instance, allocation):
    """The verifier as it was before it had arithmetic of its own: each
    piece measured by the linear cell scan at its intervals' ends, and
    cover decided by merging the pieces' intervals into one ``Region``."""
    messages = []
    structure_ok = len(allocation.pieces) == instance.n
    if not structure_ok:
        messages.append(
            f"allocation has {len(allocation.pieces)} pieces for {instance.n} agents"
        )
    agents = []
    for i in range(min(instance.n, len(allocation.pieces))):
        v = instance.valuations[i]
        value = sum((reference_cumulative(v, iv.hi) - reference_cumulative(v, iv.lo)
                     for iv in allocation.pieces[i].intervals), F(0))
        threshold = instance.entitlements[i] * reference_cumulative(v, F(1))
        ok = value >= threshold
        if not ok:
            messages.append(f"agent {i + 1} got {value}, needs {threshold}")
        agents.append(AgentCheck(i, value, threshold, ok))
    tagged = sorted(
        (iv, i) for i, piece in enumerate(allocation.pieces) for iv in piece.intervals
    )
    disjoint_ok = True
    for x, (a, i) in enumerate(tagged):
        for b, j in tagged[x + 1:]:
            if b.lo >= a.hi:
                break
            disjoint_ok = False
            messages.append(
                f"pieces of agents {i + 1} and {j + 1} overlap on [{b.lo}, {min(a.hi, b.hi)}]"
            )
    covered = None
    for piece in allocation.pieces:
        covered = piece if covered is None else Region(covered.intervals + piece.intervals)
    cover_ok = covered is not None and covered == FULL_CAKE
    if not cover_ok:
        messages.append("pieces do not cover [0, 1] exactly")
    passed = structure_ok and disjoint_ok and cover_ok and bool(agents) and all(
        a.ok for a in agents
    )
    return VerificationReport(
        tuple(agents), structure_ok, disjoint_ok, cover_ok, boundary_points(allocation),
        passed, tuple(messages),
    )


def _protocol_outputs(seed, count):
    """(instance, allocation) pairs from the three protocols on seeded
    instances of one to four agents, some with their pieces handed to the
    wrong agents."""
    rng = random.Random(seed)
    out = []
    for trial in range(count):
        n = rng.randint(1, 4)
        inst = random_instance(n, seed + trial, max_cells=3 if n <= 3 else 2)
        runner = rng.choice((recursive_divide, clone_divide, auto_solve))
        pieces = list(runner(inst).allocation.pieces)
        if rng.random() < 0.3:
            rng.shuffle(pieces)
        out.append((inst, Allocation(tuple(pieces))))
    return out


def _malformed_pool(seed, count):
    """(instance, allocation) pairs whose pieces are a seeded partition of
    the cake, cut on twelfths, on breakpoints and at its ends, then given
    up to two defects: a missing piece, an extra piece, an interval added
    over others, an interval dropped, or an empty piece."""
    rng = random.Random(seed)
    out = []
    for trial in range(count):
        n = rng.randint(1, 4)
        inst = random_instance(n, seed + trial, max_cells=4, denom_bound=12)
        points = sorted({F(k, 12) for k in range(13)}
                        | {b for v in inst.valuations for b in v.breakpoints})

        def interval():
            return Interval(*sorted(rng.sample(points, 2)))

        cuts = rng.sample(points[1:-1], min(len(points) - 2, rng.randint(0, 2 * n)))
        edges = [F(0), *sorted(cuts), F(1)]
        pieces = [[] for _ in range(n)]
        for lo, hi in zip(edges, edges[1:]):
            pieces[rng.randrange(n)].append(Interval(lo, hi))
        for _ in range(rng.randint(0, 2)):
            defect = rng.randrange(5)
            if defect == 0 and pieces:
                pieces.pop(rng.randrange(len(pieces)))
            elif defect == 1:
                pieces.append([interval() for _ in range(rng.randint(0, 2))])
            elif defect == 2 and pieces:
                rng.choice(pieces).append(interval())
            elif defect == 3 and any(pieces):
                piece = rng.choice([p for p in pieces if p])
                piece.pop(rng.randrange(len(piece)))
            elif defect == 4 and pieces:
                pieces[rng.randrange(len(pieces))] = []
        out.append((inst, Allocation(tuple(Region(p) for p in pieces))))
    return out


class TestMatchesReferenceVerifier:
    """The verifier's own value sum and cover sweep give the same report,
    field for field and message for message, as the measure-and-union
    reference."""

    def test_protocol_outputs(self):
        for inst, allocation in _protocol_outputs(9100, 40):
            assert verify_allocation(inst, allocation) == _reference_verify(inst, allocation)

    def test_malformed_pool(self):
        kinds = set()
        for inst, allocation in _malformed_pool(9200, 600):
            report = verify_allocation(inst, allocation)
            assert report == _reference_verify(inst, allocation), allocation
            kinds.add((report.structure_ok, report.disjoint_ok, report.cover_ok, report.passed))
        # the pool reaches every verdict: too few or too many pieces, overlaps,
        # gaps, and partitions that pass and that shortchange an agent
        assert {k[:3] for k in kinds} == {(s, d, c) for s in (False, True)
                                          for d in (False, True) for c in (False, True)}
        assert (True, True, True, True) in kinds and (True, True, True, False) in kinds


def _raise(*args, **kwargs):
    raise AssertionError("the verifier read the library's measure code")


def test_verifier_shares_no_measure_code(monkeypatch):
    # reports taken before every measure, region and cut routine of the
    # model, and every valuation's prefix and int tables, are broken
    cases = _protocol_outputs(9300, 12) + _malformed_pool(9400, 200)
    expected = [_reference_verify(inst, allocation) for inst, allocation in cases]
    monkeypatch.setattr(model, "measure_of", _raise)
    monkeypatch.setattr(model, "boundary_points", _raise)
    monkeypatch.setattr(Valuation, "cumulatives", _raise)
    monkeypatch.setattr(Valuation, "marks", _raise)
    monkeypatch.setattr(Valuation, "total", property(_raise))
    monkeypatch.setattr(Region, "intersect", _raise)
    monkeypatch.setattr(Region, "difference", _raise)
    for inst, _ in cases:
        for v in inst.valuations:
            object.__setattr__(v, "_prefix", None)
            object.__setattr__(v, "_rows", None)
    for (inst, allocation), report in zip(cases, expected):
        assert verify_allocation(inst, allocation) == report


def test_verifier_binds_only_the_models_data_types():
    # Fraction, dataclass and annotations come from the standard library,
    # which the model imports too
    shared = {name for name, obj in vars(verifier).items()
              if not name.startswith("__") and getattr(model, name, None) is obj}
    assert shared <= {"Allocation", "Instance", "Interval", "Region", "Valuation", "ONE", "ZERO",
                      "Fraction", "dataclass", "annotations"}
