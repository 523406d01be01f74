import random
from fractions import Fraction as F

from entitled_cuts.generate import random_instance
from entitled_cuts.model import Allocation, Interval, Region
from entitled_cuts.protocols import auto_solve, clone_divide, recursive_divide
from entitled_cuts.verifier import verify_allocation

from conftest import make_instance


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
