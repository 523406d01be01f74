"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench -q
"""

import gc
import json
import shutil
import subprocess
import sys

from fractions import Fraction
from time import perf_counter

import pytest

import clock
import run

run.import_library()

import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(workloads, "DIVIDE_AGENTS", (2, 3))
    monkeypatch.setattr(workloads, "DIVIDE_PER_N", 2)
    monkeypatch.setattr(workloads, "CERTIFY_PER_FAMILY", 1)
    monkeypatch.setattr(workloads, "LOWER_BOUND_N", 2)


def run_main(capsys, workload, seed, trace):
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.01", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith("output digest "))
    return json.loads(lines[-1]), lines, digest


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, lines, _ = run_main(capsys, workload, 3, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
        for name, unit in expected.items():
            assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_tampered_and_raising_requests_are_counted_not_fatal(tiny):
    requests = workloads.build("divide", 1)[:3]
    good = [req.run() for req in requests]
    doc = json.loads(good[0])
    doc["pieces"][0] = [0, []]  # agent 1 loses its piece
    tampered = json.dumps(doc).encode()
    checker = run.Checker(requests)
    checker.check(run.Pass(0.0, [0.0] * 3, [tampered, "RuntimeError: boom", b"not json"]))
    assert (checker.attempted, checker.failed) == (3, 3)
    checker.check(run.Pass(0.0, [0.0] * 3, good))
    assert (checker.attempted, checker.failed) == (6, 3)


def test_a_request_that_raises_fails_without_stopping_the_pass(tiny):
    def boom():
        raise ValueError("bad input")

    requests = workloads.build("divide", 1)[:2]
    broken = [workloads.Request("broken", boom, lambda out: None)] + requests
    p = run.run_pass(broken)
    checker = run.Checker(broken)
    checker.check(p)
    assert (checker.attempted, checker.failed) == (3, 1)
    assert checker.errors == ["broken: ValueError: bad input"]


def test_collections_run_in_program_time_not_in_reference_runs():
    """A collection inside a reference run would be subtracted from the
    request and would slow the reference, so it would count twice in the
    program's favour.  With a threshold this low, the reference loop's own
    allocations would start collections if the collector were on."""
    starts = []

    def on_gc(phase, info):
        if phase == "start":
            starts.append(perf_counter())

    threshold = gc.get_threshold()
    gc.set_threshold(50, 2, 2)
    gc.callbacks.append(on_gc)
    try:
        with clock.ReferenceClock() as ref:
            live = []
            deadline = perf_counter() + 0.3
            while perf_counter() < deadline:
                live.append([Fraction(len(live), 7)])
    finally:
        gc.callbacks.remove(on_gc)
        gc.set_threshold(*threshold)
    assert gc.isenabled()
    assert len(ref.durations) > 5 and starts
    for start, duration in zip(ref.starts, ref.durations):
        assert not any(start <= t <= start + duration for t in starts)


COUNTS = (
    "bounds.systems_examined", "split.lp_calls", "feasibility.check_calls",
    "feasibility.solve_calls", "protocols.cuts",
)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_digest_and_counts(tiny, capsys, workload):
    first, _, digest1 = run_main(capsys, workload, 5, 1)
    second, _, digest2 = run_main(capsys, workload, 5, 1)
    assert digest1 == digest2
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name]


def test_layers_the_workloads_were_chosen_for(tiny, capsys):
    divide, _, _ = run_main(capsys, "divide", 2, 1)
    m = {k: v["value"] for k, v in divide["metrics"].items()}
    assert m["bounds.calls"] == 0
    assert m["split.lp_calls"] > 0  # seen through split's own binding
    assert m["split.self_s"] > 0 and m["model.self_s"] > 0 and m["serialize.self_s"] > 0

    lower, _, _ = run_main(capsys, "lower_bound", 2, 1)
    m = {k: v["value"] for k, v in lower["metrics"].items()}
    assert m["split.calls"] == 0 and m["bounds.systems_examined"] > 0
    assert m["feasibility.check_calls"] >= 1 and m["feasibility.solve_calls"] == 1


def test_divide_pool_is_drawn_like_gen_random():
    """As ``entitled-cuts gen --random n --denom-bound 8`` draws: each agent
    has at most 3 cells and breakpoints of denominator at most 8, with no cap
    on the refinement the agents make together."""
    docs = [json.loads(text) for text in workloads.divide_documents(1)]
    sizes = [len(doc["agents"]) for doc in docs]
    assert {n: sizes.count(n) for n in set(sizes)} == {n: workloads.DIVIDE_PER_N for n in range(2, 7)}
    for doc in docs:
        for agent in doc["agents"]:
            assert 2 <= len(agent["breakpoints"]) <= 4
            assert all(Fraction(b).denominator <= 8 for b in agent["breakpoints"])
    assert max(workloads._refinement_cells(doc) for doc in docs) > 5


def test_certify_seed_rescales_inputs_but_not_outputs(tiny, capsys):
    assert workloads.certify_documents(1) != workloads.certify_documents(2)
    _, _, digest1 = run_main(capsys, "certify", 1, 0)
    _, _, digest2 = run_main(capsys, "certify", 2, 0)
    assert digest1 == digest2


def test_fails_without_the_library_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "divide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
