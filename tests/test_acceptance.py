"""Acceptance suite.

Each test here implements one release criterion end to end and prints a
PASS line (visible with ``pytest -s``).  Every numeric check is an exact
rational comparison; there are no tolerances to tune.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import entitled_cuts
from entitled_cuts.bounds import feasible_with_k_cuts, gen_lower_bound_instance, min_cuts
from entitled_cuts.generate import random_instance, random_valuation
from entitled_cuts.model import FULL_CAKE, Instance, measure_of
from entitled_cuts.protocols import (
    clone_divide,
    near_equal_divide,
    recursive_divide,
    special3_equal_pair,
    special3_half,
    upper_bound_cuts,
)
from entitled_cuts.split import exact_split, pie_arc_count
from entitled_cuts.verifier import verify_allocation

import random


def refinement_cells(instance: Instance) -> int:
    return len({b for v in instance.valuations for b in v.breakpoints}) - 1


def proportional_exactly(instance, allocation):
    return all(
        measure_of(instance.valuations[i], allocation.pieces[i])
        == instance.entitlements[i] * instance.valuations[i].total
        for i in range(instance.n)
    )


# --- seeded instance pools shared by criteria 2/4/5 and re-checked in 6 ---

RECURSIVE_SEEDS = {n: [9000 * n + s for s in range(50)] for n in (2, 3, 4, 5)}


def recursive_pool(n):
    max_cells = 3 if n <= 3 else 2
    return [random_instance(n, seed, max_cells=max_cells) for seed in RECURSIVE_SEEDS[n]]


def special_half_pool():
    rng = random.Random(777)
    out = []
    for _ in range(20):
        vals = tuple(random_valuation(rng, 2, 8) for _ in range(3))
        q = rng.randint(3, 9)
        p = rng.randint(1, q - 1)
        out.append(Instance(vals, (F(1, 2), F(p, 2 * q), F(q - p, 2 * q))))
    return out


def equal_pair_pool():
    rng = random.Random(888)
    out = []
    for _ in range(20):
        vals = tuple(random_valuation(rng, 2, 8) for _ in range(3))
        d = rng.randint(3, 9)
        b = rng.randint(1, (d - 1) // 2)
        out.append(Instance(vals, (F(b, d), F(b, d), 1 - 2 * F(b, d))))
    return out


def near_equal_pool(n):
    rng = random.Random(999 * n)
    out = []
    for _ in range(20):
        vals = tuple(random_valuation(rng, 2, 8) for _ in range(n))
        d = rng.randint(n, 9)
        entitlements = (F(1, d),) * (n - 1) + (F(d - n + 1, d),)
        out.append(Instance(vals, entitlements))
    return out


def clone_pool():
    rng = random.Random(246)
    out = []
    while len(out) < 20:
        n = rng.randint(2, 3)
        weights = [rng.randint(1, 9) for _ in range(n)]
        if sum(weights) > 24:
            continue
        total = sum(weights)
        vals = tuple(random_valuation(rng, 2, 8) for _ in range(n))
        out.append(Instance(vals, tuple(F(w, total) for w in weights)))
    return out


def test_criterion_1_lower_bound_reproduction():
    start = time.perf_counter()
    two = gen_lower_bound_instance(2)
    assert not feasible_with_k_cuts(two, 1).feasible
    assert min_cuts(two, 4) == 2
    elapsed_two = time.perf_counter() - start
    assert elapsed_two < 10

    start = time.perf_counter()
    three = gen_lower_bound_instance(3)
    assert not feasible_with_k_cuts(three, 3).feasible
    assert min_cuts(three, 4) == 4
    elapsed_three = time.perf_counter() - start
    assert elapsed_three < 300

    start = time.perf_counter()
    four = gen_lower_bound_instance(4)
    assert not feasible_with_k_cuts(four, 5).feasible
    assert min_cuts(four, 6) == 6
    elapsed_four = time.perf_counter() - start
    assert elapsed_four < 300
    print(
        f"\nACCEPTANCE 1 PASS: min cuts 2 (n=2, {elapsed_two:.2f}s), 4 "
        f"(n=3, {elapsed_three:.2f}s) and 6 (n=4, {elapsed_four:.2f}s), "
        f"infeasibility below by exhaustion"
    )


def test_criterion_2_recursive_upper_bound():
    bounds = {2: 2, 3: 6, 4: 10, 5: 16}
    checked = 0
    for n, bound in bounds.items():
        assert upper_bound_cuts(n) == bound
        for inst in recursive_pool(n):
            report = recursive_divide(inst)
            assert proportional_exactly(inst, report.allocation)
            assert len(report.cuts) <= bound
            checked += 1
    print(f"\nACCEPTANCE 2 PASS: {checked} instances, exact equality, cuts within 2/6/10/16")


def test_criterion_3_splitter_exactness():
    rng = random.Random(555)
    pairs = 0
    while pairs < 200:
        n = rng.randint(2, 4)
        vals = tuple(random_valuation(rng, 3 if n <= 3 else 2, 8) for _ in range(n))
        denom = rng.randint(2, 9)
        ratio = F(rng.randint(1, denom - 1), denom)
        part, _ = exact_split(vals, FULL_CAKE, ratio)
        for v in vals:
            assert measure_of(v, part) == ratio * v.total
        assert pie_arc_count(part) <= n - 1
        pairs += 1
    print(f"\nACCEPTANCE 3 PASS: {pairs} split requests exact with <= n-1 pie arcs")


def test_criterion_4_special_cases():
    for inst in special_half_pool():
        report = special3_half(inst)
        assert len(report.cuts) <= 4
        assert verify_allocation(inst, report.allocation).passed
    for inst in equal_pair_pool():
        report = special3_equal_pair(inst)
        assert len(report.cuts) <= 4
        assert verify_allocation(inst, report.allocation).passed
    for n in (2, 3, 4):
        for inst in near_equal_pool(n):
            report = near_equal_divide(inst)
            assert len(report.cuts) <= 2 * (n - 1)
            assert verify_allocation(inst, report.allocation).passed
    print("\nACCEPTANCE 4 PASS: 20 instances per special case within 4 / 2(n-1) cuts")


def test_criterion_5_cloning_bound(uniform):
    from math import lcm

    for inst in clone_pool():
        denominator = lcm(*(t.denominator for t in inst.entitlements))
        assert denominator <= 24
        report = clone_divide(inst)
        assert len(report.cuts) <= denominator - 1
        assert verify_allocation(inst, report.allocation).passed
    pair = Instance((uniform, uniform), (F(2, 5), F(3, 5)))
    report = clone_divide(pair)
    assert report.cuts == (F(2, 5),)
    print("\nACCEPTANCE 5 PASS: cloning within D-1 cuts (D <= 24); 2/5-3/5 merges to 1 cut")


def test_criterion_6_oracle_cross_validation():
    candidates = []
    for n in (2, 3):
        candidates += [(inst, recursive_divide) for inst in recursive_pool(n)]
    candidates += [(inst, special3_half) for inst in special_half_pool()]
    candidates += [(inst, special3_equal_pair) for inst in equal_pair_pool()]
    for n in (2, 3):
        candidates += [(inst, near_equal_divide) for inst in near_equal_pool(n)]
    candidates += [(inst, clone_divide) for inst in clone_pool()]

    # no size filter: every candidate is small enough for the oracle
    assert all(inst.n <= 3 and refinement_cells(inst) <= 7 for inst, _ in candidates)
    for inst, runner in candidates:
        achieved = len(runner(inst).cuts)
        assert feasible_with_k_cuts(inst, achieved).feasible
        assert min_cuts(inst, achieved) <= achieved
    assert len(candidates) == 200
    print(f"\nACCEPTANCE 6 PASS: oracle confirmed {len(candidates)} protocol results")


def test_criterion_7_open_instance_probe(tmp_path, capsys):
    from entitled_cuts.cli import main
    from entitled_cuts.serialize import dumps, instance_to_document

    rng = random.Random(7777)
    decisions = []
    for profile in range(5):
        while True:
            vals = tuple(random_valuation(rng, 2, 6) for _ in range(3))
            inst = Instance(vals, (F(1, 7), F(2, 7), F(4, 7)))
            if refinement_cells(inst) <= 4:
                break
        path = tmp_path / f"probe{profile}.json"
        path.write_text(dumps(instance_to_document(inst)))
        code = main(["min-cuts", str(path), "--k-max", "4",
                     "-o", str(tmp_path / f"cert{profile}.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "min cuts = " in out or "not found within" in out
        assert "instance evidence only" in out
        decisions.append(out.strip().splitlines()[-2])
    print(f"\nACCEPTANCE 7 PASS: 5 sampled profiles decided at k-max 4, labelled as instance evidence")


# The package this process imported.  Child processes run in tmp_path,
# where a relative PYTHONPATH entry such as "src" resolves to nothing, so
# they get the absolute directory that holds it first on their path.
_PACKAGE_FILE = Path(entitled_cuts.__file__).resolve()
# Each CLI call below takes well under a second; a hang fails the test
# with the child's stderr instead of stalling the suite.
_CLI_TIMEOUT_S = 60


def _run_python(argv, env_seed, tmp_path):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = env_seed
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_PACKAGE_FILE.parent.parent), env.get("PYTHONPATH")])
    )
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path,
            timeout=_CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        # on POSIX the partial output is left as bytes even in text mode
        stderr = exc.stderr or b""
        if isinstance(stderr, bytes):
            stderr = stderr.decode(errors="replace")
        pytest.fail(f"{argv} timed out after {_CLI_TIMEOUT_S} s\n{stderr}")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run_cli(args, env_seed, tmp_path):
    return _run_python(["-m", "entitled_cuts.cli", *args], env_seed, tmp_path)


def test_criterion_8_end_to_end_determinism(tmp_path):
    # The children must run the code under test, not some other install
    # of the package that happens to come first on their path.
    child_file = _run_python(
        ["-c", "import entitled_cuts; print(entitled_cuts.__file__)"], "0", tmp_path,
    )
    assert Path(child_file.strip()).resolve() == _PACKAGE_FILE
    # The implementation is single-threaded by construction, so "across
    # thread counts" cannot vary; hash randomization is the realistic
    # ordering hazard, so rerun everything under different hash seeds.
    outputs = {}
    for env_seed in ("0", "4242"):
        gen_out = _run_cli(
            ["gen", "--random", "3", "--seed", "11", "--max-cells", "3",
             "--denom-bound", "8", "-o", f"inst-{env_seed}.json"],
            env_seed, tmp_path,
        )
        instance_bytes = (tmp_path / f"inst-{env_seed}.json").read_bytes()
        _run_cli(
            ["solve", f"inst-{env_seed}.json", "--algorithm", "auto",
             "-o", f"alloc-{env_seed}.json"],
            env_seed, tmp_path,
        )
        alloc_bytes = (tmp_path / f"alloc-{env_seed}.json").read_bytes()
        min_out = _run_cli(
            ["min-cuts", f"inst-{env_seed}.json", "--k-max", "3",
             "-o", f"cert-{env_seed}.json"],
            env_seed, tmp_path,
        )
        cert_bytes = (tmp_path / f"cert-{env_seed}.json").read_bytes()
        bench = _run_cli(["bench", "--n-range", "2..3", "--seeds", "2"], env_seed, tmp_path)
        bench_stable = "\n".join(
            ",".join(line.split(",")[:-1]) for line in bench.strip().splitlines()
        )
        outputs[env_seed] = (instance_bytes, alloc_bytes, cert_bytes, bench_stable)
    assert outputs["0"][0] == outputs["4242"][0]
    assert outputs["0"][1] == outputs["4242"][1]
    assert outputs["0"][2] == outputs["4242"][2]
    assert outputs["0"][3] == outputs["4242"][3]
    # same inputs, same interpreter state: a literal second run matches too
    repeat = _run_cli(
        ["gen", "--random", "3", "--seed", "11", "--max-cells", "3",
         "--denom-bound", "8", "-o", "inst-repeat.json"],
        "0", tmp_path,
    )
    assert (tmp_path / "inst-repeat.json").read_bytes() == outputs["0"][0]
    print("\nACCEPTANCE 8 PASS: byte-identical outputs across reruns and hash seeds")
