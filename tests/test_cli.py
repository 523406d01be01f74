import contextlib
import copy
import io
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entitled_cuts.bounds import gen_lower_bound_instance
from entitled_cuts.cli import main
from entitled_cuts.generate import random_instance
from entitled_cuts.model import FULL_CAKE, Allocation, Interval, Region
from entitled_cuts.serialize import (
    FormatError,
    dumps,
    instance_to_document,
    loads,
    parse_allocation_document,
    parse_instance_document,
)

from conftest import make_instance, pw


def write_instance(path, instance):
    path.write_text(dumps(instance_to_document(instance)))
    return str(path)


class TestSerialization:
    def test_instance_round_trip(self):
        for seed in range(5):
            inst = random_instance(3, seed)
            assert parse_instance_document(loads(dumps(instance_to_document(inst)))) == inst

    def test_lower_bound_round_trip(self):
        inst = gen_lower_bound_instance(3)
        assert parse_instance_document(loads(dumps(instance_to_document(inst)))) == inst

    def test_floats_rejected(self):
        with pytest.raises(FormatError):
            loads('{"topology": "interval", "agents": [{"entitlement": 0.5}]}')

    def test_numeric_entitlement_rejected(self):
        doc = {
            "topology": "interval",
            "agents": [{
                "name": "a", "breakpoints": ["0", "1"], "densities": ["1"],
                "entitlement": 1,
            }],
        }
        with pytest.raises(FormatError):
            parse_instance_document(doc)

    def test_bad_entitlement_sum_rejected(self, uniform):
        doc = instance_to_document(make_instance([uniform, uniform], ["1/2", "1/2"]))
        doc["agents"][0]["entitlement"] = "3/2"
        with pytest.raises(FormatError):
            parse_instance_document(doc)

    def test_topology_checked(self, uniform):
        doc = instance_to_document(make_instance([uniform], [1]))
        doc["topology"] = "moebius"
        with pytest.raises(FormatError, match="topology must be 'interval', got 'moebius'"):
            parse_instance_document(doc)
        del doc["topology"]
        with pytest.raises(FormatError, match="topology must be 'interval', got None"):
            parse_instance_document(doc)

    def test_pie_topology_rejected(self, uniform):
        # a pie was counted as an interval: halves reported 1 cut, not 2
        doc = instance_to_document(make_instance([uniform, uniform], ["1/2", "1/2"]))
        assert doc["topology"] == "interval"
        doc["topology"] = "pie"
        with pytest.raises(FormatError, match="^invalid instance: topology must be 'interval'"):
            parse_instance_document(doc)

    def test_bad_agent_reported_before_topology(self, uniform):
        doc = instance_to_document(make_instance([uniform, uniform], ["1/2", "1/2"]))
        doc["topology"] = "pie"
        doc["agents"][1]["breakpoints"] = ["0", "1/2"]
        with pytest.raises(FormatError, match="invalid valuation"):
            parse_instance_document(doc)

    def test_allocation_round_trip(self, tmp_path, uniform):
        inst_path = write_instance(tmp_path / "i.json", make_instance([uniform], [1]))
        out = tmp_path / "a.json"
        assert main(["solve", inst_path, "-o", str(out)]) == 0
        allocation, algorithm = parse_allocation_document(loads(out.read_text()))
        assert algorithm == "recursive"
        assert allocation.pieces[0] == FULL_CAKE

    @pytest.mark.parametrize("pieces", [
        [[False, [["0", "1"]]]],  # bool is an int subclass in Python, not on the wire
        [[True, [["0", "1"]]]],
        [[0, [["0", "1/2"]]], [0, [["1/2", "1"]]]],
        [[1, [["0", "1"]]]],
        [[0, [["0", " 1"]]]],
    ])
    def test_malformed_allocation_rejected(self, pieces):
        with pytest.raises(FormatError):
            parse_allocation_document({"pieces": pieces})

    @pytest.mark.parametrize("bad", [1, "one"], ids=["not-a-string", "unparsable"])
    @pytest.mark.parametrize("name,doc,path", [
        ("'entitlement'", 0, ("agents", 1, "entitlement")),
        ("breakpoints entry", 0, ("agents", 1, "breakpoints", 1)),
        ("densities entry", 0, ("agents", 1, "densities", 0)),
        ("interval endpoint", 1, ("pieces", 1, 1, 0, 1)),
    ])
    def test_bad_rational_names_its_field(self, tmp_path, capsys, uniform, name, doc, path, bad):
        docs = (
            instance_to_document(make_instance([uniform, uniform], ["1/2", "1/2"])),
            {"pieces": [[0, [["0", "1/2"]]], [1, [["1/2", "1"]]]], "algorithm": ""},
        )
        *keys, last = path
        target = docs[doc]
        for key in keys:
            target = target[key]
        target[last] = bad
        with pytest.raises(FormatError, match=name):
            (parse_instance_document, parse_allocation_document)[doc](docs[doc])
        files = [tmp_path / "i.json", tmp_path / "a.json"]
        for file, d in zip(files, docs):
            file.write_text(dumps(d))
        assert main(["verify", *map(str, files)]) == 1
        assert name in capsys.readouterr().err


class TestGen:
    def test_lower_bound_matches_library(self, tmp_path, capsys):
        out = tmp_path / "lb.json"
        assert main(["gen", "--lower-bound", "2", "-o", str(out)]) == 0
        assert parse_instance_document(loads(out.read_text())) == gen_lower_bound_instance(2)

    def test_random_is_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen", "--random", "3", "--seed", "7"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_denom_bound_one_rejected(self, capsys):
        assert main(["gen", "--random", "2", "--denom-bound", "1"]) == 1
        assert "denom_bound" in capsys.readouterr().err

    def test_random_instance_checks_its_arguments(self):
        with pytest.raises(ValueError, match="at least one agent"):
            random_instance(0, 0)
        with pytest.raises(ValueError, match="max_cells must be at least 1"):
            random_instance(2, 0, max_cells=0)

    def test_stdout_default(self, capsys):
        assert main(["gen", "--random", "2", "--seed", "1"]) == 0
        doc = loads(capsys.readouterr().out)
        assert len(doc["agents"]) == 2


class TestSolve:
    def test_recursive_on_lower_bound(self, tmp_path, capsys):
        inst_path = write_instance(tmp_path / "i.json", gen_lower_bound_instance(2))
        out = tmp_path / "a.json"
        assert main(["solve", inst_path, "--algorithm", "recursive", "-o", str(out)]) == 0
        text = capsys.readouterr().out
        assert "algorithm: recursive" in text
        doc = loads(out.read_text())
        assert len(doc["cuts"]) <= 2

    def test_clone_example(self, tmp_path, capsys, uniform):
        inst = make_instance([uniform, uniform], ["2/5", "3/5"])
        inst_path = write_instance(tmp_path / "i.json", inst)
        out = tmp_path / "a.json"
        assert main(["solve", inst_path, "--algorithm", "clone", "-o", str(out)]) == 0
        doc = loads(out.read_text())
        assert doc["cuts"] == ["2/5"]

    def test_entitlements_summing_to_two_exit_1(self, tmp_path, uniform):
        doc = instance_to_document(make_instance([uniform, uniform], ["1/2", "1/2"]))
        doc["agents"][0]["entitlement"] = "1"
        doc["agents"][1]["entitlement"] = "1"
        path = tmp_path / "bad.json"
        path.write_text(dumps(doc))
        assert main(["solve", str(path)]) == 1

    def test_valuation_short_of_the_cake_exit_1(self, tmp_path, capsys, uniform):
        doc = instance_to_document(make_instance([uniform, uniform], ["1/2", "1/2"]))
        doc["agents"][1]["breakpoints"] = ["0", "1/2"]
        path = tmp_path / "short.json"
        path.write_text(dumps(doc))
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "last breakpoint must be 1" in err
        assert "Traceback" not in err

    def test_missing_file_exit_1(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("command", [["solve"], ["min-cuts", "--k-max", "2"]])
    def test_pie_topology_exit_1(self, tmp_path, capsys, uniform, command):
        doc = instance_to_document(make_instance([uniform, uniform], ["1/2", "1/2"]))
        doc["topology"] = "pie"
        path = tmp_path / "pie.json"
        path.write_text(dumps(doc))
        out = tmp_path / "out.json"
        assert main([command[0], str(path), *command[1:], "-o", str(out)]) == 1
        assert "topology must be 'interval'" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_exit_1(self, tmp_path, capsys):
        inst_path = write_instance(tmp_path / "i.json", gen_lower_bound_instance(2))
        missing_dir = str(tmp_path / "no-such-dir" / "out.json")
        assert main(["solve", inst_path, "-o", missing_dir]) == 1
        assert main(["min-cuts", inst_path, "--k-max", "2", "-o", missing_dir]) == 1
        assert main(["gen", "--lower-bound", "2", "-o", missing_dir]) == 1
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["auto", "recursive"])
    def test_six_agents_under_the_default_budget(self, tmp_path, capsys, algorithm):
        inst = random_instance(6, 2, max_cells=6, denom_bound=64)
        inst_path = write_instance(tmp_path / "i.json", inst)
        out = str(tmp_path / "a.json")
        assert main(["solve", inst_path, "--algorithm", algorithm, "-o", out]) == 0
        assert main(["verify", inst_path, out]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PASS"

    def test_budget_exceeded_exit_3(self, tmp_path, monkeypatch):
        inst_path = write_instance(tmp_path / "i.json", random_instance(3, 5))
        monkeypatch.setenv("ENTITLED_CUTS_BUDGET", "1")
        assert main(["solve", inst_path, "--algorithm", "recursive"]) == 3

    def test_special_case_algorithms_exposed(self, tmp_path, uniform):
        inst = make_instance([uniform] * 3, ["1/2", "1/4", "1/4"])
        inst_path = write_instance(tmp_path / "i.json", inst)
        for algorithm in ("special3a", "near-equal", "auto"):
            out = tmp_path / f"{algorithm}.json"
            assert main(["solve", inst_path, "--algorithm", algorithm, "-o", str(out)]) == 0
        pair = make_instance([uniform] * 3, ["2/5", "2/5", "1/5"])
        pair_path = write_instance(tmp_path / "p.json", pair)
        assert main(["solve", pair_path, "--algorithm", "special3b",
                     "-o", str(tmp_path / "sp.json")]) == 0

    def test_wrong_special_case_exit_1(self, tmp_path, uniform):
        inst_path = write_instance(
            tmp_path / "i.json", make_instance([uniform, uniform], ["2/5", "3/5"])
        )
        assert main(["solve", inst_path, "--algorithm", "near-equal"]) == 1

    def test_failed_internal_check_exit_2(self, tmp_path, monkeypatch, capsys, uniform):
        import entitled_cuts.split as split_mod

        real = split_mod.measure_of
        monkeypatch.setattr(split_mod, "measure_of", lambda v, r: real(v, r) + F(1, 10**12))
        inst = make_instance([uniform, pw("0 1/2 1", "2 0")], ["1/3", "2/3"])
        inst_path = write_instance(tmp_path / "i.json", inst)
        out = tmp_path / "a.json"
        assert main(["solve", inst_path, "--algorithm", "recursive", "-o", str(out)]) == 2
        assert "internal check failed" in capsys.readouterr().err
        assert not out.exists()

    def test_exhausted_split_enumeration_exit_2(self, tmp_path, monkeypatch, capsys, uniform):
        # existence is guaranteed, so an enumeration that finds no split is a
        # bug in the program, never invalid input
        import entitled_cuts.split as split_mod

        monkeypatch.setattr(split_mod, "check_feasible", lambda *a: False)
        inst = make_instance([uniform, pw("0 1/2 1", "2 0")], ["1/3", "2/3"])
        inst_path = write_instance(tmp_path / "i.json", inst)
        out = tmp_path / "a.json"
        assert main(["solve", inst_path, "--algorithm", "recursive", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("internal check failed: consensus-split enumeration exhausted")
        assert not out.exists()

    def test_billionth_entitlement(self, tmp_path, capsys, uniform):
        # a billion clones are a count of clones: the near-equal protocol
        # splits them in about log2(10^9) rounds, not 10^9 - 1
        inst = make_instance(
            [uniform, pw("0 1/2 1", "2 0")], ["1/1000000000", "999999999/1000000000"]
        )
        inst_path = write_instance(tmp_path / "i.json", inst)
        assert main(["solve", inst_path, "-o", str(tmp_path / "a.json")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "algorithm: near-equal"
        assert "cuts (1 of bound 2): 999999999/2000000000" in out

    def test_entitlement_of_two_to_the_minus_1200(self, tmp_path, capsys, uniform):
        # the Even-Paz split takes about 1200 rounds here, as a loop: no
        # recursion limit applies
        tiny = F(1, 2**1200)
        inst = make_instance([uniform, pw("0 1/3 1", "2 1/2")], [tiny, 1 - tiny])
        inst_path = write_instance(tmp_path / "i.json", inst)
        out = tmp_path / "a.json"
        assert main(["solve", inst_path, "-o", str(out)]) == 0
        assert main(["verify", inst_path, str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "PASS"
        assert captured.err == ""

    def test_failed_internal_verification_exit_2(self, tmp_path, monkeypatch, uniform):
        import entitled_cuts.cli as cli_mod
        from entitled_cuts.verifier import VerificationReport

        inst_path = write_instance(tmp_path / "i.json", make_instance([uniform], [1]))
        broken = VerificationReport((), True, True, True, (), False, ("forced",))
        monkeypatch.setattr(cli_mod, "verify_allocation", lambda *a: broken)
        assert main(["solve", inst_path, "-o", str(tmp_path / "a.json")]) == 2

    def test_cuts_over_the_bound_exit_2(self, tmp_path, monkeypatch, capsys, uniform):
        import entitled_cuts.protocols as protocols_mod

        monkeypatch.setattr(protocols_mod, "upper_bound_cuts", lambda n: 0)
        inst = make_instance([uniform, uniform], ["1/3", "2/3"])
        inst_path = write_instance(tmp_path / "i.json", inst)
        out = tmp_path / "a.json"
        assert main(["solve", inst_path, "--algorithm", "recursive", "-o", str(out)]) == 2
        assert "recursive: 1 cuts exceed the bound 0" in capsys.readouterr().err
        assert not out.exists()


class TestVerify:
    def test_valid_pair(self, tmp_path, uniform):
        inst_path = write_instance(tmp_path / "i.json", make_instance([uniform], [1]))
        out = tmp_path / "a.json"
        main(["solve", inst_path, "-o", str(out)])
        assert main(["verify", inst_path, str(out)]) == 0

    def test_tampered_piece_exit_4(self, tmp_path, capsys, uniform):
        inst = make_instance([uniform, uniform], ["1/2", "1/2"])
        inst_path = write_instance(tmp_path / "i.json", inst)
        out = tmp_path / "a.json"
        main(["solve", inst_path, "-o", str(out)])
        doc = loads(out.read_text())
        doc["pieces"][0][1] = [["0", "1/4"]]  # shrink agent 1's piece
        tampered = tmp_path / "t.json"
        tampered.write_text(dumps(doc))
        assert main(["verify", inst_path, str(tampered)]) == 4
        assert "agent 1" in capsys.readouterr().out

    def test_overlapping_pieces_exit_4(self, tmp_path, capsys, uniform):
        inst = make_instance([uniform, uniform], ["1/2", "1/2"])
        inst_path = write_instance(tmp_path / "i.json", inst)
        bad = tmp_path / "bad.json"
        bad.write_text(dumps({
            "pieces": [[0, [["0", "5/8"]]], [1, [["1/2", "1"]]]],
            "cuts": [], "algorithm": "none",
        }))
        assert main(["verify", inst_path, str(bad)]) == 4
        assert "overlap" in capsys.readouterr().out

    def test_intervals_not_a_list_exit_1(self, tmp_path, capsys, uniform):
        inst_path = write_instance(tmp_path / "i.json", make_instance([uniform], [1]))
        bad = tmp_path / "bad.json"
        bad.write_text(dumps({"pieces": [[0, "0..1"]], "algorithm": "none"}))
        assert main(["verify", inst_path, str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: intervals must be a list\n"
        assert captured.out == ""

    def test_parse_error_exit_1(self, tmp_path, uniform):
        inst_path = write_instance(tmp_path / "i.json", make_instance([uniform], [1]))
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["verify", inst_path, str(broken)]) == 1

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python converts ints of any length")
    def test_overlong_int_exit_1(self, tmp_path, capsys, uniform):
        # Python's own message for an int past its digit limit names no rule
        inst_path = write_instance(tmp_path / "i.json", make_instance([uniform], [1]))
        long_index = tmp_path / "long.json"
        long_index.write_text('{"pieces": [[' + "1" * 5000 + ', []]], "algorithm": ""}')
        assert main(["verify", inst_path, str(long_index)]) == 1
        assert "error: invalid JSON: Exceeds the limit" in capsys.readouterr().err

    def test_missing_allocation_exit_1(self, tmp_path, capsys, uniform):
        inst_path = write_instance(tmp_path / "i.json", make_instance([uniform], [1]))
        missing = tmp_path / "nope.json"
        assert main(["verify", inst_path, str(missing)]) == 1
        assert f"cannot read {missing}" in capsys.readouterr().err


class TestMinCuts:
    def test_lower_bound_two(self, tmp_path, capsys):
        inst_path = write_instance(tmp_path / "i.json", gen_lower_bound_instance(2))
        cert = tmp_path / "c.json"
        assert main(["min-cuts", inst_path, "--k-max", "3", "-o", str(cert)]) == 0
        text = capsys.readouterr().out
        assert "min cuts = 2" in text
        assert "instance evidence only" in text
        doc = loads(cert.read_text())
        assert doc["status"] == "feasible" and doc["k"] == 2
        assert doc["allocation"] is not None
        assert isinstance(doc["systems_examined"], int)

    def test_single_agent_zero(self, tmp_path, capsys, uniform):
        inst_path = write_instance(tmp_path / "i.json", make_instance([uniform], [1]))
        assert main(["min-cuts", inst_path, "--k-max", "2",
                     "-o", str(tmp_path / "c.json")]) == 0
        assert "min cuts = 0" in capsys.readouterr().out

    def test_not_found_within(self, tmp_path, capsys):
        inst_path = write_instance(tmp_path / "i.json", gen_lower_bound_instance(2))
        cert = tmp_path / "c.json"
        assert main(["min-cuts", inst_path, "--k-max", "1", "-o", str(cert)]) == 0
        assert "not found within k-max 1" in capsys.readouterr().out
        doc = loads(cert.read_text())
        assert doc["status"] == "infeasible" and doc["allocation"] is None

    def test_three_agent_family_needs_four(self, tmp_path, capsys):
        inst_path = write_instance(tmp_path / "i.json", gen_lower_bound_instance(3))
        assert main(["min-cuts", inst_path, "--k-max", "4",
                     "-o", str(tmp_path / "c.json")]) == 0
        assert "min cuts = 4" in capsys.readouterr().out

    def test_three_agent_family_exhausts_three(self, tmp_path, capsys):
        inst_path = write_instance(tmp_path / "i.json", gen_lower_bound_instance(3))
        cert = tmp_path / "c.json"
        assert main(["min-cuts", inst_path, "--k-max", "3", "-o", str(cert)]) == 0
        out = capsys.readouterr().out
        assert "not found within k-max 3" in out
        assert loads(cert.read_text())["status"] == "infeasible"

    def test_lines_say_what_their_number_is(self, tmp_path, capsys):
        """Each k= line prints the certificate's systems_examined: all the
        combinations when none is feasible, else the witness's canonical
        rank."""
        inst_path = write_instance(tmp_path / "i.json", gen_lower_bound_instance(4))
        cert = tmp_path / "c.json"
        assert main(["min-cuts", inst_path, "--k-max", "6", "-o", str(cert)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "k=5: infeasible (all 277200 combinations ruled out)" in lines
        assert "k=6: feasible (witness at combination 617775 in canonical order)" in lines
        assert loads(cert.read_text())["systems_examined"] == 617775

    def test_negative_k_max_exit_1(self, tmp_path, capsys):
        inst_path = write_instance(tmp_path / "i.json", gen_lower_bound_instance(2))
        assert main(["min-cuts", inst_path, "--k-max", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "k-max" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["i.json"]

    def test_witness_failing_the_verifier_exit_2(self, tmp_path, monkeypatch, capsys):
        # the witness is verified before the certificate is written: an
        # oracle that hands agent 1's piece to agent 2 is caught
        import entitled_cuts.bounds as bounds_mod

        real = bounds_mod._allocation_from_cuts

        def shortchange(n, cuts, assign):
            first, second, *rest = real(n, cuts, assign).pieces
            return Allocation((Region(), Region(first.intervals + second.intervals), *rest))

        monkeypatch.setattr(bounds_mod, "_allocation_from_cuts", shortchange)
        inst_path = write_instance(tmp_path / "i.json", gen_lower_bound_instance(2))
        cert = tmp_path / "c.json"
        assert main(["min-cuts", inst_path, "--k-max", "3", "-o", str(cert)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("internal verification failed:\n  agent 1 got 0, needs ")
        assert "min cuts" not in captured.out
        assert not cert.exists()

    def test_witness_over_k_cuts_exit_2(self, tmp_path, monkeypatch, capsys, uniform):
        # a fair partition with more cuts than k is no witness for k
        import entitled_cuts.bounds as bounds_mod

        ends = [F(k, 4) for k in range(5)]
        quarters = Allocation(tuple(
            Region(Interval(*ends[j:j + 2]) for j in (i, i + 2)) for i in (0, 1)
        ))
        monkeypatch.setattr(bounds_mod, "_allocation_from_cuts", lambda *a: quarters)
        inst_path = write_instance(
            tmp_path / "i.json", make_instance([uniform, uniform], ["1/2", "1/2"])
        )
        cert = tmp_path / "c.json"
        assert main(["min-cuts", inst_path, "--k-max", "2", "-o", str(cert)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "internal verification failed:\n  3 cuts exceed the bound 1\n"
        assert "k=1: feasible" in captured.out
        assert not cert.exists()

    def test_env_budget_cap_exit_3(self, tmp_path, monkeypatch):
        inst_path = write_instance(tmp_path / "i.json", gen_lower_bound_instance(3))
        monkeypatch.setenv("ENTITLED_CUTS_BUDGET", "5")
        assert main(["min-cuts", inst_path, "--k-max", "4"]) == 3

    def test_bad_env_budget_exit_1(self, tmp_path, monkeypatch, uniform):
        inst_path = write_instance(tmp_path / "i.json", make_instance([uniform], [1]))
        monkeypatch.setenv("ENTITLED_CUTS_BUDGET", "zero")
        assert main(["min-cuts", inst_path, "--k-max", "0"]) == 1


class TestBench:
    def test_row_shape(self, capsys):
        assert main(["bench", "--n-range", "2..3", "--seeds", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,seed,algorithm,cuts,paper_bound,proportional,runtime_ms"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 8  # 2 algorithms x 2 n x 2 seeds
        for row in rows:
            assert row[2] in ("recursive", "clone")
            assert int(row[3]) <= int(row[4])
            assert row[5] == "1"

    def test_empty_range_header_only(self, capsys):
        assert main(["bench", "--n-range", "3..2", "--seeds", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["n,seed,algorithm,cuts,paper_bound,proportional,runtime_ms"]

    def test_malformed_range(self, capsys):
        assert main(["bench", "--n-range", "2-3", "--seeds", "1"]) == 1

    @pytest.mark.parametrize("argv", [
        ["--n-range", "2-3", "--seeds", "1"],
        ["--n-range", "0..2", "--seeds", "1"],
        ["--n-range", "2..3", "--seeds", "1", "--max-cells", "0"],
        ["--n-range", "2..3", "--seeds", "1", "--denom-bound", "1"],
        ["--n-range", "2..3", "--seeds", "-1"],
        ["--n-range", "a..3", "--seeds", "1"],
    ])
    def test_bad_arguments_write_no_csv(self, argv, capsys):
        # checked before the header: `bench ... > bench.csv` must not leave
        # a file that reads as an empty-range result
        assert main(["bench", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


# --- malformed documents ---------------------------------------------------

_rationals = st.one_of(
    st.sampled_from(["0", "1", "1/2", "1/3", "2/3", "-1/2", "3/2", "1/0", "0/0",
                     "", " 1 ", "1.5", "1e3", "x", "1/2/3", "--1", "1_0", "9" * 5000]),
    st.fractions(min_value=-2, max_value=2, max_denominator=12).map(str),
)
_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | _rationals,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["agents", "pieces", "breakpoints", "densities"]),
                      inner, max_size=3),
    max_leaves=6,
)


def _slots(node):
    """Every (container, key) pair below node, node's own slots first."""
    keys = list(node) if isinstance(node, dict) else range(len(node))
    out = []
    for key in keys:
        out.append((node, key))
        if isinstance(node[key], (dict, list)):
            out.extend(_slots(node[key]))
    return out


@st.composite
def _mutated(draw, docs):
    """A valid document with up to two slots replaced or deleted."""
    doc = copy.deepcopy(draw(docs))
    for _ in range(draw(st.integers(0, 2))):
        slots = _slots(doc)
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if draw(st.booleans()):
            container[key] = draw(_junk)
        else:
            del container[key]
    return doc


_valid_instances = [
    random_instance(n, seed, max_cells=2, denom_bound=4) for n in (1, 2, 3) for seed in range(4)
] + [gen_lower_bound_instance(2)]
_instance_docs = _mutated(st.sampled_from(_valid_instances).map(instance_to_document))
_point = st.sampled_from(["0", "1/4", "1/3", "1/2", "2/3", "3/4", "1"])
_allocation_docs = _mutated(st.fixed_dictionaries({
    "pieces": st.lists(
        st.lists(st.lists(_point, min_size=2, max_size=2).map(sorted), max_size=2),
        max_size=3,
    ).map(lambda regions: [[i, ivs] for i, ivs in enumerate(regions)]),
    "algorithm": st.just("fuzz"),
}))


def _texts(docs):
    """Files holding a near-valid document, any JSON value, or any text."""
    return st.one_of(docs.map(dumps), _junk.map(dumps), st.text(max_size=20))


class TestMalformedDocuments:
    """Whatever the documents hold, the CLI ends in a documented exit code."""

    def _run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3, 4), (argv, code, err.getvalue())

    def test_deeply_nested_document_exit_1(self, tmp_path, capsys):
        # deep enough to exhaust the JSON decoder's recursion
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["solve", str(deep)]) == 1
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["solve", "BAD"],
        ["verify", "BAD", "GOOD"],
        ["verify", "GOOD", "BAD"],
        ["min-cuts", "BAD", "--k-max", "1"],
    ], ids=["solve", "verify-instance", "verify-allocation", "min-cuts"])
    def test_undecodable_file_names_its_path(self, tmp_path, capsys, uniform, command):
        # a file that does not decode cannot be read, and the error says
        # which file, as it does for a missing one
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        good = write_instance(tmp_path / "i.json", make_instance([uniform], [1]))
        argv = [{"BAD": str(bad), "GOOD": good}.get(arg, arg) for arg in command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {bad}: ") and "can't decode" in err

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(instance=_texts(_instance_docs), algorithm=st.sampled_from(["auto", "recursive"]))
    def test_solve(self, instance, algorithm):
        with tempfile.TemporaryDirectory() as tmp:
            inst = Path(tmp, "i.json")
            inst.write_text(instance)
            self._run(["solve", str(inst), "--algorithm", algorithm,
                       "-o", str(Path(tmp, "a.json"))])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(instance=_texts(_instance_docs), allocation=_texts(_allocation_docs))
    def test_verify(self, instance, allocation):
        with tempfile.TemporaryDirectory() as tmp:
            inst, alloc = Path(tmp, "i.json"), Path(tmp, "a.json")
            inst.write_text(instance)
            alloc.write_text(allocation)
            self._run(["verify", str(inst), str(alloc)])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(allocation=_texts(_allocation_docs))
    def test_verify_against_a_valid_instance(self, allocation):
        with tempfile.TemporaryDirectory() as tmp:
            inst = Path(write_instance(Path(tmp, "i.json"), random_instance(2, 5)))
            alloc = Path(tmp, "a.json")
            alloc.write_text(allocation)
            self._run(["verify", str(inst), str(alloc)])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(instance=_texts(_instance_docs), k_max=st.integers(-1, 2))
    def test_min_cuts(self, instance, k_max):
        with tempfile.TemporaryDirectory() as tmp:
            inst = Path(tmp, "i.json")
            inst.write_text(instance)
            self._run(["min-cuts", str(inst), "--k-max", str(k_max),
                       "-o", str(Path(tmp, "c.json"))])
