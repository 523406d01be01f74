"""The README's examples, run as written, so the docs cannot drift from
the code."""

import re
import subprocess
import sys
from pathlib import Path

from entitled_cuts.cli import main

from conftest import child_env

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_python_api_example_runs(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
    assert len(blocks) == 1
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        capture_output=True, text=True, cwd=tmp_path, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_min_cuts_example_output(tmp_path, monkeypatch, capsys):
    # the lines quoted under the command, without their "#   " prefix
    quoted = re.search(
        r"^entitled-cuts min-cuts family2\.json --k-max 3\n((?:#   .*\n)+)", README, re.M
    )
    expected = [line[4:] for line in quoted.group(1).splitlines()]
    assert expected == [
        "k=0: infeasible (all 0 combinations ruled out)",
        "k=1: infeasible (all 6 combinations ruled out)",
        "k=2: feasible (witness at combination 3 in canonical order)",
        "min cuts = 2",
    ]
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--lower-bound", "2", "-o", "family2.json"]) == 0
    capsys.readouterr()
    assert main(["min-cuts", "family2.json", "--k-max", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[:4] == expected
