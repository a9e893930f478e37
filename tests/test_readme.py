"""The README's Python example runs as printed and reproduces the iris recipe's numbers."""
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else None]


def test_the_library_block_prints_the_trained_iris_numbers_of_the_recipe():
    (block,) = re.findall(r"```python\n(.*?)```", _section("Library"), re.S)
    # the recipe's comments after the trained fit: final_cost, then value and decision
    recipe = _section("The iris example").split("trained.json", 1)[1]
    want_risk = float(re.search(r"# final_cost (\S+),", recipe).group(1))
    want_value, want_decision = re.search(r"# value (\S+), decision (\S+),", recipe).groups()

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", block], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    risk, value, decision = run.stdout.split()
    # to the printed digits: six decimals
    assert float(risk) == pytest.approx(want_risk, abs=5e-7)
    assert float(value) == pytest.approx(float(want_value), abs=5e-7)
    assert int(decision) == int(want_decision) == -1
