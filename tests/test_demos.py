"""Smoke tests: every demo script, and README's library quickstart, runs to
completion against the package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_does_what_its_comments_say(capsys):
    section = README.read_text().split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S)[1]
    namespace = {}
    exec(compile(code, "README.md quickstart", "exec"), namespace)
    plan, trace = namespace["plan"], namespace["trace"]
    said = re.search(r"# prefix: (\d+) x carrier (\d), cycle \[([\d,]+)\]", code)
    assert (said[1], said[2], said[3]) == ("38", "1", "1,1,2,1,1,1,2")
    assert (plan.prefix_length, plan.prefix_carrier) == (38, 1)
    assert list(plan.cycle) == [1, 1, 2, 1, 1, 1, 2]
    assert trace.seq.tolist() == sorted(range(5000), key=lambda s: (trace.carrier[s], s))
    assert len(capsys.readouterr().out.split()) == 3
