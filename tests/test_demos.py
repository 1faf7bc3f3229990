"""Smoke tests: every demo script, and README's library quickstart, runs to
completion against the package; ``tests/line_count.py`` counts as ``wc -l``."""

import os
import re
import shutil
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


@pytest.mark.skipif(shutil.which("wc") is None, reason="needs wc")
def test_line_count_totals_match_wc():
    src = ROOT / "src" / "casim"
    script = subprocess.run([sys.executable, str(ROOT / "tests" / "line_count.py"), str(src)],
                            capture_output=True, text=True, timeout=60, check=True)
    rows = [line.split() for line in script.stdout.splitlines()[1:]]
    wc = subprocess.run(["wc", "-l", *sorted(map(str, src.glob("*.py")))],
                        capture_output=True, text=True, timeout=60, check=True)
    counted = [line.split() for line in wc.stdout.splitlines()]
    assert [(name, int(lines)) for name, lines, _ in rows] \
        == [(Path(path).name, int(lines)) for lines, path in counted]
    assert all(0 < int(code) < int(lines) for _, lines, code in rows)
