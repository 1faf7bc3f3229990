"""The bundled configs' outputs stay byte-identical to the recorded digests.

``output_digests.json`` holds the sha256 of ``report.json`` and ``trace.csv``
from ``casim run --trace`` on every bundled config, unseeded and with
CASIM_SEED=7, and of every file ``casim suite`` writes (the per-config
``*.report.json`` and ``comparison.csv``).  Any change to the numbers the
simulator produces shows up here as a digest mismatch.  The MEO delays,
the one step whose bytes rest on ``np.sin``, are checked to lie far enough
from a rounding tie that another host's ``sin`` gives the same digests.
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from casim.cli import bundled_scenario_dir, main
from casim.config import parse_scenario_file

TESTS = Path(__file__).parent
DIGESTS_PATH = TESTS / "output_digests.json"
DIGESTS = json.loads(DIGESTS_PATH.read_text())
BUNDLED = ("geo_ca", "geo_meo", "geo_rr", "meo_ca", "meo_geo")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", [None, "7"])
@pytest.mark.parametrize("name", BUNDLED)
def test_run_outputs_match_digests(tmp_path, monkeypatch, capsys, name, seed):
    if seed is None:
        monkeypatch.delenv("CASIM_SEED", raising=False)
    else:
        monkeypatch.setenv("CASIM_SEED", seed)
    config = bundled_scenario_dir() / f"{name}.cfg"
    assert main(["run", "--config", str(config), "--out", str(tmp_path), "--trace"]) == 0
    run_key = "unseeded" if seed is None else f"seed{seed}"
    for output in ("report.json", "trace.csv"):
        assert sha256(tmp_path / output) == DIGESTS[f"run/{run_key}/{name}/{output}"], output


def test_suite_outputs_match_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("CASIM_SEED", raising=False)
    assert main(["suite", "--out", str(tmp_path)]) == 0
    expected = {key.split("/", 1)[1]: value
                for key, value in DIGESTS.items() if key.startswith("suite/")}
    assert {path.name: sha256(path) for path in tmp_path.iterdir()} == expected


def test_ci_outputs_script(tmp_path):
    """``ci_outputs.py`` passes ``python -m casim.cli``'s outputs, fails naming
    a command whose output is empty or lacks its final newline, and fails
    naming the file whose digest a corrupted copy of the digests gets wrong."""
    # Without PYTHONUNBUFFERED, stdout into ci_outputs.py's pipes is block-buffered.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(TESTS.parent / "src"), env.get("PYTHONPATH")]))

    def ci_outputs(digests: Path, *command: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(TESTS / "ci_outputs.py"), str(tmp_path / "out"), str(digests),
             *command], env=env, capture_output=True, text=True, timeout=300)

    checked = ci_outputs(DIGESTS_PATH, sys.executable, "-m", "casim.cli")
    assert checked.returncode == 0, checked.stderr
    assert (tmp_path / "out" / "run" / "meo_geo" / "trace.csv").is_file()
    corrupted = tmp_path / "digests.json"
    corrupted.write_text(json.dumps({**DIGESTS, "run/unseeded/meo_geo/trace.csv": "0" * 64}))
    for code, printed in (("", "nothing"), ("print(end='x')", "no final newline")):
        silent = ci_outputs(DIGESTS_PATH, sys.executable, "-c", code)
        assert silent.returncode == 1
        assert silent.stderr == (f"{sys.executable} -c {code} suite --out "
                                 f"{tmp_path / 'out' / 'suite'} printed {printed}\n")
    # A command that prints a line and writes nothing leaves the outputs above,
    # so only the check reruns.
    failed = ci_outputs(corrupted, sys.executable, "-c", "print()")
    assert failed.returncode == 1
    assert failed.stderr == "outputs differ from their digests: run/unseeded/meo_geo/trace.csv\n"


# A MEO delay is 2 (L + A sin x) / c seconds, rounded to whole ns; every other
# step of the path (t / 1e9, the products, the sum, rint) is a correctly
# rounded IEEE operation.  One ulp of sin (<= 2**-53) moves the delay by at
# most 2 x 300 km x 2**-53 / c ~ 2.2e-10 ns, ~0.015 of the ulp of a ~80 ms
# delay (2**-26 ns).  So a delay at least 100 ulps from x.5 ns rounds to the
# same ns unless the host's sin errs by thousands of ulps.
MIN_TIE_MARGIN_ULPS = 100


@pytest.mark.parametrize("seed", [None, "7"])
@pytest.mark.parametrize("name", ("geo_meo", "meo_ca", "meo_geo"))
def test_meo_delays_are_far_from_a_rounding_tie(tmp_path, monkeypatch, capsys, name, seed):
    if seed is None:
        monkeypatch.delenv("CASIM_SEED", raising=False)
    else:
        monkeypatch.setenv("CASIM_SEED", seed)
    config = bundled_scenario_dir() / f"{name}.cfg"
    assert main(["run", "--config", str(config), "--out", str(tmp_path), "--trace"]) == 0
    trace = np.loadtxt(tmp_path / "trace.csv", dtype=np.int64, delimiter=",", skiprows=1)
    scenario = parse_scenario_file(config)
    rng = random.Random(seed)  # CASIM_SEED draws one phase per carrier, in order
    varying = 0
    for index, carrier in enumerate((scenario.carrier1, scenario.carrier2), 1):
        phase = rng.uniform(0.0, 2.0 * math.pi)
        orbit = carrier.orbit
        if orbit.variation_amplitude_km == 0.0:
            continue
        varying += 1
        if seed is not None:
            orbit = replace(orbit, variation_phase_rad=phase)
        tx_end, arrival = trace[trace[:, 1] == index][:, 4:].T
        delay_ns = orbit.propagation_delay_s(tx_end / 1e9) * 1e9
        assert (np.rint(delay_ns) == arrival - tx_end).all()  # the delays the run added
        margin_ulps = np.abs(delay_ns - (np.floor(delay_ns) + 0.5)) / np.spacing(delay_ns)
        assert margin_ulps.min() >= MIN_TIE_MARGIN_ULPS
    assert varying
