"""The bundled configs' outputs stay byte-identical to the recorded digests.

``output_digests.json`` holds the sha256 of ``report.json`` and ``trace.csv``
from ``casim run --trace`` on every bundled config, unseeded and with
CASIM_SEED=7, and of every file ``casim suite`` writes (the per-config
``*.report.json`` and ``comparison.csv``).  Any change to the numbers the
simulator produces shows up here as a digest mismatch.
"""

import hashlib
import json
from pathlib import Path

import pytest

from casim.cli import bundled_scenario_dir, main

DIGESTS = json.loads((Path(__file__).parent / "output_digests.json").read_text())
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
