import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from casim.cli import _atomic_write, bundled_scenario_dir, main
from casim.config import (
    parse_scenario_file,
    parse_scenario_text,
    serialize_scenario,
)
from casim.errors import ConfigError, DominanceViolated
from casim.scheduler import build_plan
from helpers import alpha_scenario

BUNDLED = ("geo_ca", "geo_rr", "meo_ca", "meo_geo", "geo_meo")


def bundled_path(name: str) -> Path:
    return bundled_scenario_dir() / f"{name}.cfg"


def with_value(text: str, key: str, value: str) -> str:
    """Config text with the ``key=...`` line set to ``key=value``."""
    lines = text.splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(key + "="))
    lines[index] = f"{key}={value}"
    return "\n".join(lines) + "\n"


def assert_run_exits_3(tmp_path, capsys, name: str, key: str, value: str) -> str:
    """Run bundled config ``name`` with ``key=value``; require exit 3, an
    ``error:`` line and no outputs.  Returns stderr."""
    bad = tmp_path / "bad.cfg"
    bad.write_text(with_value(bundled_path(name).read_text(), key, value))
    out = tmp_path / "out"
    assert main(["run", "--config", str(bad), "--out", str(out), "--trace"]) == 3
    err = capsys.readouterr().err
    assert any(line.startswith("error:") for line in err.splitlines())
    assert not out.exists() or not any(out.iterdir())
    return err


def pairs_of(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            out[key] = value
    return out


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_config_round_trips_key_for_key(self, name):
        original = bundled_path(name).read_text()
        scenario = parse_scenario_text(original)
        rendered = serialize_scenario(scenario)
        assert pairs_of(rendered) == pairs_of(original)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_serialization_is_a_fixed_point(self, name):
        scenario = parse_scenario_file(bundled_path(name))
        once = serialize_scenario(scenario)
        again = serialize_scenario(parse_scenario_text(once))
        assert once == again

    def test_parsed_values(self):
        sc = parse_scenario_file(bundled_path("geo_ca"))
        assert sc.label == "geo_ca"
        assert sc.carrier1.symbol_rate_sym_s == 4_640_000
        assert sc.carrier1.fill_rate == Fraction(1, 4)
        assert sc.carrier2.symbol_rate_sym_s == 1_856_000
        assert sc.burst_sizes == (2500, 2500)
        assert sc.bursts[0].inter_burst_gap_s == 20.0

    def test_modcod_defaults_from_snr(self):
        text = bundled_path("geo_ca").read_text()
        stripped = "\n".join(
            line for line in text.splitlines() if ".modcod=" not in line)
        sc = parse_scenario_text(stripped)
        assert sc.carrier1.modcod.name == "8PSK 5/6"


class TestConfigErrors:
    def test_missing_key(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_scenario_text("label=x\n")

    def test_unknown_key(self):
        text = bundled_path("geo_ca").read_text() + "bogus_key=1\n"
        with pytest.raises(ConfigError, match="unknown key"):
            parse_scenario_text(text)

    def test_duplicate_key(self):
        text = bundled_path("geo_ca").read_text() + "label=again\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_scenario_text(text)

    def test_bad_scheduler(self):
        text = bundled_path("geo_ca").read_text().replace(
            "scheduler=load_balancing", "scheduler=fifo")
        with pytest.raises(ConfigError, match="scheduler"):
            parse_scenario_text(text)

    def test_bad_burst_entry(self):
        text = bundled_path("geo_ca").read_text().replace(
            "bursts=2500:20.0,2500:0.0", "bursts=lots")
        with pytest.raises(ConfigError, match="bursts"):
            parse_scenario_text(text)

    def test_invariant_violation_surfaces(self):
        text = bundled_path("geo_ca").read_text().replace(
            "carrier1.symbol_rate_sym_s=4640000",
            "carrier1.symbol_rate_sym_s=1000000")
        with pytest.raises(DominanceViolated):
            parse_scenario_text(text)


class TestCli:
    def test_run_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(bundled_path("geo_ca")),
                     "--out", str(out), "--trace"])
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "comparison.csv").exists()
        assert (out / "trace.csv").exists()
        assert (out / "manifest.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["cycle"] == [1, 1, 2, 1, 1, 1, 2]
        assert report["label"] == "geo_ca"
        assert report["metrics"]["n_pdus"] == 5000
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["config_sha256"]) == 64

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_invariant_violation_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            bundled_path("geo_ca").read_text().replace(
                "carrier1.symbol_rate_sym_s=4640000",
                "carrier1.symbol_rate_sym_s=1000000"))
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "dominant" in err

    def test_no_partial_outputs_on_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("label=x\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("key, value", [
        ("carrier1.leg_km", "nan"),
        ("carrier2.leg_km", "inf"),
        ("carrier1.variation_period_s", "nan"),
        ("bursts", "100:nan,100:0"),
        ("carrier1.snr_db", "nan"),
    ])
    def test_non_finite_value_exits_3(self, tmp_path, capsys, key, value):
        assert_run_exits_3(tmp_path, capsys, "meo_geo", key, value)

    @pytest.mark.parametrize("key, value", [
        ("carrier2.symbol_rate_sym_s", "10000"),  # alpha = 1/464
        ("carrier1.symbol_rate_sym_s", "1e400"),
    ])
    def test_alpha_below_one_in_128_exits_3(self, tmp_path, capsys, key, value):
        err = assert_run_exits_3(tmp_path, capsys, "geo_ca", key, value)
        assert "1/128" in err

    def test_failed_write_leaves_no_files(self, tmp_path):
        target = tmp_path / "report.json"

        def failing_writer(path):
            path.write_text("partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            _atomic_write(target, failing_writer)
        assert not target.exists()
        assert not (tmp_path / "report.json.tmp").exists()

    def test_suite_over_bundled_configs(self, tmp_path, capsys):
        out = tmp_path / "suite"
        code = main(["suite", "--dir", str(bundled_scenario_dir()),
                     "--out", str(out)])
        assert code == 0
        lines = (out / "comparison.csv").read_text().strip().splitlines()
        assert len(lines) == 6  # header + 5 scenarios
        for name in BUNDLED:
            assert (out / f"{name}.report.json").exists()
            assert any(line.startswith(name + ",") for line in lines[1:])

    def test_plan_alpha(self, capsys):
        assert main(["plan", "--alpha", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "[1,1,2,1,1,1,2]" in out

    def test_plan_alpha_reports_rounding(self, capsys):
        assert main(["plan", "--alpha", "0.33"]) == 0
        out = capsys.readouterr().out
        assert "alpha: 33/100 = 0.330000" in out
        assert "alpha_used: 21/64 = 0.328125" in out
        assert main(["plan", "--alpha", "0.4"]) == 0
        assert "alpha_used" not in capsys.readouterr().out

    @pytest.mark.parametrize("alpha", ["1/3", "0.33"])
    def test_plan_alpha_matches_build_plan(self, capsys, alpha):
        assert main(["plan", "--alpha", alpha]) == 0
        cycle = build_plan(alpha_scenario(Fraction(alpha))).cycle
        assert f"cycle: [{','.join(map(str, cycle))}]" in capsys.readouterr().out

    @pytest.mark.parametrize("alpha", ["0", "-1", "2", "1e400"])
    def test_plan_alpha_out_of_domain_exits_3(self, capsys, alpha):
        assert main(["plan", "--alpha", alpha]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: alpha must be in (0, 1]")

    @pytest.mark.parametrize("value", ["1e999999999", "1e-999999999"])
    @pytest.mark.parametrize("name", ["carrier1.symbol_rate_sym_s", "--alpha"])
    def test_huge_decimal_exponent_exits_2_quickly(self, tmp_path, capsys, name, value):
        # Fraction would compute 10**999999999 exactly, which takes hours
        if name == "--alpha":
            argv = ["plan", "--alpha", value]
        else:
            cfg = tmp_path / "huge.cfg"
            cfg.write_text(with_value(bundled_path("meo_geo").read_text(), name, value))
            argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
        started = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - started < 1.0
        assert capsys.readouterr().err.startswith(f"error: {name}: decimal exponent beyond")

    def test_plan_config_shows_prefix(self, capsys):
        assert main(["plan", "--config", str(bundled_path("meo_geo"))]) == 0
        out = capsys.readouterr().out
        assert "prefix: 38 x carrier 1 (MEO)" in out

    def test_prefix_output(self, capsys):
        assert main(["prefix", "--config", str(bundled_path("meo_geo"))]) == 0
        out = capsys.readouterr().out
        assert "raw_initial_sequence: 38.4753" in out
        assert "prefix_length: 38" in out

    def test_prefix_equal_orbits(self, capsys):
        assert main(["prefix", "--config", str(bundled_path("geo_ca"))]) == 0
        out = capsys.readouterr().out
        assert "prefix_length: 0" in out

    @pytest.mark.parametrize("leg_km, command, code", [
        ("1e300", "run", 0),  # the prefix covers the run; GEO carries nothing
        ("1e300", "plan", 0),
        ("1e300", "prefix", 0),
        ("1e308", "run", 3),  # the raw prefix is infinite
        ("1e308", "plan", 3),
        ("1e308", "prefix", 3),
    ])
    def test_huge_leg_distance(self, tmp_path, capsys, leg_km, command, code):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(with_value(bundled_path("meo_geo").read_text(), "carrier2.leg_km", leg_km))
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out"), "--trace"]
        assert main(argv) == code
        captured = capsys.readouterr()
        if code == 3:
            assert captured.err.startswith("error:")
            assert captured.out == ""
            return
        if command == "run":
            report = json.loads((tmp_path / "out" / "report.json").read_text())
            assert (report["prefix_carrier"], report["metrics"]["n_pdus"]) == (1, 5000)
            length = report["prefix_length"]
        else:
            # plan prints "prefix: N x carrier 1 (MEO)", prefix "prefix_length: N"
            length = re.search(r"^prefix(?:_length)?: (\d+)", captured.out, re.MULTILINE)[1]
        assert int(length) > 10**290


class TestSeedEnvVar:
    def test_seed_changes_varying_orbit_runs(self, tmp_path, monkeypatch):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_c = tmp_path / "c"
        config = str(bundled_path("meo_geo"))
        monkeypatch.delenv("CASIM_SEED", raising=False)
        main(["run", "--config", config, "--out", str(out_a), "--trace"])
        monkeypatch.setenv("CASIM_SEED", "42")
        main(["run", "--config", config, "--out", str(out_b), "--trace"])
        main(["run", "--config", config, "--out", str(out_c), "--trace"])
        baseline = (out_a / "trace.csv").read_bytes()
        seeded = (out_b / "trace.csv").read_bytes()
        seeded_again = (out_c / "trace.csv").read_bytes()
        assert seeded != baseline  # phase offset moved the MEO sinusoid
        assert seeded == seeded_again  # still deterministic for a fixed seed

    def test_seed_is_inert_for_constant_orbits(self, tmp_path, monkeypatch):
        config = str(bundled_path("geo_ca"))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        monkeypatch.delenv("CASIM_SEED", raising=False)
        main(["run", "--config", config, "--out", str(out_a)])
        monkeypatch.setenv("CASIM_SEED", "42")
        main(["run", "--config", config, "--out", str(out_b)])
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
