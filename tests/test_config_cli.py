import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casim.cli import _atomic_write, bundled_scenario_dir, main
from casim.config import parse_scenario_file, parse_scenario_text
from casim.errors import ConfigError, InvariantError
from casim.model import (
    DEFAULT_MEO_VARIATION_PERIOD_S,
    FRAMES_PER_SUPERFRAME_BUNDLE,
    MAX_TOTAL_PDUS,
    MODCODS,
    SUPERFRAME_SYMBOLS,
    Burst,
    CarrierConfig,
    OrbitModel,
    ScenarioConfig,
    SchedulerKind,
)
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


def assert_run_exits_3(tmp_path, capsys, name: str, *pairs: str) -> str:
    """Run bundled config ``name`` with each ``key=value`` of ``pairs`` (key,
    value, key, value, ...); require exit 3, an ``error:`` line and no
    outputs.  Returns stderr."""
    text = bundled_path(name).read_text()
    for key, value in zip(pairs[::2], pairs[1::2]):
        text = with_value(text, key, value)
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
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

    def test_absent_path_keys_take_their_defaults(self):
        text = bundled_path("meo_geo").read_text()
        stripped = "\n".join(line for line in text.splitlines() if ".variation_" not in line)
        orbit = parse_scenario_text(stripped).carrier1.orbit
        assert (orbit.variation_amplitude_km, orbit.variation_period_s,
                orbit.variation_phase_rad) == (0.0, DEFAULT_MEO_VARIATION_PERIOD_S, 0.0)

    def test_empty_modcod_is_refused_not_derived(self):
        text = with_value(bundled_path("geo_ca").read_text(), "carrier1.modcod", "")
        with pytest.raises(ConfigError, match="carrier1.modcod: unknown MODCOD ''"):
            parse_scenario_text(text)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _orbits(draw) -> OrbitModel:
    """Orbits that OrbitModel accepts: with a period of at least 1e-290 s and
    a phase within +-1e307 rad, the phase at 2**63 ns stays finite."""
    leg = draw(_POSITIVE)
    if draw(st.booleans()):
        return OrbitModel.geo(leg)
    return OrbitModel.meo(leg, draw(st.floats(0.0, leg)),
                          draw(st.floats(1e-290, allow_infinity=False)),
                          draw(st.floats(-1e307, 1e307)))


@st.composite
def _carriers(draw) -> CarrierConfig:
    # a fill rate of at least 1/10 gives every MODCOD a frame share of 405 B
    return CarrierConfig(
        symbol_rate_sym_s=draw(st.fractions(min_value=Fraction(1, 1000), max_denominator=10**6)),
        modcod=draw(st.sampled_from(list(MODCODS.values()))),
        fill_rate=draw(st.fractions(Fraction(1, 10), 1, max_denominator=1000)),
        snr_db=draw(_FINITE),
        orbit=draw(_orbits()),
    )


# a label a file can hold: no "#", no line break, no surrounding whitespace
_LABELS = st.text().filter(
    lambda label: "#" not in label and label == label.strip()
    and "".join(label.splitlines()) == label)


@st.composite
def _scenarios(draw) -> ScenarioConfig:
    """Valid scenarios that a file can hold: carrier 1 dominates and a PDU
    of at most 400 B fits every frame share."""
    a, b = draw(_carriers()), draw(_carriers())
    if a.usable_capacity_bps() < b.usable_capacity_bps():
        a, b = b, a
    bursts = st.builds(Burst, st.integers(1, 10**6), st.floats(0.0, allow_infinity=False))
    return ScenarioConfig(
        carrier1=a,
        carrier2=b,
        scheduler=draw(st.sampled_from(list(SchedulerKind))),
        pdu_size_bytes=draw(st.integers(1, 400)),
        bursts=draw(st.lists(bursts, min_size=1, max_size=4)),
        label=draw(_LABELS),
    )


def _scenario_text(scenario: ScenarioConfig) -> str:
    """``scenario`` as a config file, written without casim.config: every key
    spelled out, rates by str (exact p/q), floats by repr."""
    bursts = ",".join(f"{b.pdu_count}:{b.inter_burst_gap_s!r}" for b in scenario.bursts)
    lines = [f"label={scenario.label}", f"scheduler={scenario.scheduler.value}",
             f"pdu_size_bytes={scenario.pdu_size_bytes}", f"bursts={bursts}"]
    for prefix, carrier in (("carrier1", scenario.carrier1), ("carrier2", scenario.carrier2)):
        orbit = carrier.orbit
        lines += [
            f"{prefix}.symbol_rate_sym_s={carrier.symbol_rate_sym_s}",
            f"{prefix}.modcod={carrier.modcod.name}",
            f"{prefix}.fill_rate={carrier.fill_rate}",
            f"{prefix}.snr_db={carrier.snr_db!r}",
            f"{prefix}.orbit={orbit.kind.value}",
            f"{prefix}.leg_km={orbit.mean_leg_distance_km!r}",
            f"{prefix}.variation_amplitude_km={orbit.variation_amplitude_km!r}",
            f"{prefix}.variation_period_s={orbit.variation_period_s!r}",
            f"{prefix}.variation_phase_rad={orbit.variation_phase_rad!r}",
        ]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_scenarios())
def test_drawn_scenario_reads_back(scenario):
    assert parse_scenario_text(_scenario_text(scenario)) == scenario


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

    def test_empty_burst_entry_is_skipped(self):
        text = with_value(bundled_path("geo_ca").read_text(), "bursts", "10:0.0,,20:0.0")
        assert parse_scenario_text(text).burst_sizes == (10, 20)

    def test_bad_burst_entry(self):
        text = bundled_path("geo_ca").read_text().replace(
            "bursts=2500:20.0,2500:0.0", "bursts=lots")
        with pytest.raises(ConfigError, match="bursts"):
            parse_scenario_text(text)

    def test_invariant_violation_surfaces(self):
        text = bundled_path("geo_ca").read_text().replace(
            "carrier1.symbol_rate_sym_s=4640000",
            "carrier1.symbol_rate_sym_s=1000000")
        with pytest.raises(InvariantError, match="carrier 1 must be dominant"):
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
        assert list(manifest) == ["label", "config_sha256", "outputs", "duration_s"]
        assert len(manifest["config_sha256"]) == 64
        assert manifest["outputs"] == ["report.json", "comparison.csv", "trace.csv"]

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

    @pytest.mark.parametrize("command", ["run", "suite"])
    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys, command, out):
        (tmp_path / "file").write_text("")
        argv = [command, "--out", str(tmp_path / out)]
        if command == "run":
            argv += ["--config", str(bundled_path("geo_ca"))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert (tmp_path / "file").read_text() == ""

    def test_suite_of_a_directory_without_configs_exits_2(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("")
        out = tmp_path / "out"
        assert main(["suite", "--dir", str(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: no *.cfg files in {tmp_path}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("pairs, message", [
        (("pdu_size_bytes", "100000"), "PDU of 100000 B exceeds the per-frame share of 1687.5 B"),
        (("bursts", "1:0.0"), "throughput needs at least 2 PDUs, got 1"),
        # service and delay both round to 0 ns, so the one burst has no window
        (("carrier1.symbol_rate_sym_s", "1e15", "carrier2.symbol_rate_sym_s", "1e15",
          "carrier1.leg_km", "1e-9", "carrier2.leg_km", "1e-9"), "total active time is zero"),
        (("pdu_size_bytes", "0"), "pdu_size_bytes must be > 0, got 0"),
    ])
    def test_refusal_message_exits_3(self, tmp_path, capsys, pairs, message):
        # the message names the invariant: it is the whole of stderr
        assert assert_run_exits_3(tmp_path, capsys, "geo_ca", *pairs) == f"error: {message}\n"

    def test_zero_window_burst_reports_zero_throughput(self, tmp_path, capsys):
        # Service rounds to 0 ns and each path is 0 km long at t = 0, so burst 1
        # has no active window; burst 2, a quarter period later, has one.
        lines = ["label=zero_window", "scheduler=load_balancing", "pdu_size_bytes=1500",
                 "bursts=2:150.0,2:0.0"]
        for i in (1, 2):
            lines += [f"carrier{i}.{key}={value}" for key, value in (
                ("symbol_rate_sym_s", "1e15"), ("modcod", "8PSK 5/6"), ("fill_rate", "1"),
                ("snr_db", "10.0"), ("orbit", "MEO"), ("leg_km", "0.1"),
                ("variation_amplitude_km", "0.1"), ("variation_phase_rad", repr(-math.pi / 2)))]
        cfg = tmp_path / "zero_window.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        metrics = json.loads((tmp_path / "out" / "report.json").read_text())["metrics"]
        first, second = metrics["per_burst"]
        assert first["throughput_bps"] == 0.0
        assert second["throughput_bps"] > 0 and metrics["throughput_bps"] > 0

    def test_huge_dominated_capacity_exits_3(self, tmp_path, capsys):
        # carrier 2's ~6e399 bps capacity dominates; no float can hold it
        err = assert_run_exits_3(
            tmp_path, capsys, "meo_geo", "carrier2.symbol_rate_sym_s", "1e400")
        assert "< carrier 2's 6.25e+399 bps" in err
        assert "Traceback" not in err

    def test_huge_burst_gap_exits_3(self, tmp_path, capsys):
        # 1e308 s is an infinite float count of ns
        err = assert_run_exits_3(tmp_path, capsys, "meo_geo", "bursts", "10:1e308,10:0")
        assert "transmission times exceed the int64 range" in err
        assert "Traceback" not in err

    def test_transmission_times_at_the_int64_bound(self, tmp_path, capsys):
        # geo_ca's carriers, both at one symbol rate, carry one 1500 B PDU per
        # 8PSK (3 bits per symbol) frame.  At the rate given as p/q text below,
        # a PDU's service is `service` ns exactly.  Seven PDUs in one burst
        # take 7 x (2**63 - 1) / 7 ns, int64's max, which `run` allows; one
        # ns more per PDU is refused.
        def rate(service: int) -> str:
            value = Fraction(SUPERFRAME_SYMBOLS * 10**9, FRAMES_PER_SUPERFRAME_BUNDLE * 3 * service)
            return f"{value.numerator}/{value.denominator}"

        edge = (2**63 - 1) // 7
        assert 7 * edge == 2**63 - 1
        text = with_value(bundled_path("geo_ca").read_text(), "bursts", "7:0.0")
        for key in ("carrier1.symbol_rate_sym_s", "carrier2.symbol_rate_sym_s"):
            text = with_value(text, key, rate(edge))
        config = tmp_path / "edge.cfg"
        config.write_text(text)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "edge")]) == 0
        assert parse_scenario_file(config).service_ns == (edge, edge)
        err = assert_run_exits_3(tmp_path, capsys, "geo_ca", "bursts", "7:0.0",
                                 "carrier1.symbol_rate_sym_s", rate(edge + 1),
                                 "carrier2.symbol_rate_sym_s", rate(edge + 1))
        assert err == "error: transmission times exceed the int64 range\n"

    @pytest.mark.parametrize("command, values", [
        ("run", {"carrier1.symbol_rate_sym_s": "1e400",  # alpha 2/5: the cycle is fine
                 "carrier2.symbol_rate_sym_s": "4e399"}),
        ("prefix", {"carrier1.symbol_rate_sym_s": "1e400"}),
    ])
    def test_rate_past_float_range_exits_3(self, tmp_path, capsys, command, values):
        text = bundled_path("meo_geo").read_text()
        for key, value in values.items():
            text = with_value(text, key, value)
        cfg = tmp_path / "huge_rate.cfg"
        cfg.write_text(text)
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: symbol_rate_sym_s 1.00e+400 exceeds the float range")
        assert "Traceback" not in captured.err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(bundled_path("geo_ca").read_bytes().replace(b"label=geo_ca", b"label=\xe9"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read config file")

    def test_bursts_without_an_entry_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "no_bursts.cfg"
        cfg.write_text(with_value(bundled_path("geo_ca").read_text(), "bursts", ","))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: bursts: at least one count:gap_s entry required\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "plan", "prefix"])
    def test_config_directory_exits_2(self, tmp_path, capsys, command):
        argv = [command, "--config", str(tmp_path)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        with pytest.raises(OSError) as read_error:
            tmp_path.read_bytes()
        assert capsys.readouterr().err == \
            f"error: cannot read config file {tmp_path}: {read_error.value}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["run", "--trace"], ["plan"], ["prefix"]])
    def test_config_file_is_read_once(self, tmp_path, capsys, monkeypatch, command):
        config = bundled_path("meo_geo")
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) == config:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        out = ["--out", str(tmp_path / "out")] if command[0] == "run" else []
        assert main([*command, "--config", str(config), *out]) == 0
        assert len(opened) == 1

    def test_crlf_config_gives_the_same_report(self, tmp_path, capsys):
        crlf = tmp_path / "meo_geo.cfg"
        crlf.write_bytes(bundled_path("meo_geo").read_bytes().replace(b"\n", b"\r\n"))
        reports = []
        for name, config in (("lf", bundled_path("meo_geo")), ("crlf", crlf)):
            assert main(["run", "--config", str(config), "--out", str(tmp_path / name)]) == 0
            reports.append((tmp_path / name / "report.json").read_bytes())
        assert b"\r" in crlf.read_bytes()
        assert reports[0] == reports[1]

    def test_pdu_ceiling_exits_3_before_allocating(self, tmp_path, capsys):
        started = time.perf_counter()
        err = assert_run_exits_3(tmp_path, capsys, "meo_geo", "bursts", "100000000000:0.0")
        assert time.perf_counter() - started < 1.0
        assert f"at most {MAX_TOTAL_PDUS} PDUs" in err

    @pytest.mark.parametrize("name, key, value, command", [
        ("geo_rr", "pdu_size_bytes", "10000", "plan"),  # round robin: no prefix
        ("geo_ca", "carrier2.fill_rate", "0.01", "plan"),  # not the prefix carrier
        ("geo_ca", "carrier2.fill_rate", "0.01", "prefix"),
    ])
    def test_pdu_no_frame_holds_exits_3(self, tmp_path, capsys, name, key, value, command):
        # the scenario derives both carriers' PDUs per frame when it is built
        cfg = tmp_path / "no_fit.cfg"
        cfg.write_text(with_value(bundled_path(name).read_text(), key, value))
        assert main([command, "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: PDU of ")
        assert "exceeds the per-frame share" in captured.err
        assert captured.out == ""

    def test_failed_write_leaves_no_files(self, tmp_path):
        target = tmp_path / "report.json"

        def failing_writer(path):
            path.write_text("partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            _atomic_write(target, failing_writer)
        assert not target.exists()
        assert not (tmp_path / "report.json.tmp").exists()

    @pytest.mark.parametrize("argv, reports", [
        (["run", "--config", str(bundled_path("geo_ca")), "--trace"], ["report.json"]),
        (["suite"], [f"{name}.report.json" for name in BUNDLED]),
    ], ids=["run", "suite"])
    def test_failed_write_stops_the_outputs_after_it(self, tmp_path, capsys, argv, reports):
        # comparison.csv cannot replace a directory: the reports written before it
        # stay, and trace.csv, manifest.json and the printed comparison never come
        out = tmp_path / "out"
        (out / "comparison.csv" / "held").mkdir(parents=True)
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write outputs: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert sorted(p.name for p in out.iterdir()) == sorted(["comparison.csv", *reports])

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

    def test_suite_names_reports_after_config_files(self, tmp_path, capsys):
        # named after labels, "../escaped" wrote beside --out and "dup" once
        text = bundled_path("geo_ca").read_text()
        configs = tmp_path / "configs"
        configs.mkdir()
        for stem, label in (("one", "dup"), ("two", "dup"), ("three", "../escaped")):
            (configs / f"{stem}.cfg").write_text(with_value(text, "label", label))
        out = tmp_path / "out" / "x"
        assert main(["suite", "--dir", str(configs), "--out", str(out)]) == 0
        assert sorted(str(p.relative_to(tmp_path / "out")) for p in (tmp_path / "out").rglob("*")) \
            == ["x", "x/comparison.csv", "x/one.report.json", "x/three.report.json",
                "x/two.report.json"]
        for stem, label in (("one", "dup"), ("two", "dup"), ("three", "../escaped")):
            assert json.loads((out / f"{stem}.report.json").read_text())["label"] == label
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["dup", "../escaped", "dup"]

    @pytest.mark.parametrize("key, value, code", [
        ("pdu_size_bytes", "abc", 2),
        ("carrier1.variation_amplitude_km", "20000", 3),  # above its 11933 km leg
    ])
    def test_suite_with_a_bad_last_config_writes_nothing(self, tmp_path, capsys,
                                                          key, value, code):
        configs = tmp_path / "configs"
        configs.mkdir()
        for name in BUNDLED:
            text = bundled_path(name).read_text()
            if name == "meo_geo":  # the last in sorted order
                text = with_value(text, key, value)
            (configs / f"{name}.cfg").write_text(text)
        out = tmp_path / "out"
        assert main(["suite", "--dir", str(configs), "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("seed", [None, "2"])
    @pytest.mark.parametrize("command", ["run", "plan", "prefix"])
    def test_amplitude_beyond_mean_leg_exits_3(self, tmp_path, capsys, monkeypatch,
                                               command, seed):
        # meo_geo's MEO leg is 11933 km: unseeded this exited 0, with seed 2
        # it exited 3 naming the trace times
        if seed is None:
            monkeypatch.delenv("CASIM_SEED", raising=False)
        else:
            monkeypatch.setenv("CASIM_SEED", seed)
        cfg = tmp_path / "deep.cfg"
        cfg.write_text(with_value(bundled_path("meo_geo").read_text(),
                                  "carrier1.variation_amplitude_km", "20000"))
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: variation_amplitude_km must be in [0, ")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

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

    def test_prefix_on_round_robin_pins_nothing(self, tmp_path, capsys):
        # the steps print for the orbits, but round robin pins no prefix
        text = with_value(bundled_path("geo_rr").read_text(), "carrier1.orbit", "MEO")
        cfg = tmp_path / "meo_rr.cfg"
        cfg.write_text(with_value(text, "carrier1.leg_km", "11933.0"))
        assert main(["prefix", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "raw_initial_sequence: 38.4753\n" in out
        assert out.endswith("prefix_length: 0\n")
        assert main(["plan", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.endswith("prefix: (empty)\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert (report["prefix_carrier"], report["prefix_length"]) == (None, 0)

    def test_equal_orbits_need_no_float_rate(self, tmp_path, capsys):
        # no prefix, so no rate is converted: prefix agrees with plan and run
        text = bundled_path("geo_ca").read_text()
        text = with_value(text, "carrier1.symbol_rate_sym_s", "1e400")
        cfg = tmp_path / "huge_rate.cfg"
        cfg.write_text(with_value(text, "carrier2.symbol_rate_sym_s", "4e399"))
        assert main(["plan", "--config", str(cfg)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert main(["prefix", "--config", str(cfg)]) == 0
        assert "prefix_length: 0\n" in capsys.readouterr().out

    def test_alpha_too_long_to_print(self, tmp_path, capsys):
        # each term has 4200 digits, which Python reads; alpha's have more
        # than the 4300 it will print, so plan shows alpha to three digits
        text = with_value(bundled_path("geo_ca").read_text(), "carrier1.symbol_rate_sym_s",
                          f"7{'3' * 4199}/{'9' * 4200}")
        cfg = tmp_path / "long_alpha.cfg"
        cfg.write_text(with_value(text, "carrier2.symbol_rate_sym_s",
                                  f"7{'1' * 4199}/{'9' * 4199}7"))
        assert main(["plan", "--config", str(cfg)]) == 0
        out, err = capsys.readouterr()
        assert "\nalpha: 0.970\nalpha_used: 32/33 = 0.969697\n" in out and err == ""
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert main(["prefix", "--config", str(cfg)]) == 0
        capsys.readouterr()
        # 4299 decimals at exponent -1: a denominator of 4301 digits
        assert main(["plan", "--alpha", f"0.5{'0' * 4297}1e-1"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("alpha: 0.0500 = 0.050000\nalpha_used: 1/20 = ") and err == ""

    def test_equal_orbits_give_a_zero_raw_prefix(self, tmp_path, capsys):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(
            with_value(bundled_path("geo_ca").read_text(), "carrier1.symbol_rate_sym_s", "1e308"))
        assert main(["prefix", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "raw_initial_sequence: 0.0000\n" in out
        assert "nan" not in out

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


# Values for one mutated key: out of range, non-finite, signed zero, huge,
# malformed and empty.  The base bursts offer 2000 PDUs, and drawn burst
# counts keep a valid scenario at 3 x 666 = 1998 PDUs or fewer, or put it past
# MAX_TOTAL_PDUS (refused before anything is allocated): the cap that keeps
# an example to milliseconds.
_NASTY = ("1e308", "1e400", "-1e400", "1e-400", "-0", "0", "-1", "nan", "inf", "-inf",
          str(10**30), str(-10**30), "1/0", "0/0", "3/7", "1_000", "0x10", "", " ", "garbage")
_VALUES = st.one_of(
    st.sampled_from(_NASTY),
    st.floats().map(repr),
    st.integers().map(str),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)
_BURST_COUNTS = st.one_of(
    st.integers(-3, 666).map(str),
    st.sampled_from((str(MAX_TOTAL_PDUS + 1), str(10**30), "", "x", "1e3", "nan")),
)
_BURSTS = st.lists(
    st.tuples(_BURST_COUNTS, st.one_of(st.sampled_from(_NASTY), st.floats().map(repr))),
    min_size=1, max_size=3,
).map(lambda entries: ",".join(f"{count}:{gap}" for count, gap in entries))


@st.composite
def _mutated_configs(draw) -> str:
    """A bundled config, its bursts cut to 1000:20.0,1000:0.0, with one key's
    value replaced."""
    text = with_value(bundled_path(draw(st.sampled_from(BUNDLED))).read_text(),
                      "bursts", "1000:20.0,1000:0.0")
    key = draw(st.sampled_from(sorted(pairs_of(text))))
    return with_value(text, key, draw(_BURSTS if key == "bursts" else _VALUES))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_mutated_configs())
@example(with_value(bundled_path("meo_geo").read_text(), "bursts", "10:1e308,10:0"))
@example(with_value(bundled_path("meo_geo").read_text(), "carrier1.symbol_rate_sym_s", "1e400"))
def test_mutated_config_exits_0_2_or_3(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "mutated.cfg"
        cfg.write_text(text)
        for argv in (["run", "--out", str(Path(tmp) / "out"), "--trace"], ["plan"], ["prefix"]):
            assert main([*argv, "--config", str(cfg)]) in (0, 2, 3)


# Lines a hand-edited config might gain: blanks, comments, stray text without
# a "=", and key=value lines over every key, the bursts capped as above.
_KEYS = sorted(pairs_of(bundled_path("meo_geo").read_text()).keys()
               | {"carrier1.modcod", "carrier1.variation_phase_rad", "carrier3.leg_km", "x"})
_JUNK_LINES = st.one_of(
    st.sampled_from(("", "   ", "#", "# a=b", "=", "==", "=1", "label", "label=")),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="="),
            max_size=20),
    st.sampled_from(_KEYS).flatmap(lambda key: (_BURSTS if key == "bursts" else _VALUES).map(
        lambda value: f"{key}={value}")),
)


@st.composite
def _edited_configs(draw) -> str:
    """A bundled config, its bursts cut to 1000:20.0,1000:0.0, after one to
    four edits: drop, duplicate or swap lines, or insert a junk line."""
    lines = with_value(bundled_path(draw(st.sampled_from(BUNDLED))).read_text(),
                       "bursts", "1000:20.0,1000:0.0").splitlines()
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(("drop", "duplicate", "swap", "insert")))
        if edit == "insert" or not lines:
            lines.insert(draw(st.integers(0, len(lines))), draw(_JUNK_LINES))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(j, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_edited_configs())
def test_edited_config_text_exits_0_2_or_3(text):
    with tempfile.TemporaryDirectory() as tmp:
        configs = Path(tmp) / "configs"
        configs.mkdir()
        cfg = configs / "edited.cfg"
        cfg.write_text(text)
        for argv in (["run", "--config", str(cfg), "--out", str(Path(tmp) / "run"), "--trace"],
                     ["plan", "--config", str(cfg)],
                     ["prefix", "--config", str(cfg)],
                     ["suite", "--dir", str(configs), "--out", str(Path(tmp) / "suite")]):
            assert main(argv) in (0, 2, 3)


def casim_process(*args: str, unbuffered: bool = False, **kwargs) -> subprocess.CompletedProcess:
    """``python -m casim.cli *args`` as a process, with this checkout's
    ``src`` first on its path, no CASIM_SEED, and PYTHONUNBUFFERED removed,
    so stdout is block-buffered into a pipe or file as in a user's shell
    (or set, if ``unbuffered``, so each write reaches the file at once)."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("CASIM_SEED", "PYTHONUNBUFFERED")}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "casim.cli", *args], env=env,
                          timeout=120, **kwargs)


class TestProcessExit:
    """The CLI as a process ends through ``entry``: same bytes as ``main``
    in process, exit codes 0, 2 and 3, and no traceback."""

    def test_suite_stdout_through_a_pipe_is_mains(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CASIM_SEED", raising=False)
        out = str(tmp_path / "out")
        proc = casim_process("suite", "--out", out, capture_output=True)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert main(["suite", "--out", out]) == 0
        assert proc.stdout == capsys.readouterr().out.encode()

    def test_missing_config_and_dominated_carrier_exit_2_and_3(self, tmp_path):
        missing = casim_process("run", "--config", str(tmp_path / "nope.cfg"),
                                "--out", str(tmp_path / "out"), capture_output=True, text=True)
        bad = tmp_path / "bad.cfg"
        bad.write_text(with_value(bundled_path("geo_ca").read_text(),
                                  "carrier1.symbol_rate_sym_s", "1000000"))
        dominated = casim_process("run", "--config", str(bad), "--out", str(tmp_path / "out"),
                                  capture_output=True, text=True)
        for proc, code in ((missing, 2), (dominated, 3)):
            assert (proc.returncode, proc.stdout) == (code, "")
            assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
        assert "dominant" in dominated.stderr
        assert not (tmp_path / "out").exists()

    def test_console_script_and_module_share_the_entry_point(self):
        root = Path(__file__).parent.parent
        assert 'casim = "casim.cli:entry"' in (root / "pyproject.toml").read_text().splitlines()
        cli_source = (root / "src" / "casim" / "cli.py").read_text()
        assert cli_source.endswith('if __name__ == "__main__":\n    entry()\n')

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("args", [("plan", "--alpha", "0.4"), ("--help",)])
    def test_stdout_on_a_full_device_exits_2(self, args):
        self._exits_2_on_a_full_device(args, unbuffered=False)

    # Unbuffered, --help fails inside argparse, which would drop the OSError.
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("args", [("plan", "--alpha", "0.4"), ("--help",), ("run", "--help")])
    def test_unbuffered_stdout_on_a_full_device_exits_2(self, args):
        self._exits_2_on_a_full_device(args, unbuffered=True)

    @staticmethod
    def _exits_2_on_a_full_device(args, unbuffered):
        with open("/dev/full", "w") as full:
            proc = casim_process(*args, unbuffered=unbuffered, stdout=full,
                                 stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write outputs: [Errno 28] No space left on device\n"

    # The outputs are written before the table that prints the label, which
    # an ASCII stdout cannot encode: a failed output write, as a full disk is.
    def test_stdout_that_cannot_encode_the_label_exits_2(self, tmp_path, monkeypatch):
        (tmp_path / "in").mkdir()
        (tmp_path / "in" / "cafe.cfg").write_text(
            with_value(bundled_path("geo_ca").read_text(), "label", "café"), "utf-8")
        monkeypatch.setenv("PYTHONIOENCODING", "ascii")
        monkeypatch.setenv("PYTHONUTF8", "1")  # the config reads as UTF-8 in any locale
        for args in (("run", "--config", str(tmp_path / "in" / "cafe.cfg")),
                     ("suite", "--dir", str(tmp_path / "in"))):
            proc = casim_process(*args, "--out", str(tmp_path / args[0]),
                                 capture_output=True, text=True)
            assert (proc.returncode, proc.stdout) == (2, "")
            assert proc.stderr == ("error: cannot write outputs: 'ascii' codec can't encode "
                                   "character '\\xe9' in position 117: ordinal not in range(128)\n")

    # The error line cannot be written, so it is dropped; the exit code stands.
    def test_unwritable_stderr_keeps_exit_codes(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(with_value(bundled_path("geo_ca").read_text(),
                                  "carrier1.symbol_rate_sym_s", "1000000"))
        cases = [(("run", "--config", str(tmp_path / "nope.cfg")), 2),
                 (("run", "--config", str(bad)), 3), (("run", "--bogus"), 2)]
        for args, code in cases:
            with open(os.devnull, "rb") as read_only:
                proc = casim_process(*args, "--out", str(tmp_path / "out"),
                                     stdout=subprocess.PIPE, stderr=read_only)
            assert (proc.returncode, proc.stdout) == (code, b"")
            # fd 2 closed, so sys.stderr is None: the usage line is not moved to stdout
            proc = casim_process(*args, "--out", str(tmp_path / "out"),
                                 stdout=subprocess.PIPE, preexec_fn=lambda: os.close(2))
            assert (proc.returncode, proc.stdout) == (code, b"")
        assert not (tmp_path / "out").exists()


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

    def test_seed_keeps_a_phase_the_file_sets(self, tmp_path, monkeypatch):
        config = tmp_path / "phased.cfg"
        config.write_text(bundled_path("meo_geo").read_text()
                          + "carrier1.variation_phase_rad=1.25\n")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        monkeypatch.delenv("CASIM_SEED", raising=False)
        assert main(["run", "--config", str(config), "--out", str(out_a)]) == 0
        monkeypatch.setenv("CASIM_SEED", "42")
        assert main(["run", "--config", str(config), "--out", str(out_b)]) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    def test_seed_is_inert_for_constant_orbits(self, tmp_path, monkeypatch):
        config = str(bundled_path("geo_ca"))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        monkeypatch.delenv("CASIM_SEED", raising=False)
        main(["run", "--config", config, "--out", str(out_a)])
        monkeypatch.setenv("CASIM_SEED", "42")
        main(["run", "--config", config, "--out", str(out_b)])
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
