"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see
them all).  Criteria 5, 8 and 9 share one run of the five bundled scenarios
through a module-scoped fixture.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from casim.cli import bundled_scenario_dir, main
from casim.config import parse_scenario_file
from casim.emulator import run
from casim.metrics import ordering_report
from casim.model import MODCODS, CarrierConfig, OrbitModel, ScenarioConfig, SchedulerKind
from casim.receiver import merge
from casim.scheduler import build_plan, generate_sequence, multi_orbit_prefix
from helpers import (alpha_scenario, carrier, random_constant_delay_scenario, record, rows,
                     synthetic_report)
import oracle


def check(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:>2}: {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def suite_reports():
    """Label -> (plan, OrderingReport) for the five bundled scenarios."""
    results = {}
    for name in ("geo_ca", "geo_rr", "meo_ca", "meo_geo", "geo_meo"):
        scenario = parse_scenario_file(bundled_scenario_dir() / f"{name}.cfg")
        plan = build_plan(scenario)
        report = ordering_report(merge(run(scenario, plan)), scenario)
        results[name] = (plan, report)
    return results


def test_criterion_01_prefix_reproduction():
    started = time.perf_counter()
    fast = carrier(orbit=OrbitModel.meo(amplitude_km=0.0))
    slow = carrier(1_856_000, orbit=OrbitModel.geo())
    prefix = multi_orbit_prefix(ScenarioConfig(fast, slow, SchedulerKind.LOAD_BALANCING))
    raw, floored = prefix.raw, prefix.length
    elapsed = time.perf_counter() - started
    check(
        1,
        "multi-orbit prefix reproduction",
        abs(raw - 38.4712) <= 0.01 and floored == 38 and elapsed < 1.0,
        f"raw={raw:.4f}, floored={floored}, {elapsed * 1e3:.1f} ms",
    )


def test_criterion_02_differential_delay_and_superframes():
    physical = (
        OrbitModel.geo().mean_propagation_delay_s()
        - OrbitModel.meo().mean_propagation_delay_s()
    )
    prefix = multi_orbit_prefix(ScenarioConfig(
        carrier(orbit=OrbitModel.meo()), carrier(1_856_000, orbit=OrbitModel.geo()),
        SchedulerKind.LOAD_BALANCING))
    planning, n_sf = prefix.delay_s, prefix.superframes
    check(
        2,
        "GEO-MEO differential delay and superframe count",
        abs(physical - 0.1881) <= 0.0005
        and abs(planning - 0.1881) <= 0.0005
        and abs(n_sf - 1.425) <= 0.001,
        f"physical={physical * 1e3:.2f} ms, planning={planning * 1e3:.2f} ms, "
        f"N_SF={n_sf:.4f}",
    )


def test_criterion_03_alpha_reproduction():
    def alpha_of(c1, c2):
        return ScenarioConfig(c1, c2, SchedulerKind.LOAD_BALANCING).alpha

    # symbol rate R_s = bandwidth / (1 + rolloff)
    c1, c2 = (CarrierConfig(bandwidth / (1 + Fraction(1, 5)), MODCODS["8PSK 5/6"],
                            Fraction(1, 4), 10.0, OrbitModel.geo())
              for bandwidth in (Fraction(5_000_000), Fraction(2_000_000)))
    alpha = alpha_of(c1, c2)
    alpha_effective = alpha_of(carrier(4_640_000), carrier(1_856_000))
    check(
        3,
        "alpha for 5:2 MHz carriers is exactly 2/5",
        alpha == Fraction(2, 5) and alpha_effective == Fraction(2, 5),
        f"alpha={alpha}",
    )


def test_criterion_04_lookup_table_fidelity():
    table = oracle.PAPER_LOOKUP_TABLE
    reproduced = [key for key, row in table.items() if tuple(generate_sequence(key)) == row]
    check(
        4,
        "the cycle generator reproduces all 17 paper lookup rows exactly",
        len(table) == 17 and len(reproduced) == 17,
        f"rows={len(table)}, reproduced={len(reproduced)}",
    )


def test_criterion_05_ordering_contrast_at_alpha_04():
    started = time.perf_counter()
    lb = ordering_report(
        merge(run(*_scenario_and_plan("geo_ca"))),
        parse_scenario_file(bundled_scenario_dir() / "geo_ca.cfg"),
    )
    rr = ordering_report(
        merge(run(*_scenario_and_plan("geo_rr"))),
        parse_scenario_file(bundled_scenario_dir() / "geo_rr.cfg"),
    )
    elapsed = time.perf_counter() - started
    rr_mean_band = abs(rr.mean_misplace - 378.5) <= 0.15 * 378.5
    rr_max_band = abs(rr.max_misplace - 756) <= 0.15 * 756
    contrast = rr.mean_misplace >= 30 * lb.mean_misplace
    check(
        5,
        "5000-PDU two-burst ordering contrast at alpha=0.4",
        lb.mean_misplace <= 10
        and lb.max_misplace <= 25
        and rr_mean_band
        and rr_max_band
        and contrast
        and elapsed < 5.0,
        f"LB mean={lb.mean_misplace:.2f} max={lb.max_misplace}, "
        f"RR mean={rr.mean_misplace:.2f} max={rr.max_misplace}, "
        f"ratio={rr.mean_misplace / max(lb.mean_misplace, 1e-9):.0f}x, "
        f"{elapsed:.2f} s",
    )


def _scenario_and_plan(name):
    scenario = parse_scenario_file(bundled_scenario_dir() / f"{name}.cfg")
    return scenario, build_plan(scenario)


def test_criterion_06_rr_mean_monotone_in_alpha():
    alphas = [Fraction(1), Fraction(9, 10), Fraction(7, 10), Fraction(3, 5),
              Fraction(2, 5), Fraction(3, 10)]
    rr_means = []
    lb_means = []
    for alpha in alphas:
        rr_sc = alpha_scenario(alpha, scheduler=SchedulerKind.ROUND_ROBIN)
        rr_means.append(ordering_report(
            merge(run(rr_sc, build_plan(rr_sc))), rr_sc).mean_misplace)
        lb_sc = alpha_scenario(alpha, scheduler=SchedulerKind.LOAD_BALANCING)
        lb_means.append(ordering_report(
            merge(run(lb_sc, build_plan(lb_sc))), lb_sc).mean_misplace)
    monotone = all(a <= b + 1e-12 for a, b in zip(rr_means, rr_means[1:]))
    lb_small = all(m <= 10 for m in lb_means)
    check(
        6,
        "RR mean misplacement nonincreasing in alpha; LB mean <= 10 throughout",
        monotone and lb_small,
        "RR means " + ", ".join(f"{m:.1f}" for m in rr_means)
        + f" for alpha {', '.join(str(a) for a in alphas)}",
    )


def test_criterion_07_alpha_one_exactness():
    lb_sc = alpha_scenario(Fraction(1))
    rr_sc = alpha_scenario(Fraction(1), scheduler=SchedulerKind.ROUND_ROBIN)
    lb_plan, rr_plan = build_plan(lb_sc), build_plan(rr_sc)
    report = ordering_report(merge(run(lb_sc, lb_plan)), lb_sc)
    stats = (report.misplaced_count, report.mean_misplace, report.max_misplace)
    check(
        7,
        "alpha=1 balanced carriers: identical plans, zero misplacement",
        lb_plan == rr_plan and stats == (0, 0.0, 0),
        f"plan cycle={list(lb_plan.cycle)}, misplacement={stats}",
    )


def test_criterion_08_multi_orbit_ordering(suite_reports):
    geo_rr = suite_reports["geo_rr"][1].mean_misplace
    singles = [suite_reports[k][1].mean_misplace for k in ("geo_ca", "meo_ca")]
    multis = [suite_reports[k][1].mean_misplace for k in ("meo_geo", "geo_meo")]
    ok = all(m < geo_rr for m in multis) and all(
        m >= s for m in multis for s in singles)
    check(
        8,
        "multi-orbit LB between single-orbit LB and GEO-RR in mean misplacement",
        ok,
        f"singles={[f'{v:.2f}' for v in singles]}, "
        f"multis={[f'{v:.2f}' for v in multis]}, rr={geo_rr:.2f}",
    )


def test_criterion_09_throughput_agreement(suite_reports):
    tp = {
        k: suite_reports[k][1].throughput_bps
        for k in ("geo_ca", "meo_ca", "meo_geo", "geo_meo")
    }
    spread = max(tp.values()) / min(tp.values())
    singles = [tp["geo_ca"], tp["meo_ca"]]
    multis = [tp["meo_geo"], tp["geo_meo"]]
    class_mean = sum(singles) / 2 >= sum(multis) / 2
    class_max = max(singles) >= max(multis)
    check(
        9,
        "LB scenarios agree on throughput within 5%; single-orbit >= multi-orbit",
        spread <= 1.05 and class_mean and class_max,
        f"spread={100 * (spread - 1):.2f}%, "
        + ", ".join(f"{k}={v / 1e6:.3f} Mbps" for k, v in tp.items()),
    )


def test_criterion_10_oracle_equivalence():
    rng = random.Random(20240811)
    for i in range(50):
        scenario = random_constant_delay_scenario(rng)
        plan = build_plan(scenario)
        got = rows(merge(run(scenario, plan)))
        expected = oracle.fluid_arrivals(scenario, plan)
        assert got == expected, f"fluid mismatch on random scenario {i}"

    for i in range(100):
        n = rng.randint(1, 10_000)
        seqs = list(range(n))
        rng.shuffle(seqs)
        stream = record((s, 1, 0, j, j + 1, j + 1) for j, s in enumerate(seqs))
        got = synthetic_report(stream)
        want = oracle.brute_displacement(seqs)
        assert got.misplaced_count == want[0]
        assert math.isclose(got.mean_misplace, want[1], rel_tol=1e-12, abs_tol=1e-12)
        assert got.max_misplace == want[2]
    check(
        10,
        "emulator matches fluid oracle (50 runs); metrics match brute force (100 perms)",
        True,
    )


def test_criterion_11_determinism(tmp_path):
    identical = True
    details = []
    for name in ("geo_ca", "meo_geo"):
        config = str(bundled_scenario_dir() / f"{name}.cfg")
        out_a, out_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert main(["run", "--config", config, "--out", str(out_a), "--trace"]) == 0
        assert main(["run", "--config", config, "--out", str(out_b), "--trace"]) == 0
        same_report = (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        same_trace = (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
        identical = identical and same_report and same_trace
        details.append(f"{name}: report={same_report}, trace={same_trace}")
    check(11, "byte-identical report.json and trace.csv across runs",
          identical, "; ".join(details))
