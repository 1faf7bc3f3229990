"""
Round robin vs load balancing: packet ordering under imbalance
==============================================================
Runs the 5000-PDU two-burst experiment on unbalanced same-orbit carriers
(alpha = 0.4) with both schedulers and compares how far PDUs land from
their expected positions in the merged receive stream.
"""

from fractions import Fraction

from casim import build_plan, merge, ordering_report, run
from casim.model import SchedulerKind
from casim.config import parse_scenario_file
from casim.cli import bundled_scenario_dir

# The bundled scenarios: carrier 1 at 4.64 Msym/s, carrier 2 at 1.856 Msym/s,
# both GEO, 1500-byte PDUs, two bursts of 2500 PDUs released 15 s apart.
lb_scenario = parse_scenario_file(bundled_scenario_dir() / "geo_ca.cfg")
rr_scenario = parse_scenario_file(bundled_scenario_dir() / "geo_rr.cfg")

for scenario in (lb_scenario, rr_scenario):
    plan = build_plan(scenario)
    merged = merge(run(scenario, plan))
    report = ordering_report(merged, scenario)

    name = ("load balancing" if scenario.scheduler is SchedulerKind.LOAD_BALANCING
            else "round robin")
    print(f"--- {name} ({scenario.label}) ---")
    print(f"cycle: {list(plan.cycle)}")
    print(f"misplaced PDUs:     {report.misplaced_count} of {report.n_pdus}")
    print(f"mean displacement:  {report.mean_misplace:.2f} positions (misplaced only)")
    print(f"max displacement:   {report.max_misplace} positions")
    print(f"throughput:         {report.throughput_bps / 1e6:.3f} Mbps")

    # Sample the received-vs-expected ramp: with round robin the received
    # sequence number drifts away from the slot index and snaps back when
    # the slower carrier finally drains; with load balancing it hugs it.
    # merged.order[i] is the row of the i-th PDU the terminal received, and
    # merged.seq[row] that PDU's sequence number.
    print("merged slot -> received seq (burst 1 samples):")
    for slot in (0, 500, 1000, 1500, 2000, 2400, 2499):
        seq = int(merged.seq[merged.order[slot]])
        print(f"  slot {slot:>4}: seq {seq:>4}  (drift {seq - slot:+d})")
    print()

print("round robin cannot adapt to unbalanced carriers; the load-balancing")
print("cycle keeps both queues draining in lockstep, so order survives.")
