"""
The five-scenario comparison suite
==================================
Runs every bundled scenario (single-orbit GEO and MEO aggregation with load
balancing, GEO with round robin, and the two mixed-orbit pairings) and
prints the comparison table: misplacement statistics and aggregated
throughput side by side.
"""

from casim import build_plan, format_comparison, merge, ordering_report, run
from casim.cli import bundled_scenario_dir
from casim.config import parse_scenario_file

labeled = []
for path in sorted(bundled_scenario_dir().glob("*.cfg")):
    scenario = parse_scenario_file(path)
    plan = build_plan(scenario)
    report = ordering_report(merge(run(scenario, plan)), scenario)
    labeled.append((scenario.label, report))

    prefix = "none"
    if plan.prefix_length:
        prefix = f"{plan.prefix_length} x carrier {plan.prefix_carrier}"
    print(f"{scenario.label:<8} alpha_used={plan.alpha_used}  prefix={prefix}")

print()
print(format_comparison(labeled))
print()
print("reading the table:")
print(" - single-orbit load balancing (geo_ca, meo_ca) keeps order nearly perfect")
print(" - round robin (geo_rr) accumulates hundreds of positions of error")
print(" - mixed orbits (meo_geo, geo_meo) sit in between: the prefix absorbs")
print("   the delay gap at stream start, later bursts pay a small penalty")
print(" - throughput is within a few percent everywhere; the variance comes")
print("   from propagation tails and prefix-skewed queue drains")
print()
print("the same table comes from the CLI:  casim suite --out <dir>")
