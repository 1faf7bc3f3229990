"""
Multi-orbit scheduling: the prefix
==================================
When the two carriers ride different orbits, the slower path's extra
propagation delay would scramble arrival order at the terminal.  The
scheduler absorbs it by pinning an initial run of PDUs to the faster
carrier; this walks through that computation step by step.
"""

from fractions import Fraction

from casim import (MODCODS, Burst, CarrierConfig, OrbitModel, ScenarioConfig, SchedulerKind,
                   build_plan, multi_orbit_prefix)

meo = OrbitModel.meo(amplitude_km=0.0)  # 11933 km mean leg
geo = OrbitModel.geo()                  # 40151 km leg

print(f"MEO mean one-trip delay: {meo.mean_propagation_delay_s() * 1e3:8.2f} ms")
print(f"GEO one-trip delay:      {geo.mean_propagation_delay_s() * 1e3:8.2f} ms")
print()

# A 4.64 Msym/s carrier on MEO and a 1.856 Msym/s one on GEO, both 8PSK 5/6
# with a quarter of their capacity for our user.
modcod = MODCODS["8PSK 5/6"]
scenario = ScenarioConfig(
    carrier1=CarrierConfig(4_640_000, modcod, Fraction(1, 4), 10.0, meo),
    carrier2=CarrierConfig(1_856_000, modcod, Fraction(1, 4), 10.0, geo),
    scheduler=SchedulerKind.LOAD_BALANCING,
    bursts=(Burst(100),),
    label="meo_geo_demo",
)

# One function sizes the prefix and keeps every step.  The fast carrier is
# the one with the shorter mean leg.  The planner takes the slow path's head
# start with the nominal 300,000 km/s constant, counts the superframes the
# fast carrier emits meanwhile, then frames (9 bundled frames per superframe,
# M per bundle), then PDUs per frame, and floors the result.
prefix = multi_orbit_prefix(scenario)
print(f"fast carrier:                           {prefix.carrier}")
print(f"differential delay used for planning:   {prefix.delay_s * 1e3:.2f} ms")
print(f"superframes in the differential window: {prefix.superframes:.4f}")
print(f"PDUs per FEC frame on the fast carrier: {prefix.pdus_per_frame}")
print(f"raw initial-sequence length:            {prefix.raw:.4f}")
print(f"prefix (floored):                       {prefix.length} PDUs")
print()

# build_plan composes the prefix with the load-balancing cycle.
plan = build_plan(scenario)
print(f"plan prefix: {plan.prefix_length} x carrier {plan.prefix_carrier}")
print(f"plan cycle:  {list(plan.cycle)} (alpha_used={plan.alpha_used})")

# With identical orbits the prefix vanishes.
same_orbit = ScenarioConfig(
    carrier1=CarrierConfig(4_640_000, modcod, Fraction(1, 4), 10.0, geo),
    carrier2=CarrierConfig(1_856_000, modcod, Fraction(1, 4), 10.0, geo),
    scheduler=SchedulerKind.LOAD_BALANCING,
    bursts=(Burst(100),),
    label="geo_geo_demo",
)
assert multi_orbit_prefix(same_orbit).length == 0
assert build_plan(same_orbit).prefix_length == 0
print("\nsame-orbit carriers need no prefix")
