"""
Multi-orbit scheduling: the prefix
==================================
When the two carriers ride different orbits, the slower path's extra
propagation delay would scramble arrival order at the terminal.  The
scheduler absorbs it by pinning an initial run of PDUs to the faster
carrier; this walks through that computation step by step.
"""

from fractions import Fraction

from casim import (MODCODS, CarrierConfig, OrbitModel, build_plan, multi_orbit_prefix,
                   pdus_per_fecframe)
from casim.model import Burst, ScenarioConfig, SchedulerKind
from casim.scheduler import (
    initial_fast_sequence_raw,
    planning_differential_delay_s,
    superframes_in_interval,
)

meo = OrbitModel.meo(amplitude_km=0.0)  # 11933 km mean leg
geo = OrbitModel.geo()                  # 40151 km leg

print(f"MEO mean one-trip delay: {meo.mean_propagation_delay_s() * 1e3:8.2f} ms")
print(f"GEO one-trip delay:      {geo.mean_propagation_delay_s() * 1e3:8.2f} ms")

# The planner works with the nominal 300,000 km/s constant.
delta_t = planning_differential_delay_s(meo, geo)
print(f"differential delay used for planning: {delta_t * 1e3:.2f} ms")
print()

# During that head start, how much does the fast carrier transmit?  Count
# superframes, then frames (9 bundled frames per superframe, M per bundle),
# then PDUs per frame.
modcod = MODCODS["8PSK 5/6"]
fast = CarrierConfig(4_640_000, modcod, Fraction(1, 4), 10.0, meo)
slow = CarrierConfig(1_856_000, modcod, Fraction(1, 4), 10.0, geo)

n_sf = superframes_in_interval(delta_t, fast.symbol_rate_sym_s)
n_pdu = pdus_per_fecframe(1500, fast.modcod, fast.fill_rate)
raw = initial_fast_sequence_raw(fast, delta_t, n_pdu)
prefix_len = multi_orbit_prefix(fast, slow, n_pdu)
print(f"superframes in the differential window: {n_sf:.4f}")
print(f"raw initial-sequence length:            {raw:.4f}")
print(f"prefix (floored):                       {prefix_len} PDUs")
print()

# build_plan composes the prefix with the load-balancing cycle; the prefix
# lands on whichever carrier has the shorter mean path.
scenario = ScenarioConfig(
    carrier1=fast,
    carrier2=slow,
    scheduler=SchedulerKind.LOAD_BALANCING,
    bursts=(Burst(100),),
    label="meo_geo_demo",
)
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
assert build_plan(same_orbit).prefix_length == 0
print("\nsame-orbit carriers need no prefix")
