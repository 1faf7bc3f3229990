"""
Load balancing factors and scheduling sequences
================================================
How the gateway decides which carrier gets each PDU: the load balancing
factor alpha compares the two carriers' usable capacities, and a repeating
scheduling cycle realizes that ratio PDU by PDU.
"""

from fractions import Fraction

from casim import (MODCODS, CarrierConfig, OrbitModel, ScenarioConfig, SchedulerKind,
                   generate_sequence)

# Two carriers that differ only in symbol rate: 4.64 Msym/s vs 1.856 Msym/s
# (the effective rates of 5 MHz and 2 MHz allocations), both 8PSK 5/6 with a
# quarter of their capacity available to our user.
modcod = MODCODS["8PSK 5/6"]
carrier1 = CarrierConfig(4_640_000, modcod, Fraction(1, 4), 10.0, OrbitModel.geo())
carrier2 = CarrierConfig(1_856_000, modcod, Fraction(1, 4), 10.0, OrbitModel.geo())

# A scenario derives alpha once, exactly, when it is built.
alpha = ScenarioConfig(carrier1, carrier2, SchedulerKind.LOAD_BALANCING).alpha
print(f"usable capacity, carrier 1: {float(carrier1.usable_capacity_bps()) / 1e6:.3f} Mbps")
print(f"usable capacity, carrier 2: {float(carrier2.usable_capacity_bps()) / 1e6:.3f} Mbps")
print(f"load balancing factor alpha = {alpha} = {float(alpha):.2f}")
print()

# One generator builds every cycle.  Each "1" sends a PDU to carrier 1, each
# "2" to carrier 2.  For alpha = p/q it interleaves q ones and p twos with an
# error accumulator: carrier 2 is chosen only when staying on carrier 1 would
# leave the twos more than one PDU behind alpha times the ones, so every
# prefix keeps |count2 - alpha*count1| <= 1.
print("cycles for a few ratios:")
for a in (Fraction(1, 4), Fraction(2, 5), Fraction(3, 4), Fraction(1), Fraction(13, 32)):
    seq = generate_sequence(a)
    print(f"  alpha={str(a):>5}: {seq}  (ones={seq.count(1)}, twos={seq.count(2)})")
print()

# The paper lists cycles for alpha = 0.2, 0.25, ..., 0.95 and 1.  The
# generator emits exactly those rows; a few of them, as the paper prints them:
paper_rows = {
    Fraction("0.25"): [1, 1, 1, 1, 2],
    Fraction("0.4"): [1, 1, 2, 1, 1, 1, 2],
    Fraction("0.6"): [1, 2, 1, 1, 2, 1, 1, 2],
    Fraction("0.7"): [1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1, 1, 2],
}
for a, row in paper_rows.items():
    assert generate_sequence(a) == row
print(f"generator matches the paper's rows for alpha in {[str(a) for a in paper_rows]}")

# Any other alpha is first rounded to the nearest p/q with q <= 64, the same
# rounding `casim run` applies: 0.33 runs the cycle of 21/64.
seq = generate_sequence(Fraction("0.33"))
print(f"alpha=0.33 -> ratio {seq.count(2)}/{seq.count(1)}: {seq}")
