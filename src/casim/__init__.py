"""casim: deterministic two-carrier satellite carrier-aggregation simulator.

Pipeline: a gateway-side scheduler splits a fixed-length PDU stream across
two heterogeneous carriers (load balancing with an optional multi-orbit
prefix, or plain round robin; a plan is one generated cycle plus a prefix
held as its carrier and length), a link emulator computes each carrier's FIFO
transmission times in closed form (Lindley's recursion) and propagates each
PDU, a naive FIFO receiver merges the two arrival streams,
and the metrics layer reports misplacement distances and aggregated
throughput.  One columnar record, ``RunTrace``, stores a run once, its rows
in carrier order.  A record lists its rows in carrier order, or in receive
order after ``merge``, which copies no column.
"""

from .config import parse_scenario_file, parse_scenario_text
from .emulator import run, write_trace_csv
from .errors import CasimError, ConfigError, InvariantError
from .metrics import (
    BurstStats,
    OrderingReport,
    format_comparison,
    ordering_report,
    write_comparison_csv,
)
from .model import (
    MODCODS,
    Burst,
    CarrierConfig,
    ModCod,
    OrbitKind,
    OrbitModel,
    RunTrace,
    ScenarioConfig,
    SchedulerKind,
    modcod_for_snr,
)
from .receiver import merge
from .scheduler import (
    Prefix,
    SchedulingPlan,
    assignments,
    build_plan,
    generate_sequence,
    multi_orbit_prefix,
)

__version__ = "0.1.0"
