"""casim: deterministic two-carrier satellite carrier-aggregation simulator.

Pipeline: a gateway-side scheduler splits a fixed-length PDU stream across
two heterogeneous carriers (load balancing with an optional multi-orbit
prefix, or plain round robin; a plan is one generated cycle plus a prefix
held as its carrier and length), a link emulator computes each carrier's FIFO
transmission times in closed form (Lindley's recursion) and propagates each
PDU, a naive FIFO receiver merges the two arrival streams,
and the metrics layer reports misplacement distances and aggregated
throughput.  One columnar record, ``RunTrace``, carries a run from the
emulator through the merge to the metrics and ``trace.csv``.
"""

from .config import (
    parse_scenario_file,
    parse_scenario_text,
    serialize_scenario,
)
from .emulator import pdu_service_time_s, run, write_trace_csv
from .errors import (
    CasimError,
    ConfigError,
    DegenerateWindow,
    DenominatorTooLarge,
    DominanceViolated,
    DuplicateSeq,
    InvariantError,
    MissingSeq,
    ZeroPayload,
)
from .metrics import (
    BurstStats,
    Misplacement,
    OrderingReport,
    compare,
    format_comparison,
    misplacement,
    ordering_report,
    throughput_bps,
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
    SchedulingPlan,
    assignments,
    build_plan,
    generate_sequence,
    load_balance_factor,
    multi_orbit_prefix,
    pdus_per_fecframe,
    superframes_in_interval,
)

__version__ = "0.1.0"
