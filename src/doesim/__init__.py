"""Dynamic operating envelopes and envelope-constrained demand response.

Two-stage scheme over a three-phase LV feeder: a network-side engine builds
per-household convex P-Q envelopes that are voltage-safe under probabilistic
load flows, and an aggregator-side ADMM controller tracks a market load
set-point with inverter air-conditioners inside those envelopes, evaluated
against an in-process grid model.
"""

from .controller import (
    AdmmConfig,
    AdmmResult,
    admm_track,
    coordinator_update,
    feasible_intervals,
)
from .envelopes import (
    EnvelopePolytope,
    Roster,
    SecantModel,
    build_envelopes,
    convex_hull,
    feasible_set,
    poc_injection,
    sample_scenarios,
)
from .errors import (
    ConfigError,
    DoesimError,
    EnvelopeError,
    FeederError,
    PowerFlowDivergence,
    ProfileError,
)
from .feeder import (
    AdmittanceModel,
    BaseValues,
    FeederModel,
    LineSegment,
    assemble_admittance,
    build_feeder,
    dump_feeder,
    load_feeder,
)
from .orchestrator import RunSummary, run_study
from .powerflow import check_limits, solve_batch
from .scenarios import (
    ProfileSet,
    StaticInjection,
    StudyConfig,
    TimeSeriesProfile,
    apply_static_limits,
    build_reference,
    load_profiles,
    load_study_config,
    simulate_baseline,
    synthesize_households,
    synthesize_profiles,
)
from .thermal import ThermalParams, comfort_power_interval, step_temperature

__version__ = "0.1.0"
