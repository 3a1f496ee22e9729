"""Tile, schedule, and partition planning for a multicore NPU.

Plans each convolution layer of a model onto a clustered accelerator:
splits the layer across TLE clusters, picks a per-core tile shape and a
schedule (input-, output-, or weight-stationary), and prices every
candidate with a DRAM burst cost model.  A brute-force simulator replays
chosen schedules to verify the analytic counts.
"""

from .configs import (
    ArchConfig,
    ConfigError,
    ConvLayerSpec,
    ModelSpec,
    nmp_profile,
    parse_arch,
    parse_model,
)
from .costmodel import (
    Alphas,
    CostBreakdown,
    TileKind,
    calc_burst_count,
    calc_data_transfer,
    calc_time,
    compute_alphas,
)
from .search import (
    PlanEntry,
    PlanError,
    PlanMap,
    SearchStats,
    StrategyComparison,
    compare_strategies,
    plan_layer,
    tso,
)
from .simulator import count_bursts_exact, simulate_schedule
from .slicing import (
    Infeasible,
    ScheduleKind,
    TileConfig,
    TlePartitionKind,
    TleSlice,
    gen_tile,
    get_filters,
    tle_slicing,
)

__all__ = [
    "Alphas",
    "ArchConfig",
    "ConfigError",
    "ConvLayerSpec",
    "CostBreakdown",
    "Infeasible",
    "ModelSpec",
    "PlanEntry",
    "PlanError",
    "PlanMap",
    "ScheduleKind",
    "SearchStats",
    "StrategyComparison",
    "TileConfig",
    "TileKind",
    "TlePartitionKind",
    "TleSlice",
    "calc_burst_count",
    "calc_data_transfer",
    "calc_time",
    "compare_strategies",
    "compute_alphas",
    "count_bursts_exact",
    "gen_tile",
    "get_filters",
    "nmp_profile",
    "parse_arch",
    "parse_model",
    "plan_layer",
    "simulate_schedule",
    "tle_slicing",
    "tso",
]

__version__ = "0.1.0"
