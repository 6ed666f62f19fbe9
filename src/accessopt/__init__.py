"""Road-network healthcare accessibility scoring and facility placement."""

from .accessibility import (
    AccessibilityField,
    CoverageBin,
    CoverageReport,
    DecayParams,
    SupplyDemandRatio,
    accessibility_scores,
    conservation_check,
    coverage_report,
    decay_weights,
    default_bins,
    gaussian_decay,
    supply_demand_ratio,
    supply_demand_ratios,
)
from .geodata import (
    CANDIDATE,
    DEFAULT_CAPACITY,
    DEFAULT_GROUPS,
    EXISTING,
    Coordinate,
    DemandPoint,
    Edge,
    FacilitySite,
    InputError,
    ParseError,
    PopulationGroup,
    RoadNetwork,
    Scenario,
    SchemaError,
    ValidationError,
    generate_synthetic_scenario,
    load_scenario,
    parse_demand,
    parse_network,
    parse_sites,
    write_scenario_bundle,
)
from .limits import CandidatePoolError
from .routing import (
    UNREACHABLE,
    SiteMajor,
    SnapDistanceWarning,
    TravelTimeMatrix,
    build_travel_time_matrices,
    build_travel_time_matrix,
    distance_matrix_m,
    great_circle_m,
    shortest_path_distances,
    snap_to_network,
    write_matrix_csv,
)

__version__ = "0.1.0"

# The search is imported when one of its names is first read (PEP 562), so
# that the commands that never search (``synth``, ``score``) do not load it.
_OPTIMIZER_NAMES = (
    "Layout",
    "ObjectiveParams",
    "OptimizationResult",
    "Shortfall",
    "exhaustive_oracle",
    "greedy_construct",
    "is_feasible",
    "local_search",
    "objective_value",
    "optimize",
)


def __getattr__(name: str):
    if name in _OPTIMIZER_NAMES:
        from . import optimizer
        return getattr(optimizer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
