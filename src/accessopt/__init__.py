"""Road-network healthcare accessibility scoring and facility placement."""

from importlib import import_module

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

__version__ = "0.1.0"

# These names are imported from their module when one of them is first read
# (PEP 562), so that a command loads only the modules it runs: ``synth``
# neither routes, scores nor searches, and ``score`` does not search.
_LAZY = {
    **dict.fromkeys((
        "AccessibilityField", "CoverageBin", "CoverageReport", "DecayParams",
        "SupplyDemandRatio", "accessibility_scores", "conservation_check",
        "coverage_report", "decay_weights", "default_bins", "gaussian_decay",
        "supply_demand_ratio", "supply_demand_ratios",
    ), "accessibility"),
    **dict.fromkeys((
        "UNREACHABLE", "SiteMajor", "SnapDistanceWarning", "TravelTimeMatrix",
        "build_travel_time_matrices", "build_travel_time_matrix", "distance_matrix_m",
        "great_circle_m", "shortest_path_distances", "snap_to_network", "write_matrix_csv",
    ), "routing"),
    **dict.fromkeys((
        "Layout", "ObjectiveParams", "OptimizationResult", "Shortfall",
        "exhaustive_oracle", "greedy_construct", "is_feasible", "local_search",
        "objective_value", "optimize",
    ), "optimizer"),
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
