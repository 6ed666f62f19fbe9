"""Command-line entry point: synth, score, solve, oracle.

Every run is a pure function of its config file, input files and seed; all
outputs land in one user-named directory with stable bytes so runs diff
cleanly.  Exit codes: 0 success/feasible, 2 input error, 3 infeasible,
4 candidate pool too large for the oracle.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .accessibility import (
    CoverageReport,
    _check_bins,
    accessibility_scores,
    assign_bin,
    coverage_report,
    default_bins,
)
from .geodata import (
    DEFAULT_CAPACITY,
    DEFAULT_GROUPS,
    InputError,
    PopulationGroup,
    Scenario,
    ValidationError,
    format_number,
    generate_synthetic_scenario,
    load_scenario,
    write_csv,
    write_scenario_bundle,
)
from .optimizer import (
    DEFAULT_BUDGET,
    DEFAULT_MAX_POOL,
    CandidatePoolError,
    ObjectiveParams,
    OptimizationResult,
    check_budget,
    check_max_pool,
    exhaustive_oracle,
    optimize,
)
from .routing import build_travel_time_matrices, write_matrix_csv

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_POOL = 4


@dataclass
class RunConfig:
    bundle: str | None = None
    nodes: str | None = None
    edges: str | None = None
    demand: str | None = None
    sites: str | None = None
    out: str = "out"
    groups: tuple[PopulationGroup, ...] = DEFAULT_GROUPS
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    a_sigma: float = 0.135
    primary_group: str = "general"
    constraint_groups: tuple[str, ...] = ("general",)
    bins: tuple[float, ...] | None = None
    bin_labels: tuple[str, ...] | None = None
    capacity: float = DEFAULT_CAPACITY
    budget: int = DEFAULT_BUDGET
    max_pool: int = DEFAULT_MAX_POOL
    seed: int = 0
    snap_warn_m: float = 500.0
    include_snap: bool = False
    dump_matrix: bool = False
    grid_rows: int = 20
    grid_cols: int = 20
    n_existing: int = 16
    n_candidate: int = 40
    population_scale: float = 1.0
    spacing_m: float = 120.0


_PATH_KEYS = ("bundle", "nodes", "edges", "demand", "sites", "out")
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def parse_groups(raw: str) -> tuple[PopulationGroup, ...]:
    """Grammar: ``name:walk_speed_m_per_min:max_walk_m``, comma separated."""
    groups = []
    for item in raw.split(","):
        parts = item.strip().split(":")
        if len(parts) != 3:
            raise ValidationError(
                f"bad group spec {item.strip()!r} (expected name:speed:max_walk)"
            )
        try:
            groups.append(PopulationGroup(parts[0], float(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise ValidationError(f"bad group spec {item.strip()!r}: {exc}") from None
    return tuple(groups)


def _parse_bool(raw: str) -> bool:
    token = raw.strip().lower()
    if token in ("1", "true", "yes", "on"):
        return True
    if token in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"bad boolean value {raw!r}")


def _convert(key: str, raw: str):
    """The value of config key ``key`` from its text, a config line's or a flag's."""
    if key in _PATH_KEYS:
        return raw
    if key == "groups":
        return parse_groups(raw)
    if key == "constraint_groups":
        return tuple(s.strip() for s in raw.split(",") if s.strip())
    if key == "bins":
        bounds = tuple(float(s) for s in raw.split(","))
        if not all(math.isfinite(b) for b in bounds):
            raise ValidationError(f"bins must be finite numbers, got {raw.strip()!r}")
        return bounds
    if key == "bin_labels":
        return tuple(s.strip() for s in raw.split(","))
    kind = _FIELD_TYPES[key]
    if kind == "bool":
        return _parse_bool(raw)
    if kind == "int":
        return int(raw)
    if kind == "float":
        value = float(raw)
        if not math.isfinite(value):
            raise ValidationError(f"{key} must be finite, got {raw.strip()!r}")
        return value
    return raw


def read_config_file(path) -> dict:
    """Flat ``key = value`` grammar with ``#`` comments; lists are comma separated.

    Path values resolve relative to the config file's directory.
    """
    path = Path(path)
    base = path.parent
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in text.split("=", 1))
            key = key.replace("-", "_")
            if key not in _FIELD_TYPES:
                raise ValidationError(f"{path}:{lineno}: unknown config key '{key}'")
            try:
                value = _convert(key, raw)
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
            if key in _PATH_KEYS:
                value = str((base / value).resolve())
            values[key] = value
    return values


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def build_config(args: argparse.Namespace) -> RunConfig:
    """The config file's values, then every flag given, each parsed as a config line."""
    cfg = RunConfig()
    if args.config:
        for key, value in read_config_file(args.config).items():
            setattr(cfg, key, value)
    for key in _FIELD_TYPES:
        value = getattr(args, key, None)
        if isinstance(value, str):
            try:
                value = _convert(key, value)
            except ValueError as exc:
                raise ValidationError(f"{_flag(key)}: {exc}") from None
        if value is not None:
            setattr(cfg, key, value)
    return cfg


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def _write_json(path: Path, payload) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _coverage_payload(report: CoverageReport) -> list:
    return [
        {
            "label": b.label,
            "lower_bound": b.lower_bound,
            "population": b.population,
            "share": b.share,
        }
        for b in report.bins
    ]


def _result_payload(result: OptimizationResult) -> dict:
    return {
        "layout": list(result.layout.sorted_ids()),
        "k": result.layout.k,
        "objective": result.objective,
        "feasible": result.feasible,
        "shortfalls": [
            {"demand_id": s.demand_id, "group": s.group, "score": s.score}
            for s in result.shortfalls
        ],
        "coverage": {
            name: _coverage_payload(report)
            for name, report in result.coverage.items()
        },
    }


def _feature(location, properties: dict) -> dict:
    return {
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [location.lon, location.lat]},
        "properties": properties,
    }


def _geojson_payload(scenario: Scenario, open_ids, fields, bin_spec) -> dict:
    labels = [label for label, _ in bin_spec]
    bounds = [lower for _, lower in bin_spec]
    features = [
        _feature(s.location, {"site_id": s.site_id, "status": s.status,
                              "opened": s.site_id in open_ids, "capacity": s.capacity})
        for s in scenario.sites
    ]
    for d in scenario.demands:
        props = {"demand_id": d.demand_id}
        for name, field in fields.items():
            score = field.scores[d.demand_id]
            props[f"A_{name}"] = score
            props[f"bin_{name}"] = labels[assign_bin(bounds, score)]
            props[f"pop_{name}"] = d.pop_of(name)
        features.append(_feature(d.location, props))
    return {"type": "FeatureCollection", "features": features}


def _write_layout(out: Path, scenario: Scenario, open_ids, fields, coverage,
                  bin_spec) -> None:
    """A layout's ``accessibility_<group>.csv``, ``coverage_<group>.json`` and
    ``layout.geojson``."""
    for name, field in fields.items():
        write_csv(out / f"accessibility_{name}.csv", ("demand_id", "group", "A"),
                  ((did, field.group, score) for did, score in field.scores.items()))
        _write_json(out / f"coverage_{name}.json", _coverage_payload(coverage[name]))
    _write_json(out / "layout.geojson",
                _geojson_payload(scenario, open_ids, fields, bin_spec))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _bin_spec(cfg: RunConfig):
    """The checked coverage bins, resolved before the scenario is read."""
    if cfg.bins is None:
        if cfg.bin_labels is not None:
            raise ValidationError("bin_labels given without bins")
        spec = default_bins(cfg.a_sigma)
    else:
        labels = cfg.bin_labels
        if labels is None:
            labels = tuple(f"bin{k}" for k in range(len(cfg.bins)))
        if len(labels) != len(cfg.bins):
            raise ValidationError("bins and bin_labels must have the same length")
        spec = zip(labels, cfg.bins)
    return tuple(zip(*_check_bins(spec)))


def _prepare(cfg: RunConfig):
    """The scenario, its travel-time matrices and the created output directory."""
    paths = []
    for key in ("nodes", "edges", "demand", "sites"):
        if getattr(cfg, key):
            paths.append(Path(getattr(cfg, key)))
        elif cfg.bundle:
            paths.append(Path(cfg.bundle) / f"{key}.csv")
        else:
            raise ValidationError(f"no {key} file configured (set '{key}' or 'bundle')")
    scenario = load_scenario(*paths, groups=cfg.groups, default_capacity=cfg.capacity)
    matrices = build_travel_time_matrices(
        scenario, include_snap_distance=cfg.include_snap, snap_warn_m=cfg.snap_warn_m
    )
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return scenario, matrices, out


def _params(cfg: RunConfig) -> ObjectiveParams:
    """The objective, checked against ``cfg.groups`` before the scenario is read."""
    names = {g.name for g in cfg.groups}
    for name in (cfg.primary_group, *cfg.constraint_groups):
        if name not in names:
            raise ValidationError(f"unknown group '{name}'")
    return ObjectiveParams(
        alpha=cfg.alpha,
        beta=cfg.beta,
        a_sigma=cfg.a_sigma,
        gamma=cfg.gamma,
        primary_group=cfg.primary_group,
        constraint_groups=cfg.constraint_groups,
    )


def _dump_matrices(out: Path, matrices, cfg: RunConfig) -> None:
    if cfg.dump_matrix:
        for name, matrix in matrices.items():
            write_matrix_csv(matrix, out / f"travel_times_{name}.csv")


_CONFIG_ECHO_KEYS = tuple(
    key for key in _FIELD_TYPES if key not in (*_PATH_KEYS, "bins", "bin_labels")
)


def _config_text(cfg: RunConfig) -> str:
    lines = ["# generated scenario bundle; paths are relative to this file",
             "bundle = ."]
    for key in _CONFIG_ECHO_KEYS:
        value = getattr(cfg, key)
        if key == "groups":
            value = ",".join(
                f"{g.name}:{format_number(g.walk_speed_m_per_min)}"
                f":{format_number(g.max_walk_m)}"
                for g in value
            )
        elif key == "constraint_groups":
            value = ",".join(value)
        elif isinstance(value, bool):
            value = "1" if value else "0"
        elif isinstance(value, float):
            value = format_number(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def cmd_synth(cfg: RunConfig) -> int:
    scenario = generate_synthetic_scenario(
        cfg.seed,
        grid_rows=cfg.grid_rows,
        grid_cols=cfg.grid_cols,
        n_existing=cfg.n_existing,
        n_candidate=cfg.n_candidate,
        population_scale=cfg.population_scale,
        spacing_m=cfg.spacing_m,
        groups=cfg.groups,
        capacity=cfg.capacity,
    )
    out = Path(cfg.out)
    write_scenario_bundle(scenario, out)
    (out / "run.cfg").write_text(_config_text(cfg), encoding="utf-8")
    print(f"wrote scenario bundle to {out}")
    return EXIT_OK


def _score_groups(scenario: Scenario, matrices, open_ids, gamma: float, bin_spec):
    """Every group's accessibility field and coverage report for one layout."""
    fields, coverage = {}, {}
    for g in scenario.groups:
        field = accessibility_scores(scenario, matrices[g.name], open_ids, gamma)
        fields[g.name] = field
        coverage[g.name] = coverage_report(field, scenario.demands, bin_spec)
    return fields, coverage


def cmd_score(cfg: RunConfig) -> int:
    bin_spec = _bin_spec(cfg)
    scenario, matrices, out = _prepare(cfg)
    open_ids = set(scenario.existing_site_ids)
    fields, coverage = _score_groups(scenario, matrices, open_ids, cfg.gamma, bin_spec)
    _write_layout(out, scenario, open_ids, fields, coverage, bin_spec)
    _dump_matrices(out, matrices, cfg)
    print(f"scored existing layout ({len(open_ids)} sites) into {out}")
    return EXIT_OK


def cmd_solve(cfg: RunConfig) -> int:
    params = _params(cfg)
    bin_spec = _bin_spec(cfg)
    check_budget(cfg.budget)
    scenario, matrices, out = _prepare(cfg)

    baseline_open = set(scenario.existing_site_ids)
    _, before = _score_groups(scenario, matrices, baseline_open, cfg.gamma, bin_spec)
    for name, report in before.items():
        _write_json(out / f"coverage_{name}_before.json", _coverage_payload(report))

    result = optimize(scenario, matrices, params, budget=cfg.budget, bins=bin_spec)
    _write_json(out / "result.json", _result_payload(result))
    opened = baseline_open | set(result.layout.open_candidates)
    _write_layout(out, scenario, opened, result.per_group_fields, result.coverage, bin_spec)
    _dump_matrices(out, matrices, cfg)
    status = "feasible" if result.feasible else "infeasible"
    print(f"solve: k={result.layout.k} objective={result.objective} {status}")
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def cmd_oracle(cfg: RunConfig) -> int:
    params = _params(cfg)
    bin_spec = _bin_spec(cfg)
    check_max_pool(cfg.max_pool)
    scenario, matrices, out = _prepare(cfg)
    result = exhaustive_oracle(scenario, matrices, params,
                               max_pool=cfg.max_pool, bins=bin_spec)
    payload = {"oracle": True, **_result_payload(result)}
    _write_json(out / "result_oracle.json", payload)
    print(f"oracle: k={result.layout.k} objective={result.objective} "
          f"{'feasible' if result.feasible else 'infeasible'}")

    heuristic_path = out / "result.json"
    if heuristic_path.exists():
        heuristic = json.loads(heuristic_path.read_text(encoding="utf-8"))
        if result.objective > 0:
            ratio = heuristic["objective"] / result.objective
        else:
            ratio = 1.0 if heuristic["objective"] == 0 else float("inf")
        print(f"objective ratio (heuristic / oracle): {ratio}")
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

_FLAG_HELP = {
    "out": "output directory",
    "bundle": "directory holding nodes/edges/demand/sites CSVs",
    "groups": "name:speed:max_walk, comma separated",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accessopt",
        description="Road-network accessibility scoring and facility placement",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "synth": ("write a synthetic scenario bundle", cmd_synth),
        "score": ("score the existing facility layout", cmd_score),
        "solve": ("choose candidate sites to open", cmd_solve),
        "oracle": ("certified optimum over candidate subsets", cmd_oracle),
    }
    for name, (help_text, func) in commands.items():
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        sp.add_argument("--config", metavar="PATH", help="flat key=value config file")
        # one flag per config key; build_config parses its value as a config line
        for key, kind in _FIELD_TYPES.items():
            if kind == "bool":
                sp.add_argument(_flag(key), action=argparse.BooleanOptionalAction,
                                default=None)
            else:
                sp.add_argument(_flag(key), help=_FLAG_HELP.get(key))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return args.func(cfg)
    except CandidatePoolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_POOL
    except FileNotFoundError as exc:
        missing = exc.filename or exc
        print(f"error: file not found: {missing}", file=sys.stderr)
        return EXIT_INPUT
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
