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
    AccessibilityField,
    CoverageReport,
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
    write_scenario_bundle,
)
from .optimizer import (
    DEFAULT_BUDGET,
    DEFAULT_MAX_POOL,
    CandidatePoolError,
    ObjectiveParams,
    OptimizationResult,
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
    kind = {f.name: f.type for f in dataclasses.fields(RunConfig)}[key]
    if key in _PATH_KEYS:
        return raw
    if kind.startswith("bool"):
        return _parse_bool(raw)
    if kind.startswith("int"):
        return int(raw)
    if kind.startswith("float"):
        return float(raw)
    return raw


def read_config_file(path) -> dict:
    """Flat ``key = value`` grammar with ``#`` comments; lists are comma separated.

    Path values resolve relative to the config file's directory.
    """
    path = Path(path)
    base = path.parent
    values: dict = {}
    known = {f.name for f in dataclasses.fields(RunConfig)}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in text.split("=", 1))
            key = key.replace("-", "_")
            if key not in known:
                raise ValidationError(f"{path}:{lineno}: unknown config key '{key}'")
            try:
                value = _convert(key, raw)
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
            if key in _PATH_KEYS:
                value = str((base / value).resolve())
            values[key] = value
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        for key, value in read_config_file(args.config).items():
            setattr(cfg, key, value)
    for field in dataclasses.fields(RunConfig):
        raw = getattr(args, field.name, None)
        if raw is None:
            continue
        value = _convert(field.name, raw) if isinstance(raw, str) else raw
        setattr(cfg, field.name, value)
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


def _write_field_csv(path: Path, field: AccessibilityField) -> None:
    lines = ["demand_id,group,A"]
    lines.extend(
        f"{did},{field.group},{format_number(score)}"
        for did, score in field.scores.items()
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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


def _geojson_payload(scenario: Scenario, open_ids, fields, bin_spec) -> dict:
    labels = [label for label, _ in bin_spec]
    bounds = [lower for _, lower in bin_spec]
    features = []
    for s in scenario.sites:
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "Point",
                    "coordinates": [s.location.lon, s.location.lat],
                },
                "properties": {
                    "site_id": s.site_id,
                    "status": s.status,
                    "opened": s.site_id in open_ids,
                    "capacity": s.capacity,
                },
            }
        )
    for d in scenario.demands:
        props = {"demand_id": d.demand_id}
        for name, field in fields.items():
            score = field.scores[d.demand_id]
            props[f"A_{name}"] = score
            props[f"bin_{name}"] = labels[assign_bin(bounds, score)]
            props[f"pop_{name}"] = d.pop_of(name)
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "Point",
                    "coordinates": [d.location.lon, d.location.lat],
                },
                "properties": props,
            }
        )
    return {"type": "FeatureCollection", "features": features}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _bin_spec(cfg: RunConfig):
    if cfg.bins is None:
        return default_bins(cfg.a_sigma)
    labels = cfg.bin_labels
    if labels is None:
        labels = tuple(f"bin{k}" for k in range(len(cfg.bins)))
    if len(labels) != len(cfg.bins):
        raise ValidationError("bins and bin_labels must have the same length")
    return tuple(zip(labels, cfg.bins))


def _scenario_paths(cfg: RunConfig) -> dict[str, Path]:
    paths = {}
    names = {"nodes": "nodes.csv", "edges": "edges.csv",
             "demand": "demand.csv", "sites": "sites.csv"}
    for key, filename in names.items():
        explicit = getattr(cfg, key)
        if explicit:
            paths[key] = Path(explicit)
        elif cfg.bundle:
            paths[key] = Path(cfg.bundle) / filename
        else:
            raise ValidationError(
                f"no {key} file configured (set '{key}' or 'bundle')"
            )
    return paths


def _load(cfg: RunConfig) -> Scenario:
    paths = _scenario_paths(cfg)
    return load_scenario(
        paths["nodes"], paths["edges"], paths["demand"], paths["sites"],
        groups=cfg.groups, default_capacity=cfg.capacity,
    )


def _params(cfg: RunConfig) -> ObjectiveParams:
    return ObjectiveParams(
        alpha=cfg.alpha,
        beta=cfg.beta,
        a_sigma=cfg.a_sigma,
        gamma=cfg.gamma,
        primary_group=cfg.primary_group,
        constraint_groups=cfg.constraint_groups,
    )


def _matrices(scenario: Scenario, cfg: RunConfig):
    return build_travel_time_matrices(
        scenario,
        include_snap_distance=cfg.include_snap,
        snap_warn_m=cfg.snap_warn_m,
    )


def _dump_matrices(out: Path, matrices, cfg: RunConfig) -> None:
    if cfg.dump_matrix:
        for name, matrix in matrices.items():
            write_matrix_csv(matrix, out / f"travel_times_{name}.csv")


_CONFIG_ECHO_KEYS = (
    "groups", "alpha", "beta", "gamma", "a_sigma", "primary_group",
    "constraint_groups", "capacity", "budget", "max_pool", "seed",
    "snap_warn_m", "include_snap", "dump_matrix", "grid_rows", "grid_cols",
    "n_existing", "n_candidate", "population_scale", "spacing_m",
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


def cmd_score(cfg: RunConfig) -> int:
    bin_spec = _bin_spec(cfg)
    scenario = _load(cfg)
    matrices = _matrices(scenario, cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    open_ids = set(scenario.existing_site_ids)
    fields = {}
    for g in scenario.groups:
        field = accessibility_scores(scenario, matrices[g.name], open_ids, cfg.gamma)
        fields[g.name] = field
        _write_field_csv(out / f"accessibility_{g.name}.csv", field)
        report = coverage_report(field, scenario.demands, bin_spec)
        _write_json(out / f"coverage_{g.name}.json", _coverage_payload(report))
    _write_json(out / "layout.geojson",
                _geojson_payload(scenario, open_ids, fields, bin_spec))
    _dump_matrices(out, matrices, cfg)
    print(f"scored existing layout ({len(open_ids)} sites) into {out}")
    return EXIT_OK


def cmd_solve(cfg: RunConfig) -> int:
    params = _params(cfg)
    bin_spec = _bin_spec(cfg)
    scenario = _load(cfg)
    matrices = _matrices(scenario, cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    baseline_open = set(scenario.existing_site_ids)
    for g in scenario.groups:
        field = accessibility_scores(scenario, matrices[g.name], baseline_open, cfg.gamma)
        report = coverage_report(field, scenario.demands, bin_spec)
        _write_json(out / f"coverage_{g.name}_before.json", _coverage_payload(report))

    result = optimize(scenario, matrices, params, budget=cfg.budget, bins=bin_spec)
    _write_json(out / "result.json", _result_payload(result))
    for name, field in result.per_group_fields.items():
        _write_field_csv(out / f"accessibility_{name}.csv", field)
        _write_json(out / f"coverage_{name}.json",
                    _coverage_payload(result.coverage[name]))
    opened = baseline_open | set(result.layout.open_candidates)
    _write_json(out / "layout.geojson",
                _geojson_payload(scenario, opened, result.per_group_fields, bin_spec))
    _dump_matrices(out, matrices, cfg)
    status = "feasible" if result.feasible else "infeasible"
    print(f"solve: k={result.layout.k} objective={result.objective} {status}")
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def cmd_oracle(cfg: RunConfig) -> int:
    params = _params(cfg)
    bin_spec = _bin_spec(cfg)
    check_max_pool(cfg.max_pool)
    scenario = _load(cfg)
    matrices = _matrices(scenario, cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
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
        "oracle": ("exhaustive search over candidate subsets", cmd_oracle),
    }
    for name, (help_text, func) in commands.items():
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        sp.add_argument("--config", metavar="PATH", help="flat key=value config file")
        sp.add_argument("--out", metavar="DIR", help="output directory")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--bundle", metavar="DIR",
                        help="directory holding nodes/edges/demand/sites CSVs")
        for key in ("nodes", "edges", "demand", "sites"):
            sp.add_argument(f"--{key}", metavar="PATH")
        sp.add_argument("--groups", metavar="SPEC",
                        help="name:speed:max_walk, comma separated")
        for key in ("alpha", "beta", "gamma", "a-sigma", "capacity",
                    "snap-warn-m", "population-scale", "spacing-m"):
            sp.add_argument(f"--{key}", type=float)
        for key in ("budget", "max-pool", "grid-rows", "grid-cols",
                    "n-existing", "n-candidate"):
            sp.add_argument(f"--{key}", type=int)
        sp.add_argument("--primary-group", metavar="NAME")
        sp.add_argument("--constraint-groups", metavar="NAMES")
        sp.add_argument("--bins", metavar="BOUNDS")
        sp.add_argument("--bin-labels", metavar="LABELS")
        sp.add_argument("--include-snap", action=argparse.BooleanOptionalAction,
                        default=None)
        sp.add_argument("--dump-matrix", action=argparse.BooleanOptionalAction,
                        default=None)
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
