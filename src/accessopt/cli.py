"""Command-line entry point: synth, score, solve, oracle.

Every run is a pure function of its config file, input files and seed; all
outputs land in one user-named directory with stable bytes so runs diff
cleanly.  Exit codes: 0 success/feasible, 2 input error, 3 infeasible,
4 candidate pool too large for the oracle.  ``main`` runs a command and
returns its code; ``accessopt.__main__.run``, the process entry, exits
with it.

Each command imports only the modules it runs: ``synth`` neither routes,
scores nor searches, ``score`` loads ``routing`` and ``accessibility``, and
``solve`` and ``oracle`` load the search as well.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from importlib import import_module
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

from . import _LAZY as _PACKAGE_LAZY
from .geodata import (
    DEFAULT_CAPACITY,
    DEFAULT_GROUPS,
    InputError,
    PopulationGroup,
    Scenario,
    ValidationError,
    _Record,
    _utf8_lines,
    format_number,
    generate_synthetic_scenario,
    load_scenario,
    write_csv,
    write_scenario_bundle,
)
from .limits import (
    DEFAULT_BUDGET,
    DEFAULT_MAX_POOL,
    CandidatePoolError,
    check_budget,
    check_max_pool,
)

if TYPE_CHECKING:
    import argparse

    from .accessibility import CoverageReport
    from .optimizer import ObjectiveParams, OptimizationResult

# The names this module calls from the modules only some commands run: the
# package's lazy names and two helpers of ``accessibility``.  The commands read
# them as attributes of this module, ``_cli``, whose ``__getattr__`` (PEP 562)
# imports and binds each on its first read, so a wrapper set on this module
# (``perfbench/tracer.py`` sets some) is what runs.
_LAZY = {**_PACKAGE_LAZY, **dict.fromkeys(("_check_bins", "assign_bin"), "accessibility")}
# the modules each command runs besides ``geodata`` and ``limits``
_MODULES = {"synth": (), "score": ("routing", "accessibility"),
            "solve": ("routing", "accessibility", "optimizer"),
            "oracle": ("routing", "accessibility", "optimizer")}
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name in _LAZY:
        globals()[name] = getattr(import_module(f".{_LAZY[name]}", __package__), name)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_POOL = 4


@dataclass(init=False, repr=False, eq=False)
class RunConfig(_Record):
    """Every config key, at its default until a config file or flag sets it."""

    # the flags and the config file set its fields one by one, so unlike
    # every other record it is mutable, and therefore unhashable
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

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
        for bad in "/\0":
            if bad in parts[0]:
                raise ValidationError(
                    f"group name {parts[0]!r} must not hold {bad!r}: it names output files")
        if len(f"coverage_{parts[0]}_before.json".encode("utf-8", "replace")) > 255:
            raise ValidationError(f"group name {parts[0]!r} is too long: output file "
                                  "coverage_<name>_before.json must fit in 255 bytes")
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

    Path values resolve relative to the config file's directory.  A leading
    UTF-8 byte order mark is skipped.  A byte that is not UTF-8 is refused
    after the lines before it.
    """
    path = Path(path)
    base = path.parent
    values: dict = {}
    for lineno, line in enumerate(_utf8_lines(path), start=1):
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
    return [dataclasses.asdict(b) for b in report.bins]


def _result_payload(result: OptimizationResult) -> dict:
    return {
        "layout": list(result.layout.sorted_ids()),
        "k": result.layout.k,
        "objective": result.objective,
        "feasible": result.feasible,
        "shortfalls": [dataclasses.asdict(s) for s in result.shortfalls],
        "coverage": {
            name: _coverage_payload(report)
            for name, report in result.coverage.items()
        },
    }


def _json_leaf(value) -> str:
    """``value`` as ``_write_json`` writes it inside a document."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    return json.dumps(value)


def _json_leaves(values: list) -> list[str]:
    """``_json_leaf`` of each value; a column of finite floats, of ints or of
    strings is formatted by one ``map``."""
    kinds = set(map(type, values))
    # the sum of finite floats may overflow, but never that of a NaN or inf
    if kinds == {float} and math.isfinite(sum(values)):
        return list(map(float.__repr__, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    return list(map(_json_leaf, values))


def _feature_template(keys) -> str:
    """One feature as ``json.dumps(indent=2)`` lays it out in the collection,
    with a ``%s`` for its lon, its lat and the value of each property."""
    props = ",\n".join(f"        {_json_leaf(key).replace('%', '%%')}: %s" for key in keys)
    return ('    {\n      "type": "Feature",\n      "geometry": {\n'
            '        "type": "Point",\n        "coordinates": [\n'
            '          %s,\n          %s\n        ]\n      },\n'
            f'      "properties": {{\n{props}\n      }}\n    }}')


_GEOJSON_BATCH = 128  # features formatted, then written, at a time


def _write_geojson(path: Path, scenario: Scenario, open_ids, fields, bin_spec) -> None:
    """Every site, then every demand point with its scores, as a GeoJSON
    FeatureCollection: the bytes of ``_write_json`` on the same dicts.

    The features are formatted, and written, in batches: into a ``.part``
    file beside ``path``, which is then renamed onto it.  In each batch
    every property is formatted a column at a time, then each feature's
    template is filled from its row of the columns.
    """
    labels = [_json_leaf(label) for label, _ in bin_spec]
    bounds = [lower for _, lower in bin_spec]
    site = _feature_template(("site_id", "status", "opened", "capacity"))
    demand = _feature_template(["demand_id", *(f"{prefix}_{name}" for name in fields
                                               for prefix in ("A", "bin", "pop"))])

    def site_features(sites) -> str:
        columns = [_json_leaves(column) for column in (
            [s.location.lon for s in sites], [s.location.lat for s in sites],
            [s.site_id for s in sites], [s.status for s in sites],
            [s.site_id in open_ids for s in sites], [s.capacity for s in sites],
        )]
        return ",\n".join(map(site.__mod__, zip(*columns)))

    def demand_features(demands) -> str:
        columns = [_json_leaves([d.location.lon for d in demands]),
                   _json_leaves([d.location.lat for d in demands]),
                   _json_leaves([d.demand_id for d in demands])]
        for name, field in fields.items():
            scores = [field.scores[d.demand_id] for d in demands]
            columns += (_json_leaves(scores),
                        [labels[_cli.assign_bin(bounds, score)] for score in scores],
                        _json_leaves([d.pop_of(name) for d in demands]))
        return ",\n".join(map(demand.__mod__, zip(*columns)))

    # each batch is written as soon as it is formatted, into a part file
    # that replaces ``path`` only once whole, so a value that JSON refuses
    # leaves no partial file and the whole text is never held at once
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "w", encoding="utf-8") as fh:
            fh.write('{\n  "type": "FeatureCollection",\n  "features": [\n')
            sep = ""
            for rows, features in ((scenario.sites, site_features),
                                   (scenario.demands, demand_features)):
                for start in range(0, len(rows), _GEOJSON_BATCH):
                    fh.write(sep + features(rows[start:start + _GEOJSON_BATCH]))
                    sep = ",\n"
            fh.write("\n  ]\n}\n")
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _write_layout(out: Path, scenario: Scenario, open_ids, fields, coverage,
                  bin_spec) -> None:
    """A layout's ``accessibility_<group>.csv``, ``coverage_<group>.json`` and
    ``layout.geojson``."""
    for name, field in fields.items():
        write_csv(out / f"accessibility_{name}.csv", ("demand_id", "group", "A"),
                  ((did, field.group, score) for did, score in field.scores.items()))
        _write_json(out / f"coverage_{name}.json", _coverage_payload(coverage[name]))
    _write_geojson(out / "layout.geojson", scenario, open_ids, fields, bin_spec)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _bin_spec(cfg: RunConfig):
    """The checked coverage bins, resolved before the scenario is read."""
    if cfg.bins is None:
        if cfg.bin_labels is not None:
            raise ValidationError("bin_labels given without bins")
        spec = _cli.default_bins(cfg.a_sigma)
    else:
        labels = cfg.bin_labels
        if labels is None:
            labels = tuple(f"bin{k}" for k in range(len(cfg.bins)))
        if len(labels) != len(cfg.bins):
            raise ValidationError("bins and bin_labels must have the same length")
        spec = zip(labels, cfg.bins)
    return _cli._check_bins(spec)


def _prepare(cfg: RunConfig, existing_only: bool = False):
    """The scenario, its travel-time matrices and the output directory.

    The matrices hold the existing sites only if ``existing_only``, else
    every site.  The directory is made only when a command writes into it.
    """
    paths = []
    for key in ("nodes", "edges", "demand", "sites"):
        if getattr(cfg, key):
            paths.append(Path(getattr(cfg, key)))
        elif cfg.bundle:
            paths.append(Path(cfg.bundle) / f"{key}.csv")
        else:
            raise ValidationError(f"no {key} file configured (set '{key}' or 'bundle')")
    scenario = load_scenario(*paths, groups=cfg.groups, default_capacity=cfg.capacity)
    sites = [s for s in scenario.sites if s.existing] if existing_only else None
    matrices = _cli.build_travel_time_matrices(
        scenario, include_snap_distance=cfg.include_snap, snap_warn_m=cfg.snap_warn_m,
        sites=sites,
    )
    return scenario, matrices, Path(cfg.out)


def _params(cfg: RunConfig) -> ObjectiveParams:
    """The objective, checked against ``cfg.groups`` before the scenario is read."""
    names = {g.name for g in cfg.groups}
    for name in (cfg.primary_group, *cfg.constraint_groups):
        if name not in names:
            raise ValidationError(f"unknown group '{name}'")
    return _cli.ObjectiveParams(
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
            _cli.write_matrix_csv(matrix, out / f"travel_times_{name}.csv")


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


def _say(line: str) -> None:
    """Print a command's summary line.  A reader that has closed stdout
    before it does not fail a run whose outputs are written."""
    try:
        print(line)
    except BrokenPipeError:
        pass


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
    _say(f"wrote scenario bundle to {out}")
    return EXIT_OK


def _score_groups(scenario: Scenario, matrices, open_ids, gamma: float, bin_spec):
    """Every group's accessibility field and coverage report for one layout."""
    fields, coverage = {}, {}
    for g in scenario.groups:
        field = _cli.accessibility_scores(scenario, matrices[g.name], open_ids, gamma)
        fields[g.name] = field
        coverage[g.name] = _cli.coverage_report(field, scenario.demands, bin_spec)
    return fields, coverage


def cmd_score(cfg: RunConfig) -> int:
    bin_spec = _bin_spec(cfg)
    # the dumped matrices list every site; the scores need the existing ones only
    scenario, matrices, out = _prepare(cfg, existing_only=not cfg.dump_matrix)
    open_ids = set(scenario.existing_site_ids)
    fields, coverage = _score_groups(scenario, matrices, open_ids, cfg.gamma, bin_spec)
    out.mkdir(parents=True, exist_ok=True)
    _write_layout(out, scenario, open_ids, fields, coverage, bin_spec)
    _dump_matrices(out, matrices, cfg)
    _say(f"scored existing layout ({len(open_ids)} sites) into {out}")
    return EXIT_OK


def cmd_solve(cfg: RunConfig) -> int:
    params = _params(cfg)
    bin_spec = _bin_spec(cfg)
    check_budget(cfg.budget)
    scenario, matrices, out = _prepare(cfg)

    result = _cli.optimize(scenario, matrices, params, budget=cfg.budget, bins=bin_spec)
    baseline_open = set(scenario.existing_site_ids)
    _, before = _score_groups(scenario, matrices, baseline_open, cfg.gamma, bin_spec)
    out.mkdir(parents=True, exist_ok=True)
    for name, report in before.items():
        _write_json(out / f"coverage_{name}_before.json", _coverage_payload(report))
    _write_json(out / "result.json", _result_payload(result))
    opened = baseline_open | set(result.layout.open_candidates)
    _write_layout(out, scenario, opened, result.per_group_fields, result.coverage, bin_spec)
    _dump_matrices(out, matrices, cfg)
    status = "feasible" if result.feasible else "infeasible"
    _say(f"solve: k={result.layout.k} objective={result.objective} {status}")
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def cmd_oracle(cfg: RunConfig) -> int:
    params = _params(cfg)
    bin_spec = _bin_spec(cfg)
    check_max_pool(cfg.max_pool)
    heuristic = _heuristic_objective(Path(cfg.out) / "result.json")
    scenario, matrices, out = _prepare(cfg)
    result = _cli.exhaustive_oracle(scenario, matrices, params,
                                    max_pool=cfg.max_pool, bins=bin_spec)
    payload = {"oracle": True, **_result_payload(result)}
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "result_oracle.json", payload)
    _say(f"oracle: k={result.layout.k} objective={result.objective} "
         f"{'feasible' if result.feasible else 'infeasible'}")

    if heuristic is not None:
        if result.objective > 0:
            ratio = heuristic / result.objective
        else:
            ratio = 1.0 if heuristic == 0 else float("inf")
        _say(f"objective ratio (heuristic / oracle): {ratio}")
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def _heuristic_objective(path: Path) -> float | None:
    """The finite ``objective`` of the JSON object in ``path``; ``None`` if
    there is no such file."""
    if not path.exists():
        return None
    try:
        # integers as floats, so one too large for a float is refused too
        payload = json.loads(path.read_text(encoding="utf-8-sig"), parse_int=float)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    objective = payload.get("objective") if isinstance(payload, dict) else None
    if not (isinstance(objective, float) and math.isfinite(objective)):
        raise ValidationError(
            f"{path}: expected a JSON object whose 'objective' is a finite number")
    return objective


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

_FLAG_HELP = {
    "out": "output directory",
    "bundle": "directory holding nodes/edges/demand/sites CSVs",
    "groups": "name:speed:max_walk, comma separated",
}


def _build_parser() -> argparse.ArgumentParser:
    import argparse  # after the command's modules (see ``main``)

    # the flags every command takes, made once and shared through parents=
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="flat key=value config file")
    # one flag per config key; build_config parses its value as a config line
    for key, kind in _FIELD_TYPES.items():
        if kind == "bool":
            common.add_argument(_flag(key), action=argparse.BooleanOptionalAction,
                                default=None)
        else:
            common.add_argument(_flag(key), help=_FLAG_HELP.get(key))
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
        sub.add_parser(name, help=help_text, parents=[common]).set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the command's modules are imported first and argparse after them: in
    # the other order, solve's peak RSS read 0.2 MB higher (where the heap's
    # blocks fall, not memory held)
    if argv and argv[0] in _MODULES:
        for module in _MODULES[argv[0]]:
            import_module(f".{module}", __package__)
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
