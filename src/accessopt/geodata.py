"""Input datasets: road network, demand points, facility sites, population groups.

Everything downstream (routing, scoring, optimization) consumes the immutable
``Scenario`` built here, either parsed from a CSV bundle or synthesized
deterministically from a seed.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np


class InputError(ValueError):
    """Base class for all input-data failures."""


class ParseError(InputError):
    """A cell could not be read; the message carries file and line."""


class SchemaError(InputError):
    """A file header does not match the expected column schema."""


class ValidationError(InputError):
    """A parsed value violates a data invariant."""


EXISTING = "existing"
CANDIDATE = "candidate"
_STATUSES = (EXISTING, CANDIDATE)

DEFAULT_CAPACITY = 1500.0


@dataclass(frozen=True)
class Coordinate:
    """WGS84 position in decimal degrees."""

    lon: float
    lat: float

    def __post_init__(self):
        if not -180.0 <= self.lon <= 180.0:
            raise ValidationError(f"lon {self.lon!r} outside [-180, 180]")
        if not -90.0 <= self.lat <= 90.0:
            raise ValidationError(f"lat {self.lat!r} outside [-90, 90]")


@dataclass(frozen=True)
class Edge:
    from_id: str
    to_id: str
    length_m: float
    bidirectional: bool = True

    def __post_init__(self):
        if not (self.length_m > 0 and math.isfinite(self.length_m)):
            raise ValidationError(
                f"edge {self.from_id}->{self.to_id}: length_m must be finite and > 0, "
                f"got {self.length_m!r}"
            )


@dataclass(frozen=True)
class RoadNetwork:
    """Weighted graph of road segments; bidirectional edges walk both ways."""

    nodes: dict[str, Coordinate]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", dict(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        occupied: set[tuple[str, str]] = set()
        for e in self.edges:
            for nid in (e.from_id, e.to_id):
                if nid not in self.nodes:
                    raise ValidationError(
                        f"edge {e.from_id}->{e.to_id} references unknown node '{nid}'"
                    )
            pairs = {(e.from_id, e.to_id)}
            if e.bidirectional:
                pairs.add((e.to_id, e.from_id))
            for pair in pairs:
                if pair in occupied:
                    raise ValidationError(f"duplicate edge {pair[0]}->{pair[1]}")
            occupied |= pairs


@dataclass(frozen=True)
class PopulationGroup:
    """Walking profile for one slice of the population."""

    name: str
    walk_speed_m_per_min: float
    max_walk_m: float

    def __post_init__(self):
        if not self.name:
            raise ValidationError("group name must be non-empty")
        if not (self.walk_speed_m_per_min > 0 and math.isfinite(self.walk_speed_m_per_min)):
            raise ValidationError(
                f"group '{self.name}': walk speed must be finite and > 0, "
                f"got {self.walk_speed_m_per_min!r}"
            )
        if not (self.max_walk_m > 0 and math.isfinite(self.max_walk_m)):
            raise ValidationError(
                f"group '{self.name}': max walk distance must be finite and > 0, "
                f"got {self.max_walk_m!r}"
            )

    @property
    def t_sigma_min(self) -> float:
        """Travel-time threshold: the group's maximum walk at its own speed."""
        return self.max_walk_m / self.walk_speed_m_per_min


DEFAULT_GROUPS = (
    PopulationGroup("general", walk_speed_m_per_min=80.0, max_walk_m=700.0),
    PopulationGroup("elderly", walk_speed_m_per_min=70.0, max_walk_m=700.0),
)


@dataclass(frozen=True)
class DemandPoint:
    demand_id: str
    location: Coordinate
    population: Mapping[str, int]

    def __post_init__(self):
        coerced: dict[str, int] = {}
        for group, count in dict(self.population).items():
            try:
                value = operator.index(count)
            except TypeError:
                raise ValidationError(
                    f"demand '{self.demand_id}': population[{group!r}] must be an "
                    f"integer, got {count!r}"
                ) from None
            if value < 0:
                raise ValidationError(
                    f"demand '{self.demand_id}': population[{group!r}] must be "
                    f"non-negative, got {value}"
                )
            coerced[str(group)] = value
        object.__setattr__(self, "population", coerced)

    def pop_of(self, group: str) -> int:
        return self.population.get(group, 0)

    @property
    def total_population(self) -> int:
        return sum(self.population.values())

    @property
    def inert(self) -> bool:
        """No population of any group lives here; never binds a constraint."""
        return self.total_population == 0


@dataclass(frozen=True)
class FacilitySite:
    site_id: str
    location: Coordinate
    status: str
    capacity: float = DEFAULT_CAPACITY

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValidationError(
                f"site '{self.site_id}': unknown status '{self.status}' "
                f"(expected one of {', '.join(_STATUSES)})"
            )
        if not (self.capacity > 0 and math.isfinite(self.capacity)):
            raise ValidationError(
                f"site '{self.site_id}': capacity must be finite and > 0, "
                f"got {self.capacity!r}"
            )

    @property
    def existing(self) -> bool:
        return self.status == EXISTING


@dataclass(frozen=True)
class Scenario:
    """One complete problem instance; validated on construction."""

    network: RoadNetwork
    demands: tuple[DemandPoint, ...]
    sites: tuple[FacilitySite, ...]
    groups: tuple[PopulationGroup, ...]

    def __post_init__(self):
        object.__setattr__(self, "demands", tuple(self.demands))
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.demands:
            raise ValidationError("scenario needs at least one demand point")
        if not self.sites:
            raise ValidationError("scenario needs at least one facility site")
        if not self.groups:
            raise ValidationError("scenario needs at least one population group")
        for label, ids in (
            ("demand_id", [d.demand_id for d in self.demands]),
            ("site_id", [s.site_id for s in self.sites]),
            ("group name", [g.name for g in self.groups]),
        ):
            seen: set[str] = set()
            for value in ids:
                if value in seen:
                    raise ValidationError(f"duplicate {label} '{value}'")
                seen.add(value)
        names = {g.name for g in self.groups}
        for d in self.demands:
            unknown = sorted(set(d.population) - names)
            if unknown:
                raise ValidationError(
                    f"demand '{d.demand_id}' carries population for undeclared "
                    f"group(s): {', '.join(unknown)}"
                )

    @property
    def demand_ids(self) -> tuple[str, ...]:
        return tuple(d.demand_id for d in self.demands)

    @property
    def site_ids(self) -> tuple[str, ...]:
        return tuple(s.site_id for s in self.sites)

    @property
    def existing_site_ids(self) -> tuple[str, ...]:
        return tuple(s.site_id for s in self.sites if s.existing)

    @property
    def candidate_site_ids(self) -> tuple[str, ...]:
        return tuple(s.site_id for s in self.sites if not s.existing)

    def group_named(self, name: str) -> PopulationGroup:
        for g in self.groups:
            if g.name == name:
                return g
        raise ValidationError(f"unknown group '{name}'")

    def site(self, site_id: str) -> FacilitySite:
        for s in self.sites:
            if s.site_id == site_id:
                return s
        raise ValidationError(f"unknown site '{site_id}'")

    def total_population(self, group: str) -> int:
        return sum(d.pop_of(group) for d in self.demands)


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------

def _require_columns(fieldnames, required, path):
    have = fieldnames or []
    missing = [c for c in required if c not in have]
    if missing:
        raise SchemaError(f"{path}: missing column(s): {', '.join(missing)}")


def _parse_float(raw, path, line, column) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ParseError(
            f"{path}:{line}: column '{column}': cannot parse number from {raw!r}"
        ) from None


def _parse_int(raw, path, line, column) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ParseError(
            f"{path}:{line}: column '{column}': cannot parse integer from {raw!r}"
        ) from None


def _located(exc: ValidationError, path, line) -> ValidationError:
    return ValidationError(f"{path}:{line}: {exc}")


def parse_network(nodes_path, edges_path) -> RoadNetwork:
    """Read the node and edge CSVs into a validated road network."""
    nodes: dict[str, Coordinate] = {}
    with open(nodes_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader.fieldnames, ("node_id", "lon", "lat"), nodes_path)
        for row in reader:
            line = reader.line_num
            nid = (row["node_id"] or "").strip()
            if not nid:
                raise ParseError(f"{nodes_path}:{line}: empty node_id")
            if nid in nodes:
                raise ValidationError(f"{nodes_path}:{line}: duplicate node_id '{nid}'")
            lon = _parse_float(row["lon"], nodes_path, line, "lon")
            lat = _parse_float(row["lat"], nodes_path, line, "lat")
            try:
                nodes[nid] = Coordinate(lon, lat)
            except ValidationError as exc:
                raise _located(exc, nodes_path, line) from None

    edges: list[Edge] = []
    with open(edges_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _require_columns(
            reader.fieldnames, ("from_id", "to_id", "length_m", "bidirectional"), edges_path
        )
        for row in reader:
            line = reader.line_num
            raw_bidi = (row["bidirectional"] or "").strip()
            if raw_bidi in ("", "1"):
                bidi = True
            elif raw_bidi == "0":
                bidi = False
            else:
                raise ParseError(
                    f"{edges_path}:{line}: column 'bidirectional': expected 0, 1 or "
                    f"blank, got {raw_bidi!r}"
                )
            length = _parse_float(row["length_m"], edges_path, line, "length_m")
            try:
                edges.append(Edge((row["from_id"] or "").strip(),
                                  (row["to_id"] or "").strip(), length, bidi))
            except ValidationError as exc:
                raise _located(exc, edges_path, line) from None

    return RoadNetwork(nodes, tuple(edges))


def parse_demand(path, groups: Sequence[PopulationGroup]) -> list[DemandPoint]:
    """Read demand points; one ``pop_<group>`` column per declared group."""
    pop_columns = {g.name: f"pop_{g.name}" for g in groups}
    demands: list[DemandPoint] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _require_columns(
            reader.fieldnames, ("demand_id", "lon", "lat", *pop_columns.values()), path
        )
        for row in reader:
            line = reader.line_num
            did = (row["demand_id"] or "").strip()
            if not did:
                raise ParseError(f"{path}:{line}: empty demand_id")
            lon = _parse_float(row["lon"], path, line, "lon")
            lat = _parse_float(row["lat"], path, line, "lat")
            population = {
                name: _parse_int(row[col], path, line, col)
                for name, col in pop_columns.items()
            }
            try:
                demands.append(DemandPoint(did, Coordinate(lon, lat), population))
            except ValidationError as exc:
                raise _located(exc, path, line) from None
    return demands


def parse_sites(path, default_capacity: float = DEFAULT_CAPACITY) -> list[FacilitySite]:
    """Read facility sites; a blank capacity cell falls back to the default."""
    sites: list[FacilitySite] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _require_columns(
            reader.fieldnames, ("site_id", "lon", "lat", "status", "capacity"), path
        )
        for row in reader:
            line = reader.line_num
            sid = (row["site_id"] or "").strip()
            if not sid:
                raise ParseError(f"{path}:{line}: empty site_id")
            lon = _parse_float(row["lon"], path, line, "lon")
            lat = _parse_float(row["lat"], path, line, "lat")
            raw_cap = (row["capacity"] or "").strip()
            capacity = default_capacity if raw_cap == "" else _parse_float(
                raw_cap, path, line, "capacity"
            )
            status = (row["status"] or "").strip()
            try:
                sites.append(FacilitySite(sid, Coordinate(lon, lat), status, capacity))
            except ValidationError as exc:
                raise _located(exc, path, line) from None
    return sites


def load_scenario(
    nodes_path,
    edges_path,
    demand_path,
    sites_path,
    groups: Sequence[PopulationGroup] = DEFAULT_GROUPS,
    default_capacity: float = DEFAULT_CAPACITY,
) -> Scenario:
    """Parse the four CSVs into one validated scenario."""
    return Scenario(
        network=parse_network(nodes_path, edges_path),
        demands=tuple(parse_demand(demand_path, groups)),
        sites=tuple(parse_sites(sites_path, default_capacity)),
        groups=tuple(groups),
    )


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def format_number(x: float) -> str:
    """Shortest exact decimal form; integral values drop the trailing ``.0``."""
    value = float(x)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def write_network(network: RoadNetwork, nodes_path, edges_path) -> None:
    with open(nodes_path, "w", newline="", encoding="utf-8") as fh:
        w = _writer(fh)
        w.writerow(("node_id", "lon", "lat"))
        for nid, coord in network.nodes.items():
            w.writerow((nid, format_number(coord.lon), format_number(coord.lat)))
    with open(edges_path, "w", newline="", encoding="utf-8") as fh:
        w = _writer(fh)
        w.writerow(("from_id", "to_id", "length_m", "bidirectional"))
        for e in network.edges:
            w.writerow((e.from_id, e.to_id, format_number(e.length_m),
                        "1" if e.bidirectional else "0"))


def write_demand(demands: Iterable[DemandPoint], path,
                 groups: Sequence[PopulationGroup]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = _writer(fh)
        w.writerow(("demand_id", "lon", "lat", *(f"pop_{g.name}" for g in groups)))
        for d in demands:
            w.writerow((d.demand_id, format_number(d.location.lon),
                        format_number(d.location.lat),
                        *(str(d.pop_of(g.name)) for g in groups)))


def write_sites(sites: Iterable[FacilitySite], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = _writer(fh)
        w.writerow(("site_id", "lon", "lat", "status", "capacity"))
        for s in sites:
            w.writerow((s.site_id, format_number(s.location.lon),
                        format_number(s.location.lat), s.status,
                        format_number(s.capacity)))


BUNDLE_FILES = ("nodes.csv", "edges.csv", "demand.csv", "sites.csv")


def write_scenario_bundle(scenario: Scenario, out_dir) -> dict[str, Path]:
    """Write the four CSVs into ``out_dir`` under their conventional names."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / name for name in BUNDLE_FILES}
    write_network(scenario.network, paths["nodes.csv"], paths["edges.csv"])
    write_demand(scenario.demands, paths["demand.csv"], scenario.groups)
    write_sites(scenario.sites, paths["sites.csv"])
    return paths


# ---------------------------------------------------------------------------
# Synthetic scenario generation
# ---------------------------------------------------------------------------

_BASE_LON = 118.70
_BASE_LAT = 32.03
_M_PER_DEG_LAT = 111_320.0
_POP_FACTOR = 420.0
_SITE_REACH_FACTOR = 0.55


def generate_synthetic_scenario(
    seed: int,
    *,
    grid_rows: int = 20,
    grid_cols: int = 20,
    n_existing: int = 16,
    n_candidate: int = 40,
    population_scale: float = 1.0,
    spacing_m: float = 120.0,
    groups: Sequence[PopulationGroup] = DEFAULT_GROUPS,
    capacity: float = DEFAULT_CAPACITY,
) -> Scenario:
    """Deterministic city-like test instance on a jittered grid road network.

    The same arguments always produce a field-identical scenario.  Population
    concentrates in a few blobs; existing facilities cluster where population
    is thinnest (so the dense areas start under-served) while candidate sites
    are placed by a capacity-saturating coverage greedy: each new candidate
    goes where the most not-yet-absorbed population is within walking reach,
    so dense blobs attract several candidates and the fringe still gets
    covered.  The first group carries the base population; later groups get
    a random fraction of it per point.
    """
    if grid_rows < 2 or grid_cols < 2:
        raise ValidationError(f"grid must be at least 2x2, got {grid_rows}x{grid_cols}")
    if n_existing < 0 or n_candidate < 0:
        raise ValidationError("site counts must be non-negative")
    n_nodes = grid_rows * grid_cols
    if n_existing + n_candidate > n_nodes:
        raise ValidationError(
            f"{n_existing + n_candidate} sites requested but the grid has "
            f"only {n_nodes} nodes"
        )
    if not groups:
        raise ValidationError("at least one population group required")
    if not spacing_m > 0:
        raise ValidationError("spacing_m must be > 0")

    rng = np.random.default_rng(seed)
    width = max(4, len(str(n_nodes - 1)))
    d_lat = spacing_m / _M_PER_DEG_LAT
    d_lon = spacing_m / (_M_PER_DEG_LAT * math.cos(math.radians(_BASE_LAT)))

    rows, cols = np.divmod(np.arange(n_nodes), grid_cols)
    node_ids = [f"n{i:0{width}d}" for i in range(n_nodes)]
    nodes = {
        node_ids[i]: Coordinate(_BASE_LON + cols[i] * d_lon, _BASE_LAT + rows[i] * d_lat)
        for i in range(n_nodes)
    }

    edge_pairs: list[tuple[int, int]] = []
    for i in range(n_nodes):
        r, c = divmod(i, grid_cols)
        if c + 1 < grid_cols:
            edge_pairs.append((i, i + 1))
        if r + 1 < grid_rows:
            edge_pairs.append((i, i + grid_cols))
    jitter = rng.uniform(0.95, 1.10, size=len(edge_pairs))
    edges = tuple(
        Edge(node_ids[a], node_ids[b], round(spacing_m * jitter[k], 3))
        for k, (a, b) in enumerate(edge_pairs)
    )
    network = RoadNetwork(nodes, edges)

    # population density: a constant floor plus a few gaussian blobs
    n_blobs = 3
    blob_r = rng.uniform(0, grid_rows - 1, size=n_blobs)
    blob_c = rng.uniform(0, grid_cols - 1, size=n_blobs)
    blob_sigma = rng.uniform(0.12, 0.30, size=n_blobs) * max(grid_rows, grid_cols)
    blob_amp = rng.uniform(0.5, 1.5, size=n_blobs)
    density = np.full(n_nodes, 0.15)
    for b in range(n_blobs):
        d2 = (rows - blob_r[b]) ** 2 + (cols - blob_c[b]) ** 2
        density = density + blob_amp[b] * np.exp(-d2 / (2 * blob_sigma[b] ** 2))
    noise = rng.uniform(0.7, 1.3, size=n_nodes)
    base_pop = np.rint(density * noise * _POP_FACTOR * population_scale).astype(int)

    group_pops = [base_pop]
    for _ in groups[1:]:
        frac = rng.uniform(0.12, 0.25, size=n_nodes)
        group_pops.append(np.rint(base_pop * frac).astype(int))

    demands = tuple(
        DemandPoint(
            f"d{i:0{width}d}",
            nodes[node_ids[i]],
            {g.name: int(group_pops[k][i]) for k, g in enumerate(groups)},
        )
        for i in range(n_nodes)
    )

    # existing sites cluster where the population is thinnest, so the
    # baseline layout leaves the dense areas under-served
    site_nodes: list[int] = []
    if n_existing > 0:
        margin = min(2, (min(grid_rows, grid_cols) - 1) // 2)
        interior = (
            (rows >= margin) & (rows < grid_rows - margin)
            & (cols >= margin) & (cols < grid_cols - margin)
        )
        anchor = int(np.argmin(np.where(interior, density, np.inf)))
        cluster_sigma = max(1.2, 0.08 * max(grid_rows, grid_cols))
        w = np.exp(-((rows - rows[anchor]) ** 2 + (cols - cols[anchor]) ** 2)
                   / (2 * cluster_sigma**2))
        p = w / w.sum()
        site_nodes = [int(i) for i in
                      rng.choice(n_nodes, size=n_existing, replace=False, p=p)]

    # candidate placement, two-phase greedy over walking reach:
    # first bring every populated node within reach of some site, then pile
    # the remaining slots where the most not-yet-absorbed population lives;
    # the placement radius is deliberately tighter than the walk limit so
    # covered points keep a useful decay weight, not a near-zero one
    reach = max(1, int(_SITE_REACH_FACTOR * groups[0].max_walk_m / (spacing_m * 1.05)))
    manhattan = np.abs(rows[:, None] - rows[None, :]) + np.abs(cols[:, None] - cols[None, :])
    in_reach = manhattan <= reach
    taken = np.zeros(n_nodes, dtype=bool)
    taken[site_nodes] = True
    covered = np.zeros(n_nodes, dtype=bool)
    unserved = base_pop.astype(float)

    def absorb(node: int) -> None:
        within = in_reach[node]
        total = unserved[within].sum()
        if total > 0:
            unserved[within] *= max(0.0, 1.0 - capacity / total)

    for i in site_nodes:
        covered |= in_reach[i]
        absorb(i)
    positive = base_pop > 0
    for _ in range(n_candidate):
        uncovered = positive & ~covered
        if uncovered.any():
            scores = in_reach @ (base_pop * uncovered).astype(float)
        else:
            scores = in_reach @ unserved
        pick = int(np.argmax(np.where(taken, -np.inf, scores)))
        taken[pick] = True
        site_nodes.append(pick)
        covered |= in_reach[pick]
        absorb(pick)

    site_width = max(3, len(str(max(n_existing + n_candidate - 1, 0))))
    sites = tuple(
        FacilitySite(
            f"s{k:0{site_width}d}",
            nodes[node_ids[site_nodes[k]]],
            EXISTING if k < n_existing else CANDIDATE,
            capacity,
        )
        for k in range(n_existing + n_candidate)
    )

    return Scenario(network=network, demands=demands, sites=sites, groups=tuple(groups))
