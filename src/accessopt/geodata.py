"""Input datasets: road network, demand points, facility sites, population groups.

Everything downstream (routing, scoring, optimization) consumes the immutable
``Scenario`` built here, either parsed from a CSV bundle or synthesized
deterministically from a seed.

Every CSV crosses the boundary through one function each way.  ``read_csv``
checks the header, parses each cell by its column and builds one value per
row; every error it raises names the file and, past the header, the line.
``write_csv`` writes every CSV of the package, the command line's outputs
included, and quotes only cells that need it.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np


class InputError(ValueError):
    """Base class for all input-data failures."""


class ParseError(InputError):
    """A cell could not be read; the message carries file and line."""


class SchemaError(InputError):
    """A file header does not match the expected column schema."""


class ValidationError(InputError):
    """A parsed value violates a data invariant."""


def _shown(value) -> str:
    """``value`` as a message shows it: a numpy scalar as its Python value."""
    return repr(value.item() if isinstance(value, np.generic) else value)


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
            raise ValidationError(f"lon {_shown(self.lon)} outside [-180, 180]")
        if not -90.0 <= self.lat <= 90.0:
            raise ValidationError(f"lat {_shown(self.lat)} outside [-90, 90]")


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
                f"got {_shown(self.length_m)}"
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
            _claim_pairs(e, occupied)


def _claim_pairs(edge: Edge, occupied: set[tuple[str, str]]) -> None:
    """Add the directed pairs ``edge`` runs along; refuse one already taken."""
    forward = (edge.from_id, edge.to_id)
    pairs = (forward, forward[::-1]) if edge.bidirectional else (forward,)
    for pair in pairs:
        if pair in occupied:
            raise ValidationError(f"duplicate edge {pair[0]}->{pair[1]}")
    occupied.update(pairs)


def _claim_id(seen: set[str], label: str, value: str) -> None:
    """Add ``value`` to ``seen``; refuse it if it is there already."""
    if value in seen:
        raise ValidationError(f"duplicate {label} '{value}'")
    seen.add(value)


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
                f"got {_shown(self.walk_speed_m_per_min)}"
            )
        if not (self.max_walk_m > 0 and math.isfinite(self.max_walk_m)):
            raise ValidationError(
                f"group '{self.name}': max walk distance must be finite and > 0, "
                f"got {_shown(self.max_walk_m)}"
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
                    f"integer, got {_shown(count)}"
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
                f"got {_shown(self.capacity)}"
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
                _claim_id(seen, label, value)
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
# CSV reading and writing
# ---------------------------------------------------------------------------

def read_csv(path, columns: Mapping[str, Callable[[str, str], Any]], build) -> list:
    """One ``build(*cells)`` per data row of the CSV at ``path``.

    ``columns`` maps each required header name to a cell parser, called as
    ``parse(raw, column)``; the cells reach ``build`` in the order of
    ``columns``, whatever the file's column order.  Other columns are
    ignored, blank lines skipped, and a short row reads as blank cells.  A
    missing column raises ``SchemaError``; any ``InputError`` raised while a
    row is parsed or built comes out with ``path:line:`` in front.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [name for name in columns if name not in header]
        if missing:
            raise SchemaError(f"{path}: missing column(s): {', '.join(missing)}")
        position = {name: i for i, name in enumerate(header)}
        cells = [(position[name], name, parse) for name, parse in columns.items()]
        width = len(header)
        rows = []
        for row in reader:
            if not row:
                continue
            row += [""] * (width - len(row))
            try:
                rows.append(build(*[parse(row[i], name) for i, name, parse in cells]))
            except InputError as exc:
                raise type(exc)(f"{path}:{reader.line_num}: {exc}") from None
    return rows


def _text(raw: str, column: str) -> str:
    return raw.strip()


def _id(raw: str, column: str) -> str:
    value = raw.strip()
    if not value:
        raise ParseError(f"empty {column}")
    return value


def _number(raw: str, column: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"column '{column}': cannot parse number from {raw!r}") from None


def _count(raw: str, column: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"column '{column}': cannot parse integer from {raw!r}") from None


def _direction(raw: str, column: str) -> bool:
    token = raw.strip()
    if token not in ("", "0", "1"):
        raise ParseError(f"column '{column}': expected 0, 1 or blank, got {token!r}")
    return token != "0"


def parse_network(nodes_path, edges_path) -> RoadNetwork:
    """Read the node and edge CSVs into a validated road network."""
    nodes: dict[str, Coordinate] = {}
    occupied: set[tuple[str, str]] = set()

    def node(nid: str, lon: float, lat: float) -> None:
        if nid in nodes:
            raise ValidationError(f"duplicate node_id '{nid}'")
        nodes[nid] = Coordinate(lon, lat)

    def edge(from_id: str, to_id: str, length_m: float, bidirectional: bool) -> Edge:
        for nid in (from_id, to_id):
            if nid not in nodes:
                raise ValidationError(f"unknown node '{nid}'")
        built = Edge(from_id, to_id, length_m, bidirectional)
        _claim_pairs(built, occupied)
        return built

    read_csv(nodes_path, {"node_id": _id, "lon": _number, "lat": _number}, node)
    edges = read_csv(edges_path, {"from_id": _text, "to_id": _text, "length_m": _number,
                                  "bidirectional": _direction}, edge)
    return RoadNetwork(nodes, tuple(edges))


def parse_demand(path, groups: Sequence[PopulationGroup]) -> list[DemandPoint]:
    """Read demand points; one ``pop_<group>`` column per declared group."""
    names = [g.name for g in groups]
    seen: set[str] = set()

    def demand(did: str, lon: float, lat: float, *counts: int) -> DemandPoint:
        _claim_id(seen, "demand_id", did)
        return DemandPoint(did, Coordinate(lon, lat), dict(zip(names, counts)))

    columns = {"demand_id": _id, "lon": _number, "lat": _number}
    columns.update((f"pop_{name}", _count) for name in names)
    return read_csv(path, columns, demand)


def parse_sites(path, default_capacity: float = DEFAULT_CAPACITY) -> list[FacilitySite]:
    """Read facility sites; a blank capacity cell falls back to the default."""
    seen: set[str] = set()

    def site(sid: str, lon: float, lat: float, status: str, capacity: str) -> FacilitySite:
        _claim_id(seen, "site_id", sid)
        capacity = _number(capacity, "capacity") if capacity else default_capacity
        return FacilitySite(sid, Coordinate(lon, lat), status, capacity)

    return read_csv(path, {"site_id": _id, "lon": _number, "lat": _number,
                           "status": _text, "capacity": _text}, site)


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


def format_number(x: float) -> str:
    """Shortest exact decimal form; integral values drop the trailing ``.0``."""
    value = float(x)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then ``rows`` as UTF-8 CSV with ``\\n`` line ends.

    Every CSV the package writes goes through here.  Floats are written by
    ``format_number``, other cells by ``str``.  A cell holding a comma, a
    double quote or a line break is quoted, with its quotes doubled
    (``a,"b`` comes out as ``"a,""b"``), so every id reads back as written.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_number(c) if isinstance(c, float) else c for c in row])


def write_network(network: RoadNetwork, nodes_path, edges_path) -> None:
    write_csv(nodes_path, ("node_id", "lon", "lat"),
              ((nid, c.lon, c.lat) for nid, c in network.nodes.items()))
    write_csv(edges_path, ("from_id", "to_id", "length_m", "bidirectional"),
              ((e.from_id, e.to_id, e.length_m, int(e.bidirectional)) for e in network.edges))


def write_demand(demands: Iterable[DemandPoint], path,
                 groups: Sequence[PopulationGroup]) -> None:
    write_csv(path, ("demand_id", "lon", "lat", *(f"pop_{g.name}" for g in groups)), (
        (d.demand_id, d.location.lon, d.location.lat, *(d.pop_of(g.name) for g in groups))
        for d in demands
    ))


def write_sites(sites: Iterable[FacilitySite], path) -> None:
    write_csv(path, ("site_id", "lon", "lat", "status", "capacity"), (
        (s.site_id, s.location.lon, s.location.lat, s.status, s.capacity) for s in sites
    ))


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
_JITTER = (0.95, 1.10)  # edge length / spacing_m, drawn uniformly
_LENGTH_DECIMALS = 3


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

    A site reaches the grid nodes within ``reach`` steps of it in Manhattan
    distance; ``reach`` comes from the first group's walk limit.  Each
    placement step scores every node with a diamond stencil: starting from
    0, node ``(r, c)`` adds the value at ``(r + dr, c + dc)`` for every
    offset with ``|dr| + |dc| <= reach``, one offset after another in
    ascending ``dr``, then ``dc``, which is ascending node index.  That
    order fixes the bits of the float scores: two nodes that reach the same
    nonzero values get the same bits, and an exact tie goes to the lower
    index.  The stencil is clamped to the grid, ``|dr| < grid_rows`` and
    ``|dc| < grid_cols``.  This is exact, as no offset beyond it lands on a
    node, and it keeps the stencil within ``(2 * grid_rows - 1) *
    (2 * grid_cols - 1)`` offsets however small ``spacing_m`` is.  Each
    offset adds only the nodes it lands on.  Covering and absorbing take
    one node's Manhattan mask.  A step costs one numpy addition per offset,
    O(N * reach**2) arithmetic in all and never more than N**2, and the
    placement holds O(N) memory for N grid nodes.

    A ``spacing_m`` so small that an edge length would round to 0 m is
    refused before any work.
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
    if not (spacing_m > 0 and math.isfinite(spacing_m)):
        raise ValidationError(f"spacing_m must be finite and > 0, got {_shown(spacing_m)}")
    if round(spacing_m * _JITTER[0], _LENGTH_DECIMALS) <= 0:
        raise ValidationError(
            f"spacing_m {_shown(spacing_m)} is too small: edge lengths are "
            f"{_JITTER[0]}-{_JITTER[1]} times spacing_m rounded to "
            f"{_LENGTH_DECIMALS} decimals, and the shortest would be 0 m"
        )
    if not (population_scale >= 0 and math.isfinite(population_scale)):
        raise ValidationError(
            f"population_scale must be finite and >= 0, got {_shown(population_scale)}"
        )

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
    jitter = rng.uniform(*_JITTER, size=len(edge_pairs))
    edges = tuple(
        Edge(node_ids[a], node_ids[b], round(spacing_m * jitter[k], _LENGTH_DECIMALS))
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
    grid = np.zeros((grid_rows, grid_cols))
    sums = np.zeros((grid_rows, grid_cols))
    # one (sums, grid) view pair per offset, in summation order: the nodes
    # (r, c) whose (r + dr, c + dc) is on the grid, and those values
    dr_max = min(reach, grid_rows - 1)
    stencil = [
        (sums[max(0, -dr):grid_rows - max(0, dr), max(0, -dc):grid_cols - max(0, dc)],
         grid[max(0, dr):grid_rows - max(0, -dr), max(0, dc):grid_cols - max(0, -dc)])
        for dr in range(-dr_max, dr_max + 1)
        for dc in range(-min(reach - abs(dr), grid_cols - 1),
                        min(reach - abs(dr), grid_cols - 1) + 1)
    ]

    def reach_sums(values: np.ndarray) -> np.ndarray:
        """Each node's sum of ``values`` over the nodes within reach; the
        next call overwrites it."""
        grid[...] = values.reshape(grid_rows, grid_cols)
        sums.fill(0.0)
        for target, source in stencil:
            target += source
        return sums.ravel()

    taken = np.zeros(n_nodes, dtype=bool)
    taken[site_nodes] = True
    covered = np.zeros(n_nodes, dtype=bool)
    unserved = base_pop.astype(float)

    def place(node: int) -> None:
        """Cover the nodes within reach of ``node``; absorb up to ``capacity``
        of their unserved population."""
        within = np.abs(rows - rows[node]) + np.abs(cols - cols[node]) <= reach
        covered[within] = True
        total = unserved[within].sum()
        if total > 0:
            unserved[within] *= max(0.0, 1.0 - capacity / total)

    for i in site_nodes:
        place(i)
    positive = base_pop > 0
    for _ in range(n_candidate):
        uncovered = positive & ~covered
        if uncovered.any():
            scores = reach_sums((base_pop * uncovered).astype(float))
        else:
            scores = reach_sums(unserved)
        pick = int(np.argmax(np.where(taken, -np.inf, scores)))
        taken[pick] = True
        site_nodes.append(pick)
        place(pick)

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
