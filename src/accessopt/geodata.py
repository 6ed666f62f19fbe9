"""Input datasets: road network, demand points, facility sites, population groups.

Everything downstream (routing, scoring, optimization) consumes the immutable
``Scenario`` built here, either parsed from a CSV bundle or synthesized
deterministically from a seed.

Every CSV crosses the boundary through one function each way.  ``read_csv``
checks the header, parses the cells a column at a time and builds one value
per row; every error it raises names the file and, past the header, the
line, and is the error a row-at-a-time reader would meet first.
``write_csv`` writes every CSV of the package, the command line's outputs
included, and quotes only cells that need it.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import MISSING, FrozenInstanceError, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

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


def _check_positive(value, what: str, *names) -> None:
    """Refuse ``value`` unless it is finite and > 0; ``what.format(*names)``
    names it, formatted only for the refusal."""
    if not (value > 0 and math.isfinite(value)):
        raise ValidationError(
            f"{what.format(*names)} must be finite and > 0, got {_shown(value)}")


EXISTING = "existing"
CANDIDATE = "candidate"
_STATUSES = (EXISTING, CANDIDATE)

DEFAULT_CAPACITY = 1500.0


_set = object.__setattr__


class _Record:
    """The methods of a frozen dataclass, written once for every record.

    ``dataclass`` generates them for each class by ``exec`` at import, about
    1 ms a class; a record declared ``@dataclass(init=False, repr=False,
    eq=False)`` gets none and inherits these.  They take the fields in the
    order of ``__match_args__``, which holds every field, as no record has a
    keyword-only or non-init field or a default factory.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        """Bind the arguments to the fields in order, fill in the defaults,
        then run ``__post_init__``."""
        names, where = self.__match_args__, f"{type(self).__qualname__}.__init__()"
        if len(args) > len(names):
            raise TypeError(f"{where} takes {len(names)} arguments, not {len(args)}")
        for name, value in zip(names, args):
            if name in kwargs:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
            _set(self, name, value)
        for name in names[len(args):]:
            value = kwargs.pop(name, self.__dataclass_fields__[name].default)
            if value is MISSING:
                raise TypeError(f"{where} missing required argument {name!r}")
            _set(self, name, value)
        if kwargs:
            raise TypeError(f"{where} got an unexpected keyword argument {next(iter(kwargs))!r}")
        self.__post_init__()

    def __post_init__(self):
        """Check and convert the fields: nothing to do unless overridden."""

    def __repr__(self):
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self):
        return hash(self.__getstate__())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    # the fields' values in order, which a pickle or copy restores past the
    # refusing ``__setattr__``
    def __getstate__(self):
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setstate__(self, state):
        for name, value in zip(self.__match_args__, state):
            _set(self, name, value)


# A city holds one of each of these records per node, edge, demand point or
# site, so they keep their fields in slots, with no ``__dict__`` each, and
# check them in an ``__init__`` of their own: the shared one would make
# reading a city's bundle about a third slower.
@dataclass(init=False, repr=False, eq=False, slots=True)
class Coordinate(_Record):
    """WGS84 position in decimal degrees."""

    lon: float
    lat: float

    def __init__(self, lon: float, lat: float):
        if not -180.0 <= lon <= 180.0:
            raise ValidationError(f"lon {_shown(lon)} outside [-180, 180]")
        if not -90.0 <= lat <= 90.0:
            raise ValidationError(f"lat {_shown(lat)} outside [-90, 90]")
        _set(self, "lon", lon)
        _set(self, "lat", lat)


@dataclass(init=False, repr=False, eq=False, slots=True)
class Edge(_Record):
    """A road segment of ``length_m`` metres between two node ids."""

    from_id: str
    to_id: str
    length_m: float
    bidirectional: bool = True

    def __init__(self, from_id: str, to_id: str, length_m: float, bidirectional: bool = True):
        _check_positive(length_m, "edge {}->{}: length_m", from_id, to_id)
        _set(self, "from_id", from_id)
        _set(self, "to_id", to_id)
        _set(self, "length_m", length_m)
        _set(self, "bidirectional", bidirectional)


@dataclass(init=False, repr=False, eq=False)
class RoadNetwork(_Record):
    """Weighted graph of road segments; bidirectional edges walk both ways."""

    nodes: dict[str, Coordinate]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", dict(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        clash = _first_clash(self.edges, self.nodes)
        if clash is not None:
            raise clash[1]

    @classmethod
    def _claimed(cls, nodes: dict[str, Coordinate], edges: tuple[Edge, ...]) -> RoadNetwork:
        """The network of ``edges`` that ``_first_clash`` has already
        accepted against ``nodes``; they are not checked again."""
        network = object.__new__(cls)
        object.__setattr__(network, "nodes", nodes)
        object.__setattr__(network, "edges", edges)
        return network


def _claim_edge(edge: Edge, nodes, occupied: set[tuple[str, str]]) -> None:
    """Add the directed pairs ``edge`` runs along to ``occupied``; refuse an
    endpoint missing from ``nodes`` or a pair already taken."""
    for nid in (edge.from_id, edge.to_id):
        if nid not in nodes:
            raise ValidationError(
                f"edge {edge.from_id}->{edge.to_id} references unknown node '{nid}'"
            )
    forward = (edge.from_id, edge.to_id)
    pairs = (forward, forward[::-1]) if edge.bidirectional else (forward,)
    for pair in pairs:
        if pair in occupied:
            raise ValidationError(f"duplicate edge {pair[0]}->{pair[1]}")
    occupied.update(pairs)


def _first_clash(edges: Sequence[Edge], nodes) -> tuple[int, ValidationError] | None:
    """The index of the first of ``edges`` that ``_claim_edge`` refuses when
    they are claimed in order, and its error; ``None`` if it refuses none."""
    ends = {e.from_id for e in edges}
    ends.update(e.to_id for e in edges)
    pairs = [(e.from_id, e.to_id) for e in edges]
    pairs += [(e.to_id, e.from_id) for e in edges if e.bidirectional]
    if nodes.keys() >= ends and len(set(pairs)) == len(pairs):
        return None
    occupied: set[tuple[str, str]] = set()
    for i, e in enumerate(edges):
        try:
            _claim_edge(e, nodes, occupied)
        except ValidationError as exc:
            return i, exc
    return None


def _first_repeat(ids: Sequence[str], label: str) -> tuple[int, ValidationError] | None:
    """The index of the first of ``ids`` that repeats an earlier one, and its
    error; ``None`` if none repeats."""
    seen: set[str] = set()
    for i, value in enumerate(ids):
        if value in seen:
            return i, ValidationError(f"duplicate {label} '{value}'")
        seen.add(value)
    return None


@dataclass(init=False, repr=False, eq=False)
class PopulationGroup(_Record):
    """Walking profile for one slice of the population."""

    name: str
    walk_speed_m_per_min: float
    max_walk_m: float

    def __post_init__(self):
        if not self.name:
            raise ValidationError("group name must be non-empty")
        _check_positive(self.walk_speed_m_per_min, "group '{}': walk speed", self.name)
        _check_positive(self.max_walk_m, "group '{}': max walk distance", self.name)
        # the quotient of two finite positives may still overflow or underflow
        _check_positive(self.t_sigma_min, "group '{}': travel-time threshold "
                                          "(max walk / walk speed)", self.name)

    @property
    def t_sigma_min(self) -> float:
        """Travel-time threshold: the group's maximum walk at its own speed."""
        # Python floats: a numpy quotient would warn before the refusal
        return float(self.max_walk_m) / float(self.walk_speed_m_per_min)


DEFAULT_GROUPS = (
    PopulationGroup("general", walk_speed_m_per_min=80.0, max_walk_m=700.0),
    PopulationGroup("elderly", walk_speed_m_per_min=70.0, max_walk_m=700.0),
)


@dataclass(init=False, repr=False, eq=False, slots=True)
class DemandPoint(_Record):
    """A place where people live: its population per group name."""

    demand_id: str
    location: Coordinate
    population: Mapping[str, int]

    def __init__(self, demand_id: str, location: Coordinate, population: Mapping[str, int]):
        coerced: dict[str, int] = {}
        for group, count in dict(population).items():
            try:
                value = operator.index(count)
            except TypeError:
                raise ValidationError(
                    f"demand '{demand_id}': population[{group!r}] must be an "
                    f"integer, got {_shown(count)}"
                ) from None
            if value < 0:
                raise ValidationError(
                    f"demand '{demand_id}': population[{group!r}] must be "
                    f"non-negative, got {value}"
                )
            coerced[str(group)] = value
        _set(self, "demand_id", demand_id)
        _set(self, "location", location)
        _set(self, "population", coerced)

    def pop_of(self, group: str) -> int:
        return self.population.get(group, 0)

    @property
    def total_population(self) -> int:
        return sum(self.population.values())

    @property
    def inert(self) -> bool:
        """No population of any group lives here; never binds a constraint."""
        return self.total_population == 0


@dataclass(init=False, repr=False, eq=False, slots=True)
class FacilitySite(_Record):
    """A facility, existing or candidate, and the population it can serve."""

    site_id: str
    location: Coordinate
    status: str
    capacity: float = DEFAULT_CAPACITY

    def __init__(self, site_id: str, location: Coordinate, status: str,
                 capacity: float = DEFAULT_CAPACITY):
        if status not in _STATUSES:
            raise ValidationError(
                f"site '{site_id}': unknown status '{status}' "
                f"(expected one of {', '.join(_STATUSES)})"
            )
        _check_positive(capacity, "site '{}': capacity", site_id)
        _set(self, "site_id", site_id)
        _set(self, "location", location)
        _set(self, "status", status)
        _set(self, "capacity", capacity)

    @property
    def existing(self) -> bool:
        return self.status == EXISTING


@dataclass(init=False, repr=False, eq=False)
class Scenario(_Record):
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
            repeat = _first_repeat(ids, label)
            if repeat is not None:
                raise repeat[1]
        names = {g.name for g in self.groups}
        for d in self.demands:
            if not names.issuperset(d.population):
                unknown = sorted(set(d.population) - names)
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

    def total_population(self, group: str) -> int:
        return sum(d.pop_of(group) for d in self.demands)


# ---------------------------------------------------------------------------
# CSV reading and writing
# ---------------------------------------------------------------------------

def read_csv(path, columns: Mapping[str, Callable[[str, str], Any]], build,
             check: Callable[[list], tuple[int, InputError] | None] = lambda built: None,
             ) -> list:
    """One ``build(*cells)`` per data row of the CSV at ``path``.

    ``columns`` maps each required header name to a cell parser, called as
    ``parse(raw, column)``; the cells reach ``build`` in the order of
    ``columns``.  Of a column named twice the last is read; other columns
    are ignored, blank lines skipped, and a short row reads as blank cells.
    A leading UTF-8 byte order mark is skipped.  A missing column raises
    ``SchemaError``; an ``InputError`` from a row comes out with
    ``path:line:`` in front.  ``check`` returns the index and error of the
    first built value it refuses against the values before it, or ``None``.
    A byte that is not UTF-8, or a row that cannot be split, raises a
    ``ParseError`` that names its line, after the errors of the rows before.

    One fast pass parses each column at once (see ``_COLUMN_FORMS``),
    builds and checks.  When anything in it fails, a replay row by row
    raises the first error, so ``build`` must not depend on earlier calls.
    """
    rows: list[list[str]] = []
    lines: list[int] = []
    header, end, unread = [], 0, None  # unread: a later row's ParseError, raised last
    reader = csv.reader(_utf8_lines(path))
    try:
        header = next(reader, [])
        width, end = len(header), reader.line_num
        for row in reader:
            if row:
                if len(row) < width:
                    row += [""] * (width - len(row))
                rows.append(row)
                lines.append(reader.line_num)
            end = reader.line_num
    except csv.Error as exc:
        unread = ParseError(f"{path}:{end + 1}: cannot split the row: {exc}")
    except ParseError as exc:
        unread = exc
    if unread is not None and not header:
        raise unread
    missing = [name for name in columns if name not in header]
    if missing:
        raise SchemaError(f"{path}: missing column(s): {', '.join(missing)}")
    position = {name: i for i, name in enumerate(header)}
    cells = [(position[name], name, parse) for name, parse in columns.items()]
    try:
        parsed = []
        for i, name, parse in cells:
            column = list(map(operator.itemgetter(i), rows))
            whole = _COLUMN_FORMS.get(parse)
            parsed.append(whole(column) if whole else [parse(raw, name) for raw in column])
        built = list(map(build, *parsed))
        failed = check(built) is not None
    except ValueError:  # an InputError too
        failed = True
    if failed:
        built, bad = [], None
        for row in rows:
            try:
                built.append(build(*[parse(row[i], name) for i, name, parse in cells]))
            except InputError as exc:
                bad = (len(built), exc)
                break
        # it sees only the rows built before ``bad``, so its refusal comes first
        bad = check(built) or bad
        if bad is not None:
            index, exc = bad
            raise type(exc)(f"{path}:{lines[index]}: {exc}") from None
    if unread is not None:
        raise unread
    return built


def _utf8_lines(path) -> Iterator[str]:
    """The lines of ``path``, a leading byte order mark skipped.  A byte that
    is not UTF-8 raises a ``ParseError`` naming its line after the lines before."""
    n = 0
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for n, line in enumerate(fh, 1):
                yield line
    except UnicodeDecodeError:
        # the decoder reads ahead: find the byte in the file, and the lines before
        data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = io.StringIO(data[:exc.start].decode("utf-8"), newline="").readlines()
            if before and not before[-1].endswith(("\n", "\r")):
                before.pop()  # the start of the line that holds the byte
            yield from before[n:]
            raise ParseError(f"{path}:{len(before) + 1}: cannot decode byte "
                             f"0x{data[exc.start]:02x} as UTF-8 ({exc.reason})") from None
        raise


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


def _ids(cells: list[str]) -> list[str]:
    values = list(map(str.strip, cells))
    if not all(values):
        raise ValueError("empty id")
    return values


def _directions(cells: list[str]) -> list[bool]:
    tokens = list(map(str.strip, cells))
    if not {"", "0", "1"}.issuperset(tokens):
        raise ValueError("bad direction")
    return [token != "0" for token in tokens]


# each cell parser's whole-column form: the same values, or a ValueError
# somewhere, upon which ``read_csv`` replays the rows one at a time
_COLUMN_FORMS: dict[Callable, Callable[[list[str]], list]] = {
    _text: lambda cells: list(map(str.strip, cells)),
    _id: _ids,
    _number: lambda cells: list(map(float, cells)),
    _count: lambda cells: list(map(int, cells)),
    _direction: _directions,
}


def parse_network(nodes_path, edges_path) -> RoadNetwork:
    """Read the node and edge CSVs into a validated road network."""
    nodes = dict(read_csv(
        nodes_path, {"node_id": _id, "lon": _number, "lat": _number},
        lambda nid, lon, lat: (nid, Coordinate(lon, lat)),
        check=lambda built: _first_repeat([nid for nid, _ in built], "node_id")))
    # each edge end is the node table's own id string, not a copy of it; an
    # unknown id is kept as read, for ``_first_clash`` to name
    own = {nid: nid for nid in nodes}
    edges = read_csv(edges_path, {"from_id": _text, "to_id": _text, "length_m": _number,
                                  "bidirectional": _direction},
                     lambda a, b, *rest: Edge(own.get(a, a), own.get(b, b), *rest),
                     check=lambda built: _first_clash(built, nodes))
    return RoadNetwork._claimed(nodes, tuple(edges))


def parse_demand(path, groups: Sequence[PopulationGroup]) -> list[DemandPoint]:
    """Read demand points; one ``pop_<group>`` column per declared group."""
    names = [g.name for g in groups]
    columns = {"demand_id": _id, "lon": _number, "lat": _number}
    columns.update((f"pop_{name}", _count) for name in names)
    return read_csv(
        path, columns,
        lambda did, lon, lat, *counts: DemandPoint(did, Coordinate(lon, lat),
                                                   dict(zip(names, counts))),
        check=lambda built: _first_repeat([d.demand_id for d in built], "demand_id"))


def parse_sites(path, default_capacity: float = DEFAULT_CAPACITY) -> list[FacilitySite]:
    """Read facility sites; a blank capacity cell falls back to the default."""

    def capacity(raw: str, column: str) -> float:
        raw = raw.strip()
        return _number(raw, column) if raw else default_capacity

    return read_csv(
        path, {"site_id": _id, "lon": _number, "lat": _number, "status": _text,
               "capacity": capacity},
        lambda sid, lon, lat, *rest: FacilitySite(sid, Coordinate(lon, lat), *rest),
        check=lambda built: _first_repeat([s.site_id for s in built], "site_id"))


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


def _candidate_picks(base_pop: np.ndarray, existing: Sequence[int], n_candidate: int,
                     reach: int, capacity: float) -> Iterator[tuple[np.ndarray, int]]:
    """``generate_synthetic_scenario``'s placement greedy: each step's scores
    and pick, ``(sums, pick)``, after the existing sites at flat indices
    ``existing``.  ``base_pop`` is the grid of the base population; the next
    step overwrites ``sums``.

    A pick changes ``covered`` and ``unserved`` only within ``reach`` of
    it, so the scores only within ``2 * reach`` rows of it: the next step
    rescores only those rows.  The first step, and the first after the
    phase turns, rescore every row.
    """
    grid_rows, grid_cols = base_pop.shape
    dr_max, dc_max = min(reach, grid_rows - 1), min(reach, grid_cols - 1)
    # the values row after row, each row followed by dc_max zeros and all of
    # them framed by dr_max rows of zeros, so that each stencil offset is
    # one shift of the flat array.  An offset that leaves the grid adds a
    # zero, and adding +0.0 leaves a sum of nonnegative values as it is.
    stride = grid_cols + dc_max
    origin = dr_max * stride + dc_max
    framed = np.zeros((grid_rows + 2 * dr_max) * stride + 2 * dc_max)
    flat_sums = np.zeros(grid_rows * stride)
    grid, sums = (a.reshape(grid_rows, stride)[:, :grid_cols]
                  for a in (framed[origin:origin + flat_sums.size], flat_sums))
    shifts = [origin + dr * stride + dc for dr in range(-dr_max, dr_max + 1)
              for dc in range(-min(reach - abs(dr), dc_max), min(reach - abs(dr), dc_max) + 1)]
    # whether each (dr, dc) of the box around a node is within reach of it
    diamond = np.add.outer(np.abs(np.arange(-dr_max, dr_max + 1)),
                           np.abs(np.arange(-dc_max, dc_max + 1))) <= reach

    taken = np.zeros(base_pop.shape, dtype=bool)
    taken.flat[existing] = True
    covered = np.zeros(base_pop.shape, dtype=bool)
    unserved = base_pop.astype(float)

    def place(node: int) -> tuple[tuple[slice, slice], np.ndarray]:
        """Cover the nodes within reach of ``node``; absorb up to ``capacity``
        of their unserved population.  Returns their box and mask in it."""
        r, c = divmod(node, grid_cols)
        r0, r1 = max(0, r - dr_max), min(grid_rows, r + dr_max + 1)
        c0, c1 = max(0, c - dc_max), min(grid_cols, c + dc_max + 1)
        box = np.s_[r0:r1, c0:c1]
        within = diamond[r0 - r + dr_max:r1 - r + dr_max, c0 - c + dc_max:c1 - c + dc_max]
        covered[box][within] = True
        total = unserved[box][within].sum()
        if total > 0:
            unserved[box][within] *= max(0.0, 1.0 - capacity / total)
        return box, within

    for node in existing:
        place(node)
    grid[...] = np.where(covered, 0.0, base_pop)  # the uncovered population
    uncovered = np.count_nonzero(grid)
    if not uncovered:
        grid[...] = unserved
    first, last = 0, grid_rows  # the rows to rescore
    for _ in range(n_candidate):
        target = flat_sums[first * stride:last * stride]
        target.fill(0.0)
        for shift in shifts:
            target += framed[first * stride + shift:last * stride + shift]
        pick = int(np.argmax(np.where(taken, -np.inf, sums)))
        yield sums, pick
        taken.flat[pick] = True
        box, within = place(pick)
        values = grid[box]
        if not uncovered:
            values[...] = unserved[box]
        else:
            uncovered -= np.count_nonzero(values[within])
            values[within] = 0.0
            if not uncovered:  # the phase turns
                grid[...] = unserved
                first, last = 0, grid_rows
                continue
        r = pick // grid_cols
        first, last = max(0, r - 2 * dr_max), min(grid_rows, r + 2 * dr_max + 1)


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
    a random fraction of it per point.  ``seeded.Stream`` draws the numbers
    ``numpy.random.default_rng(seed)`` would.

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
    (2 * grid_cols - 1)`` offsets however small ``spacing_m`` is.  An
    offset that leaves the grid adds +0.0, which leaves the bits as they
    are.  Covering and absorbing take the pick's Manhattan mask, within its
    box.  A pick changes the scores only within ``2 * reach`` rows of it,
    so a step rescores only those rows, each offset one numpy addition
    over them: O(cols * reach**3) arithmetic, O(N**2) at most, besides the
    O(N) ``argmax`` for N grid nodes.  The first step, and the first after
    the phase turns, rescore every row.  The placement holds O(N) memory.

    A negative seed, a ``spacing_m`` so small that an edge length would round
    to 0 m, or one so large that the grid would pass lon 180 or lat 90, is
    refused before any work.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
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
    _check_positive(spacing_m, "spacing_m")
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
    d_lat = spacing_m / _M_PER_DEG_LAT
    d_lon = spacing_m / (_M_PER_DEG_LAT * math.cos(math.radians(_BASE_LAT)))
    if (_BASE_LON + (grid_cols - 1) * d_lon > 180.0
            or _BASE_LAT + (grid_rows - 1) * d_lat > 90.0):
        raise ValidationError(
            f"spacing_m {_shown(spacing_m)} is too large for a {grid_rows}x{grid_cols} "
            "grid: its far corner would pass lon 180 or lat 90"
        )

    from .seeded import Stream

    rng = Stream(seed)
    width = max(4, len(str(n_nodes - 1)))
    rows, cols = np.divmod(np.arange(n_nodes), grid_cols)
    node_ids = [f"n{i:0{width}d}" for i in range(n_nodes)]
    nodes = {
        nid: Coordinate(_BASE_LON + c * d_lon, _BASE_LAT + r * d_lat)
        for nid, r, c in zip(node_ids, rows.tolist(), cols.tolist())
    }

    edge_pairs: list[tuple[int, int]] = []
    for i in range(n_nodes):
        r, c = divmod(i, grid_cols)
        if c + 1 < grid_cols:
            edge_pairs.append((i, i + 1))
        if r + 1 < grid_rows:
            edge_pairs.append((i, i + grid_cols))
    jitter = rng.uniform(*_JITTER, size=len(edge_pairs)).tolist()
    edges = tuple(
        Edge(node_ids[a], node_ids[b], round(spacing_m * j, _LENGTH_DECIMALS))
        for (a, b), j in zip(edge_pairs, jitter)
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
    with np.errstate(over="ignore"):
        base_pop = np.rint(density * noise * _POP_FACTOR * population_scale)
    # under 2**63 every count fits int64 (the built-in max: numpy's first
    # ``max`` raised synth's peak RSS 0.08-0.1 MB)
    if not max(base_pop) < 2.0**63:
        raise ValidationError(f"population_scale {_shown(population_scale)} is too large: "
                              "a node's population would reach 2**63")
    base_pop = base_pop.astype(int)

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
        site_nodes = rng.choice(n_nodes, n_existing, p)

    # candidate placement, two-phase greedy over walking reach:
    # first bring every populated node within reach of some site, then pile
    # the remaining slots where the most not-yet-absorbed population lives;
    # the placement radius is deliberately tighter than the walk limit so
    # covered points keep a useful decay weight, not a near-zero one
    reach = max(1, int(_SITE_REACH_FACTOR * groups[0].max_walk_m / (spacing_m * 1.05)))
    site_nodes += [pick for _, pick in _candidate_picks(
        base_pop.reshape(grid_rows, grid_cols), site_nodes, n_candidate, reach, capacity)]

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
