"""Snap points onto the road network and derive per-group travel-time matrices.

Distances are exact shortest paths over edge lengths in meters; they are
converted to minutes per population group only afterwards, so one round of
pathfinding serves every group.  Each search stops at the largest walk
limit of the groups its result serves, so its cost follows the walk radius,
not the size of the city.  Distances and minutes are kept in ``SiteMajor``
form, built from each search's settled nodes: a site holds only the demand
points it reaches, so no demand x site array is made.  Snapping looks up
candidate nodes in a lon/lat grid instead of scanning every node.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Sequence

import numpy as np

from .geodata import (
    Coordinate,
    FacilitySite,
    PopulationGroup,
    RoadNetwork,
    Scenario,
    ValidationError,
    write_csv,
)

EARTH_RADIUS_M = 6_371_000.0
UNREACHABLE = float("inf")
DEFAULT_SNAP_WARN_M = 500.0


class SnapDistanceWarning(UserWarning):
    """A point snapped to a node farther away than the configured threshold."""


def great_circle_m(a: Coordinate, b: Coordinate) -> float:
    """Haversine distance in meters on a spherical Earth."""
    lon1, lat1, lon2, lat2 = map(math.radians, (a.lon, a.lat, b.lon, b.lat))
    h = (
        math.sin((lat2 - lat1) / 2) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
    )
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(h))


# Snapping buckets the nodes in a lon/lat grid of about this many nodes per
# cell, and prunes with lower bounds on the distance widened by these slacks:
# the relative one dwarfs the formula's rounding, the absolute one keeps
# neighbours whose distance rounds (or underflows) to exactly 0 m.
_CELL_NODES = 32
_SNAP_RTOL = 1e-9
_SNAP_ATOL_M = 1e-6


def _haversine_m(plon, plat, cos_plat, rlon, rlat, cos_rlat) -> np.ndarray:
    """Great-circle meters from each point (row) to each node (column).

    Each element is computed by the same operations whatever the block it
    sits in, so a block of candidate nodes gives the values a scan of every
    node would.
    """
    h = (
        np.sin((rlat - plat[:, None]) / 2) ** 2
        + cos_plat[:, None] * cos_rlat * np.sin((rlon - plon[:, None]) / 2) ** 2
    )
    return 2 * EARTH_RADIUS_M * np.arcsin(np.sqrt(h))


class _NodeGrid:
    """The network's nodes bucketed in a lon/lat grid for nearest-node queries.

    Nodes are numbered in ascending id order.  Queries are exact: a block of
    cells is searched only once two lower bounds on the great-circle
    distance, d >= R |dlat| and d >= 2R asin(c_min |sin(dlon / 2)|) with
    c_min the least cos(lat) of the nodes and points involved, rule out
    every node outside it.
    """

    def __init__(self, network: RoadNetwork):
        self.ids = sorted(network.nodes)
        self.rlon = np.radians([network.nodes[i].lon for i in self.ids])
        self.rlat = np.radians([network.nodes[i].lat for i in self.ids])
        self.cos_rlat = np.cos(self.rlat)
        self.max_abs_lat = float(np.abs(self.rlat).max())
        self.side = max(1, math.isqrt(len(self.ids) // _CELL_NODES))
        self.lon0 = float(self.rlon.min())
        self.lat0 = float(self.rlat.min())
        self.dlon = (float(self.rlon.max()) - self.lon0) / self.side or 1.0
        self.dlat = (float(self.rlat.max()) - self.lat0) / self.side or 1.0
        self.cells: dict[tuple[int, int], list[int]] = {}
        for k, cell in enumerate(zip(self._row(self.rlat), self._col(self.rlon))):
            self.cells.setdefault(cell, []).append(k)

    def _row(self, rlat) -> list[int]:
        # monotone in rlat, so a latitude band maps onto a range of rows
        rows = np.floor((np.asarray(rlat) - self.lat0) / self.dlat)
        return np.clip(rows, 0, self.side - 1).astype(int).tolist()

    def _col(self, rlon) -> list[int]:
        cols = np.floor((np.asarray(rlon) - self.lon0) / self.dlon)
        return np.clip(cols, 0, self.side - 1).astype(int).tolist()

    def _nodes_in(self, rows, cols) -> np.ndarray:
        """Node numbers, ascending, in a rectangle of cells (clipped to the grid)."""
        nodes = [
            k
            for r in range(max(rows[0], 0), min(rows[1], self.side - 1) + 1)
            for c in range(max(cols[0], 0), min(cols[1], self.side - 1) + 1)
            for k in self.cells.get((r, c), ())
        ]
        return np.array(sorted(nodes), dtype=int)

    def nearest(self, plon, plat, cos_plat) -> tuple[np.ndarray, np.ndarray]:
        """Nearest node number and its distance for each point (radians).

        Ties go to the smallest node id.  Points are batched by the grid
        cell they fall in (points outside the grid by the nearest edge
        cell).
        """
        batches: dict[tuple[int, int], list[int]] = {}
        for i, cell in enumerate(zip(self._row(plat), self._col(plon))):
            batches.setdefault(cell, []).append(i)
        best = np.zeros(len(plon), dtype=int)
        dist = np.zeros(len(plon))
        for (row, col), pts in batches.items():
            g_lon, g_lat, g_cos = plon[pts], plat[pts], cos_plat[pts]
            # an upper bound on every point's nearest distance, from their
            # cell or else the first ring of cells around it that holds a node
            ring = 0
            while not (near := self._nodes_in((row - ring, row + ring),
                                              (col - ring, col + ring))).size:
                ring += 1
            reach = _haversine_m(g_lon, g_lat, g_cos, self.rlon[near],
                                 self.rlat[near], self.cos_rlat[near]).min(axis=1).max()
            reach = reach * (1 + _SNAP_RTOL) + _SNAP_ATOL_M
            half_lat = reach / EARTH_RADIUS_M
            rows = self._row([g_lat.min() - half_lat, g_lat.max() + half_lat])
            c_min = math.cos(max(self.max_abs_lat, float(np.abs(g_lat).max())))
            s = math.sin(min(reach / (2 * EARTH_RADIUS_M), math.pi / 2)) / c_min
            cols = [0, self.side - 1]
            if s < 1.0:
                half_lon = 2 * math.asin(s)
                lon_lo, lon_hi = g_lon.min() - half_lon, g_lon.max() + half_lon
                # a band across the antimeridian keeps every column
                if -math.pi < lon_lo and lon_hi < math.pi:
                    cols = self._col([lon_lo, lon_hi])
            cand = self._nodes_in(rows, cols)
            d = _haversine_m(g_lon, g_lat, g_cos, self.rlon[cand],
                             self.rlat[cand], self.cos_rlat[cand])
            # candidates ascend by id, so the first minimum is the smallest id
            best[pts] = cand[d.argmin(axis=1)]
            dist[pts] = d.min(axis=1)
        return best, dist


def _snap_points(points, network: RoadNetwork, warn_threshold_m: float,
                 stacklevel: int) -> list[tuple[str, float]]:
    """Nearest node id and snap-leg meters of each point, in order.

    Warns once per point whose leg exceeds ``warn_threshold_m``;
    ``stacklevel`` is counted from this function.
    """
    if not network.nodes:
        raise ValidationError("cannot snap to an empty network")
    grid = _NodeGrid(network)
    # the point side of the formula in scalar math, as a scan of every node had it
    plon = np.array([math.radians(p.lon) for p in points], dtype=float)
    plat = np.array([math.radians(p.lat) for p in points], dtype=float)
    cos_plat = np.array([math.cos(x) for x in plat], dtype=float)
    best, dist = grid.nearest(plon, plat, cos_plat)
    snaps = []
    for point, k, leg in zip(points, best, dist):
        nid, leg = grid.ids[k], float(leg)
        if leg > warn_threshold_m:
            warnings.warn(
                f"point ({point.lon}, {point.lat}) snapped to node '{nid}' "
                f"{leg:.0f} m away (threshold {warn_threshold_m:.0f} m)",
                SnapDistanceWarning,
                stacklevel=stacklevel,
            )
        snaps.append((nid, leg))
    return snaps


def snap_to_network(
    point: Coordinate,
    network: RoadNetwork,
    warn_threshold_m: float = DEFAULT_SNAP_WARN_M,
) -> str:
    """Nearest network node by great-circle distance (ties: smallest node id)."""
    return _snap_points([point], network, warn_threshold_m, stacklevel=3)[0][0]


def _adjacency(network: RoadNetwork) -> dict[str, list[tuple[str, float]]]:
    adj: dict[str, list[tuple[str, float]]] = {nid: [] for nid in network.nodes}
    for e in network.edges:
        adj[e.from_id].append((e.to_id, e.length_m))
        if e.bidirectional:
            adj[e.to_id].append((e.from_id, e.length_m))
    return adj


def _dijkstra(adj, source: str, limit_m: float = UNREACHABLE) -> dict[str, float]:
    """Shortest distances from ``source`` to every node within ``limit_m``.

    The search stops at the first heap entry farther than ``limit_m``.
    Edge lengths are > 0, so every node within the limit is settled by
    then, by the same operations and so with the same value as in a full
    search.  Only settled nodes are returned.
    """
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > limit_m:
            # every entry still queued is farther: none of them is settled
            return {v: dv for v, dv in dist.items() if dv <= limit_m}
        if d > dist.get(u, UNREACHABLE):
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, UNREACHABLE):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def shortest_path_distances(network: RoadNetwork, source: str) -> dict[str, float]:
    """Exact single-source shortest-path distances in meters.

    Nodes with no path from ``source`` are absent from the result.
    """
    if source not in network.nodes:
        raise ValidationError(f"unknown source node '{source}'")
    return _dijkstra(_adjacency(network), source)


class SiteMajor:
    """A demand x site array stored one site at a time.

    Site j holds the demand indices ``demand[starts[j]:starts[j + 1]]``, in
    ascending order, and their ``values``; every other entry is ``fill``.
    ``site`` is the site of each entry.  ``np.asarray`` gives the dense
    (demand, site) array, and ``T`` the transpose, stored one demand point
    at a time, each point's sites ascending.
    """

    def __init__(self, shape, starts, demand, values, fill: float = UNREACHABLE):
        self.shape, self.size, self.fill = tuple(shape), shape[0] * shape[1], fill
        self.starts, self.demand = np.asarray(starts), np.asarray(demand, dtype=np.intp)
        self.values = np.asarray(values, dtype=float)
        self.site = np.repeat(np.arange(shape[1]), np.diff(self.starts))

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "SiteMajor":
        """The entries of a dense (demand, site) array that are not inf."""
        site, demand = np.nonzero(array.T != UNREACHABLE)
        starts = np.searchsorted(site, np.arange(array.shape[1] + 1))
        return cls(array.shape, starts, demand, array[demand, site])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = np.full(self.shape, self.fill, dtype=dtype)
        out[self.demand, self.site] = self.values
        return out

    @property
    def T(self) -> "SiteMajor":
        order = np.argsort(self.demand, kind="stable")
        starts = np.searchsorted(self.demand[order], np.arange(self.shape[0] + 1))
        return SiteMajor(self.shape[::-1], starts, self.site[order], self.values[order],
                         self.fill)

    def entries(self, cols) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the entries of sites ``cols``, site after site, and
        the index into ``cols`` of each."""
        cols = np.asarray(cols, dtype=np.intp)
        first, last = self.starts[cols], self.starts[cols + 1]
        ends = np.cumsum(last - first)
        which = np.repeat(np.arange(len(ends)), last - first)
        return np.arange(ends[-1] if len(ends) else 0) + (last - ends)[which], which

    def select(self, cols) -> "SiteMajor":
        """The array of sites ``cols`` alone, in that order."""
        pos, which = self.entries(cols)
        starts = np.searchsorted(which, np.arange(len(cols) + 1))
        return SiteMajor((self.shape[0], len(cols)), starts, self.demand[pos],
                         self.values[pos], self.fill)


@dataclass(frozen=True, eq=False)
class TravelTimeMatrix:
    """Walk minutes from each site (column) to each demand point (row).

    ``times`` may be given dense or as a ``SiteMajor``; it is kept as the
    latter, holding each site's demand points within the group's maximum
    walk distance.  Every other pair is ``UNREACHABLE`` (inf).  The columns
    may be any of a scenario's sites, in its order.
    """

    group: PopulationGroup
    times: SiteMajor
    demand_order: tuple[str, ...]
    site_order: tuple[str, ...]

    def __post_init__(self):
        t = self.times
        if not isinstance(t, SiteMajor):
            t = np.asarray(t, dtype=float)
        object.__setattr__(self, "demand_order", tuple(self.demand_order))
        object.__setattr__(self, "site_order", tuple(self.site_order))
        expected = (len(self.demand_order), len(self.site_order))
        if t.shape != expected:
            raise ValidationError(
                f"travel-time matrix shape {t.shape} does not match "
                f"{expected[0]} demands x {expected[1]} sites"
            )
        if isinstance(t, np.ndarray):
            t = SiteMajor.from_dense(t)
        if np.any(np.isnan(t.values)) or np.any(t.values < 0):
            raise ValidationError("travel times must be >= 0 or unreachable")
        object.__setattr__(self, "times", t)

    @property
    def times_min(self) -> np.ndarray:
        """The dense (demand, site) minutes, built on each call."""
        return np.asarray(self.times)

    @cached_property
    def demand_index(self) -> dict[str, int]:
        return {did: i for i, did in enumerate(self.demand_order)}

    @cached_property
    def site_index(self) -> dict[str, int]:
        return {sid: j for j, sid in enumerate(self.site_order)}

    def select(self, cols) -> "TravelTimeMatrix":
        """The matrix of columns ``cols`` alone, in that order."""
        return TravelTimeMatrix(self.group, self.times.select(cols), self.demand_order,
                                [self.site_order[j] for j in cols])

    def minutes(self, demand_id: str, site_id: str) -> float:
        row = np.asarray(self.times.select([self.site_index[site_id]]).T)[0]
        return float(row[self.demand_index[demand_id]])


def _distances(scenario: Scenario, limit_m: float, include_snap_distance: bool,
               snap_warn_m: float, sites: Sequence[FacilitySite]) -> SiteMajor:
    """Demand x ``sites`` walk meters within ``limit_m`` (before the legs)."""
    if not scenario.network.nodes:
        raise ValidationError("scenario network has no nodes")
    n_demands = len(scenario.demands)
    snaps = _snap_points(
        [d.location for d in scenario.demands] + [s.location for s in sites],
        scenario.network, snap_warn_m, stacklevel=4,
    )
    rows_at: dict[str, list[int]] = {}
    for i, (demand_node, _) in enumerate(snaps[:n_demands]):
        rows_at.setdefault(demand_node, []).append(i)

    adj = _adjacency(scenario.network)
    found = [np.empty((0, 2))]
    for site_node, _ in snaps[n_demands:]:
        reach = _dijkstra(adj, site_node, limit_m)
        hits = sorted((i, base) for node, base in reach.items()
                      for i in rows_at.get(node, ()))
        found.append(np.array(hits, dtype=float).reshape(-1, 2))
    hits = np.concatenate(found)
    dist = SiteMajor((n_demands, len(sites)), np.cumsum([0] + [len(f) for f in found[1:]]),
                     hits[:, 0], hits[:, 1])
    if include_snap_distance:
        legs = np.array([leg for _, leg in snaps])
        dist.values = dist.values + legs[dist.demand] + legs[n_demands + dist.site]
    return dist


def distance_matrix_m(
    scenario: Scenario,
    *,
    include_snap_distance: bool = False,
    snap_warn_m: float = DEFAULT_SNAP_WARN_M,
    sites: Sequence[FacilitySite] | None = None,
) -> SiteMajor:
    """Network walk distance in meters between every demand point and site.

    The result holds, per site, the demand points its search reached;
    ``np.asarray`` of it is the dense (demand, site) array, ``inf`` where
    unreached.  The columns are ``sites``, by default every site of the
    scenario; only the demand points and these sites are snapped, and
    warned about.  One shortest-path search per site, from its snapped
    node.  Each search stops at the largest ``max_walk_m`` of
    ``scenario.groups``, so a pair is ``inf`` when its network distance
    exceeds that limit, as well as when no path joins it.  Every group's
    travel-time matrix is cut at its own ``max_walk_m`` anyway, so the cut
    changes none of them.  By default the snap legs (point to nearest
    node) are not counted; with ``include_snap_distance`` both legs are
    added to every pair within the limit.  Legs are >= 0, so a pair within
    a group's limit with its legs is within it without them, and the
    search is cut at the same limit.
    """
    limit_m = max(g.max_walk_m for g in scenario.groups)
    sites = scenario.sites if sites is None else sites
    return _distances(scenario, limit_m, include_snap_distance, snap_warn_m, sites)


def build_travel_time_matrix(
    scenario: Scenario,
    group: PopulationGroup,
    *,
    dist_m: SiteMajor | np.ndarray | None = None,
    include_snap_distance: bool = False,
    snap_warn_m: float = DEFAULT_SNAP_WARN_M,
    sites: Sequence[FacilitySite] | None = None,
) -> TravelTimeMatrix:
    """Travel-time matrix for one group: distance over walk speed, capped.

    Pairs farther apart than the group's maximum walk distance are
    ``UNREACHABLE``; the matrix keeps only the others, and its
    ``times_min`` is the dense array.  The columns are ``sites``, by
    default every site of the scenario.  Pass ``dist_m``, with the same
    columns, dense or as ``distance_matrix_m`` returns it, to reuse one
    distance computation across groups; one from ``distance_matrix_m`` is
    ``inf`` beyond the largest walk limit of ``scenario.groups``, so it
    serves only groups within that limit.
    """
    sites = scenario.sites if sites is None else sites
    if dist_m is None:
        dist_m = _distances(scenario, group.max_walk_m, include_snap_distance,
                            snap_warn_m, sites)
    elif not isinstance(dist_m, SiteMajor):
        dist_m = SiteMajor.from_dense(np.asarray(dist_m, dtype=float))
    keep = dist_m.values <= group.max_walk_m
    starts = np.concatenate(([0], np.cumsum(keep)))[dist_m.starts]
    times = SiteMajor(dist_m.shape, starts, dist_m.demand[keep],
                      dist_m.values[keep] / group.walk_speed_m_per_min)
    return TravelTimeMatrix(group, times, scenario.demand_ids,
                            [s.site_id for s in sites])


def build_travel_time_matrices(
    scenario: Scenario,
    *,
    include_snap_distance: bool = False,
    snap_warn_m: float = DEFAULT_SNAP_WARN_M,
    sites: Sequence[FacilitySite] | None = None,
) -> dict[str, TravelTimeMatrix]:
    """One matrix per scenario group, sharing a single distance computation.

    The columns are ``sites``, by default every site of the scenario: one
    search per site.
    """
    dist = distance_matrix_m(
        scenario,
        include_snap_distance=include_snap_distance,
        snap_warn_m=snap_warn_m,
        sites=sites,
    )
    return {
        g.name: build_travel_time_matrix(scenario, g, dist_m=dist, sites=sites)
        for g in scenario.groups
    }


def write_matrix_csv(matrix: TravelTimeMatrix, path) -> None:
    """Dump as ``demand_id,site_id,minutes`` rows; unreachable pairs say ``inf``.

    The rows are made one demand point at a time, from the point-major
    form, so no demand x site array is held.
    """
    # stored a demand point at a time: its ``demand`` holds site indices
    by_point = matrix.times.T
    starts = by_point.starts.tolist()

    def rows():
        for did, first, last in zip(matrix.demand_order, starts, starts[1:]):
            times = [by_point.fill] * len(matrix.site_order)
            for j, t in zip(by_point.demand[first:last].tolist(),
                            by_point.values[first:last].tolist()):
                times[j] = t
            yield from zip(repeat(did), matrix.site_order, times)

    write_csv(path, ("demand_id", "site_id", "minutes"), rows())
