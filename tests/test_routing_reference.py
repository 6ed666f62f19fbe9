"""Bounded routing and bucketed snapping against their full-scan references.

``reference_nearest_node`` scans every node, and ``reference_distance_matrix``
runs every site's search over the whole network and fills every pair.  Both
are the code routing used before searches stopped at the walk limit and
snapping went through a grid.  They are slow and plainly correct, so the
fast paths must reproduce them bit for bit: the same snapped node, the same
snap-leg bits and the same travel-time matrix bytes for every group.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from accessopt.geodata import (
    Coordinate,
    DemandPoint,
    Edge,
    FacilitySite,
    PopulationGroup,
    RoadNetwork,
    Scenario,
)
from accessopt.routing import (
    EARTH_RADIUS_M,
    UNREACHABLE,
    SnapDistanceWarning,
    _snap_points,
    build_travel_time_matrices,
    build_travel_time_matrix,
    distance_matrix_m,
    shortest_path_distances,
)

from conftest import BASE, random_network


def reference_node_arrays(network):
    ids = sorted(network.nodes)
    rlon = np.radians([network.nodes[i].lon for i in ids])
    rlat = np.radians([network.nodes[i].lat for i in ids])
    return ids, rlon, rlat


def reference_nearest_node(point, ids, rlon, rlat):
    plon, plat = math.radians(point.lon), math.radians(point.lat)
    h = (
        np.sin((rlat - plat) / 2) ** 2
        + math.cos(plat) * np.cos(rlat) * np.sin((rlon - plon) / 2) ** 2
    )
    d = 2 * EARTH_RADIUS_M * np.arcsin(np.sqrt(h))
    # ids are sorted, so the first minimum breaks ties toward the smallest id
    k = int(np.argmin(d))
    return ids[k], float(d[k])


def reference_distance_matrix(scenario, include_snap_distance=False):
    """Full search from every site, every demand looked up in every search."""
    arrays = reference_node_arrays(scenario.network)
    demand_snaps = [reference_nearest_node(d.location, *arrays) for d in scenario.demands]
    site_snaps = [reference_nearest_node(s.location, *arrays) for s in scenario.sites]
    dist = np.full((len(scenario.demands), len(scenario.sites)), UNREACHABLE)
    for j, (site_node, site_leg) in enumerate(site_snaps):
        reach = shortest_path_distances(scenario.network, site_node)
        for i, (demand_node, demand_leg) in enumerate(demand_snaps):
            base = reach.get(demand_node)
            if base is None:
                continue
            if include_snap_distance:
                base = base + demand_leg + site_leg
            dist[i, j] = base
    return dist


def reference_times(dist, group):
    return np.where(dist <= group.max_walk_m, dist / group.walk_speed_m_per_min,
                    UNREACHABLE)


def snap_all(points, network):
    return _snap_points(points, network, math.inf, stacklevel=2)


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

def with_island(rng, network):
    """The network plus a small component no edge joins to it."""
    nodes = dict(network.nodes)
    island = [f"x{k}" for k in range(3)]
    for k, nid in enumerate(island):
        nodes[nid] = Coordinate(BASE.lon + 0.02 + k * 5e-4, BASE.lat + 0.02)
    edges = list(network.edges)
    edges += [Edge(a, b, float(rng.integers(40, 400)))
              for a, b in zip(island, island[1:])]
    return RoadNetwork(nodes, tuple(edges))


def random_points(rng, network, n, spread=1e-3, on_nodes=0):
    """Points scattered around random nodes, so most have a snap leg.

    The last ``on_nodes`` points sit exactly on a node, with a leg of 0 m.
    """
    coords = list(network.nodes.values())
    points = []
    for k in rng.integers(0, len(coords), size=n):
        c = coords[int(k)]
        points.append(Coordinate(c.lon + float(rng.uniform(-spread, spread)),
                                 c.lat + float(rng.uniform(-spread, spread))))
    points += [coords[int(k)] for k in rng.integers(0, len(coords), size=on_nodes)]
    return points


def routing_scenario(seed, include_snap_distance):
    """Random one-way-ish network, points off the nodes, two walk limits.

    One group's limit is exactly an attained pair distance and is the
    larger of the two.  That pair has legs of 0 m, so even with snap legs
    counted, a search cut one ulp short of the limit loses it.  Draws again
    until such a pair exists.
    """
    rng = np.random.default_rng(seed)
    while True:
        network = random_network(rng, int(rng.integers(6, 40)),
                                 int_lengths=bool(seed % 2), p_oneway=0.3)
        if seed % 3 == 0:
            network = with_island(rng, network)
        demands = tuple(
            DemandPoint(f"d{k:03d}", p, {"general": 100, "elderly": 20})
            for k, p in enumerate(random_points(rng, network, int(rng.integers(2, 20)),
                                                on_nodes=3))
        )
        sites = tuple(
            FacilitySite(f"s{k:03d}", p, "existing")
            for k, p in enumerate(random_points(rng, network, int(rng.integers(1, 10)),
                                                on_nodes=2))
        )
        if seed % 3 == 0:
            demands += (DemandPoint("island", network.nodes["x0"], {"general": 50}),)
            sites += (FacilitySite("island", network.nodes["x2"], "existing"),)
        draft = Scenario(network, demands, sites,
                         (PopulationGroup("general", 80.0, 1.0),
                          PopulationGroup("elderly", 70.0, 1.0)))
        reference = reference_distance_matrix(draft, include_snap_distance)
        no_legs = reference == reference_distance_matrix(draft)
        positive = reference[np.isfinite(reference) & (reference > 0) & no_legs]
        if positive.size:
            break
    exact = float(rng.choice(np.sort(positive)))
    other = exact * float(rng.uniform(0.3, 1.0))
    limits = (exact, other) if rng.random() < 0.5 else (other, exact)
    groups = (PopulationGroup("general", 80.0, limits[0]),
              PopulationGroup("elderly", 70.0, limits[1]))
    return Scenario(network, demands, sites, groups), reference, exact


class TestBoundedRouting:
    @pytest.mark.parametrize("include_snap_distance", [False, True])
    @pytest.mark.parametrize("seed", range(30))
    def test_matrices_match_full_search(self, seed, include_snap_distance):
        scenario, reference, exact = routing_scenario(seed, include_snap_distance)
        assert np.any(reference == exact)  # a pair sits exactly on the limit
        if seed % 3 == 0:
            assert np.any(np.isinf(reference))  # a pair with no path at all
        matrices = build_travel_time_matrices(
            scenario, include_snap_distance=include_snap_distance)
        for group in scenario.groups:
            want = reference_times(reference, group)
            assert matrices[group.name].times_min.tobytes() == want.tobytes()
            alone = build_travel_time_matrix(
                scenario, group, include_snap_distance=include_snap_distance)
            assert alone.times_min.tobytes() == want.tobytes()

    @pytest.mark.parametrize("include_snap_distance", [False, True])
    @pytest.mark.parametrize("seed", range(10))
    def test_distances_match_within_the_limit(self, seed, include_snap_distance):
        scenario, reference, exact = routing_scenario(100 + seed, include_snap_distance)
        got = distance_matrix_m(scenario, include_snap_distance=include_snap_distance)
        within = reference <= exact
        assert got[within].tobytes() == reference[within].tobytes()
        beyond = got[~within]
        if include_snap_distance:
            # a pair whose legs carry it past the limit may still be filled
            assert np.all(np.isinf(beyond) | (beyond == reference[~within]))
        else:
            assert np.all(np.isinf(beyond))

    @pytest.mark.parametrize("seed", range(10))
    def test_group_outside_the_scenario(self, seed):
        """A foreign group's own limit, not only the scenario's, bounds the search."""
        scenario, reference, exact = routing_scenario(200 + seed, False)
        halved = tuple(PopulationGroup(g.name, g.walk_speed_m_per_min, g.max_walk_m / 2)
                       for g in scenario.groups)
        scenario = Scenario(scenario.network, scenario.demands, scenario.sites, halved)
        visitor = PopulationGroup("visitor", 60.0, exact)
        got = build_travel_time_matrix(scenario, visitor)
        assert got.times_min.tobytes() == reference_times(reference, visitor).tobytes()

    def test_warnings_keep_text_order_and_category(self):
        a, b = Coordinate(118.70, 32.00), Coordinate(118.71, 32.00)
        network = RoadNetwork({"a": a, "b": b}, (Edge("a", "b", 300.0),))
        far_demand = Coordinate(118.70, 32.02)
        far_site = Coordinate(118.71, 31.98)
        scenario = Scenario(
            network,
            (DemandPoint("d0", a, {"general": 1}), DemandPoint("d1", far_demand, {})),
            (FacilitySite("s0", far_site, "existing"),),
            (PopulationGroup("general", 80.0, 700.0),),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            distance_matrix_m(scenario)
        want = []
        for point, nid in ((far_demand, "a"), (far_site, "b")):
            _, leg = reference_nearest_node(point, *reference_node_arrays(network))
            want.append(f"point ({point.lon}, {point.lat}) snapped to node '{nid}' "
                        f"{leg:.0f} m away (threshold 500 m)")
        assert [str(w.message) for w in caught] == want
        assert all(w.category is SnapDistanceWarning for w in caught)


# ---------------------------------------------------------------------------
# Snapping
# ---------------------------------------------------------------------------

def assert_snaps_match(points, network):
    arrays = reference_node_arrays(network)
    want = [reference_nearest_node(p, *arrays) for p in points]
    got = snap_all(points, network)
    assert [nid for nid, _ in got] == [nid for nid, _ in want]
    assert np.array([d for _, d in got]).tobytes() == np.array(
        [d for _, d in want]).tobytes()
    return want


class TestBucketSnap:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_points(self, seed):
        rng = np.random.default_rng(300 + seed)
        network = random_network(rng, int(rng.integers(1, 400)))
        assert_snaps_match(random_points(rng, network, 300, spread=2e-3), network)

    @pytest.mark.parametrize("seed", range(5))
    def test_points_outside_the_bounding_box(self, seed):
        rng = np.random.default_rng(400 + seed)
        network = random_network(rng, 200)
        lons = [c.lon for c in network.nodes.values()]
        lats = [c.lat for c in network.nodes.values()]
        points = [
            Coordinate(float(rng.uniform(min(lons) - 0.05, max(lons) + 0.05)),
                       float(rng.uniform(min(lats) - 0.05, max(lats) + 0.05)))
            for _ in range(300)
        ]
        assert_snaps_match(points, network)

    @pytest.mark.parametrize("seed", range(5))
    def test_duplicate_coordinates_tie_to_smallest_id(self, seed):
        rng = np.random.default_rng(500 + seed)
        spots = [Coordinate(BASE.lon + float(rng.uniform(0, 0.01)),
                            BASE.lat + float(rng.uniform(0, 0.01))) for _ in range(60)]
        # every spot carries three nodes whose ids do not follow insertion order
        ids = [f"n{k:03d}" for k in rng.permutation(3 * len(spots))]
        network = RoadNetwork({nid: spots[k % len(spots)] for k, nid in enumerate(ids)}, ())
        points = random_points(rng, network, 200, spread=2e-3) + spots
        want = assert_snaps_match(points, network)
        for spot, (nid, leg) in zip(spots, want[-len(spots):]):
            tied = sorted(n for n, c in network.nodes.items() if c == spot)
            assert leg == 0.0 and nid == tied[0]

    def test_one_node_network(self):
        network = RoadNetwork({"only": BASE}, ())
        rng = np.random.default_rng(600)
        points = [Coordinate(float(rng.uniform(-180, 180)), float(rng.uniform(-90, 90)))
                  for _ in range(50)] + [BASE]
        assert_snaps_match(points, network)

    @pytest.mark.parametrize("lat", [75.0, 89.0, -89.9])
    def test_high_latitude(self, lat):
        rng = np.random.default_rng(700)
        nodes = {
            f"n{k:03d}": Coordinate(float(rng.uniform(-40, 40)),
                                    float(np.clip(lat + rng.uniform(-0.8, 0.8), -90, 90)))
            for k in range(300)
        }
        network = RoadNetwork(nodes, ())
        points = [Coordinate(float(rng.uniform(-60, 60)),
                             float(np.clip(lat + rng.uniform(-1.5, 1.5), -90, 90)))
                  for _ in range(300)]
        assert_snaps_match(points, network)

    def test_across_the_antimeridian(self):
        rng = np.random.default_rng(800)
        nodes = {f"n{k:03d}": Coordinate(float(rng.uniform(179.0, 180.0)),
                                         float(rng.uniform(-1, 1))) for k in range(100)}
        nodes.update({f"w{k:03d}": Coordinate(float(rng.uniform(-180.0, -179.0)),
                                              float(rng.uniform(-1, 1))) for k in range(100)})
        network = RoadNetwork(nodes, ())
        points = [Coordinate(float(rng.choice([-1, 1]) * rng.uniform(179.5, 180.0)),
                             float(rng.uniform(-1, 1))) for _ in range(300)]
        assert_snaps_match(points, network)
