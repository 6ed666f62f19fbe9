import math

import numpy as np
import pytest

from accessopt.geodata import (
    Coordinate,
    Edge,
    RoadNetwork,
    Scenario,
    ValidationError,
    write_csv,
)
from accessopt.routing import (
    SnapDistanceWarning,
    build_travel_time_matrices,
    build_travel_time_matrix,
    distance_matrix_m,
    great_circle_m,
    shortest_path_distances,
    snap_to_network,
    write_matrix_csv,
)

from conftest import (
    BASE,
    ELDERLY,
    GENERAL,
    random_network,
    random_scenario,
)


def floyd_warshall(network):
    """Independent all-pairs oracle; exact on integer edge lengths."""
    ids = sorted(network.nodes)
    index = {nid: i for i, nid in enumerate(ids)}
    n = len(ids)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for e in network.edges:
        a, b = index[e.from_id], index[e.to_id]
        dist[a, b] = min(dist[a, b], e.length_m)
        if e.bidirectional:
            dist[b, a] = min(dist[b, a], e.length_m)
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return ids, dist


def path_network():
    nodes = {
        "a": Coordinate(118.70, 32.00),
        "b": Coordinate(118.71, 32.00),
        "c": Coordinate(118.72, 32.00),
    }
    edges = (Edge("a", "b", 100.0), Edge("b", "c", 200.0))
    return RoadNetwork(nodes, edges)


class TestSnap:
    def test_exact_node(self):
        net = path_network()
        assert snap_to_network(Coordinate(118.71, 32.00), net) == "b"

    def test_tie_breaks_to_smaller_id(self):
        # latitudes are exact float negatives, so the two distances tie exactly
        net = RoadNetwork(
            {"n2": Coordinate(118.71, -0.001), "n1": Coordinate(118.71, 0.001)}, ()
        )
        assert snap_to_network(Coordinate(118.71, 0.0), net) == "n1"

    def test_warning_beyond_threshold(self):
        net = path_network()
        far = Coordinate(118.71, 32.10)  # about 11 km north
        with pytest.warns(SnapDistanceWarning):
            nid = snap_to_network(far, net)
        assert nid == "b"

    def test_no_warning_inside_threshold(self, recwarn):
        snap_to_network(Coordinate(118.7001, 32.0001), path_network())
        assert not [w for w in recwarn if issubclass(w.category, SnapDistanceWarning)]

    def test_empty_network(self):
        with pytest.raises(ValidationError, match="empty"):
            snap_to_network(BASE, RoadNetwork({}, ()))


class TestShortestPaths:
    def test_source_is_zero(self):
        assert shortest_path_distances(path_network(), "a")["a"] == 0.0

    def test_path_graph_sums(self):
        assert shortest_path_distances(path_network(), "a") == {
            "a": 0.0, "b": 100.0, "c": 300.0,
        }

    def test_disconnected_component_absent(self):
        nodes = {
            "a": Coordinate(0, 0), "b": Coordinate(0.01, 0),
            "x": Coordinate(1, 1), "y": Coordinate(1.01, 1),
        }
        net = RoadNetwork(nodes, (Edge("a", "b", 50.0), Edge("x", "y", 50.0)))
        assert set(shortest_path_distances(net, "a")) == {"a", "b"}

    def test_unknown_source(self):
        with pytest.raises(ValidationError, match="unknown source"):
            shortest_path_distances(path_network(), "zz")

    def test_oneway_edge_respected(self):
        nodes = {"a": Coordinate(0, 0), "b": Coordinate(0.01, 0)}
        net = RoadNetwork(nodes, (Edge("a", "b", 50.0, bidirectional=False),))
        assert shortest_path_distances(net, "a") == {"a": 0.0, "b": 50.0}
        assert shortest_path_distances(net, "b") == {"b": 0.0}

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_floyd_warshall(self, seed):
        rng = np.random.default_rng(seed)
        net = random_network(rng, int(rng.integers(4, 30)), p_oneway=0.2)
        ids, oracle = floyd_warshall(net)
        for i, src in enumerate(ids):
            reach = shortest_path_distances(net, src)
            got = np.array([reach.get(nid, np.inf) for nid in ids])
            assert np.array_equal(got, oracle[i])

    @pytest.mark.parametrize("seed", range(5))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(100 + seed)
        net = random_network(rng, 15)
        ids, dist = floyd_warshall(net)
        n = len(ids)
        for b in range(n):
            via = dist[:, b : b + 1] + dist[b : b + 1, :]
            assert np.all(dist <= via + 1e-9)


def dense_matrix_csv(matrix, path):
    """Reference for ``write_matrix_csv``: every row from the dense array."""
    write_csv(path, ("demand_id", "site_id", "minutes"), (
        (did, sid, t)
        for did, times in zip(matrix.demand_order, matrix.times_min.tolist())
        for sid, t in zip(matrix.site_order, times)
    ))


def two_node_scenario(length=700.0, site_offset=None):
    """One demand on node a, one site on node b, one edge between."""
    a = Coordinate(118.70, 32.00)
    b = Coordinate(118.71, 32.00)
    net = RoadNetwork({"a": a, "b": b}, (Edge("a", "b", length),))
    from accessopt.geodata import DemandPoint, FacilitySite

    demand = DemandPoint("d0", a, {"general": 100, "elderly": 20})
    site = FacilitySite("s0", site_offset or b, "existing", 1500.0)
    return Scenario(net, (demand,), (site,), (GENERAL, ELDERLY))


class TestTravelTimeMatrix:
    def test_exact_threshold_distance_is_reachable(self):
        sc = two_node_scenario(length=700.0)
        m = build_travel_time_matrix(sc, ELDERLY)
        assert m.minutes("d0", "s0") == 10.0

    def test_beyond_max_walk_unreachable(self):
        sc = two_node_scenario(length=701.0)
        m = build_travel_time_matrix(sc, ELDERLY)
        assert math.isinf(m.minutes("d0", "s0"))

    def test_colocated_zero_minutes(self):
        sc = two_node_scenario(length=500.0)
        m = build_travel_time_matrix(sc, GENERAL)
        # column for the site, row for the demand on the other node
        assert m.times_min[0, 0] == 500.0 / 80.0

    def test_speeds_differ_by_group(self):
        sc = two_node_scenario(length=560.0)
        mats = build_travel_time_matrices(sc)
        assert mats["general"].minutes("d0", "s0") == 7.0
        assert mats["elderly"].minutes("d0", "s0") == 8.0

    def test_dimensions(self):
        sc = random_scenario(4, two_groups=True)
        m = build_travel_time_matrix(sc, GENERAL)
        assert m.times_min.shape == (len(sc.demands), len(sc.sites))

    def test_site_order_permutation_invariant(self):
        sc = random_scenario(11)
        m1 = build_travel_time_matrix(sc, GENERAL)
        shuffled = Scenario(sc.network, sc.demands, tuple(reversed(sc.sites)),
                            sc.groups)
        m2 = build_travel_time_matrix(shuffled, GENERAL)
        for d in sc.demand_ids:
            for s in sc.site_ids:
                assert m1.minutes(d, s) == m2.minutes(d, s)

    def test_removing_edge_never_shortens(self):
        sc = random_scenario(13)
        if len(sc.network.edges) < 2:
            pytest.skip("degenerate network")
        before = build_travel_time_matrix(sc, GENERAL).times_min
        thinned = Scenario(
            RoadNetwork(sc.network.nodes, sc.network.edges[:-1]),
            sc.demands, sc.sites, sc.groups,
        )
        after = build_travel_time_matrix(thinned, GENERAL).times_min
        assert np.all(after >= before)

    def test_snap_legs_excluded_by_default(self):
        # demand sits 100 m east of node b; snap leg must not count
        offset = Coordinate(118.71 + 100.0 / (111_320.0 * math.cos(math.radians(32.0))),
                            32.00)
        sc = two_node_scenario(length=400.0, site_offset=offset)
        m = build_travel_time_matrix(sc, GENERAL)
        assert m.minutes("d0", "s0") == 400.0 / 80.0

    def test_snap_legs_included_on_request(self):
        meters_east = 100.0
        offset = Coordinate(
            118.71 + meters_east / (111_320.0 * math.cos(math.radians(32.0))), 32.00
        )
        sc = two_node_scenario(length=400.0, site_offset=offset)
        leg = great_circle_m(offset, sc.network.nodes["b"])
        m = build_travel_time_matrix(sc, GENERAL, include_snap_distance=True)
        expected = (400.0 + leg) / 80.0
        assert m.minutes("d0", "s0") == pytest.approx(expected, rel=1e-6)

    def test_matrix_csv_dump(self, tmp_path):
        sc = two_node_scenario(length=701.0)
        m = build_travel_time_matrix(sc, ELDERLY)
        path = tmp_path / "m.csv"
        write_matrix_csv(m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "demand_id,site_id,minutes"
        assert lines[1] == "d0,s0,inf"

    @pytest.mark.parametrize("seed", range(40))
    def test_matrix_csv_matches_dense_writer(self, tmp_path, seed):
        """The dump, made one demand point at a time, has the bytes of one
        made from the dense array, unreachable pairs and any site order
        included."""
        sc = random_scenario(seed, two_groups=True, max_sites=10, p_oneway=0.3)
        rng = np.random.default_rng(seed)
        for m in build_travel_time_matrices(sc).values():
            m = m.select(rng.permutation(len(m.site_order)))
            write_matrix_csv(m, tmp_path / "streamed.csv")
            dense_matrix_csv(m, tmp_path / "dense.csv")
            assert (tmp_path / "streamed.csv").read_bytes() == \
                (tmp_path / "dense.csv").read_bytes()

    def test_distance_matrix_reused_across_groups(self):
        sc = random_scenario(19, two_groups=True)
        dist = distance_matrix_m(sc)
        m = build_travel_time_matrix(sc, ELDERLY, dist_m=dist)
        fresh = build_travel_time_matrix(sc, ELDERLY)
        assert np.array_equal(m.times_min, fresh.times_min)
