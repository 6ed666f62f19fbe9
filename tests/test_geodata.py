import csv
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from accessopt.accessibility import DecayParams, accessibility_scores
from accessopt.geodata import (
    Coordinate,
    DemandPoint,
    Edge,
    FacilitySite,
    ParseError,
    PopulationGroup,
    RoadNetwork,
    Scenario,
    SchemaError,
    ValidationError,
    _claim_edge,
    _first_clash,
    generate_synthetic_scenario,
    load_scenario,
    parse_demand,
    parse_network,
    parse_sites,
    read_csv,
    write_csv,
    write_scenario_bundle,
)

from conftest import ELDERLY, GENERAL, random_scenario, table_scenario


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


NODES_OK = "node_id,lon,lat\na,118.7,32.0\nb,118.71,32.0\n"


class TestParseNetwork:
    def test_minimal(self, tmp_path):
        nodes = write(tmp_path / "n.csv", NODES_OK)
        edges = write(tmp_path / "e.csv", "from_id,to_id,length_m,bidirectional\na,b,100,1\n")
        net = parse_network(nodes, edges)
        assert len(net.nodes) == 2
        assert len(net.edges) == 1
        assert net.edges[0].length_m == 100.0

    def test_dangling_endpoint_names_id(self, tmp_path):
        nodes = write(tmp_path / "n.csv", NODES_OK)
        edges = write(tmp_path / "e.csv", "from_id,to_id,length_m,bidirectional\na,X,100,1\n")
        with pytest.raises(ValidationError, match="'X'"):
            parse_network(nodes, edges)

    def test_negative_length(self, tmp_path):
        nodes = write(tmp_path / "n.csv", NODES_OK)
        edges = write(tmp_path / "e.csv", "from_id,to_id,length_m,bidirectional\na,b,-5,1\n")
        with pytest.raises(ValidationError, match="length_m"):
            parse_network(nodes, edges)

    def test_malformed_row_reports_line(self, tmp_path):
        nodes = write(tmp_path / "n.csv", "node_id,lon,lat\na,118.7,32.0\nb,oops,32.0\n")
        edges = write(tmp_path / "e.csv", "from_id,to_id,length_m,bidirectional\n")
        with pytest.raises(ParseError, match=":3"):
            parse_network(nodes, edges)

    def test_duplicate_node_id(self, tmp_path):
        nodes = write(tmp_path / "n.csv", "node_id,lon,lat\na,118.7,32.0\na,118.8,32.0\n")
        edges = write(tmp_path / "e.csv", "from_id,to_id,length_m,bidirectional\n")
        with pytest.raises(ValidationError, match="duplicate node_id"):
            parse_network(nodes, edges)

    def test_unknown_node_names_edge_and_line(self, tmp_path):
        nodes = write(tmp_path / "n.csv", NODES_OK)
        edges = write(tmp_path / "e.csv",
                      "from_id,to_id,length_m,bidirectional\na,b,100,1\nb,zz,90,1\n")
        with pytest.raises(ValidationError) as parsed:
            parse_network(nodes, edges)
        assert str(parsed.value) == f"{edges}:3: edge b->zz references unknown node 'zz'"
        here = Coordinate(118.7, 32.0)
        with pytest.raises(ValidationError) as built:
            RoadNetwork({"a": here, "b": here}, (Edge("a", "b", 100.0), Edge("b", "zz", 90.0)))
        assert str(built.value) == "edge b->zz references unknown node 'zz'"

    def test_edge_ends_are_the_node_tables_ids(self, tmp_path):
        """Each edge end is the string object that keys the node table, not
        a copy; an unknown end is still named at its line."""
        nodes = write(tmp_path / "n.csv", "node_id,lon,lat\nnorth,118.7,32.0\n"
                                          "south,118.71,32.0\nwest,118.72,32.0\n")
        rows = "from_id,to_id,length_m,bidirectional\nnorth,south,100,1\n" \
               " south ,west,90,0\nwest,north,80,\n"
        net = parse_network(nodes, write(tmp_path / "e.csv", rows))
        keys = {nid: nid for nid in net.nodes}
        assert [(e.from_id, e.to_id) for e in net.edges] == [
            ("north", "south"), ("south", "west"), ("west", "north")]
        assert all(e.from_id is keys[e.from_id] and e.to_id is keys[e.to_id]
                   for e in net.edges)
        edges = write(tmp_path / "e.csv", rows + "west,east,70,1\n")
        with pytest.raises(ValidationError) as info:
            parse_network(nodes, edges)
        assert str(info.value) == f"{edges}:5: edge west->east references unknown node 'east'"

    def test_duplicate_edge_rejected(self, tmp_path):
        nodes = write(tmp_path / "n.csv", NODES_OK)
        edges = write(
            tmp_path / "e.csv",
            "from_id,to_id,length_m,bidirectional\na,b,100,1\nb,a,90,0\n",
        )
        with pytest.raises(ValidationError, match="duplicate edge"):
            parse_network(nodes, edges)

    def test_duplicate_edge_located(self, tmp_path):
        nodes = write(tmp_path / "n.csv", NODES_OK)
        edges = write(
            tmp_path / "e.csv",
            "from_id,to_id,length_m,bidirectional\na,b,100,0\nb,a,90,0\nb,a,80,1\n",
        )
        with pytest.raises(ValidationError, match=r"e\.csv:4: duplicate edge b->a"):
            parse_network(nodes, edges)

    def test_opposed_oneways_allowed(self, tmp_path):
        nodes = write(tmp_path / "n.csv", NODES_OK)
        edges = write(
            tmp_path / "e.csv",
            "from_id,to_id,length_m,bidirectional\na,b,100,0\nb,a,90,0\n",
        )
        assert len(parse_network(nodes, edges).edges) == 2

    def test_blank_bidirectional_defaults_true(self, tmp_path):
        nodes = write(tmp_path / "n.csv", NODES_OK)
        edges = write(tmp_path / "e.csv", "from_id,to_id,length_m,bidirectional\na,b,100,\n")
        assert parse_network(nodes, edges).edges[0].bidirectional is True

    def test_missing_column(self, tmp_path):
        nodes = write(tmp_path / "n.csv", "node_id,lon\na,118.7\n")
        with pytest.raises(SchemaError, match="lat"):
            parse_network(nodes, tmp_path / "e.csv")

    @pytest.mark.parametrize("seed", range(200))
    def test_edges_checked_at_once_as_in_order(self, seed):
        """``_first_clash`` finds the edge, and the error, that claiming the
        edges one by one meets first; self-loops, opposed one-ways, repeats
        and unknown ends included."""
        rng = np.random.default_rng(seed)
        nodes = {nid: Coordinate(118.7, 32.0) for nid in ("a", "b", "c")}
        ids = ("a", "b", "c", "a", "b", "c", "x")
        edges = [Edge(ids[rng.integers(len(ids))], ids[rng.integers(len(ids))], 1.0,
                      bool(rng.random() < 0.5))
                 for _ in range(int(rng.integers(0, 7)))]
        want, occupied = None, set()
        for i, e in enumerate(edges):
            try:
                _claim_edge(e, nodes, occupied)
            except ValidationError as exc:
                want = (i, str(exc))
                break
        clash = _first_clash(edges, nodes)
        assert (clash if clash is None else (clash[0], str(clash[1]))) == want
        if want is None:
            RoadNetwork(nodes, edges)
        else:
            with pytest.raises(ValidationError) as info:
                RoadNetwork(nodes, edges)
            assert str(info.value) == want[1]


class TestParseDemand:
    GROUPS = (GENERAL, ELDERLY)

    def test_row_maps_population_columns(self, tmp_path):
        path = write(
            tmp_path / "d.csv",
            "demand_id,lon,lat,pop_general,pop_elderly\nd1,118.77,32.06,1000,200\n",
        )
        (d,) = parse_demand(path, self.GROUPS)
        assert d.population == {"general": 1000, "elderly": 200}
        assert d.location == Coordinate(118.77, 32.06)

    def test_header_only_gives_empty_list(self, tmp_path):
        path = write(tmp_path / "d.csv", "demand_id,lon,lat,pop_general,pop_elderly\n")
        assert parse_demand(path, self.GROUPS) == []

    def test_duplicate_demand_id_located(self, tmp_path):
        path = write(tmp_path / "d.csv", "demand_id,lon,lat,pop_general\n"
                     "d1,118.7,32.0,10\nd2,118.7,32.0,10\nd1,118.8,32.0,5\n")
        with pytest.raises(ValidationError, match=r"d\.csv:4: duplicate demand_id 'd1'"):
            parse_demand(path, [GENERAL])

    def test_missing_group_column(self, tmp_path):
        path = write(tmp_path / "d.csv", "demand_id,lon,lat,pop_general\nd1,1,1,5\n")
        with pytest.raises(SchemaError, match="pop_elderly"):
            parse_demand(path, self.GROUPS)

    def test_negative_population(self, tmp_path):
        path = write(
            tmp_path / "d.csv",
            "demand_id,lon,lat,pop_general,pop_elderly\nd1,1,1,-3,0\n",
        )
        with pytest.raises(ValidationError, match="non-negative"):
            parse_demand(path, self.GROUPS)

    def test_fractional_population_rejected(self, tmp_path):
        path = write(
            tmp_path / "d.csv",
            "demand_id,lon,lat,pop_general,pop_elderly\nd1,1,1,3.5,0\n",
        )
        with pytest.raises(ParseError):
            parse_demand(path, self.GROUPS)


class TestParseSites:
    def test_blank_capacity_defaults(self, tmp_path):
        path = write(tmp_path / "s.csv", "site_id,lon,lat,status,capacity\ns1,118.7,32.0,existing,\n")
        (s,) = parse_sites(path, default_capacity=1500.0)
        assert s.capacity == 1500.0

    def test_explicit_capacity_wins(self, tmp_path):
        path = write(tmp_path / "s.csv", "site_id,lon,lat,status,capacity\ns2,118.7,32.0,candidate,800\n")
        (s,) = parse_sites(path)
        assert s.capacity == 800.0
        assert not s.existing

    def test_duplicate_site_id_located(self, tmp_path):
        path = write(tmp_path / "s.csv", "site_id,lon,lat,status,capacity\n"
                     "s1,118.7,32.0,existing,\ns1,118.8,32.0,candidate,5\n")
        with pytest.raises(ValidationError, match=r"s\.csv:3: duplicate site_id 's1'"):
            parse_sites(path)

    def test_own_checks_come_before_a_repeated_id(self, tmp_path):
        path = write(tmp_path / "s.csv", "site_id,lon,lat,status,capacity\n"
                     "s1,118.7,32.0,existing,\ns1,500,32.0,candidate,5\n")
        with pytest.raises(ValidationError,
                           match=r"s\.csv:3: lon 500\.0 outside \[-180, 180\]"):
            parse_sites(path)

    def test_unknown_status(self, tmp_path):
        path = write(tmp_path / "s.csv", "site_id,lon,lat,status,capacity\ns1,118.7,32.0,open,\n")
        with pytest.raises(ValidationError, match="status"):
            parse_sites(path)


class TestTypes:
    def test_numpy_values_shown_as_python_numbers(self):
        with pytest.raises(ValidationError, match=r"got 0\.0$"):
            Edge("a", "b", np.float64(0.0))
        with pytest.raises(ValidationError, match=r"^lat 95\.5 "):
            Coordinate(0.0, np.float64(95.5))

    @pytest.mark.parametrize("record,change", [
        (Coordinate(118.7, 32.0), {"lat": 32.5}),
        (Edge("north", "south", 100.0, False), {"length_m": 90.0}),
        (DemandPoint("d", Coordinate(0, 0), {"general": 5}), {"demand_id": "e"}),
        (FacilitySite("s", Coordinate(0, 0), "existing", 900.0), {"status": "candidate"}),
    ], ids=lambda value: type(value).__name__)
    def test_records_are_slotted_and_frozen(self, record, change):
        """The records a city holds by the thousand keep no ``__dict__``, yet
        refuse assignment, compare, hash and ``replace`` as frozen dataclasses
        do."""
        assert not hasattr(record, "__dict__")
        name = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
        twin = dataclasses.replace(record)
        assert twin == record and twin is not record
        values = tuple(getattr(record, f.name) for f in dataclasses.fields(record))
        if isinstance(record, DemandPoint):
            with pytest.raises(TypeError, match="unhashable"):  # its population dict
                hash(record)
        else:
            assert hash(twin) == hash(record) == hash(values)
        changed = dataclasses.replace(record, **change)
        assert changed != record
        assert [getattr(changed, key) for key in change] == list(change.values())
        assert dataclasses.replace(changed, **{key: getattr(record, key)
                                               for key in change}) == record

    def test_coordinate_range(self):
        with pytest.raises(ValidationError):
            Coordinate(181.0, 0.0)
        with pytest.raises(ValidationError):
            Coordinate(0.0, -91.0)

    @pytest.mark.parametrize("speed,walk,shown", [(1e-300, 1e300, "inf"),
                                                  (1e300, 1e-300, "0.0")])
    def test_t_sigma_overflow_and_underflow_refused(self, speed, walk, shown):
        with pytest.raises(ValidationError) as info:
            PopulationGroup("general", speed, walk)
        assert str(info.value) == (
            "group 'general': travel-time threshold (max walk / walk speed) "
            f"must be finite and > 0, got {shown}")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("speed,walk", [(1e-300, 1e300), (1e300, 1e-300)])
    def test_t_sigma_of_numpy_scalars_refused_without_warning(self, speed, walk):
        with pytest.raises(ValidationError, match="travel-time threshold"):
            PopulationGroup("general", np.float64(speed), np.float64(walk))

    def test_t_sigma_derived(self):
        assert GENERAL.t_sigma_min == 8.75
        assert ELDERLY.t_sigma_min == 10.0
        assert PopulationGroup("chair", 35.0, 700.0).t_sigma_min == 20.0

    def test_inert_point(self):
        d = DemandPoint("d", Coordinate(0, 0), {"general": 0})
        assert d.inert
        assert not DemandPoint("d", Coordinate(0, 0), {"general": 1}).inert

    def test_scenario_needs_content(self):
        net = RoadNetwork({"n": Coordinate(0, 0)}, ())
        site = FacilitySite("s", Coordinate(0, 0), "existing")
        with pytest.raises(ValidationError, match="demand"):
            Scenario(net, (), (site,), (GENERAL,))

    def test_scenario_rejects_undeclared_group_population(self):
        net = RoadNetwork({"n": Coordinate(0, 0)}, ())
        d = DemandPoint("d", Coordinate(0, 0), {"ghost": 5})
        site = FacilitySite("s", Coordinate(0, 0), "existing")
        with pytest.raises(ValidationError, match="ghost"):
            Scenario(net, (d,), (site,), (GENERAL,))

    def test_scenario_duplicate_ids(self):
        net = RoadNetwork({"n": Coordinate(0, 0)}, ())
        d = DemandPoint("d", Coordinate(0, 0), {"general": 5})
        site = FacilitySite("s", Coordinate(0, 0), "existing")
        with pytest.raises(ValidationError, match="duplicate"):
            Scenario(net, (d, d), (site,), (GENERAL,))


def _score_at_gamma(gamma):
    scenario, matrices = table_scenario([("d1", {"general": 10})],
                                        [("s1", "existing", 100.0)], [GENERAL],
                                        {"general": [[1.0]]})
    accessibility_scores(scenario, matrices["general"], {"s1"}, gamma)


# every caller of the one "finite and > 0" check, and the name its message gives
POSITIVE_CHECKS = {
    "edge length": (lambda v: Edge("a", "b", v), "edge a->b: length_m"),
    "walk speed": (lambda v: PopulationGroup("g", v, 700.0), "group 'g': walk speed"),
    "max walk": (lambda v: PopulationGroup("g", 80.0, v), "group 'g': max walk distance"),
    "capacity": (lambda v: FacilitySite("s", Coordinate(0.0, 0.0), "existing", v),
                 "site 's': capacity"),
    "spacing": (lambda v: generate_synthetic_scenario(1, spacing_m=v), "spacing_m"),
    "decay threshold": (DecayParams, "t_sigma_min"),
    "gamma": (_score_at_gamma, "gamma"),
}


@pytest.mark.parametrize("value,shown", [
    (math.nan, "nan"), (math.inf, "inf"), (0.0, "0.0"), (-1.0, "-1.0"),
    (np.float64(0.0), "0.0"),
])
@pytest.mark.parametrize("caller", sorted(POSITIVE_CHECKS))
def test_positive_check_message(caller, value, shown):
    build, name = POSITIVE_CHECKS[caller]
    with pytest.raises(ValidationError) as info:
        build(value)
    assert str(info.value) == f"{name} must be finite and > 0, got {shown}"


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bundle_round_trip(self, tmp_path, seed):
        scenario = random_scenario(seed, two_groups=True)
        paths = write_scenario_bundle(scenario, tmp_path)
        reloaded = load_scenario(
            paths["nodes.csv"], paths["edges.csv"], paths["demand.csv"],
            paths["sites.csv"], groups=scenario.groups,
        )
        assert reloaded == scenario

    def test_serialize_parse_fixed_point(self, tmp_path):
        scenario = generate_synthetic_scenario(3, grid_rows=4, grid_cols=4,
                                               n_existing=2, n_candidate=3)
        first = write_scenario_bundle(scenario, tmp_path / "a")
        reloaded = load_scenario(
            first["nodes.csv"], first["edges.csv"], first["demand.csv"],
            first["sites.csv"], groups=scenario.groups,
        )
        second = write_scenario_bundle(reloaded, tmp_path / "b")
        for name in first:
            assert first[name].read_bytes() == second[name].read_bytes()


class TestGenerator:
    def test_same_seed_identical(self):
        assert generate_synthetic_scenario(7) == generate_synthetic_scenario(7)

    def test_different_seed_differs(self):
        assert generate_synthetic_scenario(7) != generate_synthetic_scenario(8)

    def test_site_counts(self):
        sc = generate_synthetic_scenario(
            1, grid_rows=20, grid_cols=20, n_existing=16, n_candidate=30
        )
        assert len(sc.sites) == 46
        assert len(sc.existing_site_ids) == 16
        assert len(sc.candidate_site_ids) == 30

    def test_no_candidates_is_valid(self):
        sc = generate_synthetic_scenario(1, grid_rows=5, grid_cols=5,
                                         n_existing=3, n_candidate=0)
        assert sc.candidate_site_ids == ()

    def test_too_many_sites(self):
        with pytest.raises(ValidationError, match="nodes"):
            generate_synthetic_scenario(1, grid_rows=2, grid_cols=2,
                                        n_existing=3, n_candidate=2)

    def test_grid_too_small(self):
        with pytest.raises(ValidationError, match="2x2"):
            generate_synthetic_scenario(1, grid_rows=1, grid_cols=1)

    def test_negative_seed_refused_first(self):
        # a 1x1 grid is refused too, but the seed is checked before anything
        for seed in (-1, np.int64(-5), -2**70):
            with pytest.raises(ValidationError) as info:
                generate_synthetic_scenario(seed, grid_rows=1, grid_cols=1)
            assert str(info.value) == f"seed must be a non-negative integer, got {seed}"

    @pytest.mark.parametrize("seed", [1.0, 1.5, "3", None])
    def test_non_integer_seed_refused(self, seed):
        with pytest.raises(TypeError):
            generate_synthetic_scenario(seed, grid_rows=4, grid_cols=4, n_existing=1,
                                        n_candidate=1)

    def test_integer_like_seeds_draw_as_their_value(self):
        kw = dict(grid_rows=6, grid_cols=6, n_existing=2, n_candidate=3)
        sc = generate_synthetic_scenario(7, **kw)
        assert generate_synthetic_scenario(np.int64(7), **kw) == sc
        assert generate_synthetic_scenario(np.uint8(7), **kw) == sc

    @pytest.mark.parametrize("argument,value", [
        ("population_scale", -1.0), ("population_scale", math.nan),
        ("population_scale", math.inf), ("spacing_m", math.nan),
        ("spacing_m", math.inf), ("spacing_m", 0.0), ("spacing_m", 0.0004),
    ])
    def test_bad_argument_named(self, argument, value):
        with pytest.raises(ValidationError, match=argument):
            generate_synthetic_scenario(1, grid_rows=4, grid_cols=4, n_existing=1,
                                        n_candidate=1, **{argument: value})

    @pytest.mark.parametrize("rows,cols,spacing_m", [(20, 20, 1e6), (3, 2, 4e6)])
    def test_spacing_past_the_globe_refused(self, rows, cols, spacing_m):
        # (3, 2, 4e6) passes lat 90 but not lon 180
        with pytest.raises(ValidationError) as info:
            generate_synthetic_scenario(1, grid_rows=rows, grid_cols=cols, n_existing=1,
                                        n_candidate=1, spacing_m=spacing_m)
        assert str(info.value) == (
            f"spacing_m {spacing_m!r} is too large for a {rows}x{cols} grid: "
            "its far corner would pass lon 180 or lat 90")

    def test_spacing_just_inside_the_globe_accepted(self):
        # the 20x20 grid's far corner passes lon 180 from about 304.5 km
        sc = generate_synthetic_scenario(1, n_existing=1, n_candidate=1, spacing_m=3e5)
        assert max(c.lon for c in sc.network.nodes.values()) > 179.0

    def test_generated_numbers_are_python_floats(self):
        sc = generate_synthetic_scenario(1, grid_rows=4, grid_cols=4, n_existing=1,
                                         n_candidate=1)
        assert {type(e.length_m) for e in sc.network.edges} == {float}
        assert {type(x) for c in sc.network.nodes.values() for x in (c.lon, c.lat)} == {float}

    def test_smallest_spacing_keeps_every_edge(self):
        sc = generate_synthetic_scenario(1, grid_rows=4, grid_cols=4, n_existing=1,
                                         n_candidate=1, spacing_m=0.00053)
        assert all(e.length_m > 0 for e in sc.network.edges)

    def test_city_memory_bounded_by_walk_radius(self):
        """A 60×60 city holds no N×N array: with the N×N reach matrices this
        call peaked at 316 MB, with the stencil at about 5.5 MB."""
        tracemalloc.start()
        try:
            generate_synthetic_scenario(0, grid_rows=60, grid_cols=60,
                                        n_existing=40, n_candidate=250)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_zero_population_scale_allowed(self):
        sc = generate_synthetic_scenario(1, grid_rows=4, grid_cols=4, n_existing=1,
                                         n_candidate=1, population_scale=0.0)
        assert sc.total_population("general") == 0

    def test_sites_on_network_nodes(self):
        sc = generate_synthetic_scenario(5, grid_rows=6, grid_cols=6,
                                         n_existing=2, n_candidate=4)
        node_coords = set(sc.network.nodes.values())
        assert all(s.location in node_coords for s in sc.sites)
        assert all(d.location in node_coords for d in sc.demands)

    def test_later_groups_are_fraction_of_first(self):
        sc = generate_synthetic_scenario(9, grid_rows=5, grid_cols=5,
                                         n_existing=1, n_candidate=2)
        for d in sc.demands:
            assert d.pop_of("elderly") <= d.pop_of("general")


class TestCsvBoundary:
    """One reader and one writer carry every CSV across the boundary."""

    ODD_IDS = ("a,b", 'say "hi"', 'x,"y"', "plain")

    def test_odd_ids_quoted_and_read_back(self, tmp_path):
        nodes = {nid: Coordinate(118.0 + k, 32.0) for k, nid in enumerate(self.ODD_IDS)}
        edges = tuple(Edge(a, b, 100.0) for a, b in zip(self.ODD_IDS, self.ODD_IDS[1:]))
        demands = tuple(DemandPoint(f"d{nid}", c, {"general": 10})
                        for nid, c in nodes.items())
        sites = (FacilitySite('s,"0"', nodes["a,b"], "existing"),)
        scenario = Scenario(RoadNetwork(nodes, edges), demands, sites, (GENERAL,))
        paths = write_scenario_bundle(scenario, tmp_path)
        assert paths["nodes.csv"].read_text().splitlines()[1:3] == [
            '"a,b",118,32', '"say ""hi""",119,32']
        reloaded = load_scenario(*(paths[name] for name in
                                   ("nodes.csv", "edges.csv", "demand.csv", "sites.csv")),
                                 groups=(GENERAL,))
        assert reloaded == scenario

    def test_writer_rows_read_back_by_csv_module(self, tmp_path):
        rows = [("a,b", 'q"', "1"), ("plain", "", "2.5")]
        write_csv(tmp_path / "x.csv", ("k", "v", "n"), rows)
        assert tmp_path.joinpath("x.csv").read_bytes() == (
            b'k,v,n\n"a,b","q""",1\nplain,,2.5\n')
        with open(tmp_path / "x.csv", newline="") as fh:
            assert [tuple(r) for r in csv.reader(fh)][1:] == rows

    def test_reader_orders_cells_by_columns_and_skips_blank_lines(self, tmp_path):
        path = write(tmp_path / "x.csv", "b,extra,a\n2,z,1\n\n4,z,3\n")
        rows = read_csv(path, {"a": lambda raw, col: raw, "b": lambda raw, col: raw},
                        lambda a, b: (a, b))
        assert rows == [("1", "2"), ("3", "4")]

    def test_short_row_reads_as_blank_cells(self, tmp_path):
        nodes = write(tmp_path / "n.csv", "node_id,lon,lat\na,118.7\n")
        with pytest.raises(ParseError, match=r"n\.csv:2: column 'lat'"):
            parse_network(nodes, tmp_path / "e.csv")

    def test_build_error_located(self, tmp_path):
        path = write(tmp_path / "s.csv",
                     "site_id,lon,lat,status,capacity\ns1,118.7,32.0,existing,\n"
                     "s2,118.7,32.0,closed,5\n")
        with pytest.raises(ValidationError, match=r"s\.csv:3: site 's2': unknown status"):
            parse_sites(path)
