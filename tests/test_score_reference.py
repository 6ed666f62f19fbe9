"""``score`` against ``score --dump-matrix``, its routing-every-site oracle.

Without ``--dump-matrix``, ``score`` routes from the existing sites alone
and weighs only their columns.  With it, every site is routed, because the
dumped matrices list every site, and the existing sites' columns are then
scored.  A site's ratio reads only its own column, so both runs must write
the same bytes to every output that is not a matrix.
"""

import dataclasses
import warnings

import pytest

from accessopt import routing
from accessopt.accessibility import supply_demand_ratio
from accessopt.cli import main
from accessopt.geodata import (
    CANDIDATE,
    EXISTING,
    Coordinate,
    FacilitySite,
    RoadNetwork,
    generate_synthetic_scenario,
    load_scenario,
    write_scenario_bundle,
)
from accessopt.routing import SnapDistanceWarning, build_travel_time_matrices

from conftest import ACCEPTANCE_SEED

CITY_40 = ["--grid-rows", "40", "--grid-cols", "40", "--n-existing", "40",
           "--n-candidate", "200"]


def synth(tmp_path, *args):
    bundle = tmp_path / "bundle"
    assert main(["synth", *args, "--out", str(bundle)]) == 0
    return ["--config", str(bundle / "run.cfg")]


def write_bundle(tmp_path, scenario):
    write_scenario_bundle(scenario, tmp_path / "bundle")
    return ["--bundle", str(tmp_path / "bundle")]


def score_both_ways(tmp_path, source):
    """The plain run's output directory, after checking it against the dumping run's."""
    plain, dumped = tmp_path / "plain", tmp_path / "dumped"
    assert main(["score", *source, "--out", str(plain)]) == 0
    assert main(["score", *source, "--out", str(dumped), "--dump-matrix"]) == 0
    names = sorted(p.name for p in plain.iterdir())
    matrices = sorted(p.name for p in dumped.iterdir() if p.name not in names)
    assert matrices == ["travel_times_elderly.csv", "travel_times_general.csv"]
    assert "layout.geojson" in names and "accessibility_general.csv" in names
    for name in names:
        assert (plain / name).read_bytes() == (dumped / name).read_bytes(), name
    return plain


def scores(out, group="general"):
    lines = (out / f"accessibility_{group}.csv").read_text().splitlines()[1:]
    return [float(line.rsplit(",", 1)[1]) for line in lines]


def small_city():
    return generate_synthetic_scenario(3, grid_rows=8, grid_cols=8, n_existing=3,
                                       n_candidate=6)


def with_sites(scenario, sites, extra_nodes=()):
    network = RoadNetwork({**scenario.network.nodes, **dict(extra_nodes)},
                          scenario.network.edges)
    return dataclasses.replace(scenario, network=network, sites=tuple(sites))


def test_seed7(tmp_path):
    score_both_ways(tmp_path, synth(tmp_path, "--seed", str(ACCEPTANCE_SEED)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_city_40(tmp_path, seed):
    out = score_both_ways(tmp_path, synth(tmp_path, "--seed", str(seed), *CITY_40))
    assert max(scores(out)) > 0


@pytest.mark.filterwarnings("ignore::accessopt.routing.SnapDistanceWarning")
def test_idle_existing_site(tmp_path):
    """An existing site on a node no road joins reaches no demand: ratio 0."""
    city = small_city()
    far = Coordinate(city.sites[0].location.lon + 0.05, city.sites[0].location.lat)
    idle = FacilitySite("s_idle", far, EXISTING, 900.0)
    sites = [*city.sites[:2], idle, *city.sites[2:]]
    scenario = with_sites(city, sites, [("n_far", far)])
    matrices = build_travel_time_matrices(scenario)
    for matrix in matrices.values():
        assert supply_demand_ratio(idle, matrix, scenario.demands).idle
    out = score_both_ways(tmp_path, write_bundle(tmp_path, scenario))
    assert max(scores(out)) > 0


def test_no_existing_site(tmp_path):
    """With every site a candidate nothing is open: every score is 0."""
    city = small_city()
    sites = [dataclasses.replace(s, status=CANDIDATE) for s in city.sites]
    out = score_both_ways(tmp_path, write_bundle(tmp_path, with_sites(city, sites)))
    for group in ("general", "elderly"):
        assert set(scores(out, group)) == {0.0}


def test_searches_per_site(tmp_path, monkeypatch):
    """One shortest-path search per existing site, or per site with --dump-matrix."""
    source = synth(tmp_path, "--seed", str(ACCEPTANCE_SEED))
    scenario = load_scenario(*(tmp_path / "bundle" / f"{name}.csv"
                               for name in ("nodes", "edges", "demand", "sites")))
    sources = []
    dijkstra = routing._dijkstra
    monkeypatch.setattr(routing, "_dijkstra",
                        lambda adj, source, *rest: sources.append(source)
                        or dijkstra(adj, source, *rest))
    assert main(["score", *source, "--out", str(tmp_path / "plain")]) == 0
    assert len(sources) == len(scenario.existing_site_ids) == 16
    sources.clear()
    assert main(["score", *source, "--out", str(tmp_path / "dumped"), "--dump-matrix"]) == 0
    assert len(sources) == len(scenario.sites) == 56


def test_snap_warnings_cover_the_routed_sites(tmp_path):
    """A candidate far off the network is snapped, and warned about, only
    when every site is routed."""
    city = small_city()
    lost = Coordinate(city.sites[-1].location.lon, city.sites[-1].location.lat + 0.05)
    sites = [*city.sites, FacilitySite("s_lost", lost, CANDIDATE)]
    source = write_bundle(tmp_path, with_sites(city, sites))
    for flags, expected in (([], 0), (["--dump-matrix"], 1)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["score", *source, "--out", str(tmp_path / "o"), *flags]) == 0
        snaps = [w for w in caught if issubclass(w.category, SnapDistanceWarning)]
        assert len(snaps) == expected
