"""``layout.geojson`` against the dicts it was once dumped from.

``geojson_payload`` is the builder the command line handed to
``json.dumps(indent=2, allow_nan=False)``.  The writer fills a fixed
template per feature instead, and must give the same bytes: for
synthetic cities, and for ids, labels and group names that JSON has to
escape, with integer and numpy numbers where floats usually stand.
"""

import json
import tracemalloc

import numpy as np
import pytest

from accessopt.accessibility import (
    AccessibilityField,
    accessibility_scores,
    assign_bin,
    default_bins,
)
from accessopt import cli
from accessopt.cli import _write_geojson
from accessopt.geodata import (
    CANDIDATE,
    EXISTING,
    Coordinate,
    DemandPoint,
    FacilitySite,
    PopulationGroup,
    RoadNetwork,
    Scenario,
    generate_synthetic_scenario,
)
from accessopt.routing import build_travel_time_matrices


def feature(location, properties: dict) -> dict:
    return {
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [location.lon, location.lat]},
        "properties": properties,
    }


def geojson_payload(scenario, open_ids, fields, bin_spec) -> dict:
    labels = [label for label, _ in bin_spec]
    bounds = [lower for _, lower in bin_spec]
    features = [
        feature(s.location, {"site_id": s.site_id, "status": s.status,
                             "opened": s.site_id in open_ids, "capacity": s.capacity})
        for s in scenario.sites
    ]
    for d in scenario.demands:
        props = {"demand_id": d.demand_id}
        for name, field in fields.items():
            score = field.scores[d.demand_id]
            props[f"A_{name}"] = score
            props[f"bin_{name}"] = labels[assign_bin(bounds, score)]
            props[f"pop_{name}"] = d.pop_of(name)
        features.append(feature(d.location, props))
    return {"type": "FeatureCollection", "features": features}


def assert_matches_payload(tmp_path, scenario, open_ids, fields, bin_spec):
    path = tmp_path / "layout.geojson"
    _write_geojson(path, scenario, open_ids, fields, bin_spec)
    payload = geojson_payload(scenario, open_ids, fields, bin_spec)
    want = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    assert path.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("seed", range(6))
def test_synthetic_layouts(tmp_path, seed):
    scenario = generate_synthetic_scenario(seed, grid_rows=10, grid_cols=9,
                                           n_existing=4, n_candidate=10)
    rng = np.random.default_rng(seed)
    open_ids = {sid for sid in scenario.site_ids if rng.random() < 0.5}
    matrices = build_travel_time_matrices(scenario)
    fields = {g.name: accessibility_scores(scenario, matrices[g.name], open_ids)
              for g in scenario.groups}
    bin_spec = default_bins(float(rng.choice([0.01, 0.135, 1.0])))
    assert_matches_payload(tmp_path, scenario, open_ids, fields, bin_spec)


@pytest.mark.parametrize("batch", [1, 2, 7, 90, 91])
def test_any_batch_size(tmp_path, monkeypatch, batch):
    """Features are written in batches; the batch size changes no byte."""
    monkeypatch.setattr(cli, "_GEOJSON_BATCH", batch)
    test_synthetic_layouts(tmp_path, 3)


ODD_TEXT = ['quote "q"', "back\\slash", "tab\tstop", "new\nline", "Zürich Spital",
            "医院", "clinic \U0001F3E5", "percent %s %%", "brace {0}", "\x00\x1f\x7f"]


def test_text_that_json_escapes(tmp_path):
    """Ids, bin labels and group names with quotes, backslashes, control
    characters and non-ASCII text; integer and numpy numbers."""
    groups = (PopulationGroup('all "%s"', 80.0, 700.0),
              PopulationGroup("älter\t%", 70, 700))
    network = RoadNetwork({"n0": Coordinate(118, 32)}, ())
    demands = tuple(
        DemandPoint(f"d{k} {text}", Coordinate(118.5 + k * 1e-3, -32.25),
                    {groups[0].name: 10 * k, groups[1].name: 2 ** 70 + k})
        for k, text in enumerate(ODD_TEXT)
    )
    sites = (
        FacilitySite(ODD_TEXT[0], Coordinate(118, 32), EXISTING, 1500),
        FacilitySite(ODD_TEXT[3], Coordinate(118.1, 32.0), CANDIDATE, np.float64(0.1)),
        FacilitySite(ODD_TEXT[6], Coordinate(-0.0, 1e-300), EXISTING, 1e300),
    )
    scenario = Scenario(network, demands, sites, groups)
    values = [0, 0.1, 1e-300, 1e16, 5e-324, 2.5, 0.0, 1 / 3, 12345678.9, 7]
    fields = {g.name: AccessibilityField(g.name, {d.demand_id: v * (i + 1)
                                                  for d, v in zip(demands, values)})
              for i, g in enumerate(groups)}
    bin_spec = (("none \"0\"", 0.0), ("mid\n%", 0.5), ("最高", 10.0))
    open_ids = {ODD_TEXT[0], ODD_TEXT[6]}
    assert_matches_payload(tmp_path, scenario, open_ids, fields, bin_spec)


def test_columns_whose_sum_overflows(tmp_path):
    """Finite floats whose column sum is infinite are written as they are."""
    group = PopulationGroup("general", 80.0, 700.0)
    demands = tuple(DemandPoint(f"d{k}", Coordinate(179.5, 89.5), {"general": 1})
                    for k in range(3))
    sites = tuple(FacilitySite(f"s{k}", Coordinate(-179.5, -89.5), EXISTING, 1e308)
                  for k in range(3))
    scenario = Scenario(RoadNetwork({"n0": Coordinate(0, 0)}, ()), demands, sites, (group,))
    fields = {"general": AccessibilityField("general", {d.demand_id: 1.5e308
                                                        for d in demands})}
    assert_matches_payload(tmp_path, scenario, {"s1"}, fields, default_bins(0.135))


def test_memory_does_not_grow_with_the_city(tmp_path):
    """The writer holds a batch of features, never the whole text: its
    tracemalloc peak is about 0.8 MB at 50×50 and at 100×100, whose file
    is 4.6 MB.  Formatting every batch before writing peaked at 1.7 and
    5.0 MB."""
    peaks = []
    for side in (50, 100):
        scenario = generate_synthetic_scenario(0, grid_rows=side, grid_cols=side,
                                               n_existing=60, n_candidate=100)
        rng = np.random.default_rng(side)
        fields = {g.name: AccessibilityField(g.name, dict(zip(
            scenario.demand_ids, rng.random(len(scenario.demands)).tolist())))
            for g in scenario.groups}
        path = tmp_path / f"layout{side}.geojson"
        tracemalloc.start()
        try:
            _write_geojson(path, scenario, set(scenario.existing_site_ids), fields,
                           default_bins(0.135))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]
    assert peaks[1] < path.stat().st_size / 3
