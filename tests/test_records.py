"""What every record class offers: the behaviour of a frozen dataclass.

Each of the 17 records (``RunConfig`` mutable, the others frozen) is pinned
here on what callers and users can see: ``dataclasses`` introspection,
equality, hashing, ``repr``, pattern matching, slots, copying and
pickling, the errors of a bad call, and every validation message with the
conversions made on construction.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from accessopt.accessibility import AccessibilityField, CoverageBin, CoverageReport, DecayParams
from accessopt.cli import RunConfig
from accessopt.geodata import (
    DEFAULT_GROUPS,
    Coordinate,
    DemandPoint,
    Edge,
    FacilitySite,
    PopulationGroup,
    RoadNetwork,
    Scenario,
    ValidationError,
)
from accessopt.optimizer import Layout, ObjectiveParams, OptimizationResult, Shortfall
from accessopt.routing import SiteMajor, TravelTimeMatrix

A = Coordinate(118.7, 32.03)
B = Coordinate(118.71, 32.03)
GROUP = PopulationGroup("general", 80.0, 700.0)
NETWORK = RoadNetwork({"a": A, "b": B}, (Edge("a", "b", 120.5),))
DEMAND = DemandPoint("d1", A, {"general": 10})
SITE = FacilitySite("s1", B, "existing")
BIN = CoverageBin("low", 0.0, 10, 0.5)
FIELD = AccessibilityField("general", {"d1": 0.25})

# per record: its field names, the arguments of one instance, and those of
# an instance that differs from it in one field
RECORDS = {
    Coordinate: (("lon", "lat"), (118.7, 32.03), (118.7, 32.04)),
    Edge: (("from_id", "to_id", "length_m", "bidirectional"),
           ("a", "b", 120.5), ("a", "b", 120.5, False)),
    RoadNetwork: (("nodes", "edges"), ({"a": A, "b": B}, (Edge("a", "b", 120.5),)),
                  ({"a": A, "b": B}, ())),
    PopulationGroup: (("name", "walk_speed_m_per_min", "max_walk_m"),
                      ("general", 80.0, 700.0), ("general", 70.0, 700.0)),
    DemandPoint: (("demand_id", "location", "population"),
                  ("d1", A, {"general": 10}), ("d1", A, {"general": 11})),
    FacilitySite: (("site_id", "location", "status", "capacity"),
                   ("s1", B, "existing"), ("s1", B, "candidate")),
    Scenario: (("network", "demands", "sites", "groups"),
               (NETWORK, (DEMAND,), (SITE,), (GROUP,)),
               (NETWORK, (DEMAND,), (SITE,), DEFAULT_GROUPS)),
    DecayParams: (("t_sigma_min",), (8.75,), (10.0,)),
    AccessibilityField: (("group", "scores", "gamma"), ("general", {"d1": 0.25}),
                         ("general", {"d1": 0.25}, 2.0)),
    CoverageBin: (("label", "lower_bound", "population", "share"),
                  ("low", 0.0, 10, 0.5), ("low", 0.0, 10, 0.25)),
    CoverageReport: (("group", "bins"), ("general", (BIN,)), ("elderly", (BIN,))),
    TravelTimeMatrix: (("group", "times", "demand_order", "site_order"),
                       (GROUP, [[1.5, np.inf]], ("d1",), ("s1", "s2")),
                       (GROUP, [[1.5, np.inf]], ("d1",), ("s1", "s2"))),
    ObjectiveParams: (("alpha", "beta", "a_sigma", "gamma", "primary_group",
                       "constraint_groups"), (), (2.0,)),
    Layout: (("open_candidates",), (frozenset({"c1"}),), (frozenset({"c2"}),)),
    Shortfall: (("demand_id", "group", "score"), ("d1", "general", 0.1),
                ("d1", "elderly", 0.1)),
    OptimizationResult: (("layout", "objective", "feasible", "per_group_fields", "coverage",
                          "shortfalls", "trace"),
                         (Layout(frozenset({"c1"})), 3.5, True, {"general": FIELD}, {}, (),
                          (("open", "c1"),)),
                         (Layout(frozenset({"c1"})), 3.25, True, {"general": FIELD}, {}, (),
                          (("open", "c1"),))),
    RunConfig: (tuple(f.name for f in dataclasses.fields(RunConfig)), (), ("plan",)),
}
SLOTTED = (Coordinate, Edge, DemandPoint, FacilitySite)
# records whose hash would hash a dict
UNHASHABLE = (RoadNetwork, DemandPoint, Scenario, AccessibilityField, OptimizationResult)
IDS = [cls.__name__ for cls in RECORDS]


def make(cls, which=1):
    return cls(*RECORDS[cls][which])


def values(record):
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


def same_state(a, b):
    """Field by field equal, a travel-time array by its dense minutes."""
    assert type(a) is type(b)
    for x, y in zip(values(a), values(b)):
        if isinstance(x, SiteMajor):
            np.testing.assert_array_equal(np.asarray(x), np.asarray(y))
        else:
            assert x == y
    return True


def test_every_record_is_listed():
    assert len(RECORDS) == 17
    assert RunConfig.__dataclass_fields__["out"].default == "out"
    assert RECORDS[RunConfig][0][:6] == ("bundle", "nodes", "edges", "demand", "sites", "out")
    assert len(RECORDS[RunConfig][0]) == 28


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_fields_replace_and_asdict(cls):
    names, args, _ = RECORDS[cls]
    record = make(cls)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(record)
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert cls.__match_args__ == names
    assert set(dataclasses.asdict(record)) == set(names)
    again = dataclasses.replace(record)
    assert again is not record and same_state(again, record)
    if cls is not TravelTimeMatrix:
        assert dataclasses.replace(record, **{names[0]: values(make(cls, 2))[0]}) \
            == cls(values(make(cls, 2))[0], *values(record)[1:])


def test_asdict_recurses_into_records():
    assert dataclasses.asdict(Coordinate(1.0, 2.0)) == {"lon": 1.0, "lat": 2.0}
    assert dataclasses.asdict(DEMAND) == {"demand_id": "d1",
                                          "location": {"lon": 118.7, "lat": 32.03},
                                          "population": {"general": 10}}
    assert dataclasses.asdict(CoverageReport("general", (BIN,))) == {
        "group": "general",
        "bins": ({"label": "low", "lower_bound": 0.0, "population": 10, "share": 0.5},)}
    assert dataclasses.asdict(Shortfall("d1", "general", 0.1)) == {
        "demand_id": "d1", "group": "general", "score": 0.1}


def test_replace_validates():
    with pytest.raises(ValidationError, match=r"^lat 95\.5 outside \[-90, 90\]$"):
        dataclasses.replace(A, lat=95.5)
    with pytest.raises(ValidationError, match="must be finite and > 0"):
        dataclasses.replace(SITE, capacity=0.0)
    assert dataclasses.replace(SITE, capacity=10.0).capacity == 10.0


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_equality(cls):
    record, twin, other = make(cls), make(cls), make(cls, 2)
    assert record.__eq__(object()) is NotImplemented
    assert record != object() and not record == object()
    assert record != other
    if cls is TravelTimeMatrix:  # eq=False: equal only to itself
        assert record == record and record != twin
    else:
        assert record == twin and not record != twin
        assert record.__eq__(twin) is True


def test_equality_is_by_type_not_by_fields():
    @dataclasses.dataclass(frozen=True)
    class Other:
        lon: float
        lat: float

    assert Coordinate(1.0, 2.0) != Other(1.0, 2.0)
    assert Coordinate(1.0, 2.0).__eq__(Other(1.0, 2.0)) is NotImplemented


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_hash(cls):
    record = make(cls)
    if cls is RunConfig:
        assert cls.__hash__ is None
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    elif cls is TravelTimeMatrix:
        assert hash(record) == object.__hash__(record)
        assert hash(record) != hash(make(cls))
    elif cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    else:
        assert hash(record) == hash(values(record))
        assert hash(record) == hash(make(cls))
        assert {record: 1}[make(cls)] == 1


def test_repr():
    assert repr(A) == "Coordinate(lon=118.7, lat=32.03)"
    assert repr(Edge("a", "b", 120.5)) == \
        "Edge(from_id='a', to_id='b', length_m=120.5, bidirectional=True)"
    assert repr(NETWORK) == (
        "RoadNetwork(nodes={'a': Coordinate(lon=118.7, lat=32.03), "
        "'b': Coordinate(lon=118.71, lat=32.03)}, edges=(Edge(from_id='a', to_id='b', "
        "length_m=120.5, bidirectional=True),))")
    assert repr(GROUP) == \
        "PopulationGroup(name='general', walk_speed_m_per_min=80.0, max_walk_m=700.0)"
    assert repr(DEMAND) == ("DemandPoint(demand_id='d1', location=Coordinate(lon=118.7, "
                            "lat=32.03), population={'general': 10})")
    assert repr(SITE) == ("FacilitySite(site_id='s1', location=Coordinate(lon=118.71, "
                          "lat=32.03), status='existing', capacity=1500.0)")
    assert repr(make(Scenario)) == (f"Scenario(network={NETWORK!r}, demands=({DEMAND!r},), "
                                    f"sites=({SITE!r},), groups=({GROUP!r},))")
    assert repr(DecayParams(8.75)) == "DecayParams(t_sigma_min=8.75)"
    assert repr(FIELD) == "AccessibilityField(group='general', scores={'d1': 0.25}, gamma=1.0)"
    assert repr(BIN) == "CoverageBin(label='low', lower_bound=0.0, population=10, share=0.5)"
    assert repr(make(CoverageReport)) == f"CoverageReport(group='general', bins=({BIN!r},))"
    matrix = make(TravelTimeMatrix)
    assert repr(matrix) == (f"TravelTimeMatrix(group={GROUP!r}, times={matrix.times!r}, "
                            "demand_order=('d1',), site_order=('s1', 's2'))")
    assert repr(ObjectiveParams()) == (
        "ObjectiveParams(alpha=1.0, beta=1.0, a_sigma=0.135, gamma=1.0, "
        "primary_group='general', constraint_groups=('general',))")
    assert repr(Layout(frozenset({"c1"}))) == "Layout(open_candidates=frozenset({'c1'}))"
    assert repr(Shortfall("d1", "general", 0.1)) == \
        "Shortfall(demand_id='d1', group='general', score=0.1)"
    assert repr(make(OptimizationResult)) == (
        "OptimizationResult(layout=Layout(open_candidates=frozenset({'c1'})), objective=3.5, "
        f"feasible=True, per_group_fields={{'general': {FIELD!r}}}, coverage={{}}, "
        "shortfalls=(), trace=(('open', 'c1'),))")
    config = RunConfig()
    assert repr(config) == "RunConfig(" + ", ".join(
        f"{name}={getattr(config, name)!r}" for name in RECORDS[RunConfig][0]) + ")"
    assert repr(config).startswith("RunConfig(bundle=None, nodes=None, edges=None, "
                                   "demand=None, sites=None, out='out', groups=(")


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_match_args(cls):
    record = make(cls)
    match record:
        case Coordinate(lon, lat):
            assert (lon, lat) == (118.7, 32.03)
        case RunConfig(bundle, nodes):
            assert (bundle, nodes) == (None, None)
        case cls(first):  # every other record binds its first field
            assert first is getattr(record, RECORDS[cls][0][0])
        case _:
            pytest.fail(f"{cls.__name__} did not match")


@pytest.mark.parametrize("cls", SLOTTED, ids=[c.__name__ for c in SLOTTED])
def test_slotted_records_have_no_dict(cls):
    record = make(cls)
    assert not hasattr(record, "__dict__")
    assert set(RECORDS[cls][0]) <= set(cls.__slots__)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_copy_deepcopy_and_pickle(cls):
    record = make(cls)
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record)),
                 pickle.loads(pickle.dumps(record, protocol=2))):
        assert twin is not record and same_state(twin, record)
        if cls is not TravelTimeMatrix:
            assert twin == record


def test_copies_stay_frozen():
    for twin in (copy.copy(A), copy.deepcopy(A), pickle.loads(pickle.dumps(A))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            twin.lon = 0.0


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_frozen_or_not(cls):
    record = make(cls)
    name = RECORDS[cls][0][0]
    if cls is RunConfig:
        record.out = "plan"
        record.note = "x"
        del record.note
        assert record.out == "plan"
        return
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    assert same_state(record, make(cls))


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_bad_calls_raise_type_error(cls):
    names, args, _ = RECORDS[cls]
    full = values(make(cls))
    with pytest.raises(TypeError):  # unknown
        cls(*args, nope=1)
    with pytest.raises(TypeError):  # one too many
        cls(*full, None)
    with pytest.raises(TypeError):  # repeated
        cls(*full, **{names[0]: full[0]})
    if args:  # missing: every record with arguments has no default for its first
        with pytest.raises(TypeError):
            cls(**dict(zip(names[1:], full[1:])))
        with pytest.raises(TypeError):
            cls()
    keywords = cls(**dict(zip(names, args)))
    assert same_state(keywords, make(cls))


def test_defaults():
    assert Edge("a", "b", 1.0).bidirectional is True
    assert SITE.capacity == 1500.0
    assert FIELD.gamma == 1.0
    assert ObjectiveParams() == ObjectiveParams(1.0, 1.0, 0.135, 1.0, "general", ("general",))
    config = RunConfig(out="plan")
    assert (config.out, config.groups, config.seed, config.bins) == \
        ("plan", DEFAULT_GROUPS, 0, None)
    assert RunConfig() == RunConfig() and RunConfig() != config


def test_construction_converts():
    network = RoadNetwork(iter([("a", A)]), [])
    assert type(network.nodes) is dict and network.edges == ()
    nodes = {"a": A}
    assert RoadNetwork(nodes, ()).nodes is not nodes
    demand = DemandPoint("d", A, [(1, np.int64(3))])
    assert demand.population == {"1": 3} and type(demand.population["1"]) is int
    scenario = Scenario(NETWORK, [DEMAND], [SITE], [GROUP])
    assert (scenario.demands, scenario.sites, scenario.groups) == ((DEMAND,), (SITE,), (GROUP,))
    scores = {"d1": 0.25}
    assert AccessibilityField("g", scores).scores is not scores
    matrix = TravelTimeMatrix(GROUP, [[1.5, np.inf]], ["d1"], ["s1", "s2"])
    assert isinstance(matrix.times, SiteMajor)
    assert (matrix.demand_order, matrix.site_order) == (("d1",), ("s1", "s2"))
    assert ObjectiveParams(constraint_groups=["general"]).constraint_groups == ("general",)
    assert Layout({"c1", "c2"}).open_candidates == frozenset({"c1", "c2"})
    result = OptimizationResult(Layout(()), 1.0, True, {}, {}, [], [("open", "c1")])
    assert (result.shortfalls, result.trace) == ((), (("open", "c1"),))


def test_slotted_records_take_keywords():
    assert Coordinate(lat=2.0, lon=1.0) == Coordinate(1.0, 2.0)
    assert Edge("a", "b", length_m=2.0, bidirectional=False).bidirectional is False
    assert DemandPoint(demand_id="d", location=A, population={}).population == {}
    assert FacilitySite("s", A, "candidate", capacity=10.0).capacity == 10.0


VALIDATION = [
    (lambda: Coordinate(200.0, 0.0), r"lon 200.0 outside [-180, 180]"),
    (lambda: Coordinate(200.0, 95.5), r"lon 200.0 outside [-180, 180]"),
    (lambda: Coordinate(np.float64(-180.5), 0.0), r"lon -180.5 outside [-180, 180]"),
    (lambda: Coordinate(float("nan"), 0.0), r"lon nan outside [-180, 180]"),
    (lambda: Coordinate(0.0, 95.5), r"lat 95.5 outside [-90, 90]"),
    (lambda: Edge("a", "b", 0.0), "edge a->b: length_m must be finite and > 0, got 0.0"),
    (lambda: Edge("a", "b", float("inf")),
     "edge a->b: length_m must be finite and > 0, got inf"),
    (lambda: RoadNetwork({"a": A}, (Edge("a", "c", 1.0),)),
     "edge a->c references unknown node 'c'"),
    (lambda: RoadNetwork({"a": A, "b": B}, (Edge("a", "b", 1.0), Edge("b", "a", 2.0))),
     "duplicate edge b->a"),
    (lambda: PopulationGroup("", 80.0, 700.0), "group name must be non-empty"),
    (lambda: PopulationGroup("g", 0.0, 700.0),
     "group 'g': walk speed must be finite and > 0, got 0.0"),
    (lambda: PopulationGroup("g", 80.0, -1.0),
     "group 'g': max walk distance must be finite and > 0, got -1.0"),
    (lambda: PopulationGroup("g", 1e-300, 1e300),
     "group 'g': travel-time threshold (max walk / walk speed) must be finite and > 0, "
     "got inf"),
    (lambda: DemandPoint("d1", A, {"general": 1.5}),
     "demand 'd1': population['general'] must be an integer, got 1.5"),
    (lambda: DemandPoint("d1", A, {"general": -1}),
     "demand 'd1': population['general'] must be non-negative, got -1"),
    (lambda: FacilitySite("s1", A, "open"),
     "site 's1': unknown status 'open' (expected one of existing, candidate)"),
    (lambda: FacilitySite("s1", A, "candidate", 0.0),
     "site 's1': capacity must be finite and > 0, got 0.0"),
    (lambda: Scenario(NETWORK, (), (SITE,), (GROUP,)),
     "scenario needs at least one demand point"),
    (lambda: Scenario(NETWORK, (DEMAND,), (), (GROUP,)),
     "scenario needs at least one facility site"),
    (lambda: Scenario(NETWORK, (DEMAND,), (SITE,), ()),
     "scenario needs at least one population group"),
    (lambda: Scenario(NETWORK, (DEMAND, DEMAND), (SITE,), (GROUP,)),
     "duplicate demand_id 'd1'"),
    (lambda: Scenario(NETWORK, (DEMAND,), (SITE, SITE), (GROUP,)), "duplicate site_id 's1'"),
    (lambda: Scenario(NETWORK, (DEMAND,), (SITE,), (GROUP, GROUP)),
     "duplicate group name 'general'"),
    (lambda: Scenario(NETWORK, (DemandPoint("d1", A, {"x": 1, "w": 2}),), (SITE,), (GROUP,)),
     "demand 'd1' carries population for undeclared group(s): w, x"),
    (lambda: DecayParams(0.0), "t_sigma_min must be finite and > 0, got 0.0"),
    (lambda: AccessibilityField("g", {"d1": -0.1}),
     "accessibility score of 'd1' must be finite and non-negative, got -0.1"),
    (lambda: AccessibilityField("g", {"d1": float("nan")}),
     "accessibility score of 'd1' must be finite and non-negative, got nan"),
    (lambda: TravelTimeMatrix(GROUP, [[1.0, 2.0]], ("d1",), ("s1",)),
     "travel-time matrix shape (1, 2) does not match 1 demands x 1 sites"),
    (lambda: TravelTimeMatrix(GROUP, [[-1.0]], ("d1",), ("s1",)),
     "travel times must be >= 0 or unreachable"),
    (lambda: ObjectiveParams(alpha=float("inf")),
     "alpha, beta, a_sigma and gamma must be finite"),
    (lambda: ObjectiveParams(beta=-1.0), "alpha, beta and a_sigma must be non-negative"),
    (lambda: ObjectiveParams(gamma=0.0), "gamma must be > 0"),
    (lambda: ObjectiveParams(constraint_groups=()), "at least one constraint group required"),
    (lambda: ObjectiveParams(constraint_groups=("general", "general")),
     "constraint group 'general' is listed twice"),
    (lambda: OptimizationResult(Layout(()), 1.0, False, {}, {}, (), ()),
     "feasible flag contradicts the shortfall list"),
]


@pytest.mark.parametrize("build, message", VALIDATION, ids=range(len(VALIDATION)))
def test_validation_messages(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


FROZEN = [cls for cls in RECORDS if cls is not RunConfig]


@pytest.mark.parametrize("cls", FROZEN, ids=[c.__name__ for c in FROZEN])
def test_frozen_records_refuse_every_name(cls):
    """A name that is no field is refused as a field is, slotted or not."""
    record = make(cls)
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'x'"):
        record.x = 1
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'x'"):
        del record.x
