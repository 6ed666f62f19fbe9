"""``geodata.read_csv`` against the row-at-a-time reader it replaced.

``read_csv_by_row`` parses each row's cells with the cell parsers and
builds the row before it reads the next, so the first error it meets is
the one a reader that parses a column at a time must raise.  Every case
reads the same file with both readers, through the package's own
``parse_*`` functions: both must give ``==`` objects, or both the same
exception type with the same message.  The cases are random bundles,
every damage of ``test_parser_fuzz.py``, and random tables with short
rows, blank lines and quoted cells that hold commas, quotes and line
breaks, whose errors may sit in several rows and columns at once.
"""

import csv
import io
import shutil

import numpy as np
import pytest

from accessopt import geodata
from accessopt.cli import main
from accessopt.geodata import (
    DEFAULT_GROUPS,
    InputError,
    SchemaError,
    generate_synthetic_scenario,
    parse_demand,
    parse_network,
    parse_sites,
    write_scenario_bundle,
)
from conftest import random_scenario
from test_parser_fuzz import CSV_FILES, KINDS, damage_csv


def read_csv_by_row(path, columns, build, check=None) -> list:
    """The reader as it was: one row parsed and built, then checked against
    the rows before it, at a time."""
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
                clash = check(rows) if check is not None else None
                if clash is not None:
                    raise clash[1]
            except InputError as exc:
                raise type(exc)(f"{path}:{reader.line_num}: {exc}") from None
    return rows


def outcome(load):
    try:
        return ("value", load())
    except InputError as exc:
        return ("error", type(exc), str(exc))


def assert_same_as_by_row(monkeypatch, load):
    got = outcome(load)
    with monkeypatch.context() as m:
        m.setattr(geodata, "read_csv", read_csv_by_row)
        want = outcome(load)
    assert got == want
    return got


def load_bundle(directory, groups=DEFAULT_GROUPS):
    return lambda: geodata.load_scenario(*(directory / name for name in CSV_FILES),
                                         groups=groups)


@pytest.mark.parametrize("seed", range(20))
def test_random_bundles(monkeypatch, tmp_path, seed):
    if seed % 2:
        scenario = random_scenario(seed)
    else:
        rng = np.random.default_rng(seed)
        rows, cols = (int(v) for v in rng.integers(2, 9, size=2))
        n_sites = int(rng.integers(1, rows * cols + 1))
        existing = int(rng.integers(0, n_sites + 1))
        scenario = generate_synthetic_scenario(seed, grid_rows=rows, grid_cols=cols,
                                               n_existing=existing,
                                               n_candidate=n_sites - existing)
    write_scenario_bundle(scenario, tmp_path)
    got = assert_same_as_by_row(monkeypatch, load_bundle(tmp_path, scenario.groups))
    assert got == ("value", scenario)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("reader") / "bundle"
    assert main(["synth", "--seed", "1", "--grid-rows", "5", "--grid-cols", "5",
                 "--n-existing", "2", "--n-candidate", "3", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("seed", range(300))
def test_fuzz_damages(monkeypatch, bundle, tmp_path, seed):
    """The damages of ``test_parser_fuzz.py``, with its seeds and files."""
    rng = np.random.default_rng(seed)
    target = CSV_FILES[seed % len(CSV_FILES)]
    damaged = tmp_path / "bundle"
    shutil.copytree(bundle, damaged)
    text, _, _ = damage_csv((bundle / target).read_text(), rng)
    (damaged / target).write_text(text)
    assert_same_as_by_row(monkeypatch, load_bundle(damaged))


def test_every_damage_kind_drawn():
    drawn = {damage_csv("a,b\n1,2\n3,4\n", np.random.default_rng(seed))[1]
             for seed in range(300)}
    assert drawn == set(KINDS)


# cells a random table draws from, per column kind: valid values, values
# each parser refuses, padding, and text that CSV has to quote
ODD = ("a,b", 'say "hi"', "two\nlines", "")
POOLS = {
    "id": ("n0", "n1", "n2", " n1 ", "  ", *ODD),
    "number": ("118.7", " 32.0 ", "1e-3", "200", "-1", "nan", "inf", "1e999", "abc",
               "1_0", *ODD),
    "count": ("0", "7", " 12 ", "-3", "1.5", "1e3", *ODD),
    "direction": ("", "0", "1", " 1 ", "2", "yes", *ODD),
    "status": ("existing", "candidate", " existing ", "closed", *ODD),
    "capacity": ("", " ", "5", "1500", "0", "-5", "x", *ODD),
}
FILES = {
    "nodes.csv": {"node_id": "id", "lon": "number", "lat": "number"},
    "edges.csv": {"from_id": "id", "to_id": "id", "length_m": "number",
                  "bidirectional": "direction"},
    "demand.csv": {"demand_id": "id", "lon": "number", "lat": "number",
                   "pop_general": "count", "pop_elderly": "count"},
    "sites.csv": {"site_id": "id", "lon": "number", "lat": "number", "status": "status",
                  "capacity": "capacity"},
}
NODES = "node_id,lon,lat\nn0,118.7,32.0\nn1,118.71,32.0\nn2,118.72,32.0\n"


def random_table(rng, columns: dict) -> str:
    """A header in random order, maybe with a column dropped or added, then
    random rows: valid ones mostly, some cut short, blank lines between."""
    header = list(columns)
    rng.shuffle(header)
    if rng.random() < 0.05:
        header.pop(int(rng.integers(len(header))))
    if rng.random() < 0.3:
        header.insert(int(rng.integers(len(header) + 1)), "note")
    lines = []
    for _ in range(int(rng.integers(0, 9))):
        if rng.random() < 0.15:
            lines.append([])
            continue
        p_odd = 0.02 if rng.random() < 0.5 else 0.3
        row = []
        for name in header:
            pool = POOLS[columns.get(name, "id")]
            pick = int(rng.integers(len(pool))) if rng.random() < p_odd else int(
                rng.integers(min(3, len(pool))))
            row.append(pool[pick])
        if rng.random() < 0.1:
            row = row[:int(rng.integers(len(row)))]
        lines.append(row)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in lines:
        writer.writerow(row)  # an empty row is a blank line
    return out.getvalue()


N_TABLES = 400


def table_case(tmp_path, seed):
    """(file name, a call that reads the random table of ``seed`` through its
    parse function)."""
    rng = np.random.default_rng(50_000 + seed)
    name = list(FILES)[seed % len(FILES)]
    path = tmp_path / name
    path.write_text(random_table(rng, FILES[name]), encoding="utf-8")
    return name, parse_call(tmp_path, name, path)


def parse_call(tmp_path, name, path):
    """A call that reads ``path`` as the bundle file ``name``."""
    nodes = tmp_path / "nodes_ok.csv"
    nodes.write_text(NODES, encoding="utf-8")
    empty_edges = tmp_path / "no_edges.csv"
    empty_edges.write_text("from_id,to_id,length_m,bidirectional\n", encoding="utf-8")
    return {
        "nodes.csv": lambda: parse_network(path, empty_edges),
        "edges.csv": lambda: parse_network(nodes, path),
        "demand.csv": lambda: parse_demand(path, DEFAULT_GROUPS),
        "sites.csv": lambda: parse_sites(path, default_capacity=321.0),
    }[name]


@pytest.mark.parametrize("seed", range(N_TABLES))
def test_random_tables(monkeypatch, tmp_path, seed):
    assert_same_as_by_row(monkeypatch, table_case(tmp_path, seed)[1])


def test_random_tables_reach_every_outcome(tmp_path):
    """Each file's tables give values, schema, parse and validation errors."""
    seen = set()
    for seed in range(N_TABLES):
        name, load = table_case(tmp_path, seed)
        result = outcome(load)
        seen.add((name, "value" if result[0] == "value" else result[1].__name__))
    kinds = ("value", "SchemaError", "ParseError", "ValidationError")
    assert seen == {(name, kind) for name in FILES for kind in kinds}


def test_earliest_error_wins_across_columns(monkeypatch, tmp_path):
    """A build error in row 2 comes before bad cells in rows 3 and 4; in one
    row the bad cell of the first listed column comes first."""
    path = tmp_path / "sites.csv"
    for text in (
        "capacity,status,lat,lon,site_id\n1,existing,32,118,s0\n1,closed,32,118,s1\n"
        "1,existing,x,118,s2\n",
        "capacity,status,lat,lon,site_id\n1,existing,32,118,s0\n1,existing,x,y,s1\n",
        'site_id,lon,lat,status,capacity\n"a\nb",118,32,existing,\ns1,118,32,existing,x\n',
        "site_id,lon,lat,status,capacity\ns0,118,32,existing,\ns0,x,32,existing,\n",
    ):
        path.write_text(text, encoding="utf-8")
        result = assert_same_as_by_row(monkeypatch, lambda: parse_sites(path))
        assert result[0] == "error"


# per file with ids: its header, then the cells after the id of a valid
# row, of a row with a cell that fails to parse, and of a row that parses
# but fails its own checks
ID_FILES = {
    "nodes.csv": ("node_id,lon,lat", "118,32", "x,32", "500,32"),
    "demand.csv": ("demand_id,lon,lat,pop_general,pop_elderly",
                   "118,32,5,1", "118,32,1.5,1", "118,32,-3,1"),
    "sites.csv": ("site_id,lon,lat,status,capacity",
                  "118,32,existing,", "118,32,existing,x", "118,32,closed,"),
}
# (the rows as (id, kind of cells), the error type both readers must raise)
REPEATS = {
    "before": ([("a", 1), ("a", 1), ("b", 2)], geodata.ValidationError),
    "same-row": ([("a", 1), ("a", 2)], geodata.ParseError),
    "after": ([("a", 1), ("b", 2), ("a", 1)], geodata.ParseError),
    "own-check": ([("a", 1), ("a", 3)], geodata.ValidationError),
}


@pytest.mark.parametrize("case", REPEATS)
@pytest.mark.parametrize("name", ID_FILES)
def test_repeated_id_against_bad_cells(monkeypatch, tmp_path, name, case):
    """A repeated id before, in and after the row of a bad cell, and in a
    row that fails its own checks."""
    rows, error = REPEATS[case]
    spec = ID_FILES[name]
    path = tmp_path / name
    path.write_text("".join(f"{line}\n" for line in
                            [spec[0], *(f"{rid},{spec[kind]}" for rid, kind in rows)]),
                    encoding="utf-8")
    result = assert_same_as_by_row(monkeypatch, parse_call(tmp_path, name, path))
    assert result[:2] == ("error", error)
    assert f"{path}:3: " in result[2]


def test_repeated_header_reads_the_last_column(monkeypatch, tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("node_id,lon,lat,lon\nn0,500,32,118.5\n", encoding="utf-8")
    result = assert_same_as_by_row(monkeypatch, parse_call(tmp_path, "nodes.csv", path))
    assert result[1].nodes == {"n0": geodata.Coordinate(118.5, 32.0)}
    path = tmp_path / "sites.csv"
    path.write_text("site_id,status,lon,lat,capacity,status\n"
                    "s0,closed,118,32,,existing\n", encoding="utf-8")
    result = assert_same_as_by_row(monkeypatch, parse_call(tmp_path, "sites.csv", path))
    assert [s.status for s in result[1]] == ["existing"]


def test_undecodable_tail_after_a_bad_cell(monkeypatch, tmp_path):
    """Rows read before the file turns undecodable are parsed first."""
    path = tmp_path / "nodes.csv"
    empty_edges = tmp_path / "edges.csv"
    empty_edges.write_text("from_id,to_id,length_m,bidirectional\n", encoding="utf-8")
    rows = "".join(f"n{i},118.7,32.0\n" for i in range(3000))
    bad_cell = "node_id,lon,lat\nn,abc,32\n" + rows
    path.write_bytes(bad_cell.encode() + b"\xff\xfe\n")
    result = assert_same_as_by_row(monkeypatch, lambda: parse_network(path, empty_edges))
    assert result[:2] == ("error", geodata.ParseError)
    path.write_bytes(("node_id,lon,lat\n" + rows).encode() + b"\xff\xfe\n")
    with pytest.raises(UnicodeDecodeError):
        parse_network(path, empty_edges)

