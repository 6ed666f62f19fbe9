"""Seeded fuzz of the CSV and config parsers.

Each case damages a small valid bundle in one place: one cell becomes
empty, NaN, infinite, negative or non-numeric, two cells of a row trade
places, or a file's columns (a config's lines) come in another order.  The
parser must then either succeed, with every number it returns finite, or
raise an ``InputError`` whose message names the damaged file and line (a
renamed node is reported at the first edge that still uses its old id).
Any other exception fails the test, and so does a NaN or an infinity in
what it returns.
"""

import math
import re
import shutil

import numpy as np
import pytest

from accessopt.cli import main, read_config_file
from accessopt.geodata import InputError, PopulationGroup, load_scenario

N_CASES = 300
N_CLI_CASES = 12
CSV_FILES = ("nodes.csv", "edges.csv", "demand.csv", "sites.csv")

DAMAGE = {
    "empty": ("", "  "),
    "nan": ("nan", "NaN", "-nan"),
    "inf": ("inf", "-inf", "Infinity", "1e999"),
    "negative": ("-1", "-0", "-0.5", "-1500"),
    "non-numeric": ("abc", "1.2.3", "0x1A", "--1", "1e", "one"),
}
KINDS = (*DAMAGE, "swap", "permute")
LOCATION = re.compile(r"([\w.]+):(\d+):")


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "bundle"
    assert main(["synth", "--seed", "1", "--grid-rows", "5", "--grid-cols", "5",
                 "--n-existing", "2", "--n-candidate", "3", "--out", str(out)]) == 0
    with open(out / "run.cfg", "a", encoding="utf-8") as fh:
        fh.write("bins = 0,0.1,0.2\nbin_labels = a,b,c\n")
    return out


def load(directory):
    return load_scenario(*(directory / name for name in CSV_FILES))


def damage_csv(text, rng):
    """(damaged text, kind, damaged line or None)."""
    lines = text.splitlines()
    table = [line.split(",") for line in lines]
    kind = KINDS[rng.integers(len(KINDS))]
    if kind == "permute":
        order = rng.permutation(len(table[0]))
        table = [[cells[c] for c in order] for cells in table]
        return "\n".join(",".join(cells) for cells in table) + "\n", kind, None
    row = int(rng.integers(1, len(table)))
    cells = table[row]
    col = int(rng.integers(len(cells)))
    if kind == "swap":
        other = (col + 1 + int(rng.integers(len(cells) - 1))) % len(cells)
        cells[col], cells[other] = cells[other], cells[col]
    else:
        choices = DAMAGE[kind]
        cells[col] = choices[rng.integers(len(choices))]
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n", kind, row + 1


def damage_config(text, rng):
    """(damaged text, kind, damaged line or None)."""
    lines = text.splitlines()
    kind = KINDS[rng.integers(len(KINDS))]
    if kind == "permute":
        return "\n".join(rng.permutation(lines)) + "\n", kind, None
    row = int(rng.integers(len(lines)))
    while "=" not in lines[row] or lines[row].startswith("bundle"):
        row = int(rng.integers(len(lines)))
    key, value = (part.strip() for part in lines[row].split("=", 1))
    if kind == "swap":
        lines[row] = f"{value} = {key}"
    else:
        choices = DAMAGE[kind]
        lines[row] = f"{key} = {choices[rng.integers(len(choices))]}"
    return "\n".join(lines) + "\n", kind, row + 1


def assert_finite_scenario(scenario):
    for c in scenario.network.nodes.values():
        assert math.isfinite(c.lon) and math.isfinite(c.lat)
    for e in scenario.network.edges:
        assert math.isfinite(e.length_m)
    for d in scenario.demands:
        assert math.isfinite(d.location.lon) and math.isfinite(d.location.lat)
        assert all(isinstance(v, int) for v in d.population.values())
    for s in scenario.sites:
        assert math.isfinite(s.location.lon) and math.isfinite(s.location.lat)
        assert math.isfinite(s.capacity)


def assert_finite_values(value):
    if isinstance(value, float):
        assert math.isfinite(value)
    elif isinstance(value, (tuple, list)):
        for item in value:
            assert_finite_values(item)
    elif isinstance(value, PopulationGroup):
        assert_finite_values((value.walk_speed_m_per_min, value.max_walk_m))


def assert_located(exc, path, line):
    """The message names a line of the damaged file, or of edges.csv when a
    node lost its id; a line of the damaged file must be the damaged one."""
    where = LOCATION.search(str(exc))
    assert where, str(exc)
    name, number = where.group(1), int(where.group(2))
    assert name in (path.name, "edges.csv"), str(exc)
    if name == path.name:
        assert number == line, str(exc)


@pytest.mark.parametrize("seed", range(N_CASES))
def test_csv_parsers(bundle, tmp_path, seed):
    rng = np.random.default_rng(seed)
    target = CSV_FILES[seed % len(CSV_FILES)]
    damaged = tmp_path / "bundle"
    shutil.copytree(bundle, damaged)
    text, kind, line = damage_csv((bundle / target).read_text(), rng)
    (damaged / target).write_text(text)
    try:
        scenario = load(damaged)
    except InputError as exc:
        assert line is not None, f"{kind}: {exc}"
        assert_located(exc, damaged / target, line)
        return
    assert_finite_scenario(scenario)
    if kind == "permute":
        assert scenario == load(bundle)


@pytest.mark.parametrize("seed", range(N_CASES))
def test_config_parser(bundle, tmp_path, seed):
    rng = np.random.default_rng(10_000 + seed)
    path = tmp_path / "run.cfg"
    text, kind, line = damage_config((bundle / "run.cfg").read_text(), rng)
    path.write_text(text)
    try:
        values = read_config_file(path)
    except InputError as exc:
        assert line is not None, f"{kind}: {exc}"
        assert f"{path}:{line}:" in str(exc)
        return
    for value in values.values():
        assert_finite_values(value)
    if kind == "permute":  # paths resolve against the config's directory
        shutil.copy(bundle / "run.cfg", tmp_path / "base.cfg")
        assert values == read_config_file(tmp_path / "base.cfg")


@pytest.mark.filterwarnings("ignore::accessopt.routing.SnapDistanceWarning")
@pytest.mark.parametrize("seed", range(N_CLI_CASES))
def test_score_command(bundle, tmp_path, capsys, seed):
    """Through the command line: exit 0 with no NaN or infinity in any
    output, or exit 2 naming a file and line; never a traceback."""
    rng = np.random.default_rng(20_000 + seed)
    damaged = tmp_path / "bundle"
    shutil.copytree(bundle, damaged)
    target = CSV_FILES[seed % len(CSV_FILES)]
    text, kind, _ = damage_csv((bundle / target).read_text(), rng)
    (damaged / target).write_text(text)
    out = tmp_path / "out"
    code = main(["score", "--config", str(damaged / "run.cfg"), "--out", str(out)])
    err = capsys.readouterr().err
    if code == 2:
        assert LOCATION.search(err), err
        return
    assert code == 0, err
    for path in out.iterdir():
        assert not re.search(r"\b(nan|inf|infinity)\b", path.read_text(), re.IGNORECASE), path
