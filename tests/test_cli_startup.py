"""What a fresh command pays for before it works.

``synth`` imports neither routing, scoring nor the search, ``score`` never
imports the search, and no command imports ``numpy.random``: a command's
process is checked after it exits.  Only the process entry freezes the
collector; ``main`` run in-process leaves it as it found it.  The names the
package and ``cli`` have always offered still resolve, and the commands
call routing, scoring and the optimizer through ``cli``'s attributes,
where a wrapper set on the module is seen.  Every public dataclass has a
docstring of its own, so that ``dataclass`` need not build one from its
signature at import, and no record has methods generated for it.
The argument parser shares the config flags of its four commands through
one parent parser; ``build_parser_per_command``, the construction it
replaced, is the reference for every command's help and every flag.
"""

import argparse
import dataclasses
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import accessopt
from accessopt import accessibility, cli, geodata, limits, optimizer, routing

SRC = Path(accessopt.__file__).resolve().parent.parent

# every name ``accessopt`` exported before the search became lazy
EXPORTS = (
    "AccessibilityField", "CoverageBin", "CoverageReport", "DecayParams",
    "SupplyDemandRatio", "accessibility_scores", "conservation_check",
    "coverage_report", "decay_weights", "default_bins", "gaussian_decay",
    "supply_demand_ratio", "supply_demand_ratios", "CANDIDATE", "DEFAULT_CAPACITY",
    "DEFAULT_GROUPS", "EXISTING", "Coordinate", "DemandPoint", "Edge", "FacilitySite",
    "InputError", "ParseError", "PopulationGroup", "RoadNetwork", "Scenario",
    "SchemaError", "ValidationError", "generate_synthetic_scenario", "load_scenario",
    "parse_demand", "parse_network", "parse_sites", "write_scenario_bundle",
    "CandidatePoolError", "Layout", "ObjectiveParams", "OptimizationResult", "Shortfall",
    "exhaustive_oracle", "greedy_construct", "is_feasible", "local_search",
    "objective_value", "optimize", "UNREACHABLE", "SnapDistanceWarning",
    "TravelTimeMatrix", "build_travel_time_matrices", "build_travel_time_matrix",
    "distance_matrix_m", "great_circle_m", "shortest_path_distances",
    "snap_to_network", "write_matrix_csv", "__version__",
)

# runs ``python -m accessopt ARGS`` in this process, then reports its exit
# code, whether routing, scoring, the search or ``numpy.random`` was ever
# imported, and whether the collector was frozen before the exit
RUN_MODULE = """
import gc, json, runpy, sys
sys.argv = ["accessopt", *sys.argv[1:]]
try:
    runpy.run_module("accessopt", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
print(json.dumps({"exit": code, **{name: f"accessopt.{name}" in sys.modules
                                   for name in ("routing", "accessibility", "optimizer")},
                  "numpy_random": "numpy.random" in sys.modules,
                  "frozen": gc.get_freeze_count() > 0}))
"""


def run_module(*args, cwd):
    proc = subprocess.run([sys.executable, "-c", RUN_MODULE, *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_synth_and_score_never_import_the_optimizer(tmp_path):
    """synth imports neither routing, scoring nor the search, and score does
    not search; solve and oracle load all three."""
    synth = run_module("synth", "--seed", "2", "--grid-rows", "6", "--grid-cols", "6",
                       "--n-existing", "2", "--n-candidate", "4", "--out", "city",
                       cwd=tmp_path)
    assert synth == {"exit": 0, "routing": False, "accessibility": False,
                     "optimizer": False, "numpy_random": False, "frozen": True}
    assert (tmp_path / "city" / "sites.csv").is_file()
    score = run_module("score", "--config", "city/run.cfg", "--out", "scored",
                       "--dump-matrix", cwd=tmp_path)
    assert score == {"exit": 0, "routing": True, "accessibility": True,
                     "optimizer": False, "numpy_random": False, "frozen": True}
    assert (tmp_path / "scored" / "layout.geojson").is_file()
    for command in ("solve", "oracle"):
        report = run_module(command, "--config", "city/run.cfg", "--out", "plan",
                            cwd=tmp_path)
        assert report["routing"] and report["accessibility"] and report["optimizer"]
        assert report["numpy_random"] is False
        assert report["frozen"] is True


# imports every module of the package in a fresh interpreter and reports
# how many methods ``dataclasses`` generated on the way
COUNT_GENERATED = """
import dataclasses, json
calls = []
create = dataclasses._create_fn
dataclasses._create_fn = lambda *args, **kwargs: calls.append(args[0]) or create(*args, **kwargs)
import accessopt.cli, accessopt.routing, accessopt.accessibility, accessopt.optimizer
print(json.dumps(calls))
"""


def test_no_record_generates_code_at_import():
    """Every record inherits its methods from ``geodata._Record``, so
    importing the package generates none with ``exec``: that cost a fresh
    ``solve`` about 13 ms for 97 methods."""
    proc = subprocess.run([sys.executable, "-c", COUNT_GENERATED],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_main_leaves_the_collector_as_it_found_it(tmp_path):
    """Only the process entry freezes the collector: every command run
    in-process, as the tests and ``perfbench/tracer.py`` run it, leaves
    ``gc`` enabled and its frozen count as they were."""
    cfg = str(tmp_path / "city" / "run.cfg")
    argvs = (["synth", "--seed", "2", "--grid-rows", "6", "--grid-cols", "6",
              "--n-existing", "2", "--n-candidate", "4", "--out", str(tmp_path / "city")],
             ["score", "--config", cfg, "--out", str(tmp_path / "scored")],
             ["solve", "--config", cfg, "--out", str(tmp_path / "plan")],
             ["oracle", "--config", cfg, "--out", str(tmp_path / "plan")])
    for argv in argvs:
        before = gc.isenabled(), gc.get_freeze_count()
        assert cli.main(argv) in (0, 3), argv
        assert (gc.isenabled(), gc.get_freeze_count()) == before, argv[0]


def test_every_export_resolves():
    for name in EXPORTS:
        assert getattr(accessopt, name) is not None, name
    assert accessopt.optimize is accessopt.optimizer.optimize
    assert accessopt.CandidatePoolError is accessopt.optimizer.CandidatePoolError
    with pytest.raises(AttributeError, match="no_such_name"):
        accessopt.no_such_name  # noqa: B018


def test_cli_attributes_resolve():
    assert getattr(cli, "optimize") is optimizer.optimize
    assert getattr(cli, "exhaustive_oracle") is optimizer.exhaustive_oracle
    assert getattr(cli, "ObjectiveParams") is optimizer.ObjectiveParams
    for name in ("_check_bins", "accessibility_scores", "assign_bin", "coverage_report",
                 "default_bins"):
        assert getattr(cli, name) is getattr(accessibility, name), name
    for name in ("build_travel_time_matrices", "write_matrix_csv"):
        assert getattr(cli, name) is getattr(routing, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name  # noqa: B018


def test_commands_call_through_cli_attributes(monkeypatch, tmp_path):
    """A spy set on ``cli``'s routing, scoring and search names sees the
    calls of ``score``, ``solve`` and ``oracle``, as ``perfbench/tracer.py``
    needs."""
    calls = []
    for name in ("build_travel_time_matrices", "accessibility_scores", "optimize",
                 "exhaustive_oracle"):
        real = getattr(cli, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    argv = ["synth", "--seed", "1", "--grid-rows", "6", "--grid-cols", "6",
            "--n-existing", "2", "--n-candidate", "4", "--out", str(tmp_path / "c")]
    assert cli.main(argv) == 0
    assert calls == []
    cfg = str(tmp_path / "c" / "run.cfg")
    assert cli.main(["score", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    # one routing pass, then one score per group
    assert calls == ["build_travel_time_matrices", "accessibility_scores",
                     "accessibility_scores"]
    calls.clear()
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "p")]) in (0, 3)
    assert cli.main(["oracle", "--config", cfg, "--out", str(tmp_path / "p")]) in (0, 3)
    assert [c for c in calls if c in ("optimize", "exhaustive_oracle")] == \
        ["optimize", "exhaustive_oracle"]


def build_parser_per_command() -> argparse.ArgumentParser:
    """The parser as it was built: every command adds every flag itself."""
    parser = argparse.ArgumentParser(
        prog="accessopt",
        description="Road-network accessibility scoring and facility placement",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "synth": ("write a synthetic scenario bundle", cli.cmd_synth),
        "score": ("score the existing facility layout", cli.cmd_score),
        "solve": ("choose candidate sites to open", cli.cmd_solve),
        "oracle": ("certified optimum over candidate subsets", cli.cmd_oracle),
    }
    for name, (help_text, func) in commands.items():
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        sp.add_argument("--config", metavar="PATH", help="flat key=value config file")
        for key, kind in cli._FIELD_TYPES.items():
            if kind == "bool":
                sp.add_argument(cli._flag(key), action=argparse.BooleanOptionalAction,
                                default=None)
            else:
                sp.add_argument(cli._flag(key), help=cli._FLAG_HELP.get(key))
    return parser


COMMANDS = ("synth", "score", "solve", "oracle")


def subparser(parser, command):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices[command]


def test_help_texts_unchanged(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    new, old = cli._build_parser(), build_parser_per_command()
    assert new.format_help() == old.format_help()
    assert new.format_usage() == old.format_usage()
    for command in COMMANDS:
        assert subparser(new, command).format_help() == \
            subparser(old, command).format_help()


def flag_argvs():
    yield []
    yield ["--config", "run.cfg"]
    for key, kind in cli._FIELD_TYPES.items():
        flag = cli._flag(key)
        if kind == "bool":
            yield [flag]
            yield ["--no-" + flag[2:]]
        else:
            yield [flag, "v"]
            yield [f"{flag}=-1"]
    yield ["--alpha", "1", "--alpha", "2", "--seed", "3", "--no-include-snap"]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_flag_parses_as_before(command):
    new, old = cli._build_parser(), build_parser_per_command()
    for argv in flag_argvs():
        assert vars(new.parse_args([command, *argv])) == \
            vars(old.parse_args([command, *argv])), argv


@pytest.mark.parametrize("argv", [[], ["nope"], ["score", "--no-such-flag"],
                                  ["solve", "--include-snap=1"], ["oracle", "--seed"]])
def test_refusals_unchanged(argv, capsys):
    messages = []
    for parser in (cli._build_parser(), build_parser_per_command()):
        with pytest.raises(SystemExit) as info:
            parser.parse_args(argv)
        messages.append((info.value.code, capsys.readouterr().err))
    assert messages[0] == messages[1]


def test_every_public_dataclass_has_its_own_docstring():
    """``dataclass`` builds a missing docstring from the class's signature,
    which costs ``inspect.signature`` at every import."""
    checked = []
    for module in (geodata, limits, routing, accessibility, optimizer, cli):
        for name, value in vars(module).items():
            if (isinstance(value, type) and dataclasses.is_dataclass(value)
                    and value.__module__ == module.__name__ and not name.startswith("_")):
                doc = value.__dict__.get("__doc__")
                assert doc and not doc.startswith(f"{name}("), f"{module.__name__}.{name}"
                checked.append(name)
    assert {"Edge", "DemandPoint", "FacilitySite", "CoverageBin", "CoverageReport",
            "RunConfig", "ObjectiveParams", "Shortfall", "OptimizationResult"} <= set(checked)
