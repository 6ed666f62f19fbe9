import codecs
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import accessopt
from accessopt import cli
from accessopt.cli import (
    _build_parser,
    _write_json,
    build_config,
    main,
    parse_groups,
    read_config_file,
)
from accessopt.geodata import ValidationError, load_scenario
from accessopt.optimizer import MAX_POOL_CEILING

SMALL_SYNTH = [
    "synth", "--grid-rows", "8", "--grid-cols", "8", "--n-existing", "3",
    "--n-candidate", "8", "--seed", "3",
]

SRC = Path(accessopt.__file__).resolve().parent.parent


def synth_small(out):
    assert main(SMALL_SYNTH + ["--out", str(out)]) == 0
    return out / "run.cfg"


def synth_pool(bundle):
    """A 6x6 bundle of 6 candidate sites, small enough for the oracle."""
    assert main(["synth", "--grid-rows", "6", "--grid-cols", "6", "--n-existing", "2",
                 "--n-candidate", "6", "--seed", "2", "--out", str(bundle)]) == 0
    return bundle / "run.cfg"


def run(argv):
    """main's exit code, also when argparse exits by itself."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def append_line(cfg, line):
    """Append one line to a config file; return its line number."""
    text = cfg.read_text()
    cfg.write_text(text + line + "\n")
    return len(text.splitlines()) + 1


class TestConfig:
    def test_parse_groups(self):
        groups = parse_groups("general:80:700, elderly:70:700")
        assert [g.name for g in groups] == ["general", "elderly"]
        assert groups[1].walk_speed_m_per_min == 70.0

    def test_bad_group_spec(self):
        with pytest.raises(ValidationError):
            parse_groups("general:80")

    def test_config_file_grammar(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "a_sigma = 0.2   # trailing comment\n"
            "constraint-groups = general, elderly\n"
            "include_snap = true\n"
            "bundle = data\n",
            encoding="utf-8",
        )
        values = read_config_file(cfg_file)
        assert values["a_sigma"] == 0.2
        assert values["constraint_groups"] == ("general", "elderly")
        assert values["include_snap"] is True
        assert values["bundle"] == str((tmp_path / "data").resolve())

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("no_such_key = 1\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="no_such_key"):
            read_config_file(cfg_file)

    def test_cli_flag_overrides_config(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("a_sigma = 0.1\nalpha = 3\n", encoding="utf-8")
        args = _build_parser().parse_args(
            ["solve", "--config", str(cfg_file), "--a-sigma", "0.25"]
        )
        cfg = build_config(args)
        assert cfg.a_sigma == 0.25
        assert cfg.alpha == 3.0


class TestByteOrderMark:
    """Files that begin with a UTF-8 byte order mark, as spreadsheet exports
    write them, read as the same files without it; nothing is written with one."""

    CSV_FILES = ("nodes.csv", "edges.csv", "demand.csv", "sites.csv")

    def test_marked_bundle_and_config_read_as_plain(self, tmp_path):
        plain = tmp_path / "plain"
        synth_small(plain)
        marked = tmp_path / "marked"
        shutil.copytree(plain, marked)
        for name in (*self.CSV_FILES, "run.cfg"):
            path = marked / name
            path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())

        def config(directory):
            args = _build_parser().parse_args(["score", "--config", str(directory / "run.cfg")])
            return build_config(args)

        cfg = config(marked)
        assert cfg.bundle == str(marked.resolve())
        assert dataclasses.replace(cfg, bundle=config(plain).bundle) == config(plain)
        assert load_scenario(*(marked / n for n in self.CSV_FILES)) == \
            load_scenario(*(plain / n for n in self.CSV_FILES))
        for directory in (plain, marked):
            assert main(["score", "--config", str(directory / "run.cfg"),
                         "--out", str(directory / "out")]) == 0
        outputs = sorted(p.name for p in (plain / "out").iterdir())
        assert outputs == sorted(p.name for p in (marked / "out").iterdir())
        for name in outputs:
            written = (marked / "out" / name).read_bytes()
            assert written == (plain / "out" / name).read_bytes()
            assert not written.startswith(codecs.BOM_UTF8)


class TestSynth:
    def test_writes_bundle(self, tmp_path):
        out = tmp_path / "bundle"
        synth_small(out)
        for name in ("nodes.csv", "edges.csv", "demand.csv", "sites.csv", "run.cfg"):
            assert (out / name).exists()

    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        synth_small(a)
        synth_small(b)
        for name in ("nodes.csv", "edges.csv", "demand.csv", "sites.csv", "run.cfg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_spacing_that_rounds_an_edge_to_zero_refused(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["synth", "--spacing-m", "0.0004", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "spacing_m 0.0004 is too small" in err
        assert "n0000" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_generator_messages_show_plain_numbers(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["synth", "--spacing-m", "1000000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert ("error: spacing_m 1000000.0 is too large for a 20x20 grid: "
                "its far corner would pass lon 180 or lat 90") in err
        assert "np." not in err
        assert not out.exists()

    def test_negative_seed_refused(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["synth", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_grid_below_minimum(self, tmp_path, capsys):
        code = main(["synth", "--grid-rows", "1", "--grid-cols", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestScore:
    def test_baseline_outputs(self, tmp_path):
        bundle = tmp_path / "bundle"
        cfg = synth_small(bundle)
        out = tmp_path / "scored"
        assert main(["score", "--config", str(cfg), "--out", str(out)]) == 0
        for group in ("general", "elderly"):
            shares = json.loads((out / f"coverage_{group}.json").read_text())
            assert sum(b["share"] for b in shares) == pytest.approx(1.0, abs=1e-9)
            csv_lines = (out / f"accessibility_{group}.csv").read_text().splitlines()
            assert csv_lines[0] == "demand_id,group,A"
            assert len(csv_lines) == 65  # 8x8 grid + header
        geo = json.loads((out / "layout.geojson").read_text())
        assert geo["type"] == "FeatureCollection"
        assert len(geo["features"]) == 64 + 11

    def test_missing_demand_file(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        cfg = synth_small(bundle)
        (bundle / "demand.csv").unlink()
        code = main(["score", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "file not found" in capsys.readouterr().err

    def test_edge_to_unknown_node_names_file_and_line(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        cfg = synth_small(bundle)
        with open(bundle / "nodes.csv", "a") as fh:
            fh.write("b,118.7,32.03\n")
        with open(bundle / "edges.csv", "a") as fh:
            fh.write("b,zz,100,1\n")
        lineno = len((bundle / "edges.csv").read_text().splitlines())
        out = tmp_path / "o"
        assert main(["score", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {bundle / 'edges.csv'}:{lineno}: edge b->zz references unknown node 'zz'\n")
        assert not out.exists()

    def test_dump_matrix_flag(self, tmp_path):
        bundle = tmp_path / "bundle"
        cfg = synth_small(bundle)
        out = tmp_path / "scored"
        assert main(["score", "--config", str(cfg), "--out", str(out),
                     "--dump-matrix"]) == 0
        lines = (out / "travel_times_general.csv").read_text().splitlines()
        assert lines[0] == "demand_id,site_id,minutes"
        assert len(lines) == 64 * 11 + 1


class TestSolve:
    def test_small_bundle_solves(self, tmp_path):
        bundle = tmp_path / "bundle"
        cfg = synth_small(bundle)
        out = tmp_path / "run"
        code = main(["solve", "--config", str(cfg), "--out", str(out)])
        assert code in (0, 3)
        result = json.loads((out / "result.json").read_text())
        assert (code == 0) == result["feasible"]
        assert result["k"] == len(result["layout"])
        for group in ("general", "elderly"):
            assert (out / f"coverage_{group}_before.json").exists()
            assert (out / f"coverage_{group}.json").exists()

    def test_zero_candidates_infeasible_exits_3(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert main(["synth", "--grid-rows", "8", "--grid-cols", "8",
                     "--n-existing", "2", "--n-candidate", "0", "--seed", "1",
                     "--out", str(bundle)]) == 0
        out = tmp_path / "run"
        code = main(["solve", "--config", str(bundle / "run.cfg"),
                     "--out", str(out)])
        assert code == 3
        result = json.loads((out / "result.json").read_text())
        assert not result["feasible"]
        assert result["shortfalls"]

    def test_repeat_runs_byte_identical(self, tmp_path):
        bundle = tmp_path / "bundle"
        cfg = synth_small(bundle)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["solve", "--config", str(cfg), "--out", str(out1)])
        main(["solve", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()
        assert (out1 / "layout.geojson").read_bytes() == (out2 / "layout.geojson").read_bytes()


class TestOracleCommand:
    def test_small_pool_writes_result(self, tmp_path):
        cfg = synth_pool(tmp_path / "bundle")
        out = tmp_path / "run"
        code = main(["oracle", "--config", str(cfg), "--out", str(out)])
        assert code in (0, 3)
        payload = json.loads((out / "result_oracle.json").read_text())
        assert payload["oracle"] is True

    def test_pool_too_large_exits_4(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        synth_small(bundle)  # 8 candidates
        out = tmp_path / "run"
        code = main(["oracle", "--config", str(bundle / "run.cfg"),
                     "--out", str(out), "--max-pool", "5"])
        assert code == 4
        assert "error" in capsys.readouterr().err

    def test_max_pool_above_ceiling_exits_2_before_loading(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["oracle", "--bundle", str(tmp_path / "missing"), "--out", str(out),
                     "--max-pool", str(MAX_POOL_CEILING + 1)])
        assert code == 2
        assert f"ceiling of {MAX_POOL_CEILING}" in capsys.readouterr().err
        assert not out.exists()

    def test_ratio_printed_against_heuristic(self, tmp_path, capsys):
        cfg = synth_pool(tmp_path / "bundle")
        out = tmp_path / "run"
        main(["solve", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        main(["oracle", "--config", str(cfg), "--out", str(out)])
        stdout = capsys.readouterr().out
        line = next(l for l in stdout.splitlines() if "ratio" in l)
        ratio = float(line.rsplit(":", 1)[1])
        assert ratio >= 1.0 - 1e-12


class TestHeuristicResult:
    """``oracle`` reads the heuristic's ``result.json`` before it searches."""

    def test_byte_order_mark_skipped(self, tmp_path, capsys):
        cfg = synth_pool(tmp_path / "bundle")
        out = tmp_path / "run"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        main(["oracle", "--config", str(cfg), "--out", str(out)])
        plain = capsys.readouterr().out
        result = out / "result.json"
        result.write_bytes(codecs.BOM_UTF8 + result.read_bytes())
        main(["oracle", "--config", str(cfg), "--out", str(out)])
        assert capsys.readouterr().out == plain
        assert "objective ratio" in plain

    @pytest.mark.parametrize("data", [
        b"{}", b"[1]", b'{"objective": "x"}', b'{"objective": true}', b'{"objective": null}',
        b'{"objective": NaN}', b'{"objective": -Infinity}', b'{"objective": 1e999}',
        b'{"objective": 1' + b"0" * 400 + b"}", b"not json", codecs.BOM_UTF8 + b"not json",
        b"", b'{"objective": 1\xff}',
    ], ids=["empty-object", "list", "string", "bool", "null", "nan", "-inf", "1e999",
            "huge-int", "not-json", "marked-not-json", "empty-file", "undecodable"])
    def test_damaged_result_refused_before_search(self, tmp_path, capsys, data):
        cfg = synth_pool(tmp_path / "bundle")
        out = tmp_path / "run"
        out.mkdir()
        (out / "result.json").write_bytes(data)
        capsys.readouterr()
        assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {out / 'result.json'}: ")
        assert captured.out == ""
        assert not (out / "result_oracle.json").exists()


class TestGroupNameWithSlash:
    """A group name holding '/' would name an output file in a subdirectory."""

    GROUPS = "general:80:700,eld/erly:70:700"
    MESSAGE = "group name 'eld/erly' must not hold '/': it names output files\n"

    def test_flag_refused_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert main(SMALL_SYNTH + ["--groups", self.GROUPS, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --groups: " + self.MESSAGE
        assert not out.exists()
        cfg = synth_small(tmp_path / "ok")
        out = tmp_path / "score"
        assert main(["score", "--config", str(cfg), "--groups", self.GROUPS,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith("error: --groups: " + self.MESSAGE)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "score", "solve", "oracle"])
    def test_config_line_names_file_and_line(self, tmp_path, capsys, command):
        cfg = synth_small(tmp_path / "bundle")
        lineno = append_line(cfg, f"groups = {self.GROUPS}")
        out = tmp_path / "o"
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:{lineno}: " + self.MESSAGE
        assert not out.exists()


class TestGroupNameWithNul(TestGroupNameWithSlash):
    """A group name holding a NUL byte, which no file name can hold, is
    refused as the name holding '/' is."""

    GROUPS = "general:80:700,el\0derly:70:700"
    MESSAGE = "group name 'el\\x00derly' must not hold '\\x00': it names output files\n"


class TestLongGroupName(TestGroupNameWithSlash):
    """A group name whose output file names pass 255 bytes, counted in UTF-8,
    is refused as the name holding '/' is."""

    NAME = "\u00e9" * 118  # 236 bytes, so the longest file name has 257
    GROUPS = f"general:80:700,{NAME}:70:700"
    MESSAGE = (f"group name {NAME!r} is too long: output file "
               "coverage_<name>_before.json must fit in 255 bytes\n")

    def test_longest_name_that_fits_is_written(self, tmp_path):
        name = "\u00e9" * 117
        bundle = tmp_path / "bundle"
        assert main(SMALL_SYNTH + ["--groups", f"general:80:700,{name}:70:700",
                                   "--out", str(bundle)]) == 0
        out = tmp_path / "plan"
        assert main(["solve", "--config", str(bundle / "run.cfg"),
                     "--out", str(out)]) in (0, 3)
        written = out / f"coverage_{name}_before.json"
        assert len(written.name.encode()) == 255
        assert written.exists()


class TestNonFiniteInput:
    """NaN and infinity are refused with exit code 2 before any output."""

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    @pytest.mark.parametrize("flag,value", [
        ("--alpha", "inf"), ("--beta", "nan"), ("--a-sigma", "nan"), ("--gamma", "inf"),
    ])
    def test_objective_parameters(self, tmp_path, capsys, command, flag, value):
        cfg = synth_small(tmp_path / "bundle")
        out = tmp_path / "run"
        code = main([command, "--config", str(cfg), "--out", str(out), flag, value])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_score_gamma(self, tmp_path, capsys):
        cfg = synth_small(tmp_path / "bundle")
        code = main(["score", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--gamma", "inf"])
        assert code == 2
        assert "gamma must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["score", "solve"])
    def test_site_capacity_names_file_and_line(self, tmp_path, capsys, command):
        bundle = tmp_path / "bundle"
        cfg = synth_small(bundle)
        lines = (bundle / "sites.csv").read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",inf"
        (bundle / "sites.csv").write_text("\n".join(lines) + "\n")
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{bundle / 'sites.csv'}:3:" in capsys.readouterr().err

    def test_json_writer_refuses_nan(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(ValueError):
            _write_json(tmp_path / "x.json", {"objective": float("nan")})
        # the layout writer too: a closed site's capacity is never scored, so
        # a NaN forced past its check reaches layout.geojson
        cfg = synth_small(tmp_path / "bundle")
        load = cli.load_scenario

        def load_with_nan(*args, **kwargs):
            scenario = load(*args, **kwargs)
            candidate = next(s for s in scenario.sites if not s.existing)
            object.__setattr__(candidate, "capacity", float("nan"))
            return scenario

        # one feature a batch, so the features before the NaN are written
        monkeypatch.setattr(cli, "_GEOJSON_BATCH", 1)
        monkeypatch.setattr(cli, "load_scenario", load_with_nan)
        out = tmp_path / "o"
        assert main(["score", "--config", str(cfg), "--out", str(out)]) == 2
        assert "not JSON compliant: nan" in capsys.readouterr().err
        assert not (out / "layout.geojson").exists()
        assert not (out / "layout.geojson.part").exists()
        # a layout.geojson from an earlier run keeps its bytes
        monkeypatch.setattr(cli, "load_scenario", load)
        earlier = tmp_path / "earlier"
        assert main(["score", "--config", str(cfg), "--out", str(earlier)]) == 0
        kept = (earlier / "layout.geojson").read_bytes()
        monkeypatch.setattr(cli, "load_scenario", load_with_nan)
        assert main(["score", "--config", str(cfg), "--out", str(earlier)]) == 2
        assert (earlier / "layout.geojson").read_bytes() == kept
        assert not (earlier / "layout.geojson.part").exists()

    def test_edge_length_names_file_and_line(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        cfg = synth_small(bundle)
        lines = (bundle / "edges.csv").read_text().splitlines()
        from_id, to_id, _, bidi = lines[4].split(",")
        lines[4] = f"{from_id},{to_id},inf,{bidi}"
        (bundle / "edges.csv").write_text("\n".join(lines) + "\n")
        code = main(["score", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bundle / 'edges.csv'}:5:" in err
        assert "length_m must be finite" in err

    @pytest.mark.parametrize("spec,message", [
        ("general:inf:700", "walk speed must be finite"),
        ("general:80:inf", "max walk distance must be finite"),
    ])
    def test_group_spec(self, tmp_path, capsys, spec, message):
        cfg = synth_small(tmp_path / "bundle")
        out = tmp_path / "o"
        code = main(["score", "--config", str(cfg), "--out", str(out), "--groups", spec])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_bins_in_config_name_file_and_line(self, tmp_path, capsys, value):
        cfg = synth_small(tmp_path / "bundle")
        text = cfg.read_text()
        cfg.write_text(text + f"bins = 0,{value},0.2\n")
        lineno = len(text.splitlines()) + 1
        code = main(["score", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{cfg}:{lineno}:" in err
        assert "bins must be finite" in err

    def test_bins_flag(self, tmp_path, capsys):
        cfg = synth_small(tmp_path / "bundle")
        code = main(["score", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--bins", "0,0.1,inf"])
        assert code == 2
        assert "bins must be finite" in capsys.readouterr().err


class TestZeroTarget:
    """a_sigma = 0 is a valid target, but the default bins are anchored on it."""

    @pytest.mark.parametrize("command", ["score", "solve", "oracle"])
    def test_default_bins_need_explicit_bins(self, tmp_path, capsys, command):
        cfg = synth_small(tmp_path / "bundle")
        out = tmp_path / "o"
        code = main([command, "--config", str(cfg), "--out", str(out),
                     "--a-sigma", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "a_sigma" in err and "explicit bins" in err
        assert "strictly increasing" not in err
        assert not out.exists()

    def test_explicit_bins_accept_zero_target(self, tmp_path):
        cfg = synth_small(tmp_path / "bundle")
        out = tmp_path / "o"
        code = main(["solve", "--config", str(cfg), "--out", str(out),
                     "--a-sigma", "0", "--bins", "0,0.1"])
        assert code == 0
        assert json.loads((out / "result.json").read_text())["feasible"]


class TestFlagConfigParity:
    """A flag's value is parsed exactly as the config line of the same key."""

    BAD = [
        ("score", "snap_warn_m", "nan"),
        ("synth", "population_scale", "inf"),
        ("synth", "spacing_m", "nan"),
        ("score", "capacity", "nan"),
        ("synth", "seed", "x"),
    ]

    @pytest.mark.parametrize("command,key,value", BAD)
    def test_bad_flag_names_flag(self, tmp_path, capsys, command, key, value):
        cfg = synth_small(tmp_path / "bundle")
        out = tmp_path / "o"
        flag = "--" + key.replace("_", "-")
        assert run([command, "--config", str(cfg), "--out", str(out), flag, value]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,key,value", BAD)
    def test_bad_config_line_names_file_and_line(self, tmp_path, capsys, command, key, value):
        cfg = synth_small(tmp_path / "bundle")
        lineno = append_line(cfg, f"{key} = {value}")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{cfg}:{lineno}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,raw", [
        ("groups", "general:80:700,elderly:70:650"), ("alpha", "2.5"), ("seed", "11"),
        ("primary_group", "elderly"), ("constraint_groups", "general, elderly"),
        ("bins", "0,0.1"), ("bin_labels", "lo, hi"), ("budget", "0"),
        ("include_snap", "1"), ("dump_matrix", "0"),
    ])
    def test_flag_and_config_line_agree(self, tmp_path, key, raw):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {raw}\n")
        from_file = build_config(_build_parser().parse_args(["score", "--config", str(cfg)]))
        flag = "--" + key.replace("_", "-")
        if key in ("include_snap", "dump_matrix"):
            argv = [flag if raw == "1" else "--no-" + flag[2:]]
        else:
            argv = [flag, raw]
        from_flag = build_config(_build_parser().parse_args(["score", *argv]))
        assert getattr(from_flag, key) == getattr(from_file, key)


class TestRefusedAtBoundary:
    """Bad bins, budget, pool size and groups exit 2 before the scenario is read."""

    @pytest.mark.parametrize("command,bins,message", [
        ("score", "0.2,0.1", "strictly increasing"),
        ("solve", "0.1,0.2", "first bin lower bound"),
        ("oracle", "0,0", "strictly increasing"),
    ])
    def test_bad_bins(self, tmp_path, capsys, command, bins, message):
        out = tmp_path / "run"
        code = main([command, "--bundle", str(tmp_path / "missing"), "--out", str(out),
                     "--bins", bins])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_bins_leave_no_partial_output(self, tmp_path):
        cfg = synth_small(tmp_path / "bundle")
        out = tmp_path / "run"
        assert main(["score", "--config", str(cfg), "--out", str(out),
                     "--bins", "0.2,0.1"]) == 2
        assert not out.exists()

    def test_negative_budget(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["solve", "--bundle", str(tmp_path / "missing"), "--out", str(out),
                     "--budget", "-1"])
        assert code == 2
        assert "budget must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_max_pool(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["oracle", "--bundle", str(tmp_path / "missing"), "--out", str(out),
                     "--max-pool", "-3"])
        assert code == 2
        assert "max_pool must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    @pytest.mark.parametrize("flag,value,message", [
        ("--primary-group", "nosuch", "unknown group 'nosuch'"),
        ("--constraint-groups", "general,nosuch", "unknown group 'nosuch'"),
        ("--constraint-groups", "general,general",
         "constraint group 'general' is listed twice"),
    ])
    def test_bad_objective_groups(self, tmp_path, capsys, command, flag, value, message):
        cfg = synth_small(tmp_path / "bundle")
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out), flag, value]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["score", "solve", "oracle"])
    def test_bin_labels_without_bins(self, tmp_path, capsys, command):
        cfg = synth_small(tmp_path / "bundle")
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out),
                     "--bin-labels", "a,b,c"]) == 2
        assert "bin_labels given without bins" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["score", "solve", "oracle"])
    @pytest.mark.parametrize("spec,shown", [
        ("general:1e-300:1e300,elderly:70:700", "inf"),
        ("general:1e300:1e-300,elderly:70:700", "0.0"),
    ])
    def test_group_threshold_out_of_range(self, tmp_path, capsys, command, spec, shown):
        # the quotient max walk / walk speed overflows or underflows; the
        # bundle is missing, so the refusal comes before it is read
        out = tmp_path / "run"
        code = main([command, "--bundle", str(tmp_path / "missing"), "--out", str(out),
                     "--groups", spec])
        assert code == 2
        group = spec.split(",")[0]
        assert capsys.readouterr().err == (
            f"error: --groups: bad group spec '{group}': group 'general': travel-time "
            f"threshold (max walk / walk speed) must be finite and > 0, got {shown}\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["solve", "oracle"])
    @pytest.mark.parametrize("flags", [
        ["--alpha", "1e308"], ["--beta", "1e308"], ["--beta", "0", "--gamma", "1e200"],
    ], ids=["alpha", "beta", "gamma"])
    def test_objective_that_can_overflow(self, tmp_path, capsys, command, flags):
        # finite parameters whose objective bound is not: refused after the
        # bundle is read, before the search and before any output
        cfg = synth_small(tmp_path / "bundle")
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 2
        assert "the objective can overflow" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_shortfall_that_can_overflow(self, tmp_path, capsys):
        # on the seed-7 city the objective bound, summed over 400 points, is
        # finite, but the shortfall, summed over both groups' 800, is not
        assert main(["synth", "--seed", "7", "--out", str(tmp_path / "district")]) == 0
        out = tmp_path / "overflow"
        assert main(["solve", "--config", str(tmp_path / "district" / "run.cfg"),
                     "--a-sigma", "5.48e152", "--constraint-groups", "general,elderly",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: the shortfall can overflow: a_sigma^2 * 800 populated points of the "
            "constraint groups is not finite (a_sigma 5.48e+152)\n")
        assert not out.exists()

    @pytest.mark.parametrize("line,message", [
        ("population_scale = -1", "population_scale must be finite and >= 0"),
        # populations past int64, and (1.7e308) a product that overflows to inf
        ("population_scale = 1e300", "population_scale 1e+300 is too large: a node's "
                                     "population would reach 2**63"),
        ("population_scale = 1.7e308", "population_scale 1.7e+308 is too large"),
        ("spacing_m = -5", "spacing_m must be finite and > 0"),
    ])
    def test_synth_arguments_from_config(self, tmp_path, capsys, line, message):
        cfg = synth_small(tmp_path / "bundle")
        append_line(cfg, line)
        out = tmp_path / "o"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,message", [
        ("score", "accessibility score of 'd0278' must be finite and non-negative, got inf"),
        ("solve", "the objective can overflow"),
    ])
    def test_gamma_whose_scores_overflow(self, tmp_path, capsys, command, message):
        # a finite gamma times a score of the seed-7 city overflows to inf:
        # refused as before, with no RuntimeWarning on the way
        assert main(["synth", "--seed", "7", "--out", str(tmp_path / "district")]) == 0
        out = tmp_path / "run"
        assert main([command, "--config", str(tmp_path / "district" / "run.cfg"),
                     "--gamma", "1e308", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


# calls two of cli's helpers in a fresh interpreter, without ``main``
HELPERS_WITHOUT_MAIN = """
import json, sys
from pathlib import Path
from types import SimpleNamespace
from accessopt import cli
from accessopt.geodata import generate_synthetic_scenario
if sys.argv[1] == "bins":
    print(json.dumps(cli._bin_spec(cli.RunConfig())))
else:
    scenario = generate_synthetic_scenario(1, grid_rows=3, grid_cols=3, n_existing=1,
                                           n_candidate=1)
    scores = {d.demand_id: 0.5 * i for i, d in enumerate(scenario.demands)}
    fields = {"general": SimpleNamespace(scores=scores)}
    cli._write_geojson(Path(sys.argv[2]), scenario, set(), fields,
                       [("low", 0.0), ("high", 1.0)])
"""


def test_helpers_run_without_main(tmp_path):
    """A helper of ``cli`` finds the names it reads from ``accessibility``
    in a process where no command ran."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))

    def helper(*args):
        done = subprocess.run([sys.executable, "-c", HELPERS_WITHOUT_MAIN, *args],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    assert json.loads(helper("bins")) == [[label, lower] for label, lower
                                          in cli._bin_spec(cli.RunConfig())]
    helper("geojson", str(tmp_path / "layout.geojson"))
    features = json.loads((tmp_path / "layout.geojson").read_text())["features"]
    assert len(features) == 2 + 9
    assert [f["properties"]["bin_general"] for f in features[2:]] == \
        ["low", "low", "high", "high", "high", "high", "high", "high", "high"]
