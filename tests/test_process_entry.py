"""How a command's process ends.

A command whose stdout's reader has gone, as under ``accessopt solve ... |
true``, still exits with its own code and writes nothing to stderr, whether
stdout is buffered or not: its outputs are written, and only the summary
line has no reader.  So does ``--help``, whose exit argparse raises inside
``main``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import accessopt

SRC = Path(accessopt.__file__).resolve().parent.parent


def environment(unbuffered):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def closed_pipe():
    """The write end of a pipe whose read end is closed."""
    read, write = os.pipe()
    os.close(read)
    return write


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]], ids=["help", "solve-help"])
def test_closed_stdout_does_not_fail_help(argv, unbuffered):
    write = closed_pipe()
    try:
        proc = subprocess.run([sys.executable, "-m", "accessopt", *argv],
                              env=environment(unbuffered), stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_does_not_fail_a_finished_run(tmp_path, unbuffered):
    env = environment(unbuffered)

    def command(out, *args, stdout):
        return subprocess.run([sys.executable, "-m", "accessopt", *args, "--out", out],
                              cwd=tmp_path, env=env, stdout=stdout,
                              stderr=subprocess.PIPE, text=True, timeout=120)

    synth = ["synth", "--seed", "2", "--grid-rows", "6", "--grid-cols", "6",
             "--n-existing", "2", "--n-candidate", "4"]
    assert command("city", *synth, stdout=subprocess.DEVNULL).returncode == 0
    # oracle reads solve's result.json and prints two lines
    for args in (synth, ["score", "--config", "city/run.cfg"],
                 ["solve", "--config", "city/run.cfg"],
                 ["oracle", "--config", "city/run.cfg"]):
        write = closed_pipe()
        try:
            closed = command("closed", *args, stdout=write)
        finally:
            os.close(write)
        read_open = command("open", *args, stdout=subprocess.PIPE)
        assert read_open.stdout, args[0]
        assert (closed.returncode, closed.stderr) == (read_open.returncode, ""), args[0]
    written = sorted(p.name for p in (tmp_path / "open").iterdir())
    assert "result_oracle.json" in written
    assert sorted(p.name for p in (tmp_path / "closed").iterdir()) == written
    for name in written:
        assert (tmp_path / "closed" / name).read_bytes() == \
            (tmp_path / "open" / name).read_bytes(), name
