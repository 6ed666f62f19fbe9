#!/usr/bin/env python3
"""Regenerate the frozen regression artifacts under tests/golden/.

Run after any intentional change to the generator, scoring or search code,
then review the diff before committing.  Never regenerate to make a
refactor pass: a refactor must leave every artifact here unchanged.

``cli_outputs.sha256.json`` pins the bytes of every file the command line
writes in ``CLI_RUNS``: the seed-7 bundle, ``score`` and ``solve`` on it
with ``--dump-matrix``, and ``oracle --max-pool 16`` on the 12x12 city of
seed 1 with 4 existing and 16 candidate sites.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

from accessopt.cli import main
from accessopt.geodata import generate_synthetic_scenario
from accessopt.optimizer import ObjectiveParams, greedy_construct, is_feasible
from accessopt.routing import build_travel_time_matrices

ACCEPTANCE_SEED = 7
GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
MANIFEST = GOLDEN / "cli_outputs.sha256.json"

# (command line, expected exit code); "{root}" is the run's scratch directory
CLI_RUNS = (
    (["synth", "--seed", "7", "--out", "{root}/seed7/bundle"], 0),
    (["score", "--config", "{root}/seed7/bundle/run.cfg", "--out", "{root}/seed7/score",
      "--dump-matrix"], 0),
    (["solve", "--config", "{root}/seed7/bundle/run.cfg", "--out", "{root}/seed7/solve",
      "--dump-matrix"], 0),
    (["synth", "--seed", "1", "--grid-rows", "12", "--grid-cols", "12", "--n-existing", "4",
      "--n-candidate", "16", "--out", "{root}/city1/bundle"], 0),
    (["oracle", "--config", "{root}/city1/bundle/run.cfg", "--out", "{root}/city1/oracle",
      "--max-pool", "16"], 0),
)


def cli_output_hashes(root: Path) -> dict[str, str]:
    """Run ``CLI_RUNS`` under ``root``; SHA-256 of every file written, by relative path."""
    for argv, expected in CLI_RUNS:
        argv = [arg.replace("{root}", str(root)) for arg in argv]
        code = main(argv)
        assert code == expected, f"{' '.join(argv)} exited {code}, expected {expected}"
    return file_hashes(root)


def file_hashes(root: Path) -> dict[str, str]:
    """SHA-256 of every file under ``root``, by relative path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def regen_greedy_layout() -> None:
    scenario = generate_synthetic_scenario(ACCEPTANCE_SEED)
    matrices = build_travel_time_matrices(scenario)
    params = ObjectiveParams()
    layout = greedy_construct(scenario, matrices, params)
    feasible, _ = is_feasible(layout, scenario, matrices, params)
    payload = {
        "seed": ACCEPTANCE_SEED,
        "open_candidates": list(layout.sorted_ids()),
        "feasible": feasible,
    }
    path = GOLDEN / "greedy_layout_seed7.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path} (k={layout.k}, feasible={feasible})")


def regen_solve_result() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "bundle"
        run = Path(tmp) / "run"
        code = main(["synth", "--seed", str(ACCEPTANCE_SEED), "--out", str(bundle)])
        assert code == 0, f"synth exited {code}"
        code = main(["solve", "--config", str(bundle / "run.cfg"), "--out", str(run)])
        assert code == 0, f"solve exited {code}"
        target = GOLDEN / "acceptance_result.json"
        shutil.copyfile(run / "result.json", target)
        print(f"wrote {target}")


def regen_cli_manifest() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        hashes = cli_output_hashes(Path(tmp))
    MANIFEST.write_text(json.dumps(hashes, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST} ({len(hashes)} files)")


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    regen_greedy_layout()
    regen_solve_result()
    regen_cli_manifest()
