"""accessopt benchmark: whole CLI runs on seeded synthetic cities.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-search --seed 1 --seconds 30 --trace 0

Each workload synthesises its cities with ``accessopt synth`` (the set-up),
then runs its command sequence (``solve``; ``score``; or ``solve`` then
``oracle``) on the cities again and again, in a fresh process each time,
until ``--seconds`` have passed.  The cities are fixed per workload, so
every run does the same work; ``--seed`` shuffles the order the cities are
run in, pass by pass.  Every command's outputs are checked.  Each timed
command sequence and each synth follows one run of ``calibrate.py``, and
times are reported relative to it (see CAL_REF_S).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracer.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the run's details and environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
TRACER = str(HERE / "tracer.py")
CALIBRATE = str(HERE / "calibrate.py")

# set-up synthesises each city, then repeats synths (checking that the bytes
# repeat) until it has SETUP_MIN runs and either SETUP_MAX runs or
# SETUP_SECONDS spent; setup_s is the median synth wall time, calibrated
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 5, 9, 3.0
COMMAND_TIMEOUT_S = 150.0
# End-to-end times are reported in seconds of a machine on which
# calibrate.py takes CAL_REF_S: each command's wall time is divided by that
# of calibrate.py run just before it, then multiplied by CAL_REF_S.
CAL_REF_S = 0.6
# Every command runs with one BLAS thread.  On a shared 2-CPU machine a
# two-thread phase (synth's matrix-vector products) slowed twofold whenever
# the second CPU was busy, which the one-thread calibration cannot follow.
COMMAND_ENV = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
FEASIBILITY_TOL = 1e-9
OBJECTIVE_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    why: str
    grid: int  # rows = cols
    existing: int
    candidates: int
    cities: tuple[int, ...]  # synth seeds run on every pass
    held_out: int  # synth seed kept out of the runs, checked by the test
    commands: tuple[tuple[str, ...], ...]
    feasible: bool  # whether the layout must meet the target everywhere
    moves: bool  # whether local search must take at least one move (traced runs)

    def synth_args(self, city: int) -> list[str]:
        return ["synth", "--seed", str(city), "--grid-rows", str(self.grid),
                "--grid-cols", str(self.grid), "--n-existing", str(self.existing),
                "--n-candidate", str(self.candidates)]


WORKLOADS = {
    "solve-search": Workload(
        why="solve on 26x26 cities: drop/swap local search is most of the run, routing little",
        grid=26, existing=20, candidates=90, cities=(1, 2), held_out=4,
        commands=(("solve",),), feasible=True, moves=True,
    ),
    "score-city": Workload(
        why="score on 40x40 cities: shortest paths are most of the run, the optimizer is not run",
        grid=40, existing=40, candidates=200, cities=(1, 2), held_out=3,
        commands=(("score",),), feasible=False, moves=False,
    ),
    "oracle-pool": Workload(
        why="solve then oracle on 12x12 cities: 2^16 independent layouts, no incremental moves",
        grid=12, existing=4, candidates=16, cities=(1, 2), held_out=6,
        commands=(("solve",), ("oracle", "--max-pool", "16")), feasible=True, moves=False,
    ),
}

# outputs whose bytes are pinned by reference.json
HASHED_OUTPUTS = ("result.json", "result_oracle.json",
                  "accessibility_general.csv", "accessibility_elderly.csv")
BUNDLE_FILES = ("nodes.csv", "edges.csv", "demand.csv", "sites.csv", "run.cfg")

END_TO_END_UNITS = {"run_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
                    "setup_peak_rss_mb": "MB"}


class Checks:
    """Counts attempted and failed steps; prints each failure to stderr."""

    def __init__(self, workload: str, record: bool):
        self.workload = workload
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        self.seen: dict[str, str] = {}

    def step(self, problems: list[str], what: str) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"CHECK FAILED [{self.workload}] {what}: {p}", file=sys.stderr)
        return not problems

    def hashes(self, key: str, files: dict[str, Path], params: dict) -> list[str]:
        """Compare file digests with reference.json and with earlier repeats."""
        entry = self.reference.setdefault(self.workload, {"params": params, "files": {}})
        if entry["params"] != params:
            return [f"reference.json was recorded for {entry['params']}, not {params}"]
        pinned = entry["files"].setdefault(key, {})
        problems = []
        for name, path in files.items():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            seen = self.seen.setdefault(f"{key}/{name}", digest)
            if seen != digest:
                problems.append(f"{name} differs between repeats of the same input")
            if self.record:
                pinned[name] = digest
            elif pinned.get(name) != digest:
                problems.append(f"{name} sha256 {digest[:12]} != reference "
                                f"{str(pinned.get(name))[:12]}")
        return problems

    def save_reference(self) -> None:
        REFERENCE.write_text(json.dumps(self.reference, indent=1, sort_keys=True) + "\n")


def spawn(args: list[str], log: Path) -> tuple[int, float, float]:
    """Run ``python3 ARGS`` from the checkout root: (exit code, wall s, peak RSS MB).

    The wall time runs from spawn to exit.  Peak RSS is the child's
    ``ru_maxrss`` from ``os.wait4``.  Linux also counts in it the resident
    set of this process, which the child starts as before its exec, so this
    module must import only the standard library (about 15 MB, below every
    command's peak): numpy is probed in a child process, never imported here.
    """
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=COMMAND_ENV,
                                stdout=fh, stderr=subprocess.STDOUT)
        # Popen.wait would reap the child and drop its rusage
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def read_cfg(path: Path) -> dict[str, str]:
    values = {}
    for line in path.read_text().splitlines():
        text = line.split("#", 1)[0]
        if "=" in text:
            key, value = (part.strip() for part in text.split("=", 1))
            values[key] = value
    return values


def read_scores(path: Path) -> dict[str, float]:
    lines = path.read_text().splitlines()
    return {did: float(a) for did, _, a in (row.split(",") for row in lines[1:])}


def read_populated(bundle: Path, group: str) -> set[str]:
    lines = bundle.joinpath("demand.csv").read_text().splitlines()
    column = lines[0].split(",").index(f"pop_{group}")
    return {row.split(",")[0] for row in lines[1:] if int(row.split(",")[column]) > 0}


def check_outputs(w: Workload, bundle: Path, out: Path) -> tuple[list[str], dict]:
    """Problems with one command sequence's outputs, plus its objective readings."""
    problems: list[str] = []
    info: dict = {}
    scores = read_scores(out / "accessibility_general.csv")
    demand_ids = bundle.joinpath("demand.csv").read_text().splitlines()[1:]
    if len(scores) != len(demand_ids):
        problems.append(f"{len(scores)} scores for {len(demand_ids)} demand points")
    if not w.feasible:
        return problems, info

    cfg = read_cfg(bundle / "run.cfg")
    a_sigma, alpha, beta = (float(cfg[k]) for k in ("a_sigma", "alpha", "beta"))
    low = [d for d in read_populated(bundle, "general")
           if scores[d] < a_sigma - FEASIBILITY_TOL]
    if low:
        problems.append(f"{len(low)} populated demand points below a_sigma, e.g. {low[0]}")
    result = json.loads((out / "result.json").read_text())
    recomputed = alpha * result["k"] + beta * math.fsum((a - a_sigma) ** 2 for a in scores.values())
    if abs(recomputed - result["objective"]) > OBJECTIVE_RTOL * abs(result["objective"]):
        problems.append(f"objective {result['objective']} != {recomputed} recomputed from CSV")
    info["objective"] = result["objective"]
    info["layout"] = result["layout"]
    oracle_path = out / "result_oracle.json"
    if oracle_path.exists():
        oracle = json.loads(oracle_path.read_text())["objective"]
        if not oracle <= result["objective"] * (1 + 1e-12):
            problems.append(f"oracle objective {oracle} above heuristic {result['objective']}")
        info["oracle_objective"] = oracle
        info["objective_ratio"] = result["objective"] / oracle
    return problems, info


class Bench:
    """One workload's cities and work directory; ``held_out`` runs only the
    held-out city instead, as test_perfbench.py does."""

    def __init__(self, name: str, seed: int, checks: Checks, held_out: bool = False):
        self.name = name
        self.w = WORKLOADS[name]
        self.cities = (self.w.held_out,) if held_out else self.w.cities
        self.rng = random.Random(seed)
        self.checks = checks
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.log = self.work / "commands.log"
        self.params = json.loads(json.dumps(  # as reference.json stores it
            {"grid": self.w.grid, "existing": self.w.existing,
             "candidates": self.w.candidates, "commands": self.w.commands}))

    def bundle(self, city: int) -> Path:
        return self.work / f"city{city}"

    def calibration(self) -> float:
        """Wall seconds of one calibrate.py run."""
        code, wall, _ = spawn([CALIBRATE], self.log)
        self.checks.step([f"calibrate.py exited {code}"] if code else [], "calibration")
        return wall

    def set_up(self) -> tuple[list[float], list[float], list[float]]:
        """Synthesise every city, then repeat synths as SETUP_* says.

        Returns the synth wall times, the same divided by the calibration
        time measured right before each, and the synth peak RSS values.
        """
        walls, ratios, rss = [], [], []
        i = 0
        while i < max(SETUP_MIN, len(self.cities)) or (
                i < SETUP_MAX and sum(walls) < SETUP_SECONDS):
            city = self.cities[i % len(self.cities)]
            target = self.bundle(city) if i < len(self.cities) else self.work / "again"
            shutil.rmtree(target, ignore_errors=True)
            calibration = self.calibration()
            code, wall, peak = spawn(["-m", "accessopt", *self.w.synth_args(city),
                                      "--out", str(target)], self.log)
            walls.append(wall)
            ratios.append(wall / calibration)
            rss.append(peak)
            problems = [f"synth exited {code}"] if code else self.checks.hashes(
                f"city{city}", {f"bundle/{f}": target / f for f in BUNDLE_FILES}, self.params)
            self.checks.step(problems, f"synth city {city}")
            i += 1
        shutil.rmtree(self.work / "again", ignore_errors=True)
        return walls, ratios, rss

    def sequence(self, city: int, traced: bool) -> tuple[float, float, float, Path, dict]:
        """Run the command sequence on one city; check exit codes and outputs.

        Returns its wall time, the calibration time measured right before
        it, its peak RSS, the output directory and the objective readings.
        """
        calibration = self.calibration()
        out = self.work / f"out{city}"
        shutil.rmtree(out, ignore_errors=True)
        cfg = str(self.bundle(city) / "run.cfg")
        wall, peak, problems = 0.0, 0.0, []
        for k, command in enumerate(self.w.commands):
            runner = ([TRACER, str(self.work / f"trace{city}-{k}.json"), "--"] if traced
                      else ["-m", "accessopt"])
            code, t, rss = spawn([*runner, *command, "--config", cfg, "--out", str(out)],
                                 self.log)
            wall += t
            peak = max(peak, rss)
            if code != 0:
                problems.append(f"{command[0]} exited {code}, expected 0")
        info: dict = {}
        if not problems:
            try:
                problems, info = check_outputs(self.w, self.bundle(city), out)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"outputs unreadable: {exc!r}"]
            present = {f"out/{f}": out / f for f in HASHED_OUTPUTS if (out / f).exists()}
            problems += self.checks.hashes(f"city{city}", present, self.params)
        self.checks.step(problems, f"city {city} {'traced' if traced else 'run'}")
        return wall, calibration, peak, out, info

    def loop(self, seconds: float, run_city) -> None:
        """Call ``run_city`` in seeded-shuffled passes over the cities until
        ``seconds`` have passed and every city ran at least once."""
        ran: set[int] = set()
        start = time.perf_counter()
        while True:
            order = list(self.cities)
            self.rng.shuffle(order)
            for city in order:
                run_city(city)
                ran.add(city)
                if time.perf_counter() - start >= seconds and len(ran) == len(self.cities):
                    return


def pass_total(per_city: dict[int, list[float]]) -> float:
    """Sum over cities of the median of that city's samples: one pass's cost."""
    return sum(statistics.median(v) for v in per_city.values())


def environment() -> dict:
    probe = (
        "import ctypes, glob, json, os, sys, numpy\n"
        "libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,"
        " 'numpy.libs', '*openblas*'))\n"
        "threads = None\n"
        "for lib in libs:\n"
        "    dll = ctypes.CDLL(lib)\n"
        "    for sym in ('scipy_openblas_get_num_threads64_', 'openblas_get_num_threads64_',"
        " 'openblas_get_num_threads'):\n"
        "        if hasattr(dll, sym):\n"
        "            threads = getattr(dll, sym)()\n"
        "            break\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,"
        " 'blas': blas.get('name'), 'blas_threads': threads}))\n"
    )
    found = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=COMMAND_ENV,
                           capture_output=True, text=True, timeout=60)
    record = json.loads(found.stdout) if found.returncode == 0 else {"probe_error": found.stderr}
    record["nproc"] = os.cpu_count()
    record["cpus_usable"] = len(os.sched_getaffinity(0))
    return record


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setup_walls, setup_ratios, setup_rss = bench.set_up()
    walls: dict[int, list[float]] = {c: [] for c in bench.cities}
    ratios: dict[int, list[float]] = {c: [] for c in bench.cities}
    calibrations: list[float] = []
    peaks: list[float] = []
    readings: dict[int, dict] = {}

    def run_city(city):
        wall, calibration, peak, _, info = bench.sequence(city, traced=False)
        walls[city].append(wall)
        ratios[city].append(wall / calibration)
        calibrations.append(calibration)
        peaks.append(peak)
        readings.setdefault(city, info)

    bench.loop(seconds, run_city)
    metrics = {
        "run_s": CAL_REF_S * pass_total(ratios),
        "peak_rss_mb": max(peaks),
        "setup_s": CAL_REF_S * statistics.median(setup_ratios),
        "setup_peak_rss_mb": max(setup_rss),
    }
    details = {"wall_run_s": pass_total(walls), "wall_setup_s": statistics.median(setup_walls),
               "calibration_s": statistics.median(calibrations),
               "run_s_samples": walls, "setup_s_samples": setup_walls, "readings": readings}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, details


# per-layer metric name -> unit; every name is reported on every workload
PER_LAYER_UNITS = {
    "geodata.synth_s": "s", "geodata.write_bundle_s": "s", "geodata.load_s": "s",
    "geodata.self_s": "s", "geodata.nodes": "count", "geodata.edges": "count",
    "geodata.demands": "count", "geodata.sites": "count",
    "routing.distance_s": "s", "routing.convert_s": "s", "routing.ms_per_search": "ms",
    "routing.self_s": "s", "routing.searches": "count", "routing.pairs": "count",
    "routing.reach_share": "ratio",
    "accessibility.scores_s": "s", "accessibility.coverage_s": "s",
    "accessibility.self_s": "s", "accessibility.calls": "count",
    "accessibility.conservation_gap": "ratio",
    "optimizer.greedy_s": "s", "optimizer.local_search_s": "s",
    "optimizer.assemble_s": "s", "optimizer.evaluator_build_s": "s",
    "optimizer.oracle_s": "s", "optimizer.search_s": "s", "optimizer.self_s": "s",
    "optimizer.greedy_opens": "count", "optimizer.ls_moves": "count",
    "optimizer.layouts_scanned": "count", "optimizer.us_per_layout": "us",
    "cli.self_s": "s", "cli.main_s": "s", "cli.import_s": "s", "cli.output_bytes": "bytes",
    "trace.run_s": "s", "trace.overhead_s": "s",
}

# per-layer times, each the sum of these spans' inclusive durations
SPAN_TOTALS = {
    "geodata.synth_s": ("cli:generate_synthetic_scenario",),
    "geodata.write_bundle_s": ("cli:write_scenario_bundle",),
    "geodata.load_s": ("cli:load_scenario",),
    "routing.distance_s": ("routing:distance_matrix_m",),
    "routing.convert_s": ("routing:build_travel_time_matrix",),
    "accessibility.scores_s": ("cli:accessibility_scores", "optimizer:accessibility_scores"),
    "accessibility.coverage_s": ("cli:coverage_report", "optimizer:coverage_report"),
    "optimizer.assemble_s": ("optimizer:objective_value", "optimizer:is_feasible",
                             "optimizer:accessibility_scores", "optimizer:coverage_report"),
    "optimizer.evaluator_build_s": ("optimizer:decay_weights", "optimizer:supply_demand_ratios"),
    "optimizer.oracle_s": ("cli:exhaustive_oracle",),
    "optimizer.greedy_s": ("optimizer:greedy_construct",),
    "optimizer.local_search_s": ("optimizer:local_search",),
}
COUNTS = ("nodes", "edges", "demands", "sites", "searches", "pairs", "finite_pairs",
          "greedy_opens", "ls_moves", "layouts_scanned", "calls")
LAYERS = ("geodata", "routing", "accessibility", "optimizer", "cli")
SPLIT = ("optimizer.greedy_s", "optimizer.local_search_s")  # from the split pass


def read_trace(path: Path) -> dict:
    """One traced process's figures, keyed like the per-layer metrics."""
    summary = json.loads(path.read_text())
    spans = summary["spans"]
    row = {name: sum(spans.get(s, {}).get("total_s", 0.0) for s in names)
           for name, names in SPAN_TOTALS.items()}
    row["optimizer.search_s"] = sum(spans.get(s, {}).get("self_s", 0.0)
                                    for s in ("cli:optimize", "cli:exhaustive_oracle"))
    for layer in LAYERS:
        row[f"{layer}.self_s"] = summary["layer_self_s"].get(layer, 0.0)
    row["cli.main_s"] = summary["root_s"]
    row["import_s"] = summary["import_s"]
    counts = dict(summary.get("counts", {}))
    counts["calls"] = sum(spans.get(s, {}).get("calls", 0)
                          for s in SPAN_TOTALS["accessibility.scores_s"])
    row["conservation_gap"] = counts.pop("conservation_gap", 0.0)
    row["counts"] = {k: counts.get(k, 0) for k in COUNTS}
    row["layout"] = summary.get("layout")
    return row


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    bench.set_up()
    checks = bench.checks
    synth: dict[str, float] = {"geodata.synth_s": 0.0, "geodata.write_bundle_s": 0.0}
    for city in bench.cities:
        path = bench.work / f"synth{city}.json"
        code, _, _ = spawn([TRACER, str(path), "--", *bench.w.synth_args(city),
                            "--out", str(bench.work / "traced-synth")], bench.log)
        if checks.step([f"traced synth exited {code}"] if code else [], f"traced synth {city}"):
            row = read_trace(path)
            for name in synth:
                synth[name] += row[name]

    # calibrated as run_s is: wall time over the calibration run right before
    untraced: dict[int, list[float]] = {c: [] for c in bench.cities}
    traced: dict[int, list[float]] = {c: [] for c in bench.cities}
    rows: dict[int, list[dict]] = {c: [] for c in bench.cities}
    imports: list[float] = []
    layouts: dict[int, list] = {}

    def run_city(city):
        # an untraced run right before each traced one: overhead = the difference
        wall, calibration, _, _, _ = bench.sequence(city, traced=False)
        untraced[city].append(wall / calibration)
        wall, calibration, _, out, info = bench.sequence(city, traced=True)
        traced[city].append(wall / calibration)
        merged: dict = {"counts": dict.fromkeys(COUNTS, 0), "conservation_gap": 0.0}
        problems = []
        for k in range(len(bench.w.commands)):
            row = read_trace(bench.work / f"trace{city}-{k}.json")
            imports.append(row.pop("import_s"))
            if abs(sum(row[f"{layer}.self_s"] for layer in LAYERS) - row["cli.main_s"]) > (
                    1e-9 * row["cli.main_s"]):
                problems.append("span self times do not sum to the cli:main span")
            for key, value in row.items():
                if key == "counts":
                    for c, n in value.items():
                        merged["counts"][c] += n
                elif key == "conservation_gap":
                    merged[key] = max(merged[key], value)
                elif key != "layout":
                    merged[key] = merged.get(key, 0.0) + value
        merged["output_bytes"] = sum(f.stat().st_size for f in out.iterdir())
        first = rows[city][0] if rows[city] else merged
        for c in COUNTS:
            if merged["counts"][c] != first["counts"][c]:
                problems.append(f"count {c} changed between repeats")
        if merged["output_bytes"] != first["output_bytes"]:
            problems.append("output bytes changed between repeats")
        if merged["conservation_gap"] > 1e-9:
            problems.append(f"conservation gap {merged['conservation_gap']}")
        if bench.w.moves and merged["counts"]["ls_moves"] == 0:
            problems.append("CHARACTER LOST: local search took no move on this city")
        checks.step(problems, f"trace of city {city}")
        rows[city].append(merged)
        layouts[city] = info.get("layout")

    bench.loop(seconds, run_city)

    split: dict[int, dict] = {}
    if "solve" in (cmd[0] for cmd in bench.w.commands):
        for city in bench.cities:
            path = bench.work / f"split{city}.json"
            code, _, _ = spawn([TRACER, str(path), "--split",
                                str(bench.bundle(city) / "run.cfg")], bench.log)
            problems = [f"split pass exited {code}"] if code else []
            if not code:
                split[city] = read_trace(path)
                if split[city]["layout"] != layouts[city]:
                    problems.append("greedy_construct + local_search layout differs from solve")
            checks.step(problems, f"greedy/local-search split of city {city}")

    def total(key):  # per pass: sum over cities of each city's median
        return sum(statistics.median(r[key] for r in rows[c]) for c in bench.cities)

    def count(key):
        return sum(rows[c][0]["counts"][key] for c in bench.cities)

    m = dict(synth)
    for name in SPLIT:
        m[name] = sum(s[name] for s in split.values())
    for name in (*SPAN_TOTALS, "optimizer.search_s", "cli.main_s",
                 *(f"{layer}.self_s" for layer in LAYERS)):
        m.setdefault(name, total(name))
    for name in ("nodes", "edges", "demands", "sites"):
        m[f"geodata.{name}"] = count(name)
    for name in ("searches", "pairs"):
        m[f"routing.{name}"] = count(name)
    m["routing.reach_share"] = count("finite_pairs") / count("pairs")
    m["routing.ms_per_search"] = 1e3 * m["routing.distance_s"] / count("searches")
    m["accessibility.calls"] = count("calls")
    m["accessibility.conservation_gap"] = max(
        r["conservation_gap"] for c in bench.cities for r in rows[c])
    for name in ("greedy_opens", "ls_moves", "layouts_scanned"):
        m[f"optimizer.{name}"] = count(name)
    scanned = m["optimizer.layouts_scanned"]
    m["optimizer.us_per_layout"] = 1e6 * m["optimizer.search_s"] / scanned if scanned else 0.0
    m["cli.import_s"] = statistics.median(imports)
    m["cli.output_bytes"] = sum(rows[c][0]["output_bytes"] for c in bench.cities)
    m["trace.run_s"] = CAL_REF_S * pass_total(traced)
    m["trace.overhead_s"] = m["trace.run_s"] - CAL_REF_S * pass_total(untraced)
    details = {"traced_ratio_samples": traced, "untraced_ratio_samples": untraced}
    return {k: (v, PER_LAYER_UNITS[k]) for k, v in m.items()}, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="orders the cities in each pass")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="write the output digests of this run into reference.json")
    args = parser.parse_args(argv)

    if not (SRC / "accessopt" / "cli.py").is_file():
        print(f"error: no accessopt sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    checks = Checks(args.workload, args.record_reference)
    bench = Bench(args.workload, args.seed, checks)
    measure = per_layer if args.trace else end_to_end
    metrics, details = measure(bench, args.seconds)
    if args.record_reference:
        checks.save_reference()
    details.update(workload=args.workload, seed=args.seed, cities=list(bench.cities),
                   seconds=args.seconds, trace=args.trace, environment=environment())
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
