"""Run one accessopt command in-process with spans around its public calls.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/tracer.py OUT.json -- solve --config city/run.cfg --out plan
    python3 perfbench/tracer.py OUT.json --split city/run.cfg

The first form runs ``accessopt.cli.main`` under a root span ``cli:main``.
Spans are recorded around the public names as each caller module sees
them, so no file under ``src/`` changes.  Each span knows its parent, so a
span's self time is its duration minus its direct children's.  The process
exits with the command's own exit code.

The second form is the greedy / local-search split: ``optimize`` keeps both
phases private, so this pass calls the public ``greedy_construct`` and then
``local_search`` on the same inputs and records the layout it reaches.

Both write one JSON object to OUT.json: per-span totals, per-layer self
times and the work counts the benchmark reports.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

_T0 = time.perf_counter()
import accessopt.cli as cli  # noqa: E402  (import time is a measured quantity)

IMPORT_S = time.perf_counter() - _T0

import numpy as np  # noqa: E402

from accessopt import accessibility, geodata, optimizer, routing  # noqa: E402

# (caller module, public name, layer of the callee)
WRAPPED = (
    (cli, "generate_synthetic_scenario", "geodata"),
    (cli, "write_scenario_bundle", "geodata"),
    (cli, "load_scenario", "geodata"),
    (cli, "build_travel_time_matrices", "routing"),
    (cli, "accessibility_scores", "accessibility"),
    (cli, "coverage_report", "accessibility"),
    (cli, "optimize", "optimizer"),
    (cli, "exhaustive_oracle", "optimizer"),
    (optimizer, "objective_value", "optimizer"),
    (optimizer, "is_feasible", "optimizer"),
    (optimizer, "accessibility_scores", "accessibility"),
    (optimizer, "coverage_report", "accessibility"),
    (optimizer, "decay_weights", "accessibility"),
    (optimizer, "supply_demand_ratios", "accessibility"),
    (routing, "distance_matrix_m", "routing"),
    (routing, "build_travel_time_matrix", "routing"),
)


class Tracer:
    """Nested spans in memory; calls are kept so counts are read afterwards."""

    def __init__(self):
        self.spans: list[dict] = []
        self.calls: list[tuple[str, tuple, dict, object]] = []
        self._stack: list[int] = []

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        index = len(self.spans)
        record = {"name": name, "layer": layer,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        self.calls.append((name, args, kwargs, result))
        return result

    def install(self, module, attr: str, layer: str) -> None:
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}:{attr}"

        def traced(*args, **kwargs):
            return self.span(name, layer, fn, *args, **kwargs)

        setattr(module, attr, traced)

    def summary(self) -> dict:
        """Per-name inclusive/self totals and per-layer self times."""
        durations = [s["end"] - s["start"] for s in self.spans]
        child_time = [0.0] * len(self.spans)
        for s, d in zip(self.spans, durations):
            if s["parent"] is not None:
                child_time[s["parent"]] += d
        by_name: dict[str, dict] = {}
        layer_self: dict[str, float] = {}
        for s, d, c in zip(self.spans, durations, child_time):
            entry = by_name.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += d
            entry["self_s"] += d - c
            layer_self[s["layer"]] = layer_self.get(s["layer"], 0.0) + d - c
        roots = [d for s, d in zip(self.spans, durations) if s["parent"] is None]
        return {"spans": by_name, "layer_self_s": layer_self, "root_s": sum(roots)}


def _counts(tracer: Tracer) -> dict:
    """Work counts read from the public inputs and results of the traced calls."""
    counts = {"nodes": 0, "edges": 0, "demands": 0, "sites": 0,
              "searches": 0, "pairs": 0, "finite_pairs": 0,
              "greedy_opens": 0, "ls_moves": 0, "layouts_scanned": 0}
    conservation_gap = 0.0
    for name, args, kwargs, result in tracer.calls:
        if name == "cli:load_scenario":
            counts["nodes"] += len(result.network.nodes)
            counts["edges"] += len(result.network.edges)
            counts["demands"] += len(result.demands)
            counts["sites"] += len(result.sites)
        elif name == "routing:distance_matrix_m":
            scenario = args[0]
            counts["searches"] += len(scenario.sites)  # one search per site
            counts["pairs"] += int(result.size)
            # pairs the searches resolved; a search bounded by the walk
            # radius would leave the pairs beyond it at inf
            counts["finite_pairs"] += int(np.count_nonzero(np.isfinite(result)))
        elif name == "cli:optimize":
            scanned, opens, moves = layouts_scanned(
                result.trace, len(args[0].candidate_site_ids), result.feasible)
            counts["layouts_scanned"] += scanned
            counts["greedy_opens"] += opens
            counts["ls_moves"] += moves
        elif name == "cli:exhaustive_oracle":
            counts["layouts_scanned"] += 2 ** len(args[0].candidate_site_ids)
        elif name.endswith(":accessibility_scores"):
            scenario, matrix, open_sites = args[:3]
            if result.gamma == 1.0:
                gap = accessibility.conservation_check(result, scenario, open_sites, matrix)
                conservation_gap = max(conservation_gap, gap)
    counts["conservation_gap"] = conservation_gap
    return counts


def layouts_scanned(trace, n_candidates: int, local_search_ran: bool) -> tuple[int, int, int]:
    """(layouts scanned, greedy opens, local-search moves) from a search trace.

    Greedy step t scans the n - t candidates still closed.  Each local-search
    scan tries |open| drops and |open| * |closed| swaps; the search ends
    with one more scan that finds no improving move.  Local search runs
    only when greedy reached a feasible layout, which is then kept, so a
    feasible result means it ran.
    """
    opens = sum(1 for step in trace if step[0] == "open")
    moves = len(trace) - opens
    scanned = sum(n_candidates - t for t in range(opens))
    if local_search_ran:
        n_open = opens
        for step in trace[opens:]:
            scanned += n_open * (1 + n_candidates - n_open)
            if step[0] == "drop":
                n_open -= 1
        scanned += n_open * (1 + n_candidates - n_open)
    return scanned, opens, moves


def run_command(argv: list[str]) -> tuple[int, dict]:
    tracer = Tracer()
    for module, attr, layer in WRAPPED:
        tracer.install(module, attr, layer)
    code = tracer.span("cli:main", "cli", cli.main, argv)
    summary = tracer.summary()
    summary["counts"] = _counts(tracer)
    return code, summary


def run_split(config_path: str) -> tuple[int, dict]:
    """Public greedy_construct then local_search, each under its own span."""
    cfg = cli.build_config(argparse.Namespace(config=config_path))
    bundle = cfg.bundle
    scenario = geodata.load_scenario(
        f"{bundle}/nodes.csv", f"{bundle}/edges.csv",
        f"{bundle}/demand.csv", f"{bundle}/sites.csv",
        groups=cfg.groups, default_capacity=cfg.capacity,
    )
    matrices = routing.build_travel_time_matrices(
        scenario, include_snap_distance=cfg.include_snap, snap_warn_m=cfg.snap_warn_m)
    params = optimizer.ObjectiveParams(
        alpha=cfg.alpha, beta=cfg.beta, a_sigma=cfg.a_sigma, gamma=cfg.gamma,
        primary_group=cfg.primary_group, constraint_groups=cfg.constraint_groups,
    )
    tracer = Tracer()
    start = tracer.span("optimizer:greedy_construct", "optimizer",
                        optimizer.greedy_construct, scenario, matrices, params)
    final = start
    if optimizer.is_feasible(start, scenario, matrices, params)[0]:
        final = tracer.span("optimizer:local_search", "optimizer", optimizer.local_search,
                            start, scenario, matrices, params, budget=cfg.budget)
    summary = tracer.summary()
    summary["layout"] = list(final.sorted_ids())
    return cli.EXIT_OK, summary


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out, rest = argv[0], argv[1:]
    if rest[:1] == ["--split"]:
        code, summary = run_split(rest[1])
    elif rest[:1] == ["--"]:
        code, summary = run_command(rest[1:])
    else:
        print("usage: tracer.py OUT.json (-- CLI ARGS... | --split RUN.CFG)", file=sys.stderr)
        return 2
    summary["import_s"] = IMPORT_S
    summary["exit"] = code
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
