"""The screened search against a full scan of every layout.

``reference_greedy`` and ``reference_local_search`` evaluate every move of
every step canonically, as the search did before it screened moves.  They
are slow and plainly correct, so the screened search must reproduce them
exactly: the same trace, the same layout and the same objective bits.
"""

import functools
import itertools
import math
import warnings

import numpy as np
import pytest

from accessopt.accessibility import accessibility_scores
from accessopt.geodata import FacilitySite, Scenario, generate_synthetic_scenario
from accessopt.optimizer import (
    IMPROVEMENT_TOL,
    Layout,
    ObjectiveParams,
    _Evaluator,
    _MoveBlock,
    _moves,
    local_search,
    optimize,
)
from accessopt.routing import build_travel_time_matrices

from conftest import GENERAL, random_scenario, table_scenario

N_RANDOM = 60


def reference_greedy(ev, ties):
    open_ids = set()
    trace = []
    remaining = list(ev.candidate_ids)
    while remaining and not ev.feasible(open_ids):
        best_key = None
        best_cid = None
        for cid in remaining:
            objective, _, shortfall = ev.evaluate(open_ids | {cid})
            key = (shortfall, objective, cid)
            if best_key is not None and key[:2] == best_key[:2]:
                ties.append("greedy")
            if best_key is None or key < best_key:
                best_key, best_cid = key, cid
        open_ids.add(best_cid)
        remaining.remove(best_cid)
        trace.append(("open", best_cid))
    return open_ids, trace


def reference_local_search(ev, start, budget, ties):
    current = set(start)
    if not ev.feasible(current):
        return current, []
    trace = []
    current_obj = ev.objective(current)
    for _ in range(budget):
        best_obj = None
        best_move = None
        best_set = None
        closed = [c for c in ev.candidate_ids if c not in current]
        moves = [(("drop", sid), current - {sid}) for sid in sorted(current)]
        moves.extend(
            (("swap", out, inn), (current - {out}) | {inn})
            for out in sorted(current)
            for inn in closed
        )
        for move, trial in moves:
            objective, feasible, _ = ev.evaluate(trial)
            if not feasible or objective >= current_obj - IMPROVEMENT_TOL:
                continue
            if best_obj is not None and objective == best_obj:
                ties.append("local")
            if best_obj is None or objective < best_obj:
                best_obj, best_move, best_set = objective, move, trial
        if best_move is None:
            break
        current, current_obj = set(best_set), best_obj
        trace.append(best_move)
    return current, trace


def with_duplicates(scenario, n):
    """Copies of the first n candidate sites: identical columns, exact ties."""
    candidates = [s for s in scenario.sites if not s.existing][:n]
    copies = tuple(
        FacilitySite(f"{s.site_id}x", s.location, s.status, s.capacity)
        for s in candidates
    )
    return Scenario(scenario.network, scenario.demands, scenario.sites + copies,
                    scenario.groups)


def random_instance(seed):
    """Seeded instance; the options vary with the seed so all are covered."""
    rng = np.random.default_rng(1000 + seed)
    two_groups = seed % 3 != 0
    scenario = random_scenario(
        1000 + seed,
        max_nodes=30,
        max_demands=16,
        n_existing=int(rng.integers(0, 3)),
        n_candidates=int(rng.integers(4, 10)),
        two_groups=two_groups,
        capacity=float(rng.choice([300.0, 800.0, 1500.0])),
    )
    scenario = with_duplicates(scenario, int(rng.integers(0, 3)) if seed % 4 else 2)
    matrices = build_travel_time_matrices(scenario)
    constraint = ("general", "elderly") if two_groups else ("general",)
    primary = constraint[seed % len(constraint)]
    gamma = float(rng.choice([1.0, 0.6, 1.7]))
    # the target: a share of the worst score with every candidate open, so
    # greedy stops part way; a share above 1, or demand that no site reaches,
    # makes the instance infeasible
    lowest = min(
        accessibility_scores(scenario, matrices[g], set(scenario.site_ids),
                             gamma).scores[d.demand_id]
        for g in constraint
        for d in scenario.demands
        if d.pop_of(g) > 0
    )
    share = float(rng.choice([0.3, 0.6, 0.85, 1.0, 1.2]))
    a_sigma = lowest * share if lowest > 0 else 0.1 * gamma
    params = ObjectiveParams(
        alpha=float(rng.choice([1.0, 0.4, 2.5, 0.0])),
        beta=float(rng.choice([1.0, 0.3, 6.0, 0.0])),
        a_sigma=a_sigma,
        gamma=gamma,
        primary_group=primary,
        constraint_groups=constraint,
    )
    return scenario, matrices, params


def city_instance(seed):
    """A synthetic city with both groups constrained, as in the benchmark."""
    scenario = generate_synthetic_scenario(seed, grid_rows=12, grid_cols=12,
                                           n_existing=4, n_candidate=16)
    scenario = with_duplicates(scenario, 3)
    matrices = build_travel_time_matrices(scenario)
    params = ObjectiveParams(a_sigma=0.1, alpha=0.5, gamma=1.2, primary_group="elderly",
                             constraint_groups=("general", "elderly"))
    return scenario, matrices, params


def golden_instance():
    """The bundled seed-7 scenario with default parameters."""
    scenario = generate_synthetic_scenario(7)
    return scenario, build_travel_time_matrices(scenario), ObjectiveParams()


INSTANCES = {f"random{seed}": functools.partial(random_instance, seed)
             for seed in range(N_RANDOM)}
INSTANCES.update({f"city{seed}": functools.partial(city_instance, seed)
                  for seed in (1, 2, 6)})
INSTANCES["seed7"] = golden_instance


@functools.lru_cache(maxsize=None)
def outcome(name):
    """(instance, reference trace and layout, result of optimize, ties seen)."""
    scenario, matrices, params = INSTANCES[name]()
    ev = _Evaluator(scenario, matrices, params)
    ties = []
    open_ids, trace = reference_greedy(ev, ties)
    if ev.feasible(open_ids):
        open_ids, moves = reference_local_search(ev, open_ids, 1000, ties)
        trace.extend(moves)
    result = optimize(scenario, matrices, params)
    return (scenario, matrices, params), (trace, open_ids), result, ties


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_search_equals_full_scan(name):
    (scenario, matrices, params), (trace, open_ids), result, _ = outcome(name)
    assert result.trace == tuple(trace)
    assert result.layout.open_candidates == frozenset(open_ids)
    ev = _Evaluator(scenario, matrices, params)
    assert result.objective == ev.objective(open_ids)


@pytest.mark.parametrize("seed", range(8))
def test_local_search_from_all_open_equals_full_scan(seed):
    """Many drops: start with every candidate open."""
    scenario, matrices, params = random_instance(seed)
    ev = _Evaluator(scenario, matrices, params)
    start = set(ev.candidate_ids)
    expected, _ = reference_local_search(ev, start, 1000, [])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        final = local_search(Layout(frozenset(start)), scenario, matrices, params)
    assert final.open_candidates == frozenset(expected)


def test_instances_cover_every_case():
    """The instances above exercise what the screen could get wrong."""
    kinds, ties, options = set(), set(), set()
    for name in INSTANCES:
        (_, _, params), (trace, _), result, seen = outcome(name)
        kinds.update(step[0] for step in trace)
        ties.update(seen)
        options.add("infeasible" if not result.feasible else "feasible")
        if params.gamma != 1.0:
            options.add("gamma")
        if params.alpha not in (0.0, 1.0) and params.beta not in (0.0, 1.0):
            options.add("alpha,beta")
        if len(params.constraint_groups) == 2:
            options.add(f"primary={params.primary_group}")
    assert kinds == {"open", "drop", "swap"}
    assert ties == {"greedy", "local"}
    assert options == {"feasible", "infeasible", "gamma", "alpha,beta",
                       "primary=general", "primary=elderly"}


def screened_moves(ev, current):
    """Screen every open, drop and swap from ``current`` with the search's
    ``_moves``: yields (layout after the move, objective, shortfall and
    feasibility bounds, screened primary field)."""
    closed, fields, screen = _moves(ev, current)
    primary = ev.params.primary_group
    added = np.vstack([np.zeros(ev.n_demands), ev.rows(primary, closed)])
    for out in [None, *sorted(current)]:
        base = dict(fields) if out is None else {
            g: f - ev.rows(g, [out])[0] for g, f in fields.items()}
        stay = current - {out}
        layouts = [stay] + [stay | {c} for c in closed]
        n_open = np.array([len(layout) for layout in layouts])
        bounds = zip(screen.objective(base, n_open), screen.shortfall(base),
                     screen.maybe_feasible(base))
        trial = base[primary] + added
        for q, (layout, bound) in enumerate(zip(layouts, bounds)):
            yield layout, bound, trial[q]


def assert_bounds_hold(ev, current, tight=True):
    """Every screened bound lies on the right side of the canonical value."""
    disagreements = 0
    for layout, (objective_lo, shortfall_lo, maybe_feasible), trial in (
            screened_moves(ev, current)):
        objective, feasible, shortfall = ev.evaluate(layout)
        assert objective_lo <= objective
        assert shortfall_lo <= shortfall
        assert maybe_feasible or not feasible
        if tight:  # close enough to the canonical value to screen
            assert objective - objective_lo <= 1e-9 * max(1.0, objective)
        disagreements += np.any(trial != ev.fields(layout)[ev.params.primary_group])
    return disagreements


@pytest.mark.parametrize("name", [f"random{seed}" for seed in range(12)] + ["city1"])
def test_screen_bounds_hold(name):
    scenario, matrices, params = INSTANCES[name]()
    ev = _Evaluator(scenario, matrices, params)
    rng = np.random.default_rng(list(INSTANCES).index(name))
    for _ in range(4):
        assert_bounds_hold(ev, {c for c in ev.candidate_ids if rng.random() < 0.5})


def test_bounds_hold_where_rounding_decides():
    """A target exactly on one layout's field: only the error bound separates
    the screened objective from the canonical one (alpha = 0, one row)."""
    capacities = (100.0, 200.0, 300.0, 70.0, 1100.0)
    sites = [(f"s{j}", "candidate", cap) for j, cap in enumerate(capacities)]
    scenario, matrices = table_scenario(
        [("d1", {"general": 1000})], sites, (GENERAL,),
        {"general": [[0.0] * len(capacities)]},
    )
    ev0 = _Evaluator(scenario, matrices, ObjectiveParams())
    layouts = [set(c) for n in range(len(capacities) + 1)
               for c in itertools.combinations(ev0.candidate_ids, n)]
    disagreements = 0
    for target in layouts:
        a_sigma = float(ev0.fields(target)["general"][0])
        ev = _Evaluator(scenario, matrices, ObjectiveParams(alpha=0.0, a_sigma=a_sigma))
        for current in layouts:
            disagreements += assert_bounds_hold(ev, current, tight=False)
    assert disagreements  # the instance does make the two sums differ


def test_bounds_hold_for_long_sums():
    """Rows no site reaches have no field error, so only the slack for the
    summation order keeps the bounds below the canonical sums."""
    n = 1000
    scenario, matrices = table_scenario(
        [(f"d{i:04d}", {"general": 1000}) for i in range(n)],
        [("s0", "candidate", 1500.0), ("s1", "candidate", 1500.0)], (GENERAL,),
        {"general": [[math.inf, math.inf]] * n},
    )
    for a_sigma in (0.1, 0.13, 0.135, 0.17, 0.3, 0.7):
        ev = _Evaluator(scenario, matrices, ObjectiveParams(alpha=0.0, a_sigma=a_sigma))
        assert_bounds_hold(ev, {"s0"}, tight=False)


def weaken_bounds(monkeypatch, seed):
    """Make every ``_MoveBlock`` bound randomly weaker, but still a bound."""
    rng = np.random.default_rng(seed)

    def loosen(method):
        def weakened(self, *args):
            value = method(self, *args)
            return value - rng.uniform(0.0, 0.3, value.shape) * (np.abs(value) + 1e-3)
        return weakened

    def doubt(method):
        def weakened(self, base):
            value = method(self, base)
            return value | (rng.random(value.shape) < 0.3)
        return weakened

    monkeypatch.setattr(_MoveBlock, "objective", loosen(_MoveBlock.objective))
    monkeypatch.setattr(_MoveBlock, "shortfall", loosen(_MoveBlock.shortfall))
    monkeypatch.setattr(_MoveBlock, "maybe_feasible", doubt(_MoveBlock.maybe_feasible))


@pytest.mark.parametrize("seed", range(3))
def test_any_valid_bounds_give_the_same_search(seed, monkeypatch):
    """Randomly weakened bounds are still bounds, so the search must not
    change; they scramble the order of confirmation, which exercises the
    stopping rules and the tie-breaks that a tight screen rarely reaches."""
    weaken_bounds(monkeypatch, seed)
    for name in sorted(INSTANCES):
        (scenario, matrices, params), (trace, _), _, _ = outcome(name)
        assert optimize(scenario, matrices, params).trace == tuple(trace), name
