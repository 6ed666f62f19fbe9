"""The search against a full scan of every layout.

``reference_greedy`` and ``reference_local_search`` evaluate every move of
every step canonically, as the search did before it bounded moves.  They
are slow and plainly correct, so the screened greedy and local search must
reproduce them exactly: the same trace, the same layout and the same
objective bits.
"""

import copy
import functools
import itertools
import math
import warnings

import numpy as np
import pytest

from accessopt import optimizer
from accessopt.accessibility import _Catchment, accessibility_scores
from accessopt.geodata import FacilitySite, Scenario, generate_synthetic_scenario
from accessopt.optimizer import (
    _TINY,
    FEASIBILITY_TOL,
    IMPROVEMENT_TOL,
    Layout,
    ObjectiveParams,
    _drop_swap_bounds,
    _Evaluator,
    _greedy,
    _local_search,
    _MoveBlock,
    _open_bounds,
    local_search,
    optimize,
)
from accessopt.routing import build_travel_time_matrices

from conftest import GENERAL, random_scenario, table_scenario

N_RANDOM = 60


def bits(x):
    return np.float64(x).tobytes()


def reference_greedy(ev, ties):
    open_ids = set()
    trace = []
    remaining = list(ev.candidate_ids)
    while remaining and not ev.evaluate(open_ids)[1]:
        best_key = None
        best_cid = None
        for cid in remaining:
            objective, _, shortfall = ev.evaluate(open_ids | {cid})[:3]
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
    current_obj, feasible, _ = ev.evaluate(current)[:3]
    if not feasible:
        return current, []
    trace = []
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
            objective, feasible, _ = ev.evaluate(trial)[:3]
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


def bench_city():
    """City 1 of the solve benchmark: greedy opens 33 of 90 candidates."""
    scenario = generate_synthetic_scenario(1, grid_rows=26, grid_cols=26,
                                           n_existing=20, n_candidate=90)
    return scenario, build_travel_time_matrices(scenario), ObjectiveParams()


INSTANCES = {f"random{seed}": functools.partial(random_instance, seed)
             for seed in range(N_RANDOM)}
INSTANCES.update({f"city{seed}": functools.partial(city_instance, seed)
                  for seed in (1, 2, 6)})
INSTANCES["seed7"] = golden_instance
INSTANCES["bench26"] = bench_city


@functools.lru_cache(maxsize=None)
def outcome(name):
    """(instance, reference trace and layout, result of optimize, ties seen)."""
    scenario, matrices, params = INSTANCES[name]()
    ev = _Evaluator(scenario, matrices, params)
    ties = []
    open_ids, trace = reference_greedy(ev, ties)
    if ev.evaluate(open_ids)[1]:
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
    assert result.objective == ev.evaluate(open_ids)[0]


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


def all_pairs_gram(ev):
    """The candidates' Gram matrix from one ``bincount`` of every pair of
    entries at each demand point, as it was built before it was blocked."""
    t, n = ev.by_demand[ev.params.primary_group], len(ev.candidate_ids)
    second, first = t.entries(t.site)
    gram = np.bincount(t.demand[first] * n + t.demand[second],
                       t.values[first] * t.values[second], minlength=n * n)
    return gram.reshape(n, n)


def dense_drop_swap_bounds(ev, current):
    """Local search's screen as it was before it bounded only the moves that
    may be feasible: (outs, closed, objective bounds, maybe feasible), the
    two arrays (len(outs), 1 + len(closed)), column 0 the drop and column
    1 + q the swap that opens ``closed[q]``; the same argument as
    ``_drop_swap_bounds``, at every move."""
    p = ev.params
    outs = sorted(current)
    closed = [c for c in ev.candidate_ids if c not in current]
    is_open = np.array([c in current for c in ev.candidate_ids], dtype=bool)
    n_cand, n_outs = len(is_open), len(outs)
    row_of = np.cumsum(is_open) - 1  # each open candidate's row
    fields = ev.fields(current)
    maybe_feasible = np.ones((n_outs, 1 + len(closed)), dtype=bool)
    floor = p.a_sigma - FEASIBILITY_TOL
    for g in p.constraint_groups:
        F, pos, t = fields[g], ev.pos_mask[g], ev.by_demand[g]
        closing = is_open[t.demand]
        rows, points = row_of[t.demand[closing]], t.site[closing]
        base = F[points] - t.values[closing]
        deficit = (base + (ev.field_tol * F[points] + _TINY) < floor) & pos[points]
        rows, points, base = rows[deficit], points[deficit], base[deficit]
        n_deficit = np.bincount(rows, minlength=n_outs)
        at, which = t.entries(points)
        n = t.values[at]
        raised = n + (ev.field_tol * (F[points[which]] + n) + _TINY)
        lifts = np.bincount(rows[which] * n_cand + t.demand[at],
                            ~(base[which] + raised < floor), minlength=n_outs * n_cand)
        lifts = lifts.reshape(n_outs, n_cand)[:, ~is_open]
        maybe_feasible[:, 0] &= n_deficit == 0
        maybe_feasible[:, 1:] &= lifts == n_deficit[:, None]

    t, F = ev.by_demand[p.primary_group], fields[p.primary_group]
    x = F - p.a_sigma
    ax = np.abs(x)
    xx, axF = np.einsum("i,i->", x, x), np.einsum("i,i->", ax, F)
    vv, vx, vax, vF = (np.bincount(t.demand, t.values * w, minlength=n_cand)
                       for w in (t.values, x[t.site], ax[t.site], F[t.site]))
    oo, ox, oax, oF = (v[is_open] for v in (vv, vx, vax, vF))
    nn, nx, nax, nF = (np.concatenate(([0.0], v[~is_open])) for v in (vv, vx, vax, vF))
    on = np.zeros((n_outs, 1 + len(closed)))
    on[:, 1:] = all_pairs_gram(ev)[np.ix_(is_open, ~is_open)]
    squares = (xx + oo - 2 * ox)[:, None] + (nn + 2 * nx) - 2 * on
    norm = (xx + oo + 2 * oax)[:, None] + (nn + 2 * nax) + 2 * on
    field_err = (axF + oF)[:, None] + (nF + nn + nax) + on
    slack = ev.sum_tol * norm + 2 * ev.field_tol * field_err
    least = p.alpha * (n_outs - (np.arange(1 + len(closed)) == 0))
    objective_lo = np.fmax((least + p.beta * (squares - slack)) * (1.0 - ev.sum_tol)
                           - _TINY, least)
    return outs, closed, objective_lo, maybe_feasible


def assert_screen_equals_dense(ev, current):
    """The screen keeps exactly the moves that the dense screen marks maybe
    feasible, row by row, and bounds each with the dense screen's bits: it
    does the same arithmetic, one move at a time."""
    outs, closed, rows, cols, objective_lo = _drop_swap_bounds(ev, ev.evaluate(current))
    dense_outs, dense_closed, dense_lo, maybe_feasible = dense_drop_swap_bounds(ev, current)
    assert (outs, closed) == (dense_outs, dense_closed)
    kept_rows, kept_cols = np.nonzero(maybe_feasible)
    assert np.array_equal(rows, kept_rows) and np.array_equal(cols, kept_cols)
    assert np.array_equal(objective_lo, dense_lo[rows, cols])


def drop_swap_moves(ev, current):
    """Every drop and swap from ``current`` with local search's screen:
    yields (layout after the move, objective bound), the bound None where
    the screen leaves the move out as certainly infeasible."""
    outs, closed, rows, cols, objective_lo = _drop_swap_bounds(ev, ev.evaluate(current))
    width = 1 + len(closed)
    assert len(rows) == len(cols) == len(objective_lo)
    assert np.all((0 <= cols) & (cols < width))
    cells = rows * width + cols
    assert np.all(np.diff(cells) > 0)  # row by row, each move once
    bounds = dict(zip(cells.tolist(), objective_lo.tolist()))
    for r, out in enumerate(outs):
        stay = current - {out}
        layouts = [stay] + [stay | {c} for c in closed]
        for q, layout in enumerate(layouts):
            yield layout, bounds.get(r * width + q)


def assert_bounds_hold(ev, current, tight=True):
    """Every move that local search's ``_drop_swap_bounds`` leaves out is
    infeasible, and every bound it gives lies on the right side of the
    canonical value; the screen also matches the dense screen."""
    assert_screen_equals_dense(ev, current)
    for layout, objective_lo in drop_swap_moves(ev, current):
        objective, feasible, _ = ev.evaluate(layout)[:3]
        if objective_lo is None:
            assert not feasible
            continue
        assert objective_lo <= objective
        if tight:  # close enough to the canonical value to screen
            assert objective - objective_lo <= 1e-9 * max(1.0, objective)


def assert_open_bounds_hold(ev, layouts, tight=True):
    """For each layout A and each candidate c outside it, greedy's bound on
    the shortfall at A + c is not strictly above the canonical one, compared
    as greedy compares them.  Returns how many of these bounds hold only by
    their slack: computed with ``sum_tol`` 0, they would be above."""
    bare = copy.copy(ev)
    bare.sum_tol = 0.0
    needed = 0
    for a in layouts:
        current = ev.evaluate(a)
        bounds, bare_bounds = _open_bounds(ev, current), _open_bounds(bare, current)
        for j, c in enumerate(ev.candidate_ids):
            if c in a:
                continue
            s_ac = ev.evaluate(a | {c})[2]
            assert not bounds[j] > s_ac
            if tight:  # close enough to the canonical value to screen
                assert s_ac - bounds[j] <= 1e-9 * max(1.0, s_ac)
            needed += bare_bounds[j] > s_ac
    return needed


@pytest.mark.parametrize("name", [f"random{seed}" for seed in range(12)] + ["city1"])
def test_screen_bounds_hold(name):
    scenario, matrices, params = INSTANCES[name]()
    ev = _Evaluator(scenario, matrices, params)
    rng = np.random.default_rng(list(INSTANCES).index(name))
    for _ in range(4):
        assert_bounds_hold(ev, {c for c in ev.candidate_ids if rng.random() < 0.5})


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_screen_equals_dense_screen(name):
    """On random layouts, the layouts of the search and the all-open one,
    the screen keeps the dense screen's moves with its bounds."""
    (scenario, matrices, params), (trace, final), _, _ = outcome(name)
    ev = _Evaluator(scenario, matrices, params)
    rng = np.random.default_rng(list(INSTANCES).index(name))
    layouts = [{c for c in ev.candidate_ids if rng.random() < p}
               for p in (0.2, 0.5, 0.8, 0.5)]
    layouts += [set(ev.candidate_ids), set(final), {step[1] for step in trace
                                                     if step[0] == "open"}]
    for current in layouts:
        assert_screen_equals_dense(ev, current)


@pytest.mark.parametrize("block", [1, 64, optimizer._GRAM_BLOCK])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_gram_equals_all_pairs(name, block, monkeypatch):
    """The Gram matrix built a block of pairs at a time has the bits of one
    bincount of every pair, whatever the blocks."""
    monkeypatch.setattr(optimizer, "_GRAM_BLOCK", block)
    ev = _Evaluator(*INSTANCES[name]())
    assert np.array_equal(ev.gram, all_pairs_gram(ev))


def test_gram_spans_many_blocks(monkeypatch):
    """At the default block size the benchmark city's pairs span several
    blocks, and at 64 pairs a block several hundred."""
    ev = _Evaluator(*bench_city())
    t = ev.by_demand[ev.params.primary_group]
    pairs = int(np.sum(np.diff(t.starts) ** 2))
    assert pairs > 10 * optimizer._GRAM_BLOCK
    monkeypatch.setattr(optimizer, "_GRAM_BLOCK", 64)
    assert pairs > 500 * 64
    assert np.array_equal(ev.gram, all_pairs_gram(ev))


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_stale_cuts_hold(name):
    """Greedy's bounds, taken at random layouts, hold and are tight."""
    scenario, matrices, params = INSTANCES[name]()
    ev = _Evaluator(scenario, matrices, params)
    rng = np.random.default_rng(list(INSTANCES).index(name))
    layouts = [frozenset(c for c in ev.candidate_ids if rng.random() < 0.5)
               for _ in range(6)]
    assert_open_bounds_hold(ev, [frozenset()] + layouts)


# (n, existing capacities, candidate capacities) of each rounding table
ROUNDING_TABLES = {
    # the shortfall sums ten equal terms pairwise and greedy's cut sums them
    # one after another, so some bound of greedy's there needs its slack
    "pairwise cut": (10, (), (100.0, 200.0, 300.0, 70.0, 1100.0)),
    # each dot product of local search's screen adds 1000 equal terms
    "equal points": (1000, (), (0.1, 0.2, 0.3, 0.07, 1.1)),
    # the field's rounding dwarfs the rows that a move changes
    "large base": (1, tuple(100.0 + 7.3 * j for j in range(40)),
                   (1e-5, 2.3e-5, 3.1e-5, 0.7e-5)),
    # the field crosses 1.0, where its unit roundoff doubles, at a different
    # step for each order of adding the rows: greedy's F + v is below the
    # canonical field of some layouts, and only field_tol lifts it above
    "power of two": (1, (999.99999943,), (4.268e-07, 1.362e-07, 1.39e-07, 8.993e-07)),
}


def rounding_instances(table):
    """(evaluator, every layout) with the target exactly on one layout's
    field, for every layout, at each of n equal points: only the error
    bounds separate the bounds from the canonical values (alpha = 0, every
    site reaches every point)."""
    n, existing, candidates = ROUNDING_TABLES[table]
    sites = [(f"e{j}", "existing", cap) for j, cap in enumerate(existing)]
    sites += [(f"s{j}", "candidate", cap) for j, cap in enumerate(candidates)]
    scenario, matrices = table_scenario(
        [(f"d{i:04d}", {"general": 1000}) for i in range(n)], sites, (GENERAL,),
        {"general": [[0.0] * len(sites)] * n},
    )
    ev0 = _Evaluator(scenario, matrices, ObjectiveParams())
    layouts = [frozenset(c) for k in range(len(candidates) + 1)
               for c in itertools.combinations(ev0.candidate_ids, k)]
    for target in layouts:
        a_sigma = float(ev0.fields(target)["general"][0])
        yield _Evaluator(scenario, matrices, ObjectiveParams(alpha=0.0, a_sigma=a_sigma)), layouts


def rounding_decides(table):
    """Check the bounds on every layout of ``rounding_instances``.  Returns
    the number of greedy's bounds that hold only by their slack."""
    needed = 0
    for ev, layouts in rounding_instances(table):
        for current in layouts:
            assert_bounds_hold(ev, set(current), tight=False)
        needed += assert_open_bounds_hold(ev, layouts, tight=False)
    return needed


def test_bounds_hold_where_rounding_decides():
    assert rounding_decides("pairwise cut")


@pytest.mark.parametrize("table", ["equal points", "large base", "power of two"])
def test_drop_swap_bounds_hold_where_rounding_decides(table):
    rounding_decides(table)


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
        assert_open_bounds_hold(ev, [frozenset(), frozenset({"s0"})], tight=False)


def weaken_bounds(monkeypatch, seed):
    """Make every ``_MoveBlock``, ``_drop_swap_bounds`` and ``_open_bounds``
    bound randomly weaker, but each still a bound."""
    rng = np.random.default_rng(seed)

    def lower(value):
        return value - rng.uniform(0.0, 0.3, value.shape) * (np.abs(value) + 1e-3)

    def doubt(value):
        return value | (rng.random(value.shape) < 0.3)

    def scramble(ev, current):
        # keep some moves that the screen leaves out, with the dense bounds
        outs, closed, rows, cols, objective_lo = _drop_swap_bounds(ev, current)
        _, _, dense_lo, _ = dense_drop_swap_bounds(ev, current.open_ids)
        kept = np.zeros(dense_lo.shape, dtype=bool)
        kept[rows, cols] = True
        dense_lo[rows, cols] = objective_lo
        rows, cols = np.nonzero(doubt(kept))
        return outs, closed, rows, cols, lower(dense_lo[rows, cols])

    def screen(ev, current):
        return lower(_open_bounds(ev, current))

    for name, weaken in (("objective", lower), ("shortfall", lower),
                         ("maybe_feasible", doubt)):
        method = getattr(_MoveBlock, name)
        monkeypatch.setattr(_MoveBlock, name,
                            lambda self, *args, method=method, weaken=weaken:
                            weaken(method(self, *args)))
    monkeypatch.setattr(optimizer, "_drop_swap_bounds", scramble)
    monkeypatch.setattr(optimizer, "_open_bounds", screen)


@pytest.mark.parametrize("seed", range(3))
def test_any_valid_bounds_give_the_same_search(seed, monkeypatch):
    """Randomly weakened bounds are still bounds, so the search must not
    change; they scramble the order of confirmation, which exercises the
    stopping rules and the tie-breaks that a tight screen rarely reaches."""
    weaken_bounds(monkeypatch, seed)
    for name in sorted(INSTANCES):
        (scenario, matrices, params), (trace, _), _, _ = outcome(name)
        assert optimize(scenario, matrices, params).trace == tuple(trace), name


def spy_carried(monkeypatch):
    """The scored layouts that greedy and local search carry into each
    step, as the step's bounds receive them, in order."""
    carried = []
    for name in ("_open_bounds", "_drop_swap_bounds"):
        bound = getattr(optimizer, name)
        monkeypatch.setattr(optimizer, name, lambda ev, current, bound=bound:
                            carried.append(current) or bound(ev, current))
    return carried


def after(open_ids, step):
    kind, out, *inn = step
    return (open_ids | {out}) if kind == "open" else (open_ids - {out}) | set(inn)


def assert_carried_records_are_canonical(ev, carried):
    """Run the search, and hold every scored layout that it carries, and the
    one it ends at, to ``ev.fields`` bit for bit and to a fresh evaluation."""
    carried.clear()
    final, trace = optimizer._search(ev, 1000)
    layouts = [frozenset()]
    for step in trace:
        layouts.append(after(layouts[-1], step))
    # one step a trace entry, and local search's last scan that finds no move
    assert len(trace) <= len(carried) <= len(trace) + 1
    assert [scored.open_ids for scored in carried] == layouts[:len(carried)]
    assert final.open_ids == layouts[-1]
    for scored in (*carried, final):
        fresh, reference = ev.evaluate(scored.open_ids), ev.fields(scored.open_ids)
        assert [bits(v) for v in scored[:3]] == [bits(v) for v in fresh[:3]]
        assert scored.fields.keys() == reference.keys()
        for g, field in reference.items():
            assert scored.fields[g].tobytes() == field.tobytes(), g


@pytest.mark.parametrize("weakened", [False, True], ids=["tight", "weakened"])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_carried_records_are_canonical(name, weakened, monkeypatch):
    """Each step starts from the scored layout of the step before, which
    has the bits of scoring that layout afresh, however the bounds order
    the moves."""
    if weakened:
        weaken_bounds(monkeypatch, list(INSTANCES).index(name))
    carried = spy_carried(monkeypatch)
    assert_carried_records_are_canonical(_Evaluator(*INSTANCES[name]()), carried)


@pytest.mark.parametrize("weakened", [False, True], ids=["tight", "weakened"])
@pytest.mark.parametrize("table", sorted(ROUNDING_TABLES))
def test_carried_records_are_canonical_where_rounding_decides(table, weakened, monkeypatch):
    if weakened:
        weaken_bounds(monkeypatch, sorted(ROUNDING_TABLES).index(table))
    carried = spy_carried(monkeypatch)
    for ev, _ in rounding_instances(table):
        assert_carried_records_are_canonical(ev, carried)


def test_greedy_confirms_about_one_layout_per_step():
    """The bounds are tight enough that a greedy step confirms about one
    candidate: at most two canonical evaluations per step on the benchmark
    city, where a full scan makes 2,442 in its 33 steps."""
    ev = _Evaluator(*bench_city())
    calls = []
    evaluate = ev.evaluate
    ev.evaluate = lambda layout: calls.append(layout) or evaluate(layout)
    _, trace = _greedy(ev)
    assert len(trace) == 33
    assert len(calls) <= 2 * len(trace)


def test_local_search_confirms_about_one_layout_per_move():
    """The screen is tight enough that a step confirms about one move: at
    most two canonical evaluations per move taken on a 26x26 city."""
    ev = _Evaluator(*bench_city())
    start, _ = _greedy(ev)
    assert start.feasible
    calls = []
    evaluate = ev.evaluate
    ev.evaluate = lambda layout: calls.append(layout) or evaluate(layout)
    _, moves = _local_search(ev, start, 1000)
    assert len(moves) >= 10
    assert len(calls) <= 2 * len(moves)


def test_optimize_scores_each_layout_once(monkeypatch):
    """On the seed-7 city, ``optimize`` builds 39 rows of canonical field,
    where rebuilding each step's field from scratch built 76.  The search
    scores the primary group alone, so each of its 37 canonical evaluations
    builds one row: the empty layout, the 30 candidates that greedy
    confirms in its 26 steps, and the 6 swaps or drops that local search
    confirms in its 6 moves and its last scan.  One more row is the
    all-open layout that ``_Evaluator.__init__`` bounds the objective by,
    and 1 is the elderly group, which the search never scores, scored at
    assembly; the general group's field is the one the search carried.
    No layout is evaluated twice."""
    rows, layouts = [], []
    field, evaluate = _Catchment.field, _Evaluator.evaluate
    monkeypatch.setattr(_Catchment, "field", lambda self, open_idx, gamma:
                        rows.append(open_idx) or field(self, open_idx, gamma))
    monkeypatch.setattr(_Evaluator, "evaluate", lambda self, open_ids:
                        layouts.append(frozenset(open_ids)) or evaluate(self, open_ids))
    scenario, matrices, params = golden_instance()
    result = optimize(scenario, matrices, params)
    assert (params.primary_group, params.constraint_groups) == ("general", ("general",))
    assert len(scenario.groups) == 2
    assert [step[0] for step in result.trace].count("open") == 26
    assert len(result.trace) == 26 + 6
    assert len(layouts) == len(set(layouts)) == 1 + 30 + 6
    assert len(rows) == 37 + 1 + 1
