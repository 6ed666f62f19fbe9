"""The branch-and-bound oracle against a loop that scores every layout.

``reference_evaluate`` scores a layout from the per-layout fields of
``_Catchment.field`` with 1-D sums, and ``reference_oracle`` walks every
candidate mask with it, as the oracle did before it searched.  Both are
slow and plainly correct, so the oracle must reproduce them exactly: the
same layout, objective bits, feasibility and shortfalls.  On small pools
``evaluate_block`` must give every layout the bits of the 1-D path.
"""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from accessopt.accessibility import accessibility_scores
from accessopt.geodata import generate_synthetic_scenario
from accessopt.optimizer import (
    FEASIBILITY_TOL,
    ObjectiveParams,
    _Evaluator,
    exhaustive_oracle,
)
from accessopt.routing import build_travel_time_matrices

from conftest import GENERAL, random_scenario, table_scenario
from test_search_reference import weaken_bounds, with_duplicates

N_RANDOM = 48


def bits(x):
    return np.float64(x).tobytes()


def reference_evaluate(ev, open_candidates):
    """(objective, feasible, total squared shortfall) from 1-D sums."""
    p = ev.params
    fields = ev.fields(open_candidates)
    deviation = np.abs(fields[p.primary_group] - p.a_sigma)
    objective = p.alpha * len(open_candidates) + p.beta * float(np.sum(deviation**2))
    feasible = True
    shortfall = 0.0
    for g in p.constraint_groups:
        scores = fields[g][ev.pos_mask[g]]
        if np.any(scores < p.a_sigma - FEASIBILITY_TOL):
            feasible = False
        shortfall += float(np.sum(np.maximum(0.0, p.a_sigma - scores) ** 2))
    return objective, feasible, shortfall


def reference_oracle(ev):
    """(chosen subset, its key, every layout's score) by one loop over masks."""
    pool = len(ev.candidate_ids)
    best_feasible = None
    best_any = None
    scores = {}
    for mask in range(1 << pool):
        subset = tuple(
            cid for b, cid in enumerate(ev.candidate_ids) if (mask >> b) & 1
        )
        objective, feasible, shortfall = reference_evaluate(ev, subset)
        scores[subset] = (objective, feasible, shortfall)
        if feasible:
            key = (objective, len(subset), subset)
            if best_feasible is None or key < best_feasible:
                best_feasible = key
        key_any = (shortfall, objective, len(subset), subset)
        if best_any is None or key_any < best_any:
            best_any = key_any
    if best_feasible is not None:
        return best_feasible[2], best_feasible, scores
    return best_any[3], best_any, scores


# (constraint groups, primary group); the last two score one group and
# constrain the other
GROUP_CHOICES = (
    (("general",), "general"),
    (("general", "elderly"), "general"),
    (("general", "elderly"), "elderly"),
    (("general",), "elderly"),
    (("elderly",), "general"),
)


def random_instance(seed):
    """Seeded instance; the options vary with the seed so all are covered."""
    rng = np.random.default_rng(3000 + seed)
    constraint, primary = GROUP_CHOICES[seed % len(GROUP_CHOICES)]
    two_groups = (constraint, primary) != (("general",), "general")
    n_existing = 0 if seed % 4 == 0 else int(rng.integers(1, 3))
    n_candidates = 0 if seed % 11 == 5 else int(rng.integers(2, 8))
    scenario = random_scenario(
        3000 + seed,
        max_nodes=30,
        max_demands=14,
        n_existing=n_existing,
        n_candidates=n_candidates,
        two_groups=two_groups,
        capacity=float(rng.choice([300.0, 800.0, 1500.0])),
    )
    scenario = with_duplicates(scenario, int(rng.integers(1, 3)) if seed % 3 else 0)
    matrices = build_travel_time_matrices(scenario)
    gamma = float(rng.choice([1.0, 0.6, 1.7]))
    # the target: a share of the worst score with every site open; a share
    # above 1, or demand that no site reaches, makes the instance infeasible
    lowest = min(
        (accessibility_scores(scenario, matrices[g], set(scenario.site_ids),
                              gamma).scores[d.demand_id]
         for g in constraint
         for d in scenario.demands
         if d.pop_of(g) > 0),
        default=0.0,
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


def city_instance():
    """A synthetic city, both groups constrained: 144 demand points, so a
    block of the default size holds a few dozen layouts."""
    scenario = generate_synthetic_scenario(4, grid_rows=12, grid_cols=12,
                                           n_existing=4, n_candidate=10)
    matrices = build_travel_time_matrices(scenario)
    params = ObjectiveParams(a_sigma=0.1, alpha=0.5, gamma=1.2, primary_group="elderly",
                             constraint_groups=("general", "elderly"))
    return scenario, matrices, params


def shortfall_tie_instance():
    """Every layout but the empty one leaves the same shortfall at d1, which
    no site reaches; among them the objective, not (k, ids), decides."""
    scenario, matrices = table_scenario(
        [("d1", {"general": 1000}), ("d2", {"general": 1000})],
        [("c1", "candidate", 3000.0), ("c2", "candidate", 1000.0)],
        (GENERAL,),
        {"general": [[math.inf, math.inf], [0.0, 0.0]]},
    )
    return scenario, matrices, ObjectiveParams(alpha=0.0, a_sigma=0.9)


def pool16_instance(seed, **params):
    """A 12x12 city with 4 existing sites and 16 candidates, as the
    benchmark's oracle cities."""
    scenario = generate_synthetic_scenario(seed, grid_rows=12, grid_cols=12,
                                           n_existing=4, n_candidate=16)
    return scenario, build_travel_time_matrices(scenario), ObjectiveParams(**params)


def shortfall_subtrees_instance():
    """Sixteen demand points no site reaches fix the least shortfall; every
    layout that also covers d1 and d2 reaches it: {c1}, {c2, c3} and {c4}
    lie in different subtrees, and the objective picks {c4}, the last."""
    unreached = [(f"u{i}", {"general": 500}) for i in range(16)]
    none = [math.inf] * 4
    scenario, matrices = table_scenario(
        [("d1", {"general": 1000}), ("d2", {"general": 1000}), *unreached],
        [("c1", "candidate", 3000.0), ("c2", "candidate", 1000.0),
         ("c3", "candidate", 1200.0), ("c4", "candidate", 2000.0)],
        (GENERAL,),
        {"general": [[0.0, 0.0, math.inf, 0.0], [0.0, math.inf, 0.0, 0.0]]
         + [none] * len(unreached)},
    )
    # at this target the sixteen squared shortfalls sum to more in the
    # screen's order than in the canonical one, so a shortfall bound
    # without rounding slack would prune the winner
    return scenario, matrices, ObjectiveParams(a_sigma=0.9)


def on_the_floor_instance():
    """random33 with a target whose feasibility floor is, to the bit, the
    least score of the optimum: a screen without slack on the fields rounds
    that score below the floor and prunes the optimum."""
    scenario, matrices, params = random_instance(33)
    return scenario, matrices, dataclasses.replace(params, a_sigma=0.89953019418555)


INSTANCES = {f"random{seed}": functools.partial(random_instance, seed)
             for seed in range(N_RANDOM)}
INSTANCES["city4"] = city_instance
INSTANCES["shortfall_tie"] = shortfall_tie_instance
INSTANCES["shortfall_subtrees"] = shortfall_subtrees_instance
INSTANCES["on_the_floor"] = on_the_floor_instance
# flat objectives (every feasible layout ties, or every one of a size) and
# an infeasible city
INSTANCES["flat_city1"] = functools.partial(pool16_instance, 1, alpha=0.0, beta=0.0)
INSTANCES["flat_city2"] = functools.partial(pool16_instance, 2, alpha=0.0, beta=0.0,
                                            a_sigma=0.01)
INSTANCES["count_city1"] = functools.partial(pool16_instance, 1, beta=0.0)
INSTANCES["count_city2"] = functools.partial(pool16_instance, 2, beta=0.0, a_sigma=0.01)
INSTANCES["city5"] = functools.partial(pool16_instance, 5)


@functools.lru_cache(maxsize=None)
def reference(name):
    scenario, matrices, params = INSTANCES[name]()
    ev = _Evaluator(scenario, matrices, params)
    return (scenario, matrices, params), ev, reference_oracle(ev)


def assert_oracle_equals_reference(name):
    (scenario, matrices, params), ev, (chosen, _, scores) = reference(name)
    result = exhaustive_oracle(scenario, matrices, params, max_pool=16)
    objective, feasible, _ = scores[chosen]
    assert result.layout.open_candidates == frozenset(chosen), name
    assert bits(result.objective) == bits(objective), name
    assert result.feasible == feasible, name
    assert result.shortfalls == ev.shortfalls(chosen), name


def split_blocks(monkeypatch, block_bytes):
    """Score every ``evaluate_block`` call in chunks of layouts that hold at
    most ``block_bytes`` of W (layout x open site x demand point), one
    layout at least, and join the chunks' results."""
    evaluate_block = _Evaluator.evaluate_block

    def split(self, open_idx):
        rows = max(1, block_bytes // (8 * max(1, self.n_demands * open_idx.shape[1])))
        parts = [evaluate_block(self, open_idx[at:at + rows])
                 for at in range(0, len(open_idx), rows)]
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))

    monkeypatch.setattr(_Evaluator, "evaluate_block", split)


# the oracle confirms a node's children in one call; 4096 bytes score the
# children of the larger instances one at a time, 512 KiB leave them whole
@pytest.mark.parametrize("block_bytes", [512 * 1024, 4096])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_oracle_equals_reference(name, block_bytes, monkeypatch):
    split_blocks(monkeypatch, block_bytes)
    assert_oracle_equals_reference(name)


def subset_blocks(ev, rows):
    """Every candidate subset, in blocks of at most ``rows`` equal-size
    subsets (all of a size when None): (picks, open_idx), each subset's
    positions in ``ev.candidate_ids`` and the ascending sites of its layout."""
    columns = np.array([ev.site_index[c] for c in ev.candidate_ids], dtype=np.intp)
    existing = np.array(ev.existing_idx, dtype=np.intp)
    for k in range(len(columns) + 1):
        combos = itertools.combinations(range(len(columns)), k)
        while chunk := list(itertools.islice(combos, rows)):
            picks = np.array(chunk, dtype=np.intp).reshape(len(chunk), k)
            open_idx = np.concatenate(
                (np.broadcast_to(existing, (len(chunk), len(existing))), columns[picks]),
                axis=1,
            )
            open_idx.sort(axis=1)
            yield picks, open_idx


@pytest.mark.parametrize("rows", [pytest.param(1, id="one-layout"),
                                  pytest.param(None, id="whole-size")])
def test_every_block_row_equals_reference(rows):
    """On pools up to 8, every layout comes once, scored alone or in a block
    of every subset of its size, with the bits of the 1-D path."""
    checked = 0
    for name in sorted(INSTANCES):
        (_, _, _), ev, (_, _, scores) = reference(name)
        if len(ev.candidate_ids) > 8:
            continue
        seen = []
        for picks, open_idx in subset_blocks(ev, rows):
            objective, feasible, shortfall = ev.evaluate_block(open_idx)
            for r, row in enumerate(picks):
                subset = tuple(ev.candidate_ids[i] for i in row)
                expected = scores[subset]
                assert bits(objective[r]) == bits(expected[0]), name
                assert bool(feasible[r]) == expected[1], name
                assert bits(shortfall[r]) == bits(expected[2]), name
                assert ev.evaluate(subset) == expected, name
                seen.append(subset)
        assert sorted(seen) == sorted(scores), name
        checked += 1
    assert checked >= 40


@pytest.mark.parametrize("seed", range(3))
def test_any_valid_bounds_give_the_same_oracle(seed, monkeypatch):
    """Randomly weakened bounds are still bounds, so the oracle must not
    change; they let more subtrees and ties through to the key comparison."""
    weaken_bounds(monkeypatch, seed)
    for name in sorted(INSTANCES):
        if len(reference(name)[1].candidate_ids) <= 10:
            assert_oracle_equals_reference(name)


@pytest.mark.parametrize("seed", [1, 2, 6])
def test_oracle_scores_few_layouts(seed, monkeypatch):
    """On the benchmark's pool of 16 the bounds leave at most 1 % of the
    2**16 layouts to score, greedy construction and local search included."""
    rows = []
    evaluate_block = _Evaluator.evaluate_block

    def counted(self, open_idx):
        rows.append(len(open_idx))
        return evaluate_block(self, open_idx)

    scenario, matrices, params = pool16_instance(seed)
    monkeypatch.setattr(_Evaluator, "evaluate_block", counted)
    result = exhaustive_oracle(scenario, matrices, params, max_pool=16)
    assert result.feasible
    assert sum(rows) <= 2**16 // 100


def test_instances_cover_every_case():
    """The instances above exercise what block selection could get wrong."""
    cases = set()
    for name in INSTANCES:
        (scenario, _, params), ev, (chosen, _, scores) = reference(name)
        objective, feasible, shortfall = scores[chosen]
        cases.add("feasible" if feasible else "infeasible")
        if params.gamma != 1.0:
            cases.add("gamma")
        if params.alpha not in (0.0, 1.0) and params.beta not in (0.0, 1.0):
            cases.add("alpha,beta")
        if len(params.constraint_groups) == 2:
            cases.add("two constraint groups")
        if params.primary_group not in params.constraint_groups:
            cases.add("primary not constrained")
        if not scenario.existing_site_ids:
            cases.add("no existing sites")
        if not scenario.candidate_site_ids:
            cases.add("no candidates")
        if params.alpha == params.beta == 0.0 and feasible:
            cases.add("flat objective")
        fields = ev.fields(chosen)
        if any(np.any(fields[g][ev.pos_mask[g]] == params.a_sigma - FEASIBILITY_TOL)
               for g in params.constraint_groups):
            cases.add("chosen score on the floor")
        # another layout whose key differs from the chosen one only after
        # the float: the tie-break on (k, ids) decides
        tied = [s for s, (o, f, sf) in scores.items() if s != chosen and (
            (feasible and f and o == objective)
            or (not feasible and (sf, o) == (shortfall, objective)))]
        if tied:
            cases.add("exact tie, feasible" if feasible else "exact tie, infeasible")
            if any(len(s) != len(chosen) for s in tied):
                cases.add("exact tie across k")
        # an infeasible layout with the same shortfall that (k, ids) alone
        # would have preferred: the objective decides
        if not feasible and any(
                sf == shortfall and (len(s), s) < (len(chosen), chosen)
                for s, (_, _, sf) in scores.items()):
            cases.add("objective decides a shortfall tie")
        # the least shortfall in more than one subtree of the search: layouts
        # whose least candidate differs
        if not feasible and len({s[:1] for s, (_, _, sf) in scores.items()
                                 if sf == shortfall}) > 1:
            cases.add("least shortfall in two subtrees")
    assert cases == {
        "feasible", "infeasible", "gamma", "alpha,beta", "two constraint groups",
        "primary not constrained", "no existing sites", "no candidates",
        "exact tie, feasible", "exact tie, infeasible", "exact tie across k",
        "objective decides a shortfall tie", "flat objective",
        "least shortfall in two subtrees", "chosen score on the floor",
    }
