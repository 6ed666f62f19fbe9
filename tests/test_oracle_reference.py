"""The block-scored oracle against a loop that scores one layout at a time.

``reference_evaluate`` scores a layout from the per-layout fields of
``_Catchment.field`` with 1-D sums, and ``reference_oracle`` walks every
candidate mask with it, as the oracle did before it scored layouts in
blocks.  Both are slow and plainly correct, so the oracle must reproduce
them exactly: the same layout, objective bits, feasibility and shortfalls,
and on small pools the same bits for every layout.
"""

import functools
import math

import numpy as np
import pytest

from accessopt import optimizer
from accessopt.accessibility import accessibility_scores
from accessopt.geodata import generate_synthetic_scenario
from accessopt.optimizer import (
    FEASIBILITY_TOL,
    ObjectiveParams,
    _Evaluator,
    _subset_blocks,
    exhaustive_oracle,
)
from accessopt.routing import build_travel_time_matrices

from conftest import GENERAL, random_scenario, table_scenario
from test_search_reference import with_duplicates

N_RANDOM = 48
# small enough that a block holds a few layouts and ties cross blocks
TINY_BLOCK_BYTES = 4096


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


INSTANCES = {f"random{seed}": functools.partial(random_instance, seed)
             for seed in range(N_RANDOM)}
INSTANCES["city4"] = city_instance
INSTANCES["shortfall_tie"] = shortfall_tie_instance


@functools.lru_cache(maxsize=None)
def reference(name):
    scenario, matrices, params = INSTANCES[name]()
    ev = _Evaluator(scenario, matrices, params)
    return (scenario, matrices, params), ev, reference_oracle(ev)


@pytest.mark.parametrize("block_bytes", [optimizer.ORACLE_BLOCK_BYTES, TINY_BLOCK_BYTES])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_oracle_equals_reference(name, block_bytes, monkeypatch):
    monkeypatch.setattr(optimizer, "ORACLE_BLOCK_BYTES", block_bytes)
    (scenario, matrices, params), ev, (chosen, _, scores) = reference(name)
    result = exhaustive_oracle(scenario, matrices, params, max_pool=16)
    objective, feasible, _ = scores[chosen]
    assert result.layout.open_candidates == frozenset(chosen)
    assert bits(result.objective) == bits(objective)
    assert result.feasible == feasible
    assert result.shortfalls == ev.shortfalls(chosen)


@pytest.mark.parametrize("block_bytes", [optimizer.ORACLE_BLOCK_BYTES, TINY_BLOCK_BYTES])
def test_every_block_row_equals_reference(block_bytes, monkeypatch):
    """On pools up to 8, every layout comes once, scored in its block with
    the bits of the 1-D path."""
    monkeypatch.setattr(optimizer, "ORACLE_BLOCK_BYTES", block_bytes)
    checked = 0
    for name in sorted(INSTANCES):
        (_, _, _), ev, (_, _, scores) = reference(name)
        if len(ev.candidate_ids) > 8:
            continue
        seen = []
        for picks, open_idx in _subset_blocks(ev):
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
    assert cases == {
        "feasible", "infeasible", "gamma", "alpha,beta", "two constraint groups",
        "primary not constrained", "no existing sites", "no candidates",
        "exact tie, feasible", "exact tie, infeasible", "exact tie across k",
        "objective decides a shortfall tie",
    }
