import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from accessopt.accessibility import accessibility_scores
from accessopt.geodata import ValidationError, generate_synthetic_scenario
from accessopt.optimizer import (
    MAX_POOL_CEILING,
    CandidatePoolError,
    Layout,
    ObjectiveParams,
    exhaustive_oracle,
    greedy_construct,
    is_feasible,
    local_search,
    objective_value,
    _Evaluator,
    _greedy,
    _local_search,
    optimize,
)
from accessopt.routing import build_travel_time_matrices

from conftest import ACCEPTANCE_SEED, GENERAL, random_scenario, table_scenario

GOLDEN = Path(__file__).parent / "golden"


def spot_instance(cap1, cap2, status="candidate"):
    """Two demands, each reached only by its own site at zero travel time."""
    inf = math.inf
    return table_scenario(
        [("d1", {"general": 1000}), ("d2", {"general": 1000})],
        [("s1", status, cap1), ("s2", status, cap2)],
        (GENERAL,),
        {"general": [[0.0, inf], [inf, 0.0]]},
    )


def params(**kw):
    return ObjectiveParams(**kw)


class TestObjective:
    def test_spot_value(self):
        sc, mats = spot_instance(135.0, 235.0)
        layout = Layout(frozenset({"s1", "s2"}))
        got = objective_value(layout, sc, mats, params())
        assert got == pytest.approx(2.01, abs=1e-12)

    def test_on_target_equals_alpha_k(self):
        sc, mats = spot_instance(135.0, 135.0)
        layout = Layout(frozenset({"s1", "s2"}))
        assert objective_value(layout, sc, mats, params()) == 2.0

    def test_zero_k_counts_only_deviation(self):
        sc, mats = spot_instance(135.0, 235.0, status="existing")
        got = objective_value(Layout(frozenset()), sc, mats, params())
        assert got == pytest.approx(0.01, abs=1e-12)

    def test_recomputation_stable(self):
        sc = random_scenario(31, n_existing=1, n_candidates=4)
        mats = build_travel_time_matrices(sc)
        layout = Layout(frozenset(sc.candidate_site_ids[:2]))
        p = params(a_sigma=0.2)
        assert objective_value(layout, sc, mats, p) == objective_value(
            layout, sc, mats, p
        )

    def test_rejects_non_candidates(self):
        sc, mats = spot_instance(135.0, 235.0, status="existing")
        with pytest.raises(ValidationError, match="candidate"):
            objective_value(Layout(frozenset({"s1"})), sc, mats, params())


    @pytest.mark.parametrize("groups", [("general", "general"),
                                        ("general", "elderly", "general")])
    def test_repeated_constraint_group_refused(self, groups):
        with pytest.raises(ValidationError, match="constraint group 'general' is listed twice"):
            params(constraint_groups=groups)


class TestFeasibility:
    def test_nothing_open_lists_every_positive_demand(self):
        sc, mats = spot_instance(135.0, 235.0)
        ok, shortfalls = is_feasible(Layout(frozenset()), sc, mats, params())
        assert not ok
        assert {s.demand_id for s in shortfalls} == {"d1", "d2"}
        assert all(s.score == 0.0 for s in shortfalls)

    def test_zero_target_always_feasible(self):
        sc, mats = spot_instance(135.0, 235.0)
        ok, shortfalls = is_feasible(
            Layout(frozenset()), sc, mats, params(a_sigma=0.0)
        )
        assert ok and shortfalls == ()

    def test_tolerance_just_below_target(self):
        sc, mats = table_scenario(
            [("d1", {"general": 1000})],
            [("s1", "candidate", 134.9999999)],
            (GENERAL,),
            {"general": [[0.0]]},
        )
        ok, _ = is_feasible(Layout(frozenset({"s1"})), sc, mats, params())
        assert ok

    def test_zero_population_demands_do_not_bind(self):
        inf = math.inf
        sc, mats = table_scenario(
            [("d1", {"general": 1000}), ("d2", {"general": 0})],
            [("s1", "candidate", 1500.0)],
            (GENERAL,),
            {"general": [[0.0], [inf]]},
        )
        ok, _ = is_feasible(Layout(frozenset({"s1"})), sc, mats, params())
        assert ok


class TestGreedy:
    def test_feasible_baseline_opens_nothing(self):
        inf = math.inf
        sc, mats = table_scenario(
            [("d1", {"general": 1000})],
            [("s0", "existing", 1500.0), ("s1", "candidate", 1500.0)],
            (GENERAL,),
            {"general": [[0.0, 0.0]]},
        )
        assert greedy_construct(sc, mats, params()).open_candidates == frozenset()

    def test_single_candidate_when_needed(self):
        sc, mats = table_scenario(
            [("d1", {"general": 1000})],
            [("s1", "candidate", 1500.0)],
            (GENERAL,),
            {"general": [[0.0]]},
        )
        layout = greedy_construct(sc, mats, params())
        assert layout.open_candidates == frozenset({"s1"})

    def test_picks_the_candidate_that_cuts_shortfall_most(self):
        inf = math.inf
        # s2 reaches both demands, s1 only the first
        sc, mats = table_scenario(
            [("d1", {"general": 1000}), ("d2", {"general": 1000})],
            [("s1", "candidate", 1500.0), ("s2", "candidate", 1500.0)],
            (GENERAL,),
            {"general": [[0.0, 0.0], [inf, 0.0]]},
        )
        layout = greedy_construct(sc, mats, params())
        assert "s2" in layout.open_candidates

    def test_opens_everything_when_infeasible(self):
        inf = math.inf
        sc, mats = table_scenario(
            [("d1", {"general": 1000}), ("d2", {"general": 1000})],
            [("s1", "candidate", 1500.0)],
            (GENERAL,),
            {"general": [[0.0], [inf]]},
        )
        layout = greedy_construct(sc, mats, params())
        assert layout.open_candidates == frozenset({"s1"})

    def test_matches_golden_layout_on_bundled_scenario(self):
        scenario = generate_synthetic_scenario(ACCEPTANCE_SEED)
        mats = build_travel_time_matrices(scenario)
        layout = greedy_construct(scenario, mats, params())
        golden = json.loads((GOLDEN / "greedy_layout_seed7.json").read_text())
        assert list(layout.sorted_ids()) == golden["open_candidates"]
        ok, _ = is_feasible(layout, scenario, mats, params())
        assert ok


class TestLocalSearch:
    def one_demand_two_sites(self):
        return table_scenario(
            [("d1", {"general": 1000})],
            [("s0", "existing", 1500.0), ("s1", "candidate", 1500.0)],
            (GENERAL,),
            {"general": [[0.0, 0.0]]},
        )

    def test_redundant_candidate_dropped(self):
        sc, mats = self.one_demand_two_sites()
        start = Layout(frozenset({"s1"}))
        final = local_search(start, sc, mats, params())
        assert final.open_candidates == frozenset()

    def test_local_optimum_unchanged(self):
        sc, mats = self.one_demand_two_sites()
        start = Layout(frozenset())
        assert local_search(start, sc, mats, params()) == start

    def test_swap_to_better_candidate(self):
        # both candidates cover the demand; c1 overshoots more than c2
        inf = math.inf
        sc, mats = table_scenario(
            [("d1", {"general": 1000})],
            [("c1", "candidate", 1500.0), ("c2", "candidate", 300.0)],
            (GENERAL,),
            {"general": [[0.0, 0.0]]},
        )
        final = local_search(Layout(frozenset({"c1"})), sc, mats, params())
        assert final.open_candidates == frozenset({"c2"})

    def test_infeasible_start_returned_unchanged_with_warning(self):
        sc, mats = table_scenario(
            [("d1", {"general": 1000})],
            [("s1", "candidate", 1500.0)],
            (GENERAL,),
            {"general": [[0.0]]},
        )
        start = Layout(frozenset())
        with pytest.warns(UserWarning, match="infeasible"):
            final = local_search(start, sc, mats, params())
        assert final == start

    @pytest.mark.parametrize("seed", range(6))
    def test_never_worse_than_start(self, seed):
        sc = random_scenario(200 + seed, n_existing=1, n_candidates=5)
        mats = build_travel_time_matrices(sc)
        p = params(a_sigma=0.0)  # every layout feasible
        start = Layout(frozenset(sc.candidate_site_ids))
        final = local_search(start, sc, mats, p)
        assert objective_value(final, sc, mats, p) <= objective_value(
            start, sc, mats, p
        )


def oracle_instance(seed):
    """Instance plus a target that the full candidate pool can always meet."""
    rng = np.random.default_rng(seed)
    sc = random_scenario(
        seed,
        max_nodes=22,
        max_demands=12,
        n_existing=int(rng.integers(0, 3)),
        n_candidates=int(rng.integers(4, 9)),
    )
    mats = build_travel_time_matrices(sc)
    field = accessibility_scores(sc, mats["general"], set(sc.site_ids))
    positive = [
        field.scores[d.demand_id] for d in sc.demands if d.pop_of("general") > 0
    ]
    a_sigma = 0.8 * min(positive)
    return sc, mats, params(a_sigma=a_sigma)


class TestOracle:
    def test_zero_candidates_reports_baseline(self):
        sc, mats = spot_instance(1500.0, 1500.0, status="existing")
        result = exhaustive_oracle(sc, mats, params())
        assert result.layout.k == 0
        assert result.feasible

    def test_single_required_candidate(self):
        sc, mats = table_scenario(
            [("d1", {"general": 1000})],
            [("s1", "candidate", 1500.0)],
            (GENERAL,),
            {"general": [[0.0]]},
        )
        result = exhaustive_oracle(sc, mats, params())
        assert result.layout.open_candidates == frozenset({"s1"})
        assert result.feasible

    def test_tie_breaks_lexicographically(self):
        sc, mats = table_scenario(
            [("d1", {"general": 1000})],
            [("c1", "candidate", 1500.0), ("c2", "candidate", 1500.0)],
            (GENERAL,),
            {"general": [[0.0, 0.0]]},
        )
        result = exhaustive_oracle(sc, mats, params(beta=0.0))
        assert result.layout.open_candidates == frozenset({"c1"})

    def test_pool_cap_enforced(self):
        sc = random_scenario(7, n_existing=0, n_candidates=6)
        mats = build_travel_time_matrices(sc)
        with pytest.raises(CandidatePoolError):
            exhaustive_oracle(sc, mats, params(), max_pool=5)

    def test_max_pool_above_ceiling_refused(self):
        sc, mats = spot_instance(1000.0, 1000.0)
        with pytest.raises(ValidationError, match=f"ceiling of {MAX_POOL_CEILING}"):
            exhaustive_oracle(sc, mats, params(), max_pool=MAX_POOL_CEILING + 1)

    def test_infeasible_pool_reports_min_shortfall(self):
        inf = math.inf
        sc, mats = table_scenario(
            [("d1", {"general": 1000}), ("d2", {"general": 1000})],
            [("s1", "candidate", 1500.0)],
            (GENERAL,),
            {"general": [[0.0], [inf]]},
        )
        result = exhaustive_oracle(sc, mats, params())
        assert not result.feasible
        assert result.shortfalls

    @pytest.mark.parametrize("seed", range(10))
    def test_heuristic_never_beats_oracle(self, seed):
        sc, mats, p = oracle_instance(seed)
        oracle = exhaustive_oracle(sc, mats, p)
        heuristic = optimize(sc, mats, p)
        if oracle.feasible:
            assert heuristic.feasible
            assert heuristic.objective >= oracle.objective - 1e-12
        else:
            assert not heuristic.feasible

    @pytest.mark.parametrize("seed", range(4))
    def test_alpha_monotone_in_target(self, seed):
        sc, mats, p = oracle_instance(300 + seed)
        sigmas = [p.a_sigma, 0.5 * p.a_sigma, 0.25 * p.a_sigma]
        ks = [
            exhaustive_oracle(sc, mats, params(a_sigma=s, beta=0.0)).layout.k
            for s in sigmas
        ]
        assert ks == sorted(ks, reverse=True)

    @pytest.mark.parametrize("seed", range(4))
    def test_optimum_is_minimal_with_beta_zero(self, seed):
        sc, mats, p0 = oracle_instance(400 + seed)
        p = params(a_sigma=p0.a_sigma, beta=0.0)
        result = exhaustive_oracle(sc, mats, p)
        if not result.feasible:
            pytest.skip("no feasible subset")
        for sid in result.layout.open_candidates:
            smaller = Layout(result.layout.open_candidates - {sid})
            ok, _ = is_feasible(smaller, sc, mats, p)
            assert not ok


class TestOptimize:
    def test_result_invariants(self):
        sc, mats, p = oracle_instance(42)
        result = optimize(sc, mats, p)
        assert result.objective == objective_value(result.layout, sc, mats, p)
        ok, shortfalls = is_feasible(result.layout, sc, mats, p)
        assert result.feasible == ok
        assert result.shortfalls == shortfalls
        assert result.feasible == (not result.shortfalls)
        assert set(result.per_group_fields) == {"general"}
        assert set(result.coverage) == {"general"}

    def test_trace_replays_to_layout(self):
        sc, mats, p = oracle_instance(43)
        result = optimize(sc, mats, p)
        opened = set()
        for move in result.trace:
            if move[0] == "open":
                opened.add(move[1])
            elif move[0] == "drop":
                opened.remove(move[1])
            else:
                _, out, inn = move
                opened.remove(out)
                opened.add(inn)
        assert frozenset(opened) == result.layout.open_candidates

    def test_infeasible_instance_marked(self):
        inf = math.inf
        sc, mats = table_scenario(
            [("d1", {"general": 1000}), ("d2", {"general": 1000})],
            [("s0", "existing", 1500.0), ("s1", "candidate", 1500.0)],
            (GENERAL,),
            {"general": [[0.0, 0.0], [inf, inf]]},
        )
        result = optimize(sc, mats, params())
        assert not result.feasible
        assert result.layout.open_candidates == frozenset({"s1"})
        assert {s.demand_id for s in result.shortfalls} == {"d2"}

    def test_feasible_baseline_keeps_k_zero(self):
        sc, mats = table_scenario(
            [("d1", {"general": 1000})],
            [("s0", "existing", 200.0), ("s1", "candidate", 1500.0)],
            (GENERAL,),
            {"general": [[0.0, 0.0]]},
        )
        result = optimize(sc, mats, params())
        assert result.layout.k == 0
        assert result.feasible


class TestFailFast:
    """Bad bins and an oversized pool are refused before any layout is scored."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        # every layout is scored by ``evaluate``
        for name in ("__init__", "evaluate"):
            method = getattr(_Evaluator, name)

            def wrapper(self, *args, _method=method, _name=name):
                calls.append(_name)
                return _method(self, *args)

            monkeypatch.setattr(_Evaluator, name, wrapper)
        return calls

    @staticmethod
    def pool12():
        sc = generate_synthetic_scenario(3, grid_rows=10, grid_cols=10,
                                         n_existing=3, n_candidate=12)
        assert len(sc.candidate_site_ids) == 12
        return sc, build_travel_time_matrices(sc)

    @pytest.mark.parametrize("entry", [optimize, exhaustive_oracle])
    @pytest.mark.parametrize("bins,a_sigma,message", [
        ((("a", 0.0), ("b", math.nan)), 0.135, "finite"),
        (None, 5e-324, "strictly increasing"),  # the default bins collapse
    ])
    def test_bins_refused_before_scoring(self, monkeypatch, entry, bins, a_sigma, message):
        sc, mats = self.pool12()
        calls = self.counted(monkeypatch)
        with pytest.raises(ValidationError, match=message):
            entry(sc, mats, params(a_sigma=a_sigma), bins=bins)
        assert calls == []

    def test_pool_refused_before_scoring(self, monkeypatch):
        sc, mats = self.pool12()
        calls = self.counted(monkeypatch)
        with pytest.raises(CandidatePoolError):
            exhaustive_oracle(sc, mats, params(), max_pool=11)
        assert calls == []

    def test_negative_max_pool_refused_before_scoring(self, monkeypatch):
        sc, mats = self.pool12()
        calls = self.counted(monkeypatch)
        with pytest.raises(ValidationError, match="max_pool must be >= 0, got -3"):
            exhaustive_oracle(sc, mats, params(), max_pool=-3)
        assert calls == []

    def test_negative_budget_refused_before_scoring(self, monkeypatch):
        sc, mats = self.pool12()
        start = greedy_construct(sc, mats, params())
        calls = self.counted(monkeypatch)
        with pytest.raises(ValidationError, match="budget must be >= 0, got -1"):
            optimize(sc, mats, params(), budget=-1)
        with pytest.raises(ValidationError, match="budget must be >= 0, got -1"):
            local_search(start, sc, mats, params(), budget=-1)
        assert calls == []

    def test_counter_sees_scoring(self, monkeypatch):
        sc, mats = self.pool12()
        calls = self.counted(monkeypatch)
        exhaustive_oracle(sc, mats, params(), max_pool=12)
        assert calls.count("__init__") == 1
        # the search scores 10 layouts, the branch and bound 1
        assert calls.count("evaluate") == 11


def test_city_routing_and_evaluator_memory_bounded_by_walk_radius():
    """Routing and the evaluator of a 100×100 city with 860 sites hold no
    demand × site array: one dense float array of that shape alone is
    69 MB, and the dense layout peaked at 284 MB in routing.  Greedy holds
    no (closed candidates × demand) block either: one is 64 MB at its first
    step.  The candidates' Gram matrix holds a block of pairs beside its
    800 × 800 result, where all pairs at once peaked at 14.4 MB for that
    5.1 MB; and local search holds no (open × closed) block, where its
    dense screen peaked at 11.6 MB."""
    sc = generate_synthetic_scenario(0, grid_rows=100, grid_cols=100,
                                     n_existing=60, n_candidate=800)
    tracemalloc.start()
    try:
        ev = _Evaluator(sc, build_travel_time_matrices(sc), params())
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        start, trace = _greedy(ev)
        greedy_peak = tracemalloc.get_traced_memory()[1] - held
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        gram = ev.gram
        gram_peak = tracemalloc.get_traced_memory()[1] - held
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, moves = _local_search(ev, start, 1000)
        search_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert (len(sc.demands), len(sc.sites)) == (10_000, 860)
    assert peak < 25e6
    assert start.feasible and len(trace) > 500
    assert greedy_peak < 5e6, greedy_peak
    assert gram.shape == (800, 800)
    assert gram_peak < 2 * gram.nbytes, gram_peak
    assert len(moves) == 127
    assert search_peak < 11.6e6 / 3, search_peak
