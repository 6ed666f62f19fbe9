import functools
import math

import numpy as np
import pytest

from accessopt.accessibility import (
    AccessibilityField,
    DecayParams,
    accessibility_scores,
    conservation_check,
    coverage_report,
    decay_weights,
    default_bins,
    gaussian_decay,
    supply_demand_ratio,
    supply_demand_ratios,
)
from accessopt.geodata import ValidationError, generate_synthetic_scenario
from accessopt.optimizer import ObjectiveParams, exhaustive_oracle, optimize
from accessopt.routing import build_travel_time_matrices

from conftest import ACCEPTANCE_SEED, ELDERLY, GENERAL, random_scenario, table_scenario

# frozen from a 40-digit evaluation of the kernel and the worked example
G_HALFWAY = 0.7013665732390042596728501
R_WORKED = 4.832318982770142616368661
A2_WORKED = 3.38922700574328579454378


def brute_scores(scenario, matrix, open_ids, gamma=1.0):
    """First-principles reimplementation with plain loops and math.exp."""
    t_sigma = matrix.group.t_sigma_min
    floor = math.exp(-0.5)

    def g(t):
        if t > t_sigma or math.isinf(t):
            return 0.0
        return (math.exp(-0.5 * (t / t_sigma) ** 2) - floor) / (1.0 - floor)

    scores = {}
    for i, d in enumerate(scenario.demands):
        total = 0.0
        for j, s in enumerate(scenario.sites):
            if s.site_id not in open_ids:
                continue
            denom = sum(
                g(matrix.times_min[n, j]) * dn.pop_of(matrix.group.name)
                for n, dn in enumerate(scenario.demands)
            )
            if denom > 0:
                total += gamma * g(matrix.times_min[i, j]) * s.capacity / denom
        scores[d.demand_id] = total
    return scores


class TestDecayKernel:
    def test_zero_is_one(self):
        assert gaussian_decay(0.0, DecayParams(10.0)) == 1.0

    def test_threshold_is_zero(self):
        assert abs(gaussian_decay(10.0, DecayParams(10.0))) < 1e-12

    def test_halfway_matches_frozen_value(self):
        got = gaussian_decay(5.0, DecayParams(10.0))
        assert got == pytest.approx(G_HALFWAY, rel=1e-12)

    def test_beyond_threshold_and_unreachable(self):
        p = DecayParams(10.0)
        assert gaussian_decay(10.0001, p) == 0.0
        assert gaussian_decay(math.inf, p) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            gaussian_decay(-0.1, DecayParams(10.0))

    def test_strictly_decreasing_inside_threshold(self):
        t = np.linspace(0.0, 10.0, 1000)
        w = decay_weights(t, 10.0)
        assert np.all(np.diff(w) < 0)
        assert np.all(w >= 0)

    def test_scale_invariance(self):
        # only the ratio t / t_sigma matters
        assert gaussian_decay(4.375, DecayParams(8.75)) == pytest.approx(
            gaussian_decay(5.0, DecayParams(10.0)), rel=1e-15
        )

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            DecayParams(0.0)
        # an infinite threshold would weigh an unreachable time inf / inf = nan
        with pytest.raises(ValidationError):
            DecayParams(math.inf)


@functools.lru_cache(maxsize=None)
def seed7_city():
    """The seed-7 city and the general field with its existing sites open."""
    sc = generate_synthetic_scenario(ACCEPTANCE_SEED)
    mats = build_travel_time_matrices(sc)
    existing = set(sc.existing_site_ids)
    return sc, mats, existing, accessibility_scores(sc, mats["general"], existing)


def worked_example():
    """Two demands on one site: 100 people at t=0, 300 at half threshold."""
    return table_scenario(
        [("d1", {"elderly": 100}), ("d2", {"elderly": 300})],
        [("s1", "existing", 1500.0)],
        (ELDERLY,),
        {"elderly": [[0.0], [5.0]]},
    )


class TestSupplyDemandRatio:
    def test_single_demand_at_zero(self):
        sc, mats = table_scenario(
            [("d1", {"general": 1000})], [("s1", "existing", 1500.0)],
            (GENERAL,), {"general": [[0.0]]},
        )
        got = supply_demand_ratio(sc.sites[0], mats["general"], sc.demands)
        assert got.ratio == 1.5
        assert not got.idle

    def test_idle_when_no_demand_in_reach(self):
        sc, mats = table_scenario(
            [("d1", {"general": 1000})], [("s1", "existing", 1500.0)],
            (GENERAL,), {"general": [[math.inf]]},
        )
        got = supply_demand_ratio(sc.sites[0], mats["general"], sc.demands)
        assert got == (0.0, True)

    def test_worked_example_ratio(self):
        sc, mats = worked_example()
        got = supply_demand_ratio(sc.sites[0], mats["elderly"], sc.demands)
        assert got.ratio == pytest.approx(R_WORKED, rel=1e-12)

    def test_vector_matches_scalar(self):
        sc = random_scenario(23)
        mats = build_travel_time_matrices(sc)
        vec = supply_demand_ratios(mats["general"], sc.demands, sc.sites)
        for j, s in enumerate(sc.sites):
            assert vec[j] == pytest.approx(
                supply_demand_ratio(s, mats["general"], sc.demands).ratio, rel=1e-12
            )

    def test_unknown_site(self):
        sc, mats = worked_example()
        stranger = sc.sites[0].__class__("zz", sc.sites[0].location, "existing", 1.0)
        with pytest.raises(ValidationError, match="zz"):
            supply_demand_ratio(stranger, mats["elderly"], sc.demands)


class TestAccessibilityScores:
    def test_single_pair_is_supply_over_demand(self):
        sc, mats = table_scenario(
            [("d1", {"general": 1000})], [("s1", "existing", 1500.0)],
            (GENERAL,), {"general": [[0.0]]},
        )
        field = accessibility_scores(sc, mats["general"], {"s1"}, gamma=1.0)
        assert field.scores["d1"] == 1.5

    def test_worked_example_scores_and_conservation(self):
        sc, mats = worked_example()
        field = accessibility_scores(sc, mats["elderly"], {"s1"})
        assert field.scores["d1"] == pytest.approx(R_WORKED, rel=1e-12)
        assert field.scores["d2"] == pytest.approx(A2_WORKED, rel=1e-12)
        total = 100 * field.scores["d1"] + 300 * field.scores["d2"]
        assert total == pytest.approx(1500.0, rel=1e-12)

    def test_empty_open_set_all_zero(self):
        sc, mats = worked_example()
        field = accessibility_scores(sc, mats["elderly"], set())
        assert all(v == 0.0 for v in field.scores.values())

    def test_unknown_open_site(self):
        sc, mats = worked_example()
        with pytest.raises(ValidationError, match="nope"):
            accessibility_scores(sc, mats["elderly"], {"nope"})

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        sc = random_scenario(seed, two_groups=True)
        mats = build_travel_time_matrices(sc)
        rng = np.random.default_rng(1000 + seed)
        open_ids = {s for s in sc.site_ids if rng.random() < 0.7}
        for name in ("general", "elderly"):
            field = accessibility_scores(sc, mats[name], open_ids, gamma=1.3)
            expected = brute_scores(sc, mats[name], open_ids, gamma=1.3)
            for did, score in field.scores.items():
                assert score == pytest.approx(expected[did], rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_gamma_linearity(self, seed):
        sc = random_scenario(40 + seed)
        mats = build_travel_time_matrices(sc)
        one = accessibility_scores(sc, mats["general"], set(sc.site_ids), gamma=1.0)
        two = accessibility_scores(sc, mats["general"], set(sc.site_ids), gamma=2.0)
        for did in sc.demand_ids:
            assert two.scores[did] == pytest.approx(2 * one.scores[did], rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_fixed_ratio_monotonicity(self, seed):
        # opening one more site adds a non-negative term to every score
        sc = random_scenario(60 + seed)
        if len(sc.site_ids) < 2:
            pytest.skip("needs two sites")
        mats = build_travel_time_matrices(sc)
        partial = set(sc.site_ids[:-1])
        before = accessibility_scores(sc, mats["general"], partial)
        after = accessibility_scores(sc, mats["general"], partial | {sc.site_ids[-1]})
        for did in sc.demand_ids:
            assert after.scores[did] >= before.scores[did]


class TestConservation:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances(self, seed):
        sc = random_scenario(seed, two_groups=(seed % 2 == 0))
        mats = build_travel_time_matrices(sc)
        rng = np.random.default_rng(2000 + seed)
        open_ids = {s for s in sc.site_ids if rng.random() < 0.8}
        field = accessibility_scores(sc, mats["general"], open_ids, gamma=1.0)
        assert conservation_check(field, sc, open_ids, mats["general"]) < 1e-9

    def test_no_open_sites_defined_zero(self):
        sc, mats = worked_example()
        field = accessibility_scores(sc, mats["elderly"], set())
        assert conservation_check(field, sc, set(), mats["elderly"]) == 0.0

    def test_idle_site_excluded_from_supply(self):
        sc, mats = table_scenario(
            [("d1", {"general": 500})],
            [("s1", "existing", 1500.0), ("s2", "existing", 1500.0)],
            (GENERAL,),
            {"general": [[0.0, math.inf]]},
        )
        open_ids = {"s1", "s2"}
        field = accessibility_scores(sc, mats["general"], open_ids)
        assert conservation_check(field, sc, open_ids, mats["general"]) < 1e-9
        assert supply_demand_ratio(sc.sites[1], mats["general"], sc.demands).idle

    def test_requires_unit_gamma(self):
        sc, mats = worked_example()
        field = accessibility_scores(sc, mats["elderly"], {"s1"}, gamma=2.0)
        with pytest.raises(ValidationError, match="gamma"):
            conservation_check(field, sc, {"s1"}, mats["elderly"])

    def test_scores_paired_by_demand_id(self):
        """The order of the field's dict does not matter: each score meets
        its own point's population."""
        sc, mats, existing, field = seed7_city()
        reordered = AccessibilityField(field.group, dict(reversed(field.scores.items())))
        gap = conservation_check(field, sc, existing, mats["general"])
        assert gap < 1e-12
        assert conservation_check(reordered, sc, existing, mats["general"]) == gap

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_field_must_cover_the_matrix_demand(self, change):
        sc, mats, existing, field = seed7_city()
        scores = dict(field.scores)
        if change == "missing":
            scores = dict(list(scores.items())[:10])
        else:
            scores["elsewhere"] = 0.0
        with pytest.raises(ValidationError, match="cover exactly"):
            conservation_check(AccessibilityField(field.group, scores), sc, existing,
                               mats["general"])

    def test_field_must_be_the_matrix_group(self):
        sc, mats, existing, _ = seed7_city()
        elderly = accessibility_scores(sc, mats["elderly"], existing)
        with pytest.raises(ValidationError, match="group 'elderly' is not the matrix's group"):
            conservation_check(elderly, sc, existing, mats["general"])


class TestHomogeneity:
    @pytest.mark.parametrize("seed", range(5))
    def test_capacity_scaling(self, seed):
        sc = random_scenario(80 + seed)
        mats = build_travel_time_matrices(sc)
        base = accessibility_scores(sc, mats["general"], set(sc.site_ids))
        doubled_sites = tuple(
            type(s)(s.site_id, s.location, s.status, 2 * s.capacity)
            for s in sc.sites
        )
        sc2 = type(sc)(sc.network, sc.demands, doubled_sites, sc.groups)
        mats2 = build_travel_time_matrices(sc2)
        scaled = accessibility_scores(sc2, mats2["general"], set(sc2.site_ids))
        for did in sc.demand_ids:
            assert scaled.scores[did] == pytest.approx(2 * base.scores[did], rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_population_scaling(self, seed):
        sc = random_scenario(90 + seed)
        mats = build_travel_time_matrices(sc)
        base = accessibility_scores(sc, mats["general"], set(sc.site_ids))
        doubled = tuple(
            type(d)(d.demand_id, d.location,
                    {g: 2 * v for g, v in d.population.items()})
            for d in sc.demands
        )
        sc2 = type(sc)(sc.network, doubled, sc.sites, sc.groups)
        mats2 = build_travel_time_matrices(sc2)
        halved = accessibility_scores(sc2, mats2["general"], set(sc2.site_ids))
        for did in sc.demand_ids:
            assert halved.scores[did] == pytest.approx(base.scores[did] / 2, rel=1e-12)


class TestCoverage:
    def test_all_zero_lands_in_lowest_bin(self):
        sc, mats = worked_example()
        field = accessibility_scores(sc, mats["elderly"], set())
        report = coverage_report(field, sc.demands, default_bins(0.135))
        assert report.bins[0].population == 400
        assert report.bins[0].share == 1.0
        assert all(b.population == 0 for b in report.bins[1:])

    def test_two_bin_split(self):
        sc, mats = table_scenario(
            [("d1", {"general": 100}), ("d2", {"general": 100})],
            [("s1", "existing", 1500.0)],
            (GENERAL,),
            {"general": [[0.0], [0.0]]},
        )
        field = type(accessibility_scores(sc, mats["general"], set()))(
            "general", {"d1": 0.10, "d2": 0.20}
        )
        report = coverage_report(field, sc.demands, (("below", 0.0), ("at", 0.135)))
        assert [b.population for b in report.bins] == [100, 100]
        assert [b.share for b in report.bins] == [0.5, 0.5]

    def test_boundary_score_goes_to_higher_bin(self):
        sc, mats = table_scenario(
            [("d1", {"general": 10})], [("s1", "existing", 1.0)],
            (GENERAL,), {"general": [[0.0]]},
        )
        field = type(accessibility_scores(sc, mats["general"], set()))(
            "general", {"d1": 0.135}
        )
        report = coverage_report(field, sc.demands, default_bins(0.135))
        assert report.bins[2].label == "medium"
        assert report.bins[2].population == 10

    def test_empty_bin_spec_rejected(self):
        sc, mats = worked_example()
        field = accessibility_scores(sc, mats["elderly"], set())
        with pytest.raises(ValidationError, match="empty"):
            coverage_report(field, sc.demands, ())

    def test_non_increasing_bounds_rejected(self):
        sc, mats = worked_example()
        field = accessibility_scores(sc, mats["elderly"], set())
        with pytest.raises(ValidationError, match="increasing"):
            coverage_report(field, sc.demands, (("a", 0.0), ("b", 0.0)))

    def test_positive_first_bound_rejected(self):
        sc, mats = worked_example()
        field = accessibility_scores(sc, mats["elderly"], set())
        with pytest.raises(ValidationError, match="first bin"):
            coverage_report(field, sc.demands, (("a", 0.1),))

    @pytest.mark.parametrize("seed", range(6))
    def test_invariants_on_random_instances(self, seed):
        sc = random_scenario(seed, two_groups=True)
        mats = build_travel_time_matrices(sc)
        field = accessibility_scores(sc, mats["elderly"], set(sc.site_ids))
        report = coverage_report(field, sc.demands, default_bins())
        assert report.total_population == sc.total_population("elderly")
        if report.total_population:
            assert sum(b.share for b in report.bins) == pytest.approx(1.0, abs=1e-9)
        bounds = [b.lower_bound for b in report.bins]
        assert bounds == sorted(bounds)

    def test_default_bins_anchor_on_target(self):
        spec = default_bins(0.2)
        assert [label for label, _ in spec] == [
            "very-low", "low", "medium", "high", "very-high",
        ]
        assert [lower for _, lower in spec] == [0.0, 0.1, 0.2, 0.30000000000000004, 0.4]


class TestNonFiniteScores:
    """A NaN or infinite score is refused by name, not binned as a high one."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_constructor(self, bad):
        _, _, _, field = seed7_city()
        with pytest.raises(ValidationError, match="'d0000' must be finite"):
            AccessibilityField(field.group, dict(field.scores, d0000=bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_coverage_report(self, bad):
        sc, _, _, field = seed7_city()
        with pytest.raises(ValidationError, match="'d0000' must be finite"):
            coverage_report(AccessibilityField(field.group, dict(field.scores, d0000=bad)),
                            sc.demands, default_bins())


class TestNonFiniteBins:
    """A NaN or infinite bound is refused, not turned into a bin no score fits."""

    @pytest.mark.parametrize("bins", [
        (("a", 0.0), ("b", math.nan), ("c", 1.0)),
        (("a", math.nan),),
        (("a", -math.inf), ("b", 0.1)),
        (("a", 0.0), ("b", math.inf)),
    ])
    @pytest.mark.parametrize("entry", ["coverage_report", "optimize", "exhaustive_oracle"])
    def test_rejected(self, bins, entry):
        sc, mats = worked_example()
        params = ObjectiveParams(primary_group="elderly", constraint_groups=("elderly",))
        calls = {
            "coverage_report": lambda: coverage_report(
                accessibility_scores(sc, mats["elderly"], set(sc.site_ids)),
                sc.demands, bins),
            "optimize": lambda: optimize(sc, mats, params, bins=bins),
            "exhaustive_oracle": lambda: exhaustive_oracle(sc, mats, params, bins=bins),
        }
        with pytest.raises(ValidationError, match="finite"):
            calls[entry]()
