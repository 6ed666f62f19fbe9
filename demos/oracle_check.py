"""Validate the heuristic against the oracle's certified optimum.

On pools of up to 24 candidate sites the oracle's branch and bound finds
the layout a scan of every subset would pick, which gives a ground-truth
optimum to compare against.  The heuristic can never beat it; the
interesting question is how close it lands and how often it matches
exactly.
"""

from accessopt import (
    ObjectiveParams,
    accessibility_scores,
    build_travel_time_matrices,
    exhaustive_oracle,
    generate_synthetic_scenario,
    optimize,
)

# a small district, so the pool stays under the oracle's default cap
scenario = generate_synthetic_scenario(
    21, grid_rows=7, grid_cols=7, n_existing=3, n_candidate=10, spacing_m=150.0
)
matrices = build_travel_time_matrices(scenario)

# pick a target the full pool can meet, just under the all-open floor
field = accessibility_scores(scenario, matrices["general"], set(scenario.site_ids))
floor = min(field.scores[d.demand_id]
            for d in scenario.demands if d.pop_of("general") > 0)
params = ObjectiveParams(a_sigma=round(0.8 * floor, 4))
print(f"pool of {len(scenario.candidate_site_ids)} candidates "
      f"({2 ** len(scenario.candidate_site_ids)} subsets), "
      f"target {params.a_sigma}")

oracle = exhaustive_oracle(scenario, matrices, params)
heuristic = optimize(scenario, matrices, params)

print(f"oracle    : k = {oracle.layout.k}, objective = {oracle.objective:.6f}, "
      f"layout = {oracle.layout.sorted_ids()}")
print(f"heuristic : k = {heuristic.layout.k}, objective = {heuristic.objective:.6f}, "
      f"layout = {heuristic.layout.sorted_ids()}")
ratio = heuristic.objective / oracle.objective if oracle.objective else 1.0
print(f"objective ratio (heuristic / oracle): {ratio:.6f}")
assert heuristic.objective >= oracle.objective - 1e-12
