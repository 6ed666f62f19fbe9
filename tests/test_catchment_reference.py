"""The shared 2SFCA catchment against the dense formulas it replaced.

``reference_ratios`` and ``reference_field`` are the formulas scoring and
the search each computed before they read one ``_Catchment``: the decay
weights, then the site ratios, then ``weights * ratios``, then the dense row
sum over the open columns in ascending site order.  Every reader of the
catchment must reproduce them to the bit.  ``left_to_right`` pins that
order without numpy: one Python float per demand point, adding the open
sites one after another.
"""

import math

import numpy as np
import pytest

from accessopt.accessibility import (
    _Catchment,
    accessibility_scores,
    conservation_check,
    decay_weights,
    supply_demand_ratio,
    supply_demand_ratios,
)
from accessopt.geodata import CANDIDATE, EXISTING, PopulationGroup, ValidationError
from accessopt.optimizer import ObjectiveParams, _Evaluator, exhaustive_oracle, optimize
from accessopt.routing import TravelTimeMatrix

from conftest import ELDERLY, GENERAL, table_scenario

CHILDREN = PopulationGroup("children", 60.0, 500.0)
GROUPS = (GENERAL, ELDERLY, CHILDREN)
N_RANDOM = 40


def reference_ratios(matrix, demands, sites):
    weights = decay_weights(matrix.times_min, matrix.group.t_sigma_min)
    pop = np.array([d.pop_of(matrix.group.name) for d in demands], dtype=float)
    denom = (weights * pop[:, None]).sum(axis=0)
    supply = np.array([s.capacity for s in sites], dtype=float)
    ratios = np.zeros_like(denom)
    np.divide(supply, denom, out=ratios, where=denom > 0.0)
    return weights, ratios


def reference_field(scenario, matrix, open_sites, gamma):
    weights, ratios = reference_ratios(matrix, scenario.demands, scenario.sites)
    contributions = weights * ratios[None, :]
    open_idx = [j for j, sid in enumerate(matrix.site_order) if sid in open_sites]
    if not open_idx:
        return np.zeros(len(matrix.demand_order))
    return gamma * contributions[:, open_idx].sum(axis=1)


def left_to_right(contributions, open_idx, gamma):
    """gamma times each demand point's open entries, added in ascending site
    order in Python floats."""
    field = []
    for row in contributions.tolist():
        total = 0.0
        for j in open_idx:
            total += row[j]
        field.append(gamma * total)
    return field


def random_instance(seed):
    """Three groups from explicit times, with an idle site and unreachable demand.

    The group roles rotate with the seed: the primary group differs from the
    constraint groups in two of three instances, and in every instance at
    least one scenario group is neither primary nor constrained.
    """
    rng = np.random.default_rng(7000 + seed)
    n_demands = int(rng.integers(3, 40))
    n_existing = int(rng.integers(0, 4))
    n_sites = n_existing + int(rng.integers(2, 8))
    demand_rows = [
        (f"d{i:03d}", {g.name: int(rng.choice([0, rng.integers(1, 2000)]))
                       for g in GROUPS})
        for i in range(n_demands)
    ]
    site_rows = [
        (f"s{j:03d}", EXISTING if j < n_existing else CANDIDATE,
         float(rng.choice([300.0, 800.0, 1500.0])))
        for j in range(n_sites)
    ]
    times = {}
    for g in GROUPS:
        t = rng.uniform(0.0, 1.3 * g.t_sigma_min, size=(n_demands, n_sites))
        t[rng.random(t.shape) < 0.3] = math.inf
        t[:, n_sites - 1] = math.inf  # an idle site
        t[0, :] = math.inf  # demand no site reaches
        times[g.name] = t
    scenario, matrices = table_scenario(demand_rows, site_rows, GROUPS, times)
    primary, constraint = [
        ("general", ("general",)),
        ("elderly", ("general",)),
        ("children", ("general", "elderly")),
    ][seed % 3]
    gamma = float(rng.choice([1.0, 0.7, 1.3]))
    all_open = reference_field(scenario, matrices["general"], set(scenario.site_ids), gamma)
    reached = all_open[all_open > 0]
    a_sigma = float(np.median(reached)) if reached.size else 0.1
    params = ObjectiveParams(a_sigma=a_sigma, gamma=gamma, primary_group=primary,
                             constraint_groups=constraint)
    return scenario, matrices, params, rng


def open_sets(scenario, rng, n=6):
    """Candidate subsets: none, all, and random ones in between."""
    candidates = list(scenario.candidate_site_ids)
    subsets = [set(), set(candidates)]
    for _ in range(n):
        subsets.append({c for c in candidates if rng.random() < 0.5})
    return subsets


SEEDS = range(N_RANDOM)


@pytest.mark.parametrize("seed", SEEDS)
def test_ratios_match_reference(seed):
    scenario, matrices, _, _ = random_instance(seed)
    for g in GROUPS:
        got = supply_demand_ratios(matrices[g.name], scenario.demands, scenario.sites)
        _, want = reference_ratios(matrices[g.name], scenario.demands, scenario.sites)
        assert got.tobytes() == want.tobytes()
        assert want[-1] == 0.0
        for j, site in enumerate(scenario.sites):
            one = supply_demand_ratio(site, matrices[g.name], scenario.demands)
            assert one.ratio == want[j]
            assert one.idle == (want[j] == 0.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_scores_and_evaluator_match_reference(seed):
    scenario, matrices, params, rng = random_instance(seed)
    ev = _Evaluator(scenario, matrices, params)
    existing = set(scenario.existing_site_ids)
    for subset in open_sets(scenario, rng):
        open_full = existing | subset
        fields = ev.fields(subset)
        assert set(fields) == {params.primary_group, *params.constraint_groups}
        for g in GROUPS:
            want = reference_field(scenario, matrices[g.name], open_full, params.gamma)
            field = accessibility_scores(scenario, matrices[g.name], open_full,
                                         params.gamma)
            assert field.vector().tobytes() == want.tobytes()
            assert want[0] == 0.0
            if g.name in fields:
                assert fields[g.name].tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_sparse_catchment_matches_dense_reference(seed):
    """The kernel on the reachable minutes alone has the bits of the kernel
    over the full matrix, every other pair weighs 0, and the catchment's
    sparse ``W`` is the dense weights * ratios; a one-site catchment has
    its site's ratio and row."""
    scenario, matrices, _, _ = random_instance(seed)
    for g in GROUPS:
        matrix = matrices[g.name]
        times, site = matrix.times, matrix.times.site
        weights, ratios = reference_ratios(matrix, scenario.demands, scenario.sites)
        got = decay_weights(times.values, g.t_sigma_min)
        assert got.tobytes() == weights[times.demand, site].tobytes()
        outside = np.ones(weights.shape, dtype=bool)
        outside[times.demand, site] = False
        assert not np.any(weights[outside])
        catchment = _Catchment(matrix, scenario.demands, scenario.sites)
        contributions = weights * ratios[None, :]
        assert np.asarray(catchment.W).tobytes() == contributions.tobytes()
        for j, s in enumerate(scenario.sites):
            one = _Catchment(matrix.select([j]), scenario.demands, (s,))
            assert one.ratios.tobytes() == ratios[[j]].tobytes()
            assert np.asarray(one.W).tobytes() == contributions[:, [j]].tobytes()


@pytest.mark.parametrize("n", [1, 3, 8, 9, 31, 1000, 4099])
def test_kernel_on_reachable_minutes_alone(n):
    """Vector loops handle an array in blocks and a tail: the kernel of each
    time has the same bits wherever the time sits, with or without the
    unreachable times around it."""
    rng = np.random.default_rng(n)
    t_sigma = 700.0 / 70.0
    times = rng.uniform(0.0, 1.3 * t_sigma, n)
    times[rng.random(n) < 0.5] = math.inf
    times[rng.random(n) < 0.05] = t_sigma
    reach = np.isfinite(times)
    full = decay_weights(times, t_sigma)
    assert decay_weights(times[reach], t_sigma).tobytes() == full[reach].tobytes()
    assert not np.any(full[~reach])


def columns(matrix, site_ids):
    """``matrix`` cut to the columns of ``site_ids``, in matrix order."""
    cols = [j for j, sid in enumerate(matrix.site_order) if sid in site_ids]
    return TravelTimeMatrix(matrix.group, matrix.times_min[:, cols], matrix.demand_order,
                            [matrix.site_order[j] for j in cols])


@pytest.mark.parametrize("seed", SEEDS)
def test_open_columns_alone_match_full_matrix(seed):
    """Scoring and the conservation check weigh the open sites' columns only:
    a matrix of just those columns, or of every column in Fortran order,
    gives the full matrix's results to the bit, one open site included."""
    scenario, matrices, params, rng = random_instance(seed)
    existing = set(scenario.existing_site_ids)
    layouts = [existing | subset for subset in open_sets(scenario, rng)]
    layouts += [{sid} for sid in scenario.site_ids]
    for open_ids in layouts:
        for g in GROUPS:
            full = matrices[g.name]
            narrow = columns(full, open_ids)
            fortran = TravelTimeMatrix(full.group, np.asfortranarray(full.times_min),
                                       full.demand_order, full.site_order)
            want = accessibility_scores(scenario, full, open_ids, params.gamma)
            unit = accessibility_scores(scenario, full, open_ids)
            gap = conservation_check(unit, scenario, open_ids, full)
            ref = reference_field(scenario, full, open_ids, params.gamma)
            assert want.vector().tobytes() == ref.tobytes()
            for matrix in (narrow, fortran):
                got = accessibility_scores(scenario, matrix, open_ids, params.gamma)
                assert got == want
                assert got.vector().tobytes() == want.vector().tobytes()
                assert conservation_check(unit, scenario, open_ids, matrix) == gap


@pytest.mark.parametrize("reader", ["accessibility_scores", "conservation_check"])
def test_open_site_outside_the_matrix_is_named(reader):
    """An open site the matrix lacks is refused by name, not indexed past."""
    scenario, matrices, _, _ = random_instance(3)
    full = matrices["general"]
    kept, dropped = scenario.site_ids[:-2], scenario.site_ids[-2:]
    narrow = columns(full, kept)
    field = accessibility_scores(scenario, full, scenario.site_ids)
    calls = {
        "accessibility_scores": lambda: accessibility_scores(scenario, narrow,
                                                             scenario.site_ids),
        "conservation_check": lambda: conservation_check(field, scenario,
                                                         scenario.site_ids, narrow),
    }
    with pytest.raises(ValidationError,
                       match=f"matrix does not cover open site\\(s\\): {', '.join(dropped)}$"):
        calls[reader]()


@pytest.mark.parametrize("reader", ["accessibility_scores", "conservation_check"])
def test_matrix_site_outside_the_scenario_refused(reader):
    scenario, matrices, _, _ = random_instance(3)
    full = matrices["general"]
    stranger = TravelTimeMatrix(full.group, full.times_min, full.demand_order,
                                (*full.site_order[:-1], "nowhere"))
    field = accessibility_scores(scenario, full, ())
    calls = {
        "accessibility_scores": lambda: accessibility_scores(scenario, stranger, ()),
        "conservation_check": lambda: conservation_check(field, scenario, (), stranger),
    }
    with pytest.raises(ValidationError, match="site order"):
        calls[reader]()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("search", [optimize, exhaustive_oracle])
def test_result_fields_match_scores(seed, search):
    scenario, matrices, params, _ = random_instance(seed)
    result = search(scenario, matrices, params)
    open_full = set(scenario.existing_site_ids) | result.layout.open_candidates
    assert set(result.per_group_fields) == {g.name for g in GROUPS}
    for g in GROUPS:
        field = accessibility_scores(scenario, matrices[g.name], open_full, params.gamma)
        want = reference_field(scenario, matrices[g.name], open_full, params.gamma)
        got = result.per_group_fields[g.name]
        assert got.vector().tobytes() == field.vector().tobytes() == want.tobytes()
        assert list(got.scores) == list(field.scores)
        assert got.group == g.name and got.gamma == params.gamma


@pytest.mark.parametrize("seed", SEEDS)
def test_field_adds_open_sites_left_to_right(seed):
    """Each layout, its open sites given in ascending, reversed or shuffled
    order, has the bits of the plain left-to-right loop, for every layout
    size."""
    scenario, matrices, params, rng = random_instance(seed)
    n_sites = len(scenario.sites)
    for g in GROUPS:
        matrix = matrices[g.name]
        weights, ratios = reference_ratios(matrix, scenario.demands, scenario.sites)
        contributions = weights * ratios[None, :]
        catchment = _Catchment(matrix, scenario.demands, scenario.sites)
        for k in range(n_sites + 1):
            for _ in range(5):
                idx = sorted(rng.permutation(n_sites)[:k].tolist())
                want = np.array(left_to_right(contributions, idx, params.gamma))
                for order in (idx, idx[::-1], rng.permutation(idx).tolist()):
                    assert catchment.field(order, params.gamma).tobytes() == want.tobytes()


def test_columns_summed_in_another_order_change_bits():
    """The instances are rich enough for the summation order to show."""
    changed = 0
    for seed in SEEDS:
        scenario, matrices, params, _ = random_instance(seed)
        weights, ratios = reference_ratios(matrices["general"], scenario.demands,
                                           scenario.sites)
        contributions = weights * ratios[None, :]
        forward = contributions.sum(axis=1)
        backward = contributions[:, ::-1].sum(axis=1)
        changed += int(np.count_nonzero(forward != backward))
    assert changed > 0


class TestErrorPaths:
    """Each reader of the catchment refuses a matrix that does not fit."""

    def instance(self):
        scenario, matrices, _, _ = random_instance(1)
        return scenario, matrices

    def permuted(self, matrix, axis):
        n = matrix.times_min.shape[axis]
        perm = np.roll(np.arange(n), 1)
        times = np.take(matrix.times_min, perm, axis=axis)
        demand_order, site_order = matrix.demand_order, matrix.site_order
        if axis == 0:
            demand_order = tuple(demand_order[i] for i in perm)
        else:
            site_order = tuple(site_order[j] for j in perm)
        return TravelTimeMatrix(matrix.group, times, demand_order, site_order)

    @pytest.mark.parametrize("axis,what", [(0, "demand order"), (1, "site order")])
    @pytest.mark.parametrize("reader", [
        "accessibility_scores", "supply_demand_ratios", "conservation_check",
        "optimize", "exhaustive_oracle",
    ])
    def test_permuted_matrix(self, axis, what, reader):
        scenario, matrices = self.instance()
        bad = dict(matrices, elderly=self.permuted(matrices["elderly"], axis))
        params = ObjectiveParams(a_sigma=0.1, primary_group="elderly",
                                 constraint_groups=("elderly",))
        calls = {
            "accessibility_scores": lambda: accessibility_scores(
                scenario, bad["elderly"], scenario.existing_site_ids),
            "supply_demand_ratios": lambda: supply_demand_ratios(
                bad["elderly"], scenario.demands, scenario.sites),
            "conservation_check": lambda: conservation_check(
                accessibility_scores(scenario, matrices["elderly"], ()),
                scenario, (), bad["elderly"]),
            "optimize": lambda: optimize(scenario, bad, params),
            "exhaustive_oracle": lambda: exhaustive_oracle(scenario, bad, params),
        }
        with pytest.raises(ValidationError, match=what):
            calls[reader]()

    def test_missing_constraint_group_matrix(self):
        scenario, matrices = self.instance()
        del matrices["elderly"]
        params = ObjectiveParams(a_sigma=0.1, constraint_groups=("general", "elderly"))
        with pytest.raises(ValidationError, match="matrix for group 'elderly'"):
            optimize(scenario, matrices, params)

    def test_missing_reported_group_matrix(self):
        """Only the result needs the children's matrix: it fails while assembling."""
        scenario, matrices = self.instance()
        del matrices["children"]
        params = ObjectiveParams(a_sigma=0.1)
        with pytest.raises(ValidationError, match="matrix for group 'children'"):
            optimize(scenario, matrices, params)

    def test_constraint_group_not_in_scenario(self):
        scenario, matrices = self.instance()
        params = ObjectiveParams(a_sigma=0.1, constraint_groups=("general", "nobody"))
        with pytest.raises(ValidationError, match="unknown group 'nobody'"):
            optimize(scenario, matrices, params)
