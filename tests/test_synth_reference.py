"""The synthetic generator's diamond stencil against the N×N formula it replaced.

``nxn_generator`` is ``generate_synthetic_scenario`` as it was before the
stencil: it builds the N×N Manhattan and reach matrices and scores each
placement step with one dense row sum per node.  It takes the row sum as
an argument:

* ``product_rows`` is ``in_reach @ x``, the old code's own product.  Its
  float (phase-2) sums follow the BLAS kernel's order.
* ``in_order_rows`` adds each row left to right in ascending node index,
  the order the stencil writes down.

The stencil must give the in-order oracle's bundle byte for byte on every
city.  Against the product it must give the same bundle whenever every
phase-2 pick of the product won by more than a rounding margin.  Otherwise
it must make the same picks up to the first pick that did not: there the
leading sums are within rounding of each other, and the BLAS kernel's
rounding may pick another node than the stencil's order does.
"""

import functools
import math
import random

import numpy as np
import pytest

from accessopt.geodata import (
    _BASE_LAT,
    _BASE_LON,
    _M_PER_DEG_LAT,
    _POP_FACTOR,
    _SITE_REACH_FACTOR,
    CANDIDATE,
    DEFAULT_CAPACITY,
    DEFAULT_GROUPS,
    EXISTING,
    Coordinate,
    DemandPoint,
    Edge,
    FacilitySite,
    PopulationGroup,
    RoadNetwork,
    Scenario,
    generate_synthetic_scenario,
    write_scenario_bundle,
)

from conftest import ELDERLY, GENERAL

CHILDREN = PopulationGroup("children", 60.0, 500.0)
LONG_WALK = PopulationGroup("general", 80.0, 1200.0)
SHORT_WALK = PopulationGroup("general", 80.0, 300.0)


def product_rows(in_reach, x):
    return in_reach @ x


def in_order_rows(in_reach, x):
    return np.add.accumulate(np.where(in_reach, x, 0.0), axis=1)[:, -1]


def nxn_generator(seed, *, grid_rows=20, grid_cols=20, n_existing=16, n_candidate=40,
                  population_scale=1.0, spacing_m=120.0, groups=DEFAULT_GROUPS,
                  capacity=DEFAULT_CAPACITY, row_sums=product_rows):
    """(scenario, phase-2 picks, index of the first phase-2 site whose pick
    did not win by the rounding margin, or None)."""
    rng = np.random.default_rng(seed)
    n_nodes = grid_rows * grid_cols
    width = max(4, len(str(n_nodes - 1)))
    d_lat = spacing_m / _M_PER_DEG_LAT
    d_lon = spacing_m / (_M_PER_DEG_LAT * math.cos(math.radians(_BASE_LAT)))

    rows, cols = np.divmod(np.arange(n_nodes), grid_cols)
    node_ids = [f"n{i:0{width}d}" for i in range(n_nodes)]
    nodes = {
        node_ids[i]: Coordinate(_BASE_LON + cols[i] * d_lon, _BASE_LAT + rows[i] * d_lat)
        for i in range(n_nodes)
    }

    edge_pairs = []
    for i in range(n_nodes):
        r, c = divmod(i, grid_cols)
        if c + 1 < grid_cols:
            edge_pairs.append((i, i + 1))
        if r + 1 < grid_rows:
            edge_pairs.append((i, i + grid_cols))
    jitter = rng.uniform(0.95, 1.10, size=len(edge_pairs))
    edges = tuple(
        Edge(node_ids[a], node_ids[b], round(spacing_m * jitter[k], 3))
        for k, (a, b) in enumerate(edge_pairs)
    )
    network = RoadNetwork(nodes, edges)

    n_blobs = 3
    blob_r = rng.uniform(0, grid_rows - 1, size=n_blobs)
    blob_c = rng.uniform(0, grid_cols - 1, size=n_blobs)
    blob_sigma = rng.uniform(0.12, 0.30, size=n_blobs) * max(grid_rows, grid_cols)
    blob_amp = rng.uniform(0.5, 1.5, size=n_blobs)
    density = np.full(n_nodes, 0.15)
    for b in range(n_blobs):
        d2 = (rows - blob_r[b]) ** 2 + (cols - blob_c[b]) ** 2
        density = density + blob_amp[b] * np.exp(-d2 / (2 * blob_sigma[b] ** 2))
    noise = rng.uniform(0.7, 1.3, size=n_nodes)
    base_pop = np.rint(density * noise * _POP_FACTOR * population_scale).astype(int)

    group_pops = [base_pop]
    for _ in groups[1:]:
        frac = rng.uniform(0.12, 0.25, size=n_nodes)
        group_pops.append(np.rint(base_pop * frac).astype(int))

    demands = tuple(
        DemandPoint(
            f"d{i:0{width}d}",
            nodes[node_ids[i]],
            {g.name: int(group_pops[k][i]) for k, g in enumerate(groups)},
        )
        for i in range(n_nodes)
    )

    site_nodes = []
    if n_existing > 0:
        margin = min(2, (min(grid_rows, grid_cols) - 1) // 2)
        interior = (
            (rows >= margin) & (rows < grid_rows - margin)
            & (cols >= margin) & (cols < grid_cols - margin)
        )
        anchor = int(np.argmin(np.where(interior, density, np.inf)))
        cluster_sigma = max(1.2, 0.08 * max(grid_rows, grid_cols))
        w = np.exp(-((rows - rows[anchor]) ** 2 + (cols - cols[anchor]) ** 2)
                   / (2 * cluster_sigma**2))
        p = w / w.sum()
        site_nodes = [int(i) for i in
                      rng.choice(n_nodes, size=n_existing, replace=False, p=p)]

    reach = max(1, int(_SITE_REACH_FACTOR * groups[0].max_walk_m / (spacing_m * 1.05)))
    manhattan = np.abs(rows[:, None] - rows[None, :]) + np.abs(cols[:, None] - cols[None, :])
    in_reach = manhattan <= reach
    taken = np.zeros(n_nodes, dtype=bool)
    taken[site_nodes] = True
    covered = np.zeros(n_nodes, dtype=bool)
    unserved = base_pop.astype(float)

    def absorb(node):
        within = in_reach[node]
        total = unserved[within].sum()
        if total > 0:
            unserved[within] *= max(0.0, 1.0 - capacity / total)

    for i in site_nodes:
        covered |= in_reach[i]
        absorb(i)
    positive = base_pop > 0
    phase_two = 0
    first_unclear = None
    for _ in range(n_candidate):
        uncovered = positive & ~covered
        if uncovered.any():
            scores = row_sums(in_reach, (base_pop * uncovered).astype(float))
        else:
            scores = row_sums(in_reach, unserved)
        masked = np.where(taken, -np.inf, scores)
        pick = int(np.argmax(masked))
        if not uncovered.any():
            phase_two += 1
            # two orders of one row of n nonnegative terms differ by at most
            # 2 (n - 1) u sum(terms); twice that both ways is a safe margin
            margin = 4 * n_nodes * np.finfo(float).eps * unserved.sum()
            runner_up = np.delete(masked, pick).max(initial=-np.inf)
            if first_unclear is None and not masked[pick] - runner_up > margin:
                first_unclear = len(site_nodes)
        taken[pick] = True
        site_nodes.append(pick)
        covered |= in_reach[pick]
        absorb(pick)

    site_width = max(3, len(str(max(n_existing + n_candidate - 1, 0))))
    sites = tuple(
        FacilitySite(
            f"s{k:0{site_width}d}",
            nodes[node_ids[site_nodes[k]]],
            EXISTING if k < n_existing else CANDIDATE,
            capacity,
        )
        for k in range(n_existing + n_candidate)
    )
    scenario = Scenario(network=network, demands=demands, sites=sites, groups=tuple(groups))
    return scenario, phase_two, first_unclear


def spacing_for_reach(reach, max_walk_m=700.0):
    """A spacing_m whose placement reach is ``reach`` steps."""
    return _SITE_REACH_FACTOR * max_walk_m / ((reach + 0.5) * 1.05)


def city(seed, rows, cols, existing, candidates, **kw):
    return dict(seed=seed, grid_rows=rows, grid_cols=cols, n_existing=existing,
                n_candidate=candidates, **kw)


CITIES = [
    dict(seed=7),  # the golden district
    *(city(s, 12, 12, 4, 16) for s in (1, 2, 6)),  # the benchmark's cities
    *(city(s, 26, 26, 20, 90) for s in (1, 2, 4)),
    city(1, 40, 40, 40, 200),
    city(0, 2, 2, 1, 1),
    city(3, 2, 2, 2, 2),
    city(5, 2, 2, 0, 4),
    city(1, 3, 17, 2, 8),
    city(2, 17, 3, 1, 12),
    city(4, 2, 25, 3, 10),
    city(8, 9, 14, 5, 30),
    city(9, 30, 7, 6, 40),
    city(1, 5, 6, 2, 8, spacing_m=spacing_for_reach(9)),  # reach = the grid's span
    city(2, 6, 4, 1, 9, spacing_m=spacing_for_reach(8)),
    city(3, 5, 5, 2, 10, spacing_m=spacing_for_reach(50)),  # beyond it
    city(4, 3, 4, 1, 6, spacing_m=0.001),  # reach 366,666: the clamp must hold
    city(1, 4, 4, 1, 5, population_scale=0.0),
    city(2, 7, 5, 2, 10, population_scale=0.0),
    city(3, 3, 3, 2, 7),  # every node a site
    city(4, 4, 5, 5, 15),
    city(1, 10, 10, 4, 30, groups=(GENERAL, ELDERLY, CHILDREN)),
    city(2, 12, 9, 3, 25, groups=(LONG_WALK, ELDERLY)),
    city(3, 15, 15, 6, 40, groups=(SHORT_WALK, ELDERLY, CHILDREN)),
]


def random_cities(n):
    rng = random.Random(20240611)
    out = []
    for seed in range(n):
        rows, cols = rng.randint(2, 22), rng.randint(2, 22)
        n_nodes = rows * cols
        existing = rng.randint(0, n_nodes // 8)
        candidates = rng.randint(1, max(1, (n_nodes - existing) // 2))
        kw = dict(spacing_m=rng.choice([120.0, 120.0, 80.0, 50.0, 200.0]),
                  population_scale=rng.choice([1.0, 1.0, 0.4, 2.0]))
        if rng.random() < 0.25:
            kw["groups"] = rng.choice([(LONG_WALK, ELDERLY), (GENERAL, ELDERLY, CHILDREN),
                                       (SHORT_WALK,)])
        out.append(city(seed, rows, cols, existing, candidates, **kw))
    return out


CITIES += random_cities(42)


def city_id(c):
    groups = c.get("groups", DEFAULT_GROUPS)
    return "-".join([
        f"s{c['seed']}", f"{c.get('grid_rows', 20)}x{c.get('grid_cols', 20)}",
        f"{c.get('n_existing', 16)}+{c.get('n_candidate', 40)}",
        f"sp{c.get('spacing_m', 120.0):g}", f"pop{c.get('population_scale', 1.0):g}",
        "".join(g.name[0] for g in groups) + f"{groups[0].max_walk_m:g}",
    ])


def reach_of(c):
    walk = c.get("groups", DEFAULT_GROUPS)[0].max_walk_m
    return max(1, int(_SITE_REACH_FACTOR * walk / (c.get("spacing_m", 120.0) * 1.05)))


@functools.cache
def oracle(index, row_sums):
    c = dict(CITIES[index])
    return nxn_generator(c.pop("seed"), row_sums=row_sums, **c)


def bundle_bytes(scenario, out_dir):
    return {name: path.read_bytes()
            for name, path in write_scenario_bundle(scenario, out_dir).items()}


def stencil(index):
    c = dict(CITIES[index])
    return generate_synthetic_scenario(c.pop("seed"), **c)


def indices(pred=lambda c: True):
    chosen = [i for i, c in enumerate(CITIES) if pred(c)]
    return pytest.mark.parametrize("index", chosen, ids=[city_id(CITIES[i]) for i in chosen])


# the in-order oracle accumulates an N×N array per step: 40×40 takes seconds
@indices(lambda c: c.get("grid_rows", 20) * c.get("grid_cols", 20) <= 1000)
def test_stencil_gives_the_in_order_bundle(tmp_path, index):
    expected, _, _ = oracle(index, in_order_rows)
    assert bundle_bytes(stencil(index), tmp_path / "new") == \
        bundle_bytes(expected, tmp_path / "old")


@indices()
def test_stencil_gives_the_product_bundle_up_to_a_rounding_tie(tmp_path, index):
    expected, _, first_unclear = oracle(index, product_rows)
    got = stencil(index)
    if first_unclear is None:
        assert bundle_bytes(got, tmp_path / "new") == bundle_bytes(expected, tmp_path / "old")
    else:
        assert [s.location for s in got.sites[:first_unclear]] == \
            [s.location for s in expected.sites[:first_unclear]]


def test_cities_cover_the_edge_cases():
    def has(pred):
        return any(pred(c) for c in CITIES)

    assert len(CITIES) >= 60
    assert has(lambda c: c.get("grid_rows") == c.get("grid_cols") == 2)
    assert has(lambda c: c.get("grid_rows", 20) != c.get("grid_cols", 20))
    span = [reach_of(c) - (c.get("grid_rows", 20) + c.get("grid_cols", 20) - 2)
            for c in CITIES]
    assert 0 in span and max(span) > 0
    assert has(lambda c: c.get("population_scale") == 0.0)
    assert has(lambda c: c.get("n_existing", 16) + c.get("n_candidate", 40)
               == c.get("grid_rows", 20) * c.get("grid_cols", 20))
    assert has(lambda c: len(c.get("groups", ())) == 3)
    assert has(lambda c: c.get("groups", DEFAULT_GROUPS)[0].max_walk_m != 700.0)


def test_most_cities_make_phase_two_picks():
    picks = [oracle(i, product_rows)[1] for i in range(len(CITIES))]
    assert sum(p > 0 for p in picks) >= 2 * len(CITIES) // 3
    assert sum(picks) >= 500


def test_at_least_sixty_cities_match_the_product_byte_for_byte(tmp_path):
    matched = sum(
        bundle_bytes(stencil(i), tmp_path / f"new{i}")
        == bundle_bytes(oracle(i, product_rows)[0], tmp_path / f"old{i}")
        for i in range(len(CITIES))
    )
    assert matched >= 60

