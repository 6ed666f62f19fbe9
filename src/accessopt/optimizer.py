"""Facility placement search: which candidate sites to open.

Cost of a layout: ``alpha * k + beta * sum_i |A_i - a_sigma|^2`` where k is
the number of newly opened candidate sites and A_i the primary group's
accessibility score at demand point i, subject to every constrained group
reaching the target ``a_sigma`` everywhere it has population.  The search is
greedy construction (open whichever candidate cuts the remaining shortfall
most) followed by best-improvement drop/swap local search; an exact branch
and bound over candidate subsets doubles as ground truth on pools of up to
``MAX_POOL_CEILING`` candidates.

Each search step screens, then confirms.  The screen costs every move of
the step at once from the current layout's field: the field after a move
is ``F - gamma * W[out] + gamma * W[in]``, and a rounding-error bound
turns it into a certain lower bound on the move's objective and shortfall,
and a certain verdict on moves that must be infeasible.  Moves that cannot
win are dropped; the rest are evaluated canonically in order of their lower
bound until the next bound exceeds the best confirmed value, and the
winner is chosen by the same keys as a full scan.  The search therefore
takes the same moves as evaluating every layout, with bit-identical
objectives, at the cost of a few canonical evaluations per step.  The
oracle screens whole subtrees of layouts the same way.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .accessibility import (
    AccessibilityField,
    CoverageReport,
    _Catchment,
    _check_bins,
    # the next three are not called here; perfbench/tracer.py wraps them here
    accessibility_scores,  # noqa: F401
    coverage_report,
    decay_weights,  # noqa: F401
    default_bins,
    supply_demand_ratios,  # noqa: F401
)
from .geodata import Scenario, ValidationError

FEASIBILITY_TOL = 1e-9
IMPROVEMENT_TOL = 1e-12
DEFAULT_MAX_POOL = 15
# on 12x12 cities the oracle's bounds leave at most a few hundred of the
# 2**24 layouts to score (0.1-2 s, 2 CPUs), but nothing bounds the
# subtrees they cannot prune, which at worst are all of them
MAX_POOL_CEILING = 24
DEFAULT_BUDGET = 1000

_EPS = float(np.finfo(float).eps)
# absorbs the absolute error of operations whose results underflow
_TINY = float(np.finfo(float).tiny)


class CandidatePoolError(RuntimeError):
    """The oracle refused: the candidate pool exceeds the cap."""


@dataclass(frozen=True)
class ObjectiveParams:
    alpha: float = 1.0
    beta: float = 1.0
    a_sigma: float = 0.135
    gamma: float = 1.0
    primary_group: str = "general"
    constraint_groups: tuple[str, ...] = ("general",)

    def __post_init__(self):
        object.__setattr__(self, "constraint_groups", tuple(self.constraint_groups))
        if not all(map(math.isfinite, (self.alpha, self.beta, self.a_sigma, self.gamma))):
            raise ValidationError("alpha, beta, a_sigma and gamma must be finite")
        if self.alpha < 0 or self.beta < 0 or self.a_sigma < 0:
            raise ValidationError("alpha, beta and a_sigma must be non-negative")
        if not self.gamma > 0:
            raise ValidationError("gamma must be > 0")
        if not self.constraint_groups:
            raise ValidationError("at least one constraint group required")
        for i, name in enumerate(self.constraint_groups):
            if name in self.constraint_groups[:i]:
                raise ValidationError(f"constraint group '{name}' is listed twice")


@dataclass(frozen=True)
class Layout:
    """The chosen set of candidate sites to open; existing sites are always open."""

    open_candidates: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "open_candidates", frozenset(self.open_candidates))

    @property
    def k(self) -> int:
        return len(self.open_candidates)

    def sorted_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.open_candidates))


@dataclass(frozen=True)
class Shortfall:
    demand_id: str
    group: str
    score: float


@dataclass(frozen=True)
class OptimizationResult:
    layout: Layout
    objective: float
    feasible: bool
    per_group_fields: Mapping[str, AccessibilityField]
    coverage: Mapping[str, CoverageReport]
    shortfalls: tuple[Shortfall, ...]
    trace: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "per_group_fields", dict(self.per_group_fields))
        object.__setattr__(self, "coverage", dict(self.coverage))
        object.__setattr__(self, "shortfalls", tuple(self.shortfalls))
        object.__setattr__(self, "trace", tuple(self.trace))
        if self.feasible != (not self.shortfalls):
            raise ValidationError("feasible flag contradicts the shortfall list")


def check_budget(budget: int) -> None:
    if budget < 0:
        raise ValidationError(f"budget must be >= 0, got {budget}")


def check_max_pool(max_pool: int) -> None:
    if max_pool < 0:
        raise ValidationError(f"max_pool must be >= 0, got {max_pool}")
    if max_pool > MAX_POOL_CEILING:
        raise ValidationError(f"max_pool {max_pool} exceeds the ceiling of "
                              f"{MAX_POOL_CEILING} candidate sites")


def _check_layout(layout: Layout, scenario: Scenario) -> None:
    bad = sorted(layout.open_candidates - set(scenario.candidate_site_ids))
    if bad:
        raise ValidationError(
            f"layout members must be candidate sites of the scenario: {', '.join(bad)}"
        )


def _catchment(scenario: Scenario, matrices, name: str) -> _Catchment:
    matrix = matrices.get(name)
    if matrix is None:
        raise ValidationError(f"missing travel-time matrix for group '{name}'")
    return _Catchment(matrix, scenario.demands, scenario.sites)


class _Evaluator:
    """Scores layouts from the ``_Catchment`` of each primary or constraint group.

    The field of an open set S is the (gamma-scaled) sum of the rows of the
    catchment's site-major W for the sites in S; W never changes during
    the search.  The catchment adds the open rows in ascending site order,
    as ``accessibility_scores`` does, so ``evaluate`` is bit-reproducible:
    it is the canonical value on which every search decision is made, and
    ``evaluate_block`` gives each of a block of layouts the same bits.
    ``_MoveBlock`` screens moves from fields that are not summed
    canonically, within the rounding bounds ``field_tol`` and ``sum_tol``.
    """

    def __init__(self, scenario: Scenario, matrices, params: ObjectiveParams):
        self.scenario = scenario
        self.params = params
        needed = dict.fromkeys((params.primary_group, *params.constraint_groups))
        self.catchments: dict[str, _Catchment] = {}
        for name in needed:
            scenario.group_named(name)
            self.catchments[name] = _catchment(scenario, matrices, name)
        self.pos_mask = {g: c.pop > 0 for g, c in self.catchments.items()}
        self.site_index = {sid: j for j, sid in enumerate(scenario.site_ids)}
        self.existing_idx = [
            j for j, s in enumerate(scenario.sites) if s.existing
        ]
        self.candidate_ids = tuple(sorted(scenario.candidate_site_ids))
        self.n_demands = len(scenario.demands)
        self.field_tol = (2 * len(scenario.sites) + 16) * _EPS
        self.sum_tol = 2 * (self.n_demands + len(self.catchments) + 16) * _EPS

    def open_indices(self, open_candidates) -> np.ndarray:
        """The layout's open sites, existing ones included, as a (1, k) row."""
        idx = list(self.existing_idx)
        idx.extend(self.site_index[c] for c in open_candidates)
        idx.sort()
        return np.array([idx], dtype=np.intp)

    def fields(self, open_candidates) -> dict[str, np.ndarray]:
        open_idx = self.open_indices(open_candidates)
        return {g: c.field(open_idx, self.params.gamma)[0]
                for g, c in self.catchments.items()}

    def rows(self, group: str, site_ids) -> np.ndarray:
        """gamma * W for these sites, one C-contiguous row each (len(site_ids) x D)."""
        return self.params.gamma * self.catchments[group].W[
            [self.site_index[s] for s in site_ids]]

    def evaluate_block(self, open_idx: np.ndarray):
        """(objective, feasible, total squared shortfall) arrays for B layouts.

        ``open_idx`` is a (B, n) integer array: each row one layout's open
        site indices in ascending order, the existing sites included, so
        every layout opens n - len(existing_idx) candidates.  Each layout is
        scored alone from its n rows of W, and every sum over demand points
        runs along one C-contiguous row, pairwise as for a single layout,
        so a row has the bits ``evaluate`` gives its layout.
        """
        p = self.params
        fields = {g: c.field(open_idx, p.gamma) for g, c in self.catchments.items()}
        deviation = np.abs(fields[p.primary_group] - p.a_sigma)
        n_open = open_idx.shape[1] - len(self.existing_idx)
        objective = p.alpha * n_open + p.beta * np.sum(deviation**2, axis=-1)
        feasible = np.ones(len(open_idx), dtype=bool)
        shortfall = 0.0
        for g in p.constraint_groups:
            scores = fields[g].compress(self.pos_mask[g], axis=1)
            feasible &= ~np.any(scores < p.a_sigma - FEASIBILITY_TOL, axis=-1)
            shortfall = shortfall + np.sum(np.maximum(0.0, p.a_sigma - scores) ** 2,
                                           axis=-1)
        return objective, feasible, shortfall

    def evaluate(self, open_candidates) -> tuple[float, bool, float]:
        """(objective, feasible, total squared shortfall) for one layout."""
        open_idx = self.open_indices(open_candidates)
        objective, feasible, shortfall = self.evaluate_block(open_idx)
        return float(objective[0]), bool(feasible[0]), float(shortfall[0])

    def objective(self, open_candidates) -> float:
        return self.evaluate(open_candidates)[0]

    def feasible(self, open_candidates) -> bool:
        return self.evaluate(open_candidates)[1]

    def shortfalls(self, open_candidates) -> tuple[Shortfall, ...]:
        p = self.params
        fields = self.fields(open_candidates)
        ids = self.scenario.demand_ids
        floor = p.a_sigma - FEASIBILITY_TOL
        return tuple(
            Shortfall(ids[i], g, float(fields[g][i]))
            for g in p.constraint_groups
            for i in np.flatnonzero(self.pos_mask[g] & (fields[g] < floor))
        )


class _MoveBlock:
    """Certain bounds on ``evaluate`` for a block of moves, one per row.

    Every move of the block leaves group g with the screened field
    ``base[g] + added[g][q]``: row q of ``added[g]`` is ``gamma * W`` of the
    site the move opens (a zero row opens none), and ``base[g]`` is the
    canonical field F of the current layout, less ``gamma * W`` of the site
    the move closes, if any.  With ``added_high``, row q stands for every
    layout whose field lies between ``base + added[q]`` and ``base +
    added_high[q]``: the oracle's subtrees, where F is a node's field summed
    row by row and ``added_high`` sums the rows a subtree may add.

    Every entry of W is >= 0, so a sum of n entries in any order is off by
    at most n unit roundoffs times its value.  A screened field and the
    canonical field of the same layout therefore differ by at most
    ``field_tol * (F + added)`` per demand point, which is twice the worst
    case of both sides together; the spare half absorbs the rounding of the
    bounds themselves, and the at most S further roundoffs of a node's
    field and of ``added_high``.  The objective and the shortfall are sums
    of at most D squares, so their lower bounds give up the relative slack
    ``sum_tol``, whatever the order of the sum; the objective is also at
    least ``alpha * k`` exactly, as rounding is monotone.  All of this
    assumes finite inputs, which ObjectiveParams and the parsers enforce.
    """

    def __init__(self, ev: _Evaluator, fields, added, added_high=None):
        self.ev = ev
        self.low_added, self.high_added = {}, {}
        for g, block in added.items():
            high = block if added_high is None else added_high[g]
            err = ev.field_tol * (fields[g] + high) + _TINY
            self.low_added[g] = block - err
            self.high_added[g] = high + err

    def objective(self, base, n_open) -> np.ndarray:
        """Lower bounds on the objective; ``n_open`` is each move's k."""
        p = self.ev.params
        g = p.primary_group
        gap = base[g] + self.low_added[g]
        gap -= p.a_sigma
        above = p.a_sigma - (base[g] + self.high_added[g])
        np.maximum(gap, above, out=gap)
        np.maximum(gap, 0.0, out=gap)
        squares = np.einsum("ij,ij->i", gap, gap)
        floor = p.alpha * n_open
        return np.maximum((floor + p.beta * squares) * (1.0 - self.ev.sum_tol) - _TINY,
                          floor)

    def shortfall(self, base) -> np.ndarray:
        """Lower bounds on the total squared shortfall."""
        p = self.ev.params
        total = 0.0
        for g in p.constraint_groups:
            below = p.a_sigma - (base[g] + self.high_added[g])
            np.maximum(below, 0.0, out=below)
            below *= self.ev.pos_mask[g]
            total = total + np.einsum("ij,ij->i", below, below)
        return total * (1.0 - self.ev.sum_tol) - _TINY

    def maybe_feasible(self, base) -> np.ndarray:
        """False where the layout after the move is certainly infeasible."""
        p = self.ev.params
        floor = p.a_sigma - FEASIBILITY_TOL
        result = True
        for g in p.constraint_groups:
            below = (base[g] + self.high_added[g] < floor) & self.ev.pos_mask[g]
            result = result & ~below.any(axis=1)
        return result


def objective_value(
    layout: Layout,
    scenario: Scenario,
    matrices,
    params: ObjectiveParams,
) -> float:
    """Cost of a layout: facility count plus squared deviations from target."""
    _check_layout(layout, scenario)
    return _Evaluator(scenario, matrices, params).objective(layout.open_candidates)


def is_feasible(
    layout: Layout,
    scenario: Scenario,
    matrices,
    params: ObjectiveParams,
) -> tuple[bool, tuple[Shortfall, ...]]:
    """Whether every constrained group reaches the target everywhere it lives."""
    _check_layout(layout, scenario)
    shortfalls = _Evaluator(scenario, matrices, params).shortfalls(layout.open_candidates)
    return (not shortfalls), shortfalls


def _moves(ev: _Evaluator, current):
    """The closed candidates, the fields of ``current`` and a screen of its moves.

    Row 0 of the screen opens nothing and row 1 + q opens the q-th closed
    candidate, in ``candidate_ids`` order; the ``base`` a caller passes
    closes a site, when the move does.
    """
    closed = [c for c in ev.candidate_ids if c not in current]
    fields = ev.fields(current)
    added = {}
    for g in fields:
        added[g] = np.zeros((1 + len(closed), ev.n_demands))
        added[g][1:] = ev.rows(g, closed)
    return closed, fields, _MoveBlock(ev, fields, added)


def _greedy(ev: _Evaluator) -> tuple[set[str], list[tuple[str, ...]]]:
    """Open the candidate with the least key (shortfall, objective, cid) until feasible.

    Each step screens every closed candidate, then confirms them in order
    of their lower bounds until no unconfirmed key can be below the best.
    """
    open_ids: set[str] = set()
    trace: list[tuple[str, ...]] = []
    feasible = ev.feasible(open_ids)
    while not feasible and len(open_ids) < len(ev.candidate_ids):
        closed, fields, screen = _moves(ev, open_ids)
        objective_lo = screen.objective(fields, len(open_ids) + 1)[1:]
        shortfall_lo = screen.shortfall(fields)[1:]
        best = None
        for t in np.lexsort((objective_lo, shortfall_lo)):
            if best is not None and (shortfall_lo[t] > best[0] or (
                    shortfall_lo[t] == best[0] and objective_lo[t] > best[1])):
                break
            cid = closed[t]
            objective, step_feasible, shortfall = ev.evaluate(open_ids | {cid})
            key = (shortfall, objective, cid)
            if best is None or key < best[:3]:
                best = (*key, step_feasible)
        _, _, best_cid, feasible = best
        open_ids.add(best_cid)
        trace.append(("open", best_cid))
    return open_ids, trace


def greedy_construct(
    scenario: Scenario,
    matrices,
    params: ObjectiveParams,
) -> Layout:
    """Open candidates one at a time, always the one cutting shortfall most.

    Ties fall to the lower objective, then the smaller site id.  Stops as
    soon as the layout is feasible, or with everything open when it never
    becomes feasible.
    """
    open_ids, _ = _greedy(_Evaluator(scenario, matrices, params))
    return Layout(frozenset(open_ids))


def _best_move(ev: _Evaluator, current: set[str], current_obj: float):
    """The improving feasible drop or swap a full scan would take, or None.

    Returns (objective, position in the scan, move, layout after the move).

    A full scan enumerates the drops, then the swaps, each in ascending
    site-id order, and keeps the first move of least objective.  Here all
    moves of one site to close are screened as one block of ``_moves``:
    row 0 drops it, row 1 + q swaps it for the q-th closed candidate.
    """
    outs = sorted(current)
    closed, fields, screen = _moves(ev, current)
    n_open = np.full(1 + len(closed), len(current))
    n_open[0] -= 1
    threshold = current_obj - IMPROVEMENT_TOL
    objective_lo = np.empty((len(outs), 1 + len(closed)))
    maybe_feasible = np.empty(objective_lo.shape, dtype=bool)
    for r, out in enumerate(outs):
        base = {g: field - ev.rows(g, [out])[0] for g, field in fields.items()}
        objective_lo[r] = screen.objective(base, n_open)
        maybe_feasible[r] = screen.maybe_feasible(base)
    rows, cols = np.nonzero(maybe_feasible & ~(objective_lo >= threshold))
    scan_pos = np.where(cols == 0, rows, len(outs) + rows * len(closed) + cols - 1)
    lows = objective_lo[rows, cols]
    best = None
    for t in np.argsort(lows, kind="stable"):
        if best is not None and lows[t] > best[0]:
            break
        out = outs[rows[t]]
        if cols[t] == 0:
            move, trial_set = ("drop", out), current - {out}
        else:
            inn = closed[cols[t] - 1]
            move, trial_set = ("swap", out, inn), (current - {out}) | {inn}
        objective, feasible, _ = ev.evaluate(trial_set)
        if not feasible or objective >= threshold:
            continue
        if best is None or (objective, scan_pos[t]) < best[:2]:
            best = (objective, scan_pos[t], move, trial_set)
    return best


def _local_search(
    ev: _Evaluator, start: set[str], budget: int
) -> tuple[set[str], list[tuple[str, ...]]]:
    current = set(start)
    current_obj, feasible, _ = ev.evaluate(current)
    if not feasible:
        warnings.warn(
            "local search start layout is infeasible; returning it unchanged",
            stacklevel=3,
        )
        return current, []
    trace: list[tuple[str, ...]] = []
    for _ in range(budget):
        best = _best_move(ev, current, current_obj)
        if best is None:
            break
        current_obj, _, move, current = best
        trace.append(move)
    return current, trace


def local_search(
    start: Layout,
    scenario: Scenario,
    matrices,
    params: ObjectiveParams,
    budget: int = DEFAULT_BUDGET,
) -> Layout:
    """Best-improvement drop/swap descent from a feasible start layout.

    Only feasibility-preserving moves that strictly lower the objective are
    taken; moves are enumerated in ascending site-id order so the outcome is
    deterministic.  An infeasible start is returned unchanged with a warning.
    """
    check_budget(budget)
    _check_layout(start, scenario)
    ev = _Evaluator(scenario, matrices, params)
    final, _ = _local_search(ev, set(start.open_candidates), budget)
    return Layout(frozenset(final))


def _resolve_bins(params: ObjectiveParams, bins) -> tuple[tuple[str, float], ...]:
    """The checked coverage bins of a result, resolved before any layout is scored."""
    labels, bounds = _check_bins(default_bins(params.a_sigma) if bins is None else bins)
    return tuple(zip(labels, bounds))


def _assemble_result(
    ev: _Evaluator,
    matrices,
    open_ids,
    trace,
    bin_spec,
) -> OptimizationResult:
    scenario, params = ev.scenario, ev.params
    layout = Layout(frozenset(open_ids))
    shortfalls = ev.shortfalls(layout.open_candidates)
    open_idx = ev.open_indices(layout.open_candidates)
    fields, coverage = {}, {}
    for g in scenario.groups:
        catchment = ev.catchments.get(g.name) or _catchment(scenario, matrices, g.name)
        fields[g.name] = field = catchment.scores(open_idx, params.gamma)
        coverage[g.name] = coverage_report(field, scenario.demands, bin_spec)
    return OptimizationResult(
        layout=layout,
        objective=ev.objective(layout.open_candidates),
        feasible=not shortfalls,
        per_group_fields=fields,
        coverage=coverage,
        shortfalls=shortfalls,
        trace=tuple(trace),
    )


def optimize(
    scenario: Scenario,
    matrices,
    params: ObjectiveParams,
    budget: int = DEFAULT_BUDGET,
    bins=None,
) -> OptimizationResult:
    """Greedy construction plus local search, with full reporting.

    The result carries accessibility fields and coverage reports for every
    scenario group.  When even the full candidate pool cannot reach the
    target everywhere, the all-open layout is returned marked infeasible
    with its shortfall list.
    """
    check_budget(budget)
    bin_spec = _resolve_bins(params, bins)
    ev = _Evaluator(scenario, matrices, params)
    open_ids, trace = _greedy(ev)
    if ev.feasible(open_ids):
        open_ids, ls_trace = _local_search(ev, open_ids, budget)
        trace.extend(ls_trace)
    return _assemble_result(ev, matrices, open_ids, trace, bin_spec)


def _branch_and_bound(ev: _Evaluator, best: tuple, least_shortfall) -> tuple[str, ...]:
    """The least (objective, k, ids) of the layouts that qualify, as the ids.

    A layout qualifies when it is feasible or, when ``least_shortfall`` is
    given, when its total squared shortfall has exactly those bits.
    ``best`` is the key of a layout that qualifies.

    Depth first over the subset tree: a node is a set of picks, and its
    children add one candidate after the last pick, in ``candidate_ids``
    order, so each subset is one node.  Every layout below a child has the
    child's picks and a subset of the later candidates, so its field lies
    between the child's field and the field with all later candidates
    open.  An expanded node screens all of its children in one
    ``_MoveBlock``, two rows a child: its own layout, and the layouts
    below it.  The child layouts that may win are confirmed in one
    ``evaluate_block`` call, and then the subtrees that may still win are
    pushed.
    """
    ids = ev.candidate_ids
    cand_cols = np.array([ev.site_index[c] for c in ids], dtype=np.intp)
    existing = np.array(ev.existing_idx, dtype=np.intp)
    rows = {g: ev.rows(g, ids) for g in ev.catchments}
    # screen row 2j is the child that opens candidate j, row 2j + 1 every
    # layout below it: it may add any candidate after j
    low, high = {}, {}
    for g, r in rows.items():
        low[g] = np.repeat(r, 2, axis=0)
        high[g] = low[g].copy()
        high[g][1::2] = np.cumsum(r[::-1], axis=0)[::-1]
    below = np.arange(2 * len(ids)) % 2

    def qualifies(objective, feasible, shortfall):
        return feasible if least_shortfall is None else shortfall == least_shortfall

    def may_qualify(screen, base):
        if least_shortfall is None:
            return screen.maybe_feasible(base)
        return screen.shortfall(base) <= least_shortfall

    def may_win(bound, k):
        # an exact tie on the objective leaves (k, ids) to decide
        return (bound < best[0]) | ((bound == best[0]) & (k <= best[1]))

    empty = ev.evaluate(())
    if qualifies(*empty):
        best = min(best, (empty[0], 0, ()))
    stack = [((), ev.fields(()), -math.inf)]
    while stack:
        picks, fields, bound = stack.pop()
        start = picks[-1] + 1 if picks else 0
        k = len(picks) + 1
        if start == len(ids) or not may_win(bound, k):
            continue
        screen = _MoveBlock(ev, fields, {g: b[2 * start:] for g, b in low.items()},
                            {g: b[2 * start:] for g, b in high.items()})
        n_open = k + below[2 * start:]
        bounds = screen.objective(fields, n_open)
        maybe = may_qualify(screen, fields)
        js = start + np.flatnonzero(maybe[::2] & may_win(bounds[::2], k))
        if len(js):
            open_idx = np.empty((len(js), len(existing) + k), dtype=np.intp)
            open_idx[:, :len(existing)] = existing
            open_idx[:, len(existing):-1] = cand_cols[list(picks)]
            open_idx[:, -1] = cand_cols[js]
            open_idx.sort(axis=1)
            objective, feasible, shortfall = ev.evaluate_block(open_idx)
            for r in np.flatnonzero(qualifies(objective, feasible, shortfall)
                                    & (objective <= best[0])):
                best = min(best, (float(objective[r]), k,
                                  tuple(ids[i] for i in (*picks, js[r]))))
        # the last candidate has nothing below it
        expand = np.flatnonzero(maybe[1:-1:2] & may_win(bounds[1:-1:2], k + 1))
        for t in expand[::-1]:
            j = start + t
            child = {g: fields[g] + rows[g][j] for g in rows}
            stack.append(((*picks, j), child, bounds[2 * t + 1]))
    return best[2]


def exhaustive_oracle(
    scenario: Scenario,
    matrices,
    params: ObjectiveParams,
    max_pool: int = DEFAULT_MAX_POOL,
    bins=None,
) -> OptimizationResult:
    """Ground truth: the optimum over every candidate subset, certified exactly.

    Returns the minimum-objective feasible layout (ties: fewer sites, then
    lexicographically smallest id set).  If no subset is feasible, returns
    the subset with the smallest total shortfall, marked infeasible (ties:
    smaller objective, fewer sites, then smallest id set).

    The search is a branch and bound over the subset tree, seeded with
    greedy construction and local search.  Every entry of W is >= 0, so a
    subtree's fields lie between those of its least and its fullest
    layout, which ``_MoveBlock`` turns into certain lower bounds on the
    objective and the shortfall, and a certain verdict on subtrees that
    must be infeasible, with slack for rounding.  The objective is also at
    least ``alpha * k`` exactly, since rounding is monotone and the beta
    term is >= 0.  A subtree is pruned only when its bound exceeds the
    incumbent's objective, or equals it with more sites than the
    incumbent, so every exact tie reaches its key comparison.  Layouts are
    scored only by ``_Evaluator.evaluate_block``, so the result has the
    bits of scoring every subset.

    The canonical field is a left-to-right sum of non-negative terms, and
    rounding to nearest is monotone, so opening a site never lowers any
    score, nor raises the shortfall, by a single bit.  Hence some layout is
    feasible iff the all-open one is (greedy construction ends there when
    none is), and the least shortfall is the all-open layout's.  Without a
    feasible layout the search looks for the least (objective, k, ids)
    among the layouts with exactly that shortfall.
    """
    check_max_pool(max_pool)
    bin_spec = _resolve_bins(params, bins)
    pool = len(scenario.candidate_site_ids)
    if pool > max_pool:
        raise CandidatePoolError(
            f"{pool} candidate sites exceed the oracle's cap of {max_pool}"
        )
    ev = _Evaluator(scenario, matrices, params)
    open_ids, _ = _greedy(ev)
    objective, feasible, shortfall = ev.evaluate(open_ids)
    least_shortfall = None
    if feasible:
        open_ids, _ = _local_search(ev, open_ids, DEFAULT_BUDGET)
        objective = ev.objective(open_ids)
    else:
        least_shortfall = shortfall
    incumbent = (objective, len(open_ids), tuple(sorted(open_ids)))
    chosen = _branch_and_bound(ev, incumbent, least_shortfall)
    return _assemble_result(ev, matrices, chosen, (), bin_spec)
