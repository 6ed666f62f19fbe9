"""Facility placement search: which candidate sites to open.

Cost of a layout: ``alpha * k + beta * sum_i |A_i - a_sigma|^2`` where k is
the number of newly opened candidate sites and A_i the primary group's
accessibility score at demand point i, subject to every constrained group
reaching the target ``a_sigma`` everywhere it has population.  The search is
greedy construction (open whichever candidate cuts the remaining shortfall
most) followed by best-improvement drop/swap local search; an exhaustive
subset enumeration doubles as ground truth on small candidate pools.

Each search step screens, then confirms.  The screen costs every move of
the step at once from the current layout's field: the field after a move
is ``F - gamma * W[:, out] + gamma * W[:, in]``, and a rounding-error bound
turns it into a certain lower bound on the move's objective and shortfall,
and a certain verdict on moves that must be infeasible.  Moves that cannot
win are dropped; the rest are evaluated canonically in order of their lower
bound until the next bound exceeds the best confirmed value, and the
winner is chosen by the same keys as a full scan.  The search therefore
takes the same moves as evaluating every layout, with bit-identical
objectives, at the cost of a few canonical evaluations per step.
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
# the oracle scores ~20k layouts a second, so 2**24 of them take ~15 min
MAX_POOL_CEILING = 24
DEFAULT_BUDGET = 1000

_EPS = float(np.finfo(float).eps)
# absorbs the absolute error of operations whose results underflow
_TINY = float(np.finfo(float).tiny)


class CandidatePoolError(RuntimeError):
    """Exhaustive enumeration refused: candidate pool exceeds the cap."""


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


def check_max_pool(max_pool: int) -> None:
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

    The score of demand i under an open set S is the (gamma-scaled) sum of
    row i of the catchment's W over the open columns; W never changes during
    the search.  The catchment sums them densely in ascending site order, as
    ``accessibility_scores`` does, so ``evaluate`` is bit-reproducible: it
    is the canonical value on which every search decision is made.
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

    def open_indices(self, open_candidates) -> list[int]:
        idx = list(self.existing_idx)
        idx.extend(self.site_index[c] for c in open_candidates)
        idx.sort()
        return idx

    def fields(self, open_candidates) -> dict[str, np.ndarray]:
        open_idx = self.open_indices(open_candidates)
        return {g: c.field(open_idx, self.params.gamma)
                for g, c in self.catchments.items()}

    def columns(self, group: str, site_ids) -> np.ndarray:
        """gamma * W for these sites, one column each (D x len(site_ids))."""
        return self.params.gamma * self.catchments[group].W[
            :, [self.site_index[s] for s in site_ids]
        ]

    def evaluate(self, open_candidates) -> tuple[float, bool, float]:
        """(objective, feasible, total squared shortfall) for one layout."""
        p = self.params
        fields = self.fields(open_candidates)
        deviation = np.abs(fields[p.primary_group] - p.a_sigma)
        objective = p.alpha * len(open_candidates) + p.beta * float(
            np.sum(deviation**2)
        )
        feasible = True
        shortfall = 0.0
        for g in p.constraint_groups:
            scores = fields[g][self.pos_mask[g]]
            if np.any(scores < p.a_sigma - FEASIBILITY_TOL):
                feasible = False
            shortfall += float(np.sum(np.maximum(0.0, p.a_sigma - scores) ** 2))
        return objective, feasible, shortfall

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
    """Certain bounds on ``evaluate`` for a block of moves, one per column.

    Every move of the block leaves group g with the screened field
    ``base[g][:, None] + added[g]``: ``added[g]`` is ``gamma * W`` of the
    site each column opens (a zero column opens none), and ``base[g]`` is
    the canonical field F of the current layout, less ``gamma * W`` of the
    site the move closes, if any.

    Every entry of W is >= 0, so a sum of n entries in any order is off by
    at most n unit roundoffs times its value.  A screened field and the
    canonical field of the same layout therefore differ by at most
    ``field_tol * (F + added)`` per row, which is twice the worst case of
    both sides together; the spare half absorbs the rounding of the bounds
    themselves.  The objective and the shortfall are sums of at most D
    squares, so their lower bounds give up the relative slack ``sum_tol``.
    All of this assumes finite inputs, which ObjectiveParams and the
    parsers enforce.
    """

    def __init__(self, ev: _Evaluator, fields, added):
        self.ev = ev
        self.low_added, self.high_added = {}, {}
        for g, block in added.items():
            err = ev.field_tol * (fields[g][:, None] + block) + _TINY
            self.low_added[g] = block - err
            self.high_added[g] = block + err

    def objective(self, base, n_open) -> np.ndarray:
        """Lower bounds on the objective; ``n_open`` is each move's k."""
        p = self.ev.params
        g = p.primary_group
        gap = base[g][:, None] + self.low_added[g]
        gap -= p.a_sigma
        above = p.a_sigma - (base[g][:, None] + self.high_added[g])
        np.maximum(gap, above, out=gap)
        np.maximum(gap, 0.0, out=gap)
        squares = np.einsum("ij,ij->j", gap, gap)
        return (p.alpha * n_open + p.beta * squares) * (1.0 - self.ev.sum_tol) - _TINY

    def shortfall(self, base) -> np.ndarray:
        """Lower bounds on the total squared shortfall."""
        p = self.ev.params
        total = 0.0
        for g in p.constraint_groups:
            below = p.a_sigma - (base[g][:, None] + self.high_added[g])
            np.maximum(below, 0.0, out=below)
            below *= self.ev.pos_mask[g][:, None]
            total = total + np.einsum("ij,ij->j", below, below)
        return total * (1.0 - self.ev.sum_tol) - _TINY

    def maybe_feasible(self, base) -> np.ndarray:
        """False where the layout after the move is certainly infeasible."""
        p = self.ev.params
        floor = p.a_sigma - FEASIBILITY_TOL
        result = True
        for g in p.constraint_groups:
            high = base[g][:, None] + self.high_added[g]
            below = (high < floor) & self.ev.pos_mask[g][:, None]
            result = result & ~below.any(axis=0)
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


def _greedy(ev: _Evaluator) -> tuple[set[str], list[tuple[str, ...]]]:
    """Open the candidate with the least key (shortfall, objective, cid) until feasible.

    Each step screens every closed candidate, then confirms them in order
    of their lower bounds until no unconfirmed key can be below the best.
    """
    open_ids: set[str] = set()
    trace: list[tuple[str, ...]] = []
    remaining = list(ev.candidate_ids)
    feasible = ev.feasible(open_ids)
    while remaining and not feasible:
        fields = ev.fields(open_ids)
        screen = _MoveBlock(ev, fields, {g: ev.columns(g, remaining) for g in fields})
        objective_lo = screen.objective(fields, len(open_ids) + 1)
        shortfall_lo = screen.shortfall(fields)
        best = None
        for t in np.lexsort((objective_lo, shortfall_lo)):
            if best is not None and (shortfall_lo[t] > best[0] or (
                    shortfall_lo[t] == best[0] and objective_lo[t] > best[1])):
                break
            cid = remaining[t]
            objective, step_feasible, shortfall = ev.evaluate(open_ids | {cid})
            key = (shortfall, objective, cid)
            if best is None or key < best[:3]:
                best = (*key, step_feasible)
        _, _, best_cid, feasible = best
        open_ids.add(best_cid)
        remaining.remove(best_cid)
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
    moves of one site to close are screened as one block: column 0 drops
    it, column 1 + q swaps it for the q-th closed candidate.
    """
    outs = sorted(current)
    closed = [c for c in ev.candidate_ids if c not in current]
    fields = ev.fields(current)
    added = {}
    for g in fields:
        added[g] = np.zeros((ev.n_demands, 1 + len(closed)))
        added[g][:, 1:] = ev.columns(g, closed)
    screen = _MoveBlock(ev, fields, added)
    n_open = np.full(1 + len(closed), len(current))
    n_open[0] -= 1
    threshold = current_obj - IMPROVEMENT_TOL
    objective_lo = np.empty((len(outs), 1 + len(closed)))
    maybe_feasible = np.empty(objective_lo.shape, dtype=bool)
    for r, out in enumerate(outs):
        base = {g: field - ev.columns(g, [out])[:, 0] for g, field in fields.items()}
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
    _check_layout(start, scenario)
    ev = _Evaluator(scenario, matrices, params)
    final, _ = _local_search(ev, set(start.open_candidates), budget)
    return Layout(frozenset(final))


def _assemble_result(
    ev: _Evaluator,
    matrices,
    open_ids,
    trace,
    bins=None,
) -> OptimizationResult:
    scenario, params = ev.scenario, ev.params
    layout = Layout(frozenset(open_ids))
    shortfalls = ev.shortfalls(layout.open_candidates)
    open_idx = ev.open_indices(layout.open_candidates)
    bin_spec = default_bins(params.a_sigma) if bins is None else bins
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
    ev = _Evaluator(scenario, matrices, params)
    open_ids, trace = _greedy(ev)
    if ev.feasible(open_ids):
        open_ids, ls_trace = _local_search(ev, open_ids, budget)
        trace.extend(ls_trace)
    return _assemble_result(ev, matrices, open_ids, trace, bins)


def exhaustive_oracle(
    scenario: Scenario,
    matrices,
    params: ObjectiveParams,
    max_pool: int = DEFAULT_MAX_POOL,
    bins=None,
) -> OptimizationResult:
    """Ground truth by enumerating every candidate subset.

    Returns the minimum-objective feasible layout (ties: fewer sites, then
    lexicographically smallest id set).  If no subset is feasible, returns
    the subset with the smallest total shortfall, marked infeasible.
    """
    check_max_pool(max_pool)
    ev = _Evaluator(scenario, matrices, params)
    pool = len(ev.candidate_ids)
    if pool > max_pool:
        raise CandidatePoolError(
            f"{pool} candidate sites exceed the enumeration cap of {max_pool}"
        )
    best_feasible = None
    best_any = None
    for mask in range(1 << pool):
        subset = tuple(
            cid for b, cid in enumerate(ev.candidate_ids) if (mask >> b) & 1
        )
        objective, feasible, shortfall = ev.evaluate(subset)
        if feasible:
            key = (objective, len(subset), subset)
            if best_feasible is None or key < best_feasible:
                best_feasible = key
        key_any = (shortfall, objective, len(subset), subset)
        if best_any is None or key_any < best_any:
            best_any = key_any
    chosen = best_feasible[2] if best_feasible is not None else best_any[3]
    return _assemble_result(ev, matrices, chosen, (), bins)
