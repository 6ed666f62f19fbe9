"""Facility placement search: which candidate sites to open.

Cost of a layout: ``alpha * k + beta * sum_i |A_i - a_sigma|^2`` where k is
the number of newly opened candidate sites and A_i the primary group's
accessibility score at demand point i, subject to every constrained group
reaching the target ``a_sigma`` everywhere it has population.  The search is
greedy construction (open whichever candidate cuts the remaining shortfall
most) followed by best-improvement drop/swap local search; an exact branch
and bound over candidate subsets doubles as ground truth on pools of up to
``MAX_POOL_CEILING`` candidates.

Every search decision is made on canonical evaluations, so the search takes
the moves of a full scan with bit-identical objectives, yet evaluates few
layouts.  Greedy, local search and the oracle bound their moves from below
(``_open_bounds``; ``_drop_swap_bounds``, after Whitaker 1983 and Resende
and Werneck 2007; ``_MoveBlock``) and evaluate them in ascending order of
those bounds until none can win.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple

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
from .geodata import Scenario, ValidationError, _Record
from .limits import (  # noqa: F401  (MAX_POOL_CEILING is read from here)
    DEFAULT_BUDGET,
    DEFAULT_MAX_POOL,
    MAX_POOL_CEILING,
    CandidatePoolError,
    check_budget,
    check_max_pool,
)
from .routing import SiteMajor

FEASIBILITY_TOL = 1e-9
IMPROVEMENT_TOL = 1e-12

_EPS = float(np.finfo(float).eps)
# absorbs the absolute error of operations whose results underflow
_TINY = float(np.finfo(float).tiny)
# pairs of entries that _Evaluator.gram holds at once
_GRAM_BLOCK = 4096


@dataclass(init=False, repr=False, eq=False)
class ObjectiveParams(_Record):
    """The objective ``alpha * k + beta * sum((A_i - a_sigma)**2)`` over the
    primary group's scores, and the groups that must reach ``a_sigma``."""

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


@dataclass(init=False, repr=False, eq=False)
class Layout(_Record):
    """The chosen set of candidate sites to open; existing sites are always open."""

    open_candidates: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "open_candidates", frozenset(self.open_candidates))

    @property
    def k(self) -> int:
        return len(self.open_candidates)

    def sorted_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.open_candidates))


@dataclass(init=False, repr=False, eq=False)
class Shortfall(_Record):
    """A demand point of a constraint group that scores below ``a_sigma``."""

    demand_id: str
    group: str
    score: float


@dataclass(init=False, repr=False, eq=False)
class OptimizationResult(_Record):
    """A layout with its objective, scores, coverage, shortfalls and search trace."""

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


def _check_layout(layout: Layout, scenario: Scenario) -> None:
    bad = sorted(layout.open_candidates - set(scenario.candidate_site_ids))
    if bad:
        raise ValidationError(f"layout members must be candidate sites of the scenario: "
                              f"{', '.join(bad)}")


class _Scored(NamedTuple):
    """A layout as ``_Evaluator.evaluate`` scored it."""

    objective: float
    feasible: bool
    shortfall: float
    fields: dict[str, np.ndarray]
    open_ids: frozenset[str]


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
    the one way greedy, local search and the oracle score a layout.
    ``evaluate`` returns a ``_Scored`` record: the objective, feasibility and
    total squared shortfall, each group's canonical field and the open
    candidate ids, which the search carries from step to step.
    ``_MoveBlock``, ``_drop_swap_bounds`` and ``_open_bounds`` bound it from
    fields or sums that are not canonical, through one rounding model.

    Every entry of W is >= 0, so a sum of n entries in any order is off by
    at most n unit roundoffs times its value (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, §4.2).  Two sums of one
    field of at most S rows, in any orders, gamma applied to the sum or to
    each term, thus differ per demand point by at most ``field_err(F)``,
    where F bounds the field: ``field_tol * F`` is twice the worst case of
    both together, the spare half absorbing the rounding of the bound
    itself and up to S further roundoffs of the sums it carries, and
    ``_TINY`` the absolute error of results that underflow.  The objective
    and the shortfall are sums of at most D squares and a term per group,
    so each order is within ``sum_tol / 4`` of the exact sum, relative to
    it, and ``sum_floor`` of one order's sum, which gives up ``sum_tol``
    and ``_TINY``, is below every order's.  As rounding is monotone, such
    a sum is also at least its ``least`` term exactly.  A score below
    ``floor`` is short.  All of this assumes finite inputs, which
    ObjectiveParams and the parsers enforce.
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
        self.existing_idx = [j for j, s in enumerate(scenario.sites) if s.existing]
        self.candidate_ids = tuple(sorted(scenario.candidate_site_ids))
        self.n_demands = len(scenario.demands)
        self.field_tol = (2 * len(scenario.sites) + 16) * _EPS
        self.sum_tol = 2 * (self.n_demands + len(self.catchments) + 16) * _EPS
        self.floor = params.a_sigma - FEASIBILITY_TOL
        # each populated point of a constraint group adds at most a_sigma^2
        points = sum(int(np.count_nonzero(self.pos_mask[g]))
                     for g in params.constraint_groups)
        if not math.isfinite(params.a_sigma * params.a_sigma * points):
            raise ValidationError(
                f"the shortfall can overflow: a_sigma^2 * {points} populated points "
                f"of the constraint groups is not finite (a_sigma {params.a_sigma:g})")
        # fields only grow as sites open, so this bounds every layout's objective
        top = self.fields(self.candidate_ids)[params.primary_group] - params.a_sigma
        with np.errstate(over="ignore", invalid="ignore"):
            bound = params.alpha * len(self.candidate_ids) + params.beta * np.sum(
                np.maximum(params.a_sigma, top) ** 2)
        if not math.isfinite(bound):
            raise ValidationError(
                f"the objective can overflow: alpha * {len(self.candidate_ids)} + "
                "beta * (squared deviations with every site open) is not finite "
                f"(alpha {params.alpha:g}, beta {params.beta:g}, gamma {params.gamma:g})")

    def field_err(self, F):
        """The most that rounding moves a field whose value is at most F."""
        return self.field_tol * F + _TINY

    def sum_floor(self, total, least=-math.inf):
        """A certain floor, not below ``least``, under a canonical sum of
        squares that some order of summation gives as ``total``."""
        return np.fmax(total * (1.0 - self.sum_tol) - _TINY, least)

    def fields(self, open_candidates) -> dict[str, np.ndarray]:
        idx = [*self.existing_idx, *(self.site_index[c] for c in open_candidates)]
        return {g: c.field(idx, self.params.gamma) for g, c in self.catchments.items()}

    @cached_property
    def by_demand(self) -> dict[str, SiteMajor]:
        """Per group, the candidates' gamma * W stored one demand point at a
        time: its ``demand`` holds positions in ``candidate_ids``, and
        ``np.asarray`` gives one dense row per candidate."""
        cols = [self.site_index[c] for c in self.candidate_ids]
        out = {}
        for g, c in self.catchments.items():
            out[g] = t = c.W.select(cols).T
            t.values = self.params.gamma * t.values
        return out

    @cached_property
    def gram(self) -> np.ndarray:
        """Products of the primary group's rows for every pair of candidates,
        summed over the points both reach, _GRAM_BLOCK pairs or so at a time,
        in the order of one bincount of all pairs (np.add.at keeps it)."""
        t, n = self.by_demand[self.params.primary_group], len(self.candidate_ids)
        gram, reach = np.zeros(n * n), np.diff(t.starts)[t.site]
        # each entry's block: the pairs before it, over _GRAM_BLOCK
        cuts = list(np.flatnonzero(np.diff((np.cumsum(reach) - reach) // _GRAM_BLOCK)) + 1)
        for lo, hi in zip([0, *cuts], [*cuts, len(reach)]):
            second, first = t.entries(t.site[lo:hi])
            np.add.at(gram, t.demand[first + lo] * n + t.demand[second],
                      t.values[first + lo] * t.values[second])
        return gram.reshape(n, n)

    @cached_property
    def peaks(self) -> dict[str, np.ndarray]:
        """Per group, each demand point's largest entry of ``by_demand``."""
        out = {g: np.zeros(self.n_demands) for g in self.by_demand}
        for g, t in self.by_demand.items():
            np.maximum.at(out[g], t.site, t.values)
        return out

    def evaluate(self, open_candidates) -> _Scored:
        """One layout, scored."""
        p, open_ids = self.params, frozenset(open_candidates)
        fields = self.fields(open_ids)
        deviation = np.abs(fields[p.primary_group] - p.a_sigma)
        objective = p.alpha * len(open_ids) + p.beta * np.sum(deviation**2)
        feasible, shortfall = True, 0.0
        for g in p.constraint_groups:
            scores = fields[g][self.pos_mask[g]]
            feasible = feasible and not np.any(scores < self.floor)
            shortfall = shortfall + np.sum(np.maximum(0.0, p.a_sigma - scores) ** 2)
        return _Scored(float(objective), feasible, float(shortfall), fields, open_ids)

    @cached_property
    def empty(self) -> _Scored:
        """The layout that opens no candidate, where greedy and the oracle start."""
        return self.evaluate(())

    def shortfalls(self, scored: _Scored) -> tuple[Shortfall, ...]:
        p, fields = self.params, scored.fields
        ids = self.scenario.demand_ids
        return tuple(
            Shortfall(ids[i], g, float(fields[g][i]))
            for g in p.constraint_groups
            for i in np.flatnonzero(self.pos_mask[g] & (fields[g] < self.floor))
        )


class _MoveBlock:
    """Certain bounds on ``evaluate`` for the oracle's rows of layouts.

    Row q stands for every layout whose field for group g lies between
    ``fields[g] + added[q]`` and ``fields[g] + added_high[g][q]``: a node's
    fields, summed row by row, plus the row of ``gamma * W`` of the child
    it opens (of the primary group, the only lower field read) and the
    sum of the rows that the child's subtree may add.  Each field is
    widened by ``field_err(F + added_high)``, and each sum of squares
    floored by ``sum_floor``; the objective is at least ``alpha * k``.
    """

    def __init__(self, ev: _Evaluator, fields, added, added_high):
        self.ev = ev
        self.high = {}
        for g, high in added_high.items():
            err = ev.field_err(fields[g] + high)
            self.high[g] = fields[g] + (high + err)
            if g == ev.params.primary_group:
                self.low = fields[g] + (added - err)

    def objective(self, n_open) -> np.ndarray:
        """Lower bounds on the objective; ``n_open`` is each row's k."""
        p = self.ev.params
        gap = self.low - p.a_sigma
        above = p.a_sigma - self.high[p.primary_group]
        np.maximum(gap, above, out=gap)
        np.maximum(gap, 0.0, out=gap)
        squares = np.einsum("ij,ij->i", gap, gap)
        least = p.alpha * n_open
        return self.ev.sum_floor(least + p.beta * squares, least)

    def shortfall(self) -> np.ndarray:
        """Lower bounds on the total squared shortfall."""
        p = self.ev.params
        total = 0.0
        for g in p.constraint_groups:
            below = p.a_sigma - self.high[g]
            np.maximum(below, 0.0, out=below)
            below *= self.ev.pos_mask[g]
            total = total + np.einsum("ij,ij->i", below, below)
        return self.ev.sum_floor(total)

    def maybe_feasible(self) -> np.ndarray:
        """False where every layout of the row is certainly infeasible."""
        result = True
        for g in self.ev.params.constraint_groups:
            below = (self.high[g] < self.ev.floor) & self.ev.pos_mask[g]
            result = result & ~below.any(axis=1)
        return result


def objective_value(layout: Layout, scenario: Scenario, matrices,
                    params: ObjectiveParams) -> float:
    """Cost of a layout: facility count plus squared deviations from target."""
    _check_layout(layout, scenario)
    return _Evaluator(scenario, matrices, params).evaluate(layout.open_candidates).objective


def is_feasible(layout: Layout, scenario: Scenario, matrices,
                params: ObjectiveParams) -> tuple[bool, tuple[Shortfall, ...]]:
    """Whether every constrained group reaches the target everywhere it lives."""
    _check_layout(layout, scenario)
    ev = _Evaluator(scenario, matrices, params)
    shortfalls = ev.shortfalls(ev.evaluate(layout.open_candidates))
    return (not shortfalls), shortfalls


def _open_bounds(ev: _Evaluator, current: _Scored) -> np.ndarray:
    """Certain lower bounds on the canonical shortfall s(A + c), one a candidate.

    A is the scored layout ``current``; open candidates' bounds mean
    nothing.  Where c adds nothing, A + c has the field F of A bit for bit.
    Where it adds v, its field is at most hi = (F + v) + field_err(F + v).
    As h = max(0, a_sigma - field)^2 does not rise with the field, s(A + c)
    is s(A) less at most the cut, the sum of h(F) - h(hi) where c adds, but
    for rounding: each of the three sums is within sum_tol / 4 of its exact
    value, and none is above s(A) by more, so sum_tol * s(A) covers them,
    the differences and the bound.  Below the normal range all is exact.
    """
    p, shortfall = ev.params, current.shortfall
    cut = np.zeros(len(ev.candidate_ids))
    for g in p.constraint_groups:
        F, t = current.fields[g], ev.by_demand[g]
        h = np.maximum(0.0, p.a_sigma - F) ** 2
        take = (ev.pos_mask[g] & (h > 0.0))[t.site]
        points = t.site[take]
        high = F[points] + t.values[take]
        high += ev.field_err(high)
        cut += np.bincount(t.demand[take], h[points] - np.maximum(0.0, p.a_sigma - high) ** 2,
                           minlength=len(cut))
    return shortfall - cut - ev.sum_tol * shortfall


def _greedy(ev: _Evaluator) -> tuple[_Scored, list[tuple[str, ...]]]:
    """Open the candidate with the least key (shortfall, objective, cid) until feasible.

    Returns the scored layout it ends at and its trace.  A step evaluates
    closed candidates in ascending order of ``_open_bounds``, ties by id, up
    to the first bound strictly above the best confirmed shortfall.
    """
    current = ev.empty
    trace: list[tuple[str, ...]] = []
    is_open = np.zeros(len(ev.candidate_ids), dtype=bool)
    while not current.feasible and not is_open.all():
        bounds = _open_bounds(ev, current)
        bounds[is_open] = math.inf
        best = None
        for j in np.argsort(bounds, kind="stable"):
            if best is not None and bounds[j] > best[0][0]:
                break
            cid = ev.candidate_ids[j]
            trial = ev.evaluate(current.open_ids | {cid})
            key = (trial.shortfall, trial.objective, cid)
            if best is None or key < best[0]:
                best = (key, j, trial)
        (_, _, cid), j, current = best
        is_open[j] = True
        trace.append(("open", cid))
    return current, trace


def greedy_construct(scenario: Scenario, matrices, params: ObjectiveParams) -> Layout:
    """Open candidates one at a time, always the one cutting shortfall most.

    Ties fall to the lower objective, then the smaller site id.  Stops as
    soon as the layout is feasible, or with everything open when it never
    becomes feasible.
    """
    return Layout(_greedy(_Evaluator(scenario, matrices, params))[0].open_ids)


def _drop_swap_bounds(ev: _Evaluator, current: _Scored):
    """Certain bounds on ``evaluate`` for the drops and swaps from ``current``
    that may be feasible: (outs, closed, rows, cols, objective lower bounds).

    Move i closes ``outs[rows[i]]`` and opens ``closed[cols[i] - 1]``, or
    nothing where ``cols[i]`` is 0, row by row.  A point that closing ``out``
    alone leaves certainly short must be lifted by n, the row opened, raised
    by its field bound; so a row keeps every move if it has no such point,
    else the swaps that lift them all, and a move left out is certainly
    infeasible.  Points short in ``current`` are not checked: local search
    starts feasible, and a check left out only keeps a move.  A move kept,
    with x = F - a_sigma for the canonical primary field F and o and n the
    rows it closes and opens (n = 0 for a drop), has the squared deviation
    (x - o + n)^2 = x.x + (o.o - 2 o.x) + (n.n + 2 n.x) - 2 o.n, o.n from
    ``gram``.  In any order, each dot product is off by at most D unit
    roundoffs times its magnitude, and the magnitudes sum to (|x| + o + n)^2;
    ``sum_tol`` covers that four times over, and the rounding of x and of
    the bound.  The canonical field after the move is within ``field_tol *
    (F + n)`` of F - o + n, which lowers each square by at most twice that
    times |x| + o + n.
    """
    p, fields = ev.params, current.fields
    outs = sorted(current.open_ids)
    is_open = np.array([c in current.open_ids for c in ev.candidate_ids], dtype=bool)
    opened, shut = np.flatnonzero(is_open), np.flatnonzero(~is_open)
    closed = [ev.candidate_ids[j] for j in shut]
    n_cand, n_outs, width = len(is_open), len(outs), 1 + len(shut)
    row_of, col_of = np.cumsum(is_open) - 1, np.cumsum(~is_open)
    deficits, keys = np.zeros(n_outs, dtype=np.intp), []
    for g in p.constraint_groups:
        F, pos, t = fields[g], ev.pos_mask[g], ev.by_demand[g]
        # (row, point, F - o) for the points of each closing row; with n = 0
        # the field bound is field_err(F).  F - o rounds no lower for a lower
        # o, so only the points that their largest entry may leave short count
        err = ev.field_err(F)
        at, _ = t.entries(np.flatnonzero(((F - ev.peaks[g]) + err < ev.floor) & pos))
        at = at[is_open[t.demand[at]]]
        rows, points = row_of[t.demand[at]], t.site[at]
        base = F[points] - t.values[at]
        deficit = base + err[points] < ev.floor
        rows, points, base = rows[deficit], points[deficit], base[deficit]
        deficits += np.bincount(rows, minlength=n_outs)
        # each deficit against every closed candidate that reaches its point
        at, which = t.entries(points)
        n = t.values[at]
        raised = n + ev.field_err(F[points[which]] + n)
        lifts = ~(base[which] + raised < ev.floor) & ~is_open[t.demand[at]]
        keys.append(rows[which[lifts]] * width + col_of[t.demand[at[lifts]]])
    # each move of a row without deficits once, each swap once a lift: keep
    # the moves listed max(1, deficits) times
    free = np.flatnonzero(deficits == 0)
    cells = np.concatenate(((free[:, None] * width + np.arange(width)).ravel(), *keys))
    # stable: the same sorted values, without paging in the default sort's
    # vectorised kernels, which raise the peak RSS of a search
    cells = np.sort(cells, kind="stable")
    first = np.flatnonzero(np.diff(cells, prepend=-1))
    count = np.diff(np.append(first, len(cells)))
    cells = cells[first]
    rows = cells // width
    keep = count == np.maximum(deficits, 1)[rows]
    rows, cols = rows[keep], (cells - rows * width)[keep]

    t, F = ev.by_demand[p.primary_group], fields[p.primary_group]
    x = F - p.a_sigma
    ax = np.abs(x)
    xx, axF = np.einsum("i,i->", x, x), np.einsum("i,i->", ax, F)
    # -1 stands for a drop's n: its sums are 0, and its column of gram unused;
    # the diagonal of gram holds each row's o.o, summed as a bincount would
    sums = [np.append(np.diagonal(ev.gram), 0.0)]
    sums += (np.bincount(t.demand, t.values * w, minlength=n_cand + 1)
             for w in (x[t.site], ax[t.site], F[t.site]))
    out, inn = opened[rows], np.append(-1, shut)[cols]
    oo, ox, oax, oF = (v[out] for v in sums)
    nn, nx, nax, nF = (v[inn] for v in sums)
    on = np.where(cols > 0, ev.gram[out, inn], 0.0)
    squares = (xx + oo - 2 * ox) + (nn + 2 * nx) - 2 * on
    norm = (xx + oo + 2 * oax) + (nn + 2 * nax) + 2 * on
    field_err = (axF + oF) + (nF + nn + nax) + on
    slack = ev.sum_tol * norm + 2 * ev.field_tol * field_err
    least = p.alpha * (n_outs - (cols == 0))
    # where a sum overflowed (inf - inf) only alpha * k remains
    return outs, closed, rows, cols, ev.sum_floor(least + p.beta * (squares - slack), least)


def _best_move(ev: _Evaluator, current: _Scored):
    """The improving feasible drop or swap a full scan would take, or None.

    Returns (objective, position in the scan, move, scored layout after it).

    A full scan enumerates the drops, then the swaps, each in ascending
    site-id order, and keeps the first move of least objective.  Here
    ``_drop_swap_bounds`` screens every move of the step at once.
    """
    outs, closed, rows, cols, objective_lo = _drop_swap_bounds(ev, current)
    threshold = current.objective - IMPROVEMENT_TOL
    keep = ~(objective_lo >= threshold)
    rows, cols, lows = rows[keep], cols[keep], objective_lo[keep]
    scan_pos = np.where(cols == 0, rows, len(outs) + rows * len(closed) + cols - 1)
    best = None
    for t in np.argsort(lows, kind="stable"):
        if best is not None and lows[t] > best[0]:
            break
        out = outs[rows[t]]
        stay = current.open_ids - {out}
        if cols[t] == 0:
            move, trial = ("drop", out), ev.evaluate(stay)
        else:
            inn = closed[cols[t] - 1]
            move, trial = ("swap", out, inn), ev.evaluate(stay | {inn})
        if not trial.feasible or trial.objective >= threshold:
            continue
        if best is None or (trial.objective, scan_pos[t]) < best[:2]:
            best = (trial.objective, scan_pos[t], move, trial)
    return best


def _local_search(ev: _Evaluator, current: _Scored,
                  budget: int) -> tuple[_Scored, list[tuple[str, ...]]]:
    if not current.feasible:
        warnings.warn("local search start layout is infeasible; returning it unchanged",
                      stacklevel=3)
        return current, []
    trace: list[tuple[str, ...]] = []
    for _ in range(budget):
        best = _best_move(ev, current)
        if best is None:
            break
        _, _, move, current = best
        trace.append(move)
    return current, trace


def local_search(start: Layout, scenario: Scenario, matrices, params: ObjectiveParams,
                 budget: int = DEFAULT_BUDGET) -> Layout:
    """Best-improvement drop/swap descent from a feasible start layout.

    Only feasibility-preserving moves that strictly lower the objective are
    taken; moves are enumerated in ascending site-id order so the outcome is
    deterministic.  An infeasible start is returned unchanged with a warning.
    """
    check_budget(budget)
    _check_layout(start, scenario)
    ev = _Evaluator(scenario, matrices, params)
    final, _ = _local_search(ev, ev.evaluate(start.open_candidates), budget)
    return Layout(final.open_ids)


def _search(ev: _Evaluator, budget: int) -> tuple[_Scored, list[tuple[str, ...]]]:
    """Greedy construction, then local search when the greedy layout is feasible."""
    current, trace = _greedy(ev)
    if current.feasible:
        current, moves = _local_search(ev, current, budget)
        trace.extend(moves)
    return current, trace


def _assemble_result(ev: _Evaluator, matrices, scored: _Scored, trace,
                     bin_spec) -> OptimizationResult:
    scenario, params = ev.scenario, ev.params
    fields, coverage = {}, {}
    for g in scenario.groups:
        # the evaluator scored its own groups; only the others need a catchment
        row = scored.fields.get(g.name)
        if row is None:
            idx = [*ev.existing_idx, *(ev.site_index[c] for c in scored.open_ids)]
            row = _catchment(scenario, matrices, g.name).field(idx, params.gamma)
        fields[g.name] = field = AccessibilityField(
            g.name, dict(zip(scenario.demand_ids, row.tolist())), params.gamma)
        coverage[g.name] = coverage_report(field, scenario.demands, bin_spec)
    return OptimizationResult(layout=Layout(scored.open_ids), objective=scored.objective,
                              feasible=scored.feasible, per_group_fields=fields,
                              coverage=coverage, shortfalls=ev.shortfalls(scored),
                              trace=tuple(trace))


def optimize(scenario: Scenario, matrices, params: ObjectiveParams,
             budget: int = DEFAULT_BUDGET, bins=None) -> OptimizationResult:
    """Greedy construction plus local search, with full reporting.

    The result carries accessibility fields and coverage reports for every
    scenario group.  When even the full candidate pool cannot reach the
    target everywhere, the all-open layout is returned marked infeasible
    with its shortfall list.
    """
    check_budget(budget)
    bin_spec = _check_bins(default_bins(params.a_sigma) if bins is None else bins)
    ev = _Evaluator(scenario, matrices, params)
    scored, trace = _search(ev, budget)
    return _assemble_result(ev, matrices, scored, trace, bin_spec)


def _branch_and_bound(ev: _Evaluator, incumbent: _Scored) -> _Scored:
    """The layout of least (objective, k, ids) among those that qualify, scored.

    A layout qualifies when it is feasible or, when the scored layout
    ``incumbent`` is not, when its total squared shortfall has exactly the
    incumbent's bits, the least of all.

    Depth first over the subset tree: a node is a set of picks, and its
    children add one candidate after the last pick, in ``candidate_ids``
    order, so each subset is one node.  Every layout below a child has the
    child's picks and a subset of the later candidates, so its field lies
    between the child's field and the field with all later candidates
    open.  An expanded node screens all of its children in one
    ``_MoveBlock``, two rows a child: its own layout, and the layouts
    below it.  Each child layout that may win is confirmed by ``evaluate``,
    and then the subtrees that may still win are pushed.
    """
    ids = ev.candidate_ids
    rows = {g: np.asarray(t) for g, t in ev.by_demand.items()}
    # screen row 2j is the child that opens candidate j, row 2j + 1 every
    # layout below it: it may add any candidate after j
    high = {}
    for g, r in rows.items():
        high[g] = np.repeat(r, 2, axis=0)
        high[g][1::2] = np.cumsum(r[::-1], axis=0)[::-1]
    low = np.repeat(rows[ev.params.primary_group], 2, axis=0)
    below = np.arange(2 * len(ids)) % 2
    least_shortfall = None if incumbent.feasible else incumbent.shortfall

    def qualifies(scored):
        return scored.feasible if least_shortfall is None else scored.shortfall == least_shortfall

    def may_qualify(screen):
        if least_shortfall is None:
            return screen.maybe_feasible()
        return screen.shortfall() <= least_shortfall

    def may_win(bound, k):
        # an exact tie on the objective leaves (k, ids) to decide
        return (bound < best.objective) | ((bound == best.objective)
                                           & (k <= len(best.open_ids)))

    def key(scored):
        return scored.objective, len(scored.open_ids), tuple(sorted(scored.open_ids))

    empty = ev.empty
    best = empty if qualifies(empty) and key(empty) < key(incumbent) else incumbent
    stack = [((), empty.fields, -math.inf)]
    while stack:
        picks, fields, bound = stack.pop()
        start = picks[-1] + 1 if picks else 0
        k = len(picks) + 1
        if start == len(ids) or not may_win(bound, k):
            continue
        screen = _MoveBlock(ev, fields, low[2 * start:],
                            {g: b[2 * start:] for g, b in high.items()})
        bounds = screen.objective(k + below[2 * start:])
        maybe = may_qualify(screen)
        for j in start + np.flatnonzero(maybe[::2] & may_win(bounds[::2], k)):
            trial = ev.evaluate([ids[i] for i in (*picks, j)])
            if qualifies(trial) and key(trial) < key(best):
                best = trial
        # the last candidate has nothing below it
        expand = np.flatnonzero(maybe[1:-1:2] & may_win(bounds[1:-1:2], k + 1))
        for t in expand[::-1]:
            j = start + t
            child = {g: fields[g] + rows[g][j] for g in rows}
            stack.append(((*picks, j), child, bounds[2 * t + 1]))
    return best


def exhaustive_oracle(scenario: Scenario, matrices, params: ObjectiveParams,
                      max_pool: int = DEFAULT_MAX_POOL, bins=None) -> OptimizationResult:
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
    must be infeasible.  A subtree is pruned only when its bound exceeds the
    incumbent's objective, or equals it with more sites than the
    incumbent, so every exact tie reaches its key comparison.  Layouts are
    scored only by ``_Evaluator.evaluate``, so the result has the bits of
    scoring every subset, and the winner is scored once.

    The canonical field is a left-to-right sum of non-negative terms, and
    rounding to nearest is monotone, so opening a site never lowers any
    score, nor raises the shortfall, by a single bit.  Hence some layout is
    feasible iff the all-open one is (greedy construction ends there when
    none is), and the least shortfall is the all-open layout's.  Without a
    feasible layout the search looks for the least (objective, k, ids)
    among the layouts with exactly that shortfall.
    """
    check_max_pool(max_pool)
    bin_spec = _check_bins(default_bins(params.a_sigma) if bins is None else bins)
    pool = len(scenario.candidate_site_ids)
    if pool > max_pool:
        raise CandidatePoolError(f"{pool} candidate sites exceed the oracle's cap of {max_pool}")
    ev = _Evaluator(scenario, matrices, params)
    chosen = _branch_and_bound(ev, _search(ev, DEFAULT_BUDGET)[0])
    return _assemble_result(ev, matrices, chosen, (), bin_spec)
