"""Catchment-based accessibility scoring with a truncated Gaussian decay.

The score of a demand point is assembled in two steps.  Each open site first
gets a supply-to-demand ratio: its capacity divided by the decay-weighted
population within its travel-time catchment.  Each demand point then sums
the decay-weighted ratios of the open sites it can reach.  Both steps share
the same kernel

    w(t) = (exp(-(t / t_sigma)^2 / 2) - exp(-1/2)) / (1 - exp(-1/2))

which falls from 1 at t = 0 to exactly 0 at the threshold t_sigma and is 0
beyond it.

One ``_Catchment`` per group computes the site ratios and ``W = weights *
ratios`` once, on the pairs within walking reach alone: a ``SiteMajor``
holding, per site, the demand points it reaches in ascending order and
their values.  No demand x site array is made.  A site's ratio reads only
its own travel times, its weighted demand added one demand point after
another.  A layout's score is ``gamma`` times the sum of its open sites'
rows, added one after another in ascending site order; a pair out of
reach adds +0.0, which changes no sum, so skipping it keeps every bit.
The search reads the catchment of every site; scoring and the
conservation check build one of the open sites alone, which has the same
ratios and rows, so all three agree to the bit.  Any other order, such as
a pairwise sum of a demand point's non-zero entries, would round
differently and change the published scores.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .geodata import (DemandPoint, FacilitySite, Scenario, ValidationError, _check_positive,
                      _Record)
from .routing import SiteMajor, TravelTimeMatrix

_KERNEL_FLOOR = math.exp(-0.5)

DEFAULT_A_SIGMA = 0.135


@dataclass(init=False, repr=False, eq=False)
class DecayParams(_Record):
    """Travel-time threshold (minutes) of the decay kernel."""

    t_sigma_min: float

    def __post_init__(self):
        _check_positive(self.t_sigma_min, "t_sigma_min")


def decay_weights(times_min, t_sigma: float) -> np.ndarray:
    """Kernel weight for each travel time; vectorized over arrays.

    Times beyond ``t_sigma`` (including unreachable ones) weigh 0.  Negative
    finite times are rejected.
    """
    t = np.asarray(times_min, dtype=float)
    if np.any(np.isnan(t)) or np.any(t < 0):
        raise ValidationError("travel times must be >= 0 or unreachable")
    ratio = t / t_sigma
    raw = (np.exp(-0.5 * ratio**2) - _KERNEL_FLOOR) / (1.0 - _KERNEL_FLOOR)
    # the clamp only absorbs sub-ulp excursions right at the threshold
    return np.where(t <= t_sigma, np.maximum(raw, 0.0), 0.0)


def gaussian_decay(t: float, params: DecayParams) -> float:
    """Kernel weight in [0, 1] for a single travel time in minutes."""
    return float(decay_weights(np.array([t], dtype=float), params.t_sigma_min)[0])


@dataclass(init=False, repr=False, eq=False)
class AccessibilityField(_Record):
    """Accessibility score of every demand point for one group."""

    group: str
    scores: Mapping[str, float]
    gamma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "scores", dict(self.scores))
        for demand_id, score in self.scores.items():
            if not (math.isfinite(score) and score >= 0):
                raise ValidationError(f"accessibility score of '{demand_id}' must be "
                                      f"finite and non-negative, got {score!r}")

    def vector(self) -> np.ndarray:
        return np.array(list(self.scores.values()), dtype=float)


class SupplyDemandRatio(NamedTuple):
    ratio: float
    idle: bool


class _Catchment:
    """One group's site ratios and decay-weighted ratios ``W`` (site x demand).

    ``W`` is a ``SiteMajor`` on the matrix's pairs within reach, 0
    elsewhere.  The matrix rows and columns must follow the demand and site
    order.  An idle site, with no weighted demand in reach, gets ratio 0.
    """

    def __init__(self, matrix: TravelTimeMatrix, demands: Sequence[DemandPoint],
                 sites: Sequence[FacilitySite]):
        if tuple(d.demand_id for d in demands) != matrix.demand_order:
            raise ValidationError("demand order does not match the matrix")
        if tuple(s.site_id for s in sites) != matrix.site_order:
            raise ValidationError("site order does not match the matrix")
        self.group = matrix.group.name
        self.demand_ids = matrix.demand_order
        self.pop = np.array([d.pop_of(self.group) for d in demands], dtype=float)
        times = matrix.times
        weights = decay_weights(times.values, matrix.group.t_sigma_min)
        # bincount adds each site's weighted demand one point after another,
        # in ascending order, never pairwise (np.sum would be)
        denom = np.bincount(times.site, weights * self.pop[times.demand],
                            minlength=len(sites))
        supply = np.array([s.capacity for s in sites], dtype=float)
        self.ratios = np.zeros(len(sites))
        np.divide(supply, denom, out=self.ratios, where=denom > 0.0)
        self.W = SiteMajor(times.shape, times.starts, times.demand,
                           weights * self.ratios[times.site], fill=0.0)

    def field(self, open_idx, gamma: float) -> np.ndarray:
        """Score of every demand point under the layout that opens the sites
        ``open_idx``, given in any order: their rows of ``W`` are added one
        after another in ascending site order."""
        is_open = np.zeros(self.W.shape[1], dtype=bool)
        is_open[open_idx] = True
        take = is_open[self.W.site]
        # bincount adds in input order: each point's open sites in ascending
        # order, never pairwise; a skipped entry is +0.0, which changes no sum
        row = np.bincount(self.W.demand[take], self.W.values[take], minlength=self.W.shape[0])
        # a huge gamma may overflow to inf, which every caller refuses
        with np.errstate(over="ignore"):
            return gamma * row


def supply_demand_ratio(
    site: FacilitySite,
    matrix: TravelTimeMatrix,
    demands: Sequence[DemandPoint],
) -> SupplyDemandRatio:
    """Capacity per decay-weighted person within one site's catchment.

    A site with no weighted demand in reach is idle and gets ratio 0 instead
    of a division by zero.
    """
    j = matrix.site_index.get(site.site_id)
    if j is None:
        raise ValidationError(f"matrix does not cover site '{site.site_id}'")
    ratio = float(_Catchment(matrix.select([j]), demands, (site,)).ratios[0])
    return SupplyDemandRatio(ratio, ratio == 0.0)


def supply_demand_ratios(
    matrix: TravelTimeMatrix,
    demands: Sequence[DemandPoint],
    sites: Sequence[FacilitySite],
) -> np.ndarray:
    """Ratio for every site in matrix column order; idle sites get 0."""
    return _Catchment(matrix, demands, sites).ratios


def _open_catchment(scenario: Scenario, matrix: TravelTimeMatrix,
                    open_sites) -> tuple[_Catchment, list[FacilitySite]]:
    """The catchment of the open sites alone, and those sites in its order.

    ``matrix`` may hold any of the scenario's sites, in scenario order, but
    must hold every open one; only the open columns are weighed.
    """
    open_set = set(open_sites)
    position = {sid: j for j, sid in enumerate(scenario.site_ids)}
    unknown = sorted(open_set - position.keys())
    if unknown:
        raise ValidationError(f"unknown site id(s) in open set: {', '.join(unknown)}")
    order = [position.get(sid, -1) for sid in matrix.site_order]
    if any(j <= i for i, j in zip([-1, *order], order)):
        raise ValidationError("matrix site order does not follow the scenario's sites")
    uncovered = sorted(open_set - set(matrix.site_order))
    if uncovered:
        raise ValidationError(f"matrix does not cover open site(s): {', '.join(uncovered)}")
    matrix = matrix.select([j for j, sid in enumerate(matrix.site_order) if sid in open_set])
    sites = [scenario.sites[position[sid]] for sid in matrix.site_order]
    return _Catchment(matrix, scenario.demands, sites), sites


def accessibility_scores(
    scenario: Scenario,
    matrix: TravelTimeMatrix,
    open_sites,
    gamma: float = 1.0,
) -> AccessibilityField:
    """Score each demand point against the currently open sites.

    Per demand point: gamma times the sum, over reachable open sites, of the
    kernel weight times that site's supply-to-demand ratio.  Demand with no
    reachable open site scores 0.  ``matrix`` needs the open sites' columns
    only (see ``_open_catchment``).
    """
    _check_positive(gamma, "gamma")
    catchment, sites = _open_catchment(scenario, matrix, open_sites)
    field = catchment.field(range(len(sites)), gamma).tolist()
    return AccessibilityField(catchment.group, dict(zip(catchment.demand_ids, field)), gamma)


# ---------------------------------------------------------------------------
# Coverage reporting
# ---------------------------------------------------------------------------

@dataclass(init=False, repr=False, eq=False)
class CoverageBin(_Record):
    """The population scoring at or above ``lower_bound``, below the next bin."""

    label: str
    lower_bound: float
    population: int
    share: float


@dataclass(init=False, repr=False, eq=False)
class CoverageReport(_Record):
    """One group's population over the coverage bins, lowest bin first."""

    group: str
    bins: tuple[CoverageBin, ...]

    @property
    def total_population(self) -> int:
        return sum(b.population for b in self.bins)

    def population_at_least(self, lower_bound: float) -> int:
        """Population binned at or above the bin with this lower bound."""
        return sum(b.population for b in self.bins if b.lower_bound >= lower_bound)


def default_bins(a_sigma: float = DEFAULT_A_SIGMA) -> tuple[tuple[str, float], ...]:
    """Five coverage bands anchored on the target accessibility.

    The bands need a finite target above 0: at a_sigma = 0 all five lower
    bounds would coincide.
    """
    if not (a_sigma > 0 and math.isfinite(a_sigma)):
        raise ValidationError(
            f"default coverage bins need a finite a_sigma > 0, got {a_sigma!r}; "
            "set explicit bins"
        )
    return (
        ("very-low", 0.0),
        ("low", 0.5 * a_sigma),
        ("medium", a_sigma),
        ("high", 1.5 * a_sigma),
        ("very-high", 2.0 * a_sigma),
    )


def _check_bins(bins) -> tuple[tuple[str, float], ...]:
    """``bins`` as checked (label, lower bound) pairs."""
    spec = tuple((str(label), float(lower)) for label, lower in bins)
    if not spec:
        raise ValidationError("bin spec must not be empty")
    bounds = tuple(lower for _, lower in spec)
    if not all(map(math.isfinite, bounds)):
        raise ValidationError(f"bin lower bounds must be finite, got {bounds!r}")
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        raise ValidationError("bin lower bounds must be strictly increasing")
    if bounds[0] > 0:
        raise ValidationError(
            "first bin lower bound must be <= 0 so every score falls in a bin"
        )
    return spec


def assign_bin(bounds: Sequence[float], score: float) -> int:
    """Index of the highest bin whose lower bound does not exceed the score."""
    return bisect_right(bounds, score) - 1


def coverage_report(
    field: AccessibilityField,
    demands: Sequence[DemandPoint],
    bins,
) -> CoverageReport:
    """Distribute each demand point's group population over the score bins."""
    spec = _check_bins(bins)
    if set(field.scores) != {d.demand_id for d in demands}:
        raise ValidationError("field scores do not cover exactly these demand points")
    bounds = [lower for _, lower in spec]
    counts = [0] * len(spec)
    for d in demands:
        counts[assign_bin(bounds, field.scores[d.demand_id])] += d.pop_of(field.group)
    total = sum(counts)
    return CoverageReport(
        group=field.group,
        bins=tuple(CoverageBin(label, lower, count, count / total if total else 0.0)
                   for (label, lower), count in zip(spec, counts)),
    )


def conservation_check(
    field: AccessibilityField,
    scenario: Scenario,
    open_sites,
    matrix: TravelTimeMatrix,
) -> float:
    """Relative gap between served population-weighted score and open supply.

    With gamma = 1 the population-weighted sum of scores redistributes
    exactly the capacity of the open non-idle sites, so the result is 0 up
    to rounding.  Defined as 0 when nothing is open (both sums empty).
    ``matrix`` needs the open sites' columns only, as for
    ``accessibility_scores``.
    """
    if field.gamma != 1.0:
        raise ValidationError("conservation identity requires gamma = 1")
    if field.group != matrix.group.name:
        raise ValidationError(f"field of group '{field.group}' is not the matrix's group")
    catchment, sites = _open_catchment(scenario, matrix, open_sites)
    if set(field.scores) != set(catchment.demand_ids):
        raise ValidationError("field scores do not cover exactly the matrix's demand")
    supply = sum(s.capacity for s, ratio in zip(sites, catchment.ratios) if ratio > 0.0)
    if supply <= 0.0:
        return 0.0
    served = float(np.sum(catchment.pop * [field.scores[d] for d in catchment.demand_ids]))
    return abs(served - supply) / supply
