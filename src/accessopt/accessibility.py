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
ratios`` once, stored site-major: one row of demand values per site.  A
layout's score is ``gamma`` times the sum of its open sites' rows, added one
after another in ascending site order.  Scoring, the conservation check and
the search all read it, so they agree to the bit.  Any other order, such as
a pairwise sum of a demand point's non-zero entries, would round
differently and change the published scores.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .geodata import DemandPoint, FacilitySite, Scenario, ValidationError
from .routing import TravelTimeMatrix

_KERNEL_FLOOR = math.exp(-0.5)

DEFAULT_A_SIGMA = 0.135


@dataclass(frozen=True)
class DecayParams:
    """Travel-time threshold (minutes) of the decay kernel."""

    t_sigma_min: float

    def __post_init__(self):
        if not self.t_sigma_min > 0:
            raise ValidationError(f"t_sigma_min must be > 0, got {self.t_sigma_min!r}")


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


@dataclass(frozen=True)
class AccessibilityField:
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

    The matrix rows and columns must follow the demand and site order.  An
    idle site, with no weighted demand in reach, gets ratio 0.
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
        weights = decay_weights(matrix.times_min, matrix.group.t_sigma_min)
        denom = (weights * self.pop[:, None]).sum(axis=0)
        supply = np.array([s.capacity for s in sites], dtype=float)
        self.ratios = np.zeros_like(denom)
        np.divide(supply, denom, out=self.ratios, where=denom > 0.0)
        self.W = np.multiply(weights.T, self.ratios[:, None], order="C")

    def field(self, open_idx: np.ndarray, gamma: float) -> np.ndarray:
        """Score of every demand point under each of a block of layouts.

        ``open_idx`` is a (B, k) integer array, one layout's ascending site
        indices a row; the result is (B, demand), one layout a row.  Each
        layout's k rows of ``W`` are added one after another in ascending
        site order, so a layout has the same bits in any block.
        """
        out = np.zeros((len(open_idx), self.W.shape[1]))
        for row, idx in zip(out, open_idx):
            # along the slow axis numpy adds whole rows in order, never pairwise
            np.add.reduce(self.W[idx], axis=0, out=row)
        return gamma * out

    def scores(self, open_idx: np.ndarray, gamma: float) -> AccessibilityField:
        """The field of the one layout of a (1, k) ``open_idx``, by demand id."""
        field = self.field(open_idx, gamma)[0].tolist()
        return AccessibilityField(self.group, dict(zip(self.demand_ids, field)), gamma)


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
    column = TravelTimeMatrix(matrix.group, matrix.times_min[:, [j]],
                              matrix.demand_order, (site.site_id,))
    ratio = float(_Catchment(column, demands, (site,)).ratios[0])
    return SupplyDemandRatio(ratio, ratio == 0.0)


def supply_demand_ratios(
    matrix: TravelTimeMatrix,
    demands: Sequence[DemandPoint],
    sites: Sequence[FacilitySite],
) -> np.ndarray:
    """Ratio for every site in matrix column order; idle sites get 0."""
    return _Catchment(matrix, demands, sites).ratios


def accessibility_scores(
    scenario: Scenario,
    matrix: TravelTimeMatrix,
    open_sites,
    gamma: float = 1.0,
) -> AccessibilityField:
    """Score each demand point against the currently open sites.

    Per demand point: gamma times the sum, over reachable open sites, of the
    kernel weight times that site's supply-to-demand ratio.  Demand with no
    reachable open site scores 0.
    """
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValidationError(f"gamma must be finite and > 0, got {gamma!r}")
    open_set = set(open_sites)
    unknown = sorted(open_set - set(scenario.site_ids))
    if unknown:
        raise ValidationError(f"unknown site id(s) in open set: {', '.join(unknown)}")
    open_idx = np.array([[j for j, sid in enumerate(matrix.site_order) if sid in open_set]],
                        dtype=np.intp)
    return _Catchment(matrix, scenario.demands, scenario.sites).scores(open_idx, gamma)


# ---------------------------------------------------------------------------
# Coverage reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverageBin:
    label: str
    lower_bound: float
    population: int
    share: float


@dataclass(frozen=True)
class CoverageReport:
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


def _check_bins(bins) -> tuple[tuple[str, ...], tuple[float, ...]]:
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
    return tuple(label for label, _ in spec), bounds


def assign_bin(bounds: Sequence[float], score: float) -> int:
    """Index of the highest bin whose lower bound does not exceed the score."""
    return bisect_right(bounds, score) - 1


def coverage_report(
    field: AccessibilityField,
    demands: Sequence[DemandPoint],
    bins,
) -> CoverageReport:
    """Distribute each demand point's group population over the score bins."""
    labels, bounds = _check_bins(bins)
    if set(field.scores) != {d.demand_id for d in demands}:
        raise ValidationError("field scores do not cover exactly these demand points")
    counts = [0] * len(bounds)
    for d in demands:
        counts[assign_bin(bounds, field.scores[d.demand_id])] += d.pop_of(field.group)
    total = sum(counts)
    return CoverageReport(
        group=field.group,
        bins=tuple(
            CoverageBin(labels[k], bounds[k], counts[k],
                        counts[k] / total if total else 0.0)
            for k in range(len(bounds))
        ),
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
    """
    if field.gamma != 1.0:
        raise ValidationError("conservation identity requires gamma = 1")
    if field.group != matrix.group.name:
        raise ValidationError(f"field of group '{field.group}' is not the matrix's group")
    open_set = set(open_sites)
    catchment = _Catchment(matrix, scenario.demands, scenario.sites)
    if set(field.scores) != set(catchment.demand_ids):
        raise ValidationError("field scores do not cover exactly the matrix's demand")
    supply = sum(
        s.capacity
        for j, s in enumerate(scenario.sites)
        if s.site_id in open_set and catchment.ratios[j] > 0.0
    )
    if supply <= 0.0:
        return 0.0
    served = float(np.sum(catchment.pop * [field.scores[d] for d in catchment.demand_ids]))
    return abs(served - supply) / supply
