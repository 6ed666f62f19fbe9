"""The search's rounding model held to exact arithmetic.

Every certain bound of the search widens a field by
``_Evaluator.field_err`` or floors a sum of squares by
``_Evaluator.sum_floor``.  Both are checked here against exact
``Fraction`` sums, on random magnitudes from subnormal to about 1e150 and
on adversarial ones: terms that each round away when added after a larger
one, and squares that round to a few subnormal units.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from accessopt.optimizer import ObjectiveParams, _Evaluator

from conftest import GENERAL, table_scenario

# (sites, demand points) of the evaluators whose tolerances are checked
SIZES = [(1, 1), (2, 3), (7, 20), (40, 300)]
KINDS = ["wide", "band", "half ulp", "subnormal", "few units", "zeros"]


def evaluator(n_sites, n_demands):
    """An evaluator whose S and D are ``n_sites`` and ``n_demands``."""
    scenario, matrices = table_scenario(
        [(f"d{i:03d}", {"general": 100}) for i in range(n_demands)],
        [(f"s{j:02d}", "candidate", 1000.0) for j in range(n_sites)], (GENERAL,),
        {"general": np.ones((n_demands, n_sites))},
    )
    return _Evaluator(scenario, matrices, ObjectiveParams())


def terms(rng, n, kind):
    """n non-negative floats of one kind of magnitude."""
    if kind == "wide":
        return [math.ldexp(rng.random(), rng.randint(-1074, 499)) for _ in range(n)]
    if kind == "band":  # within 2^40 of each other, so that most additions round
        top = rng.randint(-1000, 499)
        return [math.ldexp(rng.random(), top - rng.randint(0, 40)) for _ in range(n)]
    if kind == "half ulp":  # added after the first term, each of the rest rounds away
        first = math.ldexp(1.0 + rng.random(), rng.randint(-960, 498))
        return [first] + [math.ulp(first) * rng.uniform(0.3, 0.4999)] * (n - 1)
    if kind == "subnormal":
        return [math.ldexp(rng.random(), -1074 + rng.randint(0, 52)) for _ in range(n)]
    if kind == "few units":  # squares of 1/16 to 4 subnormal units, each rounded by up to 1/2
        return [math.ldexp(1.0 + rng.random(), -537 - rng.randint(0, 2)) for _ in range(n)]
    top = rng.randint(-1000, 499)  # "zeros": a band, about half of it 0
    return [math.ldexp(rng.random(), top - rng.randint(0, 40)) * (rng.random() < 0.5)
            for _ in range(n)]


def sequential(values):
    total = 0.0
    for v in values:
        total += v
    return total


def pairwise(values):
    if len(values) <= 2:
        return sequential(values)
    mid = len(values) // 2
    return pairwise(values[:mid]) + pairwise(values[mid:])


def orders(values, rng):
    """Float sums of ``values`` in several orders."""
    shuffled = list(values)
    rng.shuffle(shuffled)
    return [sequential(values), sequential(values[::-1]), sequential(sorted(values)),
            sequential(sorted(values, reverse=True)), sequential(shuffled),
            pairwise(values), float(np.sum(np.array(values)))]


def n_terms(rng, most):
    """``most`` half the time, else from 1 to ``most``."""
    return most if rng.random() < 0.5 else rng.randint(1, most)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"S{s[0]}-D{s[1]}")
def test_field_err_covers_two_summation_orders(size, kind):
    """Sums of up to S terms, gamma applied to the sum as the canonical field
    does or to each term as the bounds do, in any two orders, differ by at
    most ``field_err`` of the least of them."""
    ev = evaluator(*size)
    rng = random.Random(f"field {size} {kind}")
    for _ in range(60):
        w = terms(rng, n_terms(rng, size[0]), kind)
        gamma = rng.choice([1.0, 0.1, 3.0, math.ldexp(1.0 + rng.random(), rng.randint(-10, 9))])
        sums = [gamma * s for s in orders(w, rng)] + orders([gamma * v for v in w], rng)
        least, most = min(sums), max(sums)
        assert Fraction(most) - Fraction(least) <= Fraction(ev.field_err(least)), (w, gamma)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"S{s[0]}-D{s[1]}")
def test_sum_floor_is_below_every_order_and_the_exact_sum(size, kind):
    """``sum_floor`` of any order's float sum of up to D squares is not above
    any other order's float sum, nor above the exact sum."""
    ev = evaluator(*size)
    rng = random.Random(f"sum {size} {kind}")
    for _ in range(30):
        x = terms(rng, n_terms(rng, size[1]), kind)
        if kind == "half ulp":  # the squares, not x, are to round away
            x = [math.sqrt(v) for v in x]
        sums = [*orders([v * v for v in x], rng), float(np.einsum("i,i->", x, x))]
        exact = sum(Fraction(v) ** 2 for v in x)
        floor = Fraction(float(ev.sum_floor(max(sums))))
        assert floor <= Fraction(min(sums)), x
        assert floor <= exact, x
