"""The search's limits: local search's move budget and the oracle's pool cap.

The command line checks them before it reads a scenario, and ``main``
maps ``CandidatePoolError`` to its exit code, so they live apart from
``optimizer``: ``synth`` and ``score`` take the same flags but never
import the search.
"""

from __future__ import annotations

from .geodata import ValidationError

DEFAULT_BUDGET = 1000
DEFAULT_MAX_POOL = 15
# on 12x12 cities the oracle's bounds leave at most a few hundred of the
# 2**24 layouts to score (0.1-2 s, 2 CPUs), but nothing bounds the
# subtrees they cannot prune, which at worst are all of them
MAX_POOL_CEILING = 24


class CandidatePoolError(RuntimeError):
    """The oracle refused: the candidate pool exceeds the cap."""


def check_budget(budget: int) -> None:
    if budget < 0:
        raise ValidationError(f"budget must be >= 0, got {budget}")


def check_max_pool(max_pool: int) -> None:
    if max_pool < 0:
        raise ValidationError(f"max_pool must be >= 0, got {max_pool}")
    if max_pool > MAX_POOL_CEILING:
        raise ValidationError(f"max_pool {max_pool} exceeds the ceiling of "
                              f"{MAX_POOL_CEILING} candidate sites")
