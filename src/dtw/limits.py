"""Resource budgets for the brute-force parts of the package.

Each budget is its default below unless the ``DTW_BUDGET`` environment
variable is set: a single non-negative integer applied to all kinds.
"""

import os

from .errors import BadParamsError

DEFAULT_BUDGETS = {
    # node budget for subcoalition expansion
    "expand-nodes": 10**6,
    # (initial state, complete profile) pairs enumerated by the validator,
    # and the largest such grid that random sampling may build per game
    "seriality-checks": 10**7,
    # candidate models enumerated by exhaustive searches
    "exhaustive-models": 10**6,
    # subcoalition pairs of the minimality definitions: an upper bound on
    # the blame checks the direct checkers make
    "minimality-iterations": 10**6,
}


def budget(kind: str) -> int:
    """The budget for ``kind``: ``DTW_BUDGET`` if set, else the default."""
    env = os.environ.get("DTW_BUDGET")
    if env is None:
        return DEFAULT_BUDGETS[kind]
    try:
        value = int(env)
    except ValueError:
        raise BadParamsError(f"DTW_BUDGET must be an integer, got {env!r}") from None
    if value < 0:
        raise BadParamsError(f"DTW_BUDGET must be a non-negative integer, got {env!r}")
    return value
