"""Resource budgets for the brute-force parts of the package.

Every budget can be overridden globally through the ``DTW_BUDGET``
environment variable (a single integer applied to all kinds), or per call
via the explicit argument of each budgeted operation that takes one
(random sampling takes none).
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


def budget(kind: str, explicit=None) -> int:
    """Resolve the budget for ``kind``: explicit arg > env var > default."""
    if explicit is not None:
        return int(explicit)
    env = os.environ.get("DTW_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise BadParamsError(f"DTW_BUDGET must be an integer, got {env!r}") from None
    return DEFAULT_BUDGETS[kind]
