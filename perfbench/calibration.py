"""The host's speed, measured between ops with a fixed pure-Python kernel.

On a shared host the same op runs up to twice as fast in one minute as in
the next, and CPU time follows wall time, so the slowdown is the host's and
not the program's.  The runner therefore runs a short calibration chunk
between ops (about every ``SPACING_S`` of op time) and reports each op's
latency at the nominal host speed: measured seconds times ``NOMINAL_S``
over the median of the chunks nearest to the op.  The kernel imports
nothing of the package, so a change to the package cannot move it; it runs
with the collector off, so the heap the ops leave behind does not either.

``NOMINAL_S`` is a unit, not a measurement to be kept up to date: it is the
chunk's time on an Intel Xeon of a 2-vCPU VM under Python 3.11, so that
the reported times read as seconds on that host.
"""

from __future__ import annotations

import gc
import itertools
import statistics
import time

NOMINAL_S = 0.008  # one chunk at the nominal host speed
SPACING_S = 0.15  # op time between chunks
WINDOW = 2  # chunks taken on each side of an op


def _tree(depth, i):
    if depth == 0:
        return ("v", i % 7)
    op = ("and", "or", "imp")[(i * 7 + depth) % 3]
    return (op, _tree(depth - 1, 2 * i + 1), _tree(depth - 1, 2 * i + 2))


TREE = _tree(6, 0)
ROWS = tuple(itertools.product((False, True), repeat=7))
# About 2 MB of sets and a table, visited out of order, so that a chunk
# also feels the caches other tenants of the host compete for.
SETS = tuple(frozenset(range(i % 50, i % 50 + 20)) for i in range(600))
TABLE = {(i * 7919 % 100003, i % 97): i for i in range(4000)}
KEYS = tuple(sorted(TABLE, key=lambda key: key[0] * 104729 % 8191))


class _Node:
    __slots__ = ("kids", "value")

    def __init__(self, kids, value):
        self.kids = kids
        self.value = value


def _value(node, row):
    tag = node[0]
    if tag == "v":
        return row[node[1]]
    left = _value(node[1], row)
    if tag == "and":
        return left and _value(node[2], row)
    if tag == "or":
        return left or _value(node[2], row)
    return (not left) or _value(node[2], row)


def _truth_tables() -> int:
    """Truth tables of a fixed 64-leaf formula, keyed by frozensets."""
    true_rows = 0
    for _ in range(3):
        table = {}
        for row in ROWS:
            table[frozenset(i for i, bit in enumerate(row) if bit)] = _value(TREE, row)
        true_rows += sum(table.values())
    return true_rows


def _object_graph() -> int:
    """Builds a DAG of small objects and folds it with a memo."""
    nodes = [_Node((), i % 3) for i in range(64)]
    for i in range(2000):
        nodes.append(_Node((nodes[-64 + i % 64], nodes[-1 - i % 7], nodes[-2 - i % 61]),
                           i % 5))
    memo = {}

    def fold(node):
        out = memo.get(id(node))
        if out is None:
            out = node.value
            for kid in node.kids:
                out = (out * 31 + fold(kid)) & 0xFFFF
            memo[id(node)] = out
        return out

    return fold(nodes[-1]) + len(frozenset(memo.values()))


def _set_algebra() -> int:
    total = 0
    for step in (7, 13):
        for i in range(600):
            a, b = SETS[i], SETS[i * step % 600]
            total += len(a & b) + len(a | b) + len(a - b)
    return total


def _lookups() -> int:
    return sum(TABLE[key] & 7 for _ in range(4) for key in KEYS)


def kernel() -> int:
    """One chunk: about equal parts of recursion over tuples, object
    allocation, set algebra and table lookups."""
    return _truth_tables() + _object_graph() + _set_algebra() + _lookups()


def chunk() -> float:
    """Seconds one kernel run takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(samples) -> float:
    """Nominal over measured: what a time taken at the speed these chunks
    show is multiplied by."""
    return NOMINAL_S / statistics.median(samples)


class Meter:
    """Chunks between the ops of a run.  ``before_op`` runs a chunk if
    ``SPACING_S`` of op time passed since the last one and returns the op's
    position among the chunks; ``scale`` turns a position into the factor
    of the ``WINDOW`` chunks before the op and as many after it."""

    def __init__(self):
        self.chunks = []
        self.since = SPACING_S  # a chunk before the first op

    def before_op(self) -> int:
        if self.since >= SPACING_S:
            self.chunks.append(chunk())
            self.since = 0.0
        return len(self.chunks)

    def after_op(self, elapsed: float) -> None:
        self.since += elapsed

    def close(self) -> None:
        """A chunk after the last op."""
        self.since = SPACING_S
        self.before_op()

    def scale(self, position: int) -> float:
        return factor(self.chunks[max(0, position - WINDOW):position + WINDOW])
