"""Formula AST for the coalition logic of knowledge and duty to warn.

Core constructors: propositions, negation, implication, distributed
knowledge ``Know`` and the two-coalition blame modality ``Blame``.  The
derived connectives (falsum, conjunction, disjunction, equivalence, dual
knowledge) are desugared into the core constructors at build time and never
appear as nodes of their own.  Falsum is encoded as ``~(__true_seed ->
__true_seed)`` over a reserved proposition that user input cannot name.

Also here: the canonical printer (minimal parentheses, inverse of the
parser), subformula enumeration, deterministic subcoalition enumeration,
and the literal expansion of the four minimal-coalition operators.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

from .errors import BadParamsError, UniverseTooLargeError
from .limits import budget

Coalition = frozenset

RESERVED_PREFIX = "__"
TRUE_SEED = "__true_seed"


def coalition(members: Iterable[str] = ()) -> Coalition:
    """Normalize an iterable of agent ids into a coalition (frozenset)."""
    return frozenset(members)


class Formula:
    """Base class of AST nodes.

    Instances are immutable and hashable; equality is structural with
    coalitions compared as sets.  A hash is computed once at construction
    so that deep equality checks can short-circuit.  Equality walks a stack
    of node pairs, so depth is not limited by the interpreter's stack.
    """

    __slots__ = ()

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self.__class__ is not other.__class__ or self._hash != other._hash:
            return False  # the common case, decided without a walk
        pairs = []  # pairs of right operands still to compare
        a, b = self, other
        while True:
            if a is not b:
                cls = a.__class__
                if cls is not b.__class__ or a._hash != b._hash:
                    return False
                if cls is Implies:
                    pairs.append((a.right, b.right))
                    a, b = a.left, b.left
                    continue
                if cls is Prop:
                    if a.name != b.name:
                        return False
                elif cls is Not or (a.knowers == b.knowers
                                    and (cls is Know or a.actors == b.actors)):
                    a, b = a.child, b.child
                    continue
                else:
                    return False
            if not pairs:
                return True
            a, b = pairs.pop()

    def __ne__(self, other):
        return not self.__eq__(other)

    def __repr__(self):
        return f"<{self.__class__.__name__} {render(self)!r}>"


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Prop(Formula):
    name: str
    _hash: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(("prop", self.name)))


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Not(Formula):
    child: Formula
    _hash: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(("not", self.child._hash)))


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula
    _hash: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_hash", hash(("implies", self.left._hash, self.right._hash))
        )


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Know(Formula):
    knowers: Coalition
    child: Formula
    _hash: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "knowers", frozenset(self.knowers))
        object.__setattr__(
            self, "_hash", hash(("know", self.knowers, self.child._hash))
        )


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Blame(Formula):
    """``Blame(knowers, actors, f)``: f is true and the knower coalition knew
    a joint action by which the actor coalition could have prevented f.

    In the concrete syntax this is ``B[knowers][actors] f`` (first bracket
    knows, second bracket acts).
    """

    knowers: Coalition
    actors: Coalition
    child: Formula
    _hash: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "knowers", frozenset(self.knowers))
        object.__setattr__(self, "actors", frozenset(self.actors))
        object.__setattr__(
            self,
            "_hash",
            hash(("blame", self.knowers, self.actors, self.child._hash)),
        )


# ---------------------------------------------------------------------------
# Derived connectives (desugared on construction).
# ---------------------------------------------------------------------------

def conj(left: Formula, right: Formula) -> Formula:
    """left and right, as ~(left -> ~right)."""
    return Not(Implies(left, Not(right)))


def disj(left: Formula, right: Formula) -> Formula:
    """left or right, as ~left -> right."""
    return Implies(Not(left), right)


def iff(left: Formula, right: Formula) -> Formula:
    """left if and only if right, as the conjunction of both implications."""
    return conj(Implies(left, right), Implies(right, left))


def dual_know(knowers: Iterable[str], child: Formula) -> Formula:
    """``Kd[C] f``: the coalition considers f possible, i.e. ~K[C]~f."""
    return Not(Know(coalition(knowers), Not(child)))


FALSUM = Not(Implies(Prop(TRUE_SEED), Prop(TRUE_SEED)))


def falsum() -> Formula:
    """The falsum encoding; prints as the keyword ``false``."""
    return FALSUM


def verum() -> Formula:
    return Not(FALSUM)


def big_disj(items) -> Formula:
    """Left-associated disjunction; empty disjunction is falsum."""
    items = list(items)
    if not items:
        return FALSUM
    out = items[0]
    for item in items[1:]:
        out = disj(out, item)
    return out


def big_conj(items) -> Formula:
    """Left-associated conjunction; empty conjunction is ~falsum."""
    items = list(items)
    if not items:
        return Not(FALSUM)
    out = items[0]
    for item in items[1:]:
        out = conj(out, item)
    return out


# ---------------------------------------------------------------------------
# Printing.
# ---------------------------------------------------------------------------

_LEVEL_UNARY = 4
_LEVEL_IMPL_LEFT = 2
_LEVEL_IMPL = 1


def _coal_str(members: Coalition) -> str:
    return "[" + ",".join(sorted(members)) + "]"


def render(f: Formula) -> str:
    """Canonical concrete syntax with minimal parentheses.

    ``parse_formula(render(f)) == f`` for every formula reachable from the
    public grammar whose printed text nests at most ``parser.MAX_NESTING``
    levels; coalition members print in sorted order and the falsum
    encoding prints as ``false``.  Iterative, so depth is not limited by the
    interpreter's stack: text is written as soon as it is known, and what
    comes after the leftmost path of a subformula waits on a stack.
    """
    out = []
    emit = out.append
    stack = [(f, 0)]  # text, or (subformula, min_level), last one first
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            emit(item)
            continue
        g, min_level = item
        while True:
            if isinstance(g, Prop):
                emit(g.name)
                break
            if isinstance(g, Implies):
                if min_level > _LEVEL_IMPL:
                    emit("(")
                    stack.append(")")
                stack.append((g.right, _LEVEL_IMPL))
                stack.append(" -> ")
                g, min_level = g.left, _LEVEL_IMPL_LEFT
                continue
            # ~, K and B bind tightest and never need parentheses.
            if isinstance(g, Not):
                if g == FALSUM:
                    emit("false")
                    break
                emit("~")
            elif isinstance(g, Know):
                emit("K" + _coal_str(g.knowers) + " ")
            elif isinstance(g, Blame):
                emit("B" + _coal_str(g.knowers) + _coal_str(g.actors) + " ")
            else:  # pragma: no cover - exhaustive match
                raise TypeError(f"not a formula: {g!r}")
            g, min_level = g.child, _LEVEL_UNARY
    return "".join(out)


# ---------------------------------------------------------------------------
# Structural utilities.
# ---------------------------------------------------------------------------

def children_of(f: Formula) -> tuple:
    if isinstance(f, (Prop,)):
        return ()
    if isinstance(f, (Not, Know, Blame)):
        return (f.child,)
    return (f.left, f.right)


def _post_order(f: Formula, opaque=()) -> dict:
    """The distinct subformulas of f in post-order, each mapped to its
    place in that order; the children of nodes in ``opaque`` are not
    visited.  Iterative, so depth is not limited by the interpreter's
    stack: a None on the stack closes the innermost open node."""
    order: dict = {}
    stack = [f]
    open_nodes = []
    while stack:
        g = stack.pop()
        if g is None:
            order[open_nodes.pop()] = len(order)
        elif g not in order:
            children = () if g in opaque else children_of(g)
            if children:
                open_nodes.append(g)
                stack.append(None)
                stack.extend(reversed(children))
            else:
                order[g] = len(order)
    return order


def subformulas(f: Formula) -> list:
    """All distinct subformulas in post-order, including f itself."""
    return list(_post_order(f))


NOT, IMPLIES, LEAF = range(3)


class MaskProgram(NamedTuple):
    """A formula compiled for mask evaluation: its distinct subformulas in
    post-order, and one step ``(op, a, b)`` per subformula.  ``NOT`` and
    ``IMPLIES`` combine the values of steps a and b; a ``LEAF`` step is left
    to the caller, with a the step of its child, or -1 for propositions and
    opaque nodes."""

    nodes: tuple
    code: tuple


def compile_masks(f: Formula, opaque=()) -> MaskProgram:
    """Compile f into a :class:`MaskProgram`; nodes in ``opaque`` become
    leaves whose children are not compiled."""
    step = _post_order(f, opaque)
    code = []
    for g in step:
        if g in opaque or isinstance(g, Prop):
            code.append((LEAF, -1, -1))
        elif isinstance(g, Not):
            code.append((NOT, step[g.child], -1))
        elif isinstance(g, Implies):
            code.append((IMPLIES, step[g.left], step[g.right]))
        else:
            code.append((LEAF, step[g.child], -1))
    return MaskProgram(tuple(step), tuple(code))


def run_masks(program: MaskProgram, full: int, leaf) -> list:
    """The int mask of the rows (the bits of ``full``) where each node of
    the program holds, in program order; the last is the formula's.

    ``Not`` and ``Implies`` are Boolean operations on their children's
    masks; a leaf step i gets ``leaf(i, body)``, where body is its child's
    mask (None for propositions and opaque nodes).
    """
    values = []
    push = values.append
    for op, a, b in program.code:
        if op == NOT:
            push(full ^ values[a])
        elif op == IMPLIES:
            push((full ^ values[a]) | values[b])
        else:
            push(leaf(len(values), values[a] if a >= 0 else None))
    return values


def node_count(f: Formula) -> int:
    """Total number of AST nodes (counting repeats, not deduplicated)."""
    total = 0
    stack = [f]
    while stack:
        g = stack.pop()
        total += 1
        stack.extend(children_of(g))
    return total


def agents_of(f: Formula) -> Coalition:
    """All agents mentioned in coalition annotations of f."""
    out = set()
    for g in subformulas(f):
        if isinstance(g, Know):
            out |= g.knowers
        elif isinstance(g, Blame):
            out |= g.knowers | g.actors
    return frozenset(out)


def props_of(f: Formula, include_reserved: bool = False) -> frozenset:
    """All proposition names in f; reserved names excluded by default."""
    out = set()
    for g in subformulas(f):
        if isinstance(g, Prop):
            if include_reserved or not g.name.startswith(RESERVED_PREFIX):
                out.add(g.name)
    return frozenset(out)


def subsets_of(members: Iterable[str]) -> list:
    """Every subcoalition, ordered by size then lexicographically."""
    ordered = sorted(members)
    out = []
    for size in range(len(ordered) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(ordered, size))
    return out


def proper_subsets_of(members: Iterable[str]) -> list:
    """Every strict subcoalition (including the empty one), same order."""
    full = frozenset(members)
    return [c for c in subsets_of(full) if c != full]


# ---------------------------------------------------------------------------
# Minimal-coalition operator expansion.
# ---------------------------------------------------------------------------

def _minimal_body(knowers, actors, phi, universe) -> Formula:
    """Shared body: blame holds, no strictly smaller actor coalition works
    for anyone, and no strict knower subcoalition works for these actors."""
    parts = [
        Blame(knowers, actors, phi),
        Not(
            big_disj(
                Blame(e, f, phi)
                for e in subsets_of(universe)
                for f in proper_subsets_of(actors)
            )
        ),
        Not(big_disj(Blame(e, actors, phi) for e in proper_subsets_of(knowers))),
    ]
    return big_conj(parts)


def _estimated_blame_atoms(kind, n_knowers, n_actors, n_universe) -> int:
    if kind == 1:
        return 1 + (2**n_knowers - 1)
    if kind == 2:
        return 1 + (2**n_knowers - 1) * 2**n_universe
    if kind == 3:
        return 1 + 2**n_universe * (2**n_actors - 1) + (2**n_knowers - 1)
    total = 0
    for size in range(n_universe + 1):
        total += math.comb(n_universe, size) * (
            1 + 2**n_universe * (2**size - 1) + (2**n_knowers - 1)
        )
    return total


def expand_minimality(
    kind: int,
    knowers: Iterable[str],
    actors: Optional[Iterable[str]],
    phi: Formula,
    universe: Iterable[str],
    node_budget: Optional[int] = None,
) -> Formula:
    """Expand one of the four minimal-coalition operators into the core
    language, with the big disjunctions/conjunctions over subcoalitions
    written out literally.

    Strict subcoalitions include the empty coalition and exclude the full
    one.  An empty disjunction expands to falsum and an empty conjunction to
    ~falsum.  Kind 4 existentially quantifies the actor coalition, so
    ``actors`` must be None for it.  Raises :class:`UniverseTooLargeError`
    when the estimated expansion exceeds the node budget.
    """
    universe_set = coalition(universe)
    knowers_set = coalition(knowers)
    if kind not in (1, 2, 3, 4):
        raise BadParamsError(f"kind must be 1, 2, 3, or 4, got {kind!r}")
    if not knowers_set <= universe_set:
        raise BadParamsError("knower coalition must be within the agent universe")
    if kind == 4:
        if actors is not None:
            raise BadParamsError(
                "kind 4 quantifies over actor coalitions; pass actors=None"
            )
        actors_set = None
    else:
        if actors is None:
            raise BadParamsError(f"kind {kind} requires an actor coalition")
        actors_set = coalition(actors)
        if not actors_set <= universe_set:
            raise BadParamsError("actor coalition must be within the agent universe")

    limit = budget("expand-nodes", node_budget)
    atoms = _estimated_blame_atoms(
        kind, len(knowers_set), len(actors_set or ()), len(universe_set)
    )
    estimate = atoms * (node_count(phi) + 8)
    if estimate > limit:
        raise UniverseTooLargeError(
            f"expansion of kind {kind} over {len(universe_set)} agents needs "
            f"roughly {estimate} nodes, budget is {limit}"
        )

    if kind == 1:
        return conj(
            Blame(knowers_set, actors_set, phi),
            Not(
                big_disj(
                    Blame(e, actors_set, phi)
                    for e in proper_subsets_of(knowers_set)
                )
            ),
        )
    if kind == 2:
        return conj(
            Blame(knowers_set, actors_set, phi),
            Not(
                big_disj(
                    Blame(e, f, phi)
                    for e in proper_subsets_of(knowers_set)
                    for f in subsets_of(universe_set)
                )
            ),
        )
    if kind == 3:
        return _minimal_body(knowers_set, actors_set, phi, universe_set)
    return big_disj(
        _minimal_body(knowers_set, d, phi, universe_set)
        for d in subsets_of(universe_set)
    )
