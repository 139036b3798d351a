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
from typing import Iterable, NamedTuple, Optional, Tuple

from .errors import BadParamsError, UniverseTooLargeError
from .limits import budget

Coalition = frozenset

RESERVED_PREFIX = "__"
TRUE_SEED = "__true_seed"


def coalition(members: Iterable[str] = ()) -> Coalition:
    """Normalize an iterable of agent ids into a coalition (frozenset)."""
    return frozenset(members)


class Record:
    """Base of the classes made of named fields, listed in ``_names``.  Each
    class writes its own constructor, which sets every field.  Records of
    one class are equal when their fields are, and the repr is
    ``Name(field=value, ...)``.  A record is mutable and so unhashable; the
    immutable ones are :class:`Frozen`.
    """

    __slots__ = ()
    _names: Tuple[str, ...] = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._names)

    def __eq__(self, other):
        if self.__class__ is not other.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}"
                         for name, value in zip(self._names, self._fields()))
        return f"{self.__class__.__qualname__}({args})"


class Frozen(Record):
    """An immutable record: formula nodes, plays, action profiles, search
    bounds, schemas and proof steps.  Its fields are slots, which its
    constructor writes once with :data:`write_slot`; any later write is
    refused.  It hashes as the tuple of its fields, or as the ``_hash``
    slot that a node, play or profile stores when built, which must stay
    the hash of the fields.  A pickle holds only the constructor arguments,
    so an object unpickled under another string hash seed hashes as that
    process's own objects do.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        _refuse(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        _refuse(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setstate__(self, state):
        """Load a pickle whose state is a dict of the fields, as written
        before the value classes had slots."""
        self.__init__(**state)

    def replace(self, **changes) -> "Frozen":
        """A copy with the given fields changed, built by the constructor."""
        return self.__class__(**dict(zip(self._names, self._fields()), **changes))


write_slot = object.__setattr__  # how a constructor writes past the guard


def _refuse(message: str):
    # Its module imports inspect, ast and dis: only a refused write loads it.
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(message)


class Formula(Frozen):
    """Base class of AST nodes.

    Equality is structural with coalitions compared as sets.  The stored
    hash lets deep equality checks short-circuit.  Equality walks a stack
    of node pairs, so depth is not limited by the interpreter's stack, and
    enters each pair of ``->`` nodes once, so comparing two formulas that
    share subterms costs time linear in their distinct nodes, not in their
    trees.
    """

    __slots__ = ()

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self.__class__ is not other.__class__ or self._hash != other._hash:
            return False  # the common case, decided without a walk
        pairs = []  # pairs of right operands still to compare
        seen = set()  # the ``->`` pairs entered, by identity
        a, b = self, other
        while True:
            if a is not b:
                cls = a.__class__
                if cls is not b.__class__ or a._hash != b._hash:
                    return False
                if cls is Implies:
                    pair = (id(a), id(b))
                    if pair not in seen:
                        seen.add(pair)
                        pairs.append((a.right, b.right))
                        a, b = a.left, b.left
                        continue
                elif cls is Prop:
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

    def __repr__(self):
        return f"<{self.__class__.__name__} {render(self)!r}>"


class Prop(Formula):
    _names = ("name",)
    __slots__ = _names + ("_hash",)

    def __init__(self, name: str):
        write_slot(self, "name", name)
        write_slot(self, "_hash", hash(("prop", name)))


class Not(Formula):
    _names = ("child",)
    __slots__ = _names + ("_hash",)

    def __init__(self, child: Formula):
        write_slot(self, "child", child)
        write_slot(self, "_hash", hash(("not", child._hash)))


class Implies(Formula):
    _names = ("left", "right")
    __slots__ = _names + ("_hash",)

    def __init__(self, left: Formula, right: Formula):
        write_slot(self, "left", left)
        write_slot(self, "right", right)
        write_slot(self, "_hash", hash(("implies", left._hash, right._hash)))


class Know(Formula):
    _names = ("knowers", "child")
    __slots__ = _names + ("_hash",)

    def __init__(self, knowers: Iterable[str], child: Formula):
        write_slot(self, "knowers", frozenset(knowers))
        write_slot(self, "child", child)
        write_slot(self, "_hash", hash(("know", self.knowers, child._hash)))


class Blame(Formula):
    """``Blame(knowers, actors, f)``: f is true and the knower coalition knew
    a joint action by which the actor coalition could have prevented f.

    In the concrete syntax this is ``B[knowers][actors] f`` (first bracket
    knows, second bracket acts).
    """

    _names = ("knowers", "actors", "child")
    __slots__ = _names + ("_hash",)

    def __init__(self, knowers: Iterable[str], actors: Iterable[str],
                 child: Formula):
        write_slot(self, "knowers", frozenset(knowers))
        write_slot(self, "actors", frozenset(actors))
        write_slot(self, "child", child)
        write_slot(self, "_hash",
                   hash(("blame", self.knowers, self.actors, child._hash)))


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


_SEED = Prop(TRUE_SEED)  # one object, as a parse shares equal subterms
FALSUM = Not(Implies(_SEED, _SEED))


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


def big_implies(antecedents, consequent: Formula) -> Formula:
    """Right-nested a1 -> (a2 -> ... -> (an -> consequent))."""
    out = consequent
    for item in reversed(list(antecedents)):
        out = Implies(item, out)
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
    public grammar; coalition members print in sorted order and the falsum
    encoding prints as ``false``.  Iterative, so depth is not limited by the
    interpreter's stack: text is written as soon as it is known, and what
    comes after the leftmost path of a subformula waits on a stack.
    """
    return _render((f,), ())[0]


def render_shared(formulas: Iterable[Formula]) -> list:
    """``[render(f) for f in formulas]``, with each node that the formulas
    reach more than once (the same object, not an equal one) rendered once.

    A first walk, which does not enter a node it has seen, marks the nodes
    it reaches twice.  The printer then keeps the text of a marked node from
    its first occurrence and copies it at the later ones, in parentheses
    where the context needs them.  The texts are kept for this call only.
    """
    formulas = tuple(formulas)
    return _render(formulas, _shared_nodes(formulas))


def _shared_nodes(roots) -> set:
    """The stored hashes of the nodes, propositions aside, that a walk from
    the roots reaches more than once; the walk does not enter a node whose
    hash it has seen.  The hash is an int the node already holds, so the
    walk allocates nothing per node.  Distinct objects with one hash (equal
    nodes, mostly) are marked too, and the second is not entered: the
    printer keeps texts by identity, so that costs some sharing, never a
    wrong text."""
    seen = set()
    shared = set()
    stack = list(roots)
    push = stack.append
    while stack:
        g = stack.pop()
        while True:
            cls = g.__class__
            if cls is Prop:
                break
            key = g._hash
            if key in seen:
                shared.add(key)
                break
            seen.add(key)
            if cls is not Implies:
                g = g.child
            elif g.left.__class__ is Prop:
                g = g.right
            else:
                push(g.right)
                g = g.left
    return shared


def _render(roots, shared) -> list:
    """The text of each root.  A node whose stored hash is in ``shared`` is
    written out once: its first occurrence records where its text starts in
    the output and joins that span when the node ends, and later
    occurrences of the same object copy the joined text.  Other nodes cost
    one set lookup, and none when nothing is shared."""
    texts = {}  # id -> text, of the shared nodes written so far
    rendered = []
    for root in roots:
        out = []
        emit = out.append
        opened = []  # (id, start in out) of the shared nodes being written
        # Texts, None (the innermost opened node ends) and the right
        # operands of implications, last one first.
        stack = []
        g, min_level = root, 0
        while True:
            while True:  # down the leftmost path of g
                cls = g.__class__
                if cls is Prop:
                    emit(g.name)
                    break
                if cls is Implies and min_level > _LEVEL_IMPL:
                    emit("(")
                    stack.append(")")
                if shared and g._hash in shared:
                    text = texts.get(id(g))
                    if text is not None:
                        emit(text)
                        break
                    opened.append((id(g), len(out)))
                    stack.append(None)
                if cls is Implies:
                    stack.append(g.right)
                    g, min_level = g.left, _LEVEL_IMPL_LEFT
                    continue
                # ~, K and B bind tightest and never need parentheses.
                if cls is Not:
                    # The stored hash rules out most nodes without a call.
                    if g._hash == FALSUM._hash and g == FALSUM:
                        emit("false")
                        break
                    emit("~")
                elif cls is Know:
                    emit("K" + _coal_str(g.knowers) + " ")
                elif cls is Blame:
                    emit("B" + _coal_str(g.knowers) + _coal_str(g.actors) + " ")
                else:  # pragma: no cover - exhaustive match
                    raise TypeError(f"not a formula: {g!r}")
                g, min_level = g.child, _LEVEL_UNARY
            while stack:  # up to the next right operand
                item = stack.pop()
                if item.__class__ is str:
                    emit(item)
                elif item is None:
                    key, start = opened.pop()
                    text = texts[key] = "".join(out[start:])
                    out[start:] = (text,)
                else:
                    break
            else:
                break
            emit(" -> ")
            g, min_level = item, _LEVEL_IMPL
        rendered.append("".join(out))
    return rendered


# ---------------------------------------------------------------------------
# Structural utilities.
# ---------------------------------------------------------------------------

def children_of(f: Formula) -> tuple:
    if isinstance(f, (Prop,)):
        return ()
    if isinstance(f, (Not, Know, Blame)):
        return (f.child,)
    return (f.left, f.right)


def _post_order(f: Formula, children=children_of) -> dict:
    """The distinct subformulas of f that ``children`` reaches, in
    post-order, each mapped to its place in that order.  Iterative, so
    depth is not limited by the interpreter's stack: a None on the stack
    closes the innermost open node."""
    order: dict = {}
    stack = [f]
    open_nodes = []
    while stack:
        g = stack.pop()
        if g is None:
            order[open_nodes.pop()] = len(order)
        elif g not in order:
            below = children(g)
            if below:
                open_nodes.append(g)
                stack.append(None)
                stack.extend(reversed(below))
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
    to the caller, with a the step of its child, or -1 for a node whose
    children are not compiled."""

    nodes: tuple
    code: tuple


def compile_masks(f: Formula, children=children_of) -> MaskProgram:
    """Compile f, in one walk, into a :class:`MaskProgram` of the nodes
    that ``children`` reaches; a node it gives no children is a leaf."""
    step = _post_order(f, children)
    code = []
    for g in step:
        if not children(g):
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
    mask (None for a leaf whose child is not compiled).
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
    """Total number of AST nodes (counting repeats, not deduplicated), in
    time linear in the distinct nodes: a node's size is 1 plus its
    children's sizes."""
    size = {}
    for g in _post_order(f):
        size[g] = 1 + sum(size[c] for c in children_of(g))
    return size[f]


def agents_of(f: Formula) -> Coalition:
    """All agents mentioned in coalition annotations of f."""
    out = set()
    for g in subformulas(f):
        if isinstance(g, Know):
            out |= g.knowers
        elif isinstance(g, Blame):
            out |= g.knowers | g.actors
    return frozenset(out)


def props_of(f: Formula) -> frozenset:
    """All proposition names in f but the reserved ones."""
    return frozenset(g.name for g in subformulas(f)
                     if isinstance(g, Prop) and not g.name.startswith(RESERVED_PREFIX))


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
) -> Formula:
    """Expand one of the four minimal-coalition operators into the core
    language, with the big disjunctions/conjunctions over subcoalitions
    written out literally.

    Strict subcoalitions include the empty coalition and exclude the full
    one.  An empty disjunction expands to falsum and an empty conjunction to
    ~falsum.  Kind 4 existentially quantifies the actor coalition, so
    ``actors`` must be None for it.  Raises :class:`UniverseTooLargeError`
    when the estimated expansion exceeds the ``expand-nodes`` budget
    (``DTW_BUDGET`` or the default).
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

    limit = budget("expand-nodes")
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
