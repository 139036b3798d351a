"""Axiom schemas: formulas over metavariables, with instantiation,
matching, and side conditions.

Each schema is written in the concrete syntax and parsed like any formula.
Its propositions are the formula metavariables and its coalition members
are the coalition metavariables: a coalition of several members, such as
the ``[C,E]`` of ``B[C,E][D,F]``, stands for the union of their values, and
``[]`` is the empty coalition.

Matching is purely structural on the desugared core AST (no reasoning
modulo equivalence).  A one-member coalition binds its metavariable or
compares with the binding; a union is checked against the bindings made
earlier in a left-to-right traversal, which suffices for every schema
defined here.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .formula import (Blame, Coalition, Formula, Frozen, Implies, Know, Not, Prop,
                      agents_of, props_of, write_slot)
from .parser import parse_formula


class Schema(Frozen):
    """A named pattern formula, its formula and coalition metavariables
    (tuples of names), and its side conditions: a tuple of ("subset",
    small, large) and ("disjoint", a, b) triples, empty by default."""

    _names = __slots__ = ("name", "pattern", "formula_vars", "coalition_vars", "side")

    def __init__(self, name: str, pattern: Formula, formula_vars: Tuple[str, ...],
                 coalition_vars: Tuple[str, ...], side: tuple = ()):
        write_slot(self, "name", name)
        write_slot(self, "pattern", pattern)
        write_slot(self, "formula_vars", formula_vars)
        write_slot(self, "coalition_vars", coalition_vars)
        write_slot(self, "side", side)


def _schemas(*specs) -> Dict[str, Schema]:
    """Parse ``(name, text, *side)`` specs into schemas keyed by name.  The
    metavariables are listed in sorted order, which fixes the order in
    which ``sample_instantiation`` draws them."""
    out = {}
    for name, text, *side in specs:
        pattern = parse_formula(text)
        out[name] = Schema(name, pattern, tuple(sorted(props_of(pattern))),
                           tuple(sorted(agents_of(pattern))), tuple(side))
    return out


AXIOM_SCHEMAS: Dict[str, Schema] = _schemas(
    ("Truth-K", "K[C]phi -> phi"),
    ("Truth-B", "B[C][D]phi -> phi"),
    ("Distributivity", "K[C](phi -> psi) -> (K[C]phi -> K[C]psi)"),
    ("NegIntrospection", "~K[C]phi -> K[C]~K[C]phi"),
    ("Monotonicity-K", "K[C]phi -> K[E]phi", ("subset", "C", "E")),
    ("Monotonicity-B", "B[C][D]phi -> B[E][F]phi",
     ("subset", "C", "E"), ("subset", "D", "F")),
    ("NoneToAct", "~B[C][]phi"),
    ("JointResponsibility",
     "Kd[C]B[C][D]phi & Kd[E]B[E][F]psi -> (phi | psi -> B[C,E][D,F](phi | psi))",
     ("disjoint", "D", "F")),
    ("StrictConditional", "K[C](phi -> psi) -> (B[C][D]psi -> (phi -> B[C][D]phi))"),
    ("IntrospectionOfBlame", "B[C][D]phi -> K[C](phi -> B[C][D]phi)"),
)

# Derived schemas, fuzzable alongside the axioms.
DERIVED_SCHEMAS: Dict[str, Schema] = _schemas(
    ("Lemma2", "K[C]phi -> K[C]K[C]phi"),
    ("Lemma3", "Kd[C]B[C][D]phi -> (phi -> B[C][D]phi)"),
)

ALL_SCHEMAS: Dict[str, Schema] = {**AXIOM_SCHEMAS, **DERIVED_SCHEMAS}

# User-facing fuzz targets: the eight numbered axioms (Truth and
# Monotonicity each cover both of their forms) plus the two derived lemmas.
FUZZ_GROUPS: Dict[str, Tuple[str, ...]] = {
    "Truth": ("Truth-K", "Truth-B"),
    "Distributivity": ("Distributivity",),
    "NegIntrospection": ("NegIntrospection",),
    "Monotonicity": ("Monotonicity-K", "Monotonicity-B"),
    "NoneToAct": ("NoneToAct",),
    "JointResponsibility": ("JointResponsibility",),
    "StrictConditional": ("StrictConditional",),
    "IntrospectionOfBlame": ("IntrospectionOfBlame",),
    "Lemma2": ("Lemma2",),
    "Lemma3": ("Lemma3",),
}
# Each concrete form is addressable directly as well.
for _name in ALL_SCHEMAS:
    FUZZ_GROUPS.setdefault(_name, (_name,))


def resolve_fuzz_group(name: str) -> Tuple[str, ...]:
    """Map a user-supplied schema name to concrete schema names."""
    wanted = name.strip().lower().replace("_", "").replace("-", "")
    for key, members in FUZZ_GROUPS.items():
        if key.lower().replace("-", "") == wanted:
            return members
    raise KeyError(name)


# --- matching and instantiation --------------------------------------------

def _match_coal(names: Coalition, members: Coalition, subst) -> bool:
    if len(names) == 1:
        (name,) = names
        bound = subst.get(name)
        if bound is None:
            subst[name] = members
            return True
        return bound == members
    if not all(name in subst for name in names):
        return False
    return frozenset().union(*[subst[name] for name in names]) == members


def _match(pattern: Formula, f: Formula, subst) -> bool:
    cls = pattern.__class__
    if cls is Prop:
        bound = subst.get(pattern.name)
        if bound is None:
            subst[pattern.name] = f
            return True
        return bound == f
    if cls is not f.__class__:
        return False
    if cls is Implies:
        return _match(pattern.left, f.left, subst) and _match(pattern.right, f.right, subst)
    if cls is Not:
        return _match(pattern.child, f.child, subst)
    if not _match_coal(pattern.knowers, f.knowers, subst):
        return False
    if cls is Blame and not _match_coal(pattern.actors, f.actors, subst):
        return False
    return _match(pattern.child, f.child, subst)


def side_conditions_hold(schema: Schema, subst) -> bool:
    for kind, a, b in schema.side:
        if kind == "subset" and not subst[a] <= subst[b]:
            return False
        if kind == "disjoint" and subst[a] & subst[b]:
            return False
    return True


def match_schema(schema: Schema, f: Formula) -> Optional[dict]:
    """Return the metavariable assignment making f an instance, or None.

    Side conditions are enforced; the assignment maps formula variables to
    formulas and coalition variables to frozensets.
    """
    subst: dict = {}
    if _match(schema.pattern, f, subst) and side_conditions_hold(schema, subst):
        return subst
    return None


def instantiate(schema: Schema, subst) -> Formula:
    """Build the concrete instance of a schema under an assignment; an
    unbound metavariable raises KeyError."""
    return _build(schema.pattern, subst)


def _build_coal(names: Coalition, subst) -> Coalition:
    if len(names) == 1:
        (name,) = names
        return subst[name]
    return frozenset().union(*[subst[name] for name in names])


def _build(pattern: Formula, subst) -> Formula:
    cls = pattern.__class__
    if cls is Prop:
        return subst[pattern.name]
    if cls is Not:
        return Not(_build(pattern.child, subst))
    if cls is Implies:
        return Implies(_build(pattern.left, subst), _build(pattern.right, subst))
    if cls is Know:
        return Know(_build_coal(pattern.knowers, subst), _build(pattern.child, subst))
    return Blame(_build_coal(pattern.knowers, subst), _build_coal(pattern.actors, subst),
                 _build(pattern.child, subst))
