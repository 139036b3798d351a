"""Axiom and lemma schemas: each one's instance and metavariables pinned,
matching as the left inverse of instantiation on instances and their
mutants, and the README's list of schemas."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtw import axioms
from dtw.formula import Blame, Implies, Know, Not, Prop, render
from dtw.parser import parse_formula

from oracles import line_mutants

README = Path(__file__).resolve().parent.parent / "README.md"

SIGMA = {"C": frozenset("a"), "D": frozenset("b"), "E": frozenset("c"),
         "F": frozenset("d"), "phi": Prop("p"), "psi": Prop("q")}

# name: (render(instantiate(schema, SIGMA)), formula_vars, coalition_vars, side)
GOLDEN = {
    "Truth-K": ("K[a] p -> p", ("phi",), ("C",), ()),
    "Truth-B": ("B[a][b] p -> p", ("phi",), ("C", "D"), ()),
    "Distributivity": ("K[a] (p -> q) -> K[a] p -> K[a] q",
                       ("phi", "psi"), ("C",), ()),
    "NegIntrospection": ("~K[a] p -> K[a] ~K[a] p", ("phi",), ("C",), ()),
    "Monotonicity-K": ("K[a] p -> K[c] p", ("phi",), ("C", "E"),
                       (("subset", "C", "E"),)),
    "Monotonicity-B": ("B[a][b] p -> B[c][d] p", ("phi",), ("C", "D", "E", "F"),
                       (("subset", "C", "E"), ("subset", "D", "F"))),
    "NoneToAct": ("~B[a][] p", ("phi",), ("C",), ()),
    "JointResponsibility": (
        "~(~K[a] ~B[a][b] p -> ~~K[c] ~B[c][d] q) -> (~p -> q) -> B[a,c][b,d] (~p -> q)",
        ("phi", "psi"), ("C", "D", "E", "F"), (("disjoint", "D", "F"),)),
    "StrictConditional": ("K[a] (p -> q) -> B[a][b] q -> p -> B[a][b] p",
                          ("phi", "psi"), ("C", "D"), ()),
    "IntrospectionOfBlame": ("B[a][b] p -> K[a] (p -> B[a][b] p)",
                             ("phi",), ("C", "D"), ()),
    "Lemma2": ("K[a] p -> K[a] K[a] p", ("phi",), ("C",), ()),
    "Lemma3": ("~K[a] ~B[a][b] p -> p -> B[a][b] p", ("phi",), ("C", "D"), ()),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_schema_is_pinned(name):
    schema = axioms.ALL_SCHEMAS[name]
    assert (render(axioms.instantiate(schema, SIGMA)), schema.formula_vars,
            schema.coalition_vars, schema.side) == GOLDEN[name]


def test_every_schema_is_pinned():
    assert set(axioms.ALL_SCHEMAS) == set(GOLDEN)


def test_readme_lists_each_schema_in_concrete_syntax():
    lines = re.findall(r"^- `([\w-]+)`: `([^`]+)`", README.read_text(encoding="utf-8"),
                       re.MULTILINE)
    assert [name for name, _ in lines] == list(axioms.ALL_SCHEMAS)
    for name, text in lines:
        assert parse_formula(text) == axioms.ALL_SCHEMAS[name].pattern, name


AGENTS = ("a", "b", "c")
coalitions = st.frozensets(st.sampled_from(AGENTS))
formulas = st.recursive(
    st.sampled_from((Prop("p"), Prop("q"))),
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(Implies, kids, kids),
        st.builds(Know, coalitions, kids),
        st.builds(Blame, coalitions, coalitions, kids),
    ),
    max_leaves=5,
)


@st.composite
def substitutions(draw):
    """A schema and an assignment to its metavariables, with the side
    conditions respected or not, as drawn."""
    schema = axioms.ALL_SCHEMAS[draw(st.sampled_from(sorted(axioms.ALL_SCHEMAS)))]
    subst = {name: draw(formulas) for name in schema.formula_vars}
    subst.update((name, draw(coalitions)) for name in schema.coalition_vars)
    if draw(st.booleans()):
        for kind, a, b in schema.side:
            subst[b] = subst[b] | subst[a] if kind == "subset" else subst[b] - subst[a]
    return schema, subst


@settings(max_examples=300, deadline=None)
@given(substitutions())
def test_matching_inverts_instantiation(drawn):
    schema, subst = drawn
    instance = axioms.instantiate(schema, subst)
    # Every side-condition-respecting assignment is recovered; no other is.
    expected = subst if axioms.side_conditions_hold(schema, subst) else None
    assert axioms.match_schema(schema, instance) == expected
    # Whatever any schema matches, among the instance and its mutants, it
    # rebuilds exactly, under side conditions that hold.
    for f in [instance, *line_mutants(instance, set(AGENTS) | {"d"})]:
        for other in axioms.ALL_SCHEMAS.values():
            found = axioms.match_schema(other, f)
            if found is not None:
                assert axioms.instantiate(other, found) == f
                assert axioms.side_conditions_hold(other, found)
