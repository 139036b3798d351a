"""The hand-written immutable value classes against the dataclasses they
replaced (``frozen_values``): on Hypothesis formulas, plays and profiles,
both give the same hash, ``repr``, field values, pickle arguments and
equality, and every slot refuses assignment and deletion."""

import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen_values as old
from dtw import formula as new_formula
from dtw import game as new_game


class _New:
    Prop, Not, Implies = new_formula.Prop, new_formula.Not, new_formula.Implies
    Know, Blame = new_formula.Know, new_formula.Blame
    ActionProfile, Play = new_game.ActionProfile, new_game.Play


# A coalition is given as a set, a list (duplicates included) or a frozenset.
_coalitions = st.tuples(st.sampled_from((set, list, frozenset)),
                        st.lists(st.sampled_from("abcd"), max_size=4))
_props = st.sampled_from(("p", "q", new_formula.TRUE_SEED)).map(
    lambda name: ("Prop", name))
_recipes = st.recursive(_props, lambda kids: st.one_of(
    st.tuples(st.just("Not"), kids),
    st.tuples(st.just("Implies"), kids, kids),
    st.tuples(st.just("Know"), _coalitions, kids),
    st.tuples(st.just("Blame"), _coalitions, _coalitions, kids),
), max_leaves=10)
_profiles = st.dictionaries(st.sampled_from("abc"), st.sampled_from("01"),
                            max_size=3).map(lambda d: tuple(sorted(d.items())))
_plays = st.tuples(st.sampled_from(("s0", "Oct")), _profiles,
                   st.sampled_from(("o0", "dead")))


def build(recipe, impl):
    """The formula a recipe describes, built with impl's classes."""
    kind, *args = recipe
    if kind == "Prop":
        return impl.Prop(args[0])
    if kind == "Implies":
        return impl.Implies(build(args[0], impl), build(args[1], impl))
    *coalitions, child = args
    parts = [container(members) for container, members in coalitions]
    return getattr(impl, kind)(*parts, build(child, impl))


def build_play(recipe, impl):
    initial, assignment, outcome = recipe
    return impl.Play(initial, impl.ActionProfile(assignment), outcome)


def plain(value):
    """A value as nested tuples with the class names, hashes and field
    types spelled out, so values of the two implementations compare."""
    if isinstance(value, (new_formula.Frozen, old.Formula, old.Play,
                          old.ActionProfile)):
        names = [n for n in ("name", "child", "left", "right", "knowers", "actors",
                             "initial", "profile", "outcome", "assignment")
                 if hasattr(value, n)]
        return (type(value).__name__, hash(value),
                tuple((n, plain(getattr(value, n))) for n in names))
    if isinstance(value, tuple):
        return tuple(plain(v) for v in value)
    return type(value).__name__, value


def reduced(value):
    cls, args = value.__reduce__()
    return cls.__name__, plain(args)


def same(new, old_value):
    assert hash(new) == hash(old_value)
    assert repr(new) == repr(old_value)
    assert plain(new) == plain(old_value)
    assert reduced(new) == reduced(old_value)
    back = pickle.loads(pickle.dumps(new))
    assert back == new and plain(back) == plain(new)


@settings(max_examples=300, deadline=None)
@given(_recipes, _recipes)
def test_formulas_match_the_dataclasses(a, b):
    new_a, new_b = build(a, _New), build(b, _New)
    old_a, old_b = build(a, old), build(b, old)
    same(new_a, old_a)
    assert new_a == build(a, _New)
    assert (new_a == new_b, new_a != new_b) == (old_a == old_b, old_a != old_b)


@settings(max_examples=200, deadline=None)
@given(_plays, _plays)
def test_plays_and_profiles_match_the_dataclasses(a, b):
    new_a, new_b = build_play(a, _New), build_play(b, _New)
    old_a, old_b = build_play(a, old), build_play(b, old)
    same(new_a, old_a)
    same(new_a.profile, old_a.profile)
    assert new_a == build_play(a, _New)
    assert (new_a == new_b, new_a != new_b) == (old_a == old_b, old_a != old_b)
    assert ((new_a.profile == new_b.profile)
            == (old_a.profile == old_b.profile))


_EXAMPLES = [
    _New.Prop("p"),
    _New.Not(_New.Prop("p")),
    _New.Implies(_New.Prop("p"), _New.Prop("q")),
    _New.Know({"a"}, _New.Prop("p")),
    _New.Blame(["a"], ("b",), _New.Prop("p")),
    _New.ActionProfile((("a", "0"),)),
    _New.Play("s0", _New.ActionProfile((("a", "0"),)), "o0"),
]


@pytest.mark.parametrize("value", _EXAMPLES, ids=lambda v: type(v).__name__)
def test_every_slot_refuses_assignment_and_deletion(value):
    before = plain(value)
    for name in value.__slots__ + ("other",):
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
    assert plain(value) == before
