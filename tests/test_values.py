"""The hand-written classes against the dataclasses they replaced
(``frozen_values``).  On Hypothesis formulas, plays and profiles, both give
the same hash, ``repr``, field values, pickle arguments and equality, and
every slot refuses assignment and deletion.  On Hypothesis records (games,
verdicts, bounds, schemas and proof steps), both give the same equality,
``repr``, string, hash or refusal to hash, and ``as_dict``; both pickle
round trips hold, and a pickle of the dataclass loads as the new class;
and ``SearchBounds`` refuses the same arguments with the same messages."""

import dataclasses
import io
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen_values as old
from dtw import axioms, proof, semantics
from dtw import formula as new_formula
from dtw import game as new_game


class _New:
    Prop, Not, Implies = new_formula.Prop, new_formula.Not, new_formula.Implies
    Know, Blame = new_formula.Know, new_formula.Blame
    ActionProfile, Play, Game = new_game.ActionProfile, new_game.Play, new_game.Game
    Verdict, SearchBounds = semantics.Verdict, semantics.SearchBounds
    FuzzCounterexample, Schema = semantics.FuzzCounterexample, axioms.Schema
    Axiom, Tautology, Hypothesis = proof.Axiom, proof.Tautology, proof.Hypothesis
    Theorem, ModusPonens = proof.Theorem, proof.ModusPonens
    Necessitation, ProofLine = proof.Necessitation, proof.ProofLine
    ProofScript, CheckResult = proof.ProofScript, proof.CheckResult


FROZEN_RECORDS = ("SearchBounds", "Schema", "Axiom", "Tautology", "Hypothesis",
                  "Theorem", "ModusPonens", "Necessitation", "ProofLine",
                  "ProofScript", "CheckResult")
MUTABLE_RECORDS = ("Game", "Verdict", "FuzzCounterexample")


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


_P = _New.Prop("p")
_EXAMPLES = [
    _New.Prop("p"),
    _New.Not(_New.Prop("p")),
    _New.Implies(_New.Prop("p"), _New.Prop("q")),
    _New.Know({"a"}, _New.Prop("p")),
    _New.Blame(["a"], ("b",), _New.Prop("p")),
    _New.ActionProfile((("a", "0"),)),
    _New.Play("s0", _New.ActionProfile((("a", "0"),)), "o0"),
    _New.SearchBounds(),
    _New.Schema("Truth", _P, ("p",), ()),
    _New.Axiom("Truth-K"),
    _New.Tautology(),
    _New.Hypothesis(1),
    _New.Theorem("t"),
    _New.ModusPonens(1, 2),
    _New.Necessitation(1, frozenset("a")),
    _New.ProofLine(_P, _New.Tautology()),
    _New.ProofScript((), (_New.ProofLine(_P, _New.Hypothesis(1)),), _P),
    _New.CheckResult(True),
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


class Rec:
    """A record to build with either implementation: its class's name, its
    positional arguments and its (keyword, argument) pairs.  Arguments may
    themselves be records, or tuples of them."""

    def __init__(self, name, args, kwargs):
        self.name, self.args, self.kwargs = name, args, kwargs

    def __repr__(self):
        return f"Rec({self.name!r}, {self.args!r}, {self.kwargs!r})"


def make(value, impl):
    """The value a recipe describes, with impl's record classes."""
    if isinstance(value, Rec):
        return getattr(impl, value.name)(*make(value.args, impl),
                                         **{k: make(v, impl) for k, v in value.kwargs})
    if isinstance(value, tuple):
        return tuple(make(v, impl) for v in value)
    return value


def field_names(name):
    return tuple(f.name for f in dataclasses.fields(getattr(old, name)))


def record(name, *fields, optional=0):
    """Recipes for the class called name, given a strategy per field; the
    last ``optional`` fields have defaults and may be left out.  A random
    number of the fields given are passed by position, the rest by keyword."""
    @st.composite
    def recipes(draw):
        values = [draw(f) for f in fields]
        given = len(values) - draw(st.integers(0, optional))
        cut = draw(st.integers(0, given))
        return Rec(name, tuple(values[:cut]),
                   tuple(zip(field_names(name)[cut:given], values[cut:given])))
    return recipes()


_formulas = _recipes.map(lambda r: build(r, _New))
_new_plays = _plays.map(lambda r: build_play(r, _New))
_few = st.integers(0, 2)
_idents = st.sampled_from(("p", "Truth-K"))
_optional_idents = st.none() | _idents
_justifications = st.one_of(
    record("Axiom", _idents),
    record("Tautology"),
    record("Hypothesis", _few),
    record("Theorem", _idents),
    record("ModusPonens", _few, _few),
    record("Necessitation", _few, st.frozensets(st.sampled_from("ab"))),
)
_lines = record("ProofLine", _formulas, _justifications)
_games = record(
    "Game",
    st.sampled_from((("a",), ("a", "b"))),
    st.sampled_from((("s0",), ("s0", "Oct"))),
    st.sampled_from(({}, {"a": (frozenset({"s0"}),)})),
    st.sampled_from((("0", "1"),)),
    st.sampled_from((("o0",), ("o0", "dead"))),
    st.lists(_new_plays, max_size=2).map(tuple),
    st.dictionaries(st.sampled_from("pq"), st.frozensets(_new_plays, max_size=2),
                    max_size=2),
)
_records = st.one_of(
    _justifications,
    _lines,
    record("ProofScript", st.lists(_formulas, max_size=2).map(tuple),
           st.lists(_lines, max_size=2).map(tuple), _formulas),
    record("CheckResult", st.booleans(), st.none() | _few, _optional_idents,
           _optional_idents, optional=3),
    record("Schema", _idents, _formulas, st.sampled_from(((), ("phi",))),
           st.sampled_from(((), ("C", "E"))),
           st.sampled_from(((), (("subset", "C", "E"),))), optional=1),
    record("SearchBounds", *[st.integers(1, 2)] * 5, st.just("exhaustive"),
           st.none() | _few, _few, optional=8),
    _games,
    record("Verdict", st.booleans(), st.none() | _new_plays.map(lambda p: p.profile),
           st.none() | _new_plays, optional=2),
    record("FuzzCounterexample", _idents, _games, _new_plays, _formulas,
           st.dictionaries(st.sampled_from(("phi", "psi")), _formulas, max_size=2),
           _few),
)


class _AsPackage(pickle.Unpickler):
    """Loads a pickle of a ``frozen_values`` record as the package's class
    of that name: so a pickle written while the class was a dataclass loads."""

    def find_class(self, module, name):
        if module == old.__name__:
            return getattr(_New, name)
        return super().find_class(module, name)


@settings(max_examples=300, deadline=None)
@given(_records, _records, st.sampled_from((0, pickle.DEFAULT_PROTOCOL)))
def test_records_match_the_dataclasses(a, b, protocol):
    new_a, new_b = make(a, _New), make(b, _New)
    old_a, old_b = make(a, old), make(b, old)
    assert (repr(new_a), str(new_a)) == (repr(old_a), str(old_a))
    if hasattr(old_a, "as_dict"):
        assert new_a.as_dict() == old_a.as_dict()
    again = make(a, _New)
    assert new_a == again and not new_a != again
    assert (new_a == new_b, new_a != new_b) == (old_a == old_b, old_a != old_b)
    fields = tuple(getattr(new_a, name) for name in field_names(a.name))
    for other in (fields, fields[:1], ()):
        assert (new_a == other, other == new_a, new_a != other) == (False, False, True)
    if a.name in FROZEN_RECORDS:
        assert hash(new_a) == hash(again) == hash(old_a)
    else:
        for value in (new_a, old_a):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)
    for blob in (pickle.dumps(new_a, protocol), pickle.dumps(old_a, protocol)):
        back = _AsPackage(io.BytesIO(blob)).load()
        assert type(back) is type(new_a)
        assert back == new_a  # a set in a field may repr in another order
    if a.name == "Game":
        assert back._block_index == new_a._block_index


def test_a_pickled_game_keeps_its_masks():
    """A loaded game stores its masks; a pickle of one, written while Game
    was a dataclass, loads with them."""
    game = new_game.tarasoff_game()
    before = game.masks
    stale = old.Game(*(getattr(game, name) for name in field_names("Game")))
    stale.__dict__["masks"] = before
    back = _AsPackage(io.BytesIO(pickle.dumps(stale))).load()
    assert back == game and back.masks.full == before.full
    assert back.masks.index == before.index


_MUTABLE = {
    "Game": lambda: _New.Game(("a",), ("s0",), {}, ("0",), ("o0",), (), {}),
    "Verdict": lambda: _New.Verdict(True),
    "FuzzCounterexample": lambda: _New.FuzzCounterexample("Truth", None, None, _P,
                                                          {}, 0),
}


@pytest.mark.parametrize("name", MUTABLE_RECORDS)
def test_the_mutable_records_are_unhashable_and_assignable(name):
    value = _MUTABLE[name]()
    with pytest.raises(TypeError, match="unhashable"):
        {value}
    first = field_names(name)[0]
    setattr(value, first, "changed")
    assert getattr(value, first) == "changed"


@pytest.mark.parametrize("name, args, kwargs", [
    ("Axiom", (), {}),
    ("Axiom", ("x", "y"), {}),
    ("Axiom", (), {"nam": "x"}),
    ("Axiom", ("x",), {"name": "y"}),
    ("Tautology", (1,), {}),
    ("ModusPonens", (1,), {}),
    ("CheckResult", (), {"line": 1}),
    ("SearchBounds", (), {"max_agent": 1}),
    ("SearchBounds", (1,) * 9, {}),
    ("Verdict", (True, None, None, None), {}),
    ("Game", (), {}),
])
def test_bad_constructor_arguments_are_type_errors(name, args, kwargs):
    for impl in (old, _New):
        with pytest.raises(TypeError):
            getattr(impl, name)(*args, **kwargs)


def outcome(build):
    """What building does: the repr of the value, or the exception's type
    and message."""
    try:
        return "built", repr(build())
    except Exception as exc:
        return type(exc).__name__, str(exc)


_BOUND_NAMES = field_names("SearchBounds")
_bound_kwargs = st.fixed_dictionaries({}, optional={
    **{name: st.integers(-1, 2) for name in _BOUND_NAMES[:5]},
    "mode": st.sampled_from(("exhaustive", "random", "sideways", "")),
    "seed": st.none() | _few,
    "iterations": st.integers(-2, 2),
})


@settings(max_examples=300, deadline=None)
@given(_bound_kwargs)
def test_search_bounds_refuse_as_the_dataclass_did(kwargs):
    """The same message, by keyword, by position, and from changing a
    valid value (``replace``, which was ``dataclasses.replace``)."""
    expected = outcome(lambda: old.SearchBounds(**kwargs))
    assert outcome(lambda: _New.SearchBounds(**kwargs)) == expected
    defaults = old.SearchBounds()
    args = [kwargs.get(name, getattr(defaults, name)) for name in _BOUND_NAMES]
    assert outcome(lambda: _New.SearchBounds(*args)) == expected
    assert outcome(lambda: _New.SearchBounds().replace(**kwargs)) == expected
    assert outcome(lambda: dataclasses.replace(defaults, **kwargs)) == expected
