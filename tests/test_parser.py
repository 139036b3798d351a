"""The formula parser against the frozen token-at-a-time parser in
``oracles.py``: on every input, the same AST, or the same error with the
same message, position and hint."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dtw.proof
from dtw.errors import ParseError
from dtw.parser import MAX_NESTING, parse_coalition_token, parse_formula
from dtw.proof import parse_script
from oracles import naive_parse_coalition_token, naive_parse_formula

# Tokens, near-tokens and characters that start no token.
PIECES = (
    "p", "q", "ab1", "x_y", "false", "falsey", "K", "Kd", "B", "K[", "Kd[", "B[",
    "[", "]", ",", "(", ")", "~", "&", "|", "->", "<->",
    "_x", "$", "é", "1", "-", "<", ">", "<-",
    " ", "  ", "\t", "\n", "\u00a0", "",
)
WS = st.sampled_from(("", " ", "\t", "\n  ", "\u00a0"))
soups = st.lists(st.sampled_from(PIECES), max_size=16).map("".join)
coalitions = st.lists(st.sampled_from(("a", "b", "K", "false")), max_size=3).map(
    lambda members: "[" + ",".join(members) + "]")
grammatical = st.recursive(
    st.sampled_from(("p", "q", "false", "K", "Kd", "B", "agent_2")),
    lambda inner: st.one_of(
        st.tuples(st.just("~"), WS, inner),
        st.tuples(st.just("("), WS, inner, WS, st.just(")")),
        st.tuples(inner, WS, st.sampled_from(("&", "|", "->", "<->")), WS, inner),
        st.tuples(st.sampled_from(("K", "Kd")), coalitions, WS, inner),
        st.tuples(st.just("B"), coalitions, WS, coalitions, WS, inner),
    ).map("".join),
    max_leaves=12,
)
# A well-formed text with a soup spliced in at some point.
spliced = st.builds(lambda text, soup, at: text[:at] + soup + text[at:],
                    grammatical, soups, st.integers(0, 60))


@st.composite
def deep(draw):
    """An operand at 99, 100 or 101 levels of nesting, the levels opened by
    a repeated pattern of the constructs that count, then a tail."""
    depth = draw(st.sampled_from((MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1)))
    pattern = draw(st.lists(st.sampled_from(("~", "(", "K[a]", "Kd[]", "B[a][b]", "p -> ")),
                            min_size=1, max_size=4))
    openers = (pattern * depth)[:depth]
    core = draw(st.sampled_from(("p", "p & ~q", "p | ~q", "p <-> ~q", "K[", "B[a]", "é",
                                 "", "(q)")))
    closers = ")" * openers.count("(") if draw(st.booleans()) else ""
    return "".join(openers) + core + closers + draw(soups)


texts = st.one_of(soups, grammatical, spliced, deep())


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.message, exc.pos, exc.expected, exc.line


@settings(max_examples=800, deadline=None)
@given(texts)
def test_formulas_match_the_frozen_parser(text):
    assert outcome(parse_formula, text) == outcome(naive_parse_formula, text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(soups, coalitions, st.builds(str.__add__, coalitions, soups)))
def test_coalitions_match_the_frozen_parser(text):
    assert (outcome(parse_coalition_token, text)
            == outcome(naive_parse_coalition_token, text))


@pytest.mark.parametrize("text", [
    "p | q | r | s", "p & q & r & s", "p & q | r & s | t", "p | q & r -> s | t -> u",
    "p <-> q <-> r", "~p & K[a] q | B[a][b] r & Kd[] s", "(p | q) & (r | s) | t",
])
def test_chains_match_the_frozen_parser(text):
    assert outcome(parse_formula, text) == outcome(naive_parse_formula, text)


@pytest.mark.parametrize("depth", [MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1])
@pytest.mark.parametrize("opener", ["~", "(", "K[a]", "Kd[]", "B[a][b]", "p -> ", "K[", "B[a]"])
@pytest.mark.parametrize("core", ["p", "p <-> ~q"])
def test_nesting_limit_matches_the_frozen_parser(depth, opener, core):
    text = opener * depth + core + ")" * (depth if opener == "(" else 0)
    assert outcome(parse_formula, text) == outcome(naive_parse_formula, text)


@settings(max_examples=200, deadline=None)
@given(st.one_of(grammatical, spliced), st.one_of(grammatical, spliced),
       st.one_of(coalitions, st.builds(str.__add__, coalitions, soups)))
def test_script_errors_match_the_frozen_parser(goal, line, coal):
    """The script reader wraps formula and coalition errors with their line
    number; a nec justification's coalition token has no whitespace."""
    coal = "".join(coal.split())
    goal, line = goal.replace("\n", " "), line.replace("\n", " ")
    text = f"goal: {goal}\n# comment\n1. {line}   taut\n2. {line}   nec 1 {coal}\n"
    got = outcome(parse_script, text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dtw.proof, "parse_formula", naive_parse_formula)
        patch.setattr(dtw.proof, "parse_coalition_token", naive_parse_coalition_token)
        assert got == outcome(parse_script, text)
