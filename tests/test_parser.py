"""The formula parser against the frozen token-at-a-time parser in
``frozen_parser.py``: on every input, the same AST, or the same error with
the same message, position and hint.  The frozen parser's nesting limit is
lifted, since the package parser has none, so inputs around the old limit
are compared AST for AST."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dtw.parser
import dtw.proof
import frozen_parser
from dtw.errors import ParseError
from dtw.parser import GroupMemo, parse_coalition_token, parse_formula
from dtw.proof import parse_script
from frozen_parser import naive_parse_coalition_token, naive_parse_formula

OLD_LIMIT = frozen_parser._NAIVE_MAX_NESTING


@pytest.fixture(autouse=True, scope="module")
def _lift_the_frozen_limit():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frozen_parser, "_NAIVE_MAX_NESTING", float("inf"))
        yield

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
    a repeated pattern of the constructs that the old limit counted, then a
    tail."""
    depth = draw(st.sampled_from((OLD_LIMIT - 1, OLD_LIMIT, OLD_LIMIT + 1)))
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


@pytest.mark.parametrize("depth", [OLD_LIMIT - 1, OLD_LIMIT, OLD_LIMIT + 1])
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
    number; a nec justification's coalition token has no whitespace.  The
    reader, with its per-script group memo, is compared with the frozen
    parser, which is given each line's text and ignores the memo."""
    coal = "".join(coal.split())
    goal, line = goal.replace("\n", " "), line.replace("\n", " ")
    text = f"goal: {goal}\n# comment\n1. {line}   taut\n2. {line}   nec 1 {coal}\n"
    got = outcome(parse_script, text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dtw.proof, "parse_formula", lambda text, memo: naive_parse_formula(text))
        patch.setattr(dtw.proof, "parse_coalition_token", naive_parse_coalition_token)
        assert got == outcome(parse_script, text)


# Modalities spelled with whitespace in every gap, well formed or not: each
# well-formed one is a single token of the package's lexer, and each other
# one is read member by member, as the frozen parser reads both.
MODALITIES = [
    "B [a] [ b ,c ] p", "Kd [a]p", "K [ a , b ] p", "K\t[\ta\t]\tp", "B\u00a0[a]\u00a0[b]\u00a0p",
    "K[ ] p", "Kd []  q", "K [a] [b] p", "Kd[a][b] p", "K[K] p", "K[Kd] Kd[B] B[K][Kd] p",
    "K[a,,b] p", "K[a b] p", "K[", "K[a", "K[a,", "B[a]p", "B[a] [b c] p", "B[a][", "K[a,] p",
    "K[,a] p", "K [a]] p", "K[1] p", "K[_a] p", "K[a]é", "éK[a] p",
    "K[false]p", "K[a,false]p", "K[false", "K[falsey] p", "B[false][a] p", "B[a][false] p",
    "[a]", "[a] p", "p [a]", "p K[a] q", "p K[a]", "K[a] p K[b] q", "(K[a] p) K[a] q",
    "K[a, K[b]] p", "B[a]K[b]p", "B[K[a]] p", "K[K [a]] p", "B[a] Kd[b] p",
    "(K[a] p", "K[a] p)", "~K[a]", "K[a]", "B[a][b]", "Kd[]", "K", "Kd", "B", "K p",
    "xK[a] p", "K[a]K[b]", "K[a]&K[b]", "K[a]->K[b] q", "~(K[a] p -> B [a] [b] (q))",
    # Errors that start at a merged modality token: one as a member at the
    # start, middle and end of a coalition, after a closed formula or ')',
    # and where a coalition's '[' is due.
    "K[K[b]]p", "K[ K [b] ]p", "K[a, Kd [b]]p", "K[a,Kd[b]]p", "B[a][b, B[c] [d]]p",
    "B[a][b,B[c][d]]p", "(p) K[a] q", "(p)K[a]q", "p -> q B[a][b]", "B[a] K[b] p",
]

GAP = st.sampled_from(("", " ", "\t", "\u00a0"))
MEMBERS = st.sampled_from(("a", "b", "K", "Kd", "B", "false", "falsey", "", "a b", "K[b]", "("))


@st.composite
def spaced_coalitions(draw):
    """A bracket with a gap around every member and comma; sometimes a
    member that is no identifier, or no closing bracket."""
    members = draw(st.lists(MEMBERS, max_size=3))
    sep = draw(GAP) + "," + draw(GAP)
    close = draw(st.sampled_from(("]", "]", "]", "")))
    return "[" + draw(GAP) + sep.join(members) + draw(GAP) + close


spaced = st.recursive(
    st.sampled_from(("p", "q", "false", "K", "B")),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(("K", "Kd")), GAP, spaced_coalitions(), GAP, inner),
        st.tuples(st.just("B"), GAP, spaced_coalitions(), GAP, spaced_coalitions(),
                  GAP, inner),
        st.tuples(inner, GAP, st.sampled_from(("&", "->", "")), GAP, inner),
        st.tuples(st.just("("), inner, st.just(")")),
    ).map("".join),
    max_leaves=8,
)
spaced_texts = st.one_of(spaced, st.sampled_from(MODALITIES),
                         st.builds(lambda text, soup, at: text[:at] + soup + text[at:],
                                   spaced, soups, st.integers(0, 40)))


def frozen_script_outcome(text):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dtw.proof, "parse_formula", lambda text, memo: naive_parse_formula(text))
        patch.setattr(dtw.proof, "parse_coalition_token", naive_parse_coalition_token)
        return outcome(parse_script, text)


def modality_scripts(text):
    """Scripts that hold the text as a hypothesis, as the goal, and on
    lines that a group memo reads after other lines."""
    line = text.replace("\n", " ")
    return [f"hyp: {line}\ngoal: p\n1. p   taut\n",
            f"goal: {line}\n1. p   taut\n",
            f"goal: p\n1. K[a] p   taut\n2. {line}   nec 1 [a, b]\n3. ({line})   taut\n"]


@pytest.mark.parametrize("text", MODALITIES)
def test_modalities_match_the_frozen_parser(text):
    assert outcome(parse_formula, text) == outcome(naive_parse_formula, text)


@pytest.mark.parametrize("text", MODALITIES)
def test_modality_scripts_match_the_frozen_parser(text):
    for script in modality_scripts(text):
        assert outcome(parse_script, script) == frozen_script_outcome(script)


@settings(max_examples=500, deadline=None)
@given(spaced_texts)
def test_spaced_modalities_match_the_frozen_parser(text):
    assert outcome(parse_formula, text) == outcome(naive_parse_formula, text)


@settings(max_examples=200, deadline=None)
@given(spaced_texts)
def test_spaced_modality_scripts_match_the_frozen_parser(text):
    for script in modality_scripts(text):
        assert outcome(parse_script, script) == frozen_script_outcome(script)


@pytest.mark.parametrize("text", ["K[]", "K[a]", "Kd[a]", "B[a][b]", "[a] K[b]", "[ a , b ]",
                                  "[a b]", "[false]", "[K[a]]", "[K[b]]", "[a K[b]]",
                                  "[a, Kd [b]]", "[B[c] [d]]"])
def test_coalitions_with_modalities_match_the_frozen_parser(text):
    assert (outcome(parse_coalition_token, text)
            == outcome(naive_parse_coalition_token, text))


@pytest.mark.parametrize("memo", [None, GroupMemo()], ids=["alone", "memo"])
@pytest.mark.parametrize("text", ["K[a b] p", "p K[a] q", "K[K[b]]p", "B[a] K[b] p", "(p",
                                  "p $"])
def test_a_failing_text_is_read_once(text, memo):
    """The error comes from the one reading of the text."""
    made = []

    class Counted(dtw.parser._Parser):
        def __init__(self, *args):
            made.append(args[0])
            super().__init__(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dtw.parser, "_Parser", Counted)
        with pytest.raises(ParseError):
            parse_formula(text, memo)
    assert made == [text]


# Texts of modality heads, brackets, commas, members, whole modalities and
# coalitions, run together or spaced: most are malformed, and many merge a
# well-formed modality with what follows or precedes it.
MERGED = ("K", "Kd", "B", "[", "]", ",", "a", "b", "false", "(", ")", "~", "->", "&", "|",
          "<->", "p", "x", "$", " ", "K[a]", "B[a][b]", "Kd[]", "[a,b]")
SHARED_MEMO = GroupMemo()  # kept across examples, as one script's lines share one


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(MERGED), min_size=1, max_size=12).map("".join))
def test_merged_tokens_match_the_frozen_parser(text):
    frozen = outcome(naive_parse_formula, text)
    assert outcome(parse_formula, text) == frozen
    assert outcome(lambda text: parse_formula(text, SHARED_MEMO), text) == frozen
    assert (outcome(parse_coalition_token, text)
            == outcome(naive_parse_coalition_token, text))
