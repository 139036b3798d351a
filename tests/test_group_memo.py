"""The group memo of ``parse_script`` against a reader that parses every
line on its own, without a memo: the same ASTs, or the same error with the
same message, position, hint and line.  Also: within one script, equal
parenthesised subterms are one object; two calls share no node; and a
deeply nested line parses without recursion."""

import inspect
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dtw.parser
import dtw.proof
from dtw.errors import ParseError
from dtw.formula import FALSUM, Prop, children_of, coalition, node_count, render
from dtw.lemmas import bundled_scripts, gen_lemma6, gen_lemma7
from dtw.parser import GroupMemo, parse_formula
from dtw.proof import ModusPonens, parse_script, render_script
from frozen_parser import _naive_tokenize


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.message, exc.pos, exc.expected, exc.line


def per_line(text):
    """``parse_script`` with each formula parsed on its own, no memo."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dtw.proof, "parse_formula", lambda text, memo: parse_formula(text))
        return outcome(parse_script, text)


def lemma6(n):
    agents = [coalition({f"a{i}"}) for i in range(2 * n)]
    return gen_lemma6(agents[:n], agents[n:], [Prop(f"x{i}") for i in range(n)])


def generated_texts():
    """The bundled corpus, lemma 6 for n = 2..6 and lemma 7, rendered."""
    for name, script in sorted(bundled_scripts().items()):
        yield name, render_script(script)
    for n in range(2, 7):
        yield f"gen_lemma6_n{n}", render_script(lemma6(n))
    a, b, c = (coalition({x}) for x in "abc")
    yield "gen_lemma7_n3", render_script(gen_lemma7(
        {"a", "b", "c"}, {"a", "b", "c"}, [a, b, c], [a, b, c],
        [Prop("q"), Prop("r"), Prop("s")], Prop("p")))


@pytest.mark.parametrize("name, text", list(generated_texts()),
                         ids=[name for name, _ in generated_texts()])
def test_generated_scripts_match_the_per_line_reader(name, text):
    got = outcome(parse_script, text)
    assert got[0] == "ok"
    assert got == per_line(text)


# Formula texts that parse, and pieces that do not, built from a few
# tokens, so that a script's lines repeat their groups.
_atoms = st.sampled_from(("p", "q", "false", "~p", "K[a] q", "B[a][b] p", "Kd[] r"))
_formulas = st.recursive(_atoms, lambda inner: st.one_of(
    st.builds("~({})".format, inner),
    st.builds("K[b] ({})".format, inner),
    st.builds("({}) {} ({})".format, inner, st.sampled_from(("->", "&", "|", "<->")), inner),
    st.builds("{} -> {}".format, inner, inner),
), max_leaves=6)
_broken = st.sampled_from(("p q", "p &", "& p", "K[a", "B[a] p", "~", "", "(p", "p)",
                           "K[(] p", "K[a) p", "p -> (q"))
_OPS = ("->", "&", "|", "<->")


@st.composite
def _line(draw, pool):
    """Pool texts, each bare or parenthesised, joined by operators."""
    parts = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()),
                          min_size=1, max_size=3))
    out = ""
    for text, paren in parts:
        if out:
            out += f" {draw(st.sampled_from(_OPS))} "
        out += f"({text})" if paren else text
    return out


@st.composite
def _last_line(draw, pool):
    """A line that repeats the pool's groups and may break: a broken group,
    an unclosed or extra parenthesis, or a token where an operator belongs
    after a group that parsed before."""
    extra = draw(st.lists(st.one_of(_formulas, _broken), max_size=2))
    return (draw(st.sampled_from(("", "(", "p ", "~")))
            + draw(_line(pool + extra))
            + draw(st.sampled_from(("", ")", " p", " (p", " (", f" & ({pool[0]})"))))


@st.composite
def scripts(draw):
    """Clean lines, then a last line that repeats their groups."""
    pool = draw(st.lists(_formulas, min_size=1, max_size=3))
    clean = [draw(_line(pool)) for _ in range(draw(st.integers(1, 4)))]
    text = f"hyp: {draw(_line(pool))}\ngoal: {clean[0]}\n"
    return text + "".join(f"{k}. {line}   taut\n" for k, line
                          in enumerate(clean + [draw(_last_line(pool))], start=1))


@st.composite
def _texts(draw):
    """Texts for one memo: clean ones and ones that may break, over one pool."""
    pool = draw(st.lists(st.one_of(_formulas, _broken), min_size=1, max_size=3))
    return draw(st.lists(st.one_of(_line(pool), _last_line(pool)), min_size=2, max_size=6))


@settings(max_examples=400, deadline=None)
@given(scripts())
def test_random_scripts_match_the_per_line_reader(text):
    assert outcome(parse_script, text) == per_line(text)


@settings(max_examples=400, deadline=None)
@given(_texts())
def test_one_memo_across_failed_parses(texts):
    """A memo kept across texts that fail holds only what parsed: each text
    parses as it does without a memo."""
    memo = GroupMemo()
    for text in texts:
        assert (outcome(lambda t: parse_formula(t, memo), text)
                == outcome(parse_formula, text)), text


@pytest.mark.parametrize("texts", [
    ["p q", "(p q) -> r"],
    ["(p -> q) -> r", "(p -> q) r", "(p -> q"],
    ["((p) -> q) & r", "((r) -> q) & r", "(r) -> q"],
    ["(p) & (q)", "p & (q) & (p)", "(p & (q)) & (p)"],
])
def test_one_memo_examples(texts):
    memo = GroupMemo()
    for text in texts:
        assert (outcome(lambda t: parse_formula(t, memo), text)
                == outcome(parse_formula, text)), text


def nodes(script):
    """{id: node} over every formula node of the script."""
    seen = {}
    stack = [*script.hypotheses, script.goal, *(line.formula for line in script.lines)]
    while stack:
        f = stack.pop()
        if id(f) not in seen:
            seen[id(f)] = f
            stack.extend(children_of(f))
    return seen


def test_mp_implications_hold_their_premise_as_the_same_object():
    script = parse_script(render_script(lemma6(4)))
    shared = 0
    for line in script.lines:
        just = line.justification
        if isinstance(just, ModusPonens):
            premise = script.lines[just.premise - 1].formula
            implication = script.lines[just.implication - 1].formula
            if render(implication).startswith(f"({render(premise)}) -> "):
                assert implication.left is premise
                shared += 1
    assert shared >= 20


def test_a_script_builds_far_fewer_nodes_than_its_tree_size():
    script = parse_script(render_script(lemma6(4)))
    tree = sum(map(node_count, (*script.hypotheses, script.goal,
                                *(line.formula for line in script.lines))))
    assert len(nodes(script)) * 3 < tree


def test_a_modality_is_one_token():
    """The formula texts of lemma 6 for n = 6 hold 67,795 tokens as the
    grammar spells them, one per bracket, comma and member; the parser's
    lexer, which reads a well-formed modality as one token, sees 38,082."""
    texts = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dtw.proof, "parse_formula",
                      lambda text, memo: texts.append(text) or parse_formula(text, memo))
        parse_script(render_script(lemma6(6)))
    assert len(texts) == 589
    # The frozen tokenizer's list ends in an end-of-input token.
    assert sum(len(_naive_tokenize(text)) - 1 for text in texts) == 67_795
    assert sum(len(dtw.parser._MODALITY_RE.findall(text)) for text in texts) == 38_082


def test_two_calls_share_no_node():
    """The memo lives for one call: the only nodes two parses of the same
    text share are those of the falsum constant, which is one object."""
    text = "hyp: (false -> p) -> false\n" + render_script(lemma6(4))
    first, second = parse_script(text), parse_script(text)
    assert first == second
    constant = {id(FALSUM), id(FALSUM.child), id(FALSUM.child.left), id(FALSUM.child.right)}
    assert nodes(first).keys() & nodes(second).keys() <= constant


@pytest.mark.parametrize("opener", ["(", "(p -> "])
def test_deep_line_needs_no_recursion(opener):
    """100,000 levels on one script line parse with the interpreter's stack
    held to a few frames more than the test itself uses, as without a memo."""
    depth = 10**5
    line = opener * depth + "p" + ")" * depth
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        script = parse_script(f"goal: p -> p\n1. {line}   taut\n")
        same = script.lines[0].formula == parse_formula(line)
    finally:
        sys.setrecursionlimit(limit)
    assert same
