"""The group memo of ``parse_script`` against a reader that parses every
line on its own, without a memo: the same ASTs, or the same error with the
same message, position, hint and line.  Also: within one script, and
across the parses of one memo, equal subformulas are one object; two calls
share no node; and a deeply nested line parses without recursion."""

import inspect
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dtw.parser
import dtw.proof
from dtw.errors import ParseError
from dtw.formula import (FALSUM, Implies, Not, Prop, children_of, coalition,
                         node_count, render)
from dtw.lemmas import bundled_scripts, gen_lemma6, gen_lemma7
from dtw.parser import GroupMemo, parse_formula
from dtw.proof import ModusPonens, parse_script, render_script
from frozen_parser import _naive_tokenize, naive_parse_formula


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
# tokens, so that a script's lines repeat their groups.  Groups and
# operators come with and without spaces around them, so that texts which
# differ only in spacing, and so have different keys, meet in one memo.
_atoms = st.sampled_from(("p", "q", "false", "~p", "K[a] q", "B[a][b] p", "Kd[] r"))
_GAP = st.sampled_from(("", " ", "  "))


def _group(inner):
    return st.builds("({}{}{})".format, _GAP, inner, _GAP)


_formulas = st.recursive(_atoms, lambda inner: st.one_of(
    st.builds("~{}".format, _group(inner)),
    st.builds("K[b] {}".format, _group(inner)),
    st.builds("{}{}{}{}{}".format, _group(inner), _GAP,
              st.sampled_from(("->", "&", "|", "<->")), _GAP, _group(inner)),
    st.builds("{}{}->{}{}".format, inner, _GAP, _GAP, inner),
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
            out += draw(_GAP) + draw(st.sampled_from(_OPS)) + draw(_GAP)
        out += f"({draw(_GAP)}{text}{draw(_GAP)})" if paren else text
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
        got = outcome(lambda t: parse_formula(t, memo), text)
        assert got == outcome(parse_formula, text), text
        assert got == outcome(naive_parse_formula, text), text


MEMO_EXAMPLES = [
    ["p q", "(p q) -> r"],
    ["(p -> q) -> r", "(p -> q) r", "(p -> q"],
    ["((p) -> q) & r", "((r) -> q) & r", "(r) -> q"],
    ["(p) & (q)", "p & (q) & (p)", "(p & (q)) & (p)"],
    # Errors after a group that the memo skips: a bad character, an
    # unmatched ')', a missing operator, and errors inside a group that is
    # read between two skipped ones.
    ["(p -> q)", "(p -> q) & $", "((p -> q) é) & (p -> q)"],
    ["(p -> q)", "(p -> q))", "((p -> q))) & (p -> q)"],
    ["(p -> q)", "(p -> q) r", "((p -> q) r)", "p & ((p -> q) -> q) (p -> q)"],
    ["(p) & (q)", "(p) & (r s) & (q)", "(p) & (r $) & (q)", "(p) & ((q) (p)) & (q)"],
    # The root of the first line is '<->', so no right operand is stored;
    # the second line is the text after its first '->'.
    ["(p) -> q <-> r", "q <-> r", "q"],
]


@pytest.mark.parametrize("texts", MEMO_EXAMPLES)
def test_one_memo_examples(texts):
    memo = GroupMemo()
    for text in texts:
        assert (outcome(lambda t: parse_formula(t, memo), text)
                == outcome(parse_formula, text)), text


@pytest.mark.parametrize("texts", MEMO_EXAMPLES)
def test_memo_example_scripts_match_the_per_line_reader(texts):
    """Each text as the last line of a script whose earlier lines are the
    texts before it that parse: an error carries the line that raised it."""
    for k, text in enumerate(texts):
        lines = [t for t in texts[:k] if outcome(parse_formula, t)[0] == "ok"] + [text]
        script = "goal: p\n" + "".join(f"{n}. {line}   taut\n"
                                       for n, line in enumerate(lines, start=1))
        assert outcome(parse_script, script) == per_line(script)


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


def depth0(text):
    """The text outside every parenthesised group."""
    out, depth = [], 0
    for ch in text:
        depth -= ch == ")"
        if depth == 0:
            out.append(ch)
        depth += ch == "("
    return "".join(out)


def test_mp_conclusions_are_the_right_operand_of_their_implication():
    """A line whose root is a depth-0 '->' stores its right operand, so the
    conclusion of each mp line drawn from it is that object (0 of the 127
    mp lines before the memo stored right operands)."""
    script = parse_script(render_script(lemma6(4)))
    shared = 0
    for line in script.lines:
        just = line.justification
        if isinstance(just, ModusPonens):
            implication = script.lines[just.implication - 1].formula
            text = depth0(render(implication))
            if "->" in text.replace("<->", ""):
                assert line.formula is implication.right
                shared += 1
    assert shared == 127


def test_groups_spaced_differently_are_one_object():
    """Keys are text, so a group spaced differently is parsed again, but the
    node table builds it as the object it built before; the white space
    around a whole text is no part of its key."""
    memo = GroupMemo()
    first = parse_formula("(p -> q) & r", memo)
    spaced = parse_formula("( p->q ) & r", memo)
    assert first is spaced and first.child.left is spaced.child.left
    assert parse_formula("  p -> q ", memo) is first.child.left
    assert parse_formula("s -> (p -> q)", memo).right is first.child.left


def boolean_atoms(script):
    """{id: node} over the nodes of the script that a walk entering only
    ``~`` and ``->`` treats as opaque: what a truth table assigns."""
    seen, atoms = set(), {}
    stack = [*script.hypotheses, script.goal, *(line.formula for line in script.lines)]
    while stack:
        f = stack.pop()
        if id(f) not in seen:
            seen.add(id(f))
            if isinstance(f, (Not, Implies)):
                stack.extend(children_of(f))
            else:
                atoms[id(f)] = f
    return atoms


def test_a_script_holds_one_object_per_distinct_subformula():
    """The rendered lemma 6 for n = 6 has 938 distinct subformulas, 90 of
    them Boolean atoms; before the node table, its parse held 2,962 node
    objects and 734 atom objects."""
    script = parse_script(render_script(lemma6(6)))
    held, atoms = nodes(script), boolean_atoms(script)
    assert len(held) == len(set(held.values())) == 938
    assert len(atoms) == len(set(atoms.values())) == 90


@pytest.mark.parametrize("name, text", list(generated_texts()),
                         ids=[name for name, _ in generated_texts()])
def test_no_two_objects_of_a_script_are_equal(name, text):
    held = list(nodes(parse_script(text)).values())
    assert len(set(held)) == len(held)


_SHARED = GroupMemo()
_SEEN = {}  # every node that a parse with ``_SHARED`` gave, by value


def one_object_per_value(formula, seen):
    """Whether each node of ``formula`` is the object that ``seen`` holds
    for its value; a node not yet in ``seen`` is added."""
    stack, visited = [formula], set()
    while stack:
        f = stack.pop()
        if id(f) not in visited:
            visited.add(id(f))
            if seen.setdefault(f, f) is not f:
                return False
            stack.extend(children_of(f))
    return True


@settings(max_examples=400, deadline=None)
@given(_formulas)
def test_a_parse_gives_one_object_per_value(text):
    """Without a memo, and with one memo kept across every example."""
    alone = parse_formula(text)
    assert alone == naive_parse_formula(text)
    assert one_object_per_value(alone, {})
    shared = parse_formula(text, _SHARED)
    assert shared == alone
    assert one_object_per_value(shared, _SEEN)


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


def test_groups_the_memo_has_parsed_are_not_lexed():
    """The parser lexes 3,218 tokens of the formula texts of lemma 6 for
    n = 6.  The rest lie in groups and right operands that the memo has
    parsed, each one '(' token.  Lexing every text whole, as the parser did
    before the memo was keyed on text, reads 38,082."""
    lexer, lexed = dtw.parser._MODALITY_RE, []

    class Counted:
        def findall(self, text):
            tokens = lexer.findall(text)
            lexed.extend(tokens)
            return tokens

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dtw.parser, "_MODALITY_RE", Counted())
        parse_script(render_script(lemma6(6)))
    assert len(lexed) == 3_218


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
