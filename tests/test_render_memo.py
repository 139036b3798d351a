"""The render memo of ``render_script`` against the printer frozen in
``frozen_render``, which renders every occurrence: the same bytes on the
bundled and generated scripts, on scripts read back by ``parse_script`` and
on random scripts whose lines reuse earlier lines' formula objects.  Also:
each shared node is rendered once, and deep lines print without
recursion."""

import inspect
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dtw.formula
from dtw.formula import (FALSUM, Blame, Implies, Know, Not, Prop, children_of,
                         conj, disj, iff, render)
from dtw.lemmas import bundled_scripts, gen_lemma_script
from dtw.proof import (ProofLine, ProofScript, Tautology, apply_deduction_theorem,
                       parse_script, render_script)

from frozen_render import frozen_render, frozen_render_script


def lemma6(n):
    return gen_lemma_script("lemma6", knowers=[{f"a{i}"} for i in range(n)],
                            actors=[{f"b{i}"} for i in range(n)],
                            disjuncts=[Prop(f"x{i}") for i in range(n)])


def lemma7(n):
    return gen_lemma_script("lemma7", knowers={"c"} | {f"a{i}" for i in range(n)},
                            actors={"d"} | {f"b{i}" for i in range(n)},
                            sub_knowers=[{f"a{i}"} for i in range(n)],
                            sub_actors=[{f"b{i}"} for i in range(n)],
                            disjuncts=[Prop(f"x{i}") for i in range(n)],
                            phi=Prop("p"))


def corpus():
    """The bundled scripts, lemma 6 for n = 1..6 with and without its last
    hypothesis discharged, and lemma 7 for n = 0..3."""
    yield from sorted(bundled_scripts().items())
    for n in range(1, 7):
        yield f"lemma6_n{n}", lemma6(n)
        yield f"lemma6_n{n}_deduced", apply_deduction_theorem(lemma6(n))
    for n in range(4):
        yield f"lemma7_n{n}", lemma7(n)


CORPUS = list(corpus())


@pytest.mark.parametrize("name, script", CORPUS, ids=[name for name, _ in CORPUS])
def test_corpus_matches_the_frozen_printer(name, script):
    text = render_script(script)
    assert text == frozen_render_script(script)
    # Read back, the script shares its parenthesised groups instead.
    assert render_script(parse_script(text)) == text


_COALITIONS = st.sampled_from((frozenset(), frozenset("a"), frozenset("ab")))


@st.composite
def sharing_scripts(draw):
    """Scripts whose formulas are built from a pool of earlier formula
    objects, so that lines, hypotheses and the goal hold one another and
    share subformulas; ``iff`` also shares within one formula."""
    pool = [Prop("p"), Prop("q"), FALSUM]
    formulas = []
    for _ in range(draw(st.integers(1, 8))):
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        build = draw(st.sampled_from((
            lambda: Not(a), lambda: Implies(a, b), lambda: conj(a, b),
            lambda: disj(a, b), lambda: iff(a, b),
            lambda: Know(draw(_COALITIONS), a),
            lambda: Blame(draw(_COALITIONS), draw(_COALITIONS), a),
        )))
        pool.append(build())
        if draw(st.booleans()):
            formulas.append(pool[-1])
    lines = [ProofLine(f, Tautology())
             for f in formulas or draw(st.lists(st.sampled_from(pool), min_size=1))]
    hypotheses = draw(st.lists(st.sampled_from(pool), max_size=2))
    return ProofScript(tuple(hypotheses), tuple(lines), draw(st.sampled_from(pool)))


@settings(max_examples=400, deadline=None)
@given(sharing_scripts())
def test_shared_objects_print_as_the_frozen_printer(script):
    text = render_script(script)
    assert text == frozen_render_script(script)
    assert parse_script(text) == script
    for line in script.lines:
        assert render(line.formula) == frozen_render(line.formula)


def test_each_shared_node_is_rendered_once(monkeypatch):
    """Each line holds the previous line's formula as one side of an
    implication, the premise or the conclusion in turn, so a printer
    without the memo reads the first line's nodes once per line.  Reads of
    the child slots (and of proposition names) are counted while the
    printer runs, not while it marks the shared nodes: each node must be
    read once per slot."""
    lines = [Know({"a"}, Not(Prop("p")))]
    for k in range(1, 30):
        side = Blame({"a"}, {"b"}, Prop(f"q{k}"))
        lines.append(Implies(lines[-1], side) if k % 2 else Implies(side, lines[-1]))
    script = ProofScript((), tuple(ProofLine(f, Tautology()) for f in lines), lines[-1])
    expected = frozen_render_script(script)
    slots = Counter()
    stack = list(lines)
    while stack:
        node = stack.pop()
        if id(node) not in slots:
            slots[id(node)] = 1 if isinstance(node, Prop) else len(children_of(node))
            stack.extend(children_of(node))

    reads = Counter()
    counting = [True]
    for cls, names in ((Prop, ("name",)), (Not, ("child",)), (Know, ("child",)),
                       (Blame, ("child",)), (Implies, ("left", "right"))):
        for name in names:
            def read(node, slot=cls.__dict__[name]):
                if counting[0]:
                    reads[id(node)] += 1
                return slot.__get__(node)
            monkeypatch.setattr(cls, name, property(read))
    mark = dtw.formula._shared_nodes

    def uncounted_mark(roots):
        counting[0] = False
        try:
            return mark(roots)
        finally:
            counting[0] = True

    monkeypatch.setattr(dtw.formula, "_shared_nodes", uncounted_mark)
    text = render_script(script)
    monkeypatch.undo()
    assert text == expected
    assert reads == slots


@pytest.mark.parametrize("shared_goal", [False, True], ids=["goal-apart", "goal-is-line"])
@pytest.mark.parametrize("kind", ["~", "->right", "->left"])
def test_deep_line_needs_no_recursion(kind, shared_goal):
    """A line 100,000 levels deep prints and reads back with the
    interpreter's stack held to a few frames more than the test itself
    uses, with the goal apart from the line or the same object."""
    p = Prop("p")
    f = p
    for _ in range(10**5):
        f = Not(f) if kind == "~" else Implies(p, f) if kind == "->right" else Implies(f, p)
    script = ProofScript((), (ProofLine(f, Tautology()),), f if shared_goal else p)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        same = parse_script(render_script(script)) == script
    finally:
        sys.setrecursionlimit(limit)
    assert same
