"""Formula AST, parser, printer, and minimality expansion."""

import contextlib
import inspect
import signal
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtw.errors import BadParamsError, EmptyInputError, ParseError, UniverseTooLargeError
from dtw.formula import (
    Blame,
    Implies,
    Know,
    Not,
    Prop,
    agents_of,
    big_conj,
    big_disj,
    coalition,
    compile_masks,
    conj,
    disj,
    expand_minimality,
    falsum,
    iff,
    node_count,
    proper_subsets_of,
    props_of,
    render,
    run_masks,
    subformulas,
    subsets_of,
    verum,
)
from dtw.game import tarasoff_game
from dtw.parser import parse_formula
from dtw.proof import is_tautology
from dtw.semantics import holds, valid_in_game

p, q, r = Prop("p"), Prop("q"), Prop("r")


class TestParse:
    def test_modal_implication(self):
        assert parse_formula("K[a,b] p -> p") == Implies(
            Know(coalition("ab"), p), p
        )

    def test_empty_actor_blame(self):
        assert parse_formula("~B[c][] q") == Not(
            Blame(coalition("c"), coalition(), q)
        )

    def test_conjunction_desugars(self):
        assert parse_formula("p & q") == Not(Implies(p, Not(q)))

    def test_disjunction_desugars(self):
        assert parse_formula("p | q") == Implies(Not(p), q)

    def test_iff_desugars(self):
        assert parse_formula("p <-> q") == conj(Implies(p, q), Implies(q, p))

    def test_false_keyword(self):
        assert parse_formula("false") == falsum()

    def test_dual_knowledge(self):
        assert parse_formula("Kd[a] p") == Not(Know(coalition("a"), Not(p)))

    def test_nesting_up_to_the_limit_parses(self):
        """Up to 100 levels, the old parser's limit."""
        deep = "~" * 100 + "p"
        assert len(subformulas(parse_formula(deep))) == 101
        assert parse_formula("(" * 100 + "p" + ")" * 100) == p

    @pytest.mark.parametrize("opener", ["~", "(", "K[parents] ", "B[university][parents] ",
                                        "killed -> "],
                             ids=["~", "(", "K", "B", "->"])
    def test_deep_nesting_needs_no_recursion(self, opener):
        """100,000 levels parse, print back, evaluate and go through the
        truth table with the interpreter's stack held to a few frames more
        than the test itself uses, so that per-level recursion fails."""
        depth = 10**5
        text = opener * depth + "killed" + ")" * (depth if opener == "(" else 0)
        game = tarasoff_game()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 50)
        try:
            f = parse_formula(text)
            assert parse_formula(render(f)) == f
            verdicts = valid_in_game(game, f).holds, is_tautology(f)
        finally:
            sys.setrecursionlimit(limit)
        assert verdicts == ((opener == "killed -> "),) * 2

    def test_arrow_right_associative(self):
        assert parse_formula("p -> q -> r") == Implies(p, Implies(q, r))

    def test_iff_left_associative(self):
        one = parse_formula("p <-> q <-> r")
        assert one == iff(iff(p, q), r)

    def test_precedence_conj_over_disj_over_arrow(self):
        assert parse_formula("p & q | r -> p") == Implies(
            disj(conj(p, q), r), p
        )

    def test_modality_binds_like_negation(self):
        assert parse_formula("K[a] p & q") == conj(Know(coalition("a"), p), q)

    def test_modality_heads_are_plain_props_without_bracket(self):
        assert parse_formula("K -> Kd & B") == Implies(
            Prop("K"), conj(Prop("Kd"), Prop("B"))
        )

    def test_whitespace_insensitive(self):
        assert parse_formula("K[ a , b ]p->p") == parse_formula("K[a,b] p -> p")

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            parse_formula("   ")

    def test_error_carries_position_and_hint(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("K[a p")
        assert exc.value.pos == 5
        assert exc.value.expected

    def test_reserved_prefix_unlexable(self):
        with pytest.raises(ParseError):
            parse_formula("__true_seed")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as exc:
            parse_formula("p q")
        assert exc.value.pos == 3


class TestRender:
    def test_empty_coalition(self):
        assert render(Know(coalition(), p)) == "K[] p"

    def test_right_associative_no_parens(self):
        assert render(Implies(p, Implies(q, r))) == "p -> q -> r"

    def test_left_nested_implication_parenthesized(self):
        assert render(Implies(Implies(p, q), r)) == "(p -> q) -> r"

    def test_sorted_members_and_unary_binding(self):
        f = Blame(coalition("ba"), coalition("c"), Not(p))
        assert render(f) == "B[a,b][c] ~p"

    def test_falsum_prints_keyword(self):
        assert render(falsum()) == "false"
        assert render(verum()) == "~false"

    def test_negated_implication_parenthesized(self):
        assert render(Not(Implies(p, q))) == "~(p -> q)"

    def test_depth_is_not_limited_by_the_stack(self):
        chain = big_conj([p] * 3000)  # about 6,000 levels, left-nested
        text = render(Implies(chain, q))
        assert text.startswith("~(~(~(") and text.endswith(" -> ~p) -> ~p) -> q")


class TestEquality:
    def test_structural_and_set_valued_coalitions(self):
        assert Blame(coalition("ab"), coalition("c"), p) == Blame(["b", "a"], ["c"], p)
        assert Blame(coalition("ab"), coalition("c"), p) != Blame(coalition("ab"),
                                                                    coalition("d"), p)
        assert Know(coalition("a"), p) != Blame(coalition("a"), coalition(), p)
        assert Implies(p, q) != Implies(q, p)
        assert p != "p" and p != None  # noqa: E711

    def test_fields_are_compared_when_hashes_collide(self):
        a, b = coalition("a"), coalition("b")
        for x, y in [
            (p, Prop("q")),
            (Not(p), Not(q)),
            (Implies(p, q), Implies(p, r)),
            (Implies(q, p), Implies(r, p)),
            (Know(a, p), Know(b, p)),
            (Blame(a, a, p), Blame(b, a, p)),
            (Blame(a, a, p), Blame(a, b, p)),
            (Blame(a, a, p), Blame(a, a, q)),
        ]:
            object.__setattr__(y, "_hash", x._hash)  # a forced collision
            assert x != y and y != x

    def test_depth_is_not_limited_by_the_stack(self):
        left, right = big_conj([p] * 3000), big_conj([p] * 3000)
        assert left is not right and left == right
        assert big_conj([p] * 2999 + [q]) != right
        assert Implies(right, big_conj([q] + [p] * 2999)) != Implies(left, left)


coalitions = st.frozensets(st.sampled_from(["a", "b", "c", "d"]), max_size=4)
_atoms = st.one_of(
    st.builds(Prop, st.sampled_from(["p", "q", "r", "s"])), st.just(falsum())
)
formula_strategy = st.recursive(
    _atoms,
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(Implies, children, children),
        st.builds(Know, coalitions, children),
        st.builds(Blame, coalitions, coalitions, children),
    ),
    max_leaves=25,
)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(formula_strategy)
    def test_parse_render_is_identity(self, f):
        assert parse_formula(render(f)) == f


class TestSubformulas:
    def test_atom(self):
        assert subformulas(p) == [p]

    def test_deduplication(self):
        assert subformulas(Implies(p, p)) == [p, Implies(p, p)]

    def test_post_order(self):
        f = Know(coalition("a"), Implies(p, q))
        assert subformulas(f) == [p, q, Implies(p, q), f]

    def test_shared_nodes_keep_their_first_place(self):
        left, right = Implies(p, q), Implies(q, p)
        f = Implies(left, Implies(right, left))
        assert subformulas(f) == [p, q, left, right, Implies(right, left), f]

    def test_depth_is_not_limited_by_the_stack(self):
        f = p
        for _ in range(20000):
            f = Not(f)
        assert len(subformulas(f)) == 20001
        program = compile_masks(f)
        assert run_masks(program, 0b11, lambda i, body: 0b01)[-1] == 0b01


class TestSubsets:
    def test_order_by_size_then_lex(self):
        assert subsets_of({"d", "a"}) == [
            frozenset(),
            frozenset({"a"}),
            frozenset({"d"}),
            frozenset({"a", "d"}),
        ]

    def test_proper_excludes_full(self):
        assert proper_subsets_of({"a"}) == [frozenset()]
        assert proper_subsets_of(set()) == []


class TestExpandMinimality:
    def test_kind1_singleton(self):
        got = expand_minimality(1, {"a"}, {"d"}, p, {"a", "d"})
        want = conj(
            Blame(coalition("a"), coalition("d"), p),
            Not(Blame(coalition(), coalition("d"), p)),
        )
        assert got == want

    def test_kind1_empty_knowers_vacuous_disjunction(self):
        got = expand_minimality(1, set(), {"d"}, p, {"d"})
        want = conj(Blame(coalition(), coalition("d"), p), Not(falsum()))
        assert got == want

    def test_kind4_outer_disjunct_count_matches_subset_enumeration(self):
        universe = {"a"}
        got = expand_minimality(4, {"a"}, None, p, universe)
        # Independent count: one disjunct per subset of the universe.
        expected_disjuncts = len(subsets_of(universe))
        spine = 1
        node = got
        while isinstance(node, Implies) and isinstance(node.left, Not):
            # left-folded disjunction x1 v x2 = ~x1 -> x2
            spine += 1
            node = node.left.child
        assert expected_disjuncts == 2
        assert spine == expected_disjuncts

    def test_kind4_blame_atom_count_matches_independent_counter(self):
        universe = {"a", "b"}
        got = expand_minimality(4, {"a"}, None, p, universe)
        blame_atoms = sum(1 for g in _all_nodes(got) if isinstance(g, Blame))
        expected = 0
        for d in subsets_of(universe):
            expected += 1  # the blame conjunct itself
            expected += len(subsets_of(universe)) * len(proper_subsets_of(d))
            expected += len(proper_subsets_of({"a"}))
        assert blame_atoms == expected

    def test_kind4_rejects_actors(self):
        with pytest.raises(BadParamsError):
            expand_minimality(4, {"a"}, {"a"}, p, {"a"})

    def test_kinds_validate_universe(self):
        with pytest.raises(BadParamsError):
            expand_minimality(1, {"a"}, {"x"}, p, {"a"})

    def test_node_budget(self, monkeypatch):
        monkeypatch.setenv("DTW_BUDGET", "1000")
        with pytest.raises(UniverseTooLargeError):
            expand_minimality(4, set(), None, p, set("abcdefghij"))

    def test_env_var_overrides_budget(self, monkeypatch):
        monkeypatch.setenv("DTW_BUDGET", "10")
        with pytest.raises(UniverseTooLargeError):
            expand_minimality(2, {"a"}, {"b"}, p, {"a", "b", "c"})
        monkeypatch.setenv("DTW_BUDGET", "1000000")
        expand_minimality(2, {"a"}, {"b"}, p, {"a", "b", "c"})

    def test_only_core_constructors(self):
        got = expand_minimality(3, {"a"}, {"b"}, p, {"a", "b"})
        for g in _all_nodes(got):
            assert isinstance(g, (Prop, Not, Implies, Know, Blame))


@contextlib.contextmanager
def within_a_second():
    """Raise TimeoutError in the body once it has run for a second."""
    def expire(signum, frame):
        raise TimeoutError("took more than a second")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def tower():
    """``f = f -> f`` over one proposition, 60 levels high: 61 distinct
    nodes, 2**61 - 1 in the tree.  Built in each test, not passed to it, so
    that a failure report does not print it."""
    f = Prop("killed")
    for _ in range(60):
        f = Implies(f, f)
    return f


class TestSharedSubterms:
    """Every walk of a tower is linear in its distinct nodes."""

    def test_node_count_counts_the_tree(self):
        with within_a_second():
            assert node_count(tower()) == 2**61 - 1

    def test_expansion_is_refused_at_once(self):
        with within_a_second(), pytest.raises(UniverseTooLargeError):
            expand_minimality(1, {"a"}, {"b"}, tower(), {"a", "b"})

    def test_walks_visit_each_distinct_node_once(self):
        game, f = tarasoff_game(), tower()
        walks = {
            "subformulas": lambda: len(subformulas(f)) == 61,
            "agents_of": lambda: agents_of(f) == frozenset(),
            "props_of": lambda: props_of(f) == {"killed"},
            "compile_masks": lambda: len(compile_masks(f).code) == 61,
            "is_tautology": lambda: is_tautology(f),
            "holds": lambda: holds(game, game.plays[0], f).holds,
        }
        for name, walk in walks.items():
            with within_a_second():
                assert walk(), name

    def test_equality_enters_each_pair_once(self):
        """Two towers built apart share no node, and compare equal without
        walking their trees.  So does a braid, whose two strands at each
        level are equal but distinct: ``b = b -> c`` and ``c = c -> b``.
        The tower's nodes meet both strands, so an equality that kept only
        the last node compared with each node would walk the tree."""
        b = c = Prop("killed")
        for _ in range(60):
            b, c = Implies(b, c), Implies(c, b)
        with within_a_second():
            assert tower() == tower()
            assert tower() == b and c == tower()
            assert tower() != Implies(tower().left, Prop("killed"))


def _all_nodes(f):
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, Not):
            stack.append(g.child)
        elif isinstance(g, Implies):
            stack.extend((g.left, g.right))
        elif isinstance(g, (Know, Blame)):
            stack.append(g.child)


class TestBigConnectives:
    def test_empty_disjunction_is_falsum(self):
        assert big_disj([]) == falsum()

    def test_empty_conjunction_is_not_falsum(self):
        assert big_conj([]) == Not(falsum())

    def test_singletons_unwrapped(self):
        assert big_disj([p]) == p
        assert big_conj([p]) == p

    def test_left_fold(self):
        assert big_disj([p, q, r]) == disj(disj(p, q), r)
        assert node_count(big_disj([p, q, r])) > node_count(p)
