"""Formula AST, parser, printer, and minimality expansion."""

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
    big_conj,
    big_disj,
    coalition,
    compile_masks,
    conj,
    disj,
    dual_know,
    expand_minimality,
    falsum,
    iff,
    node_count,
    proper_subsets_of,
    render,
    run_masks,
    subformulas,
    subsets_of,
    verum,
)
from dtw.parser import MAX_NESTING, parse_formula

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
        deep = "~" * MAX_NESTING + "p"
        assert len(subformulas(parse_formula(deep))) == MAX_NESTING + 1
        assert parse_formula("(" * MAX_NESTING + "p" + ")" * MAX_NESTING) == p

    @pytest.mark.parametrize("text", [
        "~" * (MAX_NESTING + 1) + "p",
        "(" * 400 + "p" + ")" * 400,
        "K[a]" * (MAX_NESTING + 1) + "p",
        "p -> " * (MAX_NESTING + 1) + "p",
    ])
    def test_nesting_past_the_limit_is_a_parse_error(self, text):
        with pytest.raises(ParseError) as info:
            parse_formula(text)
        assert "nested more than" in str(info.value)
        assert info.value.pos is not None and info.value.pos > MAX_NESTING

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

    def test_node_budget(self):
        with pytest.raises(UniverseTooLargeError):
            expand_minimality(4, set(), None, p, set("abcdefghij"),
                              node_budget=1000)

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
