"""Schema matching, tautology checking, proof checking, deduction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtw import axioms
from dtw.errors import BadParamsError, ParseError, TooManyAtomsError
from dtw.formula import (
    Blame,
    Implies,
    Know,
    Not,
    Prop,
    big_conj,
    big_disj,
    coalition,
    falsum,
    render,
)
from dtw.parser import parse_formula
from dtw.proof import (
    Axiom,
    Hypothesis,
    Library,
    ModusPonens,
    Necessitation,
    ProofLine,
    ProofScript,
    ScriptBuilder,
    Tautology,
    Theorem,
    apply_deduction_theorem,
    boolean_atoms,
    check_proof,
    is_tautology,
    match_axiom,
    parse_script,
    render_script,
)

from oracles import naive_tautology

p, q, r = Prop("p"), Prop("q"), Prop("r")
A = coalition("a")

# Twelve distinct atoms for truth tables: propositions and modal formulas.
ATOM_POOL = [Prop(f"x{i}") for i in range(7)] + [
    Know(A, p),
    Know(A, Not(p)),
    Know(coalition("ab"), p),
    Blame(A, coalition("b"), p),
    Blame(coalition(), A, Implies(p, q)),
]


def _connectives(kids):
    return st.one_of(st.builds(Not, kids), st.builds(Implies, kids, kids))


@st.composite
def boolean_formulas(draw):
    """Random Boolean combination using every one of 1-12 atoms, plus a
    second formula over the same atoms."""
    n = draw(st.integers(1, len(ATOM_POOL)))
    atoms = draw(st.permutations(ATOM_POOL))[:n]
    parts = list(atoms)
    while len(parts) > 1:
        left, right = parts.pop(), parts.pop()
        if draw(st.booleans()):
            left = Not(left)
        parts.insert(draw(st.integers(0, len(parts))), Implies(left, right))
    other = draw(st.recursive(st.sampled_from(atoms), _connectives, max_leaves=6))
    return parts[0], other


class TestMatchAxiom:
    def test_truth_k(self):
        got = match_axiom("Truth-K", parse_formula("K[a]p -> p"))
        assert got == {"C": A, "phi": p}

    def test_none_to_act(self):
        got = match_axiom("NoneToAct", parse_formula("~B[a,b][] q"))
        assert got == {"C": coalition("ab"), "phi": q}

    def test_joint_responsibility_side_condition(self):
        d = coalition("d")
        body = axioms.instantiate(
            axioms.AXIOM_SCHEMAS["JointResponsibility"],
            {"C": A, "D": d, "E": A, "F": d, "phi": p, "psi": q},
        )
        assert match_axiom("JointResponsibility", body) is None

    def test_monotonicity_requires_subset(self):
        assert match_axiom("Monotonicity-K", parse_formula("K[a]p -> K[a,b]p"))
        assert match_axiom("Monotonicity-K", parse_formula("K[a,b]p -> K[a]p")) is None

    def test_unknown_axiom(self):
        with pytest.raises(BadParamsError):
            match_axiom("Reflexivity", p)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(axioms.AXIOM_SCHEMAS)), st.integers(0, 10**6))
    def test_left_inverse_of_instantiation(self, name, seed):
        schema = axioms.AXIOM_SCHEMAS[name]
        rng = random.Random(seed)
        agents = ("a", "b", "c")
        subst = {}
        for var in schema.formula_vars:
            depth = rng.randrange(3)
            from dtw.semantics import random_formula

            subst[var] = random_formula(rng, ("p", "q"), agents, depth)
        for var in schema.coalition_vars:
            subst[var] = frozenset(x for x in agents if rng.random() < 0.5)
        for kind, small, big in schema.side:
            if kind == "subset":
                subst[big] = subst[big] | subst[small]
            else:
                subst[big] = subst[big] - subst[small]
        instance = axioms.instantiate(schema, subst)
        recovered = match_axiom(name, instance)
        assert recovered is not None
        assert axioms.instantiate(schema, recovered) == instance


class TestTautology:
    def test_identity(self):
        assert is_tautology(parse_formula("p -> p"))

    def test_modal_atom(self):
        assert is_tautology(parse_formula("K[a]p -> K[a]p"))
        assert not is_tautology(parse_formula("K[a]p -> K[a,b]p"))

    def test_disjunction_weakening_over_modal_atoms(self):
        chi = [Know(A, p), Blame(A, A, q), Prop("chi3")]
        f = Implies(big_disj(chi[:2]), big_disj(chi))
        assert is_tautology(f)

    def test_falsum_implies_anything(self):
        assert is_tautology(Implies(falsum(), Blame(coalition(), coalition(), falsum())))

    def test_not_a_tautology(self):
        assert not is_tautology(parse_formula("p -> q"))

    @settings(max_examples=40, deadline=None)
    @given(boolean_formulas())
    def test_agrees_with_row_by_row_truth_table(self, formulas):
        f, g = formulas
        for candidate in (
            f,
            Implies(g, f),
            Implies(f, Implies(g, f)),
            Implies(Implies(f, g), Implies(Not(g), Not(f))),
        ):
            assert is_tautology(candidate) == naive_tautology(candidate), (
                render(candidate)
            )

    def test_first_and_last_rows_checked(self):
        for n in (12, 20):
            atoms = [Prop(f"x{i}") for i in range(n)]
            assert not is_tautology(big_disj(atoms))
            assert not is_tautology(Not(big_conj(atoms)))
            assert is_tautology(big_disj(atoms + [Not(big_conj(atoms))]))

    def test_atom_cap(self):
        f = big_disj([Prop(f"x{i}") for i in range(21)])
        with pytest.raises(TooManyAtomsError):
            is_tautology(f)

    def test_depth_is_not_limited_by_the_stack(self):
        atoms = [Prop(f"x{i % 7}") for i in range(3000)]  # about 6,000 levels
        assert is_tautology(Implies(big_conj(atoms), Prop("x6")))
        assert boolean_atoms(Implies(big_conj(atoms), Know(A, p))) == [
            Prop(f"x{i}") for i in range(7)] + [Know(A, p)]


def two_axiom_script():
    b = ScriptBuilder()
    b.axiom("Truth-K", parse_formula("K[a]p -> p"))
    b.axiom("Truth-K", parse_formula("K[a]K[a]p -> K[a]p"))
    return b.build(prune=False)


class TestCheckProof:
    def test_two_independent_axiom_instances(self):
        assert check_proof(two_axiom_script()).accepted

    def test_rejects_wrong_axiom_instance(self):
        script = ProofScript(
            (), (ProofLine(parse_formula("K[a]p -> q"), Axiom("Truth-K")),),
            parse_formula("K[a]p -> q"),
        )
        res = check_proof(script)
        assert not res.accepted and res.line == 1 and res.code == "axiom-mismatch"

    def test_modus_ponens_shape_enforced(self):
        lines = (
            ProofLine(p, Hypothesis(1)),
            ProofLine(Implies(q, r), Hypothesis(2)),
            ProofLine(r, ModusPonens(1, 2)),
        )
        res = check_proof(ProofScript((p, Implies(q, r)), lines, r))
        assert not res.accepted and res.line == 3
        assert res.code == "modus-ponens-mismatch"

    def test_forward_reference_rejected(self):
        lines = (
            ProofLine(q, ModusPonens(1, 2)),
            ProofLine(Implies(q, q), Tautology()),
        )
        res = check_proof(ProofScript((), lines, q))
        assert not res.accepted and res.code == "bad-line-reference"

    def test_goal_must_match_last_line(self):
        script = two_axiom_script()
        res = check_proof(ProofScript(script.hypotheses, script.lines, p))
        assert not res.accepted and res.code == "goal-mismatch"

    def test_necessitation_on_theorem_line(self):
        b = ScriptBuilder()
        one = b.taut(parse_formula("p -> p"))
        b.nec(one, {"a"})
        assert check_proof(b.build()).accepted

    def test_necessitation_under_hypotheses_rejected(self):
        lines = (
            ProofLine(p, Hypothesis(1)),
            ProofLine(Know(A, p), Necessitation(1, A)),
        )
        res = check_proof(ProofScript((p,), lines, Know(A, p)))
        assert not res.accepted
        assert res.code == "necessitation-under-hypotheses"

    def test_necessitation_transitively_tainted(self):
        # p, p->q |- q by MP; necessitating q must still be rejected.
        lines = (
            ProofLine(p, Hypothesis(1)),
            ProofLine(Implies(p, q), Hypothesis(2)),
            ProofLine(q, ModusPonens(1, 2)),
            ProofLine(Know(A, q), Necessitation(3, A)),
        )
        res = check_proof(ProofScript((p, Implies(p, q)), lines, Know(A, q)))
        assert not res.accepted
        assert res.code == "necessitation-under-hypotheses"

    def test_theorem_citation(self):
        lib = Library()
        lib.register("identity", parse_formula("p -> p"))
        lines = (ProofLine(parse_formula("p -> p"), Theorem("identity")),)
        assert check_proof(ProofScript((), lines, parse_formula("p -> p")),
                           lib).accepted
        res = check_proof(
            ProofScript((), (ProofLine(parse_formula("q -> q"),
                                       Theorem("identity")),),
                        parse_formula("q -> q")),
            lib,
        )
        assert not res.accepted and res.code == "theorem-mismatch"

    def test_unknown_theorem(self):
        lines = (ProofLine(p, Theorem("ghost")),)
        res = check_proof(ProofScript((), lines, p))
        assert not res.accepted and res.code == "unknown-theorem"

    def test_library_conflicting_registration(self):
        lib = Library()
        lib.register("x", p)
        lib.register("x", p)
        with pytest.raises(BadParamsError):
            lib.register("x", q)

    def test_mutating_one_line_breaks_acceptance(self):
        script = two_axiom_script()
        lines = list(script.lines)
        lines[0] = ProofLine(Not(lines[0].formula), lines[0].justification)
        res = check_proof(ProofScript((), tuple(lines), script.goal))
        assert not res.accepted and res.line == 1


class TestDeduction:
    def test_single_hypothesis_identity(self):
        b = ScriptBuilder([p])
        b.hyp(0)
        out = apply_deduction_theorem(b.build())
        assert out.hypotheses == ()
        assert out.goal == Implies(p, p)
        assert check_proof(out).accepted

    def test_discharge_one_of_two(self):
        hyps = [p, Implies(p, q)]
        b = ScriptBuilder(hyps)
        first = b.hyp(0)
        second = b.hyp(1)
        b.mp(first, second)
        out = apply_deduction_theorem(b.build())
        assert out.hypotheses == (p,)
        assert out.goal == Implies(Implies(p, q), q)
        assert check_proof(out).accepted

    def test_repeated_discharge_internalizes_everything(self):
        hyps = [p, Implies(p, q)]
        b = ScriptBuilder(hyps)
        first = b.hyp(0)
        second = b.hyp(1)
        b.mp(first, second)
        once = apply_deduction_theorem(b.build())
        twice = apply_deduction_theorem(once)
        assert twice.hypotheses == ()
        assert twice.goal == Implies(p, Implies(Implies(p, q), q))
        assert check_proof(twice).accepted

    def test_preserves_necessitation_on_hypothesis_free_lines(self):
        b = ScriptBuilder([q])
        one = b.taut(Implies(p, p))
        kn = b.nec(one, {"a"})
        have = b.hyp(0)
        weak = b.taut(Implies(Know(A, Implies(p, p)),
                              Implies(q, Know(A, Implies(p, p)))))
        b.mp(kn, weak)
        out = apply_deduction_theorem(b.build(goal=Implies(
            q, Know(A, Implies(p, p))), prune=False))
        assert check_proof(out).accepted

    def test_requires_hypotheses(self):
        with pytest.raises(BadParamsError):
            apply_deduction_theorem(two_axiom_script())

    def test_requires_accepted_input(self):
        bogus = ProofScript((p,), (ProofLine(q, Hypothesis(1)),), q)
        with pytest.raises(BadParamsError):
            apply_deduction_theorem(bogus)


class TestScriptFiles:
    def test_round_trip_all_justifications(self):
        lib = Library()
        lib.register("identity", parse_formula("p -> p"))
        b = ScriptBuilder([parse_formula("K[a]p")])
        one = b.taut(parse_formula("p -> p"))
        b.nec(one, {"a", "b"})
        b.axiom("Truth-K", parse_formula("K[a]p -> p"))
        b.hyp(0)
        b.mp(4, 3)
        b.thm("identity", parse_formula("p -> p"))
        script = b.build(prune=False)
        text = render_script(script)
        assert parse_script(text) == script
        assert check_proof(parse_script(text), lib).accepted

    def test_bad_line_numbering(self):
        with pytest.raises(ParseError):
            parse_script("goal: p\n2. p   taut\n")

    def test_missing_goal(self):
        with pytest.raises(ParseError):
            parse_script("1. p -> p   taut\n")

    def test_missing_justification(self):
        with pytest.raises(ParseError) as exc:
            parse_script("goal: p -> p\n1. p -> p\n")
        assert exc.value.line == 2

    def test_comments_and_blank_lines(self):
        text = "# header\n\ngoal: p -> p\n1. p -> p   taut  # identity\n"
        assert check_proof(parse_script(text)).accepted

    def test_formula_position_reported_with_line(self):
        with pytest.raises(ParseError) as exc:
            parse_script("goal: p\n1. K[a p   taut\n")
        assert exc.value.line == 2
        assert exc.value.pos is not None

    def test_parameterized_theorem_identifiers(self):
        text = (
            "hyp: p\n"
            "goal: q\n"
            "1. p -> q   thm lemma3(C=[a];D=[b];phi=p)\n"
            "2. p   hyp 1\n"
            "3. q   mp 2 1\n"
        )
        script = parse_script(text)
        just = script.lines[0].justification
        assert isinstance(just, Theorem)
        assert just.ident == "lemma3(C=[a];D=[b];phi=p)"
        lib = Library()
        lib.register("lemma3(C=[a];D=[b];phi=p)", parse_formula("p -> q"))
        assert check_proof(script, lib).accepted
        assert parse_script(render_script(script)) == script
