"""Schema matching, tautology checking, proof checking, deduction."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtw import axioms
from dtw.cli import main
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
from dtw.lemmas import bundled_scripts, gen_lemma6
from dtw.parser import parse_coalition_token, parse_formula
from dtw.proof import (
    Axiom,
    CheckResult,
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


@pytest.mark.parametrize("a, b", [
    (Axiom("x"), Theorem("x")), (Hypothesis(1), Theorem(1)),
    (ModusPonens(1, 2), Necessitation(1, 2))])
def test_steps_of_two_classes_with_equal_fields_differ(a, b):
    """Equality is per class, as it was for the dataclasses."""
    assert a._fields() == b._fields()
    assert a != b and b != a and not a == b


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
        # 20 propositions and one modal atom, which recurs; its own
        # propositions are not atoms.
        modal = Know(A, Implies(p, q))
        atoms = [modal if i % 100 == 0 else Prop(f"x{i % 20}") for i in range(3000)]
        with pytest.raises(TooManyAtomsError, match="^21 distinct atoms "):
            is_tautology(big_conj(atoms))


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


class TestDerivedSteps:
    s = Prop("s")

    @pytest.mark.parametrize("hyps, goal", [
        ((), Implies(p, p)),
        ((p,), big_disj([p, q])),
        ((p, Implies(p, q), Implies(q, r), Implies(r, s)), s),
    ])
    def test_conclude_adds_premises_plus_one_lines(self, hyps, goal):
        b = ScriptBuilder(hyps)
        premises = [b.hyp(i) for i in range(len(hyps))]
        out = b.conclude(premises, goal)
        assert out == len(b.lines) == 2 * len(hyps) + 1
        assert isinstance(b.lines[len(hyps)].justification, Tautology)
        assert b.formula_at(out) == goal
        assert check_proof(b.build(prune=False)).accepted

    def test_distribute_opens_a_known_implication(self):
        b = ScriptBuilder()
        boxed = b.nec(b.taut(Implies(p, p)), {"a"})
        out = b.distribute(boxed)
        assert out == boxed + 2
        assert b.lines[boxed].justification == Axiom("Distributivity")
        assert b.formula_at(out) == Implies(Know(A, p), Know(A, p))
        assert check_proof(b.build()).accepted

    @pytest.mark.parametrize("f", [Know(A, p), Implies(p, q), Know(A, Not(p))])
    def test_distribute_refuses_other_shapes(self, f):
        b = ScriptBuilder([f])
        line = b.hyp(0)
        with pytest.raises(AssertionError, match=r"K\[C\]\(A -> B\)"):
            b.distribute(line)
        assert len(b.lines) == 1


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


_small_formulas = st.recursive(
    st.sampled_from(ATOM_POOL + [falsum()]),
    lambda kids: st.one_of(_connectives(kids),
                           st.builds(Know, st.frozensets(st.sampled_from("abc")), kids)),
    max_leaves=8,
)
# Long conjunctions print one parenthesis deeper per term.
_formulas = st.one_of(_small_formulas, st.builds(lambda f, n: big_conj([f] * n),
                                                 _small_formulas, st.integers(2, 300)))
_justifications = st.one_of(
    st.builds(Axiom, st.sampled_from(sorted(axioms.AXIOM_SCHEMAS))),
    st.just(Tautology()),
    st.builds(Hypothesis, st.integers(1, 9)),
    st.builds(Theorem, st.sampled_from(("identity", "lemma3(C=[a];D=[b];phi=p)"))),
    st.builds(ModusPonens, st.integers(1, 9), st.integers(1, 9)),
    st.builds(Necessitation, st.integers(1, 9), st.frozensets(st.sampled_from("abc"))),
)
_scripts = st.builds(
    ProofScript,
    st.lists(_formulas, max_size=2).map(tuple),
    st.lists(st.builds(ProofLine, _formulas, _justifications), min_size=1,
             max_size=4).map(tuple),
    _formulas,
)


def _generated_scripts():
    """The bundled corpus, lemma 6 for n = 2..6, and a script whose line is
    a 600-term conjunction, which prints about 600 parentheses deep."""
    yield from bundled_scripts().items()
    for n in range(2, 7):
        agents = [coalition({f"a{i}"}) for i in range(2 * n)]
        yield f"lemma6_n{n}", gen_lemma6(agents[:n], agents[n:],
                                         [Prop(f"x{i}") for i in range(n)])
    chain = Implies(big_conj([p] * 600), p)
    yield "chain", ProofScript((), (ProofLine(chain, Tautology()),), chain)


class TestScriptFiles:
    def test_rendered_scripts_parse_back(self):
        for name, script in _generated_scripts():
            assert parse_script(render_script(script)) == script, name

    @settings(max_examples=100, deadline=None)
    @given(_scripts)
    def test_rendered_random_scripts_parse_back(self, script):
        assert parse_script(render_script(script)) == script

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

    @pytest.mark.parametrize("knowers", ["[a, b]", "[ b ,a ]", "[\ta ,\tb ]", "[ ]"])
    def test_nec_coalition_may_hold_spaces(self, knowers):
        """As inside a formula; the script is written back as ``[a,b]``."""
        goal = f"K{knowers} (p -> p)"
        text = f"goal: {goal}\n1. p -> p   taut\n2. {goal}   nec 1 {knowers}\n"
        script = parse_script(text)
        assert script.lines[1].justification == Necessitation(1, parse_coalition_token(knowers))
        assert check_proof(script).accepted
        assert render_script(script).splitlines()[-1].endswith(
            f"   nec 1 [{','.join(sorted(script.goal.knowers))}]")

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


# Rejections that only a malformed script reaches: (script text, reason,
# error line, detail).  None as the text is a script with no lines, which no
# file can express.
WIDE = " -> ".join(f"x{i}" for i in range(21)) + " -> x0"
REJECTIONS = {
    "empty-script": (None, None, "script has no lines"),
    "unknown-axiom": ("goal: p -> p\n1. p -> p   axiom Nope\n",
                      1, "no axiom named 'Nope'"),
    "too-many-atoms": (f"goal: {WIDE}\n1. {WIDE}   taut\n",
                       1, "21 distinct atoms exceeds the limit of 20"),
    "bad-hypothesis-index": ("hyp: p\ngoal: p\n1. p   hyp 2\n", 1, "hyp 2"),
    "bad-line-reference": ("goal: K[a] (p -> p)\n1. p -> p   taut\n"
                           "2. K[a] (p -> p)   nec 3 [a]\n", 2, "line 3"),
}


class TestRejectionReasons:
    @pytest.mark.parametrize("reason", sorted(REJECTIONS))
    def test_check_proof_names_the_reason(self, reason):
        text, line, detail = REJECTIONS[reason]
        script = ProofScript((), (), p) if text is None else parse_script(text)
        assert check_proof(script) == CheckResult(False, line, reason, detail)

    @pytest.mark.parametrize("reason", sorted(r for r, (text, *_) in REJECTIONS.items()
                                              if text is not None))
    def test_prove_reports_the_reason(self, reason, tmp_path, capsys):
        text, line, detail = REJECTIONS[reason]
        path = tmp_path / "rejected.prf"
        path.write_text(text, encoding="utf-8")
        assert main(["prove", str(path), "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "accepted": False, "lines": len(parse_script(text).lines),
            "error_line": line, "reason": reason, "detail": detail}

    @pytest.mark.parametrize("text, message", [
        ("goal: p\n1. p -> p   taut\nhyp: p\n",
         "hypotheses must precede proof lines (line 3)"),
        ("goal: p\ngoal: q\n1. p -> p   taut\n", "duplicate goal line (line 2)"),
        ("# no lines\ngoal: p\n", "script has no proof lines (line 1)"),
        ("goal: p\n1. p   mp x 2\n", "expected a line number, got 'x' (line 2)"),
        ("goal: p -> p\n\u0661. p -> p   taut\n",
         "expected 'N. <formula>  <justification>', got '\u0661. p -> p   taut' (line 2)"),
        ("goal: K[a] q\n1. q   taut\n2. K[a] q   nec +1 [a]\n",
         "expected a line number, got '+1' (line 3)"),
        ("goal: K[a] q\n1. q   taut\n2. K[a] q   nec 0_1 [a]\n",
         "expected a line number, got '0_1' (line 3)"),
        ("goal: K[a] q\n1. q   taut\n2. K[a] q   nec -1 [a]\n",
         "expected a line number, got '-1' (line 3)"),
        ("goal: p\n1. p   mp 1 \u0662\n", "expected a line number, got '\u0662' (line 2)"),
        ("hyp: p\ngoal: p\n1. p   hyp \u0661\n",
         "expected a line number, got '\u0661' (line 3)"),
    ], ids=["hyp-after-line", "second-goal", "goal-without-lines", "mp-not-a-number",
            "arabic-indic-line-number", "nec-plus-sign", "nec-underscore", "nec-negative",
            "mp-arabic-indic", "hyp-arabic-indic"])
    def test_parse_script_refuses(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_script(text)
        assert str(exc.value) == message
