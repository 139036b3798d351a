"""Generated lemma scripts: acceptance, structure, and soundness bridge."""

import hashlib

import pytest

from dtw.errors import BadParamsError, ResourceLimitError
from dtw.formula import (
    Blame,
    Implies,
    Know,
    Prop,
    agents_of,
    big_disj,
    big_implies,
    coalition,
    conj,
    dual_know,
    falsum,
    iff,
    props_of,
)
from dtw.lemmas import (
    bundled_library,
    bundled_scripts,
    gen_lemma1,
    gen_lemma2,
    gen_lemma3,
    gen_lemma4,
    gen_lemma5,
    gen_lemma6,
    gen_lemma7,
    gen_lemma_script,
)
from dtw.parser import parse_formula
from dtw.proof import (
    Hypothesis,
    ModusPonens,
    ProofLine,
    ProofScript,
    ScriptBuilder,
    Theorem,
    apply_deduction_theorem,
    check_proof,
    render_script,
)
from dtw.semantics import SearchBounds, countermodel_search, valid_in_game

from oracles import naive_valid

p, q, r = Prop("p"), Prop("q"), Prop("r")
A, B, C = coalition("a"), coalition("b"), coalition("c")


def mp_chain(names):
    atoms = [Prop(n) for n in names]
    hyps = [atoms[0]]
    for i in range(len(atoms) - 1):
        hyps.append(Implies(atoms[i], atoms[i + 1]))
    b = ScriptBuilder(hyps)
    cur = b.hyp(0)
    for i in range(1, len(hyps)):
        step = b.hyp(i)
        cur = b.mp(cur, step)
    return b.build(prune=False)


class TestGenerators:
    def test_lemma1_goals_and_acceptance(self):
        script = gen_lemma1(A, mp_chain(["p", "q"]))
        assert script.hypotheses == (Know(A, p), Know(A, Implies(p, q)))
        assert script.goal == Know(A, q)
        assert check_proof(script).accepted

    def test_lemma1_n3(self):
        script = gen_lemma1(A, mp_chain(["p", "q", "r"]))
        assert script.goal == Know(A, r)
        assert len(script.hypotheses) == 3
        assert check_proof(script).accepted

    def test_lemma2_goal(self):
        script = gen_lemma2(A, p)
        assert script.goal == Implies(Know(A, p), Know(A, Know(A, p)))
        assert script.hypotheses == ()
        assert check_proof(script).accepted

    def test_lemma3_goal_and_line_bound(self):
        script = gen_lemma3(A, B, p)
        blame = Blame(A, B, p)
        assert script.goal == Implies(dual_know(A, blame),
                                      Implies(p, blame))
        assert len(script.lines) <= 15
        assert check_proof(script).accepted

    def test_lemma4_from_tautological_equivalence(self):
        eq = ScriptBuilder()
        eq.taut(iff(conj(p, q), conj(q, p)))
        script = gen_lemma4(A, B, eq.build())
        assert script.goal == Implies(Blame(A, B, conj(p, q)),
                                      Blame(A, B, conj(q, p)))
        assert check_proof(script).accepted

    def test_lemma4_rejects_non_biconditional(self):
        eq = ScriptBuilder()
        eq.taut(Implies(p, p))
        with pytest.raises(BadParamsError):
            gen_lemma4(A, B, eq.build())

    def test_lemma5_shape(self):
        script = gen_lemma5(A, p)
        assert script.hypotheses == (p,)
        assert script.goal == dual_know(A, p)
        assert len(script.lines) == 5
        assert check_proof(script).accepted

    def test_lemma6_n0_is_taut_plus_hypothesis(self):
        script = gen_lemma6([], [], [])
        assert script.hypotheses == (falsum(),)
        assert script.goal == Blame(coalition(), coalition(), falsum())
        assert len(script.lines) == 3
        assert check_proof(script).accepted

    def test_lemma6_n1_is_lemma3_plus_two_mp(self):
        script = gen_lemma6([A], [B], [p])
        inner = gen_lemma3(A, B, p)
        # the embedded derivation, then exactly two modus ponens steps on
        # the two hypotheses
        assert len(script.lines) == len(inner.lines) + 4
        tail = script.lines[-4:]
        assert isinstance(tail[0].justification, Hypothesis)
        assert isinstance(tail[1].justification, ModusPonens)
        assert isinstance(tail[2].justification, Hypothesis)
        assert isinstance(tail[3].justification, ModusPonens)
        assert script.goal == Blame(A, B, p)
        assert check_proof(script).accepted

    @pytest.mark.parametrize("n", [2, 3])
    def test_lemma6_general(self, n):
        knowers = [A, B, C][:n]
        actors = [A, B, C][:n]
        chis = [p, q, r][:n]
        script = gen_lemma6(knowers, actors, chis)
        union = frozenset().union(*knowers)
        disjunction = big_disj(chis)
        assert script.goal == Blame(union, union, disjunction)
        assert script.hypotheses[-1] == disjunction
        assert check_proof(script).accepted

    def test_lemma6_rejects_overlapping_actor_sets(self):
        with pytest.raises(BadParamsError):
            gen_lemma6([A, B], [A, A], [p, q])

    def test_lemma7_n2(self):
        script = gen_lemma7(
            {"a", "b"}, {"a", "c"}, [A, B], [A, C], [q, r], p
        )
        big_c = coalition({"a", "b"})
        big_d = coalition({"a", "c"})
        assert script.goal == Know(
            big_c, Implies(p, Blame(big_c, big_d, p))
        )
        assert script.hypotheses[-1] == Know(big_c, Implies(p, big_disj([q, r])))
        assert check_proof(script).accepted

    def test_lemma7_n0(self):
        script = gen_lemma7({"a"}, {"b"}, [], [], [], p)
        assert check_proof(script).accepted

    def test_lemma7_enforces_containment(self):
        with pytest.raises(BadParamsError):
            gen_lemma7({"a"}, {"c"}, [B], [C], [q], p)

    def test_dispatch(self):
        script = gen_lemma_script("lemma3", knowers=A, actors=B, phi=p)
        assert check_proof(script).accepted
        with pytest.raises(BadParamsError):
            gen_lemma_script("lemma9")


class TestBundledCorpus:
    def test_everything_accepted(self):
        scripts = bundled_scripts()
        library = bundled_library()
        for name, script in scripts.items():
            result = check_proof(script, library)
            assert result.accepted, f"{name}: {result}"

    def test_theorem_citation_variant_uses_the_library(self):
        scripts = bundled_scripts()
        cite = scripts["lemma6_n1_thm"]
        assert any(isinstance(l.justification, Theorem) for l in cite.lines)
        assert not check_proof(cite).accepted  # without the library
        assert check_proof(cite, bundled_library()).accepted

    def test_deduction_on_lemma1_pipeline(self):
        premises = mp_chain(["p", "q"])
        out = apply_deduction_theorem(premises)
        assert out.hypotheses == (p,)
        assert out.goal == Implies(Implies(p, q), q)
        assert check_proof(out).accepted


class TestSoundnessBridge:
    def test_hypothesis_free_goals_valid_on_sampled_games(self):
        import random as random_module
        import warnings

        from dtw.semantics import sample_game

        goals = [s.goal for s in bundled_scripts().values() if not s.hypotheses]
        assert goals
        bounds = SearchBounds(max_agents=3, max_initial=3, max_actions=2,
                              max_outcomes=2, max_props=3, mode="random",
                              seed=0)
        for seed in range(25):
            rng = random_module.Random(seed)
            # the goals mention agents a, b, c; sample games over exactly them
            game = sample_game(rng, bounds, agents=("a", "b", "c"))
            with warnings.catch_warnings():
                # goals mention propositions some sampled games lack; they
                # are then false everywhere, which soundness must survive
                warnings.simplefilter("ignore", UserWarning)
                for goal in goals:
                    verdict = valid_in_game(game, goal)
                    assert verdict.holds, f"seed {seed}: {goal}"
                    assert naive_valid(game, goal)

    # Over the default exhaustive-models budget at these bounds: sampled.
    # Names of bundled_scripts() and of GENERATED below.
    SAMPLED = ("lemma6_n3", "lemma7_n2", "lemma7_n1")

    def assert_no_countermodel(self, name, script):
        """hyp1 -> ... -> goal of the accepted script has no countermodel
        among the games of 2 initial states, 2 actions and 1 outcome over
        the formula's own agents and propositions; past the model budget,
        among 300 sampled games."""
        f = big_implies(script.hypotheses, script.goal)
        bounds = SearchBounds(max_agents=max(1, len(agents_of(f))), max_initial=2,
                              max_actions=2, max_outcomes=1,
                              max_props=max(1, len(props_of(f))))
        if name in self.SAMPLED:
            with pytest.raises(ResourceLimitError, match="would enumerate"):
                countermodel_search(f, bounds)
            bounds = bounds.replace(mode="random", seed=1, iterations=300)
        assert countermodel_search(f, bounds) is None

    @pytest.mark.parametrize("name", sorted(bundled_scripts()))
    def test_no_countermodel_to_a_bundled_derivation(self, name, monkeypatch):
        monkeypatch.delenv("DTW_BUDGET", raising=False)
        self.assert_no_countermodel(name, bundled_scripts()[name])

    # Each generator at its smallest parameters and one size up, through
    # gen_lemma_script, and one script after the deduction theorem.
    GENERATED = {
        "lemma1_n1": lambda: gen_lemma_script("lemma1", knowers=A,
                                              premises=mp_chain(["p"])),
        "lemma1_n2": lambda: gen_lemma_script("lemma1", knowers=A,
                                              premises=mp_chain(["p", "q"])),
        "lemma2_a": lambda: gen_lemma_script("lemma2", knowers=A, phi=p),
        "lemma2_ab": lambda: gen_lemma_script("lemma2", knowers=A | B, phi=p),
        "lemma3_a_b": lambda: gen_lemma_script("lemma3", knowers=A, actors=B, phi=p),
        "lemma3_ab_b": lambda: gen_lemma_script("lemma3", knowers=A | B, actors=B,
                                                phi=p),
        "lemma4_p": lambda: gen_lemma_script("lemma4", knowers=A, actors=B,
                                             equivalence=_taut_script("p <-> p")),
        "lemma4_pq": lambda: gen_lemma_script(
            "lemma4", knowers=A, actors=B,
            equivalence=_taut_script("(p & q) <-> (q & p)")),
        "lemma5_a": lambda: gen_lemma_script("lemma5", knowers=A, phi=p),
        "lemma5_ab": lambda: gen_lemma_script("lemma5", knowers=A | B, phi=p),
        "lemma6_n0": lambda: _lemma6(0),
        "lemma6_n1": lambda: _lemma6(1),
        "lemma7_n0": lambda: _lemma7(0),
        "lemma7_n1": lambda: _lemma7(1),
        "lemma6_n1_deduced": lambda: apply_deduction_theorem(_lemma6(1)),
    }

    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_no_countermodel_to_a_generated_derivation(self, name, monkeypatch):
        monkeypatch.delenv("DTW_BUDGET", raising=False)
        script = self.GENERATED[name]()
        assert check_proof(script).accepted
        self.assert_no_countermodel(name, script)


def _lemma6(n):
    return gen_lemma_script("lemma6", knowers=[{f"a{i}"} for i in range(n)],
                            actors=[{f"b{i}"} for i in range(n)],
                            disjuncts=[Prop(f"x{i}") for i in range(n)])


def _lemma7(n):
    return gen_lemma_script("lemma7", knowers={"c"} | {f"a{i}" for i in range(n)},
                            actors={"d"} | {f"b{i}" for i in range(n)},
                            sub_knowers=[{f"a{i}"} for i in range(n)],
                            sub_actors=[{f"b{i}"} for i in range(n)],
                            disjuncts=[Prop(f"x{i}") for i in range(n)], phi=p)


def _digest(script):
    return hashlib.sha256(render_script(script).encode("utf-8")).hexdigest()


class TestGeneratedDigests:
    """Byte-identical output of the generators beyond the bundled files:
    lemma 6 for n = 1..6 (and each with its last hypothesis discharged by
    the deduction theorem) and lemma 7 for n = 0..3."""

    LEMMA6 = {
        1: ("0d3750bee78520aed99f39b5df98550f25a2a3704732d8980c2f756201420f33",
            "1c9aaec7d024215895a64aedfb4affea5d0218ab33e7e8cbda5abe110bb7facf"),
        2: ("ecc989f308325f3ccf4077814fa03b41968358f798677f5c76d5775132cd27f4",
            "fd2ac583490d47dd0cffc3bc44d3999904a58f10a560ea2181d389d558430115"),
        3: ("f5db80f57970551fc4dc857074c8a1f72b29bc9bbf510b4f718bab9f5b8d6be2",
            "24c00f00756f97427780f81d984bc9d19d85fdf82031ab1ff35b76a068f435f8"),
        4: ("19b028f867186b83d51f041acc5919e1b8b3446c3647d8e9dd6e4e0c29496355",
            "9c74b26a7ce8c999b0c483f5ff11f574efa6181bbf8a7136a12c35745738385c"),
        5: ("9772fe4a2d357f5c40cb013a9553ca90f720d6dc3a96f60f34a65b624e1dac17",
            "34a99a961581b8e5b7f410bff8c5f4cd8db9b1fff3c16db787ac2e6a5d1d193d"),
        6: ("a38a0745c9b7f68a46b5093d50a5a59b04b9c3d91c115b389f3488ac0509de71",
            "b72012c6210bf6800be8f3c10ca50c776733e44d56751c4c3b8731afbd19ea34"),
    }
    LEMMA7 = {
        0: "ab390e429e21a064612e45e3673dc4853b23cf3fbae9372ee591ec6a45ed6ca1",
        1: "2b2b394870a037e1cd589a258c1d3c218ad9d7a12c8c416ab5789955be34f0c5",
        2: "fc068949ba1d5055197110d70603682c50cff39e5a0de1fe47036766a822619a",
        3: "b7c4aff9ec3af8901aedfa1050a5b05523c3407a84b8e40fc3e312e4ad70e2e3",
    }

    @pytest.mark.parametrize("n", sorted(LEMMA6))
    def test_lemma6_and_its_deduction(self, n):
        script = _lemma6(n)
        assert (_digest(script), _digest(apply_deduction_theorem(script))) \
            == self.LEMMA6[n]

    @pytest.mark.parametrize("n", sorted(LEMMA7))
    def test_lemma7(self, n):
        assert _digest(_lemma7(n)) == self.LEMMA7[n]


def _taut_script(text, hypotheses=()):
    """A one-line script claiming text as a tautology, not checked here."""
    b = ScriptBuilder(hypotheses)
    b.taut(parse_formula(text))
    return b.build()


BICONDITIONAL = ("equivalence goal must be a biconditional (conjunction of the "
                 "two implications)")


@pytest.mark.parametrize("call, message", [
    (lambda: gen_lemma1(A, ProofScript((p,), (ProofLine(q, Hypothesis(1)),), q)),
     "premise derivation is not accepted: rejected at line 1: "
     "hypothesis-mismatch (line differs from hypothesis 1)"),
    (lambda: gen_lemma4(A, B, _taut_script("p <-> p", [p])),
     "the equivalence proof must be hypothesis-free"),
    (lambda: gen_lemma4(A, B, _taut_script("p <-> q")),
     "equivalence proof is not accepted: rejected at line 1: not-a-tautology "
     "(~((p -> q) -> ~(q -> p)))"),
    (lambda: gen_lemma4(A, B, _taut_script("p -> p")), BICONDITIONAL),
    (lambda: gen_lemma4(A, B, _taut_script("~(~false -> false)")), BICONDITIONAL),
    (lambda: gen_lemma4(A, B, _taut_script("~((p -> p) -> false)")), BICONDITIONAL),
    (lambda: gen_lemma6([A, B], [A], [p, q]),
     "knowers, actors, and disjuncts must align"),
    (lambda: gen_lemma6([A], [A], [p, q]), "knowers, actors, and disjuncts must align"),
    (lambda: gen_lemma6([A, B, C], [A, B, A | B], [p, q, r]),
     "actor coalitions must be pairwise disjoint; sets 1 and 3 share ['a']"),
    (lambda: gen_lemma7(A | B, A | C, [A], [A, C], [q, r], p),
     "sub-coalitions and disjuncts must align"),
    (lambda: gen_lemma7(A | B, A | C, [A, B], [A, C], [q], p),
     "sub-coalitions and disjuncts must align"),
    (lambda: gen_lemma7(A | B, A | C, [A, B], [C, C], [q, r], p),
     "actor coalitions must be pairwise disjoint; sets 1 and 2 share ['c']"),
    (lambda: gen_lemma7(A, A | C, [A, B], [A, C], [q, r], p),
     "knower set 2 is not within the big coalition"),
    (lambda: gen_lemma7(A | B, C, [A, B], [A, C], [q, r], p),
     "actor set 1 is not within the big coalition"),
], ids=["lemma1-unaccepted", "lemma4-hypotheses", "lemma4-unaccepted",
        "lemma4-not-a-conjunction", "lemma4-not-an-implication-pair",
        "lemma4-not-both-directions", "lemma6-fewer-actors",
        "lemma6-more-disjuncts", "lemma6-overlap", "lemma7-fewer-knowers",
        "lemma7-fewer-disjuncts", "lemma7-overlap", "lemma7-knowers-outside",
        "lemma7-actors-outside"])
def test_generators_refuse_bad_arguments(call, message):
    with pytest.raises(BadParamsError) as exc:
        call()
    assert str(exc.value) == message
