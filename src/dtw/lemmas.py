"""Generators for the bundled derived-lemma proof scripts.

Each generator emits a :class:`ProofScript` that :func:`check_proof`
accepts, transcribing the corresponding derivation:

* lemma1 - from a modus-ponens derivation of psi from phi_1..phi_n,
  produce one of K[C]psi from K[C]phi_1..K[C]phi_n (discharge the
  hypotheses with the deduction theorem, necessitate, then re-apply
  distributivity and modus ponens n times).
* lemma2 - positive introspection K[C]p -> K[C]K[C]p, derived from
  negative introspection, the truth axiom, and distributivity.
* lemma3 - Kd[C]B[C][D]p -> (p -> B[C][D]p), via introspection of blame,
  contraposition, necessitation, distributivity, negative introspection,
  and the truth axiom.
* lemma4 - from a proof of p <-> q, produce B[C][D]p -> B[C][D]q (strict
  conditional plus the truth axiom).
* lemma5 - p derives Kd[C]p (truth axiom plus contraposition).
* lemma6 - joint responsibility generalized to n coalitions with pairwise
  disjoint actor sets, unrolled for the given n.  For n >= 2 the induction
  steps are derived in guarded form: each stage proves an implication whose
  antecedents are the dual-knowledge premises, so necessitation never meets
  a hypothesis-dependent line and the script stays linear in n^2.
* lemma7 - the knowledge-wrapped restatement used to combine everything:
  from the dual-knowledge premises and K[C](phi -> chi_1 v ... v chi_n),
  derive K[C](phi -> B[C][D]phi).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import BadParamsError
from .formula import (
    Blame,
    Coalition,
    Formula,
    Implies,
    Know,
    Not,
    Prop,
    big_disj,
    big_implies,
    coalition,
    conj,
    disj,
    dual_know,
    falsum,
    iff,
)
from .game import tarasoff2_game, tarasoff_game, render_game_file
from .proof import (
    ProofScript,
    ScriptBuilder,
    apply_deduction_theorem,
    check_proof,
    render_script,
)


# ---------------------------------------------------------------------------
# Small derived steps shared by the generators.
# ---------------------------------------------------------------------------

def _emit_truth_dual(b: ScriptBuilder, knowers: Coalition, f: Formula) -> int:
    """Emit lines proving f -> ~K[C]~f; return the final line index."""
    ax = b.axiom("Truth-K", Implies(Know(knowers, Not(f)), Not(f)))
    return b.conclude([ax], Implies(f, dual_know(knowers, f)))


def _emit_lemma3_body(b: ScriptBuilder, knowers: Coalition, actors: Coalition,
                      phi: Formula) -> int:
    """Emit lines proving Kd[C]B[C][D]phi -> (phi -> B[C][D]phi)."""
    blame = Blame(knowers, actors, phi)
    intro = Know(knowers, Implies(phi, blame))
    ax_intro = b.axiom("IntrospectionOfBlame", Implies(blame, intro))
    step = b.conclude([ax_intro], Implies(Not(intro), Not(blame)))
    carried = b.distribute(b.nec(step, knowers))
    neg_intro = b.axiom("NegIntrospection",
                        Implies(Not(intro), Know(knowers, Not(intro))))
    truth = b.axiom("Truth-K", Implies(intro, Implies(phi, blame)))
    goal = Implies(dual_know(knowers, blame), Implies(phi, blame))
    return b.conclude([neg_intro, carried, truth], goal)


def _emit_lemma2_body(b: ScriptBuilder, knowers: Coalition, phi: Formula) -> int:
    """Emit lines proving K[C]phi -> K[C]K[C]phi."""
    x1 = Know(knowers, phi)
    x2 = Know(knowers, Not(x1))
    x3 = Know(knowers, Not(x2))
    x4 = Know(knowers, x1)
    truth = b.axiom("Truth-K", Implies(x2, Not(x1)))
    up = b.conclude([truth], Implies(x1, Not(x2)))
    ni_outer = b.axiom("NegIntrospection", Implies(Not(x2), x3))
    ni_inner = b.axiom("NegIntrospection", Implies(Not(x1), x2))
    back = b.conclude([ni_inner], Implies(Not(x2), x1))
    push = b.distribute(b.nec(back, knowers))
    return b.conclude([up, ni_outer, push], Implies(x1, x4))


def _emit_blame_congruence(b: ScriptBuilder, src: Formula, dst: Formula,
                           knowers: Coalition, actors: Coalition,
                           iff_idx: int) -> int:
    """Given a line proving src <-> dst, emit B[C][D]src -> B[C][D]dst."""
    blame_src = Blame(knowers, actors, src)
    blame_dst = Blame(knowers, actors, dst)
    back = b.conclude([iff_idx], Implies(dst, src))
    necced = b.nec(back, knowers)
    sc = b.axiom(
        "StrictConditional",
        Implies(b.formula_at(necced),
                Implies(blame_src, Implies(dst, blame_dst))),
    )
    half = b.mp(necced, sc)
    fwd = b.conclude([iff_idx], Implies(src, dst))
    truth = b.axiom("Truth-B", Implies(blame_src, src))
    return b.conclude([half, truth, fwd], Implies(blame_src, blame_dst))


# ---------------------------------------------------------------------------
# Guarded joint-responsibility machinery (lemma 6 induction, unrolled).
# ---------------------------------------------------------------------------

class _JointDerivation:
    """Derives, per contiguous disjunct range, the guarded implication

        kbar_lo -> (... -> (kbar_hi -> (chi_lo v..v chi_hi ->
            B[E_lo u..u E_hi][F_lo u..u F_hi](chi_lo v..v chi_hi))))

    memoized over ranges so the unrolled induction is quadratic, not
    exponential, in n.
    """

    def __init__(self, b: ScriptBuilder, knowers: Sequence[Coalition],
                 actors: Sequence[Coalition], chis: Sequence[Formula]):
        self.b = b
        self.knowers = knowers
        self.actors = actors
        self.chis = chis
        self.kbars = [
            dual_know(knowers[i], Blame(knowers[i], actors[i], chis[i]))
            for i in range(len(chis))
        ]
        self._memo: Dict[Tuple[int, int], int] = {}

    def disjunction(self, lo, hi) -> Formula:
        return big_disj(self.chis[lo:hi + 1])

    def blame(self, lo, hi, body) -> Formula:
        """B[E_lo u..u E_hi][F_lo u..u F_hi] body."""
        return Blame(frozenset().union(*self.knowers[lo:hi + 1]),
                     frozenset().union(*self.actors[lo:hi + 1]), body)

    def guard(self, lo, hi, body) -> Formula:
        """kbar_lo -> (... -> (kbar_hi -> body))."""
        return big_implies(self.kbars[lo:hi + 1], body)

    def guarded(self, lo, hi) -> Formula:
        dx = self.disjunction(lo, hi)
        return self.guard(lo, hi, Implies(dx, self.blame(lo, hi, dx)))

    def derive(self, lo: int, hi: int) -> int:
        key = (lo, hi)
        if key in self._memo:
            return self._memo[key]
        if lo == hi:
            idx = _emit_lemma3_body(self.b, self.knowers[lo], self.actors[lo],
                                    self.chis[lo])
        else:
            idx = self._derive_composite(lo, hi)
        self._memo[key] = idx
        return idx

    def _jr_instance(self, left_know, left_act, left_body,
                     right_know, right_act, right_body) -> Formula:
        both = disj(left_body, right_body)
        return Implies(
            conj(
                dual_know(left_know, Blame(left_know, left_act, left_body)),
                dual_know(right_know, Blame(right_know, right_act, right_body)),
            ),
            Implies(both,
                    Blame(left_know | right_know, left_act | right_act, both)),
        )

    def _derive_composite(self, lo: int, hi: int) -> int:
        b = self.b
        dx = self.disjunction(lo, hi)
        whole = self.blame(lo, hi, dx)
        target = Implies(dx, whole)

        # Part 1: attach the last disjunct to the prefix.
        g1 = self.derive(lo, hi - 1)
        d1 = self.disjunction(lo, hi - 1)
        b1 = self.blame(lo, hi - 1, d1)
        lift1 = _emit_truth_dual(b, b1.knowers, b1)
        jr1 = b.axiom(
            "JointResponsibility",
            self._jr_instance(b1.knowers, b1.actors, d1, self.knowers[hi],
                              self.actors[hi], self.chis[hi]),
        )
        p1 = b.conclude([g1, lift1, jr1], self.guard(lo, hi, Implies(d1, target)))

        # Part 2: attach the first disjunct to the suffix; the disjunction
        # associates differently, so push it through blame congruence.
        g2 = self.derive(lo + 1, hi)
        d2 = self.disjunction(lo + 1, hi)
        b2 = self.blame(lo + 1, hi, d2)
        lift2 = _emit_truth_dual(b, b2.knowers, b2)
        w = disj(self.chis[lo], d2)
        jr2 = b.axiom(
            "JointResponsibility",
            self._jr_instance(self.knowers[lo], self.actors[lo], self.chis[lo],
                              b2.knowers, b2.actors, d2),
        )
        rebracket = b.taut(iff(w, dx))
        cong = _emit_blame_congruence(b, w, dx, whole.knowers, whole.actors,
                                      rebracket)
        p2 = b.conclude([g2, lift2, jr2, cong],
                        self.guard(lo, hi, Implies(d2, target)))

        # Case split on which side of the disjunction holds.
        return b.conclude([p1, p2], self.guarded(lo, hi))


# ---------------------------------------------------------------------------
# Generators.
# ---------------------------------------------------------------------------

def _as_coalitions(values) -> List[Coalition]:
    return [coalition(v) for v in values]


def _check_pairwise_disjoint(actor_sets: Sequence[Coalition]) -> None:
    for i in range(len(actor_sets)):
        for j in range(i + 1, len(actor_sets)):
            if actor_sets[i] & actor_sets[j]:
                raise BadParamsError(
                    "actor coalitions must be pairwise disjoint; "
                    f"sets {i + 1} and {j + 1} share "
                    f"{sorted(actor_sets[i] & actor_sets[j])}"
                )


def gen_lemma1(knowers: Iterable[str], premises: ProofScript) -> ProofScript:
    """Knowledge transfer along a modus-ponens derivation."""
    members = coalition(knowers)
    result = check_proof(premises)
    if not result.accepted:
        raise BadParamsError(f"premise derivation is not accepted: {result}")
    n = len(premises.hypotheses)
    worked = premises
    for _ in range(n):
        worked = apply_deduction_theorem(worked)
    b = ScriptBuilder([Know(members, h) for h in premises.hypotheses])
    mapping = b.embed(worked)
    chain = b.nec(mapping[len(worked.lines)], members)
    for i in range(n):
        opened = b.distribute(chain)
        have = b.hyp(i)
        chain = b.mp(have, opened)
    return b.build(goal=Know(members, premises.goal))


def gen_lemma2(knowers: Iterable[str], phi: Formula) -> ProofScript:
    b = ScriptBuilder()
    _emit_lemma2_body(b, coalition(knowers), phi)
    return b.build()


def gen_lemma3(knowers: Iterable[str], actors: Iterable[str],
               phi: Formula) -> ProofScript:
    b = ScriptBuilder()
    _emit_lemma3_body(b, coalition(knowers), coalition(actors), phi)
    return b.build()


def gen_lemma4(knowers: Iterable[str], actors: Iterable[str],
               equivalence: ProofScript) -> ProofScript:
    """From a hypothesis-free proof of phi <-> psi, derive
    B[C][D]phi -> B[C][D]psi."""
    if equivalence.hypotheses:
        raise BadParamsError("the equivalence proof must be hypothesis-free")
    result = check_proof(equivalence)
    if not result.accepted:
        raise BadParamsError(f"equivalence proof is not accepted: {result}")
    goal = equivalence.goal
    shape_error = BadParamsError(
        "equivalence goal must be a biconditional (conjunction of the two "
        "implications)"
    )
    if not isinstance(goal, Not) or not isinstance(goal.child, Implies):
        raise shape_error
    fwd = goal.child.left
    if not isinstance(fwd, Implies):
        raise shape_error
    phi, psi = fwd.left, fwd.right
    if goal != iff(phi, psi):
        raise shape_error
    b = ScriptBuilder()
    mapping = b.embed(equivalence)
    _emit_blame_congruence(b, phi, psi, coalition(knowers), coalition(actors),
                           mapping[len(equivalence.lines)])
    return b.build()


def gen_lemma5(knowers: Iterable[str], phi: Formula) -> ProofScript:
    members = coalition(knowers)
    b = ScriptBuilder([phi])
    step = _emit_truth_dual(b, members, phi)
    have = b.hyp(0)
    b.mp(have, step)
    return b.build()


def gen_lemma6(knowers: Sequence[Iterable[str]],
               actors: Sequence[Iterable[str]],
               disjuncts: Sequence[Formula]) -> ProofScript:
    """Joint responsibility for n coalitions with pairwise disjoint actor
    sets; n = 0 degenerates to deriving blame from falsum."""
    knower_sets = _as_coalitions(knowers)
    actor_sets = _as_coalitions(actors)
    if not len(knower_sets) == len(actor_sets) == len(disjuncts):
        raise BadParamsError("knowers, actors, and disjuncts must align")
    _check_pairwise_disjoint(actor_sets)
    n = len(disjuncts)
    if n == 0:
        bottom = falsum()
        goal = Blame(frozenset(), frozenset(), bottom)
        b = ScriptBuilder([bottom])
        b.conclude([b.hyp(0)], goal)
        return b.build()
    b = ScriptBuilder()
    machine = _JointDerivation(b, knower_sets, actor_sets, list(disjuncts))
    b.hypotheses = tuple(machine.kbars) + (machine.disjunction(0, n - 1),)
    chain = machine.derive(0, n - 1)
    for i in range(n):
        have = b.hyp(i)
        chain = b.mp(have, chain)
    have = b.hyp(n)
    b.mp(have, chain)
    return b.build()


def gen_lemma7(knowers: Iterable[str], actors: Iterable[str],
               sub_knowers: Sequence[Iterable[str]],
               sub_actors: Sequence[Iterable[str]],
               disjuncts: Sequence[Formula], phi: Formula) -> ProofScript:
    """From dual-knowledge premises about sub-coalitions within C and D and
    from K[C](phi -> chi_1 v..v chi_n), derive K[C](phi -> B[C][D]phi)."""
    big_c = coalition(knowers)
    big_d = coalition(actors)
    knower_sets = _as_coalitions(sub_knowers)
    actor_sets = _as_coalitions(sub_actors)
    if not len(knower_sets) == len(actor_sets) == len(disjuncts):
        raise BadParamsError("sub-coalitions and disjuncts must align")
    _check_pairwise_disjoint(actor_sets)
    for i, members in enumerate(knower_sets):
        if not members <= big_c:
            raise BadParamsError(f"knower set {i + 1} is not within the big coalition")
    for i, members in enumerate(actor_sets):
        if not members <= big_d:
            raise BadParamsError(f"actor set {i + 1} is not within the big coalition")

    n = len(disjuncts)
    b = ScriptBuilder()
    machine = _JointDerivation(b, knower_sets, actor_sets, list(disjuncts))
    dx = machine.disjunction(0, n - 1) if n else falsum()
    known = Know(big_c, Implies(phi, dx))
    b.hypotheses = tuple(machine.kbars) + (known,)

    if n == 0:
        wide = Blame(frozenset(), frozenset(), dx)
        guarded = b.taut(Implies(dx, wide))
    else:
        wide = machine.blame(0, n - 1, dx)
        guarded = machine.derive(0, n - 1)
    narrowed = Blame(big_c, big_d, dx)
    blame_phi = Blame(big_c, big_d, phi)

    mono = b.axiom("Monotonicity-B", Implies(wide, narrowed))
    step = b.conclude([guarded, mono],
                      machine.guard(0, n - 1, Implies(dx, narrowed)))

    sc = b.axiom(
        "StrictConditional",
        Implies(known, Implies(narrowed, Implies(phi, blame_phi))),
    )
    truth = b.axiom("Truth-K", Implies(known, Implies(phi, dx)))
    core = machine.guard(0, n - 1, Implies(known, Implies(phi, blame_phi)))
    wrapped = b.nec(b.conclude([step, sc, truth], core), big_c)
    for i in range(n):
        opened = b.distribute(wrapped)
        ni = b.axiom(
            "NegIntrospection",
            Implies(machine.kbars[i], Know(knower_sets[i], machine.kbars[i])),
        )
        mono_k = b.axiom(
            "Monotonicity-K",
            Implies(Know(knower_sets[i], machine.kbars[i]),
                    Know(big_c, machine.kbars[i])),
        )
        have = b.hyp(i)
        inside = b.mp(have, ni)
        inside = b.mp(inside, mono_k)
        wrapped = b.mp(inside, opened)

    opened = b.distribute(wrapped)
    pos = _emit_lemma2_body(b, big_c, Implies(phi, dx))
    have = b.hyp(n)
    doubled = b.mp(have, pos)
    b.mp(doubled, opened)
    return b.build(goal=Know(big_c, Implies(phi, blame_phi)))


_GENERATORS = {
    "lemma1": gen_lemma1,
    "lemma2": gen_lemma2,
    "lemma3": gen_lemma3,
    "lemma4": gen_lemma4,
    "lemma5": gen_lemma5,
    "lemma6": gen_lemma6,
    "lemma7": gen_lemma7,
}


def gen_lemma_script(lemma: str, **params) -> ProofScript:
    """Dispatch to the generator for one of lemma1..lemma7."""
    generator = _GENERATORS.get(lemma.lower())
    if generator is None:
        raise BadParamsError(
            f"unknown lemma {lemma!r}; choose from {', '.join(sorted(_GENERATORS))}"
        )
    return generator(**params)


# ---------------------------------------------------------------------------
# Bundled corpus.
# ---------------------------------------------------------------------------

def _mp_chain_script(premise_names: Sequence[str]) -> ProofScript:
    """hyp p, hyp p->q, ... deriving the last consequent by modus ponens."""
    atoms = [Prop(name) for name in premise_names]
    hyps = [atoms[0]]
    for i in range(len(atoms) - 1):
        hyps.append(Implies(atoms[i], atoms[i + 1]))
    b = ScriptBuilder(hyps)
    cur = b.hyp(0)
    for i in range(1, len(hyps)):
        step = b.hyp(i)
        cur = b.mp(cur, step)
    return b.build(prune=False)


def bundled_scripts() -> Dict[str, ProofScript]:
    """The proof scripts shipped by the example command, keyed by file stem."""
    p, q, r = Prop("p"), Prop("q"), Prop("r")
    a, bb, c = "a", "b", "c"
    scripts: Dict[str, ProofScript] = {
        "lemma1_n2": gen_lemma1({a}, _mp_chain_script(["p", "q"])),
        "lemma1_n3": gen_lemma1({a}, _mp_chain_script(["p", "q", "r"])),
        "lemma2_a_p": gen_lemma2({a}, p),
        "lemma3_a_b_p": gen_lemma3({a}, {bb}, p),
        "lemma5_a_p": gen_lemma5({a}, p),
        "lemma6_n0": gen_lemma6([], [], []),
        "lemma6_n1": gen_lemma6([{a}], [{bb}], [p]),
        "lemma6_n2": gen_lemma6([{a}, {bb}], [{a}, {bb}], [p, q]),
        "lemma6_n3": gen_lemma6([{a}, {bb}, {c}], [{a}, {bb}, {c}], [p, q, r]),
        "lemma7_n2": gen_lemma7(
            {a, bb}, {a, c}, [{a}, {bb}], [{a}, {c}], [q, r], p
        ),
    }
    eq = ScriptBuilder()
    eq.taut(iff(conj(p, q), conj(q, p)))
    scripts["lemma4_and_comm"] = gen_lemma4({a}, {bb}, eq.build())

    # A variant of lemma6 n=1 that cites lemma3 from the library instead of
    # embedding it; exercises the theorem-citation surface.
    lemma3_goal = scripts["lemma3_a_b_p"].goal
    blame = Blame(frozenset({a}), frozenset({bb}), p)
    cite = ScriptBuilder([dual_know({a}, blame), p])
    thm = cite.thm("lemma3_a_b_p", lemma3_goal)
    have = cite.hyp(0)
    step = cite.mp(have, thm)
    have2 = cite.hyp(1)
    cite.mp(have2, step)
    scripts["lemma6_n1_thm"] = cite.build()
    return scripts


def bundled_library() -> Dict[str, Formula]:
    """Theorem library entries backing the bundled theorem citations."""
    return {
        name: script.goal
        for name, script in bundled_scripts().items()
        if not script.hypotheses
    }


def example_files() -> Dict[str, str]:
    """Everything the example command writes, keyed by file name."""
    out = {
        "tarasoff.game": render_game_file(tarasoff_game()),
        "tarasoff2.game": render_game_file(tarasoff2_game()),
    }
    for name, script in bundled_scripts().items():
        out[f"{name}.prf"] = render_script(script)
    return out
