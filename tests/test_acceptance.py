"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Random pieces are pinned to explicit seeds; every tolerance and
bound is stated inline.
"""

import random
import time

from dtw.errors import ParseError
from dtw.formula import expand_minimality, render
from dtw.game import ActionProfile, Play, load_game, render_game_file, tarasoff_game
from dtw.lemmas import bundled_library, bundled_scripts
from dtw.minimality import check_minimal
from dtw.parser import parse_formula
from dtw.proof import apply_deduction_theorem, check_proof
from dtw.semantics import (
    SearchBounds,
    countermodel_search,
    holds,
    random_formula,
    sample_game,
    soundness_fuzz,
)

from oracles import mutated_scripts, naive_holds

SEED = 20260808


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_tarasoff_reproduction():
    start = time.perf_counter()
    game = load_game(render_game_file(tarasoff_game()))
    play = Play(
        "Oct",
        ActionProfile.make({"poddar": "1", "parents": "1", "university": "0"}),
        "dead",
    )
    knew = holds(game, play, parse_formula("B[university][parents] killed"))
    blind = holds(game, play, parse_formula("B[parents][parents] killed"))
    elapsed = time.perf_counter() - start
    ok = (
        knew.holds
        and knew.witness == ActionProfile.make({"parents": "0"})
        and not blind.holds
        and elapsed < 1.0
    )
    _report(
        "criterion-1",
        ok,
        f"observer-blame holds with witness parents=0, protector-blame fails "
        f"({elapsed:.3f}s)",
    )


AXIOM_GROUPS = (
    "Truth",
    "Distributivity",
    "NegIntrospection",
    "Monotonicity",
    "NoneToAct",
    "JointResponsibility",
    "StrictConditional",
    "IntrospectionOfBlame",
)

FUZZ_BOUNDS = SearchBounds(
    max_agents=3, max_initial=3, max_actions=2, max_outcomes=2, max_props=3,
    mode="random", seed=SEED, iterations=1000,
)


def test_criterion_2_axiom_soundness_and_load_bearing_side_condition():
    start = time.perf_counter()
    failures = []
    for name in AXIOM_GROUPS:
        found = soundness_fuzz(name, FUZZ_BOUNDS)
        if found is not None:
            failures.append(f"{name} at iteration {found.iteration}")
    broken = soundness_fuzz(
        "JointResponsibility", FUZZ_BOUNDS, enforce_side_conditions=False,
    )
    elapsed = time.perf_counter() - start
    ok = not failures and broken is not None and elapsed < 60.0
    _report(
        "criterion-2",
        ok,
        f"8 axioms x 1000 seeded instantiations on 200 sampled games, "
        f"0 counterexamples; dropping the disjointness side condition finds "
        f"one at iteration {broken.iteration if broken else 'NONE'} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_3_derived_lemma_validity():
    start = time.perf_counter()
    bad2 = soundness_fuzz("Lemma2", FUZZ_BOUNDS)
    bad3 = soundness_fuzz("Lemma3", FUZZ_BOUNDS)
    elapsed = time.perf_counter() - start
    ok = bad2 is None and bad3 is None
    _report(
        "criterion-3",
        ok,
        f"positive-introspection and possible-blame lemmas: 0 counterexamples "
        f"on the criterion-2 game pool ({elapsed:.1f}s)",
    )


def test_criterion_4_proof_checker_suite():
    start = time.perf_counter()
    scripts = bundled_scripts()
    library = bundled_library()
    expected = {
        "lemma1_n2", "lemma1_n3", "lemma2_a_p", "lemma3_a_b_p",
        "lemma4_and_comm", "lemma5_a_p", "lemma6_n0", "lemma6_n1",
        "lemma6_n2", "lemma6_n3", "lemma7_n2",
    }
    missing = expected - set(scripts)
    rejected = [
        name for name, script in scripts.items()
        if not check_proof(script, library).accepted
    ]

    from dtw.formula import agents_of

    total_mutants = 0
    survivors = []
    for name, script in sorted(scripts.items()):
        pool = set()
        for line in script.lines:
            pool |= agents_of(line.formula)
        for k, mutant, mutated in mutated_scripts(script, pool | {"zz"}):
            total_mutants += 1
            if check_proof(mutated, library).accepted:
                survivors.append(f"{name}:{k + 1}:{render(mutant)}")

    from test_lemmas import mp_chain

    deduced = apply_deduction_theorem(mp_chain(["p", "q"]))
    deduction_ok = (
        check_proof(deduced).accepted
        and deduced.goal == parse_formula("(p -> q) -> q")
    )
    elapsed = time.perf_counter() - start
    ok = (
        not missing
        and not rejected
        and not survivors
        and deduction_ok
        and elapsed < 30.0
    )
    _report(
        "criterion-4",
        ok,
        f"{len(scripts)} bundled scripts accepted; {total_mutants} single-line "
        f"mutants all rejected; deduction output accepted ({elapsed:.1f}s); "
        f"missing={sorted(missing)} rejected={rejected} "
        f"survivors={survivors[:3]}",
    )


def test_criterion_5_countermodel_search():
    bounds = SearchBounds(max_agents=2, max_initial=2, max_actions=2,
                          max_outcomes=2, max_props=1)
    timings = {}
    results = {}
    for text in ("K[a,b]p -> K[a]p", "B[a][b]p -> K[a]p"):
        start = time.perf_counter()
        found = countermodel_search(parse_formula(text), bounds)
        timings[text] = time.perf_counter() - start
        verified = (
            found is not None
            and not naive_holds(found[0], found[1], parse_formula(text))
        )
        results[text] = verified and timings[text] < 60.0
    start = time.perf_counter()
    none_found = countermodel_search(parse_formula("K[a]p -> K[a,b]p"), bounds)
    timings["monotone"] = time.perf_counter() - start
    ok = all(results.values()) and none_found is None
    _report(
        "criterion-5",
        ok,
        "countermodels found and re-verified for the two invalid formulas "
        f"({timings['K[a,b]p -> K[a]p']:.1f}s, "
        f"{timings['B[a][b]p -> K[a]p']:.1f}s); exhaustive search confirms "
        f"none for the monotone instance ({timings['monotone']:.1f}s)",
    )


def test_criterion_6_minimality_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(SEED)
    bounds = SearchBounds(max_agents=3, max_initial=2, max_actions=2,
                          max_outcomes=2, max_props=2, mode="random", seed=SEED)
    disagreements = []
    for i in range(100):
        game = sample_game(rng, bounds)
        play = game.plays[rng.randrange(len(game.plays))]
        agents = sorted(game.agents)
        knowers = frozenset(a for a in agents if rng.random() < 0.5)
        actors = frozenset(a for a in agents if rng.random() < 0.5)
        props = tuple(sorted(game.valuation))
        phi = random_formula(rng, props, tuple(game.agents), depth=1)
        universe = frozenset(game.agents)
        for kind in (1, 2, 3, 4):
            arg_actors = None if kind == 4 else actors
            direct = check_minimal(kind, game, play, knowers, arg_actors, phi)
            expanded = expand_minimality(kind, knowers, arg_actors, phi, universe)
            via_formula = holds(game, play, expanded).holds
            if direct != via_formula:
                disagreements.append((i, kind))
    elapsed = time.perf_counter() - start
    ok = not disagreements
    _report(
        "criterion-6",
        ok,
        f"100 sampled games x 4 kinds: direct checkers agree with formula "
        f"expansion everywhere ({elapsed:.1f}s); disagreements={disagreements[:3]}",
    )


MALFORMED = (
    "", "   ", "p ->", "-> p", "K[a p", "K[a,] p", "B[a] p", "B[a][b]",
    "(p", "p)", "p q", "p & ", "~", "K[]", "p <-> ", "K[1a] p", "__x",
    "p &| q", "Kd[a,, b] p", "false false", "K [a] p ->", "B[a][b] (p",
)


def test_criterion_7_parser_round_trip_and_malformed_corpus():
    start = time.perf_counter()
    rng = random.Random(SEED)
    mismatches = 0
    for _ in range(1000):
        f = random_formula(
            rng, ("p", "q", "r", "s"), ("a", "b", "c", "d"), depth=rng.randint(0, 8)
        )
        if parse_formula(render(f)) != f:
            mismatches += 1
    bad = []
    for text in MALFORMED:
        try:
            parse_formula(text)
            bad.append(text)
        except ParseError as exc:
            if exc.pos is None:
                bad.append(text)
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and not bad
    _report(
        "criterion-7",
        ok,
        f"1000 seeded formulas round-trip exactly; {len(MALFORMED)} malformed "
        f"inputs all raise a positioned syntax error ({elapsed:.1f}s); "
        f"bad={bad}",
    )
