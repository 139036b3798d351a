"""The benchmark's four workloads: seeded inputs, the fixed op list of one
pass, and the expected answer of every op.

An op is one user-level request.  ``Op.run`` is the timed call.
``Op.expect``, if set, computes the expected answer from the references; the
runner calls it once per run, in a separate process, so the references'
state never adds to the memory of the process that times the ops.
``Op.check`` receives the op's result (or the exception it raised) and the
expected answer, and decides, outside the timed region, whether the answer
is right.  Ops ask for the package's functions when they run, not when they
are built, so that traced runs see every call.  Seeds change names,
coalitions, plays and the mutants picked, never the shape of the work, so
the amount of work in a pass is the same for every seed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import pickle
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import dtw
import dtw.cli
from dtw import proof as dtw_proof
from dtw.errors import ResourceLimitError
from dtw.formula import Blame, Implies, Know, Not, Prop

import oracles
import reference as ref

AGENT_POOL = ("ada", "bea", "cal", "dov", "eli", "fay", "gus", "hal",
              "ivo", "jun", "kit", "lou", "max", "ned", "ola", "pim")
PROP_POOL = ("p", "q", "r", "s", "t", "u", "v", "w", "m", "n", "x", "y")


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    # (result, exception raised or None, expected answer) -> answer is right
    check: Callable[[object, Optional[BaseException], object], bool]
    # Computes a picklable expected answer; None if the check needs none.
    expect: Optional[Callable[[], object]] = None


@dataclass
class Workload:
    name: str
    ops: List[Op]
    # Ops with the same answers run inside this process; only ``cli`` differs.
    in_process_ops: Optional[List[Op]] = None
    reset: Callable[[], None] = lambda: None
    # Starts the command processes of ``cli``; open it around the passes.
    launcher: Optional["Launcher"] = None


def returns(value):
    """A check that the op returned ``value``."""
    return lambda result, exc, expected: exc is None and result == value


def returns_expected(result, exc, expected) -> bool:
    return exc is None and result == expected


def expect_refusal(result, exc, expected) -> bool:
    return isinstance(exc, ResourceLimitError)


def play_text(play) -> Optional[str]:
    return None if play is None else ref.render_play(play)


def _names(rng, pool, k):
    return sorted(rng.sample(pool, k))


_IS_TAUTOLOGY = dtw_proof.is_tautology  # the memoised function, even while traced


def _clear_tautology_memo():
    _IS_TAUTOLOGY.cache_clear()


# ---------------------------------------------------------------------------
# search: countermodel search and soundness fuzzing on tiny games.
# ---------------------------------------------------------------------------

# Instances of sound schemas over one proposition: no countermodel exists,
# so the search walks every model within the bounds.
VALID_TEMPLATES = (
    "K[{x}]{p} -> K[{x},{y}]{p}",
    "B[{x}][{y}]{p} -> {p}",
    "K[{x}]{p} -> {p}",
    "~K[{x}]~B[{x}][{y}]{p} -> ({p} -> B[{x}][{y}]{p})",
    "~K[{x}]{p} -> K[{x}]~K[{x}]{p}",
    "B[{x}][{y}]{p} -> K[{x}]({p} -> B[{x}][{y}]{p})",
)
# Invalid formulas: the search stops at the first countermodel.
INVALID_TEMPLATES = (
    "K[{x},{y}]{p} -> K[{x}]{p}",
    "B[{x}][{y}]{p} -> K[{x}]{p}",
    "{p} -> K[{x}]{p}",
    "K[{x}]{p} -> B[{x}][{y}]{p}",
    "B[{x}][{y}]{p} -> B[{y}][{x}]{p}",
    "K[{x}]{p} -> K[{y}]{p}",
)
FUZZ_GROUPS = ("Truth", "Monotonicity", "JointResponsibility", "Lemma3")


def first_countermodel_text(formula, bounds=None):
    """The reference's first countermodel as (game file, play), or None."""
    bounds = bounds or dtw.SearchBounds()
    found = ref.first_countermodel(formula, oracles.naive_holds, bounds.max_agents,
                                   bounds.max_initial, bounds.max_actions,
                                   bounds.max_outcomes)
    return found and (ref.render_game(found[0]), ref.render_play(found[1]))


def _countermodel_check(formula):
    def check(result, exc, expected):
        if exc is not None or result is None or expected is None:
            return False
        game, play = result
        return (not oracles.naive_holds(game, play, formula)
                and (dtw.render_game_file(game), ref.render_play(play)) == expected)

    return check


def _violation_check(result, exc, expected) -> bool:
    return (exc is None and result is not None
            and not oracles.naive_holds(result.game, result.play, result.instance)
            and bool(result.substitution["D"] & result.substitution["F"]))


def build_search(seed: int, smoke: bool = False, root: Path = None) -> Workload:
    rng = random.Random(seed)
    # The fuzzers' random streams do not depend on the seed: how long a
    # random fuzz run takes depends on the games it draws, and the work of a
    # pass is the same for every seed.
    shape = random.Random("search")
    x, y = _names(rng, AGENT_POOL, 2)
    p, q = rng.sample(PROP_POOL, 2)
    fill = dict(x=x, y=y, p=p)
    default = dtw.SearchBounds()
    single = dtw.SearchBounds(max_outcomes=1)
    fuzz_iters = 40 if smoke else 150
    ops = []

    def search(kind, text, bounds, check=returns(None), countermodel=False):
        """With ``countermodel``, the answer must be the reference's first
        countermodel."""
        formula = dtw.parse_formula(text)
        expect = None
        if countermodel:
            check = _countermodel_check(formula)
            expect = functools.partial(first_countermodel_text, formula, bounds)
        ops.append(Op(kind, lambda: dtw.countermodel_search(formula, bounds),
                      check, expect))

    if not smoke:
        search("search.valid_default", VALID_TEMPLATES[0].format(**fill), default)
    for template in VALID_TEMPLATES[: 2 if smoke else None]:
        search("search.valid_single_outcome", template.format(**fill), single)
    for template in INVALID_TEMPLATES[: 2 if smoke else None]:
        search("search.invalid_default", template.format(**fill), default,
               countermodel=True)
    # Two random fuzz runs per group: the median op falls among these eight
    # alike ops, not in the gap between two kinds.
    for group in FUZZ_GROUPS[: 1 if smoke else None] * 2:
        bounds = dtw.SearchBounds(max_agents=3, max_initial=3, max_actions=2,
                                  max_outcomes=2, max_props=3, mode="random",
                                  seed=shape.randrange(10**6), iterations=fuzz_iters)
        ops.append(Op("search.fuzz_random",
                      lambda group=group, bounds=bounds: dtw.soundness_fuzz(group, bounds),
                      returns(None)))
    # Two exhaustive fuzz runs cost about what the 0.4 s invalid search
    # costs; with three passes the tail rank falls among these nine samples.
    for group in ("Truth", "NegIntrospection")[: 1 if smoke else None]:
        tiny = dtw.SearchBounds(max_agents=1 if smoke else 2, max_initial=2,
                                max_actions=2, max_outcomes=1, max_props=1,
                                seed=shape.randrange(10**6))
        ops.append(Op("search.fuzz_exhaustive",
                      lambda group=group, tiny=tiny: dtw.soundness_fuzz(group, tiny),
                      returns(None)))
    broken = dtw.SearchBounds(max_agents=3, max_initial=3, max_actions=2,
                              max_outcomes=2, max_props=3, mode="random",
                              seed=shape.randrange(10**6), iterations=1000)
    ops.append(Op("search.fuzz_violated",
                  lambda: dtw.soundness_fuzz("JointResponsibility", broken,
                                             enforce_side_conditions=False),
                  _violation_check))
    # Two propositions at the default bounds: 400,030,720 models, over budget.
    search("search.refused", f"K[{x}]({p} -> {q}) -> (K[{x}]{p} -> K[{x}]{q})",
           default, expect_refusal)
    return Workload("search", ops)


# ---------------------------------------------------------------------------
# modelcheck: large generated games, a stream of queries on each.
# ---------------------------------------------------------------------------

STATES = ("jan", "feb", "mar", "apr")
OUTCOMES = ("calm", "hurt", "loss")


def make_mc_game(rng, shape, n_agents: int) -> ref.RGame:
    """A game in the shape of the Tarasoff example, scaled up: an attacker,
    a protector whose safe action depends on the initial state, and a
    signaller.  ``shape`` fixes the partitions, which cells have two
    outcomes (one in five) and the valuation of ``q``, so that every seed
    gives the same game up to names: how early a search for a preventing
    action stops depends on them, and the work must not depend on the seed.
    ``rng`` draws the agent names and the outcome labels."""
    agents = _names(rng, AGENT_POOL, n_agents)
    attacker, protector, signaller = agents[:3]
    partitions = {}
    for agent in agents:
        labels = [shape.randrange(2) for _ in STATES]
        partitions[agent] = tuple(
            frozenset(s for s, lab in zip(STATES, labels) if lab == k)
            for k in sorted(set(labels)))
    plays = []
    valuation = {"harm": [], "alarm": [], "q": []}
    cell_plays = []  # index of the first play of each (state, profile) cell
    for si, state in enumerate(STATES):
        safe = str(si % 3)
        for combo in itertools.product("012", repeat=n_agents):
            mapping = dict(zip(agents, combo))
            harm = mapping[attacker] == "1" and mapping[protector] != safe
            cell_plays.append(len(plays))
            for outcome in rng.sample(OUTCOMES, 2 if shape.random() < 0.2 else 1):
                play = ref.make_play(state, mapping, outcome)
                plays.append(play)
                if harm:
                    valuation["harm"].append(play)
                if mapping[signaller] == "2":
                    valuation["alarm"].append(play)
                if shape.random() < 0.5:
                    valuation["q"].append(play)
    game = ref.RGame(agents, STATES, partitions, ("0", "1", "2"), OUTCOMES,
                     plays, valuation)
    game.roles = (attacker, protector, signaller)
    game.cell_plays = cell_plays
    return game


def _blame(knowers, actors, child):
    return Blame(frozenset(knowers), frozenset(actors), child)


def _or(left, right):
    return Implies(Not(left), right)


def _expected_verdict(checker, index, formula):
    """(holds, witness dict or None, refuting play's text or None)."""
    value, witness, refutation = checker.holds(index, formula)
    return value, witness, None if refutation is None else play_text(checker.plays[refutation])


def _verdict_check(result, exc, expected) -> bool:
    return exc is None and expected == (
        result.holds, result.witness.as_dict() if result.witness else None,
        play_text(result.refutation))


def _expected_validity(checker, formula):
    """(valid, first refuting play's text or None)."""
    value, refutation = checker.valid(formula)
    return value, None if refutation is None else play_text(checker.plays[refutation])


def _validity_check(result, exc, expected) -> bool:
    return exc is None and expected == (result.holds, play_text(result.refutation))


def _load_check(result, exc, expected) -> bool:
    return exc is None and [ref.render_play(p) for p in result.plays] == expected


def build_modelcheck(seed: int, smoke: bool = False, root: Path = None) -> Workload:
    rng = random.Random(seed)
    sizes = (3, 4) if smoke else (4, 5, 6)
    # Coalitions and query plays are picked by position from a stream fixed
    # per game size, so the amount of work does not depend on the seed.
    shapes = [random.Random(n) for n in sizes]
    games = [make_mc_game(rng, shape, n) for shape, n in zip(shapes, sizes)]
    texts = [ref.render_game(g) for g in games]
    loaded = {}
    ops = []
    for gi, (game, text, shape) in enumerate(zip(games, texts, shapes)):
        checker = ref.Checker(game)
        n = len(game.agents)
        attacker, protector, _ = game.roles

        def load(gi=gi, text=text):
            loaded[gi] = dtw.load_game(text)
            return loaded[gi]

        ops.append(Op("modelcheck.load", load, _load_check,
                      lambda game=game: [ref.render_play(p) for p in game.plays]))

        def coal(k, game=game, shape=shape):
            return frozenset(shape.sample(game.agents, k))

        harm, alarm, q = Prop("harm"), Prop("alarm"), Prop("q")
        # Query plays are chosen by cell, so what holds there is the same
        # for every seed: one harmful cell and two arbitrary ones.
        harmful = [i for i in game.cell_plays if game.plays[i] in game.valuation["harm"]]
        at = [harmful[shape.randrange(len(harmful))],
              game.cell_plays[shape.randrange(len(game.cell_plays))],
              game.cell_plays[shape.randrange(len(game.cell_plays))]]
        guard = frozenset({protector})
        both = frozenset({attacker, protector})
        c = coal(2)
        queries = [
            _blame(coal(shape.randint(1, 2)), guard, harm),
            _blame(coal(shape.randint(1, 2)), coal(shape.randint(1, min(5, n))),
                   _or(harm, alarm)),
            Know(coal(shape.randint(1, 2)), harm),
            Know(c, Implies(harm, _blame(c, both, harm))),
            Not(Know(coal(1), Not(_blame(coal(2), guard, harm)))),
        ]
        # Queries arrive as text; the parser's AST is not the reference's.
        for index in at:
            for formula in queries:
                ops.append(Op(
                    "modelcheck.holds",
                    lambda gi=gi, index=index, text=ref.formula_text(formula):
                        dtw.holds(loaded[gi], loaded[gi].plays[index],
                                  dtw.parse_formula(text)),
                    _verdict_check,
                    functools.partial(_expected_verdict, checker, index, formula)))
        c2 = coal(2)
        c1, d1 = coal(1), coal(min(4, n - 2))
        validity = [
            Implies(_blame(coal(1), coal(min(5, n - 1)), _or(harm, q)), _or(harm, q)),
            Implies(_blame(c1, d1, alarm),
                    Know(c1, Implies(alarm, _blame(c1, d1, alarm)))),
            Implies(Know(coal(2), alarm), alarm),
            Implies(Know(coal(1), Know(c2, harm)), Know(c2, harm)),
            Implies(harm, Know(coal(1), harm)),
            Implies(_blame(coal(1), guard, harm), Know(coal(1), harm)),
        ]
        for formula in validity:
            ops.append(Op("modelcheck.valid",
                          lambda gi=gi, text=ref.formula_text(formula):
                              dtw.valid_in_game(loaded[gi], dtw.parse_formula(text)),
                          _validity_check,
                          functools.partial(_expected_validity, checker, formula)))
        play = at[0]
        knowers = frozenset(shape.sample(game.agents, shape.randint(1, 2)))
        actors = guard if gi % 2 else both
        kinds = (1, 2, 3, 4) if n <= 4 else (1, 2, 3)
        for kind in kinds:
            who = None if kind == 4 else actors
            expected = functools.partial(checker.minimal, kind, play, knowers,
                                         actors, harm)
            ops.append(Op(
                f"modelcheck.minimal{kind}",
                lambda gi=gi, kind=kind, who=who, play=play, knowers=knowers:
                    dtw.minimal_verdict(kind, loaded[gi], loaded[gi].plays[play],
                                        knowers, who, harm),
                returns_expected, expected))
        for kind in kinds[:3]:
            expected = functools.partial(checker.minimal, kind, play, knowers,
                                         actors, harm)

            def expand(gi=gi, kind=kind, play=play, knowers=knowers, actors=actors):
                game_now = loaded[gi]
                f = dtw.expand_minimality(kind, knowers, actors, harm, game_now.agents)
                return dtw.holds(game_now, game_now.plays[play], f).holds

            ops.append(Op("modelcheck.expand", expand, returns_expected, expected))
    return Workload("modelcheck", ops, reset=loaded.clear)


# ---------------------------------------------------------------------------
# prove: proof scripts and tautologies, no games.
# ---------------------------------------------------------------------------

def _and(a, b):
    return Not(Implies(a, Not(b)))


def _all(items):
    out = items[0]
    for item in items[1:]:
        out = _and(out, item)
    return out


def tautology_atoms(rng, n):
    """n distinct atoms: propositions and opaque modal subformulas."""
    agents = rng.sample(AGENT_POOL, 2)
    props = [Prop(f"{rng.choice(PROP_POOL)}{i}") for i in range(n)]
    atoms = []
    for i, atom in enumerate(props):
        if i % 3 == 1:
            atom = Know(frozenset({agents[0]}), atom)
        elif i % 3 == 2:
            atom = Blame(frozenset({agents[0]}), frozenset({agents[1]}), atom)
        atoms.append(atom)
    return atoms


def chain_tautology(atoms):
    """(a1 -> a2) & ... & (a(n-1) -> an) -> (a1 -> an): a tautology."""
    links = [Implies(a, b) for a, b in zip(atoms, atoms[1:])]
    return Implies(_all(links), Implies(atoms[0], atoms[-1]))


def last_row_refuted(atoms):
    """a1 & ... & an -> ~an: false only on the all-true row, which the
    truth table reaches last."""
    return Implies(_all(atoms), Not(atoms[-1]))


def _script_check(script_text, library, expected_goal, expected_lines):
    def run():
        script = dtw.parse_script(script_text)
        return script, dtw.check_proof(script, library)

    def check(result, exc, expected):
        if exc is not None:
            return False
        script, verdict = result
        return (verdict.accepted and script.goal == expected_goal
                and len(script.lines) == expected_lines)

    return run, check


CORPUS_ROUNDS = 3


def build_prove(seed: int, smoke: bool = False, root: Path = None) -> Workload:
    rng = random.Random(seed)
    ops = []
    corpus = dtw.bundled_scripts()
    library = dtw.bundled_library()
    corpus_texts = {name: dtw.render_script(s) for name, s in corpus.items()}
    # The corpus is checked in rounds, as a long-lived checker sees the same
    # scripts again; its 3-4 ms checks are then numerous enough for the
    # median op to fall among them in every pass.
    for _ in range(1 if smoke else CORPUS_ROUNDS):
        for name, script in sorted(corpus.items()):
            run, check = _script_check(corpus_texts[name], library, script.goal,
                                       len(script.lines))
            ops.append(Op("prove.corpus", run, check))

    def generated(lemma, expected_goal, **params):
        def run():
            script = dtw.gen_lemma_script(lemma, **params)
            parsed = dtw.parse_script(dtw.render_script(script))
            return parsed, dtw.check_proof(parsed)

        def check(result, exc, expected):
            return (exc is None and result[1].accepted
                    and result[0].goal == expected_goal)

        return Op(f"prove.{lemma}", run, check)

    for n in range(2, 4 if smoke else 7):
        names = rng.sample(AGENT_POOL, 2 * n)
        knowers = [frozenset({a}) for a in names[:n]]
        actors = [frozenset({a}) for a in names[n:]]
        disjuncts = [Prop(p) for p in rng.sample(PROP_POOL, n)]
        goal = Blame(frozenset(names[:n]), frozenset(names[n:]),
                     _disjunction(disjuncts))
        ops.append(generated("lemma6", goal, knowers=knowers, actors=actors,
                             disjuncts=disjuncts))
    a, b, c = _names(rng, AGENT_POOL, 3)
    phi, chi1, chi2 = (Prop(p) for p in rng.sample(PROP_POOL, 3))
    big_c, big_d = frozenset({a, b}), frozenset({a, c})
    ops.append(generated(
        "lemma7", Know(big_c, Implies(phi, Blame(big_c, big_d, phi))),
        knowers=big_c, actors=big_d, sub_knowers=[{a}, {b}],
        sub_actors=[{a}, {c}], disjuncts=[chi1, chi2], phi=phi))

    # Single-line mutants of an accepted script must all be rejected.
    x, y = _names(rng, AGENT_POOL, 2)
    base = dtw.gen_lemma_script("lemma3", knowers={x}, actors={y},
                                phi=Prop(rng.choice(PROP_POOL)))
    mutants = list(oracles.mutated_scripts(base, {x, y, "zz"}))
    # Twelve, so that the median op falls among the 3-4 ms corpus checks.
    for _, _, mutated in rng.sample(mutants, 3 if smoke else 12):
        ops.append(Op("prove.mutant", lambda mutated=mutated: dtw.check_proof(mutated),
                      lambda result, exc, expected: exc is None and not result.accepted))

    # A library built from the hypothesis-free corpus, then a citation.
    free = [name for name, s in sorted(corpus.items()) if not s.hypotheses]
    citing = corpus_texts["lemma6_n1_thm"]

    def with_library():
        lib = dtw.Library()
        for name in free:
            script = dtw.parse_script(corpus_texts[name])
            if dtw.check_proof(script, lib).accepted:
                lib.register(name, script.goal)
        return sorted(lib.as_dict()), dtw.check_proof(dtw.parse_script(citing), lib)

    ops.append(Op("prove.library", with_library,
                  lambda result, exc, expected: exc is None and result[0] == free
                  and result[1].accepted))

    hyps = dtw.gen_lemma_script("lemma6", knowers=[{x}, {y}], actors=[{x}, {y}],
                                disjuncts=[Prop("p"), Prop("q")])
    discharged_goal = Implies(hyps.hypotheses[-1], hyps.goal)

    def deduce():
        out = dtw.apply_deduction_theorem(hyps)
        return out.goal, dtw.check_proof(out)

    ops.append(Op("prove.deduction", deduce,
                  lambda result, exc, expected: exc is None
                  and result[0] == discharged_goal and result[1].accepted))

    # Standalone truth tables of 8 to 16 atoms: fresh formulas miss the
    # memo, repeats hit it.
    widths = (8, 10) if smoke else (8, 10, 12, 14)
    fresh = []
    for n in widths:
        atoms = tautology_atoms(rng, n)
        fresh.append((chain_tautology(atoms), True))
        fresh.append((last_row_refuted(atoms), False))
    fresh.append((chain_tautology(tautology_atoms(rng, 12 if smoke else 16)), True))
    repeats = [fresh[-1], fresh[len(fresh) // 2]]
    for formula, expected in fresh + repeats:
        ops.append(Op("prove.tautology", lambda formula=formula: dtw.is_tautology(formula),
                      returns(expected)))
    return Workload("prove", ops, reset=_clear_tautology_memo)


def _disjunction(items):
    """Left-associated, as the lemma states it: ((c1 | c2) | c3) ..."""
    out = items[0]
    for item in items[1:]:
        out = Implies(Not(out), item)
    return out


# ---------------------------------------------------------------------------
# cli: fresh `python -m dtw.cli` processes on the Tarasoff files.
# ---------------------------------------------------------------------------

@dataclass
class Completed:
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int = 0


class Launcher:
    """Runs commands through ``launcher.py``, so that each command's peak
    resident memory is its own and not this process's (see there).  A
    context manager: the launcher process lives inside the ``with``."""

    def __init__(self, root: Path):
        self.root = root
        self.process = None
        self.peak_rss_kb = 0  # largest peak of the commands run

    def __enter__(self):
        script = Path(__file__).with_name("launcher.py")
        self.process = subprocess.Popen([sys.executable, str(script), str(self.root)],
                                        cwd=self.root, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE)
        return self

    def __call__(self, argv) -> Completed:
        pickle.dump(list(argv), self.process.stdin)
        self.process.stdin.flush()
        done = Completed(*pickle.load(self.process.stdout))
        self.peak_rss_kb = max(self.peak_rss_kb, done.maxrss_kb)
        return done

    def __exit__(self, *exc):
        self.process.stdin.close()
        self.process.stdout.close()
        self.process.wait()
        return False


def run_in_process(argv) -> Completed:
    out, err = io.StringIO(), io.StringIO()
    _clear_tautology_memo()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = dtw.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return Completed(code, out.getvalue().encode(), err.getvalue().encode())


def _verdict_text(holds, witness=None, refutation=None) -> str:
    out = "holds\n" if holds else "does not hold\n"
    if witness is not None:
        out += "witness: " + ",".join(f"{a}={x}" for a, x in sorted(witness.items())) + "\n"
    if refutation is not None:
        out += f"refuted by play: {ref.render_play(refutation)}\n"
    return out


def _cli_check(result, exc, expected) -> bool:
    code, stdout = expected
    return (exc is None and result.code == code and result.stdout == stdout.encode()
            and b"Traceback" not in result.stderr
            and (code != 2 or b"error" in result.stderr))


def build_cli(seed: int, smoke: bool = False, root: Path = None) -> Workload:
    rng = random.Random(seed)
    work = root / ".perfbench_out" / "cli-files"
    work.mkdir(parents=True, exist_ok=True)
    files = dtw.example_files()
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")
    game_path = str(work / "tarasoff.game")
    tarasoff = dtw.tarasoff_game()
    checker = ref.Checker(tarasoff)
    plays = list(tarasoff.plays)
    # (kind, argv, thunk giving the expected exit code and stdout)
    commands = []
    killed = Prop("killed")

    def knows(*agents):
        return Know(frozenset(agents), killed)

    def query(index, text, formula):
        def expected():
            value, witness, refutation = checker.holds(index, formula)
            refuted = plays[refutation] if refutation is not None else None
            return (0 if value else 1), _verdict_text(value, witness, refuted)
        commands.append(("cli.check", ["check", game_path, ref.render_play(plays[index]),
                                       text], expected))

    attacks = [i for i, p in enumerate(plays) if p.profile.as_dict()["poddar"] == "1"]
    query(rng.choice(attacks), "B[university][parents] killed",
          _blame({"university"}, {"parents"}, killed))
    query(rng.choice(attacks), "B[parents][parents] killed",
          _blame({"parents"}, {"parents"}, killed))
    query(rng.randrange(len(plays)), "K[university] killed", knows("university"))
    for text, formula in (("K[parents] killed -> killed",
                           Implies(knows("parents"), killed)),
                          rng.choice((("killed -> K[university] killed",
                                       Implies(killed, knows("university"))),
                                      ("K[poddar] killed -> K[parents] killed",
                                       Implies(knows("poddar"), knows("parents")))))):
        def expected(formula=formula):
            value, refutation = checker.valid(formula)
            refuted = plays[refutation] if refutation is not None else None
            return (0 if value else 1), _verdict_text(value, refutation=refuted)
        commands.append(("cli.valid", ["valid", game_path, text], expected))
    for name, extra in (("lemma3_a_b_p", []), ("lemma6_n1_thm", ["--library", str(work)])):
        lines = sum(1 for line in files[f"{name}.prf"].splitlines()
                    if line.split(".", 1)[0].isdigit())
        commands.append(("cli.prove", ["prove", str(work / f"{name}.prf"), *extra],
                         lambda lines=lines: (0, f"accepted ({lines} lines)\n")))
    x, y = _names(rng, AGENT_POOL, 2)
    p = Prop("p")
    for text, formula in ((f"K[{x},{y}]p -> K[{x}]p",
                           Implies(Know(frozenset({x, y}), p), Know(frozenset({x}), p))),
                          (f"B[{x}][{y}]p -> K[{x}]p",
                           Implies(_blame({x}, {y}, p), Know(frozenset({x}), p)))):
        def counter_expected(formula=formula):
            game, play = first_countermodel_text(formula)
            return 1, f"countermodel found:\n{game}play: {play}\n"

        commands.append(("cli.countermodel", ["countermodel", text, "--max-agents",
                                              "2", "--max-states", "2"], counter_expected))
    iters = 50 if smoke else 200
    commands.append(("cli.fuzz", ["fuzz", rng.choice(FUZZ_GROUPS), "--iters", str(iters),
                                  "--seed", str(rng.randrange(10**6))],
                     lambda: (0, f"no counterexample ({iters} instantiations)\n")))
    fixed = "Oct | poddar=1,parents=1,university=0 | dead"
    fixed_index = next(i for i, p in enumerate(plays) if p.initial == "Oct"
                       and p.outcome == "dead" and p.profile.as_dict()
                       == {"poddar": "1", "parents": "1", "university": "0"})
    knowers = rng.choice(("university", "parents"))

    def minimal_expected():
        found = checker.minimal(4, fixed_index, {knowers}, None, killed)
        if found is None:
            return 1, "does not hold\n"
        return 0, "holds\nwitness actors: " + (",".join(sorted(found)) or "(empty)") + "\n"

    commands.append(("cli.minimal", ["minimal", "4", game_path, fixed, "killed",
                                     "--knowers", knowers], minimal_expected))
    errors = [
        ["check", game_path, fixed, "B[university][parents"],
        ["valid", str(work / "missing.game"), "killed"],
        ["check", game_path, fixed, "K[nobody] killed"],
        ["fuzz", "NoSuchSchema", "--seed", "1"],
    ]
    for argv in errors[: 2 if smoke else None]:
        commands.append(("cli.error", argv, lambda: (2, "")))

    def make_ops(runner):
        return [Op(kind, functools.partial(runner, argv), _cli_check, expected)
                for kind, argv, expected in commands]

    launcher = Launcher(root)
    return Workload("cli", make_ops(launcher), make_ops(run_in_process),
                    launcher=launcher)


CATALOG = {
    "search": build_search,
    "modelcheck": build_modelcheck,
    "prove": build_prove,
    "cli": build_cli,
}
