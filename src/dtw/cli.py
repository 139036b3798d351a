"""Command-line front end.

Exit codes follow one convention across subcommands: 0 when the query
holds / the proof is accepted / no counterexample exists, 1 when the query
fails / the proof is rejected / a counterexample or countermodel is found,
and 2 on any operational error (bad syntax, validation failure, missing
file).  Randomized commands require an explicit ``--seed``; identical
invocations produce byte-identical output.  ``--json`` switches every
command to a machine-readable single-object report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import DtwError
from .formula import render
from .game import ActionProfile, Play, load_game, render_game_file
from .lemmas import example_files
from .minimality import minimal_verdict
from .parser import parse_formula
from .proof import Library, check_proof, parse_script
from .semantics import (
    SearchBounds,
    countermodel_search,
    holds,
    soundness_fuzz,
    valid_in_game,
)


class _CliError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc


def _load_game_file(path: str):
    return load_game(_read_text(path))


def _parse_play_spec(game, spec: str) -> Play:
    parts = spec.split("|")
    if len(parts) != 3:
        raise _CliError(
            f"play spec must be '<initial> | a=x,b=y,... | <outcome>', got {spec!r}"
        )
    initial = parts[0].strip()
    outcome = parts[2].strip()
    mapping = {}
    assignments = parts[1].strip()
    if assignments:
        for chunk in assignments.split(","):
            agent, sep, action = chunk.strip().partition("=")
            if not sep or not agent or not action:
                raise _CliError(f"malformed action assignment {chunk.strip()!r}")
            mapping[agent] = action
    play = Play(initial, ActionProfile.make(mapping), outcome)
    if not game.has_play(play):
        raise _CliError(f"no such play in the game: {play}")
    return play


def _parse_agent_list(text: str):
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(part.strip() for part in text.split(",") if part.strip())


def _print_verdict(verdict, as_json: bool) -> int:
    if as_json:
        print(json.dumps(verdict.as_dict(), sort_keys=True))
    else:
        print("holds" if verdict.holds else "does not hold")
        if verdict.witness is not None:
            print(f"witness: {verdict.witness}")
        if verdict.refutation is not None:
            print(f"refuted by play: {verdict.refutation}")
    return 0 if verdict.holds else 1


def _cmd_check(args) -> int:
    game = _load_game_file(args.game)
    play = _parse_play_spec(game, args.play)
    formula = parse_formula(args.formula)
    return _print_verdict(holds(game, play, formula), args.json)


def _cmd_valid(args) -> int:
    game = _load_game_file(args.game)
    formula = parse_formula(args.formula)
    return _print_verdict(valid_in_game(game, formula), args.json)


def _bounds_from(args, mode: str, seed=None, iterations=0) -> SearchBounds:
    return SearchBounds(
        max_agents=args.max_agents,
        max_initial=args.max_states,
        max_actions=args.max_actions,
        max_outcomes=args.max_outcomes,
        max_props=getattr(args, "max_props", 1),
        mode=mode,
        seed=seed,
        iterations=iterations,
    )


def _cmd_countermodel(args) -> int:
    formula = parse_formula(args.formula)
    if args.random:
        if args.seed is None:
            raise _CliError("--random requires --seed")
        bounds = _bounds_from(args, "random", seed=args.seed, iterations=args.iters)
    else:
        bounds = _bounds_from(args, "exhaustive")
    found = countermodel_search(formula, bounds)
    if found is None:
        if args.json:
            print(json.dumps({"found": False, "game": None, "play": None},
                             sort_keys=True))
        else:
            print("no countermodel within bounds")
        return 0
    game, play = found
    if args.json:
        print(json.dumps(
            {"found": True, "game": render_game_file(game),
             "play": play.as_dict()},
            sort_keys=True,
        ))
    else:
        print("countermodel found:")
        print(render_game_file(game), end="")
        print(f"play: {play}")
    return 1


def _cmd_prove(args) -> int:
    script = parse_script(_read_text(args.script))
    library = Library()
    if args.library:
        _load_library_dir(library, Path(args.library))
    result = check_proof(script, library)
    if args.json:
        print(json.dumps(
            {
                "accepted": result.accepted,
                "lines": len(script.lines),
                "error_line": result.line,
                "reason": result.code,
                "detail": result.detail,
            },
            sort_keys=True,
        ))
    elif result.accepted:
        print(f"accepted ({len(script.lines)} lines)")
    else:
        print(str(result))
    return 0 if result.accepted else 1


def _load_library_dir(library: Library, directory: Path) -> None:
    """Check every .prf file in the directory, registering the goal of each
    accepted hypothesis-free script under its file stem; iterate until no
    further script can be verified (citation order independent)."""
    if not directory.is_dir():
        raise _CliError(f"library directory not found: {directory}")
    pending = {}
    for path in sorted(directory.glob("*.prf")):
        try:
            pending[path.stem] = parse_script(path.read_text(encoding="utf-8"))
        except DtwError as exc:
            raise _CliError(f"library script {path.name}: {exc}") from exc
    progressing = True
    while progressing:
        progressing = False
        for stem, script in list(pending.items()):
            if script.hypotheses:
                del pending[stem]
                continue
            if check_proof(script, library).accepted:
                library.register(stem, script.goal)
                del pending[stem]
                progressing = True


def _cmd_fuzz(args) -> int:
    bounds = _bounds_from(args, "random", seed=args.seed, iterations=args.iters)
    found = soundness_fuzz(
        args.schema, bounds,
        enforce_side_conditions=not args.violate_side_conditions,
    )
    if found is None:
        if args.json:
            print(json.dumps(
                {"counterexample": False, "iterations": args.iters},
                sort_keys=True,
            ))
        else:
            print(f"no counterexample ({args.iters} instantiations)")
        return 0
    if args.json:
        print(json.dumps(
            {
                "counterexample": True,
                "schema": found.schema,
                "iteration": found.iteration,
                "instance": render(found.instance),
                "game": render_game_file(found.game),
                "play": found.play.as_dict(),
            },
            sort_keys=True,
        ))
    else:
        print(f"counterexample to {found.schema} at iteration {found.iteration}:")
        print(f"instance: {render(found.instance)}")
        print(render_game_file(found.game), end="")
        print(f"play: {found.play}")
    return 1


def _cmd_minimal(args) -> int:
    game = _load_game_file(args.game)
    play = _parse_play_spec(game, args.play)
    formula = parse_formula(args.formula)
    knowers = _parse_agent_list(args.knowers)
    if args.kind == 4:
        if args.actors is not None:
            raise _CliError("kind 4 quantifies the actor coalition; omit --actors")
        actors = None
    else:
        if args.actors is None:
            raise _CliError(f"kind {args.kind} requires --actors")
        actors = _parse_agent_list(args.actors)
    result = minimal_verdict(args.kind, game, play, knowers, actors, formula)
    if args.kind == 4:
        value = result is not None
        witness = sorted(result) if result is not None else None
    else:
        value = bool(result)
        witness = None
    if args.json:
        print(json.dumps(
            {"holds": value, "kind": args.kind, "witness_actors": witness},
            sort_keys=True,
        ))
    else:
        print("holds" if value else "does not hold")
        if witness is not None:
            print(f"witness actors: {','.join(witness) if witness else '(empty)'}")
    return 0 if value else 1


def _cmd_example(args) -> int:
    files = example_files()
    if args.name != "tarasoff":
        raise _CliError(f"unknown example {args.name!r}; available: tarasoff")
    target = Path(args.dir)
    target.mkdir(parents=True, exist_ok=True)
    for name in sorted(files):
        (target / name).write_text(files[name], encoding="utf-8")
        print(f"wrote {target / name}")
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtw",
        description="Model checking, proof checking, and countermodel search "
                    "for distributed knowledge and duty-to-warn modalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p = sub.add_parser("check", help="evaluate a formula at one play")
    p.add_argument("game")
    p.add_argument("play", help="'<initial> | a=x,b=y,... | <outcome>'")
    p.add_argument("formula")
    add_json(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("valid", help="check a formula at every play")
    p.add_argument("game")
    p.add_argument("formula")
    add_json(p)
    p.set_defaults(func=_cmd_valid)

    p = sub.add_parser("countermodel",
                       help="search small games for a falsifying play")
    p.add_argument("formula")
    p.add_argument("--max-agents", type=int, default=2)
    p.add_argument("--max-states", type=int, default=2)
    p.add_argument("--max-actions", type=int, default=2)
    p.add_argument("--max-outcomes", type=int, default=2)
    p.add_argument("--random", action="store_true",
                   help="sample games instead of exhaustive enumeration")
    p.add_argument("--seed", type=int)
    p.add_argument("--iters", type=int, default=1000)
    add_json(p)
    p.set_defaults(func=_cmd_countermodel)

    p = sub.add_parser("prove", help="check a proof script")
    p.add_argument("script")
    p.add_argument("--library", help="directory of .prf files citable via thm")
    add_json(p)
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("fuzz", help="randomized soundness search for a schema")
    p.add_argument("schema")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--max-agents", type=int, default=3)
    p.add_argument("--max-states", type=int, default=3)
    p.add_argument("--max-actions", type=int, default=2)
    p.add_argument("--max-outcomes", type=int, default=2)
    p.add_argument("--max-props", type=int, default=3)
    p.add_argument("--violate-side-conditions", action="store_true",
                   help="drop the schema's side conditions (expects a "
                        "counterexample)")
    add_json(p)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("minimal",
                       help="check one of the four minimal-coalition operators")
    p.add_argument("kind", type=int, choices=(1, 2, 3, 4))
    p.add_argument("game")
    p.add_argument("play")
    p.add_argument("formula")
    p.add_argument("--knowers", required=True, help="comma-separated agents")
    p.add_argument("--actors", help="comma-separated agents (kinds 1-3)")
    add_json(p)
    p.set_defaults(func=_cmd_minimal)

    p = sub.add_parser("example", help="write the bundled example files")
    p.add_argument("name")
    p.add_argument("--dir", default=".")
    p.set_defaults(func=_cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_CliError, DtwError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    run()
