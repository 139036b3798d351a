"""Command-line front end.

Exit codes follow one convention across subcommands: 0 when the query
holds / the proof is accepted / no counterexample exists, 1 when the query
fails / the proof is rejected / a counterexample or countermodel is found,
and 2 on any operational error (bad syntax, validation failure, missing
file, or a standard output that its reader closed, which alone exits
without a message).  Randomized commands require an explicit ``--seed``;
identical invocations produce byte-identical output.  ``--json`` switches
every command to a machine-readable single-object report.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

# Each command imports what it uses from the package's lazy modules when it
# runs, so that a process compiles and runs only those (see dtw/__init__.py).
from . import errors


class _CliError(Exception):
    pass


def _read_text(path: str | Path) -> str:
    """The file's text; a leading byte order mark is no part of it."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc


def _load_game_file(path: str):
    from .game import load_game
    return load_game(_read_text(path))


def _parse_play_spec(game, spec: str):
    from .game import ActionProfile, Play
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
            if agent in mapping:
                raise _CliError(f"play spec assigns agent {agent!r} twice")
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


def _report(args, record: dict, *text: str) -> None:
    """Print a command's result: its record as one JSON object with --json,
    otherwise its text lines."""
    if args.json:
        import json  # only here, so that a text-mode command never loads it
        print(json.dumps(record, sort_keys=True))
    else:
        print("\n".join(text))


def _print_verdict(args, verdict) -> int:
    lines = ["holds" if verdict.holds else "does not hold"]
    if verdict.witness is not None:
        lines.append(f"witness: {verdict.witness}")
    if verdict.refutation is not None:
        lines.append(f"refuted by play: {verdict.refutation}")
    _report(args, verdict.as_dict(), *lines)
    return 0 if verdict.holds else 1


def _cmd_check(args) -> int:
    from .evaluation import holds
    from .parser import parse_formula
    game = _load_game_file(args.game)
    play = _parse_play_spec(game, args.play)
    formula = parse_formula(args.formula)
    return _print_verdict(args, holds(game, play, formula))


def _cmd_valid(args) -> int:
    from .evaluation import valid_in_game
    from .parser import parse_formula
    game = _load_game_file(args.game)
    formula = parse_formula(args.formula)
    return _print_verdict(args, valid_in_game(game, formula))


def _bounds_from(args, mode: str):
    from .semantics import SearchBounds
    # Checked here, in SearchBounds field order, so that errors name the option.
    for option, least in (("max_agents", 1), ("max_states", 1), ("max_actions", 1),
                          ("max_outcomes", 1), ("max_props", 1), ("iters", 0)):
        value = getattr(args, option, None)
        if value is not None and value < least:
            raise _CliError(f"--{option.replace('_', '-')} must be at least "
                            f"{least}, got {value}")
    return SearchBounds(
        max_agents=args.max_agents,
        max_initial=args.max_states,
        max_actions=args.max_actions,
        max_outcomes=args.max_outcomes,
        max_props=getattr(args, "max_props", 1),
        mode=mode,
        seed=args.seed,
        iterations=1000 if args.iters is None else args.iters,
    )


def _cmd_countermodel(args) -> int:
    from .game import render_game_file
    from .parser import parse_formula
    from .semantics import countermodel_search
    formula = parse_formula(args.formula)
    if args.random and args.seed is None:
        raise _CliError("--random requires --seed")
    if not args.random and (args.seed is not None or args.iters is not None):
        raise _CliError("--seed and --iters apply only with --random")
    found = countermodel_search(
        formula, _bounds_from(args, "random" if args.random else "exhaustive"))
    if found is None:
        _report(args, {"found": False, "game": None, "play": None},
                "no countermodel within bounds")
        return 0
    game, play = found
    game_text = render_game_file(game)  # ends in a newline
    _report(args, {"found": True, "game": game_text, "play": play.as_dict()},
            "countermodel found:", game_text + f"play: {play}")
    return 1


def _cmd_prove(args) -> int:
    from .proof import Library, check_proof, parse_script
    script = parse_script(_read_text(args.script))
    library = Library()
    if args.library:
        _load_library_dir(library, Path(args.library))
    result = check_proof(script, library)
    _report(args, {"accepted": result.accepted, "lines": len(script.lines),
                   "error_line": result.line, "reason": result.code,
                   "detail": result.detail},
            f"accepted ({len(script.lines)} lines)" if result.accepted
            else str(result))
    return 0 if result.accepted else 1


def _load_library_dir(library, directory: Path) -> None:
    """Check every .prf file in the directory, registering the goal of each
    accepted hypothesis-free script under its file stem; iterate until no
    further script can be verified (citation order independent).  Only a
    citation of a theorem not yet registered can pass in a later round: the
    library only grows, so a script rejected for anything else is dropped."""
    from .proof import check_proof, parse_script
    if not directory.exists():
        raise _CliError(f"library directory not found: {directory}")
    if not directory.is_dir():
        raise _CliError(f"library path is not a directory: {directory}")
    pending = {}
    for path in sorted(directory.glob("*.prf")):
        try:
            pending[path.stem] = parse_script(_read_text(path))
        except errors.DtwError as exc:
            raise _CliError(f"library script {path.name}: {exc}") from exc
    progressing = True
    while progressing:
        progressing = False
        for stem, script in list(pending.items()):
            if script.hypotheses:
                del pending[stem]
                continue
            result = check_proof(script, library)
            if result.accepted:
                library.register(stem, script.goal)
                progressing = True
            if result.code != "unknown-theorem":
                del pending[stem]


def _cmd_fuzz(args) -> int:
    from .axioms import ALL_SCHEMAS, resolve_fuzz_group
    from .formula import render
    from .game import render_game_file
    from .semantics import soundness_fuzz
    if args.violate_side_conditions:
        try:
            group = resolve_fuzz_group(args.schema)
        except KeyError:
            group = ()  # soundness_fuzz reports the unknown name
        if group and not any(ALL_SCHEMAS[name].side for name in group):
            raise _CliError(f"schema {args.schema!r} has no side conditions to violate")
    found = soundness_fuzz(
        args.schema, _bounds_from(args, "random"),
        enforce_side_conditions=not args.violate_side_conditions,
    )
    if found is None:
        _report(args, {"counterexample": False, "iterations": args.iters},
                f"no counterexample ({args.iters} instantiations)")
        return 0
    instance, game_text = render(found.instance), render_game_file(found.game)
    _report(args, {"counterexample": True, "schema": found.schema,
                   "iteration": found.iteration, "instance": instance,
                   "game": game_text, "play": found.play.as_dict()},
            f"counterexample to {found.schema} at iteration {found.iteration}:",
            f"instance: {instance}", game_text + f"play: {found.play}")
    return 1


def _cmd_minimal(args) -> int:
    from .minimality import minimal_verdict
    from .parser import parse_formula
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
    value = result is not None if args.kind == 4 else bool(result)
    witness = sorted(result) if args.kind == 4 and value else None
    lines = ["holds" if value else "does not hold"]
    if witness is not None:
        lines.append(f"witness actors: {','.join(witness)}")
    _report(args, {"holds": value, "kind": args.kind, "witness_actors": witness},
            *lines)
    return 0 if value else 1


def _cmd_example(args) -> int:
    if args.name != "tarasoff":
        raise _CliError(f"unknown example {args.name!r}; available: tarasoff")
    from .lemmas import example_files
    files = example_files()
    target = Path(args.dir)
    try:
        target.mkdir(parents=True, exist_ok=True)
        for name in sorted(files):
            (target / name).write_text(files[name], encoding="utf-8")
            print(f"wrote {target / name}")
    except OSError as exc:
        raise _CliError(f"cannot write to {target}: {exc}") from exc
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
    p.add_argument("--seed", type=int, help="random seed (with --random)")
    p.add_argument("--iters", type=int,
                   help="games to sample (with --random; default 1000)")
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
                   help="violate each side condition of the schema, by one "
                        "random agent (expects a counterexample; a schema "
                        "without side conditions is an error)")
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


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning  # one line, no source location
        # A Warning is raised, not shown, when the filters say so (-W error).
        try:
            code = args.func(args)
            sys.stdout.flush()  # a closed pipe fails here, not at shutdown
            return code
        except BrokenPipeError:
            # The reader is gone, so nothing more can be said.  Point stdout
            # at devnull so that the flush at shutdown prints nothing.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 2
        except (_CliError, errors.DtwError, Warning) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def run() -> None:  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    run()
