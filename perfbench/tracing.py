"""In-memory spans around calls into the package's public functions.

The tracer wraps functions from outside: every module attribute of the
``dtw`` package that refers to a traced function is replaced by a wrapper
for the duration of a ``with Tracer(...)`` block, so calls the package makes
between its own modules are traced as well, and nothing under ``src/``
changes.  A span is (name, start, end, parent); self time is a span's
duration minus the spans directly under it.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

from dtw.formula import children_of
from reference import boolean_atom_count

# (module, function) pairs whose calls become spans.
TRACED = (
    ("dtw.parser", "parse_formula"),
    ("dtw.proof", "parse_script"),
    ("dtw.game", "load_game"),
    ("dtw.game", "validate_game"),
    ("dtw.game", "make_game"),
    ("dtw.semantics", "enumerate_games"),
    ("dtw.semantics", "countermodel_search"),
    ("dtw.semantics", "holds"),
    ("dtw.semantics", "valid_in_game"),
    ("dtw.semantics", "sample_game"),
    ("dtw.semantics", "soundness_fuzz"),
    ("dtw.minimality", "minimal_verdict"),
    ("dtw.formula", "expand_minimality"),
    ("dtw.axioms", "match_schema"),
    ("dtw.axioms", "instantiate"),
    ("dtw.proof", "is_tautology"),
    ("dtw.proof", "check_proof"),
    ("dtw.proof", "apply_deduction_theorem"),
    ("dtw.lemmas", "gen_lemma_script"),
    ("dtw.cli", "main"),
)


def span_name(module: str, func: str) -> str:
    return f"{module.split('.')[-1]}.{func}"


class Tracer:
    """Records spans while ``active``; use as a context manager to install
    and remove the wrappers."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = []
        self.counts = Counter()
        self.active = False
        self._patched = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_of.append(ident)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def mark(self) -> int:
        """Position in the span table, to aggregate the spans after it."""
        return len(self.start)

    def aggregate(self, since: int = 0):
        """{name: (calls, self seconds)} over spans recorded after ``since``."""
        covered = {}
        for i in range(since, len(self.start)):
            p = self.parent[i]
            if p >= since:
                covered[p] = covered.get(p, 0.0) + self.end[i] - self.start[i]
        out = {}
        for i in range(since, len(self.start)):
            name = self.names[self.name_of[i]]
            calls, busy = out.get(name, (0, 0.0))
            out[name] = (calls + 1,
                         busy + self.end[i] - self.start[i] - covered.get(i, 0.0))
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name_of[i]]}"
                         f"\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, func):
        if name == "semantics.enumerate_games":
            return self._wrap_generator(name, func)
        tracer = self
        counts = self.counts

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            if name == "proof.is_tautology":
                hits = func.cache_info().hits
            span = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.finish(span)
            if name == "game.load_game":
                counts["game.load_game.plays"] += len(result.plays)
            elif name == "formula.expand_minimality":
                counts["formula.expand_minimality.nodes"] += _node_count(result)
            elif name == "proof.is_tautology":
                counts["proof.is_tautology.hits"] += func.cache_info().hits - hits
                atoms = boolean_atom_count(args[0])
                if atoms > counts["proof.is_tautology.max_atoms"]:
                    counts["proof.is_tautology.max_atoms"] = atoms
            return result

        return traced

    def _wrap_generator(self, name, func):
        """Spans each step of the model stream; the consumer's work between
        steps belongs to its caller.  Counts the models yielded and, for
        streams the budget admits, the models the enumeration would visit."""
        tracer = self
        counts = self.counts
        count_models = sys.modules["dtw.semantics"].count_models

        @functools.wraps(func)
        def traced(formula_agents, props, bounds, *args, **kwargs):
            stream = func(formula_agents, props, bounds, *args, **kwargs)
            if not tracer.active:
                yield from stream
                return
            started = False
            while True:
                span = tracer.begin(name)
                try:
                    game = next(stream)
                except StopIteration:
                    return
                finally:
                    tracer.finish(span)
                if not started:
                    started = True
                    counts["semantics.enumerate_games.planned"] += count_models(
                        formula_agents, props, bounds)
                counts["semantics.enumerate_games.models"] += 1
                yield game

        return traced

    def __enter__(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "dtw" or n.startswith("dtw.")]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(span_name(module_name, func_name), original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False


def _node_count(f) -> int:
    total, stack = 0, [f]
    while stack:
        g = stack.pop()
        total += 1
        stack.extend(children_of(g))
    return total
