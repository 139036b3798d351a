"""The package's classes as they were when they were dataclasses, frozen
so that the hand-written classes that replaced them can be compared with
them: the same hashes, ``repr`` strings, field values, pickle arguments and
equality.  The formula nodes, plays and action profiles come first; the
nodes' ``repr`` needs the printer, so a copy of ``render`` comes with them.
Then come the records: the game, the query and fuzzing results, the search
bounds, the axiom schema and the proof steps."""

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from dtw.errors import BadParamsError

TRUE_SEED = "__true_seed"


class Formula:
    __slots__ = ()

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self.__class__ is not other.__class__ or self._hash != other._hash:
            return False
        pairs = []
        a, b = self, other
        while True:
            if a is not b:
                cls = a.__class__
                if cls is not b.__class__ or a._hash != b._hash:
                    return False
                if cls is Implies:
                    pairs.append((a.right, b.right))
                    a, b = a.left, b.left
                    continue
                if cls is Prop:
                    if a.name != b.name:
                        return False
                elif cls is Not or (a.knowers == b.knowers
                                    and (cls is Know or a.actors == b.actors)):
                    a, b = a.child, b.child
                    continue
                else:
                    return False
            if not pairs:
                return True
            a, b = pairs.pop()

    def __ne__(self, other):
        return not self.__eq__(other)

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name)
                                     for name in self.__match_args__)

    def __repr__(self):
        return f"<{self.__class__.__name__} {render(self)!r}>"


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Prop(Formula):
    name: str
    _hash: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(("prop", self.name)))


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Not(Formula):
    child: Formula
    _hash: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(("not", self.child._hash)))


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula
    _hash: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_hash", hash(("implies", self.left._hash, self.right._hash))
        )


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Know(Formula):
    knowers: frozenset
    child: Formula
    _hash: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "knowers", frozenset(self.knowers))
        object.__setattr__(
            self, "_hash", hash(("know", self.knowers, self.child._hash))
        )


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Blame(Formula):
    knowers: frozenset
    actors: frozenset
    child: Formula
    _hash: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "knowers", frozenset(self.knowers))
        object.__setattr__(self, "actors", frozenset(self.actors))
        object.__setattr__(
            self,
            "_hash",
            hash(("blame", self.knowers, self.actors, self.child._hash)),
        )


FALSUM = Not(Implies(Prop(TRUE_SEED), Prop(TRUE_SEED)))


def _coal_str(members) -> str:
    return "[" + ",".join(sorted(members)) + "]"


def render(f: Formula) -> str:
    out = []
    emit = out.append
    stack = [(f, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            emit(item)
            continue
        g, min_level = item
        while True:
            if isinstance(g, Prop):
                emit(g.name)
                break
            if isinstance(g, Implies):
                if min_level > 1:
                    emit("(")
                    stack.append(")")
                stack.append((g.right, 1))
                stack.append(" -> ")
                g, min_level = g.left, 2
                continue
            if isinstance(g, Not):
                if g == FALSUM:
                    emit("false")
                    break
                emit("~")
            elif isinstance(g, Know):
                emit("K" + _coal_str(g.knowers) + " ")
            else:
                emit("B" + _coal_str(g.knowers) + _coal_str(g.actors) + " ")
            g, min_level = g.child, 4
    return "".join(out)


@dataclass(frozen=True)
class ActionProfile:
    assignment: Tuple[Tuple[str, str], ...]
    _hash = None

    def __hash__(self):
        found = self._hash
        if found is None:
            found = hash(self.assignment)
            object.__setattr__(self, "_hash", found)
        return found

    def __reduce__(self):
        return ActionProfile, (self.assignment,)


@dataclass(frozen=True)
class Play:
    initial: str
    profile: ActionProfile
    outcome: str
    _hash = None

    def __hash__(self):
        found = self._hash
        if found is None:
            found = hash((self.initial, self.profile, self.outcome))
            object.__setattr__(self, "_hash", found)
        return found

    def __reduce__(self):
        return Play, (self.initial, self.profile, self.outcome)


@dataclass
class Game:
    agents: Tuple[str, ...]
    initial_states: Tuple[str, ...]
    partitions: Dict[str, Tuple[frozenset, ...]]
    actions: Tuple[str, ...]
    outcomes: Tuple[str, ...]
    plays: Tuple[Play, ...]
    valuation: Dict[str, frozenset]

    def __post_init__(self):
        self._block_index = {agent: {state: i for i, block in enumerate(blocks)
                                     for state in block}
                             for agent, blocks in self.partitions.items()}

@dataclass
class Verdict:
    holds: bool
    witness: Optional[ActionProfile] = None
    refutation: Optional[Play] = None

    def as_dict(self) -> dict:
        return {
            "holds": self.holds,
            "witness": self.witness.as_dict() if self.witness else None,
            "refutation": self.refutation.as_dict() if self.refutation else None,
        }


@dataclass(frozen=True)
class SearchBounds:
    max_agents: int = 2
    max_initial: int = 2
    max_actions: int = 2
    max_outcomes: int = 2
    max_props: int = 1
    mode: str = "exhaustive"
    seed: Optional[int] = None
    iterations: int = 1000

    def __post_init__(self):
        for name in ("max_agents", "max_initial", "max_actions",
                     "max_outcomes", "max_props"):
            if getattr(self, name) < 1:
                raise BadParamsError(f"{name} must be at least 1")
        if self.iterations < 0:
            raise BadParamsError(f"iterations must be at least 0, got {self.iterations}")
        if self.mode not in ("exhaustive", "random"):
            raise BadParamsError(f"mode must be exhaustive or random, got {self.mode!r}")
        if self.mode == "random" and self.seed is None:
            raise BadParamsError("random mode requires an explicit seed")


@dataclass
class FuzzCounterexample:
    schema: str
    game: Game
    play: Play
    instance: Formula
    substitution: dict
    iteration: int


@dataclass(frozen=True)
class Schema:
    name: str
    pattern: Formula
    formula_vars: Tuple[str, ...]
    coalition_vars: Tuple[str, ...]
    side: Tuple[Tuple[str, str, str], ...] = ()


@dataclass(frozen=True)
class Axiom:
    name: str


@dataclass(frozen=True)
class Tautology:
    pass


@dataclass(frozen=True)
class Hypothesis:
    index: int


@dataclass(frozen=True)
class Theorem:
    ident: str


@dataclass(frozen=True)
class ModusPonens:
    premise: int
    implication: int


@dataclass(frozen=True)
class Necessitation:
    source: int
    knowers: frozenset


Justification = Union[Axiom, Tautology, Hypothesis, Theorem, ModusPonens,
                      Necessitation]


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class ProofScript:
    hypotheses: Tuple[Formula, ...]
    lines: Tuple[ProofLine, ...]
    goal: Formula


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    line: Optional[int] = None
    code: Optional[str] = None
    detail: Optional[str] = None

    def __str__(self):
        if self.accepted:
            return "accepted"
        where = f" at line {self.line}" if self.line is not None else ""
        return f"rejected{where}: {self.code} ({self.detail})"
