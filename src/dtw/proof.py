"""Hilbert-style proof checker.

A proof script is a list of hypotheses followed by numbered lines, each
carrying a formula and a justification: an axiom-schema instance, a
propositional tautology (checked by truth table over opaque modal atoms),
a hypothesis, a cited theorem from a library, modus ponens on two earlier
lines, or necessitation of an earlier line.

Theoremhood admits modus ponens and necessitation; derivations from
hypotheses admit only modus ponens on hypothesis-dependent lines, so
necessitation may only cite lines whose transitive justification is
hypothesis-free.  Every line is verified independently; rejection reports
the first failing 1-based line and a machine-readable reason code.

File format (``#`` starts a comment)::

    hyp: <formula>            # zero or more
    goal: <formula>
    1. <formula>   axiom Truth-K
    2. <formula>   taut
    3. <formula>   mp 1 2     # line 2 must read <line 1> -> <line 3>
    4. <formula>   nec 3 [a,b]
    5. <formula>   hyp 1
    6. <formula>   thm lemma3_a_b_p
"""

from __future__ import annotations

import functools
import re
import threading
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
                    Union)

from . import axioms
from .errors import BadParamsError, ParseError, TooManyAtomsError
from .formula import (
    Coalition,
    Formula,
    Frozen,
    Implies,
    Know,
    LEAF,
    Not,
    big_implies,
    coalition,
    compile_masks,
    render,
    render_shared,
    run_masks,
    write_slot,
)
from .parser import GroupMemo, parse_coalition_token, parse_formula

MAX_TAUTOLOGY_ATOMS = 20


# ---------------------------------------------------------------------------
# Justifications.  Each proof line builds one of these and a ProofLine.
# ---------------------------------------------------------------------------

class Axiom(Frozen):
    _names = __slots__ = ("name",)

    def __init__(self, name: str):
        write_slot(self, "name", name)


class Tautology(Frozen):
    _names = __slots__ = ()

    def __init__(self):
        pass  # no fields


class Hypothesis(Frozen):
    _names = __slots__ = ("index",)

    def __init__(self, index: int):  # 1-based
        write_slot(self, "index", index)


class Theorem(Frozen):
    _names = __slots__ = ("ident",)

    def __init__(self, ident: str):
        write_slot(self, "ident", ident)


class ModusPonens(Frozen):
    _names = __slots__ = ("premise", "implication")

    def __init__(self, premise: int, implication: int):
        write_slot(self, "premise", premise)  # 1-based line holding A
        write_slot(self, "implication", implication)  # line holding A -> this


class Necessitation(Frozen):
    _names = __slots__ = ("source", "knowers")

    def __init__(self, source: int, knowers: Coalition):
        write_slot(self, "source", source)  # 1-based line holding A
        write_slot(self, "knowers", knowers)  # this line must be K[knowers] A


Justification = Union[Axiom, Tautology, Hypothesis, Theorem, ModusPonens,
                      Necessitation]


class ProofLine(Frozen):
    _names = __slots__ = ("formula", "justification")

    def __init__(self, formula: Formula, justification: Justification):
        write_slot(self, "formula", formula)
        write_slot(self, "justification", justification)


class ProofScript(Frozen):
    _names = __slots__ = ("hypotheses", "lines", "goal")

    def __init__(self, hypotheses: Tuple[Formula, ...], lines: Tuple[ProofLine, ...],
                 goal: Formula):
        write_slot(self, "hypotheses", hypotheses)
        write_slot(self, "lines", lines)
        write_slot(self, "goal", goal)


class CheckResult(Frozen):
    """A verdict on a proof: accepted, or the failing 1-based line (if any),
    a reason code and a detail."""

    _names = __slots__ = ("accepted", "line", "code", "detail")

    def __init__(self, accepted: bool, line: Optional[int] = None,
                 code: Optional[str] = None, detail: Optional[str] = None):
        write_slot(self, "accepted", accepted)
        write_slot(self, "line", line)
        write_slot(self, "code", code)
        write_slot(self, "detail", detail)

    def __str__(self):
        if self.accepted:
            return "accepted"
        where = f" at line {self.line}" if self.line is not None else ""
        return f"rejected{where}: {self.code} ({self.detail})"


class Library:
    """Verified-theorem registry: concurrent reads, locked registration."""

    def __init__(self, entries: Optional[Mapping[str, Formula]] = None):
        self._entries: Dict[str, Formula] = dict(entries or {})
        self._lock = threading.Lock()

    def register(self, ident: str, formula: Formula) -> None:
        with self._lock:
            existing = self._entries.get(ident)
            if existing is not None and existing != formula:
                raise BadParamsError(
                    f"library already holds a different formula for {ident!r}"
                )
            self._entries[ident] = formula

    def get(self, ident: str) -> Optional[Formula]:
        return self._entries.get(ident)

    def __contains__(self, ident: str) -> bool:
        return ident in self._entries

    def as_dict(self) -> Dict[str, Formula]:
        return dict(self._entries)


# ---------------------------------------------------------------------------
# Axiom instances and tautologies.
# ---------------------------------------------------------------------------

def match_axiom(name: str, f: Formula) -> Optional[dict]:
    """Assignment of metavariables making f an instance of the named axiom
    schema (side conditions enforced), or None."""
    schema = axioms.AXIOM_SCHEMAS.get(name)
    if schema is None:
        raise BadParamsError(
            f"unknown axiom {name!r}; choose from "
            f"{', '.join(sorted(axioms.AXIOM_SCHEMAS))}"
        )
    return axioms.match_schema(schema, f)


def _connectives(f: Formula) -> tuple:
    """The operands of ``~`` and ``->``; every other node is an atom."""
    cls = f.__class__
    if cls is Not:
        return (f.child,)
    if cls is Implies:
        return (f.left, f.right)
    return ()


@functools.lru_cache(maxsize=8192)
def is_tautology(f: Formula) -> bool:
    """Truth-table check treating propositions and modal subformulas as
    opaque atoms; raises TooManyAtomsError beyond 20 atoms.  One walk
    compiles the Boolean skeleton, whose leaf steps are the atoms in
    left-to-right first-occurrence order.  The table is bit-sliced: each
    atom's column is one int over all rows."""
    program = compile_masks(f, _connectives)
    atoms = [i for i, (op, _, _) in enumerate(program.code) if op == LEAF]
    if len(atoms) > MAX_TAUTOLOGY_ATOMS:
        raise TooManyAtomsError(
            f"{len(atoms)} distinct atoms exceeds the limit of "
            f"{MAX_TAUTOLOGY_ATOMS}"
        )
    columns, rows = [], 1
    for _ in atoms:  # row r gives atom i the value of bit i of r
        columns = [c | c << rows for c in columns] + [((1 << rows) - 1) << rows]
        rows <<= 1
    full = (1 << rows) - 1
    column = dict(zip(atoms, columns))  # leaf step -> column
    return run_masks(program, full, lambda i, _: column[i])[-1] == full


# ---------------------------------------------------------------------------
# Checking.
# ---------------------------------------------------------------------------

def check_proof(script: ProofScript,
                library: Optional[Mapping[str, Formula]] = None) -> CheckResult:
    """Verify every line and the goal; accepted iff all checks pass."""
    lookup = library.as_dict() if isinstance(library, Library) else dict(library or {})
    lines = script.lines
    if not lines:
        return CheckResult(False, None, "empty-script", "script has no lines")
    depends = [False] * (len(lines) + 1)  # 1-based

    def reject(idx, code, detail):
        return CheckResult(False, idx, code, detail)

    for idx, line in enumerate(lines, start=1):
        f, just = line.formula, line.justification
        if isinstance(just, Axiom):
            if just.name not in axioms.AXIOM_SCHEMAS:
                return reject(idx, "unknown-axiom", f"no axiom named {just.name!r}")
            if axioms.match_schema(axioms.AXIOM_SCHEMAS[just.name], f) is None:
                return reject(
                    idx, "axiom-mismatch",
                    f"{render(f)} is not an instance of {just.name}",
                )
        elif isinstance(just, Tautology):
            try:
                if not is_tautology(f):
                    return reject(idx, "not-a-tautology", render(f))
            except TooManyAtomsError as exc:
                return reject(idx, "too-many-atoms", str(exc))
        elif isinstance(just, Hypothesis):
            if not 1 <= just.index <= len(script.hypotheses):
                return reject(idx, "bad-hypothesis-index", f"hyp {just.index}")
            if script.hypotheses[just.index - 1] != f:
                return reject(
                    idx, "hypothesis-mismatch",
                    f"line differs from hypothesis {just.index}",
                )
            depends[idx] = True
        elif isinstance(just, Theorem):
            known = lookup.get(just.ident)
            if known is None:
                return reject(idx, "unknown-theorem", just.ident)
            if known != f:
                return reject(
                    idx, "theorem-mismatch",
                    f"line differs from library entry {just.ident!r}",
                )
        elif isinstance(just, ModusPonens):
            for ref in (just.premise, just.implication):
                if not 1 <= ref < idx:
                    return reject(idx, "bad-line-reference", f"line {ref}")
            premise = lines[just.premise - 1].formula
            implication = lines[just.implication - 1].formula
            if implication != Implies(premise, f):
                return reject(
                    idx, "modus-ponens-mismatch",
                    f"line {just.implication} is not "
                    f"(line {just.premise}) -> (line {idx})",
                )
            depends[idx] = depends[just.premise] or depends[just.implication]
        elif isinstance(just, Necessitation):
            if not 1 <= just.source < idx:
                return reject(idx, "bad-line-reference", f"line {just.source}")
            if depends[just.source]:
                return reject(
                    idx, "necessitation-under-hypotheses",
                    f"line {just.source} depends on a hypothesis",
                )
            expected = Know(just.knowers, lines[just.source - 1].formula)
            if f != expected:
                return reject(
                    idx, "necessitation-mismatch",
                    f"line is not K{sorted(just.knowers)} of line {just.source}",
                )
        else:  # pragma: no cover - exhaustive match
            return reject(idx, "unknown-justification", repr(just))

    if script.goal != lines[-1].formula:
        return CheckResult(False, len(lines), "goal-mismatch",
                           "last line differs from the declared goal")
    return CheckResult(True)


# ---------------------------------------------------------------------------
# Script construction.
# ---------------------------------------------------------------------------

class ScriptBuilder:
    """Incremental script assembly with shape checks on each step.

    ``mp``/``nec`` compute the derived formula themselves, so generator
    code cannot silently emit ill-formed inferences.  ``conclude`` and
    ``distribute`` are the two derived steps the generators repeat: a
    propositional step from earlier lines, and Distributivity with its
    modus ponens.
    """

    def __init__(self, hypotheses: Iterable[Formula] = ()):
        self.hypotheses = tuple(hypotheses)
        self.lines: List[ProofLine] = []

    def formula_at(self, idx: int) -> Formula:
        return self.lines[idx - 1].formula

    def add(self, formula: Formula, justification: Justification) -> int:
        self.lines.append(ProofLine(formula, justification))
        return len(self.lines)

    def taut(self, formula: Formula) -> int:
        return self.add(formula, Tautology())

    def axiom(self, name: str, formula: Formula) -> int:
        assert match_axiom(name, formula) is not None, (
            f"generator bug: {render(formula)} is not an instance of {name}"
        )
        return self.add(formula, Axiom(name))

    def hyp(self, index0: int) -> int:
        return self.add(self.hypotheses[index0], Hypothesis(index0 + 1))

    def thm(self, ident: str, formula: Formula) -> int:
        return self.add(formula, Theorem(ident))

    def mp(self, premise: int, implication: int) -> int:
        impl = self.formula_at(implication)
        assert isinstance(impl, Implies) and impl.left == self.formula_at(premise), (
            "generator bug: modus ponens shape mismatch"
        )
        return self.add(impl.right, ModusPonens(premise, implication))

    def conclude(self, premises: Sequence[int], goal: Formula) -> int:
        """Derive goal from the premise lines by propositional reasoning: the
        tautology P1 -> (P2 -> ... -> (Pn -> goal)) over their formulas, then
        modus ponens on each premise in order."""
        out = self.taut(big_implies(map(self.formula_at, premises), goal))
        for premise in premises:
            out = self.mp(premise, out)
        return out

    def distribute(self, line: int) -> int:
        """From K[C](A -> B) at ``line``, derive K[C]A -> K[C]B by the
        Distributivity axiom and modus ponens."""
        boxed = self.formula_at(line)
        assert isinstance(boxed, Know) and isinstance(boxed.child, Implies), (
            "generator bug: distributivity needs K[C](A -> B)"
        )
        knowers, inner = boxed.knowers, boxed.child
        spread = Implies(Know(knowers, inner.left), Know(knowers, inner.right))
        return self.mp(line, self.axiom("Distributivity", Implies(boxed, spread)))

    def nec(self, source: int, knowers: Iterable[str]) -> int:
        members = coalition(knowers)
        return self.add(Know(members, self.formula_at(source)),
                        Necessitation(source, members))

    def embed(self, script: ProofScript) -> Dict[int, int]:
        """Append a hypothesis-free script's lines, remapping references;
        returns the old-to-new line index map."""
        mapping: Dict[int, int] = {}
        for old_idx, line in enumerate(script.lines, start=1):
            just = line.justification
            if isinstance(just, Hypothesis):
                raise BadParamsError("cannot embed a script that uses hypotheses")
            mapping[old_idx] = self.add(line.formula, _renumber(just, mapping))
        return mapping

    def build(self, goal: Optional[Formula] = None, prune: bool = True) -> ProofScript:
        if not self.lines:
            raise BadParamsError("cannot build an empty script")
        if goal is None:
            goal = self.lines[-1].formula
        assert goal == self.lines[-1].formula, "generator bug: goal mismatch"
        lines = tuple(self.lines)
        if prune:
            lines = _prune_lines(lines)
        return ProofScript(self.hypotheses, lines, goal)


def _renumber(just: Justification, new: Mapping[int, int]) -> Justification:
    """The justification with its line references mapped through ``new``."""
    if isinstance(just, ModusPonens):
        return ModusPonens(new[just.premise], new[just.implication])
    if isinstance(just, Necessitation):
        return Necessitation(new[just.source], just.knowers)
    return just


def _refs_of(just: Justification) -> Tuple[int, ...]:
    if isinstance(just, ModusPonens):
        return (just.premise, just.implication)
    if isinstance(just, Necessitation):
        return (just.source,)
    return ()


def _prune_lines(lines: Tuple[ProofLine, ...]) -> Tuple[ProofLine, ...]:
    """Drop lines not reachable from the final line via citations."""
    needed = set()
    stack = [len(lines)]
    while stack:
        idx = stack.pop()
        if idx in needed:
            continue
        needed.add(idx)
        stack.extend(_refs_of(lines[idx - 1].justification))
    keep = sorted(needed)
    renumber = {old: new for new, old in enumerate(keep, start=1)}
    return tuple(ProofLine(lines[old - 1].formula,
                           _renumber(lines[old - 1].justification, renumber))
                 for old in keep)


# ---------------------------------------------------------------------------
# Deduction theorem.
# ---------------------------------------------------------------------------

def apply_deduction_theorem(script: ProofScript,
                            library: Optional[Mapping[str, Formula]] = None
                            ) -> ProofScript:
    """Discharge the last hypothesis: from an accepted script deriving psi
    from hypotheses X + [chi], construct an accepted script deriving
    chi -> psi from X.

    Each source line A becomes chi -> A: axiom/tautology/theorem and
    earlier-hypothesis lines are kept and lifted with the weakening
    tautology, modus ponens steps route through the self-distribution
    tautology, and hypothesis-free lines (including every necessitation)
    are copied verbatim before lifting.
    """
    if not script.hypotheses:
        raise BadParamsError("deduction theorem needs at least one hypothesis")
    result = check_proof(script, library)
    if not result.accepted:
        raise BadParamsError(f"input script is not accepted: {result}")

    chi = script.hypotheses[-1]
    last_index = len(script.hypotheses)
    builder = ScriptBuilder(script.hypotheses[:-1])

    depends = [False] * (len(script.lines) + 1)
    lifted: Dict[int, int] = {}
    copied: Dict[int, int] = {}

    for idx, line in enumerate(script.lines, start=1):
        formula, just = line.formula, line.justification
        if isinstance(just, Hypothesis):
            depends[idx] = True
            if just.index == last_index:
                lifted[idx] = builder.taut(Implies(chi, chi))
            else:
                kept = builder.hyp(just.index - 1)
                lifted[idx] = builder.conclude([kept], Implies(chi, formula))
            continue
        if isinstance(just, ModusPonens):
            depends[idx] = depends[just.premise] or depends[just.implication]
        if depends[idx]:
            # Only modus ponens can combine hypothesis-dependent lines.
            lifted[idx] = builder.conclude(
                [lifted[just.implication], lifted[just.premise]],
                Implies(chi, formula))
            continue
        # Hypothesis-free: copy verbatim (remapping references), then lift.
        copied[idx] = builder.add(formula, _renumber(just, copied))
        lifted[idx] = builder.conclude([copied[idx]], Implies(chi, formula))

    return builder.build(goal=Implies(chi, script.goal))


# ---------------------------------------------------------------------------
# Script file format.
# ---------------------------------------------------------------------------

_LINE_RE = re.compile(r"^([0-9]+)\.\s+(.*)$")
# A nec justification; its bracketed coalition may hold spaces.
_NEC_RE = re.compile(r"(.*\S)\s+nec\s+(\S+)\s+(\[[^\]]*\]|\S+)")


def parse_script(text: str) -> ProofScript:
    """Parse the proof-script file format.

    The script's formulas are read with one :class:`GroupMemo`, made for
    this call: a line's whole formula, or a top-level parenthesised group,
    is parsed once per script, and the memo's node table makes equal
    subformulas of the script one object, however they are spaced.
    Scripts repeat their subterms, since an ``mp`` line's implication holds
    the texts of its premise and of its conclusion.  A line's
    justification is read from its last three tokens at most."""
    memo = GroupMemo()
    hypotheses: List[Formula] = []
    goal: Optional[Formula] = None
    lines: List[ProofLine] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("hyp:"):
            if lines:
                raise ParseError("hypotheses must precede proof lines", line=lineno)
            hypotheses.append(_at_line(lineno, parse_formula, stripped[4:], memo))
            continue
        if stripped.startswith("goal:"):
            if goal is not None:
                raise ParseError("duplicate goal line", line=lineno)
            goal = _at_line(lineno, parse_formula, stripped[5:], memo)
            continue
        m = _LINE_RE.match(stripped)
        if m is None:
            raise ParseError(
                f"expected 'N. <formula>  <justification>', got {stripped!r}",
                line=lineno,
            )
        number = int(m.group(1))
        if number != len(lines) + 1:
            raise ParseError(
                f"line numbered {number}, expected {len(lines) + 1}", line=lineno
            )
        formula, just = _split_justification(m.group(2), lineno, memo)
        lines.append(ProofLine(formula, just))
    if goal is None:
        raise ParseError("missing 'goal:' line", line=1)
    if not lines:
        raise ParseError("script has no proof lines", line=1)
    return ProofScript(tuple(hypotheses), tuple(lines), goal)


def _at_line(lineno: int, parse, *args):
    """``parse(*args)``, with a ParseError raised again carrying the line."""
    try:
        return parse(*args)
    except ParseError as exc:
        raise ParseError(exc.message, pos=exc.pos, expected=exc.expected,
                         line=lineno) from None


def _split_justification(text: str, lineno: int,
                          memo: GroupMemo) -> Tuple[Formula, Justification]:
    # Scan from the right for the shortest justification suffix: only the
    # last three tokens are split off, the rest is the formula text.
    # Few lines hold "nec", and the regex backtracks over the whole line.
    tail = text.rsplit(None, 3)
    nec = _NEC_RE.fullmatch(text) if "nec" in text else None
    if nec is not None:
        formula_text, source, knowers = nec.groups()
        just: Justification = Necessitation(
            _int_arg(source, lineno), _at_line(lineno, parse_coalition_token, knowers))
    elif len(tail) == 4 and tail[1] == "mp":
        formula_text = tail[0]
        just = ModusPonens(_int_arg(tail[2], lineno), _int_arg(tail[3], lineno))
    elif len(tail) >= 3 and tail[-2] in ("axiom", "hyp", "thm"):
        head, arg = tail[-2], tail[-1]
        formula_text = text.rsplit(None, 2)[0]
        if head == "axiom":
            just = Axiom(arg)
        elif head == "hyp":
            just = Hypothesis(_int_arg(arg, lineno))
        else:
            just = Theorem(arg)
    elif len(tail) >= 2 and tail[-1] == "taut":
        formula_text = text.rsplit(None, 1)[0]
        just = Tautology()
    else:
        raise ParseError(
            "could not find a justification",
            line=lineno,
            expected="axiom <name>, taut, hyp <k>, thm <id>, mp <i> <j>, "
                     "or nec <i> [<agents>]",
        )
    return _at_line(lineno, parse_formula, formula_text, memo), just


def _int_arg(token: str, lineno: int) -> int:
    """An ASCII decimal: ``int`` would also take ``+1``, ``1_0`` and ``٣``."""
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"expected a line number, got {token!r}", line=lineno)
    return int(token)


def _just_str(just: Justification) -> str:
    if isinstance(just, Axiom):
        return f"axiom {just.name}"
    if isinstance(just, Tautology):
        return "taut"
    if isinstance(just, Hypothesis):
        return f"hyp {just.index}"
    if isinstance(just, Theorem):
        return f"thm {just.ident}"
    if isinstance(just, ModusPonens):
        return f"mp {just.premise} {just.implication}"
    return f"nec {just.source} [{','.join(sorted(just.knowers))}]"


def render_script(script: ProofScript) -> str:
    """Emit the file format (inverse of :func:`parse_script`).

    The formulas are printed with one memo per call
    (:func:`~dtw.formula.render_shared`): a node that the hypotheses, the
    goal and the lines reach more than once, such as a premise held again
    inside the next ``mp`` implication, is rendered once and its text
    copied at its later occurrences.
    """
    hyps = len(script.hypotheses)
    texts = render_shared((*script.hypotheses, script.goal,
                           *(line.formula for line in script.lines)))
    out = [f"hyp: {text}" for text in texts[:hyps]]
    out.append(f"goal: {texts[hyps]}")
    for idx, (line, text) in enumerate(zip(script.lines, texts[hyps + 1:]), start=1):
        out.append(f"{idx}. {text}   {_just_str(line.justification)}")
    return "\n".join(out) + "\n"
