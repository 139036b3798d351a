"""The package's printer as it was before the per-call render memo, frozen so
that its replacement can be compared with it byte for byte: ``render`` walks
every occurrence of every node, and ``render_script`` joins ``render`` of
each formula, line by line, with no memo."""

from dtw.formula import FALSUM, Blame, Implies, Know, Not, Prop
from dtw.proof import _just_str

_LEVEL_UNARY = 4
_LEVEL_IMPL_LEFT = 2
_LEVEL_IMPL = 1


def _coal_str(members):
    return "[" + ",".join(sorted(members)) + "]"


def frozen_render(f):
    out = []
    emit = out.append
    stack = [(f, 0)]  # text, or (subformula, min_level), last one first
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
                if min_level > _LEVEL_IMPL:
                    emit("(")
                    stack.append(")")
                stack.append((g.right, _LEVEL_IMPL))
                stack.append(" -> ")
                g, min_level = g.left, _LEVEL_IMPL_LEFT
                continue
            if isinstance(g, Not):
                if g == FALSUM:
                    emit("false")
                    break
                emit("~")
            elif isinstance(g, Know):
                emit("K" + _coal_str(g.knowers) + " ")
            elif isinstance(g, Blame):
                emit("B" + _coal_str(g.knowers) + _coal_str(g.actors) + " ")
            else:
                raise TypeError(f"not a formula: {g!r}")
            g, min_level = g.child, _LEVEL_UNARY
    return "".join(out)


def frozen_render_script(script):
    out = [f"hyp: {frozen_render(h)}" for h in script.hypotheses]
    out.append(f"goal: {frozen_render(script.goal)}")
    for idx, line in enumerate(script.lines, start=1):
        out.append(f"{idx}. {frozen_render(line.formula)}   "
                   f"{_just_str(line.justification)}")
    return "\n".join(out) + "\n"
