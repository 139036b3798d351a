"""Source hygiene of the package and its tests, checked on their syntax
trees."""

import ast
import collections
import re
from pathlib import Path

import pytest

import dtw
from dtw.limits import DEFAULT_BUDGETS

PACKAGE = sorted(Path(dtw.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]  # __init__ re-exports
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names a module imports but never reads, in source order.  An explicit
    re-export, ``from m import name as name`` (PEP 484), counts as a use."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno)
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names
                         if a.asname != a.name]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported if name not in used)


def test_the_check_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re as regex\n"
              "from typing import Dict, List\n"
              "from m import kept as kept, y\n"
              "x: Dict = os.path.join('a')\n")
    assert unused_imports(source) == [(3, "regex"), (4, "List"), (5, "y")]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_names(statement) -> list:
    """The names a module-level statement defines: a function's or class's,
    or each name that an assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = (statement.targets if isinstance(statement, ast.Assign)
               else [statement.target] if isinstance(statement, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def read_names(statement) -> set:
    """The names and attributes a statement reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(statement)
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unreferenced_private(sources: dict) -> list:
    """(module, name) of each module-level private function, class or
    constant that no code reads outside its own definition, in any of the
    sources."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = collections.Counter()  # name -> top-level statements reading it
    for tree in trees.values():
        for statement in tree.body:
            read.update(read_names(statement))
    unread = []
    for module, tree in trees.items():
        for statement in tree.body:
            own = read_names(statement)
            unread += [(module, name) for name in defined_names(statement)
                       if name.startswith("_") and not name.startswith("__")
                       and read[name] == (name in own)]
    return unread


def test_the_reference_check_sees_orphans_and_recursion():
    sources = {"a": "def _used(): pass\ndef _alone(): return _alone()\n"
                    "class _Kept: pass\nclass _Dropped: pass\n"
                    "_READ = 1\n_LEFT = 2\n_PAIR, (_ODD, __all__) = 3, (4, [])\n"
                    "_TYPED: int = _PAIR\n_GROWN = [_GROWN]\nPUBLIC = 5\n",
               "b": "from a import _Kept\nx = _Kept, a._used, a._READ, _TYPED\n"}
    assert unreferenced_private(sources) == [
        ("a", "_alone"), ("a", "_Dropped"), ("a", "_LEFT"), ("a", "_ODD"), ("a", "_GROWN")]


def test_private_functions_and_classes_are_used():
    """Private constants too: a table or pattern left behind is caught."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unreferenced_private(sources) == []


def output_sites(source: str) -> list:
    """(line, what) of each call of print and each read of sys.stdout."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            sites.append((node.lineno, "print"))
        elif (isinstance(node, ast.Attribute) and node.attr == "stdout"
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            sites.append((node.lineno, "sys.stdout"))
    return sorted(sites)


def test_the_output_check_sees_print_and_stdout():
    source = ("import sys\nprint('x', file=sys.stderr)\nsys.stdout.write('y')\n"
              "def f(out=sys.stdout): pass\nself.print('z')\n")
    assert output_sites(source) == [(2, "print"), (3, "sys.stdout"),
                                    (4, "sys.stdout")]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_the_cli_writes_output(path):
    assert output_sites(path.read_text(encoding="utf-8")) == []


def test_the_cli_serializes_json_at_one_site():
    tree = ast.parse((Path(dtw.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    sites = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "dumps" and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "json"]
    assert len(sites) == 1, sites


def budget_path_problems(source: str, kinds) -> list:
    """(line, what) of each parameter named ``*_budget`` and each call of
    ``budget`` that does not pass exactly one string literal among kinds."""
    problems = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.arg) and node.arg.endswith("_budget"):
            problems.append((node.lineno, node.arg))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "budget"):
            args = node.args
            if not (len(args) == 1 and not node.keywords
                    and isinstance(args[0], ast.Constant) and args[0].value in kinds):
                problems.append((node.lineno, "budget call"))
    return sorted(problems)


def test_the_budget_check_sees_overrides_and_unknown_kinds():
    source = ("def f(n, node_budget=None):\n    return budget('a', node_budget)\n"
              "budget('a')\nbudget('b')\nbudget(kind)\nbudget(kind='a')\n"
              "lambda model_budget: 0\n")
    assert budget_path_problems(source, {"a"}) == [
        (1, "node_budget"), (2, "budget call"), (4, "budget call"),
        (5, "budget call"), (6, "budget call"), (7, "model_budget")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_budgets_come_from_the_environment_only(path):
    """Every budget is ``DTW_BUDGET`` or its default: no function takes an
    override, and each site names one kind of ``limits.DEFAULT_BUDGETS``."""
    assert budget_path_problems(path.read_text(encoding="utf-8"),
                                DEFAULT_BUDGETS) == []


LAZY = ("dataclasses", "inspect", "json")  # costly to import on every command


def eager_imports(source: str, modules) -> list:
    """(line, module) of each import of one of modules that runs when the
    source is imported: any not inside a function."""
    found = []
    stack = [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        found += [(node.lineno, name.split(".")[0]) for name in names
                  if name.split(".")[0] in modules]
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_the_eager_import_check_skips_function_bodies_only():
    source = ("import dataclasses\nfrom json import dumps\nimport os, inspect as i\n"
              "class A:\n    from dataclasses import field\n"
              "if A:\n    import json.decoder\n"
              "def f():\n    from dataclasses import FrozenInstanceError\n"
              "    import json\n"
              "from .json import x\nimport dataclasses_json\n")
    assert eager_imports(source, LAZY) == [
        (1, "dataclasses"), (2, "json"), (3, "inspect"), (5, "dataclasses"),
        (7, "json")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_imports_dataclasses_inspect_or_json_eagerly(path):
    """Each is imported, if at all, inside the function that needs it:
    ``json`` for ``--json`` output, ``dataclasses`` to raise
    ``FrozenInstanceError`` from ``Frozen``."""
    assert eager_imports(path.read_text(encoding="utf-8"), LAZY) == []


GONE = {"Value", "_defaults", "_bind", "__init_subclass__"}  # the old binder
FIELD_METHODS = {"_fields": {"Record"}, "__eq__": {"Record", "Formula"},
                 "__repr__": {"Record", "Formula"}}  # Formula walks and renders


def value_class_problems(source: str) -> list:
    """(line, what) of each break of the one value-class idiom: a class,
    name or attribute called ``Value``, ``_defaults``, ``_bind`` or
    ``__init_subclass__``; ``_fields``, ``__eq__`` or ``__repr__`` defined
    in a class that :data:`FIELD_METHODS` does not list for it; and a class
    with a non-empty ``_names`` but no ``__init__`` of its own."""
    problems = []
    for node in ast.walk(ast.parse(source)):
        word = (getattr(node, "name", None) or getattr(node, "id", None)
                or getattr(node, "attr", None))
        if word in GONE:
            problems.append((node.lineno, word))
        if not isinstance(node, ast.ClassDef):
            continue
        methods = {item.name: item.lineno for item in node.body
                   if isinstance(item, ast.FunctionDef)}
        problems += [(methods[name], f"{node.name}.{name}")
                     for name, owners in FIELD_METHODS.items()
                     if name in methods and node.name not in owners]
        names = [item.value for item in node.body
                 if isinstance(item, (ast.Assign, ast.AnnAssign))
                 for target in getattr(item, "targets", [getattr(item, "target", None)])
                 if isinstance(target, ast.Name) and target.id == "_names"]
        if (any(not (isinstance(value, ast.Tuple) and not value.elts) for value in names)
                and "__init__" not in methods):
            problems.append((node.lineno, f"{node.name} has no __init__"))
    return sorted(problems)


def test_the_value_class_check_sees_each_break():
    source = ("class Record:\n    _names: tuple = ()\n"
              "    def _fields(self): pass\n    def __eq__(self, o): pass\n"
              "    def __repr__(self): pass\n"
              "class Value(Record):\n    _defaults = {}\n"
              "    def __init_subclass__(cls):\n        cls._bind()\n"
              "class Formula(Record):\n    def __eq__(self, o): pass\n"
              "    def __repr__(self): pass\n"
              "class Play(Formula):\n    _names = ('a',)\n"
              "    __slots__ = _names + ('_hash',)\n    def __eq__(self, o): pass\n"
              "class Step(Record):\n    _names = __slots__ = ()\n"
              "class Line(Record):\n    _names = __slots__ = ('a',)\n"
              "    def __init__(self, a): pass\n    def _fields(self): pass\n")
    assert value_class_problems(source) == [
        (6, "Value"), (7, "_defaults"), (8, "__init_subclass__"), (9, "_bind"),
        (13, "Play has no __init__"), (16, "Play.__eq__"), (22, "Line._fields")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_value_class_follows_one_idiom(path):
    """No third base and no generic constructor; only ``Record`` (and
    ``Formula``, for its walk and its rendering) compares or prints fields;
    and each class with fields writes its own constructor."""
    assert value_class_problems(path.read_text(encoding="utf-8")) == []


UNICODE_DIGIT = re.compile(r"(?<!\\)(?:\\\\)*\\d")  # \d, not an escaped backslash


def unicode_digit_patterns(source: str) -> list:
    """(line, text) of each string literal that uses ``\\d``, which matches
    every Unicode decimal digit, not only 0-9.  Docstrings are prose."""
    nodes = list(ast.walk(ast.parse(source)))
    docs = {id(node.value) for node in nodes if isinstance(node, ast.Expr)}
    return sorted((node.lineno, node.value) for node in nodes
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docs and UNICODE_DIGIT.search(node.value))


def test_the_digit_check_sees_backslash_d_only():
    source = ('"""Docs may say \\\\d."""\nimport re\n'
              'A = re.compile(r"^(\\d+)\\.")\nB = r"[0-9]+"\nC = r"\\\\d"\n'
              'D = rf"{B}\\D\\d"\nE = "\\\\\\\\d"\n')
    assert unicode_digit_patterns(source) == [(3, r"^(\d+)\."), (6, r"\D\d")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_pattern_matches_unicode_digits(path):
    """Numbers in proof scripts and game files are ASCII decimals."""
    assert unicode_digit_patterns(path.read_text(encoding="utf-8")) == []


NODE_BUILDERS = frozenset({"Prop", "Not", "Implies", "Know", "Blame",
                           "conj", "disj", "iff", "dual_know"})


def node_table_bypasses(source: str) -> list:
    """(line, name) of each read of a node constructor or derived
    connective outside the parser's node table, the class ``_Nodes``: a
    call, or a reference that something could call later.  Comparing a
    node's class with ``is`` builds nothing."""
    tree = ast.parse(source)
    inside, compared = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "_Nodes":
            inside |= {id(n) for n in ast.walk(node)}
        elif isinstance(node, ast.Compare) and all(
                isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            compared |= {id(n) for n in (node.left, *node.comparators)}
    return sorted((node.lineno, node.id) for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id in NODE_BUILDERS
                  and isinstance(node.ctx, ast.Load)
                  and id(node) not in inside and id(node) not in compared)


def test_the_node_table_check_sees_calls_and_references_outside_it():
    source = ("from .formula import Blame, Implies, Not, Prop, conj\n"
              "class _Nodes(dict):\n"
              "    def neg(self, child):\n"
              "        return Not(child)\n"
              "def parse(tok, out):\n"
              "    if out.__class__ is not Implies:\n"
              "        out = Prop(tok)\n"
              "    return {'&': conj}, partial(Blame, out)\n"
              "class Other:\n"
              "    def neg(self, child):\n"
              "        return Not(child)\n")
    assert node_table_bypasses(source) == [(7, "Prop"), (8, "Blame"), (8, "conj"),
                                           (11, "Not")]


def test_the_parser_builds_every_node_through_its_table():
    """So equal nodes of one parse, or of one memo's parses, are one object."""
    source = (Path(dtw.__file__).parent / "parser.py").read_text(encoding="utf-8")
    assert node_table_bypasses(source) == []


MUTATORS = frozenset({"append", "add", "setdefault", "update", "pop", "clear", "extend",
                      "insert", "remove", "discard", "popitem"})


def module_state_writes(source: str) -> list:
    """(line, what) of each write to module state inside a function: an
    assignment to, or deletion of, a subscript of a module-level name, a
    call of a mutating method on one, and each ``global`` statement.  A
    name that the function binds itself is its own, not the module's."""
    tree = ast.parse(source)
    module = {name for statement in tree.body for name in defined_names(statement)}
    sites = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        own = {node.arg for node in ast.walk(func.args) if isinstance(node, ast.arg)}
        own |= {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                sites.add((node.lineno, "global"))
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS):
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in module - own:
                sites.add((node.lineno, target.id))
    return sorted(sites)


def test_the_module_state_check_sees_writes_and_skips_own_names():
    source = ("import re\n_CACHE = {}\n_SEEN, _LOG = set(), []\nclass Memo: pass\n"
              "def parse(text, _LOG=None):\n"
              "    _CACHE[text] = 1\n"
              "    _SEEN.add(text); _LOG.append(text)\n"
              "    del _CACHE[text]\n"
              "    _CACHE[text] += 1\n"
              "    cache, memo = {}, Memo()\n"
              "    cache[text] = memo.pop()\n"
              "    return _CACHE.get(text), re.compile(text), sorted(_SEEN)\n"
              "def reset():\n"
              "    global _CACHE\n"
              "    _CACHE = {}\n"
              "    return lambda key: _SEEN.discard(key)\n"
              "_CACHE.update(a=1)\n")
    assert module_state_writes(source) == [(6, "_CACHE"), (7, "_SEEN"), (8, "_CACHE"),
                                           (9, "_CACHE"), (14, "global"), (16, "_SEEN")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_function_writes_module_state(path):
    """The parser and the printer are reentrant with no global state: no
    process-wide cache, and no call that changes what the next one sees."""
    assert module_state_writes(path.read_text(encoding="utf-8")) == []


FORMULA_WALKS = frozenset({"agents_of", "props_of", "subformulas", "node_count"})


def formula_walks(source: str, function: str = None) -> list:
    """(line, name) of each call, in the module or in the named function,
    of a helper that compiles its formula anew to read it: a query that
    has compiled its formula reads its program instead."""
    tree = ast.parse(source)
    if function is not None:
        tree = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == function)
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in FORMULA_WALKS:
                sites.append((node.lineno, name))
    return sorted(sites)


def test_the_walk_check_sees_calls_in_the_module_or_the_function():
    source = ("from .formula import agents_of, props_of\n"
              "def search(f):\n"
              "    program = compile_masks(f)\n"
              "    return agents_of(f), formula.node_count(f), program.props()\n"
              "def other(f):\n"
              "    return props_of(f), sorted(subformulas(f))\n")
    assert formula_walks(source) == [(4, "agents_of"), (4, "node_count"),
                                     (6, "props_of"), (6, "subformulas")]
    assert formula_walks(source, "search") == [(4, "agents_of"), (4, "node_count")]


@pytest.mark.parametrize("name, function", [("evaluation.py", None),
                                            ("minimality.py", None),
                                            ("semantics.py", "countermodel_search")])
def test_queries_read_their_compiled_program(name, function):
    """A query compiles its formula once and reads its agents and
    propositions from that program, so it walks the formula once."""
    source = (Path(dtw.__file__).parent / name).read_text(encoding="utf-8")
    assert formula_walks(source, function) == []
