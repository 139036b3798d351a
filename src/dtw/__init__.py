"""Distributed knowledge and duty-to-warn: model checking over strategic
games, Hilbert-style proof checking, minimal-coalition operators, and
bounded countermodel/soundness search.

Importing the package runs none of its modules.  Each one except ``cli`` is
put in ``sys.modules`` behind ``importlib.util.LazyLoader``, so its code runs
on the first read of one of its attributes.  Each name of ``__all__`` is
read from its module on first use (PEP 562).  ``dtw.cli`` is imported as
usual: ``python -m dtw.cli`` must not find it in ``sys.modules`` already,
or runpy warns and runs the module twice."""

import importlib.util
import sys

_EXPORTS = {
    "errors": """BadParamsError DtwError EmptyInputError ParseError
        ResourceLimitError TooManyAtomsError UniverseTooLargeError
        UnknownAgentError UnknownPlayError UnknownStateError ValidationError""",
    "evaluation": "Verdict holds valid_in_game",
    "formula": """Blame Coalition Formula Implies Know Not Prop agents_of big_conj
        big_disj coalition conj disj dual_know expand_minimality falsum iff
        props_of render subformulas verum""",
    "game": """ActionProfile Game Play indist_state load_game make_game
        render_game_file tarasoff2_game tarasoff_game validate_game""",
    "lemmas": "bundled_library bundled_scripts example_files gen_lemma_script",
    "minimality": "check_minimal minimal_verdict",
    "parser": "parse_formula",
    "proof": """CheckResult Library ProofLine ProofScript ScriptBuilder
        apply_deduction_theorem check_proof is_tautology match_axiom
        parse_script render_script""",
    "semantics": """FuzzCounterexample SearchBounds countermodel_search
        sample_game soundness_fuzz""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"

for _name in ("errors", "limits", "formula", "parser", "game", "axioms",
              "evaluation", "semantics", "proof", "minimality", "lemmas"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Bound here, so that later reads are plain attribute reads.
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
