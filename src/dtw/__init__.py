"""Distributed knowledge and duty-to-warn: model checking over strategic
games, Hilbert-style proof checking, minimal-coalition operators, and
bounded countermodel/soundness search."""

from .errors import (
    BadParamsError,
    DtwError,
    EmptyInputError,
    ParseError,
    ResourceLimitError,
    TooManyAtomsError,
    UniverseTooLargeError,
    UnknownAgentError,
    UnknownPlayError,
    UnknownStateError,
    ValidationError,
)
from .formula import (
    Blame,
    Coalition,
    Formula,
    Implies,
    Know,
    Not,
    Prop,
    agents_of,
    big_conj,
    big_disj,
    coalition,
    conj,
    disj,
    dual_know,
    expand_minimality,
    falsum,
    iff,
    props_of,
    render,
    subformulas,
    verum,
)
from .game import (
    ActionProfile,
    Game,
    Play,
    indist_state,
    load_game,
    make_game,
    render_game_file,
    tarasoff2_game,
    tarasoff_game,
    validate_game,
)
from .lemmas import bundled_library, bundled_scripts, example_files, gen_lemma_script
from .minimality import check_minimal, minimal_verdict
from .parser import parse_formula
from .proof import (
    CheckResult,
    Library,
    ProofLine,
    ProofScript,
    ScriptBuilder,
    apply_deduction_theorem,
    check_proof,
    is_tautology,
    match_axiom,
    parse_script,
    render_script,
)
from .semantics import (
    Evaluator,
    FuzzCounterexample,
    SearchBounds,
    Verdict,
    countermodel_search,
    holds,
    sample_game,
    soundness_fuzz,
    valid_in_game,
)

__version__ = "0.1.0"
