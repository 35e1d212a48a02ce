"""Exact stable-model reasoning for fuzzy propositional formulas.

Truth values are rationals in [0, 1], operators come from the usual
min / product / Lukasiewicz families, and every check is exact: no
floats anywhere.  The main entry points:

- parse_formula / print_formula: the formula language.
- evaluate / fuzzy_reduct: values and reducts of formulas.
- check_stable / enumerate_stable: stable models over a finite lattice
  of denominations 0, 1/D, ..., 1.
- parse_fasp_program / fasp_answer_set_check: a normal-rule frontend
  with its own answer-set oracle.
- is_equilibrium / enumerate_equilibrium: an independent interval-based
  equilibrium checker used to cross-validate the stable-model engine.
- run_suite / run_all: randomized invariant suites.
"""
import importlib

from .algebra import (
    CONJUNCTIONS,
    DISJUNCTIONS,
    IMPLICATIONS,
    NEGATIONS,
    ONE,
    OPERATORS,
    ZERO,
    Lattice,
    Operator,
    ResourceLimitError,
    Truth,
    TruthError,
    UnknownOperatorError,
    check_truth,
    format_truth,
    lattice_closed,
    op_apply,
    op_check_axioms,
    parse_truth,
    residual_condition,
)
from .semantics import (
    BoolInterpretation,
    Interpretation,
    SignatureError,
    StrongNegationError,
    bool_satisfies,
    classical_reduct,
    evaluate,
    format_interpretation,
    fuzzy_reduct,
    interpretation_to_json,
    parse_interpretation,
    satisfies,
    value_is_one,
)
from .stable import (
    BoolStabilityVerdict,
    Exhaustive,
    Sampled,
    StabilityVerdict,
    boolean_stable_check,
    check_stable,
    check_stable_via_star,
    enumerate_stable,
    fasp_answer_set_check,
    fasp_answer_sets,
    find_witness,
    program_reduct,
    program_signature,
    shadow_names,
    star_transform,
    strategy_from_json,
    strategy_to_json,
    verdict_from_json,
    verdict_to_json,
    y_to_one,
)
from .syntax import (
    Atom,
    Bin,
    Const,
    Formula,
    Neg,
    ParseError,
    Rule,
    StrongNeg,
    atoms,
    conjoin,
    parse_fasp_program,
    parse_formula,
    print_formula,
    program_to_formula,
    rule_to_formula,
    signature_of,
    walk,
)

__version__ = "0.1.0"

# The interval engine, the rewrites, the generators and the property
# suites are not needed to check or enumerate, so they load on their
# first use (PEP 562), not with the package.
_LAZY = {
    "equilibrium": (
        "EquilibriumVerdict", "Interval", "Valuation", "enumerate_equilibrium",
        "equilibrium_verdict_to_json", "find_h_violation", "format_valuation",
        "interpretation_of", "is_equilibrium", "is_n5_model", "n5_evaluate",
        "nneg_valuation", "paired_valuation", "parse_valuation", "prec",
        "preceq", "valuation_from_json", "valuation_of", "valuation_to_json"),
    "generators": (
        "gen_bool_interpretation", "gen_formula", "gen_interpretation",
        "gen_lower_interpretation", "gen_program"),
    "suites": ("PropertyReport", "run_all", "run_suite", "suite_names"),
    "transforms": (
        "CLASSICAL_SELECTION", "NnegResult", "OpSelection", "boolean_embed",
        "choice", "complement_names", "crisp_interp", "defuz", "nneg"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


__all__ = [
    "Atom", "Bin", "BoolInterpretation", "BoolStabilityVerdict",
    "CLASSICAL_SELECTION", "CONJUNCTIONS", "Const", "DISJUNCTIONS",
    "EquilibriumVerdict", "Exhaustive", "Formula", "IMPLICATIONS",
    "Interpretation", "Interval", "Lattice", "NEGATIONS", "Neg",
    "NnegResult", "ONE", "OPERATORS", "OpSelection", "Operator",
    "ParseError", "PropertyReport", "ResourceLimitError", "Rule",
    "Sampled", "SignatureError", "StabilityVerdict", "StrongNeg",
    "StrongNegationError", "Truth", "TruthError", "UnknownOperatorError",
    "Valuation", "ZERO", "atoms", "bool_satisfies", "boolean_embed",
    "boolean_stable_check", "check_stable", "check_stable_via_star",
    "check_truth", "choice", "classical_reduct", "complement_names",
    "conjoin", "crisp_interp", "defuz", "enumerate_equilibrium",
    "enumerate_stable", "equilibrium_verdict_to_json", "evaluate",
    "fasp_answer_set_check",
    "fasp_answer_sets", "find_h_violation", "find_witness",
    "format_interpretation", "format_truth", "format_valuation",
    "fuzzy_reduct", "gen_bool_interpretation", "gen_formula",
    "gen_interpretation", "gen_lower_interpretation", "gen_program",
    "interpretation_of", "interpretation_to_json",
    "is_equilibrium", "is_n5_model", "lattice_closed", "n5_evaluate",
    "nneg", "nneg_valuation", "op_apply", "op_check_axioms",
    "paired_valuation", "parse_fasp_program", "parse_formula",
    "parse_interpretation", "parse_truth", "parse_valuation", "prec",
    "preceq", "print_formula", "program_reduct", "program_signature",
    "program_to_formula", "residual_condition", "rule_to_formula",
    "run_all", "run_suite", "satisfies", "shadow_names", "signature_of",
    "star_transform", "strategy_from_json", "strategy_to_json",
    "suite_names", "valuation_from_json", "valuation_of",
    "valuation_to_json", "value_is_one", "verdict_from_json",
    "verdict_to_json", "walk", "y_to_one",
]
