"""Command line interface.

Subcommands:
  parse        check a formula file and print its canonical form
  eval         evaluate a formula under an interpretation
  reduct       print the reduct of a formula by an interpretation
  check        stability verdict for one interpretation
  enumerate    all stable models over a finite lattice
  translate    rewrites: nneg, embed, choice, star, guard, fasp
  equilibrium  interval-based equilibrium checking and enumeration
  props        run the randomized invariant suites

Each kind of input has one reader, so it takes the same forms wherever
it appears:
  formula or program  a file (positional or --formula, '-' for stdin) or
                      --expr text (_load_text)
  interpretation      --interp TEXT, --interp @FILE or --interp-file FILE
  valuation           --valuation TEXT, --valuation @FILE or
                      --valuation-file FILE (_load_spec)
  atom list           --minimize, --signature, --atoms: comma-separated
                      names, at least one; '--minimize none' is the
                      empty set (_atom_list)
Every atom name these readers take is one a formula can spell
(syntax.check_atom_name).
JSON interpretations and valuations are read by algebra.read_json, which
keeps every number exact.  Two sources for one input (and, in
equilibrium, a valuation together with an interpretation) are a usage
error.

Exit codes: 0 on success, 1 for a negative verdict under --fail-on-unstable
(and for any failing suite), 2 for usage or input errors.
"""
from __future__ import annotations

import argparse
import json
import re
import sys

from . import __version__
from .algebra import (
    CONJUNCTIONS,
    DEFAULT_CANDIDATE_CAP,
    DISJUNCTIONS,
    IMPLICATIONS,
    NEGATIONS,
    ONE,
    Lattice,
    ResourceLimitError,
    format_truth,
    parse_truth,
)
from .equilibrium import (
    enumerate_equilibrium,
    equilibrium_verdict_to_json,
    format_valuation,
    is_equilibrium,
    parse_valuation,
    valuation_of,
    valuation_to_json,
)
from .semantics import (
    evaluate,
    format_interpretation,
    fuzzy_reduct,
    interpretation_to_json,
    parse_interpretation,
)
from .stable import (
    Exhaustive,
    Sampled,
    check_stable,
    check_stable_via_star,
    enumerate_stable,
    shadow_names,
    star_transform,
    verdict_to_json,
    y_to_one,
)
from .syntax import (
    atoms,
    check_atom_name,
    parse_fasp_program,
    parse_formula,
    print_formula,
    program_to_formula,
)
from .transforms import OpSelection, boolean_embed, choice, nneg


class UsageError(Exception):
    pass


_NO_INTERP = "an interpretation is required (--interp or --interp-file)"


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_text(args, missing: str) -> str:
    """The formula or program text: a file, named positionally or with
    --formula ('-' reads stdin), or --expr.  Exactly one must be given;
    without any, raise UsageError(missing)."""
    path = args.source
    if args.formula is not None:
        if path is not None:
            raise UsageError("give the file once (positional or --formula)")
        path = args.formula
    if args.expr is not None:
        if path is not None:
            raise UsageError("give a file or --expr, not both")
        return args.expr
    if path is None:
        raise UsageError(missing)
    return _read_text(path)


def _load_formula(args):
    return parse_formula(
        _load_text(args, "no formula: give a file, --formula, or --expr"))


def _load_spec(args, name: str, parse, missing: str | None = None):
    """parse() applied to the --NAME input: its text, '@FILE' or
    --NAME-file FILE, at most one of them.  Without any, raise
    UsageError(missing), or return None when there is no message."""
    text, path = getattr(args, name), getattr(args, f"{name}_file")
    if text and path:
        raise UsageError(f"give --{name} or --{name}-file, not both")
    if text and text.startswith("@"):
        text, path = None, text[1:]
        if not path:
            raise UsageError(f"--{name} @FILE needs a file name after '@'")
    if path:
        return parse(_read_text(path))
    if text:
        return parse(text)
    if missing:
        raise UsageError(missing)
    return None


def _atom_list(text: str | None, option: str) -> tuple[str, ...] | None:
    """The comma-separated atom names of an option; None when it is not
    given.  A list without names, or with a name that a formula cannot
    spell, is an input error, except that '--minimize none' is the empty
    set."""
    if text is None:
        return None
    if option == "--minimize" and text == "none":
        return ()
    names = tuple(a.strip() for a in text.split(",") if a.strip())
    if not names:
        hint = " (use 'none' for the empty set)" if option == "--minimize" else ""
        raise UsageError(f"{option} got no atom names{hint}")
    for a in names:
        check_atom_name(a)
    return names


def integer(text: str) -> int:
    """An integer option: ASCII digits with an optional leading '-', and
    nothing else (no spaces, '_' separators or non-ASCII digits, all of
    which int() accepts).  Raises ValueError, which argparse reports as
    'invalid integer value'."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _parse_strategy(text: str, seed: int):
    if text == "exhaustive":
        return Exhaustive()
    if text.startswith("sampled:"):
        try:
            n = integer(text.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad sample count in {text!r}") from None
        if n <= 0:
            raise UsageError("the sample count must be positive")
        return Sampled(samples=n, seed=seed)
    raise UsageError(
        f"unknown strategy {text!r}: use 'exhaustive' or 'sampled:N'")


def _emit(data) -> None:
    print(json.dumps(data, indent=2))


def _output(args, data, text: str) -> None:
    """Print data as JSON under --json, else text."""
    if args.json:
        _emit(data)
    else:
        print(text)


def _print_verdict(args, verdict, data: dict, good: str, found: str | None) -> int:
    """Print a verdict: `data` under --json, else its status, the `found`
    line (witness or counter) and its note.  Under --fail-on-unstable the
    exit code is 1 unless the status is `good`."""
    lines = [f"status: {verdict.status}", found,
             verdict.note and f"note: {verdict.note}"]
    _output(args, data, "\n".join(line for line in lines if line))
    return 1 if args.fail_on_unstable and verdict.status != good else 0


def _print_models(args, models, to_json, show) -> int:
    """Print the models of an enumeration: their JSON and count under
    --json, only the count under --count, else one model a line."""
    if args.json:
        _emit({"count": len(models), "models": [to_json(m) for m in models]})
    elif args.count:
        print(len(models))
    else:
        for m in models:
            print(show(m))
    return 0


# subcommands ---------------------------------------------------------


def _cmd_parse(args) -> int:
    f = _load_formula(args)
    text = print_formula(f)
    _output(args, {"formula": text, "atoms": list(atoms(f))}, text)
    return 0


def _cmd_eval(args) -> int:
    f = _load_formula(args)
    i = _load_spec(args, "interp", parse_interpretation, _NO_INTERP)
    value = evaluate(f, i)
    _output(args, {"value": str(value)},
            format_truth(value, decimal=args.decimal))
    return 0


def _cmd_reduct(args) -> int:
    f = _load_formula(args)
    i = _load_spec(args, "interp", parse_interpretation, _NO_INTERP)
    r = print_formula(fuzzy_reduct(f, i, simplified=not args.full))
    _output(args, {"reduct": r}, r)
    return 0


def _cmd_check(args) -> int:
    f = _load_formula(args)
    i = _load_spec(args, "interp", parse_interpretation, _NO_INTERP)
    minimized = _atom_list(args.minimize, "--minimize")
    threshold = parse_truth(args.threshold)
    lattice = Lattice(args.denominator)
    if args.engine == "star":
        if threshold != ONE:
            raise UsageError("the star engine only checks threshold 1")
        if args.strategy != "exhaustive":
            raise UsageError("the star engine is exhaustive only")
        verdict = check_stable_via_star(f, i, minimized, lattice, cap=args.cap)
    else:
        strategy = _parse_strategy(args.strategy, args.seed)
        verdict = check_stable(f, i, minimized, threshold, lattice,
                               strategy, cap=args.cap)
    w = verdict.witness
    return _print_verdict(args, verdict, verdict_to_json(verdict), "stable",
                          None if w is None else f"witness: {format_interpretation(w)}")


def _cmd_enumerate(args) -> int:
    f = _load_formula(args)
    minimized = _atom_list(args.minimize, "--minimize")
    threshold = parse_truth(args.threshold)
    lattice = Lattice(args.denominator)
    models = enumerate_stable(f, minimized, threshold, lattice, cap=args.cap)
    return _print_models(args, models, interpretation_to_json,
                         format_interpretation)


def _cmd_translate(args) -> int:
    mode = args.mode
    if mode == "choice":
        if not args.atoms:
            raise UsageError("translate choice needs --atoms")
        if args.source is not None or args.formula is not None or args.expr is not None:
            raise UsageError("give --atoms or a formula, not both")
        f = choice(_atom_list(args.atoms, "--atoms"), args.conj or "&m")
        _print_translation(args, f)
        return 0
    if mode == "fasp":
        text = _load_text(args, "translate fasp needs a program file or --expr")
        if args.conj is None:
            raise UsageError("translate fasp needs --conj for rule bodies")
        rules = parse_fasp_program(text, args.conj)
        f = program_to_formula(rules, args.join or args.conj)
        _print_translation(args, f)
        return 0
    f = _load_formula(args)
    if mode == "nneg":
        result = nneg(f)
        text = print_formula(result.formula)
        _output(args, {"formula": text, "complements": dict(result.complements),
                       "signature": list(result.signature)},
                "".join(f"# complement of {a}: {na}\n"
                        for a, na in result.complements.items()) + text)
        return 0
    if mode == "embed":
        selection = OpSelection(
            neg=args.neg or "not_s",
            conj=args.conj or "&m",
            disj=args.disj or "|m",
            impl=args.impl or "->s",
        )
        _print_translation(args, boolean_embed(f, selection))
        return 0
    if mode == "star":
        sig = atoms(f)
        minimized = _atom_list(args.minimize, "--minimize")
        if minimized is None:
            minimized = sig
        fresh = shadow_names(sig, minimized)
        text = print_formula(star_transform(f, minimized, fresh))
        _output(args, {"formula": text, "shadows": fresh},
                "".join(f"# shadow of {a}: {fresh[a]}\n" for a in fresh) + text)
        return 0
    if mode == "guard":
        threshold = parse_truth(args.threshold)
        _print_translation(args, y_to_one(f, threshold, args.impl or "->r"))
        return 0
    raise UsageError(f"unknown translate mode {mode!r}")


def _print_translation(args, f) -> None:
    text = print_formula(f)
    _output(args, {"formula": text}, text)


def _cmd_equilibrium(args) -> int:
    f = _load_formula(args)
    lattice = Lattice(args.denominator)
    if args.enumerate:
        for name in ("valuation", "valuation_file", "interp", "interp_file"):
            if getattr(args, name) is not None:
                option = "--" + name.replace("_", "-")
                raise UsageError(f"give --enumerate or {option}, not both")
        sig = _atom_list(args.signature, "--signature")
        if sig is not None:
            _require_atoms(f, sig, "is not in --signature")
        models = enumerate_equilibrium(f, lattice, signature=sig, cap=args.cap)
        return _print_models(args, models, valuation_to_json, format_valuation)
    v = _load_spec(args, "valuation", parse_valuation)
    i = _load_spec(args, "interp", parse_interpretation)
    if v is not None and i is not None:
        raise UsageError("give a valuation or an interpretation, not both")
    if v is None and i is None:
        raise UsageError("give --valuation, --valuation-file, --interp, "
                         "or --enumerate")
    v = v if i is None else valuation_of(i)
    _require_atoms(f, v.atoms(), "is not interpreted")
    verdict = is_equilibrium(v, f, lattice, cap=args.cap)
    c = verdict.counter
    return _print_verdict(args, verdict, equilibrium_verdict_to_json(verdict),
                          "equilibrium",
                          None if c is None else f"counter: {format_valuation(c)}")


def _require_atoms(f, names, complaint: str) -> None:
    """Refuse an atom of f outside names: the interval engine would raise
    KeyError on it."""
    for a in atoms(f):
        if a not in names:
            raise UsageError(f"atom {a!r} {complaint}")


def _cmd_props(args) -> int:
    from .suites import run_all, run_suite, suite_names

    if args.list:
        for name in suite_names():
            print(name)
        return 0
    lattice = Lattice(args.denominator)
    if args.suite:
        reports = [run_suite(args.suite, args.trials, args.seed, lattice)]
    else:
        reports = run_all(args.trials, args.seed, lattice)
    if args.json:
        _emit([{"suite": r.suite, "passed": r.passed, "trials": r.trials,
                "counterexample": r.counterexample, "note": r.note}
               for r in reports])
    else:
        for r in reports:
            if r.passed:
                print(f"PASS {r.suite}")
            else:
                print(f"FAIL {r.suite}")
                print(f"  counterexample: {r.counterexample}")
        failed = sum(1 for r in reports if not r.passed)
        print(f"{len(reports)} suites, {len(reports) - failed} passed")
    return 1 if any(not r.passed for r in reports) else 0


# parser wiring --------------------------------------------------------


def _add_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("source", nargs="?", default=None,
                   help="formula file ('-' for stdin)")
    p.add_argument("--formula", default=None, metavar="FILE",
                   help="formula file ('-' for stdin); same slot as the "
                        "positional argument")
    p.add_argument("--expr", default=None, help="inline formula text")


def _add_spec(p: argparse.ArgumentParser, name: str, what: str,
              example: str) -> None:
    p.add_argument(f"--{name}", default=None,
                   help=f"{what}, e.g. {example} or JSON; '@FILE' reads it "
                        "from a file")
    p.add_argument(f"--{name}-file", default=None,
                   help=f"file holding the {what}")


def _add_search(p: argparse.ArgumentParser) -> None:
    p.add_argument("--minimize", default=None,
                   help="comma-separated atoms ('none' for the empty set); "
                        "default: every atom")
    p.add_argument("--threshold", default="1", help="default 1")
    p.add_argument("--denominator", type=integer, default=10,
                   help="lattice granularity D for 0, 1/D, ..., 1 "
                        "(default 10)")
    p.add_argument("--cap", type=integer, default=DEFAULT_CANDIDATE_CAP,
                   help="candidate limit before the search refuses to run")


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzysm",
        description="Exact stable-model reasoning for fuzzy propositional "
                    "formulas.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="print the canonical form")
    _add_source(p)
    _add_json(p)
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("eval", help="evaluate under an interpretation")
    _add_source(p)
    _add_spec(p, "interp", "interpretation", "'p=0.3, q=7/10'")
    p.add_argument("--decimal", action="store_true",
                   help="print a decimal when it is exact")
    _add_json(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("reduct", help="print the reduct")
    _add_source(p)
    _add_spec(p, "interp", "interpretation", "'p=0.3, q=7/10'")
    p.add_argument("--full", action="store_true",
                   help="keep the caps on conjunctions and disjunctions")
    _add_json(p)
    p.set_defaults(fn=_cmd_reduct)

    p = sub.add_parser("check", help="stability verdict")
    _add_source(p)
    _add_spec(p, "interp", "interpretation", "'p=0.3, q=7/10'")
    _add_search(p)
    p.add_argument("--strategy", default="exhaustive",
                   help="'exhaustive' or 'sampled:N' (N at most --cap)")
    p.add_argument("--seed", type=integer, default=0,
                   help="with --strategy sampled:N: seeds the draws, so "
                        "the same seed tests the same candidates in the "
                        "same order; a seed and its negation draw alike "
                        "(default 0)")
    p.add_argument("--engine", choices=("direct", "star"), default="direct",
                   help="'star' cross-checks through the shadow rewrite")
    p.add_argument("--fail-on-unstable", action="store_true",
                   help="exit 1 unless the verdict is 'stable'")
    _add_json(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("enumerate", help="all stable models on the lattice")
    _add_source(p)
    _add_search(p)
    p.add_argument("--count", action="store_true", help="print only the count")
    _add_json(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser(
        "translate",
        help="rewrites: nneg, embed, choice, star, guard, fasp")
    p.add_argument("mode",
                   choices=("nneg", "embed", "choice", "star", "guard", "fasp"))
    _add_source(p)
    p.add_argument("--atoms", default=None,
                   help="choice: comma-separated atom names")
    p.add_argument("--minimize", default=None, help="star: atoms to shadow")
    p.add_argument("--threshold", default="1", help="guard: the threshold")
    p.add_argument("--conj", default=None, choices=CONJUNCTIONS,
                   help="embed/choice/fasp: conjunction token")
    p.add_argument("--disj", default=None, choices=DISJUNCTIONS,
                   help="embed: disjunction token")
    p.add_argument("--impl", default=None, choices=IMPLICATIONS,
                   help="embed/guard: implication token")
    p.add_argument("--neg", default=None, choices=NEGATIONS,
                   help="embed: negation token")
    p.add_argument("--join", default=None, choices=CONJUNCTIONS,
                   help="fasp: conjunction joining the rules "
                        "(default: same as --conj)")
    _add_json(p)
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("equilibrium", help="interval-based cross-check")
    _add_source(p)
    _add_spec(p, "interp", "interpretation", "'p=0.3, q=7/10'")
    _add_spec(p, "valuation", "valuation", "'h:p=[0.2,0.7]; t:p=[0.2,0.7]'")
    p.add_argument("--enumerate", action="store_true",
                   help="list every equilibrium model instead of checking one")
    p.add_argument("--count", action="store_true",
                   help="with --enumerate: print only the count")
    p.add_argument("--signature", default=None,
                   help="with --enumerate: comma-separated atoms to range over")
    p.add_argument("--denominator", type=integer, default=10)
    p.add_argument("--cap", type=integer, default=DEFAULT_CANDIDATE_CAP,
                   help="candidate limit per scan; with --enumerate it bounds "
                        "the pruned candidate count, in which an atom's lower "
                        "bound moves only if it occurs plain and its upper "
                        "bound only if it occurs under '~'")
    p.add_argument("--fail-on-unstable", action="store_true",
                   help="exit 1 unless the verdict is 'equilibrium'")
    _add_json(p)
    p.set_defaults(fn=_cmd_equilibrium)

    p = sub.add_parser("props", help="run the invariant suites")
    p.add_argument("--suite", default=None, help="run one suite by name")
    p.add_argument("--list", action="store_true", help="list suite names")
    p.add_argument("--trials", type=integer, default=500)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--denominator", type=integer, default=4)
    _add_json(p)
    p.set_defaults(fn=_cmd_props)

    return parser


# ParseError, TruthError, JSONDecodeError and every other input error of
# the package derive from ValueError.
_INPUT_ERRORS = (UsageError, ResourceLimitError, ValueError, OSError)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    # argparse fills `translate MODE [SOURCE]` in one step, so a source
    # after an option (`translate fasp --conj '&m' FILE`) comes back
    # unparsed; it is the source when the slot is still empty.
    if extra and getattr(args, "source", "") is None and not extra[0].startswith("-"):
        args.source = extra.pop(0)
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.fn(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the input nests too deeply to process", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory on this input", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
