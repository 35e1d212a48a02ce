"""Stable-model checking and enumeration over finite truth lattices.

An interpretation I is a stable model of F relative to a set of minimized
atoms when it satisfies F and no interpretation J strictly below I on the
minimized atoms (equal elsewhere) satisfies the reduct of F by I.  The
thresholded variant asks for satisfaction to degree y on both counts.

Witness search over a lattice is exhaustive with a deterministic scan
order: minimized atoms in signature order, candidate values ascending,
earlier atoms varying more slowly.  A seeded sampling strategy is
available for signatures too large to scan; it is sound (a reported
witness is real) but incomplete, and says so in the verdict.  Its stream
is a contract: sample by sample, each minimized atom is drawn in
signature order, as random.Random(seed).choice would draw it from that
atom's pool, so a seed names the same candidates in the same order on
every supported Python.

find_witness (and with it check_stable) and enumerate_stable compile the
formula once (see compiled.py) and run on the compiled program, exact
over integer numerators when the formula is lattice-closed and I lies on
the lattice (each pool then a range, which holds no value per point),
and over Fractions otherwise.  enumerate_stable scans the lattice grid
with compiled.level_scan and the model test, with the reduct test at the
bottom candidate (Program.capped) riding along as plain instructions.  At
each model whose bottom candidate is not a witness, the grid scan's
callback runs compiled.witness_in: one scan of the model's pools under
the capped reduct test, ended by its first hit, in one work list
refilled for each model.  find_witness runs witness_in too, over one
product of pools for the exhaustive search below I, and over one product
of one-value pools per draw, as it is made, for the sampled hunt, which
draws from the same pools (I's own value joins a pool where it lies off
the lattice, which only a sampled search reaches).  Every scan skips each
run of candidates that share a failing prefix.  Before either search,
find_witness tries compiled.least_model on those pools: when the reduct
is Horn-shaped at the top value and its least model below I is I, no
witness exists and nothing is scanned or drawn.  Otherwise the search
runs unchanged, so the proof changes no verdict, witness or note; a
sampled "stable" it proves still carries the sampled note.
check_stable's model test stays semantics.satisfies.  A model test
that meets a strong negation raises StrongNegationError, and one that
stops before it can only answer "not a model"; so check_stable and
check_stable_via_star refuse a formula with ~ whatever I is, right after
the signature checks, from the walk of syntax.leaves that reads the
signature.  semantics.evaluate and fuzzy_reduct remain the reference
definitions, and the shadow-atom route, the Boolean oracle and the
program oracle below share no code with the compiled program.

The cross-check routes scan algebra.candidates: the capped product of
per-atom pools, minus I's own point where the route asks.  It knows
nothing of what a candidate means; each route keeps its own acceptance
test.  The Boolean and program oracles are capped at
DEFAULT_CANDIDATE_CAP.  find_witness checks the size of its exhaustive
product against the cap through algebra.check_cap, before the proof and
the scan, and enumerate_stable its grid, before it compiles; no witness
scan below a grid point is larger than the grid.  A sampled hunt
refuses more samples than its cap through the same algebra.check_cap,
and an exhaustive search refuses an I with Program.off_lattice slots,
both before the proof.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .algebra import (
    DEFAULT_CANDIDATE_CAP,
    ONE,
    Lattice,
    OpFamily,
    candidates,
    check_cap,
    check_truth,
    format_truth,
    get_operator,
)
from .compiled import (
    Program,
    compile_formula,
    least_model,
    level_plan,
    level_scan,
    witness_in,
)
from .semantics import (
    BoolInterpretation,
    Interpretation,
    SignatureError,
    StrongNegationError,
    bool_satisfies,
    check_boolean_shaped,
    classical_reduct,
    evaluate,
    interpretation_to_json,
    satisfies,
    value_is_one,
)
from .syntax import (
    Atom,
    Bin,
    Const,
    Formula,
    Neg,
    Rule,
    atoms,
    conjoin,
    fold,
    leaves,
)

@dataclass(frozen=True)
class Exhaustive:
    """Scan every candidate below I, in scan order."""


@dataclass(frozen=True)
class Sampled:
    """Test `samples` seeded random draws of candidates below I.

    The stream is part of the contract: sample by sample, each minimized
    atom is drawn in signature order, as `random.Random(seed).choice`
    would draw it from that atom's pool (the lattice values up to I's
    value, plus I's own value when it lies off the lattice).  So a seed
    reproduces its witness.  random.Random seeds with the seed's absolute
    value, so seed and -seed draw the same stream, while the note and the
    verdict JSON name the seed as given.  `samples` and `seed` are ints,
    not bools."""
    samples: int
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("samples", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an int, got {value!r}")
        if self.samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.samples}")


Strategy = Union[Exhaustive, Sampled]


@dataclass(frozen=True)
class StabilityVerdict:
    status: str  # "not_a_model" | "stable" | "unstable"
    threshold: Fraction
    denominator: int
    strategy: Strategy
    witness: Interpretation | None = None
    note: str = ""


@dataclass(frozen=True)
class BoolStabilityVerdict:
    status: str
    witness: BoolInterpretation | None = None


def _scan_order(
    f: Formula, i: Mapping[str, Fraction], minimized: Sequence[str] | None
) -> tuple[tuple[str, ...], list[str], set[str]]:
    """The signature (formula first-occurrence order, then any remaining
    interpreted atoms), the minimized atoms in its order, all of them
    when minimized is None, and the atoms under '~', all from one walk of
    f.  Raises SignatureError for a minimized atom
    outside the signature and for an atom of f that i leaves out."""
    names, _, negated = leaves(f)
    sig = tuple(dict.fromkeys((*names, *i)))
    scan = _minimized_in(sig, minimized)
    # sig is the union of f's atoms and i's, so it is longer than i
    # exactly when f has an atom that i leaves out.
    if len(sig) > len(i):
        a = next(a for a in sig if a not in i)
        raise SignatureError(f"atom {a!r} is not interpreted")
    return sig, scan, negated


def _minimized_in(sig: Sequence[str], minimized: Sequence[str] | None) -> list[str]:
    """The minimized atoms in the order of sig, all of sig when minimized
    is None.  Raises SignatureError for a minimized atom outside sig."""
    mset = set(sig if minimized is None else minimized)
    missing = mset.difference(sig)
    if missing:
        raise SignatureError(f"minimized atoms outside the signature: {sorted(missing)}")
    return [a for a in sig if a in mset]


def _require_lattice(i: Mapping[str, Fraction], lattice: Lattice) -> None:
    for a in i:
        if i[a] not in lattice:
            raise ValueError(
                f"atom {a!r} has value {format_truth(i[a])} outside the "
                f"1/{lattice.denominator} lattice; exhaustive search needs "
                "lattice values (use a sampled strategy otherwise)")


def _draws(pools: Sequence[Sequence], samples: int, seed: int):
    """`samples` rows, one value from each pool per row, drawn exactly as
    `random.Random(seed).choice` would draw them pool by pool: an index
    of k = n.bit_length() random bits, drawn again while it is not below
    the pool's length n.  Rows are made lazily."""
    bits = random.Random(seed).getrandbits
    sized = [(p, len(p), len(p).bit_length()) for p in pools]
    for _ in range(samples):
        row = []
        for p, n, k in sized:
            r = bits(k)
            while r >= n:
                r = bits(k)
            row.append(p[r])
        yield tuple(row)


def find_witness(
    f: Formula,
    i: Interpretation,
    minimized: Sequence[str],
    threshold: Fraction = ONE,
    lattice: Lattice = Lattice(10),
    strategy: Strategy = Exhaustive(),
    cap: int = DEFAULT_CANDIDATE_CAP,
    *,
    _order: tuple[tuple[str, ...], list[str], set[str]] | None = None,
) -> Interpretation | None:
    """First J strictly below i on the minimized atoms that satisfies the
    reduct of f by i to the threshold; None when the search finds none.
    `_order` is `_scan_order(f, i, minimized)` when the caller has it
    already: check_stable passes it, so a verdict walks f's atoms once."""
    y = check_truth(threshold)
    sig, scan, _ = _order or _scan_order(f, i, minimized)
    # Nothing strictly below i exists when no atom is minimized.
    if not scan:
        return None
    if isinstance(strategy, Sampled):
        check_cap(strategy.samples, cap)
    values = [i[a] for a in sig]
    prog = compile_formula(f, sig, lattice, values)
    at_i = prog.evaluate([prog.domain(v) for v in values])
    cut = prog.level(y)
    # Reduct values never exceed the original formula's value, so a
    # sub-threshold formula cannot have a witness: skip the scan.
    if at_i[prog.root] < cut:
        return None
    mset = set(scan)
    moving = tuple(k for k, a in enumerate(sig) if a in mset)
    # An off-lattice value of I joins its own pool, so that J = I on that
    # coordinate stays reachable; an exhaustive search refuses such an I.
    # Only the Fraction domain has such a slot, and its pools are tuples.
    pools = [prog.below(at_i[k]) + (at_i[k],) if k in prog.off_lattice
             else prog.below(at_i[k]) for k in moving]
    if not isinstance(strategy, Sampled):
        if prog.off_lattice:
            _require_lattice(i, lattice)
        check_cap(math.prod(map(len, pools)), cap)  # before the proof and the scan
    checks = prog.reduct_checks(moving, cut)
    # At the top value a Horn-shaped reduct has a least model in the
    # product of pools; when it is I, no candidate can be a witness.
    if (cut == prog.points[-1] and least_model(prog, checks, moving, pools, at_i)
            == tuple([at_i[k] for k in moving])):
        return None
    checks, work = prog.capped(checks, moving, at_i)
    plan = level_plan(checks, moving)
    # The exhaustive search is one product; each draw is a product of
    # one-value pools, scanned in the same work list.
    if isinstance(strategy, Sampled):
        products = ([(v,) for v in row]
                    for row in _draws(pools, strategy.samples, strategy.seed))
    else:
        products = (pools,)
    for product in products:
        if witness_in(plan, moving, product, work, cut, at_i):
            return i.updated({a: prog.value(work[k]) for a, k in zip(scan, moving)})
    return None


def _strategy_note(strategy: Strategy, lattice: Lattice, found: bool) -> str:
    if isinstance(strategy, Sampled):
        if found:
            return "witness found by sampling; it is a real witness"
        return (f"no witness found in {strategy.samples} samples "
                f"(seed {strategy.seed}); sampling is sound but not exhaustive")
    return f"exact over the 1/{lattice.denominator} lattice"


def check_stable(
    f: Formula,
    i: Interpretation,
    minimized: Sequence[str] | None = None,
    threshold: Fraction = ONE,
    lattice: Lattice = Lattice(10),
    strategy: Strategy = Exhaustive(),
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> StabilityVerdict:
    """Full verdict: the inputs' atoms checked, a strong negation
    refused, then modelhood at the threshold, then witness search."""
    y = check_truth(threshold)
    order = _scan_order(f, i, minimized)
    if order[2]:
        raise StrongNegationError()
    if not satisfies(f, i, y):
        return StabilityVerdict(
            "not_a_model", y, lattice.denominator, strategy,
            note="the interpretation does not reach the threshold")
    witness = find_witness(f, i, order[1], y, lattice, strategy, cap, _order=order)
    if witness is not None:
        return StabilityVerdict(
            "unstable", y, lattice.denominator, strategy, witness=witness,
            note=_strategy_note(strategy, lattice, True))
    return StabilityVerdict(
        "stable", y, lattice.denominator, strategy,
        note=_strategy_note(strategy, lattice, False))


def _stable_points(prog: Program, moving: tuple[int, ...], cut) -> list[tuple]:
    """The lattice points, as tuples of domain values, that reach `cut`
    and have no witness on the moving slots.

    One level_scan call scans the grid under the model test.  Its plan
    also runs Program.capped's bottom copy, the reduct test at the bottom
    candidate (every moving slot at points[0]), as checks with no test,
    so at each point that passes, the callback reads whether the first
    candidate of the point's witness scan is a witness: it passes the
    reduct test and is not the point itself.  Only where it is not does
    the callback scan the candidates below the point, with one
    witness_in call into a work list refilled with the point's values:
    no generator, pool product stream or copy of the point."""
    n = len(prog.signature)
    points = prog.points
    least = points[0]
    checks = prog.reduct_checks(moving, cut)
    bottom, vals = prog.capped(checks, moving, prog.slots, bottom=True)
    grid = level_plan(prog.model_checks(cut) + tuple((None, code) for _, code in bottom),
                      range(n))
    # vals fits the witness scan's copies too: they take one slot fewer.
    reduct = level_plan(prog.capped(checks, moving, prog.slots)[0], moving)
    tests = [slot for slot, _ in bottom]
    # Each model value's witness pool, built when a model first holds it:
    # a table of every point's pool is quadratic in D on the Fraction domain.
    below = functools.cache(prog.below)
    work = list(vals)
    found = []

    def no_witness() -> bool:
        # False goes on with the grid.  In an enumerate benchmark pass,
        # 3,391 of the 4,329 models have the bottom candidate for their
        # witness, and their witness scans are never started.
        for k in tests:
            if vals[k] < cut:
                break
        else:
            for k in moving:
                if vals[k] != least:
                    return False
        work[:] = vals
        if not witness_in(reduct, moving, [below(vals[k]) for k in moving], work, cut, vals):
            found.append(tuple(vals[:n]))
        return False

    # No cap check here: a point has at most as many candidates as the
    # grid has points, and enumerate_stable has checked those against its
    # cap.
    level_scan(grid, range(n), [points] * n, vals, cut, accept=no_witness)
    return found


def enumerate_stable(
    f: Formula,
    minimized: Sequence[str] | None = None,
    threshold: Fraction = ONE,
    lattice: Lattice = Lattice(10),
    jobs: int = 1,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> list[Interpretation]:
    """All stable models over the lattice, in lexicographic scan order:
    the points whose check_stable verdict is "stable", found on the
    compiled program.  The scan runs in this process.  `jobs` is
    accepted and ignored, so that callers which still pass it (the
    benchmark's pool probe) keep working."""
    y = check_truth(threshold)
    sig = atoms(f)
    mset = set(_minimized_in(sig, minimized))
    check_cap(lattice.size ** len(sig), cap)  # before compiling the grid
    prog = compile_formula(f, sig, lattice)
    moving = tuple(k for k, a in enumerate(sig) if a in mset)
    found = _stable_points(prog, moving, prog.level(y))
    return [Interpretation(zip(sig, map(prog.value, i))) for i in found]


# Shadow-atom route: an independent stability check ------------------


def shadow_names(signature: Sequence[str], minimized: Sequence[str]) -> dict[str, str]:
    """Fresh atom names for the minimized atoms, collision-free: one per
    atom, in first-occurrence order.  Raises SignatureError for a
    minimized atom outside the signature."""
    _minimized_in(signature, minimized)
    taken = set(signature)
    fresh: dict[str, str] = {}
    for a in dict.fromkeys(minimized):
        name = f"{a}_shadow"
        k = 1
        while name in taken:
            k += 1
            name = f"{a}_shadow{k}"
        taken.add(name)
        fresh[a] = name
    return fresh


def star_transform(
    f: Formula, minimized: Sequence[str], fresh: Mapping[str, str]
) -> Formula:
    """Rewrite f so that minimized atoms read from their shadow copies,
    keeping every implication tied to its original value via a minimum cap."""
    names, _, negated = leaves(f)
    if negated:
        raise StrongNegationError(
            "strong negation has no shadow rewrite; eliminate it first")
    mset = set(minimized)
    for a in mset:
        if a not in fresh:
            raise ValueError(f"no fresh name for minimized atom {a!r}")
    renames = {a: fresh[a] for a in mset}
    clashes = set(renames.values()).intersection(names)
    if clashes:
        raise ValueError(f"fresh atoms collide with the signature: {sorted(clashes)}")

    def leaf(x: Formula) -> Formula:
        if isinstance(x, Atom) and x.name in renames:
            return Atom(renames[x.name])
        return x

    def node(x: Formula, *parts: Formula) -> Formula:
        if isinstance(x, Neg):  # negations keep reading the originals
            return x
        rebuilt = Bin(x.op, *parts)
        if get_operator(x.op).family is OpFamily.IMPLICATION:
            return Bin("&m", rebuilt, x)
        return rebuilt

    return fold(f, leaf, node)


def check_stable_via_star(
    f: Formula,
    i: Interpretation,
    minimized: Sequence[str] | None = None,
    lattice: Lattice = Lattice(10),
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> StabilityVerdict:
    """Stability via the shadow rewrite: look for J strictly below i on the
    minimized atoms whose shadow-extended interpretation satisfies the
    rewritten formula.  Threshold 1 only; cross-checks check_stable."""
    strategy = Exhaustive()
    sig, scan, negated = _scan_order(f, i, minimized)
    if negated:
        raise StrongNegationError()
    if not satisfies(f, i, ONE):
        return StabilityVerdict(
            "not_a_model", ONE, lattice.denominator, strategy,
            note="the interpretation is not a model")
    if not scan:
        return StabilityVerdict(
            "stable", ONE, lattice.denominator, strategy,
            note=_strategy_note(strategy, lattice, False))
    fresh = shadow_names(sig, scan)
    star = star_transform(f, scan, fresh)
    _require_lattice(i, lattice)
    pools = [lattice.points_up_to(i[a]) for a in scan]
    merged = dict(i)
    for combo in candidates(pools, cap, skip=tuple(i[a] for a in scan)):
        for a, v in zip(scan, combo):
            merged[fresh[a]] = v
        if value_is_one(star, merged):
            witness = i.updated(dict(zip(scan, combo)))
            return StabilityVerdict(
                "unstable", ONE, lattice.denominator, strategy, witness=witness,
                note=_strategy_note(strategy, lattice, True))
    return StabilityVerdict(
        "stable", ONE, lattice.denominator, strategy,
        note=_strategy_note(strategy, lattice, False))


def y_to_one(f: Formula, threshold: Fraction, impl: str = "->r") -> Formula:
    """Turn a threshold question into a plain one: guard f behind the
    constant threshold.  Needs an implication that is 1 exactly on
    non-decreasing pairs, which '->s' is not."""
    y = check_truth(threshold)
    op = get_operator(impl)
    if op.family is not OpFamily.IMPLICATION:
        raise ValueError(f"{impl!r} is not an implication")
    if not op.residual:
        raise ValueError(
            f"{impl!r} does not satisfy '->(x, y) = 1 exactly when y >= x'; "
            "the threshold reduction is unsound with it")
    return Bin(impl, Const(y), f)


# Boolean oracle ------------------------------------------------------


def boolean_stable_check(
    f: Formula,
    x: BoolInterpretation,
    minimized: Sequence[str] | None = None,
) -> BoolStabilityVerdict:
    """Two-valued stability: x satisfies f and no proper sub-assignment on
    the minimized atoms satisfies the classical reduct."""
    check_boolean_shaped(f)
    _, scan, _ = _scan_order(f, dict.fromkeys(x.signature), minimized)
    if not bool_satisfies(f, x):
        return BoolStabilityVerdict("not_a_model")
    reduct = classical_reduct(f, x)
    pools = [[False, True] if a in x.true_atoms else [False] for a in scan]
    base = tuple(a in x.true_atoms for a in scan)
    for combo in candidates(pools, DEFAULT_CANDIDATE_CAP, skip=base):
        true = (x.true_atoms - set(scan)) | {a for a, v in zip(scan, combo) if v}
        candidate = BoolInterpretation(x.signature, frozenset(true))
        if bool_satisfies(reduct, candidate):
            return BoolStabilityVerdict("unstable", witness=candidate)
    return BoolStabilityVerdict("stable")


# Independent normal-program oracle -----------------------------------


def program_reduct(rules: Sequence[Rule], i: Mapping[str, Fraction]) -> list[Formula]:
    """Replace each 'not b' body literal by the constant complement of b's
    value, per rule; positive literals and heads stay put."""
    out = []
    for rule in rules:
        literals: list[Formula] = list(rule.pos)
        literals += [Const(1 - evaluate(b, i)) for b in rule.neg]
        body = conjoin(rule.conj, literals) if literals else Const(Fraction(1))
        out.append(Bin("->r", body, rule.head))
    return out


def program_signature(rules: Sequence[Rule]) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for rule in rules:
        for part in (rule.head,) + rule.pos + rule.neg:
            if isinstance(part, Atom):
                seen.setdefault(part.name, None)
    return tuple(seen)


def fasp_answer_set_check(
    rules: Sequence[Rule], i: Interpretation, lattice: Lattice
) -> bool:
    """Direct answer-set test for a normal program: i satisfies every rule
    and no smaller lattice interpretation satisfies every reduct rule.

    This route never builds the single-formula reduct, so it confirms the
    formula-level machinery from the outside.
    """
    sig = program_signature(rules)
    for a in sig:
        if a not in i:
            raise SignatureError(f"atom {a!r} is not interpreted")
    originals = [
        Bin("->r",
            conjoin(r.conj, list(r.pos) + [Neg("not_s", b) for b in r.neg])
            if (r.pos or r.neg) else Const(Fraction(1)),
            r.head)
        for r in rules
    ]
    if not all(value_is_one(r, i) for r in originals):
        return False
    reduct = program_reduct(rules, i)
    pools = [lattice.points_up_to(i[a]) for a in sig]
    j = dict(i)
    for combo in candidates(pools, DEFAULT_CANDIDATE_CAP,
                            skip=tuple(i[a] for a in sig)):
        j.update(zip(sig, combo))
        if all(value_is_one(r, j) for r in reduct):
            return False
    return True


def fasp_answer_sets(rules: Sequence[Rule], lattice: Lattice) -> list[Interpretation]:
    sig = program_signature(rules)
    out = []
    points = list(lattice.points())
    for combo in candidates([points] * len(sig), DEFAULT_CANDIDATE_CAP):
        i = Interpretation(zip(sig, combo))
        if fasp_answer_set_check(rules, i, lattice):
            out.append(i)
    return out


# Verdict serialization ------------------------------------------------


def strategy_to_json(strategy: Strategy) -> dict:
    if isinstance(strategy, Sampled):
        return {"kind": "sampled", "samples": strategy.samples, "seed": strategy.seed}
    # "jobs" is what the exhaustive record carried when the search had a
    # process pool; it stays at 1 so that verdict JSON keeps its form.
    return {"kind": "exhaustive", "jobs": 1}


def strategy_from_json(data: dict) -> Strategy:
    if data["kind"] == "sampled":
        fields = data["samples"], data["seed"]
        if not all(type(x) is int for x in fields):
            raise ValueError(
                f"sampled strategy needs integer samples and seed, got {fields!r}")
        return Sampled(*fields)
    if data["kind"] == "exhaustive":
        return Exhaustive()
    raise ValueError(f"unknown strategy kind {data.get('kind')!r}")


def verdict_to_json(v: StabilityVerdict) -> dict:
    return {
        "status": v.status,
        "threshold": format_truth(v.threshold),
        "denominator": v.denominator,
        "strategy": strategy_to_json(v.strategy),
        "witness": None if v.witness is None else interpretation_to_json(v.witness),
        "note": v.note,
    }


def verdict_from_json(data: dict) -> StabilityVerdict:
    from .algebra import parse_truth

    witness = data.get("witness")
    return StabilityVerdict(
        status=data["status"],
        threshold=parse_truth(data["threshold"]),
        denominator=int(data["denominator"]),
        strategy=strategy_from_json(data["strategy"]),
        witness=None if witness is None else Interpretation(witness),
        note=data.get("note", ""),
    )
