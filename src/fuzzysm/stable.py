"""Stable-model checking and enumeration over finite truth lattices.

An interpretation I is a stable model of F relative to a set of minimized
atoms when it satisfies F and no interpretation J strictly below I on the
minimized atoms (equal elsewhere) satisfies the reduct of F by I.  The
thresholded variant asks for satisfaction to degree y on both counts.

Witness search over a lattice is exhaustive with a deterministic scan
order: minimized atoms in signature order, candidate values ascending,
earlier atoms varying more slowly.  A seeded sampling strategy is
available for signatures too large to scan; it is sound (a reported
witness is real) but incomplete, and says so in the verdict.

find_witness (and with it check_stable) and enumerate_stable compile the
formula once (see compiled.py) and share one witness kernel on the
compiled program, exact over integer numerators when the formula is
lattice-closed and I lies on the lattice, and over Fractions otherwise.
Only the source of candidates differs: the product of the per-atom pools
for an exhaustive search, seeded draws from the same pools for a sampled
one, and for enumeration a slice of the lattice grid, each of whose
points scans the product below it.  check_stable's model test stays
semantics.satisfies.  semantics.evaluate and fuzzy_reduct remain the
reference definitions, and the shadow-atom route, the Boolean oracle and
the program oracle below share no code with the kernel.

Every exhaustive candidate source here but enumeration's (whose grid is
capped once, in enumerate_stable) is algebra.candidates: the capped
product of per-atom pools, minus I's own point where the route asks.
It knows nothing of what a candidate means; each route keeps its own
acceptance test.  The Boolean and program oracles are capped at
DEFAULT_CANDIDATE_CAP.
"""
from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .algebra import (
    ONE,
    Lattice,
    OpFamily,
    ResourceLimitError,
    candidates,
    check_truth,
    format_truth,
    get_operator,
)
from .compiled import Program, compile_formula, first_witness, run
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
    StrongNeg,
    conjoin,
    fold,
    signature_of,
    walk,
)

DEFAULT_CANDIDATE_CAP = 10 ** 7


@dataclass(frozen=True)
class Exhaustive:
    """Scan every candidate below I, in scan order."""


@dataclass(frozen=True)
class Sampled:
    """Test `samples` seeded random draws of candidates below I."""
    samples: int
    seed: int = 0

    def __post_init__(self) -> None:
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
    f: Formula, i: Mapping[str, Fraction], minimized: Sequence[str]
) -> tuple[tuple[str, ...], list[str]]:
    """The signature (formula first-occurrence order, then any remaining
    interpreted atoms) and the minimized atoms in its order."""
    sig = signature_of(f, extra=tuple(i))
    mset = set(minimized)
    missing = mset - set(sig)
    if missing:
        raise SignatureError(f"minimized atoms outside the signature: {sorted(missing)}")
    # Atoms of sig not in i can only come from the formula.
    for a in sig:
        if a not in i:
            raise SignatureError(f"atom {a!r} is not interpreted")
    return sig, [a for a in sig if a in mset]


def _exhaustive_pools(
    i: Mapping[str, Fraction], scan: Sequence[str], lattice: Lattice
) -> list[list[Fraction]]:
    for a in i:
        if i[a] not in lattice:
            raise ValueError(
                f"atom {a!r} has value {format_truth(i[a])} outside the "
                f"1/{lattice.denominator} lattice; exhaustive search needs "
                "lattice values (use a sampled strategy otherwise)")
    return [lattice.points_up_to(i[a]) for a in scan]


def find_witness(
    f: Formula,
    i: Interpretation,
    minimized: Sequence[str],
    threshold: Fraction = ONE,
    lattice: Lattice = Lattice(10),
    strategy: Strategy = Exhaustive(),
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> Interpretation | None:
    """First J strictly below i on the minimized atoms that satisfies the
    reduct of f by i to the threshold; None when the search finds none."""
    y = check_truth(threshold)
    sig, scan = _scan_order(f, i, minimized)
    # Nothing strictly below i exists when no atom is minimized.
    if not scan:
        return None
    prog = compile_formula(f, sig, lattice, i.values())
    at_i = prog.evaluate([prog.domain(i[a]) for a in sig])
    cut = prog.level(y)
    # Reduct values never exceed the original formula's value, so a
    # sub-threshold formula cannot have a witness: skip the scan.
    if at_i[prog.root] < cut:
        return None
    domain = prog.domain
    if isinstance(strategy, Sampled):
        # An off-lattice value of I joins its own pool, so that J = I on
        # that coordinate stays reachable.
        pools = [[domain(v) for v in lattice.points_up_to(i[a])]
                 + ([] if i[a] in lattice else [i[a]]) for a in scan]
        choice = random.Random(strategy.seed).choice
        source = (tuple([choice(p) for p in pools])
                  for _ in range(strategy.samples))
    else:
        source = candidates([[domain(v) for v in pool]
                             for pool in _exhaustive_pools(i, scan, lattice)], cap)
    mset = set(scan)
    moving = tuple(k for k, a in enumerate(sig) if a in mset)
    hit = first_witness(prog.reduct_checks(moving, cut), moving, at_i, cut,
                        source)
    if hit is None:
        return None
    return i.updated(dict(zip(scan, map(prog.value, hit))))


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
    """Full verdict: modelhood at the threshold, then witness search."""
    y = check_truth(threshold)
    if minimized is None:
        minimized = signature_of(f, extra=tuple(i))
    if not satisfies(f, i, y):
        return StabilityVerdict(
            "not_a_model", y, lattice.denominator, strategy,
            note="the interpretation does not reach the threshold")
    witness = find_witness(f, i, minimized, y, lattice, strategy, cap)
    if witness is not None:
        return StabilityVerdict(
            "unstable", y, lattice.denominator, strategy, witness=witness,
            note=_strategy_note(strategy, lattice, True))
    return StabilityVerdict(
        "stable", y, lattice.denominator, strategy,
        note=_strategy_note(strategy, lattice, False))


def _stable_points(
    prog: Program, moving: tuple[int, ...], cut, start: int, stop: int
) -> list[tuple[int, ...]]:
    """The lattice points with scan index in [start, stop), as digits, that
    reach `cut` and have no witness on the moving slots."""
    code, root, points = prog.code, prog.root, prog.points
    checks = prog.reduct_checks(moving, cut)
    n = len(prog.signature)
    vals = list(prog.slots)
    out = []
    grid = itertools.product(range(len(points)), repeat=n)
    for digits in itertools.islice(grid, start, stop):
        for k in range(n):
            vals[k] = points[digits[k]]
        run(code, vals)
        # No cap check here: a point has at most as many candidates as the
        # grid has points, and enumerate_stable has checked those against
        # its cap.
        if vals[root] >= cut and first_witness(
                checks, moving, vals, cut,
                itertools.product(*[points[:digits[k] + 1] for k in moving])) is None:
            out.append(digits)
    return out


def _enumerate_chunk(args: tuple) -> list[tuple[int, ...]]:
    """_stable_points in a worker process, which compiles its own program
    (the compiled connectives are closures and do not pickle)."""
    (f, sig, moving, threshold, lattice, start, stop) = args
    prog = compile_formula(f, sig, lattice)
    return _stable_points(prog, moving, prog.level(threshold), start, stop)


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
    compiled program."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    y = check_truth(threshold)
    sig = signature_of(f)
    if minimized is None:
        minimized = sig
    else:
        missing = set(minimized) - set(sig)
        if missing:
            raise SignatureError(
                f"minimized atoms outside the signature: {sorted(missing)}")
    total = lattice.size ** len(sig)
    if total > cap:
        raise ResourceLimitError(
            f"{total} interpretations exceed the cap of {cap}; "
            "raise the cap to scan anyway")
    prog = compile_formula(f, sig, lattice)
    mset = set(minimized)
    moving = tuple(k for k, a in enumerate(sig) if a in mset)
    if jobs <= 1 or total < 1024:
        found = _stable_points(prog, moving, prog.level(y), 0, total)
    else:
        # Imported here: most runs start no pool, and the module costs
        # every process about 20 ms of start-up and 2 MiB of memory.
        from concurrent.futures import ProcessPoolExecutor

        workers = min(jobs, os.cpu_count() or 1)  # never more than the cores
        size = -(-total // (workers * 4))
        chunks = [
            (f, sig, moving, y, lattice, lo, min(lo + size, total))
            for lo in range(0, total, size)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            found = [d for part in pool.map(_enumerate_chunk, chunks) for d in part]
    points = list(lattice.points())
    return [Interpretation(zip(sig, (points[k] for k in digits))) for digits in found]


# Shadow-atom route: an independent stability check ------------------


def shadow_names(signature: Sequence[str], minimized: Sequence[str]) -> dict[str, str]:
    """Fresh atom names for the minimized atoms, collision-free."""
    taken = set(signature)
    fresh: dict[str, str] = {}
    for a in minimized:
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
    for node in walk(f):
        if isinstance(node, StrongNeg):
            raise StrongNegationError(
                "strong negation has no shadow rewrite; eliminate it first")
    mset = set(minimized)
    for a in mset:
        if a not in fresh:
            raise ValueError(f"no fresh name for minimized atom {a!r}")
    renames = {a: fresh[a] for a in mset}
    clashes = set(renames.values()) & set(signature_of(f))
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
    if minimized is None:
        minimized = signature_of(f, extra=tuple(i))
    strategy = Exhaustive()
    if not satisfies(f, i, ONE):
        return StabilityVerdict(
            "not_a_model", ONE, lattice.denominator, strategy,
            note="the interpretation is not a model")
    sig, scan = _scan_order(f, i, minimized)
    if not scan:
        return StabilityVerdict(
            "stable", ONE, lattice.denominator, strategy,
            note=_strategy_note(strategy, lattice, False))
    fresh = shadow_names(sig, scan)
    star = star_transform(f, scan, fresh)
    pools = _exhaustive_pools(i, scan, lattice)
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
    sig = signature_of(f, extra=x.signature)
    if minimized is None:
        minimized = sig
    missing = set(minimized) - set(sig)
    if missing:
        raise SignatureError(f"minimized atoms outside the signature: {sorted(missing)}")
    # Atoms of sig outside x's signature can only come from the formula.
    for a in sig:
        if a not in x.signature:
            raise SignatureError(f"atom {a!r} is not interpreted")
    if not bool_satisfies(f, x):
        return BoolStabilityVerdict("not_a_model")
    reduct = classical_reduct(f, x)
    scan = [a for a in sig if a in set(minimized)]
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
        return Sampled(int(data["samples"]), int(data["seed"]))
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
