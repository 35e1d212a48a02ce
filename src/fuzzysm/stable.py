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

check_stable and find_witness work on formulas and Fractions directly and
are the reference definitions.  enumerate_stable compiles the formula once
(see compiled.py) and scans every lattice point and its witness candidates
in the same orders on the compiled program: exact over integer numerators
on the lattice-closed fragment, and over Fractions elsewhere.
"""
from __future__ import annotations

import itertools
import math
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
    check_truth,
    format_truth,
    get_operator,
)
from .compiled import Program, compile_formula, run, run_reduct
from .semantics import (
    BoolInterpretation,
    Interpretation,
    SignatureError,
    StrongNegationError,
    bool_satisfies,
    check_boolean_shaped,
    classical_reduct,
    evaluate,
    fuzzy_reduct,
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
    atoms,
    conjoin,
    signature_of,
    walk,
)

DEFAULT_CANDIDATE_CAP = 10 ** 7


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


def _pool_size(jobs: int) -> int:
    """Worker processes for `jobs`: never more than the machine's cores."""
    return min(jobs, os.cpu_count() or 1)


def _process_pool(workers: int):
    # Imported on first use: most runs start no pool, and the module costs
    # every process about 20 ms of start-up and 2 MiB of memory.
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


@dataclass(frozen=True)
class Exhaustive:
    jobs: int = 1

    def __post_init__(self) -> None:
        _check_jobs(self.jobs)


@dataclass(frozen=True)
class Sampled:
    samples: int
    seed: int = 0


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


def _ordering_atoms(
    j: Mapping[str, Fraction], i: Mapping[str, Fraction], minimized: Sequence[str]
) -> tuple[set[str], set[str]]:
    ja, ia = set(j), set(i)
    if ja != ia:
        raise SignatureError("interpretations cover different signatures")
    mset = set(minimized)
    missing = mset - ia
    if missing:
        raise SignatureError(f"minimized atoms outside the signature: {sorted(missing)}")
    return ia, mset


def leq_p(
    j: Mapping[str, Fraction], i: Mapping[str, Fraction], minimized: Sequence[str]
) -> bool:
    """j agrees with i off the minimized atoms and is <= i on them."""
    sig, mset = _ordering_atoms(j, i, minimized)
    for a in sig:
        if a in mset:
            if j[a] > i[a]:
                return False
        elif j[a] != i[a]:
            return False
    return True


def lt_p(
    j: Mapping[str, Fraction], i: Mapping[str, Fraction], minimized: Sequence[str]
) -> bool:
    return leq_p(j, i, minimized) and dict(j) != dict(i)


def _scan_order(f: Formula, i: Mapping[str, Fraction], minimized: Sequence[str]) -> list[str]:
    """Minimized atoms in signature order: formula first-occurrence order,
    then any remaining interpreted atoms."""
    sig = signature_of(f, extra=tuple(i))
    mset = set(minimized)
    missing = mset - set(sig)
    if missing:
        raise SignatureError(f"minimized atoms outside the signature: {sorted(missing)}")
    for a in atoms(f):
        if a not in i:
            raise SignatureError(f"atom {a!r} is not interpreted")
    return [a for a in sig if a in mset]


def _conjunct_list(f: Formula) -> list[Formula]:
    """Split nested conjunctions (any t-norm: value 1 needs every part at 1)."""
    out: list[Formula] = []
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Bin) and node.op[0] == "&":
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    return out


def _reduct_holds(conjuncts: list[Formula], j: Mapping[str, Fraction],
                  reduct: Formula, threshold: Fraction) -> bool:
    if threshold == ONE:
        return all(value_is_one(c, j) for c in conjuncts)
    return evaluate(reduct, j) >= threshold


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


def _digits_of(index: int, sizes: Sequence[int]) -> list[int]:
    digits = []
    for k in range(len(sizes) - 1, -1, -1):
        index, d = divmod(index, sizes[k])
        digits.append(d)
    digits.reverse()
    return digits


def _scan_chunk(args: tuple) -> tuple[int, dict] | None:
    """Scan candidate indices [start, stop) for the first reduct witness."""
    (reduct, conjuncts, base, scan, pools, threshold, start, stop, i_items) = args
    j = dict(i_items)
    sizes = [len(p) for p in pools]
    digits = _digits_of(start, sizes)
    idx = start
    while idx < stop:
        values = tuple(pools[k][digits[k]] for k in range(len(pools)))
        if values != base:
            j.update(zip(scan, values))
            if _reduct_holds(conjuncts, j, reduct, threshold):
                return idx, dict(zip(scan, values))
        # odometer increment, last digit fastest
        idx += 1
        for k in range(len(pools) - 1, -1, -1):
            digits[k] += 1
            if digits[k] < sizes[k]:
                break
            digits[k] = 0
    return None


def _witness_search_exhaustive(
    reduct: Formula,
    i: Mapping[str, Fraction],
    scan: list[str],
    pools: list[list[Fraction]],
    threshold: Fraction,
    jobs: int,
    cap: int,
) -> dict | None:
    total = 1
    for p in pools:
        total *= len(p)
    if total > cap:
        raise ResourceLimitError(
            f"{total} candidate interpretations exceed the cap of {cap}; "
            "raise the cap or use a sampled strategy")
    conjuncts = _conjunct_list(reduct)
    base = tuple(i[a] for a in scan)
    if jobs <= 1 or total < 4096:
        hit = _scan_chunk(
            (reduct, conjuncts, base, scan, pools, threshold, 0, total, tuple(i.items())))
        return None if hit is None else hit[1]
    workers = _pool_size(jobs)
    chunk = -(-total // (workers * 4))
    tasks = [
        (reduct, conjuncts, base, scan, pools, threshold, lo, min(lo + chunk, total),
         tuple(i.items()))
        for lo in range(0, total, chunk)
    ]
    with _process_pool(workers) as pool:
        for hit in pool.map(_scan_chunk, tasks):
            if hit is not None:
                return hit[1]
    return None


def _witness_search_sampled(
    reduct: Formula,
    i: Mapping[str, Fraction],
    scan: list[str],
    lattice: Lattice,
    threshold: Fraction,
    samples: int,
    seed: int,
) -> dict | None:
    pools = []
    for a in scan:
        pool = lattice.points_up_to(i[a])
        if i[a] not in lattice:
            pool.append(i[a])  # keep J = I on that coordinate reachable
        pools.append(pool)
    conjuncts = _conjunct_list(reduct)
    base = tuple(i[a] for a in scan)
    rng = random.Random(seed)
    j = dict(i)
    for _ in range(samples):
        values = tuple(rng.choice(pool) for pool in pools)
        if values == base:
            continue
        j.update(zip(scan, values))
        if _reduct_holds(conjuncts, j, reduct, threshold):
            return dict(zip(scan, values))
    return None


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
    scan = _scan_order(f, i, minimized)
    # Nothing strictly below i exists when no atom is minimized.
    if not scan:
        return None
    # Reduct values never exceed the original formula's value, so a
    # sub-threshold formula cannot have a witness: skip the scan.
    if evaluate(f, i) < y:
        return None
    reduct = fuzzy_reduct(f, i)
    if isinstance(strategy, Sampled):
        hit = _witness_search_sampled(
            reduct, i, scan, lattice, y, strategy.samples, strategy.seed)
    else:
        pools = _exhaustive_pools(i, scan, lattice)
        hit = _witness_search_exhaustive(
            reduct, i, scan, pools, y, strategy.jobs, cap)
    if hit is None:
        return None
    return i.updated(hit)


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


def _has_witness(
    prog: Program,
    code: tuple,
    moving: Sequence[int],
    at_i: list,
    digits: Sequence[int],
    cut,
) -> bool:
    """find_witness on the compiled program: candidates J below the point
    on the moving slots, in find_witness's order, tested against the
    reduct by the point (code is prog.reduct_code(moving))."""
    bounds = [digits[k] for k in moving]
    total = math.prod(b + 1 for b in bounds)
    if total > DEFAULT_CANDIDATE_CAP:
        raise ResourceLimitError(
            f"{total} candidate interpretations exceed the cap of "
            f"{DEFAULT_CANDIDATE_CAP}; raise the cap or use a sampled strategy")
    points, root = prog.points, prog.root
    work = list(at_i)
    cand = [0] * len(bounds)
    last = len(bounds) - 1
    while True:
        if cand != bounds:
            for k, c in zip(moving, cand):
                work[k] = points[c]
            run_reduct(code, work, at_i)
            if work[root] >= cut:
                return True
        # odometer increment, last digit fastest
        t = last
        while t >= 0 and cand[t] == bounds[t]:
            cand[t] = 0
            t -= 1
        if t < 0:
            return False
        cand[t] += 1


def _stable_points(
    prog: Program, moving: tuple[int, ...], cut, start: int, stop: int
) -> list[tuple[int, ...]]:
    """The lattice points with scan index in [start, stop), as digits, that
    reach `cut` and have no witness on the moving slots."""
    code, root, points = prog.code, prog.root, prog.points
    reduct = prog.reduct_code(moving)
    n, size = len(prog.signature), len(points)
    digits = _digits_of(start, [size] * n)
    vals = list(prog.slots)
    out = []
    for _ in range(start, stop):
        for k in range(n):
            vals[k] = points[digits[k]]
        run(code, vals)
        if vals[root] >= cut and not (
                moving and _has_witness(prog, reduct, moving, vals, digits, cut)):
            out.append(tuple(digits))
        for k in range(n - 1, -1, -1):
            digits[k] += 1
            if digits[k] < size:
                break
            digits[k] = 0
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
    _check_jobs(jobs)
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
        workers = _pool_size(jobs)
        size = -(-total // (workers * 4))
        chunks = [
            (f, sig, moving, y, lattice, lo, min(lo + size, total))
            for lo in range(0, total, size)
        ]
        with _process_pool(workers) as pool:
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

    def build(node: Formula) -> Formula:
        if isinstance(node, Atom):
            return Atom(renames[node.name]) if node.name in renames else node
        if isinstance(node, (Const, Neg)):
            return node
        if isinstance(node, StrongNeg):
            raise StrongNegationError(
                "strong negation has no shadow rewrite; eliminate it first")
        assert isinstance(node, Bin)
        rebuilt = Bin(node.op, build(node.left), build(node.right))
        if get_operator(node.op).family is OpFamily.IMPLICATION:
            return Bin("&m", rebuilt, node)
        return rebuilt

    return build(f)


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
    scan = _scan_order(f, i, minimized)
    if not scan:
        return StabilityVerdict(
            "stable", ONE, lattice.denominator, strategy,
            note=_strategy_note(strategy, lattice, False))
    fresh = shadow_names(signature_of(f, extra=tuple(i)), scan)
    star = star_transform(f, scan, fresh)
    pools = _exhaustive_pools(i, scan, lattice)
    total = 1
    for p in pools:
        total *= len(p)
    if total > cap:
        raise ResourceLimitError(
            f"{total} candidate interpretations exceed the cap of {cap}")
    conjuncts = _conjunct_list(star)
    base = tuple(i[a] for a in scan)
    merged = dict(i)
    for combo in itertools.product(*pools):
        if combo == base:
            continue
        for a, v in zip(scan, combo):
            merged[fresh[a]] = v
        if all(value_is_one(c, merged) for c in conjuncts):
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
    for a in atoms(f):
        if a not in x.signature:
            raise SignatureError(f"atom {a!r} is not interpreted")
    if not bool_satisfies(f, x):
        return BoolStabilityVerdict("not_a_model")
    reduct = classical_reduct(f, x)
    scan = [a for a in sig if a in set(minimized)]
    pools = [[False, True] if a in x.true_atoms else [False] for a in scan]
    base = tuple(a in x.true_atoms for a in scan)
    for combo in itertools.product(*pools):
        if combo == base:
            continue
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
    base = tuple(i[a] for a in sig)
    j = dict(i)
    for combo in itertools.product(*pools):
        if combo == base:
            continue
        j.update(zip(sig, combo))
        if all(value_is_one(r, j) for r in reduct):
            return False
    return True


def fasp_answer_sets(rules: Sequence[Rule], lattice: Lattice) -> list[Interpretation]:
    sig = program_signature(rules)
    out = []
    for combo in itertools.product(list(lattice.points()), repeat=len(sig)):
        i = Interpretation(zip(sig, combo))
        if fasp_answer_set_check(rules, i, lattice):
            out.append(i)
    return out


# Verdict serialization ------------------------------------------------


def strategy_to_json(strategy: Strategy) -> dict:
    if isinstance(strategy, Sampled):
        return {"kind": "sampled", "samples": strategy.samples, "seed": strategy.seed}
    return {"kind": "exhaustive", "jobs": strategy.jobs}


def strategy_from_json(data: dict) -> Strategy:
    if data["kind"] == "sampled":
        return Sampled(int(data["samples"]), int(data["seed"]))
    if data["kind"] == "exhaustive":
        return Exhaustive(int(data.get("jobs", 1)))
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
