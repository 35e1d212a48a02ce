"""Two-world interval semantics and equilibrium checking.

A valuation assigns to each atom, in each of the worlds 'here' (h) and
'there' (t), a closed subinterval of [0, 1], with the t-interval contained
in the h-interval.  Formulas evaluate to intervals through clauses that
thread the two worlds together; a model makes the h-lower bound of the
formula exactly 1.  An equilibrium model is a model that is minimal in
the h-ordering and gives both worlds the same interval on every atom.

This module is deliberately independent of the stable-model machinery in
stable.py: the two are developed from different definitions and used to
cross-validate each other in the test suite.  Only the shared formula AST
and operator registry are common ground.

The interval clauses are implemented exactly as stated; an empty interval
(lower above upper) from any clause is a hard error, not something to be
repaired.  For valuations that respect the containment invariant the
clauses never produce one.

Inside evaluation and the h-minimality scan an interval is a plain
(lower, upper) pair of Fractions, and a valuation a dict from each atom to
its (h, t) pairs.  Interval and Valuation objects, with their validation,
are built only at the public boundary: the valuations passed in, the
counters and models returned, and the intervals that n5_evaluate returns.
Candidates come from algebra.candidates, the capped product scan that
knows nothing of what a candidate means.

enumerate_equilibrium prunes its scan by the clauses: the h-lower bound
of a formula reads an atom's h-lower bound only through a plain
occurrence and its h-upper bound only through '~', so a valuation whose
unread endpoint is not widened to 0 or 1 has a strictly h-wider model
and is never h-minimal.  find_h_violation and is_equilibrium scan every
lattice interval, so their counters stay the first in full scan order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

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
    parse_truth,
    read_json,
)
from .syntax import Atom, Bin, Const, Formula, Neg, StrongNeg, signature_of, walk

WORLDS = ("h", "t")


@dataclass(frozen=True, slots=True)
class Interval:
    lower: Fraction
    upper: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", check_truth(self.lower))
        object.__setattr__(self, "upper", check_truth(self.upper))
        if self.lower > self.upper:
            raise ValueError(
                f"empty interval: lower {self.lower} above upper {self.upper}")

    def contains(self, other: "Interval") -> bool:
        return self.lower <= other.lower and other.upper <= self.upper

    def __str__(self) -> str:
        lo = format_truth(self.lower, decimal=True)
        hi = format_truth(self.upper, decimal=True)
        return f"[{lo},{hi}]"


class Valuation(Mapping[tuple[str, str], Interval]):
    """Immutable map (world, atom) -> Interval with t contained in h."""

    __slots__ = ("_data", "_atoms", "_hash")

    def __init__(self, intervals: Mapping[tuple[str, str], Interval]):
        data: dict[tuple[str, str], Interval] = {}
        order: dict[str, None] = {}
        for (world, atom), interval in intervals.items():
            if world not in WORLDS:
                raise ValueError(f"unknown world {world!r}; use 'h' or 't'")
            if not isinstance(interval, Interval):
                interval = Interval(*interval)
            data[(world, atom)] = interval
            order.setdefault(atom, None)
        for atom in order:
            if ("h", atom) not in data or ("t", atom) not in data:
                raise ValueError(f"atom {atom!r} needs intervals in both worlds")
            if not data[("h", atom)].contains(data[("t", atom)]):
                raise ValueError(
                    f"atom {atom!r}: the t-interval must lie inside the h-interval")
        self._data = data
        self._atoms = tuple(order)
        self._hash: int | None = None

    def __getitem__(self, key: tuple[str, str]) -> Interval:
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def atoms(self) -> tuple[str, ...]:
        return self._atoms

    def at(self, world: str, atom: str) -> Interval:
        try:
            return self._data[(world, atom)]
        except KeyError:
            raise KeyError(f"no interval for atom {atom!r} in world {world!r}") from None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Valuation):
            return self._data == other._data
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._data.items()))
        return self._hash

    def replaced(self, atom: str, world: str, interval: Interval) -> "Valuation":
        data = dict(self._data)
        data[(world, atom)] = interval
        return Valuation(data)

    def __repr__(self) -> str:
        return f"Valuation({format_valuation(self)!r})"


def _env(v: Valuation) -> dict:
    """v as the scans read it: atom -> ((h-lower, h-upper), (t-lower, t-upper))."""
    env = {}
    for a in v.atoms():
        h, t = v.at("h", a), v.at("t", a)
        env[a] = ((h.lower, h.upper), (t.lower, t.upper))
    return env


def _at(env: dict, name: str) -> tuple:
    try:
        return env[name]
    except KeyError:
        # A valuation holds both worlds of every atom it has, so the
        # h-world is the one found missing first.
        raise KeyError(f"no interval for atom {name!r} in world 'h'") from None


def _span(lower: Fraction, upper: Fraction) -> tuple[Fraction, Fraction]:
    if lower > upper:
        raise ValueError(f"empty interval: lower {lower} above upper {upper}")
    return lower, upper


def _pair(env: dict, f: Formula) -> tuple[tuple, tuple]:
    """The (lower, upper) pairs of f at (h, t)."""
    if isinstance(f, Atom):
        return _at(env, f.name)
    if isinstance(f, Const):
        point = (f.value, f.value)
        return point, point
    if isinstance(f, StrongNeg):
        (hl, hu), (tl, tu) = _at(env, f.name)
        return _span(1 - hu, 1 - hl), _span(1 - tu, 1 - tl)
    if isinstance(f, Neg):
        if f.op != "not_s":
            raise ValueError(
                "the two-world interval semantics is defined for the "
                "standard negator only")
        (bhl, _), (btl, _) = _pair(env, f.body)
        point = (1 - btl, 1 - btl)
        return _span(1 - btl, 1 - bhl), point
    assert isinstance(f, Bin)
    op = get_operator(f.op)
    (lhl, lhu), (ltl, ltu) = _pair(env, f.left)
    (rhl, rhu), (rtl, rtu) = _pair(env, f.right)
    fn = op.fn
    if op.family in (OpFamily.CONJUNCTION, OpFamily.DISJUNCTION):
        return (_span(fn(lhl, rhl), fn(lhu, rhu)),
                _span(fn(ltl, rtl), fn(ltu, rtu)))
    # implication
    t_lower = fn(ltl, rtl)
    return (_span(min(fn(lhl, rhl), t_lower), fn(lhl, rhu)),
            _span(t_lower, fn(ltl, rtu)))


def n5_evaluate(v: Valuation, world: str, f: Formula) -> Interval:
    if world not in WORLDS:
        raise ValueError(f"unknown world {world!r}; use 'h' or 't'")
    h, t = _pair(_env(v), f)
    return Interval(*(h if world == "h" else t))


def is_n5_model(v: Valuation, f: Formula) -> bool:
    """The h-lower bound of f reaches 1."""
    return _pair(_env(v), f)[0][0] == ONE


def preceq(candidate: Valuation, v: Valuation) -> bool:
    """candidate keeps every t-interval and widens (or keeps) h-intervals."""
    if candidate.atoms() != v.atoms():
        raise ValueError("valuations cover different signatures")
    for a in v.atoms():
        if candidate.at("t", a) != v.at("t", a):
            return False
        if not candidate.at("h", a).contains(v.at("h", a)):
            return False
    return True


def prec(candidate: Valuation, v: Valuation) -> bool:
    return preceq(candidate, v) and candidate != v


@dataclass(frozen=True)
class EquilibriumVerdict:
    status: str  # "not_a_model" | "not_h_minimal" | "worlds_differ" | "equilibrium"
    denominator: int
    counter: Valuation | None = None
    note: str = ""


def _check_on_lattice(v: Valuation, lattice: Lattice) -> None:
    for (world, atom), iv in v.items():
        for endpoint in (iv.lower, iv.upper):
            if endpoint not in lattice:
                raise ValueError(
                    f"endpoint {format_truth(endpoint)} of atom {atom!r} "
                    f"in world {world!r} is outside the 1/{lattice.denominator} "
                    "lattice")


def _h_violation(env: dict, f: Formula, lattice: Lattice, cap: int) -> tuple | None:
    """The h-pairs, in env's atom order, of the first strictly h-wider
    lattice valuation that is still a model; None when there is none.

    Per atom the candidates are the lattice intervals that contain the
    current h-interval, lower ascending then upper ascending: the lattice
    points up to its lower bound, each paired with those from its upper
    bound on.  Both runs are counted in integers and checked against the
    cap before any pair is built."""
    d = lattice.denominator
    # The points k/d up to x, and (by k -> d - k) those from x on.
    runs = [(lo.numerator * d // lo.denominator + 1,
             (hi.denominator - hi.numerator) * d // hi.denominator + 1)
            for (lo, hi), _ in env.values()]
    check_cap(math.prod(a * b for a, b in runs), cap)
    points = list(lattice.points())
    pools = [[(lo, hi) for lo in points[:a] for hi in points[d + 1 - b:]]
             for a, b in runs]
    scan = dict(env)
    for combo in candidates(pools, cap, skip=tuple(h for h, _ in env.values())):
        for (a, (_, t)), h in zip(env.items(), combo):
            scan[a] = (h, t)
        if _pair(scan, f)[0][0] == ONE:
            return combo
    return None


def find_h_violation(
    v: Valuation, f: Formula, lattice: Lattice, cap: int = DEFAULT_CANDIDATE_CAP
) -> Valuation | None:
    """First strictly h-wider lattice valuation that is still a model."""
    _check_on_lattice(v, lattice)
    hit = _h_violation(_env(v), f, lattice, cap)
    if hit is None:
        return None
    data = dict(v)
    for a, h in zip(v.atoms(), hit):
        data[("h", a)] = Interval(*h)
    return Valuation(data)


def is_equilibrium(
    v: Valuation, f: Formula, lattice: Lattice = Lattice(10), cap: int = DEFAULT_CANDIDATE_CAP
) -> EquilibriumVerdict:
    """Model, then h-minimality over the lattice, then world agreement."""
    d = lattice.denominator
    if not is_n5_model(v, f):
        return EquilibriumVerdict("not_a_model", d,
                                  note="the h-lower bound does not reach 1")
    counter = find_h_violation(v, f, lattice, cap)
    if counter is not None:
        return EquilibriumVerdict("not_h_minimal", d, counter=counter,
                                  note="a strictly h-wider model exists")
    for a in v.atoms():
        if v.at("h", a) != v.at("t", a):
            return EquilibriumVerdict(
                "worlds_differ", d,
                note=f"atom {a!r} has different h- and t-intervals")
    return EquilibriumVerdict("equilibrium", d,
                              note=f"exact over the 1/{d} lattice")


def enumerate_equilibrium(
    f: Formula,
    lattice: Lattice = Lattice(10),
    signature: Sequence[str] | None = None,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> list[Valuation]:
    """All equilibrium models over the lattice.

    Only world-agreeing valuations can qualify, so the scan runs over one
    interval per atom, shared by both worlds.  An atom named twice in
    `signature` is scanned once, at its first place.

    The h-lower bound of f reads an atom's h-lower bound only through a
    plain occurrence and its h-upper bound only through '~', so widening
    an endpoint f never reads to 0 or 1 keeps a model a model, and a
    candidate where that widening is strict is never h-minimal.  Each
    atom's pool therefore keeps lower bounds above 0 only if it occurs
    plain and upper bounds below 1 only if it occurs under '~', a
    subsequence of the full pool in its order, and `cap` bounds the
    product of these pools.
    """
    sig = tuple(dict.fromkeys(signature)) if signature is not None else signature_of(f)
    nodes = list(walk(f))
    plain = {x.name for x in nodes if isinstance(x, Atom)}
    negated = {x.name for x in nodes if isinstance(x, StrongNeg)}
    # Pool sizes, checked before any pool is built: the pairs lo <= hi of
    # the lattice's n points when both endpoints move, n when one does.
    n = lattice.size
    sizes = {(True, True): n * (n + 1) // 2, (True, False): n, (False, True): n,
             (False, False): 1}
    check_cap(math.prod(sizes[a in plain, a in negated] for a in sig), cap)
    points = list(lattice.points())
    pools = [[(lo, hi) for lo in (points if a in plain else points[:1])
              for hi in (points if a in negated else points[-1:]) if lo <= hi]
             for a in sig]
    out = []
    for combo in candidates(pools, cap):
        env = {a: (iv, iv) for a, iv in zip(sig, combo)}
        if _pair(env, f)[0][0] != ONE:
            continue
        if _h_violation(env, f, lattice, cap) is None:
            data = {}
            for a, (iv, _) in env.items():
                data[("h", a)] = data[("t", a)] = Interval(*iv)
            out.append(Valuation(data))
    return out


# Bridges to the point-valued world -----------------------------------


def valuation_of(i: Mapping[str, Fraction]) -> Valuation:
    """[i(a), 1] in both worlds."""
    data = {}
    for a, value in i.items():
        iv = Interval(check_truth(value), ONE)
        data[("h", a)] = iv
        data[("t", a)] = iv
    return Valuation(data)


def paired_valuation(
    j: Mapping[str, Fraction], i: Mapping[str, Fraction]
) -> Valuation:
    """h reads from j, t from i; needs j <= i pointwise."""
    if set(j) != set(i):
        raise ValueError("the two interpretations cover different atoms")
    data = {}
    for a in j:
        data[("h", a)] = Interval(check_truth(j[a]), ONE)
        data[("t", a)] = Interval(check_truth(i[a]), ONE)
    return Valuation(data)


def interpretation_of(v: Valuation) -> dict[str, Fraction]:
    """The h-lower bounds, atom by atom."""
    return {a: v.at("h", a).lower for a in v.atoms()}


def nneg_valuation(v: Valuation, complements: Mapping[str, str]) -> Valuation:
    """Valuation for the strong-negation-free signature: originals keep
    their lower bounds, complement atoms take the flipped upper bounds,
    all upper bounds become 1."""
    data = {}
    for a in v.atoms():
        na = complements[a]
        for world in WORLDS:
            iv = v.at(world, a)
            data[(world, a)] = Interval(iv.lower, ONE)
            data[(world, na)] = Interval(1 - iv.upper, ONE)
    return Valuation(data)


# Text and JSON forms --------------------------------------------------


def parse_valuation(text: str) -> Valuation:
    """Read 'h:p=[0.2,0.7]; t:p=[0.2,0.7]' or the JSON object form.  A
    world or an interval named twice is an error in both forms."""
    s = text.strip()
    if s.startswith("{"):
        return valuation_from_json(read_json(s))
    data: dict[tuple[str, str], Interval] = {}
    for chunk in s.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            world_part, rest = chunk.split(":", 1)
            name, interval_part = rest.split("=", 1)
            interval_part = interval_part.strip()
            if not (interval_part.startswith("[") and interval_part.endswith("]")):
                raise ValueError
            lo_text, hi_text = interval_part[1:-1].split(",")
        except ValueError:
            raise ValueError(
                f"expected 'world:atom=[lo,hi]', got {chunk!r}") from None
        key = (world_part.strip(), name.strip())
        if key in data:
            raise ValueError(f"duplicate interval for {key}")
        data[key] = Interval(parse_truth(lo_text), parse_truth(hi_text))
    return Valuation(data)


def format_valuation(v: Valuation, decimal: bool = True) -> str:
    parts = []
    for world in WORLDS:
        for a in v.atoms():
            iv = v.at(world, a)
            lo = format_truth(iv.lower, decimal=decimal)
            hi = format_truth(iv.upper, decimal=decimal)
            parts.append(f"{world}:{a}=[{lo},{hi}]")
    return "; ".join(parts)


def valuation_to_json(v: Valuation) -> dict:
    out: dict[str, dict[str, list[str]]] = {"h": {}, "t": {}}
    for world in WORLDS:
        for a in v.atoms():
            iv = v.at(world, a)
            out[world][a] = [format_truth(iv.lower), format_truth(iv.upper)]
    return out


def valuation_from_json(data: dict) -> Valuation:
    """Read {"h": {atom: [lo, hi], ...}, "t": {...}}, each degree a string,
    an int or a Fraction.  Any other shape is a ValueError that names the
    world and the atom."""
    intervals: dict[tuple[str, str], Interval] = {}
    for world, entries in data.items():
        if not isinstance(entries, dict):
            raise ValueError(f"world {world!r} must map to an object of intervals")
        for atom, bounds in entries.items():
            if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
                raise ValueError(f"atom {atom!r} in world {world!r} must map "
                                 "to a two-element list [lo, hi]")
            intervals[(world, atom)] = Interval(*bounds)
    return Valuation(intervals)


def equilibrium_verdict_to_json(verdict: EquilibriumVerdict) -> dict:
    return {
        "status": verdict.status,
        "denominator": verdict.denominator,
        "counter": None if verdict.counter is None else valuation_to_json(verdict.counter),
        "note": verdict.note,
    }
