"""The sampled witness hunt against a reference written from its contract
alone: sample by sample, each minimized atom is drawn in signature order
as random.Random(seed).choice draws it from that atom's pool (the lattice
points up to I's value, plus I's value when it lies off the lattice); a
row equal to I is skipped; the first row whose J satisfies the reduct of
f by I to the threshold is the witness.  The reference evaluates
semantics.fuzzy_reduct with semantics.evaluate and uses nothing of the
compiled program."""
import random
from fractions import Fraction

from fuzzysm import (
    Interpretation,
    Lattice,
    Sampled,
    evaluate,
    find_witness,
    fuzzy_reduct,
    signature_of,
)
from fuzzysm.generators import ALL_OPERATORS, gen_formula, gen_interpretation

SIG3 = ("p", "q", "r")


def reference_hunt(f, i: Interpretation, minimized, y: Fraction, lattice: Lattice,
                   samples: int, seed: int):
    """The witness the contract names, and whether a row equal to I was
    skipped before it."""
    scan = [a for a in signature_of(f, extra=tuple(i)) if a in set(minimized)]
    pools = [lattice.points_up_to(i[a]) + ([] if i[a] in lattice else [i[a]])
             for a in scan]
    base = tuple(i[a] for a in scan)
    reduct = fuzzy_reduct(f, i)
    rng = random.Random(seed)
    skipped = False
    for _ in range(samples):
        row = tuple(rng.choice(pool) for pool in pools)
        if row == base:
            skipped = True
            continue
        j = i.updated(dict(zip(scan, row)))
        if evaluate(reduct, j) >= y:
            return j, skipped
    return None, skipped


def test_sampled_hunt_matches_the_reference():
    rng = random.Random(12)
    found = skipped_then_found = off_lattice_found = 0
    for case in range(500):
        d = rng.randint(1, 4)
        lattice = Lattice(d)
        pool = ALL_OPERATORS if case % 2 else None
        f = gen_formula(rng.randrange(2 ** 32), SIG3, max_depth=rng.randint(1, 4),
                        operator_pool=pool, lattice=lattice)
        # I from a finer lattice: partly off this one, which sends the
        # hunt to the Fraction domain and puts I's value in its own pool.
        i = gen_interpretation(rng.randrange(2 ** 32), SIG3,
                               Lattice(d * rng.randint(1, 3)))
        minimized = [a for a in SIG3 if rng.random() < 0.8]
        value = evaluate(f, i)
        below = [v for v in Lattice(2 * d).points() if Fraction(0) < v <= value]
        y = Fraction(1) if rng.random() < 0.5 or not below else rng.choice(below)
        samples, seed = rng.randint(1, 30), rng.randrange(2 ** 32)
        want, skipped = reference_hunt(f, i, minimized, y, lattice, samples, seed)
        got = find_witness(f, i, minimized, y, lattice, Sampled(samples, seed))
        assert got == want, (case, f, i, minimized, y, d, samples, seed)
        if want is not None:
            found += 1
            skipped_then_found += skipped
            off_lattice_found += any(i[a] not in lattice for a in minimized)
    # The inputs reach what the contract is about.
    assert found >= 100 and skipped_then_found >= 20 and off_lattice_found >= 20, \
        (found, skipped_then_found, off_lattice_found)
