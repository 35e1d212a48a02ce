"""The reference witness search the kernel tests compare against: the
stable-model definition tested with semantics.evaluate on fuzzy_reduct
alone, sharing nothing with the compiled program."""
import random

from fuzzysm import Exhaustive, Sampled, evaluate, fuzzy_reduct, signature_of
from fuzzysm.algebra import candidates


def reference_witness(f, i, minimized, y, lattice, strategy=Exhaustive()):
    """The first J below i on the minimized atoms, I left out, whose value
    in the reduct of f by I reaches y: in algebra.candidates order (atoms
    in signature order, earlier ones varying more slowly), or for a
    Sampled strategy in its seeded draw order (i on the lattice)."""
    mset = set(minimized)
    scan = [a for a in signature_of(f, extra=tuple(i)) if a in mset]
    reduct = fuzzy_reduct(f, i)
    pools = [lattice.points_up_to(i[a]) for a in scan]
    skip = tuple(i[a] for a in scan)
    if isinstance(strategy, Sampled):
        rng = random.Random(strategy.seed)
        rows = (tuple(rng.choice(p) for p in pools) for _ in range(strategy.samples))
        rows = (row for row in rows if row != skip)
    else:
        rows = candidates(pools, 10 ** 7, skip=skip)
    for combo in rows:
        j = i.updated(dict(zip(scan, combo)))
        if evaluate(reduct, j) >= y:
            return j
    return None
