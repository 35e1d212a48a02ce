"""The benchmark workloads: their inputs, operations and references.

Each workload builds, from the run seed, the list of operations one pass
runs.  An operation is one closed-loop request: `run` performs the calls
into the package and returns their output, `check` compares that output
with a reference that did not come from the same call.

Inputs are fixed pools (`expected.json`, written by `make_expected.py`)
or are built by construction (`large`).  The seed orders every pass and
draws the perturbations and sampling seeds of `large`.  Every pass runs a
workload's whole pool, so the operation mix, and with it every median
and percentile, is the same for every seed.

Library calls go through module attributes (`stable.check_stable`, not
a name bound at import) so that the traced run sees them.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = "src/fuzzysm/corpus/"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("enumerate", "large", "equilibrium")

# enumerate: (kind, pool size, denominator, threshold); half of a pass at
# threshold 1 on D=8, a quarter at threshold 3/4, a quarter programs on D=6.
ENUMERATE_KINDS = (("t1", 12, 8, "1"), ("t34", 6, 8, "3/4"), ("prog", 6, 6, "1"))
ENUMERATE_SIGNATURE = ("p", "q", "r")

# equilibrium: pool size; half with strong negation, half without.
EQUILIBRIUM_POOL = 12
EQUILIBRIUM_SIGNATURE = ("p", "q")
EQUILIBRIUM_DENOMINATOR = 4

# large: inputs, their size, and the sampled hunt.  A hunt draws about
# SAMPLE_BUDGET atom values, so the sample count shrinks as the
# signature grows and no single input dominates a pass.
LARGE_INPUTS = ("trust_luk", "trust_product", "chain300", "chain2000")
LARGE_DENOMINATOR = 10
SAMPLE_BUDGET = 40_000
PERTURBATIONS = 2
CHAIN_CONJ = "&m"

# cli: a fixed mix, two requests per subcommand, on corpus files, run in
# process through main(argv) by the traced run.
CLI_REQUESTS = (
    ("parse", ["parse", CORPUS + "inertia_override.fz"]),
    ("parse", ["parse", "--json", CORPUS + "trust_product.fz"]),
    ("check", ["check", "--json", CORPUS + "negation_loop.fz",
               "--interp", "p=1, q=1", "--denominator", "4"]),
    ("check", ["check", "--json", CORPUS + "trust_product.fz",
               "--interp", "@" + CORPUS + "trust_product_model.json",
               "--strategy", "sampled:200"]),
    ("enumerate", ["enumerate", CORPUS + "negation_loop.fz", "--denominator", "6"]),
    ("enumerate", ["enumerate", "--json", CORPUS + "choice_loop.fz",
                   "--denominator", "4"]),
    ("equilibrium", ["equilibrium", CORPUS + "complementary_pair.fz",
                     "--enumerate", "--denominator", "4"]),
    ("equilibrium", ["equilibrium", "--json", CORPUS + "negation_loop.fz",
                     "--enumerate", "--denominator", "4"]),
    ("translate", ["translate", "fasp", "bench/programs/defaults.lp", "--conj", "&m"]),
    ("translate", ["translate", "fasp", "bench/programs/defaults.lp",
                   "--conj", "&l", "--join", "&m", "--json"]),
)


@dataclass
class Op:
    name: str
    run: Callable[[Any], Any]  # takes the tracer, returns the output
    check: Callable[[Any], bool]
    # The exception type this operation may raise today.  The 2000-rule
    # chain is past the recursion limit: a RecursionError there counts as
    # a failed operation but not as a wrong answer; any other exception
    # does.
    may_raise: type[BaseException] | None = None


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


# enumerate ------------------------------------------------------------


def build_enumerate(seed: int, expected: dict) -> list[Op]:
    from fuzzysm import Lattice, format_truth, parse_formula, parse_truth, stable

    ops = []
    for e in expected["enumerate"]:
        f = parse_formula(e["formula"])
        lattice = Lattice(e["denominator"])
        y = parse_truth(e["threshold"])
        want = e["models"]

        def run(tr, f=f, y=y, lattice=lattice):
            return stable.enumerate_stable(f, threshold=y, lattice=lattice)

        def check(models, want=want):
            return [[format_truth(v) for v in m.values()] for m in models] == want

        ops.append(Op(f"enumerate/{e['kind']}/{e['id']}", run, check))
    return ops


# large ------------------------------------------------------------------


def chain_program(n: int) -> str:
    return "p0.\n" + "".join(f"p{k + 1} <- p{k}, not q{k}.\n" for k in range(n))


def chain_model(n: int) -> dict[str, Fraction]:
    """The answer set, by construction: every p at 1, every q at 0."""
    model = {f"p{k}": Fraction(1) for k in range(n + 1)}
    model.update({f"q{k}": Fraction(0) for k in range(n)})
    return model


def perturb_chain(n: int, model: dict, rng: random.Random, points: list) -> dict:
    """Lower one p below 1: the rule deriving it (or the fact p0) fails,
    so the result is not a model."""
    k = rng.randint(0, n)
    out = dict(model)
    out[f"p{k}"] = rng.choice([v for v in points if v < 1])
    return out


def perturb_trust(model: dict, rng: random.Random, points: list) -> dict:
    """Raise trust or distrust on one ordered pair and step.  The world
    rules T2/T3 force the two to sum to exactly 1, so the raised sum
    breaks T2 and the result is not a model."""
    keys = sorted(k for k in model if k.startswith("trust_")
                  and k.split("_")[1] != k.split("_")[2])
    trust = rng.choice(keys)
    distrust = "dis" + trust
    if model[trust] + model[distrust] != 1:
        raise ValueError(f"{trust} and {distrust} do not sum to 1 in the pinned model")
    target = trust if model[trust] < 1 else distrust
    out = dict(model)
    out[target] = rng.choice([v for v in points if v > model[target]])
    return out


def build_large(seed: int, expected: dict) -> list[Op]:
    from fuzzysm import (Interpretation, Lattice, Sampled, parse_interpretation,
                         stable, syntax)

    rng = random.Random(f"large:{seed}")
    lattice = Lattice(LARGE_DENOMINATOR)
    points = list(lattice.points())
    ops = []
    for name in LARGE_INPUTS:
        if name.startswith("chain"):
            n = int(name[len("chain"):])
            text = chain_program(n)
            model = chain_model(n)
            perturbed = [perturb_chain(n, model, rng, points) for _ in range(PERTURBATIONS)]

            def parse(text=text):
                rules = syntax.parse_fasp_program(text, CHAIN_CONJ)
                return syntax.program_to_formula(rules, CHAIN_CONJ)
        else:
            text = (ROOT / CORPUS / f"{name}.fz").read_text(encoding="utf-8")
            model = dict(parse_interpretation(
                (ROOT / CORPUS / f"{name}_model.json").read_text(encoding="utf-8")))
            perturbed = [perturb_trust(model, rng, points) for _ in range(PERTURBATIONS)]

            def parse(text=text):
                return syntax.parse_formula(text)

        samples = max(1, SAMPLE_BUDGET // len(model))
        cases = [(Interpretation(model), "stable")]
        cases += [(Interpretation(p), "not_a_model") for p in perturbed]
        strategy = Sampled(samples, rng.randrange(2 ** 32))

        def run(tr, parse=parse, cases=cases, strategy=strategy):
            f = parse()
            return [stable.check_stable(f, i, lattice=lattice, strategy=strategy)
                    for i, _ in cases]

        def check(verdicts, cases=cases):
            return [v.status for v in verdicts] == [want for _, want in cases] \
                and all(v.witness is None for v in verdicts)

        ops.append(Op(f"large/{name}", run, check, 
                      may_raise=RecursionError if name == "chain2000" else None))
    return ops


# equilibrium --------------------------------------------------------------


def build_equilibrium(seed: int, expected: dict) -> list[Op]:
    return [equilibrium_op(e) for e in expected["equilibrium"]]


def equilibrium_op(e: dict) -> Op:
    """enumerate_equilibrium and enumerate_stable (after nneg when '~' is
    present) must give the same set under the canonical interval
    embedding; the two engines share no semantics, so the comparison is
    the reference."""
    from fuzzysm import (Interval, Lattice, Valuation, atoms, equilibrium,
                         parse_formula, stable, transforms)

    f = parse_formula(e["formula"])
    lattice = Lattice(EQUILIBRIUM_DENOMINATOR)
    present = atoms(f)
    strongneg = e["strongneg"]

    def run(tr):
        eq = equilibrium.enumerate_equilibrium(f, lattice)
        r = transforms.nneg(f) if strongneg else None
        with tr.span("equilibrium.stable_side"):
            models = stable.enumerate_stable(r.formula if r else f, lattice=lattice)
        return eq, models, r

    def check(out):
        eq, models, r = out
        mapped = set()
        for i in models:
            data = {}
            for a in present:
                upper = 1 - i[r.complements[a]] if r else Fraction(1)
                data[("h", a)] = data[("t", a)] = Interval(i[a], upper)
            mapped.add(Valuation(data))
        return len(eq) == len(set(eq)) and mapped == set(eq)

    return Op(f"equilibrium/{'sn' if strongneg else 'plain'}/{e['id']}", run, check)


# cli ------------------------------------------------------------------------


def cli_main_ops(expected: dict) -> list[Op]:
    """The cli mix run in process through fuzzysm.cli.main (traced run)."""
    import contextlib
    import io

    from fuzzysm import cli

    ops = []
    for k, (sub, argv) in enumerate(CLI_REQUESTS):
        ref = expected["cli"][k]
        if ref["argv"] != argv:
            raise ValueError(f"expected.json is stale for cli request {k}; "
                             "regenerate it with bench/make_expected.py")

        def run(tr, argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
            return code, buf.getvalue()

        def check(out, ref=ref):
            return out == (ref["exit"], ref["stdout"])

        ops.append(Op(f"cli.main/{sub}/{k}", run, check))
    return ops


OP_LISTS = {
    "enumerate": build_enumerate,
    "large": build_large,
    "equilibrium": build_equilibrium,
}


def build(workload: str, seed: int) -> list[Op]:
    return OP_LISTS[workload](seed, load_expected())


def probe_ops(workload: str, expected: dict) -> list[Op]:
    """Operations appended to every pass of a traced run, so that each
    layer is reached on every workload: the cheapest input of each other
    workload, and the cli mix run in process."""
    ops = []
    if workload != "enumerate":
        cheapest = min(expected["enumerate"], key=lambda e: e["cost_s"])
        ops += build_enumerate(0, {"enumerate": [cheapest]})
    if workload != "large":
        ops += [op for op in build_large(0, expected) if op.name == "large/trust_product"]
    if workload != "equilibrium":
        cheapest = min((e for e in expected["equilibrium"] if e["strongneg"]),
                       key=lambda e: e["cost_s"])
        ops.append(equilibrium_op(cheapest))
    return ops + cli_main_ops(expected)
