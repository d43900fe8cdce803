"""Work done inside one benchmark child process.

    python3 perfbench/child.py MODE 'JSON PAYLOAD' [TRACE_PATH]

run.py starts every child with the checkout's src/ on PYTHONPATH. Modes:

setup     import the package and build each instance up to its first
          check: split, then structure_tensors.
verify    `drinfeld-forge ARGV` through drinfeld_forge.cli.main, with each
          layer function the CLI calls wrapped in a span.
controls  seeded single-coefficient mutations of one instance, each run
          through its designated verifier; prints one verdict per mutation.
digests   sha256 of every build/export output of the given instances and
          of the rendered discrepancy report.
scalars   add/mul throughput on operands harvested from structure tensors.

With TRACE_PATH the spans of the run are written there when it ends.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import statistics
import sys
import time
from fractions import Fraction

from spans import NullTracer, Tracer

EXPORTS = ("build", "brackets", "delta", "rmatrix", "pairing")


def _timed(tr, stem, thunk):
    """Run one verifier inside a span and attach its work counts."""
    with tr.span(stem) as counts:
        report = thunk()
    _count(counts, report)
    return report


def _count(counts, result):
    """Work counts of a verifier's report or a representation's size."""
    if hasattr(result, "checked"):
        counts["checked"] = result.checked
        counts["violations"] = (len(result.violations)
                                + result.details.get("violations_truncated", 0))
    elif hasattr(result, "space_dim"):
        counts["space_dim"] = result.space_dim
        counts["matrix_bytes"] = _rep_bytes(result)


def _held_bytes(obj, seen) -> int:
    """Bytes of obj and of everything it references, each object once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, dict):
        parts = itertools.chain(obj.keys(), obj.values())
    elif isinstance(obj, tuple):
        parts = obj
    else:
        parts = (getattr(obj, slot) for cls in type(obj).__mro__
                 for slot in getattr(cls, "__slots__", ()))
    return sys.getsizeof(obj) + sum(_held_bytes(part, seen) for part in parts)


def _rep_bytes(rep) -> int:
    """Bytes of the rep's matrices: the array buffers of a float rep, the
    entry dicts with their keys, Scalars and Fractions of an exact one."""
    seen = set()
    return sum(mat.nbytes if hasattr(mat, "nbytes")
               else _held_bytes(mat.entries, seen)
               for mat in rep.matrices.values())


# Metric stem of every layer function `drinfeld_forge.cli` imports and the
# verify subcommand calls; the traced run wraps each one in a span.
CLI_STEMS = {
    "verify_jacobi": "algebra.verify_jacobi",
    "verify_closure": "double.verify_closure",
    "verify_pairing": "double.verify_pairing",
    "verify_reconstruction": "double.verify_reconstruction",
    "verify_compatibility": "double.verify_compatibility",
    "verify_self_duality": "double.verify_self_duality",
    "verify_form_invariance": "double.verify_form_invariance",
    "verify_casimir_form": "double.verify_casimir_form",
    "verify_delta_agreement": "bialgebra.verify_delta_agreement",
    "cocommutator_from_structure": "bialgebra.cocommutator_from_structure",
    "verify_cocycle": "bialgebra.verify_cocycle",
    "verify_cojacobi": "bialgebra.verify_cojacobi",
    "verify_subbialgebra": "bialgebra.verify_subbialgebra",
    "verify_coboundary": "bialgebra.verify_coboundary",
    "verify_cybe": "bialgebra.verify_cybe",
    "verify_twist": "bialgebra.verify_twist",
    "verify_chain_embedding": "bialgebra.verify_chain_embedding",
    "fermionic_rep": "reps.fermionic_rep",
    "bosonic_rep": "reps.bosonic_rep",
    "verify_rep_homomorphism": "reps.verify_rep_homomorphism",
    "verify_casimir_commutes": "reps.verify_casimir_commutes",
    "ad_invariance_report": "reps.ad_invariance_report",
    "dumps_canonical": "serialize.dumps_canonical",
}


def _spanned(tr, stem, function):
    def wrapper(*args, **kwargs):
        name = stem
        if stem == "reps.verify_rep_homomorphism":
            name += "." + args[1].kind
        with tr.span(name) as counts:
            result = function(*args, **kwargs)
        _count(counts, result)
        return result
    return wrapper


def _import(tr):
    with tr.span("cli.import"):
        import drinfeld_forge as df
        import drinfeld_forge.cli  # noqa: F401  (the entry point's imports)
    return df


def _build(df, series, rank, spec, tr):
    with tr.span("algebra.build_series"):
        df.build_series(series, rank)
    with tr.span("double.split"):
        return df.split(series, rank, spec)


def run_setup(payload, tr):
    df = _import(tr)
    for series, rank, spec in payload["instances"]:
        triple = _build(df, series, rank, spec, tr)
        with tr.span("double.structure_tensors"):
            df.structure_tensors(triple)
    return {"built": len(payload["instances"])}


def run_verify(payload, tr):
    """`drinfeld-forge ARGV` with a span around every layer call it makes.

    The wrappers are set over the names in the drinfeld_forge.cli
    namespace, so the CLI's own code runs and prints its own bytes. The
    split wrapper also builds the structure tensors when the checks read
    them (the CLI builds them inside the first such check; both are cached),
    so that their span stands apart from any verifier's.
    """
    df = _import(tr)
    from drinfeld_forge import cli
    for name, stem in CLI_STEMS.items():
        setattr(cli, name, _spanned(tr, stem, getattr(cli, name)))

    def split(series, rank, spec):
        triple = _build(df, series, rank, spec, tr)
        if payload["structure_tensors"]:
            with tr.span("double.structure_tensors"):
                df.structure_tensors(triple)
        return triple

    cli.split = split
    return cli.main(payload["argv"])


# -- controls: seeded single-coefficient mutations ------------------------

def _roots(alg):
    return [g for g in alg.basis if g.kind not in ("H", "I")]


def _cartans(alg):
    return [g for g in alg.basis if g.kind == "H"]


def mutation_positions(df, triple):
    """Every candidate position of each mutation family, in basis order."""
    alg = triple.double
    plus_roots = df.positive_roots(alg.series, alg.rank)
    doubled_term = [(p, q, t)
                    for p, q in itertools.combinations(_roots(alg), 2)
                    for t, _ in alg.bracket_gens(p, q).sorted_terms(alg.index)]
    root_pairs = [(a, b) for a, b in itertools.combinations(plus_roots, 2)
                  if alg.bracket_gens(a, b)]
    weights = [(h, e) for h in _cartans(alg) for e in plus_roots
               if alg.bracket_gens(h, e)]
    escapes = [(h, e) for h in _cartans(alg) for e in plus_roots]
    pairing = [(triple.sminus[i], triple.splus[j])
               for i, j in itertools.permutations(range(triple.half_dim), 2)]
    chain = []
    if alg.rank > (2 if alg.series == "D" else 1):
        small = df.build_series(alg.series, alg.rank - 1)
        image = [df.shift_generator(g, 1) for g in _roots(small)]
        chain = [(a, b) for a, b in itertools.combinations(image, 2)
                 if alg.bracket_gens(a, b)]
    return {"doubled_term": doubled_term, "root_pairs": root_pairs,
            "weights": weights, "escapes": escapes, "pairing": pairing,
            "chain": chain}


RESCALE_FACTORS = ("2", "3", "5", "1/2", "2/3", "-1", "sqrt2", "i")


def _factor(df, text):
    return {"sqrt2": df.SQRT2, "i": df.I}.get(text) or df.Scalar(Fraction(text))


def mutations(df, triple, seed):
    """(check, stem, position labels, thunk) for each designated verifier.

    Every family here was checked exhaustively on the controls instances:
    each of its positions fails the designated verifier. twist only acts
    on the A series, where the Cartan part is twisted rather than zeroed.
    """
    alg = triple.double
    rng = random.Random(f"{seed}:{alg.series}{alg.rank}")
    pos = mutation_positions(df, triple)
    one = df.Scalar(1)

    def doubled(p, q, t=None):
        value = alg.bracket_gens(p, q)
        if t is None:
            return df.mutate_bracket(alg, p, q, value.scale(df.Scalar(2)))
        value = value.copy()
        value.add_term(t, value.coeff(t))
        return df.mutate_bracket(alg, p, q, value)

    def over(mutated):
        return df.with_double(triple, mutated)

    out = []

    def add(check, stem, family, make):
        position = rng.choice(pos[family]) if family else rng.choice(RESCALE_FACTORS)
        labels = [g.label for g in position] if family else [position]
        out.append((check, stem, labels, lambda: make(position)))

    add("jacobi", "algebra.verify_jacobi", "doubled_term",
        lambda x: df.verify_jacobi(doubled(*x)))
    add("cybe", "bialgebra.verify_cybe", "doubled_term",
        lambda x: df.verify_cybe(over(doubled(*x))))
    add("closure", "double.verify_closure", "escapes",
        lambda x: df.verify_closure(over(df.mutate_bracket(
            alg, x[0], x[1], df.Element.gen(df.mirror(x[1]))))))
    add("compatibility", "double.verify_compatibility", "root_pairs",
        lambda x: df.verify_compatibility(over(doubled(*x)), jobs=1))

    def cocycle(x):
        mutated = doubled(*x)
        table = df.cocommutator_from_structure(over(mutated))
        return df.verify_cocycle(mutated, table)

    add("cocycle", "bialgebra.verify_cocycle", "root_pairs", cocycle)
    add("delta-agree", "bialgebra.verify_delta_agreement", "weights",
        lambda x: df.verify_delta_agreement(over(doubled(*x))))
    if alg.series == "A":
        add("twist", "bialgebra.verify_twist", "weights",
            lambda x: df.verify_twist(over(doubled(*x))))
    for check, stem in (("pairing", "double.verify_pairing"),
                        ("reconstruction", "double.verify_reconstruction"),
                        ("forminv", "double.verify_form_invariance"),
                        ("casimir-form", "double.verify_casimir_form")):
        verifier = getattr(df, stem.split(".")[1])
        add(check, stem, "pairing",
            lambda x, verifier=verifier: verifier(
                df.perturb_pairing(triple, x[0], x[1], one)))
    add("selfdual", "double.verify_self_duality", None,
        lambda x: df.verify_self_duality(
            df.rescale_minus(triple, _factor(df, x))))
    if pos["chain"]:
        add("chain", "bialgebra.verify_chain_embedding", "chain",
            lambda x: df.verify_chain_embedding(
                alg.series, alg.rank - 1, big_double=doubled(*x)))
    return out


def run_controls(payload, tr):
    df = _import(tr)
    from drinfeld_forge.serialize import dumps_canonical
    series, rank = payload["series"], payload["rank"]
    triple = _build(df, series, rank, "canonical", tr)
    with tr.span("double.structure_tensors"):
        df.structure_tensors(triple)
    verdicts = []
    for check, stem, labels, thunk in mutations(df, triple, payload["seed"]):
        report = _timed(tr, stem, thunk)
        if not report.passed:
            with tr.span("serialize.dumps_canonical"):
                dumps_canonical(report.to_dict())
        verdicts.append({"check": check, "position": labels,
                         "caught": not report.passed,
                         "violations": len(report.violations)})
    return {"series": series, "rank": rank, "verdicts": verdicts}


# -- correctness digests ---------------------------------------------------

def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(payload, tr):
    df = _import(tr)
    from drinfeld_forge.cli import main
    digests, codes = {}, {}
    target = os.path.join(payload["outdir"], "export.out")
    for series, rank in payload["instances"]:
        for what in EXPORTS:
            argv = ["build"] if what == "build" else ["export", "--what", what]
            argv += ["--series", series, "--rank", str(rank), "--out", target]
            key = f"{series}{rank}/{what}"
            codes[key] = main(argv)
            with open(target, "rb") as handle:
                digests[key] = _sha256(handle.read())
    report = df.discrepancy_report_markdown() + "\n"
    digests["DISCREPANCIES.md"] = _sha256(report.encode("utf-8"))
    with open(payload["discrepancies"], "rb") as handle:
        on_disk = handle.read().decode("utf-8")
    return {"digests": digests, "codes": codes,
            "discrepancies_match_file": report == on_disk}


# -- scalar microbenchmark -------------------------------------------------

def harvest_operands(df, instances):
    """Sorted pool of the distinct nonzero entries of the instances'
    structure tensors, under the canonical splitting and one mixed one,
    with their pairwise products and sums: the values a verifier's
    accumulators hold."""
    base = {}
    for series, rank in instances:
        for spec in ("canonical", "mixed:pairs=1-2"):
            for tensor in df.structure_tensors(df.split(series, rank, spec)):
                for vec in tensor.values():
                    for value in vec.values():
                        base[tuple(value.to_strings())] = value
    seen = dict(base)
    for a, b in itertools.product(list(base.values()), repeat=2):
        for value in (a * b, a + b):
            if value:
                seen[tuple(value.to_strings())] = value
    return [seen[key] for key in sorted(seen)]


def _monomials(quad):
    a, b, c, d = quad
    return {(0, 0): a, (1, 0): b, (0, 1): c, (1, 1): d}


def oracle_mul(x, y):
    """Product in Q(i, sqrt2) by expanding monomials i^p sqrt2^q and
    reducing i^2 = -1, sqrt2^2 = 2; independent of Scalar.__mul__."""
    out = {(0, 0): Fraction(0), (1, 0): Fraction(0),
           (0, 1): Fraction(0), (1, 1): Fraction(0)}
    for (p1, q1), u in _monomials(x).items():
        for (p2, q2), v in _monomials(y).items():
            p, q = p1 + p2, q1 + q2
            coeff = u * v * (-1) ** (p // 2) * 2 ** (q // 2)
            out[(p % 2, q % 2)] += coeff
    return (out[(0, 0)], out[(1, 0)], out[(0, 1)], out[(1, 1)])


def oracle_add(x, y):
    return tuple(u + v for u, v in zip(x, y))


def _quad(value):
    return tuple(Fraction(s) for s in value.to_strings())


def canary_digest(pool) -> str:
    """sha256 over every product and sum of the sorted operand pool."""
    lines = [f"{a} * {b} = {a * b}; {a} + {b} = {a + b}"
             for a in pool for b in pool]
    return _sha256("\n".join(lines).encode("ascii"))


def run_scalars(payload, tr):
    df = _import(tr)
    pool = harvest_operands(df, payload["instances"])
    rng = random.Random(payload["seed"])
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(payload["pairs"])]
    rates = {"mul": [], "add": []}
    results = {}
    for _ in range(payload["repeats"]):
        start = time.perf_counter()
        results["mul"] = [a * b for a, b in pairs]
        rates["mul"].append(len(pairs) / (time.perf_counter() - start))
        start = time.perf_counter()
        results["add"] = [a + b for a, b in pairs]
        rates["add"].append(len(pairs) / (time.perf_counter() - start))
    wrong = 0
    for name, oracle in (("mul", oracle_mul), ("add", oracle_add)):
        for (a, b), got in zip(pairs, results[name]):
            wrong += _quad(got) != oracle(_quad(a), _quad(b))
    return {"mul_per_s": statistics.median(rates["mul"]),
            "add_per_s": statistics.median(rates["add"]),
            "pool": len(pool), "canary": canary_digest(pool), "wrong": wrong}


MODES = {"setup": run_setup, "verify": run_verify, "controls": run_controls,
         "digests": run_digests, "scalars": run_scalars}


def main(argv):
    mode, payload = argv[0], json.loads(argv[1])
    trace_path = argv[2] if len(argv) > 2 else None
    tr = Tracer(payload.get("op", mode)) if trace_path else NullTracer()
    with tr.span("op"):
        result = MODES[mode](payload, tr)
    code = 0
    if isinstance(result, int):
        code = result
    else:
        sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    if trace_path:
        tr.write(trace_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
