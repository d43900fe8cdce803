"""Failing reports of the verifiers that have no dense oracle, byte for byte.

Each fixture is a small failing input; every listed check runs on it and
the canonical JSON of its reports must equal the recorded golden file. A
refactor that changes a verdict, a count, or the order of a violation list
shows up here. So does one that changes the `rep` and `casimir` reports of
the instances the benchmark's fock-reps workload runs, `verify --checks
rep,casimir --cutoff 6 --json` on A3, C4, B4 and D5, `details` included.
So, through a sha256 per table, does one that changes the closed-form
cocommutator tables, corrected or verbatim, in any generator, term,
term order or coefficient, and one that changes a `build_series` bracket
table in any key, key order, term, term order or coefficient.
"""

import hashlib
import json
import pathlib

import pytest

from drinfeld_forge import (GeneratorId, Scalar, a_chain_span,
                            build_series, canonical_triple,
                            cocommutator_explicit, cocommutator_from_structure,
                            mutate_bracket, perturb_pairing, rescale_minus,
                            verify_casimir_form, verify_coboundary,
                            verify_cocycle, verify_cojacobi, verify_cybe,
                            verify_delta_agreement, verify_reconstruction,
                            verify_self_duality, verify_subbialgebra,
                            verify_twist, with_double)
from drinfeld_forge.cli import main
from drinfeld_forge.serialize import dumps_canonical

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def doubled_bracket(series, rank, p, q):
    """The canonical triple with the table entry [p, q] doubled."""
    triple = canonical_triple(series, rank)
    alg = triple.double
    p, q = GeneratorId(*p), GeneratorId(*q)
    return with_double(triple, mutate_bracket(
        alg, p, q, alg.bracket_gens(p, q).scale(Scalar(2))))


def perturbed_a2():
    triple = canonical_triple("A", 2)
    return perturb_pairing(triple, triple.sminus[3], triple.splus[4],
                           Scalar(1))


FIXTURES = {
    "A2_doubled_root": lambda: doubled_bracket("A", 2, ("F", 1, 2),
                                               ("F", 2, 3)),
    "C2_doubled_root": lambda: doubled_bracket("C", 2, ("F", 1, 2),
                                               ("P", 1, 2)),
    "A2_doubled_weight": lambda: doubled_bracket("A", 2, ("H", 1),
                                                 ("F", 1, 2)),
    "A2_perturbed_pairing": perturbed_a2,
    "B2_rescaled_minus": lambda: rescale_minus(canonical_triple("B", 2),
                                               Scalar(3)),
}


def reports(triple):
    alg = triple.double
    table = cocommutator_from_structure(triple)
    runs = {
        "reconstruction": verify_reconstruction(triple),
        "selfdual": verify_self_duality(triple),
        "casimir-form": verify_casimir_form(triple),
        "delta-agree": verify_delta_agreement(triple),
        "cocycle": verify_cocycle(alg, table),
        "cojacobi": verify_cojacobi(alg, table),
        "subbialg-An": verify_subbialgebra(alg, table, a_chain_span(alg),
                                           "A-chain"),
        "coboundary": verify_coboundary(triple, table),
        "coboundary-no-cartan": verify_coboundary(triple, table,
                                                  include_cartan=False),
        "cybe": verify_cybe(triple),
        "twist": verify_twist(triple),
    }
    return {name: report.to_dict() for name, report in runs.items()}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_failing_reports_match_golden(name):
    got = dumps_canonical(reports(FIXTURES[name]()))
    want = (GOLDEN / f"failing_{name}.json").read_text(encoding="ascii")
    assert got == want


EXPLICIT_GRID = ([f"A{r}" for r in range(1, 8)] + [f"B{r}" for r in range(1, 7)]
                 + [f"C{r}" for r in range(1, 7)]
                 + [f"D{r}" for r in range(2, 8)])


def explicit_table_digests(name: str) -> dict:
    """sha256 of the corrected and the verbatim `cocommutator_explicit`
    table: every generator in table order, each with its terms in dict
    order as [a, b, coeff]."""
    triple = canonical_triple(name[0], int(name[1:]))
    out = {}
    for kind, verbatim in (("corrected", False), ("verbatim", True)):
        rows = [[gid.label, [[a.label, b.label, coeff.to_strings()]
                             for (a, b), coeff in wedge.items()]]
                for gid, wedge in cocommutator_explicit(
                    triple, verbatim=verbatim).items()]
        out[kind] = hashlib.sha256(
            json.dumps(rows).encode("ascii")).hexdigest()
    return out


@pytest.mark.parametrize("name", EXPLICIT_GRID)
def test_explicit_tables_match_golden(name):
    golden = json.loads((GOLDEN / "explicit_delta_sha256.json").read_text(
        encoding="ascii"))
    assert explicit_table_digests(name) == golden[name]


BRACKET_GRID = ([f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(1, 8)]
                + [f"C{r}" for r in range(1, 8)]
                + [f"D{r}" for r in range(2, 9)])


def bracket_table_digest(name: str) -> str:
    """sha256 of the `build_series` bracket table: every key in table
    order, each as [p, q, terms] with its terms in dict order as
    [g, coeff]."""
    alg = build_series(name[0], int(name[1:]))
    rows = [[p.label, q.label, [[g.label, coeff.to_strings()]
                                for g, coeff in entry.terms()]]
            for (p, q), entry in alg.table.items()]
    return hashlib.sha256(json.dumps(rows).encode("ascii")).hexdigest()


@pytest.mark.parametrize("name", BRACKET_GRID)
def test_bracket_tables_match_golden(name):
    golden = json.loads((GOLDEN / "bracket_table_sha256.json").read_text(
        encoding="ascii"))
    assert bracket_table_digest(name) == golden[name]


@pytest.mark.parametrize("name", ["A3", "C4", "B4", "D5"])
def test_benchmarked_rep_casimir_reports_match_golden(capsys, name):
    assert main(["verify", "--series", name[0], "--rank", name[1:],
                 "--checks", "rep,casimir", "--cutoff", "6", "--json"]) == 0
    want = GOLDEN / f"verify_rep_casimir_{name}_cutoff6.json"
    assert capsys.readouterr().out == want.read_text(encoding="ascii")
