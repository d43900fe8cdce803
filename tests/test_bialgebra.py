"""Cocommutators, r-matrices, and the bialgebra verifier battery."""

import json
from types import MappingProxyType

import pytest

from drinfeld_forge import (SERIES, Element, ForeignGeneratorError,
                            GeneratorId, HALF, I, LieAlgebra,
                            NotASubalgebraError, ONE, Scalar, SpecError,
                            SPAN_BUILDERS, a_chain_span, build_r_matrix,
                            build_series, canonical_triple,
                            cocommutator_explicit, cocommutator_from_structure,
                            delta_discrepancy_audit, dimension,
                            enumerate_generators, mutate_bracket,
                            orthogonal_span_in_b, shift_generator, split,
                            verify_chain_embedding,
                            verify_coboundary, verify_cocycle, verify_cojacobi,
                            verify_cybe, verify_delta_agreement,
                            verify_subbialgebra, verify_twist, wedge_insert,
                            with_double)
from drinfeld_forge.cli import MAX_DIMENSION, main

from dense_reference import ad_wedge

AGREE_GRID = [("A", 1), ("A", 2), ("B", 1), ("B", 2), ("B", 3), ("C", 1),
              ("C", 2), ("C", 3), ("D", 2), ("D", 3)]

SMALL_GRID = [("A", 1), ("A", 2), ("B", 1), ("B", 2), ("C", 1), ("C", 2),
              ("D", 2)]

CHAIN_GRID = [("A", 2), ("B", 1), ("C", 1), ("D", 2)]


def wedge(items):
    return {(GeneratorId(*a), GeneratorId(*b)): coeff for a, b, coeff in items}


def test_wedge_insert_normal_form():
    alg = build_series("A", 1)
    h1, f12 = GeneratorId("H", 1), GeneratorId("F", 1, 2)
    out = {}
    wedge_insert(out, alg.index, f12, h1, ONE)
    assert out == {(h1, f12): -ONE}
    wedge_insert(out, alg.index, h1, f12, ONE)
    assert out == {}
    wedge_insert(out, alg.index, h1, h1, ONE)
    assert out == {}


def test_ad_wedge_leibniz():
    alg = build_series("C", 2)
    h1 = GeneratorId("H", 1)
    p12, q11 = GeneratorId("P", 1, 2), GeneratorId("Q", 1, 1)
    w = {}
    wedge_insert(w, alg.index, p12, q11, ONE)
    out = ad_wedge(alg, h1, w)
    # [H1,P12] = P12 and [H1,Q11] = -2 Q11, so the wedge scales by 1 - 2
    assert out == {(p12, q11): -ONE}


@pytest.mark.parametrize("series,rank", AGREE_GRID)
def test_delta_agreement(series, rank):
    report = verify_delta_agreement(canonical_triple(series, rank))
    assert report.passed, report.to_dict()


def test_delta_agreement_requires_canonical():
    with pytest.raises(SpecError):
        verify_delta_agreement(split("D", 2, "mixed:pairs=1-2"))


@pytest.mark.parametrize("series,rank,spec", [
    ("A", 2, "canonical"), ("B", 2, "canonical"), ("C", 2, "canonical"),
    ("D", 3, "canonical"), ("D", 2, "mixed:pairs=1-2"),
])
def test_cocommutators_are_maps_in_basis_order(series, rank, spec):
    # every basis generator, in basis order, mapped to a normal-form
    # wedge: a before b, and no zero coefficient; the structural table is
    # the triple's memo, so it and its rows are read-only views
    triple = split(series, rank, spec)
    alg = triple.double
    tables = [(cocommutator_from_structure(triple), MappingProxyType)]
    if spec == "canonical":
        tables.append((cocommutator_explicit(alg), dict))
    for table, kind in tables:
        assert type(table) is kind and list(table) == list(alg.basis)
        for gid, wedge in table.items():
            assert type(wedge) is kind, gid
            assert all(alg.index[a] < alg.index[b] and value
                       for (a, b), value in wedge.items()), gid


def test_r_matrix_parts_in_export_order(tmp_path):
    target = tmp_path / "rmatrix.json"
    assert main(["export", "--series", "A", "--rank", "2", "--what",
                 "rmatrix", "--out", str(target)]) == 0
    exported = list(json.loads(target.read_text(encoding="ascii")))
    parts = build_r_matrix(canonical_triple("A", 2))
    assert type(parts) is dict
    assert list(parts) == ["nonskew", "skew_root", "skew_cartan"]
    assert exported == ["series", "rank", "spec"] + list(parts)


def test_delta_vanishes_on_cartan():
    table = cocommutator_from_structure(canonical_triple("B", 2))
    for gid, wedge in table.items():
        if gid.kind in ("H", "I"):
            assert wedge == {}


def test_explicit_delta_f_oracle():
    # delta(F12) in A2: Cartan wedges plus the interior chain term
    alg = build_series("A", 2)
    table = cocommutator_explicit(alg)
    f12 = GeneratorId("F", 1, 2)
    got = table[f12]
    want = {}
    wedge_insert(want, alg.index, f12, GeneratorId("H", 1), -HALF)
    wedge_insert(want, alg.index, f12, GeneratorId("H", 2), HALF)
    wedge_insert(want, alg.index, f12, GeneratorId("I", 1), -I * HALF)
    wedge_insert(want, alg.index, f12, GeneratorId("I", 2), I * HALF)
    assert got == want

    f13 = GeneratorId("F", 1, 3)
    got13 = table[f13]
    chain_key = (GeneratorId("F", 1, 2), GeneratorId("F", 2, 3))
    assert got13[chain_key] == ONE


def test_audit_c1_diagonal_q():
    audit = delta_discrepancy_audit(build_series("C", 1))
    assert [entry["gen"] for entry in audit] == ["Q1,1"]
    entry = audit[0]
    assert ["H1", "Q1,1", "1"] in entry["missing"]
    assert ["H1", "P1,1", "1"] in entry["spurious"]
    assert ["I1", "Q1,1", "-i"] in entry["missing"]
    assert ["I1", "P1,1", "-i"] in entry["spurious"]


def test_audit_families_by_series():
    affected = {
        ("A", 2): [],
        ("C", 3): ["P1,2", "Q1,1", "Q1,2", "Q2,2", "Q3,3"],
        ("D", 3): ["S1,2", "T1,2"],
        ("B", 3): ["S1,2", "T1,2", "V1", "V2", "V3"],
        ("B", 2): ["V1", "V2"],
    }
    for (series, rank), gens in affected.items():
        audit = delta_discrepancy_audit(build_series(series, rank))
        assert [entry["gen"] for entry in audit] == gens, (series, rank)


def test_audit_b2_v_witnesses():
    audit = {entry["gen"]: entry
             for entry in delta_discrepancy_audit(build_series("B", 2))}
    assert audit["V1"]["missing"] == [["F2,1", "V2", "1"]]
    assert audit["V1"]["spurious"] == []
    assert audit["V2"]["missing"] == []
    assert audit["V2"]["spurious"] == [["F1,2", "V1", "1"]]


def test_audit_c3_missing_upward_families():
    audit = {entry["gen"]: entry
             for entry in delta_discrepancy_audit(build_series("C", 3))}
    assert ["F2,3", "P1,3", "1"] in audit["P1,2"]["missing"]
    assert ["F3,2", "Q1,3", "1"] in audit["Q1,2"]["missing"]


def test_verbatim_table_fails_agreement():
    triple = canonical_triple("C", 1)
    structural = cocommutator_from_structure(triple)
    verbatim = cocommutator_explicit(triple.double, verbatim=True)
    q11 = GeneratorId("Q", 1, 1)
    assert structural[q11] != verbatim[q11]


@pytest.mark.parametrize("series,rank", SMALL_GRID)
def test_cocycle(series, rank):
    triple = canonical_triple(series, rank)
    table = cocommutator_from_structure(triple)
    report = verify_cocycle(triple.double, table)
    assert report.passed, report.to_dict()


@pytest.mark.parametrize("series,rank", SMALL_GRID)
def test_cojacobi(series, rank):
    triple = canonical_triple(series, rank)
    table = cocommutator_from_structure(triple)
    report = verify_cojacobi(triple.double, table)
    assert report.passed, report.to_dict()


def test_structural_cocommutator_is_read_only():
    # the table is the triple's memo, read by every later check of it, so
    # an edit of the table or of any row raises instead of reaching them
    triple = split("B", 2)
    table = cocommutator_from_structure(triple)
    with pytest.raises(TypeError):
        table[triple.splus[0]] = {}
    for wedge in table.values():
        if wedge:
            key = next(iter(wedge))
            with pytest.raises(TypeError):
                wedge[key] = ONE
            with pytest.raises(TypeError):
                del wedge[key]
    assert cocommutator_from_structure(triple) is table
    assert verify_cocycle(triple.double, table).passed


def test_cocycle_detects_broken_delta():
    triple = canonical_triple("A", 1)
    table = cocommutator_from_structure(triple)
    f12 = GeneratorId("F", 1, 2)
    broken = dict(table)
    bad = dict(broken[f12])
    key = next(iter(bad))
    bad[key] = bad[key] * Scalar(2)
    broken[f12] = bad
    report = verify_cocycle(triple.double, broken)
    assert not report.passed


def test_cojacobi_detects_broken_delta():
    # a root wedge on a Cartan generator breaks the coalgebra Jacobi
    triple = canonical_triple("A", 2)
    table = cocommutator_from_structure(triple)
    broken = dict(table)
    w = {}
    wedge_insert(w, triple.double.index, GeneratorId("F", 1, 2),
                 GeneratorId("F", 2, 1), ONE)
    broken[GeneratorId("H", 1)] = w
    report = verify_cojacobi(triple.double, broken)
    assert not report.passed


def test_cocycle_detects_dropped_chain_term():
    # cocycle ties delta to the bracket, so a missing interior term trips it
    triple = canonical_triple("A", 2)
    table = cocommutator_from_structure(triple)
    f13 = GeneratorId("F", 1, 3)
    chain = (GeneratorId("F", 1, 2), GeneratorId("F", 2, 3))
    broken = dict(table)
    broken[f13] = {k: v for k, v in table[f13].items() if k != chain}
    report = verify_cocycle(triple.double, broken)
    assert not report.passed


def test_mixed_cocycle_and_cojacobi():
    for series, rank, spec in [("D", 2, "mixed:pairs=1-2"),
                               ("A", 2, "mixed:pairs=1-2;central=3")]:
        triple = split(series, rank, spec)
        table = cocommutator_from_structure(triple)
        assert verify_cocycle(triple.double, table).passed
        assert verify_cojacobi(triple.double, table).passed


def test_halves_are_sub_bialgebras():
    for series, rank in SMALL_GRID:
        triple = canonical_triple(series, rank)
        table = cocommutator_from_structure(triple)
        for key in ("splus", "sminus"):
            label, span = SPAN_BUILDERS[key](triple)
            report = verify_subbialgebra(triple.double, table, span, label)
            assert report.passed, (series, rank, key, report.to_dict())


def test_bare_chain_is_not_a_sub_bialgebra():
    for series, rank in [("A", 2), ("B", 2), ("C", 2), ("D", 2)]:
        triple = canonical_triple(series, rank)
        table = cocommutator_from_structure(triple)
        span = a_chain_span(triple.double)
        report = verify_subbialgebra(triple.double, table, span, "A-chain")
        assert not report.passed, (series, rank)
        # the escape is through central wedges
        leaks = {term[1][0] for violation in report.violations
                 for term in [(None, lb) for lb in violation["outside_terms"]]}
        assert any(label.startswith("I") for label in leaks)


def test_central_extension_repairs_chain():
    for series, rank in [("A", 2), ("B", 2), ("C", 2), ("D", 2)]:
        triple = canonical_triple(series, rank)
        table = cocommutator_from_structure(triple)
        span = a_chain_span(triple.double, centrals=True)
        report = verify_subbialgebra(triple.double, table, span,
                                     "A-chain-central")
        assert report.passed, (series, rank, report.to_dict())


def test_orthogonal_span_fails_inside_b():
    triple = canonical_triple("B", 2)
    table = cocommutator_from_structure(triple)
    span = orthogonal_span_in_b(triple.double)
    report = verify_subbialgebra(triple.double, table, span, "D-in-B")
    assert not report.passed
    outside = {tuple(term[:2]) for violation in report.violations
               for term in violation["outside_terms"]}
    assert ("U1", "U2") in outside or ("V1", "V2") in outside


def test_orthogonal_span_needs_series_b():
    with pytest.raises(SpecError):
        orthogonal_span_in_b(build_series("C", 2))


def test_non_closed_span_raises():
    triple = canonical_triple("B", 1)
    table = cocommutator_from_structure(triple)
    span = [Element.gen(GeneratorId("U", 1)), Element.gen(GeneratorId("V", 1))]
    with pytest.raises(NotASubalgebraError):
        verify_subbialgebra(triple.double, table, span, "UV")


def test_subbialgebra_brackets_only_joined_pairs(monkeypatch):
    # s+ of D4 has 16 members, so C(16, 2) = 120 pairs; only those whose
    # supports meet a nonzero bracket are bracketed
    triple = canonical_triple("D", 4)
    table = cocommutator_from_structure(triple)
    label, span = SPAN_BUILDERS["splus"](triple)
    calls = []
    bracket = LieAlgebra.bracket

    def counted(alg, x, y):
        calls.append((x, y))
        return bracket(alg, x, y)

    monkeypatch.setattr(LieAlgebra, "bracket", counted)
    report = verify_subbialgebra(triple.double, table, span, label)
    assert report.passed
    assert len(span) == 16
    assert 0 < len(calls) < 120


def test_subbialgebra_refuses_every_foreign_term():
    # H5 is not in A1 and brackets nothing the join would visit, and a
    # span of one element has no pair at all
    triple = canonical_triple("A", 1)
    table = cocommutator_from_structure(triple)
    h1, h5 = Element.gen(GeneratorId("H", 1)), Element.gen(GeneratorId("H", 5))
    for span in ([h1, h5], [h5]):
        with pytest.raises(ForeignGeneratorError, match="H5"):
            verify_subbialgebra(triple.double, table, span, "foreign")


@pytest.mark.parametrize("verify", [
    verify_cocycle, verify_cojacobi,
    lambda alg, table: verify_subbialgebra(
        alg, table, [Element.gen(g) for g in alg.basis], "all")],
    ids=["cocycle", "cojacobi", "subbialg"])
def test_table_readers_refuse_a_foreign_factor(verify):
    # one wedge term of delta(F1,2) names F9,9, which A2 does not hold
    triple = canonical_triple("A", 2)
    f12 = GeneratorId("F", 1, 2)
    table = dict(cocommutator_from_structure(triple))
    table[f12] = {**table[f12], (f12, GeneratorId("F", 9, 9)): ONE}
    with pytest.raises(ForeignGeneratorError,
                       match="F9,9 is not in the A2 basis"):
        verify(triple.double, table)


def test_r_matrix_shape():
    triple = canonical_triple("A", 1)
    rmat = build_r_matrix(triple)
    h1, i1 = GeneratorId("H", 1), GeneratorId("I", 1)
    assert rmat["skew_cartan"][(h1, i1)] == I * HALF
    f12, f21 = GeneratorId("F", 1, 2), GeneratorId("F", 2, 1)
    assert rmat["skew_root"][(f12, f21)] == -HALF
    # nonskew Cartan block carries the symmetric part too
    assert rmat["nonskew"][(h1, h1)] == HALF


@pytest.mark.parametrize("series,rank", SMALL_GRID)
def test_coboundary(series, rank):
    report = verify_coboundary(canonical_triple(series, rank))
    assert report.passed, report.to_dict()


def test_coboundary_without_cartan_part_leaks_centrals():
    triple = canonical_triple("A", 1)
    report = verify_coboundary(triple, include_cartan=False)
    assert not report.passed
    residuals = {v["gen"]: v["residual"] for v in report.violations}
    assert set(residuals) == {"F1,2", "F2,1"}
    assert sorted(residuals["F1,2"]) == [["I1", "F1,2", "-1/2*i"],
                                         ["I2", "F1,2", "1/2*i"]]


@pytest.mark.parametrize("series,rank", [
    ("A", 1), ("A", 2), ("B", 1), ("B", 2), ("C", 1), ("C", 2), ("D", 2),
])
def test_cybe_exact_zero(series, rank):
    report = verify_cybe(canonical_triple(series, rank))
    assert report.passed, report.to_dict()


def test_cybe_detects_mutation():
    base = canonical_triple("A", 1)
    f12, f21 = GeneratorId("F", 1, 2), GeneratorId("F", 2, 1)
    target = Element.gen(GeneratorId("H", 1)) + Element.gen(GeneratorId("H", 2))
    bad = with_double(base, mutate_bracket(base.double, f12, f21, target))
    assert not verify_cybe(bad).passed


@pytest.mark.parametrize("series,rank", SMALL_GRID)
def test_twist(series, rank):
    report = verify_twist(canonical_triple(series, rank))
    assert report.passed, report.to_dict()
    if series == "A":
        assert report.details["mode"] == "identified"
        assert report.details["twisted_terms"] == rank + 1
    else:
        assert report.details["mode"] == "zeroed"
        assert report.details["twisted_terms"] == 0


def test_untwisted_cartan_part_is_not_invariant_in_a2():
    triple = canonical_triple("A", 2)
    rmat = build_r_matrix(triple)
    f12 = GeneratorId("F", 1, 2)
    moved = ad_wedge(triple.double, f12, rmat["skew_cartan"])
    i1, i2 = GeneratorId("I", 1), GeneratorId("I", 2)
    assert moved == {(i1, f12): I * HALF, (i2, f12): -I * HALF}


def test_twist_requires_canonical():
    with pytest.raises(SpecError):
        verify_twist(split("D", 2, "mixed:pairs=1-2"))


@pytest.mark.parametrize("series,rank", CHAIN_GRID)
def test_chain_embedding(series, rank):
    report = verify_chain_embedding(series, rank)
    assert report.passed, report.to_dict()


def test_shift_keeps_basis_order_for_every_admitted_chain():
    # verify_chain_embedding reads each rank n+1 entry between shifted
    # generators under the key order of its rank n pair; that holds while
    # the shift keeps basis order, up to the largest rank n the CLI admits
    # (D16, A21, B15, C15), read from the basis enumeration alone
    for series in SERIES:
        rank = 2 if series == "D" else 1
        while dimension(series, rank) <= MAX_DIMENSION:
            big = {g: pos for pos, g in
                   enumerate(enumerate_generators(series, rank + 1))}
            image = [big[shift_generator(g, 1)]
                     for g in enumerate_generators(series, rank)]
            assert image == sorted(image), f"{series}{rank}"
            rank += 1


def test_identity_injection_fails_delta_outside_a():
    small = canonical_triple("C", 2)
    big = canonical_triple("C", 3)
    ds = cocommutator_from_structure(small)
    db = cocommutator_from_structure(big)
    p11 = GeneratorId("P", 1, 1)
    small_image = {}
    for (a, b), val in ds[p11].items():
        wedge_insert(small_image, big.double.index, a, b, val)
    assert db[p11] != small_image


def test_identity_injection_embeds_delta_in_a():
    small = canonical_triple("A", 2)
    big = canonical_triple("A", 3)
    ds = cocommutator_from_structure(small)
    db = cocommutator_from_structure(big)
    for gid in small.double.basis:
        small_image = {}
        for (a, b), val in ds[gid].items():
            wedge_insert(small_image, big.double.index, a, b, val)
        assert db[gid] == small_image


def test_delta_linearity():
    # a span of one element has no wedge to hold its cocommutator, so
    # verify_subbialgebra reports the whole of delta(2 P1,1 + i Q1,1)
    triple = canonical_triple("C", 1)
    alg = triple.double
    table = cocommutator_from_structure(triple)
    p = GeneratorId("P", 1, 1)
    q = GeneratorId("Q", 1, 1)
    elem = Element.gen(p).scale(Scalar(2))
    elem.add_term(q, Scalar(0, 1))
    report = verify_subbialgebra(alg, table, [elem], "P+Q")
    want = {}
    for key, val in table[p].items():
        want[key] = val * Scalar(2)
    for key, val in table[q].items():
        want[key] = want.get(key, Scalar(0)) + val * Scalar(0, 1)
    want = [(key, v) for key, v in want.items() if v]
    [violation] = report.violations
    assert violation["outside_terms"] == [
        [a.label, b.label, str(v)] for (a, b), v in sorted(
            want, key=lambda kv: (alg.index[kv[0][0]], alg.index[kv[0][1]]))]
