"""Acceptance gate: ten criteria, one printed verdict line each.

Every identity is checked in exact arithmetic, so "pass" means zero
violations with no tolerance, truncated bosonic representations
included: their homomorphism and Casimir verdicts are read off the
normal-ordered oscillator polynomials, which decide them on the whole
Fock space, and each matrix must equal its polynomial's truncated
action. The only wall-clock
budgets are JACOBI_BUDGET for the whole Jacobi grid and CYBE_BUDGET per
CYBE instance.
"""

import pathlib
import time
from fractions import Fraction

import dense_reference as dense

from drinfeld_forge import (I, CheckReport, Element, GeneratorId, LieAlgebra,
                            SPAN_BUILDERS, Representation, Scalar,
                            a_chain_span, ad_invariance_report, bosonic_rep,
                            build_series, canonical_triple, casimir_quadratic,
                            cocommutator_explicit,
                            cocommutator_from_structure,
                            delta_discrepancy_audit,
                            discrepancy_report_markdown, fermionic_rep,
                            mirror, mutate_bracket, orthogonal_span_in_b,
                            perturb_pairing, positive_roots, rescale_minus,
                            split, verify_casimir_commutes, verify_casimir_form,
                            verify_chain_embedding, verify_closure,
                            verify_coboundary, verify_cocycle,
                            verify_cojacobi, verify_compatibility,
                            verify_cybe, verify_delta_agreement,
                            verify_form_invariance, verify_jacobi,
                            verify_pairing, verify_reconstruction,
                            verify_rep_homomorphism, verify_self_duality,
                            verify_subbialgebra, verify_twist, with_double)
from drinfeld_forge.cocommutator import wedge_insert

GRID = (("A", 1), ("A", 2), ("A", 3), ("A", 4),
        ("B", 1), ("B", 2), ("B", 3),
        ("C", 1), ("C", 2), ("C", 3),
        ("D", 2), ("D", 3), ("D", 4))
CYBE_GRID = (("A", 1), ("A", 2), ("B", 1), ("B", 2),
             ("C", 1), ("C", 2), ("D", 2))
FERMIONIC_GRID = (("A", 1), ("A", 2), ("A", 3),
                  ("B", 1), ("B", 2), ("B", 3),
                  ("D", 2), ("D", 3))
BOSONIC_GRID = (("A", 1), ("A", 2), ("C", 1), ("C", 2))
CHAIN_GRID = (("A", 2), ("B", 1), ("C", 1), ("D", 2))

JACOBI_BUDGET = 60.0
CYBE_BUDGET = 30.0
BOSONIC_CUTOFF = 6

REPORT_PATH = pathlib.Path(__file__).resolve().parent.parent / "DISCREPANCIES.md"


def _verdict(capsys, number, label, ok):
    with capsys.disabled():
        print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {number}: {label}"


def _exact(report):
    return report.passed and not report.violations


def test_criterion_01_lie_axioms(capsys):
    started = time.perf_counter()
    ok = all(_exact(verify_jacobi(build_series(s, r))) for s, r in GRID)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < JACOBI_BUDGET
    _verdict(capsys, 1,
             f"Jacobi exact on all {len(GRID)} instances "
             f"({elapsed:.1f}s < {JACOBI_BUDGET:.0f}s)", ok)


def test_criterion_02_manin_triples(capsys):
    checks = (verify_closure, verify_pairing, verify_compatibility,
              verify_reconstruction, verify_self_duality,
              verify_form_invariance)
    ok = all(_exact(check(canonical_triple(s, r)))
             for s, r in GRID for check in checks)
    _verdict(capsys, 2,
             f"closure, isotropy, compatibility, reconstruction, "
             f"self-duality, form invariance exact on {len(GRID)} triples",
             ok)


def test_criterion_03_cocommutator_cross_derivation(capsys):
    ok = all(_exact(verify_delta_agreement(canonical_triple(s, r)))
             for s, r in GRID)

    # the corrected closed form matches; the uncorrected transcription
    # must not, and the audit must carry the diagonal-Q witness
    audit = delta_discrepancy_audit(build_series("C", 1))
    ok = ok and [entry["gen"] for entry in audit] == ["Q1,1"]
    verbatim = cocommutator_explicit(build_series("C", 1), verbatim=True)
    structural = cocommutator_from_structure(canonical_triple("C", 1))
    q11 = GeneratorId("Q", 1, 1)
    ok = ok and verbatim[q11] != structural[q11]

    # the shipped report is exactly what the audit generates
    text = discrepancy_report_markdown() + "\n"
    ok = ok and REPORT_PATH.is_file()
    ok = ok and REPORT_PATH.read_text(encoding="utf-8") == text
    ok = ok and "Q1,1" in text and "pairing" in text
    _verdict(capsys, 3,
             "structure-derived and closed-form cocommutators agree; "
             "discrepancy report regenerates byte-identically", ok)


def test_criterion_04_bialgebra_axioms_and_negative_controls(capsys):
    ok = True
    for series, rank in GRID:
        triple = canonical_triple(series, rank)
        table = cocommutator_from_structure(triple)
        ok = ok and _exact(verify_cocycle(triple.double, table))
        ok = ok and _exact(verify_cojacobi(triple.double, table))
        ok = ok and _exact(verify_coboundary(triple))
        for key in ("splus", "sminus"):
            label, span = SPAN_BUILDERS[key](triple)
            ok = ok and _exact(
                verify_subbialgebra(triple.double, table, span, label))
        span = a_chain_span(triple.double, centrals=True)
        ok = ok and _exact(
            verify_subbialgebra(triple.double, table, span, "A-chain-central"))

    # negative control: the bare chain leaks central wedges
    triple = canonical_triple("A", 2)
    table = cocommutator_from_structure(triple)
    bare = verify_subbialgebra(triple.double, table,
                               a_chain_span(triple.double), "A-chain")
    ok = ok and not bare.passed
    ok = ok and any(term[0].startswith("I") or term[1].startswith("I")
                    for violation in bare.violations
                    for term in violation["outside_terms"])

    # negative control: the orthogonal span inside the odd series
    triple = canonical_triple("B", 2)
    table = cocommutator_from_structure(triple)
    inner = verify_subbialgebra(triple.double, table,
                                orthogonal_span_in_b(triple.double), "D-in-B")
    ok = ok and not inner.passed

    # negative control: dropping the Cartan part of r leaves exactly
    # the central wedges unaccounted for
    trimmed = verify_coboundary(canonical_triple("A", 1),
                                include_cartan=False)
    ok = ok and not trimmed.passed
    ok = ok and all(term[0].startswith("I")
                    for violation in trimmed.violations
                    for term in violation["residual"])
    _verdict(capsys, 4,
             "cocycle, co-Jacobi, coboundary, sub-bialgebras pass; "
             "all three negative controls fail as predicted", ok)


def test_criterion_05_classical_yang_baxter(capsys):
    ok = True
    slowest = 0.0
    for series, rank in CYBE_GRID:
        started = time.perf_counter()
        ok = ok and _exact(verify_cybe(canonical_triple(series, rank)))
        elapsed = time.perf_counter() - started
        slowest = max(slowest, elapsed)
        ok = ok and elapsed < CYBE_BUDGET
    _verdict(capsys, 5,
             f"CYBE residual exactly zero on {len(CYBE_GRID)} instances "
             f"(slowest {slowest:.1f}s < {CYBE_BUDGET:.0f}s)", ok)


def test_criterion_06_central_twist(capsys):
    report = verify_twist(canonical_triple("A", 2))
    ok = (_exact(report) and report.details["mode"] == "identified"
          and report.details["twisted_terms"] == 3)
    for series, rank in (("B", 1), ("B", 2), ("C", 1), ("C", 2), ("D", 2)):
        report = verify_twist(canonical_triple(series, rank))
        ok = (ok and _exact(report) and report.details["mode"] == "zeroed"
              and report.details["twisted_terms"] == 0)
    _verdict(capsys, 6,
             "identified centrals kill the ad-action on the Cartan part "
             "in A2; zeroed centrals empty it in B/C/D", ok)


def test_criterion_07_chain_embeddings(capsys):
    ok = all(_exact(verify_chain_embedding(s, r)) for s, r in CHAIN_GRID)
    _verdict(capsys, 7,
             "index shift embeds brackets and cocommutators exactly for "
             "A2>A3, B1>B2, C1>C2, D2>D3", ok)


def test_criterion_08_oscillator_representations(capsys):
    ok = True
    for series, rank in FERMIONIC_GRID:
        alg = build_series(series, rank)
        rep = fermionic_rep(alg)
        ok = ok and _exact(verify_rep_homomorphism(alg, rep))
        ok = ok and _exact(verify_casimir_commutes(
            alg, rep, casimir_quadratic(alg), "quadratic"))
    for series, rank in BOSONIC_GRID:
        alg = build_series(series, rank)
        rep = bosonic_rep(alg, BOSONIC_CUTOFF)
        ok = ok and _exact(verify_rep_homomorphism(alg, rep))
        ok = ok and _exact(verify_casimir_commutes(
            alg, rep, casimir_quadratic(alg), "quadratic"))

    alg = build_series("B", 1)
    cas = dense.casimir_matrix(fermionic_rep(alg), casimir_quadratic(alg))
    ok = ok and cas.entries == {(k, k): Scalar(Fraction(3, 4))
                                for k in range(2)}
    _verdict(capsys, 8,
             f"fermionic, and bosonic with matrices at cutoff "
             f"{BOSONIC_CUTOFF}: homomorphism and Casimir centrality exact "
             f"on the whole Fock space; B1 Casimir is exactly 3/4 times "
             f"the identity", ok)


def test_criterion_09_mixed_splitting(capsys):
    triple = split("D", 2, "mixed:pairs=1-2")
    ok = all(_exact(check(triple))
             for check in (verify_closure, verify_compatibility,
                           verify_reconstruction, verify_self_duality))
    _verdict(capsys, 9,
             "mixed D2 splitting passes closure, compatibility, "
             "reconstruction, and conjugated self-duality exactly", ok)


def _checked_table(triple, table, verifier):
    """verifier on the triple whose double holds `table`, or a failed report
    that holds the error when LieAlgebra refuses the table."""
    alg = triple.double
    try:
        mutant = LieAlgebra(alg.series, alg.rank, alg.basis, table,
                            alg.n_indices)
    except ValueError as err:
        report = CheckReport(check="table")
        report.add_violation({"error": str(err)})
        return report
    return verifier(with_double(triple, mutant))


def _mutation_fixtures():
    """Single-coefficient mutations, at least one per verifier; each must fail."""
    h1 = GeneratorId("H", 1)
    f12 = GeneratorId("F", 1, 2)
    f21 = GeneratorId("F", 2, 1)

    a1 = canonical_triple("A", 1)
    a2 = canonical_triple("A", 2)

    # [F1,2, F2,1] loses its relative sign: H1 + H2 instead of H1 - H2
    trace = Element.gen(h1)
    trace.add_term(GeneratorId("H", 2), Scalar(1))
    traced_a2 = mutate_bracket(a2.double, f12, f21, trace)

    # [H1, F1,2] doubles: the root keeps closing but its weight is wrong
    reweighted_a1 = mutate_bracket(a1.double, h1, f12,
                                   Element.gen(f12).scale(Scalar(2)))

    # [H1, F1,2] lands on the mirror root: s+ no longer closes
    escaped_a1 = mutate_bracket(a1.double, h1, f12, Element.gen(f21))

    # one off-diagonal pairing entry
    perturbed = perturb_pairing(a1, a1.sminus[0], a1.splus[1], Scalar(1))

    # [F1,2, F2,3] doubles: both halves still close, the mixed Jacobi
    # identity between f and c does not
    f23, f13 = GeneratorId("F", 2, 3), GeneratorId("F", 1, 3)
    chained_a2 = with_double(a2, mutate_bracket(
        a2.double, f12, f23, Element.gen(f13).scale(Scalar(2))))

    # delta(H1) := F1,2 ^ F2,1 is a valid-looking entry that breaks
    # the coalgebra Jacobi identity
    table_a2 = cocommutator_from_structure(a2)
    cartan_wedge = dict(table_a2)
    w = {}
    wedge_insert(w, a2.double.index, f12, f21, Scalar(1))
    cartan_wedge[h1] = w

    # dropping the interior F ^ F term of delta(F1,3) keeps a valid
    # coalgebra but breaks the cocycle tie to the bracket
    dropped = dict(table_a2)
    dropped[f13] = {key: val for key, val in table_a2[f13].items()
                    if key != (f12, f23)}

    # delta(I1) gains F1,2 ^ F2,1: I1 is central, so each pair it is in
    # has [x, y] = 0, and only the ad_y delta(I1) terms see the mutation
    i1 = GeneratorId("I", 1)
    central_delta = dict(table_a2)
    central_delta[i1] = dict(table_a2[i1])
    wedge_insert(central_delta[i1], a2.double.index, f12, f21, Scalar(1))

    # B1 fermionic rep against a double with [U1, V1] := 2 H1
    b1 = build_series("B", 1)
    u1, v1 = GeneratorId("U", 1), GeneratorId("V", 1)
    stretched_b1 = mutate_bracket(b1, u1, v1,
                                  Element.gen(h1).scale(Scalar(2)))

    # A3 with the chain coefficient [F2,3, F3,4] doubled, receiving A2
    a3 = build_series("A", 3)
    f34, f24 = GeneratorId("F", 3, 4), GeneratorId("F", 2, 4)
    stretched_a3 = mutate_bracket(a3, f23, f34,
                                  Element.gen(f24).scale(Scalar(2)))

    # C2 bosonic at cutoff 4 with one rho(F1,2) entry doubled, on a column
    # of total occupation at most 2 (protected for every pair)
    c2 = build_series("C", 2)
    boson = bosonic_rep(c2, 4)
    states = boson.space.states
    entries = boson.matrix(f12).entries
    key = min(k for k in entries if sum(states[k[1]]) <= 2)
    doubled_c2 = dense.with_entry(boson, f12, key, entries[key] * Scalar(2))

    # C2 with [P1,1, Q1,1] doubled against the unmutated bosonic matrices:
    # the normal-ordered residual of that pair is no longer zero
    p11, q11 = GeneratorId("P", 1, 1), GeneratorId("Q", 1, 1)
    doubled_pq = mutate_bracket(c2, p11, q11,
                                c2.bracket_gens(p11, q11).scale(Scalar(2)))

    # B2 fermionic with rho(F1,2) given an entry on the vacuum column,
    # where a+_1 a_2 has none: the matrix no longer follows its polynomial
    b2 = build_series("B", 2)
    vacuum_f12 = dense.with_entry(fermionic_rep(b2), f12, (0, 0), Scalar(1))

    # B2's fermionic matrices, built with lambda_1 = 2, given to a
    # representation with the default charges: each matrix came from a
    # builder, yet rho(I1) = 2 Id is not the action of its polynomial Id
    charged = fermionic_rep(b2, lambdas={1: Scalar(2)})
    foreign_charges = Representation(b2, dict(charged.matrices),
                                     charged.space, fermionic_rep(b2).lambdas)

    # the C2 Casimir over rho(F1,2) with its entry at column |0,2> doubled
    key = next(k for k in entries if states[k[1]] == (0, 2))
    doubled_two = dense.with_entry(boson, f12, key, entries[key] * Scalar(2))

    # rho(P1,1) given an entry on a column of total occupation 3: every
    # pair and Casimir generator that reads P1,1 protects only columns of
    # occupation at most 2, so only the matrix gate sees it
    col = next(pos for pos, state in enumerate(states) if sum(state) == 3)
    high_p11 = dense.with_entry(boson, p11, (0, col), Scalar(5))

    # the quadratic Casimir of C2 with its first anticommutator doubled
    root = positive_roots("C", 2)[0]
    lopsided = {**casimir_quadratic(c2), (root, mirror(root)): Scalar(2),
                (mirror(root), root): Scalar(2)}

    # A3 with [F1,2, F3,4], a zero bracket of two generators on disjoint
    # modes, given the value H1: the commutator skips that pair of words,
    # and the residual still holds -rho(H1)
    f12_f34 = mutate_bracket(a3, f12, f34, Element.gen(h1))

    # B2 with [U1, U2] = S1,2 doubled: a+_1 and a+_2 act on disjoint modes
    # but anticommute, so their commutator is not skipped
    u2 = GeneratorId("U", 2)
    doubled_uu = mutate_bracket(b2, u1, u2,
                                b2.bracket_gens(u1, u2).scale(Scalar(2)))

    # brackets and a pairing entry that were zero become nonzero, so each
    # mutation sits outside the support the unmutated data would give
    h2 = GeneratorId("H", 2)
    cartan_a2 = mutate_bracket(a2.double, h1, h2, Element.gen(f12))
    rooted_a2 = with_double(a2, mutate_bracket(
        a2.double, f12, f13, Element.gen(f23)))
    nonmirror_pairing = perturb_pairing(a2, f21, f13, Scalar(1))

    # zero entries made nonzero, one per kernel that joins nonzero data
    # through the adjoint index: a delta wedge term, a Cartan bracket, a
    # bracket of two positive roots that leaves s+ (seen by the structure
    # tensors and by closure, which share one walk), and one in the
    # shifted image of A2 inside A3
    new_wedge = dict(table_a2)
    new_wedge[f12] = dict(table_a2[f12])
    wedge_insert(new_wedge[f12], a2.double.index, f13, f23, Scalar(1))
    cartan_root_a2 = with_double(a2, mutate_bracket(
        a2.double, h1, f23, Element.gen(f12)))
    escaped_a2 = with_double(a2, mutate_bracket(
        a2.double, f12, f13, Element.gen(f21)))
    f24 = GeneratorId("F", 2, 4)
    imaged_a3 = mutate_bracket(a3, f23, f24, Element.gen(f34))

    # the crossed bracket [F3,2, F1,2] of an s- root with an s+ root, zero
    # and solved as zero, given the value F1,3: f, c and the pairing are
    # unchanged, so only the double's side of that pair becomes nonzero
    f32 = GeneratorId("F", 3, 2)
    crossed_a2 = with_double(a2, mutate_bracket(
        a2.double, f32, f12, Element.gen(f13)))

    # [F2,1, F1,2] := H1 - H2, the value of [F1,2, F2,1], under the key
    # (F2,1, F1,2) in place of (F1,2, F2,1): a sign flip that only the
    # key's order carries. cybe reads brackets through the adjoint index
    # alone, which takes the sign from basis order and would flip it
    # back, so only the refusal of the table catches it
    reversed_key = dict(a2.double.table)
    reversed_key[(f21, f12)] = reversed_key.pop((f12, f21))

    # C2 at cutoff 4 with [P1,2, P2,2] := i Q1,2: the normal-ordered
    # residual i b_1 b_2 moves only |1,1>, and the pair protects only the
    # vacuum, so only stage 1 sees it
    p12, p22, q12 = (GeneratorId("P", 1, 2), GeneratorId("P", 2, 2),
                     GeneratorId("Q", 1, 2))
    unseen_c2 = mutate_bracket(c2, p12, p22, Element.gen(q12, I))

    return (
        ("jacobi", lambda: verify_jacobi(traced_a2)),
        ("jacobi-new-bracket", lambda: verify_jacobi(cartan_a2)),
        ("cybe-reversed-key", lambda: _checked_table(
            a2, reversed_key, verify_cybe)),
        ("compatibility-new-bracket",
         lambda: verify_compatibility(rooted_a2)),
        ("forminv-new-pairing",
         lambda: verify_form_invariance(nonmirror_pairing)),
        ("closure", lambda: verify_closure(with_double(a1, escaped_a1))),
        ("pairing", lambda: verify_pairing(perturbed)),
        ("reconstruction", lambda: verify_reconstruction(perturbed)),
        ("compatibility", lambda: verify_compatibility(chained_a2)),
        ("selfdual", lambda: verify_self_duality(
            rescale_minus(a1, Scalar(3)))),
        ("forminv", lambda: verify_form_invariance(perturbed)),
        ("delta-agree", lambda: verify_delta_agreement(
            with_double(a1, reweighted_a1))),
        ("cocycle", lambda: verify_cocycle(
            a2.double, dropped)),
        ("cocycle-central", lambda: verify_cocycle(
            a2.double, central_delta)),
        ("cojacobi", lambda: verify_cojacobi(
            a2.double, cartan_wedge)),
        ("subbialg", lambda: verify_subbialgebra(
            a2.double, table_a2, a_chain_span(a2.double), "A-chain")),
        ("coboundary", lambda: verify_coboundary(
            a1, include_cartan=False)),
        ("cybe", lambda: verify_cybe(with_double(a2, traced_a2))),
        ("twist", lambda: verify_twist(
            with_double(a2, mutate_bracket(
                a2.double, h1, f12, Element.gen(f12).scale(Scalar(2)))))),
        ("chain", lambda: verify_chain_embedding(
            "A", 2, big_double=stretched_a3)),
        ("rep", lambda: verify_rep_homomorphism(
            stretched_b1, fermionic_rep(stretched_b1))),
        ("rep-bosonic-entry", lambda: verify_rep_homomorphism(
            c2, doubled_c2)),
        ("rep-bosonic-bracket", lambda: verify_rep_homomorphism(
            doubled_pq, boson)),
        ("rep-fermionic-entry", lambda: verify_rep_homomorphism(
            b2, vacuum_f12)),
        ("rep-fermionic-foreign-charges", lambda: verify_rep_homomorphism(
            b2, foreign_charges)),
        ("rep-bosonic-disjoint", lambda: verify_rep_homomorphism(
            f12_f34, bosonic_rep(a3, 4))),
        ("rep-fermionic-odd-pair", lambda: verify_rep_homomorphism(
            doubled_uu, fermionic_rep(b2))),
        ("casimir-commutes", lambda: verify_casimir_commutes(
            c2, boson, lopsided, "quadratic")),
        ("casimir-commutes-entry", lambda: verify_casimir_commutes(
            c2, doubled_two, casimir_quadratic(c2), "quadratic")),
        ("casimir-form", lambda: verify_casimir_form(perturbed)),
        ("casimir-invariance", lambda: ad_invariance_report(
            reweighted_a1, casimir_quadratic(reweighted_a1), "quadratic")),
        ("casimir-invariance-term", lambda: ad_invariance_report(
            c2, lopsided, "quadratic")),
        ("cojacobi-new-wedge", lambda: verify_cojacobi(
            a2.double, new_wedge)),
        ("coboundary-new-bracket", lambda: verify_coboundary(cartan_root_a2)),
        ("twist-new-bracket", lambda: verify_twist(
            with_double(a2, cartan_a2))),
        ("cybe-new-bracket", lambda: verify_cybe(with_double(a2, cartan_a2))),
        ("closure-tensors-new-bracket", lambda: verify_self_duality(
            escaped_a2)),
        ("closure-new-bracket", lambda: verify_closure(escaped_a2)),
        ("chain-new-bracket", lambda: verify_chain_embedding(
            "A", 2, big_double=imaged_a3)),
        ("reconstruction-new-bracket",
         lambda: verify_reconstruction(crossed_a2)),
        ("rep-bosonic-stage1", lambda: verify_rep_homomorphism(
            unseen_c2, boson)),
        ("rep-bosonic-high-entry", lambda: verify_rep_homomorphism(
            c2, high_p11)),
        ("casimir-commutes-high-entry", lambda: verify_casimir_commutes(
            c2, high_p11, casimir_quadratic(c2), "quadratic")),
    )


def test_criterion_10_mutation_sensitivity(capsys):
    survivors = [name for name, run in _mutation_fixtures()
                 if run().passed]
    ok = not survivors
    tail = f" (missed: {', '.join(survivors)})" if survivors else ""
    _verdict(capsys, 10,
             f"all {len(_mutation_fixtures())} single-coefficient "
             f"mutations fail their designated verifiers{tail}", ok)


def test_central_cocycle_mutation_sits_on_commuting_pairs():
    # the violations are exactly the pairs of I1 with a root that moves
    # F1,2 ^ F2,1, and each of them brackets to zero
    report = dict(_mutation_fixtures())["cocycle-central"]()
    pairs = [v["pair"] for v in report.violations]
    assert pairs == [["I1", root] for root in
                     ("F1,2", "F1,3", "F2,3", "F2,1", "F3,1", "F3,2")]
    alg = build_series("A", 2)
    gen = {gid.label: gid for gid in alg.basis}
    assert not any(alg.bracket_gens(gen[x], gen[y]) for x, y in pairs)


def test_foreign_charges_fail_the_matrix_gate():
    # matrices built with lambda_1 = 2 are not the action of the default
    # charges' proof; only rho(I1) differs, on all four states of B2
    report = dict(_mutation_fixtures())["rep-fermionic-foreign-charges"]()
    assert report.violations == [{"matrix": "I1", "entries": 4}]


def test_entry_above_every_protected_budget_fails():
    # rho(P1,1) with an entry on a column of total occupation 3 at cutoff 4:
    # every pair and Casimir generator that reads P1,1 protects only
    # columns of occupation at most 2, yet the matrix differs from its
    # polynomial in that entry, which both checks report on their own
    alg = build_series("C", 2)
    rep = bosonic_rep(alg, 4)
    p11 = GeneratorId("P", 1, 1)
    col = next(pos for pos, state in enumerate(rep.space.states)
               if sum(state) == 3)
    case = dense.with_entry(rep, p11, (0, col), Scalar(5))
    assert case.wrong_entries(p11) == 1
    wrong = [{"matrix": "P1,1", "entries": 1}]
    assert verify_rep_homomorphism(alg, case).violations == wrong
    assert verify_casimir_commutes(alg, case, casimir_quadratic(alg),
                                   "quadratic").violations == wrong
