"""Oscillator representations as independent oracles for the tables."""

import itertools
from fractions import Fraction

import pytest

import dense_reference as dense
from drinfeld_forge import (SQRT2, GeneratorId, Scalar, SpecError,
                            ad_invariance_report, bosonic_rep, build_series,
                            cartan_count, casimir_double, casimir_quadratic,
                            fermionic_rep, parse_label,
                            verify_casimir_commutes, verify_rep_homomorphism)
from drinfeld_forge.errors import ForeignGeneratorError
from drinfeld_forge.oscillators import FockSpace, boson_states
from drinfeld_forge.reps import MAX_REP_SIZE, rep_size

FERMIONIC_GRID = [("A", 1), ("A", 2), ("A", 3), ("B", 1), ("B", 2), ("B", 3),
                  ("D", 2), ("D", 3)]
BOSONIC_GRID = [("A", 1), ("A", 2), ("C", 1), ("C", 2)]


def test_fermion_anticommutators():
    n = 3
    eye = dense.identity(1 << n)
    for i in range(1, n + 1):
        ci, ai = dense.fermion_create(n, i), dense.fermion_annihilate(n, i)
        for j in range(1, n + 1):
            cj = dense.fermion_create(n, j)
            aj = dense.fermion_annihilate(n, j)
            anti = dense.add(dense.matmul(ci, aj), dense.matmul(aj, ci))
            if i == j:
                assert anti == eye
            else:
                assert not anti.entries
            assert not dense.add(dense.matmul(ci, cj),
                                 dense.matmul(cj, ci)).entries


def test_boson_states_are_cutoff_bounded():
    states = boson_states(2, 3)
    assert all(sum(s) <= 3 for s in states)
    assert len(states) == 10
    assert states == sorted(states)
    # enumerated directly: the same list as filtering every tuple
    assert boson_states(3, 4) == sorted(
        s for s in itertools.product(range(5), repeat=3) if sum(s) <= 4)


def _on_columns(mat, columns):
    return {key: value for key, value in mat.entries.items()
            if key[1] in columns}


@pytest.mark.parametrize("series,rank", FERMIONIC_GRID)
def test_fermionic_homomorphism_exact(series, rank):
    alg = build_series(series, rank)
    report = verify_rep_homomorphism(alg, fermionic_rep(alg))
    assert report.passed, report.to_dict()


@pytest.mark.parametrize("series,rank", BOSONIC_GRID)
def test_bosonic_homomorphism_protected(series, rank):
    alg = build_series(series, rank)
    rep = bosonic_rep(alg, 6)
    report = verify_rep_homomorphism(alg, rep)
    assert report.passed, report.to_dict()
    for p, q in itertools.combinations(alg.basis, 2):
        columns = dense.protected_columns(rep, dense.occupation_raise(p)
                                          + dense.occupation_raise(q))
        actual = dense.commutator(rep.matrix(p), rep.matrix(q))
        expected = dense.element_matrix(rep, alg.bracket_gens(p, q))
        assert _on_columns(actual, columns) == _on_columns(expected, columns)


def test_series_realization_guards():
    with pytest.raises(SpecError):
        fermionic_rep(build_series("C", 1))
    with pytest.raises(SpecError):
        bosonic_rep(build_series("B", 1), 6)
    with pytest.raises(SpecError):
        bosonic_rep(build_series("C", 1), 1)


def test_b1_quadratic_casimir_is_three_quarters_identity():
    alg = build_series("B", 1)
    rep = fermionic_rep(alg)
    cas = dense.casimir_matrix(rep, casimir_quadratic(alg))
    want = dense.identity(rep.space_dim, Scalar(Fraction(3, 4)))
    assert cas == want


def test_c1_quadratic_casimir_uniform_diagonal():
    alg = build_series("C", 1)
    rep = bosonic_rep(alg, 6)
    cas = dense.casimir_matrix(rep, casimir_quadratic(alg))
    cols = dense.protected_columns(rep, 2)
    assert cols
    assert _on_columns(cas, cols) == {(c, c): Scalar(Fraction(-3, 4))
                                      for c in cols}


@pytest.mark.parametrize("series,rank", FERMIONIC_GRID)
def test_fermionic_casimir_centrality(series, rank):
    alg = build_series(series, rank)
    rep = fermionic_rep(alg)
    for cas in (casimir_quadratic(alg), casimir_double(alg)):
        report = verify_casimir_commutes(alg, rep, cas)
        assert report.passed, report.to_dict()


@pytest.mark.parametrize("series,rank", BOSONIC_GRID)
def test_bosonic_casimir_centrality(series, rank):
    alg = build_series(series, rank)
    rep = bosonic_rep(alg, 6)
    report = verify_casimir_commutes(alg, rep, casimir_quadratic(alg))
    assert report.passed, report.to_dict()


def test_casimir_ad_invariance_table_level():
    for series, rank in [("A", 2), ("B", 2), ("C", 2), ("D", 2)]:
        alg = build_series(series, rank)
        for cas in (casimir_quadratic(alg), casimir_double(alg)):
            report = ad_invariance_report(alg, cas)
            assert report.passed, (series, rank, cas.label)


def test_custom_central_charges():
    alg = build_series("B", 1)
    rep = fermionic_rep(alg, lambdas={1: Scalar(3)})
    assert rep.matrix(GeneratorId("I", 1)) == dense.identity(
        rep.space_dim, Scalar(3))
    assert verify_rep_homomorphism(alg, rep).passed


def test_casimir_of_another_algebra_rejected():
    # the A3 Casimir names H4 and F1,4, which neither A2 nor its
    # representation holds
    alg = build_series("A", 2)
    with pytest.raises(ForeignGeneratorError, match="not in the A2 basis"):
        verify_casimir_commutes(alg, fermionic_rep(alg),
                                casimir_quadratic(build_series("A", 3)))


def test_representation_of_another_algebra_rejected(monkeypatch):
    # A3 has H4 and B2 has S1,2, which the A2 representation holds no
    # matrix for; each is named before any Fock action is computed
    rep = fermionic_rep(build_series("A", 2))
    applied = []
    monkeypatch.setattr(FockSpace, "apply",
                        lambda space, poly: applied.append(poly))
    for series, rank, label in (("A", 3, "H4"), ("B", 2, "S1,2")):
        alg = build_series(series, rank)
        match = f"{label} has no matrix in the A2 fermionic representation"
        with pytest.raises(ForeignGeneratorError, match=match):
            verify_rep_homomorphism(alg, rep)
        with pytest.raises(ForeignGeneratorError, match=match):
            verify_casimir_commutes(alg, rep, casimir_quadratic(alg))
    assert not applied


def test_lambda_out_of_range_rejected():
    alg = build_series("B", 1)
    with pytest.raises(SpecError):
        fermionic_rep(alg, lambdas={7: Scalar(1)})


def test_mutation_breaks_homomorphism():
    from drinfeld_forge import Element, mutate_bracket
    alg = build_series("B", 1)
    u, v = GeneratorId("U", 1), GeneratorId("V", 1)
    wrong = Element.gen(GeneratorId("H", 1)).scale(Scalar(2))
    mutated = mutate_bracket(alg, u, v, wrong)
    report = verify_rep_homomorphism(mutated, fermionic_rep(mutated))
    assert not report.passed

    # bosonic: [P1,1, Q1,1] doubled in C2
    alg = build_series("C", 2)
    p, q = parse_label("P1,1"), parse_label("Q1,1")
    mutated = mutate_bracket(alg, p, q,
                             alg.bracket_gens(p, q).scale(Scalar(2)))
    report = verify_rep_homomorphism(mutated, bosonic_rep(mutated, 6))
    assert not report.passed
    assert [v["pair"] for v in report.violations] == [["P1,1", "Q1,1"]]


def test_protected_columns_shrink_with_budget():
    alg = build_series("C", 1)
    rep = bosonic_rep(alg, 4)
    all_cols = dense.protected_columns(rep, 0)
    tight = dense.protected_columns(rep, 2)
    assert set(tight) < set(all_cols)
    assert len(all_cols) == rep.space_dim


def test_rep_size_estimate():
    # A7 at cutoff 6: 3003 states x 72 generators, admitted
    assert rep_size("A", 7, 6) == 3003 * 72 <= MAX_REP_SIZE
    assert rep_size("C", 1, 2) == 3 * 4
    assert rep_size("B", 2) == 4 * 12
    # a large fermionic rank is estimated without building anything
    assert rep_size("D", 40) == 2 ** 40 * (40 * 79 + 40)
    assert rep_size("D", 40) > MAX_REP_SIZE


def test_oversized_rep_rejected():
    with pytest.raises(SpecError, match="too large"):
        fermionic_rep(build_series("B", 12))


DIFFERENTIAL_FERMIONIC = [("A", 1), ("A", 2), ("A", 3), ("B", 1), ("B", 2),
                          ("B", 3), ("B", 4), ("D", 2), ("D", 3), ("D", 4),
                          ("D", 5)]
DIFFERENTIAL_BOSONIC = [("A", 1), ("A", 2), ("A", 3), ("C", 1), ("C", 2),
                        ("C", 3), ("C", 4)]
LAMBDAS = {
    "default": lambda n: None,
    "lambda1-zero": lambda n: {1: Scalar(0)},
    "lambda1-lambdaN": lambda n: {1: Scalar(Fraction(3, 2)), n: SQRT2},
}


def _same_matrices(alg, rep, want):
    assert set(rep.matrices) == set(want) == set(alg.basis)
    for gid in alg.basis:
        assert rep.matrix(gid).entries == want[gid].entries, gid.label


@pytest.mark.parametrize("charges", sorted(LAMBDAS))
@pytest.mark.parametrize("series,rank", DIFFERENTIAL_FERMIONIC)
def test_fermionic_matrices_equal_jordan_wigner_products(series, rank,
                                                         charges):
    # the builder applies each polynomial to the Fock states; the oracle
    # multiplies Jordan-Wigner matrices, one branch per generator kind
    alg = build_series(series, rank)
    lambdas = LAMBDAS[charges](cartan_count(series, rank))
    _same_matrices(alg, fermionic_rep(alg, lambdas),
                   dense.fermionic_matrices(alg, lambdas))


@pytest.mark.parametrize("charges", sorted(LAMBDAS))
@pytest.mark.parametrize("series,rank", DIFFERENTIAL_BOSONIC)
def test_bosonic_matrices_equal_occupation_products(series, rank, charges):
    alg = build_series(series, rank)
    lambdas = LAMBDAS[charges](cartan_count(series, rank))
    for cutoff in (2, 3, 4, 6):
        _same_matrices(alg, bosonic_rep(alg, cutoff, lambdas),
                       dense.bosonic_matrices(alg, cutoff, lambdas))
