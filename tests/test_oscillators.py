"""Normal ordering and the two cutoff-free stages of the rep checks.

`Oscillators` normal-orders words in b+/b (exchange sign +1) or a+/a
(sign -1) with one routine. Its products must act on Fock states exactly
as the factors applied in turn, and its commutator, which skips the pairs
of words on disjoint modes that commute, must equal the difference of the
two products. Stage 2 must accept every matrix the builders make, each
of which is its proof's cached Fock action, and count each entry off the
formula; each generator's image and its Fock action must be made once
per representation, shared by the builder and both stages; and stage 1
must clear every pair of an unmutated table and flag a mutated bracket
with the same report at every cutoff, also where no column the
truncation protects shows it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense

from drinfeld_forge import (I, CasimirElement, Element, Scalar, bosonic_rep,
                            build_series, casimir_double, casimir_quadratic,
                            fermionic_rep, mutate_bracket, parse_label,
                            verify_casimir_commutes, verify_rep_homomorphism)
from drinfeld_forge import oscillators
from drinfeld_forge.cli import main
from drinfeld_forge.linalg import accumulate
from drinfeld_forge.oscillators import (ANNIHILATE, CREATE, FockSpace,
                                        Oscillators, boson_act, fermion_act)
from drinfeld_forge.scalars import ONE

MODES = 3
FERMIONIC = (("A", 1), ("A", 2), ("A", 3), ("B", 1), ("B", 2), ("B", 3),
             ("D", 2), ("D", 3))
BOSONIC = (("A", 1), ("A", 2), ("C", 1), ("C", 2))
CUTOFFS = (2, 3, 4, 6)

LETTERS = st.tuples(st.sampled_from((CREATE, ANNIHILATE)),
                    st.integers(1, MODES))
QUADRATIC = st.tuples(LETTERS, LETTERS)
POLYNOMIAL = st.lists(st.tuples(st.lists(LETTERS, max_size=4).map(tuple),
                                st.integers(-3, 3).filter(bool)),
                      max_size=4)
STATISTICS = {
    "bosonic": (1, boson_act,
                st.tuples(*[st.integers(0, 4)] * MODES)),
    "fermionic": (-1, fermion_act, st.integers(0, (1 << MODES) - 1)),
}


def _apply(act, poly, state) -> dict:
    """A polynomial on one Fock state: state -> amplitude."""
    out = {}
    for word, coeff in poly.items():
        moved = act(word, state)
        if moved is not None:
            accumulate(out, moved[1], coeff * moved[0])
    return out


def _in_turn(act, words, state) -> dict:
    """The words applied one after another, the last one first."""
    factor = 1
    for word in reversed(words):
        moved = act(word, state)
        if moved is None:
            return {}
        factor *= moved[0]
        state = moved[1]
    return {state: Scalar(factor)}


def _is_normal(word, sign) -> bool:
    pairs = list(zip(word, word[1:]))
    return all(x < y or (x == y and sign > 0) for x, y in pairs)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(STATISTICS)), QUADRATIC, QUADRATIC, st.data())
def test_normal_ordered_product_acts_as_the_product(kind, first, second,
                                                    data):
    sign, act, states = STATISTICS[kind]
    osc = Oscillators(sign)
    state = data.draw(states)
    product = osc.product(osc.normal({first: ONE}), osc.normal({second: ONE}))
    assert all(_is_normal(word, sign) for word in product)
    assert _apply(act, product, state) == _in_turn(act, (first, second),
                                                    state)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(STATISTICS)),
       st.lists(LETTERS, max_size=6).map(tuple), st.data())
def test_normal_ordered_word_acts_as_the_word(kind, word, data):
    sign, act, states = STATISTICS[kind]
    state = data.draw(states)
    ordered = Oscillators(sign).multiply((), word)
    assert all(_is_normal(w, sign) for w in ordered)
    poly = {w: Scalar(n) for w, n in ordered.items()}
    assert _apply(act, poly, state) == _in_turn(act, (word,), state)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(STATISTICS)), POLYNOMIAL, POLYNOMIAL)
def test_commutator_is_the_difference_of_products(kind, left, right):
    # the commutator skips even pairs of words on disjoint modes; the
    # products it is compared with take every pair
    osc = Oscillators(STATISTICS[kind][0])
    left, right = (osc.normal({w: Scalar(c) for w, c in terms})
                   for terms in (left, right))
    want = osc.product(left, right)
    for word, value in osc.product(right, left).items():
        accumulate(want, word, -value)
    assert osc.commutator(left, right) == want


def test_exchange_relations():
    b, bd = (ANNIHILATE, 1), (CREATE, 1)
    c, cd = (ANNIHILATE, 2), (CREATE, 2)
    bosons, fermions = Oscillators(1), Oscillators(-1)
    assert bosons.multiply((), (b, bd)) == {(bd, b): 1, (): 1}
    assert bosons.multiply((), (b, b, bd)) == {(bd, b, b): 1, (b,): 2}
    assert bosons.multiply((), (cd, bd)) == {(bd, cd): 1}
    assert fermions.multiply((), (b, bd)) == {(bd, b): -1, (): 1}
    assert fermions.multiply((), (cd, bd)) == {(bd, cd): -1}
    assert fermions.multiply((), (c, bd)) == {(bd, c): -1}
    assert fermions.multiply((), (b, b)) == {}
    assert fermions.multiply((), (bd, cd, bd)) == {}
    # disjoint modes: even words commute, odd fermionic ones anticommute
    assert bosons.commutator({(bd,): ONE}, {(c,): ONE}) == {}
    assert fermions.commutator({(bd, b): ONE}, {(cd,): ONE}) == {}
    assert fermions.commutator({(bd,): ONE}, {(cd,): ONE}) == {
        (bd, cd): Scalar(2)}


def _reps():
    for series, rank in FERMIONIC:
        alg = build_series(series, rank)
        yield f"{series}{rank}", alg, fermionic_rep(alg)
    for series, rank in BOSONIC:
        alg = build_series(series, rank)
        for cutoff in CUTOFFS:
            yield (f"{series}{rank} cutoff {cutoff}", alg,
                   bosonic_rep(alg, cutoff))


def test_stage2_accepts_every_built_matrix():
    # a built matrix is its proof's cached action itself
    for label, alg, rep in _reps():
        assert all(rep.matrix(gid).entries is rep.proof.action(gid)
                   for gid in alg.basis), label
        assert not any(rep.wrong_entries(gid) for gid in alg.basis), label


def test_unmutated_grid_never_falls_back():
    # the verdicts read polynomials and each matrix once, unmutated or
    # with a bracket, a matrix entry or a Casimir term edited
    for label, alg, rep in _reps():
        casimirs = (casimir_quadratic(alg), casimir_double(alg))
        assert verify_rep_homomorphism(alg, rep).passed, label
        for cas in casimirs:
            assert verify_casimir_commutes(alg, rep, cas).passed, label
        p, q = alg.basis[-2:]
        mutated = mutate_bracket(alg, p, q, alg.bracket_gens(p, q)
                                 + Element.gen(alg.basis[0]))
        assert not verify_rep_homomorphism(mutated, rep).passed, label
        gid = alg.basis[-1]
        key = next(iter(rep.matrix(gid).entries))
        case = dense.with_entry(rep, gid, key, Scalar(7))
        assert not verify_rep_homomorphism(alg, case).passed, label
        x, y, kind = casimirs[0].terms[-1]
        lopsided = CasimirElement(
            casimirs[0].terms[:-1] + ((x.scale(Scalar(2)), y, kind),),
            "quadratic")
        for cas in casimirs + (lopsided,):
            assert not verify_casimir_commutes(alg, case, cas).passed, label
        # (a lopsided Casimir can stay central in a small representation)
        report = verify_casimir_commutes(alg, rep, lopsided)
        assert report.checked == alg.dim, label


def test_casimir_polynomial_is_the_casimir_matrix():
    # the polynomial stage 1 commutes is the Casimir the matrices build, on
    # every column of total occupation at most cutoff - raise budget
    for label, alg, rep in _reps():
        proof = rep.proof
        act = fermion_act if rep.cutoff is None else boson_act
        states = rep.space.states
        index_of = {state: pos for pos, state in enumerate(states)}
        for cas in (casimir_quadratic(alg), casimir_double(alg)):
            poly = proof.casimir(cas)
            matrix = dense.casimir_matrix(rep, cas)
            budget = dense.raise_budget(cas)
            for col in dense.protected_columns(rep, budget):
                want = {(row, c): value for (row, c), value
                        in matrix.entries.items() if c == col}
                got = {(index_of[state], col): value for state, value
                       in _apply(act, poly, states[col]).items()}
                assert got == want, (label, cas.label, col)


def test_stage1_flags_a_mutated_bracket():
    alg = build_series("C", 2)
    rep = bosonic_rep(alg, 4)
    proof = rep.proof
    p, q = parse_label("P1,1"), parse_label("Q1,1")
    bracket = alg.bracket_gens(p, q)
    assert proof.pair_residual(p, q, bracket) == {}
    assert proof.pair_residual(p, q, bracket.scale(Scalar(2)))
    mutated = mutate_bracket(alg, p, q, bracket.scale(Scalar(2)))
    report = verify_rep_homomorphism(mutated, rep)
    assert [v["pair"] for v in report.violations] == [["P1,1", "Q1,1"]]


def test_stage1_flags_what_no_protected_column_shows():
    # C2 with [P1,2, P2,2] := i Q1,2: the residual i b_1 b_2 moves only
    # |1,1>, and at cutoff 4 the pair protects only the vacuum; the report
    # is the residual's at every cutoff
    alg = build_series("C", 2)
    p, q = parse_label("P1,2"), parse_label("P2,2")
    mutated = mutate_bracket(alg, p, q, Element.gen(parse_label("Q1,2"), I))
    for cutoff in CUTOFFS:
        report = verify_rep_homomorphism(mutated, bosonic_rep(alg, cutoff))
        assert report.violations == [{"pair": ["P1,2", "P2,2"],
                                      "monomials": 1}], cutoff

    # the C1 Casimir with its anticommutator doubled: at cutoff 2, P1,1
    # protects no column and Q1,1 only the vacuum, which [C, rho(Q1,1)]
    # leaves alone
    c1 = build_series("C", 1)
    (h, _, square), (x, y, anti) = casimir_quadratic(c1).terms
    cas = CasimirElement([(h, None, square), (x.scale(Scalar(2)), y, anti)],
                         "quadratic")
    for cutoff in CUTOFFS:
        report = verify_casimir_commutes(c1, bosonic_rep(c1, cutoff), cas)
        assert report.violations == [{"gen": "P1,1", "monomials": 2},
                                     {"gen": "Q1,1", "monomials": 2}], cutoff
        assert not report.details


def test_stage2_flags_an_entry_off_the_formula():
    alg = build_series("D", 3)
    rep = fermionic_rep(alg)
    assert verify_rep_homomorphism(alg, rep).passed
    f12 = parse_label("F1,2")
    case = dense.with_entry(rep, f12, (0, 0), Scalar(1))
    # the edited copy gets its own proof, which applies the polynomial
    # afresh, not the cached action its edited matrix was copied from
    assert case.proof is not rep.proof and not rep.wrong_entries(f12)
    assert case.wrong_entries(f12) == 1
    assert not any(case.wrong_entries(gid) for gid in alg.basis
                   if gid != f12)
    wrong = [{"matrix": "F1,2", "entries": 1}]
    assert verify_rep_homomorphism(alg, case).violations == wrong
    # a central charge moved off its table value
    case = dense.with_entry(rep, parse_label("I1"), (3, 3), Scalar(2))
    assert case.wrong_entries(parse_label("I1")) == 1

    # C2 at cutoff 4 with the rho(F1,2) entry taking |0,2> to |1,1>
    # doubled: a matrix violation of both checks, while the Casimir
    # polynomial still commutes with every image (doubling the entry that
    # takes |0,1> to |1,0> would keep the Casimir matrix central on the
    # one-particle states)
    alg = build_series("C", 2)
    rep = bosonic_rep(alg, 4)
    key = next(k for k in rep.matrix(f12).entries
               if rep.space.states[k[1]] == (0, 2))
    case = dense.with_entry(rep, f12, key, rep.matrix(f12).entries[key] * Scalar(2))
    assert verify_rep_homomorphism(alg, case).violations == wrong
    for cas in (casimir_quadratic(alg), casimir_double(alg)):
        assert verify_casimir_commutes(alg, case, cas).violations == wrong


def test_stage2_runs_once_per_generator(monkeypatch):
    # the builder and the gates of `rep` and `casimir` read each
    # generator's one cached Fock action, so `FockSpace.apply` runs exactly
    # once per (representation, generator); the representations of one run
    # differ in statistics
    calls = []
    real = FockSpace.apply

    def spy(self, poly):
        calls.append(self.cutoff is None)
        return real(self, poly)

    monkeypatch.setattr(FockSpace, "apply", spy)
    for series in ("A", "B", "C"):
        calls.clear()
        assert main(["verify", "--series", series, "--rank", "2",
                     "--checks", "rep,casimir", "--cutoff", "4"]) == 0
        dim = build_series(series, 2).dim
        kinds = (True, False) if series == "A" else (series == "B",)
        assert sorted(calls) == sorted(kinds * dim), series


def test_each_image_is_made_once_per_representation(monkeypatch):
    # the builder, stage 1 and stage 2 read one proof per representation,
    # so each generator's image is made once per (representation,
    # generator); the representations of one run differ in statistics
    calls = []
    real = oscillators.oscillator_image

    def spy(gid, fermionic, lambdas):
        calls.append((fermionic, gid))
        return real(gid, fermionic, lambdas)

    monkeypatch.setattr(oscillators, "oscillator_image", spy)
    for series in ("A", "B", "C"):
        calls.clear()
        assert main(["verify", "--series", series, "--rank", "2",
                     "--checks", "rep,casimir", "--cutoff", "4"]) == 0
        reps = 2 if series == "A" else 1
        dim = build_series(series, 2).dim
        assert len(calls) == len(set(calls)) == reps * dim, series
