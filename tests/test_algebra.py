"""Series construction, bracket identities, and structural invariants."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import dense_reference as dense
from drinfeld_forge import (ClosureError, Element, ForeignGeneratorError,
                            GeneratorId, RankError, Scalar, build_series,
                            dimension, enumerate_generators, mirror,
                            mutate_bracket, parse_label, positive_roots,
                            shift_generator, split, validate_series_rank,
                            verify_jacobi, weight)
from drinfeld_forge.algebra import LieAlgebra
from drinfeld_forge.generators import EXCHANGE, symbol

JACOBI_GRID = ([("A", r) for r in (1, 2, 3, 4)]
               + [("B", r) for r in (1, 2, 3)]
               + [("C", r) for r in (1, 2, 3)]
               + [("D", r) for r in (2, 3, 4)])

SMALL_GRID = [("A", 1), ("A", 2), ("B", 1), ("B", 2), ("C", 1), ("C", 2),
              ("D", 2), ("D", 3)]


def hgen(i):
    return GeneratorId("H", i)


@pytest.mark.parametrize("series,rank,dim", [
    ("A", 1, 6), ("A", 2, 12), ("B", 1, 4), ("B", 2, 12), ("B", 3, 24),
    ("C", 1, 4), ("C", 2, 12), ("C", 3, 24), ("D", 2, 8), ("D", 3, 18),
])
def test_dimensions(series, rank, dim):
    assert dimension(series, rank) == dim
    assert build_series(series, rank).dim == dim


def test_d_series_needs_rank_two():
    with pytest.raises(RankError):
        validate_series_rank("D", 1)
    with pytest.raises(RankError):
        build_series("D", 1)
    with pytest.raises(RankError):
        validate_series_rank("A", 0)


def test_basis_order_blocks():
    alg = build_series("B", 2)
    kinds = [gid.kind for gid in alg.basis]
    assert kinds[:2] == ["H", "H"]
    assert kinds[2:4] == ["I", "I"]
    positives = positive_roots("B", 2)
    assert [g.kind for g in positives] == ["F", "S", "U", "U"]
    mirrored = [mirror(g) for g in positives]
    assert list(alg.basis[4:8]) == positives
    assert list(alg.basis[8:]) == mirrored


def test_labels_round_trip():
    for series, rank in SMALL_GRID:
        for gid in build_series(series, rank).basis:
            assert parse_label(gid.label) == gid


@pytest.mark.parametrize("series,rank", JACOBI_GRID)
def test_jacobi(series, rank):
    report = verify_jacobi(build_series(series, rank))
    assert report.passed, report.to_dict()


def test_bracket_oracles():
    alg = build_series("A", 1)
    f12, f21 = GeneratorId("F", 1, 2), GeneratorId("F", 2, 1)
    out = alg.bracket_gens(f12, f21)
    assert out == Element.gen(hgen(1)) - Element.gen(hgen(2))
    assert alg.bracket_gens(hgen(1), f12) == Element.gen(f12)

    c = build_series("C", 1)
    p, q = GeneratorId("P", 1, 1), GeneratorId("Q", 1, 1)
    assert c.bracket_gens(hgen(1), p) == Element.gen(p).scale(Scalar(2))
    assert c.bracket_gens(p, q) == Element.gen(hgen(1)).scale(Scalar(2))

    b = build_series("B", 1)
    u, v = GeneratorId("U", 1), GeneratorId("V", 1)
    assert b.bracket_gens(u, v) == Element.gen(hgen(1))
    assert b.bracket_gens(u, u).is_zero()

    d = build_series("D", 2)
    s, t = GeneratorId("S", 1, 2), GeneratorId("T", 1, 2)
    assert d.bracket_gens(s, t) == Element.gen(hgen(1)) + Element.gen(hgen(2))


def test_sp_diagonal_collision_rule():
    # the creation index of F wins both matrix-unit collisions
    c = build_series("C", 2)
    f12 = GeneratorId("F", 1, 2)
    out = c.bracket_gens(f12, GeneratorId("P", 2, 2))
    assert out == Element.gen(GeneratorId("P", 1, 2)).scale(Scalar(0, 0, 1))


def test_symbol_diagonal_carries_sqrt2_on_p_and_q():
    for kind in "PQ":
        assert symbol(kind, 2, 2) == (GeneratorId(kind, 2, 2),
                                      Scalar(0, 0, 1))


def test_symbol_diagonal_vanishes_on_s_and_t():
    for kind in "ST":
        assert symbol(kind, 3, 3) == (None, Scalar(0))


@pytest.mark.parametrize("kind,eps", [("P", 1), ("Q", 1), ("S", -1),
                                      ("T", -1)])
def test_symbol_reversed_pair_takes_the_exchange_sign(kind, eps):
    assert EXCHANGE[kind] == Scalar(eps)
    assert symbol(kind, 1, 3) == (GeneratorId(kind, 1, 3), Scalar(1))
    assert symbol(kind, 3, 1) == (GeneratorId(kind, 1, 3), Scalar(eps))


@pytest.mark.parametrize("kind", ["F", "H", "I", "U", "V", "X", "x"])
def test_symbol_refuses_f_and_one_index_kinds(kind):
    with pytest.raises(ValueError, match="does not apply"):
        symbol(kind, 1, 2)


def test_centrals_commute():
    for series, rank in SMALL_GRID:
        alg = build_series(series, rank)
        for i in range(1, alg.n_indices + 1):
            ic = GeneratorId("I", i)
            for gid in alg.basis:
                assert alg.bracket_gens(ic, gid).is_zero()


def test_antisymmetry_and_linearity():
    alg = build_series("C", 2)
    for p, q in itertools.combinations(alg.basis, 2):
        assert alg.bracket_gens(p, q) == -alg.bracket_gens(q, p)
    a = Element.gen(GeneratorId("P", 1, 2)).scale(Scalar(3))
    b = Element.gen(GeneratorId("Q", 1, 1))
    b.add_term(GeneratorId("H", 2), Scalar(0, 1))
    lhs = alg.bracket(a, b)
    rhs = (alg.bracket_gens(GeneratorId("P", 1, 2), GeneratorId("Q", 1, 1))
           .scale(Scalar(3))
           + alg.bracket_gens(GeneratorId("P", 1, 2), GeneratorId("H", 2))
           .scale(Scalar(0, 3)))
    assert lhs == rhs


# The weights of the root system, kind -> coefficients of e_i and e_j:
# F_ij has e_i - e_j, P_ij and S_ij e_i + e_j (so P_ii has 2 e_i), Q and T
# the negatives, U_i e_i, V_i -e_i, and H and I weight 0.
ROOT_WEIGHTS = {"F": (1, -1), "P": (1, 1), "S": (1, 1), "Q": (-1, -1),
                "T": (-1, -1), "U": (1,), "V": (-1,), "H": (), "I": ()}


def test_weight_grading():
    # `build_series` reads its Cartan rows from `weight`, so both are held
    # to the weights written out above, not to each other
    for series, rank in SMALL_GRID:
        alg = build_series(series, rank)
        n = alg.n_indices
        for gid in alg.basis:
            want = [0] * n
            for index, coeff in zip((gid.i, gid.j), ROOT_WEIGHTS[gid.kind]):
                want[index - 1] += coeff
            assert weight(gid, n) == tuple(want), (series, rank, gid.label)
            for k in range(1, n + 1):
                out = alg.bracket_gens(hgen(k), gid)
                assert out == Element.gen(gid).scale(Scalar(want[k - 1])), (
                    series, rank, gid.label, k)


def test_mirror_is_an_involution():
    # of every basis, fixing exactly H and I
    for series, rank in SMALL_GRID:
        for gid in enumerate_generators(series, rank):
            assert mirror(mirror(gid)) == gid
            assert (mirror(gid) == gid) == (gid.kind in ("H", "I"))
    with pytest.raises(ValueError):
        mirror(GeneratorId("X", 1))


THETA_GRID = ([("A", r) for r in range(1, 9)]
              + [("B", r) for r in range(1, 8)]
              + [("C", r) for r in range(1, 8)]
              + [("D", r) for r in range(2, 9)])


def theta_violations(alg) -> list[str]:
    """Pairs (p, q) of basis members with theta([p, q]) != [theta p,
    theta q], for the Chevalley involution theta(g) = -mirror(g), H and I
    their own mirrors. The two signs of the right side cancel, so it reads
    [mirror p, mirror q]."""
    bad = []
    for p, q in itertools.combinations(alg.basis, 2):
        out = Element()
        for gid, coeff in alg.bracket_gens(p, q).terms():
            out.add_term(mirror(gid), -coeff)
        if out != alg.bracket_gens(mirror(p), mirror(q)):
            bad.append(f"[{p.label}, {q.label}]")
    return bad


@pytest.mark.parametrize("series,rank", THETA_GRID,
                         ids=[f"{s}{r}" for s, r in THETA_GRID])
def test_theta_is_an_automorphism(series, rank):
    # the builder reads every lowering pair through theta, so on those
    # pairs this holds by construction; on the self-dual rules ([F, F],
    # [P, Q], [S, T], [U, V]) and on the Cartan rows, read from `weight`,
    # it is a check of the rules as written
    assert theta_violations(build_series(series, rank)) == []


def test_theta_check_sees_a_broken_self_dual_rule():
    alg = build_series("B", 2)
    u1, v2, f12 = (GeneratorId("U", 1), GeneratorId("V", 2),
                   GeneratorId("F", 1, 2))
    # [U1, V2] = F1,2 and [U2, V1] = F2,1 are each other's images, so
    # doubling one of them breaks theta on both
    broken = mutate_bracket(alg, u1, v2, Element.gen(f12, 2))
    assert theta_violations(broken) == ["[U1, V2]", "[U2, V1]"]


def test_enumerate_matches_dimension():
    for series, rank in SMALL_GRID:
        basis = enumerate_generators(series, rank)
        assert len(basis) == dimension(series, rank)
        assert len(set(basis)) == len(basis)


def test_foreign_generator_rejected():
    alg = build_series("A", 1)
    with pytest.raises(ForeignGeneratorError):
        alg.bracket_gens(GeneratorId("P", 1, 1), hgen(1))
    with pytest.raises(ForeignGeneratorError):
        alg.bracket(GeneratorId("P", 1, 1), hgen(1))


def test_element_bracket_rejects_a_foreign_table_entry():
    # the adjoint index checks every entry on the first element bracket,
    # so [H1, F1,2] raises though only [F1,2, F2,3] := F1,4 is foreign
    alg = build_series("A", 2)
    f12, f23, f14 = (GeneratorId("F", 1, 2), GeneratorId("F", 2, 3),
                     GeneratorId("F", 1, 4))
    stray = mutate_bracket(alg, f12, f23, Element.gen(f14))
    with pytest.raises(ForeignGeneratorError):
        stray.bracket(hgen(1), f12)


def test_mutation_breaks_jacobi():
    # trace direction instead of the Cartan difference
    alg = build_series("A", 2)
    f12, f21 = GeneratorId("F", 1, 2), GeneratorId("F", 2, 1)
    target = Element.gen(hgen(1)) + Element.gen(hgen(2))
    mutated = mutate_bracket(alg, f12, f21, target)
    assert not verify_jacobi(mutated).passed
    # the original instance is untouched
    assert verify_jacobi(alg).passed


def test_weight_mutation_breaks_jacobi():
    alg = build_series("A", 1)
    f12 = GeneratorId("F", 1, 2)
    mutated = mutate_bracket(alg, hgen(1), f12,
                             Element.gen(f12).scale(Scalar(2)))
    assert not verify_jacobi(mutated).passed


def test_mutation_is_orientation_normalized():
    alg = build_series("A", 1)
    f12, f21 = GeneratorId("F", 1, 2), GeneratorId("F", 2, 1)
    target = Element.gen(hgen(1))
    mutated = mutate_bracket(alg, f21, f12, target)
    assert mutated.bracket_gens(f21, f12) == target
    assert mutated.bracket_gens(f12, f21) == -target


def _with_key_reversed(alg, p, q, value):
    """alg's table with the entry under (p, q) moved to the key (q, p),
    holding `value`."""
    table = dict(alg.table)
    del table[(p, q)]
    table[(q, p)] = value
    return table


def test_table_refuses_a_key_out_of_basis_order():
    # the key (F2,1, F1,2) holding the correct [F2,1, F1,2] describes the
    # same algebra, and holding [F1,2, F2,1] flips its sign; every reader
    # takes the sign from basis order, so both are refused, and no reader
    # sees either
    alg = build_series("A", 2)
    f12, f21 = GeneratorId("F", 1, 2), GeneratorId("F", 2, 1)
    args = (alg.series, alg.rank, alg.basis)
    for value in (-alg.table[(f12, f21)], alg.table[(f12, f21)]):
        table = _with_key_reversed(alg, f12, f21, value)
        with pytest.raises(ValueError, match=r"\(F2,1, F1,2\) is out of "
                                             r"basis order"):
            LieAlgebra(*args, table, alg.n_indices)
    # a pair stored in both orders, and a diagonal key
    both = {**alg.table, (f21, f12): -alg.table[(f12, f21)]}
    with pytest.raises(ValueError, match=r"\(F2,1, F1,2\) is stored in "
                                         r"both orders"):
        LieAlgebra(*args, both, alg.n_indices)
    with pytest.raises(ValueError, match="diagonal"):
        LieAlgebra(*args, {(f12, f12): Element.gen(f12)}, alg.n_indices)
    # a key that is not a member
    with pytest.raises(ForeignGeneratorError):
        LieAlgebra(*args, {(f12, GeneratorId("F", 1, 4)): Element.gen(f12)},
                   alg.n_indices)


def test_mixed_split_shares_the_table_of_its_series():
    # a mixed splitting drops unpaired centrals, a subsequence of the basis,
    # so the parent's table keeps its orientation and is handed over as is
    triple = split("D", 3, "mixed:pairs=1-2")
    full = build_series("D", 3)
    assert triple.double.dim < full.dim
    assert triple.double.table is full.table
    assert verify_jacobi(triple.double).passed


def test_table_and_adjoint_rows_are_read_only():
    # the lru_cached instance is shared by every caller in the process,
    # so neither its table nor its index may be edited in place
    alg = build_series("A", 2)
    assert build_series("A", 2) is alg
    f12, f21 = GeneratorId("F", 1, 2), GeneratorId("F", 2, 1)
    rows = alg.adjoint()
    with pytest.raises(TypeError):
        alg.table[(f12, f21)] = Element()
    with pytest.raises(TypeError):
        del alg.table[(f12, f21)]
    with pytest.raises(TypeError):
        rows[f12][f21] = Element()
    with pytest.raises(TypeError):
        rows[f12] = {}
    assert verify_jacobi(alg).passed


def test_restrict_requires_closure():
    alg = build_series("B", 2)
    keep = [gid for gid in alg.basis if gid.kind in ("H", "U")]
    with pytest.raises(ClosureError):
        dense.restrict(alg, keep)


def test_restrict_keeps_subtable():
    alg = build_series("A", 2)
    keep = [gid for gid in alg.basis if gid.kind in ("H", "F")]
    sub = dense.restrict(alg, keep)
    assert sub.dim == len(keep)
    f12, f23 = GeneratorId("F", 1, 2), GeneratorId("F", 2, 3)
    assert sub.bracket_gens(f12, f23) == alg.bracket_gens(f12, f23)


def test_restrict_out_of_basis_order_keeps_every_bracket():
    # the sub-algebra reads its keys in the order of keep, not the parent's
    alg = build_series("A", 2)
    keep = [gid for gid in reversed(alg.basis) if gid.kind in ("H", "F")]
    sub = dense.restrict(alg, keep)
    for p, q in itertools.product(keep, repeat=2):
        assert sub.bracket_gens(p, q) == alg.bracket_gens(p, q), (p, q)
        assert sub.bracket(p, q) == alg.bracket(p, q), (p, q)
    assert len(list(sub.entries())) == len(list(alg.entries())) > 0
    assert verify_jacobi(sub).passed


def test_identity_injection_embeds_brackets():
    # rank n tables sit inside rank n+1 verbatim, for every series
    for series, rank in [("A", 2), ("B", 1), ("C", 2), ("D", 2)]:
        small = build_series(series, rank)
        big = build_series(series, rank + 1)
        for a, b in itertools.combinations(small.basis, 2):
            assert big.bracket_gens(a, b) == small.bracket_gens(a, b)


def test_shift_generator():
    assert shift_generator(GeneratorId("F", 1, 3), 1) == GeneratorId("F", 2, 4)
    assert shift_generator(GeneratorId("U", 2), 2) == GeneratorId("U", 4)
    assert shift_generator(hgen(1), 1) == hgen(2)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_GRID), st.data())
def test_jacobi_identity_random_triples(grid_point, data):
    series, rank = grid_point
    alg = build_series(series, rank)
    pick = st.sampled_from(list(alg.basis))
    x, y, z = data.draw(pick), data.draw(pick), data.draw(pick)
    total = (alg.bracket(alg.bracket_gens(x, y), Element.gen(z))
             + alg.bracket(alg.bracket_gens(y, z), Element.gen(x))
             + alg.bracket(alg.bracket_gens(z, x), Element.gen(y)))
    assert total.is_zero()
