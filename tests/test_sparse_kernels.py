"""Differential tests: the support-driven kernels against the dense loops.

jacobi, compatibility, forminv, crossed_brackets, cocycle, cojacobi,
coboundary, twist, cybe, the structure tensors and chain accumulate their
residuals from the nonzero structure constants only, the bialgebra ones
through the adjoint index; closure shares the structure tensors' walk,
and reconstruction brackets every crossed pair through the index. On
canonical and mixed splittings, and on seeded mutations of the brackets
and of the pairing, their reports
(checked counts, violation lists in order, residuals, values, truncation
counts), their crossed-bracket dicts and their structure tensors (key
order included) must equal the dense enumeration in
tests/dense_reference.py exactly, and an input that leaves a half
unclosed must raise the same error. cocycle, cojacobi and coboundary are
compared against the cocommutator derived from each input and against
the one of the unmutated splitting, and on seeded edits of the
cocommutator table itself; chain on seeded mutations of the receiving
double. Guards patch the pair walks to raise inside the joined kernels:
`bracket_gens`, the reference `ad_wedge`, and `LieAlgebra.bracket` on a
pair with no term pair that brackets to a nonzero value. Other tests
check that every memo of a triple starts empty on the copies the
mutation helpers return.

The representation homomorphism and Casimir checks decide each pair or
generator by normal ordering alone, and hold each matrix to its
polynomial. On the oscillator grids at several cutoffs, unmutated and with
one matrix entry doubled or added, one bracket entry rescaled or extended,
or one root anticommutator of a Casimir rescaled or dropped, they are
compared with the whole-matrix loops, which count residual entries on the
columns the truncation protects. Each edited matrix is a violation of its
own, with the number of entries in which it differs from the oracle's
matrix, and the one verdict never passes where the loops fail. Where
every matrix follows its polynomial, the pairs and generators it flags
contain those the loops flag, and equal them on a fermionic
representation, which is not truncated, or else equal those the loops
flag at a cutoff 6 higher.

The Casimir ad-invariance report joins the nonzero brackets with the
Casimir tensor's factors. On canonical and mixed doubles, with one bracket
entry rescaled or extended, or one root anticommutator of a Casimir
rescaled or dropped, it must equal the walk over every generator and
tensor term.
"""

import random

import pytest

import dense_reference as dense
from drinfeld_forge import (I, SQRT2, CasimirElement, CocommutatorTable,
                            Element, GeneratorId, Scalar,
                            ad_invariance_report, bosonic_rep, build_series,
                            canonical_triple, casimir_double,
                            casimir_quadratic, cocommutator_from_structure,
                            crossed_brackets, fermionic_rep, mutate_bracket,
                            perturb_pairing, rescale_minus, split,
                            structure_tensors, verify_casimir_commutes,
                            verify_chain_embedding, verify_closure,
                            verify_coboundary, verify_cocycle,
                            verify_cojacobi, verify_compatibility,
                            verify_cybe, verify_form_invariance,
                            verify_jacobi, verify_reconstruction,
                            verify_rep_homomorphism, verify_self_duality,
                            verify_twist, wedge_insert, with_double)
from drinfeld_forge.algebra import LieAlgebra
from drinfeld_forge.errors import (ClosureError, ForeignGeneratorError,
                                   SpecError)

INSTANCES = (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
             ("C", 2), ("C", 3), ("D", 3), ("D", 4))
MIXED = (("D", 3, "mixed:pairs=1-2"), ("A", 3, "mixed:pairs=1-3"))
FACTORS = (Scalar(2), Scalar(3), SQRT2, I)
FERMIONIC = (("A", 1), ("A", 2), ("A", 3), ("B", 1), ("B", 2), ("B", 3),
             ("D", 2), ("D", 3))
BOSONIC = (("A", 1), ("A", 2), ("C", 1), ("C", 2))
CUTOFFS = (2, 3, 4, 6)


def _mutated_brackets(triple, rng, count):
    """Triples over doubles with one table entry rescaled or extended."""
    alg = triple.double
    out = []
    for _ in range(count):
        p, q = rng.sample(alg.basis, 2)
        value = alg.bracket_gens(p, q)
        if value and rng.random() < 0.5:
            value = value.scale(rng.choice(FACTORS))
        else:
            # a term where the bracket may have been zero before
            value = value + Element.gen(rng.choice(alg.basis),
                                        rng.choice(FACTORS))
        out.append((f"[{p.label}, {q.label}]",
                    with_double(triple, mutate_bracket(alg, p, q, value))))
    return out


def _scrambled(triple, rng):
    """Every table entry scaled by 1, 2 or 3: violations past the cap."""
    alg = triple.double
    table = {key: entry.scale(Scalar(rng.choice((1, 2, 3))))
             for key, entry in alg.table.items()}
    return with_double(triple, LieAlgebra(alg.series, alg.rank, alg.basis,
                                          table, alg.n_indices))


def _inputs(triple, seed):
    rng = random.Random(seed)
    out = [("unmutated", triple)]
    out.extend(_mutated_brackets(triple, rng, 2))
    mgid, pgid = rng.choice(triple.sminus), rng.choice(triple.splus)
    out.append((f"pairing {mgid.label},{pgid.label}",
                perturb_pairing(triple, mgid, pgid, rng.choice(FACTORS))))
    out.append(("rescaled", rescale_minus(triple, rng.choice(FACTORS))))
    return out


def _outcome(thunk):
    """The report of a check as a dict, or the error it raises (a mutated
    table can leave a half of the splitting unclosed)."""
    try:
        return thunk().to_dict()
    except (ClosureError, SpecError) as err:
        return repr(err)


def _crossed(kernel, triple):
    try:
        out = kernel(triple)
    except (ClosureError, SpecError) as err:
        return repr(err)
    return list(out.items())


def _tensors(kernel, triple):
    """Both structure tensors with every dict in key order, or the error."""
    try:
        tensors = kernel(triple)
    except ClosureError as err:
        return repr(err)
    return [[(key, list(vec.items())) for key, vec in tensor.items()]
            for tensor in tensors]


def _table(triple):
    try:
        return cocommutator_from_structure(triple)
    except (ClosureError, SpecError) as err:
        return repr(err)


def _assert_same(triple, label, base):
    assert (verify_jacobi(triple.double).to_dict()
            == dense.verify_jacobi(triple.double).to_dict()), label
    assert (verify_closure(triple).to_dict()
            == dense.verify_closure(triple).to_dict()), label
    assert (verify_reconstruction(triple).to_dict()
            == dense.verify_reconstruction(triple).to_dict()), label
    assert (verify_compatibility(triple).to_dict()
            == dense.verify_compatibility(triple).to_dict()), label
    assert (verify_form_invariance(triple).to_dict()
            == dense.verify_form_invariance(triple).to_dict()), label
    assert (_crossed(crossed_brackets, triple)
            == _crossed(dense.crossed_brackets, triple)), label
    assert (_tensors(structure_tensors, triple)
            == _tensors(dense.structure_tensors_pairwise, triple)), label
    alg = triple.double
    # against its own cocommutator, and against the unmutated one
    for source in (triple, base):
        table = _table(source)
        if isinstance(table, str):
            # the error of the structure tensors it is read off
            assert table == _tensors(dense.structure_tensors_pairwise,
                                     source), label
            continue
        for kernel, reference in ((verify_cocycle, dense.verify_cocycle),
                                  (verify_cojacobi, dense.verify_cojacobi)):
            assert (kernel(alg, table).to_dict()
                    == reference(alg, table).to_dict()), (label, kernel)
        for cartan in (True, False):
            assert (verify_coboundary(triple, table, cartan).to_dict()
                    == dense.verify_coboundary(triple, table,
                                               cartan).to_dict()), label
    assert (_outcome(lambda: verify_twist(triple))
            == _outcome(lambda: dense.verify_twist(triple))), label
    assert (verify_cybe(triple).to_dict()
            == dense.verify_cybe(triple).to_dict()), label


@pytest.mark.parametrize("series,rank", INSTANCES)
def test_kernels_match_dense_canonical(series, rank):
    triple = canonical_triple(series, rank)
    for label, case in _inputs(triple, f"{series}{rank}"):
        _assert_same(case, f"{series}{rank} {label}", triple)


@pytest.mark.parametrize("series,rank,spec", MIXED)
def test_kernels_match_dense_mixed(series, rank, spec):
    triple = split(series, rank, spec)
    for label, case in _inputs(triple, spec):
        _assert_same(case, f"{series}{rank} {spec} {label}", triple)


@pytest.mark.parametrize("series,rank", [("A", 4), ("D", 4)])
def test_kernels_match_dense_past_the_violation_cap(series, rank):
    triple = canonical_triple(series, rank)
    case = _scrambled(triple, random.Random(f"scrambled {series}{rank}"))
    report = verify_jacobi(case.double)
    assert report.details["violations_truncated"] > 0
    _assert_same(case, f"{series}{rank} scrambled", triple)


def _mutated_deltas(alg, table, rng):
    """The cocommutator table with one wedge term added to a delta(g), one
    dropped from a delta(g), one added to the delta of a central I_i, and
    one added whose factor has no bracket partner."""
    partnered = {pos for pu, pv, _ in alg.entries() for pos in (pu, pv)}
    paired = [alg.basis[pos] for pos in sorted(partnered)]
    lonely = [gid for pos, gid in enumerate(alg.basis)
              if pos not in partnered]
    centrals = [gid for gid in alg.basis if gid.kind == "I"]
    assert lonely and centrals

    def edited(gid, name, edit):
        wedge = dict(table.delta(gid))
        edit(wedge)
        deltas = dict(table.items())
        deltas[gid] = wedge
        return f"delta({gid.label}) {name}", CocommutatorTable(alg, deltas)

    def added(gid, a, b):
        factor = rng.choice(FACTORS)
        return edited(gid, f"+ ({factor}) {a.label} ^ {b.label}",
                      lambda wedge: wedge_insert(wedge, alg.index, a, b,
                                                 factor))

    gid = rng.choice([gid for gid, wedge in table.items() if wedge])
    key = rng.choice(sorted(table.delta(gid),
                            key=lambda k: (alg.index[k[0]], alg.index[k[1]])))
    return [
        added(rng.choice(alg.basis), *rng.sample(alg.basis, 2)),
        edited(gid, f"- {key[0].label} ^ {key[1].label}",
               lambda wedge: wedge.pop(key)),
        added(rng.choice(centrals), *rng.sample(paired, 2)),
        added(rng.choice(alg.basis), rng.choice(lonely), rng.choice(paired)),
    ]


@pytest.mark.parametrize(
    "series,rank,spec",
    [(series, rank, "canonical") for series, rank in INSTANCES] + list(MIXED))
def test_cocycle_matches_dense_on_mutated_deltas(series, rank, spec):
    triple = split(series, rank, spec)
    alg = triple.double
    cases = _mutated_deltas(alg, cocommutator_from_structure(triple),
                            random.Random(f"delta {series}{rank} {spec}"))
    for label, table in cases:
        assert (verify_cocycle(alg, table).to_dict()
                == dense.verify_cocycle(alg, table).to_dict()), label
    assert not all(verify_cocycle(alg, table).passed for _, table in cases)


def _seeded_deltas(alg, table, rng, count):
    """The cocommutator table with `count` seeded edits, each one wedge
    term added to (possibly where it was zero) or dropped from a delta."""
    out = []
    for _ in range(count):
        gid = rng.choice(alg.basis)
        wedge = dict(table.delta(gid))
        if wedge and rng.random() < 0.3:
            key = rng.choice(sorted(wedge, key=lambda k: (alg.index[k[0]],
                                                          alg.index[k[1]])))
            del wedge[key]
            name = f"- {key[0].label} ^ {key[1].label}"
        else:
            a, b = rng.sample(alg.basis, 2)
            factor = rng.choice(FACTORS)
            wedge_insert(wedge, alg.index, a, b, factor)
            name = f"+ ({factor}) {a.label} ^ {b.label}"
        deltas = dict(table.items())
        deltas[gid] = wedge
        out.append((f"delta({gid.label}) {name}",
                    CocommutatorTable(alg, deltas)))
    return out


@pytest.mark.parametrize(
    "series,rank,spec",
    [(series, rank, "canonical") for series, rank in INSTANCES] + list(MIXED))
def test_cojacobi_and_coboundary_match_dense_on_mutated_deltas(series, rank,
                                                              spec):
    triple = split(series, rank, spec)
    alg = triple.double
    rng = random.Random(f"cojacobi {series}{rank} {spec}")
    table = cocommutator_from_structure(triple)
    cases = _mutated_deltas(alg, table, rng) + _seeded_deltas(alg, table,
                                                               rng, 6)
    for label, case in cases:
        assert (verify_cojacobi(alg, case).to_dict()
                == dense.verify_cojacobi(alg, case).to_dict()), label
        assert (verify_coboundary(triple, case).to_dict()
                == dense.verify_coboundary(triple, case).to_dict()), label
    assert not all(verify_cojacobi(alg, case).passed for _, case in cases)
    assert not any(verify_coboundary(triple, case).passed
                   for _, case in cases)


CHAIN = (("A", 1), ("A", 2), ("A", 3), ("B", 1), ("B", 2), ("C", 1),
         ("C", 2), ("D", 2), ("D", 3))


def _chain_doubles(series, rank, rng):
    """Receiving doubles: unmutated, two seeded table mutations, and a zero
    bracket inside the shifted image made nonzero."""
    big = canonical_triple(series, rank + 1)
    out = [("unmutated", None)]
    out += [(label, case.double)
            for label, case in _mutated_brackets(big, rng, 2)]
    small = build_series(series, rank)
    image = [GeneratorId(g.kind, g.i + 1, None if g.j is None else g.j + 1)
             for g in small.basis]
    p, q = rng.choice([(p, q) for k, p in enumerate(image)
                       for q in image[k + 1:]
                       if not big.double.bracket_gens(p, q)])
    out.append((f"[{p.label}, {q.label}] new",
                mutate_bracket(big.double, p, q,
                               Element.gen(rng.choice(image),
                                           rng.choice(FACTORS)))))
    return out


@pytest.mark.parametrize("series,rank", CHAIN)
def test_chain_matches_dense(series, rank):
    rng = random.Random(f"chain {series}{rank}")
    cases = _chain_doubles(series, rank, rng)
    for label, big in cases:
        want = _outcome(lambda: dense.verify_chain_embedding(
            series, rank, big_double=big))
        assert _outcome(lambda: verify_chain_embedding(
            series, rank, big_double=big)) == want, label
        # a rank n triple the caller built gives the same report
        assert _outcome(lambda: verify_chain_embedding(
            series, rank, big_double=big,
            small_triple=split(series, rank))) == want, label
    assert verify_chain_embedding(series, rank).passed
    # the new bracket is a violation, or leaves a half of rank n+1 unclosed
    caught = _outcome(lambda: verify_chain_embedding(
        series, rank, big_double=cases[-1][1]))
    assert isinstance(caught, str) or not caught["pass"]


def test_chain_refuses_another_triple():
    for triple in (split("D", 3, "mixed:pairs=1-2"), canonical_triple("D", 2)):
        with pytest.raises(SpecError):
            verify_chain_embedding("D", 3, small_triple=triple)


def _refuse_walks(monkeypatch, kernel):
    """Make every pair walk raise: the generator bracket, the reference
    ad_wedge, and the element bracket of a pair in which no term of x
    brackets a term of y to a nonzero value in the adjoint index."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"{kernel} walked the pairs")

    joined = LieAlgebra.bracket

    def bracket(alg, x, y):
        terms = [elem.terms() if isinstance(elem, Element) else [(elem, 1)]
                 for elem in (x, y)]
        rows = alg.adjoint()
        if not any(gy in rows.get(gx, ())
                   for gx, _ in terms[0] for gy, _ in terms[1]):
            refuse()
        return joined(alg, x, y)

    monkeypatch.setattr(LieAlgebra, "bracket", bracket)
    monkeypatch.setattr(LieAlgebra, "bracket_gens", refuse)
    monkeypatch.setattr(dense, "ad_wedge", refuse)


def test_cocycle_never_walks_the_pairs(monkeypatch):
    # the residuals come from the joins alone: no basis pair is bracketed
    # and no wedge is moved by ad_wedge
    cases = [canonical_triple("A", 3), split("D", 3, "mixed:pairs=1-2")]
    tables = [cocommutator_from_structure(triple) for triple in cases]
    _refuse_walks(monkeypatch, "verify_cocycle")
    for triple, table in zip(cases, tables):
        report = verify_cocycle(triple.double, table)
        dim = triple.double.dim
        assert report.passed and report.checked == dim * (dim - 1) // 2


@pytest.mark.parametrize("series,rank,spec", [("A", 3, "canonical"),
                                              ("C", 2, "canonical"),
                                              ("B", 2, "canonical"),
                                              ("D", 3, "mixed:pairs=1-2")])
def test_bialgebra_kernels_never_walk_the_pairs(monkeypatch, series, rank,
                                                spec):
    # split before the walks are refused (a mixed split restricts the
    # table pair by pair), over copies of the doubles, so that the
    # tensors, the adjoint indexes and the cocommutators are all built
    # under the guard
    def fresh(triple):
        alg = triple.double
        return with_double(triple, LieAlgebra(alg.series, alg.rank, alg.basis,
                                              alg.table, alg.n_indices))

    triple = fresh(split(series, rank, spec))
    small = fresh(split(series, rank)) if spec == "canonical" else None
    big = fresh(split(series, rank + 1)).double
    _refuse_walks(monkeypatch, "a joined kernel")
    assert triple._tensors is None and triple.double._adjoint is None
    table = cocommutator_from_structure(triple)
    alg = triple.double
    reports = [verify_closure(triple), verify_cojacobi(alg, table),
               verify_coboundary(triple), verify_cybe(triple)]
    if small is not None:
        reports.append(verify_twist(triple))
        reports.append(verify_chain_embedding(series, rank, big_double=big,
                                              small_triple=small))
    assert all(report.passed for report in reports)
    with pytest.raises(AssertionError, match="walked the pairs"):
        dense.structure_tensors_pairwise(triple)


def test_memos_start_empty_on_every_copy():
    # every memo of a triple and of its double filled, then each helper's
    # copy must see its own change: stale tensors, cocommutators, adjoint
    # indexes or pairing inverses would let these checks pass
    triple = split("A", 2)
    alg = triple.double
    alg.adjoint()
    structure_tensors(triple)
    cocommutator_from_structure(triple)
    triple.pairing_inverse()
    h1, h2 = GeneratorId("H", 1), GeneratorId("H", 2)
    f12, f13 = GeneratorId("F", 1, 2), GeneratorId("F", 1, 3)
    f21, f23 = GeneratorId("F", 2, 1), GeneratorId("F", 2, 3)

    # zero brackets made nonzero: one that s+ still holds, and two that
    # leave s- or s+ unclosed
    rooted = with_double(triple, mutate_bracket(alg, f12, f13,
                                                Element.gen(f23)))
    assert rooted.double._adjoint is None and rooted._tensors is None
    assert rooted._delta is None and rooted._pinv is None
    table = cocommutator_from_structure(rooted)
    assert not verify_cocycle(rooted.double, table).passed
    assert not verify_cojacobi(rooted.double, table).passed
    assert not verify_coboundary(rooted).passed
    assert not verify_cybe(rooted).passed
    moved = with_double(triple, mutate_bracket(alg, h1, h2, Element.gen(f12)))
    assert not verify_twist(moved).passed
    with pytest.raises(ClosureError):
        cocommutator_from_structure(moved)
    escaped = with_double(triple, mutate_bracket(alg, f12, f13,
                                                 Element.gen(f21)))
    assert not verify_self_duality(escaped).passed
    assert not verify_closure(escaped).passed

    rescaled = rescale_minus(triple, Scalar(3))
    assert rescaled._tensors is None and rescaled._delta is None
    assert not verify_self_duality(rescaled).passed

    perturbed = perturb_pairing(triple, triple.sminus[0], triple.splus[1],
                                Scalar(1))
    assert perturbed._pinv is None and perturbed._tensors is None
    assert not verify_reconstruction(perturbed).passed

    # a restricted table indexes only its own members, and a mutation of
    # it gets an index of its own
    borel = {g for g in alg.basis
             if g.kind == "H" or (g.kind == "F" and g.i < g.j)}
    sub = alg.restrict([g for g in alg.basis if g in borel])
    assert sub._adjoint is None
    index = sub.adjoint()
    assert set(index) <= borel
    assert all(h in borel and entry.support() <= borel
               for row in index.values() for h, entry in row.items())
    cut = mutate_bracket(sub, h1, f12, Element())
    assert f12 in index[h1] and f12 not in cut.adjoint()[h1]
    # and the original's memos are untouched
    assert verify_cybe(triple).passed and verify_coboundary(triple).passed


def test_mutations_are_caught():
    # the differential inputs are not all trivially passing
    triple = canonical_triple("A", 3)
    verdicts = [(verify_jacobi(case.double).passed,
                 verify_compatibility(case).passed,
                 verify_form_invariance(case).passed)
                for _, case in _inputs(triple, "A3")]
    assert verdicts[0] == (True, True, True)
    assert any(not all(v) for v in verdicts[1:])


def _deeper(rep):
    """The representation's builder at a cutoff 6 higher: every state a
    nonzero normal-ordered residual of these checks moves first (at most 3
    annihilations deep) lies on a column that a budget of 4 protects
    there."""
    return bosonic_rep(rep.alg, rep.cutoff + 6, rep.lambdas)


def _wrong_matrices(rep):
    """The stage-2 violations, counted against the oracle's matrices."""
    alg = rep.alg
    if rep.cutoff is None:
        built = dense.fermionic_matrices(alg, rep.lambdas)
    else:
        built = dense.bosonic_matrices(alg, rep.cutoff, rep.lambdas)
    out = []
    for gid in alg.basis:
        held, want = rep.matrix(gid).entries, built[gid].entries
        wrong = sum(1 for key in held.keys() | want.keys()
                    if held.get(key) != want.get(key))
        if wrong:
            out.append({"matrix": gid.label, "entries": wrong})
    return out


def _assert_matches_dense(got, want, deeper, key, label, matrices):
    """`got`, the one verdict, against `want`, the whole-matrix report at
    the same cutoff. `matrices` are the stage-2 violations, which lead
    `got`. Where there are none, the flagged pairs (or generators) contain
    the oracle's, and equal them when `deeper` is None (a fermionic
    representation), or else equal those of `deeper()`, the oracle's
    report at a cutoff 6 higher."""
    assert got["checked"] == want["checked"], label
    assert got.get("details") == want.get("details"), label
    assert got["violations"][:len(matrices)] == matrices, label
    assert want["pass"] or not got["pass"], label
    if matrices:
        return
    assert all(v["monomials"] > 0 for v in got["violations"]), label
    flagged = [v[key] for v in got["violations"]]
    shown = [v[key] for v in want["violations"]]
    assert all(item in flagged for item in shown), (label, shown, flagged)
    if deeper is None:
        assert flagged == shown, label
    else:
        assert flagged == [v[key] for v in deeper()["violations"]], label


def _assert_same_rep(alg, rep, label, matrices):
    deeper = None if rep.cutoff is None else (
        lambda: dense.verify_rep_homomorphism(alg, _deeper(rep)).to_dict())
    _assert_matches_dense(
        verify_rep_homomorphism(alg, rep).to_dict(),
        dense.verify_rep_homomorphism(alg, rep).to_dict(),
        deeper, "pair", label, matrices)


def _assert_same_casimir(alg, rep, cas, label, matrices):
    deeper = None if rep.cutoff is None else (
        lambda: dense.verify_casimir_commutes(alg, _deeper(rep),
                                              cas).to_dict())
    _assert_matches_dense(
        verify_casimir_commutes(alg, rep, cas).to_dict(),
        dense.verify_casimir_commutes(alg, rep, cas).to_dict(),
        deeper, "gen", (label, cas.label), matrices)


def _assert_same_reps(alg, rep, label):
    matrices = _wrong_matrices(rep)
    _assert_same_rep(alg, rep, label, matrices)
    for cas in (casimir_quadratic(alg), casimir_double(alg)):
        _assert_same_casimir(alg, rep, cas, label, matrices)


def _mutated_reps(rep, rng):
    """One entry doubled, and one new entry on a column that every pair
    of raise budget at most 2 protects (total occupation at most
    cutoff - 2 when truncated)."""
    gids = [gid for gid in rep.alg.basis if rep.matrix(gid).entries]
    gid = rng.choice(gids)
    key = rng.choice(sorted(rep.matrix(gid).entries))
    value = rep.matrix(gid).entries[key]
    out = [(f"{gid.label} {key} doubled",
            dense.with_entry(rep, gid, key, value * rng.choice(FACTORS)))]
    budget = 0 if rep.cutoff is None else 2
    column = rng.choice(sorted(dense.protected_columns(rep, budget)))
    gid = rng.choice(rep.alg.basis)
    row = rng.choice([row for row in range(rep.space_dim)
                      if (row, column) not in rep.matrix(gid).entries])
    out.append((f"{gid.label} ({row}, {column}) new",
                dense.with_entry(rep, gid, (row, column), rng.choice(FACTORS))))
    return out


def _mutated_tables(alg, rng):
    """The algebra with one bracket entry rescaled (or extended, when it is
    zero), and with one extended by a term."""
    out = []
    for extend in (False, True):
        p, q = rng.sample(alg.basis, 2)
        value = alg.bracket_gens(p, q)
        if value and not extend:
            value = value.scale(rng.choice(FACTORS))
        else:
            value = value + Element.gen(rng.choice(alg.basis),
                                        rng.choice(FACTORS))
        out.append((f"[{p.label}, {q.label}]",
                    mutate_bracket(alg, p, q, value)))
    return out


def _mutated_casimirs(alg, rng):
    """Each Casimir with one root anticommutator rescaled, and with one
    dropped (a Cartan or central square can be central on its own: H_i^2
    is 1/4 in a fermionic representation)."""
    out = []
    for cas in (casimir_quadratic(alg), casimir_double(alg)):
        terms = list(cas.terms)
        pos = rng.choice([k for k, term in enumerate(terms)
                          if term[2] == "anticommutator"])
        x, y, kind = terms[pos]
        rescaled = (x.scale(rng.choice(FACTORS)), y, kind)
        out.append((f"{cas.label} term {pos} rescaled", CasimirElement(
            terms[:pos] + [rescaled] + terms[pos + 1:], cas.label)))
        out.append((f"{cas.label} term {pos} dropped", CasimirElement(
            terms[:pos] + terms[pos + 1:], cas.label)))
    return out


def _assert_same_mutated(alg, rep, label):
    rng = random.Random(label)
    _assert_same_reps(alg, rep, label)
    for name, case in _mutated_reps(rep, rng):
        _assert_same_reps(alg, case, f"{label} {name}")
    for name, mutated in _mutated_tables(alg, rng):
        _assert_same_rep(mutated, rep, f"{label} {name}", [])
    for name, cas in _mutated_casimirs(alg, rng):
        _assert_same_casimir(alg, rep, cas, f"{label} {name}", [])


@pytest.mark.parametrize("series,rank", FERMIONIC)
def test_rep_checks_match_dense_fermionic(series, rank):
    alg = build_series(series, rank)
    _assert_same_mutated(alg, fermionic_rep(alg), f"{series}{rank}")


@pytest.mark.parametrize("cutoff", CUTOFFS)
@pytest.mark.parametrize("series,rank", BOSONIC)
def test_rep_checks_match_dense_bosonic(series, rank, cutoff):
    alg = build_series(series, rank)
    _assert_same_mutated(alg, bosonic_rep(alg, cutoff),
                         f"{series}{rank} cutoff {cutoff}")


@pytest.mark.parametrize("rank", [1, 2])
def test_rep_entry_off_the_protected_columns_fails(rank):
    # rho(P) with an entry on a column of occupation above cutoff - 2: no
    # pair that involves P protects that column, so the whole-matrix loops
    # pass, but the matrix now differs from its polynomial in one entry
    alg = build_series("C", rank)
    rep = bosonic_rep(alg, 4)
    top = [pos for pos, state in enumerate(rep.space.states)
           if sum(state) > 2]
    for gid in alg.basis:
        if gid.kind != "P":
            continue
        case = dense.with_entry(rep, gid, (0, top[-1]), Scalar(5))
        wrong = [{"matrix": gid.label, "entries": 1}]
        assert verify_rep_homomorphism(alg, case).violations == wrong
        assert dense.verify_rep_homomorphism(alg, case).passed
        for cas in (casimir_quadratic(alg), casimir_double(alg)):
            assert verify_casimir_commutes(alg, case, cas).violations == wrong
            assert dense.verify_casimir_commutes(alg, case, cas).passed
        _assert_same_reps(alg, case, f"C{rank} {gid.label}")


def test_rep_mutations_are_caught():
    # every mutated representation, table and Casimir fails, even where
    # the truncation protects no column that shows it
    alg = build_series("C", 2)
    rep = bosonic_rep(alg, 4)
    rng = random.Random("C2 cutoff 4")
    cases = _mutated_reps(rep, rng)
    assert verify_rep_homomorphism(alg, rep).passed
    assert all(not verify_rep_homomorphism(alg, case).passed
               for _, case in cases)
    assert all(not verify_rep_homomorphism(mutated, rep).passed
               for _, mutated in _mutated_tables(alg, rng))
    assert all(not verify_casimir_commutes(alg, rep, cas).passed
               for _, cas in _mutated_casimirs(alg, rng))


@pytest.mark.parametrize(
    "series,rank,spec",
    [(series, rank, "canonical") for series, rank in INSTANCES] + list(MIXED))
def test_ad_invariance_matches_dense(series, rank, spec):
    alg = split(series, rank, spec).double
    rng = random.Random(f"invariance {series}{rank} {spec}")
    casimirs = (casimir_quadratic(alg), casimir_double(alg))
    cases = [("unmutated", alg, cas) for cas in casimirs]
    cases += [(name, mutated, cas) for name, mutated in _mutated_tables(alg, rng)
              for cas in casimirs]
    cases += [(name, alg, cas) for name, cas in _mutated_casimirs(alg, rng)]
    for label, table, cas in cases:
        assert (ad_invariance_report(table, cas).to_dict()
                == dense.ad_invariance_report(table, cas).to_dict()), \
            (label, cas.label)
    assert all(ad_invariance_report(alg, cas).passed for cas in casimirs)
    assert not all(ad_invariance_report(table, cas).passed
                   for _, table, cas in cases)


def test_ad_invariance_never_walks_the_pairs(monkeypatch):
    # the residuals come from the join alone: no generator is bracketed
    # with a tensor factor
    cases = [build_series("A", 3), build_series("C", 2),
             split("D", 3, "mixed:pairs=1-2").double]

    def refuse(*args, **kwargs):
        raise AssertionError("ad_invariance_report walked the pairs")

    monkeypatch.setattr(LieAlgebra, "bracket_gens", refuse)
    for alg in cases:
        for cas in (casimir_quadratic(alg), casimir_double(alg)):
            report = ad_invariance_report(alg, cas)
            assert report.passed and report.checked == alg.dim


def test_ad_invariance_rejects_a_foreign_generator():
    # the A3 Casimir names generators that the A2 table does not hold
    small, cas = build_series("A", 2), casimir_quadratic(build_series("A", 3))
    for kernel in (ad_invariance_report, dense.ad_invariance_report):
        with pytest.raises(ForeignGeneratorError):
            kernel(small, cas)
    # and so does a table entry [F1,2, F2,3] := F1,4
    f12, f23, f14 = (GeneratorId("F", 1, 2), GeneratorId("F", 2, 3),
                     GeneratorId("F", 1, 4))
    stray = mutate_bracket(small, f12, f23, Element.gen(f14))
    with pytest.raises(ForeignGeneratorError):
        ad_invariance_report(stray, casimir_quadratic(small))
