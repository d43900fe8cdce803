"""Manin triples: splittings, pairings, structure tensors, verifiers."""

import itertools
import os
import subprocess
import sys

import pytest

import drinfeld_forge

from drinfeld_forge import bialgebra, double, manin
from drinfeld_forge import (ClosureError, Element, GeneratorId, INV_SQRT2,
                            ONE, Scalar, SpecError, SplittingSpec,
                            build_series, canonical_triple, cartan_count,
                            crossed_brackets, mutate_bracket,
                            perturb_pairing, rescale_minus, split,
                            structure_tensors, verify_casimir_form,
                            verify_closure, verify_compatibility,
                            verify_form_invariance, verify_pairing,
                            verify_reconstruction, verify_self_duality,
                            with_double)
from drinfeld_forge.cli import main

GRID = [("A", 1), ("A", 2), ("B", 1), ("B", 2), ("C", 1), ("C", 2), ("D", 2),
        ("D", 3)]

TRIPLE_CHECKS = (verify_closure, verify_pairing, verify_reconstruction,
                 verify_compatibility, verify_self_duality,
                 verify_form_invariance, verify_casimir_form)


def test_spec_parsing():
    spec = SplittingSpec.parse("canonical")
    assert spec.mode == "canonical"
    mixed = SplittingSpec.parse("mixed:pairs=1-2;central=3")
    assert mixed.mode == "mixed"
    assert mixed.pairs == ((1, 2),)
    pairs, central = mixed.resolve(3)
    assert pairs == ((1, 2),) and central == (3,)


@pytest.mark.parametrize("text", [
    "mixed:pairs=1-1",
    "mixed:pairs=1",
    "mixed:pairs=1-2;central=2",
    "mixed:pairs=1-9",
    "nonsense",
])
def test_bad_specs_rejected(text):
    with pytest.raises(SpecError):
        spec = SplittingSpec.parse(text)
        spec.resolve(3)


def test_canonical_rotation_shape():
    triple = canonical_triple("A", 1)
    assert [g.label for g in triple.splus] == ["X1", "X2", "F1,2"]
    assert [g.label for g in triple.sminus] == ["x^1", "x^2", "F2,1"]
    # X_k = (H_k + i I_k)/sqrt2
    xk = triple.elem(GeneratorId("X", 1))
    want = Element.gen(GeneratorId("H", 1)).scale(INV_SQRT2)
    want.add_term(GeneratorId("I", 1), Scalar(0, 1) * INV_SQRT2)
    assert xk == want


def _matchings(indices):
    """Every set of disjoint pairs (i, j), i < j, of `indices`, the empty
    set first."""
    if len(indices) < 2:
        return [[]]
    first, rest = indices[0], indices[1:]
    out = _matchings(rest)
    for k, other in enumerate(rest):
        out += [[(first, other)] + tail
                for tail in _matchings(rest[:k] + rest[k + 1:])]
    return out


def test_rotation_round_trip():
    # the inverse rotation is derived from the rotation block, so both
    # ways round are checked: every double generator through the rotated
    # basis and back, and every rotated member through the double and
    # back, on central indices and on (H_i, H_j) pairs
    triples = [canonical_triple(series, rank) for series, rank in GRID]
    for series, rank in (("A", 3), ("D", 4)):
        n = cartan_count(series, rank)
        matchings = _matchings(list(range(1, n + 1)))
        assert len(matchings) == 10
        triples += [split(series, rank, SplittingSpec(pairs))
                    for pairs in matchings]
    triples += [split(series, 3, "mixed:pairs=1-3") for series in "BC"]
    for triple in triples:
        label = (triple.double.series, triple.double.rank, triple.spec.pairs)
        for gid in triple.double.basis:
            elem = Element.gen(gid)
            rot = triple.decompose(elem)
            back = Element()
            for rgid, coeff in rot.items():
                for g, c in triple.elem(rgid).terms():
                    back.add_term(g, coeff * c)
            assert back == elem, label
        for rgid in triple.splus + triple.sminus:
            assert triple.decompose(triple.elem(rgid)) == {rgid: ONE}, label


@pytest.mark.parametrize("series,rank", GRID)
def test_canonical_triple_suite(series, rank):
    triple = canonical_triple(series, rank)
    for check in TRIPLE_CHECKS:
        report = check(triple)
        assert report.passed, (check.__name__, report.to_dict())


def test_crossed_bracket_oracles():
    triple = canonical_triple("A", 1)
    crossed = crossed_brackets(triple)
    half_rt2 = INV_SQRT2

    def find(mlabel, plabel):
        p = next(k for k, g in enumerate(triple.sminus) if g.label == mlabel)
        q = next(k for k, g in enumerate(triple.splus) if g.label == plabel)
        return crossed[(p, q)]

    alpha, beta = find("x^1", "F1,2")
    assert not any(alpha.values())
    assert beta == {2: half_rt2}

    alpha, beta = find("F2,1", "F1,2")
    assert alpha == {0: -half_rt2, 1: half_rt2}
    assert beta == {0: -half_rt2, 1: half_rt2}

    # two Cartans commute, and a pair that solves to 0 is not stored
    with pytest.raises(KeyError):
        find("x^1", "X1")
    assert list(crossed) == sorted(crossed) and len(crossed) == 5
    assert all(alpha or beta for alpha, beta in crossed.values())


def test_structure_tensors_antisymmetry():
    triple = canonical_triple("B", 2)
    f, c = structure_tensors(triple)
    for (q, r), vec in f.items():
        swapped = f.get((r, q), {})
        assert swapped == {k: -v for k, v in vec.items()}
    for (q, r), vec in c.items():
        swapped = c.get((r, q), {})
        assert swapped == {k: -v for k, v in vec.items()}


def test_structure_tensors_are_read_only():
    # f and c are the triple's memo, read by every later check of it, so
    # an edit of a returned map or of any row raises instead of reaching
    # those checks
    triple = split("B", 2)
    f, c = structure_tensors(triple)
    for tensor in (f, c):
        key = next(iter(tensor))
        with pytest.raises(TypeError):
            tensor[key] = {}
        with pytest.raises(TypeError):
            del tensor[key]
        for row in tensor.values():
            with pytest.raises(TypeError):
                row[next(iter(row))] = ONE
    assert structure_tensors(triple) == (f, c)
    assert verify_self_duality(triple).passed


@pytest.mark.parametrize("series, rank, spec, products", [
    ("D", 4, "canonical", 552), ("D", 3, "mixed:pairs=1-2", 138),
    ("B", 3, "canonical", 280)])
def test_compatibility_forms_each_product_once(monkeypatch, series, rank,
                                               spec, products):
    # the direct term joins each c^{p,q}_r (p < q) with each f^r_{s,t}
    # (s < t); the mixing terms join each c^{r,p}_s with each f^q_{r,t}
    # under their shared first index r, for s != t and q != p. The check
    # multiplies exactly once per product of those joins. B3 also has
    # joins with q = p but s != t, and with s = t but q != p.
    triple = split(series, rank, spec)
    f, c = structure_tensors(triple)
    per_upper = {}
    for (s, t), vec in f.items():
        if s < t:
            for r in vec:
                per_upper[r] = per_upper.get(r, 0) + 1
    direct = sum(per_upper.get(r, 0)
                 for (p, q), vec in c.items() if p < q for r in vec)
    mixing = sum(len(cvec.keys() - {t}) * len(fvec.keys() - {p})
                 for (r, p), cvec in c.items()
                 for (first, t), fvec in f.items() if first == r)
    assert direct + mixing == products
    calls = []
    real = Scalar.__mul__

    def spy(self, other):
        calls.append(None)
        return real(self, other)

    monkeypatch.setattr(Scalar, "__mul__", spy)
    assert verify_compatibility(triple).passed
    assert len(calls) == products


def test_self_duality_is_exact_negation():
    triple = canonical_triple("C", 2)
    f, c = structure_tensors(triple)
    for key, vec in c.items():
        fvec = f.get(key, {})
        assert vec == {k: -v for k, v in fvec.items()}


@pytest.mark.parametrize("series,rank,spec", [
    ("D", 2, "mixed:pairs=1-2"),
    ("A", 2, "mixed:pairs=1-2;central=3"),
    ("C", 2, "mixed:pairs=1-2"),
])
def test_mixed_splitting_suite(series, rank, spec):
    triple = split(series, rank, spec)
    for check in TRIPLE_CHECKS:
        report = check(triple)
        assert report.passed, (check.__name__, report.to_dict())


def test_mixed_drops_rotated_centrals():
    triple = split("D", 2, "mixed:pairs=1-2")
    kinds = {gid.kind for gid in triple.double.basis}
    assert "I" not in kinds
    assert triple.double.dim == 6


def test_mixed_self_duality_is_conjugated():
    triple = split("D", 2, "mixed:pairs=1-2")
    f, c = structure_tensors(triple)
    saw_imaginary = False
    for key, vec in c.items():
        fvec = f.get(key, {})
        assert vec == {k: -v.conj_i() for k, v in fvec.items()}
        saw_imaginary = saw_imaginary or any(
            v != v.conj_i() for v in fvec.values())
    # the mixed rotation genuinely exercises the conjugation
    assert saw_imaginary


def test_rescale_breaks_only_self_duality():
    triple = rescale_minus(canonical_triple("B", 1), Scalar(3))
    outcomes = {check.__name__: check(triple).passed
                for check in TRIPLE_CHECKS}
    assert outcomes == {
        "verify_closure": True,
        "verify_pairing": True,
        "verify_reconstruction": True,
        "verify_compatibility": True,
        "verify_self_duality": False,
        "verify_form_invariance": True,
        "verify_casimir_form": True,
    }


def test_zero_perturbation_keeps_a_rescaled_triple():
    # perturb_pairing carries the s- rescaling along, as with_double does:
    # adding 0 to one entry of a rescaled triple changes no report
    rescaled = rescale_minus(canonical_triple("A", 2), Scalar(2))
    same = perturb_pairing(rescaled, rescaled.sminus[0], rescaled.splus[0],
                           Scalar(0))
    assert same.minus_factor == rescaled.minus_factor
    for check in TRIPLE_CHECKS:
        assert check(same).to_dict() == check(rescaled).to_dict(), \
            check.__name__


def test_perturbed_pairing_fails_dependent_checks():
    base = canonical_triple("A", 1)
    triple = perturb_pairing(base, GeneratorId("x", 1), GeneratorId("X", 2),
                             Scalar(1))
    assert not verify_pairing(triple).passed
    assert not verify_reconstruction(triple).passed
    assert not verify_form_invariance(triple).passed
    assert not verify_casimir_form(triple).passed
    # closure never looks at the pairing
    assert verify_closure(triple).passed


def test_casimir_form_needs_every_central_square(monkeypatch):
    # casimir-form compares the pairing's dual-basis tensor with the tensor
    # of double.casimir_double, so a double Casimir that lost its last
    # central square leaves that square as the one violation
    full = double.casimir_double

    def lossy(alg):
        return dict(list(full(alg).items())[:-1])

    monkeypatch.setattr(double, "casimir_double", lossy)
    for triple, central in ((canonical_triple("A", 2), "I3"),
                            (split("A", 3, "mixed:pairs=1-3"), "I4")):
        assert verify_casimir_form(triple).violations == [
            {"pair": [central, central], "difference": "1"}]


def _under_seeds(code: str, seeds) -> list[str]:
    """What `code` prints in a fresh interpreter per hash seed: set and
    dict orders of GeneratorId keys follow the string hash, which is
    seeded at interpreter start."""
    src = os.path.dirname(os.path.dirname(drinfeld_forge.__file__))
    outputs = []
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs


def test_casimir_form_violations_ignore_the_hash_seed():
    code = ("from drinfeld_forge import canonical_triple, perturb_pairing, "
            "verify_casimir_form\n"
            "from drinfeld_forge.serialize import dumps_canonical\n"
            "t = canonical_triple('A', 2)\n"
            "t = perturb_pairing(t, t.sminus[3], t.splus[4], 1)\n"
            "print(dumps_canonical(verify_casimir_form(t).to_dict()), end='')\n")
    outputs = _under_seeds(code, ("0", "1"))
    assert outputs[0] == outputs[1]
    assert '"pass": false' in outputs[0]


def test_foreign_casimir_generator_ignores_the_hash_seed():
    # A3's Casimir against A2: the generator refused is the first that A2
    # does not hold in tensor order, H4, whatever the hash seed
    code = ("from drinfeld_forge import build_series, casimir_quadratic, "
            "fermionic_rep, verify_casimir_commutes\n"
            "from drinfeld_forge.errors import ForeignGeneratorError\n"
            "alg = build_series('A', 2)\n"
            "cas = casimir_quadratic(build_series('A', 3))\n"
            "try:\n"
            "    verify_casimir_commutes(alg, fermionic_rep(alg), cas, "
            "'quadratic')\n"
            "except ForeignGeneratorError as err:\n"
            "    print(err.args[0], end='')\n")
    outputs = _under_seeds(code, ("1", "2"))
    assert outputs == ["H4 is not in the A2 basis"] * 2


def test_perturbation_indices_validated():
    base = canonical_triple("A", 1)
    with pytest.raises(SpecError):
        perturb_pairing(base, GeneratorId("X", 1), GeneratorId("X", 2),
                        Scalar(1))


def test_singular_pairing_detected():
    base = canonical_triple("A", 1)
    # zero out one diagonal entry: the matrix loses rank
    triple = perturb_pairing(base, GeneratorId("x", 1), GeneratorId("X", 1),
                             Scalar(-1))
    with pytest.raises(SpecError):
        triple.pairing_inverse()
    # `pairing` reports it as its last violation, and `casimir-form`,
    # which needs the inverse, reports nothing else
    assert verify_pairing(triple).violations == [
        {"pair": ["x^1", "X1"], "intrinsic": "1", "stored": "0"},
        {"pairing": "singular"}]
    report = verify_casimir_form(triple)
    assert not report.passed and report.checked == 0
    assert report.violations == [{"error": "pairing matrix is singular"}]


def test_non_isotropic_half_is_reported():
    # a fresh rotation whose map sends X1 to H1 alone: s+ pairs X1 with
    # itself, and the crossed value of (x^1, X1) drops to 1/sqrt2
    base = canonical_triple("A", 1)
    rotation = manin.CartanRotation(base.spec, 2)
    rotation.to_double = {**rotation.to_double,
                          GeneratorId("X", 1): Element.gen(GeneratorId("H", 1))}
    triple = manin.ManinTriple(base.double, base.spec, rotation)
    assert verify_pairing(triple).violations == [
        {"side": "s+", "pair": ["X1", "X1"], "value": "1"},
        {"pair": ["x^1", "X1"], "intrinsic": "1/2*sqrt2", "stored": "1"}]


def test_rotation_maps_are_read_only():
    # the cached triple's rotation is shared by every triple made from it,
    # so an edit in place raises instead of reaching them
    rotation = canonical_triple("A", 1).rotation
    x1, h1 = GeneratorId("X", 1), GeneratorId("H", 1)
    with pytest.raises(TypeError):
        rotation.to_double[x1] = Element.gen(h1)
    with pytest.raises(TypeError):
        rotation.from_cartan[h1] = ((x1, Scalar(1)),)
    assert verify_pairing(canonical_triple("A", 1)).passed


def test_mutated_double_fails_closure_checks():
    base = canonical_triple("A", 1)
    f12, f21 = GeneratorId("F", 1, 2), GeneratorId("F", 2, 1)
    target = Element.gen(GeneratorId("H", 1)) + Element.gen(GeneratorId("H", 2))
    bad = with_double(base, mutate_bracket(base.double, f12, f21, target))
    assert not verify_reconstruction(bad).passed


def test_with_double_guards_series():
    base = canonical_triple("A", 1)
    with pytest.raises(SpecError):
        with_double(base, build_series("B", 1))


def test_pairing_matrix_is_identity_for_canonical():
    # both the stored pairing over basis positions and its sparse inverse
    triple = canonical_triple("D", 2)
    k = triple.half_dim
    assert {(triple.minus_index[m], triple.plus_index[p]): value
            for (m, p), value in triple.pairing.items()} == {
                (r, r): ONE for r in range(k)}
    assert triple.pairing_rows == tuple({r: ONE} for r in range(k))
    assert triple.pairing_inverse() == [{r: ONE} for r in range(k)]


def test_pairing_rows_drop_zeros_and_follow_perturbations():
    base = canonical_triple("A", 2)
    key = (base.sminus[1], base.splus[1])
    zeroed = manin.ManinTriple(base.double, base.spec, base.rotation,
                               {**base.pairing, key: Scalar(0)})
    assert key in zeroed.pairing and zeroed.pairing_rows[1] == {}
    added = perturb_pairing(base, base.sminus[3], base.splus[4], Scalar(2))
    assert added.pairing_rows[3] == {3: ONE, 4: Scalar(2)}
    assert base.pairing_rows[3] == {3: ONE}


@pytest.mark.parametrize("series,rank", [("A", 3), ("B", 2), ("C", 2),
                                         ("D", 3)])
def test_bracket_pairs_is_every_nonzero_pair(series, rank):
    # the join leaves out only pairs that bracket to 0, keeps the order of
    # itertools.combinations, and brackets each pair it yields
    triple = canonical_triple(series, rank)
    alg = triple.double
    elems = ([triple.elem(g) for g in triple.splus + triple.sminus]
             + [Element.gen(g) for g in alg.basis])
    joined = list(double.bracket_pairs(alg, elems))
    assert [(b, c) for b, c, _ in joined] == sorted(
        (b, c) for b, c, _ in joined)
    for b, c, out in joined:
        assert b < c and out == alg.bracket(elems[b], elems[c])
    visited = {(b, c) for b, c, _ in joined}
    for b, c in itertools.combinations(range(len(elems)), 2):
        if (b, c) not in visited:
            assert not alg.bracket(elems[b], elems[c]), (b, c)


def _count_walks(monkeypatch) -> list:
    """Count the calls of `bracket_pairs`, under both names it is read by."""
    calls = []
    walk = double.bracket_pairs

    def counted(alg, elems):
        calls.append(len(elems))
        return walk(alg, elems)

    monkeypatch.setattr(double, "bracket_pairs", counted)
    monkeypatch.setattr(bialgebra, "bracket_pairs", counted)
    # a fresh rank n+1 triple for `chain`, whose walks count too
    monkeypatch.setattr(bialgebra, "canonical_triple", split)
    return calls


def test_verify_walks_each_half_once(monkeypatch, capsys):
    # closure and the structure tensors share one walk per half (2), the
    # s+ span of subbialg closes through one more, and chain walks both
    # halves of D5 (2)
    calls = _count_walks(monkeypatch)
    assert main(["verify", "--series", "D", "--rank", "4",
                 "--checks", "all"]) == 0
    assert len(calls) == 5
    capsys.readouterr()


def test_unclosed_triple_is_walked_once(monkeypatch):
    # the stray pairs are kept in the memo with the tensors, so closure
    # and the three checks that need f and c share the two walks, and
    # each check still reports the escape
    calls = _count_walks(monkeypatch)
    triple = canonical_triple("A", 2)
    h1, f12, f21 = (GeneratorId("H", 1), GeneratorId("F", 1, 2),
                    GeneratorId("F", 2, 1))
    escaped = with_double(triple, mutate_bracket(triple.double, h1, f12,
                                                 Element.gen(f21)))
    reports = [check(escaped) for check in (
        verify_closure, verify_compatibility, verify_self_duality,
        verify_reconstruction)]
    assert len(calls) == 2
    assert not any(report.passed for report in reports)
    error = reports[1].violations[0]["error"]
    assert all(report.violations == [{"error": error}]
               for report in reports[1:])
    with pytest.raises(ClosureError) as raised:
        structure_tensors(escaped)
    assert str(raised.value) == error
    assert len(calls) == 2


def test_pairing_cannot_be_edited_in_place():
    # the memoized inverse and pairing rows would go stale under an edit
    # in place, so that casimir-form and forminv passed a pairing that
    # pairing and reconstruction fail; an edited pairing is a new triple
    triple = split("A", 2)
    assert verify_casimir_form(triple).passed
    key = (triple.sminus[3], triple.splus[4])
    for held in (triple, canonical_triple("A", 2)):
        with pytest.raises(TypeError):
            held.pairing[key] = Scalar(1)
        assert key not in held.pairing
    perturbed = perturb_pairing(triple, *key, Scalar(1))
    for check in (verify_pairing, verify_reconstruction,
                  verify_form_invariance, verify_casimir_form):
        assert check(triple).passed, check.__name__
        assert not check(perturbed).passed, check.__name__


def test_pairing_keys_must_match_the_halves():
    base = canonical_triple("A", 1)
    for key in ((base.splus[0], base.splus[1]),
                (base.sminus[0], GeneratorId("X", 5))):
        with pytest.raises(SpecError):
            manin.ManinTriple(base.double, base.spec, base.rotation,
                              {key: ONE})


def test_invariant_checks_survive_python_O():
    # under -O an assert statement is stripped; the basis count must still
    # raise
    code = ("from drinfeld_forge import generators\n"
            "from drinfeld_forge.errors import RankError\n"
            "print(__debug__)\n"
            "generators.dimension = lambda series, rank: 0\n"
            "try:\n"
            "    generators.enumerate_generators('A', 1)\n"
            "except RankError as err:\n"
            "    print(err)\n")
    src = os.path.dirname(os.path.dirname(drinfeld_forge.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "False",
        "A1 enumerates 6 generators, not 0",
    ]
