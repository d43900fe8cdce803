"""Differential tests: the support-driven kernels against the dense loops.

jacobi, compatibility, forminv and crossed_brackets accumulate their
residuals from the nonzero structure constants only. On canonical and
mixed splittings, and on seeded mutations of the brackets and of the
pairing, their reports (checked counts, violation lists in order,
residuals, values, truncation counts) and their crossed-bracket dicts
must equal the dense enumeration in tests/dense_reference.py exactly.
"""

import random

import pytest

import dense_reference as dense
from drinfeld_forge import (I, SQRT2, Element, Scalar, canonical_triple,
                            crossed_brackets, mutate_bracket, perturb_pairing,
                            rescale_minus, split, verify_compatibility,
                            verify_form_invariance, verify_jacobi,
                            with_double)
from drinfeld_forge.algebra import LieAlgebra
from drinfeld_forge.errors import ClosureError, SpecError

INSTANCES = (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
             ("C", 2), ("C", 3), ("D", 3), ("D", 4))
MIXED = (("D", 3, "mixed:pairs=1-2"), ("A", 3, "mixed:pairs=1-3"))
FACTORS = (Scalar(2), Scalar(3), SQRT2, I)


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


def _crossed(kernel, triple):
    try:
        out = kernel(triple)
    except (ClosureError, SpecError) as err:
        return repr(err)
    return list(out.items())


def _assert_same(triple, label):
    assert (verify_jacobi(triple.double).to_dict()
            == dense.verify_jacobi(triple.double).to_dict()), label
    assert (verify_compatibility(triple).to_dict()
            == dense.verify_compatibility(triple).to_dict()), label
    assert (verify_form_invariance(triple).to_dict()
            == dense.verify_form_invariance(triple).to_dict()), label
    assert (_crossed(crossed_brackets, triple)
            == _crossed(dense.crossed_brackets, triple)), label


@pytest.mark.parametrize("series,rank", INSTANCES)
def test_kernels_match_dense_canonical(series, rank):
    triple = canonical_triple(series, rank)
    for label, case in _inputs(triple, f"{series}{rank}"):
        _assert_same(case, f"{series}{rank} {label}")


@pytest.mark.parametrize("series,rank,spec", MIXED)
def test_kernels_match_dense_mixed(series, rank, spec):
    triple = split(series, rank, spec)
    for label, case in _inputs(triple, spec):
        _assert_same(case, f"{series}{rank} {spec} {label}")


@pytest.mark.parametrize("series,rank", [("A", 4), ("D", 4)])
def test_kernels_match_dense_past_the_violation_cap(series, rank):
    case = _scrambled(canonical_triple(series, rank),
                      random.Random(f"scrambled {series}{rank}"))
    report = verify_jacobi(case.double)
    assert report.details["violations_truncated"] > 0
    _assert_same(case, f"{series}{rank} scrambled")


def test_mutations_are_caught():
    # the differential inputs are not all trivially passing
    triple = canonical_triple("A", 3)
    verdicts = [(verify_jacobi(case.double).passed,
                 verify_compatibility(case).passed,
                 verify_form_invariance(case).passed)
                for _, case in _inputs(triple, "A3")]
    assert verdicts[0] == (True, True, True)
    assert any(not all(v) for v in verdicts[1:])
