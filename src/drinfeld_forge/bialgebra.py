"""Lie bialgebra checks on a cocommutator table, and the r-matrix.

The cocycle, co-Jacobi and sub-bialgebra checks read any table of
normal-form wedges (`cocommutator`); the coboundary, CYBE and twist
checks read the classical r-matrix (`build_r_matrix`) and the chain
check the structure-derived tables of two ranks.
"""

from __future__ import annotations

import itertools

from .algebra import LieAlgebra, shift_generator
from .cocommutator import (cocommutator_from_structure, wedge_insert,
                           wedge_of_elements)
from .double import bracket_pairs
from .elements import Element
from .errors import NotASubalgebraError, SpecError
from .generators import GeneratorId
from .linalg import SpanBasis, accumulate
from .manin import ManinTriple, canonical_triple, with_double
from .reporting import CheckReport
from .scalars import HALF, ONE


def _check_factors(alg: LieAlgebra, table: dict) -> None:
    """ForeignGeneratorError at the first wedge factor outside alg."""
    for gid in alg.basis:
        for a, b in table[gid]:
            alg._check_member(a)
            alg._check_member(b)


def verify_cocycle(alg: LieAlgebra, table: dict) -> CheckReport:
    """delta([x, y]) = ad_x delta(y) - ad_y delta(x) on every basis pair,
    exactly.

    The residual of x < y is delta([x, y]) - ad_x delta(y) + ad_y delta(x).
    With each wedge term w (a ^ b) of a delta also written -w (b ^ a),
    ad_z of a delta is the sum of v [z, s] ^ t over its terms v (s ^ t),
    so each part of the residual is a join of nonzero data, as in
    verify_jacobi: delta([x, y]) walks every nonzero table entry [x, y]
    and the delta of each term of it; ad_y delta(x) walks every term of
    delta(x) and every y with [s, y] nonzero; ad_x delta(y) walks every s
    with [x, s] nonzero and every term of a delta(y) with the factor s.
    All three read the adjoint index (`LieAlgebra.adjoint`) as stored,
    the first and the last in one pass over the row of x. A pair that no
    join reaches has the residual 0 exactly. The residuals are held one
    first generator x at a time. `checked` counts all C(dim, 2) pairs,
    and the violations are reported in basis order.
    """
    basis, index = alg.basis, alg.index
    adjoint = alg.adjoint()
    _check_factors(alg, table)
    # the terms v (s ^ t) of each delta, each with -v, and factor s ->
    # [(position of the delta, t, v, -v)] over all of them
    terms = []
    factors = {}
    for py, gid in enumerate(basis):
        row = []
        for (a, b), w in table[gid].items():
            nw = -w
            row += ((a, b, w, nw), (b, a, nw, w))
        for s, t, v, nv in row:
            factors.setdefault(s, []).append((py, t, v, nv))
        terms.append(row)
    dim = alg.dim
    report = CheckReport(check="cocycle", checked=dim * (dim - 1) // 2)
    for px, x in enumerate(basis):
        # position of y -> the residual of (x, y), for y after x
        residuals = {}
        # + ad_y delta(x) adds v [y, s] ^ t = v t ^ [s, y] for each term of
        # delta(x), and - ad_x delta(y) adds -v [x, s] ^ t = v t ^ [x, s]
        # for each term of delta(y); the index entry `bracket` is [s, y]
        # or [x, s] when its first generator comes first in basis order,
        # and its negation otherwise, so v or -v is picked once per entry
        joined = []
        for s, t, v, nv in terms[px]:
            ps = index[s]
            for y, bracket in adjoint.get(s, {}).items():
                py = index[y]
                if py > px:
                    joined.append((py, bracket, t, v if ps < py else nv))
        for s, bracket in adjoint.get(x, {}).items():
            after = px < index[s]
            if after:           # delta([x, s]): the entry is [x, s] itself
                acc = residuals[index[s]] = {}
                for g, cg in bracket.terms():
                    for key, val in table[g].items():
                        accumulate(acc, key, cg * val)
            joined += [(py, bracket, t, v if after else nv)
                       for py, t, v, nv in factors.get(s, ()) if py > px]
        for py, bracket, t, v in joined:
            acc = residuals.get(py)
            if acc is None:
                acc = residuals[py] = {}
            for h, ch in bracket.terms():
                wedge_insert(acc, index, t, h, ch * v)
        for py in sorted(residuals):
            if residuals[py]:
                report.add_violation({"pair": [x.label, basis[py].label]})
    return report


def verify_cojacobi(alg: LieAlgebra, table: dict) -> CheckReport:
    """Cyclic sum of (delta x id) o delta must vanish on every generator.

    Each delta(a) is a wedge, a sum of w (s ^ t) with s ^ t = s x t - t x s,
    so X = (delta x id) delta(g), a sum of delta(a) x b, is antisymmetric
    in its first two slots. Its cyclic sum R(x, y, z) = X(x, y, z) +
    X(z, x, y) + X(y, z, x) is invariant under rotation and, by that
    antisymmetry, changes sign when its first two slots swap: R is
    alternating. So R is 0 on every triple with a repeated generator, and
    on three distinct ones it is the sign of their order times its value on
    the sorted triple. A term w_g (a ^ b) of delta(g) and a term w_a (s ^ t)
    of delta(a) put w_g w_a (s ^ t) x b into X, whose cyclic sum is
    w_g w_a times the full antisymmetrization of s x t x b: it adds w_g w_a,
    times the sign that sorts (s, t, b), to the sorted triple of s, t and b,
    and nothing when b is s or t; the other half of the term, -w_g b x a,
    does the same with delta(b), the factor a and the opposite sign. Only
    the sorted distinct triples are therefore accumulated, straight from
    the wedge-form deltas. `terms` counts the nonzero entries of the whole
    3-tensor R, 6 per nonzero sorted triple.
    """
    _check_factors(alg, table)
    index = alg.index
    # generator -> [(position of s, position of t, w)] over the terms
    # w (s ^ t) of its delta, with s before t
    wedges = {}
    for gid in alg.basis:
        row = wedges[gid] = []
        for (a, b), w in table[gid].items():
            ps, pt = index[a], index[b]
            if ps < pt:
                row.append((ps, pt, w))
            elif ps > pt:
                row.append((pt, ps, -w))
    report = CheckReport(check="cojacobi", checked=len(alg.basis))
    for gid in alg.basis:
        residual = {}
        for (a, b), w in table[gid].items():
            for third, outer, inner in ((index[b], w, wedges[a]),
                                        (index[a], -w, wedges[b])):
                for ps, pt, v in inner:
                    if third > pt:
                        accumulate(residual, (ps, pt, third), outer * v)
                    elif third < ps:
                        accumulate(residual, (third, ps, pt), outer * v)
                    elif ps < third < pt:
                        accumulate(residual, (ps, third, pt), -(outer * v))
        if residual:
            report.add_violation({"gen": gid.label,
                                  "terms": 6 * len(residual)})
    return report


def verify_subbialgebra(alg: LieAlgebra, table: dict,
                        elements: list[Element], label: str) -> CheckReport:
    """Span must close under the bracket and delta must land in its wedge.

    Raises NotASubalgebraError if the span is not even a subalgebra, since
    the wedge membership question is then ill posed. Every term of every
    element and every wedge factor of the table is checked for membership
    first (ForeignGeneratorError), and only the pairs `bracket_pairs` joins
    are bracketed: every other pair brackets to exactly 0, in the span.
    """
    span = SpanBasis()
    for elem in elements:
        for gid, _ in elem.terms():
            alg._check_member(gid)
        span.add({g: c for g, c in elem.terms()})
    _check_factors(alg, table)
    for _, _, out in bracket_pairs(alg, elements):
        if not span.contains({g: c for g, c in out.terms()}):
            raise NotASubalgebraError(
                f"{label}: bracket of span members leaves the span")
    wedge_span = SpanBasis()
    reduced = [Element(row) for row in span.rows()]
    for a, b in itertools.combinations(reduced, 2):
        wedge_span.add(wedge_of_elements(alg.index, a, b))
    report = CheckReport(check="subbialg", checked=len(elements))
    report.details["span"] = label
    report.details["span_dim"] = len(span)
    for elem in elements:
        image = {}
        for gid, coeff in elem.terms():
            for key, val in table[gid].items():
                accumulate(image, key, coeff * val)
        outside = wedge_span.reduce(image)
        if outside:
            report.add_violation({
                "element": str(elem),
                "outside_terms": [[a.label, b.label, str(v)]
                                  for (a, b), v in sorted(
                                      outside.items(),
                                      key=lambda kv: (alg.index[kv[0][0]],
                                                      alg.index[kv[0][1]]))],
            })
    return report


def a_chain_span(alg: LieAlgebra, centrals: bool = False) -> list[Element]:
    """Special-linear chain: Cartan differences plus every F generator.

    The bare span is a subalgebra but not a sub-bialgebra: delta of any F
    generator wedges against central differences that the span cannot
    reach. Passing centrals=True adjoins those differences, which repairs
    the defect.
    """
    kinds = ("H", "I") if centrals else ("H",)
    out = []
    for i in range(1, alg.n_indices):
        for kind in kinds:
            elem = Element.gen(GeneratorId(kind, i))
            elem.add_term(GeneratorId(kind, i + 1), -ONE)
            out.append(elem)
    out += [Element.gen(g) for g in alg.basis if g.kind == "F"]
    return out


def orthogonal_span_in_b(alg: LieAlgebra) -> list[Element]:
    """Everything except U and V: a subalgebra of the B series whose delta
    still reaches U ^ U, so it is not a sub-bialgebra."""
    if alg.series != "B":
        raise SpecError("this span is defined inside the B series")
    return [Element.gen(g) for g in alg.basis if g.kind not in ("U", "V")]


SPAN_BUILDERS = {
    "splus": lambda triple: ("s+", [triple.elem(g) for g in triple.splus]),
    "sminus": lambda triple: ("s-", [triple.elem(g) for g in triple.sminus]),
    "An": lambda triple: ("A-chain", a_chain_span(triple.double)),
    "Anc": lambda triple: ("A-chain-central",
                           a_chain_span(triple.double, centrals=True)),
    "Dn": lambda triple: ("D-in-B", orthogonal_span_in_b(triple.double)),
}


def build_r_matrix(triple: ManinTriple) -> dict:
    """r = sum z^p x Z_p, as its three parts in export order: "nonskew",
    the tensor r itself ((g, h) -> r_gh), then the normal-form wedges of
    its skew half, split into "skew_root" and "skew_cartan" (the terms
    with both factors an H or I)."""
    index = triple.double.index
    nonskew = {}
    for mgid, pgid in zip(triple.sminus, triple.splus):
        for ga, ca in triple.elem(mgid).terms():
            for gb, cb in triple.elem(pgid).terms():
                accumulate(nonskew, (ga, gb), ca * cb)
    skew_root, skew_cartan = {}, {}
    for (ga, gb), val in nonskew.items():
        # the transposed entry lands on the same normal-form key with the
        # oriented sign, so each one contributes half the wedge coefficient
        target = skew_cartan if ga.kind in ("H", "I") and gb.kind in ("H", "I") \
            else skew_root
        wedge_insert(target, index, ga, gb, val * HALF)
    return {"nonskew": nonskew, "skew_root": skew_root,
            "skew_cartan": skew_cartan}


def _ad_images(alg: LieAlgebra, wedge: dict):
    """(z, (ad_z x 1 + 1 x ad_z) wedge) for every basis generator z, in
    basis order, each image a normal-form wedge.

    For each z only the wedge terms with a factor that z brackets to a
    nonzero value are visited, through the adjoint index. They are taken
    in the wedge's order, the first factor's bracket before the second's
    and each bracket term by term, so every image is built by the same
    sequence of additions as a walk over all terms would make, and its
    dict lists its terms in the same order.
    """
    index = alg.index
    # (a, b, position of a, position of b, w, -w) for each term w (a ^ b),
    # and factor -> positions in `terms` of the wedge terms it is in
    terms = []
    holders = {}
    for pos, ((ga, gb), coeff) in enumerate(wedge.items()):
        for g in (ga, gb):
            alg._check_member(g)
            holders.setdefault(g, []).append(pos)
        terms.append((ga, gb, index[ga], index[gb], coeff, -coeff))
    adjoint = alg.adjoint()
    for pz, z in enumerate(alg.basis):
        # the index entry under z and h is [z, h] when z comes before h
        brackets = adjoint.get(z, {})
        out = {}
        for pos in sorted({pos for h in brackets
                           for pos in holders.get(h, ())}):
            ga, gb, pa, pb, coeff, ncoeff = terms[pos]
            left = brackets.get(ga)
            if left is not None:
                factor = coeff if pz < pa else ncoeff
                for g, c in left.terms():
                    wedge_insert(out, index, g, gb, c * factor)
            right = brackets.get(gb)
            if right is not None:
                factor = coeff if pz < pb else ncoeff
                for g, c in right.terms():
                    wedge_insert(out, index, ga, g, c * factor)
        yield z, out


def verify_coboundary(triple: ManinTriple, table: dict | None = None,
                      include_cartan: bool = True) -> CheckReport:
    """delta must equal the coboundary of the skew r-matrix part.

    The coboundary of r at z is (ad_z x 1 + 1 x ad_z) r, applied through
    the adjoint index (`_ad_images`); each residual lists its terms in
    the order of that image, then the delta terms it lacks.
    """
    alg = triple.double
    if table is None:
        table = cocommutator_from_structure(triple)
    rmat = build_r_matrix(triple)
    wedge = dict(rmat["skew_root"])
    if include_cartan:
        for key, val in rmat["skew_cartan"].items():
            accumulate(wedge, key, val)
    report = CheckReport(check="coboundary", checked=alg.dim)
    for gid, actual in _ad_images(alg, wedge):
        expected = table[gid]
        if actual != expected:
            diff = dict(actual)
            for key, val in expected.items():
                accumulate(diff, key, -val)
            report.add_violation({
                "gen": gid.label,
                "residual": [[a.label, b.label, str(v)]
                             for (a, b), v in diff.items()],
            })
    return report


def verify_cybe(triple: ManinTriple) -> CheckReport:
    """[r12, r13] + [r12, r23] + [r13, r23] = 0 for the nonskew r.

    With r = sum r_gh g x h over the double basis (the "nonskew" part of
    `build_r_matrix`), the three brackets are the sums of r_gh r_g'h'
    times [g, g'] x h x h', g x [h, g'] x h' and g x g' x [h, h'], so each
    is a join of r with itself through the adjoint index, and a product
    with a zero bracket is never formed. `checked` counts the pairs of matched basis pairs,
    and the sample is the first five residual terms in basis order.
    """
    alg = triple.double
    adjoint = alg.adjoint()
    r = build_r_matrix(triple)["nonskew"]
    # first factor -> [(second, r_gh)], and second factor -> [(first, r_gh)]
    by_first, by_second = {}, {}
    for (g, h), v in r.items():
        by_first.setdefault(g, []).append((h, v))
        by_second.setdefault(h, []).append((g, v))
    index = alg.index
    tensor = {}
    for (g, h), v in r.items():
        # the index entry under a and b is [a, b] when a comes before b,
        # so v or -v is picked once per entry
        pg, ph, nv = index[g], index[h], -v
        for g2, bracket in adjoint.get(g, {}).items():    # [r12, r13]
            sv = v if pg < index[g2] else nv
            for h2, v2 in by_first.get(g2, ()):
                factor = sv * v2
                for k, c in bracket.terms():
                    accumulate(tensor, (k, h, h2), c * factor)
        for g2, bracket in adjoint.get(h, {}).items():    # [r12, r23]
            sv = v if ph < index[g2] else nv
            for h2, v2 in by_first.get(g2, ()):
                factor = sv * v2
                for k, c in bracket.terms():
                    accumulate(tensor, (g, k, h2), c * factor)
        for h2, bracket in adjoint.get(h, {}).items():    # [r13, r23]
            sv = v if ph < index[h2] else nv
            for g2, v2 in by_second.get(h2, ()):
                factor = sv * v2
                for k, c in bracket.terms():
                    accumulate(tensor, (g, g2, k), c * factor)
    report = CheckReport(check="cybe", checked=triple.half_dim ** 2)
    if tensor:
        sample = sorted(tensor.items(),
                        key=lambda kv: tuple(alg.index[g] for g in kv[0]))[:5]
        report.add_violation({
            "terms": len(tensor),
            "sample": [[a.label, b.label, c.label, str(v)]
                       for (a, b, c), v in sample],
        })
    return report


def identify_centrals(wedge: dict, index: dict) -> dict:
    """Merge every I_k into I_1 inside a wedge."""
    first = GeneratorId("I", 1)
    out = {}
    for (ga, gb), val in wedge.items():
        if ga.kind == "I":
            ga = first
        if gb.kind == "I":
            gb = first
        wedge_insert(out, index, ga, gb, val)
    return out


def zero_centrals(wedge: dict) -> dict:
    return {key: val for key, val in wedge.items()
            if key[0].kind != "I" and key[1].kind != "I"}


def twisted_cartan_part(triple: ManinTriple) -> tuple[dict, str]:
    """The Cartan r-matrix part after the central twist.

    The A series identifies every central charge with the first one, which
    works because the total Cartan sum commutes with everything there; the
    other series set the central charges to zero. Only the canonical
    splitting keeps its Cartan part purely in H ^ I form, so mixed
    splittings are rejected.
    """
    if triple.spec.mode != "canonical":
        raise SpecError("the central twist is defined for the canonical "
                        "splitting only")
    cartan = build_r_matrix(triple)["skew_cartan"]
    if triple.double.series == "A":
        return identify_centrals(cartan, triple.double.index), "identified"
    return zero_centrals(cartan), "zeroed"


def verify_twist(triple: ManinTriple) -> CheckReport:
    """The twisted Cartan part must be invariant under every generator,
    applied through the adjoint index as in verify_coboundary."""
    alg = triple.double
    wedge, mode = twisted_cartan_part(triple)
    report = CheckReport(check="twist", checked=alg.dim)
    report.details["mode"] = mode
    report.details["twisted_terms"] = len(wedge)
    for gid, moved in _ad_images(alg, wedge):
        if moved:
            report.add_violation({
                "gen": gid.label,
                "moved": [[a.label, b.label, str(v)]
                          for (a, b), v in moved.items()],
            })
    return report


def verify_chain_embedding(series: str, rank: int,
                           big_double: LieAlgebra | None = None,
                           small_triple: ManinTriple | None = None
                           ) -> CheckReport:
    """The index shift i -> i+1 embeds rank n into rank n+1.

    Both the brackets and the structure-derived cocommutators must commute
    with the shift, exactly. big_double substitutes a replacement (typically
    mutated) rank n+1 double on the receiving side. small_triple is the
    canonical rank n triple when the caller already holds one, so that its
    structure tensors and cocommutator are reused; it is split otherwise.
    The embedding checked is always the canonical one: under a mixed
    splitting `verify --checks chain` reports what the canonical run does.

    The brackets are compared by joining the nonzero entries of both
    tables over the shifted image: a pair that neither table holds is
    0 = 0. `checked` counts every pair of rank n generators and every
    generator, and the violations are reported in basis order.
    """
    if small_triple is None:
        small_triple = canonical_triple(series, rank)
    elif (small_triple.spec.mode != "canonical"
          or small_triple.double.series != series
          or small_triple.double.rank != rank):
        raise SpecError(f"the chain starts from the canonical {series}{rank} "
                        "triple")
    small = small_triple.double
    big_triple = canonical_triple(series, rank + 1)
    if big_double is not None:
        big_triple = with_double(big_triple, big_double)
    big = big_triple.double
    phi = {g: shift_generator(g, 1) for g in small.basis}
    for g in phi.values():
        big._check_member(g)
    dim = small.dim
    report = CheckReport(check="chain", checked=dim * (dim - 1) // 2 + dim)
    report.details["ranks"] = [rank, rank + 1]
    # (position of a, position of b) -> [shifted [a, b], [phi a, phi b]],
    # each as its terms; a comes before b in both, as phi keeps basis order
    pairs = {(pa, pb): [{phi[g]: c for g, c in entry.terms()}, {}]
             for pa, pb, entry in small.entries()}
    back = {shifted: pos for pos, shifted in enumerate(phi.values())}
    for pu, pv, entry in big.entries():
        pa, pb = back.get(big.basis[pu]), back.get(big.basis[pv])
        if pa is not None and pb is not None:
            pairs.setdefault((pa, pb), [{}, {}])[1] = dict(entry.terms())
    for (pa, pb), (want, got) in sorted(pairs.items()):
        if got != want:
            report.add_violation({"kind": "bracket",
                                  "pair": [small.basis[pa].label,
                                           small.basis[pb].label]})
    # freed before rank n+1's index, tensors and cocommutator are built
    del pairs, back
    small_delta = cocommutator_from_structure(small_triple)
    big_delta = cocommutator_from_structure(big_triple)
    for g in small.basis:
        want = {}
        for (a, b), val in small_delta[g].items():
            wedge_insert(want, big.index, phi[a], phi[b], val)
        if big_delta[phi[g]] != want:
            report.add_violation({"kind": "delta", "gen": g.label})
    return report
