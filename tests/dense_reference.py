"""Dense reference kernels for the differential tests.

Each function enumerates the whole index cube, tuple by tuple, exactly
as the package did before its verifiers learned to walk only the nonzero
structure constants: the Jacobi triple loop, the compatibility quadruple
loop over transposed tensors, the form-invariance triple loop (the
form read by `_pair_rot` over every stored pairing entry), the pairing
check's intrinsic rule (H_i with H_i, I_i with I_i, each root with its
mirror, its own statement of `double.casimir_double`) on every pair of each
half and every crossed pair, self-duality on all C(k, 2) pairs, the
dense crossed-bracket solve (with its own dense pairing matrix and
Gauss-Jordan inverse, so the oracle shares no elimination with the
package), and the cocycle pair loop, which brackets
every wedge factor of delta(y) with x and of delta(x) with y. closure
brackets every pair of members of each half, and reconstruction every s-
member with every s+ member. The bialgebra checks are kept as they were before they read the adjoint
index: co-Jacobi on the full antisymmetric 3-tensor with its cyclic sum,
coboundary and twist through ad_wedge (every wedge factor bracketed with
every generator), the CYBE from element brackets of every two matched
pairs, the structure tensors from the bracket of every pair of members
of each half, and the chain's loop over every pair of rank n
generators. The representation checks multiply whole matrices per basis
pair (the commutator, rho of the bracket built by one copy per term,
their difference) and count the residual on the columns the truncation
protects (`occupation_raise`, `protected_columns`): the truncated verdict
that the package read off its matrices before the normal-ordered
residual alone decided it. Casimirs are
read as their tensors, (a, b) -> c for the term c a x b. The
Casimir ad-invariance check brackets every basis generator with both
factors of every tensor term, as the package did before it joined the
nonzero brackets with the tensor's factors. The representations
themselves are built as the package built them before it applied the
oscillator polynomials to the Fock states: products of
Jordan-Wigner creation and annihilation matrices, and of occupation
raising and lowering ones, one branch per generator kind. They are slow
and independent of the support-driven kernels and of the Fock action in
drinfeld_forge, which is what makes them a useful oracle: every element
bracket is taken by `_bracket`, term pair by term pair through
`_bracket_gens`, which reads the table itself, so the oracle shares no
code with the adjoint index that `LieAlgebra.bracket_gens` reads.
`with_entry` makes the edited copies of a representation that the
mutation tests hold to the matrix gate, and `restrict` the sub-tables
that the kernel tests index, each stored in the sub-basis order. They are
not part of the package and nothing outside the tests imports them.
"""

from __future__ import annotations

import itertools

from drinfeld_forge import serialize
from drinfeld_forge.algebra import LieAlgebra, build_series, shift_generator
from drinfeld_forge.bialgebra import build_r_matrix, twisted_cartan_part
from drinfeld_forge.cocommutator import (cocommutator_from_structure,
                                         wedge_insert)
from drinfeld_forge.double import (casimir_double, casimir_quadratic,
                                   structure_tensors)
from drinfeld_forge.elements import Element
from drinfeld_forge.errors import ClosureError, SpecError
from drinfeld_forge.generators import GeneratorId
from drinfeld_forge.generators import cartan_count, mirror
from drinfeld_forge.linalg import accumulate
from drinfeld_forge.manin import canonical_triple, with_double
from drinfeld_forge.reporting import CheckReport
from drinfeld_forge.reps import Representation, SparseMatrix
from drinfeld_forge.scalars import HALF, INV_SQRT2, ONE, ZERO, Scalar


def _bracket_gens(alg, p: GeneratorId, q: GeneratorId) -> Element:
    """[p, q] of two members, read from the table entry (p, q) or (q, p)."""
    alg._check_member(p)
    alg._check_member(q)
    entry = alg.table.get((p, q))
    if entry is not None:
        return entry.copy()
    entry = alg.table.get((q, p))
    return -entry if entry is not None else Element()


def _delta_of(table, elem: Element) -> dict:
    """The cocommutator of an element, term by term."""
    out = {}
    for gid, coeff in elem.terms():
        for key, val in table[gid].items():
            accumulate(out, key, coeff * val)
    return out


def _bracket(alg, x: Element, y: Element) -> Element:
    out = Element()
    for gx, cx in x.terms():
        for gy, cy in y.terms():
            inner = _bracket_gens(alg, gx, gy)
            if inner:
                factor = cx * cy
                for gid, coeff in inner.terms():
                    out.add_term(gid, coeff * factor)
    return out


def _jacobi_residual(alg, x, y, z) -> Element:
    total = _bracket(alg, _bracket_gens(alg, x, y), Element.gen(z))
    total = total + _bracket(alg, _bracket_gens(alg, y, z), Element.gen(x))
    total = total + _bracket(alg, _bracket_gens(alg, z, x), Element.gen(y))
    return total


def verify_jacobi(alg) -> CheckReport:
    """Jacobi identity over every unordered basis triple."""
    combos = list(itertools.combinations(alg.basis, 3))
    report = CheckReport(check="jacobi", passed=True, checked=len(combos))
    for x, y, z in combos:
        residual = _jacobi_residual(alg, x, y, z)
        if residual:
            report.add_violation({
                "indices": [x.label, y.label, z.label],
                "residual": serialize.element_json(residual, alg.index),
            })
    return report


def _dot(u, v):
    if u is None or v is None:
        return ZERO
    if len(v) < len(u):
        u, v = v, u
    total = ZERO
    for key, left in u.items():
        right = v.get(key)
        if right is not None:
            total = total + left * right
    return total


def _transposed_tensors(f, c):
    a1, a2, b1, b2 = {}, {}, {}, {}
    for (p, r), vec in c.items():
        for s, val in vec.items():
            a1.setdefault((p, s), {})[r] = val
    for (r, q), vec in c.items():
        for s, val in vec.items():
            a2.setdefault((q, s), {})[r] = val
    for (r, t), vec in f.items():
        for q, val in vec.items():
            b1.setdefault((q, t), {})[r] = val
    for (s, r), vec in f.items():
        for q, val in vec.items():
            b2.setdefault((q, s), {})[r] = val
    return a1, a2, b1, b2


def _compatibility_chunk(f, c, trans, k, pq_pairs):
    a1, a2, b1, b2 = trans
    bad = []
    for p, q in pq_pairs:
        for s in range(k):
            for t in range(s + 1, k):
                lhs = _dot(c.get((p, q)), f.get((s, t)))
                rhs = (_dot(a1.get((p, s)), b1.get((q, t)))
                       + _dot(a2.get((q, s)), b1.get((p, t)))
                       + _dot(a1.get((p, t)), b2.get((q, s)))
                       + _dot(a2.get((q, t)), b2.get((p, s))))
                if lhs - rhs:
                    bad.append((p, q, s, t, str(lhs - rhs)))
    return bad


def verify_compatibility(triple) -> CheckReport:
    """c^{p,q}_r f^r_{s,t} against the four-term mixing sum, every p < q, s < t."""
    report = CheckReport(check="compatibility", passed=True)
    try:
        f, c = structure_tensors(triple)
    except ClosureError as err:
        report.add_violation({"error": str(err)})
        return report
    k = triple.half_dim
    pq_pairs = list(itertools.combinations(range(k), 2))
    report.checked = len(pq_pairs) * len(pq_pairs)
    for p, q, s, t, value in _compatibility_chunk(
            f, c, _transposed_tensors(f, c), k, pq_pairs):
        report.add_violation({
            "indices": [triple.sminus[p].label, triple.sminus[q].label,
                        triple.splus[s].label, triple.splus[t].label],
            "difference": value,
        })
    return report


def _pair_rot(triple, rot_a: dict, rot_b: dict) -> Scalar:
    """B of two elements given over the rotated members, summed over every
    stored pairing entry in both orders."""
    total = ZERO
    if not rot_a or not rot_b:
        return total
    for (mgid, pgid), value in triple.pairing.items():
        for minus, plus in ((rot_a, rot_b), (rot_b, rot_a)):
            if mgid in minus and pgid in plus:
                total = total + value * minus[mgid] * plus[pgid]
    return total


def verify_pairing(triple) -> CheckReport:
    """The intrinsic form (H_i with H_i, I_i with I_i, each root with its
    mirror) on every pair a <= b of each half, and against the stored
    pairing on every s- x s+ pair."""
    decomp = {gid: {k: v for k, v in triple.elem(gid).terms()}
              for gid in triple.splus + triple.sminus}

    def intrinsic(a, b) -> Scalar:
        total = ZERO
        for gid, ca in decomp[a].items():
            if gid.kind in ("H", "I"):
                cb = decomp[b].get(gid)
            else:
                cb = decomp[b].get(mirror(gid))
            if cb is not None:
                total = total + ca * cb
        return total

    report = CheckReport(check="pairing", passed=True)
    for side, basis in (("s+", triple.splus), ("s-", triple.sminus)):
        for a, b in itertools.combinations_with_replacement(basis, 2):
            report.checked += 1
            value = intrinsic(a, b)
            if value:
                report.add_violation({"side": side,
                                      "pair": [a.label, b.label],
                                      "value": str(value)})
    for mgid in triple.sminus:
        for pgid in triple.splus:
            report.checked += 1
            expected = triple.pairing.get((mgid, pgid), ZERO)
            value = intrinsic(mgid, pgid)
            if value - expected:
                report.add_violation({"pair": [mgid.label, pgid.label],
                                      "intrinsic": str(value),
                                      "stored": str(expected)})
    try:
        triple.pairing_inverse()
    except SpecError:
        report.add_violation({"pairing": "singular"})
    return report


def verify_self_duality(triple) -> CheckReport:
    """c against -f (i-conjugated under a mixed rotation), every p < q."""
    conjugate = triple.spec.mode == "mixed"
    report = CheckReport(check="selfdual", passed=True)
    try:
        f, c = structure_tensors(triple)
    except ClosureError as err:
        report.add_violation({"error": str(err)})
        return report
    for p, q in itertools.combinations(range(triple.half_dim), 2):
        report.checked += 1
        got = c.get((p, q), {})
        want = {r: -(value.conj_i() if conjugate else value)
                for r, value in f.get((p, q), {}).items()}
        if got != want:
            report.add_violation({
                "pair": [triple.sminus[p].label, triple.sminus[q].label],
            })
    return report


def verify_form_invariance(triple) -> CheckReport:
    """B([a, b], c) + B(b, [a, c]) = 0, every a and every b <= c."""
    basis = triple.double.basis
    rot_of = {gid: triple.decompose(Element.gen(gid)) for gid in basis}
    bracket_rot = {}
    for a, b in itertools.combinations(basis, 2):
        out = _bracket_gens(triple.double, a, b)
        bracket_rot[(a, b)] = triple.decompose(out) if out else {}

    def rot_bracket(a, b):
        if a == b:
            return {}
        if (a, b) in bracket_rot:
            return bracket_rot[(a, b)]
        return {gid: -val for gid, val in bracket_rot[(b, a)].items()}

    report = CheckReport(check="forminv", passed=True)
    for a in basis:
        for b, c in itertools.combinations_with_replacement(basis, 2):
            report.checked += 1
            total = (_pair_rot(triple, rot_bracket(a, b), rot_of[c])
                     + _pair_rot(triple, rot_of[b], rot_bracket(a, c)))
            if total:
                report.add_violation({
                    "triple": [a.label, b.label, c.label],
                    "value": str(total),
                })
    return report


def pairing_matrix(triple) -> list[list[Scalar]]:
    """The stored pairing as a dense list: row j is the s- member j,
    column s the s+ member s."""
    return [[triple.pairing.get((mgid, pgid), ZERO) for pgid in triple.splus]
            for mgid in triple.sminus]


def invert_matrix(rows: list[list[Scalar]]) -> list[list[Scalar]]:
    """Exact inverse of a dense matrix by Gauss-Jordan elimination, the
    way the package inverted the pairing before it used SpanBasis.
    Raises SpecError, as the package does, on a singular matrix."""
    n = len(rows)
    aug = [list(row) + [ONE if k == r else ZERO for k in range(n)]
           for r, row in enumerate(rows)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot_row is None:
            raise SpecError("pairing matrix is singular")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = aug[col][col].inv()
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def crossed_brackets(triple):
    """[z^p, Z_q] by dense products with the pairing and its inverse,
    both built here from the stored pairing."""
    f, c = structure_tensors(triple)
    k = triple.half_dim
    P = pairing_matrix(triple)
    Pinv = invert_matrix(P)
    out = {}
    for p in range(k):
        for q in range(k):
            rhs = []
            for r in range(k):
                vec = f.get((q, r))
                total = ZERO
                if vec:
                    for s, val in vec.items():
                        total = total + val * P[p][s]
                rhs.append(total)
            alpha = {}
            for t in range(k):
                total = ZERO
                for r in range(k):
                    if rhs[r]:
                        total = total + rhs[r] * Pinv[r][t]
                if total:
                    alpha[t] = total
            lhs = []
            for t in range(k):
                vec = c.get((p, t))
                total = ZERO
                if vec:
                    for r, val in vec.items():
                        total = total - val * P[r][q]
                lhs.append(total)
            beta = {}
            for s in range(k):
                total = ZERO
                for t in range(k):
                    if lhs[t]:
                        total = total + Pinv[s][t] * lhs[t]
                if total:
                    beta[s] = total
            out[(p, q)] = (alpha, beta)
    return out


def wedge_to_tensor(wedge: dict) -> dict:
    """Expand a normal-form wedge into the full antisymmetric 2-tensor."""
    out = {}
    for (ga, gb), coeff in wedge.items():
        accumulate(out, (ga, gb), coeff)
        accumulate(out, (gb, ga), -coeff)
    return out


def ad_wedge(alg, x, wedge: dict) -> dict:
    """(ad_x x 1 + 1 x ad_x) applied to a wedge, back in normal form."""
    if isinstance(x, GeneratorId):
        x = Element.gen(x)
    out = {}
    for (ga, gb), coeff in wedge.items():
        for g, c in _bracket(alg, x, Element.gen(ga)).terms():
            wedge_insert(out, alg.index, g, gb, c * coeff)
        for g, c in _bracket(alg, x, Element.gen(gb)).terms():
            wedge_insert(out, alg.index, ga, g, c * coeff)
    return out


def structure_tensors_pairwise(triple):
    """(f, c) from the double bracket of every pair of members of each
    half, without the triple's memo."""

    def side_tensor(basis, index, side_name):
        tensor = {}
        for b, c in itertools.combinations(range(len(basis)), 2):
            out = _bracket(triple.double, triple.elem(basis[b]),
                           triple.elem(basis[c]))
            rot = triple.decompose(out)
            vec = {}
            for gid, coeff in rot.items():
                pos = index.get(gid)
                if pos is None:
                    raise ClosureError(
                        f"[{basis[b].label}, {basis[c].label}] leaves {side_name}")
                vec[pos] = coeff
            if vec:
                tensor[(b, c)] = vec
                tensor[(c, b)] = {pos: -val for pos, val in vec.items()}
        return tensor

    f = side_tensor(triple.splus, triple.plus_index, "s+")
    c = side_tensor(triple.sminus, triple.minus_index, "s-")
    return f, c


def verify_closure(triple) -> CheckReport:
    """Each half closed under the bracket of every pair of its members."""
    report = CheckReport(check="closure", passed=True)
    for basis, index, side in ((triple.splus, triple.plus_index, "s+"),
                               (triple.sminus, triple.minus_index, "s-")):
        for b, c in itertools.combinations(range(len(basis)), 2):
            report.checked += 1
            out = _bracket(triple.double, triple.elem(basis[b]),
                           triple.elem(basis[c]))
            stray = [gid for gid in triple.decompose(out) if gid not in index]
            if stray:
                report.add_violation({
                    "side": side,
                    "pair": [basis[b].label, basis[c].label],
                    "stray": sorted(g.label for g in stray),
                })
    return report


def verify_reconstruction(triple) -> CheckReport:
    """The dense crossed-bracket solve against the bracket of every s-
    member with every s+ member."""
    report = CheckReport(check="reconstruction", passed=True)
    try:
        crossed = crossed_brackets(triple)
    except (ClosureError, SpecError) as err:
        report.add_violation({"error": str(err)})
        return report
    for (p, q), (alpha, beta) in crossed.items():
        report.checked += 1
        actual = _bracket(triple.double, triple.elem(triple.sminus[p]),
                          triple.elem(triple.splus[q]))
        rot = triple.decompose(actual)
        expected = {}
        for t, val in alpha.items():
            accumulate(expected, triple.sminus[t], val)
        for s, val in beta.items():
            accumulate(expected, triple.splus[s], val)
        if rot != expected:
            report.add_violation({
                "pair": [triple.sminus[p].label, triple.splus[q].label],
                "actual": sorted(g.label for g in rot),
                "solved": sorted(g.label for g in expected),
            })
    return report


def verify_cojacobi(alg, table) -> CheckReport:
    """Cyclic sum of (delta x id) o delta over the full 3-tensor, every
    generator."""
    report = CheckReport(check="cojacobi", passed=True,
                         checked=len(alg.basis))
    full = {gid: wedge_to_tensor(table[gid]) for gid in alg.basis}
    for gid in alg.basis:
        xi = {}
        for (a, b), coeff in full[gid].items():
            for (x, y), inner in full[a].items():
                accumulate(xi, (x, y, b), coeff * inner)
        residual = {}
        for (x, y, z), val in xi.items():
            for key in ((x, y, z), (y, z, x), (z, x, y)):
                accumulate(residual, key, val)
        if residual:
            report.add_violation({"gen": gid.label, "terms": len(residual)})
    return report


def verify_coboundary(triple, table=None, include_cartan=True) -> CheckReport:
    """delta against ad_wedge of the skew r-matrix part, every generator."""
    alg = triple.double
    if table is None:
        table = cocommutator_from_structure(triple)
    rmat = build_r_matrix(triple)
    wedge = dict(rmat["skew_root"])
    if include_cartan:
        for key, val in rmat["skew_cartan"].items():
            accumulate(wedge, key, val)
    report = CheckReport(check="coboundary", passed=True, checked=alg.dim)
    for gid in alg.basis:
        actual = ad_wedge(alg, gid, wedge)
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


def verify_twist(triple) -> CheckReport:
    """ad_wedge of the twisted Cartan part, every generator."""
    alg = triple.double
    wedge, mode = twisted_cartan_part(triple)
    report = CheckReport(check="twist", passed=True, checked=alg.dim)
    report.details["mode"] = mode
    report.details["twisted_terms"] = len(wedge)
    for gid in alg.basis:
        moved = ad_wedge(alg, gid, wedge)
        if moved:
            report.add_violation({
                "gen": gid.label,
                "moved": [[a.label, b.label, str(v)]
                          for (a, b), v in moved.items()],
            })
    return report


def verify_cybe(triple) -> CheckReport:
    """[r12, r13] + [r12, r23] + [r13, r23] from element brackets of every
    two matched pairs."""
    alg = triple.double
    pairs = [(triple.elem(m), triple.elem(p))
             for m, p in zip(triple.sminus, triple.splus)]
    tensor = {}

    def add_product(ea: Element, eb: Element, ec: Element) -> None:
        for ga, ca in ea.terms():
            for gb, cb in eb.terms():
                factor = ca * cb
                for gc, cc in ec.terms():
                    accumulate(tensor, (ga, gb, gc), factor * cc)

    for za, plus_a in pairs:
        for zb, plus_b in pairs:
            add_product(_bracket(alg, za, zb), plus_a, plus_b)
            add_product(za, _bracket(alg, plus_a, zb), plus_b)
            add_product(za, zb, _bracket(alg, plus_a, plus_b))
    report = CheckReport(check="cybe", passed=True, checked=len(pairs) ** 2)
    if tensor:
        sample = sorted(tensor.items(),
                        key=lambda kv: tuple(alg.index[g] for g in kv[0]))[:5]
        report.add_violation({
            "terms": len(tensor),
            "sample": [[a.label, b.label, c.label, str(v)]
                       for (a, b, c), v in sample],
        })
    return report


def verify_chain_embedding(series, rank, big_double=None) -> CheckReport:
    """The shift compared on every pair of rank n generators, then on
    every cocommutator."""
    small = build_series(series, rank)
    big_triple = canonical_triple(series, rank + 1)
    if big_double is not None:
        big_triple = with_double(big_triple, big_double)
    big = big_triple.double
    phi = {g: shift_generator(g, 1) for g in small.basis}
    report = CheckReport(check="chain", passed=True)
    report.details["ranks"] = [rank, rank + 1]
    for a, b in itertools.combinations(small.basis, 2):
        report.checked += 1
        want = Element()
        for g, c in _bracket_gens(small, a, b).terms():
            want.add_term(phi[g], c)
        got = _bracket_gens(big, phi[a], phi[b])
        if got != want:
            report.add_violation({"kind": "bracket",
                                  "pair": [a.label, b.label]})
    small_delta = cocommutator_from_structure(canonical_triple(series, rank))
    big_delta = cocommutator_from_structure(big_triple)
    for g in small.basis:
        report.checked += 1
        want = {}
        for (a, b), val in small_delta[g].items():
            wedge_insert(want, big.index, phi[a], phi[b], val)
        if big_delta[phi[g]] != want:
            report.add_violation({"kind": "delta", "gen": g.label})
    return report


def verify_cocycle(alg, table) -> CheckReport:
    """delta([x, y]) = ad_x delta(y) - ad_y delta(x) over every basis pair,
    bracketing every wedge factor with x and with y."""
    report = CheckReport(check="cocycle", passed=True)
    for x, y in itertools.combinations(alg.basis, 2):
        report.checked += 1
        lhs = _delta_of(table, _bracket_gens(alg, x, y))
        rhs = ad_wedge(alg, x, table[y])
        for key, val in ad_wedge(alg, y, table[x]).items():
            accumulate(rhs, key, -val)
        if lhs != rhs:
            report.add_violation({"pair": [x.label, y.label]})
    return report


def identity(dim: int, factor: Scalar = ONE) -> SparseMatrix:
    """factor times the identity."""
    return SparseMatrix(dim, {(k, k): factor for k in range(dim)})


def add(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    out = dict(a.entries)
    for key, value in b.entries.items():
        out[key] = out.get(key, ZERO) + value
    return SparseMatrix(a.dim, out)


def scale(mat: SparseMatrix, factor: Scalar) -> SparseMatrix:
    return SparseMatrix(mat.dim, {key: value * factor
                                  for key, value in mat.entries.items()})


def matmul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """a b: sum over m of a[row, m] b[m, col], through a row index of b."""
    b_rows = {}
    for (mid, col), right in b.entries.items():
        b_rows.setdefault(mid, []).append((col, right))
    out = {}
    for (row, mid), left in a.entries.items():
        for col, right in b_rows.get(mid, ()):
            out[(row, col)] = out.get((row, col), ZERO) + left * right
    return SparseMatrix(a.dim, out)


def _jw_sign(mask: int, mode: int) -> Scalar:
    """-1 to the number of occupied modes below `mode`."""
    return Scalar((-1) ** sum(1 for m in range(mode) if mask >> m & 1))


def fermion_create(modes: int, index: int) -> SparseMatrix:
    """a+ on Cartan index `index` (1-based), with the Jordan-Wigner string."""
    bit = 1 << (index - 1)
    return SparseMatrix(1 << modes, {
        (mask | bit, mask): _jw_sign(mask, index - 1)
        for mask in range(1 << modes) if not mask & bit})


def fermion_annihilate(modes: int, index: int) -> SparseMatrix:
    """a on Cartan index `index` (1-based), with the Jordan-Wigner string."""
    bit = 1 << (index - 1)
    return SparseMatrix(1 << modes, {
        (mask & ~bit, mask): _jw_sign(mask & ~bit, index - 1)
        for mask in range(1 << modes) if mask & bit})


def boson_states(modes: int, cutoff: int) -> list[tuple[int, ...]]:
    """Every occupation tuple of total at most `cutoff`, sorted."""
    return sorted(state for state in itertools.product(range(cutoff + 1),
                                                       repeat=modes)
                  if sum(state) <= cutoff)


def boson_create(states, index_of, index: int) -> SparseMatrix:
    """b+ on Cartan index `index` (1-based): |n> -> |n+1>, dropped above
    the cutoff."""
    pos = index - 1
    out = SparseMatrix(len(states))
    for col, state in enumerate(states):
        row = index_of.get(state[:pos] + (state[pos] + 1,) + state[pos + 1:])
        if row is not None:
            out.entries[(row, col)] = ONE
    return out


def _lambda_table(alg, lambdas):
    table = {i: ONE for i in range(1, cartan_count(alg.series, alg.rank) + 1)}
    table.update(lambdas or {})
    return table


def fermionic_matrices(alg, lambdas=None) -> dict:
    """rho(g) for every basis generator g, from Jordan-Wigner products."""
    n = cartan_count(alg.series, alg.rank)
    lam = _lambda_table(alg, lambdas)
    dim = 1 << n
    create = {i: fermion_create(n, i) for i in range(1, n + 1)}
    destroy = {i: fermion_annihilate(n, i) for i in range(1, n + 1)}
    matrices = {}
    for gid in alg.basis:
        kind, i, j = gid
        if kind == "H":
            number = matmul(create[i], destroy[i])
            matrices[gid] = add(number, identity(dim, -HALF))
        elif kind == "I":
            matrices[gid] = identity(dim, lam[i])
        elif kind == "F":
            matrices[gid] = matmul(create[i], destroy[j])
        elif kind == "S":
            matrices[gid] = matmul(create[i], create[j])
        elif kind == "T":
            matrices[gid] = scale(matmul(destroy[i], destroy[j]), Scalar(-1))
        elif kind == "U":
            matrices[gid] = scale(create[i], INV_SQRT2)
        elif kind == "V":
            matrices[gid] = scale(destroy[i], INV_SQRT2)
        else:
            raise ValueError(f"kind {kind!r} has no fermionic realization")
    return matrices


def bosonic_matrices(alg, cutoff: int, lambdas=None) -> dict:
    """rho(g) for every basis generator g, from products of the truncated
    raising and lowering matrices."""
    n = cartan_count(alg.series, alg.rank)
    lam = _lambda_table(alg, lambdas)
    states = boson_states(n, cutoff)
    index_of = {state: pos for pos, state in enumerate(states)}
    dim = len(states)
    create = {i: boson_create(states, index_of, i) for i in range(1, n + 1)}
    # b|n> = n|n-1>: the transpose of b+, scaled by the occupation lowered
    destroy = {i: SparseMatrix(dim, {(col, row): Scalar(states[row][i - 1])
                                     for row, col in create[i].entries})
               for i in range(1, n + 1)}
    matrices = {}
    for gid in alg.basis:
        kind, i, j = gid
        if kind == "H":
            number = matmul(create[i], destroy[i])
            matrices[gid] = add(number, identity(dim, HALF))
        elif kind == "I":
            matrices[gid] = identity(dim, lam[i])
        elif kind == "F":
            matrices[gid] = matmul(create[i], destroy[j])
        elif kind == "P":
            pair = matmul(create[i], create[j])
            matrices[gid] = scale(pair, INV_SQRT2) if i == j else pair
        elif kind == "Q":
            pair = matmul(destroy[i], destroy[j])
            matrices[gid] = scale(pair, -INV_SQRT2 if i == j else Scalar(-1))
        else:
            raise ValueError(f"kind {kind!r} has no bosonic realization")
    return matrices


def with_entry(rep, gid, key, value):
    """The representation with entry `key` of rho(gid) set to `value`: a
    new Representation, with its own proof, as the package never edits one
    in place."""
    entries = dict(rep.matrix(gid).entries)
    entries[key] = value
    matrices = dict(rep.matrices)
    matrices[gid] = SparseMatrix(rep.space_dim, entries)
    return Representation(rep.alg, matrices, rep.space, rep.lambdas)


def restrict(alg, keep) -> LieAlgebra:
    """The sub-algebra on a bracket-closed subset `keep` of alg's basis,
    with keep's order as its basis order (ClosureError if a bracket leaves
    the span)."""
    keep = tuple(keep)
    kept = set(keep)
    table = {}
    for p, q in itertools.combinations(keep, 2):
        out = _bracket_gens(alg, p, q)
        if out.support() - kept:
            raise ClosureError(
                f"[{p.label}, {q.label}] leaves the restricted span")
        if out:
            # combinations(keep) puts p before q in the sub's order
            table[(p, q)] = out
    return LieAlgebra(alg.series, alg.rank, keep, table, alg.n_indices)


def commutator(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """a b - b a, from two whole matrix products."""
    return add(matmul(a, b), scale(matmul(b, a), Scalar(-1)))


def element_matrix(rep, elem: Element) -> SparseMatrix:
    """rho(elem), copying the running sum once per term."""
    total = SparseMatrix(rep.space_dim)
    for gid, coeff in elem.terms():
        total = add(total, scale(rep.matrix(gid), coeff))
    return total


def occupation_raise(gid: GeneratorId) -> int:
    """Largest total-occupation increase the image of a generator causes."""
    return 2 if gid.kind == "P" else 0


def raise_budget(tensor) -> int:
    """Largest total-occupation increase of a Casimir tensor's generators."""
    return max((occupation_raise(gid) for key in tensor for gid in key),
               default=0)


def protected_columns(rep, budget: int) -> set[int]:
    """Columns whose total occupation keeps `budget` raises within the
    cutoff (every column of an untruncated representation), from the
    occupation states enumerated afresh. A product of truncated matrices
    equals the truncated product on these columns only."""
    if rep.cutoff is None:
        return set(range(rep.space_dim))
    states = boson_states(cartan_count(rep.alg.series, rep.alg.rank),
                          rep.cutoff)
    return {pos for pos, state in enumerate(states)
            if sum(state) + budget <= rep.cutoff}


def _protected_entries(residual: SparseMatrix, columns: set[int]) -> int:
    return sum(1 for _, col in residual.entries if col in columns)


def verify_rep_homomorphism(alg, rep) -> CheckReport:
    """rho([p, q]) against the whole-matrix commutator, every basis pair,
    on the columns the truncation protects."""
    pairs = list(itertools.combinations(alg.basis, 2))
    report = CheckReport(check=f"rep-{rep.kind}", passed=True,
                         checked=len(pairs))
    report.details["space_dim"] = rep.space_dim
    if rep.cutoff is not None:
        report.details["cutoff"] = rep.cutoff
    for p, q in pairs:
        columns = protected_columns(rep, occupation_raise(p)
                                    + occupation_raise(q))
        actual = commutator(rep.matrix(p), rep.matrix(q))
        expected = element_matrix(rep, _bracket_gens(alg, p, q))
        if actual == expected:
            continue
        wrong = _protected_entries(
            add(actual, scale(expected, Scalar(-1))), columns)
        if wrong:
            report.add_violation({"pair": [p.label, q.label],
                                  "entries": wrong})
    return report


def labelled_casimirs(alg) -> tuple:
    """(label, tensor) of both Casimirs, labelled as `verify` labels
    their reports."""
    return (("quadratic", casimir_quadratic(alg)),
            ("double", casimir_double(alg)))


def casimir_matrix(rep, tensor) -> SparseMatrix:
    """The Casimir's matrix, one whole-matrix product and sum per tensor
    term."""
    total = SparseMatrix(rep.space_dim)
    for (ga, gb), coeff in tensor.items():
        product = matmul(rep.matrix(ga), rep.matrix(gb))
        total = add(total, scale(product, coeff))
    return total


def verify_casimir_commutes(alg, rep, tensor, label) -> CheckReport:
    """[C, rho(g)] as a whole matrix, every basis generator g, on the
    columns the truncation protects."""
    matrix = casimir_matrix(rep, tensor)
    report = CheckReport(check=f"casimir-{label}-{rep.kind}",
                         passed=True, checked=len(alg.basis))
    budget = raise_budget(tensor)
    for gid in alg.basis:
        columns = protected_columns(rep, budget + occupation_raise(gid))
        wrong = _protected_entries(commutator(matrix, rep.matrix(gid)),
                                   columns)
        if wrong:
            report.add_violation({"gen": gid.label, "entries": wrong})
    return report


def ad_invariance_report(alg, tensor, label) -> CheckReport:
    """Exact table-level check that the Casimir symbol is ad-invariant.

    The Casimir tensor must be killed by ad_z x 1 + 1 x ad_z for every
    basis generator z: both factors of every tensor term are bracketed
    with z, so no symmetry of the tensor is assumed.
    """
    report = CheckReport(check=f"casimir-invariance-{label}", passed=True,
                         checked=len(alg.basis))
    for z in alg.basis:
        moved = {}
        for (ga, gb), coeff in tensor.items():
            for gid, inner in _bracket_gens(alg, z, ga).terms():
                accumulate(moved, (gid, gb), coeff * inner)
            for gid, inner in _bracket_gens(alg, z, gb).terms():
                accumulate(moved, (ga, gid), coeff * inner)
        if moved:
            report.add_violation({"gen": z.label, "terms": len(moved)})
    return report
