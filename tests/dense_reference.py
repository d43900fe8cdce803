"""Dense reference kernels for the differential tests.

Each function enumerates the whole index cube, tuple by tuple, exactly
as the package did before its verifiers learned to walk only the nonzero
structure constants: the Jacobi triple loop, the compatibility quadruple
loop over transposed tensors, the form-invariance triple loop and the
dense crossed-bracket solve. They are slow and independent of the
support-driven kernels in drinfeld_forge, which is what makes them a
useful oracle. They are not part of the package and nothing outside the
tests imports them.
"""

from __future__ import annotations

import itertools

from drinfeld_forge import serialize
from drinfeld_forge.double import structure_tensors
from drinfeld_forge.elements import Element
from drinfeld_forge.errors import ClosureError
from drinfeld_forge.reporting import CheckReport
from drinfeld_forge.scalars import ZERO


def _bracket(alg, x: Element, y: Element) -> Element:
    out = Element()
    for gx, cx in x.terms():
        for gy, cy in y.terms():
            inner = alg.bracket_gens(gx, gy)
            if inner:
                factor = cx * cy
                for gid, coeff in inner.terms():
                    out.add_term(gid, coeff * factor)
    return out


def _jacobi_residual(alg, x, y, z) -> Element:
    total = _bracket(alg, alg.bracket_gens(x, y), Element.gen(z))
    total = total + _bracket(alg, alg.bracket_gens(y, z), Element.gen(x))
    total = total + _bracket(alg, alg.bracket_gens(z, x), Element.gen(y))
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


def verify_form_invariance(triple) -> CheckReport:
    """B([a, b], c) + B(b, [a, c]) = 0, every a and every b <= c."""
    basis = triple.double.basis
    rot_of = {gid: triple.decompose(Element.gen(gid)) for gid in basis}
    bracket_rot = {}
    for a, b in itertools.combinations(basis, 2):
        out = triple.double.bracket_gens(a, b)
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
            total = (triple._pair_rot(rot_bracket(a, b), rot_of[c])
                     + triple._pair_rot(rot_of[b], rot_bracket(a, c)))
            if total:
                report.add_violation({
                    "triple": [a.label, b.label, c.label],
                    "value": str(total),
                })
    return report


def crossed_brackets(triple):
    """[z^p, Z_q] by dense products with the pairing and its inverse."""
    f, c = structure_tensors(triple)
    k = triple.half_dim
    P = triple.pairing_matrix()
    Pinv = triple.pairing_inverse()
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
