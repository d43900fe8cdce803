"""The structure constants of a Manin triple and the checks on it.

Structure constants are written f^a_{b,c} for s+ ([Z_b, Z_c] = f^a_{b,c} Z_a)
and c^{a,b}_c for s- ([z^a, z^b] = c^{a,b}_c z^c). Crossed brackets are
recovered from f, c and the stored pairing alone, by exact solves, so a
perturbed pairing is detected rather than silently absorbed. The triples
are built in `manin`, and the cocommutator read off f and c in
`cocommutator`.

f, c, the pairing (stored once, read-only, with one positional view,
`ManinTriple.pairing_rows`), its inverse (sparse rows from
`linalg.SpanBasis`) and the double's form, its Casimir tensor
(`casimir_double`, as the double basis is its own dual), are sparse,
so the crossed-bracket solve and the pairing, self-duality,
compatibility, form-invariance and Casimir-form checks walk only their
nonzero entries: each accumulates its exact residual from products of
nonzero constants, and every index tuple that no product reaches is
0 = 0. The reconstruction check compares a crossed pair only where its
solved value or its bracket in the double can be nonzero. Reports still
count every tuple covered and list violations in index order.
"""

from __future__ import annotations

from types import MappingProxyType

from .algebra import LieAlgebra
from .elements import Element
from .errors import ClosureError, SpecError
from .generators import GeneratorId, cartan_count, mirror, positive_roots
from .linalg import accumulate
from .manin import ManinTriple
from .reporting import CheckReport
from .scalars import ONE, ZERO


def bracket_pairs(alg: LieAlgebra, elems):
    """(b, c, [elems[b], elems[c]]) for every pair b < c of the elements
    whose supports meet a nonzero bracket, in `itertools.combinations`
    order.

    The partners of each element are read off the adjoint index; every
    other pair brackets to exactly 0 and is not visited, so a term that
    no visited pair holds is never checked for membership here.
    """
    rows = alg.adjoint()
    holders = _holders(elems)
    for b, x in enumerate(elems):
        for c in sorted(c for c in _partners(rows, x, holders) if c > b):
            yield b, c, alg.bracket(x, elems[c])


def _holders(elems) -> dict:
    """Generator h -> positions of the elements whose support holds h."""
    holders = {}
    for pos, elem in enumerate(elems):
        for gid, _ in elem.terms():
            holders.setdefault(gid, []).append(pos)
    return holders


def _partners(rows, x: Element, holders: dict) -> set:
    """Positions of the held elements whose bracket with x has a nonzero
    term, read off the adjoint index `rows`; x brackets every other one
    to exactly 0."""
    return {pos for gx, _ in x.terms() for h in rows.get(gx, ())
            for pos in holders.get(h, ())}


def structure_tensors(triple: ManinTriple):
    """(f, c): full antisymmetric tensors over basis positions, kept on
    the triple and read-only, each map and every row.

    f[(b, c)] maps upper position a to f^a_{b,c}; c[(a, b)] maps lower
    position c to c^{a,b}_c. Each half is walked once per triple, through
    `bracket_pairs` and `decompose`: every other pair brackets to exactly
    0, which lies in either half and adds no entry. The walk also keeps,
    beside f and c in the memo, each pair whose bracket leaves its half
    as (side, pair, stray terms), in walk order; the constants are then
    not well defined, so every call raises ClosureError naming the first
    such pair, and `verify_closure` reports them all.
    """
    if triple._tensors is None:
        strays = []

        def side_tensor(basis, index, side):
            tensor = {}
            elems = [triple.elem(gid) for gid in basis]
            for b, c, out in bracket_pairs(triple.double, elems):
                rot = triple.decompose(out)
                if not rot.keys() <= index.keys():
                    stray = sorted(g.label for g in rot if g not in index)
                    strays.append((side, (basis[b].label, basis[c].label),
                                   tuple(stray)))
                elif rot:
                    vec = {index[gid]: coeff for gid, coeff in rot.items()}
                    tensor[(b, c)] = MappingProxyType(vec)
                    tensor[(c, b)] = MappingProxyType(
                        {pos: -val for pos, val in vec.items()})
            return MappingProxyType(tensor)

        f = side_tensor(triple.splus, triple.plus_index, "s+")
        c = side_tensor(triple.sminus, triple.minus_index, "s-")
        triple._tensors = (f, c, tuple(strays))
    f, c, strays = triple._tensors
    if strays:
        side, pair, _ = strays[0]
        raise ClosureError(f"[{pair[0]}, {pair[1]}] leaves {side}")
    return f, c


def _grouped(tensor):
    """A tensor's entries by first key index: first -> [(second, value)]."""
    out = {}
    for (first, second), vec in tensor.items():
        out.setdefault(first, []).append((second, vec))
    return out


def crossed_brackets(triple: ManinTriple):
    """[z^p, Z_q] coefficients solved from f, c and the stored pairing.

    Returns a dict keyed by (p, q) holding (alpha, beta): the s- and s+
    coefficient vectors over basis positions, in row-major order, for
    every pair whose solved value is nonzero; every pair not present
    solves to 0. With P the pairing over basis positions,

      alpha_t = sum_r (sum_s f^s_{q,r} P[p][s]) Pinv[r][t]
      beta_s = -sum_t Pinv[s][t] (sum_r c^{p,t}_r P[r][q])

    and both sums walk only the nonzero entries of f, c, P and Pinv: for
    each p, the inner sums are accumulated over the q they reach, so no
    pair that no product reaches is visited.
    """
    f, c = structure_tensors(triple)
    k = triple.half_dim
    p_rows = triple.pairing_rows
    pinv_rows = triple.pairing_inverse()
    pinv_cols = [{} for _ in range(k)]
    for s, row in enumerate(pinv_rows):
        for t, value in row.items():
            pinv_cols[t][s] = value
    # upper position s -> [(q, r, f^s_{q,r})]
    f_by_upper = {}
    for (q, r), vec in f.items():
        for s, val in vec.items():
            f_by_upper.setdefault(s, []).append((q, r, val))
    c_by_p = _grouped(c)
    out = {}
    for p in range(k):
        rhs = {}                     # (q, r) -> sum_s f^s_{q,r} P[p][s]
        for s, weight in p_rows[p].items():
            for q, r, val in f_by_upper.get(s, ()):
                accumulate(rhs, (q, r), val * weight)
        alphas = {}
        for (q, r), value in rhs.items():
            alpha = alphas.setdefault(q, {})
            for t, inv in pinv_rows[r].items():
                accumulate(alpha, t, value * inv)
        lhs = {}                     # (q, t) -> -sum_r c^{p,t}_r P[r][q]
        for t, vec in c_by_p.get(p, ()):
            for r, val in vec.items():
                for q, weight in p_rows[r].items():
                    accumulate(lhs, (q, t), -(val * weight))
        betas = {}
        for (q, t), value in lhs.items():
            beta = betas.setdefault(q, {})
            for s, inv in pinv_cols[t].items():
                accumulate(beta, s, inv * value)
        for q in sorted(alphas.keys() | betas.keys()):
            alpha, beta = alphas.get(q, {}), betas.get(q, {})
            if alpha or beta:
                out[(p, q)] = (dict(sorted(alpha.items())),
                               dict(sorted(beta.items())))
    return out


def verify_closure(triple: ManinTriple) -> CheckReport:
    """Each half must close under the double bracket.

    Reports the pairs that the walk of `structure_tensors` found leaving
    their half, in walk order, and brackets nothing itself; a pair that
    brackets to 0 is closed without a visit. `checked` counts all C(k, 2)
    pairs of each half.
    """
    try:
        structure_tensors(triple)
    except ClosureError:
        pass                        # each stray pair is reported below
    k = triple.half_dim
    report = CheckReport(check="closure", checked=k * (k - 1))
    for side, pair, stray in triple._tensors[2]:
        report.add_violation({"side": side, "pair": list(pair),
                              "stray": list(stray)})
    return report


def casimir_quadratic(alg) -> dict:
    """The quadratic Casimir as its symmetric 2-tensor, (a, b) ->
    coefficient: H_i x H_i over the Cartans, then r x m and m x r for each
    positive root r and its mirror m."""
    cartans = [GeneratorId("H", i)
               for i in range(1, cartan_count(alg.series, alg.rank) + 1)]
    tensor = {(h, h): ONE for h in cartans}
    for root in positive_roots(alg.series, alg.rank):
        tensor[(root, mirror(root))] = tensor[(mirror(root), root)] = ONE
    return tensor


def casimir_double(alg) -> dict:
    """The double's Casimir: the quadratic tensor, then I_k x I_k over the
    retained central generators. As the double basis is its own dual, it
    is also the pairing's form on the double."""
    tensor = casimir_quadratic(alg)
    for gid in alg.basis:
        if gid.kind == "I":
            tensor[(gid, gid)] = ONE
    return tensor


def verify_pairing(triple: ManinTriple) -> CheckReport:
    """Isotropy of both halves and agreement with the intrinsic form.

    The intrinsic form puts H_i with H_i, I_i with I_i, and each root with
    its mirror (the tensor `casimir_double`); both halves must be
    isotropic for it, and the cross Gram matrix must match the stored
    pairing and be invertible. The Gram matrix joins each member's terms
    through the tensor with the members holding their partners. `checked`
    counts every pair a <= b of each half and all k^2 crossed pairs.
    """
    form = _grouped(casimir_double(triple.double))
    # s+ at positions 0 .. k-1, then s- at k .. 2k-1
    members = triple.splus + triple.sminus
    elems = [triple.elem(gid) for gid in members]
    holders = _holders(elems)
    gram = {}
    for a, x in enumerate(elems):
        for g, ca in x.terms():
            for h, value in form.get(g, ()):
                for b in holders.get(h, ()):
                    accumulate(gram, (a, b), ca * value * elems[b].coeff(h))
    k = triple.half_dim
    report = CheckReport(check="pairing", checked=k * (k + 1) + k * k)
    for (a, b), value in sorted(gram.items()):
        if a <= b and (a < k) == (b < k):
            report.add_violation({"side": "s+" if a < k else "s-",
                                  "pair": [members[a].label, members[b].label],
                                  "value": str(value)})
    stored = {(k + m, p): value
              for m, row in enumerate(triple.pairing_rows)
              for p, value in row.items()}
    for a, b in sorted({key for key in gram if key[1] < k <= key[0]}
                       | stored.keys()):
        value, expected = gram.get((a, b), ZERO), stored.get((a, b), ZERO)
        if value - expected:
            report.add_violation({"pair": [members[a].label, members[b].label],
                                  "intrinsic": str(value),
                                  "stored": str(expected)})
    try:
        triple.pairing_inverse()
    except SpecError:
        report.add_violation({"pairing": "singular"})
    return report


def verify_reconstruction(triple: ManinTriple) -> CheckReport:
    """Crossed brackets solved from (f, c, pairing) must match the double.

    A pair (p, q) is decided only where its solved value is nonzero or
    [z^p, Z_q] can be: where some term of z^p has a nonzero bracket in the
    double's adjoint index with some term of Z_q. Every other pair is
    0 = 0. The solved alpha and beta name disjoint members and hold no
    zero, so their union is the expected decomposition as it stands.
    `checked` counts all k^2 pairs, and violations come in row-major
    order.
    """
    report = CheckReport(check="reconstruction")
    try:
        crossed = crossed_brackets(triple)
    except (ClosureError, SpecError) as err:
        report.add_violation({"error": str(err)})
        return report
    k = triple.half_dim
    report.checked = k * k
    double = triple.double
    rows = double.adjoint()
    plus = [triple.elem(gid) for gid in triple.splus]
    holders = _holders(plus)
    solved = {}
    for (p, q), value in crossed.items():
        solved.setdefault(p, {})[q] = value
    for p, mgid in enumerate(triple.sminus):
        x = triple.elem(mgid)
        row = solved.get(p, {})
        for q in sorted(_partners(rows, x, holders) | row.keys()):
            rot = triple.decompose(double.bracket(x, plus[q]))
            alpha, beta = row.get(q, ({}, {}))
            expected = {triple.sminus[t]: val for t, val in alpha.items()}
            expected.update({triple.splus[s]: val for s, val in beta.items()})
            if rot != expected:
                report.add_violation({
                    "pair": [mgid.label, triple.splus[q].label],
                    "actual": sorted(g.label for g in rot),
                    "solved": sorted(g.label for g in expected),
                })
    return report


def verify_compatibility(triple: ManinTriple, jobs: int = 1) -> CheckReport:
    """The quadratic identity tying c to f over all index quadruples.

    For every p < q and s < t the difference

      c^{p,q}_r f^r_{s,t} - (c^{p,r}_s f^q_{r,t} + c^{r,q}_s f^p_{r,t}
                             + c^{p,r}_t f^q_{s,r} + c^{r,q}_t f^p_{s,r})

    (summed over r) must vanish; both sides are antisymmetric in each
    index pair, so this covers every quadruple. Every product joins a
    nonzero c entry with a nonzero f entry on the shared index r, so the
    differences are accumulated from those joins alone and a quadruple
    that no join reaches is exactly 0 = 0.

    The direct term walks c^{p,q}_r (p < q) against f^r_{s,t} (s < t).
    With A(p, q, s, t) = sum_r c^{r,p}_s f^q_{r,t}, antisymmetry of c
    and f makes the mixing sum -A(p,q,s,t) + A(q,p,s,t) + A(p,q,t,s)
    - A(q,p,t,s), one join on r: each product c^{r,p}_s f^q_{r,t} with
    p != q and s != t is formed once and added to the sorted quadruple,
    with + when (p < q) == (s < t) and - otherwise.

    `checked` counts all C(k, 2)^2 quadruples, and the violations are
    reported in index order. `jobs` is accepted for compatibility; the
    check runs in one process.
    """
    report = CheckReport(check="compatibility")
    try:
        f, c = structure_tensors(triple)
    except ClosureError as err:
        report.add_violation({"error": str(err)})
        return report
    k = triple.half_dim
    pairs = k * (k - 1) // 2
    report.checked = pairs * pairs
    diff = {}
    f_by_upper = {}                                 # r -> [(s, t, f^r_{s,t})]
    for (s, t), vec in f.items():
        if s < t:
            for r, val in vec.items():
                f_by_upper.setdefault(r, []).append((s, t, val))
    for (p, q), vec in c.items():
        if p < q:
            for r, cv in vec.items():
                for s, t, fv in f_by_upper.get(r, ()):
                    accumulate(diff, (p, q, s, t), cv * fv)
    f_by_first = _grouped(f)                        # r -> [(t, f_{r,t})]
    for r, c_entries in _grouped(c).items():        # r -> [(p, c^{r,p})]
        f_entries = f_by_first.get(r, ())
        for p, cvec in c_entries:
            for t, fvec in f_entries:
                for s, cv in cvec.items():
                    if s == t:
                        continue
                    lower = (s, t) if s < t else (t, s)
                    for q, fv in fvec.items():
                        if q != p:
                            term = cv * fv
                            upper = (p, q) if p < q else (q, p)
                            accumulate(diff, upper + lower,
                                       term if (p < q) == (s < t) else -term)
    for (p, q, s, t), value in sorted(diff.items()):
        report.add_violation({
            "indices": [triple.sminus[p].label, triple.sminus[q].label,
                        triple.splus[s].label, triple.splus[t].label],
            "difference": str(value),
        })
    return report


def verify_self_duality(triple: ManinTriple) -> CheckReport:
    """c must be -f, with coefficients i-conjugated under a mixed rotation.

    Only the pairs p < q with an entry in f or c are compared, in index
    order; every other pair is {} = {}. `checked` counts all C(k, 2)
    pairs.
    """
    conjugate = triple.spec.mode == "mixed"
    report = CheckReport(check="selfdual")
    try:
        f, c = structure_tensors(triple)
    except ClosureError as err:
        report.add_violation({"error": str(err)})
        return report
    k = triple.half_dim
    report.checked = k * (k - 1) // 2
    for p, q in sorted(key for key in f.keys() | c.keys()
                       if key[0] < key[1]):
        got = c.get((p, q), {})
        want = {r: -(value.conj_i() if conjugate else value)
                for r, value in f.get((p, q), {}).items()}
        if got != want:
            report.add_violation({
                "pair": [triple.sminus[p].label, triple.sminus[q].label],
            })
    return report


def verify_form_invariance(triple: ManinTriple) -> CheckReport:
    """B([a, b], c) + B(b, [a, c]) = 0 over all double basis triples.

    The form is read through decompose and the stored pairing, so a
    perturbed or rescaled pairing is seen: decompose, inverted, gives each
    rotated member as a covector [(h, coeff)], and each stored entry pushed
    onto both orders of each covector pair gives the rows B(g, .) once.
    B is bilinear, so each nonzero bracket [a, b] = sum_g x_g g spreads
    x_g B(g, h) onto the triple (a, b, h) (first term) and onto (a, h, b)
    (second term); a triple that receives nothing is exactly 0 = 0.
    `checked` counts all dim * dim(dim + 1)/2 triples (b <= c), and the
    violations are reported in basis order.
    """
    alg = triple.double
    basis, index = alg.basis, alg.index
    covectors = {}                     # member -> [(h, coeff)]
    for h in basis:
        for member, coeff in triple.decompose(Element.gen(h)).items():
            covectors.setdefault(member, []).append((h, coeff))
    rows = {}                          # g -> {basis position of h: B(g, h)}
    for (mgid, pgid), value in triple.pairing.items():
        for g, cm in covectors.get(mgid, ()):
            for h, cp in covectors.get(pgid, ()):
                term = value * cm * cp
                accumulate(rows.setdefault(g, {}), index[h], term)
                accumulate(rows.setdefault(h, {}), index[g], term)
    totals = {}
    for pu, pv, entry in alg.entries():
        for g, x in entry.terms():
            for ph, value in rows.get(g, {}).items():
                # [u, v] for a = u, b = v, and [v, u] = -[u, v] for a = v
                for pa, pb, term in ((pu, pv, x * value), (pv, pu, -(x * value))):
                    if pb <= ph:
                        accumulate(totals, (pa, pb, ph), term)
                    if ph <= pb:
                        accumulate(totals, (pa, ph, pb), term)
    dim = len(basis)
    report = CheckReport(check="forminv", checked=dim * dim * (dim + 1) // 2)
    for key, value in sorted(totals.items()):
        report.add_violation({
            "triple": [basis[k].label for k in key],
            "value": str(value),
        })
    return report


def verify_casimir_form(triple: ManinTriple) -> CheckReport:
    """The dual-basis 2-tensor of the pairing in double coordinates.

    Sum over the nonzero entries of the inverse pairing of the weighted,
    symmetrized z x Z tensors; it must equal the tensor of the double's
    Casimir (`casimir_double`): H x H plus I x I over the retained
    Cartans plus mirror-symmetrized root pairs. Violations are listed in
    basis order of the pair.
    """
    report = CheckReport(check="casimir-form")
    try:
        pinv = triple.pairing_inverse()
    except SpecError as err:
        report.add_violation({"error": str(err)})
        return report
    tensor = {}
    minus_elems = [triple.elem(g) for g in triple.sminus]
    plus_elems = [triple.elem(g) for g in triple.splus]
    for s, row in enumerate(pinv):
        for t, weight in row.items():
            for ga, ca in minus_elems[t].terms():
                for gb, cb in plus_elems[s].terms():
                    prod = weight * ca * cb
                    accumulate(tensor, (ga, gb), prod)
                    accumulate(tensor, (gb, ga), prod)

    alg = triple.double
    expected = casimir_double(alg)

    keys = sorted(set(tensor) | set(expected),
                  key=lambda key: (alg.index[key[0]], alg.index[key[1]]))
    report.checked = len(keys)
    for key in keys:
        diff = tensor.get(key, ZERO) - expected.get(key, ZERO)
        if diff:
            report.add_violation({
                "pair": [key[0].label, key[1].label],
                "difference": str(diff),
            })
    return report

