"""Manin triples: isotropic splittings of the centrally extended algebras.

The double is the algebra itself (all of H, I and the root generators);
a splitting rotates the Cartan block into isotropic halves. Every Cartan
index is either central, rotating H_k with its own I_k,

  X_k = (H_k + i I_k) / sqrt2      x^k = (H_k - i I_k) / sqrt2

or a member of a two-index pair (i, j), rotating H_i with H_j,

  X_i,j = (H_i + i H_j) / sqrt2    x^i,j = (H_i - i H_j) / sqrt2

in which case I_i and I_j are dropped from the double. The canonical
splitting makes every index central. s+ collects the rotated upper
Cartans and the positive roots; s- mirrors it element for element, so
the pairing between matched bases is the identity.

Structure constants are written f^a_{b,c} for s+ ([Z_b, Z_c] = f^a_{b,c} Z_a)
and c^{a,b}_c for s- ([z^a, z^b] = c^{a,b}_c z^c). Crossed brackets are
recovered from f, c and the stored pairing alone, by exact solves, so a
perturbed pairing is detected rather than silently absorbed.

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

from functools import lru_cache
from types import MappingProxyType

from .algebra import LieAlgebra, build_series
from .elements import Element
from .errors import ClosureError, SpecError
from .generators import (GeneratorId, cartan_count, mirror, positive_roots,
                         validate_series_rank)
from .linalg import SpanBasis, accumulate
from .reporting import CheckReport
from .scalars import I, INV_SQRT2, ONE, ZERO, Scalar

_I_INV_SQRT2 = I * INV_SQRT2
_NEG_I_INV_SQRT2 = -_I_INV_SQRT2


class SplittingSpec:
    """Partition of the Cartan indices into rotation pairs and central ones."""

    __slots__ = ("pairs", "central")

    def __init__(self, pairs=(), central=None):
        seen = []
        for pair in pairs:
            i, j = pair
            if i == j:
                raise SpecError(f"rotation pair ({i}, {j}) repeats an index")
            seen.append((int(i), int(j)))
        self.pairs = tuple(seen)
        self.central = None if central is None else frozenset(int(k) for k in central)

    @property
    def mode(self) -> str:
        return "canonical" if not self.pairs else "mixed"

    def resolve(self, n: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
        """Bind to a Cartan count, filling the central set by complement."""
        used = [i for pair in self.pairs for i in pair]
        if len(set(used)) != len(used):
            raise SpecError("rotation pairs share an index")
        for i in used:
            if not 1 <= i <= n:
                raise SpecError(f"rotation index {i} out of range 1..{n}")
        remainder = frozenset(range(1, n + 1)) - set(used)
        central = remainder if self.central is None else self.central
        if central != remainder:
            raise SpecError(
                "central set must list exactly the unpaired Cartan indices")
        return self.pairs, tuple(sorted(central))

    def to_json(self) -> dict:
        out = {"mode": self.mode, "pairs": [list(p) for p in self.pairs]}
        if self.central is not None:
            out["central"] = sorted(self.central)
        return out

    @classmethod
    def parse(cls, text: str) -> SplittingSpec:
        """Accepts "canonical" or "mixed:pairs=1-2,3-4;central=5"."""
        text = text.strip()
        if text == "canonical":
            return cls()
        if not text.startswith("mixed:"):
            raise SpecError(f"unknown splitting {text!r}")
        pairs, central = [], None
        for field in filter(None, text[len("mixed:"):].split(";")):
            name, _, value = field.partition("=")
            if name == "pairs":
                for chunk in filter(None, value.split(",")):
                    parts = chunk.split("-")
                    if len(parts) != 2:
                        raise SpecError(f"bad rotation pair {chunk!r}")
                    try:
                        pairs.append((int(parts[0]), int(parts[1])))
                    except ValueError:
                        raise SpecError(f"bad rotation pair {chunk!r}") from None
            elif name == "central":
                try:
                    central = [int(c) for c in filter(None, value.split(","))]
                except ValueError:
                    raise SpecError(f"bad central list {value!r}") from None
            else:
                raise SpecError(f"unknown splitting field {name!r}")
        if not pairs:
            raise SpecError("mixed splitting needs at least one pair")
        return cls(tuple(pairs), central)


class CartanRotation:
    """Change of basis between (H, I) and the isotropic Cartan halves."""

    def __init__(self, spec: SplittingSpec, n: int):
        pairs, central = spec.resolve(n)
        items = sorted(
            [("pair", i, j) for i, j in pairs]
            + [("central", k, None) for k in central],
            key=lambda item: item[1])
        self.plus_ids = []
        self.minus_ids = []
        self.to_double = {}
        self.from_cartan = {}
        for kind, i, j in items:
            upper = GeneratorId("X", i, j)
            lower = GeneratorId("x", i, j)
            first = GeneratorId("H", i)
            second = GeneratorId("H", j) if kind == "pair" else GeneratorId("I", i)
            up = Element()
            up.add_term(first, INV_SQRT2)
            up.add_term(second, _I_INV_SQRT2)
            down = Element()
            down.add_term(first, INV_SQRT2)
            down.add_term(second, _NEG_I_INV_SQRT2)
            self.to_double[upper] = up
            self.to_double[lower] = down
            self.from_cartan[first] = ((upper, INV_SQRT2), (lower, INV_SQRT2))
            self.from_cartan[second] = ((upper, _NEG_I_INV_SQRT2),
                                        (lower, _I_INV_SQRT2))
            self.plus_ids.append(upper)
            self.minus_ids.append(lower)
        self.plus_ids = tuple(self.plus_ids)
        self.minus_ids = tuple(self.minus_ids)
        for rot, elem in self.to_double.items():
            back = {}
            for gid, coeff in elem.terms():
                for target, weight in self.from_cartan[gid]:
                    accumulate(back, target, coeff * weight)
            if back != {rot: ONE}:
                raise SpecError(f"Cartan rotation fails to invert {rot.label}")


class ManinTriple:
    """A double, a Cartan rotation, and the pairing between the halves."""

    def __init__(self, double: LieAlgebra, spec: SplittingSpec,
                 rotation: CartanRotation, pairing=None, minus_factor=ONE):
        self.double = double
        self.spec = spec
        self.rotation = rotation
        plus_roots = tuple(positive_roots(double.series, double.rank))
        self.splus = rotation.plus_ids + plus_roots
        self.sminus = rotation.minus_ids + tuple(mirror(r) for r in plus_roots)
        self.plus_index = {gid: k for k, gid in enumerate(self.splus)}
        self.minus_index = {gid: k for k, gid in enumerate(self.sminus)}
        if pairing is None:
            pairing = {(m, p): ONE for m, p in zip(self.sminus, self.splus)}
        # read-only, so that no memo below goes stale: an edited pairing
        # is a new triple (`perturb_pairing`, `rescale_minus`)
        self.pairing = MappingProxyType(dict(pairing))
        # the one positional view of the pairing: row m maps each plus
        # position to its nonzero value, in the pairing's order
        rows = [{} for _ in self.sminus]
        for (mgid, pgid), value in self.pairing.items():
            if mgid not in self.minus_index or pgid not in self.plus_index:
                raise SpecError("the pairing must match s- with s+ members")
            if value:
                rows[self.minus_index[mgid]][self.plus_index[pgid]] = value
        self.pairing_rows = tuple(rows)
        self.minus_factor = minus_factor
        self._minus_inv = minus_factor.inv()
        # memos, kept because a triple is never edited in place: the
        # pairing inverse, the structure tensors with the pairs that leave
        # their half, and the cocommutator (`bialgebra`)
        self._pinv = None
        self._tensors = None
        self._delta = None

    @property
    def half_dim(self) -> int:
        return len(self.splus)

    def elem(self, gid: GeneratorId) -> Element:
        """The double element behind a rotated-Cartan or root generator."""
        found = self.rotation.to_double.get(gid)
        if found is not None:
            base = found.copy()
        else:
            self.double._check_member(gid)
            base = Element.gen(gid)
        if gid in self.minus_index and self.minus_factor != ONE:
            return base.scale(self.minus_factor)
        return base

    def decompose(self, elem: Element) -> dict[GeneratorId, Scalar]:
        """Coefficients of a double element over rotated Cartans and roots."""
        out = {}
        for gid, coeff in elem.terms():
            targets = self.rotation.from_cartan.get(gid)
            if targets is None:
                accumulate(out, gid, coeff)
            else:
                for target, weight in targets:
                    accumulate(out, target, coeff * weight)
        if self.minus_factor != ONE:
            for gid in list(out):
                if gid in self.minus_index:
                    out[gid] = out[gid] * self._minus_inv
        return out

    def pairing_inverse(self) -> list[dict[int, Scalar]]:
        """Inverse of the pairing P over basis positions, as sparse rows
        (row r maps t to Pinv[r][t]), from one SpanBasis of the rows of
        [P | 1], keyed (0, s) on P and (1, r) on the unit block. Its
        pivot, the key of smallest repr, falls on P while a row has a P
        coordinate left, so reducing e_j on P's half leaves minus row j of
        the inverse; a remainder on P means P is singular (SpecError)."""
        if self._pinv is None:
            echelon = SpanBasis()
            for r, row in enumerate(self.pairing_rows):
                augmented = {(0, s): value for s, value in row.items()}
                augmented[(1, r)] = ONE
                echelon.add(augmented)
            pinv = []
            for j in range(self.half_dim):
                rest = echelon.reduce({(0, j): ONE})
                if any(side == 0 for side, _ in rest):
                    raise SpecError("pairing matrix is singular")
                pinv.append({r: -value for (_, r), value in rest.items()})
            self._pinv = pinv
        return self._pinv


def split(series: str, rank: int,
          spec: SplittingSpec | str | None = None) -> ManinTriple:
    """Build the triple for one splitting of one algebra."""
    validate_series_rank(series, rank)
    if spec is None:
        spec = SplittingSpec()
    elif isinstance(spec, str):
        spec = SplittingSpec.parse(spec)
    n = cartan_count(series, rank)
    pairs, central = spec.resolve(n)
    alg = build_series(series, rank)
    kept_central = set(central)
    if len(kept_central) < n:
        # no I_k has a nonzero bracket or is a term of one, so dropping
        # the unpaired ones drops no entry of the table
        keep = [gid for gid in alg.basis
                if gid.kind != "I" or gid.i in kept_central]
        alg = LieAlgebra(series, rank, keep, alg.table, n)
    rotation = CartanRotation(spec, n)
    return ManinTriple(alg, spec, rotation)


@lru_cache(maxsize=None)
def canonical_triple(series: str, rank: int) -> ManinTriple:
    return split(series, rank)


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
    """(f, c): full antisymmetric tensors over basis positions.

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
                    tensor[(b, c)] = vec
                    tensor[(c, b)] = {pos: -val for pos, val in vec.items()}
            return tensor

        f = side_tensor(triple.splus, triple.plus_index, "s+")
        c = side_tensor(triple.sminus, triple.minus_index, "s-")
        triple._tensors = (f, c, tuple(strays))
    f, c, strays = triple._tensors
    if strays:
        side, pair, _ = strays[0]
        raise ClosureError(f"[{pair[0]}, {pair[1]}] leaves {side}")
    return f, c


def _grouped(tensor, slot: int = 0):
    """A tensor's entries by one key index: index -> [(other, value)]."""
    out = {}
    for key, vec in tensor.items():
        out.setdefault(key[slot], []).append((key[1 - slot], vec))
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
    report = CheckReport(check="closure", passed=True, checked=k * (k - 1))
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
    report = CheckReport(check="pairing", passed=True,
                         checked=k * (k + 1) + k * k)
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
    0 = 0. `checked` counts all k^2 pairs, and violations come in
    row-major order.
    """
    report = CheckReport(check="reconstruction", passed=True)
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
            expected = {}
            for t, val in alpha.items():
                accumulate(expected, triple.sminus[t], val)
            for s, val in beta.items():
                accumulate(expected, triple.splus[s], val)
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
    that no join reaches is exactly 0 = 0. `checked` counts all
    C(k, 2)^2 quadruples, and the violations are reported in index
    order. `jobs` is accepted for compatibility; the check runs in one
    process.
    """
    report = CheckReport(check="compatibility", passed=True)
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
    c_first, c_second = _grouped(c, 0), _grouped(c, 1)
    f_first, f_second = _grouped(f, 0), _grouped(f, 1)
    # each mixing term joins c and f on r; the flags say whether c's free
    # upper index is p (else q) and whether its lower index is s (else t)
    for c_side, f_side, c_free_is_p, c_lower_is_s in (
            (c_second, f_first, True, True),        # c^{p,r}_s f^q_{r,t}
            (c_first, f_first, False, True),        # c^{r,q}_s f^p_{r,t}
            (c_second, f_second, True, False),      # c^{p,r}_t f^q_{s,r}
            (c_first, f_second, False, False)):     # c^{r,q}_t f^p_{s,r}
        for r, c_entries in c_side.items():
            f_entries = f_side.get(r)
            if not f_entries:
                continue
            for c_free, cvec in c_entries:
                for f_free, fvec in f_entries:
                    for c_lower, cv in cvec.items():
                        s, t = ((c_lower, f_free) if c_lower_is_s
                                else (f_free, c_lower))
                        if s >= t:
                            continue
                        for f_up, fv in fvec.items():
                            p, q = ((c_free, f_up) if c_free_is_p
                                    else (f_up, c_free))
                            if p < q:
                                accumulate(diff, (p, q, s, t), -(cv * fv))
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
    report = CheckReport(check="selfdual", passed=True)
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
    report = CheckReport(check="forminv", passed=True,
                         checked=dim * dim * (dim + 1) // 2)
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
    report = CheckReport(check="casimir-form", passed=True)
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


def rescale_minus(triple: ManinTriple, factor: Scalar) -> ManinTriple:
    """Scale every s- basis element, carrying the pairing along with it.

    The rescaled triple still reconstructs, stays invariant, and keeps its
    Casimir form, but its c tensor picks up the factor, so self-duality is
    the check that sees it.
    """
    factor = factor if isinstance(factor, Scalar) else Scalar(factor)
    if not factor:
        raise SpecError("rescale factor must be invertible")
    pairing = {key: value * factor for key, value in triple.pairing.items()}
    return ManinTriple(triple.double, triple.spec, triple.rotation, pairing,
                       minus_factor=triple.minus_factor * factor)


def with_double(triple: ManinTriple, double: LieAlgebra) -> ManinTriple:
    """The same splitting data over a replaced (typically mutated) double."""
    if double.series != triple.double.series or double.rank != triple.double.rank:
        raise SpecError("replacement double must match the series and rank")
    return ManinTriple(double, triple.spec, triple.rotation, triple.pairing,
                       minus_factor=triple.minus_factor)


def perturb_pairing(triple: ManinTriple, mgid: GeneratorId, pgid: GeneratorId,
                    delta: Scalar) -> ManinTriple:
    """Add delta to one pairing entry, leaving the algebra and the s-
    rescaling (`minus_factor`) untouched."""
    if mgid not in triple.minus_index or pgid not in triple.plus_index:
        raise SpecError("perturbation indices must name s- and s+ members")
    pairing = dict(triple.pairing)
    accumulate(pairing, (mgid, pgid),
               delta if isinstance(delta, Scalar) else Scalar(delta))
    return ManinTriple(triple.double, triple.spec, triple.rotation, pairing,
                       minus_factor=triple.minus_factor)
