"""Structure tables for the centrally extended classical series.

The four families are built over Cartan indices 1..N (N = rank+1 for series
A, N = rank otherwise), with central generators I_i adjoined as an abelian
block. Nonvanishing bracket rules, with d short for the Kronecker delta;
`_rule` writes out only the unmarked ones and derives the others:

  (w) [H_i, g] = weight(g)_i g, with the weights of `generators.weight`;
  (t) a lowering pair [x, y] = theta([theta x, theta y]), read from its
      raising mirror through the Chevalley involution theta(g) = -mirror(g)
      on every generator, H and I included as their own mirrors, an
      automorphism of every table.

  common   (w) [H_i, F_jk] = (d_ij - d_ik) F_jk
               [F_ij, F_kl] = d_jk E_il - d_il E_kj
  series C with (X, Y, eps) = (P, Q, +1), series D/B with (S, T, -1):
           (w) [H_i, X_jk] = (d_ij + d_ik) X_jk       (so 2 d_ij on X_jj)
           (w) [H_i, Y_jk] = -(d_ij + d_ik) Y_jk
               [F_ij, [X_kl]] = d_jk [X_il] + eps d_jl [X_ik]
           (t) [F_ij, [Y_kl]] = -d_ik [Y_jl] - eps d_il [Y_jk]
               [[X_ij], [Y_kl]] = d_jl E_ik + d_ik E_jl + eps (d_jk E_il + d_il E_jk)
                                  + (eps d_ik d_jl + d_il d_jk) 1
  series B (w) [H_i, U_j] = d_ij U_j,   [H_i, V_j] = -d_ij V_j
               [F_ij, U_k] = d_jk U_i
           (t) [F_ij, V_k] = -d_ik V_j
               [S_ij, V_k] = -d_ik U_j + d_jk U_i
           (t) [T_ij, U_k] = d_ik V_j - d_jk V_i
               [U_i, U_j] = [S_ij]
           (t) [V_i, V_j] = -[T_ij]
               [U_i, V_j] = (1 - d_ij) F_ij + d_ij H_i

[X_ab] is the symbol of `generators.symbol`: the stored generator with
[X_ba] = eps [X_ab], so [P_aa] = sqrt2 P_aa and [S_aa] = 0, and a stored
diagonal P_aa or Q_aa enters a rule as its symbol over sqrt2. E_ab is the
formal quadratic unit: off the diagonal it is F_ab; on the diagonal it
resolves to H_a plus a constant (-1/2 in the symmetric-pair series, +1/2
in the antisymmetric ones) whose net coefficient provably cancels in every
bracket, which the builder asserts. I_i are central.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import MappingProxyType

from . import serialize
from .elements import Element
from .errors import ClosureError, ForeignGeneratorError
from .generators import (EXCHANGE, GeneratorId, cartan_count,
                         enumerate_generators, mirror, symbol, weight)
from .linalg import accumulate
from .reporting import CheckReport
from .scalars import HALF, ONE, ZERO, Scalar

_NEG_HALF = -HALF
_PREC = {"H": 0, "F": 1, "P": 2, "S": 2, "Q": 3, "T": 3, "U": 4, "V": 5}
# pairs built through theta from their mirror pair, which `_rule` states
_LOWERING = frozenset({"FQ", "FT", "FV", "QQ", "TT", "TU", "TV", "VV"})


class _Acc:
    """Accumulator for bracket outputs with formal diagonal-unit bookkeeping."""

    def __init__(self, diag_const: Scalar):
        self._elem = Element()
        self._const = ZERO
        self._diag_const = diag_const

    def add(self, gid: GeneratorId, coeff: Scalar) -> None:
        self._elem.add_term(gid, coeff)

    def add_symbol(self, kind: str, a: int, b: int, coeff: Scalar) -> None:
        """Add coeff [X_ab]; a vanishing symbol adds nothing."""
        gid, w = symbol(kind, a, b)
        if gid is not None:
            self._elem.add_term(gid, w * coeff)

    def add_unit(self, a: int, b: int, coeff: Scalar) -> None:
        if a == b:
            self.add(GeneratorId("H", a), coeff)
            self._const = self._const + coeff * self._diag_const
        else:
            self.add(GeneratorId("F", a, b), coeff)

    def add_const(self, coeff: Scalar) -> None:
        self._const = self._const + coeff

    def element(self) -> Element:
        if self._const:
            raise ClosureError(f"diagonal constants failed to cancel: {self._const}")
        return self._elem


@lru_cache(maxsize=None)
def _over(gid: GeneratorId) -> Scalar:
    """1 / w for the stored generator gid of a symbol [X_ij] = w gid: the
    two-index rules are stated on symbols, and read gid as [X_ij] / w.
    Cached, since `_rule` asks for it once per pair: the cache holds one
    Scalar per two-index generator of the largest rank built."""
    return symbol(*gid)[1].inv()


def _theta(elem: Element) -> Element:
    """The Chevalley involution theta(g) = -mirror(g)."""
    return Element({mirror(g): -c for g, c in elem.terms()})


def _rule(series: str, n: int, g1: GeneratorId, g2: GeneratorId) -> Element:
    k1, k2 = g1.kind, g2.kind
    if k1 == "I" or k2 == "I":
        return Element()
    if _PREC[k1] > _PREC[k2]:
        return -_rule(series, n, g2, g1)
    if k1 == "H":
        return Element.gen(g2, weight(g2, n)[g1.i - 1])

    # every rule but those between two odd generators (U, V) holds a
    # Kronecker delta between an index of g1 and one of g2
    if g1.j is not None and not {g1.i, g1.j} & {g2.i, g2.j}:
        return Element()
    pair = k1 + k2
    if pair in _LOWERING:
        return _theta(_rule(series, n, mirror(g1), mirror(g2)))
    if pair in ("PP", "SS", "SU"):
        return Element()
    acc = _Acc(HALF if series in ("B", "D") else _NEG_HALF)

    if pair == "FF":
        i, j = g1.i, g1.j
        k, l = g2.i, g2.j
        if j == k:
            acc.add_unit(i, l, ONE)
        if i == l:
            acc.add_unit(k, j, -ONE)
        return acc.element()

    if pair in ("FP", "FS"):
        i, j = g1.i, g1.j
        kind, k, l = g2
        # [F_ij, [X_kl]] = d_jk [X_il] + eps d_jl [X_ik]
        if j == k:
            acc.add_symbol(kind, i, l, _over(g2))
        if j == l:
            acc.add_symbol(kind, i, k, EXCHANGE[kind] * _over(g2))
        return acc.element()

    if pair == "FU":
        if g1.j == g2.i:
            acc.add(GeneratorId("U", g1.i), ONE)
        return acc.element()

    if pair in ("PQ", "ST"):
        i, j = g1.i, g1.j
        k, l = g2.i, g2.j
        eps = EXCHANGE[k1]
        # [[X_ij], [Y_kl]] = d_jl E_ik + d_ik E_jl + eps (d_jk E_il + d_il E_jk)
        #                    + (eps d_ik d_jl + d_il d_jk)
        over = _over(g1) * _over(g2)
        if j == l:
            acc.add_unit(i, k, over)
        if i == k:
            acc.add_unit(j, l, over)
        if j == k:
            acc.add_unit(i, l, eps * over)
        if i == l:
            acc.add_unit(j, k, eps * over)
        if i == k and j == l:
            acc.add_const(eps * over)
        if i == l and j == k:
            acc.add_const(over)
        return acc.element()

    if pair == "SV":
        i, j = g1.i, g1.j
        k = g2.i
        if i == k:
            acc.add(GeneratorId("U", j), -ONE)
        if j == k:
            acc.add(GeneratorId("U", i), ONE)
        return acc.element()

    if pair == "UU":
        acc.add_symbol("S", g1.i, g2.i, ONE)
        return acc.element()

    if pair == "UV":
        if g1.i == g2.i:
            acc.add(GeneratorId("H", g1.i), ONE)
        else:
            acc.add(GeneratorId("F", g1.i, g2.i), ONE)
        return acc.element()

    raise ValueError(f"no bracket rule for kinds {k1!r}, {k2!r} in series {series}")


class LieAlgebra:
    """A basis, its index map, and the antisymmetric structure table.

    The table maps a pair (p, q) of members, p before q in basis order, to
    the nonzero bracket [p, q]; the pair is never stored in both orders,
    and [q, p] is read as its negation. Every reader takes the sign from
    basis order, so the constructor refuses a key out of that order, a
    pair stored in both orders and a diagonal key (ValueError naming the
    pair). It holds the table as a read-only view of the mapping it is
    handed, without a copy, so a mixed splitting shares the table of its
    series. Instances are treated as immutable; mutation helpers return
    copies, whose memos (`adjoint`) start empty.
    """

    def __init__(self, series: str, rank: int, basis, table, n_indices: int):
        self.series = series
        self.rank = rank
        self.basis = tuple(basis)
        self.index = index = {gid: pos for pos, gid in enumerate(self.basis)}
        if type(table) is not MappingProxyType:
            table = MappingProxyType(table)
        for p, q in table:
            pp, pq = index.get(p), index.get(q)
            if pp is None or pq is None:
                self._check_member(p)
                self._check_member(q)
            if pp >= pq:
                if p == q:
                    why = "a diagonal key"
                elif (q, p) in table:
                    why = "stored in both orders"
                else:
                    why = f"out of basis order: {q.label} comes first"
                raise ValueError(f"table key ({p.label}, {q.label}) is {why}")
        self.table = table
        self.n_indices = n_indices
        self._adjoint = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check_member(self, gid: GeneratorId) -> None:
        if gid not in self.index:
            raise ForeignGeneratorError(f"{gid.label} is not in the {self.series}{self.rank} basis")

    def bracket_gens(self, p: GeneratorId, q: GeneratorId) -> Element:
        """[p, q] of two members, read from the adjoint index as `bracket`
        reads it: a fresh Element, which the caller may edit."""
        self._check_member(p)
        self._check_member(q)
        entry = self.adjoint().get(p, {}).get(q)
        if entry is None:
            return Element()
        index = self.index
        return entry.copy() if index[p] < index[q] else -entry

    def entries(self):
        """(position of p, position of q, [p, q]) for every stored entry,
        in table order, with p before q: the constructor refuses any other
        key, so this is every nonzero bracket, each read once."""
        index = self.index
        for (p, q), entry in self.table.items():
            yield index[p], index[q], entry

    def adjoint(self) -> MappingProxyType:
        """The adjoint index: generator g -> {h: entry} over every nonzero
        bracket of two members, read from `entries`.

        Each table entry [p, q] is listed under both p and q as the
        table's own Element, in table order, so the index holds no
        bracket of its own; a reader takes [g, h] as the entry when g
        comes before h in basis order and as its negation otherwise. Every
        term of every entry is checked to be a member once, here
        (ForeignGeneratorError otherwise). A generator that brackets every
        member to zero has no key. The index and its rows are read-only
        views. Both brackets and the kernels that join nonzero data read
        it; it is built on first use and kept, which is sound because
        instances are never edited in place.
        """
        if self._adjoint is None:
            basis = self.basis
            out = {}
            for pu, pv, entry in self.entries():
                for g, _ in entry.terms():
                    self._check_member(g)
                out.setdefault(basis[pu], {})[basis[pv]] = entry
                out.setdefault(basis[pv], {})[basis[pu]] = entry
            self._adjoint = MappingProxyType(
                {g: MappingProxyType(row) for g, row in out.items()})
        return self._adjoint

    def bracket(self, x, y) -> Element:
        """[x, y] of two elements or generators, read from the adjoint index.

        Every term of x and y must be a member (ForeignGeneratorError
        otherwise). The index is built on the first call and checks every
        term of every entry, so a table that holds a non-member anywhere
        raises here, whichever pair is asked for.
        """
        if isinstance(x, GeneratorId):
            x = Element.gen(x)
        if isinstance(y, GeneratorId):
            y = Element.gen(y)
        out = Element()
        if not x or not y:
            return out
        index = self.index
        for elem in (x, y):
            for gid, _ in elem.terms():
                if gid not in index:
                    self._check_member(gid)
        rows = self.adjoint()
        for gx, cx in x.terms():
            row = rows.get(gx)
            if row is None:
                continue
            px = index[gx]
            for gy, cy in y.terms():
                entry = row.get(gy)
                if entry is not None:
                    # the entry is [gx, gy] when gx comes first
                    factor = cx * cy
                    if index[gy] < px:
                        factor = -factor
                    for gid, coeff in entry.terms():
                        out.add_term(gid, coeff * factor)
        return out

    def to_json(self) -> dict:
        return serialize.table_json(self.series, self.rank, self.basis, self.table)


@lru_cache(maxsize=None)
def build_series(series: str, rank: int) -> LieAlgebra:
    """Construct the centrally extended algebra with its full bracket table."""
    basis = enumerate_generators(series, rank)
    members = set(basis)
    n = cartan_count(series, rank)
    table = {}
    for p, q in itertools.combinations(basis, 2):
        out = _rule(series, n, p, q)
        if out:
            stray = out.support() - members
            if stray:
                raise ClosureError(
                    f"[{p.label}, {q.label}] produced foreign generators "
                    f"{sorted(g.label for g in stray)}")
            table[(p, q)] = out
    return LieAlgebra(series, rank, basis, table, n)


def mutate_bracket(alg: LieAlgebra, p: GeneratorId, q: GeneratorId,
                   value: Element) -> LieAlgebra:
    """Copy of alg with a single table entry replaced (test fixture helper)."""
    alg._check_member(p)
    alg._check_member(q)
    if alg.index[p] > alg.index[q]:
        p, q, value = q, p, -value
    table = dict(alg.table)
    if value:
        table[(p, q)] = value
    else:
        table.pop((p, q), None)
    return LieAlgebra(alg.series, alg.rank, alg.basis, table, alg.n_indices)


def shift_generator(gid: GeneratorId, offset: int) -> GeneratorId:
    if gid.j is None:
        return GeneratorId(gid.kind, gid.i + offset)
    return GeneratorId(gid.kind, gid.i + offset, gid.j + offset)


def verify_jacobi(alg: LieAlgebra) -> CheckReport:
    """Jacobi identity on every unordered basis triple, exactly.

    The residual of x < y < z is [[x, y], z] + [[y, z], x] + [[z, x], y].
    Each of its three terms is a bracket [[u, v], w] of a nonzero table
    entry [u, v] with the third generator, so the residuals are
    accumulated by walking every table entry, every term g of it, and
    every w with [g, w] nonzero in the adjoint index (which checks that
    every term is a member), with the sign of [g, w] taken once per w
    from basis order; a triple that no walk reaches has the
    residual 0 exactly. Every term adds into one sparse map keyed by the
    sorted triple's positions and the output generator, which drops a sum
    the moment it cancels, so only the survivors are grouped by triple.
    `checked` counts all C(dim, 3) triples, and the violations are
    reported in basis order.
    """
    basis, index = alg.basis, alg.index
    rows = alg.adjoint()
    residuals = {}
    for pu, pv, entry in alg.entries():
        for g, cg in entry.terms():
            pg, ncg = index[g], -cg
            for w, inner in rows.get(g, {}).items():
                pw = index[w]
                if pw == pu or pw == pv:
                    continue
                # [[u, v], w] enters the sorted triple's residual with a
                # minus sign exactly when w lies between u and v, and
                # [g, w] is -inner when w comes before g
                flip = pw < pg
                if pw > pv:
                    key = (pu, pv, pw)
                elif pw < pu:
                    key = (pw, pu, pv)
                else:
                    key = (pu, pw, pv)
                    flip = not flip
                factor = ncg if flip else cg
                for h, ch in inner.terms():
                    accumulate(residuals, (*key, h), ch * factor)
    by_triple = {}
    for (pu, pv, pw, h), value in residuals.items():
        by_triple.setdefault((pu, pv, pw), Element()).add_term(h, value)
    dim = alg.dim
    report = CheckReport(check="jacobi",
                         checked=dim * (dim - 1) * (dim - 2) // 6)
    for key in sorted(by_triple):
        report.add_violation({
            "indices": [basis[k].label for k in key],
            "residual": serialize.element_json(by_triple[key], index),
        })
    return report
