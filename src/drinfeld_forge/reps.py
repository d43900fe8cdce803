"""Oscillator representations used to cross-check the structure tables.

This module's two tables are the one human-readable statement of the
oscillator images. `oscillators.oscillator_image` holds them as
polynomials, and the builders apply them: each generator's matrix is its
polynomial applied to every Fock state (`oscillators.FockSpace.apply`).

Fermionic (series A, B, D): the Fock space of N modes, dimension 2^N,
with creation and annihilation operators carrying the alternating-sign
string over lower-numbered modes so that distinct modes anticommute.
Generators map to

  H_i -> a+_i a_i - 1/2        F_ij -> a+_i a_j
  S_ij -> a+_i a+_j            T_ij -> -a_i a_j
  U_i -> a+_i / sqrt2          V_i -> a_i / sqrt2
  I_i -> lambda_i * Id

with exact field entries throughout.

Bosonic (series A, C): the Fock space truncated to total occupation at
most `cutoff`, in the unnormalized occupation basis

  b+_i |n> = |n+1>             b_i |n> = n |n-1>

which is similar to the normalized basis by diag(sqrt(n!)). Generators map
to

  H_i -> b+_i b_i + 1/2        F_ij -> b+_i b_j
  P_ii -> b+_i b+_i / sqrt2    P_ij -> b+_i b+_j    (i < j)
  Q_ii -> -b_i b_i / sqrt2     Q_ij -> -b_i b_j
  I_i -> lambda_i * Id

so every entry is exact too: an integer, a half-integer, or a multiple of
1/sqrt2. Truncation discards amplitudes above the cutoff, so homomorphism
checks compare only columns whose total occupation keeps every
intermediate state inside the retained space. A diagonal similarity
commutes with that restriction, so the verdicts are those of the
normalized basis.

The homomorphism and Casimir checks count residual entries on those
protected columns only (every column of a fermionic representation). They
clear a pair in two stages before touching its matrices:

  1. normal ordering: with each image written as the polynomial above,
     [rho(p), rho(q)] - sum_k c_k rho(g_k) is normal-ordered in the Weyl
     algebra (b b+ = b+ b + 1) or the Clifford algebra (a a+ = -a+ a + 1,
     a a = 0), one routine for both (module `oscillators`); for
     `casimir`, [C, rho(g)] with C the quartic Casimir polynomial. A
     commutator skips each pair of words on disjoint modes that commute;
  2. the matrix gate, once per generator: the matrix the representation
     holds equals its normal-ordered polynomial applied to every state,
     amplitudes above the cutoff dropped (and a bosonic polynomial raises
     the occupation by at most `occupation_raise`). The builders make
     every matrix that way; a representation assembled or edited by other
     means is held to the same action.

A zero stage-1 residual whose generators all pass stage 2 makes the
protected residual zero. Stage 2 makes each matrix the truncated operator
of its polynomial. Column c of M_p M_q reads only states of occupation at
most |c| + budget <= cutoff, which the truncation keeps, so on a
protected column the matrix residual is the residual polynomial applied
to |c>, and that is zero. Any other pair (or Casimir generator) computes
A B[:, c] - B A[:, c] - sum_k c_k rho(g_k)[:, c] over the protected
columns c into one exact sparse residual, from a column and a row index of
A, and counts its nonzero entries: the count the whole matrices would
give on those columns, so a report never depends on which path ran.

A nonzero stage-1 residual whose generators all pass stage 2 is a
violation even when that count is zero. The Fock representations of the
Weyl and Clifford algebras are faithful: a nonzero normal-ordered
polynomial moves some state (the one its annihilators fit exactly, for
a term with fewest annihilators), so the pair fails on the untruncated
space, though a truncation may protect no column it moves. At cutoff 4,
C2 with [P1,2, P2,2] extended by i Q1,2 has the residual i b_1 b_2, which
moves |1,1> only, while the pair protects the vacuum alone.
Such a violation reports "entries": 0 and the residual's number of
monomials.

Both stages read one `oscillators.OscillatorProof` per representation
(`Representation.proof`), made on first use: the `rep` and `casimir`
checks share its stage-2 verdicts and normal-ordered images, so each is
computed once per generator, not once per check. A representation is
therefore never edited in place; a helper that changes a matrix builds a
new Representation, which gets its own proof.
"""

from __future__ import annotations

import math

from .elements import Element
from .errors import SpecError
from .generators import (GeneratorId, cartan_count, dimension, mirror,
                         positive_roots)
from .linalg import accumulate
from .reporting import CheckReport
from .scalars import ONE, Scalar

# Largest representation a builder accepts, as states times basis
# generators: each generator's matrix holds about one entry per state. A7 at
# cutoff 6 (3003 states x 72 generators = 216,216) holds about 45 MB, so
# this bound keeps one representation within a few hundred MB.
MAX_REP_SIZE = 1_000_000


class SparseMatrix:
    """Square matrix over the exact field, stored as nonzero entries."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries=None):
        self.dim = dim
        self.entries = {}
        if entries:
            for key, value in entries.items():
                if value:
                    self.entries[key] = value

    def add_entry(self, row: int, col: int, value: Scalar) -> None:
        accumulate(self.entries, (row, col), value)

    def add_product(self, left: SparseMatrix, right: SparseMatrix,
                    columns: set[int] | None = None) -> None:
        """Add `left @ right` into this matrix in place, or only its
        `columns` when given."""
        by_row = _rows(right, columns=columns)
        for (row, mid), value in left.entries.items():
            for col, other in by_row.get(mid, ()):
                self.add_entry(row, col, value * other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries


def _rows(mat: SparseMatrix, negate: bool = False,
          columns: set[int] | None = None) -> dict[int, list]:
    """Row index of a matrix, or of its negative, on `columns` when given:
    row -> [(col, value), ...]."""
    out = {}
    for (row, col), value in mat.entries.items():
        if columns is None or col in columns:
            out.setdefault(row, []).append((col, -value if negate else value))
    return out


def _columns(mat: SparseMatrix) -> dict[int, list]:
    """Column index of a matrix: col -> [(row, value), ...]."""
    out = {}
    for (row, col), value in mat.entries.items():
        out.setdefault(col, []).append((row, value))
    return out


def rep_size(series: str, rank: int, cutoff: int | None = None) -> int:
    """Estimated size of a representation, states times basis generators:
    2^N fermionic states, or C(N + cutoff, N) bosonic ones when a cutoff is
    given."""
    n = cartan_count(series, rank)
    states = 1 << n if cutoff is None else math.comb(n + cutoff, n)
    return states * dimension(series, rank)


def check_rep_size(series: str, rank: int, cutoff: int | None = None) -> None:
    """Refuse a representation whose `rep_size` exceeds MAX_REP_SIZE."""
    size = rep_size(series, rank, cutoff)
    if size > MAX_REP_SIZE:
        raise SpecError(f"representation too large: about {size:,} entries "
                        f"(states x generators), the limit is "
                        f"{MAX_REP_SIZE:,}")


class Representation:
    """Matrices for every basis generator of one algebra, on the states of
    one `oscillators.FockSpace`: fermionic when the space is untruncated,
    bosonic when it has a `cutoff`. `states` lists the space's states in
    column order, so that the protected columns are read off them.

    Instances are treated as immutable, as `LieAlgebra` instances are: a
    helper that edits a matrix returns a new Representation. `proof()`
    relies on this, since the `oscillators.OscillatorProof` it makes on
    first use keeps its stage-2 verdicts and normal-ordered images for
    every later check of the same representation.
    """

    def __init__(self, alg, matrices, space, lambdas):
        self.alg = alg
        self.kind = "fermionic" if space.cutoff is None else "bosonic"
        self.matrices = matrices
        self.space = space
        self.states = space.states
        self.space_dim = len(space.states)
        self.cutoff = space.cutoff
        self.lambdas = dict(lambdas)
        self._proof = None

    def proof(self):
        """The representation's one `oscillators.OscillatorProof`, shared
        by the `rep` and `casimir` checks."""
        if self._proof is None:
            # imported on use, as in `_build`
            from .oscillators import OscillatorProof
            self._proof = OscillatorProof(self)
        return self._proof

    def matrix(self, gid: GeneratorId) -> SparseMatrix:
        return self.matrices[gid]

    def element_matrix(self, elem: Element) -> SparseMatrix:
        total = SparseMatrix(self.space_dim)
        for gid, coeff in elem.terms():
            for (row, col), value in self.matrices[gid].entries.items():
                total.add_entry(row, col, value * coeff)
        return total


def _normalize_lambdas(alg, lambdas):
    n = cartan_count(alg.series, alg.rank)
    table = {i: ONE for i in range(1, n + 1)}
    if lambdas:
        for i, value in lambdas.items():
            if i not in table:
                raise SpecError(f"central charge index {i} out of range 1..{n}")
            table[i] = value if isinstance(value, Scalar) else Scalar(value)
    return table


def _build(alg, cutoff: int | None, lambdas) -> Representation:
    """Each generator's matrix: its oscillator image applied to every state
    of the Fock space, fermionic when `cutoff` is None."""
    # imported on use: only a process that builds a representation loads
    # the oscillators, and `oscillators` imports this module
    from .oscillators import FockSpace, oscillator_image
    lam = _normalize_lambdas(alg, lambdas)
    space = FockSpace(cartan_count(alg.series, alg.rank), cutoff)
    matrices = {}
    for gid in alg.basis:
        poly = oscillator_image(gid, cutoff is None, lam)
        if poly is None:
            raise SpecError(f"kind {gid.kind!r} has no oscillator realization")
        matrices[gid] = SparseMatrix(len(space.states), space.apply(poly))
    return Representation(alg, matrices, space, lam)


def fermionic_rep(alg, lambdas=None) -> Representation:
    if alg.series == "C":
        raise SpecError("series C has no fermionic oscillator realization here")
    check_rep_size(alg.series, alg.rank)
    return _build(alg, None, lambdas)


def bosonic_rep(alg, cutoff: int, lambdas=None) -> Representation:
    if alg.series in ("B", "D"):
        raise SpecError("series B and D have no bosonic oscillator realization here")
    if cutoff < 2:
        raise SpecError("bosonic cutoff must be at least 2")
    check_rep_size(alg.series, alg.rank, cutoff)
    return _build(alg, cutoff, lambdas)


def occupation_raise(gid: GeneratorId) -> int:
    """Largest total-occupation increase the image of a generator causes."""
    return 2 if gid.kind == "P" else 0


def protected_columns(rep: Representation, budget: int) -> set[int]:
    """Columns whose total occupation keeps `budget` raises within the
    cutoff: every column of an untruncated representation."""
    if rep.cutoff is None:
        return set(range(rep.space_dim))
    return {pos for pos, state in enumerate(rep.states)
            if sum(state) + budget <= rep.cutoff}


def _residual_entries(left_cols, left_rows, right: SparseMatrix, expected,
                      columns: set[int]) -> int:
    """Nonzero entries of [A, B] - sum_k c_k M_k on `columns`.

    A is given by its column index and its row index scaled by -1,
    B = `right`, and `expected` holds the pairs (-c_k, M_k). Column c of
    A B reads only column c of B, and column c of B A only the entries
    (m, c) of A, so nothing off `columns` is computed.
    """
    acc = {}
    for (mid, col), value in right.entries.items():
        if col in columns:
            for row, left in left_cols.get(mid, ()):
                accumulate(acc, (row, col), left * value)
    for (row, mid), value in right.entries.items():
        for col, left in left_rows.get(mid, ()):
            if col in columns:
                accumulate(acc, (row, col), value * left)
    for coeff, mat in expected:
        for (row, col), value in mat.entries.items():
            if col in columns:
                accumulate(acc, (row, col), value * coeff)
    return len(acc)


def verify_rep_homomorphism(alg, rep: Representation) -> CheckReport:
    """Compare rho([x, y]) with the matrix commutator over all basis pairs,
    exactly, on the columns the truncation protects.

    A pair passes without its matrix residual when
    `oscillators.OscillatorProof` clears it: its generators and those of
    its bracket pass stage 2 and its stage-1 residual is zero, which
    together make that residual zero on every protected column (module
    docstring). Every other pair computes the residual, so the report is
    the one the matrices alone would give, with one addition: a pair whose
    generators all pass stage 2 and whose stage-1 residual is nonzero is a
    violation even where its protected matrix residual is zero, reported
    as {"pair": [p, q], "entries": 0, "monomials": n} with n the number of
    monomials of that residual.
    A pair whose protected column set is empty compares no matrix entry
    (budget-4 pairs at cutoff 2 or 3); it still counts in `checked`, and
    the number of such pairs is reported as `details["unprotected"]` when
    nonzero.
    """
    name = f"rep-{rep.kind}"
    basis = alg.basis
    report = CheckReport(check=name, passed=True,
                         checked=len(basis) * (len(basis) - 1) // 2)
    report.details["space_dim"] = rep.space_dim
    if rep.cutoff is not None:
        report.details["cutoff"] = rep.cutoff
    raises = {occupation_raise(gid) for gid in basis}
    columns = {a + b: protected_columns(rep, a + b)
               for a in raises for b in raises}
    proof = rep.proof()
    unprotected = 0
    for pos, p in enumerate(basis):
        left_index = None
        for q in basis[pos + 1:]:
            bracket = alg.bracket_gens(p, q)
            residual = proof.pair_residual(p, q, bracket)
            cols = columns[occupation_raise(p) + occupation_raise(q)]
            wrong = 0
            if not cols:
                unprotected += 1
            elif residual is None or residual:
                if left_index is None:
                    left = rep.matrix(p)
                    left_index = (_columns(left), _rows(left, negate=True))
                expected = [(-coeff, rep.matrix(gid))
                            for gid, coeff in bracket.terms()]
                wrong = _residual_entries(*left_index, rep.matrix(q),
                                          expected, cols)
            if wrong:
                report.add_violation({"pair": [p.label, q.label],
                                      "entries": wrong})
            elif residual:
                report.add_violation({"pair": [p.label, q.label],
                                      "entries": 0,
                                      "monomials": len(residual)})
    if unprotected:
        report.details["unprotected"] = unprotected
    return report


class CasimirElement:
    """Formal sum of squares and anticommutators of algebra elements."""

    def __init__(self, terms, label: str):
        self.terms = tuple(terms)
        self.label = label

    def generators(self) -> set[GeneratorId]:
        out = set()
        for x, y, _ in self.terms:
            out |= x.support()
            if y is not None:
                out |= y.support()
        return out

    def raise_budget(self) -> int:
        return max(map(occupation_raise, self.generators()), default=0)


def casimir_quadratic(alg) -> CasimirElement:
    """Sum of Cartan squares plus anticommutators over root pairs."""
    terms = [(Element.gen(GeneratorId("H", i)), None, "square")
             for i in range(1, cartan_count(alg.series, alg.rank) + 1)]
    for root in positive_roots(alg.series, alg.rank):
        terms.append((Element.gen(root), Element.gen(mirror(root)), "anticommutator"))
    return CasimirElement(terms, "quadratic")


def casimir_double(alg) -> CasimirElement:
    """Casimir of the pairing: adds the retained central squares to the
    quadratic one."""
    base = casimir_quadratic(alg)
    terms = list(base.terms)
    for gid in alg.basis:
        if gid.kind == "I":
            terms.append((Element.gen(gid), None, "square"))
    return CasimirElement(terms, "double")


def casimir_matrix(rep: Representation, cas: CasimirElement,
                   columns: set[int] | None = None) -> SparseMatrix:
    """The Casimir's matrix, or only its `columns` when given (column c of
    a product reads only column c of its right factor)."""
    total = SparseMatrix(rep.space_dim)
    for x, y, kind in cas.terms:
        mx = rep.element_matrix(x)
        if kind == "square":
            total.add_product(mx, mx, columns)
        else:
            my = rep.element_matrix(y)
            total.add_product(mx, my, columns)
            total.add_product(my, mx, columns)
    return total


def verify_casimir_commutes(alg, rep: Representation,
                            cas: CasimirElement) -> CheckReport:
    """The Casimir matrix must commute with the whole representation, on
    the columns the truncation protects.

    A generator g passes without its matrix residual when every generator
    of the Casimir and g pass stage 2 and [C, rho(g)] normal-orders to
    zero. The others compute [C, rho(g)] on their protected columns from a
    Casimir matrix built only on the columns those residuals read, and not
    at all when no generator needs it. As in verify_rep_homomorphism, a
    generator that passes stage 2 with a nonzero [C, rho(g)] is a
    violation even where its protected matrix residual is zero:
    {"gen": g, "entries": 0, "monomials": n}. A generator whose protected
    column set is empty (a P generator at cutoff 2 or 3) compares no
    matrix entry; it still counts in `checked`, and the number of such
    generators is reported as `details["unprotected"]` when nonzero.
    """
    name = f"casimir-{cas.label}-{rep.kind}"
    report = CheckReport(check=name, passed=True, checked=len(alg.basis))
    base = cas.raise_budget()
    columns = {base + step: protected_columns(rep, base + step)
               for step in {occupation_raise(gid) for gid in alg.basis}}
    proof = rep.proof()
    casimir = proof.casimir(cas)
    unprotected = 0
    # (g, its protected columns, its stage-1 residual) for every generator
    # that stage 1 does not clear
    pending = []
    for gid in alg.basis:
        cols = columns[base + occupation_raise(gid)]
        residual = proof.generator_residual(casimir, gid)
        if not cols:
            unprotected += 1
        if residual is None or residual:
            pending.append((gid, cols, residual))
    fallback = [(gid, cols) for gid, cols, _ in pending if cols]
    if fallback:
        # the protected columns, and the rows rho(g) reaches from them
        needed = set()
        for gid, cols in fallback:
            needed |= cols
            needed.update(row for row, col in rep.matrix(gid).entries
                          if col in cols)
        matrix = casimir_matrix(rep, cas, needed)
        matrix_cols, matrix_rows = _columns(matrix), _rows(matrix, negate=True)
    for gid, cols, residual in pending:
        wrong = (_residual_entries(matrix_cols, matrix_rows,
                                   rep.matrix(gid), (), cols) if cols else 0)
        if wrong:
            report.add_violation({"gen": gid.label, "entries": wrong})
        elif residual:
            report.add_violation({"gen": gid.label, "entries": 0,
                                  "monomials": len(residual)})
    if unprotected:
        report.details["unprotected"] = unprotected
    return report


def ad_invariance_report(alg, cas: CasimirElement) -> CheckReport:
    """Exact table-level check that the Casimir symbol is ad-invariant.

    The symmetric tensor behind the Casimir (squares as g x g, anticommutator
    pairs as x x y + y x x) must be killed by ad_z x 1 + 1 x ad_z for every
    basis generator z.

    The residual of z is the sum of c [z, a] x b + c a x [z, b] over the
    tensor terms c a x b. The tensor is symmetric (c a x b comes with
    c b x a), so that is the sum of c ([z, a] x b + b x [z, a]) over its
    terms, and it is a join of nonzero data, as in
    `bialgebra.verify_cocycle`: each nonzero bracket [z, a] from the
    adjoint index (`LieAlgebra.adjoint`) with each tensor term whose left
    factor is a. A generator that no join reaches has the residual 0
    exactly. The residuals are accumulated one z at a time, so only that
    row is held. `checked` counts every basis generator, and the
    violations are reported in basis order.
    """
    tensor = {}
    for x, y, kind in cas.terms:
        pairs = [(x, x)] if kind == "square" else [(x, y), (y, x)]
        for left, right in pairs:
            for ga, ca in left.terms():
                for gb, cb in right.terms():
                    accumulate(tensor, (ga, gb), ca * cb)
    # left factor a -> [(b, c)] over the tensor terms c a x b
    factors = {}
    for (ga, gb), coeff in tensor.items():
        alg._check_member(ga)
        alg._check_member(gb)
        factors.setdefault(ga, []).append((gb, coeff))
    basis = alg.basis
    adjoint = alg.adjoint()
    report = CheckReport(check=f"casimir-invariance-{cas.label}", passed=True,
                         checked=len(basis))
    for z in basis:
        moved = {}
        for g, bracket in adjoint.get(z, {}).items():
            for gb, coeff in factors.get(g, ()):
                for gid, inner in bracket.terms():
                    value = coeff * inner
                    accumulate(moved, (gid, gb), value)
                    accumulate(moved, (gb, gid), value)
        if moved:
            report.add_violation({"gen": z.label, "terms": len(moved)})
    return report
