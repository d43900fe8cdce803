"""Oscillator representations used to cross-check the structure tables.

This module's two tables are the one human-readable statement of the
oscillator images. `oscillators.oscillator_image` holds them as
polynomials, and each representation's `oscillators.OscillatorProof`
normal-orders them once per generator. The builders apply them from
there: each generator's matrix is its normal-ordered polynomial applied to
every Fock state (`OscillatorProof.action`, through
`oscillators.FockSpace.apply`).

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
1/sqrt2. Truncation discards amplitudes above the cutoff. A diagonal
similarity commutes with that, so the matrices are those of the
normalized basis up to the similarity.

The homomorphism and Casimir checks decide every basis pair (or Casimir
generator) from these polynomials alone, at any cutoff, and hold each
matrix to its polynomial:

  1. normal ordering: [rho(p), rho(q)] - sum_k c_k rho(g_k) is
     normal-ordered in the Weyl algebra (b b+ = b+ b + 1) or the Clifford
     algebra (a a+ = -a+ a + 1, a a = 0), one routine for both (module
     `oscillators`); for `casimir`, [C, rho(g)] with C the quartic
     Casimir polynomial. A commutator skips each pair of words on
     disjoint modes that commute. Each nonzero residual is a violation;
  2. the matrix gate, once per generator: the held matrix must equal
     its normal-ordered polynomial applied to every state, amplitudes
     above the cutoff dropped. A built matrix is that action itself; any
     other is held to it, and each one that differs is a violation.

Stage 1 is the verdict because the Fock representations of the Weyl and
Clifford algebras are faithful. Normal-ordered words are a basis of both
algebras, and a nonzero normal-ordered polynomial moves some state: the
one its annihilators fit exactly, for a term with fewest annihilators. So
a residual is zero exactly when the pair holds on the whole untruncated
Fock space, at every cutoff at once. Stage 2 makes each held matrix the
truncation of that exact operator, so a representation with no violation
is the truncation of a true representation of the table. No matrix
product is formed. A product of truncated matrices differs from the
truncated product on the states near the cutoff, so a verdict read off
matrix products would depend on the cutoff. At cutoff 4, for instance,
C2 with [P1,2, P2,2] extended by i Q1,2 has the residual i b_1 b_2,
which moves only |1,1>, a state that no product of a P with a P keeps
inside the space; stage 1 reports its one monomial at every cutoff.

Reports, violations in basis order:

  rep-{kind}: {"matrix": g, "entries": n} for each generator whose matrix
      differs from its polynomial's action in n entries, then
      {"pair": [p, q], "monomials": n} for each pair whose residual has
      n monomials;
  casimir-{label}-{kind}: the same matrix violations, then
      {"gen": g, "monomials": n}.

`checked` counts the basis pairs (`rep`) or generators (`casimir`), and
`rep` gives the details `space_dim` and, when truncated, `cutoff`.

Each representation makes its one `oscillators.OscillatorProof`
(`Representation.proof`) from its Fock space and central charges. The
proof caches each generator's normal-ordered image and its action on the
states, and a built matrix is that action, so the builder and both stages
of both checks compute each once per representation. A representation is
therefore never edited in place; a helper that changes a matrix builds a
new Representation, whose own proof applies every polynomial afresh.
"""

from __future__ import annotations

import math

from .elements import Element
from .errors import ForeignGeneratorError, SpecError
from .generators import (GeneratorId, cartan_count, dimension, mirror,
                         positive_roots)
from .linalg import accumulate
from .reporting import CheckReport
from .scalars import ONE, ZERO, Scalar

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries


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
    bosonic when it has a `cutoff`.

    `proof` is the representation's one `oscillators.OscillatorProof`,
    made from the space and the central charges alone: a built matrix is
    its cached action, and the `rep` and `casimir` checks read its images.
    `wrong_entries(g)` is stage 2. Instances are treated as immutable, as
    `LieAlgebra` instances are: a helper that edits a matrix returns a new
    Representation, which gets its own proof.
    """

    def __init__(self, alg, matrices, space, lambdas):
        # imported on use: only a process that builds a representation
        # loads the oscillators
        from .oscillators import OscillatorProof
        self.alg = alg
        self.kind = "fermionic" if space.cutoff is None else "bosonic"
        self.matrices = matrices
        self.space = space
        self.space_dim = len(space.states)
        self.cutoff = space.cutoff
        self.lambdas = dict(lambdas)
        self.proof = OscillatorProof(space, self.lambdas)

    def matrix(self, gid: GeneratorId) -> SparseMatrix:
        return self.matrices[gid]

    def wrong_entries(self, gid: GeneratorId) -> int:
        """The number of entries in which the held matrix of `gid` differs
        from its polynomial's action (`OscillatorProof.action`)."""
        want = self.proof.action(gid)
        held = self.matrices[gid].entries
        if want == held:
            return 0
        return sum(1 for key in want.keys() | held.keys()
                   if want.get(key, ZERO) != held.get(key, ZERO))


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
    """Each generator's matrix: the action of its normal-ordered image on
    every state of the Fock space, the dict the representation's proof
    caches, fermionic when `cutoff` is None."""
    # imported on use, as in `Representation`
    from .oscillators import FockSpace
    space = FockSpace(cartan_count(alg.series, alg.rank), cutoff)
    rep = Representation(alg, {}, space, _normalize_lambdas(alg, lambdas))
    for gid in alg.basis:
        matrix = rep.matrices[gid] = SparseMatrix(rep.space_dim)
        matrix.entries = rep.proof.action(gid)
    return rep


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


def _matrix_violations(report: CheckReport, rep: Representation,
                       basis) -> None:
    """Stage 2: one violation per generator whose matrix differs from its
    polynomial's action, after refusing the first one that has no matrix."""
    for gid in basis:
        if gid not in rep.matrices:
            raise ForeignGeneratorError(f"{gid.label} has no matrix in the "
                                        f"{rep.alg.series}{rep.alg.rank} "
                                        f"{rep.kind} representation")
    for gid in basis:
        wrong = rep.wrong_entries(gid)
        if wrong:
            report.add_violation({"matrix": gid.label, "entries": wrong})


def verify_rep_homomorphism(alg, rep: Representation) -> CheckReport:
    """rho([p, q]) = [rho(p), rho(q)] for every basis pair, decided on the
    normal-ordered polynomials, with every matrix held to its polynomial
    (module docstring)."""
    basis = alg.basis
    report = CheckReport(check=f"rep-{rep.kind}", passed=True,
                         checked=len(basis) * (len(basis) - 1) // 2)
    report.details["space_dim"] = rep.space_dim
    if rep.cutoff is not None:
        report.details["cutoff"] = rep.cutoff
    proof = rep.proof
    _matrix_violations(report, rep, basis)
    for pos, p in enumerate(basis):
        for q in basis[pos + 1:]:
            residual = proof.pair_residual(p, q, alg.bracket_gens(p, q))
            if residual:
                report.add_violation({"pair": [p.label, q.label],
                                      "monomials": len(residual)})
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

    def tensor(self) -> dict:
        """The symmetric 2-tensor behind the Casimir, (a, b) -> coefficient:
        a square x x x, an anticommutator x x y + y x x."""
        tensor = {}
        for x, y, kind in self.terms:
            pairs = [(x, x)] if kind == "square" else [(x, y), (y, x)]
            for left, right in pairs:
                for ga, ca in left.terms():
                    for gb, cb in right.terms():
                        accumulate(tensor, (ga, gb), ca * cb)
        return tensor


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


def verify_casimir_commutes(alg, rep: Representation,
                            cas: CasimirElement) -> CheckReport:
    """[C, rho(g)] = 0 for every basis generator g, decided on the
    normal-ordered polynomials, with every matrix held to its polynomial
    (module docstring). A Casimir generator outside the algebra is
    refused, as no polynomial of the algebra's images stands for it."""
    for gid in cas.generators():
        alg._check_member(gid)
    report = CheckReport(check=f"casimir-{cas.label}-{rep.kind}", passed=True,
                         checked=len(alg.basis))
    proof = rep.proof
    _matrix_violations(report, rep, alg.basis)
    casimir = proof.casimir(cas)
    for gid in alg.basis:
        residual = proof.generator_residual(casimir, gid)
        if residual:
            report.add_violation({"gen": gid.label,
                                  "monomials": len(residual)})
    return report


def ad_invariance_report(alg, cas: CasimirElement) -> CheckReport:
    """Exact table-level check that the Casimir symbol is ad-invariant.

    The symmetric tensor behind the Casimir (`CasimirElement.tensor`)
    must be killed by ad_z x 1 + 1 x ad_z for every basis generator z.

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
    # left factor a -> [(b, c)] over the tensor terms c a x b
    factors = {}
    for (ga, gb), coeff in cas.tensor().items():
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
