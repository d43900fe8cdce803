"""Oscillator representations used to cross-check the structure tables.

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
most `cutoff`, over floating point. Generators map to

  H_i -> b+_i b_i + 1/2        F_ij -> b+_i b_j
  P_ii -> b+_i b+_i / sqrt2    P_ij -> b+_i b+_j    (i < j)
  Q_ii -> -b_i b_i / sqrt2     Q_ij -> -b_i b_j
  I_i -> lambda_i * Id

Truncation discards amplitudes above the cutoff, so homomorphism checks
compare only columns whose total occupation keeps every intermediate
state inside the retained space.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .elements import Element
from .errors import SpecError
from .generators import GeneratorId, cartan_count, mirror, positive_roots
from .reporting import CheckReport
from .scalars import INV_SQRT2, ONE, ZERO, Scalar

# numpy is imported inside the float (bosonic) functions only, so the exact
# checks, which never touch it, do not pay for loading it
_SQRT2_F = math.sqrt(2.0)
ATOL = 1e-12


def scalar_complex(value: Scalar) -> complex:
    re = float(value.a) + _SQRT2_F * float(value.c)
    im = float(value.b) + _SQRT2_F * float(value.d)
    return complex(re, im)


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

    @classmethod
    def identity(cls, dim: int, scale: Scalar = ONE) -> SparseMatrix:
        out = cls(dim)
        if scale:
            for k in range(dim):
                out.entries[(k, k)] = scale
        return out

    def add_entry(self, row: int, col: int, value: Scalar) -> None:
        key = (row, col)
        total = self.entries.get(key, ZERO) + value
        if total:
            self.entries[key] = total
        else:
            self.entries.pop(key, None)

    def __add__(self, other: SparseMatrix) -> SparseMatrix:
        out = SparseMatrix(self.dim, self.entries)
        for key, value in other.entries.items():
            out.add_entry(*key, value)
        return out

    def __sub__(self, other: SparseMatrix) -> SparseMatrix:
        return self + other.scale(Scalar(-1))

    def scale(self, factor: Scalar) -> SparseMatrix:
        out = SparseMatrix(self.dim)
        if factor:
            for key, value in self.entries.items():
                out.entries[key] = value * factor
        return out

    def __matmul__(self, other: SparseMatrix) -> SparseMatrix:
        by_row = {}
        for (row, col), value in other.entries.items():
            by_row.setdefault(row, []).append((col, value))
        out = SparseMatrix(self.dim)
        for (row, mid), left in self.entries.items():
            for col, right in by_row.get(mid, ()):
                out.add_entry(row, col, left * right)
        return out

    def commutator(self, other: SparseMatrix) -> SparseMatrix:
        return (self @ other) - (other @ self)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def to_dense(self) -> np.ndarray:
        import numpy as np

        out = np.zeros((self.dim, self.dim), dtype=complex)
        for (row, col), value in self.entries.items():
            out[row, col] = scalar_complex(value)
        return out


def _jw_sign(mask: int, mode: int) -> int:
    below = mask & ((1 << mode) - 1)
    return -1 if bin(below).count("1") % 2 else 1


def fermion_create(modes: int, index: int) -> SparseMatrix:
    """Creation operator for Cartan index `index` (1-based), JW signs."""
    mode = index - 1
    bit = 1 << mode
    out = SparseMatrix(1 << modes)
    for mask in range(1 << modes):
        if not mask & bit:
            out.entries[(mask | bit, mask)] = Scalar(_jw_sign(mask, mode))
    return out


def fermion_annihilate(modes: int, index: int) -> SparseMatrix:
    mode = index - 1
    bit = 1 << mode
    out = SparseMatrix(1 << modes)
    for mask in range(1 << modes):
        if mask & bit:
            out.entries[(mask & ~bit, mask)] = Scalar(_jw_sign(mask & ~bit, mode))
    return out


def boson_states(modes: int, cutoff: int) -> list[tuple[int, ...]]:
    states = [
        state
        for state in itertools.product(range(cutoff + 1), repeat=modes)
        if sum(state) <= cutoff
    ]
    states.sort()
    return states


def boson_create(states, index_of, index: int) -> np.ndarray:
    import numpy as np

    dim = len(states)
    out = np.zeros((dim, dim))
    pos = index - 1
    for col, state in enumerate(states):
        lifted = list(state)
        lifted[pos] += 1
        row = index_of.get(tuple(lifted))
        if row is not None:
            out[row, col] = math.sqrt(state[pos] + 1)
    return out


class Representation:
    """Matrices for every basis generator of one algebra."""

    def __init__(self, alg, kind: str, matrices, space_dim: int,
                 cutoff: int | None, lambdas):
        self.alg = alg
        self.kind = kind
        self.matrices = matrices
        self.space_dim = space_dim
        self.cutoff = cutoff
        self.lambdas = dict(lambdas)

    @property
    def exact(self) -> bool:
        return self.kind == "fermionic"

    def matrix(self, gid: GeneratorId):
        return self.matrices[gid]

    def element_matrix(self, elem: Element):
        if self.exact:
            total = SparseMatrix(self.space_dim)
            for gid, coeff in elem.terms():
                total = total + self.matrices[gid].scale(coeff)
            return total
        import numpy as np

        total = np.zeros((self.space_dim, self.space_dim), dtype=complex)
        for gid, coeff in elem.terms():
            total = total + scalar_complex(coeff) * self.matrices[gid]
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


def fermionic_rep(alg, lambdas=None) -> Representation:
    if alg.series == "C":
        raise SpecError("series C has no fermionic oscillator realization here")
    n = cartan_count(alg.series, alg.rank)
    lam = _normalize_lambdas(alg, lambdas)
    dim = 1 << n
    create = {i: fermion_create(n, i) for i in range(1, n + 1)}
    destroy = {i: fermion_annihilate(n, i) for i in range(1, n + 1)}
    matrices = {}
    for gid in alg.basis:
        kind, i, j = gid
        if kind == "H":
            number = create[i] @ destroy[i]
            matrices[gid] = number - SparseMatrix.identity(dim, Scalar(Fraction(1, 2)))
        elif kind == "I":
            matrices[gid] = SparseMatrix.identity(dim, lam[i])
        elif kind == "F":
            matrices[gid] = create[i] @ destroy[j]
        elif kind == "S":
            matrices[gid] = create[i] @ create[j]
        elif kind == "T":
            matrices[gid] = (destroy[i] @ destroy[j]).scale(Scalar(-1))
        elif kind == "U":
            matrices[gid] = create[i].scale(INV_SQRT2)
        elif kind == "V":
            matrices[gid] = destroy[i].scale(INV_SQRT2)
        else:
            raise SpecError(f"kind {kind!r} has no fermionic realization")
    return Representation(alg, "fermionic", matrices, dim, None, lam)


def bosonic_rep(alg, cutoff: int, lambdas=None) -> Representation:
    if alg.series in ("B", "D"):
        raise SpecError("series B and D have no bosonic oscillator realization here")
    if cutoff < 2:
        raise SpecError("bosonic cutoff must be at least 2")
    import numpy as np

    n = cartan_count(alg.series, alg.rank)
    lam = _normalize_lambdas(alg, lambdas)
    states = boson_states(n, cutoff)
    index_of = {state: pos for pos, state in enumerate(states)}
    dim = len(states)
    create = {i: boson_create(states, index_of, i) for i in range(1, n + 1)}
    destroy = {i: create[i].T for i in range(1, n + 1)}
    eye = np.eye(dim)
    matrices = {}
    for gid in alg.basis:
        kind, i, j = gid
        if kind == "H":
            # diagonal by construction, so write it exactly instead of
            # composing two square roots
            matrices[gid] = np.diag(
                [state[i - 1] + 0.5 for state in states])
        elif kind == "I":
            matrices[gid] = scalar_complex(lam[i]) * eye
        elif kind == "F":
            matrices[gid] = create[i] @ destroy[j]
        elif kind == "P":
            if i == j:
                matrices[gid] = create[i] @ create[i] / _SQRT2_F
            else:
                matrices[gid] = create[i] @ create[j]
        elif kind == "Q":
            if i == j:
                matrices[gid] = -(destroy[i] @ destroy[i]) / _SQRT2_F
            else:
                matrices[gid] = -(destroy[i] @ destroy[j])
        else:
            raise SpecError(f"kind {kind!r} has no bosonic realization")
    mats = {}
    for gid, mat in matrices.items():
        mat = np.asarray(mat, dtype=complex)
        if not mat.imag.any():
            mat = mat.real
        mats[gid] = mat
    return Representation(alg, "bosonic", mats, dim, cutoff, lam)


def occupation_raise(gid: GeneratorId) -> int:
    """Largest total-occupation increase the image of a generator causes."""
    return 2 if gid.kind == "P" else 0


def protected_columns(rep: Representation, budget: int) -> list[int]:
    """Columns whose total occupation keeps `budget` raises below cutoff."""
    states = boson_states(cartan_count(rep.alg.series, rep.alg.rank), rep.cutoff)
    return [pos for pos, state in enumerate(states) if sum(state) + budget <= rep.cutoff]


def verify_rep_homomorphism(alg, rep: Representation) -> CheckReport:
    """Compare rho([x, y]) with the matrix commutator over all basis pairs."""
    name = f"rep-{rep.kind}"
    pairs = list(itertools.combinations(alg.basis, 2))
    report = CheckReport(check=name, passed=True, checked=len(pairs))
    report.details["space_dim"] = rep.space_dim
    if rep.cutoff is not None:
        report.details["cutoff"] = rep.cutoff
    worst = 0.0
    for p, q in pairs:
        expected = rep.element_matrix(alg.bracket_gens(p, q))
        if rep.exact:
            actual = rep.matrix(p).commutator(rep.matrix(q))
            if actual != expected:
                diff = actual - expected
                report.add_violation({
                    "pair": [p.label, q.label],
                    "entries": len(diff.entries),
                })
        else:
            import numpy as np

            mp, mq = rep.matrix(p), rep.matrix(q)
            actual = mp @ mq - mq @ mp
            cols = protected_columns(rep, occupation_raise(p) + occupation_raise(q))
            err = float(np.abs(actual[:, cols] - expected[:, cols]).max()) \
                if cols else 0.0
            worst = max(worst, err)
            if err > ATOL:
                report.add_violation({
                    "pair": [p.label, q.label],
                    "max_abs_error": err,
                })
    if not rep.exact:
        report.details["max_abs_error"] = worst
    return report


class CasimirElement:
    """Formal sum of squares and anticommutators of algebra elements."""

    def __init__(self, terms, label: str):
        self.terms = tuple(terms)
        self.label = label

    def raise_budget(self) -> int:
        worst = 0
        for x, y, kind in self.terms:
            gids = set(x.support()) | (set(y.support()) if y is not None else set())
            if any(g.kind == "P" for g in gids):
                worst = max(worst, 2)
        return worst


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


def casimir_matrix(rep: Representation, cas: CasimirElement):
    if rep.exact:
        total = SparseMatrix(rep.space_dim)
    else:
        import numpy as np

        total = np.zeros((rep.space_dim, rep.space_dim), dtype=complex)
    for x, y, kind in cas.terms:
        mx = rep.element_matrix(x)
        if kind == "square":
            total = total + mx @ mx
        else:
            my = rep.element_matrix(y)
            total = total + mx @ my + my @ mx
    return total


def verify_casimir_commutes(alg, rep: Representation,
                            cas: CasimirElement) -> CheckReport:
    """The Casimir matrix must commute with the whole representation."""
    name = f"casimir-{cas.label}-{rep.kind}"
    matrix = casimir_matrix(rep, cas)
    report = CheckReport(check=name, passed=True, checked=len(alg.basis))
    for gid in alg.basis:
        if rep.exact:
            residual = matrix.commutator(rep.matrix(gid))
            if not residual.is_zero():
                report.add_violation({"gen": gid.label,
                                      "entries": len(residual.entries)})
        else:
            import numpy as np

            other = rep.matrix(gid)
            residual = matrix @ other - other @ matrix
            cols = protected_columns(
                rep, cas.raise_budget() + occupation_raise(gid))
            err = np.abs(residual[:, cols]).max() if cols else 0.0
            if err > ATOL:
                report.add_violation({"gen": gid.label,
                                      "max_abs_error": float(err)})
    return report


def ad_invariance_report(alg, cas: CasimirElement) -> CheckReport:
    """Exact table-level check that the Casimir symbol is ad-invariant.

    The symmetric tensor behind the Casimir (squares as g x g, anticommutator
    pairs as x x y + y x x) must be killed by ad_z x 1 + 1 x ad_z for every
    basis generator z.
    """
    tensor = {}

    def add(ga, gb, coeff):
        key = (ga, gb)
        total = tensor.get(key, ZERO) + coeff
        if total:
            tensor[key] = total
        else:
            tensor.pop(key, None)

    for x, y, kind in cas.terms:
        pairs = [(x, x)] if kind == "square" else [(x, y), (y, x)]
        for left, right in pairs:
            for ga, ca in left.terms():
                for gb, cb in right.terms():
                    add(ga, gb, ca * cb)

    report = CheckReport(check=f"casimir-invariance-{cas.label}", passed=True,
                         checked=len(alg.basis))
    for z in alg.basis:
        moved = {}

        def bump(ga, gb, coeff):
            key = (ga, gb)
            total = moved.get(key, ZERO) + coeff
            if total:
                moved[key] = total
            else:
                moved.pop(key, None)

        for (ga, gb), coeff in tensor.items():
            for gid, inner in alg.bracket_gens(z, ga).terms():
                bump(gid, gb, coeff * inner)
            for gid, inner in alg.bracket_gens(z, gb).terms():
                bump(ga, gid, coeff * inner)
        if moved:
            report.add_violation({"gen": z.label, "terms": len(moved)})
    return report
