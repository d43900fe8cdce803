"""Generator identities, canonical basis enumeration, and labels.

Index conventions, shared by every module:

* series A at rank n carries Cartan indices 1..n+1 (its diagonal block is the
  full gl(n+1)), series B/C/D carry 1..n;
* H_i and the central I_i are indexed by single Cartan indices;
* F_ij (i != j) are the gl-type root generators;
* P_ij (i <= j stored) are the symmetric raising pairs of series C and Q_ij
  their lowering mirrors; S_ij (i < j stored) are the antisymmetric raising
  pairs of series D and B, T_ij their lowering mirrors. Any index pair of
  these kinds is read through `symbol`, with the exchange sign eps of its
  kind (`EXCHANGE`: +1 for P/Q, -1 for S/T);
* U_i / V_i are the odd raising/lowering generators of series B;
* X / x name rotated Cartan combinations: X_k = (H_k + i I_k)/sqrt2 with one
  index, or (H_i + i H_j)/sqrt2 with an index pair, and x mirrors with -i.

Canonical basis order: all H ascending, all I ascending, positive-root
generators grouped by kind (F, then P or S, then U) each in lexicographic
index order, then negative-root generators mirroring the positive block
element for element. `mirror` is that matching, with H and I their own
mirrors; it carries the bracket table to itself up to the sign of the
Chevalley involution, and the cocommutator up to i-conjugation.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import RankError
from .scalars import ONE, SQRT2, ZERO, Scalar

SERIES = ("A", "B", "C", "D")

# the exchange sign of each two-index kind: [X_ba] = eps [X_ab]
EXCHANGE = {"P": ONE, "Q": ONE, "S": -ONE, "T": -ONE}
# the kind of each generator's mirror; F mirrors by swapping its indices
_MIRROR_KIND = {"H": "H", "I": "I", "F": "F", "P": "Q", "Q": "P", "S": "T",
                "T": "S", "U": "V", "V": "U"}


class GeneratorId(NamedTuple):
    kind: str
    i: int
    j: int | None = None

    @property
    def label(self) -> str:
        sep = "^" if self.kind == "x" else ""
        if self.j is None:
            return f"{self.kind}{sep}{self.i}"
        return f"{self.kind}{sep}{self.i},{self.j}"


def parse_label(text: str) -> GeneratorId:
    kind = text[0]
    body = text[1:]
    if body.startswith("^"):
        body = body[1:]
    try:
        if "," in body:
            left, right = body.split(",")
            return GeneratorId(kind, int(left), int(right))
        return GeneratorId(kind, int(body))
    except ValueError as exc:
        raise ValueError(f"unparseable generator label {text!r}") from exc


def validate_series_rank(series: str, rank: int) -> None:
    if series not in SERIES:
        raise RankError(f"unknown series {series!r}, expected one of {SERIES}")
    minimum = 2 if series == "D" else 1
    if not isinstance(rank, int) or rank < minimum:
        raise RankError(f"series {series} requires integer rank >= {minimum}, got {rank}")


def cartan_count(series: str, rank: int) -> int:
    """Number of Cartan indices N (rank+1 for A, rank otherwise)."""
    validate_series_rank(series, rank)
    return rank + 1 if series == "A" else rank


def dimension(series: str, rank: int) -> int:
    """Dimension of the centrally extended algebra, basis included."""
    n = rank
    if series == "A":
        return (n + 1) * (n + 1) + (n + 1)
    if series == "B" or series == "C":
        return n * (2 * n + 1) + n
    return n * (2 * n - 1) + n


def positive_roots(series: str, rank: int) -> list[GeneratorId]:
    """Positive-root block in canonical order (no Cartan, no centrals)."""
    n = cartan_count(series, rank)
    out = [GeneratorId("F", i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if series == "C":
        out += [GeneratorId("P", i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    elif series in ("D", "B"):
        out += [GeneratorId("S", i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if series == "B":
        out += [GeneratorId("U", i) for i in range(1, n + 1)]
    return out


def mirror(gid: GeneratorId) -> GeneratorId:
    """Matched generator of the opposite weight: F_ij <-> F_ji, P <-> Q,
    S <-> T, U <-> V, and H_k and I_k are their own mirrors. An
    involution of every basis; the rotated X and x have no mirror."""
    kind = _MIRROR_KIND.get(gid.kind)
    if kind is None:
        raise ValueError(f"{gid.label} has no mirror")
    if kind == "F":
        return GeneratorId("F", gid.j, gid.i)
    return GeneratorId(kind, gid.i, gid.j)


def enumerate_generators(series: str, rank: int) -> tuple[GeneratorId, ...]:
    """Canonical ordered basis of the centrally extended algebra."""
    n = cartan_count(series, rank)
    basis = [GeneratorId("H", i) for i in range(1, n + 1)]
    basis += [GeneratorId("I", i) for i in range(1, n + 1)]
    plus = positive_roots(series, rank)
    basis += plus
    basis += [mirror(g) for g in plus]
    if len(basis) != dimension(series, rank):
        raise RankError(f"{series}{rank} enumerates {len(basis)} generators, "
                        f"not {dimension(series, rank)}")
    return tuple(basis)


def symbol(kind: str, a: int, b: int) -> tuple[GeneratorId | None, Scalar]:
    """The symbol [X_ab] of a two-index kind X as (stored generator g,
    coefficient w), [X_ab] = w g.

    [X_ba] = eps [X_ab] with the exchange sign eps of `EXCHANGE`, so an
    S/T pair out of order carries -1 and a P/Q one +1. On the diagonal,
    [P_aa] = sqrt2 P_aa (and Q alike) and [S_aa] = 0, returned as
    (None, ZERO). F and the one-index kinds raise ValueError.
    """
    eps = EXCHANGE.get(kind)
    if eps is None:
        raise ValueError(f"symbol() does not apply to kind {kind!r}")
    if a < b:
        return GeneratorId(kind, a, b), ONE
    if a > b:
        return GeneratorId(kind, b, a), eps
    return (GeneratorId(kind, a, a), SQRT2) if eps == ONE else (None, ZERO)


def weight(gid: GeneratorId, n_indices: int) -> tuple[int, ...]:
    """Cartan weight vector: bracket(H_k, g) = weight[k-1] * g."""
    w = [0] * n_indices
    kind = gid.kind
    if kind in ("H", "I", "X", "x"):
        return tuple(w)
    sign = 1 if kind in ("P", "S", "U") else -1
    if kind == "F":
        w[gid.i - 1] += 1
        w[gid.j - 1] -= 1
    elif kind in ("U", "V"):
        w[gid.i - 1] += sign
    else:
        w[gid.i - 1] += sign
        w[gid.j - 1] += sign
    return tuple(w)
