"""Manin triples: isotropic splittings of the centrally extended algebras.

The double is the algebra itself (all of H, I and the root generators);
a splitting rotates the Cartan block into isotropic halves. Every Cartan
index is either central, rotating H_k with its own H' = I_k, or a member
of a two-index pair (i, j), rotating H = H_i with H' = H_j, in which case
I_i and I_j are dropped from the double. One block (a, b, c, d),
`ROTATION`, gives every rotation,

  X = a H + b H' = (H + i H') / sqrt2      x = c H + d H' = (H - i H') / sqrt2

and `CartanRotation.from_cartan` is its exact inverse. The canonical
splitting makes every index central. s+ collects the rotated upper
Cartans and the positive roots; s- mirrors it element for element, so
the pairing between matched bases is the identity.

This module builds a triple (`split`, `canonical_triple`) and the
triples derived from one (`with_double`, `perturb_pairing`,
`rescale_minus`); the structure constants and every check on a triple
live in `double`, and its cocommutator in `cocommutator`.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .algebra import LieAlgebra, build_series
from .elements import Element
from .errors import SpecError
from .generators import (GeneratorId, cartan_count, mirror, positive_roots,
                         validate_series_rank)
from .linalg import SpanBasis, accumulate
from .scalars import I, INV_SQRT2, ONE, Scalar

# the rotation block (a, b, c, d): X = a H + b H' and x = c H + d H'
ROTATION = (INV_SQRT2, I * INV_SQRT2, INV_SQRT2, -I * INV_SQRT2)


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
    """Change of basis between (H, I) and the isotropic Cartan halves.

    `to_double` writes each rotated generator in H and H' through the block
    `ROTATION`, and `from_cartan` writes H and H' back through the block's
    inverse, (d, -b; -c, a) times the inverse of its determinant. Both are
    read-only, so an edit in place raises TypeError instead of reaching
    every triple that shares a cached rotation."""

    def __init__(self, spec: SplittingSpec, n: int):
        pairs, central = spec.resolve(n)
        items = sorted(
            [("pair", i, j) for i, j in pairs]
            + [("central", k, None) for k in central],
            key=lambda item: item[1])
        a, b, c, d = ROTATION
        inv_det = (a * d - b * c).inv()
        # H = (d X - b x) / det and H' = (a x - c X) / det
        back = ((d * inv_det, -b * inv_det), (-c * inv_det, a * inv_det))
        self.plus_ids = []
        self.minus_ids = []
        to_double = {}
        from_cartan = {}
        for kind, i, j in items:
            upper = GeneratorId("X", i, j)
            lower = GeneratorId("x", i, j)
            first = GeneratorId("H", i)
            second = GeneratorId("H", j) if kind == "pair" else GeneratorId("I", i)
            to_double[upper] = Element({first: a, second: b})
            to_double[lower] = Element({first: c, second: d})
            for gid, (up, down) in zip((first, second), back):
                from_cartan[gid] = ((upper, up), (lower, down))
            self.plus_ids.append(upper)
            self.minus_ids.append(lower)
        self.plus_ids = tuple(self.plus_ids)
        self.minus_ids = tuple(self.minus_ids)
        self.to_double = MappingProxyType(to_double)
        self.from_cartan = MappingProxyType(from_cartan)


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
        # their half (`double`), and the cocommutator (`cocommutator`)
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
