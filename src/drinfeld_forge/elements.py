"""Finite exact linear combinations of generators.

The public constructor drops zero coefficients. Negation, scaling by a
nonzero factor and copying build their terms directly: the field has no
zero divisors, so none of their coefficients can be zero, and Scalars are
immutable, so a coefficient may be shared with the source.
"""

from __future__ import annotations

from collections.abc import Iterable

from .generators import GeneratorId
from .linalg import accumulate
from .scalars import ONE, ZERO, Scalar

_new = object.__new__


def _scalar(value) -> Scalar:
    return value if isinstance(value, Scalar) else Scalar(value)


def _holding(terms: dict) -> Element:
    """An Element holding `terms` itself, which must hold no zero."""
    out = _new(Element)
    out._terms = terms
    return out


class Element:
    """A Scalar-weighted sum of GeneratorIds; zero coefficients are never stored."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[GeneratorId, Scalar] | None = None):
        self._terms = {}
        if terms:
            for gid, coeff in terms.items():
                coeff = _scalar(coeff)
                if coeff:
                    self._terms[gid] = coeff

    @classmethod
    def gen(cls, gid: GeneratorId, coeff=ONE) -> Element:
        return cls({gid: _scalar(coeff)})

    def terms(self) -> Iterable[tuple[GeneratorId, Scalar]]:
        return self._terms.items()

    def sorted_terms(self, index: dict[GeneratorId, int]) -> list[tuple[GeneratorId, Scalar]]:
        return sorted(self._terms.items(), key=lambda kv: index[kv[0]])

    def coeff(self, gid: GeneratorId) -> Scalar:
        return self._terms.get(gid, ZERO)

    def support(self) -> set[GeneratorId]:
        return set(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def add_term(self, gid: GeneratorId, coeff) -> None:
        """In-place accumulate; used by builders before an Element is shared."""
        accumulate(self._terms, gid,
                   coeff if type(coeff) is Scalar else _scalar(coeff))

    def copy(self) -> Element:
        return _holding(dict(self._terms))

    def __add__(self, other: Element) -> Element:
        terms = dict(self._terms)
        for gid, coeff in other._terms.items():
            accumulate(terms, gid, coeff)
        return _holding(terms)

    def __sub__(self, other: Element) -> Element:
        terms = dict(self._terms)
        for gid, coeff in other._terms.items():
            accumulate(terms, gid, -coeff)
        return _holding(terms)

    def __neg__(self) -> Element:
        return _holding({gid: -coeff for gid, coeff in self._terms.items()})

    def scale(self, factor) -> Element:
        factor = _scalar(factor)
        if not factor:
            return Element()
        return _holding({gid: coeff * factor
                         for gid, coeff in self._terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self._terms == other._terms

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for gid, coeff in sorted(self._terms.items()):
            bits.append(f"({coeff})*{gid.label}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"Element({self._terms!r})"
