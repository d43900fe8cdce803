"""Reference implementation of Q(i, sqrt2) for the differential tests.

Each component a, b, c, d of a + b*i + c*sqrt2 + d*i*sqrt2 is a
fractions.Fraction and every operation is the textbook formula on those
Fractions. It is slow and independent of the integer representation that
drinfeld_forge.scalars uses, which is what makes it a useful oracle. It is
not part of the package and nothing outside the tests imports it.
"""

from __future__ import annotations

from fractions import Fraction

def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not a rational component: {value!r}")


class Scalar:
    """Element a + b*i + c*sqrt2 + d*i*sqrt2 of Q(i, sqrt2)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        object.__setattr__(self, "a", _frac(a))
        object.__setattr__(self, "b", _frac(b))
        object.__setattr__(self, "c", _frac(c))
        object.__setattr__(self, "d", _frac(d))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def components(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.d)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self.components == other.components
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.a == other
        return NotImplemented

    def __hash__(self):
        # a rational value hashes as its Fraction, so it agrees with __eq__
        if self.is_rational():
            return hash(self.a)
        return hash(self.components)

    def __reduce__(self):
        # slots plus the frozen __setattr__ defeat default pickling
        return (Scalar, (self.a, self.b, self.c, self.d))

    def __add__(self, other) -> Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.a + other.a, self.b + other.b,
                      self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __neg__(self) -> Scalar:
        return Scalar(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other) -> Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.a - other.a, self.b - other.b,
                      self.c - other.c, self.d - other.d)

    def __rsub__(self, other) -> Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a1, b1, c1, d1 = self.components
        a2, b2, c2, d2 = other.components
        return Scalar(
            a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
            a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    __rmul__ = __mul__

    def conj_i(self) -> Scalar:
        """Field automorphism i -> -i (fixes sqrt2)."""
        return Scalar(self.a, -self.b, self.c, -self.d)

    def conj_sqrt2(self) -> Scalar:
        """Field automorphism sqrt2 -> -sqrt2 (fixes i)."""
        return Scalar(self.a, self.b, -self.c, -self.d)

    def inv(self) -> Scalar:
        """Multiplicative inverse, by rationalizing against both conjugates."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero Scalar")
        ci = self.conj_i()
        m = self * ci                    # lands in Q(sqrt2)
        ms = m.conj_sqrt2()
        norm = (m * ms).a                # rational and nonzero for a field
        scale = ci * ms
        return Scalar(scale.a / norm, scale.b / norm,
                      scale.c / norm, scale.d / norm)

    def __truediv__(self, other) -> Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other) -> Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def to_strings(self) -> list[str]:
        """Canonical 4-tuple of rational strings, lowest terms, q > 0."""
        return [str(x) for x in self.components]

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for value, unit in zip(self.components, ("", "i", "sqrt2", "i*sqrt2")):
            if not value:
                continue
            text = str(value)
            if unit:
                text = f"{text}*{unit}" if abs(value) != 1 else f"{'-' if value < 0 else ''}{unit}"
            parts.append(text)
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out

    def __repr__(self) -> str:
        return f"Scalar({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


def _coerce(value) -> Scalar | None:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    return None

