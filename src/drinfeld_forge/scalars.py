"""Exact arithmetic in the field Q(i, sqrt2).

Every coefficient in the library is a Scalar: an element
(p + q*i + r*sqrt2 + s*i*sqrt2) / den with four integer numerators over one
positive integer denominator, kept in lowest terms (the gcd of all five is 1,
and zero is stored with den == 1). The arithmetic works on those integers
directly; the rational components a, b, c, d are rebuilt as Fractions only
when read. The field is closed under the operations used by the structure
tables (i^2 = -1, sqrt2^2 = 2), so no floating point enters any bracket,
pairing, or cocommutator.

Scalars are immutable, so one Scalar is shared freely between tables,
elements and matrices, and a product may return one of its operands: by
a Scalar 1 it returns the other factor itself, and by -1 its negation,
with no arithmetic (`__mul__` says which factor is read as the 1). Most
structure constants of the completely determined basis are signs, so
this is the common product. Any other rational Scalar factor
(q = r = s = 0) takes 4 integer products instead of 16, and a Python int
factor scales the numerators the same way, into a new Scalar, without
being made a Scalar first. Only a product of two irrational factors
takes the full formula.

`fractions` is imported only where a Fraction is read or given: the
components, `str` and `repr`, equality with and coercion of a Fraction,
and the hash of a value whose denominator is not 1. Arithmetic,
`to_strings` and the constants below never load it.
"""

from __future__ import annotations

from math import gcd, lcm

_new = object.__new__


def _ratio(n: int, d: int) -> Fraction:
    """n/d as a Fraction (d > 0)."""
    from fractions import Fraction
    return Fraction(n, d)


def _frac(value) -> Fraction:
    from fractions import Fraction
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not a rational component: {value!r}")


def _normalized(p: int, q: int, r: int, s: int, den: int) -> Scalar:
    """The Scalar (p + q*i + r*sqrt2 + s*i*sqrt2) / den, for any den > 0."""
    g = gcd(p, q, r, s, den)
    if g != 1:
        p, q, r, s, den = p // g, q // g, r // g, s // g, den // g
    new = _new(Scalar)
    new._p = p
    new._q = q
    new._r = r
    new._s = s
    new._den = den
    return new


def _times(x: Scalar, n: int, m: int) -> Scalar:
    """x * n/m, for a rational n/m in lowest terms (m > 0), by 4 integer
    products."""
    den = x._den * m
    if den != 1:
        return _normalized(x._p * n, x._q * n, x._r * n, x._s * n, den)
    new = _new(Scalar)
    new._p = x._p * n
    new._q = x._q * n
    new._r = x._r * n
    new._s = x._s * n
    new._den = 1
    return new


class Scalar:
    """Element a + b*i + c*sqrt2 + d*i*sqrt2 of Q(i, sqrt2).

    Stored as integers (p, q, r, s) over den, so a = p/den, b = q/den,
    c = r/den, d = s/den. The public components are read-only.
    """

    __slots__ = ("_p", "_q", "_r", "_s", "_den")

    def __init__(self, a=0, b=0, c=0, d=0):
        if type(a) is int and type(b) is int and type(c) is int and type(d) is int:
            self._p, self._q, self._r, self._s, self._den = a, b, c, d, 1
            return
        fa, fb, fc, fd = _frac(a), _frac(b), _frac(c), _frac(d)
        den = lcm(fa.denominator, fb.denominator, fc.denominator, fd.denominator)
        # every component is in lowest terms, so the scaled numerators share
        # no factor with den: the result is already normalized
        self._p = fa.numerator * (den // fa.denominator)
        self._q = fb.numerator * (den // fb.denominator)
        self._r = fc.numerator * (den // fc.denominator)
        self._s = fd.numerator * (den // fd.denominator)
        self._den = den

    @property
    def a(self) -> Fraction:
        return _ratio(self._p, self._den)

    @property
    def b(self) -> Fraction:
        return _ratio(self._q, self._den)

    @property
    def c(self) -> Fraction:
        return _ratio(self._r, self._den)

    @property
    def d(self) -> Fraction:
        return _ratio(self._s, self._den)

    @property
    def components(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def is_zero(self) -> bool:
        return not (self._p or self._q or self._r or self._s)

    def __bool__(self) -> bool:
        return bool(self._p or self._q or self._r or self._s)

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return (self._p == other._p and self._q == other._q
                    and self._r == other._r and self._s == other._s
                    and self._den == other._den)
        if isinstance(other, int):
            return (self._den == 1 and self._p == other
                    and not (self._q or self._r or self._s))
        from fractions import Fraction
        if isinstance(other, Fraction):
            return (self._den == other.denominator and self._p == other.numerator
                    and not (self._q or self._r or self._s))
        return NotImplemented

    def __hash__(self):
        # equal values hash equal: __eq__ compares a rational value with
        # ints and Fractions, so it hashes as its Fraction, and any value
        # as the tuple of its components. Over den 1 each component is an
        # int, whose hash is its Fraction's.
        if not (self._q or self._r or self._s):
            if self._den == 1:
                return hash(self._p)
            return hash(_ratio(self._p, self._den))
        if self._den == 1:
            return hash((self._p, self._q, self._r, self._s))
        return hash(self.components)

    def __reduce__(self):
        # the normal form as plain ints, on every protocol (protocols 0 and 1
        # cannot pickle a __slots__ class by themselves)
        return (_normalized, (self._p, self._q, self._r, self._s, self._den))

    def __add__(self, other) -> Scalar:
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        den = self._den
        oden = other._den
        if den == oden:
            p = self._p + other._p
            q = self._q + other._q
            r = self._r + other._r
            s = self._s + other._s
            if den != 1:
                return _normalized(p, q, r, s, den)
        else:
            p = self._p * oden + other._p * den
            q = self._q * oden + other._q * den
            r = self._r * oden + other._r * den
            s = self._s * oden + other._s * den
            return _normalized(p, q, r, s, den * oden)
        new = _new(Scalar)
        new._p = p
        new._q = q
        new._r = r
        new._s = s
        new._den = 1
        return new

    __radd__ = __add__

    def __neg__(self) -> Scalar:
        new = _new(Scalar)
        new._p, new._q, new._r, new._s, new._den = (
            -self._p, -self._q, -self._r, -self._s, self._den)
        return new

    def __sub__(self, other) -> Scalar:
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self + -other

    def __rsub__(self, other) -> Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> Scalar:
        """The product. A rational Scalar factor (the right one, if both
        are) scales the numerators of the other factor, and when it is 1 or
        -1 the other factor itself or its negation is returned; an int
        factor scales the numerators into a new Scalar."""
        if type(other) is not Scalar:
            if type(other) is int:
                return _times(self, other, 1)
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if not (other._q or other._r or other._s):
            # lowest terms: p == den only for 1, p == -den only for -1
            n, m = other._p, other._den
            if n == m:
                return self
            if n == -m:
                return -self
            return _times(self, n, m)
        if not (self._q or self._r or self._s):
            n, m = self._p, self._den
            if n == m:
                return other
            if n == -m:
                return -other
            return _times(other, n, m)
        a1, b1, c1, d1 = self._p, self._q, self._r, self._s
        a2, b2, c2, d2 = other._p, other._q, other._r, other._s
        p = a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2)
        q = a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2)
        r = a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2
        s = a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
        den = self._den * other._den
        if den != 1:
            return _normalized(p, q, r, s, den)
        new = _new(Scalar)
        new._p = p
        new._q = q
        new._r = r
        new._s = s
        new._den = 1
        return new

    __rmul__ = __mul__

    def conj_i(self) -> Scalar:
        """Field automorphism i -> -i (fixes sqrt2)."""
        new = _new(Scalar)
        new._p, new._q, new._r, new._s, new._den = (
            self._p, -self._q, self._r, -self._s, self._den)
        return new

    def inv(self) -> Scalar:
        """Multiplicative inverse, by rationalizing against both conjugates.

        With x = n / den, n times its i-conjugate is A + B*sqrt2 in Z[sqrt2],
        and (A + B*sqrt2)(A - B*sqrt2) = A^2 - 2B^2 is an integer, so
        1/x = den * conj_i(n) * (A - B*sqrt2) / (A^2 - 2B^2). That integer is
        the product of |n|^2 under the two embeddings of sqrt2, hence > 0.
        """
        p, q, r, s, den = self._p, self._q, self._r, self._s, self._den
        if not (p or q or r or s):
            raise ZeroDivisionError("inverse of zero Scalar")
        big_a = p * p + q * q + 2 * (r * r + s * s)
        big_b = 2 * (p * r + q * s)
        norm = big_a * big_a - 2 * big_b * big_b
        return _normalized(den * (p * big_a - 2 * r * big_b),
                           den * (2 * s * big_b - q * big_a),
                           den * (r * big_a - p * big_b),
                           den * (q * big_b - s * big_a),
                           norm)

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
        den = self._den
        if den == 1:
            return [str(self._p), str(self._q), str(self._r), str(self._s)]
        out = []
        for n in (self._p, self._q, self._r, self._s):
            g = gcd(n, den)
            out.append(str(n // g) if g == den else f"{n // g}/{den // g}")
        return out

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
    if isinstance(value, int):
        return _normalized(int(value), 0, 0, 0, 1)
    from fractions import Fraction
    if isinstance(value, Fraction):
        return _normalized(value.numerator, 0, 0, 0, value.denominator)
    return None


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
SQRT2 = Scalar(0, 0, 1)
I_SQRT2 = Scalar(0, 0, 0, 1)
HALF = _normalized(1, 0, 0, 0, 2)
INV_SQRT2 = _normalized(0, 0, 1, 0, 2)     # 1/sqrt2 = sqrt2/2
