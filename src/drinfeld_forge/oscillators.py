"""Oscillator polynomials: the generator images, their one Fock action,
their normal ordering, and the two stages that decide the `rep` and
`casimir` checks.

A letter is (CREATE, m) or (ANNIHILATE, m) for the oscillator of Cartan
index m, and a word is a tuple of letters read as their operator product
(the rightmost letter acts first). A word is normal-ordered when its
letters are nondecreasing: creators before annihilators, each ascending in
m. A polynomial is a dict word -> Scalar holding no zero. The generator
images are the polynomials of the `reps` docstring (`oscillator_image`).

`OscillatorProof` holds them for one Fock space and its central charges,
and reads no representation. Stage 1 normal-orders each residual
polynomial and reads no matrix: since normal-ordered words are a basis of
the Weyl and Clifford algebras, and their Fock representations are
faithful, a residual is zero exactly when the identity holds on the whole
Fock space, whatever the cutoff (the `reps` docstring gives the argument).
`FockSpace.apply` is the one Fock action: `OscillatorProof.action` applies
each normal-ordered image with it once, a matrix the `reps` builders make
is that result, and stage 2 (`reps.Representation.wrong_entries`) counts
the entries in which a held matrix differs from it.
"""

from __future__ import annotations

from .elements import Element
from .errors import SpecError
from .generators import GeneratorId
from .linalg import accumulate
from .scalars import HALF, INV_SQRT2, ONE

CREATE, ANNIHILATE = 0, 1


class Oscillators:
    """Normal ordering in the algebra of one oscillator statistics.

    The statistics enter only through the exchange `sign`: adjacent letters
    out of order swap with a factor `sign`, and an annihilator passing its
    own creator also leaves the contraction, so b b+ = b+ b + 1 for bosons
    (sign +1) and a a+ = -a+ a + 1 for fermions (sign -1). With sign -1 a
    repeated letter is zero (a a = a+ a+ = 0). Normal-ordered words are a
    basis of both algebras, so a polynomial is zero exactly when its
    normal-ordered form is.
    """

    def __init__(self, sign: int):
        self.sign = sign

    def multiply(self, word: tuple, letters: tuple) -> dict:
        """word * letters, normal-ordered, for a normal-ordered `word`:
        word -> integer coefficient. `multiply((), w)` orders any word w."""
        terms = {word: 1}
        for letter in letters:
            out = {}
            for w, n in terms.items():
                for moved, factor in self._times(w, letter):
                    total = out.get(moved, 0) + n * factor
                    if total:
                        out[moved] = total
                    else:
                        del out[moved]
            terms = out
        return terms

    def _times(self, word: tuple, letter: tuple) -> list:
        """A normal-ordered word times one letter: [(word, factor), ...]."""
        split = sum(1 for kind, _ in word if kind == CREATE)
        creators, annihilators = word[:split], word[split:]
        if letter[0] == ANNIHILATE:
            placed = self._insert(annihilators, letter, 1)
            if placed is None:
                return []
            return [(creators + placed[0], placed[1])]
        # the creator passes the annihilators from the right; passing its
        # own annihilator also leaves the contraction, with both removed
        out = []
        factor = 1
        for t in range(len(annihilators) - 1, -1, -1):
            if annihilators[t][1] == letter[1]:
                out.append((creators + annihilators[:t] + annihilators[t + 1:],
                            factor))
            factor *= self.sign
        placed = self._insert(creators, letter, factor)
        if placed is not None:
            out.append((placed[0] + annihilators, placed[1]))
        return out

    def _insert(self, run: tuple, letter: tuple, factor: int):
        """`letter` appended to a sorted run of letters of its own kind and
        swapped into place: (run, factor), or None when it is zero."""
        pos = len(run)
        while pos and run[pos - 1] > letter:
            pos -= 1
            factor *= self.sign
        if pos and run[pos - 1] == letter and self.sign < 0:
            return None
        return run[:pos] + (letter,) + run[pos:], factor

    def product(self, left: dict, right: dict) -> dict:
        """left * right, normal-ordered, for a normal-ordered `left` and a
        `right` given by any words."""
        out = {}
        for wl, cl in left.items():
            for wr, cr in right.items():
                coeff = cl * cr
                for w, n in self.multiply(wl, wr).items():
                    accumulate(out, w, coeff if n == 1 else coeff * n)
        return out

    def normal(self, poly: dict) -> dict:
        """A polynomial given by any words, normal-ordered."""
        return self.product({(): ONE}, poly)

    def commutator(self, left: dict, right: dict) -> dict:
        """[left, right] for normal-ordered polynomials, normal-ordered.

        A pair of words on disjoint modes is skipped when
        sign^(|wl| |wr|) is 1. Letters on different modes exchange with
        `sign`, so moving wr past wl letter by letter gives
        wl wr = sign^(|wl| |wr|) wr wl, and the two products of the pair
        cancel exactly. An odd fermionic pair (such as a+_1 with a+_2)
        anticommutes instead, and takes both products.
        """
        out = {}
        rights = [(wr, cr, {m for _, m in wr}) for wr, cr in right.items()]
        for wl, cl in left.items():
            modes = {m for _, m in wl}
            for wr, cr, others in rights:
                if (self.sign ** (len(wl) * len(wr)) == 1
                        and modes.isdisjoint(others)):
                    continue
                coeff = cl * cr
                for w, n in self.multiply(wl, wr).items():
                    accumulate(out, w, coeff if n == 1 else coeff * n)
                for w, n in self.multiply(wr, wl).items():
                    accumulate(out, w, -coeff if n == 1 else coeff * -n)
        return out


def boson_act(word: tuple, state: tuple):
    """A word on the unnormalized occupation state |n>, untruncated:
    (factor, state) with word |n> = factor |state>, or None when it is 0."""
    occupation = list(state)
    factor = 1
    for kind, index in reversed(word):
        if kind == CREATE:
            occupation[index - 1] += 1
        elif occupation[index - 1]:
            factor *= occupation[index - 1]
            occupation[index - 1] -= 1
        else:
            return None
    return factor, tuple(occupation)


def _jw_sign(mask: int, mode: int) -> int:
    """The Jordan-Wigner string: -1 to the number of modes below `mode`
    occupied in `mask`."""
    below = mask & ((1 << mode) - 1)
    return -1 if bin(below).count("1") % 2 else 1


def fermion_act(word: tuple, mask: int):
    """A word on the Fock state `mask` (bit m - 1 set when mode m is
    occupied), each letter carrying the Jordan-Wigner string over the
    lower modes: (sign, mask) with word |mask> = sign |mask'>, or None when
    it is 0."""
    sign = 1
    for kind, index in reversed(word):
        bit = 1 << (index - 1)
        if bool(mask & bit) != (kind == ANNIHILATE):
            return None
        mask ^= bit
        sign *= _jw_sign(mask, index - 1)
    return sign, mask


def boson_states(modes: int, cutoff: int) -> list[tuple[int, ...]]:
    """Occupation tuples of total at most `cutoff`, in sorted order."""
    if modes == 0:
        return [()]
    return [(first,) + rest for first in range(cutoff + 1)
            for rest in boson_states(modes - 1, cutoff - first)]


class FockSpace:
    """The Fock states of `modes` oscillators, in column order, and the
    action of a polynomial on them.

    Untruncated (`cutoff` None) the oscillators are fermions and the states
    are the masks 0 .. 2^modes - 1. Truncated they are bosons and the states
    are the occupation tuples of total at most `cutoff`, in sorted order.
    """

    def __init__(self, modes: int, cutoff: int | None = None):
        self.cutoff = cutoff
        if cutoff is None:
            self.states = range(1 << modes)
            self._act, self._index_of = fermion_act, None
        else:
            self.states = boson_states(modes, cutoff)
            self._act = boson_act
            self._index_of = {state: pos
                              for pos, state in enumerate(self.states)}

    def apply(self, poly: dict) -> dict:
        """The matrix of a polynomial over the states, (row, col) -> Scalar
        holding no zero, with amplitudes above the cutoff dropped."""
        act, index_of = self._act, self._index_of
        out = {}
        for word, coeff in poly.items():
            scaled = {}
            for col, state in enumerate(self.states):
                moved = act(word, state)
                if moved is None:
                    continue
                factor, target = moved
                row = target if index_of is None else index_of.get(target)
                if row is None:
                    continue
                value = scaled.get(factor)
                if value is None:
                    value = scaled[factor] = coeff * factor
                if (row, col) in out:
                    accumulate(out, (row, col), value)
                else:
                    out[(row, col)] = value
        return out


# Two-letter (or one-letter) images, per statistics: kind -> (letter kinds,
# coefficient for distinct indices, coefficient for equal ones). H and I
# are handled apart, for their constants.
_FERMION_WORDS = {
    "F": ((CREATE, ANNIHILATE), ONE, None),
    "S": ((CREATE, CREATE), ONE, None),
    "T": ((ANNIHILATE, ANNIHILATE), -ONE, None),
    "U": ((CREATE,), INV_SQRT2, INV_SQRT2),
    "V": ((ANNIHILATE,), INV_SQRT2, INV_SQRT2),
}
_BOSON_WORDS = {
    "F": ((CREATE, ANNIHILATE), ONE, None),
    "P": ((CREATE, CREATE), ONE, INV_SQRT2),
    "Q": ((ANNIHILATE, ANNIHILATE), -ONE, -INV_SQRT2),
}


def oscillator_image(gid: GeneratorId, fermionic: bool, lambdas) -> dict:
    """rho(gid) as the polynomial of the `reps` docstring's table, not yet
    normal-ordered; a kind with no realization is refused."""
    kind, i, j = gid
    out = {}
    if kind == "I":
        accumulate(out, (), lambdas[i])
    elif kind == "H":
        out[((CREATE, i), (ANNIHILATE, i))] = ONE
        out[()] = -HALF if fermionic else HALF
    else:
        words = _FERMION_WORDS if fermionic else _BOSON_WORDS
        kinds, coeff, diagonal = words.get(kind, ((), None, None))
        if j == i or j is None:
            coeff = diagonal
        if coeff is None:
            raise SpecError(f"kind {kind!r} has no oscillator realization")
        out[tuple(zip(kinds, (i, j)))] = coeff
    return out


class OscillatorProof:
    """The cutoff-free images of one Fock space and its central charges.

    `image(g)` is rho(g) as a normal-ordered polynomial, cached per
    generator, and stage 1 (`pair_residual`, `casimir`,
    `generator_residual`) works on these alone. `action(g)` is that
    polynomial applied to every state (`FockSpace.apply`), cached too: a
    matrix the `reps` builders make is that dict, and stage 2 holds each
    matrix to it. The proof reads no matrix.
    """

    def __init__(self, space: FockSpace, lambdas):
        self.space = space
        self.lambdas = lambdas
        self.fermionic = space.cutoff is None
        self.ordering = Oscillators(-1 if self.fermionic else 1)
        self._images = {}
        self._actions = {}

    def image(self, gid: GeneratorId) -> dict:
        if gid not in self._images:
            self._images[gid] = self.ordering.normal(
                oscillator_image(gid, self.fermionic, self.lambdas))
        return self._images[gid]

    def action(self, gid: GeneratorId) -> dict:
        """rho(g) on the states, (row, col) -> Scalar holding no zero."""
        if gid not in self._actions:
            self._actions[gid] = self.space.apply(self.image(gid))
        return self._actions[gid]

    def pair_residual(self, p: GeneratorId, q: GeneratorId,
                      bracket: Element) -> dict:
        """[rho(p), rho(q)] - rho([p, q]) normal-ordered: a polynomial that
        is empty exactly when the pair holds on the whole Fock space."""
        residual = self.ordering.commutator(self.image(p), self.image(q))
        for gid, coeff in bracket.terms():
            for word, value in self.image(gid).items():
                accumulate(residual, word, -coeff * value)
        return residual

    def casimir(self, cas) -> dict:
        """The Casimir (a `reps.CasimirElement`) as a normal-ordered
        polynomial."""
        total = {}
        for x, y, kind in cas.terms:
            px = self._element(x)
            if kind == "square":
                pairs = [(px, px)]
            else:
                py = self._element(y)
                pairs = [(px, py), (py, px)]
            for left, right in pairs:
                for word, value in self.ordering.product(left, right).items():
                    accumulate(total, word, value)
        return total

    def generator_residual(self, casimir: dict, gid: GeneratorId) -> dict:
        """[C, rho(g)] normal-ordered, for C the polynomial `casimir`
        returned."""
        return self.ordering.commutator(casimir, self.image(gid))

    def _element(self, elem: Element) -> dict:
        out = {}
        for gid, coeff in elem.terms():
            for word, value in self.image(gid).items():
                accumulate(out, word, coeff * value)
        return out
