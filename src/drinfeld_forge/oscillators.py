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
`FockSpace.act` is the one Fock action of a word, on the occupation tuples
of both statistics: `OscillatorProof.action` applies each normal-ordered
image with it once (`FockSpace.apply`), a matrix the `reps` builders make
is that read-only result when it is first read, and stage 2
(`reps.Representation.wrong_entries`) counts the entries in which a
matrix a caller gave differs from it.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType

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
                    accumulate(out, moved, n * factor)
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


def boson_states(modes: int, cutoff: int) -> list[tuple[int, ...]]:
    """Occupation tuples of total at most `cutoff`, in sorted order."""
    if modes == 0:
        return [()]
    return [(first,) + rest for first in range(cutoff + 1)
            for rest in boson_states(modes - 1, cutoff - first)]


class ReadOnlyDict(dict):
    """A dict whose mutators raise TypeError: a cached Fock action is read
    by every later matrix and gate of its generator, so an edit in place
    raises instead of reaching them."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a Fock action is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse


class FockSpace:
    """The Fock states of `modes` oscillators, in column order, and the
    one action of a word on them (`act`), for both statistics.

    A state is an occupation tuple. Untruncated (`cutoff` None) the
    oscillators are fermions, with exchange sign -1, and the states are
    the 0/1 tuples in the order of the binary numbers they spell, mode 1
    the lowest digit. Truncated they are bosons, with sign +1, and the
    states are the tuples of total at most `cutoff`, in sorted order.
    The state list and its index are built on first use, by `apply` or a
    read of `states`: a verdict that reads no matrix builds neither.
    """

    def __init__(self, modes: int, cutoff: int | None = None):
        self.modes = modes
        self.cutoff = cutoff
        self.sign = -1 if cutoff is None else 1

    @cached_property
    def states(self) -> list[tuple[int, ...]]:
        if self.cutoff is None:
            return [tuple(n >> m & 1 for m in range(self.modes))
                    for n in range(1 << self.modes)]
        return boson_states(self.modes, self.cutoff)

    @cached_property
    def _index_of(self) -> dict[tuple[int, ...], int]:
        return {state: pos for pos, state in enumerate(self.states)}

    def act(self, word: tuple, state: tuple):
        """A word on the unnormalized occupation state |n>, untruncated:
        (factor, state) with word |n> = factor |state>, or None when it is
        0. A creator adds a quantum, and an annihilator removes one with
        the factor n. The exchange sign alone sets the statistics apart:
        with sign -1 a mode holds at most one quantum, and each letter
        takes the sign once per occupied mode below its own."""
        occupation = state
        factor = 1
        for kind, index in reversed(word):
            pos = index - 1
            held = occupation[pos]
            if kind == ANNIHILATE:
                if not held:
                    return None
                factor *= held
                held -= 1
            elif held and self.sign < 0:
                return None
            else:
                held += 1
            if occupation is state:  # copied once a letter lands
                occupation = list(state)
            occupation[pos] = held
            if self.sign < 0 and (pos - occupation[:pos].count(0)) % 2:
                factor = -factor
        return factor, tuple(occupation)

    def apply(self, poly: dict) -> ReadOnlyDict:
        """The matrix of a polynomial over the states, (row, col) -> Scalar
        holding no zero, with amplitudes above the cutoff dropped; it is
        read-only."""
        act, row_of, states = self.act, self._index_of.get, self.states
        out = {}
        for word, coeff in poly.items():
            # a word takes each column to one row at most, so its entries
            # are distinct, and nonzero as the field has no zero divisors
            moved, scaled = {}, {}
            for col, state in enumerate(states):
                image = act(word, state)
                if image is None:
                    continue
                factor, target = image
                row = row_of(target)
                if row is None:
                    continue
                value = scaled.get(factor)
                if value is None:
                    value = scaled[factor] = coeff * factor
                moved[row, col] = value
            if not out:
                out = moved
            else:
                for key, value in moved.items():
                    accumulate(out, key, value)
        return ReadOnlyDict(out)


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
    generator and read-only, and stage 1 (`pair_residual`, `casimir`,
    `generator_residual`) works on these alone. `action(g)` is that
    polynomial applied to every state (`FockSpace.apply`), cached too: a
    matrix the `reps` builders make is that dict, and stage 2 holds each
    given matrix to it. The proof reads no matrix.
    """

    def __init__(self, space: FockSpace, lambdas):
        self.space = space
        self.lambdas = lambdas
        self.fermionic = space.sign < 0
        self.ordering = Oscillators(space.sign)
        self._images = {}
        self._actions = {}

    def image(self, gid: GeneratorId) -> MappingProxyType:
        if gid not in self._images:
            self._images[gid] = MappingProxyType(self.ordering.normal(
                oscillator_image(gid, self.fermionic, self.lambdas)))
        return self._images[gid]

    def action(self, gid: GeneratorId) -> ReadOnlyDict:
        """rho(g) on the states, (row, col) -> Scalar holding no zero,
        read-only."""
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

    def casimir(self, tensor: dict) -> dict:
        """The Casimir tensor (`double.casimir_quadratic`), the sum of
        c rho(a) rho(b) over its terms c a x b, as a normal-ordered
        polynomial."""
        total = {}
        for (ga, gb), coeff in tensor.items():
            product = self.ordering.product(self.image(ga), self.image(gb))
            for word, value in product.items():
                accumulate(total, word, coeff * value)
        return total

    def generator_residual(self, casimir: dict, gid: GeneratorId) -> dict:
        """[C, rho(g)] normal-ordered, for C the polynomial `casimir`
        returned."""
        return self.ordering.commutator(casimir, self.image(gid))
