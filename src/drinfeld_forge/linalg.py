"""Small exact linear-algebra helpers over the Scalar field.

`accumulate` is the one sparse accumulator of the package: every sparse
sum of structure constants, wedges, tensors and matrix entries adds into
a dict through it, and a coefficient that cancels is dropped at once,
never stored as zero. Addition in the field is exact, so the dict it
leaves equals the sum filtered of zeros at the end. The first value at a
key is stored as it is, not copied: Scalars are immutable and shared.

`SpanBasis` is the one exact elimination of the package: it tests span
membership (sub-bialgebra checks) and inverts the pairing of a Manin
triple (`manin.ManinTriple.pairing_inverse`). Vectors are sparse dicts keyed
by arbitrary hashable coordinates.
"""

from __future__ import annotations

from .scalars import Scalar


def accumulate(acc: dict, key, value: Scalar) -> None:
    """Add `value` at `key` of a sparse dict, dropping a sum that cancels.
    A key's first value is stored itself."""
    old = acc.get(key)
    if old is None:
        if value:
            acc[key] = value
        return
    total = old + value
    if total:
        acc[key] = total
    else:
        del acc[key]


class SpanBasis:
    """Incremental row echelon basis over Q(i, sqrt2) for sparse vectors."""

    def __init__(self):
        self._rows: dict = {}          # pivot coordinate -> reduced row

    def reduce(self, vector: dict) -> dict:
        """Residual of vector after elimination against the stored rows."""
        residual = {k: v for k, v in vector.items() if v}
        while residual:
            pivot = next((k for k in residual if k in self._rows), None)
            if pivot is None:
                break
            row = self._rows[pivot]
            factor = residual[pivot]
            for key, value in row.items():
                accumulate(residual, key, -(factor * value))
        return residual

    def add(self, vector: dict) -> bool:
        """Insert vector; returns True if it enlarged the span."""
        residual = self.reduce(vector)
        if not residual:
            return False
        pivot = min(residual, key=repr)
        inv = residual[pivot].inv()
        self._rows[pivot] = {k: v * inv for k, v in residual.items()}
        return True

    def contains(self, vector: dict) -> bool:
        return not self.reduce(vector)

    def rows(self):
        """Reduced rows, one per pivot; they span the same space."""
        return list(self._rows.values())

    def __len__(self) -> int:
        return len(self._rows)

