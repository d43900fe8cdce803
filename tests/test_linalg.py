"""The shared sparse accumulator against the keep-zeros-then-filter sum."""

from hypothesis import given, strategies as st

from drinfeld_forge import HALF, I, ONE, SQRT2, ZERO
from drinfeld_forge.linalg import accumulate
from test_scalars import any_scalars

# a small pool of values and their negatives, so that sums cancel often
cancelling = st.sampled_from([ONE, -ONE, HALF, -HALF, I, -I, SQRT2, -SQRT2,
                              ZERO])
additions = st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                               st.one_of(cancelling, any_scalars)),
                     max_size=40)


@given(additions)
def test_accumulate_equals_filtered_sum(terms):
    acc, kept = {}, {}
    for key, value in terms:
        accumulate(acc, key, value)
        kept[key] = kept.get(key, ZERO) + value
    assert acc == {key: value for key, value in kept.items() if value}
    assert all(acc.values())

