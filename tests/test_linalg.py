"""The shared sparse accumulator against the keep-zeros-then-filter sum,
and the Elements built on it: none of them ever stores a zero."""

from hypothesis import given, strategies as st

from drinfeld_forge import HALF, I, ONE, SQRT2, ZERO, Element, GeneratorId
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



@given(any_scalars)
def test_accumulate_stores_a_first_value_itself(value):
    acc = {}
    accumulate(acc, "k", value)
    if value:
        assert acc["k"] is value
    else:
        assert acc == {}


H1, H2 = GeneratorId("H", 1), GeneratorId("H", 2)


@given(any_scalars, any_scalars, any_scalars)
def test_elements_keep_no_zero_term(x, y, k):
    assert Element({H1: ZERO}).is_zero()
    assert Element({H1: ZERO, H2: x})._terms == ({H2: x} if x else {})
    assert Element.gen(H1).scale(ZERO).is_zero()
    assert Element.gen(H1, ZERO).is_zero()
    e = Element({H1: x, H2: y})
    for out in (e, -e, e.scale(k), e.copy(), e + e, e - e, e + (-e)):
        assert all(out._terms.values())
    assert (-e)._terms == {g: -c for g, c in e.terms()}
    assert e.scale(k)._terms == {g: c * k for g, c in e.terms() if c * k}
    assert (e - e).is_zero() and (e + (-e)).is_zero()
    assert e.copy() == e and e.copy()._terms is not e._terms
