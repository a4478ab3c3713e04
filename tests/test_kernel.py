"""The Fraction fast paths of the sparse-vector kernel and of sc_mul/sc_neg against stdlib Fraction arithmetic."""

from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from toroidal_duality.hecke import merge_vec, vec_scale
from toroidal_duality.scalars import Laurent, LaurentFrac, bare_fraction, is_zero, make_laurent, sc_inv, sc_mul, sc_neg

WIDE = 2 ** 100  # well past 64 bits, so no machine-word shortcut can hide
numerators = st.one_of(st.integers(-9, 9), st.integers(-WIDE, WIDE))
denominators = st.one_of(
    st.integers(1, 12),
    st.integers(1, WIDE),
    st.builds(lambda a, b: 2 ** a * 3 ** b, st.integers(0, 70), st.integers(0, 40)),  # shared factors
)
rationals = st.builds(Fraction, numerators, denominators)
nonzero_rationals = rationals.filter(bool)


@st.composite
def formal(draw):
    """A Laurent polynomial or a reduced quotient with a q-denominator: the generic path's kinds."""
    exps = st.tuples(st.integers(-2, 2), st.integers(-1, 1))
    num = make_laurent(draw(st.dictionaries(exps, st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)),
                                            min_size=1, max_size=3)))
    if draw(st.booleans()) or is_zero(num):
        return num
    return LaurentFrac.make(num, make_laurent({(0, 0): Fraction(1), (2, 0): Fraction(1)}))


entries = st.one_of(nonzero_rationals, nonzero_rationals, nonzero_rationals, formal()).filter(lambda c: not is_zero(c))
coefficients = st.one_of(st.sampled_from([Fraction(1), Fraction(-1), Fraction(0)]), rationals, formal())
keys = st.integers(0, 5)


def naive(acc, items, coeff):
    """acc + coeff * items through the scalars' own operators, dropping zeros."""
    out = dict(acc)
    for key, c in items:
        s = out.get(key, Fraction(0)) + coeff * c
        if is_zero(s):
            out.pop(key, None)
        else:
            out[key] = s
    return out


def assert_canonical(v):
    """A rational scalar is a reduced Fraction with a positive denominator, equal to the stdlib's own."""
    if not isinstance(v, (Laurent, LaurentFrac)):
        assert type(v) is Fraction
        n, d = v.numerator, v.denominator
        assert type(n) is int and type(d) is int
        assert d > 0 and gcd(n, d) == 1
        ref = Fraction(n, d)
        assert v == ref and hash(v) == hash(ref) and str(v) == str(ref)


def invertible(c):
    """What sc_inv takes: a nonzero rational, or a unit times a polynomial in q (of a quotient, its numerator)."""
    if isinstance(c, LaurentFrac):
        return invertible(c.num)
    if isinstance(c, Laurent):
        return len({e[1:] for e in c.terms}) == 1
    return not is_zero(c)


@st.composite
def merges(draw):
    acc = draw(st.dictionaries(keys, entries, max_size=5))
    coeff = draw(coefficients)
    items = draw(st.lists(st.tuples(keys, entries), max_size=6))
    if invertible(coeff):  # exact cancellation of some accumulated entries
        items += [(key, sc_mul(-c, sc_inv(coeff))) for key, c in acc.items() if draw(st.booleans())]
    return acc, draw(st.permutations(items)), coeff


@given(merges())
@settings(max_examples=250, deadline=None)
@example(({0: Fraction(1, 2)}, [(0, Fraction(-1, 2))], Fraction(1)))        # unit cancellation
@example(({0: Fraction(1, 6)}, [(0, Fraction(1, 3))], Fraction(-1, 2)))     # cancellation after a product
@example(({0: Fraction(1, 6)}, [(0, Fraction(1, 6))], Fraction(1)))         # equal denominators that reduce
@example(({1: Fraction(3)}, [(0, Fraction(7, 5)), (0, Fraction(2, 5))], Fraction(0)))
@example(({}, [(0, Fraction(2 ** 70 + 1, 3 ** 45))], Fraction(3 ** 45, 2 ** 70 + 1)))
def test_merge_vec_matches_stdlib_fractions(case):
    acc, items, coeff = case
    want = naive(acc, items, coeff)
    got = dict(acc)
    merge_vec(got, items, coeff)
    assert got == want
    for v in got.values():
        assert not is_zero(v)
        assert_canonical(v)
    assert [type(v) for v in got.values()] == [type(want[key]) for key in got]


@given(st.dictionaries(keys, entries, max_size=6), coefficients.filter(lambda c: not is_zero(c)))
@settings(max_examples=250, deadline=None)
@example({0: Fraction(2, 3), 1: make_laurent({(1, 0): 2})}, Fraction(1))
@example({0: Fraction(2, 3), 1: make_laurent({(1, 0): 2})}, Fraction(-1))
@example({0: Fraction(-6, 35), 2: Fraction(2 ** 70 + 1, 3 ** 45)}, Fraction(35, 6))
@example({0: Fraction(1, 2), 1: LaurentFrac.make(make_laurent({(0, 1): 1}), make_laurent({(0, 0): 1, (2, 0): 1}))},
         make_laurent({(1, -1): Fraction(1, 2)}))
def test_vec_scale_is_a_merge_into_an_empty_accumulator(vec, coeff):
    # a fresh output starts as vec_scale of its first column in place of a merge into {}
    want = {}
    merge_vec(want, vec.items(), coeff)
    got = vec_scale(coeff, vec.items())
    assert got == want and list(got) == list(want)
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
    for v in got.values():
        assert not is_zero(v)
        assert_canonical(v)


@given(st.one_of(rationals, formal()), st.one_of(rationals, formal()))
@settings(max_examples=200, deadline=None)
@example(Fraction(0), Fraction(5, 7))
@example(Fraction(-4, 9), Fraction(0))
@example(Fraction(6, 35), Fraction(-35, 6))
@example(Fraction(-1), make_laurent({(1, 0): Fraction(1), (0, 1): Fraction(2)}))
@example(Fraction(1, 3), LaurentFrac.make(make_laurent({(1, 1): Fraction(3)}), make_laurent({(0, 0): 1, (2, 0): 1})))
def test_sc_mul_and_sc_neg_match_stdlib_fractions(a, b):
    for x, y in ((a, b), (b, a)):  # mixed kinds in both orders
        got = sc_mul(x, y)
        assert got == x * y == y * x and type(got) is type(x * y) is type(y * x)
        assert_canonical(got)
    neg = sc_neg(a)
    assert neg == -a and type(neg) is type(-a)
    assert_canonical(neg)


def test_fraction_layout_the_fast_path_writes():
    # merge_vec and sc_mul fill these two slots of a bare Fraction directly
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    f = bare_fraction()
    f._numerator, f._denominator = -3, 4
    assert type(f) is Fraction and f == Fraction(-3, 4) and hash(f) == hash(Fraction(-3, 4))
    assert str(f) == "-3/4" and f + Fraction(3, 4) == 0 and f * 4 == -3
