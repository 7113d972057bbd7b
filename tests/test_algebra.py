import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial, gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from psi_umbral.algebra import (NEG_INF, Polynomial, TruncatedSeries,
                                _combination, _lowest_terms, _over_lcm,
                                _pairs_over_lcm, as_scalar, format_polynomial,
                                scalar_from_str, scalar_to_str)
from psi_umbral.errors import (CompositionError, NonInvertibleError,
                               SelfCheckError)
from psi_umbral.operators import GradedOperator
from psi_umbral.psi import PsiSequence


def rationals(max_num=30, max_den=6):
    return st.builds(Fraction,
                     st.integers(min_value=-max_num, max_value=max_num),
                     st.integers(min_value=1, max_value=max_den))


def polynomials(max_deg=6):
    return st.builds(Polynomial, st.lists(rationals(), max_size=max_deg + 1))


def series(cap=8):
    return st.builds(lambda cs: TruncatedSeries(cs, cap),
                     st.lists(rationals(), max_size=cap + 1))


# -- scalars ----------------------------------------------------------------

def test_as_scalar_rejects_floats():
    with pytest.raises(TypeError):
        as_scalar(0.5)


@pytest.mark.parametrize("text", ["1e3", "2E-1", "1.5e2", "1e10000000"])
def test_as_scalar_rejects_exponent_notation(text):
    with pytest.raises(ValueError, match="exponent notation"):
        scalar_from_str(text)


def test_as_scalar_reads_decimals():
    assert scalar_from_str("1.5") == Fraction(3, 2)
    assert scalar_from_str(" -0.25 ") == Fraction(-1, 4)


def test_scalar_string_roundtrip():
    for text in ("3", "-3", "1/2", "-7/3", "0"):
        assert scalar_to_str(scalar_from_str(text)) == text


# -- polynomials ------------------------------------------------------------

def test_degree_and_zero():
    assert Polynomial().degree is NEG_INF
    assert Polynomial((0, 0)).is_zero
    assert Polynomial((1, 2, 0)).degree == 1
    assert Polynomial.monomial(3).degree == 3


@pytest.mark.parametrize("c", [0, 1, -1, 7, -12, 10 ** 30, -(10 ** 30)])
@pytest.mark.parametrize("n", [0, 1, 5])
def test_an_int_monomial_is_the_fraction_monomial(n, c):
    got = Polynomial.monomial(n, c)
    # equality compares the stored numerators and denominator
    assert got == Polynomial.monomial(n, Fraction(c)) == Polynomial((0,) * n + (c,))
    assert got.is_zero == (c == 0)


def test_polynomial_arithmetic_golden():
    p = Polynomial((1, 1))        # 1 + x
    assert p * p == Polynomial((1, 2, 1))
    assert p ** 3 == Polynomial((1, 3, 3, 1))
    assert (p - p).is_zero
    assert p(3) == 4
    assert Polynomial((0, 0, 1)).derivative() == Polynomial((0, 2))


def test_format_polynomial():
    p = Polynomial((0, -6, 11, -6, 1))
    assert format_polynomial(p) == "x^4 - 6*x^3 + 11*x^2 - 6*x"
    assert format_polynomial(Polynomial()) == "0"
    assert format_polynomial(Polynomial((Fraction(-1, 2),))) == "-1/2"


def test_polynomial_hashable():
    assert len({Polynomial((1, 2)), Polynomial((1, 2)), Polynomial((2, 1))}) == 2


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=60)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c


@given(polynomials(), polynomials())
@settings(max_examples=60)
def test_degree_of_product(a, b):
    d = (a * b).degree
    if a.is_zero or b.is_zero:
        assert d is NEG_INF
    else:
        assert d == a.degree + b.degree


@given(polynomials(), rationals())
@settings(max_examples=60)
def test_evaluation_is_a_homomorphism(p, x0):
    q = Polynomial((2, 0, 1))
    assert (p * q)(x0) == p(x0) * q(x0)
    assert (p + q)(x0) == p(x0) + q(x0)


# -- truncated series -------------------------------------------------------

# -- the integer polynomial kernel against plain Fraction lists --

# Denominators that mix small primes with large powers of two and their
# neighbours, so sums and products meet both shared and coprime factors.
DENOMINATORS = [1, 3, 7] + [2 ** k for k in (1, 5, 31, 64)] + \
    [2 ** k - 1 for k in (2, 5, 31, 61)]


def random_fractions(rng, length):
    """Entries with runs of zeros, negative values and mixed denominators."""
    out = []
    while len(out) < length:
        if rng.random() < 0.3:
            out.extend([Fraction(0)] * rng.randint(1, 4))
        else:
            out.append(Fraction(rng.randint(-99, 99), rng.choice(DENOMINATORS)))
    return out[:length]


def trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_add(a, b):
    n = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))
    return trimmed(x + y for x, y in zip(a, b))


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trimmed(out)


def ref_apply(rows, a):
    out = []
    for n, c in enumerate(a):
        out = ref_add(out, [c * v for v in rows[n]])
    return out


def assert_canonical(p):
    nums, den = p._num, p._den
    assert den > 0 and gcd(den, *nums) == 1
    assert not nums or nums[-1] != 0
    again = Polynomial(list(p.coeffs))
    assert again == p and hash(again) == hash(p)


@pytest.mark.parametrize("seed", range(4))
def test_integer_kernel_matches_fraction_lists(seed):
    rng = random.Random(seed)
    for _ in range(30):
        a = random_fractions(rng, rng.randint(0, 12))
        b = random_fractions(rng, rng.randint(0, 12))
        p, q = Polynomial(a), Polynomial(b)
        c = Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
        x0 = Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
        k, d = rng.randint(0, 4), rng.randint(-1, 12)
        results = {
            "+": (p + q, ref_add(a, b)),
            "-": (p - q, ref_add(a, [-v for v in b])),
            "*": (p * q, ref_mul(a, b)),
            "p*c": (p * c, trimmed(v * c for v in a)),
            "c*p": (c * p, trimmed(v * c for v in a)),
            "derivative": (p.derivative(),
                           trimmed(i * v for i, v in enumerate(a))[1:]),
            "shifted": (p.shifted(k),
                        trimmed([Fraction(0)] * k + a) if trimmed(a) else []),
            "truncated": (p.truncated(d), trimmed(a[: d + 1])),
        }
        if c:
            results["/"] = (p / c, trimmed(v / c for v in a))
        for name, (got, want) in results.items():
            assert list(got.coeffs) == want, name
            assert_canonical(got)
        assert p(x0) == sum((v * x0 ** i for i, v in enumerate(a)), Fraction(0))
        assert p.leading_coefficient == (trimmed(a) or [Fraction(0)])[-1]
        assert p.constant_term == (a[0] if a else 0)


@pytest.mark.parametrize("seed", range(4))
def test_combination_is_the_sum_of_shifted_rows(seed):
    # shifts 0, 1 and past the length summed so far, zero rows, zero
    # multipliers and a denominator of either sign
    rng = random.Random(seed)
    for _ in range(40):
        terms = [(rng.choice((0, rng.randint(-9, 9))),
                  Polynomial(random_fractions(rng, rng.randint(0, 6))),
                  rng.choice((0, 1, rng.randint(2, 14))))
                 for _ in range(rng.randint(0, 5))]
        den = rng.choice((-1, 1)) * rng.choice(DENOMINATORS)
        want = Polynomial()
        for m, row, s in terms:
            want = want + m * row.shifted(s)
        got = _combination(terms, den)
        assert got == want / den
        assert_canonical(got)


def test_combination_with_a_negative_denominator():
    p = Polynomial([Fraction(1, 2), 0, Fraction(-3, 4)])
    terms = [(3, p, 4), (0, Polynomial.one(), 9), (5, Polynomial(), 2),
             (-2, Polynomial.x(), 0)]
    got = _combination(iter(terms), -6)
    assert got == (3 * p.shifted(4) - 2 * Polynomial.x()) / -6
    assert got.coeffs == (0, Fraction(1, 3), 0, 0, Fraction(-1, 4), 0,
                          Fraction(3, 8))
    assert_canonical(got)
    assert _combination([(0, p, 1), (4, Polynomial(), 3)], -5) == Polynomial()


def _kernel_rows():
    """Rows with mixed denominators, runs of zeros and the zero row."""
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-99, 99),
                                st.sampled_from(DENOMINATORS)))
    return st.lists(entry, max_size=7)


@given(st.lists(st.tuples(st.one_of(st.just(0), st.integers(-40, 40)),
                          _kernel_rows(), st.integers(0, 12)), max_size=7),
       st.sampled_from([1, -1, 2, -3, 12, -2 ** 31, 2 ** 61 - 1]))
@settings(max_examples=300, deadline=None)
def test_combination_matches_a_fraction_sum(drawn, den):
    # zero multipliers and zero rows add nothing, a shift may pass every
    # row read so far, and the terms are read once, from a generator
    want = []
    for m, row, s in drawn:
        for i, c in enumerate(row, s):
            want.extend([Fraction(0)] * (i + 1 - len(want)))
            want[i] += m * c / den
    reads = []

    def once():
        for m, row, s in drawn:
            reads.append(s)
            yield m, Polynomial(row), s

    got = _combination(once(), den)
    assert reads == [s for _, _, s in drawn]
    assert list(got.coeffs) == trimmed(want)
    assert_canonical(got)


def test_pairs_over_lcm_keeps_zeros_and_a_positive_denominator():
    assert _pairs_over_lcm([]) == ([], 1)
    assert _pairs_over_lcm([(0, 5), (0, -3), (0, 1)]) == ([0, 0, 0], 1)
    # a zero a adds nothing to the lcm; a negative d flips its numerator
    assert _pairs_over_lcm([(1, -2), (0, 7), (1, 3), (-5, -4)]) == (
        [-6, 0, 4, 15], 12)
    assert _pairs_over_lcm([(6, 4), (2, -6)]) == ([18, -4], 12)


@pytest.mark.parametrize("seed", range(4))
def test_pairs_over_lcm_puts_the_pairs_over_one_denominator(seed):
    rng = random.Random(seed)
    for _ in range(40):
        pairs = [(rng.choice((0, rng.randint(-99, 99))),
                  rng.choice((-1, 1)) * rng.choice(DENOMINATORS))
                 for _ in range(rng.randint(0, 8))]
        nums, den = _pairs_over_lcm(pairs)
        assert den == lcm(*(d for a, d in pairs if a))
        assert [Fraction(a, den) for a in nums] == [Fraction(a, d)
                                                    for a, d in pairs]
        # reduced Fractions as pairs come out as _over_lcm puts them
        cs = random_fractions(rng, rng.randint(0, 8))
        den = lcm(*(c.denominator for c in cs))
        want = ([c.numerator * (den // c.denominator) for c in cs], den)
        assert _over_lcm(cs) == want
        assert _pairs_over_lcm([(c.numerator, c.denominator)
                                for c in cs]) == want


def test_zero_polynomials_are_all_the_same():
    p = Polynomial([Fraction(3, 7), 0, Fraction(-1, 2 ** 31)])
    zeros = [Polynomial(), Polynomial.zero(), Polynomial((0, 0, 0)), p - p,
             p * 0, p.truncated(-1), Polynomial.one().derivative(),
             Polynomial.monomial(3, 0), Polynomial.zero().shifted(2)]
    for z in zeros:
        assert (z._num, z._den) == ((), 1)
        assert z == Polynomial() and hash(z) == hash(Polynomial())
        assert z.is_zero and z.coeffs == () and z.degree is NEG_INF


def test_equal_polynomials_built_apart_have_equal_hashes():
    half = Fraction(1, 2)
    p = Polynomial([half, Fraction(1, 3)]) * 6
    q = Polynomial([3, 2])
    r = (Polynomial([Fraction(3, 7)]) + Polynomial([Fraction(4, 7)])) * q
    assert p == q == r and hash(p) == hash(q) == hash(r)
    assert (p._num, p._den) == ((3, 2), 1)


def random_table(rng, cap, growth):
    return GradedOperator(
        [Polynomial(random_fractions(rng, rng.randint(0, n + 1 + growth)))
         for n in range(cap + 1)], cap)


@pytest.mark.parametrize("seed", range(4))
def test_table_apply_and_compose_match_fraction_lists(seed):
    rng = random.Random(seed)
    cap = 8
    outer = random_table(rng, cap, 0)
    rows = [list(img.coeffs) for img in outer.images]
    for _ in range(10):
        a = random_fractions(rng, rng.randint(0, cap + 1))
        assert list(outer.apply(Polynomial(a)).coeffs) == ref_apply(rows, a)
    for growth in (0, 1):
        inner = random_table(rng, cap, growth)
        got = outer.compose(inner)
        eff = -1
        for n, img in enumerate(inner.images):
            if len(img.coeffs) - 1 > cap:
                break
            eff = n
        assert got.cap == eff
        for n in range(eff + 1):
            want = ref_apply(rows, list(inner.image(n).coeffs))
            assert list(got.image(n).coeffs) == want
            assert_canonical(got.image(n))


# -- the integer series kernel against plain Fraction lists --
#
# A reference series is a list of exactly cap + 1 Fractions; each operation
# is its textbook definition, written on those lists.

KERNEL_CAPS = (0, 1, 2, 24)

def ref_series_mul(a, b):
    cap = min(len(a), len(b)) - 1
    out = [Fraction(0)] * (cap + 1)
    for i in range(cap + 1):
        for j in range(cap + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def ref_series_inverse(a):
    out = [1 / a[0]]
    for n in range(1, len(a)):
        out.append(-sum((a[k] * out[n - k] for k in range(1, n + 1)),
                        Fraction(0)) / a[0])
    return out


def ref_series_compose(f, g):
    cap = min(len(f), len(g)) - 1
    out = [Fraction(0)] * (cap + 1)
    gk = [Fraction(1)] + [Fraction(0)] * cap
    for k in range(cap + 1):
        out = [x + f[k] * y for x, y in zip(out, gk)]
        gk = ref_series_mul(gk, g[: cap + 1])
    return out


def assert_canonical_series(s):
    nums, den = s._num, s._den
    assert len(nums) == s.cap + 1
    assert den > 0 and gcd(den, *nums) == 1
    assert all(isinstance(a, int) for a in nums + (den,))
    if not any(nums):
        assert den == 1


def random_series_list(rng, cap, constant=None, linear=None):
    cs = random_fractions(rng, cap + 1)
    if constant is not None:
        cs[0] = Fraction(constant)
    if linear is not None and cap >= 1:
        cs[1] = Fraction(linear)
    return cs


def nonzero_fraction(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 99),
                    rng.choice(DENOMINATORS))


@pytest.mark.parametrize("cap", KERNEL_CAPS)
@pytest.mark.parametrize("seed", range(3))
def test_series_kernel_matches_fraction_lists(cap, seed):
    rng = random.Random("series:%d:%d" % (cap, seed))
    for _ in range(4 if cap == 24 else 20):
        a = random_series_list(rng, cap)
        b = random_series_list(rng, cap)
        c = Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
        s, t = TruncatedSeries(a, cap), TruncatedSeries(b, cap)
        d = rng.randint(0, cap)
        k = rng.randint(0, 5)
        power = [Fraction(1)] + [Fraction(0)] * cap
        for _ in range(k):
            power = ref_series_mul(power, a)
        a0 = a[:]
        a0[0] = nonzero_fraction(rng)
        g = b[:]
        g[0] = Fraction(0)
        results = {
            "+": (s + t, [x + y for x, y in zip(a, b)]),
            "-": (s - t, [x - y for x, y in zip(a, b)]),
            "neg": (-s, [-x for x in a]),
            "s*c": (s * c, [x * c for x in a]),
            "c*s": (c * s, [x * c for x in a]),
            "*": (s * t, ref_series_mul(a, b)),
            "power": (s.power(k), power),
            "inverse": (TruncatedSeries(a0, cap).inverse(),
                        ref_series_inverse(a0)),
            "compose": (s.compose(TruncatedSeries(g, cap)),
                        ref_series_compose(a, g)),
            "differentiated": (s.differentiated(),
                               [i * x for i, x in enumerate(a)][1:] or [0]),
            "truncated": (s.truncated(d), a[: d + 1]),
        }
        for name, (got, want) in results.items():
            assert list(got.coeffs) == want, name
            assert got.cap == len(want) - 1, name
            assert_canonical_series(got)
        if cap >= 1:
            # the reversion is the only g with g(0) = 0 and f(g) = z
            f = random_series_list(rng, cap, constant=0,
                                   linear=nonzero_fraction(rng))
            rev = TruncatedSeries(f, cap).reversion()
            assert_canonical_series(rev)
            assert rev.cap == cap and rev.coeffs[0] == 0
            assert ref_series_compose(f, list(rev.coeffs)) == \
                [Fraction(0), Fraction(1)] + [Fraction(0)] * (cap - 1)
        assert s.constant_term == a[0]
        assert [s.coefficient(i) for i in range(cap + 1)] == a
        assert s.as_polynomial() == Polynomial(a)
        assert TruncatedSeries.from_polynomial(Polynomial(a), cap) == s
        assert TruncatedSeries.from_json(s.to_json()) == s


@pytest.mark.parametrize("seed", range(4))
def test_series_equality_across_caps_matches_fraction_lists(seed):
    rng = random.Random(seed)
    for _ in range(40):
        a = random_series_list(rng, rng.randint(0, 8))
        b = a[: rng.randint(1, len(a))] + random_series_list(rng, rng.randint(0, 3))
        if rng.random() < 0.5:
            b[rng.randrange(len(b))] += Fraction(1, rng.choice(DENOMINATORS))
        s, t = TruncatedSeries(a, len(a) - 1), TruncatedSeries(b, len(b) - 1)
        n = min(len(a), len(b))
        assert (s == t) == (a[:n] == b[:n])
        assert (t == s) == (a[:n] == b[:n])
        assert (s.truncated(n - 1) == t.truncated(n - 1)) == (a[:n] == b[:n])
        # same numerators over another denominator are another series
        scaled = TruncatedSeries([3 * x for x in a], len(a) - 1)
        assert (s == scaled) == (not any(a))
    assert TruncatedSeries((Fraction(1, 3), Fraction(2, 3)), 1) != \
        TruncatedSeries((1, 2), 1)


@pytest.mark.parametrize("cap", (1, 2, 5, 8, 24))
def test_inverse_with_a_negative_constant_term(cap):
    # a0^(cap+1) is negative at even caps: the denominator must still come
    # out positive
    rng = random.Random(cap)
    for a0 in (Fraction(-1), Fraction(-3, 7), Fraction(-2 ** 31, 3)):
        a = random_series_list(rng, cap, constant=a0)
        inv = TruncatedSeries(a, cap).inverse()
        assert_canonical_series(inv)
        assert list(inv.coeffs) == ref_series_inverse(a)
        assert inv * TruncatedSeries(a, cap) == TruncatedSeries.one(cap)


CONTENT_TAIL = (0, 1, 2, 3, 4, 6, 9, 12, 2 ** 19, Fraction(1, 3), Fraction(2, 9))


@pytest.mark.parametrize("cap", KERNEL_CAPS)
@pytest.mark.parametrize("a0", [Fraction(6), Fraction(4, 9), Fraction(-2 ** 20),
                                Fraction(1), Fraction(-1)])
@pytest.mark.parametrize("sparse", [False, True])
def test_inverse_removes_common_content(cap, a0, sparse):
    # The inverse keeps its numerators primitive over one denominator by
    # dividing out g = gcd(a0, s) at each order.  Constant terms that share
    # factors with the later sums make g neither 1 nor a0; units make a0/g
    # +-1; sparse tails leave orders where s = 0.
    rng = random.Random("content:%s:%d:%d" % (a0, cap, sparse))
    for _ in range(4 if cap == 24 else 12):
        a = [a0] + [rng.choice((-1, 1)) * rng.choice(CONTENT_TAIL)
                    for _ in range(cap)]
        if sparse:
            a = [x if i == 0 or rng.random() < 0.15 else Fraction(0)
                 for i, x in enumerate(a)]
        s = TruncatedSeries(a, cap)
        inv = s.inverse()
        assert_canonical_series(inv)
        assert list(inv.coeffs) == ref_series_inverse(a)
        assert inv * s == TruncatedSeries.one(cap)


def test_inverse_of_the_jackson_difference_factor_at_cap_48():
    # S = sum_k z^k / (k+1)_q! for the q-forward difference at q = 1/2: its
    # common denominator, the constant term of its numerators, has over a
    # thousand bits
    cap = 48
    psi = PsiSequence.jackson(Fraction(1, 2), cap + 1)
    a = [1 / psi.factorial(k + 1) for k in range(cap + 1)]
    inv = TruncatedSeries(a, cap).inverse()
    assert_canonical_series(inv)
    assert list(inv.coeffs) == ref_series_inverse(a)


def test_zero_series_are_all_the_same():
    s = TruncatedSeries([Fraction(3, 7), 0, Fraction(-1, 2 ** 31)], 2)
    zeros = [TruncatedSeries.zero(2), TruncatedSeries((0, 0), 2), s - s,
             s * 0, TruncatedSeries.one(3).differentiated(),
             TruncatedSeries.from_polynomial(Polynomial(), 2),
             TruncatedSeries([0, 0, 0, 5], 2)]
    for z in zeros:
        assert (z._num, z._den, z.cap) == ((0, 0, 0), 1, 2)
        assert z == TruncatedSeries.zero(2)


def test_series_cap_propagation():
    a = TruncatedSeries((1, 1, 1, 1), 3)
    b = TruncatedSeries((1, 2), 5)
    assert (a * b).cap == 3
    assert (a + b).cap == 3


def test_series_inverse_golden():
    # 1/(1 - z) = 1 + z + z^2 + ...
    geom = TruncatedSeries((1, -1), 6).inverse()
    assert geom.coeffs == (1, 1, 1, 1, 1, 1, 1)
    with pytest.raises(NonInvertibleError):
        TruncatedSeries((0, 1), 4).inverse()


def test_series_compose_requires_zero_constant():
    f = TruncatedSeries((1, 1), 4)
    with pytest.raises(CompositionError):
        f.compose(TruncatedSeries((1, 1), 4))


def test_reversion_golden_quadratic():
    # rev(z + z^2) = z - z^2 + 2 z^3 - 5 z^4 (Catalan signs)
    f = TruncatedSeries((0, 1, 1), 4)
    assert f.reversion().coeffs == (0, 1, -1, 2, -5)


def test_reversion_golden_exponential():
    # rev(e^z - 1) = log(1 + z)
    fact = 1
    coeffs = [Fraction(0)]
    for k in range(1, 6):
        fact *= k
        coeffs.append(Fraction(1, fact))
    rev = TruncatedSeries(coeffs, 5).reversion()
    assert rev.coeffs == (0, Fraction(1), Fraction(-1, 2), Fraction(1, 3),
                          Fraction(-1, 4), Fraction(1, 5))


@given(st.lists(rationals(), min_size=2, max_size=8))
@settings(max_examples=40)
def test_reversion_roundtrip_both_orders(coeffs):
    coeffs[0] = Fraction(0)
    if coeffs[1] == 0:
        coeffs[1] = Fraction(1)
    f = TruncatedSeries(coeffs, 7)
    g = f.reversion()
    ident = TruncatedSeries.identity(7)
    assert f.compose(g) == ident
    assert g.compose(f) == ident


@given(series(), series())
@settings(max_examples=40)
def test_series_multiplication_commutes(a, b):
    assert a * b == b * a


@given(st.lists(rationals(), min_size=1, max_size=8))
@settings(max_examples=40)
def test_inverse_roundtrip(coeffs):
    if coeffs[0] == 0:
        coeffs[0] = Fraction(1)
    f = TruncatedSeries(coeffs, 7)
    assert f * f.inverse() == TruncatedSeries.one(7)


@given(series(), st.lists(rationals(), min_size=1, max_size=6))
@settings(max_examples=40)
def test_series_division_is_the_product_with_the_inverse(a, coeffs):
    if coeffs[0] == 0:
        coeffs[0] = Fraction(1)
    b = TruncatedSeries(coeffs, 5)
    quotient = a / b
    assert quotient.cap == 5
    assert quotient == a.truncated(5) * b.inverse()
    assert quotient * b == a.truncated(5)


def test_series_division_by_a_scalar():
    a = TruncatedSeries((1, Fraction(-2, 3), 5), 4)
    assert a / 3 == TruncatedSeries((Fraction(1, 3), Fraction(-2, 9),
                                     Fraction(5, 3)), 4)
    assert a / Fraction(1, 2) == a * 2
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            a / zero
    with pytest.raises(NonInvertibleError):
        a / TruncatedSeries((0, 1), 4)


def test_series_equality_uses_common_cap():
    a = TruncatedSeries((1, 2, 3), 2)
    b = TruncatedSeries((1, 2, 3, 9), 3)
    assert a == b
    assert TruncatedSeries((1, 2, 4), 2) != b


def test_series_truncated_cannot_extend():
    s = TruncatedSeries((1, 2), 3)
    with pytest.raises(ValueError):
        s.truncated(4)


def test_series_json_roundtrip():
    s = TruncatedSeries((Fraction(1, 3), 2), 4)
    assert TruncatedSeries.from_json(s.to_json()) == s


# -- rewritten series kernels against naive references ----------------------
#
# The references are the textbook definitions, written out here so they do
# not share code with the kernels: a power by repeated products, substitution
# as the sum of c_k g^k, and reversion by the fixed-point loop that fixes one
# coefficient per substitution.

def naive_power(f, k):
    out = TruncatedSeries.one(f.cap)
    for _ in range(k):
        out = out * f
    return out


def naive_compose(f, g):
    cap = min(f.cap, g.cap)
    g = g.truncated(cap)
    out = TruncatedSeries.zero(cap)
    gk = TruncatedSeries.one(cap)
    for k in range(cap + 1):
        out = out + gk * f.coefficient(k)
        gk = gk * g
    return out


def naive_reversion(f):
    cap = f.cap
    g = [Fraction(0)] * (cap + 1)
    g[1] = 1 / f.coefficient(1)
    for n in range(2, cap + 1):
        partial = naive_compose(f, TruncatedSeries(g, cap))
        g[n] = -partial.coefficient(n) / f.coefficient(1)
    return TruncatedSeries(g, cap)


def random_series(rng, cap, constant=None, linear=None):
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(cap + 1)]
    if constant is not None:
        coeffs[0] = Fraction(constant)
    if linear is not None and cap >= 1:
        coeffs[1] = Fraction(linear)
    return TruncatedSeries(coeffs, cap)



@pytest.mark.parametrize("cap", KERNEL_CAPS)
def test_power_matches_repeated_product(cap):
    rng = random.Random(cap)
    for _ in range(3):
        f = random_series(rng, cap)
        for k in (0, 1, 2, 3, 5, 8, 13):
            assert f.power(k).coeffs == naive_power(f, k).coeffs
            assert f.power(k).cap == cap


@pytest.mark.parametrize("cap", KERNEL_CAPS)
def test_compose_matches_sum_of_powers(cap):
    rng = random.Random(100 + cap)
    for _ in range(3):
        f = random_series(rng, cap)
        g = random_series(rng, cap, constant=0)
        got = f.compose(g)
        assert got.cap == cap
        assert got.coeffs == naive_compose(f, g).coeffs


@pytest.mark.parametrize("outer_cap, inner_cap", [(9, 5), (5, 9)])
def test_compose_uses_the_smaller_cap(outer_cap, inner_cap):
    rng = random.Random(7)
    f = random_series(rng, outer_cap)
    g = random_series(rng, inner_cap, constant=0)
    assert f.compose(g).coeffs == naive_compose(f, g).coeffs
    assert f.compose(g).cap == 5


@pytest.mark.parametrize("cap", (1, 2, 24))
def test_reversion_matches_fixed_point_loop(cap):
    rng = random.Random(200 + cap)
    for linear in (1, Fraction(-2, 3)):
        f = random_series(rng, cap, constant=0, linear=linear)
        assert f.reversion().coeffs == naive_reversion(f).coeffs


def test_reversion_rejects_cap_zero():
    with pytest.raises(NonInvertibleError):
        TruncatedSeries((0,), 0).reversion()


def test_reversion_catalan_closed_form():
    # z - z^2 = w is solved by sum_(n>=1) C_(n-1) z^n, Catalan numbers C
    cap = 24
    rev = TruncatedSeries((0, 1, -1), cap).reversion()
    catalan = [comb(2 * m, m) // (m + 1) for m in range(cap)]
    assert rev.coeffs == (0,) + tuple(catalan)


def test_reversion_log_closed_form():
    # rev(e^z - 1) = log(1 + z) = sum_(n>=1) (-1)^(n+1) z^n / n
    cap = 24
    expm1 = TruncatedSeries([0] + [Fraction(1, factorial(k))
                                   for k in range(1, cap + 1)], cap)
    assert expm1.reversion().coeffs == (0,) + tuple(
        Fraction((-1) ** (n + 1), n) for n in range(1, cap + 1))


def test_reversion_self_check_raises(monkeypatch):
    wrong = TruncatedSeries((0, 1, 1), 4)
    monkeypatch.setattr(TruncatedSeries, "compose",
                        lambda self, inner: wrong)
    with pytest.raises(SelfCheckError):
        TruncatedSeries((0, 1, 1), 4).reversion()


def test_reversion_self_check_survives_optimize():
    script = (
        "import sys\n"
        "from psi_umbral.algebra import TruncatedSeries\n"
        "from psi_umbral.errors import SelfCheckError\n"
        "wrong = TruncatedSeries((0, 1, 1), 4)\n"
        "TruncatedSeries.compose = lambda self, inner: wrong\n"
        "try:\n"
        "    TruncatedSeries((0, 1, 1), 4).reversion()\n"
        "except SelfCheckError:\n"
        "    sys.exit(0 if not __debug__ else 3)\n"
        "sys.exit(4)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _c0_first(nums, den):
    """nums and den over gcd(den, c_0, c_1, ...), walked from c_0."""
    g = gcd(den, *nums)
    return [a // g for a in nums], den // g


def _reduction_cases():
    """(nums, den > 0) with zeros, negative entries, all-zero vectors, and
    the big-entry case: the q = 1/2 exponential, whose top numerator is
    coprime to its odd denominator, also scaled by a common factor."""
    yield [0], 5
    yield [0, 0, 0, 0], 12
    yield [0, 0, 0, 0], 1
    yield [6, 0, -9, 0, 0], 15
    yield [0, -4, 0, 8, 0], 12
    yield [3, 0, -6], 9
    yield [-7], 7
    psi = PsiSequence.jackson(Fraction(1, 2), 40)
    for cap in (8, 40):
        exp = TruncatedSeries([1 / psi.factorial(k) for k in range(cap + 1)],
                              cap)
        for k in (1, 3, 2 ** 61 - 1):
            yield [a * k for a in exp._num], exp._den * k
    rng = random.Random(35)
    for _ in range(300):
        g = rng.choice([1, 2, 3, 35])
        yield ([g * rng.choice([0, 0, rng.randint(-10 ** 6, 10 ** 6)])
                for _ in range(rng.randint(1, 12))],
               g * rng.choice(DENOMINATORS))


def test_lowest_terms_from_the_top_matches_the_c0_first_order():
    for nums, den in _reduction_cases():
        want, want_den = _c0_first(nums, den)
        got, got_den = _lowest_terms(list(nums), den)
        assert (list(got), got_den) == (want, want_den), (nums, den)
        # the combination kernel's final reduction, on the same sum
        while want and not want[-1]:
            want.pop()
        p = _combination([(a, Polynomial.one(), i)
                          for i, a in enumerate(nums)], den)
        assert (list(p._num), p._den) == (want, want_den if want else 1)
