"""Exact univariate polynomials and truncated power series over the rationals.

All coefficients are exact rationals; nothing in this module (or anything
built on it) touches floating point.  Polynomials and series are dense
and immutable, and both are one private core, ``_Numerators``: int
numerators over one positive denominator in lowest terms, with the
accessors, negation, scalar multiples and equality that read that form.
The arithmetic runs on ints, and Fractions are built only when
coefficients are read.  Every value is made by one raw constructor,
``_raw(nums, den, cap)``, or reduced to lowest terms by one reducer,
``_from_ints(nums, den, cap)``; a polynomial has cap None.  Truncated
series carry an explicit cap: a series with cap c knows its coefficients
up to and including degree c and nothing beyond, and every operation
propagates the smallest cap of its inputs.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import repeat
from math import gcd

from .errors import (CapExceededError, CompositionError, NonInvertibleError,
                     SelfCheckError)

Scalar = Fraction

#: Degree of the zero polynomial.  A sentinel rather than a number so that
#: deg(a*b) = deg a + deg b holds even with zero factors and deg p < 0 is
#: equivalent to p == 0.  Never used in coefficient arithmetic.
NEG_INF = float("-inf")


def as_scalar(value) -> Fraction:
    """Coerce ints, strings like ``"3/4"`` or ``"1.5"``, and Fractions to an
    exact rational.  Exponent notation raises ``ValueError``: ``"1e10000000"``
    would cost a ten-million-digit power of ten before any check."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floating point values are not allowed in the kernel")
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError("exponent notation is not accepted: %r" % (value,))
    return Fraction(value)


def scalar_to_str(value: Fraction) -> str:
    """Render ``p/q`` in lowest terms, or just ``p`` for integers.

    A number past the interpreter's digit limit for int-to-str conversion
    raises ``CapExceededError`` naming the limit; the limit is not changed.
    """
    value = as_scalar(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return "%d/%d" % (value.numerator, value.denominator)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise CapExceededError(
            "number too long to print: over the %d-digit limit for "
            "converting an int to a string" % limit, limit=limit) from None


def scalar_from_str(text: str) -> Fraction:
    return as_scalar(str(text))


class _Numerators:
    """A tuple of int numerators over one positive int denominator, in
    lowest terms: gcd(den, *nums) = 1.  ``_cap`` is None for a polynomial
    and the cap of a series.  ``coeffs`` and the other accessors build
    Fractions on demand.  Two values of one type and cap are equal when
    their forms are; across caps, up to the smaller cap."""

    __slots__ = ("_num", "_den")

    @property
    def coeffs(self) -> tuple:
        den = self._den
        return tuple(Fraction(a, den) for a in self._num)

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self._num[0], self._den) if self._num else Fraction(0)

    def __neg__(self):
        return _raw(tuple(-a for a in self._num), self._den, self._cap)

    def _scaled(self, other):
        """self times an exact scalar."""
        c = as_scalar(other)
        p = c.numerator
        return _from_ints([a * p for a in self._num],
                          self._den * c.denominator, self._cap)

    def _over(self, other, noun: str):
        """self divided by a nonzero exact scalar."""
        c = as_scalar(other)
        if c == 0:
            raise ZeroDivisionError("division of a %s by zero" % noun)
        return self * (Fraction(1) / c)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self._cap == other._cap:
            return self._num == other._num and self._den == other._den
        a, b = self._den, other._den
        return all(x * b == y * a for x, y in zip(self._num, other._num))


class Polynomial(_Numerators):
    """Dense polynomial with rational coefficients, constant term first.

    Stored as int numerators over one denominator with no trailing zero
    numerator, and ((), 1) for zero.  The form is unique, so equality is a
    tuple compare and a polynomial can be hashed.
    """

    __slots__ = ()
    _cap = None

    def __init__(self, coeffs=()):
        cs = [as_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        nums, self._den = _over_lcm(cs)
        self._num = tuple(nums)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, n: int, coeff=1) -> "Polynomial":
        if type(coeff) is int:
            return _raw((0,) * n + (coeff,), 1) if coeff else cls()
        c = as_scalar(coeff)
        if c == 0:
            return cls()
        return _raw((0,) * n + (c.numerator,), c.denominator)

    @property
    def degree(self):
        """Degree as an int, or NEG_INF for the zero polynomial."""
        if not self._num:
            return NEG_INF
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self._num):
            return Fraction(self._num[i], self._den)
        return Fraction(0)

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coefficient(len(self._num) - 1)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _combination(((1, self, 0), (1, other, 0)), 1)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _combination(((1, self, 0), (-1, other, 0)), 1)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            a, b = self._num, other._num
            if not a or not b:
                return Polynomial()
            return _from_ints(_product(a, b, len(a) + len(b) - 2),
                              self._den * other._den)
        return self._scaled(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._over(other, "polynomial")

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.one()
        for _ in range(k):
            out = out * self
        return out

    def __call__(self, x0) -> Fraction:
        """Evaluate by Horner's rule at an exact point p/q, on ints:
        q^deg * self(p/q) = sum a_i p^i q^(deg-i)."""
        x0 = as_scalar(x0)
        a = self._num
        if not a:
            return Fraction(0)
        p, q = x0.numerator, x0.denominator
        acc, q_pow = a[-1], 1
        for c in reversed(a[:-1]):
            q_pow *= q
            acc = acc * p + c * q_pow
        return Fraction(acc, self._den * q_pow)

    def derivative(self) -> "Polynomial":
        a = self._num
        return _from_ints([i * a[i] for i in range(1, len(a))], self._den)

    def shifted(self, k: int) -> "Polynomial":
        """Multiply by x^k."""
        if not self._num:
            return self
        return _raw((0,) * k + self._num, self._den)

    def truncated(self, deg: int) -> "Polynomial":
        return _from_ints(self._num[: deg + 1], self._den)

    def __hash__(self):
        return hash((self._num, self._den))

    def __repr__(self):
        return "Polynomial(%r)" % (self.coeffs,)

    def __str__(self):
        return format_polynomial(self)

    def to_json(self):
        return [scalar_to_str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "Polynomial":
        return cls(tuple(scalar_from_str(c) for c in data))


def _over_lcm(cs):
    """Int numerators of the Fractions cs over the lcm of their denominators:
    ``_pairs_over_lcm`` on Fractions, without building the pairs."""
    den = 1
    for c in cs:
        if den % c.denominator:
            den = den // gcd(den, c.denominator) * c.denominator
    return [c.numerator * (den // c.denominator) for c in cs], den


def _pairs_over_lcm(pairs):
    """[a (L/d)] and L for a list of int pairs (a, d), d != 0, with L > 0
    the lcm of the |d| whose a is nonzero; a zero a stays 0.  Over the lcm
    of the denominators of fractions in lowest terms the numerators share
    no factor with it, so no gcd pass is needed."""
    den = 1
    for a, d in pairs:
        if a and den % d:
            den = den // gcd(den, d) * abs(d)
    return [a * (den // d) if a else 0 for a, d in pairs], den


def _raw(nums: tuple, den: int, cap: int | None = None):
    """A Polynomial (cap None) or a series with that cap, from numerators
    and a denominator already in lowest terms."""
    if cap is None:
        v = object.__new__(Polynomial)
    else:
        v = object.__new__(TruncatedSeries)
        v._cap = cap
    v._num = nums
    v._den = den
    return v


def _from_ints(nums, den: int, cap: int | None = None):
    """sum nums[i]/den x^i for ints nums and an int den > 0, in lowest terms:
    a Polynomial without trailing zeros, or for an int cap the series of
    the cap + 1 numerators."""
    if cap is None:
        n = len(nums)
        while n and not nums[n - 1]:
            n -= 1
        if not n:
            return _raw((), 1)
        nums = nums[:n]
    nums, den = _lowest_terms(nums, den)
    return _raw(tuple(nums), den, cap)


def _combination(terms, den: int) -> Polynomial:
    """sum m * x^s * row / den over the (int m, Polynomial row, int s)
    terms, for an int den != 0: each row is read s places up, so no shifted
    copy is built.  One pass over ``terms``, which may be an iterator, drops
    zero multipliers and empty rows and takes the lcm of the denominators
    and the width of the sum; the sum is then collected in one int list of
    that width over that lcm and put in lowest terms."""
    used = []
    lcm = 1
    width = 0
    for m, row, s in terms:
        if m:
            r = row._num
            if r:
                d = row._den
                if lcm % d:
                    lcm = lcm // gcd(lcm, d) * d
                end = s + len(r)
                if end > width:
                    width = end
                used.append((m, d, r, s))
    if not width:
        return _raw((), 1)
    out = [0] * width
    signed = lcm if den > 0 else -lcm
    for m, d, r, j in used:
        m *= signed // d
        for y in r:
            if y:
                out[j] += m * y
            j += 1
    n = width
    while not out[n - 1]:
        n -= 1
        if not n:
            return _raw((), 1)
    if n < width:
        del out[n:]
    den = lcm * abs(den)
    if den != 1:
        g = gcd(den, out[-1], *out)
        if g != 1:
            return _raw(tuple([a // g for a in out]), den // g)
    return _raw(tuple(out), den)


def _linear_combination(p: Polynomial, rows) -> Polynomial:
    """sum_n p_n * rows[n]."""
    return _combination(zip(p._num, rows, repeat(0)), p._den)


def _generating_sum(polys, lam) -> Polynomial:
    """sum_n lam^n polys[n] at an exact scalar lam = a/b, as one
    combination: the ints a^n b^(N-n) over b^N for N the last index.  An
    empty list sums to zero."""
    lam = as_scalar(lam)
    a, b = lam.numerator, lam.denominator
    top = max(len(polys) - 1, 0)
    return _combination([(a ** n * b ** (top - n), p, 0)
                         for n, p in enumerate(polys)], b ** top)


def format_polynomial(p: Polynomial, var: str = "x") -> str:
    """Human form with descending powers, e.g. ``x^3 - 3*x^2 + 2*x``."""
    if p.is_zero:
        return "0"
    parts = []
    coeffs = p.coeffs
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if i == 0:
            body = scalar_to_str(mag)
        else:
            xpow = var if i == 1 else "%s^%d" % (var, i)
            body = xpow if mag == 1 else "%s*%s" % (scalar_to_str(mag), xpow)
        parts.append((sign, body))
    sign0, body0 = parts[0]
    text = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        text += " %s %s" % (sign, body)
    return text


class TruncatedSeries(_Numerators):
    """Power series known through degree ``cap`` inclusive.

    Stored like a polynomial, as exactly cap + 1 numerators (zero is all
    zeros over 1).  Equality compares coefficients up to the smaller cap
    of the two sides, which is the only honest comparison two truncations
    support; series are therefore unhashable.
    """

    __slots__ = ("_cap",)

    def __init__(self, coeffs, cap: int):
        if cap < 0:
            raise ValueError("series cap must be >= 0")
        nums, den = _over_lcm([as_scalar(c) for c in coeffs][: cap + 1])
        nums.extend([0] * (cap + 1 - len(nums)))
        self._num = tuple(nums)
        self._den = den
        self._cap = cap

    @classmethod
    def zero(cls, cap: int) -> "TruncatedSeries":
        return cls((), cap)

    @classmethod
    def one(cls, cap: int) -> "TruncatedSeries":
        return cls((1,), cap)

    @classmethod
    def identity(cls, cap: int) -> "TruncatedSeries":
        """The series z."""
        return cls((0, 1), cap)

    @classmethod
    def from_polynomial(cls, p: Polynomial, cap: int) -> "TruncatedSeries":
        return cls(p.coeffs, cap)

    @property
    def cap(self) -> int:
        return self._cap

    def coefficient(self, i: int) -> Fraction:
        if i > self._cap:
            raise IndexError("coefficient %d beyond cap %d" % (i, self._cap))
        return Fraction(self._num[i], self._den)

    def as_polynomial(self) -> Polynomial:
        return _from_ints(self._num, self._den)

    def truncated(self, cap: int) -> "TruncatedSeries":
        if cap > self._cap:
            raise ValueError("cannot extend a truncated series (cap %d -> %d)"
                             % (self._cap, cap))
        return _from_ints(self._num[: cap + 1], self._den, cap)

    def _common_cap(self, other) -> int:
        return min(self._cap, other._cap)

    def _sum(self, other, sign: int) -> "TruncatedSeries":
        cap = self._common_cap(other)
        a, b = self._den, other._den
        lcm = a // gcd(a, b) * b
        ma, mb = lcm // a, sign * (lcm // b)
        return _from_ints([x * ma + y * mb
                           for x, y in zip(self._num[: cap + 1], other._num)],
                          lcm, cap)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._sum(other, 1)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._sum(other, -1)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            cap = self._common_cap(other)
            return _from_ints(_product(self._num, other._num, cap),
                              self._den * other._den, cap)
        return self._scaled(other)

    __rmul__ = __mul__

    def power(self, k: int) -> "TruncatedSeries":
        if k < 0:
            raise ValueError("negative series power; use inverse() first")
        # Binary exponentiation: square the base, multiply in the set bits.
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return TruncatedSeries.one(self._cap) if out is None else out

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(z)); requires inner(0) = 0 so truncation is stable."""
        if not isinstance(inner, TruncatedSeries):
            raise TypeError("compose expects a TruncatedSeries")
        if inner._num[0]:
            raise CompositionError(
                "inner series must have zero constant term for substitution")
        cap = self._common_cap(inner)
        a, a_den = self._num, self._den
        g, g_den = inner._num, inner._den
        # Horner in the outer coefficients, on the numerators of an
        # accumulator over its own denominator.  After step k the
        # accumulator is still to be multiplied by inner k more times, each
        # raising the low degree by at least one, so only its degrees
        # 0..cap-k can matter.
        acc, den = [a[cap]], a_den
        for k in range(cap - 1, -1, -1):
            acc = _product(acc, g, cap - k)
            den *= g_den
            lcm = den // gcd(den, a_den) * a_den
            if lcm != den:
                m = lcm // den
                acc = [x * m for x in acc]
            acc[0] += a[k] * (lcm // a_den)
            acc, den = _lowest_terms(acc, lcm)
        return _from_ints(acc, den, cap)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a nonzero constant term.

        Fraction-free on the numerators A, with A_0 made positive by a sign
        put back at the end, and a = |A_0|.  Through order n the inverse of
        A is (c_0..c_n) / d with gcd(d, c_0, .., c_n) = 1, from c = [1] and
        d = a.  Order n adds c_n = -s / (a d), s = sum_(k>=1) A_k c_(n-k).
        The old vector is primitive, so the content of
        (a d, a c_0, .., a c_(n-1), s) is g = gcd(a, s): every c is
        multiplied by a/g, -s/g is appended and d becomes d a/g.  No entry
        carries a power of a.
        """
        a = self._num
        if a[0] == 0:
            raise NonInvertibleError(
                "series with zero constant term has no multiplicative inverse")
        sign = 1 if a[0] > 0 else -1
        a0 = sign * a[0]
        cap = self._cap
        terms = [(k, sign * a[k]) for k in range(1, cap + 1) if a[k]]
        c = [1]
        d = a0
        for n in range(1, cap + 1):
            s = 0
            for k, t in terms:
                if k > n:
                    break
                s += t * c[n - k]
            g = gcd(a0, s)
            m = a0 // g
            if m != 1:
                c = [x * m for x in c]
                d *= m
            c.append(-s // g)
        # self = sign * A / den, so its inverse is sign * den * c_n / d.
        den = sign * self._den
        return _from_ints([den * x for x in c], d, cap)

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            cap = self._common_cap(other)
            return self.truncated(cap) * other.truncated(cap).inverse()
        return self._over(other, "series")

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse g with self(g(z)) = z = g(self(z)).

        Requires zero constant term and an invertible linear coefficient.
        Lagrange inversion: with h = z/self, g_n = [z^(n-1)] h^n / n, read
        off a running power of h.  The result is verified internally by
        substitution.
        """
        if self._num[0]:
            raise NonInvertibleError("reversion needs zero constant term")
        cap = self._cap
        if cap < 1 or not self._num[1]:
            raise NonInvertibleError("reversion needs a nonzero linear coefficient")
        h = _from_ints(self._num[1:], self._den, cap - 1).inverse()
        g = [Fraction(0)] * (cap + 1)
        hn = h
        for n in range(1, cap + 1):
            if n > 1:
                hn = hn * h
            g[n] = Fraction(hn._num[n - 1], hn._den * n)
        rev = TruncatedSeries(g, cap)
        if self.compose(rev) != TruncatedSeries.identity(cap):
            raise SelfCheckError("reversion failed to verify by substitution")
        return rev

    def differentiated(self) -> "TruncatedSeries":
        """Formal derivative; the cap drops by one."""
        if self._cap == 0:
            return TruncatedSeries.zero(0)
        a = self._num
        return _from_ints([i * a[i] for i in range(1, self._cap + 1)],
                          self._den, self._cap - 1)

    def __repr__(self):
        return "TruncatedSeries(%r, cap=%d)" % (self.coeffs, self._cap)

    def to_json(self):
        return {"cap": self._cap,
                "coeffs": [scalar_to_str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data) -> "TruncatedSeries":
        return cls(tuple(scalar_from_str(c) for c in data["coeffs"]),
                   int(data["cap"]))


def _lowest_terms(nums, den: int):
    """nums and den > 0 divided by their gcd; all zeros come back over 1.

    The gcd reads the last entry first: ``gcd`` stops once its running
    value is 1, and the top entry of a big series is often coprime to den.
    """
    if den != 1:
        g = gcd(den, nums[-1], *nums)
        if g != 1:
            return [a // g for a in nums], den // g
    return nums, den


def _lowest_pair(u: int, v: int) -> tuple:
    """u/v for ints u and v != 0 as a pair in lowest terms, denominator > 0."""
    g = gcd(u, v) if v > 0 else -gcd(u, v)
    return u // g, v // g


def _product(a, b, cap: int) -> list:
    """Numerators of the product of two numerator sequences through
    degree cap, skipping zero terms; the one convolution of polynomials
    and series."""
    out = [0] * (cap + 1)
    b_terms = [(j, y) for j, y in enumerate(b[: cap + 1]) if y]
    for i, x in enumerate(a[: cap + 1]):
        if x:
            top = cap - i
            for j, y in b_terms:
                if j > top:
                    break
                out[i + j] += x * y
    return out
