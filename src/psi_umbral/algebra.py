"""Exact univariate polynomials and truncated power series over the rationals.

All coefficients are ``fractions.Fraction`` values; nothing in this module
(or anything built on it) touches floating point.  Polynomials are dense and
immutable.  Truncated series carry an explicit cap: a series with cap c knows
its coefficients up to and including degree c and nothing beyond, and every
operation propagates the smallest cap of its inputs.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CompositionError, NonInvertibleError, SelfCheckError

Scalar = Fraction

#: Degree of the zero polynomial.  A sentinel rather than a number so that
#: deg(a*b) = deg a + deg b holds even with zero factors and deg p < 0 is
#: equivalent to p == 0.  Never used in coefficient arithmetic.
NEG_INF = float("-inf")


def as_scalar(value) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and Fractions to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floating point values are not allowed in the kernel")
    return Fraction(value)


def scalar_to_str(value: Fraction) -> str:
    """Render ``p/q`` in lowest terms, or just ``p`` for integers."""
    value = as_scalar(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def scalar_from_str(text: str) -> Fraction:
    return as_scalar(str(text))


class Polynomial:
    """Dense polynomial with Fraction coefficients, constant term first."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

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
        c = as_scalar(coeff)
        if c == 0:
            return cls()
        return cls((0,) * n + (c,))

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self):
        """Degree as an int, or NEG_INF for the zero polynomial."""
        if not self._coeffs:
            return NEG_INF
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return Fraction(0)

    @property
    def constant_term(self) -> Fraction:
        return self.coefficient(0)

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._coeffs:
            return Fraction(0)
        return self._coeffs[-1]

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial(tuple(-c for c in self._coeffs))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if not self._coeffs or not other._coeffs:
                return Polynomial()
            out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        c = as_scalar(other)
        return Polynomial(tuple(a * c for a in self._coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = as_scalar(other)
        if c == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (Fraction(1) / c)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.one()
        for _ in range(k):
            out = out * self
        return out

    def __call__(self, x0) -> Fraction:
        """Evaluate by Horner's rule at an exact point."""
        x0 = as_scalar(x0)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x0 + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self._coeffs) if i > 0)
                          ) if len(self._coeffs) > 1 else Polynomial()

    def shifted(self, k: int) -> "Polynomial":
        """Multiply by x^k."""
        if not self._coeffs:
            return self
        return Polynomial((Fraction(0),) * k + self._coeffs)

    def truncated(self, deg: int) -> "Polynomial":
        return Polynomial(self._coeffs[: deg + 1])

    def min_degree(self):
        """Degree of the lowest nonzero term; NEG_INF for zero."""
        for i, c in enumerate(self._coeffs):
            if c != 0:
                return i
        return NEG_INF

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return "Polynomial(%r)" % (self._coeffs,)

    def __str__(self):
        return format_polynomial(self)

    def to_json(self):
        return [scalar_to_str(c) for c in self._coeffs]

    @classmethod
    def from_json(cls, data) -> "Polynomial":
        return cls(tuple(scalar_from_str(c) for c in data))


def format_polynomial(p: Polynomial, var: str = "x") -> str:
    """Human form with descending powers, e.g. ``x^3 - 3*x^2 + 2*x``."""
    if p.is_zero:
        return "0"
    parts = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
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


class TruncatedSeries:
    """Power series known through degree ``cap`` inclusive.

    Equality compares coefficients up to the smaller cap of the two sides,
    which is the only honest comparison two truncations support; series are
    therefore unhashable.
    """

    __slots__ = ("_coeffs", "_cap")

    def __init__(self, coeffs, cap: int):
        if cap < 0:
            raise ValueError("series cap must be >= 0")
        cs = [as_scalar(c) for c in coeffs][: cap + 1]
        cs.extend(Fraction(0) for _ in range(cap + 1 - len(cs)))
        self._coeffs = tuple(cs)
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

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def coefficient(self, i: int) -> Fraction:
        if i > self._cap:
            raise IndexError("coefficient %d beyond cap %d" % (i, self._cap))
        return self._coeffs[i]

    @property
    def constant_term(self) -> Fraction:
        return self._coeffs[0]

    def as_polynomial(self) -> Polynomial:
        return Polynomial(self._coeffs)

    def truncated(self, cap: int) -> "TruncatedSeries":
        if cap > self._cap:
            raise ValueError("cannot extend a truncated series (cap %d -> %d)"
                             % (self._cap, cap))
        return TruncatedSeries(self._coeffs, cap)

    def _common_cap(self, other) -> int:
        return min(self._cap, other._cap)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        cap = self._common_cap(other)
        return TruncatedSeries(
            tuple(self._coeffs[i] + other._coeffs[i] for i in range(cap + 1)), cap)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        cap = self._common_cap(other)
        return TruncatedSeries(
            tuple(self._coeffs[i] - other._coeffs[i] for i in range(cap + 1)), cap)

    def __neg__(self):
        return TruncatedSeries(tuple(-c for c in self._coeffs), self._cap)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            cap = self._common_cap(other)
            out = [Fraction(0)] * (cap + 1)
            for i in range(cap + 1):
                a = self._coeffs[i]
                if a == 0:
                    continue
                for j in range(cap + 1 - i):
                    b = other._coeffs[j]
                    if b != 0:
                        out[i + j] += a * b
            return TruncatedSeries(out, cap)
        c = as_scalar(other)
        return TruncatedSeries(tuple(a * c for a in self._coeffs), self._cap)

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
        if inner.constant_term != 0:
            raise CompositionError(
                "inner series must have zero constant term for substitution")
        cap = self._common_cap(inner)
        # Horner in the outer coefficients.  After step k the accumulator is
        # still to be multiplied by inner k more times, each raising the low
        # degree by at least one, so only its degrees 0..cap-k can matter.
        acc = TruncatedSeries((self._coeffs[cap],), 0)
        for k in range(cap - 1, -1, -1):
            top = cap - k
            acc = (TruncatedSeries(acc._coeffs, top) * inner
                   + TruncatedSeries((self._coeffs[k],), top))
        return acc

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        c0 = self._coeffs[0]
        if c0 == 0:
            raise NonInvertibleError(
                "series with zero constant term has no multiplicative inverse")
        out = [Fraction(0)] * (self._cap + 1)
        out[0] = Fraction(1) / c0
        for n in range(1, self._cap + 1):
            s = Fraction(0)
            for k in range(1, n + 1):
                if self._coeffs[k] != 0:
                    s += self._coeffs[k] * out[n - k]
            out[n] = -s / c0
        return TruncatedSeries(out, self._cap)

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            cap = self._common_cap(other)
            return self.truncated(cap) * other.truncated(cap).inverse()
        c = as_scalar(other)
        if c == 0:
            raise ZeroDivisionError("division of a series by zero")
        return self * (Fraction(1) / c)

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse g with self(g(z)) = z = g(self(z)).

        Requires zero constant term and an invertible linear coefficient.
        Lagrange inversion: with h = z/self, g_n = [z^(n-1)] h^n / n, read
        off a running power of h.  The result is verified internally by
        substitution.
        """
        if self._coeffs[0] != 0:
            raise NonInvertibleError("reversion needs zero constant term")
        f1 = self._coeffs[1] if self._cap >= 1 else Fraction(0)
        if f1 == 0:
            raise NonInvertibleError("reversion needs a nonzero linear coefficient")
        cap = self._cap
        h = TruncatedSeries(self._coeffs[1:], cap - 1).inverse()
        g = [Fraction(0)] * (cap + 1)
        hn = h
        for n in range(1, cap + 1):
            if n > 1:
                hn = hn * h
            g[n] = hn.coefficient(n - 1) / n
        rev = TruncatedSeries(g, cap)
        if self.compose(rev) != TruncatedSeries.identity(cap):
            raise SelfCheckError("reversion failed to verify by substitution")
        return rev

    def differentiated(self) -> "TruncatedSeries":
        """Formal derivative; the cap drops by one."""
        if self._cap == 0:
            return TruncatedSeries.zero(0)
        return TruncatedSeries(
            tuple(i * self._coeffs[i] for i in range(1, self._cap + 1)),
            self._cap - 1)

    def __eq__(self, other):
        if isinstance(other, TruncatedSeries):
            cap = self._common_cap(other)
            return self._coeffs[: cap + 1] == other._coeffs[: cap + 1]
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "TruncatedSeries(%r, cap=%d)" % (self._coeffs, self._cap)

    def to_json(self):
        return {"cap": self._cap,
                "coeffs": [scalar_to_str(c) for c in self._coeffs]}

    @classmethod
    def from_json(cls, data) -> "TruncatedSeries":
        return cls(tuple(scalar_from_str(c) for c in data["coeffs"]),
                   int(data["cap"]))
