"""Linear operators on polynomials, stored by their action on monomials.

A graded operator at cap c is the table of images T(x^n) for n = 0..c.
That is the whole representation: applying T to a polynomial is a linear
combination of table rows, and composing operators re-applies one table to
the rows of another.  Compositions with a degree-raising inner operator
shrink the usable cap (the outer table runs out of rows), so ``compose``
computes the largest cap on which the result is trustworthy and the result
carries that cap.

Closed-form actions (weighted derivative, weighted raising operator and
friends) are also provided directly on polynomials, with no cap at all.
A weighted shift x^n -> w_n x^(n+s) (X, D, D0, Q[q], Xpsi, Nhat, and
products and powers of them) is kept as a value, ``ShiftOperator``: its
weights as int pairs and its shift.  It builds a row only when asked,
applies itself by ``_weighted_shift``, and composes with another shift,
or with c times a power of the weighted derivative, on the weights: the
weights multiply and the shifts add, so no table is applied.  It compares
with either on the weights too.

A shift-invariant operator is a series in the weighted derivative, and
``SeriesOperator`` keeps it as one: a table that carries its series, its
weights and its cap, builds row n only when it is asked for, builds the
whole table once, and keeps it, when every row is needed, and applies
itself by correlation on Ward's scaled coordinates.  The weighted
derivative, the forward difference and the translations are such values;
``operator_from_series`` gives the plain table.
``shift_invariant_coefficients`` is the one place that decides whether a
table is a series: it reads the series off the constant terms and
compares the table with that series value up to the first difference; a
shift value is compared on its weights.  A series value in the weights
asked about is its own answer.  The check that an operator lowers degree
by exactly one lives here too; a series value settles it from rows 0 and
1, a shift by -1 from its weights.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .algebra import (NEG_INF, Polynomial, TruncatedSeries, _from_ints,
                      _linear_combination, _lowest_pair, _over_lcm,
                      _pairs_over_lcm, _raw, as_scalar)
from .errors import (CapExceededError, NonInvertibleError,
                     NotDegreeLoweringError, NotShiftInvariantError,
                     SelfCheckError)
from .psi import PsiSequence
from .special import exp_psi_series, psi_exp_scaled

# -- closed-form actions on polynomials -------------------------------


def _weighted_shift(p: Polynomial, weights, s: int) -> Polynomial:
    """sum a_n w_n x^(n+s) over the terms of p = sum a_n x^n with n + s >= 0,
    for the weights w_n as int pairs (u, v), v != 0, listed from
    n = max(0, -s); on ints over the lcm of the |v|, reduced once."""
    a = p._num[-s:] if s < 0 else p._num
    nums, den = _pairs_over_lcm([(x * u, v) for x, (u, v) in zip(a, weights)])
    return _from_ints([0] * s + nums, den * p._den)

def _raise_weights(psi: PsiSequence, n: int) -> list:
    """The weights k/k_psi of the weighted raising operator, k = 1..n: with
    k_psi = u/v that is the int pair (k v, u), not reduced."""
    return [(k * v, u) for k, (u, v) in enumerate(psi.weight_pairs(n), 1)]

def psi_derivative(psi: PsiSequence, p: Polynomial) -> Polynomial:
    """Send x^n to n_psi x^(n-1)."""
    return _weighted_shift(p, psi.weight_pairs(max(len(p._num) - 1, 0)), -1)

def psi_raise(psi: PsiSequence, p: Polynomial) -> Polynomial:
    """Send x^n to ((n+1)/(n+1)_psi) x^(n+1); partner of the weighted derivative.

    Reads the weights 1..deg p + 1, and none for a zero p.
    """
    return _weighted_shift(p, _raise_weights(psi, len(p._num)), 1)

def divided_difference(p: Polynomial) -> Polynomial:
    """Send x^n to x^(n-1), constants to zero: (p(x) - p(0))/x."""
    return _from_ints(p._num[1:], p._den)

def weight_multiplier(psi: PsiSequence, p: Polynomial) -> Polynomial:
    """Diagonal action x^m -> (m+1)_psi x^m.

    Composed with the divided difference it reproduces the weighted
    derivative, which is the factorization the Leibniz rules exploit.
    """
    return _weighted_shift(p, psi.weight_pairs(len(p._num)), 0)

def apply_psi_series(coeffs, psi: PsiSequence, p: Polynomial) -> Polynomial:
    """Apply sum_k c_k * (psi-derivative)^k to p; finite because p is.

    ``coeffs`` is a TruncatedSeries or a sequence of scalars.  With
    p = sum_n a_n x^n the image has sum_k c_k a_(m+k) (m+k)_psi!/m_psi! at
    x^m: sum_k c_k u_(m+k) / m_psi! for u_n = a_n n_psi!.  So p is scaled
    up by the weights' cofactors M n_psi!, from its lowest term up, the
    series is ``_correlate``d with those coordinates, and the sums are
    scaled down by L/m_psi!, over M L.  Reads the weights 1..deg p, and
    none for a zero p or an empty series.
    """
    c, c_den = _series_numerators(coeffs)
    a = p._num
    if not c or not a:
        return Polynomial()
    low = next(n for n, x in enumerate(a) if x)
    m_den, up = psi.cofactors(len(a) - 1, 1, low)
    l_den, down = psi.cofactors(len(a) - 1)
    return _scaled_down(_correlate(c, _scaled_up(a, up, low)), down,
                        l_den * m_den * c_den * p._den)


# On the scaled coordinates u_n = a_n n_psi! of p = sum a_n x^n (Ward's
# basis x^n/n_psi!), a series in the weighted derivative is a plain
# correlation and the weighted raising operator a shift by one with the
# factor n + 1: neither reads a weight.  The weights enter only when p is
# scaled up by the cofactor row M n_psi! and back down by L/n_psi!.

def _scaled_up(a, up, low: int = 0) -> list:
    """The numerators a of a polynomial times the cofactor row ``up`` of
    M n_psi!, n = low.., zero below low."""
    return [0] * low + [x * w for x, w in zip(a[low:], up)]

def _correlate(c, u) -> list:
    """v_m = sum_k c_k u_(m+k), m < len(u): the series with numerators c
    in the weighted derivative, on scaled coordinates."""
    terms = [(k, y) for k, y in enumerate(c[: len(u)]) if y]
    sums = [0] * len(u)
    for n, x in enumerate(u):
        if x:
            for k, y in terms:
                if k > n:
                    break
                sums[n - k] += y * x
    return sums

def _scaled_raise(v, m: int) -> list:
    """m times the weighted raising operator on scaled coordinates:
    v_n goes to m (n + 1) v_n one place up."""
    return [0] + [m * n * x for n, x in enumerate(v, 1)]

def _scaled_down(v, down, den: int) -> Polynomial:
    """sum_m v_m (L/m_psi!) x^m / den for the cofactor row ``down`` of
    L/m_psi!, m = 0..: the scaled coordinates v_m / D back on monomials,
    for den = D L, reduced once."""
    return _from_ints([x * w if x else 0 for x, w in zip(v, down)], den)


def _series_numerators(coeffs):
    """(numerators, denominator) of a TruncatedSeries, or of a sequence of
    scalars over the lcm of their denominators."""
    if isinstance(coeffs, TruncatedSeries):
        return coeffs._num, coeffs._den
    return _over_lcm([as_scalar(c) for c in coeffs])


# -- the graded table ---------------------------------------------------


class GradedOperator:
    """Images of x^0..x^cap under a linear operator."""

    __slots__ = ("_images", "_cap")

    def __init__(self, images, cap: int | None = None):
        images = tuple(images)
        if cap is None:
            cap = len(images) - 1
        if cap < 0 or cap != len(images) - 1:
            raise ValueError("cap must match the image table length")
        self._images = images
        self._cap = cap

    @classmethod
    def from_monomial_rule(cls, rule, cap: int) -> "GradedOperator":
        return cls(tuple(rule(n) for n in range(cap + 1)), cap)

    @classmethod
    def identity(cls, cap: int) -> "ShiftOperator":
        return ShiftOperator([(1, 1)] * (cap + 1), 0, cap)

    @classmethod
    def zero(cls, cap: int) -> "ShiftOperator":
        return ShiftOperator([(0, 1)] * (cap + 1), 0, cap)

    @classmethod
    def scalar(cls, c, cap: int) -> "ShiftOperator":
        c = as_scalar(c)
        return ShiftOperator([(c.numerator, c.denominator)] * (cap + 1), 0,
                             cap)

    @property
    def cap(self) -> int:
        return self._cap

    @property
    def images(self) -> tuple:
        if self._images is None:
            # a value that builds rows on demand keeps them once all are built
            self._images = tuple(map(self._row, range(self._cap + 1)))
        return self._images

    def image(self, n: int) -> Polynomial:
        if n > self._cap:
            raise CapExceededError(
                "operator table stops at degree %d, image of x^%d requested"
                % (self._cap, n), cap=self._cap, requested=n)
        return self._row(n)

    def _row(self, n: int) -> Polynomial:
        return self._images[n]

    @property
    def shift_bound(self):
        """Max degree growth over the table; NEG_INF if the operator is zero."""
        best = NEG_INF
        for n, img in enumerate(self.images):
            d = img.degree
            if d is not NEG_INF and d - n > best:
                best = d - n
        return best

    @property
    def is_zero(self) -> bool:
        return all(img.is_zero for img in self.images)

    def _fits(self, p: Polynomial):
        if p.degree is not NEG_INF and p.degree > self._cap:
            raise CapExceededError(
                "polynomial degree %d exceeds operator cap %d"
                % (p.degree, self._cap), cap=self._cap)

    def apply(self, p: Polynomial) -> Polynomial:
        self._fits(p)
        return _linear_combination(p, self.images)

    __call__ = apply

    def compose(self, inner: "GradedOperator") -> "GradedOperator":
        """self after inner, on the largest cap where self's table suffices:
        inner's rows up to the first nonzero one of degree past self's cap.

        When inner is a weighted shift x^n -> w_n x^(n+s), row n is w_n
        times self's row n + s, and when self is one too, the one term
        w_n w'_(n+s) x^(n+s+s'); otherwise self is applied to inner's rows.
        """
        form = _shift_form(inner)
        if form is None:
            rows = inner.images
            degrees = (row.degree for row in rows)
        else:
            w, s = form
            degrees = (n + s if u else NEG_INF for n, (u, _) in enumerate(w))
        eff = -1
        for d in degrees:
            if d is not NEG_INF and d > self._cap:
                break
            eff += 1
        if eff < 0:
            raise CapExceededError(
                "composition has no usable cap (outer table too short)",
                outer_cap=self._cap, inner_cap=inner.cap)
        if form is None:
            return GradedOperator(
                tuple(self.apply(rows[n]) for n in range(eff + 1)), eff)
        w = w[: eff + 1]
        outer = _shift_form(self)
        if outer is None:
            out = [_raw((), 1)] * (eff + 1)
            for n, (u, v) in enumerate(w):
                if u:
                    row = self._row(n + s)
                    out[n] = _from_ints([a * u for a in row._num], row._den * v)
            return GradedOperator(out, eff)
        x_w, t = outer
        pairs = []
        for n, (u, v) in enumerate(w):
            if u:
                x, y = x_w[n + s]
                g, h = gcd(u, y), gcd(x, v)
                u, v = u // g * (x // h), v // h * (y // g)
            pairs.append((u, v))
        return ShiftOperator(pairs, s + t, eff)

    def __add__(self, other):
        if not isinstance(other, GradedOperator):
            return NotImplemented
        cap = min(self._cap, other._cap)
        a, b = self.images, other.images
        return GradedOperator(tuple(a[n] + b[n] for n in range(cap + 1)), cap)

    def __sub__(self, other):
        if not isinstance(other, GradedOperator):
            return NotImplemented
        cap = min(self._cap, other._cap)
        a, b = self.images, other.images
        return GradedOperator(tuple(a[n] - b[n] for n in range(cap + 1)), cap)

    def __neg__(self):
        return self._scaled(as_scalar(-1))

    def __mul__(self, other):
        if isinstance(other, GradedOperator):
            return self.compose(other)
        return self._scaled(as_scalar(other))

    def __rmul__(self, other):
        # Python tries a subclass's reflected method before a table's own
        # __mul__: table * value must stay the table's composition.
        if isinstance(other, GradedOperator):
            return NotImplemented
        return self * other

    def _scaled(self, c) -> "GradedOperator":
        return GradedOperator(tuple(c * img for img in self.images), self._cap)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative operator power")
        if self.shift_bound > 0:
            # Each factor of a raising base shrinks the cap: one at a time.
            out = GradedOperator.identity(self._cap)
            for _ in range(k):
                out = out.compose(self)
            return out
        # A base that never raises degree keeps the cap, so binary powering
        # gives the same table, and a zero power stays zero from there on.
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out.compose(base)
                if out.is_zero:
                    return out
            k >>= 1
            if k:
                base = base.compose(base)
                if base.is_zero:
                    return base
        return GradedOperator.identity(self._cap) if out is None else out

    def commutator(self, other: "GradedOperator") -> "GradedOperator":
        return self.compose(other) - other.compose(self)

    def truncated(self, cap: int) -> "GradedOperator":
        if cap > self._cap:
            raise CapExceededError("cannot extend an operator table",
                                   cap=self._cap, requested=cap)
        return GradedOperator(self.images[: cap + 1], cap)

    def __eq__(self, other):
        if isinstance(other, GradedOperator):
            cap = min(self._cap, other._cap)
            return self.images[: cap + 1] == other.images[: cap + 1]
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "%s(cap=%d)" % (type(self).__name__, self._cap)


# -- named operator tables ---------------------------------------------


def derivative_op(cap: int) -> "ShiftOperator":
    return ShiftOperator([(n, 1) for n in range(cap + 1)], -1, cap)

def multiply_x_op(cap: int) -> "ShiftOperator":
    return ShiftOperator([(1, 1)] * (cap + 1), 1, cap)

def dilation_op(q, cap: int) -> "ShiftOperator":
    """x^n -> q^n x^n; with q = a/b in lowest terms, a^n/b^n is too."""
    q = as_scalar(q)
    a, b = q.numerator, q.denominator
    return ShiftOperator([(a ** n, b ** n) for n in range(cap + 1)], 0, cap)

def divided_difference_op(cap: int) -> "ShiftOperator":
    return ShiftOperator([(0, 1)] + [(1, 1)] * cap, -1, cap)

def jackson_derivative_op(q, cap: int) -> "SeriesOperator":
    return psi_derivative_op(PsiSequence.jackson(q, cap), cap)

def psi_derivative_op(psi: PsiSequence, cap: int) -> "SeriesOperator":
    return SeriesOperator(TruncatedSeries.identity(cap), psi)

def psi_raise_op(psi: PsiSequence, cap: int) -> "ShiftOperator":
    """x^n -> ((n+1)/(n+1)_psi) x^(n+1); reads the weights 1..cap + 1."""
    return ShiftOperator(
        [_lowest_pair(*w) for w in _raise_weights(psi, cap + 1)], 1, cap)

def weight_op(psi: PsiSequence, cap: int) -> "ShiftOperator":
    """x^n -> (n+1)_psi x^n, read off the weight pairs 1..cap + 1."""
    return ShiftOperator(psi.weight_pairs(cap + 1), 0, cap)

def translation_op(psi: PsiSequence, y, cap: int) -> "SeriesOperator":
    """The generalized shift exp_psi(y * psi-derivative).

    Sends x^n to sum_k binom_psi(n, k) y^k x^(n-k).
    """
    return SeriesOperator(psi_exp_scaled(psi, y, cap), psi)

def forward_difference_op(psi: PsiSequence, cap: int) -> "SeriesOperator":
    """Unit translation minus the identity: the series exp_psi(z) - 1."""
    return SeriesOperator(exp_psi_series(psi, cap) - TruncatedSeries.one(cap), psi)

def operator_from_series(coeffs, psi: PsiSequence, cap: int) -> GradedOperator:
    """Materialize sum_k c_k * (psi-derivative)^k as a plain graded table.

    ``coeffs`` is a TruncatedSeries or a sequence of scalars.
    """
    return GradedOperator.from_monomial_rule(_series_rule(coeffs, psi, cap), cap)

def _series_rule(coeffs, psi: PsiSequence, cap: int):
    """The rule n -> image of x^n under sum_k c_k * (psi-derivative)^k.

    Row n holds c_(n-j) n_psi!/j_psi! at x^j, for n - j <= K, the index
    of the last nonzero c_k: with the cofactor row down[j] = L/j_psi!,
    j = n - K.., of ``psi.cofactors`` that is sum_j c_(n-j) down[j] x^j
    over c_den down[n], put in lowest terms once, with the sign of
    down[n], the sign of n_psi!, moved onto the numerators.  The weights
    are read when the rule is made, not when it runs, so a weight sequence
    too short for the cap fails here.
    """
    cs, c_den = _series_numerators(coeffs)
    top = len(cs) - 1
    while top > 0 and not cs[top]:
        top -= 1
    if top < 1:
        # a constant, or no term at all, reads no weights
        return lambda n: _from_ints([0] * n + list(cs[:1]), c_den)
    psi.factorial_pairs(cap)

    def rule(n):
        low = max(n - top, 0)
        _, down = psi.cofactors(n, 0, low)
        nums = [0] * low + list(map(mul, cs[n - low::-1], down))
        if down[-1] < 0:
            nums = [-x for x in nums]
        return _from_ints(nums, c_den * abs(down[-1]))

    return rule


class SeriesOperator(GradedOperator):
    """sum_k c_k * (psi-derivative)^k on x^0..x^cap, kept as its series.

    ``series`` is the TruncatedSeries of the c_k at the operator's cap and
    ``psi`` the weights object it is a series in.  The weights are read
    when the value is built, as ``operator_from_series`` reads them.  Row n
    is built when ``image(n)`` first asks for it; the whole table is built
    once, and kept, when ``images`` (and so ``compose`` with an inner that
    is no weighted shift) needs every row.  ``apply`` builds no row: it is
    ``apply_psi_series``, a correlation on the scaled coordinates.  Sums,
    differences, negation, scalar multiples, products and powers of series
    values with the same weights object and cap are series values again,
    and so is a truncation; a product with a weighted shift is a shift
    when the series is c z^k, and any other mix is a plain table.  Two
    series values in one weights object compare by their series at the
    common cap, a value c z^k and a shift on their weights, other
    operands by rows.  ``_derived`` keeps what is derived from the value
    (the expansion's tables of it, a delta operator's reverted indicator),
    built once per value.
    """

    __slots__ = ("series", "psi", "_rule", "_rows", "_derived")

    def __init__(self, series: TruncatedSeries, psi: PsiSequence):
        self.series = series
        self.psi = psi
        self._cap = series.cap
        self._rule = _series_rule(series, psi, series.cap)
        self._rows = {}
        self._images = None
        self._derived = {}

    def _row(self, n: int) -> Polynomial:
        row = self._rows.get(n)
        if row is None:
            row = self._rows[n] = self._rule(n)
        return row

    def _partner(self, other) -> bool:
        """Is other a series value in the same weights object at the same cap?"""
        return (isinstance(other, SeriesOperator) and other.psi is self.psi
                and other._cap == self._cap)

    def apply(self, p: Polynomial) -> Polynomial:
        self._fits(p)
        return apply_psi_series(self.series, self.psi, p)

    __call__ = apply

    def compose(self, inner: GradedOperator) -> GradedOperator:
        if self._partner(inner):
            return SeriesOperator(self.series * inner.series, self.psi)
        return super().compose(inner)

    def __add__(self, other):
        if self._partner(other):
            return SeriesOperator(self.series + other.series, self.psi)
        return super().__add__(other)

    def __sub__(self, other):
        if self._partner(other):
            return SeriesOperator(self.series - other.series, self.psi)
        return super().__sub__(other)

    def _scaled(self, c) -> "SeriesOperator":
        return SeriesOperator(self.series * c, self.psi)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative operator power")
        return SeriesOperator(self.series.power(k), self.psi)

    def truncated(self, cap: int) -> GradedOperator:
        if 0 <= cap <= self._cap:
            return SeriesOperator(self.series.truncated(cap), self.psi)
        return super().truncated(cap)

    def __eq__(self, other):
        # Row n leads with c_n n_psi! at x^0, so the rows agree exactly
        # where the series do.
        if isinstance(other, SeriesOperator) and other.psi is self.psi:
            return self.series == other.series
        if isinstance(other, ShiftOperator):
            return other == self
        return super().__eq__(other)


def _derived(base: GradedOperator, key, build):
    """``build()``, kept on a series value under ``key`` so that it runs
    once per value; a plain table keeps nothing."""
    memo = base._derived if isinstance(base, SeriesOperator) else {}
    if key not in memo:
        memo[key] = build()
    return memo[key]


class ShiftOperator(GradedOperator):
    """The weighted shift x^n -> w_n x^(n+s) on x^0..x^cap, kept as weights.

    ``weights`` holds the w_n, n = 0..cap, as int pairs (u, v) in lowest
    terms with v > 0, a zero weight as (0, 1), and ``shift`` is s.  Row n is
    built when ``image(n)`` asks for it, and the whole table once, and kept,
    when ``images`` is read.  ``apply`` is ``_weighted_shift``.  A scalar
    multiple, the negation and a truncation are shifts again, and so is the
    composition of two shifts, on their weights.  A shift compares with a
    shift, or with a series value c z^k, on the weights at the common cap,
    with no row built.
    """

    __slots__ = ("weights", "shift")

    def __init__(self, weights, shift: int, cap: int):
        self.weights = weights
        self.shift = shift
        self._cap = cap
        self._images = None

    def _row(self, n: int) -> Polynomial:
        u, v = self.weights[n]
        return _raw((0,) * (n + self.shift) + (u,), v) if u else _raw((), 1)

    @property
    def shift_bound(self):
        return NEG_INF if self.is_zero else self.shift

    @property
    def is_zero(self) -> bool:
        return not any(u for u, _ in self.weights)

    def apply(self, p: Polynomial) -> Polynomial:
        self._fits(p)
        s = self.shift
        return _weighted_shift(p, self.weights[max(0, -s): len(p._num)], s)

    __call__ = apply

    def _scaled(self, c) -> "ShiftOperator":
        a, b = c.numerator, c.denominator
        return ShiftOperator([_lowest_pair(u * a, v * b)
                              for u, v in self.weights], self.shift, self._cap)

    def truncated(self, cap: int) -> GradedOperator:
        if 0 <= cap <= self._cap:
            return ShiftOperator(self.weights[: cap + 1], self.shift, cap)
        return super().truncated(cap)

    def __eq__(self, other):
        # Row n is w_n x^(n+s): two shifts' rows agree where both weights
        # are zero, or where the weights and the shifts are equal.  A
        # series value c z^k is compared as the shift it is.
        form = _shift_form(other)
        if form is not None and all(
                (u, v) == (x, y) and self.shift == form[1] or not (u or x)
                for (u, v), (x, y) in zip(self.weights, form[0])):
            return True
        return super().__eq__(other)


def _shift_form(op: GradedOperator):
    """(w, s) for a shift value, or a series value c z^k, which sends each
    x^n to w_n x^(n+s), with the w_n as int pairs (u, v), v > 0, in lowest
    terms; None for any other operator.  A series value's form is read off
    the weights, with no row built, and kept on the value."""
    if isinstance(op, ShiftOperator):
        return op.weights, op.shift
    if isinstance(op, SeriesOperator):
        return _derived(op, "shift form", lambda: _series_shift_form(op))
    return None

def _series_shift_form(op: "SeriesOperator"):
    """``_shift_form`` of a series value: row n of c z^k is
    c n_psi!/(n-k)_psi! x^(n-k), zero for n < k."""
    c, b = op.series._num, op.series._den
    terms = [k for k, a in enumerate(c) if a]
    if len(terms) > 1:
        return None
    k = terms[0] if terms else 0
    if not k:
        # a constant, zero included, reads no weights
        return [(c[0], b)] * (op.cap + 1), 0
    fact = op.psi.factorial_pairs(op.cap)
    w = [(0, 1)] * k
    for (f, g), (f0, g0) in zip(fact[k:], fact):
        w.append(_lowest_pair(c[k] * f * g0, b * g * f0))
    return w, -k


# -- degree lowering, shift invariance and inversion --------------------


def _require_lowers_by_one(op: GradedOperator, n_max: int, prefix: str):
    """op kills constants and sends x^n to degree exactly n - 1, n <= n_max.

    ``prefix`` ("" or "base ") leads each message, naming which operator
    failed.  A series value is decided by rows 0 and 1, that is by c_0 = 0
    and c_1 != 0: row n then leads with c_1 n_psi x^(n-1).  A shift by -1
    is decided by its first zero weight, with no row built past it.
    """
    rows = range(1, n_max + 1)
    if isinstance(op, SeriesOperator):
        rows = rows[:1]
    elif isinstance(op, ShiftOperator) and op.shift == -1:
        # row n is w_n x^(n-1): only a zero weight or a row past the cap fails
        rows = [n for n in rows if n > op.cap or not op.weights[n][0]][:1]
    if not op.image(0).is_zero:
        raise NotDegreeLoweringError("%soperator does not kill constants" % prefix)
    for n in rows:
        img = op.image(n)
        if img.is_zero:
            raise NotDegreeLoweringError(
                "%simage of x^%d is zero, expected degree %d"
                % (prefix, n, n - 1), n=n)
        if img.degree != n - 1:
            raise NotDegreeLoweringError(
                "%simage of x^%d has degree %d, expected %d"
                % (prefix, n, img.degree, n - 1), n=n)

def _series_and_witness(op: GradedOperator, psi: PsiSequence):
    """The readout c_k = op(x^k)(0) / k_psi! and the first (n, k) where op
    differs from sum_k c_k (psi-derivative)^k, or None.

    With op(x^k)(0) = a/d and k_psi! = f/g in lowest terms the readout is
    (a g)/(d f) once gcd(a, f) and gcd(g, d) are divided out, collected on
    ints over the lcm of those denominators.  Rows are scanned in order
    and each row from its highest degree down to 0; (n, k) names the
    coefficient of x^(n-k) in the image of x^n.  An image past the cap is a
    difference.  A shift value is compared on its weights, with no row built.
    A series value in psi itself is its own series, with no readout and no
    comparison.
    """
    if isinstance(op, SeriesOperator) and op.psi is psi:
        return op.series, None
    fact = psi.factorial_pairs(op.cap)
    shift = isinstance(op, ShiftOperator)
    if shift:
        constants = [w if n + op.shift == 0 else (0, 1)
                     for n, w in enumerate(op.weights)]
    else:
        constants = [(row._num[0] if row._num else 0, row._den)
                     for row in op.images]
    parts = []
    for (f, g), (a, d) in zip(fact, constants):
        e = gcd(a, d)
        a, d = a // e, d // e
        x, y = gcd(a, f), gcd(g, d)
        parts.append((a // x * (g // y), d // y * (f // x)))
    nums, den = _pairs_over_lcm(parts)
    c = _raw(tuple(nums), den, op.cap)
    if shift:
        return c, _shift_witness(op, c, fact)
    model = map(SeriesOperator(c, psi).image, range(op.cap + 1))
    for n, (img, want) in enumerate(zip(op.images, model)):
        if img != want:
            # a row in a non-canonical form can differ in no coefficient
            i = max(img.degree, want.degree)
            while i > 0 and img.coefficient(i) == want.coefficient(i):
                i -= 1
            return c, (n, n - i)
    return c, None

def _shift_witness(op: ShiftOperator, c: TruncatedSeries, fact):
    """The first (n, k) where the shift x^n -> w_n x^(n+s) differs from the
    series c, or None.  Its readout is at most the one term c_k z^k, k = -s,
    so row n of the series is c_k n_psi!/(n-k)_psi! x^(n-k), zero for n < k:
    both rows are one term at x^(n+s), and w_n = u/v is compared with it by
    cross-multiplying the factorial pairs ``fact``."""
    k = -op.shift
    a = c._num[k] if 0 <= k <= op.cap else 0
    b = c._den
    for n, (u, v) in enumerate(op.weights):
        if a and n >= k:
            (f, g), (f0, g0) = fact[n], fact[n - k]
            if u * b * g * f0 != v * a * f * g0:
                return n, k
        elif u:
            return n, k
    return None

def shift_invariant_coefficients(op: GradedOperator,
                                 psi: PsiSequence) -> TruncatedSeries:
    """Coefficients c_k with op = sum_k c_k (psi-derivative)^k.

    The one shift-invariance gate: c_k is the constant term of op(x^k)
    divided by k_psi!, and op commutes with the weighted derivative exactly
    when it equals the series rebuilt from c on x^0..x^cap.  Raises
    ``NotShiftInvariantError`` with the first differing (n, k) otherwise.
    A series value passed with its own weights object returns its series;
    with any other weights it goes through the gate like a table.
    """
    c, witness = _series_and_witness(op, psi)
    if witness is not None:
        raise NotShiftInvariantError(
            "operator does not commute with the weighted derivative",
            n=witness[0], k=witness[1])
    return c

def invert_shift_invariant(op: GradedOperator, psi: PsiSequence) -> "SeriesOperator":
    """Two-sided inverse of an invertible shift-invariant operator.

    Requires op(1) != 0; the inverse is the reciprocal series in the
    weighted derivative, a series value at op's cap.  Once the gate has
    matched op with its series, composing op with the inverse is the
    series product, so the check is that product against 1.
    """
    series = shift_invariant_coefficients(op, psi)
    if series.constant_term == 0:
        raise NonInvertibleError("operator kills constants; not invertible")
    inv = series.inverse()
    if series * inv != TruncatedSeries.one(series.cap):
        raise SelfCheckError("inversion failed to verify by the series product")
    return SeriesOperator(inv, psi)

def pincherle_derivative(op: GradedOperator, psi: PsiSequence) -> GradedOperator:
    """Commutator of op with the weighted raising operator."""
    s = op.shift_bound
    extra = int(s) + 1 if s is not NEG_INF and s > 0 else 1
    xr = psi_raise_op(psi, op.cap + extra)
    return op.commutator(xr)
