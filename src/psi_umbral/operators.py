"""Linear operators on polynomials, stored by their action on monomials.

A graded operator at cap c is the table of images T(x^n) for n = 0..c.
That is the whole representation: applying T to a polynomial is a linear
combination of table rows, and composing operators re-applies one table to
the rows of another.  Compositions with a degree-raising inner operator
shrink the usable cap (the outer table runs out of rows), so ``compose``
computes the largest cap on which the result is trustworthy and the result
carries that cap.  A weighted shift x^n -> w_n x^(n+s) (X, D, D0, Q[q],
Xpsi, Nhat, and c times a power of the weighted derivative) composes on
its weights instead: the weights multiply and the shifts add, so no table
is applied.

Closed-form actions (weighted derivative, weighted raising operator and
friends) are also provided directly on polynomials, with no cap at all;
the operator tables are built from the same formulas.

A shift-invariant operator is a series in the weighted derivative, and
``SeriesOperator`` keeps it as one: a table that carries its series, its
weights and its cap, builds row n only when it is asked for, and builds
the whole table once, and keeps it, when every row is needed.  The
weighted derivative, the forward difference and the translations are
such values; ``operator_from_series`` gives the plain table.
``shift_invariant_coefficients`` is the one place that decides whether a
table is a series: it reads the series off the constant terms and
compares the table with that series value up to the first difference.
A series value in the weights asked about is its own answer.  The check
that an operator lowers degree by exactly one lives here too; a series
value settles it from rows 0 and 1.
"""

from __future__ import annotations

from math import gcd

from .algebra import (NEG_INF, Polynomial, TruncatedSeries, _from_ints,
                      _linear_combination, _lowest_pair, _over_lcm,
                      _pairs_over_lcm, _raw, _raw_series, as_scalar)
from .errors import (CapExceededError, NonInvertibleError,
                     NotDegreeLoweringError, NotShiftInvariantError,
                     SelfCheckError)
from .psi import PsiSequence
from .special import exp_psi_series, psi_exp_scaled

# -- closed-form actions on polynomials -------------------------------


def _scaled(nums, weights, den: int) -> Polynomial:
    """sum nums[i] * weights[i] / den x^i for ints nums and weights as int
    pairs (u, v), v > 0, on ints over the lcm of the v."""
    s, s_den = _pairs_over_lcm([(a * u, v)
                                for a, (u, v) in zip(nums, weights)])
    return _from_ints(s, den * s_den)

def psi_derivative(psi: PsiSequence, p: Polynomial) -> Polynomial:
    """Send x^n to n_psi x^(n-1)."""
    a = p._num[1:]
    return _scaled(a, psi.weight_pairs(len(a)), p._den)

def psi_raise(psi: PsiSequence, p: Polynomial) -> Polynomial:
    """Send x^n to ((n+1)/(n+1)_psi) x^(n+1); partner of the weighted derivative.

    With (n+1)_psi = u/v that is (n+1) v/u, collected on ints over the lcm
    of the |u|.  Reads the weights 1..deg p + 1, and none for a zero p.
    """
    a = p._num
    nums, den = _pairs_over_lcm([(x * n * v, u) for n, (x, (u, v)) in
                                 enumerate(zip(a, psi.weight_pairs(len(a))), 1)])
    return _from_ints([0] + nums, den * p._den)

def divided_difference(p: Polynomial) -> Polynomial:
    """Send x^n to x^(n-1), constants to zero: (p(x) - p(0))/x."""
    return _from_ints(p._num[1:], p._den)

def weight_multiplier(psi: PsiSequence, p: Polynomial) -> Polynomial:
    """Diagonal action x^m -> (m+1)_psi x^m.

    Composed with the divided difference it reproduces the weighted
    derivative, which is the factorization the Leibniz rules exploit.
    """
    a = p._num
    return _scaled(a, psi.weight_pairs(len(a)), p._den)

def apply_psi_series(coeffs, psi: PsiSequence, p: Polynomial) -> Polynomial:
    """Apply sum_k c_k * (psi-derivative)^k to p; finite because p is.

    ``coeffs`` is a TruncatedSeries or a sequence of scalars.  With
    p = sum_n a_n x^n the image has sum_k c_k a_(m+k) (m+k)_psi!/m_psi! at
    x^m: sum_k c_k u_(m+k) / m_psi! for u_n = a_n n_psi!, collected on ints
    by the weights' cofactors, M n_psi! from the lowest term of p up and
    L/m_psi!, over M L.  Reads the weights 1..deg p, and none for a zero p
    or an empty series.
    """
    c, c_den = _series_numerators(coeffs)
    a = p._num
    if not c or not a:
        return Polynomial()
    low = next(n for n, x in enumerate(a) if x)
    m_den, up = psi.cofactors(len(a) - 1, 1, low)
    l_den, down = psi.cofactors(len(a) - 1)
    terms = [(k, y) for k, y in enumerate(c[: len(a)]) if y]
    sums = [0] * len(a)
    for n, (x, w) in enumerate(zip(a[low:], up), low):
        if x:
            u = x * w
            for k, y in terms:
                if k > n:
                    break
                sums[n - k] += y * u
    return _from_ints([s * w if s else 0 for s, w in zip(sums, down)],
                      l_den * m_den * c_den * p._den)


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
    def identity(cls, cap: int) -> "GradedOperator":
        return cls.from_monomial_rule(lambda n: Polynomial.monomial(n), cap)

    @classmethod
    def zero(cls, cap: int) -> "GradedOperator":
        return cls.from_monomial_rule(lambda n: Polynomial.zero(), cap)

    @classmethod
    def scalar(cls, c, cap: int) -> "GradedOperator":
        c = as_scalar(c)
        return cls.from_monomial_rule(lambda n: Polynomial.monomial(n, c), cap)

    @property
    def cap(self) -> int:
        return self._cap

    @property
    def images(self) -> tuple:
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

    def apply(self, p: Polynomial) -> Polynomial:
        if p.degree is not NEG_INF and p.degree > self._cap:
            raise CapExceededError(
                "polynomial degree %d exceeds operator cap %d"
                % (p.degree, self._cap), cap=self._cap)
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
        outer = _shift_form(self)
        out = []
        for n, (u, v) in enumerate(w[: eff + 1]):
            if u and outer is not None:
                x, y = outer[0][n + s]
                g, h = gcd(u, y), gcd(x, v)
                u, v = u // g * (x // h), v // h * (y // g)
            if not u:
                out.append(_raw((), 1))
            elif outer is None:
                row = self._row(n + s)
                out.append(_from_ints([a * u for a in row._num], row._den * v))
            else:
                out.append(_raw((0,) * (n + s + outer[1]) + (u,), v))
        return GradedOperator(out, eff)

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
        return GradedOperator(tuple(-img for img in self.images), self._cap)

    def __mul__(self, other):
        if isinstance(other, GradedOperator):
            return self.compose(other)
        c = as_scalar(other)
        return GradedOperator(tuple(c * img for img in self.images), self._cap)

    __rmul__ = __mul__

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


def derivative_op(cap: int) -> GradedOperator:
    return GradedOperator.from_monomial_rule(
        lambda n: Polynomial.monomial(n - 1, n) if n else Polynomial(), cap)

def multiply_x_op(cap: int) -> GradedOperator:
    return GradedOperator.from_monomial_rule(
        lambda n: Polynomial.monomial(n + 1), cap)

def dilation_op(q, cap: int) -> GradedOperator:
    """x^n -> q^n x^n; with q = a/b in lowest terms, a^n/b^n is too."""
    q = as_scalar(q)
    a, b = q.numerator, q.denominator
    return GradedOperator.from_monomial_rule(
        lambda n: _raw((0,) * n + (a ** n,), b ** n) if a or not n
        else _raw((), 1), cap)

def divided_difference_op(cap: int) -> GradedOperator:
    return GradedOperator.from_monomial_rule(
        lambda n: Polynomial.monomial(n - 1) if n else Polynomial(), cap)

def jackson_derivative_op(q, cap: int) -> "SeriesOperator":
    return psi_derivative_op(PsiSequence.jackson(q, cap), cap)

def psi_derivative_op(psi: PsiSequence, cap: int) -> "SeriesOperator":
    return SeriesOperator(TruncatedSeries.identity(cap), psi)

def psi_raise_op(psi: PsiSequence, cap: int) -> GradedOperator:
    """x^n -> ((n+1)/(n+1)_psi) x^(n+1), that is (n+1) v/u for the weight
    pair (u, v) of (n+1)_psi; reads the weights 1..cap + 1."""
    w = psi.weight_pairs(cap + 1)

    def rule(n):
        a, d = _lowest_pair((n + 1) * w[n][1], w[n][0])
        return _raw((0,) * (n + 1) + (a,), d)

    return GradedOperator.from_monomial_rule(rule, cap)

def weight_op(psi: PsiSequence, cap: int) -> GradedOperator:
    """x^n -> (n+1)_psi x^n, read off the weight pairs 1..cap + 1."""
    w = psi.weight_pairs(cap + 1)
    return GradedOperator.from_monomial_rule(
        lambda n: _raw((0,) * n + (w[n][0],), w[n][1]), cap)

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

    The weights are read when the rule is made, not when it runs, so a
    weight sequence too short for the cap fails here; each coefficient is
    reduced when a row first reads it, so row n reduces c_0..c_n only.
    """
    cs, c_den = _series_numerators(coeffs)
    if not any(cs[1:]):
        # a constant reads no weights
        return lambda n: _from_ints([0] * n + list(cs[:1]), c_den)
    # Row n holds c_k n_psi!/(n-k)_psi! at x^(n-k); with c_k = a/b in
    # lowest terms, n_psi! = f/g and l/j_psi! the weights' cofactors for j
    # from n - K to n, K the largest such k, that is
    # (a (l/(n-k)_psi!) / (b l)) * (f/g), collected over the lcm of the b.
    # The falling products n_psi ... (n-k+1)_psi span the weights 1..cap,
    # read here.
    fact = psi.factorial_pairs(cap)
    terms = []
    b_lcm = 1
    reduced = 0

    def rule(n):
        nonlocal b_lcm, reduced
        for k in range(reduced, min(n + 1, len(cs))):
            a = cs[k]
            if a:
                g = gcd(a, c_den)
                b = c_den // g
                terms.append((k, a // g, b))
                if b_lcm % b:
                    b_lcm = b_lcm // gcd(b_lcm, b) * b
            reduced = k + 1
        used = [term for term in terms if term[0] <= n]
        if not used:
            return Polynomial()
        low = n - used[-1][0]
        l, cofactors = psi.cofactors(n, 0, low)
        f, g = fact[n]
        h = gcd(f, l)
        f //= h
        out = [0] * (n + 1)
        for k, a, b in used:
            i = n - k
            out[i] = a * (b_lcm // b) * cofactors[i - low] * f
        return _from_ints(out, b_lcm * (l // h) * g)

    return rule


class SeriesOperator(GradedOperator):
    """sum_k c_k * (psi-derivative)^k on x^0..x^cap, kept as its series.

    ``series`` is the TruncatedSeries of the c_k at the operator's cap and
    ``psi`` the weights object it is a series in.  The weights are read
    when the value is built, as ``operator_from_series`` reads them.  Row n
    is built when ``image(n)`` first asks for it; the whole table is built
    once, and kept, when ``images`` (and so ``apply`` or ``compose``) needs
    every row.  Sums, differences, negation, scalar multiples, products and
    powers of series values with the same weights object and cap are
    series values again, and so is a truncation; any mix with a plain
    table is a plain table.  Two series values in one weights object
    compare by their series at the common cap, other operands by rows.
    ``_derived`` keeps what is derived from the value (the expansion's
    tables of it, a delta operator's reverted indicator), built once per
    value.
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

    @property
    def images(self) -> tuple:
        if self._images is None:
            self._images = tuple(map(self._row, range(self._cap + 1)))
        return self._images

    def _row(self, n: int) -> Polynomial:
        row = self._rows.get(n)
        if row is None:
            row = self._rows[n] = self._rule(n)
        return row

    def _partner(self, other) -> bool:
        """Is other a series value in the same weights object at the same cap?"""
        return (isinstance(other, SeriesOperator) and other.psi is self.psi
                and other._cap == self._cap)

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

    def __neg__(self):
        return SeriesOperator(-self.series, self.psi)

    def __mul__(self, other):
        if isinstance(other, GradedOperator):
            return self.compose(other)
        return SeriesOperator(self.series * as_scalar(other), self.psi)

    def __rmul__(self, other):
        # Python tries this before a table's own __mul__, as this is a
        # subclass: table * series must stay the table's composition.
        if isinstance(other, GradedOperator):
            return NotImplemented
        return self * other

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
        return super().__eq__(other)


def _derived(base: GradedOperator, key, build):
    """``build()``, kept on a series value under ``key`` so that it runs
    once per value; a plain table keeps nothing."""
    memo = base._derived if isinstance(base, SeriesOperator) else {}
    if key not in memo:
        memo[key] = build()
    return memo[key]

def _shift_form(op: GradedOperator):
    """(w, s) when op sends each x^n to w_n x^(n+s), with the w_n as int
    pairs (u, v), v > 0, in lowest terms; None otherwise.

    A plain table is read row by row, up to the first row that is not one
    term at the common shift.  A series value c z^k is read off the
    weights, with no row built, and kept on the value.
    """
    if isinstance(op, SeriesOperator):
        return _derived(op, "shift form", lambda: _series_shift_form(op))
    w, s = [], None
    for n, row in enumerate(op.images):
        r = row._num
        if r:
            s = len(r) - 1 - n if s is None else s
            if len(r) - 1 - n != s or r.count(0) != len(r) - 1:
                return None
        w.append((r[-1], row._den) if r else (0, 1))
    return w, s or 0

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
    and c_1 != 0: row n then leads with c_1 n_psi x^(n-1).
    """
    if isinstance(op, SeriesOperator):
        n_max = min(n_max, 1)
    if not op.image(0).is_zero:
        raise NotDegreeLoweringError("%soperator does not kill constants" % prefix)
    for n in range(1, n_max + 1):
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
    and each row from its highest degree down; (n, k) names the coefficient
    of x^(n-k) in the image of x^n.  An image past the cap is a difference.
    A series value in psi itself is its own series, with no readout and no
    comparison.
    """
    if isinstance(op, SeriesOperator) and op.psi is psi:
        return op.series, None
    parts = []
    for (f, g), row in zip(psi.factorial_pairs(op.cap), op.images):
        a = row._num[0] if row._num else 0
        e = gcd(a, row._den)
        a, d = a // e, row._den // e
        x, y = gcd(a, f), gcd(g, d)
        parts.append((a // x * (g // y), d // y * (f // x)))
    nums, den = _pairs_over_lcm(parts)
    c = _raw_series(tuple(nums), den, op.cap)
    model = map(SeriesOperator(c, psi).image, range(op.cap + 1))
    for n, (img, want) in enumerate(zip(op.images, model)):
        if img != want:
            i = max(img.degree, want.degree)
            while img.coefficient(i) == want.coefficient(i):
                i -= 1
            return c, (n, n - i)
    return c, None

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
