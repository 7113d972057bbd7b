"""Delta operators and their basic polynomial sequences.

A delta operator here is a degree-lowering operator that commutes with the
weighted derivative and sends x to a nonzero constant.  Each one factors
uniquely as (weighted derivative) o S with S invertible, owns a unique
basic sequence p_0 = 1, p_n(0) = 0, Q p_n = n_psi p_(n-1), and that
sequence can be produced two independent ways: a back substitution on the
int columns of the operator's rows, which works for any degree-lowering
operator, and closed formulas built from Pincherle derivatives and inverse
powers of the S factor.  Having both is the point; they must agree exactly.

The basic sequence and the coordinates of x^n in its basis (the inverse
umbral map) are the same triangular solve, so ``_back_substitution`` is
its one home: the solve, ``monomials_to_basis`` and ``umbral_map`` run it
on the ``_triangular_columns`` of their rows.

The closed formulas run on Ward's scaled coordinates a_j j_psi!, where
they read no weights, and share no code with the solve.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .algebra import (Polynomial, TruncatedSeries, _from_ints,
                      _generating_sum, _product)
from .errors import (CapExceededError, NonInvertibleError,
                     NotDegreeLoweringError, SelfCheckError)
from .operators import (GradedOperator, SeriesOperator, _correlate,
                        _derived, _require_lowers_by_one, _scaled_down,
                        _scaled_raise, _scaled_up, invert_shift_invariant,
                        multiply_x_op, shift_invariant_coefficients)
from .psi import PsiSequence


def translation_coefficients(psi: PsiSequence, p: Polynomial) -> list:
    """The psi-Taylor coefficients T_k = (d_psi)^k p / k_psi!, k <= deg p,
    so that the shift of p by y is sum_k y^k T_k.

    With p = sum_n a_n x^n, the x^m entry of T_k is
    a_(m+k) (m+k)_psi!/(m_psi! k_psi!): u_(m+k) (1/m_psi!) (1/k_psi!) for
    u_n = a_n n_psi!, collected on ints by the weights' cofactors, M n_psi!
    and L/m_psi!, over M L L.  Reads the weights 1..deg p, and none for a
    zero p, which gives [].
    """
    a = p._num
    if not a:
        return []
    m_den, up = psi.cofactors(len(a) - 1, 1)
    l_den, down = psi.cofactors(len(a) - 1)
    u = _scaled_up(a, up)
    den = m_den * l_den * l_den * p._den
    return [_from_ints([x * y * scale for x, y in zip(u[k:], down)], den)
            for k, scale in enumerate(down)]


def translate(psi: PsiSequence, y, p: Polynomial) -> Polynomial:
    """Generalized shift of p by y: sum_k (y^k / k_psi!) (d_psi)^k p, the
    generating sum of ``translation_coefficients`` at y.

    For p = x^n this is the weighted binomial expansion
    sum_k binom_psi(n, k) x^(n-k) y^k.  The sum stops at the degree of p,
    so no weight past it is read; a zero p gives zero.
    """
    return _generating_sum(translation_coefficients(psi, p), y)


class BasicSequence:
    """The polynomials p_0..p_n attached to a degree-lowering operator."""

    __slots__ = ("polys", "psi", "op", "_umbral")

    def __init__(self, polys, psi: PsiSequence, op: GradedOperator):
        self.polys = tuple(polys)
        self.psi = psi
        self.op = op
        self._umbral = None

    def __len__(self):
        return len(self.polys)

    def __getitem__(self, n: int) -> Polynomial:
        return self.polys[n]

    def to_json(self):
        return [p.to_json() for p in self.polys]

    def monomials_to_basis(self, p: Polynomial):
        """Coordinates g_k of p in the p_n basis, k <= deg p: the back
        substitution of p on the columns of p_0..p_(deg p), so that
        sum_k g_k p_k = p.  Reads no weights."""
        n = _degree_in_basis(p, len(self.polys))
        columns = _triangular_columns(self.polys[:n + 1])
        g = _from_ints(*_back_substitution(columns, p._num, 1, p._den))
        return [g.coefficient(k) for k in range(n + 1)]

    def umbral_map(self):
        """Tables of U: x^n -> rho_n p_n and of U^(-1), at cap top, with
        rho_n = n!/n_psi!.

        U^(-1) Q U = D and U^(-1) R U = X for Q p_n = n_psi p_(n-1) and the
        dual raise R, so T = sum q_n(R) Q^n exactly when U^(-1) T U =
        sum q_n(x) D^n.  Row n of U^(-1) is the back substitution of x^n
        on the columns of U.  Reads the weights 1..top; built once per
        sequence.
        """
        if self._umbral is None:
            u = GradedOperator([self.psi.raising_ratio(0, n) * p
                                for n, p in enumerate(self.polys)])
            columns = _triangular_columns(u.images)
            self._umbral = u, GradedOperator([
                _from_ints(*_back_substitution(columns, [0] * n + [1], 1, 1))
                for n in range(len(self.polys))])
        return self._umbral


def _degree_in_basis(p: Polynomial, size: int) -> int:
    """deg p, 0 for zero, checked against a basis of size polynomials."""
    n = 0 if p.is_zero else p.degree
    if n >= size:
        raise CapExceededError("basis holds %d polynomials, degree %d requested"
                               % (size, n))
    return n


def _triangular_columns(rows):
    """The rows r_j/d_j, of degree exactly j, on ints: the d_j, the pivots
    r_j[j] and, for each i, the column r_j[i], j > i, below pivot i."""
    for n, row in enumerate(rows):
        if len(row._num) != n + 1:
            raise SelfCheckError("triangular row %d has degree %s, expected %d"
                                 % (n, row.degree, n))
    return ([row._den for row in rows],
            [row._num[n] for n, row in enumerate(rows)],
            [[row._num[i] for row in rows[i + 1:]] for i in range(len(rows))])


def _back_substitution(columns, t, m: int, den: int):
    """Ints a_j and D > 0 with sum_j (a_j/D) row_j = m sum_i t_i x^i / den,
    for the ``_triangular_columns`` of the rows, ints t and m, and den > 0.

    With b_j = a_j/d_j the x^i entry gives b_i from the b_j above it, over
    the pivot r_i[i], from the top coefficient down.  The b_j are ints
    over one denominator, scaled up only by the factor of a pivot that
    does not divide.
    """
    dens, pivots, below = columns
    beta = [0] * len(t)
    for i in range(len(t) - 1, -1, -1):
        pivot = pivots[i]
        # below[i] runs to the last row; the sum stops with the known b_j
        s = m * t[i] - sum(map(mul, beta[i + 1:], below[i]))
        b, r = divmod(s, pivot)
        if r:
            f = abs(pivot) // gcd(pivot, r)
            b = s * f // pivot
            beta[i + 1:] = [x * f for x in beta[i + 1:]]
            m *= f
            den *= f
        beta[i] = b
    return list(map(mul, beta, dens)), den


def basic_sequence_solve(op: GradedOperator, psi: PsiSequence,
                         n_max: int) -> BasicSequence:
    """Back substitution for p_0 = 1, p_n(0) = 0, op p_n = n_psi p_(n-1).

    Works for any operator that lowers degree by exactly one; shift
    invariance is not needed here.  The rows op(x^(j+1)), of degree j, are
    read once into ``_triangular_columns``; with n_psi = u/v, p_n is x
    times the ``_back_substitution`` of u p_(n-1)/v on them, reduced once.
    """
    if n_max > op.cap:
        raise CapExceededError("n_max %d beyond operator cap %d"
                               % (n_max, op.cap), cap=op.cap)
    _require_lowers_by_one(op, n_max, "")
    columns = _triangular_columns([op.image(n + 1) for n in range(n_max)])
    polys = [Polynomial.one()]
    for u, v in psi.weight_pairs(n_max):
        p = polys[-1]
        a, den = _back_substitution(columns, p._num, u, v * p._den)
        polys.append(_from_ints([0] + a, den))
    return BasicSequence(polys, psi, op)


class DeltaOperator(SeriesOperator):
    """A shift-invariant degree-lowering operator, kept as its series value.

    ``series`` is the indicator: the coefficients a_k of the operator as a
    series in the weighted derivative (a_0 = 0, a_1 != 0); ``s_series`` is
    that series divided by its variable, the coefficients of the invertible
    factor S, and ``indicator_reversion`` its compositional inverse,
    computed once.
    """

    __slots__ = ()

    @classmethod
    def from_operator(cls, op: GradedOperator, psi: PsiSequence) -> "DeltaOperator":
        indicator = shift_invariant_coefficients(op, psi)
        # x must go to a nonzero constant, so a cap-0 table, which has no
        # image of x, is rejected too.
        _require_lowers_by_one(op, max(op.cap, 1), "")
        delta = cls(indicator, psi)
        if not (isinstance(op, SeriesOperator) and op.psi is psi):
            # the gate has just matched these rows with the series' own
            delta._rows.update(enumerate(op.images))
        return delta

    @classmethod
    def from_indicator(cls, coeffs, psi: PsiSequence, cap: int) -> "DeltaOperator":
        series = TruncatedSeries(tuple(coeffs), cap)
        if series.constant_term != 0:
            raise NotDegreeLoweringError("indicator must have zero constant term")
        if series.cap < 1 or series.coefficient(1) == 0:
            raise NonInvertibleError("indicator needs a nonzero linear term")
        return cls(series, psi)

    op = property(lambda self: self, doc="The operator itself.")
    indicator = property(lambda self: self.series, doc="Its series.")

    @property
    def s_series(self) -> TruncatedSeries:
        """Series of the invertible factor S in op = (weighted derivative) o S."""
        return _from_ints(self.series._num[1:], self.series._den, self._cap - 1)

    @property
    def indicator_reversion(self) -> TruncatedSeries:
        """The series r with indicator(r(z)) = z."""
        return _derived(self, "reversion", self.series.reversion)

    def basic(self, n_max: int) -> BasicSequence:
        return basic_sequence_solve(self, self.psi, n_max)


def rodrigues_sequence(delta: DeltaOperator, n_max: int,
                       formula: int = 4) -> BasicSequence:
    """Basic sequence by one of four closed formulas (1..4).

    With S the invertible factor, q' the Pincherle derivative of the
    operator (the derivative of its indicator series) and X the weighted
    raising operator:

      1: p_n = q'(D) S^(-n-1) x^n
      2: p_n = S^(-n) x^n - (n_psi/n) (S^(-n))' x^(n-1)
      3: p_n = (n_psi/n) X S^(-n) x^(n-1)
      4: p_n = (n_psi/n) X (q'(D))^(-1) p_(n-1), from p_0 = 1

    All series arithmetic happens on indicator coefficients; the requested
    n_max must leave one spare order below the cap.  S^(-1), q' and
    (q')^(-1) are built once per delta and order, for all four formulas,
    and so is the chain 1, S^(-1), S^(-2), ...: it grows by one product
    per power, and only as far as a formula reads it (S^(-n_max-1) for
    formula 1, S^(-n_max) for 2 and 3), so the three formulas of one delta
    share its products.

    Each p_n is built on the scaled coordinates u_j = a_j j_psi! of
    ``operators``, as ints over one denominator: x^n is the one entry
    M n_psi!, a series in the weighted derivative is ``_correlate``, X is
    ``_scaled_raise``, (S^(-n))' is w_k -> k w_k one place down and n_psi/n
    is the weight pair (a, b) read as a over b n.  The cofactor rows of
    M n_psi! and L/n_psi! are read once, and p_n is scaled down and reduced
    once.  On x^n a series is read only to z^n, so formula 1 forms the
    numerators of q' S^(-n-1) only to that order, unreduced.  Reads the
    weights 1..n_max, and none for n_max <= 0.
    """
    if formula not in (1, 2, 3, 4):
        raise ValueError("formula must be 1, 2, 3 or 4")
    if n_max > delta.cap - 1:
        raise CapExceededError("n_max %d needs cap at least %d"
                               % (n_max, n_max + 1), cap=delta.cap)
    psi = delta.psi
    # Each series below is applied only to polynomials of degree <= n_max,
    # so its terms past z^n_max cannot reach the answer.
    order = max(n_max, 0)
    if formula in (1, 4):
        q_prime = _derived(delta, ("q'", order), lambda: (
            delta.series.differentiated().truncated(order)))
    if formula == 4:
        q_prime_inv = _derived(delta, ("1/q'", order), q_prime.inverse)
    else:
        s_inv = _derived(delta, ("1/S", order),
                         lambda: delta.s_series.truncated(order).inverse())
        powers = _derived(delta, ("S^-n", order),
                          lambda: [TruncatedSeries.one(order)])
    polys = [Polynomial.one()]
    if n_max < 1:
        return BasicSequence(polys, psi, delta)
    m_den, up = psi.cofactors(n_max, 1)
    l_den, down = psi.cofactors(n_max)

    def monomial(j):
        return [0] * j + [up[j]]

    for n, (a, b) in enumerate(psi.weight_pairs(n_max), 1):
        if formula != 4:
            k = n + 1 if formula == 1 else n
            while len(powers) <= k:
                powers.append(powers[-1] * s_inv)
            w = powers[k]
        if formula == 1:
            v = _correlate(_product(q_prime._num, w._num, n), monomial(n))
            den = q_prime._den * w._den
        elif formula == 2:
            c = w._num
            v = [b * n * x for x in _correlate(c, monomial(n))]
            dc = [k * x for k, x in enumerate(c[1: n + 1], 1)]
            for j, y in enumerate(_correlate(dc, monomial(n - 1))):
                v[j] -= a * y
            den = w._den * b * n
        elif formula == 3:
            v = _scaled_raise(_correlate(w._num, monomial(n - 1)), a)
            den = w._den * b * n
        else:
            p = polys[-1]
            v = _scaled_raise(_correlate(q_prime_inv._num,
                                         _scaled_up(p._num, up)), a)
            den = p._den * q_prime_inv._den * b * n
        polys.append(_scaled_down(v, down, m_den * l_den * den))
    return BasicSequence(polys, psi, delta)


def dual_raise_operator(basic: BasicSequence) -> GradedOperator:
    """Operator sending p_n to ((n+1)/(n+1)_psi) p_(n+1), tabulated on monomials.

    Forms a commutation pair with the operator that produced the sequence,
    the same way the weighted raising operator pairs with the weighted
    derivative: it is U X U^(-1) for the umbral map U.  The table loses
    one degree: raising p_top would need p beyond the stored sequence.
    """
    n_top = len(basic.polys) - 1
    if n_top < 1:
        raise CapExceededError("need at least p_0 and p_1 to build the dual raise")
    u, u_inv = basic.umbral_map()
    return u.compose(multiply_x_op(n_top - 1).compose(u_inv))


def sheffer_sequence(delta: DeltaOperator, s_op: GradedOperator,
                     n_max: int) -> list:
    """Sequence s_n = S^(-1) p_n for an invertible shift-invariant S.

    Satisfies the same lowering recurrence as the basic sequence but with
    shifted initial data; the binomial-type identity picks up basic
    polynomials on the translated argument.  The inverse of S is a table
    at S's cap, so n_max past that cap raises ``CapExceededError``.
    """
    inv = invert_shift_invariant(s_op, delta.psi)
    return [inv.apply(p) for p in delta.basic(n_max).polys]


def unit_normal_sequence(op: GradedOperator, n_max: int) -> list:
    """Solve op r_n = r_(n-1), r_0 = 1, r_n(0) = 0 (all weights 1).

    The normalization-free core of any basic sequence: p_n / n_psi!
    equals r_n no matter which admissible weights the sequence used.
    """
    ones = PsiSequence.divided_difference(max(n_max, 1))
    return list(basic_sequence_solve(op, ones, n_max).polys)


def eigenfunction_series(op: GradedOperator, lam,
                         cap: int) -> tuple[TruncatedSeries, list]:
    """Formal eigenfunction Phi with op Phi = lam Phi, Phi(0) = 1.

    Returns the series in x at the given scalar, together with the table of
    unit-normalized polynomials r_n whose generating sum it is:
    Phi = sum_n lam^n r_n(x).
    """
    table = unit_normal_sequence(op, cap)
    return (TruncatedSeries.from_polynomial(_generating_sum(table, lam), cap),
            table)
