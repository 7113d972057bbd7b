"""Expanding arbitrary operators in powers of a degree-lowering base.

Any linear operator T on polynomials can be written uniquely as
T = sum_n q_n * Q^n where Q lowers degree by exactly one and each q_n acts
by multiplication with a polynomial.  The coefficients fall out of a
triangular solve: apply both sides to 1, x, x^2, ... in turn.  A base
that is a plain table has its powers applied to the monomials.  A series
base Q = s(d) in the weighted derivative d takes the series route and
builds no power of Q on a polynomial: d^k x^m = m_psi!/(m-k)_psi! x^(m-k)
gives T x^m / m_psi! = sum_k F_k x^(m-k) / (m-k)_psi! with
F_k = sum_(n<=k) (s^n)_k q_n, so the solve has two triangular steps,

  step 1:  F_m = T x^m / m_psi! - sum_(k<m) F_k x^(m-k) / (m-k)_psi!,
  step 2:  q_m = (F_m - sum_(n<m) (s^n)_m q_n) / (s^m)_m,

the second reading a table of scalar series powers s^n; reconstruction
runs them forward.  On either route each row is one combination over one
denominator, and step 1 reads each F_k in place at its shift.  For a
series value T = sum c_k d^k in the base's own weights object step 1 is
the identity, F_m = c_m, and only step 2 runs; q_n that are all constants
reconstruct to the series value F = sum q_n s^n, and two series values in
one weights object compare by their series, so such a round trip builds
no row of either table.  A weighted shift T x^m = w_m x^(m+s) runs on its
one diagonal: each F_m is c_m x^(m+s), so step 1 is the scalar recurrence
c_m = w_m/m_psi! - sum_(k<m) c_k/(m-k)_psi!.  When every F_k is zero or one
term on a common diagonal x^(k+s), the reconstruction is the shift value
with w_m = m_psi! sum_k c_k/(m-k)_psi!, a ``ShiftOperator``, which compares
with a shift on its weights, so that round trip builds no row either.

A series base keeps what the route reads of it and nothing of T: the rows
of its power table, per cap, and the unit-normal sequence the conjugation
check divides by, per order.  The base d itself keeps no power table: its
powers z^n make the table the identity, so step 2 is q_m = F_m.  Every
operator expanded in one base, and every reconstruction, then reads them
without building them again, as a delta operator keeps its reverted
indicator; a plain-table base keeps nothing.  The multipliers 1/j_psi! of
step 1 and of the reconstruction are the weights' cofactors, which the
weights object keeps for short rows.

A dual variant replaces multiplication by x with the raising partner of Q
and the monomials with Q's basic sequence; it is the monomial form
conjugated by the umbral map of that sequence.  The generating sum
P(x; lam) of the q_n is the conjugate of T by the formal eigenfunction of
Q, which is the cross-check implemented here, order by order in lam with
no truncation leakage.

The same table decides whether a given operator is a series in SOME
weighted derivative at all: the leading coefficients of its images are the
candidate weights, and the operator is such a series exactly when it
equals the series read off it with those weights.  Failures come with the
first witness pair.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .algebra import (NEG_INF, Polynomial, TruncatedSeries, _combination,
                      _generating_sum, _lowest_pair, _pairs_over_lcm, _raw,
                      scalar_to_str)
from .errors import CapExceededError
from .operators import (GradedOperator, SeriesOperator, ShiftOperator,
                        _derived, _require_lowers_by_one, _series_and_witness,
                        psi_derivative_op, shift_invariant_coefficients)
from .psi import CUSTOM, PsiSequence
from .umbral import (BasicSequence, DeltaOperator, _degree_in_basis,
                     unit_normal_sequence)


class OperatorExpansion:
    """Coefficient polynomials q_0..q_N of T in powers of a base operator."""

    __slots__ = ("coeff_polys", "base", "form")

    def __init__(self, coeff_polys, base: GradedOperator, form: str):
        self.coeff_polys = tuple(coeff_polys)
        self.base = base
        self.form = form

    @property
    def order(self) -> int:
        return len(self.coeff_polys) - 1

    def indicator_at(self, lam) -> Polynomial:
        """P(x; lam) = sum_n q_n(x) lam^n at an exact scalar."""
        return _generating_sum(self.coeff_polys, lam)

    def to_json(self, base_label: str):
        return {"base": base_label,
                "coeffs": [q.to_json() for q in self.coeff_polys]}


def _base_powers_on_monomials(base: GradedOperator, top: int,
                              cap: int) -> list:
    """table[n][m] = base^n applied to x^m, for n <= top and m <= cap.

    Each power combines the base's rows, which a series or shift value
    builds once and keeps: over top * (cap + 1) applications that is
    cheaper than its own correlation or weighted shift each time."""
    table = GradedOperator(base.images, base.cap)
    rows = [[Polynomial.monomial(m) for m in range(cap + 1)]]
    for _ in range(top):
        rows.append([table.apply(p) for p in rows[-1]])
    return rows


def _series_powers(s: TruncatedSeries, cap: int) -> list:
    """s^0 .. s^cap through degree cap."""
    s = s.truncated(cap)
    out = [TruncatedSeries.one(cap)]
    for _ in range(cap):
        out.append(out[-1] * s)
    return out


def _power_rows(powers) -> list:
    """Row k of the triangular table (s^n)_k, n <= k, for s^n = powers[n]:
    None when (s^k)_k = 1 is its one nonzero entry, as in every row of the
    base d itself, and else the nonzero entries as (n, a) pairs over one
    denominator, with the diagonal (s^k)_k last."""
    rows = []
    for k in range(len(powers)):
        used = [(n, sn) for n, sn in enumerate(powers[: k + 1]) if sn._num[k]]
        den = lcm(*(sn._den for _, sn in used))
        row = [(n, sn._num[k] * (den // sn._den)) for n, sn in used]
        rows.append(None if row == [(k, den)] else (row, den))
    return rows


def _series_tables(base: SeriesOperator, cap: int) -> list:
    """The rows of the base's power table at ``cap``, built once per base
    and cap.  The base d itself, a series with c_1 = 1 and no other term
    up to the cap (c_0 = 0 for every base), has every row None and builds
    none."""
    nums = base.series._num
    if nums[1: 2] == (base.series._den,) and not any(nums[2: cap + 1]):
        return [None] * (cap + 1)
    return _derived(base, ("series route", cap),
                    lambda: _power_rows(_series_powers(base.series, cap)))


def _entries_over_lcm(polys) -> tuple:
    """The nonzero entries a x^i of each polynomial as (a, i) int pairs
    over the lcm of their denominators, and that lcm.  A product p * b
    that feeds a combination is then read as the rows b shifted by i,
    with multipliers a_i, and no product polynomial is built."""
    den = lcm(*(p._den for p in polys))
    return [[(a * (den // p._den), i) for i, a in enumerate(p._num) if a]
            for p in polys], den


def _shift_terms(scaled, psi: PsiSequence, m: int, scale: int) -> tuple:
    """(terms, l, w): (int, F_k, m - k) terms that sum, over l, to
    scale * sum_k F_k x^(m-k) / (m-k)_psi! for the F_k in ``scaled``,
    k <= m, and w = l / m_psi!, by the weights' cofactors at m."""
    l, cofactors = psi.cofactors(m)
    return ([(scale * cofactors[m - k], p, m - k)
             for k, p in enumerate(scaled)], l, cofactors[m])


def _shift_step_one(t: ShiftOperator, psi: PsiSequence, cap: int) -> list:
    """Step 1 on the one diagonal of a weighted shift x^m -> w_m x^(m+s):
    F_m = c_m x^(m+s) with c_m = w_m/m_psi! - sum_(k<m) c_k/(m-k)_psi!.
    With the weights' cofactors l/j_psi!, read once for the cap, and the
    c_k = nums[k]/den over the lcm of their denominators, w_m = u/v gives
    c_m = (u (l/m_psi!) den - v sum_k nums[k] (l/(m-k)_psi!)) / (v l den),
    reduced once."""
    l, cofactors = psi.cofactors(cap)
    nums, den, out = [], 1, []
    for m, (u, v) in enumerate(t.weights[: cap + 1]):
        a, b = _lowest_pair(
            u * cofactors[m] * den
            - v * sum(map(mul, nums, cofactors[m:0:-1])), v * l * den)
        r = b // gcd(den, b)
        if r != 1:
            nums = [x * r for x in nums]
            den *= r
        nums.append(a * (den // b))
        out.append(_raw((0,) * (m + t.shift) + (a,), b) if a else _raw((), 1))
    return out


def _series_expansion(t: GradedOperator, base: SeriesOperator,
                      cap: int) -> list:
    rows = _series_tables(base, cap)
    if isinstance(t, SeriesOperator) and t.psi is base.psi:
        # A series value T = sum c_k d^k in the base's weights has F_m = c_m.
        scaled = [Polynomial.monomial(0, c)
                  for c in t.series.coeffs[: cap + 1]]
    elif isinstance(t, ShiftOperator):
        scaled = _shift_step_one(t, base.psi, cap)
    else:
        scaled = []
    qs = []
    for m in range(cap + 1):
        if len(scaled) == m:
            # Step 1: F_m = T x^m / m_psi! - sum_(k<m) F_k x^(m-k) / (m-k)_psi!.
            terms, l, w = _shift_terms(scaled, base.psi, m, -1)
            terms.append((w, t.image(m), 0))
            scaled.append(_combination(terms, l))
        # Step 2: q_m = (F_m - sum_(n<m) (s^n)_m q_n) / (s^m)_m.
        if rows[m] is None:
            qs.append(scaled[m])
            continue
        row, den = rows[m]
        terms = [(-a, qs[n], 0) for n, a in row[:-1]]
        terms.append((den, scaled[m], 0))
        qs.append(_combination(terms, row[-1][1]))
    return qs


def _one_diagonal(polys):
    """(s, pairs) when each polys[k] is zero or one term (a/b) x^(k+s), one
    s for all, some nonzero, with pairs[k] = (a, b) and (0, 1) for zero;
    else None."""
    s, pairs = None, []
    for k, p in enumerate(polys):
        r = p._num
        if not r:
            pairs.append((0, 1))
            continue
        if any(r[:-1]) or s not in (None, len(r) - 1 - k):
            return None
        s = len(r) - 1 - k
        pairs.append((r[-1], p._den))
    return None if s is None else (s, pairs)


def _series_reconstruction(coeff_polys, base: SeriesOperator,
                           cap: int) -> GradedOperator:
    rows = _series_tables(base, cap)
    qs = list(coeff_polys[: cap + 1])
    qs += [Polynomial()] * (cap + 1 - len(qs))
    scaled = [qs[k] if row is None else
              _combination([(a, qs[n], 0) for n, a in row[0]], row[1])
              for k, row in enumerate(rows)]
    if all(q.degree <= 0 for q in qs):
        # Constant q_n make F = sum q_n s^n a scalar series: the value F(d).
        return SeriesOperator(TruncatedSeries(
            [p.constant_term for p in scaled], cap), base.psi)
    fact = base.psi.factorial_pairs(cap)
    diagonal = _one_diagonal(scaled)
    if diagonal is not None:
        # F_k = c_k x^(k+s) make T the shift with
        # w_m = m_psi! sum_k c_k/(m-k)_psi!, on the cofactors at the cap.
        s, cs = diagonal
        nums, den = _pairs_over_lcm(cs)
        l, cofactors = base.psi.cofactors(cap)
        return ShiftOperator([_lowest_pair(
            f * sum(map(mul, nums, cofactors[m::-1])), g * l * den)
            for m, (f, g) in enumerate(fact)], s, cap)
    images = []
    for m, (f, g) in enumerate(fact):
        terms, l, _ = _shift_terms(scaled[: m + 1], base.psi, m, f)
        images.append(_combination(terms, g * l))
    return GradedOperator(images, cap)


def expand_in_monomials(t: GradedOperator,
                        base: GradedOperator) -> OperatorExpansion:
    """Unique expansion T = sum q_n(x) base^n, solved on 1, x, x^2, ...

    base^m applied to x^m is a nonzero constant, which makes the system
    triangular with invertible pivots.  A series base takes the series
    route of the module docstring.
    """
    cap = min(t.cap, base.cap)
    _require_lowers_by_one(base, cap, "base ")
    if isinstance(base, SeriesOperator):
        return OperatorExpansion(_series_expansion(t, base, cap), base,
                                 "monomial")
    powers = _base_powers_on_monomials(base, cap, cap)
    qs = []
    for m in range(cap + 1):
        # q_m = (T x^m - sum_(n<m) q_n base^n x^m) / base^m x^m, with each
        # base^n x^m = sum_i (b_i/den) x^i read as q_n shifted by i
        pivot = powers[m][m].constant_term
        scale = pivot.denominator
        bs, den = _entries_over_lcm([powers[n][m] for n in range(m)])
        terms = [(-scale * b, qs[n], i)
                 for n, entries in enumerate(bs) for b, i in entries]
        terms.append((scale * den, t.image(m), 0))
        qs.append(_combination(terms, pivot.numerator * den))
    return OperatorExpansion(qs, base, "monomial")


def reconstruct_from_monomial_form(exp: OperatorExpansion,
                                   cap: int) -> GradedOperator:
    """The table of sum q_n(x) base^n on x^0..x^cap; a series base runs
    the two steps of the series route forward, and gives a series value
    in its weights when every q_n is a constant, and else a shift value
    when every F_k is zero or one term on one diagonal x^(k+s)."""
    base = exp.base
    if cap > base.cap:
        raise CapExceededError(
            "polynomial degree %d exceeds operator cap %d"
            % (base.cap + 1, base.cap), cap=base.cap)
    if isinstance(base, SeriesOperator):
        return _series_reconstruction(exp.coeff_polys, base, cap)
    powers = _base_powers_on_monomials(base, cap, cap)
    # each q_n = sum_i (a_i/den) x^i, read as base^n x^m shifted by i
    qs, den = _entries_over_lcm(exp.coeff_polys[: cap + 1])
    return GradedOperator([_combination(
        [(a, powers[n][m], i)
         for n, entries in enumerate(qs[: m + 1]) for a, i in entries], den)
        for m in range(cap + 1)], cap)


def expand_in_basic(t: GradedOperator,
                    basic: BasicSequence) -> OperatorExpansion:
    """Dual-pair expansion T = sum q_n(R) Q^n for Q = basic.op, R its raise.

    The umbral map U of the basis turns Q into D and R into X, so the q_n
    are the monomial-form coefficients of U^(-1) T U in powers of D, taken
    as the series z in classical weights so the series route applies.  The
    order stops where T, applied to the basis, would leave it.
    """
    shift = t.shift_bound
    s = int(shift) if shift is not NEG_INF and shift > 0 else 0
    m_eff = min(t.cap, len(basic.polys) - 1 - s, basic.op.cap)
    if m_eff < 0:
        raise CapExceededError("basis too short for the operator's degree growth")
    u, u_inv = basic.umbral_map()
    conjugated = u_inv.compose(t.compose(u.truncated(m_eff)))
    exp = expand_in_monomials(
        conjugated, psi_derivative_op(PsiSequence.classical(m_eff), m_eff))
    return OperatorExpansion(exp.coeff_polys, basic.op, "dual")


def apply_dual_form(exp: OperatorExpansion, basic: BasicSequence,
                    p: Polynomial) -> Polynomial:
    """Apply sum q_n(R) Q^n to p as U (sum q_n D^n) U^(-1) p.

    A p of degree past the basis raises as ``monomials_to_basis`` does; so
    does a term of degree past the basis.
    """
    u, u_inv = basic.umbral_map()
    _degree_in_basis(p, len(basic.polys))
    g = u_inv.apply(p)
    h = Polynomial()
    for q in exp.coeff_polys:
        if not (q.is_zero or g.is_zero):
            if q.degree + g.degree > u.cap:
                raise CapExceededError("dual application leaves the basis")
            h = h + q * g
        g = g.derivative()
    return u.apply(h)


def conjugate_indicator_check(t: GradedOperator,
                              expansion: OperatorExpansion,
                              lambda_samples=()):
    """Verify the monomial-form expansion of T against Phi^(-1) (T Phi)
    order by order in lam, through ``expansion.order``.

    Phi is the formal eigenfunction of the expansion's base, represented by
    its unit-normalized sequence r_n, so T Phi and the division by Phi are
    computed in the ring of lam-polynomials with polynomial coefficients.
    The optional scalar samples evaluate both sides for the report.  A
    dual-form expansion, whose q_n act through the raise and not through
    x, raises ``ValueError``.
    """
    if expansion.form != "monomial":
        raise ValueError("the conjugation check needs a monomial-form "
                         "expansion, got the %s form" % expansion.form)
    cap = expansion.order
    base = expansion.base
    table = _derived(base, ("unit normal", cap),
                     lambda: tuple(unit_normal_sequence(base, cap)))
    applied = [t.apply(r) for r in table]
    # Triangular division by Phi = sum lam^n r_n (r_0 = 1), each r_j
    # conj[n-j] read as conj[n-j] shifted by the powers of r_j.
    rs, den = _entries_over_lcm(table)
    conj = []
    for n in range(cap + 1):
        terms = [(-a, conj[n - j], i)
                 for j in range(1, n + 1) for a, i in rs[j]]
        terms.append((den, applied[n], 0))
        conj.append(_combination(terms, den))
    mismatches = [n for n in range(cap + 1)
                  if conj[n] != expansion.coeff_polys[n]]
    ok = not mismatches
    samples = []
    for lam in lambda_samples:
        left = _generating_sum(conj, lam)
        samples.append({"lambda": scalar_to_str(lam),
                        "match": left == expansion.indicator_at(lam),
                        "value": left.to_json()})
    report = {"ok": ok, "order": cap, "mismatched_orders": mismatches,
              "samples": samples}
    return ok, report


def first_expansion_coeffs(t: GradedOperator,
                           delta: DeltaOperator) -> TruncatedSeries:
    """Scalar coefficients of a shift-invariant T in powers of a delta operator.

    With T = f(Dpsi) and the delta operator Q = q(Dpsi) as series in the
    weighted derivative, T = (f o q^<-1>)(Q).  Raises
    ``NotShiftInvariantError`` when T does not commute with the weighted
    derivative.
    """
    return shift_invariant_coefficients(t, delta.psi).compose(
        delta.indicator_reversion)


class DetectionResult:
    """Outcome of testing whether an operator is a weighted-derivative series."""

    __slots__ = ("is_series", "psi", "series_coeffs", "scale", "witness")

    def __init__(self, is_series, psi, series_coeffs, scale, witness):
        self.is_series = is_series
        self.psi = psi
        self.series_coeffs = series_coeffs
        self.scale = scale
        self.witness = witness

    def to_json(self):
        doc = {"is_series": self.is_series,
               "scale": scalar_to_str(self.scale)}
        if self.is_series:
            doc["n_psi"] = [scalar_to_str(v)
                            for v in self.psi.values(self.psi.stored_cap)]
            doc["series"] = [scalar_to_str(c) for c in self.series_coeffs]
        else:
            doc["witness"] = {"n": self.witness[0], "k": self.witness[1]}
        return doc


def detect_psi_series(op: GradedOperator) -> DetectionResult:
    """Decide whether op = d + sum_(k>=2) c_k d^k for SOME admissible weights.

    The scale that sends x to exactly 1 is reported.  The leading
    coefficients of the scaled images propose the weights; op itself is
    compared with the series c read off it in those weights, with the first
    differing (n, k) (coefficient of x^(n-k) in the image of x^n) as
    witness, and scale * c is the series of the scaled operator.

    A series value sum_k c_k d^k in weights psi needs no comparison: with
    d = 1_psi * e for the derivative e of the weights n_psi/1_psi, the
    scaled operator is sum_k (scale c_k 1_psi^k) e^k.  Both branches work
    on int pairs, the weight pairs, a shift value's stored weights or each
    row's leading entry, and build one Fraction per value reported.
    """
    cap = op.cap
    _require_lowers_by_one(op, cap, "base ")
    scale = Fraction(1) / op.image(1).constant_term
    s, t = scale.numerator, scale.denominator
    if isinstance(op, SeriesOperator):
        w = op.psi.weight_pairs(cap)
        u1, v1 = w[0]
        psi = PsiSequence(CUSTOM, None, cap, "custom", {},
                          [_lowest_pair(u * v1, v * u1) for u, v in w])
        # c_k = a_k/b gives scale c_k 1_psi^k = a_k s u1^k / (b t v1^k)
        coeffs, num, den = [], s, op.series._den * t
        for a in op.series._num:
            coeffs.append(Fraction(a * num, den))
            num *= u1
            den *= v1
        return DetectionResult(True, psi, coeffs, scale, None)
    lead = (op.weights[1:] if isinstance(op, ShiftOperator)
            else [(row._num[-1], row._den) for row in op.images[1:]])
    psi = PsiSequence(CUSTOM, None, cap, "custom", {},
                      [_lowest_pair(s * u, t * v) for u, v in lead])
    c, witness = _series_and_witness(op, psi)
    if witness is not None:
        return DetectionResult(False, None, None, scale, witness)
    return DetectionResult(True, psi, [Fraction(a * s, c._den * t)
                                       for a in c._num], scale, None)
