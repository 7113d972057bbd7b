"""Exhaustive identity checks over a standard family of weight sequences.

Every check here is exact rational arithmetic.  The functions return
``CheckResult`` records rather than raising, so the command line and the
acceptance tests can both consume them and report one line per check.

The standard family deliberately mixes the regimes that behave
differently: classical weights, geometric weights with ratio below and
above one, the ratio-zero degenerate case (all weights one past n = 0),
and a custom table with superlinear growth.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial

from .algebra import Polynomial, TruncatedSeries
from .errors import PsiUmbralError
from .expansion import (
    conjugate_indicator_check,
    detect_psi_series,
    expand_in_monomials,
    first_expansion_coeffs,
    reconstruct_from_monomial_form,
)
from .integration import psi_integral, q_integral, r_integral
from .operators import (
    GradedOperator,
    derivative_op,
    divided_difference,
    divided_difference_op,
    forward_difference_op,
    multiply_x_op,
    operator_from_series,
    psi_derivative,
    psi_derivative_op,
    psi_raise_op,
    translation_op,
    weight_op,
)
from .psi import PsiSequence, RationalFunction
from .special import exp_psi_series, psi_hyperbolic
from .star_product import (
    poisson_weights,
    poisson_weights_raising,
    poisson_weights_recursion,
    psi_leibniz,
    q_leibniz,
    r_leibniz,
)
from .umbral import (
    DeltaOperator,
    basic_sequence_solve,
    rodrigues_sequence,
    sheffer_sequence,
    translate,
)

RANDOM_SEED = 20240817

# Rational sample points for identities that are polynomial in a free
# variable.  Eleven points pin any polynomial of degree ten.
Y_POINTS = tuple(Fraction(a, b) for a, b in
                 [(0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1), (3, 1), (-3, 1),
                  (1, 2), (-1, 2), (3, 2), (-3, 2)])

LAMBDA_POINTS = (Fraction(1), Fraction(1, 2), Fraction(3, 2))


class CheckResult:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name = name
        self.passed = passed
        self.detail = detail

    def __repr__(self):
        return "CheckResult(%r, %s)" % (self.name, self.passed)


def _check(name, passed, detail=""):
    return CheckResult(name, bool(passed), detail)


def standard_suite_psis(cap: int) -> list[tuple[str, PsiSequence]]:
    # two spare entries so raising operators can look past the cap
    square = [Fraction(n * n) for n in range(1, cap + 3)]
    return [
        ("classical", PsiSequence.classical(cap)),
        ("q=1/2", PsiSequence.jackson(Fraction(1, 2), cap)),
        ("q=2", PsiSequence.jackson(Fraction(2), cap)),
        ("q=0", PsiSequence.jackson(Fraction(0), cap)),
        ("squares", PsiSequence.custom(square, cap)),
    ]


def _delta_bases(psi: PsiSequence, cap: int):
    """The three degree-lowering bases used by the binomial checks."""
    d = psi_derivative_op(psi, cap)
    cubed = operator_from_series([Fraction(0), Fraction(1), Fraction(0),
                                  Fraction(1)], psi, cap)
    return [
        ("derivative", d),
        ("difference", forward_difference_op(psi, cap)),
        ("derivative+cube", cubed),
    ]


# -- commutation ------------------------------------------------------------

def check_ghw(cap: int) -> list[CheckResult]:
    out = []
    for name, psi in standard_suite_psis(cap):
        d = psi_derivative_op(psi, cap)
        r = psi_raise_op(psi, cap)
        comm = d.commutator(r)
        ident = GradedOperator.identity(comm.cap)
        out.append(_check("ghw[%s] lower/raise commutator is identity, n<=%d"
                          % (name, comm.cap), comm == ident))
    return out


# -- basic sequences and binomial identity ----------------------------------

def _binomial_sum(psi, basic_polys, n, y):
    total = Polynomial.zero()
    for k in range(n + 1):
        w = psi.binomial(n, k) * basic_polys[n - k](y)
        total = total + basic_polys[k] * w
    return total


def check_binomial(cap: int) -> list[CheckResult]:
    n_max = min(10, cap)
    out = []
    for name, psi in standard_suite_psis(cap):
        for base_name, q in _delta_bases(psi, cap):
            polys = basic_sequence_solve(q, psi, n_max).polys
            ok = True
            for n in range(n_max + 1):
                for y in Y_POINTS:
                    lhs = translate(psi, y, polys[n])
                    if lhs != _binomial_sum(psi, polys, n, y):
                        ok = False
                        break
                if not ok:
                    break
            out.append(_check("binomial[%s,%s] translation splits over the "
                              "basis, n<=%d at %d points"
                              % (name, base_name, n_max, len(Y_POINTS)), ok))
    return out


def check_parity(cap: int) -> list[CheckResult]:
    out = []
    for name, psi in standard_suite_psis(cap):
        ok = True
        for n in range(1, min(15, cap) + 1, 2):
            total = sum(((-1) ** k) * psi.binomial(n, k) for k in range(n + 1))
            if total != 0:
                ok = False
                break
        out.append(_check("parity[%s] odd alternating binomial sums vanish"
                          % name, ok))
    two = PsiSequence.jackson(Fraction(2), cap)
    even = sum(((-1) ** k) * two.binomial(2, k) for k in range(3))
    out.append(_check("parity[q=2] even sum at n=2 equals 1-q",
                      even == Fraction(-1)))
    return out


# -- Rodrigues-style closed forms -------------------------------------------

def _invertible_tails(psi, cap):
    one = [Fraction(1)]
    shifted = [Fraction(1), Fraction(1)]
    expo = [Fraction(1, psi.factorial(k)) for k in range(cap)]
    return [("plain", one), ("shifted", shifted), ("exponential", expo)]


def check_rodrigues(cap: int) -> list[CheckResult]:
    n_max = min(8, cap - 1)
    out = []
    for name, psi in standard_suite_psis(cap):
        for tail_name, tail in _invertible_tails(psi, cap):
            coeffs = [Fraction(0)]
            for k, c in enumerate(tail):
                if k + 1 <= cap:
                    coeffs.append(c)
            delta = DeltaOperator.from_indicator(coeffs, psi, cap)
            reference = delta.basic(n_max).polys
            ok = True
            for formula in (1, 2, 3, 4):
                got = rodrigues_sequence(delta, n_max, formula=formula)
                if [p for p in got] != list(reference):
                    ok = False
                    break
            out.append(_check("rodrigues[%s,%s] four closed forms agree with "
                              "the triangular solve, n<=%d"
                              % (name, tail_name, n_max), ok))
    return out


# -- operator expansion -----------------------------------------------------

def check_expansion_goldens(cap: int) -> list[CheckResult]:
    k_max = min(12, cap)
    out = []
    d = derivative_op(cap)
    delta = forward_difference_op(PsiSequence.classical(cap), cap)

    exp_d = expand_in_monomials(d, delta)
    ok = exp_d.coeff_polys[0].is_zero
    for k in range(1, min(k_max, exp_d.order) + 1):
        want = Polynomial((Fraction((-1) ** (k - 1), k),))
        if exp_d.coeff_polys[k] != want:
            ok = False
    out.append(_check("golden: derivative in forward differences has "
                      "coefficients (-1)^(k-1)/k, k<=%d" % k_max, ok))

    exp_delta = expand_in_monomials(delta, d)
    ok = exp_delta.coeff_polys[0].is_zero
    fact = 1
    for k in range(1, min(k_max, exp_delta.order) + 1):
        fact *= k
        if exp_delta.coeff_polys[k] != Polynomial((Fraction(1, fact),)):
            ok = False
    out.append(_check("golden: forward difference in derivatives has "
                      "coefficients 1/k!, k<=%d" % k_max, ok))

    r1 = reconstruct_from_monomial_form(exp_d, cap)
    r2 = reconstruct_from_monomial_form(exp_delta, cap)
    out.append(_check("golden: both expansions reconstruct their operator",
                      r1 == d.truncated(r1.cap) and r2 == delta.truncated(r2.cap)))
    return out


def check_detection(cap: int) -> list[CheckResult]:
    out = []
    d = derivative_op(cap + 2)
    x = multiply_x_op(cap + 2)
    dxd = d * x * d
    res = detect_psi_series(dxd)
    ok = res.is_series and res.scale == 1
    if ok:
        found = res.psi.values(res.psi.stored_cap)
        ok = (found == [Fraction(n * n) for n in range(1, len(found) + 1)]
              and all(c == 0 for c in res.series_coeffs[2:])
              and res.series_coeffs[:2] == [Fraction(0), Fraction(1)])
    out.append(_check("detect: second-order self-adjoint form is a weighted "
                      "derivative series with weights n^2", ok))

    bad = Fraction(1, 2) * dxd - Fraction(1, 3) * (d ** 3)
    res2 = detect_psi_series(bad)
    ok2 = (not res2.is_series) and res2.witness == (4, 3)
    out.append(_check("detect: mixed second/third order combination is "
                      "rejected with witness (4,3)", ok2))
    return out


def _random_polynomial(rng, degree, nonzero_lead=False):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
              for _ in range(degree + 1)]
    if nonzero_lead and coeffs[-1] == 0:
        coeffs[-1] = Fraction(1)
    return Polynomial(coeffs)


def _random_lowering_op(rng, psi, cap):
    """A random degree-lowering operator with unit shift bound budget."""
    drop = rng.randint(1, 3)
    images = [Polynomial.zero() for _ in range(min(drop, cap + 1))]
    for n in range(drop, cap + 1):
        images.append(_random_polynomial(rng, n - drop))
    return GradedOperator(images[:cap + 1], cap)


def check_random_roundtrip(cap: int) -> list[CheckResult]:
    count = 20
    rng = random.Random(RANDOM_SEED)
    out = []
    for name, psi in standard_suite_psis(cap):
        base = psi_derivative_op(psi, cap)
        ok_round = True
        ok_conj = True
        for i in range(count):
            t = _random_lowering_op(rng, psi, cap)
            exp = expand_in_monomials(t, base)
            back = reconstruct_from_monomial_form(exp, cap)
            if back != t.truncated(back.cap):
                ok_round = False
            if i < 3:
                conj_ok, _ = conjugate_indicator_check(t, base, LAMBDA_POINTS)
                if not conj_ok:
                    ok_conj = False
        out.append(_check("roundtrip[%s] %d random degree-lowering operators "
                          "expand and reconstruct exactly" % (name, count),
                          ok_round))
        out.append(_check("conjugation[%s] eigenseries conjugation matches the "
                          "expansion coefficients at %d sample points"
                          % (name, len(LAMBDA_POINTS)), ok_conj))
    return out


def check_first_expansion(cap: int) -> list[CheckResult]:
    n_max = min(8, cap)
    rng = random.Random(RANDOM_SEED + 1)
    out = []
    for name, psi in standard_suite_psis(cap):
        delta = DeltaOperator.from_operator(forward_difference_op(psi, cap), psi)
        basic = delta.basic(n_max)
        ok = True
        for _ in range(4):
            # shift-invariant: a rational series in the difference operator
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for _ in range(6)]
            t = _series_in(delta.op, coeffs)
            a = first_expansion_coeffs(t, delta).coeffs
            for n in range(n_max + 1):
                got = t.apply(basic.polys[n])
                want = Polynomial.zero()
                for k in range(min(n, len(a) - 1) + 1):
                    w = a[k] * psi.factorial(n) / psi.factorial(n - k)
                    want = want + basic.polys[n - k] * w
                if got != want:
                    ok = False
            if list(a[:len(coeffs)]) != coeffs:
                ok = False
        out.append(_check("first-expansion[%s] coefficient readout reproduces "
                          "the operator on the basis, n<=%d" % (name, n_max),
                          ok))
    return out


def _series_in(base: GradedOperator, coeffs) -> GradedOperator:
    total = GradedOperator.zero(base.cap)
    power = GradedOperator.identity(base.cap)
    for k, c in enumerate(coeffs):
        if k:
            power = power * base
        if c:
            total = total + power * c
    return total


# -- product rules and mixed commutation ------------------------------------

def check_leibniz(cap: int) -> list[CheckResult]:
    rng = random.Random(RANDOM_SEED + 2)
    out = []
    deg = min(8, cap // 2)
    pairs = [(_random_polynomial(rng, deg), _random_polynomial(rng, deg))
             for _ in range(6)]

    for q in (Fraction(1, 2), Fraction(2), Fraction(0)):
        psi = PsiSequence.jackson(q, cap)
        ok = all(q_leibniz(q, f, g) == psi_derivative(psi, f * g)
                 for f, g in pairs)
        out.append(_check("leibniz[q=%s] scaled-argument product rule" % q, ok))

    num = Polynomial((Fraction(1), Fraction(-1)))
    for q in (Fraction(1, 2), Fraction(3)):
        den = Polynomial((Fraction(1) - q,))
        rat = RationalFunction(num, den)
        psi = PsiSequence.rational(rat, q, cap)
        ok = all(r_leibniz(rat, q, f, g) == psi_derivative(psi, f * g)
                 for f, g in pairs)
        out.append(_check("leibniz[ratio-of-values, q=%s] product rule" % q, ok))

    for name, psi in standard_suite_psis(cap):
        ok = all(psi_leibniz(psi, f, g) == psi_derivative(psi, f * g)
                 for f, g in pairs)
        out.append(_check("leibniz[%s] weighted product rule" % name, ok))
    return out


def check_divided_difference_series(cap: int) -> list[CheckResult]:
    deg_max = 12
    rng = random.Random(RANDOM_SEED + 3)
    polys = [Polynomial.monomial(n) for n in range(deg_max + 1)]
    polys += [_random_polynomial(rng, deg_max) for _ in range(5)]
    ok = True
    for p in polys:
        total = Polynomial.zero()
        deriv = p
        fact = 1
        for n in range(1, deg_max + 2):
            deriv = deriv.derivative()
            fact *= n
            if deriv.is_zero:
                break
            total = total + Polynomial.monomial(n - 1) * deriv * Fraction((-1) ** (n + 1), fact)
        if total != divided_difference(p):
            ok = False
    return [_check("alternating derivative series reproduces the "
                   "divided-difference operator, deg<=%d" % deg_max, ok)]


def _reorders(psi, n, m, j) -> bool:
    """Lowering n times past raising m times on x^j equals its reordering
    sum_k C(n,k) C(m,k) k! raise^(m-k) lower^(n-k), on the coefficient of
    x^(j+m-n) (zero when that degree is negative)."""
    lhs = psi.raising_ratio(j, m) * psi.falling(j + m, n) if j + m >= n else 0
    rhs = sum(comb(n, k) * comb(m, k) * factorial(k) * psi.falling(j, n - k)
              * psi.raising_ratio(j - (n - k), m - k)
              for k in range(min(n, m) + 1) if n - k <= j)
    return lhs == rhs


def check_mixed_powers(cap: int) -> list[CheckResult]:
    nm_max, j_max = 5, 6
    limit = cap + 2  # highest weight every suite member can supply
    out = []
    for name, psi in standard_suite_psis(cap):
        ok = all(_reorders(psi, n, m, j)
                 for n in range(nm_max + 1) for m in range(nm_max + 1)
                 for j in range(j_max + 1) if j + m <= limit)
        out.append(_check("mixed-powers[%s] lowering past raising reorders "
                          "with binomial weights, n,m<=%d, j<=%d"
                          % (name, nm_max, j_max), ok))
    return out


def check_exp_commutation(cap: int) -> list[CheckResult]:
    order, j_max = 10, 6
    # (1/a! b!) lower^a raise^b reorders with weights 1/(u! (a-u)! (b-u)!),
    # which is the mixed-powers identity divided through by a! b!.
    limit = cap + 2
    out = []
    for name, psi in standard_suite_psis(cap):
        ok = all(_reorders(psi, a, b, j)
                 for a in range(order + 1) for b in range(order + 1 - a)
                 for j in range(j_max + 1) if j + b <= limit)
        out.append(_check("exp-commutation[%s] exponential reordering holds "
                          "through total order %d" % (name, order), ok))
    return out


# -- integration ------------------------------------------------------------

def check_integration(cap: int) -> list[CheckResult]:
    n_max = min(15, cap)
    rng = random.Random(RANDOM_SEED + 4)
    out = []
    polys = [Polynomial.monomial(n) for n in range(n_max + 1)]
    polys += [_random_polynomial(rng, n_max) for _ in range(4)]

    for q in (Fraction(1, 2), Fraction(2), Fraction(0)):
        psi = PsiSequence.jackson(q, cap)
        ok = all(psi_derivative(psi, q_integral(q, p)) == p for p in polys)
        out.append(_check("integration[q=%s] geometric antidifference is a "
                          "right inverse, deg<=%d" % (q, n_max), ok))

    num = Polynomial((Fraction(1), Fraction(-1)))
    for q in (Fraction(1, 2), Fraction(3)):
        den = Polynomial((Fraction(1) - q,))
        rat = RationalFunction(num, den)
        psi = PsiSequence.rational(rat, q, cap)
        ok = all(psi_derivative(psi, r_integral(rat, q, p)) == p for p in polys)
        out.append(_check("integration[ratio-of-values, q=%s] right inverse, "
                          "deg<=%d" % (q, n_max), ok))

    for name, psi in standard_suite_psis(cap):
        ok = all(psi_derivative(psi, psi_integral(psi, p)) == p for p in polys)
        out.append(_check("integration[%s] weighted antiderivative is a right "
                          "inverse, deg<=%d" % (name, n_max), ok))

    psi = PsiSequence.classical(cap)
    p = Polynomial((Fraction(1), Fraction(1)))
    lost = psi_integral(psi, psi_derivative(psi, p))
    out.append(_check("integration: constants are lost, so it is one-sided",
                      lost != p))

    ok = True
    for name, psi in standard_suite_psis(cap):
        d = psi_derivative_op(psi, cap)
        prod = weight_op(psi, cap - 1) * divided_difference_op(cap)
        if prod != d.truncated(prod.cap):
            ok = False
    out.append(_check("integration: weighted derivative factors through the "
                      "unit-weight one", ok))

    ok = True
    for q in (Fraction(1, 2), Fraction(2), Fraction(0)):
        psi = PsiSequence.jackson(q, cap)
        if any(psi_integral(psi, p) != q_integral(q, p) for p in polys):
            ok = False
    out.append(_check("integration: weighted route with geometric weights "
                      "matches the q route", ok))
    return out


# -- star product and contagion weights -------------------------------------

def check_poisson(cap: int) -> list[CheckResult]:
    order, m_max = 14, 5
    out = []
    work_cap = order + 1
    for name, psi in standard_suite_psis(max(cap, work_cap)):
        for lam in (Fraction(1), Fraction(3, 2)):
            ws, norm = poisson_weights(psi, lam, m_max, work_cap)
            ws_rec = poisson_weights_recursion(psi, lam, m_max, work_cap)
            ws_rai = poisson_weights_raising(psi, lam, m_max, work_cap)
            ok_eq = all(ws[m] == ws_rec[m] == ws_rai[m]
                        for m in range(m_max + 1))
            out.append(_check("poisson[%s,rate=%s] product, recursion and "
                              "raising-series routes agree, m<=%d"
                              % (name, lam, m_max), ok_eq))

            ok_ode = True
            for m in range(m_max + 1):
                pm = ws[m].as_polynomial()
                prev = ws[m - 1].as_polynomial() if m else Polynomial.zero()
                resid = psi_derivative(psi, pm) + pm * lam - prev * lam
                if not resid.truncated(order).is_zero:
                    ok_ode = False
            out.append(_check("poisson[%s,rate=%s] weights satisfy the birth "
                              "cascade through order %d" % (name, lam, order),
                              ok_ode))

            partial = TruncatedSeries.zero(work_cap)
            for m in range(m_max + 1):
                partial = partial + ws[m]
            head = all(partial.coefficient(k) == (1 if k == 0 else 0)
                       for k in range(m_max + 1))
            out.append(_check("poisson[%s,rate=%s] partial sums open with "
                              "unity through order %d" % (name, lam, m_max),
                              head))

            out.append(_check("poisson[%s,rate=%s] normalizer collapses to "
                              "one" % (name, lam),
                              norm == TruncatedSeries.one(norm.cap)))
    return out


# -- generating functions ---------------------------------------------------

def check_generating_function(cap: int) -> list[CheckResult]:
    n_max = min(10, cap - 1)
    out = []
    psi = PsiSequence.classical(cap)
    delta = DeltaOperator.from_operator(forward_difference_op(psi, cap), psi)
    polys = delta.basic(n_max).polys
    rev = delta.indicator.reversion()
    powers = [TruncatedSeries.one(cap)]
    for _ in range(n_max):
        powers.append(powers[-1] * rev)
    ok = True
    for n in range(n_max + 1):
        want = Polynomial([powers[k].coefficient(n) / psi.factorial(k)
                           for k in range(n + 1)])
        if polys[n] * (Fraction(1) / psi.factorial(n)) != want:
            ok = False
    out.append(_check("generating function: reverted indicator powers give "
                      "the normalized basis coefficients, n<=%d" % n_max, ok))

    s_max = min(8, cap - 1)
    c = Fraction(3, 2)
    d = derivative_op(cap)
    ddelta = DeltaOperator.from_operator(d, psi)
    s_op = translation_op(psi, c, cap)
    sheffer = sheffer_sequence(ddelta, s_op, s_max)
    ok = all(sheffer[n] == Polynomial((-c, Fraction(1))) ** n
             for n in range(s_max + 1))
    out.append(_check("generating function: translated derivative pair gives "
                      "shifted monomials, n<=%d" % s_max, ok))
    return out


# -- special series ---------------------------------------------------------

def check_special(cap: int) -> list[CheckResult]:
    m_max = 5
    out = []
    for name, psi in standard_suite_psis(cap):
        full = exp_psi_series(psi, cap)
        ok_part = True
        ok_cascade = True
        for m in range(1, m_max + 1):
            slices = [psi_hyperbolic(psi, m, j, cap) for j in range(m)]
            total = TruncatedSeries.zero(cap)
            for s in slices:
                total = total + s
            if total != full:
                ok_part = False
            for j in range(m):
                dropped = _series_derivative(psi, slices[j], cap - 1)
                target = slices[(j - 1) % m].truncated(cap - 1)
                if dropped != target:
                    ok_cascade = False
        out.append(_check("special[%s] residue slices partition the "
                          "exponential, m<=%d" % (name, m_max), ok_part))
        out.append(_check("special[%s] lowering rotates the residue slices"
                          % name, ok_cascade))

    zero = PsiSequence.jackson(Fraction(0), cap)
    geo = exp_psi_series(zero, cap)
    out.append(_check("special[q=0] exponential degenerates to the geometric "
                      "series", all(c == 1 for c in geo.coeffs)))
    return out


def _series_derivative(psi, series: TruncatedSeries, cap: int) -> TruncatedSeries:
    p = psi_derivative(psi, series.as_polynomial())
    return TruncatedSeries.from_polynomial(p, cap)


# -- suite registry ---------------------------------------------------------

SUITES = {
    "ghw": (check_ghw,),
    "binomial": (check_binomial, check_parity),
    "rodrigues": (check_rodrigues,),
    "expansion": (check_expansion_goldens, check_detection,
                  check_random_roundtrip, check_first_expansion,
                  check_generating_function),
    "leibniz": (check_leibniz, check_divided_difference_series,
                check_mixed_powers, check_exp_commutation),
    "integration": (check_integration,),
    "poisson": (check_poisson,),
    "special": (check_special,),
}

SUITE_ORDER = ("ghw", "binomial", "rodrigues", "expansion", "leibniz",
               "integration", "poisson", "special")


def run_suite(name: str, cap: int) -> list[CheckResult]:
    if name not in SUITES:
        raise PsiUmbralError("unknown suite %r (have: %s)"
                             % (name, ", ".join(SUITE_ORDER)),
                             code="unknown-suite")
    results = []
    for fn in SUITES[name]:
        results.extend(fn(cap))
    return results


def run_all(cap: int) -> list[tuple[str, list[CheckResult]]]:
    return [(name, run_suite(name, cap)) for name in SUITE_ORDER]
