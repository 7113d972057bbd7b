"""Exhaustive identity checks over a standard family of weight sequences.

Every check here is exact rational arithmetic.  The functions return
``CheckResult`` records rather than raising, so the command line and the
acceptance tests can both consume them and report one line per check.

The heaviest checks run their sums on ints: the binomial residual and
the first-expansion readout as combinations over one denominator, the
reordering identity as int pairs compared cross-multiplied.  Each still
reads the function it checks (``binomial``, ``falling``,
``raising_ratio``, ``translation_coefficients``, the three Poisson
routes) and never the factorial pairs behind them.

Each check walks its cases (dicts such as ``{"n": 4, "y": 0}``) and stops
at the first one that fails, which its ``detail`` names as ``n=4, y=0``,
or as ``n=4 (raised IndexError)`` when the case raised one of
``CASE_FAULTS``.  Random inputs are drawn before the walk, so a failure
moves no later draw.

Within one request each suite builds what its cases share once, on an
object the request built, so nothing outlives the request: the binomial
check forms each n's residual by powers of y once for all its sample
points, a delta keeps S^(-1), its powers, q' and (q')^(-1) for the four
closed forms, the first-expansion base keeps its rows base^k x^n for every
drawn series, and the reordering check evaluates each (weights, n, m, j)
once for its mixed-powers and its exp-commutation rows, each of which
still walks its own cases.  What is shared stays on one side of a
comparison: the translation's coefficients are still set against the
split over the basis, the closed forms against the triangular solve, the
series built from the base's rows against their first-expansion readout,
and a reordering's two sums against each other.

The standard family deliberately mixes the regimes that behave
differently: classical weights, geometric weights with ratio below and
above one, the ratio-zero degenerate case (all weights one past n = 0),
and a custom table with superlinear growth.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, partial
from math import comb, factorial

from .algebra import (Polynomial, TruncatedSeries, _combination,
                      _from_ints, _generating_sum, _over_lcm,
                      _pairs_over_lcm)
from .errors import (JobSpecError, NotDegreeLoweringError,
                     NotShiftInvariantError, SelfCheckError)
from .expansion import (
    _base_powers_on_monomials,
    _series_powers,
    conjugate_indicator_check,
    detect_psi_series,
    expand_in_monomials,
    first_expansion_coeffs,
    reconstruct_from_monomial_form,
)
from .integration import psi_integral, q_integral, r_integral
from .operators import (
    GradedOperator,
    _derived,
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
    translation_coefficients,
)

RANDOM_SEED = 20240817

# Rational sample points for identities that are polynomial in a free
# variable.  Eleven points pin any polynomial of degree ten.
Y_POINTS = tuple(Fraction(a, b) for a, b in
                 [(0, 1), (1, 1), (-1, 1), (2, 1), (-2, 1), (3, 1), (-3, 1),
                  (1, 2), (-1, 2), (3, 2), (-3, 2)])

LAMBDA_POINTS = (Fraction(1), Fraction(1, 2), Fraction(3, 2))

_JACKSON_QS = (Fraction(1, 2), Fraction(2), Fraction(0))
_RATIO_QS = (Fraction(1, 2), Fraction(3))


class CheckResult:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name = name
        self.passed = passed
        self.detail = detail

    def __repr__(self):
        return "CheckResult(%r, %s)" % (self.name, self.passed)


def _check(name, passed):
    return CheckResult(name, bool(passed))


# What a check raises when the code under it is wrong, as its inputs are
# valid at every cap the command line accepts; any other exception,
# ``CapExceededError`` among them, propagates.
CASE_FAULTS = (ArithmeticError, IndexError, ValueError, SelfCheckError,
               NotDegreeLoweringError, NotShiftInvariantError)


def _named(case) -> str:
    return ", ".join("%s=%s" % item for item in case.items())


def _verdict(name, cases, holds):
    """The check ``name`` over ``cases``, dicts of named values: it fails at
    the first case where ``holds(**case)`` is false, with that case as its
    detail, and passes when every case holds.  A ``CASE_FAULTS`` exception
    raised by ``holds`` fails it at that case too, with the exception's
    type in the detail: ``n=4 (raised IndexError)``."""
    try:
        for case in cases:
            if not holds(**case):
                return CheckResult(name, False, _named(case))
    except CASE_FAULTS as exc:
        return CheckResult(name, False, "%s (raised %s)"
                           % (_named(case), type(exc).__name__))
    return CheckResult(name, True)


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


def _ratio_of_values(q, cap):
    """The rational function (1 - x)/(1 - q) and its weights at ratio q."""
    rat = RationalFunction(Polynomial((Fraction(1), Fraction(-1))),
                           Polynomial((Fraction(1) - q,)))
    return rat, PsiSequence.rational(rat, q, cap)


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

def _binomial_residual(psi, binomials, polys, columns, n):
    """r_n, whose generating sum at y is the translation of p_n by y minus
    its split sum_k binom_psi(n, k) p_(n-k)(y) p_k: r_n[j] is T_j(p_n)
    minus the y^j coefficient of the split, for j below the widest of
    p_0..p_n.  Each entry is one combination, the binomials and column j
    of the basis' coefficients each as ints over one denominator.  A
    residual whose every entry is zero comes back as [], decided once per
    n for all the sample points."""
    b, b_den = binomials[n]
    t = translation_coefficients(psi, polys[n])
    r = []
    for j in range(max(len(p._num) for p in polys[:n + 1])):
        c, c_den = columns[j]
        den = b_den * c_den
        terms = [(-b[k] * c[n - k], polys[k], 0) for k in range(n + 1)]
        if j < len(t):
            terms.append((den, t[j], 0))
        r.append(_combination(terms, den))
    return r if any(not p.is_zero for p in r) else []


def _vanishes(r, y) -> bool:
    """Is sum_j y^j r[j] zero?  An empty r, a residual that vanishes
    entry by entry, is read without a sum."""
    return not r or _generating_sum(r, y).is_zero


def check_binomial(cap: int) -> list[CheckResult]:
    """E^y p_n = sum_k binom_psi(n, k) p_k p_(n-k)(y) at every (n, y): both
    sides are polynomials in y, so each n's residual by powers of y is
    computed once, and a case holds where it sums to zero at y."""
    n_max = min(10, cap)
    cases = [{"n": n, "y": y} for n in range(n_max + 1) for y in Y_POINTS]
    out = []
    for name, psi in standard_suite_psis(cap):
        binomials = [_over_lcm([psi.binomial(n, k) for k in range(n + 1)])
                     for n in range(n_max + 1)]
        for base_name, q in _delta_bases(psi, cap):
            polys = basic_sequence_solve(q, psi, n_max).polys
            columns = [_pairs_over_lcm([(p._num[j] if j < len(p._num) else 0,
                                         p._den) for p in polys])
                       for j in range(max(len(p._num) for p in polys))]
            residual = cache(partial(_binomial_residual, psi, binomials,
                                     polys, columns))
            out.append(_verdict(
                "binomial[%s,%s] translation splits over the basis, n<=%d at "
                "%d points" % (name, base_name, n_max, len(Y_POINTS)), cases,
                lambda n, y: _vanishes(residual(n), y)))
    return out


def check_parity(cap: int) -> list[CheckResult]:
    odd = [{"n": n} for n in range(1, min(15, cap) + 1, 2)]
    out = [_verdict("parity[%s] odd alternating binomial sums vanish" % name,
                    odd, lambda n: sum(((-1) ** k) * psi.binomial(n, k)
                                       for k in range(n + 1)) == 0)
           for name, psi in standard_suite_psis(cap)]
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
            delta = DeltaOperator.from_indicator([Fraction(0)] + tail[:cap],
                                                 psi, cap)
            reference = delta.basic(n_max).polys
            forms = {f: rodrigues_sequence(delta, n_max, formula=f)
                     for f in (1, 2, 3, 4)}
            out.append(_verdict(
                "rodrigues[%s,%s] four closed forms agree with the triangular "
                "solve, n<=%d" % (name, tail_name, n_max),
                [{"formula": f, "n": n} for f in forms for n in range(n_max + 1)],
                lambda formula, n: forms[formula][n] == reference[n]))
    return out


# -- operator expansion -----------------------------------------------------

def check_expansion_goldens(cap: int) -> list[CheckResult]:
    k_max = min(12, cap)
    d = derivative_op(cap)
    delta = forward_difference_op(PsiSequence.classical(cap), cap)
    exp_d = expand_in_monomials(d, delta)
    exp_delta = expand_in_monomials(delta, d)
    # q_0 is zero and every later q_k a constant
    out = [_verdict("golden: derivative in forward differences has "
                    "coefficients (-1)^(k-1)/k, k<=%d" % k_max,
                    [{"k": k} for k in range(min(k_max, exp_d.order) + 1)],
                    lambda k: exp_d.coeff_polys[k] == Polynomial(
                        (Fraction((-1) ** (k - 1), k) if k else 0,))),
           _verdict("golden: forward difference in derivatives has "
                    "coefficients 1/k!, k<=%d" % k_max,
                    [{"k": k} for k in range(min(k_max, exp_delta.order) + 1)],
                    lambda k: exp_delta.coeff_polys[k] == Polynomial(
                        (Fraction(1, factorial(k)) if k else 0,)))]
    pairs = {"derivative": (exp_d, d), "difference": (exp_delta, delta)}
    out.append(_verdict("golden: both expansions reconstruct their operator",
                        [{"operator": name} for name in pairs],
                        lambda operator: _reconstructs(*pairs[operator], cap)))
    return out


def _reconstructs(exp, op, cap) -> bool:
    back = reconstruct_from_monomial_form(exp, cap)
    return back == op.truncated(back.cap)


def _is_square_weight_derivative(series=True, scale=1, n=0, n_psi=0, k=1,
                                 c_k=1) -> bool:
    """A detection readout of the derivative with weights n^2; a case gives
    one readout, and the defaults of the others agree."""
    return series and scale == 1 and n_psi == n * n and c_k == (k == 1)


def check_detection(cap: int) -> list[CheckResult]:
    d = derivative_op(cap + 2)
    x = multiply_x_op(cap + 2)
    dxd = d * x * d
    res = detect_psi_series(dxd)
    readouts = [{"series": res.is_series}]
    if res.is_series:
        readouts.append({"scale": res.scale})
        readouts += [{"n": n, "n_psi": w} for n, w in
                     enumerate(res.psi.values(res.psi.stored_cap), 1)]
        readouts += [{"k": k, "c_k": c} for k, c in enumerate(res.series_coeffs)]
    out = [_verdict("detect: second-order self-adjoint form is a weighted "
                    "derivative series with weights n^2", readouts,
                    _is_square_weight_derivative)]

    bad = Fraction(1, 2) * dxd - Fraction(1, 3) * (d ** 3)
    res2 = detect_psi_series(bad)
    out.append(_check("detect: mixed second/third order combination is "
                      "rejected with witness (4,3)",
                      (not res2.is_series) and res2.witness == (4, 3)))
    return out


def _below(bits, n: int) -> int:
    """``randrange(n)`` for an int n > 0 through ``bits``, a generator's
    ``getrandbits``: like CPython, draw k = n.bit_length() bits until the
    value is below n, without ``randrange``'s argument checks."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _random_polynomial(rng, degree):
    """Coefficients a/b, a in -9..9 and b in 1..4 drawn in that order, as
    ints over 12, as ``randint`` draws them: ``_below(bits, 19)`` and
    ``_below(bits, 4)``, inlined, as these are most of verify's draws."""
    bits = rng.getrandbits
    nums = []
    for _ in range(degree + 1):
        a = bits(5)
        while a >= 19:
            a = bits(5)
        b = bits(3)
        while b >= 4:
            b = bits(3)
        nums.append((a - 9) * (12 // (b + 1)))
    return _from_ints(nums, 12)


def _sample_polys(rng, degree, count):
    """x^0 .. x^degree and ``count`` random polynomials of that degree, by
    label."""
    polys = {"x^%d" % n: Polynomial.monomial(n) for n in range(degree + 1)}
    polys.update(("random %d" % i, _random_polynomial(rng, degree))
                 for i in range(count))
    return polys


def _random_lowering_op(rng, cap):
    """A random degree-lowering operator with unit shift bound budget."""
    drop = _below(rng.getrandbits, 3) + 1
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
        ops = [_random_lowering_op(rng, cap) for _ in range(count)]
        exps = [expand_in_monomials(op, base) for op in ops]
        out.append(_verdict(
            "roundtrip[%s] %d random degree-lowering operators expand and "
            "reconstruct exactly" % (name, count),
            [{"trial": i} for i in range(count)],
            lambda trial: _reconstructs(exps[trial], ops[trial], cap)))
        out.append(_verdict(
            "conjugation[%s] eigenseries conjugation matches the expansion "
            "coefficients at %d sample points" % (name, len(LAMBDA_POINTS)),
            [{"trial": i} for i in range(3)],
            lambda trial: _conjugates(ops[trial], exps[trial])))
    return out


def _conjugates(op, exp) -> bool:
    """The conjugation check holds at every order and at every sample point."""
    ok, report = conjugate_indicator_check(op, exp, LAMBDA_POINTS)
    return ok and all(s["match"] for s in report["samples"])


def check_first_expansion(cap: int) -> list[CheckResult]:
    n_max = min(8, cap)
    rng = random.Random(RANDOM_SEED + 1)
    out = []
    for name, psi in standard_suite_psis(cap):
        delta = DeltaOperator.from_operator(forward_difference_op(psi, cap), psi)
        basic = delta.basic(n_max).polys
        # shift-invariant: rational series in the difference operator
        bits = rng.getrandbits
        drawn = [[Fraction(_below(bits, 11) - 5, _below(bits, 3) + 1)
                  for _ in range(6)] for _ in range(4)]
        ts = [_series_in(delta, coeffs) for coeffs in drawn]
        read = [first_expansion_coeffs(t, delta) for t in ts]

        def holds(trial, n=None, k=None):
            a = read[trial]
            if n is None:
                return k <= a.cap and a.coefficient(k) == drawn[trial][k]
            # T p_n = sum_k a_k (n_psi! / (n-k)_psi!) p_(n-k), one
            # combination on ints over the lcm of its multipliers'
            # denominators
            falls = [psi.falling(n, k) for k in range(min(n, a.cap) + 1)]
            cs, den = _pairs_over_lcm([(x * f.numerator, f.denominator)
                                       for x, f in zip(a._num, falls)])
            return ts[trial].apply(basic[n]) == _combination(
                ((c, basic[n - k], 0) for k, c in enumerate(cs)),
                den * a._den)

        cases = [case for trial in range(len(drawn)) for case in
                 [{"trial": trial, "n": n} for n in range(n_max + 1)]
                 + [{"trial": trial, "k": k} for k in range(6)]]
        out.append(_verdict("first-expansion[%s] coefficient readout "
                            "reproduces the operator on the basis, n<=%d"
                            % (name, n_max), cases, holds))
    return out


def _series_in(base: GradedOperator, coeffs) -> GradedOperator:
    """sum_k c_k base^k as a plain table: row n is one combination of the
    base^k x^n, which a series base keeps for every series in it."""
    cs, den = _over_lcm(coeffs)
    top = len(cs) - 1
    powers = _derived(base, ("powers on monomials", top),
                      lambda: _base_powers_on_monomials(base, top, base.cap))
    return GradedOperator.from_monomial_rule(lambda n: _combination(
        ((c, powers[k][n], 0) for k, c in enumerate(cs)), den), base.cap)


# -- product rules and mixed commutation ------------------------------------

def check_leibniz(cap: int) -> list[CheckResult]:
    rng = random.Random(RANDOM_SEED + 2)
    deg = min(8, cap // 2)
    pairs = [(_random_polynomial(rng, deg), _random_polynomial(rng, deg))
             for _ in range(6)]
    products = [p * q for p, q in pairs]

    def product_rule(name, psi, rule):
        return _verdict(name, [{"pair": i} for i in range(len(pairs))],
                        lambda pair: (rule(*pairs[pair]) == psi_derivative(
                            psi, products[pair])))

    out = [product_rule("leibniz[q=%s] scaled-argument product rule" % q,
                        PsiSequence.jackson(q, cap), partial(q_leibniz, q))
           for q in _JACKSON_QS]
    for q in _RATIO_QS:
        rat, psi = _ratio_of_values(q, cap)
        out.append(product_rule("leibniz[ratio-of-values, q=%s] product rule"
                                % q, psi, partial(r_leibniz, rat, q)))
    out += [product_rule("leibniz[%s] weighted product rule" % name, psi,
                         partial(psi_leibniz, psi))
            for name, psi in standard_suite_psis(cap)]
    return out


def _alternating_derivative_series(p: Polynomial) -> Polynomial:
    """sum_(n>=1) (-1)^(n+1) x^(n-1) p^(n) / n!, one combination of the
    derivatives over N! for N = deg p: p^(n) is read n - 1 places up with
    the multiplier (-1)^(n+1) N!/n!."""
    derivs = []
    deriv = p.derivative()
    while not deriv.is_zero:
        derivs.append(deriv)
        deriv = deriv.derivative()
    top = factorial(len(derivs))
    return _combination([((top if n % 2 else -top) // factorial(n), d, n - 1)
                         for n, d in enumerate(derivs, 1)], top)


def check_divided_difference_series(cap: int) -> list[CheckResult]:
    deg_max = 12
    polys = _sample_polys(random.Random(RANDOM_SEED + 3), deg_max, 5)
    return [_verdict("alternating derivative series reproduces the "
                     "divided-difference operator, deg<=%d" % deg_max,
                     [{"p": label} for label in polys],
                     lambda p: (_alternating_derivative_series(polys[p])
                                == divided_difference(polys[p])))]


def _reorders(psi, n, m, j) -> bool:
    """Lowering n times past raising m times on x^j equals its reordering
    sum_k C(n,k) C(m,k) k! raise^(m-k) lower^(n-k), on the coefficient of
    x^(j+m-n) (zero when that degree is negative).  Both sides are summed
    as int pairs and compared cross-multiplied."""
    lhs, lhs_den = 0, 1
    if j + m >= n:
        r, f = psi.raising_ratio(j, m), psi.falling(j + m, n)
        lhs, lhs_den = r.numerator * f.numerator, r.denominator * f.denominator
    rhs, rhs_den = 0, 1
    for k in range(max(n - j, 0), min(n, m) + 1):
        f, r = psi.falling(j, n - k), psi.raising_ratio(j - (n - k), m - k)
        t_den = f.denominator * r.denominator
        rhs = (rhs * t_den + comb(n, k) * comb(m, k) * factorial(k)
               * f.numerator * r.numerator * rhs_den)
        rhs_den *= t_den
    return lhs * rhs_den == rhs * lhs_den


def check_reorderings(cap: int) -> list[CheckResult]:
    """Criteria 8 and 9, one normal-ordering identity at two truncations:
    ``_reorders`` over the mixed-powers cases, n, m <= 5, and then over the
    exp-commutation cases, n + m <= 10, each under every weight set.  A
    weight set evaluates each (n, m, j) once, as every mixed-powers case is
    an exp-commutation case too, and each check still names its own first
    failing case."""
    nm_max, order, j_max = 5, 10, 6
    limit = cap + 2  # highest weight every suite member can supply
    mixed = [{"n": n, "m": m, "j": j}
             for n in range(nm_max + 1) for m in range(nm_max + 1)
             for j in range(j_max + 1) if j + m <= limit]
    # (1/a! b!) lower^a raise^b reorders with weights 1/(u! (a-u)! (b-u)!),
    # which is the mixed-powers identity divided through by a! b!.
    exp = [{"n": a, "m": b, "j": j}
           for a in range(order + 1) for b in range(order + 1 - a)
           for j in range(j_max + 1) if j + b <= limit]
    holds = {name: cache(partial(_reorders, psi))
             for name, psi in standard_suite_psis(cap)}
    checks = [("mixed-powers[%%s] lowering past raising reorders with "
               "binomial weights, n,m<=%d, j<=%d" % (nm_max, j_max), mixed),
              ("exp-commutation[%%s] exponential reordering holds through "
               "total order %d" % order, exp)]
    return [_verdict(title % name, cases, holds[name])
            for title, cases in checks for name in holds]


# -- integration ------------------------------------------------------------

def check_integration(cap: int) -> list[CheckResult]:
    n_max = min(15, cap)
    polys = _sample_polys(random.Random(RANDOM_SEED + 4), n_max, 4)
    cases = [{"p": label} for label in polys]

    def right_inverse(name, psi, integral):
        return _verdict(name, cases, lambda p: psi_derivative(
            psi, integral(polys[p])) == polys[p])

    jackson = {q: PsiSequence.jackson(q, cap) for q in _JACKSON_QS}
    out = [right_inverse("integration[q=%s] geometric antidifference is a "
                         "right inverse, deg<=%d" % (q, n_max), psi,
                         partial(q_integral, q))
           for q, psi in jackson.items()]
    for q in _RATIO_QS:
        rat, psi = _ratio_of_values(q, cap)
        out.append(right_inverse("integration[ratio-of-values, q=%s] right "
                                 "inverse, deg<=%d" % (q, n_max), psi,
                                 partial(r_integral, rat, q)))
    suite = dict(standard_suite_psis(cap))
    out += [right_inverse("integration[%s] weighted antiderivative is a right "
                          "inverse, deg<=%d" % (name, n_max), psi,
                          partial(psi_integral, psi))
            for name, psi in suite.items()]

    psi = PsiSequence.classical(cap)
    p = Polynomial((Fraction(1), Fraction(1)))
    lost = psi_integral(psi, psi_derivative(psi, p))
    out.append(_check("integration: constants are lost, so it is one-sided",
                      lost != p))

    def factors(weights):
        prod = weight_op(suite[weights], cap - 1) * divided_difference_op(cap)
        return prod == psi_derivative_op(suite[weights], cap).truncated(prod.cap)

    out.append(_verdict("integration: weighted derivative factors through the "
                        "unit-weight one", [{"weights": name} for name in suite],
                        factors))
    out.append(_verdict("integration: weighted route with geometric weights "
                        "matches the q route",
                        [{"q": q, "p": label} for q in jackson for label in polys],
                        lambda q, p: (psi_integral(jackson[q], polys[p])
                                      == q_integral(q, polys[p]))))
    return out


# -- star product and contagion weights -------------------------------------

def _births(psi, lam, ws, m, order) -> bool:
    """D_psi P_m = lam (P_(m-1) - P_m) through ``order``."""
    pm = ws[m].as_polynomial()
    prev = ws[m - 1].as_polynomial() if m else Polynomial.zero()
    resid = psi_derivative(psi, pm) + pm * lam - prev * lam
    return resid.truncated(order).is_zero


def check_poisson(cap: int) -> list[CheckResult]:
    order, m_max = 14, 5
    out = []
    work_cap = order + 1
    ms = [{"m": m} for m in range(m_max + 1)]
    for name, psi in standard_suite_psis(max(cap, work_cap)):
        for lam in (Fraction(1), Fraction(3, 2)):
            ws, norm = poisson_weights(psi, lam, m_max, work_cap)
            ws_rec = poisson_weights_recursion(psi, lam, m_max, work_cap)
            ws_rai = poisson_weights_raising(psi, lam, m_max, work_cap)
            partial_sum = sum(ws, TruncatedSeries.zero(work_cap))
            label = "poisson[%s,rate=%s]" % (name, lam)
            out += [
                _verdict("%s product, recursion and raising-series routes "
                         "agree, m<=%d" % (label, m_max), ms,
                         lambda m: ws[m] == ws_rec[m] == ws_rai[m]),
                _verdict("%s weights satisfy the birth cascade through order "
                         "%d" % (label, order), ms,
                         lambda m: _births(psi, lam, ws, m, order)),
                _verdict("%s partial sums open with unity through order %d"
                         % (label, m_max), [{"k": k} for k in range(m_max + 1)],
                         lambda k: partial_sum.coefficient(k)
                         == (1 if k == 0 else 0)),
                _check("%s normalizer collapses to one" % label,
                       norm == TruncatedSeries.one(norm.cap))]
    return out


# -- generating functions ---------------------------------------------------

def check_generating_function(cap: int) -> list[CheckResult]:
    n_max = min(10, cap - 1)
    psi = PsiSequence.classical(cap)
    delta = DeltaOperator.from_operator(forward_difference_op(psi, cap), psi)
    polys = delta.basic(n_max).polys
    powers = _series_powers(delta.indicator_reversion, n_max)
    out = [_verdict("generating function: reverted indicator powers give "
                    "the normalized basis coefficients, n<=%d" % n_max,
                    [{"n": n} for n in range(n_max + 1)],
                    lambda n: polys[n] * (Fraction(1) / psi.factorial(n))
                    == Polynomial([powers[k].coefficient(n) / psi.factorial(k)
                                   for k in range(n + 1)]))]

    s_max = min(8, cap - 1)
    c = Fraction(3, 2)
    d = derivative_op(cap)
    ddelta = DeltaOperator.from_operator(d, psi)
    s_op = translation_op(psi, c, cap)
    sheffer = sheffer_sequence(ddelta, s_op, s_max)
    out.append(_verdict("generating function: translated derivative pair "
                        "gives shifted monomials, n<=%d" % s_max,
                        [{"n": n} for n in range(s_max + 1)],
                        lambda n: sheffer[n] == Polynomial((-c, Fraction(1))) ** n))
    return out


# -- special series ---------------------------------------------------------

def check_special(cap: int) -> list[CheckResult]:
    m_max = 5
    out = []
    for name, psi in standard_suite_psis(cap):
        full = exp_psi_series(psi, cap)
        slices = {m: [psi_hyperbolic(psi, m, j, cap) for j in range(m)]
                  for m in range(1, m_max + 1)}
        out.append(_verdict("special[%s] residue slices partition the "
                            "exponential, m<=%d" % (name, m_max),
                            [{"m": m} for m in slices],
                            lambda m: sum(slices[m], TruncatedSeries.zero(cap))
                            == full))
        out.append(_verdict("special[%s] lowering rotates the residue slices"
                            % name,
                            [{"m": m, "j": j} for m in slices for j in range(m)],
                            lambda m, j: TruncatedSeries.from_polynomial(
                                psi_derivative(psi, slices[m][j].as_polynomial()),
                                cap - 1)
                            == slices[m][(j - 1) % m].truncated(cap - 1)))

    geo = exp_psi_series(PsiSequence.jackson(Fraction(0), cap), cap)
    out.append(_verdict("special[q=0] exponential degenerates to the geometric "
                        "series", [{"k": k} for k in range(geo.cap + 1)],
                        lambda k: geo.coefficient(k) == 1))
    return out


# -- suite registry ---------------------------------------------------------

SUITES = {
    "ghw": (check_ghw,),
    "binomial": (check_binomial, check_parity),
    "rodrigues": (check_rodrigues,),
    "expansion": (check_expansion_goldens, check_detection,
                  check_random_roundtrip, check_first_expansion,
                  check_generating_function),
    "leibniz": (check_leibniz, check_divided_difference_series,
                check_reorderings),
    "integration": (check_integration,),
    "poisson": (check_poisson,),
    "special": (check_special,),
}

SUITE_ORDER = tuple(SUITES)

#: The smallest cap the suites check at: below it a correct program fails
#: rows or raises, as the counterexample witnesses live at degree 4.
MIN_CAP = 6


def run_suite(name: str, cap: int) -> list[CheckResult]:
    """One suite's rows; ``JobSpecError`` for an unknown name or cap < MIN_CAP."""
    if name not in SUITES:
        raise JobSpecError("unknown suite %r (have: %s)"
                           % (name, ", ".join(SUITE_ORDER)), "/suite")
    if cap < MIN_CAP:
        raise JobSpecError("verify needs cap at least %d (counterexample "
                           "witnesses live at degree 4)" % MIN_CAP, "/cap")
    results = []
    for fn in SUITES[name]:
        try:
            results.extend(fn(cap))
        except CASE_FAULTS as exc:
            # raised before the check's cases: it fails as a whole
            results.append(CheckResult(fn.__name__, False, "raised %s"
                                       % type(exc).__name__))
    return results


def run_all(cap: int) -> list[tuple[str, list[CheckResult]]]:
    return [(name, run_suite(name, cap)) for name in SUITE_ORDER]
