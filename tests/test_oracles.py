"""Basic sequences, by the solve and by each closed formula of
``rodrigues_sequence``, the coordinates of monomials in the Abel basis,
Gaussian binomials and their alternating sums, the
Jackson derivative and raising operator, the gate and detection on a
dilated Jackson derivative, the Euler operator x D in Jackson
derivatives, series inverses, the normal ordering of D^n X^m
and the Poisson weights against classical closed forms.

The closed forms are the benchmark's oracles in ``perfbench/oracles.py``,
and the Laguerre coefficients and Jackson exponentials below: plain Fraction
code that imports nothing from psi_umbral, so a kernel that goes wrong cannot
agree with them by sharing the fault.  The benchmark file is loaded by path,
so each formula keeps one home.  The caps 13 and 21 are ones the
benchmark's series workload does not use.
"""

import contextlib
import importlib.util
import io
import json
import os
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from psi_umbral import star_product, verify
from psi_umbral.algebra import Polynomial, TruncatedSeries
from psi_umbral.cli import main
from psi_umbral.errors import NotShiftInvariantError
from psi_umbral.expansion import (detect_psi_series, expand_in_monomials,
                                  reconstruct_from_monomial_form)
from psi_umbral.exprparse import OperatorContext, parse_operator
from psi_umbral.operators import (GradedOperator, psi_derivative,
                                  psi_derivative_op, psi_raise,
                                  shift_invariant_coefficients)
from psi_umbral.psi import PsiSequence
from psi_umbral.umbral import DeltaOperator, rodrigues_sequence, translate

ORACLES_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "perfbench", "oracles.py")


def load_oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = load_oracles()

CAPS = (13, 21)


def run_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv) + ["--format", "json"])
    assert code == 0
    return json.loads(out.getvalue())


def basic_polys(op, cap):
    doc = run_json("basic", "--op", op, "--n", str(cap - 1), "--cap", str(cap))
    return [[Fraction(c) for c in p] for p in doc["polys"]]


def assert_closed_forms_give(delta, want):
    """Each of ``rodrigues_sequence``'s formulas 1-4 gives the polynomials
    want, from p_0 on, on delta."""
    for formula in (1, 2, 3, 4):
        got = rodrigues_sequence(delta, len(want) - 1, formula)
        assert [list(p.coeffs) for p in got] == want, formula


def parsed_delta(op, cap):
    psi = PsiSequence.classical(cap)
    return DeltaOperator.from_operator(
        parse_operator(op, OperatorContext(cap, psi)), psi)


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("h", ["1", "2", "-1/3"])
def test_basic_of_forward_difference_is_step_falling(cap, h):
    op = "Delta" if h == "1" else "E[%s] - 1" % h
    want = [oracles.step_falling(n, Fraction(h)) for n in range(cap)]
    assert basic_polys(op, cap) == want
    assert_closed_forms_give(parsed_delta(op, cap), want)


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("a", ["1", "-2", "3/5"])
def test_basic_of_derivative_times_shift_is_abel(cap, a):
    op = "D*E[%s]" % a
    want = [oracles.abel(n, Fraction(a)) for n in range(cap)]
    assert basic_polys(op, cap) == want
    assert_closed_forms_give(parsed_delta(op, cap), want)


@pytest.mark.parametrize("a", ["1/2", "-1/3"])
def test_monomials_in_the_abel_basis_follow_abels_identity(a):
    # x^n = sum_k C(n, k) (a k)^(n-k) x (x - a k)^(k-1): Abel's identity at
    # y = 0 (Roman 1984, ch. 2), read with 0^0 = 1 at k = 0
    u, v = (int(s) for s in a.split("/"))
    basis = parsed_delta("D*E[%s]" % a, 9).basic(8)
    for n in range(9):
        want = [Fraction(comb(n, k) * (u * k) ** (n - k), v ** (n - k))
                for k in range(n + 1)]
        assert basis.monomials_to_basis(Polynomial.monomial(n)) == want, n


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("q", ["2", "1/2", "-3/4"])
def test_jackson_binomials_are_gaussian(cap, q):
    want = oracles.gaussian_binomials(Fraction(q), cap)
    doc = run_json("table", "--psi", "q:" + q, "--cap", str(cap))
    table = [[Fraction(v) for v in row] for row in doc["binomials"]]
    assert table == want[:len(table)]
    psi = PsiSequence.jackson(Fraction(q), cap)
    assert [[psi.binomial(n, k) for k in range(n + 1)]
            for n in range(cap + 1)] == want


def laguerre(n):
    """Coefficients of the n-th Laguerre polynomial in the basic-sequence
    normalization, sum_(k=1..n) (-1)^k (n!/k!) C(n-1, k-1) x^k, and 1 at
    n = 0 (Roman, The Umbral Calculus, 1984)."""
    if n == 0:
        return [Fraction(1)]
    return [Fraction(0)] + [Fraction((-1) ** k * factorial(n) // factorial(k)
                                     * comb(n - 1, k - 1))
                            for k in range(1, n + 1)]


@pytest.mark.parametrize("cap", CAPS)
def test_basic_of_t_over_t_minus_one_is_laguerre(cap):
    # t/(t - 1) = -t - t^2 - ...
    delta = DeltaOperator.from_indicator([0] + [-1] * cap,
                                         PsiSequence.classical(cap), cap)
    want = [laguerre(n) for n in range(cap)]
    assert [list(p.coeffs) for p in delta.basic(cap - 1).polys] == want
    assert_closed_forms_give(delta, want)


def q_factorials(q, cap):
    """[n]_q! for n <= cap, with [n]_q = 1 + q + ... + q^(n-1)."""
    out = [Fraction(1)]
    for n in range(1, cap + 1):
        out.append(out[-1] * sum(q ** i for i in range(n)))
    return out


@pytest.mark.parametrize("q", ["-2", "-3/4"])
def test_jackson_derivative_and_raising_are_the_q_brackets(q):
    # D_q x^n = [n]_q x^(n-1), and the raising operator
    # x^n -> ((n+1)/[n+1]_q) x^(n+1) applied n times to 1 gives
    # n!/[n]_q! x^n.  At q = -2 the bracket [2]_q = -1 is negative.
    q = Fraction(q)
    fact = q_factorials(q, 13)
    psi = PsiSequence.jackson(q, 13)
    raised = Polynomial([1])
    for n in range(1, 14):
        monomial = Polynomial([0] * n + [1])
        assert psi_derivative(psi, monomial) == Polynomial(
            [0] * (n - 1) + [fact[n] / fact[n - 1]]), n
        raised = psi_raise(psi, raised)
        assert raised == Polynomial([0] * n + [factorial(n) / fact[n]]), n


@pytest.mark.parametrize("q", ["1/2", "-2"])
@pytest.mark.parametrize("a", ["1", "1/2", "-3"])
def test_a_dilated_jackson_derivative_is_invariant_only_undilated(a, q):
    # Q[a] D_q x^n = a^(n-1) [n]_q x^(n-1).  At a = 1 that is D_q, the
    # series z in the Jackson weights; otherwise row 2 is the first to
    # differ from z's, and detection reads the derivative of the weights
    # a^(n-1) [n]_q whatever a is.
    q, a = Fraction(q), Fraction(a)
    fact = q_factorials(q, 13)
    psi = PsiSequence.jackson(q, 13)
    op = parse_operator("Q[%s]*Dpsi" % a, OperatorContext(13, psi))
    z = [0, 1] + [0] * 12
    try:
        verdict = list(shift_invariant_coefficients(op, psi).coeffs)
    except NotShiftInvariantError as exc:
        verdict = exc.details
    assert verdict == (z if a == 1 else {"n": 2, "k": 1})
    found = detect_psi_series(op)
    assert found.is_series and found.scale == 1 and found.series_coeffs == z
    assert found.psi.values(13) == [a ** (n - 1) * fact[n] / fact[n - 1]
                                    for n in range(1, 14)]


@pytest.mark.parametrize("q", ["1/2", "2", "-1/2", "-3"])
def test_q_factorial_pairs_match_the_product_closed_form(q):
    # [n]_q! = prod_(k<=n) (1 - q^k) / (1 - q)^n (Kac & Cheung, Quantum
    # Calculus, 2002, ch. 1), with no recurrence in the weights
    q = Fraction(q)
    pairs = PsiSequence.jackson(q, 40).factorial_pairs(40)
    product = Fraction(1)
    for n in range(41):
        if n:
            product *= 1 - q ** n
        closed = product / (1 - q) ** n
        assert pairs[n] == (closed.numerator, closed.denominator), n


def gauss_alternating_sums(q, n_max):
    """(1 - q)(1 - q^3)...(1 - q^(n-1)) for even n and 0 for odd n,
    n <= n_max: for q = a/b each factor is (b^j - a^j)/b^j, multiplied on
    ints."""
    a, b = q.numerator, q.denominator
    out = []
    num = den = 1
    for n in range(n_max + 1):
        if n % 2:
            out.append(Fraction(0))
            num *= b ** n - a ** n
            den *= b ** n
        else:
            out.append(Fraction(num, den))
    return out


def alternating_binomial_sums(psi, n_max):
    return [sum((-1) ** k * psi.binomial(n, k) for k in range(n + 1))
            for n in range(n_max + 1)]


@pytest.mark.parametrize("q", ["2", "1/2", "-2", "3/5"])
def test_alternating_gaussian_sums_are_gauss_products(q):
    # sum_k (-1)^k [n, k]_q = (1 - q)(1 - q^3)...(1 - q^(n-1)) for even n
    # and 0 for odd n (Gauss; Andrews, The Theory of Partitions, 1976,
    # ch. 3).  The same weights with 5_psi moved by 1 keep every odd sum
    # at 0, by the symmetry of the binomials, and miss every even product
    # from n = 6 on.
    q = Fraction(q)
    want = gauss_alternating_sums(q, 14)
    psi = PsiSequence.jackson(q, 14)
    assert alternating_binomial_sums(psi, 14) == want
    values = psi.values(14)
    values[4] += 1
    got = alternating_binomial_sums(PsiSequence.custom(values), 14)
    assert [n for n in range(15) if got[n] != want[n]] == [6, 8, 10, 12, 14]


@pytest.mark.parametrize("cap", CAPS + (48,))
@pytest.mark.parametrize("q", ["1/2", "2", "-3"])
def test_inverse_of_small_q_exponential_is_big_one_at_minus_z(cap, q):
    # e_q(z) E_q(-z) = 1 with e_q(z) = sum z^n/[n]_q! and
    # E_q(z) = sum q^(n(n-1)/2) z^n/[n]_q! (Kac & Cheung, Quantum Calculus,
    # 2002, ch. 9)
    q = Fraction(q)
    fact = q_factorials(q, cap)
    small = [1 / f for f in fact]
    big_at_minus_z = [q ** (n * (n - 1) // 2) * (-1) ** n / f
                      for n, f in enumerate(fact)]
    assert list(TruncatedSeries(small, cap).inverse().coeffs) == big_at_minus_z


@pytest.mark.parametrize("cap", CAPS)
def test_inverse_of_the_classical_difference_factor_is_bernoulli(cap):
    # S = (e^z - 1)/z, so 1/S = z/(e^z - 1)
    s = TruncatedSeries([Fraction(1, factorial(k + 1)) for k in range(cap + 1)],
                        cap)
    assert list(s.inverse().coeffs) == oracles.bernoulli_series(cap)


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("q", ["1/2", "2", "-2"])
def test_jackson_translation_expands_to_the_exponential_constants(cap, q):
    # The shift x^n -> sum_k [n, k]_q y^k x^(n-k), tabulated from the
    # q-Pascal rule, is sum_k y^k / [k]_q! D_q^k by the q-Taylor formula
    # (Kac & Cheung, Quantum Calculus, 2002): its expansion in powers of
    # the Jackson derivative has the constants y^k / [k]_q!, in the series
    # base and in a table of D_q x^n = [n]_q x^(n-1) built by hand.  At
    # q = -2 some [k]_q! are negative, which no weight set of verify has.
    q, y = Fraction(q), Fraction(-3, 2)
    binomials = oracles.gaussian_binomials(q, cap)
    shift = GradedOperator([Polynomial([row[n - i] * y ** (n - i)
                                        for i in range(n + 1)])
                            for n, row in enumerate(binomials)])
    fact = q_factorials(q, cap)
    d_q = GradedOperator([Polynomial([0] * (n - 1) + [fact[n] / fact[n - 1]])
                          if n else Polynomial() for n in range(cap + 1)])
    want = [Polynomial([y ** k / f]) for k, f in enumerate(fact)]
    for base in (psi_derivative_op(PsiSequence.jackson(q, cap), cap), d_q):
        exp = expand_in_monomials(shift, base)
        assert list(exp.coeff_polys) == want
        assert reconstruct_from_monomial_form(exp, cap) == shift


@pytest.mark.parametrize("q", ["1/2", "-1/2", "2", "-2", "3/5"])
@pytest.mark.parametrize("text", ["X*D", "Xpsi*Dpsi"])
def test_the_euler_operator_expands_in_jackson_derivatives(text, q):
    # x D = sum_(n>=1) (1 - q)^(n-1)/[n]_q x^n D_q^n: on x^m the n-th term
    # is (1 - q^m)(1 - q^(m-1))...(1 - q^(m-n+1))/(1 - q^n), and the m terms
    # sum to m.  X*D and Xpsi*Dpsi in the Jackson weights are both x D.
    q, cap = Fraction(q), 14
    want = [Polynomial()]
    power, bracket = Fraction(1), Fraction(0)
    for n in range(1, cap + 1):
        bracket = 1 + q * bracket
        want.append(Polynomial([0] * n + [power / bracket]))
        power *= 1 - q
    ctx = OperatorContext(cap, PsiSequence.jackson(q, cap))
    t = parse_operator(text, ctx)
    exp = expand_in_monomials(t, parse_operator("Dpsi", ctx))
    assert list(exp.coeff_polys) == want
    assert reconstruct_from_monomial_form(exp, cap) == t


def binomial_translate(y, poly):
    """p(x + y) for p = sum c_n x^n by the binomial theorem:
    x^n -> sum_k C(n, k) y^k x^(n-k)."""
    out = [Fraction(0)] * len(poly)
    for n, c in enumerate(poly):
        for k in range(n + 1):
            out[n - k] += c * comb(n, k) * y ** k
    while out and out[-1] == 0:
        out.pop()
    return out


@pytest.mark.parametrize("weights",
                         [None, "1/2", "2", "-3/4", "c=3/2", "c=-2/3"])
def test_translate_is_the_binomial_theorem(weights):
    # classical weights shift by y, and so do the scaled weights c n,
    # whose binomials are C(n, k) too though their factorial chains break
    # (at n = 4 for c = 3/2); Jackson weights at q = weights shift by the
    # Gaussian binomials of the q-Pascal rule.  One weights object serves
    # every call, at mixed degrees and points, so its kept series are read
    # at reaches below the ones they were built for.
    rng = random.Random(weights)
    jackson = weights is not None and not weights.startswith("c=")
    if weights is None:
        psi = PsiSequence.classical(4)
    elif jackson:
        psi = PsiSequence.jackson(Fraction(weights), 4)
    else:
        c = Fraction(weights[2:])
        psi = PsiSequence.custom([c * n for n in range(1, 14)])
    for _ in range(40):
        poly = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(rng.randint(0, 13))]
        y = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        want = (oracles.jackson_translate(Fraction(weights), y, poly)
                if jackson else binomial_translate(y, poly))
        assert list(translate(psi, y, Polynomial(poly)).coeffs) == want


# The (n, m, j) cases of verify's reordering check: mixed powers n, m <= 5
# and exponential commutation n + m <= 10, on x^j, j <= 6, at a cap whose
# filter j + m <= cap + 2 keeps them all.
REORDER_CAP = 16
REORDER_CASES = sorted(
    {(n, m, j) for n in range(6) for m in range(6) for j in range(7)}
    | {(n, m, j) for n in range(11) for m in range(11 - n) for j in range(7)})


def _reordering_mismatches(psi):
    """The cases where the classical closed forms of D^n X^m x^j and of
    sum_k C(n,k) C(m,k) k! X^(m-k) D^(n-k) x^j, each the coefficient of
    x^(j+m-n), disagree with each other or with the products
    ``verify._reorders`` reads from ``psi``, term by term."""
    bad = []
    for n, m, j in REORDER_CASES:
        lhs = (factorial(j + m) // factorial(j + m - n) if j + m >= n
               else 0)
        ks = range(max(n - j, 0), min(n, m) + 1)
        terms = [comb(n, k) * comb(m, k) * factorial(k) * factorial(j)
                 // factorial(j - n + k) for k in ks]
        read_lhs = (psi.falling(j + m, n) * psi.raising_ratio(j, m)
                    if j + m >= n else 0)
        read = [comb(n, k) * comb(m, k) * factorial(k) * psi.falling(j, n - k)
                * psi.raising_ratio(j - n + k, m - k) for k in ks]
        if lhs != sum(terms) or read_lhs != lhs or read != terms:
            bad.append((n, m, j))
    return bad


def test_reorderings_are_the_classical_normal_ordering(monkeypatch):
    walked = set()
    real = verify._reorders
    monkeypatch.setattr(verify, "_reorders", lambda psi, n, m, j: (
        walked.add((n, m, j)) or real(psi, n, m, j)))
    verify.check_reorderings(REORDER_CAP)
    assert sorted(walked) == REORDER_CASES
    assert _reordering_mismatches(PsiSequence.classical(REORDER_CAP)) == []


def test_the_reordering_oracle_catches_a_perturbed_falling(monkeypatch):
    real = PsiSequence.falling
    monkeypatch.setattr(PsiSequence, "falling",
                        lambda self, n, k: real(self, n, k) + (k == 2))
    bad = _reordering_mismatches(PsiSequence.classical(REORDER_CAP))
    assert (2, 0, 2) in bad and (0, 3, 1) not in bad


# The (rate, m_max, cap) of verify's Poisson routes under classical weights.
POISSON_CASES = {(Fraction(1), 5, 15), (Fraction(3, 2), 5, 15)}
POISSON_ROUTES = ("poisson_weights", "poisson_weights_recursion",
                  "poisson_weights_raising")


def _poisson_mismatches(cases):
    """The (route, rate, m) where a route's classical weight p_m differs
    from (lam x)^m/m! e^(-lam x), whose x^i coefficient is
    lam^i (-1)^(i-m) C(i, m)/i! for i >= m and 0 below."""
    psi = PsiSequence.classical(16)
    bad = []
    for lam, m_max, cap in sorted(cases):
        for route in POISSON_ROUTES:
            got = getattr(verify, route)(psi, lam, m_max, cap)
            if route == "poisson_weights":
                got = got[0]
            for m in range(m_max + 1):
                want = [lam ** i * (-1) ** (i - m) * Fraction(
                    comb(i, m), factorial(i)) for i in range(cap + 1)]
                if list(got[m].coeffs) != want:
                    bad.append((route, lam, m))
    return bad


def test_poisson_weights_are_the_classical_closed_form(monkeypatch):
    walked = set()
    for route in POISSON_ROUTES:
        real = getattr(verify, route)
        monkeypatch.setattr(verify, route, lambda psi, lam, m_max, cap,
                            real=real: (
            psi.kind == "classical" and walked.add((lam, m_max, cap))
            or real(psi, lam, m_max, cap)))
    verify.check_poisson(16)
    monkeypatch.undo()
    assert walked == POISSON_CASES
    assert _poisson_mismatches(POISSON_CASES) == []


def test_the_poisson_oracle_catches_a_perturbed_route(monkeypatch):
    # the product route's exp_psi(-lam x) with x^2 added: every p_m moves
    # at x^(m+2), and the other two routes do not read it
    real = star_product.psi_exp_scaled
    monkeypatch.setattr(star_product, "psi_exp_scaled", lambda psi, a, cap: (
        real(psi, a, cap) + TruncatedSeries((0, 0, 1), cap)))
    bad = _poisson_mismatches(POISSON_CASES)
    assert {route for route, _, _ in bad} == {"poisson_weights"}
    assert len(bad) == 12
