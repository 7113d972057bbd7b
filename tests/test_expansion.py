import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from psi_umbral import cli, expansion, umbral, verify
from psi_umbral.algebra import Polynomial, TruncatedSeries
from psi_umbral.errors import (CapExceededError, NotDegreeLoweringError,
                               NotShiftInvariantError, PsiUmbralError)
from psi_umbral.expansion import (conjugate_indicator_check, detect_psi_series,
                                  expand_in_basic, expand_in_monomials,
                                  first_expansion_coeffs,
                                  reconstruct_from_monomial_form,
                                  apply_dual_form)
from psi_umbral.exprparse import OperatorContext, parse_operator
from psi_umbral.operators import (GradedOperator, SeriesOperator,
                                  derivative_op, forward_difference_op,
                                  multiply_x_op, operator_from_series,
                                  psi_derivative_op, translation_op)
from psi_umbral.psi import PsiSequence
from psi_umbral.umbral import DeltaOperator, dual_raise_operator
from test_operators import ZOO, ZOO_WEIGHTS
from test_psi import PAIR_WEIGHTS

CAP = 12


def test_derivative_in_difference_powers_is_alternating_harmonic():
    # D = sum_k (-1)^(k-1)/k * Delta^k, the log(1+z) series
    psi = PsiSequence.classical(CAP)
    delta = DeltaOperator.from_operator(forward_difference_op(psi, CAP), psi)
    a = first_expansion_coeffs(derivative_op(CAP), delta)
    assert a.coefficient(0) == 0
    for k in range(1, CAP + 1):
        assert a.coefficient(k) == Fraction((-1) ** (k - 1), k)


def test_difference_in_derivative_powers_is_exponential():
    psi = PsiSequence.classical(CAP)
    delta = DeltaOperator.from_operator(derivative_op(CAP), psi)
    a = first_expansion_coeffs(forward_difference_op(psi, CAP), delta)
    fact = 1
    for k in range(1, CAP + 1):
        fact *= k
        assert a.coefficient(k) == Fraction(1, fact)


def test_first_expansion_reproduces_the_operator():
    psi = PsiSequence.jackson(2, CAP)
    delta = DeltaOperator.from_operator(forward_difference_op(psi, CAP), psi)
    t = translation_op(psi, 2, CAP)
    a = first_expansion_coeffs(t, delta)
    seq = delta.basic(8)
    for n in range(9):
        want = Polynomial()
        for k in range(n + 1):
            c = a.coefficient(k) * psi.factorial(n) / psi.factorial(n - k)
            want = want + c * seq[n - k]
        assert t.apply(seq[n]) == want


def test_first_expansion_rejects_x_dependence():
    psi = PsiSequence.classical(CAP)
    delta = DeltaOperator.from_operator(derivative_op(CAP), psi)
    with pytest.raises(NotShiftInvariantError):
        first_expansion_coeffs(multiply_x_op(CAP), delta)


@pytest.mark.parametrize("weights", sorted(ZOO_WEIGHTS))
@pytest.mark.parametrize("delta_text", ["Delta", "Dpsi + 1/2*Dpsi^2"])
def test_first_expansion_matches_the_basic_sequence(weights, delta_text):
    # a_n = (T p_n)(0) / n_psi! on the basic sequence of the delta operator,
    # an independent route to the series composition the library takes
    for delta_cap in (1, 2, 5, 12):
        psi = ZOO_WEIGHTS[weights](max(delta_cap, 12))
        delta = DeltaOperator.from_operator(
            parse_operator(delta_text, OperatorContext(delta_cap, psi)), psi)
        for t_text in ("E[-2/3]", "3", "Dpsi"):
            for t_cap in (0, 1, 3, 12):
                t = parse_operator(t_text, OperatorContext(t_cap, psi))
                cap = min(t_cap, delta_cap)
                basic = delta.basic(cap).polys
                a = first_expansion_coeffs(t, delta)
                assert a.cap == cap
                assert a.coeffs == tuple(
                    t.apply(basic[n]).constant_term / psi.factorial(n)
                    for n in range(cap + 1))

def test_monomial_expansion_of_x_times_derivative():
    # T = x D + D^2 expands with q_1 = x, q_2 = 1
    d = derivative_op(CAP)
    t = multiply_x_op(CAP + 1) * d + d * d
    exp = expand_in_monomials(t, d)
    assert exp.coeff_polys[0] == Polynomial()
    assert exp.coeff_polys[1] == Polynomial.x()
    assert exp.coeff_polys[2] == Polynomial.one()
    assert all(q.is_zero for q in exp.coeff_polys[3:])


def test_monomial_expansion_roundtrip():
    psi = PsiSequence.jackson(Fraction(1, 2), CAP)
    base = forward_difference_op(psi, CAP)
    t = multiply_x_op(CAP + 1) * psi_derivative_op(psi, CAP + 1)
    exp = expand_in_monomials(t, base)
    back = reconstruct_from_monomial_form(exp, exp.order)
    assert back == t


def test_monomial_expansion_needs_lowering_base():
    with pytest.raises(NotDegreeLoweringError):
        expand_in_monomials(derivative_op(CAP), multiply_x_op(CAP))


def test_indicator_at_sums_coefficients():
    d = derivative_op(6)
    t = multiply_x_op(7) * d + d * d
    exp = expand_in_monomials(t, d)
    # q_0 + q_1*lam + q_2*lam^2 = 0 + lam x + lam^2
    for lam in (Fraction(2), Fraction(0), Fraction(-3, 2), Fraction(5, 7)):
        assert exp.indicator_at(lam) == Polynomial((lam * lam, lam))


def test_expansion_json_shape():
    d = derivative_op(4)
    exp = expand_in_monomials(d, d)
    doc = exp.to_json("D")
    assert doc["base"] == "D"
    assert doc["coeffs"][1] == ["1"]


def test_dual_expansion_of_the_base_itself():
    psi = PsiSequence.jackson(2, CAP)
    delta = DeltaOperator.from_operator(forward_difference_op(psi, CAP), psi)
    basic = delta.basic(CAP)
    exp = expand_in_basic(delta.op, basic)
    assert exp.coeff_polys[0].is_zero
    assert exp.coeff_polys[1] == Polynomial.one()
    assert all(q.is_zero for q in exp.coeff_polys[2:])


def test_dual_expansion_applies_back():
    psi = PsiSequence.jackson(2, CAP)
    delta = DeltaOperator.from_operator(forward_difference_op(psi, CAP), psi)
    basic = delta.basic(CAP)
    t = multiply_x_op(CAP)
    exp = expand_in_basic(t, basic)
    # x p_(CAP-1) lands on degree CAP, the top of the basis
    for p in (Polynomial.one(), Polynomial((1, 2, 3)), basic[4],
              basic[CAP - 1]):
        assert apply_dual_form(exp, basic, p) == t.apply(p)


def _dual_form_on(exp, delta, raise_op, p):
    """sum_n q_n(R) Q^n p from the tables of Q and R, q_n(R) by Horner."""
    total = Polynomial()
    for q in exp.coeff_polys:
        if p.is_zero:
            break
        acc = Polynomial()
        for a in reversed(q.coeffs):
            acc = (raise_op.apply(acc) if not acc.is_zero else acc) + a * p
        total = total + acc
        p = delta.op.apply(p)
    return total


@pytest.mark.parametrize("weights", sorted(ZOO_WEIGHTS))
def test_dual_form_reproduces_the_zoo_on_the_basis(weights):
    # every zoo member that is a delta operator serves as Q, and every zoo
    # member as T: T p_m = sum_n q_n(R) Q^n p_m for m up to the order.  Two
    # raising T stop that order short of the basis.
    cap = 8
    psi = ZOO_WEIGHTS[weights](cap)
    ops = [parse_operator(text, OperatorContext(cap, psi))
           for text in ZOO + ("X", "X*X*Dpsi")]
    deltas = []
    for op in ops:
        try:
            deltas.append(DeltaOperator.from_operator(op, psi))
        except PsiUmbralError:
            pass
    assert len(deltas) >= 3
    for delta in deltas:
        basic = delta.basic(delta.cap)
        raise_op = dual_raise_operator(basic)
        for t in ops:
            exp = expand_in_basic(t, basic)
            assert exp.form == "dual" and exp.base is delta.op
            assert exp.order == min(t.cap, cap - max(t.shift_bound, 0))
            for p in basic.polys[:exp.order + 1]:
                assert _dual_form_on(exp, delta, raise_op, p) == t.apply(p)


def test_dual_form_errors_name_the_basis_limit():
    psi = PsiSequence.jackson(2, 6)
    delta = DeltaOperator.from_operator(forward_difference_op(psi, 6), psi)
    basic = delta.basic(4)
    messages = []
    for call in (
            lambda: expand_in_basic(multiply_x_op(6) ** 5, basic),
            lambda: apply_dual_form(expand_in_basic(multiply_x_op(6), basic),
                                    basic, Polynomial.monomial(4)),
            lambda: apply_dual_form(expand_in_basic(delta.op, basic),
                                    basic, Polynomial.monomial(5))):
        with pytest.raises(CapExceededError) as err:
            call()
        messages.append(str(err.value))
    assert messages == ["basis too short for the operator's degree growth",
                        "dual application leaves the basis",
                        "basis holds 5 polynomials, degree 5 requested"]


def test_conjugation_check_passes_and_reports():
    psi = PsiSequence.classical(10)
    base = forward_difference_op(psi, 10)
    t = multiply_x_op(11) * derivative_op(11)
    ok, report = conjugate_indicator_check(t, expand_in_monomials(t, base),
                                           (Fraction(1), Fraction(1, 2)))
    assert ok
    assert report["ok"]
    assert report["mismatched_orders"] == []
    assert report["order"] == 10
    assert len(report["samples"]) == 2
    assert all(s["match"] for s in report["samples"])


def test_conjugation_check_refuses_a_dual_form_expansion():
    psi = PsiSequence.jackson(2, CAP)
    delta = DeltaOperator.from_operator(forward_difference_op(psi, CAP), psi)
    t = multiply_x_op(CAP)
    with pytest.raises(ValueError, match="monomial-form"):
        conjugate_indicator_check(t, expand_in_basic(t, delta.basic(CAP)))


def counted_expansions(monkeypatch):
    """A list that gains one entry per monomial-form expansion from now on."""
    calls = []
    real = expansion.expand_in_monomials

    def counting(t, base):
        calls.append(base.cap)
        return real(t, base)

    for module in (expansion, verify, cli):
        monkeypatch.setattr(module, "expand_in_monomials", counting)
    return calls


def test_roundtrip_expands_each_random_operator_once(monkeypatch):
    calls = counted_expansions(monkeypatch)
    results = verify.check_random_roundtrip(8)
    assert [r.passed for r in results] == [True] * 10
    assert len(calls) == 20 * len(verify.standard_suite_psis(8))


def test_expand_certifies_the_expansion_it_prints(monkeypatch, capsys):
    calls = counted_expansions(monkeypatch)
    assert cli.main(["expand", "--t", "X*Dpsi", "--q", "Dpsi",
                     "--lambda", "1,1/2"]) == 0
    assert "eigenseries conjugation check: ok" in capsys.readouterr().out
    assert len(calls) == 1


def test_detect_weighted_derivative_square_weights():
    # D x D acts as n^2 shifts down one: a series with weights n^2
    cap = 8
    d = derivative_op(cap + 2)
    op = (d * multiply_x_op(cap + 1)) * d
    res = detect_psi_series(op.truncated(cap))
    assert res.is_series
    assert res.scale == 1
    assert res.psi.values(cap) == [Fraction(n * n) for n in range(1, cap + 1)]
    assert list(res.series_coeffs) == [Fraction(0), Fraction(1)] + [Fraction(0)] * (cap - 1)


def test_detect_rejects_with_witness():
    cap = 8
    d = derivative_op(cap + 2)
    dxd = (d * multiply_x_op(cap + 1)) * d
    op = Fraction(1, 2) * dxd.truncated(cap) - Fraction(1, 3) * (d * d * d).truncated(cap)
    res = detect_psi_series(op)
    assert not res.is_series
    assert res.scale == 2
    assert res.witness == (4, 3)
    doc = res.to_json()
    assert doc["witness"] == {"n": 4, "k": 3}


def test_detect_accepts_jackson_derivative():
    psi = PsiSequence.jackson(Fraction(1, 2), 8)
    res = detect_psi_series(psi_derivative_op(psi, 8))
    assert res.is_series
    assert res.psi.values(8) == psi.values(8)


def test_detect_accepts_difference_and_recovers_indicator():
    psi = PsiSequence.classical(8)
    delta = DeltaOperator.from_operator(forward_difference_op(psi, 8), psi)
    res = detect_psi_series(delta.op)
    assert res.is_series
    assert res.psi.values(8) == psi.values(8)
    assert list(res.series_coeffs) == list(delta.indicator.coeffs)


@pytest.mark.parametrize("psi", [
    PsiSequence.custom([Fraction(-2, 3), 5, Fraction(1, 4), -3, 7, Fraction(-9, 2),
                        2, 1, Fraction(3, 5)]),
    PsiSequence.jackson(-2, 9)])
def test_detect_reads_a_series_value_as_its_plain_table(psi):
    # 1_psi != 1 and a scale != 1, so every readout is rescaled
    cap = 9
    value = parse_operator("3*Delta + 1/2*Dpsi^2", OperatorContext(cap, psi))
    assert isinstance(value, SeriesOperator)
    on_value = detect_psi_series(value)
    on_table = detect_psi_series(GradedOperator(value.images, cap))
    assert on_value.is_series and on_table.is_series
    assert on_value.scale == on_table.scale
    assert on_value.psi.values(cap) == on_table.psi.values(cap)
    assert on_value.series_coeffs == on_table.series_coeffs
    one = psi.n_psi(1)
    assert on_value.series_coeffs == [on_value.scale * c * one ** k
                                      for k, c in enumerate(value.series.coeffs)]
    assert all(type(c) is Fraction for c in on_value.series_coeffs)


def column_criterion(op):
    """Reference verdict by the weighted-binomial column test.

    Read b_(n,k) off the scaled images, scale * op(x^n) = sum_k b_(n,k)
    x^(n-k); the k = 1 column proposes the weights, and op is a series
    exactly when b_(n,k) = binom_psi(n, k) * b_(k,k) for all 2 <= k <= n.
    Returns (is_series, scale, witness, weights, coefficients), or None
    when op does not lower degree by exactly one.
    """
    cap = op.cap
    if not op.image(0).is_zero or any(op.image(n).degree != n - 1
                                      for n in range(1, cap + 1)):
        return None
    scale = Fraction(1) / op.image(1).constant_term
    b = {}
    for n in range(1, cap + 1):
        img = scale * op.image(n)
        for k in range(1, n + 1):
            b[(n, k)] = img.coefficient(n - k)
    weights = [b[(n, 1)] for n in range(1, cap + 1)]
    psi = PsiSequence.custom(weights)
    for n in range(2, cap + 1):
        for k in range(2, n + 1):
            if b[(n, k)] != psi.binomial(n, k) * b[(k, k)]:
                return False, scale, (n, k), None, None
    coeffs = [Fraction(0), Fraction(1)]
    coeffs.extend(b[(k, k)] / psi.factorial(k) for k in range(2, cap + 1))
    return True, scale, None, weights, coeffs


def detect_outcome(op):
    """detect_psi_series in the shape column_criterion returns."""
    try:
        res = detect_psi_series(op)
    except NotDegreeLoweringError:
        return None
    if not res.is_series:
        return False, res.scale, res.witness, res.psi, res.series_coeffs
    return (True, res.scale, None, res.psi.values(res.psi.stored_cap),
            list(res.series_coeffs))


# The parser zoo plus two lowering operators that are no weighted series.
DETECT_ZOO = ZOO + ("Dpsi + X*Dpsi*Dpsi*Dpsi", "1/2*D*X*D - 1/3*D^3")


@pytest.mark.parametrize("cap", [1, 2, 5, 12])
@pytest.mark.parametrize("weights", sorted(ZOO_WEIGHTS))
def test_detect_agrees_with_the_column_criterion_on_the_parser_zoo(weights,
                                                                   cap):
    psi = ZOO_WEIGHTS[weights](cap)
    verdicts = set()
    for text in DETECT_ZOO:
        op = parse_operator(text, OperatorContext(cap, psi))
        want = column_criterion(op)
        assert detect_outcome(op) == want, text
        verdicts.add(want if want is None else want[0])
    # below cap 3 every lowering table is a series: there is no k = 2 test
    assert verdicts == ({None, True, False} if cap >= 5 else {None, True})


@pytest.mark.parametrize("seed", range(8))
def test_detect_agrees_with_the_column_criterion_on_perturbed_series(seed):
    rng = random.Random(seed)
    cap = rng.choice([3, 6, 10])
    psi = ZOO_WEIGHTS[sorted(ZOO_WEIGHTS)[seed % len(ZOO_WEIGHTS)]](cap)
    coeffs = [0, Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))]
    coeffs += [Fraction(rng.randint(-4, 4), rng.randint(1, 5))
               for _ in range(cap - 1)]
    op = operator_from_series(coeffs, psi, cap)
    assert detect_outcome(op) == column_criterion(op)
    assert detect_outcome(op)[0] is True
    rejected = 0
    for _ in range(6):
        # one or two entries changed; two can put the first failing n and
        # the first failing k in different pairs
        images = list(op.images)
        for n in rng.sample(range(1, cap + 1), rng.randint(1, 2)):
            images[n] = images[n] + Polynomial.monomial(
                rng.randrange(n), Fraction(rng.choice([-2, -1, 1, 3]), 7))
        bent = GradedOperator(images, cap)
        want = column_criterion(bent)
        assert detect_outcome(bent) == want, bent.images
        rejected += want is not None and not want[0]
    assert rejected


def _images_strategy(cap):
    coeff = st.integers(min_value=-4, max_value=4).map(Fraction)
    return st.lists(
        st.lists(coeff, min_size=0, max_size=cap + 1), min_size=cap + 1,
        max_size=cap + 1).map(
            lambda rows: GradedOperator(
                tuple(Polynomial(row[: n + 2]) for n, row in enumerate(rows)),
                cap))


@given(_images_strategy(6))
@settings(max_examples=40)
def test_monomial_expansion_is_faithful(t):
    base = derivative_op(6)
    exp = expand_in_monomials(t, base)
    assert reconstruct_from_monomial_form(exp, exp.order) == t


@given(_images_strategy(6))
@settings(max_examples=25)
def test_conjugation_check_holds_for_arbitrary_operators(t):
    base = forward_difference_op(PsiSequence.classical(6), 6)
    ok, report = conjugate_indicator_check(t, expand_in_monomials(t, base))
    assert ok, report["mismatched_orders"]


def test_first_expansion_readout_can_fail(monkeypatch):
    # T + 1 in place of the drawn series T: its first expansion reproduces
    # T + 1 on the basis, but a_0 reads one more than the drawn c_0
    real = verify._series_in
    monkeypatch.setattr(verify, "_series_in", lambda base, coeffs: real(
        base, coeffs) + GradedOperator.identity(base.cap))
    results = verify.check_first_expansion(8)
    assert [r.detail for r in results] == ["trial=0, k=0"] * 5


# -- the series route against the table route ---------------------------

ROUTE_CAP = 8

ROUTE_WEIGHTS = {
    "classical": lambda cap: PsiSequence.classical(cap),
    "q=1/2": lambda cap: PsiSequence.jackson(Fraction(1, 2), cap),
    "q=-2": lambda cap: PsiSequence.jackson(-2, cap),
    "squares": lambda cap: PsiSequence.custom(
        [n * n for n in range(1, cap + 2)]),
    "custom": lambda cap: PsiSequence.custom(
        [Fraction(3, 2), -1, 5, Fraction(-2, 7), 4, 1, Fraction(9, 4), -3, 2,
         Fraction(1, 5), 7, Fraction(-5, 3), 6][: cap + 1]),
}


def _random_table(rng, cap):
    """Images of degree at most n + 1, so the table may raise degree."""
    return GradedOperator([Polynomial([Fraction(rng.randint(-5, 5),
                                                rng.randint(1, 3))
                                       for _ in range(rng.randint(0, n + 2))])
                           for n in range(cap + 1)], cap)


def _route_operators(psi, cap, rng):
    ctx = OperatorContext(cap, psi)
    ops = {"Xpsi*Dpsi": parse_operator("Xpsi*Dpsi", ctx),
           "random table": _random_table(rng, cap),
           "series": parse_operator("E[1/3] + 2*Dpsi^2", ctx),
           "Delta": parse_operator("Delta", ctx),
           "Dpsi^3": parse_operator("Dpsi^3", ctx)}
    if cap:  # at cap 0 the x of X*D leaves the outer D's table
        ops["D*X*D"] = parse_operator("D*X*D", ctx)
    return ops


@pytest.mark.parametrize("weights", sorted(ROUTE_WEIGHTS))
@pytest.mark.parametrize("base_text", ["Dpsi", "Delta", "E[1/2] - 1",
                                       "Dpsi + Dpsi*Dpsi", "2*Dpsi"])
def test_series_route_matches_the_table_route(base_text, weights):
    rng = random.Random(base_text + weights)
    psi = ROUTE_WEIGHTS[weights](ROUTE_CAP + 3)
    base = parse_operator(base_text, OperatorContext(ROUTE_CAP, psi))
    assert isinstance(base, SeriesOperator)
    plain = operator_from_series(base.series, base.psi, base.cap)
    assert not isinstance(plain, SeriesOperator)
    for t_cap in (0, 1, ROUTE_CAP - 3, ROUTE_CAP, ROUTE_CAP + 3):
        for name, t in _route_operators(psi, t_cap, rng).items():
            fast = expand_in_monomials(t, base)
            slow = expand_in_monomials(t, plain)
            assert fast.coeff_polys == slow.coeff_polys, (name, t_cap)
            for cap in range(fast.order + 1):
                assert (reconstruct_from_monomial_form(fast, cap).images
                        == reconstruct_from_monomial_form(slow, cap).images)
            assert (reconstruct_from_monomial_form(fast, fast.order)
                    == t.truncated(fast.order))
    # past the base's cap both routes raise the same error
    exp = expand_in_monomials(psi_derivative_op(psi, ROUTE_CAP + 3), base)
    errors = []
    for b in (base, plain):
        with pytest.raises(CapExceededError) as err:
            reconstruct_from_monomial_form(
                expansion.OperatorExpansion(exp.coeff_polys, b, exp.form),
                ROUTE_CAP + 1)
        errors.append((str(err.value), err.value.details))
    assert errors[0] == errors[1] == (
        "polynomial degree %d exceeds operator cap %d"
        % (ROUTE_CAP + 1, ROUTE_CAP), {"cap": ROUTE_CAP})


@pytest.mark.parametrize("weights", sorted(ROUTE_WEIGHTS))
@pytest.mark.parametrize("base_text", ["Dpsi^2", "E[1]"])
def test_series_route_rejects_a_base_like_the_table_route(base_text, weights):
    psi = ROUTE_WEIGHTS[weights](ROUTE_CAP + 1)
    base = parse_operator(base_text, OperatorContext(ROUTE_CAP, psi))
    t = parse_operator("Xpsi*Dpsi", OperatorContext(ROUTE_CAP, psi))
    errors = []
    for b in (base, operator_from_series(base.series, psi, ROUTE_CAP)):
        with pytest.raises(NotDegreeLoweringError) as err:
            expand_in_monomials(t, b)
        errors.append((str(err.value), err.value.details))
    assert errors[0] == errors[1]


def test_series_base_applies_no_operator(monkeypatch):
    # the series route reads the base's series, never a power table of it
    calls = []
    real_powers = expansion._base_powers_on_monomials
    real_apply = GradedOperator.apply

    def counted_powers(base, top, cap):
        calls.append("powers")
        return real_powers(base, top, cap)

    def counted_apply(self, p):
        calls.append("apply")
        return real_apply(self, p)

    psi = PsiSequence.jackson(Fraction(1, 2), 16)
    ctx = OperatorContext(16, psi)
    t = parse_operator("Xpsi*Dpsi", ctx)
    bases = [parse_operator(text, ctx) for text in ("Dpsi", "Delta")]
    monkeypatch.setattr(expansion, "_base_powers_on_monomials", counted_powers)
    monkeypatch.setattr(GradedOperator, "apply", counted_apply)
    for base in bases:
        exp = expand_in_monomials(t, base)
        reconstruct_from_monomial_form(exp, exp.order)
        assert calls == []
        plain = operator_from_series(base.series, psi, base.cap)
        reconstruct_from_monomial_form(expand_in_monomials(t, plain), 16)
        assert calls.count("powers") == 2 and "apply" in calls
        calls.clear()
        # the conjugation check reads the series expansion it is handed
        assert conjugate_indicator_check(t, exp)[0]
        assert "powers" not in calls
        calls.clear()
        # the dual form expands the conjugated operator in classical D, a
        # series value, and so builds no power table either
        basic = DeltaOperator.from_operator(base, psi).basic(16)
        exp = expand_in_basic(t, basic)
        assert exp.order == 16 and "powers" not in calls
        for p in basic.polys[:exp.order + 1]:
            assert apply_dual_form(exp, basic, p) == t.apply(p)
        calls.clear()


def test_a_series_value_in_the_base_weights_skips_step_one(monkeypatch):
    # T = sum c_k d^k gives F_m = c_m, so step 1 reads no shifted terms,
    # and its constant q_n reconstruct to a series value again; the same
    # value in a distinct weights object, or as a plain table, takes step 1
    calls = []
    real = expansion._shift_terms

    def counted(scaled, fact, m, scale):
        calls.append(m)
        return real(scaled, fact, m, scale)

    monkeypatch.setattr(expansion, "_shift_terms", counted)
    psi = PsiSequence.jackson(2, 12)
    ctx = OperatorContext(12, psi)
    base = parse_operator("Delta", ctx)
    for text in ("Dpsi", "E[1/2] - 1", "Dpsi^3 + 1/2"):
        t = parse_operator(text, ctx)
        exp = expand_in_monomials(t, base)
        back = reconstruct_from_monomial_form(exp, exp.order)
        assert calls == []
        assert isinstance(back, SeriesOperator) and back.psi is psi
        assert back == t
        twin = SeriesOperator(t.series, PsiSequence.jackson(2, 12))
        for other in (twin, operator_from_series(t.series, psi, t.cap)):
            assert (expand_in_monomials(other, base).coeff_polys
                    == exp.coeff_polys)
            assert len(calls) == exp.order + 1
            calls.clear()


def test_a_changed_constant_coefficient_fails_the_reconstruction(monkeypatch,
                                                                capsys):
    psi = PsiSequence.jackson(2, 8)
    ctx = OperatorContext(8, psi)
    real = expansion.expand_in_monomials

    def tampered(t, base):
        exp = real(t, base)
        qs = list(exp.coeff_polys)
        qs[3] = qs[3] + Polynomial.one()
        return expansion.OperatorExpansion(qs, exp.base, exp.form)

    for t_text, base_text in (("Delta", "Dpsi"), ("E[1/2] - 1", "Delta")):
        t = parse_operator(t_text, ctx)
        bad = tampered(t, parse_operator(base_text, ctx))
        assert all(q.degree <= 0 for q in bad.coeff_polys)
        back = reconstruct_from_monomial_form(bad, bad.order)
        assert isinstance(back, SeriesOperator)
        assert not back == t and back != t
    monkeypatch.setattr(cli, "expand_in_monomials", tampered)
    assert cli.main(["expand", "--t", "E[1/2] - 1", "--q", "Delta", "--psi",
                     "q:2", "--cap", "8", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["reconstructs"] is False


# -- what a series base keeps ------------------------------------------------


def test_a_series_base_keeps_its_tables_per_cap():
    # one base at caps 10, 6 and 10 again gives what a fresh base gives
    psi = PsiSequence.jackson(Fraction(1, 2), 12)

    def fresh():
        return parse_operator("Delta", OperatorContext(10, psi))

    base = fresh()
    rng = random.Random(5)
    for cap in (10, 6, 10):
        ts = [verify._random_lowering_op(rng, cap),
              parse_operator("Xpsi*Dpsi", OperatorContext(cap, psi)),
              _random_table(rng, cap)]
        for t in ts:
            kept, new = (expand_in_monomials(t, b) for b in (base, fresh()))
            assert kept.coeff_polys == new.coeff_polys
            for back_cap in {cap, 6}:
                assert (reconstruct_from_monomial_form(kept, back_cap).images
                        == reconstruct_from_monomial_form(new, back_cap).images)
        for t in ts[:2]:
            kept, new = (expand_in_monomials(t, b) for b in (base, fresh()))
            assert (conjugate_indicator_check(t, kept, [Fraction(1, 2)])
                    == conjugate_indicator_check(t, new, [Fraction(1, 2)]))
    assert sorted(base._derived) == [("series route", 6), ("series route", 10),
                                     ("unit normal", 6), ("unit normal", 10)]


def test_roundtrip_builds_each_base_table_once(monkeypatch):
    calls = []
    real_unit = umbral.unit_normal_sequence
    real_powers = expansion._series_powers

    def unit(op, n_max):
        calls.append("unit normal")
        return real_unit(op, n_max)

    def powers(s, cap):
        calls.append("powers")
        return real_powers(s, cap)

    for module in (umbral, expansion):
        monkeypatch.setattr(module, "unit_normal_sequence", unit)
    monkeypatch.setattr(expansion, "_series_powers", powers)
    results = verify.check_random_roundtrip(8)
    assert [r.passed for r in results] == [True] * 10
    assert len(verify.standard_suite_psis(8)) == 5
    # the bases there are d itself, whose power table is the identity: none
    # is built
    assert calls.count("unit normal") == 5 and calls.count("powers") == 0
    # a series base that is not d builds its power table once per cap
    calls.clear()
    psi = PsiSequence.jackson(Fraction(1, 2), 8)
    ctx = OperatorContext(8, psi)
    base = parse_operator("Delta", ctx)
    rng = random.Random(3)
    for t in (parse_operator("Xpsi*Dpsi", ctx),
              verify._random_lowering_op(rng, 8), _random_table(rng, 8)):
        exp = expand_in_monomials(t, base)
        assert exp.order == 8
        assert reconstruct_from_monomial_form(exp, 8).images == t.images
    assert calls.count("powers") == 1


def _series_by_composition(base, coeffs):
    """sum_k c_k base^k by table composition, scaling and addition."""
    total = GradedOperator.zero(base.cap)
    power = GradedOperator.identity(base.cap)
    for k, c in enumerate(coeffs):
        if k:
            power = power * base
        if c:
            total = total + power * c
    return total


def test_series_in_is_the_composed_table():
    rng = random.Random(11)
    psi = PsiSequence.jackson(2, 8)
    delta = DeltaOperator.from_operator(forward_difference_op(psi, 8), psi)
    plain = operator_from_series(delta.series, psi, 8)
    drawn = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
              for _ in range(6)] for _ in range(4)]
    for coeffs in drawn + [[0] * 6, [0, 0, 0, 0, 0, 3], [Fraction(1, 2)]]:
        for base in (delta, plain):
            t = verify._series_in(base, coeffs)
            assert not isinstance(t, SeriesOperator)
            assert t.cap == base.cap
            assert t.images == _series_by_composition(base, coeffs).images


def _lowering_series(rng, cap):
    """Seeded c_1 z + ... + c_cap z^cap with c_1 != 0, runs of zeros and
    negative entries."""
    coeffs = [0, Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))]
    for _ in range(2, cap + 1):
        coeffs.append(rng.choice([0, 0, Fraction(rng.randint(-9, 9),
                                                 rng.randint(1, 6))]))
    return TruncatedSeries(coeffs, cap)


@pytest.mark.parametrize("weights", sorted(PAIR_WEIGHTS))
def test_detect_gives_a_series_value_and_its_table_one_answer(weights):
    # the series branch reads the weight pairs, the table branch the rows'
    # leading entries; both must report the same weights and series
    rng = random.Random(weights)
    make = PAIR_WEIGHTS[weights][0]
    for cap in (1, 2, 5, 16):
        psi = make(cap)
        values = [parse_operator(text, OperatorContext(cap, psi))
                  for text in ("Dpsi", "Delta", "E[-1/2] - 1",
                               "Dpsi + Dpsi*Dpsi", "-3/2*Dpsi")]
        values += [SeriesOperator(_lowering_series(rng, cap), psi)
                   for _ in range(3)]
        for value in values:
            assert isinstance(value, SeriesOperator) and value.cap == cap
            table = operator_from_series(value.series, psi, cap)
            fast, slow = detect_psi_series(value), detect_psi_series(table)
            assert fast.to_json() == slow.to_json(), cap
            assert fast.is_series and fast.scale == slow.scale
            assert fast.series_coeffs == slow.series_coeffs
            assert all(type(c) is Fraction for c in fast.series_coeffs)
            assert fast.psi.weight_pairs(cap) == slow.psi.weight_pairs(cap)
