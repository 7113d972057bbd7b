import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from psi_umbral.algebra import Polynomial, TruncatedSeries
from psi_umbral.errors import (CapExceededError, NonInvertibleError,
                               NotDegreeLoweringError, NotShiftInvariantError,
                               SelfCheckError)
from psi_umbral.operators import (GradedOperator, SeriesOperator,
                                  apply_psi_series,
                                  derivative_op, forward_difference_op,
                                  multiply_x_op, operator_from_series,
                                  psi_derivative, psi_derivative_op,
                                  shift_invariant_coefficients, translation_op)
from psi_umbral.psi import PsiSequence, RationalFunction
from psi_umbral.umbral import (BasicSequence, DeltaOperator, basic_sequence_solve,
                               dual_raise_operator, eigenfunction_series,
                               rodrigues_sequence, sheffer_sequence, translate,
                               translation_coefficients, unit_normal_sequence)

CAP = 16


def classical():
    return PsiSequence.classical(CAP)


def test_translate_monomial_golden():
    psi = PsiSequence.jackson(0, 8)
    assert translate(psi, Fraction(1), Polynomial.monomial(2)) == Polynomial((1, 1, 1))
    # classical shift is the Taylor shift
    p = Polynomial((0, 0, 1))
    assert translate(classical(), 1, p) == Polynomial((1, 2, 1))


def test_translate_at_zero_is_identity():
    psi = PsiSequence.jackson(2, 8)
    p = Polynomial((3, 1, 4, 1))
    assert translate(psi, 0, p) == p


def test_falling_factorials_from_forward_difference():
    psi = classical()
    delta = forward_difference_op(psi, CAP)
    seq = basic_sequence_solve(delta, psi, 4)
    assert seq[2] == Polynomial((0, -1, 1))
    assert seq[3] == Polynomial((0, 2, -3, 1))
    assert seq[4] == Polynomial((0, -6, 11, -6, 1))


def test_basic_sequence_defining_relations():
    psi = PsiSequence.jackson(Fraction(1, 2), CAP)
    delta = forward_difference_op(psi, CAP)
    seq = basic_sequence_solve(delta, psi, 8)
    assert seq[0] == Polynomial.one()
    for n in range(1, 9):
        assert seq[n].constant_term == 0
        assert delta.apply(seq[n]) == psi.n_psi(n) * seq[n - 1]


def test_basic_sequence_monomials_for_derivative():
    psi = PsiSequence.jackson(2, CAP)
    d = psi_derivative_op(psi, CAP)
    seq = basic_sequence_solve(d, psi, 5)
    for n in range(6):
        assert seq[n] == Polynomial.monomial(n)


def test_basic_sequence_rejects_non_lowering():
    psi = classical()
    with pytest.raises(NotDegreeLoweringError):
        basic_sequence_solve(multiply_x_op(CAP), psi, 3)
    with pytest.raises(NotDegreeLoweringError):
        basic_sequence_solve(GradedOperator.identity(CAP), psi, 3)


def test_basic_sequence_works_without_shift_invariance():
    # derivative plus a leak two degrees down: lowers degree by one but the
    # leak is not expressible as a series in D, so no shift invariance
    def rule(n):
        if n == 0:
            return Polynomial()
        img = Polynomial.monomial(n - 1, n)
        if n >= 2:
            img = img + Polynomial.monomial(n - 2)
        return img

    psi = classical()
    op = GradedOperator.from_monomial_rule(rule, CAP)
    with pytest.raises(NotShiftInvariantError):
        shift_invariant_coefficients(op, psi)
    seq = basic_sequence_solve(op, psi, 5)
    for n in range(1, 6):
        assert seq[n].constant_term == 0
        assert op.apply(seq[n]) == psi.n_psi(n) * seq[n - 1]


def test_monomials_to_basis_roundtrip():
    psi = classical()
    delta = forward_difference_op(psi, CAP)
    seq = basic_sequence_solve(delta, psi, 6)
    p = Polynomial((1, -2, 0, 5, 1))
    coords = seq.monomials_to_basis(p)
    rebuilt = Polynomial()
    for k, c in enumerate(coords):
        rebuilt = rebuilt + c * seq[k]
    assert rebuilt == p


@pytest.mark.parametrize("polys", [
    (Polynomial.one(), Polynomial.x(), Polynomial((1, 1))),
    (Polynomial.one(), Polynomial((0, 0, 1)), Polynomial((0, 0, 1))),
])
def test_monomials_to_basis_rejects_a_row_of_the_wrong_degree(polys):
    # p_k must have degree exactly k for the basis to be triangular
    psi = classical()
    seq = BasicSequence(polys, psi, forward_difference_op(psi, CAP))
    with pytest.raises(SelfCheckError):
        seq.monomials_to_basis(Polynomial.monomial(2))


def test_basic_sequence_solve_refuses_n_past_the_cap():
    psi = classical()
    with pytest.raises(CapExceededError, match="n_max 9 beyond operator cap 8"):
        basic_sequence_solve(forward_difference_op(psi, 8), psi, 9)


def test_basic_sequence_solve_to_degree_zero_is_one():
    psi = classical()
    for op in (forward_difference_op(psi, CAP), derivative_op(0)):
        assert list(basic_sequence_solve(op, psi, 0)) == [Polynomial.one()]


def test_delta_operator_requires_shift_invariance():
    psi = PsiSequence.jackson(2, CAP)
    x2d = (multiply_x_op(CAP + 2) * multiply_x_op(CAP + 2)) * derivative_op(CAP + 2)
    with pytest.raises(NotShiftInvariantError):
        DeltaOperator.from_operator(x2d.truncated(CAP), psi)


@pytest.mark.parametrize("coeffs, cap, error", [
    ([1, 1], CAP, NotDegreeLoweringError),
    ([0, 0, 1], CAP, NonInvertibleError),
    ([0], CAP, NonInvertibleError),
    ([0, 1], 0, NonInvertibleError),
])
def test_delta_operator_from_indicator_needs_a_lowering_series(coeffs, cap,
                                                                error):
    # a nonzero constant term, or no nonzero linear term within the cap
    with pytest.raises(error):
        DeltaOperator.from_indicator(coeffs, classical(), cap)


def test_delta_operator_indicator_of_difference():
    psi = classical()
    delta = DeltaOperator.from_operator(forward_difference_op(psi, CAP), psi)
    fact = 1
    for k in range(1, 8):
        fact *= k
        assert delta.indicator.coefficient(k) == Fraction(1, fact)
    assert delta.indicator.constant_term == 0
    # S-series is the indicator shifted down by one
    assert delta.s_series.coefficient(0) == 1


def test_s_factorization():
    # op = (weighted derivative) composed with S
    psi = PsiSequence.jackson(Fraction(1, 2), CAP)
    delta = DeltaOperator.from_operator(forward_difference_op(psi, CAP), psi)
    d = psi_derivative_op(psi, CAP)
    prod = d * operator_from_series(delta.s_series.coeffs, psi, CAP)
    assert prod == delta.op.truncated(prod.cap)


def test_rodrigues_formulas_agree_with_solve():
    psi = PsiSequence.jackson(2, CAP)
    for coeffs in ([0, 1], [0, 1, 1], [0, 1, 0, Fraction(1, 3)]):
        delta = DeltaOperator.from_indicator(coeffs, psi, CAP)
        reference = delta.basic(6)
        for formula in (1, 2, 3, 4):
            got = rodrigues_sequence(delta, 6, formula=formula)
            assert list(got) == list(reference)


@pytest.mark.parametrize("formula", [0, 5])
def test_rodrigues_formula_is_one_to_four(formula):
    delta = DeltaOperator.from_indicator([0, 1], classical(), CAP)
    with pytest.raises(ValueError, match="formula must be 1, 2, 3 or 4"):
        rodrigues_sequence(delta, 3, formula=formula)


def test_rodrigues_needs_headroom():
    psi = classical()
    delta = DeltaOperator.from_indicator([0, 1], psi, 4)
    with pytest.raises(CapExceededError):
        rodrigues_sequence(delta, 4)


@pytest.mark.parametrize("formula", [1, 2, 3, 4])
def test_rodrigues_inverts_only_to_the_order_it_needs(formula, monkeypatch):
    # p_0..p_3 read S^(-1) and (q')^(-1) only through z^3, so a cap-40
    # delta must not invert its cap-39 series; formulas 1-3 invert S only
    # and formula 4 q' only
    psi = PsiSequence.jackson(Fraction(1, 2), 40)
    delta = DeltaOperator.from_operator(forward_difference_op(psi, 40), psi)
    inverted = []
    inverse = TruncatedSeries.inverse

    def spy(series):
        inverted.append(series.cap)
        return inverse(series)

    monkeypatch.setattr(TruncatedSeries, "inverse", spy)
    got = rodrigues_sequence(delta, 3, formula)
    assert inverted == [3]
    monkeypatch.undo()
    assert list(got) == list(delta.basic(3))


TRANSLATE_WEIGHTS = {
    "classical": lambda: PsiSequence.classical(2),
    "q=1/2": lambda: PsiSequence.jackson(Fraction(1, 2), 2),
    "squares": lambda: PsiSequence.custom([n * n for n in range(1, 13)]),
}


@pytest.mark.parametrize("weights", sorted(TRANSLATE_WEIGHTS))
def test_translations_through_one_weights_object_match_fresh_ones(weights):
    # a weights object that has served other calls, in any order, translates
    # as a fresh one does; "1/2" and 2/4 are one y, and so are 0 and
    # Fraction(0)
    make = TRANSLATE_WEIGHTS[weights]
    rng = random.Random(weights)
    ys = ["1/2", Fraction(2, 4), Fraction(-3, 2), -2, 0, Fraction(0), 3]
    calls = [(y, Polynomial([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                             for _ in range(degree + 1)]))
             for y in ys for degree in (0, 2, 5, 11)]
    calls.append(("1/2", Polynomial.zero()))
    rng.shuffle(calls)
    shared = make()
    for y, p in calls:
        assert translate(shared, y, p) == translate(make(), y, p)


@pytest.mark.parametrize("weights", sorted(TRANSLATE_WEIGHTS))
def test_translation_coefficients_are_scaled_derivatives(weights):
    # T_k = (d_psi)^k p / k_psi!, k <= deg p, by iterating psi_derivative
    psi = TRANSLATE_WEIGHTS[weights]()
    rng = random.Random(weights)
    for degree in range(12):
        p = Polynomial([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                        for _ in range(degree)] + [Fraction(rng.choice(
                            [-2, -1, 1, 3]), rng.randint(1, 3))])
        want, d = [], p
        for k in range(degree + 1):
            want.append(d * (1 / psi.factorial(k)))
            d = psi_derivative(psi, d)
        assert d.is_zero
        assert translation_coefficients(psi, p) == want
    assert translation_coefficients(psi, Polynomial.zero()) == []


def test_translation_coefficients_of_zero_read_no_weight():
    psi = PsiSequence.custom([])
    assert translation_coefficients(psi, Polynomial.zero()) == []
    assert translate(psi, 5, Polynomial.zero()) == Polynomial.zero()
    assert translation_coefficients(psi, Polynomial.one()) == [
        Polynomial.one()]


def test_translation_coefficients_raise_past_custom_weights_as_translate():
    psi = PsiSequence.custom([1, 4, 9])
    short, long = Polynomial((0, 0, 0, 1)), Polynomial((1, 1, 1, 1, 1))
    assert translation_coefficients(psi, short) == [
        short, Polynomial((0, 0, 9)), Polynomial((0, 9)), Polynomial((1,))]
    messages = []
    for shift in (lambda: translate(psi, 1, long),
                  lambda: translation_coefficients(psi, long)):
        with pytest.raises(CapExceededError) as info:
            shift()
        messages.append((info.value.message, info.value.to_json()))
    assert messages[0] == messages[1]
    assert messages[0][0] == "custom weight sequence has no value at n=4"


def test_translation_past_custom_weights_raises_after_a_shorter_one():
    psi = PsiSequence.custom([1, 4, 9])
    assert translate(psi, 1, Polynomial((1, 1))) == Polynomial((2, 1))
    with pytest.raises(CapExceededError):
        translate(psi, 1, Polynomial((1, 1, 1, 1, 1)))
    assert translate(psi, 1, Polynomial((0, 0, 0, 1))) == Polynomial(
        (1, 9, 9, 1))
    with pytest.raises(CapExceededError):
        translate(psi, 1, Polynomial((0, 0, 0, 0, 1)))
    assert translate(psi, 1, Polynomial((1, 1))) == Polynomial((2, 1))


def test_rodrigues_inverts_once_per_delta_and_order(monkeypatch):
    # the four formulas on one delta share S^(-1) and q', each inverted
    # once per order, and give what a fresh delta gives
    psi = PsiSequence.jackson(Fraction(1, 2), 12)

    def fresh():
        return DeltaOperator.from_operator(forward_difference_op(psi, 12), psi)

    delta = fresh()
    inverted = []
    inverse = TruncatedSeries.inverse

    def spy(series):
        inverted.append(series.cap)
        return inverse(series)

    monkeypatch.setattr(TruncatedSeries, "inverse", spy)
    got = {(n, f): rodrigues_sequence(delta, n, f)
           for n in (5, 3) for f in (4, 1, 2, 3, 1)}
    assert inverted == [5, 5, 3, 3]
    monkeypatch.undo()
    for (n, f), seq in got.items():
        assert list(seq) == list(rodrigues_sequence(fresh(), n, f))


def _chain_products(monkeypatch, delta, n_max, formulas):
    """The products x * S^(-1) that ``formulas``, run in turn on delta at
    n_max, make, and their sequences."""
    seen = []
    mul = TruncatedSeries.__mul__

    def spy(self, other):
        seen.append(other)
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", spy)
    got = [rodrigues_sequence(delta, n_max, f) for f in formulas]
    monkeypatch.undo()
    s_inv = delta.s_series.truncated(n_max).inverse()
    return sum(isinstance(b, TruncatedSeries) and b == s_inv
               for b in seen), got


@pytest.mark.parametrize("weights", ["classical", "q=1/2", "squares"])
def test_rodrigues_builds_one_chain_of_inverse_powers(weights, monkeypatch):
    # formula 2 alone makes n_max products by S^(-1), S^(-1) .. S^(-n_max),
    # as a lone formula always did; formula 1 reads S^(-n-1), so 1, 2 and 3
    # in turn make n_max + 1 products on one delta, and 2 and 3 none of
    # their own
    psi = TRANSLATE_WEIGHTS[weights]()
    n_max = 7

    def fresh():
        return DeltaOperator.from_operator(forward_difference_op(psi, 8), psi)

    alone, (seq,) = _chain_products(monkeypatch, fresh(), n_max, [2])
    assert alone == n_max
    assert list(seq) == list(fresh().basic(n_max))
    shared, seqs = _chain_products(monkeypatch, fresh(), n_max, [1, 2, 3])
    assert shared == n_max + 1
    for seq in seqs:
        assert list(seq) == list(fresh().basic(n_max))


def test_rodrigues_below_zero_is_the_constant_one():
    delta = DeltaOperator.from_indicator([0, 1, 1], classical(), 4)
    for formula in (1, 2, 3, 4):
        assert list(rodrigues_sequence(delta, -1, formula)) == [Polynomial.one()]


def test_binomial_identity_for_difference_basis():
    psi = PsiSequence.jackson(2, CAP)
    delta = forward_difference_op(psi, CAP)
    seq = basic_sequence_solve(delta, psi, 6)
    for n in range(7):
        for y in (Fraction(1), Fraction(-1), Fraction(2, 3)):
            lhs = translate(psi, y, seq[n])
            rhs = Polynomial()
            for k in range(n + 1):
                rhs = rhs + psi.binomial(n, k) * seq[n - k](y) * seq[k]
            assert lhs == rhs


def test_dual_raise_forms_commutation_pair():
    psi = PsiSequence.jackson(Fraction(1, 2), CAP)
    delta = forward_difference_op(psi, CAP)
    seq = basic_sequence_solve(delta, psi, CAP)
    dual = dual_raise_operator(seq)
    # raising then lowering along the sequence: [Q, R] = id
    comm = delta.commutator(dual)
    assert comm == GradedOperator.identity(comm.cap)
    # and R sends p_n to the weighted lift of p_(n+1)
    for n in range(4):
        lift = Fraction(n + 1) / psi.n_psi(n + 1)
        assert dual.apply(seq[n]) == lift * seq[n + 1]


def test_umbral_map_carries_the_classical_pair():
    # U^(-1) Q U = D, U^(-1) R U = X and U^(-1) U = 1 on the whole table
    for psi in (PsiSequence.jackson(Fraction(1, 2), 10),
                PsiSequence.custom([n * n for n in range(1, 11)])):
        q = operator_from_series([0, 1, 0, 1], psi, 10)
        seq = basic_sequence_solve(q, psi, 10)
        u, u_inv = seq.umbral_map()
        assert (u.cap, u_inv.cap) == (10, 10)
        assert u_inv.compose(u) == GradedOperator.identity(10)
        assert u_inv.compose(q.compose(u)) == derivative_op(10)
        raised = u_inv.compose(dual_raise_operator(seq).compose(u))
        assert raised.cap == 9 and raised == multiply_x_op(9)
        assert seq.umbral_map() is seq.umbral_map()


def test_umbral_map_reads_the_weights_up_to_the_top():
    # custom weights with exactly top values build U and U^(-1); one value
    # fewer cannot supply rho_top = top!/top_psi!
    top = 4
    psi = PsiSequence.custom([n * n + 1 for n in range(1, top + 1)])
    seq = DeltaOperator.from_operator(psi_derivative_op(psi, top), psi).basic(top)
    u, u_inv = seq.umbral_map()
    for n in range(top + 1):
        assert u.image(n) == psi.raising_ratio(0, n) * seq[n]
    assert u_inv.compose(u) == GradedOperator.identity(top)
    short = PsiSequence.custom([n * n + 1 for n in range(1, top)])
    with pytest.raises(CapExceededError):
        BasicSequence(seq.polys, short, seq.op).umbral_map()


def test_dual_raise_reads_no_weight_past_the_basis():
    # custom weights with exactly top values: p_top exists, weight top+1
    # does not, and the dual raise still builds on x^0..x^(top-1)
    top = 5
    psi = PsiSequence.custom([n * n + 1 for n in range(1, top + 1)])
    delta = DeltaOperator.from_operator(psi_derivative_op(psi, top), psi)
    seq = delta.basic(top)
    dual = dual_raise_operator(seq)
    assert dual.cap == top - 1
    for n in range(top):
        lift = Fraction(n + 1) / psi.n_psi(n + 1)
        assert dual.apply(seq[n]) == lift * seq[n + 1]
    with pytest.raises(CapExceededError):
        psi.n_psi(top + 1)


def test_dual_raise_needs_two_basis_polynomials():
    psi = classical()
    seq = basic_sequence_solve(derivative_op(4), psi, 0)
    with pytest.raises(CapExceededError) as err:
        dual_raise_operator(seq)
    assert str(err.value) == \
        "need at least p_0 and p_1 to build the dual raise"


def test_sheffer_sequence_translated_monomials():
    psi = classical()
    c = Fraction(3, 2)
    delta = DeltaOperator.from_operator(derivative_op(CAP), psi)
    s_op = translation_op(psi, c, CAP)
    seq = sheffer_sequence(delta, s_op, 6)
    for n in range(7):
        assert seq[n] == Polynomial((-c, 1)) ** n


def test_sheffer_lowering_recurrence():
    psi = PsiSequence.jackson(2, CAP)
    delta = DeltaOperator.from_operator(forward_difference_op(psi, CAP), psi)
    s_op = GradedOperator.identity(CAP) + psi_derivative_op(psi, CAP)
    seq = sheffer_sequence(delta, s_op, 6)
    for n in range(1, 7):
        assert delta.op.apply(seq[n]) == psi.n_psi(n) * seq[n - 1]


def test_sheffer_sequence_refuses_a_short_factor():
    # the inverse of a cap-4 factor is known to x^4 only; s_5..s_8 would
    # need the terms of its series past the cap
    psi = PsiSequence.classical(12)
    delta = DeltaOperator.from_operator(derivative_op(12), psi)
    s_op = translation_op(psi, Fraction(3, 2), 4)
    with pytest.raises(CapExceededError):
        sheffer_sequence(delta, s_op, 8)
    seq = sheffer_sequence(delta, s_op, 4)
    assert seq == [Polynomial((Fraction(-3, 2), 1)) ** n for n in range(5)]


def test_unit_normal_sequence_is_normalization_invariant():
    # p_n / n_psi! is the same no matter which weights produced p_n
    delta_cl = forward_difference_op(PsiSequence.classical(CAP), CAP)
    for psi in (PsiSequence.classical(CAP), PsiSequence.jackson(2, CAP),
                PsiSequence.jackson(Fraction(1, 2), CAP)):
        seq = basic_sequence_solve(delta_cl, psi, 6)
        units = unit_normal_sequence(delta_cl, 6)
        for n in range(7):
            assert seq[n] * (Fraction(1) / psi.factorial(n)) == units[n]


def test_eigenfunction_series():
    psi = classical()
    delta = forward_difference_op(psi, CAP)
    lam = Fraction(1, 2)
    phi, table = eigenfunction_series(delta, lam, 10)
    assert phi.constant_term == 1
    assert len(table) == 11
    # op Phi = lam Phi exactly, once the dropped top table entry is restored
    applied = delta.apply(phi.as_polynomial())
    want = lam * (phi.as_polynomial() - lam ** 10 * table[10])
    assert applied == want


@given(st.integers(min_value=1, max_value=5))
@settings(max_examples=20)
def test_basic_solve_matches_rodrigues_for_random_tails(k):
    # indicator z + z^(k+1)/(k+1) is a valid delta indicator
    psi = PsiSequence.jackson(Fraction(1, 2), 12)
    coeffs = [Fraction(0), Fraction(1)] + [Fraction(0)] * (k - 1) + [Fraction(1, k + 1)]
    delta = DeltaOperator.from_indicator(coeffs, psi, 12)
    assert list(rodrigues_sequence(delta, 5)) == list(delta.basic(5))


# -- closed formulas 1-3 and the series materialization, against references --

KERNEL_WEIGHTS = {
    "classical": lambda cap: PsiSequence.classical(cap),
    "q=1/2": lambda cap: PsiSequence.jackson(Fraction(1, 2), cap),
    "q=2": lambda cap: PsiSequence.jackson(2, cap),
    "squares": lambda cap: PsiSequence.custom([n * n for n in range(1, cap + 2)]),
}


@pytest.mark.parametrize("weights", sorted(KERNEL_WEIGHTS))
def test_rodrigues_formulas_1_to_3_match_solve_at_cap_20(weights):
    cap = 20
    psi = KERNEL_WEIGHTS[weights](cap)
    # the weighted forward difference: indicator sum_(k>=1) z^k / k_psi!
    indicator = [0] + [1 / psi.factorial(k) for k in range(1, cap + 1)]
    delta = DeltaOperator.from_indicator(indicator, psi, cap)
    solved = list(basic_sequence_solve(delta.op, psi, cap - 1))
    for formula in (1, 2, 3):
        assert list(rodrigues_sequence(delta, cap - 1, formula)) == solved


def falling_per_entry(coeffs, psi, cap):
    """The table of sum_k c_k (psi-derivative)^k, one falling factorial a cell."""
    def rule(n):
        out = [Fraction(0)] * (n + 1)
        for k in range(min(n, len(coeffs) - 1) + 1):
            if coeffs[k] != 0:
                out[n - k] += coeffs[k] * psi.falling(n, k)
        return Polynomial(out)

    return GradedOperator.from_monomial_rule(rule, cap)


# All five kinds of weights; the custom one has exactly cap values, so a
# table that read one weight too many would fail.
SERIES_WEIGHTS = dict(
    KERNEL_WEIGHTS,
    divided_difference=lambda cap: PsiSequence.divided_difference(cap),
    rational=lambda cap: PsiSequence.rational(
        RationalFunction(Polynomial([1, -1]), Polynomial([1, 2])),
        Fraction(1, 2), cap),
    exact_custom=lambda cap: PsiSequence.custom(
        [Fraction((-2) ** n, 2 * n + 1) for n in range(1, cap + 1)]),
)


@pytest.mark.parametrize("weights", sorted(SERIES_WEIGHTS))
def test_operator_from_series_matches_per_entry_falling(weights):
    cap = 14
    psi = SERIES_WEIGHTS[weights](cap)
    rng = random.Random(weights)
    for length in (1, 3, cap + 1, cap + 4):
        coeffs = [Fraction(rng.choice((0, 0, 1, -2, 3)), rng.randint(1, 4))
                  for _ in range(length)]
        got = operator_from_series(coeffs, psi, cap)
        assert got.images == falling_per_entry(coeffs, psi, cap).images


def test_operator_from_series_reads_no_weight_past_the_last_term():
    # three custom weights suffice for a series of degree 0 at any cap
    psi = PsiSequence.custom([1, 2, 3])
    table = operator_from_series([5, 0, 0, 0], psi, 6)
    assert table == GradedOperator.scalar(5, 6)


def test_a_nonconstant_series_reads_every_weight_to_its_cap():
    # two custom weights do not serve z at cap 5, though z stops at degree 1
    with pytest.raises(CapExceededError, match="no value at n=3"):
        SeriesOperator(TruncatedSeries((0, 1), 5), PsiSequence.custom([1, 2]))


# -- the integer apply and solve against Fraction loops written here --------

def mixed_fractions(rng, length):
    """Entries with runs of zeros, negative values and mixed denominators."""
    out = []
    while len(out) < length:
        if rng.random() < 0.3:
            out.extend([Fraction(0)] * rng.randint(1, 3))
        else:
            out.append(Fraction(rng.randint(-50, 50),
                                rng.choice((1, 3, 7, 2 ** 5, 2 ** 31 - 1))))
    return out[:length]


def loop_apply_psi_series(coeffs, psi, cs):
    """sum_k c_k (psi-derivative)^k on a coefficient list, one power at a time."""
    out = [Fraction(0)] * len(cs)
    current = list(cs)
    for c in coeffs:
        for i, a in enumerate(current):
            out[i] += c * a
        current = [psi.n_psi(n) * a for n, a in enumerate(current) if n]
    return Polynomial(out)


@pytest.mark.parametrize("weights", sorted(SERIES_WEIGHTS))
def test_apply_psi_series_matches_a_loop_over_powers(weights):
    cap = 14
    psi = SERIES_WEIGHTS[weights](cap)
    rng = random.Random("apply:" + weights)
    for _ in range(12):
        length = rng.randint(1, cap + 3)
        series = TruncatedSeries(mixed_fractions(rng, length), length - 1)
        cs = mixed_fractions(rng, rng.randint(0, cap + 1))
        p = Polynomial(cs)
        want = loop_apply_psi_series(series.coeffs, psi, cs)
        assert apply_psi_series(series, psi, p) == want
        assert apply_psi_series(list(series.coeffs), psi, p) == want
        top = len(p.coeffs) - 1
        if top >= 0:
            xn = Polynomial.monomial(top, cs[top])
            assert apply_psi_series(series, psi, xn) == loop_apply_psi_series(
                series.coeffs, psi, list(xn.coeffs))
        assert operator_from_series(series, psi, cap) == \
            operator_from_series(list(series.coeffs), psi, cap)


def test_apply_psi_series_with_short_custom_weights_raises():
    psi = PsiSequence.custom([1, 4, 9])
    series = TruncatedSeries((1, 1), 1)
    p = Polynomial((1, 1, 1, 1))
    assert apply_psi_series(series, psi, p) == loop_apply_psi_series(
        series.coeffs, psi, list(p.coeffs))
    # a fourth weight is needed even though the series stops at degree 1
    with pytest.raises(CapExceededError, match="no value at n=4"):
        apply_psi_series(series, psi, p.shifted(1))
    # a zero polynomial or an empty series reads no weight
    assert apply_psi_series(series, PsiSequence.custom([]), Polynomial()).is_zero
    assert apply_psi_series([], PsiSequence.custom([]), p).is_zero


def back_substitution(op, psi, n_max):
    """p_0 = 1, p_n(0) = 0, op p_n = n_psi p_(n-1), solved on Fraction lists."""
    rows = [list(op.image(j).coeffs) for j in range(n_max + 1)]
    polys = [[Fraction(1)]]
    for n in range(1, n_max + 1):
        target = [psi.n_psi(n) * a for a in polys[n - 1]]
        c = [Fraction(0)] * (n + 1)
        for i in range(n - 1, -1, -1):
            acc = sum((c[j] * rows[j][i] for j in range(i + 2, n + 1)),
                      Fraction(0))
            c[i + 1] = (target[i] - acc) / rows[i + 1][i]
        polys.append(c)
    return [Polynomial(c) for c in polys]


@pytest.mark.parametrize("weights", sorted(KERNEL_WEIGHTS))
def test_basic_sequence_solve_matches_back_substitution(weights):
    cap = 12
    psi = KERNEL_WEIGHTS[weights](cap)
    rng = random.Random("solve:" + weights)
    for _ in range(3):
        indicator = [0, Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 7)))]
        indicator += mixed_fractions(rng, cap - 1)
        op = DeltaOperator.from_indicator(indicator, psi, cap).op
        assert list(basic_sequence_solve(op, psi, cap - 1)) == \
            back_substitution(op, psi, cap - 1)
    # a lowering table with mixed denominators that is no series at all
    images = [Polynomial()]
    for n in range(1, cap + 1):
        lead = Fraction(rng.choice((-5, -1, 2, 3)), rng.choice((1, 3, 2 ** 31 - 1)))
        images.append(Polynomial(mixed_fractions(rng, n - 1) + [lead]))
    op = GradedOperator(images, cap)
    assert list(basic_sequence_solve(op, psi, cap)) == back_substitution(op, psi, cap)
