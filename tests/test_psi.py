from fractions import Fraction
from functools import partial
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from psi_umbral.algebra import Polynomial, scalar_to_str
from psi_umbral.errors import AdmissibilityError, CapExceededError
from psi_umbral.operators import psi_raise
from psi_umbral.psi import (KEPT_COFACTORS, PsiSequence, RationalFunction,
                            jackson_bracket, validate_admissible)


def test_classical_weights():
    psi = PsiSequence.classical(8)
    assert psi.values(5) == [1, 2, 3, 4, 5]
    assert psi.factorial(4) == 24
    assert psi.binomial(5, 2) == 10


def test_jackson_weights_at_two():
    psi = PsiSequence.jackson(2, 8)
    assert psi.values(4) == [1, 3, 7, 15]
    assert psi.factorial(3) == 21
    assert psi.binomial(4, 2) == 35


def test_jackson_weights_at_half():
    psi = PsiSequence.jackson(Fraction(1, 2), 8)
    assert psi.n_psi(2) == Fraction(3, 2)
    assert psi.n_psi(3) == Fraction(7, 4)


def test_jackson_zero_is_all_ones():
    psi = PsiSequence.jackson(0, 8)
    assert psi.values(6) == [1] * 6
    assert psi.factorial(6) == 1


def test_jackson_rejects_q_equal_one():
    with pytest.raises(AdmissibilityError):
        jackson_bracket(Fraction(1), 3)
    with pytest.raises(AdmissibilityError):
        PsiSequence.jackson(1, 4)


def test_root_of_unity_weight_vanishes():
    # q = -1 makes the bracket vanish at n = 2
    report = validate_admissible(PsiSequence.jackson(-1, 1), 4)
    assert not report.ok
    assert report.first_violation == 2


def test_divided_difference_weights():
    psi = PsiSequence.divided_difference(6)
    assert psi.values(6) == [1] * 6
    assert psi.n_psi(0) == 0


def test_rational_weights_follow_the_bracket():
    # R(x) = (1 - x)/(1 - q) along x = q^n reproduces the Jackson bracket
    q = Fraction(1, 2)
    rat = RationalFunction(Polynomial((1, -1)), Polynomial((1 - q,)))
    psi = PsiSequence.rational(rat, q, 8)
    jackson = PsiSequence.jackson(q, 8)
    assert psi.values(8) == jackson.values(8)


def test_rational_weights_can_be_inadmissible():
    # R(x) = 1 - x vanishes at x = q^0... but n starts at 1; make it vanish at q^2
    q = Fraction(2)
    rat = RationalFunction(Polynomial((-4, 1)), Polynomial((1,)))
    report = validate_admissible(PsiSequence.rational(rat, q, 1), 5)
    assert not report.ok
    assert report.first_violation == 2


def test_rational_weights_with_a_vanishing_denominator():
    # R(x) = 1/(x - 1/4) has its pole at q^2 for q = 1/2
    rat = RationalFunction(Polynomial([1]), Polynomial([Fraction(-1, 4), 1]))
    psi = PsiSequence.rational(rat, Fraction(1, 2), 1)
    with pytest.raises(AdmissibilityError) as err:
        psi.n_psi(2)
    assert err.value.details == {"n": 2}
    assert err.value.message == "rational function denominator vanishes at 1/4"


def test_custom_weights_and_exhaustion():
    psi = PsiSequence.custom([1, 4, 9])
    assert psi.n_psi(3) == 9
    with pytest.raises(CapExceededError):
        psi.n_psi(4)
    with pytest.raises(CapExceededError):
        PsiSequence.custom([1, 2], cap=5)


def test_custom_zero_weight_is_caught():
    psi = PsiSequence.custom([1, 0, 3], cap=1)
    with pytest.raises(AdmissibilityError):
        psi.n_psi(2)
    report = validate_admissible(PsiSequence.custom([1, 0, 3]), 3)
    assert report.to_json() == {"ok": False, "cap": 3, "psi": "custom",
                                 "first_violation": 2,
                                 "reason": "weight vanishes at n=2"}


def test_lazy_extension_past_construction_cap():
    psi = PsiSequence.classical(2)
    assert psi.n_psi(10) == 10
    assert psi.stored_cap >= 10


def test_falling_factorial():
    psi = PsiSequence.jackson(2, 8)
    # 4_psi * 3_psi = 15 * 7
    assert psi.falling(4, 2) == 105
    assert psi.falling(4, 0) == 1
    assert psi.falling(3, 4) == 0  # hits the zero weight at n = 0


def test_raising_ratio():
    psi = PsiSequence.jackson(2, 8)
    # weights 1, 3, 7: (2/3) * (3/7)
    assert psi.raising_ratio(1, 2) == Fraction(2, 7)
    assert psi.raising_ratio(5, 0) == 1
    assert PsiSequence.classical(8).raising_ratio(3, 4) == 1


def test_raising_ratio_is_the_raising_operator_power():
    psi = PsiSequence.jackson(Fraction(1, 2), 12)
    for k in range(4):
        p = Polynomial.monomial(k)
        for j in range(5):
            assert p == Polynomial.monomial(k + j, psi.raising_ratio(k, j))
            p = psi_raise(psi, p)


# -- factorial quotients against plain step products ---------------------

_Q = Fraction(1, 2)
ORACLE_WEIGHTS = {
    "classical": lambda: PsiSequence.classical(14),
    "q=1/2": lambda: PsiSequence.jackson(_Q, 14),
    "q=-2": lambda: PsiSequence.jackson(-2, 14),
    "q=0": lambda: PsiSequence.jackson(0, 14),
    "divided_difference": lambda: PsiSequence.divided_difference(14),
    # (2 + x)/(1 - 3x) along x = 2^-n: the weight at n = 1 is negative
    "rational": lambda: PsiSequence.rational(
        RationalFunction(Polynomial((2, 1)), Polynomial((1, -3))), _Q, 14),
    "custom": lambda: PsiSequence.custom(
        [Fraction(-1, 3), 2, Fraction(-5, 7), Fraction(3, 2), -1, 4,
         Fraction(1, 9), -2, 5, Fraction(-7, 3), 1, 6, 3, Fraction(2, 5)]),
}


def _falling_steps(psi, n, k):
    out = Fraction(1)
    for i in range(k):
        out *= psi.n_psi(n - i)
    return out


def _binomial_steps(psi, n, k):
    out = Fraction(1)
    for i in range(k):
        out *= psi.n_psi(n - i) / psi.n_psi(i + 1)
    return out


def _raising_steps(psi, k, j):
    out = Fraction(1)
    for i in range(k + 1, k + j + 1):
        out *= i / psi.n_psi(i)
    return out


@pytest.mark.parametrize("weights", sorted(ORACLE_WEIGHTS))
def test_factorial_quotients_match_step_products(weights):
    psi, oracle = ORACLE_WEIGHTS[weights](), ORACLE_WEIGHTS[weights]()
    for n in range(15):
        for k in range(n + 1):
            assert psi.falling(n, k) == _falling_steps(oracle, n, k), (n, k)
            assert psi.binomial(n, k) == _binomial_steps(oracle, n, k), (n, k)
            assert psi.raising_ratio(k, n - k) == _raising_steps(oracle, k, n - k)
    pairs = psi.factorial_pairs(14)
    assert len(pairs) == 15
    for n, (f, g) in enumerate(pairs):
        assert g > 0 and Fraction(f, g) == psi.factorial(n)
        assert (f, g) == (psi.factorial(n).numerator, psi.factorial(n).denominator)


def test_factorial_quotient_edges():
    short = PsiSequence.custom([2, 3])
    # k = 0 is the empty product and reads no weight, even past the values
    assert short.falling(5, 0) == 1 and short.binomial(5, 0) == 1
    assert short.falling(5, -2) == 1
    one = short.raising_ratio(5, 0)
    assert one == 1 and type(one) is int
    # k > n: zero, however far past n
    psi = PsiSequence.jackson(2, 8)
    assert psi.falling(3, 4) == 0 and psi.falling(3, 9) == 0
    assert psi.binomial(3, 4) == 0 and psi.binomial(3, 9) == 0
    # negative k: a binomial of zero
    assert psi.binomial(5, -1) == 0 and psi.binomial(0, -3) == 0
    assert psi.binomial(0, 0) == 1


def test_factorials_are_indexed_by_naturals():
    # a negative index raises, as n_psi does, even once the list it would
    # index from the end is filled
    psi = PsiSequence.classical(5)
    assert psi.factorial(4) == 24
    for n in (-1, -5):
        for call in (psi.n_psi, psi.factorial, psi.factorial_pairs):
            with pytest.raises(ValueError):
                call(n)


def test_factorial_quotients_need_every_lower_weight():
    # weight 2 vanishes: a quotient of factorials reads 1..n, so the
    # products that skip weight 2 (3_psi, and 3/3_psi) raise as 3_psi! does
    psi = PsiSequence.custom([1, 0, 3], cap=1)
    for quotient in (lambda: psi.falling(3, 1), lambda: psi.binomial(3, 1),
                     lambda: psi.raising_ratio(2, 1), lambda: psi.factorial(3)):
        with pytest.raises(AdmissibilityError):
            quotient()
    assert psi.falling(1, 1) == 1 and psi.raising_ratio(0, 1) == 1


# -- the int factorial chain against a Fraction chain --------------------

CHAIN_WEIGHTS = dict(ORACLE_WEIGHTS, **{
    "q=2": lambda: PsiSequence.jackson(2, 14),
    "q=-1/2": lambda: PsiSequence.jackson(Fraction(-1, 2), 14),
})


def _fraction_chain(psi, n):
    """k_psi! for k <= n, as running Fraction products of the weights."""
    out = [Fraction(1)]
    for k in range(1, n + 1):
        out.append(out[-1] * psi.n_psi(k))
    return out


@pytest.mark.parametrize("weights", sorted(CHAIN_WEIGHTS))
def test_int_factorial_chain_matches_a_fraction_chain(weights):
    psi = CHAIN_WEIGHTS[weights]()
    want = _fraction_chain(CHAIN_WEIGHTS[weights](), 14)
    pairs = psi.factorial_pairs(14)
    assert pairs == [(f.numerator, f.denominator) for f in want]
    for n, (f, g) in enumerate(pairs):
        assert g > 0 and gcd(f, g) == 1
        value = psi.factorial(n)
        assert type(value) is Fraction and value == want[n]
    # the chain extends past what was stored, from any point
    fresh = CHAIN_WEIGHTS[weights]()
    assert fresh.factorial(5) == want[5] and fresh.factorial_pairs(14) == pairs
    for n in (-1, -3):
        for call in (psi.factorial, psi.factorial_pairs):
            with pytest.raises(ValueError):
                call(n)


# -- the cofactor reader against the lcm and its divisions --------------

def _custom(values):
    return lambda: PsiSequence.custom(values)


# f_1 = 2 does not divide f_2 in 2, 1/2, ...; g_1 = 2 does not divide g_2
# in 1/2, 2, ...; the mixed set breaks both chains more than once and has
# factorials of either sign
COFACTOR_WEIGHTS = {
    "classical": lambda: PsiSequence.classical(60),
    "squares": _custom([n * n for n in range(1, 61)]),
    "negative integers": _custom([-n for n in range(1, 61)]),
    "f chain breaks": _custom([2, Fraction(1, 2)] + list(range(3, 61))),
    "g chain breaks": _custom([Fraction(1, 2), 2] + list(range(3, 61))),
    "both chains break": _custom(
        [-1, 2, -3, Fraction(1, 2), 5, Fraction(-7, 4), 4, Fraction(9, 8), -6]
        + [Fraction(n, 3 - n % 3) for n in range(10, 61)]),
}
for _q in ("1/2", "-1/2", "2", "-2", "3/5", "0", "7/3"):
    COFACTOR_WEIGHTS["q=" + _q] = partial(PsiSequence.jackson, Fraction(_q), 60)
BROKEN = {"f chain breaks": (0,), "g chain breaks": (1,),
          "both chains break": (0, 1)}


def _lcm_and_quotients(psi, n, side, low=0):
    """The factorials k_psi! = f_k/g_k, k = low..n, by the lcm and its
    divisions: (L, [g_k (L // f_k)]) for L the lcm of the f_k (side 0), and
    (M, [f_k (M // g_k)]) for M the lcm of the g_k (side 1)."""
    pairs = psi.factorial_pairs(n)[low:]
    l = lcm(*(pair[side] for pair in pairs))
    return l, tuple(pair[1 - side] * (l // pair[side]) for pair in pairs)


@pytest.mark.parametrize("weights", sorted(COFACTOR_WEIGHTS))
def test_cofactors_are_the_lcm_and_its_quotients(weights):
    psi = COFACTOR_WEIGHTS[weights]()
    fact = psi.factorial_pairs(60)
    for side in (0, 1):
        hs = [pair[side] for pair in fact]
        breaks = [k for k in range(1, 61) if hs[k] % hs[k - 1]]
        assert bool(breaks) == (side in BROKEN.get(weights, ()))
        # rising n, then repeats and smaller n, as the callers ask
        for n in list(range(61)) + [60, 17, 60, 0, 33]:
            assert psi.cofactors(n, side) == _lcm_and_quotients(psi, n, side)
        for n, low in ((60, 59), (60, 30), (41, 2), (7, 7), (60, 1)):
            assert (psi.cofactors(n, side, low)
                    == _lcm_and_quotients(psi, n, side, low))
    if weights in ("negative integers", "q=-2", "both chains break"):
        assert any(f < 0 for f, _ in fact)
    # a window's answer is not the whole range's
    fresh = COFACTOR_WEIGHTS[weights]()
    for side in (0, 1):
        assert (fresh.cofactors(20, side, 12)
                == _lcm_and_quotients(psi, 20, side, 12))
        assert fresh.cofactors(20, side) == _lcm_and_quotients(psi, 20, side)


def test_cofactors_read_the_weights_they_need():
    psi = PsiSequence.jackson(Fraction(-1, 2), 0)
    assert psi.cofactors(30, 1) == _lcm_and_quotients(
        PsiSequence.jackson(Fraction(-1, 2), 30), 30, 1)
    assert psi.stored_cap == 30
    # past the rows it keeps the reader builds each answer again
    top = KEPT_COFACTORS + 2
    want = _lcm_and_quotients(PsiSequence.jackson(Fraction(-1, 2), top),
                              top, 0)
    assert psi.cofactors(top) == want and psi.cofactors(top) == want


@pytest.mark.parametrize("q", [Fraction(1, 2), 2, Fraction(-1, 2), -2, 0,
                               Fraction(-5, 3)])
def test_jackson_weights_match_the_bracket(q):
    values = PsiSequence.jackson(q, 30).values(30)
    assert values == [jackson_bracket(q, n) for n in range(1, 31)]
    assert all(type(w) is Fraction for w in values)


@pytest.mark.parametrize("make, n", [
    (lambda: PsiSequence.custom([2, Fraction(-1, 2), 0, 3], cap=2), 3),
    (lambda: PsiSequence.jackson(-1, 1), 2),
])
def test_a_zero_weight_stops_every_factorial_reader_at_its_index(make, n):
    readers = (lambda psi: psi.factorial(n), lambda psi: psi.factorial(n + 1),
               lambda psi: psi.factorial_pairs(n),
               lambda psi: psi.falling(n, 1), lambda psi: psi.falling(n + 1, 3),
               lambda psi: psi.binomial(n, 1), lambda psi: psi.binomial(n + 1, 2))
    for read in readers:
        psi = make()
        assert psi.factorial(n - 1) != 0
        with pytest.raises(AdmissibilityError) as err:
            read(psi)
        assert err.value.details["n"] == n


def _raise_by_ratios(psi, p):
    """x^n -> raising_ratio(n, 1) x^(n+1), one Fraction per coefficient."""
    return Polynomial([0] + [c * psi.raising_ratio(n, 1)
                             for n, c in enumerate(p.coeffs)])


@pytest.mark.parametrize("weights", ["custom", "q=-2", "rational", "classical"])
def test_psi_raise_matches_the_raising_ratios(weights):
    psi = ORACLE_WEIGHTS[weights]()
    for p in (Polynomial((Fraction(1, 3), 0, -2, 0, 0, Fraction(5, 7))),
              Polynomial((0,) * 6 + (Fraction(-9, 4),)),
              Polynomial(range(1, 14)), Polynomial()):
        assert psi_raise(psi, p) == _raise_by_ratios(psi, p)


def test_psi_raise_reads_the_weights_through_deg_p_plus_one():
    short = PsiSequence.custom([Fraction(-1, 2), 3])
    assert psi_raise(short, Polynomial()) == Polynomial()
    assert psi_raise(short, Polynomial.x()) == Polynomial.monomial(
        2, Fraction(2, 3))
    with pytest.raises(CapExceededError):
        psi_raise(short, Polynomial((0, 0, 1)))
    with pytest.raises(AdmissibilityError):
        psi_raise(PsiSequence.custom([1, 0], cap=1), Polynomial((1, 1)))


def test_binomial_edges():
    psi = PsiSequence.jackson(2, 8)
    assert psi.binomial(5, -1) == 0
    assert psi.binomial(3, 5) == 0
    assert psi.binomial(6, 0) == 1
    assert psi.binomial(6, 6) == 1


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
@settings(max_examples=60)
def test_binomial_symmetry(n, k):
    for psi in (PsiSequence.classical(12), PsiSequence.jackson(Fraction(1, 2), 12),
                PsiSequence.jackson(3, 12)):
        assert psi.binomial(n, k) == psi.binomial(n, n - k)


@given(st.integers(min_value=1, max_value=10))
@settings(max_examples=30)
def test_factorial_ratio_is_weight(n):
    psi = PsiSequence.jackson(Fraction(2, 3), 12)
    assert psi.factorial(n) / psi.factorial(n - 1) == psi.n_psi(n)


def test_json_roundtrip_all_kinds():
    q = Fraction(3, 4)
    rat = RationalFunction(Polynomial((1, -1)), Polynomial((1 - q,)))
    for psi in (PsiSequence.classical(6),
                PsiSequence.divided_difference(6),
                PsiSequence.jackson(q, 6),
                PsiSequence.rational(rat, q, 6),
                PsiSequence.custom([1, 3, 7], 3)):
        back = PsiSequence.from_json(psi.to_json(), cap=6)
        assert back.kind == psi.kind
        n = min(6, psi.stored_cap, back.stored_cap)
        assert back.values(n) == psi.values(n)


def test_validate_admissible_ok():
    report = validate_admissible(PsiSequence.jackson(2, 4), 10)
    assert report.ok
    assert report.to_json()["ok"] is True


# -- the pair store against independent closed forms ---------------------

JACKSON_QS = [Fraction(1, 2), Fraction(-1, 2), Fraction(2), Fraction(-2),
              Fraction(0), Fraction(3, 5)]


def _bracket(q):
    return lambda n: (1 - q ** n) / (1 - q)


def _negative(n):
    return Fraction((-2) ** n, 2 * n + 1) * (1 if n % 3 else -3)


def _rational_bracket(q, cap):
    """R(x) = (1 - x)/(1 - q) along x = q^n, the family verify checks."""
    rat = RationalFunction(Polynomial((1, -1)), Polynomial((1 - q,)))
    return PsiSequence.rational(rat, q, cap)


# name: (weights at a cap, the closed form of n_psi)
PAIR_WEIGHTS = dict({
    "classical": (PsiSequence.classical, Fraction),
    "divided_difference": (PsiSequence.divided_difference,
                           lambda n: Fraction(1)),
    "squares": (lambda cap: PsiSequence.custom(
        [n * n for n in range(1, cap + 1)]), lambda n: Fraction(n * n)),
    "negative custom": (lambda cap: PsiSequence.custom(
        [_negative(n) for n in range(1, cap + 1)]), _negative),
    "rational q=1/2": (lambda cap: _rational_bracket(Fraction(1, 2), cap),
                       _bracket(Fraction(1, 2))),
    "rational q=-2/3": (lambda cap: _rational_bracket(Fraction(-2, 3), cap),
                        _bracket(Fraction(-2, 3))),
}, **{"q=%s" % q: (lambda cap, q=q: PsiSequence.jackson(q, cap), _bracket(q))
      for q in JACKSON_QS})


def _pair(x):
    return x.numerator, x.denominator


def _store_mismatch(make, closed, cap):
    """The first reader of a fresh ``make(cap)`` that differs from the
    closed form through cap, or None.  Pairs must be in lowest terms with a
    positive denominator, values Fractions."""
    want = [closed(n) for n in range(1, cap + 1)]
    facts = [Fraction(1)]
    for w in want:
        facts.append(facts[-1] * w)
    readers = {
        "weight_pairs": (lambda psi: psi.weight_pairs(cap),
                         [_pair(w) for w in want]),
        "factorial_pairs": (lambda psi: psi.factorial_pairs(cap),
                            [_pair(f) for f in facts]),
        "n_psi": (lambda psi: [psi.n_psi(n) for n in range(cap + 1)],
                  [Fraction(0)] + want),
        "n_psi from the top": (lambda psi: [psi.n_psi(n)
                                            for n in range(cap, 0, -1)],
                               want[::-1]),
        "values": (lambda psi: psi.values(cap), want),
        "factorial": (lambda psi: [psi.factorial(n) for n in range(cap + 1)],
                      facts),
    }
    for name, (read, expected) in readers.items():
        got = read(make(cap))
        if got != expected:
            return name
        if not name.endswith("pairs") and any(type(x) is not Fraction
                                              for x in got):
            return name
    return None


@pytest.mark.parametrize("weights", sorted(PAIR_WEIGHTS))
def test_the_pair_store_matches_the_closed_form(weights):
    make, closed = PAIR_WEIGHTS[weights]
    for cap in (0, 1, 2, 24):
        assert _store_mismatch(make, closed, cap) is None, cap
    # stored_cap is what the store holds: a rule extends it, custom weights
    # hold their values
    psi = make(24)
    assert psi.stored_cap == 24
    psi.n_psi(6)
    assert psi.stored_cap == 24
    if psi.kind != "custom":
        psi.factorial_pairs(30)
        assert psi.stored_cap == 30 and psi.values(30)[-1] == closed(30)


def test_custom_weights_keep_their_values_through_json():
    values = [_negative(n) for n in range(1, 9)] + [Fraction(0), 7]
    psi = PsiSequence.custom(values, cap=3)
    doc = psi.to_json()
    assert doc == {"kind": "custom",
                   "n_psi": [scalar_to_str(v) for v in values]}
    assert psi.stored_cap == 10
    back = PsiSequence.from_json(doc, cap=10)
    assert back.weight_pairs(8) == [_pair(v) for v in values[:8]]
    assert back.to_json() == doc and back.stored_cap == 10


def _jackson_with(rule_of, q, cap):
    q = Fraction(q)
    return PsiSequence("q", rule_of(q), cap, "q=%s" % q, {"q": q})


def _late_start(q):
    """[n]_q recurred from [1]_q = 1 + q: every weight one step too far."""
    a, b = q.numerator, q.denominator

    def rule(n, prev):
        u, v = prev if n > 1 else (1, 1)
        return b * v + a * u, b * v

    return rule


def _unsigned(q):
    """[n]_q recurred with |q| for q."""
    a, b = abs(q.numerator), q.denominator

    def rule(n, prev):
        if n == 1:
            return 1, 1
        u, v = prev
        return b * v + a * u, b * v

    return rule


@pytest.mark.parametrize("mutant", [_late_start, _unsigned])
@pytest.mark.parametrize("q", [Fraction(-1, 2), Fraction(-2)], ids=str)
def test_the_closed_form_check_catches_a_wrong_jackson_rule(mutant, q):
    make = lambda cap: _jackson_with(mutant, q, cap)
    assert _store_mismatch(make, _bracket(q), 24) == "weight_pairs"
    # the unmutated recurrence through the same constructor passes
    assert _store_mismatch(lambda cap: _jackson_with(
        lambda q: PsiSequence.jackson(q, 0)._rule, q, cap),
        _bracket(q), 24) is None


# name: (weights at a cap, n, the exception, its message, its details)
BAD_WEIGHTS = {
    "q=1": (lambda cap: PsiSequence.jackson(1, cap), 1, AdmissibilityError,
            "Jackson weights are undefined at q = 1", {"n": 1}),
    "q=-1": (lambda cap: PsiSequence.jackson(-1, cap), 2, AdmissibilityError,
             "weight vanishes at n=2", {"n": 2, "psi": "q=-1"}),
    "custom zero": (lambda cap: PsiSequence.custom(
        [3, Fraction(-1, 2), 0, 5], cap), 3, AdmissibilityError,
        "weight vanishes at n=3", {"n": 3, "psi": "custom"}),
    "custom past its values": (lambda cap: PsiSequence.custom(
        [1, Fraction(-4, 3), 9], cap), 4, CapExceededError,
        "custom weight sequence has no value at n=4", {"n": 4}),
    "rational pole": (lambda cap: PsiSequence.rational(
        RationalFunction(Polynomial([1]), Polynomial([Fraction(-1, 4), 1])),
        Fraction(1, 2), cap), 2, AdmissibilityError,
        "rational function denominator vanishes at 1/4", {"n": 2}),
}

READERS = {
    "n_psi in order": lambda psi, n: [psi.n_psi(k) for k in range(1, n + 1)],
    "values": lambda psi, n: psi.values(n),
    "weight_pairs": lambda psi, n: psi.weight_pairs(n),
    "factorial_pairs": lambda psi, n: psi.factorial_pairs(n),
    "cofactors": lambda psi, n: psi.cofactors(n),
    "cofactors of g": lambda psi, n: psi.cofactors(n, 1),
    "factorial": lambda psi, n: psi.factorial(n),
    "falling": lambda psi, n: psi.falling(n, 1),
    "binomial": lambda psi, n: psi.binomial(n, 1),
    "raising_ratio": lambda psi, n: psi.raising_ratio(n - 1, 1),
    "validate_admissible": lambda psi, n: validate_admissible(psi, n),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("bad", sorted(BAD_WEIGHTS))
def test_a_bad_weight_stops_every_reader_at_its_index(bad, reader):
    make, n, error, message, details = BAD_WEIGHTS[bad]
    read = READERS[reader]
    for past in (0, 3):
        psi = make(n - 1)
        read(psi, n - 1)
        if reader == "validate_admissible":
            report = read(psi, n + past)
            assert (report.ok, report.first_violation, report.reason) == (
                False, n, message)
            continue
        with pytest.raises(error) as err:
            read(psi, n + past)
        assert (err.value.message, err.value.details) == (message, details)
    # one weight alone is read at its own index only
    with pytest.raises(error) as err:
        make(n - 1).n_psi(n)
    assert (err.value.message, err.value.details) == (message, details)


def test_factorial_pairs_build_no_fraction_weight():
    psi = PsiSequence.jackson(Fraction(1, 2), 40)
    pairs = psi.factorial_pairs(40)
    assert len(psi._memo) == 1
    assert psi.weight_pairs(40)[-1] == _pair(_bracket(Fraction(1, 2))(40))
    assert len(psi._memo) == 1
    # a value asked for builds the Fractions through its index only
    assert psi.factorial(40) == Fraction(*pairs[40]) and len(psi._memo) == 1
    assert psi.n_psi(3) == Fraction(7, 4) and len(psi._memo) == 4
