"""Acceptance gate: one test per shipped guarantee.

Every criterion runs at cap 16 over the standard weight suite (classical,
jackson 1/2, jackson 2, jackson 0, squares) and is exact, with a single
exception: criterion 13 cross-checks the residue-class exponential slices
against a complex-float root-of-unity average and tolerates 1e-12.  That
tolerance appears nowhere else in the gate.

Each test prints `criterion NN PASS/FAIL  <what it guarantees>`; the
conftest terminal summary replays those lines after the run.
"""

import cmath
from fractions import Fraction
from types import SimpleNamespace

import pytest

from psi_umbral import (algebra, cli, expansion, special, star_product,
                        umbral, verify)
from psi_umbral.algebra import Polynomial, TruncatedSeries
from psi_umbral.errors import CapExceededError
from psi_umbral.operators import (apply_psi_series, derivative_op,
                                  multiply_x_op)
from psi_umbral.psi import PsiSequence
from psi_umbral.special import psi_exp_scaled
from psi_umbral.umbral import BasicSequence
from psi_umbral.verify import (CheckResult, check_binomial, check_detection,
                               check_divided_difference_series,
                               check_expansion_goldens, check_generating_function,
                               check_ghw, check_integration, check_parity,
                               check_poisson, check_random_roundtrip,
                               check_reorderings, check_rodrigues,
                               check_special, _reorders)
import draw_check
from test_cli_golden import HOME, INTERPRETERS, run_with_package, working_python
from test_special import _root_of_unity_average

CAP = 16

SCOREBOARD: list[str] = []


def _gate(num: int, description: str, results) -> None:
    bad = ["%s (%s)" % (r.name, r.detail) if r.detail else r.name
           for r in results if not r.passed]
    line = "criterion %02d %s  %s" % (num, "FAIL" if bad else "PASS", description)
    if bad:
        line += "; first failing check: " + bad[0]
    SCOREBOARD.append(line)
    print(line)
    assert not bad, "failed checks: " + "; ".join(bad)


def test_criterion_01_commutator_is_the_identity():
    _gate(1, "weighted derivative and its dual raise commute to the identity, n <= 15",
          check_ghw(CAP))


def test_commutator_comparison_can_fail(monkeypatch):
    # a raise at twice its weight commutes to twice the identity
    real = verify.psi_raise_op
    monkeypatch.setattr(verify, "psi_raise_op",
                        lambda psi, cap: 2 * real(psi, cap))
    results = check_ghw(CAP)
    assert results and not any(r.passed for r in results)
    # one table comparison per weight set: there is no case to name
    assert [r.detail for r in results] == [""] * 5


def test_criterion_02_binomial_identity():
    _gate(2, "basic sequences satisfy the weighted binomial identity at 11 rational "
             "points, n <= 10, three operators per weight set",
          check_binomial(CAP))


def _solve_with_x_in_p3(real):
    """The basic-sequence solve ``real`` with x added to p_3."""
    def off_by_x(op, psi, n_max):
        seq = real(op, psi, n_max)
        polys = list(seq.polys)
        polys[3] = polys[3] + Polynomial.monomial(1)
        return BasicSequence(polys, seq.psi, seq.op)
    return off_by_x


def test_binomial_comparison_can_fail(monkeypatch):
    # the solve with x added to p_3: at n = 3 both sides gain x + y, but
    # from n = 4 on only the split over the basis moves, and not at y = 0,
    # where the added x vanishes
    monkeypatch.setattr(verify, "basic_sequence_solve",
                        _solve_with_x_in_p3(verify.basic_sequence_solve))
    results = check_binomial(CAP)
    assert results and not any(r.passed for r in results)
    assert [r.detail for r in results] == ["n=4, y=1"] * 15


def test_binomial_translation_side_can_fail(monkeypatch):
    # the translation of p_5 plus one, by one added to its T_0: the split
    # over the basis no longer matches it, first at n = 5 and the first
    # point, y = 0
    real = verify.translation_coefficients

    def plus_one_at_5(psi, p):
        out = real(psi, p)
        if p.degree == 5:
            out[0] = out[0] + Polynomial.one()
        return out

    monkeypatch.setattr(verify, "translation_coefficients", plus_one_at_5)
    results = check_binomial(CAP)
    assert results and not any(r.passed for r in results)
    assert [r.detail for r in results] == ["n=5, y=0"] * 15


def test_binomial_cases_read_as_the_pointwise_comparison(monkeypatch):
    # every (n, y) case of one (weights, base), under the p_3 + x solve,
    # has the truth value of comparing the translation with the split at
    # that y; the walk stops at the first false one, so it is read from
    # the holds function the check hands to _verdict
    monkeypatch.setattr(verify, "basic_sequence_solve",
                        _solve_with_x_in_p3(verify.basic_sequence_solve))
    seen = {}
    real = verify._verdict

    def keep_holds(name, cases, holds):
        seen.setdefault(name, (cases, holds))
        return real(name, cases, holds)

    monkeypatch.setattr(verify, "_verdict", keep_holds)
    check_binomial(CAP)
    name = next(n for n in seen if n.startswith("binomial[q=1/2,difference]"))
    cases, holds = seen[name]
    psi = PsiSequence.jackson(Fraction(1, 2), CAP)
    base = dict(verify._delta_bases(psi, CAP))["difference"]
    polys = verify.basic_sequence_solve(base, psi, 10).polys
    walked = [holds(**case) for case in cases]
    # the old check's translation: exp(y d_psi) applied as a series
    pointwise = [apply_psi_series(psi_exp_scaled(psi, case["y"], case["n"]),
                                  psi, polys[case["n"]]) == sum(
        (psi.binomial(case["n"], k) * polys[case["n"] - k](case["y"])
         * polys[k] for k in range(case["n"] + 1)), Polynomial.zero())
        for case in cases]
    assert len(cases) == 121 and walked == pointwise
    # n = 3 holds everywhere, and from n = 4 on only y = 0 does
    assert walked.count(True) == 4 * 11 + 7


def test_criterion_03_closed_forms_match_the_solve():
    _gate(3, "all four closed-form constructions reproduce the triangular solve, "
             "n <= 8, three operator shapes",
          check_rodrigues(CAP))


def test_closed_form_comparison_can_fail(monkeypatch):
    # one coefficient of one p_n from formula 2 is off by one: every
    # operator shape under every weight set must report it
    real = verify.rodrigues_sequence

    def off_by_one(delta, n_max, formula=4):
        seq = real(delta, n_max, formula=formula)
        if formula != 2:
            return seq
        polys = list(seq.polys)
        polys[3] = polys[3] + Polynomial.monomial(1)
        return BasicSequence(polys, seq.psi, seq.op)

    monkeypatch.setattr(verify, "rodrigues_sequence", off_by_one)
    results = check_rodrigues(CAP)
    assert results and not any(r.passed for r in results)
    assert [r.detail for r in results] == ["formula=2, n=3"] * 15


def _q0_plus_one(real):
    """The monomial expansion ``real`` with one added to q_0."""
    def shifted_q0(t, base):
        exp = real(t, base)
        qs = list(exp.coeff_polys)
        qs[0] = qs[0] + Polynomial.one()
        return expansion.OperatorExpansion(qs, exp.base, exp.form)
    return shifted_q0


def test_criterion_04_expansion_goldens():
    _gate(4, "derivative-in-difference coefficients are (-1)^(k-1)/k and the "
             "reverse are 1/k!, k <= 12",
          check_expansion_goldens(CAP))


def test_expansion_golden_comparison_can_fail(monkeypatch):
    # the monomial expansion with one added to q_0: neither expansion
    # starts at zero, and both reconstruct their operator plus one
    monkeypatch.setattr(verify, "expand_in_monomials",
                        _q0_plus_one(verify.expand_in_monomials))
    results = check_expansion_goldens(CAP)
    assert results and not any(r.passed for r in results)
    assert [r.detail for r in results] == ["k=0", "k=0", "operator=derivative"]


def test_criterion_05_weight_detection():
    _gate(5, "detection accepts the disguised square-weight derivative and "
             "rejects the non-example with a concrete witness",
          check_detection(CAP))


def test_detection_comparison_can_fail(monkeypatch):
    # detection of the operator plus D^3/3: the square-weight derivative
    # stops being a series, and the non-example becomes the series D X D / 2
    real = verify.detect_psi_series

    def plus_cube(op):
        return real(op + Fraction(1, 3) * derivative_op(op.cap) ** 3)

    monkeypatch.setattr(verify, "detect_psi_series", plus_cube)
    results = check_detection(CAP)
    assert results and not any(r.passed for r in results)
    # the rejection row is one comparison: there is no case to name
    assert [r.detail for r in results] == ["series=False", ""]


def test_detection_reads_every_weight_and_coefficient(monkeypatch):
    # D X D + X D D sends x^n to n(2n - 1) x^(n-1): a series of scale 1
    # whose weights leave n^2 at n = 2.  D X D + (D X D)^2/2 keeps the
    # weights n^2 but is the series d + d^2/2.
    real = verify.detect_psi_series
    routes = {
        "n=2, n_psi=6":
            lambda op: op + multiply_x_op(op.cap) * derivative_op(op.cap) ** 2,
        "k=2, c_k=1/2": lambda op: op + Fraction(1, 2) * op * op,
    }
    for witness, wrong in routes.items():
        with monkeypatch.context() as m:
            m.setattr(verify, "detect_psi_series",
                      lambda op: real(wrong(op)))
            assert check_detection(CAP)[0].detail == witness


def test_criterion_06_right_inverses():
    _gate(6, "the q, ratio-of-values, and weighted antiderivatives are exact "
             "right inverses, n <= 15, and the geometric routes agree",
          check_integration(CAP))


def test_right_inverse_comparison_can_fail(monkeypatch):
    # No one route feeds every criterion-6 row, so three are perturbed in
    # turn: the derivative at twice its weight, the weighted antiderivative
    # plus its argument, and the weight multiplier at twice its values.
    # Each row must fail under the route it reads.
    names = [r.name for r in check_integration(CAP)]
    real_d, real_i, real_w = (verify.psi_derivative, verify.psi_integral,
                              verify.weight_op)
    routes = {
        "psi_derivative": lambda psi, p: 2 * real_d(psi, p),
        "psi_integral": lambda psi, p: real_i(psi, p) + p,
        "weight_op": lambda psi, cap: 2 * real_w(psi, cap),
    }
    failed = {}
    for route, wrong in routes.items():
        with monkeypatch.context() as m:
            m.setattr(verify, route, wrong)
            failed[route] = {r.name: r.detail for r in check_integration(CAP)
                             if not r.passed}
    assert failed["psi_derivative"].keys() == {
        n for n in names if n.startswith("integration[")}
    assert failed["psi_integral"].keys() == {
        n for n in names
        if "weighted antiderivative" in n or "constants are lost" in n
        or "matches the q route" in n}
    assert failed["weight_op"].keys() == {
        n for n in names if "factors through" in n}
    assert set().union(*failed.values()) == set(names)
    # twice D_psi(I p) is 2p, off from x^0 on; D_psi(I p + p) = p + D_psi p
    # is off from x^1 on; the q route differs by p, so at x^0 for the first q
    assert set(failed["psi_derivative"].values()) == {"p=x^0"}
    assert {n: w for n, w in failed["psi_integral"].items()
            if "weighted antiderivative" not in n} == {
        names[-3]: "", names[-1]: "q=1/2, p=x^0"}
    assert {w for n, w in failed["psi_integral"].items()
            if "weighted antiderivative" in n} == {"p=x^1"}
    assert list(failed["weight_op"].values()) == ["weights=classical"]


def test_criterion_07_divided_difference_series():
    _gate(7, "the divided difference equals its alternating higher-derivative "
             "series on every polynomial of degree <= 12",
          check_divided_difference_series(CAP))


def test_divided_difference_comparison_can_fail(monkeypatch):
    # the divided difference plus one differs from the series on every p
    real = verify.divided_difference
    monkeypatch.setattr(verify, "divided_difference",
                        lambda p: real(p) + Polynomial.one())
    results = check_divided_difference_series(CAP)
    assert results and not any(r.passed for r in results)
    assert [r.detail for r in results] == ["p=x^0"]


def _reordering_rows(results):
    """The mixed-powers and the exp-commutation rows among ``results``,
    apart; neither may be empty, so no gate passes on no rows."""
    mixed = [r for r in results if r.name.startswith("mixed-powers")]
    exp = [r for r in results if r.name.startswith("exp-commutation")]
    assert mixed and exp
    return mixed, exp


def test_criterion_08_reordering_identity():
    _gate(8, "lowering powers reorder past raising powers with factorial-binomial "
             "weights, n, m <= 5 on x^j, j <= 6",
          _reordering_rows(check_reorderings(CAP))[0])


def test_criterion_09_exponential_commutation():
    _gate(9, "exponentials of lowering and raising commute up to the scalar "
             "exponential factor, order 10, j <= 6",
          _reordering_rows(check_reorderings(CAP))[1])


def test_reordering_comparison_can_fail(monkeypatch):
    # criteria 8 and 9 share one comparison; lowering by jackson(2) weights
    # past a classical raise does not reorder, and it must say so, first
    # at one lowering past one raise on x
    q2, classical = PsiSequence.jackson(2, CAP), PsiSequence.classical(CAP)
    mixed = SimpleNamespace(falling=q2.falling,
                            raising_ratio=classical.raising_ratio)
    assert _reorders(q2, 1, 1, 1)
    assert not _reorders(mixed, 1, 1, 1)
    monkeypatch.setattr(verify, "standard_suite_psis",
                        lambda cap: [("mixed", mixed)])
    results = check_reorderings(CAP)
    assert not any(r.passed for r in results)
    assert [r.detail for r in results] == ["n=1, m=1, j=1"] * 2


def _reorders_wrong_at(triple):
    """``verify._reorders`` with its verdict turned over at one (n, m, j)."""
    real = verify._reorders
    return lambda psi, n, m, j: real(psi, n, m, j) != ((n, m, j) == triple)


def test_shared_reordering_fails_both_checks_at_a_shared_triple(monkeypatch):
    # the suite evaluates each triple once per weight set for both checks:
    # wrong at one both hold, each check names it under every weight set
    monkeypatch.setattr(verify, "_reorders", _reorders_wrong_at((2, 3, 4)))
    mixed, exp = _reordering_rows(verify.run_suite("leibniz", CAP))
    assert len(mixed) == len(exp) == 5
    assert not any(r.passed for r in mixed + exp)
    assert [r.detail for r in mixed + exp] == ["n=2, m=3, j=4"] * 10


def test_shared_reordering_fails_only_the_check_that_holds_the_triple(
        monkeypatch):
    # n = 6 is past mixed-powers' n <= 5: it passes, exp-commutation fails
    monkeypatch.setattr(verify, "_reorders", _reorders_wrong_at((6, 0, 1)))
    mixed, exp = _reordering_rows(verify.run_suite("leibniz", CAP))
    assert len(mixed) == len(exp) == 5
    assert all(r.passed for r in mixed)
    assert not any(r.passed for r in exp)
    assert [r.detail for r in exp] == ["n=6, m=0, j=1"] * 5


def test_shared_reordering_evaluates_each_triple_once(monkeypatch):
    # the suite's calls are the exp-commutation cases under each weight
    # set, with no repeats, and its rows are check_reorderings' own, in order
    calls = []
    real = verify._reorders

    def counted(psi, n, m, j):
        calls.append((psi, n, m, j))
        return real(psi, n, m, j)

    monkeypatch.setattr(verify, "_reorders", counted)
    mixed, exp = _reordering_rows(verify.run_suite("leibniz", CAP))
    assert len(calls) == len(set(calls))
    exp_cases = {(a, b, j) for a in range(11) for b in range(11 - a)
                 for j in range(7) if j + b <= CAP + 2}
    assert {call[1:] for call in calls} == exp_cases
    assert len(calls) == len(exp) * len(exp_cases)
    assert [r.name for r in check_reorderings(CAP)] == [r.name for r in
                                                        mixed + exp]


def test_criterion_10_poisson_routes_agree():
    _gate(10, "the three product-weight constructions agree to order 14, m <= 5, "
              "two rates, and the weights normalize to one",
          check_poisson(CAP))


def test_poisson_comparison_can_fail(monkeypatch):
    # the star product with one added to every result: the product weights
    # leave the other two routes, break the cascade at m = 0, open their
    # partial sums with m_max + 2 and normalize to two
    real = star_product.star_mul

    def plus_one(f, g, psi, cap=None):
        out = real(f, g, psi, cap)
        return out + TruncatedSeries.one(out.cap)

    monkeypatch.setattr(star_product, "star_mul", plus_one)
    results = check_poisson(CAP)
    assert results and not any(r.passed for r in results)
    # per weight set and rate: routes, cascade, partial sums, and the
    # normalizer, which is one comparison with no case to name
    assert [r.detail for r in results] == ["m=0", "m=0", "k=0", ""] * 10


def test_criterion_11_random_roundtrips():
    _gate(11, "20 randomized operators per weight set round-trip through "
              "expansion, and conjugation holds at 3 rational rates",
          check_random_roundtrip(CAP))


def test_roundtrip_comparison_can_fail(monkeypatch):
    # the monomial expansion with one added to q_0: the reconstruction is
    # T + 1 and the conjugation disagrees at order 0, for every weight set
    shifted_q0 = _q0_plus_one(expansion.expand_in_monomials)
    monkeypatch.setattr(expansion, "expand_in_monomials", shifted_q0)
    monkeypatch.setattr(verify, "expand_in_monomials", shifted_q0)
    results = check_random_roundtrip(CAP)
    assert results and not any(r.passed for r in results)
    assert [r.detail for r in results] == ["trial=0"] * 10


def test_random_polynomials_keep_their_draws():
    # a/b with a in -9..9 and then b in 1..4, one coefficient at a time,
    # and a lowering operator's drop in 1..3 before its rows: the
    # getrandbits route draws the same values in the same order as randint
    # and randrange, and leaves the generator where they leave it
    assert draw_check.mismatches() == []


@pytest.mark.parametrize("python", INTERPRETERS,
                         ids=lambda p: p.replace(HOME, "~"))
def test_draws_match_randrange_under_every_interpreter(python):
    result = run_with_package(working_python(python), draw_check.__file__)
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")


def test_an_exception_in_a_case_fails_that_case():
    def holds(n):
        return 1 // (3 - n) >= 0

    result = verify._verdict("name", [{"n": n} for n in range(5)], holds)
    assert (result.name, result.passed) == ("name", False)
    assert result.detail == "n=3 (raised ZeroDivisionError)"


def test_a_cap_exceeded_error_still_propagates():
    def holds(n):
        raise CapExceededError("no row %d" % n)

    with pytest.raises(CapExceededError):
        verify._verdict("name", [{"n": 1}], holds)


def test_an_exception_before_the_cases_fails_the_check(monkeypatch):
    def broken(cap):
        raise IndexError("list index out of range")

    monkeypatch.setitem(verify.SUITES, "rodrigues", (broken,))
    (result,) = verify.run_suite("rodrigues", CAP)
    assert (result.name, result.passed) == ("broken", False)
    assert result.detail == "raised IndexError"


def _drop_top_term(real):
    # M3: every product loses its top term
    def product(a, b, cap):
        out = real(a, b, cap)
        out[-1] = 0
        return out
    return product


def _drop_degree_13_up(real):
    # M8: every combination loses its terms of degree 13 or more
    return lambda terms, den: real(terms, den).truncated(12)


@pytest.mark.parametrize("kernel,mutant,cap", [
    ("_product", _drop_top_term, 10),
    ("_combination", _drop_degree_13_up, 16)], ids=["M3", "M8"])
def test_a_kernel_fault_is_a_failing_row_not_a_traceback(
        kernel, mutant, cap, monkeypatch, capsys):
    # each mutant raises inside some checks, before their cases in some:
    # verify still prints every row, fails, and exits 1
    real = getattr(algebra, kernel)
    for module in (algebra, expansion, umbral, verify):
        if getattr(module, kernel, None) is real:
            monkeypatch.setattr(module, kernel, mutant(real))
    assert cli.main(["verify", "--suite", "all", "--cap", str(cap)]) == 1
    out, err = capsys.readouterr()
    rows = out.splitlines()
    assert err == ""
    assert any(row.startswith("FAIL") and "raised " in row for row in rows)
    assert rows[-1].endswith(" failed") and not rows[-1].endswith(" 0 failed")


def test_conjugation_rows_read_their_sample_points(monkeypatch):
    # the expansion's indicator moved by one at every rate: every order
    # still matches, so only the sample points can fail the rows
    real = expansion.OperatorExpansion.indicator_at
    monkeypatch.setattr(expansion.OperatorExpansion, "indicator_at",
                        lambda self, lam: real(self, lam) + Polynomial.one())
    results = check_random_roundtrip(CAP)
    assert [r.passed for r in results] == [True, False] * 5
    assert [r.detail for r in results] == ["", "trial=0"] * 5


def test_criterion_12_generating_function_and_shifted_families():
    _gate(12, "basic sequences match their exponential generating function to "
              "order 10 and the shifted family satisfies its splitting identity",
          check_generating_function(CAP))


def test_generating_function_comparison_can_fail(monkeypatch):
    # the reverted indicator with its z^3 coefficient moved by 1/5
    real = TruncatedSeries.reversion

    def perturbed(self):
        rev = real(self)
        return rev + TruncatedSeries([0, 0, 0, Fraction(1, 5)], rev.cap)

    monkeypatch.setattr(TruncatedSeries, "reversion", perturbed)
    powers, shifted = check_generating_function(CAP)
    assert powers.name.startswith("generating function: reverted indicator")
    assert not powers.passed
    assert powers.detail == "n=3"
    assert shifted.passed


def _criterion_13_rows():
    results = list(check_special(CAP))
    # the gate's only float tolerance lives here
    tol = 1e-12
    cap = 30
    ok = True
    for psi in (PsiSequence.classical(cap),
                PsiSequence.jackson(Fraction(1, 2), cap)):
        for m in (2, 3):
            for j in range(m):
                exact = float(special.psi_hyperbolic(psi, m, j, cap)
                              .as_polynomial()(Fraction(1, 2)))
                got = _root_of_unity_average(psi, m, j, 0.5, cap)
                if abs(got.imag) >= tol or abs(got.real - exact) >= tol:
                    ok = False
    results.append(CheckResult(
        "special: float root-of-unity average matches the exact slices at "
        "alpha=1/2 within 1e-12", ok))
    return results


def test_criterion_13_exponential_slices():
    _gate(13, "degenerate exponentials are all-ones, slices partition the "
              "exponential for m <= 5, float cross-check within 1e-12",
          _criterion_13_rows())


def test_exponential_slice_comparison_can_fail(monkeypatch):
    # No one route feeds every criterion-13 row, so two are perturbed in
    # turn: each slice plus z^m, and the exponential plus one.  Each row
    # must fail under the route it reads.
    names = [r.name for r in _criterion_13_rows()]
    real_slice, real_exp = special.psi_hyperbolic, verify.exp_psi_series

    def slice_plus_zm(psi, m, j, cap):
        return real_slice(psi, m, j, cap) + TruncatedSeries([0] * m + [1], cap)

    routes = {
        "psi_hyperbolic": [(special, slice_plus_zm), (verify, slice_plus_zm)],
        "exp_psi_series": [(verify, lambda psi, cap: real_exp(psi, cap)
                            + TruncatedSeries.one(cap))],
    }
    failed = {}
    for route, patches in routes.items():
        with monkeypatch.context() as m:
            for module, wrong in patches:
                m.setattr(module, route, wrong)
            failed[route] = {r.name: r.detail for r in _criterion_13_rows()
                             if not r.passed}
    assert failed["psi_hyperbolic"].keys() == {
        n for n in names if "partition" in n or "rotates" in n
        or n.startswith("special: float")}
    assert failed["exp_psi_series"].keys() == {
        n for n in names if "partition" in n or "geometric" in n}
    assert set().union(*failed.values()) == set(names)
    # both fail at the first residue class count, m = 1; the float
    # cross-check is one comparison with no case to name
    witness = {"partition": "m=1", "rotates": "m=1, j=0", "geometric": "k=0",
               "float": ""}
    for route in failed:
        for name, detail in failed[route].items():
            assert [detail] == [w for key, w in witness.items() if key in name]


def test_criterion_14_parity():
    _gate(14, "odd alternating weighted binomial sums vanish, n <= 15; the even "
              "jackson(2) case equals 1 - q, not zero",
          check_parity(CAP))


def test_parity_comparison_can_fail(monkeypatch):
    # the binomial at k = 1 off by one: every odd alternating sum moves to
    # -1, and the even q=2 sum to -q
    real = PsiSequence.binomial
    monkeypatch.setattr(PsiSequence, "binomial",
                        lambda self, n, k: real(self, n, k) + (k == 1))
    results = check_parity(CAP)
    assert results and not any(r.passed for r in results)
    # the even q=2 row is one comparison: there is no case to name
    assert [r.detail for r in results] == ["n=1"] * 5 + [""]
