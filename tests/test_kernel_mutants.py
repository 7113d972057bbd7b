"""Faults in the shared kernels against the acceptance gate and the oracles.

Nearly every identity ``verify`` checks reaches the same kernels on both of
its sides, so a fault there can cancel out.  Each mutant below is one
textual change to one kernel, applied in process: the changed source is
compiled in the globals of the kernel's module and bound in place of the
original wherever a ``psi_umbral`` module, or the kernel's class, holds
it.  Every mutant must fail ``verify.run_all(8)`` or an oracle case of
``test_oracles``, whose closed forms share no code with the kernels.
``VERIFY_MISSES`` names the mutants that verify alone lets through; a
change to the gate that catches one of them updates it.
"""

import inspect
import itertools
import sys
import textwrap

import pytest

import test_oracles
from psi_umbral import algebra, expansion, operators, umbral, verify
from psi_umbral.psi import PsiSequence

GATE_CAP = 8

# name: (owner, function name, text replaced, replacement)
MUTANTS = {
    "combination_drops_the_sign": (algebra, "_combination",
                                   "signed = lcm if den > 0 else -lcm",
                                   "signed = lcm"),
    "cofactors_drop_the_sign": (PsiSequence, "cofactors",
                                "m = 1 if h > 0 else -1", "m = 1"),
    "product_stops_one_early": (algebra, "_product",
                                "if j > top:", "if j >= top:"),
    "lowest_terms_reads_one_entry": (algebra, "_lowest_terms",
                                     "gcd(den, nums[-1], *nums)",
                                     "gcd(den, nums[-1])"),
    # the one back substitution, read back on monomials: the solve,
    # ``monomials_to_basis`` and ``umbral_map`` all run it
    "back_substitution_drops_the_row_denominator": (
        umbral, "_back_substitution", "list(map(mul, beta, dens))", "beta"),
    "pairs_over_lcm_keeps_a_negative_denominator": (
        algebra, "_pairs_over_lcm", "* abs(d)", "* d"),
    "factorial_pairs_skip_the_weight_gcd": (PsiSequence, "factorial_pairs",
                                            "u // e", "u"),
    "weighted_shift_drops_the_sign": (operators, "_weighted_shift",
                                      "x * u", "x * abs(u)"),
    # the closed formulas' one correlation, shared by every formula but by
    # no other route of verify's rodrigues check
    "correlate_drops_the_top_term": (operators, "_correlate",
                                     "c[: len(u)]", "c[: len(u) - 1]"),
    # the shift-invariance gate of a shift value, on its weights
    "shift_witness_compares_numerators_only": (
        operators, "_shift_witness", "u * b * g * f0 != v * a * f * g0",
        "u * f0 != a * f"),
    # step 1 of the expansion on the one diagonal of a weighted shift
    "shift_step_one_adds_the_earlier_terms": (
        expansion, "_shift_step_one", "- v * sum(", "+ v * sum("),
    # a series value's row n, over down[n] = L/n_psi! taken as positive
    "series_row_drops_the_sign": (operators, "_series_rule",
                                  "if down[-1] < 0:", "if False:"),
}

# The gate has no weight set with a negative pivot, weight or factorial
# (ROADMAP item 9(b)) and none whose factorial chain breaks, so it misses
# the sign faults and the factorial one.
VERIFY_MISSES = {"combination_drops_the_sign", "cofactors_drop_the_sign",
                 "pairs_over_lcm_keeps_a_negative_denominator",
                 "factorial_pairs_skip_the_weight_gcd",
                 "weighted_shift_drops_the_sign",
                 "shift_witness_compares_numerators_only",
                 "series_row_drops_the_sign"}


def mutated(original, old, new):
    """A copy of ``original`` with the one occurrence of ``old`` in its
    source replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1, (original.__qualname__, old)
    namespace = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(original),
                 "exec"), original.__globals__, namespace)
    return namespace[original.__name__]


def apply(monkeypatch, name):
    """Bind mutant ``name`` everywhere its original is bound."""
    owner, attr, old, new = MUTANTS[name]
    original = vars(owner)[attr]
    mutant = mutated(original, old, new)
    places = [owner] + [module for key, module in sorted(sys.modules.items())
                        if key.split(".")[0] == "psi_umbral"
                        and module is not owner
                        and vars(module).get(attr) is original]
    for place in places:
        monkeypatch.setattr(place, attr, mutant)


def oracle_cases():
    """(id, test function, arguments) for every case of ``test_oracles``,
    its parametrize marks expanded as pytest expands them."""
    cases = []
    for name, fn in vars(test_oracles).items():
        if not name.startswith("test_") or not inspect.isfunction(fn):
            continue
        grids = []
        for mark in getattr(fn, "pytestmark", []):
            if mark.name == "parametrize":
                argname, values = mark.args
                grids.append([(argname, v) for v in values])
        for combo in itertools.product(*grids):
            cases.append(("%s[%s]" % (name, "-".join(str(v) for _, v in combo)),
                          fn, dict(combo)))
    return cases


ORACLE_CASES = oracle_cases()


def failing_oracles():
    """The ids of the oracle cases that fail or raise."""
    failed = []
    for case_id, fn, kwargs in ORACLE_CASES:
        with pytest.MonkeyPatch.context() as mp:
            if "monkeypatch" in inspect.signature(fn).parameters:
                kwargs = dict(kwargs, monkeypatch=mp)
            try:
                fn(**kwargs)
            except (Exception, pytest.fail.Exception):
                # pytest.raises reports a missing error as a BaseException
                failed.append(case_id)
    return failed


def gate_failures():
    """The number of checks ``verify.run_all`` fails at the gate's cap."""
    return sum(not r.passed for _, results in verify.run_all(GATE_CAP)
               for r in results)


def test_oracle_cases_are_collected_and_pass_unmutated():
    # 18 tests, 75 cases: a collector that skipped the marks finds 18
    assert len(ORACLE_CASES) >= 75
    assert failing_oracles() == []
    assert gate_failures() == 0


@pytest.mark.parametrize("name", list(MUTANTS))
def test_every_kernel_mutant_fails_the_gate_or_an_oracle(monkeypatch, name):
    apply(monkeypatch, name)
    missed = gate_failures() == 0
    assert missed == (name in VERIFY_MISSES)
    if missed:
        assert failing_oracles() != []


def test_only_the_negative_factorial_oracle_catches_the_cofactor_sign(
        monkeypatch):
    # the oracles at q = -2, where some [k]_q! are negative
    apply(monkeypatch, "cofactors_drop_the_sign")
    assert failing_oracles() == [
        "test_jackson_translation_expands_to_the_exponential_constants[%s-%d]"
        % ("-2", cap) for cap in test_oracles.CAPS] + [
        "test_the_euler_operator_expands_in_jackson_derivatives[%s--2]" % text
        for text in ("X*D", "Xpsi*Dpsi")]


def test_the_abel_basis_oracle_catches_the_back_substitution(monkeypatch):
    # no check of the gate reads the inverse of a basis, so an oracle that
    # changes the basis of a polynomial must reach the shared kernel
    apply(monkeypatch, "back_substitution_drops_the_row_denominator")
    failed = failing_oracles()
    for a in ("1/2", "-1/3"):
        assert ("test_monomials_in_the_abel_basis_follow_abels_identity[%s]"
                % a) in failed
