#!/usr/bin/env python3
"""Forward differences, falling factorials, and the Newton picture.

Run from the repository root after installing the package:

    python3 demos/falling_factorials.py

Everything printed here is computed in exact rational arithmetic.
"""

from fractions import Fraction

from psi_umbral import (DeltaOperator, Polynomial, PsiSequence, derivative_op,
                        expand_in_monomials, format_polynomial,
                        forward_difference_op, translate)

CAP = 12


def _shift(p: Polynomial, y) -> Polynomial:
    # independent check via direct substitution of x + y
    x_plus = Polynomial((Fraction(y), Fraction(1)))
    acc = Polynomial()
    for i in range(len(p.coeffs)):
        acc = acc + p.coefficient(i) * x_plus ** i
    return acc


def main():
    psi = PsiSequence.classical(CAP)
    delta = DeltaOperator.from_operator(forward_difference_op(psi, CAP), psi)

    print("Basic sequence of the forward difference (the falling factorials):")
    basics = delta.basic(6)
    for n in range(7):
        print("  p_%d(x) = %s" % (n, format_polynomial(basics[n])))

    print()
    print("Defining relation (the difference drops one factor):")
    for n in range(1, 7):
        assert delta(basics[n]) == Fraction(n) * basics[n - 1]
    print("  delta p_n = n * p_(n-1) holds for n <= 6")

    print()
    print("The plain derivative written as a series in the difference")
    print("(alternating harmonic coefficients, the Mercator series):")
    exp = expand_in_monomials(derivative_op(CAP), delta)
    row = [str(exp.coeff_polys[k].constant_term) for k in range(1, 9)]
    print("  D = " + " , ".join(row) + " , ...  (times delta^k)")

    print()
    print("Generalized translation specializes to the Taylor shift here:")
    p = basics[4]
    shifted = translate(psi, Fraction(1, 2), p)
    print("  p_4(x + 1/2) = %s" % format_polynomial(shifted))
    assert shifted == _shift(p, Fraction(1, 2))
    print("  (agrees with direct substitution)")


if __name__ == "__main__":
    main()
