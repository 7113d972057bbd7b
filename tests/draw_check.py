"""verify's random draws against ``random``'s own, on the same seeds.

verify draws through ``getrandbits``, as CPython's ``randrange`` does
inside, so its random inputs, and the witnesses they give, are the ones
``randrange`` and ``randint`` would draw.  That leans on a detail of the
``random`` module, so this module compares the two routes.  It needs
nothing beyond the standard library and the package, so any interpreter
can run it:

    PYTHONPATH=src python tests/draw_check.py

prints each draw that differs and exits 1 if there is one.
"""

import random
import sys
from fractions import Fraction

from psi_umbral import verify
from psi_umbral.algebra import Polynomial

BOUNDS = (3, 4, 11, 19)  # every n that verify draws below


def reference_polynomial(rng, degree):
    """``verify._random_polynomial`` through ``randint``."""
    return Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                       for _ in range(degree + 1)])


def reference_lowering_op(rng, cap):
    """The rows of ``verify._random_lowering_op`` through ``randrange``."""
    drop = rng.randrange(3) + 1
    rows = [Polynomial.zero()] * min(drop, cap + 1)
    rows += [reference_polynomial(rng, n - drop) for n in range(drop, cap + 1)]
    return tuple(rows)


def mismatches(count=20000):
    """What differs: ``_below`` against ``randrange`` for each bound,
    ``count`` draws each, then a run of random polynomials and of random
    lowering operators, each followed by the generator's next value."""
    out = []
    for n in BOUNDS:
        got, want = random.Random(n), random.Random(n)
        bits = got.getrandbits
        if ([verify._below(bits, n) for _ in range(count)]
                != [want.randrange(n) for _ in range(count)]
                or got.random() != want.random()):
            out.append("_below(bits, %d)" % n)
    got, want = random.Random(7), random.Random(7)
    for degree in range(13):
        if (verify._random_polynomial(got, degree)
                != reference_polynomial(want, degree)):
            out.append("_random_polynomial(rng, %d)" % degree)
    for cap in range(13):
        if (verify._random_lowering_op(got, cap).images
                != reference_lowering_op(want, cap)):
            out.append("_random_lowering_op(rng, %d)" % cap)
    if got.random() != want.random():
        out.append("generator state after the draws")
    return out


if __name__ == "__main__":
    found = mismatches()
    for line in found:
        print(line)
    sys.exit(1 if found else 0)
