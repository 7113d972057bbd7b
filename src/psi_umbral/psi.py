"""Admissible weight sequences and their combinatorics.

A weight sequence assigns to every n >= 1 a nonzero rational n_psi, with
0_psi = 0.  The weights generalize n itself: the classical choice n_psi = n
gives ordinary calculus, the Jackson choice n_psi = (1-q^n)/(1-q) gives
q-calculus, the all-ones choice gives divided differences, a rational
function R evaluated along the geometric sequence q^n covers a whole family
at once, and arbitrary nonzero values may be supplied directly.

Each sequence stores its weights as int pairs (u, v), n_psi = u/v in lowest
terms with v > 0: every kind's rule returns such a pair, and the factorials
n_psi! are kept as pairs built from them, each computed once.  A Fraction
is built only when a caller asks for a value (``n_psi``, ``values``,
``factorial``); ``weight_pairs`` and ``factorial_pairs`` hand out the
stored pairs.  The falling factorials n_psi!/(n-k)_psi!, the generalized
binomial coefficients n_psi!/(k_psi! (n-k)_psi!) and the raising ratios
(k+j)! k_psi!/(k! (k+j)_psi!) are each one memoized quotient of the stored
factorial pairs, as in Ward's calculus of sequences.

Every other quotient of factorials is read from ``cofactors``: the
factorials k_psi! = f_k/g_k, or their reciprocals, as ints over their
least common denominator.  A factorial step multiplies f/g by a weight
u/v with d = gcd(f, v) and e = gcd(u, g) divided out first; while d and e
are 1 the step multiplies f by u and g by v, so each f_k divides the next
and the lcm of f_0..f_n is |f_n|.  The steps where that fails are noted as
breaks.  Between breaks the cofactors L/f_k are suffix products of the
weights' u (and M/g_k of their v): small ints, multiplied from the top
down, with no big division.  Across a break the lcm is taken.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm, perm

from .algebra import Polynomial, as_scalar, scalar_from_str, scalar_to_str
from .errors import AdmissibilityError, CapExceededError

CLASSICAL = "classical"
JACKSON = "q"
DIVIDED_DIFFERENCE = "divided_difference"
RATIONAL = "rational"
CUSTOM = "custom"

# The cofactors of each n up to here are kept once asked for: building so
# short a row costs more than reading it, and repeated sweeps over n read
# them again.  A longer row, n + 1 ints as long as the factorials, is built
# each time it is asked for, so no sweep keeps an O(n^2) triangle of them.
KEPT_COFACTORS = 32


class RationalFunction:
    """Quotient of two polynomials, evaluated exactly."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num = num
        self.den = den

    def __call__(self, x0) -> Fraction:
        d = self.den(x0)
        if d == 0:
            raise ZeroDivisionError(
                "rational function denominator vanishes at %s" % (x0,))
        return self.num(x0) / d


def jackson_bracket(q: Fraction, n: int) -> Fraction:
    """The q-analog (1-q^n)/(1-q), computed as 1 + q + ... + q^(n-1).

    The closed sum avoids the 0/0 at q = 1, but q = 1 is rejected anyway:
    the defining quotient is undefined there and admissibility demands it.
    """
    q = as_scalar(q)
    _require_q_not_one(q, n)
    total = Fraction(0)
    power = Fraction(1)
    for _ in range(n):
        total += power
        power *= q
    return total


def _require_q_not_one(q: Fraction, n: int):
    if q == 1:
        raise AdmissibilityError("Jackson weights are undefined at q = 1", n=n)


class PsiSequence:
    """One admissible weight sequence, stored up to a cap.

    Rule-based kinds extend their store on demand past the construction cap
    (still finite and exact); a rule maps n and the pair of (n-1)_psi to the
    pair of n_psi.  The custom kind owns exactly the values it was given and
    errors beyond them.  Each falling factorial and raising ratio asked for
    is kept, so these memos live and die with the sequence; a binomial is
    rebuilt from the factorials each time, since callers rarely repeat one.
    """

    def __init__(self, kind: str, rule, cap: int, label: str, params: dict,
                 pairs=None):
        self.kind = kind
        self._rule = rule
        self.label = label
        self.params = params
        # n_psi = u/v as int pairs in lowest terms, v > 0, from n = 0; a rule
        # stores no zero, custom ``pairs`` may hold one at n = _zero_at
        self._pairs = [(0, 1)]
        self._zero_at = None
        if pairs is not None:
            self._pairs.extend(pairs)
            self._zero_at = next((n for n, (u, _) in enumerate(pairs, 1)
                                  if not u), None)
        # the Fractions n_psi, built when read; n_psi! = f/g as int pairs,
        # the steps k whose weight shares a factor with the factorial before
        # it, and the cofactors asked for
        self._memo = [Fraction(0)]
        self._fact = [(1, 1)]
        self._breaks = []
        self._cofactors = {}
        self._falling = {}
        self._raising = {}
        self._extend_to(cap)

    # -- constructors -------------------------------------------------

    @classmethod
    def classical(cls, cap: int = 16) -> "PsiSequence":
        return cls(CLASSICAL, lambda n, _: (n, 1), cap, "classical", {})

    @classmethod
    def jackson(cls, q, cap: int = 16) -> "PsiSequence":
        q = as_scalar(q)
        a, b = q.numerator, q.denominator

        def rule(n, prev):
            # [n]_q = 1 + q [n-1]_q = (b v + a u)/(b v) for q = a/b and
            # [n-1]_q = u/v.  From n = 2 on v = b^(n-2) and u = a^(n-2) mod b,
            # so no prime of b v divides b v + a u: lowest terms, no gcd.
            if n == 1:  # every later weight is extended from this one
                _require_q_not_one(q, n)
                return 1, 1
            u, v = prev
            d = b * v
            return d + a * u, d

        return cls(JACKSON, rule, cap, "q=%s" % scalar_to_str(q), {"q": q})

    @classmethod
    def divided_difference(cls, cap: int = 16) -> "PsiSequence":
        return cls(DIVIDED_DIFFERENCE, lambda n, _: (1, 1), cap,
                   "divided_difference", {})

    @classmethod
    def rational(cls, rat: RationalFunction, q, cap: int = 16) -> "PsiSequence":
        q = as_scalar(q)

        def rule(n, _):
            try:
                value = rat(q ** n)
            except ZeroDivisionError as exc:
                raise AdmissibilityError(str(exc), n=n)
            return value.numerator, value.denominator

        return cls(RATIONAL, rule, cap, "rational(q=%s)" % scalar_to_str(q),
                   {"q": q, "R": rat})

    @classmethod
    def custom(cls, values, cap: int | None = None) -> "PsiSequence":
        values = [v if type(v) is int else as_scalar(v) for v in values]
        if cap is None:
            cap = len(values)
        if cap > len(values):
            raise CapExceededError(
                "custom weights supply %d values but cap %d was requested"
                % (len(values), cap))
        return cls(CUSTOM, None, cap, "custom", {},
                   [(v.numerator, v.denominator) for v in values])

    # -- weights ------------------------------------------------------

    def _vanishes(self, n: int) -> AdmissibilityError:
        return AdmissibilityError("weight vanishes at n=%d" % n, n=n,
                                  psi=self.label)

    def _extend_to(self, n: int):
        pairs = self._pairs
        while len(pairs) <= n:
            m = len(pairs)
            if self._rule is None:
                raise CapExceededError(
                    "custom weight sequence has no value at n=%d" % m, n=m)
            pair = self._rule(m, pairs[-1])
            if not pair[0]:
                raise self._vanishes(m)
            pairs.append(pair)

    def _checked(self, n: int) -> list:
        """The pair store, once the weights 1..n are read in order: the
        first that vanishes or is missing raises."""
        if self._zero_at is not None and n >= self._zero_at:
            raise self._vanishes(self._zero_at)
        self._extend_to(n)
        return self._pairs

    def n_psi(self, n: int) -> Fraction:
        """The weight n_psi; zero at n = 0, guaranteed nonzero for n >= 1."""
        if n < 0:
            raise ValueError("weights are indexed by naturals")
        if n == 0:
            return Fraction(0)
        self._extend_to(n)
        if not self._pairs[n][0]:
            raise self._vanishes(n)
        memo = self._memo
        if len(memo) <= n:
            memo.extend(Fraction(u, v)
                        for u, v in self._pairs[len(memo): n + 1])
        return memo[n]

    def weight_pairs(self, n: int) -> list:
        """[(u, v)] with k_psi = u/v in lowest terms and v > 0, k = 1..n:
        the weights ``values`` gives, as int pairs, with the same errors."""
        return self._checked(n)[1: n + 1]

    def factorial(self, n: int) -> Fraction:
        """n_psi! = 1_psi * 2_psi * ... * n_psi, empty product at n = 0."""
        return Fraction(*self.factorial_pairs(n)[n])

    def factorial_pairs(self, n: int) -> list:
        """[(f, g)] with k_psi! = f/g in lowest terms and g > 0, k = 0..n.

        Reads the weights 1..n, and none at n = 0.  Each step multiplies by
        a weight u/v with d = gcd(f, v) and e = gcd(u, g) divided out first,
        so f' = (f/d) (u/e) and g' = (g/e) (v/d); a step with d or e not 1
        is noted as a break.
        """
        if n < 0:
            raise ValueError("factorials are indexed by naturals")
        fact = self._fact
        if len(fact) <= n:
            f, g = fact[-1]
            for u, v in self._checked(n)[len(fact): n + 1]:
                d, e = gcd(f, v), gcd(u, g)
                if d != 1 or e != 1:
                    self._breaks.append(len(fact))
                    f, g, u, v = f // d, g // e, u // e, v // d
                f, g = f * u, g * v
                fact.append((f, g))
        return fact[: n + 1]

    def cofactors(self, n: int, side: int = 0, low: int = 0) -> tuple:
        """The reciprocal factorials (side 0) or the factorials (side 1)
        k_psi! = f_k/g_k, k = low..n, as ints over their least common
        denominator: (L, (L/k_psi!, ...)) = (L, (g_k (L/f_k), ...)) with
        L > 0 the lcm of |f_low|..|f_n|, or (M, (M k_psi!, ...)) =
        (M, (f_k (M/g_k), ...)) with M the lcm of g_low..g_n.

        Reads the weights 1..n.  With no break from low to n each quotient
        L/f_k (M/g_k) is the product of the weights' u (v) from k + 1 to n,
        signed as f_n (g_n), built from the top down; across a break the lcm
        is taken.  The answers from low = 0 up to n = ``KEPT_COFACTORS`` are
        kept and handed out again.
        """
        if not low:
            out = self._cofactors.get((side, n))
            if out is not None:
                return out
        if len(self._fact) <= n:
            self.factorial_pairs(n)
        fact, other = self._fact, 1 - side
        h = fact[n][side]
        breaks = self._breaks
        i = bisect_right(breaks, n)
        if not i or breaks[i - 1] <= low:
            m = 1 if h > 0 else -1
            row = [0] * (n - low) + [fact[n][other] * m]
            weights = self._pairs
            for k in range(n, low, -1):
                m *= weights[k][side]
                row[k - 1 - low] = fact[k - 1][other] * m
            out = abs(h), tuple(row)
        else:
            pairs = fact[low: n + 1]
            den = lcm(*(pair[side] for pair in pairs))
            out = den, tuple(pair[other] * (den // pair[side])
                             for pair in pairs)
        if not low and n <= KEPT_COFACTORS:
            self._cofactors[side, n] = out
        return out

    def _quotient(self, up: tuple, down: tuple, scale: int = 1) -> Fraction:
        """scale * prod_(i in up) i_psi! / prod_(i in down) i_psi!, on the
        stored pairs."""
        fact = self.factorial_pairs(max(up + down))
        num, den = scale, 1
        for i in up:
            num *= fact[i][0]
            den *= fact[i][1]
        for i in down:
            num *= fact[i][1]
            den *= fact[i][0]
        return Fraction(num, den)

    def falling(self, n: int, k: int) -> Fraction:
        """n_psi * (n-1)_psi * ... * (n-k+1)_psi = n_psi!/(n-k)_psi!.

        The empty product 1 at k <= 0 reads no weight; k > n gives 0.
        """
        out = self._falling.get((n, k))
        if out is None:
            if k <= 0:
                out = Fraction(1)
            elif k > n:
                out = Fraction(0)
            else:
                out = self._quotient((n,), (n - k,))
            self._falling[n, k] = out
        return out

    def binomial(self, n: int, k: int) -> Fraction:
        """Generalized binomial n_psi!/(k_psi! (n-k)_psi!); 0 for k < 0 or
        k > n, and 1 at k = 0 with no weight read."""
        if k < 0 or k > n:
            return Fraction(0)
        if k == 0:
            return Fraction(1)
        return self._quotient((n,), (k, n - k))

    def raising_ratio(self, k: int, j: int) -> Fraction:
        """prod_(i=1..j) (k+i)/(k+i)_psi = (k+j)! k_psi!/(k! (k+j)_psi!), the
        scalar by which the j-th power of the weighted raising operator maps
        x^k to x^(k+j); j = 0 gives the int 1."""
        if j == 0:
            return 1
        out = self._raising.get((k, j))
        if out is None:
            out = self._raising[k, j] = self._quotient((k,), (k + j,),
                                                       perm(k + j, j))
        return out

    def values(self, n_max: int) -> list:
        return [self.n_psi(n) for n in range(1, n_max + 1)]

    @property
    def stored_cap(self) -> int:
        return len(self._pairs) - 1

    def __repr__(self):
        return "PsiSequence(%s)" % self.label

    # -- serialization ------------------------------------------------

    def to_json(self):
        if self.kind == CLASSICAL:
            return {"kind": "classical"}
        if self.kind == DIVIDED_DIFFERENCE:
            return {"kind": "divided_difference"}
        if self.kind == JACKSON:
            return {"kind": "q", "q": scalar_to_str(self.params["q"])}
        if self.kind == RATIONAL:
            rat = self.params["R"]
            return {"kind": "rational",
                    "R_num": rat.num.to_json(),
                    "R_den": rat.den.to_json(),
                    "q": scalar_to_str(self.params["q"])}
        return {"kind": "custom",
                "n_psi": [scalar_to_str(Fraction(u, v))
                          for u, v in self._pairs[1:]]}

    @classmethod
    def from_json(cls, data, cap: int = 16) -> "PsiSequence":
        kind = data.get("kind")
        if kind == "classical":
            return cls.classical(cap)
        if kind == "divided_difference":
            return cls.divided_difference(cap)
        if kind == "q":
            return cls.jackson(scalar_from_str(data["q"]), cap)
        if kind == "rational":
            rat = RationalFunction(Polynomial.from_json(data["R_num"]),
                                   Polynomial.from_json(data["R_den"]))
            return cls.rational(rat, scalar_from_str(data["q"]), cap)
        if kind == "custom":
            values = [scalar_from_str(v) for v in data["n_psi"]]
            return cls.custom(values, min(cap, len(values)))
        raise AdmissibilityError("unknown weight sequence kind %r" % (kind,))


class AdmissibilityReport:
    """Outcome of validating a weight sequence up to a cap."""

    def __init__(self, ok: bool, cap: int, label: str,
                 first_violation=None, reason: str = ""):
        self.ok = ok
        self.cap = cap
        self.label = label
        self.first_violation = first_violation
        self.reason = reason

    def to_json(self):
        doc = {"ok": self.ok, "cap": self.cap, "psi": self.label}
        if not self.ok:
            doc["first_violation"] = self.first_violation
            doc["reason"] = self.reason
        return doc


def validate_admissible(psi: PsiSequence, cap: int) -> AdmissibilityReport:
    """Check n_psi != 0 and defined for 1 <= n <= cap; report the first failure."""
    for n in range(1, cap + 1):
        try:
            psi.n_psi(n)
        except (AdmissibilityError, CapExceededError) as exc:
            return AdmissibilityReport(False, cap, psi.label,
                                       first_violation=n, reason=exc.message)
    return AdmissibilityReport(True, cap, psi.label)
