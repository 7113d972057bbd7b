"""The benchmark's three workloads.

Each workload owns a fixed pool of requests, enumerated the same way on
every run, with one reference digest per pool item in ``reference.json``.
The pool is organised in *cells*, such as operation x cap x weights.  The
items of one cell are interchangeable in cost: the same computation with a
sign flipped, another random draw of the same distribution, another output
format.  Every round runs one item of every cell, so rounds cost the same
whatever the seed; the seed only picks the item of each cell and shuffles
the order.  Any seed's inputs are therefore covered by the recorded
references.  Every request in a round is checked after the round's timer
stops.

The library is always reached through module attributes looked up at call
time (``pu.rodrigues_sequence``, ``cli_mod.main``), so that the traced run's
wrappers, installed after set-up, see every call.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

import oracles

POOL_SEED = "psi-umbral-bench-v1"

WEIGHTS = ("classical", "q=1/2", "q=2", "squares")


def weight_values(weights, n_max):
    """n_psi for n = 1..n_max, computed here so inputs need no library call."""
    if weights == "classical":
        return [Fraction(n) for n in range(1, n_max + 1)]
    if weights == "squares":
        return [Fraction(n * n) for n in range(1, n_max + 1)]
    q, out = Fraction(weights[2:]), [Fraction(1)]
    while len(out) < n_max:
        out.append(1 + q * out[-1])
    return out[:n_max]


def psi_factorials(weights, n_max):
    out = [Fraction(1)]
    for w in weight_values(weights, n_max):
        out.append(out[-1] * w)
    return out


def make_psi(pu, weights, cap):
    if weights == "classical":
        return pu.PsiSequence.classical(cap)
    if weights == "squares":
        return pu.PsiSequence.custom([n * n for n in range(1, cap + 2)])
    return pu.PsiSequence.jackson(Fraction(weights[2:]), cap)


def canonical_digest(doc):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _fracs(values):
    return [str(v) for v in values]


def _strip(values):
    values = list(values)
    while values and values[-1] == 0:
        values.pop()
    return values


class Request:
    __slots__ = ("key", "cap", "params")

    def __init__(self, key, cap, params):
        self.key = key
        self.cap = cap
        self.params = params


class Workload:
    """Pool, round schedule, execution and checks of one workload."""

    name = ""

    def __init__(self, pu):
        self.pu = pu
        self.cells = self.build_cells()

    def build_cells(self):
        """Ordered list of (cell name, [Request, ...]) covering the pool."""
        raise NotImplementedError

    def pool(self):
        for _, items in self.cells:
            yield from items

    def rounds(self, seed, count):
        """``count`` rounds of one draw per cell, in seeded order.  Each cell
        deals its items in a seeded order and starts over when they run
        out, so a run sees every item of a cell about equally often, and
        requests repeat across rounds."""
        rng = random.Random("%s:%s:%d" % (POOL_SEED, self.name, seed))
        decks = []
        for _, items in self.cells:
            deck = list(items)
            rng.shuffle(deck)
            decks.append(deck)
        out = []
        for r in range(count):
            batch = [deck[r % len(deck)] for deck in decks]
            rng.shuffle(batch)
            out.append(batch)
        return out

    def cap_group(self, cap):
        """Cap under which a call's duration enters the cap-scaling fits."""
        return cap

    def prepare(self, workdir):
        """Write any files the requests read; part of set-up."""

    def execute(self, req):
        raise NotImplementedError

    def canonical(self, req, raw):
        """JSON-ready form of a result; the reference digest is taken of it."""
        raise NotImplementedError

    def oracle(self, req, doc):
        """True/False from an independent closed form, None where none exists."""
        return None

    def check(self, req, raw, reference):
        """Return None when the output is correct, else a short reason."""
        doc = self.canonical(req, raw)
        verdict = self.oracle(req, doc)
        if verdict is False:
            return "oracle disagrees"
        want = reference.get(req.key)
        if want is None:
            return "no reference digest"
        if canonical_digest(doc) != want:
            return "digest differs from reference"
        return None


# -- series_kernels ----------------------------------------------------------

# Interchangeable indicators of each family: abel:a and abel:-a cost the
# same, rand:i are draws of one distribution.
FAMILY_ITEMS = {"exp": ("exp",), "abel": ("abel:1", "abel:-1"),
                "rand": tuple("rand:%d" % i for i in range(6)),
                "catalan": ("catalan",)}
FAMILIES = ("exp", "abel", "rand", "catalan")

# (operation, caps).  Every cell appears with all four weights; the family
# rotates with the operation, so each family meets classical weights (and
# its oracle) on some operation, and an operation keeps one family per
# weights at every cap, which keeps the cap-scaling fits like for like.
SERIES_OPS = (("reversion", (12, 16, 20)), ("f1", (8, 12, 16)), ("f2", (8, 12, 16)),
              ("f3", (8, 12, 16)), ("f4", (12, 20, 28)), ("solve", (12, 20, 28)),
              ("inverse", (12, 20, 28)), ("power", (12, 20, 28)),
              ("compose", (12, 20, 28)))


def indicator_coeffs(family, weights, cap, fact):
    """Indicator a_0..a_cap of a delta operator, as a series in d_psi;
    ``fact`` holds the weights' factorials 0_psi! .. cap_psi!."""
    if family == "exp":
        return [Fraction(0)] + [1 / fact[k] for k in range(1, cap + 1)]
    if family.startswith("abel:"):
        a = Fraction(family[5:])
        return [Fraction(0)] + [a ** (k - 1) / fact[k - 1]
                                for k in range(1, cap + 1)]
    if family == "catalan":
        return [Fraction(0), Fraction(1), Fraction(-1)] + [Fraction(0)] * (cap - 2)
    rng = random.Random("%s:%s:%s:%d" % (POOL_SEED, family, weights, cap))
    first = rng.choice((Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)))
    rest = [rng.choice((0, 0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 3)))
            for _ in range(2, cap + 1)]
    return [Fraction(0), first] + [Fraction(c) for c in rest]


class SeriesKernels(Workload):
    name = "series_kernels"

    def build_cells(self):
        top = max(max(caps) for _, caps in SERIES_OPS)
        facts = {w: psi_factorials(w, top) for w in WEIGHTS}
        cells = []
        for op_index, (op, caps) in enumerate(SERIES_OPS):
            for cap in caps:
                for w_index, weights in enumerate(WEIGHTS):
                    family = FAMILIES[(w_index + op_index) % len(FAMILIES)]
                    cell = "%s@%d:%s:%s" % (op, cap, weights, family)
                    items = []
                    for item in FAMILY_ITEMS[family]:
                        key = "series:%s:cap=%d:%s:%s" % (op, cap, item, weights)
                        items.append(Request(key, cap, {
                            "op": op, "family": item, "weights": weights,
                            "indicator": indicator_coeffs(item, weights, cap,
                                                          facts[weights])}))
                    cells.append((cell, items))
        return cells

    def execute(self, req):
        pu, p, cap = self.pu, req.params, req.cap
        psi = make_psi(pu, p["weights"], cap)
        delta = pu.DeltaOperator.from_indicator(p["indicator"], psi, cap)
        op = p["op"]
        if op == "reversion":
            return delta.indicator.reversion()
        if op == "inverse":
            return delta.s_series.inverse()
        if op == "power":
            return delta.s_series.inverse().power(cap - 1)
        if op == "compose":
            return delta.indicator.compose(delta.indicator)
        if op == "solve":
            return pu.basic_sequence_solve(delta.op, psi, cap - 1)
        return pu.rodrigues_sequence(delta, cap - 1, formula=int(op[1]))

    def canonical(self, req, raw):
        if hasattr(raw, "polys"):
            return {"polys": [_fracs(q.coeffs) for q in raw.polys]}
        return {"cap": raw.cap, "series": _fracs(raw.coeffs)}

    def oracle(self, req, doc):
        p, cap = req.params, req.cap
        family, classical = p["family"], p["weights"] == "classical"
        if "polys" in doc:
            if not classical or not (family == "exp" or family.startswith("abel:")):
                return None
            if family == "exp":
                want = [oracles.stirling_first_kind(n) for n in range(cap)]
            else:
                a = Fraction(family[5:])
                want = [oracles.abel(n, a) for n in range(cap)]
            got = [[Fraction(c) for c in poly] for poly in doc["polys"]]
            return got == [_strip(w) for w in want]
        got = [Fraction(c) for c in doc["series"]]
        if p["op"] == "reversion":
            if family == "catalan":
                return got == oracles.catalan_series(cap)
            if classical and family == "exp":
                return got == oracles.log1p_series(cap)
            if classical and family.startswith("abel:"):
                return got == oracles.lambert_series(cap, Fraction(family[5:]))
        if p["op"] == "inverse" and classical and family == "exp":
            return got == oracles.bernoulli_series(cap - 1)
        return None


# -- operator_tables ---------------------------------------------------------

# (kind, expression template, parameter values, invariant, [(bucket, weights)]).
# A cell is one (kind, template, bucket, weights); its items differ in the
# parameter filling "{}", in the sign of the Jackson q, and in a cap offset
# of 0..7 above the bucket, all of which leave the cost about the same.
# D*E[a] commutes with d_psi only for classical weights; D*X*D is the d_psi
# of the squares weights, so it never gets those.
TABLE_CELLS = (
    ("basic", "Delta", (None,), True,
     ((32, "classical"), (56, "q=2"), (72, "q=1/2"))),
    ("basic", "E[{}] - 1", ("1/2", "-1/2", "2", "-2"), True,
     ((32, "q=1/2"), (56, "classical"), (72, "squares"))),
    ("basic", "Dpsi + Dpsi*Dpsi", (None,), True,
     ((32, "squares"), (56, "q=1/2"), (72, "q=2"))),
    ("basic", "D*E[{}]", ("1", "-1", "2", "-2"), True,
     ((32, "classical"), (56, "classical"), (72, "classical"))),
    ("basic", "D*X*D", (None,), False,
     ((32, "q=2"), (56, "classical"), (72, "q=1/2"))),
    ("basic", "Q[{}]*Dpsi", ("1/2", "-1/2", "2", "-2"), False,
     ((32, "classical"), (56, "squares"), (72, "q=2"))),
    ("expand", "Dpsi^{}", ("9", "10", "11", "12"), True,
     ((32, "q=2"), (40, "classical"))),
    ("expand", "Xpsi*Dpsi", (None,), False,
     ((32, "classical"), (40, "q=1/2"))),
    ("expand", "Delta", (None,), True,
     ((32, "squares"), (40, "q=2"))),
    ("detect", "Delta", (None,), True,
     ((40, "q=1/2"), (64, "classical"))),
    ("detect", "E[{}] - 1", ("1/2", "-1/2", "2", "-2"), True,
     ((40, "classical"), (64, "q=2"))),
    ("detect", "Dpsi + Dpsi*Dpsi", (None,), True,
     ((40, "q=2"), (64, "squares"))),
    ("detect", "D*X*D", (None,), False,
     ((40, "classical"), (64, "q=1/2"))),
    ("detect", "Q[{}]*Dpsi", ("1/2", "-1/2", "2", "-2"), False,
     ((40, "squares"), (64, "classical"))),
)


def _signed(weights):
    """The weights and, for Jackson q, the same q with the sign flipped."""
    if weights.startswith("q="):
        return (weights, "q=" + str(-Fraction(weights[2:])))
    return (weights,)


class OperatorTables(Workload):
    """Every request in a run has a distinct (expression, weights, cap)."""

    name = "operator_tables"

    def cap_group(self, cap):
        """The bucket: buckets are 32 + 8k and offsets run 0..7."""
        return cap - (cap - 32) % 8

    def build_cells(self):
        cells = []
        for kind, template, params, invariant, placements in TABLE_CELLS:
            for bucket, weights in placements:
                cell = "%s:%s@%d:%s" % (kind, template, bucket, weights)
                items = []
                for signed in _signed(weights):
                    for prm in params:
                        for offset in range(8):
                            expr = template.format(prm) if prm else template
                            cap = bucket + offset
                            n = 5 + offset % 4
                            key = "tables:%s:%s:%s:cap=%d" % (kind, expr, signed, cap)
                            if kind == "basic":
                                key += ":n=%d" % n
                            items.append(Request(key, cap, {
                                "kind": kind, "expr": expr, "weights": signed,
                                "n": n, "invariant": invariant}))
                cells.append((cell, items))
        return cells

    def rounds(self, seed, count):
        """Eight rounds at most, drawn without replacement.  A cell's cap
        offsets pair up as (0, 1), (2, 3), (4, 5), (6, 7); rounds 1-4 take
        one offset of each pair and rounds 5-8 the other, each in seeded
        order, so every run's first four rounds span the offsets evenly.
        No two pool items share an (expression, weights, cap): a cell's
        items differ in one of them, and placements of one template and
        weights have disjoint buckets."""
        rng = random.Random("%s:%s:%d" % (POOL_SEED, self.name, seed))
        decks = []
        for _, items in self.cells:
            by_offset = {}
            for req in items:
                by_offset.setdefault(req.cap - self.cap_group(req.cap), []).append(req)
            first, second = [], []
            for low in (0, 2, 4, 6):
                pair = [low, low + 1]
                rng.shuffle(pair)
                first.append(rng.choice(by_offset[pair[0]]))
                second.append(rng.choice(by_offset[pair[1]]))
            rng.shuffle(first)
            rng.shuffle(second)
            decks.append(first + second)
        out = []
        for r in range(min(count, 8)):
            batch = [deck[r] for deck in decks]
            rng.shuffle(batch)
            out.append(batch)
        return out

    def execute(self, req):
        pu, p, cap = self.pu, req.params, req.cap
        psi = make_psi(pu, p["weights"], cap)
        ctx = pu.OperatorContext(cap, psi)
        op = pu.parse_operator(p["expr"], ctx)
        if p["kind"] == "basic":
            try:
                delta = pu.DeltaOperator.from_operator(op, psi)
            except pu.NotShiftInvariantError:
                delta = None
            return delta, pu.basic_sequence_solve(op, psi, p["n"])
        if p["kind"] == "expand":
            base = pu.parse_operator("Dpsi", ctx)
            expansion = pu.expand_in_monomials(op, base)
            back = pu.reconstruct_from_monomial_form(expansion, expansion.order)
            return expansion, back == op.truncated(back.cap)
        return pu.detect_psi_series(op)

    def canonical(self, req, raw):
        kind = req.params["kind"]
        if kind == "basic":
            delta, seq = raw
            return {"invariant": delta is not None,
                    "indicator": None if delta is None
                    else _fracs(delta.indicator.coeffs),
                    "polys": [_fracs(q.coeffs) for q in seq.polys]}
        if kind == "expand":
            expansion, reconstructs = raw
            return {"reconstructs": reconstructs,
                    "coeffs": [_fracs(q.coeffs) for q in expansion.coeff_polys]}
        return {"is_series": raw.is_series, "scale": str(raw.scale),
                "witness": list(raw.witness) if raw.witness else None,
                "series": None if raw.series_coeffs is None
                else _fracs(raw.series_coeffs)}

    def oracle(self, req, doc):
        p = req.params
        expr, classical = p["expr"], p["weights"] == "classical"
        if p["kind"] == "basic":
            if doc["invariant"] != p["invariant"]:
                return False
            got = [[Fraction(c) for c in poly] for poly in doc["polys"]]
            if classical and (expr == "Delta" or expr.startswith("E[")):
                h = Fraction(1) if expr == "Delta" else Fraction(expr[2:expr.index("]")])
                return got == [_strip(oracles.step_falling(n, h))
                               for n in range(p["n"] + 1)]
            if classical and expr.startswith("D*E["):
                a = Fraction(expr[4:-1])
                return got == [oracles.abel(n, a) for n in range(p["n"] + 1)]
            return None
        if p["kind"] == "expand":
            if not doc["reconstructs"]:
                return False
            if expr.startswith("Dpsi^"):
                k = int(expr[5:])
                want = [["1"] if n == k else [] for n in range(len(doc["coeffs"]))]
                return doc["coeffs"] == want
        return None


# -- cli_mix -----------------------------------------------------------------

JOB_DIR = os.path.join(".perfbench-out", "jobs")

RATIONAL_PSI = '{"kind": "rational", "R_num": ["-1", "1"], "R_den": ["1"], "q": "2"}'

JOBS = {
    "basic_q.json": {"command": "basic", "cap": 10, "op": "Delta", "n": 6,
                     "formula": 2, "psi": {"kind": "q", "q": "1/2"}},
    "expand.json": {"command": "expand", "cap": 8, "t": "X*Dpsi", "q": "Dpsi",
                    "lambda_samples": ["1", "1/2"]},
    "integrate.json": {"command": "integrate", "cap": 8, "kind": "r", "q": "3",
                       "r_num": ["-1", "1"], "r_den": ["1"],
                       "poly": ["1", "0", "2"]},
    "translate.json": {"command": "translate", "cap": 12,
                       "psi": {"kind": "custom",
                               "n_psi": [str(2 ** n - 1) for n in range(1, 14)]},
                       "y": "-1/2", "poly": ["0", "1", "1", "1"]},
    "bad_key.json": {"command": "table", "cap": 8, "colour": "blue"},
}

FORMATS = ("text", "json", "csv")
PSI_KINDS = ("classical", "q:1/2", "divided_difference", RATIONAL_PSI, "q:-3",
             "custom", "q:2")
Q_FLAGS = ("q:1/2", "q:2", "q:-3", "q:3/5")


def _psi_flag(psi, cap):
    """Custom weights get cap + 1 values: Nhat reads (cap+1)_psi."""
    if psi == "custom":
        return "custom:" + ",".join(str(n * n + 1) for n in range(1, cap + 2))
    return psi


# Small requests: (name, builder(cap, psi, fmt), uses --psi).  Each runs at
# caps 6, 10 and 16; the items of a cell differ in --psi and --format.
SMALL_REQUESTS = (
    ("basic:delta", lambda c, p, f: [
        "basic", "--op", "Delta", "--n", str(min(c - 1, 6)), "--formula",
        str(1 + c % 4), "--psi", p, "--cap", str(c), "--format", f], True),
    ("basic:dpsi2", lambda c, p, f: [
        "basic", "--op", "Dpsi + Dpsi*Dpsi", "--n", "5", "--formula", "4",
        "--psi", p, "--cap", str(c), "--format", f], True),
    ("basic:abel", lambda c, p, f: [
        "basic", "--op", "D*E[1]", "--n", "5", "--cap", str(c), "--format", f],
     False),
    ("basic:shift", lambda c, p, f: [
        "basic", "--op", "E[1/2] - 1", "--n", "4", "--formula", "3",
        "--psi", p, "--cap", str(c), "--format", f], True),
    ("expand:xd", lambda c, p, f: [
        "expand", "--t", "X*Dpsi", "--q", "Dpsi", "--psi", p,
        "--cap", str(c), "--format", f], True),
    ("expand:nhat", lambda c, p, f: [
        "expand", "--t", "Nhat", "--q", "Dpsi", "--lambda", "1,1/2",
        "--psi", p, "--cap", str(min(c, 8)), "--format", f], True),
    ("detect:dxd", lambda c, p, f: [
        "detect", "--op", "D*X*D", "--cap", str(c), "--format", f], False),
    ("detect:delta", lambda c, p, f: [
        "detect", "--op", "Delta", "--psi", p, "--cap", str(c), "--format", f],
     True),
    ("integrate:q", lambda c, p, f: [
        "integrate", "--kind", "q", "--q", "1/2", "--poly", "1,2,3,4",
        "--cap", str(c), "--format", f], False),
    ("integrate:r", lambda c, p, f: [
        "integrate", "--kind", "r", "--q", "2", "--r-num=-1,1", "--r-den=1",
        "--poly", "1,-1,1", "--cap", str(c), "--format", f], False),
    ("integrate:psi", lambda c, p, f: [
        "integrate", "--kind", "psi", "--psi", p, "--poly", "0,1,2",
        "--cap", str(c), "--format", f], True),
    ("translate:psi", lambda c, p, f: [
        "translate", "--psi", p, "--y", "1", "--poly", "1,0,1",
        "--cap", str(c), "--format", f], True),
    ("table:psi", lambda c, p, f: [
        "table", "--psi", p, "--cap", str(c), "--format", f], True),
)

# Jackson translate and table, json only, for the Gaussian-binomial oracle.
Q_REQUESTS = (
    ("translate:q", lambda c, q, y: [
        "translate", "--psi", q, "--y=" + y, "--poly", "1,2,3,4,5",
        "--cap", str(c), "--format", "json"]),
    ("table:q", lambda c, q, y: [
        "table", "--psi", q, "--cap", str(c), "--format", "json"]),
)

SUITES = ("ghw", "binomial", "rodrigues", "expansion", "leibniz",
          "integration", "poisson", "special")

USAGE_ERRORS = (
    ["basic", "--op", "Dpsi +", "--cap", "8"],
    ["expand", "--t", "Dpsi^", "--cap", "6", "--format", "json"],
    ["basic", "--op", "Dpsi", "--psi", "nonsense", "--cap", "8"],
    ["table", "--psi", "custom:1,0,3", "--cap", "6", "--format", "json"],
    ["verify", "--suite", "ghw", "--cap", "4"],
    ["table", "--format", "xml", "--cap", "6"],
    ["table", "--job", os.path.join(JOB_DIR, "bad_key.json")],
    ["basic", "--job", os.path.join(JOB_DIR, "basic_q.json"), "--cap", "8"],
)
FAILED_CHECKS = (
    ["basic", "--op", "X", "--cap", "8"],
    ["expand", "--t", "Dpsi", "--q", "X", "--cap", "8", "--format", "json"],
    ["detect", "--op", "Nhat", "--cap", "8"],
    ["detect", "--op", "Dpsi + X*Dpsi*Dpsi*Dpsi", "--cap", "10",
     "--format", "json"],
)


def _cli_cells():
    """(cell, [(argv, expected exit code), ...]) for one round's requests."""
    cells = []
    for suite in SUITES:
        for cap in (6, 8, 10):
            cells.append(("verify:%s@%d" % (suite, cap), [
                (["verify", "--suite", suite, "--cap", str(cap),
                  "--format", fmt], 0) for fmt in FORMATS]))
    for name, build, uses_psi in SMALL_REQUESTS:
        for cap in (6, 10, 16):
            if uses_psi:
                argvs = [build(cap, _psi_flag(psi, cap), FORMATS[i % 3])
                         for i, psi in enumerate(PSI_KINDS)]
            else:
                argvs = [build(cap, None, fmt) for fmt in FORMATS]
            cells.append(("%s@%d" % (name, cap), [(a, 0) for a in argvs]))
    for name, build in Q_REQUESTS:
        for cap in (6, 10, 16):
            argvs = []
            for q in Q_FLAGS:
                for y in ("2", "-1/2"):
                    if build(cap, q, y) not in argvs:
                        argvs.append(build(cap, q, y))
            cells.append(("%s@%d" % (name, cap), [(a, 0) for a in argvs]))
    for name in ("basic_q", "expand", "integrate", "translate"):
        command = JOBS[name + ".json"]["command"]
        cells.append(("job:" + name, [
            ([command, "--job", os.path.join(JOB_DIR, name + ".json"),
              "--format", fmt], 0) for fmt in FORMATS]))
    for i in range(5):
        cells.append(("fail:usage:%d" % i, [(a, 2) for a in USAGE_ERRORS]))
    for i in range(3):
        cells.append(("fail:check:%d" % i, [(a, 1) for a in FAILED_CHECKS]))
    return cells


class CliMix(Workload):
    """In-process ``cli.main(argv)``; requests repeat across rounds."""

    name = "cli_mix"

    def __init__(self, pu, cli_mod):
        self.cli = cli_mod
        super().__init__(pu)

    def build_cells(self):
        return [(name, [Request("cli:" + json.dumps(argv), None,
                                {"argv": argv, "exit": code})
                        for argv, code in entries])
                for name, entries in _cli_cells()]

    def prepare(self, workdir):
        jobdir = os.path.join(workdir, JOB_DIR)
        os.makedirs(jobdir, exist_ok=True)
        for name, doc in JOBS.items():
            with open(os.path.join(jobdir, name), "w") as fh:
                json.dump(doc, fh, sort_keys=True)

    def execute(self, req):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(req.params["argv"])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def canonical(self, req, raw):
        code, out, err = raw
        return {"exit": code, "stdout": out, "stderr": err}

    def check(self, req, raw, reference):
        if raw[0] != req.params["exit"]:
            return "exit code %r, expected %r" % (raw[0], req.params["exit"])
        return super().check(req, raw, reference)

    def oracle(self, req, doc):
        argv = req.params["argv"]
        if doc["exit"] != 0 or _flag(argv, "--format") != "json":
            return None
        psi = _flag(argv, "--psi") or "classical"
        result = json.loads(doc["stdout"])
        if argv[0] in ("table", "translate") and psi.startswith("q:"):
            q = Fraction(psi[2:])
            if argv[0] == "table":
                n_max = min(int(_flag(argv, "--cap")), 10)
                want = [[str(v) for v in row]
                        for row in oracles.gaussian_binomials(q, n_max)]
                return result["binomials"] == want
            poly = [Fraction(c) for c in _flag(argv, "--poly").split(",")]
            want = oracles.jackson_translate(q, _flag(argv, "--y"), poly)
            return result["result"] == [str(c) for c in want]
        op = _flag(argv, "--op")
        if argv[0] == "basic" and psi == "classical" and op in ("Delta", "D*E[1]"):
            n = int(_flag(argv, "--n"))
            got = [[Fraction(c) for c in poly] for poly in result["polys"]]
            if op == "Delta":
                return got == [oracles.stirling_first_kind(k) for k in range(n + 1)]
            return got == [oracles.abel(k, 1) for k in range(n + 1)]
        return None


def _flag(argv, name):
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return None


def load_workload(name, pu, cli_mod):
    if name == "series_kernels":
        return SeriesKernels(pu)
    if name == "operator_tables":
        return OperatorTables(pu)
    if name == "cli_mix":
        return CliMix(pu, cli_mod)
    raise KeyError(name)


WORKLOADS = ("series_kernels", "operator_tables", "cli_mix")
