"""Command parameters: one schema for JSON job files and command-line flags.

``SCHEMA`` lists, per command, every parameter with its kind, default,
whether it is required, and its help text.  The command line builds its
flags from the same table and hands the flag values to the same validator
in job form, so both routes accept the same values with the same messages,
except that argparse refuses a bad ``--suite`` or ``--kind`` choice and a
non-integer ``--n``, ``--formula`` or ``--cap`` in its own words.

A job file is one JSON object naming a command and its parameters.  Keys
are whitelisted per command and anything unknown is rejected; every
validation error carries a JSON pointer to the offending value.  Rational
scalars travel as strings ("3/4" or "2"), weight sequences in their JSON
object form, operator expressions as strings to be parsed in context.
"""

from __future__ import annotations

import json

from .algebra import Polynomial, scalar_from_str
from .errors import AdmissibilityError, JobSpecError
from .psi import PsiSequence, validate_admissible
from .verify import SUITE_ORDER

# Parameter kinds.  A list of rationals is a comma list on the command line.
OPERATOR = "operator"
INDEX = "index"
RATIONAL = "rational"
RATIONALS = "rationals"
CHOICE = "choice"


class Param:
    """One parameter of one command: its job key and its flag."""

    __slots__ = ("key", "kind", "help", "default", "required", "choices",
                 "flag")

    def __init__(self, key: str, kind: str, help: str, default=None,
                 required: bool = False, choices: tuple | None = None,
                 flag: str | None = None):
        self.key = key
        self.kind = kind
        self.help = help
        self.default = default
        self.required = required
        self.choices = choices
        self.flag = flag or "--" + key.replace("_", "-")


SCHEMA = {
    "basic": (
        Param("op", OPERATOR, "operator expression", default="Dpsi"),
        Param("n", INDEX, "highest index", default=8),
        Param("formula", INDEX, "closed formula 1-4 for the cross-check",
              default=4, choices=(1, 2, 3, 4)),
    ),
    "expand": (
        Param("t", OPERATOR, "operator to expand", required=True),
        Param("q", OPERATOR, "degree-lowering base operator", default="Dpsi"),
        Param("lambda_samples", RATIONALS,
              "comma list of rationals for the conjugation check",
              flag="--lambda"),
    ),
    "detect": (
        Param("op", OPERATOR, "operator expression", required=True),
    ),
    "verify": (
        Param("suite", CHOICE, "identity suite to run", default="all",
              choices=("all",) + SUITE_ORDER),
    ),
    "integrate": (
        Param("kind", CHOICE, "antiderivative route", default="psi",
              choices=("q", "r", "psi")),
        Param("q", RATIONAL, "ratio for kind=q or kind=r"),
        Param("r_num", RATIONALS,
              "numerator coefficients of the weight function"),
        Param("r_den", RATIONALS,
              "denominator coefficients of the weight function"),
        Param("poly", RATIONALS, "comma list of coefficients", required=True),
    ),
    "translate": (
        Param("y", RATIONAL, "shift amount (rational)", default="1"),
        Param("poly", RATIONALS, "comma list of coefficients", required=True),
    ),
    "table": (),
}

# verify runs its suites over their own standard weight families.
UNWEIGHTED = frozenset({"verify"})

# The keys a weights object needs, by kind: "q" holds a rational, the
# others lists of rationals.
_PSI_KEYS = (("custom", "n_psi"), ("rational", "R_num"), ("rational", "R_den"),
             ("q", "q"), ("rational", "q"))


def _fail(message, pointer):
    raise JobSpecError(message, pointer=pointer)


def _check_str(value, pointer):
    if not isinstance(value, str):
        _fail("expected a string", pointer)


def _check_index(value, pointer):
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        _fail("expected a nonnegative integer", pointer)


def _check_scalar_str(value, pointer):
    if not isinstance(value, str):
        _fail("expected a rational string", pointer)
    try:
        scalar_from_str(value)
    except (ValueError, ZeroDivisionError):
        _fail("not a rational: %r" % (value,), pointer)


def _check_scalar_list(value, pointer):
    if not isinstance(value, list):
        _fail("expected a list of rational strings", pointer)
    for i, item in enumerate(value):
        _check_scalar_str(item, "%s/%d" % (pointer, i))


_CHECKS = {
    OPERATOR: _check_str,
    INDEX: _check_index,
    RATIONAL: _check_scalar_str,
    RATIONALS: _check_scalar_list,
    CHOICE: _check_str,
}


def check_params(command: str, doc: dict) -> dict:
    """Validate the command's parameters found in ``doc`` (job form).

    Returns them with defaults filled in; optional keys without a default
    stay absent.  Keys that are not parameters of ``command`` are ignored.
    """
    params = {}
    for param in SCHEMA[command]:
        pointer = "/" + param.key
        if param.key not in doc:
            if param.required:
                _fail("%s is required" % param.flag, pointer)
            if param.default is not None:
                params[param.key] = param.default
            continue
        value = doc[param.key]
        _CHECKS[param.kind](value, pointer)
        if param.choices is not None and value not in param.choices:
            _fail("expected one of %s"
                  % ", ".join(json.dumps(c) for c in param.choices), pointer)
        params[param.key] = value
    return params


def require_admissible(psi: PsiSequence, cap: int, pointer: str,
                       reach: int = 0) -> None:
    """Weights 1..max(cap, reach) must be nonzero and defined."""
    upto = max(cap, reach)
    report = validate_admissible(psi, upto)
    if not report.ok:
        where = ("at cap %d" % cap if upto == cap
                 else "up to n=%d (cap %d)" % (upto, cap))
        _fail("weights inadmissible %s: %s (n=%s)"
              % (where, report.reason, report.first_violation), pointer)


def weights_reach(command: str, params: dict) -> int:
    """Highest index of ``psi`` the command reads regardless of the cap.

    ``integrate --kind psi`` divides x^n by the weight of n + 1, so it reads
    the weights up to the polynomial's degree + 1; the other kinds do not
    read ``psi``.  ``translate`` applies (d_psi)^k / k_psi! for k up to the
    polynomial's degree, which reads the weights up to that degree.  The
    other commands stay within the cap.
    """
    if command == "integrate" and params["kind"] == "psi":
        p = Polynomial.from_json(params["poly"])
        return 0 if p.is_zero else p.degree + 1
    if command == "translate":
        p = Polynomial.from_json(params["poly"])
        return 0 if p.is_zero else p.degree
    return 0


class JobSpec:
    """Validated parameters for one command invocation."""

    __slots__ = ("command", "cap", "psi", "psi_pointer", "params")

    def __init__(self, command: str, cap: int | None, psi: PsiSequence | None,
                 params: dict, psi_pointer: str = "/psi"):
        self.command = command
        self.cap = cap
        self.psi = psi
        self.psi_pointer = psi_pointer
        self.params = params


def parse_job(doc, command: str | None = None) -> JobSpec:
    """Validate a decoded job object; ``command`` may override or confirm.

    The weights are checked here only at the job's own cap; without one the
    caller checks them at the effective cap, at ``JobSpec.psi_pointer``.
    """
    if not isinstance(doc, dict):
        _fail("job spec must be a JSON object", "")
    cmd = doc.get("command", command)
    if cmd is None:
        _fail("no command named (key \"command\" missing)", "/command")
    if command is not None and cmd != command:
        _fail("job names command %r but %r was invoked" % (cmd, command),
              "/command")
    if cmd not in SCHEMA:
        _fail("unknown command %r" % (cmd,), "/command")
    allowed = {"command", "cap"} | {param.key for param in SCHEMA[cmd]}
    if cmd not in UNWEIGHTED:
        allowed.add("psi")
    for key in doc:
        if key not in allowed:
            _fail("unknown key", "/%s" % key)

    cap = None
    if "cap" in doc:
        cap = doc["cap"]
        if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
            _fail("cap must be a nonnegative integer", "/cap")

    psi = None
    psi_pointer = "/psi"
    if "psi" in doc:
        if not isinstance(doc["psi"], dict):
            _fail("psi must be an object", "/psi")
        for kind, key in _PSI_KEYS:
            if doc["psi"].get("kind") == kind:
                if key not in doc["psi"]:
                    _fail("%s is required for kind %s" % (key, kind),
                          "/psi/" + key)
                check = _check_scalar_str if key == "q" else _check_scalar_list
                check(doc["psi"][key], "/psi/" + key)
        try:
            psi = PsiSequence.from_json(doc["psi"], cap=0)
        except (AdmissibilityError, ZeroDivisionError) as exc:
            # an unknown kind; a rational kind's zero denominator
            _fail("bad weight sequence: %s" % exc, "/psi")
        if doc["psi"].get("kind") == "q":
            psi_pointer = "/psi/q"
        if cap is not None:
            require_admissible(psi, cap, psi_pointer)

    return JobSpec(cmd, cap, psi,
                   check_params(cmd, doc), psi_pointer)


def load_job_spec(path: str, command: str | None = None) -> JobSpec:
    """The validated job of the JSON file at ``path``, which is UTF-8 text
    as JSON is; a file that cannot be read or decoded is a bad job file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        _fail("job file not found: %s" % path, "")
    except (OSError, ValueError) as exc:  # a directory, not UTF-8, a NUL
        _fail("cannot read job file: %s" % exc, "")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # past the digit limit too
        _fail("invalid JSON: %s" % exc, "")
    return parse_job(doc, command=command)