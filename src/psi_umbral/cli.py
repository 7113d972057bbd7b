"""Command line front end.

Subcommands: basic, expand, detect, verify, integrate, translate, table.
Parameters come either from flags or from a JSON job file (--job), never
both.  Output is text, json, or csv (--format); everything printed is
deterministic for fixed inputs.  Exit status: 0 when the requested
computation succeeded and every check it ran passed, 1 when a check
failed or the computation could not be completed, 2 for usage errors,
malformed expressions, and bad job files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
from gettext import gettext

from .algebra import Polynomial, format_polynomial, scalar_from_str, scalar_to_str
from .errors import (ExprParseError, JobSpecError, NotDegreeLoweringError,
                     NotShiftInvariantError, PsiUmbralError)
from .expansion import (conjugate_indicator_check, detect_psi_series,
                        expand_in_monomials, reconstruct_from_monomial_form)
from .exprparse import OperatorContext, parse_operator
from .integration import psi_integral, q_integral, r_integral
from .jobs import (CHOICE, INDEX, RATIONALS, SCHEMA, UNWEIGHTED, load_job_spec,
                   parse_job, require_admissible, weights_reach)
from .operators import psi_derivative
from .psi import PsiSequence, RationalFunction
from .umbral import DeltaOperator, basic_sequence_solve, rodrigues_sequence, translate
from .verify import MIN_CAP, run_all, run_suite

DEFAULT_CAP = 16
CAP_ENV = "PSI_UMBRAL_CAP"


def resolve_cap(job_value) -> int:
    """The job's own cap, else $PSI_UMBRAL_CAP, else DEFAULT_CAP."""
    if job_value is not None:
        return job_value
    env = os.environ.get(CAP_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise JobSpecError("%s must be an integer, got %r"
                               % (CAP_ENV, env), "$" + CAP_ENV)
        if value < 0:
            raise JobSpecError("%s must be nonnegative" % CAP_ENV, "$" + CAP_ENV)
        return value
    return DEFAULT_CAP


def _psi_object(text: str):
    """A job file's weights object from a ``--psi`` value.

    The names "classical" and "divided_difference", the forms "q:3/4" and
    "custom:1,3,7,15" are shorthand for their objects; text starting with
    "{" is the object itself, in JSON.
    """
    text = text.strip()
    if text in ("classical", "divided_difference"):
        return {"kind": text}
    if text.startswith("q:"):
        return {"kind": "q", "q": text[2:]}
    if text.startswith("custom:"):
        return {"kind": "custom", "n_psi": text[len("custom:"):].split(",")}
    if text.startswith("{"):
        try:
            return json.loads(text)
        except (ValueError, RecursionError) as exc:  # past the digit limit too
            raise JobSpecError("invalid JSON: %s" % exc, "--psi")
    raise JobSpecError("unrecognized weight sequence %r (try classical, "
                       "divided_difference, q:RAT, custom:V1,V2,... or JSON)"
                       % text, "--psi")


# -- parameter assembly ------------------------------------------------------

def gather_params(args) -> tuple[str, dict, int, PsiSequence | None]:
    """Validated parameters in job form, from the job file or the flags.

    Flag values are put in job form (comma lists become lists, ``--psi``
    its weights object, ``--cap`` the key "cap") and go through the same
    validator as a job file; its errors then point at the flag.
    """
    command = args.command
    schema = SCHEMA[command]
    flags = {"cap": "--cap", "psi": "--psi"}
    flags.update((param.key, param.flag) for param in schema)
    doc = {key: getattr(args, key) for key in flags
           if getattr(args, key, None) is not None}
    if args.job is not None and doc:
        raise JobSpecError("--job replaces these flags: %s"
                           % ", ".join(sorted(flags[key] for key in doc)))
    for param in schema:
        if param.kind == RATIONALS and param.key in doc:
            doc[param.key] = doc[param.key].split(",")
    if "psi" in doc:
        doc["psi"] = _psi_object(doc["psi"])
    try:
        job = (parse_job(doc, command) if args.job is None
               else load_job_spec(args.job, command=command))
        cap = resolve_cap(job.cap)
        if command == "verify" and cap < MIN_CAP:
            raise JobSpecError("verify needs --cap at least %d (counterexample "
                               "witnesses live at degree 4)" % MIN_CAP,
                               "/cap" if job.cap is not None else "$" + CAP_ENV)
        psi = job.psi
        if psi is None and command not in UNWEIGHTED:
            psi = PsiSequence.classical(cap)
        if psi is not None:
            require_admissible(psi, cap, job.psi_pointer,
                               weights_reach(command, job.params))
    except JobSpecError as exc:
        if args.job is not None:
            raise
        # at --cap for the cap, at --psi for the weights and anything in them
        head = exc.pointer.split("/")[1] if exc.pointer.startswith("/") else ""
        raise JobSpecError(exc.message, {"cap": "--cap", "psi": "--psi"}.get(
            head, exc.pointer))
    return command, job.params, cap, psi


def _operator(params, key, cap, psi):
    text = params[key]
    return parse_operator(text, OperatorContext(cap, psi)), text


# -- subcommand bodies -------------------------------------------------------
# Each returns (doc, text lines, ok); main adds "command" and "cap" to doc.

def run_basic(params, cap, psi):
    op, op_text = _operator(params, "op", cap, psi)
    n_max = params["n"]
    formula = params["formula"]
    solved = basic_sequence_solve(op, psi, n_max)
    closed = None
    agreement = None
    try:
        delta = DeltaOperator.from_operator(op, psi)
        closed = rodrigues_sequence(delta, n_max, formula=formula)
    except (NotShiftInvariantError, NotDegreeLoweringError):
        pass
    if closed is not None:
        agreement = all(closed[n] == solved[n] for n in range(n_max + 1))
    rows = []
    for n in range(n_max + 1):
        row = {"n": n, "p_n": format_polynomial(solved[n])}
        if agreement is not None:
            row["closed_form_agrees"] = closed[n] == solved[n]
        rows.append(row)
    doc = {
        "op": op_text,
        "psi": psi.to_json(),
        "formula": formula if closed is not None else None,
        "closed_form_agrees": agreement,
        "polys": solved.to_json(),
        "rows": rows,
    }
    lines = ["basic sequence of %s (n <= %d)" % (op_text, n_max)]
    for row in rows:
        suffix = ""
        if agreement is not None:
            suffix = "   [closed form %s]" % ("ok" if row["closed_form_agrees"]
                                              else "MISMATCH")
        lines.append("  p_%-2d = %s%s" % (row["n"], row["p_n"], suffix))
    if agreement is None:
        lines.append("  (operator is not shift-invariant; triangular solve only)")
    return doc, lines, agreement is not False


def run_expand(params, cap, psi):
    t_op, t_text = _operator(params, "t", cap, psi)
    base_op, base_text = _operator(params, "q", cap, psi)
    exp = expand_in_monomials(t_op, base_op)
    back = reconstruct_from_monomial_form(exp, exp.order)
    reconstructs = back == t_op.truncated(back.cap)
    ok = reconstructs
    conj = None
    if params.get("lambda_samples"):
        samples = [scalar_from_str(s) for s in params["lambda_samples"]]
        conj_ok, report = conjugate_indicator_check(t_op, exp, samples)
        conj = report
        ok = ok and conj_ok
    doc = exp.to_json(base_text)
    doc.update({
        "t": t_text,
        "psi": psi.to_json(),
        "reconstructs": reconstructs,
        "conjugation": conj,
        "rows": [{"n": n, "q_n": format_polynomial(q)}
                 for n, q in enumerate(exp.coeff_polys)],
    })
    lines = ["%s as a series in %s with polynomial coefficients:"
             % (t_text, base_text)]
    for row in doc["rows"]:
        lines.append("  q_%-2d = %s" % (row["n"], row["q_n"]))
    lines.append("reconstruction check: %s"
                 % ("ok" if doc["reconstructs"] else "FAILED"))
    if conj is not None:
        lines.append("eigenseries conjugation check: %s"
                     % ("ok" if conj["ok"] else "FAILED"))
    return doc, lines, ok


def run_detect(params, cap, psi):
    op, op_text = _operator(params, "op", cap, psi)
    result = detect_psi_series(op)
    doc = result.to_json()
    doc["op"] = op_text
    if result.is_series:
        weights = result.psi.values(result.psi.stored_cap)
        doc["rows"] = [{"n": n + 1, "n_psi": scalar_to_str(w)}
                       for n, w in enumerate(weights)]
        lines = ["%s is a series in a weighted derivative" % op_text,
                 "  scale applied: %s" % scalar_to_str(result.scale),
                 "  weights: %s" % ", ".join(scalar_to_str(w) for w in weights),
                 "  series coefficients: %s"
                 % ", ".join(scalar_to_str(c) for c in result.series_coeffs)]
    else:
        doc["rows"] = [{"witness_n": result.witness[0],
                        "witness_k": result.witness[1]}]
        lines = ["%s is NOT a series in any weighted derivative" % op_text,
                 "  first failing pair: n=%d, k=%d" % result.witness]
    return doc, lines, result.is_series


def run_verify(params, cap, psi):
    suite = params["suite"]
    if suite == "all":
        groups = run_all(cap)
    else:
        groups = [(suite, run_suite(suite, cap))]
    rows = []
    lines = []
    ok = True
    for name, results in groups:
        for r in results:
            row = {"suite": name, "check": r.name, "passed": r.passed}
            line = "%s %-12s %s" % ("PASS" if r.passed else "FAIL", name, r.name)
            if r.detail:
                row["witness"] = r.detail
                line += "  [first failing case: %s]" % r.detail
            rows.append(row)
            lines.append(line)
            ok = ok and r.passed
    lines.append("%d checks, %d failed" % (len(rows),
                                           sum(not r["passed"] for r in rows)))
    doc = {"suite": suite, "rows": rows, "passed": ok}
    return doc, lines, ok


def run_integrate(params, cap, psi):
    kind = params["kind"]
    p = Polynomial.from_json(params["poly"])
    if kind == "psi":
        integral = psi_integral(psi, p)
        dpsi = psi
    else:
        for key in ("q",) if kind == "q" else ("q", "r_num", "r_den"):
            if key not in params:
                raise JobSpecError("--%s is required for kind=%s"
                                   % (key.replace("_", "-"), kind), "/" + key)
        q = scalar_from_str(params["q"])
        if kind == "q":
            dpsi = PsiSequence.jackson(q, 0)
        else:
            try:
                rat = RationalFunction(Polynomial.from_json(params["r_num"]),
                                       Polynomial.from_json(params["r_den"]))
            except ZeroDivisionError as exc:
                raise JobSpecError(str(exc), "/r_den")
            dpsi = PsiSequence.rational(rat, q, 0)
        # x^n is divided by the weight of n + 1.
        require_admissible(dpsi, cap, "/q" if kind == "q" else "/r_num",
                           0 if p.is_zero else p.degree + 1)
        integral = q_integral(q, p) if kind == "q" else r_integral(rat, q, p)

    roundtrip = psi_derivative(dpsi, integral) == p
    doc = {
        "kind": kind,
        "input": p.to_json(),
        "integral": integral.to_json(),
        "derivative_roundtrip": roundtrip,
        "rows": [{"input": format_polynomial(p),
                  "integral": format_polynomial(integral),
                  "roundtrip": roundtrip}],
    }
    if kind == "psi":
        doc["psi"] = psi.to_json()
    lines = ["integral: %s" % format_polynomial(integral),
             "derivative of the integral returns the input: %s"
             % ("yes" if roundtrip else "NO")]
    return doc, lines, roundtrip


def run_translate(params, cap, psi):
    p = Polynomial.from_json(params["poly"])
    y = scalar_from_str(params["y"])
    shifted = translate(psi, y, p)
    doc = {
        "psi": psi.to_json(),
        "y": scalar_to_str(y),
        "input": p.to_json(),
        "result": shifted.to_json(),
        "rows": [{"input": format_polynomial(p), "y": scalar_to_str(y),
                  "result": format_polynomial(shifted)}],
    }
    lines = ["translate by y = %s: %s" % (scalar_to_str(y),
                                          format_polynomial(shifted))]
    return doc, lines, True


def run_table(params, cap, psi):
    rows = []
    for n in range(cap + 1):
        rows.append({"n": n,
                     "n_psi": scalar_to_str(psi.n_psi(n)) if n else "0",
                     "factorial": scalar_to_str(psi.factorial(n))})
    tri_max = min(cap, 10)
    triangle = [[scalar_to_str(psi.binomial(n, k)) for k in range(n + 1)]
                for n in range(tri_max + 1)]
    doc = {"psi": psi.to_json(), "rows": rows, "binomials": triangle}
    lines = ["weights for %s (cap %d)" % (psi.label, cap),
             "  n   n_psi        n_psi!"]
    for row in rows:
        lines.append("  %-3d %-12s %s" % (row["n"], row["n_psi"],
                                          row["factorial"]))
    lines.append("binomial triangle (n <= %d):" % tri_max)
    for n, tri_row in enumerate(triangle):
        lines.append("  %-3d %s" % (n, "  ".join(tri_row)))
    return doc, lines, True


RUNNERS = {
    "basic": run_basic,
    "expand": run_expand,
    "detect": run_detect,
    "verify": run_verify,
    "integrate": run_integrate,
    "translate": run_translate,
    "table": run_table,
}


# -- wiring ------------------------------------------------------------------

COMMAND_HELP = {
    "basic": "basic polynomial sequence of an operator",
    "expand": "expand one operator in powers of another",
    "detect": "test whether an operator is a weighted-derivative series",
    "verify": "run exact identity suites",
    "integrate": "formal antiderivative with roundtrip check",
    "translate": "generalized shift of a polynomial",
    "table": "weights, factorials and binomials",
}


class _Parser(argparse.ArgumentParser):
    """Argument parser that raises its usage errors as ``JobSpecError``,
    pointing where the flag route's own errors do, with the failing parser
    as ``parser``, whose usage ``_parse_argv`` prints in text mode.  Help
    and usage text are wrapped at a fixed width, so every byte is
    deterministic.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, exit_on_error=False,
                         formatter_class=lambda prog: argparse.HelpFormatter(
                             prog, width=78), **kwargs)

    def error(self, message, name=None):
        exc = JobSpecError(message, _argument_pointer(name))
        exc.parser = self
        raise exc


def _argument_pointer(name) -> str:
    """The job key of a schema parameter or of the command, or else the flag."""
    if name == "command":
        return "/command"
    for schema in SCHEMA.values():
        for param in schema:
            if param.flag == name:
                return "/" + param.key
    return name if name and name.startswith("-") else ""


def _choice(choices):
    """A ``type=`` refusing a value outside ``choices``, alike on any Python."""
    def check(value):
        if value not in choices:
            raise argparse.ArgumentTypeError(
                gettext("invalid choice: %(value)r (choose from %(choices)s)")
                % {"value": value, "choices": ", ".join(map(repr, choices))})
        return value
    return check


class _Store(argparse.Action):
    """argparse's own "store", with a value of "--" kept as "--": Python
    3.10-3.12 drop it from ``--flag=--`` and pass [], so it is converted
    here, as 3.13 converts it, and refused in 3.13's words."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values == []:
            try:
                values = self.type("--") if self.type else "--"
            except argparse.ArgumentTypeError as exc:
                raise argparse.ArgumentError(self, str(exc))
            except ValueError:
                raise argparse.ArgumentError(self, gettext(
                    "invalid %(type)s value: %(value)r")
                    % {"type": self.type.__name__, "value": "--"})
        setattr(namespace, self.dest, values)


def _spelled(arg, parser):
    """``arg`` as every Python reads it.  ``-h...`` as Python 3.11's
    argparse reads it: "-hh" and "-h=h" are -h twice, so "-h"; any other
    value attached is refused, so "--help=" and the value.  Otherwise the
    flag of ``parser.flags`` that ``arg`` names or abbreviates up to any "="
    in full, or ``arg`` itself; an ambiguous prefix is refused as typed."""
    if arg.startswith("-h"):
        value = arg[2:].removeprefix("=").lstrip("h")
        return "--help=" + value if value or arg == "-h=" else "-h"
    prefix, eq, value = arg.partition("=")
    matches = ([prefix] if prefix in parser.flags
               else [flag for flag in parser.flags if flag.startswith(prefix)])
    if len(matches) > 1:
        msg = gettext("ambiguous option: %(option)s could match %(matches)s")
        parser.error(msg % {"option": arg, "matches": ", ".join(matches)},
                     prefix)
    return matches[0] + eq + value if matches else arg


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's one parser, built on first use; ``commands`` maps
    each command to its parser, and ``flags`` lists long flags to spell out."""
    parser = _Parser(
        prog="psi-umbral",
        description="Exact calculus of weighted derivatives, basic polynomial "
                    "sequences, and operator expansions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in SCHEMA.items():
        p = sub.add_parser(command, help=COMMAND_HELP[command],
                           allow_abbrev=False)
        p.flags = ["--help"]

        def add(*flags, choices=None, **kwargs):
            if choices:
                kwargs["type"] = _choice(choices)
            p.flags += p.add_argument(*flags, action=_Store, choices=choices,
                                      **kwargs).option_strings
        add("--cap", type=int, default=None,
            help="operator table cap (default: $%s or %d)"
                 % (CAP_ENV, DEFAULT_CAP))
        if command not in UNWEIGHTED:
            add("--psi", default=None,
                help="weights: classical | divided_difference "
                     "| q:RAT | custom:V1,V2,... | JSON "
                     "(default classical)")
        add("--format", choices=("text", "json", "csv"), default="text")
        add("--job", default=None,
            help="JSON job file supplying the parameters")
        for param in schema:
            help_text = param.help
            if param.default is not None:
                help_text += " (default %s)" % param.default
            add(param.flag, dest=param.key, default=None,
                type=int if param.kind == INDEX else None,
                choices=param.choices if param.kind == CHOICE else None,
                help=help_text)
    parser.commands = sub.choices
    parser.flags = sorted({flag for p in sub.choices.values()
                           for flag in p.flags})
    return parser


def _parse_argv(argv) -> argparse.Namespace:
    """Pick the command, where only help may come first, and parse the rest
    with its parser, every word before any "--" spelled out by ``_spelled``
    on either side.  A usage error is raised as ``JobSpecError`` when the
    words read ask for JSON output: argv before the command is picked, its
    spelled-out words after.  Otherwise it is printed with argparse's usage,
    and the exit status is 2."""
    parser = build_parser()
    ended = argv[:1] == ["--"]  # ends the options: the command follows
    first, *rest = argv[ended:] or [""]
    words = argv
    try:
        # -h..., or an option as argparse reads one: not -5 or -.5, no space
        if not ended and (first.startswith("-h") or
                          re.fullmatch(r"-(?!\d+$|\d*\.\d+$)[^ ]+", first)):
            flag, eq, value = _spelled(first, parser).partition("=")
            if flag in ("-h", "--help"):
                if eq:
                    parser.error("argument -h/--help: ignored explicit "
                                 "argument %r" % value, "-h/--help")
                parser.print_help()
                parser.exit()
            if flag in parser.flags:
                parser.error("argument %s: give it after the command" % flag,
                             flag)
            parser.error(gettext("unrecognized arguments: %s") % first,
                         first.partition("=")[0])
        if len(argv) == ended:
            parser.error(gettext("the following arguments are required: %s")
                         % "command")
        try:
            sub = parser.commands[_choice(parser.commands)(first)]
        except argparse.ArgumentTypeError as exc:
            parser.error("argument command: %s" % exc, "command")
        end = rest.index("--") if "--" in rest else len(rest)
        ambiguous = []  # refused once every other flag is spelled out
        for i, arg in enumerate(rest[:end]):
            try:
                rest[i] = (_spelled(arg, sub) if arg.startswith(("-h", "--"))
                           else arg)
            except JobSpecError as exc:
                ambiguous.append(exc)
        words = rest
        if ambiguous:
            raise ambiguous[0]
        try:
            args, extras = sub.parse_known_args(
                rest, argparse.Namespace(command=first))
        except argparse.ArgumentError as exc:
            sub.error(str(exc), exc.argument_name)
        if extras:
            parser.error(gettext("unrecognized arguments: %s")
                         % " ".join(extras), extras[0].partition("=")[0])
    except JobSpecError as exc:
        if ("--format=json" not in words
                and ("--format", "json") not in zip(words, words[1:])):
            # argparse's usage, "prog: error: ..." line and exit status 2
            argparse.ArgumentParser.error(exc.parser, exc.message)
        raise
    return args


def render(doc, lines, fmt: str, stream) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True), file=stream)
    elif fmt == "csv":
        rows = doc.get("rows", [])
        buf = io.StringIO()
        if rows:
            # a failing verify row adds "witness": name every key, first seen first
            fields = list(dict.fromkeys(key for row in rows for key in row))
            writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        stream.write(buf.getvalue())
    else:
        for line in lines:
            print(line, file=stream)


def main(argv=None) -> int:
    fmt = "json"  # what _parse_argv raises is a usage error in JSON mode
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else list(argv))
        fmt = args.format
        command, params, cap, psi = gather_params(args)
        doc, lines, ok = RUNNERS[command](params, cap, psi)
    except (ExprParseError, JobSpecError) as exc:
        _report_error(exc, fmt)
        return 2
    except PsiUmbralError as exc:
        _report_error(exc, fmt)
        return 1
    doc.update(command=command, cap=cap)
    try:
        render(doc, lines, fmt, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:  # no traceback, now or at exit's flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if ok else 1


def _report_error(exc: PsiUmbralError, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(exc.to_json(), indent=2, sort_keys=True),
              file=sys.stderr)
    else:
        print("error: %s" % exc, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
