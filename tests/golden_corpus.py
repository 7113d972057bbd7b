"""The CLI golden corpus: argvs and the digests of their output.

Each case runs ``cli.main`` in-process and hashes (exit code, stdout,
stderr), where a ``SystemExit`` that argparse raises for a usage error or
``--help`` counts as ``["SystemExit", code]``; the digests live in
``cli_golden.json`` next to this file.  This module needs nothing beyond
the standard library and the package, so any interpreter can check the
corpus:

    PYTHONPATH=src python tests/golden_corpus.py

prints each argv whose digest differs and exits 1 if there is one.  To
record the digests again, from a checkout whose output is known good:

    PYTHONPATH=src python tests/golden_corpus.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from psi_umbral.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "cli_golden.json")

SQUARES = "custom:" + ",".join(str(n * n) for n in range(1, 25))
RATIONAL = ('{"kind": "rational", "q": "3", "R_num": ["1", "-1"], '
            '"R_den": ["-2"]}')

CASES = [
    ["basic", "--op", "Delta", "--n", "6", "--formula", "1", "--cap", "8"],
    ["basic", "--op", "Delta", "--psi", "divided_difference", "--formula", "2",
     "--cap", "24", "--format", "json"],
    ["basic", "--op", "Delta", "--psi", "q:1/2", "--n", "6", "--formula", "3",
     "--cap", "8", "--format", "json"],
    ["basic", "--op", "Delta", "--psi", SQUARES, "--formula", "4", "--cap",
     "24"],
    ["basic", "--op", "Delta", "--psi", RATIONAL, "--formula", "1", "--cap",
     "24", "--format", "json"],
    ["basic", "--op", "E[-1/2] - 1", "--formula", "2", "--cap", "24",
     "--format", "json"],
    ["basic", "--op", "E[-1/2] - 1", "--psi", "divided_difference", "--n", "6",
     "--formula", "3", "--cap", "8"],
    ["basic", "--op", "E[-1/2] - 1", "--psi", "q:1/2", "--formula", "4",
     "--cap", "24"],
    ["basic", "--op", "E[-1/2] - 1", "--psi", SQUARES, "--n", "6", "--formula",
     "1", "--cap", "8", "--format", "json"],
    ["basic", "--op", "E[-1/2] - 1", "--psi", RATIONAL, "--n", "6",
     "--formula", "2", "--cap", "8"],
    ["basic", "--op", "D*E[1]", "--formula", "3", "--cap", "24"],
    ["basic", "--op", "D*E[1]", "--psi", "divided_difference", "--n", "6",
     "--formula", "4", "--cap", "8", "--format", "json"],
    ["basic", "--op", "D*E[1]", "--psi", "q:1/2", "--formula", "1", "--cap",
     "24", "--format", "json"],
    ["basic", "--op", "D*E[1]", "--psi", SQUARES, "--n", "6", "--formula", "2",
     "--cap", "8"],
    ["basic", "--op", "D*E[1]", "--psi", RATIONAL, "--formula", "3", "--cap",
     "24", "--format", "json"],
    ["basic", "--op", "Dpsi + Dpsi*Dpsi", "--n", "6", "--formula", "4",
     "--cap", "8", "--format", "json"],
    ["basic", "--op", "Dpsi + Dpsi*Dpsi", "--psi", "divided_difference",
     "--formula", "1", "--cap", "24"],
    ["basic", "--op", "Dpsi + Dpsi*Dpsi", "--psi", "q:1/2", "--n", "6",
     "--formula", "2", "--cap", "8"],
    ["basic", "--op", "Dpsi + Dpsi*Dpsi", "--psi", SQUARES, "--formula", "3",
     "--cap", "24", "--format", "json"],
    ["basic", "--op", "Dpsi + Dpsi*Dpsi", "--psi", RATIONAL, "--n", "6",
     "--formula", "4", "--cap", "8"],
    ["basic", "--op", "D*X*D", "--n", "5", "--cap", "8"],
    ["basic", "--op", "X", "--cap", "8"],
    ["basic", "--op", "Xpsi*Dpsi", "--cap", "8", "--format", "json"],
    ["expand", "--t", "Delta", "--cap", "8"],
    ["expand", "--t", "Delta", "--psi", "q:1/2", "--lambda", "1,1/2", "--cap",
     "8", "--format", "json"],
    ["expand", "--t", "E[2] - 1", "--cap", "8", "--format", "json"],
    ["expand", "--t", "E[2] - 1", "--q", "Delta", "--psi", RATIONAL, "--cap",
     "8"],
    # a series value expanded in a series base, at caps 0 and 1 and at caps
    # where a table solve of step 1 would cost the most
    ["expand", "--t", "Delta", "--psi", "q:2", "--lambda", "1", "--cap", "0",
     "--format", "json"],
    ["expand", "--t", "Delta", "--psi", "q:2", "--lambda", "1", "--cap", "1",
     "--format", "json"],
    ["expand", "--t", "Delta", "--psi", "q:1/2", "--cap", "48", "--format",
     "json"],
    ["expand", "--t", "E[1/2] - 1", "--q", "Delta", "--psi", "q:2", "--cap",
     "24", "--format", "csv"],
    ["detect", "--op", "Delta", "--cap", "8"],
    ["detect", "--op", "Delta", "--psi", "q:1/2", "--cap", "8", "--format",
     "json"],
    ["detect", "--op", "E[2] - 1", "--psi", "divided_difference", "--cap",
     "8"],
    ["detect", "--op", "E[2] - 1", "--psi", SQUARES, "--cap", "8", "--format",
     "json"],
    ["detect", "--op", "Dpsi + X*Dpsi*Dpsi*Dpsi", "--cap", "10", "--format",
     "json"],
    ["detect", "--op", "1/2*D*X*D - 1/3*D^3", "--cap", "8"],
    ["detect", "--op", "E[1]^300", "--cap", "24"],
    ["translate", "--psi", "custom:1,2,3", "--cap", "3", "--y", "1", "--poly",
     "1,1,1,1"],
    ["translate", "--psi", "custom:1,4,9", "--cap", "3", "--y=-1/2", "--poly",
     "0,1,0,2", "--format", "json"],
    ["translate", "--psi", "custom:2,3", "--cap", "2", "--y", "3", "--poly",
     "1,0,1", "--format", "csv"],
    ["translate", "--psi", "q:1/2", "--cap", "8", "--y", "1/3", "--poly",
     "1,2,3", "--format", "json"],
    # a zero polynomial, and a shift by zero
    ["translate", "--poly", "0", "--y", "2", "--cap", "4", "--format", "json"],
    ["translate", "--psi", "q:2", "--cap", "6", "--y=0", "--poly",
     "1,-2,0,1/3"],
    ["verify", "--suite", "binomial", "--cap", "8"],
    ["verify", "--suite", "binomial", "--cap", "8", "--format", "json"],
    ["verify", "--suite", "binomial", "--cap", "6"],
    ["verify", "--suite", "binomial", "--cap", "6", "--format", "json"],
    ["verify", "--suite", "binomial", "--cap", "16"],
    ["verify", "--suite", "binomial", "--cap", "16", "--format", "json"],
    ["verify", "--suite", "expansion", "--cap", "8"],
    ["verify", "--suite", "expansion", "--cap", "8", "--format", "json"],
    ["verify", "--suite", "leibniz", "--cap", "8"],
    ["verify", "--suite", "leibniz", "--cap", "8", "--format", "json"],
    ["verify", "--suite", "rodrigues", "--cap", "8"],
    ["verify", "--suite", "rodrigues", "--cap", "8", "--format", "json"],
    # the reordering cases keep j + m <= cap + 2, so caps 6, 8 and 16 walk
    # different case lists
    ["verify", "--suite", "leibniz", "--cap", "6"],
    ["verify", "--suite", "leibniz", "--cap", "6", "--format", "json"],
    ["verify", "--suite", "leibniz", "--cap", "16"],
    ["verify", "--suite", "leibniz", "--cap", "16", "--format", "json"],
    ["verify", "--suite", "expansion", "--cap", "6"],
    ["verify", "--suite", "expansion", "--cap", "6", "--format", "json"],
    ["verify", "--suite", "expansion", "--cap", "16"],
    ["verify", "--suite", "expansion", "--cap", "16", "--format", "json"],
    ["table", "--psi", RATIONAL, "--cap", "8", "--format", "json"],
    ["integrate", "--psi", "q:1/2", "--cap", "8", "--poly", "1,2,3"],
    # each integral's own weights walk: a negative q, a ratio of values and
    # custom weights with a negative entry
    ["integrate", "--kind", "q", "--q", "-3", "--poly", "1,2,3,4", "--cap",
     "8"],
    ["integrate", "--kind", "q", "--q", "-3", "--poly", "1,2,3,4", "--cap",
     "8", "--format", "json"],
    ["integrate", "--kind", "r", "--q", "2", "--r-num=-1,1", "--r-den=1",
     "--poly", "1,-1,1"],
    ["integrate", "--kind", "r", "--q", "2", "--r-num=-1,1", "--r-den=1",
     "--poly", "1,-1,1", "--format", "json"],
    ["integrate", "--kind", "psi", "--psi", "custom:1,-2,3,5", "--poly",
     "0,1,2", "--cap", "4"],
    ["integrate", "--kind", "psi", "--psi", "custom:1,-2,3,5", "--poly",
     "0,1,2", "--cap", "4", "--format", "json"],
    # a plain-table base: its powers are applied to the monomials
    ["expand", "--t", "X*Dpsi", "--q", "D*X*D", "--lambda", "1,1/2", "--cap",
     "6"],
    ["expand", "--t", "X*Dpsi", "--q", "D*X*D", "--lambda", "1,1/2", "--cap",
     "6", "--format", "json"],
    # negative and fractional weights through the factorial chain, the
    # weighted raising operator and the detection readout
    ["table", "--psi", "q:-1/2", "--cap", "12", "--format", "json"],
    ["table", "--psi=custom:-1,2,-3,1/2,5", "--cap", "5"],
    ["detect", "--op", "D*X*D", "--cap", "12", "--format", "json"],
    ["basic", "--op", "Dpsi+Dpsi*Dpsi", "--psi", "q:-2", "--formula", "4",
     "--n", "6", "--cap", "12", "--format", "json"],
    ["basic", "--op", "Delta", "--psi=custom:-1,2,-3,1/2,5,7,-2",
     "--formula", "3", "--n", "5", "--cap", "7"],
    # compositions of weighted shifts: dilations, raising factors that
    # shrink the cap, multiples of powers of the weighted derivative, and
    # no usable cap at all
    ["detect", "--op", "Q[-1/2]*Dpsi", "--psi", "q:-2", "--cap", "24"],
    ["basic", "--op", "D*X*D", "--psi", "q:1/2", "--n", "6", "--cap", "24",
     "--format", "json"],
    ["expand", "--t", "Xpsi*Dpsi", "--psi", "q:-1/2", "--cap", "12",
     "--format", "json"],
    ["detect", "--op", "D*X^3*D0^2", "--cap", "9", "--format", "json"],
    ["detect", "--op", "X*X*D0", "--cap", "0"],
    ["basic", "--op", "Nhat*D0", "--psi", SQUARES, "--n", "5", "--cap", "9"],
    ["expand", "--t", "Xpsi*(-3/2*Dpsi^2)*Q[-2]", "--psi", "q:1/2", "--cap",
     "10", "--format", "json"],
    ["expand", "--t", "2*Dpsi^3*Xpsi", "--psi=custom:-1,2,-3,1/2,5,7,-2",
     "--cap", "6"],
    # weights that break the factorial chains: g_1 = 2 does not divide
    # g_2 in 1/2, 2, ..., and f_1 = 2 does not divide f_2 in 2, 1/2, ...
    ["basic", "--op", "Delta", "--psi", "custom:1/2,2,3,5,7,11", "--n", "4",
     "--cap", "5"],
    ["expand", "--t", "X*Delta", "--psi", "custom:1/2,2,3,5,7,11", "--cap",
     "5", "--format", "json"],
    ["translate", "--psi", "custom:1/2,2,3,5,7,11", "--cap", "5", "--y", "2",
     "--poly", "1,2,3,4,5"],
    ["expand", "--t", "X*Delta", "--q", "Delta", "--psi",
     "custom:2,1/2,3,5,7,11", "--cap", "5"],
    # usage errors and help, in text mode (argparse's usage and exit) and in
    # JSON mode (the structured error with its pointer)
    ["table", "--format", "xml", "--cap", "6"],
    ["basic", "--n", "abc", "--format", "json"],
    ["basic", "--n=abc"],
    ["verify", "--suite", "nope"],
    ["verify", "--suite", "nope", "--format", "json"],
    ["bogus"],
    ["bogus", "--format", "json"],
    ["expand", "--format", "json", "--lambda"],
    ["table", "--zzz=1", "--format", "json"],
    ["table", "--zzz=1"],
    ["basic", "--cap", "x"],
    ["basic", "--cap", "x", "--format", "json"],
    # an abbreviated --format asks for JSON as the full flag does
    ["basic", "--forma", "json", "--cap", "x"],
    ["basic", "--forma=json", "--cap", "x"],
    ["table", "--fo", "json", "--cap", "x"],
    ["basic", "--form", "2"],
    ["basic", "--form", "2", "--format", "json"],
    # an ambiguous prefix is refused once the other flags are spelled out
    ["basic", "--forma", "json", "--form", "2"],
    ["basic", "--form", "2", "--forma", "json"],
    [],
    ["--format", "json"],
    ["--help"],
    ["basic", "--help"],
    # the front door: options, "--", help and values before the command,
    # and a prefix of --help after it
    ["--zz", "3", "basic"],
    ["--zz", "3", "basic", "--format", "json"],
    ["-x", "3", "basic"],
    ["-x", "3", "basic", "--format", "json"],
    ["--ca", "6", "table"],
    ["--ca", "6", "table", "--format", "json"],
    ["--form", "json", "table"],
    ["--form", "json", "table", "--format", "json"],
    ["--", "table", "--cap", "3"],
    ["--", "table", "--cap", "3", "--format", "json"],
    ["-h3", "basic"],
    ["-h3", "basic", "--format", "json"],
    ["-5", "basic"],
    ["-5", "basic", "--format", "json"],
    ["--he"],
    ["--he", "--format", "json"],
    ["basic", "--he"],
    ["basic", "--he", "--format", "json"],
    ["--", "-x", "3", "basic"],
    ["--", "-x", "3", "basic", "--format", "json"],
    # a flag's attached value "--" is the value, and -h run together with
    # other letters after the command reads as it does before it
    ["expand", "--psi=--"],
    ["expand", "--psi=--", "--format", "json"],
    ["detect", "--jo=--"],
    ["detect", "--jo=--", "--format", "json"],
    ["integrate", "--r-num=--"],
    ["integrate", "--r-num=--", "--format", "json"],
    ["basic", "-h3"],
    ["translate", "-hhx"],
    ["basic", "-h=h"],
]


def run_digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ["SystemExit", exc.code]
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_golden():
    with open(GOLDEN) as fh:
        return [(entry["argv"], entry["sha256"]) for entry in json.load(fh)]


if __name__ == "__main__":
    os.environ.pop("PSI_UMBRAL_CAP", None)
    if sys.argv[1:] == ["--record"]:
        entries = [{"argv": argv, "sha256": run_digest(argv)}
                   for argv in CASES]
        with open(GOLDEN, "w") as fh:
            fh.write("[\n%s\n]\n"
                     % ",\n".join(json.dumps(entry) for entry in entries))
    else:
        differ = [argv for argv, digest in load_golden()
                  if run_digest(argv) != digest]
        for argv in differ:
            print(json.dumps(argv))
        sys.exit(1 if differ else 0)
