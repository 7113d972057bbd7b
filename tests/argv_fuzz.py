"""A seeded fuzz of the command line's reading of argv.

``argvs(seed, count)`` draws argvs over the flag vocabulary of every
command: full flags, unique and ambiguous prefixes, ``-h`` forms, "--",
values attached with "=" (a value of "--" too), caps 0-10, every ``--psi``
form, operator texts and bad values, with flags before the command now and
then.  It leaves out what can run for long on purpose: no "^" in an
operator, no cap above 10, and ``verify`` only on its cheap suites at cap 6.

This module needs nothing beyond the standard library and the package, so
any interpreter can run it:

    PYTHONPATH=src python tests/argv_fuzz.py SEED COUNT

prints one JSON line per argv: the argv, its exit status and the sha256 of
its stdout and of its stderr, to diff two checkouts or two interpreters.
An exception that escapes ``cli.main`` is printed as its type's name in
place of the exit status.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys

from psi_umbral.cli import main

COMMANDS = ("basic", "expand", "detect", "verify", "integrate", "translate",
            "table")
SHARED = ("--cap", "--psi", "--format", "--job")
# each command's own flags, the one it needs first
FLAGS = {"basic": ("--op", "--n", "--formula"),
         "expand": ("--t", "--q", "--lambda"),
         "detect": ("--op",),
         "verify": ("--suite",),
         "integrate": ("--poly", "--kind", "--q", "--r-num", "--r-den"),
         "translate": ("--poly", "--y"),
         "table": ()}
REQUIRED = ("expand", "detect", "integrate", "translate")
ALL_FLAGS = sorted({flag for flags in FLAGS.values() for flag in flags}
                   | set(SHARED) | {"--help"})

OPERATORS = ("Dpsi", "Delta", "D", "X", "D*X*D", "E[-1/2] - 1", "E[2] - 1",
             "D*E[1]", "Xpsi*Dpsi", "Dpsi + Dpsi*Dpsi", "Q[1/2]", "Nhat",
             "1/2*D*X*D - 1/3*D", "D0", "E[a]", "D +", "((D)", "", "--", "-D")
RATIONAL = ('{"kind": "rational", "q": "3", "R_num": ["1", "-1"], '
            '"R_den": ["-2"]}')
PSIS = ("classical", "divided_difference", "q:1/2", "q:2", "q:-2", "q:1",
        "q:0", "q:x", "custom:1,3,7,15", "custom:1,4,9,16,25,36,49,64,81,100",
        "custom:", "custom:0,1", "custom:1,,2", RATIONAL, '{"kind": "q"}',
        '{"kind": "q", "q": 3}', '{"kind": "custom"}', '{"kind": "zz"}',
        '{"kind": "rational", "q": "2", "R_num": ["1"], "R_den": ["0"]}',
        '{"kind": "rational", "q": "2"}', "{", "[]", "nope", "", "--")
# good values, then bad ones
VALUES = {
    "--cap": (tuple(map(str, range(11))), ("x", "", "--", "-1", "1.5")),
    "--psi": (PSIS[:14], PSIS[14:]),
    "--format": (("text", "json", "csv"), ("xml", "")),
    "--job": ((), ("missing.json", ".", "")),
    "--op": (OPERATORS[:14], OPERATORS[14:]),
    "--t": (OPERATORS[:14], OPERATORS[14:]),
    "--q": (("Dpsi", "Delta", "E[2] - 1", "2", "1/2", "-3"),
            ("X", "0", "x", "", "--")),
    "--n": (tuple(map(str, range(9))), ("12", "x", "", "--", "-1")),
    "--formula": (("1", "2", "3", "4"), ("0", "5", "x", "", "--")),
    "--lambda": (("1", "1,1/2", "-2,3"), ("1,,2", "x", "", "--")),
    "--suite": (("ghw", "binomial", "rodrigues", "integration", "poisson",
                 "special"), ("nope", "", "--")),
    "--kind": (("psi", "q", "r"), ("z",)),
    "--r-num": (("1,-1", "1", "0"), ("x", "", "--")),
    "--r-den": (("-2", "1,1"), ("0", "x", "", "--")),
    "--poly": (("1,2,3", "0", "1,-2,0,1/3"), ("1,,2", "x", "", "--")),
    "--y": (("1", "-1/2", "0", "3"), ("x", "1/0", "", "--")),
    "--help": ((), ("x", "", "a b")),
}
HELP = ("-h", "-hh", "-h=h", "-hhh", "-h3", "-hhx", "-h=", "--help", "--he",
        "--h=x", "--help=")
STRAYS = ("--zz", "--zz=3", "-x", "-x=3", "-5", "-1.5", "3", "-", "--=x",
          "-=3")


def _value(rng, flag, good=None):
    good = VALUES[flag][0] if good is None else good
    return rng.choice(good if good and rng.random() < 0.85
                      else VALUES[flag][1])


def _item(rng, flag, good=None):
    """The words of one flag: in full or a prefix of it, which may match
    several flags, with its value apart, attached or left out."""
    cut = len(flag) if rng.random() < 0.8 else rng.randrange(3, len(flag) + 1)
    word, value = flag[:cut], _value(rng, flag, good)
    form = rng.random()
    if form < 0.6:
        return [word, value]
    return [word + "=" + value] if form < 0.95 else [word]


def argv_for(rng):
    """One argv: the command with some of its flags and a cap that bounds
    its work, sometimes a job file in their place, stray words, help forms,
    a "--" or words before the command."""
    command = rng.choice(COMMANDS)
    verify = command == "verify"
    items = [_item(rng, "--cap", ("6",) if verify else None)]
    if verify or command in REQUIRED and rng.random() < 0.9:
        items.append(_item(rng, FLAGS[command][0]))
    pool = FLAGS[command] + ("--psi", "--format")
    for _ in range(rng.randrange(4)):
        flag = rng.choice(pool if rng.random() < 0.95 else ALL_FLAGS)
        if flag not in ("--cap", "--suite"):  # their items bound the work
            items.append(_item(rng, flag))
    if rng.random() < 0.05:
        items = [_item(rng, "--job")]
    if rng.random() < 0.05:
        items.append([rng.choice(HELP + STRAYS)])
    rng.shuffle(items)
    words = [word for item in items for word in item]
    if rng.random() < 0.05:
        words.insert(rng.randrange(len(words) + 1), "--")
    if rng.random() < 0.05:
        command = rng.choice(("bogus", "bas", "", "-5", "--", "TABLE"))
    before = []
    if rng.random() < 0.1:
        before = rng.choice([[rng.choice(HELP + STRAYS)], ["--"],
                             _item(rng, rng.choice(ALL_FLAGS))])
    fmt = rng.random()
    if fmt < 0.4:
        words += ["--format", "json"]
    elif fmt < 0.5:
        words += _item(rng, "--format")
    return before + [command] + words


def argvs(seed, count):
    rng = random.Random(seed)
    return [argv_for(rng) for _ in range(count)]


def outcome(argv):
    """(exit status, stdout, stderr) of ``cli.main(argv)``; an exception
    that escapes it is its type's name in place of the status."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = type(exc).__name__
    return code, out.getvalue(), err.getvalue()


def digest(argv):
    code, out, err = outcome(argv)
    return {"argv": argv, "exit": code,
            "stdout": hashlib.sha256(out.encode("utf-8")).hexdigest(),
            "stderr": hashlib.sha256(err.encode("utf-8")).hexdigest()}


if __name__ == "__main__":
    os.environ.pop("PSI_UMBRAL_CAP", None)
    seed, count = map(int, sys.argv[1:])
    for argv in argvs(seed, count):
        print(json.dumps(digest(argv)))
