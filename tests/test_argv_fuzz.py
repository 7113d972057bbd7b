"""The command line on the seeded argvs of ``argv_fuzz.py``.

Every argv ends in exit status 0, 1 or 2 with no traceback, gives the same
bytes when run again, and a usage error in JSON mode is a JSON document
that names where it points.  The digests of a few hundred argvs are the
same under every interpreter the golden test finds as in this process.
"""

import functools
import json

import pytest

import argv_fuzz
from test_cli_golden import HOME, INTERPRETERS, run_with_package, working_python


@pytest.fixture(autouse=True)
def no_cap_env(monkeypatch):
    monkeypatch.delenv("PSI_UMBRAL_CAP", raising=False)


def _problems(argv, first):
    """What is wrong with ``first``, the outcome of ``argv``."""
    code, out, err = first
    found = []
    if code not in (0, 1, 2):
        found.append("exit %r" % (code,))
    if "Traceback" in err:
        found.append("a traceback")
    if argv_fuzz.outcome(argv) != first:
        found.append("a second run differs")
    if code == 2 and argv[-2:] == ["--format", "json"]:
        try:
            doc = json.loads(err)
            key = {"job_spec": "pointer", "parse": "position"}[doc["code"]]
            doc["details"][key]
        except (ValueError, KeyError, TypeError):
            found.append("not a JSON usage error: %r" % err)
    return found


def test_every_argv_ends_in_an_exit_status_with_the_same_bytes():
    codes, found = set(), {}
    for argv in argv_fuzz.argvs(1, 3000):
        first = argv_fuzz.outcome(argv)
        codes.add(first[0])
        problems = _problems(argv, first)
        if problems:
            found[" ".join(map(repr, argv))] = problems
    assert found == {}
    assert codes == {0, 1, 2}  # successes, failed checks and usage errors


SEED, COUNT = 2, 400


@functools.cache
def in_process_digests():
    return [json.dumps(argv_fuzz.digest(argv))
            for argv in argv_fuzz.argvs(SEED, COUNT)]


@pytest.mark.parametrize("python", INTERPRETERS,
                         ids=lambda p: p.replace(HOME, "~"))
def test_the_fuzz_reads_alike_under_every_interpreter(python):
    result = run_with_package(working_python(python), argv_fuzz.__file__,
                              str(SEED), str(COUNT))
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines() == in_process_digests()
