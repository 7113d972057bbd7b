"""Byte-for-byte CLI golden test.

The corpus, its digests and the way each case is hashed live in
``golden_corpus.py`` next to this file, which needs no pytest.  Here each
case is checked in-process, and the whole corpus once more under every
Python interpreter found among a fixed list of names, each in a child
process.  Each interpreter runs once: a name whose interpreter reports the
same executable as an earlier name's (a pyenv shim and the binary it
starts, say) is left out of ``INTERPRETERS``.
"""

import glob
import os
import shutil
import subprocess

import pytest

from golden_corpus import CASES, load_golden, run_digest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
HOME = os.path.expanduser("~")
NAMES = (["python3.%d" % minor for minor in range(10, 15)]
         + sorted(glob.glob(os.path.join(HOME, ".pyenv", "versions",
                                         "3.1*", "bin", "python3"))))


def probe(python):
    """The real path of the executable the interpreter ``python`` names
    reports, if it starts and is Python 3.10 or later; None otherwise."""
    exe = shutil.which(python)
    if not exe:
        return None
    try:
        result = subprocess.run(
            [exe, "-c", "import os, sys;"
                        " print(os.path.realpath(sys.executable));"
                        " sys.exit(sys.version_info < (3, 10))"],
            capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return None if result.returncode else result.stdout.strip()


PROBED = {name: probe(name) for name in NAMES}
INTERPRETERS = [name for i, name in enumerate(NAMES)
                if PROBED[name] is None
                or PROBED[name] not in [PROBED[n] for n in NAMES[:i]]]


def test_golden_file_lists_exactly_the_cases():
    assert [argv for argv, _ in load_golden()] == CASES


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv, monkeypatch):
    monkeypatch.delenv("PSI_UMBRAL_CAP", raising=False)
    recorded = dict((tuple(a), digest) for a, digest in load_golden())
    assert run_digest(argv) == recorded[tuple(argv)]


def working_python(python):
    """The path of the interpreter ``python`` names, if it starts and is
    Python 3.10 or later; the test is skipped otherwise."""
    if PROBED[python] is None:
        pytest.skip("no working %s" % python)
    return shutil.which(python)


def run_with_package(exe, script, *args):
    """Run the Python file ``script`` with ``args`` under ``exe`` with the
    package from ``src`` on its path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PSI_UMBRAL_CAP", None)
    return subprocess.run([exe, script, *args], capture_output=True,
                          text=True, env=env, timeout=300)


@pytest.mark.parametrize("python", INTERPRETERS,
                         ids=lambda p: p.replace(HOME, "~"))
def test_the_corpus_matches_under_every_interpreter(python):
    result = run_with_package(working_python(python),
                              os.path.join(HERE, "golden_corpus.py"))
    # the corpus prints each argv whose digest differs
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
