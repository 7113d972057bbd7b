"""Each script under demos/ runs to completion and opens with its heading.

The demos are what the README points a new reader at, so a public name
they import going away must fail here, not in the reader's terminal.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FIRST_LINES = {
    "falling_factorials.py":
        "Basic sequence of the forward difference (the falling factorials):",
    "q_calculus.py": "Jackson weights [n]_q for q = 1/2:",
    "star_product_poisson.py": "The product is noncommutative (q = 2):",
}


def test_every_demo_is_listed():
    scripts = [f for f in os.listdir(os.path.join(ROOT, "demos"))
               if f.endswith(".py")]
    assert sorted(scripts) == sorted(FIRST_LINES)


@pytest.mark.parametrize("name", sorted(FIRST_LINES))
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == FIRST_LINES[name]
