"""Every series_kernels item of the benchmark against its recorded digest.

The benchmark's pool is fixed and ``perfbench/reference.json`` holds the
SHA-256 digest of each item's output, recorded from known-good code, so
running the whole series pool pins the series kernels, the triangular solve
and the four closed forms to exact outputs across every weight kind and
cap the benchmark uses.  The benchmark files are loaded by path, as
``tests/test_oracles.py`` does, so nothing is copied out of them.
"""

import importlib.util
import json
import os
import sys

import pytest

import psi_umbral

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench")


def load(name, filename):
    spec = importlib.util.spec_from_file_location(name, os.path.join(BENCH, filename))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads():
    # workloads.py imports its oracles as a top-level module
    saved = sys.modules.get("oracles")
    sys.modules["oracles"] = load("oracles", "oracles.py")
    try:
        return load("perfbench_workloads", "workloads.py")
    finally:
        if saved is None:
            del sys.modules["oracles"]
        else:
            sys.modules["oracles"] = saved


workloads = load_workloads()
SERIES = workloads.load_workload("series_kernels", psi_umbral, None)
with open(os.path.join(BENCH, "reference.json")) as fh:
    REFERENCE = json.load(fh)["series_kernels"]
OPS = sorted({req.params["op"] for req in SERIES.pool()})


def test_pool_is_the_recorded_one():
    keys = {req.key for req in SERIES.pool()}
    assert len(keys) == 270
    assert keys == set(REFERENCE)


@pytest.mark.parametrize("op", OPS)
def test_series_kernels_match_their_digests(op):
    items = [req for req in SERIES.pool() if req.params["op"] == op]
    assert items
    bad = {}
    for req in items:
        why = SERIES.check(req, SERIES.execute(req), REFERENCE)
        if why:
            bad[req.key] = why
    assert not bad
