"""Benchmark items against their recorded digests.

The benchmark's pool is fixed and ``perfbench/reference.json`` holds the
SHA-256 digest of each item's output, recorded from known-good code, so
running the whole series pool pins the series kernels, the triangular solve
and the four closed forms to exact outputs across every weight kind and
cap the benchmark uses.  The cap-6 ``verify`` items of the CLI pool, every
suite in text, JSON and CSV, pin the bytes of the identity suites.  The
benchmark files are loaded by path, as ``tests/test_oracles.py`` does, so
nothing is copied out of them.  The tracer's memo counters name attributes
of ``PsiSequence``; a test pins that those still exist as lists.
"""

import importlib.util
import json
import os
import sys

import pytest

import psi_umbral
from psi_umbral import cli
from psi_umbral.psi import PsiSequence

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
    REFERENCES = json.load(fh)
REFERENCE = REFERENCES["series_kernels"]
OPS = sorted({req.params["op"] for req in SERIES.pool()})

CLI = workloads.load_workload("cli_mix", psi_umbral, cli)
VERIFY_CAP6 = [req for req in CLI.pool() if req.params["argv"][0] == "verify"
               and req.params["argv"][3:5] == ["--cap", "6"]]


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


def test_verify_items_at_cap_6_are_the_recorded_ones():
    suites = {req.params["argv"][2] for req in VERIFY_CAP6}
    assert len(VERIFY_CAP6) == 24 and len(suites) == 8
    assert {req.key for req in VERIFY_CAP6} <= set(REFERENCES["cli_mix"])


@pytest.mark.parametrize("suite", sorted({req.params["argv"][2]
                                          for req in VERIFY_CAP6}))
def test_verify_output_matches_its_digests(suite):
    items = [req for req in VERIFY_CAP6 if req.params["argv"][2] == suite]
    bad = {}
    for req in items:
        why = CLI.check(req, CLI.execute(req), REFERENCES["cli_mix"])
        if why:
            bad[req.key] = why
    assert len(items) == 3 and not bad


def test_tracer_memo_counters_name_psi_lists():
    # the traced run counts a memo hit as n < len(memo) for each COUNTED
    # method: each memo must be a list indexed by n on a fresh sequence
    counted = load("perfbench_tracer", "tracer.py").COUNTED
    assert counted
    for name, attr in counted.items():
        layer, cls, method = name.split(".")
        assert (layer, cls) == ("psi", "PsiSequence")
        psi = PsiSequence.classical(2)
        memo = getattr(psi, attr)
        assert isinstance(memo, list)
        before = len(memo)
        n = before + 3
        getattr(psi, method)(n)
        assert getattr(psi, attr) is memo and len(memo) == n + 1 > before
