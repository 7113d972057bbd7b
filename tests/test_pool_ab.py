"""``tests/pool_ab.py``, the in-process A/B, run on this checkout against
itself: every pool item matches the reference on both sides, and each
operation of the workload, or each pool cell, is reported with its base."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tests", "pool_ab.py")


def test_pool_ab_runs_one_tree_against_itself():
    done = subprocess.run([sys.executable, SCRIPT, ROOT, ROOT,
                           "series_kernels", "1"],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    head, columns, *rows = done.stdout.splitlines()
    assert head == ("series_kernels: seed 1, 8 rounds x 1 passes, "
                    "864 items a side, 0 mismatched")
    assert columns.split() == ["operation", "items", "parent_s", "change_s",
                               "change/parent"]
    assert [row.split()[:2] for row in rows] == [
        [op, "96"] for op in ("compose", "f1", "f2", "f3", "f4", "inverse",
                              "power", "reversion", "solve")] + [
        ["total", "864"]]


def test_pool_ab_names_its_arguments_when_called_without_them():
    done = subprocess.run([sys.executable, SCRIPT], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 2
    assert "PARENT_TREE CHANGE_TREE WORKLOAD [PASSES]" in done.stderr


def test_pool_ab_groups_the_rows_by_pool_cell_on_request():
    done = subprocess.run([sys.executable, SCRIPT, ROOT, ROOT,
                           "operator_tables", "1", "--by", "cell"],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    head, columns, *rows = done.stdout.splitlines()
    assert head == ("operator_tables: seed 1, 8 rounds x 1 passes, "
                    "272 items a side, 0 mismatched")
    assert columns.split()[0] == "cell"
    # one row per cell of the pool, "kind:template@bucket:weights", whose
    # template may hold blanks
    assert [row.split()[-4] for row in rows] == ["8"] * 34 + ["272"]
    assert all("@" in row.rsplit(None, 4)[0] for row in rows[:-1])
