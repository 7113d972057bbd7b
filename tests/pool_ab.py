"""In-process A/B of two checkouts on one benchmark workload's pool.

    python3 tests/pool_ab.py PARENT_TREE CHANGE_TREE WORKLOAD [PASSES] [--by cell]

Loads the ``psi_umbral`` of each tree's ``src/`` under its own module name
into one process, builds WORKLOAD's pool and its eight rounds of seed 1
once for each, and runs the two sides item by item, PASSES times over the
rounds (3 by default), alternating which side goes first.  Both sides
share the machine's speed at each moment, so the ratio of their summed
times is steadier than two separate runs of ``perfbench/run.py``.  Every
result is checked against ``perfbench/reference.json`` and the oracles, as
the benchmark checks it.  Prints, per operation (or, with ``--by cell``,
per pool cell), the items run, the parent's summed seconds (the base), the
change's, and change/parent; exits 1 when any item mismatched on either
side.

The benchmark files are read from the ``perfbench/`` beside this script
and imported with bytecode writing off, so nothing is written there; the
job files of ``cli_mix`` go to a temporary directory, which is the working
directory while the items run.
"""

import gc
import importlib
import importlib.util
import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SEED = 1
ROUNDS = 8  # operator_tables deals eight rounds at most; the others match


def load_package(tree, name):
    """The psi_umbral package of ``tree``/src as module ``name``, and its cli."""
    src = os.path.join(os.path.abspath(tree), "src", "psi_umbral")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"), submodule_search_locations=[src])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package, importlib.import_module(name + ".cli")


def operation(req):
    """The operation an item runs: a series op, a table kind or a subcommand."""
    params = req.params
    return params.get("op") or params.get("kind") or params["argv"][0]


def run(parent_tree, change_tree, name, passes, by_cell=False):
    sys.dont_write_bytecode = True
    sys.path.insert(0, PERFBENCH)
    import worker
    import workloads
    worker.normalize_environment()
    with open(os.path.join(PERFBENCH, "reference.json")) as fh:
        reference = json.load(fh)[name]
    sides = []
    for label, tree in (("parent", parent_tree), ("change", change_tree)):
        package, cli = load_package(tree, "psi_umbral_%s" % label)
        workload = workloads.load_workload(name, package, cli)
        sides.append((workload, workload.rounds(SEED, ROUNDS)))
    cells = {id(req): cell for cell, items in sides[0][0].cells
             for req in items}
    totals, mismatched = {}, []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        for workload, _ in sides:
            workload.prepare(workdir)
        os.chdir(workdir)
        gc.collect()
        gc.freeze()
        try:
            step = 0
            for _ in range(passes):
                for batch_a, batch_b in zip(sides[0][1], sides[1][1]):
                    for pair in zip(batch_a, batch_b):
                        if pair[0].key != pair[1].key:
                            raise SystemExit("the trees deal different items")
                        times = [0.0, 0.0]
                        order = (0, 1) if step % 2 == 0 else (1, 0)
                        step += 1
                        for side in order:
                            workload, req = sides[side][0], pair[side]
                            start = time.perf_counter()
                            try:
                                raw = workload.execute(req)
                            except Exception as exc:  # a failed item
                                raw = exc
                            times[side] = time.perf_counter() - start
                            reason = ("raised %r" % raw if isinstance(raw, Exception)
                                      else workload.check(req, raw, reference))
                            if reason is not None:
                                mismatched.append((("parent", "change")[side],
                                                   req.key, reason))
                        group = (cells[id(pair[0])] if by_cell
                                 else operation(pair[0]))
                        entry = totals.setdefault(group, [0, 0.0, 0.0])
                        entry[0] += 1
                        entry[1] += times[0]
                        entry[2] += times[1]
        finally:
            gc.unfreeze()
            os.chdir(home)
    return totals, mismatched


def report(name, passes, totals, mismatched, by_cell=False):
    items = sum(entry[0] for entry in totals.values())
    print("%s: seed %d, %d rounds x %d passes, %d items a side, %d mismatched"
          % (name, SEED, ROUNDS, passes, items, len(mismatched)))
    width = max([12] + [len(group) for group in totals]) if by_cell else 12
    print("%-*s %6s %11s %11s %14s" % (
        width, "cell" if by_cell else "operation", "items", "parent_s",
        "change_s", "change/parent"))
    rows = sorted(totals.items())
    rows.append(("total", [items, sum(e[1] for e in totals.values()),
                           sum(e[2] for e in totals.values())]))
    for group, (count, base, new) in rows:
        print("%-*s %6d %11.4f %11.4f %14.4f" % (width, group, count, base,
                                                 new, new / base))
    for side, key, reason in mismatched[:10]:
        print("mismatch (%s) %s: %s" % (side, key, reason))


def main(argv):
    by_cell = argv[-2:] == ["--by", "cell"]
    if by_cell:
        argv = argv[:-2]
    if len(argv) not in (3, 4):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    passes = int(argv[3]) if len(argv) == 4 else 3
    totals, mismatched = run(argv[0], argv[1], argv[2], passes, by_cell)
    report(argv[2], passes, totals, mismatched, by_cell)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
