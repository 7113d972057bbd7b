"""Record the reference digest of every pool item into reference.json.

    python3 perfbench/record.py

Run from the root of a checkout whose outputs are known good.  Each item
of every workload is executed once, untimed; an item whose independent
oracle disagrees, or whose exit code differs from the one its pool entry
expects, stops the recording before the file is written.
"""

import json
import os
import sys

import worker
import workloads

REFERENCE = os.path.join(worker.HERE, "reference.json")


def record(name):
    pu, cli = worker.import_package()
    workload = workloads.load_workload(name, pu, cli)
    workload.prepare(worker.ROOT)
    digests, oracle_checked = {}, 0
    for req in workload.pool():
        if req.key in digests:
            continue
        raw = workload.execute(req)
        if name == "cli_mix" and raw[0] != req.params["exit"]:
            sys.exit("%s: exit code %r, expected %r\n%s" % (
                req.key, raw[0], req.params["exit"], raw[2]))
        doc = workload.canonical(req, raw)
        verdict = workload.oracle(req, doc)
        if verdict is False:
            sys.exit("%s: oracle disagrees" % req.key)
        oracle_checked += verdict is True
        digests[req.key] = workloads.canonical_digest(doc)
    print("%s: %d items, %d also checked by an oracle"
          % (name, len(digests), oracle_checked), file=sys.stderr)
    return digests


def main():
    worker.normalize_environment()
    reference = {name: record(name) for name in workloads.WORKLOADS}
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
