"""Self-test: the checks catch corrupted outputs and wrong exit codes.

    python3 perfbench/selftest.py

Runs a few requests of each workload through the benchmark's own round
loop three ways: as they are (no failures), with each output corrupted
after the program returns it (every request fails, by digest and, where an
oracle applies, by the oracle alone), and for cli_mix with the exit code
changed (every request fails).  Exits 0 when all of that holds.
"""

import sys

import worker
import workloads

# Pool keys per workload; the first of each list has an independent oracle.
SAMPLES = {
    "series_kernels": ["series:reversion:cap=12:catalan:squares",
                       "series:f4:cap=12:exp:classical",
                       "series:inverse:cap=12:abel:1:squares"],
    "operator_tables": None,  # chosen below: the first oracle item and one more
    "cli_mix": ['cli:["table", "--psi", "q:1/2", "--cap", "6", "--format", "json"]',
                'cli:["basic", "--op", "Dpsi +", "--cap", "8"]',
                'cli:["detect", "--op", "Nhat", "--cap", "8"]'],
}


def corrupt_text(text):
    """Change one digit, so the output stays well-formed but wrong."""
    for i, ch in enumerate(text):
        if ch.isdigit():
            return text[:i] + str((int(ch) + 1) % 10) + text[i + 1:]
    return text + " "


def corrupt_doc(doc):
    """Corrupt the last non-empty text or list field (the result proper)."""
    if isinstance(doc, str):
        return corrupt_text(doc)
    if isinstance(doc, list) and doc:
        return [corrupt_doc(doc[0])] + doc[1:]
    if isinstance(doc, dict):
        for key in sorted(doc, reverse=True):
            if isinstance(doc[key], (str, list, dict)) and doc[key]:
                return dict(doc, **{key: corrupt_doc(doc[key])})
    return doc


def error_rate(workload, batch, reference):
    _, latencies, failures, _ = worker.run_round(workload, batch, reference)
    return len(failures) / len(latencies)


def main():
    worker.normalize_environment()
    problems = []
    for name in workloads.WORKLOADS:
        workload, _, reference = worker.setup(name, 1)
        pool = {req.key: req for req in workload.pool()}
        keys = SAMPLES[name]
        if keys is None:
            keys = [next(r.key for r in pool.values() if r.params["kind"] == "basic"
                         and r.params["expr"] == "Delta"
                         and r.params["weights"] == "classical"),
                    next(r.key for r in pool.values() if r.params["kind"] == "detect")]
        batch = [pool[k] for k in keys]

        clean = error_rate(workload, batch, reference)
        canonical = workload.canonical
        workload.canonical = lambda req, raw: corrupt_doc(canonical(req, raw))
        corrupted = error_rate(workload, batch, reference)
        workload.canonical = canonical
        first = batch[0]
        doc = canonical(first, workload.execute(first))
        oracle = (workload.oracle(first, doc), workload.oracle(first, corrupt_doc(doc)))
        print("%-16s error_rate clean %.2f, with corrupted outputs %.2f; oracle "
              "on %s: %s as returned, %s corrupted"
              % (name, clean, corrupted, first.key, oracle[0], oracle[1]))
        if clean != 0 or corrupted != 1 or oracle != (True, False):
            problems.append(name)
        if name == "cli_mix":
            execute = workload.execute

            def wrong_exit(req):
                code, out, err = execute(req)
                return code + 1, out, err

            workload.execute = wrong_exit
            wrong = error_rate(workload, batch, reference)
            workload.execute = execute
            print("%-16s error_rate with a wrong exit code %.2f" % (name, wrong))
            if wrong != 1:
                problems.append(name + " exit codes")
    if problems:
        print("self-test FAILED: %s" % ", ".join(problems))
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
