"""psi-umbral benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload series_kernels --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports psi_umbral from its src/.
With --trace 0 it times set-up in several fresh processes, then runs the
workload for --seconds in one more and reports the end-to-end metrics.  With
--trace 1 it runs a fixed number of rounds untraced and then traced, and
reports the per-layer metrics.  Every output is checked; the last line of
stdout is the JSON result, the report before it goes to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calibrate
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 9
DEADLINE_S = 170


def child_env():
    """The interpreter settings of the workers: none taken from the caller,
    and the same string hashes (so dict and set layouts) every run."""
    env = dict(os.environ)
    for name in ("PYTHONPATH", "PYTHONOPTIMIZE", "PYTHONSTARTUP", "PYTHONWARNINGS"):
        env.pop(name, None)
    env["PYTHONHASHSEED"] = "0"
    return env


class WorkerError(Exception):
    pass


def run_worker(args, deadline, setup_only=False):
    """Start worker.py; return (set-up seconds scaled to reference speed,
    raw set-up seconds, parsed last line or None)."""
    kernel_before = calibrate.kernel_time()
    argv = [sys.executable, WORKER, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        kernels = [kernel_before, calibrate.kernel_time()]
        scaled_s = calibrate.scale([setup_s], kernels)[0]
        rest = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker passed the %d s deadline" % DEADLINE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not first.startswith("ready"):
        raise WorkerError("worker exited with code %s" % proc.returncode)
    lines = rest.strip().splitlines()
    return scaled_s, setup_s, (json.loads(lines[-1]) if lines else None)


def report_timed(args, result, setups, raw_setups):
    rate = result["failed"] / result["attempted"]
    lines = [
        "workload %s, seed %d: closed loop, 1 client, %d rounds, %d requests, "
        "%d failed" % (args.workload, args.seed, result["rounds"],
                       result["attempted"], result["failed"]),
        "times are scaled to reference speed (calibrate.py); raw in brackets",
        "  setup_s      %10.4f s    median of %d fresh processes [%.4f]" % (
            statistics.median(setups), len(setups), statistics.median(raw_setups)),
        "  wall_s       %10.4f s    median round [%.4f]" % (
            result["wall_s"], statistics.median(result["raw_round_walls_s"])),
        "  req_p50_ms   %10.3f ms   n=%d [%.3f]" % (
            result["req_p50_ms"], result["attempted"], result["raw_p50_ms"]),
        "  req_p90_ms   %10.3f ms   n=%d, %d beyond [%.3f]" % (
            result["req_p90_ms"], result["attempted"], result["beyond_p90"],
            result["raw_p90_ms"]),
        "  peak_rss_mb  %10.2f MB" % result["peak_rss_mb"],
        "  error_rate   %10.4f ratio (failed / attempted)" % rate,
        "  calibration kernel %.3f ms median over %d samples, reference %.3f ms" % (
            statistics.median(result["kernel_ms"]), len(result["kernel_ms"]),
            calibrate.REFERENCE_S * 1e3),
    ]
    lines += ["  FAILED %s: %s" % f for f in result["failures"]]
    print("\n".join(lines), file=sys.stderr)


def report_traced(args, result):
    wall = result["traced_wall_s"]
    lines = ["workload %s, seed %d, traced: %d requests, %d spans, traced wall "
             "%.3f s, untraced %.3f s, trace.overhead_ratio %.3f" % (
                 args.workload, args.seed, result["attempted"], result["spans"],
                 wall, result["untraced_wall_s"],
                 result["metrics"]["trace.overhead_ratio"]),
             "  %-13s %10s %10s %7s" % ("layer", "calls", "self_s", "share")]
    for layer, (calls, own) in sorted(result["layers"].items(),
                                      key=lambda kv: -kv[1][1]):
        lines.append("  %-13s %10d %10.4f %6.1f%%" % (layer, calls, own,
                                                      100 * own / wall))
    for metric, points in result["cap_medians"].items():
        if points:
            lines.append("  %s = %.3f from per-cap medians %s" % (
                metric, result["metrics"][metric],
                ", ".join("cap %d: %.4f s" % tuple(p) for p in points)))
    lines += ["  FAILED %s: %s" % f for f in result["failures"]]
    print("\n".join(lines), file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if sys.flags.optimize:
        print("perfbench: refusing to run under -O: the library's self-checks "
              "are asserts and would not be timed", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            result = run_worker(args, deadline)[2]
            report_traced(args, result)
            measured = result["metrics"]
        else:
            probes = [run_worker(args, deadline, setup_only=True)
                      for _ in range(SETUP_PROBES - 1)]
            probes.append(run_worker(args, deadline))
            result = probes[-1][2]
            setups = [p[0] for p in probes]
            report_timed(args, result, setups, [p[1] for p in probes])
            measured = dict(result, setup_s=statistics.median(setups))
    except WorkerError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    out = {"correct": result["failed"] == 0,
           "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                       for m in declared}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
