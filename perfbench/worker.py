"""One benchmark process: set up a workload, then run it timed or traced.

Started by run.py, never imported by it.  Prints ``ready`` on stdout once
set-up is done (run.py times set-up up to that line), then, unless
``--setup-only``, runs the workload and prints one JSON line with the raw
measurements, from which run.py makes the report and the result.
"""

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

import calibrate
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MAX_ROUNDS = 64
MIN_ROUNDS = 4
MIN_REQUESTS = 100
TRACE_ROUNDS = 1
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

# Names whose per-call durations give the cap-scaling fits.
CAP_FITS = {
    "algebra.reversion.cap_exponent": ("algebra.TruncatedSeries.reversion",),
    "umbral.rodrigues.cap_exponent": ("umbral.rodrigues_f1", "umbral.rodrigues_f2",
                                      "umbral.rodrigues_f3"),
    "operators.shift_invariance.cap_exponent": ("operators.is_shift_invariant",),
}


def normalize_environment():
    """Clear what would change the workload: the CLI's cap default, and the
    terminal width that argparse wraps its usage errors to."""
    os.environ.pop("PSI_UMBRAL_CAP", None)
    os.environ["COLUMNS"] = "80"
    os.environ["LINES"] = "24"


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def import_package():
    """psi_umbral from this checkout's src/, and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import psi_umbral
        import psi_umbral.cli
    except ImportError as exc:
        fail("cannot import psi_umbral from %s: %s" % (src, exc))
    if not os.path.abspath(psi_umbral.__file__).startswith(src + os.sep):
        fail("psi_umbral was imported from %s, not from %s"
             % (psi_umbral.__file__, src))
    return psi_umbral, psi_umbral.cli


def setup(name, seed):
    pu, cli = import_package()
    workload = workloads.load_workload(name, pu, cli)
    workload.prepare(ROOT)
    rounds = workload.rounds(seed, MAX_ROUNDS)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)[name]
    return workload, rounds, reference


def run_round(workload, batch, reference, tracer=None, first_rid=0,
              calibrated=False):
    """Closed loop over one round; checks run after the round's timer stops.

    Returns the round's wall time, the raw latencies, the failures and the
    kernel times of calibrate.py.  When ``calibrated``, the kernel runs
    before the first request and after each one, untimed, and the wall time
    is the sum of the latencies; otherwise no kernel runs.
    """
    latencies, raws, kernels = [], [], []
    if calibrated:
        kernels.append(calibrate.kernel_time())
    round_start = time.perf_counter()
    for i, req in enumerate(batch):
        start = time.perf_counter()
        try:
            if tracer is None:
                raw = workload.execute(req)
            else:
                raw = tracer.run_request(first_rid + i, workload.execute, req)
        except Exception as exc:  # an unexpected exception fails the request
            raw = exc
        latencies.append(time.perf_counter() - start)
        raws.append(raw)
        if calibrated:
            kernels.append(calibrate.kernel_time())
    wall = sum(latencies) if calibrated else time.perf_counter() - round_start
    failures = []
    for req, raw in zip(batch, raws):
        if isinstance(raw, Exception):
            reason = "raised %s: %s" % (type(raw).__name__, raw)
        else:
            reason = workload.check(req, raw, reference)
        if reason is not None:
            failures.append((req.key, reason))
    return wall, latencies, failures, kernels


def percentile(values, pct):
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    low = int(math.floor(pos))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def timed_run(workload, rounds, reference, seconds):
    """Rounds until ``seconds`` have passed, with at least MIN_ROUNDS rounds
    and MIN_REQUESTS requests.  Timed metrics use latencies scaled to
    reference speed (see calibrate.py); the raw figures come along for the
    report."""
    walls, latencies, scaled, failures, kernels = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    for batch in rounds:
        if (time.perf_counter() >= deadline and len(walls) >= MIN_ROUNDS
                and len(latencies) >= MIN_REQUESTS):
            break
        wall, lat, fails, ks = run_round(workload, batch, reference,
                                         calibrated=True)
        lat_scaled = calibrate.scale(lat, ks)
        walls.append((wall, sum(lat_scaled)))
        latencies.extend(lat)
        scaled.extend(lat_scaled)
        failures.extend(fails)
        kernels.extend(ks)
    p90 = percentile(scaled, 90)
    return {"rounds": len(walls),
            "attempted": len(latencies),
            "failed": len(failures),
            "failures": failures[:5],
            "wall_s": statistics.median(w for _, w in walls),
            "req_p50_ms": percentile(scaled, 50) * 1e3,
            "req_p90_ms": p90 * 1e3,
            "beyond_p90": sum(t > p90 for t in scaled),
            "raw_round_walls_s": [w for w, _ in walls],
            "raw_p50_ms": percentile(latencies, 50) * 1e3,
            "raw_p90_ms": percentile(latencies, 90) * 1e3,
            "kernel_ms": [t * 1e3 for t in kernels],
            "peak_rss_mb": peak_rss_mb()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fit_exponent(points):
    """Least-squares slope of log(time) against log(cap) over per-cap medians."""
    if len(points) < 2:
        return 0.0
    xs = [math.log(c) for c, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def traced_run(workload, rounds, reference, seed):
    """The same rounds untraced, then traced; per-layer numbers from the spans."""
    batches = rounds[:TRACE_ROUNDS]
    untraced, traced, failures = 0.0, 0.0, []
    for batch in batches:
        wall, _, fails, _ = run_round(workload, batch, reference)
        untraced += wall
        failures.extend(fails)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rid = 0
        for batch in batches:
            wall, _, fails, _ = run_round(workload, batch, reference, tracer, rid)
            traced += wall
            failures.extend(fails)
            rid += len(batch)
    finally:
        tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, "trace-%s-seed%d" % (workload.name, seed)))
    timed = sorted({n for names in CAP_FITS.values() for n in names})
    by_name, durations = tracing.aggregate(tracer, timed)
    medians = cap_medians(durations, workload.cap_group)
    metrics, layers = layer_metrics(tracer, by_name, medians)
    metrics["trace.overhead_ratio"] = traced / untraced
    return {"attempted": 2 * rid, "failed": len(failures), "failures": failures[:5],
            "metrics": metrics, "layers": layers, "traced_wall_s": traced,
            "untraced_wall_s": untraced, "spans": len(tracer.records) // tracing.FIELDS,
            "cap_medians": medians}


def cap_medians(durations, group):
    """{fit name: [(cap, median seconds), ...]} from the timed span names,
    with calls pooled per ``group(cap)``."""
    out = {}
    for metric, names in CAP_FITS.items():
        per_cap = {}
        for name in names:
            for cap, ns in durations[name]:
                per_cap.setdefault(group(cap), []).append(ns / 1e9)
        out[metric] = sorted((cap, statistics.median(v)) for cap, v in per_cap.items())
    return out


def layer_metrics(tracer, by_name, medians):
    def calls(name):
        return by_name.get(name, (0, 0, 0))[0]

    def self_s(*names):
        return sum(by_name.get(n, (0, 0, 0))[2] for n in names) / 1e9

    layers = {}
    for name, (count, _, own) in by_name.items():
        entry = layers.setdefault(tracing.layer_of(name), [0, 0])
        entry[0] += count
        entry[1] += own / 1e9

    def layer_self(layer):
        return layers.get(layer, (0, 0.0))[1]

    series_mul = "algebra.TruncatedSeries.__mul__"
    poly_mul = "algebra.Polynomial.__mul__"
    reversion = "algebra.TruncatedSeries.reversion"
    compose = "operators.GradedOperator.compose"
    m = {
        "algebra.series_mul.calls": calls(series_mul),
        "algebra.series_mul.self_s": self_s(series_mul),
        "algebra.series_mul.coeff_products": tracer.series_products,
        "algebra.series_compose.calls": calls("algebra.TruncatedSeries.compose"),
        "algebra.series_compose.self_s": self_s("algebra.TruncatedSeries.compose"),
        "algebra.series_inverse.self_s": self_s("algebra.TruncatedSeries.inverse"),
        "algebra.series_power.calls": calls("algebra.TruncatedSeries.power"),
        "algebra.series_power.self_s": self_s("algebra.TruncatedSeries.power"),
        "algebra.reversion.self_s": self_s(reversion),
        "algebra.reversion.series_mul_per_call":
            tracer.series_mul_in_reversion / calls(reversion) if calls(reversion) else 0.0,
        "algebra.poly_mul.calls": calls(poly_mul),
        "algebra.poly_mul.self_s": self_s(poly_mul),
        "algebra.poly_mul.coeff_products": tracer.poly_products,
        "algebra.self_s": layer_self("algebra"),
        "psi.self_s": layer_self("psi"),
        "psi.n_psi.calls": tracer.counts.get("psi.PsiSequence.n_psi", 0),
        "psi.falling.calls": calls("psi.PsiSequence.falling"),
        "psi.binomial.calls": calls("psi.PsiSequence.binomial"),
        "psi.memo_hit_ratio":
            tracer.memo_hits / max(1, sum(tracer.counts.values())),
        "operators.table_build.calls": calls("operators.GradedOperator.from_monomial_rule"),
        "operators.table_build.self_s": self_s("operators.GradedOperator.from_monomial_rule"),
        "operators.compose.calls": calls(compose),
        "operators.compose.self_s": self_s(compose),
        "operators.compose.rows_kept_ratio":
            tracer.compose_rows_out / tracer.compose_rows_in if tracer.compose_rows_in else 0.0,
        "operators.apply.calls": calls("operators.GradedOperator.apply"),
        "operators.apply_psi_series.self_s": self_s("operators.apply_psi_series"),
        "operators.shift_invariance.self_s": self_s("operators.is_shift_invariant"),
        "umbral.solve.self_s": self_s("umbral.basic_sequence_solve"),
        "umbral.from_operator.self_s": self_s("umbral.DeltaOperator.from_operator"),
        "umbral.translate.self_s": self_s("umbral.translate"),
        "expansion.expand.self_s": self_s("expansion.expand_in_monomials",
                                          "expansion.expand_in_basic"),
        "expansion.reconstruct.self_s": self_s("expansion.reconstruct_from_monomial_form"),
        "expansion.conjugation.self_s": self_s("expansion.conjugate_indicator_check"),
        "expansion.detect.self_s": self_s("expansion.detect_psi_series"),
        "exprparse.parse.calls": calls("exprparse.parse_operator"),
        "exprparse.parse.self_s": self_s("exprparse.parse_operator"),
        "jobs.parse.self_s": layer_self("jobs"),
        "cli.main.self_s": layer_self("cli") - self_s("cli.render"),
        "cli.render.self_s": self_s("cli.render"),
        "star_product.self_s": layer_self("star_product"),
        "special.self_s": layer_self("special"),
        "integration.self_s": layer_self("integration"),
    }
    for f in (1, 2, 3, 4):
        m["umbral.rodrigues_f%d.self_s" % f] = self_s("umbral.rodrigues_f%d" % f)
    for suite in workloads.SUITES:
        m["verify.%s.wall_s" % suite] = by_name.get("verify.suite." + suite,
                                                    (0, 0, 0))[1] / 1e9
    for metric, points in medians.items():
        m[metric] = fit_exponent(points)
    return m, layers


def main():
    if sys.flags.optimize:
        fail("refusing to run under -O: the library's self-checks are asserts")
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    normalize_environment()
    workload, rounds, reference = setup(args.workload, args.seed)
    # The pool and references live for the whole run; keep the collector
    # from rescanning them while the program is being timed.
    gc.freeze()
    print("ready", flush=True)
    if args.setup_only:
        return
    if args.trace:
        result = traced_run(workload, rounds, reference, args.seed)
    else:
        result = timed_run(workload, rounds, reference, args.seconds)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
