#!/usr/bin/env python3
"""Build and run the hetscale benchmark.

One command, from the repository root:

    python3 benchmark/run.py                 # build, 5 repetitions, traced pass
    python3 benchmark/run.py --quick         # 1 repetition, no trace
    python3 benchmark/run.py --self-test     # the checks must catch a perturbed value
    python3 benchmark/run.py compare A.json B.json

The full run builds benchmark/ in Release (skipped when --build-dir names an
existing build), runs every workload --reps times as a fresh process each,
rotating the workload order between repetitions, then runs each workload
once more with spans recorded (the traced pass, which also runs the layer
probes) between two untraced runs. It prints every end-to-end metric with
its unit, median, quartiles and sample count, every per-layer metric,
writes a results JSON, and exits non-zero if any check failed.

Single-workload form (one line of JSON on stdout, last):

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

With --trace 0 it repeats W as fresh processes until S seconds have passed
and reports the medians of the end-to-end metrics. With --trace 1 it does
the same, then runs W traced and once more untraced, then every other
workload traced, and reports every per-layer metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
DEFAULT_BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ["paper_tables", "large_p", "large_p_analyze", "real_data"]
# Children must not inherit knobs that would change jobs, sim-threads or
# seeds behind the driver's back; the driver sets them explicitly.
CLEARED_ENV = ("HETSCALE_JOBS", "HETSCALE_SIM_THREADS", "HETSCALE_SEED")
# Counts that must repeat exactly between two runs of the same code.
EXACT_COUNTS = ("des.events", "vmpi.messages", "scal.simulations",
                "scal.store_hits", "net.transfers")
# Traced wall time over the untraced runs around it; the full run reports
# it per workload as trace.overhead_ratio.<workload>.
TRACE_RATIO = "trace.overhead_ratio"
# One driver process never runs this long; a hung one is killed.
PROCESS_TIMEOUT_S = 170
# The single-workload form ends within this many seconds after its build:
# processes still running then are killed and count as failed.
SINGLE_LIMIT_S = 170
deadline = None  # time.monotonic() value; set by the single-workload form


def log(message):
    print(message, file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def require_sources():
    """Exit non-zero unless the library sources and goldens are present."""
    missing = [p for p in (ROOT / "src" / "CMakeLists.txt", ROOT / "tests" / "golden")
               if not p.exists()]
    if missing:
        log("error: missing %s; run from a full hetscale checkout"
            % ", ".join(str(p.relative_to(ROOT)) for p in missing))
        sys.exit(2)


def build(build_dir):
    """Configure (once) and build the driver; returns its path."""
    require_sources()
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir / "hetscale_benchmark"


def driver_path(args):
    if args.build_dir:
        binary = Path(args.build_dir) / "hetscale_benchmark"
        if not binary.is_file():
            log("error: no hetscale_benchmark in %s" % args.build_dir)
            sys.exit(2)
        require_sources()
        return binary
    return build(DEFAULT_BUILD_DIR)


def child_env():
    env = dict(os.environ)
    for name in CLEARED_ENV:
        env.pop(name, None)
    return env


def run_driver(binary, workload, seed, trace_path=None, self_test=False):
    """One fresh driver process; returns its parsed JSON record.

    A process that crashes, hangs or prints no result counts as one
    attempted and failed check."""
    cmd = [str(binary), workload, "--seed", str(seed)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    if self_test:
        cmd.append("--self-test")
    timeout = PROCESS_TIMEOUT_S
    if deadline is not None:
        timeout = max(1.0, min(timeout, deadline - time.monotonic()))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
        lines = proc.stdout.strip().splitlines()
        return json.loads(lines[-1])
    except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as error:
        return {"workload": workload, "attempted": 1, "failed": 1,
                "failures": ["driver produced no result: %s" % error], "layer": {}}


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(records, metrics):
    """Median, quartiles and n of each end-to-end metric over `records`."""
    good = [r for r in records if "wall_s" in r]
    out = {}
    for m in metrics:
        values = [r[m["name"]] for r in good]
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        out[m["name"]] = {"median": median, "q1": q1, "q3": q3, "n": len(values),
                          "unit": m["unit"], "values": values}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    out["fail_ratio"] = {"value": failed / max(attempted, 1), "unit": "ratio",
                         "attempted": attempted, "failed": failed,
                         "n": len(records)}
    return out


def repeat_until(binary, workload, seed, seconds):
    """Fresh processes of `workload` until `seconds` have passed (at least one)."""
    records = []
    deadline = time.monotonic() + seconds
    while not records or time.monotonic() < deadline:
        records.append(run_driver(binary, workload, seed))
    return records


def trace_dir():
    path = DEFAULT_BUILD_DIR / "trace"
    path.mkdir(parents=True, exist_ok=True)
    return path


def traced_run(binary, workload, seed):
    """One run with spans recorded and the layer probes on."""
    return run_driver(binary, workload, seed,
                      trace_path=trace_dir() / ("%s.trace.json" % workload))


def trace_overhead(binary, workload, seed, before):
    """A traced run of `workload` followed by an untraced one.

    The host's speed drifts over minutes, so the traced wall time is set
    against the untraced runs right around it (`before` and the one made
    here), not against a median taken earlier. Returns (traced record,
    untraced record after it, traced wall over the mean untraced wall)."""
    traced = traced_run(binary, workload, seed)
    after = run_driver(binary, workload, seed)
    walls = [r["wall_s"] for r in (before, after) if "wall_s" in r]
    ratio = None
    if walls and "wall_s" in traced:
        ratio = traced["wall_s"] / statistics.mean(walls)
    return traced, after, ratio


def failures_of(records):
    return [f for r in records for f in r.get("failures", [])]


# ---------------------------------------------------------------------------
# Single-workload form


def single(args):
    global deadline
    s = spec()
    binary = driver_path(args)
    deadline = time.monotonic() + SINGLE_LIMIT_S
    records = repeat_until(binary, args.workload, args.seed, args.seconds)
    all_records = list(records)
    if args.trace:
        traced, after, ratio = trace_overhead(binary, args.workload, args.seed,
                                              records[-1])
        all_records += [traced, after]
        layer = dict(traced.get("layer", {}))
        # Every per-layer metric is reported, so the other workloads' probes
        # run too.
        for w in WORKLOADS:
            if w != args.workload:
                record = traced_run(binary, w, args.seed)
                all_records.append(record)
                layer.update(record.get("layer", {}))
        if ratio is not None:
            layer[TRACE_RATIO] = ratio
        metrics = {}
        for m in s["per_layer"]:
            if m["name"] in layer:
                metrics[m["name"]] = {"value": layer[m["name"]], "unit": m["unit"]}
    else:
        summary = summarize(records, s["end_to_end"])
        metrics = {m["name"]: {"value": summary[m["name"]]["median"], "unit": m["unit"]}
                   for m in s["end_to_end"] if m["name"] in summary}
    attempted = sum(r["attempted"] for r in all_records)
    failed = sum(r["failed"] for r in all_records)
    for failure in failures_of(all_records):
        log("check failed: %s" % failure)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# Full run


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def fmt(value):
    return "%.6g" % value


def print_report(results, s):
    log("")
    print("%-16s %-12s %-6s %12s %12s %12s %3s" % (
        "workload", "metric", "unit", "median", "q1", "q3", "n"))
    for w, summary in results["workloads"].items():
        for name, m in summary.items():
            if name == "fail_ratio":
                print("%-16s %-12s %-6s %12s %12s %12s %3d   (%d of %d checks failed)" % (
                    w, name, m["unit"], fmt(m["value"]), "-", "-", m["n"],
                    m["failed"], m["attempted"]))
            else:
                print("%-16s %-12s %-6s %12s %12s %12s %3d" % (
                    w, name, m["unit"], fmt(m["median"]), fmt(m["q1"]),
                    fmt(m["q3"]), m["n"]))
    if not results["per_layer"]:
        return
    units = {m["name"]: m["unit"] for m in s["per_layer"]}
    print("\n%-36s %-8s %14s  %s" % ("per-layer metric (traced pass, n=1)",
                                     "unit", "value", "from workload"))
    for name, m in results["per_layer"].items():
        unit = units[name.rsplit(".", 1)[0] if name.startswith(TRACE_RATIO) else name]
        print("%-36s %-8s %14s  %s" % (name, unit, fmt(m["value"]), m["workload"]))
    print("\n%-16s %s" % ("workload", "self time by layer in the traced pass (s)"))
    for w, self_s in results["self_s"].items():
        print("%-16s %s" % (w, "  ".join("%s=%s" % (k, fmt(v))
                                         for k, v in sorted(self_s.items()))))


def full(args):
    s = spec()
    binary = driver_path(args)
    reps = 1 if (args.quick or args.self_test) else args.reps
    records = {w: [] for w in WORKLOADS}
    for rep in range(reps):
        order = WORKLOADS[rep % len(WORKLOADS):] + WORKLOADS[:rep % len(WORKLOADS)]
        for w in order:
            log("repetition %d/%d: %s" % (rep + 1, reps, w))
            records[w].append(run_driver(binary, w, args.seed, self_test=args.self_test))
    results = {"schema": "hetscale.benchmark.results/v1", "seed": args.seed,
               "reps": reps, "workloads": {}, "per_layer": {}, "self_s": {},
               "failures": failures_of([r for rs in records.values() for r in rs])}
    for w in WORKLOADS:
        results["workloads"][w] = summarize(records[w], s["end_to_end"])
    fingerprint = next((r["fingerprint"] for rs in records.values() for r in rs
                        if "fingerprint" in r), {})
    fingerprint["git_commit"] = git_commit()
    results["fingerprint"] = fingerprint

    if not (args.quick or args.self_test):
        for w in WORKLOADS:
            log("traced pass: %s" % w)
            before = run_driver(binary, w, args.seed)
            traced, after, ratio = trace_overhead(binary, w, args.seed, before)
            results["failures"] += failures_of([before, traced, after])
            for name, value in traced.get("layer", {}).items():
                results["per_layer"][name] = {"value": value, "workload": w}
            if ratio is not None:
                results["per_layer"][TRACE_RATIO + "." + w] = {"value": ratio,
                                                               "workload": w}
            results["self_s"][w] = traced.get("self_s", {})

    print_report(results, s)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    log("\nresults written to %s" % out)
    for failure in results["failures"]:
        log("check failed: %s" % failure)
    failed = bool(results["failures"])
    if args.self_test:
        caught = all(results["workloads"][w]["fail_ratio"]["value"] > 0
                     for w in WORKLOADS)
        log("self-test: %s" % ("every workload's checks caught the perturbed value"
                               if caught else "some checks did NOT fail"))
        return 0 if caught else 1
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# compare


def compare(path_a, path_b):
    """Apply BENCHMARK.json's bounds to B (candidate) against A (baseline)."""
    s = spec()
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    ok = True
    print("%-16s %-12s %12s %12s %8s %7s  %s" % (
        "workload", "metric", "A median", "B median", "change", "bound", "verdict"))
    for w in WORKLOADS:
        wa = a["workloads"].get(w, {})
        wb = b["workloads"].get(w, {})
        for m in s["end_to_end"]:
            name = m["name"]
            if name not in wa or name not in wb:
                print("%-16s %-12s missing" % (w, name))
                ok = False
                continue
            base, cand = wa[name]["median"], wb[name]["median"]
            change = (cand - base) / base
            worse = change if m["better"] == "lower" else -change
            passed = worse <= m["bound"]
            ok &= passed
            print("%-16s %-12s %12s %12s %+7.1f%% %6.0f%%  %s" % (
                w, name, fmt(base), fmt(cand), 100 * change, 100 * m["bound"],
                "ok" if passed else "REGRESSED"))
        fa = wa.get("fail_ratio", {}).get("value", 0.0)
        fb = wb.get("fail_ratio", {}).get("value", 0.0)
        passed = fb <= fa
        ok &= passed
        print("%-16s %-12s %12s %12s %8s %7s  %s" % (
            w, "fail_ratio", fmt(fa), fmt(fb), "", "any", "ok" if passed else "REGRESSED"))
    for name in EXACT_COUNTS:
        va = a["per_layer"].get(name, {}).get("value")
        vb = b["per_layer"].get(name, {}).get("value")
        if va is None or vb is None:
            continue
        passed = va == vb
        ok &= passed
        print("%-29s %12s %12s %8s %7s  %s" % (
            name, fmt(va), fmt(vb), "", "exact", "ok" if passed else "DIFFERS"))
    return 0 if ok else 1


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            log("usage: run.py compare A.json B.json")
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--quick", action="store_true",
                        help="1 repetition, no traced pass")
    parser.add_argument("--self-test", action="store_true",
                        help="perturb one expected value per workload; "
                             "succeeds only if every workload's checks fail")
    parser.add_argument("--build-dir",
                        help="use the hetscale_benchmark already built here")
    parser.add_argument("--out", default=str(DEFAULT_BUILD_DIR / "results.json"),
                        help="results JSON (full run)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1 or args.reps < 1:
        parser.error("--seed must be >= 0, --seconds and --reps >= 1")
    try:
        return single(args) if args.workload else full(args)
    except subprocess.CalledProcessError as error:
        log("error: build failed: %s" % error)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
