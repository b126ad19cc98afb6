"""The whitney benchmark.

One run:   python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
Every workload, several seeds, interleaved, with a result file:
           python3 perfbench/run.py --workload all --seed 1 --runs 3 --out perfbench/out/a.json
Compare two result files:
           python3 perfbench/run.py --compare A.json B.json
Re-time the kernel rows of the ROADMAP baseline table:
           python3 perfbench/run.py --kernels

A run starts fresh interpreters one after another (never two at once),
each of which imports whitney from ./src and runs one job list back to
back, until --seconds have passed.  The row, Bernoulli/Euler and
enumeration caches are process-wide and every CLI user starts cold, so a
job list never shares an interpreter with another.  With --trace 1 each
job list runs twice, plain and traced, and the run reports per-layer
metrics.  End-to-end timings are normalised by the reference loop of
hostref.py, timed during and beside every job.
The last line of stdout is the result as one JSON object.
"""

import argparse
import compileall
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import hostref  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170  # a run must end within 180 s whatever its children do
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


# -- environment ----------------------------------------------------------


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return "unknown"


def _meta():
    return {
        "python": platform.python_version(),
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def prepare():
    package = os.path.join(ROOT, "src", "whitney")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise BenchError("no whitney package at %s" % package)
    # byte-compile once so the first child's set-up is not a compile
    compileall.compile_dir(package, quiet=1)
    os.makedirs(OUT, exist_ok=True)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("WHITNEY_ORACLE_MAX_LABELS", None)
    return env


# -- one job list in one fresh interpreter ---------------------------------


def run_child(jobs, trace, spans_path, timeout):
    """Returns (setup seconds, child result or None, reason it failed or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), ROOT],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
        cwd=ROOT,
        bufsize=0,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], timeout)
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - t0
        if line.strip() != b"ready":
            proc.kill()
            _, err = proc.communicate()
            return setup, None, "child did not start: " + err.decode(errors="replace").strip()[-300:]
        request = json.dumps({"jobs": jobs, "trace": trace, "spans": spans_path})
        out, err = proc.communicate(request.encode(), timeout=max(1.0, timeout - setup))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return setup, None, "child timed out"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        return setup, None, "child exited %d: %s" % (proc.returncode, err.decode(errors="replace").strip()[-300:])
    return setup, json.loads(out.decode().splitlines()[-1]), None


# -- one run ----------------------------------------------------------------


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _tail(latencies):
    """The highest percentile with TAIL_BEYOND jobs beyond it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(workload, seed, seconds, trace):
    prepare()
    start = time.perf_counter()
    plain, traced, setups = {}, {}, []
    attempted = failed = 0
    failures, digests = [], []
    lists = [workloads.jobs_for(workload, seed, index) for index in range(workloads.LISTS)]
    child = 0
    while True:
        jobs = lists[child % workloads.LISTS]
        for mode in (False, True) if trace else (False,):
            spans_path = None
            if mode and child == 0:
                spans_path = os.path.join(OUT, "spans-%s-seed%d.json.gz" % (workload, seed))
            timeout = max(1.0, start + RUN_LIMIT_S - time.perf_counter())
            setup, result, reason = run_child(jobs, mode, spans_path, timeout)
            attempted += len(jobs)
            if result is None:
                failed += len(jobs)
                failures.append(reason)
                continue
            errors = ["%s: %s" % (_label(job), r["error"]) for job, r in zip(jobs, result["jobs"]) if r["error"]]
            failed += len(errors)
            failures += errors
            if mode:
                traced[child] = result
            else:
                plain[child] = result
                setups.append(setup)
                digests += [[child, i, _label(job), r.get("sha256")] for i, (job, r) in enumerate(zip(jobs, result["jobs"]))]
        child += 1
        elapsed = time.perf_counter() - start
        per_child = elapsed / child
        if child >= (2 if trace else workloads.LISTS) and elapsed + per_child > seconds:
            break
        if elapsed + per_child > RUN_LIMIT_S:
            break
    if not plain or (trace and not set(plain) & set(traced)):
        raise BenchError("no job list completed: %s" % "; ".join(failures[:3]))

    # Repeats of one list are folded into their median first, so that each
    # list counts once however many times the run sent it.
    by_list = {}
    for c, res in plain.items():
        by_list.setdefault(c % workloads.LISTS, []).append(res)
    per_list = [
        {
            "wall": statistics.median(_wall(res) for res in group),
            "cpu": statistics.median(sum(_normalised(res, "cpu_s")) for res in group),
            "rss": statistics.median(res["peak_rss_mb"] for res in group),
            "latencies": [statistics.median(job) for job in zip(*(_normalised(res, "latency_s") for res in group))],
        }
        for group in by_list.values()
    ]
    pooled = [lat for one in per_list for lat in one["latencies"]]
    tail, tail_pct = _tail(pooled)
    # Set-up happens in the parent, away from the passes; the run's median
    # pass time tracks the host over the run without one pass's noise.
    run_pass_s = statistics.median(p for res in plain.values() for p in _pass_times(res))
    if trace:
        values = _layer_values(plain, traced)
        names = [m[0] for m in metrics.PER_LAYER]
    else:
        values = {
            "setup_s": statistics.median(setups) * hostref.NOMINAL_S / run_pass_s,
            "wall_norm_s": statistics.mean(one["wall"] for one in per_list),
            "cpu_norm_s": statistics.mean(one["cpu"] for one in per_list),
            "job_p50_norm_ms": 1000 * statistics.median(pooled),
            "job_tail_norm_ms": 1000 * tail,
            "peak_rss_mb": statistics.mean(one["rss"] for one in per_list),
        }
        names = [m[0] for m in metrics.END_TO_END]
    diag = dict(
        _meta(),
        workload=workload,
        seed=seed,
        trace=trace,
        job_lists=len(plain),
        distinct_lists=len(per_list),
        jobs_pooled=len(pooled),
        wall_norm_s_samples=[_wall(res) for res in plain.values()],
        raw_wall_s_samples=[_raw_wall(res) for res in plain.values()],
        raw_setup_s_samples=setups,
        reference_pass_s_median=run_pass_s,
        tail_percentile=round(tail_pct, 2),
        ops_failed_ratio=failed / attempted,
        failures=failures[:20],
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": metrics.UNITS[name]} for name in names},
        "diag": diag,
        "digests": digests,
        "latencies": [[r["latency_s"] for r in res["jobs"]] for res in plain.values()],
        "normalised_latencies": [_normalised(res, "latency_s") for res in plain.values()],
    }


def _refs(result):
    """A child's reference timings beside its jobs: before the first job and after each job."""
    return [result["ref0"]] + [r["ref"] for r in result["jobs"]]


def _pass_times(result):
    """Each job's mean reference pass time, over the passes during and on either side of it."""
    refs = _refs(result)
    return [hostref.pass_time(refs[i], r["in_job_ref"], refs[i + 1]) for i, r in enumerate(result["jobs"])]


def _normalised(result, key):
    """Each job's `key` time, normalised by the reference passes during and on either side of it."""
    return [r[key] * hostref.NOMINAL_S / p for r, p in zip(result["jobs"], _pass_times(result))]


def _wall(result):
    return sum(_normalised(result, "latency_s"))


def _raw_wall(result):
    return sum(r["latency_s"] for r in result["jobs"])


def _layer_values(plain, traced):
    """Per-layer metrics: counts from the first traced list, times as medians."""
    per_child = [dict(traced[c]["layers"], **traced[c]["counts"]) for c in sorted(traced)]
    values = dict(per_child[0])
    for name in values:
        if metrics.measured_per_child(name):
            values[name] = statistics.median(c[name] for c in per_child)
    both = sorted(set(plain) & set(traced))
    values["trace.overhead_ratio"] = (
        statistics.median(_wall(traced[c]) for c in both) / statistics.median(_wall(plain[c]) for c in both))
    return values


def _label(job):
    return " ".join(job["argv"]) if "argv" in job else "%s %s" % (job["lib"], json.dumps(job["spec"], sort_keys=True))


# -- sets of runs and comparison ---------------------------------------------


def run_set(names, seed, runs, seconds, trace, out_path):
    results = []
    for i in range(runs):
        order = names[i % len(names):] + names[: i % len(names)]
        for workload in order:
            res = run_workload(workload, seed + i, seconds, trace)
            res["workload"], res["seed"] = workload, seed + i
            results.append(res)
            print("%-16s seed %-4d %s" % (workload, seed + i, _brief(res)), file=sys.stderr)
    data = {"meta": _meta(), "seconds": seconds, "trace": trace, "runs": results}
    if out_path:
        os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
        with open(out_path, "w") as fh:
            json.dump(data, fh)
    summarize(data)
    return data


def _brief(res):
    return " ".join("%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items() if not k.endswith(".errors"))


def _by_workload(data):
    out = {}
    for res in data["runs"]:
        out.setdefault(res["workload"], []).append(res)
    return out


def summarize(data):
    for workload, runs in _by_workload(data).items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print("\n%s: %d runs, ops_failed_ratio %d/%d = %.4g" % (workload, len(runs), failed, attempted, failed / attempted))
        print("  %-32s %-6s %12s %12s %12s %8s" % ("metric", "unit", "median", "q1", "q3", "spread"))
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = _quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            print("  %-32s %-6s %12.5g %12.5g %12.5g %7.1f%%" % (name, metrics.UNITS[name], med, q1, q3, 100 * spread))


def compare(path_a, path_b):
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    print("A: %s (commit %s)\nB: %s (commit %s)" % (path_a, a["meta"]["commit"], path_b, b["meta"]["commit"]))
    wa, wb = _by_workload(a), _by_workload(b)
    for workload in [w for w in wa if w in wb]:
        print("\n%s: %d runs vs %d runs" % (workload, len(wa[workload]), len(wb[workload])))
        print("  %-28s %-5s %10s %21s %10s %21s %8s  %s" % ("metric", "unit", "A median", "A q1..q3", "B median", "B q1..q3", "delta", "verdict"))
        for name in wa[workload][0]["metrics"]:
            if name not in wb[workload][0]["metrics"]:
                continue
            va = [r["metrics"][name]["value"] for r in wa[workload]]
            vb = [r["metrics"][name]["value"] for r in wb[workload]]
            a1, am, a3 = _quartiles(va)
            b1, bm, b3 = _quartiles(vb)
            delta = (bm - am) / am if am else 0.0
            print("  %-28s %-5s %10.4g %10.4g..%-10.4g %10.4g %10.4g..%-10.4g %+7.1f%%  %s" % (
                name, metrics.UNITS[name], am, a1, a3, bm, b1, b3, 100 * delta,
                _verdict(name, va, vb, (a3 - a1) / am if am else 0, (b3 - b1) / bm if bm else 0, delta)))
        same, differ = _digest_agreement(wa[workload], wb[workload])
        print("  outputs: %d identical, %d differ (same seed, list and job)" % (same, differ))


def _verdict(name, va, vb, spread_a, spread_b, delta):
    bound = metrics.BOUNDS.get(name)
    if bound is None:
        return ""
    worse = delta if metrics.BETTER[name] == "lower" else -delta
    if max(spread_a, spread_b) > bound:
        better_all = max(vb) < min(va) if metrics.BETTER[name] == "lower" else min(vb) > max(va)
        return "better in every run" if better_all else "unresolved (spread > bound %.0f%%)" % (100 * bound)
    if worse > bound:
        return "WORSE than bound %.0f%%" % (100 * bound)
    return "within bound %.0f%%" % (100 * bound)


def _digest_agreement(runs_a, runs_b):
    def table(runs):
        return {(r["seed"], c, i): (label, sha) for r in runs for c, i, label, sha in r["digests"]}

    ta, tb = table(runs_a), table(runs_b)
    keys = [k for k in ta if k in tb and ta[k][0] == tb[k][0]]
    same = sum(1 for k in keys if ta[k][1] == tb[k][1])
    return same, len(keys) - same


# -- entry point ---------------------------------------------------------------


def _default_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload in set mode")
    parser.add_argument("--out", help="result file for set mode")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--kernels", action="store_true")
    args = parser.parse_args(argv)
    try:
        seconds = args.seconds if args.seconds is not None else _default_seconds()
        if args.compare:
            compare(*args.compare)
        elif args.kernels:
            prepare()
            return subprocess.call([sys.executable, os.path.join(HERE, "kernels.py")], env=_child_env(), cwd=ROOT)
        elif args.workload is None:
            parser.error("give --workload, --compare or --kernels")
        elif args.workload == "all" or args.runs > 1 or args.out:
            names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
            run_set(names, args.seed, args.runs, seconds, bool(args.trace), args.out)
        else:
            res = run_workload(args.workload, args.seed, seconds, bool(args.trace))
            path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
            with open(path, "w") as fh:
                json.dump(res, fh)
            print(json.dumps({"diag": res["diag"]}))
            print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    except (BenchError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
