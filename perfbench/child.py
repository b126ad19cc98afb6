"""One fresh interpreter: import whitney, run one job list, report.

Usage: python3 child.py ROOT

The parent times this process from its start until it prints ``ready``,
which it does once ``whitney`` is imported and the CLI parser is built.
The parent then sends {"jobs": [...], "trace": bool, "spans": path|null}
on stdin.  Jobs run back to back through ``whitney.cli.main`` (or the
library, for the calls the CLI cannot make), each with stdout redirected
to an in-memory sink.  While a plain (untraced) job runs, ``hostref``
interrupts it every 20 ms to time one pass of its reference loop, and
the loop is also timed before the first job and after each job, so that
the parent can normalise each job's time by the host's speed during it.
Each output is checked after that.  The last line on stdout is one JSON
object with the results.
"""

import os
import sys

ROOT = os.path.abspath(sys.argv[1])

import whitney  # noqa: E402
import whitney.cli  # noqa: E402

whitney.cli._build_parser()
if not os.path.abspath(whitney.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit("whitney was imported from %s, not from this checkout" % whitney.__file__)
REAL_STDOUT = sys.stdout
print("ready", flush=True)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import hostref  # noqa: E402
from spans import Tracer  # noqa: E402
from whitney import enumeration, riordan  # noqa: E402


class Sink(io.TextIOBase):
    """Keeps what a job writes so it can be checked, and counts the bytes.

    Every rendered value is ASCII, so characters are bytes."""

    def __init__(self):
        self.parts = []
        self.nbytes = 0

    def writable(self):
        return True

    def write(self, s):
        self.parts.append(s)
        self.nbytes += len(s)
        return len(s)

    def text(self):
        return "".join(self.parts)


def _lib_call(lib, spec):
    if lib == "list":
        args = (spec["n"], spec["k"], spec["m"], spec["r"])
        return (list(enumeration.iter_whitney_pairs(*args)), list(enumeration.iter_augmented_partitions(*args)))
    array = riordan.whitney2_array(spec["m"], spec["r"], spec["order"])
    if lib == "a_sequence":
        return array.a_sequence()
    return array.inverse().rows()


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime + ch.ru_utime + ch.ru_stime


def run_job(job, ctx, sample):
    """Run one job; returns its record.

    The clock covers only the call.  With `sample`, reference passes are
    taken during the call and their time is taken off the job's."""
    sink, err = Sink(), io.StringIO()
    value, rc, error = None, None, None
    sampler = hostref.Sampler()
    sys.stdout, sys.stderr = sink, err
    cpu0, t0 = _cpu(), time.perf_counter()
    try:
        with sampler if sample else contextlib.nullcontext():
            if "argv" in job:
                rc = whitney.cli.main(job["argv"])
            else:
                value = _lib_call(job["lib"], job["spec"])
                rc = 0
    except Exception as exc:  # a job that raises is a failed job, not a failed run
        error = "%s: %s" % (type(exc).__name__, str(exc)[:200])
    finally:
        t1, cpu1 = time.perf_counter(), _cpu()
        sys.stdout, sys.stderr = REAL_STDOUT, sys.__stderr__
    record = {
        "latency_s": t1 - t0 - sampler.spent_s,
        "cpu_s": cpu1 - cpu0 - sampler.spent_cpu_s,
        "rc": rc,
        "bytes": sink.nbytes,
        "in_job_ref": [sampler.total_s, sampler.passes],
        "ref": hostref.reference(),
    }
    if error is None and rc != 0:
        error = "exit %s: %s" % (rc, err.getvalue().strip()[:200])
    if error is None:
        try:
            if "argv" in job:
                text = sink.text()
                verb = job["argv"][0]
                checks.CHECKS[verb](job["spec"], text, ctx)
                record["sha256"] = checks.stdout_digest(verb, text)
            else:
                checks.CHECKS[job["lib"]](job["spec"], value, ctx)
                record["sha256"] = checks.digest(checks.render_lib(job["lib"], value))
        except (checks.CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:
            error = "check: %s: %s" % (type(exc).__name__, str(exc)[:200])
    record["error"] = error
    return record


def main():
    request = json.loads(sys.stdin.read())
    tracer = None
    if request["trace"]:
        tracer = Tracer()
        tracer.install()
    ctx = {}
    records = []
    ref0 = hostref.reference()
    for i, job in enumerate(request["jobs"]):
        if tracer is not None:
            tracer.begin_job(i)
        records.append(run_job(job, ctx, sample=tracer is None))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    counts = {
        "identities.checks": ctx.get("checks", 0),
        "identities.points": ctx.get("points", 0),
        "enumeration.structures": sum(checks.row_sum(n, m, r) for (n, m, r, _) in ctx.get("walks", ()))
        + sum(checks.row_sum(*w) for w in ctx.get("list_walks", ())),
        "enumeration.listed": sum(ctx.get("listed", ())),
        "cli.bytes_out": sum(r["bytes"] for r, job in zip(records, request["jobs"]) if "argv" in job),
    }
    result = {"jobs": records, "ref0": ref0, "peak_rss_mb": peak_kb / 1024.0, "counts": counts}
    if tracer is not None:
        result["layers"] = tracer.summary()
        if request.get("spans"):
            tracer.dump(request["spans"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
