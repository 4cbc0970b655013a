"""Benchmark of the grtor command line, run in-process through
`grtor.cli.main` over one workload.

    python3 benchmark/run.py --workload theorem --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  One run: set up (import `grtor` afresh, write the inputs), one
warm-up sweep, then set-ups and a timed sweep in turn until `--seconds`
have passed, each job between two slices of a fixed pure-Python
reference loop; then the oracles.  Every sweep's outputs are checked.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics from spans with `--trace 1`.  A
result file goes to `.bench_out/`, and with `--trace 1` also the spans
of the last sweep.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from fractions import Fraction
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3  # set-ups before each sweep; the last one's modules and inputs are used
REF_ROUNDS = 500_000  # a sweep's share: about 0.85 s
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORK_DIR = os.path.join(ROOT, ".bench_work")


def reference_loop(rounds=REF_ROUNDS):
    """Fixed int, Fraction and dict work that calls no grtor code; the
    ratio of a sweep to it cancels drift in the host's speed."""
    table = {}
    acc = Fraction(0)
    x = 1
    for k in range(rounds):
        x = (x * 48271 + k) % 2147483647
        key = x % 4093
        table[key] = table.get(key, 0) + (x >> 7)
        if k % 8 == 0:
            acc += Fraction(x % 1009 + 1, key + 1)
    return len(table), acc


def fresh_import():
    """Import `grtor.cli` from scratch, as a new process would."""
    for name in [k for k in sys.modules if k == "grtor" or k.startswith("grtor.")]:
        del sys.modules[name]
    return importlib.import_module("grtor.cli")


def set_up(workload, seed, workdir):
    """Import `grtor` afresh and write the inputs; returns (cli module,
    jobs, seconds)."""
    shutil.rmtree(workdir, ignore_errors=True)
    t0 = time.perf_counter()
    cli = fresh_import()
    jobs = workloads.build(workload, seed, workdir)
    return cli, jobs, time.perf_counter() - t0


def run_job(main, job, tracer):
    """(exit code, stdout, failure) of one command; failure is None
    unless the command raised or ended in an error exit code."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tracer.call(main, job.argv) if tracer else main(job.argv)
    except (Exception, SystemExit) as exc:  # a crash is a failed operation
        return None, out.getvalue(), "%s raised %r" % (job.name, exc)
    if code not in (checks.EXIT_OK, checks.EXIT_UNVERIFIED):
        return code, out.getvalue(), "%s: exit %s: %s" % (job.name, code, err.getvalue().strip())
    return code, out.getvalue(), None


def sweep(main, jobs, tracer, weights):
    """Run every job once between two half slices of the reference loop,
    job k's slices taking weights[k] of REF_ROUNDS.  Returns (per-job wall
    seconds, reference seconds, results)."""
    walls, ref, results = [], 0.0, []
    for job, weight in zip(jobs, weights):
        half = int(REF_ROUNDS * weight / 2)
        t0 = time.perf_counter()
        reference_loop(half)
        t1 = time.perf_counter()
        results.append(run_job(main, job, tracer))
        t2 = time.perf_counter()
        reference_loop(half)
        t3 = time.perf_counter()
        ref += (t1 - t0) + (t3 - t2)
        walls.append(t2 - t1)
    return walls, ref, results


def parsed(results):
    """(exit code, printed JSON or None) of each job; failed jobs have none."""
    out = []
    for code, text, failure in results:
        payload = None
        if failure is None:
            with contextlib.suppress(ValueError, IndexError):
                payload = json.loads(text.strip().splitlines()[-1])
        out.append((code, payload))
    return out


def check(jobs, results, reference):
    """Errors of one sweep, failed jobs left out; `reference` holds the
    warm-up's outputs, which every later sweep must repeat exactly."""
    kept = [(job, res) for job, res, (_c, _t, failure) in zip(jobs, parsed(results), results)
            if failure is None]
    errors = checks.check_sweep([j for j, _ in kept], [r for _, r in kept])
    if reference is not None:
        errors += ["%s: output differs from the warm-up sweep" % job.name
                   for job, now, first in zip(jobs, results, reference)
                   if now[2] is None and now[1] != first[1]]
    return errors


def commit():
    """The checked-out commit, if the checkout is a git work tree."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def run(args, workdir):
    tracer = tracing.Tracer() if args.trace else None

    def prepare():
        for _ in range(SETUP_REPS):
            cli, jobs, seconds = set_up(args.workload, args.seed, workdir)
            setup_times.append(seconds)
        if tracer:
            tracer.install()
        return cli, jobs

    # set-up is repeated before every sweep, so that its median spans the
    # run as the sweeps do, and no state in the modules outlives a sweep;
    # the host's speed drifts over tens of seconds
    setup_times = []
    cli, jobs = prepare()
    # warm-up: checked, not timed; its job times weight the reference
    # loop's slices, so that the loop samples the host as the jobs do
    warm_walls, _ref, warm = sweep(cli.main, jobs, tracer, [1 / len(jobs)] * len(jobs))
    weights = [w / sum(warm_walls) for w in warm_walls]
    if tracer:
        tracer.take()
    errors = check(jobs, warm, None)

    sweeps, ratios, job_walls, layers = [], [], [], []
    attempted = failed = 0
    roots = []
    t_start = time.perf_counter()
    while True:
        cli, jobs = prepare()
        walls, ref, results = sweep(cli.main, jobs, tracer, weights)
        wall = sum(walls)
        sweeps.append(wall)
        ratios.append(wall / ref)
        job_walls.append(walls)
        if tracer:
            roots = tracer.take()
            layers.append(tracing.layer_metrics(roots, wall))
        attempted += len(jobs)
        failed += sum(1 for _c, _t, f in results if f is not None)
        errors += check(jobs, results, warm)
        if time.perf_counter() - t_start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    payloads = [p for _c, p in parsed(warm)]
    errors += checks.oracle_errors(jobs, payloads)
    for msg in sorted(set(errors)):
        print("check failed: " + msg, file=sys.stderr)
    for msg in sorted({f for _c, _t, f in warm if f is not None}):
        print("operation failed: " + msg, file=sys.stderr)

    if tracer:
        metrics = {k: {"value": v, "unit": tracing.unit(k)}
                   for k, v in tracing.median_metrics(layers).items()}
    else:
        metrics = {
            "setup_s": {"value": median(setup_times), "unit": "s"},
            "sweep_s": {"value": median(sweeps), "unit": "s"},
            "sweep_ref": {"value": median(ratios), "unit": "ref"},
            "jobs_per_s": {"value": (attempted - failed) / sum(sweeps), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": commit(),
        "instance_seeds": [j.expect["seed"] for j in jobs if "seed" in j.expect],
        "jobs": [j.name for j in jobs], "setup_runs_s": setup_times,
        "sweeps_s": sweeps, "sweep_ratios": ratios, "errors": sorted(set(errors)),
        "job_median_s": {j.name: median(w[k] for w in job_walls) for k, j in enumerate(jobs)},
        "result": result,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(tracing.span_records(roots), fh)
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "grtor", "cli.py")):
        print("error: no grtor sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    workdir = os.path.join(WORK_DIR, "%s-%d" % (args.workload, os.getpid()))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)


if __name__ == "__main__":
    sys.exit(main())
