"""csw benchmark: time to a checked verdict on three workloads.

    python3 perfbench/run.py --workload lp-basis --seed 0 --seconds 30 --trace 0

Run from a checkout: the program is imported from `src/` beside this
directory, and the CLI workload starts `python -m csw.cli` with that `src`
on PYTHONPATH.  Each run is one process, one client, one job at a time
(a closed loop).  It repeats the workload's fixed job list (a pass) while
the next pass is expected to end within `--seconds`, and at least the
workload's minimum number of times, and checks every job's exit code,
verdict and output sha256 against `expected.json`.  Every time it reports is
calibrated to a fixed machine speed (see `calibration.py`).

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates untraced
passes with traced ones (in-process through `csw.cli.main` for the CLI
workload) and prints the per-layer metrics.  The last line of stdout is a
JSON object: correct, attempted, failed, metrics.  Work files and the span
file of a traced run go to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7      # fresh processes timed for setup_s
STARTUP_PROBES = 5    # fresh processes timed for cli.startup_s
TAIL_BEYOND = 10      # jobs that must lie beyond the tail percentile

SETUP_PROBE = """\
import sys
sys.path[:0] = [{here!r}, {src!r}]
import workloads
workloads.WORKLOADS[{name!r}]({seed!r}, {workdir!r}, {src!r})
print("ready", flush=True)
"""

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cmd_p50_s": "s",
             "cmd_tail_s": "s", "peak_rss_mib": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def time_setup(name, seed, workdir, speed):
    """The interval from spawning a fresh interpreter to its workload being
    set up, with a speed probe on either side."""
    code = SETUP_PROBE.format(here=str(HERE), src=str(SRC), name=name,
                              seed=seed, workdir=str(workdir))
    speed.probe()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                            stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    end = time.perf_counter()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    shutil.rmtree(workdir, ignore_errors=True)
    speed.probe()
    return start, end


def time_cli_startup():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import csw.cli"], cwd=ROOT, env=env,
                   check=True)
    return time.perf_counter() - start


def run_pass(jobs, speed, rec=None):
    """Run the job list once, with a speed probe before the first job and
    after each one.  Returns per job (job, start, end, result, error)."""
    done = []
    speed.probe()
    for job in jobs:
        if rec is not None:
            rec.job = job.key
        start = time.perf_counter()
        try:
            result, error = job.call(), None
        except Exception:  # a job that raises is a failed job, not a crash
            result, error = None, traceback.format_exc()
        end = time.perf_counter()
        speed.probe()
        done.append((job, start, end, result, error))
    return done


def job_times(done, speed):
    """Calibrated and raw seconds of each job of a pass."""
    return ([speed.calibrate(start, end) for _, start, end, _, _ in done],
            [end - start for _, start, end, _, _ in done])


def check(done, expected, outcomes):
    """Count failed jobs; record each job's outcome by key."""
    failed = 0
    for job, _, _, result, error in done:
        if error is not None:
            print(f"FAILED {job.key}: raised\n{error}", file=sys.stderr)
            failed += 1
            continue
        code, verdict, digest = job.outcome(result)
        outcomes.setdefault(job.key, set()).add((code, verdict, digest))
        want = expected.get(job.key)
        got = {"exit": code, "verdict": verdict, "sha256": digest}
        if want != got:
            print(f"FAILED {job.key}: got {got}, expected {want}", file=sys.stderr)
            failed += 1
    return failed


def show(name, value, unit, note=""):
    print(f"  {name:<28} {value!r:>22} {unit:<6} {note}")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "csw" / "__init__.py").is_file():
        print(f"error: no csw package under {SRC}; run from a csw checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())[cls.name]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{cls.name}-{os.getpid()}"
    try:
        result = measure(args, cls, expected, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def measure(args, cls, expected, workdir):
    setup_speed = calibration.SpeedLog()
    setup_spans = [time_setup(cls.name, args.seed,
                              OUT / f"probe-{os.getpid()}-{i}", setup_speed)
                   for i in range(SETUP_PROBES)]
    setup_times = [setup_speed.calibrate(*span) for span in setup_spans]
    if args.trace:
        return measure_traced(args, cls, expected, workdir)

    work = cls(args.seed, str(workdir), str(SRC))
    jobs = work.jobs()
    speed = calibration.SpeedLog()
    passes, spans, failed = [], [], 0
    start = time.perf_counter()
    # Start another pass only while it is expected to end within --seconds.
    while (len(passes) < cls.min_passes
           or time.perf_counter() - start + statistics.median(spans) <= args.seconds):
        pass_start = time.perf_counter()
        done = run_pass(jobs, speed)
        failed += check(done, expected, {})
        passes.append(job_times(done, speed))
        spans.append(time.perf_counter() - pass_start)
    walls = [sum(calibrated) for calibrated, _ in passes]
    raw_walls = [sum(raw) for _, raw in passes]
    latencies = [secs for calibrated, _ in passes for secs in calibrated]

    tail_p = 100 * (1 - TAIL_BEYOND / (cls.min_passes * len(jobs)))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "cmd_p50_s": percentile(latencies, 50),
        "cmd_tail_s": percentile(latencies, tail_p),
        "peak_rss_mib": work.peak_rss_kib() / 1024,
    }
    attempted = len(latencies)
    print(f"workload {cls.name} seed {args.seed}: {len(walls)} passes x "
          f"{len(jobs)} jobs, one job at a time; times calibrated to "
          f"{calibration.REFERENCE_S} s per reference computation")
    show("setup_s", metrics["setup_s"], "s", f"median of {SETUP_PROBES} fresh processes")
    show("wall_s", metrics["wall_s"], "s", f"median of {len(walls)} passes")
    show("cmd_p50_s", metrics["cmd_p50_s"], "s", f"p50 of {attempted} jobs")
    show("cmd_tail_s", metrics["cmd_tail_s"], "s", f"p{tail_p:.1f} of {attempted} jobs")
    show("peak_rss_mib", metrics["peak_rss_mib"], "MiB", work.rss_source)
    print("  pass times, calibrated: " + " ".join(f"{w:.3f}" for w in walls))
    print("  pass times, raw:        " + " ".join(f"{w:.3f}" for w in raw_walls))
    show("failed_ratio", failed / attempted, "", f"{failed} of {attempted} jobs")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}}


def measure_traced(args, cls, expected, workdir):
    problems = tracing.self_check()
    tracer = tracing.Tracer()
    setup_rec = tracing.Recorder()
    setup_rec.job = "setup"
    tracer.install(setup_rec)
    try:
        work = cls(args.seed, str(workdir), str(SRC))
    finally:
        problems += [f"not restored: {b}" for b in tracer.uninstall()]

    pass_rec = tracing.Recorder()
    speed = calibration.SpeedLog()
    count = {False: 0, True: 0}   # passes run, untraced and traced
    outcomes, traced_outcomes = {}, {}
    settled, failed = [], 0

    def settle(done, label, traced):
        nonlocal failed
        failed += check(done, expected, traced_outcomes if traced else outcomes)
        settled.append((done, label, traced))

    start = time.perf_counter()
    while (not count[False] or not count[True]
           or time.perf_counter() - start < args.seconds):
        traced = count[True] < count[False]
        if traced:
            tracer.install(pass_rec)
            try:
                done = run_pass(work.jobs(in_process=True), speed, pass_rec)
            finally:
                problems += [f"not restored: {b}" for b in tracer.uninstall()]
        else:
            done = run_pass(work.jobs(), speed)
        count[traced] += 1
        settle(done, count[traced], traced)
    settle(run_pass(work.baseline_jobs(), speed), "baseline", False)

    walls, job_log = {False: [], True: []}, []
    for done, label, traced in settled:
        calibrated, raw = job_times(done, speed)
        if label != "baseline":
            walls[traced].append(sum(calibrated))
        job_log.extend({"pass": label, "traced": traced, "job": job.key,
                        "seconds": r, "calibrated_s": c, "baseline": job.baseline}
                       for (job, *_), c, r in zip(done, calibrated, raw))
    attempted = len(job_log)
    problems += [f"traced and untraced digests differ: {key}"
                 for key in traced_outcomes if traced_outcomes[key] != outcomes.get(key)]

    metrics = tracing.per_pass(tracing.layer_metrics(setup_rec),
                               tracing.layer_metrics(pass_rec), len(walls[True]))
    metrics["cli.startup_s"] = statistics.median(
        time_cli_startup() for _ in range(STARTUP_PROBES))
    traced_wall = statistics.median(walls[True])
    untraced_wall = statistics.median(walls[False])
    metrics["trace.overhead_s"] = traced_wall - untraced_wall

    trace_file = OUT / f"trace-{cls.name}-seed{args.seed}.json"
    spans = [{"phase": phase, "id": i, "parent": p, "name": n, "job": j,
              "start": s, "end": e}
             for phase, rec in (("setup", setup_rec), ("pass", pass_rec))
             for i, p, n, j, s, e in rec.spans]
    trace_file.write_text(json.dumps({
        "workload": cls.name, "seed": args.seed, "metrics": metrics,
        "jobs": job_log, "spans": spans, "problems": problems}, indent=1))

    print(f"workload {cls.name} seed {args.seed} traced: {len(walls[True])} traced "
          f"and {len(walls[False])} untraced passes; per-layer metrics are one "
          f"set-up plus one traced pass")
    for name in sorted(metrics):
        show(name, metrics[name], tracing.unit(name))
    print(f"  tracing overhead: traced wall_s {traced_wall:.4f} s - untraced "
          f"wall_s {untraced_wall:.4f} s = {metrics['trace.overhead_s']:.4f} s")
    print(f"  hull.direct_ratio = {metrics['hull.direct_calls']:g} direct / "
          f"{metrics['hull.membership_calls']:g} membership calls")
    baselines = {}
    for entry in job_log:
        if entry["baseline"]:
            baselines.setdefault((entry["baseline"], entry["traced"]), []).append(
                entry["seconds"])
    for (label, traced), times in sorted(baselines.items()):
        print(f"  baseline {label}, {'traced' if traced else 'untraced'}: median "
              f"{statistics.median(times):.3f} s raw over {len(times)} jobs")
    for problem in problems:
        print(f"  PROBLEM {problem}", file=sys.stderr)
    print(f"  spans and per-job timings: {trace_file.relative_to(ROOT)}")
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": tracing.unit(k)}
                        for k, v in sorted(metrics.items())}}


if __name__ == "__main__":
    sys.exit(main())
