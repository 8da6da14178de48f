"""geomlim benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``--workload all`` runs the five
workloads one after another.  One client runs jobs in a closed loop, one
at a time: a CLI job is a fresh ``python -m geomlim.cli`` process with
``PYTHONPATH=src`` (no entry point needs to be installed); a job of an
in-process workload (``exact``, ``readme``) is a library call or a
``cli.run(argv)`` call in this process.  Outputs are checked after each
job, outside the timed region.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs one
pass untraced and one pass with every module's public functions wrapped
(``trace.py``), both in this process with CLI jobs driven through
``cli.run(argv)``, and reports the per-module metrics.  The last line of
stdout is one JSON object; the full record, with the environment, goes to
``.bench_out/results/`` and the spans to ``.bench_out/spans/``.
"""

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

# Jobs run in the caller's environment.  This process limits its own BLAS
# to one thread (before numpy is imported): idle BLAS threads spin after
# each call, and would compete with the job on a second core.
JOB_ENV = dict(os.environ)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from perfbench import checks, gen, stats, trace  # noqa: E402
from perfbench.workloads import (BUILDERS, IN_PROCESS, WORKLOADS,  # noqa: E402
                                 Inputs)

SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 7
SETUP_BURST = 3
# A job's latency is its fastest run over the passes of a run (see
# ``stats.best_per_job``), so every run makes at least this many passes.
MIN_PASSES = 3
IMPORTTIME_REPS = 5
# Jobs still running this long after the run started are killed, so a run
# ends within the 180 s its caller allows.
DEADLINE_S = 150.0


def child_env():
    return dict(JOB_ENV, PYTHONPATH=str(SRC))


# -- one job --------------------------------------------------------------

class Outcome:
    __slots__ = ("label", "seconds", "rss_mb", "code", "out", "err",
                 "failure", "wrong")

    def __init__(self, label, seconds, rss_mb, code, out, err):
        self.label = label
        self.seconds = seconds
        self.rss_mb = rss_mb
        self.code = code
        self.out = out
        self.err = err
        self.failure = None  # reason the job failed, if it did
        self.wrong = False  # a wrong answer, not only a broken contract


class Spawner:
    """Client of ``spawn.py``, which starts each CLI process so that its
    peak RSS is its own (see there)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT)

    def run(self, argv, deadline):
        """Run ``python argv...`` to completion: (seconds, MB, exit code)."""
        self.proc.stdin.write(json.dumps({
            "argv": [sys.executable, *argv],
            "stdout": str(OUT / "job.out"), "stderr": str(OUT / "job.err"),
            "timeout": deadline - time.monotonic()}) + "\n")
        self.proc.stdin.flush()
        r = json.loads(self.proc.stdout.readline())
        return r["seconds"], r["maxrss_kb"] / 1024.0, r["code"]

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def run_subprocess(spawner, job, deadline):
    """One CLI process from spawn to exit, stdout and stderr to files as
    with a shell redirect."""
    seconds, rss_mb, code = spawner.run(
        ["-m", "geomlim.cli", *job.argv], deadline)
    return Outcome(job.label, seconds, rss_mb, code,
                   (OUT / "job.out").read_text(), (OUT / "job.err").read_text())


def run_inprocess_cli(cli, job):
    """``cli.run(argv)`` with stdout and stderr captured; an uncaught
    exception counts as the traceback-and-exit-1 of the real process."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    t0 = time.perf_counter()
    try:
        code = cli.run(job.argv)
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        seconds = time.perf_counter() - t0
        sys.stdout, sys.stderr = saved
    return Outcome(job.label, seconds, 0.0, code, out.getvalue(),
                   err.getvalue())


def run_call(job):
    t0 = time.perf_counter()
    try:
        result = job.call()
        code, err = 0, ""
    except Exception:
        result, code, err = None, 1, traceback.format_exc()
    return Outcome(job.label, time.perf_counter() - t0, 0.0, code, result,
                   err)


def judge(job, o):
    """Fill in whether the job failed: a wrong exit code, a stderr that
    breaks the README contract (0, or 2 with a JSON error, or 64), or an
    output that fails its check."""
    try:
        if job.malformed:
            o.wrong = o.code == 0
            checks.check_error(o.code, o.err)
            checks.require(o.out == "", "output on invalid input")
        else:
            o.wrong = True
            checks.require(o.code == 0, "exit {}: {}", o.code,
                           o.err.strip().splitlines()[-1:] or "")
            job.check(o.out)
            o.wrong = False
    except checks.CheckFailed as exc:
        o.failure = str(exc)
    except Exception as exc:  # a check that crashed on malformed output
        o.failure = "check raised {!r}".format(exc)
    o.out = o.err = None
    return o


# -- passes ---------------------------------------------------------------

def one_pass(jobs, runner, between):
    outcomes = []
    for job in jobs:
        outcomes.append(judge(job, runner(job)))
        between()
    return outcomes


def timed_passes(jobs, runner, seconds, deadline, between):
    """Repeat the job list while another pass fits in the time budget;
    always at least ``MIN_PASSES`` passes, unless the deadline is near."""
    passes = []
    t0 = time.monotonic()
    while True:
        passes.append(one_pass(jobs, runner, between))
        used = time.monotonic() - t0
        last = used / len(passes)
        if time.monotonic() + last > deadline:
            return passes
        if used + last > seconds and len(passes) >= MIN_PASSES:
            return passes


class SetupTimer:
    """Wall time for a fresh interpreter to import geomlim.cli.  A sample
    is the fastest of ``SETUP_BURST`` imports in a row.  Samples are
    spread over the run, one at most every ``seconds / SETUP_REPS``
    between jobs, and their median is reported; one warm-up import
    writes the bytecode cache first."""

    def __init__(self, spawner, seconds, deadline):
        self.spawner = spawner
        self.interval = seconds / SETUP_REPS
        self.deadline = deadline
        self.samples = []
        self.last = time.monotonic()
        self._import()

    def _import(self):
        seconds, _, code = self.spawner.run(["-c", "import geomlim.cli"],
                                            self.deadline)
        if code != 0:
            raise SystemExit("importing geomlim.cli failed")
        return seconds

    def _sample(self):
        return min(self._import() for _ in range(SETUP_BURST))

    def between(self):
        if len(self.samples) < SETUP_REPS \
                and time.monotonic() - self.last >= self.interval:
            self.samples.append(self._sample())
            self.last = time.monotonic()

    def median(self):
        while len(self.samples) < SETUP_REPS:
            self.samples.append(self._sample())
        return statistics.median(self.samples)


def import_times():
    """Cumulative import time of numpy, and of geomlim without numpy,
    from ``-X importtime`` (medians)."""
    numpy_s, self_s = [], []
    for _ in range(IMPORTTIME_REPS):
        p = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import geomlim.cli"],
            env=child_env(), cwd=ROOT, check=True, capture_output=True,
            text=True)
        a, b = stats.parse_importtime(p.stderr)
        numpy_s.append(a)
        self_s.append(b)
    return statistics.median(numpy_s), statistics.median(self_s)


# -- environment ----------------------------------------------------------

def git_sha():
    if not (ROOT / ".git").exists():
        return None
    p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return p.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed):
    import numpy
    return {
        "seed": seed,
        "git_sha": git_sha(),
        "src_sha256": stats.tree_digest(SRC / "geomlim"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "cli": "python -m geomlim.cli with PYTHONPATH=src",
    }


# -- workloads ------------------------------------------------------------

def import_program():
    import geomlim
    from geomlim import (algebra, cells, cli, heisenberg, limits, matrices,
                         regeneration)
    if Path(geomlim.__file__).resolve().parent != SRC / "geomlim":
        raise SystemExit("geomlim imported from {}, not {}".format(
            geomlim.__file__, SRC))
    return {"algebra": algebra, "matrices": matrices, "limits": limits,
            "cells": cells, "regeneration": regeneration,
            "heisenberg": heisenberg, "cli": cli}


def in_process_runner(workload, modules):
    if workload == "exact":
        return run_call
    return lambda job: run_inprocess_cli(modules["cli"], job)


def untraced(workload, jobs, modules, seconds, deadline):
    spawner = Spawner()
    try:
        setup = SetupTimer(spawner, seconds, deadline)
        if workload in IN_PROCESS:
            passes = timed_passes(jobs, in_process_runner(workload, modules),
                                  seconds, deadline, setup.between)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            passes = timed_passes(
                jobs, lambda job: run_subprocess(spawner, job, deadline),
                seconds, deadline, setup.between)
            peak = max(o.rss_mb for p in passes for o in p)
        setup_s = setup.median()
    finally:
        spawner.close()
    best = stats.best_per_job([[o.seconds for o in p] for p in passes])
    tail_s, tail_pct, n_jobs = stats.tail(best)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(best), "s"),
        "job_p50_s": (statistics.median(best), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    notes = {"job_tail_percentile": tail_pct, "job_tail_jobs": n_jobs,
             "passes": len(passes)}
    return passes, metrics, notes


def traced(workload, jobs, modules, tag):
    """Each job once untraced and once traced, back to back, alternating
    which goes first so that warm-up and drift cancel in the overhead
    ratio.  Counts come from the traced runs only."""
    runner = in_process_runner(workload, modules)
    tracer = trace.Tracer()
    plain, outcomes = [], []
    out_bytes = 0
    for i, job in enumerate(jobs):
        for traced_run in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced_run:
                plain.append(judge(job, runner(job)))
                continue
            tracer.job_id = i
            tracer.install(modules)
            try:
                o = runner(job)
            finally:
                tracer.uninstall()
            if workload != "exact":
                out_bytes += len(o.out.encode())
            outcomes.append(judge(job, o))
    numpy_s, self_s = import_times()
    metrics = stats.layer_metrics(tracer, out_bytes, numpy_s, self_s)
    metrics["trace.overhead_ratio"] = (
        sum(o.seconds for o in outcomes) / sum(o.seconds for o in plain), "1")
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / "spans" / (tag + ".npz"))
    per_job = {}
    for (j, name), k in sorted(trace.calls_by_job(tracer).items()):
        per_job.setdefault("{} {}".format(j, jobs[j].label), {})[name] = k
    return [plain, outcomes], metrics, {"calls_by_job": per_job}


def run_workload(workload, seed, seconds, trace_on, env):
    deadline = time.monotonic() + DEADLINE_S
    modules = import_program()
    jobs = BUILDERS[workload](gen.stream(seed, workload), Inputs(OUT))
    tag = "{}-seed{}-trace{}".format(workload, seed, trace_on)
    if trace_on:
        passes, metrics, notes = traced(workload, jobs, modules, tag)
    else:
        passes, metrics, notes = untraced(workload, jobs, modules, seconds,
                                          deadline)
    outcomes = [o for p in passes for o in p]
    failed = [o for o in outcomes if o.failure]
    result = {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=workload, trace=trace_on, env=env,
                  notes=notes, passes=len(passes),
                  failed_ratio=len(failed) / len(outcomes),
                  jobs=[[i, o.label, o.seconds, o.rss_mb, o.code, o.failure]
                        for i, p in enumerate(passes) for o in p])
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / (tag + ".json")).write_text(json.dumps(record))
    report(workload, record, failed)
    return result


def report(workload, record, failed):
    print("workload {}  seed {}  trace {}  passes {}  jobs {}".format(
        workload, record["env"]["seed"], record["trace"], record["passes"],
        record["attempted"]))
    for name, m in record["metrics"].items():
        print("  {:44s} {:>16.6g} {}".format(name, m["value"], m["unit"]))
    print("  {:44s} {:>16.6g} 1  ({} of {} jobs)".format(
        "failed_ratio", record["failed_ratio"], record["failed"],
        record["attempted"]))
    notes = record["notes"]
    if "job_tail_percentile" in notes:
        print("  job_tail_s is p{:.4g} of the {} jobs of the list; each job "
              "at its fastest of {} passes".format(
                  notes["job_tail_percentile"], notes["job_tail_jobs"],
                  notes["passes"]))
    seen = set()
    for o in failed:
        if (o.label, o.failure) not in seen:
            seen.add((o.label, o.failure))
            print("  failed: {}: {}".format(o.label, o.failure))
    print("  env " + json.dumps(record["env"], sort_keys=True))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "geomlim" / "cli.py").is_file():
        sys.stderr.write("no geomlim sources under {}\n".format(SRC))
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    env = environment(args.seed)
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, env)
        print(json.dumps(result))
        return 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        r = run_workload(w, args.seed, args.seconds, args.trace, env)
        merged["correct"] &= r["correct"]
        merged["attempted"] += r["attempted"]
        merged["failed"] += r["failed"]
        merged["metrics"].update(
            {w + "." + k: v for k, v in r["metrics"].items()})
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
