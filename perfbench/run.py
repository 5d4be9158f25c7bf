"""Closed-loop benchmark of the robustci command line.

    python3 perfbench/run.py --workload combinatorics --seed 0 --seconds 20 --trace 0

One process, one client, no threads: the loop calls ``robustci.cli.main(argv)``
in-process, one job after another, with stdout captured in memory.  The jobs
come from the seeded generators in ``workloads.py``; the program receives only
their files and argv.  Every job is checked against an independent oracle,
and at the default seed the stdout of each of the first ``DIGEST_JOBS`` jobs
must hash to the SHA-256 recorded in ``digests.json``.  Timings are reported
at the reference host speed (see ``hostspeed.py``).

``--trace 0`` times the loop and reports the end-to-end metrics.  ``--trace 1``
runs the same loop, then re-runs the jobs of its first rounds untraced and
with every layer boundary traced, and reports the per-layer metrics, the
tracing overhead and the per-subcommand busy times; the re-run outputs must
match the timed loop's digests.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every check passed.  Full reports, the job manifest and the spans
go to ``.perfbench/out/`` under the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from hostspeed import host_factor
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
# digests.json holds the first 16 hex digits of the SHA-256 of the stdout of
# the first DIGEST_JOBS jobs of every workload at the default seed: several
# times what a 30-second run attempts at the seed commit, so that a much
# faster program is still checked job by job.
DIGEST_JOBS = 3000
DIGEST_CHARS = 16
SETUP_PROBES = 15
SUBCOMMANDS = ("graph", "structures", "check", "groebner", "decompose", "gibbs")
# The tail is the highest of these percentiles with at least ten jobs beyond
# it.  Capping the ladder at p90 keeps the metric comparable across commits:
# a faster program completes more jobs, which would otherwise move it to p95.
TAIL_LADDER = (90, 75, 50)
# The traced run covers the first rounds of the stream only, a job set fixed
# by the seed, so per-layer times and counts compare across commits: a
# faster program must not trace more jobs.
TRACE_ROUNDS = 8


def import_program():
    """Import robustci from the checkout's own ``src``, and nowhere else."""
    if not (SRC / "robustci" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'robustci'}")
    sys.path.insert(0, str(SRC))
    import robustci.cli

    if Path(robustci.cli.__file__).resolve().parent != SRC / "robustci":
        raise SystemExit(f"perfbench: robustci imported from {robustci.cli.__file__}")
    return robustci.cli


def program_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("ROBUSTCI_THREADS", None)
    return env


def cold_starts(code: str, count: int) -> list:
    """Wall times of fresh interpreters running ``code``, each at the
    reference host speed (divided by the host factor probed around it).

    The benchmark and its children are held on one CPU meanwhile, so that
    the probe measures the CPU the interpreters run on.  One unrecorded
    warm-up run comes first, so byte-compilation does not land in the
    figures."""
    command = [sys.executable, "-c", code]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        subprocess.run(command, env=program_env(), cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times = []
        before = host_factor()
        for _ in range(count):
            begin = time.perf_counter()
            subprocess.run(command, env=program_env(), cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL)
            elapsed = time.perf_counter() - begin
            after = host_factor()
            times.append(elapsed / math.sqrt(before * after))
            before = after
    finally:
        os.sched_setaffinity(0, allowed)
    return times


def run_job(cli, job):
    """One in-process CLI call: (exit code, stdout, latency in seconds)."""
    out, err = io.StringIO(), io.StringIO()
    begin = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(job.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the loop must go on; the job is reported as failed
            code = "exception: " + traceback.format_exc(limit=3)
    latency = time.perf_counter() - begin
    return code, out.getvalue(), latency


class Record:
    """Outcome of one job in the timed loop: its digest and size, not its
    stdout.  ``host`` is the host factor probed around the job, and
    ``scaled`` the latency at the reference host speed."""

    __slots__ = ("job", "code", "digest", "latency", "host", "nbytes", "problems")

    def __init__(self, job, code, data: bytes, latency):
        self.job = job
        self.code = code
        self.digest = hashlib.sha256(data).hexdigest()
        self.latency = latency
        self.host = 1.0
        self.nbytes = len(data)
        self.problems = []

    @property
    def scaled(self) -> float:
        return self.latency / self.host


def check_round(records, outputs):
    """Run the oracle checks of one round in a forked child.

    ``outputs`` maps a job index to the file holding its stdout.  Parsing
    multi-megabyte outputs raises the memory high-water mark as much as the
    program does; in a child it stays out of the workload process's
    ``peak_rss_mb``.  Forking is safe because neither the benchmark nor the
    program starts a thread.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            problems = [workloads.check_job(r.job, r.code, outputs[r.job.index].read_text())
                        for r in records]
            with os.fdopen(write, "w") as pipe:
                json.dump(problems, pipe)
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        data = pipe.read()
    os.waitpid(pid, 0)
    problems = json.loads(data) if data else [["the oracle check crashed"]] * len(records)
    for record, found in zip(records, problems):
        record.problems.extend(found)


def timed_loop(cli, workload, seconds: float, workdir: Path, expected_digests: list,
               min_rounds: int = 0):
    """Run rounds of jobs until ``seconds`` of loop time have passed and at
    least ``min_rounds`` rounds are complete, or the workload runs out of
    distinct instances.

    The loop time is the summed wall time of the CLI calls.  Hashing and
    saving each stdout, generation and checking happen outside it, and only
    a job's digest and size stay in memory.  The host is probed before and
    after every job (see ``hostspeed``).
    Returns the job records, round by round, and the loop time.
    """
    rounds = []
    loop = 0.0
    before = host_factor()
    for jobs in workload.rounds():
        records = []
        outputs = {}
        for job in jobs:
            code, stdout, latency = run_job(cli, job)
            after = host_factor()
            loop += latency
            data = stdout.encode("utf-8")
            del stdout
            record = Record(job, code, data, latency)
            record.host = math.sqrt(before * after)
            before = after
            outputs[job.index] = workdir / f"{job.index:05d}-stdout.json"
            outputs[job.index].write_bytes(data)
            del data
            if job.index < len(expected_digests) and \
                    record.digest[:DIGEST_CHARS] != expected_digests[job.index]:
                record.problems.append("stdout digest differs from the recorded one")
            records.append(record)
            if loop >= seconds and len(rounds) >= min_rounds:
                break
        check_round(records, outputs)
        for job in jobs:
            job.oracle = None
        for path in outputs.values():
            path.unlink()
        # Start every round from the same small heap, so that the collector's
        # work inside the loop does not grow with the benchmark's own data.
        gc.collect()
        before = host_factor()
        rounds.append(records)
        if loop >= seconds and len(rounds) > min_rounds:
            break
    return rounds, loop


def traced_pass(cli, records, tracer):
    """Re-run each job twice, back to back, once untraced and once traced.

    Back-to-back runs keep the host's speed drift out of the overhead ratio,
    and alternating which run goes first cancels the second run's warm start.
    Both outputs must match the timed loop's.  Returns the summed untraced
    and traced latencies.
    """
    totals = [0.0, 0.0]
    for i, record in enumerate(records):
        for traced in (i % 2, 1 - i % 2):
            with tracer.installed() if traced else contextlib.nullcontext():
                tracer.job = record.job.index
                code, stdout, latency = run_job(cli, record.job)
            totals[traced] += latency
            digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
            if code != record.code or digest != record.digest:
                record.problems.append("re-run output differs from the timed loop's")
    return totals


def tail(latencies):
    """(percentile, value): the highest ladder percentile with >= 10 jobs beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = -(-pct * n // 100)  # nearest rank, ceil(pct/100 * n)
        if n - rank >= 10 or pct == TAIL_LADDER[-1]:
            return pct, ordered[max(rank, 1) - 1]


def end_to_end(records, setup):
    """The end-to-end metrics, all timings at the reference host speed."""
    latencies = [r.scaled for r in records]
    pct, tail_value = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (len(records) / sum(latencies), "1/s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, f"job_tail_s is p{pct} over {len(records)} jobs"


def per_layer(records, untraced, traced, tracer):
    """Layer metrics of the traced jobs; busy times and bytes from the timed
    loop, the overhead from the back-to-back re-runs."""
    metrics = tracer.metrics()
    for command in SUBCOMMANDS:
        busy = sum(r.scaled for r in records if r.job.command == command)
        metrics[f"{command}.busy_s"] = (busy, "s")
    metrics["cli.output_bytes"] = (sum(r.nbytes for r in records), "bytes")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    metrics["trace.spans"] = (len(tracer), "count")
    return metrics


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def recorded_digests(workload: str, seed: int) -> list:
    if seed != DEFAULT_SEED:
        return []
    recorded = json.loads(DIGESTS.read_text())
    return recorded["workloads"][workload]


def manifest(records) -> list:
    return [
        {
            "job": r.job.index,
            "cell": r.job.cell,
            "command": r.job.command,
            "argv": [Path(a).name if os.sep in a else a for a in r.job.argv],
            "params": r.job.params,
            "expected_exit": r.job.expected_exit,
            "exit": r.code,
            "latency_s": r.latency,
            "host_factor": r.host,
            "stdout_bytes": r.nbytes,
            "sha256": r.digest,
            "problems": r.problems,
        }
        for r in records
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.environ.pop("ROBUSTCI_THREADS", None)
    cli = import_program()
    env = environment(args.seed)
    setup = []
    if not args.trace:
        setup = cold_starts("import robustci.cli as c; c.build_parser()", SETUP_PROBES)
        env["bare_interpreter_s"] = statistics.median(cold_starts("pass", 3))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        expected = recorded_digests(args.workload, args.seed)
        rounds, loop = timed_loop(cli, workload, args.seconds, workdir, expected,
                                  TRACE_ROUNDS if args.trace else 0)
        records = [r for batch in rounds for r in batch]
        env["host_factor"] = statistics.median(r.host for r in records)
        env["raw_jobs_per_s"] = len(records) / loop
        if args.trace:
            tracer = Tracer()
            traced = [r for batch in rounds[:TRACE_ROUNDS] for r in batch]
            metrics = per_layer(traced, *traced_pass(cli, traced, tracer), tracer)
            note = f"per-layer metrics over the first {TRACE_ROUNDS} rounds, {len(traced)} jobs"
        else:
            metrics, note = end_to_end(records, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r.problems]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "environment": env,
        "note": note,
        "digests_checked": min(len(expected), len(records)),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "jobs": manifest(records),
    }
    (OUT / "out").mkdir(parents=True, exist_ok=True)
    (OUT / "out" / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        tracer.dump(OUT / "out" / f"{stem}-spans.json.gz")

    by_command = {c: sum(r.job.command == c for r in records) for c in SUBCOMMANDS}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"jobs: {len(records)} attempted, {len(failed)} failed, "
          f"failed_ratio {len(failed) / len(records):.4f}; "
          + ", ".join(f"{c} {k}" for c, k in by_command.items() if k))
    print(f"digests checked: {report['digests_checked']}")
    if args.seed == DEFAULT_SEED and len(records) > len(expected):
        print(f"perfbench: {len(records) - len(expected)} jobs ran beyond the "
              f"{len(expected)} recorded digests and were checked by the oracle only; "
              "raise DIGEST_JOBS and run record_digests.py at a known-good commit",
              file=sys.stderr)
    print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:>16.6f} {unit}")
    for r in failed[:10]:
        print(f"FAILED job {r.job.index} ({r.job.cell}): {'; '.join(map(str, r.problems))}",
              file=sys.stderr)
    print(f"report: {OUT / 'out' / stem}.json")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
