"""Record the SHA-256 of every job's stdout at the default seed.

    python3 perfbench/record_digests.py

Runs the first ``run.DIGEST_JOBS`` jobs of every workload at the default seed,
checks each against the oracle, and writes the first ``run.DIGEST_CHARS`` hex
digits of each digest to ``digests.json`` next to this file.  Run it only on a
commit whose outputs are known to be right: from then on the benchmark fails
any commit whose stdout differs on one of these jobs.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    cli = run.import_program()
    workdir = run.OUT / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    recorded = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            digests = []
            for jobs in cls(run.DEFAULT_SEED, workdir).rounds():
                for job in jobs[: run.DIGEST_JOBS - len(digests)]:
                    code, stdout, _ = run.run_job(cli, job)
                    problems = workloads.check_job(job, code, stdout)
                    if problems:
                        print(f"{name} job {job.index} ({job.cell}): {problems}",
                              file=sys.stderr)
                        return 1
                    digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
                    digests.append(digest[: run.DIGEST_CHARS])
                if len(digests) == run.DIGEST_JOBS:
                    break
            if len(digests) < run.DIGEST_JOBS:
                print(f"{name}: only {len(digests)} distinct jobs", file=sys.stderr)
                return 1
            recorded[name] = digests
            print(f"{name}: {len(digests)} digests")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(
        {"seed": run.DEFAULT_SEED, "jobs": run.DIGEST_JOBS, "workloads": recorded}, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
