"""Record the reference output of every pool entry at the current commit.

Run from the repository root:

    python3 perfbench/record.py

It writes ``perfbench/references.json``: per entry the sha256 of its
inputs, its exit code and, for deterministic outputs, the sha256 of the
output bytes.  Certificate entries must pass their check by meaning
before they are recorded.  Re-record only when a change of output is
intended and reviewed, because the benchmark's output checks compare
against these references.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import run
import workloads


def record(workload, work_dir):
    lib = run.import_library()
    pool = workloads.build_pool(workload)
    run.write_inputs(pool, work_dir)
    refs = {key: {"input_sha256": digest} for key, digest in run.input_hashes(pool).items()}
    ctx = run.Context(lib, pool, refs)
    runner = run.Runner(lib, pool, ctx, work_dir)
    for key, entry in pool.entries.items():
        if runner.out.exists():
            runner.out.unlink()
        code = lib.cli.main(runner.argv[key])
        data = runner.out.read_bytes()
        refs[key]["exit"] = code
        if entry.check["kind"] == "hash":
            refs[key]["output_sha256"] = checks.sha256(data)
            continue
        if "hash_at" in entry.check:
            refs[key]["subdoc_sha256"] = checks.subdoc_sha256(json.loads(data)[entry.check["hash_at"]])
        reason = checks.check(entry, code, data, ctx)
        if reason:
            raise SystemExit(f"{key}: {reason}")
    return refs


def main():
    work_dir = run.WORK / f"record-{os.getpid()}"
    doc = {"workloads": {}}
    try:
        for workload in workloads.WORKLOADS:
            doc["workloads"][workload] = record(workload, work_dir)
            print(f"{workload}: {len(doc['workloads'][workload])} entries recorded", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
