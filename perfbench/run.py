"""Benchmark of the ``metastable`` CLI, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-chain --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One process, one client, closed loop: each request is one in-process call
of ``metastable.cli.main(argv)`` and the next request is sent only after
the previous one returned and its output was checked.  Requests come in
whole decks (see ``workloads.py``); the run starts decks until --seconds
have passed and at least 100 requests were sent, so the 90th percentile
has at least ten samples above it.

Times are reported in reference seconds, which factor out the host's
changes of speed (see ``hostspeed.py``); the wall times are printed and
recorded alongside.

--trace 0 prints the end-to-end metrics.  --trace 1 first runs untraced
for half of --seconds, then replays the same decks with spans (see
``spans.py``), starting decks for half of --seconds more, and prints the
per-layer metrics; end-to-end figures never come from a traced run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes ``perfbench/out/<workload>-seed<seed>-trace<0|1>.json`` with the
provenance, every request's latency and check result and, when traced,
the spans.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import checks
import hostspeed
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORK = BENCH / ".work"
REFERENCES = BENCH / "references.json"

MODULES = ("cli", "serialize", "order", "net", "meta", "families", "analyze", "mvlogic")
SETUP_REPEATS = 5
MIN_REQUESTS = 100


class SetupError(Exception):
    """The benchmark cannot run here: no library, or inputs differ from the references."""


def metric_units():
    """(end_to_end, per_layer) metric name -> unit, from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in doc[part]} for part in ("end_to_end", "per_layer"))


# -- set-up ----------------------------------------------------------------


def import_library():
    """Import ``metastable`` afresh from this checkout's ``src``."""
    if not (SRC / "metastable" / "__init__.py").is_file():
        raise SetupError(f"no metastable package under {SRC}")
    for name in [m for m in sys.modules if m == "metastable" or m.startswith("metastable.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = types.SimpleNamespace(**{m: importlib.import_module(f"metastable.{m}") for m in MODULES})
    if Path(lib.cli.__file__).resolve().parent != SRC / "metastable":
        raise SetupError(f"imported metastable from {lib.cli.__file__}, not from {SRC}")
    return lib


def input_hashes(pool):
    """sha256 of each entry's argv and input files."""
    files = {name: checks.sha256(data) for name, data in pool.files.items()}
    return {
        key: checks.sha256(json.dumps([e.argv, [files[f] for f in e.files]]).encode())
        for key, e in pool.entries.items()
    }


def write_inputs(pool, work_dir):
    work_dir.mkdir(parents=True, exist_ok=True)
    for name, data in pool.files.items():
        (work_dir / name).write_bytes(data)


class Context:
    """What the output checks need: the library, references and family lists."""

    def __init__(self, lib, pool, refs):
        self.lib = lib
        self.refs = refs
        self.members = {}
        for e in pool.entries.values():
            name = e.check.get("members")
            if name and name not in self.members:
                self.members[name] = {tuple(net["values"]) for net in json.loads(pool.files[name])}


def set_up(workload, work_dir):
    """Import the library, write the workload's inputs, load its references."""
    lib = import_library()
    pool = workloads.build_pool(workload)
    write_inputs(pool, work_dir)
    refs = json.loads(REFERENCES.read_text())["workloads"][workload]
    for key, digest in input_hashes(pool).items():
        if refs.get(key, {}).get("input_sha256") != digest:
            raise SetupError(f"input of {key} differs from the one its reference was recorded for")
    return lib, pool, Context(lib, pool, refs)


# -- requests --------------------------------------------------------------


class Request(NamedTuple):
    key: str
    start: float  # perf_counter at the call
    end: float  # perf_counter at the return
    failure: str | None


class Sample(NamedTuple):
    key: str
    wall_s: float  # latency as measured
    ref_s: float  # latency in reference seconds
    failure: str | None


def timings(requests, sampler):
    return [Sample(r.key, *sampler.seconds(r.start, r.end), r.failure) for r in requests]


class Runner:
    """Sends pool entries through ``cli.main`` and checks their outputs."""

    def __init__(self, lib, pool, ctx, work_dir):
        self.lib, self.pool, self.ctx = lib, pool, ctx
        self.out = work_dir / "out.json"
        self.argv = {
            key: [
                str(self.out) if a == "@out" else str(work_dir / a[1:]) if a.startswith("@") else a
                for a in e.argv
            ]
            for key, e in pool.entries.items()
        }

    def call(self, key, tracer=None, request_id=None):
        """Send one request and check its output; time it from call to return."""
        if self.out.exists():
            self.out.unlink()
        argv = self.argv[key]
        main = self.lib.cli.main
        start = perf_counter()
        try:
            code = main(argv) if tracer is None else tracer.request(request_id, main, argv)
            error = None
        except SystemExit as exc:
            error = f"SystemExit({exc.code})"
        except Exception as exc:  # a crashing request is a failed request
            error = f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        if error:
            return Request(key, start, end, f"raised {error}")
        data = self.out.read_bytes() if self.out.exists() else None
        return Request(key, start, end, checks.check(self.pool.entries[key], code, data, self.ctx))


def measure(runner, stream, seconds, min_requests, max_requests):
    """Send whole decks until ``seconds`` passed and ``min_requests`` were sent."""
    requests = []
    start = perf_counter()
    for deck in stream:
        if perf_counter() - start >= seconds and len(requests) >= min_requests:
            break
        for key in deck:
            if max_requests is not None and len(requests) >= max_requests:
                return requests
            requests.append(runner.call(key))
    return requests


# -- runs ------------------------------------------------------------------


def _latency_metrics(latencies):
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    return len(latencies) / sum(latencies), statistics.median(latencies), p90


def run_untraced(workload, seed, seconds, max_requests, work_dir):
    with hostspeed.Sampler() as sampler:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            lib, pool, ctx = set_up(workload, work_dir)
            setups.append((start, perf_counter()))
        runner = Runner(lib, pool, ctx, work_dir)
        requests = measure(runner, workloads.decks(pool, workload, seed), seconds, MIN_REQUESTS, max_requests)
    setups = [sampler.seconds(start, end) for start, end in setups]
    samples = timings(requests, sampler)
    rate, p50, p90 = _latency_metrics([s.ref_s for s in samples])
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "requests_per_s": rate,
        "cmd_p50_s": p50,
        "cmd_p90_s": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = _latency_metrics([s.wall_s for s in samples])
    notes = [
        f"{len(samples)} requests; {sum(1 for s in samples if s.ref_s > p90)} of them above cmd_p90_s",
        "wall-clock figures: setup_s = {:.6g} s, requests_per_s = {:.6g} 1/s, cmd_p50_s = {:.6g} s, "
        "cmd_p90_s = {:.6g} s".format(statistics.median(wall for wall, _ in setups), *raw),
    ]
    return samples, metrics, notes, {"setups_wall_ref_s": setups}


def run_traced(workload, seed, seconds, max_requests, work_dir):
    lib, pool, ctx = set_up(workload, work_dir)
    runner = Runner(lib, pool, ctx, work_dir)
    tracer = spans.Tracer(lib)
    with hostspeed.Sampler() as sampler:
        plain = measure(runner, workloads.decks(pool, workload, seed), seconds / 2, 1, max_requests)
        restore = tracer.install(lib.cli)
        traced = []
        deck_size = sum(count for _, count in pool.deck)
        try:
            start = perf_counter()
            for request_id, request in enumerate(plain):
                if request_id % deck_size == 0 and traced and perf_counter() - start >= seconds / 2:
                    break  # replay whole decks, so the traced mix does not depend on speed
                traced.append(runner.call(request.key, tracer, request_id))
        finally:
            restore()
    plain, traced = timings(plain, sampler), timings(traced, sampler)
    m = len(traced)
    ratio = sum(s.ref_s for s in traced) / sum(s.ref_s for s in plain[:m])
    metrics = spans.summarize(tracer.spans, m, ratio)
    notes = [f"{len(plain)} untraced requests, the first {m} of them (whole decks) replayed with spans"]
    t0 = tracer.spans[0][spans.START]
    span_rows = [
        [s[spans.ID], s[spans.PARENT], s[spans.REQUEST], s[spans.NAME],
         s[spans.START] - t0, None if s[spans.END] is None else s[spans.END] - t0,
         s[spans.BUSY], s[spans.VALUE]]
        for s in tracer.spans
    ]
    extra = {"span_fields": ["id", "parent", "request", "name", "start_s", "end_s", "busy_s", "value"],
             "spans": span_rows}
    return plain + traced, metrics, notes, extra


# -- provenance ------------------------------------------------------------


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload, seed, seconds, trace, requests):
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "requests": requests,
    }


# -- entry points ----------------------------------------------------------


def run_workload(workload, seed, seconds, trace, max_requests):
    end_to_end, per_layer = metric_units()
    units = per_layer if trace else end_to_end
    work_dir = WORK / f"{workload}-{os.getpid()}"
    try:
        run = run_traced if trace else run_untraced
        samples, metrics, notes, extra = run(workload, seed, seconds, max_requests, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    mismatch = set(units) ^ set(metrics)
    if mismatch:
        raise SetupError(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    failures = [(s.key, s.failure) for s in samples if s.failure]
    prov = provenance(workload, seed, seconds, trace, len(samples))
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"provenance": prov, "result": result, "notes": notes,
              "request_fields": list(Sample._fields), "requests": [list(s) for s in samples], **extra}
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))

    for name in units:
        print(f"{workload}  {name} = {metrics[name]:.6g} {units[name]}")
    print(f"{workload}  fail_ratio = {len(failures) / len(samples):.6g} fraction "
          f"({len(failures)} of {len(samples)} requests failed)")
    for note in notes:
        print(f"{workload}  {note}")
    for key, reason in failures[:10]:
        print(f"{workload}  FAILED {key}: {reason}", file=sys.stderr)
    print("provenance " + json.dumps(prov))
    return result


def run_all(args):
    """Each workload in its own process, one after another, so each reports its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.max_requests is not None:
            argv += ["--max-requests", str(args.max_requests)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SetupError(f"{workload} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-requests", type=int, help="stop after this many requests (for smoke tests)")
    args = p.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.max_requests)
    except SetupError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
