"""Benchmark requests reproduce their recorded outputs.

For each benchmark workload this builds the request pool with
``perfbench/workloads.py`` and sends requests in-process through
``metastable.cli.main``:

* every hash-checked ``-v0`` entry and every hash-checked demo must exit
  with the code and write the output whose sha256
  ``perfbench/references.json`` records (for the paracompact demo, the
  sha256 of its ``plain_uniform`` part);
* every ``-v0`` certificate entry and every refute demo must pass the
  benchmark's own meaning check, ``perfbench/checks.py``, with a context
  built as ``perfbench/run.py`` builds it.

Nothing under ``perfbench/`` is written.
"""

import hashlib
import importlib
import json
import sys
import types
from pathlib import Path

import pytest

from metastable.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))  # the benchmark's modules import each other by name
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REFERENCES = json.loads((BENCH / "references.json").read_text())["workloads"]
POOLS = {w: workloads.build_pool(w) for w in workloads.WORKLOADS}
LIB = types.SimpleNamespace(**{m: importlib.import_module(f"metastable.{m}") for m in run.MODULES})


def _first_or_demo(key):
    return key.endswith("-v0") or key.startswith("demo-")


def _guarded(pool):
    for key, entry in pool.entries.items():
        hashed = entry.check["kind"] == "hash" and _first_or_demo(key)
        if hashed or "hash_at" in entry.check:
            yield key


def _certified(pool):
    for key, entry in pool.entries.items():
        if entry.check["kind"] == "certificate" and _first_or_demo(key):
            yield key


CASES = [(w, key) for w, pool in POOLS.items() for key in _guarded(pool)]
CERTIFIED = [(w, key) for w, pool in POOLS.items() for key in _certified(pool)]


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _send(tmp_path, pool, entry):
    """Write the entry's inputs, call the CLI; return its exit code and output bytes."""
    for name in entry.files:
        (tmp_path / name).write_bytes(pool.files[name])
    out = tmp_path / "out.json"
    argv = [str(out) if a == "@out" else str(tmp_path / a[1:]) if a.startswith("@") else a for a in entry.argv]
    code = main(argv)
    return code, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("workload, key", CASES, ids=[key for _, key in CASES])
def test_output_matches_the_reference(tmp_path, workload, key):
    pool, ref = POOLS[workload], REFERENCES[workload][key]
    entry = pool.entries[key]
    code, data = _send(tmp_path, pool, entry)
    assert code == ref["exit"]
    if "hash_at" in entry.check:
        part = json.loads(data)[entry.check["hash_at"]]
        assert _sha256(json.dumps(part, sort_keys=True).encode()) == ref["subdoc_sha256"]
    else:
        assert _sha256(data) == ref["output_sha256"]


@pytest.mark.parametrize("workload, key", CERTIFIED, ids=[key for _, key in CERTIFIED])
def test_certificate_passes_the_meaning_check(tmp_path, workload, key):
    pool = POOLS[workload]
    entry = pool.entries[key]
    code, data = _send(tmp_path, pool, entry)
    assert checks.check(entry, code, data, run.Context(LIB, pool, REFERENCES[workload])) is None


def test_every_workload_is_guarded():
    assert {w for w, _ in CASES} == set(workloads.WORKLOADS) and len(CASES) >= 20
    assert {key.rsplit("-v", 1)[0] for _, key in CERTIFIED if not key.startswith("demo-")} == {
        "refute-C12", "refute-Blist-n32", "refute-Blist-n48", "refute-Blist-n64",
        "refute-closed-C", "refute-closed-D", "refute-closed-B0",
    }
