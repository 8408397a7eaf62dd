"""Byte-identity guard: benchmark requests reproduce their recorded outputs.

For each benchmark workload this builds the request pool with
``perfbench/workloads.py`` and sends, in-process through
``metastable.cli.main``, every hash-checked ``-v0`` entry and every
hash-checked demo.  Each must exit with the code and write the output
whose sha256 ``perfbench/references.json`` records (for the paracompact
demo, the sha256 of its ``plain_uniform`` part; its certificate is
checked by meaning in the benchmark itself).  Nothing under ``perfbench/``
is written.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from metastable.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # dataclasses look it up
_spec.loader.exec_module(workloads)
REFERENCES = json.loads((BENCH / "references.json").read_text())["workloads"]
POOLS = {w: workloads.build_pool(w) for w in workloads.WORKLOADS}


def _guarded(pool):
    for key, entry in pool.entries.items():
        hashed = entry.check["kind"] == "hash" and (key.endswith("-v0") or key.startswith("demo-"))
        if hashed or "hash_at" in entry.check:
            yield key


CASES = [(w, key) for w, pool in POOLS.items() for key in _guarded(pool)]


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("workload, key", CASES, ids=[key for _, key in CASES])
def test_output_matches_the_reference(tmp_path, workload, key):
    pool, ref = POOLS[workload], REFERENCES[workload][key]
    entry = pool.entries[key]
    for name in entry.files:
        (tmp_path / name).write_bytes(pool.files[name])
    out = tmp_path / "out.json"
    argv = [str(out) if a == "@out" else str(tmp_path / a[1:]) if a.startswith("@") else a for a in entry.argv]
    assert main(argv) == ref["exit"]
    data = out.read_bytes()
    if "hash_at" in entry.check:
        part = json.loads(data)[entry.check["hash_at"]]
        assert _sha256(json.dumps(part, sort_keys=True).encode()) == ref["subdoc_sha256"]
    else:
        assert _sha256(data) == ref["output_sha256"]


def test_every_workload_is_guarded():
    assert {w for w, _ in CASES} == set(workloads.WORKLOADS) and len(CASES) >= 20
