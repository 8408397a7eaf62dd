"""Self-tests of the benchmark: its checks catch bad outputs, every metric
is printed with its unit, and the workload seed decides the inputs.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads

RUN = Path(run.__file__).resolve()


@pytest.fixture(scope="module")
def families(tmp_path_factory):
    work_dir = tmp_path_factory.mktemp("families")
    return run.Runner(*run.set_up("families", work_dir), work_dir)


def _sent(runner, key):
    sample = runner.call(key)
    assert sample.failure is None, sample.failure
    return runner.out.read_bytes()


def _check(runner, key, data, code):
    return checks.check(runner.pool.entries[key], code, data, runner.ctx)


def test_flipped_output_byte_is_a_failure(families):
    key = "verify-B-n32-pass-v0"
    data = bytearray(_sent(families, key))
    assert _check(families, key, bytes(data), 0) is None
    for pos in (0, len(data) // 2, len(data) - 2):
        flipped = bytearray(data)
        flipped[pos] ^= 0x01
        assert _check(families, key, bytes(flipped), 0) is not None
    assert _check(families, key, bytes(data), 2) is not None  # wrong exit code


@pytest.mark.parametrize("values", [
    lambda n: [0] * n,  # a member of C with a witness everywhere
    lambda n: [1] * n,  # not eventually zero: not a member of C
])
def test_swapped_certificate_member_is_a_failure(families, values):
    key = "refute-closed-C-v0"
    doc = json.loads(_sent(families, key))
    assert _check(families, key, json.dumps(doc).encode(), 2) is None
    n = len(doc["member"]["values"])
    doc["member"]["values"] = values(n)
    assert _check(families, key, json.dumps(doc).encode(), 2) is not None


def test_exhausted_is_accepted_only_where_no_certificate_exists(families):
    blist = "refute-Blist-n32-v0"
    exhausted = _sent(families, blist)
    assert json.loads(exhausted)["result"] == "exhausted"
    assert _check(families, "refute-C12-v0", exhausted, 0) is not None


def test_seed_is_an_argument():
    for workload in workloads.WORKLOADS:
        pool, again = workloads.build_pool(workload), workloads.build_pool(workload)
        assert pool.files == again.files

        def inputs(seed):
            keys = list(itertools.chain.from_iterable(
                itertools.islice(workloads.decks(pool, workload, seed), 3)))
            return [(pool.entries[k].argv, [pool.files[f] for f in pool.entries[k].files]) for k in keys]

        assert inputs(7) == inputs(7)
        assert inputs(7) != inputs(8)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--max-requests", "4"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    expected = run.metric_units()[trace]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{workload}  {name} = ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith(f"{workload}  fail_ratio = 0 fraction") for line in lines)


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "families", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
