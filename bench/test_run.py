"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    """A scratch directory inside the checkout, as run.py uses."""
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=run.WORK))
    yield path
    shutil.rmtree(path)
    try:
        run.WORK.rmdir()
    except OSError:
        pass


def test_wrong_digest_and_nonzero_exit_are_counted_not_raised(workdir):
    one = hashlib.sha256(b"1\n").hexdigest()  # d(e, t) = 1
    ops = [
        run.Op("dist", ("dist", "--from", '{"cursor":0,"lamps":[]}',
                        "--to", '{"cursor":1,"lamps":[]}')),
        run.Op("walk N 12", ("walk", "--kind", "N", "--steps", "12")),
        run.Op("walk N", ("walk", "--kind", "N")),  # usage error, exit 2
    ]
    digests = {"dist": one, "walk N 12": "0" * 64, "walk N": one}
    runs = run.run_pass(ops, digests, workdir)
    assert [r.ok for r in runs] == [True, False, False]
    assert all(r.wall_s > 0 and r.rss_mb > 0 for r in runs)


def test_check_op_reasons():
    op = run.Op("dist", ("dist",))
    digests = {"dist": hashlib.sha256(b"1\n").hexdigest()}
    assert run.check_op(op, 0, b"1\n", digests) is None
    assert run.check_op(op, 0, b"2\n", digests) == "output digest mismatch"
    assert run.check_op(op, 3, b"1\n", digests) == "exit code 3"
    assert run.check_op(run.Op("unknown", ()), 0, b"1\n", digests) == "output digest mismatch"


def test_verify_digest_ignores_check_timings():
    a = b"PASS  1-metric-oracle  name  (0.3s)  B(e,8): 490 members\nall 1 checks passed\n"
    b = a.replace(b"(0.3s)", b"(12.7s)")
    assert run.output_digest(run.VERIFY_OP.key, a) == run.output_digest(run.VERIFY_OP.key, b)
    assert run.output_digest("walk N 12", a) != run.output_digest("walk N 12", b)


def test_metric_names_and_units_match_benchmark_json():
    assert run.E2E_UNITS == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert run.LAYER_UNITS == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for targets in run.LAYER_MOVES.values():
        for workload, metric in targets:
            assert workload in run.WORKLOADS and metric in run.E2E_UNITS


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "walks", "--seed", "7",
         "--seconds", "1", "--trace", trace],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace == "1" else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_digest_table_covers_every_seedable_case():
    grid = run.all_ops()
    assert set(run.load_digests()) == set(grid)
    reached = set()
    for seed in range(300):
        for workload in run.WORKLOADS:
            ops = run.workload_ops(workload, seed)
            assert ops == run.workload_ops(workload, seed)
            for op in ops:
                assert grid[op.key] == op
                reached.add(op.key)
    assert reached == set(grid)


def test_exits_nonzero_without_the_program(workdir):
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(run.ROOT / "bench", workdir / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "walks", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
