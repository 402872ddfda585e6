"""Tests of the benchmark itself: seeded inputs, tracer hygiene, output checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_torbif()

import tracer  # noqa: E402
import workloads  # noqa: E402


def _torbif_bindings() -> dict[tuple[str, str], object]:
    return {
        (name, attr): obj
        for name, module in sys.modules.items()
        if name == "torbif" or name.startswith("torbif.")
        for attr, obj in vars(module).items()
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    def dump(seed, index):
        return json.dumps(workloads.cycle(workload, seed, index), sort_keys=True).encode()

    assert dump(7, 0) == dump(7, 0)
    assert dump(7, 3) == dump(7, 3)
    assert dump(7, 0) != dump(8, 0)
    assert dump(7, 0) != dump(7, 1)


def test_traced_run_restores_every_wrapped_function():
    import torbif.problemfile

    before = _torbif_bindings()
    original = torbif.problemfile.build_report
    t = tracer.Tracer()
    ops = workloads.cycle("report", 1, 0)[:1] + workloads.cycle("verify", 1, 0)[:1]
    with pytest.raises(RuntimeError):
        with t.installed():
            assert torbif.problemfile.build_report is not original
            for op in ops:
                assert workloads.run_op(op, {}).ok
            raise RuntimeError("leave the traced block by an exception")
    after = _torbif_bindings()
    assert after.keys() == before.keys()
    changed = [key for key, obj in before.items() if after[key] is not obj]
    assert changed == []
    assert t.collect()["agg"]["problemfile.build_report"]["calls"] == 1


def test_corrupted_golden_digest_counts_as_failure():
    op = workloads.cycle("report", 1, 0)[0]
    digest = workloads.report_digest(workloads.render_report(op["problem"])[1])
    assert workloads.run_op(op, {op["key"]: digest}).ok
    corrupted = ("0" if digest[0] != "0" else "1") + digest[1:]
    res = workloads.run_op(op, {op["key"]: corrupted})
    assert not res.ok
    assert "golden" in res.detail


def test_shipped_golden_digests_cover_the_first_cycles():
    golden = run.load_golden()
    for op in workloads.cycle("report", 1, 0):
        assert op["key"] in golden


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    def traced_counts():
        t = tracer.Tracer()
        with t.installed():
            for op in workloads.cycle(workload, 3, 0):
                assert workloads.run_op(op, {}).ok
        collected = t.collect()
        counts = {f"{k}.calls": v["calls"] for k, v in collected["agg"].items()}
        counts.update(collected["counters"])
        counts.update({f"{k}.distinct": v for k, v in collected["distinct"].items()})
        return counts

    first = traced_counts()
    assert first == traced_counts()
    keys = {
        "report": ("eulerring.star.term_pairs", "eulerring.deg_minus_id.max_terms", "spectra.sphere_spectrum.calls"),
        "verify": ("corroborate.iterations", "intlat.snf.calls"),
    }[workload]
    assert all(first[key] > 0 for key in keys)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
