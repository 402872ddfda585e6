"""torbif benchmark: seeded workloads through the public API, every output checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload report --seed 1 --seconds 60 --trace 0

One process is the only caller and runs a closed loop: it starts the next
operation when the previous one has returned.  It starts no threads; the only
extra threads are those of ``build_report``'s own pool.  Work is done in
cycles (see ``workloads.py``); the loop runs whole cycles as long as the next
one, at the mean cycle length so far, ends within ``--seconds``, and at least
three.  Between cycles, at evenly spaced times, it starts the fresh
interpreters that sample set-up time, so those samples span the run as well.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* ``setup_s``: median over ten fresh interpreters of the time to import
  ``torbif.cli`` and parse and validate the workload's first problem
  (spectral enumeration included; import only for workloads without one).
* ``op_s``: seconds inside torbif per operation over all cycles: one report
  (parse, ``build_report``, ``report_to_json``), one Newton solve or scan, or
  one full selftest suite set.
* ``peak_rss_mb``: peak resident memory of the benchmark process.

``--trace 1`` traces the first cycle (``tracer.py``), runs the remaining
cycles untraced, and reports the per-layer metrics: totals over the traced
cycle.  ``.calls`` and the other counts repeat exactly for a seed.  ``.s``
is busy time (thread CPU time) summed over calls, except for the functions
the benchmark calls itself (``parse_problem_dict``, ``build_report``,
``report_to_json``, ``newton_branch``, ``stability_scan``, one selftest suite),
where it is wall time.  ``trace.overhead_s`` is the traced cycle's time minus
the median untraced cycle's.  The spans are written to
``.bench_trace/<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Output checks (``workloads.py``)
count a failed operation; ``error_ratio`` is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_CYCLES = 3
MAX_MEASURE_S = 120.0
SETUP_REPS = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import torbif.cli
t1 = time.perf_counter()
problem = json.load(sys.stdin)
if problem is not None:
    from torbif.problemfile import parse_problem_dict
    parse_problem_dict(problem)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
"""


def import_torbif() -> None:
    """Import torbif from this checkout's ``src``; any other copy is an error.

    numpy's BLAS is held to one thread (the setup interpreters inherit this), so
    the only threads besides the caller are build_report's pool; the Newton
    systems are at most 130 x 130, too small to gain from more.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import torbif.cli  # noqa: F401  (loads every layer module)
    import torbif

    if Path(torbif.__file__).resolve().parent != SRC / "torbif":
        raise SystemExit(f"torbif imported from {torbif.__file__}, not from {SRC}")


def load_golden() -> dict[str, str]:
    return json.loads((HERE / "golden.json").read_text())


def setup_sample(payload: str) -> dict[str, float]:
    """One fresh interpreter: seconds to import torbif.cli, and to also parse ``payload``."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC)],
        input=payload, capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cycles(workload: str, seed: int, seconds: float, golden: dict[str, str], tracer=None) -> dict:
    """Closed loop over whole cycles; the first cycle is traced when a tracer is given.

    The SETUP_REPS set-up samples are taken between cycles, one each time the run
    passes another SETUP_REPS-th of ``seconds``, and any left over at the end.
    """
    import workloads

    payload = json.dumps(workloads.first_problem(workload, seed))
    setup: list[dict[str, float]] = []
    cycles: list[dict] = []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        index = len(cycles)
        traced = tracer is not None and index == 0
        ops = workloads.cycle(workload, seed, index)
        record = {"seconds": 0.0, "ops": workloads.operations(ops), "results": []}
        with tracer.installed() if traced else contextlib.nullcontext():
            for op in ops:
                try:
                    res = workloads.run_op(op, golden)
                except Exception:  # a crash is a failed operation; keep measuring
                    traceback.print_exc()
                    res = workloads.OpResult(0.0, 0, False, "exception")
                attempted += 1
                if not res.ok:
                    failed += 1
                    print(f"check failed: {res.detail}", file=sys.stderr)
                record["seconds"] += res.seconds
                record["results"].append((op, res))
        cycles.append(record)
        elapsed = time.perf_counter() - started
        if len(setup) < SETUP_REPS and elapsed >= len(setup) * seconds / SETUP_REPS:
            setup.append(setup_sample(payload))
            elapsed = time.perf_counter() - started
        # stop before a cycle that would end past the deadline, once MIN_CYCLES are done
        if (len(cycles) >= MIN_CYCLES and elapsed * (len(cycles) + 1) / len(cycles) > seconds) \
                or elapsed >= MAX_MEASURE_S:
            break
    setup.extend(setup_sample(payload) for _ in range(SETUP_REPS - len(setup)))
    return {
        "cycles": cycles, "attempted": attempted, "failed": failed,
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "import_s": statistics.median(s["import_s"] for s in setup),
    }


def end_to_end_metrics(run: dict) -> dict[str, float]:
    # A total over the run, not a median over cycles: the host's speed shifts for
    # tens of seconds at a time, and a median over cycles then lands on one
    # regime or the other, so run-to-run spread is larger.
    cycles = run["cycles"]
    return {
        "setup_s": run["setup_s"],
        "op_s": sum(c["seconds"] for c in cycles) / sum(c["ops"] for c in cycles),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(trace: dict, run: dict) -> dict[str, float]:
    """Per-layer figures over the traced first cycle."""
    agg, counters, distinct = trace["agg"], trace["counters"], trace["distinct"]
    first, rest = run["cycles"][0], run["cycles"][1:]

    def field(key: str, name: str) -> float:
        return agg.get(key, {}).get(name, 0)

    def calls(key: str) -> int:
        return int(field(key, "calls"))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    levels = sum(res.work for op, res in first["results"] if op["kind"] == "report")
    suites = {op["suite"]: res.seconds for op, res in first["results"] if op["kind"] == "suite"}
    from torbif.oracle import SUITE_NAMES

    m: dict[str, float] = {}
    for key in ("intlat.hermite_basis", "intlat.subgroup_intersect", "intlat.snf",
                "eulerring.deg_minus_id", "torusrep.tensor", "torusrep.direct_sum",
                "bifurcation.analyze_level", "spectra.validate",
                "corroborate.residual", "corroborate.synthesize", "corroborate.analyze"):
        m[f"{key}.calls"] = calls(key)
        m[f"{key}.s"] = field(key, "busy_s")
    m["intlat.subgroup_intersect.unique_ratio"] = ratio(
        distinct.get("intlat.subgroup_intersect", 0), calls("intlat.subgroup_intersect"))
    m["eulerring.star.calls"] = calls("eulerring.star")
    m["eulerring.star.self_s"] = field("eulerring.star", "self_s")
    m["eulerring.star.term_pairs"] = counters.get("eulerring.star.term_pairs", 0)
    m["eulerring.star.yield"] = ratio(
        counters.get("eulerring.star.out_terms", 0), counters.get("eulerring.star.term_pairs", 0))
    m["eulerring.deg_minus_id.max_terms"] = counters.get("eulerring.deg_minus_id.max_terms", 0)
    m["bifurcation.bif_index.calls"] = calls("bifurcation.bif_index")
    m["bifurcation.bif_index.per_level"] = ratio(calls("bifurcation.bif_index"), levels)
    m["bifurcation.deg_minus_id.per_level"] = ratio(calls("eulerring.deg_minus_id"), levels)
    m["bifurcation.verdict.s"] = field("bifurcation.verdict", "busy_s")
    m["bifurcation.kernel_rep.calls"] = calls("bifurcation.kernel_rep")
    m["bifurcation.negative_rep.calls"] = calls("bifurcation.negative_rep")
    m["spectra.flat_torus_spectrum.s"] = field("spectra.flat_torus_spectrum", "busy_s")
    m["spectra.sphere_spectrum.s"] = field("spectra.sphere_spectrum", "busy_s")
    m["problemfile.parse_problem_dict.s"] = field("problemfile.parse_problem_dict", "wall_s")
    m["problemfile.build_report.s"] = field("problemfile.build_report", "wall_s")
    m["problemfile.build_report.cpu_util"] = ratio(
        field("problemfile.build_report", "cpu_s"), field("problemfile.build_report", "wall_s"))
    m["problemfile.report_to_json.s"] = field("problemfile.report_to_json", "wall_s")
    m["problemfile.report_bytes"] = counters.get("problemfile.report_bytes", 0)
    m["corroborate.newton_branch.calls"] = calls("corroborate.newton_branch")
    m["corroborate.newton_branch.s"] = field("corroborate.newton_branch", "wall_s")
    m["corroborate.iterations"] = counters.get("corroborate.iterations", 0)
    m["corroborate.stability_scan.s"] = field("corroborate.stability_scan", "wall_s")
    for name in SUITE_NAMES:
        m[f"oracle.suite.{name}.s"] = suites.get(name, 0.0)
    m["cli.import_s"] = run["import_s"]
    m["trace.overhead_s"] = first["seconds"] - statistics.median(c["seconds"] for c in rest) if rest else 0.0
    return m


def write_spans(workload: str, seed: int, trace: dict) -> Path:
    out = ROOT / ".bench_trace"
    out.mkdir(exist_ok=True)
    path = out / f"{workload}-seed{seed}.json"
    spans = trace["spans"]
    t0 = min((s[4] for s in spans), default=0.0)
    doc = {
        "workload": workload,
        "seed": seed,
        "fields": ["id", "parent", "thread", "name", "start_s", "end_s"],
        "spans": [[sid, parent, thread, name, start - t0, end - t0]
                  for sid, parent, thread, name, start, end in spans],
        "aggregates": trace["agg"],
        "counters": trace["counters"],
    }
    path.write_text(json.dumps(doc))
    return path


def result_line(declared: list[dict], values: dict[str, float], run: dict) -> dict:
    names = [d["name"] for d in declared]
    if sorted(names) != sorted(values):
        raise SystemExit(f"metrics computed {sorted(values)} differ from BENCHMARK.json {sorted(names)}")
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_torbif()
    sys.path.insert(0, str(HERE))
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    golden = load_golden()
    tracer = Tracer() if args.trace else None
    run = run_cycles(args.workload, args.seed, args.seconds, golden, tracer)

    if tracer is None:
        declared = spec["end_to_end"]
        values = end_to_end_metrics(run)
    else:
        declared = spec["per_layer"]
        trace = tracer.collect()
        values = layer_metrics(trace, run)
        print(f"spans: {write_spans(args.workload, args.seed, trace)}")

    ratio = run["failed"] / run["attempted"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} cycles={len(run['cycles'])} "
          f"attempted={run['attempted']} failed={run['failed']} error_ratio={ratio:g}")
    line = result_line(declared, values, run)
    for name, metric in line["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
