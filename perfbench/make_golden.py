"""Regenerate golden.json: the sha256 of every report in the first cycles of seeds 0-10.

    python3 perfbench/make_golden.py

The digests pin the exact bytes of ``torbif report --format json`` on the
report workload, so a change that must keep reports byte-identical is checked
by every benchmark run on these seeds.  Regenerate only for an intended change
of report output, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEEDS = range(11)
CYCLES = 8


def main() -> None:
    run.import_torbif()
    import workloads

    golden = {}
    for seed in SEEDS:
        for index in range(CYCLES):
            for op in workloads.cycle("report", seed, index):
                golden[op["key"]] = workloads.report_digest(workloads.render_report(op["problem"])[1])
        print(f"seed {seed}: {len(golden)} digests", flush=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
