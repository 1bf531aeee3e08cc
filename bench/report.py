"""Run every workload untraced and traced, and print all metrics in one table.

    python3 bench/report.py

Each run uses seed 1 and the run length of BENCHMARK.json.  Each run is a separate `run.py` process, so that peak memory is per
workload.  The table shows every end-to-end metric with its unit, the
failed ratio, the percentile behind op_tail_ms, the tracing overhead and the
per-layer metrics.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import OUT_DIR, ROOT, load_spec
from workloads import WORKLOADS


SEED = 1


def main() -> int:
    seconds = load_spec()["run_seconds"]
    columns = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                       "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(command, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            meta = json.loads((OUT_DIR / f"{workload}-trace{trace}.json").read_text())
            column = columns.setdefault(workload, {})
            column.update({name: (m["value"], m["unit"]) for name, m in result["metrics"].items()})
            if not trace:
                column["failed_ratio"] = (meta["failed_ratio"], "ratio")
                column["op_tail_percentile"] = (meta["op_tail_percentile"], "pct")

    names = list(next(iter(columns.values())))
    print(f"{'metric':44s}" + "".join(f"{w:>16s}" for w in columns) + "  unit")
    for name in names:
        unit = columns[next(iter(columns))][name][1]
        print(f"{name:44s}" + "".join(f"{columns[w][name][0]:16.6g}" for w in columns) + f"  {unit}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
