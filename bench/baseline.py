"""One-shot baseline cases from the roadmap, each under a timeout.

    python3 bench/baseline.py

Informational only: these cases are outside the gated workloads of
run.py.  Each case runs once, in process, through the library API.  A case
over the timeout is recorded with a null time and the reason.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import time

import run

# Above the slowest case the roadmap lists (about 195 s), so that every case
# reports a time at the seed state.
TIMEOUT_S = 300.0
OUT = run.ROOT / "bench" / "BENCH_baseline.json"


def cases():
    """(name, thunk) for each baseline case; a thunk returns a JSON-able summary."""
    from schurpaths import identities, lgv, ring, symfun

    def terms(poly):
        return {"terms": len(poly)}

    def suite(config):
        reports = identities.run_suite(config)
        by_identity = {}
        for report in reports:
            by_identity[report.identity] = by_identity.get(report.identity, 0) + report.elapsed_ms
        return {"all_verified": identities.all_verified(reports), "elapsed_ms_by_identity": by_identity}

    h4, h5 = symfun.complete_homogeneous(4, 7), symfun.complete_homogeneous(5, 7)
    return [
        ("jacobi_trudi((2,2,1,1,1),7)", lambda: terms(symfun.jacobi_trudi((2, 2, 1, 1, 1), 7))),
        ("bialternant((3,2,2,1),6)", lambda: terms(symfun.bialternant((3, 2, 2, 1), 6))),
        ("schur_via_lgv((2,2,1,1,1),7)", lambda: terms(lgv.schur_via_lgv((2, 2, 1, 1, 1), 7))),
        (f"ring.mul h4*h5 in 7 variables ({len(h4)} x {len(h5)} terms)", lambda: terms(ring.mul(h4, h5))),
        ("run_suite() default config", lambda: suite(identities.SuiteConfig())),
        ("run_suite() max_n=5", lambda: suite(identities.SuiteConfig(max_n=5))),
    ]


def main() -> int:
    run.load_package()
    signal.signal(signal.SIGALRM, run._on_alarm)
    results = []
    for name, thunk in cases():
        record = {"case": name, "seconds": None, "reason": None, "result": None}
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
            try:
                record["result"] = thunk()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            record["seconds"] = time.perf_counter() - start
        except run.OpTimeout:
            record["reason"] = f"timeout after {TIMEOUT_S:g} s"
        results.append(record)
        shown = "null" if record["seconds"] is None else f"{record['seconds']:.3f} s"
        print(f"{name:50s} {shown:>12s}  {record['reason'] or ''}", flush=True)

    report = {
        "label": "baseline",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": run.git_commit(),
        "timeout_s": TIMEOUT_S,
        "cases": results,
    }
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
