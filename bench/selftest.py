"""Self-test of the benchmark itself (not of the package).

    python3 bench/selftest.py

Checks that the oracle accepts right outputs and rejects outputs with one
coefficient changed, that a timed-out operation is recorded as failed while
the run goes on, that tracing sees calls made through module aliases and
keeps self times within the traced wall time, and that the workloads match
BENCHMARK.json.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import random
import re
import sys
import time

import run
from oracle import Oracle
from tracing import Tracer
from workloads import Op, WORKLOADS

OPS = [
    Op(("schur", "--shape", "[2,1]", "--n", "3", "--method", "bialternant"), "schur", (2, 1), 3),
    Op(("schur", "--shape", "[2,2]", "--n", "3", "--method", "jacobitrudi"), "schur", (2, 2), 3),
    Op(("schur", "--shape", "[3,1]", "--n", "3", "--method", "lgv"), "schur", (3, 1), 3),
    Op(("schur", "--shape", "[]", "--n", "2", "--method", "tableaux"), "schur", (), 2),
    Op(("paths", "--preset", "schur", "--shape", "[2,1]", "--n", "3", "--json"), "paths", (2, 1), 3),
    Op(("verify", "vandermonde", "--n", "3", "--json"), "verify"),
]
SLOW = ("schur", "--shape", "[2,1,1,1,1]", "--n", "5", "--method", "jacobitrudi")


def bump_coefficient(text: str) -> str:
    """Change exactly one coefficient of canonical polynomial text."""
    match = re.search(r"(?:^|[ -])(\d+)\*", text)
    if match:
        start, end = match.span(1)
        return text[:start] + str(int(match.group(1)) + 1) + text[end:]
    if re.match(r"-?\d+$", text):
        return str(int(text) + 1)
    return re.sub(r"^(-?)", r"\g<1>2*", text, count=1)


def corruptions(op: Op, out: str) -> list[str]:
    if op.kind == "schur":
        return [bump_coefficient(out.strip()) + "\n"]
    data = json.loads(out)
    if op.kind == "verify":
        return [json.dumps({**data, "status": "MISMATCH"})]
    return [
        json.dumps({**data, "signed_sum": bump_coefficient(data["signed_sum"])}),
        json.dumps({**data, "systems": data["systems"] + 1}),
    ]


def main() -> int:
    failures = []

    def expect(condition: bool, label: str) -> None:
        print(("PASS " if condition else "FAIL ") + label)
        if not condition:
            failures.append(label)

    cli = run.load_package()
    oracle = Oracle(OPS, random.Random(7))
    for op in OPS:
        code, out, seconds, reason = run.run_op(cli, op.argv, run.OP_TIMEOUT_S)
        terms, reason = run.judge(oracle, op, code, out) if reason is None else (None, reason)
        expect(reason is None, f"right output accepted: {' '.join(op.argv)}")
        for bad in corruptions(op, out):
            _, bad_reason = run.judge(oracle, op, code, bad)
            expect(bad_reason is not None, f"corrupted output counted as failed: {bad.strip()[:60]}")
    expect(run.judge(oracle, OPS[0], 1, "x1 + x2")[1] is not None, "non-zero exit counted as failed")

    code, out, seconds, reason = run.run_op(cli, SLOW, 0.05)
    expect(seconds is None and reason.startswith("timeout"), f"timeout recorded with a null time: {reason}")
    code, out, seconds, reason = run.run_op(cli, OPS[0].argv, 5.0)
    expect(reason is None and seconds is not None, "the next operation still runs after a timeout")
    late = run.run_pass(cli, OPS, oracle, random.Random(1), deadline=time.perf_counter())
    expect(
        len(late["records"]) == len(OPS) and all(r["failed"] for r in late["records"]),
        "operations past the run deadline are kept as failed, not dropped",
    )

    ring = sys.modules["schurpaths.ring"]
    original_mul = ring.mul
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_pass(cli, OPS, oracle, random.Random(1), time.perf_counter() + 60, tracer)
    finally:
        tracer.uninstall()
    expect(all(r["failed"] is None for r in traced["records"]), "traced pass is correct")
    expect(ring.mul is original_mul, "uninstall restores the original functions")
    spec = run.load_spec()
    names = [m["name"] for m in spec["per_layer"]]
    layer = tracer.layer_metrics(names, traced["raw_wall_s"], 0.0, 0)
    expect(layer["ring.exact_div.calls"] > 0, "calls through the symfun.exact_div alias are traced")
    expect(layer["ring.add.calls"] > 0, "Polynomial.__add__ is traced")
    expect(layer["combinat.ssyt_enumerate.tableaux"] > 0, "generator yields are counted")
    expect(layer["cli.main.calls"] == len(OPS), "one cli.main span per operation")
    expect(
        layer["trace.self_sum_s"] <= traced["raw_wall_s"],
        f"self times sum within the traced wall time ({layer['trace.self_sum_s']:.4f} <= {traced['raw_wall_s']:.4f})",
    )

    expect(abs(run.hd_quantile(list(range(1, 102)), 0.5) - 51) < 1e-6, "quantile estimate of 1..101 at p50 is 51")
    expect(
        79 < run.hd_quantile(list(range(1, 101)), 0.8) < 82, "quantile estimate of 1..100 at p80 lies near 80"
    )

    expect(
        sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS), "workloads match BENCHMARK.json"
    )
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
