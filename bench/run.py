"""schurpaths benchmark: closed-loop in-process CLI calls, checked by an oracle.

    python3 bench/run.py --workload suite --seed 1 --seconds 35 --trace 0

Each operation is one `schurpaths.cli.main(argv)` call, made from one
process and one thread; the next call starts when the previous one returns.
A pass runs every operation of the workload once, in an order shuffled from
the seed.  With `--trace 0` the run repeats whole passes while another one
still fits in `--seconds` (at least two passes) and reports the end-to-end
metrics as medians over passes, scaled to a reference speed.  With
`--trace 1` it runs one untraced and one traced pass and reports the
per-layer metrics of the traced pass.

Outputs are checked after each pass, outside the timed region.  An operation
fails on a non-zero exit, an exception, a wrong output or a timeout; a failed
operation is kept, with its reason and (for a timeout) a null time.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  Per-operation records and metadata go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracle import Oracle
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
SETUP_REPEATS = 11
# Every operation is timed at least twice (when two passes fit in the run
# deadline), so that per-operation latencies are medians even on a workload
# whose pass fills most of the run.
MIN_PASSES = 2
OP_TIMEOUT_S = 60.0
# Whole-run cap, so that the process ends within 180 s even if operations hang.
RUN_DEADLINE_S = 150.0
# The host's speed drifts by up to 2x for seconds to minutes at a time, and
# the CPU time of the process drifts with it.  So every reported time is
# scaled to a reference speed: the time `reference_seconds` measures next to
# it, against REFERENCE_S, the time that loop takes when the host is quiet
# on the machine the benchmark was defined on (2-core Intel Xeon, Python
# 3.11.7).
REFERENCE_S = 0.00025
_REFERENCE_PAIRS = tuple((i % 53, i % 47) for i in range(1500))


class OpTimeout(BaseException):
    """Raised by the alarm inside an operation that ran past its timeout.

    A BaseException, so that no `except Exception` in the code under test
    swallows it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout


def tail_percentile(ops_per_pass: int) -> int:
    """The highest multiple-of-5 percentile with at least ten operations beyond it."""
    p = 95
    while p > 50 and ops_per_pass * (100 - p) / 100 < 10:
        p -= 5
    return p


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (Biometrika 69, 1982).

    A Beta(p(n+1), (1-p)(n+1))-weighted average of all order statistics.  With
    only a few dozen operations, each timed a couple of times on a noisy
    machine, it is much steadier than the single order statistic it replaces.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 200  # midpoint-rule steps per order statistic
    weights = [0.0] * n
    for s in range(steps * n):
        t = (s + 0.5) / (steps * n)
        weights[s // steps] += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def reference_seconds() -> float:
    """The fastest of three runs of a fixed loop: the machine's speed right now.

    The loop builds a dictionary keyed by small tuples of integers, like the
    library's polynomial products.  The collector is off while it runs, so
    that it neither triggers nor pays for collecting what the library left;
    everything it allocates is freed before the collector is back on.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            terms = {}
            for a, b in _REFERENCE_PAIRS:
                key = (a, b, a + b)
                terms[key] = terms.get(key, 0) + a * b
            del terms
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if was_enabled:
            gc.enable()


def load_package():
    """Import schurpaths afresh from this checkout's src/ (never an installed copy)."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "schurpaths" or m.startswith("schurpaths.")]:
        del sys.modules[name]
    import schurpaths.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"schurpaths was imported from {cli.__file__}, not from {src}")
    return cli


def setup(workload: str, seed: int):
    """Import the package, generate the operations and precompute the oracle."""
    cli = load_package()
    ops = WORKLOADS[workload]()
    rng = random.Random(seed)
    oracle = Oracle(ops, rng)
    return cli, ops, oracle, rng


def run_op(cli, argv, timeout_s: float):
    """One CLI call; returns (exit code, stdout, seconds or None, failure reason or None)."""
    if timeout_s <= 0:
        return None, "", None, "not started: run deadline passed"
    out, err = io.StringIO(), io.StringIO()
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return None, out.getvalue(), None, f"timeout after {timeout_s:g} s"
    except Exception as exc:  # one broken operation must not end the run
        return None, out.getvalue(), None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if code != 0:
        return code, out.getvalue(), seconds, f"exit code {code}: {err.getvalue().strip()[:200]}"
    return code, out.getvalue(), seconds, None


def run_pass(cli, ops, oracle, rng, deadline: float, tracer=None) -> dict:
    """Run every operation once in a shuffled order, then check the outputs.

    The reference loop runs before the first operation and after each one;
    an operation's `scale` is REFERENCE_S over the mean of the two runs
    around it.  The pass's `wall_s` and `cpu_s` are sums over its operations
    of their scaled times, `raw_wall_s` and `raw_cpu_s` the unscaled sums.
    """
    order = list(range(len(ops)))
    rng.shuffle(order)
    results = []
    reference = reference_seconds()
    for index in order:
        if tracer is not None:
            tracer.op_id = index
        timeout = min(OP_TIMEOUT_S, deadline - time.perf_counter())
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = run_op(cli, ops[index].argv, timeout)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        after = reference_seconds()
        results.append((index, wall, cpu, 2 * REFERENCE_S / (reference + after), *result))
        reference = after
    records = []
    for index, wall, cpu, scale, code, out, seconds, reason in results:
        terms = None
        if reason is None:
            terms, reason = judge(oracle, ops[index], code, out)
        records.append(
            {
                "op": index,
                "seconds": seconds,
                "scale": scale,
                "failed": reason,
                "terms": terms,
                "out_bytes": len(out.encode()),
            }
        )
    return {
        "wall_s": sum(wall * scale for _, wall, _, scale, *_ in results),
        "cpu_s": sum(cpu * scale for _, _, cpu, scale, *_ in results),
        "raw_wall_s": sum(wall for _, wall, *_ in results),
        "raw_cpu_s": sum(cpu for _, _, cpu, *_ in results),
        "records": records,
    }


def judge(oracle, op, code, out: str):
    """(output term count, None) for a right output, (None, reason) for a wrong one."""
    try:
        return oracle.check(op, code, out), None
    except Exception as exc:  # any malformed output is a failed operation
        return None, f"wrong output: {type(exc).__name__}: {exc}"


def end_to_end(passes, setup_times, percentile: int) -> dict[str, float]:
    # Scaled times, unlike raw ones, err in both directions (when the host
    # slows the reference loop more or less than the operation next to it),
    # so each operation's latency is its median over the passes, and so are
    # the pass times.  A failed attempt counts as the timeout, so it ranks
    # above every completed one.
    samples: dict[int, list[float]] = {}
    for p in passes:
        for r in p["records"]:
            ms = r["seconds"] * r["scale"] * 1000 if r["failed"] is None else OP_TIMEOUT_S * 1000
            samples.setdefault(r["op"], []).append(ms)
    latencies = [statistics.median(values) for values in samples.values()]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "op_p50_ms": hd_quantile(latencies, 0.5),
        "op_tail_ms": hd_quantile(latencies, percentile / 100),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def load_spec() -> dict:
    """BENCHMARK.json: the only place that names the metrics, their units and the run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def with_units(values: dict[str, float], listed: list[dict]) -> dict[str, tuple[float, str]]:
    """The `listed` metrics of BENCHMARK.json, in its order, with their units."""
    return {m["name"]: (values[m["name"]], m["unit"]) for m in listed}


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:  # no git on this machine
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()

    setup_times = []
    try:
        reference = reference_seconds()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            cli, ops, oracle, rng = setup(args.workload, args.seed)
            seconds = time.perf_counter() - t0
            after = reference_seconds()
            setup_times.append(seconds * 2 * REFERENCE_S / (reference + after))
            reference = after
    except ImportError as exc:
        print(f"error: cannot import the package under test: {exc}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_DEADLINE_S
    percentile = tail_percentile(len(ops))
    passes = []
    metrics: dict[str, tuple[float, str]]
    if args.trace:
        untraced = run_pass(cli, ops, oracle, rng, deadline)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, ops, oracle, rng, deadline, tracer)
        finally:
            tracer.uninstall()
        passes = [untraced, traced]
        out_bytes = sum(r["out_bytes"] for r in traced["records"])
        names = [m["name"] for m in spec["per_layer"]]
        # Self times are raw, so they are bounded by the raw traced wall time;
        # the overhead compares the two passes at the reference speed.
        overhead = traced["wall_s"] - untraced["wall_s"]
        layer = tracer.layer_metrics(names, traced["raw_wall_s"], overhead, out_bytes)
        metrics = with_units(layer, spec["per_layer"])
    else:
        started = time.perf_counter()
        while True:
            passes.append(run_pass(cli, ops, oracle, rng, deadline))
            used = time.perf_counter() - started
            next_end = used + used / len(passes)
            if next_end > (args.seconds if len(passes) >= MIN_PASSES else RUN_DEADLINE_S):
                break
        metrics = with_units(end_to_end(passes, setup_times, percentile), spec["end_to_end"])

    attempted = sum(len(p["records"]) for p in passes)
    failed = sum(1 for p in passes for r in p["records"] if r["failed"] is not None)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.trace:
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}.tsv.gz")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "ops_per_pass": len(ops),
        "op_tail_percentile": percentile,
        "setup_s": setup_times,
        "failed_ratio": failed / attempted,
        "ops": [
            {
                "argv": list(op.argv),
                "terms": next(r["terms"] for r in passes[0]["records"] if r["op"] == i),
                "seconds": [r["seconds"] for p in passes for r in p["records"] if r["op"] == i],
                "scale": [r["scale"] for p in passes for r in p["records"] if r["op"] == i],
            }
            for i, op in enumerate(ops)
        ],
        "failures": [
            {"argv": list(ops[r["op"]].argv), "reason": r["failed"], "seconds": r["seconds"]}
            for p in passes
            for r in p["records"]
            if r["failed"] is not None
        ],
        "passes": [{key: value for key, value in p.items() if key != "records"} for p in passes],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(meta, indent=1) + "\n")

    print(f"workload {args.workload}: {len(ops)} ops/pass, {len(passes)} passes, seed {args.seed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6f} {unit}")
    print(f"  {'failed_ratio':44s} {failed / attempted:14.6f} ratio  ({failed}/{attempted})")
    if not args.trace:
        print(f"  op_tail_ms is p{percentile}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
