"""The benchmark's operations: CLI argument lists plus what the oracle needs.

Every operation is one in-process `schurpaths.cli.main(argv)` call.  The
operation sets are fixed per workload; the seed only shuffles their order
(and picks the oracle's evaluation points), so every seed does the same work.
"""

from __future__ import annotations

import random
from typing import NamedTuple

# Draws the fixed shape subset of `schur-det`.  Not the run's --seed, so that
# every run does the same work.
SUBSET_SEED = 0


class Op(NamedTuple):
    """One CLI call.  `kind` selects the oracle check: schur, paths or verify."""

    argv: tuple[str, ...]
    kind: str
    shape: tuple[int, ...] = ()
    n: int = 0


def partitions(min_size: int, max_size: int, max_rows: int) -> list[tuple[int, ...]]:
    """Partitions of size min_size..max_size with at most max_rows parts.

    Written here rather than imported, so that the operation list does not
    depend on the code under test.
    """

    def parts(size: int, cap: int, rows: int):
        if size == 0:
            yield ()
            return
        if rows == 0:
            return
        for first in range(min(size, cap), 0, -1):
            for rest in parts(size - first, first, rows - 1):
                yield (first, *rest)

    return [p for size in range(min_size, max_size + 1) for p in parts(size, size, max_rows)]


def shape_arg(shape: tuple[int, ...]) -> str:
    return "[" + ",".join(str(part) for part in shape) + "]"


def _schur(shape, n: int, method: str) -> Op:
    return Op(("schur", "--shape", shape_arg(shape), "--n", str(n), "--method", method), "schur", shape, n)


def _paths(shape, n: int) -> Op:
    argv = ("paths", "--preset", "schur", "--shape", shape_arg(shape), "--n", str(n), "--json")
    return Op(argv, "paths", shape, n)


def _verify(identity: str, *params: str) -> Op:
    return Op(("verify", identity, *params, "--json"), "verify")


def suite_ops() -> list[Op]:
    """One `verify` per point of the default suite grid.

    Mirrors the defaults of `SuiteConfig()` (max_partition_size 6, max_n 4,
    cauchy_cap 4, dual_max 3, newton_max 8) and the grid `run_suite` walks.
    """
    ops = [_verify("main-lemma", "--m", "6", "--n", "6"), _verify("corollary", "--n", "4", "--m", "5")]
    ops += [_verify("vandermonde", "--n", str(n)) for n in range(1, 6)]
    for identity in ("jacobi-trudi", "bialternant"):
        for n in range(1, 5):
            ops += [
                _verify(identity, "--shape", shape_arg(shape), "--n", str(n))
                for shape in partitions(0, 6, n)
            ]
    ops += [_verify("cauchy", "--n", str(n), "--degree-cap", "4") for n in (1, 2)]
    ops += [
        _verify("dual-cauchy", "--n", str(n), "--m", str(m)) for n in range(1, 4) for m in range(1, 4)
    ]
    ops += [
        _verify("dual-determinant", "--n", str(n), "--m", str(total - n))
        for total in range(2, 6)
        for n in range(1, total)
    ]
    for n in range(1, 4):
        ops += [
            _verify("factorial-schur", "--shape", shape_arg(shape), "--n", str(n))
            for shape in partitions(0, 4, n)
        ]
    ops += [_verify("newton", "--power", str(k)) for k in range(0, 9)]
    return ops


def schur_det_ops() -> list[Op]:
    """Both determinant routes for a fixed subset of the shapes of size <= 6 in 5 variables.

    Every 5-row shape is kept: (2,1,1,1,1) and (1,1,1,1,1) are the slow
    Jacobi-Trudi cases, about two thirds of the time.  Of the shapes with 0-4
    rows, half of each row count (rounded up) is drawn with SUBSET_SEED, so that
    two passes fit in one run.
    """
    rng = random.Random(SUBSET_SEED)
    shapes = []
    for rows in range(6):
        group = [shape for shape in partitions(0, 6, 5) if len(shape) == rows]
        keep = group if rows == 5 else rng.sample(group, (len(group) + 1) // 2)
        shapes += [shape for shape in group if shape in keep]
    return [_schur(shape, 5, method) for shape in shapes for method in ("jacobitrudi", "bialternant")]


def schur_paths_ops() -> list[Op]:
    """Brute-force paths at n = 5 plus tableau sums of sizes 7-8 at n = 7."""
    ops = []
    for shape in partitions(0, 5, 5):
        ops += [_schur(shape, 5, "lgv"), _paths(shape, 5)]
    ops += [_schur(shape, 7, "tableaux") for shape in partitions(7, 8, 7)]
    return ops


WORKLOADS = {
    "suite": suite_ops,
    "schur-det": schur_det_ops,
    "schur-paths": schur_paths_ops,
}
