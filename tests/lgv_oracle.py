"""Brute-force oracle for the row-by-row path-system machine in `lgv`.

`edge_weight` weighs one lattice edge, checked step by step.  `dfs_paths`
walks every directed path depth-first and multiplies those weights, and
`brute_force_systems` assembles the non-intersecting systems from the table
of all paths between every source/sink pair.  Both are exponential and serve
only as the slow reference that the machine is checked against.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from schurpaths.lgv import (
    LatticePath,
    PathSystem,
    Point,
    Scheme,
    SchemeKind,
    _horizontal_weight,
    _in_window,
    _moves_right,
    _permutation_sign,
    system_weight,
)
from schurpaths.ring import Polynomial, mul


def edge_weight(scheme: Scheme, frm: Point, to: Point) -> Polynomial:
    """The weight of the lattice edge frm -> to, checked step by step: the sweeps' reference."""
    if to.row == frm.row + 1 and to.col == frm.col:
        return Polynomial.one()
    if to.row == frm.row and to.col - frm.col == (1 if _moves_right(scheme, frm.row) else -1):
        return _horizontal_weight(scheme, frm.row, frm.col)
    raise ValueError(f"{tuple(frm)} -> {tuple(to)} is not a lattice edge")


def dfs_paths(scheme: Scheme, a: Point, b: Point) -> Iterator[LatticePath]:
    """Yield every directed path from a to b, horizontal move tried before vertical."""
    a, b = _in_window(scheme, (a, b))
    monotone = scheme.kind != SchemeKind.CAUCHY_DOUBLED
    if b.row < a.row or monotone and b.col < a.col:
        return
    max_col = min(scheme.col_bound, b.col) if monotone else scheme.col_bound
    trail: list[Point] = [a]

    def moves(p: Point) -> list[Point]:
        out = []
        if _moves_right(scheme, p.row):
            if p.col < max_col:
                out.append(Point(p.col + 1, p.row))
        elif p.col > 1:
            out.append(Point(p.col - 1, p.row))
        if p.row < b.row:
            out.append(Point(p.col, p.row + 1))
        return out

    def walk(p: Point) -> Iterator[LatticePath]:
        if p == b:
            weight = Polynomial.one()
            for frm, to in zip(trail, trail[1:]):
                weight = mul(weight, edge_weight(scheme, frm, to))
            yield LatticePath(tuple(trail), weight)
            return
        for q in moves(p):
            trail.append(q)
            yield from walk(q)
            trail.pop()

    yield from walk(a)


def brute_force_systems(
    scheme: Scheme, sources: Sequence[Point], sinks: Sequence[Point]
) -> list[PathSystem]:
    """Every tuple of pairwise vertex-disjoint paths, source by source, sink by sink."""
    assert len(sources) == len(sinks)
    n = len(sources)
    table = [
        [[(p, frozenset(p.vertices)) for p in dfs_paths(scheme, Point(*a), Point(*b))] for b in sinks]
        for a in sources
    ]
    systems: list[PathSystem] = []
    chosen: list[tuple[int, LatticePath]] = []

    def assign(i: int, occupied: frozenset[Point]) -> None:
        if i == n:
            sigma = tuple(j for j, _ in chosen)
            paths = tuple(path for _, path in chosen)
            systems.append(PathSystem(paths, sigma, _permutation_sign(sigma)))
            return
        used = {j for j, _ in chosen}
        for j in range(n):
            if j in used:
                continue
            for path, vertices in table[i][j]:
                if occupied.isdisjoint(vertices):
                    chosen.append((j, path))
                    assign(i + 1, occupied | vertices)
                    chosen.pop()

    assign(0, frozenset())
    return systems


def brute_force_sum(systems: Sequence[PathSystem]) -> Polynomial:
    """sign(sigma) * weight summed over the given systems."""
    total = Polynomial.zero()
    for system in systems:
        weight = system_weight(system)
        total = total + weight if system.sign == 1 else total - weight
    return total
