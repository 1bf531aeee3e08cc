"""Weighted lattice graphs, path-weight sums, and the LGV determinant lemma.

Three weight schemes on the integer lattice (points (col, row), col
horizontal) drive everything:

* JACOBI_TRUDI: step right from (i, j) carries weight x_j, steps up carry 1.
* SCHUR_WEIGHTED: step right from (i, j) carries x_j - x_{i+j}, steps up
  carry 1; an optional truncation index nu sets every x_k with k >= nu to 0,
  after which the weights in the region i + j >= nu collapse to the
  Jacobi-Trudi ones.
* CAUCHY_DOUBLED: rows 1..2n; the lower half (rows <= n) moves right with
  the truncated SCHUR_WEIGHTED x-weights, the upper half (rows >= n+1) moves
  LEFT, the step into column i on row j carrying y_{2n+1-j} - y_{i+2n+1-j}
  with the y-family truncated the same way.  All arithmetic is capped at the
  scheme's total degree bound, which realizes the truncated power-series
  ring.

e_weight is a dynamic-programming sum over all directed paths.  The other
side of the LGV lemma, the sum over non-intersecting path systems, has two
implementations: schur_via_lgv sums the systems between the Schur endpoints
row by row (a transfer matrix over the columns the paths occupy), and
nonintersecting_systems enumerates tuples of pairwise vertex-disjoint paths
by brute force.  The brute force serves the `paths` and `render` commands,
which need the systems themselves, the Vandermonde check and the tests,
where it is the oracle for the row-by-row sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import symfun
from .combinat import partition
from .ring import Polynomial, mul, truncate, xpoly, ypoly


class OutOfBounds(ValueError):
    """A lattice point lies outside the scheme's working window."""


class TooLarge(RuntimeError):
    """A brute-force enumeration was refused to keep desk-scale runs bounded."""


class SchemeKind(Enum):
    JACOBI_TRUDI = "jacobi-trudi"
    SCHUR_WEIGHTED = "schur-weighted"
    CAUCHY_DOUBLED = "cauchy-doubled"


class Point(NamedTuple):
    col: int
    row: int


@dataclass(frozen=True)
class Scheme:
    """A weight-assignment rule plus the finite working window for it.

    corrupt_weights is a negative-control hook: it flips the sign of the
    second variable in every SCHUR_WEIGHTED horizontal weight, which must
    make the closed-form identities fail.
    """

    kind: SchemeKind
    n: int
    col_bound: int
    truncate_at: int | None = None
    degree_cap: int | None = None
    corrupt_weights: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("schemes need n >= 1")
        if self.col_bound < 1:
            raise ValueError("schemes need col_bound >= 1")

    def row_bound(self) -> int | None:
        return 2 * self.n if self.kind == SchemeKind.CAUCHY_DOUBLED else None


def jacobi_trudi_scheme(n: int, col_bound: int) -> Scheme:
    return Scheme(SchemeKind.JACOBI_TRUDI, n=n, col_bound=col_bound)


def schur_weighted_scheme(
    n: int, col_bound: int, truncated: bool = False, corrupt_weights: bool = False
) -> Scheme:
    return Scheme(
        SchemeKind.SCHUR_WEIGHTED,
        n=n,
        col_bound=col_bound,
        truncate_at=n + 1 if truncated else None,
        corrupt_weights=corrupt_weights,
    )


def cauchy_doubled_scheme(n: int, degree_cap: int) -> Scheme:
    # col_bound = degree_cap + 1 suffices: returning from column m costs
    # 2(m - 1) total degree, which the cap then discards.
    if degree_cap < 0:
        raise ValueError("degree_cap must be non-negative")
    return Scheme(
        SchemeKind.CAUCHY_DOUBLED,
        n=n,
        col_bound=degree_cap + 1,
        truncate_at=n + 1,
        degree_cap=degree_cap,
    )


def in_bounds(scheme: Scheme, p: Point) -> bool:
    if p.col < 1 or p.col > scheme.col_bound or p.row < 1:
        return False
    row_bound = scheme.row_bound()
    return row_bound is None or p.row <= row_bound


def _window(scheme: Scheme, a: Point, b: Point) -> tuple[Point, Point, int] | None:
    """(a, b, last usable column) for paths a -> b; None when there is no path.

    Raises OutOfBounds when an endpoint lies outside the window.  Paths on
    the monotone schemes never go left, so they stop at b's column.
    """
    a, b = Point(*a), Point(*b)
    for p in (a, b):
        if not in_bounds(scheme, p):
            raise OutOfBounds(f"point {tuple(p)} outside the {scheme.kind.value} window")
    if b.row < a.row:
        return None
    monotone = scheme.kind != SchemeKind.CAUCHY_DOUBLED
    if monotone and b.col < a.col:
        return None
    return a, b, min(scheme.col_bound, b.col) if monotone else scheme.col_bound


def _truncated(var, index: int, truncate_at: int | None) -> Polynomial:
    """var(index) (xpoly or ypoly), or 0 when the truncation removes it."""
    if truncate_at is not None and index >= truncate_at:
        return Polynomial.zero()
    return var(index)


def _moves_right(scheme: Scheme, row: int) -> bool:
    return scheme.kind != SchemeKind.CAUCHY_DOUBLED or row <= scheme.n


def _horizontal_weight(scheme: Scheme, frm: Point, to: Point) -> Polynomial:
    cut = scheme.truncate_at
    if to.col == frm.col + 1:
        if scheme.kind == SchemeKind.JACOBI_TRUDI:
            return xpoly(frm.row)
        first = _truncated(xpoly, frm.row, cut)
        second = _truncated(xpoly, frm.col + frm.row, cut)
        if scheme.corrupt_weights and scheme.kind == SchemeKind.SCHUR_WEIGHTED:
            return first + second
        return first - second
    # leftward step in the doubled upper half; row n+k mirrors row n+1-k
    mirrored = 2 * scheme.n + 1 - frm.row
    return _truncated(ypoly, mirrored, cut) - _truncated(ypoly, to.col + mirrored, cut)


def _edge_weight(scheme: Scheme, frm: Point, to: Point) -> Polynomial:
    if to.row == frm.row + 1 and to.col == frm.col:
        return Polynomial.one()
    if to.row == frm.row and abs(to.col - frm.col) == 1:
        return _horizontal_weight(scheme, frm, to)
    raise ValueError(f"{tuple(frm)} -> {tuple(to)} is not a lattice edge")


def _path_sum(scheme: Scheme, a: Point, b: Point, one, step):
    """Sum over all paths a -> b, by dynamic programming row by row.

    `one` is the value of the empty path and step(value, frm, to) the value
    carried over the horizontal edge frm -> to; vertical edges carry values
    unchanged.  Zero values are dropped, so the result is None when no path
    contributes.
    """
    window = _window(scheme, a, b)
    if window is None:
        return None
    a, b, max_col = window
    values = {a.col: one}
    for row in range(a.row, b.row + 1):
        if _moves_right(scheme, row):
            edges = [(col - 1, col) for col in range(2, max_col + 1)]
        else:
            edges = [(col + 1, col) for col in range(max_col - 1, 0, -1)]
        for frm, to in edges:
            incoming = values.get(frm)
            if not incoming:
                continue
            moved = step(incoming, Point(frm, row), Point(to, row))
            if not moved:
                continue
            total = values[to] + moved if to in values else moved
            if total:
                values[to] = total
            else:
                del values[to]
    return values.get(b.col)


def e_weight(scheme: Scheme, a: Point, b: Point) -> Polynomial:
    """Sum of path weights over all directed paths from a to b.

    Dynamic programming row by row; 0 when no path exists, 1 when a = b.
    """
    cap = scheme.degree_cap

    def step(value: Polynomial, frm: Point, to: Point) -> Polynomial:
        return mul(value, _horizontal_weight(scheme, frm, to), cap)

    return _path_sum(scheme, a, b, Polynomial.one(), step) or Polynomial.zero()


def path_count(scheme: Scheme, a: Point, b: Point) -> int:
    """Number of directed paths from a to b inside the working window."""
    return _path_sum(scheme, a, b, 1, lambda count, frm, to: count) or 0


@dataclass(frozen=True)
class LatticePath:
    """A directed path; the weight is the product of its edge weights."""

    vertices: tuple[Point, ...]
    weight: Polynomial

    def vertex_set(self) -> frozenset[Point]:
        return frozenset(self.vertices)


def enumerate_paths(scheme: Scheme, a: Point, b: Point) -> Iterator[LatticePath]:
    """Yield every directed path from a to b exactly once.

    Depth-first, horizontal move tried before vertical, so the order is
    deterministic.  a = b yields the single empty path of weight 1.
    """
    window = _window(scheme, a, b)
    if window is None:
        return
    a, b, max_col = window
    cap = scheme.degree_cap
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
                weight = mul(weight, _edge_weight(scheme, frm, to), cap)
            yield LatticePath(tuple(trail), weight)
            return
        for q in moves(p):
            trail.append(q)
            yield from walk(q)
            trail.pop()

    try:
        yield from walk(a)
    finally:
        walk = None  # break the closure's self-reference (see nonintersecting_systems)


@dataclass(frozen=True)
class PathSystem:
    """A tuple of pairwise vertex-disjoint paths; path t runs A[t] -> B[sigma[t]]."""

    paths: tuple[LatticePath, ...]
    sigma: tuple[int, ...]
    sign: int


def system_weight(scheme: Scheme, system: PathSystem) -> Polynomial:
    weight = Polynomial.one()
    for path in system.paths:
        weight = mul(weight, path.weight, scheme.degree_cap)
    return weight


def _permutation_sign(perm: Sequence[int]) -> int:
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def nonintersecting_systems(
    scheme: Scheme,
    sources: Sequence[Point],
    sinks: Sequence[Point],
    max_paths_per_pair: int = 1_000_000,
) -> Iterator[PathSystem]:
    """Enumerate all tuples of pairwise vertex-disjoint paths, brute force.

    Refuses with TooLarge when any single source/sink pair admits more than
    max_paths_per_pair directed paths.
    """
    if len(sources) != len(sinks):
        raise ValueError("sources and sinks must have the same length")
    n = len(sources)
    sources = [Point(*p) for p in sources]
    sinks = [Point(*p) for p in sinks]
    for a in sources:
        for b in sinks:
            if path_count(scheme, a, b) > max_paths_per_pair:
                raise TooLarge(
                    f"more than {max_paths_per_pair} paths from {tuple(a)} to {tuple(b)}"
                )
    table: list[list[list[tuple[LatticePath, frozenset[Point]]]]] = [
        [
            [(p, p.vertex_set()) for p in enumerate_paths(scheme, sources[i], sinks[j])]
            for j in range(n)
        ]
        for i in range(n)
    ]
    chosen: list[tuple[int, LatticePath]] = []

    def assign(i: int, used_sinks: set[int], occupied: frozenset[Point]) -> Iterator[PathSystem]:
        if i == n:
            sigma = tuple(j for j, _ in chosen)
            yield PathSystem(
                paths=tuple(path for _, path in chosen),
                sigma=sigma,
                sign=_permutation_sign(sigma),
            )
            return
        for j in range(n):
            if j in used_sinks:
                continue
            for path, vertex_set in table[i][j]:
                if occupied.isdisjoint(vertex_set):
                    chosen.append((j, path))
                    used_sinks.add(j)
                    yield from assign(i + 1, used_sinks, occupied | vertex_set)
                    used_sinks.discard(j)
                    chosen.pop()

    try:
        yield from assign(0, set(), frozenset())
    finally:
        # assign refers to itself through its closure; breaking that cycle
        # frees the path table now instead of at the next cyclic collection
        assign = None


def signed_sum(scheme: Scheme, systems: Iterable[PathSystem]) -> Polynomial:
    """The sum of sign(sigma) * weight over the given path systems."""
    total = Polynomial.zero()
    for system in systems:
        weight = system_weight(scheme, system)
        total = total + weight if system.sign == 1 else total - weight
    return total


def nonintersecting_sum(
    scheme: Scheme, sources: Sequence[Point], sinks: Sequence[Point]
) -> Polynomial:
    """The signed brute-force side of the LGV lemma."""
    return signed_sum(scheme, nonintersecting_systems(scheme, sources, sinks))


def lgv_det(scheme: Scheme, sources: Sequence[Point], sinks: Sequence[Point]) -> Polynomial:
    """det(e(a_i, b_j)): the determinant side of the LGV lemma.

    On a degree-capped scheme the determinant is taken in the capped ring
    (truncating afterwards is the same thing), matching the capped
    brute-force side.
    """
    if len(sources) != len(sinks):
        raise ValueError("sources and sinks must have the same length")
    matrix = symfun.PolyMatrix.from_rows(
        [[e_weight(scheme, a, b) for b in sinks] for a in sources]
    )
    determinant = symfun.det(matrix)
    if scheme.degree_cap is not None:
        determinant = truncate(determinant, scheme.degree_cap)
    return determinant


def lemma_product(m: int, n: int) -> Polynomial:
    """(x_1 - x_{m+n-1})...(x_1 - x_{n+1}); 1 when the index range is empty."""
    if m < 1 or n < 1:
        raise ValueError("lemma_product needs m, n >= 1")
    product = Polynomial.one()
    for k in range(n + 1, m + n):
        product = product * (xpoly(1) - xpoly(k))
    return product


def corollary_power(t: int, m: int, n: int) -> Polynomial:
    """x_t^(m-1): the truncated path-weight sum from (1, t) to (m, n)."""
    if not (1 <= t < n):
        raise ValueError("corollary_power needs 1 <= t < n")
    if m < 1:
        raise ValueError("corollary_power needs m >= 1")
    return xpoly(t) ** (m - 1)


def schur_endpoints(shape: Sequence[int], n: int) -> tuple[list[Point], list[Point]]:
    """Sources (i, 1) and sinks b_j = (j + lambda_{n+1-j}, n) on row n."""
    shape = partition(shape)
    if len(shape) > n:
        raise ValueError(f"shape {shape} has more than {n} rows")
    padded = shape + (0,) * (n - len(shape))
    sources = [Point(i, 1) for i in range(1, n + 1)]
    sinks = [Point(j + padded[n - j], n) for j in range(1, n + 1)]
    return sources, sinks


def schur_via_lgv(shape: Sequence[int], n: int) -> Polynomial:
    """The Schur polynomial as the sum over non-intersecting path systems.

    The systems join the Schur endpoints on the Jacobi-Trudi scheme and are
    summed row by row, not enumerated (the transfer-matrix method, Stanley,
    EC1 4.7).  A state is the strictly increasing tuple of columns that the
    n paths occupy, starting at the source columns.  On each row path k
    covers the columns c_k..d_k and then goes up; d_k stays at or left of
    sink k, since paths never go left.  The paths are vertex-disjoint
    exactly when d_k < c_{k+1}, and disjoint paths keep their order, so
    each system pairs source k with sink k and has sign +1.  The paths of a
    row move one at a time, lowest first, so the bound c_{k+1} - 1 still
    reads the old column of path k + 1.  Only the state at the sink columns
    is kept after row n.  Returns 0 when the shape has more than n rows.

    States that differ only in c_k share their moves of path k, so their
    sums arrive by one sweep from left to right: the sum ending at d is the
    sum ending at d - 1 times the step weight from d - 1 to d, plus the
    state that starts at d.  Each move's weight is thereby the product of
    the scheme's step weights over its interval.
    """
    shape = partition(shape)
    if len(shape) > n:
        return Polynomial.zero()
    width = (shape[0] if shape else 0) + n
    scheme = jacobi_trudi_scheme(n=n, col_bound=width)
    sources, sinks = schur_endpoints(shape, n)
    ends = tuple(b.col for b in sinks)
    states = {tuple(a.col for a in sources): Polynomial.one()}
    for row in range(1, n + 1):
        steps = {
            c: _horizontal_weight(scheme, Point(c, row), Point(c + 1, row))
            for c in range(1, width)
        }
        for k in range(n):
            starts: dict[tuple[int, ...], dict[int, Polynomial]] = {}
            for state, value in states.items():
                starts.setdefault(state[:k] + state[k + 1 :], {})[state[k]] = value
            states = {}
            for others, start in starts.items():
                last = ends[k] if k == n - 1 else min(ends[k], others[k] - 1)
                d = min(start)
                total = start[d]
                while True:
                    states[others[:k] + (d,) + others[k:]] = total
                    if d == last:
                        break
                    total = mul(total, steps[d], scheme.degree_cap)
                    d += 1
                    if d in start:
                        total = total + start[d]
    return states.get(ends, Polynomial.zero())


def vandermonde_scheme(n: int) -> Scheme:
    return schur_weighted_scheme(n=n, col_bound=n, truncated=True)


def vandermonde_endpoints(n: int) -> tuple[list[Point], list[Point]]:
    """Sources (1, i) and sinks b_j = (n+1-j, n)."""
    if n < 1:
        raise ValueError("vandermonde_endpoints needs n >= 1")
    sources = [Point(1, i) for i in range(1, n + 1)]
    sinks = [Point(n + 1 - j, n) for j in range(1, n + 1)]
    return sources, sinks


def bialternant_endpoints(
    shape: Sequence[int], n: int
) -> tuple[list[Point], list[Point], list[Point]]:
    """The (a'', a', b) endpoint families of the bialternant reduction.

    a'_i = (i, n-i+1) slides the i-th Schur source up its forced vertical
    run; a''_i = (1, n-i+1) pushes it to the first column; b is the Schur
    sink list.
    """
    shape = partition(shape)
    if len(shape) > n:
        raise ValueError(f"shape {shape} has more than {n} rows")
    double_primed = [Point(1, n - i + 1) for i in range(1, n + 1)]
    primed = [Point(i, n - i + 1) for i in range(1, n + 1)]
    _, sinks = schur_endpoints(shape, n)
    return double_primed, primed, sinks


def cauchy_endpoints(n: int) -> tuple[list[Point], list[Point]]:
    """Sources (1, i) below the cut and sinks b_j = (1, 2n+1-j) above it."""
    if n < 1:
        raise ValueError("cauchy_endpoints needs n >= 1")
    sources = [Point(1, i) for i in range(1, n + 1)]
    sinks = [Point(1, 2 * n + 1 - j) for j in range(1, n + 1)]
    return sources, sinks


def cauchy_entry(n: int, i: int, j: int, series_cap: int) -> Polynomial:
    """e(a_i, b_j) on the doubled graph: the geometric sum of (x_i y_j)^k.

    series_cap bounds the power k; internally the scheme caps total degree
    at 2 * series_cap, which keeps exactly the powers k <= series_cap.
    """
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("endpoint indices must lie in 1..n")
    scheme = cauchy_doubled_scheme(n, 2 * series_cap)
    sources, sinks = cauchy_endpoints(n)
    return e_weight(scheme, sources[i - 1], sinks[j - 1])


# -- SVG export -------------------------------------------------------------

_PATH_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def path_systems_svg(
    scheme: Scheme,
    sources: Sequence[Point],
    sinks: Sequence[Point],
    systems: Sequence[PathSystem],
    cell: int = 40,
    margin: int = 48,
) -> str:
    """Render path systems as one combined SVG, stacked vertically.

    Row 1 sits at the bottom (lattice convention).  Each system block shows
    the grid, one polyline per path, filled circles for sources and open
    circles for sinks, with their labels.
    """
    points = [Point(*p) for p in list(sources) + list(sinks)]
    for system in systems:
        for path in system.paths:
            points.extend(path.vertices)
    max_col = max([p.col for p in points] + [2])
    max_row = max([p.row for p in points] + [2])
    grid_w = (max_col - 1) * cell
    grid_h = (max_row - 1) * cell
    block_h = grid_h + 2 * margin + 16
    width = grid_w + 2 * margin
    height = block_h * max(len(systems), 1)

    def sx(col: int) -> int:
        return margin + (col - 1) * cell

    def sy(row: int, offset: int) -> int:
        return offset + margin + (max_row - row) * cell

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    blocks = max(len(systems), 1)
    for block in range(blocks):
        offset = block * block_h
        parts.append('<g font-family="sans-serif" font-size="12">')
        for col in range(1, max_col + 1):
            parts.append(
                f'<line x1="{sx(col)}" y1="{sy(max_row, offset)}" '
                f'x2="{sx(col)}" y2="{sy(1, offset)}" stroke="#cccccc"/>'
            )
        for row in range(1, max_row + 1):
            parts.append(
                f'<line x1="{sx(1)}" y1="{sy(row, offset)}" '
                f'x2="{sx(max_col)}" y2="{sy(row, offset)}" stroke="#cccccc"/>'
            )
        if block < len(systems):
            system = systems[block]
            for index, path in enumerate(system.paths):
                color = _PATH_COLORS[index % len(_PATH_COLORS)]
                coords = " ".join(
                    f"{sx(p.col)},{sy(p.row, offset)}" for p in path.vertices
                )
                parts.append(
                    f'<polyline points="{coords}" fill="none" '
                    f'stroke="{color}" stroke-width="3"/>'
                )
            sign = "+1" if system.sign == 1 else "-1"
            parts.append(
                f'<text x="{margin}" y="{offset + block_h - 8}">'
                f"system {block + 1}: sign {sign}</text>"
            )
        for index, p in enumerate(sources):
            parts.append(
                f'<circle cx="{sx(p.col)}" cy="{sy(p.row, offset)}" r="5" fill="#000000"/>'
            )
            parts.append(
                f'<text x="{sx(p.col) - 18}" y="{sy(p.row, offset) + 4}">a{index + 1}</text>'
            )
        for index, p in enumerate(sinks):
            parts.append(
                f'<circle cx="{sx(p.col)}" cy="{sy(p.row, offset)}" r="5" '
                f'fill="#ffffff" stroke="#000000"/>'
            )
            parts.append(
                f'<text x="{sx(p.col) + 8}" y="{sy(p.row, offset) - 8}">b{index + 1}</text>'
            )
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)
