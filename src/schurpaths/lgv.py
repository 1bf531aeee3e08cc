"""Weighted lattice graphs, path-weight sums, and the LGV determinant lemma.

Three weight schemes on the integer lattice (points (col, row), col
horizontal) drive everything:

* JACOBI_TRUDI: step right from (i, j) carries weight x_j, steps up carry 1.
* SCHUR_WEIGHTED: step right from (i, j) carries x_j - x_{i+j}, steps up
  carry 1; truncated, it sets every x_k with k > n to 0, after which the
  weights in the region i + j > n collapse to the Jacobi-Trudi ones.
* CAUCHY_DOUBLED: rows 1..2n; the lower half (rows <= n) moves right with
  the truncated SCHUR_WEIGHTED x-weights, the upper half (rows >= n+1) moves
  LEFT, the step into column i on row j carrying y_{2n+1-j} - y_{i+2n+1-j}
  with the y-family truncated the same way.  Every horizontal step has
  degree 1, so a path that turns at column m and returns to column 1 has
  degree 2(m - 1), and a window of c columns holds exactly the paths of
  degree <= 2(c - 1).

One sweep row by row from a source reads the sum over all directed paths
to each of its sinks (_path_sums).  path_matrix, the matrix e(a_i, b_j),
sweeps every source in one call; e_weight and path_count are its one-sink
cases and lgv_det is the determinant of path_matrix.  The other side of
the LGV lemma, the non-intersecting path systems, is walked row by row by
one transfer matrix, _sweep_systems, generic over the value it carries: it
gives their signed sum (nonintersecting_sum, schur_via_lgv), their number
and the systems themselves (enumerate_paths is one pair).

Both sweeps share one step convention.  The value standing at (col, row)
moves over the edge leaving it in the row's direction (_moves_right) and
joins what already stands at the edge's end as step(acc, value, row, col),
with acc None while nothing stands there; the step alone decides what the
edge weighs.  A sum of weights passes _product_step(scheme), acc + value *
weight(row, col) in one ring.add_mul, which reads the call's weights
through its own memo of _horizontal_weight (_weights).  A count, or the
walk that lists systems, passes _unweighted_step, which weighs no edge; the
listed systems' paths read their edge weights from one memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, partial
from typing import Iterator, NamedTuple, Sequence

from . import symfun
from .combinat import fit_shape, partition
from .ring import Polynomial, add_mul, mul, xpoly, ypoly


class OutOfBounds(ValueError):
    """A lattice point lies outside the scheme's working window."""


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

    The window is a finite acyclic graph, so every sum over its paths is
    exact.  truncated sets every x_k and y_k with k > n to 0.
    corrupt_weights is a negative-control hook: it flips the sign of the
    second variable in every SCHUR_WEIGHTED horizontal weight, which must
    make the closed-form identities fail.
    """

    kind: SchemeKind
    n: int
    col_bound: int
    truncated: bool = False
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
        truncated=truncated,
        corrupt_weights=corrupt_weights,
    )


def cauchy_doubled_scheme(n: int, col_bound: int) -> Scheme:
    return Scheme(SchemeKind.CAUCHY_DOUBLED, n=n, col_bound=col_bound, truncated=True)


def _in_window(scheme: Scheme, points: Sequence[Point]) -> list[Point]:
    """The points as Points; OutOfBounds when one lies outside the scheme's window."""
    points = [Point(*p) for p in points]
    rows = scheme.row_bound()
    for p in points:
        if not (1 <= p.col <= scheme.col_bound and p.row >= 1 and (rows is None or p.row <= rows)):
            raise OutOfBounds(f"point {tuple(p)} outside the {scheme.kind.value} window")
    return points


def _truncated(scheme: Scheme, var, index: int) -> Polynomial:
    """var(index) (xpoly or ypoly), or 0 when the scheme's truncation removes it."""
    if scheme.truncated and index > scheme.n:
        return Polynomial.zero()
    return var(index)


def _moves_right(scheme: Scheme, row: int) -> bool:
    return scheme.kind != SchemeKind.CAUCHY_DOUBLED or row <= scheme.n


def _horizontal_weight(scheme: Scheme, row: int, col: int) -> Polynomial:
    """The weight of the edge that leaves (col, row) in the row's direction of travel."""
    if _moves_right(scheme, row):
        if scheme.kind == SchemeKind.JACOBI_TRUDI:
            return xpoly(row)
        first = _truncated(scheme, xpoly, row)
        second = _truncated(scheme, xpoly, col + row)
        if scheme.corrupt_weights and scheme.kind == SchemeKind.SCHUR_WEIGHTED:
            return first + second
        return first - second
    # leftward step into col - 1 in the doubled upper half; row n+k mirrors row n+1-k
    mirrored = 2 * scheme.n + 1 - row
    return _truncated(scheme, ypoly, mirrored) - _truncated(scheme, ypoly, col - 1 + mirrored)


def _weights(scheme: Scheme):
    """weight(row, col) of the scheme's horizontal edges, each computed once per memo."""
    return cache(partial(_horizontal_weight, scheme))


def _product_step(scheme: Scheme):
    """step(acc, value, row, col) of a sweep carrying a Polynomial: acc + value * weight.

    The weight is that of the edge leaving (col, row), read through a memo
    that the step owns, so one step weighs each edge at most once.
    """
    zero, weight = Polynomial.zero(), _weights(scheme)
    return lambda acc, value, row, col: add_mul(acc or zero, value, weight(row, col))


def _unweighted_step(acc, value, row, col):
    """step(acc, value, row, col) of a sweep that carries values over edges unchanged."""
    return value if acc is None else acc + value


def _path_sums(scheme: Scheme, sources: Sequence[Point], sinks: Sequence[Point], one, step) -> list:
    """Sum over all paths from each source to each sink: one list of sink values per source.

    `one` is the value of the empty path.  step(acc, value, row, col) adds
    to acc (None while nothing has arrived) the value carried over the
    horizontal edge that leaves (col, row).  Vertical edges carry values
    unchanged.  A sink reads its value as the sweep leaves its row.  Zero
    values are dropped, so a sink's value is None when no path contributes,
    as for a sink below its source or left of it on a monotone scheme.
    Paths there never go left, so they stop at the rightmost sink's column.
    """
    sources, sinks = _in_window(scheme, sources), _in_window(scheme, sinks)
    ends: dict[int, list[tuple[int, int]]] = {}  # row -> (index, column) of its sinks
    for j, b in enumerate(sinks):
        ends.setdefault(b.row, []).append((j, b.col))
    monotone = scheme.kind != SchemeKind.CAUCHY_DOUBLED
    max_col = max((b.col for b in sinks), default=1) if monotone else scheme.col_bound
    sums = [[None] * len(sinks) for _ in sources]
    for a, found in zip(sources, sums):
        values = {a.col: one}
        for row in range(a.row, max(ends, default=0) + 1):
            forward = 1 if _moves_right(scheme, row) else -1
            for frm in range(1, max_col) if forward == 1 else range(max_col, 1, -1):
                if frm not in values:
                    continue
                to = frm + forward
                total = step(values.get(to), values[frm], row, frm)
                if total:
                    values[to] = total
                elif to in values:
                    del values[to]
            for j, col in ends.get(row, ()):
                found[j] = values.get(col)
    return sums


def path_matrix(
    scheme: Scheme, sources: Sequence[Point], sinks: Sequence[Point]
) -> symfun.PolyMatrix:
    """The matrix e(a_i, b_j) of path-weight sums, one sweep per source, each edge weighed once.

    Entry (i, j) is 0 when no path joins a_i to b_j and 1 when a_i = b_j.
    """
    sums = _path_sums(scheme, sources, sinks, Polynomial.one(), _product_step(scheme))
    entries = [value or Polynomial.zero() for row in sums for value in row]
    return symfun.PolyMatrix(len(sources), len(sinks), entries)


def e_weight(scheme: Scheme, a: Point, b: Point) -> Polynomial:
    """Sum of path weights over all directed paths from a to b: path_matrix's 1 x 1 case."""
    return path_matrix(scheme, [a], [b]).entry(0, 0)


def path_count(scheme: Scheme, a: Point, b: Point) -> int:
    """Number of directed paths from a to b inside the working window."""
    return _path_sums(scheme, [a], [b], 1, _unweighted_step)[0][0] or 0


@dataclass(frozen=True)
class LatticePath:
    """A directed path; the weight is the product of its edge weights."""

    vertices: tuple[Point, ...]
    weight: Polynomial


@dataclass(frozen=True)
class PathSystem:
    """A tuple of pairwise vertex-disjoint paths; path t runs A[t] -> B[sigma[t]]."""

    paths: tuple[LatticePath, ...]
    sigma: tuple[int, ...]
    sign: int


def system_weight(system: PathSystem) -> Polynomial:
    weight = Polynomial.one()
    for path in system.paths:
        weight = mul(weight, path.weight)
    return weight


def _permutation_sign(perm: Sequence[int]) -> int:
    inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
    return -1 if inversions % 2 else 1


def _sweep_systems(scheme: Scheme, sources, sinks, one, step, mark=None) -> dict:
    """Sum the non-intersecting systems sources -> sinks row by row, by sigma.

    The transfer-matrix method (Stanley, EC1 4.7) on the path systems of
    Gessel and Viennot (1985).  As in _path_sums the value is generic: `one`
    for the empty system, and step(acc, value, row, col) joins to acc (None
    if there is none) the value carried over the horizontal edge that leaves
    (col, row); mark(value, cols, srcs), if given, sees each state that
    survives a row.  Returns {sigma: value}.

    A state is the increasing tuple of the active paths' columns, their
    sources, and sigma so far (the sink of each finished path, else None).
    A path joins at its source; a state whose column there is taken dies.
    On each row a path covers the columns from where it stands to its exit,
    then goes up.  It ends at the first sink it reaches, whose vertex
    belongs to the path ending there, and every sink of the row must end a
    path.  Paths are vertex-disjoint exactly when their intervals on each
    row are; they move one at a time, so a path exits before the old column
    of the next one in its direction of travel (right, or left on the upper
    rows of the Cauchy doubled scheme).  States that differ only in the
    column of path k share its moves, so one sweep gives them all: the sum
    ending at d is the sum one column back times that step's weight, plus
    the state starting at d.  On monotone schemes two bounds drop dead
    states.  Path k of m (from the left, from 0) stays at or left of the
    (m - k)-th largest column among the sinks not yet reached, and at or
    right of the floor that _exit_floors gives it.
    """
    if len(sources) != len(sinks):
        raise ValueError("sources and sinks must have the same length")
    sources, sinks = _in_window(scheme, sources), _in_window(scheme, sinks)
    monotone = scheme.kind != SchemeKind.CAUCHY_DOUBLED
    joins: dict[int, list[tuple[int, int]]] = {}
    ends: dict[int, dict[int, int]] = {}
    for i, a in enumerate(sources):
        joins.setdefault(a.row, []).append((a.col, i))
    for j, b in enumerate(sinks):
        ends.setdefault(b.row, {})[b.col] = j
    rows = joins.keys() | ends.keys()
    floors = _exit_floors(joins, ends) if monotone else {}
    tops = sorted((b.col for b in sinks), reverse=True)  # the sinks not yet reached
    # (sources of the active paths, sigma) -> {columns of the active paths: value}
    groups = {((), (None,) * len(sources)): {(): one}}
    for row in range(min(rows, default=1), max(rows, default=0) + 1):
        joining, exits = joins.get(row), ends.get(row, {})
        if joining:
            joined: dict = {}
            for (srcs, sigma), states in groups.items():
                for cols, value in states.items():
                    # a taken column leaves two paths on one vertex; the moves drop that state
                    cols, srcs_now = zip(*sorted([*zip(cols, srcs), *joining]))
                    joined.setdefault((srcs_now, sigma), {})[cols] = value
            groups = joined
        forward, first = (1, min) if _moves_right(scheme, row) else (-1, max)
        row_floor = floors.get(row, [])
        for key, states in groups.items():
            m = len(key[0])
            floor = row_floor if len(row_floor) == m else [0] * m
            for k in range(m) if forward == 1 else range(m - 1, -1, -1):
                if monotone and m - k > len(tops):  # fewer sinks remain than paths to end
                    states = {}
                    break
                bound = tops[m - k - 1] if monotone else scheme.col_bound if forward == 1 else 1
                starts: dict[tuple[int, ...], dict] = {}
                for cols, value in states.items():
                    starts.setdefault(cols[:k] + cols[k + 1 :], {})[cols[k]] = value
                states = {}
                for others, start in starts.items():
                    if forward == 1:
                        far = bound if k == m - 1 else min(bound, others[k] - 1)
                    else:
                        far = bound if k == 0 else others[k - 1] + 1
                    total = None  # the walk starts at first(start), a key of start
                    for d in range(first(start), far + forward, forward):
                        if total is None:
                            total = start[d]
                        else:  # carried over the edge from d - forward
                            total = step(start.get(d), total, row, d - forward)
                        if d >= floor[k]:
                            states[others[:k] + (d,) + others[k:]] = total
            groups[key] = states
        if exits or mark is not None:
            finished: dict = {}
            for (srcs, sigma), states in groups.items():
                for cols, value in states.items():
                    ended = {s: exits[c] for c, s in zip(cols, srcs) if c in exits}
                    if len(ended) == len(exits):
                        rest = [(c, s) for c, s in zip(cols, srcs) if c not in exits]
                        done = tuple(ended.get(s, j) for s, j in enumerate(sigma))
                        value = value if mark is None else mark(value, cols, srcs)
                        key = (tuple(s for _, s in rest), done)
                        finished.setdefault(key, {})[tuple(c for c, _ in rest)] = value
            groups = finished
            tops = sorted((b.col for b in sinks if b.row > row), reverse=True)
    return {sigma: states[()] for (srcs, sigma), states in groups.items() if not srcs}


def _exit_floors(joins: dict, ends: dict) -> dict[int, list[int]]:
    """Row -> the lowest column at which each path can leave it, left to right.

    For a monotone scheme, with `joins` and `ends` as in _sweep_systems.  On
    the last sink row the paths end at its sinks in order.  Going down a
    row, the paths joining on the row above take the leftmost places, and a
    path leaves a row right of where the path to its left leaves the next
    one, since no path passes where the next one stood, and right of where
    the path to its left leaves the same row.  The floors hold only while
    no sink lies below the last sink row and every later source joins at or
    left of every earlier one, which puts it left of every active path: at
    its own column a path would stand on it.  Rows outside this stretch are
    left out.
    """
    last = max(ends, default=0)
    floors = {last: sorted(ends.get(last, {}))}
    for row in range(last - 1, min(joins, default=last) - 1, -1):
        joining = [col for col, _ in joins.get(row + 1, [])]
        earlier = [col for r, cols in joins.items() if r <= row for col, _ in cols]
        if row in ends or joining and earlier and max(joining) > min(earlier):
            break
        above, floor = floors[row + 1], []
        for i in range(len(above) - len(joining)):
            left = i + len(joining) - 1  # the path to its left on the row above
            floor.append(max(above[left] + 1 if left >= 0 else 0, floor[-1] + 1 if floor else 0))
        floors[row] = floor
    return floors


def nonintersecting_count(scheme: Scheme, sources: Sequence[Point], sinks: Sequence[Point]) -> int:
    """The number of non-intersecting path systems sources -> sinks."""
    return sum(_sweep_systems(scheme, sources, sinks, 1, _unweighted_step).values())


def nonintersecting_sum(
    scheme: Scheme, sources: Sequence[Point], sinks: Sequence[Point]
) -> Polynomial:
    """The path-system side of the LGV lemma: sign(sigma) * weight summed over the systems."""
    sums = _sweep_systems(scheme, sources, sinks, Polynomial.one(), _product_step(scheme))
    signed = [value if _permutation_sign(sigma) == 1 else -value for sigma, value in sums.items()]
    return sum(signed[1:], signed[0]) if signed else Polynomial.zero()


def nonintersecting_systems(
    scheme: Scheme, sources: Sequence[Point], sinks: Sequence[Point]
) -> Iterator[PathSystem]:
    """Yield every tuple of pairwise vertex-disjoint paths sources -> sinks.

    The row-by-row walk carries each state's partial systems as their exits
    and weighs no edge; each traced path reads its edges from one memo.
    """
    sources = [Point(*p) for p in sources]

    def mark(histories, cols, srcs):
        return [(history, tuple(zip(srcs, cols))) for history in histories]

    found = _sweep_systems(scheme, sources, sinks, [None], _unweighted_step, mark=mark)
    weight = _weights(scheme)
    traced: dict[tuple, LatticePath] = {}  # each path once, by its source and exits
    systems = []
    for sigma, histories in found.items():
        for history in histories:
            exits: list[tuple[int, ...]] = [()] * len(sources)
            while history is not None:
                history, row_exits = history
                for source, col in row_exits:
                    exits[source] = (col, *exits[source])
            for path in zip(sources, exits):
                traced[path] = traced.get(path) or _path_through(*path, weight)
            paths = tuple(traced[path] for path in zip(sources, exits))
            systems.append(PathSystem(paths, sigma, _permutation_sign(sigma)))
    # depth-first order: per source its sink, then its moves (0 horizontal, 1 vertical)
    yield from sorted(systems, key=lambda system: [
        (j, [to.row - frm.row for frm, to in zip(path.vertices, path.vertices[1:])])
        for j, path in zip(system.sigma, system.paths)
    ])


def _path_through(a: Point, exits: tuple[int, ...], weight) -> LatticePath:
    """The path from a that leaves its r-th row at column exits[r], weighed by weight(row, col)."""
    vertices = [a]
    product = Polynomial.one()
    for r, exit_col in enumerate(exits):
        col, row = vertices[-1]
        if r:
            row += 1
            vertices.append(Point(col, row))
        way = 1 if exit_col > col else -1
        vertices += [Point(c, row) for c in range(col + way, exit_col + way, way)]
        for c in range(col, exit_col, way):
            product = mul(product, weight(row, c))
    return LatticePath(tuple(vertices), product)


def enumerate_paths(scheme: Scheme, a: Point, b: Point) -> Iterator[LatticePath]:
    """Every path from a to b once, depth-first: the one-pair case of nonintersecting_systems."""
    yield from (system.paths[0] for system in nonintersecting_systems(scheme, [a], [b]))


def lgv_det(scheme: Scheme, sources: Sequence[Point], sinks: Sequence[Point]) -> Polynomial:
    """det(e(a_i, b_j)): the determinant side of the LGV lemma."""
    if len(sources) != len(sinks):
        raise ValueError("sources and sinks must have the same length")
    return symfun.det(path_matrix(scheme, sources, sinks))


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
    padded = fit_shape(shape, n)
    sources = [Point(i, 1) for i in range(1, n + 1)]
    sinks = [Point(j + padded[n - j], n) for j in range(1, n + 1)]
    return sources, sinks


def schur_via_lgv(shape: Sequence[int], n: int) -> Polynomial:
    """The Schur polynomial as the sum over non-intersecting path systems.

    The systems join the Schur endpoints on the Jacobi-Trudi scheme and are
    summed row by row, not enumerated (see _sweep_systems).  Disjoint paths
    keep their order, so each system pairs source k with sink k and has sign
    +1.  Returns 0 when the shape has more than n rows.
    """
    shape = partition(shape)
    if len(shape) > n:
        return Polynomial.zero()
    scheme = jacobi_trudi_scheme(n=n, col_bound=(shape[0] if shape else 0) + n)
    return nonintersecting_sum(scheme, *schur_endpoints(shape, n))


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


# -- SVG export -------------------------------------------------------------

_PATH_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_CELL = 40  # pixels between lattice lines
_MARGIN = 48  # pixels around each system's grid


def path_systems_svg(
    sources: Sequence[Point],
    sinks: Sequence[Point],
    systems: Sequence[PathSystem],
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
    grid_w = (max_col - 1) * _CELL
    grid_h = (max_row - 1) * _CELL
    block_h = grid_h + 2 * _MARGIN + 16
    width = grid_w + 2 * _MARGIN
    blocks = max(len(systems), 1)
    height = block_h * blocks

    def sx(col: int) -> int:
        return _MARGIN + (col - 1) * _CELL

    def sy(row: int, offset: int) -> int:
        return offset + _MARGIN + (max_row - row) * _CELL

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
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
                f'<text x="{_MARGIN}" y="{offset + block_h - 8}">'
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
