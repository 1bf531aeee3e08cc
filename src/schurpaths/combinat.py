"""Partitions, semistandard Young tableaux, and tableau-sum Schur polynomials.

Partitions are canonical tuples of weakly decreasing positive ints (trailing
zeros stripped; the empty partition is ()).  A tableau of shape lambda is a
tuple of rows, row i holding lambda_i letters from 1..n, weakly increasing
along rows and strictly increasing down columns.

Both tableau sums, plain and factorial, walk the tableaux as chains of
horizontal strips (`_strip_sums`).  `ssyt_enumerate` lists the tableaux one
by one, and `ssyt_count` counts them by the hook-content formula.
"""

from __future__ import annotations

from functools import cache
from itertools import groupby, product
from math import gcd
from typing import Callable, Iterable, Iterator

from .ring import Polynomial, add_mul, apoly, x_shift_sums, x_word_sum, xpoly

Partition = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]


def partition(parts: Iterable[int]) -> Partition:
    """Canonicalize and validate a partition (strip trailing zeros)."""
    tup = tuple(int(p) for p in parts)
    for left, right in zip(tup, tup[1:]):
        if left < right:
            raise ValueError(f"parts must be weakly decreasing, got {tup}")
    if tup and tup[-1] < 0:
        raise ValueError(f"parts must be non-negative, got {tup}")
    while tup and tup[-1] == 0:
        tup = tup[:-1]
    return tup


def partition_text(shape: Partition) -> str:
    """CLI text form, e.g. "[2,1]"; the empty partition is "[]"."""
    return "[" + ",".join(str(p) for p in shape) + "]"


def parse_partition(text: str) -> Partition:
    """Parse the "[2,1]" text form."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"partition must look like [2,1], got {text!r}")
    inner = s[1:-1].strip()
    if not inner:
        return ()
    try:
        parts = [int(chunk.strip()) for chunk in inner.split(",")]
    except ValueError:
        raise ValueError(f"partition parts must be integers, got {text!r}") from None
    return partition(parts)


def fit_shape(parts: Iterable[int], n: int) -> tuple[int, ...]:
    """Validate a shape as `partition` does and pad it with zeros to length n.

    Every route to s_lambda(x_1..x_n) needs at most n rows; more are refused.
    """
    shape = partition(parts)
    if len(shape) > n:
        raise ValueError(f"shape {shape} has more than {n} rows")
    return shape + (0,) * (n - len(shape))


def conjugate(shape: Partition) -> Partition:
    """Transpose of the Young diagram; an involution."""
    shape = partition(shape)
    if not shape:
        return ()
    return tuple(sum(1 for part in shape if part > i) for i in range(shape[0]))


def partitions_in_box(max_rows: int, max_cols: int) -> list[Partition]:
    """All partitions fitting in a max_rows x max_cols box.

    Ordered by size, then within a size by largest first part first; the
    count is C(max_rows + max_cols, max_rows).
    """
    if max_rows < 0 or max_cols < 0:
        raise ValueError("box dimensions must be non-negative")

    def generate(room: int, cap: int) -> Iterator[Partition]:
        yield ()
        if room == 0 or cap == 0:
            return
        for first in range(1, cap + 1):
            for rest in generate(room - 1, first):
                yield (first, *rest)

    return sorted(
        generate(max_rows, max_cols),
        key=lambda p: (sum(p), tuple(-part for part in p)),
    )


def ssyt_enumerate(shape: Partition, n: int) -> Iterator[Tableau]:
    """Yield every semistandard tableau of the shape with letters 1..n.

    Cells are filled row-major (left to right, top to bottom), smallest legal
    letter first, so the stream order is deterministic.  The stream is empty
    when the shape has more than n rows.
    """
    shape = partition(shape)
    if len(shape) > n:
        return
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    grid = [[0] * width for width in shape]

    def fill(k: int) -> Iterator[Tableau]:
        if k == len(cells):
            yield tuple(tuple(row) for row in grid)
            return
        r, c = cells[k]
        low = 1
        if c > 0:
            low = max(low, grid[r][c - 1])
        if r > 0:
            low = max(low, grid[r - 1][c] + 1)
        for letter in range(low, n + 1):
            grid[r][c] = letter
            yield from fill(k + 1)

    yield from fill(0)


def ssyt_count(shape: Partition, n: int, stop: int | None = None) -> int:
    """The number of semistandard tableaux of the shape with letters 1..n, exact in integers.

    The hook-content formula s_lambda(1^n) taken row pair by row pair, as the
    product over rows i < j <= n of (lambda_i - lambda_j + j - i) / (j - i).
    Rows of equal length give 1.  A run of `size` equal rows, each d shorter
    than row i, starting c rows below it, gives
    (c + d)...(c + d + size - 1) / c...(c + size - 1), written as the
    min(d, size) factors (c + max(d, size) + t) / (c + t).  So a long row and
    a long run of empty rows cost one factor: `[10000000]` at n = 2 is one.
    Every factor is at least 1, so the product never falls: given `stop`, the
    count ends once the product passes it and returns the product rounded up,
    a lower bound of the count past `stop`.  0 when the shape has more than n
    rows.
    """
    shape = partition(shape)
    if len(shape) > n:
        return 0
    runs = [(part, len(list(equal))) for part, equal in groupby(shape)] + [(0, n - len(shape))]
    num, den, first = 1, 1, 0  # the product num / den in lowest terms; the top row of run r
    for r, (part, rows) in enumerate(runs[:-1]):  # no row is shorter than the last run
        for i in range(first, first + rows):
            top = first + rows  # the top row of the run below
            for low, size in runs[r + 1 :]:
                c, d = top - i, part - low
                for t in range(min(d, size)):
                    num, den = num * (c + max(d, size) + t), den * (c + t)
                    common = gcd(num, den)
                    num, den = num // common, den // common
                    if stop is not None and num > stop * den:
                        return -(-num // den)
                top += size
        first += rows
    return num // den


def tableau_monomial(tableau: Tableau) -> Polynomial:
    """x^T: the product of x_i^(number of letters i in T)."""
    return x_word_sum([sum(tableau, ())])


def _strip_sums(shape: Partition, n: int, add_letter: Callable[[int, dict], dict]) -> Polynomial:
    """Sum a weight over the tableaux of the shape with letters 1..n, strip by strip.

    By the branching rule (Macdonald, Symmetric Functions, I.(5.11)), a tableau
    is a chain () = mu^0 <= ... <= mu^n = lambda of horizontal strips, mu^k
    holding the letters <= k.  add_letter(k, moves) gets, under each nu, the
    pairs (mu, sum over the fillings of mu by 1..k-1) of the strips mu -> nu,
    and returns the sums at each nu.  1 for the empty shape, 0 past n rows.
    """
    shape = partition(shape)
    if len(shape) > n:
        return Polynomial.zero()
    sums = {(0,) * len(shape): Polynomial.one()}
    for letter in range(1, n + 1):
        # the letters letter+1..n fill at most n - letter cells of each column
        floor = shape[n - letter :] + (0,) * (n - letter)
        moves: dict[tuple[int, ...], list[tuple[tuple[int, ...], Polynomial]]] = {}
        for mu, terms in sums.items():
            # a horizontal strip: mu_i <= nu_i <= mu_(i-1), within lambda and above the floor
            ranges = [
                range(max(part, low), min(top, above) + 1)
                for part, low, top, above in zip(mu, floor, shape, shape[:1] + mu)
            ]
            for nu in product(*ranges):
                moves.setdefault(nu, []).append((mu, terms))
        sums = add_letter(letter, moves)
    return sums[shape]


def schur_tableaux(shape: Partition, n: int) -> Polynomial:
    """The Schur polynomial as the sum of x^T over all SSYT of the shape (0 past n rows).

    The strip walk weighs the letter k on a strip mu -> nu by x_k^(|nu| - |mu|).
    Each monomial is the content of one tableau, so no symmetry is assumed.
    """
    def add_letter(letter, moves):
        shifts = {nu: [(p, sum(nu) - sum(mu)) for mu, p in pairs] for nu, pairs in moves.items()}
        return x_shift_sums(shifts, letter)

    return _strip_sums(shape, n, add_letter)


def factorial_schur_tableaux(shape: Partition, n: int) -> Polynomial:
    """The factorial Schur polynomial: the sum over tableaux of the cell products.

    The cell (i, j) holding v gives x_v - a_(v + j - i) (Macdonald, Schur functions: theme
    and variations, 1992, sixth variation); the strip walk weighs the letter v on a strip
    mu -> nu by the row segments prod_{mu_i < j <= nu_i} (x_v - a_(v + j - i)), each built
    once.  Column strictness gives v >= i, so every index is at least 1.
    """
    @cache
    def segment(v: int, i: int, low: int, high: int) -> Polynomial:
        cell = xpoly(v) - apoly(v + high - i)
        return cell if high == low + 1 else segment(v, i, low, high - 1) * cell

    def add_letter(letter, moves):
        sums = dict.fromkeys(moves, Polynomial.zero())
        for nu, pairs in moves.items():
            for mu, terms in pairs:
                weight = Polynomial.one()
                for i, (low, high) in enumerate(zip(mu, nu), 1):
                    if low < high:
                        weight = weight * segment(letter, i, low, high)
                sums[nu] = add_mul(sums[nu], terms, weight)
        return sums

    return _strip_sums(shape, n, add_letter)
