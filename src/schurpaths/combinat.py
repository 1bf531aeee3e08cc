"""Partitions, semistandard Young tableaux, and tableau-sum Schur polynomials.

Partitions are canonical tuples of weakly decreasing positive ints (trailing
zeros stripped; the empty partition is ()).  A tableau of shape lambda is a
tuple of rows, row i holding lambda_i letters from 1..n, weakly increasing
along rows and strictly increasing down columns.

Both tableau sums, plain and factorial, walk the tableaux as chains of
horizontal strips (`_strip_sums`).  The plain sum meets in the middle: the
low letters step up from (), the high letters peel strips down from the
shape, and the two halves join once at the meeting letter.  The factorial
sum steps up through every letter.  `ssyt_enumerate` lists the tableaux one
by one, and `ssyt_count` counts them by the hook-content formula.
"""

from __future__ import annotations

from functools import cache
from itertools import groupby, product
from math import gcd
from typing import Callable, Iterable, Iterator

from .ring import Polynomial, add_mul, apoly, sum_of_products, x_shift_sums, x_word_sum, xpoly

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


def _strip_sums(
    shape: Partition, n: int, meet: int, add_letter: Callable[[dict, int], dict], start: object
) -> object:
    """Sum a weight over the tableaux of the shape with letters 1..n, strip by strip.

    By the branching rule (Macdonald, Symmetric Functions, I.(5.11)), a tableau
    is a chain () = mu^0 <= ... <= mu^n = lambda of horizontal strips, mu^k
    holding the letters <= k.  It splits at mu^meet into a tableau of shape
    mu^meet with letters 1..meet and a skew tableau of shape lambda/mu^meet
    with letters meet+1..n.  The letters 1..meet step up from the value
    `start` at (); the letters n down to meet+1 peel strips down from the
    value 1 at lambda.  Every state of both halves is kept, and the halves
    join once: the sum over mu^meet of the products of their values, which
    are then polynomials.  At meet = n nothing is peeled or joined, and the
    walk returns its value at lambda.

    Both directions take one step: add_letter(moves, k) gets, under each state
    reached, the pairs (value of the state it came from, the size of the strip
    between them), and returns the value at each state reached.  The shape is a
    partition of at most n rows.
    """
    rows = len(shape)
    pad = (0,) * rows

    def walk(sums: dict, letters: range, down: int) -> dict:
        for letter in letters:
            # the states reached hold the letters <= held: the letters above fill at
            # most n - held cells of each column, and a peeled state has at most held
            # rows (a state stepped up has them by its strip)
            held = letter - down
            floor = (shape[n - held :] + pad)[:rows]
            ceiling = (shape[:held] + pad)[:rows] if down else shape
            moves: dict[tuple[int, ...], list] = {}
            for state, value in sums.items():
                size = sum(state)
                # a strip from a smaller to a larger shape: larger_(i+1) <= smaller_i <= larger_i;
                # edge[down + i] bounds row i from above and edge[down + i + 1] from below
                edge = shape[:1] + state + (0,)
                ranges = [
                    range(max(low, below), min(top, above) + 1)
                    for below, above, low, top in zip(edge[down + 1 :], edge[down:], floor, ceiling)
                ]
                for nu in product(*ranges):
                    moves.setdefault(nu, []).append((value, abs(sum(nu) - size)))
            sums = add_letter(moves, letter)
        return sums

    low = walk({pad: start}, range(1, meet + 1), 0)
    if meet == n:
        return low[shape]
    high = walk({shape: Polynomial.one()}, range(n, meet, -1), 1)
    return sum_of_products((terms, high[mu]) for mu, terms in low.items())


def schur_tableaux(shape: Partition, n: int) -> Polynomial:
    """The Schur polynomial as the sum of x^T over all SSYT of the shape (0 past n rows).

    The strip walk weighs the letter k on a strip of size e by x_k^e, and x^T is
    the product of the contents of the lower and the upper half.  Each monomial
    is the content of one tableau, so no symmetry is assumed.  The halves meet
    at the letter n - (n - 1) // 2: from n = 3 on, two half walks write far
    fewer terms than one walk through all n letters.  The lower half takes
    the larger share, so that at n <= 2 (the Cauchy checks' grid) the sum is
    one walk whose strips all add up in x_shift_sums.
    """
    shape = partition(shape)
    if len(shape) > n:
        return Polynomial.zero()
    return _strip_sums(shape, n, n - (n - 1) // 2, x_shift_sums, Polynomial.one())


def factorial_schur_tableaux(shape: Partition, n: int) -> Polynomial:
    """The factorial Schur polynomial: the sum over tableaux of the cell products.

    The cell (i, j) holding v gives x_v - a_(v + j - i) (Macdonald, Schur functions: theme
    and variations, 1992, sixth variation); the strip walk weighs the letter v on a strip
    mu -> nu by the row segments prod_{mu_i < j <= nu_i} (x_v - a_(v + j - i)), each built
    once.  Column strictness gives v >= i, so every index is at least 1.  The walk steps up
    through all n letters (it meets at n): both halves would hold the a-variables, so the
    products of a join collide, and a split was slower on some shapes ((4,4,4) at n = 5).
    Each value is a state with its sum, since a weight reads the rows of both ends of its
    strip.
    """
    @cache
    def segment(v: int, i: int, low: int, high: int) -> Polynomial:
        cell = xpoly(v) - apoly(v + high - i)
        return cell if high == low + 1 else segment(v, i, low, high - 1) * cell

    def add_letter(moves, letter):
        sums = {}
        for nu, pairs in moves.items():
            total = Polynomial.zero()
            for (mu, terms), _ in pairs:
                weight = Polynomial.one()
                for i, (low, high) in enumerate(zip(mu, nu), 1):
                    if low < high:
                        weight = weight * segment(letter, i, low, high)
                total = add_mul(total, terms, weight)
            sums[nu] = nu, total
        return sums

    shape = partition(shape)
    if len(shape) > n:
        return Polynomial.zero()
    start = (0,) * len(shape), Polynomial.one()
    return _strip_sums(shape, n, n, add_letter, start)[1]
