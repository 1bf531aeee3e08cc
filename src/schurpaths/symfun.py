"""Determinantal symmetric functions over the exact polynomial ring.

Complete homogeneous polynomials; determinants and maximal minors of
polynomial matrices, by one division-free Laplace expansion memoised over
column subsets (n * 2^(n-1) products for an n x n determinant); the
Jacobi-Trudi determinant; the plain alternant (all n! terms) and the
Vandermonde product; the bialternant and factorial-Schur quotients; falling
factorial powers; and divided differences of powers, with their Newton form.

The Jacobi-Trudi route reads the flagged matrix, column j h_(lambda_i - i +
j) in x1..x_(n-j+1) only, off one table of h_a(x1..xm), each entry one
add_mul by h_a(x1..xm) = h_a(x1..x_(m-1)) + x_m * h_(a-1)(x1..xm).  Column
operations C_j <- C_j - x_m * C_(j-1), which keep a determinant, turn the
printed det(h_(lambda_i - i + j)) into it, so det multiplies smaller entries.

Both quotients divide an alternant by the Vandermonde a_delta in the
alternant's antisymmetric normal form, the sum of c_gamma * a_gamma over
strictly decreasing exponent vectors (alternant_quotient): long division on
the lex-largest gamma, whose quotient is a sum of monomial symmetric
functions, expanded orbit by orbit at the end.  No n!-term polynomial is
built or divided.  The divided differences divide by one factor x_1 - x_k
at a time (synthetic division inside exact_div).
"""

from __future__ import annotations

from heapq import heappop, heappush, heapify
from itertools import combinations_with_replacement, permutations
from operator import add, lt, sub
from typing import Iterator, Mapping, Sequence

from .combinat import fit_shape
from .ring import (
    NotDivisible,
    Polynomial,
    Variable,
    add_mul,
    apoly,
    check_degree,
    coefficients,
    exact_div,
    substitute_family,
    tpoly,
    x_exponent_sum,
    x_word_sum,
    xpoly,
    xvar,
    Family,
)

class NotSquare(ValueError):
    """det was given a non-square matrix."""


class PolyMatrix:
    """An immutable row-major matrix of polynomials."""

    __slots__ = ("n_rows", "n_cols", "entries")

    def __init__(self, n_rows: int, n_cols: int, entries: Sequence[Polynomial]):
        if n_rows < 0 or n_cols < 0 or len(entries) != n_rows * n_cols:
            raise ValueError("entry count must equal n_rows * n_cols")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.entries = tuple(entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Polynomial]]) -> "PolyMatrix":
        n_rows = len(rows)
        n_cols = len(rows[0]) if rows else 0
        if any(len(row) != n_cols for row in rows):
            raise ValueError("all rows must have the same length")
        return cls(n_rows, n_cols, [entry for row in rows for entry in row])

    def entry(self, i: int, j: int) -> Polynomial:
        """0-based entry access."""
        if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
            raise IndexError(f"({i},{j}) outside a {self.n_rows}x{self.n_cols} matrix")
        return self.entries[i * self.n_cols + j]

    def row(self, i: int) -> tuple[Polynomial, ...]:
        return self.entries[i * self.n_cols : (i + 1) * self.n_cols]


def _maximal_minors(matrix: PolyMatrix, degree_cap: int | None = None) -> dict[int, Polynomial]:
    """Every nonzero maximal minor of an r x c matrix, keyed by its bitmask of r columns.

    A minor takes its columns in ascending order.  Laplace expansion
    memoised over column subsets, division-free: after row i is taken,
    `minors` maps each column bitmask of size r - i to the minor on rows
    i..r-1 and those columns; expanding along row i, entry (i, j) enters
    with the sign given by the parity of the chosen columns below j.  Each
    product is added into its minor's running sum in one pass
    (ring.add_mul).  With degree_cap every product drops its terms above
    that degree, so each minor is the one of the degree-capped ring,
    truncate(minor, degree_cap), since truncation is a ring quotient,
    without forming the terms above the cap.
    """
    zero = Polynomial.zero()
    minors = {0: Polynomial.one()}
    for i in reversed(range(matrix.n_rows)):
        row = matrix.row(i)
        negated = [-entry for entry in row]
        grown: dict[int, Polynomial] = {}
        for cols, minor in minors.items():
            odd = False
            for j in range(matrix.n_cols):
                bit = 1 << j
                if cols & bit:
                    odd = not odd
                elif row[j]:
                    key = cols | bit
                    grown[key] = add_mul(
                        grown.get(key, zero), (negated if odd else row)[j], minor, degree_cap
                    )
        minors = {cols: minor for cols, minor in grown.items() if minor}
    return minors


def det(matrix: PolyMatrix, degree_cap: int | None = None) -> Polynomial:
    """Exact determinant: the one maximal minor of a square matrix (_maximal_minors).

    n * 2^(n-1) entry-by-minor products for an n x n matrix.  With
    degree_cap the result is truncate(det(matrix), degree_cap).
    """
    n = matrix.n_rows
    if n != matrix.n_cols:
        raise NotSquare(f"matrix is {n}x{matrix.n_cols}")
    return _maximal_minors(matrix, degree_cap).get((1 << n) - 1, Polynomial.zero())


def complete_homogeneous(k: int, n: int) -> Polynomial:
    """h_k: the sum of all degree-k monomials in x1..xn.

    h_0 = 1 and h_k = 0 for k < 0 (the convention the Jacobi-Trudi matrix
    needs).
    """
    if n < 1:
        raise ValueError("complete_homogeneous needs at least one variable")
    if k < 0:
        return Polynomial.zero()
    if k == 0:
        return Polynomial.one()
    return x_word_sum(combinations_with_replacement(range(1, n + 1), k))


def jacobi_trudi(shape: Sequence[int], n: int) -> Polynomial:
    """det(h_{lambda_i - i + j}) over an r x r matrix, r = rows(lambda), from one table of h.

    The index orientation is the one that agrees with the tableau sum
    (S_(1,1) = h1^2 - h2); the printed transpose-like orientation with
    h_{lambda_i + i - j} fails already at lambda = (2,1).

    The table holds T_m(a) = T_(m-1)(a) + x_m * T_m(a - 1), T_m(0) = 1 and
    T_0(a) = 0 for a > 0, each entry by one add_mul; T_m(a) is h_a(x1..xm),
    split by whether a monomial holds x_m.  Column j takes T_(n-j+1)(lambda_i
    - i + j), 0 at a negative index: the flagged matrix (Gessel and Viennot
    1989; Wachs 1985).  Its determinant is the printed one, whose columns all
    read T_n: for m = n down to n - r + 2, C_j <- C_j - x_m * C_(j-1) on each
    column j that reads T_m, right to left, keeps the determinant and makes
    column j read T_m(a) - x_m * T_m(a - 1) = T_(m-1)(a), since column j - 1
    reads T_m at a - 1 in the row where column j reads a.  Row m is built as
    far as the columns 1..n - m + 1 read it, and dropped once row m + 1 is.
    """
    shape = fit_shape(shape, n)
    r = n - shape.count(0)
    if r == 0:
        return Polynomial.one()
    zero = Polynomial.zero()
    entries = [zero] * (r * r)
    offsets = [part - i for i, part in enumerate(shape[:r])]  # lambda_i - i, 0-based
    row = [Polynomial.one()] + [zero] * (shape[0] + r - 1)  # T_0
    for m in range(1, n + 1):
        x_m, j = xpoly(m), n - m  # the 0-based column that reads T_m, if j < r
        last, row = row, [row[0]]
        for a in range(1, shape[0] + min(j, r - 1) + 1):
            row.append(add_mul(last[a], x_m, row[a - 1]))
        if j < r:
            entries[j::r] = [row[k + j] if k + j >= 0 else zero for k in offsets]
    return det(PolyMatrix(r, r, entries))


def alternant(shape: Sequence[int], n: int) -> Polynomial:
    """det of the n x n matrix with entry (i,j) = x_j^(lambda_i + n - i): all n! terms."""
    padded = fit_shape(shape, n)
    matrix = PolyMatrix.from_rows(
        [[xpoly(j + 1) ** (padded[i] + n - (i + 1)) for j in range(n)] for i in range(n)]
    )
    return det(matrix)


def vandermonde(n: int) -> Polynomial:
    """The expanded product of (x_i - x_j) over 1 <= i < j <= n.

    Built as an explicit product, never via a determinant, so that the
    determinant identities can be tested against a genuinely independent
    computation.
    """
    if n < 1:
        raise ValueError("vandermonde needs n >= 1")
    product = Polynomial.one()
    for k in range(2, n + 1):  # Vdm(k) = Vdm(k - 1) * prod(x_i - x_k, i < k), a factor at a time
        for i in range(1, k):
            product = product * (xpoly(i) - xpoly(k))
    return product


def distinct_permutations(values: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Each distinct ordering of `values` once, in decreasing lexicographic order.

    Steps from one ordering to the next smaller one (Narayana Pandita's rule,
    run downwards), so a vector with repeated entries costs its distinct
    orderings, not all len(values)! of them; without repeats, those are the
    permutations of the sorted entries, which itertools lists in that order.
    """
    items = sorted(values, reverse=True)
    if len(set(items)) == len(items):  # every ordering is distinct
        yield from permutations(items)
        return
    while True:
        yield tuple(items)
        i = len(items) - 2  # the last ascent from the right: items[i] > items[i + 1]
        while i >= 0 and items[i] <= items[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(items) - 1  # the rightmost entry below items[i]
        while items[j] >= items[i]:
            j -= 1
        items[i], items[j] = items[j], items[i]
        items[i + 1 :] = reversed(items[i + 1 :])


def alternant_quotient(
    normal_form: Mapping[tuple[int, ...], int | Polynomial], n: int
) -> Polynomial:
    """The alternant sum of c * a_gamma over `normal_form`, divided by a_delta.

    An alternant in x1..xn is antisymmetric, so it is fixed by its normal
    form: the sum of c_gamma * a_gamma over strictly decreasing exponent
    vectors gamma, with a_gamma = det(x_j^(gamma_i)) and each c_gamma free
    of x (an int, or a polynomial in a).  a_delta, delta = (n-1, ..., 1, 0),
    is the Vandermonde.  Long division on the lex-largest gamma (Macdonald,
    Symmetric Functions and Hall Polynomials, I.3), with c its coefficient:
    nu = gamma - delta must be a partition, or NotDivisible is raised; c *
    m_nu goes into the quotient, and c * m_nu * a_delta leaves the
    remainder.  That product is the sum, over the distinct permutations beta
    of nu with no repeat in beta + delta, of sgn * c * a_sort(beta + delta),
    sgn the sign of the sort; its lex-largest term is c * a_gamma, so each
    step removes gamma and adds only smaller vectors.  A quotient term of
    total degree past MAX_DEGREE raises DegreeOverflow at the step that finds
    it.  At the end the quotient, the sum of c * m_nu, is expanded orbit by
    orbit, each m_nu from the distinct permutations of nu.
    """
    delta = tuple(range(n - 1, -1, -1))
    remainder: dict[tuple[int, ...], int | Polynomial] = {}
    for gamma, c in normal_form.items():
        if len(gamma) != n:
            raise ValueError(f"exponent vector {gamma} needs {n} entries")
        if c:
            remainder[tuple(gamma)] = c
    pending = [tuple(-e for e in gamma) for gamma in remainder]  # a heap, lex-largest first
    heapify(pending)
    quotient: list[tuple[Polynomial, list[tuple[int, ...]]]] = []  # (c, the orbit of nu)
    sorted_keys: dict[int, tuple[int, ...]] = {}  # the bitmask of beta + delta -> it sorted
    while pending:
        gamma = tuple(-e for e in heappop(pending))
        c = remainder.get(gamma)
        if not c:  # cancelled since it was pushed
            continue
        nu = tuple(map(sub, gamma, delta))
        if any(map(lt, nu, nu[1:])) or (nu and nu[-1] < 0):
            raise NotDivisible(f"a_{gamma} leaves gamma - delta = {nu}, which is no partition")
        check_degree(sum(nu) + (c.degree() if isinstance(c, Polynomial) else 0))
        orbit = list(distinct_permutations(nu))
        quotient.append((c if isinstance(c, Polynomial) else Polynomial.const(c), orbit))
        negated = -c
        for beta in orbit:
            used = ascents = 0  # the exponents so far, and the pairs that rise
            for exponent in map(add, beta, delta):
                bit = 1 << exponent
                if used & bit:
                    break
                ascents += (used & (bit - 1)).bit_count()
                used |= bit
            else:
                key = sorted_keys.get(used)
                if key is None:
                    key = sorted_keys[used] = tuple(sorted(map(add, beta, delta), reverse=True))
                value = remainder.get(key, 0) + (c if ascents & 1 else negated)
                if not value:
                    del remainder[key]
                    continue
                if key not in remainder:
                    heappush(pending, tuple(-e for e in key))
                remainder[key] = value
    return x_exponent_sum(quotient)


def bialternant(shape: Sequence[int], n: int) -> Polynomial:
    """alternant(shape, n) / vandermonde(n): s_lambda(x1..xn) by alternant_quotient.

    The alternant's normal form is the one term a_(lambda + delta), so no
    n!-term polynomial is built.  Exact by the quotient identity: a
    NotDivisible escape here means an implementation bug, not a user error.
    """
    padded = fit_shape(shape, n)
    return alternant_quotient({tuple(p + n - 1 - i for i, p in enumerate(padded)): 1}, n)


def falling_power(v: Variable, k: int) -> Polynomial:
    """(v | a)^k = (v - a_1)(v - a_2)...(v - a_k); 1 for k = 0."""
    if k < 0:
        raise ValueError("falling powers need k >= 0")
    product = Polynomial.one()
    base = Polynomial.variable(v)
    for index in range(1, k + 1):
        product = product * (base - apoly(index))
    return product


def factorial_schur_quotient(shape: Sequence[int], n: int) -> Polynomial:
    """det((x_j | a)^(lambda_i + n - i)) / vandermonde(n), by alternant_quotient.

    Row i of the factorial alternant is the polynomial (x | a)^(lambda_i + n
    - i) in each x_j, so by multilinearity its normal form has, at gamma,
    the minor of the coefficient matrix C[i][e] = [x^e](x | a)^(lambda_i + n
    - i) on the columns gamma: the maximal minors of C, which
    _maximal_minors takes in ascending column order, so each gains the sign
    (-1)^(n(n-1)/2) of reversing n columns.
    """
    padded = fit_shape(shape, n)
    width = (padded[0] if padded else 0) + n
    rows = []
    for i, part in enumerate(padded):
        row = coefficients(falling_power(xvar(1), part + n - 1 - i), xvar(1))
        rows.append(row + [Polynomial.zero()] * (width - len(row)))
    flip = n * (n - 1) // 2 % 2
    normal_form = {
        tuple(e for e in reversed(range(width)) if cols >> e & 1): -minor if flip else minor
        for cols, minor in _maximal_minors(PolyMatrix.from_rows(rows)).items()
    }
    return alternant_quotient(normal_form, n)


def divided_differences(n_power: int) -> list[Polynomial]:
    """The divided differences f[x_1], f[x_1, x_2], ..., f[x_1, ..., x_(n_power+1)] of x^n_power.

    One pass down the table recursion f[x_1..x_k] = (f[x_1..x_{k-1}] -
    f[x_2..x_k]) / (x_1 - x_k), where the shifted entry f[x_2..x_k] is
    produced from f[x_1..x_{k-1}] by shifting every x-index up by one
    (exact_div divides by x_1 - x_k synthetically): n_power divisions in
    all.  Entry k equals the complete homogeneous polynomial
    h_{n_power - k + 1} in x1..xk, which the test suite checks against an
    independent oracle.
    """
    if n_power < 0:
        raise ValueError("the power must be non-negative")
    table = [xpoly(1) ** n_power]
    for width in range(2, n_power + 2):
        shifted = substitute_family(table[-1], Family.X, Family.X, 1)
        table.append(exact_div(table[-1] - shifted, xpoly(1) - xpoly(width)))
    return table


def divided_difference(n_power: int, k: int) -> Polynomial:
    """f[x_1, ..., x_k] for f(x) = x^n_power: entry k of divided_differences(n_power)."""
    if n_power < 0:
        raise ValueError("the power must be non-negative")
    if not 1 <= k <= n_power + 1:
        raise ValueError(f"k must lie in 1..{n_power + 1}, got {k}")
    return divided_differences(n_power)[k - 1]


def newton_form(table: Sequence[Polynomial]) -> Polynomial:
    """The Newton interpolation form of a divided-difference table f[x_1], f[x_1, x_2], ...

    The sum of table[k] * (t - x_1)...(t - x_k) over k; for the table of
    x^p (divided_differences(p)) it collapses exactly to t^p.
    """
    total = Polynomial.zero()
    basis = Polynomial.one()
    for k, entry in enumerate(table):
        total = add_mul(total, entry, basis)
        basis = basis * (tpoly() - xpoly(k + 1))
    return total


def newton_expand(n_power: int) -> Polynomial:
    """The Newton interpolation form of t^n_power: newton_form(divided_differences(n_power)).

    It collapses exactly to t^n_power; callers can compare against tpoly()**n.
    """
    return newton_form(divided_differences(n_power))
