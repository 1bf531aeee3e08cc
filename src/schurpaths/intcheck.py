"""Integer values of the closed forms that the identity checks rest on.

This module never touches the polynomial ring: it uses Python ints and the
standard library only.  Both sides of every symbolic comparison in
`identities` are built by the ring, so a fault in the ring that both sides
share (a misplaced variable, a lost or doubled term) can leave them equal
and wrong.  Each value here is what a closed form must take at one fixed
integer point, computed from its definition with no ring code at all, so
such a fault shows up as a disagreement with `eval_int` of the ring's
result.

The point: x_i = (-1)^i (i^2 + i + 1), y_j = (-1)^j 2(j^2 + 1),
a_k = (-1)^(k+1) 4k^2 and t = 3.  The coordinates within each family are
distinct, so the Vandermonde products are nonzero and the factorial-Schur
quotient is an exact integer division.  s_lambda is the r x r Jacobi-Trudi
determinant, r the number of rows, so its cost follows the shape, not n.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

T = 3


def x(i: int) -> int:
    return (-1) ** i * (i * i + i + 1)


def y(j: int) -> int:
    return (-1) ** j * 2 * (j * j + 1)


def a(k: int) -> int:
    return (-1) ** (k + 1) * 4 * k * k


def xs(n: int) -> list[int]:
    return [x(i) for i in range(1, n + 1)]


def ys(m: int) -> list[int]:
    return [y(j) for j in range(1, m + 1)]


def det(rows: Sequence[Sequence[int]]) -> int:
    """Fraction-free (Bareiss) integer determinant."""
    m = [list(row) for row in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, previous = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // previous
        previous = m[k][k]
    return sign * m[n - 1][n - 1]


def vandermonde(values: Sequence[int]) -> int:
    """The product of (v_i - v_j) over i < j."""
    return prod(v - w for i, v in enumerate(values) for w in values[i + 1 :])


def _padded(shape: Sequence[int], n: int) -> list[int]:
    return list(shape) + [0] * (n - len(shape))


def alternant(shape: Sequence[int], n: int) -> int:
    """det(x_i^(lambda_j + n - j)), lambda padded to n parts: s_lambda's test oracle."""
    padded = _padded(shape, n)
    return det([[v ** (padded[j] + n - 1 - j) for j in range(n)] for v in xs(n)])


def schur(shape: Sequence[int], n: int) -> int:
    """s_lambda(x_1..x_n) as det(h_(lambda_i - i + j)) over the r rows; 0 for more than n."""
    r = len(shape)
    if r > n:
        return 0
    rows = [range(part - i, part - i + r) for i, part in enumerate(shape)]
    return det([[complete_homogeneous(d, n) for d in row] for row in rows])


def _falling(v: int, k: int) -> int:
    """(v | a)^k = (v - a_1)...(v - a_k)."""
    return prod(v - a(i) for i in range(1, k + 1))


def factorial_schur(shape: Sequence[int], n: int) -> int:
    """det((x_j | a)^(lambda_i + n - i)) / Vdm(x_1..x_n)."""
    padded = _padded(shape, n)
    rows = [[_falling(v, padded[i] + n - 1 - i) for v in xs(n)] for i in range(n)]
    quotient, remainder = divmod(det(rows), vandermonde(xs(n)))
    if remainder:
        raise ArithmeticError(f"the factorial alternant of {shape} is not a multiple of Vdm")
    return quotient


def complete_homogeneous(k: int, n: int) -> int:
    """h_k(x_1..x_n), adding one variable at a time: h_d += v * h_(d-1)."""
    if k < 0:
        return 0
    h = [1] + [0] * k
    for v in xs(n):
        for d in range(1, k + 1):
            h[d] += v * h[d - 1]
    return h[k]


def lemma_product(m: int, n: int) -> int:
    """(x_1 - x_(n+1))...(x_1 - x_(m+n-1)): the main lemma's path-weight sum."""
    return prod(x(1) - x(k) for k in range(n + 1, m + n))


def geometric(i: int, j: int, cap: int) -> int:
    """The sum of (x_i y_j)^k over k = 0..cap: a truncated Cauchy entry."""
    return sum((x(i) * y(j)) ** k for k in range(cap + 1))


def dual_product(n: int, m: int) -> int:
    """The product of (1 + x_i y_j) over i <= n, j <= m."""
    return prod(1 + v * w for v in xs(n) for w in ys(m))


def dual_determinant(n: int, m: int) -> int:
    """(-1)^(nm) Vdm(x_1..x_n) Vdm(y_1..y_m) times the dual Cauchy product."""
    return (-1) ** (n * m) * vandermonde(xs(n)) * vandermonde(ys(m)) * dual_product(n, m)
