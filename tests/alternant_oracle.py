"""Literal-division oracle for the alternant quotients of `symfun`.

`factorial_alternant` expands det((x_j | a)^(lambda_i + n - i)) into all of
its n! terms, and `divide_by_vandermonde` divides an expanded alternant by
one factor x_i - x_j at a time (synthetic division inside `exact_div`).
Together with `symfun.alternant` they are the slow reference that the
normal-form division `symfun.alternant_quotient` is checked against.
"""

from __future__ import annotations

from typing import Sequence

from schurpaths.combinat import fit_shape
from schurpaths.ring import Polynomial, exact_div, xpoly, xvar
from schurpaths.symfun import PolyMatrix, det, falling_power


def factorial_alternant(shape: Sequence[int], n: int) -> Polynomial:
    """det of the n x n matrix with entry (i,j) = (x_j | a)^(lambda_i + n - i)."""
    padded = fit_shape(shape, n)
    matrix = PolyMatrix.from_rows(
        [[falling_power(xvar(j + 1), padded[i] + n - (i + 1)) for j in range(n)] for i in range(n)]
    )
    return det(matrix)


def divide_by_vandermonde(p: Polynomial, n: int) -> Polynomial:
    """p / prod (x_i - x_j) over 1 <= i < j <= n, one linear factor at a time.

    The factors go in i-major order (1,2), (1,3), ..., (2,3), ..., which keeps
    the intermediate quotients small.
    """
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            p = exact_div(p, xpoly(i) - xpoly(j))
    return p
