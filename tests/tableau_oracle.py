"""One-tableau-at-a-time oracle for the strip walk of `combinat`.

`factorial_tableau_weight` multiplies the cells of one tableau, and
`enumerated_factorial_sum` adds those weights over every tableau that
`ssyt_enumerate` lists.  Both are exponential in the shape and serve only as
the slow reference that `combinat.factorial_schur_tableaux` is checked against.
"""

from __future__ import annotations

from schurpaths.combinat import Partition, Tableau, ssyt_enumerate
from schurpaths.ring import Polynomial, apoly, xpoly


def factorial_tableau_weight(tableau: Tableau) -> Polynomial:
    """The product over the cells (i, j) (1-based) holding v of x_v - a_(v + j - i)."""
    weight = Polynomial.one()
    for i, row in enumerate(tableau, 1):
        for j, entry in enumerate(row, 1):
            index = entry + j - i
            if index < 1:
                raise ValueError(f"cell ({i},{j}) with entry {entry} gives parameter index {index}")
            weight = weight * (xpoly(entry) - apoly(index))
    return weight


def enumerated_factorial_sum(shape: Partition, n: int) -> Polynomial:
    """The factorial Schur polynomial, one enumerated tableau at a time."""
    total = Polynomial.zero()
    for tableau in ssyt_enumerate(shape, n):
        total = total + factorial_tableau_weight(tableau)
    return total
