import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import comb

import pytest
from hypothesis import given, strategies as st

from alternant_oracle import divide_by_vandermonde, factorial_alternant
from schurpaths import symfun
from schurpaths.combinat import factorial_schur_tableaux, partitions_in_box, schur_tableaux
from schurpaths.lgv import schur_via_lgv
from schurpaths.ring import (
    DegreeOverflow,
    Family,
    NotDivisible,
    Polynomial,
    apoly,
    eval_int,
    parse_poly,
    substitute_zero,
    tpoly,
    truncate,
    xpoly,
    xvar,
)
from schurpaths.symfun import (
    NotSquare,
    PolyMatrix,
    _maximal_minors,
    alternant,
    alternant_quotient,
    bialternant,
    complete_homogeneous,
    det,
    distinct_permutations,
    divided_difference,
    divided_differences,
    factorial_schur_quotient,
    falling_power,
    jacobi_trudi,
    newton_expand,
    vandermonde,
)


def random_matrix(rng, size, max_vars=2):
    def entry():
        poly = Polynomial.const(rng.randint(-3, 3))
        for _ in range(rng.randint(0, 2)):
            poly = poly + rng.randint(-2, 2) * xpoly(rng.randint(1, max_vars))
        return poly

    return PolyMatrix.from_rows([[entry() for _ in range(size)] for _ in range(size)])


# -- complete homogeneous ---------------------------------------------------------


def test_complete_homogeneous_examples():
    assert complete_homogeneous(2, 2) == parse_poly("x1^2 + x1*x2 + x2^2")
    assert complete_homogeneous(0, 3) == Polynomial.one()
    assert complete_homogeneous(-1, 2) == Polynomial.zero()


def test_complete_homogeneous_counts_monomials():
    from math import comb

    for k in range(6):
        for n in (1, 2, 3, 4):
            assert len(complete_homogeneous(k, n)) == comb(k + n - 1, n - 1)


# -- determinants ------------------------------------------------------------------


def test_det_examples():
    assert det(PolyMatrix.from_rows([[xpoly(1)]])) == xpoly(1)
    m = PolyMatrix.from_rows(
        [[xpoly(1), Polynomial.one()], [xpoly(2), Polynomial.one()]]
    )
    assert det(m) == xpoly(1) - xpoly(2)


def test_det_rejects_non_square():
    with pytest.raises(NotSquare):
        det(PolyMatrix.from_rows([[xpoly(1), xpoly(2)]]))


def test_det_is_alternating_and_multilinear():
    rng = random.Random(7)
    for _ in range(10):
        m = random_matrix(rng, 3)
        rows = [list(m.row(i)) for i in range(3)]
        swapped = PolyMatrix.from_rows([rows[1], rows[0], rows[2]])
        assert det(swapped) == -det(m)
        scaled = PolyMatrix.from_rows([[xpoly(1) * e for e in rows[0]], rows[1], rows[2]])
        assert det(scaled) == xpoly(1) * det(m)


def leibniz_oracle(m):
    """det as the signed sum over permutations, with its own inversion count."""
    n = m.n_rows
    total = Polynomial.zero()
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        product = Polynomial.const(-1 if inversions % 2 else 1)
        for i in range(n):
            product = product * m.entry(i, perm[i])
        total = total + product
    return total


def test_det_in_the_degree_capped_ring_is_the_truncated_det():
    rng = random.Random(13)
    for size in range(5):
        for _ in range(6):
            m = random_matrix(rng, size, max_vars=3)
            full = det(m)
            for cap in range(size + 2):
                assert det(m, degree_cap=cap) == truncate(full, cap)


def test_det_agrees_with_leibniz_oracle():
    rng = random.Random(11)
    for size in range(5):
        for _ in range(8):
            m = random_matrix(rng, size)
            assert det(m) == leibniz_oracle(m)
    # a zero leading entry and an all-zero matrix
    zero = Polynomial.zero()
    one = Polynomial.one()
    m = PolyMatrix.from_rows(
        [[zero, xpoly(1), one], [xpoly(2), zero, one], [one, one, zero]]
    )
    assert det(m) == leibniz_oracle(m)
    assert det(PolyMatrix.from_rows([[zero, zero], [zero, zero]])) == zero


# -- Jacobi-Trudi -------------------------------------------------------------------


def test_jacobi_trudi_single_row_is_h():
    for k in range(5):
        assert jacobi_trudi((k,), 2) == complete_homogeneous(k, 2)


def test_jacobi_trudi_column_pair():
    h1 = complete_homogeneous(1, 2)
    h2 = complete_homogeneous(2, 2)
    assert jacobi_trudi((1, 1), 2) == h1 * h1 - h2
    assert jacobi_trudi((1, 1), 2) == xpoly(1) * xpoly(2)


def printed_jacobi_trudi(shape, n):
    """The oracle: det of the printed matrix h_{lambda_i - i + j}(x1..xn), no column operation."""
    r = len(shape)
    return det(
        PolyMatrix.from_rows(
            [[complete_homogeneous(shape[i] - i + j, n) for j in range(r)] for i in range(r)]
        )
    )


@st.composite
def shapes_and_n(draw):
    n = draw(st.integers(1, 5))
    parts = draw(st.lists(st.integers(1, 4), max_size=n))
    return tuple(sorted(parts, reverse=True)), n


@given(shapes_and_n())
def test_jacobi_trudi_is_the_printed_determinant(case):
    shape, n = case
    assert jacobi_trudi(shape, n) == printed_jacobi_trudi(shape, n)


def test_jacobi_trudi_hands_det_the_flagged_matrix(monkeypatch):
    # column j holds h_a in n - j variables: C(a + n - j - 1, n - j - 1) terms
    shape, n = (4, 3, 3, 1), 6
    matrices = []
    monkeypatch.setattr(symfun, "det", lambda matrix: matrices.append(matrix) or det(matrix))
    assert jacobi_trudi(shape, n) == schur_tableaux(shape, n)
    (matrix,) = matrices
    for i in range(4):
        for j in range(4):
            a = shape[i] - i + j
            entry = matrix.entry(i, j)
            assert entry == complete_homogeneous(a, n - j)
            assert len(entry) == (comb(a + n - j - 1, n - j - 1) if a >= 0 else 0)


def test_jacobi_trudi_matches_tableaux():
    for n in (1, 2, 3):
        for shape in partitions_in_box(n, 4):
            if sum(shape) > 4:
                continue
            assert jacobi_trudi(shape, n) == schur_tableaux(shape, n)


# -- alternants and the Vandermonde --------------------------------------------------


def test_alternant_examples():
    assert alternant((), 2) == xpoly(1) - xpoly(2)
    assert alternant((1,), 2) == xpoly(1) ** 2 - xpoly(2) ** 2


def test_alternant_is_antisymmetric():
    from schurpaths.ring import Monomial

    def swap12(p):
        def image(v):
            if v.family == Family.X and v.index == 1:
                return xvar(2)
            if v.family == Family.X and v.index == 2:
                return xvar(1)
            return v

        return Polynomial(
            {Monomial.of({image(v): e for v, e in m.exps}): c for m, c in p.items()}
        )

    for shape in [(), (1,), (2, 1)]:
        p = alternant(shape, 2)
        assert swap12(p) == -p


def test_vandermonde_examples():
    assert vandermonde(1) == Polynomial.one()
    assert vandermonde(2) == xpoly(1) - xpoly(2)


def test_vandermonde_equals_empty_alternant():
    for n in range(1, 8):
        assert alternant((), n) == vandermonde(n)


def test_bialternant_examples():
    assert bialternant((1,), 2) == xpoly(1) + xpoly(2)
    assert bialternant((), 3) == Polynomial.one()
    assert bialternant((2, 1), 3) == schur_tableaux((2, 1), 3)
    assert bialternant((2, 2, 1, 1, 1), 7) == schur_via_lgv((2, 2, 1, 1, 1), 7)


def _shapes(n, max_size=6):
    return [shape for shape in partitions_in_box(n, max_size) if sum(shape) <= max_size]


def test_bialternant_matches_the_literal_division():
    for n in range(1, 6):
        for shape in _shapes(n):
            assert bialternant(shape, n) == divide_by_vandermonde(alternant(shape, n), n)


def test_factorial_quotient_matches_the_literal_division():
    # the literal factorial quotient takes about 12 s over the n = 5 row of size <= 6
    # (CPython 3.11, 2 cores), so past size 3 that row is compared with the tableau sum
    for n in range(1, 6):
        for shape in _shapes(n):
            quotient = factorial_schur_quotient(shape, n)
            if n < 5 or sum(shape) <= 3:
                assert quotient == divide_by_vandermonde(factorial_alternant(shape, n), n)
            else:
                assert quotient == factorial_schur_tableaux(shape, n)


@st.composite
def normal_forms(draw):
    """(n, {strictly decreasing gamma: coefficient}), coefficients in Z or in Z[a1, a2]."""
    n = draw(st.integers(1, 4))
    exponents = st.lists(st.integers(0, n + 3), min_size=n, max_size=n, unique=True)
    gammas = draw(st.lists(exponents.map(lambda e: tuple(sorted(e, reverse=True))), max_size=3))
    if draw(st.booleans()):
        coefficient = st.integers(-5, 5)
    else:
        coefficient = st.builds(
            lambda c0, c1, c2: c0 + c1 * apoly(1) + c2 * apoly(1) * apoly(2),
            *[st.integers(-3, 3)] * 3,
        )
    return n, {gamma: draw(coefficient) for gamma in gammas}


@given(normal_forms())
def test_alternant_quotient_is_the_literal_quotient(case):
    n, normal_form = case
    delta = range(n - 1, -1, -1)
    literal = Polynomial.zero()
    for gamma, c in normal_form.items():  # a_gamma = alternant(gamma - delta)
        literal = literal + c * alternant([g - d for g, d in zip(gamma, delta)], n)
    assert alternant_quotient(normal_form, n) == divide_by_vandermonde(literal, n)


def test_alternant_quotient_refuses_what_is_no_normal_form():
    # a strictly decreasing gamma is always lambda + delta, so a_gamma divides:
    # a_(3,0) / a_(1,0) = h_2(x1, x2)
    assert alternant_quotient({(3, 0): 1}, 2) == complete_homogeneous(2, 2)
    # a repeated exponent leaves gamma - delta = (0, 1), which is no partition
    with pytest.raises(NotDivisible, match=r"\(0, 1\), which is no partition"):
        alternant_quotient({(1, 1): 1}, 2)
    with pytest.raises(NotDivisible):
        alternant_quotient({(2, 0): 1, (0, -1): 3}, 2)
    with pytest.raises(ValueError, match="needs 2 entries"):
        alternant_quotient({(3, 1, 0): 1}, 2)
    assert alternant_quotient({(2, 0): 0}, 2) == Polynomial.zero()


def test_alternant_quotient_edges():
    assert bialternant((127,), 1) == xpoly(1) ** 127
    with pytest.raises(DegreeOverflow, match="total degree 128 exceeds"):
        bialternant((128,), 1)
    with pytest.raises(DegreeOverflow):
        bialternant((64, 64), 2)
    with pytest.raises(ValueError, match=r"shape \(1, 1, 1\) has more than 2 rows"):
        bialternant((1, 1, 1), 2)
    with pytest.raises(ValueError, match=r"shape \(1, 1, 1\) has more than 2 rows"):
        factorial_schur_quotient((1, 1, 1), 2)
    assert bialternant((), 0) == factorial_schur_quotient((), 0) == Polynomial.one()


@given(st.lists(st.integers(0, 3), max_size=6))
def test_distinct_permutations_are_each_ordering_once(values):
    orderings = list(distinct_permutations(values))
    assert orderings == sorted(set(permutations(values)), reverse=True)


def test_maximal_minors_of_a_wide_matrix():
    rng = random.Random(11)
    for rows, cols in [(1, 3), (2, 4), (3, 5), (2, 2)]:
        matrix = random_matrix(rng, cols)
        wide = PolyMatrix.from_rows([matrix.row(i) for i in range(rows)])
        minors = _maximal_minors(wide)
        for chosen in range(1 << cols):
            columns = [j for j in range(cols) if chosen >> j & 1]
            if len(columns) != rows:
                assert chosen not in minors
                continue
            square = PolyMatrix.from_rows([[wide.entry(i, j) for j in columns] for i in range(rows)])
            assert minors.get(chosen, Polynomial.zero()) == det(square)


# -- factorial side -------------------------------------------------------------------


def test_falling_power_examples():
    assert falling_power(xvar(1), 0) == Polynomial.one()
    assert falling_power(xvar(1), 1) == xpoly(1) - apoly(1)
    assert falling_power(xvar(1), 2) == parse_poly("x1^2 - x1*a1 - x1*a2 + a1*a2")


def test_factorial_alternant_at_a_zero():
    for shape in [(), (1,), (2, 1)]:
        for n in (1, 2, 3):
            if len(shape) > n:
                continue
            plain = substitute_zero(factorial_alternant(shape, n), Family.A, 1)
            # at a = 0 each (x_j | a)^k is x_j^k: both alternants build one matrix
            assert plain == alternant(shape, n)


def test_factorial_schur_quotient_examples():
    assert factorial_schur_quotient((1,), 1) == xpoly(1) - apoly(1)
    expected = (xpoly(1) - apoly(1)) + (xpoly(2) - apoly(2))
    assert factorial_schur_quotient((1,), 2) == expected
    assert substitute_zero(factorial_schur_quotient((2, 1), 3), Family.A, 1) == bialternant(
        (2, 1), 3
    )


def test_factorial_schur_quotient_matches_tableaux():
    # at n = 4 the cofactors of x_i^a x_j^b hold a-variables
    for shape in partitions_in_box(4, 4):
        if sum(shape) <= 4:
            assert factorial_schur_quotient(shape, 4) == factorial_schur_tableaux(shape, 4)


# -- divided differences ----------------------------------------------------------------


def test_divided_difference_examples():
    assert divided_difference(2, 2) == xpoly(1) + xpoly(2)
    assert divided_difference(5, 1) == xpoly(1) ** 5
    assert divided_difference(2, 3) == Polynomial.one()


def test_divided_difference_matches_h_oracle():
    for n in range(0, 7):
        for k in range(1, n + 2):
            assert divided_difference(n, k) == complete_homogeneous(n - k + 1, k)


def test_divided_differences_take_one_division_per_order(monkeypatch):
    from schurpaths import identities, symfun

    divide, divisors = symfun.exact_div, []

    def counted(p, d):
        divisors.append(d)
        return divide(p, d)

    monkeypatch.setattr(symfun, "exact_div", counted)
    for n in range(0, 7):
        divisors.clear()
        table = divided_differences(n)
        assert divisors == [xpoly(1) - xpoly(k) for k in range(2, n + 2)]
        assert table == [complete_homogeneous(n - k + 1, k) for k in range(1, n + 2)]
        divisors.clear()
        assert newton_expand(n) == tpoly() ** n
        assert len(divisors) == n
    divisors.clear()
    assert identities.verify_newton(8).status == "VERIFIED"
    assert len(divisors) == 8  # one table serves the expansion and the entry checks
    with pytest.raises(ValueError):
        divided_differences(-1)


def test_divided_difference_matches_numeric_oracle():
    """Independent check with Fraction arithmetic at random distinct nodes."""
    rng = random.Random(3)
    for n in range(1, 6):
        for k in range(1, n + 2):
            nodes = rng.sample(range(-12, 13), k)
            table = [Fraction(x) ** n for x in nodes]
            for level in range(1, k):
                table = [
                    (table[i + 1] - table[i]) / (nodes[i + level] - nodes[i])
                    for i in range(len(table) - 1)
                ]
            symbolic = eval_int(
                divided_difference(n, k), {xvar(i + 1): nodes[i] for i in range(k)}
            )
            assert Fraction(symbolic) == table[0]


def test_divided_difference_validates_range():
    with pytest.raises(ValueError):
        divided_difference(2, 0)
    with pytest.raises(ValueError):
        divided_difference(2, 4)


def test_newton_expansion_collapses():
    assert newton_expand(0) == Polynomial.one()
    assert newton_expand(1) == tpoly()
    assert newton_expand(2) == tpoly() ** 2
    for n in range(3, 7):
        assert newton_expand(n) == tpoly() ** n
