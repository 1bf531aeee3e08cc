import ast
import sys
from itertools import product
from math import comb
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import example, given, settings, strategies as st
from tableau_oracle import enumerated_factorial_sum, factorial_tableau_weight

from schurpaths import combinat, identities
from schurpaths.combinat import (
    conjugate,
    factorial_schur_tableaux,
    parse_partition,
    partition,
    partition_text,
    partitions_in_box,
    schur_tableaux,
    ssyt_count,
    ssyt_enumerate,
    tableau_monomial,
)
from schurpaths.ring import (
    DegreeOverflow,
    Family,
    Monomial,
    Polynomial,
    apoly,
    canonical_text,
    eval_int,
    parse_poly,
    substitute_zero,
    x_word_sum,
    xpoly,
    xvar,
)


@st.composite
def partitions(draw, max_part=5, max_rows=4):
    rows = draw(st.integers(0, max_rows))
    parts = sorted(
        (draw(st.integers(1, max_part)) for _ in range(rows)), reverse=True
    )
    return tuple(parts)


def brute_force_ssyt(shape, n):
    """Oracle: filter all fillings of the shape by the row/column conditions."""
    shape = partition(shape)
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    found = set()
    for filling in product(range(1, n + 1), repeat=len(cells)):
        grid = {cell: value for cell, value in zip(cells, filling)}
        ok = all(
            grid[(r, c)] >= grid[(r, c - 1)] for (r, c) in cells if c > 0
        ) and all(grid[(r, c)] > grid[(r - 1, c)] for (r, c) in cells if r > 0)
        if ok:
            found.add(tuple(tuple(grid[(r, c)] for c in range(shape[r])) for r in range(len(shape))))
    return found


def is_ssyt(tableau, n):
    for row in tableau:
        if any(not 1 <= v <= n for v in row):
            return False
        if any(left > right for left, right in zip(row, row[1:])):
            return False
    for upper, lower in zip(tableau, tableau[1:]):
        if any(upper[c] >= lower[c] for c in range(len(lower))):
            return False
    return True


def swap_x_variables(p, i, j):
    """Rename x_i <-> x_j; used to probe symmetry."""

    def image(v):
        if v.family == Family.X and v.index == i:
            return xvar(j)
        if v.family == Family.X and v.index == j:
            return xvar(i)
        return v

    return Polynomial(
        {Monomial.of({image(v): e for v, e in m.exps}): c for m, c in p.items()}
    )


# -- partitions ----------------------------------------------------------------


def test_partition_canonical_form():
    assert partition([3, 1, 0, 0]) == (3, 1)
    assert partition([]) == ()
    with pytest.raises(ValueError):
        partition([1, 2])
    with pytest.raises(ValueError):
        partition([2, -1])


def test_partition_text_round_trip():
    assert partition_text((2, 1)) == "[2,1]"
    assert parse_partition("[2,1]") == (2, 1)
    assert parse_partition("[]") == ()
    assert parse_partition(" [ 3 , 1 ] ") == (3, 1)
    for bad in ["2,1", "[2,1", "[a]", "[1,2]"]:
        with pytest.raises(ValueError):
            parse_partition(bad)


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2)) == (2, 2)


@given(partitions())
def test_conjugate_is_an_involution(shape):
    assert conjugate(conjugate(shape)) == shape
    assert sum(conjugate(shape)) == sum(shape)


def test_partitions_in_box_examples():
    assert partitions_in_box(1, 1) == [(), (1,)]
    assert partitions_in_box(2, 2) == [(), (1,), (2,), (1, 1), (2, 1), (2, 2)]
    assert partitions_in_box(0, 5) == [()]


def test_partitions_in_box_counts_and_oracle():
    for rows, cols in product(range(4), repeat=2):
        listed = partitions_in_box(rows, cols)
        assert len(listed) == comb(rows + cols, rows)
        assert len(set(listed)) == len(listed)
        brute = {
            partition(sorted(parts, reverse=True))
            for parts in product(range(cols + 1), repeat=rows)
        }
        assert set(listed) == brute


# -- tableaux -------------------------------------------------------------------


def test_ssyt_forced_and_empty_cases():
    assert list(ssyt_enumerate((1, 1), 2)) == [((1,), (2,))]
    assert list(ssyt_enumerate((1, 1, 1), 2)) == []
    assert list(ssyt_enumerate((), 3)) == [()]


def test_ssyt_against_brute_force_oracle():
    for shape in [(1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (2, 1, 1), (3, 2)]:
        for n in (1, 2, 3, 4):
            listed = list(ssyt_enumerate(shape, n))
            assert len(set(listed)) == len(listed)
            assert all(is_ssyt(t, n) for t in listed)
            assert set(listed) == brute_force_ssyt(shape, n)


def test_ssyt_deterministic_order():
    assert list(ssyt_enumerate((2, 1), 3)) == list(ssyt_enumerate((2, 1), 3))
    assert len(list(ssyt_enumerate((2, 1), 3))) == 8


def test_ssyt_count_is_the_number_of_path_systems():
    # the hook-content count against the row-by-row walk and the enumeration
    from schurpaths import lgv

    for n in range(1, 6):
        for shape in partitions_in_box(n, 5):
            if sum(shape) > 5:
                continue
            scheme = lgv.jacobi_trudi_scheme(n=n, col_bound=(shape[0] if shape else 0) + n)
            walked = lgv.nonintersecting_count(scheme, *lgv.schur_endpoints(shape, n))
            assert ssyt_count(shape, n) == walked == len(list(ssyt_enumerate(shape, n)))
    assert ssyt_count((1, 1, 1), 2) == 0


def test_ssyt_count_is_quick_on_huge_shapes_and_stops_past_its_bound():
    assert ssyt_count((10_000_000,), 2) == 10_000_001  # one factor, not 10^7 cells
    assert ssyt_count((1,), 1_000_000) == 1_000_000  # one factor for the empty rows
    assert ssyt_count((300,), 300) == comb(599, 300)
    assert ssyt_count((50,), 12) == 418_094_152_866
    # the running product only grows, so a stopped count is a lower bound past `stop`
    for shape, n in [((300,), 300), ((50,), 12)]:
        assert 10**6 < ssyt_count(shape, n, stop=10**6) <= ssyt_count(shape, n)
    staircase = tuple(range(3000, 0, -1))  # 4.5 million pairs of rows of unequal length
    assert ssyt_count(staircase, 3000, stop=10**6) > 10**6
    assert ssyt_count((3, 3, 2, 2), 8, stop=10**6) == ssyt_count((3, 3, 2, 2), 8) == 31752


def test_tableau_monomial_examples():
    assert tableau_monomial(((1, 2),)) == xpoly(1) * xpoly(2)
    assert tableau_monomial(((1,), (2,))) == xpoly(1) * xpoly(2)
    assert tableau_monomial(((1, 1),)) == xpoly(1) ** 2


# -- Schur tableau sums ----------------------------------------------------------


def test_schur_examples():
    assert schur_tableaux((1,), 2) == xpoly(1) + xpoly(2)
    assert schur_tableaux((1, 1), 2) == xpoly(1) * xpoly(2)
    assert schur_tableaux((2, 1), 3) == parse_poly(
        "x1^2*x2 + x1^2*x3 + x1*x2^2 + 2*x1*x2*x3 + x1*x3^2 + x2^2*x3 + x2*x3^2"
    )
    assert schur_tableaux((), 3) == Polynomial.one()
    assert schur_tableaux((1, 1, 1), 2) == Polynomial.zero()


def _enumerated_sum(shape, n):
    """The oracle: x^T summed one enumerated tableau at a time."""
    return x_word_sum(sum(tableau, ()) for tableau in ssyt_enumerate(shape, n))


_SHAPES_UP_TO_8 = [shape for shape in partitions_in_box(8, 8) if sum(shape) <= 8]


@settings(deadline=None)
@given(st.sampled_from(_SHAPES_UP_TO_8), st.integers(1, 8))
@example((), 1)
@example((), 6)
@example((8,), 1)
@example((1, 1), 1)
@example((2, 1, 1, 1, 1, 1, 1), 6)
@example((3, 2, 2, 1), 3)
@example((4, 2, 1), 8)
@example((1, 1, 1, 1, 1, 1, 1), 8)
def test_strip_sum_equals_the_enumerated_tableau_sum(shape, n):
    # more rows than n gives 0 on both sides, the empty shape 1
    assert schur_tableaux(shape, n) == _enumerated_sum(shape, n)


def test_strip_sum_prints_the_enumerated_bytes():
    for shape in [(5, 2, 1), (4, 3, 1)]:
        assert canonical_text(schur_tableaux(shape, 7)) == canonical_text(_enumerated_sum(shape, 7))


def test_halves_that_meet_equal_the_enumerated_tableau_sum():
    # from n = 3 on the walk meets at the letter n - (n - 1) // 2; shapes such as
    # (1,1,1,1,1) at n = 5 and (2,2,1,1,1) at n = 7 have more rows than the
    # upper half has letters
    points = [(shape, n) for n in range(1, 8) for shape in _SHAPES_UP_TO_8 if sum(shape) <= 6]
    for shape, n in points + [((2, 2, 1, 1, 1), 7)]:
        assert schur_tableaux(shape, n) == _enumerated_sum(shape, n), (shape, n)


def test_the_halves_join_only_from_n_3(monkeypatch):
    def joined(pairs):
        raise AssertionError("the tableau sum joined two halves")

    monkeypatch.setattr(combinat, "sum_of_products", joined)
    for n in (1, 2):
        for shape in _SHAPES_UP_TO_8:
            if len(shape) <= n and sum(shape) <= 6:
                assert schur_tableaux(shape, n) == _enumerated_sum(shape, n)
    with pytest.raises(AssertionError, match="joined two halves"):
        schur_tableaux((1,), 3)


def test_schur_degree_limit():
    # the single tableau of (128,) at n = 1 has degree 128; (128, 1) has none
    with pytest.raises(DegreeOverflow):
        schur_tableaux((128,), 1)
    with pytest.raises(DegreeOverflow):
        schur_tableaux((100, 28), 2)
    assert schur_tableaux((128, 1), 1) == Polynomial.zero()
    assert schur_tableaux((127,), 1) == xpoly(1) ** 127


def test_combinat_imports_only_the_ring():
    # the tableau route shares nothing with the other routes but the ring
    tree = ast.parse(Path(combinat.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Name):
            assert node.id != "__import__", f"dynamic import at line {node.lineno}"
    package = [name for name in imported if name.startswith(".") or name.startswith("schurpaths")]
    assert package == [".ring"], package
    for name in imported:
        if name != ".ring":
            root = name.split(".")[0]
            assert root == "__future__" or root in sys.stdlib_module_names, name
            assert root != "importlib", name
    modules = [value for value in vars(combinat).values() if isinstance(value, ModuleType)]
    assert not [m for m in modules if m.__name__.startswith("schurpaths")]


def test_schur_coefficients_positive_and_count_consistent():
    for n in (1, 2, 3, 4):
        for shape in partitions_in_box(n, 6):
            if sum(shape) > 6:
                continue
            poly = schur_tableaux(shape, n)
            assert all(c > 0 for _, c in poly.items())
            ones = {xvar(i): 1 for i in range(1, n + 1)}
            assert eval_int(poly, ones) == len(list(ssyt_enumerate(shape, n)))


def test_schur_is_symmetric_under_transpositions():
    for n in (2, 3, 4):
        for shape in partitions_in_box(n, 6):
            if sum(shape) > 6:
                continue
            poly = schur_tableaux(shape, n)
            for i in range(1, n):
                assert swap_x_variables(poly, i, i + 1) == poly


# -- factorial Schur --------------------------------------------------------------


def test_factorial_weight_examples():
    assert factorial_tableau_weight(((1,),)) == xpoly(1) - apoly(1)
    # column pair: the lower cell has content -1, so its parameter index is T(2,1) - 1
    assert factorial_tableau_weight(((1,), (2,))) == (xpoly(1) - apoly(1)) * (
        xpoly(2) - apoly(1)
    )
    weight = factorial_tableau_weight(((1, 2), (2,)))
    assert substitute_zero(weight, Family.A, 1) == tableau_monomial(((1, 2), (2,)))


def test_factorial_schur_examples():
    assert factorial_schur_tableaux((1,), 2) == (xpoly(1) - apoly(1)) + (
        xpoly(2) - apoly(2)
    )
    assert factorial_schur_tableaux((), 5) == Polynomial.one()


_SHAPES_UP_TO_6 = [shape for shape in _SHAPES_UP_TO_8 if sum(shape) <= 6]


def test_factorial_strip_walk_equals_the_enumerated_sum_up_to_size_6():
    for n in range(1, 6):
        for shape in _SHAPES_UP_TO_6:
            walked = factorial_schur_tableaux(shape, n)
            enumerated = enumerated_factorial_sum(shape, n)
            assert canonical_text(walked) == canonical_text(enumerated), (shape, n)


@settings(deadline=None, max_examples=25)
@given(st.sampled_from(_SHAPES_UP_TO_8), st.integers(1, 4))
@example((3, 2, 2, 1), 4)
@example((8,), 1)
def test_factorial_strip_walk_equals_the_enumerated_sum(shape, n):
    assert factorial_schur_tableaux(shape, n) == enumerated_factorial_sum(shape, n)


def test_the_factorial_check_enumerates_no_tableau(monkeypatch):
    def listed(shape, n):
        raise AssertionError("a tableau sum listed its tableaux")

    monkeypatch.setattr(combinat, "ssyt_enumerate", listed)
    for shape, n in [((), 1), ((2, 1), 3), ((4, 3, 2, 1), 4), ((2, 2, 1, 1), 5)]:
        assert identities.verify_factorial_schur(shape, n).status == "VERIFIED"


def test_factorial_schur_specializes_to_schur():
    for shape in [(1,), (2,), (1, 1), (2, 1), (2, 2)]:
        for n in (2, 3):
            specialized = substitute_zero(
                factorial_schur_tableaux(shape, n), Family.A, 1
            )
            assert specialized == schur_tableaux(shape, n)
